//! Discrete-event replay of an [`OpTrace`] on a [`Machine`] at a given rank
//! count.
//!
//! The replay advances a single critical-path clock (ranks are symmetric
//! under balanced partitioning; load imbalance enters through the
//! *max-loaded-rank* workloads of [`crate::profile::MatrixProfile::work_at`] and straggler
//! noise through [`crate::noise::NoiseModel`]). Non-blocking allreduce
//! semantics follow MPI:
//!
//! * with asynchronous progress (`machine.async_progress`), a reduction
//!   posted at `t₀` completes at `t₀ + G`, concurrently with any compute —
//!   the wait exposes only `max(0, t₀ + G − t_wait)`;
//! * without it, no progress happens outside MPI calls, so the full `G` is
//!   exposed at the wait — reproducing the paper's requirement of DMAPP +
//!   `MPICH_NEMESIS_ASYNC_PROGRESS=1` (§VI-A).

#[expect(clippy::disallowed_types, reason = "keyed lookup, never iterated")]
use std::collections::HashMap;

use crate::machine::Machine;
use crate::profile::SpmvWork;
use crate::trace::{Op, OpTrace};

/// Cost breakdown of one replayed execution.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ReplayResult {
    /// End-to-end modelled time, seconds.
    pub total_time: f64,
    /// Rank-local compute (SpMV + PC + VMA + dot + scalar work).
    pub compute_time: f64,
    /// Point-to-point halo time (SpMV ghost exchange, PC comm rounds).
    pub halo_time: f64,
    /// Allreduce time actually exposed on the critical path (after overlap).
    pub allreduce_exposed: f64,
    /// Total allreduce time including the hidden portion.
    pub allreduce_total: f64,
    /// `(time, relative residual)` at every convergence check.
    pub residual_timeline: Vec<(f64, f64)>,
}

impl ReplayResult {
    /// Fraction of allreduce time hidden behind computation.
    pub fn overlap_fraction(&self) -> f64 {
        if self.allreduce_total == 0.0 {
            0.0
        } else {
            1.0 - self.allreduce_exposed / self.allreduce_total
        }
    }
}

/// Replays `trace` on `machine` with `p` ranks.
pub fn replay(trace: &OpTrace, machine: &Machine, p: usize) -> ReplayResult {
    assert!(p > 0, "replay needs at least one rank");
    // SpMV workloads are queried once per registered matrix.
    let works: Vec<SpmvWork> = trace.profiles.iter().map(|m| m.work_at(p)).collect();
    let vec_rows = trace.nrows.div_ceil(p) as f64;

    let mut res = ReplayResult::default();
    let mut t = 0.0f64;
    #[expect(clippy::disallowed_types, reason = "keyed lookup, never iterated")]
    let mut pending: HashMap<u64, f64> = HashMap::new(); // id -> completion or G
    #[expect(clippy::disallowed_types, reason = "keyed lookup, never iterated")]
    let mut mpk_works: HashMap<(usize, usize), SpmvWork> = HashMap::new();
    // Straggler stretch factor on collective durations: an allreduce is only
    // as fast as its slowest participant, so one slowed rank stretches every
    // subsequent reduction (clean traces never carry the marker; 1.0).
    let mut straggler = 1.0f64;

    for op in &trace.ops {
        match *op {
            Op::Spmv { matrix, .. } => {
                let w = works[matrix];
                let flops = 2.0 * w.local_nnz as f64;
                // 8 B value + 4 B column index streamed once (PETSc-style
                // 32-bit indices), plus the input/output vector traffic.
                let bytes = 12.0 * w.local_nnz as f64 + 16.0 * w.local_rows as f64;
                let ct = machine.compute_time(flops, bytes);
                let ht = machine.halo_time(w.neighbors, 8.0 * w.halo_doubles as f64);
                res.compute_time += ct;
                res.halo_time += ht;
                t += ct + ht;
            }
            Op::Mpk { matrix, depth, .. } => {
                // FLOPs and streaming of `depth` SpMVs, one widened halo
                // (the widened workload is cached per (matrix, depth)).
                let w = works[matrix];
                let flops = 2.0 * (depth * w.local_nnz) as f64;
                let bytes =
                    12.0 * (depth * w.local_nnz) as f64 + 16.0 * (depth * w.local_rows) as f64;
                let ct = machine.compute_time(flops, bytes);
                let wd = *mpk_works
                    .entry((matrix, depth))
                    .or_insert_with(|| trace.profiles[matrix].work_at_depth(p, depth));
                let ht = machine.halo_time(wd.neighbors, 8.0 * wd.halo_doubles as f64);
                res.compute_time += ct;
                res.halo_time += ht;
                t += ct + ht;
            }
            Op::Pc {
                matrix,
                flops_per_row,
                bytes_per_row,
                comm_rounds,
                ..
            } => {
                let w = works[matrix];
                let rows = w.local_rows as f64;
                let ct = machine.compute_time(flops_per_row * rows, bytes_per_row * rows);
                let ht = comm_rounds as f64
                    * machine.halo_time(w.neighbors, 8.0 * w.halo_doubles as f64);
                res.compute_time += ct;
                res.halo_time += ht;
                t += ct + ht;
            }
            Op::Local {
                flops_per_row,
                bytes_per_row,
                ..
            } => {
                let ct = machine.compute_time(flops_per_row * vec_rows, bytes_per_row * vec_rows);
                res.compute_time += ct;
                t += ct;
            }
            Op::Scalar { flops } => {
                let ct = flops / machine.flops_per_core;
                res.compute_time += ct;
                t += ct;
            }
            Op::ArPost { id, doubles, .. } => {
                let g = machine.allreduce_time(p, doubles) * straggler;
                res.allreduce_total += g;
                // Store the absolute completion time (async progress) or
                // the raw duration to expose at the wait (no progress).
                pending.insert(id, if machine.async_progress { t + g } else { g });
            }
            #[expect(clippy::expect_used, reason = "a missing ArPost means a corrupt trace")]
            Op::ArWait { id } => {
                let stored = pending
                    .remove(&id)
                    .expect("ArWait without matching ArPost in trace");
                // `stored` is the absolute completion time (async progress)
                // or the full duration exposed at the wait (no progress).
                let exposed = if machine.async_progress {
                    (stored - t).max(0.0)
                } else {
                    stored
                };
                res.allreduce_exposed += exposed;
                t += exposed;
            }
            Op::ArBlocking { doubles, .. } => {
                let g = machine.allreduce_time(p, doubles) * straggler;
                res.allreduce_total += g;
                res.allreduce_exposed += g;
                t += g;
            }
            // A read of an in-flight reduction costs nothing on the model:
            // it is a *correctness* defect (see the schedule analyzer), not
            // a timing event.
            Op::RedRead { .. } => {}
            // A fault-injected timeout: the model does not price fault
            // recovery. A dropped completion (non-retriable) retires its
            // handle — the posted cost stays in `allreduce_total` but is
            // never exposed; a delayed one leaves the handle pending for
            // the eventual successful wait.
            #[expect(clippy::expect_used, reason = "a missing ArPost means a corrupt trace")]
            Op::ArTimeout { id, retriable } => {
                if !retriable {
                    pending
                        .remove(&id)
                        .expect("ArTimeout without matching ArPost in trace");
                }
            }
            Op::ResCheck { relres } => {
                res.residual_timeline.push((t, relres));
            }
            // A straggling rank gates every later reduction: the worst
            // observed factor applies from here on.
            Op::RankSlow { factor, .. } => {
                straggler = straggler.max(factor);
            }
            // A rank death is a correctness/recovery event; the model does
            // not price the rebuild itself. Post-death ops in the trace ran
            // on the survivor communicator.
            Op::RankDead { .. } => {}
        }
    }
    assert!(pending.is_empty(), "trace ended with unawaited allreduces");
    res.total_time = t;
    res
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::{Layout, MatrixProfile};
    use crate::trace::LocalKind;

    fn base_trace() -> OpTrace {
        let mut tr = OpTrace::new(1_000_000);
        tr.register_matrix(MatrixProfile::stencil3d(
            100,
            100,
            100,
            2,
            124_000_000,
            Layout::Box,
        ));
        tr
    }

    #[test]
    fn compute_shrinks_with_ranks() {
        let mut tr = base_trace();
        tr.push(Op::spmv(0));
        let m = Machine::sahasrat();
        let t1 = replay(&tr, &m, 24).total_time;
        let t2 = replay(&tr, &m, 960).total_time;
        assert!(t2 < t1 / 10.0, "t1={t1} t2={t2}");
    }

    #[test]
    fn nonblocking_overlap_hides_allreduce() {
        let mut tr = base_trace();
        tr.push(Op::post(1, 8));
        tr.push(Op::spmv(0));
        tr.push(Op::wait(1));
        let m = Machine::sahasrat();
        let r = replay(&tr, &m, 24);
        // On one node the SpMV (ms-scale) dwarfs G (µs-scale): fully hidden.
        assert!(
            r.allreduce_exposed < 1e-12,
            "exposed = {}",
            r.allreduce_exposed
        );
        assert!(r.allreduce_total > 0.0);
        assert!(r.overlap_fraction() > 0.999);
    }

    #[test]
    fn blocking_allreduce_is_always_exposed() {
        let mut tr = base_trace();
        tr.push(Op::blocking(8));
        tr.push(Op::spmv(0));
        let m = Machine::sahasrat();
        let r = replay(&tr, &m, 48);
        assert_eq!(r.allreduce_exposed, r.allreduce_total);
        assert!(r.allreduce_total > 0.0);
    }

    #[test]
    fn without_async_progress_overlap_vanishes() {
        let mut tr = base_trace();
        tr.push(Op::post(1, 8));
        tr.push(Op::spmv(0));
        tr.push(Op::wait(1));
        let on = replay(&tr, &Machine::sahasrat(), 48);
        let off = replay(&tr, &Machine::sahasrat_no_async_progress(), 48);
        assert!(on.allreduce_exposed < off.allreduce_exposed);
        assert_eq!(off.allreduce_exposed, off.allreduce_total);
        assert!(off.total_time > on.total_time);
    }

    #[test]
    fn ideal_machine_time_is_pure_compute() {
        let mut tr = base_trace();
        tr.push(Op::post(0, 4));
        tr.push(Op::spmv(0));
        tr.push(Op::wait(0));
        tr.push(Op::blocking(4));
        tr.push(Op::local(LocalKind::Vma, 2.0, 0.0));
        let r = replay(&tr, &Machine::ideal(8), 8);
        assert_eq!(r.total_time, r.compute_time);
        assert_eq!(r.allreduce_total, 0.0);
        assert_eq!(r.halo_time, 0.0);
    }

    #[test]
    fn residual_timeline_has_monotone_times() {
        let mut tr = base_trace();
        for i in 0..5 {
            tr.push(Op::spmv(0));
            tr.push(Op::ResCheck {
                relres: 1.0 / (i + 1) as f64,
            });
        }
        let r = replay(&tr, &Machine::sahasrat(), 24);
        assert_eq!(r.residual_timeline.len(), 5);
        for w in r.residual_timeline.windows(2) {
            assert!(w[1].0 > w[0].0);
        }
    }

    #[test]
    #[should_panic(expected = "unawaited")]
    fn unawaited_post_panics() {
        let mut tr = base_trace();
        tr.push(Op::post(9, 2));
        replay(&tr, &Machine::sahasrat(), 4);
    }

    #[test]
    fn straggler_marker_stretches_later_allreduces() {
        let mut clean = base_trace();
        clean.push(Op::blocking(8));
        clean.push(Op::blocking(8));
        let mut slow = base_trace();
        slow.push(Op::blocking(8));
        slow.push(Op::RankSlow {
            rank: 3,
            factor: 4.0,
        });
        slow.push(Op::blocking(8));
        let m = Machine::sahasrat();
        let rc = replay(&clean, &m, 48);
        let rs = replay(&slow, &m, 48);
        // First reduction identical, second stretched 4x: total 2G vs 5G.
        assert!((rs.allreduce_total / rc.allreduce_total - 2.5).abs() < 1e-12);
        assert_eq!(rs.allreduce_exposed, rs.allreduce_total);
    }

    #[test]
    fn rank_death_marker_is_free_and_keeps_traces_replayable() {
        let mut tr = base_trace();
        tr.push(Op::post(1, 8));
        tr.push(Op::RankDead { rank: 3 });
        // The solver saw the failure at the wait: the handle retires via a
        // non-retriable timeout, as the tracing engine records.
        tr.push(Op::ArTimeout {
            id: 1,
            retriable: false,
        });
        tr.push(Op::spmv(0));
        let m = Machine::sahasrat();
        let r = replay(&tr, &m, 24);
        assert_eq!(r.allreduce_exposed, 0.0, "retired reduction never exposed");
        assert!(r.allreduce_total > 0.0);
    }

    #[test]
    fn scalar_work_is_rank_independent() {
        let mut tr = base_trace();
        tr.push(Op::Scalar { flops: 1.0e6 });
        let m = Machine::ideal(4);
        assert_eq!(
            replay(&tr, &m, 1).total_time,
            replay(&tr, &m, 64).total_time
        );
    }
}
