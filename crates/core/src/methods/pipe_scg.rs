//! PIPE-sCG — the paper's Algorithm 5 (§IV-B, main contribution,
//! unpreconditioned form).
//!
//! Starting from Algorithm 4, the dependency between the 2s dot products and
//! the s SPMVs is eliminated by carrying the *matrix of matrices*
//! `AQm[j] = A^{j+1}·P` (here `apow`, j = 0..s) with recurrence linear
//! combinations. The fresh monomial basis `{r, Ar, …, Aˢr}` then comes from
//! recurrences too, so the only SPMVs left in an iteration are the s *deep
//! power* products `A^{s+1}r … A^{2s}r` — whose results the dot products do
//! **not** need. The allreduce is posted non-blocking before them and waited
//! after them: one allreduce per s steps, fully overlapped with s SPMVs.
//!
//! The loop is [`pipe_pscg`]'s, run over an unpreconditioned chain: one power
//! list and one recurrence family where Algorithms 6–7 carry two.

use pscg_sim::Context;

use crate::methods::pipe_pscg::{self, PipeConfig};
use crate::solver::{SolveOptions, SolveResult};
use crate::sstep::Chain;

/// Solves `A x = b` with PIPE-sCG. `x0` defaults to zero.
pub fn solve<C: Context>(
    ctx: &mut C,
    b: &[f64],
    x0: Option<&[f64]>,
    opts: &SolveOptions,
) -> SolveResult {
    let cfg = PipeConfig {
        method: "PIPE-sCG",
        ..PipeConfig::pipe_pscg(opts.s)
    };
    pipe_pscg::solve_chain(ctx, b, x0, opts, cfg, Chain::Plain)
}

/// PIPE-sCG with the matrix-powers kernel: the basis and deep powers are
/// produced by CA-SpMV sweeps (one widened halo exchange for s products)
/// instead of s individual SpMVs. The paper's §II explains why the authors
/// avoid MPK — it constrains preconditioning — but for the unpreconditioned
/// method it composes cleanly; the `mpk` experiment in the benchmark
/// harness quantifies the halo-latency trade-off.
pub fn solve_mpk<C: Context>(
    ctx: &mut C,
    b: &[f64],
    x0: Option<&[f64]>,
    opts: &SolveOptions,
) -> SolveResult {
    let cfg = PipeConfig {
        method: "PIPE-sCG+MPK",
        ..PipeConfig::pipe_pscg(opts.s)
    };
    pipe_pscg::solve_chain(ctx, b, x0, opts, cfg, Chain::Mpk)
}

/// Deliberately mis-scheduled PIPE-sCG variants.
///
/// Each reproduces a real bug class of pipelined-CG implementations while
/// keeping the *serial* numerics bit-identical to the correct method — which
/// is exactly why such bugs ship: every single-rank test passes. They exist
/// so the `pscg-analysis` schedule analyzer can prove it detects them from
/// the trace alone. Gated out of production builds; the `broken-variants`
/// feature exists so other crates' test suites can reach them.
#[cfg(any(test, feature = "broken-variants"))]
pub mod broken {
    use super::*;
    use crate::driver::Driver;
    use crate::solver::StopReason;
    use crate::sstep::{GramPacket, GramPacketBuf, PowerBasis, ScalarWork};
    use pscg_sim::ReduceHandle;

    /// Which scheduling mistake to inject.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum BrokenMode {
        /// The wait is hoisted directly after the post: the deep powers no
        /// longer overlap the allreduce, so the pipeline silently serializes
        /// (the Table I overlap window is empty).
        WaitHoisted,
        /// The reduction result is consumed via `peek_pending` before the
        /// wait: on one rank the values coincide with the reduced ones, on
        /// `P > 1` every rank computes with different partial sums.
        ReadBeforeWait,
        /// A buffer that fed the pending reduction's dot products is
        /// written inside the overlap window (a "redundant" normalization
        /// of the basis head — numerically a no-op at factor 1.0).
        WritesDotInput,
    }

    enum PendingRed {
        InFlight(ReduceHandle),
        Done(Vec<f64>),
    }

    /// PIPE-sCG with the scheduling bug selected by `mode`. Converges to the
    /// same solution as [`super::solve`] on one rank. Its own copy of the
    /// pipelined loop, because the bugs live in how it posts and waits; it
    /// keeps the plain `ctx.wait` (no retry, no rank-failure test).
    pub fn solve<C: Context>(
        ctx: &mut C,
        b: &[f64],
        x0: Option<&[f64]>,
        opts: &SolveOptions,
        mode: BrokenMode,
    ) -> SolveResult {
        let s = opts.s.min(ctx.nrows().max(1));
        assert!(s >= 1, "PIPE-sCG requires s >= 1");
        let (mut drv, r) = Driver::begin(ctx, "PIPE-sCG(broken)", b, x0, opts, None);
        let mut basis = PowerBasis::new(ctx, Chain::Plain, &r, s, 2 * s);
        let mut blocks = basis.dir_blocks(ctx, s);
        let mut packet = GramPacketBuf::new(s);
        basis.gram_packet(ctx, &blocks[0].dirs, &mut packet);
        let mut pending = post(ctx, packet.flat(), mode);
        let overlap = |ctx: &mut C, basis: &mut PowerBasis| {
            if mode == BrokenMode::WritesDotInput {
                ctx.scale_v(1.0, basis.residual_mut());
            }
            basis.extend(ctx, s, 2 * s);
        };
        overlap(ctx, &mut basis);
        let mut scalar = ScalarWork::new(s);

        loop {
            let red = match pending {
                PendingRed::Done(v) => v,
                PendingRed::InFlight(h) => {
                    if mode == BrokenMode::ReadBeforeWait {
                        let v = ctx.peek_pending(&h);
                        ctx.wait(h);
                        v
                    } else {
                        ctx.wait(h)
                    }
                }
            };
            let pkt = GramPacket::view(s, &red);
            let diverged = |relres| relres > 1e8;
            if drv
                .check(ctx, pkt.norms(), scalar.report(), diverged)
                .is_some()
            {
                break;
            }
            if scalar.step(ctx, &pkt).is_err() {
                drv.fail(ctx, StopReason::Breakdown);
                break;
            }

            scalar.scale_alpha(basis.sigma);
            let x = &mut drv.x;
            basis.recurrence_step(ctx, &mut blocks, &scalar, (true, 0.0), &mut packet, x);

            pending = post(ctx, packet.flat(), mode);
            overlap(ctx, &mut basis);
            drv.advance(s);
        }
        drv.finish(ctx)
    }

    fn post<C: Context>(ctx: &mut C, vals: &[f64], mode: BrokenMode) -> PendingRed {
        let h = ctx.iallreduce(vals);
        if mode == BrokenMode::WaitHoisted {
            // The bug: completing the reduction before doing the overlap
            // work it was supposed to hide behind.
            PendingRed::Done(ctx.wait(h))
        } else {
            PendingRed::InFlight(h)
        }
    }

    #[cfg(test)]
    mod tests {
        use super::*;
        use pscg_sim::SimCtx;
        use pscg_sparse::stencil::{poisson3d_7pt, Grid3};
        use pscg_sparse::IdentityOp;

        #[test]
        fn broken_variants_still_converge_on_one_rank() {
            // The whole point: serial numerics cannot tell the bugs apart.
            let g = Grid3::cube(6);
            let a = poisson3d_7pt(g, None);
            let b = a.mul_vec(&vec![1.0; a.nrows()]);
            let opts = SolveOptions {
                rtol: 1e-7,
                s: 3,
                ..Default::default()
            };
            let mut c0 = SimCtx::serial(&a, Box::new(IdentityOp::new(a.nrows())));
            let good = super::super::solve(&mut c0, &b, None, &opts);
            for mode in [
                BrokenMode::WaitHoisted,
                BrokenMode::ReadBeforeWait,
                BrokenMode::WritesDotInput,
            ] {
                let mut ctx = SimCtx::serial(&a, Box::new(IdentityOp::new(a.nrows())));
                let res = solve(&mut ctx, &b, None, &opts, mode);
                assert!(res.converged(), "{mode:?}");
                assert_eq!(res.iterations, good.iterations, "{mode:?}");
                assert_eq!(res.x, good.x, "{mode:?}");
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::methods::{scg, scg_sspmv};
    use pscg_sim::SimCtx;
    use pscg_sparse::stencil::{poisson3d_7pt, Grid3};
    use pscg_sparse::IdentityOp;

    fn problem() -> (pscg_sparse::CsrMatrix, Vec<f64>) {
        let g = Grid3::cube(6);
        let a = poisson3d_7pt(g, None);
        let n = a.nrows();
        let xstar: Vec<f64> = (0..n).map(|i| (0.11 * i as f64).cos()).collect();
        let b = a.mul_vec(&xstar);
        (a, b)
    }

    fn serial_ctx(a: &pscg_sparse::CsrMatrix) -> SimCtx<'_> {
        SimCtx::serial(a, Box::new(IdentityOp::new(a.nrows())))
    }

    #[test]
    fn pipe_scg_converges_for_various_s() {
        let (a, b) = problem();
        for s in [1usize, 2, 3, 4] {
            let mut ctx = serial_ctx(&a);
            let opts = SolveOptions {
                rtol: 1e-7,
                s,
                ..Default::default()
            };
            let res = solve(&mut ctx, &b, None, &opts);
            assert!(res.converged(), "s={s}: {:?}", res.stop);
            assert!(res.true_relres(&a, &b) < 1e-5, "s={s}");
        }
    }

    #[test]
    fn pipe_scg_tracks_the_blocking_variants() {
        let (a, b) = problem();
        let opts = SolveOptions {
            rtol: 1e-7,
            s: 3,
            ..Default::default()
        };
        let mut c1 = serial_ctx(&a);
        let r1 = scg::solve(&mut c1, &b, None, &opts);
        let mut c2 = serial_ctx(&a);
        let r2 = scg_sspmv::solve(&mut c2, &b, None, &opts);
        let mut c3 = serial_ctx(&a);
        let r3 = solve(&mut c3, &b, None, &opts);
        assert!(r3.converged());
        // All three realise the same s-step Krylov process.
        assert_eq!(r1.iterations, r3.iterations);
        assert_eq!(r2.iterations, r3.iterations);
    }

    #[test]
    fn pipe_scg_has_s_spmvs_and_one_nonblocking_allreduce_per_iteration() {
        let (a, b) = problem();
        let s = 3;
        let mut ctx = serial_ctx(&a);
        let opts = SolveOptions {
            rtol: 1e-6,
            s,
            ..Default::default()
        };
        let res = solve(&mut ctx, &b, None, &opts);
        assert!(res.converged());
        let su = s as u64;
        // Loop passes = history length; each pass waits one allreduce that
        // was posted the pass before (or at setup).
        let passes = res.history.len() as u64;
        assert_eq!(res.counters.nonblocking_allreduce, passes);
        assert_eq!(
            res.counters.blocking_allreduce, 2,
            "only the bnorm and the basis-scale estimate are blocking"
        );
        // Setup: 1 + 2s SPMVs; each *completed* iteration: exactly s.
        let outer = (res.iterations / s) as u64;
        assert_eq!(res.counters.spmv, 1 + 2 * su + outer * su);
        // The reference-norm computation applies M^-1 once (identity here).
        assert_eq!(res.counters.pc, 1);
    }

    #[test]
    fn pipe_scg_posts_allreduce_before_deep_spmvs() {
        // Structural check on the recorded trace: between an ArPost and its
        // ArWait there must be exactly s SPMVs (the overlap window).
        use pscg_sim::{Layout, MatrixProfile, Op};
        let (a, b) = problem();
        let s = 3;
        let prof = MatrixProfile::stencil3d(6, 6, 6, 1, a.nnz(), Layout::Box);
        let mut ctx = SimCtx::traced(&a, Box::new(IdentityOp::new(a.nrows())), prof);
        let opts = SolveOptions {
            rtol: 1e-6,
            s,
            ..Default::default()
        };
        let res = solve(&mut ctx, &b, None, &opts);
        assert!(res.converged());
        let trace = ctx.take_trace().expect("SimCtx::traced records a trace");
        let mut in_window = false;
        let mut spmvs_in_window = 0;
        let mut windows = 0;
        for op in &trace.ops {
            match op {
                Op::ArPost { .. } => {
                    in_window = true;
                    spmvs_in_window = 0;
                }
                Op::ArWait { .. } => {
                    assert_eq!(spmvs_in_window, s, "overlap window must hold s SPMVs");
                    in_window = false;
                    windows += 1;
                }
                Op::Spmv { .. } if in_window => spmvs_in_window += 1,
                _ => {}
            }
        }
        assert!(windows > 1);
    }
}

#[cfg(test)]
mod mpk_tests {
    use super::*;
    use pscg_sim::SimCtx;
    use pscg_sparse::stencil::{poisson3d_7pt, Grid3};
    use pscg_sparse::IdentityOp;

    #[test]
    fn mpk_variant_matches_plain_pipe_scg_numerically() {
        let g = Grid3::cube(6);
        let a = poisson3d_7pt(g, None);
        let b = a.mul_vec(&vec![1.0; a.nrows()]);
        let opts = SolveOptions {
            rtol: 1e-7,
            s: 3,
            ..Default::default()
        };
        let mut c1 = SimCtx::serial(&a, Box::new(IdentityOp::new(a.nrows())));
        let r1 = solve(&mut c1, &b, None, &opts);
        let mut c2 = SimCtx::serial(&a, Box::new(IdentityOp::new(a.nrows())));
        let r2 = solve_mpk(&mut c2, &b, None, &opts);
        assert!(r1.converged() && r2.converged());
        // Identical arithmetic, different communication schedule.
        assert_eq!(r1.iterations, r2.iterations);
        assert_eq!(r1.x, r2.x);
        assert_eq!(r2.method, "PIPE-sCG+MPK");
        // The MPK variant batches its SPMVs into powers-kernel calls while
        // still accounting the constituent products.
        assert!(r2.counters.mpk > 0);
        assert_eq!(r2.counters.spmv, r1.counters.spmv);
    }

    #[test]
    fn mpk_trace_replays_with_fewer_exposed_halo_messages() {
        use pscg_sim::{replay, Layout, Machine, MatrixProfile};
        let g = Grid3::cube(8);
        let a = poisson3d_7pt(g, None);
        let b = a.mul_vec(&vec![1.0; a.nrows()]);
        let prof = MatrixProfile::stencil3d(8, 8, 8, 1, a.nnz(), Layout::Box);
        let opts = SolveOptions {
            rtol: 1e-6,
            s: 3,
            ..Default::default()
        };
        let mut c1 = SimCtx::traced(&a, Box::new(IdentityOp::new(a.nrows())), prof.clone());
        let r1 = solve(&mut c1, &b, None, &opts);
        let mut c2 = SimCtx::traced(&a, Box::new(IdentityOp::new(a.nrows())), prof);
        let r2 = solve_mpk(&mut c2, &b, None, &opts);
        assert!(r1.converged() && r2.converged());
        let t1 = c1.take_trace().expect("SimCtx::traced records a trace");
        let t2 = c2.take_trace().expect("SimCtx::traced records a trace");
        // Same logical SPMV count either way.
        assert_eq!(t1.comm_counts().0, t2.comm_counts().0);
        // At high rank counts the batched halo (fewer message latencies)
        // reduces the halo share of the replayed time.
        let m = Machine::sahasrat();
        let h1 = replay(&t1, &m, 64).halo_time;
        let h2 = replay(&t2, &m, 64).halo_time;
        assert!(h2 < h1, "MPK halo {h2} should undercut per-SpMV halo {h1}");
    }
}
