//! Automatic selection of the s parameter — the paper's §VII future work.
//!
//! > *"In the future, we plan to automate the process of choosing the s
//! > parameter for the PIPE-PsCG method. We plan to devise a model which
//! > would give the optimum s value when the linear system dimensions, the
//! > number of cores on which we want to solve the linear system and the
//! > desired accuracy are given to it as input."*
//!
//! This module implements exactly that model on top of the machine model
//! and the Table I cost expressions. Per CG step, PIPE-PsCG costs
//!
//! ```text
//! T(s) = max(G(P), s·(PC + SPMV)) / s          (kernel critical path)
//!      + flops(s)/s · N/P / F                  (recurrence-LC overhead)
//! ```
//!
//! where `G` grows with the core count and `flops(s) = 4s³ + 12s² + 2s + 5`
//! (Table I). Small s wastes allreduce latency; large s wastes cubic VMA
//! work — [`best_s`] evaluates the trade-off and returns the minimiser,
//! which is what Figure 3 sweeps manually (s = 3 best at low node counts,
//! s = 4, 5 taking over as `G` grows).

use pscg_sim::{Machine, MatrixProfile};

use crate::costmodel;
use crate::sstep::GramPacket;

/// Modelled PIPE-PsCG cost per CG step at block size `s`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SCost {
    /// The evaluated s.
    pub s: usize,
    /// Kernel critical path per step (allreduce vs overlap window).
    pub kernel_time: f64,
    /// Recurrence-LC (VMA) overhead per step.
    pub vma_time: f64,
}

impl SCost {
    /// Total modelled time per CG step.
    pub fn total(&self) -> f64 {
        self.kernel_time + self.vma_time
    }
}

/// Evaluates the per-step cost model for one `s`.
pub fn s_cost(
    machine: &Machine,
    profile: &MatrixProfile,
    p: usize,
    s: usize,
    pc_flops_per_row: f64,
    pc_bytes_per_row: f64,
) -> SCost {
    let (g, pc, spmv) = costmodel::kernel_times(
        machine,
        profile,
        p,
        GramPacket::len(s),
        pc_flops_per_row,
        pc_bytes_per_row,
    );
    let sf = s as f64;
    let kernel_time = f64::max(g, sf * (pc + spmv)) / sf;
    // Table I FLOPs (×N) per s steps, charged at the local share.
    let flops_xn = 4.0 * sf * sf * sf + 12.0 * sf * sf + 2.0 * sf + 5.0;
    let local_rows = profile.nrows().div_ceil(p) as f64;
    let flops = flops_xn * local_rows / sf;
    // The recurrence LCs are memory-streaming (≈8 B/flop).
    let vma_time = machine.compute_time(flops, 8.0 * flops);
    SCost {
        s,
        kernel_time,
        vma_time,
    }
}

/// Chooses the s in `candidates` minimising the modelled time per CG step
/// for PIPE-PsCG on the given problem, machine and core count.
#[expect(clippy::expect_used, reason = "costs are finite closed forms")]
#[expect(clippy::unwrap_used, reason = "candidates asserted nonempty below")]
pub fn best_s(
    machine: &Machine,
    profile: &MatrixProfile,
    p: usize,
    pc_flops_per_row: f64,
    pc_bytes_per_row: f64,
    candidates: &[usize],
) -> SCost {
    assert!(
        !candidates.is_empty(),
        "best_s needs at least one candidate"
    );
    candidates
        .iter()
        .map(|&s| s_cost(machine, profile, p, s, pc_flops_per_row, pc_bytes_per_row))
        .min_by(|a, b| a.total().partial_cmp(&b.total()).expect("finite costs"))
        .unwrap()
}

/// Convenience: `best_s` over s ∈ 1..=8 with a Jacobi-cost preconditioner.
pub fn best_s_jacobi(machine: &Machine, profile: &MatrixProfile, p: usize) -> SCost {
    best_s(machine, profile, p, 1.0, 24.0, &[1, 2, 3, 4, 5, 6, 7, 8])
}

/// Tuning of the shared-memory kernel engine (`pscg_par`): thread count and
/// the fixed chunk sizes of the determinism contract.
///
/// The model is deliberately simple. Threads come from the host (or
/// `PSCG_THREADS`). The SpMV chunk target splits the matrix into at least
/// `4 × threads` chunks — enough slack for dynamic claiming to absorb nnz
/// imbalance — but never below a floor that keeps per-chunk pool overhead
/// (~1 µs) under ~1 % of chunk work. The Gram chunk keeps an `s`-column
/// block of both operands resident in half of a typical 1 MiB-per-core L2.
/// `crates/bench`'s `kernelbench tune` sweeps both knobs empirically around
/// these defaults; [`KernelTuning::apply`] installs a choice process-wide.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KernelTuning {
    /// Execution lanes for the global pool.
    pub threads: usize,
    /// Non-zeros per SpMV row chunk.
    pub spmv_chunk_nnz: usize,
    /// Rows per Gram/update chunk.
    pub gram_chunk_rows: usize,
}

impl KernelTuning {
    /// Floor on the SpMV chunk so pool dispatch stays negligible.
    const MIN_SPMV_CHUNK_NNZ: usize = 1 << 14;

    /// Model-based tuning for a problem of `nnz` non-zeros at Gram width
    /// `s`, using the environment's thread count.
    pub fn for_problem(nnz: usize, s: usize) -> KernelTuning {
        let threads = pscg_par::default_threads();
        let target_chunks = 4 * threads;
        let spmv_chunk_nnz = (nnz / target_chunks.max(1)).clamp(
            Self::MIN_SPMV_CHUNK_NNZ,
            pscg_par::knobs::DEFAULT_SPMV_CHUNK_NNZ,
        );
        // Two operands of s columns each in half an L2: 2·s·rows·8 B ≤ 512 KiB.
        let gram_chunk_rows =
            (512 * 1024 / (16 * s.max(1))).clamp(1024, pscg_par::knobs::DEFAULT_GRAM_CHUNK_ROWS);
        KernelTuning {
            threads,
            spmv_chunk_nnz,
            gram_chunk_rows,
        }
    }

    /// The engine's current (or default) settings.
    pub fn current() -> KernelTuning {
        KernelTuning {
            threads: pscg_par::global_threads(),
            spmv_chunk_nnz: pscg_par::knobs::spmv_chunk_nnz(),
            gram_chunk_rows: pscg_par::knobs::gram_chunk_rows(),
        }
    }

    /// Installs this tuning process-wide. Chunk-size changes only affect
    /// matrices whose row partition has not been cached yet, so apply
    /// before building operators.
    pub fn apply(&self) {
        pscg_par::set_global_threads(self.threads);
        pscg_par::knobs::set_spmv_chunk_nnz(self.spmv_chunk_nnz);
        pscg_par::knobs::set_gram_chunk_rows(self.gram_chunk_rows);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pscg_sim::Layout;

    fn paper_profile() -> MatrixProfile {
        MatrixProfile::stencil3d(100, 100, 100, 2, 124_000_000, Layout::Box)
    }

    #[test]
    fn best_s_grows_with_core_count() {
        // The paper's Figure 3 observation: higher core counts favour
        // higher s (more allreduce latency to hide).
        let m = Machine::sahasrat();
        let prof = paper_profile();
        let s_small = best_s_jacobi(&m, &prof, 24).s;
        let s_large = best_s_jacobi(&m, &prof, 240 * 24).s;
        assert!(
            s_large >= s_small,
            "best s should not shrink with scale: {s_small} -> {s_large}"
        );
        assert!(s_large >= 2, "at 240 nodes some pipelining must pay off");
    }

    #[test]
    fn one_node_prefers_small_s() {
        // At one node the allreduce is cheap; cubic VMA work dominates.
        let m = Machine::sahasrat();
        let prof = paper_profile();
        let best = best_s_jacobi(&m, &prof, 24);
        assert!(best.s <= 2, "one node picked s = {}", best.s);
    }

    #[test]
    fn cost_components_are_positive_and_finite() {
        let m = Machine::sahasrat();
        let prof = paper_profile();
        for p in [24, 960, 2880] {
            for s in 1..=6 {
                let c = s_cost(&m, &prof, p, s, 1.0, 24.0);
                assert!(c.kernel_time > 0.0 && c.kernel_time.is_finite());
                assert!(c.vma_time > 0.0 && c.vma_time.is_finite());
                assert!(c.total() > 0.0);
            }
        }
    }

    #[test]
    fn vma_overhead_grows_cubically_in_s() {
        let m = Machine::sahasrat();
        let prof = paper_profile();
        let c2 = s_cost(&m, &prof, 24, 2, 1.0, 24.0);
        let c8 = s_cost(&m, &prof, 24, 8, 1.0, 24.0);
        // flops(s)/s at s=2 is 44.5, at s=8 it is 354.6 — an 8x growth
        // (the 12s^2 term moderates the asymptotic 16x of 4s^2).
        let ratio = c8.vma_time / c2.vma_time;
        assert!(ratio > 6.0 && ratio < 12.0, "ratio = {ratio}");
    }

    #[test]
    fn ideal_machine_always_prefers_s1() {
        // Free communication leaves only the FLOP overhead: s = 1 wins.
        let m = Machine::ideal(24);
        let prof = paper_profile();
        assert_eq!(best_s_jacobi(&m, &prof, 2880).s, 1);
    }

    #[test]
    fn kernel_tuning_respects_bounds() {
        for (nnz, s) in [(1000, 1), (7 * 16_777_216, 4), (124_000_000, 8)] {
            let t = KernelTuning::for_problem(nnz, s);
            assert!(t.threads >= 1);
            assert!(t.spmv_chunk_nnz >= KernelTuning::MIN_SPMV_CHUNK_NNZ);
            assert!(t.spmv_chunk_nnz <= pscg_par::knobs::DEFAULT_SPMV_CHUNK_NNZ);
            assert!((1024..=pscg_par::knobs::DEFAULT_GRAM_CHUNK_ROWS).contains(&t.gram_chunk_rows));
        }
        // A tiny problem maxes out the chunk floor (stays serial-ish); the
        // paper-size problem saturates the default target.
        assert_eq!(
            KernelTuning::for_problem(1000, 1).spmv_chunk_nnz,
            KernelTuning::MIN_SPMV_CHUNK_NNZ
        );
    }
}
