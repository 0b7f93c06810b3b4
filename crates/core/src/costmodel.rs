//! The analytic cost model of the paper's Table I.
//!
//! For s PCG-equivalent steps, each method is characterised by its allreduce
//! count, its critical-path time expression in terms of `G` (one global
//! allreduce), `PC` and `SPMV`, its VMA/dot FLOP count (×N) and the number
//! of vectors kept in memory (excluding `x` and `b`). The rows are
//! reproduced verbatim from the paper; [`TimeExpr::evaluate`] turns the
//! symbolic expression into seconds for a given machine and problem so the
//! model can be compared against the discrete-event replay (experiment E9).
//!
//! The memory column is the paper's, not this implementation's: PIPE-PsCG
//! here advances its power lists, direction blocks and A-power blocks in
//! place, so its measured `vectors_allocated` (`2s² + 8s + 7` — even
//! counting `x` and the set-up scratch — 49 at s = 3) is below the paper's
//! `4s² + 12s + 5` (77); `tests/table1_validation.rs` asserts
//! `measured ≤ Table I` and the ordering of the rows.

use pscg_sim::{Machine, MatrixProfile};

/// Symbolic critical-path time per s steps.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TimeExpr {
    /// `s·(3G + PC + SPMV)` — PCG.
    Pcg,
    /// `s·max(G, PC + SPMV)` — PIPECG.
    Pipecg,
    /// `max(G, s·(PC + SPMV))` — PIPELCG (per its deep pipeline).
    Pipelcg,
    /// `⌈s/2⌉·max(G, 2(PC + SPMV))` — PIPECG3 and PIPECG-OATI.
    HalfStep,
    /// `G + (s+1)(PC + SPMV)` — PsCG (blocking, extra kernels).
    Pscg,
    /// `max(G, s·(PC + SPMV))` — PIPE-PsCG.
    PipePscg,
}

impl TimeExpr {
    /// Evaluates the expression for given kernel times (seconds).
    pub fn evaluate(self, s: usize, g: f64, pc: f64, spmv: f64) -> f64 {
        let sf = s as f64;
        let half = s.div_ceil(2) as f64;
        match self {
            TimeExpr::Pcg => sf * (3.0 * g + pc + spmv),
            TimeExpr::Pipecg => sf * f64::max(g, pc + spmv),
            TimeExpr::Pipelcg | TimeExpr::PipePscg => f64::max(g, sf * (pc + spmv)),
            TimeExpr::HalfStep => half * f64::max(g, 2.0 * (pc + spmv)),
            TimeExpr::Pscg => g + (sf + 1.0) * (pc + spmv),
        }
    }
}

/// One row of Table I.
#[derive(Debug, Clone)]
pub struct CostRow {
    /// Method name (paper spelling).
    pub method: &'static str,
    /// Allreduces per s iterations, as a closed form in `s`.
    pub allreduces: fn(usize) -> usize,
    /// Critical-path time expression.
    pub time: TimeExpr,
    /// VMA + dot FLOPs (×N) per s iterations.
    pub flops: fn(usize) -> f64,
    /// Vectors kept in memory (excluding `x` and `b`).
    pub memory: fn(usize) -> f64,
}

/// The seven rows of Table I, in the paper's order.
pub fn table1() -> Vec<CostRow> {
    vec![
        CostRow {
            method: "PCG",
            allreduces: |s| 3 * s,
            time: TimeExpr::Pcg,
            flops: |s| 12.0 * s as f64,
            memory: |_| 4.0,
        },
        CostRow {
            method: "PIPECG",
            allreduces: |s| s,
            time: TimeExpr::Pipecg,
            flops: |s| 22.0 * s as f64,
            memory: |_| 9.0,
        },
        CostRow {
            method: "PIPELCG",
            allreduces: |s| s,
            time: TimeExpr::Pipelcg,
            flops: |s| {
                let sf = s as f64;
                6.0 * sf * sf + 14.0 * sf
            },
            memory: |_| 14.0,
        },
        CostRow {
            method: "PIPECG3",
            allreduces: |s| s.div_ceil(2),
            time: TimeExpr::HalfStep,
            flops: |s| 90.0 * s.div_ceil(2) as f64,
            memory: |_| 25.0,
        },
        CostRow {
            method: "PIPECG-OATI",
            allreduces: |s| s.div_ceil(2),
            time: TimeExpr::HalfStep,
            flops: |s| 80.0 * s.div_ceil(2) as f64,
            memory: |_| 19.0,
        },
        CostRow {
            method: "PsCG",
            allreduces: |_| 1,
            time: TimeExpr::Pscg,
            flops: |s| {
                let sf = s as f64;
                2.0 * sf * sf + 4.0 * sf + 2.0
            },
            memory: |s| 2.0 * s as f64 + 2.0,
        },
        CostRow {
            method: "PIPE-PsCG",
            allreduces: |_| 1,
            time: TimeExpr::PipePscg,
            flops: |s| {
                let sf = s as f64;
                4.0 * sf * sf * sf + 12.0 * sf * sf + 2.0 * sf + 5.0
            },
            memory: |s| {
                let sf = s as f64;
                4.0 * sf * sf + 12.0 * sf + 5.0
            },
        },
    ]
}

/// Kernel times `(G, PC, SPMV)` for a problem/machine/rank-count triple,
/// with `pc_flops_per_row`/`pc_bytes_per_row` from the preconditioner's
/// declared cost. Used to evaluate Table I expressions numerically and to
/// locate the break-even core count of §V (experiment E9).
pub fn kernel_times(
    machine: &Machine,
    profile: &MatrixProfile,
    p: usize,
    reduce_doubles: usize,
    pc_flops_per_row: f64,
    pc_bytes_per_row: f64,
) -> (f64, f64, f64) {
    let w = profile.work_at(p);
    let g = machine.allreduce_time(p, reduce_doubles);
    let rows = w.local_rows as f64;
    let pc = machine.compute_time(pc_flops_per_row * rows, pc_bytes_per_row * rows);
    let spmv = machine.compute_time(
        2.0 * w.local_nnz as f64,
        spmv_model_bytes(pscg_sparse::spmv_format(), w.local_nnz as f64, rows),
    ) + machine.halo_time(w.neighbors, 8.0 * w.halo_doubles as f64);
    (g, pc, spmv)
}

/// Modelled SpMV memory traffic (DESIGN.md §12): 12 B per stored entry
/// (value + `u32` column index) plus 16 B of pointer/vector traffic per row.
/// The `format` parameter is kept for `benchmark/src/measure.rs`; remove in
/// the next benchmark-only PR.
pub fn spmv_model_bytes(_format: pscg_sparse::SpmvFormat, nnz: f64, rows: f64) -> f64 {
    12.0 * nnz + 16.0 * rows
}

/// The smallest rank count (among `candidates`) at which `G` exceeds
/// `s·(PC + SPMV)` — the paper's §V condition for PIPE-PsCG's advantage to
/// saturate (the allreduce is no longer fully hidden).
pub fn breakeven_ranks(
    machine: &Machine,
    profile: &MatrixProfile,
    s: usize,
    reduce_doubles: usize,
    pc_flops_per_row: f64,
    pc_bytes_per_row: f64,
    candidates: &[usize],
) -> Option<usize> {
    candidates.iter().copied().find(|&p| {
        let (g, pc, spmv) = kernel_times(
            machine,
            profile,
            p,
            reduce_doubles,
            pc_flops_per_row,
            pc_bytes_per_row,
        );
        g > s as f64 * (pc + spmv)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use pscg_sim::Layout;

    #[test]
    fn table1_has_the_papers_seven_rows() {
        let rows = table1();
        assert_eq!(rows.len(), 7);
        assert_eq!(rows[0].method, "PCG");
        assert_eq!(rows[6].method, "PIPE-PsCG");
    }

    #[test]
    fn allreduce_counts_match_the_paper_at_s3() {
        let rows = table1();
        let counts: Vec<usize> = rows.iter().map(|r| (r.allreduces)(3)).collect();
        assert_eq!(counts, vec![9, 3, 3, 2, 2, 1, 1]);
    }

    #[test]
    fn flop_counts_match_the_paper_at_s3() {
        let rows = table1();
        let flops: Vec<f64> = rows.iter().map(|r| (r.flops)(3)).collect();
        assert_eq!(flops, vec![36.0, 66.0, 96.0, 180.0, 160.0, 32.0, 227.0]);
    }

    #[test]
    fn memory_matches_the_paper_at_s3() {
        let rows = table1();
        let mem: Vec<f64> = rows.iter().map(|r| (r.memory)(3)).collect();
        assert_eq!(mem, vec![4.0, 9.0, 14.0, 25.0, 19.0, 8.0, 77.0]);
    }

    #[test]
    fn pipe_pscg_time_beats_pcg_when_g_dominates() {
        // When G >> PC+SPMV, PCG pays 3sG while PIPE-PsCG pays ~G.
        let g = 100.0;
        let (pc, spmv) = (1.0, 2.0);
        let t_pcg = TimeExpr::Pcg.evaluate(3, g, pc, spmv);
        let t_pipe = TimeExpr::PipePscg.evaluate(3, g, pc, spmv);
        assert!(t_pcg > 8.0 * t_pipe);
    }

    #[test]
    fn pscg_pays_the_extra_kernels_when_pc_is_expensive() {
        // The Figure 4 effect: expensive PC makes PsCG worse than PCG once
        // G is small relative to the kernels.
        let (g, pc, spmv) = (0.5, 50.0, 2.0);
        let t_pcg = TimeExpr::Pcg.evaluate(3, g, pc, spmv);
        let t_pscg = TimeExpr::Pscg.evaluate(3, g, pc, spmv);
        assert!(t_pscg > t_pcg);
    }

    #[test]
    fn breakeven_exists_on_the_default_machine() {
        // At s = 3 on the 125-pt 1M-unknown problem the allreduce only
        // overtakes s·(PC+SPMV) beyond the paper's 140-node scale — which is
        // exactly why s = 3 keeps scaling in Figure 3 — but it must happen
        // eventually on the exascale trend the paper argues from (§IV).
        let machine = Machine::sahasrat();
        let profile = MatrixProfile::stencil3d(100, 100, 100, 2, 124_000_000, Layout::Box);
        let candidates: Vec<usize> = (1..=4096).map(|n| n * 24).collect();
        let be = breakeven_ranks(&machine, &profile, 3, 27, 1.0, 24.0, &candidates);
        let be = be.expect("G must eventually exceed s(PC+SPMV)");
        assert!(be > 960, "break-even at {be} ranks is implausibly early");
        // For s = 1 (the PIPECG regime) the break-even falls inside the
        // paper's sweep — the Figure 1 degradation of PIPECG.
        let be1 = breakeven_ranks(&machine, &profile, 1, 4, 1.0, 24.0, &candidates)
            .expect("s=1 break-even");
        assert!(
            be1 < be,
            "s=1 break-even {be1} must precede s=3 break-even {be}"
        );
        assert!(
            be1 <= 140 * 24,
            "PIPECG must saturate within the paper's sweep, got {be1}"
        );
    }
}
