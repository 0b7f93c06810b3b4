//! Glue between the solvers and the `pscg-obs` telemetry collector.
//!
//! Every entry point here is inert unless telemetry is enabled
//! (`pscg_obs::set_enabled`) *and* the calling context is rank 0 — on the
//! thread-backed engine all ranks execute the solver, but only rank 0's
//! view feeds the process-global metrics stream. The helpers read values
//! the solver already computed; they never touch the numerics, and the
//! disabled path is a single relaxed atomic load.

use pscg_obs::metrics::{self, IterSample, KernelCounts, PoolCounters, SolveMeta};
use pscg_obs::StagnationConfig;
use pscg_sim::Context;

use crate::solver::{NormType, SolveOptions, SolveResult, StopReason};

/// The kernel counters the telemetry stream tracks, read off the
/// context's `OpCounters`.
pub(crate) fn kernel_counts<C: Context>(ctx: &C) -> KernelCounts {
    let c = ctx.counters();
    KernelCounts {
        spmv: c.spmv,
        pc: c.pc,
        allreduce: c.allreduces(),
    }
}

fn pool_counters() -> PoolCounters {
    let s = pscg_par::stats::PoolStats::snapshot();
    PoolCounters {
        jobs: s.jobs,
        parallel_jobs: s.parallel_jobs,
        inline_fallback: s.inline_nested,
        inline_small: s.inline_small,
        chunks: s.indices,
    }
}

#[inline]
fn active_rank<C: Context + ?Sized>(ctx: &C) -> bool {
    pscg_obs::enabled() && ctx.rank() == 0
}

/// Opens telemetry collection for one solve (called by the `MethodKind`
/// dispatcher). Returns the flag [`finish`] needs.
pub(crate) fn begin<C: Context>(method: &'static str, ctx: &C, opts: &SolveOptions) -> bool {
    if !active_rank(ctx) {
        return false;
    }
    let (nrows, nnz) = (ctx.nrows(), ctx.matrix_nnz());
    let spmv_model_bytes_per_nnz = if nnz > 0 {
        crate::costmodel::spmv_model_bytes(pscg_sparse::spmv_format(), nnz as f64, nrows as f64)
            / nnz as f64
    } else {
        0.0
    };
    let (pc_flops_per_row, pc_bytes_per_row) = ctx.pc_cost_rates();
    metrics::begin_solve(
        SolveMeta {
            method,
            s: opts.s,
            norm: opts.norm.name(),
            rtol: opts.rtol,
            threads: pscg_par::global_threads(),
            stagnation: None,
            nrows,
            nnz,
            spmv_model_bytes_per_nnz,
            pc_flops_per_row,
            pc_bytes_per_row,
        },
        pool_counters(),
    )
}

/// Closes the collection opened by [`begin`].
pub(crate) fn finish<C: Context>(began: bool, ctx: &C, res: &SolveResult) {
    if !began {
        return;
    }
    metrics::end_solve(
        began,
        res.iterations,
        res.stop.name(),
        res.final_relres,
        kernel_counts(ctx),
        pool_counters(),
    );
}

/// Reports one convergence check. `iter` is the method's CG-step count at
/// the check; `alpha`/`beta` are the step scalars the recurrence last used
/// (for the s-step methods these are the *previous* outer iteration's,
/// because their scalar work follows the check); `gamma` is the `(r, u)`
/// scalar where the method carries one, `NaN` otherwise.
pub(crate) fn note_iter<C: Context>(
    ctx: &C,
    iter: usize,
    relres: f64,
    norms_sq: [f64; 3],
    alpha: &[f64],
    beta: &[f64],
    gamma: f64,
) {
    if !active_rank(ctx) {
        return;
    }
    metrics::record_iter(
        IterSample {
            iter,
            relres,
            norms_sq,
            alpha: alpha.to_vec(),
            beta: beta.to_vec(),
            gamma,
        },
        kernel_counts(ctx),
    );
}

/// Records the stagnation rule a method armed into the active stream.
pub(crate) fn set_stagnation<C: Context>(ctx: &C, cfg: StagnationConfig) {
    if active_rank(ctx) {
        metrics::set_stagnation_config(cfg);
    }
}

/// Notes that a stagnation detector fired.
pub(crate) fn note_stagnation_fired<C: Context>(ctx: &C) {
    if active_rank(ctx) {
        metrics::note_stagnation_fired();
    }
}

/// Notes one recovery action (reduction retry, rollback, replacement,
/// rank rebuild or restart) into the active stream, the span recorder and
/// the engine's deterministic recovery log.
pub(crate) fn note_recovery<C: Context + ?Sized>(ctx: &mut C, code: u64) {
    // The engine-side log is unconditional: recovery *decisions* are part
    // of the deterministic outcome regardless of telemetry state.
    ctx.note_recovery_code(code);
    if active_rank(ctx) {
        metrics::note_recovery();
        pscg_obs::span::record_span(pscg_obs::SpanKind::Recovery, code, pscg_obs::now_ns(), 0);
    }
}

/// Builds the `(r·r, u·u, r·u)` triple when a method computed only the
/// *selected* squared norm: the chosen slot gets `sq`, the natural slot
/// gets `ru` when known (PCG's γ is exactly `(r, u)`), the rest are `NaN`.
pub(crate) fn norms_from_selected(norm: NormType, sq: f64, ru: f64) -> [f64; 3] {
    let mut norms = [f64::NAN, f64::NAN, ru];
    match norm {
        NormType::Unpreconditioned => norms[0] = sq,
        NormType::Preconditioned => norms[1] = sq,
        NormType::Natural => norms[2] = sq,
    }
    norms
}

impl StopReason {
    /// Stable textual name, used by the telemetry exporters.
    pub fn name(self) -> &'static str {
        match self {
            StopReason::Converged => "Converged",
            StopReason::MaxIterations => "MaxIterations",
            StopReason::Breakdown => "Breakdown",
            StopReason::Stagnated => "Stagnated",
            StopReason::CommFault => "CommFault",
            StopReason::Stalled => "Stalled",
            StopReason::RankFailed => "RankFailed",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn norms_triple_places_the_selected_component() {
        let n = norms_from_selected(NormType::Unpreconditioned, 4.0, 2.0);
        assert_eq!(n[0], 4.0);
        assert!(n[1].is_nan());
        assert_eq!(n[2], 2.0);
        let n = norms_from_selected(NormType::Preconditioned, 4.0, f64::NAN);
        assert_eq!(n[1], 4.0);
        let n = norms_from_selected(NormType::Natural, 4.0, 2.0);
        assert_eq!(n[2], 4.0, "selected value wins the natural slot");
    }

    #[test]
    fn stop_reason_names_are_stable() {
        assert_eq!(StopReason::Converged.name(), "Converged");
        assert_eq!(StopReason::Stagnated.name(), "Stagnated");
    }
}
