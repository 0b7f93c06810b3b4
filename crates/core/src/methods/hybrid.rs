//! The Hybrid-pipelined method (paper §VI-B).
//!
//! s-step recurrences stagnate at higher relative residuals than PCG (the
//! rounding-error discussion of §V); the paper's remedy is a hybrid: run
//! PIPE-PsCG until the residual stagnates, hand the iterate `x*` to
//! PIPECG-OATI as its initial guess, and let it finish to the tight
//! tolerance. Table II shows this winning on every SuiteSparse matrix.

use pscg_sim::Context;

use crate::methods::pipe_pscg::{self, PipeConfig, StagnationCheck};
use crate::methods::pipecg_oati;
use crate::solver::{SolveOptions, SolveResult, StopReason};

/// Stagnation detector used for the switch-over. The ratio is deliberately
/// close to 1: the hybrid must only abandon PIPE-PsCG when the residual has
/// genuinely flattened (slow-but-steady convergence should stay in phase 1,
/// otherwise the time spent there is wasted).
pub const STAGNATION: StagnationCheck = StagnationCheck {
    window: 6,
    min_ratio: 0.98,
};

/// Solves `M⁻¹A x = M⁻¹b` with the Hybrid-pipelined method.
pub fn solve<C: Context>(
    ctx: &mut C,
    b: &[f64],
    x0: Option<&[f64]>,
    opts: &SolveOptions,
) -> SolveResult {
    let cfg = PipeConfig {
        stagnation: Some(STAGNATION),
        ..PipeConfig::pipe_pscg(opts.s)
    };
    let phase1 = pipe_pscg::solve_with(ctx, b, x0, opts, cfg);

    match phase1.stop {
        // A CommFault, stall or rank death passes through: reduction
        // retries are already exhausted, and phase 2 is pipelined too —
        // recovery belongs to the resilient supervisor, not the
        // stagnation handoff.
        StopReason::Converged
        | StopReason::MaxIterations
        | StopReason::CommFault
        | StopReason::Stalled
        | StopReason::RankFailed => SolveResult {
            method: "Hybrid-pipelined",
            ..phase1
        },
        StopReason::Stagnated | StopReason::Breakdown => {
            // Switch: x* from PIPE-PsCG seeds PIPECG-OATI.
            let mut opts2 = *opts;
            opts2.max_iters = opts.max_iters.saturating_sub(phase1.iterations);
            let phase2 = pipecg_oati::solve(ctx, b, Some(&phase1.x), &opts2);
            let mut history = phase1.history;
            history.extend_from_slice(&phase2.history);
            SolveResult {
                x: phase2.x,
                iterations: phase1.iterations + phase2.iterations,
                stop: phase2.stop,
                final_relres: phase2.final_relres,
                history,
                // The context accumulated across both phases.
                counters: *ctx.counters(),
                method: "Hybrid-pipelined",
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::methods::pipe_pscg;
    use pscg_precond::Jacobi;
    use pscg_sim::SimCtx;
    use pscg_sparse::stencil::{poisson3d_7pt, Grid3};
    use pscg_sparse::suitesparse;

    #[test]
    fn hybrid_reaches_tolerances_where_pipe_pscg_alone_may_not() {
        // A harder, anisotropic 2-D problem at tight tolerance; s-step
        // recurrences with a monomial basis drift here.
        let a = suitesparse::ecology2_like(40, 41).unwrap();
        let n = a.nrows();
        let xstar: Vec<f64> = (0..n).map(|i| (0.05 * i as f64).sin()).collect();
        let b = a.mul_vec(&xstar);
        let opts = SolveOptions {
            rtol: 1e-9,
            s: 3,
            max_iters: 20_000,
            ..Default::default()
        };
        let mut ctx = SimCtx::serial(&a, Box::new(Jacobi::new(&a)));
        let res = solve(&mut ctx, &b, None, &opts);
        assert!(res.converged(), "{:?} at {}", res.stop, res.final_relres);
        assert_eq!(res.method, "Hybrid-pipelined");
        assert!(res.true_relres(&a, &b) < 1e-7);
    }

    #[test]
    fn hybrid_without_stagnation_is_pure_pipe_pscg() {
        // On an easy problem PIPE-PsCG converges before stagnation, so the
        // hybrid must not switch (same iteration count).
        let g = Grid3::cube(6);
        let a = poisson3d_7pt(g, None);
        let b = vec![1.0; a.nrows()];
        let opts = SolveOptions::with_rtol(1e-6);
        let mut c1 = SimCtx::serial(&a, Box::new(Jacobi::new(&a)));
        let r1 = solve(&mut c1, &b, None, &opts);
        let mut c2 = SimCtx::serial(&a, Box::new(Jacobi::new(&a)));
        let r2 = pipe_pscg::solve(&mut c2, &b, None, &opts);
        assert!(r1.converged() && r2.converged());
        assert_eq!(r1.iterations, r2.iterations);
        assert_eq!(r1.method, "Hybrid-pipelined");
    }
}
