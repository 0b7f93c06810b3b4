//! Pipelined CG of Ghysels & Vanroose \[9\].
//!
//! One *non-blocking* allreduce per iteration, overlapped with exactly one
//! preconditioner application and one SPMV. The price is four extra
//! recurrence vectors (`z, q, s, p` alongside `r, u, w, m, n`) updated by
//! VMAs — the 22s FLOPs row of Table I — and the usual pipelined-CG rounding
//! drift in the recurrence residual.

use pscg_sim::Context;

use crate::driver::{Driver, Scalars};
use crate::resilience::gamma_breakdown;
use crate::solver::{SolveOptions, SolveResult, StopReason};

/// Solves `A x = b` with PIPECG. `x0` defaults to zero.
pub fn solve<C: Context>(
    ctx: &mut C,
    b: &[f64],
    x0: Option<&[f64]>,
    opts: &SolveOptions,
) -> SolveResult {
    let (mut drv, mut r) = Driver::begin(ctx, "PIPECG", b, x0, opts, None);

    // u = M⁻¹ r, w = A u.
    let mut u = ctx.alloc_vec();
    ctx.pc_apply(&r, &mut u);
    let mut w = ctx.alloc_vec();
    ctx.spmv(&u, &mut w);

    let mut m = ctx.alloc_vec();
    let mut n = ctx.alloc_vec();
    let mut z = ctx.alloc_vec();
    let mut q = ctx.alloc_vec();
    let mut s = ctx.alloc_vec();
    let mut p = ctx.alloc_vec();

    let mut gamma_old = 0.0;
    let mut alpha_old = 0.0;

    loop {
        // γ = (r, u), δ = (w, u), plus both residual norms — one payload,
        // posted non-blocking.
        let lg = ctx.local_dot(&r, &u);
        let ld = ctx.local_dot(&w, &u);
        let lrr = ctx.local_dot(&r, &r);
        let luu = ctx.local_dot(&u, &u);
        let posted = [lg, ld, lrr, luu];
        let h = ctx.iallreduce(&posted);
        // Overlapped work: m = M⁻¹ w, n = A m.
        ctx.pc_apply(&w, &mut m);
        ctx.spmv(&m, &mut n);
        let Some(red) = drv.wait(ctx, h, &posted) else {
            break;
        };
        let (gamma, delta, rr, uu) = (red[0], red[1], red[2], red[3]);

        let scalars = Scalars(&[], &[], gamma);
        // γ = (r, u) must stay finite and non-negative on an SPD system.
        let broke = |_| gamma_breakdown(gamma) || !delta.is_finite();
        if drv.check(ctx, [rr, uu, gamma], scalars, broke).is_some() {
            break;
        }

        let (beta, alpha) = if drv.iterations() == 0 {
            if delta <= 0.0 {
                drv.fail(ctx, StopReason::Breakdown);
                break;
            }
            (0.0, gamma / delta)
        } else {
            let beta = gamma / gamma_old;
            let denom = delta - beta * gamma / alpha_old;
            // pscg-lint: allow(float-eq, exact-zero division guard; any nonzero denom is usable)
            if denom == 0.0 || !denom.is_finite() {
                drv.fail(ctx, StopReason::Breakdown);
                break;
            }
            (beta, gamma / denom)
        };

        // Recurrence updates (8 VMAs — the pipelining overhead).
        ctx.aypx(beta, &n, &mut z);
        ctx.aypx(beta, &m, &mut q);
        ctx.aypx(beta, &w, &mut s);
        ctx.aypx(beta, &u, &mut p);
        ctx.axpy(alpha, &p, &mut drv.x);
        ctx.axpy(-alpha, &s, &mut r);
        ctx.axpy(-alpha, &q, &mut u);
        ctx.axpy(-alpha, &z, &mut w);

        gamma_old = gamma;
        alpha_old = alpha;
        drv.advance(1);
    }
    drv.finish(ctx)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::methods::pcg;
    use pscg_precond::Jacobi;
    use pscg_sim::SimCtx;
    use pscg_sparse::stencil::{poisson3d_7pt, Grid3};

    fn problem() -> (pscg_sparse::CsrMatrix, Vec<f64>) {
        let g = Grid3::cube(6);
        let a = poisson3d_7pt(g, None);
        let n = a.nrows();
        let xstar: Vec<f64> = (0..n).map(|i| ((i % 7) as f64 - 3.0) / 3.0).collect();
        let b = a.mul_vec(&xstar);
        (a, b)
    }

    #[test]
    fn pipecg_converges_and_matches_pcg_iterations() {
        let (a, b) = problem();
        let opts = SolveOptions::with_rtol(1e-8);
        let mut c1 = SimCtx::serial(&a, Box::new(Jacobi::new(&a)));
        let r1 = pcg::solve(&mut c1, &b, None, &opts);
        let mut c2 = SimCtx::serial(&a, Box::new(Jacobi::new(&a)));
        let r2 = solve(&mut c2, &b, None, &opts);
        assert!(r2.converged());
        assert!(r2.true_relres(&a, &b) < 1e-6);
        // Same Krylov process: iteration counts agree to within a couple.
        let diff = (r1.iterations as i64 - r2.iterations as i64).abs();
        assert!(
            diff <= 2,
            "PCG {} vs PIPECG {}",
            r1.iterations,
            r2.iterations
        );
    }

    #[test]
    fn pipecg_uses_one_nonblocking_allreduce_per_iteration() {
        let (a, b) = problem();
        let mut ctx = SimCtx::serial(&a, Box::new(Jacobi::new(&a)));
        let res = solve(&mut ctx, &b, None, &SolveOptions::with_rtol(1e-6));
        // One iallreduce per loop pass (iterations + the final check pass);
        // only the initial bnorm is blocking.
        let passes = res.history.len() as u64;
        assert_eq!(res.counters.nonblocking_allreduce, passes);
        assert_eq!(res.counters.blocking_allreduce, 1);
        // 1 SPMV + 1 PC per pass, + setup (r, u, w).
        assert_eq!(res.counters.spmv, passes + 2);
        // +1 for u0 and +1 for the reference-norm M^-1 b.
        assert_eq!(res.counters.pc, passes + 2);
    }

    #[test]
    fn pipecg_history_is_monotonically_decreasing_overall() {
        let (a, b) = problem();
        let mut ctx = SimCtx::serial(&a, Box::new(Jacobi::new(&a)));
        let res = solve(&mut ctx, &b, None, &SolveOptions::with_rtol(1e-8));
        let first = res
            .history
            .first()
            .expect("history starts with the initial residual");
        let last = res
            .history
            .last()
            .expect("history starts with the initial residual");
        assert!(last < &(first * 1e-6));
    }
}
