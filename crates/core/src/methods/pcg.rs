//! Classic preconditioned conjugate gradients — the paper's Algorithm 1.
//!
//! Three *blocking* allreduces per iteration (`δ`, `γ`, and the norm), none
//! of which can be overlapped because each result feeds the very next
//! statement; this is the synchronisation bottleneck the pipelined variants
//! attack (§III).

use pscg_sim::Context;

use crate::driver::{Driver, Scalars};
use crate::resilience::gamma_breakdown;
use crate::solver::{NormType, SolveOptions, SolveResult, StopReason};
use crate::telemetry::norms_from_selected;

/// Solves `A x = b` with PCG. `x0` defaults to zero.
pub fn solve<C: Context>(
    ctx: &mut C,
    b: &[f64],
    x0: Option<&[f64]>,
    opts: &SolveOptions,
) -> SolveResult {
    let (mut drv, mut r) = Driver::begin(ctx, "PCG", b, x0, opts, None);

    let mut u = ctx.alloc_vec();
    ctx.pc_apply(&r, &mut u);

    // Line 2: γ₀ = (u₀, r₀) and the initial norm.
    let lg = ctx.local_dot(&u, &r);
    let mut gamma = ctx.allreduce(&[lg])[0];
    let ln = norm_dot(ctx, opts.norm, &r, &u, gamma);
    let norm0_sq = ctx.allreduce(&[ln])[0];
    let setup = Scalars(&[], &[], gamma);
    let norms = norms_from_selected(opts.norm, norm0_sq, gamma);
    if drv.check_initial(ctx, norms, setup).is_some() {
        return drv.finish(ctx);
    }

    let mut p = ctx.alloc_vec();
    let mut s = ctx.alloc_vec();
    let mut gamma_old = 0.0;

    loop {
        // Lines 4–9: β and the direction update p = u + β p.
        let beta = if drv.iterations() > 0 {
            gamma / gamma_old
        } else {
            0.0
        };
        ctx.aypx(beta, &u, &mut p);
        // Line 10: s = A p.
        ctx.spmv(&p, &mut s);
        // Lines 11–12: δ = (s, p) — blocking — and α = γ/δ.
        let ld = ctx.local_dot(&s, &p);
        let Some(red) = drv.reduce(ctx, &[ld]) else {
            break;
        };
        let delta = red[0];
        if delta <= 0.0 || delta.is_nan() {
            drv.fail(ctx, StopReason::Breakdown);
            break;
        }
        let alpha = gamma / delta;
        // Lines 13–15.
        ctx.axpy(alpha, &p, &mut drv.x);
        ctx.axpy(-alpha, &s, &mut r);
        ctx.pc_apply(&r, &mut u);
        drv.advance(1);
        // Line 16: γ — blocking.
        let lg = ctx.local_dot(&u, &r);
        gamma_old = gamma;
        gamma = ctx.allreduce(&[lg])[0];
        // Line 17: the norm — blocking (the third allreduce of Table I). A
        // peer that died during either reduction is caught here.
        let ln = norm_dot(ctx, opts.norm, &r, &u, gamma);
        let Some(red) = drv.reduce(ctx, &[ln]) else {
            break;
        };
        let step = Scalars(&[alpha], &[beta], gamma);
        // γ = (r, u) must stay finite and non-negative on an SPD system.
        let norms = norms_from_selected(opts.norm, red[0], gamma);
        if drv
            .check(ctx, norms, step, |_| gamma_breakdown(gamma))
            .is_some()
        {
            break;
        }
    }
    drv.finish(ctx)
}

/// Local dot for the selected norm; the natural norm reuses the reduced
/// `gamma = (u, r)` (still reduced separately, mirroring the paper's three
/// allreduces).
fn norm_dot<C: Context>(ctx: &mut C, norm: NormType, r: &[f64], u: &[f64], gamma: f64) -> f64 {
    match norm {
        NormType::Unpreconditioned => ctx.local_dot(r, r),
        NormType::Preconditioned => ctx.local_dot(u, u),
        NormType::Natural => gamma,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pscg_precond::Jacobi;
    use pscg_sim::SimCtx;
    use pscg_sparse::stencil::{poisson3d_7pt, Grid3};
    use pscg_sparse::IdentityOp;

    #[test]
    fn pcg_solves_small_poisson_to_machine_accuracy() {
        let g = Grid3::cube(6);
        let a = poisson3d_7pt(g, None);
        let n = a.nrows();
        let xstar: Vec<f64> = (0..n).map(|i| ((i % 11) as f64 - 5.0) / 5.0).collect();
        let b = a.mul_vec(&xstar);
        let mut ctx = SimCtx::serial(&a, Box::new(Jacobi::new(&a)));
        let opts = SolveOptions {
            rtol: 1e-10,
            ..Default::default()
        };
        let res = solve(&mut ctx, &b, None, &opts);
        assert!(res.converged(), "stop = {:?}", res.stop);
        assert!(res.true_relres(&a, &b) < 1e-9);
        let err: f64 = res
            .x
            .iter()
            .zip(&xstar)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max);
        assert!(err < 1e-7, "max error {err}");
    }

    #[test]
    fn pcg_counts_three_allreduces_per_iteration() {
        let g = Grid3::cube(5);
        let a = poisson3d_7pt(g, None);
        let b = vec![1.0; a.nrows()];
        let mut ctx = SimCtx::serial(&a, Box::new(IdentityOp::new(a.nrows())));
        let res = solve(&mut ctx, &b, None, &SolveOptions::with_rtol(1e-8));
        let iters = res.iterations as u64;
        // 3 blocking allreduces per iteration + 3 at setup (bnorm, γ₀, norm₀).
        assert_eq!(res.counters.blocking_allreduce, 3 * iters + 3);
        assert_eq!(res.counters.nonblocking_allreduce, 0);
        // 1 SPMV per iteration + 1 at setup.
        assert_eq!(res.counters.spmv, iters + 1);
        // One PC per iteration + setup u0 + the reference-norm M^-1 b.
        assert_eq!(res.counters.pc, iters + 2);
    }

    #[test]
    fn pcg_respects_max_iters() {
        let g = Grid3::cube(8);
        let a = poisson3d_7pt(g, None);
        let b = vec![1.0; a.nrows()];
        let mut ctx = SimCtx::serial(&a, Box::new(IdentityOp::new(a.nrows())));
        let opts = SolveOptions {
            rtol: 1e-14,
            max_iters: 3,
            ..Default::default()
        };
        let res = solve(&mut ctx, &b, None, &opts);
        assert_eq!(res.stop, StopReason::MaxIterations);
        assert_eq!(res.iterations, 3);
        assert_eq!(res.history.len(), 4); // initial + 3
    }

    #[test]
    fn pcg_accepts_nonzero_initial_guess() {
        let g = Grid3::cube(5);
        let a = poisson3d_7pt(g, None);
        let n = a.nrows();
        let xstar: Vec<f64> = (0..n).map(|i| (i as f64 * 0.01).sin()).collect();
        let b = a.mul_vec(&xstar);
        let mut ctx = SimCtx::serial(&a, Box::new(Jacobi::new(&a)));
        // Start close to the solution: must converge in very few steps.
        let mut x0 = xstar.clone();
        x0[0] += 1e-6;
        let res = solve(&mut ctx, &b, Some(&x0), &SolveOptions::with_rtol(1e-6));
        assert!(res.converged());
        assert!(res.iterations <= 2, "iterations = {}", res.iterations);
    }

    #[test]
    fn pcg_converges_under_all_three_norms() {
        let g = Grid3::cube(5);
        let a = poisson3d_7pt(g, None);
        let b = vec![1.0; a.nrows()];
        for norm in [
            NormType::Preconditioned,
            NormType::Unpreconditioned,
            NormType::Natural,
        ] {
            let mut ctx = SimCtx::serial(&a, Box::new(Jacobi::new(&a)));
            let opts = SolveOptions {
                rtol: 1e-8,
                norm,
                ..Default::default()
            };
            let res = solve(&mut ctx, &b, None, &opts);
            assert!(res.converged(), "norm {norm:?}");
            assert!(res.true_relres(&a, &b) < 1e-6, "norm {norm:?}");
        }
    }
}
