//! Preconditioned CG with three-term recurrences (Stiefel/Rutishauser form;
//! Saad, *Iterative Methods for Sparse Linear Systems*, §6.7).
//!
//! Instead of the direction vector `p`, the iterates and residuals are
//! advanced directly from their two predecessors:
//!
//! ```text
//! γⱼ = (rⱼ, uⱼ) / (uⱼ, A uⱼ)
//! ρⱼ = 1 / (1 − (γⱼ μⱼ) / (γⱼ₋₁ μⱼ₋₁ ρⱼ₋₁))        (ρ₀ = 1)
//! xⱼ₊₁ = ρⱼ (xⱼ + γⱼ uⱼ) + (1 − ρⱼ) xⱼ₋₁
//! rⱼ₊₁ = ρⱼ (rⱼ − γⱼ A uⱼ) + (1 − ρⱼ) rⱼ₋₁
//! ```
//!
//! with `μⱼ = (rⱼ, uⱼ)`. The two dot products batch into **one** blocking
//! allreduce per iteration, which is why the recurrence is the seed of
//! Eller & Gropp's pipelined PIPECG3 \[10\]; the price is the inferior
//! attainable accuracy of three-term residual recurrences analysed by
//! Gutknecht & Strakoš — the property the paper cites against PIPECG3.
//! Provided as an extension baseline (not part of the paper's figure set).

use pscg_sim::Context;

use crate::driver::{Driver, Scalars};
use crate::resilience::gamma_breakdown;
use crate::solver::{SolveOptions, SolveResult, StopReason};

/// Solves `M⁻¹A x = M⁻¹b` with three-term-recurrence CG.
pub fn solve<C: Context>(
    ctx: &mut C,
    b: &[f64],
    x0: Option<&[f64]>,
    opts: &SolveOptions,
) -> SolveResult {
    let (mut drv, mut r) = Driver::begin(ctx, "CG3", b, x0, opts, None);

    let mut u = ctx.alloc_vec();
    let mut au = ctx.alloc_vec();
    let mut x_prev = ctx.alloc_vec();
    let mut r_prev = ctx.alloc_vec();
    let mut x_next = ctx.alloc_vec();
    let mut r_next = ctx.alloc_vec();

    let mut rho = 1.0f64;
    let mut gamma_mu_prev = 0.0f64;

    loop {
        ctx.pc_apply(&r, &mut u);
        ctx.spmv(&u, &mut au);
        // One blocking allreduce: μ = (r, u), ν = (u, Au), plus the norms.
        let lmu = ctx.local_dot(&r, &u);
        let lnu = ctx.local_dot(&u, &au);
        let lrr = ctx.local_dot(&r, &r);
        let luu = ctx.local_dot(&u, &u);
        let Some(red) = drv.reduce(ctx, &[lmu, lnu, lrr, luu]) else {
            break;
        };
        let (mu, nu, rr, uu) = (red[0], red[1], red[2], red[3]);

        let scalars = Scalars(&[], &[], mu);
        // μ = (r, u) is the γ-like scalar here: finite and non-negative on
        // an SPD system.
        let broke = |_| nu <= 0.0 || nu.is_nan() || gamma_breakdown(mu);
        if drv.check(ctx, [rr, uu, mu], scalars, broke).is_some() {
            break;
        }

        let gamma = mu / nu;
        let rho_next = if drv.iterations() == 0 {
            1.0
        } else {
            let denom = 1.0 - (gamma * mu) / (gamma_mu_prev * rho);
            if denom == 0.0 || !denom.is_finite() {
                drv.fail(ctx, StopReason::Breakdown);
                break;
            }
            1.0 / denom
        };

        // x_{j+1} = ρ(x_j + γ u_j) + (1-ρ) x_{j-1}, same for r.
        let x = &mut drv.x;
        for i in 0..x.len() {
            x_next[i] = rho_next * (x[i] + gamma * u[i]) + (1.0 - rho_next) * x_prev[i];
            r_next[i] = rho_next * (r[i] - gamma * au[i]) + (1.0 - rho_next) * r_prev[i];
        }
        // 6 flops per row for each of the two fused updates.
        ctx.charge_local(pscg_sim::LocalKind::Vma, 12.0, 96.0);

        std::mem::swap(&mut x_prev, x);
        std::mem::swap(x, &mut x_next);
        std::mem::swap(&mut r_prev, &mut r);
        std::mem::swap(&mut r, &mut r_next);

        gamma_mu_prev = gamma * mu;
        rho = rho_next;
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
        let xstar: Vec<f64> = (0..n).map(|i| (0.29 * i as f64).sin()).collect();
        let b = a.mul_vec(&xstar);
        (a, b)
    }

    #[test]
    fn cg3_converges_and_matches_pcg_iteration_count() {
        let (a, b) = problem();
        let opts = SolveOptions::with_rtol(1e-8);
        let mut c1 = SimCtx::serial(&a, Box::new(Jacobi::new(&a)));
        let r1 = pcg::solve(&mut c1, &b, None, &opts);
        let mut c2 = SimCtx::serial(&a, Box::new(Jacobi::new(&a)));
        let r2 = solve(&mut c2, &b, None, &opts);
        assert!(r2.converged(), "{:?}", r2.stop);
        assert!(r2.true_relres(&a, &b) < 1e-6);
        // Same Krylov process in exact arithmetic.
        let diff = (r1.iterations as i64 - r2.iterations as i64).abs();
        assert!(diff <= 2, "PCG {} vs CG3 {}", r1.iterations, r2.iterations);
    }

    #[test]
    fn cg3_batches_its_dots_into_one_allreduce_per_iteration() {
        let (a, b) = problem();
        let mut ctx = SimCtx::serial(&a, Box::new(Jacobi::new(&a)));
        let res = solve(&mut ctx, &b, None, &SolveOptions::with_rtol(1e-6));
        assert!(res.converged());
        let passes = res.history.len() as u64;
        // One blocking allreduce per loop pass + the reference norm.
        assert_eq!(res.counters.blocking_allreduce, passes + 1);
        assert_eq!(res.counters.nonblocking_allreduce, 0);
    }

    #[test]
    fn cg3_attainable_accuracy_is_no_better_than_two_term_pcg() {
        // Gutknecht & Strakoš: three-term residual recurrences lose more
        // accuracy to rounding. Run both far past convergence and compare
        // the true residual floors.
        let (a, b) = problem();
        let opts = SolveOptions {
            rtol: 1e-15,
            atol: 0.0,
            max_iters: 300,
            ..Default::default()
        };
        let mut c1 = SimCtx::serial(&a, Box::new(Jacobi::new(&a)));
        let r1 = pcg::solve(&mut c1, &b, None, &opts);
        let mut c2 = SimCtx::serial(&a, Box::new(Jacobi::new(&a)));
        let r2 = solve(&mut c2, &b, None, &opts);
        let floor_pcg = r1.true_relres(&a, &b);
        let floor_cg3 = r2.true_relres(&a, &b);
        assert!(
            floor_cg3 >= floor_pcg * 0.1,
            "CG3 floor {floor_cg3:.2e} vs PCG floor {floor_pcg:.2e}"
        );
    }
}
