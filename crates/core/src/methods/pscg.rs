//! Preconditioned s-step conjugate gradients — the paper's Algorithm 3
//! (Chronopoulos & Gear \[7\]).
//!
//! One blocking allreduce per s-step iteration, **s+1** preconditioner
//! applications and **s+1** SPMVs per iteration: the residual and the
//! preconditioned monomial basis `{u, (M⁻¹A)u, …, (M⁻¹A)ˢu}` are rebuilt
//! from explicit products every time. This is the method whose "extra PC and
//! SPMV" the paper's Figure 4 shows dragging it below even PCG once the
//! preconditioner is expensive.

use pscg_sim::Context;

use crate::methods::{global_ref_norm, init_residual};
use crate::solver::{SolveOptions, SolveResult, StopReason};
use crate::sstep::{conjugate_window, estimate_sigma, GramPacket, GramPacketBuf, ScalarWork};

/// Solves `M⁻¹A x = M⁻¹b` with PsCG. `x0` defaults to zero.
pub fn solve<C: Context>(
    ctx: &mut C,
    b: &[f64],
    x0: Option<&[f64]>,
    opts: &SolveOptions,
) -> SolveResult {
    let s = opts.s.min(ctx.nrows().max(1));
    assert!(s >= 1, "PsCG requires s >= 1");
    let bnorm = global_ref_norm(ctx, b, opts);
    let threshold = opts.threshold(bnorm);
    let mut resil = crate::resilience::ResilienceState::new(opts, bnorm);
    let (mut x, r) = init_residual(ctx, b, x0);

    // rpow[j] = (σAM⁻¹)^j r, upow[j] = M⁻¹ rpow[j], j = 0..=s; σ-scaled
    // basis (see sstep docs), estimated from the first chain link.
    let mut rpow = ctx.alloc_multi(s + 1);
    let mut upow = ctx.alloc_multi(s + 1);
    rpow.col_mut(0).copy_from_slice(&r);
    ctx.pc_apply(rpow.col(0), upow.col_mut(0));
    ctx.spmv(upow.col(0), rpow.col_mut(1));
    let sigma = estimate_sigma(ctx, rpow.col(0), rpow.col(1));
    ctx.scale_v(sigma, rpow.col_mut(1));
    ctx.pc_apply(rpow.col(1), upow.col_mut(1));
    build_basis(ctx, 1, s, &mut rpow, &mut upow, sigma);

    let mut udirs = ctx.alloc_multi(s);
    let mut udirs_next = ctx.alloc_multi(s);
    let mut ax = ctx.alloc_vec();
    let mut scalar = ScalarWork::new(s);
    let mut packet = GramPacketBuf::new(s);
    let mut history: Vec<f64> = Vec::new();
    let mut iters = 0usize;
    let stop;

    loop {
        // Line 15 / 22: the 2s dot products in one blocking allreduce.
        ctx.local_gram_packet(&upow, &rpow, &udirs, &mut packet);
        let red = ctx.allreduce(packet.flat());
        let pkt = GramPacket::view(s, &red);
        // A dead peer poisons the reduction: the check must precede the
        // relres computation, whose `.max(0.0)` would clamp a NaN norm
        // into a fake zero-residual convergence. The supervisor owns the
        // buddy rebuild.
        if ctx.rank_failure().is_some() {
            resil.rollback(ctx, &mut x);
            stop = StopReason::RankFailed;
            break;
        }

        let norms = pkt.norms();
        let relres =
            crate::methods::relres_from_sq(opts.norm.pick_sq(norms[0], norms[1], norms[2]), bnorm);
        history.push(relres);
        ctx.note_residual(relres);
        crate::telemetry::note_iter(
            ctx,
            iters,
            relres,
            norms,
            &scalar.alpha,
            scalar.b.data(),
            f64::NAN,
        );
        if relres * bnorm < threshold {
            stop = StopReason::Converged;
            break;
        }
        if iters >= opts.max_iters {
            stop = StopReason::MaxIterations;
            break;
        }
        if !relres.is_finite() || relres > 1e8 || norms[2] < 0.0 {
            // The recurrences have left the basin of useful arithmetic
            // (non-finite/diverged residual, or a negative (r, u) scalar on
            // an SPD system); report breakdown instead of iterating on.
            resil.rollback(ctx, &mut x);
            stop = StopReason::Breakdown;
            break;
        }
        match resil.on_check(ctx, b, &x, relres) {
            crate::resilience::CheckVerdict::Continue => {}
            verdict => {
                resil.rollback(ctx, &mut x);
                stop = verdict.stop();
                break;
            }
        }
        // Line 8: Scalar Work.
        if scalar.step(ctx, &pkt).is_err() {
            resil.rollback(ctx, &mut x);
            stop = StopReason::Breakdown;
            break;
        }

        // Lines 10–11 / 17–18: conjugate directions, advance the solution.
        conjugate_window(ctx, &mut udirs_next, &upow, 0, &udirs, &scalar.b);
        std::mem::swap(&mut udirs, &mut udirs_next);
        // σ-scaled basis: x advances by σ·α.
        scalar.scale_alpha(sigma);
        ctx.block_gemv_acc(&udirs, &scalar.alpha_x, &mut x);

        // Lines 12–14 / 19–21: fresh residual and preconditioned basis —
        // the s+1 PCs and s+1 SPMVs.
        ctx.spmv(&x, &mut ax);
        ctx.waxpy(rpow.col_mut(0), -1.0, &ax, b);
        build_basis(ctx, 0, s, &mut rpow, &mut upow, sigma);
        iters += s;
    }

    SolveResult {
        x,
        iterations: iters,
        stop,
        final_relres: history.last().copied().unwrap_or(f64::NAN),
        history,
        counters: *ctx.counters(),
        method: "PsCG",
    }
}

/// Extends the dual chains: `rpow[j+1] = σ·A·upow[j]`,
/// `upow[j+1] = M⁻¹ rpow[j+1]` for `j = from..to` (plus the boundary PC
/// when starting from a fresh residual).
fn build_basis<C: Context>(
    ctx: &mut C,
    from: usize,
    to: usize,
    rpow: &mut pscg_sparse::MultiVector,
    upow: &mut pscg_sparse::MultiVector,
    sigma: f64,
) {
    if from == 0 {
        ctx.pc_apply(rpow.col(0), upow.col_mut(0));
    }
    for j in from..to {
        ctx.spmv(upow.col(j), rpow.col_mut(j + 1));
        // pscg-lint: allow(float-eq, exact identity-scaling skip; sigma is a set parameter, not computed)
        if sigma != 1.0 {
            ctx.scale_v(sigma, rpow.col_mut(j + 1));
        }
        ctx.pc_apply(rpow.col(j + 1), upow.col_mut(j + 1));
    }
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
        let xstar: Vec<f64> = (0..n).map(|i| ((i % 13) as f64 - 6.0) / 6.0).collect();
        let b = a.mul_vec(&xstar);
        (a, b)
    }

    #[test]
    fn pscg_converges_with_jacobi_for_various_s() {
        let (a, b) = problem();
        for s in [1usize, 2, 3, 5] {
            let mut ctx = SimCtx::serial(&a, Box::new(Jacobi::new(&a)));
            let opts = SolveOptions {
                rtol: 1e-8,
                s,
                ..Default::default()
            };
            let res = solve(&mut ctx, &b, None, &opts);
            assert!(res.converged(), "s={s}: {:?}", res.stop);
            assert!(res.true_relres(&a, &b) < 1e-6, "s={s}");
        }
    }

    #[test]
    fn pscg_matches_pcg_step_count_approximately() {
        let (a, b) = problem();
        let opts = SolveOptions {
            rtol: 1e-8,
            s: 3,
            ..Default::default()
        };
        let mut c1 = SimCtx::serial(&a, Box::new(Jacobi::new(&a)));
        let r1 = pcg::solve(&mut c1, &b, None, &opts);
        let mut c2 = SimCtx::serial(&a, Box::new(Jacobi::new(&a)));
        let r2 = solve(&mut c2, &b, None, &opts);
        assert!(r2.converged());
        assert!(
            r2.iterations <= r1.iterations + 2 * opts.s + 2,
            "PsCG {} vs PCG {}",
            r2.iterations,
            r1.iterations
        );
    }

    #[test]
    fn pscg_counts_s_plus_1_pcs_and_spmvs_per_iteration() {
        let (a, b) = problem();
        let s = 3;
        let mut ctx = SimCtx::serial(&a, Box::new(Jacobi::new(&a)));
        let opts = SolveOptions {
            rtol: 1e-6,
            s,
            ..Default::default()
        };
        let res = solve(&mut ctx, &b, None, &opts);
        assert!(res.converged());
        let outer = (res.iterations / s) as u64;
        let su = s as u64;
        assert_eq!(res.counters.blocking_allreduce, outer + 3);
        // Setup: 1 + s SPMVs, s+2 PCs (incl. the reference norm); per
        // iteration: s+1 of each.
        assert_eq!(res.counters.spmv, 1 + su + outer * (su + 1));
        assert_eq!(res.counters.pc, su + 2 + outer * (su + 1));
        assert_eq!(res.counters.nonblocking_allreduce, 0);
    }

    #[test]
    fn pscg_converges_under_all_three_norms() {
        let (a, b) = problem();
        use crate::solver::NormType;
        for norm in [
            NormType::Preconditioned,
            NormType::Unpreconditioned,
            NormType::Natural,
        ] {
            let mut ctx = SimCtx::serial(&a, Box::new(Jacobi::new(&a)));
            let opts = SolveOptions {
                rtol: 1e-7,
                s: 3,
                norm,
                ..Default::default()
            };
            let res = solve(&mut ctx, &b, None, &opts);
            assert!(res.converged(), "norm {norm:?}");
            assert!(res.true_relres(&a, &b) < 1e-5, "norm {norm:?}");
        }
    }
}
