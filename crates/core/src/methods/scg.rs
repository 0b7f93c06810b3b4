//! s-step conjugate gradients of Chronopoulos & Gear — the paper's
//! Algorithm 2.
//!
//! One *blocking* allreduce per s-step iteration (each worth s PCG steps),
//! at the price of **s+1** SPMVs per iteration: the residual is recomputed
//! as `r = b − A x` and the monomial basis `{r, Ar, …, Aˢr}` is rebuilt with
//! fresh products every iteration. Unpreconditioned.

use pscg_sim::Context;

use crate::methods::{global_ref_norm, init_residual};
use crate::solver::{SolveOptions, SolveResult, StopReason};
use crate::sstep::{
    conjugate_window, estimate_sigma, extend_scaled_powers, GramPacket, GramPacketBuf, ScalarWork,
};

/// Solves `A x = b` with sCG. `x0` defaults to zero.
pub fn solve<C: Context>(
    ctx: &mut C,
    b: &[f64],
    x0: Option<&[f64]>,
    opts: &SolveOptions,
) -> SolveResult {
    let s = opts.s.min(ctx.nrows().max(1));
    assert!(s >= 1, "sCG requires s >= 1");
    let bnorm = global_ref_norm(ctx, b, opts);
    let threshold = opts.threshold(bnorm);
    let mut resil = crate::resilience::ResilienceState::new(opts, bnorm);
    let (mut x, r) = init_residual(ctx, b, x0);

    // pow[j] = (σA)^j r, j = 0..=s (lines 3–4: s SPMVs after the
    // residual); σ keeps the monomial columns O(‖r‖) (see sstep docs).
    let mut pow = ctx.alloc_multi(s + 1);
    pow.col_mut(0).copy_from_slice(&r);
    {
        let (src, dst) = pow.col_pair_mut(0, 1);
        ctx.spmv(src, dst);
    }
    let sigma = estimate_sigma(ctx, pow.col(0), pow.col(1));
    ctx.scale_v(sigma, pow.col_mut(1));
    extend_scaled_powers(ctx, &mut pow, 1, s, sigma);

    let mut dirs = ctx.alloc_multi(s);
    let mut dirs_next = ctx.alloc_multi(s);
    let mut ax = ctx.alloc_vec();
    let mut scalar = ScalarWork::new(s);
    let mut packet = GramPacketBuf::new(s);
    let mut history: Vec<f64> = Vec::new();
    let mut iters = 0usize;
    let stop;

    loop {
        // Line 5 / 13 / 19: the 2s dot products, as one blocking allreduce.
        ctx.local_gram_packet(&pow, &pow, &dirs, &mut packet);
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
        // Line 7: Scalar Work (two s×s LU solves).
        if scalar.step(ctx, &pkt).is_err() {
            resil.rollback(ctx, &mut x);
            stop = StopReason::Breakdown;
            break;
        }

        // Lines 9–10 / 15–16: conjugate the basis and advance the solution.
        conjugate_window(ctx, &mut dirs_next, &pow, 0, &dirs, &scalar.b);
        std::mem::swap(&mut dirs, &mut dirs_next);
        // The directions live in the σ-scaled basis: x advances by σ·α.
        scalar.scale_alpha(sigma);
        ctx.block_gemv_acc(&dirs, &scalar.alpha_x, &mut x);

        // Lines 11–12 / 17–18: fresh residual and basis, s+1 SPMVs.
        ctx.spmv(&x, &mut ax);
        ctx.waxpy(pow.col_mut(0), -1.0, &ax, b);
        extend_scaled_powers(ctx, &mut pow, 0, s, sigma);
        iters += s;
    }

    SolveResult {
        x,
        iterations: iters,
        stop,
        final_relres: history.last().copied().unwrap_or(f64::NAN),
        history,
        counters: *ctx.counters(),
        method: "sCG",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::methods::pcg;
    use pscg_sim::SimCtx;
    use pscg_sparse::stencil::{poisson3d_7pt, Grid3};
    use pscg_sparse::IdentityOp;

    fn problem() -> (pscg_sparse::CsrMatrix, Vec<f64>) {
        let g = Grid3::cube(6);
        let a = poisson3d_7pt(g, None);
        let n = a.nrows();
        let xstar: Vec<f64> = (0..n).map(|i| ((i % 9) as f64 - 4.0) / 4.0).collect();
        let b = a.mul_vec(&xstar);
        (a, b)
    }

    fn serial_ctx(a: &pscg_sparse::CsrMatrix) -> SimCtx<'_> {
        SimCtx::serial(a, Box::new(IdentityOp::new(a.nrows())))
    }

    #[test]
    fn scg_converges_like_cg_for_various_s() {
        let (a, b) = problem();
        let opts_cg = SolveOptions {
            rtol: 1e-8,
            ..Default::default()
        };
        let mut c0 = serial_ctx(&a);
        let rcg = pcg::solve(&mut c0, &b, None, &opts_cg);
        for s in [1usize, 2, 3, 4, 5] {
            let mut ctx = serial_ctx(&a);
            let opts = SolveOptions {
                rtol: 1e-8,
                s,
                ..Default::default()
            };
            let res = solve(&mut ctx, &b, None, &opts);
            assert!(res.converged(), "s={s}: {:?}", res.stop);
            assert!(res.true_relres(&a, &b) < 1e-6, "s={s}");
            // s-step CG performs the work of s PCG steps per iteration; the
            // step count rounds up to a multiple of s.
            let slack = 2 * s + 2;
            assert!(
                res.iterations <= rcg.iterations + slack,
                "s={s}: sCG {} vs PCG {}",
                res.iterations,
                rcg.iterations
            );
        }
    }

    #[test]
    fn scg_counts_one_allreduce_and_s_plus_1_spmvs_per_iteration() {
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
        let outer = (res.iterations / s) as u64;
        // One blocking allreduce per outer iteration + final check + bnorm
        // + the basis-scale estimate.
        assert_eq!(res.counters.blocking_allreduce, outer + 3);
        // Setup: 1 (residual) + s (basis); each outer iteration: s+1.
        assert_eq!(res.counters.spmv, 1 + s as u64 + outer * (s as u64 + 1));
        // Only the reference-norm M^-1 b (identity); none in the loop.
        assert_eq!(res.counters.pc, 1, "sCG is unpreconditioned");
    }

    #[test]
    fn scg_s1_matches_cg_trajectory() {
        // s = 1 s-step CG is plain CG; trajectories agree step for step
        // until roundoff accumulates.
        let (a, b) = problem();
        let opts = SolveOptions {
            rtol: 1e-6,
            s: 1,
            ..Default::default()
        };
        let mut c1 = serial_ctx(&a);
        let r1 = solve(&mut c1, &b, None, &opts);
        let mut c2 = serial_ctx(&a);
        let r2 = pcg::solve(&mut c2, &b, None, &opts);
        assert!(r1.converged() && r2.converged());
        assert!((r1.iterations as i64 - r2.iterations as i64).abs() <= 2);
    }
}
