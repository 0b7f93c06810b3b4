//! sCG with s SPMVs — the paper's Algorithm 4 (§IV-A, first contribution).
//!
//! Removes the extra (s+1)-th SPMV of Algorithm 2 by carrying the block
//! `AQ = A·P` with a recurrence linear combination and updating the residual
//! as `r ← r − AQ·α` instead of recomputing `b − A x`. Still one *blocking*
//! allreduce per iteration — this is the stepping stone to PIPE-sCG, and the
//! ablation point that isolates "fewer SPMVs" from "overlap".

use pscg_sim::Context;

use crate::driver::Driver;
use crate::solver::{SolveOptions, SolveResult, StopReason};
use crate::sstep::{diverged, Chain, GramPacket, GramPacketBuf, PowerBasis, ScalarWork};

/// Solves `A x = b` with sCG-sSPMV. `x0` defaults to zero.
pub fn solve<C: Context>(
    ctx: &mut C,
    b: &[f64],
    x0: Option<&[f64]>,
    opts: &SolveOptions,
) -> SolveResult {
    let s = opts.s.min(ctx.nrows().max(1));
    assert!(s >= 1, "sCG-sSPMV requires s >= 1");
    let (mut drv, r) = Driver::begin(ctx, "sCG-sSPMV", b, x0, opts, None);

    // pow[j] = (σA)^j r, j = 0..=s (line 3–4).
    let mut basis = PowerBasis::new(ctx, Chain::Plain, &r, s, s);

    // Direction block P and its image AP (line 2: P = 0, AP = 0).
    let mut dirs = ctx.alloc_multi(s);
    let mut dirs_next = ctx.alloc_multi(s);
    let mut adirs = ctx.alloc_multi(s);
    let mut adirs_next = ctx.alloc_multi(s);
    let mut scalar = ScalarWork::new(s);
    let mut packet = GramPacketBuf::new(s);

    loop {
        basis.gram_packet(ctx, &dirs, &mut packet);
        let Some(red) = drv.reduce(ctx, packet.flat()) else {
            break;
        };
        let pkt = GramPacket::view(s, &red);
        let norms = pkt.norms();
        if drv
            .check(ctx, norms, scalar.report(), diverged(norms))
            .is_some()
        {
            break;
        }
        if scalar.step(ctx, &pkt).is_err() {
            drv.fail(ctx, StopReason::Breakdown);
            break;
        }

        // Lines 9–11 / 18–20: conjugate P and AP with the same β-matrix.
        // AP's fresh window is {Ar, …, Aˢr} = pow[1..=s].
        let pow = basis.lists().0;
        ctx.block_combine(&mut dirs_next, pow, 0, &dirs, &scalar.b);
        ctx.block_combine(&mut adirs_next, pow, 1, &adirs, &scalar.b);
        std::mem::swap(&mut dirs, &mut dirs_next);
        std::mem::swap(&mut adirs, &mut adirs_next);

        // Lines 12–13 / 21–22: x += P(σα) and the recurrence residual
        // r ← r − AP·α (this replaces the extra SPMV of Algorithm 2; the
        // AP block carries the σ factor, so it consumes the raw α).
        scalar.scale_alpha(basis.sigma);
        ctx.block_gemv_acc(&dirs, &scalar.alpha_x, &mut drv.x);
        ctx.block_gemv_sub(&adirs, &scalar.alpha, basis.residual_mut());

        // Lines 14–15 / 23–24: rebuild the powers with exactly s SPMVs.
        basis.extend(ctx, 0, s);
        drv.advance(s);
    }
    drv.finish(ctx)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::methods::scg;
    use pscg_sim::SimCtx;
    use pscg_sparse::stencil::{poisson3d_7pt, Grid3};
    use pscg_sparse::IdentityOp;

    fn problem() -> (pscg_sparse::CsrMatrix, Vec<f64>) {
        let g = Grid3::cube(6);
        let a = poisson3d_7pt(g, None);
        let n = a.nrows();
        let xstar: Vec<f64> = (0..n).map(|i| (0.37 * i as f64).sin()).collect();
        let b = a.mul_vec(&xstar);
        (a, b)
    }

    fn serial_ctx(a: &pscg_sparse::CsrMatrix) -> SimCtx<'_> {
        SimCtx::serial(a, Box::new(IdentityOp::new(a.nrows())))
    }

    #[test]
    fn sspmv_converges_for_various_s() {
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
    fn sspmv_has_exactly_s_spmvs_per_iteration() {
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
        // Setup: 1 + s; per iteration: exactly s (the paper's headline).
        assert_eq!(res.counters.spmv, 1 + s as u64 + outer * s as u64);
        assert_eq!(res.counters.blocking_allreduce, outer + 3);
    }

    #[test]
    fn sspmv_tracks_scg_trajectory() {
        // Algorithms 2 and 4 are algebraically identical; the recurrence
        // residual tracks the recomputed one closely at these scales.
        let (a, b) = problem();
        let opts = SolveOptions {
            rtol: 1e-7,
            s: 3,
            ..Default::default()
        };
        let mut c1 = serial_ctx(&a);
        let r1 = scg::solve(&mut c1, &b, None, &opts);
        let mut c2 = serial_ctx(&a);
        let r2 = solve(&mut c2, &b, None, &opts);
        assert!(r1.converged() && r2.converged());
        assert_eq!(r1.iterations, r2.iterations);
        for (h1, h2) in r1.history.iter().zip(&r2.history) {
            assert!((h1 - h2).abs() <= 1e-6 * h1.max(1e-30), "{h1} vs {h2}");
        }
    }

    #[test]
    fn sspmv_saves_one_spmv_per_iteration_vs_scg() {
        let (a, b) = problem();
        let opts = SolveOptions {
            rtol: 1e-7,
            s: 3,
            ..Default::default()
        };
        let mut c1 = serial_ctx(&a);
        let r1 = scg::solve(&mut c1, &b, None, &opts);
        let mut c2 = serial_ctx(&a);
        let r2 = solve(&mut c2, &b, None, &opts);
        let outer = (r2.iterations / 3) as u64;
        assert_eq!(r1.counters.spmv - r2.counters.spmv, outer);
    }
}
