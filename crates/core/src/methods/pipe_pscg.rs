//! PIPE-PsCG — the paper's Algorithms 6–7 (§IV-C, main contribution).
//!
//! The preconditioned pipelined s-step method carries *dual* power lists —
//! u-type (`upow[j] = (M⁻¹A)^j u`, the paper's `Q/P` family) and r-type
//! (`rpow[j] = (AM⁻¹)^j r`, the paper's `Q2/P2` family) — together with
//! both A-power families (`AQm`/`AQ2m`). Per s-step iteration it performs:
//!
//! * recurrence LCs only for the direction blocks, both power families and
//!   the fresh bases (no PC/SPMV on the critical path of the dot products);
//! * **one** non-blocking allreduce of the Gram packet, overlapped with
//! * exactly **s** preconditioner applications and **s** SPMVs — the deep
//!   powers `(AM⁻¹)^{s+1..2s}r` / `(M⁻¹A)^{s+1..2s}u` whose results feed the
//!   *next* iteration's recurrences, not the pending dot products.
//!
//! Because `rpow\[0\] = r`, `upow\[0\] = u` and both travel in the packet, the
//! convergence test can use the unpreconditioned, preconditioned or natural
//! norm with no extra kernels — the advantage the paper emphasises over
//! PIPELCG.
//!
//! The depth-2 methods (PIPECG-OATI, PIPECG3) and the hybrid driver reuse
//! this core through [`PipeConfig`]; PIPE-sCG (Algorithm 5) is the same loop
//! over an unpreconditioned chain, where `u ≡ r` collapses the dual lists
//! and families to one (`crate::sstep::PowerBasis`).

use pscg_obs::StagnationConfig;
use pscg_sim::Context;

use crate::driver::Driver;
use crate::solver::{SolveOptions, SolveResult, StopReason};
use crate::sstep::{diverged, Chain, GramPacket, GramPacketBuf, PowerBasis, ScalarWork};

/// Stagnation rule: stop with [`StopReason::Stagnated`] when the relative
/// residual improved by less than `min_ratio` over the last `window`
/// convergence checks. The rule is evaluated by
/// [`pscg_obs::StagnationDetector`], so the armed threshold and whether it
/// fired travel in the telemetry stream.
pub type StagnationCheck = StagnationConfig;

/// Tuning knobs for the pipelined s-step core.
#[derive(Debug, Clone, Copy)]
pub struct PipeConfig {
    /// Reported method name.
    pub method: &'static str,
    /// Step-block size (overrides `SolveOptions::s`).
    pub s: usize,
    /// Replace the recurrence basis with explicitly computed products every
    /// `k` outer iterations (the "non-recurrence computations" of
    /// PIPECG-OATI \[11\]); `None` = pure recurrences (Algorithm 6).
    pub replace_every: Option<usize>,
    /// Optional stagnation detection (used by the hybrid driver).
    pub stagnation: Option<StagnationCheck>,
    /// Extra VMA work (flops per row) charged once per outer iteration —
    /// used to reflect a method's Table I FLOP count when the shared core
    /// under-counts it (e.g. PIPECG3's costlier three-term recurrences).
    pub extra_flops_per_row: f64,
}

impl PipeConfig {
    /// The plain PIPE-PsCG configuration for a given `s`.
    pub fn pipe_pscg(s: usize) -> Self {
        PipeConfig {
            method: "PIPE-PsCG",
            s,
            replace_every: None,
            stagnation: None,
            extra_flops_per_row: 0.0,
        }
    }
}

/// Solves `M⁻¹A x = M⁻¹b` with PIPE-PsCG at `opts.s`. `x0` defaults to zero.
pub fn solve<C: Context>(
    ctx: &mut C,
    b: &[f64],
    x0: Option<&[f64]>,
    opts: &SolveOptions,
) -> SolveResult {
    solve_with(ctx, b, x0, opts, PipeConfig::pipe_pscg(opts.s))
}

/// Solves with an explicit [`PipeConfig`] (used by PIPECG-OATI, PIPECG3 and
/// the hybrid driver).
pub fn solve_with<C: Context>(
    ctx: &mut C,
    b: &[f64],
    x0: Option<&[f64]>,
    opts: &SolveOptions,
    cfg: PipeConfig,
) -> SolveResult {
    solve_chain(ctx, b, x0, opts, cfg, Chain::Preconditioned)
}

/// The pipelined s-step loop over the basis `chain` generates: Algorithms
/// 6–7, or Algorithm 5 when the chain carries no preconditioner (one power
/// list and one recurrence family instead of two).
pub(crate) fn solve_chain<C: Context>(
    ctx: &mut C,
    b: &[f64],
    x0: Option<&[f64]>,
    opts: &SolveOptions,
    cfg: PipeConfig,
    chain: Chain,
) -> SolveResult {
    // A basis deeper than the problem dimension is rank deficient by
    // construction; clamp (matters only for toy systems).
    let s = cfg.s.min(ctx.nrows().max(1));
    assert!(s >= 1, "{} requires s >= 1", cfg.method);
    let (mut drv, r) = Driver::begin(ctx, cfg.method, b, x0, opts, cfg.stagnation);

    // Alg. 6 lines 7–10: r₀, u₀ and the first s powers of the list(s), of
    // 2s + 1 columns; the recurrence phase advances them in place.
    let mut basis = PowerBasis::new(ctx, chain, &r, s, 2 * s);

    // Direction blocks (paper's P/Q, and P2/Q2) with their A-power families
    // (AQm[j] = (M⁻¹A)^{j+1}·udirs, AQ2m[j] = (AM⁻¹)^{j+1}·rdirs), and the
    // scratch of a replacement pass, which only the preconditioned methods
    // take.
    let mut blocks = basis.dir_blocks(ctx, s);
    let mut ax = match chain {
        Chain::Preconditioned => ctx.alloc_vec(),
        Chain::Plain | Chain::Mpk => Vec::new(),
    };

    // Lines 11–12: local dot products and the non-blocking allreduce.
    let mut packet = GramPacketBuf::new(s);
    basis.gram_packet(ctx, &blocks[0].dirs, &mut packet);
    let mut handle = ctx.iallreduce(packet.flat());
    // Line 13: deep powers overlapped with it — s SPMVs (and s PCs).
    basis.extend(ctx, s, 2 * s);

    let mut scalar = ScalarWork::new(s);
    let mut outer = 0usize;

    // Line 35 wait (posted one overlap window ago).
    while let Some(red) = drv.wait(ctx, handle, packet.flat()) {
        let pkt = GramPacket::view(s, &red);
        let norms = pkt.norms();
        if drv
            .check(ctx, norms, scalar.report(), diverged(norms))
            .is_some()
        {
            break;
        }
        // Line 15: Scalar Work.
        if scalar.step(ctx, &pkt).is_err() {
            drv.fail(ctx, StopReason::Breakdown);
            break;
        }

        // Lines 17–35 as one fused in-place pass over the rows: conjugate
        // the direction blocks and all A-power blocks with the same
        // β-matrix (fresh windows come from the *old* power lists), form
        // the fresh bases by recurrence only —
        // rpow[j] ← rpow[j] − AQ2m[j]·α, upow[j] ← upow[j] − AQm[j]·α —
        // and their dot products; then advance x += Q (σα). No SPMV.
        // The u-type directions live in the σ-scaled basis; the AQm/AQ2m
        // blocks carry the σ factor, so the basis recurrences consume the
        // raw α.
        let replace = cfg
            .replace_every
            .is_some_and(|k| outer > 0 && outer.is_multiple_of(k));
        scalar.scale_alpha(basis.sigma);
        let shape = (!replace, cfg.extra_flops_per_row);
        basis.recurrence_step(ctx, &mut blocks, &scalar, shape, &mut packet, &mut drv.x);

        if replace {
            // Non-recurrence computation: recompute the residual, the
            // leading basis columns and their dot products explicitly
            // (extra, *unoverlapped* PCs and SPMVs — the price PIPECG-OATI
            // pays for repaying the rounding drift of the recurrences).
            basis.restart(ctx, &drv.x, b, &mut ax, s);
            basis.gram_packet(ctx, &blocks[0].dirs, &mut packet);
        }

        // Line 35: the dot products of the new bases, posted non-blocking.
        handle = ctx.iallreduce(packet.flat());

        // Line 36: the deep powers — s SPMVs (and s PCs) — overlapped with
        // the allreduce.
        basis.extend(ctx, s, 2 * s);
        drv.advance(s);
        outer += 1;
    }
    drv.finish(ctx)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::methods::pscg;
    use crate::solver::NormType;
    use pscg_precond::Jacobi;
    use pscg_sim::SimCtx;
    use pscg_sparse::stencil::{poisson3d_7pt, Grid3};

    fn problem() -> (pscg_sparse::CsrMatrix, Vec<f64>) {
        let g = Grid3::cube(6);
        let a = poisson3d_7pt(g, None);
        let n = a.nrows();
        let xstar: Vec<f64> = (0..n).map(|i| (0.23 * i as f64).sin() + 0.5).collect();
        let b = a.mul_vec(&xstar);
        (a, b)
    }

    fn jacobi_ctx(a: &pscg_sparse::CsrMatrix) -> SimCtx<'_> {
        SimCtx::serial(a, Box::new(Jacobi::new(a)))
    }

    #[test]
    fn pipe_pscg_converges_for_various_s() {
        let (a, b) = problem();
        for s in [1usize, 2, 3, 4, 5] {
            let mut ctx = SimCtx::serial(&a, Box::new(Jacobi::new(&a)));
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
    fn pipe_pscg_matches_pscg_trajectory() {
        let (a, b) = problem();
        let opts = SolveOptions {
            rtol: 1e-7,
            s: 3,
            ..Default::default()
        };
        let mut c1 = SimCtx::serial(&a, Box::new(Jacobi::new(&a)));
        let r1 = pscg::solve(&mut c1, &b, None, &opts);
        let mut c2 = SimCtx::serial(&a, Box::new(Jacobi::new(&a)));
        let r2 = solve(&mut c2, &b, None, &opts);
        assert!(r1.converged() && r2.converged());
        assert_eq!(r1.iterations, r2.iterations, "same s-step Krylov process");
    }

    #[test]
    fn pipe_pscg_has_s_pcs_s_spmvs_one_iallreduce_per_iteration() {
        let (a, b) = problem();
        let s = 3u64;
        let mut ctx = jacobi_ctx(&a);
        let opts = SolveOptions {
            rtol: 1e-6,
            s: s as usize,
            ..Default::default()
        };
        let res = solve(&mut ctx, &b, None, &opts);
        assert!(res.converged());
        let outer = res.iterations as u64 / s;
        let passes = res.history.len() as u64;
        assert_eq!(res.counters.nonblocking_allreduce, passes);
        assert_eq!(res.counters.blocking_allreduce, 2);
        // Setup: 1 + 2s SPMVs and 2s + 2 PCs (incl. the reference norm);
        // per iteration: s and s.
        assert_eq!(res.counters.spmv, 1 + 2 * s + outer * s);
        assert_eq!(res.counters.pc, 2 * s + 2 + outer * s);
    }

    #[test]
    fn pipe_pscg_converges_under_all_three_norms_without_extra_kernels() {
        let (a, b) = problem();
        let s = 3u64;
        for norm in [
            NormType::Preconditioned,
            NormType::Unpreconditioned,
            NormType::Natural,
        ] {
            let mut ctx = jacobi_ctx(&a);
            let opts = SolveOptions {
                rtol: 1e-7,
                s: s as usize,
                norm,
                ..Default::default()
            };
            let res = solve(&mut ctx, &b, None, &opts);
            assert!(res.converged(), "norm {norm:?}");
            assert!(res.true_relres(&a, &b) < 1e-5, "norm {norm:?}");
            // The paper's "no extra PC or SPMV" claim: regardless of the
            // norm, kernels are exactly s per iteration beyond setup.
            let outer = res.iterations as u64 / s;
            assert_eq!(res.counters.spmv, 1 + 2 * s + outer * s, "norm {norm:?}");
            assert_eq!(res.counters.pc, 2 * s + 2 + outer * s, "norm {norm:?}");
        }
    }

    #[test]
    fn residual_replacement_curbs_recurrence_drift() {
        let (a, b) = problem();
        let opts = SolveOptions {
            rtol: 1e-12,
            s: 2,
            max_iters: 400,
            ..Default::default()
        };
        let mut c1 = jacobi_ctx(&a);
        let cfg_plain = PipeConfig {
            replace_every: None,
            ..PipeConfig::pipe_pscg(2)
        };
        let r1 = solve_with(&mut c1, &b, None, &opts, cfg_plain);
        let mut c2 = jacobi_ctx(&a);
        let cfg_rr = PipeConfig {
            replace_every: Some(8),
            ..PipeConfig::pipe_pscg(2)
        };
        let r2 = solve_with(&mut c2, &b, None, &opts, cfg_rr);
        // With replacement the *true* residual at exit is at least as good.
        assert!(r2.true_relres(&a, &b) <= r1.true_relres(&a, &b) * 10.0);
    }

    #[test]
    fn stagnation_detection_fires_at_unreachable_tolerance() {
        let (a, b) = problem();
        let opts = SolveOptions {
            rtol: 1e-30,
            atol: 0.0,
            max_iters: 5000,
            s: 3,
            ..Default::default()
        };
        let cfg = PipeConfig {
            stagnation: Some(StagnationCheck {
                window: 4,
                min_ratio: 0.5,
            }),
            ..PipeConfig::pipe_pscg(3)
        };
        let mut ctx = jacobi_ctx(&a);
        let res = solve_with(&mut ctx, &b, None, &opts, cfg);
        assert_eq!(res.stop, StopReason::Stagnated);
        // It still made real progress before stagnating.
        assert!(res.final_relres < 1e-3);
    }
}
