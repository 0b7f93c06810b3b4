//! The CG method family: the paper's contribution and every baseline it is
//! evaluated against.
//!
//! | module | method | paper | overlap |
//! |---|---|---|---|
//! | [`pcg`] | PCG | Alg. 1 | none |
//! | [`pipecg`] | PIPECG | Ghysels & Vanroose \[9\] | 1 PC + 1 SPMV |
//! | [`pipecg3`] | PIPECG3 | Eller & Gropp \[10\] | 2 PCs + 2 SPMVs |
//! | [`pipecg_oati`] | PIPECG-OATI | Tiwari & Vadhiyar \[11\] | 2 PCs + 2 SPMVs |
//! | [`scg`] | sCG | Alg. 2 (Chronopoulos & Gear) | none (s+1 SPMVs) |
//! | [`scg_sspmv`] | sCG with s SPMVs | Alg. 4 (contribution) | none (s SPMVs) |
//! | [`pscg`] | PsCG | Alg. 3 | none (s+1 PCs/SPMVs) |
//! | [`pipe_scg`] | PIPE-sCG | Alg. 5 (contribution) | s SPMVs |
//! | [`pipe_pscg`] | PIPE-PsCG | Alg. 6–7 (contribution) | s PCs + s SPMVs |
//! | [`hybrid`] | Hybrid-pipelined | §VI-B | PIPE-PsCG then PIPECG-OATI |
//!
//! Allreduces per `s` steps, memory and kernel counts are Table I, stated
//! once in [`crate::costmodel::table1`] and measured against real traces by
//! `tests/table1_validation.rs`.
//!
//! Every method has the same signature,
//! `solve(ctx, b, x0, &SolveOptions) -> SolveResult`, and is written against
//! [`pscg_sim::Context`], so it runs identically on the serial engine, the
//! tracing engine behind the figures, and the thread-backed distributed
//! engine.
//!
//! A method body is its kernels and scalars only. The stop policy —
//! reference norm, threshold, trust checks, history, rollback, the
//! `SolveResult` — lives once in `crate::driver::Driver`; the loops reach it
//! through `begin` / `reduce` / `wait` / `check` / `fail` / `finish` and never
//! see the threshold. The paper's chain "Alg. 3 is Alg. 2 preconditioned,
//! Alg. 6–7 is Alg. 5 preconditioned" is one loop each: [`pscg`] holds the
//! blocking s-step loop ([`scg`] is its unpreconditioned entry point),
//! [`pipe_pscg`] the pipelined one ([`pipe_scg`], [`pipecg3`],
//! [`pipecg_oati`] and [`hybrid`]'s first phase are entry points), and the
//! single-vs-dual power list is `crate::sstep::PowerBasis`.

pub mod cg3;
pub mod hybrid;
pub mod pcg;
pub mod pipe_pscg;
pub mod pipe_scg;
pub mod pipecg;
pub mod pipecg3;
pub mod pipecg_oati;
pub mod pscg;
pub mod scg;
pub mod scg_sspmv;

use crate::solver::{SolveOptions, SolveResult};
use pscg_sim::Context;

/// Uniform method selector, used by examples and the benchmark harness.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MethodKind {
    /// Classic preconditioned CG (Algorithm 1).
    Pcg,
    /// Pipelined CG of Ghysels & Vanroose.
    Pipecg,
    /// Three-term-recurrence pipelined CG, one allreduce per two iterations.
    Pipecg3,
    /// One-allreduce-per-two-iterations pipelined CG (HiPC'20).
    PipecgOati,
    /// s-step CG (Algorithm 2).
    Scg,
    /// s-step CG with s SPMVs (Algorithm 4).
    ScgSspmv,
    /// Preconditioned s-step CG (Algorithm 3).
    Pscg,
    /// Pipelined s-step CG (Algorithm 5).
    PipeScg,
    /// Pipelined preconditioned s-step CG (Algorithms 6–7).
    PipePscg,
    /// PIPE-PsCG until stagnation, then PIPECG-OATI (§VI-B).
    Hybrid,
    /// Three-term-recurrence PCG (extension baseline; seed of PIPECG3).
    Cg3,
}

impl MethodKind {
    /// Every method, in the order of the module table (the paper's methods,
    /// the hybrid, then the CG3 extension baseline).
    pub const ALL: [MethodKind; 11] = [
        MethodKind::Pcg,
        MethodKind::Pipecg,
        MethodKind::Pipecg3,
        MethodKind::PipecgOati,
        MethodKind::Scg,
        MethodKind::ScgSspmv,
        MethodKind::Pscg,
        MethodKind::PipeScg,
        MethodKind::PipePscg,
        MethodKind::Hybrid,
        MethodKind::Cg3,
    ];

    /// Paper spelling of the method name.
    pub fn name(self) -> &'static str {
        match self {
            MethodKind::Pcg => "PCG",
            MethodKind::Pipecg => "PIPECG",
            MethodKind::Pipecg3 => "PIPECG3",
            MethodKind::PipecgOati => "PIPECG-OATI",
            MethodKind::Scg => "sCG",
            MethodKind::ScgSspmv => "sCG-sSPMV",
            MethodKind::Pscg => "PsCG",
            MethodKind::PipeScg => "PIPE-sCG",
            MethodKind::PipePscg => "PIPE-PsCG",
            MethodKind::Hybrid => "Hybrid-pipelined",
            MethodKind::Cg3 => "CG3",
        }
    }

    /// All methods plotted in the paper's Figure 1/2 sweeps, in the paper's
    /// legend order, plus the hybrid.
    pub fn figure_set() -> [MethodKind; 7] {
        [
            MethodKind::Pcg,
            MethodKind::Pipecg,
            MethodKind::Pipecg3,
            MethodKind::PipecgOati,
            MethodKind::Pscg,
            MethodKind::PipeScg,
            MethodKind::PipePscg,
        ]
    }

    /// Dispatches to the implementation.
    ///
    /// This is also the telemetry boundary: when telemetry is enabled
    /// (`pscg_obs::set_enabled`), the whole solve — including the hybrid's
    /// two phases, which run inside one dispatch — is collected as a single
    /// metrics stream, retrievable afterwards with
    /// `pscg_obs::metrics::take_last`.
    pub fn solve<C: Context>(
        self,
        ctx: &mut C,
        b: &[f64],
        x0: Option<&[f64]>,
        opts: &SolveOptions,
    ) -> SolveResult {
        let began = crate::telemetry::begin(self.name(), ctx, opts);
        let res = self.dispatch(ctx, b, x0, opts);
        crate::telemetry::finish(began, ctx, &res);
        res
    }

    fn dispatch<C: Context>(
        self,
        ctx: &mut C,
        b: &[f64],
        x0: Option<&[f64]>,
        opts: &SolveOptions,
    ) -> SolveResult {
        match self {
            MethodKind::Pcg => pcg::solve(ctx, b, x0, opts),
            MethodKind::Pipecg => pipecg::solve(ctx, b, x0, opts),
            MethodKind::Pipecg3 => pipecg3::solve(ctx, b, x0, opts),
            MethodKind::PipecgOati => pipecg_oati::solve(ctx, b, x0, opts),
            MethodKind::Scg => scg::solve(ctx, b, x0, opts),
            MethodKind::ScgSspmv => scg_sspmv::solve(ctx, b, x0, opts),
            MethodKind::Pscg => pscg::solve(ctx, b, x0, opts),
            MethodKind::PipeScg => pipe_scg::solve(ctx, b, x0, opts),
            MethodKind::PipePscg => pipe_pscg::solve(ctx, b, x0, opts),
            MethodKind::Hybrid => hybrid::solve(ctx, b, x0, opts),
            MethodKind::Cg3 => cg3::solve(ctx, b, x0, opts),
        }
    }
}

/// Shared init: `x = x0` (or 0) and `r = b − A x` (always one SPMV, as in
/// PETSc). Returns `(x, r)`.
pub(crate) fn init_residual<C: Context>(
    ctx: &mut C,
    b: &[f64],
    x0: Option<&[f64]>,
) -> (Vec<f64>, Vec<f64>) {
    assert_eq!(
        b.len(),
        ctx.vec_len(),
        "rhs length must match the local vector length"
    );
    let mut x = ctx.alloc_vec();
    if let Some(x0) = x0 {
        assert_eq!(
            x0.len(),
            ctx.vec_len(),
            "x0 length must match the local vector length"
        );
        x.copy_from_slice(x0);
    }
    let mut r = ctx.alloc_vec();
    let mut ax = ctx.alloc_vec();
    ctx.spmv(&x, &mut ax);
    ctx.waxpy(&mut r, -1.0, &ax, b);
    (x, r)
}

/// Norm from a reduced squared norm, preserving a non-finite input as NaN.
/// Every squared-norm → norm site goes through here. `.max(0.0)` exists to
/// clamp tiny negative rounding; the bare `.max(0.0).sqrt()` idiom would
/// also map a *poisoned* NaN reduction to a zero norm — instant fake
/// convergence.
#[inline]
pub(crate) fn norm_from_sq(norm_sq: f64) -> f64 {
    if norm_sq.is_finite() {
        norm_sq.max(0.0).sqrt()
    } else {
        f64::NAN
    }
}

/// The convergence-test reference norm of `b` in the norm the test uses:
/// `‖b‖`, `‖M⁻¹b‖` or `√(b, M⁻¹b)` — matching the residual norm on the
/// other side of `‖·‖ < rtol·ref` (the PETSc convention; the paper's §VI-E
/// formula abbreviates the right-hand side to `‖b‖`). One PC application
/// and one blocking allreduce at setup.
pub(crate) fn global_ref_norm<C: Context>(
    ctx: &mut C,
    b: &[f64],
    opts: &crate::solver::SolveOptions,
) -> f64 {
    let mut ub = ctx.alloc_vec();
    ctx.pc_apply(b, &mut ub);
    let bb = ctx.local_dot(b, b);
    let uu = ctx.local_dot(&ub, &ub);
    let bu = ctx.local_dot(b, &ub);
    let red = ctx.allreduce(&[bb, uu, bu]);
    match opts.ref_norm {
        crate::solver::RefNorm::PlainB => norm_from_sq(red[0]),
        crate::solver::RefNorm::Matched => norm_from_sq(opts.norm.pick_sq(red[0], red[1], red[2])),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn method_names_match_the_paper() {
        assert_eq!(MethodKind::PipePscg.name(), "PIPE-PsCG");
        assert_eq!(MethodKind::PipecgOati.name(), "PIPECG-OATI");
        assert_eq!(MethodKind::figure_set().len(), 7);
    }

    #[test]
    fn norm_from_sq_keeps_poison_and_clamps_rounding() {
        for poisoned in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert!(norm_from_sq(poisoned).is_nan(), "{poisoned}");
        }
        assert_eq!(norm_from_sq(-1e-300).to_bits(), 0.0f64.to_bits());
        assert_eq!(norm_from_sq(4.0), 2.0);
    }
}
