//! Preconditioners for the PIPE-PsCG reproduction.
//!
//! The paper's experiments use four PETSc preconditioners: Jacobi (the
//! default in Figures 1–3), and SOR, MG and GAMG for the preconditioner
//! study of Figure 4. Each preconditioner here implements
//! [`pscg_sparse::Operator`], i.e. it is both the numerical application
//! `u = M⁻¹ r` and a *cost declaration* (flops/bytes per row and
//! halo-equivalent communication rounds) consumed by the machine-model
//! replay — so Figure 4's "computational intensity of the preconditioner"
//! axis is driven by the real per-apply work of each method.
//!
//! * [`Jacobi`] — pointwise diagonal scaling; no communication.
//! * [`Ssor`] — symmetric successive over-relaxation sweeps. PETSc's
//!   `PCSOR` default relaxes processor-locally; under the global sim engine
//!   this is the one-block (exact) variant.
//! * [`Ic0`] — zero-fill incomplete Cholesky (extension beyond the paper's
//!   four preconditioners).
//! * [`BlockJacobi`] — exact diagonal-block solves, PETSc's parallel
//!   default (extension).
//! * [`multigrid`] — a V-cycle engine with two setup paths:
//!   [`multigrid::gmg`] (geometric: grid-hierarchy interpolation, the `MG`
//!   stand-in) and [`multigrid::gamg`] (smoothed aggregation, the `GAMG`
//!   stand-in). Both build Galerkin coarse operators `PᵀAP`.

#![warn(missing_docs)]
#![allow(clippy::needless_range_loop, reason = "indexing shows the row layout")]
#![cfg_attr(test, allow(clippy::float_cmp, reason = "tests compare exact bits"))]

pub mod block_jacobi;
pub mod ic0;
pub mod jacobi;
pub mod multigrid;
pub mod sor;

pub use block_jacobi::BlockJacobi;
pub use ic0::Ic0;
pub use jacobi::Jacobi;
pub use multigrid::Multigrid;
pub use sor::Ssor;

use pscg_sparse::op::Operator;
use pscg_sparse::stencil::Grid3;
use pscg_sparse::CsrMatrix;

/// Preconditioner selector used by examples and the benchmark harness.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PcKind {
    /// No preconditioning.
    None,
    /// Pointwise Jacobi.
    Jacobi,
    /// Symmetric SOR (ω = 1).
    Sor,
    /// Geometric multigrid (needs a grid).
    Mg,
    /// Smoothed-aggregation algebraic multigrid.
    Gamg,
}

impl PcKind {
    /// Display name matching the paper's figures.
    pub fn name(self) -> &'static str {
        match self {
            PcKind::None => "none",
            PcKind::Jacobi => "Jacobi",
            PcKind::Sor => "SOR",
            PcKind::Mg => "MG",
            PcKind::Gamg => "GAMG",
        }
    }

    /// Builds the preconditioner for `a` (with `grid` available for the
    /// geometric path; GAMG is used when no grid is given for `Mg`).
    pub fn build<'a>(self, a: &'a CsrMatrix, grid: Option<Grid3>) -> Box<dyn Operator + 'a> {
        match self {
            PcKind::None => Box::new(pscg_sparse::IdentityOp::new(a.nrows())),
            PcKind::Jacobi => Box::new(Jacobi::new(a)),
            PcKind::Sor => Box::new(Ssor::new(a, 1.0)),
            PcKind::Mg => match grid {
                Some(g) => Box::new(multigrid::gmg(a, g)),
                None => Box::new(multigrid::gamg(a)),
            },
            PcKind::Gamg => Box::new(multigrid::gamg(a)),
        }
    }
}

#[cfg(test)]
pub(crate) mod testutil {
    use pscg_sparse::stencil::{poisson3d_7pt, Grid3};
    use pscg_sparse::CsrMatrix;

    /// Small SPD test problem.
    pub fn small_poisson() -> (CsrMatrix, Grid3) {
        let g = Grid3::cube(6);
        (poisson3d_7pt(g, None), g)
    }

    /// Runs preconditioned Richardson iteration and returns the initial and
    /// final residual norms; any sane SPD preconditioner scaled like M ≈ A
    /// contracts the residual.
    pub fn richardson(
        a: &CsrMatrix,
        m: &mut dyn pscg_sparse::Operator,
        steps: usize,
    ) -> (f64, f64) {
        let n = a.nrows();
        let xstar: Vec<f64> = (0..n)
            .map(|i| ((i * 7919 % 101) as f64 - 50.0) / 50.0)
            .collect();
        let b = a.mul_vec(&xstar);
        let mut x = vec![0.0; n];
        let mut r = b.clone();
        let mut u = vec![0.0; n];
        let r0 = pscg_sparse::kernels::norm2(&r);
        for _ in 0..steps {
            m.apply(&r, &mut u);
            for (xi, ui) in x.iter_mut().zip(&u) {
                *xi += ui;
            }
            let ax = a.mul_vec(&x);
            for ((ri, &bi), &axi) in r.iter_mut().zip(&b).zip(&ax) {
                *ri = bi - axi;
            }
        }
        (r0, pscg_sparse::kernels::norm2(&r))
    }
}
