//! Seeded synthetic surrogates for the SuiteSparse matrices used in the
//! paper's Table II and Figure 2.
//!
//! The reproduction environment has no access to the SuiteSparse collection,
//! so each matrix is replaced by a generator that matches the properties the
//! experiments depend on — dimension, nonzeros per row, symmetry, positive
//! definiteness and a Laplacian-like spectrum (slow CG convergence at tight
//! tolerances). See DESIGN.md §2 for the substitution rationale.
//!
//! | paper matrix | N (paper) | nnz (paper) | surrogate |
//! |---|---|---|---|
//! | ecology2  |   999 999 |  4 995 991 | 2-D 5-pt anisotropic diffusion, 999 × 1001 grid (exact N; nnz within 4 entries) |
//! | thermal2  | 1 228 045 |  8 580 313 | 3-D 7-pt heterogeneous thermal problem, 107³ grid (N within 0.3 %) |
//! | Serena    | 1 391 349 | 64 131 971 | 3-D 44-neighbour wide-stencil heterogeneous operator, 112×112×111 grid (N within 0.1 %, nnz within 3 %) |
//!
//! ecology2 genuinely *is* a 5-point grid operator (circuit-theory model of
//! animal movement on a 999 × 1001 landscape raster), so that surrogate is
//! structurally exact. thermal2 (unstructured FEM, steady-state thermal) and
//! Serena (gas-reservoir structural mechanics) are emulated with heterogeneous
//! coefficient fields: log-uniform cellwise conductivities for thermal2 and a
//! layered, high-contrast field for Serena.

use crate::csr::{check_index_width, CsrMatrix};
use crate::error::SparseError;
use crate::rng::SplitMix64;
use crate::stencil::{self, Grid3};

/// Which surrogate to generate; carries the paper's reference metadata.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Surrogate {
    /// ecology2: 999 999 unknowns, 4 995 991 nonzeros.
    Ecology2,
    /// thermal2: 1 228 045 unknowns, 8 580 313 nonzeros.
    Thermal2,
    /// Serena: 1 391 349 unknowns, 64 131 971 nonzeros.
    Serena,
}

impl Surrogate {
    /// The paper's name for the matrix.
    pub fn name(self) -> &'static str {
        match self {
            Surrogate::Ecology2 => "ecology2",
            Surrogate::Thermal2 => "thermal2",
            Surrogate::Serena => "Serena",
        }
    }

    /// Dimension reported in the paper's Table II.
    pub fn paper_n(self) -> usize {
        match self {
            Surrogate::Ecology2 => 999_999,
            Surrogate::Thermal2 => 1_228_045,
            Surrogate::Serena => 1_391_349,
        }
    }

    /// Nonzeros reported in the paper's Table II.
    pub fn paper_nnz(self) -> usize {
        match self {
            Surrogate::Ecology2 => 4_995_991,
            Surrogate::Thermal2 => 8_580_313,
            Surrogate::Serena => 64_131_971,
        }
    }

    /// Generates the surrogate at full (paper) scale.
    #[expect(clippy::expect_used, reason = "generate_scaled accepts scale 1.0")]
    pub fn generate(self) -> CsrMatrix {
        self.generate_scaled(1.0)
            .expect("scale 1.0 is always valid")
    }

    /// Generates the surrogate with each grid extent scaled by
    /// `scale.cbrt()` (3-D) or `scale.sqrt()` (2-D), so `scale = 0.1` gives
    /// roughly a tenth of the unknowns. Used by tests and quick benchmark
    /// runs; `scale = 1.0` reproduces the table above.
    ///
    /// A scale outside `(0, 1]` (including NaN) is a typed error, not a
    /// panic — the scale often arrives from CLI flags or config files.
    pub fn generate_scaled(self, scale: f64) -> Result<CsrMatrix, SparseError> {
        if !(scale > 0.0 && scale <= 1.0) {
            return Err(SparseError::InvalidArgument(format!(
                "surrogate scale must be in (0, 1], got {scale}"
            )));
        }
        match self {
            Surrogate::Ecology2 => {
                let f = scale.sqrt();
                let nx = ((999.0 * f).round() as usize).max(3);
                let ny = ((1001.0 * f).round() as usize).max(3);
                ecology2_like(nx, ny)
            }
            Surrogate::Thermal2 => {
                let f = scale.cbrt();
                let n = ((107.0 * f).round() as usize).max(3);
                thermal2_like(Grid3::cube(n), 0x7e41)
            }
            Surrogate::Serena => {
                let f = scale.cbrt();
                let nx = ((112.0 * f).round() as usize).max(5);
                let nz = ((111.0 * f).round() as usize).max(5);
                serena_like(Grid3::new(nx, nx, nz), 0x5e4e4a)
            }
        }
    }
}

/// ecology2 surrogate: anisotropic 2-D 5-point diffusion. The mild (4:1)
/// anisotropy slows CG convergence under Jacobi the way the real landscape
/// resistances do. Like its siblings, fails with
/// [`SparseError::InvalidArgument`] — before allocating anything — when the
/// grid has more points than the `u32` column index can address.
pub fn ecology2_like(nx: usize, ny: usize) -> Result<CsrMatrix, SparseError> {
    check_index_width(nx.saturating_mul(ny))?;
    Ok(stencil::poisson2d_5pt(nx, ny, 1.0, 0.25))
}

/// thermal2 surrogate: 3-D 7-point operator with log-uniform cellwise
/// conductivities spanning three orders of magnitude.
pub fn thermal2_like(grid: Grid3, seed: u64) -> Result<CsrMatrix, SparseError> {
    check_index_width(grid.len())?;
    let mut rng = SplitMix64::new(seed);
    let coeff: Vec<f64> = (0..grid.len())
        .map(|_| {
            let e = rng.uniform(-1.5, 1.5);
            10f64.powf(e)
        })
        .collect();
    Ok(stencil::poisson3d_7pt(grid, Some(&coeff)))
}

/// Serena surrogate: wide (44-neighbour) stencil with a layered
/// high-contrast coefficient field — stiff layers alternating with soft ones
/// along z, plus pointwise jitter, mimicking a reservoir's rock strata.
pub fn serena_like(grid: Grid3, seed: u64) -> Result<CsrMatrix, SparseError> {
    check_index_width(grid.len())?;
    let mut rng = SplitMix64::new(seed);
    let mut coeff = vec![0.0f64; grid.len()];
    for z in 0..grid.nz {
        // Layers of ~7 cells; stiffness contrast 1e3 between layer types.
        let layer_stiff = if (z / 7) % 3 == 0 { 1e3 } else { 1.0 };
        for y in 0..grid.ny {
            for x in 0..grid.nx {
                let jitter = rng.uniform(0.5, 2.0);
                coeff[grid.idx(x, y, z)] = layer_stiff * jitter;
            }
        }
    }
    Ok(stencil::assemble(
        grid,
        &stencil::wide_stencil_3d(),
        Some(&coeff),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ecology2_full_scale_counts_match_paper() {
        // Structure only — build at full scale is ~5M nnz, fast enough.
        let a = ecology2_like(999, 1001).unwrap();
        assert_eq!(a.nrows(), Surrogate::Ecology2.paper_n());
        // The real ecology2 drops 4 entries relative to a pure 5-pt grid
        // operator; the surrogate is within 4 of the paper's 4 995 991.
        let diff = a.nnz().abs_diff(Surrogate::Ecology2.paper_nnz());
        assert!(
            diff <= 4,
            "nnz {} vs paper {}",
            a.nnz(),
            Surrogate::Ecology2.paper_nnz()
        );
    }

    #[test]
    fn scaled_surrogates_are_spd_certified() {
        for s in [Surrogate::Ecology2, Surrogate::Thermal2, Surrogate::Serena] {
            let a = s.generate_scaled(0.001).unwrap();
            assert!(a.is_symmetric(1e-11), "{} not symmetric", s.name());
            assert!(a.is_diagonally_dominant(), "{} not dominant", s.name());
        }
    }

    #[test]
    fn out_of_range_scale_is_a_typed_error_not_a_panic() {
        for bad in [0.0, -0.5, 1.5, f64::NAN, f64::INFINITY] {
            let e = Surrogate::Ecology2.generate_scaled(bad).unwrap_err();
            assert!(
                matches!(e, SparseError::InvalidArgument(_)),
                "scale {bad}: got {e:?}"
            );
        }
    }

    #[test]
    fn grids_past_u32_points_are_a_typed_error_before_any_allocation() {
        let side = 1usize << 16; // side² = u32::MAX + 1 points
        let errs = [
            ecology2_like(side, side).unwrap_err(),
            thermal2_like(Grid3::new(side, side, 1), 1).unwrap_err(),
            serena_like(Grid3::new(side, side, 1), 1).unwrap_err(),
        ];
        for e in errs {
            assert!(matches!(e, SparseError::InvalidArgument(_)), "got {e:?}");
        }
    }

    #[test]
    fn thermal2_is_seeded_deterministic() {
        let g = Grid3::cube(6);
        let a = thermal2_like(g, 42).unwrap();
        let b = thermal2_like(g, 42).unwrap();
        let c = thermal2_like(g, 43).unwrap();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn serena_nnz_per_row_near_45() {
        let a = serena_like(Grid3::new(14, 14, 14), 7).unwrap();
        // Interior rows have 44 neighbours + diagonal.
        let per_row = a.avg_nnz_per_row();
        assert!(per_row > 30.0 && per_row <= 45.0, "avg nnz/row = {per_row}");
    }

    #[test]
    fn paper_metadata_is_consistent() {
        assert_eq!(Surrogate::Ecology2.name(), "ecology2");
        assert!(Surrogate::Serena.paper_nnz() > Surrogate::Thermal2.paper_nnz());
    }
}
