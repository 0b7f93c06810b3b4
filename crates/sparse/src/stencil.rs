//! Structured-grid operators: the paper's 125-point 3-D Poisson problem and
//! friends.
//!
//! The evaluation problem of the paper is "the Poisson differential equation
//! on a regular 3D grid discretized with a 125-point stencil" (§VI-A). A
//! 125-point stencil couples each grid point to the full 5×5×5 cube around it
//! (radius-2 box). We build the operator as a symmetric M-matrix:
//!
//! * off-diagonal weight for offset `(dx,dy,dz)`: `-c / (dx²+dy²+dz²)`,
//! * diagonal: the sum of **all** stencil weights, including those cut off by
//!   the boundary (homogeneous Dirichlet conditions),
//!
//! which is symmetric positive definite (weakly diagonally dominant with
//! strict dominance on boundary rows, and irreducible). The same generator
//! with radius 1 yields the 27-point stencil; dedicated generators provide
//! the classic 7-point (3-D) and 5-point (2-D) Laplacians, with optional
//! per-cell coefficient fields for the heterogeneous surrogate problems.
//!
//! Generation writes CSR arrays directly — neighbours enumerated in
//! `(dz, dy, dx)` lexicographic order have strictly increasing linear column
//! indices, so no sort is needed. This matters at the paper's scale: the
//! 125-pt operator on 100³ has ~1.2·10⁸ stored entries.

use crate::csr::{check_index_width, CsrMatrix};

/// A regular 3-D grid with lexicographic ordering: `idx = x + nx·(y + ny·z)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Grid3 {
    /// Points along x (fastest-varying index).
    pub nx: usize,
    /// Points along y.
    pub ny: usize,
    /// Points along z (slowest-varying index).
    pub nz: usize,
}

impl Grid3 {
    /// Creates a grid; all extents must be positive.
    pub fn new(nx: usize, ny: usize, nz: usize) -> Self {
        assert!(
            nx > 0 && ny > 0 && nz > 0,
            "Grid3: extents must be positive"
        );
        Grid3 { nx, ny, nz }
    }

    /// A cubic grid `n × n × n`.
    pub fn cube(n: usize) -> Self {
        Grid3::new(n, n, n)
    }

    /// Total number of grid points.
    pub fn len(&self) -> usize {
        self.nx * self.ny * self.nz
    }

    /// True for a degenerate grid (never constructible via `new`).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Linear index of `(x, y, z)`.
    #[inline]
    pub fn idx(&self, x: usize, y: usize, z: usize) -> usize {
        debug_assert!(x < self.nx && y < self.ny && z < self.nz);
        x + self.nx * (y + self.ny * z)
    }

    /// Inverse of [`Grid3::idx`].
    #[inline]
    pub fn coords(&self, idx: usize) -> (usize, usize, usize) {
        let x = idx % self.nx;
        let y = (idx / self.nx) % self.ny;
        let z = idx / (self.nx * self.ny);
        (x, y, z)
    }
}

/// A stencil offset with its (positive) coupling weight.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StencilEntry {
    /// Offset along x.
    pub dx: i64,
    /// Offset along y.
    pub dy: i64,
    /// Offset along z.
    pub dz: i64,
    /// Positive coupling strength; enters the matrix as `-w` off-diagonal.
    pub w: f64,
}

/// Builds the offset list of a radius-`r` box stencil (`(2r+1)³ − 1`
/// neighbours) with inverse-square-distance weights, sorted so the generated
/// column indices are increasing.
pub fn box_stencil(radius: i64) -> Vec<StencilEntry> {
    assert!(radius >= 1, "box_stencil: radius must be >= 1");
    let mut offsets = Vec::new();
    for dz in -radius..=radius {
        for dy in -radius..=radius {
            for dx in -radius..=radius {
                if dx == 0 && dy == 0 && dz == 0 {
                    continue;
                }
                let d2 = (dx * dx + dy * dy + dz * dz) as f64;
                offsets.push(StencilEntry {
                    dx,
                    dy,
                    dz,
                    w: 1.0 / d2,
                });
            }
        }
    }
    offsets
}

/// The 7-point (face-neighbour) stencil with unit weights — the classic
/// second-order finite-difference Laplacian.
pub fn face_stencil_3d() -> Vec<StencilEntry> {
    vec![
        StencilEntry {
            dx: 0,
            dy: 0,
            dz: -1,
            w: 1.0,
        },
        StencilEntry {
            dx: 0,
            dy: -1,
            dz: 0,
            w: 1.0,
        },
        StencilEntry {
            dx: -1,
            dy: 0,
            dz: 0,
            w: 1.0,
        },
        StencilEntry {
            dx: 1,
            dy: 0,
            dz: 0,
            w: 1.0,
        },
        StencilEntry {
            dx: 0,
            dy: 1,
            dz: 0,
            w: 1.0,
        },
        StencilEntry {
            dx: 0,
            dy: 0,
            dz: 1,
            w: 1.0,
        },
    ]
}

/// The Serena-surrogate stencil: the 26 box neighbours plus the 6 distance-2
/// face neighbours plus the 12 in-plane `(±2, ±2, 0)`-type neighbours — 44
/// off-diagonals, giving ≈45 nnz/row to match Serena's ~46 (see DESIGN.md).
pub fn wide_stencil_3d() -> Vec<StencilEntry> {
    let mut offsets = box_stencil(1);
    for axis in 0..3 {
        for sign in [-2i64, 2] {
            let (mut dx, mut dy, mut dz) = (0, 0, 0);
            match axis {
                0 => dx = sign,
                1 => dy = sign,
                _ => dz = sign,
            }
            offsets.push(StencilEntry {
                dx,
                dy,
                dz,
                w: 0.25,
            });
        }
    }
    for &(a, b) in &[(2i64, 2i64), (2, -2), (-2, 2), (-2, -2)] {
        offsets.push(StencilEntry {
            dx: a,
            dy: b,
            dz: 0,
            w: 0.125,
        });
        offsets.push(StencilEntry {
            dx: a,
            dy: 0,
            dz: b,
            w: 0.125,
        });
        offsets.push(StencilEntry {
            dx: 0,
            dy: a,
            dz: b,
            w: 0.125,
        });
    }
    sort_offsets(&mut offsets);
    offsets
}

/// Sorts offsets into `(dz, dy, dx)` lexicographic order so generated column
/// indices increase within every row.
pub fn sort_offsets(offsets: &mut [StencilEntry]) {
    offsets.sort_by_key(|e| (e.dz, e.dy, e.dx));
}

/// Assembles the SPD operator for `stencil` on `grid` with homogeneous
/// Dirichlet boundary conditions and an optional per-point coefficient field
/// `coeff` (length `grid.len()`, all positive).
///
/// Assembly is edge-based, as in finite-volume discretisations: the edge
/// `(i, j)` contributes `w · hmean(cᵢ, cⱼ)` (harmonic mean keeps symmetry)
/// to both diagonals and `−w · hmean(cᵢ, cⱼ)` to both off-diagonals, and an
/// edge leaving the domain contributes `w · cᵢ` to the diagonal only
/// (Dirichlet). The result is a sum of positive-semidefinite edge matrices
/// plus a positive boundary term, hence SPD, with the conditioning of a
/// Laplacian (κ = Θ(h⁻²)) rather than a shifted operator.
///
/// # Panics
/// When the grid has more than `u32::MAX` points (the CSR column index
/// type) — checked before anything is allocated.
#[expect(clippy::expect_used, reason = "assembly emits valid CSR by design")]
pub fn assemble(grid: Grid3, stencil: &[StencilEntry], coeff: Option<&[f64]>) -> CsrMatrix {
    let n = grid.len();
    assert!(
        check_index_width(n).is_ok(),
        "assemble: {n} grid points exceed the u32 column index"
    );
    if let Some(c) = coeff {
        assert_eq!(c.len(), n, "assemble: coefficient field length mismatch");
    }
    debug_assert!(
        stencil
            .windows(2)
            .all(|w| (w[0].dz, w[0].dy, w[0].dx) < (w[1].dz, w[1].dy, w[1].dx)),
        "assemble: stencil offsets must be sorted by (dz, dy, dx)"
    );

    let (nx, ny, nz) = (grid.nx as i64, grid.ny as i64, grid.nz as i64);
    // Count nnz per row first so the CSR arrays are allocated exactly once.
    let mut row_ptr = vec![0usize; n + 1];
    for z in 0..nz {
        for y in 0..ny {
            for x in 0..nx {
                let mut cnt = 1usize; // diagonal
                for e in stencil {
                    let (xx, yy, zz) = (x + e.dx, y + e.dy, z + e.dz);
                    if xx >= 0 && xx < nx && yy >= 0 && yy < ny && zz >= 0 && zz < nz {
                        cnt += 1;
                    }
                }
                let r = (x + nx * (y + ny * z)) as usize;
                row_ptr[r + 1] = cnt;
            }
        }
    }
    for i in 0..n {
        row_ptr[i + 1] += row_ptr[i];
    }
    let nnz = row_ptr[n];
    let mut col_idx = vec![0u32; nnz];
    let mut vals = vec![0.0f64; nnz];

    let hmean = |a: f64, b: f64| 2.0 * a * b / (a + b);

    for z in 0..nz {
        for y in 0..ny {
            for x in 0..nx {
                let r = (x + nx * (y + ny * z)) as usize;
                let ci = coeff.map_or(1.0, |c| c[r]);
                let mut k = row_ptr[r];
                let mut diag = 0.0;
                let mut diag_slot = usize::MAX;
                for e in stencil {
                    let (xx, yy, zz) = (x + e.dx, y + e.dy, z + e.dz);
                    if !(xx >= 0 && xx < nx && yy >= 0 && yy < ny && zz >= 0 && zz < nz) {
                        // Edge leaves the domain: Dirichlet boundary term.
                        diag += e.w * ci;
                        continue;
                    }
                    let c = (xx + nx * (yy + ny * zz)) as usize;
                    if diag_slot == usize::MAX && c > r {
                        diag_slot = k;
                        k += 1;
                    }
                    let cj = coeff.map_or(1.0, |cc| cc[c]);
                    let w = e.w * hmean(ci, cj);
                    diag += w;
                    col_idx[k] = c as u32;
                    vals[k] = -w;
                    k += 1;
                }
                if diag_slot == usize::MAX {
                    diag_slot = k;
                    k += 1;
                }
                col_idx[diag_slot] = r as u32;
                vals[diag_slot] = diag;
                debug_assert_eq!(k, row_ptr[r + 1]);
            }
        }
    }

    CsrMatrix::from_raw_parts(n, n, row_ptr, col_idx, vals)
        .expect("stencil assembly produced invalid CSR")
}

/// The paper's evaluation operator: 3-D Poisson, 125-point (radius-2 box)
/// stencil, homogeneous Dirichlet boundary.
pub fn poisson3d_125pt(grid: Grid3) -> CsrMatrix {
    assemble(grid, &box_stencil(2), None)
}

/// 3-D Poisson with the 27-point (radius-1 box) stencil.
pub fn poisson3d_27pt(grid: Grid3) -> CsrMatrix {
    assemble(grid, &box_stencil(1), None)
}

/// 3-D Poisson with the classic 7-point stencil, optional coefficients.
pub fn poisson3d_7pt(grid: Grid3, coeff: Option<&[f64]>) -> CsrMatrix {
    assemble(grid, &face_stencil_3d(), coeff)
}

/// 2-D Poisson with the 5-point stencil on an `nx × ny` grid, with anisotropy
/// `(ax, ay)` — the ecology2 surrogate shape.
pub fn poisson2d_5pt(nx: usize, ny: usize, ax: f64, ay: f64) -> CsrMatrix {
    let grid = Grid3::new(nx, ny, 1);
    let stencil = vec![
        StencilEntry {
            dx: 0,
            dy: -1,
            dz: 0,
            w: ay,
        },
        StencilEntry {
            dx: -1,
            dy: 0,
            dz: 0,
            w: ax,
        },
        StencilEntry {
            dx: 1,
            dy: 0,
            dz: 0,
            w: ax,
        },
        StencilEntry {
            dx: 0,
            dy: 1,
            dz: 0,
            w: ay,
        },
    ];
    assemble(grid, &stencil, None)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_indexing_roundtrips() {
        let g = Grid3::new(3, 4, 5);
        for i in 0..g.len() {
            let (x, y, z) = g.coords(i);
            assert_eq!(g.idx(x, y, z), i);
        }
    }

    #[test]
    fn box_stencil_sizes() {
        assert_eq!(box_stencil(1).len(), 26);
        assert_eq!(box_stencil(2).len(), 124);
        assert_eq!(wide_stencil_3d().len(), 44);
    }

    #[test]
    fn poisson125_interior_row_has_125_entries() {
        let g = Grid3::cube(7);
        let a = poisson3d_125pt(g);
        let center = g.idx(3, 3, 3);
        assert_eq!(a.row_cols(center).len(), 125);
        // Corner rows lose the out-of-domain couplings.
        assert_eq!(a.row_cols(g.idx(0, 0, 0)).len(), 27);
    }

    #[test]
    fn assembled_operator_is_spd_certified() {
        let a = poisson3d_125pt(Grid3::cube(5));
        assert!(a.is_symmetric(1e-14));
        assert!(a.is_diagonally_dominant());
        let b = poisson3d_7pt(Grid3::new(4, 3, 2), None);
        assert!(b.is_symmetric(1e-14));
        assert!(b.is_diagonally_dominant());
    }

    #[test]
    fn heterogeneous_coefficients_keep_symmetry() {
        let g = Grid3::new(4, 4, 3);
        let coeff: Vec<f64> = (0..g.len()).map(|i| 0.5 + (i % 7) as f64).collect();
        let a = poisson3d_7pt(g, Some(&coeff));
        assert!(a.is_symmetric(1e-13));
        assert!(a.is_diagonally_dominant());
    }

    #[test]
    fn poisson2d_5pt_matches_classic_laplacian_structure() {
        let a = poisson2d_5pt(3, 3, 1.0, 1.0);
        // Interior node (1,1) couples to its 4 face neighbours.
        assert_eq!(a.row_cols(4), &[1, 3, 4, 5, 7]);
        assert_eq!(a.get(4, 4), 4.0); // classic [-1 -1 4 -1 -1] row
        assert_eq!(a.get(4, 1), -1.0);
        assert!(a.is_symmetric(0.0));
    }

    #[test]
    fn dirichlet_diagonal_strictly_dominates_on_boundary() {
        let a = poisson2d_5pt(3, 3, 1.0, 1.0);
        // Corner row: diagonal 8.0, off-diagonal sum 2.0.
        let r = 0;
        let offsum: f64 = a
            .row_cols(r)
            .iter()
            .zip(a.row_vals(r))
            .filter(|(&c, _)| c as usize != r)
            .map(|(_, v)| v.abs())
            .sum();
        assert!(a.get(r, r) > offsum);
    }

    #[test]
    fn spmv_on_constant_vector_vanishes_in_interior() {
        // Row sums of a Dirichlet Laplacian are zero in the interior and
        // positive on the boundary.
        let g = Grid3::cube(5);
        let a = poisson3d_7pt(g, None);
        let y = a.mul_vec(&vec![1.0; g.len()]);
        let interior = g.idx(2, 2, 2);
        let corner = g.idx(0, 0, 0);
        assert!(y[interior].abs() < 1e-14);
        assert!(y[corner] > 0.0);
    }
}
