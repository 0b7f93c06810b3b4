//! Zero-fill incomplete Cholesky preconditioning, `IC(0)`.
//!
//! Factorises `A ≈ L·Lᵀ` keeping only the sparsity pattern of `A`'s lower
//! triangle; applying `M⁻¹ = (LLᵀ)⁻¹` is a forward and a backward triangular
//! sweep. A classic mid-strength preconditioner sitting between SSOR and
//! multigrid in the paper's "computational intensity of the PC" axis —
//! provided here as an extension beyond the paper's four (its cost profile
//! slots straight into the Figure 4 style study).

use pscg_sparse::op::{ApplyCost, Operator};
use pscg_sparse::{CsrMatrix, SparseError};

/// IC(0) preconditioner.
pub struct Ic0 {
    /// Lower-triangular factor (same pattern as `tril(A)`), CSR.
    l: CsrMatrix,
    /// Diagonal of `L` (extracted for the sweeps).
    diag: Vec<f64>,
    scratch: Vec<f64>,
}

impl Ic0 {
    /// Computes the IC(0) factorisation. Fails on a non-positive pivot —
    /// IC(0) of a general SPD matrix can break down; diagonally dominant
    /// matrices (all the operators in this repository) are safe.
    pub fn new(a: &CsrMatrix) -> Result<Self, SparseError> {
        let n = a.nrows();
        if a.nrows() != a.ncols() {
            return Err(SparseError::NotSquare {
                nrows: a.nrows(),
                ncols: a.ncols(),
            });
        }
        // Build the lower-triangle pattern of A in CSR.
        let mut row_ptr = vec![0usize; n + 1];
        for r in 0..n {
            let cnt = a.row_cols(r).iter().filter(|&&c| c as usize <= r).count();
            row_ptr[r + 1] = row_ptr[r] + cnt;
        }
        let nnz = row_ptr[n];
        let mut col_idx = vec![0u32; nnz];
        let mut vals = vec![0.0f64; nnz];
        for r in 0..n {
            let mut k = row_ptr[r];
            for (j, &c) in a.row_cols(r).iter().enumerate() {
                if c as usize <= r {
                    col_idx[k] = c;
                    vals[k] = a.row_vals(r)[j];
                    k += 1;
                }
            }
        }
        // Up-looking IC(0): for each row r, update against previous rows
        // restricted to the fixed pattern.
        let mut diag = vec![0.0f64; n];
        for r in 0..n {
            let (lo, hi) = (row_ptr[r], row_ptr[r + 1]);
            debug_assert!(
                hi > lo && col_idx[hi - 1] as usize == r,
                "SPD matrix has a full diagonal"
            );
            for k in lo..hi {
                let c = col_idx[k] as usize;
                // vals[k] -= sum_{j<c, j in pattern of both rows} L[r,j]*L[c,j]
                let mut acc = vals[k];
                let (clo, chi) = (row_ptr[c], row_ptr[c + 1]);
                let mut i1 = lo;
                let mut i2 = clo;
                while i1 < k && i2 + 1 < chi {
                    let (c1, c2) = (col_idx[i1], col_idx[i2]);
                    if c2 as usize >= c {
                        break;
                    }
                    match c1.cmp(&c2) {
                        std::cmp::Ordering::Less => i1 += 1,
                        std::cmp::Ordering::Greater => i2 += 1,
                        std::cmp::Ordering::Equal => {
                            acc -= vals[i1] * vals[i2];
                            i1 += 1;
                            i2 += 1;
                        }
                    }
                }
                if c == r {
                    if acc <= 0.0 {
                        return Err(SparseError::SingularMatrix { pivot: r });
                    }
                    let d = acc.sqrt();
                    vals[k] = d;
                    diag[r] = d;
                } else {
                    vals[k] = acc / diag[c];
                }
            }
        }
        let l = CsrMatrix::from_raw_parts(n, n, row_ptr, col_idx, vals)?;
        Ok(Ic0 {
            l,
            diag,
            scratch: vec![0.0; n],
        })
    }

    /// The lower-triangular factor.
    pub fn factor(&self) -> &CsrMatrix {
        &self.l
    }
}

impl Operator for Ic0 {
    fn nrows(&self) -> usize {
        self.l.nrows()
    }

    fn apply(&mut self, r: &[f64], u: &mut [f64]) {
        let n = self.l.nrows();
        let z = &mut self.scratch;
        // Forward solve L z = r.
        for i in 0..n {
            let mut acc = r[i];
            let cols = self.l.row_cols(i);
            let vals = self.l.row_vals(i);
            for (k, &c) in cols.iter().enumerate() {
                let c = c as usize;
                if c < i {
                    acc -= vals[k] * z[c];
                }
            }
            z[i] = acc / self.diag[i];
        }
        // Backward solve Lᵀ u = z (column sweep over L's rows).
        u.copy_from_slice(z);
        for i in (0..n).rev() {
            u[i] /= self.diag[i];
            let ui = u[i];
            let cols = self.l.row_cols(i);
            let vals = self.l.row_vals(i);
            for (k, &c) in cols.iter().enumerate() {
                let c = c as usize;
                if c < i {
                    u[c] -= vals[k] * ui;
                }
            }
        }
    }

    fn cost(&self) -> ApplyCost {
        let per_row = self.l.avg_nnz_per_row();
        ApplyCost {
            flops_per_row: 4.0 * per_row + 2.0,
            bytes_per_row: 32.0 * per_row + 32.0,
            comm_rounds: 0,
        }
    }

    fn name(&self) -> &str {
        "IC0"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{richardson, small_poisson};

    #[test]
    fn ic0_of_diagonal_matrix_is_exact() {
        let a =
            CsrMatrix::from_raw_parts(3, 3, vec![0, 1, 2, 3], vec![0, 1, 2], vec![4.0, 9.0, 16.0])
                .unwrap();
        let mut m = Ic0::new(&a).unwrap();
        let r = [4.0, 9.0, 16.0];
        let mut u = [0.0; 3];
        m.apply(&r, &mut u);
        assert_eq!(u, [1.0, 1.0, 1.0]);
    }

    #[test]
    fn ic0_is_exact_cholesky_on_tridiagonal() {
        // IC(0) on a tridiagonal matrix has no dropped fill: M == A.
        let n = 8;
        let mut coo = pscg_sparse::CooMatrix::new(n, n);
        for i in 0..n {
            coo.push(i, i, 4.0).unwrap();
            if i + 1 < n {
                coo.push_sym(i, i + 1, -1.0).unwrap();
            }
        }
        let a = coo.to_csr().unwrap();
        let mut m = Ic0::new(&a).unwrap();
        // M^{-1} A x == x
        let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.4).sin()).collect();
        let ax = a.mul_vec(&x);
        let mut y = vec![0.0; n];
        m.apply(&ax, &mut y);
        for i in 0..n {
            assert!((y[i] - x[i]).abs() < 1e-12, "row {i}: {} vs {}", y[i], x[i]);
        }
    }

    #[test]
    fn ic0_contracts_faster_than_ssor() {
        let (a, _) = small_poisson();
        let mut ic = Ic0::new(&a).unwrap();
        let mut sor = crate::Ssor::new(&a, 1.0);
        let (_, ric) = richardson(&a, &mut ic, 10);
        let (_, rsor) = richardson(&a, &mut sor, 10);
        assert!(
            ric <= rsor * 1.5,
            "IC(0) {ric} should be competitive with SSOR {rsor}"
        );
    }

    #[test]
    fn ic0_apply_is_symmetric() {
        let (a, _) = small_poisson();
        let mut m = Ic0::new(&a).unwrap();
        let n = a.nrows();
        let x: Vec<f64> = (0..n).map(|i| ((i * 17 % 13) as f64) - 6.0).collect();
        let y: Vec<f64> = (0..n).map(|i| ((i * 7 % 11) as f64) - 5.0).collect();
        let mut mx = vec![0.0; n];
        let mut my = vec![0.0; n];
        m.apply(&x, &mut mx);
        m.apply(&y, &mut my);
        let lhs = pscg_sparse::kernels::dot(&mx, &y);
        let rhs = pscg_sparse::kernels::dot(&x, &my);
        assert!((lhs - rhs).abs() < 1e-10 * lhs.abs().max(1.0));
    }

    #[test]
    fn rejects_rectangular() {
        let a = CsrMatrix::from_raw_parts(1, 2, vec![0, 1], vec![0], vec![1.0]).unwrap();
        assert!(Ic0::new(&a).is_err());
    }
}
