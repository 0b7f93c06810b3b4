//! Symmetric successive over-relaxation preconditioning (PETSc `PCSOR`).
//!
//! With `A = L + D + U` (strict lower, diagonal, strict upper) and
//! relaxation factor `ω`, the SSOR preconditioner is
//!
//! ```text
//! M = (D/ω + L) · (ω/(2−ω)) D⁻¹ · (D/ω + U)
//! ```
//!
//! Applying `M⁻¹ r` is a forward triangular sweep, a diagonal scaling, and a
//! backward sweep — roughly two SpMV-equivalents of work per application,
//! which is what makes SOR "computationally intensive" relative to Jacobi in
//! the paper's Figure 4 discussion. PETSc's default relaxes processor-
//! locally (no communication); the global engines here apply the one-block
//! exact variant.

use pscg_sparse::op::{ApplyCost, Operator};
use pscg_sparse::CsrMatrix;

/// SSOR preconditioner with factor `ω ∈ (0, 2)`.
pub struct Ssor {
    a: CsrMatrix,
    diag: Vec<f64>,
    omega: f64,
    scratch: Vec<f64>,
}

impl Ssor {
    /// Builds from `a` (kept as a copy; sweeps need row access).
    pub fn new(a: &CsrMatrix, omega: f64) -> Self {
        assert!(omega > 0.0 && omega < 2.0, "SSOR requires 0 < omega < 2");
        let diag = a.diagonal();
        assert!(
            diag.iter().all(|&d| d > 0.0),
            "SSOR requires a positive diagonal"
        );
        Ssor {
            a: a.clone(),
            diag,
            omega,
            scratch: vec![0.0; a.nrows()],
        }
    }
}

impl Operator for Ssor {
    fn nrows(&self) -> usize {
        self.a.nrows()
    }

    fn apply(&mut self, r: &[f64], u: &mut [f64]) {
        let n = self.a.nrows();
        let w = self.omega;
        let z = &mut self.scratch;
        // Forward sweep: (D/ω + L) z = r.
        for i in 0..n {
            let mut acc = r[i];
            for (k, &c) in self.a.row_cols(i).iter().enumerate() {
                let c = c as usize;
                if c < i {
                    acc -= self.a.row_vals(i)[k] * z[c];
                }
            }
            z[i] = acc * w / self.diag[i];
        }
        // Diagonal scaling: z ← ((2−ω)/ω) · D · z.
        let scale = (2.0 - w) / w;
        for i in 0..n {
            z[i] *= scale * self.diag[i];
        }
        // Backward sweep: (D/ω + U) u = z.
        for i in (0..n).rev() {
            let mut acc = z[i];
            for (k, &c) in self.a.row_cols(i).iter().enumerate() {
                let c = c as usize;
                if c > i {
                    acc -= self.a.row_vals(i)[k] * u[c];
                }
            }
            u[i] = acc * w / self.diag[i];
        }
    }

    fn cost(&self) -> ApplyCost {
        // Two triangular sweeps stream the whole matrix once each.
        let per_row = self.a.avg_nnz_per_row();
        ApplyCost {
            flops_per_row: 4.0 * per_row + 6.0,
            bytes_per_row: 32.0 * per_row + 48.0,
            comm_rounds: 0,
        }
    }

    fn name(&self) -> &str {
        "SOR"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{richardson, small_poisson};

    #[test]
    fn ssor_of_diagonal_matrix_is_exact_inverse() {
        // For a diagonal matrix and ω = 1, M = D, so M⁻¹ r = r / d.
        let a =
            CsrMatrix::from_raw_parts(3, 3, vec![0, 1, 2, 3], vec![0, 1, 2], vec![2.0, 4.0, 8.0])
                .unwrap();
        let mut m = Ssor::new(&a, 1.0);
        let r = [2.0, 4.0, 8.0];
        let mut u = [0.0; 3];
        m.apply(&r, &mut u);
        assert_eq!(u, [1.0, 1.0, 1.0]);
    }

    #[test]
    fn ssor_solves_triangular_systems_consistently() {
        // Verify M u = r by reconstructing M x for the computed u:
        // M = (D+L) D^{-1} (D+U) at omega = 1.
        let (a, _) = small_poisson();
        let n = a.nrows();
        let mut m = Ssor::new(&a, 1.0);
        let r: Vec<f64> = (0..n).map(|i| ((i % 13) as f64) - 6.0).collect();
        let mut u = vec![0.0; n];
        m.apply(&r, &mut u);
        let d = a.diagonal();
        // t = (D+U) u
        let mut t = vec![0.0; n];
        for i in 0..n {
            let mut acc = d[i] * u[i];
            for (k, &c) in a.row_cols(i).iter().enumerate() {
                let c = c as usize;
                if c > i {
                    acc += a.row_vals(i)[k] * u[c];
                }
            }
            t[i] = acc;
        }
        // s = D^{-1} t ; Mu = (D+L) s
        let mut mu = vec![0.0; n];
        for i in 0..n {
            let mut acc = d[i] * (t[i] / d[i]);
            for (k, &c) in a.row_cols(i).iter().enumerate() {
                let c = c as usize;
                if c < i {
                    acc += a.row_vals(i)[k] * (t[c] / d[c]);
                }
            }
            mu[i] = acc;
        }
        for i in 0..n {
            assert!(
                (mu[i] - r[i]).abs() < 1e-10,
                "row {i}: {} vs {}",
                mu[i],
                r[i]
            );
        }
    }

    #[test]
    fn ssor_richardson_contracts_faster_than_jacobi() {
        let (a, _) = small_poisson();
        let mut s = Ssor::new(&a, 1.0);
        let mut j = crate::Jacobi::new(&a);
        let (_, rs) = richardson(&a, &mut s, 10);
        let (_, rj) = richardson(&a, &mut j, 10);
        assert!(rs < rj, "SSOR {rs} should beat Jacobi {rj}");
    }

    #[test]
    fn ssor_cost_exceeds_jacobi_cost() {
        let (a, _) = small_poisson();
        let s = Ssor::new(&a, 1.0);
        let j = crate::Jacobi::new(&a);
        assert!(s.cost().flops_per_row > j.cost().flops_per_row);
    }

    #[test]
    #[should_panic(expected = "0 < omega < 2")]
    fn rejects_bad_omega() {
        let (a, _) = small_poisson();
        let _ = Ssor::new(&a, 2.5);
    }
}
