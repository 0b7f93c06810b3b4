//! Pointwise Jacobi (diagonal) preconditioning — the paper's default
//! (`"We use Jacobi Preconditioner in all preconditioned variants unless
//! stated otherwise"`, §VI-A).

use pscg_sparse::op::{ApplyCost, Operator};
use pscg_sparse::CsrMatrix;

/// `M⁻¹ = diag(A)⁻¹`.
///
/// Supports the demoted fp32 apply of the kernel tier (DESIGN.md §12): on
/// [`Operator::demote_precision`] the inverse diagonal is rounded to f32
/// once and the pointwise apply runs in f32, reading 4 bytes of diagonal
/// per row instead of 8. The fp64 diagonal is kept, so promotion restores
/// the exact original operator. Demotion itself never fails — if an entry
/// overflows f32 (ill-conditioned diagonal) the apply produces non-finite
/// values that the solver's breakdown guard and drift probe catch, which
/// is precisely the fallback ladder this knob is gated by.
#[derive(Debug, Clone)]
pub struct Jacobi {
    inv_diag: Vec<f64>,
    /// fp32 copy of `inv_diag`, built lazily on first demotion.
    inv_diag_f32: Vec<f32>,
    fp32: bool,
}

impl Jacobi {
    /// Builds from the diagonal of `a`; every diagonal entry must be
    /// nonzero (SPD matrices have positive diagonals).
    pub fn new(a: &CsrMatrix) -> Self {
        let diag = a.diagonal();
        assert!(
            diag.iter().all(|&d| d != 0.0),
            "Jacobi preconditioner needs a zero-free diagonal"
        );
        Jacobi::from_inv_diag(diag.iter().map(|d| 1.0 / d).collect())
    }

    /// Builds directly from an inverse-diagonal vector (used by the
    /// distributed engine, which slices the diagonal per rank).
    pub fn from_inv_diag(inv_diag: Vec<f64>) -> Self {
        Jacobi {
            inv_diag,
            inv_diag_f32: Vec::new(),
            fp32: false,
        }
    }

    /// The stored inverse diagonal.
    pub fn inv_diag(&self) -> &[f64] {
        &self.inv_diag
    }
}

impl Operator for Jacobi {
    fn nrows(&self) -> usize {
        self.inv_diag.len()
    }

    fn apply(&mut self, x: &[f64], y: &mut [f64]) {
        if self.fp32 {
            pscg_sparse::kernels::hadamard_f32(&self.inv_diag_f32, x, y);
        } else {
            pscg_sparse::kernels::hadamard(&self.inv_diag, x, y);
        }
    }

    fn cost(&self) -> ApplyCost {
        ApplyCost {
            flops_per_row: 1.0,
            // Demoted: 4 B diagonal + 8 B in + 8 B out per row.
            bytes_per_row: if self.fp32 { 20.0 } else { 24.0 },
            comm_rounds: 0,
        }
    }

    fn name(&self) -> &str {
        if self.fp32 {
            "Jacobi-fp32"
        } else {
            "Jacobi"
        }
    }

    fn demote_precision(&mut self) -> bool {
        if self.inv_diag_f32.is_empty() && !self.inv_diag.is_empty() {
            self.inv_diag_f32 = self.inv_diag.iter().map(|&d| d as f32).collect();
        }
        self.fp32 = true;
        true
    }

    fn promote_precision(&mut self) {
        self.fp32 = false;
    }

    fn is_demoted(&self) -> bool {
        self.fp32
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{richardson, small_poisson};

    #[test]
    fn applies_inverse_diagonal() {
        let (a, _) = small_poisson();
        let mut j = Jacobi::new(&a);
        let n = a.nrows();
        let d = a.diagonal();
        let x = vec![2.0; n];
        let mut y = vec![0.0; n];
        j.apply(&x, &mut y);
        for i in 0..n {
            assert!((y[i] - 2.0 / d[i]).abs() < 1e-15);
        }
    }

    #[test]
    fn jacobi_richardson_contracts() {
        let (a, _) = small_poisson();
        let mut j = Jacobi::new(&a);
        let (r0, r1) = richardson(&a, &mut j, 30);
        assert!(r1 < 0.5 * r0, "r0 = {r0}, r30 = {r1}");
    }

    #[test]
    #[should_panic(expected = "zero-free diagonal")]
    fn rejects_zero_diagonal() {
        // 2x2 with a structural zero on the diagonal.
        let a = CsrMatrix::from_raw_parts(2, 2, vec![0, 1, 2], vec![1, 0], vec![1.0, 1.0]).unwrap();
        let _ = Jacobi::new(&a);
    }

    #[test]
    fn cost_is_local() {
        let (a, _) = small_poisson();
        assert_eq!(Jacobi::new(&a).cost().comm_rounds, 0);
    }
}
