//! Small dense matrices and LU factorisation for the s-step "Scalar Work".
//!
//! Every iteration of the s-step methods solves two `s × s` linear systems
//! (for the β-matrix and the α-vector; paper §III, Algorithm 2 line 7). The
//! systems are tiny (`s ≤ ~8`), so a straightforward partially pivoted LU is
//! both fast and robust here.

use crate::error::SparseError;

/// A dense row-major matrix, sized for the `s × s` scalar work.
#[derive(Debug, Clone, PartialEq)]
pub struct DenseMatrix {
    nrows: usize,
    ncols: usize,
    data: Vec<f64>,
}

impl DenseMatrix {
    /// A zero `nrows × ncols` matrix.
    pub fn zeros(nrows: usize, ncols: usize) -> Self {
        DenseMatrix {
            nrows,
            ncols,
            data: vec![0.0; nrows * ncols],
        }
    }

    /// The `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = DenseMatrix::zeros(n, n);
        for i in 0..n {
            m.set(i, i, 1.0);
        }
        m
    }

    /// Builds a matrix from row slices.
    pub fn from_rows(rows: &[&[f64]]) -> Self {
        assert!(!rows.is_empty());
        let ncols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * ncols);
        for r in rows {
            assert_eq!(r.len(), ncols, "from_rows: ragged rows");
            data.extend_from_slice(r);
        }
        DenseMatrix {
            nrows: rows.len(),
            ncols,
            data,
        }
    }

    /// Number of rows.
    #[inline]
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Number of columns.
    #[inline]
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// Entry `(r, c)`.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f64 {
        debug_assert!(r < self.nrows && c < self.ncols);
        self.data[r * self.ncols + c]
    }

    /// Sets entry `(r, c)`.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f64) {
        debug_assert!(r < self.nrows && c < self.ncols);
        self.data[r * self.ncols + c] = v;
    }

    /// Adds `v` to entry `(r, c)`.
    #[inline]
    pub fn add(&mut self, r: usize, c: usize, v: f64) {
        debug_assert!(r < self.nrows && c < self.ncols);
        self.data[r * self.ncols + c] += v;
    }

    /// Underlying row-major storage.
    #[inline]
    pub fn data(&self) -> &[f64] {
        &self.data
    }

    /// Mutable row-major storage.
    #[inline]
    pub fn data_mut(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Matrix product `self · other`.
    pub fn matmul(&self, other: &DenseMatrix) -> DenseMatrix {
        let mut out = DenseMatrix::zeros(self.nrows, other.ncols);
        self.matmul_into(other, &mut out);
        out
    }

    /// [`DenseMatrix::matmul`] into an existing `nrows × other.ncols`
    /// matrix.
    pub fn matmul_into(&self, other: &DenseMatrix, out: &mut DenseMatrix) {
        assert_eq!(self.ncols, other.nrows, "matmul: inner dimension mismatch");
        assert_eq!(
            (out.nrows, out.ncols),
            (self.nrows, other.ncols),
            "matmul: output shape"
        );
        out.data.fill(0.0);
        for i in 0..self.nrows {
            for k in 0..self.ncols {
                let a = self.get(i, k);
                // pscg-lint: allow(float-eq, exact sparsity skip; only a stored zero is skippable)
                if a == 0.0 {
                    continue;
                }
                for j in 0..other.ncols {
                    out.add(i, j, a * other.get(k, j));
                }
            }
        }
    }

    /// Matrix–vector product `self · v`.
    pub fn matvec(&self, v: &[f64]) -> Vec<f64> {
        let mut out = vec![0.0; self.nrows];
        self.matvec_into(v, &mut out);
        out
    }

    /// [`DenseMatrix::matvec`] into an existing vector of `nrows` entries.
    pub fn matvec_into(&self, v: &[f64], out: &mut [f64]) {
        assert_eq!(v.len(), self.ncols, "matvec: dimension mismatch");
        assert_eq!(out.len(), self.nrows, "matvec: output length");
        for (i, o) in out.iter_mut().enumerate() {
            let row = &self.data[i * self.ncols..(i + 1) * self.ncols];
            *o = crate::kernels::dot(row, v);
        }
    }

    /// Transpose.
    pub fn transpose(&self) -> DenseMatrix {
        let mut out = DenseMatrix::zeros(self.ncols, self.nrows);
        self.transpose_into(&mut out);
        out
    }

    /// [`DenseMatrix::transpose`] into an existing `ncols × nrows` matrix.
    pub fn transpose_into(&self, out: &mut DenseMatrix) {
        assert_eq!(
            (out.nrows, out.ncols),
            (self.ncols, self.nrows),
            "transpose: output shape"
        );
        for i in 0..self.nrows {
            for j in 0..self.ncols {
                out.set(j, i, self.get(i, j));
            }
        }
    }

    /// `self + other`.
    pub fn add_mat(&self, other: &DenseMatrix) -> DenseMatrix {
        let mut out = self.clone();
        out.add_assign(other);
        out
    }

    /// `self += other`.
    pub fn add_assign(&mut self, other: &DenseMatrix) {
        assert_eq!(self.nrows, other.nrows);
        assert_eq!(self.ncols, other.ncols);
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += b;
        }
    }

    /// Overwrites `self` with `other` (same shape).
    pub fn copy_from(&mut self, other: &DenseMatrix) {
        assert_eq!(
            (self.nrows, self.ncols),
            (other.nrows, other.ncols),
            "copy_from: shape mismatch"
        );
        self.data.copy_from_slice(&other.data);
    }

    /// In-place scale by `s`.
    pub fn scale(&mut self, s: f64) {
        for v in &mut self.data {
            *v *= s;
        }
    }

    /// Symmetrises in place: `self ← (self + selfᵀ)/2` (square only).
    /// Used on Gram matrices that are symmetric in exact arithmetic.
    pub fn symmetrize(&mut self) {
        assert_eq!(self.nrows, self.ncols);
        for i in 0..self.nrows {
            for j in (i + 1)..self.ncols {
                let avg = 0.5 * (self.get(i, j) + self.get(j, i));
                self.set(i, j, avg);
                self.set(j, i, avg);
            }
        }
    }

    /// LU factorisation with partial pivoting.
    pub fn lu(&self) -> Result<LuFactors, SparseError> {
        if self.nrows != self.ncols {
            return Err(SparseError::NotSquare {
                nrows: self.nrows,
                ncols: self.ncols,
            });
        }
        let n = self.nrows;
        let mut lu = self.data.clone();
        let mut piv: Vec<usize> = (0..n).collect();
        for k in 0..n {
            // Pivot search down column k.
            let mut p = k;
            let mut best = lu[k * n + k].abs();
            for r in (k + 1)..n {
                let v = lu[r * n + k].abs();
                if v > best {
                    best = v;
                    p = r;
                }
            }
            // pscg-lint: allow(float-eq, an exactly-zero pivot is the singularity being excluded)
            if best == 0.0 || !best.is_finite() {
                return Err(SparseError::SingularMatrix { pivot: k });
            }
            if p != k {
                for c in 0..n {
                    lu.swap(k * n + c, p * n + c);
                }
                piv.swap(k, p);
            }
            let pivot = lu[k * n + k];
            for r in (k + 1)..n {
                let factor = lu[r * n + k] / pivot;
                lu[r * n + k] = factor;
                for c in (k + 1)..n {
                    lu[r * n + c] -= factor * lu[k * n + c];
                }
            }
        }
        Ok(LuFactors { n, lu, piv })
    }

    /// Solves `self · x = b` via LU; convenience for one-shot solves.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>, SparseError> {
        Ok(self.lu()?.solve(b))
    }

    /// Solves `self · X = B` column by column.
    pub fn solve_mat(&self, b: &DenseMatrix) -> Result<DenseMatrix, SparseError> {
        let f = self.lu()?;
        let mut out = DenseMatrix::zeros(self.nrows, b.ncols);
        let mut col = vec![0.0; self.nrows];
        for j in 0..b.ncols {
            for i in 0..self.nrows {
                col[i] = b.get(i, j);
            }
            let x = f.solve(&col);
            for i in 0..self.nrows {
                out.set(i, j, x[i]);
            }
        }
        Ok(out)
    }

    /// Frobenius norm.
    pub fn frobenius(&self) -> f64 {
        crate::kernels::norm2(&self.data)
    }

    /// Symmetric eigendecomposition by the cyclic Jacobi rotation method:
    /// returns `(eigenvalues, V)` with `self = V · diag(λ) · Vᵀ` (V's
    /// columns are the eigenvectors). Intended for the small (`s × s`)
    /// matrices of the s-step scalar work, where it enables rank-revealing
    /// pseudo-inverse solves when the Krylov basis is deficient.
    pub fn sym_eig(&self) -> (Vec<f64>, DenseMatrix) {
        let n = self.nrows;
        let (mut a, mut v, mut lam) = (self.clone(), DenseMatrix::zeros(n, n), vec![0.0; n]);
        self.sym_eig_into(&mut a, &mut v, &mut lam);
        (lam, v)
    }

    /// [`DenseMatrix::sym_eig`] without allocating: `a` is `n × n` work
    /// space, `v` receives the eigenvectors and `lam` the eigenvalues.
    pub fn sym_eig_into(&self, a: &mut DenseMatrix, v: &mut DenseMatrix, lam: &mut [f64]) {
        assert_eq!(self.nrows, self.ncols, "sym_eig needs a square matrix");
        let n = self.nrows;
        assert_eq!(lam.len(), n, "sym_eig: eigenvalue length");
        a.copy_from(self);
        assert_eq!((v.nrows, v.ncols), (n, n), "sym_eig: eigenvector shape");
        v.data.fill(0.0);
        for i in 0..n {
            v.set(i, i, 1.0);
        }
        for _sweep in 0..64 {
            let mut off = 0.0;
            for p in 0..n {
                for q in (p + 1)..n {
                    off += a.get(p, q).abs();
                }
            }
            if off < 1e-300 || off < 1e-15 * a.frobenius() {
                break;
            }
            for p in 0..n {
                for q in (p + 1)..n {
                    let apq = a.get(p, q);
                    if apq.abs() < 1e-300 {
                        continue;
                    }
                    // Classic Jacobi rotation annihilating a_pq.
                    let theta = (a.get(q, q) - a.get(p, p)) / (2.0 * apq);
                    let t = theta.signum() / (theta.abs() + (theta * theta + 1.0).sqrt());
                    let c = 1.0 / (t * t + 1.0).sqrt();
                    let s = t * c;
                    for k in 0..n {
                        let akp = a.get(k, p);
                        let akq = a.get(k, q);
                        a.set(k, p, c * akp - s * akq);
                        a.set(k, q, s * akp + c * akq);
                    }
                    for k in 0..n {
                        let apk = a.get(p, k);
                        let aqk = a.get(q, k);
                        a.set(p, k, c * apk - s * aqk);
                        a.set(q, k, s * apk + c * aqk);
                    }
                    for k in 0..n {
                        let vkp = v.get(k, p);
                        let vkq = v.get(k, q);
                        v.set(k, p, c * vkp - s * vkq);
                        v.set(k, q, s * vkp + c * vkq);
                    }
                }
            }
        }
        for (i, l) in lam.iter_mut().enumerate() {
            *l = a.get(i, i);
        }
    }
}

/// LU factors `P·A = L·U` produced by [`DenseMatrix::lu`].
#[derive(Debug, Clone)]
pub struct LuFactors {
    n: usize,
    lu: Vec<f64>,
    piv: Vec<usize>,
}

impl LuFactors {
    /// Solves `A x = b`.
    pub fn solve(&self, b: &[f64]) -> Vec<f64> {
        let mut x = vec![0.0; self.n];
        self.solve_into(b, &mut x);
        x
    }

    /// Solves `A x = b` into `x` without allocating (`x` must not alias
    /// `b`); [`Self::solve`] is this into a fresh vector.
    pub fn solve_into(&self, b: &[f64], x: &mut [f64]) {
        assert_eq!(b.len(), self.n, "LuFactors::solve_into: dimension mismatch");
        assert_eq!(x.len(), self.n, "LuFactors::solve_into: dimension mismatch");
        let n = self.n;
        // Apply the row permutation, then forward/back substitution.
        for (xi, &p) in x.iter_mut().zip(&self.piv) {
            *xi = b[p];
        }
        for i in 1..n {
            let mut acc = x[i];
            for k in 0..i {
                acc -= self.lu[i * n + k] * x[k];
            }
            x[i] = acc;
        }
        for i in (0..n).rev() {
            let mut acc = x[i];
            for k in (i + 1)..n {
                acc -= self.lu[i * n + k] * x[k];
            }
            x[i] = acc / self.lu[i * n + i];
        }
    }

    /// Order of the factorised matrix.
    pub fn order(&self) -> usize {
        self.n
    }

    /// Demotes the factors to fp32 storage (see [`LuFactorsF32`]).
    pub fn to_f32(&self) -> LuFactorsF32 {
        LuFactorsF32 {
            n: self.n,
            lu: self.lu.iter().map(|&v| v as f32).collect(),
            piv: self.piv.clone(),
        }
    }
}

/// fp32 copy of [`LuFactors`] for the demoted preconditioner apply: the
/// triangular solves run entirely in f32 (the right-hand side is rounded on
/// entry, the result widened on exit), halving factor traffic. Same
/// substitution order as [`LuFactors::solve`], so the result is a
/// deterministic function of the inputs.
#[derive(Debug, Clone)]
pub struct LuFactorsF32 {
    n: usize,
    lu: Vec<f32>,
    piv: Vec<usize>,
}

impl LuFactorsF32 {
    /// Solves `A x ≈ b` in f32 arithmetic, widening into `out`.
    pub fn solve_into(&self, b: &[f64], out: &mut [f64]) {
        assert_eq!(b.len(), self.n, "LuFactorsF32::solve_into: dimension");
        assert_eq!(out.len(), self.n, "LuFactorsF32::solve_into: dimension");
        let n = self.n;
        let mut x: Vec<f32> = self.piv.iter().map(|&p| b[p] as f32).collect();
        for i in 1..n {
            let mut acc = x[i];
            for k in 0..i {
                acc -= self.lu[i * n + k] * x[k];
            }
            x[i] = acc;
        }
        for i in (0..n).rev() {
            let mut acc = x[i];
            for k in (i + 1)..n {
                acc -= self.lu[i * n + k] * x[k];
            }
            x[i] = acc / self.lu[i * n + i];
        }
        for (o, v) in out.iter_mut().zip(&x) {
            *o = f64::from(*v);
        }
    }

    /// Order of the factorised matrix.
    pub fn order(&self) -> usize {
        self.n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lu_solves_known_system() {
        let a = DenseMatrix::from_rows(&[&[2.0, 1.0], &[1.0, 3.0]]);
        let x = a.solve(&[5.0, 10.0]).unwrap();
        assert!((x[0] - 1.0).abs() < 1e-12);
        assert!((x[1] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn lu_pivots_when_needed() {
        // Leading zero forces a row swap.
        let a = DenseMatrix::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]);
        let x = a.solve(&[3.0, 7.0]).unwrap();
        assert_eq!(x, vec![7.0, 3.0]);
    }

    /// The allocating solve as it was before `solve_into` existed.
    fn solve_reference(f: &LuFactors, b: &[f64]) -> Vec<f64> {
        let n = f.n;
        let mut x: Vec<f64> = f.piv.iter().map(|&p| b[p]).collect();
        for i in 1..n {
            let mut acc = x[i];
            for k in 0..i {
                acc -= f.lu[i * n + k] * x[k];
            }
            x[i] = acc;
        }
        for i in (0..n).rev() {
            let mut acc = x[i];
            for k in (i + 1)..n {
                acc -= f.lu[i * n + k] * x[k];
            }
            x[i] = acc / f.lu[i * n + i];
        }
        x
    }

    #[test]
    fn solve_into_is_bitwise_the_allocating_solve() {
        // Small diagonal, larger off-diagonals: partial pivoting reorders
        // most rows.
        let n = 27;
        let mut a = DenseMatrix::zeros(n, n);
        for i in 0..n {
            for j in 0..n {
                let v = if i == j {
                    0.01 * (i + 1) as f64
                } else {
                    ((i * 7 + j * 13) % 17) as f64 - 8.0 + 0.1 * (i as f64).sqrt()
                };
                a.set(i, j, v);
            }
        }
        let f = a.lu().unwrap();
        assert!(
            f.piv.iter().enumerate().filter(|&(i, &p)| i != p).count() > n / 2,
            "the system must pivot"
        );
        let inputs: [Vec<f64>; 3] = [
            (0..n).map(|i| ((i * 31 % 11) as f64 - 5.0) / 3.0).collect(),
            vec![-0.0; n],
            (0..n)
                .map(|i| if i < 9 { -0.0 } else { 1.0 / (i as f64) })
                .collect(),
        ];
        for b in &inputs {
            let want = solve_reference(&f, b);
            let mut got = vec![f64::NAN; n];
            f.solve_into(b, &mut got);
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&got), bits(&want));
            assert_eq!(bits(&f.solve(b)), bits(&want));
        }
    }

    #[test]
    fn lu_detects_singularity() {
        let a = DenseMatrix::from_rows(&[&[1.0, 2.0], &[2.0, 4.0]]);
        assert!(matches!(a.lu(), Err(SparseError::SingularMatrix { .. })));
    }

    #[test]
    fn lu_rejects_rectangular() {
        let a = DenseMatrix::zeros(2, 3);
        assert!(matches!(a.lu(), Err(SparseError::NotSquare { .. })));
    }

    #[test]
    fn matmul_and_transpose() {
        let a = DenseMatrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = DenseMatrix::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]);
        let ab = a.matmul(&b);
        assert_eq!(ab.get(0, 0), 2.0);
        assert_eq!(ab.get(0, 1), 1.0);
        assert_eq!(ab.get(1, 0), 4.0);
        assert_eq!(ab.get(1, 1), 3.0);
        assert_eq!(a.transpose().get(0, 1), 3.0);
    }

    #[test]
    fn solve_mat_solves_all_columns() {
        let a = DenseMatrix::from_rows(&[&[4.0, 1.0], &[1.0, 3.0]]);
        let b = DenseMatrix::from_rows(&[&[1.0, 0.0], &[0.0, 1.0]]);
        let inv = a.solve_mat(&b).unwrap();
        let prod = a.matmul(&inv);
        for i in 0..2 {
            for j in 0..2 {
                let expect = if i == j { 1.0 } else { 0.0 };
                assert!((prod.get(i, j) - expect).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn symmetrize_averages() {
        let mut a = DenseMatrix::from_rows(&[&[1.0, 2.0], &[4.0, 1.0]]);
        a.symmetrize();
        assert_eq!(a.get(0, 1), 3.0);
        assert_eq!(a.get(1, 0), 3.0);
    }

    #[test]
    fn matvec_matches_manual() {
        let a = DenseMatrix::from_rows(&[&[1.0, 2.0, 3.0], &[0.0, 1.0, -1.0]]);
        assert_eq!(a.matvec(&[1.0, 1.0, 1.0]), vec![6.0, 0.0]);
    }

    #[test]
    fn sym_eig_recovers_known_spectrum() {
        // [[2, 1], [1, 2]] has eigenvalues 1 and 3.
        let a = DenseMatrix::from_rows(&[&[2.0, 1.0], &[1.0, 2.0]]);
        let (mut lam, _v) = a.sym_eig();
        lam.sort_by(|x, y| x.partial_cmp(y).unwrap());
        assert!((lam[0] - 1.0).abs() < 1e-12);
        assert!((lam[1] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn sym_eig_reconstructs_the_matrix() {
        let a = DenseMatrix::from_rows(&[&[4.0, 1.0, -2.0], &[1.0, 3.0, 0.5], &[-2.0, 0.5, 5.0]]);
        let (lam, v) = a.sym_eig();
        // A == V diag(lam) V^T
        let mut recon = DenseMatrix::zeros(3, 3);
        for i in 0..3 {
            for j in 0..3 {
                let mut acc = 0.0;
                for (k, &l) in lam.iter().enumerate() {
                    acc += v.get(i, k) * l * v.get(j, k);
                }
                recon.set(i, j, acc);
            }
        }
        for i in 0..3 {
            for j in 0..3 {
                assert!((recon.get(i, j) - a.get(i, j)).abs() < 1e-10);
            }
        }
        // Eigenvectors are orthonormal.
        let vtv = v.transpose().matmul(&v);
        for i in 0..3 {
            for j in 0..3 {
                let expect = if i == j { 1.0 } else { 0.0 };
                assert!((vtv.get(i, j) - expect).abs() < 1e-10);
            }
        }
    }

    #[test]
    fn sym_eig_handles_rank_deficiency() {
        // Rank-1 matrix: one eigenvalue n, the rest 0.
        let a = DenseMatrix::from_rows(&[&[1.0, 1.0], &[1.0, 1.0]]);
        let (mut lam, _) = a.sym_eig();
        lam.sort_by(|x, y| x.partial_cmp(y).unwrap());
        assert!(lam[0].abs() < 1e-14);
        assert!((lam[1] - 2.0).abs() < 1e-12);
    }
}
