//! Compressed sparse row matrices and the SpMV kernel.

use std::sync::OnceLock;

use pscg_par::{DisjointMut, Pool};

use crate::error::SparseError;

/// A sparse matrix in compressed sparse row format.
///
/// Invariants (checked by [`CsrMatrix::from_raw_parts`]):
/// `row_ptr.len() == nrows + 1`, `row_ptr\[0\] == 0`, `row_ptr` is
/// non-decreasing, `col_idx.len() == vals.len() == row_ptr[nrows]`,
/// `ncols <= u32::MAX`, and column indices within each row are strictly
/// increasing and `< ncols`.
///
/// Column indices are `u32`, so the kernel streams 12 B per stored entry
/// (8 B value + 4 B index). This is the one storage format: every SpMV entry
/// point runs the same blocked kernel over these arrays.
#[derive(Debug, Clone)]
pub struct CsrMatrix {
    nrows: usize,
    ncols: usize,
    row_ptr: Vec<usize>,
    col_idx: Vec<u32>,
    vals: Vec<f64>,
    /// nnz-balanced row boundaries for the parallel SpMV, built lazily from
    /// the structure (never the values, so `vals_mut` cannot stale it).
    par_rows: OnceLock<Vec<usize>>,
}

impl PartialEq for CsrMatrix {
    fn eq(&self, other: &Self) -> bool {
        // The cached row partition is derived state, not identity.
        self.nrows == other.nrows
            && self.ncols == other.ncols
            && self.row_ptr == other.row_ptr
            && self.col_idx == other.col_idx
            && self.vals == other.vals
    }
}

/// Rejects a column count the `u32` column index cannot address — the one
/// width check every constructor and reader shares.
pub(crate) fn check_index_width(ncols: usize) -> Result<(), SparseError> {
    if ncols > u32::MAX as usize {
        return Err(SparseError::InvalidArgument(format!(
            "column indices are u32; {ncols} columns exceed u32::MAX"
        )));
    }
    Ok(())
}

/// Rows the CSR kernel walks in lockstep: four independent accumulator
/// chains cover the FP-add latency that bounds a single row's chain. A
/// constant, not a knob — height 8 measured 18 % slower on the 125-point
/// 64³ operator and height 2 17 % slower on the 7-point one (DESIGN.md
/// §12.2).
const BLOCK_ROWS: usize = 4;

/// Entries ahead of the cursor at which the kernel prefetches `vals` and
/// `col_idx` (≈ 8 rows of the 125-point operator). A constant, not a knob
/// — 256 / 512 / 1024 / 2048 entries measured 32.0 / 29.0 / 27.0 /
/// 28.5 ms per 125-point 64³ SpMV (DESIGN.md §12.2).
const PREFETCH_AHEAD: usize = 1024;

/// Hints the cache line at `p` into L1. A hint only: it never faults, so
/// `p` may point past the end of its array.
#[inline(always)]
fn prefetch<T>(p: *const T) {
    #[cfg(all(target_arch = "x86_64", not(miri)))]
    // SAFETY: PREFETCHT0 has no architectural effect and raises no fault
    // on any address; SSE is part of the x86_64 baseline.
    unsafe {
        use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        _mm_prefetch::<_MM_HINT_T0>(p.cast::<i8>());
    }
    #[cfg(not(all(target_arch = "x86_64", not(miri))))]
    let _ = p;
}

/// Row boundaries cutting `row_ptr` into runs of ≈`chunk_nnz` non-zeros:
/// the fixed, thread-count-independent work units of the parallel SpMV.
fn nnz_balanced_rows(row_ptr: &[usize], chunk_nnz: usize) -> Vec<usize> {
    let nrows = row_ptr.len() - 1;
    let chunk_nnz = chunk_nnz.max(1);
    let mut bounds = vec![0usize];
    // `row_ptr` may be a window of a larger matrix, so count from its base.
    let mut start_nnz = row_ptr[0];
    for r in 0..nrows {
        if row_ptr[r + 1] - start_nnz >= chunk_nnz {
            bounds.push(r + 1);
            start_nnz = row_ptr[r + 1];
        }
    }
    // pscg-lint: allow(panic-in-hot-path, bounds starts with the 0 pushed before the loop)
    if *bounds.last().unwrap() != nrows {
        bounds.push(nrows);
    }
    bounds
}

impl CsrMatrix {
    /// Internal constructor: wraps validated arrays with no row partition yet.
    fn assemble(
        nrows: usize,
        ncols: usize,
        row_ptr: Vec<usize>,
        col_idx: Vec<u32>,
        vals: Vec<f64>,
    ) -> Self {
        CsrMatrix {
            nrows,
            ncols,
            row_ptr,
            col_idx,
            vals,
            par_rows: OnceLock::new(),
        }
    }

    /// Builds a CSR matrix from raw arrays, validating all invariants.
    pub fn from_raw_parts(
        nrows: usize,
        ncols: usize,
        row_ptr: Vec<usize>,
        col_idx: Vec<u32>,
        vals: Vec<f64>,
    ) -> Result<Self, SparseError> {
        check_index_width(ncols)?;
        if row_ptr.len() != nrows + 1 {
            return Err(SparseError::InvalidCsr(format!(
                "row_ptr length {} != nrows + 1 = {}",
                row_ptr.len(),
                nrows + 1
            )));
        }
        if row_ptr[0] != 0 {
            return Err(SparseError::InvalidCsr("row_ptr[0] != 0".into()));
        }
        if col_idx.len() != vals.len() {
            return Err(SparseError::InvalidCsr(format!(
                "col_idx length {} != vals length {}",
                col_idx.len(),
                vals.len()
            )));
        }
        // pscg-lint: allow(panic-in-hot-path, row_ptr.len() == nrows + 1 >= 1 was checked just above)
        if *row_ptr.last().unwrap() != col_idx.len() {
            return Err(SparseError::InvalidCsr(format!(
                "row_ptr[nrows] = {} != nnz = {}",
                row_ptr.last().unwrap(), // pscg-lint: allow(panic-in-hot-path, row_ptr.len() == nrows + 1 >= 1 was checked just above)
                col_idx.len()
            )));
        }
        for r in 0..nrows {
            if row_ptr[r] > row_ptr[r + 1] {
                return Err(SparseError::InvalidCsr(format!(
                    "row_ptr decreases at row {r}"
                )));
            }
            let row = &col_idx[row_ptr[r]..row_ptr[r + 1]];
            for w in row.windows(2) {
                if w[0] >= w[1] {
                    return Err(SparseError::InvalidCsr(format!(
                        "columns not strictly increasing in row {r}"
                    )));
                }
            }
            if let Some(&last) = row.last() {
                if last as usize >= ncols {
                    return Err(SparseError::IndexOutOfBounds {
                        row: r,
                        col: last as usize,
                        nrows,
                        ncols,
                    });
                }
            }
        }
        Ok(CsrMatrix::assemble(nrows, ncols, row_ptr, col_idx, vals))
    }

    /// The `n × n` identity matrix.
    ///
    /// # Panics
    /// When `n` exceeds `u32::MAX` (the column index type).
    pub fn identity(n: usize) -> Self {
        let cols = u32::try_from(n).expect("identity: n exceeds the u32 column index"); // pscg-lint: allow(panic-in-hot-path, documented panic of an infallible convenience constructor)
        CsrMatrix::assemble(n, n, (0..=n).collect(), (0..cols).collect(), vec![1.0; n])
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

    /// Number of stored entries.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.vals.len()
    }

    /// Average number of stored entries per row.
    pub fn avg_nnz_per_row(&self) -> f64 {
        if self.nrows == 0 {
            0.0
        } else {
            self.nnz() as f64 / self.nrows as f64
        }
    }

    /// Row-pointer array (`nrows + 1` entries).
    #[inline]
    pub fn row_ptr(&self) -> &[usize] {
        &self.row_ptr
    }

    /// Column indices array.
    #[inline]
    pub fn col_idx(&self) -> &[u32] {
        &self.col_idx
    }

    /// Values array.
    #[inline]
    pub fn vals(&self) -> &[f64] {
        &self.vals
    }

    /// Mutable values array (structure stays fixed). Nothing is derived
    /// from the values, so there is no cached state to invalidate.
    #[inline]
    pub fn vals_mut(&mut self) -> &mut [f64] {
        &mut self.vals
    }

    /// Column indices of row `r`.
    #[inline]
    pub fn row_cols(&self, r: usize) -> &[u32] {
        &self.col_idx[self.row_ptr[r]..self.row_ptr[r + 1]]
    }

    /// Values of row `r`.
    #[inline]
    pub fn row_vals(&self, r: usize) -> &[f64] {
        &self.vals[self.row_ptr[r]..self.row_ptr[r + 1]]
    }

    /// Value at `(r, c)`, or `0.0` if the entry is not stored.
    pub fn get(&self, r: usize, c: usize) -> f64 {
        let Ok(c) = u32::try_from(c) else {
            return 0.0;
        };
        match self.row_cols(r).binary_search(&c) {
            Ok(k) => self.row_vals(r)[k],
            Err(_) => 0.0,
        }
    }

    /// The diagonal as a dense vector (square matrices).
    pub fn diagonal(&self) -> Vec<f64> {
        let n = self.nrows.min(self.ncols);
        (0..n).map(|i| self.get(i, i)).collect()
    }

    /// The cached nnz-balanced row partition driving the parallel SpMV.
    /// Boundaries depend only on the matrix structure and the
    /// [`pscg_par::knobs::spmv_chunk_nnz`] knob — never on the thread count.
    pub fn par_row_bounds(&self) -> &[usize] {
        self.par_rows
            .get_or_init(|| nnz_balanced_rows(&self.row_ptr, pscg_par::knobs::spmv_chunk_nnz()))
    }

    /// Drops the cached row partition so the next SpMV rebuilds it — needed
    /// after changing [`pscg_par::knobs::spmv_chunk_nnz`] (the tuner does).
    pub fn reset_par_rows(&mut self) {
        self.par_rows = OnceLock::new();
    }

    /// Rows `[row_lo, row_hi)` of `y = A x`, one accumulator chain per row
    /// from `0.0` over ascending columns: the bitwise reference of every
    /// kernel test, and the `< BLOCK_ROWS` tail of [`Self::spmv_rows_serial`].
    fn spmv_rows_scalar(&self, row_lo: usize, row_hi: usize, x: &[f64], y: &mut [f64]) {
        for (out, r) in y.iter_mut().zip(row_lo..row_hi) {
            let lo = self.row_ptr[r];
            let hi = self.row_ptr[r + 1];
            let mut acc = 0.0;
            for k in lo..hi {
                acc += self.vals[k] * x[self.col_idx[k] as usize];
            }
            *out = acc;
        }
    }

    /// One term `vals[idx] · x[col_idx[idx]]` of a row chain. On the first
    /// entry of each cache line of `vals` (8 entries) and `col_idx` (16) it
    /// first prefetches the line [`PREFETCH_AHEAD`] entries on; the pointer
    /// is formed with `wrapping_add` because near the end of the arrays
    /// that line lies past them.
    ///
    /// # Safety
    /// `idx < self.nnz()` and `x.len() >= self.ncols`.
    #[inline(always)]
    unsafe fn term(&self, x: &[f64], idx: usize) -> f64 {
        if idx & 7 == 0 {
            prefetch(self.vals.as_ptr().wrapping_add(idx + PREFETCH_AHEAD));
        }
        if idx & 15 == 0 {
            prefetch(self.col_idx.as_ptr().wrapping_add(idx + PREFETCH_AHEAD));
        }
        // SAFETY: `idx < nnz` bounds vals and col_idx (caller contract), and
        // every stored column index is `< ncols <= x.len()` (validated at
        // construction; caller contract). Unchecked because three bounds
        // checks per entry dominate this bandwidth-bound loop.
        unsafe {
            self.vals.get_unchecked(idx)
                * x.get_unchecked(*self.col_idx.get_unchecked(idx) as usize)
        }
    }

    /// Rows `[row_lo, row_hi)` of `y = A x`, serial — the per-chunk kernel.
    ///
    /// A single row's chain runs at FP-add latency (a 125-entry row does
    /// not fit the reorder buffer, so consecutive rows do not overlap), so
    /// [`BLOCK_ROWS`] rows walk their common-length prefix in lockstep with
    /// independent accumulators, then finish their tails one row at a time;
    /// the trailing `< BLOCK_ROWS` rows take the scalar loop. The
    /// stream-ahead prefetch of [`Self::term`] keeps the interleaved row
    /// streams at memory speed. Each row's own chain is still
    /// ascending-column from `0.0` with the product rounded before the add
    /// — bitwise [`Self::spmv_rows_scalar`], whatever the row partition.
    fn spmv_rows_serial(&self, row_lo: usize, row_hi: usize, x: &[f64], y: &mut [f64]) {
        const B: usize = BLOCK_ROWS;
        assert!(x.len() >= self.ncols, "spmv: x shorter than ncols");
        let mut r = row_lo;
        while r + B <= row_hi {
            let mut base = [0usize; B];
            let mut len = [0usize; B];
            let mut min_len = usize::MAX;
            for j in 0..B {
                base[j] = self.row_ptr[r + j];
                len[j] = self.row_ptr[r + j + 1] - base[j];
                min_len = min_len.min(len[j]);
            }
            let mut acc = [0.0f64; B];
            for k in 0..min_len {
                for j in 0..B {
                    // SAFETY: `base[j] + k < row_ptr[r+j+1] <= nnz`, and
                    // `x.len() >= ncols` was asserted above.
                    acc[j] += unsafe { self.term(x, base[j] + k) };
                }
            }
            for j in 0..B {
                for k in min_len..len[j] {
                    // SAFETY: as above.
                    acc[j] += unsafe { self.term(x, base[j] + k) };
                }
                y[r - row_lo + j] = acc[j];
            }
            r += B;
        }
        if r < row_hi {
            self.spmv_rows_scalar(r, row_hi, x, &mut y[r - row_lo..]);
        }
    }

    /// Sparse matrix–vector product `y = A x`.
    ///
    /// The hot loop of every method in the paper: row chunks of the cached
    /// nnz-balanced partition run on the global thread pool, each keeping
    /// the row accumulation in a register and streaming `col_idx`/`vals`
    /// once. Bitwise identical to the serial product at any thread count.
    pub fn spmv(&self, x: &[f64], y: &mut [f64]) {
        self.spmv_with(&pscg_par::global(), x, y)
    }

    /// [`CsrMatrix::spmv`] on an explicit pool (tests and benches).
    pub fn spmv_with(&self, pool: &Pool, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.ncols, "spmv: x length mismatch");
        assert_eq!(y.len(), self.nrows, "spmv: y length mismatch");
        // The serial/parallel decision depends only on the shape, never on
        // the pool width: a 1-lane pool takes the exact same path (inline)
        // with the exact same allocations, so traced runs — whose BufId
        // interning is address-based — stay identical across pool sizes.
        let bounds = self.par_row_bounds();
        let nchunks = bounds.len().saturating_sub(1);
        if nchunks <= 1 {
            self.spmv_rows_serial(0, self.nrows, x, y);
            return;
        }
        let out = DisjointMut::new(y);
        pool.run(nchunks, &|c| {
            let (lo, hi) = (bounds[c], bounds[c + 1]);
            pscg_par::sync_trace::record_read(x, 0, x.len());
            // SAFETY: partition boundaries are strictly increasing, so row
            // ranges (and the y sub-slices) are pairwise disjoint.
            let yy = unsafe { out.range(lo, hi) };
            self.spmv_rows_serial(lo, hi, x, yy);
        });
    }

    /// `y = A x` restricted to rows `[row_lo, row_hi)` — the per-rank SpMV of
    /// the SPMD engine (x is indexed globally).
    pub fn spmv_rows(&self, row_lo: usize, row_hi: usize, x: &[f64], y: &mut [f64]) {
        self.spmv_rows_with(&pscg_par::global(), row_lo, row_hi, x, y)
    }

    /// [`CsrMatrix::spmv_rows`] on an explicit pool. The row window is
    /// re-chunked at the same nnz target, so the result stays bitwise equal
    /// to the serial kernel regardless of window or thread count.
    pub fn spmv_rows_with(
        &self,
        pool: &Pool,
        row_lo: usize,
        row_hi: usize,
        x: &[f64],
        y: &mut [f64],
    ) {
        assert!(row_hi <= self.nrows);
        assert_eq!(y.len(), row_hi - row_lo, "spmv_rows: y length mismatch");
        let window_nnz = self.row_ptr[row_hi] - self.row_ptr[row_lo];
        let chunk_nnz = pscg_par::knobs::spmv_chunk_nnz();
        // Shape-only decision — see `spmv_with` on why the pool width must
        // not influence the code path or its allocations.
        if window_nnz < 2 * chunk_nnz {
            self.spmv_rows_serial(row_lo, row_hi, x, y);
            return;
        }
        let bounds = nnz_balanced_rows(&self.row_ptr[row_lo..=row_hi], chunk_nnz);
        let out = DisjointMut::new(y);
        pool.run(bounds.len() - 1, &|c| {
            let (lo, hi) = (bounds[c], bounds[c + 1]);
            pscg_par::sync_trace::record_read(x, 0, x.len());
            // SAFETY: chunk row ranges are pairwise disjoint.
            let yy = unsafe { out.range(lo, hi) };
            self.spmv_rows_serial(row_lo + lo, row_lo + hi, x, yy);
        });
    }

    /// Allocating convenience wrapper around [`CsrMatrix::spmv`].
    pub fn mul_vec(&self, x: &[f64]) -> Vec<f64> {
        let mut y = vec![0.0; self.nrows];
        self.spmv(x, &mut y);
        y
    }

    /// Explicit transpose.
    ///
    /// # Panics
    /// When `nrows` exceeds `u32::MAX`: rows become the column indices.
    pub fn transpose(&self) -> CsrMatrix {
        assert!(
            check_index_width(self.nrows).is_ok(),
            "transpose: {} rows exceed the u32 column index",
            self.nrows
        );
        let mut cnt = vec![0usize; self.ncols + 1];
        for &c in &self.col_idx {
            cnt[c as usize + 1] += 1;
        }
        for i in 0..self.ncols {
            cnt[i + 1] += cnt[i];
        }
        let row_ptr = cnt.clone();
        let nnz = self.nnz();
        let mut col_idx = vec![0u32; nnz];
        let mut vals = vec![0.0f64; nnz];
        let mut cursor = row_ptr.clone();
        for r in 0..self.nrows {
            for k in self.row_ptr[r]..self.row_ptr[r + 1] {
                let c = self.col_idx[k] as usize;
                let dst = cursor[c];
                col_idx[dst] = r as u32; // fits: nrows <= u32::MAX asserted above
                vals[dst] = self.vals[k];
                cursor[c] += 1;
            }
        }
        // Rows of the transpose are produced in increasing source-row order,
        // so column indices are already sorted.
        CsrMatrix::assemble(self.ncols, self.nrows, row_ptr, col_idx, vals)
    }

    /// Sparse matrix product `self · other`, via a row-merge with a dense
    /// sparse-accumulator over `other.ncols()`. Used to form Galerkin coarse
    /// operators `RAP` in the multigrid preconditioners.
    pub fn matmul(&self, other: &CsrMatrix) -> CsrMatrix {
        assert_eq!(self.ncols, other.nrows, "matmul: inner dimension mismatch");
        let m = other.ncols;
        let mut row_ptr = Vec::with_capacity(self.nrows + 1);
        row_ptr.push(0usize);
        let mut col_idx: Vec<u32> = Vec::new();
        let mut vals: Vec<f64> = Vec::new();
        // Sparse accumulator: value per output column + touched list.
        let mut acc = vec![0.0f64; m];
        let mut mark = vec![false; m];
        let mut touched: Vec<u32> = Vec::new();
        for r in 0..self.nrows {
            touched.clear();
            for k in self.row_ptr[r]..self.row_ptr[r + 1] {
                let a = self.vals[k];
                let krow = self.col_idx[k] as usize;
                for k2 in other.row_ptr[krow]..other.row_ptr[krow + 1] {
                    let c = other.col_idx[k2];
                    let slot = c as usize;
                    if !mark[slot] {
                        mark[slot] = true;
                        touched.push(c);
                        acc[slot] = 0.0;
                    }
                    acc[slot] += a * other.vals[k2];
                }
            }
            touched.sort_unstable();
            for &c in &touched {
                col_idx.push(c);
                vals.push(acc[c as usize]);
                mark[c as usize] = false;
            }
            row_ptr.push(col_idx.len());
        }
        CsrMatrix::assemble(self.nrows, m, row_ptr, col_idx, vals)
    }

    /// Galerkin triple product `Pᵀ · self · P`.
    pub fn rap(&self, p: &CsrMatrix) -> CsrMatrix {
        p.transpose().matmul(&self.matmul(p))
    }

    /// Checks `A == Aᵀ` up to absolute tolerance `tol`.
    pub fn is_symmetric(&self, tol: f64) -> bool {
        if self.nrows != self.ncols {
            return false;
        }
        let t = self.transpose();
        if t.row_ptr != self.row_ptr || t.col_idx != self.col_idx {
            // Structurally unsymmetric entries may still cancel numerically;
            // fall back to a value comparison through `get`.
            for r in 0..self.nrows {
                for (k, &c) in self.row_cols(r).iter().enumerate() {
                    if (self.row_vals(r)[k] - t.get(r, c as usize)).abs() > tol {
                        return false;
                    }
                }
            }
            return true;
        }
        self.vals
            .iter()
            .zip(t.vals.iter())
            .all(|(a, b)| (a - b).abs() <= tol)
    }

    /// Returns `true` if every diagonal entry is positive and every row is
    /// weakly diagonally dominant — a cheap sufficient condition for positive
    /// semidefiniteness of a symmetric matrix (all generated operators here
    /// satisfy it strictly in at least one row, giving SPD).
    pub fn is_diagonally_dominant(&self) -> bool {
        if self.nrows != self.ncols {
            return false;
        }
        for r in 0..self.nrows {
            let mut diag = 0.0;
            let mut off = 0.0;
            for (k, &c) in self.row_cols(r).iter().enumerate() {
                let v = self.row_vals(r)[k];
                if c as usize == r {
                    diag = v;
                } else {
                    off += v.abs();
                }
            }
            if diag <= 0.0 || diag + 1e-12 * diag.abs() < off {
                return false;
            }
        }
        true
    }

    /// Gershgorin upper bound on the spectrum: `max_r (a_rr + Σ|a_rc|)`.
    pub fn gershgorin_upper(&self) -> f64 {
        let mut hi = f64::NEG_INFINITY;
        for r in 0..self.nrows {
            let mut diag = 0.0;
            let mut radius = 0.0;
            for (k, &c) in self.row_cols(r).iter().enumerate() {
                let v = self.row_vals(r)[k];
                if c as usize == r {
                    diag = v;
                } else {
                    radius += v.abs();
                }
            }
            hi = hi.max(diag + radius);
        }
        hi
    }

    /// Scales all values by `s` (the structure-only row partition stays
    /// valid).
    pub fn scale(&mut self, s: f64) {
        for v in &mut self.vals {
            *v *= s;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coo::CooMatrix;

    fn small() -> CsrMatrix {
        // [ 4 -1  0]
        // [-1  4 -1]
        // [ 0 -1  4]
        let mut c = CooMatrix::new(3, 3);
        for i in 0..3 {
            c.push(i, i, 4.0).unwrap();
        }
        c.push_sym(0, 1, -1.0).unwrap();
        c.push_sym(1, 2, -1.0).unwrap();
        c.to_csr().unwrap()
    }

    #[test]
    fn from_raw_parts_validates() {
        assert!(CsrMatrix::from_raw_parts(2, 2, vec![0, 1, 2], vec![0, 1], vec![1.0, 1.0]).is_ok());
        // bad row_ptr length
        assert!(CsrMatrix::from_raw_parts(2, 2, vec![0, 2], vec![0, 1], vec![1.0, 1.0]).is_err());
        // row_ptr not starting at 0
        assert!(CsrMatrix::from_raw_parts(1, 2, vec![1, 2], vec![0], vec![1.0]).is_err());
        // decreasing row_ptr
        assert!(
            CsrMatrix::from_raw_parts(2, 2, vec![0, 2, 1], vec![0, 1], vec![1.0, 1.0]).is_err()
        );
        // unsorted columns
        assert!(CsrMatrix::from_raw_parts(1, 3, vec![0, 2], vec![2, 0], vec![1.0, 1.0]).is_err());
        // duplicate columns
        assert!(CsrMatrix::from_raw_parts(1, 3, vec![0, 2], vec![1, 1], vec![1.0, 1.0]).is_err());
        // column out of range
        assert!(CsrMatrix::from_raw_parts(1, 2, vec![0, 1], vec![5], vec![1.0]).is_err());
        // more columns than the u32 index can address
        assert!(matches!(
            CsrMatrix::from_raw_parts(1, u32::MAX as usize + 1, vec![0, 0], vec![], vec![]),
            Err(SparseError::InvalidArgument(_))
        ));
    }

    #[test]
    fn spmv_matches_dense() {
        let a = small();
        let x = [1.0, 2.0, 3.0];
        let y = a.mul_vec(&x);
        assert_eq!(y, vec![4.0 - 2.0, -1.0 + 8.0 - 3.0, -2.0 + 12.0]);
    }

    #[test]
    fn spmv_rows_matches_full() {
        let a = small();
        let x = [0.5, -1.0, 2.0];
        let full = a.mul_vec(&x);
        let mut part = vec![0.0; 2];
        a.spmv_rows(1, 3, &x, &mut part);
        assert_eq!(part, full[1..3]);
    }

    #[test]
    fn transpose_involution() {
        let a = small();
        assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn symmetry_and_dominance() {
        let a = small();
        assert!(a.is_symmetric(0.0));
        assert!(a.is_diagonally_dominant());
        let mut c = CooMatrix::new(2, 2);
        c.push(0, 1, 3.0).unwrap();
        c.push(0, 0, 1.0).unwrap();
        c.push(1, 1, 1.0).unwrap();
        let b = c.to_csr().unwrap();
        assert!(!b.is_symmetric(1e-12));
        assert!(!b.is_diagonally_dominant());
    }

    #[test]
    fn identity_is_identity() {
        let i = CsrMatrix::identity(4);
        let x = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(i.mul_vec(&x), x.to_vec());
    }

    #[test]
    fn matmul_matches_dense_product() {
        let a = small();
        let i = CsrMatrix::identity(3);
        assert_eq!(a.matmul(&i), a);
        let a2 = a.matmul(&a);
        // Check a couple of entries of A^2 for the tridiagonal [4,-1].
        assert_eq!(a2.get(0, 0), 17.0); // 4*4 + (-1)*(-1)
        assert_eq!(a2.get(0, 1), -8.0); // 4*(-1) + (-1)*4
        assert_eq!(a2.get(0, 2), 1.0); // (-1)*(-1)
        assert!(a2.is_symmetric(0.0));
    }

    #[test]
    fn rap_produces_galerkin_coarse_operator() {
        let a = small();
        // P aggregates rows {0,1} and {2}.
        let p =
            CsrMatrix::from_raw_parts(3, 2, vec![0, 1, 2, 3], vec![0, 0, 1], vec![1.0; 3]).unwrap();
        let c = a.rap(&p);
        assert_eq!(c.nrows(), 2);
        // c00 = sum of A over rows/cols {0,1} = 4-1-1+4 = 6.
        assert_eq!(c.get(0, 0), 6.0);
        assert_eq!(c.get(0, 1), -1.0);
        assert_eq!(c.get(1, 1), 4.0);
        assert!(c.is_symmetric(0.0));
    }

    #[test]
    fn gershgorin_bounds_small_matrix() {
        let a = small();
        assert_eq!(a.gershgorin_upper(), 6.0);
    }

    #[test]
    fn get_returns_zero_for_missing() {
        let a = small();
        assert_eq!(a.get(0, 2), 0.0);
        assert_eq!(a.get(0, 1), -1.0);
    }

    #[test]
    fn avg_nnz_per_row_is_zero_on_empty_matrix() {
        let empty = CsrMatrix::from_raw_parts(0, 0, vec![0], vec![], vec![]).unwrap();
        assert_eq!(empty.avg_nnz_per_row(), 0.0);
        assert_eq!(small().avg_nnz_per_row(), 7.0 / 3.0);
    }

    #[test]
    fn nnz_balanced_rows_covers_and_balances() {
        // Rows with 0/1/5/1/1 nnz at a 2-nnz target: cuts fall after each
        // row that fills its chunk, and every row lands in exactly one chunk.
        let row_ptr = vec![0, 0, 1, 6, 7, 8];
        let b = nnz_balanced_rows(&row_ptr, 2);
        assert_eq!(*b.first().unwrap(), 0);
        assert_eq!(*b.last().unwrap(), 5);
        assert!(b.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(b, vec![0, 3, 5]);
        // Degenerate shapes.
        assert_eq!(nnz_balanced_rows(&[0], 4), vec![0]);
        assert_eq!(nnz_balanced_rows(&[0, 3], 1), vec![0, 1]);
    }

    /// A ragged matrix: row `r` holds `lens[r % lens.len()]` consecutive
    /// columns (0 = empty row) from a row-dependent start, seeded values.
    fn ragged(nrows: usize, ncols: usize, lens: &[usize], seed: u64) -> CsrMatrix {
        let mut rng = crate::rng::SplitMix64::new(seed);
        let mut row_ptr = vec![0usize];
        let (mut col_idx, mut vals) = (Vec::new(), Vec::new());
        for r in 0..nrows {
            let len = lens[r % lens.len()].min(ncols);
            let start = (7 * r) % (ncols - len + 1);
            for c in start..start + len {
                col_idx.push(c as u32);
                vals.push(rng.uniform(-2.0, 2.0));
            }
            row_ptr.push(col_idx.len());
        }
        CsrMatrix::from_raw_parts(nrows, ncols, row_ptr, col_idx, vals).unwrap()
    }

    fn assert_blocked_is_scalar(a: &CsrMatrix, what: &str) {
        let x: Vec<f64> = (0..a.ncols()).map(|i| (i as f64 * 0.61).cos()).collect();
        let mut want = vec![f64::NAN; a.nrows()];
        a.spmv_rows_scalar(0, a.nrows(), &x, &mut want);
        let bits = |v: &[f64]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
        let mut y = vec![f64::NAN; a.nrows()];
        a.spmv_rows_serial(0, a.nrows(), &x, &mut y);
        assert_eq!(bits(&y), bits(&want), "{what}: full range");
        // Odd windows: every start offset modulo the block height, and
        // ends that leave 0..3 tail rows.
        for lo in 0..a.nrows().min(5) {
            for hi in (lo..=a.nrows()).rev().take(5) {
                let mut part = vec![f64::NAN; hi - lo];
                a.spmv_rows_serial(lo, hi, &x, &mut part);
                assert_eq!(bits(&part), bits(&want[lo..hi]), "{what}: rows {lo}..{hi}");
            }
        }
    }

    #[test]
    fn blocked_kernel_is_bitwise_scalar_on_ragged_matrices() {
        // Blocks of four unequal lengths, empty and 1-entry rows, nnz not a
        // multiple of 8 or 16; all but the last matrix hold fewer than
        // PREFETCH_AHEAD entries, so every prefetch target lies past the
        // arrays, and the last one crosses from inside them to past them.
        let shapes: [(usize, usize, &[usize]); 6] = [
            (23, 40, &[3, 0, 1, 17, 5, 5, 2, 0, 0, 9, 1]), // 89 entries
            (4, 9, &[9, 1, 0, 4]),
            (3, 5, &[2, 5, 1]), // fewer rows than one block
            (1, 7, &[7]),
            (8, 3, &[0]), // nothing stored at all
            (64, 130, &[125, 100, 125, 27, 125, 125, 124, 125]),
        ];
        for (i, &(nrows, ncols, lens)) in shapes.iter().enumerate() {
            let a = ragged(nrows, ncols, lens, 0xc5a + i as u64);
            assert_eq!(a.nnz() > PREFETCH_AHEAD, i == 5, "shape {i}");
            assert_blocked_is_scalar(&a, &format!("shape {i}"));
        }
    }

    #[test]
    fn value_mutation_is_seen_by_the_next_spmv() {
        let mut a = small();
        let x = [1.0, 2.0, 3.0];
        let mut y = [0.0; 3];
        a.spmv(&x, &mut y);
        a.vals_mut()[0] = 10.0;
        a.spmv(&x, &mut y);
        assert_eq!(y[0], 10.0 * 1.0 - 1.0 * 2.0);
        let mut b = small();
        b.spmv(&x, &mut y);
        b.scale(2.0);
        b.spmv(&x, &mut y);
        assert_eq!(y[0], 2.0 * (4.0 - 2.0));
    }

    #[test]
    fn parallel_spmv_is_bitwise_serial_at_any_thread_count() {
        use crate::stencil::{poisson3d_7pt, Grid3};
        // Force several chunks despite the small problem.
        pscg_par::knobs::set_spmv_chunk_nnz(97);
        let a = poisson3d_7pt(Grid3::cube(9), None);
        let x: Vec<f64> = (0..a.nrows()).map(|i| (i as f64 * 0.37).sin()).collect();
        let mut reference = vec![0.0; a.nrows()];
        a.spmv_rows_scalar(0, a.nrows(), &x, &mut reference);
        for threads in [1, 2, 4, 7] {
            let pool = Pool::new(threads);
            let mut y = vec![0.0; a.nrows()];
            a.spmv_with(&pool, &x, &mut y);
            assert_eq!(y, reference, "spmv differs at {threads} threads");
            let mut part = vec![0.0; a.nrows() - 10];
            a.spmv_rows_with(&pool, 5, a.nrows() - 5, &x, &mut part);
            assert_eq!(part, reference[5..a.nrows() - 5]);
        }
    }
}
