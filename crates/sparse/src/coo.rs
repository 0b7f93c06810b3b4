//! Coordinate-format matrix builder.
//!
//! [`CooMatrix`] is the mutable assembly format: generators and the Matrix
//! Market reader push `(row, col, value)` triplets in any order (duplicates
//! allowed, they are summed), then convert once to [`CsrMatrix`] for the
//! compute kernels.

use crate::csr::{check_index_width, CsrMatrix};
use crate::error::SparseError;

/// A sparse matrix in coordinate (triplet) format, used for assembly.
#[derive(Debug, Clone, Default)]
pub struct CooMatrix {
    nrows: usize,
    ncols: usize,
    rows: Vec<usize>,
    cols: Vec<usize>,
    vals: Vec<f64>,
}

impl CooMatrix {
    /// Creates an empty `nrows × ncols` assembly buffer.
    pub fn new(nrows: usize, ncols: usize) -> Self {
        CooMatrix {
            nrows,
            ncols,
            rows: Vec::new(),
            cols: Vec::new(),
            vals: Vec::new(),
        }
    }

    /// Creates an empty buffer with capacity for `cap` triplets.
    pub fn with_capacity(nrows: usize, ncols: usize, cap: usize) -> Self {
        CooMatrix {
            nrows,
            ncols,
            rows: Vec::with_capacity(cap),
            cols: Vec::with_capacity(cap),
            vals: Vec::with_capacity(cap),
        }
    }

    /// Number of rows.
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Number of columns.
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// Number of stored triplets (duplicates counted individually).
    pub fn nnz(&self) -> usize {
        self.vals.len()
    }

    /// Appends one entry. Duplicate `(row, col)` pairs are summed during
    /// [`CooMatrix::to_csr`].
    pub fn push(&mut self, row: usize, col: usize, val: f64) -> Result<(), SparseError> {
        if row >= self.nrows || col >= self.ncols {
            return Err(SparseError::IndexOutOfBounds {
                row,
                col,
                nrows: self.nrows,
                ncols: self.ncols,
            });
        }
        self.rows.push(row);
        self.cols.push(col);
        self.vals.push(val);
        Ok(())
    }

    /// Appends one entry and, if `row != col`, its mirror entry — convenient
    /// when assembling symmetric operators from a lower/upper triangle.
    pub fn push_sym(&mut self, row: usize, col: usize, val: f64) -> Result<(), SparseError> {
        self.push(row, col, val)?;
        if row != col {
            self.push(col, row, val)?;
        }
        Ok(())
    }

    /// Converts to CSR, sorting rows/columns and summing duplicates.
    /// Entries that sum to exactly zero are kept (structural nonzeros),
    /// matching the convention of Matrix Market files. Fails with
    /// [`SparseError::InvalidArgument`] when `ncols` exceeds `u32::MAX`, the
    /// CSR column index type.
    pub fn to_csr(&self) -> Result<CsrMatrix, SparseError> {
        check_index_width(self.ncols)?;
        // Counting sort by row: O(nnz + nrows), no comparison sort needed.
        let nnz = self.vals.len();
        let mut row_counts = vec![0usize; self.nrows + 1];
        for &r in &self.rows {
            row_counts[r + 1] += 1;
        }
        for i in 0..self.nrows {
            row_counts[i + 1] += row_counts[i];
        }
        let row_start = row_counts.clone();
        let mut cols = vec![0u32; nnz];
        let mut vals = vec![0.0f64; nnz];
        {
            let mut cursor = row_start.clone();
            for k in 0..nnz {
                let r = self.rows[k];
                let dst = cursor[r];
                cols[dst] = self.cols[k] as u32; // fits: `col < ncols <= u32::MAX`
                vals[dst] = self.vals[k];
                cursor[r] += 1;
            }
        }
        // Sort within each row and merge duplicates in place.
        let mut out_ptr = vec![0usize; self.nrows + 1];
        let mut out_cols = Vec::with_capacity(nnz);
        let mut out_vals = Vec::with_capacity(nnz);
        let mut scratch: Vec<(u32, f64)> = Vec::new();
        for r in 0..self.nrows {
            let (lo, hi) = (row_start[r], row_start[r + 1]);
            scratch.clear();
            scratch.extend(
                cols[lo..hi]
                    .iter()
                    .copied()
                    .zip(vals[lo..hi].iter().copied()),
            );
            scratch.sort_unstable_by_key(|&(c, _)| c);
            let mut i = 0;
            while i < scratch.len() {
                let c = scratch[i].0;
                let mut v = scratch[i].1;
                let mut j = i + 1;
                while j < scratch.len() && scratch[j].0 == c {
                    v += scratch[j].1;
                    j += 1;
                }
                out_cols.push(c);
                out_vals.push(v);
                i = j;
            }
            out_ptr[r + 1] = out_cols.len();
        }
        CsrMatrix::from_raw_parts(self.nrows, self.ncols, out_ptr, out_cols, out_vals)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_rejects_out_of_bounds() {
        let mut m = CooMatrix::new(2, 2);
        assert!(m.push(2, 0, 1.0).is_err());
        assert!(m.push(0, 2, 1.0).is_err());
        assert!(m.push(1, 1, 1.0).is_ok());
    }

    #[test]
    fn to_csr_rejects_columns_past_u32() {
        let m = CooMatrix::new(1, u32::MAX as usize + 1);
        assert!(matches!(m.to_csr(), Err(SparseError::InvalidArgument(_))));
        assert!(CooMatrix::new(1, u32::MAX as usize).to_csr().is_ok());
    }

    #[test]
    fn duplicates_are_summed() {
        let mut m = CooMatrix::new(2, 2);
        m.push(0, 1, 1.5).unwrap();
        m.push(0, 1, 2.5).unwrap();
        m.push(1, 0, -1.0).unwrap();
        let csr = m.to_csr().unwrap();
        assert_eq!(csr.nnz(), 2);
        assert_eq!(csr.get(0, 1), 4.0);
        assert_eq!(csr.get(1, 0), -1.0);
    }

    #[test]
    fn to_csr_sorts_columns() {
        let mut m = CooMatrix::new(1, 4);
        m.push(0, 3, 3.0).unwrap();
        m.push(0, 0, 0.5).unwrap();
        m.push(0, 2, 2.0).unwrap();
        let csr = m.to_csr().unwrap();
        assert_eq!(csr.row_cols(0), &[0, 2, 3]);
        assert_eq!(csr.row_vals(0), &[0.5, 2.0, 3.0]);
    }

    #[test]
    fn push_sym_mirrors_offdiagonal() {
        let mut m = CooMatrix::new(3, 3);
        m.push_sym(0, 1, 2.0).unwrap();
        m.push_sym(2, 2, 5.0).unwrap();
        let csr = m.to_csr().unwrap();
        assert_eq!(csr.get(0, 1), 2.0);
        assert_eq!(csr.get(1, 0), 2.0);
        assert_eq!(csr.get(2, 2), 5.0);
        assert_eq!(csr.nnz(), 3);
    }

    #[test]
    fn empty_rows_are_preserved() {
        let mut m = CooMatrix::new(3, 3);
        m.push(2, 0, 1.0).unwrap();
        let csr = m.to_csr().unwrap();
        assert_eq!(csr.row_cols(0).len(), 0);
        assert_eq!(csr.row_cols(1).len(), 0);
        assert_eq!(csr.row_cols(2), &[0]);
    }
}
