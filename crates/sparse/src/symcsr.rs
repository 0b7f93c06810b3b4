//! Symmetric CSR storage: strictly-upper + diagonal, half the matrix
//! traffic of general CSR on SPD operators.
//!
//! For an exactly symmetric matrix, row `r` of `y = A x` decomposes as
//!
//! ```text
//!   y[r] = Σ_{c<r} a_rc·x_c   (ascending c — the "scatter" part)
//!        + a_rr·x_r
//!        + Σ_{c>r} a_rc·x_c   (ascending c — the "gather" part)
//! ```
//!
//! and `a_rc = a_cr` bitwise lets the scatter part be produced from the
//! *stored upper* entries of earlier rows: entry `(r', c)` with `r' < c`
//! contributes `a_r'c·x_c` to `y[r']` (gather) and `a_r'c·x_r'` to `y[c]`
//! (scatter). Each stored entry is read once — ≈6 B per logical nnz,
//! against 12 B for CSR.
//!
//! **Determinism argument.** The scalar CSR kernel folds row `r`
//! left-associatively over ascending columns from an initial `0.0`.
//! Scatter contributions to `y[r]` come from source rows `r' < r`; in
//! ascending-`r'` order they are exactly the ascending-column lower part
//! of row `r`. So any schedule that (a) accumulates the scatter terms of
//! each target in ascending source order, starting from `0.0`, and then
//! (b) adds the diagonal and the ascending gather terms, reproduces the
//! CSR chain bitwise:
//!
//! * **Serial in-place path** (one chunk): zero `y`, sweep rows ascending;
//!   at row `r`, `y[r]` already holds its scatter prefix (sources `< r`
//!   ran first, each `+=` in ascending order), so finish it with diagonal
//!   + gathers, then scatter `y[c] += a_rc·x_r` for the stored `c > r`.
//! * **Two-phase scatter-slot path** (several chunks): phase 1 writes each
//!   stored entry's product `a_r'c·x_r'` into a *pre-assigned slot* of a
//!   scratch buffer laid out per target in ascending source order (a CSC
//!   view of the strictly-upper part, built at construction). Phase 2
//!   folds each target's slots in slot order, then diagonal + gathers.
//!   Individual products — never pre-summed per-thread partials — are
//!   what is stored, because `(a+b)+(c+d)` differs from the CSR chain
//!   `((a+b)+c)+d`. Slot assignment depends only on the structure, so the
//!   result is bitwise identical at any thread count, and bitwise equal to
//!   the serial path and to CSR.
//!
//! The serial/parallel decision is shape-only: chunks are stored-nnz
//! balanced against [`pscg_par::knobs::sym_chunk_nnz`], whose default is
//! large enough that typical problems take the in-place path (no scratch
//! allocated at all).

use std::sync::Mutex;

use pscg_par::{sync_trace, DisjointMut, Pool};

use crate::csr::CsrMatrix;
use crate::error::SparseError;

/// A symmetric sparse matrix stored as strictly-upper triangle + diagonal.
#[derive(Debug)]
pub struct SymCsrMatrix {
    n: usize,
    /// Dense diagonal (zeros for unstored diagonal entries).
    diag: Vec<f64>,
    /// Strictly-upper row pointers (`n + 1`).
    up_ptr: Vec<usize>,
    /// Strictly-upper column indices, ascending per row.
    up_cols: Vec<u32>,
    /// Strictly-upper values.
    up_vals: Vec<f64>,
    /// Row chunk boundaries, balanced by stored nnz (diag + upper) against
    /// [`pscg_par::knobs::sym_chunk_nnz`] at construction.
    chunk_rows: Vec<usize>,
    /// Scatter-slot ranges per target row (`n + 1`): slots of target `t`
    /// are ordered by ascending source row. Built only when parallel.
    scatter_ptr: Vec<usize>,
    /// Slot index of each stored upper entry (parallel path only).
    scatter_slot: Vec<usize>,
    /// Scratch slot buffer, lazily sized on first parallel apply. A Mutex
    /// because `spmv` takes `&self`; concurrent applies on one matrix
    /// serialize here (they would fight for memory bandwidth anyway).
    scratch: Mutex<Vec<f64>>,
}

impl SymCsrMatrix {
    /// Converts a CSR matrix, rejecting non-square input
    /// ([`SparseError::NotSquare`]) and input that is not *exactly*
    /// (bitwise) symmetric ([`SparseError::NotSymmetric`]) — bitwise
    /// symmetry is what makes the halved-storage kernel bitwise equal to
    /// the CSR kernel.
    pub fn try_from_csr(a: &CsrMatrix) -> Result<SymCsrMatrix, SparseError> {
        if a.nrows() != a.ncols() {
            return Err(SparseError::NotSquare {
                nrows: a.nrows(),
                ncols: a.ncols(),
            });
        }
        let n = a.nrows();
        let t = a.transpose();
        if t.row_ptr() != a.row_ptr() || t.col_idx() != a.col_idx() {
            // Structurally asymmetric: report the first stored entry whose
            // mirror is absent (or, failing that, the first structural
            // difference by row scan).
            for r in 0..n {
                for &c in a.row_cols(r) {
                    let c = c as usize;
                    // `r < n <= u32::MAX`: the matrix is square.
                    if !a.row_cols(c).contains(&(r as u32)) {
                        return Err(SparseError::NotSymmetric { row: r, col: c });
                    }
                }
            }
            return Err(SparseError::NotSymmetric { row: 0, col: 0 });
        }
        for r in 0..n {
            for (k, &c) in a.row_cols(r).iter().enumerate() {
                // Bitwise comparison: NaN or ±0.0 mismatches also reject.
                if a.row_vals(r)[k].to_bits() != t.row_vals(r)[k].to_bits() {
                    return Err(SparseError::NotSymmetric {
                        row: r,
                        col: c as usize,
                    });
                }
            }
        }
        let mut diag = vec![0.0f64; n];
        let mut up_ptr = Vec::with_capacity(n + 1);
        up_ptr.push(0usize);
        let mut up_cols: Vec<u32> = Vec::new();
        let mut up_vals: Vec<f64> = Vec::new();
        for r in 0..n {
            for (k, &c) in a.row_cols(r).iter().enumerate() {
                let v = a.row_vals(r)[k];
                if c as usize == r {
                    diag[r] = v;
                } else if c as usize > r {
                    up_cols.push(c);
                    up_vals.push(v);
                }
            }
            up_ptr.push(up_cols.len());
        }
        // Stored-nnz-balanced row chunks (diag counts 1 per row).
        let target = pscg_par::knobs::sym_chunk_nnz().max(1);
        let mut chunk_rows = vec![0usize];
        let mut start_work = 0usize;
        for r in 0..n {
            let work = (r + 1) + up_ptr[r + 1];
            if work - start_work >= target {
                chunk_rows.push(r + 1);
                start_work = work;
            }
        }
        // pscg-lint: allow(panic-in-hot-path, chunk_rows starts with the 0 entry pushed above)
        if *chunk_rows.last().unwrap() != n {
            chunk_rows.push(n);
        }
        // Scatter-slot layout, only needed on the two-phase path: slots of
        // target t ordered by ascending source row — exactly the order a
        // source-ascending sweep appends them in.
        let (scatter_ptr, scatter_slot) = if chunk_rows.len() > 2 {
            let mut ptr = vec![0usize; n + 1];
            for &c in &up_cols {
                ptr[c as usize + 1] += 1;
            }
            for i in 0..n {
                ptr[i + 1] += ptr[i];
            }
            let mut cursor = ptr.clone();
            let mut slot = vec![0usize; up_cols.len()];
            for r in 0..n {
                for k in up_ptr[r]..up_ptr[r + 1] {
                    let t = up_cols[k] as usize;
                    slot[k] = cursor[t];
                    cursor[t] += 1;
                }
            }
            (ptr, slot)
        } else {
            (Vec::new(), Vec::new())
        };
        Ok(SymCsrMatrix {
            n,
            diag,
            up_ptr,
            up_cols,
            up_vals,
            chunk_rows,
            scatter_ptr,
            scatter_slot,
            scratch: Mutex::new(Vec::new()),
        })
    }

    /// Matrix dimension.
    #[inline]
    pub fn nrows(&self) -> usize {
        self.n
    }

    /// Stored entries (diagonal + strictly upper).
    #[inline]
    pub fn stored_nnz(&self) -> usize {
        self.n + self.up_vals.len()
    }

    /// Logical nnz of the full (CSR-equivalent) matrix, counting only the
    /// actually stored diagonal as nonzero is not tracked — this is the
    /// mirror-expanded count `2·upper + diag_slots` used for GFLOP/s.
    #[inline]
    pub fn logical_nnz(&self) -> usize {
        self.n + 2 * self.up_vals.len()
    }

    /// Serial in-place kernel over all rows (see module docs).
    fn spmv_serial(&self, x: &[f64], y: &mut [f64]) {
        y.fill(0.0);
        let (vals, cols) = (&self.up_vals[..], &self.up_cols[..]);
        for r in 0..self.n {
            let mut acc = y[r];
            acc += self.diag[r] * x[r];
            let (lo, hi) = (self.up_ptr[r], self.up_ptr[r + 1]);
            for k in lo..hi {
                // SAFETY: `k < up_ptr[n] == vals.len()` and stored columns
                // are `< n == x.len() == y.len()` by construction.
                // Unchecked: bounds checks dominate this loop.
                unsafe {
                    acc += vals.get_unchecked(k) * x.get_unchecked(*cols.get_unchecked(k) as usize);
                }
            }
            y[r] = acc;
            let xr = x[r];
            for k in lo..hi {
                // SAFETY: as above.
                unsafe {
                    *y.get_unchecked_mut(*cols.get_unchecked(k) as usize) +=
                        vals.get_unchecked(k) * xr;
                }
            }
        }
    }

    /// `y = A x` on an explicit pool — bitwise identical to the scalar CSR
    /// kernel on the full matrix, at any thread count.
    pub fn spmv_with(&self, pool: &Pool, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.n, "sym spmv: x length mismatch");
        assert_eq!(y.len(), self.n, "sym spmv: y length mismatch");
        let nchunks = self.chunk_rows.len().saturating_sub(1);
        // Shape-only decision (chunk count comes from structure + knob).
        if nchunks <= 1 {
            self.spmv_serial(x, y);
            return;
        }
        let mut scratch = self.scratch.lock().unwrap();
        scratch.resize(self.up_vals.len(), 0.0);
        // Phase 1: every stored upper entry writes its scatter product into
        // its pre-assigned slot (disjoint by construction: one entry, one
        // slot).
        {
            let slots = DisjointMut::new(&mut scratch[..]);
            pool.run(nchunks, &|c| {
                let (rlo, rhi) = (self.chunk_rows[c], self.chunk_rows[c + 1]);
                sync_trace::record_read(x, 0, x.len());
                let record = sync_trace::is_enabled();
                for r in rlo..rhi {
                    let xr = x[r];
                    for k in self.up_ptr[r]..self.up_ptr[r + 1] {
                        let s = self.scatter_slot[k];
                        if record {
                            sync_trace::record(sync_trace::SyncEvent::BufWrite {
                                buf: slots.addr(),
                                lo: s,
                                hi: s + 1,
                            });
                        }
                        // SAFETY: slot indices are a permutation of
                        // 0..up_nnz, and each entry k belongs to exactly
                        // one row chunk — single writer per slot.
                        *unsafe { slots.element(s) } = self.up_vals[k] * xr;
                    }
                }
            });
        }
        // Phase 2: each target row folds its slots in slot order (ascending
        // source), then diagonal + gathers — the CSR chain.
        let scratch = &scratch[..];
        let out = DisjointMut::new(y);
        pool.run(nchunks, &|c| {
            let (rlo, rhi) = (self.chunk_rows[c], self.chunk_rows[c + 1]);
            sync_trace::record_read(x, 0, x.len());
            sync_trace::record_read(scratch, 0, scratch.len());
            // SAFETY: row chunks are pairwise disjoint.
            let yy = unsafe { out.range(rlo, rhi) };
            let (vals, cols) = (&self.up_vals[..], &self.up_cols[..]);
            for (out_r, r) in yy.iter_mut().zip(rlo..rhi) {
                let mut acc = 0.0;
                for s in self.scatter_ptr[r]..self.scatter_ptr[r + 1] {
                    // SAFETY: `scatter_ptr[n] == scratch.len()` and the
                    // pointer array is monotone, so `s` is in bounds.
                    acc += unsafe { scratch.get_unchecked(s) };
                }
                acc += self.diag[r] * x[r];
                for k in self.up_ptr[r]..self.up_ptr[r + 1] {
                    // SAFETY: `k < up_ptr[n] == vals.len()` and stored
                    // columns are `< n == x.len()` by construction.
                    unsafe {
                        acc += vals.get_unchecked(k)
                            * x.get_unchecked(*cols.get_unchecked(k) as usize);
                    }
                }
                *out_r = acc;
            }
        });
    }

    /// [`SymCsrMatrix::spmv_with`] on the global pool.
    pub fn spmv(&self, x: &[f64], y: &mut [f64]) {
        self.spmv_with(&pscg_par::global(), x, y)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stencil::{poisson3d_7pt, Grid3};

    fn csr_reference(a: &CsrMatrix, x: &[f64]) -> Vec<f64> {
        let mut y = vec![0.0; a.nrows()];
        for r in 0..a.nrows() {
            let mut acc = 0.0;
            for (k, &c) in a.row_cols(r).iter().enumerate() {
                acc += a.row_vals(r)[k] * x[c as usize];
            }
            y[r] = acc;
        }
        y
    }

    #[test]
    fn serial_path_is_bitwise_csr() {
        let a = poisson3d_7pt(Grid3::cube(6), None);
        let s = SymCsrMatrix::try_from_csr(&a).unwrap();
        let x: Vec<f64> = (0..a.nrows()).map(|i| (i as f64 * 0.13).cos()).collect();
        let mut y = vec![f64::NAN; a.nrows()];
        s.spmv(&x, &mut y);
        assert_eq!(y, csr_reference(&a, &x));
        assert_eq!(s.logical_nnz(), a.nnz());
        assert!(s.stored_nnz() < a.nnz());
    }

    #[test]
    fn two_phase_path_is_bitwise_csr_any_threads() {
        // Force several chunks so the scatter-slot path runs.
        pscg_par::knobs::set_sym_chunk_nnz(64);
        let a = poisson3d_7pt(Grid3::cube(6), None);
        let s = SymCsrMatrix::try_from_csr(&a).unwrap();
        assert!(
            s.chunk_rows.len() > 2,
            "test must exercise the 2-phase path"
        );
        let x: Vec<f64> = (0..a.nrows()).map(|i| (i as f64 * 0.31).sin()).collect();
        let want = csr_reference(&a, &x);
        for threads in [1, 2, 4, 7] {
            let pool = Pool::new(threads);
            let mut y = vec![f64::NAN; a.nrows()];
            s.spmv_with(&pool, &x, &mut y);
            assert_eq!(y, want, "sym spmv differs at {threads} threads");
        }
        pscg_par::knobs::set_sym_chunk_nnz(pscg_par::knobs::DEFAULT_SYM_CHUNK_NNZ);
    }

    #[test]
    fn rejects_non_symmetric_with_typed_error() {
        // Structurally asymmetric.
        let a = CsrMatrix::from_raw_parts(2, 2, vec![0, 2, 3], vec![0, 1, 1], vec![2.0, 1.0, 2.0])
            .unwrap();
        match SymCsrMatrix::try_from_csr(&a) {
            Err(SparseError::NotSymmetric { row: 0, col: 1 }) => {}
            other => panic!("expected NotSymmetric(0,1), got {other:?}"),
        }
        // Structurally symmetric, numerically not.
        let b = CsrMatrix::from_raw_parts(
            2,
            2,
            vec![0, 2, 4],
            vec![0, 1, 0, 1],
            vec![2.0, 1.0, 1.5, 2.0],
        )
        .unwrap();
        assert!(matches!(
            SymCsrMatrix::try_from_csr(&b),
            Err(SparseError::NotSymmetric { row: 0, col: 1 })
        ));
        // Non-square.
        let c = CsrMatrix::from_raw_parts(1, 2, vec![0, 1], vec![0], vec![1.0]).unwrap();
        assert!(matches!(
            SymCsrMatrix::try_from_csr(&c),
            Err(SparseError::NotSquare { .. })
        ));
    }

    #[test]
    fn missing_diagonal_entries_are_zero() {
        // Symmetric matrix with no stored diagonal on row 1.
        let a = CsrMatrix::from_raw_parts(
            3,
            3,
            vec![0, 2, 4, 6],
            vec![0, 1, 0, 2, 1, 2],
            vec![4.0, -1.0, -1.0, -1.0, -1.0, 4.0],
        )
        .unwrap();
        assert!(a.is_symmetric(0.0));
        let s = SymCsrMatrix::try_from_csr(&a).unwrap();
        let x = [1.0, 2.0, 3.0];
        let mut y = [0.0; 3];
        s.spmv(&x, &mut y);
        assert_eq!(y.to_vec(), csr_reference(&a, &x));
    }
}
