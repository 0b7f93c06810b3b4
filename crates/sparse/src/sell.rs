//! SELL-C-σ (sliced ELLPACK) storage and its SpMV kernel.
//!
//! Layout (Kreutzer et al.'s SELL-C-σ, here with a fixed chunk height
//! C = [`SELL_C`] = 8): rows are sorted by descending length *within*
//! windows of σ consecutive rows (σ = [`pscg_par::knobs::sell_sigma`],
//! rounded up to a multiple of C), then packed into chunks of C rows.
//! Each chunk stores `width = max(row length in chunk)` columns in
//! column-major order, so the kernel walks C independent accumulator
//! chains with unit stride:
//!
//! ```text
//!   chunk 0 (rows π(0)..π(7))          chunk 1 (rows π(8)..π(15))
//!   ┌ v00 v10 … v70 │ v01 v11 … v71 │ … ┐ ┌ …
//!   └ c00 c10 … c70 │ c01 c11 … c71 │ … ┘ └ …      (u32 column ids)
//!      k = 0            k = 1
//! ```
//!
//! Two properties are load-bearing for the determinism contract:
//!
//! * **Per-row order is CSR order.** Conversion writes each row's entries
//!   at `k = 0..len` in ascending-column order, and the kernel accumulates
//!   `k` ascending from an initial `0.0` — the exact chain of the scalar
//!   CSR kernel, so results are bitwise identical in any format.
//! * **Padding is never touched arithmetically.** Padding slots hold
//!   `0.0`, but the kernel guards on per-row lengths instead of
//!   multiplying them in: `acc + 0.0·x` is *not* a bitwise no-op (it
//!   flips `-0.0` and manufactures NaN from ±inf).
//!
//! Parallel runs partition *chunks* into jobs balanced by padded nnz —
//! a function of structure and knobs only, never the thread count — and
//! each job scatters its finished rows through the permutation. Column
//! indices are the CSR's own `u32`s, copied as they are; the row
//! permutation is `u32` too, so conversion fails past `u32::MAX` rows.

use pscg_par::{sync_trace, DisjointMut, Pool};

use crate::csr::CsrMatrix;
use crate::error::SparseError;

/// The fixed SELL chunk height C (rows per chunk, accumulators per job
/// inner loop). Eight chains cover the ~4-cycle FP add latency at one
/// fused multiply-add per cycle without spilling accumulators.
pub const SELL_C: usize = 8;

/// A sparse matrix in SELL-C-σ format (see module docs for the layout).
#[derive(Debug, Clone)]
pub struct SellMatrix {
    nrows: usize,
    ncols: usize,
    /// σ actually used (multiple of [`SELL_C`]).
    sigma: usize,
    /// `perm[slot] = original row` for permuted slot order.
    perm: Vec<u32>,
    /// Stored row lengths, permuted slot order.
    row_len: Vec<u32>,
    /// Chunk start offsets into `cols`/`vals` (`nchunks + 1`).
    chunk_ptr: Vec<usize>,
    /// Column indices, column-major per chunk, `0` in padding slots.
    cols: Vec<u32>,
    /// Values, column-major per chunk, `0.0` in padding slots.
    vals: Vec<f64>,
    /// Job boundaries in chunk index space, balanced by padded nnz against
    /// [`pscg_par::knobs::spmv_chunk_nnz`] at construction.
    job_chunks: Vec<usize>,
    /// Stored (logical) nnz.
    nnz: usize,
}

impl SellMatrix {
    /// Converts a CSR matrix, reading σ and the parallel chunk target from
    /// [`pscg_par::knobs`]. Fails with [`SparseError::InvalidArgument`] when
    /// a row index does not fit the `u32` permutation.
    pub fn from_csr(a: &CsrMatrix) -> Result<SellMatrix, SparseError> {
        if a.nrows() > u32::MAX as usize {
            return Err(SparseError::InvalidArgument(format!(
                "SELL-C-σ uses a u32 row permutation; {} rows exceed u32::MAX",
                a.nrows()
            )));
        }
        let nrows = a.nrows();
        let row_ptr = a.row_ptr();
        let sigma = pscg_par::knobs::sell_sigma().div_ceil(SELL_C) * SELL_C;
        // Permutation: within each σ-window sort slots by descending row
        // length; the sort is stable, so equal-length rows keep their
        // original order (deterministic, structure-only).
        let mut perm: Vec<u32> = (0..nrows as u32).collect();
        for win in perm.chunks_mut(sigma) {
            win.sort_by_key(|&r| std::cmp::Reverse(row_ptr[r as usize + 1] - row_ptr[r as usize]));
        }
        let row_len: Vec<u32> = perm
            .iter()
            .map(|&r| (row_ptr[r as usize + 1] - row_ptr[r as usize]) as u32)
            .collect();
        let nchunks = nrows.div_ceil(SELL_C);
        let mut chunk_ptr = Vec::with_capacity(nchunks + 1);
        chunk_ptr.push(0usize);
        for ch in 0..nchunks {
            let base = ch * SELL_C;
            let h = SELL_C.min(nrows - base);
            // σ is a multiple of C, so a chunk never straddles a sort
            // window: the chunk's first slot has its maximum length.
            let width = (0..h)
                .map(|r| row_len[base + r] as usize)
                .max()
                .unwrap_or(0);
            chunk_ptr.push(chunk_ptr[ch] + width * SELL_C);
        }
        let padded = *chunk_ptr.last().unwrap(); // pscg-lint: allow(panic-in-hot-path, chunk_ptr starts with the 0 entry pushed at construction)
        let mut cols = vec![0u32; padded];
        let mut vals = vec![0.0f64; padded];
        for ch in 0..nchunks {
            let base = ch * SELL_C;
            let off = chunk_ptr[ch];
            let h = SELL_C.min(nrows - base);
            for r in 0..h {
                let orig = perm[base + r] as usize;
                let (lo, hi) = (row_ptr[orig], row_ptr[orig + 1]);
                for (k, idx) in (lo..hi).enumerate() {
                    cols[off + k * SELL_C + r] = a.col_idx()[idx];
                    vals[off + k * SELL_C + r] = a.vals()[idx];
                }
            }
        }
        // Jobs: runs of whole chunks holding ≈ spmv_chunk_nnz padded
        // entries each (shape + knob only — the same contract as the CSR
        // row partition).
        let target = pscg_par::knobs::spmv_chunk_nnz().max(1);
        let mut job_chunks = vec![0usize];
        let mut start = 0usize;
        for ch in 0..nchunks {
            if chunk_ptr[ch + 1] - start >= target {
                job_chunks.push(ch + 1);
                start = chunk_ptr[ch + 1];
            }
        }
        // pscg-lint: allow(panic-in-hot-path, job_chunks starts with the 0 entry pushed above)
        if *job_chunks.last().unwrap() != nchunks {
            job_chunks.push(nchunks);
        }
        Ok(SellMatrix {
            nrows,
            ncols: a.ncols(),
            sigma,
            perm,
            row_len,
            chunk_ptr,
            cols,
            vals,
            job_chunks,
            nnz: a.nnz(),
        })
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

    /// Stored (logical) non-zeros.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.nnz
    }

    /// σ actually used (the knob rounded up to a multiple of C).
    #[inline]
    pub fn sigma(&self) -> usize {
        self.sigma
    }

    /// Allocated entries including padding.
    #[inline]
    pub fn padded_nnz(&self) -> usize {
        self.vals.len()
    }

    /// `padded_nnz / nnz` — 1.0 means no padding (1.0 when empty).
    pub fn fill_ratio(&self) -> f64 {
        if self.nnz == 0 {
            1.0
        } else {
            self.padded_nnz() as f64 / self.nnz as f64
        }
    }

    /// Lossless conversion back to CSR: original row order, ascending
    /// columns — bitwise the arrays the matrix was built from.
    pub fn to_csr(&self) -> CsrMatrix {
        let mut row_ptr = vec![0usize; self.nrows + 1];
        for (slot, &orig) in self.perm.iter().enumerate() {
            row_ptr[orig as usize + 1] = self.row_len[slot] as usize;
        }
        for i in 0..self.nrows {
            row_ptr[i + 1] += row_ptr[i];
        }
        let nnz = row_ptr[self.nrows];
        let mut col_idx = vec![0u32; nnz];
        let mut vals = vec![0.0f64; nnz];
        for (slot, &orig) in self.perm.iter().enumerate() {
            let ch = slot / SELL_C;
            let r = slot % SELL_C;
            let off = self.chunk_ptr[ch];
            let dst = row_ptr[orig as usize];
            for k in 0..self.row_len[slot] as usize {
                col_idx[dst + k] = self.cols[off + k * SELL_C + r];
                vals[dst + k] = self.vals[off + k * SELL_C + r];
            }
        }
        CsrMatrix::from_raw_parts(self.nrows, self.ncols, row_ptr, col_idx, vals)
            .expect("SELL round-trip produced invalid CSR") // pscg-lint: allow(panic-in-hot-path, assembly invariant: the round-trip emits valid CSR by construction)
    }

    /// One job's chunks: compute the C rows of each chunk with independent
    /// accumulators and scatter them through the permutation. `y` is the
    /// full output vector (indices are global).
    ///
    /// # Safety
    /// Chunks `[chunk_lo, chunk_hi)` must be claimed by at most one
    /// concurrent job (their permuted rows are disjoint across jobs).
    unsafe fn spmv_chunks(
        &self,
        chunk_lo: usize,
        chunk_hi: usize,
        x: &[f64],
        y: &DisjointMut<f64>,
    ) {
        for ch in chunk_lo..chunk_hi {
            let off = self.chunk_ptr[ch];
            let width = (self.chunk_ptr[ch + 1] - off) / SELL_C;
            let base = ch * SELL_C;
            let h = SELL_C.min(self.nrows - base);
            let lens = &self.row_len[base..base + h];
            let mut acc = [0.0f64; SELL_C];
            // Slots are sorted by descending length inside the chunk, so
            // lens[h-1] is the minimum: the uniform part runs unguarded.
            let min_len = lens[h - 1] as usize;
            let (vals, cols) = (&self.vals[..], &self.cols[..]);
            for k in 0..min_len {
                let at = off + k * SELL_C;
                for r in 0..h {
                    // SAFETY: `at + r < chunk_ptr[ch+1] <= vals.len()`, and
                    // stored column indices are `< ncols == x.len()` by
                    // construction (padding slots are excluded by the
                    // `min_len`/length guards). Unchecked: the bounds
                    // checks dominate this bandwidth-bound loop.
                    unsafe {
                        acc[r] += vals.get_unchecked(at + r)
                            * x.get_unchecked(*cols.get_unchecked(at + r) as usize);
                    }
                }
            }
            // Tail columns: guard on the true row length — padding slots
            // must never enter the sum (see module docs).
            for k in min_len..width {
                let at = off + k * SELL_C;
                for r in 0..h {
                    if (k as u32) < lens[r] {
                        // SAFETY: as above; the guard keeps this a real slot.
                        unsafe {
                            acc[r] += vals.get_unchecked(at + r)
                                * x.get_unchecked(*cols.get_unchecked(at + r) as usize);
                        }
                    }
                }
            }
            let record = sync_trace::is_enabled();
            for r in 0..h {
                let dst = self.perm[base + r] as usize;
                if record {
                    sync_trace::record(sync_trace::SyncEvent::BufWrite {
                        buf: y.addr(),
                        lo: dst,
                        hi: dst + 1,
                    });
                }
                // SAFETY: each original row appears in exactly one chunk,
                // and chunk ranges are disjoint across jobs (caller
                // contract), so element `dst` has a single writer.
                *unsafe { y.element(dst) } = acc[r];
            }
        }
    }

    /// `y = A x` on an explicit pool — bitwise identical to the scalar CSR
    /// kernel at any thread count.
    pub fn spmv_with(&self, pool: &Pool, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.ncols, "sell spmv: x length mismatch");
        assert_eq!(y.len(), self.nrows, "sell spmv: y length mismatch");
        let njobs = self.job_chunks.len().saturating_sub(1);
        let out = DisjointMut::new(y);
        // Shape-only serial/parallel decision, as in the CSR kernel.
        if njobs <= 1 {
            if njobs == 1 {
                // SAFETY: the single job owns every chunk.
                unsafe { self.spmv_chunks(0, self.job_chunks[1], x, &out) };
            }
            return;
        }
        pool.run(njobs, &|j| {
            sync_trace::record_read(x, 0, x.len());
            // SAFETY: job boundaries are strictly increasing, so chunk
            // ranges are pairwise disjoint.
            unsafe { self.spmv_chunks(self.job_chunks[j], self.job_chunks[j + 1], x, &out) };
        });
    }

    /// [`SellMatrix::spmv_with`] on the global pool.
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

    fn ragged() -> CsrMatrix {
        // Mixed row lengths incl. an empty row and one row far longer than
        // the chunk height (forcing several tail columns past min_len).
        let mut coo = crate::coo::CooMatrix::new(20, 20);
        for c in 0..20 {
            coo.push(3, c, (c as f64 + 1.0) * 0.25).unwrap();
        }
        for r in [0usize, 1, 5, 9, 12, 19] {
            coo.push(r, r, 2.0 + r as f64).unwrap();
            if r + 1 < 20 {
                coo.push(r, r + 1, -1.0).unwrap();
            }
        }
        // row 7 stays empty
        coo.to_csr().unwrap()
    }

    #[test]
    fn round_trips_bitwise_to_csr() {
        for a in [ragged(), poisson3d_7pt(Grid3::cube(5), None)] {
            let s = SellMatrix::from_csr(&a).unwrap();
            assert_eq!(s.to_csr(), a);
            assert_eq!(s.nnz(), a.nnz());
            assert!(s.fill_ratio() >= 1.0);
        }
    }

    #[test]
    fn spmv_bitwise_matches_csr_any_threads() {
        pscg_par::knobs::set_spmv_chunk_nnz(16); // force several jobs
        let a = ragged();
        let s = SellMatrix::from_csr(&a).unwrap();
        let x: Vec<f64> = (0..20).map(|i| (i as f64 * 0.7).sin() + 0.1).collect();
        let want = csr_reference(&a, &x);
        for threads in [1, 2, 4] {
            let pool = Pool::new(threads);
            let mut y = vec![f64::NAN; 20];
            s.spmv_with(&pool, &x, &mut y);
            assert_eq!(y, want, "sell spmv differs at {threads} threads");
        }
        pscg_par::knobs::set_spmv_chunk_nnz(pscg_par::knobs::DEFAULT_SPMV_CHUNK_NNZ);
    }

    #[test]
    fn empty_rows_produce_zero_not_stale_values() {
        let a = ragged();
        let s = SellMatrix::from_csr(&a).unwrap();
        let x = vec![1.0; 20];
        let mut y = vec![f64::NAN; 20];
        s.spmv(&x, &mut y);
        assert_eq!(y[7], 0.0, "empty row must yield exactly 0.0");
    }

    #[test]
    fn row_longer_than_slice_width_of_neighbours() {
        // Row 3 has 20 entries; its chunk-mates have ≤ 2 — the tail loop
        // must process 18 guarded columns without touching padding.
        let a = ragged();
        let s = SellMatrix::from_csr(&a).unwrap();
        let x: Vec<f64> = (0..20).map(|i| 1.0 / (i as f64 + 1.0)).collect();
        let want = csr_reference(&a, &x);
        let mut y = vec![0.0; 20];
        s.spmv(&x, &mut y);
        assert_eq!(y[3], want[3]);
        assert_eq!(y, want);
    }

    #[test]
    fn single_row_matrix() {
        let a = CsrMatrix::from_raw_parts(1, 4, vec![0, 3], vec![0, 2, 3], vec![1.5, -2.0, 0.5])
            .unwrap();
        let s = SellMatrix::from_csr(&a).unwrap();
        assert_eq!(s.to_csr(), a);
        let mut y = vec![0.0];
        s.spmv(&[2.0, 9.0, 1.0, 4.0], &mut y);
        assert_eq!(y[0], 1.5 * 2.0 + -2.0 * 1.0 + 0.5 * 4.0);
    }

    #[test]
    fn empty_matrix_is_fine() {
        let a = CsrMatrix::from_raw_parts(0, 0, vec![0], vec![], vec![]).unwrap();
        let s = SellMatrix::from_csr(&a).unwrap();
        assert_eq!(s.padded_nnz(), 0);
        assert_eq!(s.fill_ratio(), 1.0);
        let mut y = vec![];
        s.spmv(&[], &mut y);
        assert_eq!(s.to_csr(), a);
    }

    #[test]
    fn padding_never_enters_the_sum() {
        // Padding slots hold col 0 / val 0.0. With x[0] = inf, multiplying
        // a padding slot in would contribute 0.0·inf = NaN; the per-row
        // length guard must keep the result bitwise equal to CSR.
        let a = CsrMatrix::from_raw_parts(
            9,
            9,
            vec![0, 1, 2, 2, 2, 2, 2, 2, 2, 2],
            vec![1, 2],
            vec![-0.0, 5.0],
        )
        .unwrap();
        let s = SellMatrix::from_csr(&a).unwrap();
        let mut x = vec![1.0; 9];
        x[0] = f64::INFINITY;
        let want = csr_reference(&a, &x);
        let mut y = vec![f64::NAN; 9];
        s.spmv(&x, &mut y);
        assert!(y.iter().all(|v| !v.is_nan()), "padding leaked into a sum");
        assert_eq!(
            y.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            want.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
        );
    }
}
