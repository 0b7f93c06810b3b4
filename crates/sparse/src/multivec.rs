//! Column-major blocks of vectors and the block linear-combination kernels.
//!
//! The s-step methods operate on `N × s` blocks (`Q`, `P`, `AQ`, the
//! matrix-of-matrices `AQm[j]`, …). [`MultiVector`] stores such a block
//! contiguously, one column after another, so each column is itself a
//! `&[f64]` usable by the scalar kernels.
//!
//! The block kernels (`X += Y·B`, `X = Y − Z·α`, Gram products `XᵀY`, the
//! fused recurrence sweeps) are row-chunked over the kernel engine
//! (`pscg_par`): every kernel walks fixed chunks of
//! [`pscg_par::knobs::gram_chunk_rows`] rows, computing all `s²` (resp.
//! `2s`) outputs per chunk while the chunk is cache-resident — one pass
//! over memory instead of the `O(s²)` column-pair re-reads of a naive
//! formulation. Updates write disjoint rows; reductions fold per-chunk
//! partials in chunk order. Both are bitwise independent of the thread
//! count, and a single-chunk problem reproduces the unchunked serial
//! result exactly.
//!
//! [`fused_recurrence_step`] goes one step further for the pipelined s-step
//! methods: the whole post-reduction recurrence phase — every conjugation
//! window, every basis shift and the Gram packet of the next reduction — is
//! one in-place pass that walks each row chunk in cache-sized sub-blocks,
//! so each column is read from memory once per iteration and written back
//! once (DESIGN.md §6). [`gram_packet`] is the packet part on its own, for
//! the methods and passes that have nothing to fuse it with.

use pscg_par::{chunk_count, chunk_range, knobs, DisjointMut, Pool};

use crate::dense::DenseMatrix;

/// A dense block of `ncols` vectors of length `len`, stored column-major.
#[derive(Debug, Clone, PartialEq)]
pub struct MultiVector {
    len: usize,
    ncols: usize,
    data: Vec<f64>,
}

impl MultiVector {
    /// A zero block of `ncols` vectors of length `len`.
    pub fn zeros(len: usize, ncols: usize) -> Self {
        MultiVector {
            len,
            ncols,
            data: vec![0.0; len * ncols],
        }
    }

    /// Builds a block from column slices (all of equal length).
    pub fn from_columns(cols: &[&[f64]]) -> Self {
        assert!(!cols.is_empty(), "from_columns: need at least one column");
        let len = cols[0].len();
        let mut data = Vec::with_capacity(len * cols.len());
        for c in cols {
            assert_eq!(c.len(), len, "from_columns: ragged columns");
            data.extend_from_slice(c);
        }
        MultiVector {
            len,
            ncols: cols.len(),
            data,
        }
    }

    /// Vector length (number of rows).
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the block has zero rows.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of columns.
    #[inline]
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// Column `j` as a slice.
    #[inline]
    pub fn col(&self, j: usize) -> &[f64] {
        debug_assert!(j < self.ncols);
        &self.data[j * self.len..(j + 1) * self.len]
    }

    /// Column `j` as a mutable slice.
    #[inline]
    pub fn col_mut(&mut self, j: usize) -> &mut [f64] {
        debug_assert!(j < self.ncols);
        &mut self.data[j * self.len..(j + 1) * self.len]
    }

    /// Two distinct columns, one mutable — needed when a column is computed
    /// from another column of the same block (e.g. building monomial bases).
    pub fn col_pair_mut(&mut self, src: usize, dst: usize) -> (&[f64], &mut [f64]) {
        assert_ne!(src, dst, "col_pair_mut: columns must differ");
        let n = self.len;
        if src < dst {
            let (a, b) = self.data.split_at_mut(dst * n);
            (&a[src * n..(src + 1) * n], &mut b[..n])
        } else {
            let (a, b) = self.data.split_at_mut(src * n);
            (&b[..n], &mut a[dst * n..(dst + 1) * n])
        }
    }

    /// Underlying storage (column-major).
    #[inline]
    pub fn data(&self) -> &[f64] {
        &self.data
    }

    /// Mutable underlying storage (column-major).
    #[inline]
    pub fn data_mut(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Sets every entry to zero.
    pub fn fill_zero(&mut self) {
        self.data.iter_mut().for_each(|v| *v = 0.0);
    }

    /// Copies block `other` into `self` (same shape).
    pub fn copy_from(&mut self, other: &MultiVector) {
        assert_eq!(self.len, other.len);
        assert_eq!(self.ncols, other.ncols);
        self.data.copy_from_slice(&other.data);
    }

    /// Block update `self += other · B` where `B` is `other.ncols × self.ncols`.
    ///
    /// This is the paper's recurrence linear combination
    /// `Q = Q + P[β¹, β², …, βˢ]` (Algorithm 4 line 10, Algorithm 5 line 17…).
    /// One pass per row chunk: each destination element is read and written
    /// once while all `k` sources accumulate in a register.
    pub fn add_mul(&mut self, other: &MultiVector, b: &DenseMatrix) {
        self.add_mul_with(&pscg_par::global(), other, b)
    }

    /// [`MultiVector::add_mul`] on an explicit pool.
    pub fn add_mul_with(&mut self, pool: &Pool, other: &MultiVector, b: &DenseMatrix) {
        assert_eq!(self.len, other.len, "add_mul: row mismatch");
        assert_eq!(b.nrows(), other.ncols, "add_mul: B rows != other cols");
        assert_eq!(b.ncols(), self.ncols, "add_mul: B cols != self cols");
        let (n, ncols) = (self.len, self.ncols);
        let other_cols = other.ncols;
        let dst = DisjointMut::new(&mut self.data);
        run_row_chunks(pool, n, &|clo, chi| {
            trace_read(other.data());
            for j in 0..ncols {
                // SAFETY: each chunk writes rows [clo, chi) of each column;
                // chunks are disjoint.
                let d = unsafe { dst.range(j * n + clo, j * n + chi) };
                // k ascends and zero coefficients are skipped exactly as in
                // the per-column formulation, so every element sees the same
                // accumulation chain (bitwise-equal results).
                for k in 0..other_cols {
                    let coef = b.get(k, j);
                    // pscg-lint: allow(float-eq, exact sparsity skip keeping accumulation chains bitwise-equal)
                    if coef == 0.0 {
                        continue;
                    }
                    crate::kernels::axpy_unrolled4(coef, &other.col(k)[clo..chi], d);
                }
            }
        });
    }

    /// `y += self · a` for a coefficient vector `a` of length `ncols`
    /// (the solution update `x_{i+1} = x_i + Qα`).
    pub fn gemv_acc(&self, a: &[f64], y: &mut [f64]) {
        self.gemv_acc_with(&pscg_par::global(), a, y)
    }

    /// [`MultiVector::gemv_acc`] on an explicit pool.
    pub fn gemv_acc_with(&self, pool: &Pool, a: &[f64], y: &mut [f64]) {
        assert_eq!(a.len(), self.ncols, "gemv_acc: coefficient length");
        assert_eq!(y.len(), self.len, "gemv_acc: output length");
        let n = self.len;
        let dst = DisjointMut::new(y);
        run_row_chunks(pool, n, &|clo, chi| {
            trace_read(self.data());
            // SAFETY: chunks are disjoint.
            let d = unsafe { dst.range(clo, chi) };
            for (k, &coef) in a.iter().enumerate() {
                // pscg-lint: allow(float-eq, exact sparsity skip keeping accumulation chains bitwise-equal)
                if coef == 0.0 {
                    continue;
                }
                crate::kernels::axpy_unrolled4(coef, &self.col(k)[clo..chi], d);
            }
        });
    }

    /// `y -= self · a` (the residual update `r_{i+1} = r_i − AQα`).
    pub fn gemv_sub(&self, a: &[f64], y: &mut [f64]) {
        self.gemv_sub_with(&pscg_par::global(), a, y)
    }

    /// [`MultiVector::gemv_sub`] on an explicit pool.
    pub fn gemv_sub_with(&self, pool: &Pool, a: &[f64], y: &mut [f64]) {
        assert_eq!(a.len(), self.ncols, "gemv_sub: coefficient length");
        assert_eq!(y.len(), self.len, "gemv_sub: output length");
        let n = self.len;
        let dst = DisjointMut::new(y);
        run_row_chunks(pool, n, &|clo, chi| {
            trace_read(self.data());
            // SAFETY: chunks are disjoint.
            let d = unsafe { dst.range(clo, chi) };
            for (k, &coef) in a.iter().enumerate() {
                // pscg-lint: allow(float-eq, exact sparsity skip keeping accumulation chains bitwise-equal)
                if coef == 0.0 {
                    continue;
                }
                crate::kernels::axmy_unrolled4(coef, &self.col(k)[clo..chi], d);
            }
        });
    }

    /// Fused recurrence sweep `self = src[:, off..off+ncols] + prev · B` —
    /// the s-step conjugation update (`Q = R + P[β¹…βˢ]`) as one pass over
    /// the rows instead of a column-copy pass followed by an `add_mul` pass.
    /// Bitwise identical to `copy` + [`MultiVector::add_mul`].
    pub fn combine_window(
        &mut self,
        src: &MultiVector,
        off: usize,
        prev: &MultiVector,
        b: &DenseMatrix,
    ) {
        self.combine_window_with(&pscg_par::global(), src, off, prev, b)
    }

    /// [`MultiVector::combine_window`] on an explicit pool.
    pub fn combine_window_with(
        &mut self,
        pool: &Pool,
        src: &MultiVector,
        off: usize,
        prev: &MultiVector,
        b: &DenseMatrix,
    ) {
        assert_eq!(self.len, src.len, "combine: src row mismatch");
        assert_eq!(self.len, prev.len, "combine: prev row mismatch");
        assert!(off + self.ncols <= src.ncols, "combine: src window");
        assert_eq!(b.nrows(), prev.ncols, "combine: B rows != prev cols");
        assert_eq!(b.ncols(), self.ncols, "combine: B cols != self cols");
        let (n, ncols) = (self.len, self.ncols);
        let prev_cols = prev.ncols;
        let dst = DisjointMut::new(&mut self.data);
        run_row_chunks(pool, n, &|clo, chi| {
            trace_read(src.data());
            trace_read(prev.data());
            for j in 0..ncols {
                // SAFETY: chunks are disjoint.
                let d = unsafe { dst.range(j * n + clo, j * n + chi) };
                d.copy_from_slice(&src.col(off + j)[clo..chi]);
                for k in 0..prev_cols {
                    let coef = b.get(k, j);
                    // pscg-lint: allow(float-eq, exact sparsity skip keeping accumulation chains bitwise-equal)
                    if coef == 0.0 {
                        continue;
                    }
                    crate::kernels::axpy_unrolled4(coef, &prev.col(k)[clo..chi], d);
                }
            }
        });
    }

    /// Gram product `selfᵀ · other` as a dense `ncols × other.ncols` matrix,
    /// computed over rows `[lo, hi)` only (the local window of a rank; pass
    /// `0..len` for the global product). All entries of a row chunk are
    /// formed while the chunk is cache-resident; per-chunk partial matrices
    /// fold in chunk order (deterministic at any thread count).
    pub fn gram_window(&self, other: &MultiVector, lo: usize, hi: usize) -> DenseMatrix {
        self.gram_window_with(&pscg_par::global(), other, lo, hi)
    }

    /// [`MultiVector::gram_window`] on an explicit pool.
    pub fn gram_window_with(
        &self,
        pool: &Pool,
        other: &MultiVector,
        lo: usize,
        hi: usize,
    ) -> DenseMatrix {
        assert_eq!(self.len, other.len, "gram: row mismatch");
        assert!(hi <= self.len && lo <= hi);
        gram_chunked(pool, self, 0..self.ncols, other, 0..other.ncols, lo, hi)
    }

    /// Gram product over all rows.
    pub fn gram(&self, other: &MultiVector) -> DenseMatrix {
        self.gram_window(other, 0, self.len)
    }

    /// [`MultiVector::gram`] on an explicit pool.
    pub fn gram_with(&self, pool: &Pool, other: &MultiVector) -> DenseMatrix {
        self.gram_window_with(pool, other, 0, self.len)
    }

    /// Gram product between column ranges: `self[:, xr]ᵀ · other[:, yr]`.
    /// The s-step methods use this to form moment matrices between shifted
    /// windows of one power list (e.g. `N_{jk} = (A^j r, A^{k+1} r)`).
    pub fn gram_range(
        &self,
        xr: std::ops::Range<usize>,
        other: &MultiVector,
        yr: std::ops::Range<usize>,
    ) -> DenseMatrix {
        self.gram_range_with(&pscg_par::global(), xr, other, yr)
    }

    /// [`MultiVector::gram_range`] on an explicit pool.
    pub fn gram_range_with(
        &self,
        pool: &Pool,
        xr: std::ops::Range<usize>,
        other: &MultiVector,
        yr: std::ops::Range<usize>,
    ) -> DenseMatrix {
        assert_eq!(self.len, other.len, "gram_range: row mismatch");
        assert!(xr.end <= self.ncols && yr.end <= other.ncols);
        gram_chunked(pool, self, xr, other, yr, 0, self.len)
    }

    /// `selfᵀ · v` over rows `[lo, hi)`, one dot per column — all columns
    /// per row chunk, partials folded in chunk order.
    pub fn dot_vec_window(&self, v: &[f64], lo: usize, hi: usize) -> Vec<f64> {
        self.dot_vec_window_with(&pscg_par::global(), v, lo, hi)
    }

    /// [`MultiVector::dot_vec_window`] on an explicit pool.
    pub fn dot_vec_window_with(&self, pool: &Pool, v: &[f64], lo: usize, hi: usize) -> Vec<f64> {
        assert_eq!(v.len(), self.len, "dot_vec: length mismatch");
        assert!(hi <= self.len && lo <= hi);
        let ncols = self.ncols;
        let chunk = knobs::gram_chunk_rows();
        let nchunks = chunk_count(hi - lo, chunk);
        if nchunks == 0 {
            return vec![0.0; ncols];
        }
        // Preallocated flat partials, one stripe per chunk: workers never
        // allocate (see `gram_chunked` on why that matters for tracing).
        let mut partials = vec![0.0f64; nchunks * ncols];
        {
            let slots = DisjointMut::new(&mut partials);
            pool.run(nchunks, &|c| {
                let (clo, chi) = chunk_range(hi - lo, chunk, c);
                let (clo, chi) = (lo + clo, lo + chi);
                trace_read(self.data());
                trace_read(v);
                // SAFETY: stripes are disjoint per chunk index.
                let out = unsafe { slots.range(c * ncols, (c + 1) * ncols) };
                for (oj, j) in out.iter_mut().zip(0..ncols) {
                    *oj = crate::kernels::dot(&self.col(j)[clo..chi], &v[clo..chi]);
                }
            });
        }
        fold_partial_stripes(&partials, nchunks, ncols)
    }

    /// `selfᵀ · v` over all rows.
    pub fn dot_vec(&self, v: &[f64]) -> Vec<f64> {
        self.dot_vec_window(v, 0, self.len)
    }
}

/// One power family of the pipelined s-step recurrence phase: the basis
/// `pow[j] = Aʲr`, the direction block `dirs` and its A-power blocks
/// `apow[w] = A^{w+1}·dirs`, all updated in place. PIPE-sCG carries one
/// family; PIPE-PsCG carries two (the u-type and the r-type lists) that
/// share the conjugation matrix and step vector.
pub struct RecurrenceFamily<'a> {
    /// Basis, at least `2s + 1` columns; a shifting pass replaces columns
    /// `0..=s` by the next basis and leaves the deep powers alone.
    pub pow: &'a mut MultiVector,
    /// Direction block (`s` columns), conjugated in place.
    pub dirs: &'a mut MultiVector,
    /// A-power blocks (`s + 1` blocks of `s` columns), conjugated in place.
    pub apow: &'a mut [MultiVector],
}

/// Doubles in the flat Gram packet of an s-step iteration: `N` and `C`
/// (`s × s` each, row-major), `g1` and `g2` (`s` each), the three norms.
pub fn gram_packet_len(s: usize) -> usize {
    2 * s * s + 2 * s + 3
}

/// Partial sums kept per packet entry and row chunk: the four accumulator
/// lanes of [`crate::kernels::dot`] and its tail.
const PACKET_LANES: usize = 5;

/// The local Gram packet of one s-step iteration in the layout the
/// allreduce carries — `N = upow[0..s]ᵀ·rpow[1..=s]`,
/// `C = udirsᵀ·rpow[1..=s]`, `g1 = upow[0..s]ᵀ·r`, `g2 = udirsᵀ·r`,
/// `(r·r, u·u, r·u)` with `r = rpow[0]`, `u = upow[0]` — together with the
/// per-chunk scratch it is folded from. A solver owns one and hands it to
/// [`gram_packet`] or [`fused_recurrence_step`] every iteration; after the
/// first call at a given length neither allocates.
#[derive(Debug, Clone)]
pub struct GramPacketBuf {
    s: usize,
    flat: Vec<f64>,
    partials: Vec<f64>,
}

impl GramPacketBuf {
    /// A zero packet for block size `s`.
    pub fn new(s: usize) -> Self {
        GramPacketBuf {
            s,
            flat: vec![0.0; gram_packet_len(s)],
            partials: Vec::new(),
        }
    }

    /// The block size the packet was made for.
    pub fn s(&self) -> usize {
        self.s
    }

    /// The packet, [`gram_packet_len`] doubles.
    pub fn flat(&self) -> &[f64] {
        &self.flat
    }

    /// Room for the partial sums of `nchunks` row chunks.
    fn stripes(&mut self, nchunks: usize) -> DisjointMut<'_, f64> {
        let need = nchunks * PACKET_LANES * self.flat.len();
        if self.partials.len() < need {
            self.partials.resize(need, 0.0);
        }
        DisjointMut::new(&mut self.partials[..need])
    }

    /// Folds the per-chunk partial sums into the packet: each chunk's entry
    /// is `(a0 + a1) + (a2 + a3) + tail` as [`crate::kernels::dot`] ends,
    /// chunk 0 starts the sum and the rest are added in chunk order — what
    /// [`MultiVector::gram_range`] does with its per-chunk dots.
    fn fold(&mut self, nchunks: usize) {
        let plen = self.flat.len();
        let stripe = PACKET_LANES * plen;
        for (e, out) in self.flat.iter_mut().enumerate() {
            let mut sum = 0.0;
            for c in 0..nchunks {
                let a = &self.partials[c * stripe + e * PACKET_LANES..][..PACKET_LANES];
                let chunk = (a[0] + a[1]) + (a[2] + a[3]) + a[4];
                sum = if c == 0 { chunk } else { sum + chunk };
            }
            *out = sum;
        }
        // r·u is g1[0] (the same products in the same order).
        self.flat[plen - 1] = self.flat[2 * self.s * self.s];
    }
}

/// Families one fused pass can carry (PIPE-PsCG's dual lists).
const MAX_FAMILIES: usize = 2;

/// Blocks whose handles fit the fused pass's stack array: two families up
/// to `s = 15`. A larger `s` costs one heap allocation per call instead.
const INLINE_BLOCKS: usize = MAX_FAMILIES * 18;

/// Cache budget of one sub-block of the fused pass: rows are sized so that
/// every column one family touches fits in this many bytes, which keeps
/// the freshly conjugated `apow` rows, the overlapping `pow` windows and
/// the columns the Gram packet reads resident in a private L2 between
/// their uses.
const FUSED_BLOCK_BYTES: usize = 256 * 1024;

/// Rows per sub-block for `s`-column blocks: [`FUSED_BLOCK_BYTES`] over the
/// columns of one family, a multiple of 8 (so the packet's four accumulator
/// lanes line up across sub-blocks), at least 64.
fn fused_block_rows(s: usize) -> usize {
    // pow 2s+1, dirs s, apow s(s+1).
    let live_cols = s * s + 4 * s + 1;
    (FUSED_BLOCK_BYTES / (8 * live_cols) / 8 * 8).max(64)
}

/// One accumulation step of [`lincomb_rows`]: `acc ± c·v`, the product
/// rounded before the sum exactly as in `y[i] += c * x[i]`.
#[inline(always)]
fn lincomb_term<const SUB: bool>(acc: f64, c: f64, v: f64) -> f64 {
    if SUB {
        acc - c * v
    } else {
        acc + c * v
    }
}

/// `dst[i] = (…((base[i] ± c₀·x₀[i]) ± c₁·x₁[i]) …)` for `N` terms, where
/// `base` is `src` when given and `dst` itself otherwise.
#[inline(always)]
fn lincomb_group<const N: usize, const SUB: bool>(
    dst: &mut [f64],
    src: Option<&[f64]>,
    coef: &[f64],
    cols: &[&[f64]],
) {
    let len = dst.len();
    let coef: [f64; N] = std::array::from_fn(|t| coef[t]);
    let cols: [&[f64]; N] = std::array::from_fn(|t| &cols[t][..len]);
    match src {
        Some(src) => {
            let src = &src[..len];
            for i in 0..len {
                let mut acc = src[i];
                for t in 0..N {
                    acc = lincomb_term::<SUB>(acc, coef[t], cols[t][i]);
                }
                dst[i] = acc;
            }
        }
        None => {
            for i in 0..len {
                let mut acc = dst[i];
                for t in 0..N {
                    acc = lincomb_term::<SUB>(acc, coef[t], cols[t][i]);
                }
                dst[i] = acc;
            }
        }
    }
}

/// `dst = src ± Σₖ coef(k)·col(k)` over equally long row slices (`src =
/// None`: `dst` is updated in place), `k` ascending and zero coefficients
/// skipped. Per element this is the accumulation chain of a copy followed
/// by one AXPY pass per `k` ([`MultiVector::combine_window`],
/// [`MultiVector::gemv_sub`]) — same operations, same order, same
/// roundings — but up to four terms are folded per sweep, so `dst` is
/// stored once per group instead of once per term.
#[inline]
fn lincomb_rows<'c, const SUB: bool>(
    dst: &mut [f64],
    src: Option<&[f64]>,
    nterms: usize,
    coef: impl Fn(usize) -> f64,
    col: impl Fn(usize) -> &'c [f64],
) {
    let mut base = src;
    let mut k = 0;
    while k < nterms {
        let mut cs = [0.0; 4];
        let mut xs: [&[f64]; 4] = [&[]; 4];
        let mut g = 0;
        while k < nterms && g < 4 {
            let c = coef(k);
            // pscg-lint: allow(float-eq, exact sparsity skip keeping accumulation chains bitwise-equal)
            if c != 0.0 {
                (cs[g], xs[g]) = (c, col(k));
                g += 1;
            }
            k += 1;
        }
        match g {
            0 => break,
            1 => lincomb_group::<1, SUB>(dst, base, &cs, &xs),
            2 => lincomb_group::<2, SUB>(dst, base, &cs, &xs),
            3 => lincomb_group::<3, SUB>(dst, base, &cs, &xs),
            _ => lincomb_group::<4, SUB>(dst, base, &cs, &xs),
        }
        base = None;
    }
    if let Some(src) = base {
        dst.copy_from_slice(src);
    }
}

/// In-place conjugation of an `S`-column block over equally long row
/// slices: `cols[j] = src[j] + Σₖ cols[k]·coef[j][k]` with every `cols[k]`
/// on the right the value *before* the update, so each row is loaded
/// whole, combined, and stored back. All `S²` coefficients are non-zero
/// (the caller checks), which makes every element's chain the copy
/// followed by all `S` terms, `k` ascending. Four rows are handled per
/// step from local copies, so no store can alias a later load.
#[inline(always)]
fn conjugate_rows<const S: usize>(cols: [&mut [f64]; S], src: [&[f64]; S], coef: &[[f64; S]; S]) {
    let len = cols[0].len();
    let quads = len / 4;
    for q in 0..quads {
        let at = 4 * q;
        let old: [[f64; 4]; S] = std::array::from_fn(|k| {
            let c = &cols[k][at..at + 4];
            [c[0], c[1], c[2], c[3]]
        });
        for j in 0..S {
            let x = &src[j][at..at + 4];
            let mut acc = [x[0], x[1], x[2], x[3]];
            for k in 0..S {
                for t in 0..4 {
                    acc[t] += coef[j][k] * old[k][t];
                }
            }
            cols[j][at..at + 4].copy_from_slice(&acc);
        }
    }
    for i in 4 * quads..len {
        let old: [f64; S] = std::array::from_fn(|k| cols[k][i]);
        for j in 0..S {
            let mut acc = src[j][i];
            for k in 0..S {
                acc += coef[j][k] * old[k];
            }
            cols[j][i] = acc;
        }
    }
}

/// Doubles of the stack tile [`conjugate_tiled`] copies old block rows to.
const CONJ_TILE_DOUBLES: usize = 2048;

/// In-place conjugation for any `s` and any coefficient pattern: the old
/// rows of the block are copied to a stack tile a few rows at a time and
/// each column is rebuilt from it with [`lincomb_rows`]. A column whose
/// coefficients are all zero is not read: the first pass of a solve
/// (`B = 0`, blocks never written) then only writes its blocks, so their
/// pages are touched once, by a store.
fn conjugate_tiled<'c>(
    s: usize,
    rows: usize,
    col: impl Fn(usize, usize, usize) -> &'c mut [f64],
    src: impl Fn(usize, usize, usize) -> &'c [f64],
    b: &DenseMatrix,
) {
    let mut tile = [0.0f64; CONJ_TILE_DOUBLES];
    let step = CONJ_TILE_DOUBLES / s;
    let mut lo = 0;
    while lo < rows {
        let hi = (lo + step).min(rows);
        let len = hi - lo;
        for k in 0..s {
            // pscg-lint: allow(float-eq, exact sparsity skip keeping accumulation chains bitwise-equal)
            if (0..s).any(|j| b.get(k, j) != 0.0) {
                tile[k * len..(k + 1) * len].copy_from_slice(col(k, lo, hi));
            }
        }
        let tile = &tile;
        for j in 0..s {
            let (coef, old) = (|k| b.get(k, j), |k| &tile[k * len..(k + 1) * len]);
            lincomb_rows::<false>(col(j, lo, hi), Some(src(j, lo, hi)), s, coef, old);
        }
        lo = hi;
    }
}

/// Adds the products of rows of `x` with rows of each of `ys` to the
/// accumulator lanes of the packet entries `entries` in `stripe`. Lane `t`
/// takes the rows at offset `t` (mod 4) as long as whole quads remain and
/// the tail lane the rest, exactly as [`crate::kernels::dot`] splits one
/// chunk — provided every call but a chunk's last brings a multiple of
/// four rows.
#[inline(always)]
fn packet_dots<const R: usize>(
    x: &[f64],
    ys: [&[f64]; R],
    entries: [usize; R],
    stripe: &mut [f64],
) {
    let len = x.len();
    let ys: [&[f64]; R] = ys.map(|y| &y[..len]);
    let mut acc: [[f64; PACKET_LANES]; R] = std::array::from_fn(|r| {
        let a = &stripe[entries[r] * PACKET_LANES..][..PACKET_LANES];
        [a[0], a[1], a[2], a[3], a[4]]
    });
    debug_assert!(len.is_multiple_of(4) || acc.iter().all(|a| a[4].to_bits() == 0));
    let quads = len / 4;
    for q in 0..quads {
        let at = 4 * q;
        let xv = &x[at..at + 4];
        for r in 0..R {
            let yv = &ys[r][at..at + 4];
            for t in 0..4 {
                acc[r][t] += xv[t] * yv[t];
            }
        }
    }
    for i in 4 * quads..len {
        for r in 0..R {
            acc[r][4] += x[i] * ys[r][i];
        }
    }
    for r in 0..R {
        stripe[entries[r] * PACKET_LANES..][..PACKET_LANES].copy_from_slice(&acc[r]);
    }
}

/// Adds one row range's share of every packet entry to `stripe`: `left(l)`
/// is `upow[l]` for `l < s` and `udirs[l − s]` after, `right(r)` is
/// `rpow[r]`, each already cut to the rows. A left column meets all `s + 1`
/// right columns while it is in registers, four at a time.
fn packet_rows<'c>(
    s: usize,
    stripe: &mut [f64],
    left: impl Fn(usize) -> &'c [f64],
    right: impl Fn(usize) -> &'c [f64],
) {
    // N and C rows are contiguous, `l·s + (r − 1)`; g1 and g2 follow them.
    let entry = |l: usize, r: usize| match r {
        0 => 2 * s * s + l,
        _ => l * s + r - 1,
    };
    for l in 0..2 * s {
        let x = left(l);
        let mut r = 0;
        while r <= s {
            let ys = |t| right(r + t);
            let es = |t| entry(l, r + t);
            use std::array::from_fn;
            match s + 1 - r {
                1 => packet_dots::<1>(x, from_fn(ys), from_fn(es), stripe),
                2 => packet_dots::<2>(x, from_fn(ys), from_fn(es), stripe),
                3 => packet_dots::<3>(x, from_fn(ys), from_fn(es), stripe),
                _ => packet_dots::<4>(x, from_fn(ys), from_fn(es), stripe),
            }
            r += 4;
        }
    }
    let norms = 2 * s * s + 2 * s;
    packet_dots::<1>(right(0), [right(0)], [norms], stripe);
    packet_dots::<1>(left(0), [left(0)], [norms + 1], stripe);
}

/// The local Gram packet of the bases `upow` / `rpow` (at least `s` and
/// `s + 1` columns; the same block twice when unpreconditioned) and the
/// direction block `udirs`, as one pass that reads each of the `3s + 1`
/// columns once per cache-sized sub-block. Every entry is a per-chunk
/// [`crate::kernels::dot`] folded in chunk order, so `N` and `C` are
/// bitwise [`MultiVector::gram_range`]'s and all entries are bitwise
/// independent of the thread count.
pub fn gram_packet(
    upow: &MultiVector,
    rpow: &MultiVector,
    udirs: &MultiVector,
    packet: &mut GramPacketBuf,
) {
    gram_packet_with(&pscg_par::global(), upow, rpow, udirs, packet)
}

/// [`gram_packet`] on an explicit pool.
pub fn gram_packet_with(
    pool: &Pool,
    upow: &MultiVector,
    rpow: &MultiVector,
    udirs: &MultiVector,
    packet: &mut GramPacketBuf,
) {
    let s = packet.s;
    let n = upow.len;
    assert!(rpow.len == n && udirs.len == n, "gram packet: row mismatch");
    assert!(
        upow.ncols >= s && rpow.ncols > s && udirs.ncols >= s,
        "gram packet: too few columns"
    );
    let chunk = knobs::gram_chunk_rows();
    let nchunks = chunk_count(n, chunk);
    let width = PACKET_LANES * packet.flat.len();
    let block_rows = fused_block_rows(s);
    let stripes = packet.stripes(nchunks);
    pool.run(nchunks, &|c| {
        let (clo, chi) = chunk_range(n, chunk, c);
        trace_read(upow.data());
        trace_read(rpow.data());
        trace_read(udirs.data());
        // SAFETY: one chunk index owns exactly one stripe.
        let stripe = unsafe { stripes.range(c * width, (c + 1) * width) };
        stripe.fill(0.0);
        let mut lo = clo;
        while lo < chi {
            let hi = (lo + block_rows).min(chi);
            let left = |l: usize| match l < s {
                true => &upow.col(l)[lo..hi],
                false => &udirs.col(l - s)[lo..hi],
            };
            packet_rows(s, stripe, left, |r| &rpow.col(r)[lo..hi]);
            lo = hi;
        }
    });
    packet.fold(nchunks);
}

/// The whole recurrence phase of one pipelined s-step iteration as a single
/// in-place pass over the rows. For every family it conjugates the
/// direction block and all `s + 1` A-power blocks
/// (`dirs ← pow[:, 0..s] + dirs·B`, `apow[w] ← pow[:, w+1..w+1+s] +
/// apow[w]·B`); when `shift` is set it then forms the next basis
/// `pow[w] ← pow[w] − apow[w]·α` for `w = 0..=s` and leaves the local Gram
/// packet of the new bases in `packet` (`upow` / `udirs` from the first
/// family, `rpow` from the last). A residual-replacement pass conjugates
/// only (`shift = false`, `packet` untouched) and recomputes its basis and
/// packet explicitly.
///
/// Each row chunk is walked in sub-blocks small enough to stay
/// cache-resident. Per sub-block every conjugation of every family runs
/// first — they read the *old* `pow` — then every shift reads the `apow`
/// rows just written, then the packet's dot products read the new rows
/// while they are still in cache. Each column is therefore streamed from
/// memory once and written back once, and nothing is written that was not
/// read first. Per element the arithmetic is that of
/// [`MultiVector::combine_window`] on a copy of the block followed by
/// [`MultiVector::gemv_sub`] (copy, then `k` ascending, zero coefficients
/// skipped), and the packet is bitwise [`gram_packet`]'s, at every thread
/// count. The call allocates only when `packet` sees a longer vector than
/// before.
pub fn fused_recurrence_step(
    families: &mut [RecurrenceFamily<'_>],
    b: &DenseMatrix,
    alpha: &[f64],
    shift: bool,
    packet: &mut GramPacketBuf,
) {
    fused_recurrence_step_with(&pscg_par::global(), families, b, alpha, shift, packet)
}

/// [`fused_recurrence_step`] on an explicit pool.
pub fn fused_recurrence_step_with(
    pool: &Pool,
    families: &mut [RecurrenceFamily<'_>],
    b: &DenseMatrix,
    alpha: &[f64],
    shift: bool,
    packet: &mut GramPacketBuf,
) {
    let s = b.nrows();
    assert_eq!(b.ncols(), s, "fused step: B must be square");
    assert_eq!(alpha.len(), s, "fused step: coefficient length");
    assert_eq!(packet.s, s, "fused step: packet block size");
    assert!(
        (1..=CONJ_TILE_DOUBLES / 8).contains(&s),
        "fused step: block size out of range"
    );
    assert!(
        (1..=MAX_FAMILIES).contains(&families.len()),
        "fused step: one or two families"
    );
    let (n, nfam) = (families[0].pow.len, families.len());
    let nw = s + 1;

    // Handles per family: dirs, the nw apow blocks, pow. Unused slots wrap
    // an empty slice.
    let per_family = nw + 2;
    let nblocks = nfam * per_family;
    let mut inline: [DisjointMut<'_, f64>; INLINE_BLOCKS] =
        std::array::from_fn(|_| DisjointMut::new(&mut []));
    let mut spill = Vec::new();
    let blocks: &mut [DisjointMut<'_, f64>] = if nblocks <= INLINE_BLOCKS {
        &mut inline[..nblocks]
    } else {
        spill.resize_with(nblocks, || DisjointMut::new(&mut []));
        &mut spill
    };
    for (fam, blk) in families.iter_mut().zip(blocks.chunks_mut(per_family)) {
        let shaped = |m: &MultiVector| m.len == n && m.ncols == s;
        assert_eq!(fam.apow.len(), nw, "fused step: A-power block count");
        assert!(
            fam.pow.len == n && fam.pow.ncols >= nw + s,
            "fused step: pow window"
        );
        assert!(
            shaped(fam.dirs) && fam.apow.iter().all(shaped),
            "fused step: block shape mismatch"
        );
        blk[0] = DisjointMut::new(&mut fam.dirs.data);
        for (h, m) in blk[1..=nw].iter_mut().zip(fam.apow.iter_mut()) {
            *h = DisjointMut::new(&mut m.data);
        }
        blk[nw + 1] = DisjointMut::new(&mut fam.pow.data);
    }
    let blocks = &*blocks;

    // The row-wise kernel needs every coefficient in play; an exact zero in
    // B (the first pass has B = 0) takes the tiled path, which skips it.
    // pscg-lint: allow(float-eq, exact sparsity skip keeping accumulation chains bitwise-equal)
    let dense = s <= 4 && b.data().iter().all(|&v| v != 0.0);
    let block_rows = fused_block_rows(s);
    let chunk = knobs::gram_chunk_rows();
    let nchunks = chunk_count(n, chunk);
    let width = PACKET_LANES * packet.flat.len();
    let stripes = packet.stripes(if shift { nchunks } else { 0 });

    pool.run(nchunks, &|c| {
        let (clo, chi) = chunk_range(n, chunk, c);
        // SAFETY: one chunk index owns exactly one stripe.
        let mut stripe = shift.then(|| unsafe { stripes.range(c * width, (c + 1) * width) });
        if let Some(stripe) = stripe.as_deref_mut() {
            stripe.fill(0.0);
        }
        let mut lo = clo;
        while lo < chi {
            let hi = (lo + block_rows).min(chi);
            // Row chunks are disjoint and so are the sub-blocks of one
            // chunk, so no other job touches rows `[lo, hi)`. Within this
            // job a statement borrows the rows of a column mutably only
            // while no other view of that column is alive: a conjugation
            // holds the `s` distinct columns of its block mutably and reads
            // `pow`; a shift holds one `pow` column mutably and reads its
            // `apow` block; the packet only reads.
            //
            // Rows `[lo + from, lo + to)` of column `col` of block `blk`,
            // to update.
            // SAFETY: the rows are this job's, and the statements below
            // never hold two views of one column (see above).
            let rows_mut = |blk: usize, col: usize, from: usize, to: usize| unsafe {
                blocks[blk].range(col * n + lo + from, col * n + lo + to)
            };
            // Rows `[lo, hi)` of column `col` of block `blk`, to read.
            // SAFETY: the rows are this job's, and no statement below reads
            // a column it holds mutably (see above).
            let rows = |blk: usize, col: usize| unsafe {
                blocks[blk].range_ref(col * n + lo, col * n + hi)
            };
            for f in 0..nfam {
                let (dirs, pow) = (f * per_family, f * per_family + nw + 1);
                // Block `dirs` takes the window at 0, `apow[w]` the one at
                // `w + 1`.
                for w in 0..=nw {
                    let blk = dirs + w;
                    if dense {
                        let col = |j| rows_mut(blk, j, 0, hi - lo);
                        let src = |j| rows(pow, w + j);
                        match s {
                            1 => conjugate_block::<1>(col, src, b),
                            2 => conjugate_block::<2>(col, src, b),
                            3 => conjugate_block::<3>(col, src, b),
                            _ => conjugate_block::<4>(col, src, b),
                        }
                    } else {
                        conjugate_tiled(
                            s,
                            hi - lo,
                            |j, from, to| rows_mut(blk, j, from, to),
                            |j, from, to| &rows(pow, w + j)[from..to],
                            b,
                        );
                    }
                }
                if !shift {
                    continue;
                }
                // The shifts read back the apow rows this job wrote a
                // moment ago, while they are still cache-resident.
                for w in 0..nw {
                    let (coef, col) = (|k| alpha[k], |k| rows(dirs + 1 + w, k));
                    lincomb_rows::<true>(rows_mut(pow, w, 0, hi - lo), None, s, coef, col);
                }
            }
            if let Some(stripe) = stripe.as_deref_mut() {
                let (upow, rpow) = (nw + 1, (nfam - 1) * per_family + nw + 1);
                let left = |l: usize| match l < s {
                    true => rows(upow, l),
                    false => rows(0, l - s),
                };
                packet_rows(s, stripe, left, |r| rows(rpow, r));
            }
            lo = hi;
        }
    });
    if shift {
        packet.fold(nchunks);
    }
}

/// [`conjugate_rows`] on the `S` columns `col(j)` of a block with the
/// fresh window `src(j)` and the coefficients of `b`.
#[inline(always)]
fn conjugate_block<'c, const S: usize>(
    col: impl Fn(usize) -> &'c mut [f64],
    src: impl Fn(usize) -> &'c [f64],
    b: &DenseMatrix,
) {
    let coef: [[f64; S]; S] = std::array::from_fn(|j| std::array::from_fn(|k| b.get(k, j)));
    conjugate_rows::<S>(std::array::from_fn(col), std::array::from_fn(src), &coef);
}

/// Runs `body(chunk_lo, chunk_hi)` over the fixed row chunks of `[0, n)`;
/// inline when a single chunk suffices or the pool is serial.
fn run_row_chunks(pool: &Pool, n: usize, body: &(dyn Fn(usize, usize) + Sync)) {
    let chunk = knobs::gram_chunk_rows();
    let nchunks = chunk_count(n, chunk);
    pool.run(nchunks, &|c| {
        let (clo, chi) = chunk_range(n, chunk, c);
        body(clo, chi);
    });
}

/// Records a whole-buffer read for the race detector (no-op unless
/// [`pscg_par::sync_trace`] recording is on). Reads are deliberately
/// over-approximated to the full buffer: source operands are shared `&`
/// borrows, so the only conflicts a read can participate in are against
/// writes from *other* kernel invocations — and those are whole-buffer
/// ordered by the pool's publish/join protocol, not by row ranges.
#[inline]
fn trace_read(buf: &[f64]) {
    pscg_par::sync_trace::record_read(buf, 0, buf.len());
}

/// Chunk-blocked Gram product `x[:, xr]ᵀ · y[:, yr]` over rows `[lo, hi)`.
fn gram_chunked(
    pool: &Pool,
    x: &MultiVector,
    xr: std::ops::Range<usize>,
    y: &MultiVector,
    yr: std::ops::Range<usize>,
    lo: usize,
    hi: usize,
) -> DenseMatrix {
    let chunk = knobs::gram_chunk_rows();
    let nchunks = chunk_count(hi - lo, chunk);
    if nchunks == 0 {
        return DenseMatrix::zeros(xr.len(), yr.len());
    }
    // Every per-chunk partial is preallocated on the calling thread: worker
    // threads must never touch the allocator, or the heap layout (and with
    // it SimCtx's address-based BufId interning) would depend on the pool
    // width and traced runs would stop being reproducible across it.
    let mut partials: Vec<DenseMatrix> = (0..nchunks)
        .map(|_| DenseMatrix::zeros(xr.len(), yr.len()))
        .collect();
    {
        let slots = DisjointMut::new(&mut partials);
        pool.run(nchunks, &|c| {
            let (clo, chi) = chunk_range(hi - lo, chunk, c);
            let (clo, chi) = (lo + clo, lo + chi);
            trace_read(x.data());
            trace_read(y.data());
            // SAFETY: one chunk index owns exactly one slot.
            let g = &mut unsafe { slots.range(c, c + 1) }[0];
            for (gi, i) in xr.clone().enumerate() {
                let xi = &x.col(i)[clo..chi];
                for (gj, j) in yr.clone().enumerate() {
                    g.set(gi, gj, crate::kernels::dot(xi, &y.col(j)[clo..chi]));
                }
            }
        });
    }
    // Ordered combine: start from chunk 0 (a lone chunk reproduces the
    // unchunked dot bitwise) and add the rest in chunk order.
    let mut it = partials.into_iter();
    let mut g = it.next().unwrap(); // pscg-lint: allow(panic-in-hot-path, chunking always yields at least one partial)
    for p in it {
        for (gi, pi) in g.data_mut().iter_mut().zip(p.data()) {
            *gi += pi;
        }
    }
    g
}

/// Ordered combine of per-chunk partial stripes: the result starts as
/// chunk 0's stripe (a lone chunk reproduces the unchunked dots bitwise)
/// and the remaining stripes are added in chunk order.
fn fold_partial_stripes(partials: &[f64], nchunks: usize, ncols: usize) -> Vec<f64> {
    let mut out = partials[..ncols].to_vec();
    for c in 1..nchunks {
        for (oi, pi) in out.iter_mut().zip(&partials[c * ncols..(c + 1) * ncols]) {
            *oi += pi;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mv(cols: &[&[f64]]) -> MultiVector {
        MultiVector::from_columns(cols)
    }

    #[test]
    fn construction_and_access() {
        let m = mv(&[&[1.0, 2.0], &[3.0, 4.0]]);
        assert_eq!(m.len(), 2);
        assert_eq!(m.ncols(), 2);
        assert_eq!(m.col(0), &[1.0, 2.0]);
        assert_eq!(m.col(1), &[3.0, 4.0]);
    }

    #[test]
    fn add_mul_matches_dense_algebra() {
        // X (2x2) += Y (2x2) * B (2x2)
        let mut x = mv(&[&[1.0, 0.0], &[0.0, 1.0]]);
        let y = mv(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = DenseMatrix::from_rows(&[&[1.0, -1.0], &[0.5, 2.0]]);
        x.add_mul(&y, &b);
        // col0 += 1*y0 + 0.5*y1 ; col1 += -1*y0 + 2*y1
        assert_eq!(x.col(0), &[1.0 + 1.0 + 1.5, 0.0 + 2.0 + 2.0]);
        assert_eq!(x.col(1), &[-1.0 + 6.0, 1.0 - 2.0 + 8.0]);
    }

    #[test]
    fn gemv_acc_and_sub() {
        let q = mv(&[&[1.0, 0.0], &[0.0, 1.0]]);
        let mut xv = vec![10.0, 20.0];
        q.gemv_acc(&[2.0, 3.0], &mut xv);
        assert_eq!(xv, vec![12.0, 23.0]);
        q.gemv_sub(&[2.0, 3.0], &mut xv);
        assert_eq!(xv, vec![10.0, 20.0]);
    }

    #[test]
    fn gram_window_partitions_sum_to_total() {
        let x = mv(&[&[1.0, 2.0, 3.0, 4.0], &[0.5, 0.5, 0.5, 0.5]]);
        let y = mv(&[&[1.0, 1.0, 1.0, 1.0]]);
        let g_total = x.gram(&y);
        let g_lo = x.gram_window(&y, 0, 2);
        let g_hi = x.gram_window(&y, 2, 4);
        for i in 0..2 {
            assert!((g_total.get(i, 0) - (g_lo.get(i, 0) + g_hi.get(i, 0))).abs() < 1e-14);
        }
    }

    #[test]
    fn col_pair_mut_both_orders() {
        let mut m = mv(&[&[1.0, 1.0], &[2.0, 2.0], &[3.0, 3.0]]);
        {
            let (src, dst) = m.col_pair_mut(0, 2);
            dst.copy_from_slice(src);
        }
        assert_eq!(m.col(2), &[1.0, 1.0]);
        {
            let (src, dst) = m.col_pair_mut(2, 1);
            for (d, s) in dst.iter_mut().zip(src) {
                *d = 2.0 * s;
            }
        }
        assert_eq!(m.col(1), &[2.0, 2.0]);
    }

    #[test]
    fn gram_range_matches_full_gram() {
        let x = mv(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]);
        let full = x.gram(&x);
        let sub = x.gram_range(0..2, &x, 1..3);
        for i in 0..2 {
            for j in 0..2 {
                assert_eq!(sub.get(i, j), full.get(i, j + 1));
            }
        }
    }

    /// The blocks of one family, owned.
    #[derive(Clone)]
    struct Blocks {
        pow: MultiVector,
        dirs: MultiVector,
        apow: Vec<MultiVector>,
    }

    impl Blocks {
        fn random(rng: &mut crate::SplitMix64, n: usize, s: usize) -> Blocks {
            let mut block = |ncols: usize| {
                let mut m = MultiVector::zeros(n, ncols);
                m.data_mut()
                    .iter_mut()
                    .for_each(|v| *v = rng.uniform(-1.0, 1.0));
                m
            };
            Blocks {
                pow: block(2 * s + 1),
                dirs: block(s),
                apow: (0..=s).map(|_| block(s)).collect(),
            }
        }

        /// Every entry of every block, bit for bit.
        fn bits(&self) -> Vec<u64> {
            let blocks = [&self.pow, &self.dirs].into_iter().chain(&self.apow);
            blocks.flat_map(|m| bits(m.data())).collect()
        }

        fn family(&mut self) -> RecurrenceFamily<'_> {
            RecurrenceFamily {
                pow: &mut self.pow,
                dirs: &mut self.dirs,
                apow: &mut self.apow,
            }
        }

        /// The pass as the sequence of sweeps it replaced, each conjugation
        /// reading a copy of the old blocks.
        fn unfused_step(&mut self, b: &DenseMatrix, alpha: &[f64], shift: bool) {
            let old = self.clone();
            self.dirs.combine_window(&old.pow, 0, &old.dirs, b);
            for (w, blk) in self.apow.iter_mut().enumerate() {
                blk.combine_window(&old.pow, w + 1, &old.apow[w], b);
                if shift {
                    blk.gemv_sub(alpha, self.pow.col_mut(w));
                }
            }
        }
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn fused_step_is_bitwise_the_unfused_sequence_and_the_standalone_packet() {
        // Row counts below four, below, at and across the 4096-row chunk
        // (a three-row tail chunk) and the sub-blocks inside it; s = 5
        // takes the tiled conjugation and two right-column groups.
        let mut rng = crate::SplitMix64::new(0xf05e_d57e);
        let full = [
            (1, 1),
            (2, 3),
            (3, 2),
            (63, 2),
            (777, 3),
            (4099, 4),
            (6007, 3),
            (9001, 5),
        ];
        // Under Miri the sweep stops at the single-chunk shapes: they
        // still take both conjugation kernels and hand out every kind of
        // row view, which is what its borrow tracker is there to check.
        let shapes = if cfg!(miri) { &full[..4] } else { &full[..] };
        for &(n, s) in shapes {
            for sparse_b in [false, true] {
                let mut b = DenseMatrix::zeros(s, s);
                for i in 0..s {
                    for j in 0..s {
                        // Exact zeros exercise the skipped-coefficient path.
                        let zero = sparse_b && (i + 2 * j) % 4 != 1;
                        b.set(i, j, if zero { 0.0 } else { rng.uniform(-1.0, 1.0) });
                    }
                }
                let mut alpha: Vec<f64> = (0..s).map(|_| rng.uniform(-1.0, 1.0)).collect();
                alpha[s / 2] = if s > 2 { 0.0 } else { alpha[s / 2] };
                for (nfam, shift) in [(1, true), (2, true), (2, false)] {
                    let start: Vec<Blocks> =
                        (0..nfam).map(|_| Blocks::random(&mut rng, n, s)).collect();
                    let mut want = start.clone();
                    want.iter_mut()
                        .for_each(|f| f.unfused_step(&b, &alpha, shift));
                    for threads in [1, 3] {
                        let what = format!(
                            "n={n} s={s} sparse_b={sparse_b} families={nfam} shift={shift} \
                             threads={threads}"
                        );
                        let pool = Pool::new(threads);
                        let mut got = start.clone();
                        let mut packet = GramPacketBuf::new(s);
                        let mut fams: Vec<_> = got.iter_mut().map(Blocks::family).collect();
                        fused_recurrence_step_with(
                            &pool,
                            &mut fams,
                            &b,
                            &alpha,
                            shift,
                            &mut packet,
                        );
                        for (g, w) in got.iter().zip(&want) {
                            assert!(g.bits() == w.bits(), "blocks, {what}");
                        }
                        if !shift {
                            assert!(packet.flat().iter().all(|v| v.to_bits() == 0), "{what}");
                            continue;
                        }
                        // The packet: one family aliases upow and rpow.
                        let (upow, rpow) = (&got[0].pow, &got[nfam - 1].pow);
                        let udirs = &got[0].dirs;
                        let mut alone = GramPacketBuf::new(s);
                        gram_packet_with(&pool, upow, rpow, udirs, &mut alone);
                        assert_eq!(bits(packet.flat()), bits(alone.flat()), "packet, {what}");
                        // Entry by entry it is the chunked Gram product.
                        let serial = Pool::new(1);
                        let dot = |x: &MultiVector, i: usize, y: &MultiVector, j: usize| {
                            x.gram_range_with(&serial, i..i + 1, y, j..j + 1).get(0, 0)
                        };
                        let mut entries = Vec::new();
                        for left in [upow, udirs] {
                            let g = left.gram_range_with(&serial, 0..s, rpow, 1..s + 1);
                            entries.extend_from_slice(g.data());
                        }
                        for left in [upow, udirs] {
                            entries.extend((0..s).map(|l| dot(left, l, rpow, 0)));
                        }
                        entries.push(dot(rpow, 0, rpow, 0));
                        entries.push(dot(upow, 0, upow, 0));
                        entries.push(dot(rpow, 0, upow, 0));
                        assert_eq!(bits(packet.flat()), bits(&entries), "entries, {what}");
                    }
                }
            }
        }
    }

    #[test]
    fn dot_vec_matches_per_column() {
        let m = mv(&[&[1.0, 2.0], &[3.0, -1.0]]);
        let v = [2.0, 1.0];
        assert_eq!(m.dot_vec(&v), vec![4.0, 5.0]);
    }
}
