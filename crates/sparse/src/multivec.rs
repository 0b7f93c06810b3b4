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
//! window and every basis shift — is one pass that walks each row chunk in
//! cache-sized sub-blocks, so each input column is read from memory once
//! per iteration (DESIGN.md §6).

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

    /// Fused basis shift `dst = src − self · a` — the PIPE-sCG/PIPE-PsCG
    /// power-list update (`rpow_next[j] = rpow[j] − rapow[j]·α`) as one pass.
    /// Bitwise identical to `copy` + [`MultiVector::gemv_sub`].
    pub fn gemv_sub_into(&self, a: &[f64], src: &[f64], dst: &mut [f64]) {
        self.gemv_sub_into_with(&pscg_par::global(), a, src, dst)
    }

    /// [`MultiVector::gemv_sub_into`] on an explicit pool.
    pub fn gemv_sub_into_with(&self, pool: &Pool, a: &[f64], src: &[f64], dst: &mut [f64]) {
        assert_eq!(a.len(), self.ncols, "gemv_sub_into: coefficient length");
        assert_eq!(src.len(), self.len, "gemv_sub_into: src length");
        assert_eq!(dst.len(), self.len, "gemv_sub_into: dst length");
        let n = self.len;
        let out = DisjointMut::new(dst);
        run_row_chunks(pool, n, &|clo, chi| {
            trace_read(self.data());
            trace_read(src);
            // SAFETY: chunks are disjoint.
            let d = unsafe { out.range(clo, chi) };
            d.copy_from_slice(&src[clo..chi]);
            for (k, &coef) in a.iter().enumerate() {
                // pscg-lint: allow(float-eq, exact sparsity skip keeping accumulation chains bitwise-equal)
                if coef == 0.0 {
                    continue;
                }
                crate::kernels::axmy_unrolled4(coef, &self.col(k)[clo..chi], d);
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
/// `apow[w] = A^{w+1}·dirs`, each with the buffer its successor is written
/// to. PIPE-sCG carries one family; PIPE-PsCG carries two (the u-type and
/// the r-type lists) that share the conjugation matrix and step vector.
pub struct RecurrenceFamily<'a> {
    /// Current basis, at least `2s + 1` columns.
    pub pow: &'a MultiVector,
    /// Next basis; columns `0..=s` are written when the pass shifts.
    pub pow_next: &'a mut MultiVector,
    /// Previous direction block (`s` columns).
    pub dirs: &'a MultiVector,
    /// Conjugated direction block.
    pub dirs_next: &'a mut MultiVector,
    /// Previous A-power blocks (`s + 1` blocks of `s` columns).
    pub apow: &'a [MultiVector],
    /// Conjugated A-power blocks.
    pub apow_next: &'a mut [MultiVector],
}

/// Families one fused pass can carry (PIPE-PsCG's dual lists).
const MAX_FAMILIES: usize = 2;

/// Output blocks whose write handles fit the fused pass's stack array: two
/// families up to `s = 15`. A larger `s` costs one heap allocation per
/// call instead.
const INLINE_OUTPUTS: usize = MAX_FAMILIES * 18;

/// Cache budget of one sub-block of the fused pass: rows are sized so that
/// every column one family touches fits in this many bytes, which keeps
/// the freshly conjugated `apow_next` rows and the overlapping `pow`
/// windows resident in a private L2 between their uses.
const FUSED_BLOCK_BYTES: usize = 256 * 1024;

/// Rows per sub-block for `s`-column blocks: [`FUSED_BLOCK_BYTES`] over the
/// live columns of one family, a multiple of 8, at least 64.
fn fused_block_rows(s: usize) -> usize {
    // pow 2s+1, dirs + dirs_next 2s, apow + apow_next 2s(s+1), pow_next s+1.
    let live_cols = 2 * s * s + 7 * s + 2;
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
/// `base` is `src` for the first group of a column and `dst` itself after.
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

/// `dst = src ± Σₖ coef(k)·col(k)` over equally long row slices, `k`
/// ascending and zero coefficients skipped. Per element this is the
/// accumulation chain of a copy followed by one AXPY pass per `k`
/// (`combine_window`, `gemv_sub_into`) — same operations, same order, same
/// roundings — but up to four terms are folded per sweep, so `dst` is
/// stored once per group instead of once per term.
#[inline]
fn lincomb_rows<'c, const SUB: bool>(
    dst: &mut [f64],
    src: &[f64],
    nterms: usize,
    coef: impl Fn(usize) -> f64,
    col: impl Fn(usize) -> &'c [f64],
) {
    let mut base = Some(src);
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

/// The whole recurrence phase of one pipelined s-step iteration as a single
/// pass over the rows: for every family, conjugate the direction block and
/// all `s + 1` A-power blocks (`dirs_next = pow[:, 0..s] + dirs·B`,
/// `apow_next[w] = pow[:, w+1..w+1+s] + apow[w]·B`) and, when `shift` is
/// set, form the next basis `pow_next[w] = pow[w] − apow_next[w]·α` for
/// `w = 0..=s`. A residual-replacement pass conjugates only
/// (`shift = false`) and recomputes its basis explicitly.
///
/// Each row chunk is walked in sub-blocks small enough to stay
/// cache-resident; per sub-block and family every conjugation runs first,
/// then every shift reads the `apow_next` rows just written. Each input
/// column is therefore streamed from memory once and each output written
/// once, instead of once per window that touches it. Per element the
/// arithmetic is exactly that of [`MultiVector::combine_window`] followed
/// by [`MultiVector::gemv_sub_into`] (copy, then `k` ascending, zero
/// coefficients skipped), so the results are bitwise identical to that
/// sequence at every thread count. The call does not allocate.
pub fn fused_recurrence_step(
    families: &mut [RecurrenceFamily<'_>],
    b: &DenseMatrix,
    alpha: &[f64],
    shift: bool,
) {
    fused_recurrence_step_with(&pscg_par::global(), families, b, alpha, shift)
}

/// [`fused_recurrence_step`] on an explicit pool.
pub fn fused_recurrence_step_with(
    pool: &Pool,
    families: &mut [RecurrenceFamily<'_>],
    b: &DenseMatrix,
    alpha: &[f64],
    shift: bool,
) {
    let s = b.nrows();
    assert_eq!(b.ncols(), s, "fused step: B must be square");
    assert_eq!(alpha.len(), s, "fused step: coefficient length");
    assert!(
        (1..=MAX_FAMILIES).contains(&families.len()),
        "fused step: one or two families"
    );
    let n = families[0].pow.len;
    let nw = families[0].apow.len();

    // Write handles per family: dirs_next, the nw apow_next blocks,
    // pow_next. Unused slots wrap an empty slice.
    let per_family = nw + 2;
    let nouts = families.len() * per_family;
    let mut inline: [DisjointMut<'_, f64>; INLINE_OUTPUTS] =
        std::array::from_fn(|_| DisjointMut::new(&mut []));
    let mut spill = Vec::new();
    let outs: &mut [DisjointMut<'_, f64>] = if nouts <= INLINE_OUTPUTS {
        &mut inline[..nouts]
    } else {
        spill.resize_with(nouts, || DisjointMut::new(&mut []));
        &mut spill
    };
    let mut ins: [Option<(&MultiVector, &MultiVector, &[MultiVector])>; MAX_FAMILIES] =
        [None; MAX_FAMILIES];
    for (f, fam) in families.iter_mut().enumerate() {
        let shaped = |m: &MultiVector| m.len == n && m.ncols == s;
        assert!(
            fam.apow.len() == nw && fam.apow_next.len() == nw,
            "fused step: A-power block count"
        );
        assert!(
            fam.pow.len == n && fam.pow.ncols >= nw + s,
            "fused step: pow window"
        );
        assert!(
            fam.pow_next.len == n && (!shift || fam.pow_next.ncols >= nw),
            "fused step: pow_next columns"
        );
        assert!(
            shaped(fam.dirs)
                && shaped(fam.dirs_next)
                && fam.apow.iter().all(shaped)
                && fam.apow_next.iter().all(shaped),
            "fused step: block shape mismatch"
        );
        ins[f] = Some((fam.pow, fam.dirs, fam.apow));
        let out = &mut outs[f * per_family..(f + 1) * per_family];
        out[0] = DisjointMut::new(&mut fam.dirs_next.data);
        for (o, blk) in out[1..=nw].iter_mut().zip(fam.apow_next.iter_mut()) {
            *o = DisjointMut::new(&mut blk.data);
        }
        out[nw + 1] = DisjointMut::new(&mut fam.pow_next.data);
    }
    let outs = &*outs;
    let block_rows = fused_block_rows(s);

    run_row_chunks(pool, n, &|clo, chi| {
        for &(pow, dirs, apow) in ins.iter().flatten() {
            trace_read(pow.data());
            trace_read(dirs.data());
            apow.iter().for_each(|m| trace_read(m.data()));
        }
        let mut lo = clo;
        while lo < chi {
            let hi = (lo + block_rows).min(chi);
            for (f, &(pow, dirs, apow)) in ins.iter().flatten().enumerate() {
                let out = &outs[f * per_family..(f + 1) * per_family];
                // Rows `[lo, hi)` of column `col` of output block `blk`.
                // SAFETY: row chunks are disjoint and so are the sub-blocks
                // of one chunk, so no other job touches these rows; within
                // this job a column's rows are mutably borrowed by one
                // statement at a time, and the shift phase re-borrows the
                // apow_next columns it only reads while writing to a
                // different block.
                let rows =
                    |blk: usize, col: usize| unsafe { out[blk].range(col * n + lo, col * n + hi) };
                let conjugate = |blk: usize, off: usize, prev: &MultiVector| {
                    for j in 0..s {
                        let src = &pow.col(off + j)[lo..hi];
                        let (coef, col) = (|k| b.get(k, j), |k| &prev.col(k)[lo..hi]);
                        lincomb_rows::<false>(rows(blk, j), src, s, coef, col);
                    }
                };
                conjugate(0, 0, dirs);
                for (w, prev) in apow.iter().enumerate() {
                    conjugate(1 + w, w + 1, prev);
                }
                if !shift {
                    continue;
                }
                // The shifts read back the apow_next rows this job wrote a
                // moment ago, while they are still cache-resident.
                for w in 0..nw {
                    let src = &pow.col(w)[lo..hi];
                    let (coef, col) = (|k| alpha[k], |k| &*rows(1 + w, k));
                    lincomb_rows::<true>(rows(nw + 1, w), src, s, coef, col);
                }
            }
            lo = hi;
        }
    });
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

    /// A seeded family set: `(pow, pow_next, dirs, dirs_next, apow, apow_next)`.
    type Blocks = (
        MultiVector,
        MultiVector,
        MultiVector,
        MultiVector,
        Vec<MultiVector>,
        Vec<MultiVector>,
    );

    fn random_family(rng: &mut crate::SplitMix64, n: usize, s: usize) -> Blocks {
        let mut block = |ncols: usize| {
            let mut m = MultiVector::zeros(n, ncols);
            m.data_mut()
                .iter_mut()
                .for_each(|v| *v = rng.uniform(-1.0, 1.0));
            m
        };
        let (pow, pow_next) = (block(2 * s + 1), block(2 * s + 1));
        let (dirs, dirs_next) = (block(s), block(s));
        let apow = (0..=s).map(|_| block(s)).collect();
        let apow_next = (0..=s).map(|_| block(s)).collect();
        (pow, pow_next, dirs, dirs_next, apow, apow_next)
    }

    #[test]
    fn fused_recurrence_step_is_bitwise_the_unfused_sequence() {
        // Row counts below, at and across the 4096-row chunk and the
        // sub-blocks inside it; s = 5 needs two term groups per column.
        let mut rng = crate::SplitMix64::new(0xf05e_d57e);
        for (n, s) in [(1, 1), (63, 2), (777, 3), (4099, 4), (9001, 5)] {
            let mut b = DenseMatrix::zeros(s, s);
            for i in 0..s {
                for j in 0..s {
                    // Exact zeros exercise the skipped-coefficient path.
                    let zero = (i + 2 * j) % 4 == 3;
                    b.set(i, j, if zero { 0.0 } else { rng.uniform(-1.0, 1.0) });
                }
            }
            let mut alpha: Vec<f64> = (0..s).map(|_| rng.uniform(-1.0, 1.0)).collect();
            alpha[s / 2] = if s > 2 { 0.0 } else { alpha[s / 2] };
            for (nfam, shift) in [(1, true), (2, true), (2, false)] {
                let mut want: Vec<Blocks> =
                    (0..nfam).map(|_| random_family(&mut rng, n, s)).collect();
                let mut got = want.clone();
                for (pow, pow_next, dirs, dirs_next, apow, apow_next) in &mut want {
                    dirs_next.combine_window(pow, 0, dirs, &b);
                    for w in 0..=s {
                        apow_next[w].combine_window(pow, w + 1, &apow[w], &b);
                        if shift {
                            apow_next[w].gemv_sub_into(&alpha, pow.col(w), pow_next.col_mut(w));
                        }
                    }
                }
                for threads in [1, 3] {
                    let mut fams: Vec<RecurrenceFamily<'_>> = got
                        .iter_mut()
                        .map(
                            |(pow, pow_next, dirs, dirs_next, apow, apow_next)| RecurrenceFamily {
                                pow,
                                pow_next,
                                dirs,
                                dirs_next,
                                apow,
                                apow_next,
                            },
                        )
                        .collect();
                    fused_recurrence_step_with(&Pool::new(threads), &mut fams, &b, &alpha, shift);
                    // Inputs untouched, outputs equal bit for bit (a
                    // replacement pass leaves pow_next as it was).
                    let bits =
                        |m: &MultiVector| m.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                    for (g, w) in got.iter().zip(&want) {
                        let what =
                            format!("n={n} s={s} families={nfam} shift={shift} threads={threads}");
                        assert_eq!(bits(&g.1), bits(&w.1), "pow_next, {what}");
                        assert_eq!(bits(&g.3), bits(&w.3), "dirs_next, {what}");
                        for (ga, wa) in g.5.iter().zip(&w.5) {
                            assert_eq!(bits(ga), bits(wa), "apow_next, {what}");
                        }
                        assert_eq!((&g.0, &g.2, &g.4), (&w.0, &w.2, &w.4), "inputs, {what}");
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
