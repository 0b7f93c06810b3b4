//! The execution-context abstraction: one solver codebase, three engines.
//!
//! Every solver in `pipescg` is written as an SPMD program against
//! [`Context`]: it owns vectors of `vec_len()` entries, computes *local* dot
//! products and Gram matrices, and combines them with explicit
//! (non-)blocking allreduces — exactly the structure of the paper's MPI
//! implementation. The trait has three implementations:
//!
//! * [`SimCtx`] — a single "rank" owning the whole problem. Runs the real
//!   numerics and (optionally) records an [`OpTrace`] for the replay engine.
//!   This is the engine behind all scaling figures.
//! * `RankCtx` (in [`crate::thread`]) — one of `P` real threads exchanging
//!   messages through the thread-backed MPI-like runtime. Validates that the
//!   solvers are genuinely distributed (local data + explicit communication).
//!
//! The provided methods (`axpy`, `local_dot`, `block_add_mul`, …) pair each
//! numerical kernel with its cost declaration so that solvers cannot forget
//! to charge the machine model for the recurrence-LC FLOPs that Table I of
//! the paper accounts so carefully.

#[expect(clippy::disallowed_types, reason = "keyed lookup, never iterated")]
use std::collections::HashMap;

use pscg_obs as obs;
use pscg_obs::SpanKind;
use pscg_sparse::dense::DenseMatrix;
use pscg_sparse::kernels::{self, PipecgVectors};
use pscg_sparse::multivec::{fused_recurrence_step, gram_packet, GramPacketBuf, RecurrenceFamily};
use pscg_sparse::op::Operator;
use pscg_sparse::{CsrMatrix, MultiVector};

use pscg_fault::{
    CompletionFault, FaultPlan, FaultRecord, FaultSite, Injector, RankEvent, RankFault,
};

use crate::collective::{CommId, RankFailure, ReduceTimeout, WaitOutcome};
use crate::profile::MatrixProfile;
use crate::trace::{BufId, LocalKind, Op, OpTrace};

/// Handle to an in-flight non-blocking allreduce. Must be waited exactly
/// once; dropping it without waiting loses the reduction (as in MPI).
#[derive(Debug)]
pub struct ReduceHandle {
    pub(crate) id: u64,
}

/// Operation counters, validated against the paper's Table I in tests.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct OpCounters {
    /// Sparse matrix–vector products.
    pub spmv: u64,
    /// Matrix-powers-kernel invocations (each computing several powers).
    pub mpk: u64,
    /// Preconditioner applications.
    pub pc: u64,
    /// Blocking allreduces.
    pub blocking_allreduce: u64,
    /// Non-blocking allreduces (posted).
    pub nonblocking_allreduce: u64,
    /// Total f64 values reduced.
    pub reduced_doubles: u64,
    /// VMA / recurrence-LC floating-point operations (absolute count).
    pub vma_flops: f64,
    /// Local dot-product floating-point operations (absolute count).
    pub dot_flops: f64,
    /// Rank-replicated scalar-work floating-point operations.
    pub scalar_flops: f64,
    /// Vectors allocated through the context (the paper's Memory column).
    pub vectors_allocated: usize,
}

impl OpCounters {
    /// Total allreduce operations of either kind.
    pub fn allreduces(&self) -> u64 {
        self.blocking_allreduce + self.nonblocking_allreduce
    }
}

/// Outcome of a survivor-side buddy-recovery attempt
/// (see [`Context::buddy_recover`]).
#[derive(Debug, Clone, PartialEq)]
pub enum BuddyRecovery {
    /// No rank failure is active; there is nothing to recover.
    NoFailure,
    /// The failed rank's buddy is dead too: the partition is unrecoverable.
    Lost {
        /// The rank whose partition was lost.
        rank: u32,
        /// Its (also dead) buddy that held the only copy.
        buddy: u32,
    },
    /// The failed rank's partition was rebuilt from its buddy's in-memory
    /// checkpoint and the solve may resume on the survivor communicator.
    Restored {
        /// The rank that was rebuilt.
        rank: u32,
        /// The last buddy-checkpointed iterate, or `None` when the death
        /// preceded the first checkpoint (restart from scratch).
        x: Option<Vec<f64>>,
    },
}

/// One recurrence phase of a pipelined s-step iteration, as
/// [`Context::block_recurrence_step`] runs it.
pub struct RecurrenceStep<'a, 'f> {
    /// The power families (one for PIPE-sCG, the u-type then the r-type
    /// list for PIPE-PsCG), updated in place. The solution update uses the
    /// first family's new direction block.
    pub families: &'a mut [RecurrenceFamily<'f>],
    /// Conjugation matrix `B` of the scalar work.
    pub b: &'a DenseMatrix,
    /// Step coefficients `α` of the basis shifts.
    pub alpha: &'a [f64],
    /// `σ·α`, the coefficients of the solution update `x += Q·(σα)`.
    pub alpha_x: &'a [f64],
    /// False on a residual-replacement pass: conjugate only, the caller
    /// recomputes the next basis explicitly.
    pub shift: bool,
    /// Extra VMA flops per row charged after the solution update (a
    /// method whose Table I count exceeds what the shared core does).
    pub extra_vma_flops_per_row: f64,
    /// Receives the local Gram packet of the shifted bases (untouched when
    /// `shift` is false).
    pub packet: &'a mut GramPacketBuf,
}

/// The SPMD execution context (see module docs).
pub trait Context {
    /// Global problem dimension.
    fn nrows(&self) -> usize;
    /// Length of locally owned vectors (`== nrows()` for the sim engine).
    fn vec_len(&self) -> usize;
    /// This rank's id.
    fn rank(&self) -> usize;
    /// Total ranks.
    fn nranks(&self) -> usize;

    /// `y = A x` on the local rows (halo exchange included).
    fn spmv(&mut self, x: &[f64], y: &mut [f64]);

    /// Matrix-powers kernel: fills `pow[j] = σ·A·pow[j−1]` for
    /// `j = from+1 ..= to` with a *single* widened halo exchange
    /// (Hoemmen's CA-SpMV). The default falls back to repeated SpMVs
    /// (numerically identical); the tracing engine overrides it to record
    /// the communication-avoiding cost.
    #[expect(clippy::float_cmp, reason = "sigma is set, never computed")]
    fn mpk(&mut self, pow: &mut MultiVector, from: usize, to: usize, sigma: f64) {
        for j in from + 1..=to {
            {
                let (src, dst) = pow.col_pair_mut(j - 1, j);
                self.spmv(src, dst);
            }
            if sigma != 1.0 {
                self.scale_v(sigma, pow.col_mut(j));
            }
        }
    }
    /// `u = M⁻¹ r` on the local rows.
    fn pc_apply(&mut self, r: &[f64], u: &mut [f64]);

    /// Attempts to demote the preconditioner apply to fp32 (see
    /// [`pscg_sparse::op::Operator::demote_precision`]). Engines without a
    /// precision-switchable preconditioner refuse — the default.
    fn pc_demote(&mut self) -> bool {
        false
    }
    /// Restores the fp64 preconditioner apply (no-op when never demoted).
    fn pc_promote(&mut self) {}
    /// True while the preconditioner applies in reduced (fp32) precision.
    fn pc_demoted(&self) -> bool {
        false
    }

    /// Non-zeros of the operator matrix, for the self-describing telemetry
    /// header and roofline attribution. Engines that do not know return 0
    /// (the default), and attribution degrades to time-only rows.
    fn matrix_nnz(&self) -> usize {
        0
    }
    /// The preconditioner's declared `(flops_per_row, bytes_per_row)`
    /// apply cost, zeros when unknown (the default).
    fn pc_cost_rates(&self) -> (f64, f64) {
        (0.0, 0.0)
    }

    /// Blocking sum-allreduce of `vals`.
    fn allreduce(&mut self, vals: &[f64]) -> Vec<f64>;
    /// Posts a non-blocking sum-allreduce of `vals`.
    fn iallreduce(&mut self, vals: &[f64]) -> ReduceHandle;
    /// Completes a posted allreduce, returning the global sums.
    fn wait(&mut self, h: ReduceHandle) -> Vec<f64>;
    /// Attempts to complete a posted allreduce, surfacing an injected
    /// completion fault as a [`WaitOutcome::TimedOut`] instead of a hang.
    /// Engines without fault injection complete unconditionally (the
    /// default), so on a clean run this *is* [`Context::wait`].
    fn try_wait(&mut self, h: ReduceHandle) -> WaitOutcome {
        WaitOutcome::Done(self.wait(h))
    }
    /// Reads the values of a posted allreduce **without** completing it.
    ///
    /// This is deliberately wrong-by-construction: each engine hands back
    /// its *rank-local* contribution, not the global sums — exactly what a
    /// mis-pipelined method sees when it consumes a reduction result before
    /// `MPI_Wait`. On one rank the numbers coincide with the reduced ones,
    /// so the bug is silent in serial testing; the tracing engine records an
    /// [`Op::RedRead`] so the static schedule analyzer can flag it. Correct
    /// solvers never call this.
    fn peek_pending(&mut self, h: &ReduceHandle) -> Vec<f64>;

    /// The rank failure currently poisoning this communicator, if any.
    ///
    /// A **pure getter**: implementations must not record trace ops or
    /// touch counters, so solver loops may poll it after every collective
    /// and clean runs stay bitwise-identical. Engines without a
    /// rank-failure model never fail (the default).
    fn rank_failure(&self) -> Option<RankFailure> {
        None
    }

    /// Stores a survivor-side in-memory buddy checkpoint of the iterate:
    /// each rank ships its partition of `x` to a neighbor so a single rank
    /// death can be repaired without touching a filesystem. Engines without
    /// a rank-failure model discard it (the default).
    fn buddy_put(&mut self, _x: &[f64]) {}

    /// Attempts to repair an active rank failure from the buddy checkpoint,
    /// shrinking the communicator to the survivors on success. Engines
    /// without a rank-failure model report [`BuddyRecovery::NoFailure`]
    /// (the default).
    fn buddy_recover(&mut self) -> BuddyRecovery {
        BuddyRecovery::NoFailure
    }

    /// Appends one recovery-ladder code (see the solver crate's
    /// `resilience::code` table) to the engine's recovery log, making
    /// recovery *decisions* part of the deterministic observable outcome.
    /// No-op by default.
    fn note_recovery_code(&mut self, _code: u64) {}

    /// Interns the identity of a rank-local vector for the trace.
    ///
    /// Engines that do not track buffers return [`BufId::ANON`] (the
    /// default); the tracing engine maps the storage address to a stable id
    /// so hazard analysis can reason about aliasing.
    fn buf_of(&mut self, _v: &[f64]) -> BufId {
        BufId::ANON
    }

    /// Interns the identity of a block of vectors (see [`Context::buf_of`]).
    fn buf_of_multi(&mut self, _m: &MultiVector) -> BufId {
        BufId::ANON
    }

    /// Charges rank-local vector work to the cost model (`per row` refers to
    /// one locally owned vector element).
    fn charge_local(&mut self, kind: LocalKind, flops_per_row: f64, bytes_per_row: f64);
    /// Like [`Context::charge_local`], additionally declaring which tracked
    /// buffers the kernel read and wrote (for the schedule analyzer). The
    /// default discards the dataflow and charges cost only.
    fn charge_local_rw(
        &mut self,
        kind: LocalKind,
        flops_per_row: f64,
        bytes_per_row: f64,
        _reads: [BufId; 2],
        _write: BufId,
    ) {
        self.charge_local(kind, flops_per_row, bytes_per_row);
    }
    /// Charges rank-replicated scalar work (s × s solves).
    fn charge_scalar(&mut self, flops: f64);
    /// Reports the relative residual at a convergence check (for the
    /// time–residual trajectories of the paper's Figure 5).
    fn note_residual(&mut self, relres: f64);

    /// Read access to the counters.
    fn counters(&self) -> &OpCounters;
    /// Write access to the counters.
    fn counters_mut(&mut self) -> &mut OpCounters;

    // --- provided numerical helpers (kernel + cost declaration) ---

    /// Allocates a zeroed local vector, counting it against the method's
    /// memory footprint.
    fn alloc_vec(&mut self) -> Vec<f64> {
        self.counters_mut().vectors_allocated += 1;
        vec![0.0; self.vec_len()]
    }

    /// Allocates a zeroed `vec_len × ncols` block.
    fn alloc_multi(&mut self, ncols: usize) -> MultiVector {
        self.counters_mut().vectors_allocated += ncols;
        MultiVector::zeros(self.vec_len(), ncols)
    }

    /// `y += a·x`.
    fn axpy(&mut self, a: f64, x: &[f64], y: &mut [f64]) {
        kernels::axpy(a, x, y);
        charge_vma(self, x, y);
    }

    /// `y = x + a·y`.
    fn aypx(&mut self, a: f64, x: &[f64], y: &mut [f64]) {
        kernels::aypx(a, x, y);
        charge_vma(self, x, y);
    }

    /// `z = x + a·y`.
    fn waxpy(&mut self, z: &mut [f64], a: f64, y: &[f64], x: &[f64]) {
        kernels::waxpy(z, a, y, x);
        let (bx, by, bz) = (self.buf_of(x), self.buf_of(y), self.buf_of(z));
        charge_vma_rw(self, [bx, by], bz);
    }

    /// `y = x`.
    fn copy_v(&mut self, x: &[f64], y: &mut [f64]) {
        kernels::copy(x, y);
        let (bx, by) = (self.buf_of(x), self.buf_of(y));
        self.charge_local_rw(LocalKind::Vma, 0.0, 16.0, [bx, BufId::ANON], by);
    }

    /// `x *= a`.
    fn scale_v(&mut self, a: f64, x: &mut [f64]) {
        kernels::scale(a, x);
        let bx = self.buf_of(x);
        self.charge_local_rw(LocalKind::Vma, 1.0, 16.0, [bx, BufId::ANON], bx);
    }

    /// Local part of the dot product `xᵀy`; combine with an allreduce.
    fn local_dot(&mut self, x: &[f64], y: &[f64]) -> f64 {
        let _sp = obs::span(SpanKind::Dot);
        charge_dot(self, x, y);
        kernels::dot(x, y)
    }

    /// Block update `X += Y·B` (the recurrence linear combinations).
    fn block_add_mul(&mut self, x: &mut MultiVector, y: &MultiVector, b: &DenseMatrix) {
        let _sp = obs::span(SpanKind::Combine);
        x.add_mul(y, b);
        let (k, m) = (y.ncols() as f64, x.ncols() as f64);
        let (bx, by) = (self.buf_of_multi(x), self.buf_of_multi(y));
        self.charge_local_rw(
            LocalKind::Vma,
            2.0 * k * m,
            8.0 * (k + 2.0 * m),
            [by, bx],
            bx,
        );
    }

    /// `y += X·a`.
    fn block_gemv_acc(&mut self, x: &MultiVector, a: &[f64], y: &mut [f64]) {
        let _sp = obs::span(SpanKind::Combine);
        x.gemv_acc(a, y);
        let k = x.ncols() as f64;
        let (bx, by) = (self.buf_of_multi(x), self.buf_of(y));
        self.charge_local_rw(LocalKind::Vma, 2.0 * k, 8.0 * (k + 2.0), [bx, by], by);
    }

    /// `y -= X·a`.
    fn block_gemv_sub(&mut self, x: &MultiVector, a: &[f64], y: &mut [f64]) {
        let _sp = obs::span(SpanKind::Combine);
        x.gemv_sub(a, y);
        let k = x.ncols() as f64;
        let (bx, by) = (self.buf_of_multi(x), self.buf_of(y));
        self.charge_local_rw(LocalKind::Vma, 2.0 * k, 8.0 * (k + 2.0), [bx, by], by);
    }

    /// Fused conjugation sweep `dst = src[:, off..off+s] + prev·B` — the
    /// column copies and the recurrence LC in one pass over the rows.
    ///
    /// Numerically and trace-wise indistinguishable from the
    /// `copy_v`-per-column + [`Context::block_add_mul`] sequence it
    /// replaces: the fused kernel preserves each element's accumulation
    /// chain (bitwise-equal results) and the cost declarations below emit
    /// the exact legacy op sequence, so analyzers and Table-I accounting
    /// see no difference.
    fn block_combine(
        &mut self,
        dst: &mut MultiVector,
        src: &MultiVector,
        off: usize,
        prev: &MultiVector,
        b: &DenseMatrix,
    ) {
        let _sp = obs::span(SpanKind::Combine);
        dst.combine_window(src, off, prev, b);
        charge_combine(self, dst, src, off, prev);
    }

    /// Basis shift into a fresh column, `dst = src − X·a`, charged as the
    /// copy and the GEMV it is. The solvers shift in place through
    /// [`Context::block_recurrence_step`]; this stays for engines that
    /// forward every method by name.
    fn block_gemv_sub_into(&mut self, x: &MultiVector, a: &[f64], src: &[f64], dst: &mut [f64]) {
        let _sp = obs::span(SpanKind::Combine);
        dst.copy_from_slice(src);
        x.gemv_sub(a, dst);
        charge_shift(self, x, src, dst);
    }

    /// The whole recurrence phase of one pipelined s-step iteration: every
    /// conjugation window and every basis shift of `step.families`, in
    /// place, and the local Gram packet of the new bases, in one fused pass
    /// over the rows ([`fused_recurrence_step`]); then the solution update
    /// `x += Q·(σα)` with the new directions.
    ///
    /// Trace-wise this is the sequence it replaces, op for op: the
    /// [`Context::block_combine`] charges of the direction blocks, then of
    /// the A-power blocks window by window; the solution update as its own
    /// [`Context::block_gemv_acc`] call; the optional extra VMA charge; the
    /// copy-and-GEMV charges of the shifts window by window, last family
    /// first; and the charges of [`Context::local_gram_packet`]. Engines do
    /// not override it.
    fn block_recurrence_step(&mut self, step: RecurrenceStep<'_, '_>, x: &mut [f64]) {
        let RecurrenceStep {
            families,
            b,
            alpha,
            alpha_x,
            shift,
            extra_vma_flops_per_row: extra,
            packet,
        } = step;
        {
            let _sp = obs::span(SpanKind::Combine);
            fused_recurrence_step(families, b, alpha, shift, packet);
        }
        let families = &*families;
        for f in families {
            charge_combine(self, f.dirs, f.pow, 0, f.dirs);
        }
        let nw = families[0].apow.len();
        for w in 0..nw {
            for f in families {
                charge_combine(self, &f.apow[w], f.pow, w + 1, &f.apow[w]);
            }
        }
        self.block_gemv_acc(families[0].dirs, alpha_x, x);
        if extra > 0.0 {
            self.charge_local(LocalKind::Vma, extra, 8.0 * extra);
        }
        if shift {
            for w in 0..nw {
                for f in families.iter().rev() {
                    charge_shift(self, &f.apow[w], f.pow.col(w), f.pow.col(w));
                }
            }
            let (u, r) = (&families[0], &families[families.len() - 1]);
            charge_gram_packet(self, packet.s(), u.pow, r.pow, u.dirs);
        }
    }

    /// The local Gram packet of an s-step iteration (`N`, `C`, `g1`, `g2`
    /// and the three norms of [`GramPacketBuf`]) from the bases `upow` /
    /// `rpow` and the direction block `udirs`, in one pass that reads each
    /// column once ([`gram_packet`]); combine with an allreduce.
    ///
    /// Charged as the `2s + 5` products it holds: the two Gram ranges, then
    /// one dot per `g1`, `g2` and norm entry.
    fn local_gram_packet(
        &mut self,
        upow: &MultiVector,
        rpow: &MultiVector,
        udirs: &MultiVector,
        packet: &mut GramPacketBuf,
    ) {
        {
            let _sp = obs::span(SpanKind::Gram);
            gram_packet(upow, rpow, udirs, packet);
        }
        charge_gram_packet(self, packet.s(), upow, rpow, udirs);
    }

    /// Local Gram product `XᵀY`; combine entries with an allreduce.
    fn local_gram(&mut self, x: &MultiVector, y: &MultiVector) -> DenseMatrix {
        let _sp = obs::span(SpanKind::Gram);
        let (kx, ky) = (x.ncols() as f64, y.ncols() as f64);
        let (bx, by) = (self.buf_of_multi(x), self.buf_of_multi(y));
        self.charge_local_rw(
            LocalKind::Dot,
            2.0 * kx * ky,
            8.0 * (kx + ky),
            [bx, by],
            BufId::ANON,
        );
        x.gram(y)
    }

    /// Local Gram product between column ranges of two blocks.
    fn local_gram_range(
        &mut self,
        x: &MultiVector,
        xr: std::ops::Range<usize>,
        y: &MultiVector,
        yr: std::ops::Range<usize>,
    ) -> DenseMatrix {
        let _sp = obs::span(SpanKind::Gram);
        let (kx, ky) = (xr.len() as f64, yr.len() as f64);
        let (bx, by) = (self.buf_of_multi(x), self.buf_of_multi(y));
        self.charge_local_rw(
            LocalKind::Dot,
            2.0 * kx * ky,
            8.0 * (kx + ky),
            [bx, by],
            BufId::ANON,
        );
        x.gram_range(xr, y, yr)
    }

    /// Local block-vector products `Xᵀv`; combine with an allreduce.
    fn local_dot_vec(&mut self, x: &MultiVector, v: &[f64]) -> Vec<f64> {
        let _sp = obs::span(SpanKind::Gram);
        let k = x.ncols() as f64;
        let (bx, bv) = (self.buf_of_multi(x), self.buf_of(v));
        self.charge_local_rw(
            LocalKind::Dot,
            2.0 * k,
            8.0 * (k + 1.0),
            [bx, bv],
            BufId::ANON,
        );
        x.dot_vec(v)
    }
}

/// The cost declaration of one VMA reading `reads` and writing `write`:
/// 2 flops and 24 bytes per row (two operands read, one written).
fn charge_vma_rw<C: Context + ?Sized>(ctx: &mut C, reads: [BufId; 2], write: BufId) {
    ctx.charge_local_rw(LocalKind::Vma, 2.0, 24.0, reads, write);
}

/// The cost declaration of the in-place VMA `y ← f(x, y)`.
fn charge_vma<C: Context + ?Sized>(ctx: &mut C, x: &[f64], y: &[f64]) {
    let (bx, by) = (ctx.buf_of(x), ctx.buf_of(y));
    charge_vma_rw(ctx, [bx, by], by);
}

/// The cost declaration of the local dot product `xᵀy`: 2 flops and 16
/// bytes per row.
fn charge_dot<C: Context + ?Sized>(ctx: &mut C, x: &[f64], y: &[f64]) {
    let (bx, by) = (ctx.buf_of(x), ctx.buf_of(y));
    ctx.charge_local_rw(LocalKind::Dot, 2.0, 16.0, [bx, by], BufId::ANON);
}

/// The local parts of PIPECG's four dot products `[r·u, w·u, r·r, u·u]`
/// in one pass over `r`, `u` and `w` ([`kernels::dots_ruw`]); combine
/// with an allreduce. Bitwise, and charged, as the four
/// [`Context::local_dot`] calls it replaces, in that order, under one
/// `Dot` span.
pub fn local_dots_ruw<C: Context + ?Sized>(
    ctx: &mut C,
    r: &[f64],
    u: &[f64],
    w: &[f64],
) -> [f64; 4] {
    let _sp = obs::span(SpanKind::Dot);
    for (x, y) in [(r, u), (w, u), (r, r), (u, u)] {
        charge_dot(ctx, x, y);
    }
    kernels::dots_ruw(r, u, w)
}

/// One PIPECG recurrence pass with the local parts of the next pass's dot
/// products, in one sweep over the rows under one `Combine` span
/// ([`kernels::pipecg_sweep`]).
///
/// Numerically and trace-wise this is the sequence it replaces: the
/// `aypx` calls `z, q, s, p` with `β`, the `axpy` calls `x += α·p`,
/// `r −= α·s`, `u −= α·q`, `w −= α·z`, then the [`Context::local_dot`]
/// calls `r·u, w·u, r·r, u·u` — every result bitwise, every charge op for
/// op and in that order.
pub fn pipecg_sweep<C: Context + ?Sized>(
    ctx: &mut C,
    v: &mut PipecgVectors<'_>,
    alpha: f64,
    beta: f64,
) -> [f64; 4] {
    let dots = {
        let _sp = obs::span(SpanKind::Combine);
        kernels::pipecg_sweep(v, alpha, beta)
    };
    let v = &*v;
    for (x, y) in [(v.n, &*v.z), (v.m, v.q), (v.w, v.s), (v.u, v.p)] {
        charge_vma(ctx, x, y);
    }
    for (x, y) in [(&*v.p, &*v.x), (v.s, v.r), (v.q, v.u), (v.z, v.w)] {
        charge_vma(ctx, x, y);
    }
    for (x, y) in [(&*v.r, &*v.u), (v.w, v.u), (v.r, v.r), (v.u, v.u)] {
        charge_dot(ctx, x, y);
    }
    dots
}

/// The cost declarations of one conjugation window
/// `dst = src[:, off..] + prev·B`: a copy per column, then the LC.
fn charge_combine<C: Context + ?Sized>(
    ctx: &mut C,
    dst: &MultiVector,
    src: &MultiVector,
    off: usize,
    prev: &MultiVector,
) {
    for j in 0..dst.ncols() {
        let (bs, bd) = (ctx.buf_of(src.col(off + j)), ctx.buf_of(dst.col(j)));
        ctx.charge_local_rw(LocalKind::Vma, 0.0, 16.0, [bs, BufId::ANON], bd);
    }
    let (k, m) = (prev.ncols() as f64, dst.ncols() as f64);
    let (bx, by) = (ctx.buf_of_multi(dst), ctx.buf_of_multi(prev));
    ctx.charge_local_rw(
        LocalKind::Vma,
        2.0 * k * m,
        8.0 * (k + 2.0 * m),
        [by, bx],
        bx,
    );
}

/// The cost declarations of one basis shift `dst = src − X·a`: the copy,
/// then the GEMV.
fn charge_shift<C: Context + ?Sized>(ctx: &mut C, x: &MultiVector, src: &[f64], dst: &[f64]) {
    let (bs, bd) = (ctx.buf_of(src), ctx.buf_of(dst));
    ctx.charge_local_rw(LocalKind::Vma, 0.0, 16.0, [bs, BufId::ANON], bd);
    let k = x.ncols() as f64;
    let (bx, by) = (ctx.buf_of_multi(x), ctx.buf_of(dst));
    ctx.charge_local_rw(LocalKind::Vma, 2.0 * k, 8.0 * (k + 2.0), [bx, by], by);
}

/// The cost declarations of one Gram packet: `N` and `C` as Gram ranges
/// against `rpow[1..=s]`, then a dot per `g1` / `g2` entry and norm.
fn charge_gram_packet<C: Context + ?Sized>(
    ctx: &mut C,
    s: usize,
    upow: &MultiVector,
    rpow: &MultiVector,
    udirs: &MultiVector,
) {
    let sf = s as f64;
    for left in [upow, udirs] {
        let (bx, by) = (ctx.buf_of_multi(left), ctx.buf_of_multi(rpow));
        ctx.charge_local_rw(
            LocalKind::Dot,
            2.0 * sf * sf,
            16.0 * sf,
            [bx, by],
            BufId::ANON,
        );
    }
    let (r, u) = (rpow.col(0), upow.col(0));
    let lefts = [upow, udirs]
        .into_iter()
        .flat_map(|m| (0..s).map(move |j| m.col(j)));
    for (x, y) in lefts.map(|x| (x, r)).chain([(r, r), (u, u), (r, u)]) {
        let (bx, by) = (ctx.buf_of(x), ctx.buf_of(y));
        ctx.charge_local_rw(LocalKind::Dot, 2.0, 16.0, [bx, by], BufId::ANON);
    }
}

/// Numerical-invariant probe state (see [`SimCtx::enable_probes`]).
#[derive(Debug)]
struct ProbeState {
    /// Residual checks without improvement before the probe fires.
    window: usize,
    /// Best relative residual seen so far.
    best: f64,
    /// Consecutive checks without improvement.
    stale: usize,
}

/// The single-rank engine: real numerics over the global problem, optional
/// operation tracing for replay.
pub struct SimCtx<'a> {
    a: &'a CsrMatrix,
    pc: Box<dyn Operator + 'a>,
    counters: OpCounters,
    trace: Option<OpTrace>,
    #[expect(clippy::disallowed_types, reason = "keyed lookup, never iterated")]
    inflight: HashMap<u64, Vec<f64>>,
    next_id: u64,
    /// Storage address → interned buffer id (tracing runs only).
    #[expect(clippy::disallowed_types, reason = "keyed lookup, never iterated")]
    bufs: HashMap<usize, u64>,
    next_buf: u64,
    probes: Option<ProbeState>,
    /// Armed fault injector (`None` on clean runs — every hook below is a
    /// single `Option` check then).
    injector: Option<Injector>,
    /// Reductions whose completion was delayed: id → remaining backoff
    /// ticks before `try_wait` succeeds.
    #[expect(clippy::disallowed_types, reason = "keyed lookup, never iterated")]
    delayed: HashMap<u64, u32>,
    /// Payload of the most recently completed reduction, kept only while a
    /// plan is armed — a duplicated completion delivers this stale value.
    last_completed: Option<Vec<f64>>,
    /// Pending rank-level machine events from the armed plan (fired events
    /// are removed; empty on clean runs, so every hook below early-returns).
    rank_events: Vec<RankEvent>,
    /// True iff the armed plan scheduled any rank events — persists after
    /// the events fire (unlike `rank_events`), gating the buddy-checkpoint
    /// cost on clean runs.
    rank_events_armed: bool,
    /// World size the rank events are modeled against.
    modeled_ranks: u32,
    /// Global collective counter (blocking allreduces + non-blocking posts)
    /// that rank events key on. Only advanced while events are pending.
    collective_idx: u64,
    /// Ranks that died and have not been rebuilt.
    dead: Vec<u32>,
    /// The failure currently poisoning the communicator (ULFM's
    /// `MPI_ERR_PROC_FAILED` state): sticky until `buddy_recover` repairs
    /// it.
    active_failure: Option<RankFailure>,
    /// The neighbor-held checkpoint of the iterate (most recent
    /// `buddy_put`).
    buddy_ckpt: Option<Vec<f64>>,
    /// Recovery-ladder codes in decision order (see
    /// [`Context::note_recovery_code`]).
    recovery_log: Vec<u64>,
}

impl<'a> SimCtx<'a> {
    /// A plain serial context: numerics only, no trace.
    #[expect(clippy::disallowed_types, reason = "keyed lookup, never iterated")]
    pub fn serial(a: &'a CsrMatrix, pc: Box<dyn Operator + 'a>) -> Self {
        assert_eq!(a.nrows(), a.ncols(), "solver context needs a square matrix");
        assert_eq!(pc.nrows(), a.nrows(), "preconditioner dimension mismatch");
        SimCtx {
            a,
            pc,
            counters: OpCounters::default(),
            trace: None,
            inflight: HashMap::new(),
            next_id: 0,
            bufs: HashMap::new(),
            next_buf: 1,
            probes: None,
            injector: None,
            delayed: HashMap::new(),
            last_completed: None,
            rank_events: Vec::new(),
            rank_events_armed: false,
            modeled_ranks: 8,
            collective_idx: 0,
            dead: Vec::new(),
            active_failure: None,
            buddy_ckpt: None,
            recovery_log: Vec::new(),
        }
    }

    /// A tracing context: `profile` describes how `a`'s work distributes
    /// over ranks for the replay engine.
    pub fn traced(a: &'a CsrMatrix, pc: Box<dyn Operator + 'a>, profile: MatrixProfile) -> Self {
        let mut ctx = SimCtx::serial(a, pc);
        let mut trace = OpTrace::new(a.nrows());
        trace.register_matrix(profile);
        ctx.trace = Some(trace);
        ctx
    }

    /// Takes the recorded trace (if tracing was enabled), leaving the
    /// context untraced.
    pub fn take_trace(&mut self) -> Option<OpTrace> {
        self.trace.take()
    }

    /// The matrix this context solves with.
    pub fn matrix(&self) -> &CsrMatrix {
        self.a
    }

    /// Name of the configured preconditioner.
    pub fn pc_name(&self) -> String {
        self.pc.name().to_string()
    }

    /// Turns on numerical-invariant probes at trace boundaries: values
    /// entering a reduction must be finite, reported residuals must be
    /// finite, and the residual must improve at least once every
    /// `stagnation_window` convergence checks. Opt-in because legitimate
    /// breakdown paths (the hybrid's restart trigger) push non-finite or
    /// stagnating residuals *by design* before they recover.
    ///
    /// # Panics
    /// Subsequent solver activity panics as soon as an invariant is violated.
    pub fn enable_probes(&mut self, stagnation_window: usize) {
        assert!(stagnation_window > 0, "stagnation window must be positive");
        self.probes = Some(ProbeState {
            window: stagnation_window,
            best: f64::INFINITY,
            stale: 0,
        });
    }

    /// Arms a deterministic fault-injection plan (see `pscg_fault`):
    /// subsequent kernel outputs, reduction contributions and reduction
    /// completions are subject to the plan's scheduled events. With no plan
    /// armed every hook is a single `Option` check and the engine is
    /// bitwise-identical to one built before fault injection existed.
    pub fn arm_faults(&mut self, plan: FaultPlan) {
        self.rank_events = plan.rank_events.clone();
        self.rank_events_armed = !plan.rank_events.is_empty();
        self.modeled_ranks = if plan.ranks == 0 { 8 } else { plan.ranks };
        self.injector = Some(Injector::new(plan));
    }

    /// Recovery-ladder codes noted so far, in decision order.
    pub fn recovery_log(&self) -> &[u64] {
        &self.recovery_log
    }

    /// Takes the recovery log, leaving it empty.
    pub fn take_recovery_log(&mut self) -> Vec<u64> {
        std::mem::take(&mut self.recovery_log)
    }

    /// The faults applied so far (empty when no plan is armed).
    pub fn fault_log(&self) -> &[FaultRecord] {
        self.injector.as_ref().map(|i| i.log()).unwrap_or(&[])
    }

    /// Takes the fault log, leaving it empty.
    pub fn take_fault_log(&mut self) -> Vec<FaultRecord> {
        self.injector
            .as_mut()
            .map(|i| i.take_log())
            .unwrap_or_default()
    }

    /// Applies any data fault the plan scheduled for this invocation of
    /// `site` to `out`, reporting it to telemetry when one fired.
    fn inject_data(&mut self, site: FaultSite, out: &mut [f64]) {
        let hit = match self.injector.as_mut() {
            Some(inj) => inj.corrupt(site, out),
            None => return,
        };
        if hit {
            self.note_fault(site);
        }
    }

    /// Reports one injected fault as a first-class telemetry event.
    fn note_fault(&mut self, site: FaultSite) {
        obs::metrics::note_fault_injected();
        obs::span::record_span(SpanKind::Fault, site.index() as u64, obs::now_ns(), 0);
    }

    /// Advances the global collective counter and fires any rank event the
    /// plan scheduled for this collective. Called at the head of every
    /// blocking allreduce and non-blocking post; with no pending rank
    /// events (clean runs and armed-but-empty plans alike) this is a single
    /// emptiness check and the engine stays bitwise-inert.
    fn on_collective(&mut self) {
        if self.rank_events.is_empty() {
            return;
        }
        let idx = self.collective_idx;
        self.collective_idx += 1;
        let mut i = 0;
        while i < self.rank_events.len() {
            if self.rank_events[i].nth != idx {
                i += 1;
                continue;
            }
            let ev = self.rank_events.remove(i);
            match ev.kind {
                RankFault::Slow { factor } => {
                    self.record(Op::RankSlow {
                        rank: ev.rank,
                        factor,
                    });
                }
                RankFault::Dead => {
                    self.record(Op::RankDead { rank: ev.rank });
                    if !self.dead.contains(&ev.rank) {
                        self.dead.push(ev.rank);
                    }
                    if self.active_failure.is_none() {
                        self.active_failure = Some(RankFailure {
                            rank: ev.rank,
                            at_collective: idx,
                        });
                    }
                }
            }
        }
    }

    /// The fault-free completion path shared by `wait` and `try_wait`.
    fn complete_wait(&mut self, h: ReduceHandle) -> Vec<f64> {
        #[expect(clippy::expect_used, reason = "an unknown handle is a caller bug")]
        let mut vals = self
            .inflight
            .remove(&h.id)
            .expect("wait on unknown or already-completed ReduceHandle");
        if self.active_failure.is_some() {
            // A dead rank never contributes: the reduction can only
            // deliver poison, never a silently-wrong sum.
            vals.iter_mut().for_each(|v| *v = f64::NAN);
        }
        self.record(Op::ArWait { id: h.id });
        pscg_par::sync_trace::record(pscg_par::sync_trace::SyncEvent::ReduceComplete { id: h.id });
        obs::span::window_close(h.id);
        if self.injector.is_some() {
            self.last_completed = Some(vals.clone());
        }
        vals
    }

    fn record(&mut self, op: Op) {
        if let Some(t) = self.trace.as_mut() {
            t.push(op);
        }
    }

    /// Interns a storage address as a stable buffer identity. Only active
    /// while tracing; serial runs skip the bookkeeping entirely.
    ///
    /// Identity is the address of the first element, so a vector freed and
    /// another allocated at the same address would alias — the solvers
    /// allocate their working vectors once up front, which is also what the
    /// paper's MPI implementations do, so this cannot occur mid-solve.
    fn intern_ptr(&mut self, ptr: *const f64) -> BufId {
        if self.trace.is_none() {
            return BufId::ANON;
        }
        let fresh = self.next_buf;
        let id = *self.bufs.entry(ptr as usize).or_insert(fresh);
        if id == fresh {
            self.next_buf += 1;
        }
        BufId(id)
    }

    fn probe_reduction_input(&self, vals: &[f64]) {
        if self.probes.is_some() {
            assert!(
                vals.iter().all(|v| v.is_finite()),
                "probe: non-finite value entering an allreduce: {vals:?}"
            );
        }
    }

    fn charge_local_full(
        &mut self,
        kind: LocalKind,
        flops_per_row: f64,
        bytes_per_row: f64,
        reads: [BufId; 2],
        write: BufId,
    ) {
        let n = self.a.nrows() as f64;
        match kind {
            LocalKind::Vma => self.counters.vma_flops += flops_per_row * n,
            LocalKind::Dot => self.counters.dot_flops += flops_per_row * n,
        }
        self.record(Op::Local {
            kind,
            flops_per_row,
            bytes_per_row,
            reads,
            write,
        });
    }
}

impl Context for SimCtx<'_> {
    fn nrows(&self) -> usize {
        self.a.nrows()
    }

    fn vec_len(&self) -> usize {
        self.a.nrows()
    }

    fn rank(&self) -> usize {
        0
    }

    fn nranks(&self) -> usize {
        1
    }

    fn matrix_nnz(&self) -> usize {
        self.a.nnz()
    }

    fn pc_cost_rates(&self) -> (f64, f64) {
        let c = self.pc.cost();
        (c.flops_per_row, c.bytes_per_row)
    }

    fn spmv(&mut self, x: &[f64], y: &mut [f64]) {
        let _sp = obs::span(SpanKind::Spmv);
        self.a.spmv(x, y);
        self.inject_data(FaultSite::Spmv, y);
        self.counters.spmv += 1;
        let (bx, by) = (self.intern_ptr(x.as_ptr()), self.intern_ptr(y.as_ptr()));
        self.record(Op::Spmv {
            matrix: 0,
            x: bx,
            y: by,
        });
    }

    #[expect(clippy::float_cmp, reason = "sigma is set, never computed")]
    fn mpk(&mut self, pow: &mut MultiVector, from: usize, to: usize, sigma: f64) {
        if to <= from {
            return;
        }
        // The constituent products below call `a.spmv` directly (no trait
        // dispatch), so this is the only span recorded — no nested Spmv
        // spans that would double-count overlap credit.
        let _sp = obs::span(SpanKind::Mpk);
        for j in from + 1..=to {
            {
                let (src, dst) = pow.col_pair_mut(j - 1, j);
                self.a.spmv(src, dst);
            }
            if sigma != 1.0 {
                pscg_sparse::kernels::scale(sigma, pow.col_mut(j));
                self.charge_local(LocalKind::Vma, 1.0, 16.0);
            }
        }
        self.inject_data(FaultSite::Mpk, pow.col_mut(to));
        // Count the constituent products too, so OpCounters stay
        // comparable across engines (the thread engine's default falls
        // back to individual SpMVs).
        self.counters.spmv += (to - from) as u64;
        self.counters.mpk += 1;
        let block = if pow.ncols() == 0 {
            BufId::ANON
        } else {
            self.intern_ptr(pow.data().as_ptr())
        };
        self.record(Op::Mpk {
            matrix: 0,
            depth: to - from,
            block,
        });
    }

    fn pc_apply(&mut self, r: &[f64], u: &mut [f64]) {
        let _sp = obs::span(SpanKind::Pc);
        self.pc.apply(r, u);
        self.inject_data(FaultSite::Pc, u);
        self.counters.pc += 1;
        let c = self.pc.cost();
        let (br, bu) = (self.intern_ptr(r.as_ptr()), self.intern_ptr(u.as_ptr()));
        self.record(Op::Pc {
            matrix: 0,
            flops_per_row: c.flops_per_row,
            bytes_per_row: c.bytes_per_row,
            comm_rounds: c.comm_rounds,
            r: br,
            u: bu,
        });
    }

    fn pc_demote(&mut self) -> bool {
        // The IR keeps seeing the same logical Pc node: `pc_apply` records
        // the operator's *current* declared cost, so demotion shows up as
        // updated cost metadata, not a new node kind.
        self.pc.demote_precision()
    }

    fn pc_promote(&mut self) {
        self.pc.promote_precision();
    }

    fn pc_demoted(&self) -> bool {
        self.pc.is_demoted()
    }

    fn allreduce(&mut self, vals: &[f64]) -> Vec<f64> {
        let _sp = obs::span(SpanKind::Allreduce);
        self.on_collective();
        self.probe_reduction_input(vals);
        self.counters.blocking_allreduce += 1;
        self.counters.reduced_doubles += vals.len() as u64;
        self.record(Op::ArBlocking {
            doubles: vals.len(),
            comm: CommId::WORLD,
        });
        let mut out = vals.to_vec();
        self.inject_data(FaultSite::Reduce, &mut out);
        if self.active_failure.is_some() {
            // See `complete_wait`: a reduction over a failed communicator
            // delivers poison, never a silently partial sum.
            out.iter_mut().for_each(|v| *v = f64::NAN);
        }
        out
    }

    fn iallreduce(&mut self, vals: &[f64]) -> ReduceHandle {
        self.on_collective();
        self.probe_reduction_input(vals);
        let id = self.next_id;
        self.next_id += 1;
        self.counters.nonblocking_allreduce += 1;
        self.counters.reduced_doubles += vals.len() as u64;
        self.record(Op::ArPost {
            id,
            doubles: vals.len(),
            comm: CommId::WORLD,
        });
        let mut stored = vals.to_vec();
        self.inject_data(FaultSite::Reduce, &mut stored);
        self.inflight.insert(id, stored);
        pscg_par::sync_trace::record(pscg_par::sync_trace::SyncEvent::ReducePost { id });
        obs::span::window_open(id);
        ReduceHandle { id }
    }

    fn wait(&mut self, h: ReduceHandle) -> Vec<f64> {
        self.complete_wait(h)
    }

    #[expect(clippy::expect_used, reason = "an unknown handle is a caller bug")]
    #[expect(clippy::unwrap_used, reason = "the None case returned above")]
    fn try_wait(&mut self, h: ReduceHandle) -> WaitOutcome {
        if let Some(failure) = self.active_failure {
            // ULFM semantics: the wait raises the process failure instead
            // of a value. Retire the handle — the trace records a
            // non-retriable timeout so the overlap window closes and
            // replay's pending-set accounting stays exact.
            let id = h.id;
            self.inflight
                .remove(&id)
                .expect("wait on unknown or already-completed ReduceHandle");
            self.delayed.remove(&id);
            self.record(Op::ArTimeout {
                id,
                retriable: false,
            });
            obs::span::window_close(id);
            return WaitOutcome::RankFailed(failure);
        }
        if self.injector.is_none() {
            return WaitOutcome::Done(self.complete_wait(h));
        }
        // A completion already marked delayed ticks down deterministically
        // without consulting the plan again.
        if let Some(ticks) = self.delayed.get_mut(&h.id) {
            if *ticks == 0 {
                self.delayed.remove(&h.id);
                return WaitOutcome::Done(self.complete_wait(h));
            }
            *ticks -= 1;
            let id = h.id;
            self.record(Op::ArTimeout {
                id,
                retriable: true,
            });
            return WaitOutcome::TimedOut {
                handle: Some(h),
                fault: ReduceTimeout {
                    id,
                    retriable: true,
                },
            };
        }
        match self.injector.as_mut().unwrap().completion_fate() {
            None => WaitOutcome::Done(self.complete_wait(h)),
            Some(CompletionFault::Drop) => {
                // The reduction's values are lost. Retire the handle and
                // record a non-retriable timeout op — the schedule
                // analyzer sees the dropped completion as what it is (the
                // timeout closes the overlap window; a plain `ArWait`
                // would disguise the fault as a clean completion) — and
                // surface the timeout to the solver: never a hang, never
                // silent data.
                self.note_fault(FaultSite::Wait);
                let id = h.id;
                self.inflight
                    .remove(&id)
                    .expect("wait on unknown or already-completed ReduceHandle");
                self.record(Op::ArTimeout {
                    id,
                    retriable: false,
                });
                obs::span::window_close(id);
                WaitOutcome::TimedOut {
                    handle: None,
                    fault: ReduceTimeout {
                        id,
                        retriable: false,
                    },
                }
            }
            Some(CompletionFault::Delay { ticks }) => {
                self.note_fault(FaultSite::Wait);
                if ticks == 0 {
                    return WaitOutcome::Done(self.complete_wait(h));
                }
                self.delayed.insert(h.id, ticks - 1);
                let id = h.id;
                self.record(Op::ArTimeout {
                    id,
                    retriable: true,
                });
                WaitOutcome::TimedOut {
                    handle: Some(h),
                    fault: ReduceTimeout {
                        id,
                        retriable: true,
                    },
                }
            }
            Some(CompletionFault::Duplicate) => {
                // A stale (duplicated) completion delivers the *previous*
                // reduction's payload — a silent data fault the drift
                // probe, not the wait path, must catch.
                self.note_fault(FaultSite::Wait);
                let stale = self.last_completed.clone();
                let correct = self.complete_wait(h);
                match stale {
                    Some(s) if s.len() == correct.len() => WaitOutcome::Done(s),
                    _ => WaitOutcome::Done(correct),
                }
            }
        }
    }

    fn peek_pending(&mut self, h: &ReduceHandle) -> Vec<f64> {
        #[expect(clippy::expect_used, reason = "an unknown handle is a caller bug")]
        let vals = self
            .inflight
            .get(&h.id)
            .expect("peek of unknown or already-completed ReduceHandle")
            .clone();
        self.record(Op::RedRead { id: h.id });
        vals
    }

    fn rank_failure(&self) -> Option<RankFailure> {
        self.active_failure
    }

    fn buddy_put(&mut self, x: &[f64]) {
        // Only worth modeling when the plan can actually kill a rank; on
        // every other run the checkpoint would be dead weight.
        if self.rank_events_armed {
            self.buddy_ckpt = Some(x.to_vec());
        }
    }

    fn buddy_recover(&mut self) -> BuddyRecovery {
        let Some(failure) = self.active_failure else {
            return BuddyRecovery::NoFailure;
        };
        let buddy = (failure.rank + 1) % self.modeled_ranks;
        if self.dead.contains(&buddy) {
            return BuddyRecovery::Lost {
                rank: failure.rank,
                buddy,
            };
        }
        // The buddy holds the checkpoint: rebuild the partition, shrink
        // the failure out of the communicator and resume.
        self.active_failure = None;
        self.dead.retain(|&r| r != failure.rank);
        BuddyRecovery::Restored {
            rank: failure.rank,
            x: self.buddy_ckpt.clone(),
        }
    }

    fn note_recovery_code(&mut self, code: u64) {
        self.recovery_log.push(code);
    }

    fn buf_of(&mut self, v: &[f64]) -> BufId {
        self.intern_ptr(v.as_ptr())
    }

    fn buf_of_multi(&mut self, m: &MultiVector) -> BufId {
        if m.ncols() == 0 {
            BufId::ANON
        } else {
            self.intern_ptr(m.data().as_ptr())
        }
    }

    fn charge_local(&mut self, kind: LocalKind, flops_per_row: f64, bytes_per_row: f64) {
        self.charge_local_full(
            kind,
            flops_per_row,
            bytes_per_row,
            [BufId::ANON; 2],
            BufId::ANON,
        );
    }

    fn charge_local_rw(
        &mut self,
        kind: LocalKind,
        flops_per_row: f64,
        bytes_per_row: f64,
        reads: [BufId; 2],
        write: BufId,
    ) {
        self.charge_local_full(kind, flops_per_row, bytes_per_row, reads, write);
    }

    fn charge_scalar(&mut self, flops: f64) {
        self.counters.scalar_flops += flops;
        self.record(Op::Scalar { flops });
    }

    fn note_residual(&mut self, relres: f64) {
        if let Some(p) = self.probes.as_mut() {
            assert!(relres.is_finite(), "probe: non-finite residual {relres}");
            if relres < p.best {
                p.best = relres;
                p.stale = 0;
            } else {
                p.stale += 1;
                assert!(
                    p.stale < p.window,
                    "probe: residual stagnated for {} consecutive checks (best {:.3e})",
                    p.window,
                    p.best
                );
            }
        }
        self.record(Op::ResCheck { relres });
    }

    fn counters(&self) -> &OpCounters {
        &self.counters
    }

    fn counters_mut(&mut self) -> &mut OpCounters {
        &mut self.counters
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::Layout;
    use pscg_sparse::op::IdentityOp;
    use pscg_sparse::stencil::{poisson3d_7pt, Grid3};

    fn ctx_pair() -> (CsrMatrix, MatrixProfile) {
        let g = Grid3::cube(5);
        let a = poisson3d_7pt(g, None);
        let nnz = a.nnz();
        (a, MatrixProfile::stencil3d(5, 5, 5, 1, nnz, Layout::Box))
    }

    #[test]
    fn serial_ctx_runs_kernels_and_counts() {
        let (a, _) = ctx_pair();
        let n = a.nrows();
        let mut ctx = SimCtx::serial(&a, Box::new(IdentityOp::new(n)));
        let x = ctx.alloc_vec();
        let mut y = ctx.alloc_vec();
        ctx.spmv(&x, &mut y);
        ctx.pc_apply(&x, &mut y);
        let d = ctx.local_dot(&x, &y);
        let g = ctx.allreduce(&[d]);
        assert_eq!(g, vec![0.0]);
        assert_eq!(ctx.counters().spmv, 1);
        assert_eq!(ctx.counters().pc, 1);
        assert_eq!(ctx.counters().blocking_allreduce, 1);
        assert_eq!(ctx.counters().vectors_allocated, 2);
        assert!(ctx.counters().dot_flops > 0.0);
        assert!(ctx.take_trace().is_none());
    }

    #[test]
    fn traced_ctx_records_ops_in_order() {
        let (a, prof) = ctx_pair();
        let n = a.nrows();
        let mut ctx = SimCtx::traced(&a, Box::new(IdentityOp::new(n)), prof);
        let x = vec![1.0; n];
        let mut y = vec![0.0; n];
        ctx.spmv(&x, &mut y);
        let h = ctx.iallreduce(&[1.0, 2.0]);
        ctx.spmv(&x, &mut y);
        let got = ctx.wait(h);
        assert_eq!(got, vec![1.0, 2.0]);
        ctx.note_residual(0.5);
        let trace = ctx.take_trace().unwrap();
        assert_eq!(trace.comm_counts(), (2, 0, 0, 1));
        assert!(matches!(trace.ops.last(), Some(Op::ResCheck { .. })));
    }

    #[test]
    fn iallreduce_returns_identity_sum_on_one_rank() {
        let (a, _) = ctx_pair();
        let n = a.nrows();
        let mut ctx = SimCtx::serial(&a, Box::new(IdentityOp::new(n)));
        let h = ctx.iallreduce(&[3.5, -1.0]);
        assert_eq!(ctx.wait(h), vec![3.5, -1.0]);
    }

    #[test]
    #[should_panic(expected = "unknown or already-completed")]
    fn double_wait_panics() {
        let (a, _) = ctx_pair();
        let n = a.nrows();
        let mut ctx = SimCtx::serial(&a, Box::new(IdentityOp::new(n)));
        let h = ctx.iallreduce(&[1.0]);
        let id = h.id;
        ctx.wait(h);
        ctx.wait(ReduceHandle { id });
    }

    #[test]
    fn tracing_ctx_interns_buffer_identities() {
        let (a, prof) = ctx_pair();
        let n = a.nrows();
        let mut ctx = SimCtx::traced(&a, Box::new(IdentityOp::new(n)), prof);
        let x = vec![1.0; n];
        let mut y = vec![0.0; n];
        ctx.spmv(&x, &mut y);
        ctx.spmv(&y.clone(), &mut y);
        let bx = ctx.buf_of(&x);
        let by = ctx.buf_of(&y);
        assert!(bx.is_tracked() && by.is_tracked() && bx != by);
        let trace = ctx.take_trace().unwrap();
        match trace.ops[0] {
            Op::Spmv { x: ox, y: oy, .. } => {
                assert_eq!(ox, bx);
                assert_eq!(oy, by);
            }
            ref other => panic!("expected Spmv, got {other:?}"),
        }
        // Serial (untraced) contexts skip interning entirely.
        let mut serial = SimCtx::serial(&a, Box::new(IdentityOp::new(n)));
        assert_eq!(serial.buf_of(&x), BufId::ANON);
    }

    #[test]
    fn peek_pending_returns_local_values_and_records() {
        let (a, prof) = ctx_pair();
        let n = a.nrows();
        let mut ctx = SimCtx::traced(&a, Box::new(IdentityOp::new(n)), prof);
        let h = ctx.iallreduce(&[2.0, 4.0]);
        assert_eq!(ctx.peek_pending(&h), vec![2.0, 4.0]);
        assert_eq!(ctx.wait(h), vec![2.0, 4.0]);
        let trace = ctx.take_trace().unwrap();
        assert_eq!(
            trace.ops,
            vec![Op::post(0, 2), Op::RedRead { id: 0 }, Op::wait(0)]
        );
    }

    #[test]
    #[should_panic(expected = "non-finite value entering an allreduce")]
    fn probe_rejects_nan_reduction_input() {
        let (a, _) = ctx_pair();
        let n = a.nrows();
        let mut ctx = SimCtx::serial(&a, Box::new(IdentityOp::new(n)));
        ctx.enable_probes(100);
        ctx.allreduce(&[1.0, f64::NAN]);
    }

    #[test]
    #[should_panic(expected = "residual stagnated")]
    fn probe_rejects_stagnation() {
        let (a, _) = ctx_pair();
        let n = a.nrows();
        let mut ctx = SimCtx::serial(&a, Box::new(IdentityOp::new(n)));
        ctx.enable_probes(3);
        ctx.note_residual(1.0);
        for _ in 0..4 {
            ctx.note_residual(1.0);
        }
    }

    #[test]
    fn probe_allows_slow_but_real_progress() {
        let (a, _) = ctx_pair();
        let n = a.nrows();
        let mut ctx = SimCtx::serial(&a, Box::new(IdentityOp::new(n)));
        ctx.enable_probes(3);
        let mut r = 1.0;
        for _ in 0..20 {
            ctx.note_residual(r);
            ctx.note_residual(r); // one stale check between improvements
            r *= 0.9;
        }
    }

    #[test]
    fn armed_empty_plan_changes_nothing() {
        let (a, _) = ctx_pair();
        let n = a.nrows();
        let x = vec![1.0; n];
        let mut y_clean = vec![0.0; n];
        let mut y_armed = vec![0.0; n];

        let mut clean = SimCtx::serial(&a, Box::new(IdentityOp::new(n)));
        clean.spmv(&x, &mut y_clean);
        let h = clean.iallreduce(&[1.5, 2.5]);
        let r_clean = match clean.try_wait(h) {
            WaitOutcome::Done(v) => v,
            other => panic!("clean try_wait must complete, got {other:?}"),
        };

        let mut armed = SimCtx::serial(&a, Box::new(IdentityOp::new(n)));
        armed.arm_faults(FaultPlan::new(42));
        armed.spmv(&x, &mut y_armed);
        let h = armed.iallreduce(&[1.5, 2.5]);
        let r_armed = match armed.try_wait(h) {
            WaitOutcome::Done(v) => v,
            other => panic!("empty plan must complete, got {other:?}"),
        };

        assert_eq!(y_clean, y_armed, "empty plan must not touch kernels");
        assert_eq!(r_clean, r_armed);
        assert!(armed.fault_log().is_empty());
    }

    #[test]
    fn spmv_bitflip_fires_on_the_scheduled_call() {
        use pscg_fault::FaultAction;
        let (a, _) = ctx_pair();
        let n = a.nrows();
        let mut ctx = SimCtx::serial(&a, Box::new(IdentityOp::new(n)));
        ctx.arm_faults(FaultPlan::new(7).with(
            FaultSite::Spmv,
            1,
            FaultAction::BitFlip { bit: 51 },
        ));
        let x = vec![1.0; n];
        let mut y0 = vec![0.0; n];
        let mut y1 = vec![0.0; n];
        ctx.spmv(&x, &mut y0); // call 0: clean
        ctx.spmv(&x, &mut y1); // call 1: one element flipped
        let mut reference = vec![0.0; n];
        a.spmv(&x, &mut reference);
        assert_eq!(y0, reference);
        let diffs = y1
            .iter()
            .zip(&reference)
            .filter(|(a, b)| a.to_bits() != b.to_bits())
            .count();
        assert_eq!(diffs, 1, "exactly one element corrupted");
        assert_eq!(ctx.fault_log().len(), 1);
    }

    #[test]
    fn dropped_completion_times_out_instead_of_hanging() {
        use pscg_fault::FaultAction;
        let (a, _) = ctx_pair();
        let n = a.nrows();
        let mut ctx = SimCtx::serial(&a, Box::new(IdentityOp::new(n)));
        ctx.arm_faults(FaultPlan::new(1).with(FaultSite::Wait, 0, FaultAction::Drop));
        let h = ctx.iallreduce(&[2.0]);
        match ctx.try_wait(h) {
            WaitOutcome::TimedOut { handle, fault } => {
                assert!(handle.is_none(), "dropped values cannot be re-waited");
                assert!(!fault.retriable);
            }
            other => panic!("expected timeout, got {other:?}"),
        }
        // The handle is retired: a fresh reduction works normally.
        let h = ctx.iallreduce(&[3.0]);
        assert!(matches!(ctx.try_wait(h), WaitOutcome::Done(v) if v == vec![3.0]));
    }

    #[test]
    fn delayed_completion_retries_then_completes() {
        use pscg_fault::FaultAction;
        let (a, _) = ctx_pair();
        let n = a.nrows();
        let mut ctx = SimCtx::serial(&a, Box::new(IdentityOp::new(n)));
        ctx.arm_faults(FaultPlan::new(1).with(FaultSite::Wait, 0, FaultAction::Delay { ticks: 2 }));
        let mut h = ctx.iallreduce(&[4.0]);
        let mut timeouts = 0;
        let got = loop {
            match ctx.try_wait(h) {
                WaitOutcome::Done(v) => break v,
                WaitOutcome::TimedOut { handle, fault } => {
                    assert!(fault.retriable);
                    timeouts += 1;
                    h = handle.expect("delayed handle stays waitable");
                }
                WaitOutcome::RankFailed(f) => panic!("no rank events armed, got {f}"),
            }
        };
        assert_eq!(got, vec![4.0]);
        assert_eq!(timeouts, 2, "two backoff ticks before completion");
    }

    #[test]
    fn duplicated_completion_delivers_the_stale_payload() {
        use pscg_fault::FaultAction;
        let (a, _) = ctx_pair();
        let n = a.nrows();
        let mut ctx = SimCtx::serial(&a, Box::new(IdentityOp::new(n)));
        ctx.arm_faults(FaultPlan::new(1).with(FaultSite::Wait, 1, FaultAction::Duplicate));
        let h = ctx.iallreduce(&[1.0, 2.0]);
        assert!(matches!(ctx.try_wait(h), WaitOutcome::Done(v) if v == vec![1.0, 2.0]));
        let h = ctx.iallreduce(&[9.0, 9.0]);
        match ctx.try_wait(h) {
            WaitOutcome::Done(v) => assert_eq!(v, vec![1.0, 2.0], "stale payload delivered"),
            other => panic!("duplicate completes (with stale data), got {other:?}"),
        }
    }

    #[test]
    fn rank_death_fails_collectives_until_buddy_recovery() {
        let (a, _) = ctx_pair();
        let n = a.nrows();
        let mut ctx = SimCtx::serial(&a, Box::new(IdentityOp::new(n)));
        ctx.arm_faults(FaultPlan::new(3).with_ranks(8).with_rank_dead(3, 1));

        // Collective 0: clean.
        assert!(ctx.rank_failure().is_none());
        assert_eq!(ctx.allreduce(&[2.0]), vec![2.0]);
        ctx.buddy_put(&[7.0; 4]);

        // Collective 1: rank 3 dies. Blocking reductions poison...
        let poisoned = ctx.allreduce(&[2.0]);
        assert!(poisoned[0].is_nan(), "dead-rank reduction must poison");
        let failure = ctx.rank_failure().expect("failure is sticky");
        assert_eq!((failure.rank, failure.at_collective), (3, 1));

        // ...and a posted reduction raises the failure at the wait,
        // retiring its handle.
        let h = ctx.iallreduce(&[1.0]);
        match ctx.try_wait(h) {
            WaitOutcome::RankFailed(f) => assert_eq!(f.rank, 3),
            other => panic!("expected RankFailed, got {other:?}"),
        }

        // The buddy (rank 4) survives: recovery restores the checkpoint
        // and the communicator works again.
        match ctx.buddy_recover() {
            BuddyRecovery::Restored { rank, x } => {
                assert_eq!(rank, 3);
                assert_eq!(x.as_deref(), Some(&[7.0; 4][..]));
            }
            other => panic!("expected Restored, got {other:?}"),
        }
        assert!(ctx.rank_failure().is_none());
        assert_eq!(ctx.allreduce(&[5.0]), vec![5.0]);
    }

    #[test]
    fn buddy_death_makes_the_partition_unrecoverable() {
        let (a, _) = ctx_pair();
        let n = a.nrows();
        let mut ctx = SimCtx::serial(&a, Box::new(IdentityOp::new(n)));
        ctx.arm_faults(
            FaultPlan::new(3)
                .with_ranks(8)
                .with_rank_dead(3, 0)
                .with_rank_dead(4, 0),
        );
        let _ = ctx.allreduce(&[1.0]); // both die at collective 0
        match ctx.buddy_recover() {
            BuddyRecovery::Lost { rank, buddy } => {
                assert_eq!((rank, buddy), (3, 4));
            }
            other => panic!("expected Lost, got {other:?}"),
        }
        // The failure stays active: collectives keep failing explicitly.
        assert!(ctx.rank_failure().is_some());
    }

    #[test]
    fn death_before_first_checkpoint_restores_without_an_iterate() {
        let (a, _) = ctx_pair();
        let n = a.nrows();
        let mut ctx = SimCtx::serial(&a, Box::new(IdentityOp::new(n)));
        ctx.arm_faults(FaultPlan::new(3).with_ranks(4).with_rank_dead(2, 0));
        let _ = ctx.allreduce(&[1.0]);
        match ctx.buddy_recover() {
            BuddyRecovery::Restored { rank: 2, x: None } => {}
            other => panic!("expected Restored without iterate, got {other:?}"),
        }
    }

    #[test]
    fn straggler_event_records_a_trace_marker_only() {
        let (a, prof) = ctx_pair();
        let n = a.nrows();
        let mut ctx = SimCtx::traced(&a, Box::new(IdentityOp::new(n)), prof);
        ctx.arm_faults(FaultPlan::new(3).with_ranks(8).with_rank_slow(5, 4.0, 1));
        assert_eq!(ctx.allreduce(&[1.0]), vec![1.0]);
        assert_eq!(
            ctx.allreduce(&[2.0]),
            vec![2.0],
            "stragglers never corrupt data"
        );
        assert!(ctx.rank_failure().is_none());
        let trace = ctx.take_trace().unwrap();
        let slow: Vec<_> = trace
            .ops
            .iter()
            .filter(|op| matches!(op, Op::RankSlow { rank: 5, .. }))
            .collect();
        assert_eq!(slow.len(), 1);
    }

    #[test]
    fn armed_rank_free_plan_keeps_the_collective_path_inert() {
        // A plan with data faults but no rank events must never advance the
        // collective counter or store buddy checkpoints.
        use pscg_fault::FaultAction;
        let (a, _) = ctx_pair();
        let n = a.nrows();
        let mut ctx = SimCtx::serial(&a, Box::new(IdentityOp::new(n)));
        ctx.arm_faults(FaultPlan::new(9).with(FaultSite::Pc, 99, FaultAction::Nan));
        for _ in 0..4 {
            let _ = ctx.allreduce(&[1.0]);
        }
        ctx.buddy_put(&[1.0]);
        assert_eq!(
            ctx.collective_idx, 0,
            "counter gated on pending rank events"
        );
        assert!(ctx.buddy_ckpt.is_none(), "checkpoints gated on rank events");
        assert!(ctx.rank_failure().is_none());
        assert!(ctx.recovery_log().is_empty());
    }

    #[test]
    fn helper_ops_charge_flops() {
        let (a, _) = ctx_pair();
        let n = a.nrows();
        let mut ctx = SimCtx::serial(&a, Box::new(IdentityOp::new(n)));
        let x = vec![1.0; n];
        let mut y = vec![2.0; n];
        ctx.axpy(0.5, &x, &mut y);
        assert_eq!(ctx.counters().vma_flops, 2.0 * n as f64);
        let mut q = ctx.alloc_multi(3);
        let p = ctx.alloc_multi(3);
        let b = DenseMatrix::identity(3);
        ctx.block_add_mul(&mut q, &p, &b);
        assert_eq!(ctx.counters().vma_flops, 2.0 * n as f64 + 18.0 * n as f64);
        let gm = ctx.local_gram(&q, &p);
        assert_eq!(gm.nrows(), 3);
        assert!(ctx.counters().dot_flops > 0.0);
    }

    #[test]
    fn pipecg_sweep_is_the_twelve_calls_op_for_op() {
        let (a, prof) = ctx_pair();
        let n = a.nrows();
        let vectors = || -> Vec<Vec<f64>> {
            (0..10)
                .map(|k| {
                    (0..n)
                        .map(|i| ((i * 7 + k * 3) % 11) as f64 * 0.1 - 0.5)
                        .collect()
                })
                .collect()
        };
        let (alpha, beta) = (0.3, 0.7);

        // The set-up dots, then one pass, as separate calls.
        let mut ctx = SimCtx::traced(&a, Box::new(IdentityOp::new(n)), prof.clone());
        let mut want = vectors();
        let [x, r, u, w, m, nv, z, q, s, p] = &mut want[..] else {
            unreachable!("ten vectors");
        };
        let mut want_dots = Vec::new();
        for (x, y) in [(&*r, &*u), (w, u), (r, r), (u, u)] {
            want_dots.push(ctx.local_dot(x, y));
        }
        ctx.aypx(beta, nv, z);
        ctx.aypx(beta, m, q);
        ctx.aypx(beta, w, s);
        ctx.aypx(beta, u, p);
        ctx.axpy(alpha, p, x);
        ctx.axpy(-alpha, s, r);
        ctx.axpy(-alpha, q, u);
        ctx.axpy(-alpha, z, w);
        for (x, y) in [(&*r, &*u), (w, u), (r, r), (u, u)] {
            want_dots.push(ctx.local_dot(x, y));
        }
        let want_counters = *ctx.counters();
        let want_ops = ctx.take_trace().unwrap().ops;

        // The same through the two fused calls.
        let mut ctx = SimCtx::traced(&a, Box::new(IdentityOp::new(n)), prof);
        let mut got = vectors();
        let [x, r, u, w, m, nv, z, q, s, p] = &mut got[..] else {
            unreachable!("ten vectors");
        };
        let mut got_dots = local_dots_ruw(&mut ctx, r, u, w).to_vec();
        let mut v = PipecgVectors {
            x,
            r,
            u,
            w,
            m,
            n: nv,
            z,
            q,
            s,
            p,
        };
        got_dots.extend(pipecg_sweep(&mut ctx, &mut v, alpha, beta));

        assert_eq!(want, got);
        assert_eq!(want_dots, got_dots);
        assert_eq!(want_counters, *ctx.counters());
        // Buffer ids included: both engines intern in order of first sight.
        assert_eq!(want_ops, ctx.take_trace().unwrap().ops);
    }
}
