//! Tracing from outside the library: a [`Context`] wrapper that times every
//! call a solver makes into the engine.
//!
//! [`TimedCtx`] forwards **every** `Context` method to the wrapped engine —
//! including the ones the trait defaults (`mpk`, `block_*`, `local_gram*`,
//! `axpy`, …). Forwarding a defaulted method matters: the default body runs
//! against `self`, so an un-forwarded `mpk` would be rebuilt from the
//! wrapper's `spmv` and bypass the inner engine's override (and its trace
//! ops). `tests/transparent.rs` proves a wrapped solve is bitwise the bare
//! solve, and that dropping one forward breaks that.
//!
//! Each call is recorded as an in-memory [`Span`] under the root
//! `core.solve` span opened by [`TimedCtx::solve`]; nothing is written until
//! the benchmark ends. Because the inner engine never calls back into the
//! wrapper, the tree is exactly two levels deep, and a layer's self time is
//! its spans' durations; the root's self time (root minus children) is the
//! solver's own scalar work, loop control and result assembly.

use std::sync::OnceLock;
use std::time::Instant;

use pipescg::{MethodKind, SolveOptions, SolveResult};
use pscg_sim::{
    BuddyRecovery, BufId, Context, LocalKind, OpCounters, RankFailure, ReduceHandle, WaitOutcome,
};
use pscg_sparse::{DenseMatrix, MultiVector};

/// Span names, one per layer boundary the solvers cross.
pub mod names {
    /// Root span: one whole `MethodKind::solve`.
    pub const SOLVE: &str = "core.solve";
    /// `alloc_vec` / `alloc_multi`.
    pub const ALLOC: &str = "core.alloc";
    /// `spmv`.
    pub const SPMV: &str = "sparse.spmv";
    /// `mpk` (the matrix-powers kernel).
    pub const MPK: &str = "sparse.mpk";
    /// `local_gram*` / `local_dot*`.
    pub const GRAM: &str = "sparse.gram";
    /// `block_*` (the recurrence linear combinations).
    pub const COMBINE: &str = "sparse.combine";
    /// `axpy` / `aypx` / `waxpy` / `copy_v` / `scale_v`.
    pub const BLAS1: &str = "sparse.blas1";
    /// `pc_apply`.
    pub const PC: &str = "precond.apply";
    /// `allreduce` / `iallreduce` / `wait` / `try_wait` / `peek_pending`.
    pub const REDUCE: &str = "sim.reduce";
    /// Cost declarations and bookkeeping (`charge_*`, `note_*`, `buf_of*`,
    /// `buddy_*`, precision switches).
    pub const NOTE: &str = "sim.note";
}

/// Default capacity of a [`SpanLog`] — several times what the longest
/// benchmark solve records.
const SPANS_PER_SOLVE: usize = 1 << 14;

/// Parent index of a root span.
pub const NO_PARENT: u32 = u32::MAX;

/// One timed call: `[start_ns, end_ns)` since the log's epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer-boundary name (see [`names`]).
    pub name: &'static str,
    /// Start, nanoseconds since the log epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the log epoch.
    pub end_ns: u64,
    /// Index of the span that caused this one ([`NO_PARENT`] for a root).
    pub parent: u32,
    /// Identifier shared by all spans of one solve.
    pub solve_id: u32,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Nanoseconds since the first span of the process, so the logs of
/// different solves (and ranks) share one time axis in the trace file.
fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// The in-memory span store of one traced context (one per rank under SPMD).
///
/// Its room is allocated when it is created, so the wrapper does not time
/// its own reallocations while the solver runs.
#[derive(Debug)]
pub struct SpanLog {
    spans: Vec<Span>,
    /// Index of the open root span, if a solve is in flight.
    root: Option<u32>,
    solve_id: u32,
}

impl Default for SpanLog {
    fn default() -> Self {
        SpanLog {
            spans: Vec::with_capacity(SPANS_PER_SOLVE),
            root: None,
            solve_id: 0,
        }
    }
}

impl SpanLog {
    fn open_root(&mut self, solve_id: u32) {
        assert!(self.root.is_none(), "a solve is already being traced");
        self.solve_id = solve_id;
        self.root = Some(self.spans.len() as u32);
        let start_ns = now_ns();
        self.spans.push(Span {
            name: names::SOLVE,
            start_ns,
            end_ns: start_ns,
            parent: NO_PARENT,
            solve_id,
        });
    }

    fn close_root(&mut self) {
        let root = self.root.take().expect("no traced solve in flight");
        self.spans[root as usize].end_ns = now_ns();
    }

    #[inline]
    fn record(&mut self, name: &'static str, start_ns: u64) {
        let end_ns = now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent: self.root.unwrap_or(NO_PARENT),
            solve_id: self.solve_id,
        });
    }

    /// All spans recorded so far, in completion order (roots first).
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The spans of solve `solve_id`.
    pub fn of_solve(&self, solve_id: u32) -> impl Iterator<Item = &Span> {
        self.spans.iter().filter(move |s| s.solve_id == solve_id)
    }
}

/// Per-name totals of one traced solve.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SolveBreakdown {
    /// Duration of the root span.
    pub wall_ns: u64,
    /// Root self time: wall minus the time its child spans cover.
    pub glue_ns: u64,
    /// `(name, total ns, calls)` per child span name, in first-seen order.
    pub layers: Vec<(&'static str, u64, u64)>,
}

impl SolveBreakdown {
    /// Folds the spans of one solve. Children never overlap (the solvers
    /// are single-threaded callers), so the time they cover is their sum.
    pub fn of(log: &SpanLog, solve_id: u32) -> SolveBreakdown {
        let mut out = SolveBreakdown::default();
        let mut covered = 0u64;
        for s in log.of_solve(solve_id) {
            if s.parent == NO_PARENT {
                out.wall_ns = s.dur_ns();
                continue;
            }
            covered += s.dur_ns();
            match out.layers.iter_mut().find(|(n, _, _)| *n == s.name) {
                Some(row) => {
                    row.1 += s.dur_ns();
                    row.2 += 1;
                }
                None => out.layers.push((s.name, s.dur_ns(), 1)),
            }
        }
        out.glue_ns = out.wall_ns.saturating_sub(covered);
        out
    }

    /// Total seconds under `name` (0 when the solve never crossed it).
    pub fn secs(&self, name: &str) -> f64 {
        self.ns(name) as f64 * 1e-9
    }

    fn ns(&self, name: &str) -> u64 {
        self.layers
            .iter()
            .find(|(n, _, _)| *n == name)
            .map_or(0, |r| r.1)
    }

    /// Calls under `name`.
    pub fn calls(&self, name: &str) -> u64 {
        self.layers
            .iter()
            .find(|(n, _, _)| *n == name)
            .map_or(0, |r| r.2)
    }
}

/// A [`Context`] that times every call into the engine it wraps.
pub struct TimedCtx<C: Context> {
    inner: C,
    log: SpanLog,
    plant_default_mpk: bool,
}

impl<C: Context> TimedCtx<C> {
    /// Wraps `inner`, recording into a fresh log.
    pub fn new(inner: C) -> Self {
        TimedCtx {
            inner,
            log: SpanLog::default(),
            plant_default_mpk: false,
        }
    }

    /// A deliberately broken wrapper whose `mpk` is the trait default
    /// instead of a forward. Exists so `tests/transparent.rs` can show its
    /// bitwise check catches a missing forward; never used to measure.
    #[doc(hidden)]
    pub fn with_unforwarded_mpk(inner: C) -> Self {
        TimedCtx {
            plant_default_mpk: true,
            ..TimedCtx::new(inner)
        }
    }

    /// Runs `method` through the wrapper under a root `core.solve` span.
    pub fn solve(
        &mut self,
        method: MethodKind,
        solve_id: u32,
        b: &[f64],
        opts: &SolveOptions,
    ) -> SolveResult {
        self.under_root(solve_id, |ctx| method.solve(ctx, b, None, opts))
    }

    /// Runs any solver entry point against the wrapper under a root
    /// `core.solve` span (for the ones `MethodKind` does not dispatch to).
    pub fn under_root<R>(&mut self, solve_id: u32, solve: impl FnOnce(&mut Self) -> R) -> R {
        self.log.open_root(solve_id);
        let out = solve(self);
        self.log.close_root();
        out
    }

    /// The wrapped engine.
    pub fn inner_mut(&mut self) -> &mut C {
        &mut self.inner
    }

    /// Unwraps into the engine and the recorded spans.
    pub fn into_parts(self) -> (C, SpanLog) {
        (self.inner, self.log)
    }
}

/// Forwards one call under a span: `timed!(self, NAME, inner_call)`.
macro_rules! timed {
    ($self:ident, $name:expr, $call:expr) => {{
        let t0 = now_ns();
        let out = $call;
        $self.log.record($name, t0);
        out
    }};
}

impl<C: Context> Context for TimedCtx<C> {
    // Pure getters: `&self`, too cheap to time, and no layer does work in them.
    fn nrows(&self) -> usize {
        self.inner.nrows()
    }
    fn vec_len(&self) -> usize {
        self.inner.vec_len()
    }
    fn rank(&self) -> usize {
        self.inner.rank()
    }
    fn nranks(&self) -> usize {
        self.inner.nranks()
    }
    fn pc_demoted(&self) -> bool {
        self.inner.pc_demoted()
    }
    fn matrix_nnz(&self) -> usize {
        self.inner.matrix_nnz()
    }
    fn pc_cost_rates(&self) -> (f64, f64) {
        self.inner.pc_cost_rates()
    }
    fn rank_failure(&self) -> Option<RankFailure> {
        self.inner.rank_failure()
    }
    fn counters(&self) -> &OpCounters {
        self.inner.counters()
    }
    fn counters_mut(&mut self) -> &mut OpCounters {
        self.inner.counters_mut()
    }

    fn spmv(&mut self, x: &[f64], y: &mut [f64]) {
        timed!(self, names::SPMV, self.inner.spmv(x, y))
    }
    fn mpk(&mut self, pow: &mut MultiVector, from: usize, to: usize, sigma: f64) {
        if self.plant_default_mpk {
            // The trait's default body: what this wrapper would do if `mpk`
            // were not forwarded (see `TimedCtx::with_unforwarded_mpk`).
            for j in from + 1..=to {
                {
                    let (src, dst) = pow.col_pair_mut(j - 1, j);
                    self.spmv(src, dst);
                }
                if sigma != 1.0 {
                    self.scale_v(sigma, pow.col_mut(j));
                }
            }
            return;
        }
        timed!(self, names::MPK, self.inner.mpk(pow, from, to, sigma))
    }
    fn pc_apply(&mut self, r: &[f64], u: &mut [f64]) {
        timed!(self, names::PC, self.inner.pc_apply(r, u))
    }
    fn pc_demote(&mut self) -> bool {
        timed!(self, names::NOTE, self.inner.pc_demote())
    }
    fn pc_promote(&mut self) {
        timed!(self, names::NOTE, self.inner.pc_promote())
    }

    fn allreduce(&mut self, vals: &[f64]) -> Vec<f64> {
        timed!(self, names::REDUCE, self.inner.allreduce(vals))
    }
    fn iallreduce(&mut self, vals: &[f64]) -> ReduceHandle {
        timed!(self, names::REDUCE, self.inner.iallreduce(vals))
    }
    fn wait(&mut self, h: ReduceHandle) -> Vec<f64> {
        timed!(self, names::REDUCE, self.inner.wait(h))
    }
    fn try_wait(&mut self, h: ReduceHandle) -> WaitOutcome {
        timed!(self, names::REDUCE, self.inner.try_wait(h))
    }
    fn peek_pending(&mut self, h: &ReduceHandle) -> Vec<f64> {
        timed!(self, names::REDUCE, self.inner.peek_pending(h))
    }

    fn buddy_put(&mut self, x: &[f64]) {
        timed!(self, names::NOTE, self.inner.buddy_put(x))
    }
    fn buddy_recover(&mut self) -> BuddyRecovery {
        timed!(self, names::NOTE, self.inner.buddy_recover())
    }
    fn note_recovery_code(&mut self, code: u64) {
        timed!(self, names::NOTE, self.inner.note_recovery_code(code))
    }
    fn buf_of(&mut self, v: &[f64]) -> BufId {
        timed!(self, names::NOTE, self.inner.buf_of(v))
    }
    fn buf_of_multi(&mut self, m: &MultiVector) -> BufId {
        timed!(self, names::NOTE, self.inner.buf_of_multi(m))
    }
    fn charge_local(&mut self, kind: LocalKind, flops_per_row: f64, bytes_per_row: f64) {
        timed!(
            self,
            names::NOTE,
            self.inner.charge_local(kind, flops_per_row, bytes_per_row)
        )
    }
    fn charge_local_rw(
        &mut self,
        kind: LocalKind,
        flops_per_row: f64,
        bytes_per_row: f64,
        reads: [BufId; 2],
        write: BufId,
    ) {
        timed!(
            self,
            names::NOTE,
            self.inner
                .charge_local_rw(kind, flops_per_row, bytes_per_row, reads, write)
        )
    }
    fn charge_scalar(&mut self, flops: f64) {
        timed!(self, names::NOTE, self.inner.charge_scalar(flops))
    }
    fn note_residual(&mut self, relres: f64) {
        timed!(self, names::NOTE, self.inner.note_residual(relres))
    }

    fn alloc_vec(&mut self) -> Vec<f64> {
        timed!(self, names::ALLOC, self.inner.alloc_vec())
    }
    fn alloc_multi(&mut self, ncols: usize) -> MultiVector {
        timed!(self, names::ALLOC, self.inner.alloc_multi(ncols))
    }

    fn axpy(&mut self, a: f64, x: &[f64], y: &mut [f64]) {
        timed!(self, names::BLAS1, self.inner.axpy(a, x, y))
    }
    fn aypx(&mut self, a: f64, x: &[f64], y: &mut [f64]) {
        timed!(self, names::BLAS1, self.inner.aypx(a, x, y))
    }
    fn waxpy(&mut self, z: &mut [f64], a: f64, y: &[f64], x: &[f64]) {
        timed!(self, names::BLAS1, self.inner.waxpy(z, a, y, x))
    }
    fn copy_v(&mut self, x: &[f64], y: &mut [f64]) {
        timed!(self, names::BLAS1, self.inner.copy_v(x, y))
    }
    fn scale_v(&mut self, a: f64, x: &mut [f64]) {
        timed!(self, names::BLAS1, self.inner.scale_v(a, x))
    }

    fn local_dot(&mut self, x: &[f64], y: &[f64]) -> f64 {
        timed!(self, names::GRAM, self.inner.local_dot(x, y))
    }
    fn local_gram(&mut self, x: &MultiVector, y: &MultiVector) -> DenseMatrix {
        timed!(self, names::GRAM, self.inner.local_gram(x, y))
    }
    fn local_gram_range(
        &mut self,
        x: &MultiVector,
        xr: std::ops::Range<usize>,
        y: &MultiVector,
        yr: std::ops::Range<usize>,
    ) -> DenseMatrix {
        timed!(self, names::GRAM, self.inner.local_gram_range(x, xr, y, yr))
    }
    fn local_dot_vec(&mut self, x: &MultiVector, v: &[f64]) -> Vec<f64> {
        timed!(self, names::GRAM, self.inner.local_dot_vec(x, v))
    }

    fn block_add_mul(&mut self, x: &mut MultiVector, y: &MultiVector, b: &DenseMatrix) {
        timed!(self, names::COMBINE, self.inner.block_add_mul(x, y, b))
    }
    fn block_gemv_acc(&mut self, x: &MultiVector, a: &[f64], y: &mut [f64]) {
        timed!(self, names::COMBINE, self.inner.block_gemv_acc(x, a, y))
    }
    fn block_gemv_sub(&mut self, x: &MultiVector, a: &[f64], y: &mut [f64]) {
        timed!(self, names::COMBINE, self.inner.block_gemv_sub(x, a, y))
    }
    fn block_combine(
        &mut self,
        dst: &mut MultiVector,
        src: &MultiVector,
        off: usize,
        prev: &MultiVector,
        b: &DenseMatrix,
    ) {
        timed!(
            self,
            names::COMBINE,
            self.inner.block_combine(dst, src, off, prev, b)
        )
    }
    fn block_gemv_sub_into(&mut self, x: &MultiVector, a: &[f64], src: &[f64], dst: &mut [f64]) {
        timed!(
            self,
            names::COMBINE,
            self.inner.block_gemv_sub_into(x, a, src, dst)
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pscg_precond::Jacobi;
    use pscg_sim::SimCtx;
    use pscg_sparse::stencil::poisson3d_27pt;
    use pscg_sparse::Grid3;

    #[test]
    fn self_times_sum_to_the_root_span() {
        let a = poisson3d_27pt(Grid3::cube(8));
        let b = vec![1.0; a.nrows()];
        for method in [MethodKind::Pcg, MethodKind::PipePscg] {
            let mut timed = TimedCtx::new(SimCtx::serial(&a, Box::new(Jacobi::new(&a))));
            let res = timed.solve(method, 9, &b, &SolveOptions::default());
            assert!(res.converged());
            let (_, log) = timed.into_parts();

            // One root; every other span is its child, lies inside it, and
            // starts no earlier than the previous one ended.
            let root = &log.spans()[0];
            assert_eq!(
                (root.name, root.parent, root.solve_id),
                (names::SOLVE, NO_PARENT, 9)
            );
            let mut cursor = root.start_ns;
            for s in &log.spans()[1..] {
                assert_eq!((s.parent, s.solve_id), (0, 9));
                assert!(s.start_ns >= cursor && s.end_ns >= s.start_ns);
                cursor = s.end_ns;
            }
            assert!(cursor <= root.end_ns);

            let b = SolveBreakdown::of(&log, 9);
            let layers: u64 = b.layers.iter().map(|l| l.1).sum();
            assert_eq!(b.glue_ns + layers, b.wall_ns);
            assert_eq!(b.wall_ns, root.dur_ns());
            assert_eq!(b.calls(names::SPMV), res.counters.spmv);
            assert_eq!(b.calls(names::PC), res.counters.pc);
            assert!(b.secs(names::SPMV) > 0.0 && b.secs("no.such.layer") == 0.0);
        }
    }
}
