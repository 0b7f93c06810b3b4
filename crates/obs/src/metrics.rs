//! The per-iteration solver metrics stream.
//!
//! A solve driver (the `MethodKind::solve` dispatcher in `pipescg`) brackets
//! each solve with [`begin_solve`] / [`end_solve`]; the method's inner loop
//! reports one [`IterSample`] per convergence check via [`record_iter`].
//! The collector turns samples into [`IterRecord`]s — adding monotone
//! sequence numbers, kernel-count deltas, iteration-interval spans and the
//! per-interval achieved-overlap ratio — and the completed
//! [`SolveTelemetry`] is retrieved with [`take_last`] and replayed into any
//! [`MetricsSink`] (the JSONL exporter in [`crate::export`] is one).
//!
//! Every entry point is a no-op unless telemetry is enabled *and* a solve
//! is active, so solver code can call unconditionally.

use std::sync::Mutex;

use crate::span::{self, SpanKind};
use crate::stagnation::StagnationConfig;

/// The kernel counters the drift test reconciles against `OpCounters`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KernelCounts {
    /// Sparse matrix–vector products (MPK constituents included).
    pub spmv: u64,
    /// Preconditioner applications.
    pub pc: u64,
    /// Allreduces of either kind (blocking + non-blocking posts).
    pub allreduce: u64,
}

impl KernelCounts {
    /// Component-wise `self − earlier` (saturating).
    pub fn delta_since(&self, earlier: &KernelCounts) -> KernelCounts {
        KernelCounts {
            spmv: self.spmv.saturating_sub(earlier.spmv),
            pc: self.pc.saturating_sub(earlier.pc),
            allreduce: self.allreduce.saturating_sub(earlier.allreduce),
        }
    }

    /// Component-wise sum.
    pub fn add(&self, other: &KernelCounts) -> KernelCounts {
        KernelCounts {
            spmv: self.spmv + other.spmv,
            pc: self.pc + other.pc,
            allreduce: self.allreduce + other.allreduce,
        }
    }
}

/// Thread-pool counters (a plain mirror of `pscg_par::stats::PoolStats`,
/// kept here as bare numbers so this crate stays dependency-free).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolCounters {
    /// `Pool::run` submissions.
    pub jobs: u64,
    /// Submissions dispatched to the worker pool.
    pub parallel_jobs: u64,
    /// Submissions run inline because another job held the pool (the
    /// nested-submission fallback).
    pub inline_fallback: u64,
    /// Submissions run inline because they were too small or the pool has
    /// one lane.
    pub inline_small: u64,
    /// Total job indices (chunks) executed.
    pub chunks: u64,
}

impl PoolCounters {
    /// Component-wise `self − earlier` (saturating).
    pub fn delta_since(&self, earlier: &PoolCounters) -> PoolCounters {
        PoolCounters {
            jobs: self.jobs.saturating_sub(earlier.jobs),
            parallel_jobs: self.parallel_jobs.saturating_sub(earlier.parallel_jobs),
            inline_fallback: self.inline_fallback.saturating_sub(earlier.inline_fallback),
            inline_small: self.inline_small.saturating_sub(earlier.inline_small),
            chunks: self.chunks.saturating_sub(earlier.chunks),
        }
    }

    /// Fraction of submissions that actually used the worker pool
    /// (`NaN` when no jobs ran).
    pub fn utilization(&self) -> f64 {
        self.parallel_jobs as f64 / self.jobs as f64
    }
}

/// Solve-level metadata, emitted once at the head of the stream.
#[derive(Debug, Clone, PartialEq)]
pub struct SolveMeta {
    /// Method name (paper spelling).
    pub method: &'static str,
    /// The s parameter.
    pub s: usize,
    /// Convergence-test norm name.
    pub norm: &'static str,
    /// Relative tolerance.
    pub rtol: f64,
    /// Global-pool lanes at solve start.
    pub threads: usize,
    /// Stagnation-detector configuration, when the method armed one — this
    /// records the switchover threshold in the emitted stream.
    pub stagnation: Option<StagnationConfig>,
    /// Matrix rows (0 when the driver did not supply problem geometry).
    pub nrows: usize,
    /// Matrix non-zeros (0 when unknown).
    pub nnz: usize,
    /// Modelled SpMV traffic in bytes per non-zero on this matrix
    /// (`costmodel::spmv_model_bytes / nnz`; 0 when unknown).
    pub spmv_model_bytes_per_nnz: f64,
    /// Preconditioner FLOPs per row from its declared `ApplyCost`.
    pub pc_flops_per_row: f64,
    /// Preconditioner bytes per row from its declared `ApplyCost`.
    pub pc_bytes_per_row: f64,
}

/// What a solver's inner loop reports at one convergence check.
#[derive(Debug, Clone)]
pub struct IterSample {
    /// The method's own CG-step count at this check (s-step methods count
    /// s per outer iteration; restarts inside a hybrid may reset it).
    pub iter: usize,
    /// Relative residual in the selected norm.
    pub relres: f64,
    /// The squared norm triple `(r·r, u·u, r·u)`; components the method
    /// did not compute are `NaN`.
    pub norms_sq: [f64; 3],
    /// Step coefficients (one per basis column; previous-iteration values
    /// for the s-step methods, whose scalar work follows the check).
    pub alpha: Vec<f64>,
    /// Conjugation coefficients (the β scalar, or the flattened `s × s`
    /// B-matrix of the s-step methods).
    pub beta: Vec<f64>,
    /// The γ = (r, u) scalar where the recurrence carries one (`NaN`
    /// otherwise).
    pub gamma: f64,
}

/// One enriched entry of the telemetry stream.
#[derive(Debug, Clone)]
pub struct IterRecord {
    /// Collector-assigned sequence number, strictly increasing.
    pub seq: usize,
    /// Monotone iteration index: the reported CG-step count, offset so a
    /// mid-solve restart (the hybrid's phase handoff) never decreases it.
    pub iter: usize,
    /// The reported sample.
    pub sample: IterSample,
    /// Timestamp of the check (ns since the telemetry epoch).
    pub t_ns: u64,
    /// Cumulative kernel counts at the check.
    pub kernels: KernelCounts,
    /// Kernel counts since the previous record (the first record counts
    /// from solve start, so the deltas telescope to the final totals).
    pub d_kernels: KernelCounts,
    /// Post→wait window nanoseconds in this interval.
    pub window_ns: u64,
    /// Kernel nanoseconds inside post→wait windows in this interval.
    pub kernel_in_window_ns: u64,
}

impl IterRecord {
    /// Achieved-overlap ratio of this interval (`NaN` when no window
    /// elapsed — e.g. every interval of a non-pipelined method).
    pub fn overlap_ratio(&self) -> f64 {
        self.kernel_in_window_ns as f64 / self.window_ns as f64
    }
}

/// The end-of-solve summary record.
#[derive(Debug, Clone)]
pub struct FinishRecord {
    /// Total CG steps.
    pub iterations: usize,
    /// Stop reason (debug spelling of `StopReason`).
    pub stop: &'static str,
    /// Final relative residual.
    pub final_relres: f64,
    /// Final kernel totals.
    pub kernels: KernelCounts,
    /// Kernel counts after the last convergence check (the telescoping
    /// tail: Σ iter deltas + this = final totals).
    pub d_kernels: KernelCounts,
    /// Total post→wait window nanoseconds over the solve.
    pub window_ns: u64,
    /// Total kernel nanoseconds inside windows over the solve.
    pub kernel_in_window_ns: u64,
    /// True when a stagnation detector fired during the solve.
    pub stagnation_fired: bool,
    /// Faults injected into kernels/reductions during the solve (0 on a
    /// clean run).
    pub faults_injected: u64,
    /// Recovery actions (reduction retries, rollbacks, replacements,
    /// restarts) taken during the solve.
    pub recoveries: u64,
    /// Thread-pool activity during the solve.
    pub pool: PoolCounters,
    /// Wall time of the solve in nanoseconds.
    pub wall_ns: u64,
}

impl FinishRecord {
    /// Solve-wide achieved-overlap ratio (`NaN` when the method posted no
    /// non-blocking allreduce).
    pub fn achieved_overlap(&self) -> f64 {
        self.kernel_in_window_ns as f64 / self.window_ns as f64
    }
}

/// Consumer of a telemetry stream (see [`SolveTelemetry::emit`]).
pub trait MetricsSink {
    /// Called once, before any iteration record.
    fn on_meta(&mut self, meta: &SolveMeta);
    /// Called once per convergence check, in order.
    fn on_iter(&mut self, rec: &IterRecord);
    /// Called once, after the last iteration record.
    fn on_finish(&mut self, fin: &FinishRecord);
}

/// The complete telemetry stream of one solve.
#[derive(Debug, Clone)]
pub struct SolveTelemetry {
    /// Solve-level metadata.
    pub meta: SolveMeta,
    /// One record per convergence check.
    pub iters: Vec<IterRecord>,
    /// The end-of-solve summary.
    pub finish: FinishRecord,
}

impl SolveTelemetry {
    /// Replays the stream into a sink, in order.
    pub fn emit(&self, sink: &mut dyn MetricsSink) {
        sink.on_meta(&self.meta);
        for rec in &self.iters {
            sink.on_iter(rec);
        }
        sink.on_finish(&self.finish);
    }

    /// The per-check relative residuals, in order — must equal the
    /// solver's reported convergence history exactly.
    pub fn relres_stream(&self) -> Vec<f64> {
        self.iters.iter().map(|r| r.sample.relres).collect()
    }
}

struct ActiveSolve {
    meta: SolveMeta,
    iters: Vec<IterRecord>,
    start_ns: u64,
    last_t_ns: u64,
    last_kernels: KernelCounts,
    last_overlap: (u64, u64),
    iter_offset: usize,
    last_iter: usize,
    stagnation_fired: bool,
    faults_injected: u64,
    recoveries: u64,
    pool_base: PoolCounters,
}

static ACTIVE: Mutex<Option<ActiveSolve>> = Mutex::new(None);
static LAST: Mutex<Option<SolveTelemetry>> = Mutex::new(None);

/// Opens a solve-level collection. Returns false (and collects nothing)
/// when telemetry is disabled or another solve is already active — the
/// caller must pass the returned flag to [`end_solve`].
pub fn begin_solve(meta: SolveMeta, pool_base: PoolCounters) -> bool {
    if !crate::enabled() {
        return false;
    }
    let mut active = ACTIVE.lock().unwrap();
    if active.is_some() {
        return false;
    }
    crate::flight::note_begin(&meta);
    let now = crate::now_ns();
    *active = Some(ActiveSolve {
        meta,
        iters: Vec::new(),
        start_ns: now,
        last_t_ns: now,
        last_kernels: KernelCounts::default(),
        last_overlap: span::overlap_totals(),
        iter_offset: 0,
        last_iter: 0,
        stagnation_fired: false,
        faults_injected: 0,
        recoveries: 0,
        pool_base,
    });
    true
}

/// Records the stagnation-detector configuration of the running solve into
/// its metadata (called by the method that arms the detector).
pub fn set_stagnation_config(cfg: StagnationConfig) {
    if let Some(a) = ACTIVE.lock().unwrap().as_mut() {
        a.meta.stagnation = Some(cfg);
    }
}

/// Notes that a stagnation detector fired during the running solve.
pub fn note_stagnation_fired() {
    if let Some(a) = ACTIVE.lock().unwrap().as_mut() {
        a.stagnation_fired = true;
    }
}

/// Notes one injected fault (called by a fault-armed execution engine).
/// No-op without an active solve.
pub fn note_fault_injected() {
    if let Some(a) = ACTIVE.lock().unwrap().as_mut() {
        a.faults_injected += 1;
    }
}

/// Notes one recovery action taken by the solver. No-op without an active
/// solve.
pub fn note_recovery() {
    if let Some(a) = ACTIVE.lock().unwrap().as_mut() {
        a.recoveries += 1;
    }
}

/// Appends one convergence-check sample to the running solve. `kernels`
/// is the cumulative kernel count at the check. No-op without an active
/// solve.
pub fn record_iter(sample: IterSample, kernels: KernelCounts) {
    let mut active = ACTIVE.lock().unwrap();
    let Some(a) = active.as_mut() else { return };
    let now = crate::now_ns();
    let overlap = span::overlap_totals();
    // A reported index below the previous one means the method restarted
    // its own counter mid-solve (hybrid phase handoff); shift so the
    // stream index stays monotone.
    if sample.iter + a.iter_offset < a.last_iter {
        a.iter_offset = a.last_iter.saturating_sub(sample.iter);
    }
    let iter = sample.iter + a.iter_offset;
    a.last_iter = iter;
    let seq = a.iters.len();
    let rec = IterRecord {
        seq,
        iter,
        t_ns: now,
        kernels,
        d_kernels: kernels.delta_since(&a.last_kernels),
        window_ns: overlap.0 - a.last_overlap.0,
        kernel_in_window_ns: overlap.1 - a.last_overlap.1,
        sample,
    };
    span::record_span(
        SpanKind::Iter,
        seq as u64,
        a.last_t_ns,
        now.saturating_sub(a.last_t_ns),
    );
    a.last_t_ns = now;
    a.last_kernels = kernels;
    a.last_overlap = overlap;
    crate::flight::note_iter(&rec);
    a.iters.push(rec);
}

/// Closes the active solve (when `began`), stores the completed
/// [`SolveTelemetry`] for [`take_last`], and returns whether one was
/// stored. `kernels`/`pool_now` are the final counter readings.
pub fn end_solve(
    began: bool,
    iterations: usize,
    stop: &'static str,
    final_relres: f64,
    kernels: KernelCounts,
    pool_now: PoolCounters,
) -> bool {
    if !began {
        return false;
    }
    let Some(a) = ACTIVE.lock().unwrap().take() else {
        return false;
    };
    let now = crate::now_ns();
    let overlap = span::overlap_totals();
    let base_overlap = a
        .iters
        .first()
        .map(|_| a.last_overlap)
        .unwrap_or(a.last_overlap);
    let total_window: u64 =
        a.iters.iter().map(|r| r.window_ns).sum::<u64>() + (overlap.0 - base_overlap.0);
    let total_in_window: u64 =
        a.iters.iter().map(|r| r.kernel_in_window_ns).sum::<u64>() + (overlap.1 - base_overlap.1);
    let finish = FinishRecord {
        iterations,
        stop,
        final_relres,
        kernels,
        d_kernels: kernels.delta_since(&a.last_kernels),
        window_ns: total_window,
        kernel_in_window_ns: total_in_window,
        stagnation_fired: a.stagnation_fired,
        faults_injected: a.faults_injected,
        recoveries: a.recoveries,
        pool: pool_now.delta_since(&a.pool_base),
        wall_ns: now.saturating_sub(a.start_ns),
    };
    *LAST.lock().unwrap() = Some(SolveTelemetry {
        meta: a.meta,
        iters: a.iters,
        finish,
    });
    true
}

/// Takes the stream of the most recently completed solve, if any.
pub fn take_last() -> Option<SolveTelemetry> {
    LAST.lock().unwrap().take()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(iter: usize, relres: f64) -> IterSample {
        IterSample {
            iter,
            relres,
            norms_sq: [relres * relres, f64::NAN, f64::NAN],
            alpha: vec![0.5],
            beta: vec![0.1],
            gamma: 1.0,
        }
    }

    /// Single test: the collector is process-global state.
    #[test]
    fn collector_lifecycle_deltas_and_monotonicity() {
        let _g = crate::test_lock();
        crate::set_enabled(false);
        assert!(!begin_solve(meta(), PoolCounters::default()));
        record_iter(sample(0, 1.0), KernelCounts::default());
        assert!(!end_solve(
            false,
            0,
            "Converged",
            0.0,
            KernelCounts::default(),
            PoolCounters::default()
        ));
        assert!(take_last().is_none(), "disabled collector stores nothing");

        crate::set_enabled(true);
        let began = begin_solve(
            meta(),
            PoolCounters {
                jobs: 10,
                ..Default::default()
            },
        );
        assert!(began);
        // Nested begin is refused while a solve is active.
        assert!(!begin_solve(meta(), PoolCounters::default()));

        set_stagnation_config(StagnationConfig {
            window: 6,
            min_ratio: 0.98,
        });
        let k1 = KernelCounts {
            spmv: 3,
            pc: 4,
            allreduce: 2,
        };
        record_iter(sample(0, 1.0), k1);
        let k2 = KernelCounts {
            spmv: 7,
            pc: 9,
            allreduce: 3,
        };
        record_iter(sample(4, 0.5), k2);
        // Hybrid-style restart: reported index drops back to 0.
        record_iter(sample(0, 0.4), k2);
        record_iter(sample(2, 0.3), k2);
        note_stagnation_fired();
        note_fault_injected();
        note_fault_injected();
        note_recovery();
        let kf = KernelCounts {
            spmv: 8,
            pc: 10,
            allreduce: 4,
        };
        assert!(end_solve(
            began,
            6,
            "Converged",
            0.3,
            kf,
            PoolCounters {
                jobs: 25,
                parallel_jobs: 9,
                ..Default::default()
            }
        ));
        crate::set_enabled(false);

        let t = take_last().expect("stream stored");
        assert!(take_last().is_none(), "take_last clears");
        assert_eq!(t.meta.stagnation.unwrap().window, 6);
        assert_eq!(t.iters.len(), 4);
        // seq strictly increasing, iter monotone despite the restart.
        for (i, r) in t.iters.iter().enumerate() {
            assert_eq!(r.seq, i);
        }
        let iters: Vec<usize> = t.iters.iter().map(|r| r.iter).collect();
        assert_eq!(iters, vec![0, 4, 4, 6], "restart offset applied");
        // Deltas telescope to the final totals.
        let sum = t
            .iters
            .iter()
            .fold(KernelCounts::default(), |acc, r| acc.add(&r.d_kernels))
            .add(&t.finish.d_kernels);
        assert_eq!(sum, kf);
        assert_eq!(t.finish.pool.jobs, 15, "pool deltas are solve-relative");
        assert_eq!(t.finish.pool.parallel_jobs, 9);
        assert!(t.finish.stagnation_fired);
        assert_eq!(t.finish.faults_injected, 2);
        assert_eq!(t.finish.recoveries, 1);
        assert_eq!(t.relres_stream(), vec![1.0, 0.5, 0.4, 0.3]);
    }

    fn meta() -> SolveMeta {
        SolveMeta {
            method: "PCG",
            s: 1,
            norm: "preconditioned",
            rtol: 1e-5,
            threads: 1,
            stagnation: None,
            nrows: 512,
            nnz: 3392,
            spmv_model_bytes_per_nnz: 14.4,
            pc_flops_per_row: 1.0,
            pc_bytes_per_row: 24.0,
        }
    }
}
