//! Runtime telemetry for the PIPE-PsCG solver stack.
//!
//! The static analyzer (`crates/analysis`) proves what the communication
//! schedule *should* do; this crate measures what a run *actually* does:
//!
//! * [`span`] — a thread-local ring-buffer span recorder for the hot
//!   kernels (SpMV, MPK, PC, Gram, fused combine), blocking allreduces and
//!   the non-blocking **post→wait windows** of the pipelined methods. It
//!   also keeps running totals from which the *achieved-overlap ratio* —
//!   kernel time inside post→wait windows divided by total window span —
//!   is derived, the runtime counterpart of Cools et al.'s "overlap
//!   attained vs. available".
//! * [`metrics`] — the per-iteration [`metrics::SolveTelemetry`] stream:
//!   iteration index, all three residual norms, the α/β/γ scalars, kernel
//!   counts (cumulative and per-interval), overlap intervals, and thread
//!   pool counters, consumed through the pluggable
//!   [`metrics::MetricsSink`] trait.
//! * [`export`] — Chrome trace-event JSON (loadable in `chrome://tracing`
//!   and [Perfetto](https://ui.perfetto.dev)) and JSONL exporters, each
//!   paired with a validator used by the unit tests and the CI artifact
//!   check.
//! * [`stagnation`] — the windowed relative-residual slope detector the
//!   hybrid driver uses for its PIPE-PsCG → PIPECG-OATI switchover.
//!
//! # Inertness contract
//!
//! Telemetry observes, never participates: it reads values the solver
//! already computed and timestamps kernel boundaries. With telemetry
//! enabled, numerics are bitwise identical, `OpTrace`/`BufId` streams are
//! analyzer-identical, and the kernel engine's chunk boundaries are
//! untouched (`tests/obs_inert.rs` enforces all three at 1 and 4 pool
//! threads). Everything is gated on one process-global flag
//! ([`set_enabled`]); while the flag is off, every instrumentation point
//! is a single relaxed atomic load.
//!
//! The crate is zero-dependency (`std` only) per the offline-build policy
//! of DESIGN.md §5.

#![warn(missing_docs)]
#![cfg_attr(test, allow(clippy::float_cmp, reason = "tests compare exact bits"))]

use std::sync::atomic::{AtomicBool, AtomicU8, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

pub mod agg;
pub mod attribution;
pub mod export;
pub mod flight;
pub mod json;
pub mod metrics;
pub mod span;
pub mod stagnation;

pub use agg::{AggregateReport, KindAggregate, LogHistogram};
pub use span::{span, span_arg, SpanGuard, SpanKind, SpanRecord, SpanSet};
pub use stagnation::{StagnationConfig, StagnationDetector};

/// The process-global telemetry switch. Off by default.
static ENABLED: AtomicBool = AtomicBool::new(false);

/// What the span recorder retains while telemetry is enabled.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TelemetryMode {
    /// Every span is retained in the per-thread rings (bounded by the ring
    /// capacity) for [`span::drain`] — the Chrome-trace workflow.
    #[default]
    Full,
    /// Spans fold into O(1)-memory per-kind [`LogHistogram`]s and
    /// counters; [`agg::drain`] yields the merged [`AggregateReport`].
    /// Window/overlap totals and the metrics stream are unchanged — only
    /// span *retention* differs. Built for replay campaigns whose full
    /// traces would not fit in memory.
    Aggregate,
}

/// The process-global [`TelemetryMode`]. `Full` by default.
static MODE: AtomicU8 = AtomicU8::new(0);

/// Selects what the span recorder retains (irrelevant while telemetry is
/// disabled). Switching modes does not move spans already recorded.
pub fn set_mode(mode: TelemetryMode) {
    MODE.store(
        match mode {
            TelemetryMode::Full => 0,
            TelemetryMode::Aggregate => 1,
        },
        Ordering::Relaxed,
    );
}

/// The current [`TelemetryMode`].
#[inline]
pub fn mode() -> TelemetryMode {
    if MODE.load(Ordering::Relaxed) == 0 {
        TelemetryMode::Full
    } else {
        TelemetryMode::Aggregate
    }
}

/// Turns telemetry recording on or off for the whole process.
///
/// Toggling does not clear previously recorded spans or metrics; use
/// [`span::drain`] / [`metrics::take_last`] to consume them.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// True when telemetry recording is enabled.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Nanoseconds since the process-wide telemetry epoch (the first call).
///
/// A single shared epoch keeps timestamps from different threads — and
/// from the span and metrics layers — on one comparable axis.
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    let epoch = *EPOCH.get_or_init(Instant::now);
    Instant::now().duration_since(epoch).as_nanos() as u64
}

/// Serializes unit tests that touch the process-global flag, rings, or
/// collector — the test harness runs them on parallel threads.
#[cfg(test)]
pub(crate) fn test_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_by_default_and_togglable() {
        let _g = test_lock();
        // Other unit tests in this binary may toggle the flag; assert only
        // the toggle semantics, not the initial state.
        set_enabled(false);
        assert!(!enabled());
        set_enabled(true);
        assert!(enabled());
        set_enabled(false);
    }

    #[test]
    fn clock_is_monotone() {
        let a = now_ns();
        let b = now_ns();
        assert!(b >= a);
    }
}
