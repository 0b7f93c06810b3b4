//! The span recorder: thread-local ring buffers of timed spans.
//!
//! Each thread records into its own bounded ring (registered in a global
//! list on first use), so recording never contends across threads — the
//! only locks taken are a thread's own uncontended `Mutex` per record and
//! the registry lock once per thread lifetime ("lock-free enough" on
//! `std::sync` only, per the offline-build policy). [`drain`] collects and
//! clears every ring.
//!
//! Two aggregate counters track the overlap economy of the pipelined
//! methods: total **post→wait window** time ([`window_open`] /
//! [`window_close`], driven by the engines' `iallreduce`/`wait`) and total
//! kernel time spent *inside* such a window. Their ratio is the
//! achieved-overlap ratio. On the serial engines a kernel that starts
//! inside a window also ends inside it (the waiting `wait` call is on the
//! same thread), so attributing each kernel span by its start point is
//! exact; on the thread-backed engine it is exact per rank thread for the
//! same reason.

use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Per-thread ring capacity. Oldest spans are dropped (and counted) when a
/// thread exceeds it between drains.
const RING_CAP: usize = 1 << 16;

/// What a span measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanKind {
    /// One sparse matrix–vector product.
    Spmv,
    /// One matrix-powers-kernel invocation.
    Mpk,
    /// One preconditioner application.
    Pc,
    /// One local Gram / block-dot kernel.
    Gram,
    /// One local dot product.
    Dot,
    /// One fused recurrence-combine / basis-shift sweep.
    Combine,
    /// One blocking allreduce.
    Allreduce,
    /// One non-blocking allreduce post→wait window (`arg` = reduction id).
    ArWindow,
    /// One solver interval between convergence checks (`arg` = sample seq).
    Iter,
    /// One benchmark-harness measurement body.
    Bench,
    /// One injected fault (`arg` = fault-site index).
    Fault,
    /// One recovery action (`arg` = recovery code, see
    /// `pipescg::resilience::code`).
    Recovery,
}

impl SpanKind {
    /// Every kind, in [`SpanKind::index`] order.
    pub const ALL: [SpanKind; 12] = [
        SpanKind::Spmv,
        SpanKind::Mpk,
        SpanKind::Pc,
        SpanKind::Gram,
        SpanKind::Dot,
        SpanKind::Combine,
        SpanKind::Allreduce,
        SpanKind::ArWindow,
        SpanKind::Iter,
        SpanKind::Bench,
        SpanKind::Fault,
        SpanKind::Recovery,
    ];

    /// Dense index into [`SpanKind::ALL`] (used by the aggregate tables).
    pub fn index(self) -> usize {
        match self {
            SpanKind::Spmv => 0,
            SpanKind::Mpk => 1,
            SpanKind::Pc => 2,
            SpanKind::Gram => 3,
            SpanKind::Dot => 4,
            SpanKind::Combine => 5,
            SpanKind::Allreduce => 6,
            SpanKind::ArWindow => 7,
            SpanKind::Iter => 8,
            SpanKind::Bench => 9,
            SpanKind::Fault => 10,
            SpanKind::Recovery => 11,
        }
    }

    /// Inverse of [`SpanKind::name`] (used when re-ingesting exported
    /// traces and aggregate files).
    pub fn parse(name: &str) -> Option<SpanKind> {
        SpanKind::ALL.iter().copied().find(|k| k.name() == name)
    }

    /// Display name (also the Chrome trace event name).
    pub fn name(self) -> &'static str {
        match self {
            SpanKind::Spmv => "spmv",
            SpanKind::Mpk => "mpk",
            SpanKind::Pc => "pc",
            SpanKind::Gram => "gram",
            SpanKind::Dot => "dot",
            SpanKind::Combine => "combine",
            SpanKind::Allreduce => "allreduce",
            SpanKind::ArWindow => "ar_window",
            SpanKind::Iter => "iter",
            SpanKind::Bench => "bench",
            SpanKind::Fault => "fault",
            SpanKind::Recovery => "recovery",
        }
    }

    /// Chrome trace category.
    pub fn category(self) -> &'static str {
        match self {
            SpanKind::Spmv | SpanKind::Mpk | SpanKind::Pc => "kernel",
            SpanKind::Gram | SpanKind::Dot | SpanKind::Combine => "blas",
            SpanKind::Allreduce | SpanKind::ArWindow => "comm",
            SpanKind::Iter => "solver",
            SpanKind::Bench => "bench",
            SpanKind::Fault | SpanKind::Recovery => "fault",
        }
    }

    /// True for the compute kernels whose time inside a post→wait window
    /// counts as achieved overlap (communication itself does not).
    pub fn is_kernel(self) -> bool {
        matches!(
            self,
            SpanKind::Spmv
                | SpanKind::Mpk
                | SpanKind::Pc
                | SpanKind::Gram
                | SpanKind::Dot
                | SpanKind::Combine
        )
    }
}

/// One recorded span.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpanRecord {
    /// What was measured.
    pub kind: SpanKind,
    /// Kind-specific argument (reduction id, iteration seq, 0 otherwise).
    pub arg: u64,
    /// Start, nanoseconds since the telemetry epoch.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
    /// Recording thread (registration order, 0-based).
    pub tid: u64,
}

impl SpanRecord {
    /// End timestamp.
    pub fn end_ns(&self) -> u64 {
        self.start_ns + self.dur_ns
    }
}

struct RingInner {
    records: VecDeque<SpanRecord>,
    dropped: u64,
}

struct ThreadRing {
    tid: u64,
    inner: Mutex<RingInner>,
}

fn registry() -> &'static Mutex<Vec<Arc<ThreadRing>>> {
    static REGISTRY: OnceLock<Mutex<Vec<Arc<ThreadRing>>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(Vec::new()))
}

static NEXT_TID: AtomicU64 = AtomicU64::new(0);
/// Cumulative post→wait window nanoseconds (process lifetime).
static WINDOW_NS: AtomicU64 = AtomicU64::new(0);
/// Cumulative kernel nanoseconds spent inside a post→wait window.
static KERNEL_IN_WINDOW_NS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static LOCAL: Arc<ThreadRing> = {
        let ring = Arc::new(ThreadRing {
            tid: NEXT_TID.fetch_add(1, Ordering::Relaxed),
            inner: Mutex::new(RingInner { records: VecDeque::new(), dropped: 0 }),
        });
        registry().lock().unwrap().push(Arc::clone(&ring));
        ring
    };
    /// Open post→wait windows of this thread: (reduction id, start ns).
    static OPEN_WINDOWS: RefCell<Vec<(u64, u64)>> = const { RefCell::new(Vec::new()) };
    /// Cached depth of `OPEN_WINDOWS`, checked on every kernel-span drop.
    static WINDOW_DEPTH: Cell<u32> = const { Cell::new(0) };
}

fn push_record(rec: SpanRecord) {
    // The flight recorder sees every span regardless of telemetry mode;
    // its own ACTIVE flag is the fast-path gate.
    crate::flight::note_span(&rec);
    if crate::mode() == crate::TelemetryMode::Aggregate {
        // Aggregate mode folds the span into O(1) per-kind state instead
        // of retaining it. Window/overlap totals are untouched — they were
        // already charged before this call.
        crate::agg::note(&rec);
        return;
    }
    LOCAL.with(|ring| {
        let mut inner = ring.inner.lock().unwrap();
        if inner.records.len() >= RING_CAP {
            inner.records.pop_front();
            inner.dropped += 1;
        }
        inner.records.push_back(rec);
    });
}

/// RAII guard returned by [`span`]; records on drop. Inert (no clock read,
/// no allocation) when telemetry is disabled at creation.
pub struct SpanGuard {
    kind: SpanKind,
    arg: u64,
    /// `u64::MAX` marks an inactive guard.
    start_ns: u64,
    in_window: bool,
}

impl SpanGuard {
    /// True when this guard will record a span on drop.
    pub fn is_active(&self) -> bool {
        self.start_ns != u64::MAX
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if self.start_ns == u64::MAX {
            return;
        }
        let dur = crate::now_ns().saturating_sub(self.start_ns);
        if self.in_window && self.kind.is_kernel() {
            KERNEL_IN_WINDOW_NS.fetch_add(dur, Ordering::Relaxed);
        }
        push_record(SpanRecord {
            kind: self.kind,
            arg: self.arg,
            start_ns: self.start_ns,
            dur_ns: dur,
            tid: LOCAL.with(|r| r.tid),
        });
    }
}

/// Opens a span of `kind`; the span ends when the guard drops.
#[inline]
pub fn span(kind: SpanKind) -> SpanGuard {
    span_arg(kind, 0)
}

/// Opens a span of `kind` carrying a kind-specific argument.
#[inline]
pub fn span_arg(kind: SpanKind, arg: u64) -> SpanGuard {
    if !crate::enabled() {
        return SpanGuard {
            kind,
            arg,
            start_ns: u64::MAX,
            in_window: false,
        };
    }
    SpanGuard {
        kind,
        arg,
        start_ns: crate::now_ns(),
        in_window: WINDOW_DEPTH.with(|d| d.get()) > 0,
    }
}

/// Records a span with explicit timestamps (used by the metrics layer for
/// iteration intervals).
pub fn record_span(kind: SpanKind, arg: u64, start_ns: u64, dur_ns: u64) {
    if !crate::enabled() {
        return;
    }
    push_record(SpanRecord {
        kind,
        arg,
        start_ns,
        dur_ns,
        tid: LOCAL.with(|r| r.tid),
    });
}

/// Marks the post of non-blocking allreduce `id` on this thread, opening
/// its post→wait window.
pub fn window_open(id: u64) {
    if !crate::enabled() {
        return;
    }
    let now = crate::now_ns();
    OPEN_WINDOWS.with(|w| w.borrow_mut().push((id, now)));
    WINDOW_DEPTH.with(|d| d.set(d.get() + 1));
}

/// Marks the wait-completion of non-blocking allreduce `id`, closing its
/// window and recording an [`SpanKind::ArWindow`] span. A close with no
/// matching open on this thread (e.g. telemetry was enabled mid-flight) is
/// ignored.
pub fn window_close(id: u64) {
    if !crate::enabled() {
        return;
    }
    let start = OPEN_WINDOWS.with(|w| {
        let mut w = w.borrow_mut();
        let pos = w.iter().rposition(|&(wid, _)| wid == id)?;
        Some(w.remove(pos).1)
    });
    let Some(start) = start else { return };
    WINDOW_DEPTH.with(|d| d.set(d.get().saturating_sub(1)));
    let dur = crate::now_ns().saturating_sub(start);
    WINDOW_NS.fetch_add(dur, Ordering::Relaxed);
    push_record(SpanRecord {
        kind: SpanKind::ArWindow,
        arg: id,
        start_ns: start,
        dur_ns: dur,
        tid: LOCAL.with(|r| r.tid),
    });
}

/// Cumulative `(window_ns, kernel_in_window_ns)` totals since process
/// start. Monotone: consumers diff two readings to measure an interval.
pub fn overlap_totals() -> (u64, u64) {
    (
        WINDOW_NS.load(Ordering::Relaxed),
        KERNEL_IN_WINDOW_NS.load(Ordering::Relaxed),
    )
}

/// Every span recorded since the previous drain, across all threads.
#[derive(Debug, Clone, Default)]
pub struct SpanSet {
    /// Records, sorted by start time (ties broken by thread id).
    pub records: Vec<SpanRecord>,
    /// Spans lost to ring overflow since the previous drain.
    pub dropped: u64,
}

impl SpanSet {
    /// Total duration of spans of `kind`.
    pub fn total_ns(&self, kind: SpanKind) -> u64 {
        self.records
            .iter()
            .filter(|r| r.kind == kind)
            .map(|r| r.dur_ns)
            .sum()
    }

    /// Number of spans of `kind`.
    pub fn count(&self, kind: SpanKind) -> usize {
        self.records.iter().filter(|r| r.kind == kind).count()
    }
}

/// Collects and clears every thread's ring.
pub fn drain() -> SpanSet {
    let rings: Vec<Arc<ThreadRing>> = registry().lock().unwrap().clone();
    let mut out = SpanSet::default();
    for ring in rings {
        let mut inner = ring.inner.lock().unwrap();
        out.records.extend(inner.records.drain(..));
        out.dropped += inner.dropped;
        inner.dropped = 0;
    }
    out.records.sort_by_key(|r| (r.start_ns, r.tid));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_is_in_index_order() {
        for (i, kind) in SpanKind::ALL.iter().enumerate() {
            assert_eq!(kind.index(), i, "{kind:?}");
        }
    }

    #[test]
    fn parse_inverts_name() {
        for kind in SpanKind::ALL {
            assert_eq!(SpanKind::parse(kind.name()), Some(kind));
        }
        assert_eq!(SpanKind::parse("no-such-kind"), None);
    }

    /// Spans and windows share process globals; the crate test lock keeps
    /// this single-writer within the test binary.
    #[test]
    fn spans_windows_and_overlap_accounting() {
        let _g = crate::test_lock();
        crate::set_enabled(false);
        drain(); // clear spans left by earlier tests in this binary
        drop(span(SpanKind::Spmv));
        assert!(
            drain().records.is_empty(),
            "disabled recorder must record nothing"
        );

        crate::set_enabled(true);
        let (w0, k0) = overlap_totals();

        // A kernel outside any window: no overlap credit.
        {
            let _s = span(SpanKind::Spmv);
            std::hint::black_box(());
        }
        // A window with one kernel inside and a non-kernel span inside.
        window_open(7);
        {
            let _s = span_arg(SpanKind::Pc, 1);
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        drop(span(SpanKind::Allreduce)); // comm: never overlap credit
        window_close(7);
        // Close of an unknown id is ignored.
        window_close(99);

        let set = drain();
        crate::set_enabled(false);

        assert_eq!(set.count(SpanKind::Spmv), 1);
        assert_eq!(set.count(SpanKind::Pc), 1);
        assert_eq!(set.count(SpanKind::ArWindow), 1);
        assert_eq!(set.dropped, 0);
        let win = set
            .records
            .iter()
            .find(|r| r.kind == SpanKind::ArWindow)
            .unwrap();
        assert_eq!(win.arg, 7);
        let pc = set.records.iter().find(|r| r.kind == SpanKind::Pc).unwrap();
        assert!(pc.start_ns >= win.start_ns && pc.end_ns() <= win.end_ns());

        let (w1, k1) = overlap_totals();
        let dw = w1 - w0;
        let dk = k1 - k0;
        assert_eq!(dw, win.dur_ns);
        assert_eq!(dk, pc.dur_ns, "only the in-window kernel earns credit");
        assert!(dk <= dw);

        // Multi-thread: each thread records into its own ring; drain merges.
        crate::set_enabled(true);
        std::thread::scope(|s| {
            for _ in 0..3 {
                s.spawn(|| drop(span(SpanKind::Gram)));
            }
        });
        let set = drain();
        crate::set_enabled(false);
        assert_eq!(set.count(SpanKind::Gram), 3);
        let tids: std::collections::HashSet<u64> = set.records.iter().map(|r| r.tid).collect();
        assert_eq!(tids.len(), 3, "one ring per recording thread");
    }
}
