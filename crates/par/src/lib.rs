//! Deterministic shared-memory execution layer for the kernel engine.
//!
//! The offline build constraint (DESIGN.md §5) rules out rayon, so this
//! crate provides the small subset the kernels need, on `std::sync` only:
//!
//! * [`Pool`] — a persistent chunked thread pool. A job is a `Fn(usize)`
//!   evaluated for indices `0..njobs`; the submitting thread participates,
//!   so `Pool::new(1)` spawns no workers and runs everything inline.
//! * [`Pool::global`] — a process-wide pool sized from the `PSCG_THREADS`
//!   environment variable (default: all available cores), replaceable at
//!   runtime with [`set_global_threads`].
//! * [`knobs`] — the chunk-size knobs of the determinism contract. Chunk
//!   boundaries depend only on problem shape and these knobs — never on the
//!   thread count — and every reduction combines its per-chunk partials in
//!   chunk order, so results are bitwise identical at any thread count.
//! * [`DisjointMut`] — shared mutable access to *disjoint* ranges of one
//!   slice from several chunk jobs.
//!
//! Nested submissions (e.g. a parallel kernel called from inside the
//! thread-backed SPMD engine, whose rank threads may call [`Pool::run`]
//! concurrently) never deadlock: the pool admits one job at a time and any
//! contending submitter simply runs its job inline on its own thread —
//! legal precisely because chunking is thread-count independent.
//!
//! The dispatch protocol itself is verified two ways (DESIGN.md §9): an
//! exhaustive model checker in `pscg-check` explores every interleaving of
//! a faithful transition-system model at bounded configurations, and the
//! [`sync_trace`] module records the protocol's synchronization events plus
//! buffer accesses at runtime so a vector-clock race detector can check the
//! disjoint-write contract on real kernel schedules.

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]

use std::cell::UnsafeCell;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock, TryLockError};
use std::thread::JoinHandle;

/// Raw pointer to the current job closure; only dereferenced while the
/// submitting [`Pool::run`] call is blocked, which keeps the borrow alive.
#[derive(Clone, Copy)]
struct JobFn(*const (dyn Fn(usize) + Sync));

// SAFETY: the pointee is `Sync` (it is invoked from several threads) and the
// pointer itself is only shared, never used to move the closure.
unsafe impl Send for JobFn {}
unsafe impl Sync for JobFn {}

/// One submitted job: the closure plus its index space. Progress lives in
/// [`Shared`]'s pool-lifetime atomics, so publishing a job allocates
/// nothing.
#[derive(Clone, Copy)]
struct Job {
    f: JobFn,
    njobs: usize,
}

/// Worker-visible pool state.
struct State {
    /// Bumped once per submission so sleeping workers notice new work.
    epoch: u32,
    job: Option<Job>,
    shutdown: bool,
}

struct Shared {
    /// Process-unique pool id, tagging this pool's [`sync_trace`] events so
    /// the race detector never conflates epochs of distinct pools.
    id: u64,
    state: Mutex<State>,
    work_cv: Condvar,
    done_cv: Condvar,
    /// Packed `(epoch << 32) | next_index` claim word of the active job.
    /// The epoch tag makes a claim by a stale worker impossible: its
    /// compare-exchange fails the moment a new job resets the word. The
    /// counters live here — not in per-job `Arc`s — so `run` performs **no
    /// allocation** on any path. That is deliberate and load-bearing: the
    /// trace engine interns buffer identities by storage address, so the
    /// engine must not let heap layout depend on the pool width or on
    /// which thread happens to free a job last.
    claim: AtomicU64,
    /// Completed index count of the active job; the last finisher wakes
    /// the submitter. Only epoch-verified claimants ever increment it.
    done: AtomicUsize,
}

/// A persistent chunked thread pool (see module docs).
pub struct Pool {
    shared: Arc<Shared>,
    /// Admits one job at a time; contenders fall back to inline execution.
    submit: Mutex<()>,
    threads: usize,
    workers: Vec<JoinHandle<()>>,
}

impl Pool {
    /// Creates a pool with `threads` execution lanes (the submitting thread
    /// counts as one, so `threads - 1` workers are spawned; `0` is clamped
    /// to `1`).
    pub fn new(threads: usize) -> Pool {
        static NEXT_POOL_ID: AtomicU64 = AtomicU64::new(0);
        let threads = threads.max(1);
        let shared = Arc::new(Shared {
            id: NEXT_POOL_ID.fetch_add(1, Ordering::Relaxed),
            state: Mutex::new(State {
                epoch: 0,
                job: None,
                shutdown: false,
            }),
            work_cv: Condvar::new(),
            done_cv: Condvar::new(),
            claim: AtomicU64::new(0),
            done: AtomicUsize::new(0),
        });
        let workers = (1..threads)
            .map(|_| {
                let sh = Arc::clone(&shared);
                std::thread::spawn(move || worker_loop(&sh))
            })
            .collect();
        Pool {
            shared,
            submit: Mutex::new(()),
            threads,
            workers,
        }
    }

    /// Number of execution lanes (including the submitting thread).
    #[inline]
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Process-unique id tagging this pool's [`sync_trace`] events.
    #[inline]
    pub fn id(&self) -> u64 {
        self.shared.id
    }

    /// Runs `f(i)` for every `i in 0..njobs`, returning when all are done.
    ///
    /// Job indices are claimed dynamically, so `f` must be safe to call from
    /// any thread in any order — deterministic kernels get their ordering
    /// from fixed chunk boundaries plus an ordered combine, not from the
    /// execution schedule. Runs inline (serially, in index order) when the
    /// pool has one lane, when `njobs <= 1`, or when another job is already
    /// in flight on this pool.
    pub fn run(&self, njobs: usize, f: &(dyn Fn(usize) + Sync)) {
        assert!(
            njobs < u32::MAX as usize,
            "job index space exceeds the claim word"
        );
        stats::JOBS.fetch_add(1, Ordering::Relaxed);
        stats::INDICES.fetch_add(njobs as u64, Ordering::Relaxed);
        if njobs <= 1 || self.workers.is_empty() {
            stats::INLINE_SMALL.fetch_add(1, Ordering::Relaxed);
            for i in 0..njobs {
                f(i);
            }
            return;
        }
        let _admit = match self.submit.try_lock() {
            Ok(g) => g,
            Err(TryLockError::WouldBlock) => {
                // Nested or concurrent submission: run inline.
                stats::INLINE_NESTED.fetch_add(1, Ordering::Relaxed);
                for i in 0..njobs {
                    f(i);
                }
                return;
            }
            Err(TryLockError::Poisoned(e)) => panic!("pool submit lock poisoned: {e}"), // pscg-lint: allow(panic-in-hot-path, a poisoned submit lock means a worker already panicked; propagate, do not mask)
        };
        stats::PARALLEL.fetch_add(1, Ordering::Relaxed);
        // SAFETY: lifetime erasure only — the pointer is dereferenced solely
        // while this call blocks below, and the epoch-tagged claim word
        // guarantees no worker can claim (and hence call) it afterwards.
        let f_erased = unsafe {
            std::mem::transmute::<&(dyn Fn(usize) + Sync), &'static (dyn Fn(usize) + Sync)>(f)
        };
        let epoch = {
            let mut st = self.shared.state.lock().unwrap();
            st.epoch = st.epoch.wrapping_add(1);
            // Reset progress before the new claim word becomes visible; no
            // stale worker can touch either (its epoch-tagged claims fail).
            self.shared.done.store(0, Ordering::Release);
            self.shared
                .claim
                .store(u64::from(st.epoch) << 32, Ordering::Release);
            st.job = Some(Job {
                f: JobFn(f_erased),
                njobs,
            });
            self.shared.work_cv.notify_all();
            st.epoch
        };
        sync_trace::record(sync_trace::SyncEvent::EpochPublish {
            pool: self.shared.id,
            epoch,
            njobs,
        });
        // The submitter works too.
        while let Some(i) = self.shared.claim_index(epoch, njobs) {
            f(i);
            self.shared.finish_index(epoch, njobs);
        }
        let mut st = self.shared.state.lock().unwrap();
        while self.shared.done.load(Ordering::Acquire) < njobs {
            st = self.shared.done_cv.wait(st).unwrap();
        }
        // Drop the job so the stale closure pointer can never be re-read.
        st.job = None;
        drop(st);
        sync_trace::record(sync_trace::SyncEvent::PoolJoin {
            pool: self.shared.id,
            epoch,
        });
    }

    /// Runs `f(i)` for `i in 0..njobs` and collects the results **in index
    /// order** — the ordered-combine primitive of the determinism contract.
    pub fn run_map<R, F>(&self, njobs: usize, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(usize) -> R + Sync,
    {
        struct Slot<T>(UnsafeCell<Option<T>>);
        // SAFETY: each job index writes only its own slot.
        unsafe impl<T: Send> Sync for Slot<T> {}
        let slots: Vec<Slot<R>> = (0..njobs).map(|_| Slot(UnsafeCell::new(None))).collect();
        self.run(njobs, &|i| {
            // SAFETY: slot `i` is written exactly once, by job `i`.
            unsafe { *slots[i].0.get() = Some(f(i)) };
        });
        slots
            .into_iter()
            .map(|s| s.0.into_inner().expect("pool job skipped an index")) // pscg-lint: allow(panic-in-hot-path, pool contract: every index is written exactly once by its job)
            .collect()
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        {
            let mut st = self.shared.state.lock().unwrap();
            st.shutdown = true;
            self.shared.work_cv.notify_all();
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

impl Shared {
    /// Claims the next index of the job tagged `epoch`: `None` when that
    /// job is exhausted or no longer the active one. An epoch-verified
    /// claim pins the submitting `run` call — it cannot return until the
    /// claimed index is reported done — which is what keeps the erased
    /// closure pointer alive across the claimant's call.
    fn claim_index(&self, epoch: u32, njobs: usize) -> Option<usize> {
        let mut cur = self.claim.load(Ordering::Acquire);
        loop {
            if (cur >> 32) as u32 != epoch {
                return None;
            }
            let i = (cur & u64::from(u32::MAX)) as usize;
            if i >= njobs {
                return None;
            }
            match self.claim.compare_exchange_weak(
                cur,
                cur + 1,
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => {
                    sync_trace::record(sync_trace::SyncEvent::ClaimAcquire {
                        pool: self.id,
                        epoch,
                        index: i,
                    });
                    return Some(i);
                }
                Err(now) => cur = now,
            }
        }
    }

    /// Reports one claimed index complete; the last finisher wakes the
    /// submitter. Locking the state first keeps the notify from racing the
    /// submitter between its `done` check and its wait.
    fn finish_index(&self, epoch: u32, njobs: usize) {
        let done_after = self.done.fetch_add(1, Ordering::AcqRel) + 1;
        sync_trace::record(sync_trace::SyncEvent::FinishIndex {
            pool: self.id,
            epoch,
            done_after,
        });
        if done_after == njobs {
            let _st = self.state.lock().unwrap();
            self.done_cv.notify_all();
        }
    }
}

fn worker_loop(shared: &Shared) {
    let mut seen_epoch = 0u32;
    loop {
        let (job, epoch) = {
            let mut st = shared.state.lock().unwrap();
            loop {
                if st.shutdown {
                    return;
                }
                if st.epoch != seen_epoch {
                    seen_epoch = st.epoch;
                    if let Some(j) = st.job {
                        break (j, st.epoch);
                    }
                }
                st = shared.work_cv.wait(st).unwrap();
            }
        };
        while let Some(i) = shared.claim_index(epoch, job.njobs) {
            // SAFETY: the claim was epoch-verified, so the submitter blocks
            // in `run` at least until `finish_index` below — the closure
            // outlives this dereference.
            unsafe { (*job.f.0)(i) };
            shared.finish_index(epoch, job.njobs);
        }
    }
}

/// The process-wide pool, lazily sized from `PSCG_THREADS` (default: all
/// available cores).
pub fn global() -> Arc<Pool> {
    global_slot().lock().unwrap().clone()
}

/// Number of lanes of the current global pool.
pub fn global_threads() -> usize {
    global().threads()
}

/// Replaces the global pool with one of `threads` lanes. Kernels already
/// holding the old pool finish on it; new calls see the new size.
pub fn set_global_threads(threads: usize) {
    *global_slot().lock().unwrap() = Arc::new(Pool::new(threads));
}

fn global_slot() -> &'static Mutex<Arc<Pool>> {
    static GLOBAL: OnceLock<Mutex<Arc<Pool>>> = OnceLock::new();
    GLOBAL.get_or_init(|| Mutex::new(Arc::new(Pool::new(default_threads()))))
}

/// Thread count the global pool starts with: `PSCG_THREADS` if set and
/// positive, otherwise the number of available cores.
pub fn default_threads() -> usize {
    if let Ok(v) = std::env::var("PSCG_THREADS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n >= 1 {
                return n;
            }
        }
    }
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Chunk-size knobs of the determinism contract.
///
/// Chunk boundaries — and therefore every reduction tree — are functions of
/// the problem shape and these knobs only. Changing a knob (or its
/// environment override, read once on first use) changes rounding the same
/// way at every thread count; the thread count itself never does.
pub mod knobs {
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// Default nnz per SpMV row chunk (`PSCG_SPMV_CHUNK_NNZ` overrides).
    pub const DEFAULT_SPMV_CHUNK_NNZ: usize = 1 << 16;
    /// Default rows per Gram/update chunk (`PSCG_GRAM_CHUNK_ROWS` overrides).
    pub const DEFAULT_GRAM_CHUNK_ROWS: usize = 4096;

    static SPMV_CHUNK_NNZ: AtomicUsize = AtomicUsize::new(0);
    static GRAM_CHUNK_ROWS: AtomicUsize = AtomicUsize::new(0);

    fn get(cell: &AtomicUsize, env: &str, default: usize) -> usize {
        let v = cell.load(Ordering::Relaxed);
        if v != 0 {
            return v;
        }
        let init = std::env::var(env)
            .ok()
            .and_then(|s| s.trim().parse::<usize>().ok())
            .filter(|&n| n >= 1)
            .unwrap_or(default);
        cell.store(init, Ordering::Relaxed);
        init
    }

    /// Target non-zeros per row chunk of the parallel SpMV.
    pub fn spmv_chunk_nnz() -> usize {
        get(
            &SPMV_CHUNK_NNZ,
            "PSCG_SPMV_CHUNK_NNZ",
            DEFAULT_SPMV_CHUNK_NNZ,
        )
    }

    /// Overrides [`spmv_chunk_nnz`] (0 is clamped to 1). Note: `CsrMatrix`
    /// caches its row partition on first SpMV, so set this before solving.
    pub fn set_spmv_chunk_nnz(nnz: usize) {
        SPMV_CHUNK_NNZ.store(nnz.max(1), Ordering::Relaxed);
    }

    /// Rows per chunk of the blocked Gram / fused update kernels.
    pub fn gram_chunk_rows() -> usize {
        get(
            &GRAM_CHUNK_ROWS,
            "PSCG_GRAM_CHUNK_ROWS",
            DEFAULT_GRAM_CHUNK_ROWS,
        )
    }

    /// Overrides [`gram_chunk_rows`] (0 is clamped to 1). This changes the
    /// fixed reduction tree, i.e. rounding — identically at every thread
    /// count.
    pub fn set_gram_chunk_rows(rows: usize) {
        GRAM_CHUNK_ROWS.store(rows.max(1), Ordering::Relaxed);
    }
}

/// Process-wide pool activity counters.
///
/// Every [`Pool::run`] call — on any pool instance — bumps these relaxed
/// atomics. They are observability only: nothing reads them on a kernel
/// path, and they influence neither chunking nor numerics. A few relaxed
/// `fetch_add`s per kernel invocation is noise next to the kernel itself.
pub mod stats {
    use std::sync::atomic::{AtomicU64, Ordering};

    pub(crate) static JOBS: AtomicU64 = AtomicU64::new(0);
    pub(crate) static PARALLEL: AtomicU64 = AtomicU64::new(0);
    pub(crate) static INLINE_NESTED: AtomicU64 = AtomicU64::new(0);
    pub(crate) static INLINE_SMALL: AtomicU64 = AtomicU64::new(0);
    pub(crate) static INDICES: AtomicU64 = AtomicU64::new(0);

    /// A snapshot of the cumulative pool counters. Monotone: diff two
    /// snapshots (see [`PoolStats::delta_since`]) to measure an interval.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct PoolStats {
        /// `Pool::run` submissions.
        pub jobs: u64,
        /// Submissions dispatched to worker threads.
        pub parallel_jobs: u64,
        /// Submissions run inline because the pool was busy with another
        /// job (the nested-submission fallback).
        pub inline_nested: u64,
        /// Submissions run inline because `njobs <= 1` or the pool has a
        /// single lane.
        pub inline_small: u64,
        /// Total job indices (chunks) executed.
        pub indices: u64,
    }

    impl PoolStats {
        /// Reads the current cumulative counters (relaxed loads — cheap
        /// enough to call per solver iteration).
        pub fn snapshot() -> PoolStats {
            PoolStats {
                jobs: JOBS.load(Ordering::Relaxed),
                parallel_jobs: PARALLEL.load(Ordering::Relaxed),
                inline_nested: INLINE_NESTED.load(Ordering::Relaxed),
                inline_small: INLINE_SMALL.load(Ordering::Relaxed),
                indices: INDICES.load(Ordering::Relaxed),
            }
        }

        /// Component-wise `self − earlier` (saturating, in case the two
        /// snapshots raced concurrent submissions).
        pub fn delta_since(&self, earlier: &PoolStats) -> PoolStats {
            PoolStats {
                jobs: self.jobs.saturating_sub(earlier.jobs),
                parallel_jobs: self.parallel_jobs.saturating_sub(earlier.parallel_jobs),
                inline_nested: self.inline_nested.saturating_sub(earlier.inline_nested),
                inline_small: self.inline_small.saturating_sub(earlier.inline_small),
                indices: self.indices.saturating_sub(earlier.indices),
            }
        }

        /// Fraction of submissions that used worker threads (`NaN` when no
        /// jobs ran).
        pub fn utilization(&self) -> f64 {
            self.parallel_jobs as f64 / self.jobs as f64
        }
    }

    impl std::fmt::Display for PoolStats {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            write!(
                f,
                "jobs {} (parallel {}, inline-small {}, inline-nested {}), chunks {}",
                self.jobs, self.parallel_jobs, self.inline_small, self.inline_nested, self.indices
            )
        }
    }
}

/// Synchronization-event recording for the vector-clock race detector.
///
/// When enabled (off by default — one relaxed atomic load per event site
/// otherwise), the pool's dispatch protocol and the kernels' buffer
/// accesses append [`SyncRecord`]s to a process-global log:
///
/// * protocol events — `EpochPublish` (job published under the state
///   lock), `ClaimAcquire` (successful claim-word CAS), `FinishIndex`
///   (done-counter increment), `PoolJoin` (submitter observed all indices
///   done) — carry the data (`pool`, `epoch`, `index`/`done_after`) that
///   determines the protocol's happens-before edges, so the detector never
///   has to trust cross-thread log order (two threads may append their
///   records in the opposite order of their CASes);
/// * buffer events — `BufRead` / `BufWrite` with the storage address and
///   half-open element range — are emitted from [`DisjointMut::range`] and
///   the instrumented kernels, and `ReducePost` / `ReduceComplete` from
///   the engine's completion handling.
///
/// Within one thread the log order is program order (each thread appends
/// its own events in sequence); that is the only ordering the detector
/// reads off the log itself. Recording serializes on a mutex, which may
/// perturb the schedule being observed — like any dynamic race detector,
/// findings are per observed schedule; exhaustiveness over schedules is
/// the model checker's job (`pscg-check`).
pub mod sync_trace {
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
    use std::sync::Mutex;

    /// One synchronization or memory-access event.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum SyncEvent {
        /// A submitter published a job: epoch bumped, done reset, claim
        /// word rearmed, all under the pool's state lock.
        EpochPublish {
            /// Process-unique pool id.
            pool: u64,
            /// The new epoch.
            epoch: u32,
            /// Index space of the published job.
            njobs: usize,
        },
        /// A thread won the claim-word CAS for one job index.
        ClaimAcquire {
            /// Process-unique pool id.
            pool: u64,
            /// Epoch tag the CAS verified.
            epoch: u32,
            /// The claimed index.
            index: usize,
        },
        /// A thread reported a claimed index complete.
        FinishIndex {
            /// Process-unique pool id.
            pool: u64,
            /// Epoch of the finished job.
            epoch: u32,
            /// Value of the done counter *after* this increment (1-based),
            /// which totally orders the finishes of one epoch.
            done_after: usize,
        },
        /// The submitter observed `done == njobs` and reclaimed the job
        /// slot — everything the workers did is now ordered before it.
        PoolJoin {
            /// Process-unique pool id.
            pool: u64,
            /// Epoch that completed.
            epoch: u32,
        },
        /// A read of `[lo, hi)` of the buffer with storage address `buf`.
        BufRead {
            /// Storage address (the same identity `BufId` interning uses).
            buf: u64,
            /// First element read.
            lo: usize,
            /// One past the last element read.
            hi: usize,
        },
        /// A write of `[lo, hi)` of the buffer with storage address `buf`.
        BufWrite {
            /// Storage address (the same identity `BufId` interning uses).
            buf: u64,
            /// First element written.
            lo: usize,
            /// One past the last element written.
            hi: usize,
        },
        /// A non-blocking reduction was posted (engine completion handling).
        ReducePost {
            /// Engine-assigned reduction handle.
            id: u64,
        },
        /// A posted reduction's completion was consumed.
        ReduceComplete {
            /// Engine-assigned reduction handle.
            id: u64,
        },
    }

    /// One logged event with the ordinal of the thread that emitted it.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct SyncRecord {
        /// Process-wide thread ordinal (stable per OS thread).
        pub thread: u64,
        /// What happened.
        pub event: SyncEvent,
    }

    /// A drained synchronization trace.
    #[derive(Debug, Clone, Default)]
    pub struct SyncTrace {
        /// The records, in global append order (per-thread subsequences
        /// are in program order; cross-thread order is not meaningful).
        pub records: Vec<SyncRecord>,
    }

    static ENABLED: AtomicBool = AtomicBool::new(false);
    static LOG: Mutex<Vec<SyncRecord>> = Mutex::new(Vec::new());

    /// Turns recording on or off. Enabling does not clear the log; use
    /// [`drain`] to start a fresh observation window.
    pub fn set_enabled(on: bool) {
        ENABLED.store(on, Ordering::Release);
    }

    /// True when events are being recorded.
    #[inline]
    pub fn is_enabled() -> bool {
        ENABLED.load(Ordering::Relaxed)
    }

    /// Appends one event (no-op unless recording is enabled).
    #[inline]
    pub fn record(event: SyncEvent) {
        if !is_enabled() {
            return;
        }
        let rec = SyncRecord {
            thread: thread_ordinal(),
            event,
        };
        LOG.lock().unwrap().push(rec);
    }

    /// Convenience: records a [`SyncEvent::BufRead`] of a slice range.
    #[inline]
    pub fn record_read<T>(buf: &[T], lo: usize, hi: usize) {
        record(SyncEvent::BufRead {
            buf: buf.as_ptr() as u64,
            lo,
            hi,
        });
    }

    /// Takes the accumulated records, leaving the log empty.
    pub fn drain() -> SyncTrace {
        SyncTrace {
            records: std::mem::take(&mut *LOG.lock().unwrap()),
        }
    }

    /// Stable per-OS-thread ordinal (allocation order, process-wide).
    pub fn thread_ordinal() -> u64 {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        thread_local! {
            static ORDINAL: u64 = NEXT.fetch_add(1, Ordering::Relaxed);
        }
        ORDINAL.with(|o| *o)
    }
}

/// Number of fixed-size chunks covering `len` items (`0` for an empty range).
#[inline]
pub fn chunk_count(len: usize, chunk: usize) -> usize {
    len.div_ceil(chunk.max(1))
}

/// Half-open item range of chunk `i` under fixed-size chunking.
#[inline]
pub fn chunk_range(len: usize, chunk: usize, i: usize) -> (usize, usize) {
    let chunk = chunk.max(1);
    let lo = i * chunk;
    (lo, len.min(lo + chunk))
}

/// Shared mutable access to disjoint ranges of one slice, for chunk jobs
/// that each write their own rows.
pub struct DisjointMut<'a, T> {
    ptr: *mut T,
    len: usize,
    _marker: PhantomData<&'a mut [T]>,
}

// SAFETY: range disjointness is the caller contract of `DisjointMut::range`;
// `T: Send` values may be written from any thread.
unsafe impl<T: Send> Send for DisjointMut<'_, T> {}
unsafe impl<T: Send> Sync for DisjointMut<'_, T> {}

impl<'a, T> DisjointMut<'a, T> {
    /// Wraps a mutable slice for disjoint-range sharing.
    pub fn new(slice: &'a mut [T]) -> Self {
        DisjointMut {
            ptr: slice.as_mut_ptr(),
            len: slice.len(),
            _marker: PhantomData,
        }
    }

    /// Length of the underlying slice.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the underlying slice is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The sub-slice `[lo, hi)`.
    ///
    /// # Safety
    /// No two live sub-slices may overlap; the caller must hand each range
    /// to at most one concurrent job.
    ///
    /// When [`sync_trace`] recording is enabled, every call logs a
    /// `BufWrite` event, so the vector-clock race detector checks exactly
    /// this contract on the observed schedule.
    // The `&mut`-from-`&self` shape is the point of this type: it is the
    // caller-enforced disjointness cell the chunk jobs share (same idea as
    // `UnsafeCell`), hence the lint exemption.
    #[allow(clippy::mut_from_ref)]
    #[inline]
    pub unsafe fn range(&self, lo: usize, hi: usize) -> &mut [T] {
        debug_assert!(lo <= hi && hi <= self.len);
        sync_trace::record(sync_trace::SyncEvent::BufWrite {
            buf: self.ptr as u64,
            lo,
            hi,
        });
        // SAFETY: `lo <= hi <= len` bounds the range inside the wrapped
        // slice; non-overlap of live sub-slices is the caller contract
        // stated above, so no two `&mut` views alias.
        unsafe { std::slice::from_raw_parts_mut(self.ptr.add(lo), hi - lo) }
    }

    /// The sub-slice `[lo, hi)`, shared: for an in-place kernel whose job
    /// reads rows of a buffer that the same dispatch also writes.
    ///
    /// # Safety
    /// No live `&mut` sub-slice from [`DisjointMut::range`] may overlap
    /// `[lo, hi)`: a job may read only rows no other concurrent job
    /// writes, and must drop this view before it borrows them mutably.
    ///
    /// When [`sync_trace`] recording is enabled, every call logs a
    /// `BufRead` of exactly this range, so the race detector checks the
    /// contract row range by row range.
    #[inline]
    pub unsafe fn range_ref(&self, lo: usize, hi: usize) -> &[T] {
        debug_assert!(lo <= hi && hi <= self.len);
        sync_trace::record(sync_trace::SyncEvent::BufRead {
            buf: self.ptr as u64,
            lo,
            hi,
        });
        // SAFETY: `lo <= hi <= len` bounds the range inside the wrapped
        // slice; the caller contract above excludes a live `&mut` view of
        // any of it.
        unsafe { std::slice::from_raw_parts(self.ptr.add(lo), hi - lo) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn run_covers_every_index_once() {
        for threads in [1, 2, 4, 7] {
            let pool = Pool::new(threads);
            let hits: Vec<AtomicUsize> = (0..100).map(|_| AtomicUsize::new(0)).collect();
            pool.run(100, &|i| {
                hits[i].fetch_add(1, Ordering::Relaxed);
            });
            assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
        }
    }

    #[test]
    fn run_map_preserves_index_order() {
        let pool = Pool::new(4);
        let out = pool.run_map(37, |i| i * i);
        assert_eq!(out, (0..37).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn pool_is_reusable_across_jobs() {
        let pool = Pool::new(3);
        let total = AtomicU64::new(0);
        for round in 0..50u64 {
            pool.run(8, &|i| {
                total.fetch_add(round + i as u64, Ordering::Relaxed);
            });
        }
        // Σ_round Σ_i (round + i) = 50·28 + 8·Σ rounds = 1400 + 8·1225.
        assert_eq!(total.load(Ordering::Relaxed), 1400 + 8 * 1225);
    }

    #[test]
    fn nested_run_falls_back_inline() {
        let pool = Pool::new(4);
        let hits: Vec<AtomicUsize> = (0..64).map(|_| AtomicUsize::new(0)).collect();
        pool.run(8, &|outer| {
            pool.run(8, &|inner| {
                hits[outer * 8 + inner].fetch_add(1, Ordering::Relaxed);
            });
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn zero_and_one_jobs_run_inline() {
        let pool = Pool::new(4);
        let n = AtomicUsize::new(0);
        pool.run(0, &|_| {
            n.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(n.load(Ordering::Relaxed), 0);
        pool.run(1, &|_| {
            n.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(n.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn chunking_is_exhaustive_and_disjoint() {
        for (len, chunk) in [(0, 5), (1, 5), (4, 5), (5, 5), (6, 5), (103, 7)] {
            let n = chunk_count(len, chunk);
            let mut covered = 0;
            for i in 0..n {
                let (lo, hi) = chunk_range(len, chunk, i);
                assert_eq!(lo, covered, "gap before chunk {i}");
                assert!(hi > lo, "empty chunk {i}");
                covered = hi;
            }
            assert_eq!(covered, len);
        }
    }

    #[test]
    fn disjoint_mut_writes_land() {
        let mut v = vec![0u32; 20];
        {
            let d = DisjointMut::new(&mut v);
            let pool = Pool::new(4);
            pool.run(4, &|c| {
                let (lo, hi) = chunk_range(20, 5, c);
                // SAFETY: fixed chunks are disjoint.
                let s = unsafe { d.range(lo, hi) };
                for (k, x) in s.iter_mut().enumerate() {
                    *x = (lo + k) as u32;
                }
            });
        }
        assert_eq!(v, (0..20).collect::<Vec<u32>>());
    }

    #[test]
    fn default_threads_is_positive() {
        assert!(default_threads() >= 1);
    }

    #[test]
    fn sync_trace_records_the_dispatch_protocol() {
        // Recording and the log are process-global, so this is the one
        // test that drains it (a second drainer could steal our events);
        // concurrent tests may still interleave their own pools' events,
        // hence the filter by pool id below.
        let silent = Pool::new(2);
        silent.run(4, &|_| {});
        let pool = Pool::new(3);
        sync_trace::set_enabled(true);
        pool.run(5, &|_| {});
        sync_trace::set_enabled(false);
        let trace = sync_trace::drain();
        assert!(
            trace.records.iter().all(|r| match r.event {
                sync_trace::SyncEvent::EpochPublish { pool: p, .. } => p != silent.id(),
                _ => true,
            }),
            "a pool used while recording was disabled left events"
        );
        let mine: Vec<_> = trace
            .records
            .iter()
            .filter(|r| match r.event {
                sync_trace::SyncEvent::EpochPublish { pool: p, .. }
                | sync_trace::SyncEvent::ClaimAcquire { pool: p, .. }
                | sync_trace::SyncEvent::FinishIndex { pool: p, .. }
                | sync_trace::SyncEvent::PoolJoin { pool: p, .. } => p == pool.id(),
                _ => false,
            })
            .collect();
        let claims: Vec<usize> = mine
            .iter()
            .filter_map(|r| match r.event {
                sync_trace::SyncEvent::ClaimAcquire { index, .. } => Some(index),
                _ => None,
            })
            .collect();
        let mut sorted = claims.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![0, 1, 2, 3, 4], "every index claimed once");
        let finishes = mine
            .iter()
            .filter(|r| matches!(r.event, sync_trace::SyncEvent::FinishIndex { .. }))
            .count();
        assert_eq!(finishes, 5);
        assert_eq!(
            mine.iter()
                .filter(|r| matches!(r.event, sync_trace::SyncEvent::EpochPublish { .. }))
                .count(),
            1
        );
        assert_eq!(
            mine.iter()
                .filter(|r| matches!(r.event, sync_trace::SyncEvent::PoolJoin { .. }))
                .count(),
            1
        );
    }

    #[test]
    fn stats_count_submissions_and_indices() {
        // The counters are process-global and other tests run concurrently,
        // so assert lower bounds on the deltas, not exact values.
        let before = stats::PoolStats::snapshot();
        let pool = Pool::new(4);
        pool.run(100, &|_| {});
        let serial = Pool::new(1);
        serial.run(10, &|_| {});
        let d = stats::PoolStats::snapshot().delta_since(&before);
        assert!(d.jobs >= 2);
        assert!(d.indices >= 110);
        assert!(d.parallel_jobs >= 1, "4-lane 100-index job uses workers");
        assert!(d.inline_small >= 1, "1-lane pool runs inline");
    }
}
