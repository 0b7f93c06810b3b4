//! A thread-backed, MPI-like message-passing runtime.
//!
//! The reproduction environment has no MPI, so this module provides the
//! substrate the paper's implementation assumes: `P` ranks with private
//! memory (by convention — each thread only touches its own vectors),
//! point-to-point sends/receives for halo exchange, and blocking **and
//! non-blocking** sum-allreduces with the semantics of `MPI_Allreduce` /
//! `MPI_Iallreduce` + `MPI_Wait`:
//!
//! * every rank must call collectives in the same order (SPMD);
//! * a non-blocking reduction makes progress as soon as contributions
//!   arrive — a rank that posts early may compute while stragglers catch up;
//! * reduction order is **deterministic** (contributions are summed in rank
//!   order), so results are identical run to run and independent of thread
//!   scheduling.
//!
//! A waiting rank does not go to sleep first: it polls an atomic completion
//! hint (spin, then yield: the `SPIN_*` budgets) and parks on a condvar only
//! when the data is still missing after that budget, so a reduction or halo
//! message that arrives within microseconds costs no scheduler wake-up. The
//! authoritative state stays under one mutex per collective table and per
//! mailbox (DESIGN.md §9.5 has the protocol). Steady-state communication
//! allocates nothing except the `Vec` a reduction hands back. A rank that
//! panics poisons the world, so its peers stop waiting and [`run_spmd`]
//! re-raises the panic instead of hanging.
//!
//! [`RankCtx`] implements [`Context`] on top of this runtime, so the *same
//! solver code* that produces the scaling figures under [`SimCtx`] runs here
//! as a genuinely distributed program; integration tests assert the two
//! engines converge to the same solution.
//!
//! [`SimCtx`]: crate::context::SimCtx

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

use pscg_obs as obs;
use pscg_obs::SpanKind;
use pscg_sparse::partition::{halo_plan, HaloPlan, RowBlockPartition};
use pscg_sparse::{kernels, CsrMatrix};

use crate::context::{Context, OpCounters, ReduceHandle};
use crate::trace::LocalKind;

/// Polls a waiting rank makes with `spin_loop` pauses before it starts
/// yielding. Pausing alone is the fastest hand-off while every rank has a
/// core of its own.
const SPIN_PAUSES: u32 = 256;

/// Total polls (pauses, then `yield_now`s) before a waiting rank parks on
/// the condvar. The yields are what keep an oversubscribed world fast: with
/// 8192 pure pauses and no yield, `tests/cross_engine.rs` (up to p = 7 ranks
/// on 2 cores) ran 10× slower (0.012 s → 0.12 s), because a spinning waiter
/// holds the core the rank it waits for needs. On a 2-core host the whole
/// budget lasts 1.3–1.5 ms with one or two waiters, 5–8 ms with three.
const SPIN_POLLS: u32 = 4096;

/// Collectives a world can have in flight before its table grows. Only a
/// rank's own unwaited posts keep one open, so the solvers need two or three.
const AR_SLOTS: usize = 8;

/// Messages each halo neighbour can have in flight in a mailbox before it
/// grows: at most two when the exchange is symmetric, because a rank cannot
/// send tag `t + 2` before receiving its neighbour's `t + 1`, which the
/// neighbour sends only after consuming `t`.
const HALO_DEPTH: usize = 2;

/// Locks one of the world's mutexes. Every assert under these locks runs
/// before the first write, so a rank that panics holding one leaves the
/// state as it was; the world's poison flag, not the mutex's, reports that
/// panic — with the rank that raised it.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Index of the first entry of `v` that `free` accepts; pushes `fresh()`
/// when none does. Entries are reused, so `v` only grows to its peak use.
fn free_slot<T>(v: &mut Vec<T>, free: impl Fn(&T) -> bool, fresh: impl FnOnce() -> T) -> usize {
    v.iter().position(free).unwrap_or_else(|| {
        v.push(fresh());
        v.len() - 1
    })
}

/// A condvar that counts its sleepers, so a notify with nobody parked costs
/// no futex syscall. `sleepers` is only touched under the paired mutex.
struct Bell {
    cv: Condvar,
    sleepers: AtomicUsize,
}

impl Bell {
    fn new() -> Self {
        Bell {
            cv: Condvar::new(),
            sleepers: AtomicUsize::new(0),
        }
    }

    /// Parks on the condvar; `g` guards the paired mutex.
    fn park<'a, T>(&self, g: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
        self.sleepers.fetch_add(1, Ordering::Relaxed);
        let g = self.cv.wait(g).unwrap_or_else(PoisonError::into_inner);
        self.sleepers.fetch_sub(1, Ordering::Relaxed);
        g
    }

    /// Wakes every sleeper; the caller holds the paired mutex.
    fn ring(&self) {
        if self.sleepers.load(Ordering::Relaxed) > 0 {
            self.cv.notify_all();
        }
    }
}

/// The spin-then-yield budget of one wait.
struct Backoff {
    polls: u32,
}

impl Backoff {
    fn new() -> Self {
        Backoff { polls: 0 }
    }

    fn exhausted(&self) -> bool {
        self.polls >= SPIN_POLLS
    }

    /// Polls `hint` until it holds, a peer has panicked or the budget is
    /// spent.
    fn spin(&mut self, world: &World, hint: impl Fn() -> bool) {
        while !self.exhausted() && !hint() && !world.poisoned() {
            if self.polls < SPIN_PAUSES {
                std::hint::spin_loop();
            } else {
                std::thread::yield_now();
            }
            self.polls += 1;
        }
    }
}

/// One collective in flight. The buffers are the `Vec`s the posting ranks
/// allocated; they come back as the results, so the table itself never
/// allocates after the world is built.
struct ArSlot {
    seq: u64,
    /// Contributions by rank; once all are in, each holds the sums.
    bufs: Vec<Option<Vec<f64>>>,
    len: usize,
    /// Contributions deposited; 0 marks a free slot.
    posted: usize,
    /// Results handed back.
    taken: usize,
}

impl ArSlot {
    fn new(p: usize) -> Self {
        ArSlot {
            seq: 0,
            bufs: (0..p).map(|_| None).collect(),
            len: 0,
            posted: 0,
            taken: 0,
        }
    }
}

/// One buffered point-to-point message. The slot keeps its source and its
/// storage after delivery, so that neighbour's next message reuses both.
struct Message {
    src: usize,
    tag: u64,
    full: bool,
    data: Vec<f64>,
}

struct Mailbox {
    inbox: Mutex<Vec<Message>>,
    bell: Bell,
    /// Messages ever delivered here: the hint a waiting receiver polls.
    arrivals: AtomicU64,
}

/// The shared communication world for `p` ranks.
pub struct World {
    p: usize,
    ar: Mutex<Vec<ArSlot>>,
    ar_bell: Bell,
    /// Collectives completed. They complete in sequence order — the last
    /// post of `seq` means every rank has posted everything before it — so
    /// `ar_done > seq` is the hint that `seq` is done. Like `arrivals`, it
    /// is written under the mutex and read `Relaxed`: it publishes no data,
    /// because a waiter reads the state it hints at under the mutex.
    ar_done: AtomicU64,
    mail: Vec<Mailbox>,
    /// `1 + rank` of the first rank that panicked, 0 while none has.
    poison: AtomicUsize,
}

impl World {
    /// Creates a world of `p` ranks.
    pub fn new(p: usize) -> Self {
        assert!(p > 0, "world needs at least one rank");
        World {
            p,
            ar: Mutex::new((0..AR_SLOTS).map(|_| ArSlot::new(p)).collect()),
            ar_bell: Bell::new(),
            ar_done: AtomicU64::new(0),
            mail: (0..p)
                .map(|_| Mailbox {
                    inbox: Mutex::new(Vec::new()),
                    bell: Bell::new(),
                    arrivals: AtomicU64::new(0),
                })
                .collect(),
            poison: AtomicUsize::new(0),
        }
    }

    /// Number of ranks.
    pub fn nranks(&self) -> usize {
        self.p
    }

    fn poisoned(&self) -> bool {
        self.poison.load(Ordering::Relaxed) != 0
    }

    /// Panics if a peer rank has panicked: the collective or message this
    /// rank waits for may never come.
    #[expect(clippy::panic, reason = "waiting on a dead peer would hang")]
    fn check_peers(&self) {
        let origin = self.poison.load(Ordering::Relaxed);
        if origin != 0 {
            panic!("peer rank {} panicked", origin - 1);
        }
    }

    /// Records that `rank` panicked (the first such rank is kept) and wakes
    /// every parked rank so it can see it. Runs during unwinding, so it must
    /// not panic itself.
    fn poison(&self, rank: usize) {
        let _ = self
            .poison
            .compare_exchange(0, rank + 1, Ordering::Relaxed, Ordering::Relaxed);
        {
            let _g = lock(&self.ar);
            self.ar_bell.cv.notify_all();
        }
        for mb in &self.mail {
            let _g = lock(&mb.inbox);
            mb.bell.cv.notify_all();
        }
    }

    /// The rank that panicked first, if any.
    fn panicked_rank(&self) -> Option<usize> {
        self.poison.load(Ordering::Relaxed).checked_sub(1)
    }

    /// Deposits this rank's contribution to collective `seq`; does not
    /// block. `vals` becomes the buffer the result is returned in.
    fn ar_post(&self, seq: u64, rank: usize, vals: Vec<f64>) {
        let mut slots = lock(&self.ar);
        let live = slots.iter().position(|s| s.posted > 0 && s.seq == seq);
        let i = live.unwrap_or_else(|| {
            let i = free_slot(&mut slots, |s| s.posted == 0, || ArSlot::new(self.p));
            slots[i].seq = seq;
            slots[i].len = vals.len();
            i
        });
        let slot = &mut slots[i];
        assert!(
            slot.bufs[rank].is_none(),
            "rank {rank} double-posted collective {seq}"
        );
        assert_eq!(slot.len, vals.len(), "mismatched allreduce payload lengths");
        slot.bufs[rank] = Some(vals);
        slot.posted += 1;
        if slot.posted == self.p {
            // Deterministic combine: each element summed in rank order from
            // 0.0, then written back to every rank's buffer.
            for k in 0..slot.len {
                let mut acc = 0.0f64;
                for b in slot.bufs.iter().flatten() {
                    acc += b[k];
                }
                for b in slot.bufs.iter_mut().flatten() {
                    b[k] = acc;
                }
            }
            debug_assert_eq!(self.ar_done.load(Ordering::Relaxed), seq);
            self.ar_done.store(seq + 1, Ordering::Relaxed);
            self.ar_bell.ring();
        }
    }

    /// Blocks until collective `seq` completes; returns the global sums.
    fn ar_wait(&self, seq: u64, rank: usize) -> Vec<f64> {
        let p = self.p;
        let mut backoff = Backoff::new();
        let mut slots = lock(&self.ar);
        loop {
            if let Some(slot) = slots
                .iter_mut()
                .find(|s| s.posted == p && s.seq == seq && s.bufs[rank].is_some())
            {
                let out = slot.bufs[rank].take().unwrap_or_default();
                slot.taken += 1;
                if slot.taken == p {
                    slot.posted = 0;
                    slot.taken = 0;
                }
                return out;
            }
            self.check_peers();
            if backoff.exhausted() {
                slots = self.ar_bell.park(slots);
            } else {
                drop(slots);
                backoff.spin(self, || self.ar_done.load(Ordering::Relaxed) > seq);
                slots = lock(&self.ar);
            }
        }
    }

    /// Reserves room in `dst`'s mailbox for the messages `src` keeps in
    /// flight to it, `len` values each, so the exchange allocates nothing.
    fn reserve(&self, dst: usize, src: usize, len: usize) {
        let mut inbox = lock(&self.mail[dst].inbox);
        for _ in 0..HALO_DEPTH {
            inbox.push(Message {
                src,
                tag: 0,
                full: false,
                data: Vec::with_capacity(len),
            });
        }
    }

    /// Sends `data` to `dst` under `(src, tag)`; non-blocking (buffered).
    pub fn send(&self, src: usize, dst: usize, tag: u64, data: &[f64]) {
        let mb = &self.mail[dst];
        let mut inbox = lock(&mb.inbox);
        assert!(
            !inbox.iter().any(|m| m.full && m.src == src && m.tag == tag),
            "duplicate message (src {src}, tag {tag}) to {dst}"
        );
        let reserved = inbox.iter().position(|m| !m.full && m.src == src);
        let i = reserved.unwrap_or_else(|| {
            let fresh = || Message {
                src,
                tag,
                full: false,
                data: Vec::new(),
            };
            free_slot(&mut inbox, |m| !m.full, fresh)
        });
        let m = &mut inbox[i];
        m.src = src;
        m.tag = tag;
        m.full = true;
        m.data.clear();
        m.data.extend_from_slice(data);
        mb.arrivals.fetch_add(1, Ordering::Relaxed);
        mb.bell.ring();
    }

    /// Receives the message sent to `me` by `src` under `tag` into `out`,
    /// whose length must match; blocks.
    pub fn recv(&self, me: usize, src: usize, tag: u64, out: &mut [f64]) {
        let mb = &self.mail[me];
        let mut backoff = Backoff::new();
        let mut inbox = lock(&mb.inbox);
        loop {
            if let Some(m) = inbox
                .iter_mut()
                .find(|m| m.full && m.src == src && m.tag == tag)
            {
                assert_eq!(
                    m.data.len(),
                    out.len(),
                    "message (src {src}, tag {tag}) to {me} has the wrong length"
                );
                out.copy_from_slice(&m.data);
                m.full = false;
                return;
            }
            self.check_peers();
            if backoff.exhausted() {
                inbox = mb.bell.park(inbox);
            } else {
                // Read under the lock: every later delivery bumps it.
                let seen = mb.arrivals.load(Ordering::Relaxed);
                drop(inbox);
                backoff.spin(self, || mb.arrivals.load(Ordering::Relaxed) != seen);
                inbox = lock(&mb.inbox);
            }
        }
    }
}

/// A rank's endpoint: its id plus per-rank collective sequencing.
pub struct Endpoint<'w> {
    world: &'w World,
    rank: usize,
    ar_seq: u64,
    p2p_tag: u64,
    /// Copies of this rank's contributions to posted-but-unwaited
    /// collectives, kept so [`Endpoint::peek_pending`] can model the
    /// read-before-wait bug class. `None` marks an entry free for reuse.
    posted: Vec<(Option<u64>, Vec<f64>)>,
}

impl<'w> Endpoint<'w> {
    /// Creates the endpoint for `rank`.
    pub fn new(world: &'w World, rank: usize) -> Self {
        assert!(rank < world.nranks());
        Endpoint {
            world,
            rank,
            ar_seq: 0,
            p2p_tag: 0,
            posted: Vec::new(),
        }
    }

    /// This rank's id.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Total ranks.
    pub fn nranks(&self) -> usize {
        self.world.nranks()
    }

    /// Deposits `vals` as this rank's contribution to the next collective.
    fn post(&mut self, vals: &[f64]) -> u64 {
        let seq = self.ar_seq;
        self.ar_seq += 1;
        self.world.ar_post(seq, self.rank, vals.to_vec());
        seq
    }

    /// Posts a non-blocking allreduce; returns its sequence number.
    pub fn iallreduce(&mut self, vals: &[f64]) -> u64 {
        let seq = self.post(vals);
        let i = free_slot(
            &mut self.posted,
            |(s, _)| s.is_none(),
            || (None, Vec::new()),
        );
        let (s, copy) = &mut self.posted[i];
        *s = Some(seq);
        copy.clear();
        copy.extend_from_slice(vals);
        seq
    }

    /// Waits for a posted allreduce.
    pub fn wait(&mut self, seq: u64) -> Vec<f64> {
        #[expect(clippy::expect_used, reason = "an unposted wait would hang")]
        let entry = self
            .posted
            .iter_mut()
            .find(|(s, _)| *s == Some(seq))
            .expect("wait on a collective this rank has not posted or has already waited");
        entry.0 = None;
        self.world.ar_wait(seq, self.rank)
    }

    /// This rank's **local** contribution to a pending collective — what a
    /// buggy solver sees when it reads a reduction before waiting. Genuinely
    /// rank-dependent on `P > 1`, which is the point.
    #[expect(clippy::expect_used, reason = "an unknown collective is a caller bug")]
    pub fn peek_pending(&self, seq: u64) -> Vec<f64> {
        self.posted
            .iter()
            .find(|(s, _)| *s == Some(seq))
            .map(|(_, v)| v.clone())
            .expect("peek of unknown or already-completed collective")
    }

    /// Blocking allreduce.
    pub fn allreduce(&mut self, vals: &[f64]) -> Vec<f64> {
        let seq = self.post(vals);
        self.world.ar_wait(seq, self.rank)
    }

    /// Barrier: an empty allreduce.
    pub fn barrier(&mut self) {
        self.allreduce(&[]);
    }

    /// Fresh point-to-point tag, advanced identically on all ranks as long
    /// as they call the same communication operations in the same order.
    pub fn next_tag(&mut self) -> u64 {
        let t = self.p2p_tag;
        self.p2p_tag += 1;
        t
    }

    /// Sends a copy of `data` to `dst` with an explicit tag.
    pub fn send(&self, dst: usize, tag: u64, data: &[f64]) {
        self.world.send(self.rank, dst, tag, data);
    }

    /// Receives from `src` with an explicit tag into `out`, which must have
    /// the message's length.
    pub fn recv(&self, src: usize, tag: u64, out: &mut [f64]) {
        self.world.recv(self.rank, src, tag, out);
    }
}

/// Poisons the world when its rank's thread unwinds.
struct PoisonOnPanic<'w> {
    world: &'w World,
    rank: usize,
}

impl Drop for PoisonOnPanic<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.world.poison(self.rank);
        }
    }
}

/// Runs `f(rank)` on `p` scoped threads and collects the results in rank
/// order. A panic in any rank propagates: the first rank to panic poisons
/// the world, every rank waiting on a peer panics with "peer rank N
/// panicked" instead of hanging, and the first panic is re-raised here.
pub fn run_spmd<R, F>(p: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize, &World) -> R + Sync,
{
    let world = World::new(p);
    let joined: Vec<std::thread::Result<R>> = std::thread::scope(|scope| {
        let world = &world;
        let f = &f;
        let handles: Vec<_> = (0..p)
            .map(|rank| {
                scope.spawn(move || {
                    let _guard = PoisonOnPanic { world, rank };
                    f(rank, world)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join()).collect()
    });
    let origin = world.panicked_rank();
    let mut first_panic = None;
    let mut out = Vec::with_capacity(p);
    for (rank, r) in joined.into_iter().enumerate() {
        match r {
            Ok(v) => out.push(v),
            Err(payload) if first_panic.is_none() || origin == Some(rank) => {
                first_panic = Some(payload);
            }
            Err(_) => {}
        }
    }
    if let Some(payload) = first_panic {
        std::panic::resume_unwind(payload);
    }
    out
}

/// Local preconditioners available to the distributed engine. (Global
/// preconditioners — multigrid and friends — run under the sim engine; the
/// thread engine supports the processor-local ones, which is also what
/// PETSc's defaults do for `PCJACOBI`.)
pub enum LocalPc {
    /// No preconditioning (`u = r`).
    None,
    /// Pointwise Jacobi with the local slice of `diag(A)⁻¹`.
    Jacobi(Vec<f64>),
}

/// One rank of the distributed solver engine; implements [`Context`] over
/// the thread runtime.
pub struct RankCtx<'w, 'a> {
    ep: Endpoint<'w>,
    a: &'a CsrMatrix,
    lo: usize,
    hi: usize,
    plan: pscg_sparse::partition::RankPlan,
    pc: LocalPc,
    /// Global-length gather buffer for SpMV inputs. Only the owned window
    /// and the ghost entries named in the halo plan are ever written or
    /// read, so the communication volume is the true halo volume; the full
    /// allocation just keeps global column indexing simple.
    xbuf: Vec<f64>,
    /// Per-neighbour halo buffers, in `plan.send` / `plan.recv` order.
    sendbuf: Vec<Vec<f64>>,
    recvbuf: Vec<Vec<f64>>,
    counters: OpCounters,
}

impl<'w, 'a> RankCtx<'w, 'a> {
    /// Builds the context for `rank` of `p` over matrix `a`.
    pub fn new(
        world: &'w World,
        rank: usize,
        a: &'a CsrMatrix,
        part: &RowBlockPartition,
        full_plan: &HaloPlan,
        pc: LocalPc,
    ) -> Self {
        let (lo, hi) = part.range(rank);
        if let LocalPc::Jacobi(d) = &pc {
            assert_eq!(d.len(), hi - lo, "Jacobi diagonal must be the local slice");
        }
        let plan = full_plan.ranks[rank].clone();
        for (src, cols) in &plan.recv {
            world.reserve(rank, *src, cols.len());
        }
        RankCtx {
            ep: Endpoint::new(world, rank),
            a,
            lo,
            hi,
            sendbuf: plan.send.iter().map(|(_, r)| vec![0.0; r.len()]).collect(),
            recvbuf: plan.recv.iter().map(|(_, c)| vec![0.0; c.len()]).collect(),
            plan,
            pc,
            xbuf: vec![0.0; a.ncols()],
            counters: OpCounters::default(),
        }
    }

    /// Convenience: builds the partition, halo plan and per-rank Jacobi
    /// slices for `p` ranks — everything `run_spmd` callers need.
    pub fn prepare(a: &CsrMatrix, p: usize) -> (RowBlockPartition, HaloPlan) {
        let part = RowBlockPartition::balanced(a.nrows(), p);
        let plan = halo_plan(a, &part);
        (part, plan)
    }

    /// The local row range `[lo, hi)`.
    pub fn local_range(&self) -> (usize, usize) {
        (self.lo, self.hi)
    }
}

impl Context for RankCtx<'_, '_> {
    fn nrows(&self) -> usize {
        self.a.nrows()
    }

    fn vec_len(&self) -> usize {
        self.hi - self.lo
    }

    fn rank(&self) -> usize {
        self.ep.rank()
    }

    fn nranks(&self) -> usize {
        self.ep.nranks()
    }

    fn matrix_nnz(&self) -> usize {
        self.a.nnz()
    }

    fn pc_cost_rates(&self) -> (f64, f64) {
        match &self.pc {
            LocalPc::None => (0.0, 0.0),
            // The Jacobi apply's declared cost (see `pscg_precond::Jacobi`).
            LocalPc::Jacobi(_) => (1.0, 24.0),
        }
    }

    fn spmv(&mut self, x: &[f64], y: &mut [f64]) {
        let _sp = obs::span(SpanKind::Spmv);
        assert_eq!(x.len(), self.vec_len());
        assert_eq!(y.len(), self.vec_len());
        // Halo exchange: push our values that neighbours need, pull ghosts.
        let tag = self.ep.next_tag();
        self.xbuf[self.lo..self.hi].copy_from_slice(x);
        for ((dst, rows), buf) in self.plan.send.iter().zip(&mut self.sendbuf) {
            for (b, &g) in buf.iter_mut().zip(rows) {
                *b = x[g - self.lo];
            }
            self.ep.send(*dst, tag, buf);
        }
        for ((src, cols), buf) in self.plan.recv.iter().zip(&mut self.recvbuf) {
            self.ep.recv(*src, tag, buf);
            for (&g, &v) in cols.iter().zip(buf.iter()) {
                self.xbuf[g] = v;
            }
        }
        self.a.spmv_rows(self.lo, self.hi, &self.xbuf, y);
        self.counters.spmv += 1;
    }

    fn pc_apply(&mut self, r: &[f64], u: &mut [f64]) {
        let _sp = obs::span(SpanKind::Pc);
        match &self.pc {
            LocalPc::None => u.copy_from_slice(r),
            LocalPc::Jacobi(d) => kernels::hadamard(d, r, u),
        }
        self.counters.pc += 1;
    }

    fn allreduce(&mut self, vals: &[f64]) -> Vec<f64> {
        let _sp = obs::span(SpanKind::Allreduce);
        self.counters.blocking_allreduce += 1;
        self.counters.reduced_doubles += vals.len() as u64;
        self.ep.allreduce(vals)
    }

    fn iallreduce(&mut self, vals: &[f64]) -> ReduceHandle {
        self.counters.nonblocking_allreduce += 1;
        self.counters.reduced_doubles += vals.len() as u64;
        let id = self.ep.iallreduce(vals);
        // Rank threads post and wait on their own thread, so the window
        // accounting in `pscg_obs` stays per-thread-correct here too.
        obs::span::window_open(id);
        ReduceHandle { id }
    }

    fn wait(&mut self, h: ReduceHandle) -> Vec<f64> {
        let vals = self.ep.wait(h.id);
        obs::span::window_close(h.id);
        vals
    }

    fn peek_pending(&mut self, h: &ReduceHandle) -> Vec<f64> {
        self.ep.peek_pending(h.id)
    }

    fn charge_local(&mut self, kind: LocalKind, flops_per_row: f64, _bytes_per_row: f64) {
        let n = self.vec_len() as f64;
        match kind {
            LocalKind::Vma => self.counters.vma_flops += flops_per_row * n,
            LocalKind::Dot => self.counters.dot_flops += flops_per_row * n,
        }
    }

    fn charge_scalar(&mut self, flops: f64) {
        self.counters.scalar_flops += flops;
    }

    fn note_residual(&mut self, _relres: f64) {}

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
    use pscg_sparse::stencil::{poisson3d_7pt, Grid3};

    #[test]
    fn allreduce_is_deterministic_sum_in_rank_order() {
        let sums = run_spmd(4, |rank, world| {
            let mut ep = Endpoint::new(world, rank);
            ep.allreduce(&[rank as f64, 1.0])
        });
        for s in sums {
            assert_eq!(s, vec![6.0, 4.0]);
        }
    }

    #[test]
    fn nonblocking_allreduce_overlaps() {
        let res = run_spmd(3, |rank, world| {
            let mut ep = Endpoint::new(world, rank);
            let h = ep.iallreduce(&[1.0]);
            // "Useful work" between post and wait.
            let local: f64 = (0..1000).map(|i| (i * (rank + 1)) as f64).sum();
            let g = ep.wait(h);
            (g[0], local)
        });
        for (g, _) in res {
            assert_eq!(g, 3.0);
        }
    }

    #[test]
    fn peek_pending_is_rank_local_not_reduced() {
        let res = run_spmd(3, |rank, world| {
            let mut ep = Endpoint::new(world, rank);
            let h = ep.iallreduce(&[rank as f64 + 1.0]);
            let peeked = ep.peek_pending(h)[0];
            let reduced = ep.wait(h)[0];
            (peeked, reduced)
        });
        for (rank, (peeked, reduced)) in res.into_iter().enumerate() {
            // The peeked value is this rank's contribution — silently wrong
            // to compute with — while the waited value is the global sum.
            assert_eq!(peeked, rank as f64 + 1.0);
            assert_eq!(reduced, 6.0);
        }
    }

    #[test]
    fn sequence_of_collectives_matches_across_ranks() {
        let res = run_spmd(2, |rank, world| {
            let mut ep = Endpoint::new(world, rank);
            let a = ep.allreduce(&[1.0])[0];
            let h1 = ep.iallreduce(&[2.0]);
            let h2 = ep.iallreduce(&[10.0 * (rank + 1) as f64]);
            let b = ep.wait(h2)[0];
            let c = ep.wait(h1)[0];
            (a, b, c)
        });
        for (a, b, c) in res {
            assert_eq!((a, b, c), (2.0, 30.0, 4.0));
        }
    }

    #[test]
    fn p2p_send_recv_roundtrip() {
        let res = run_spmd(2, |rank, world| {
            let mut ep = Endpoint::new(world, rank);
            let tag = ep.next_tag();
            let peer = 1 - rank;
            ep.send(peer, tag, &[rank as f64; 3]);
            let mut got = vec![0.0; 3];
            ep.recv(peer, tag, &mut got);
            got
        });
        assert_eq!(res[0], vec![1.0; 3]);
        assert_eq!(res[1], vec![0.0; 3]);
    }

    #[test]
    fn more_collectives_in_flight_than_the_table_holds() {
        // Every rank posts 3 × AR_SLOTS reductions before waiting any, in
        // reverse order: the table grows and every sum is still right.
        let n = 3 * AR_SLOTS;
        let res = run_spmd(3, |rank, world| {
            let mut ep = Endpoint::new(world, rank);
            let hs: Vec<u64> = (0..n)
                .map(|k| ep.iallreduce(&[(k * (rank + 1)) as f64]))
                .collect();
            hs.iter().rev().map(|&h| ep.wait(h)[0]).collect::<Vec<_>>()
        });
        for sums in res {
            let expect: Vec<f64> = (0..n).rev().map(|k| (6 * k) as f64).collect();
            assert_eq!(sums, expect);
        }
    }

    #[test]
    fn a_rank_that_arrives_past_the_spin_budget_is_waited_for_on_the_condvar() {
        // Rank 0 sleeps 5 ms — far past the ~µs-to-ms spin and yield budget —
        // before each of its posts and sends, so its peers take the park
        // path on the collective table and on their mailboxes.
        let res = run_spmd(3, |rank, world| {
            let mut ep = Endpoint::new(world, rank);
            let mut out = Vec::new();
            for round in 0..3 {
                if rank == 0 {
                    std::thread::sleep(std::time::Duration::from_millis(5));
                }
                let h = ep.iallreduce(&[(rank + round) as f64, 1.0]);
                out.push(ep.allreduce(&[rank as f64])[0]);
                out.extend(ep.wait(h));
                let tag = ep.next_tag();
                let (next, prev) = ((rank + 1) % 3, (rank + 2) % 3);
                if rank == 0 {
                    std::thread::sleep(std::time::Duration::from_millis(5));
                }
                ep.send(next, tag, &[(10 * rank + round) as f64; 4]);
                let mut got = [0.0; 4];
                ep.recv(prev, tag, &mut got);
                out.push(got[3]);
            }
            out
        });
        for (rank, out) in res.into_iter().enumerate() {
            let prev = (rank + 2) % 3;
            let expect: Vec<f64> = (0..3)
                .flat_map(|round| {
                    let r = round as f64;
                    [3.0, 3.0 + 3.0 * r, 3.0, (10 * prev) as f64 + r]
                })
                .collect();
            assert_eq!(out, expect, "rank {rank}");
        }
    }

    /// Runs `f` under `run_spmd(2, …)` on a watchdog thread; returns the
    /// panic message `run_spmd` re-raised, or fails if it hung for 3 s.
    fn panics_within_watchdog<F>(f: F) -> String
    where
        F: Fn(usize, &mut Endpoint<'_>) + Send + Sync + 'static,
    {
        let (tx, rx) = std::sync::mpsc::channel();
        let watched = std::thread::spawn(move || {
            let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                run_spmd(2, |rank, world| f(rank, &mut Endpoint::new(world, rank)))
            }));
            let msg = match r {
                Ok(_) => String::from("run_spmd returned normally"),
                Err(p) => p
                    .downcast_ref::<&str>()
                    .map(|s| s.to_string())
                    .or_else(|| p.downcast_ref::<String>().cloned())
                    .unwrap_or_default(),
            };
            let _ = tx.send(msg);
        });
        let msg = rx
            .recv_timeout(std::time::Duration::from_secs(3))
            .expect("run_spmd hung after a rank panicked");
        watched
            .join()
            .expect("the watchdog thread catches the panic");
        msg
    }

    #[test]
    fn a_rank_panic_releases_a_peer_in_a_blocking_allreduce() {
        let msg = panics_within_watchdog(|rank, ep| {
            if rank == 1 {
                panic!("rank 1 fails before its first collective");
            }
            ep.allreduce(&[1.0]);
        });
        assert_eq!(msg, "rank 1 fails before its first collective");
    }

    #[test]
    fn a_rank_panic_releases_a_peer_in_a_nonblocking_wait() {
        let msg = panics_within_watchdog(|rank, ep| {
            let h = ep.iallreduce(&[1.0]);
            if rank == 1 {
                panic!("rank 1 fails with a reduction in flight");
            }
            ep.iallreduce(&[2.0]);
            ep.wait(h);
            let h2 = ep.iallreduce(&[3.0]);
            ep.wait(h2);
        });
        assert_eq!(msg, "rank 1 fails with a reduction in flight");
    }

    #[test]
    fn a_rank_panic_releases_a_peer_in_a_halo_recv() {
        let msg = panics_within_watchdog(|rank, ep| {
            let tag = ep.next_tag();
            if rank == 0 {
                panic!("rank 0 fails before sending its halo");
            }
            let mut got = [0.0; 2];
            ep.recv(0, tag, &mut got);
        });
        assert_eq!(msg, "rank 0 fails before sending its halo");
    }

    #[test]
    fn a_waiting_peer_reports_which_rank_panicked() {
        let seen = Mutex::new(String::new());
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_spmd(2, |rank, world| {
                let mut ep = Endpoint::new(world, rank);
                if rank == 1 {
                    panic!("rank 1 fails");
                }
                let e = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    ep.allreduce(&[1.0]);
                }))
                .expect_err("the allreduce cannot complete");
                *seen.lock().unwrap() = e.downcast_ref::<String>().cloned().unwrap_or_default();
            })
        }));
        assert!(r.is_err());
        assert_eq!(*seen.lock().unwrap(), "peer rank 1 panicked");
    }

    #[test]
    fn distributed_spmv_matches_serial() {
        let g = Grid3::new(4, 4, 6);
        let a = poisson3d_7pt(g, None);
        let n = a.nrows();
        let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin()).collect();
        let expect = a.mul_vec(&x);
        for p in [1usize, 2, 3, 5] {
            let (part, plan) = RankCtx::prepare(&a, p);
            let pieces = run_spmd(p, |rank, world| {
                let mut ctx = RankCtx::new(world, rank, &a, &part, &plan, LocalPc::None);
                let (lo, hi) = ctx.local_range();
                let xl = x[lo..hi].to_vec();
                let mut yl = vec![0.0; hi - lo];
                ctx.spmv(&xl, &mut yl);
                yl
            });
            let got: Vec<f64> = pieces.into_iter().flatten().collect();
            assert_eq!(got, expect, "p = {p}");
        }
    }

    #[test]
    fn distributed_dot_matches_serial_to_roundoff() {
        let n = 1000;
        let x: Vec<f64> = (0..n).map(|i| (i as f64).cos()).collect();
        let serial: f64 = x.iter().map(|v| v * v).sum();
        for p in [2usize, 4, 7] {
            let part = RowBlockPartition::balanced(n, p);
            let sums = run_spmd(p, |rank, world| {
                let mut ep = Endpoint::new(world, rank);
                let (lo, hi) = part.range(rank);
                let local = kernels::dot(&x[lo..hi], &x[lo..hi]);
                ep.allreduce(&[local])[0]
            });
            for s in sums {
                assert!((s - serial).abs() < 1e-9 * serial.abs());
            }
        }
    }
}
