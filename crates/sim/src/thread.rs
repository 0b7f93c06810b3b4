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
//! [`RankCtx`] implements [`Context`] on top of this runtime, so the *same
//! solver code* that produces the scaling figures under [`SimCtx`] runs here
//! as a genuinely distributed program; integration tests assert the two
//! engines converge to the same solution.
//!
//! [`SimCtx`]: crate::context::SimCtx

use std::collections::HashMap;
use std::sync::{Condvar, Mutex};

use pscg_obs as obs;
use pscg_obs::SpanKind;
use pscg_sparse::partition::{halo_plan, HaloPlan, RowBlockPartition};
use pscg_sparse::{kernels, CsrMatrix};

use crate::context::{Context, OpCounters, ReduceHandle};
use crate::trace::LocalKind;

/// State of one collective operation, keyed by sequence number.
struct ArEntry {
    contribs: Vec<Option<Vec<f64>>>,
    ndeposited: usize,
    result: Option<Vec<f64>>,
    nread: usize,
}

#[derive(Default)]
struct ArState {
    ops: HashMap<u64, ArEntry>,
}

struct Mailbox {
    slots: Mutex<HashMap<(usize, u64), Vec<f64>>>,
    cv: Condvar,
}

/// The shared communication world for `p` ranks.
pub struct World {
    p: usize,
    ar: Mutex<ArState>,
    ar_cv: Condvar,
    mail: Vec<Mailbox>,
}

impl World {
    /// Creates a world of `p` ranks.
    pub fn new(p: usize) -> Self {
        assert!(p > 0, "world needs at least one rank");
        World {
            p,
            ar: Mutex::new(ArState::default()),
            ar_cv: Condvar::new(),
            mail: (0..p)
                .map(|_| Mailbox {
                    slots: Mutex::new(HashMap::new()),
                    cv: Condvar::new(),
                })
                .collect(),
        }
    }

    /// Number of ranks.
    pub fn nranks(&self) -> usize {
        self.p
    }

    /// Deposits this rank's contribution to collective `seq`; does not block.
    fn ar_post(&self, seq: u64, rank: usize, vals: &[f64]) {
        let mut st = self.ar.lock().unwrap();
        let entry = st.ops.entry(seq).or_insert_with(|| ArEntry {
            contribs: vec![None; self.p],
            ndeposited: 0,
            result: None,
            nread: 0,
        });
        // pscg-lint: allow(panic-in-hot-path, double-posting is an engine protocol bug; this assert is its detection oracle)
        assert!(
            entry.contribs[rank].is_none(),
            "rank {rank} double-posted collective {seq}"
        );
        entry.contribs[rank] = Some(vals.to_vec());
        entry.ndeposited += 1;
        if entry.ndeposited == self.p {
            // Deterministic combine: sum in rank order.
            let mut acc = vec![0.0f64; vals.len()];
            for c in entry.contribs.iter() {
                let c = c.as_ref().expect("all contributions present"); // pscg-lint: allow(panic-in-hot-path, ndeposited == p guarantees every contribution slot is filled)
                assert_eq!(c.len(), acc.len(), "mismatched allreduce payload lengths");
                for (a, v) in acc.iter_mut().zip(c) {
                    *a += v;
                }
            }
            entry.result = Some(acc);
            self.ar_cv.notify_all();
        }
    }

    /// Blocks until collective `seq` completes; returns the global sums.
    fn ar_wait(&self, seq: u64) -> Vec<f64> {
        let mut st = self.ar.lock().unwrap();
        loop {
            if st.ops.get(&seq).and_then(|e| e.result.as_ref()).is_some() {
                break;
            }
            st = self.ar_cv.wait(st).unwrap();
        }
        let entry = st.ops.get_mut(&seq).unwrap(); // pscg-lint: allow(panic-in-hot-path, the wait loop above only exits once the entry and its result exist)
        let out = entry.result.clone().unwrap(); // pscg-lint: allow(panic-in-hot-path, the wait loop above only exits once the entry and its result exist)
        entry.nread += 1;
        if entry.nread == self.p {
            st.ops.remove(&seq);
        }
        out
    }

    /// Sends `data` to `dst` under `(src, tag)`; non-blocking (buffered).
    pub fn send(&self, src: usize, dst: usize, tag: u64, data: Vec<f64>) {
        let mb = &self.mail[dst];
        let mut slots = mb.slots.lock().unwrap();
        let prev = slots.insert((src, tag), data);
        assert!(
            prev.is_none(),
            "duplicate message (src {src}, tag {tag}) to {dst}"
        );
        mb.cv.notify_all();
    }

    /// Receives the message sent to `me` by `src` under `tag`; blocks.
    pub fn recv(&self, me: usize, src: usize, tag: u64) -> Vec<f64> {
        let mb = &self.mail[me];
        let mut slots = mb.slots.lock().unwrap();
        loop {
            if let Some(data) = slots.remove(&(src, tag)) {
                return data;
            }
            slots = mb.cv.wait(slots).unwrap();
        }
    }
}

/// A rank's endpoint: its id plus per-rank collective sequencing.
pub struct Endpoint<'w> {
    world: &'w World,
    rank: usize,
    ar_seq: u64,
    p2p_tag: u64,
    /// Local contributions of posted-but-unwaited collectives, kept so
    /// [`Endpoint::peek_pending`] can model the read-before-wait bug class.
    posted: HashMap<u64, Vec<f64>>,
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
            posted: HashMap::new(),
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

    /// Posts a non-blocking allreduce; returns its sequence number.
    pub fn iallreduce(&mut self, vals: &[f64]) -> u64 {
        let seq = self.ar_seq;
        self.ar_seq += 1;
        self.posted.insert(seq, vals.to_vec());
        self.world.ar_post(seq, self.rank, vals);
        seq
    }

    /// Waits for a posted allreduce.
    pub fn wait(&mut self, seq: u64) -> Vec<f64> {
        self.posted.remove(&seq);
        self.world.ar_wait(seq)
    }

    /// This rank's **local** contribution to a pending collective — what a
    /// buggy solver sees when it reads a reduction before waiting. Genuinely
    /// rank-dependent on `P > 1`, which is the point.
    pub fn peek_pending(&self, seq: u64) -> Vec<f64> {
        self.posted
            .get(&seq)
            .expect("peek of unknown or already-completed collective") // pscg-lint: allow(panic-in-hot-path, peeking an unknown collective is an engine API-contract bug, not a runtime fault)
            .clone()
    }

    /// Blocking allreduce.
    pub fn allreduce(&mut self, vals: &[f64]) -> Vec<f64> {
        let seq = self.iallreduce(vals);
        self.wait(seq)
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

    /// Sends to `dst` with an explicit tag.
    pub fn send(&self, dst: usize, tag: u64, data: Vec<f64>) {
        self.world.send(self.rank, dst, tag, data);
    }

    /// Receives from `src` with an explicit tag.
    pub fn recv(&self, src: usize, tag: u64) -> Vec<f64> {
        self.world.recv(self.rank, src, tag)
    }
}

/// Runs `f(rank)` on `p` scoped threads and collects the results in rank
/// order. Panics in any rank propagate.
pub fn run_spmd<R, F>(p: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize, &World) -> R + Sync,
{
    let world = World::new(p);
    let mut out: Vec<Option<R>> = (0..p).map(|_| None).collect();
    std::thread::scope(|scope| {
        let world = &world;
        let f = &f;
        let handles: Vec<_> = (0..p)
            .map(|rank| scope.spawn(move || f(rank, world)))
            .collect();
        for (slot, h) in out.iter_mut().zip(handles) {
            *slot = Some(h.join().expect("SPMD rank panicked")); // pscg-lint: allow(panic-in-hot-path, propagates a rank panic to the harness; masking would hide the failure)
        }
    });
    out.into_iter().map(|r| r.unwrap()).collect() // pscg-lint: allow(panic-in-hot-path, every slot is filled by the join loop above)
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
        RankCtx {
            ep: Endpoint::new(world, rank),
            a,
            lo,
            hi,
            plan: full_plan.ranks[rank].clone(),
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
        for (dst, rows) in &self.plan.send {
            let data: Vec<f64> = rows.iter().map(|&g| x[g - self.lo]).collect();
            self.ep.send(*dst, tag, data);
        }
        for (src, cols) in &self.plan.recv {
            let data = self.ep.recv(*src, tag);
            debug_assert_eq!(data.len(), cols.len());
            for (&g, v) in cols.iter().zip(data) {
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
            ep.send(peer, tag, vec![rank as f64; 3]);
            ep.recv(peer, tag)
        });
        assert_eq!(res[0], vec![1.0; 3]);
        assert_eq!(res[1], vec![0.0; 3]);
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
