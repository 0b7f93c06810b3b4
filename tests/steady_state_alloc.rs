//! A steady-state iteration allocates the reductions' payloads — the `Vec`
//! each completed collective hands back — and nothing else, on both
//! engines:
//!
//! * serial (`SimCtx`): one PIPE-PsCG iteration allocates its reduction's
//!   payload and nothing else: the Gram packet, the scalar work, the
//!   recurrence pass and the deep powers all run in buffers made before the
//!   loop;
//! * thread-backed ranks (`RankCtx` under `run_spmd(2, …)`): PCG and
//!   PIPE-PsCG allocate exactly one `Vec` per completed collective per rank,
//!   and nothing per SpMV and halo exchange — the runtime reuses its
//!   collective table, its mailboxes and the per-neighbour halo buffers.
//!
//! Measured as a difference: the same solve cut off after a short and a
//! long run of its loop. Both make the same set-up and result allocations,
//! and the residual history's `Vec` does not grow in between (its capacity
//! is 16 from the ninth push on), so what is left is the extra iterations'
//! worth. This binary holds exactly one test, so the counting allocator
//! sees the solvers' allocations and nobody else's.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use pipescg::{MethodKind, SolveOptions, StopReason};
use pscg_precond::Jacobi;
use pscg_sim::thread::{run_spmd, LocalPc, RankCtx};
use pscg_sim::{Context, SimCtx};
use pscg_sparse::stencil::{poisson3d_7pt, Grid3};
use pscg_sparse::CsrMatrix;

struct Counting;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every call is delegated to `System` unchanged; the counter is a
// relaxed atomic that allocates nothing itself. `realloc` uses the trait's
// default, which goes through `alloc` and is therefore counted.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

#[test]
fn steady_state_iterations_allocate_only_their_reduction_payloads() {
    // 20³ = 8000 rows: two row chunks, so the packet's per-chunk scratch
    // is in play.
    let a = poisson3d_7pt(Grid3::cube(20), None);
    let b = a.mul_vec(&vec![1.0; a.nrows()]);
    serial_pipe_pscg(&a, &b);
    rank_engine(&a, &b);
}

fn serial_pipe_pscg(a: &CsrMatrix, b: &[f64]) {
    let s = 3;

    // What one posted-and-waited reduction costs on this engine.
    let per_reduction = {
        let mut ctx = SimCtx::serial(a, Box::new(Jacobi::new(a)));
        let payload = vec![1.0; 2 * s * s + 2 * s + 3];
        let h = ctx.iallreduce(&payload);
        drop(ctx.wait(h)); // first use sizes the engine's in-flight table
        let before = ALLOCATIONS.load(Ordering::Relaxed);
        let h = ctx.iallreduce(&payload);
        drop(ctx.wait(h));
        ALLOCATIONS.load(Ordering::Relaxed) - before
    };
    assert_eq!(per_reduction, 1, "the engine's payload copy");

    // Allocations of one whole solve that stops at the top of pass `passes`.
    let solve = |passes: usize| {
        let mut ctx = SimCtx::serial(a, Box::new(Jacobi::new(a)));
        let mut opts = SolveOptions::with_rtol(1e-30).with_s(s);
        opts.max_iters = s * (passes - 1);
        let before = ALLOCATIONS.load(Ordering::Relaxed);
        let res = MethodKind::PipePscg.solve(&mut ctx, b, None, &opts);
        let during = ALLOCATIONS.load(Ordering::Relaxed) - before;
        assert_eq!(
            (res.stop, res.history.len()),
            (StopReason::MaxIterations, passes)
        );
        during
    };
    solve(16); // first use of the pool
    let (short, long) = (solve(9), solve(16));
    assert_eq!(
        long - short,
        7 * per_reduction,
        "7 iterations allocated {} time(s), {} of them for reductions",
        long - short,
        7 * per_reduction
    );
}

fn rank_engine(a: &CsrMatrix, b: &[f64]) {
    const P: usize = 2;
    let (part, plan) = RankCtx::prepare(a, P);
    let inv_diag = Jacobi::new(a).inv_diag().to_vec();
    // One two-rank solve stopped after `max_iters` steps: its allocations,
    // its history length, and the collectives and SpMVs rank 0 completed.
    let solve = |method: MethodKind, max_iters: usize| {
        let mut opts = SolveOptions::with_rtol(1e-30).with_s(3);
        opts.max_iters = max_iters;
        let before = ALLOCATIONS.load(Ordering::Relaxed);
        let ranks = run_spmd(P, |rank, world| {
            let (lo, hi) = part.range(rank);
            let pc = LocalPc::Jacobi(inv_diag[lo..hi].to_vec());
            let mut ctx = RankCtx::new(world, rank, a, &part, &plan, pc);
            let res = method.solve(&mut ctx, &b[lo..hi], None, &opts);
            assert_eq!(res.stop, StopReason::MaxIterations, "{method:?}");
            let c = &res.counters;
            (
                res.history.len(),
                c.blocking_allreduce + c.nonblocking_allreduce,
                c.spmv,
            )
        });
        let during = ALLOCATIONS.load(Ordering::Relaxed) - before;
        assert!(ranks.iter().all(|r| *r == ranks[0]), "ranks disagree");
        (during, ranks[0])
    };
    for (method, short_iters, long_iters) in
        [(MethodKind::Pcg, 8, 15), (MethodKind::PipePscg, 24, 45)]
    {
        solve(method, long_iters); // first use of the pool and the row partition
        let (short, (short_hist, short_colls, short_spmvs)) = solve(method, short_iters);
        let (long, (long_hist, long_colls, long_spmvs)) = solve(method, long_iters);
        assert!(
            (9..=16).contains(&short_hist) && (9..=16).contains(&long_hist),
            "{method:?}: histories of {short_hist} and {long_hist} entries must share a capacity"
        );
        let collectives = (long_colls - short_colls) as usize;
        assert!(long_spmvs > short_spmvs);
        assert_eq!(
            long - short,
            P * collectives,
            "{method:?}: {} more SpMVs and {collectives} more collectives on each of {P} ranks \
             allocated {} time(s)",
            long_spmvs - short_spmvs,
            long - short
        );
    }
}
