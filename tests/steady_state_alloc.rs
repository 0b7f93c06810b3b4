//! One steady-state PIPE-PsCG iteration allocates the reduction's payload —
//! the `Vec` the engine's `iallreduce` stores and its `wait` hands back —
//! and nothing else: the Gram packet, the scalar work, the recurrence pass
//! and the deep powers all run in buffers made before the loop.
//!
//! Measured as a difference: the same solve cut off after 9 and after 16
//! passes of its loop. Both make the same set-up and result allocations,
//! and the residual history's `Vec` does not grow in between (its capacity
//! is 16 from the ninth push on), so what is left is seven iterations'
//! worth. This binary holds exactly one test, so the counting allocator
//! sees the solver's allocations and nobody else's.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use pipescg::{MethodKind, SolveOptions, StopReason};
use pscg_precond::Jacobi;
use pscg_sim::{Context, SimCtx};
use pscg_sparse::stencil::{poisson3d_7pt, Grid3};

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
fn a_steady_state_pipe_pscg_iteration_allocates_only_its_reduction_payload() {
    // 20³ = 8000 rows: two row chunks, so the packet's per-chunk scratch
    // is in play.
    let a = poisson3d_7pt(Grid3::cube(20), None);
    let b = a.mul_vec(&vec![1.0; a.nrows()]);
    let s = 3;

    // What one posted-and-waited reduction costs on this engine.
    let per_reduction = {
        let mut ctx = SimCtx::serial(&a, Box::new(Jacobi::new(&a)));
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
        let mut ctx = SimCtx::serial(&a, Box::new(Jacobi::new(&a)));
        let mut opts = SolveOptions::with_rtol(1e-30).with_s(s);
        opts.max_iters = s * (passes - 1);
        let before = ALLOCATIONS.load(Ordering::Relaxed);
        let res = MethodKind::PipePscg.solve(&mut ctx, &b, None, &opts);
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
