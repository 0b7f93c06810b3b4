//! A multigrid apply must not touch the heap: the hierarchy owns every work
//! vector and the coarse solve writes into one of them. This binary holds
//! exactly one test, so the counting allocator sees the cycle's allocations
//! and nobody else's.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use pscg_precond::multigrid::{gamg, gmg};
use pscg_sparse::stencil::{poisson3d_7pt, Grid3};
use pscg_sparse::Operator;

struct Counting;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every call is delegated to `System` unchanged; the counter is a
// relaxed atomic that allocates nothing itself.
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
fn multigrid_apply_does_not_allocate() {
    // Chunks small enough that the two-thread pool really dispatches.
    pscg_par::knobs::set_spmv_chunk_nnz(1024);
    let g = Grid3::cube(16);
    let a = poisson3d_7pt(g, None);
    let n = a.nrows();
    let r: Vec<f64> = (0..n)
        .map(|i| ((i * 31 % 101) as f64) * 0.01 - 0.5)
        .collect();
    let mut u = vec![0.0; n];
    let mut pcs = [gmg(&a, g), gamg(&a)];
    for threads in [1, 2] {
        pscg_par::set_global_threads(threads);
        for pc in &mut pcs {
            assert!(pc.nlevels() >= 2, "{}: a single level", pc.name());
            pc.apply(&r, &mut u); // first use of the pool and of each row partition
            let before = ALLOCATIONS.load(Ordering::Relaxed);
            for _ in 0..10 {
                pc.apply(&r, &mut u);
            }
            let during = ALLOCATIONS.load(Ordering::Relaxed) - before;
            assert_eq!(
                during,
                0,
                "{}: {during} allocation(s) in 10 applies at {threads} thread(s)",
                pc.name()
            );
        }
    }
}
