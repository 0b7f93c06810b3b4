//! The fused recurrence pass must not touch the heap: a per-call `Vec` of
//! column views would cost more than the arithmetic at strong-scaled
//! rank-local sizes. This binary holds exactly one test, so the counting
//! allocator sees the kernel's allocations and nobody else's.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use pscg_par::Pool;
use pscg_sparse::dense::DenseMatrix;
use pscg_sparse::multivec::{fused_recurrence_step_with, RecurrenceFamily};
use pscg_sparse::MultiVector;

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
fn fused_recurrence_step_does_not_allocate() {
    // Both families at s = 3 over three and a bit row chunks, so the
    // two-thread pool really dispatches.
    let (n, s) = (3 * 4096 + 5, 3);
    let block = |ncols: usize, seed: usize| {
        let mut m = MultiVector::zeros(n, ncols);
        for (i, v) in m.data_mut().iter_mut().enumerate() {
            *v = ((i * 31 + seed * 17) % 101) as f64 * 0.01 - 0.5;
        }
        m
    };
    let blocks = |seed: usize| (0..=s).map(|w| block(s, seed + w)).collect::<Vec<_>>();
    let (upow, mut upow_next) = (block(2 * s + 1, 1), block(2 * s + 1, 2));
    let (rpow, mut rpow_next) = (block(2 * s + 1, 3), block(2 * s + 1, 4));
    let (udirs, mut udirs_next) = (block(s, 5), block(s, 6));
    let (rdirs, mut rdirs_next) = (block(s, 7), block(s, 8));
    let (uapow, mut uapow_next) = (blocks(10), blocks(20));
    let (rapow, mut rapow_next) = (blocks(30), blocks(40));
    let mut b = DenseMatrix::zeros(s, s);
    for i in 0..s {
        for j in 0..s {
            b.set(i, j, 0.1 * (1 + i + 2 * j) as f64);
        }
    }
    let alpha = [0.3, -0.2, 0.1];

    for threads in [1, 2] {
        let pool = Pool::new(threads);
        let mut step = || {
            fused_recurrence_step_with(
                &pool,
                &mut [
                    RecurrenceFamily {
                        pow: &upow,
                        pow_next: &mut upow_next,
                        dirs: &udirs,
                        dirs_next: &mut udirs_next,
                        apow: &uapow,
                        apow_next: &mut uapow_next,
                    },
                    RecurrenceFamily {
                        pow: &rpow,
                        pow_next: &mut rpow_next,
                        dirs: &rdirs,
                        dirs_next: &mut rdirs_next,
                        apow: &rapow,
                        apow_next: &mut rapow_next,
                    },
                ],
                &b,
                &alpha,
                true,
            )
        };
        step(); // first use of the pool
        let before = ALLOCATIONS.load(Ordering::Relaxed);
        for _ in 0..3 {
            step();
        }
        let during = ALLOCATIONS.load(Ordering::Relaxed) - before;
        assert_eq!(
            during, 0,
            "{during} allocation(s) in 3 calls at {threads} thread(s)"
        );
    }
}
