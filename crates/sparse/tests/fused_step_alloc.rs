//! The fused recurrence pass and the stand-alone Gram packet kernel must
//! not touch the heap once their packet buffer has seen the vector length:
//! a per-call `Vec` of column views or partial sums would cost more than
//! the arithmetic at strong-scaled rank-local sizes. This binary holds
//! exactly one test, so the counting allocator sees the kernels'
//! allocations and nobody else's.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use pscg_par::Pool;
use pscg_sparse::dense::DenseMatrix;
use pscg_sparse::multivec::{
    fused_recurrence_step_with, gram_packet_with, GramPacketBuf, RecurrenceFamily,
};
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
fn fused_recurrence_step_and_gram_packet_do_not_allocate() {
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
    let (mut upow, mut rpow) = (block(2 * s + 1, 1), block(2 * s + 1, 3));
    let (mut udirs, mut rdirs) = (block(s, 5), block(s, 7));
    let (mut uapow, mut rapow) = (blocks(10), blocks(30));
    let mut packet = GramPacketBuf::new(s);
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
                        pow: &mut upow,
                        dirs: &mut udirs,
                        apow: &mut uapow,
                    },
                    RecurrenceFamily {
                        pow: &mut rpow,
                        dirs: &mut rdirs,
                        apow: &mut rapow,
                    },
                ],
                &b,
                &alpha,
                true,
                &mut packet,
            );
            gram_packet_with(&pool, &upow, &rpow, &udirs, &mut packet);
        };
        step(); // first use of the pool and of the packet's scratch
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
