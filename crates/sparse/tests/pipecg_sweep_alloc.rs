//! The fused PIPECG pass and its set-up dots run once per iteration of a
//! solve; they must not touch the heap. This binary holds exactly one
//! test, so the counting allocator sees the kernels' allocations and
//! nobody else's.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use pscg_sparse::kernels::{dots_ruw, pipecg_sweep, PipecgVectors};

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
fn pipecg_sweep_and_setup_dots_do_not_allocate() {
    let n = 3 * 4096 + 5;
    let mut v: Vec<Vec<f64>> = (0..10)
        .map(|k| {
            (0..n)
                .map(|i| ((i * 31 + k * 17) % 101) as f64 * 0.01 - 0.5)
                .collect()
        })
        .collect();
    let [x, r, u, w, m, nv, z, q, s, p] = &mut v[..] else {
        unreachable!("ten vectors");
    };
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let mut sink = dots_ruw(r, u, w);
    for _ in 0..3 {
        let mut vecs = PipecgVectors {
            x,
            r,
            u,
            w,
            m,
            n: nv,
            z,
            q,
            s,
            p,
        };
        sink = pipecg_sweep(&mut vecs, 0.01, 0.5);
    }
    let during = ALLOCATIONS.load(Ordering::Relaxed) - before;
    assert!(sink.iter().all(|d| d.is_finite()));
    assert_eq!(during, 0, "{during} allocation(s) in 4 calls");
}
