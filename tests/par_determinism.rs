//! Determinism contract of the shared-memory kernel engine: every parallel
//! kernel must be **bitwise** identical to its serial evaluation at every
//! thread count, because chunk boundaries are functions of the shape and
//! the chunk knobs only — never of the pool width.
//!
//! The sweeps run on seeded random inputs ([`pscg_sparse::SplitMix64`]) over
//! ragged lengths chosen to straddle the chunk boundaries (the knobs are
//! pinned small here so even tiny inputs split into many chunks). Every
//! test function installs the *same* knob values, so the process-global
//! settings are race-free under the parallel test runner.
//!
//! The last test extends the contract to the fused in-place recurrence pass
//! of the pipelined s-step methods: whole solves through it must equal, bit
//! for bit and trace op for trace op, solves through the out-of-place
//! sequence and stand-alone Gram packet it replaced ([`common::Unfused`])
//! at every thread count. It is the only test here that resizes the
//! process-global pool.

mod common;

use std::alloc::{GlobalAlloc, Layout as AllocLayout, System};

use common::Unfused;
use pipescg::{MethodKind, SolveOptions, SolveResult, StopReason};
use pscg_par::{knobs, Pool};
use pscg_precond::Jacobi;
use pscg_sim::{Layout, MatrixProfile, Op, SimCtx};
use pscg_sparse::dense::DenseMatrix;
use pscg_sparse::stencil::{poisson3d_7pt, Grid3};
use pscg_sparse::{CooMatrix, CsrMatrix, MultiVector, SplitMix64};

/// The tracing engine names buffers by heap address (`BufId`), so whether
/// two vectors of one solve share an identity depends on which freed block
/// the allocator hands out next — on heap history, not on the solve. This
/// test binary never frees, so every allocation has an address of its own
/// and the `BufId`s of a trace follow from the order of engine calls alone;
/// comparing them between two solves is then a statement about the solver.
struct NeverReuse;

// SAFETY: allocation is delegated to `System` unchanged; not freeing is
// always sound (it leaks — the solves below are sized to keep that to a few
// hundred MB). `realloc` uses the trait's default, which goes through
// `alloc` and `dealloc` above.
unsafe impl GlobalAlloc for NeverReuse {
    unsafe fn alloc(&self, layout: AllocLayout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract, which
        // is `System.alloc`'s.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, _ptr: *mut u8, _layout: AllocLayout) {}
}

#[global_allocator]
static ALLOCATOR: NeverReuse = NeverReuse;

/// Thread counts the contract is checked at (including a prime, and more
/// lanes than the CI runner has cores).
const THREADS: [usize; 4] = [1, 2, 4, 7];

/// Row counts straddling the pinned chunk sizes below.
const LENGTHS: [usize; 13] = [1, 2, 3, 5, 17, 63, 64, 65, 129, 1000, 4095, 4096, 4097];

/// Pins the chunk knobs small enough that even the shortest sweeps split
/// into several chunks. Idempotent — every test installs the same values.
fn pin_knobs() {
    knobs::set_spmv_chunk_nnz(64);
    knobs::set_gram_chunk_rows(32);
}

fn random_vec(rng: &mut SplitMix64, n: usize) -> Vec<f64> {
    (0..n).map(|_| rng.uniform(-1.0, 1.0)).collect()
}

fn random_multivec(rng: &mut SplitMix64, n: usize, ncols: usize) -> MultiVector {
    let cols: Vec<Vec<f64>> = (0..ncols).map(|_| random_vec(rng, n)).collect();
    MultiVector::from_columns(&cols.iter().map(|c| c.as_slice()).collect::<Vec<_>>())
}

fn random_dense(rng: &mut SplitMix64, nrows: usize, ncols: usize) -> DenseMatrix {
    let mut b = DenseMatrix::zeros(nrows, ncols);
    for i in 0..nrows {
        for j in 0..ncols {
            // Leave some exact zeros so the coef == 0.0 skip path is hit.
            let v = if rng.below(5) == 0 {
                0.0
            } else {
                rng.uniform(-1.0, 1.0)
            };
            b.set(i, j, v);
        }
    }
    b
}

/// A random square sparse matrix with a guaranteed diagonal (so no row is
/// empty-by-construction, though duplicates may still cancel structure).
fn random_csr(rng: &mut SplitMix64, n: usize) -> CsrMatrix {
    let mut coo = CooMatrix::new(n, n);
    for _ in 0..rng.below(6 * n.max(1)) {
        let r = rng.below(n);
        let c = rng.below(n);
        coo.push(r, c, rng.uniform(-1.0, 1.0)).unwrap();
    }
    for i in 0..n {
        coo.push(i, i, 2.0).unwrap();
    }
    coo.to_csr().unwrap()
}

#[test]
fn spmv_is_bitwise_identical_across_thread_counts() {
    pin_knobs();
    let mut rng = SplitMix64::new(0x5157_0001);
    for &n in &LENGTHS {
        let a = random_csr(&mut rng, n);
        let x = random_vec(&mut rng, n);
        let mut reference = vec![0.0; n];
        a.spmv_with(&Pool::new(1), &x, &mut reference);
        for &t in &THREADS[1..] {
            let mut y = vec![f64::NAN; n];
            a.spmv_with(&Pool::new(t), &x, &mut y);
            assert_eq!(
                reference.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                y.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                "spmv diverged at n = {n}, {t} threads"
            );
        }
    }
}

#[test]
fn windowed_spmv_matches_full_spmv_rows_bitwise() {
    pin_knobs();
    // The stencil matrix has enough nnz per row that the windowed kernel
    // takes its parallel path even for mid-size windows.
    let a = poisson3d_7pt(Grid3::cube(9), None);
    let n = a.nrows();
    let mut rng = SplitMix64::new(0x5157_0002);
    let x = random_vec(&mut rng, n);
    for (lo, hi) in [(0, n), (1, n - 1), (17, 203), (n / 2, n / 2), (5, 6)] {
        let mut reference = vec![0.0; hi - lo];
        a.spmv_rows_with(&Pool::new(1), lo, hi, &x, &mut reference);
        for &t in &THREADS[1..] {
            let mut y = vec![f64::NAN; hi - lo];
            a.spmv_rows_with(&Pool::new(t), lo, hi, &x, &mut y);
            assert_eq!(
                reference.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                y.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                "spmv_rows diverged on window [{lo}, {hi}) at {t} threads"
            );
        }
    }
}

#[test]
fn gram_and_dot_sweeps_are_bitwise_identical_across_thread_counts() {
    pin_knobs();
    let mut rng = SplitMix64::new(0x5157_0003);
    let s = 3;
    for &n in &LENGTHS {
        let x = random_multivec(&mut rng, n, s + 1);
        let y = random_multivec(&mut rng, n, s + 1);
        let v = random_vec(&mut rng, n);
        // Full range plus an offset row window (when it fits) so the
        // chunk grid never aligns with the window start.
        let windows = if n >= 2 {
            [(0, n), (1, n - 1)]
        } else {
            [(0, n); 2]
        };
        for &(lo, hi) in &windows {
            let g1 = x.gram_window_with(&Pool::new(1), &y, lo, hi);
            let d1 = x.dot_vec_window_with(&Pool::new(1), &v, lo, hi);
            let r1 = x.gram_range_with(&Pool::new(1), 0..s, &y, 1..s + 1);
            for &t in &THREADS[1..] {
                let pool = Pool::new(t);
                let gt = x.gram_window_with(&pool, &y, lo, hi);
                let dt = x.dot_vec_window_with(&pool, &v, lo, hi);
                let rt = x.gram_range_with(&pool, 0..s, &y, 1..s + 1);
                for i in 0..s + 1 {
                    for j in 0..s + 1 {
                        assert_eq!(
                            g1.get(i, j).to_bits(),
                            gt.get(i, j).to_bits(),
                            "gram_window diverged at n = {n}, rows [{lo}, {hi}), {t} threads"
                        );
                    }
                }
                for i in 0..s {
                    for j in 0..s {
                        assert_eq!(
                            r1.get(i, j).to_bits(),
                            rt.get(i, j).to_bits(),
                            "gram_range diverged at n = {n}, {t} threads"
                        );
                    }
                }
                assert!(
                    d1.iter().zip(&dt).all(|(a, b)| a.to_bits() == b.to_bits()),
                    "dot_vec_window diverged at n = {n}, rows [{lo}, {hi}), {t} threads"
                );
            }
        }
    }
}

#[test]
fn fused_update_sweeps_are_bitwise_identical_across_thread_counts() {
    pin_knobs();
    let mut rng = SplitMix64::new(0x5157_0004);
    let s = 4;
    for &n in &LENGTHS {
        let src = random_multivec(&mut rng, n, s + 1);
        let prev = random_multivec(&mut rng, n, s);
        let b = random_dense(&mut rng, s, s);
        let alpha = random_vec(&mut rng, s);
        let shift_src = random_vec(&mut rng, n);

        let mut dst1 = MultiVector::zeros(n, s);
        dst1.combine_window_with(&Pool::new(1), &src, 1, &prev, &b);
        let mut shift1 = shift_src.clone();
        prev.gemv_sub_with(&Pool::new(1), &alpha, &mut shift1);
        let mut acc1 = random_multivec(&mut rng, n, s);
        let acc_seed = acc1.clone();
        acc1.add_mul_with(&Pool::new(1), &prev, &b);

        for &t in &THREADS[1..] {
            let pool = Pool::new(t);
            let mut dst = MultiVector::zeros(n, s);
            dst.combine_window_with(&pool, &src, 1, &prev, &b);
            let mut shift = shift_src.clone();
            prev.gemv_sub_with(&pool, &alpha, &mut shift);
            let mut acc = acc_seed.clone();
            acc.add_mul_with(&pool, &prev, &b);
            for j in 0..s {
                assert!(
                    dst1.col(j)
                        .iter()
                        .zip(dst.col(j))
                        .all(|(a, b)| a.to_bits() == b.to_bits()),
                    "combine_window diverged at n = {n}, col {j}, {t} threads"
                );
                assert!(
                    acc1.col(j)
                        .iter()
                        .zip(acc.col(j))
                        .all(|(a, b)| a.to_bits() == b.to_bits()),
                    "add_mul diverged at n = {n}, col {j}, {t} threads"
                );
            }
            assert!(
                shift1
                    .iter()
                    .zip(&shift)
                    .all(|(a, b)| a.to_bits() == b.to_bits()),
                "gemv_sub diverged at n = {n}, {t} threads"
            );
        }
    }
}

#[test]
fn single_chunk_gram_reproduces_the_unchunked_dot() {
    pin_knobs();
    // For n within one chunk the engine must reproduce the plain kernel
    // dot bitwise — the anchor tying the chunked fold to the legacy values.
    let mut rng = SplitMix64::new(0x5157_0005);
    let n = 31; // < gram_chunk_rows = 32
    let x = random_multivec(&mut rng, n, 2);
    let y = random_multivec(&mut rng, n, 2);
    let g = x.gram_with(&Pool::new(7), &y);
    for i in 0..2 {
        for j in 0..2 {
            let expect = pscg_sparse::kernels::dot(x.col(i), y.col(j));
            assert_eq!(g.get(i, j).to_bits(), expect.to_bits());
        }
    }
}

/// Everything observable about one traced solve.
#[derive(Debug, PartialEq)]
struct Observed {
    x: Vec<u64>,
    history: Vec<u64>,
    iterations: usize,
    stop: StopReason,
    counters: pscg_sim::OpCounters,
    ops: Vec<Op>,
}

fn observed(res: SolveResult, ctx: &mut SimCtx<'_>) -> Observed {
    Observed {
        x: res.x.iter().map(|v| v.to_bits()).collect(),
        history: res.history.iter().map(|v| v.to_bits()).collect(),
        iterations: res.iterations,
        stop: res.stop,
        counters: res.counters,
        ops: ctx.take_trace().expect("a traced context").ops,
    }
}

/// One traced Jacobi solve on the 7-pt operator of `grid`, through the
/// fused pass or through the unfused oracle.
fn traced_solve(method: MethodKind, grid: Grid3, opts: &SolveOptions, fused: bool) -> Observed {
    let a = poisson3d_7pt(grid, None);
    let mut rng = SplitMix64::new(0x5157_0006);
    let b = a.mul_vec(&random_vec(&mut rng, a.nrows()));
    let prof = MatrixProfile::stencil3d(grid.nx, grid.ny, grid.nz, 1, a.nnz(), Layout::Box);
    let ctx = SimCtx::traced(&a, Box::new(Jacobi::new(&a)), prof);
    if fused {
        let mut ctx = ctx;
        let res = method.solve(&mut ctx, &b, None, opts);
        observed(res, &mut ctx)
    } else {
        let mut ctx = Unfused(ctx);
        let res = method.solve(&mut ctx, &b, None, opts);
        observed(res, &mut ctx.0)
    }
}

#[test]
fn fused_recurrence_pass_equals_the_unfused_sequence_in_whole_solves() {
    pin_knobs();
    // PIPECG3 and PIPECG-OATI fix s = 2 themselves; the others sweep it.
    let mut cases: Vec<(MethodKind, usize)> =
        vec![(MethodKind::Pipecg3, 2), (MethodKind::PipecgOati, 2)];
    for s in 1..=4 {
        cases.extend(
            [
                MethodKind::PipeScg,
                MethodKind::PipePscg,
                MethodKind::Hybrid,
            ]
            .map(|m| (m, s)),
        );
    }
    // 15³ = 3375 rows (105 row chunks and 15 rows over), cut off after a
    // few passes — except PIPECG-OATI, which runs on to its replacement
    // pass at outer iteration 24 (that pass conjugates without shifting).
    let small = Grid3::cube(15);
    let mut saw_replacement = false;
    for &(method, s) in &cases {
        let mut opts = SolveOptions::with_rtol(1e-10).with_s(s);
        opts.max_iters = if method == MethodKind::PipecgOati {
            60
        } else {
            24
        };
        let want = traced_solve(method, small, &opts, false);
        if method == MethodKind::PipecgOati {
            saw_replacement = want.iterations > 2 * pipescg::methods::pipecg_oati::REPLACE_EVERY;
        }
        for threads in [1, 2, 4] {
            pscg_par::set_global_threads(threads);
            let got = traced_solve(method, small, &opts, true);
            assert!(
                got == want,
                "{} s={s}: fused solve differs from the unfused sequence at {threads} thread(s) \
                 (stop {:?} vs {:?}, {} vs {} ops)",
                method.name(),
                got.stop,
                want.stop,
                got.ops.len(),
                want.ops.len()
            );
        }
        pscg_par::set_global_threads(1);
    }
    assert!(
        saw_replacement,
        "PIPECG-OATI never reached a replacement pass"
    );

    // 7-pt 21³ (9261 rows) at s = 4 and rtol 1e-6 ends PIPE-PsCG in
    // Breakdown after 52 steps, as 30³ does after 584: the exit path
    // (rollback, stop reason, history) must be the same one, and so must
    // the hybrid's hand-off to PIPECG-OATI that it triggers.
    let opts = SolveOptions::with_rtol(1e-6).with_s(4);
    for method in [MethodKind::PipePscg, MethodKind::Hybrid] {
        let want = traced_solve(method, Grid3::cube(21), &opts, false);
        let breakdown = method == MethodKind::PipePscg;
        assert_eq!(
            want.stop == StopReason::Breakdown,
            breakdown,
            "{}",
            method.name()
        );
        for threads in [1, 2, 4] {
            pscg_par::set_global_threads(threads);
            let got = traced_solve(method, Grid3::cube(21), &opts, true);
            assert!(
                got == want,
                "{}: exit differs at {threads} thread(s): {:?} vs {:?}",
                method.name(),
                got.stop,
                want.stop
            );
        }
        pscg_par::set_global_threads(1);
    }
}
