//! `TimedCtx` must be invisible to the numerics and to the engine it wraps:
//! a wrapped solve is bitwise the bare solve — `x`, the residual history,
//! the `OpCounters` and the `OpTrace` op for op — on the tracing engine and
//! on the 2-rank thread engine. A wrapper that fails to forward one
//! defaulted method (`mpk`) must be caught by the same comparison.

use std::alloc::{GlobalAlloc, Layout as AllocLayout, System};

use pipescg::methods::pipe_scg;
use pipescg::{MethodKind, SolveOptions, SolveResult};
use pscg_precond::Jacobi;
use pscg_sim::thread::{run_spmd, LocalPc, RankCtx};
use pscg_sim::{Context, Layout, MatrixProfile, Op, SimCtx};
use pscg_sparse::stencil::poisson3d_125pt;
use pscg_sparse::{CsrMatrix, Grid3, SplitMix64};
use solvebench::timed_ctx::{names, TimedCtx};
use solvebench::workload::METHODS;

/// The tracing engine names buffers by heap address (`BufId`), so whether
/// two vectors of one solve share an identity depends on which freed block
/// the allocator hands out next — on heap history, not on the solve. This
/// test binary never frees, so every allocation has an address of its own
/// and the `BufId`s in a trace follow from the order of engine calls alone.
/// That makes "op for op" a statement about the wrapper, not the allocator.
struct NeverReuse;

// SAFETY: allocation is delegated to `System` unchanged; not freeing is
// always sound (it leaks, a few MB over this whole test binary). `realloc`
// uses the trait's default, which goes through `alloc` and `dealloc` above.
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

const N: usize = 8;

fn problem() -> (CsrMatrix, Vec<f64>) {
    let a = poisson3d_125pt(Grid3::cube(N));
    let mut rng = SplitMix64::new(7);
    let xstar: Vec<f64> = (0..a.nrows()).map(|_| rng.uniform(0.75, 1.25)).collect();
    let b = a.mul_vec(&xstar);
    (a, b)
}

fn opts() -> SolveOptions {
    SolveOptions::with_rtol(1e-6).with_s(3)
}

/// A solver entry point, as the wrapper and the bare engines both run it.
#[derive(Clone, Copy)]
enum Solver {
    Kind(MethodKind),
    /// PIPE-sCG over the matrix-powers kernel: the one solver in the
    /// library that calls `Context::mpk`, so the wrapper's forward of it is
    /// exercised (and the plant can bite).
    PipeScgMpk,
}

impl Solver {
    fn name(self) -> &'static str {
        match self {
            Solver::Kind(m) => m.name(),
            Solver::PipeScgMpk => "PIPE-sCG+MPK",
        }
    }

    fn solve<C: Context>(self, ctx: &mut C, b: &[f64]) -> SolveResult {
        match self {
            Solver::Kind(m) => m.solve(ctx, b, None, &opts()),
            Solver::PipeScgMpk => pipe_scg::solve_mpk(ctx, b, None, &opts()),
        }
    }
}

/// The benchmark's panel, plus the `mpk` caller.
fn solvers() -> Vec<Solver> {
    let mut all: Vec<Solver> = METHODS.iter().map(|m| Solver::Kind(m.1)).collect();
    all.push(Solver::PipeScgMpk);
    all
}

/// Everything observable about one solve.
struct Observed {
    res: SolveResult,
    ops: Option<Vec<Op>>,
}

fn same(what: &str, bare: &Observed, wrapped: &Observed) -> Result<(), String> {
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
    let (b, w) = (&bare.res, &wrapped.res);
    if bits(&b.x) != bits(&w.x) {
        return Err(format!("{what}: x differs"));
    }
    if bits(&b.history) != bits(&w.history) || b.iterations != w.iterations || b.stop != w.stop {
        return Err(format!("{what}: convergence history differs"));
    }
    if b.counters != w.counters {
        return Err(format!(
            "{what}: counters differ: {:?} vs {:?}",
            b.counters, w.counters
        ));
    }
    match (&bare.ops, &wrapped.ops) {
        (Some(bo), Some(wo)) if bo.len() != wo.len() => Err(format!(
            "{what}: trace has {} ops, bare has {}",
            wo.len(),
            bo.len()
        )),
        (Some(bo), Some(wo)) => match bo.iter().zip(wo).position(|(x, y)| x != y) {
            Some(i) => Err(format!(
                "{what}: op {i} is {:?}, bare is {:?}",
                wo[i], bo[i]
            )),
            None => Ok(()),
        },
        (None, None) => Ok(()),
        _ => Err(format!("{what}: one side has no trace")),
    }
}

fn traced_ctx<'a>(a: &'a CsrMatrix) -> SimCtx<'a> {
    let profile = MatrixProfile::stencil3d(N, N, N, 2, a.nnz(), Layout::Box);
    SimCtx::traced(a, Box::new(Jacobi::new(a)), profile)
}

fn sim_bare(solver: Solver, a: &CsrMatrix, b: &[f64]) -> Observed {
    let mut ctx = traced_ctx(a);
    let res = solver.solve(&mut ctx, b);
    Observed {
        res,
        ops: ctx.take_trace().map(|t| t.ops),
    }
}

fn sim_wrapped(solver: Solver, a: &CsrMatrix, b: &[f64], plant: bool) -> Observed {
    let mut timed = if plant {
        TimedCtx::with_unforwarded_mpk(traced_ctx(a))
    } else {
        TimedCtx::new(traced_ctx(a))
    };
    let res = timed.under_root(0, |ctx| solver.solve(ctx, b));
    let (mut ctx, log) = timed.into_parts();
    assert_eq!(
        log.spans()[0].name,
        names::SOLVE,
        "the root span comes first"
    );
    Observed {
        res,
        ops: ctx.take_trace().map(|t| t.ops),
    }
}

#[test]
fn wrapped_solve_is_bitwise_the_bare_solve_on_the_tracing_engine() {
    let (a, b) = problem();
    for solver in solvers() {
        let bare = sim_bare(solver, &a, &b);
        assert!(bare.res.converged(), "{} must converge", solver.name());
        assert!(bare.ops.as_ref().is_some_and(|o| !o.is_empty()));
        let wrapped = sim_wrapped(solver, &a, &b, false);
        same(solver.name(), &bare, &wrapped).unwrap();
    }
}

fn spmd(solver: Solver, a: &CsrMatrix, b: &[f64], wrap: bool) -> Vec<Observed> {
    let (part, plan) = RankCtx::prepare(a, 2);
    let inv_diag = Jacobi::new(a).inv_diag().to_vec();
    run_spmd(2, |rank, world| {
        let (lo, hi) = part.range(rank);
        let pc = LocalPc::Jacobi(inv_diag[lo..hi].to_vec());
        let mut ctx = RankCtx::new(world, rank, a, &part, &plan, pc);
        let res = if wrap {
            let mut timed = TimedCtx::new(ctx);
            let res = timed.under_root(rank as u32, |ctx| solver.solve(ctx, &b[lo..hi]));
            let (inner, log) = timed.into_parts();
            assert_eq!(inner.counters(), &res.counters);
            assert!(log.spans().len() > 1);
            res
        } else {
            solver.solve(&mut ctx, &b[lo..hi])
        };
        Observed { res, ops: None }
    })
}

#[test]
fn wrapped_solve_is_bitwise_the_bare_solve_on_two_ranks() {
    let (a, b) = problem();
    for solver in solvers() {
        let bare = spmd(solver, &a, &b, false);
        let wrapped = spmd(solver, &a, &b, true);
        for (rank, (bo, wo)) in bare.iter().zip(&wrapped).enumerate() {
            assert!(bo.res.converged(), "{} must converge", solver.name());
            same(&format!("{} rank {rank}", solver.name()), bo, wo).unwrap();
        }
    }
}

#[test]
fn an_unforwarded_mpk_is_caught() {
    // Not vacuous: the same comparison rejects a wrapper that leaves `mpk`
    // to the trait default — the tracing engine's override is bypassed, so
    // the trace shows SpMVs where the bare solve recorded the kernel.
    let (a, b) = problem();
    let solver = Solver::PipeScgMpk;
    let bare = sim_bare(solver, &a, &b);
    let planted = sim_wrapped(solver, &a, &b, true);
    let verdict = same(solver.name(), &bare, &planted);
    assert!(verdict.is_err(), "the plant went unnoticed");
    // The numerics are the same either way; only the engine's view differs.
    assert_eq!(bare.res.x, planted.res.x);
    assert!(bare
        .ops
        .unwrap()
        .iter()
        .any(|op| matches!(op, Op::Mpk { .. })));
    assert!(!planted
        .ops
        .unwrap()
        .iter()
        .any(|op| matches!(op, Op::Mpk { .. })));
}
