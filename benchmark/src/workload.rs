//! The workloads: what each one is, how its inputs are generated from the
//! seed, and how one solve is run and checked on its engine.

use std::time::Instant;

use pipescg::{MethodKind, SolveOptions, SolveResult, StopReason};
use pscg_precond::PcKind;
use pscg_sim::thread::{run_spmd, LocalPc, RankCtx};
use pscg_sim::{Context, Layout, MatrixProfile, OpTrace, SimCtx};
use pscg_sparse::partition::HaloPlan;
use pscg_sparse::stencil::{poisson3d_125pt, poisson3d_27pt, poisson3d_7pt};
use pscg_sparse::{ApplyCost, CsrMatrix, Grid3, Operator, RowBlockPartition, SplitMix64};

use crate::timed_ctx::{SpanLog, TimedCtx};

/// The method panel run on every workload: `(metric suffix, method)`.
pub const METHODS: [(&str, MethodKind); 4] = [
    ("pcg", MethodKind::Pcg),
    ("pipecg", MethodKind::Pipecg),
    ("pscg", MethodKind::Pscg),
    ("pipe-pscg", MethodKind::PipePscg),
];

/// Index of PIPE-PsCG in [`METHODS`] (the method the threaded and A/B
/// measurements use).
pub const PIPE_PSCG: usize = 3;

/// The s parameter of the s-step methods (the paper's default).
pub const S: usize = 3;

/// Discretisation of the Poisson operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stencil {
    /// 7-point (faces).
    P7,
    /// 27-point (radius-1 box).
    P27,
    /// 125-point (radius-2 box) — the paper's operator.
    P125,
}

impl Stencil {
    /// Box radius, for the replay profile.
    pub fn radius(self) -> usize {
        match self {
            Stencil::P7 | Stencil::P27 => 1,
            Stencil::P125 => 2,
        }
    }
}

/// Which engine executes the solves of a workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Engine {
    /// `SimCtx::serial`: one rank owns the whole problem.
    Serial,
    /// `run_spmd(SPMD_RANKS, …)` over `RankCtx`: real threads, halo
    /// exchange and rendezvous allreduce.
    Spmd,
}

/// Ranks of the SPMD engine: one per core of the sizing host.
pub const SPMD_RANKS: usize = 2;

/// One benchmark workload (see `README.md` for why each exists).
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Name on the command line and in `BENCHMARK.json`.
    pub name: &'static str,
    /// Operator stencil.
    pub stencil: Stencil,
    /// Grid points per side.
    pub n: usize,
    /// Preconditioner.
    pub pc: PcKind,
    /// Relative tolerance of every solve.
    pub rtol: f64,
    /// Execution engine.
    pub engine: Engine,
    /// Whether the CSR arrays must exceed 4× the last-level cache (the
    /// workload's point is streaming the matrix from memory).
    pub must_exceed_llc: bool,
}

/// The five workloads, in the order `--all` runs them.
pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "p125-jacobi",
        stencil: Stencil::P125,
        n: 64,
        pc: PcKind::Jacobi,
        rtol: 1e-2,
        engine: Engine::Serial,
        must_exceed_llc: true,
    },
    Workload {
        name: "p7-jacobi",
        stencil: Stencil::P7,
        n: 80,
        pc: PcKind::Jacobi,
        rtol: 1e-2,
        engine: Engine::Serial,
        must_exceed_llc: false,
    },
    Workload {
        name: "p125-mg",
        stencil: Stencil::P125,
        n: 48,
        pc: PcKind::Mg,
        rtol: 1e-5,
        engine: Engine::Serial,
        must_exceed_llc: false,
    },
    Workload {
        name: "small27",
        stencil: Stencil::P27,
        n: 16,
        pc: PcKind::Jacobi,
        rtol: 1e-5,
        engine: Engine::Serial,
        must_exceed_llc: false,
    },
    Workload {
        name: "small27-spmd",
        stencil: Stencil::P27,
        n: 16,
        pc: PcKind::Jacobi,
        rtol: 1e-5,
        engine: Engine::Spmd,
        must_exceed_llc: false,
    },
];

impl Workload {
    /// Looks a workload up by name.
    pub fn by_name(name: &str) -> Option<Workload> {
        WORKLOADS.iter().copied().find(|w| w.name == name)
    }

    /// The same workload on a 12³ grid: seconds instead of minutes, for
    /// testing the harness itself.
    pub fn smoke(mut self) -> Workload {
        self.n = 12;
        self.must_exceed_llc = false;
        self
    }

    /// Solver options of every solve on this workload: `s = 3` and library
    /// defaults for everything but the tolerance.
    pub fn options(&self) -> SolveOptions {
        SolveOptions::with_rtol(self.rtol).with_s(S)
    }
}

/// The generated inputs: the solver sees only `a` and `b`.
pub struct Problem {
    /// The grid `a` was assembled on.
    pub grid: Grid3,
    /// The operator.
    pub a: CsrMatrix,
    /// Right-hand side `A·x*` with `x* = 1 + 0.25·u`, `u ~ U(−1, 1)` from
    /// the seed. (Not the paper's `x* = 1`: with it PIPE-PsCG comes within
    /// a decade of breakdown on 7-point grids, leaving no margin.)
    pub b: Vec<f64>,
}

impl Problem {
    /// Assembles the operator and the seeded right-hand side.
    pub fn build(w: &Workload, seed: u64) -> Problem {
        let grid = Grid3::cube(w.n);
        let a = match w.stencil {
            Stencil::P7 => poisson3d_7pt(grid, None),
            Stencil::P27 => poisson3d_27pt(grid),
            Stencil::P125 => poisson3d_125pt(grid),
        };
        let mut rng = SplitMix64::new(seed);
        let xstar: Vec<f64> = (0..a.nrows())
            .map(|_| 1.0 + 0.25 * rng.uniform(-1.0, 1.0))
            .collect();
        let b = a.mul_vec(&xstar);
        Problem { grid, a, b }
    }

    /// Bytes of the three CSR arrays as stored.
    pub fn csr_bytes(&self) -> usize {
        let idx = std::mem::size_of::<usize>();
        self.a.nnz() * (8 + idx) + (self.a.nrows() + 1) * idx
    }

    /// Bytes of one vector.
    pub fn vector_bytes(&self) -> usize {
        self.a.nrows() * 8
    }
}

/// Lends one preconditioner to many contexts: `SimCtx` takes its operator
/// by value, and rebuilding multigrid for every solve would time set-up,
/// not the solve.
struct PcRef<'p>(&'p mut dyn Operator);

impl Operator for PcRef<'_> {
    fn nrows(&self) -> usize {
        self.0.nrows()
    }
    fn apply(&mut self, x: &[f64], y: &mut [f64]) {
        self.0.apply(x, y)
    }
    fn cost(&self) -> ApplyCost {
        self.0.cost()
    }
    fn name(&self) -> &str {
        self.0.name()
    }
    fn demote_precision(&mut self) -> bool {
        self.0.demote_precision()
    }
    fn promote_precision(&mut self) {
        self.0.promote_precision()
    }
    fn is_demoted(&self) -> bool {
        self.0.is_demoted()
    }
}

/// What the SPMD engine needs beyond the problem: the row partition, the
/// halo plan and the Jacobi diagonal the ranks slice.
struct SpmdPlan {
    part: RowBlockPartition,
    halo: HaloPlan,
    inv_diag: Vec<f64>,
}

impl SpmdPlan {
    fn build(a: &CsrMatrix) -> SpmdPlan {
        let (part, halo) = RankCtx::prepare(a, SPMD_RANKS);
        let inv_diag = pscg_precond::Jacobi::new(a).inv_diag().to_vec();
        SpmdPlan {
            part,
            halo,
            inv_diag,
        }
    }
}

/// One finished solve, with what the checks need.
pub struct Solved {
    /// The library's result (for SPMD: rank 0's, with `x` gathered).
    pub res: SolveResult,
    /// Wall seconds of the solve call.
    pub secs: f64,
    /// Rank 0's spans, when the solve ran under [`TimedCtx`].
    pub spans: Option<SpanLog>,
    /// The operation trace, when the solve ran on `SimCtx::traced`.
    pub trace: Option<OpTrace>,
}

/// Everything set-up produces; runs solves on the workload's engine.
pub struct Harness<'a> {
    /// The workload being run.
    pub w: Workload,
    /// Its generated inputs.
    pub p: &'a Problem,
    pc: &'a mut dyn Operator,
    spmd: Option<SpmdPlan>,
}

impl<'a> Harness<'a> {
    /// Finishes set-up over an assembled problem and a built preconditioner:
    /// for an SPMD workload, the partition and halo plan.
    pub fn new(w: Workload, p: &'a Problem, pc: &'a mut dyn Operator) -> Harness<'a> {
        let spmd = match w.engine {
            Engine::Serial => None,
            Engine::Spmd => {
                assert_eq!(
                    w.pc,
                    PcKind::Jacobi,
                    "the rank engine supports processor-local Jacobi only"
                );
                Some(SpmdPlan::build(&p.a))
            }
        };
        Harness { w, p, pc, spmd }
    }

    /// The replay profile of the operator: a box-partitioned 3-D stencil.
    pub fn profile(&self) -> MatrixProfile {
        let n = self.w.n;
        MatrixProfile::stencil3d(
            n,
            n,
            n,
            self.w.stencil.radius(),
            self.p.a.nnz(),
            Layout::Box,
        )
    }

    /// A fresh serial context over the shared preconditioner; `traced`
    /// makes it record an `OpTrace`.
    pub fn serial_ctx(&mut self, traced: bool) -> SimCtx<'_> {
        let (p, profile) = (self.p, self.profile());
        let pc = Box::new(PcRef(&mut *self.pc));
        if traced {
            SimCtx::traced(&p.a, pc, profile)
        } else {
            SimCtx::serial(&p.a, pc)
        }
    }

    /// One untraced solve in a fresh context on the workload's engine —
    /// what the end-to-end metrics time.
    pub fn solve(&mut self, method: MethodKind) -> Solved {
        let opts = self.w.options();
        if self.spmd.is_some() {
            self.solve_spmd(method, &opts, None)
        } else {
            self.solve_serial(method, &opts, |_| {})
        }
    }

    /// One untraced solve on the serial engine, whatever the workload's
    /// engine; `arm` may prepare the fresh context (e.g. arm a fault plan).
    pub fn solve_serial(
        &mut self,
        method: MethodKind,
        opts: &SolveOptions,
        arm: impl FnOnce(&mut SimCtx<'_>),
    ) -> Solved {
        let p = self.p;
        let mut ctx = self.serial_ctx(false);
        arm(&mut ctx);
        run_on(ctx, method, &p.b, opts, None)
    }

    /// One solve under [`TimedCtx`] on the workload's engine. The serial
    /// engine runs as `SimCtx::traced`, so the same pass yields the
    /// `OpTrace`; under SPMD the spans are rank 0's and there is no trace.
    pub fn solve_timed(&mut self, method: MethodKind, solve_id: u32) -> Solved {
        let (p, opts) = (self.p, self.w.options());
        if self.spmd.is_some() {
            return self.solve_spmd(method, &opts, Some(solve_id));
        }
        let mut timed = TimedCtx::new(self.serial_ctx(true));
        let t0 = Instant::now();
        let res = timed.solve(method, solve_id, &p.b, &opts);
        let secs = t0.elapsed().as_secs_f64();
        let (mut ctx, spans) = timed.into_parts();
        Solved {
            res,
            secs,
            spans: Some(spans),
            trace: ctx.take_trace(),
        }
    }

    /// One serial-engine solve on `SimCtx::traced`, whatever the workload's
    /// engine: the source of the `OpTrace` the replay model consumes.
    pub fn solve_for_trace(&mut self, method: MethodKind) -> Solved {
        let (p, opts) = (self.p, self.w.options());
        let mut ctx = self.serial_ctx(true);
        let t0 = Instant::now();
        let res = method.solve(&mut ctx, &p.b, None, &opts);
        Solved {
            res,
            secs: t0.elapsed().as_secs_f64(),
            spans: None,
            trace: ctx.take_trace(),
        }
    }

    fn solve_spmd(&self, method: MethodKind, opts: &SolveOptions, timed: Option<u32>) -> Solved {
        let plan = self.spmd.as_ref().expect("an SPMD workload");
        let (a, b) = (&self.p.a, &self.p.b);
        let t0 = Instant::now();
        let mut pieces = run_spmd(SPMD_RANKS, |rank, world| {
            let (lo, hi) = plan.part.range(rank);
            let pc = LocalPc::Jacobi(plan.inv_diag[lo..hi].to_vec());
            let ctx = RankCtx::new(world, rank, a, &plan.part, &plan.halo, pc);
            run_on(ctx, method, &b[lo..hi], opts, timed)
        });
        let secs = t0.elapsed().as_secs_f64();
        let x: Vec<f64> = pieces
            .iter()
            .flat_map(|s| s.res.x.iter().copied())
            .collect();
        let mut first = pieces.swap_remove(0);
        first.res.x = x;
        first.secs = secs;
        first
    }

    /// Checks one solve: converged, and the residual recomputed from `x`
    /// is within 10× the tolerance.
    pub fn check(&self, s: &Solved) -> Result<(), String> {
        if s.res.stop != StopReason::Converged {
            return Err(format!("{}: stopped with {:?}", s.res.method, s.res.stop));
        }
        let relres = s.res.true_relres(&self.p.a, &self.p.b);
        if relres.is_nan() || relres > 10.0 * self.w.rtol {
            return Err(format!(
                "{}: true relres {relres:.3e} exceeds 10 x rtol {:.0e}",
                s.res.method, self.w.rtol
            ));
        }
        Ok(())
    }
}

/// Solves on `ctx`, bare or under the tracing wrapper.
fn run_on<C: Context>(
    mut ctx: C,
    method: MethodKind,
    b: &[f64],
    opts: &SolveOptions,
    timed: Option<u32>,
) -> Solved {
    let t0 = Instant::now();
    let (res, spans) = match timed {
        None => (method.solve(&mut ctx, b, None, opts), None),
        Some(id) => {
            let mut timed = TimedCtx::new(ctx);
            let res = timed.solve(method, id, b, opts);
            (res, Some(timed.into_parts().1))
        }
    };
    Solved {
        res,
        secs: t0.elapsed().as_secs_f64(),
        spans,
        trace: None,
    }
}
