//! Validates the paper's Table I against *measured* operation counters:
//! every method's implementation must exhibit exactly the allreduce cadence,
//! SPMV/PC counts and overlap structure the cost model claims for it.
//!
//! Per-step rates are measured *marginally* — as the difference between a
//! loose-tolerance and a tight-tolerance run — so one-off setup work cancels
//! exactly.

use pipescg::costmodel;
use pipescg::methods::MethodKind;
use pipescg::solver::SolveOptions;
use pscg_precond::Jacobi;
use pscg_sim::{Layout, MatrixProfile, Op, OpTrace, SimCtx};
use pscg_sparse::stencil::{poisson3d_7pt, Grid3};

struct Measured {
    iterations: usize,
    trace: OpTrace,
}

fn run(method: MethodKind, s: usize, rtol: f64) -> Measured {
    let g = Grid3::cube(10);
    let a = poisson3d_7pt(g, None);
    let b = a.mul_vec(&vec![1.0; a.nrows()]);
    let nnz = a.nnz();
    let prof = MatrixProfile::stencil3d(10, 10, 10, 1, nnz, Layout::Box);
    let mut ctx = SimCtx::traced(&a, Box::new(Jacobi::new(&a)), prof);
    let opts = SolveOptions {
        rtol,
        s,
        max_iters: 5000,
        ..Default::default()
    };
    let res = method.solve(&mut ctx, &b, None, &opts);
    assert!(
        res.converged(),
        "{} did not converge at rtol {rtol}",
        method.name()
    );
    Measured {
        iterations: res.iterations,
        trace: ctx.take_trace().unwrap(),
    }
}

/// Marginal `(spmv, pc, allreduce)` rates per CG step between a loose and a
/// tight run.
fn marginal_rates(method: MethodKind, s: usize) -> (f64, f64, f64) {
    let loose = run(method, s, 1e-2);
    let tight = run(method, s, 1e-8);
    let steps = (tight.iterations - loose.iterations) as f64;
    assert!(
        steps >= 10.0,
        "{}: need a usable step delta, got {steps}",
        method.name()
    );
    let (s1, p1, b1, n1) = loose.trace.comm_counts();
    let (s2, p2, b2, n2) = tight.trace.comm_counts();
    (
        (s2 - s1) as f64 / steps,
        (p2 - p1) as f64 / steps,
        ((b2 + n2) - (b1 + n1)) as f64 / steps,
    )
}

#[test]
fn pcg_measures_three_allreduces_and_one_spmv_per_step() {
    let (spmv, pc, allr) = marginal_rates(MethodKind::Pcg, 3);
    let row = &costmodel::table1()[0];
    assert_eq!(row.method, "PCG");
    let expect = (row.allreduces)(3) as f64 / 3.0;
    assert!(
        (allr - expect).abs() < 0.05,
        "allreduce rate {allr}, Table I {expect}"
    );
    assert!((spmv - 1.0).abs() < 0.05, "spmv rate {spmv}");
    assert!((pc - 1.0).abs() < 0.05, "pc rate {pc}");
}

#[test]
fn pipecg_measures_one_allreduce_per_step() {
    let (spmv, pc, allr) = marginal_rates(MethodKind::Pipecg, 3);
    assert!((allr - 1.0).abs() < 0.05, "allreduce rate {allr}");
    assert!((spmv - 1.0).abs() < 0.05, "spmv rate {spmv}");
    assert!((pc - 1.0).abs() < 0.05, "pc rate {pc}");
}

#[test]
fn half_step_methods_measure_one_allreduce_per_two_steps() {
    for method in [MethodKind::Pipecg3, MethodKind::PipecgOati] {
        let (spmv, _, allr) = marginal_rates(method, 3);
        assert!(
            (allr - 0.5).abs() < 0.05,
            "{}: allreduce rate {allr}",
            method.name()
        );
        // OATI's periodic replacement adds a small SPMV surcharge; PIPECG3
        // stays at exactly one per step.
        assert!(spmv < 1.25, "{}: spmv rate {spmv}", method.name());
    }
}

#[test]
fn s_step_methods_measure_one_allreduce_per_s_steps() {
    for (method, s) in [
        (MethodKind::Pscg, 3),
        (MethodKind::PipeScg, 3),
        (MethodKind::PipePscg, 3),
        (MethodKind::PipePscg, 5),
    ] {
        let (_, _, allr) = marginal_rates(method, s);
        let expect = 1.0 / s as f64;
        assert!(
            (allr - expect).abs() < 0.02,
            "{} s={s}: allreduce rate {allr}, expected {expect}",
            method.name()
        );
    }
}

#[test]
fn pscg_pays_extra_kernels_but_pipe_pscg_does_not() {
    let s = 3;
    let (spmv_pscg, pc_pscg, _) = marginal_rates(MethodKind::Pscg, s);
    let (spmv_pipe, pc_pipe, _) = marginal_rates(MethodKind::PipePscg, s);
    // PsCG: (s+1)/s per step; PIPE-PsCG: exactly 1 per step.
    let extra = (s as f64 + 1.0) / s as f64;
    assert!(
        (spmv_pscg - extra).abs() < 0.05,
        "PsCG spmv rate {spmv_pscg}"
    );
    assert!((pc_pscg - extra).abs() < 0.05, "PsCG pc rate {pc_pscg}");
    assert!(
        (spmv_pipe - 1.0).abs() < 0.05,
        "PIPE-PsCG spmv rate {spmv_pipe}"
    );
    assert!((pc_pipe - 1.0).abs() < 0.05, "PIPE-PsCG pc rate {pc_pipe}");
}

#[test]
fn scg_sspmv_removes_exactly_the_extra_spmv() {
    let (spmv_scg, _, _) = marginal_rates(MethodKind::Scg, 3);
    let (spmv_fixed, _, _) = marginal_rates(MethodKind::ScgSspmv, 3);
    assert!(
        (spmv_scg - 4.0 / 3.0).abs() < 0.05,
        "sCG spmv rate {spmv_scg}"
    );
    assert!(
        (spmv_fixed - 1.0).abs() < 0.05,
        "sCG-sSPMV spmv rate {spmv_fixed}"
    );
}

#[test]
fn pipelined_methods_overlap_their_allreduces_with_kernels() {
    // In the trace, every ArPost..ArWait window of the pipelined methods
    // must contain the advertised kernel work.
    for (method, s, min_kernels) in [
        (MethodKind::Pipecg, 3, 2),   // 1 PC + 1 SPMV
        (MethodKind::PipePscg, 3, 6), // s PCs + s SPMVs
    ] {
        let m = run(method, s, 1e-6);
        let mut kernels_in_window = 0usize;
        let mut in_window = false;
        let mut checked = 0;
        for op in &m.trace.ops {
            match op {
                Op::ArPost { .. } => {
                    in_window = true;
                    kernels_in_window = 0;
                }
                Op::ArWait { .. } => {
                    if checked > 0 {
                        assert!(
                            kernels_in_window >= min_kernels,
                            "{}: window held {kernels_in_window} kernels, need {min_kernels}",
                            method.name()
                        );
                    }
                    checked += 1;
                    in_window = false;
                }
                Op::Spmv { .. } | Op::Pc { .. } if in_window => kernels_in_window += 1,
                _ => {}
            }
        }
        assert!(checked > 2, "{}: too few windows", method.name());
    }
}

#[test]
fn memory_footprint_ordering_matches_table1() {
    // Measured vector allocations must preserve Table I's ordering:
    // PCG < PIPECG < depth-2 < PIPE-PsCG.
    fn vectors(method: MethodKind, s: usize) -> usize {
        let g = Grid3::cube(5);
        let a = poisson3d_7pt(g, None);
        let b = a.mul_vec(&vec![1.0; a.nrows()]);
        let mut ctx = SimCtx::serial(&a, Box::new(Jacobi::new(&a)));
        let opts = SolveOptions {
            rtol: 1e-4,
            s,
            ..Default::default()
        };
        let res = method.solve(&mut ctx, &b, None, &opts);
        assert!(res.converged());
        res.counters.vectors_allocated
    }
    let pcg = vectors(MethodKind::Pcg, 3);
    let pipecg = vectors(MethodKind::Pipecg, 3);
    let oati = vectors(MethodKind::PipecgOati, 3);
    let pipe_pscg = vectors(MethodKind::PipePscg, 3);
    assert!(pcg < pipecg, "PCG {pcg} vs PIPECG {pipecg}");
    assert!(pipecg < oati, "PIPECG {pipecg} vs OATI {oati}");
    assert!(oati < pipe_pscg, "OATI {oati} vs PIPE-PsCG {pipe_pscg}");
    // The recurrence phase runs in place, so PIPE-PsCG holds no second copy
    // of its blocks and stays within the paper's 4s² + 12s + 5.
    let table = costmodel::table1()
        .into_iter()
        .find(|r| r.method == "PIPE-PsCG")
        .expect("Table I has a PIPE-PsCG row");
    assert!(
        pipe_pscg as f64 <= (table.memory)(3),
        "PIPE-PsCG allocates {pipe_pscg} vectors, Table I says {}",
        (table.memory)(3)
    );
}

#[test]
fn analytic_time_model_agrees_with_replay_ordering() {
    // The Table I expressions and the discrete-event replay must agree on
    // who wins at scale.
    let machine = pscg_sim::Machine::sahasrat();
    let profile = MatrixProfile::stencil3d(100, 100, 100, 2, 124_000_000, Layout::Box);
    let s = 3;
    let (g, pc, spmv) = costmodel::kernel_times(&machine, &profile, 2880, 27, 1.0, 24.0);
    let rows = costmodel::table1();
    let t_pcg = rows[0].time.evaluate(s, g, pc, spmv);
    let t_pipecg = rows[1].time.evaluate(s, g, pc, spmv);
    let t_pipe_pscg = rows[6].time.evaluate(s, g, pc, spmv);
    assert!(
        t_pipe_pscg < t_pipecg,
        "PIPE-PsCG must beat PIPECG at 120 nodes"
    );
    assert!(t_pipecg < t_pcg, "PIPECG must beat PCG at 120 nodes");
}
