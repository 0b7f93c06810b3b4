//! The fault-machinery inertness contract: with no fault plan armed — or
//! with an *armed but empty* plan — the injection hooks and the in-loop
//! resilience guards must be invisible.
//!
//! For every shipped method, at pool thread counts 1 and 4, a traced solve
//! with an empty `FaultPlan` armed must produce bitwise-identical residual
//! history and solution, and the identical operation sequence (`BufId`s
//! masked as in `par_engine_invariance`), as the plain un-armed run. The
//! injector must also report zero applied faults.
//!
//! Separate integration-test binary on purpose: it mutates the global
//! thread pool, which must not race with other tests.

use pipescg::methods::MethodKind;
use pipescg::solver::SolveOptions;
use pscg_fault::{chaos, ChaosConfig, FaultPlan};
use pscg_precond::Jacobi;
use pscg_sim::{Layout, MatrixProfile, SimCtx};
use pscg_sparse::stencil::{poisson3d_7pt, Grid3};

const S: usize = 4;

/// Debug renderings of a trace's ops with interned buffer ids masked
/// (`BufId(0)` = `ANON` is kept — anonymous vs tracked is structural).
fn op_shapes(trace: &pscg_sim::OpTrace) -> Vec<String> {
    trace
        .ops
        .iter()
        .map(|op| {
            let s = format!("{op:?}");
            let mut out = String::new();
            let mut rest = s.as_str();
            while let Some(pos) = rest.find("BufId(") {
                out.push_str(&rest[..pos + 6]);
                rest = &rest[pos + 6..];
                let end = rest.find(')').expect("BufId debug form");
                if &rest[..end] == "0" {
                    out.push('0');
                } else {
                    out.push('_');
                }
                rest = &rest[end..];
            }
            out.push_str(rest);
            out
        })
        .collect()
}

struct Run {
    hist_bits: Vec<u64>,
    x_bits: Vec<u64>,
    shapes: Vec<String>,
}

/// One traced solve, optionally with an (empty) fault plan armed.
fn run(method: MethodKind, plan: Option<FaultPlan>) -> Run {
    let g = Grid3::cube(8);
    let a = poisson3d_7pt(g, None);
    let b = a.mul_vec(&vec![1.0; a.nrows()]);
    let prof = MatrixProfile::stencil3d(8, 8, 8, 1, a.nnz(), Layout::Box);
    let mut ctx = SimCtx::traced(&a, Box::new(Jacobi::new(&a)), prof);
    let armed = plan.is_some();
    if let Some(p) = plan {
        ctx.arm_faults(p);
    }
    let opts = SolveOptions::with_rtol(1e-6).with_s(S);
    let res = method.solve(&mut ctx, &b, None, &opts);
    assert!(res.converged(), "{} did not converge", method.name());
    if armed {
        assert!(
            ctx.fault_log().is_empty(),
            "{}: empty plan applied faults",
            method.name()
        );
    }
    Run {
        hist_bits: res.history.iter().map(|r| r.to_bits()).collect(),
        x_bits: res.x.iter().map(|v| v.to_bits()).collect(),
        shapes: op_shapes(&ctx.take_trace().unwrap()),
    }
}

#[test]
fn empty_fault_plan_is_bitwise_inert() {
    // Force real chunking so the kernels genuinely split at 4 threads.
    pscg_par::knobs::set_spmv_chunk_nnz(256);
    pscg_par::knobs::set_gram_chunk_rows(64);

    // A zero-bound chaos plan must come out empty — the generated
    // equivalent of an inert hand-written plan.
    let zero_chaos = chaos::generate(
        0xDEAD_BEEF,
        &ChaosConfig {
            max_data_faults: 0,
            max_completion_faults: 0,
            max_rank_events: 0,
            ..Default::default()
        },
    );
    assert!(zero_chaos.events.is_empty() && zero_chaos.rank_events.is_empty());

    for threads in [1usize, 4] {
        pscg_par::set_global_threads(threads);
        for method in MethodKind::ALL {
            let plain = run(method, None);
            // Three armed-but-empty shapes: a bare plan, a plan that sets
            // the modeled rank count without any rank events (the chaos
            // machinery armed yet idle), and a zero-bound generated plan.
            let variants: [(&str, FaultPlan); 3] = [
                ("empty plan", FaultPlan::new(0xDEAD_BEEF)),
                ("ranks-only plan", FaultPlan::new(0xDEAD_BEEF).with_ranks(8)),
                ("zero-bound chaos plan", zero_chaos.clone()),
            ];
            for (label, plan) in variants {
                let armed = run(method, Some(plan));
                assert_eq!(
                    plain.hist_bits,
                    armed.hist_bits,
                    "{} @{threads}t: residual history changed with {label} armed",
                    method.name()
                );
                assert_eq!(
                    plain.x_bits,
                    armed.x_bits,
                    "{} @{threads}t: solution changed with {label} armed",
                    method.name()
                );
                assert_eq!(
                    plain.shapes,
                    armed.shapes,
                    "{} @{threads}t: operation sequence changed with {label} armed",
                    method.name()
                );
            }
        }
    }
    pscg_par::set_global_threads(1);
}
