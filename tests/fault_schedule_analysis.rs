//! Satellite of the concurrency-verification layer: schedules that the
//! *fault injector* perturbed must still pass static analysis. A delayed
//! completion retries, a duplicated completion is absorbed, a dropped
//! completion triggers the recovery ladder — and in every case the
//! resulting operation trace must be free of collective/overlap hazards
//! (including the fault-aware classes: use-after-wait, double-wait,
//! abandoned timeouts) and must verify against the method's Table I
//! structure up to the point the fault tore the schedule.
//!
//! `verify_faulted` is the structural contract here: retriable timeouts
//! (delays) are shape-transparent and the whole trace is checked;
//! a non-retriable timeout (drop) truncates verification to the
//! pre-fault prefix, with the recovery suffix policed by the hazard
//! pass alone.

use pipescg::methods::MethodKind;
use pipescg::solver::SolveOptions;
use pscg_analysis::{analyze, verify_faulted};
use pscg_fault::{FaultAction, FaultPlan, FaultSite};
use pscg_precond::Jacobi;
use pscg_sim::{Layout, MatrixProfile, OpTrace, SimCtx};
use pscg_sparse::stencil::{poisson3d_7pt, Grid3};

const S: usize = 3;
const N: usize = 8;

/// Runs `method` under `plan` through the resilient supervisor on a
/// traced context and returns the trace plus how many faults fired.
fn perturbed_trace(method: MethodKind, plan: FaultPlan) -> (OpTrace, usize) {
    let g = Grid3::cube(N);
    let a = poisson3d_7pt(g, None);
    let b = a.mul_vec(&vec![1.0; a.nrows()]);
    let prof = MatrixProfile::stencil3d(N, N, N, 1, a.nnz(), Layout::Box);
    let mut ctx = SimCtx::traced(&a, Box::new(Jacobi::new(&a)), prof);
    ctx.arm_faults(plan);
    let opts = SolveOptions::with_rtol(1e-6).with_s(S);
    let _ = method.solve_resilient(&mut ctx, &b, None, &opts);
    let hits = ctx.fault_log().len();
    (
        ctx.take_trace().expect("traced context yields a trace"),
        hits,
    )
}

fn assert_schedule_clean(method: MethodKind, trace: &OpTrace, label: &str) {
    let report = analyze(trace);
    assert!(
        report.is_clean(),
        "{} under {label}: hazard analysis flagged the perturbed schedule: {report:?}",
        method.name()
    );
    let violations = verify_faulted(trace, method, S);
    assert!(
        violations.is_empty(),
        "{} under {label}: structure violations: {violations:?}",
        method.name()
    );
}

/// A delayed completion makes the solver spin on retriable timeouts
/// before the wait lands. That must neither create a hazard nor change
/// the verified schedule shape, for every method.
#[test]
fn delayed_completions_leave_schedules_hazard_free_and_verified() {
    let mut fired = 0;
    for method in MethodKind::ALL {
        let plan = FaultPlan::new(21).with(FaultSite::Wait, 1, FaultAction::Delay { ticks: 2 });
        let (trace, hits) = perturbed_trace(method, plan);
        fired += hits;
        assert_schedule_clean(method, &trace, "delay(2)");
    }
    // Blocking-only methods have no overlapped wait to delay; the
    // pipelined families must have been hit or the campaign is vacuous.
    assert!(fired > 0, "no delay fault ever fired across the sweep");
}

/// A duplicated completion delivers a *stale* payload — a silent data
/// fault with no timeout marker in the trace. The drift probe catches it
/// and the ladder restarts, which legitimately reshapes the schedule, so
/// structure verification applies only to methods the fault never hit;
/// the hazard pass (no double-wait, no overlap violations) must hold for
/// every method, recovery included.
#[test]
fn duplicated_completions_are_absorbed_without_hazards() {
    let mut fired = 0;
    for method in MethodKind::ALL {
        let plan = FaultPlan::new(22).with(FaultSite::Wait, 1, FaultAction::Duplicate);
        let (trace, hits) = perturbed_trace(method, plan);
        fired += hits;
        let report = analyze(&trace);
        assert!(
            report.is_clean(),
            "{} under duplicate: hazards: {report:?}",
            method.name()
        );
        if hits == 0 {
            let violations = verify_faulted(&trace, method, S);
            assert!(
                violations.is_empty(),
                "{} unhit by duplicate yet structurally off: {violations:?}",
                method.name()
            );
        }
    }
    assert!(fired > 0, "no duplicate fault ever fired across the sweep");
}

/// A dropped completion surfaces as a non-retriable timeout; recovery
/// re-posts and the pre-fault prefix must still verify strictly while the
/// whole trace (recovery included) stays hazard-free.
#[test]
fn dropped_completions_recover_with_clean_prefix_verification() {
    let mut fired = 0;
    for method in MethodKind::ALL {
        let plan = FaultPlan::new(23).with(FaultSite::Wait, 1, FaultAction::Drop);
        let (trace, hits) = perturbed_trace(method, plan);
        fired += hits;
        assert_schedule_clean(method, &trace, "drop");
    }
    assert!(fired > 0, "no drop fault ever fired across the sweep");
}

/// The pipelined s-step flagship under a compound plan — a delayed wait
/// (within the retry budget) *and* a perturbed reduction — stays clean
/// end to end.
#[test]
fn compound_fault_plan_on_pipescg_is_clean() {
    let plan = FaultPlan::new(24)
        .with(FaultSite::Wait, 1, FaultAction::Delay { ticks: 2 })
        .with(FaultSite::Reduce, 2, FaultAction::Perturb { eps: 1e-13 });
    let (trace, hits) = perturbed_trace(MethodKind::PipeScg, plan);
    assert!(hits > 0, "compound plan never fired");
    assert_schedule_clean(MethodKind::PipeScg, &trace, "delay+perturb");
}

/// A delay longer than the retry budget forces the supervisor to give up
/// on the handle and restart. It must *drain* the still-pending
/// reduction first — abandoning it would leave a collective in flight
/// under the restart's new posts, which the fault-aware hazard classes
/// (`AbandonedTimeout`, concurrent-on-comm) exist to catch. The restart
/// legitimately reshapes the schedule, so only the hazard pass applies.
#[test]
fn exhausted_retry_budget_drains_the_handle_instead_of_abandoning_it() {
    for method in [
        MethodKind::Pipecg,
        MethodKind::PipeScg,
        MethodKind::PipePscg,
    ] {
        let plan = FaultPlan::new(25).with(FaultSite::Wait, 1, FaultAction::Delay { ticks: 5 });
        let (trace, hits) = perturbed_trace(method, plan);
        assert!(hits > 0, "{}: over-budget delay never fired", method.name());
        let report = analyze(&trace);
        assert!(
            report.is_clean(),
            "{} abandoned a reduction across its restart: {report:?}",
            method.name()
        );
    }
}
