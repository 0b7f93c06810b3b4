//! The robustness acceptance bar: for every shipped method, a mid-solve
//! bitflip, a NaN'd preconditioner output, and a dropped reduction
//! completion must each end in one of exactly two outcomes —
//!
//! 1. convergence whose *recomputed* residual `‖b − A x‖ / ‖b‖` confirms
//!    the tolerance (possibly after residual replacement / restart), or
//! 2. an explicit [`SolveError`].
//!
//! Never a hang — every solve runs on a worker thread under a wall-clock
//! watchdog, so a method that blocks fails *fast* with its name and the
//! armed plan echoed instead of eating the suite's timeout — and never a
//! silent wrong answer (claimed convergence contradicted by the
//! recomputed residual).

use std::sync::mpsc;
use std::time::Duration;

use pipescg::methods::MethodKind;
use pipescg::solver::SolveOptions;
use pscg_fault::{FaultAction, FaultPlan, FaultSite};
use pscg_precond::Jacobi;
use pscg_sim::SimCtx;
use pscg_sparse::stencil::{poisson3d_7pt, Grid3};

const RTOL: f64 = 1e-7;

fn problem() -> (pscg_sparse::CsrMatrix, Vec<f64>) {
    let g = Grid3::cube(6);
    let a = poisson3d_7pt(g, None);
    let n = a.nrows();
    let xstar: Vec<f64> = (0..n).map(|i| (0.31 * i as f64).sin()).collect();
    let b = a.mul_vec(&xstar);
    (a, b)
}

/// What the worker thread observed, sent back for the watchdog to judge.
struct CampaignVerdict {
    hits: usize,
    /// `Some((stop, final_relres, true_relres))` for an accepted result,
    /// `None` for an explicit error (also an acceptable outcome).
    accepted: Option<(String, f64, f64)>,
    error: Option<String>,
}

/// Solves `method` under `plan` through the resilient supervisor and
/// enforces the recover-or-report contract, with a wall-clock watchdog: a
/// solve that produces no verdict within 60 s fails fast with the method
/// name and the plan echoed. Returns how many faults the injector applied.
fn assert_recovers_or_reports(method: MethodKind, plan: FaultPlan, label: &str) -> usize {
    let plan_text = plan.to_text();
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let (a, b) = problem();
        let mut ctx = SimCtx::serial(&a, Box::new(Jacobi::new(&a)));
        ctx.arm_faults(plan);
        let opts = SolveOptions::with_rtol(RTOL).with_s(3);
        let outcome = method.solve_resilient(&mut ctx, &b, None, &opts);
        let hits = ctx.fault_log().len();
        let v = match outcome {
            Ok(res) => CampaignVerdict {
                hits,
                accepted: res.converged().then(|| {
                    (
                        format!("{:?}", res.stop),
                        res.final_relres,
                        res.true_relres(&a, &b),
                    )
                }),
                error: None,
            },
            Err(e) => CampaignVerdict {
                hits,
                accepted: None,
                error: Some(e.to_string()),
            },
        };
        let _ = tx.send(v);
    });
    let v = match rx.recv_timeout(Duration::from_secs(60)) {
        Ok(v) => v,
        Err(mpsc::RecvTimeoutError::Timeout) => panic!(
            "{} [{label}]: HANG — no verdict within 60s under plan:\n{plan_text}",
            method.name()
        ),
        Err(mpsc::RecvTimeoutError::Disconnected) => panic!(
            "{} [{label}]: worker died without a verdict under plan:\n{plan_text}",
            method.name()
        ),
    };
    if let Some((stop, relres, t)) = &v.accepted {
        assert!(
            t.is_finite() && *t <= RTOL * 100.0,
            "{} [{label}]: silent wrong answer — reported {stop} at relres \
             {relres:.3e} but true relres is {t:.3e}",
            method.name(),
        );
    }
    if let Some(e) = &v.error {
        // An explicit error is an acceptable outcome — the solver refused
        // to vouch for a solution it could not verify.
        eprintln!("{} [{label}]: explicit error: {e}", method.name());
    }
    v.hits
}

#[test]
fn every_method_survives_a_mid_solve_bitflip() {
    for method in MethodKind::ALL {
        // A high-mantissa flip in the 4th SpMV output: a large silent data
        // corruption well after the solve is under way.
        let plan = FaultPlan::new(11).with(FaultSite::Spmv, 3, FaultAction::BitFlip { bit: 51 });
        let hits = assert_recovers_or_reports(method, plan, "spmv bitflip");
        assert!(hits >= 1, "{}: the bitflip never fired", method.name());
    }
}

#[test]
fn every_method_survives_a_nan_preconditioner_output() {
    for method in MethodKind::ALL {
        let plan = FaultPlan::new(12).with(FaultSite::Pc, 1, FaultAction::Nan);
        // Unpreconditioned methods apply the PC only once (the reference
        // norm), so the 2nd-invocation fault may simply never fire — that
        // is a clean solve, which trivially satisfies the contract.
        assert_recovers_or_reports(method, plan, "pc nan");
    }
}

#[test]
fn every_method_survives_a_dropped_reduction_completion() {
    for method in MethodKind::ALL {
        // Drop the completion of the 2nd non-blocking reduction wait. In
        // the simulator this retires the handle and reports a timeout —
        // the solver must turn it into recovery or an explicit error, not
        // a hang. Methods with only blocking reductions never wait, so the
        // fault stays dormant and the solve is clean.
        let plan = FaultPlan::new(13).with(FaultSite::Wait, 1, FaultAction::Drop);
        assert_recovers_or_reports(method, plan, "dropped completion");
    }
}

#[test]
fn combined_campaign_still_ends_in_a_verdict() {
    // All three fault classes in one plan, plus a perturbed reduction: the
    // worst case the CI fault-matrix job exercises.
    for method in MethodKind::ALL {
        let plan = FaultPlan::new(14)
            .with(FaultSite::Spmv, 2, FaultAction::BitFlip { bit: 50 })
            .with(FaultSite::Reduce, 3, FaultAction::Perturb { eps: 1e-3 })
            .with(FaultSite::Wait, 2, FaultAction::Drop);
        let hits = assert_recovers_or_reports(method, plan, "combined");
        assert!(hits >= 1, "{}: no fault fired", method.name());
    }
}

#[test]
fn data_faults_composed_with_a_rank_death_still_end_in_a_verdict() {
    // The chaos generator mixes data corruption with rank failure; the
    // recover-or-report contract must hold for the composition too.
    for method in MethodKind::ALL {
        let plan = FaultPlan::new(15)
            .with(FaultSite::Spmv, 4, FaultAction::BitFlip { bit: 48 })
            .with(FaultSite::Wait, 1, FaultAction::Delay { ticks: 2 })
            .with_rank_dead(3, 6)
            .with_rank_slow(5, 4.0, 2);
        assert_recovers_or_reports(method, plan, "data + rank death");
    }
}
