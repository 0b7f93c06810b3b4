//! The rank-failure resilience acceptance bar, and the chaos harness's
//! own guarantees.
//!
//! Every solve here runs under a wall-clock watchdog: a method that hangs
//! fails *fast*, with the method name and the armed plan echoed in the
//! panic — the same never-hang contract `repro --chaos` enforces at scale.
//!
//! 1. Rank death mid-solve is survived by **every** method via buddy
//!    reconstruction (recovery code 9 in the engine's deterministic log),
//!    with the accepted answer's residual re-verified.
//! 2. When the buddy is dead too, the supervisor escalates to the
//!    explicit [`SolveError::RankLost`] — never a wrong answer.
//! 3. Straggler events never change the numerics (they only stretch the
//!    modelled timeline).
//! 4. The chaos-plan generator is deterministic and respects its bounds;
//!    the shrinker preserves a violation while minimizing the plan.

use std::sync::mpsc;
use std::time::Duration;

use pipescg::methods::MethodKind;
use pipescg::solver::{SolveError, SolveOptions};
use pscg_fault::{chaos, shrink, ChaosConfig, FaultPlan, RankFault};
use pscg_precond::Jacobi;
use pscg_sim::SimCtx;
use pscg_sparse::stencil::{poisson3d_7pt, Grid3};

const RTOL: f64 = 1e-7;

/// Recovery-ladder code of a buddy rank rebuild (resilience `code` table).
const RANK_REBUILD: u64 = 9;

fn problem() -> (pscg_sparse::CsrMatrix, Vec<f64>) {
    let g = Grid3::cube(6);
    let a = poisson3d_7pt(g, None);
    let n = a.nrows();
    let xstar: Vec<f64> = (0..n).map(|i| (0.31 * i as f64).sin()).collect();
    let b = a.mul_vec(&xstar);
    (a, b)
}

/// What one watched resilient solve produced, sent back over the channel.
struct Verdict {
    outcome: Result<(bool, f64, Vec<u64>, Vec<u64>), String>,
    recovery: Vec<u64>,
}

/// Solves `method` under `plan` on a worker thread and returns the verdict
/// within `deadline`, or panics with the method name and the plan echoed —
/// a hang must fail fast and reproducibly, not eat the suite's timeout.
fn solve_watched(method: MethodKind, plan: &FaultPlan, deadline: Duration) -> Verdict {
    let plan_text = plan.to_text();
    let plan = plan.clone();
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let (a, b) = problem();
        let mut ctx = SimCtx::serial(&a, Box::new(Jacobi::new(&a)));
        ctx.arm_faults(plan);
        let opts = SolveOptions::with_rtol(RTOL).with_s(3);
        let outcome = method.solve_resilient(&mut ctx, &b, None, &opts);
        let recovery = ctx.take_recovery_log();
        let outcome = match outcome {
            Ok(res) => Ok((
                res.converged(),
                res.true_relres(&a, &b),
                res.x.iter().map(|v| v.to_bits()).collect(),
                res.history.iter().map(|r| r.to_bits()).collect(),
            )),
            Err(e) => Err(match e {
                SolveError::RankLost { rank, .. } => format!("RankLost:{rank}"),
                other => format!("{other}"),
            }),
        };
        let _ = tx.send(Verdict { outcome, recovery });
    });
    match rx.recv_timeout(deadline) {
        Ok(v) => v,
        Err(mpsc::RecvTimeoutError::Timeout) => panic!(
            "{}: HANG — no verdict within {deadline:.0?} under plan:\n{plan_text}",
            method.name()
        ),
        Err(mpsc::RecvTimeoutError::Disconnected) => panic!(
            "{}: worker died without a verdict under plan:\n{plan_text}",
            method.name()
        ),
    }
}

#[test]
fn rank_death_mid_solve_is_survived_by_every_method() {
    for method in MethodKind::ALL {
        // Rank 2 dies at the 5th global collective: mid-solve for every
        // method (they all issue far more than five).
        let plan = FaultPlan::new(21).with_rank_dead(2, 4);
        let v = solve_watched(method, &plan, Duration::from_secs(60));
        match v.outcome {
            Ok((converged, t, _, _)) => {
                assert!(
                    converged,
                    "{}: did not converge after rank death",
                    method.name()
                );
                assert!(
                    t.is_finite() && t <= RTOL * 100.0,
                    "{}: silent wrong answer after rank rebuild (true relres {t:.3e})",
                    method.name()
                );
                assert!(
                    v.recovery.contains(&RANK_REBUILD),
                    "{}: converged but no RANK_REBUILD in recovery log {:?}",
                    method.name(),
                    v.recovery
                );
            }
            Err(e) => panic!(
                "{}: a single rank death with a live buddy must be survived, got {e}",
                method.name()
            ),
        }
    }
}

#[test]
fn dead_buddy_escalates_to_an_explicit_rank_lost_error() {
    // Ranks 2 and 3 die at the same collective: rank 3 is rank 2's buddy,
    // so the only in-memory checkpoint copy is gone with it.
    for method in [MethodKind::Pcg, MethodKind::PipePscg, MethodKind::Scg] {
        let plan = FaultPlan::new(22).with_rank_dead(2, 4).with_rank_dead(3, 4);
        let v = solve_watched(method, &plan, Duration::from_secs(60));
        match v.outcome {
            Err(e) if e == "RankLost:2" => {}
            Err(e) => panic!("{}: expected RankLost:2, got {e}", method.name()),
            Ok((converged, t, _, _)) => panic!(
                "{}: returned a result (converged {converged}, true relres {t:.3e}) \
                 after losing both the rank and its buddy",
                method.name()
            ),
        }
    }
}

#[test]
fn a_straggler_rank_never_changes_the_numerics() {
    // `rank_slow` only stretches the modelled timeline in replay; the
    // computed bits must match the un-faulted solve exactly.
    for method in [MethodKind::Pcg, MethodKind::PipePscg] {
        let clean = solve_watched(method, &FaultPlan::new(23), Duration::from_secs(60));
        let slow_plan = FaultPlan::new(23).with_rank_slow(5, 8.0, 2);
        let slow = solve_watched(method, &slow_plan, Duration::from_secs(60));
        let (c, s) = (clean.outcome.unwrap(), slow.outcome.unwrap());
        assert_eq!(c.2, s.2, "{}: solution bits changed", method.name());
        assert_eq!(c.3, s.3, "{}: history bits changed", method.name());
        assert!(
            slow.recovery.is_empty(),
            "{}: straggler triggered recovery",
            method.name()
        );
    }
}

#[test]
fn chaos_generator_is_deterministic_and_respects_bounds() {
    let cfg = ChaosConfig::default();
    for seed in [0u64, 7, 991] {
        let p1 = chaos::generate(seed, &cfg);
        let p2 = chaos::generate(seed, &cfg);
        assert_eq!(
            p1.to_text(),
            p2.to_text(),
            "seed {seed}: generator not deterministic"
        );
        assert!(p1.events.len() <= cfg.max_data_faults + cfg.max_completion_faults);
        assert!(p1.rank_events.len() <= cfg.max_rank_events);
        for rv in &p1.rank_events {
            assert!(
                rv.rank >= 1 && rv.rank < cfg.ranks,
                "rank 0 must never be targeted"
            );
        }
        // Round-trips through the plan text format.
        let reparsed = FaultPlan::parse(&p1.to_text()).unwrap();
        assert_eq!(reparsed.to_text(), p1.to_text());
    }
}

#[test]
fn shrinker_minimizes_a_rank_death_plan_to_its_killer_line() {
    // Oracle: the plan still kills rank 2 before collective 10. Decoys
    // (data faults, a straggler) must all be stripped.
    let plan = FaultPlan::parse(
        "seed 4\n\
         ranks 8\n\
         at spmv 5 bitflip 12\n\
         at pc 3 nan\n\
         rank_slow 4 2.0 1\n\
         rank_dead 2 6\n\
         at wait 2 delay 1\n",
    )
    .unwrap();
    let shrunk = shrink::shrink(&plan, |cand| {
        cand.rank_events
            .iter()
            .any(|rv| rv.kind == RankFault::Dead && rv.rank == 2 && rv.nth < 10)
    });
    assert!(
        shrunk.events.is_empty(),
        "decoy data faults survived: {}",
        shrunk.to_text()
    );
    assert_eq!(
        shrunk.rank_events.len(),
        1,
        "decoy rank events survived: {}",
        shrunk.to_text()
    );
    assert_eq!(shrunk.rank_events[0].kind, RankFault::Dead);
    assert_eq!(shrunk.rank_events[0].rank, 2);
    // The numeric pass drives nth toward 0 while the oracle keeps passing.
    assert_eq!(shrunk.rank_events[0].nth, 0);
}
