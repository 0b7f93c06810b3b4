//! The iteration driver: the one statement of the stop policy.
//!
//! Every method ends a pass the same way — turn a reduced squared norm into
//! a relative residual, report it, decide whether to stop — and every failing
//! exit rolls the iterate back to the last-good checkpoint. [`Driver`] owns
//! the state that decision needs (reference norm, threshold, resilience
//! state, history, step count, iterate) and is the only code that sees the
//! threshold, so a method body cannot compare a residual with it, trusted or
//! not. Order of one [`Driver::check`]:
//!
//! 1. record: NaN-preserving `relres`, history, `note_residual`, telemetry;
//! 2. trust: an active rank failure is `RankFailed` (a dead peer poisons the
//!    sums; a NaN `relres` fails the comparison of step 3 by itself);
//! 3. `relres · ‖b‖ < threshold` → `Converged`;
//! 4. `max_iters` spent → `MaxIterations`;
//! 5. non-finite `relres` or the method's own predicate → `Breakdown`;
//! 6. the resilience hooks (checkpoint, drift probe, watchdog) → `Breakdown`
//!    / `Stalled`;
//! 7. the stagnation detector, when armed → `Stagnated`.
//!
//! `Converged`, `MaxIterations` and `Stagnated` keep the iterate; every other
//! exit — including [`Driver::reduce`] / [`Driver::wait`] failures and the
//! late breakdowns a method reports through [`Driver::fail`] — rolls back.

use pscg_obs::{StagnationConfig, StagnationDetector};
use pscg_sim::{Context, ReduceHandle};

use crate::methods::{global_ref_norm, init_residual, norm_from_sq};
use crate::resilience::{comm_stop, wait_reduction, CheckVerdict, ResilienceState};
use crate::solver::{SolveOptions, SolveResult, StopReason};
use crate::telemetry;

/// The step scalars a check reports to telemetry: the `α` and `β` the
/// recurrence last used and the `(r, u)` scalar where the method carries
/// one (`NaN` otherwise). Never read by the stop policy.
pub(crate) struct Scalars<'a>(pub &'a [f64], pub &'a [f64], pub f64);

/// Per-solve iteration state; see the module docs.
pub(crate) struct Driver<'a> {
    /// The iterate. Methods update it; failing exits roll it back.
    pub x: Vec<f64>,
    method: &'static str,
    b: &'a [f64],
    opts: &'a SolveOptions,
    bnorm: f64,
    threshold: f64,
    resil: ResilienceState,
    stagnation: Option<StagnationDetector>,
    history: Vec<f64>,
    iters: usize,
    stop: Option<StopReason>,
}

impl<'a> Driver<'a> {
    /// Reference norm (one PC, one blocking allreduce), resilience state and
    /// the shared init `x = x0`, `r = b − A x`; returns the driver and `r`.
    pub(crate) fn begin<C: Context>(
        ctx: &mut C,
        method: &'static str,
        b: &'a [f64],
        x0: Option<&[f64]>,
        opts: &'a SolveOptions,
        stagnation: Option<StagnationConfig>,
    ) -> (Self, Vec<f64>) {
        let bnorm = global_ref_norm(ctx, b, opts);
        let resil = ResilienceState::new(opts, bnorm);
        let (x, r) = init_residual(ctx, b, x0);
        if let Some(cfg) = stagnation {
            telemetry::set_stagnation(ctx, cfg);
        }
        let drv = Driver {
            x,
            method,
            b,
            opts,
            bnorm,
            threshold: opts.threshold(bnorm),
            resil,
            stagnation: stagnation.map(StagnationDetector::new),
            history: Vec::new(),
            iters: 0,
            stop: None,
        };
        (drv, r)
    }

    /// CG steps completed so far.
    pub(crate) fn iterations(&self) -> usize {
        self.iters
    }

    /// Counts `steps` completed CG steps.
    pub(crate) fn advance(&mut self, steps: usize) {
        self.iters += steps;
    }

    /// Blocking allreduce. `None` when a peer is dead: the supervisor owns
    /// the buddy rebuild, the loop only reports the typed failure.
    pub(crate) fn reduce<C: Context>(&mut self, ctx: &mut C, vals: &[f64]) -> Option<Vec<f64>> {
        let red = ctx.allreduce(vals);
        if ctx.rank_failure().is_some() {
            self.fail(ctx, StopReason::RankFailed);
            return None;
        }
        Some(red)
    }

    /// Completes a posted allreduce of `posted` with the bounded retry of
    /// [`wait_reduction`]. `None` on a timeout that outlived the retries
    /// (`CommFault`) or a dead peer (`RankFailed`; the handle is retired).
    pub(crate) fn wait<C: Context>(
        &mut self,
        ctx: &mut C,
        h: ReduceHandle,
        posted: &[f64],
    ) -> Option<Vec<f64>> {
        match wait_reduction(ctx, h, posted, self.opts.resilience.reduce_retries) {
            Ok(red) => Some(red),
            Err(e) => {
                self.fail(ctx, comm_stop(&e));
                None
            }
        }
    }

    /// Steps 1–4 of the module docs, for a residual no step has acted on yet
    /// (PCG tests its setup residual before the loop): there is nothing for
    /// the breakdown predicate or the resilience cadence to guard.
    pub(crate) fn check_initial<C: Context>(
        &mut self,
        ctx: &mut C,
        norms: [f64; 3],
        scalars: Scalars<'_>,
    ) -> Option<StopReason> {
        let relres = self.record(ctx, norms, scalars);
        let stop = self.settled(ctx, relres)?;
        self.end(ctx, stop)
    }

    /// One convergence check on the reduced `(r·r, u·u, r·u)` (see the
    /// module docs); `broke` is the method's breakdown predicate on the
    /// relative residual. `Some` ends the solve.
    pub(crate) fn check<C: Context>(
        &mut self,
        ctx: &mut C,
        norms: [f64; 3],
        scalars: Scalars<'_>,
        broke: impl FnOnce(f64) -> bool,
    ) -> Option<StopReason> {
        let relres = self.record(ctx, norms, scalars);
        let stop = if let Some(stop) = self.settled(ctx, relres) {
            stop
        } else if !relres.is_finite() || broke(relres) {
            StopReason::Breakdown
        } else {
            match self.resil.on_check(ctx, self.b, &self.x, relres) {
                CheckVerdict::Continue => {
                    // Fed only by checks that keep iterating: a residual
                    // that ended the loop above never reaches the rule.
                    if !self.stagnation.as_mut().is_some_and(|d| d.observe(relres)) {
                        return None;
                    }
                    telemetry::note_stagnation_fired(ctx);
                    StopReason::Stagnated
                }
                verdict => verdict.stop(),
            }
        };
        self.end(ctx, stop)
    }

    /// A late method-specific breakdown (scalar work, zero denominator) or
    /// communication failure: rolls back and ends the solve with `stop`.
    pub(crate) fn fail<C: Context>(&mut self, ctx: &mut C, stop: StopReason) {
        self.resil.rollback(ctx, &mut self.x);
        self.stop = Some(stop);
    }

    /// The result. A loop that left without a verdict has run out of steps.
    pub(crate) fn finish<C: Context>(self, ctx: &C) -> SolveResult {
        SolveResult {
            x: self.x,
            iterations: self.iters,
            stop: self.stop.unwrap_or(StopReason::MaxIterations),
            // History is never empty once a check ran, but a NaN fallback
            // beats an abort mid-solve when none did (failed first wait).
            final_relres: self.history.last().copied().unwrap_or(f64::NAN),
            history: self.history,
            counters: *ctx.counters(),
            method: self.method,
        }
    }

    fn record<C: Context>(&mut self, ctx: &mut C, norms: [f64; 3], scalars: Scalars<'_>) -> f64 {
        let sq = self.opts.norm.pick_sq(norms[0], norms[1], norms[2]);
        // NaN-preserving: a poisoned reduction fails the threshold and trips
        // the breakdown test instead of reading as a zero residual.
        let relres = norm_from_sq(sq) / self.bnorm;
        self.history.push(relres);
        ctx.note_residual(relres);
        let Scalars(alpha, beta, gamma) = scalars;
        telemetry::note_iter(ctx, self.iters, relres, norms, alpha, beta, gamma);
        relres
    }

    /// The verdicts that need no method knowledge. The failure test comes
    /// first: a poisoned norm must never be read as a residual.
    fn settled<C: Context>(&self, ctx: &C, relres: f64) -> Option<StopReason> {
        if ctx.rank_failure().is_some() {
            Some(StopReason::RankFailed)
        } else if relres * self.bnorm < self.threshold {
            Some(StopReason::Converged)
        } else if self.iters >= self.opts.max_iters {
            Some(StopReason::MaxIterations)
        } else {
            None
        }
    }

    fn end<C: Context>(&mut self, ctx: &mut C, stop: StopReason) -> Option<StopReason> {
        match stop {
            StopReason::Converged | StopReason::MaxIterations | StopReason::Stagnated => {
                self.stop = Some(stop)
            }
            _ => self.fail(ctx, stop),
        }
        Some(stop)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resilience::code::ROLLBACK;
    use crate::solver::Resilience;
    use crate::sstep::diverged;
    use pscg_fault::{FaultAction, FaultPlan, FaultSite};
    use pscg_sim::SimCtx;
    use pscg_sparse::{CsrMatrix, IdentityOp};

    /// How a row poisons the engine before the action under test.
    #[derive(Clone, Copy, PartialEq)]
    enum Engine {
        Clean,
        /// A peer died at an earlier collective.
        DeadPeer,
        /// The posted reduction's completion outlives the retry budget.
        LateWait,
    }

    /// What a row does with the primed driver.
    #[derive(Clone, Copy)]
    enum Act {
        /// `check` on `(r·r, u·u, r·u)` after `iters` steps, with the s-step
        /// predicate.
        Check([f64; 3], usize),
        Reduce,
        Wait,
        Fail,
    }

    /// ‖b‖ = 5 under the identity preconditioner: threshold 0.05 at `RTOL`.
    const B: [f64; 4] = [3.0, 4.0, 0.0, 0.0];
    const RTOL: f64 = 1e-2;
    const MAX_ITERS: usize = 10;
    /// `u·u` of a converged residual, and of one that is not.
    const TINY: f64 = 1e-6;
    const BIG: f64 = 1.0;

    /// Primes a driver with a checkpoint of a known iterate, dirties the
    /// iterate, poisons the engine, runs `act`; returns the stop, whether
    /// the iterate is the checkpointed one again, and the rollback count.
    fn run(engine: Engine, act: Act) -> (Option<StopReason>, bool, usize) {
        let a =
            CsrMatrix::from_raw_parts(4, 4, vec![0, 1, 2, 3, 4], vec![0, 1, 2, 3], vec![2.0; 4])
                .unwrap();
        let mut ctx = SimCtx::serial(&a, Box::new(IdentityOp::new(4)));
        let plan = match engine {
            Engine::Clean => FaultPlan::new(1),
            // Collective 0 is the reference norm; the next one kills rank 1.
            Engine::DeadPeer => FaultPlan::new(1).with_rank_dead(1, 1),
            Engine::LateWait => {
                FaultPlan::new(1).with(FaultSite::Wait, 0, FaultAction::Delay { ticks: 9 })
            }
        };
        ctx.arm_faults(plan);
        let opts = SolveOptions {
            rtol: RTOL,
            max_iters: MAX_ITERS,
            resilience: Resilience {
                checkpoint_every: 1,
                ..Resilience::default()
            },
            ..SolveOptions::default()
        };
        let (mut drv, _r) = Driver::begin(&mut ctx, "test", &B, None, &opts, None);
        let none = || Scalars(&[], &[], f64::NAN);
        // A healthy first check checkpoints x = 1.
        drv.x.fill(1.0);
        assert_eq!(drv.check(&mut ctx, [BIG; 3], none(), |_| false), None);
        drv.x.fill(2.0);

        let stop = match act {
            Act::Check(norms, iters) => {
                if engine == Engine::DeadPeer {
                    ctx.allreduce(&[0.0]);
                }
                drv.advance(iters);
                drv.check(&mut ctx, norms, none(), diverged(norms))
            }
            Act::Reduce => {
                assert!(drv.reduce(&mut ctx, &[1.0]).is_none() || engine == Engine::Clean);
                drv.stop
            }
            Act::Wait => {
                let h = ctx.iallreduce(&[1.0]);
                assert!(drv.wait(&mut ctx, h, &[1.0]).is_none() || engine == Engine::Clean);
                drv.stop
            }
            Act::Fail => {
                drv.fail(&mut ctx, StopReason::Breakdown);
                drv.stop
            }
        };
        let rolled_back = drv.x.iter().all(|&v| v == 1.0);
        let rollbacks = ctx
            .recovery_log()
            .iter()
            .filter(|&&c| c == ROLLBACK)
            .count();
        assert_eq!(
            drv.finish(&ctx).stop,
            stop.unwrap_or(StopReason::MaxIterations)
        );
        (stop, rolled_back, rollbacks)
    }

    #[test]
    fn stop_policy_table() {
        use Engine::*;
        use StopReason::*;
        let nan = f64::NAN;
        #[rustfmt::skip]
        let rows: [(&str, Engine, Act, Option<StopReason>); 17] = [
            ("keeps iterating",            Clean,    Act::Check([BIG; 3], 1),             None),
            ("converged",                  Clean,    Act::Check([BIG, TINY, BIG], 1),     Some(Converged)),
            ("-eps is rounding, not poison", Clean,  Act::Check([BIG, -1e-300, BIG], 1),  Some(Converged)),
            ("NaN norm",                   Clean,    Act::Check([BIG, nan, BIG], 1),      Some(Breakdown)),
            ("-inf norm",                  Clean,    Act::Check([BIG, -f64::INFINITY, BIG], 1), Some(Breakdown)),
            ("+inf norm",                  Clean,    Act::Check([BIG, f64::INFINITY, BIG], 1),  Some(Breakdown)),
            ("negative (r,u)",             Clean,    Act::Check([BIG, BIG, -0.5], 1),     Some(Breakdown)),
            ("relres > 1e8",               Clean,    Act::Check([BIG, 1e20, BIG], 1),     Some(Breakdown)),
            ("dead peer, tiny norm",       DeadPeer, Act::Check([TINY; 3], 1),            Some(RankFailed)),
            ("dead peer, NaN norm",        DeadPeer, Act::Check([nan; 3], 1),             Some(RankFailed)),
            ("converged on the last step", Clean,    Act::Check([BIG, TINY, BIG], MAX_ITERS), Some(Converged)),
            ("out of steps",               Clean,    Act::Check([BIG; 3], MAX_ITERS),     Some(MaxIterations)),
            ("out of steps outranks NaN",  Clean,    Act::Check([BIG, nan, BIG], MAX_ITERS), Some(MaxIterations)),
            ("reduce, dead peer",          DeadPeer, Act::Reduce,                         Some(RankFailed)),
            ("wait, dead peer",            DeadPeer, Act::Wait,                           Some(RankFailed)),
            ("wait, retries exhausted",    LateWait, Act::Wait,                           Some(CommFault)),
            ("late breakdown",             Clean,    Act::Fail,                           Some(Breakdown)),
        ];
        for (name, engine, act, want) in rows {
            let (stop, rolled_back, rollbacks) = run(engine, act);
            assert_eq!(stop, want, "{name}");
            // Every failing exit rolls back exactly once; the others keep
            // the iterate.
            let failing = !matches!(stop, None | Some(Converged | MaxIterations));
            assert_eq!(
                (rolled_back, rollbacks),
                (failing, failing as usize),
                "{name}"
            );
        }
        // The healthy engine reduces and waits.
        assert_eq!(run(Clean, Act::Reduce).0, None);
        assert_eq!(run(Clean, Act::Wait).0, None);
    }

    #[test]
    fn setup_check_skips_the_predicate_and_the_resilience_cadence() {
        let a = CsrMatrix::from_raw_parts(1, 1, vec![0, 1], vec![0], vec![2.0]).unwrap();
        let mut ctx = SimCtx::serial(&a, Box::new(IdentityOp::new(1)));
        let opts = SolveOptions::with_rtol(RTOL);
        let (mut drv, _r) = Driver::begin(&mut ctx, "test", &[5.0], None, &opts, None);
        let none = || Scalars(&[], &[], f64::NAN);
        assert_eq!(drv.check_initial(&mut ctx, [f64::NAN; 3], none()), None);
        assert_eq!(
            drv.check_initial(&mut ctx, [TINY; 3], none()),
            Some(StopReason::Converged)
        );
        let res = drv.finish(&ctx);
        assert_eq!(res.history.len(), 2);
        assert_eq!(res.final_relres, TINY.sqrt() / 5.0);
    }

    #[test]
    fn stagnation_fires_only_on_checks_that_keep_iterating() {
        let a = CsrMatrix::from_raw_parts(1, 1, vec![0, 1], vec![0], vec![2.0]).unwrap();
        let mut ctx = SimCtx::serial(&a, Box::new(IdentityOp::new(1)));
        let opts = SolveOptions::with_rtol(1e-12);
        let rule = StagnationConfig {
            window: 2,
            min_ratio: 0.5,
        };
        let (mut drv, _r) = Driver::begin(&mut ctx, "test", &[5.0], None, &opts, Some(rule));
        let none = || Scalars(&[], &[], f64::NAN);
        drv.x.fill(7.0);
        assert_eq!(drv.check(&mut ctx, [BIG; 3], none(), |_| false), None);
        assert_eq!(drv.check(&mut ctx, [BIG; 3], none(), |_| false), None);
        assert_eq!(
            drv.check(&mut ctx, [BIG; 3], none(), |_| false),
            Some(StopReason::Stagnated)
        );
        // A handoff, not a failure: the iterate is kept.
        assert_eq!(drv.finish(&ctx).x, [7.0]);
    }
}
