//! Detection and recovery: the self-stabilization half of the fault story.
//!
//! The injection half lives in `pscg-fault` (armed on the engine via
//! `SimCtx::arm_faults`); this module gives the solver loops and callers
//! the tools to *survive* what it injects:
//!
//! * [`ResilienceState`] — per-solve in-loop state: a periodic true-residual
//!   **drift probe** (`‖b − A x‖` recomputed from scratch vs the recurrence
//!   residual, flagged beyond a configurable gap), plus **checkpointing** of
//!   the last-good iterate and rollback to it when the loop aborts.
//! * [`wait_reduction`] — bounded retry of a timed-out non-blocking
//!   reduction completion, re-posting the local contribution when the
//!   completion was dropped outright; a rank failure surfaces as a typed
//!   [`CommError::RankFailed`] instead of a value.
//! * **Buddy checkpointing + rank rebuild** — on the checkpoint cadence
//!   each rank also ships its iterate partition to a neighbor
//!   (`Context::buddy_put`); when a rank dies mid-solve the supervisor
//!   reconstructs the lost partition from the buddy copy
//!   (`Context::buddy_recover`), shrinks the communicator to the
//!   survivors and resumes — escalating to [`SolveError::RankLost`] only
//!   when the buddy is gone too.
//! * **Progress watchdog** — a wall-clock and/or check-count deadline on
//!   residual improvement ([`Resilience::stall_timeout_secs`] /
//!   [`Resilience::stall_checks`]) converts any would-be hang into an
//!   explicit [`StopReason::Stalled`].
//! * [`solve_resilient`] — the supervisor implementing the recovery ladder:
//!   run the method; verify the result against the true residual; on
//!   breakdown, communication fault or silent drift, perform a
//!   **residual-replacement restart** from the current (or rolled-back)
//!   iterate — which recomputes `r = b − A x` and rebuilds every `AQ`/`AP`
//!   basis block at solve start — up to
//!   [`Resilience::max_replacements`] times; finally degrade to a clean PCG
//!   restart from the best iterate seen. If that also fails, the caller
//!   gets an explicit [`SolveError`] — never a hang, never a silently wrong
//!   answer.
//!
//! Everything here is inert unless armed: `Resilience::default()` issues no
//! extra kernels, and on a fault-free run `try_wait` completes first try so
//! the retry loop never re-posts.

use pscg_sim::{BuddyRecovery, CommError, Context, ReduceHandle, WaitOutcome};

use crate::methods::MethodKind;
use crate::solver::{NormType, Resilience, SolveError, SolveOptions, SolveResult, StopReason};
use crate::telemetry;

/// Recovery-action codes carried in the `arg` of recovery spans.
pub mod code {
    /// A timed-out reduction completion was retried.
    pub const REDUCE_RETRY: u64 = 1;
    /// A dropped reduction was re-posted from the local contribution.
    pub const REDUCE_REPOST: u64 = 2;
    /// The iterate was rolled back to the last-good checkpoint.
    pub const ROLLBACK: u64 = 3;
    /// A residual-replacement restart was performed.
    pub const REPLACEMENT: u64 = 4;
    /// The ladder degraded to a clean PCG restart.
    pub const PCG_RESTART: u64 = 5;
    /// A still-pending reduction was drained (payload discarded) after the
    /// retry budget ran out, so the next attempt starts quiescent.
    pub const REDUCE_DRAIN: u64 = 6;
    /// The preconditioner apply was demoted to fp32 at solve start
    /// (`SolveOptions::pc_fp32`).
    pub const PC_DEMOTE: u64 = 7;
    /// The fp32 preconditioner apply was promoted back to fp64 after an
    /// attempt failed — the drift-probe-gated mixed-precision fallback.
    pub const PC_PROMOTE: u64 = 8;
    /// A dead rank's partition was rebuilt from its buddy's in-memory
    /// checkpoint and the solve resumed on the survivor communicator.
    pub const RANK_REBUILD: u64 = 9;
    /// The progress watchdog converted a stall into an explicit stop.
    pub const STALL_ABORT: u64 = 10;
}

/// True relative residual `‖b − A x‖ / refn` recomputed from scratch in the
/// convergence-test norm. One SPMV, one PC for preconditioned/natural
/// norms, one blocking allreduce — all charged through the context.
pub(crate) fn true_relres<C: Context + ?Sized>(
    ctx: &mut C,
    b: &[f64],
    x: &[f64],
    norm: NormType,
    refn: f64,
) -> f64 {
    let n = ctx.vec_len();
    // Plain buffers, not `alloc_vec`: probe scratch is not part of the
    // method's Table-I memory footprint.
    let mut ax = vec![0.0; n];
    ctx.spmv(x, &mut ax);
    let mut r = vec![0.0; n];
    ctx.waxpy(&mut r, -1.0, &ax, b);
    let sq = match norm {
        NormType::Unpreconditioned => {
            let rr = ctx.local_dot(&r, &r);
            ctx.allreduce(&[rr])[0]
        }
        NormType::Preconditioned | NormType::Natural => {
            let mut u = vec![0.0; n];
            ctx.pc_apply(&r, &mut u);
            let uu = ctx.local_dot(&u, &u);
            let ru = ctx.local_dot(&r, &u);
            let red = ctx.allreduce(&[uu, ru]);
            norm.pick_sq(f64::NAN, red[0], red[1])
        }
    };
    // NaN-preserving: this probe is the last line of defence against
    // accepting a corrupted iterate.
    crate::methods::norm_from_sq(sq) / refn.max(f64::MIN_POSITIVE)
}

/// Non-finite or negative γ-scalar breakdown guard: `(r, u)` (or any
/// positive-by-construction CG scalar) must stay finite and non-negative on
/// an SPD system. Pure comparison — no extra operations on clean runs.
#[inline]
pub(crate) fn gamma_breakdown(gamma: f64) -> bool {
    !gamma.is_finite() || gamma < 0.0
}

struct Checkpoint {
    x: Vec<f64>,
    relres: f64,
}

/// Verdict of one in-loop resilience check (see
/// [`ResilienceState::on_check`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum CheckVerdict {
    /// Nothing suspicious: keep iterating.
    Continue,
    /// The drift probe caught the recurrence residual lying — roll back
    /// and abort the attempt ([`StopReason::Breakdown`]).
    Drift,
    /// The progress watchdog fired: no residual improvement within the
    /// configured deadline — abort with [`StopReason::Stalled`].
    Stalled,
}

impl CheckVerdict {
    /// Loop-level stop reason for a non-`Continue` verdict.
    pub(crate) fn stop(self) -> StopReason {
        match self {
            CheckVerdict::Continue => unreachable!("Continue does not stop the loop"),
            CheckVerdict::Drift => StopReason::Breakdown,
            CheckVerdict::Stalled => StopReason::Stalled,
        }
    }
}

/// Per-solve in-loop resilience state: drift probe, checkpoint/rollback,
/// buddy checkpointing and the no-progress watchdog.
pub(crate) struct ResilienceState {
    cfg: Resilience,
    norm: NormType,
    refn: f64,
    checks: usize,
    ckpt: Option<Checkpoint>,
    /// Best (smallest) residual seen — "progress" means improving on it.
    best: f64,
    /// Consecutive checks without progress (the deterministic watchdog).
    stale: usize,
    /// Wall-clock instant of the last progress (the wall-clock watchdog);
    /// lazily initialized so passive configurations never read the clock.
    last_progress: Option<std::time::Instant>,
}

impl ResilienceState {
    pub(crate) fn new(opts: &SolveOptions, refn: f64) -> Self {
        ResilienceState {
            cfg: opts.resilience,
            norm: opts.norm,
            refn,
            checks: 0,
            ckpt: None,
            best: f64::INFINITY,
            stale: 0,
            last_progress: None,
        }
    }

    /// Called at every convergence check (after the check decided to keep
    /// iterating). Takes local and buddy checkpoints and/or runs the drift
    /// probe on their configured cadences, and advances the no-progress
    /// watchdog. With a passive configuration this is a single branch.
    pub(crate) fn on_check<C: Context + ?Sized>(
        &mut self,
        ctx: &mut C,
        b: &[f64],
        x: &[f64],
        relres: f64,
    ) -> CheckVerdict {
        if self.cfg.passive() {
            return CheckVerdict::Continue;
        }
        self.checks += 1;
        if self.cfg.checkpoint_every > 0
            && self.checks.is_multiple_of(self.cfg.checkpoint_every)
            && relres.is_finite()
            && self.ckpt.as_ref().is_none_or(|c| relres < c.relres)
        {
            self.ckpt = Some(Checkpoint {
                x: x.to_vec(),
                relres,
            });
            // The same cadence ships the iterate to the buddy rank, so a
            // single rank death stays repairable in memory.
            ctx.buddy_put(x);
        }
        if self.cfg.drift_check_every > 0 && self.checks.is_multiple_of(self.cfg.drift_check_every)
        {
            let t = true_relres(ctx, b, x, self.norm, self.refn);
            let lying = !relres.is_finite()
                || !t.is_finite()
                || t > self.cfg.drift_tol * relres.max(f64::MIN_POSITIVE);
            // `broken-resilience` plants a blinded drift probe so the
            // chaos gate can prove it catches a sabotaged ladder.
            if lying && cfg!(not(feature = "broken-resilience")) {
                return CheckVerdict::Drift;
            }
        }
        self.watchdog(relres)
    }

    /// The no-progress watchdog: progress (an improved finite residual)
    /// resets both deadlines; a check without progress advances them.
    fn watchdog(&mut self, relres: f64) -> CheckVerdict {
        let wall = self.cfg.stall_timeout_secs > 0.0;
        let count = self.cfg.stall_checks > 0;
        if !wall && !count {
            return CheckVerdict::Continue;
        }
        if relres.is_finite() && relres < self.best {
            self.best = relres;
            self.stale = 0;
            if wall {
                self.last_progress = Some(std::time::Instant::now());
            }
            return CheckVerdict::Continue;
        }
        self.stale += 1;
        if count && self.stale >= self.cfg.stall_checks {
            return CheckVerdict::Stalled;
        }
        if wall {
            let since = self
                .last_progress
                .get_or_insert_with(std::time::Instant::now)
                .elapsed();
            if since.as_secs_f64() > self.cfg.stall_timeout_secs {
                return CheckVerdict::Stalled;
            }
        }
        CheckVerdict::Continue
    }

    /// Rolls `x` back to the last-good checkpoint; true when one existed.
    pub(crate) fn rollback<C: Context + ?Sized>(&mut self, ctx: &mut C, x: &mut [f64]) -> bool {
        match self.ckpt.take() {
            Some(c) => {
                x.copy_from_slice(&c.x);
                telemetry::note_recovery(ctx, code::ROLLBACK);
                true
            }
            None => false,
        }
    }
}

/// Completes a posted reduction with bounded retry-with-backoff: a delayed
/// completion is waited on again (up to `retries` times, each attempt a
/// backoff tick), a dropped one is re-posted from `local`. A rank failure
/// is not retriable — the handle is already retired and the typed error
/// goes straight to the supervisor. On a clean run the first `try_wait`
/// succeeds and this is exactly [`Context::wait`].
pub(crate) fn wait_reduction<C: Context + ?Sized>(
    ctx: &mut C,
    mut h: ReduceHandle,
    local: &[f64],
    retries: u32,
) -> Result<Vec<f64>, CommError> {
    let mut attempt = 0u32;
    loop {
        match ctx.try_wait(h) {
            WaitOutcome::Done(v) => return Ok(v),
            WaitOutcome::RankFailed(failure) => return Err(CommError::RankFailed(failure)),
            WaitOutcome::TimedOut { handle, fault } => {
                if attempt >= retries {
                    // Collective discipline: never abandon an in-flight
                    // reduction — the escalation path (restart) would post
                    // new collectives over it. Drain it, discard the stale
                    // payload, and report the timeout from a quiescent
                    // communicator.
                    if let Some(h) = handle {
                        telemetry::note_recovery(ctx, code::REDUCE_DRAIN);
                        let _ = ctx.wait(h);
                    }
                    return Err(CommError::Timeout(fault));
                }
                attempt += 1;
                h = match handle {
                    Some(h) => {
                        telemetry::note_recovery(ctx, code::REDUCE_RETRY);
                        h
                    }
                    None => {
                        telemetry::note_recovery(ctx, code::REDUCE_REPOST);
                        ctx.iallreduce(local)
                    }
                };
            }
        }
    }
}

/// Maps a terminal communication error to its loop-level stop reason.
pub(crate) fn comm_stop(err: &CommError) -> StopReason {
    match err {
        CommError::Timeout(_) => StopReason::CommFault,
        CommError::RankFailed(_) => StopReason::RankFailed,
    }
}

/// The recovery-ladder supervisor (see module docs). Arms
/// [`Resilience::armed`] when the caller left the default (inert)
/// configuration, so every attempt checkpoints and drift-probes.
pub fn solve_resilient<C: Context>(
    method: MethodKind,
    ctx: &mut C,
    b: &[f64],
    x0: Option<&[f64]>,
    opts: &SolveOptions,
) -> Result<SolveResult, SolveError> {
    let mut opts = *opts;
    if opts.resilience == Resilience::default() {
        opts.resilience = Resilience::armed();
    }
    // Mixed-precision policy: try the fp32 preconditioner apply first. The
    // acceptance check below re-verifies every result against the
    // recomputed fp64 true residual, and the in-loop drift probe aborts a
    // lying recurrence — so reduced precision can cost a restart but never
    // a silently wrong answer. A failed attempt promotes back to fp64.
    if opts.pc_fp32 && ctx.pc_demote() {
        telemetry::note_recovery(ctx, code::PC_DEMOTE);
    }
    // `refn` is recomputed after a buddy rebuild (the survivor
    // communicator must agree on the reference norm), so the acceptance
    // check takes it as a parameter instead of capturing it.
    let mut refn = crate::methods::global_ref_norm(ctx, b, &opts);
    // A result is accepted only when the *recomputed* residual agrees that
    // the tolerance was met (small slack for the recurrence-vs-true gap a
    // healthy solve accumulates). The `broken-resilience` plant accepts
    // any finite residual — the sabotage the chaos gate must catch.
    let accept = |t: f64, refn: f64| {
        if cfg!(feature = "broken-resilience") {
            return t.is_finite();
        }
        t.is_finite() && t <= opts.rtol.max(opts.atol / refn.max(f64::MIN_POSITIVE)) * 10.0
    };

    let mut start: Option<Vec<f64>> = x0.map(|v| v.to_vec());
    let mut total_iters = 0usize;
    let mut history: Vec<f64> = Vec::new();
    let mut best: Option<(Vec<f64>, f64)> = None;
    let mut last = None;

    /// Merges one attempt into the ladder-wide result.
    fn merged(
        res: SolveResult,
        total_iters: usize,
        mut history: Vec<f64>,
        counters: pscg_sim::OpCounters,
    ) -> SolveResult {
        history.extend(res.history.iter().copied());
        SolveResult {
            iterations: total_iters,
            history,
            counters,
            ..res
        }
    }

    for attempt in 0..=opts.resilience.max_replacements {
        let res = method.solve(ctx, b, start.as_deref(), &opts);
        total_iters += res.iterations;
        if res.stop == StopReason::RankFailed {
            // The communicator is poisoned: repair it *before* issuing any
            // further collectives (the true-residual probe reduces).
            match ctx.buddy_recover() {
                BuddyRecovery::Lost { rank, .. } => {
                    pscg_obs::flight::dump_to_path("RankLost");
                    return Err(SolveError::RankLost {
                        rank,
                        iterations: total_iters,
                    });
                }
                BuddyRecovery::Restored { x, .. } => {
                    telemetry::note_recovery(ctx, code::RANK_REBUILD);
                    history.extend(res.history.iter().copied());
                    last = Some(res.stop);
                    // Resume from the buddy-checkpointed iterate; a death
                    // before the first checkpoint restarts from scratch.
                    // The failing attempt's iterate is poisoned — unusable.
                    start = x;
                    refn = crate::methods::global_ref_norm(ctx, b, &opts);
                    continue;
                }
                // An engine reporting RankFailed without an active failure
                // has already healed (e.g. a transient); fall through to
                // the ordinary replacement path.
                BuddyRecovery::NoFailure => {}
            }
        }
        let t = true_relres(ctx, b, &res.x, opts.norm, refn);
        if t.is_finite() && best.as_ref().is_none_or(|(_, bt)| t < *bt) {
            best = Some((res.x.clone(), t));
        }
        if res.converged() && accept(t, refn) {
            ctx.pc_promote();
            return Ok(merged(res, total_iters, history, *ctx.counters()));
        }
        // Honest budget exhaustion (no drift, no fault): report it as-is
        // rather than burning restarts on a solve that is simply slow.
        if res.stop == StopReason::MaxIterations
            && t.is_finite()
            && t <= opts.resilience.drift_tol * res.final_relres.max(f64::MIN_POSITIVE)
        {
            ctx.pc_promote();
            return Ok(merged(res, total_iters, history, *ctx.counters()));
        }
        history.extend(res.history.iter().copied());
        last = Some(res.stop);
        // Post-mortem snapshot of the failing attempt before recovery
        // mutates any state (no-op unless the flight recorder is armed).
        if matches!(res.stop, StopReason::Breakdown | StopReason::Stalled) {
            pscg_obs::flight::dump_to_path(res.stop.name());
        }
        if res.stop == StopReason::Stalled {
            telemetry::note_recovery(ctx, code::STALL_ABORT);
        }
        // fp64 fallback: a demoted preconditioner is the first suspect of
        // a failed attempt — promote before burning a restart on it.
        if ctx.pc_demoted() {
            ctx.pc_promote();
            telemetry::note_recovery(ctx, code::PC_PROMOTE);
        }
        if attempt < opts.resilience.max_replacements {
            // Residual replacement: restart from the best finite iterate —
            // the new solve recomputes r = b − A x and rebuilds the AQ/AP
            // basis blocks from scratch.
            telemetry::note_recovery(ctx, code::REPLACEMENT);
            start = Some(match &best {
                Some((x, _)) => x.clone(),
                None => res.x.clone(),
            });
        }
    }

    // Replacement failed max_replacements times: degrade gracefully to a
    // clean PCG restart from the last-good iterate (always full fp64).
    if ctx.pc_demoted() {
        ctx.pc_promote();
        telemetry::note_recovery(ctx, code::PC_PROMOTE);
    }
    telemetry::note_recovery(ctx, code::PCG_RESTART);
    let from = best.as_ref().map(|(x, _)| x.clone()).or(start);
    let res = MethodKind::Pcg.solve(ctx, b, from.as_deref(), &opts);
    total_iters += res.iterations;
    let t = true_relres(ctx, b, &res.x, opts.norm, refn);
    if res.converged() && accept(t, refn) {
        return Ok(merged(res, total_iters, history, *ctx.counters()));
    }
    let best_true = best.map(|(_, bt)| bt).unwrap_or(t);
    // The ladder is out of options: leave the flight recording of the
    // final (PCG-restart) attempt for post-mortem analysis.
    pscg_obs::flight::dump_to_path("RecoveryExhausted");
    Err(SolveError::RecoveryExhausted {
        last_stop: last.unwrap_or(res.stop),
        best_true_relres: best_true.min(t),
        iterations: total_iters,
    })
}

impl MethodKind {
    /// Solves with the full recovery ladder armed; see
    /// [`solve_resilient`]. Returns an explicit [`SolveError`] when the
    /// ladder is exhausted — never hangs, never returns a solution whose
    /// recomputed residual contradicts the reported convergence.
    pub fn solve_resilient<C: Context>(
        self,
        ctx: &mut C,
        b: &[f64],
        x0: Option<&[f64]>,
        opts: &SolveOptions,
    ) -> Result<SolveResult, SolveError> {
        solve_resilient(self, ctx, b, x0, opts)
    }
}
