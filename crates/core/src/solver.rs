//! Solver framework: options, convergence criteria, results.
//!
//! The paper checks convergence as `‖u_i‖ < max(rtol·‖b‖, atol)` (§VI-E),
//! where the norm may be taken of the preconditioned residual `u = M⁻¹r`,
//! the unpreconditioned residual `r`, or the "natural" norm `√(r, u)`. A
//! selling point of PIPE-PsCG is that it can evaluate *any* of the three
//! without extra PC or SPMV kernels; [`NormType`] threads that choice
//! through every method.

use pscg_sim::OpCounters;

/// Which residual norm the convergence test uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum NormType {
    /// `‖M⁻¹ r‖` — the PETSc default the paper quotes.
    #[default]
    Preconditioned,
    /// `‖r‖`.
    Unpreconditioned,
    /// `√(r, M⁻¹r)`.
    Natural,
}

impl NormType {
    /// Selects the squared norm value from the triple
    /// `(r·r, u·u, r·u)` that every method's reduction carries.
    pub fn pick_sq(self, rr: f64, uu: f64, ru: f64) -> f64 {
        match self {
            NormType::Unpreconditioned => rr,
            NormType::Preconditioned => uu,
            NormType::Natural => ru,
        }
    }

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            NormType::Preconditioned => "preconditioned",
            NormType::Unpreconditioned => "unpreconditioned",
            NormType::Natural => "natural",
        }
    }
}

/// Which norm of `b` the convergence threshold `rtol·‖b‖` uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RefNorm {
    /// The same norm as the residual test (`‖M⁻¹b‖` for the preconditioned
    /// norm, etc.) — the PETSc convention, and the library default because
    /// it makes `rtol` mean the same thing for every preconditioner.
    #[default]
    Matched,
    /// The plain 2-norm `‖b‖`, as the paper's §VI-E formula literally
    /// states — used by the figure harness for paper-exact runs.
    PlainB,
}

/// Self-stabilization knobs threaded through every solver loop.
///
/// The default is fully inert: no drift probes, no checkpoints, no extra
/// kernel or communication calls — a solve with `Resilience::default()` is
/// bitwise-identical to one before these knobs existed. [`Resilience::armed`]
/// is the configuration the resilient supervisor
/// (`MethodKind::solve_resilient`) uses when the caller did not choose one.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Resilience {
    /// Recompute the true residual `‖b − A x‖` every this many convergence
    /// checks and compare it against the recurrence residual (0 = never).
    /// Costs one SPMV (plus one PC for preconditioned norms) and one
    /// blocking allreduce per probe.
    pub drift_check_every: usize,
    /// The probe flags drift when the true relative residual exceeds
    /// `drift_tol ×` the recurrence value.
    pub drift_tol: f64,
    /// Save a last-good checkpoint (iterate + residual) every this many
    /// convergence checks (0 = never). On breakdown, drift or an exhausted
    /// reduction retry the loop rolls `x` back to the checkpoint before
    /// returning, so recovery restarts from a sane iterate.
    pub checkpoint_every: usize,
    /// Bounded retries of a timed-out non-blocking reduction completion
    /// before the loop gives up with [`StopReason::CommFault`]. Inert on
    /// clean runs: a completion that arrives first try never retries.
    pub reduce_retries: u32,
    /// Residual-replacement restarts the supervisor attempts before
    /// degrading to a clean PCG restart from the last-good iterate.
    pub max_replacements: u32,
    /// Iteration-progress deadline: the loop declares
    /// [`StopReason::Stalled`] when this much wall-clock time passes
    /// between convergence checks that improve the residual (0.0 = no
    /// watchdog). Converts any would-be hang into an explicit stop; costs
    /// one monotonic-clock read per check, no kernels, no communication.
    pub stall_timeout_secs: f64,
    /// Progress-count deadline: the loop declares [`StopReason::Stalled`]
    /// after this many *consecutive* convergence checks without residual
    /// improvement (0 = no watchdog). Deterministic companion to the
    /// wall-clock deadline — replayable test suites use this one.
    pub stall_checks: usize,
}

impl Default for Resilience {
    fn default() -> Self {
        Resilience {
            drift_check_every: 0,
            drift_tol: 100.0,
            checkpoint_every: 0,
            reduce_retries: 2,
            max_replacements: 2,
            stall_timeout_secs: 0.0,
            stall_checks: 0,
        }
    }
}

impl Resilience {
    /// The active configuration used by the resilient supervisor: drift
    /// probe every 16 checks at a 100× gap, checkpoints every 8 checks,
    /// 2 reduction retries, 2 replacement restarts, and a 300 s
    /// no-progress wall-clock watchdog.
    pub fn armed() -> Self {
        Resilience {
            drift_check_every: 16,
            drift_tol: 100.0,
            checkpoint_every: 8,
            reduce_retries: 2,
            max_replacements: 2,
            stall_timeout_secs: 300.0,
            stall_checks: 0,
        }
    }

    /// True when probes, checkpoints and stall watchdogs are all disabled
    /// (the in-loop state machine then never issues an extra operation —
    /// not even a clock read).
    pub fn passive(&self) -> bool {
        self.drift_check_every == 0
            && self.checkpoint_every == 0
            && self.stall_timeout_secs == 0.0
            && self.stall_checks == 0
    }
}

/// Solver configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SolveOptions {
    /// Relative tolerance (`rtol`); the paper uses 1e-5 (Poisson, PETSc
    /// default) and 1e-2 (ecology2, OpenFOAM default).
    pub rtol: f64,
    /// Absolute tolerance (`atol`).
    pub atol: f64,
    /// Maximum CG steps (s-step methods count s steps per iteration).
    pub max_iters: usize,
    /// Residual norm used in the convergence test.
    pub norm: NormType,
    /// Reference norm of `b` in the threshold.
    pub ref_norm: RefNorm,
    /// The s parameter of the s-step methods (ignored by the classic ones).
    pub s: usize,
    /// Self-stabilization knobs (default: fully inert).
    pub resilience: Resilience,
    /// Mixed-precision policy: ask the context to demote the
    /// preconditioner apply to fp32 for the fp64 outer loop. Only honoured
    /// by [`crate::resilience::solve_resilient`], whose true-residual
    /// drift probe and acceptance check gate the reduced precision — a
    /// failed attempt promotes back to fp64 and restarts, so the answer is
    /// never silently degraded.
    pub pc_fp32: bool,
}

impl Default for SolveOptions {
    fn default() -> Self {
        SolveOptions {
            rtol: 1e-5,
            atol: 1e-50,
            max_iters: 10_000,
            norm: NormType::default(),
            ref_norm: RefNorm::default(),
            s: 3,
            resilience: Resilience::default(),
            pc_fp32: false,
        }
    }
}

impl SolveOptions {
    /// Convenience: default options with the given `rtol`.
    pub fn with_rtol(rtol: f64) -> Self {
        SolveOptions {
            rtol,
            ..SolveOptions::default()
        }
    }

    /// Convenience: sets `s`.
    pub fn with_s(mut self, s: usize) -> Self {
        self.s = s;
        self
    }

    /// Convenience: sets the resilience configuration.
    pub fn with_resilience(mut self, resilience: Resilience) -> Self {
        self.resilience = resilience;
        self
    }

    /// Convergence threshold for a right-hand side of norm `bnorm`.
    pub fn threshold(&self, bnorm: f64) -> f64 {
        f64::max(self.rtol * bnorm, self.atol)
    }
}

/// Why the iteration stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopReason {
    /// The selected residual norm dropped below the threshold.
    Converged,
    /// `max_iters` CG steps were spent.
    MaxIterations,
    /// The iteration broke down (indefinite scalar system, NaN, …).
    Breakdown,
    /// Residual stagnation was detected (used by the hybrid driver).
    Stagnated,
    /// A non-blocking reduction completion kept timing out after the
    /// configured retries (injected communication fault).
    CommFault,
    /// The progress watchdog fired: no residual improvement within the
    /// configured wall-clock or check-count deadline
    /// ([`Resilience::stall_timeout_secs`] / [`Resilience::stall_checks`]).
    Stalled,
    /// A peer rank died mid-solve (the communicator reported a process
    /// failure); the supervisor decides between buddy reconstruction and
    /// [`SolveError::RankLost`].
    RankFailed,
}

/// Terminal failure of a resilient solve (`MethodKind::solve_resilient`):
/// the whole recovery ladder — residual replacement restarts, then a clean
/// PCG restart from the last-good iterate — was exhausted.
#[derive(Debug, Clone, PartialEq)]
pub enum SolveError {
    /// No attempt reached the tolerance with a verified true residual.
    RecoveryExhausted {
        /// Stop reason of the final attempt.
        last_stop: StopReason,
        /// True relative residual of the best iterate produced.
        best_true_relres: f64,
        /// Total CG steps spent across all attempts.
        iterations: usize,
    },
    /// A rank died and its partition could not be reconstructed: the buddy
    /// holding the only in-memory checkpoint copy was dead too.
    RankLost {
        /// The rank whose partition is gone.
        rank: u32,
        /// Total CG steps spent before the loss.
        iterations: usize,
    },
}

impl std::fmt::Display for SolveError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SolveError::RecoveryExhausted {
                last_stop,
                best_true_relres,
                iterations,
            } => write!(
                f,
                "recovery ladder exhausted after {iterations} steps \
                 (last stop {last_stop:?}, best true relres {best_true_relres:.3e})"
            ),
            SolveError::RankLost { rank, iterations } => write!(
                f,
                "rank {rank} lost with its buddy checkpoint after {iterations} steps \
                 (partition unrecoverable)"
            ),
        }
    }
}

impl std::error::Error for SolveError {}

/// Result of one solve.
#[derive(Debug, Clone)]
pub struct SolveResult {
    /// The computed solution.
    pub x: Vec<f64>,
    /// CG steps performed (one s-step iteration counts s).
    pub iterations: usize,
    /// Why the solve stopped.
    pub stop: StopReason,
    /// Relative residual (selected norm / ‖b‖) at each convergence check.
    pub history: Vec<f64>,
    /// Relative residual at exit (as seen by the convergence test).
    pub final_relres: f64,
    /// Kernel/communication counters accumulated during the solve.
    pub counters: OpCounters,
    /// Method name (paper spelling: "PCG", "PIPECG", "PIPE-PsCG", …).
    pub method: &'static str,
}

impl SolveResult {
    /// True when the solve converged.
    pub fn converged(&self) -> bool {
        self.stop == StopReason::Converged
    }

    /// True 2-norm relative residual recomputed from scratch — used by
    /// tests to confirm the recurrence residuals did not drift silently.
    pub fn true_relres(&self, a: &pscg_sparse::CsrMatrix, b: &[f64]) -> f64 {
        let ax = a.mul_vec(&self.x);
        let mut r = b.to_vec();
        for (ri, axi) in r.iter_mut().zip(&ax) {
            *ri -= axi;
        }
        pscg_sparse::kernels::norm2(&r) / pscg_sparse::kernels::norm2(b).max(f64::MIN_POSITIVE)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn norm_type_picks_the_right_component() {
        let n = NormType::Unpreconditioned;
        assert_eq!(n.pick_sq(1.0, 2.0, 3.0), 1.0);
        assert_eq!(NormType::Preconditioned.pick_sq(1.0, 2.0, 3.0), 2.0);
        assert_eq!(NormType::Natural.pick_sq(1.0, 2.0, 3.0), 3.0);
    }

    #[test]
    fn threshold_takes_the_max() {
        let o = SolveOptions {
            rtol: 1e-2,
            atol: 1e-3,
            ..Default::default()
        };
        assert_eq!(o.threshold(1.0), 1e-2);
        assert_eq!(o.threshold(1e-4), 1e-3);
    }

    #[test]
    fn defaults_match_the_paper() {
        let o = SolveOptions::default();
        assert_eq!(o.rtol, 1e-5);
        assert_eq!(o.s, 3);
        assert_eq!(o.norm, NormType::Preconditioned);
    }
}
