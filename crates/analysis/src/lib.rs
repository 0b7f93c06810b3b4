//! Static communication-schedule analyzer for the PIPE-PsCG reproduction.
//!
//! The simulator ([`pscg_sim`]) answers "how long does this schedule take?";
//! this crate answers "is this schedule *correct and shaped as Table I
//! claims*?" — with zero reliance on the machine model or simulated timing.
//! It consumes the same logical [`OpTrace`] the replay engine uses, lifted
//! into an operation-dependency view:
//!
//! * [`dag`] — overlap windows (post → wait spans of each `MPI_Iallreduce`)
//!   and the kernels scheduled inside them.
//! * [`hazards`] — the silent-corruption bug classes of Cools & Vanroose:
//!   reading a reduction result before its wait, overwriting a buffer the
//!   in-flight reduction still owns, and collective-discipline violations
//!   (double posts, leaked handles, concurrent collectives on one
//!   communicator).
//! * [`structure`] — per-method verification that the trace realises the
//!   Table I shape: allreduce cadence, blocking vs non-blocking discipline,
//!   and exactly which kernels hide behind each pending reduction.
//! * [`probes`] — debug-mode numerical probes over the recorded residual
//!   history (NaN/Inf, monotone stagnation).
//!
//! The entry point is [`analyze`]; method-aware checks are
//! [`structure::verify`].

#![warn(missing_docs)]

pub mod dag;
pub mod exit_codes;
pub mod hazards;
pub mod probes;
pub mod structure;

pub use dag::{ScheduleDag, Window, WindowKernels};
pub use exit_codes::FindingClass;
pub use hazards::Hazard;
pub use probes::ProbeFinding;
pub use structure::{verify, verify_faulted, MethodShape, Pipeline, StructureViolation};

use pscg_sim::OpTrace;

/// Default stagnation window for [`probes::scan`]: a healthy CG run on the
/// test problems improves its best residual at least once every ~50
/// convergence checks.
pub const DEFAULT_STAGNATION_WINDOW: usize = 50;

/// Everything the analyzer can say about a trace without knowing which
/// method produced it.
#[derive(Debug, Clone)]
pub struct Report {
    /// Overlap hazards (read-before-wait, write-after-post, collective
    /// discipline violations). Any entry means the schedule is wrong on a
    /// real MPI machine, even if it happens to produce correct numbers on
    /// one rank.
    pub hazards: Vec<Hazard>,
    /// Numerical probe findings over the residual history.
    pub probes: Vec<ProbeFinding>,
    /// The overlap windows of the schedule (post → wait spans), for
    /// inspection and for [`structure::verify`].
    pub windows: Vec<Window>,
}

impl Report {
    /// True when no hazard was found. Probe findings do *not* make a trace
    /// unclean — a stagnating run can still have a correct schedule.
    pub fn is_clean(&self) -> bool {
        self.hazards.is_empty()
    }
}

/// Runs every method-agnostic check over a trace.
pub fn analyze(trace: &OpTrace) -> Report {
    Report {
        hazards: hazards::detect(trace),
        probes: probes::scan(trace, DEFAULT_STAGNATION_WINDOW),
        windows: ScheduleDag::build(trace).windows,
    }
}
