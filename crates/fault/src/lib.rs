//! # pscg-fault — deterministic fault injection for the solver engines
//!
//! Pipelined and s-step CG variants trade synchronization for numerical
//! fragility: a flipped mantissa bit in an SPMV output, a poisoned
//! preconditioner application, or a lost non-blocking reduction completion
//! can silently derail the recurrence (Cools & Vanroose, arXiv:1706.05988).
//! This crate provides the *injection* half of proving the solvers survive:
//!
//! * [`FaultPlan`] — a seeded, fully deterministic campaign description:
//!   which invocation of which kernel/communication site is corrupted, and
//!   how. Plans round-trip through a small line-oriented text format so the
//!   `repro` driver can load them from a file (`--fault-plan`) or the
//!   `PSCG_FAULTS` environment variable.
//! * [`Injector`] — the runtime that engines arm. It counts invocations per
//!   site, applies the scheduled corruption (mantissa bit flips, NaN/Inf,
//!   relative perturbation, dropped/delayed/duplicated reduction
//!   completions) and keeps a [`FaultRecord`] log of everything it did.
//!
//! Plans may also schedule *rank-level* machine events ([`RankEvent`]):
//! rank death (collectives involving the dead rank fail with a typed
//! error) and stragglers (collective completions stretched by a factor) —
//! the failure modes of the distributed machine itself rather than of the
//! data. On top of hand-written plans, [`chaos::generate`] draws a whole
//! plan from one seed, and [`shrink::shrink`] delta-debugs any
//! invariant-violating plan down to a minimal reproduction.
//!
//! Randomness (the corrupted element index within a vector) comes from the
//! in-tree [`pscg_sparse::rng::SplitMix64`] seeded from the plan, so a
//! campaign is reproducible bit-for-bit. The *detection and recovery* half
//! lives with the solvers (`pipescg::resilience`).

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]
#![cfg_attr(test, allow(clippy::float_cmp, reason = "tests compare exact bits"))]

pub mod chaos;
pub mod inject;
pub mod plan;
pub mod shrink;

pub use chaos::ChaosConfig;
pub use inject::{CompletionFault, FaultRecord, Injector};
pub use plan::{
    FaultAction, FaultEvent, FaultPlan, FaultSite, PlanError, PlanParseError, RankEvent, RankFault,
};
