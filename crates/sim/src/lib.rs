//! Distributed-memory execution substrate for the PIPE-PsCG reproduction.
//!
//! The paper evaluates on a Cray XC40 with cray-mpich; this crate supplies
//! the equivalents built from scratch (see DESIGN.md §2 for the substitution
//! table):
//!
//! * [`machine`] / [`collective`] / [`noise`] — a calibrated machine model:
//!   roofline compute, α–β–log allreduce (flat and two-level), and a
//!   deterministic straggler-noise term that makes allreduce the dominant
//!   cost at scale, as the paper's §IV argues.
//! * [`profile`] — per-rank-count workload models (box/slab layouts with
//!   closed-form halos for stencils, exact scans for general matrices).
//! * [`trace`] / [`mod@replay`] — solvers record a logical operation trace once
//!   (real numerics), and the replay engine evaluates it for any rank count,
//!   with faithful `MPI_Iallreduce` overlap semantics including the
//!   async-progress requirement of the paper's §VI-A.
//! * [`context`] — the [`context::Context`] trait solvers are written
//!   against, with the single-rank tracing engine [`context::SimCtx`].
//! * [`thread`] — a real message-passing runtime on threads (deterministic
//!   non-blocking allreduces, halo exchange) and the per-rank
//!   [`thread::RankCtx`] engine, proving the solvers are genuinely SPMD.
//!
//! Traces carry buffer identities ([`trace::BufId`]) and communicator
//! identities ([`collective::CommId`]) so the `pscg-analysis` crate can
//! verify overlap schedules statically, without the machine model.

#![warn(missing_docs)]

pub mod collective;
pub mod context;
pub mod machine;
pub mod noise;
pub mod profile;
pub mod replay;
pub mod thread;
pub mod trace;

pub use collective::{
    AllreduceModel, CommError, CommId, InflightTracker, RankFailure, ReduceTimeout,
    ScheduleViolation, WaitOutcome,
};
pub use context::{BuddyRecovery, Context, OpCounters, RecurrenceStep, ReduceHandle, SimCtx};
pub use machine::Machine;
pub use noise::NoiseModel;
pub use profile::{Layout, MatrixProfile, SpmvWork};
pub use replay::{replay, ReplayResult};
pub use trace::{BufId, LocalKind, Op, OpTrace};
