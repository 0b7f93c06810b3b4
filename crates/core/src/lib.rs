//! # pipescg — Pipelined Preconditioned s-step Conjugate Gradient Methods
//!
//! A from-scratch reproduction of Tiwari & Vadhiyar, *"Pipelined
//! Preconditioned s-step Conjugate Gradient Methods for Distributed Memory
//! Systems"* (IEEE CLUSTER 2021): the PIPE-sCG / PIPE-PsCG methods, every
//! baseline they are evaluated against, the hybrid scheme, and the Table I
//! cost model.
//!
//! ## Quick start
//!
//! ```
//! use pipescg::methods::MethodKind;
//! use pipescg::solver::SolveOptions;
//! use pscg_precond::Jacobi;
//! use pscg_sim::SimCtx;
//! use pscg_sparse::stencil::{poisson3d_125pt, Grid3};
//!
//! // The paper's operator class: 3-D Poisson, 125-point stencil.
//! let a = poisson3d_125pt(Grid3::cube(10));
//! let b = vec![1.0; a.nrows()];
//! let mut ctx = SimCtx::serial(&a, Box::new(Jacobi::new(&a)));
//! let res = MethodKind::PipePscg.solve(&mut ctx, &b, None, &SolveOptions::default());
//! assert!(res.converged());
//! ```
//!
//! ## Architecture
//!
//! Solvers are written once against [`pscg_sim::Context`] and run on three
//! engines: a serial one, a tracing one whose recorded operation stream is
//! replayed against a machine model to produce the paper's scaling figures,
//! and a thread-backed message-passing engine that executes them as genuine
//! SPMD programs. See DESIGN.md for the full system inventory and the
//! per-experiment index.

#![allow(clippy::needless_range_loop, reason = "mirrors the paper's AQm[j]")]
#![warn(missing_docs)]
// Hot path: no unwrap/expect/panic! outside tests, no hash container (DESIGN.md §14).
#![warn(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![warn(clippy::disallowed_types)]
#![cfg_attr(test, allow(clippy::float_cmp, reason = "tests compare exact bits"))]

pub mod autotune;
pub mod costmodel;
pub(crate) mod driver;
pub mod methods;
pub mod resilience;
pub mod solver;
pub mod sstep;
pub(crate) mod telemetry;

pub use methods::MethodKind;
pub use solver::{
    NormType, RefNorm, Resilience, SolveError, SolveOptions, SolveResult, StopReason,
};
