//! Benchmark and paper-figure reproduction harness.
//!
//! Every table and figure of the paper's evaluation (§VI) has a runner in
//! [`experiments`]; the `repro` binary and the `figures` bench target drive
//! them and write CSV + markdown into `results/`. The problem scale is
//! selected with the `PSCG_SCALE` environment variable:
//!
//! | value | 125-pt grid | surrogate scale | purpose |
//! |---|---|---|---|
//! | `ci` | 24³ ≈ 14k | 0.5 % | smoke runs, integration tests |
//! | `small` (default) | 64³ ≈ 262k | 10 % | minutes-scale full reproduction |
//! | `paper` | 100³ = 1M | 100 % | the paper's exact sizes |
//!
//! Numerics run once per method (they are rank-count independent); the
//! machine-model replay then produces the whole scaling curve, so even the
//! `paper` scale is tractable on one core.

#![warn(missing_docs)]
#![cfg_attr(test, allow(clippy::float_cmp, reason = "tests compare exact bits"))]

pub mod experiments;
pub mod microbench;
pub mod perf_report;
pub mod problems;
pub mod report;
pub mod scale;

pub use report::Report;
pub use scale::Scale;
