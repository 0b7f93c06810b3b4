//! `solvebench`: the repo's end-to-end benchmark — per-method
//! time-to-solution on five workloads, and a per-layer time budget timed
//! from outside the library. See `README.md`.

pub mod compare;
pub mod host;
pub mod measure;
pub mod metrics;
pub mod output;
pub mod timed_ctx;
pub mod workload;
