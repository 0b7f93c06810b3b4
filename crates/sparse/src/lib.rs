//! Sparse-matrix substrate for the PIPE-PsCG reproduction.
//!
//! This crate provides everything the Krylov solvers need below the
//! communication layer:
//!
//! * [`CsrMatrix`] / [`CooMatrix`] — compressed sparse row storage with the
//!   construction, validation and SPD-diagnostic utilities the solvers rely
//!   on, plus the one SpMV kernel (`u32` column indices, four rows in
//!   lockstep, stream-ahead prefetch), bitwise the scalar row loop at any
//!   thread count.
//! * [`MultiVector`] — a column-major `N × s` block of vectors with the block
//!   linear-combination kernels (`X += Y·B`, `X = Y − Z·α`, Gram products)
//!   that realise the paper's recurrence LCs.
//! * [`dense`] — the small dense LU factorisation used by the s-step
//!   "Scalar Work" (two `s × s` solves per iteration).
//! * [`stencil`] — structured-grid operators, including the 125-point 3-D
//!   Poisson stencil of the paper's evaluation.
//! * [`suitesparse`] — seeded synthetic surrogates for the ecology2,
//!   thermal2 and Serena matrices (matched size and sparsity; see DESIGN.md).
//! * [`partition`] — row-block partitioning with exact communication-volume
//!   analysis, feeding the distributed-memory model.
//! * [`io`] — Matrix Market reading and writing.

#![allow(clippy::needless_range_loop, reason = "indexing shows the row layout")]
#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]
// Hot path: no unwrap/expect/panic! outside tests, no hash container (DESIGN.md §14).
#![warn(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![warn(clippy::disallowed_types)]
#![cfg_attr(test, allow(clippy::float_cmp, reason = "tests compare exact bits"))]

pub mod coo;
pub mod csr;
pub mod dense;
pub mod error;
pub mod io;
pub mod kernels;
pub mod multivec;
pub mod op;
pub mod partition;
pub mod rng;
pub mod stencil;
pub mod suitesparse;

pub use coo::CooMatrix;
pub use csr::CsrMatrix;
pub use dense::DenseMatrix;
pub use error::SparseError;
pub use multivec::MultiVector;
pub use op::{ApplyCost, IdentityOp, Operator};
pub use partition::RowBlockPartition;
pub use rng::SplitMix64;
pub use stencil::Grid3;

/// The matrix storage format. Kept for `benchmark/src/measure.rs`; remove in
/// the next benchmark-only PR.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpmvFormat {
    /// CSR with `u32` column indices — the only format.
    Csr,
}

impl std::fmt::Display for SpmvFormat {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("csr")
    }
}

/// Always [`SpmvFormat::Csr`]. Kept for `benchmark/src/measure.rs`; remove in
/// the next benchmark-only PR.
pub const fn spmv_format() -> SpmvFormat {
    SpmvFormat::Csr
}
