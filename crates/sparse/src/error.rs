//! Error type shared by the sparse-matrix substrate.

use std::fmt;

/// Errors raised while constructing, validating or reading matrices.
#[derive(Debug, Clone, PartialEq)]
pub enum SparseError {
    /// A coordinate entry lies outside the declared matrix shape.
    IndexOutOfBounds {
        /// Row index of the offending entry.
        row: usize,
        /// Column index of the offending entry.
        col: usize,
        /// Declared number of rows.
        nrows: usize,
        /// Declared number of columns.
        ncols: usize,
    },
    /// A CSR invariant is violated (non-monotone `row_ptr`, unsorted or
    /// duplicate column indices within a row, length mismatches, …).
    InvalidCsr(String),
    /// The operation requires a square matrix.
    NotSquare {
        /// Number of rows.
        nrows: usize,
        /// Number of columns.
        ncols: usize,
    },
    /// Dimension mismatch between operands.
    DimensionMismatch(String),
    /// A dense factorisation hit a (numerically) singular pivot.
    SingularMatrix {
        /// Index of the zero pivot.
        pivot: usize,
    },
    /// A caller-supplied argument is outside its valid range.
    InvalidArgument(String),
    /// Matrix Market parsing failed.
    ParseError(String),
    /// Underlying I/O failure (message only, to keep the error `Clone`).
    Io(String),
}

impl fmt::Display for SparseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SparseError::IndexOutOfBounds {
                row,
                col,
                nrows,
                ncols,
            } => write!(f, "entry ({row}, {col}) outside {nrows}x{ncols} matrix"),
            SparseError::InvalidCsr(msg) => write!(f, "invalid CSR structure: {msg}"),
            SparseError::NotSquare { nrows, ncols } => {
                write!(f, "operation requires a square matrix, got {nrows}x{ncols}")
            }
            SparseError::DimensionMismatch(msg) => write!(f, "dimension mismatch: {msg}"),
            SparseError::SingularMatrix { pivot } => {
                write!(f, "singular matrix: zero pivot at index {pivot}")
            }
            SparseError::InvalidArgument(msg) => write!(f, "invalid argument: {msg}"),
            SparseError::ParseError(msg) => write!(f, "matrix market parse error: {msg}"),
            SparseError::Io(msg) => write!(f, "i/o error: {msg}"),
        }
    }
}

impl std::error::Error for SparseError {}

impl From<std::io::Error> for SparseError {
    fn from(e: std::io::Error) -> Self {
        SparseError::Io(e.to_string())
    }
}
