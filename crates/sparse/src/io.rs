//! Matrix Market (`.mtx`) reading and writing.
//!
//! Supports the `matrix coordinate real {general|symmetric}` and
//! `matrix coordinate pattern {general|symmetric}` headers, which covers the
//! SPD matrices of the SuiteSparse collection the paper evaluates on. Pattern
//! entries are read as `1.0`.

use std::io::{BufRead, BufReader, BufWriter, Read, Write};

use crate::coo::CooMatrix;
use crate::csr::{check_index_width, CsrMatrix};
use crate::error::SparseError;

/// Symmetry declared in a Matrix Market header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Symmetry {
    General,
    Symmetric,
}

/// Reads a Matrix Market file from any reader.
pub fn read_matrix_market<R: Read>(reader: R) -> Result<CsrMatrix, SparseError> {
    let mut lines = BufReader::new(reader).lines();

    let header = lines
        .next()
        .ok_or_else(|| SparseError::ParseError("empty file".into()))?
        .map_err(SparseError::from)?;
    let headers: Vec<String> = header
        .split_whitespace()
        .map(|t| t.to_ascii_lowercase())
        .collect();
    if headers.len() < 4 || headers[0] != "%%matrixmarket" || headers[1] != "matrix" {
        return Err(SparseError::ParseError(format!(
            "bad header line: {header}"
        )));
    }
    if headers[2] != "coordinate" {
        return Err(SparseError::ParseError(format!(
            "unsupported format {} (only coordinate is supported)",
            headers[2]
        )));
    }
    let pattern = match headers[3].as_str() {
        "real" | "integer" => false,
        "pattern" => true,
        other => {
            return Err(SparseError::ParseError(format!(
                "unsupported field type {other}"
            )))
        }
    };
    let symmetry = match headers.get(4).map(String::as_str) {
        None | Some("general") => Symmetry::General,
        Some("symmetric") => Symmetry::Symmetric,
        Some(other) => {
            return Err(SparseError::ParseError(format!(
                "unsupported symmetry {other}"
            )))
        }
    };

    // Skip comments, find the size line.
    let mut size_line = None;
    for line in lines.by_ref() {
        let line = line.map_err(SparseError::from)?;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('%') {
            continue;
        }
        size_line = Some(trimmed.to_string());
        break;
    }
    let size_line = size_line.ok_or_else(|| SparseError::ParseError("missing size line".into()))?;
    let dims: Vec<usize> = size_line
        .split_whitespace()
        .map(|t| t.parse::<usize>())
        .collect::<Result<_, _>>()
        .map_err(|e| SparseError::ParseError(format!("bad size line '{size_line}': {e}")))?;
    if dims.len() != 3 {
        return Err(SparseError::ParseError(format!(
            "size line needs 3 fields: {size_line}"
        )));
    }
    let (nrows, ncols, nnz) = (dims[0], dims[1], dims[2]);
    // Refuse a shape the CSR index type cannot hold before reading entries.
    check_index_width(ncols)?;

    // Trust the declared count only up to what the stream can actually
    // hold: a malformed size line must not become a giant allocation.
    let cap = if symmetry == Symmetry::Symmetric {
        nnz.saturating_mul(2)
    } else {
        nnz
    }
    .min(1 << 28);
    let mut coo = CooMatrix::with_capacity(nrows, ncols, cap);
    let mut seen = 0usize;
    for line in lines {
        let line = line.map_err(SparseError::from)?;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('%') {
            continue;
        }
        if seen == nnz {
            return Err(SparseError::ParseError(format!(
                "more entries than the header's {nnz}: {trimmed}"
            )));
        }
        let mut it = trimmed.split_whitespace();
        let r: usize = it
            .next()
            .ok_or_else(|| SparseError::ParseError(format!("bad entry: {trimmed}")))?
            .parse()
            .map_err(|e| SparseError::ParseError(format!("bad row in '{trimmed}': {e}")))?;
        let c: usize = it
            .next()
            .ok_or_else(|| SparseError::ParseError(format!("bad entry: {trimmed}")))?
            .parse()
            .map_err(|e| SparseError::ParseError(format!("bad col in '{trimmed}': {e}")))?;
        let v: f64 = if pattern {
            1.0
        } else {
            it.next()
                .ok_or_else(|| SparseError::ParseError(format!("missing value: {trimmed}")))?
                .parse()
                .map_err(|e| SparseError::ParseError(format!("bad value in '{trimmed}': {e}")))?
        };
        if r == 0 || c == 0 {
            return Err(SparseError::ParseError(format!(
                "indices are 1-based: {trimmed}"
            )));
        }
        match symmetry {
            Symmetry::General => coo.push(r - 1, c - 1, v)?,
            Symmetry::Symmetric => coo.push_sym(r - 1, c - 1, v)?,
        }
        seen += 1;
    }
    if seen != nnz {
        return Err(SparseError::ParseError(format!(
            "entry count mismatch: header said {nnz}, file had {seen}"
        )));
    }
    coo.to_csr()
}

/// Writes a matrix in `coordinate real general` format.
pub fn write_matrix_market<W: Write>(a: &CsrMatrix, writer: W) -> Result<(), SparseError> {
    let mut w = BufWriter::new(writer);
    writeln!(w, "%%MatrixMarket matrix coordinate real general")?;
    writeln!(w, "% written by pscg-sparse")?;
    writeln!(w, "{} {} {}", a.nrows(), a.ncols(), a.nnz())?;
    for r in 0..a.nrows() {
        for (k, &c) in a.row_cols(r).iter().enumerate() {
            writeln!(w, "{} {} {:.17e}", r + 1, c + 1, a.row_vals(r)[k])?;
        }
    }
    w.flush()?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_general_real() {
        let text = "%%MatrixMarket matrix coordinate real general\n\
                    % a comment\n\
                    2 2 3\n\
                    1 1 4.0\n\
                    1 2 -1.0\n\
                    2 2 3.5\n";
        let a = read_matrix_market(text.as_bytes()).unwrap();
        assert_eq!(a.nrows(), 2);
        assert_eq!(a.get(0, 0), 4.0);
        assert_eq!(a.get(0, 1), -1.0);
        assert_eq!(a.get(1, 0), 0.0);
        assert_eq!(a.get(1, 1), 3.5);
    }

    #[test]
    fn parses_symmetric_and_mirrors() {
        let text = "%%MatrixMarket matrix coordinate real symmetric\n\
                    2 2 2\n\
                    1 1 2.0\n\
                    2 1 -1.0\n";
        let a = read_matrix_market(text.as_bytes()).unwrap();
        assert_eq!(a.get(0, 1), -1.0);
        assert_eq!(a.get(1, 0), -1.0);
        assert_eq!(a.nnz(), 3);
    }

    #[test]
    fn parses_pattern() {
        let text = "%%MatrixMarket matrix coordinate pattern general\n\
                    2 3 2\n\
                    1 3\n\
                    2 1\n";
        let a = read_matrix_market(text.as_bytes()).unwrap();
        assert_eq!(a.get(0, 2), 1.0);
        assert_eq!(a.get(1, 0), 1.0);
    }

    #[test]
    fn rejects_bad_headers_and_counts() {
        assert!(read_matrix_market("not a header\n1 1 0\n".as_bytes()).is_err());
        assert!(
            read_matrix_market("%%MatrixMarket matrix array real general\n1 1 0\n".as_bytes())
                .is_err()
        );
        let short = "%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1.0\n";
        assert!(read_matrix_market(short.as_bytes()).is_err());
        let zero_based = "%%MatrixMarket matrix coordinate real general\n2 2 1\n0 1 1.0\n";
        assert!(read_matrix_market(zero_based.as_bytes()).is_err());
    }

    /// Every malformed-input class yields the matching *typed* error —
    /// never a panic — so loaders can be driven by untrusted files.
    #[test]
    fn malformed_inputs_yield_typed_errors() {
        let parse_err = |text: &str| match read_matrix_market(text.as_bytes()) {
            Err(e) => e,
            Ok(_) => panic!("accepted malformed input: {text:?}"),
        };
        // Empty file / truncated before the size line.
        assert!(matches!(parse_err(""), SparseError::ParseError(_)));
        assert!(matches!(
            parse_err("%%MatrixMarket matrix coordinate real general\n% only comments\n"),
            SparseError::ParseError(_)
        ));
        // Size line with the wrong arity or garbage numbers.
        let head = "%%MatrixMarket matrix coordinate real general\n";
        assert!(matches!(
            parse_err(&format!("{head}2 2\n")),
            SparseError::ParseError(_)
        ));
        assert!(matches!(
            parse_err(&format!("{head}two 2 1\n1 1 1.0\n")),
            SparseError::ParseError(_)
        ));
        // Truncated entry stream (header promises more than the file has).
        assert!(matches!(
            parse_err(&format!("{head}2 2 2\n1 1 1.0\n")),
            SparseError::ParseError(_)
        ));
        // Excess entries beyond the declared count.
        assert!(matches!(
            parse_err(&format!("{head}2 2 1\n1 1 1.0\n2 2 2.0\n")),
            SparseError::ParseError(_)
        ));
        // Entry truncated mid-line (value missing) and a garbage value.
        assert!(matches!(
            parse_err(&format!("{head}2 2 1\n1 1\n")),
            SparseError::ParseError(_)
        ));
        assert!(matches!(
            parse_err(&format!("{head}2 2 1\n1 1 abc\n")),
            SparseError::ParseError(_)
        ));
        // Indices outside the declared shape surface the coordinate error.
        assert!(matches!(
            parse_err(&format!("{head}2 2 1\n3 1 1.0\n")),
            SparseError::IndexOutOfBounds { .. }
        ));
        // Unsupported field and symmetry keywords.
        assert!(matches!(
            parse_err("%%MatrixMarket matrix coordinate complex general\n1 1 0\n"),
            SparseError::ParseError(_)
        ));
        assert!(matches!(
            parse_err("%%MatrixMarket matrix coordinate real hermitian\n1 1 0\n"),
            SparseError::ParseError(_)
        ));
    }

    #[test]
    fn absurd_declared_nnz_does_not_preallocate() {
        // The size line claims ~10^18 entries; the reader must fail on the
        // truncated stream, not abort in the allocator.
        let text = "%%MatrixMarket matrix coordinate real symmetric\n\
                    2 2 999999999999999999\n\
                    1 1 1.0\n";
        assert!(matches!(
            read_matrix_market(text.as_bytes()),
            Err(SparseError::ParseError(_))
        ));
    }

    #[test]
    fn columns_past_u32_are_rejected_at_the_size_line() {
        let text = "%%MatrixMarket matrix coordinate real general\n\
                    1 4294967296 1\n\
                    1 1 1.0\n";
        assert!(matches!(
            read_matrix_market(text.as_bytes()),
            Err(SparseError::InvalidArgument(_))
        ));
    }

    #[test]
    fn roundtrip_write_read() {
        let a = crate::stencil::poisson2d_5pt(4, 5, 1.0, 0.5);
        let mut buf = Vec::new();
        write_matrix_market(&a, &mut buf).unwrap();
        let b = read_matrix_market(buf.as_slice()).unwrap();
        assert_eq!(a, b);
    }
}
