//! SpMV kernel/format selection: the process-wide format knob.
//!
//! Every method in the repo reaches the matrix through [`crate::CsrMatrix`];
//! the format knob chooses *which kernel body* serves `spmv` without
//! changing the interface, the chunk partition contract, or the per-row
//! accumulation order. All formats are bitwise identical to the scalar CSR
//! loop at every thread count (each row still sums its entries in
//! ascending-column order from an initial `0.0`), so the knob is a pure
//! performance dial: traces, the IR conformance checker and the analyzer
//! see the same logical `Spmv` nodes whichever format executes them.
//!
//! The knob follows the same pattern as [`pscg_par::knobs`]: a process
//! global with a one-shot `PSCG_SPMV_FORMAT` environment override, set
//! programmatically by the tuner ([`set_spmv_format`]).

use std::sync::atomic::{AtomicU8, Ordering};

/// Which kernel body serves `CsrMatrix::spmv`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SpmvFormat {
    /// CSR, `u32` column indices (12 B/nnz): four rows in lockstep with one
    /// accumulator chain each — every row still sums its entries in
    /// ascending-column order from `0.0`, the chain all other formats must
    /// reproduce bitwise — and a stream-ahead prefetch (DESIGN.md §12.2).
    #[default]
    Csr,
    /// SELL-C-σ (sliced ELLPACK, C = 8): σ-window row sorting, column-major
    /// chunks; 12 B per *padded* entry.
    SellCSigma,
    /// Symmetric CSR: strictly-upper + diagonal storage (≈6 B per logical
    /// nnz), deterministic scatter-slot reduction. Falls back to scalar CSR
    /// when the matrix is not exactly symmetric.
    SymCsr,
}

impl SpmvFormat {
    /// All formats, in benchmark/report order.
    pub const ALL: [SpmvFormat; 3] = [SpmvFormat::Csr, SpmvFormat::SellCSigma, SpmvFormat::SymCsr];

    /// Stable identifier used in CLI flags, env values and JSON reports.
    pub fn as_str(self) -> &'static str {
        match self {
            SpmvFormat::Csr => "csr",
            SpmvFormat::SellCSigma => "sell-c-sigma",
            SpmvFormat::SymCsr => "sym-csr",
        }
    }

    /// Parses the identifiers produced by [`SpmvFormat::as_str`] (plus the
    /// `sell` / `sym` short forms).
    pub fn parse(s: &str) -> Option<SpmvFormat> {
        match s.trim() {
            "csr" => Some(SpmvFormat::Csr),
            "sell" | "sell-c-sigma" => Some(SpmvFormat::SellCSigma),
            "sym" | "sym-csr" => Some(SpmvFormat::SymCsr),
            _ => None,
        }
    }

    /// Stable numeric code (1-based), carried as the `arg` of SpMV/MPK
    /// telemetry spans so traces are self-describing about which kernel
    /// body ran. Codes 2 and 3 belonged to the retired register-blocked CSR
    /// variants and are never reused.
    pub fn to_code(self) -> u8 {
        match self {
            SpmvFormat::Csr => 1,
            SpmvFormat::SellCSigma => 4,
            SpmvFormat::SymCsr => 5,
        }
    }

    /// Inverse of [`SpmvFormat::to_code`].
    pub fn from_code(code: u8) -> Option<SpmvFormat> {
        match code {
            1 => Some(SpmvFormat::Csr),
            4 => Some(SpmvFormat::SellCSigma),
            5 => Some(SpmvFormat::SymCsr),
            _ => None,
        }
    }
}

impl std::fmt::Display for SpmvFormat {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// 0 = unset (read `PSCG_SPMV_FORMAT` once, default CSR).
static FORMAT: AtomicU8 = AtomicU8::new(0);

/// The active SpMV format (`PSCG_SPMV_FORMAT` override read once; an
/// unrecognised value falls back to plain CSR).
pub fn spmv_format() -> SpmvFormat {
    let code = FORMAT.load(Ordering::Relaxed);
    if let Some(f) = SpmvFormat::from_code(code) {
        return f;
    }
    let init = std::env::var("PSCG_SPMV_FORMAT")
        .ok()
        .and_then(|s| SpmvFormat::parse(&s))
        .unwrap_or(SpmvFormat::Csr);
    FORMAT.store(init.to_code(), Ordering::Relaxed);
    init
}

/// Overrides the active SpMV format (the tuner and benches do). The SELL /
/// symmetric representations are cached per matrix on first use; they key
/// off the matrix structure, not this knob, so switching formats is cheap
/// after the first apply in each format.
pub fn set_spmv_format(fmt: SpmvFormat) {
    FORMAT.store(fmt.to_code(), Ordering::Relaxed);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_round_trips_every_format() {
        for f in SpmvFormat::ALL {
            assert_eq!(SpmvFormat::parse(f.as_str()), Some(f));
        }
        assert_eq!(SpmvFormat::parse("sell"), Some(SpmvFormat::SellCSigma));
        assert_eq!(SpmvFormat::parse("nope"), None);
        // Retired names and span codes stay retired.
        assert_eq!(SpmvFormat::parse("csr-unrolled4"), None);
        assert_eq!(SpmvFormat::from_code(2), None);
        assert_eq!(SpmvFormat::from_code(3), None);
        for f in SpmvFormat::ALL {
            assert_eq!(SpmvFormat::from_code(f.to_code()), Some(f));
        }
    }

    #[test]
    fn set_and_get_knob() {
        let before = spmv_format();
        set_spmv_format(SpmvFormat::SymCsr);
        assert_eq!(spmv_format(), SpmvFormat::SymCsr);
        set_spmv_format(before);
    }
}
