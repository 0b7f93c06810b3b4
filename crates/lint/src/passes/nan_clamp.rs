//! **nan-clamp** — the silent-wrong idiom the PR 9 chaos campaign found
//! dynamically, caught at the source level.
//!
//! `f64::max(NaN, 0.0)` returns `0.0`: a clamp meant to absorb tiny
//! negative rounding before a square root also absorbs a NaN-poisoned
//! reduction, turning a dead rank's poison into a fake zero residual and
//! instant "convergence". The blessed helpers (`relres_from_sq`,
//! `true_relres`, `norm_from_sq` in `crates/core`) preserve NaN before
//! clamping; everything else must go through them or carry a reasoned
//! allow.
//!
//! Two shapes are flagged in non-test code:
//!
//! 1. A clamp chain feeding a square root — `.max(…).sqrt()`,
//!    `.clamp(…).sqrt()`, `.abs().sqrt()` — in `core`, `par`, `sparse`,
//!    `sim`.
//! 2. A bare exact-zero clamp `.max(0.0)` (the NaN-masking constant) in
//!    the same crates, and a clamped value compared directly against a
//!    bound (`.max(…) <`, `.clamp(…) <`) in `crates/core`, where
//!    reduction-derived scalars live. `.abs()` before a comparison is
//!    deliberately *not* flagged — epsilon tests are the legitimate float
//!    idiom.

use super::{finding, in_crates, Pass};
use crate::engine::{Finding, Workspace};

/// Crates whose non-test code is in scope.
const SCOPE: [&str; 4] = ["core", "par", "sparse", "sim"];

/// Functions allowed to use the idiom: they are the NaN-preserving
/// wrappers everything else is told to call.
const BLESSED: [&str; 3] = ["relres_from_sq", "true_relres", "norm_from_sq"];

/// The pass.
pub struct NanClamp;

impl Pass for NanClamp {
    fn name(&self) -> &'static str {
        "nan-clamp"
    }

    fn description(&self) -> &'static str {
        "clamp idioms (.max/.clamp/.abs) that silently map NaN-poisoned values to fake in-range results"
    }

    fn check(&self, ws: &Workspace) -> Vec<Finding> {
        let mut out = Vec::new();
        for file in &ws.files {
            if !in_crates(file, &SCOPE) {
                continue;
            }
            let in_core = in_crates(file, &["core"]);
            for i in 0..file.clen() {
                if file.ct(i) != "." {
                    continue;
                }
                let method = file.ct(i + 1);
                if !matches!(method, "max" | "clamp" | "abs") || file.ct(i + 2) != "(" {
                    continue;
                }
                if file.in_test(i) {
                    continue;
                }
                if let Some(f) = file.fn_containing(i) {
                    if BLESSED.contains(&f.name.as_str()) {
                        continue;
                    }
                }
                let Some(close) = file.match_delim(i + 2) else {
                    continue;
                };
                let feeds_sqrt = file.ct(close + 1) == "."
                    && file.ct(close + 2) == "sqrt"
                    && file.ct(close + 3) == "(";
                if feeds_sqrt {
                    out.push(finding(
                        self.name(),
                        file,
                        i + 1,
                        format!(
                            ".{method}(…).sqrt(): a NaN-poisoned value is clamped into a fake \
                             in-range norm; use the NaN-preserving helpers \
                             (driver::relres_from_sq, methods::norm_from_sq, resilience::true_relres)"
                        ),
                    ));
                    continue;
                }
                let zero_clamp = method == "max"
                    && close == i + 4
                    && matches!(file.ct(i + 3), "0.0" | "0." | "0f64" | "0.0f64");
                if zero_clamp {
                    out.push(finding(
                        self.name(),
                        file,
                        i + 1,
                        ".max(0.0): f64::max(NaN, 0.0) returns 0.0, so a poisoned value is \
                         silently zeroed; preserve NaN (check is_finite first) or justify with \
                         an allow"
                            .to_string(),
                    ));
                    continue;
                }
                let compared = in_core
                    && matches!(method, "max" | "clamp")
                    && matches!(file.ct(close + 1), "<" | "<=" | ">" | ">=");
                if compared {
                    out.push(finding(
                        self.name(),
                        file,
                        i + 1,
                        format!(
                            ".{method}(…) compared against a bound: a NaN input would be clamped \
                             into the comparable range; check finiteness before interpreting"
                        ),
                    ));
                }
            }
        }
        out
    }
}
