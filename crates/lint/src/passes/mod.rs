//! The pass catalog.
//!
//! Code passes scan the token-level source model; registry passes parse
//! human-maintained tables (module docs, README, DESIGN) against the code
//! that defines the corresponding constants. Every pass is suppressible
//! per-line with `// pscg-lint: allow(<pass>, <reason>)` — the reason is
//! mandatory.

pub mod float_eq;
pub mod nan_clamp;
pub mod nondet_iteration;
pub mod panic_hot_path;
pub mod registry;
pub mod unsafe_safety;

use crate::engine::{Finding, Workspace};
use crate::lex::TokKind;
use crate::source::SourceFile;

/// One lint pass.
pub trait Pass {
    /// Stable kebab-case name (used in allow directives and reports).
    fn name(&self) -> &'static str;
    /// One-line description for `--list`.
    fn description(&self) -> &'static str;
    /// Runs the pass over the whole workspace.
    fn check(&self, ws: &Workspace) -> Vec<Finding>;
}

/// Every registered pass, in report order.
pub fn all_passes() -> Vec<Box<dyn Pass>> {
    vec![
        Box::new(nan_clamp::NanClamp),
        Box::new(panic_hot_path::PanicHotPath),
        Box::new(unsafe_safety::UnsafeWithoutSafety),
        Box::new(float_eq::FloatEq),
        Box::new(nondet_iteration::NondetIteration),
        Box::new(registry::ExitCodes),
        Box::new(registry::RecoveryCodes),
        Box::new(registry::SpanKinds),
    ]
}

/// True when `file` lives under `crates/<c>/src/` for any `c` in `crates`.
pub(crate) fn in_crates(file: &SourceFile, crates: &[&str]) -> bool {
    crates
        .iter()
        .any(|c| file.rel_path.starts_with(&format!("crates/{c}/src/")))
}

/// True when the token looks like a float: a literal with a fractional
/// part, exponent or float suffix.
pub(crate) fn is_float_lit(kind: TokKind, text: &str) -> bool {
    if kind != TokKind::Number {
        return false;
    }
    text.contains('.')
        || text.ends_with("f32")
        || text.ends_with("f64")
        || (text.contains(['e', 'E']) && !text.starts_with("0x") && !text.starts_with("0X"))
}

/// Shorthand for building a finding anchored at code-view position `i`.
pub(crate) fn finding(pass: &'static str, file: &SourceFile, i: usize, message: String) -> Finding {
    Finding {
        pass,
        rel_path: file.rel_path.clone(),
        line: file.cline(i),
        message,
    }
}
