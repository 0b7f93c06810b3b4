//! `pscg-lint` — a source-level numeric-safety and invariant lint engine
//! for the pscg workspace.
//!
//! PR 9's chaos campaign *dynamically* discovered a silent-wrong class:
//! `.max(0.0).sqrt()` clamping a NaN-poisoned reduction into fake
//! zero-residual convergence. The fix was protected only by hand-written
//! comments; this crate is the missing *static* layer. A lightweight
//! in-tree Rust lexer ([`lex`]) feeds a token-level source model
//! ([`source`]: test regions, function spans, suppression directives)
//! that a catalog of passes ([`passes`]) scans:
//!
//! | pass | catches |
//! |---|---|
//! | `nan-clamp` | clamp idioms that map NaN into fake in-range values |
//! | `panic-in-hot-path` | unwrap/expect/panic!/indexing asserts in solver code |
//! | `unsafe-without-safety` | `unsafe` without an adjacent `SAFETY:` argument |
//! | `float-eq` | exact `==`/`!=` on float expressions outside tests |
//! | `nondet-iteration` | HashMap/HashSet iteration under determinism contracts |
//! | `registry-exit-codes` | exit-code doc tables vs. `FindingClass` |
//! | `registry-recovery-codes` | recovery-code doc tables vs. `resilience::code` |
//! | `registry-span-kinds` | span-kind doc table vs. `SpanKind` |
//! | `allow-syntax` | malformed/reasonless/unknown-pass allow directives |
//!
//! Suppression is inline and reasoned:
//! `// pscg-lint: allow(<pass>, <reason>)` covers its own line and the
//! next code line; an empty reason is itself a finding. The `lint-source`
//! binary (and `repro --lint-source`) scans the workspace and exits
//! **19** (`FindingClass::Lint`) on findings; `--plant` injects a
//! known-bad virtual file that every code pass must flag — the same
//! prove-it-non-vacuous pattern as `broken-variants`/`broken-ir`/
//! `broken-par`/`--chaos-plant`.

#![warn(missing_docs)]

pub mod engine;
pub mod lex;
pub mod passes;
pub mod plant;
pub mod source;

pub use engine::{
    render_json, render_text, run, scan_workspace, Finding, Report, Workspace, EXIT_LINT,
};
