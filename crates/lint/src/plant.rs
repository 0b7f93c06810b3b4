//! The `--plant` non-vacuousness gate, mirroring `--chaos-plant`: a
//! known-bad source is injected into the scan set as a virtual file and
//! every code pass must fire on it, or the gate itself fails.

use crate::engine::{run, Finding, Report, Workspace};

/// Virtual path of the planted file. It sits under `crates/core/src/
/// methods/` so every scoped pass applies to it; the engine never writes
/// it to disk.
pub const PLANT_PATH: &str = "crates/core/src/methods/__planted__.rs";

/// Passes the plant must trigger (the code passes; registry passes audit
/// real files and are gated by their own drift tests).
pub const PLANTED_PASSES: [&str; 5] = [
    "nan-clamp",
    "panic-in-hot-path",
    "unsafe-without-safety",
    "float-eq",
    "nondet-iteration",
];

/// One seeded violation per code pass, in a compact solver-shaped
/// function.
pub const PLANT_SOURCE: &str = r#"
use std::collections::HashMap;

fn planted_solver(norm_sq: f64, bnorm: f64, vals: &[f64]) -> f64 {
    let relres = norm_sq.max(0.0).sqrt() / bnorm;
    let first = vals.first().unwrap();
    if *first == 0.0 {
        return relres;
    }
    let mut slots: HashMap<u64, f64> = HashMap::new();
    slots.insert(1, *first);
    let mut acc = 0.0;
    for (_k, v) in slots.iter() {
        acc += *v;
    }
    unsafe { core::ptr::read_volatile(&acc) }
}
"#;

/// Runs the engine with the plant injected. Returns the report plus the
/// list of planted passes that FAILED to fire on the planted file — an
/// empty list means the gate holds.
pub fn run_with_plant(mut ws: Workspace) -> (Report, Vec<&'static str>) {
    ws.add_virtual(PLANT_PATH, PLANT_SOURCE);
    let report = run(&ws);
    let fired: Vec<&Finding> = report
        .findings
        .iter()
        .filter(|f| f.rel_path == PLANT_PATH)
        .collect();
    let escaped: Vec<&'static str> = PLANTED_PASSES
        .iter()
        .copied()
        .filter(|p| !fired.iter().any(|f| f.pass == *p))
        .collect();
    (report, escaped)
}
