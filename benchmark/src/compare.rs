//! `solvebench --compare A.json B.json`: is B no worse than A?
//!
//! Reads two combined results files (written by `--all`) and checks, per
//! workload, every end-to-end metric against its bound, the failure rate,
//! and every count-like per-layer metric for exact equality. This is the
//! check two sets of runs of one commit must pass, and the one a later PR
//! runs against its parent.

use std::fmt::Write as _;

use pscg_obs::json::Json;

use crate::metrics::{end_to_end, per_layer, Better};
use crate::workload::WORKLOADS;

/// The verdict of one comparison.
#[derive(Debug)]
pub struct Comparison {
    /// The table, one row per metric × workload.
    pub table: String,
    /// Rows that exceeded a bound, mismatched an exact metric, or were
    /// missing on one side.
    pub violations: usize,
}

fn workload<'a>(results: &'a Json, name: &str) -> Option<&'a Json> {
    results.get("workloads")?.get(name)
}

fn value(workload: &Json, section: &str, name: &str) -> Option<f64> {
    workload.get(section)?.get(name)?.get("value")?.as_f64()
}

fn failure_rate(workload: &Json) -> Option<f64> {
    let attempted = workload.get("solves_attempted")?.as_f64()?;
    let failed = workload.get("solves_failed")?.as_f64()?;
    Some(failed / attempted.max(1.0))
}

/// Compares results `b` against the baseline `a`.
pub fn compare(a: &Json, b: &Json) -> Comparison {
    let mut out = Comparison {
        table: String::new(),
        violations: 0,
    };
    let t = &mut out.table;
    writeln!(
        t,
        "{:<14} {:<34} {:>14} {:>14} {:>9} {:>7}  verdict",
        "workload", "metric", "A", "B", "worse by", "bound"
    )
    .unwrap();
    for w in WORKLOADS {
        let (Some(wa), Some(wb)) = (workload(a, w.name), workload(b, w.name)) else {
            writeln!(t, "{:<14} missing from one of the files", w.name).unwrap();
            out.violations += 1;
            continue;
        };
        match (failure_rate(wa), failure_rate(wb)) {
            (Some(ra), Some(rb)) => {
                let bad = rb > ra;
                out.violations += bad as usize;
                writeln!(
                    t,
                    "{:<14} {:<34} {:>14.6} {:>14.6} {:>9} {:>7}  {}",
                    w.name,
                    "solves_failed/solves_attempted",
                    ra,
                    rb,
                    "",
                    "0",
                    if bad { "ROSE" } else { "ok" }
                )
                .unwrap();
            }
            _ => {
                writeln!(t, "{:<14} solve counts missing", w.name).unwrap();
                out.violations += 1;
            }
        }
        for def in end_to_end() {
            let bound = def.bound.expect("end-to-end metrics carry a bound");
            let row = value(wa, "end_to_end", &def.name).zip(value(wb, "end_to_end", &def.name));
            let Some((va, vb)) = row else {
                writeln!(t, "{:<14} {:<34} missing", w.name, def.name).unwrap();
                out.violations += 1;
                continue;
            };
            let worse = match def.better {
                Better::Lower => (vb - va) / va,
                Better::Higher => (va - vb) / va,
            };
            // A NaN difference (zero or missing base) must not pass.
            let bad = worse.is_nan() || worse > bound;
            out.violations += bad as usize;
            writeln!(
                t,
                "{:<14} {:<34} {:>14.6} {:>14.6} {:>8.2}% {:>6.0}%  {}",
                w.name,
                def.name,
                va,
                vb,
                100.0 * worse,
                100.0 * bound,
                if bad { "EXCEEDED" } else { "ok" }
            )
            .unwrap();
        }
        for def in per_layer().into_iter().filter(|d| d.exact) {
            let row = value(wa, "per_layer", &def.name).zip(value(wb, "per_layer", &def.name));
            let same = row.is_some_and(|(va, vb)| va == vb);
            if !same {
                out.violations += 1;
                writeln!(
                    t,
                    "{:<14} {:<34} {:>14?} {:>14?} {:>9} {:>7}  MISMATCH",
                    w.name,
                    def.name,
                    row.map(|r| r.0),
                    row.map(|r| r.1),
                    "",
                    "exact"
                )
                .unwrap();
            }
        }
    }
    writeln!(
        t,
        "{} violation(s); exact per-layer metrics are listed only when they differ",
        out.violations
    )
    .unwrap();
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A results file in which every metric of every workload reads `v`,
    /// except `(workload, section, name) -> other` overrides.
    fn results(v: f64, failed: u64, over: &[(&str, &str, &str, f64)]) -> Json {
        let mut ws = Vec::new();
        for w in WORKLOADS {
            let section = |sec: &str, defs: Vec<crate::metrics::MetricDef>| {
                let rows: Vec<String> = defs
                    .iter()
                    .map(|d| {
                        let val = over
                            .iter()
                            .find(|o| o.0 == w.name && o.1 == sec && o.2 == d.name)
                            .map_or(v, |o| o.3);
                        format!(
                            "\"{}\": {{\"value\": {val}, \"unit\": \"{}\"}}",
                            d.name, d.unit
                        )
                    })
                    .collect();
                format!("\"{sec}\": {{{}}}", rows.join(", "))
            };
            ws.push(format!(
                "\"{}\": {{\"solves_attempted\": 100, \"solves_failed\": {failed}, {}, {}}}",
                w.name,
                section("end_to_end", end_to_end()),
                section("per_layer", per_layer())
            ));
        }
        pscg_obs::json::parse(&format!("{{\"workloads\": {{{}}}}}", ws.join(", "))).unwrap()
    }

    #[test]
    fn identical_results_pass() {
        let a = results(2.0, 0, &[]);
        assert_eq!(compare(&a, &a).violations, 0);
    }

    #[test]
    fn a_slowdown_within_the_bound_passes_and_beyond_it_fails() {
        let a = results(2.0, 0, &[]);
        let bound = end_to_end()
            .iter()
            .find(|d| d.name == "solve_s.pcg")
            .and_then(|d| d.bound)
            .unwrap();
        let slowed = |by: f64| {
            let v = 2.0 * (1.0 + by);
            results(2.0, 0, &[("p7-jacobi", "end_to_end", "solve_s.pcg", v)])
        };
        assert_eq!(compare(&a, &slowed(0.8 * bound)).violations, 0);
        let beyond = slowed(1.2 * bound);
        let c = compare(&a, &beyond);
        assert_eq!(c.violations, 1, "{}", c.table);
        assert!(c.table.contains("EXCEEDED"));
        // A speed-up of any size is fine.
        let faster = results(2.0, 0, &[("p7-jacobi", "end_to_end", "solve_s.pcg", 0.5)]);
        assert_eq!(compare(&a, &faster).violations, 0);
    }

    #[test]
    fn exact_metrics_must_repeat_and_failures_must_not_rise() {
        let a = results(2.0, 0, &[]);
        let iters = results(2.0, 0, &[("small27", "per_layer", "core.iters.pscg", 3.0)]);
        let c = compare(&a, &iters);
        assert_eq!(c.violations, 1, "{}", c.table);
        assert!(c.table.contains("MISMATCH"));
        // Timing-like per-layer metrics are free to move.
        let glue = results(2.0, 0, &[("small27", "per_layer", "core.glue_s.pscg", 9.0)]);
        assert_eq!(compare(&a, &glue).violations, 0);
        let failing = results(2.0, 1, &[]);
        assert_eq!(compare(&a, &failing).violations, WORKLOADS.len());
        assert_eq!(compare(&failing, &a).violations, 0);
    }
}
