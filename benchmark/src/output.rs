//! What the benchmark writes: the result line the driver reads, the
//! `name value unit` listing people read, the span trace file, and the
//! combined results file of `--all` that `--compare` reads back.

use std::fmt::Write as _;
use std::io::Write as _;
use std::path::Path;

use pscg_obs::json::Json;

use crate::measure::Report;
use crate::metrics::MetricDef;
use crate::timed_ctx::SpanLog;

/// Escapes `s` as the inside of a JSON string.
fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32).unwrap(),
            c => out.push(c),
        }
    }
    out
}

/// A JSON number: Rust's shortest round-trip decimal, or `null` for a
/// non-finite value (which also makes the report incorrect).
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

/// Checks that `report` holds exactly the metrics of `defs`, in order —
/// a metric added to the code but not the registry (or the reverse) is a
/// bug in the benchmark, not a measurement.
pub fn assert_matches_registry(report: &Report, defs: &[MetricDef]) {
    let got: Vec<&str> = report.metrics.iter().map(|m| m.0.as_str()).collect();
    let want: Vec<&str> = defs.iter().map(|d| d.name.as_str()).collect();
    assert_eq!(got, want, "reported metrics differ from the registry");
}

/// `{"name": {"value": v, "unit": "u"}, …}` for the metrics of `report`.
fn metrics_json(report: &Report, defs: &[MetricDef]) -> String {
    let rows: Vec<String> = report
        .metrics
        .iter()
        .zip(defs)
        .map(|((name, value), def)| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                esc(name),
                num(*value),
                def.unit
            )
        })
        .collect();
    format!("{{{}}}", rows.join(", "))
}

/// The one-line result the driver parses: exactly `correct`, `attempted`,
/// `failed` and `metrics`.
pub fn result_line(report: &Report, defs: &[MetricDef]) -> String {
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        report.correct(),
        report.attempted,
        report.failed,
        metrics_json(report, defs)
    )
}

/// Prints the host record, every metric as `name value unit`, and any
/// failures.
pub fn print_listing(report: &Report, defs: &[MetricDef]) {
    for (k, v) in &report.info {
        println!("# {k} = {v}");
    }
    for ((name, value), def) in report.metrics.iter().zip(defs) {
        println!("{name} {value} {}", def.unit);
    }
    println!("solves_attempted {} count", report.attempted);
    println!("solves_failed {} count", report.failed);
    for f in &report.failures {
        println!("FAILED: {f}");
    }
}

/// The `metrics` object of a parsed result line, serialised again (for the
/// combined results file of `--all`).
pub fn metrics_of_result(result: &Json) -> Option<String> {
    let Json::Obj(fields) = result.get("metrics")? else {
        return None;
    };
    let rows: Option<Vec<String>> = fields
        .iter()
        .map(|(name, m)| {
            Some(format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                esc(name),
                num(m.get("value")?.as_f64()?),
                esc(m.get("unit")?.as_str()?)
            ))
        })
        .collect();
    Some(format!("{{{}}}", rows?.join(", ")))
}

/// `{"k": "v", …}` for a list of string pairs.
pub fn strings_json(pairs: &[(String, String)]) -> String {
    let rows: Vec<String> = pairs
        .iter()
        .map(|(k, v)| format!("\"{}\": \"{}\"", esc(k), esc(v)))
        .collect();
    format!("{{{}}}", rows.join(", "))
}

/// Writes the spans as a JSON array of
/// `{name, start_ns, end_ns, parent, solve_id}`; `parent` is an index into
/// the same solve's spans (`null` for its root `core.solve`).
pub fn write_trace(path: &Path, logs: &[SpanLog]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(f, "[")?;
    let mut first = true;
    for log in logs {
        for s in log.spans() {
            if !first {
                writeln!(f, ",")?;
            }
            first = false;
            let parent = if s.parent == crate::timed_ctx::NO_PARENT {
                "null".to_string()
            } else {
                s.parent.to_string()
            };
            write!(
                f,
                "{{\"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"solve_id\": {}}}",
                s.name, s.start_ns, s.end_ns, s.solve_id
            )?;
        }
    }
    writeln!(f, "\n]")?;
    f.flush()
}
