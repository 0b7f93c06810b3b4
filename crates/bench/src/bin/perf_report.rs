//! Offline perf-report analyzer (DESIGN.md §13).
//!
//! ```text
//! perf-report [--telemetry DIR] [--report FILE] [--out DIR]
//!             [--baseline FILE] [--check] [--tolerance T]
//!             [--validate-flight FILE]
//! ```
//!
//! Ingests a telemetry directory (`<method>.trace.json` +
//! `<method>.metrics.jsonl`, as written by `repro --telemetry`) — or a
//! previously rendered `perf_report.json` via `--report` — and writes
//! `OUT/perf_report.json` + `OUT/perf_report.md` with per-kernel achieved
//! GFLOP/s / GB/s against the cost model and per-method achieved overlap
//! against the IR's static capacity report.
//!
//! `--check` compares the report against `--baseline FILE` (default
//! `BENCH_perf_report.json`) and exits 17 when any method's SpMV/MPK
//! achieved bandwidth or achieved overlap regressed by more than
//! `--tolerance` (default 0.20, i.e. 20% relative).
//!
//! `--validate-flight FILE` schema-validates a flight-recorder dump (as
//! left by a failed resilient solve) and exits 1 when it is malformed.

use std::path::PathBuf;

use pscg_bench::perf_report::{self, PerfReport};

/// Exit code for a `--check` regression (distinct from the verifier
/// families' 10–16).
const EXIT_PERF_REGRESSION: i32 = 17;

fn fail(msg: &str) -> ! {
    eprintln!("[perf-report] {msg}");
    std::process::exit(1);
}

fn main() {
    let mut telemetry = PathBuf::from("telemetry");
    let mut report_file: Option<PathBuf> = None;
    let mut out = PathBuf::from("results");
    let mut baseline = PathBuf::from("BENCH_perf_report.json");
    let mut do_check = false;
    let mut tolerance = 0.20_f64;
    let mut validate_flight: Option<PathBuf> = None;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut path_arg = |flag: &str| -> PathBuf {
            match args.next() {
                Some(v) => PathBuf::from(v),
                None => fail(&format!("{flag} needs a value")),
            }
        };
        match arg.as_str() {
            "--telemetry" => telemetry = path_arg("--telemetry"),
            "--report" => report_file = Some(path_arg("--report")),
            "--out" => out = path_arg("--out"),
            "--baseline" => baseline = path_arg("--baseline"),
            "--check" => do_check = true,
            "--tolerance" => {
                let v = args.next().unwrap_or_default();
                tolerance = match v.parse::<f64>() {
                    Ok(t) if t > 0.0 && t < 1.0 => t,
                    _ => fail(&format!("--tolerance must be in (0, 1), got '{v}'")),
                };
            }
            "--validate-flight" => validate_flight = Some(path_arg("--validate-flight")),
            "--help" | "-h" => {
                eprintln!(
                    "usage: perf-report [--telemetry DIR] [--report FILE] \
                     [--out DIR] [--baseline FILE] [--check] [--tolerance T] \
                     [--validate-flight FILE]"
                );
                return;
            }
            other => fail(&format!("unknown argument '{other}'")),
        }
    }

    if let Some(path) = &validate_flight {
        match pscg_obs::flight::validate_flight_file(path) {
            Ok(check) => println!(
                "[perf-report] flight dump {} is valid: reason {}, method {}, \
                 {} iteration frame(s), {} span(s)",
                path.display(),
                check.reason,
                check.method,
                check.iters,
                check.spans
            ),
            Err(e) => fail(&format!("invalid flight dump {}: {e}", path.display())),
        }
    }

    // With only a flight validation requested, stop here.
    let wants_report = report_file.is_some() || validate_flight.is_none() || do_check;
    if !wants_report {
        return;
    }

    let report: PerfReport = match &report_file {
        Some(path) => {
            let text = std::fs::read_to_string(path)
                .unwrap_or_else(|e| fail(&format!("read {}: {e}", path.display())));
            perf_report::parse_report(&text)
                .unwrap_or_else(|e| fail(&format!("{}: {e}", path.display())))
        }
        None => perf_report::from_dir(&telemetry).unwrap_or_else(|e| fail(&e)),
    };

    if let Err(e) = std::fs::create_dir_all(&out) {
        fail(&format!("create {}: {e}", out.display()));
    }
    let json_path = out.join("perf_report.json");
    let md_path = out.join("perf_report.md");
    if let Err(e) = std::fs::write(&json_path, perf_report::render_json(&report)) {
        fail(&format!("write {}: {e}", json_path.display()));
    }
    if let Err(e) = std::fs::write(&md_path, perf_report::render_md(&report)) {
        fail(&format!("write {}: {e}", md_path.display()));
    }
    println!(
        "[perf-report] {} method(s) → {} + {}",
        report.methods.len(),
        json_path.display(),
        md_path.display()
    );

    if do_check {
        let text = std::fs::read_to_string(&baseline)
            .unwrap_or_else(|e| fail(&format!("read baseline {}: {e}", baseline.display())));
        let base = perf_report::parse_report(&text)
            .unwrap_or_else(|e| fail(&format!("baseline {}: {e}", baseline.display())));
        let failures = perf_report::check(&report, &base, tolerance);
        if failures.is_empty() {
            println!(
                "[perf-report] check OK against {} ({:.0}% tolerance)",
                baseline.display(),
                tolerance * 100.0
            );
        } else {
            for f in &failures {
                eprintln!("[perf-report] REGRESSION: {f}");
            }
            std::process::exit(EXIT_PERF_REGRESSION);
        }
    }
}
