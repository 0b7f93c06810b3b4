//! The harness itself, tested in seconds: every workload on a 12³ grid with
//! one timed solve, through the real binary and its real command line.

use std::path::PathBuf;
use std::process::Command;

use pscg_obs::json::Json;
use solvebench::metrics::{end_to_end, per_layer, MetricDef};
use solvebench::workload::WORKLOADS;

fn out_dir(test: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(test)
}

fn solvebench(args: &[&str]) -> (bool, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_solvebench"))
        .args(args)
        .output()
        .expect("the solvebench binary runs");
    (
        out.status.success(),
        String::from_utf8(out.stdout).expect("utf-8 output"),
    )
}

/// Checks a result line against the driver's contract: exactly the four
/// keys, every registered metric with its unit, nothing else.
fn check_result_line(line: &str, defs: &[MetricDef]) {
    let res = pscg_obs::json::parse(line).expect("the last line is JSON");
    let Json::Obj(fields) = &res else {
        panic!("the result is not an object")
    };
    let keys: Vec<&str> = fields.iter().map(|f| f.0.as_str()).collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(res.get("correct").and_then(Json::as_bool), Some(true));
    assert!(res.get("attempted").and_then(Json::as_f64).unwrap() >= 1.0);
    assert_eq!(res.get("failed").and_then(Json::as_f64), Some(0.0));
    let Some(Json::Obj(metrics)) = res.get("metrics") else {
        panic!("no metrics object")
    };
    let names: Vec<&str> = metrics.iter().map(|m| m.0.as_str()).collect();
    let want: Vec<&str> = defs.iter().map(|d| d.name.as_str()).collect();
    assert_eq!(names, want);
    for ((name, m), def) in metrics.iter().zip(defs) {
        let v = m.get("value").and_then(Json::as_f64);
        assert!(v.is_some_and(f64::is_finite), "{name} is not a number");
        assert_eq!(m.get("unit").and_then(Json::as_str), Some(def.unit));
    }
}

#[test]
fn every_workload_reports_every_metric() {
    let out = out_dir("each");
    for w in WORKLOADS {
        for (trace, defs) in [("0", end_to_end()), ("1", per_layer())] {
            let (ok, stdout) = solvebench(&[
                "--workload",
                w.name,
                "--smoke",
                "--seed",
                "5",
                "--seconds",
                "8",
                "--trace",
                trace,
                "--out",
                out.to_str().unwrap(),
            ]);
            assert!(ok, "{} --trace {trace} failed:\n{stdout}", w.name);
            check_result_line(stdout.lines().last().unwrap(), &defs);
            if trace == "0" {
                // End-to-end metrics are never zero.
                let res = pscg_obs::json::parse(stdout.lines().last().unwrap()).unwrap();
                for d in &defs {
                    let v = res.get("metrics").unwrap().get(&d.name).unwrap();
                    assert!(
                        v.get("value").unwrap().as_f64().unwrap() > 0.0,
                        "{}",
                        d.name
                    );
                }
            }
        }
        let trace = std::fs::read_to_string(out.join(format!("{}.trace.json", w.name))).unwrap();
        let spans = pscg_obs::json::parse(&trace).expect("the trace file is JSON");
        let spans = spans.as_arr().unwrap();
        let roots = spans
            .iter()
            .filter(|s| s.get("name").and_then(Json::as_str) == Some("core.solve"))
            .count();
        assert_eq!(roots, 4, "one root span per method");
        assert!(spans.len() > 100);
    }
}

#[test]
fn all_writes_a_results_file_that_compares_equal_to_itself() {
    let out = out_dir("all");
    let (ok, stdout) = solvebench(&["--all", "--smoke", "--out", out.to_str().unwrap()]);
    assert!(ok, "--all --smoke failed:\n{stdout}");
    assert!(stdout.contains("[p7-jacobi end_to_end] solve_s.pipe-pscg "));
    assert!(stdout.contains("[small27-spmd per_layer] # csr_bytes = "));
    let results = out.join("solvebench.json");
    let doc = pscg_obs::json::parse(&std::fs::read_to_string(&results).unwrap()).unwrap();
    for w in WORKLOADS {
        let entry = doc.get("workloads").and_then(|ws| ws.get(w.name)).unwrap();
        assert_eq!(entry.get("solves_failed").and_then(Json::as_f64), Some(0.0));
        assert!(entry.get("info").and_then(|i| i.get("rustc")).is_some());
    }
    let file = results.to_str().unwrap();
    let (same, table) = solvebench(&["--compare", file, file]);
    assert!(same, "a results file differs from itself:\n{table}");
    assert!(table.contains("0 violation(s)"));
}

#[test]
fn bad_command_lines_are_refused() {
    assert!(!solvebench(&["--workload", "no-such-workload"]).0);
    assert!(!solvebench(&["--trace", "2", "--workload", "small27"]).0);
    assert!(!solvebench(&[]).0);
    assert!(!solvebench(&["--compare", "/nonexistent/a.json", "/nonexistent/b.json"]).0);
}
