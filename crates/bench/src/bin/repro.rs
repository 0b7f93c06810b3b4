//! Paper-reproduction driver.
//!
//! ```text
//! repro [--scale ci|small|paper] [--verify-schedule] [--verify-concurrency]
//!       [--strict-probes] [--telemetry DIR] <experiment>...
//! experiments: table1 fig1 fig2 table2 fig3 fig4 fig5 ablation-progress crossover mpk all
//! ```
//!
//! Results are printed as markdown and written to `results/<id>.csv`.
//! `fig5` implies running `fig1`'s solves first (it replays the same
//! traces at 80 nodes).
//!
//! `--verify-schedule` runs the static communication-schedule analyzer
//! (`pscg-analysis`) over every method's trace before the experiments.
//! Verification failures exit with the finding-class codes of
//! [`pscg_analysis::exit_codes`]: 10 for overlap hazards, 11 for Table I
//! structure violations. Numerical probe findings are printed as advisory
//! unless `--strict-probes` is given, which makes them exit 12. With no
//! experiments named, the flag runs the verification alone.
//!
//! `--verify-concurrency` runs the `pscg-check` concurrency layer: the
//! exhaustive model checker over the pool dispatch protocol's bounded
//! configurations (findings exit 14) and the vector-clock race detector
//! over sync traces of instrumented solves at 1 and 4 kernel threads
//! (findings exit 15). With no experiments named, the flag runs the
//! verification alone.
//!
//! `--verify-ir` runs the declarative-IR verifier (`pscg-ir`): the static
//! passes — buffer dataflow (read-before-wait, writes into open overlap
//! windows), Table I structure derivation cross-checked against the
//! analyzer and the cost model, overlap-capacity reporting — over every
//! method's IR *without executing a solve*, then one traced solve per
//! method whose recorded schedule is replayed op-for-op against the IR.
//! Any static finding or conformance divergence exits 16. With no
//! experiments named, the flag runs the verification alone.
//! `--ir-broken MODE|all` (requires building with `--features broken-ir`)
//! instead runs the verifier against the deliberately broken specs and
//! exits 16 when every planted bug is rejected — the non-vacuousness gate.
//!
//! `--telemetry DIR` (or `PSCG_TELEMETRY=DIR`) runs every method once on
//! the scale's Poisson problem with runtime telemetry enabled and writes
//! per-method Chrome trace-event files (`DIR/<method>.trace.json`, open in
//! <https://ui.perfetto.dev>) plus per-iteration metrics streams
//! (`DIR/<method>.metrics.jsonl`). Both outputs are schema-validated, the
//! telemetry residual stream is checked bit-for-bit against the solver's
//! convergence history, and the achieved-overlap ratios are recorded in
//! `results/overlap.csv`; any mismatch aborts with exit 1. With no
//! experiments named, the flag runs the telemetry pass alone.
//!
//! `--telemetry-mode full|aggregate` selects how `--telemetry` retains
//! spans: `full` (default) keeps every span for the Chrome trace;
//! `aggregate` folds spans into O(1)-memory log-binned histograms as they
//! retire and writes `DIR/<method>.agg.json` instead of a trace
//! (the metrics stream and its bitwise residual check are unchanged).
//!
//! `--perf-report` runs every method once with telemetry enabled and joins
//! the recorded spans with the cost model and the IR's static schedule
//! (DESIGN.md §13), writing `results/perf_report.json` +
//! `results/perf_report.md` — the input to `perf-report --check`.
//!
//! `--fault-plan FILE` (or `PSCG_FAULTS=FILE`) runs a fault-injection
//! campaign instead: the plan (see `pscg-fault` for the text format) is
//! armed in a fresh simulator for every method and the solve goes through
//! the resilient supervisor. The flight recorder is armed for the
//! campaign, so any non-recovered fault leaves a post-mortem ring dump at
//! `results/flight.json`. A method passes when it either converges with
//! a recomputed residual that confirms the tolerance, or reports an
//! explicit error — a *silent* wrong answer (claimed convergence
//! contradicted by `‖b − A x‖`) aborts with exit 1. With no experiments
//! named, the flag runs the campaign alone.
//!
//! `--chaos N [--chaos-seed S]` runs N seeded chaos campaigns: each
//! campaign generates a random fault plan (data faults, completion faults
//! and rank death/straggler events — `pscg_fault::chaos`) and runs it
//! through the resilient supervisor for all 11 methods under a wall-clock
//! watchdog. The contract is *recover or error explicitly, never hang,
//! never lie*: every accepted answer's true residual is recomputed, a
//! solve that produces nothing within the deadline counts as a hang, and
//! either violation is minimized with the automatic plan shrinker
//! (`pscg_fault::shrink`), dumped next to a flight-recorder post-mortem,
//! and exits with code 18. The outcome histogram is written to
//! `results/chaos.json`.
//!
//! `--chaos-plant` (requires building with `--features broken-resilience`)
//! runs the chaos classifier against a known-bad plan on a deliberately
//! sabotaged supervisor and exits 18 only when the harness both catches
//! the planted silent-wrong answer *and* shrinks the plan to its killer
//! line — the non-vacuousness gate for the chaos machinery itself.
//!
//! `--lint-source` runs the `pscg-lint` source scanner (DESIGN.md §14)
//! over the whole workspace before anything else: every pass, inline
//! `pscg-lint: allow(…)` suppression honored, findings printed in
//! `path:line [pass] message` form. Any finding exits 19
//! ([`FindingClass::Lint`]). With no experiments named, the flag runs
//! the scan alone.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use pipescg::methods::MethodKind;
use pipescg::solver::{SolveError, SolveOptions};
use pscg_analysis::FindingClass;
use pscg_bench::problems;
use pscg_bench::{experiments, Scale};
use pscg_fault::{chaos, shrink, ChaosConfig, FaultPlan};
use pscg_precond::Jacobi;
use pscg_sim::{Machine, SimCtx};
use pscg_sparse::stencil::{poisson3d_7pt, Grid3};
use pscg_sparse::CsrMatrix;

/// Runs the static analyzer over every method's trace on the scale's
/// Poisson problem. Returns the finding classes observed: hazards and
/// structure violations always count; probe findings only under
/// `strict_probes` (they are printed as advisory either way).
fn verify_schedules(scale: &Scale, strict_probes: bool) -> Vec<FindingClass> {
    let p = problems::poisson125(scale);
    let b = p.rhs();
    let s = 4;
    println!("\n## Schedule verification ({}, s = {s})\n", p.name);
    println!("| method | ops | windows | hazards | structure | probes |");
    println!("|---|---|---|---|---|---|");
    let mut classes = Vec::new();
    for method in MethodKind::ALL {
        let mut ctx = SimCtx::traced(&p.a, Box::new(Jacobi::new(&p.a)), p.profile.clone());
        let opts = SolveOptions {
            rtol: p.rtol,
            s,
            max_iters: scale.max_iters,
            ..Default::default()
        };
        method.solve(&mut ctx, &b, None, &opts);
        let trace = ctx.take_trace().expect("tracing was enabled");
        let report = pscg_analysis::analyze(&trace);
        let violations = pscg_analysis::verify(&trace, method, s);
        println!(
            "| {} | {} | {} | {} | {} | {} |",
            method.name(),
            trace.ops.len(),
            report.windows.len(),
            report.hazards.len(),
            violations.len(),
            report.probes.len()
        );
        for h in &report.hazards {
            eprintln!("[verify-schedule] {}: {h}", method.name());
        }
        for v in &violations {
            eprintln!("[verify-schedule] {}: {v}", method.name());
        }
        for pf in &report.probes {
            let tag = if strict_probes { "" } else { " (advisory)" };
            eprintln!("[verify-schedule] {}: probe{tag}: {pf}", method.name());
        }
        if !report.hazards.is_empty() {
            classes.push(FindingClass::Hazard);
        }
        if !violations.is_empty() {
            classes.push(FindingClass::Structure);
        }
        if strict_probes && !report.probes.is_empty() {
            classes.push(FindingClass::Probe);
        }
    }
    classes
}

/// Runs the declarative-IR verifier over every method: the static passes
/// (dataflow, structure derivation, overlap capacity — no solve executed),
/// then one traced solve whose schedule is replayed against the IR. Any
/// static finding or conformance divergence contributes
/// [`FindingClass::Ir`].
fn verify_ir(scale: &Scale) -> Vec<FindingClass> {
    let p = problems::poisson125(scale);
    let b = p.rhs();
    let s = 4;
    println!("\n## IR verification ({}, s = {s})\n", p.name);
    println!("| method | IR nodes | static | overlap capacity | conformance |");
    println!("|---|---|---|---|---|");
    let mut classes = Vec::new();
    for method in MethodKind::ALL {
        let ir = pscg_ir::method_ir(method, s);
        let findings = pscg_ir::verify_static(&ir);
        let caps = pscg_ir::overlap::report(&ir);
        let capacity = if caps.is_empty() {
            "—".to_string()
        } else {
            caps.iter()
                .map(|c| {
                    format!(
                        "[{}] {} SpMV + {} PC + {} local",
                        c.tag, c.spmvs, c.pcs, c.locals
                    )
                })
                .collect::<Vec<_>>()
                .join("; ")
        };
        let mut ctx = SimCtx::traced(&p.a, Box::new(Jacobi::new(&p.a)), p.profile.clone());
        let opts = SolveOptions {
            rtol: p.rtol,
            s,
            max_iters: scale.max_iters,
            ..Default::default()
        };
        method.solve(&mut ctx, &b, None, &opts);
        let trace = ctx.take_trace().expect("tracing was enabled");
        let conformance = pscg_ir::conform(&ir, &trace);
        println!(
            "| {} | {} | {} | {capacity} | {} |",
            method.name(),
            ir.node_count(),
            if findings.is_empty() { "clean" } else { "FAIL" },
            if conformance.is_ok() {
                "ok"
            } else {
                "DIVERGED"
            },
        );
        for f in &findings {
            eprintln!("[verify-ir] {}: {f}", method.name());
        }
        if let Err(d) = &conformance {
            eprintln!("[verify-ir] {}: {d}", method.name());
        }
        if !findings.is_empty() || conformance.is_err() {
            classes.push(FindingClass::Ir);
        }
    }
    classes
}

/// Runs the IR verifier against the planted broken specs (the
/// non-vacuousness gate): exits with the IR finding code when *every*
/// planted bug is rejected by its designated layer, 1 when any slips
/// through.
#[cfg(feature = "broken-ir")]
fn run_ir_broken(scale: &Scale, mode: &str) -> ! {
    let bugs = if mode == "all" {
        pscg_ir::broken::all()
    } else {
        match pscg_ir::broken::by_name(mode) {
            Some(b) => vec![b],
            None => {
                let known: Vec<&str> = pscg_ir::broken::all().iter().map(|b| b.name).collect();
                eprintln!(
                    "unknown --ir-broken mode '{mode}'; known: {} all",
                    known.join(" ")
                );
                std::process::exit(2);
            }
        }
    };
    let p = problems::poisson125(scale);
    let b = p.rhs();
    let mut all_rejected = true;
    for bug in bugs {
        let findings = pscg_ir::verify_static(&bug.ir);
        let caught = if findings.is_empty() {
            // Statically clean by design — the trace replay must catch it.
            let mut ctx = SimCtx::traced(&p.a, Box::new(Jacobi::new(&p.a)), p.profile.clone());
            let opts = SolveOptions {
                rtol: p.rtol,
                s: bug.ir.steps,
                max_iters: scale.max_iters,
                ..Default::default()
            };
            bug.ir.kind.solve(&mut ctx, &b, None, &opts);
            let trace = ctx.take_trace().expect("tracing was enabled");
            match pscg_ir::conform(&bug.ir, &trace) {
                Err(d) => {
                    eprintln!("[ir-broken] {}: rejected by conformance: {d}", bug.name);
                    true
                }
                Ok(()) => false,
            }
        } else {
            for f in &findings {
                eprintln!("[ir-broken] {}: rejected statically: {f}", bug.name);
            }
            true
        };
        if !caught {
            all_rejected = false;
            eprintln!(
                "[ir-broken] {}: NOT rejected — the verifier is vacuous for: {}",
                bug.name, bug.detail
            );
        }
    }
    if all_rejected {
        std::process::exit(FindingClass::Ir.exit_code());
    }
    std::process::exit(1);
}

/// Methods whose kernel schedules the race detector observes: one
/// classic, one s-step, and the two pipelined s-step variants cover every
/// kernel family the par engine dispatches.
const RACE_METHODS: [MethodKind; 4] = [
    MethodKind::Pipecg,
    MethodKind::ScgSspmv,
    MethodKind::PipeScg,
    MethodKind::PipePscg,
];

/// Runs the `pscg-check` concurrency layer: the exhaustive model checker
/// over every bounded pool-protocol configuration, then the vector-clock
/// race detector over sync traces of short instrumented solves at 1 and 4
/// kernel threads. Returns the finding classes observed.
fn verify_concurrency(scale: &Scale) -> Vec<FindingClass> {
    let mut classes = Vec::new();

    println!("\n## Concurrency verification: dispatch-protocol model checking\n");
    println!("| scenario | states | findings |");
    println!("|---|---|---|");
    for report in pscg_check::check_all(pscg_check::Variant::Correct) {
        println!(
            "| {} | {} | {} |",
            report.scenario,
            report.states,
            report.findings.len()
        );
        for f in &report.findings {
            eprintln!("[verify-concurrency] model: {}: {f}", report.scenario);
        }
        if !report.ok() {
            classes.push(FindingClass::Model);
        }
    }

    let p = problems::poisson125(scale);
    let b = p.rhs();
    let s = 4;
    // A few passes give every kernel a turn; the detector's pair scan is
    // quadratic per buffer, so the window is kept deliberately short.
    let opts = SolveOptions {
        rtol: p.rtol,
        s,
        max_iters: 4 * s,
        ..Default::default()
    };
    println!(
        "\n## Concurrency verification: sync-trace race detection ({})\n",
        p.name
    );
    println!("| method | threads | events | races |");
    println!("|---|---|---|---|");
    let prev_threads = pscg_par::global_threads();
    for threads in [1usize, 4] {
        pscg_par::set_global_threads(threads);
        for method in RACE_METHODS {
            pscg_par::sync_trace::drain();
            pscg_par::sync_trace::set_enabled(true);
            let mut ctx = SimCtx::serial(&p.a, Box::new(Jacobi::new(&p.a)));
            method.solve(&mut ctx, &b, None, &opts);
            pscg_par::sync_trace::set_enabled(false);
            let trace = pscg_par::sync_trace::drain();
            let report = pscg_check::detect_races(&trace);
            println!(
                "| {} | {threads} | {} | {} |",
                method.name(),
                report.events,
                report.races.len()
            );
            for r in &report.races {
                eprintln!("[verify-concurrency] {} @{threads}t: {r}", method.name());
            }
            if report.cyclic {
                eprintln!(
                    "[verify-concurrency] {} @{threads}t: cyclic sync trace",
                    method.name()
                );
            }
            if !report.ok() {
                classes.push(FindingClass::Race);
            }
        }
    }
    pscg_par::set_global_threads(prev_threads);
    classes
}

/// Lower-case file stem for a method's telemetry artifacts.
fn method_slug(method: MethodKind) -> String {
    method.name().to_ascii_lowercase().replace(' ', "-")
}

/// Runs every method once on the scale's Poisson problem with telemetry
/// enabled, writes `DIR/<method>.trace.json` + `DIR/<method>.metrics.jsonl`
/// (in aggregate mode, `DIR/<method>.agg.json` instead of the trace),
/// validates both outputs, cross-checks the telemetry residual stream
/// bit-for-bit against the solver history, and records the achieved-overlap
/// ratios in `results/overlap.csv`. Returns false on any failure.
fn run_telemetry(scale: &Scale, dir: &Path, results: &Path, aggregate: bool) -> bool {
    let p = problems::poisson125(scale);
    let b = p.rhs();
    let s = 4;
    if let Err(e) = std::fs::create_dir_all(dir) {
        eprintln!("[telemetry] cannot create {}: {e}", dir.display());
        return false;
    }
    println!("\n## Telemetry capture ({}, s = {s})\n", p.name);
    println!("| method | iters | final relres | achieved overlap | spans | stop |");
    println!("|---|---|---|---|---|---|");
    let mut csv = String::from(
        "method,iterations,final_relres,achieved_overlap,window_ns,kernel_in_window_ns,stagnation_fired\n",
    );
    let mut ok = true;
    pscg_obs::set_enabled(true);
    if aggregate {
        pscg_obs::set_mode(pscg_obs::TelemetryMode::Aggregate);
    }
    for method in MethodKind::ALL {
        // Clear spans/aggregates left over from a previous method (or a
        // failed run).
        pscg_obs::span::drain();
        pscg_obs::agg::drain();
        let mut ctx = SimCtx::serial(&p.a, Box::new(Jacobi::new(&p.a)));
        let opts = SolveOptions {
            rtol: p.rtol,
            s,
            max_iters: scale.max_iters,
            ..Default::default()
        };
        let res = method.solve(&mut ctx, &b, None, &opts);
        let spans = pscg_obs::span::drain();
        let agg = pscg_obs::agg::drain();
        let Some(tel) = pscg_obs::metrics::take_last() else {
            eprintln!("[telemetry] {}: no stream collected", method.name());
            ok = false;
            continue;
        };

        // The acceptance bar: the per-iteration residual stream must match
        // the solver's reported convergence history exactly (same floats,
        // same order, same length).
        let stream = tel.relres_stream();
        let bits_equal = stream.len() == res.history.len()
            && stream
                .iter()
                .zip(&res.history)
                .all(|(a, b)| a.to_bits() == b.to_bits());
        if !bits_equal {
            eprintln!(
                "[telemetry] {}: residual stream diverges from solver history \
                 ({} vs {} entries)",
                method.name(),
                stream.len(),
                res.history.len()
            );
            ok = false;
        }

        let slug = method_slug(method);
        let jsonl = pscg_obs::export::metrics_jsonl(&tel);
        let jsonl_path = dir.join(format!("{slug}.metrics.jsonl"));
        if let Err(e) = std::fs::write(&jsonl_path, &jsonl) {
            eprintln!("[telemetry] write {}: {e}", jsonl_path.display());
            ok = false;
        }
        let span_count;
        if aggregate {
            // Aggregate mode retains no raw spans: the histograms are the
            // artifact. The span recorder must have stayed empty.
            span_count = agg.kinds.iter().map(|k| k.hist.count as usize).sum();
            if !spans.records.is_empty() {
                eprintln!(
                    "[telemetry] {}: {} raw spans retained in aggregate mode",
                    method.name(),
                    spans.records.len()
                );
                ok = false;
            }
            let agg_text = pscg_obs::export::aggregate_json(&agg);
            let agg_path = dir.join(format!("{slug}.agg.json"));
            if let Err(e) = std::fs::write(&agg_path, &agg_text) {
                eprintln!("[telemetry] write {}: {e}", agg_path.display());
                ok = false;
            }
            match pscg_obs::export::validate_aggregate_json(&agg_text) {
                Ok(check) => {
                    if check.spans == 0 {
                        eprintln!("[telemetry] {}: empty aggregate", method.name());
                        ok = false;
                    }
                }
                Err(e) => {
                    eprintln!("[telemetry] {}: invalid aggregate: {e}", method.name());
                    ok = false;
                }
            }
        } else {
            span_count = spans.records.len();
            let trace = pscg_obs::export::chrome_trace(&spans);
            let trace_path = dir.join(format!("{slug}.trace.json"));
            if let Err(e) = std::fs::write(&trace_path, &trace) {
                eprintln!("[telemetry] write {}: {e}", trace_path.display());
                ok = false;
            }
            match pscg_obs::export::validate_chrome_trace(&trace) {
                Ok(check) => {
                    if check.events == 0 {
                        eprintln!("[telemetry] {}: empty trace", method.name());
                        ok = false;
                    }
                }
                Err(e) => {
                    eprintln!("[telemetry] {}: invalid Chrome trace: {e}", method.name());
                    ok = false;
                }
            }
        }
        match pscg_obs::export::validate_metrics_jsonl(&jsonl) {
            Ok(check) => {
                let reparsed_equal = check.relres.len() == res.history.len()
                    && check
                        .relres
                        .iter()
                        .zip(&res.history)
                        .all(|(a, b)| a.to_bits() == b.to_bits());
                if !reparsed_equal {
                    eprintln!(
                        "[telemetry] {}: JSONL residuals do not round-trip the \
                         solver history bit-for-bit",
                        method.name()
                    );
                    ok = false;
                }
            }
            Err(e) => {
                eprintln!("[telemetry] {}: invalid metrics JSONL: {e}", method.name());
                ok = false;
            }
        }

        let overlap = tel.finish.achieved_overlap();
        let overlap_str = if overlap.is_nan() {
            "—".to_string()
        } else {
            format!("{:.3}", overlap)
        };
        println!(
            "| {} | {} | {:.3e} | {} | {} | {} |",
            method.name(),
            res.iterations,
            res.final_relres,
            overlap_str,
            span_count,
            tel.finish.stop
        );
        csv.push_str(&format!(
            "{},{},{:e},{},{},{},{}\n",
            method.name(),
            res.iterations,
            res.final_relres,
            if overlap.is_nan() {
                "".to_string()
            } else {
                format!("{overlap:.6}")
            },
            tel.finish.window_ns,
            tel.finish.kernel_in_window_ns,
            tel.finish.stagnation_fired
        ));
    }
    pscg_obs::set_enabled(false);
    pscg_obs::set_mode(pscg_obs::TelemetryMode::Full);
    let _ = std::fs::create_dir_all(results);
    let csv_path = results.join("overlap.csv");
    if let Err(e) = std::fs::write(&csv_path, &csv) {
        eprintln!("[telemetry] write {}: {e}", csv_path.display());
        ok = false;
    } else {
        println!(
            "\nwrote {} and {}/*.{}",
            csv_path.display(),
            dir.display(),
            if aggregate { "agg.json" } else { "trace.json" }
        );
    }
    ok
}

/// Runs every method once with telemetry enabled and joins the recorded
/// spans with the cost model and the IR's static schedule (DESIGN.md §13):
/// per-kernel achieved GFLOP/s / GB/s under the model's traffic
/// assumption, plus achieved overlap against the IR's capacity report.
/// Writes `results/perf_report.json` + `results/perf_report.md`. Returns
/// false on any failure.
fn run_perf_report(scale: &Scale, results: &Path) -> bool {
    let p = problems::poisson125(scale);
    let b = p.rhs();
    let s = 4;
    println!("\n## Perf report ({}, s = {s})\n", p.name);
    let mut report = pscg_bench::perf_report::PerfReport::default();
    let mut ok = true;
    pscg_obs::set_enabled(true);
    for method in MethodKind::ALL {
        pscg_obs::span::drain();
        let mut ctx = SimCtx::serial(&p.a, Box::new(Jacobi::new(&p.a)));
        let opts = SolveOptions {
            rtol: p.rtol,
            s,
            max_iters: scale.max_iters,
            ..Default::default()
        };
        method.solve(&mut ctx, &b, None, &opts);
        let spans = pscg_obs::span::drain();
        let Some(tel) = pscg_obs::metrics::take_last() else {
            eprintln!("[perf-report] {}: no stream collected", method.name());
            ok = false;
            continue;
        };
        report
            .methods
            .push(pscg_bench::perf_report::method_perf(method, &spans, &tel));
    }
    pscg_obs::set_enabled(false);
    if report.methods.is_empty() {
        return false;
    }
    print!("{}", pscg_bench::perf_report::render_md(&report));
    let _ = std::fs::create_dir_all(results);
    let json_path = results.join("perf_report.json");
    let md_path = results.join("perf_report.md");
    let json = pscg_bench::perf_report::render_json(&report);
    if let Err(e) = pscg_bench::perf_report::parse_report(&json) {
        eprintln!("[perf-report] rendered report does not reparse: {e}");
        ok = false;
    }
    for (path, text) in [
        (&json_path, json),
        (&md_path, pscg_bench::perf_report::render_md(&report)),
    ] {
        if let Err(e) = std::fs::write(path, text) {
            eprintln!("[perf-report] write {}: {e}", path.display());
            ok = false;
        }
    }
    println!("\nwrote {} and {}", json_path.display(), md_path.display());
    ok
}

/// Arms `plan` in a fresh simulator for every method and solves through the
/// resilient supervisor. Returns false when any method produces a *silent*
/// wrong answer — claimed convergence whose recomputed residual `‖b − A x‖`
/// contradicts the tolerance. Clean convergence (possibly after recovery)
/// and explicit errors both pass: the contract is "never hang, never lie".
///
/// The flight recorder is armed for the whole campaign with its dump bound
/// to `results/flight.json`: the resilient supervisor dumps the final
/// iterations' ring there whenever an attempt breaks down or the recovery
/// ladder is exhausted, so a non-recovered fault always leaves a
/// post-mortem artifact.
fn run_fault_campaign(scale: &Scale, plan: &FaultPlan, results: &Path) -> bool {
    let p = problems::poisson125(scale);
    let b = p.rhs();
    let s = 4;
    println!(
        "\n## Fault campaign ({}, s = {s}, seed {}, {} event(s))\n",
        p.name,
        plan.seed,
        plan.events.len()
    );
    println!("| method | outcome | iters | true relres | faults hit |");
    println!("|---|---|---|---|---|");
    let mut ok = true;
    let flight_path = results.join("flight.json");
    pscg_obs::set_enabled(true);
    pscg_obs::flight::configure(16, Some(flight_path.clone()));
    for method in MethodKind::ALL {
        let mut ctx = SimCtx::serial(&p.a, Box::new(Jacobi::new(&p.a)));
        ctx.arm_faults(plan.clone());
        let opts = SolveOptions {
            rtol: p.rtol,
            s,
            max_iters: scale.max_iters,
            ..Default::default()
        };
        let outcome = method.solve_resilient(&mut ctx, &b, None, &opts);
        let hits = ctx.fault_log().len();
        match outcome {
            Ok(res) => {
                let t = res.true_relres(&p.a, &b);
                let lied = res.converged() && !(t.is_finite() && t <= p.rtol * 100.0);
                if lied {
                    eprintln!(
                        "[fault-plan] {}: SILENT WRONG ANSWER — reported {:?} \
                         at relres {:.3e} but true relres is {:.3e}",
                        method.name(),
                        res.stop,
                        res.final_relres,
                        t
                    );
                    ok = false;
                }
                println!(
                    "| {} | {:?} | {} | {:.3e} | {} |",
                    method.name(),
                    res.stop,
                    res.iterations,
                    t,
                    hits
                );
            }
            Err(e) => {
                // An explicit error is an acceptable outcome: the solver
                // refused to report a solution it could not vouch for. The
                // supervisor left a flight dump for the failure.
                println!("| {} | {e} | — | — | {hits} |", method.name());
                match pscg_obs::flight::validate_flight_file(&flight_path) {
                    Ok(check) => eprintln!(
                        "[fault-plan] {}: flight dump at {} ({}, {} frame(s), {} span(s))",
                        method.name(),
                        flight_path.display(),
                        check.reason,
                        check.iters,
                        check.spans
                    ),
                    Err(err) => {
                        eprintln!(
                            "[fault-plan] {}: missing/invalid flight dump at {}: {err}",
                            method.name(),
                            flight_path.display()
                        );
                        ok = false;
                    }
                }
            }
        }
    }
    pscg_obs::flight::configure(0, None);
    pscg_obs::set_enabled(false);
    ok
}

/// The fixed small Poisson problem every chaos solve runs on: large enough
/// for the s-step methods to take several outer iterations, small enough
/// that hundreds of campaigns finish in CI time.
fn chaos_problem() -> (CsrMatrix, Vec<f64>) {
    let g = Grid3::cube(6);
    let a = poisson3d_7pt(g, None);
    let n = a.nrows();
    let xstar: Vec<f64> = (0..n).map(|i| (0.31 * i as f64).sin()).collect();
    let b = a.mul_vec(&xstar);
    (a, b)
}

/// Tolerance of every chaos solve; an accepted answer must verify to
/// within 100x of it on the recomputed residual.
const CHAOS_RTOL: f64 = 1e-6;

/// What one (method, plan) chaos solve did, classified against the
/// resilience contract.
struct ChaosOutcome {
    /// Histogram key: `clean`, `recovered`, `explicit-error`, `rank-lost`,
    /// `silent-wrong` or `hang`.
    class: &'static str,
    /// True for the contract violations (`silent-wrong`, `hang`).
    violation: bool,
    /// Human-readable context for the campaign log.
    detail: String,
    /// The engine's deterministic recovery-code log for the solve.
    recovery: Vec<u64>,
}

/// Arms `plan` in a fresh simulator, solves through the resilient
/// supervisor and classifies the outcome. Hang detection is the caller's
/// job ([`chaos_solve_watched`]).
fn chaos_classify(a: &CsrMatrix, b: &[f64], method: MethodKind, plan: &FaultPlan) -> ChaosOutcome {
    let mut ctx = SimCtx::serial(a, Box::new(Jacobi::new(a)));
    ctx.arm_faults(plan.clone());
    let opts = SolveOptions {
        rtol: CHAOS_RTOL,
        s: 3,
        max_iters: 400,
        ..Default::default()
    };
    let outcome = method.solve_resilient(&mut ctx, b, None, &opts);
    let recovery = ctx.take_recovery_log();
    match outcome {
        Ok(res) if res.converged() => {
            let t = res.true_relres(a, b);
            if t.is_finite() && t <= CHAOS_RTOL * 100.0 {
                let (class, detail) = if recovery.is_empty() {
                    ("clean", String::new())
                } else {
                    ("recovered", format!("codes {recovery:?}"))
                };
                ChaosOutcome {
                    class,
                    violation: false,
                    detail,
                    recovery,
                }
            } else {
                ChaosOutcome {
                    class: "silent-wrong",
                    violation: true,
                    detail: format!(
                        "reported {:?} at relres {:.3e} but true relres is {:.3e}",
                        res.stop, res.final_relres, t
                    ),
                    recovery,
                }
            }
        }
        Ok(res) => ChaosOutcome {
            class: "explicit-error",
            violation: false,
            detail: format!("{:?} after {} iter(s)", res.stop, res.iterations),
            recovery,
        },
        Err(SolveError::RankLost { rank, iterations }) => ChaosOutcome {
            class: "rank-lost",
            violation: false,
            detail: format!("rank {rank} unrecoverable after {iterations} step(s)"),
            recovery,
        },
        Err(e) => ChaosOutcome {
            class: "explicit-error",
            violation: false,
            detail: e.to_string(),
            recovery,
        },
    }
}

/// Runs [`chaos_classify`] on a worker thread under a wall-clock deadline.
/// A solve that neither returns nor errors within `deadline` is the
/// contract violation `hang`; the stuck worker is abandoned (the process
/// exits with the campaign).
fn chaos_solve_watched(
    a: &CsrMatrix,
    b: &[f64],
    method: MethodKind,
    plan: &FaultPlan,
    deadline: Duration,
) -> ChaosOutcome {
    let (tx, rx) = std::sync::mpsc::channel();
    let (a2, b2, plan2) = (a.clone(), b.to_vec(), plan.clone());
    std::thread::spawn(move || {
        let _ = tx.send(chaos_classify(&a2, &b2, method, &plan2));
    });
    match rx.recv_timeout(deadline) {
        Ok(out) => out,
        Err(_) => ChaosOutcome {
            class: "hang",
            violation: true,
            detail: format!("no outcome within {deadline:.0?}"),
            recovery: Vec::new(),
        },
    }
}

/// Minimal JSON string escaping for the hand-rolled `chaos.json`.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Shrinks the plan behind a contract violation to a 1-minimal
/// reproduction (same method, same outcome class), writes it next to a
/// flight-recorder post-mortem, and returns the shrunk plan.
fn chaos_shrink_violation(
    a: &CsrMatrix,
    b: &[f64],
    method: MethodKind,
    plan: &FaultPlan,
    class: &'static str,
    results: &Path,
    tag: &str,
) -> FaultPlan {
    // Re-running a hang costs the full deadline per probe, so the shrinker
    // gets a shorter one; outcome classes are deterministic per plan.
    let deadline = Duration::from_secs(if class == "hang" { 10 } else { 30 });
    let shrunk = shrink::shrink(plan, |cand| {
        chaos_solve_watched(a, b, method, cand, deadline).class == class
    });
    let plan_path = results.join(format!("chaos_{tag}_{}.plan", method_slug(method)));
    if let Err(e) = std::fs::write(&plan_path, shrunk.to_text()) {
        eprintln!("[chaos] write {}: {e}", plan_path.display());
    } else {
        eprintln!(
            "[chaos] {}: shrunk {class} reproduction written to {}:\n{}",
            method.name(),
            plan_path.display(),
            shrunk.to_text()
        );
    }
    if let Some(p) = pscg_obs::flight::dump_to_path(&format!("chaos:{class}")) {
        eprintln!("[chaos] flight post-mortem at {}", p.display());
    }
    shrunk
}

/// Runs `n` seeded chaos campaigns across every method and enforces the
/// resilience contract: *recover or error explicitly, never hang, never
/// lie*. Writes the outcome histogram to `results/chaos.json`; every
/// violation is shrunk to a minimal plan and contributes
/// [`FindingClass::Chaos`].
fn run_chaos(n: usize, seed: u64, results: &Path) -> Vec<FindingClass> {
    let (a, b) = chaos_problem();
    println!(
        "\n## Chaos campaign ({n} plan(s), base seed {seed}, {} rows, rtol {CHAOS_RTOL:.0e})\n",
        a.nrows()
    );
    println!("| campaign | plan | outcomes |");
    println!("|---|---|---|");
    let mut hist: BTreeMap<&'static str, usize> = BTreeMap::new();
    let mut code_hist: BTreeMap<u64, usize> = BTreeMap::new();
    let mut violations: Vec<(usize, MethodKind, &'static str, String, FaultPlan)> = Vec::new();
    let _ = std::fs::create_dir_all(results);
    pscg_obs::set_enabled(true);
    pscg_obs::flight::configure(16, Some(results.join("flight.json")));
    for k in 0..n {
        let plan = chaos::generate(seed.wrapping_add(k as u64), &ChaosConfig::default());
        let mut classes: BTreeMap<&'static str, usize> = BTreeMap::new();
        for method in MethodKind::ALL {
            let out = chaos_solve_watched(&a, &b, method, &plan, Duration::from_secs(30));
            *hist.entry(out.class).or_insert(0) += 1;
            *classes.entry(out.class).or_insert(0) += 1;
            for &c in &out.recovery {
                *code_hist.entry(c).or_insert(0) += 1;
            }
            if out.violation {
                eprintln!(
                    "[chaos] campaign {k}: {}: {} — {}\nplan:\n{}",
                    method.name(),
                    out.class.to_ascii_uppercase(),
                    out.detail,
                    plan.to_text()
                );
                violations.push((k, method, out.class, out.detail, plan.clone()));
            }
        }
        let summary = classes
            .iter()
            .map(|(c, cnt)| format!("{c} x{cnt}"))
            .collect::<Vec<_>>()
            .join(", ");
        println!(
            "| {k} | {} event(s), {} rank event(s) | {summary} |",
            plan.events.len(),
            plan.rank_events.len()
        );
    }
    for (k, method, class, _, plan) in &violations {
        chaos_shrink_violation(&a, &b, *method, plan, class, results, &format!("c{k}"));
    }
    pscg_obs::flight::configure(0, None);
    pscg_obs::set_enabled(false);

    let mut json = format!(
        "{{\n  \"seed\": {seed},\n  \"campaigns\": {n},\n  \"methods\": {},\n  \"solves\": {},\n",
        MethodKind::ALL.len(),
        n * MethodKind::ALL.len()
    );
    json.push_str("  \"outcomes\": {");
    json.push_str(
        &hist
            .iter()
            .map(|(c, cnt)| format!("\"{c}\": {cnt}"))
            .collect::<Vec<_>>()
            .join(", "),
    );
    json.push_str("},\n  \"recovery_codes\": {");
    json.push_str(
        &code_hist
            .iter()
            .map(|(c, cnt)| format!("\"{c}\": {cnt}"))
            .collect::<Vec<_>>()
            .join(", "),
    );
    json.push_str("},\n  \"violations\": [");
    json.push_str(
        &violations
            .iter()
            .map(|(k, m, class, detail, plan)| {
                format!(
                    "{{\"campaign\": {k}, \"method\": \"{}\", \"class\": \"{class}\", \
                     \"detail\": \"{}\", \"plan\": \"{}\"}}",
                    m.name(),
                    json_escape(detail),
                    json_escape(&plan.to_text())
                )
            })
            .collect::<Vec<_>>()
            .join(", "),
    );
    json.push_str("]\n}\n");
    let json_path = results.join("chaos.json");
    if let Err(e) = std::fs::write(&json_path, &json) {
        eprintln!("[chaos] write {}: {e}", json_path.display());
    } else {
        println!("\nwrote {}", json_path.display());
    }

    let total: usize = hist.values().sum();
    println!(
        "\n{} solve(s): {}",
        total,
        hist.iter()
            .map(|(c, cnt)| format!("{cnt} {c}"))
            .collect::<Vec<_>>()
            .join(", ")
    );
    if violations.is_empty() {
        Vec::new()
    } else {
        vec![FindingClass::Chaos]
    }
}

/// The chaos-harness non-vacuousness gate: classifies a known-bad plan on
/// the deliberately sabotaged supervisor (`broken-resilience`), requiring
/// the harness to flag the silent-wrong answer and shrink the plan to its
/// single killer line. Exits 18 when both happen, 1 otherwise.
#[cfg(feature = "broken-resilience")]
fn run_chaos_plant(results: &Path) -> ! {
    // One killer (an early large SpMV bit flip the sabotaged supervisor
    // accepts) buried under three decoys the shrinker must strip.
    let text = "seed 99\n\
                at spmv 1 bitflip 51\n\
                at pc 7 perturb 1e-12\n\
                at wait 9 delay 1\n\
                rank_slow 3 2.0 5\n";
    let plan = FaultPlan::parse(text).expect("plant plan parses");
    let (a, b) = chaos_problem();
    let _ = std::fs::create_dir_all(results);
    pscg_obs::set_enabled(true);
    pscg_obs::flight::configure(16, Some(results.join("flight.json")));
    let mut caught = None;
    for method in MethodKind::ALL {
        let out = chaos_solve_watched(&a, &b, method, &plan, Duration::from_secs(30));
        eprintln!(
            "[chaos-plant] {}: {} {}",
            method.name(),
            out.class,
            out.detail
        );
        if out.violation {
            caught = Some((method, out.class));
            break;
        }
    }
    let Some((method, class)) = caught else {
        eprintln!(
            "[chaos-plant] NOT caught — the chaos harness is vacuous for the \
             sabotaged supervisor"
        );
        std::process::exit(1);
    };
    let shrunk = chaos_shrink_violation(&a, &b, method, &plan, class, results, "plant");
    pscg_obs::flight::configure(0, None);
    pscg_obs::set_enabled(false);
    let lines = shrunk.events.len() + shrunk.rank_events.len();
    if lines > 3 {
        eprintln!("[chaos-plant] shrinker left {lines} line(s) (expected <= 3)");
        std::process::exit(1);
    }
    eprintln!(
        "[chaos-plant] caught as {class} on {} and shrunk to {lines} line(s)",
        method.name()
    );
    std::process::exit(FindingClass::Chaos.exit_code());
}

fn main() {
    let mut scale = Scale::from_env();
    let mut wanted: Vec<String> = Vec::new();
    let mut verify_schedule = false;
    let mut verify_conc = false;
    let mut verify_ir_flag = false;
    let mut lint_source = false;
    let mut ir_broken: Option<String> = None;
    let mut strict_probes = false;
    let mut telemetry: Option<PathBuf> = std::env::var_os("PSCG_TELEMETRY").map(PathBuf::from);
    let mut fault_plan: Option<PathBuf> = std::env::var_os("PSCG_FAULTS").map(PathBuf::from);
    let mut aggregate = false;
    let mut perf_report = false;
    let mut chaos_n: Option<usize> = None;
    let mut chaos_seed: u64 = 2024;
    let mut chaos_plant = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--verify-schedule" => verify_schedule = true,
            "--verify-concurrency" => verify_conc = true,
            "--verify-ir" => verify_ir_flag = true,
            "--lint-source" => lint_source = true,
            "--ir-broken" => {
                let Some(mode) = args.next() else {
                    eprintln!("--ir-broken needs a mode name or 'all'");
                    std::process::exit(2);
                };
                ir_broken = Some(mode);
            }
            "--strict-probes" => strict_probes = true,
            "--telemetry" => {
                let Some(dir) = args.next() else {
                    eprintln!("--telemetry needs a directory");
                    std::process::exit(2);
                };
                telemetry = Some(PathBuf::from(dir));
            }
            "--telemetry-mode" => {
                let mode = args.next().unwrap_or_default();
                aggregate = match mode.as_str() {
                    "full" => false,
                    "aggregate" => true,
                    other => {
                        eprintln!("unknown telemetry mode '{other}' (full|aggregate)");
                        std::process::exit(2);
                    }
                };
            }
            "--perf-report" => perf_report = true,
            "--fault-plan" => {
                let Some(file) = args.next() else {
                    eprintln!("--fault-plan needs a file");
                    std::process::exit(2);
                };
                fault_plan = Some(PathBuf::from(file));
            }
            "--chaos" => {
                let Some(n) = args.next().and_then(|v| v.parse().ok()) else {
                    eprintln!("--chaos needs a campaign count");
                    std::process::exit(2);
                };
                chaos_n = Some(n);
            }
            "--chaos-seed" => {
                let Some(s) = args.next().and_then(|v| v.parse().ok()) else {
                    eprintln!("--chaos-seed needs an integer seed");
                    std::process::exit(2);
                };
                chaos_seed = s;
            }
            "--chaos-plant" => chaos_plant = true,
            "--scale" => {
                let v = args.next().unwrap_or_default();
                scale = match v.as_str() {
                    "ci" => Scale::ci(),
                    "small" => Scale::small(),
                    "paper" => Scale::paper(),
                    other => {
                        eprintln!("unknown scale '{other}' (ci|small|paper)");
                        std::process::exit(2);
                    }
                };
            }
            "--help" | "-h" => {
                eprintln!(
                    "usage: repro [--scale ci|small|paper] [--verify-schedule] \
                     [--verify-concurrency] [--verify-ir] [--ir-broken MODE|all] \
                     [--lint-source] [--strict-probes] \
                     [--telemetry DIR] [--telemetry-mode full|aggregate] \
                     [--perf-report] [--fault-plan FILE] \
                     [--chaos N] [--chaos-seed S] [--chaos-plant] <experiment>...\n\
                     experiments: table1 fig1 fig2 table2 fig3 fig4 fig5 \
                     ablation-progress crossover mpk all"
                );
                return;
            }
            other => wanted.push(other.to_string()),
        }
    }
    if wanted.is_empty()
        && !verify_schedule
        && !verify_conc
        && !verify_ir_flag
        && !lint_source
        && !perf_report
        && ir_broken.is_none()
        && telemetry.is_none()
        && fault_plan.is_none()
        && chaos_n.is_none()
        && !chaos_plant
    {
        wanted.push("all".to_string());
    }
    const KNOWN: [&str; 11] = [
        "all",
        "table1",
        "fig1",
        "fig2",
        "table2",
        "fig3",
        "fig4",
        "fig5",
        "ablation-progress",
        "crossover",
        "mpk",
    ];
    for w in &wanted {
        if !KNOWN.contains(&w.as_str()) {
            eprintln!("unknown experiment '{w}'; known: {}", KNOWN.join(" "));
            std::process::exit(2);
        }
    }
    let all = wanted.iter().any(|w| w == "all");
    let want = |name: &str| all || wanted.iter().any(|w| w == name);

    let machine = Machine::sahasrat();
    let results = PathBuf::from("results");
    println!(
        "# PIPE-PsCG reproduction — scale '{}' (125-pt grid {}^3), machine '{}'",
        scale.name, scale.poisson_n, machine.name
    );

    let t0 = Instant::now();
    if let Some(mode) = &ir_broken {
        #[cfg(feature = "broken-ir")]
        run_ir_broken(&scale, mode);
        #[cfg(not(feature = "broken-ir"))]
        {
            eprintln!(
                "--ir-broken {mode} requires building with --features broken-ir \
                 (the planted specs are gated out of normal builds)"
            );
            std::process::exit(2);
        }
    }
    if lint_source {
        // The workspace root relative to this crate, resolved at compile
        // time; matches the lint-source binary's default.
        let root = Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."));
        match pscg_lint::scan_workspace(root) {
            Ok(report) => {
                eprint!("{}", pscg_lint::render_text(&report));
                if !report.findings.is_empty() {
                    eprintln!("[repro] source lint FAILED (lint)");
                    std::process::exit(FindingClass::Lint.exit_code());
                }
            }
            Err(e) => {
                eprintln!("[repro] lint-source: cannot scan the workspace: {e}");
                std::process::exit(2);
            }
        }
    }
    if verify_schedule {
        let found = verify_schedules(&scale, strict_probes);
        if let Some(worst) = pscg_analysis::exit_codes::most_severe(&found) {
            eprintln!("[repro] schedule verification FAILED ({worst})");
            std::process::exit(worst.exit_code());
        }
    }
    if verify_conc {
        let found = verify_concurrency(&scale);
        if let Some(worst) = pscg_analysis::exit_codes::most_severe(&found) {
            eprintln!("[repro] concurrency verification FAILED ({worst})");
            std::process::exit(worst.exit_code());
        }
    }
    if verify_ir_flag {
        let found = verify_ir(&scale);
        if let Some(worst) = pscg_analysis::exit_codes::most_severe(&found) {
            eprintln!("[repro] IR verification FAILED ({worst})");
            std::process::exit(worst.exit_code());
        }
    }
    if let Some(dir) = &telemetry {
        if !run_telemetry(&scale, dir, &results, aggregate) {
            eprintln!("[repro] telemetry capture FAILED");
            std::process::exit(1);
        }
    }
    if perf_report && !run_perf_report(&scale, &results) {
        eprintln!("[repro] perf report FAILED");
        std::process::exit(1);
    }
    if let Some(file) = &fault_plan {
        let text = match std::fs::read_to_string(file) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("[fault-plan] cannot read {}: {e}", file.display());
                std::process::exit(2);
            }
        };
        let plan = match FaultPlan::parse(&text) {
            Ok(p) => p,
            Err(e) => {
                eprintln!("[fault-plan] {}: {e}", file.display());
                std::process::exit(2);
            }
        };
        if !run_fault_campaign(&scale, &plan, &results) {
            eprintln!("[repro] fault campaign FAILED");
            std::process::exit(1);
        }
    }
    if chaos_plant {
        #[cfg(feature = "broken-resilience")]
        run_chaos_plant(&results);
        #[cfg(not(feature = "broken-resilience"))]
        {
            eprintln!(
                "--chaos-plant requires building with --features broken-resilience \
                 (the sabotaged supervisor is gated out of normal builds)"
            );
            std::process::exit(2);
        }
    }
    if let Some(n) = chaos_n {
        let found = run_chaos(n, chaos_seed, &results);
        if let Some(worst) = pscg_analysis::exit_codes::most_severe(&found) {
            eprintln!("[repro] chaos campaign FAILED ({worst})");
            std::process::exit(worst.exit_code());
        }
    }
    if want("table1") {
        experiments::table1(3).emit(&results);
        experiments::table1(5).emit(&results);
    }
    let mut fig1_runs = None;
    if want("fig1") || want("fig5") {
        let (rep, runs) = experiments::fig1(&scale, &machine);
        if want("fig1") {
            rep.emit(&results);
        }
        fig1_runs = Some(runs);
    }
    if want("fig2") {
        let (rep, _) = experiments::fig2(&scale, &machine);
        rep.emit(&results);
    }
    if want("table2") {
        experiments::table2(&scale, &machine).emit(&results);
    }
    if want("fig3") {
        experiments::fig3(&scale, &machine).emit(&results);
    }
    if want("fig4") {
        experiments::fig4(&scale, &machine).emit(&results);
    }
    if want("fig5") {
        let runs = fig1_runs.as_ref().expect("fig1 runs present");
        experiments::fig5(runs, &machine).emit(&results);
    }
    if want("ablation-progress") {
        experiments::ablation_progress(&scale).emit(&results);
    }
    if want("crossover") {
        experiments::crossover(&scale, &machine).emit(&results);
    }
    if want("mpk") {
        experiments::mpk(&scale, &machine).emit(&results);
    }
    eprintln!("\n[repro] done in {:.1}s", t0.elapsed().as_secs_f64());
}
