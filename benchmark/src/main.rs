//! `solvebench` command line. See `README.md` for the protocol.
//!
//! ```text
//! solvebench --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--smoke] [--out DIR]
//! solvebench --all [--seed N] [--seconds S] [--smoke] [--out DIR]
//! solvebench --compare A.json B.json
//! solvebench --contract
//! ```

use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

use solvebench::compare::compare;
use solvebench::host::{scrub_env, Host};
use solvebench::measure::{run_end_to_end, run_per_layer, Report, RunConfig};
use solvebench::metrics::{contract_json, end_to_end, per_layer, RUN_SECONDS};
use solvebench::output::{
    assert_matches_registry, metrics_of_result, print_listing, result_line, strings_json,
    write_trace,
};
use solvebench::workload::{Workload, WORKLOADS};

/// Default `--seed`: the paper's year.
const DEFAULT_SEED: u64 = 2021;

struct Args {
    workload: Option<String>,
    all: bool,
    compare: Option<(PathBuf, PathBuf)>,
    contract: bool,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    out: PathBuf,
}

fn usage() -> String {
    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    format!(
        "usage: solvebench --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--smoke] [--out DIR]\n\
         \x20      solvebench --all [--seed N] [--seconds S] [--smoke] [--out DIR]\n\
         \x20      solvebench --compare A.json B.json\n\
         \x20      solvebench --contract\n\
         workloads: {}",
        names.join(", ")
    )
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        all: false,
        compare: None,
        contract: false,
        seed: DEFAULT_SEED,
        seconds: f64::from(RUN_SECONDS),
        trace: false,
        smoke: false,
        out: PathBuf::from("benchmark/out"),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value("a name")?),
            "--seed" => {
                args.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                let s: f64 = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(0.0..=600.0).contains(&s) {
                    return Err(format!("--seconds {s} is outside 0..=600"));
                }
                args.seconds = s;
            }
            "--trace" => {
                args.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--out" => args.out = PathBuf::from(value("a directory")?),
            "--compare" => {
                let a = PathBuf::from(value("two files")?);
                let b = PathBuf::from(it.next().ok_or("--compare needs two files")?);
                args.compare = Some((a, b));
            }
            "--all" => args.all = true,
            "--smoke" => args.smoke = true,
            "--contract" => args.contract = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

/// Runs one workload in this process and prints its result line last.
fn run_workload(args: &Args, name: &str, unset: &[String]) -> ExitCode {
    let Some(mut w) = Workload::by_name(name) else {
        eprintln!("no workload named {name}\n{}", usage());
        return ExitCode::from(2);
    };
    if args.smoke {
        w = w.smoke();
    }
    let cfg = RunConfig {
        w,
        seed: args.seed,
        seconds: if args.smoke { 0.0 } else { args.seconds },
        min_solves: if args.smoke { 1 } else { 3 },
        smoke: args.smoke,
    };
    let host = Host::probe();
    let (mut report, defs): (Report, _) = if args.trace {
        let (report, spans) = run_per_layer(&cfg, &host);
        let path = args.out.join(format!("{name}.trace.json"));
        match write_trace(&path, &spans) {
            Ok(()) => println!("# trace = {}", path.display()),
            Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
        }
        (report, per_layer())
    } else {
        (run_end_to_end(&cfg, &host), end_to_end())
    };
    report
        .info
        .push(("pscg_vars_unset".into(), format!("[{}]", unset.join(", "))));
    assert_matches_registry(&report, &defs);
    print_listing(&report, &defs);
    println!("{}", result_line(&report, &defs));
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Runs every workload, untraced then traced, one process at a time, and
/// writes the combined results file `<out>/solvebench.json`.
fn run_all(args: &Args) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find my own executable: {e}"))?;
    let mut entries = Vec::new();
    let mut all_correct = true;
    for w in WORKLOADS {
        let mut sections = Vec::new();
        let mut info = Vec::new();
        let (mut attempted, mut failed, mut correct) = (0.0, 0.0, true);
        for (trace, section) in [("0", "end_to_end"), ("1", "per_layer")] {
            let mut cmd = Command::new(&exe);
            cmd.args(["--workload", w.name, "--trace", trace])
                .args(["--seed", &args.seed.to_string()])
                .args(["--seconds", &args.seconds.to_string()])
                .arg("--out")
                .arg(&args.out)
                .stderr(Stdio::inherit());
            if args.smoke {
                cmd.arg("--smoke");
            }
            let output = cmd
                .output()
                .map_err(|e| format!("cannot run {}: {e}", w.name))?;
            // The child's listing; its last line is the machine-readable one.
            let text = String::from_utf8_lossy(&output.stdout);
            let mut lines: Vec<&str> = text.lines().collect();
            let result = lines
                .pop()
                .and_then(|l| pscg_obs::json::parse(l).ok())
                .ok_or(format!("{} --trace {trace}: no result line", w.name))?;
            for l in lines {
                println!("[{} {section}] {l}", w.name);
                if let Some((k, v)) = l.strip_prefix("# ").and_then(|kv| kv.split_once(" = ")) {
                    if !info.iter().any(|(seen, _)| seen == k) {
                        info.push((k.to_string(), v.to_string()));
                    }
                }
            }
            let field = |k: &str| result.get(k).and_then(|v| v.as_f64()).unwrap_or(f64::NAN);
            attempted += field("attempted");
            failed += field("failed");
            correct &= output.status.success()
                && result.get("correct").and_then(|v| v.as_bool()) == Some(true);
            let metrics = metrics_of_result(&result)
                .ok_or(format!("{} --trace {trace}: malformed metrics", w.name))?;
            sections.push(format!("\"{section}\": {metrics}"));
        }
        all_correct &= correct;
        entries.push(format!(
            "\"{}\": {{\"correct\": {correct}, \"solves_attempted\": {attempted}, \
             \"solves_failed\": {failed}, \"info\": {}, {}}}",
            w.name,
            strings_json(&info),
            sections.join(", ")
        ));
    }
    let doc = format!(
        "{{\"schema\": \"solvebench/1\", \"seed\": {}, \"seconds\": {}, \"smoke\": {},\n \
         \"workloads\": {{\n  {}\n }}}}\n",
        args.seed,
        args.seconds,
        args.smoke,
        entries.join(",\n  ")
    );
    let path = args.out.join("solvebench.json");
    std::fs::create_dir_all(&args.out)
        .and_then(|()| std::fs::write(&path, doc))
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    println!("results: {}", path.display());
    Ok(all_correct)
}

fn run_compare(a: &PathBuf, b: &PathBuf) -> ExitCode {
    let load = |p: &PathBuf| {
        std::fs::read_to_string(p)
            .map_err(|e| e.to_string())
            .and_then(|t| pscg_obs::json::parse(&t))
            .map_err(|e| format!("{}: {e}", p.display()))
    };
    match (load(a), load(b)) {
        (Ok(ja), Ok(jb)) => {
            let c = compare(&ja, &jb);
            print!("{}", c.table);
            if c.violations == 0 {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("{e}");
            ExitCode::from(2)
        }
    }
}

fn main() -> ExitCode {
    // Before any thread exists: the library reads these lazily.
    let unset = scrub_env();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    if args.contract {
        print!("{}", contract_json());
        ExitCode::SUCCESS
    } else if let Some((a, b)) = &args.compare {
        run_compare(a, b)
    } else if args.all {
        match run_all(&args) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::FAILURE,
            Err(e) => {
                eprintln!("{e}");
                ExitCode::FAILURE
            }
        }
    } else if let Some(name) = &args.workload {
        run_workload(&args, name, &unset)
    } else {
        eprintln!("{}", usage());
        ExitCode::from(2)
    }
}
