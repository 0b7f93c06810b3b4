//! Kernel-engine benchmark: per-kernel GFLOP/s at several thread counts.
//!
//! ```text
//! kernelbench [--grid N] [--threads LIST] [--s S] [--out PATH] [--check]
//!             [--min-speedup X] [--baseline PATH] [--telemetry PATH] [tune]
//! ```
//!
//! Measures the hot paths of the s-step overlap window — SpMV, the blocked
//! Gram product, the whole in-place recurrence pass of a PIPE-PsCG
//! iteration with its Gram packet (`fused_step`) and the Gram packet kernel
//! alone (`gram_packet`) — and PIPECG's fused recurrence sweep with its
//! four dot products (`pipecg_step`, serial by design) on the 7-pt Poisson
//! stencil at `N³` (default 256³, the CI perf-smoke problem), and one
//! geometric-multigrid preconditioner apply (`mg_apply`) on the 125-pt 48³
//! operator whatever `--grid` says, each at every thread count in
//! `--threads` (default `1,4`). SpMV, the recurrence kernels and `mg_apply`
//! are reported with their computed GB/s: the cost model's bytes for SpMV
//! (DESIGN.md §12), the unique columns moved for the recurrence kernels,
//! and the cost model's bytes of every sparse product the V-cycle runs for
//! `mg_apply`. Writes a JSON baseline (`--out`, default
//! `BENCH_kernels.json`).
//!
//! `--check` enforces the perf-smoke gate: parallel SpMV at the highest
//! thread count must reach `--min-speedup` (default 1.0) over serial. The
//! gate only binds when the host actually has that many cores — on a
//! smaller machine the result is recorded and an explicit `gate: SKIPPED`
//! line is printed (a 4-thread pool on one core measures oversubscription,
//! not the engine).
//!
//! `--baseline PATH` compares this run against a previously committed
//! report: every (kernel, threads) cell present in both is compared, and a
//! GFLOP/s drop of more than 20% is a regression that fails the run with
//! exit 1. Cells whose thread count exceeds the host's cores are skipped
//! with an explicit log line, as is the whole comparison on a host too
//! small to enforce anything meaningful.
//!
//! `tune` sweeps the chunk-size knobs around the model defaults
//! ([`pipescg::autotune::KernelTuning`]) at the highest requested thread
//! count, and prints/installs the empirical best.
//!
//! `--telemetry PATH` records one `bench` span per measured
//! (kernel, thread-count) cell and writes a Chrome trace-event file
//! loadable in <https://ui.perfetto.dev>. The thread-pool submission
//! counters (`pscg_par::stats`) are printed after every run regardless.

use std::fmt::Write as _;

use pipescg::autotune::KernelTuning;
use pscg_bench::microbench::{gflops_per_sec, Group};
use pscg_bench::perf_report::spmv_model_bytes_per_nnz;
use pscg_obs::SpanKind;
use pscg_par::{knobs, stats::PoolStats, Pool};
use pscg_precond::multigrid::gmg;
use pscg_sparse::kernels::{pipecg_sweep, PipecgVectors};
use pscg_sparse::multivec::{
    fused_recurrence_step_with, gram_packet_with, GramPacketBuf, RecurrenceFamily,
};
use pscg_sparse::stencil::{poisson3d_125pt, poisson3d_7pt, Grid3};
use pscg_sparse::{CsrMatrix, MultiVector, Operator};

/// One measured (kernel, thread-count) cell.
struct Cell {
    kernel: &'static str,
    threads: usize,
    median_secs: f64,
    gflops: f64,
    /// `spmv` only: the cost model's traffic per stored entry (DESIGN.md
    /// §12), the bytes behind its `gbps_computed`.
    bytes_per_nnz: Option<f64>,
    /// `fused_step`, `gram_packet`, `pipecg_step` and `mg_apply` only: the
    /// rows they ran on (for `mg_apply`, of the fine level).
    rows: Option<usize>,
    /// Computed bytes over measured time: the model's bytes for `spmv` and
    /// for each sparse product of `mg_apply`; for `fused_step`,
    /// `gram_packet` and `pipecg_step` each unique column counted once per
    /// direction it moves (read, and written back if updated).
    gbps_computed: Option<f64>,
}

/// Rows of the `fused_step` and `gram_packet` cells: the two families hold
/// `2s² + 8s + 2` columns (66 at s = 4), so they run on a prefix of the
/// grid that keeps them near 0.5 GB whatever `--grid` says.
const FUSED_STEP_MAX_ROWS: usize = 1 << 20;

/// Grid side of the `mg_apply` cell: the `p125-mg` benchmark operator.
const MG_GRID: usize = 48;

/// The blocks of one power family, seeded.
struct FamilyBlocks {
    pow: MultiVector,
    dirs: MultiVector,
    apow: Vec<MultiVector>,
}

impl FamilyBlocks {
    fn new(n: usize, s: usize, seed: usize) -> Self {
        let block = |ncols: usize, salt: usize| {
            let mut m = MultiVector::zeros(n, ncols);
            for (i, v) in m.data_mut().iter_mut().enumerate() {
                *v = ((i + seed + salt) as f64 * 0.01).cos();
            }
            m
        };
        FamilyBlocks {
            pow: block(2 * s + 1, 1),
            dirs: block(s, 3),
            apow: (0..=s).map(|w| block(s, 5 + w)).collect(),
        }
    }

    fn family(&mut self) -> RecurrenceFamily<'_> {
        RecurrenceFamily {
            pow: &mut self.pow,
            dirs: &mut self.dirs,
            apow: &mut self.apow,
        }
    }
}

struct Config {
    grid: usize,
    threads: Vec<usize>,
    s: usize,
    out: String,
    check: bool,
    min_speedup: f64,
    baseline: Option<String>,
    tune: bool,
    telemetry: Option<String>,
}

fn parse_args() -> Config {
    let mut cfg = Config {
        grid: 256,
        threads: vec![1, 4],
        s: 4,
        out: "BENCH_kernels.json".to_string(),
        check: false,
        min_speedup: 1.0,
        baseline: None,
        tune: false,
        telemetry: std::env::var("PSCG_TELEMETRY").ok(),
    };
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let mut val = |name: &str| {
            args.next()
                .unwrap_or_else(|| panic!("{name} needs a value"))
        };
        match a.as_str() {
            "--grid" => cfg.grid = val("--grid").parse().expect("--grid: integer"),
            "--threads" => {
                cfg.threads = val("--threads")
                    .split(',')
                    .map(|t| t.trim().parse().expect("--threads: integers"))
                    .collect();
            }
            "--s" => cfg.s = val("--s").parse().expect("--s: integer"),
            "--out" => cfg.out = val("--out"),
            "--check" => cfg.check = true,
            "--min-speedup" => {
                cfg.min_speedup = val("--min-speedup").parse().expect("--min-speedup: number");
            }
            "--baseline" => cfg.baseline = Some(val("--baseline")),
            "--telemetry" => cfg.telemetry = Some(val("--telemetry")),
            "tune" => cfg.tune = true,
            other => {
                eprintln!("unknown argument: {other}");
                eprintln!(
                    "usage: kernelbench [--grid N] [--threads LIST] [--s S] \
                     [--out PATH] [--check] [--min-speedup X] [--baseline PATH] \
                     [--telemetry PATH] [tune]"
                );
                std::process::exit(2);
            }
        }
    }
    assert!(
        !cfg.threads.is_empty(),
        "--threads: need at least one count"
    );
    cfg
}

/// Runs the SpMV on a fresh pool for two seconds before anything is timed.
/// On a 2-vCPU VM the first memory-bound cell measured on a new pool
/// otherwise reads as serial about one run in four (and at 256³ every
/// time): a just-spawned worker takes up to a second or so of streaming
/// work before the two lanes really run side by side; spinning does not
/// shorten that, streaming does.
fn warm_up(pool: &Pool, a: &CsrMatrix, x: &[f64], y: &mut [f64]) {
    let until = std::time::Instant::now() + std::time::Duration::from_secs(2);
    while std::time::Instant::now() < until {
        a.spmv_with(pool, x, y);
    }
}

fn bench_all(cfg: &Config, a: &CsrMatrix) -> Vec<Cell> {
    let n = a.nrows();
    let s = cfg.s;
    let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.13).sin()).collect();
    let mut y = vec![0.0; n];
    let prev = {
        let mut m = MultiVector::zeros(n, s);
        for j in 0..s {
            for (i, v) in m.col_mut(j).iter_mut().enumerate() {
                *v = ((i * (j + 1)) as f64 * 0.01).cos();
            }
        }
        m
    };
    let bmat = {
        let mut b = pscg_sparse::dense::DenseMatrix::zeros(s, s);
        for i in 0..s {
            for j in 0..s {
                b.set(i, j, 0.01 * (1 + i + 2 * j) as f64);
            }
        }
        b
    };
    let alpha: Vec<f64> = (0..s).map(|k| 0.1 + 0.05 * k as f64).collect();

    // PIPECG's recurrence sweep over the whole vector length: `x, r, u, w,
    // m, n, z, q, s, p`. Per row it does 8 VMAs and 4 dot products (24
    // flops), reads 10 columns and writes 8 back.
    let mut pipecg: Vec<Vec<f64>> = (0..10)
        .map(|k| (0..n).map(|i| ((i + 7 * k) as f64 * 0.01).sin()).collect())
        .collect();
    let pc_fl = 24 * n as u64;
    let pc_bytes = (18 * 8 * n) as f64;

    // The whole recurrence pass of one PIPE-PsCG iteration: both families,
    // in place, and the Gram packet of the new bases.
    let nf = n.min(FUSED_STEP_MAX_ROWS);
    let (mut ufam, mut rfam) = (FamilyBlocks::new(nf, s, 0), FamilyBlocks::new(nf, s, 7));
    let mut packet = GramPacketBuf::new(s);
    // The packet per row: 2s(s+1) + 2 products; it reads 3s + 1 columns.
    let gp_fl = (2 * (2 * s * (s + 1) + 2) * nf) as u64;
    let gp_bytes = ((3 * s + 1) * nf * 8) as f64;
    // Per family and row: s + 2 conjugation windows of s columns (2s flops
    // each) and s + 1 shifts (2s flops). Unique columns per family: read
    // 2s+1 + s + s(s+1) (44 for both at s = 3), written back s + s(s+1) +
    // s+1 (38); the packet reads nothing that is not already in cache.
    let fs_fl = (2 * (2 * s * s * (s + 2) + 2 * s * (s + 1)) * nf) as u64 + gp_fl;
    let fs_bytes = (2 * (2 * s * s + 7 * s + 2) * nf * 8) as f64;

    // One V-cycle of geometric multigrid on the 125-pt operator, the work
    // of a `p125-mg` preconditioner apply; its flops and bytes are those of
    // the cycle's sparse products. The cycle runs its SpMVs on the global
    // pool, so every cell below uses that pool.
    let mg_grid = Grid3::cube(MG_GRID);
    let mg_a = poisson3d_125pt(mg_grid);
    let mut mg = gmg(&mg_a, mg_grid);
    let mg_r: Vec<f64> = (0..mg_a.nrows()).map(|i| (i as f64 * 0.07).cos()).collect();
    let mut mg_u = vec![0.0; mg_a.nrows()];
    let (mut mg_fl, mut mg_bytes) = (0u64, 0.0);
    for (rows, nnz) in mg.cycle_spmvs() {
        mg_fl += 2 * nnz as u64;
        mg_bytes += spmv_model_bytes_per_nnz(nnz as f64, rows as f64) * nnz as f64;
    }

    let spmv_bytes_per_nnz = spmv_model_bytes_per_nnz(a.nnz() as f64, n as f64);
    let mut cells = Vec::new();
    for &t in &cfg.threads {
        pscg_par::set_global_threads(t);
        let pool = pscg_par::global();
        warm_up(&pool, a, &x, &mut y);
        let group = Group::new(&format!("kernels_{}cube_t{t}", cfg.grid));
        // One `bench` span per measured cell (arg = thread count); inert
        // unless --telemetry enabled recording.
        let spmv_fl = 2 * a.nnz() as u64;
        let m = {
            let _sp = pscg_obs::span_arg(SpanKind::Bench, t as u64);
            group.bench_flops("spmv", a.nnz() as u64, spmv_fl, || {
                a.spmv_with(
                    &pool,
                    std::hint::black_box(&x),
                    std::hint::black_box(&mut y),
                )
            })
        };
        cells.push(Cell {
            kernel: "spmv",
            threads: t,
            median_secs: m,
            gflops: gflops_per_sec(spmv_fl, m),
            bytes_per_nnz: Some(spmv_bytes_per_nnz),
            rows: None,
            gbps_computed: Some(spmv_bytes_per_nnz * a.nnz() as f64 / m / 1e9),
        });

        let gram_fl = (2 * s * s * n) as u64;
        let m = {
            let _sp = pscg_obs::span_arg(SpanKind::Bench, t as u64);
            group.bench_flops("gram", (s * s * n) as u64, gram_fl, || {
                std::hint::black_box(prev.gram_with(&pool, std::hint::black_box(&prev)));
            })
        };
        cells.push(Cell {
            kernel: "gram",
            threads: t,
            median_secs: m,
            gflops: gflops_per_sec(gram_fl, m),
            bytes_per_nnz: None,
            rows: None,
            gbps_computed: None,
        });

        let m = {
            let _sp = pscg_obs::span_arg(SpanKind::Bench, t as u64);
            group.bench_flops("pipecg_step", n as u64, pc_fl, || {
                let [x, r, u, w, m, nv, z, q, s, p] = &mut pipecg[..] else {
                    unreachable!("ten vectors");
                };
                let mut vecs = PipecgVectors {
                    x,
                    r,
                    u,
                    w,
                    m,
                    n: nv,
                    z,
                    q,
                    s,
                    p,
                };
                // α and β small enough that the vectors stay bounded over
                // the repetitions.
                std::hint::black_box(pipecg_sweep(std::hint::black_box(&mut vecs), 1e-3, 0.5));
            })
        };
        cells.push(Cell {
            kernel: "pipecg_step",
            threads: t,
            median_secs: m,
            gflops: gflops_per_sec(pc_fl, m),
            bytes_per_nnz: None,
            rows: Some(n),
            gbps_computed: Some(pc_bytes / m / 1e9),
        });

        let m = {
            let _sp = pscg_obs::span_arg(SpanKind::Bench, t as u64);
            group.bench_flops("fused_step", (s * nf) as u64, fs_fl, || {
                let mut fams = [ufam.family(), rfam.family()];
                fused_recurrence_step_with(
                    &pool,
                    std::hint::black_box(&mut fams),
                    &bmat,
                    &alpha,
                    true,
                    &mut packet,
                );
            })
        };
        cells.push(Cell {
            kernel: "fused_step",
            threads: t,
            median_secs: m,
            gflops: gflops_per_sec(fs_fl, m),
            bytes_per_nnz: None,
            rows: Some(nf),
            gbps_computed: Some(fs_bytes / m / 1e9),
        });

        let m = {
            let _sp = pscg_obs::span_arg(SpanKind::Bench, t as u64);
            group.bench_flops("gram_packet", (s * nf) as u64, gp_fl, || {
                gram_packet_with(
                    &pool,
                    std::hint::black_box(&ufam.pow),
                    &rfam.pow,
                    &ufam.dirs,
                    &mut packet,
                );
            })
        };
        cells.push(Cell {
            kernel: "gram_packet",
            threads: t,
            median_secs: m,
            gflops: gflops_per_sec(gp_fl, m),
            bytes_per_nnz: None,
            rows: Some(nf),
            gbps_computed: Some(gp_bytes / m / 1e9),
        });

        let m = {
            let _sp = pscg_obs::span_arg(SpanKind::Bench, t as u64);
            group.bench_flops("mg_apply", mg_a.nrows() as u64, mg_fl, || {
                mg.apply(std::hint::black_box(&mg_r), std::hint::black_box(&mut mg_u));
            })
        };
        cells.push(Cell {
            kernel: "mg_apply",
            threads: t,
            median_secs: m,
            gflops: gflops_per_sec(mg_fl, m),
            bytes_per_nnz: None,
            rows: Some(mg_a.nrows()),
            gbps_computed: Some(mg_bytes / m / 1e9),
        });
    }
    cells
}

/// Serial-baseline speedup of `kernel` at `threads`, if both the serial and
/// parallel cells were measured.
fn speedup(cells: &[Cell], kernel: &str, threads: usize) -> Option<f64> {
    let at = |t: usize| cells.iter().find(|c| c.kernel == kernel && c.threads == t);
    Some(at(1)?.median_secs / at(threads)?.median_secs)
}

/// JSON cell key used in the `speedup_vs_serial` map and in log lines.
fn cell_key(kernel: &str, threads: usize) -> String {
    format!("{kernel}@{threads}")
}

fn write_json(
    cfg: &Config,
    a: &CsrMatrix,
    cells: &[Cell],
    gate: &GateResult,
    baseline: Option<&BaselineCmp>,
) -> String {
    let host_cores = std::thread::available_parallelism().map_or(1, |c| c.get());
    let mut out = String::new();
    let _ = writeln!(out, "{{");
    let _ = writeln!(out, "  \"bench\": \"kernels\",");
    let _ = writeln!(
        out,
        "  \"problem\": {{ \"stencil\": \"poisson3d_7pt\", \"grid\": {}, \"nrows\": {}, \"nnz\": {} }},",
        cfg.grid,
        a.nrows(),
        a.nnz()
    );
    let _ = writeln!(out, "  \"s\": {},", cfg.s);
    let _ = writeln!(out, "  \"host_cores\": {host_cores},");
    let _ = writeln!(
        out,
        "  \"knobs\": {{ \"spmv_chunk_nnz\": {}, \"gram_chunk_rows\": {} }},",
        knobs::spmv_chunk_nnz(),
        knobs::gram_chunk_rows()
    );
    let _ = writeln!(out, "  \"results\": [");
    for (i, c) in cells.iter().enumerate() {
        let comma = if i + 1 < cells.len() { "," } else { "" };
        let mut traffic = String::new();
        if let Some(b) = c.bytes_per_nnz {
            let _ = write!(traffic, ", \"bytes_per_nnz\": {b:.2}");
        }
        if let Some(rows) = c.rows {
            let _ = write!(traffic, ", \"rows\": {rows}");
        }
        if let Some(gbps) = c.gbps_computed {
            let _ = write!(traffic, ", \"gbps_computed\": {gbps:.2}");
        }
        let _ = writeln!(
            out,
            "    {{ \"kernel\": \"{}\", \"threads\": {}, \"median_secs\": {:.6e}, \"gflops\": {:.4}{} }}{comma}",
            c.kernel, c.threads, c.median_secs, c.gflops, traffic
        );
    }
    let _ = writeln!(out, "  ],");
    let _ = writeln!(out, "  \"speedup_vs_serial\": {{");
    let tmax = *cfg.threads.iter().max().unwrap();
    let kernels = [
        "spmv",
        "gram",
        "pipecg_step",
        "fused_step",
        "gram_packet",
        "mg_apply",
    ];
    for (i, k) in kernels.iter().enumerate() {
        let comma = if i + 1 < kernels.len() { "," } else { "" };
        let key = cell_key(k, tmax);
        match speedup(cells, k, tmax) {
            Some(sp) => {
                let _ = writeln!(out, "    \"{key}\": {sp:.3}{comma}");
            }
            None => {
                let _ = writeln!(out, "    \"{key}\": null{comma}");
            }
        }
    }
    let _ = writeln!(out, "  }},");
    let _ = writeln!(
        out,
        "  \"check\": {{ \"enforced\": {}, \"passed\": {}, \"min_speedup\": {:?}, \"detail\": \"{}\" }}{}",
        gate.enforced,
        gate.passed.map_or("null".to_string(), |p| p.to_string()),
        cfg.min_speedup,
        gate.detail,
        if baseline.is_some() { "," } else { "" }
    );
    if let Some(b) = baseline {
        let _ = writeln!(out, "  \"baseline\": {{");
        let _ = writeln!(out, "    \"path\": \"{}\",", b.path);
        let _ = writeln!(out, "    \"compared\": {},", b.compared);
        let _ = writeln!(out, "    \"skipped\": {},", b.skipped);
        let _ = writeln!(out, "    \"deltas_pct\": {{");
        for (i, (key, pct)) in b.deltas.iter().enumerate() {
            let comma = if i + 1 < b.deltas.len() { "," } else { "" };
            let _ = writeln!(out, "      \"{key}\": {pct:.1}{comma}");
        }
        let _ = writeln!(out, "    }},");
        let _ = writeln!(
            out,
            "    \"regressions\": [{}],",
            b.regressions
                .iter()
                .map(|r| format!("\"{r}\""))
                .collect::<Vec<_>>()
                .join(", ")
        );
        let _ = writeln!(out, "    \"passed\": {}", b.regressions.is_empty());
        let _ = writeln!(out, "  }}");
    }
    let _ = writeln!(out, "}}");
    out
}

struct GateResult {
    enforced: bool,
    passed: Option<bool>,
    detail: String,
}

/// The perf-smoke gate: SpMV at the top thread count must reach the
/// required speedup over serial — enforced only when the host can actually
/// run that many lanes.
fn evaluate_gate(cfg: &Config, cells: &[Cell]) -> GateResult {
    let tmax = *cfg.threads.iter().max().unwrap();
    let host_cores = std::thread::available_parallelism().map_or(1, |c| c.get());
    if tmax <= 1 {
        return GateResult {
            enforced: false,
            passed: None,
            detail: "single-threaded run, nothing to compare".into(),
        };
    }
    let Some(sp) = speedup(cells, "spmv", tmax) else {
        return GateResult {
            enforced: false,
            passed: None,
            detail: "no serial baseline measured for spmv".into(),
        };
    };
    let detail = format!(
        "spmv speedup at {tmax} threads: {sp:.3} (required >= {})",
        cfg.min_speedup
    );
    if host_cores < tmax {
        return GateResult {
            enforced: false,
            passed: None,
            detail: format!("SKIPPED — host has {host_cores} core(s) < {tmax} threads; {detail}"),
        };
    }
    GateResult {
        enforced: true,
        passed: Some(sp >= cfg.min_speedup),
        detail,
    }
}

/// Outcome of the committed-baseline comparison (`--baseline`).
struct BaselineCmp {
    path: String,
    compared: usize,
    skipped: usize,
    /// `(cell key, GFLOP/s delta in percent vs the baseline)`.
    deltas: Vec<(String, f64)>,
    /// Human-readable lines for cells that dropped more than 20%.
    regressions: Vec<String>,
}

/// Extracts the value of `"key": ...` from a single-line JSON object as the
/// raw token (quotes stripped for strings). Robust only for the flat
/// one-object-per-line cells this tool itself writes — which is exactly
/// what the committed baseline is.
fn json_field(line: &str, key: &str) -> Option<String> {
    let pat = format!("\"{key}\":");
    let at = line.find(&pat)? + pat.len();
    let rest = line[at..].trim_start();
    if let Some(stripped) = rest.strip_prefix('"') {
        stripped.split('"').next().map(str::to_string)
    } else {
        rest.split([',', '}']).next().map(|t| t.trim().to_string())
    }
}

/// Compares this run's cells against a committed baseline report: any
/// (kernel, threads) cell present in both whose GFLOP/s dropped more than
/// 20% is a regression. Cells the host cannot genuinely run (threads >
/// cores) are skipped with a log line rather than compared against
/// oversubscribed numbers.
fn compare_baseline(path: &str, cells: &[Cell]) -> BaselineCmp {
    let host_cores = std::thread::available_parallelism().map_or(1, |c| c.get());
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("--baseline {path}: {e}"));
    let mut cmp = BaselineCmp {
        path: path.to_string(),
        compared: 0,
        skipped: 0,
        deltas: Vec::new(),
        regressions: Vec::new(),
    };
    let Some(results_at) = text.find("\"results\"") else {
        println!("baseline: {path} has no results section; nothing to compare");
        return cmp;
    };
    for line in text[results_at..].lines() {
        if line.trim_start().starts_with(']') {
            break;
        }
        let Some(kernel) = json_field(line, "kernel") else {
            continue;
        };
        let Some(threads) = json_field(line, "threads").and_then(|t| t.parse::<usize>().ok())
        else {
            continue;
        };
        let Some(old_gflops) = json_field(line, "gflops").and_then(|g| g.parse::<f64>().ok())
        else {
            continue;
        };
        let key = cell_key(&kernel, threads);
        let Some(new) = cells
            .iter()
            .find(|c| c.kernel == kernel && c.threads == threads)
        else {
            continue; // cell not measured in this run
        };
        if threads > host_cores {
            println!("baseline: SKIPPED {key} — host has {host_cores} core(s) < {threads} threads");
            cmp.skipped += 1;
            continue;
        }
        let pct = (new.gflops - old_gflops) / old_gflops * 100.0;
        cmp.deltas.push((key.clone(), pct));
        cmp.compared += 1;
        if new.gflops < 0.8 * old_gflops {
            cmp.regressions.push(format!(
                "{key}: {:.3} -> {:.3} GFLOP/s ({pct:.1}%)",
                old_gflops, new.gflops
            ));
        }
    }
    cmp
}

/// Sweeps the chunk knobs around the model suggestion at the top requested
/// thread count, re-timing SpMV and Gram, and prints/installs the empirical
/// best.
fn tune(cfg: &Config, a: &mut CsrMatrix) {
    let n = a.nrows();
    let suggested = KernelTuning::for_problem(a.nnz(), cfg.s);
    println!(
        "\nmodel suggestion: threads = {}, spmv_chunk_nnz = {}, gram_chunk_rows = {}",
        suggested.threads, suggested.spmv_chunk_nnz, suggested.gram_chunk_rows
    );
    let tmax = *cfg.threads.iter().max().unwrap();
    let pool = Pool::new(tmax);
    let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.13).sin()).collect();
    let mut y = vec![0.0; n];

    let group = Group::new("tune_spmv_chunk_nnz");
    let mut best = (f64::INFINITY, 0usize);
    for shift in [14u32, 15, 16, 17] {
        let chunk = 1usize << shift;
        knobs::set_spmv_chunk_nnz(chunk);
        a.reset_par_rows();
        let m = group.bench_flops(
            &format!("nnz={chunk}"),
            a.nnz() as u64,
            2 * a.nnz() as u64,
            || {
                a.spmv_with(
                    &pool,
                    std::hint::black_box(&x),
                    std::hint::black_box(&mut y),
                )
            },
        );
        if m < best.0 {
            best = (m, chunk);
        }
    }
    println!("\nbest spmv_chunk_nnz: {}", best.1);
    knobs::set_spmv_chunk_nnz(best.1);
    a.reset_par_rows();

    let s = cfg.s;
    let cols: Vec<Vec<f64>> = (0..s)
        .map(|j| {
            (0..n)
                .map(|i| ((i * (j + 1)) as f64 * 0.01).cos())
                .collect()
        })
        .collect();
    let mv = MultiVector::from_columns(&cols.iter().map(|c| c.as_slice()).collect::<Vec<_>>());
    let group = Group::new("tune_gram_chunk_rows");
    let mut best = (f64::INFINITY, 0usize);
    for rows in [1024usize, 4096, 16384] {
        knobs::set_gram_chunk_rows(rows);
        let m = group.bench_flops(
            &format!("rows={rows}"),
            (s * s * n) as u64,
            (2 * s * s * n) as u64,
            || {
                std::hint::black_box(mv.gram_with(&pool, std::hint::black_box(&mv)));
            },
        );
        if m < best.0 {
            best = (m, rows);
        }
    }
    println!("\nbest gram_chunk_rows: {}", best.1);
    knobs::set_gram_chunk_rows(best.1);
    println!("\ninstalled tuning: {:?}", KernelTuning::current());
}

fn main() {
    let cfg = parse_args();
    println!(
        "# kernelbench — 7pt Poisson {0}³ ({1} threads), s = {2}",
        cfg.grid,
        cfg.threads
            .iter()
            .map(|t| t.to_string())
            .collect::<Vec<_>>()
            .join("/"),
        cfg.s
    );
    let mut a = poisson3d_7pt(Grid3::cube(cfg.grid), None);
    println!("nrows = {}, nnz = {}", a.nrows(), a.nnz());

    if cfg.tune {
        tune(&cfg, &mut a);
    }

    if cfg.telemetry.is_some() {
        pscg_obs::set_enabled(true);
        pscg_obs::span::drain();
    }
    let pool_base = PoolStats::snapshot();
    let cells = bench_all(&cfg, &a);
    let pool_delta = PoolStats::snapshot().delta_since(&pool_base);
    if let Some(path) = &cfg.telemetry {
        pscg_obs::set_enabled(false);
        let spans = pscg_obs::span::drain();
        let trace = pscg_obs::export::chrome_trace(&spans);
        if let Err(e) = pscg_obs::export::validate_chrome_trace(&trace) {
            eprintln!("internal error: invalid Chrome trace: {e}");
            std::process::exit(1);
        }
        std::fs::write(path, &trace).expect("write telemetry trace");
        println!(
            "\nwrote {path} ({} spans; load in https://ui.perfetto.dev)",
            spans.records.len()
        );
    }
    let gate = evaluate_gate(&cfg, &cells);
    let baseline = cfg.baseline.as_deref().map(|p| compare_baseline(p, &cells));
    let json = write_json(&cfg, &a, &cells, &gate, baseline.as_ref());
    std::fs::write(&cfg.out, &json).expect("write bench report");
    println!("\nwrote {}", cfg.out);
    println!("pool: {pool_delta}");
    println!("gate: {}", gate.detail);
    if let Some(b) = &baseline {
        println!(
            "baseline: {} cell(s) compared, {} skipped, {} regression(s)",
            b.compared,
            b.skipped,
            b.regressions.len()
        );
        for r in &b.regressions {
            eprintln!("REGRESSION: {r}");
        }
    }

    let mut fail = false;
    if cfg.check && gate.enforced && gate.passed == Some(false) {
        eprintln!("FAIL: {}", gate.detail);
        fail = true;
    }
    if let Some(b) = &baseline {
        if !b.regressions.is_empty() {
            eprintln!(
                "FAIL: {} cell(s) regressed more than 20% vs {}",
                b.regressions.len(),
                b.path
            );
            fail = true;
        }
    }
    if fail {
        std::process::exit(1);
    }
}
