//! The measurement protocol: the untraced end-to-end run and the traced
//! per-layer run of one workload.
//!
//! Both are closed loops with one client: the next solve starts when the
//! previous one returns. Every solve runs in a fresh context over the shared
//! problem and preconditioner, with telemetry dark, no fault plan armed and
//! the flight ring off (the library defaults; `main` scrubs `PSCG_*`), and
//! every solve is checked.

use std::time::Instant;

use pipescg::costmodel::spmv_model_bytes;
use pscg_fault::FaultPlan;
use pscg_obs::TelemetryMode;
use pscg_sim::{replay, Context, Machine, Op, OpTrace};

use crate::host::{median, p95, peak_rss_mb, Host};
use crate::timed_ctx::{names, SolveBreakdown, SpanLog};
use crate::workload::{Engine, Harness, Problem, Solved, Workload, METHODS, PIPE_PSCG, S};

/// What one invocation measures.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// The workload (already shrunk when smoke-testing).
    pub w: Workload,
    /// Seed of the generated right-hand side.
    pub seed: u64,
    /// Target length of the measured phases, seconds. The floor of
    /// `min_solves` timed solves per method overrides it on the large
    /// workloads.
    pub seconds: f64,
    /// Fewest timed solves per method (3; 1 when smoke-testing).
    pub min_solves: usize,
    /// Smoke test: tiny stream arrays.
    pub smoke: bool,
}

/// The outcome of one invocation.
#[derive(Debug, Default)]
pub struct Report {
    /// Solves attempted (every one is checked).
    pub attempted: u64,
    /// Solves that failed a check.
    pub failed: u64,
    /// The first few failure messages.
    pub failures: Vec<String>,
    /// `(name, value)` of every metric, in registry order.
    pub metrics: Vec<(String, f64)>,
    /// Host and hygiene record, `(key, value)`.
    pub info: Vec<(String, String)>,
}

impl Report {
    /// True when every solve passed and every metric is a finite number.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.failures.is_empty() && self.metrics.iter().all(|m| m.1.is_finite())
    }

    fn push(&mut self, name: impl Into<String>, value: f64) {
        self.metrics.push((name.into(), value));
    }

    fn fail(&mut self, msg: String) {
        if self.failures.len() < 16 {
            self.failures.push(msg);
        }
    }

    /// Counts one solve and checks it: converged to a true residual within
    /// 10× the tolerance, the iteration count of every earlier solve of the
    /// method, and (when a reference is given) `x` within 1e-6 of it.
    fn check(&mut self, h: &Harness, expect: &mut Expect, mi: usize, s: &Solved) {
        self.attempted += 1;
        let mut verdict = h.check(s);
        if verdict.is_ok() {
            let first = *expect.iters[mi].get_or_insert(s.res.iterations);
            if first != s.res.iterations {
                verdict = Err(format!(
                    "{}: {} iterations, earlier solves took {first}",
                    s.res.method, s.res.iterations
                ));
            }
        }
        if let (Ok(()), Some(xref)) = (&verdict, &expect.x[mi]) {
            let gap = xref
                .iter()
                .zip(&s.res.x)
                .map(|(a, b)| (a - b).abs())
                .fold(0.0, f64::max);
            if gap.is_nan() || gap > 1e-6 {
                verdict = Err(format!(
                    "{}: x differs from the serial engine's by {gap:.3e}",
                    s.res.method
                ));
            }
        }
        if let Err(msg) = verdict {
            self.failed += 1;
            self.fail(msg);
        }
    }
}

/// One untraced solve of method `mi` on the workload's engine, checked;
/// returns its wall seconds.
fn timed_solve(h: &mut Harness, report: &mut Report, expect: &mut Expect, mi: usize) -> f64 {
    let s = h.solve(METHODS[mi].1);
    report.check(h, expect, mi, &s);
    s.secs
}

/// PIPE-PsCG with the pool at `host.mt_threads()` lanes: one discarded
/// solve, then at least `min_n` timed ones and until `budget` seconds.
fn threaded_solves(
    h: &mut Harness,
    host: &Host,
    report: &mut Report,
    expect: &mut Expect,
    min_n: usize,
    budget: f64,
) -> Vec<f64> {
    let mut secs = Vec::new();
    pscg_par::set_global_threads(host.mt_threads());
    timed_solve(h, report, expect, PIPE_PSCG);
    repeat(min_n, budget, || {
        secs.push(timed_solve(h, report, expect, PIPE_PSCG))
    });
    pscg_par::set_global_threads(1);
    secs
}

/// What later solves of each method are compared against.
#[derive(Default)]
struct Expect {
    iters: [Option<usize>; 4],
    x: [Option<Vec<f64>>; 4],
}

impl Expect {
    /// For an SPMD workload, solves each method once on the serial engine
    /// and keeps `x` as the reference the rank engine must reproduce.
    fn new(h: &mut Harness, report: &mut Report) -> Expect {
        let mut expect = Expect::default();
        if h.w.engine != Engine::Serial {
            let opts = h.w.options();
            for (mi, (_, method)) in METHODS.iter().enumerate() {
                let s = h.solve_serial(*method, &opts, |_| {});
                report.check(h, &mut Expect::default(), mi, &s);
                expect.x[mi] = Some(s.res.x);
            }
        }
        expect
    }
}

/// Seconds of the three set-up stages.
#[derive(Debug, Clone, Copy)]
struct SetupTimes {
    assemble: f64,
    pc: f64,
    total: f64,
}

/// Sets the workload up — assemble `A` and `b`, build the preconditioner,
/// partition for SPMD, construct a context — and hands the harness to `f`.
/// The timings stop before `f` runs; tear-down happens after it returns.
fn with_setup<R>(w: Workload, seed: u64, f: impl FnOnce(&mut Harness, SetupTimes) -> R) -> R {
    let t0 = Instant::now();
    let p = Problem::build(&w, seed);
    let assemble = t0.elapsed().as_secs_f64();
    let t1 = Instant::now();
    let mut pc = w.pc.build(&p.a, Some(p.grid));
    let pc_secs = t1.elapsed().as_secs_f64();
    let mut h = Harness::new(w, &p, &mut *pc);
    drop(h.serial_ctx(false));
    let times = SetupTimes {
        assemble,
        pc: pc_secs,
        total: t0.elapsed().as_secs_f64(),
    };
    f(&mut h, times)
}

/// Calls `f` at least `min_n` times and until `budget` seconds have passed.
fn repeat(min_n: usize, budget: f64, mut f: impl FnMut()) {
    let t0 = Instant::now();
    let mut n = 0;
    while n < min_n || t0.elapsed().as_secs_f64() < budget {
        f();
        n += 1;
    }
}

/// Host record plus the working-set-versus-cache check of the workload.
fn hygiene(cfg: &RunConfig, host: &Host, p: &Problem, report: &mut Report) {
    let four_llc = 4 * host.llc_bytes;
    let info = [
        ("workload", cfg.w.name.to_string()),
        ("seed", cfg.seed.to_string()),
        ("nproc", host.nproc.to_string()),
        ("l2_bytes", host.l2_bytes.to_string()),
        ("llc_bytes", host.llc_bytes.to_string()),
        ("llc_known", host.llc_known.to_string()),
        ("rustc", host.rustc.clone()),
        ("commit", host.commit.clone()),
        ("pool_threads_serial", "1".to_string()),
        ("pool_threads_mt", host.mt_threads().to_string()),
        ("rows", p.a.nrows().to_string()),
        ("nnz", p.a.nnz().to_string()),
        ("csr_bytes", p.csr_bytes().to_string()),
        ("vector_bytes", p.vector_bytes().to_string()),
        ("four_llc_bytes", four_llc.to_string()),
        ("csr_exceeds_4_llc", (p.csr_bytes() >= four_llc).to_string()),
        ("spmv_format", pscg_sparse::spmv_format().to_string()),
    ];
    report
        .info
        .extend(info.into_iter().map(|(k, v)| (k.to_string(), v)));
    if cfg.w.must_exceed_llc && p.csr_bytes() < four_llc {
        report.fail(format!(
            "{}: CSR arrays ({} B) are below 4 x LLC ({four_llc} B); the workload no longer streams the matrix from memory",
            cfg.w.name,
            p.csr_bytes()
        ));
    }
}

/// The untraced run: every end-to-end metric of one workload.
pub fn run_end_to_end(cfg: &RunConfig, host: &Host) -> Report {
    let mut report = Report::default();
    pscg_par::set_global_threads(1);
    let (w, seed) = (cfg.w, cfg.seed);

    // Set-up, repeated: one discarded, then timed repetitions; the last one
    // is kept and measured on.
    let mut setup = Vec::new();
    with_setup(w, seed, |_, _| ());
    repeat(cfg.min_solves - 1, 0.05 * cfg.seconds, || {
        setup.push(with_setup(w, seed, |_, t| t.total))
    });

    with_setup(w, seed, |h, t| {
        setup.push(t.total);
        hygiene(cfg, host, h.p, &mut report);
        let mut expect = Expect::new(h, &mut report);

        // One discarded solve of the method that touches the most memory:
        // its first solve pays the first touch of ~40 fresh vectors.
        timed_solve(h, &mut report, &mut expect, PIPE_PSCG);

        let mut secs: [Vec<f64>; 4] = Default::default();
        repeat(cfg.min_solves, 0.70 * cfg.seconds, || {
            for (mi, samples) in secs.iter_mut().enumerate() {
                samples.push(timed_solve(h, &mut report, &mut expect, mi));
            }
        });
        let mt = threaded_solves(
            h,
            host,
            &mut report,
            &mut expect,
            cfg.min_solves,
            0.25 * cfg.seconds,
        );

        report.push("setup_s", median(&setup));
        for (mi, (m, _)) in METHODS.iter().enumerate() {
            report.push(format!("solve_s.{m}"), median(&secs[mi]));
        }
        report.push("solve_mt_s.pipe-pscg", median(&mt));
        report
            .info
            .push(("solve_samples".into(), secs[0].len().to_string()));
        report
            .info
            .push(("setup_samples".into(), setup.len().to_string()));
    });
    // Read last, so tear-down of the measured set-up is included.
    report.push("peak_rss_mb", peak_rss_mb().unwrap_or(f64::NAN));
    report
}

/// Mean per-solve breakdown of the traced solves of one method.
#[derive(Default)]
struct Layered {
    rounds: u64,
    sum: SolveBreakdown,
}

impl Layered {
    fn add(&mut self, b: &SolveBreakdown) -> Result<(), String> {
        if self.rounds == 0 {
            self.sum = b.clone();
        } else {
            self.sum.wall_ns += b.wall_ns;
            self.sum.glue_ns += b.glue_ns;
            for (name, ns, calls) in &b.layers {
                match self.sum.layers.iter_mut().find(|r| r.0 == *name) {
                    Some(row) if row.2 == *calls * self.rounds => {
                        row.1 += ns;
                        row.2 += calls;
                    }
                    _ => return Err(format!("{name}: call count changed between traced solves")),
                }
            }
        }
        self.rounds += 1;
        Ok(())
    }

    fn secs(&self, name: &str) -> f64 {
        self.sum.secs(name) / self.rounds as f64
    }

    fn calls(&self, name: &str) -> f64 {
        (self.sum.calls(name) / self.rounds) as f64
    }
}

/// The traced run: every per-layer metric of one workload. Returns the
/// report and the spans of the first traced solve of each method.
pub fn run_per_layer(cfg: &RunConfig, host: &Host) -> (Report, Vec<SpanLog>) {
    let mut report = Report::default();
    let mut kept_spans = Vec::new();
    pscg_par::set_global_threads(1);

    with_setup(cfg.w, cfg.seed, |h, setup| {
        hygiene(cfg, host, h.p, &mut report);
        let mut expect = Expect::new(h, &mut report);
        timed_solve(h, &mut report, &mut expect, PIPE_PSCG);

        // Each method untraced, then through TimedCtx on the workload's
        // engine, back to back so both see the same machine. The untraced
        // solves are the base of the overhead shares and the p95 sample.
        let mut dark: [Vec<f64>; 4] = Default::default();
        let mut layered: [Layered; 4] = Default::default();
        let mut traces: [Option<OpTrace>; 4] = Default::default();
        let mut solve_id = 0u32;
        repeat(1, 0.55 * cfg.seconds, || {
            for (mi, (_, method)) in METHODS.iter().enumerate() {
                dark[mi].push(timed_solve(h, &mut report, &mut expect, mi));

                let mut s = h.solve_timed(*method, solve_id);
                report.check(h, &mut expect, mi, &s);
                let spans = s.spans.take().expect("a timed solve records spans");
                if let Err(msg) = layered[mi].add(&SolveBreakdown::of(&spans, solve_id)) {
                    report.fail(format!("{}: {msg}", s.res.method));
                }
                if layered[mi].rounds == 1 {
                    kept_spans.push(spans);
                    traces[mi] = s.trace.take();
                }
                solve_id += 1;
            }
        });
        // The rank engine records no OpTrace; the replay model reads the
        // serial engine's trace of the same inputs.
        let traces: Vec<OpTrace> = METHODS
            .iter()
            .zip(traces)
            .map(|((_, method), t)| {
                t.unwrap_or_else(|| {
                    h.solve_for_trace(*method)
                        .trace
                        .expect("SimCtx::traced records a trace")
                })
            })
            .collect();

        for (mi, (m, _)) in METHODS.iter().enumerate() {
            let l = &layered[mi];
            let wall = l.sum.wall_ns as f64 * 1e-9 / l.rounds as f64;
            let reduce = l.secs(names::REDUCE);
            let dark_med = median(&dark[mi]);
            report.push(
                format!("core.iters.{m}"),
                expect.iters[mi].unwrap_or(0) as f64,
            );
            report.push(
                format!("core.glue_s.{m}"),
                l.sum.glue_ns as f64 * 1e-9 / l.rounds as f64,
            );
            report.push(format!("core.alloc_s.{m}"), l.secs(names::ALLOC));
            report.push(
                format!("sparse.spmv_s.{m}"),
                l.secs(names::SPMV) + l.secs(names::MPK),
            );
            report.push(
                format!("sparse.spmv_calls.{m}"),
                l.calls(names::SPMV) + l.calls(names::MPK),
            );
            report.push(format!("sparse.gram_s.{m}"), l.secs(names::GRAM));
            if l.calls(names::COMBINE) > 0.0 {
                report.push(format!("sparse.combine_s.{m}"), l.secs(names::COMBINE));
            }
            report.push(format!("sparse.blas1_s.{m}"), l.secs(names::BLAS1));
            report.push(format!("precond.apply_s.{m}"), l.secs(names::PC));
            report.push(format!("precond.apply_calls.{m}"), l.calls(names::PC));
            report.push(format!("sim.reduce_s.{m}"), reduce);
            report.push(format!("sim.reduce_calls.{m}"), l.calls(names::REDUCE));
            report.push(format!("sim.note_s.{m}"), l.secs(names::NOTE));
            report.push(format!("sim.wait_share.{m}"), reduce / wall);
            report.push(format!("sim.trace_ops.{m}"), traces[mi].len() as f64);
            report.push(format!("bench.traced_wall_s.{m}"), wall);
            report.push(
                format!("bench.trace_overhead_share.{m}"),
                wall / dark_med - 1.0,
            );
            report.push(format!("solve_p95_s.{m}"), p95(&dark[mi]));
        }
        report.push("bench.solve_samples", dark[0].len() as f64);
        report.push("sparse.assemble_s", setup.assemble);
        report.push("precond.setup_s", setup.pc);

        let kernels = kernels_in_isolation(cfg, host, h);
        report.push("sparse.spmv_iso_s", kernels.spmv_s);
        report.push("sparse.spmv_gflops", kernels.spmv_gflops);
        report.push("sparse.spmv_gbps_computed", kernels.spmv_gbps);
        report.push("sparse.stream_gbps", kernels.stream_gbps);
        report.push(
            "sparse.spmv_bw_share",
            kernels.spmv_gbps / kernels.stream_gbps,
        );
        report.push(
            "sparse.mpk_vs_spmv",
            kernels.mpk_per_power_s / kernels.spmv_s,
        );
        report.info.push((
            "stream_array_bytes".into(),
            kernels.stream_array_bytes.to_string(),
        ));

        // The same solve with the pool at every core.
        let threads = host.mt_threads();
        let mt = threaded_solves(
            h,
            host,
            &mut report,
            &mut expect,
            cfg.min_solves.min(2),
            0.10 * cfg.seconds,
        );
        let speedup = median(&dark[PIPE_PSCG]) / median(&mt);
        report.push("par.threads", threads as f64);
        report.push("par.speedup.pipe-pscg", speedup);
        report.push("par.efficiency.pipe-pscg", speedup / threads as f64);

        replay_metrics(&traces, &layered[0], kernels.stream_gbps, &mut report);
        overhead_shares(cfg, h, &mut expect, &mut report);
    });
    (report, kept_spans)
}

struct Kernels {
    spmv_s: f64,
    spmv_gflops: f64,
    spmv_gbps: f64,
    mpk_per_power_s: f64,
    stream_gbps: f64,
    stream_array_bytes: usize,
}

/// SpMV, the matrix-powers kernel and a stream triad, alone on the
/// workload's matrix, single-threaded like the serial solves.
fn kernels_in_isolation(cfg: &RunConfig, host: &Host, h: &mut Harness) -> Kernels {
    let p = h.p;
    let (a, n) = (&p.a, p.a.nrows());
    let x: Vec<f64> = (0..n).map(|i| 1.0 + (i % 7) as f64 * 0.125).collect();
    let mut y = vec![0.0; n];
    a.spmv(&x, &mut y);
    let mut secs = Vec::new();
    repeat(5, 0.02 * cfg.seconds, || {
        let t0 = Instant::now();
        a.spmv(std::hint::black_box(&x), &mut y);
        secs.push(t0.elapsed().as_secs_f64());
        std::hint::black_box(&y);
    });
    let spmv_s = median(&secs);
    let bytes = spmv_model_bytes(pscg_sparse::spmv_format(), a.nnz() as f64, n as f64);

    // `ctx.mpk` for s powers, per power: 1.0 × SpMV while the kernel is a
    // loop of SpMVs; a cache-blocked MPK moves it below.
    let mut ctx = h.serial_ctx(false);
    let mut pow = ctx.alloc_multi(S + 1);
    pow.col_mut(0).copy_from_slice(&x);
    ctx.mpk(&mut pow, 0, S, 1.0);
    let mut secs = Vec::new();
    repeat(3, 0.02 * cfg.seconds, || {
        let t0 = Instant::now();
        ctx.mpk(std::hint::black_box(&mut pow), 0, S, 1.0);
        secs.push(t0.elapsed().as_secs_f64() / S as f64);
    });
    drop(ctx);

    // Triad over arrays of 4× the last-level cache each, so the rate is
    // the memory's, not the cache's.
    let len = if cfg.smoke {
        1 << 16
    } else {
        4 * host.llc_bytes / 8
    };
    let (b, c) = (vec![1.5f64; len], vec![0.25f64; len]);
    let mut d = vec![0.0f64; len];
    let mut best = f64::INFINITY;
    for _ in 0..4 {
        let t0 = Instant::now();
        for ((di, bi), ci) in d.iter_mut().zip(&b).zip(&c) {
            *di = bi + 3.0 * ci;
        }
        std::hint::black_box(&mut d);
        best = best.min(t0.elapsed().as_secs_f64());
    }

    Kernels {
        spmv_s,
        spmv_gflops: 2.0 * a.nnz() as f64 / spmv_s * 1e-9,
        spmv_gbps: bytes / spmv_s * 1e-9,
        mpk_per_power_s: median(&secs),
        stream_gbps: 24.0 * len as f64 / best * 1e-9,
        stream_array_bytes: 8 * len,
    }
}

/// The replay layer: what the model predicts from the traces, how fast it
/// replays them, and how its SpMV prediction compares with the measurement.
fn replay_metrics(traces: &[OpTrace], pcg: &Layered, stream_gbps: f64, report: &mut Report) {
    // The paper's 120-node operating point.
    const P: usize = 2880;
    let machine = Machine::sahasrat();
    let at_p = |mi: usize| replay(&traces[mi], &machine, P);
    report.push("sim.modeled_s.pcg", at_p(0).total_time);
    let pipe = at_p(PIPE_PSCG);
    report.push("sim.modeled_s.pipe-pscg", pipe.total_time);
    report.push("sim.overlap_fraction.pipe-pscg", pipe.overlap_fraction());

    let machines = [Machine::sahasrat(), Machine::sahasrat_no_async_progress()];
    let (mut ops, t0) = (0usize, Instant::now());
    repeat(1, 0.2, || {
        for trace in traces {
            for p in [24, 240, 2400, 2880, 24_000, 98_304] {
                for m in &machines {
                    std::hint::black_box(replay(trace, m, p));
                    ops += trace.len();
                }
            }
        }
    });
    report.push(
        "sim.replay_ns_per_op",
        t0.elapsed().as_secs_f64() * 1e9 / ops as f64,
    );
    report.push("sim.trace_bytes_per_op", std::mem::size_of::<Op>() as f64);

    // Model calibration: the replay's SpMV + MPK seconds for PCG's trace on
    // one rank, with this host's measured bandwidth, over the measured ones.
    let mut kernels_only = OpTrace::new(traces[0].nrows);
    kernels_only.profiles = traces[0].profiles.clone();
    kernels_only.ops = traces[0]
        .ops
        .iter()
        .filter(|op| matches!(op, Op::Spmv { .. } | Op::Mpk { .. }))
        .copied()
        .collect();
    let here = Machine {
        mem_bw_per_core: stream_gbps * 1e9,
        ..Machine::sahasrat()
    };
    let predicted = replay(&kernels_only, &here, 1).compute_time;
    let measured = pcg.secs(names::SPMV) + pcg.secs(names::MPK);
    report.push("sim.calib_spmv_ratio", predicted / measured);
}

/// What instrumentation costs when armed: serial PIPE-PsCG with telemetry
/// raw, telemetry aggregated, telemetry plus the flight ring, and an empty
/// fault plan, each against the dark solve, interleaved. The globals are
/// restored after every solve.
fn overhead_shares(cfg: &RunConfig, h: &mut Harness, expect: &mut Expect, report: &mut Report) {
    const ARMS: [&str; 5] = ["dark", "raw", "aggregate", "flight", "fault"];
    let method = METHODS[PIPE_PSCG].1;
    let opts = h.w.options();
    let seed = cfg.seed;
    // The serial engine is not what an SPMD workload's iteration check saw.
    let mut serial_expect = Expect::default();
    let expect = if h.w.engine == Engine::Serial {
        expect
    } else {
        &mut serial_expect
    };
    let mut secs: [Vec<f64>; 5] = Default::default();
    repeat(1, 0.30 * cfg.seconds, || {
        for (arm, name) in ARMS.iter().enumerate() {
            match *name {
                "raw" | "flight" => pscg_obs::set_mode(TelemetryMode::Full),
                "aggregate" => pscg_obs::set_mode(TelemetryMode::Aggregate),
                _ => {}
            }
            if *name == "flight" {
                pscg_obs::flight::configure(64, None);
            }
            pscg_obs::set_enabled(matches!(*name, "raw" | "aggregate" | "flight"));
            let s = h.solve_serial(method, &opts, |ctx| {
                if *name == "fault" {
                    ctx.arm_faults(FaultPlan::new(seed));
                }
            });
            pscg_obs::set_enabled(false);
            pscg_obs::set_mode(TelemetryMode::Full);
            pscg_obs::flight::configure(0, None);
            drop(pscg_obs::span::drain());
            drop(pscg_obs::agg::drain());
            drop(pscg_obs::metrics::take_last());
            report.check(h, expect, PIPE_PSCG, &s);
            secs[arm].push(s.secs);
        }
    });
    let dark = median(&secs[0]);
    let share = |arm: usize| median(&secs[arm]) / dark - 1.0;
    report.push("obs.raw_overhead_share", share(1));
    report.push("obs.aggregate_overhead_share", share(2));
    report.push("obs.flight_overhead_share", share(3));
    report.push("fault.armed_empty_overhead_share", share(4));
}

#[cfg(test)]
mod tests {
    use super::*;
    use pipescg::StopReason;

    #[test]
    fn a_solve_cut_off_at_max_iterations_counts_as_failed() {
        let w = Workload::by_name("small27").unwrap().smoke();
        with_setup(w, 1, |h, _| {
            let mut report = Report::default();
            let mut expect = Expect::default();
            timed_solve(h, &mut report, &mut expect, 0);
            assert_eq!((report.attempted, report.failed), (1, 0));
            assert!(report.correct());

            let mut opts = w.options();
            opts.max_iters = 2;
            let cut = h.solve_serial(METHODS[0].1, &opts, |_| {});
            assert_eq!(cut.res.stop, StopReason::MaxIterations);
            report.check(h, &mut expect, 0, &cut);
            assert_eq!((report.attempted, report.failed), (2, 1));
            assert!(!report.correct());
            assert!(report.failures[0].contains("MaxIterations"));
        });
    }

    #[test]
    fn a_changed_iteration_count_or_a_drifted_x_counts_as_failed() {
        let w = Workload::by_name("small27").unwrap().smoke();
        with_setup(w, 1, |h, _| {
            let mut report = Report::default();
            let mut expect = Expect::default();
            let s = h.solve(METHODS[0].1);
            expect.iters[0] = Some(s.res.iterations + 1);
            report.check(h, &mut expect, 0, &s);
            assert_eq!(report.failed, 1);
            expect.iters[0] = None;
            expect.x[0] = Some(s.res.x.iter().map(|v| v + 1e-5).collect());
            report.check(h, &mut expect, 0, &s);
            assert_eq!(report.failed, 2);
        });
    }
}
