//! The perf-report analyzer: joins recorded telemetry with the cost model
//! and the declarative IR (DESIGN.md §13).
//!
//! `pscg-obs`'s `attribution` module is deliberately numeric — it joins
//! span kinds with plain per-call FLOP/byte figures. This module is the
//! glue it cannot be (the dependency DAG puts the cost model upstream of
//! the telemetry crate): [`models_for`] derives those per-call figures for
//! one method from `pscg_ir::costs::body_cost` node metadata and
//! `pipescg::costmodel::spmv_model_bytes`, [`method_perf`] runs the join
//! over one solve's spans + metrics, and [`PerfReport`] carries the
//! per-method results through JSON/markdown rendering, reparsing, and the
//! [`check`] regression gate the CI job runs against a committed baseline.

use std::fmt::Write as _;
use std::path::Path;

use pipescg::costmodel;
use pipescg::methods::MethodKind;
use pscg_obs::attribution::{attribute, window_stats, KernelModel};
use pscg_obs::json::{parse as parse_json, Json};
use pscg_obs::metrics::SolveTelemetry;
use pscg_obs::span::{SpanKind, SpanRecord, SpanSet};

/// Modelled SpMV traffic per stored entry (kernelbench's `bytes_per_nnz`).
pub fn spmv_model_bytes_per_nnz(nnz: f64, rows: f64) -> f64 {
    if nnz <= 0.0 {
        return 0.0;
    }
    costmodel::spmv_model_bytes(pscg_sparse::spmv_format(), nnz, rows) / nnz
}

/// Resolves a method name as printed by `MethodKind::name` (the spelling
/// used in every telemetry artifact) back to its kind.
pub fn method_by_name(name: &str) -> Option<MethodKind> {
    MethodKind::ALL.into_iter().find(|m| m.name() == name)
}

/// Derives per-invocation kernel models for one method from its IR body
/// cost and the SpMV/preconditioner cost models.
///
/// The IR's `Dot` nodes price both the recorded `dot` spans (classic
/// methods: one span per node, so the per-call figure is the body-pass
/// average, total modelled dot work of one pass over its node count) and
/// the `gram` spans (s-step methods: one span per Gram packet, which is all
/// the dot work of a pass, so the per-call figure is that total). In the
/// pipelined s-step methods the packet of a recurrence pass is formed
/// inside its `combine` span from cache-resident rows: only the set-up and
/// replacement packets appear as `gram` spans.
///
/// `Combine` is the exception: its model carries the work of one whole
/// **body pass**, not of one call. How many `combine` spans a pass records
/// is an implementation detail — the fused recurrence pass covers what used
/// to be a span per window — so [`kernel_rows`] multiplies it by the body
/// passes of the solve instead of by the span count.
pub fn models_for(
    method: MethodKind,
    s: usize,
    nrows: usize,
    nnz: usize,
    pc_flops_per_row: f64,
    pc_bytes_per_row: f64,
) -> Vec<KernelModel> {
    let cost = pscg_ir::costs::body_cost(&pscg_ir::method_ir(method, s));
    let (rows, nnzf) = (nrows as f64, nnz as f64);
    let spmv_flops = 2.0 * nnzf;
    let spmv_bytes = costmodel::spmv_model_bytes(pscg_sparse::spmv_format(), nnzf, rows);
    let mut models = vec![
        KernelModel {
            kind: SpanKind::Spmv,
            flops_per_call: spmv_flops,
            bytes_per_call: spmv_bytes,
        },
        KernelModel {
            kind: SpanKind::Pc,
            flops_per_call: pc_flops_per_row * rows,
            bytes_per_call: pc_bytes_per_row * rows,
        },
    ];
    if cost.mpks > 0 {
        let depth = cost.mpk_depth_total as f64 / cost.mpks as f64;
        models.push(KernelModel {
            kind: SpanKind::Mpk,
            flops_per_call: depth * spmv_flops,
            bytes_per_call: depth * spmv_bytes,
        });
    }
    if cost.dots > 0 {
        let dot = KernelModel {
            kind: SpanKind::Dot,
            flops_per_call: cost.dot_flops_per_row / cost.dots as f64 * rows,
            bytes_per_call: cost.dot_bytes_per_row / cost.dots as f64 * rows,
        };
        models.push(KernelModel {
            kind: SpanKind::Gram,
            flops_per_call: cost.dot_flops_per_row * rows,
            bytes_per_call: cost.dot_bytes_per_row * rows,
        });
        models.push(dot);
    }
    if cost.combines > 0 {
        models.push(KernelModel {
            kind: SpanKind::Combine,
            flops_per_call: cost.combine_flops_per_row * rows,
            bytes_per_call: cost.combine_bytes_per_row * rows,
        });
    }
    models
}

/// One kernel row of the report: measured time joined with modelled work.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelRow {
    /// Span kind name (`spmv`, `pc`, …).
    pub kind: String,
    /// Measured invocations.
    pub count: u64,
    /// Measured total duration (ns).
    pub total_ns: u64,
    /// Modelled FLOPs across all invocations.
    pub model_flops: f64,
    /// Modelled bytes across all invocations.
    pub model_bytes: f64,
}

impl KernelRow {
    /// Achieved GFLOP/s (model FLOPs over measured ns).
    pub fn gflops(&self) -> f64 {
        self.model_flops / self.total_ns as f64
    }

    /// Achieved GB/s under the model's traffic assumption.
    pub fn gbps(&self) -> f64 {
        self.model_bytes / self.total_ns as f64
    }
}

/// Overlap quality of one method's solve: the measured per-window fill
/// next to what the IR's static capacity report says *could* be hidden.
#[derive(Debug, Clone, PartialEq)]
pub struct OverlapRow {
    /// Post→wait windows observed.
    pub windows: u64,
    /// Total window time (ns).
    pub window_ns: u64,
    /// Kernel time inside windows (ns).
    pub kernel_in_window_ns: u64,
    /// Worst single window's fill ratio.
    pub min_ratio: f64,
    /// Unweighted mean fill ratio.
    pub mean_ratio: f64,
    /// Static overlap capacity per the IR, one entry per window tag
    /// (`"[gram] 1 SpMV + 1 PC + 2 local"`).
    pub capacity: Vec<String>,
}

impl OverlapRow {
    /// Time-weighted achieved overlap.
    pub fn achieved(&self) -> f64 {
        if self.window_ns == 0 {
            return f64::NAN;
        }
        self.kernel_in_window_ns as f64 / self.window_ns as f64
    }
}

/// The full attribution of one method's solve.
#[derive(Debug, Clone, PartialEq)]
pub struct MethodPerf {
    /// Method name (`MethodKind::name` spelling).
    pub method: String,
    /// s-step block size of the solve.
    pub s: u64,
    /// CG iterations performed.
    pub iterations: u64,
    /// Wall time of the solve (ns).
    pub wall_ns: u64,
    /// Modelled SpMV traffic per stored entry.
    pub spmv_model_bytes_per_nnz: f64,
    /// Kernel attribution rows (kinds with no recorded spans omitted).
    pub kernels: Vec<KernelRow>,
    /// Overlap quality; `None` for methods with no post→wait windows.
    pub overlap: Option<OverlapRow>,
}

impl MethodPerf {
    /// The row for one kernel kind, when recorded.
    pub fn kernel(&self, kind: &str) -> Option<&KernelRow> {
        self.kernels.iter().find(|k| k.kind == kind)
    }
}

/// The whole report: one entry per method.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PerfReport {
    /// Per-method attributions, in sweep order.
    pub methods: Vec<MethodPerf>,
}

/// Joins the spans with the models into report rows. Every kind is priced
/// per recorded call except `combine`, which [`models_for`] prices per
/// body pass: its row gets `iterations / steps` passes' worth of work,
/// whatever the number of spans that work was recorded under.
fn kernel_rows(
    method: MethodKind,
    s: usize,
    iterations: u64,
    spans: &SpanSet,
    models: &[KernelModel],
) -> Vec<KernelRow> {
    let steps = pscg_ir::method_ir(method, s).steps.max(1);
    let passes = iterations as f64 / steps as f64;
    attribute(spans, models)
        .into_iter()
        .map(|a| {
            let per_pass = a.kind == SpanKind::Combine;
            let scale = if per_pass {
                passes / a.count as f64
            } else {
                1.0
            };
            KernelRow {
                kind: a.kind.name().to_string(),
                count: a.count as u64,
                total_ns: a.total_ns,
                model_flops: a.model_flops * scale,
                model_bytes: a.model_bytes * scale,
            }
        })
        .collect()
}

/// Builds one method's attribution from an in-memory span set and
/// telemetry stream (the `repro --perf-report` path; the binary's
/// file-based path is [`from_dir`]).
pub fn method_perf(method: MethodKind, spans: &SpanSet, tel: &SolveTelemetry) -> MethodPerf {
    let meta = &tel.meta;
    let models = models_for(
        method,
        meta.s,
        meta.nrows,
        meta.nnz,
        meta.pc_flops_per_row,
        meta.pc_bytes_per_row,
    );
    let iterations = tel.finish.iterations as u64;
    let kernels = kernel_rows(method, meta.s, iterations, spans, &models);
    let overlap = window_stats(spans).map(|w| OverlapRow {
        windows: w.windows as u64,
        window_ns: w.window_ns,
        kernel_in_window_ns: w.kernel_in_window_ns,
        min_ratio: w.min_ratio,
        mean_ratio: w.mean_ratio,
        capacity: overlap_capacity(method, meta.s),
    });
    MethodPerf {
        method: method.name().to_string(),
        s: meta.s as u64,
        iterations,
        wall_ns: tel.finish.wall_ns,
        spmv_model_bytes_per_nnz: meta.spmv_model_bytes_per_nnz,
        kernels,
        overlap,
    }
}

/// The IR's static overlap-capacity report, rendered one line per window.
fn overlap_capacity(method: MethodKind, s: usize) -> Vec<String> {
    pscg_ir::overlap::report(&pscg_ir::method_ir(method, s))
        .iter()
        .map(|c| {
            format!(
                "[{}] {} SpMV + {} PC + {} local",
                c.tag, c.spmvs, c.pcs, c.locals
            )
        })
        .collect()
}

// ---------------------------------------------------------------------------
// File ingestion (the perf-report binary's path)
// ---------------------------------------------------------------------------

/// Reconstructs a [`SpanSet`] from an exported Chrome trace document.
/// Unknown event names (e.g. foreign metadata) are skipped; timestamps
/// are the format's microseconds, converted back to integer ns.
pub fn spans_from_trace(text: &str) -> Result<SpanSet, String> {
    let doc = parse_json(text)?;
    let events = doc
        .get("traceEvents")
        .and_then(Json::as_arr)
        .ok_or("trace without traceEvents")?;
    let mut set = SpanSet::default();
    for ev in events {
        if ev.get("ph").and_then(Json::as_str) != Some("X") {
            continue;
        }
        let Some(kind) = ev
            .get("name")
            .and_then(Json::as_str)
            .and_then(SpanKind::parse)
        else {
            continue;
        };
        let ts = ev.get("ts").and_then(Json::as_f64).unwrap_or(0.0);
        let dur = ev.get("dur").and_then(Json::as_f64).unwrap_or(0.0);
        set.records.push(SpanRecord {
            kind,
            arg: ev
                .get("args")
                .and_then(|a| a.get("arg"))
                .and_then(Json::as_f64)
                .unwrap_or(0.0) as u64,
            start_ns: (ts * 1e3).round() as u64,
            dur_ns: (dur * 1e3).round() as u64,
            tid: ev.get("tid").and_then(Json::as_f64).unwrap_or(0.0) as u64,
        });
    }
    Ok(set)
}

/// The subset of a metrics stream the analyzer needs, parsed from a
/// `.metrics.jsonl` file.
struct StreamSummary {
    method: String,
    s: u64,
    nrows: usize,
    nnz: usize,
    spmv_model_bytes_per_nnz: f64,
    pc_flops_per_row: f64,
    pc_bytes_per_row: f64,
    iterations: u64,
    wall_ns: u64,
}

fn parse_stream(text: &str) -> Result<StreamSummary, String> {
    let mut meta: Option<StreamSummary> = None;
    for (lineno, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let doc = parse_json(line).map_err(|e| format!("line {}: {e}", lineno + 1))?;
        match doc.get("type").and_then(Json::as_str) {
            Some("meta") => {
                let str_of = |key: &str| {
                    doc.get(key)
                        .and_then(Json::as_str)
                        .map(str::to_string)
                        .ok_or(format!("meta without {key}"))
                };
                let num_of = |key: &str| doc.get(key).and_then(Json::as_f64).unwrap_or(0.0);
                meta = Some(StreamSummary {
                    method: str_of("method")?,
                    s: num_of("s") as u64,
                    nrows: num_of("nrows") as usize,
                    nnz: num_of("nnz") as usize,
                    spmv_model_bytes_per_nnz: num_of("spmv_model_bytes_per_nnz"),
                    pc_flops_per_row: num_of("pc_flops_per_row"),
                    pc_bytes_per_row: num_of("pc_bytes_per_row"),
                    iterations: 0,
                    wall_ns: 0,
                });
            }
            Some("finish") => {
                let m = meta.as_mut().ok_or("finish before meta")?;
                m.iterations = doc.get("iterations").and_then(Json::as_f64).unwrap_or(0.0) as u64;
                m.wall_ns = doc.get("wall_ns").and_then(Json::as_f64).unwrap_or(0.0) as u64;
            }
            _ => {}
        }
    }
    meta.ok_or_else(|| "no meta line".to_string())
}

/// Builds a report from a telemetry directory: every `<slug>.metrics.jsonl`
/// with a sibling `<slug>.trace.json` contributes one method entry.
pub fn from_dir(dir: &Path) -> Result<PerfReport, String> {
    let entries = std::fs::read_dir(dir).map_err(|e| format!("read {}: {e}", dir.display()))?;
    let mut stems: Vec<String> = entries
        .filter_map(|e| e.ok())
        .filter_map(|e| {
            let name = e.file_name().into_string().ok()?;
            name.strip_suffix(".metrics.jsonl").map(str::to_string)
        })
        .collect();
    stems.sort();
    if stems.is_empty() {
        return Err(format!("no *.metrics.jsonl files in {}", dir.display()));
    }
    let mut report = PerfReport::default();
    for stem in stems {
        let jsonl_path = dir.join(format!("{stem}.metrics.jsonl"));
        let trace_path = dir.join(format!("{stem}.trace.json"));
        let jsonl = std::fs::read_to_string(&jsonl_path)
            .map_err(|e| format!("read {}: {e}", jsonl_path.display()))?;
        let trace = std::fs::read_to_string(&trace_path)
            .map_err(|e| format!("read {}: {e}", trace_path.display()))?;
        let stream = parse_stream(&jsonl).map_err(|e| format!("{}: {e}", jsonl_path.display()))?;
        let spans =
            spans_from_trace(&trace).map_err(|e| format!("{}: {e}", trace_path.display()))?;
        let method = method_by_name(&stream.method).ok_or(format!(
            "{}: unknown method '{}'",
            jsonl_path.display(),
            stream.method
        ))?;
        let models = models_for(
            method,
            stream.s as usize,
            stream.nrows,
            stream.nnz,
            stream.pc_flops_per_row,
            stream.pc_bytes_per_row,
        );
        let kernels = kernel_rows(
            method,
            stream.s as usize,
            stream.iterations,
            &spans,
            &models,
        );
        let overlap = window_stats(&spans).map(|w| OverlapRow {
            windows: w.windows as u64,
            window_ns: w.window_ns,
            kernel_in_window_ns: w.kernel_in_window_ns,
            min_ratio: w.min_ratio,
            mean_ratio: w.mean_ratio,
            capacity: overlap_capacity(method, stream.s as usize),
        });
        report.methods.push(MethodPerf {
            method: stream.method,
            s: stream.s,
            iterations: stream.iterations,
            wall_ns: stream.wall_ns,
            spmv_model_bytes_per_nnz: stream.spmv_model_bytes_per_nnz,
            kernels,
            overlap,
        });
    }
    Ok(report)
}

// ---------------------------------------------------------------------------
// Rendering and reparsing
// ---------------------------------------------------------------------------

fn push_jstr(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 || (c as u32) >= 0x7f => {
                let mut units = [0u16; 2];
                for unit in c.encode_utf16(&mut units) {
                    let _ = write!(out, "\\u{unit:04x}");
                }
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn push_jnum(out: &mut String, v: f64) {
    if v.is_finite() {
        let _ = write!(out, "{v:?}");
    } else {
        out.push_str("null");
    }
}

/// Renders the report as JSON (the `results/perf_report.json` artifact and
/// the `--check` baseline format).
pub fn render_json(report: &PerfReport) -> String {
    let mut out = String::from("{\"type\":\"perf_report\",\"methods\":[");
    for (i, m) in report.methods.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"method\":");
        push_jstr(&mut out, &m.method);
        let _ = write!(
            out,
            ",\"s\":{},\"iterations\":{},\"wall_ns\":{},\"spmv_model_bytes_per_nnz\":",
            m.s, m.iterations, m.wall_ns
        );
        push_jnum(&mut out, m.spmv_model_bytes_per_nnz);
        out.push_str(",\"kernels\":[");
        for (j, k) in m.kernels.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            out.push_str("{\"kind\":");
            push_jstr(&mut out, &k.kind);
            let _ = write!(out, ",\"count\":{},\"total_ns\":{}", k.count, k.total_ns);
            out.push_str(",\"model_flops\":");
            push_jnum(&mut out, k.model_flops);
            out.push_str(",\"model_bytes\":");
            push_jnum(&mut out, k.model_bytes);
            out.push_str(",\"gflops\":");
            push_jnum(&mut out, k.gflops());
            out.push_str(",\"gbps\":");
            push_jnum(&mut out, k.gbps());
            out.push('}');
        }
        out.push_str("],\"overlap\":");
        match &m.overlap {
            None => out.push_str("null"),
            Some(o) => {
                let _ = write!(
                    out,
                    "{{\"windows\":{},\"window_ns\":{},\"kernel_in_window_ns\":{}",
                    o.windows, o.window_ns, o.kernel_in_window_ns
                );
                out.push_str(",\"min_ratio\":");
                push_jnum(&mut out, o.min_ratio);
                out.push_str(",\"mean_ratio\":");
                push_jnum(&mut out, o.mean_ratio);
                out.push_str(",\"achieved\":");
                push_jnum(&mut out, o.achieved());
                out.push_str(",\"capacity\":[");
                for (j, c) in o.capacity.iter().enumerate() {
                    if j > 0 {
                        out.push(',');
                    }
                    push_jstr(&mut out, c);
                }
                out.push_str("]}");
            }
        }
        out.push('}');
    }
    out.push_str("]}\n");
    out
}

/// Parses a document produced by [`render_json`] (derived fields like
/// `gflops` are recomputed, not trusted).
pub fn parse_report(text: &str) -> Result<PerfReport, String> {
    let doc = parse_json(text)?;
    if doc.get("type").and_then(Json::as_str) != Some("perf_report") {
        return Err("type is not 'perf_report'".into());
    }
    let methods = doc
        .get("methods")
        .and_then(Json::as_arr)
        .ok_or("missing methods array")?;
    let mut report = PerfReport::default();
    for (i, m) in methods.iter().enumerate() {
        let str_of = |key: &str| {
            m.get(key)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or(format!("method {i}: missing {key}"))
        };
        let num_of = |key: &str| m.get(key).and_then(Json::as_f64).unwrap_or(0.0);
        let kernels = m
            .get("kernels")
            .and_then(Json::as_arr)
            .ok_or(format!("method {i}: missing kernels"))?
            .iter()
            .enumerate()
            .map(|(j, k)| {
                let kind = k
                    .get("kind")
                    .and_then(Json::as_str)
                    .ok_or(format!("method {i} kernel {j}: missing kind"))?;
                if SpanKind::parse(kind).is_none() {
                    return Err(format!("method {i} kernel {j}: unknown kind '{kind}'"));
                }
                let knum = |key: &str| {
                    k.get(key)
                        .and_then(Json::as_f64)
                        .ok_or(format!("method {i} kernel {j}: missing {key}"))
                };
                Ok(KernelRow {
                    kind: kind.to_string(),
                    count: knum("count")? as u64,
                    total_ns: knum("total_ns")? as u64,
                    model_flops: knum("model_flops")?,
                    model_bytes: knum("model_bytes")?,
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        let overlap = match m.get("overlap") {
            None | Some(Json::Null) => None,
            Some(o) => Some(OverlapRow {
                windows: o.get("windows").and_then(Json::as_f64).unwrap_or(0.0) as u64,
                window_ns: o.get("window_ns").and_then(Json::as_f64).unwrap_or(0.0) as u64,
                kernel_in_window_ns: o
                    .get("kernel_in_window_ns")
                    .and_then(Json::as_f64)
                    .unwrap_or(0.0) as u64,
                min_ratio: o
                    .get("min_ratio")
                    .and_then(Json::as_f64)
                    .unwrap_or(f64::NAN),
                mean_ratio: o
                    .get("mean_ratio")
                    .and_then(Json::as_f64)
                    .unwrap_or(f64::NAN),
                capacity: o
                    .get("capacity")
                    .and_then(Json::as_arr)
                    .map(|a| {
                        a.iter()
                            .filter_map(|c| c.as_str().map(str::to_string))
                            .collect()
                    })
                    .unwrap_or_default(),
            }),
        };
        report.methods.push(MethodPerf {
            method: str_of("method")?,
            s: num_of("s") as u64,
            iterations: num_of("iterations") as u64,
            wall_ns: num_of("wall_ns") as u64,
            spmv_model_bytes_per_nnz: num_of("spmv_model_bytes_per_nnz"),
            kernels,
            overlap,
        });
    }
    Ok(report)
}

/// Renders the report as markdown (the `results/perf_report.md` artifact).
pub fn render_md(report: &PerfReport) -> String {
    let mut out = String::from("# Perf report: roofline attribution\n\n");
    out.push_str(
        "Achieved figures follow the roofline convention: modelled work \
         over measured time (see DESIGN.md §13).\n\n",
    );
    out.push_str("| method | s | iters | kernel | calls | total ms | GFLOP/s | GB/s |\n");
    out.push_str("|---|---|---|---|---|---|---|---|\n");
    for m in &report.methods {
        for k in &m.kernels {
            let _ = writeln!(
                out,
                "| {} | {} | {} | {} | {} | {:.3} | {:.3} | {:.3} |",
                m.method,
                m.s,
                m.iterations,
                k.kind,
                k.count,
                k.total_ns as f64 / 1e6,
                k.gflops(),
                k.gbps(),
            );
        }
    }
    out.push_str("\n## Overlap\n\n");
    out.push_str("| method | windows | achieved | min | mean | static capacity |\n");
    out.push_str("|---|---|---|---|---|---|\n");
    for m in &report.methods {
        let Some(o) = &m.overlap else { continue };
        let _ = writeln!(
            out,
            "| {} | {} | {:.3} | {:.3} | {:.3} | {} |",
            m.method,
            o.windows,
            o.achieved(),
            o.min_ratio,
            o.mean_ratio,
            if o.capacity.is_empty() {
                "—".to_string()
            } else {
                o.capacity.join("; ")
            },
        );
    }
    for m in &report.methods {
        let _ = writeln!(
            out,
            "\n`{}`: SpMV model {:.2} B/nnz",
            m.method, m.spmv_model_bytes_per_nnz
        );
    }
    out
}

// ---------------------------------------------------------------------------
// Regression gate
// ---------------------------------------------------------------------------

/// Compares `current` against `baseline`: any method present in the
/// baseline whose SpMV/MPK achieved bandwidth or achieved overlap dropped
/// by more than `tolerance` (relative), or which disappeared entirely,
/// yields one failure message. An empty result means the gate passes.
pub fn check(current: &PerfReport, baseline: &PerfReport, tolerance: f64) -> Vec<String> {
    let mut failures = Vec::new();
    for base in &baseline.methods {
        let Some(cur) = current.methods.iter().find(|m| m.method == base.method) else {
            failures.push(format!("{}: missing from current report", base.method));
            continue;
        };
        for kind in ["spmv", "mpk"] {
            let (Some(b), Some(c)) = (base.kernel(kind), cur.kernel(kind)) else {
                continue;
            };
            let (bw_base, bw_cur) = (b.gbps(), c.gbps());
            if bw_base > 0.0 && bw_cur < bw_base * (1.0 - tolerance) {
                failures.push(format!(
                    "{}: {kind} achieved bandwidth regressed {:.3} → {:.3} GB/s \
                     ({:.0}% drop > {:.0}% tolerance)",
                    base.method,
                    bw_base,
                    bw_cur,
                    (1.0 - bw_cur / bw_base) * 100.0,
                    tolerance * 100.0
                ));
            }
        }
        if let (Some(bo), Some(co)) = (&base.overlap, &cur.overlap) {
            let (ov_base, ov_cur) = (bo.achieved(), co.achieved());
            if ov_base.is_finite() && ov_base > 0.0 && ov_cur < ov_base * (1.0 - tolerance) {
                failures.push(format!(
                    "{}: achieved overlap regressed {:.3} → {:.3} \
                     ({:.0}% drop > {:.0}% tolerance)",
                    base.method,
                    ov_base,
                    ov_cur,
                    (1.0 - ov_cur / ov_base) * 100.0,
                    tolerance * 100.0
                ));
            }
        }
    }
    failures
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_report() -> PerfReport {
        PerfReport {
            methods: vec![MethodPerf {
                method: "PIPE-PsCG".into(),
                s: 4,
                iterations: 32,
                wall_ns: 5_000_000,
                spmv_model_bytes_per_nnz: 14.4,
                kernels: vec![
                    KernelRow {
                        kind: "spmv".into(),
                        count: 40,
                        total_ns: 400_000,
                        model_flops: 4.0e6,
                        model_bytes: 2.4e7,
                    },
                    KernelRow {
                        kind: "pc".into(),
                        count: 40,
                        total_ns: 100_000,
                        model_flops: 5.0e5,
                        model_bytes: 1.2e7,
                    },
                ],
                overlap: Some(OverlapRow {
                    windows: 8,
                    window_ns: 800_000,
                    kernel_in_window_ns: 600_000,
                    min_ratio: 0.4,
                    mean_ratio: 0.7,
                    capacity: vec!["[gram] 1 SpMV + 1 PC + 2 local".into()],
                }),
            }],
        }
    }

    #[test]
    fn report_json_roundtrips() {
        let report = sample_report();
        let text = render_json(&report);
        let back = parse_report(&text).expect("reparses");
        assert_eq!(report, back);
        // A dump written before the format axis was retired still loads:
        // unknown keys are ignored.
        let old = text.replace("\"wall_ns\":", "\"spmv_format\":\"csr\",\"wall_ns\":");
        assert_ne!(old, text);
        assert_eq!(parse_report(&old).expect("old dump reparses"), report);
        let md = render_md(&report);
        assert!(md.contains("PIPE-PsCG"));
        assert!(md.contains("| spmv | 40 |"));
    }

    #[test]
    fn parse_report_rejects_unknown_kernel_kinds() {
        let text = render_json(&sample_report()).replace("\"kind\":\"spmv\"", "\"kind\":\"warp\"");
        assert!(parse_report(&text).is_err());
    }

    #[test]
    fn check_passes_identical_and_fails_degraded() {
        let base = sample_report();
        assert!(check(&base, &base, 0.2).is_empty());

        // Synthetic degradation: SpMV 50% slower → bandwidth drops 33%.
        let mut slow = base.clone();
        slow.methods[0].kernels[0].total_ns = 600_000;
        let failures = check(&slow, &base, 0.2);
        assert_eq!(failures.len(), 1, "{failures:?}");
        assert!(failures[0].contains("spmv achieved bandwidth regressed"));

        // Overlap degradation alone is also caught.
        let mut unhidden = base.clone();
        unhidden.methods[0]
            .overlap
            .as_mut()
            .unwrap()
            .kernel_in_window_ns = 100_000;
        let failures = check(&unhidden, &base, 0.2);
        assert_eq!(failures.len(), 1, "{failures:?}");
        assert!(failures[0].contains("achieved overlap regressed"));

        // A missing method is a coverage regression.
        let empty = PerfReport::default();
        assert_eq!(check(&empty, &base, 0.2).len(), 1);

        // Within tolerance passes.
        let mut slight = base.clone();
        slight.methods[0].kernels[0].total_ns = 440_000; // 10% slower
        assert!(check(&slight, &base, 0.2).is_empty());
    }

    #[test]
    fn models_price_the_spmv_and_pc_from_the_meta() {
        let models = models_for(MethodKind::Pcg, 1, 1000, 6400, 1.0, 24.0);
        let spmv = models.iter().find(|m| m.kind == SpanKind::Spmv).unwrap();
        assert_eq!(spmv.flops_per_call, 2.0 * 6400.0);
        assert_eq!(spmv.bytes_per_call, 12.0 * 6400.0 + 16.0 * 1000.0);
        let pc = models.iter().find(|m| m.kind == SpanKind::Pc).unwrap();
        assert_eq!(pc.flops_per_call, 1000.0);
        assert_eq!(pc.bytes_per_call, 24000.0);
        let dot = models.iter().find(|m| m.kind == SpanKind::Dot).unwrap();
        assert!(dot.bytes_per_call > 0.0, "PCG's IR declares dot traffic");
        // A Gram span is a whole packet: all the dot nodes of a pass.
        let gram = models.iter().find(|m| m.kind == SpanKind::Gram).unwrap();
        let dots = pscg_ir::costs::body_cost(&pscg_ir::method_ir(MethodKind::Pcg, 1)).dots;
        assert_eq!(gram.flops_per_call, dot.flops_per_call * dots as f64);
    }

    #[test]
    fn combine_work_follows_body_passes_not_span_counts() {
        // 12 iterations of PIPE-PsCG at s = 3 are 4 body passes; whether
        // they were recorded under 8 spans (the fused pass and the x
        // update) or 76 (a span per window) must not change the work.
        let (method, s, rows) = (MethodKind::PipePscg, 3, 1000);
        let models = models_for(method, s, rows, 6400, 1.0, 24.0);
        let spans_of = |count: usize| SpanSet {
            records: (0..count)
                .map(|i| SpanRecord {
                    kind: SpanKind::Combine,
                    arg: 0,
                    start_ns: 10 * i as u64,
                    dur_ns: 5,
                    tid: 0,
                })
                .collect(),
            dropped: 0,
        };
        let cost = pscg_ir::costs::body_cost(&pscg_ir::method_ir(method, s));
        for count in [8, 76] {
            let rows_out = kernel_rows(method, s, 12, &spans_of(count), &models);
            let combine = rows_out.iter().find(|k| k.kind == "combine").unwrap();
            assert_eq!(combine.count, count as u64);
            let want = 4.0 * cost.combine_bytes_per_row * rows as f64;
            assert!(
                (combine.model_bytes - want).abs() <= 1e-9 * want,
                "{count} spans"
            );
        }
    }

    #[test]
    fn spans_from_trace_reconstructs_kernel_records() {
        let set = SpanSet {
            records: vec![
                SpanRecord {
                    kind: SpanKind::Spmv,
                    arg: 1,
                    start_ns: 1500,
                    dur_ns: 2500,
                    tid: 3,
                },
                SpanRecord {
                    kind: SpanKind::ArWindow,
                    arg: 0,
                    start_ns: 1000,
                    dur_ns: 4000,
                    tid: 3,
                },
            ],
            dropped: 0,
        };
        let text = pscg_obs::export::chrome_trace(&set);
        let back = spans_from_trace(&text).expect("parses");
        assert_eq!(back.records, set.records);
    }

    #[test]
    fn model_bytes_per_nnz_matches_the_cost_model() {
        let v = spmv_model_bytes_per_nnz(6400.0, 1000.0);
        assert!((v - (12.0 + 16.0 * 1000.0 / 6400.0)).abs() < 1e-12);
        assert_eq!(spmv_model_bytes_per_nnz(0.0, 10.0), 0.0);
    }
}
