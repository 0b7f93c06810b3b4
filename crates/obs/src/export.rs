//! Exporters: Chrome trace-event JSON for spans, JSONL for solver metrics.
//!
//! Both formats are hand-rolled (the build is fully offline; no serde).
//! Floating-point values are written with Rust's shortest-roundtrip
//! formatting, so a reparsed value is bitwise identical to the one the
//! solver computed — `repro` relies on this to check the exported residual
//! stream against the solver's convergence history exactly. Each exporter
//! is paired with a validator ([`validate_chrome_trace`],
//! [`validate_metrics_jsonl`], [`validate_aggregate_json`]) built on the
//! minimal JSON parser in [`crate::json`]; the validators back the schema
//! unit tests and the CI artifact check.

use std::fmt::Write as _;

use crate::agg::AggregateReport;
use crate::json::{parse as parse_json, Json};
use crate::metrics::{FinishRecord, IterRecord, MetricsSink, SolveMeta, SolveTelemetry};
use crate::span::{SpanKind, SpanRecord, SpanSet};

// ---------------------------------------------------------------------------
// JSON writing helpers
// ---------------------------------------------------------------------------

/// Writes a JSON string literal into `out`. Output is pure ASCII: quotes,
/// backslashes, control characters (including DEL) and every non-ASCII
/// character are escaped, supplementary-plane characters as surrogate
/// pairs — so a trace is byte-identical under any downstream transcoding
/// and survives consumers that mishandle raw UTF-8.
pub(crate) fn push_jstr(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 || (c as u32) >= 0x7f => {
                let mut units = [0u16; 2];
                for unit in c.encode_utf16(&mut units) {
                    let _ = write!(out, "\\u{:04x}", unit);
                }
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Writes an f64 as a JSON value: shortest-roundtrip decimal for finite
/// values (reparsing yields the identical bits), `null` for NaN/±inf
/// (which JSON cannot represent).
pub(crate) fn push_jnum(out: &mut String, v: f64) {
    if v.is_finite() {
        let _ = write!(out, "{v:?}");
    } else {
        out.push_str("null");
    }
}

/// Writes a `[f64, ...]` array.
fn push_jnum_arr(out: &mut String, vs: &[f64]) {
    out.push('[');
    for (i, &v) in vs.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_jnum(out, v);
    }
    out.push(']');
}

// ---------------------------------------------------------------------------
// Chrome trace export
// ---------------------------------------------------------------------------

/// Renders a [`SpanSet`] as Chrome trace-event JSON (object form, with a
/// `traceEvents` array of complete `"X"` events), loadable in
/// `chrome://tracing` and [Perfetto](https://ui.perfetto.dev).
///
/// Timestamps are microseconds (the format's unit) with sub-µs fractions
/// preserved; `args.arg` carries the kind-specific span argument.
pub fn chrome_trace(set: &SpanSet) -> String {
    let mut out = String::with_capacity(64 + set.records.len() * 128);
    out.push_str("{\"traceEvents\":[");
    out.push_str(
        "{\"ph\":\"M\",\"pid\":0,\"name\":\"process_name\",\
         \"args\":{\"name\":\"pipe-pscg\"}}",
    );
    for rec in &set.records {
        out.push(',');
        push_trace_event(&mut out, rec);
    }
    out.push_str("],\"displayTimeUnit\":\"ns\"");
    if set.dropped > 0 {
        let _ = write!(out, ",\"droppedSpans\":{}", set.dropped);
    }
    out.push_str("}\n");
    out
}

fn push_trace_event(out: &mut String, rec: &SpanRecord) {
    out.push_str("{\"ph\":\"X\",\"pid\":0,\"tid\":");
    let _ = write!(out, "{}", rec.tid);
    out.push_str(",\"name\":");
    push_jstr(out, rec.kind.name());
    out.push_str(",\"cat\":");
    push_jstr(out, rec.kind.category());
    out.push_str(",\"ts\":");
    push_jnum(out, rec.start_ns as f64 / 1e3);
    out.push_str(",\"dur\":");
    push_jnum(out, rec.dur_ns as f64 / 1e3);
    let _ = write!(out, ",\"args\":{{\"arg\":{}}}}}", rec.arg);
}

// ---------------------------------------------------------------------------
// JSONL metrics export
// ---------------------------------------------------------------------------

/// A [`MetricsSink`] that renders the stream as JSON Lines: one `meta`
/// line, one `iter` line per convergence check, one `finish` line.
#[derive(Debug, Default)]
pub struct JsonlSink {
    out: String,
}

impl JsonlSink {
    /// Creates an empty sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// The rendered JSONL document.
    pub fn into_string(self) -> String {
        self.out
    }
}

impl MetricsSink for JsonlSink {
    fn on_meta(&mut self, meta: &SolveMeta) {
        let out = &mut self.out;
        out.push_str("{\"type\":\"meta\",\"method\":");
        push_jstr(out, meta.method);
        let _ = write!(out, ",\"s\":{},\"norm\":", meta.s);
        push_jstr(out, meta.norm);
        out.push_str(",\"rtol\":");
        push_jnum(out, meta.rtol);
        let _ = write!(out, ",\"threads\":{},\"stagnation\":", meta.threads);
        match meta.stagnation {
            Some(cfg) => {
                let _ = write!(out, "{{\"window\":{},\"min_ratio\":", cfg.window);
                push_jnum(out, cfg.min_ratio);
                out.push('}');
            }
            None => out.push_str("null"),
        }
        let _ = write!(
            out,
            ",\"nrows\":{},\"nnz\":{},\"spmv_model_bytes_per_nnz\":",
            meta.nrows, meta.nnz
        );
        push_jnum(out, meta.spmv_model_bytes_per_nnz);
        out.push_str(",\"pc_flops_per_row\":");
        push_jnum(out, meta.pc_flops_per_row);
        out.push_str(",\"pc_bytes_per_row\":");
        push_jnum(out, meta.pc_bytes_per_row);
        out.push_str("}\n");
    }

    fn on_iter(&mut self, rec: &IterRecord) {
        let out = &mut self.out;
        let _ = write!(
            out,
            "{{\"type\":\"iter\",\"seq\":{},\"iter\":{},\"t_ns\":{},\"relres\":",
            rec.seq, rec.iter, rec.t_ns
        );
        push_jnum(out, rec.sample.relres);
        out.push_str(",\"rr\":");
        push_jnum(out, rec.sample.norms_sq[0]);
        out.push_str(",\"uu\":");
        push_jnum(out, rec.sample.norms_sq[1]);
        out.push_str(",\"ru\":");
        push_jnum(out, rec.sample.norms_sq[2]);
        out.push_str(",\"alpha\":");
        push_jnum_arr(out, &rec.sample.alpha);
        out.push_str(",\"beta\":");
        push_jnum_arr(out, &rec.sample.beta);
        out.push_str(",\"gamma\":");
        push_jnum(out, rec.sample.gamma);
        let _ = write!(
            out,
            ",\"spmv\":{},\"pc\":{},\"allreduce\":{}",
            rec.kernels.spmv, rec.kernels.pc, rec.kernels.allreduce
        );
        let _ = write!(
            out,
            ",\"d_spmv\":{},\"d_pc\":{},\"d_allreduce\":{}",
            rec.d_kernels.spmv, rec.d_kernels.pc, rec.d_kernels.allreduce
        );
        let _ = write!(
            out,
            ",\"window_ns\":{},\"kernel_in_window_ns\":{},\"overlap\":",
            rec.window_ns, rec.kernel_in_window_ns
        );
        push_jnum(out, rec.overlap_ratio());
        out.push_str("}\n");
    }

    fn on_finish(&mut self, fin: &FinishRecord) {
        let out = &mut self.out;
        let _ = write!(
            out,
            "{{\"type\":\"finish\",\"iterations\":{},\"stop\":",
            fin.iterations
        );
        push_jstr(out, fin.stop);
        out.push_str(",\"final_relres\":");
        push_jnum(out, fin.final_relres);
        let _ = write!(
            out,
            ",\"spmv\":{},\"pc\":{},\"allreduce\":{}",
            fin.kernels.spmv, fin.kernels.pc, fin.kernels.allreduce
        );
        let _ = write!(
            out,
            ",\"d_spmv\":{},\"d_pc\":{},\"d_allreduce\":{}",
            fin.d_kernels.spmv, fin.d_kernels.pc, fin.d_kernels.allreduce
        );
        let _ = write!(
            out,
            ",\"window_ns\":{},\"kernel_in_window_ns\":{},\"achieved_overlap\":",
            fin.window_ns, fin.kernel_in_window_ns
        );
        push_jnum(out, fin.achieved_overlap());
        let _ = write!(
            out,
            ",\"stagnation_fired\":{},\"faults_injected\":{},\"recoveries\":{},\"wall_ns\":{}",
            fin.stagnation_fired, fin.faults_injected, fin.recoveries, fin.wall_ns
        );
        let p = &fin.pool;
        let _ = write!(
            out,
            ",\"pool\":{{\"jobs\":{},\"parallel_jobs\":{},\"inline_fallback\":{},\
             \"inline_small\":{},\"chunks\":{}}}",
            p.jobs, p.parallel_jobs, p.inline_fallback, p.inline_small, p.chunks
        );
        out.push_str("}\n");
    }
}

/// Renders a [`SolveTelemetry`] stream as JSON Lines.
pub fn metrics_jsonl(t: &SolveTelemetry) -> String {
    let mut sink = JsonlSink::new();
    t.emit(&mut sink);
    sink.into_string()
}

// ---------------------------------------------------------------------------
// Aggregate export
// ---------------------------------------------------------------------------

/// Renders an [`AggregateReport`] as a single JSON object: one entry per
/// span kind with count/sum/min/max/p50/p95/p99 plus the sparse non-zero
/// bins (`[index, count]` pairs; edges are implied by the fixed bin grid,
/// see DESIGN.md §13).
pub fn aggregate_json(report: &AggregateReport) -> String {
    let mut out = String::with_capacity(128 + report.kinds.len() * 256);
    out.push_str("{\"type\":\"aggregate\",\"bins\":");
    let _ = write!(out, "{}", crate::agg::BINS);
    out.push_str(",\"kinds\":[");
    for (i, k) in report.kinds.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let h = &k.hist;
        out.push_str("{\"kind\":");
        push_jstr(&mut out, k.kind.name());
        let _ = write!(
            out,
            ",\"count\":{},\"sum_ns\":{},\"min_ns\":{},\"max_ns\":{}",
            h.count,
            h.sum_ns,
            if h.count == 0 { 0 } else { h.min_ns },
            h.max_ns
        );
        let _ = write!(
            out,
            ",\"p50_ns\":{},\"p95_ns\":{},\"p99_ns\":{}",
            h.percentile_ns(0.50),
            h.percentile_ns(0.95),
            h.percentile_ns(0.99)
        );
        out.push_str(",\"hist\":[");
        let mut first = true;
        for (idx, &c) in h.counts.iter().enumerate() {
            if c > 0 {
                if !first {
                    out.push(',');
                }
                first = false;
                let _ = write!(out, "[{idx},{c}]");
            }
        }
        out.push_str("]}");
    }
    out.push_str("]}\n");
    out
}

/// Summary returned by [`validate_aggregate_json`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AggregateCheck {
    /// Span kinds present.
    pub kinds: usize,
    /// Total spans across all kinds.
    pub spans: u64,
}

/// Structurally validates an aggregate document: known span kinds, each
/// with `count`/`sum_ns`/percentiles, whose sparse bins sum to `count`.
pub fn validate_aggregate_json(text: &str) -> Result<AggregateCheck, String> {
    let doc = parse_json(text)?;
    if doc.get("type").and_then(Json::as_str) != Some("aggregate") {
        return Err("type is not 'aggregate'".into());
    }
    let kinds = doc
        .get("kinds")
        .and_then(Json::as_arr)
        .ok_or("missing kinds array")?;
    let mut check = AggregateCheck {
        kinds: kinds.len(),
        spans: 0,
    };
    for (i, k) in kinds.iter().enumerate() {
        let name = k
            .get("kind")
            .and_then(Json::as_str)
            .ok_or(format!("kind {i}: missing kind name"))?;
        if SpanKind::parse(name).is_none() {
            return Err(format!("kind {i}: unknown span kind '{name}'"));
        }
        let count = k
            .get("count")
            .and_then(Json::as_f64)
            .ok_or(format!("kind {i}: missing count"))? as u64;
        for key in ["sum_ns", "min_ns", "max_ns", "p50_ns", "p95_ns", "p99_ns"] {
            if k.get(key).and_then(Json::as_f64).is_none() {
                return Err(format!("kind {i}: missing {key}"));
            }
        }
        let hist = k
            .get("hist")
            .and_then(Json::as_arr)
            .ok_or(format!("kind {i}: missing hist"))?;
        let mut binned = 0u64;
        for (j, pair) in hist.iter().enumerate() {
            let pair = pair
                .as_arr()
                .filter(|p| p.len() == 2)
                .ok_or(format!("kind {i}: hist entry {j} is not [index,count]"))?;
            let idx = pair[0].as_f64().unwrap_or(-1.0);
            if !(0.0..crate::agg::BINS as f64).contains(&idx) {
                return Err(format!("kind {i}: hist entry {j} index out of range"));
            }
            binned += pair[1].as_f64().unwrap_or(0.0) as u64;
        }
        if binned != count {
            return Err(format!(
                "kind {i}: bins sum to {binned}, count says {count}"
            ));
        }
        check.spans += count;
    }
    Ok(check)
}

// ---------------------------------------------------------------------------
// Validators
// ---------------------------------------------------------------------------

/// Summary returned by [`validate_chrome_trace`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ChromeCheck {
    /// Total events in the trace.
    pub events: usize,
    /// Complete (`"X"`) events.
    pub complete: usize,
    /// Matched `"B"`/`"E"` pairs.
    pub pairs: usize,
}

/// Structurally validates a Chrome trace-event document: top level is an
/// event array or an object with a `traceEvents` array; every `"X"` event
/// carries `name`/`ts`/`dur`; every `"B"` has a matching `"E"` (same
/// `pid`/`tid`, LIFO order, same name); metadata (`"M"`) events pass.
pub fn validate_chrome_trace(text: &str) -> Result<ChromeCheck, String> {
    let doc = parse_json(text)?;
    let events = match &doc {
        Json::Arr(_) => &doc,
        Json::Obj(_) => doc
            .get("traceEvents")
            .ok_or("object trace without traceEvents")?,
        _ => return Err("trace is neither array nor object".into()),
    };
    let events = events.as_arr().ok_or("traceEvents is not an array")?;
    let mut check = ChromeCheck {
        events: events.len(),
        ..Default::default()
    };
    // Open "B" stacks per (pid, tid) lane: (name).
    let mut open: std::collections::HashMap<(i64, i64), Vec<String>> =
        std::collections::HashMap::new();
    for (i, ev) in events.iter().enumerate() {
        let ph = ev
            .get("ph")
            .and_then(Json::as_str)
            .ok_or(format!("event {i}: missing ph"))?;
        let lane = || -> (i64, i64) {
            let pid = ev.get("pid").and_then(Json::as_f64).unwrap_or(0.0) as i64;
            let tid = ev.get("tid").and_then(Json::as_f64).unwrap_or(0.0) as i64;
            (pid, tid)
        };
        match ph {
            "X" => {
                for key in ["name", "ts", "dur"] {
                    if ev.get(key).is_none() {
                        return Err(format!("event {i}: X without {key}"));
                    }
                }
                if ev.get("ts").and_then(Json::as_f64).is_none()
                    || ev.get("dur").and_then(Json::as_f64).is_none()
                {
                    return Err(format!("event {i}: non-numeric ts/dur"));
                }
                check.complete += 1;
            }
            "B" => {
                let name = ev
                    .get("name")
                    .and_then(Json::as_str)
                    .ok_or(format!("event {i}: B without name"))?;
                open.entry(lane()).or_default().push(name.to_string());
            }
            "E" => {
                let stack = open.entry(lane()).or_default();
                let Some(top) = stack.pop() else {
                    return Err(format!("event {i}: E without open B"));
                };
                if let Some(name) = ev.get("name").and_then(Json::as_str) {
                    if name != top {
                        return Err(format!("event {i}: E for '{name}' closes open '{top}'"));
                    }
                }
                check.pairs += 1;
            }
            "M" | "C" | "I" | "i" => {}
            other => return Err(format!("event {i}: unsupported phase '{other}'")),
        }
    }
    for ((pid, tid), stack) in &open {
        if !stack.is_empty() {
            return Err(format!(
                "unclosed B event '{}' on pid {pid} tid {tid}",
                stack.last().unwrap()
            ));
        }
    }
    Ok(check)
}

/// Summary returned by [`validate_metrics_jsonl`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct JsonlCheck {
    /// Number of `iter` lines.
    pub iters: usize,
    /// The `relres` value of each `iter` line, in order (bitwise as
    /// written, via shortest-roundtrip parsing).
    pub relres: Vec<f64>,
    /// The `final_relres` of the `finish` line.
    pub final_relres: f64,
    /// The `achieved_overlap` of the `finish` line (NaN when absent/null).
    pub achieved_overlap: f64,
}

/// Structurally validates a metrics JSONL document: every line parses as
/// an object with a `type`; the first is `meta`; `iter` lines carry
/// strictly increasing `seq`, non-decreasing `iter`, and a numeric or
/// null `relres`; the last line is the single `finish`.
pub fn validate_metrics_jsonl(text: &str) -> Result<JsonlCheck, String> {
    let mut check = JsonlCheck {
        achieved_overlap: f64::NAN,
        ..Default::default()
    };
    let mut seen_meta = false;
    let mut seen_finish = false;
    let mut last_seq: Option<i64> = None;
    let mut last_iter: Option<i64> = None;
    for (lineno, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let doc = parse_json(line).map_err(|e| format!("line {}: {e}", lineno + 1))?;
        let ty = doc
            .get("type")
            .and_then(Json::as_str)
            .ok_or(format!("line {}: missing type", lineno + 1))?;
        if seen_finish {
            return Err(format!("line {}: record after finish", lineno + 1));
        }
        match ty {
            "meta" => {
                if seen_meta {
                    return Err(format!("line {}: duplicate meta", lineno + 1));
                }
                if lineno != 0 {
                    return Err(format!("line {}: meta is not first", lineno + 1));
                }
                for key in [
                    "method",
                    "s",
                    "norm",
                    "rtol",
                    "threads",
                    "nrows",
                    "nnz",
                    "spmv_model_bytes_per_nnz",
                ] {
                    if doc.get(key).is_none() {
                        return Err(format!("line {}: meta without {key}", lineno + 1));
                    }
                }
                seen_meta = true;
            }
            "iter" => {
                if !seen_meta {
                    return Err(format!("line {}: iter before meta", lineno + 1));
                }
                let seq = doc
                    .get("seq")
                    .and_then(Json::as_f64)
                    .ok_or(format!("line {}: iter without seq", lineno + 1))?
                    as i64;
                if let Some(prev) = last_seq {
                    if seq <= prev {
                        return Err(format!(
                            "line {}: seq {seq} not greater than {prev}",
                            lineno + 1
                        ));
                    }
                }
                last_seq = Some(seq);
                let iter = doc
                    .get("iter")
                    .and_then(Json::as_f64)
                    .ok_or(format!("line {}: iter without iter index", lineno + 1))?
                    as i64;
                if let Some(prev) = last_iter {
                    if iter < prev {
                        return Err(format!(
                            "line {}: iteration index {iter} decreased from {prev}",
                            lineno + 1
                        ));
                    }
                }
                last_iter = Some(iter);
                let relres = match doc.get("relres") {
                    Some(Json::Num(v)) => *v,
                    Some(Json::Null) => f64::NAN,
                    _ => return Err(format!("line {}: iter without relres", lineno + 1)),
                };
                check.relres.push(relres);
                check.iters += 1;
            }
            "finish" => {
                if !seen_meta {
                    return Err(format!("line {}: finish before meta", lineno + 1));
                }
                for key in ["iterations", "stop", "final_relres"] {
                    if doc.get(key).is_none() {
                        return Err(format!("line {}: finish without {key}", lineno + 1));
                    }
                }
                check.final_relres = doc
                    .get("final_relres")
                    .and_then(Json::as_f64)
                    .unwrap_or(f64::NAN);
                check.achieved_overlap = doc
                    .get("achieved_overlap")
                    .and_then(Json::as_f64)
                    .unwrap_or(f64::NAN);
                seen_finish = true;
            }
            other => return Err(format!("line {}: unknown type '{other}'", lineno + 1)),
        }
    }
    if !seen_meta {
        return Err("no meta line".into());
    }
    if !seen_finish {
        return Err("no finish line".into());
    }
    Ok(check)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{
        FinishRecord, IterRecord, IterSample, KernelCounts, PoolCounters, SolveMeta, SolveTelemetry,
    };
    use crate::span::{SpanKind, SpanRecord, SpanSet};
    use crate::stagnation::StagnationConfig;

    fn sample_set() -> SpanSet {
        let mk = |kind, arg, start_ns, dur_ns, tid| SpanRecord {
            kind,
            arg,
            start_ns,
            dur_ns,
            tid,
        };
        SpanSet {
            records: vec![
                mk(SpanKind::ArWindow, 1, 100, 900, 0),
                mk(SpanKind::Spmv, 0, 150, 300, 0),
                mk(SpanKind::Pc, 0, 500, 200, 0),
                mk(SpanKind::Gram, 0, 1200, 80, 1),
                mk(SpanKind::Iter, 0, 0, 1500, 0),
            ],
            dropped: 0,
        }
    }

    fn sample_stream() -> SolveTelemetry {
        let meta = SolveMeta {
            method: "PIPE-PsCG",
            s: 4,
            norm: "preconditioned",
            rtol: 1e-5,
            threads: 2,
            stagnation: Some(StagnationConfig {
                window: 6,
                min_ratio: 0.98,
            }),
            nrows: 512,
            nnz: 3392,
            spmv_model_bytes_per_nnz: 9.62,
            pc_flops_per_row: 1.0,
            pc_bytes_per_row: 24.0,
        };
        let iter = |seq: usize, iter: usize, relres: f64, spmv: u64| IterRecord {
            seq,
            iter,
            sample: IterSample {
                iter,
                relres,
                norms_sq: [relres * relres, f64::NAN, 0.25],
                alpha: vec![0.5, 0.25],
                beta: vec![0.0, 0.1, 0.2, 0.3],
                gamma: f64::NAN,
            },
            t_ns: 1000 * (seq as u64 + 1),
            kernels: KernelCounts {
                spmv,
                pc: spmv + 1,
                allreduce: seq as u64 + 1,
            },
            d_kernels: KernelCounts {
                spmv: 4,
                pc: 4,
                allreduce: 1,
            },
            window_ns: 800,
            kernel_in_window_ns: 600,
        };
        SolveTelemetry {
            meta,
            iters: vec![iter(0, 0, 1.0, 4), iter(1, 4, 1.25e-3, 8)],
            finish: FinishRecord {
                iterations: 8,
                stop: "Converged",
                final_relres: 1.25e-3,
                kernels: KernelCounts {
                    spmv: 8,
                    pc: 9,
                    allreduce: 2,
                },
                d_kernels: KernelCounts::default(),
                window_ns: 1600,
                kernel_in_window_ns: 1200,
                stagnation_fired: false,
                faults_injected: 0,
                recoveries: 0,
                pool: PoolCounters {
                    jobs: 40,
                    parallel_jobs: 30,
                    inline_fallback: 2,
                    inline_small: 8,
                    chunks: 160,
                },
                wall_ns: 5000,
            },
        }
    }

    #[test]
    fn chrome_trace_roundtrips_and_validates() {
        let text = chrome_trace(&sample_set());
        let check = validate_chrome_trace(&text).expect("valid trace");
        assert_eq!(check.events, 6, "5 spans + 1 metadata event");
        assert_eq!(check.complete, 5);
        // Spot-check one event survived with its timing intact.
        let doc = parse_json(&text).unwrap();
        let events = doc.get("traceEvents").unwrap().as_arr().unwrap();
        let spmv = events
            .iter()
            .find(|e| e.get("name").and_then(Json::as_str) == Some("spmv"))
            .unwrap();
        assert_eq!(spmv.get("ts").unwrap().as_f64(), Some(0.15));
        assert_eq!(spmv.get("dur").unwrap().as_f64(), Some(0.3));
        assert_eq!(spmv.get("cat").and_then(Json::as_str), Some("kernel"));
    }

    #[test]
    fn chrome_trace_reports_dropped_spans() {
        let mut set = sample_set();
        set.dropped = 17;
        let text = chrome_trace(&set);
        let doc = parse_json(&text).unwrap();
        assert_eq!(doc.get("droppedSpans").unwrap().as_f64(), Some(17.0));
        validate_chrome_trace(&text).expect("still valid");
    }

    #[test]
    fn chrome_validator_accepts_matched_be_and_rejects_mismatches() {
        let good = r#"[{"ph":"B","pid":0,"tid":1,"name":"a","ts":1},
                       {"ph":"B","pid":0,"tid":1,"name":"b","ts":2},
                       {"ph":"E","pid":0,"tid":1,"name":"b","ts":3},
                       {"ph":"E","pid":0,"tid":1,"name":"a","ts":4}]"#;
        assert_eq!(validate_chrome_trace(good).unwrap().pairs, 2);

        let crossed = r#"[{"ph":"B","pid":0,"tid":1,"name":"a","ts":1},
                          {"ph":"B","pid":0,"tid":1,"name":"b","ts":2},
                          {"ph":"E","pid":0,"tid":1,"name":"a","ts":3},
                          {"ph":"E","pid":0,"tid":1,"name":"b","ts":4}]"#;
        assert!(validate_chrome_trace(crossed).is_err(), "crossed B/E");

        let unclosed = r#"[{"ph":"B","pid":0,"tid":1,"name":"a","ts":1}]"#;
        assert!(validate_chrome_trace(unclosed).is_err(), "unclosed B");

        let orphan = r#"[{"ph":"E","pid":0,"tid":1,"name":"a","ts":1}]"#;
        assert!(validate_chrome_trace(orphan).is_err(), "E without B");

        let bare_x = r#"[{"ph":"X","name":"k","ts":1}]"#;
        assert!(validate_chrome_trace(bare_x).is_err(), "X without dur");
    }

    #[test]
    fn jsonl_roundtrips_bitwise_and_validates() {
        let stream = sample_stream();
        let text = metrics_jsonl(&stream);
        let check = validate_metrics_jsonl(&text).expect("valid jsonl");
        assert_eq!(check.iters, 2);
        // Shortest-roundtrip write + parse: bitwise identity.
        assert_eq!(check.relres[0].to_bits(), 1.0f64.to_bits());
        assert_eq!(check.relres[1].to_bits(), 1.25e-3f64.to_bits());
        assert_eq!(check.final_relres.to_bits(), 1.25e-3f64.to_bits());
        assert_eq!(check.achieved_overlap, 0.75);
        // NaN norms render as null and come back as NaN in raw parses.
        let first_iter = text.lines().nth(1).unwrap();
        let doc = parse_json(first_iter).unwrap();
        assert_eq!(doc.get("uu"), Some(&Json::Null));
        assert_eq!(doc.get("rr").unwrap().as_f64(), Some(1.0));
    }

    #[test]
    fn jsonl_exercises_awkward_floats() {
        let mut stream = sample_stream();
        // Values whose decimal forms stress the writer: subnormal, huge,
        // many digits.
        let awkward = [5e-324, 1.7976931348623157e308, 0.1 + 0.2, 1.0 / 3.0];
        for (i, &v) in awkward.iter().enumerate() {
            stream.iters[0].sample.alpha[0] = v;
            stream.iters[i % 2].sample.relres = v;
            let text = metrics_jsonl(&stream);
            let check = validate_metrics_jsonl(&text).expect("valid");
            assert_eq!(check.relres[i % 2].to_bits(), v.to_bits(), "value {v:e}");
        }
    }

    #[test]
    fn jstr_escapes_control_and_non_ascii_to_pure_ascii_roundtrip() {
        // Control chars (incl. DEL), BMP non-ASCII, supplementary-plane
        // emoji, quotes and backslashes — everything must escape to pure
        // ASCII and decode back to the identical string.
        let awkward = "naïve κ∇·u \u{1}\u{7f}\u{9f} 𝒮 😀 \"q\\b\"\n\t\r";
        let mut out = String::new();
        push_jstr(&mut out, awkward);
        assert!(out.is_ascii(), "escaped JSON must be pure ASCII: {out}");
        let back = parse_json(&out).expect("escaped string reparses");
        assert_eq!(back.as_str(), Some(awkward), "round-trip identity");
    }

    #[test]
    fn meta_with_non_ascii_method_name_roundtrips_through_jsonl() {
        let mut stream = sample_stream();
        stream.meta.method = "PIPE-PsCG·κ 😀\u{7}";
        let text = metrics_jsonl(&stream);
        assert!(text.is_ascii(), "exported JSONL must be pure ASCII");
        validate_metrics_jsonl(&text).expect("valid jsonl");
        let meta_line = text.lines().next().unwrap();
        let doc = parse_json(meta_line).unwrap();
        assert_eq!(
            doc.get("method").and_then(Json::as_str),
            Some("PIPE-PsCG·κ 😀\u{7}")
        );
        assert_eq!(doc.get("nnz").and_then(Json::as_f64), Some(3392.0));
    }

    #[test]
    fn aggregate_json_roundtrips_and_validates() {
        use crate::agg::{AggregateReport, KindAggregate, LogHistogram};
        let mut h = LogHistogram::default();
        for v in [10u64, 20, 30, 1000, 5000] {
            h.record(v);
        }
        let mut h2 = LogHistogram::default();
        h2.record(7);
        let report = AggregateReport {
            kinds: vec![
                KindAggregate {
                    kind: SpanKind::Spmv,
                    hist: h.clone(),
                },
                KindAggregate {
                    kind: SpanKind::Allreduce,
                    hist: h2,
                },
            ],
        };
        let text = aggregate_json(&report);
        let check = validate_aggregate_json(&text).expect("valid aggregate");
        assert_eq!(check.kinds, 2);
        assert_eq!(check.spans, 6);
        // Percentiles in the document match the in-memory histogram.
        let doc = parse_json(text.trim()).unwrap();
        let spmv = &doc.get("kinds").unwrap().as_arr().unwrap()[0];
        assert_eq!(
            spmv.get("p50_ns").and_then(Json::as_f64),
            Some(h.percentile_ns(0.5) as f64)
        );
        assert_eq!(spmv.get("count").and_then(Json::as_f64), Some(5.0));
        // A corrupted count is rejected (bins no longer sum to it).
        let broken = text.replace("\"count\":5", "\"count\":9");
        assert!(validate_aggregate_json(&broken).is_err());
        assert!(validate_aggregate_json("{\"type\":\"aggregate\"}").is_err());
    }

    #[test]
    fn jsonl_validator_rejects_structural_breaks() {
        let stream = sample_stream();
        let good = metrics_jsonl(&stream);

        // Drop the meta line.
        let no_meta: String = good.lines().skip(1).map(|l| format!("{l}\n")).collect();
        assert!(validate_metrics_jsonl(&no_meta).is_err());

        // Drop the finish line.
        let lines: Vec<&str> = good.lines().collect();
        let no_finish: String = lines[..lines.len() - 1]
            .iter()
            .map(|l| format!("{l}\n"))
            .collect();
        assert!(validate_metrics_jsonl(&no_finish).is_err());

        // Repeat an iter line before finish: seq no longer strictly
        // increasing. lines = [meta, iter0, iter1, finish].
        let dup = format!(
            "{}\n{}\n{}\n{}\n{}\n",
            lines[0], lines[1], lines[2], lines[1], lines[3]
        );
        assert!(validate_metrics_jsonl(&dup).is_err(), "duplicated seq");

        // Corrupt a line.
        let broken = good.replace("\"type\":\"iter\"", "\"type\":");
        assert!(validate_metrics_jsonl(&broken).is_err());
    }
}
