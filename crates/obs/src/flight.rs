//! The flight recorder: a bounded ring of the most recent iterations'
//! metrics and spans, dumped on solver failure.
//!
//! Post-mortem telemetry inverts the usual trade-off: a full trace of a
//! 10⁴-iteration campaign is too big to keep *just in case*, but when a
//! solve breaks down the only interesting part is the last few hundred
//! microseconds before it did. The recorder keeps the final `capacity`
//! [`IterRecord`]s and a proportional tail of raw spans in two bounded
//! rings, costing O(capacity) memory regardless of solve length; the
//! resilient supervisor dumps them to `flight.json` on breakdown /
//! `RecoveryExhausted`, and the fault campaign on any non-recovered
//! fault.
//!
//! Inertness: the recorder only observes streams the telemetry layer
//! already produces, so it needs `crate::set_enabled(true)` to see
//! anything; while unconfigured, every hook is a single relaxed atomic
//! load, and it never feeds anything back into the solver (the
//! `tests/observatory_inert.rs` bitwise checks cover both states).

use std::collections::VecDeque;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

use crate::export::{push_jnum, push_jstr};
use crate::json::{parse, Json};
use crate::metrics::{IterRecord, SolveMeta};
use crate::span::{SpanKind, SpanRecord};

/// Raw spans retained per unit of iteration capacity (a solver iteration
/// is a handful of kernels + reductions; 64 leaves slack for s-step
/// bursts).
const SPANS_PER_FRAME: usize = 64;

struct FlightState {
    capacity: usize,
    path: Option<PathBuf>,
    meta: Option<SolveMeta>,
    iters: VecDeque<IterRecord>,
    spans: VecDeque<SpanRecord>,
}

/// Fast-path gate: true only between `configure(n>0, ..)` and
/// `configure(0, ..)`.
static ACTIVE: AtomicBool = AtomicBool::new(false);
static STATE: Mutex<Option<FlightState>> = Mutex::new(None);

/// Arms the recorder with a ring of `capacity` iterations (and
/// `capacity × 64` spans), optionally bound to a dump path for
/// [`dump_to_path`]. `capacity == 0` disarms and frees the rings.
pub fn configure(capacity: usize, path: Option<PathBuf>) {
    let mut state = STATE.lock().unwrap();
    if capacity == 0 {
        *state = None;
        ACTIVE.store(false, Ordering::Relaxed);
    } else {
        *state = Some(FlightState {
            capacity,
            path,
            meta: None,
            iters: VecDeque::with_capacity(capacity),
            spans: VecDeque::with_capacity(capacity * SPANS_PER_FRAME),
        });
        ACTIVE.store(true, Ordering::Relaxed);
    }
}

/// True while the recorder is armed.
#[inline]
pub fn active() -> bool {
    ACTIVE.load(Ordering::Relaxed)
}

/// Resets the rings for a new solve (called by `metrics::begin_solve`, so
/// a dump always describes the *current* — failing — solve attempt).
pub(crate) fn note_begin(meta: &SolveMeta) {
    if !active() {
        return;
    }
    if let Some(s) = STATE.lock().unwrap().as_mut() {
        s.meta = Some(meta.clone());
        s.iters.clear();
        s.spans.clear();
    }
}

/// Appends one iteration record, evicting the oldest beyond capacity.
pub(crate) fn note_iter(rec: &IterRecord) {
    if !active() {
        return;
    }
    if let Some(s) = STATE.lock().unwrap().as_mut() {
        if s.iters.len() >= s.capacity {
            s.iters.pop_front();
        }
        s.iters.push_back(rec.clone());
    }
}

/// Appends one span, evicting the oldest beyond the span ring bound
/// (called from the span recorder's push path in every telemetry mode).
pub(crate) fn note_span(rec: &SpanRecord) {
    if !active() {
        return;
    }
    if let Some(s) = STATE.lock().unwrap().as_mut() {
        if s.spans.len() >= s.capacity * SPANS_PER_FRAME {
            s.spans.pop_front();
        }
        s.spans.push_back(*rec);
    }
}

/// Renders the current rings as a `flight.json` document, or `None` when
/// the recorder is disarmed or no solve has begun since arming. Does not
/// clear the rings: a later, more specific failure can dump again.
pub fn dump(reason: &str) -> Option<String> {
    let state = STATE.lock().unwrap();
    let s = state.as_ref()?;
    let meta = s.meta.as_ref()?;
    let mut out = String::with_capacity(1024 + s.spans.len() * 96 + s.iters.len() * 128);
    out.push_str("{\"type\":\"flight\",\"reason\":");
    push_jstr(&mut out, reason);
    out.push_str(",\"method\":");
    push_jstr(&mut out, meta.method);
    let _ = write_fields(&mut out, s, meta);
    out.push_str("}\n");
    Some(out)
}

fn write_fields(out: &mut String, s: &FlightState, meta: &SolveMeta) -> std::fmt::Result {
    use std::fmt::Write as _;
    write!(
        out,
        ",\"s\":{},\"nrows\":{},\"nnz\":{},\"capacity\":{},\"iters\":[",
        meta.s, meta.nrows, meta.nnz, s.capacity
    )?;
    for (i, rec) in s.iters.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write!(
            out,
            "{{\"seq\":{},\"iter\":{},\"t_ns\":{},\"relres\":",
            rec.seq, rec.iter, rec.t_ns
        )?;
        push_jnum(out, rec.sample.relres);
        write!(
            out,
            ",\"d_spmv\":{},\"d_pc\":{},\"d_allreduce\":{},\
             \"window_ns\":{},\"kernel_in_window_ns\":{}}}",
            rec.d_kernels.spmv,
            rec.d_kernels.pc,
            rec.d_kernels.allreduce,
            rec.window_ns,
            rec.kernel_in_window_ns
        )?;
    }
    out.push_str("],\"spans\":[");
    for (i, rec) in s.spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"kind\":");
        push_jstr(out, rec.kind.name());
        write!(
            out,
            ",\"arg\":{},\"start_ns\":{},\"dur_ns\":{},\"tid\":{}}}",
            rec.arg, rec.start_ns, rec.dur_ns, rec.tid
        )?;
    }
    out.push(']');
    Ok(())
}

/// Dumps to the path given at [`configure`] time, returning it on success.
/// Best-effort: I/O failures are swallowed (a failing dump must never turn
/// a diagnosable solver failure into a crash), and `None` is returned.
pub fn dump_to_path(reason: &str) -> Option<PathBuf> {
    let path = STATE.lock().unwrap().as_ref()?.path.clone()?;
    let doc = dump(reason)?;
    if let Some(dir) = path.parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    std::fs::write(&path, doc).ok()?;
    Some(path)
}

/// Summary returned by [`validate_flight_json`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FlightCheck {
    /// The dump reason.
    pub reason: String,
    /// The failing method's name.
    pub method: String,
    /// Retained iteration records.
    pub iters: usize,
    /// Retained spans.
    pub spans: usize,
}

/// Structurally validates a flight dump: `type == "flight"`, a reason and
/// method, `iters.len() ≤ capacity`, every iteration with
/// `seq`/`iter`/`t_ns`/`relres`, every span with a known kind and
/// `start_ns`/`dur_ns`/`tid`.
pub fn validate_flight_json(text: &str) -> Result<FlightCheck, String> {
    let doc = parse(text.trim())?;
    if doc.get("type").and_then(Json::as_str) != Some("flight") {
        return Err("type is not 'flight'".into());
    }
    let reason = doc
        .get("reason")
        .and_then(Json::as_str)
        .ok_or("missing reason")?;
    let method = doc
        .get("method")
        .and_then(Json::as_str)
        .ok_or("missing method")?;
    let capacity = doc
        .get("capacity")
        .and_then(Json::as_f64)
        .ok_or("missing capacity")? as usize;
    if capacity == 0 {
        return Err("capacity is zero".into());
    }
    let iters = doc
        .get("iters")
        .and_then(Json::as_arr)
        .ok_or("missing iters array")?;
    if iters.len() > capacity {
        return Err(format!("{} iters exceed capacity {capacity}", iters.len()));
    }
    let mut last_seq = -1i64;
    for (i, rec) in iters.iter().enumerate() {
        for key in ["seq", "iter", "t_ns"] {
            if rec.get(key).and_then(Json::as_f64).is_none() {
                return Err(format!("iter {i}: missing {key}"));
            }
        }
        match rec.get("relres") {
            Some(Json::Num(_)) | Some(Json::Null) => {}
            _ => return Err(format!("iter {i}: missing relres")),
        }
        let seq = rec.get("seq").and_then(Json::as_f64).unwrap() as i64;
        if seq <= last_seq {
            return Err(format!("iter {i}: seq {seq} not increasing"));
        }
        last_seq = seq;
    }
    let spans = doc
        .get("spans")
        .and_then(Json::as_arr)
        .ok_or("missing spans array")?;
    for (i, rec) in spans.iter().enumerate() {
        let kind = rec
            .get("kind")
            .and_then(Json::as_str)
            .ok_or(format!("span {i}: missing kind"))?;
        if SpanKind::parse(kind).is_none() {
            return Err(format!("span {i}: unknown kind '{kind}'"));
        }
        for key in ["start_ns", "dur_ns", "tid"] {
            if rec.get(key).and_then(Json::as_f64).is_none() {
                return Err(format!("span {i}: missing {key}"));
            }
        }
    }
    Ok(FlightCheck {
        reason: reason.to_string(),
        method: method.to_string(),
        iters: iters.len(),
        spans: spans.len(),
    })
}

/// Validates a flight dump file on disk.
pub fn validate_flight_file(path: &Path) -> Result<FlightCheck, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    validate_flight_json(&text)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{IterSample, KernelCounts};

    fn iter_rec(seq: usize, relres: f64) -> IterRecord {
        IterRecord {
            seq,
            iter: seq,
            sample: IterSample {
                iter: seq,
                relres,
                norms_sq: [relres * relres, f64::NAN, f64::NAN],
                alpha: vec![0.5],
                beta: vec![0.1],
                gamma: 1.0,
            },
            t_ns: 100 * (seq as u64 + 1),
            kernels: KernelCounts::default(),
            d_kernels: KernelCounts {
                spmv: 1,
                pc: 1,
                allreduce: 1,
            },
            window_ns: 10,
            kernel_in_window_ns: 5,
        }
    }

    fn meta() -> SolveMeta {
        SolveMeta {
            method: "PIPE-PsCG",
            s: 4,
            norm: "preconditioned",
            rtol: 1e-5,
            threads: 1,
            stagnation: None,
            nrows: 512,
            nnz: 3392,
            spmv_model_bytes_per_nnz: 14.4,
            pc_flops_per_row: 1.0,
            pc_bytes_per_row: 24.0,
        }
    }

    #[test]
    fn ring_bounds_dump_schema_and_disarm() {
        let _g = crate::test_lock();
        // Disarmed: hooks are no-ops and dump yields nothing.
        configure(0, None);
        assert!(!active());
        note_begin(&meta());
        note_iter(&iter_rec(0, 1.0));
        assert!(dump("x").is_none(), "disarmed recorder dumps nothing");

        // Armed with capacity 4: only the last 4 of 10 iterations survive.
        configure(4, None);
        assert!(active());
        assert!(dump("x").is_none(), "no solve begun yet");
        note_begin(&meta());
        for seq in 0..10 {
            note_iter(&iter_rec(seq, 1.0 / (seq + 1) as f64));
            note_span(&SpanRecord {
                kind: SpanKind::Spmv,
                arg: 0,
                start_ns: seq as u64 * 10,
                dur_ns: 5,
                tid: 0,
            });
        }
        let doc = dump("RecoveryExhausted").expect("armed dump");
        assert!(doc.is_ascii());
        let check = validate_flight_json(&doc).expect("schema-valid dump");
        assert_eq!(check.reason, "RecoveryExhausted");
        assert_eq!(check.method, "PIPE-PsCG");
        assert_eq!(check.iters, 4, "ring keeps the last capacity iters");
        assert_eq!(check.spans, 10);
        // The retained records are the *final* four (seq 6..9).
        let parsed = parse(doc.trim()).unwrap();
        let first = &parsed.get("iters").unwrap().as_arr().unwrap()[0];
        assert_eq!(first.get("seq").and_then(Json::as_f64), Some(6.0));

        // A new solve clears the rings.
        note_begin(&meta());
        let doc = dump("Breakdown").unwrap();
        assert_eq!(validate_flight_json(&doc).unwrap().iters, 0);

        // Span ring is bounded too.
        for i in 0..(4 * super::SPANS_PER_FRAME + 50) {
            note_span(&SpanRecord {
                kind: SpanKind::Dot,
                arg: 0,
                start_ns: i as u64,
                dur_ns: 1,
                tid: 0,
            });
        }
        let doc = dump("Breakdown").unwrap();
        assert_eq!(
            validate_flight_json(&doc).unwrap().spans,
            4 * super::SPANS_PER_FRAME
        );

        configure(0, None);
        assert!(!active());
    }

    #[test]
    fn dump_to_path_writes_a_valid_file() {
        let _g = crate::test_lock();
        let dir = std::env::temp_dir().join(format!("pscg-flight-{}", std::process::id()));
        let path = dir.join("flight.json");
        configure(3, Some(path.clone()));
        note_begin(&meta());
        note_iter(&iter_rec(0, 0.5));
        let written = dump_to_path("Breakdown").expect("dump written");
        assert_eq!(written, path);
        let check = validate_flight_file(&path).expect("file validates");
        assert_eq!(check.iters, 1);
        configure(0, None);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn validator_rejects_malformed_dumps() {
        assert!(validate_flight_json("{}").is_err());
        assert!(validate_flight_json("{\"type\":\"flight\"}").is_err());
        let bad_kind = r#"{"type":"flight","reason":"r","method":"m","capacity":2,
            "iters":[],"spans":[{"kind":"warp","start_ns":0,"dur_ns":1,"tid":0}]}"#;
        assert!(validate_flight_json(bad_kind).is_err(), "unknown span kind");
        let over = r#"{"type":"flight","reason":"r","method":"m","capacity":1,
            "iters":[{"seq":0,"iter":0,"t_ns":1,"relres":1.0},
                     {"seq":1,"iter":1,"t_ns":2,"relres":0.5}],"spans":[]}"#;
        assert!(validate_flight_json(over).is_err(), "iters over capacity");
    }
}
