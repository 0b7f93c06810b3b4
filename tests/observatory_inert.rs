//! Observatory inertness contract (DESIGN.md §13): the streaming
//! aggregation mode and the flight recorder must be invisible to the
//! numerics — both when enabled and when configured-but-disabled.
//!
//! For every shipped method, at pool thread counts 1 and 4:
//!
//!   * a solve with telemetry enabled in `TelemetryMode::Aggregate` and the
//!     flight recorder armed produces bitwise-identical residual history,
//!     solution and operation sequence as the all-off baseline;
//!   * in that run the aggregation layer holds non-empty histograms, the
//!     raw span ring stays empty (O(1) memory is the whole point), and the
//!     flight ring retains iteration frames;
//!   * with the recorder still armed and the mode still `Aggregate` but the
//!     master telemetry switch off, nothing is captured anywhere.
//!
//! Separate integration-test binary on purpose: it mutates process-global
//! observability state (enable flag, mode, flight ring, thread pool), which
//! must not race with other tests. One `#[test]` keeps it single-writer.

use pipescg::methods::MethodKind;
use pipescg::solver::SolveOptions;
use pscg_obs::TelemetryMode;
use pscg_precond::Jacobi;
use pscg_sim::{Layout, MatrixProfile, SimCtx};
use pscg_sparse::stencil::{poisson3d_7pt, Grid3};

const S: usize = 4;

/// Debug renderings of a trace's ops with interned buffer ids masked
/// (`BufId(0)` = `ANON` is kept — anonymous vs tracked is structural).
fn op_shapes(trace: &pscg_sim::OpTrace) -> Vec<String> {
    trace
        .ops
        .iter()
        .map(|op| {
            let s = format!("{op:?}");
            let mut out = String::new();
            let mut rest = s.as_str();
            while let Some(pos) = rest.find("BufId(") {
                out.push_str(&rest[..pos + 6]);
                rest = &rest[pos + 6..];
                let end = rest.find(')').expect("BufId debug form");
                if &rest[..end] == "0" {
                    out.push('0');
                } else {
                    out.push('_');
                }
                rest = &rest[end..];
            }
            out.push_str(rest);
            out
        })
        .collect()
}

struct Run {
    hist_bits: Vec<u64>,
    x_bits: Vec<u64>,
    shapes: Vec<String>,
}

/// One traced solve at the current observatory settings.
fn run(method: MethodKind) -> Run {
    pscg_obs::metrics::take_last();
    pscg_obs::span::drain();
    pscg_obs::agg::drain();
    let g = Grid3::cube(8);
    let a = poisson3d_7pt(g, None);
    let b = a.mul_vec(&vec![1.0; a.nrows()]);
    let prof = MatrixProfile::stencil3d(8, 8, 8, 1, a.nnz(), Layout::Box);
    let mut ctx = SimCtx::traced(&a, Box::new(Jacobi::new(&a)), prof);
    let opts = SolveOptions::with_rtol(1e-6).with_s(S);
    let res = method.solve(&mut ctx, &b, None, &opts);
    assert!(res.converged(), "{} did not converge", method.name());
    Run {
        hist_bits: res.history.iter().map(|r| r.to_bits()).collect(),
        x_bits: res.x.iter().map(|v| v.to_bits()).collect(),
        shapes: op_shapes(&ctx.take_trace().unwrap()),
    }
}

#[test]
fn aggregate_mode_and_flight_recorder_are_inert() {
    // Force real chunking so the kernels genuinely split at 4 threads.
    pscg_par::knobs::set_spmv_chunk_nnz(256);
    pscg_par::knobs::set_gram_chunk_rows(64);

    for threads in [1usize, 4] {
        pscg_par::set_global_threads(threads);
        for method in MethodKind::ALL {
            // Baseline: everything off, nothing armed.
            pscg_obs::set_enabled(false);
            pscg_obs::set_mode(TelemetryMode::Full);
            pscg_obs::flight::configure(0, None);
            let off = run(method);

            // Observatory on: Aggregate mode + flight ring armed (no dump
            // path — the ring alone must stay invisible).
            pscg_obs::set_enabled(true);
            pscg_obs::set_mode(TelemetryMode::Aggregate);
            pscg_obs::flight::configure(8, None);
            let on = run(method);

            let agg = pscg_obs::agg::drain();
            let raw = pscg_obs::span::drain();
            let flight = pscg_obs::flight::dump("test");

            // Disabled-but-configured: the armed ring and the Aggregate
            // mode must capture nothing while the master switch is off.
            // (Re-arm to clear the enabled run's retained frames — the
            // ring deliberately keeps the last armed solve's post-mortem.)
            pscg_obs::flight::configure(0, None);
            pscg_obs::flight::configure(8, None);
            pscg_obs::set_enabled(false);
            let dark = run(method);
            let dark_agg = pscg_obs::agg::drain();
            let dark_flight = pscg_obs::flight::dump("test");

            pscg_obs::flight::configure(0, None);
            pscg_obs::set_mode(TelemetryMode::Full);

            for (label, other) in [("aggregate+flight", &on), ("dark", &dark)] {
                assert_eq!(
                    off.hist_bits,
                    other.hist_bits,
                    "{} @{threads}t [{label}]: residual history changed",
                    method.name()
                );
                assert_eq!(
                    off.x_bits,
                    other.x_bits,
                    "{} @{threads}t [{label}]: solution changed",
                    method.name()
                );
                assert_eq!(
                    off.shapes,
                    other.shapes,
                    "{} @{threads}t [{label}]: operation sequence changed",
                    method.name()
                );
            }

            // The enabled run fed the observatory...
            assert!(
                !agg.kinds.is_empty(),
                "{} @{threads}t: Aggregate mode recorded no histograms",
                method.name()
            );
            assert!(
                raw.records.is_empty(),
                "{} @{threads}t: Aggregate mode retained {} raw spans",
                method.name(),
                raw.records.len()
            );
            let dump = flight.unwrap_or_else(|| {
                panic!("{} @{threads}t: armed flight ring is empty", method.name())
            });
            let check = pscg_obs::flight::validate_flight_json(&dump)
                .unwrap_or_else(|e| panic!("{} @{threads}t: bad flight dump: {e}", method.name()));
            assert_eq!(check.method, method.name());
            assert!(check.iters >= 1 && check.iters <= 8, "{}", check.iters);

            // ...and the dark run fed nothing.
            assert!(
                dark_agg.kinds.is_empty(),
                "{} @{threads}t: disabled telemetry aggregated spans",
                method.name()
            );
            assert!(
                dark_flight.is_none(),
                "{} @{threads}t: disabled telemetry left flight frames",
                method.name()
            );
        }
    }
    pscg_par::set_global_threads(1);
}
