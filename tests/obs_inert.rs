//! The telemetry inertness contract: enabling runtime telemetry must be
//! invisible to everything except the telemetry outputs themselves.
//!
//! For every shipped method, at pool thread counts 1 and 4, a traced solve
//! with telemetry **on** must produce bitwise-identical residual history
//! and solution, and the identical operation sequence (`BufId`s masked as
//! in `par_engine_invariance`), as the telemetry-**off** run. On top of
//! that, the captured telemetry stream's per-iteration relative residuals
//! must equal the solver's reported convergence history bit for bit.
//!
//! This file is a separate integration-test binary on purpose: it mutates
//! the process-global telemetry flag, metrics collector and thread pool,
//! which must not race with other tests. The single `#[test]` keeps the
//! global settings single-writer.

use pipescg::methods::MethodKind;
use pipescg::solver::SolveOptions;
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
    telemetry: Option<pscg_obs::metrics::SolveTelemetry>,
}

/// One traced solve at the current telemetry/thread settings.
fn run(method: MethodKind) -> Run {
    // Start from a clean collector and span rings so each capture is
    // attributable to this solve alone.
    pscg_obs::metrics::take_last();
    pscg_obs::span::drain();
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
        telemetry: pscg_obs::metrics::take_last(),
    }
}

#[test]
fn telemetry_is_inert_and_streams_match_history() {
    // Force real chunking so the kernels genuinely split at 4 threads.
    pscg_par::knobs::set_spmv_chunk_nnz(256);
    pscg_par::knobs::set_gram_chunk_rows(64);

    for threads in [1usize, 4] {
        pscg_par::set_global_threads(threads);
        for method in MethodKind::ALL {
            pscg_obs::set_enabled(false);
            let off = run(method);
            assert!(
                off.telemetry.is_none(),
                "{}: disabled telemetry captured a stream",
                method.name()
            );
            pscg_obs::set_enabled(true);
            let on = run(method);
            pscg_obs::set_enabled(false);

            assert_eq!(
                off.hist_bits,
                on.hist_bits,
                "{} @{threads}t: residual history changed with telemetry on",
                method.name()
            );
            assert_eq!(
                off.x_bits,
                on.x_bits,
                "{} @{threads}t: solution changed with telemetry on",
                method.name()
            );
            assert_eq!(
                off.shapes,
                on.shapes,
                "{} @{threads}t: operation sequence changed with telemetry on",
                method.name()
            );

            let tel = on
                .telemetry
                .unwrap_or_else(|| panic!("{}: enabled telemetry captured nothing", method.name()));
            assert_eq!(tel.meta.method, method.name());
            assert_eq!(tel.meta.threads, threads);
            let stream_bits: Vec<u64> = tel.relres_stream().iter().map(|r| r.to_bits()).collect();
            assert_eq!(
                stream_bits,
                on.hist_bits,
                "{} @{threads}t: telemetry residual stream diverges from history",
                method.name()
            );
            assert_eq!(tel.finish.iterations, tel.iters.last().unwrap().iter);
            // The stagnation rule is recorded exactly for the one method
            // that arms it.
            if method == MethodKind::Hybrid {
                let st = tel.meta.stagnation.expect("hybrid arms stagnation");
                assert_eq!(st, pipescg::methods::hybrid::STAGNATION);
            } else {
                assert!(tel.meta.stagnation.is_none(), "{}", method.name());
            }
        }
    }
    pscg_par::set_global_threads(1);
}
