//! Analyzer regression: turning the kernel engine's parallelism on must be
//! invisible to everything above it. For every shipped method, a traced
//! solve at 4 pool threads (with the chunk knobs forced small so every
//! kernel really splits) must produce the **same** operation sequence, the
//! same hazard report, the same structure verdicts, and bitwise-identical
//! residual history and solution as the 1-thread run.
//!
//! Operation sequences are compared with the interned `BufId`s masked
//! (`ANON` kept): interning is storage-address based, and whether a *dead*
//! buffer's address gets reused for a later allocation is an allocator
//! coincidence that legitimately differs once the 4-thread pool's own
//! (pre-solve) allocations shift the heap. Everything the analyzers
//! consume — op kinds, costs, packet sizes, communication structure — is
//! compared exactly, and the analyzer verdicts themselves are asserted
//! equal on the *unmasked* traces.
//!
//! This file is a separate integration-test binary on purpose: it mutates
//! the process-global pool and chunk knobs, which must not race with other
//! tests. The single `#[test]` keeps the global settings single-writer.

use pipescg::methods::MethodKind;
use pipescg::solver::SolveOptions;
use pscg_analysis::{analyze, verify};
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

/// One traced solve; returns (residual history bits, solution bits, trace).
fn run(method: MethodKind) -> (Vec<u64>, Vec<u64>, pscg_sim::OpTrace) {
    let g = Grid3::cube(8);
    let a = poisson3d_7pt(g, None);
    let b = a.mul_vec(&vec![1.0; a.nrows()]);
    let prof = MatrixProfile::stencil3d(8, 8, 8, 1, a.nnz(), Layout::Box);
    let mut ctx = SimCtx::traced(&a, Box::new(Jacobi::new(&a)), prof);
    let opts = SolveOptions::with_rtol(1e-6).with_s(S);
    let res = method.solve(&mut ctx, &b, None, &opts);
    assert!(res.converged(), "{} did not converge", method.name());
    let hist = res.history.iter().map(|r| r.to_bits()).collect();
    let x = res.x.iter().map(|v| v.to_bits()).collect();
    (hist, x, ctx.take_trace().unwrap())
}

#[test]
fn parallel_engine_is_invisible_to_the_analyzers() {
    // Force real chunking: the 8³ problem has 512 rows / 3200 nnz, so these
    // knobs split every SpMV and every Gram/update sweep into many chunks.
    pscg_par::knobs::set_spmv_chunk_nnz(256);
    pscg_par::knobs::set_gram_chunk_rows(64);

    for method in MethodKind::ALL {
        pscg_par::set_global_threads(1);
        let (hist1, x1, trace1) = run(method);
        pscg_par::set_global_threads(4);
        let (hist4, x4, trace4) = run(method);

        assert_eq!(
            hist1,
            hist4,
            "{}: residual history changed with thread count",
            method.name()
        );
        assert_eq!(
            x1,
            x4,
            "{}: solution changed with thread count",
            method.name()
        );
        assert_eq!(
            op_shapes(&trace1),
            op_shapes(&trace4),
            "{}: operation sequence changed with thread count",
            method.name()
        );

        let (rep1, rep4) = (analyze(&trace1), analyze(&trace4));
        assert!(
            rep1.is_clean() && rep4.is_clean(),
            "{}: schedule hazards appeared: {:?} / {:?}",
            method.name(),
            rep1.hazards,
            rep4.hazards
        );
        assert_eq!(
            rep1.windows.len(),
            rep4.windows.len(),
            "{}: overlap-window count changed with thread count",
            method.name()
        );
        let (v1, v4) = (verify(&trace1, method, S), verify(&trace4, method, S));
        assert_eq!(
            format!("{v1:?}"),
            format!("{v4:?}"),
            "{}: structure verdicts changed with thread count",
            method.name()
        );
        assert!(
            v1.is_empty(),
            "{}: structure violations: {v1:?}",
            method.name()
        );
    }
    pscg_par::set_global_threads(1);
}
