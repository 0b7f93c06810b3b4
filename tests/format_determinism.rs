//! Determinism contract of the SpMV storage formats (DESIGN.md §12): the
//! format knob is a pure performance dial. Every format must produce
//! **bitwise** the same solves as the CSR 1-thread reference, at every
//! thread count, for every shipped method — because each format keeps the
//! per-row ascending-column accumulation order and derives its chunk
//! boundaries from structure + knobs only, never from the pool width.
//!
//! The chunk knobs are pinned small here so the 8³ test problem really
//! splits: the SELL-C-σ scatter path, the symmetric two-phase reduction
//! and the 4-row CSR kernel all run multi-chunk at 4 threads.
//! Every test function installs the *same* knob values, so the
//! process-global settings are race-free under the parallel test runner;
//! the one test that sweeps the *format* knob is the knob's only writer
//! in this binary (the symmetric property tests below call
//! [`SymCsrMatrix`] directly and compare against a hand-rolled scalar
//! CSR reference, so they never read the format knob at all).
//!
//! The same sweep anchors the fused recurrence pass of the pipelined s-step
//! methods: their scalar-CSR reference must equal a solve through the
//! unfused sequence the pass replaced ([`common::Unfused`]), so every
//! format × thread cell is transitively compared against the old kernels.

mod common;

use common::Unfused;
use pipescg::methods::MethodKind;
use pipescg::solver::{SolveOptions, SolveResult};
use pscg_par::{knobs, Pool};
use pscg_precond::PcKind;
use pscg_sim::SimCtx;
use pscg_sparse::stencil::{poisson3d_27pt, poisson3d_7pt, Grid3};
use pscg_sparse::{
    set_spmv_format, CooMatrix, CsrMatrix, SparseError, SplitMix64, SpmvFormat, SymCsrMatrix,
};

/// Pins the chunk knobs small enough that the 512-row problems below split
/// into many chunks (and the symmetric kernel takes its two-phase scatter
/// path). Idempotent — every test installs the same values.
fn pin_knobs() {
    knobs::set_spmv_chunk_nnz(256);
    knobs::set_gram_chunk_rows(64);
    knobs::set_sym_chunk_nnz(512);
    knobs::set_sell_sigma(32);
}

fn all_methods() -> [MethodKind; 11] {
    [
        MethodKind::Pcg,
        MethodKind::Pipecg,
        MethodKind::Pipecg3,
        MethodKind::PipecgOati,
        MethodKind::Scg,
        MethodKind::ScgSspmv,
        MethodKind::Pscg,
        MethodKind::PipeScg,
        MethodKind::PipePscg,
        MethodKind::Hybrid,
        MethodKind::Cg3,
    ]
}

/// One solve on the 8³ Poisson problem, through the fused recurrence pass
/// or through the unfused oracle. The format/thread choice is whatever is
/// currently installed globally.
fn solve(method: MethodKind, a: &CsrMatrix, b: &[f64], fused: bool) -> SolveResult {
    let ctx = SimCtx::serial(a, PcKind::Jacobi.build(a, None));
    let opts = SolveOptions {
        rtol: 1e-6,
        s: 3,
        max_iters: 10_000,
        ..Default::default()
    };
    let res = if fused {
        let mut ctx = ctx;
        method.solve(&mut ctx, b, None, &opts)
    } else {
        method.solve(&mut Unfused(ctx), b, None, &opts)
    };
    assert!(res.converged(), "{} did not converge", method.name());
    res
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|r| r.to_bits()).collect()
}

/// [`solve`] through the fused pass; returns (history bits, x bits).
fn run(method: MethodKind, a: &CsrMatrix, b: &[f64]) -> (Vec<u64>, Vec<u64>) {
    let res = solve(method, a, b, true);
    (bits(&res.history), bits(&res.x))
}

/// Every method × the three formats × {1, 4} threads: all bitwise equal to
/// the CSR 1-thread reference. A single `#[test]` keeps the global
/// format/thread settings single-writer.
#[test]
fn every_method_is_bitwise_invariant_across_formats_and_threads() {
    pin_knobs();
    assert_eq!(SpmvFormat::ALL.len(), 3);
    let a = poisson3d_7pt(Grid3::cube(8), None);
    let b = a.mul_vec(&vec![1.0; a.nrows()]);

    for method in all_methods() {
        set_spmv_format(SpmvFormat::Csr);
        pscg_par::set_global_threads(1);
        let reference = solve(method, &a, &b, true);
        let (hist_ref, x_ref) = (bits(&reference.history), bits(&reference.x));

        // The methods whose recurrence phase is the fused pass: the
        // reference must be what the unfused kernels compute and charge.
        if matches!(
            method,
            MethodKind::PipeScg
                | MethodKind::PipePscg
                | MethodKind::Pipecg3
                | MethodKind::PipecgOati
                | MethodKind::Hybrid
        ) {
            let unfused = solve(method, &a, &b, false);
            assert_eq!(
                (&hist_ref, &x_ref, reference.stop, reference.counters),
                (
                    &bits(&unfused.history),
                    &bits(&unfused.x),
                    unfused.stop,
                    unfused.counters
                ),
                "{}: fused recurrence pass differs from the unfused sequence",
                method.name()
            );
        }

        for fmt in SpmvFormat::ALL {
            for threads in [1usize, 4] {
                if fmt == SpmvFormat::Csr && threads == 1 {
                    continue; // the reference itself
                }
                set_spmv_format(fmt);
                pscg_par::set_global_threads(threads);
                let (hist, x) = run(method, &a, &b);
                assert_eq!(
                    hist_ref,
                    hist,
                    "{}: residual history diverged under {fmt} at {threads} threads",
                    method.name()
                );
                assert_eq!(
                    x_ref,
                    x,
                    "{}: solution diverged under {fmt} at {threads} threads",
                    method.name()
                );
            }
        }
    }
    set_spmv_format(SpmvFormat::Csr);
    pscg_par::set_global_threads(1);
}

/// Hand-rolled scalar CSR SpMV: the knob-free bitwise reference (same
/// ascending-column per-row accumulation as `CsrMatrix::spmv` under the
/// default format).
fn scalar_spmv(a: &CsrMatrix, x: &[f64]) -> Vec<f64> {
    let (rp, ci, vs) = (a.row_ptr(), a.col_idx(), a.vals());
    (0..a.nrows())
        .map(|r| {
            let mut acc = 0.0;
            for k in rp[r]..rp[r + 1] {
                acc += vs[k] * x[ci[k] as usize];
            }
            acc
        })
        .collect()
}

/// Seeded SPD stencil variants: the 7-pt and 27-pt Poisson operators with
/// random symmetric value perturbations (mirror entries get the *same*
/// bits, so the matrices stay exactly symmetric).
fn spd_stencils(rng: &mut SplitMix64) -> Vec<CsrMatrix> {
    let mut out = vec![
        poisson3d_7pt(Grid3::cube(8), None),
        poisson3d_27pt(Grid3::new(7, 6, 5)),
    ];
    for a in &mut out {
        // Symmetric scaling D·A·D with a random positive diagonal keeps the
        // matrix SPD while de-structuring the constant stencil values. The
        // factors are multiplied in index-sorted order so the (r,c) and
        // (c,r) entries evaluate the *same* rounded expression — exact
        // (bitwise) symmetry is what `try_from_csr` demands.
        let d: Vec<f64> = (0..a.nrows()).map(|_| rng.uniform(0.5, 2.0)).collect();
        let (rp, ci): (Vec<usize>, Vec<u32>) = (a.row_ptr().to_vec(), a.col_idx().to_vec());
        let vals = a.vals_mut();
        for r in 0..rp.len() - 1 {
            for k in rp[r]..rp[r + 1] {
                let c = ci[k] as usize;
                let (lo, hi) = (r.min(c), r.max(c));
                vals[k] = d[lo] * vals[k] * d[hi];
            }
        }
    }
    out
}

/// Property: `sym_spmv(A, x) == spmv(A, x)` **bitwise**, at 1 and 4
/// threads, on seeded SPD stencils. The symmetric kernel stores only the
/// upper triangle and reduces the scatter contributions through the
/// slot-ordered two-phase path (forced multi-chunk by `pin_knobs`), yet
/// must reproduce the scalar gather sum exactly.
#[test]
fn symmetric_spmv_matches_csr_bitwise_on_spd_stencils() {
    pin_knobs();
    let mut rng = SplitMix64::new(0x5e11_c516);
    for a in spd_stencils(&mut rng) {
        let sym = SymCsrMatrix::try_from_csr(&a).expect("stencil is exactly symmetric");
        assert_eq!(sym.logical_nnz(), a.nnz());
        assert!(sym.stored_nnz() < a.nnz(), "triangle must halve storage");
        let x: Vec<f64> = (0..a.nrows()).map(|_| rng.uniform(-1.0, 1.0)).collect();
        let reference = scalar_spmv(&a, &x);
        for threads in [1usize, 4] {
            let mut y = vec![f64::NAN; a.nrows()];
            sym.spmv_with(&Pool::new(threads), &x, &mut y);
            assert_eq!(
                reference.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                y.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                "sym spmv diverged from CSR at {threads} threads on n = {}",
                a.nrows()
            );
        }
    }
}

/// Negative: a structurally or numerically asymmetric matrix is rejected
/// with the typed [`SparseError::NotSymmetric`] naming a witness entry.
#[test]
fn non_symmetric_input_is_rejected_with_a_typed_error() {
    pin_knobs();
    // Structural asymmetry: (0,2) stored, (2,0) absent.
    let mut coo = CooMatrix::new(3, 3);
    for i in 0..3 {
        coo.push(i, i, 2.0).unwrap();
    }
    coo.push(0, 2, 1.0).unwrap();
    let a = coo.to_csr().unwrap();
    match SymCsrMatrix::try_from_csr(&a) {
        Err(SparseError::NotSymmetric { row: 0, col: 2 }) => {}
        other => panic!("expected NotSymmetric {{0, 2}}, got {other:?}"),
    }

    // Numerical asymmetry: mirror entries present but with different bits.
    let mut coo = CooMatrix::new(2, 2);
    coo.push(0, 0, 2.0).unwrap();
    coo.push(1, 1, 2.0).unwrap();
    coo.push(0, 1, 1.0).unwrap();
    coo.push(1, 0, f64::from_bits(1.0f64.to_bits() + 1))
        .unwrap();
    let a = coo.to_csr().unwrap();
    assert!(
        matches!(
            SymCsrMatrix::try_from_csr(&a),
            Err(SparseError::NotSymmetric { .. })
        ),
        "bitwise-unequal mirrors must be rejected"
    );

    // A rectangular matrix is a different typed error.
    let mut coo = CooMatrix::new(2, 3);
    coo.push(0, 0, 1.0).unwrap();
    let a = coo.to_csr().unwrap();
    assert!(matches!(
        SymCsrMatrix::try_from_csr(&a),
        Err(SparseError::NotSquare { nrows: 2, ncols: 3 })
    ));
}
