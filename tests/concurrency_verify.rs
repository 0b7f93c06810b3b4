//! Acceptance bar for the vector-clock race detector (`pscg-check`): every
//! shipped method's kernel schedule must be race-free as observed through
//! the par engine's sync traces, at one thread and at four — and the
//! detector must not be vacuous: a hand-built unsynchronized trace and an
//! overlapping-`DisjointMut` schedule must both be flagged.
//!
//! The recording log, the chunk knobs, and the global pool are
//! process-global, so the solver sweep lives in **one** test function
//! (this file is its own test binary; other test files run in separate
//! processes). The synthetic-trace tests construct `SyncTrace` values
//! directly and touch no global state.

use pipescg::methods::MethodKind;
use pipescg::solver::SolveOptions;
use pscg_check::detect_races;
use pscg_par::sync_trace::{self, SyncEvent, SyncRecord, SyncTrace};
use pscg_par::{knobs, set_global_threads, Pool};
use pscg_precond::Jacobi;
use pscg_sim::SimCtx;
use pscg_sparse::dense::DenseMatrix;
use pscg_sparse::multivec::{fused_recurrence_step_with, GramPacketBuf, RecurrenceFamily};
use pscg_sparse::stencil::{poisson3d_7pt, Grid3};
use pscg_sparse::MultiVector;

const S: usize = 4;

/// Every method × {1, 4} kernel threads: zero races, and at four threads
/// the pool protocol must actually appear in the trace (otherwise the
/// sweep silently degenerated to the inline path and verified nothing).
#[test]
fn every_method_is_race_free_at_one_and_four_threads() {
    // Small chunks so a 1000-row problem splits into many parallel jobs.
    // Pinned before the first SpMV: the CSR partition caches on first use.
    knobs::set_spmv_chunk_nnz(512);
    knobs::set_gram_chunk_rows(128);
    let g = Grid3::cube(10);
    let a = poisson3d_7pt(g, None);
    let b = a.mul_vec(&vec![1.0; a.nrows()]);
    // A few passes exercise every kernel; the detector's pair scan is
    // quadratic per buffer, so the window stays short.
    let mut opts = SolveOptions::with_rtol(1e-10).with_s(S);
    opts.max_iters = 4 * S;

    for threads in [1usize, 4] {
        set_global_threads(threads);
        for method in MethodKind::ALL {
            sync_trace::drain();
            sync_trace::set_enabled(true);
            let mut ctx = SimCtx::serial(&a, Box::new(Jacobi::new(&a)));
            method.solve(&mut ctx, &b, None, &opts);
            sync_trace::set_enabled(false);
            let trace = sync_trace::drain();
            assert!(
                !trace.records.is_empty(),
                "{} @{threads}t: instrumentation recorded nothing",
                method.name()
            );
            if threads > 1 {
                assert!(
                    trace
                        .records
                        .iter()
                        .any(|r| matches!(r.event, SyncEvent::EpochPublish { .. })),
                    "{} @{threads}t: no parallel dispatch observed",
                    method.name()
                );
            }
            let report = detect_races(&trace);
            assert!(
                !report.cyclic,
                "{} @{threads}t: cyclic sync trace",
                method.name()
            );
            assert!(
                report.races.is_empty(),
                "{} @{threads}t: {} race(s), first: {}",
                method.name(),
                report.races.len(),
                report.races[0]
            );
        }
    }
    set_global_threads(1);

    // The fused recurrence pass on its own, so its accesses cannot hide
    // among the other kernels' (it lives in this test because the recording
    // log is process-global): every block is updated in place, so each must
    // show up both as a read and as a write, by row range, and the schedule
    // must be race-free — while one read widened by a row is a race.
    fused_recurrence_pass_is_traced_and_race_free();
}

fn fused_recurrence_pass_is_traced_and_race_free() {
    let (n, s) = (1000, S);
    let block = |ncols: usize| {
        let mut m = MultiVector::zeros(n, ncols);
        for (i, v) in m.data_mut().iter_mut().enumerate() {
            *v = (i % 13) as f64 * 0.25 - 1.0;
        }
        m
    };
    let blocks = || (0..=s).map(|_| block(s)).collect::<Vec<_>>();
    let (mut pow, mut dirs, mut apow) = (block(2 * s + 1), block(s), blocks());
    let mut b = DenseMatrix::zeros(s, s);
    (0..s).for_each(|i| b.set(i, (i + 1) % s, 0.5));
    let alpha = vec![0.25; s];

    let addr = |m: &MultiVector| m.data().as_ptr() as u64;
    let in_place: Vec<u64> = [&pow, &dirs].into_iter().chain(&apow).map(addr).collect();
    let pow_addr = addr(&pow);

    sync_trace::drain();
    sync_trace::set_enabled(true);
    fused_recurrence_step_with(
        &Pool::new(4),
        &mut [RecurrenceFamily {
            pow: &mut pow,
            dirs: &mut dirs,
            apow: &mut apow,
        }],
        &b,
        &alpha,
        true,
        &mut GramPacketBuf::new(s),
    );
    sync_trace::set_enabled(false);
    let trace = sync_trace::drain();

    let seen = |want_write: bool, buf: u64| {
        trace.records.iter().any(|r| match r.event {
            SyncEvent::BufRead { buf: b, .. } => !want_write && b == buf,
            SyncEvent::BufWrite { buf: b, .. } => want_write && b == buf,
            _ => false,
        })
    };
    assert!(
        in_place.iter().all(|&buf| seen(false, buf)),
        "fused pass: a block was never recorded as read"
    );
    assert!(
        in_place.iter().all(|&buf| seen(true, buf)),
        "fused pass: a block was never recorded as written"
    );
    assert!(
        trace
            .records
            .iter()
            .any(|r| matches!(r.event, SyncEvent::EpochPublish { njobs, .. } if njobs > 1)),
        "fused pass: no parallel dispatch observed"
    );
    let report = detect_races(&trace);
    assert!(!report.cyclic, "fused pass: cyclic sync trace");
    assert!(
        report.races.is_empty(),
        "fused pass: {} race(s), first: {}",
        report.races.len(),
        report.races[0]
    );

    // Plant: the first job's read of the first basis column reaches one row
    // into the second job's chunk, which that job rewrites in the shift.
    // The second job's records are moved to a thread of their own — a
    // schedule the pool could have produced — so the verdict does not hang
    // on which worker happened to claim it.
    let mut planted = trace;
    let mut in_job_one: Vec<u64> = Vec::new();
    for r in &mut planted.records {
        if let SyncEvent::ClaimAcquire { index: 1, .. } = r.event {
            in_job_one.push(r.thread);
        }
        let finished = matches!(r.event, SyncEvent::FinishIndex { .. });
        if in_job_one.contains(&r.thread) {
            if finished {
                in_job_one.retain(|&t| t != r.thread);
            }
            r.thread = u64::MAX;
        }
    }
    let widened = planted
        .records
        .iter_mut()
        .find_map(|r| match &mut r.event {
            SyncEvent::BufRead { buf, lo: 0, hi } if *buf == pow_addr => Some(hi),
            _ => None,
        })
        .expect("fused pass: no read of the first rows of the basis");
    *widened += 1;
    let report = detect_races(&planted);
    assert!(!report.cyclic, "planted trace: cyclic sync trace");
    assert!(
        report
            .races
            .iter()
            .any(|r| r.buf == pow_addr && r.first.write != r.second.write),
        "fused pass: a read overlapping a neighbour's rows was not flagged"
    );
}

/// Negative control: two threads writing overlapping ranges with no
/// synchronization events at all must be reported.
#[test]
fn unsynchronized_trace_is_flagged() {
    let trace = SyncTrace {
        records: vec![
            SyncRecord {
                thread: 0,
                event: SyncEvent::BufWrite {
                    buf: 0xdead,
                    lo: 0,
                    hi: 16,
                },
            },
            SyncRecord {
                thread: 1,
                event: SyncEvent::BufWrite {
                    buf: 0xdead,
                    lo: 8,
                    hi: 24,
                },
            },
        ],
    };
    let report = detect_races(&trace);
    assert!(
        !report.races.is_empty(),
        "detector missed a textbook unsynchronized write/write pair"
    );
}

/// Negative control with full protocol context: a properly dispatched job
/// whose two chunk closures violate the `DisjointMut` contract (their
/// ranges overlap) must still be flagged — claims order the claim events,
/// not the closure bodies.
#[test]
fn overlapping_disjoint_mut_ranges_are_flagged_despite_the_protocol() {
    let rec = |thread, event| SyncRecord { thread, event };
    let trace = SyncTrace {
        records: vec![
            rec(
                0,
                SyncEvent::EpochPublish {
                    pool: 1,
                    epoch: 1,
                    njobs: 2,
                },
            ),
            rec(
                0,
                SyncEvent::ClaimAcquire {
                    pool: 1,
                    epoch: 1,
                    index: 0,
                },
            ),
            rec(
                0,
                SyncEvent::BufWrite {
                    buf: 0xbeef,
                    lo: 0,
                    hi: 10,
                },
            ),
            rec(
                0,
                SyncEvent::FinishIndex {
                    pool: 1,
                    epoch: 1,
                    done_after: 1,
                },
            ),
            rec(
                1,
                SyncEvent::ClaimAcquire {
                    pool: 1,
                    epoch: 1,
                    index: 1,
                },
            ),
            rec(
                1,
                SyncEvent::BufWrite {
                    buf: 0xbeef,
                    lo: 9,
                    hi: 20,
                },
            ),
            rec(
                1,
                SyncEvent::FinishIndex {
                    pool: 1,
                    epoch: 1,
                    done_after: 2,
                },
            ),
            rec(0, SyncEvent::PoolJoin { pool: 1, epoch: 1 }),
        ],
    };
    let report = detect_races(&trace);
    assert_eq!(
        report.races.len(),
        1,
        "expected exactly the overlapping-chunk race, got {:?}",
        report.races
    );
    assert!(report.races[0].first.write && report.races[0].second.write);
}

/// The exhaustive model checker also runs here so tier-1 covers it
/// without the `--verify-concurrency` driver: the shipped protocol must
/// verify at every bounded configuration.
#[test]
fn dispatch_protocol_model_checks_clean() {
    for report in pscg_check::check_all(pscg_check::Variant::Correct) {
        assert!(
            report.ok(),
            "{}: {:?} ({} states)",
            report.scenario,
            report.findings,
            report.states
        );
    }
}
