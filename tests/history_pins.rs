//! Cross-commit pins: what every method computes, bit for bit.
//!
//! No other test compares results *across commits* — the determinism suites
//! compare a run with another run of the same build. This one pins, for all
//! eleven methods on one small integer-data problem (7-point Poisson 8³,
//! integer `x*`, s = 3; nothing in the set-up touches libm), the
//! stop reason and a 64-bit hash of everything else a refactor of the method
//! loops must leave alone: the iteration count, the residual history and
//! the solution bit for bit, every counter, the recovery log, and the traced
//! operation sequence (`BufId`s masked, as in `fault_inert`). The stop
//! reason is pinned beside the hash, not in it, so a relabelled exit shows
//! as exactly that.
//!
//! Seven scenarios per method, the first five under Jacobi: a clean solve;
//! an unreachable tolerance (the
//! s-step recurrences end in breakdown, stagnation handoff or `max_iters`);
//! a rank death mid-solve with checkpoints armed (`RankFailed`, and a
//! rollback on the way out); a NaN preconditioner output plus an over-budget
//! delayed completion with drift probes armed (`Breakdown` / `CommFault`);
//! and a NaN in one reduction payload, which for the s-step methods lands
//! in the Gram block and fails the scalar work behind a finite residual.
//! The last two are clean solves under geometric (`MG`) and
//! smoothed-aggregation (`GAMG`) multigrid, which both build two levels on
//! this grid, so a change to the V-cycle shows here too.
//!
//! A pin may only change in a commit that says why. Run under
//! `PSCG_THREADS=1` and `PSCG_THREADS=4` the table is also a
//! cross-thread-count determinism gate.

use pipescg::methods::MethodKind;
use pipescg::solver::{Resilience, SolveOptions};
use pscg_fault::{FaultAction, FaultPlan, FaultSite};
use pscg_precond::PcKind;
use pscg_sim::{Layout, MatrixProfile, SimCtx};
use pscg_sparse::stencil::{poisson3d_7pt, Grid3};

const SCENARIOS: [&str; 7] = [
    "clean",
    "tight",
    "rank-dead",
    "pc-nan+late-wait",
    "reduce-nan",
    "mg-clean",
    "gamg-clean",
];

/// `(stop, hash)` per scenario (rows) and method (columns, `MethodKind::ALL` order).
const PINS: [[(&str, u64); 11]; 7] = [
    // clean
    [
        ("Converged", 0x9a8322e15154ef0e), // PCG
        ("Converged", 0xacd59b11d2b38819), // PIPECG
        ("Converged", 0xcf33ad3457aeebf6), // PIPECG3
        ("Converged", 0xecd3b80f8a805a48), // PIPECG-OATI
        ("Converged", 0xcede383721fb6c67), // sCG
        ("Converged", 0x0d7bb681e87249c5), // sCG-sSPMV
        ("Converged", 0x6effea0966627b05), // PsCG
        ("Converged", 0x693f3e54724ba400), // PIPE-sCG
        ("Converged", 0x07a292027bf1d56c), // PIPE-PsCG
        ("Converged", 0x719efcaf0640ccb4), // Hybrid-pipelined
        ("Converged", 0xc0e3ca21accc211a), // CG3
    ],
    // tight
    [
        ("Converged", 0x23bd0dd227a730f6),     // PCG
        ("Converged", 0xb51967e2ba465104),     // PIPECG
        ("Breakdown", 0x17494704bd7f8aa9),     // PIPECG3
        ("Breakdown", 0x00d67b2822eeb705),     // PIPECG-OATI
        ("MaxIterations", 0x07a6f8f12d9997cf), // sCG
        ("Converged", 0xe71431591d3a04b0),     // sCG-sSPMV
        ("Converged", 0x5abf34b6d75ccc81),     // PsCG
        ("Breakdown", 0x5a5de9f2a47b1e7f),     // PIPE-sCG
        ("Breakdown", 0xb8511ec6e4611b65),     // PIPE-PsCG
        ("Converged", 0x8186b6e909ddadbb),     // Hybrid-pipelined
        ("Converged", 0xd7dc4a2eed3d8ab7),     // CG3
    ],
    // rank-dead
    [
        ("RankFailed", 0xaa57ebe34297b97b), // PCG
        ("RankFailed", 0xcf173904d62b8562), // PIPECG
        ("RankFailed", 0xe5dba77b15e67b68), // PIPECG3
        ("RankFailed", 0x8dd068a00f590a5b), // PIPECG-OATI
        ("RankFailed", 0x1969356e20fbc5d4), // sCG
        ("RankFailed", 0x505d021b859f9445), // sCG-sSPMV
        ("RankFailed", 0x08479b901717f110), // PsCG
        ("RankFailed", 0x04772126be4a9a7e), // PIPE-sCG
        ("RankFailed", 0x8d500118d4755ae3), // PIPE-PsCG
        ("RankFailed", 0xe288fc1ec47a2dbb), // Hybrid-pipelined
        ("RankFailed", 0xefcc0991c22a1c23), // CG3
    ],
    // pc-nan+late-wait
    [
        ("Breakdown", 0xe316fddfa29d7651), // PCG
        ("CommFault", 0x0fc158981d435218), // PIPECG
        ("CommFault", 0x82187422ce6dfad3), // PIPECG3
        ("CommFault", 0x78cfffd149281f18), // PIPECG-OATI
        ("Converged", 0xa8e08958ae185747), // sCG
        ("Converged", 0x689c2403ed2290d5), // sCG-sSPMV
        ("Converged", 0x73e435dc6dc20283), // PsCG
        ("CommFault", 0x2b6b4b2c43704c2c), // PIPE-sCG
        ("CommFault", 0xeb6d79c59e704b72), // PIPE-PsCG
        ("CommFault", 0xfe9cb4f31f29cdea), // Hybrid-pipelined
        ("Breakdown", 0x3cafaf11ab4f5486), // CG3
    ],
    // reduce-nan
    [
        ("Breakdown", 0x8476acdd3c1d08ed), // PCG
        ("Breakdown", 0x1c1c96fc08a72184), // PIPECG
        ("Breakdown", 0x1f3e4bbf510c1505), // PIPECG3
        ("Breakdown", 0xf298eac48b5ba029), // PIPECG-OATI
        ("Breakdown", 0xb8389898b9846bd8), // sCG
        ("Breakdown", 0xf4ae8983905a184f), // sCG-sSPMV
        ("Breakdown", 0x15c90575eb32fb2a), // PsCG
        ("Breakdown", 0x3434acf4fbba4325), // PIPE-sCG
        ("Breakdown", 0x1d591291274f8059), // PIPE-PsCG
        ("Converged", 0x476fd901e3dbd78d), // Hybrid-pipelined
        ("Breakdown", 0x5cfaff2db6558380), // CG3
    ],
    // mg-clean
    [
        ("Converged", 0x6257d5c6bb108ada), // PCG
        ("Converged", 0x225878bac585d95a), // PIPECG
        ("Converged", 0x661ab5a7a3046350), // PIPECG3
        ("Converged", 0x98d6b7d407461a86), // PIPECG-OATI
        ("Converged", 0x5ea3cd5d9362e5e2), // sCG
        ("Converged", 0xd63554d33602f206), // sCG-sSPMV
        ("Converged", 0xf6f3c5d9cc9c20ac), // PsCG
        ("Converged", 0x453a868017958045), // PIPE-sCG
        ("Converged", 0x9236b4a94ee95d80), // PIPE-PsCG
        ("Converged", 0x932bbbbe28b77f48), // Hybrid-pipelined
        ("Converged", 0x9e7787f993276f54), // CG3
    ],
    // gamg-clean
    [
        ("Converged", 0x770e0b20d0e3492b), // PCG
        ("Converged", 0x59e0c1f0fca5b220), // PIPECG
        ("Converged", 0xe830b1a3d5e1f69d), // PIPECG3
        ("Converged", 0x259d8b13cedc51e7), // PIPECG-OATI
        ("Converged", 0x30d92f509022d7aa), // sCG
        ("Converged", 0x971612a53c37387d), // sCG-sSPMV
        ("Converged", 0x60b45851ad64c32f), // PsCG
        ("Converged", 0xea433ace27fed92d), // PIPE-sCG
        ("Converged", 0x3ff2e031a4f2155a), // PIPE-PsCG
        ("Converged", 0x8a38d5e7a8c37362), // Hybrid-pipelined
        ("Converged", 0x2b9441b99b50f242), // CG3
    ],
];

/// FNV-1a over 64-bit words.
struct Fnv(u64);

impl Fnv {
    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn text(&mut self, s: &str) {
        self.word(s.len() as u64);
        s.bytes().for_each(|b| self.word(u64::from(b)));
    }

    fn floats(&mut self, v: &[f64]) {
        self.word(v.len() as u64);
        v.iter().for_each(|x| self.word(x.to_bits()));
    }
}

/// `op`'s debug rendering with interned buffer ids masked (`BufId(0)`, the
/// anonymous buffer, is structural and kept).
fn op_shape(op: &pscg_sim::Op) -> String {
    let s = format!("{op:?}");
    let mut out = String::new();
    let mut rest = s.as_str();
    while let Some(pos) = rest.find("BufId(") {
        out.push_str(&rest[..pos + 6]);
        rest = &rest[pos + 6..];
        let end = rest.find(')').expect("BufId debug form");
        out.push(if &rest[..end] == "0" { '0' } else { '_' });
        rest = &rest[end..];
    }
    out.push_str(rest);
    out
}

fn options(scenario: &str) -> (SolveOptions, Option<FaultPlan>) {
    let checkpoints = Resilience {
        checkpoint_every: 2,
        ..Resilience::default()
    };
    let probes = Resilience {
        drift_check_every: 3,
        ..checkpoints
    };
    let base = SolveOptions::with_rtol(1e-6).with_s(3);
    match scenario {
        "clean" | "mg-clean" | "gamg-clean" => (base, None),
        "tight" => (
            SolveOptions {
                rtol: 1e-15,
                atol: 0.0,
                max_iters: 240,
                ..base
            },
            None,
        ),
        "rank-dead" => (
            base.with_resilience(checkpoints),
            Some(FaultPlan::new(16).with_rank_dead(2, 9)),
        ),
        "pc-nan+late-wait" => (
            base.with_resilience(probes),
            Some(
                FaultPlan::new(16)
                    .with(FaultSite::Pc, 12, FaultAction::Nan)
                    .with(FaultSite::Wait, 3, FaultAction::Delay { ticks: 5 }),
            ),
        ),
        "reduce-nan" => (
            base.with_resilience(checkpoints),
            Some(FaultPlan::new(16).with(FaultSite::Reduce, 5, FaultAction::Nan)),
        ),
        other => unreachable!("unknown scenario {other}"),
    }
}

fn run(method: MethodKind, scenario: &str) -> (&'static str, u64) {
    let grid = Grid3::cube(8);
    let a = poisson3d_7pt(grid, None);
    let xstar: Vec<f64> = (0..a.nrows()).map(|i| (i % 7) as f64 - 3.0).collect();
    let b = a.mul_vec(&xstar);
    let prof = MatrixProfile::stencil3d(8, 8, 8, 1, a.nnz(), Layout::Box);
    let pc = match scenario {
        "mg-clean" => PcKind::Mg.build(&a, Some(grid)),
        "gamg-clean" => PcKind::Gamg.build(&a, None),
        _ => PcKind::Jacobi.build(&a, None),
    };
    let mut ctx = SimCtx::traced(&a, pc, prof);
    let (opts, plan) = options(scenario);
    if let Some(plan) = plan {
        ctx.arm_faults(plan);
    }
    let res = method.solve(&mut ctx, &b, None, &opts);

    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    h.text(res.method);
    h.word(res.iterations as u64);
    h.floats(&res.history);
    h.word(res.final_relres.to_bits());
    h.floats(&res.x);
    let c = res.counters;
    for w in [
        c.spmv,
        c.mpk,
        c.pc,
        c.blocking_allreduce,
        c.nonblocking_allreduce,
        c.reduced_doubles,
        c.vectors_allocated as u64,
    ] {
        h.word(w);
    }
    h.floats(&[c.vma_flops, c.dot_flops, c.scalar_flops]);
    let log = ctx.take_recovery_log();
    h.word(log.len() as u64);
    log.iter().for_each(|&code| h.word(code));
    let trace = ctx.take_trace().expect("traced context");
    h.word(trace.ops.len() as u64);
    trace.ops.iter().for_each(|op| h.text(&op_shape(op)));
    (res.stop.name(), h.0)
}

#[test]
fn every_method_reproduces_its_pinned_solve() {
    // Chunks small enough that the kernels genuinely split on 512 rows.
    pscg_par::knobs::set_spmv_chunk_nnz(256);
    pscg_par::knobs::set_gram_chunk_rows(64);
    let got: Vec<Vec<(&str, u64)>> = SCENARIOS
        .iter()
        .map(|sc| MethodKind::ALL.iter().map(|&m| run(m, sc)).collect())
        .collect();
    let same = got
        .iter()
        .zip(&PINS)
        .all(|(g, p)| g.as_slice() == p.as_slice());
    if !same {
        let mut table = String::new();
        for (sc, row) in SCENARIOS.iter().zip(&got) {
            table.push_str(&format!("    // {sc}\n    [\n"));
            for (m, (stop, hash)) in MethodKind::ALL.iter().zip(row) {
                table.push_str(&format!(
                    "        ({stop:?}, {hash:#018x}), // {}\n",
                    m.name()
                ));
            }
            table.push_str("    ],\n");
        }
        for (si, sc) in SCENARIOS.iter().enumerate() {
            for (mi, m) in MethodKind::ALL.iter().enumerate() {
                if got[si][mi] != PINS[si][mi] {
                    eprintln!(
                        "{sc} / {}: pinned {:?}, got {:?}",
                        m.name(),
                        PINS[si][mi],
                        got[si][mi]
                    );
                }
            }
        }
        panic!("solves moved off their pins; the table this build computes:\n{table}");
    }
}

/// The scenarios reach the exits they are there for.
#[test]
fn scenarios_cover_the_failing_exits() {
    let stops = |si: usize| PINS[si].iter().map(|p| p.0).collect::<Vec<_>>();
    assert!(stops(0).iter().all(|s| *s == "Converged"));
    let pipe_pscg = MethodKind::ALL
        .iter()
        .position(|m| *m == MethodKind::PipePscg)
        .expect("PIPE-PsCG is a method");
    assert_ne!(stops(1)[pipe_pscg], "Converged");
    assert!(stops(2).iter().all(|s| *s == "RankFailed"));
    assert!(stops(3).contains(&"CommFault") && stops(3).contains(&"Breakdown"));
    assert!(stops(5).iter().chain(&stops(6)).all(|s| *s == "Converged"));
}
