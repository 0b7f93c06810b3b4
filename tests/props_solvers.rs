//! Property-style tests on the solver family: on *random* SPD systems every
//! method must converge, agree with direct solution, and respect its
//! communication contract; the simulator must respect basic sanity
//! properties (monotonicity, overlap bounds).
//!
//! The environment is offline, so instead of proptest these sweep seeded
//! random inputs from [`pscg_sparse::SplitMix64`]; failures report the seed.

use pipescg::methods::MethodKind;
use pipescg::solver::SolveOptions;
use pscg_precond::Jacobi;
use pscg_sim::{replay, Layout, Machine, MatrixProfile, Op, OpTrace, SimCtx};
use pscg_sparse::{CooMatrix, CsrMatrix, SplitMix64};

/// Random symmetric strictly diagonally dominant (hence SPD) matrix.
fn spd_matrix(rng: &mut SplitMix64, max_n: usize) -> CsrMatrix {
    let n = 4 + rng.below(max_n.saturating_sub(4).max(1));
    let ntrips = n + rng.below(2 * n);
    let diag_scale = rng.uniform(1.0, 100.0);
    let mut coo = CooMatrix::new(n, n);
    for _ in 0..ntrips {
        let r = rng.below(n);
        let c = rng.below(n);
        if r != c {
            coo.push_sym(r, c, rng.uniform(-1.0, 1.0)).unwrap();
        }
    }
    for i in 0..n {
        coo.push(i, i, diag_scale * (6.0 + n as f64)).unwrap();
    }
    coo.to_csr().unwrap()
}

#[test]
fn all_methods_solve_random_spd_systems() {
    for seed in 0..24u64 {
        let mut rng = SplitMix64::new(seed);
        let a = spd_matrix(&mut rng, 40);
        let n = a.nrows();
        let xstar: Vec<f64> = (0..n)
            .map(|i| (((i as u64 * 131 + seed * 17) % 23) as f64 - 11.0) / 11.0)
            .collect();
        let b = a.mul_vec(&xstar);
        if pscg_sparse::kernels::norm2(&b) == 0.0 {
            continue;
        }
        for m in [
            MethodKind::Pcg,
            MethodKind::Pipecg,
            MethodKind::PipecgOati,
            MethodKind::Pscg,
            MethodKind::PipeScg,
            MethodKind::PipePscg,
            MethodKind::Hybrid,
        ] {
            let mut ctx = SimCtx::serial(&a, Box::new(Jacobi::new(&a)));
            let opts = SolveOptions {
                rtol: 1e-9,
                s: 3,
                max_iters: 2000,
                ..Default::default()
            };
            let res = m.solve(&mut ctx, &b, None, &opts);
            // The unpreconditioned pipelined recurrences are allowed to
            // break down gracefully on degenerate random systems (near-
            // identity operators give a rank-deficient monomial basis); the
            // published methods behave the same way — that is what the
            // hybrid exists for (§VI-B).
            if m == MethodKind::PipeScg && !res.converged() {
                assert!(
                    res.x.iter().all(|v| v.is_finite()),
                    "PIPE-sCG left garbage (seed {seed})"
                );
                continue;
            }
            assert!(
                res.converged(),
                "{} failed (seed {seed}): {:?}",
                m.name(),
                res.stop
            );
            let err = res
                .x
                .iter()
                .zip(&xstar)
                .map(|(p, q)| (p - q).abs())
                .fold(0.0f64, f64::max);
            assert!(err < 1e-5, "{}: max error {err} (seed {seed})", m.name());
        }
    }
}

#[test]
fn histories_are_finite_and_mostly_decreasing() {
    for seed in 0..24u64 {
        let a = spd_matrix(&mut SplitMix64::new(seed), 30);
        let b = a.mul_vec(&vec![1.0; a.nrows()]);
        let mut ctx = SimCtx::serial(&a, Box::new(Jacobi::new(&a)));
        let opts = SolveOptions {
            rtol: 1e-8,
            s: 3,
            ..Default::default()
        };
        let res = MethodKind::PipePscg.solve(&mut ctx, &b, None, &opts);
        assert!(res.converged(), "seed {seed}");
        for w in res.history.windows(2) {
            assert!(w[1].is_finite(), "seed {seed}");
            // CG residuals are not monotone, but they never explode on a
            // well-conditioned system.
            assert!(
                w[1] < w[0] * 100.0,
                "history spike (seed {seed}): {} -> {}",
                w[0],
                w[1]
            );
        }
    }
}

#[test]
fn replay_time_is_monotone_in_trace_length() {
    let mut rng = SplitMix64::new(0xAB);
    for _ in 0..12 {
        let n_ops = 1 + rng.below(39);
        let p = [1usize, 24, 240, 2880][rng.below(4)];
        // Appending operations never decreases total time.
        let mut trace = OpTrace::new(1_000_000);
        trace.register_matrix(MatrixProfile::stencil3d(
            100,
            100,
            100,
            2,
            124_000_000,
            Layout::Box,
        ));
        let machine = Machine::sahasrat();
        let mut last = 0.0;
        for i in 0..n_ops {
            trace.push(Op::spmv(0));
            if i % 3 == 0 {
                trace.push(Op::blocking(8));
            }
            let t = replay(&trace, &machine, p).total_time;
            assert!(t >= last, "p={p} n_ops={n_ops}");
            last = t;
        }
    }
}

#[test]
fn overlap_never_exceeds_total_allreduce() {
    for kernels_between in 0usize..8 {
        for p in [24usize, 480, 2880] {
            let mut trace = OpTrace::new(262_144);
            trace.register_matrix(MatrixProfile::stencil3d(
                64,
                64,
                64,
                2,
                32_000_000,
                Layout::Box,
            ));
            for i in 0..10u64 {
                trace.push(Op::post(i, 27));
                for _ in 0..kernels_between {
                    trace.push(Op::spmv(0));
                }
                trace.push(Op::wait(i));
            }
            let r = replay(&trace, &Machine::sahasrat(), p);
            assert!(r.allreduce_exposed >= 0.0);
            assert!(r.allreduce_exposed <= r.allreduce_total * (1.0 + 1e-12));
            let f = r.overlap_fraction();
            assert!((0.0..=1.0 + 1e-12).contains(&f));
            // More kernels inside the window can only hide more (weakly).
            if kernels_between > 0 {
                let mut empty = OpTrace::new(262_144);
                empty.register_matrix(MatrixProfile::stencil3d(
                    64,
                    64,
                    64,
                    2,
                    32_000_000,
                    Layout::Box,
                ));
                for i in 0..10u64 {
                    empty.push(Op::post(i, 27));
                    empty.push(Op::wait(i));
                }
                let r0 = replay(&empty, &Machine::sahasrat(), p);
                assert!(r.allreduce_exposed <= r0.allreduce_exposed + 1e-12);
            }
        }
    }
}

#[test]
fn allreduce_model_is_monotone() {
    let m = Machine::sahasrat();
    let mut rng = SplitMix64::new(0xCD);
    for _ in 0..64 {
        let p1 = 2 + rng.below(1998);
        let dp = 1 + rng.below(1999);
        let doubles = 1 + rng.below(511);
        let t1 = m.allreduce_time(p1, doubles);
        let t2 = m.allreduce_time(p1 + dp, doubles);
        assert!(
            t2 >= t1,
            "allreduce time decreased with ranks: {t1} -> {t2} (p1={p1} dp={dp})"
        );
        let t3 = m.allreduce_time(p1, doubles * 2);
        assert!(
            t3 >= t1,
            "allreduce time decreased with payload (p1={p1} doubles={doubles})"
        );
    }
}

#[test]
fn spmv_work_shrinks_with_ranks() {
    for nexp in [5usize, 6] {
        for p_small in [1usize, 8, 27] {
            let n = 1 << nexp; // 32 or 64 cube edge
            let prof = MatrixProfile::stencil3d(n, n, n, 2, n * n * n * 100, Layout::Box);
            let w1 = prof.work_at(p_small);
            let w2 = prof.work_at(p_small * 8);
            assert!(w2.local_rows <= w1.local_rows, "n={n} p={p_small}");
            assert!(w2.local_nnz <= w1.local_nnz, "n={n} p={p_small}");
        }
    }
}
