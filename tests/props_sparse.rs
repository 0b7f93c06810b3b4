//! Property-style tests on the sparse substrate: CSR structure, SpMV
//! algebra, transposition, sparse products, dense LU and the block kernels
//! the s-step recurrences are built from.
//!
//! The environment is offline, so instead of proptest these run each
//! property over a deterministic sweep of seeded random inputs drawn from
//! [`pscg_sparse::SplitMix64`]; failures report the seed so a case can be
//! replayed exactly.

use pscg_par::Pool;
use pscg_sparse::dense::DenseMatrix;
use pscg_sparse::{kernels, CooMatrix, CsrMatrix, MultiVector, SplitMix64};

/// A random sparse SPD-ish matrix built as `B + Bᵀ + c·I` from a random
/// sparse B — symmetric and strictly diagonally dominant.
fn spd_matrix(rng: &mut SplitMix64, max_n: usize) -> CsrMatrix {
    let n = 2 + rng.below(max_n.saturating_sub(2).max(1));
    let ntrips = rng.below(4 * n);
    let mut coo = CooMatrix::new(n, n);
    for _ in 0..ntrips {
        let r = rng.below(n);
        let c = rng.below(n);
        let v = rng.uniform(-1.0, 1.0);
        coo.push_sym(r, c, v).unwrap();
    }
    for i in 0..n {
        // Dominant diagonal: each row has at most ~8 entries of |v|<=1 from
        // the random triples (duplicates sum, so bound by count).
        coo.push(i, i, 4.0 * n as f64).unwrap();
    }
    coo.to_csr().unwrap()
}

/// A random ragged rectangular matrix from raw `u32`-indexed arrays: row
/// lengths from 0 (empty) to `ncols`, skewed short so blocks of four rows
/// rarely agree, each row a uniformly drawn ascending column subset.
fn ragged_matrix(rng: &mut SplitMix64) -> CsrMatrix {
    let nrows = 1 + rng.below(40);
    let ncols = 1 + rng.below(60);
    let mut row_ptr = vec![0usize];
    let (mut col_idx, mut vals) = (Vec::new(), Vec::new());
    for _ in 0..nrows {
        let mut need = match rng.below(4) {
            0 => 0,
            1 => 1,
            2 => rng.below(ncols.min(6) + 1),
            _ => rng.below(ncols + 1),
        }
        .min(ncols);
        for c in 0..ncols {
            if need > 0 && rng.below(ncols - c) < need {
                col_idx.push(c as u32);
                vals.push(rng.uniform(-2.0, 2.0));
                need -= 1;
            }
        }
        row_ptr.push(col_idx.len());
    }
    CsrMatrix::from_raw_parts(nrows, ncols, row_ptr, col_idx, vals).unwrap()
}

/// The one CSR kernel (four rows in lockstep + scalar tail) against a
/// hand-rolled one-chain-per-row loop: bitwise, on ragged matrices, for the
/// full product and odd `spmv_rows` windows, on pools of 1/2/4/7 threads.
#[test]
fn csr_kernel_is_bitwise_the_scalar_row_loop() {
    // Small chunks so the larger cases split across the pool; every test in
    // this binary computes the same bits at any chunking.
    pscg_par::knobs::set_spmv_chunk_nnz(97);
    let pools: Vec<Pool> = [1, 2, 4, 7].into_iter().map(Pool::new).collect();
    let bits = |v: &[f64]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
    for seed in 0..64u64 {
        let mut rng = SplitMix64::new(0xb10c ^ seed);
        let a = ragged_matrix(&mut rng);
        let x: Vec<f64> = (0..a.ncols()).map(|_| rng.uniform(-1.0, 1.0)).collect();
        let want: Vec<f64> = (0..a.nrows())
            .map(|r| {
                let mut acc = 0.0;
                for (k, &c) in a.row_cols(r).iter().enumerate() {
                    acc += a.row_vals(r)[k] * x[c as usize];
                }
                acc
            })
            .collect();
        let (lo, hi) = {
            let lo = rng.below(a.nrows());
            (lo, lo + rng.below(a.nrows() - lo + 1))
        };
        for pool in &pools {
            let mut y = vec![f64::NAN; a.nrows()];
            a.spmv_with(pool, &x, &mut y);
            assert_eq!(bits(&y), bits(&want), "seed {seed}");
            let mut part = vec![f64::NAN; hi - lo];
            a.spmv_rows_with(pool, lo, hi, &x, &mut part);
            assert_eq!(
                bits(&part),
                bits(&want[lo..hi]),
                "seed {seed} rows {lo}..{hi}"
            );
        }
    }
}

#[test]
fn csr_roundtrips_through_matrix_market() {
    for seed in 0..48u64 {
        let a = spd_matrix(&mut SplitMix64::new(seed), 12);
        let mut buf = Vec::new();
        pscg_sparse::io::write_matrix_market(&a, &mut buf).unwrap();
        let b = pscg_sparse::io::read_matrix_market(buf.as_slice()).unwrap();
        assert_eq!(a, b, "seed {seed}");
    }
}

#[test]
fn spmv_is_linear() {
    for seed in 0..48u64 {
        let mut rng = SplitMix64::new(seed);
        let a = spd_matrix(&mut rng, 12);
        let (s1, s2) = (rng.uniform(-3.0, 3.0), rng.uniform(-3.0, 3.0));
        let n = a.nrows();
        let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.7).sin()).collect();
        let y: Vec<f64> = (0..n).map(|i| (i as f64 * 1.3).cos()).collect();
        // A(s1 x + s2 y) == s1 Ax + s2 Ay
        let mut combo = vec![0.0; n];
        for i in 0..n {
            combo[i] = s1 * x[i] + s2 * y[i];
        }
        let lhs = a.mul_vec(&combo);
        let ax = a.mul_vec(&x);
        let ay = a.mul_vec(&y);
        for i in 0..n {
            let rhs = s1 * ax[i] + s2 * ay[i];
            assert!(
                (lhs[i] - rhs).abs() <= 1e-9 * (1.0 + rhs.abs()),
                "seed {seed}"
            );
        }
    }
}

#[test]
fn transpose_preserves_spmv_adjoint() {
    for seed in 0..48u64 {
        let a = spd_matrix(&mut SplitMix64::new(seed), 12);
        // (Ax, y) == (x, AT y)
        let n = a.nrows();
        let x: Vec<f64> = (0..n).map(|i| 1.0 + (i % 5) as f64).collect();
        let y: Vec<f64> = (0..n).map(|i| 2.0 - (i % 3) as f64).collect();
        let at = a.transpose();
        let lhs = kernels::dot(&a.mul_vec(&x), &y);
        let rhs = kernels::dot(&x, &at.mul_vec(&y));
        assert!((lhs - rhs).abs() <= 1e-9 * (1.0 + lhs.abs()), "seed {seed}");
    }
}

#[test]
fn matmul_agrees_with_composition() {
    for seed in 0..32u64 {
        let a = spd_matrix(&mut SplitMix64::new(seed), 10);
        // (A*A)x == A(Ax)
        let n = a.nrows();
        let x: Vec<f64> = (0..n).map(|i| ((i * 13 % 7) as f64) - 3.0).collect();
        let a2 = a.matmul(&a);
        let lhs = a2.mul_vec(&x);
        let rhs = a.mul_vec(&a.mul_vec(&x));
        for i in 0..n {
            assert!(
                (lhs[i] - rhs[i]).abs() <= 1e-6 * (1.0 + rhs[i].abs()),
                "seed {seed}"
            );
        }
    }
}

#[test]
fn generated_matrices_are_spd_certified() {
    for seed in 0..48u64 {
        let a = spd_matrix(&mut SplitMix64::new(seed), 14);
        assert!(a.is_symmetric(1e-12), "seed {seed}");
        assert!(a.is_diagonally_dominant(), "seed {seed}");
        // Gershgorin upper bound dominates the Rayleigh quotient of any x.
        let n = a.nrows();
        let x: Vec<f64> = (0..n).map(|i| (i as f64).sin() + 1.5).collect();
        let rayleigh = kernels::dot(&x, &a.mul_vec(&x)) / kernels::dot(&x, &x);
        assert!(
            rayleigh <= a.gershgorin_upper() * (1.0 + 1e-12),
            "seed {seed}"
        );
        assert!(
            rayleigh > 0.0,
            "SPD matrices have positive Rayleigh quotients (seed {seed})"
        );
    }
}

#[test]
fn lu_solves_what_it_factors() {
    for seed in 0..32u64 {
        let mut rng = SplitMix64::new(seed);
        let a = spd_matrix(&mut rng, 10);
        let n = a.nrows();
        // Dense copy of the sparse SPD matrix.
        let mut d = DenseMatrix::zeros(n, n);
        for r in 0..n {
            for (k, &c) in a.row_cols(r).iter().enumerate() {
                d.set(r, c as usize, a.row_vals(r)[k]);
            }
        }
        let xstar: Vec<f64> = (0..n)
            .map(|i| ((i as u64 * 31 + seed) % 17) as f64 - 8.0)
            .collect();
        let b = d.matvec(&xstar);
        let x = d.solve(&b).unwrap();
        for i in 0..n {
            assert!(
                (x[i] - xstar[i]).abs() <= 1e-7 * (1.0 + xstar[i].abs()),
                "seed {seed}"
            );
        }
    }
}

#[test]
fn block_addmul_matches_columnwise_axpys() {
    for seed in 0..24u64 {
        let mut rng = SplitMix64::new(seed);
        let ncols = 1 + rng.below(3);
        let n = 4 + rng.below(36);
        let cols: Vec<Vec<f64>> = (0..ncols)
            .map(|j| (0..n).map(|i| ((i + 3 * j) as f64 * 0.31).sin()).collect())
            .collect();
        let y = MultiVector::from_columns(&cols.iter().map(|c| c.as_slice()).collect::<Vec<_>>());
        let mut x1 = MultiVector::zeros(n, ncols);
        let mut b = DenseMatrix::zeros(ncols, ncols);
        for i in 0..ncols {
            for j in 0..ncols {
                b.set(i, j, ((i * ncols + j) as f64) * 0.25 - 0.3);
            }
        }
        x1.add_mul(&y, &b);
        // Reference: column-by-column axpys.
        let mut x2 = MultiVector::zeros(n, ncols);
        for j in 0..ncols {
            for k in 0..ncols {
                kernels::axpy(b.get(k, j), y.col(k), x2.col_mut(j));
            }
        }
        for j in 0..ncols {
            for i in 0..n {
                assert!((x1.col(j)[i] - x2.col(j)[i]).abs() < 1e-12, "seed {seed}");
            }
        }
    }
}

#[test]
fn gram_is_transpose_symmetric() {
    for seed in 0..24u64 {
        let mut rng = SplitMix64::new(seed);
        let n = 4 + rng.below(26);
        let k = 1 + rng.below(3);
        let cols: Vec<Vec<f64>> = (0..k)
            .map(|j| {
                (0..n)
                    .map(|i| ((i * (j + 2)) as f64 * 0.17).cos())
                    .collect()
            })
            .collect();
        let x = MultiVector::from_columns(&cols.iter().map(|c| c.as_slice()).collect::<Vec<_>>());
        let g = x.gram(&x);
        for i in 0..k {
            for j in 0..k {
                assert!((g.get(i, j) - g.get(j, i)).abs() < 1e-12, "seed {seed}");
            }
            assert!(g.get(i, i) >= 0.0, "seed {seed}");
        }
    }
}

#[test]
fn partition_covers_and_balances() {
    let mut rng = SplitMix64::new(0xC0FFEE);
    for _ in 0..64 {
        let n = 1 + rng.below(4999);
        let p = 1 + rng.below(63);
        let part = pscg_sparse::RowBlockPartition::balanced(n, p);
        assert_eq!(part.nrows(), n);
        let mut total = 0;
        for r in 0..p {
            let len = part.local_len(r);
            total += len;
            // Balanced: lengths differ by at most 1.
            assert!(len + 1 >= n / p && len <= n / p + 1, "n={n} p={p}");
        }
        assert_eq!(total, n);
    }
}
