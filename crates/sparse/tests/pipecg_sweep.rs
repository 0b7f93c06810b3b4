//! The fused PIPECG pass against the twelve kernels it replaces: four
//! `aypx`, four `axpy` and four `dot`, compared bit for bit over seeded
//! data that mixes ordinary values with ±0, subnormals, ±∞ and NaN, on
//! lengths that cover every tail (`len mod 4`), the empty vector and a
//! vector longer than a page of rows.
//!
//! A NaN compares equal to any NaN. Rust leaves the sign and payload of a
//! NaN produced by arithmetic unspecified, and the compiler may commute an
//! addition: `tail + x·y` with two NaN operands gives either one's bits,
//! depending on the operand order the code generator picks at each
//! inlining site. Every other value, including the sign of a zero and
//! every subnormal, must match exactly.

use pscg_sparse::kernels::{self, dots_ruw, pipecg_sweep, PipecgVectors};
use pscg_sparse::SplitMix64;

const LENGTHS: [usize; 7] = [0, 1, 2, 3, 4, 5, 4097];

/// One entry: an ordinary value, or with `special` sometimes a special one.
fn entry(rng: &mut SplitMix64, special: bool) -> f64 {
    if !special {
        return rng.uniform(-2.0, 2.0);
    }
    match rng.below(20) {
        0 => 0.0,
        1 => -0.0,
        2 => f64::MIN_POSITIVE * rng.uniform(-1.0, 1.0),
        3 => f64::from_bits(1 + rng.below(1 << 20) as u64),
        4 => [f64::INFINITY, f64::NEG_INFINITY][rng.below(2)],
        5 => f64::NAN,
        _ => rng.uniform(-2.0, 2.0),
    }
}

/// `x, r, u, w, m, n, z, q, s, p`, in that order. Odd cases mix in
/// special values; even ones do not, so that the dots of long vectors are
/// finite and their rounding is compared too.
fn vectors(rng: &mut SplitMix64, len: usize, case: usize) -> Vec<Vec<f64>> {
    (0..10)
        .map(|_| (0..len).map(|_| entry(rng, case % 2 == 1)).collect())
        .collect()
}

/// `to_bits`, with every NaN mapped to one canonical pattern.
fn key(x: f64) -> u64 {
    if x.is_nan() {
        f64::NAN.to_bits()
    } else {
        x.to_bits()
    }
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().copied().map(key).collect()
}

/// The sequence the sweep replaces, call by call.
fn legacy(v: &mut [Vec<f64>], alpha: f64, beta: f64) -> [f64; 4] {
    let [x, r, u, w, m, n, z, q, s, p] = v else {
        unreachable!("ten vectors");
    };
    kernels::aypx(beta, n, z);
    kernels::aypx(beta, m, q);
    kernels::aypx(beta, w, s);
    kernels::aypx(beta, u, p);
    kernels::axpy(alpha, p, x);
    kernels::axpy(-alpha, s, r);
    kernels::axpy(-alpha, q, u);
    kernels::axpy(-alpha, z, w);
    [
        kernels::dot(r, u),
        kernels::dot(w, u),
        kernels::dot(r, r),
        kernels::dot(u, u),
    ]
}

fn fused(v: &mut [Vec<f64>], alpha: f64, beta: f64) -> [f64; 4] {
    let [x, r, u, w, m, n, z, q, s, p] = v else {
        unreachable!("ten vectors");
    };
    let mut vecs = PipecgVectors {
        x,
        r,
        u,
        w,
        m,
        n,
        z,
        q,
        s,
        p,
    };
    pipecg_sweep(&mut vecs, alpha, beta)
}

#[test]
fn pipecg_sweep_is_bitwise_the_twelve_kernels() {
    let mut rng = SplitMix64::new(0x5eed_00c9);
    for len in LENGTHS {
        for case in 0..24 {
            let (alpha, beta) = match case {
                0 => (rng.uniform(-1.0, 1.0), 0.0),
                1 => (rng.uniform(-1.0, 1.0), -0.0),
                2 => (-0.0, rng.uniform(-1.0, 1.0)),
                3 => (f64::INFINITY, rng.uniform(-1.0, 1.0)),
                _ => (rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)),
            };
            let mut want = vectors(&mut rng, len, case);
            let mut got = want.clone();
            let want_dots = legacy(&mut want, alpha, beta);
            let got_dots = fused(&mut got, alpha, beta);
            if case % 2 == 0 {
                assert!(
                    got_dots.iter().all(|d| d.is_finite()),
                    "len {len}, case {case}"
                );
            }
            for (k, (a, b)) in want.iter().zip(&got).enumerate() {
                assert_eq!(bits(a), bits(b), "len {len}, case {case}, vector {k}");
            }
            assert_eq!(
                want_dots.map(key),
                got_dots.map(key),
                "len {len}, case {case}: dots {want_dots:?} vs {got_dots:?}"
            );
        }
    }
}

#[test]
fn dots_ruw_is_bitwise_four_dots() {
    let mut rng = SplitMix64::new(0xd075);
    for len in LENGTHS {
        for case in 0..24 {
            let v = vectors(&mut rng, len, case);
            let (r, u, w) = (&v[1], &v[2], &v[3]);
            let want = [
                kernels::dot(r, u),
                kernels::dot(w, u),
                kernels::dot(r, r),
                kernels::dot(u, u),
            ];
            let got = dots_ruw(r, u, w);
            assert_eq!(
                want.map(key),
                got.map(key),
                "len {len}, case {case}: {want:?} vs {got:?}"
            );
        }
    }
}
