//! Dense vector kernels: dot products, AXPY-family updates, norms.
//!
//! These are the "VMA" (vector-multiply-add) and dot-product kernels of the
//! paper's cost analysis (Table I). They are deliberately free functions over
//! slices so that both the global (serial/simulated) engines and the per-rank
//! SPMD engine can reuse them on whatever window of data they own.

/// Dot product `xᵀy`.
#[inline]
pub fn dot(x: &[f64], y: &[f64]) -> f64 {
    debug_assert_eq!(x.len(), y.len());
    // Four partial accumulators break the add dependency chain, which lets
    // the compiler keep the loop pipelined without changing the rounding
    // behaviour from run to run (the split is fixed, not data-dependent).
    let chunks = x.len() / 4 * 4;
    let (mut a0, mut a1, mut a2, mut a3) = (0.0, 0.0, 0.0, 0.0);
    let mut i = 0;
    while i < chunks {
        a0 += x[i] * y[i];
        a1 += x[i + 1] * y[i + 1];
        a2 += x[i + 2] * y[i + 2];
        a3 += x[i + 3] * y[i + 3];
        i += 4;
    }
    let mut tail = 0.0;
    while i < x.len() {
        tail += x[i] * y[i];
        i += 1;
    }
    (a0 + a1) + (a2 + a3) + tail
}

/// Squared Euclidean norm `‖x‖²`.
#[inline]
pub fn norm2_sq(x: &[f64]) -> f64 {
    dot(x, x)
}

/// Euclidean norm `‖x‖`.
#[inline]
pub fn norm2(x: &[f64]) -> f64 {
    norm2_sq(x).sqrt()
}

/// `y += a·x`.
#[inline]
pub fn axpy(a: f64, x: &[f64], y: &mut [f64]) {
    debug_assert_eq!(x.len(), y.len());
    for (yi, xi) in y.iter_mut().zip(x) {
        *yi += a * xi;
    }
}

/// [`axpy`] under the name the block update sweeps call it by. Elements
/// are independent, so a plain slice-zip loop (no index bounds checks,
/// vectorisable) is the one formulation needed.
#[inline]
pub fn axpy_unrolled4(a: f64, x: &[f64], y: &mut [f64]) {
    axpy(a, x, y);
}

/// `y -= a·x`, the subtracting twin of [`axpy`] (bitwise identical to the
/// plain indexed loop).
#[inline]
pub fn axmy_unrolled4(a: f64, x: &[f64], y: &mut [f64]) {
    debug_assert_eq!(x.len(), y.len());
    for (yi, xi) in y.iter_mut().zip(x) {
        *yi -= a * xi;
    }
}

/// `y = x + a·y` (the CG direction update `p = u + β p`).
#[inline]
pub fn aypx(a: f64, x: &[f64], y: &mut [f64]) {
    debug_assert_eq!(x.len(), y.len());
    for (yi, xi) in y.iter_mut().zip(x) {
        *yi = xi + a * *yi;
    }
}

/// `z = x + a·y` into a separate output.
#[inline]
pub fn waxpy(z: &mut [f64], a: f64, y: &[f64], x: &[f64]) {
    debug_assert_eq!(x.len(), z.len());
    debug_assert_eq!(y.len(), z.len());
    for ((zi, xi), yi) in z.iter_mut().zip(x).zip(y) {
        *zi = xi + a * yi;
    }
}

/// `x *= a`.
#[inline]
pub fn scale(a: f64, x: &mut [f64]) {
    for xi in x {
        *xi *= a;
    }
}

/// `y = x`.
#[inline]
pub fn copy(x: &[f64], y: &mut [f64]) {
    y.copy_from_slice(x);
}

/// `x = 0`.
#[inline]
pub fn zero(x: &mut [f64]) {
    for xi in x {
        *xi = 0.0;
    }
}

/// Pointwise product `z = d ⊙ x` (diagonal/Jacobi application).
#[inline]
pub fn hadamard(d: &[f64], x: &[f64], z: &mut [f64]) {
    debug_assert_eq!(d.len(), x.len());
    debug_assert_eq!(d.len(), z.len());
    for ((zi, di), xi) in z.iter_mut().zip(d).zip(x) {
        *zi = di * xi;
    }
}

/// Pointwise product `z = d ⊙ x` with `d` stored in fp32 and the multiply
/// performed in fp32 — the demoted-precision Jacobi apply. Each `x[i]` is
/// rounded to f32 on entry and the product widened back on exit, so the
/// kernel moves 4 bytes of diagonal per row instead of 8. Deterministic:
/// pure elementwise rounding, no accumulation order to vary.
#[inline]
pub fn hadamard_f32(d: &[f32], x: &[f64], z: &mut [f64]) {
    debug_assert_eq!(d.len(), x.len());
    debug_assert_eq!(d.len(), z.len());
    for ((zi, di), xi) in z.iter_mut().zip(d).zip(x) {
        *zi = f64::from(di * (*xi as f32));
    }
}

/// Maximum absolute difference between two vectors.
pub fn max_abs_diff(x: &[f64], y: &[f64]) -> f64 {
    debug_assert_eq!(x.len(), y.len());
    x.iter()
        .zip(y)
        .map(|(a, b)| (a - b).abs())
        .fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_matches_naive() {
        let x: Vec<f64> = (0..103).map(|i| i as f64 * 0.5).collect();
        let y: Vec<f64> = (0..103).map(|i| 1.0 - i as f64 * 0.25).collect();
        let naive: f64 = x.iter().zip(&y).map(|(a, b)| a * b).sum();
        assert!((dot(&x, &y) - naive).abs() < 1e-9 * naive.abs().max(1.0));
    }

    #[test]
    fn dot_is_deterministic() {
        let x: Vec<f64> = (0..1000).map(|i| (i as f64).sin()).collect();
        let y: Vec<f64> = (0..1000).map(|i| (i as f64).cos()).collect();
        assert_eq!(dot(&x, &y), dot(&x, &y));
    }

    #[test]
    fn axpy_family() {
        let x = [1.0, 2.0, 3.0];
        let mut y = [10.0, 20.0, 30.0];
        axpy(2.0, &x, &mut y);
        assert_eq!(y, [12.0, 24.0, 36.0]);
        aypx(0.5, &x, &mut y);
        assert_eq!(y, [7.0, 14.0, 21.0]);
        let mut z = [0.0; 3];
        waxpy(&mut z, -1.0, &y, &x);
        assert_eq!(z, [-6.0, -12.0, -18.0]);
    }

    #[test]
    fn unrolled_axpy_is_bitwise_plain() {
        let x: Vec<f64> = (0..103).map(|i| (i as f64 * 0.83).sin()).collect();
        let mut y_plain: Vec<f64> = (0..103).map(|i| (i as f64 * 0.19).cos()).collect();
        let mut y_unrolled = y_plain.clone();
        axpy(0.731, &x, &mut y_plain);
        axpy_unrolled4(0.731, &x, &mut y_unrolled);
        assert_eq!(y_plain, y_unrolled);
        let mut z_plain = y_plain.clone();
        let mut z_unrolled = y_plain.clone();
        for (zi, xi) in z_plain.iter_mut().zip(&x) {
            *zi -= 1.37 * xi;
        }
        axmy_unrolled4(1.37, &x, &mut z_unrolled);
        assert_eq!(z_plain, z_unrolled);
    }

    #[test]
    fn norms_and_scale() {
        let mut x = [3.0, 4.0];
        assert_eq!(norm2(&x), 5.0);
        scale(2.0, &mut x);
        assert_eq!(x, [6.0, 8.0]);
        zero(&mut x);
        assert_eq!(x, [0.0, 0.0]);
    }

    #[test]
    fn hadamard_applies_diagonal() {
        let d = [2.0, 0.5];
        let x = [4.0, 4.0];
        let mut z = [0.0; 2];
        hadamard(&d, &x, &mut z);
        assert_eq!(z, [8.0, 2.0]);
    }

    #[test]
    fn max_abs_diff_finds_peak() {
        assert_eq!(max_abs_diff(&[1.0, 5.0, 3.0], &[1.0, 2.0, 3.5]), 3.0);
    }
}
