//! Shared s-step machinery: the Gram packet and the "Scalar Work".
//!
//! Every s-step method (Algorithms 2–7 of the paper) performs, per s-step
//! iteration, a small amount of rank-replicated scalar work: solve two
//! `s × s` systems to obtain the conjugation matrix `B` ("the β's") and the
//! step coefficients `α`. The paper computes the required inner products
//! from 2s monomial moments with cross-iteration scalar recurrences; we use
//! the equivalent **block Gram formulation** (see DESIGN.md §2): one
//! reduction per s-step iteration carrying
//!
//! * `N = RᵀA R`        (`s × s`, fresh-basis moments),
//! * `C = P_prevᵀ A R`  (`s × s`, cross-conjugation terms),
//! * `g1 = Rᵀ r`, `g2 = P_prevᵀ r` (`s` each),
//! * the three residual norms `(r·r, u·u, r·u)`,
//!
//! a total of `2s² + 2s + 3` doubles — like the paper's `vm`, everything in
//! the packet is available *before* the deep SPMVs that the non-blocking
//! allreduce is overlapped with.
//!
//! Scalar work per iteration (LU, as the paper specifies):
//!
//! * `B = −W_prev⁻¹ C` (A-conjugation of the new basis to the previous
//!   directions),
//! * `W = N + CᵀB + BᵀC + BᵀW_prev B`  (`= PᵀA P` of the new directions),
//! * `α = W⁻¹ (g1 + Bᵀ g2)`  (error-functional minimisation over the space).

use pscg_sim::Context;
use pscg_sparse::dense::DenseMatrix;
use pscg_sparse::MultiVector;

/// The per-iteration reduction payload of the s-step methods.
#[derive(Debug, Clone)]
pub struct GramPacket {
    /// `s`.
    pub s: usize,
    /// `RᵀA R`.
    pub n: DenseMatrix,
    /// `P_prevᵀ A R`.
    pub c: DenseMatrix,
    /// `Rᵀ r`.
    pub g1: Vec<f64>,
    /// `P_prevᵀ r`.
    pub g2: Vec<f64>,
    /// `(r·r, u·u, r·u)` — all three norms travel in every packet, which is
    /// what lets PIPE-PsCG test any norm without extra kernels.
    pub norms: [f64; 3],
}

impl GramPacket {
    /// Number of doubles in the flat encoding.
    pub fn len(s: usize) -> usize {
        2 * s * s + 2 * s + 3
    }

    /// Flattens for the allreduce.
    pub fn pack(&self) -> Vec<f64> {
        let s = self.s;
        let mut out = Vec::with_capacity(Self::len(s));
        out.extend_from_slice(self.n.data());
        out.extend_from_slice(self.c.data());
        out.extend_from_slice(&self.g1);
        out.extend_from_slice(&self.g2);
        out.extend_from_slice(&self.norms);
        out
    }

    /// Rebuilds from the reduced flat vector.
    pub fn unpack(s: usize, flat: &[f64]) -> GramPacket {
        assert_eq!(flat.len(), Self::len(s), "gram packet length mismatch");
        let mut n = DenseMatrix::zeros(s, s);
        n.data_mut().copy_from_slice(&flat[0..s * s]);
        let mut c = DenseMatrix::zeros(s, s);
        c.data_mut().copy_from_slice(&flat[s * s..2 * s * s]);
        let g1 = flat[2 * s * s..2 * s * s + s].to_vec();
        let g2 = flat[2 * s * s + s..2 * s * s + 2 * s].to_vec();
        let t = 2 * s * s + 2 * s;
        GramPacket {
            s,
            n,
            c,
            g1,
            g2,
            norms: [flat[t], flat[t + 1], flat[t + 2]],
        }
    }

    /// Assembles the local packet from the fresh power lists and previous
    /// directions. `upow`/`rpow` are the u-type and r-type power lists with
    /// at least `s+1` valid leading columns (`rpow[j] = A·upow[j−1]` when
    /// preconditioned; pass the same block twice when `M = I`). `udirs` is
    /// the previous direction block (zero on the first call).
    pub fn assemble<C: Context>(
        ctx: &mut C,
        s: usize,
        upow: &MultiVector,
        rpow: &MultiVector,
        udirs: &MultiVector,
    ) -> GramPacket {
        // N_{jk} = (upow_j, A upow_k) = (upow_j, rpow_{k+1})
        let n = ctx.local_gram_range(upow, 0..s, rpow, 1..s + 1);
        // C_{mk} = (udirs_m, A upow_k) = (udirs_m, rpow_{k+1})
        let c = ctx.local_gram_range(udirs, 0..s, rpow, 1..s + 1);
        // g1_j = (upow_j, r), g2_m = (udirs_m, r) — first s columns only
        // (the power lists carry extra columns beyond the basis).
        let g1: Vec<f64> = (0..s)
            .map(|j| ctx.local_dot(upow.col(j), rpow.col(0)))
            .collect();
        let g2: Vec<f64> = (0..s)
            .map(|m| ctx.local_dot(udirs.col(m), rpow.col(0)))
            .collect();
        let rr = ctx.local_dot(rpow.col(0), rpow.col(0));
        let uu = ctx.local_dot(upow.col(0), upow.col(0));
        let ru = ctx.local_dot(rpow.col(0), upow.col(0));
        GramPacket {
            s,
            n,
            c,
            g1,
            g2,
            norms: [rr, uu, ru],
        }
    }
}

/// Estimates the basis scale `σ ≈ 1/ρ(op)` from one operator application
/// (`den = op·num`): `σ = ‖num‖/‖den‖`, reduced globally (one blocking
/// allreduce at setup).
///
/// All s-step methods here generate their monomial bases with the *scaled*
/// operator `Ã = σA` (or `σAM⁻¹` / `σM⁻¹A`), which spans the same Krylov
/// space while keeping the power columns O(‖r‖) — without this, an
/// unpreconditioned basis on a badly scaled operator (‖A‖ ~ 10⁴ for the
/// thermal surrogate) overflows within a few iterations. The consequence for
/// the scalar work is a single factor: the solution update uses `σ·α` while
/// the basis recurrences use `α` as solved (see the method bodies).
pub fn estimate_sigma<C: Context>(ctx: &mut C, num: &[f64], den: &[f64]) -> f64 {
    let nn = ctx.local_dot(num, num);
    let dd = ctx.local_dot(den, den);
    let red = ctx.allreduce(&[nn, dd]);
    if red[0] > 0.0 && red[1] > 0.0 && red[0].is_finite() && red[1].is_finite() {
        (red[0] / red[1]).sqrt()
    } else {
        1.0
    }
}

/// Extends a single (unpreconditioned) power list with the scaled operator:
/// `pow[j] = σ·A·pow[j−1]` for `j = from+1 ..= to`.
pub fn extend_scaled_powers<C: Context>(
    ctx: &mut C,
    pow: &mut MultiVector,
    from: usize,
    to: usize,
    sigma: f64,
) {
    for j in from + 1..=to {
        {
            let (src, dst) = pow.col_pair_mut(j - 1, j);
            ctx.spmv(src, dst);
        }
        // pscg-lint: allow(float-eq, exact identity-scaling skip; sigma is a set parameter, not computed)
        if sigma != 1.0 {
            ctx.scale_v(sigma, pow.col_mut(j));
        }
    }
}

/// Copies `count` columns of `src` starting at `src_off` into the leading
/// columns of `dst` (charged as vector moves).
pub fn copy_cols<C: Context>(
    ctx: &mut C,
    dst: &mut MultiVector,
    src: &MultiVector,
    src_off: usize,
    count: usize,
) {
    for j in 0..count {
        ctx.copy_v(src.col(src_off + j), dst.col_mut(j));
    }
}

/// The recurrence linear combination of the paper: builds
/// `dst = src[:, off..off+s] + prev · B` (e.g. `Q = Q + P[β¹…βˢ]`,
/// Algorithm 5 lines 17/19) — as a single fused sweep over the rows.
pub fn conjugate_window<C: Context>(
    ctx: &mut C,
    dst: &mut MultiVector,
    src: &MultiVector,
    off: usize,
    prev: &MultiVector,
    b: &DenseMatrix,
) {
    ctx.block_combine(dst, src, off, prev, b);
}

/// Cross-iteration scalar state of an s-step method.
#[derive(Debug, Clone)]
pub struct ScalarWork {
    s: usize,
    /// `W = PᵀA P` of the current directions (None before the first step).
    w: Option<DenseMatrix>,
    /// Conjugation matrix for the upcoming basis update.
    pub b: DenseMatrix,
    /// Step coefficients for the upcoming solution update.
    pub alpha: Vec<f64>,
    /// `σ·α`, the coefficients of `x += Q·(σα)` in the σ-scaled basis
    /// (kept here so the update allocates nothing per pass; filled by
    /// [`ScalarWork::scale_alpha`]).
    pub alpha_x: Vec<f64>,
}

/// Scalar-work failure: the `s × s` system was singular or produced
/// non-finite coefficients (basis collapse — the monomial basis ran out of
/// precision).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Breakdown;

impl ScalarWork {
    /// Fresh state for a given `s`.
    pub fn new(s: usize) -> Self {
        ScalarWork {
            s,
            w: None,
            b: DenseMatrix::zeros(s, s),
            alpha: vec![0.0; s],
            alpha_x: vec![0.0; s],
        }
    }

    /// Refreshes [`ScalarWork::alpha_x`] `= σ·α` after a successful
    /// [`ScalarWork::step`].
    pub fn scale_alpha(&mut self, sigma: f64) {
        for (ax, a) in self.alpha_x.iter_mut().zip(&self.alpha) {
            *ax = a * sigma;
        }
    }

    /// Consumes one (globally reduced) packet; on success `self.b` and
    /// `self.alpha` hold the coefficients for the next basis update.
    pub fn step<C: Context>(&mut self, ctx: &mut C, pkt: &GramPacket) -> Result<(), Breakdown> {
        assert_eq!(pkt.s, self.s);
        let s = self.s;
        let (b, mut w) = match &self.w {
            None => (DenseMatrix::zeros(s, s), pkt.n.clone()),
            Some(w_prev) => {
                // B = -W_prev^{-1} C
                let mut b = solve_mat_regularized(w_prev, &pkt.c).ok_or(Breakdown)?;
                b.scale(-1.0);
                // W = N + Cᵀ B + Bᵀ C + Bᵀ W_prev B
                let ctb = pkt.c.transpose().matmul(&b);
                let btwb = b.transpose().matmul(&w_prev.matmul(&b));
                let w = pkt.n.add_mat(&ctb).add_mat(&ctb.transpose()).add_mat(&btwb);
                (b, w)
            }
        };
        w.symmetrize();
        // g = g1 + Bᵀ g2
        let mut g = pkt.g1.clone();
        let btg2 = b.transpose().matvec(&pkt.g2);
        for (gi, v) in g.iter_mut().zip(&btg2) {
            *gi += v;
        }
        let alpha = solve_regularized(&w, &g).ok_or(Breakdown)?;
        if alpha.iter().any(|a| !a.is_finite()) || b.data().iter().any(|v| !v.is_finite()) {
            return Err(Breakdown);
        }
        // Two s×s LU solves plus the small matrix products.
        let sf = s as f64;
        ctx.charge_scalar(4.0 * sf * sf * sf + 8.0 * sf * sf);
        self.b = b;
        self.w = Some(w);
        self.alpha = alpha;
        Ok(())
    }
}

/// Relative eigenvalue cutoff of the rank-revealing scalar solves.
const PINV_RELATIVE_CUTOFF: f64 = 1e-13;

/// Solves `W x = g` through a truncated eigendecomposition (`W` is an
/// A-Gram matrix, symmetric positive semidefinite up to roundoff). When the
/// Krylov basis is rank deficient — legitimately so for `dim K < s`, e.g.
/// `M⁻¹A ≈ I` or the final block before convergence — the LU the paper
/// prescribes would amplify null-space noise; the pseudo-inverse instead
/// *drops* the directions the basis cannot resolve, so the block still
/// takes the correct step in the well-determined ones. Returns `None` only
/// when the spectrum is unusable (non-finite or non-positive).
fn solve_regularized(w: &DenseMatrix, g: &[f64]) -> Option<Vec<f64>> {
    let eig = EquilibratedEig::factor(w)?;
    eig.solve(g)
}

/// Matrix right-hand-side variant of [`solve_regularized`]; factors `W`
/// once and reuses the decomposition for every column.
fn solve_mat_regularized(w: &DenseMatrix, c: &DenseMatrix) -> Option<DenseMatrix> {
    let eig = EquilibratedEig::factor(w)?;
    let s = w.nrows();
    let mut out = DenseMatrix::zeros(s, c.ncols());
    let mut col = vec![0.0; s];
    for j in 0..c.ncols() {
        for i in 0..s {
            col[i] = c.get(i, j);
        }
        let x = eig.solve(&col)?;
        for i in 0..s {
            out.set(i, j, x[i]);
        }
    }
    Some(out)
}

/// Equilibrated, rank-truncated eigendecomposition of an s-step Gram matrix.
///
/// Symmetric Jacobi equilibration first: the σ-scaled monomial columns
/// still decay/grow as (λ/ρ)^j, so W's diagonal spans many orders of
/// magnitude at larger s. Solving D⁻¹WD⁻¹ (D x) = D⁻¹ g removes that
/// artificial conditioning exactly (it is a diagonal change of basis) and
/// is what keeps s = 5 usable on the paper's 1M-unknown problem. Eigenvalues
/// below the relative cutoff are truncated (pseudo-inverse): when the Krylov
/// basis is rank deficient — legitimately so for `dim K < s`, e.g.
/// `M⁻¹A ≈ I` or the final block before convergence — the LU the paper
/// prescribes would amplify null-space noise; the pseudo-inverse instead
/// *drops* the directions the basis cannot resolve, so the block still takes
/// the correct step in the well-determined ones. `factor` returns `None`
/// only when the spectrum is unusable (non-finite or non-positive).
struct EquilibratedEig {
    d: Vec<f64>,
    lam: Vec<f64>,
    v: DenseMatrix,
    cutoff: f64,
}

impl EquilibratedEig {
    fn factor(w: &DenseMatrix) -> Option<EquilibratedEig> {
        let s = w.nrows();
        let d: Vec<f64> = (0..s)
            .map(|i| {
                let wii = w.get(i, i);
                if wii > 0.0 && wii.is_finite() {
                    wii.sqrt()
                } else {
                    1.0
                }
            })
            .collect();
        let mut wbar = w.clone();
        for i in 0..s {
            for j in 0..s {
                wbar.set(i, j, w.get(i, j) / (d[i] * d[j]));
            }
        }
        let (lam, v) = wbar.sym_eig();
        let lmax = lam.iter().copied().fold(0.0f64, f64::max);
        if lmax <= 0.0 || !lmax.is_finite() {
            return None;
        }
        Some(EquilibratedEig {
            d,
            lam,
            v,
            cutoff: PINV_RELATIVE_CUTOFF * lmax,
        })
    }

    fn solve(&self, g: &[f64]) -> Option<Vec<f64>> {
        let s = self.d.len();
        let gbar: Vec<f64> = (0..s).map(|i| g[i] / self.d[i]).collect();
        let mut xbar = vec![0.0; s];
        for (k, &l) in self.lam.iter().enumerate() {
            if l <= self.cutoff {
                continue;
            }
            let mut proj = 0.0;
            for i in 0..s {
                proj += self.v.get(i, k) * gbar[i];
            }
            let coef = proj / l;
            for i in 0..s {
                xbar[i] += coef * self.v.get(i, k);
            }
        }
        let x: Vec<f64> = (0..s).map(|i| xbar[i] / self.d[i]).collect();
        x.iter().all(|v| v.is_finite()).then_some(x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pscg_sim::SimCtx;
    use pscg_sparse::stencil::{poisson3d_7pt, Grid3};
    use pscg_sparse::{CsrMatrix, IdentityOp};

    fn ctx_for(a: &CsrMatrix) -> SimCtx<'_> {
        SimCtx::serial(a, Box::new(IdentityOp::new(a.nrows())))
    }

    #[test]
    fn packet_roundtrips_through_flat_encoding() {
        let s = 3;
        let mut n = DenseMatrix::zeros(s, s);
        let mut c = DenseMatrix::zeros(s, s);
        for i in 0..s {
            for j in 0..s {
                n.set(i, j, (i * s + j) as f64);
                c.set(i, j, -((i + j) as f64));
            }
        }
        let pkt = GramPacket {
            s,
            n,
            c,
            g1: vec![1.0, 2.0, 3.0],
            g2: vec![-1.0, -2.0, -3.0],
            norms: [9.0, 4.0, 6.0],
        };
        let flat = pkt.pack();
        assert_eq!(flat.len(), GramPacket::len(s));
        let back = GramPacket::unpack(s, &flat);
        assert_eq!(back.n, pkt.n);
        assert_eq!(back.c, pkt.c);
        assert_eq!(back.g1, pkt.g1);
        assert_eq!(back.g2, pkt.g2);
        assert_eq!(back.norms, pkt.norms);
    }

    #[test]
    fn first_scalar_step_reproduces_steepest_descent_for_s1() {
        // With s = 1 and no previous directions, alpha = (r·r)/(r·Ar): the
        // classic first CG step.
        let g = Grid3::cube(4);
        let a = poisson3d_7pt(g, None);
        let n = a.nrows();
        let mut ctx = ctx_for(&a);
        let r: Vec<f64> = (0..n).map(|i| 1.0 + (i % 5) as f64).collect();
        let ar = a.mul_vec(&r);
        let upow = MultiVector::from_columns(&[&r]);
        let rpow = MultiVector::from_columns(&[&r, &ar]);
        let dirs = MultiVector::zeros(n, 1);
        let pkt = GramPacket::assemble(&mut ctx, 1, &upow, &rpow, &dirs);
        let mut sw = ScalarWork::new(1);
        sw.step(&mut ctx, &pkt).unwrap();
        let rr = pscg_sparse::kernels::dot(&r, &r);
        let rar = pscg_sparse::kernels::dot(&r, &ar);
        assert!((sw.alpha[0] - rr / rar).abs() < 1e-14);
        // First step has B = 0.
        assert_eq!(sw.b.get(0, 0), 0.0);
    }

    #[test]
    fn scalar_step_detects_singular_gram() {
        let g = Grid3::cube(3);
        let a = poisson3d_7pt(g, None);
        let mut ctx = ctx_for(&a);
        let pkt = GramPacket {
            s: 2,
            n: DenseMatrix::zeros(2, 2), // singular
            c: DenseMatrix::zeros(2, 2),
            g1: vec![1.0, 1.0],
            g2: vec![0.0, 0.0],
            norms: [1.0, 1.0, 1.0],
        };
        let mut sw = ScalarWork::new(2);
        assert_eq!(sw.step(&mut ctx, &pkt), Err(Breakdown));
    }

    #[test]
    fn assemble_collects_all_three_norms() {
        let g = Grid3::cube(3);
        let a = poisson3d_7pt(g, None);
        let n = a.nrows();
        let mut ctx = ctx_for(&a);
        let r = vec![2.0; n];
        let u = vec![0.5; n];
        let ar = a.mul_vec(&r); // stand-in for A·u column
        let upow = MultiVector::from_columns(&[&u]);
        let rpow = MultiVector::from_columns(&[&r, &ar]);
        let dirs = MultiVector::zeros(n, 1);
        let pkt = GramPacket::assemble(&mut ctx, 1, &upow, &rpow, &dirs);
        let nf = n as f64;
        assert!((pkt.norms[0] - 4.0 * nf).abs() < 1e-12); // r·r
        assert!((pkt.norms[1] - 0.25 * nf).abs() < 1e-12); // u·u
        assert!((pkt.norms[2] - 1.0 * nf).abs() < 1e-12); // r·u
    }
}
