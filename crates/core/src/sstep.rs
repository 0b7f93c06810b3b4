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

use pscg_sim::{Context, RecurrenceStep};
use pscg_sparse::dense::DenseMatrix;
pub use pscg_sparse::multivec::GramPacketBuf;
use pscg_sparse::multivec::{gram_packet_len, RecurrenceFamily};
use pscg_sparse::MultiVector;

use crate::driver::Scalars;

/// The per-iteration reduction payload of the s-step methods, as a view on
/// its flat encoding: `N`, `C`, `g1`, `g2`, norms. The local packet lives
/// in a solver-owned [`GramPacketBuf`], filled by
/// [`Context::local_gram_packet`] from the u-type and r-type power lists
/// (`rpow[j] = A·upow[j−1]` when preconditioned; the same block twice when
/// `M = I`) and the previous direction block (zero on the first call), or
/// by the fused recurrence pass; the reduced one is the vector the
/// allreduce returns.
#[derive(Debug, Clone, Copy)]
pub struct GramPacket<'a> {
    s: usize,
    flat: &'a [f64],
}

impl<'a> GramPacket<'a> {
    /// Number of doubles in the flat encoding.
    pub fn len(s: usize) -> usize {
        gram_packet_len(s)
    }

    /// Views a (reduced) flat packet for block size `s`.
    pub fn view(s: usize, flat: &'a [f64]) -> Self {
        assert_eq!(flat.len(), Self::len(s), "gram packet length mismatch");
        GramPacket { s, flat }
    }

    /// `RᵀA R`, row-major `s × s`.
    pub fn n(&self) -> &'a [f64] {
        &self.flat[..self.s * self.s]
    }

    /// `P_prevᵀ A R`, row-major `s × s`.
    pub fn c(&self) -> &'a [f64] {
        &self.flat[self.s * self.s..2 * self.s * self.s]
    }

    /// `Rᵀ r`.
    pub fn g1(&self) -> &'a [f64] {
        &self.flat[2 * self.s * self.s..][..self.s]
    }

    /// `P_prevᵀ r`.
    pub fn g2(&self) -> &'a [f64] {
        &self.flat[2 * self.s * self.s + self.s..][..self.s]
    }

    /// `(r·r, u·u, r·u)` — all three norms travel in every packet, which is
    /// what lets PIPE-PsCG test any norm without extra kernels.
    pub fn norms(&self) -> [f64; 3] {
        let t = 2 * self.s * self.s + 2 * self.s;
        [self.flat[t], self.flat[t + 1], self.flat[t + 2]]
    }
}

/// Which operator chain generates an s-step method's monomial basis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Chain {
    /// `(σA)^j r`, one SPMV per link.
    Plain,
    /// `(σA)^j r` through [`Context::mpk`] (one widened halo exchange per
    /// call; numerically the plain chain).
    Mpk,
    /// `(σAM⁻¹)^j r` and `M⁻¹` of it, one SPMV and one PC per link.
    Preconditioned,
}

/// The σ-scaled monomial power list(s) of an s-step method.
///
/// All s-step methods here generate their bases with the *scaled* operator
/// `Ã = σA` (or `σAM⁻¹` / `σM⁻¹A`), `σ ≈ 1/ρ` estimated from the first chain
/// link, which spans the same Krylov space while keeping the power columns
/// O(‖r‖) — without this, an unpreconditioned basis on a badly scaled
/// operator (‖A‖ ~ 10⁴ for the thermal surrogate) overflows within a few
/// iterations. The consequence for the scalar work is a single factor: the
/// solution update uses `σ·α` ([`ScalarWork::scale_alpha`]) while the basis
/// recurrences use `α` as solved.
///
/// The single list is the `u ≡ r` case of the dual lists: with `M = I` the
/// u-type list `M⁻¹·rpow` *is* the r-type list, so a consumer of the
/// `(upow, rpow)` pair ([`Context::local_gram_packet`]) gets the same block
/// twice and a consumer of one family per list
/// ([`Context::block_recurrence_step`]) gets one family.
pub(crate) struct PowerBasis {
    /// r-type list `rpow[j] = (σAM⁻¹)^j r`.
    rpow: MultiVector,
    /// u-type list `upow[j] = M⁻¹ rpow[j]`; `None` when `M = I`.
    upow: Option<MultiVector>,
    /// The basis scale `σ`.
    pub sigma: f64,
    /// Extend through [`Context::mpk`] (single list only).
    mpk: bool,
}

/// A direction block and its A-power blocks `apow[w] = Ã^{w+1}·dirs`: what
/// the pipelined recurrences carry per power list.
pub(crate) struct DirBlocks {
    pub dirs: MultiVector,
    pub apow: Vec<MultiVector>,
}

impl DirBlocks {
    /// Zero blocks: `s` direction columns and `s + 1` A-power blocks.
    fn new<C: Context>(ctx: &mut C, s: usize) -> Self {
        DirBlocks {
            dirs: ctx.alloc_multi(s),
            apow: (0..=s).map(|_| ctx.alloc_multi(s)).collect(),
        }
    }

    /// These blocks as the recurrence family of the power list `pow`.
    fn family<'a>(&'a mut self, pow: &'a mut MultiVector) -> RecurrenceFamily<'a> {
        RecurrenceFamily {
            pow,
            dirs: &mut self.dirs,
            apow: &mut self.apow,
        }
    }
}

impl PowerBasis {
    /// Lists of `depth + 1` columns with column 0 `= r` and the first `s`
    /// powers built: the first chain link, `σ = ‖r‖/‖Ã₁r‖` from it (one
    /// blocking allreduce; 1 when either norm is unusable), then
    /// [`PowerBasis::extend`] to `s`.
    pub(crate) fn new<C: Context>(
        ctx: &mut C,
        chain: Chain,
        r: &[f64],
        s: usize,
        depth: usize,
    ) -> Self {
        let mut rpow = ctx.alloc_multi(depth + 1);
        let mut upow = (chain == Chain::Preconditioned).then(|| ctx.alloc_multi(depth + 1));
        rpow.col_mut(0).copy_from_slice(r);
        match upow.as_mut() {
            Some(upow) => {
                ctx.pc_apply(rpow.col(0), upow.col_mut(0));
                ctx.spmv(upow.col(0), rpow.col_mut(1));
            }
            None => {
                let (src, dst) = rpow.col_pair_mut(0, 1);
                ctx.spmv(src, dst);
            }
        }
        let nn = ctx.local_dot(rpow.col(0), rpow.col(0));
        let dd = ctx.local_dot(rpow.col(1), rpow.col(1));
        let red = ctx.allreduce(&[nn, dd]);
        let usable = red[0] > 0.0 && red[1] > 0.0 && red[0].is_finite() && red[1].is_finite();
        let sigma = if usable {
            (red[0] / red[1]).sqrt()
        } else {
            1.0
        };
        ctx.scale_v(sigma, rpow.col_mut(1));
        if let Some(upow) = upow.as_mut() {
            ctx.pc_apply(rpow.col(1), upow.col_mut(1));
        }
        let mpk = chain == Chain::Mpk;
        let mut basis = PowerBasis {
            rpow,
            upow,
            sigma,
            mpk,
        };
        basis.extend(ctx, 1, s);
        basis
    }

    /// The `(upow, rpow)` pair: u-type and r-type list.
    pub(crate) fn lists(&self) -> (&MultiVector, &MultiVector) {
        (self.upow.as_ref().unwrap_or(&self.rpow), &self.rpow)
    }

    /// Zero [`DirBlocks`] for the pipelined recurrences, one per list:
    /// the u-type blocks, then (dual lists) the r-type ones.
    pub(crate) fn dir_blocks<C: Context>(&self, ctx: &mut C, s: usize) -> Vec<DirBlocks> {
        let lists = if self.upow.is_some() { 2 } else { 1 };
        (0..lists).map(|_| DirBlocks::new(ctx, s)).collect()
    }

    /// The residual column `rpow[0]`.
    pub(crate) fn residual_mut(&mut self) -> &mut [f64] {
        self.rpow.col_mut(0)
    }

    /// Extends the chain(s) from power `from` to power `to`:
    /// `rpow[j+1] = σ·A·upow[j]`, `upow[j+1] = M⁻¹ rpow[j+1]` — `to − from`
    /// SPMVs (and PCs, plus the boundary PC `upow[0] = M⁻¹ rpow[0]` when
    /// starting from a fresh residual). With `from = s, to = 2s` this is
    /// the pipelined methods' overlap window.
    pub(crate) fn extend<C: Context>(&mut self, ctx: &mut C, from: usize, to: usize) {
        let (rpow, sigma) = (&mut self.rpow, self.sigma);
        match self.upow.as_mut() {
            None if self.mpk => ctx.mpk(rpow, from, to, sigma),
            None => {
                for j in from..to {
                    let (src, dst) = rpow.col_pair_mut(j, j + 1);
                    ctx.spmv(src, dst);
                    scale_link(ctx, sigma, dst);
                }
            }
            Some(upow) => {
                if from == 0 {
                    ctx.pc_apply(rpow.col(0), upow.col_mut(0));
                }
                for j in from..to {
                    ctx.spmv(upow.col(j), rpow.col_mut(j + 1));
                    scale_link(ctx, sigma, rpow.col_mut(j + 1));
                    ctx.pc_apply(rpow.col(j + 1), upow.col_mut(j + 1));
                }
            }
        }
    }

    /// Restarts the basis from the true residual: `rpow[0] = b − A x`
    /// (through the scratch `ax`), then the first `s` powers — the `s + 1`
    /// SPMVs (and PCs) per iteration of Algorithms 2–3, and the
    /// non-recurrence pass of PIPECG-OATI.
    pub(crate) fn restart<C: Context>(
        &mut self,
        ctx: &mut C,
        x: &[f64],
        b: &[f64],
        ax: &mut [f64],
        s: usize,
    ) {
        ctx.spmv(x, ax);
        ctx.waxpy(self.residual_mut(), -1.0, ax, b);
        self.extend(ctx, 0, s);
    }

    /// The local Gram packet of the current basis against `udirs`.
    pub(crate) fn gram_packet<C: Context>(
        &self,
        ctx: &mut C,
        udirs: &MultiVector,
        packet: &mut GramPacketBuf,
    ) {
        let (upow, rpow) = self.lists();
        ctx.local_gram_packet(upow, rpow, udirs, packet);
    }

    /// The recurrence phase of one pipelined iteration
    /// ([`Context::block_recurrence_step`]) over one family per list
    /// (`blocks` from [`PowerBasis::dir_blocks`]), followed by
    /// `x += Q·(σα)`. `shift` and `extra_vma_flops_per_row` as
    /// in [`RecurrenceStep`].
    pub(crate) fn recurrence_step<C: Context>(
        &mut self,
        ctx: &mut C,
        blocks: &mut [DirBlocks],
        scalar: &ScalarWork,
        (shift, extra_vma_flops_per_row): (bool, f64),
        packet: &mut GramPacketBuf,
        x: &mut [f64],
    ) {
        let mut run = |families: &mut [RecurrenceFamily<'_>]| {
            ctx.block_recurrence_step(
                RecurrenceStep {
                    families,
                    b: &scalar.b,
                    alpha: &scalar.alpha,
                    alpha_x: &scalar.alpha_x,
                    shift,
                    extra_vma_flops_per_row,
                    packet,
                },
                x,
            )
        };
        match (self.upow.as_mut(), blocks) {
            (None, [d]) => run(&mut [d.family(&mut self.rpow)]),
            (Some(upow), [u, r]) => run(&mut [u.family(upow), r.family(&mut self.rpow)]),
            _ => unreachable!("one DirBlocks per power list"),
        }
    }
}

/// The s-step methods' breakdown predicate on a packet's norms: the
/// recurrences have left the basin of useful arithmetic — a diverged
/// relative residual, or a negative `(r, u)` on an SPD system.
pub(crate) fn diverged(norms: [f64; 3]) -> impl FnOnce(f64) -> bool {
    move |relres| relres > 1e8 || norms[2] < 0.0
}

/// `v *= σ`, skipped for the identity scale.
#[expect(clippy::float_cmp, reason = "sigma is set, never computed")]
fn scale_link<C: Context>(ctx: &mut C, sigma: f64, v: &mut [f64]) {
    if sigma != 1.0 {
        ctx.scale_v(sigma, v);
    }
}

/// Cross-iteration scalar state of an s-step method. Every matrix and
/// vector the per-pass solves need is allocated once, here.
#[derive(Debug, Clone)]
pub struct ScalarWork {
    s: usize,
    /// `W = PᵀA P` of the current directions (valid once `have_w`).
    w: DenseMatrix,
    have_w: bool,
    /// Conjugation matrix for the upcoming basis update.
    pub b: DenseMatrix,
    /// Step coefficients for the upcoming solution update.
    pub alpha: Vec<f64>,
    /// `σ·α`, the coefficients of `x += Q·(σα)` in the σ-scaled basis
    /// (filled by [`ScalarWork::scale_alpha`]).
    pub alpha_x: Vec<f64>,
    /// Candidates of a step in progress (committed only on success) and
    /// `s × s` temporaries.
    b_new: DenseMatrix,
    w_new: DenseMatrix,
    alpha_new: Vec<f64>,
    n: DenseMatrix,
    c: DenseMatrix,
    t1: DenseMatrix,
    t2: DenseMatrix,
    t3: DenseMatrix,
    g: Vec<f64>,
    col: Vec<f64>,
    eig: EquilibratedEig,
}

/// Scalar-work failure: the `s × s` system was singular or produced
/// non-finite coefficients (basis collapse — the monomial basis ran out of
/// precision).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Breakdown;

impl ScalarWork {
    /// Fresh state for a given `s`.
    pub fn new(s: usize) -> Self {
        let (mat, vec) = (DenseMatrix::zeros(s, s), vec![0.0; s]);
        ScalarWork {
            s,
            w: mat.clone(),
            have_w: false,
            b: mat.clone(),
            alpha: vec.clone(),
            alpha_x: vec.clone(),
            b_new: mat.clone(),
            w_new: mat.clone(),
            alpha_new: vec.clone(),
            n: mat.clone(),
            c: mat.clone(),
            t1: mat.clone(),
            t2: mat.clone(),
            t3: mat,
            g: vec.clone(),
            col: vec,
            eig: EquilibratedEig::new(s),
        }
    }

    /// The `α` and `B` the recurrences last used, for the telemetry of the
    /// next convergence check (the s-step methods carry no γ scalar).
    pub(crate) fn report(&self) -> Scalars<'_> {
        Scalars(&self.alpha, self.b.data(), f64::NAN)
    }

    /// Refreshes [`ScalarWork::alpha_x`] `= σ·α` after a successful
    /// [`ScalarWork::step`].
    pub fn scale_alpha(&mut self, sigma: f64) {
        for (ax, a) in self.alpha_x.iter_mut().zip(&self.alpha) {
            *ax = a * sigma;
        }
    }

    /// Consumes one (globally reduced) packet; on success `self.b` and
    /// `self.alpha` hold the coefficients for the next basis update. On
    /// breakdown the state is what it was. Allocates nothing.
    pub fn step<C: Context>(&mut self, ctx: &mut C, pkt: &GramPacket) -> Result<(), Breakdown> {
        assert_eq!(pkt.s, self.s);
        let s = self.s;
        self.n.data_mut().copy_from_slice(pkt.n());
        self.c.data_mut().copy_from_slice(pkt.c());
        if self.have_w {
            // B = -W_prev^{-1} C, one column of C at a time.
            if !self.eig.factor(&self.w) {
                return Err(Breakdown);
            }
            for j in 0..s {
                for i in 0..s {
                    self.col[i] = self.c.get(i, j);
                }
                if !self.eig.solve(&self.col, &mut self.g) {
                    return Err(Breakdown);
                }
                for i in 0..s {
                    self.b_new.set(i, j, self.g[i]);
                }
            }
            self.b_new.scale(-1.0);
            // W = N + Cᵀ B + Bᵀ C + Bᵀ W_prev B
            self.w_new.copy_from(&self.n);
            self.c.transpose_into(&mut self.t1);
            self.t1.matmul_into(&self.b_new, &mut self.t2); // CᵀB
            self.w_new.add_assign(&self.t2);
            self.t2.transpose_into(&mut self.t1); // BᵀC
            self.w_new.add_assign(&self.t1);
            self.w.matmul_into(&self.b_new, &mut self.t1); // W_prev B
            self.b_new.transpose_into(&mut self.t2);
            self.t2.matmul_into(&self.t1, &mut self.t3); // Bᵀ W_prev B
            self.w_new.add_assign(&self.t3);
        } else {
            self.b_new.data_mut().fill(0.0);
            self.w_new.copy_from(&self.n);
        }
        self.w_new.symmetrize();
        // g = g1 + Bᵀ g2
        self.b_new.transpose_into(&mut self.t1);
        self.t1.matvec_into(pkt.g2(), &mut self.col);
        self.g.copy_from_slice(pkt.g1());
        for (gi, v) in self.g.iter_mut().zip(&self.col) {
            *gi += v;
        }
        if !self.eig.factor(&self.w_new) || !self.eig.solve(&self.g, &mut self.alpha_new) {
            return Err(Breakdown);
        }
        if self.alpha_new.iter().any(|a| !a.is_finite())
            || self.b_new.data().iter().any(|v| !v.is_finite())
        {
            return Err(Breakdown);
        }
        // Two s×s LU solves plus the small matrix products.
        let sf = s as f64;
        ctx.charge_scalar(4.0 * sf * sf * sf + 8.0 * sf * sf);
        std::mem::swap(&mut self.b, &mut self.b_new);
        std::mem::swap(&mut self.w, &mut self.w_new);
        std::mem::swap(&mut self.alpha, &mut self.alpha_new);
        self.have_w = true;
        Ok(())
    }
}

/// Relative eigenvalue cutoff of the rank-revealing scalar solves.
const PINV_RELATIVE_CUTOFF: f64 = 1e-13;

/// Equilibrated, rank-truncated eigendecomposition of an s-step Gram matrix
/// (`W` is an A-Gram matrix, symmetric positive semidefinite up to
/// roundoff), with the work space of its factorisation and solves.
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
/// the correct step in the well-determined ones. `factor` fails only when
/// the spectrum is unusable (non-finite or non-positive), `solve` only on a
/// non-finite solution.
#[derive(Debug, Clone)]
struct EquilibratedEig {
    d: Vec<f64>,
    lam: Vec<f64>,
    v: DenseMatrix,
    cutoff: f64,
    wbar: DenseMatrix,
    rot: DenseMatrix,
    gbar: Vec<f64>,
    xbar: Vec<f64>,
}

impl EquilibratedEig {
    fn new(s: usize) -> EquilibratedEig {
        let (mat, vec) = (DenseMatrix::zeros(s, s), vec![0.0; s]);
        EquilibratedEig {
            d: vec.clone(),
            lam: vec.clone(),
            v: mat.clone(),
            cutoff: 0.0,
            wbar: mat.clone(),
            rot: mat,
            gbar: vec.clone(),
            xbar: vec,
        }
    }

    /// Factors `w`; false when its spectrum is unusable.
    fn factor(&mut self, w: &DenseMatrix) -> bool {
        let s = w.nrows();
        for (i, d) in self.d.iter_mut().enumerate() {
            let wii = w.get(i, i);
            *d = if wii > 0.0 && wii.is_finite() {
                wii.sqrt()
            } else {
                1.0
            };
        }
        for i in 0..s {
            for j in 0..s {
                self.wbar.set(i, j, w.get(i, j) / (self.d[i] * self.d[j]));
            }
        }
        self.wbar
            .sym_eig_into(&mut self.rot, &mut self.v, &mut self.lam);
        let lmax = self.lam.iter().copied().fold(0.0f64, f64::max);
        self.cutoff = PINV_RELATIVE_CUTOFF * lmax;
        lmax > 0.0 && lmax.is_finite()
    }

    /// Solves `W x = g` with the last factorisation; false when `x` is not
    /// finite.
    fn solve(&mut self, g: &[f64], x: &mut [f64]) -> bool {
        let s = self.d.len();
        for i in 0..s {
            self.gbar[i] = g[i] / self.d[i];
        }
        self.xbar.fill(0.0);
        for (k, &l) in self.lam.iter().enumerate() {
            if l <= self.cutoff {
                continue;
            }
            let mut proj = 0.0;
            for i in 0..s {
                proj += self.v.get(i, k) * self.gbar[i];
            }
            let coef = proj / l;
            for i in 0..s {
                self.xbar[i] += coef * self.v.get(i, k);
            }
        }
        for i in 0..s {
            x[i] = self.xbar[i] / self.d[i];
        }
        x.iter().all(|v| v.is_finite())
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
    fn packet_view_slices_the_flat_encoding() {
        let s = 3;
        let flat: Vec<f64> = (0..GramPacket::len(s)).map(|i| i as f64).collect();
        let pkt = GramPacket::view(s, &flat);
        assert_eq!(pkt.n(), &flat[0..9]);
        assert_eq!(pkt.c(), &flat[9..18]);
        assert_eq!(pkt.g1(), &flat[18..21]);
        assert_eq!(pkt.g2(), &flat[21..24]);
        assert_eq!(pkt.norms(), [24.0, 25.0, 26.0]);
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
        let mut packet = GramPacketBuf::new(1);
        ctx.local_gram_packet(&upow, &rpow, &dirs, &mut packet);
        let mut sw = ScalarWork::new(1);
        sw.step(&mut ctx, &GramPacket::view(1, packet.flat()))
            .unwrap();
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
        // N singular, C zero, g1 = (1, 1), g2 zero, unit norms.
        let mut flat = vec![0.0; GramPacket::len(2)];
        flat[8..10].fill(1.0);
        flat[12..15].fill(1.0);
        let mut sw = ScalarWork::new(2);
        assert_eq!(
            sw.step(&mut ctx, &GramPacket::view(2, &flat)),
            Err(Breakdown)
        );
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
        let mut packet = GramPacketBuf::new(1);
        ctx.local_gram_packet(&upow, &rpow, &dirs, &mut packet);
        let norms = GramPacket::view(1, packet.flat()).norms();
        let nf = n as f64;
        assert!((norms[0] - 4.0 * nf).abs() < 1e-12); // r·r
        assert!((norms[1] - 0.25 * nf).abs() < 1e-12); // u·u
        assert!((norms[2] - 1.0 * nf).abs() < 1e-12); // r·u
    }
}
