//! Multigrid V-cycle preconditioning: geometric (`MG`) and smoothed
//! aggregation (`GAMG`) setups over one cycle engine.
//!
//! Both setups build a hierarchy `A₀ = A, A_{l+1} = PᵀA_l P` (Galerkin) and
//! apply one V-cycle with weighted-Jacobi smoothing per preconditioner
//! application; the coarsest system is solved directly by dense LU. A
//! symmetric cycle (same pre- and post-smoothing, symmetric smoother) keeps
//! the preconditioner SPD, as CG requires.
//!
//! The cycle does only the work whose result it uses. Level 0 borrows the
//! caller's matrix instead of copying it. Pre-smoothing starts from
//! `x = 0`, so its first sweep needs no product (`A·0 = +0`): each
//! non-coarsest level streams its operator twice per cycle (residual and
//! post-smoothing), not three times. `apply` reads `r` as the fine
//! right-hand side and writes the fine iterate straight into `u`, and no
//! step allocates. The output is bitwise that of the textbook cycle
//! (zero, smooth, residual, restrict, correct, smooth), which the tests
//! keep as their oracle.
//!
//! * [`gmg`] coarsens a structured [`Grid3`] by factor 2 per dimension with
//!   (tri)linear interpolation — the stand-in for PETSc `PCMG` on a DMDA.
//! * [`gamg`] is classic Vaněk-style smoothed aggregation: strength graph →
//!   greedy aggregation → tentative prolongator → one damped-Jacobi
//!   smoothing step — the stand-in for PETSc `PCGAMG`. It needs no grid, so
//!   it also serves unstructured surrogates.

use std::borrow::Cow;

use pscg_sparse::dense::{DenseMatrix, LuFactors};
use pscg_sparse::op::{ApplyCost, Operator};
use pscg_sparse::stencil::Grid3;
use pscg_sparse::{CooMatrix, CsrMatrix};

/// Weighted-Jacobi sweeps per pre/post-smoothing stage.
const NSMOOTH: usize = 1;

/// Weighted-Jacobi damping factor.
const OMEGA: f64 = 2.0 / 3.0;

/// One level of the hierarchy.
struct Level<'a> {
    /// The level's operator; level 0 borrows the caller's matrix.
    a: Cow<'a, CsrMatrix>,
    inv_diag: Vec<f64>,
    /// The way down to the next-coarser level (absent on the coarsest,
    /// which is solved directly).
    down: Option<Down>,
}

/// Grid transfer from a level to the next-coarser one, with the work
/// vectors the cycle needs for it.
struct Down {
    /// Prolongation from the next-coarser level.
    p: CsrMatrix,
    /// Transpose of `p` (restriction).
    pt: CsrMatrix,
    /// This level's work vector: `A x`, then the residual, then the
    /// prolongated correction.
    tmp: Vec<f64>,
    /// Right-hand side of the next-coarser level.
    rhs: Vec<f64>,
    /// Iterate of the next-coarser level.
    x: Vec<f64>,
}

impl Down {
    fn new(p: CsrMatrix) -> Self {
        Down {
            pt: p.transpose(),
            tmp: vec![0.0; p.nrows()],
            rhs: vec![0.0; p.ncols()],
            x: vec![0.0; p.ncols()],
            p,
        }
    }
}

/// A V-cycle multigrid preconditioner (see module docs). It borrows the
/// fine-level operator for `'a`.
pub struct Multigrid<'a> {
    levels: Vec<Level<'a>>,
    coarse_lu: LuFactors,
    cost: ApplyCost,
    label: &'static str,
}

/// Smallest system handed to the dense coarse solver.
const COARSE_LIMIT: usize = 200;

impl<'a> Multigrid<'a> {
    /// Assembles the hierarchy from its operators (finest first) and the
    /// prolongations between consecutive ones.
    fn build(mats: Vec<Cow<'a, CsrMatrix>>, ps: Vec<CsrMatrix>, label: &'static str) -> Self {
        assert_eq!(mats.len(), ps.len() + 1);
        let mut ps = ps.into_iter();
        let levels: Vec<Level<'a>> = mats
            .into_iter()
            .map(|a| Level {
                inv_diag: a.diagonal().iter().map(|&d| 1.0 / d).collect(),
                down: ps.next().map(Down::new),
                a,
            })
            .collect();
        // Dense LU of the coarsest operator.
        let coarse = &levels.last().unwrap().a;
        let nc = coarse.nrows();
        assert!(
            nc <= 50 * COARSE_LIMIT,
            "multigrid setup failed to coarsen: coarsest level still has {nc} rows \
             (dense solve would be infeasible); check the strength threshold"
        );
        let mut dense = DenseMatrix::zeros(nc, nc);
        for r in 0..nc {
            for (k, &c) in coarse.row_cols(r).iter().enumerate() {
                dense.set(r, c as usize, coarse.row_vals(r)[k]);
            }
        }
        let coarse_lu = dense.lu().expect("coarse-level operator is singular");

        let cost = Self::declared_cost(&levels, NSMOOTH);
        Multigrid {
            levels,
            coarse_lu,
            cost,
            label,
        }
    }

    /// The machine model's price of one apply of the built hierarchy. It
    /// still counts the zero-guess product the cycle skips, i.e. three
    /// operator passes per non-coarsest level (DESIGN.md §12.6).
    fn declared_cost(levels: &[Level], nsmooth: usize) -> ApplyCost {
        let n0 = levels[0].a.nrows() as f64;
        let mut flops = 0.0;
        for (l, lvl) in levels.iter().enumerate() {
            let nnz = lvl.a.nnz() as f64;
            let n = lvl.a.nrows() as f64;
            if l + 1 == levels.len() {
                // Dense triangular solves.
                flops += 2.0 * n * n;
            } else {
                // pre+post smoothing, residual, restriction, prolongation.
                flops += 2.0 * nsmooth as f64 * (2.0 * nnz + 3.0 * n);
                flops += 2.0 * nnz + n;
                let nnzp = lvl.down.as_ref().map_or(0.0, |d| d.p.nnz() as f64);
                flops += 4.0 * nnzp;
            }
        }
        ApplyCost {
            flops_per_row: flops / n0,
            // Sparse kernels stream ~8 bytes per flop.
            bytes_per_row: 8.0 * flops / n0,
            // Fine-level smoother exchanges dominate the communication: the
            // per-level volume shrinks ~8x per level and production
            // multigrid (PETSc PCMG/PCGAMG) agglomerates coarse grids onto
            // sub-communicators precisely so that coarse levels do not pay
            // full-machine latency. Three halo-equivalent rounds cover the
            // fine level plus the (volume-decayed) remainder.
            comm_rounds: 3,
        }
    }

    /// Number of levels (≥ 1).
    pub fn nlevels(&self) -> usize {
        self.levels.len()
    }

    /// `(rows, nnz)` of every sparse product one apply runs: per
    /// non-coarsest level `2·NSMOOTH` passes over its operator (the
    /// residual, the post-smoothing sweeps and any pre-smoothing sweep after
    /// the first), one over `Pᵀ` and one over `P`. The coarsest level is a
    /// dense solve.
    pub fn cycle_spmvs(&self) -> Vec<(usize, usize)> {
        let mut out = Vec::new();
        for lvl in &self.levels {
            if let Some(d) = &lvl.down {
                let a = (lvl.a.nrows(), lvl.a.nnz());
                out.extend(std::iter::repeat_n(a, 2 * NSMOOTH));
                out.extend([(d.pt.nrows(), d.pt.nnz()), (d.p.nrows(), d.p.nnz())]);
            }
        }
        out
    }
}

/// One V-cycle for `levels[0]·x = rhs`. `x` is output only: the cycle
/// starts from `x = 0` without reading it.
fn vcycle(levels: &mut [Level], coarse_lu: &LuFactors, rhs: &[f64], x: &mut [f64]) {
    let (lvl, rest) = levels.split_first_mut().expect("a hierarchy has a level");
    let Some(down) = lvl.down.as_mut() else {
        coarse_lu.solve_into(rhs, x);
        return;
    };
    let (a, inv_diag) = (&*lvl.a, &lvl.inv_diag[..]);
    presmooth_from_zero(a, inv_diag, rhs, x, &mut down.tmp);
    // Residual, restricted to the next-coarser right-hand side.
    a.spmv(x, &mut down.tmp);
    for (t, &b) in down.tmp.iter_mut().zip(rhs) {
        *t = b - *t;
    }
    down.pt.spmv(&down.tmp, &mut down.rhs);
    // Coarse correction.
    vcycle(rest, coarse_lu, &down.rhs, &mut down.x);
    down.p.spmv(&down.x, &mut down.tmp);
    for (xi, &t) in x.iter_mut().zip(&down.tmp) {
        *xi += t;
    }
    for _ in 0..NSMOOTH {
        smooth(a, inv_diag, rhs, x, &mut down.tmp);
    }
}

/// Pre-smoothing from `x = 0`. The first sweep's product `A·0` is `+0` in
/// every row (each SpMV chain starts at `+0.0` and adds signed zeros), so
/// that sweep is `x = 0 + ω D⁻¹ (rhs − 0)` with no SpMV; the `0.0 +` turns
/// a `−0` update into `+0`, as `x = 0; x += …` did.
fn presmooth_from_zero(
    a: &CsrMatrix,
    inv_diag: &[f64],
    rhs: &[f64],
    x: &mut [f64],
    tmp: &mut [f64],
) {
    for ((xi, &d), &b) in x.iter_mut().zip(inv_diag).zip(rhs) {
        *xi = 0.0 + OMEGA * d * (b - 0.0);
    }
    // Any later sweep starts from a nonzero iterate.
    for _ in (0..NSMOOTH).skip(1) {
        smooth(a, inv_diag, rhs, x, tmp);
    }
}

/// One weighted-Jacobi sweep `x += ω D⁻¹ (rhs − A x)`, `tmp` holding `A x`.
fn smooth(a: &CsrMatrix, inv_diag: &[f64], rhs: &[f64], x: &mut [f64], tmp: &mut [f64]) {
    a.spmv(x, tmp);
    for (((xi, &d), &b), &t) in x.iter_mut().zip(inv_diag).zip(rhs).zip(&*tmp) {
        *xi += OMEGA * d * (b - t);
    }
}

impl Operator for Multigrid<'_> {
    fn nrows(&self) -> usize {
        self.levels[0].a.nrows()
    }

    fn apply(&mut self, r: &[f64], u: &mut [f64]) {
        let n = self.nrows();
        assert_eq!(r.len(), n, "multigrid apply: r length mismatch");
        assert_eq!(u.len(), n, "multigrid apply: u length mismatch");
        vcycle(&mut self.levels, &self.coarse_lu, r, u);
    }

    fn cost(&self) -> ApplyCost {
        self.cost
    }

    fn name(&self) -> &str {
        self.label
    }
}

// ---------------------------------------------------------------------------
// Geometric setup
// ---------------------------------------------------------------------------

/// Geometric multigrid for an operator assembled on `grid`: factor-2
/// coarsening with (tri)linear interpolation and Galerkin coarse operators.
/// The fine level borrows `a`.
pub fn gmg(a: &CsrMatrix, grid: Grid3) -> Multigrid<'_> {
    assert_eq!(a.nrows(), grid.len(), "gmg: grid does not match the matrix");
    let mut mats = vec![Cow::Borrowed(a)];
    let mut ps = Vec::new();
    let mut g = grid;
    while mats.last().unwrap().nrows() > COARSE_LIMIT {
        let (p, gc) = linear_interpolation(g);
        if p.ncols() >= p.nrows() {
            break; // no further coarsening possible
        }
        let ac = mats.last().unwrap().rap(&p);
        mats.push(Cow::Owned(ac));
        ps.push(p);
        g = gc;
    }
    Multigrid::build(mats, ps, "MG")
}

/// Builds the (tri)linear interpolation from the factor-2-coarsened grid of
/// `g` back to `g`, returning it with the coarse grid.
fn linear_interpolation(g: Grid3) -> (CsrMatrix, Grid3) {
    let coarse = Grid3::new(
        g.nx.div_ceil(2).max(1),
        g.ny.div_ceil(2).max(1),
        g.nz.div_ceil(2).max(1),
    );
    // Per-dimension stencils: an even fine index sits on a coarse point; an
    // odd one averages its two coarse neighbours (clamped at the boundary).
    let dim_weights = |x: usize, cn: usize| -> Vec<(usize, f64)> {
        if x.is_multiple_of(2) {
            vec![(x / 2, 1.0)]
        } else {
            let lo = x / 2;
            let hi = (lo + 1).min(cn - 1);
            if hi == lo {
                vec![(lo, 1.0)]
            } else {
                vec![(lo, 0.5), (hi, 0.5)]
            }
        }
    };
    let mut coo = CooMatrix::with_capacity(g.len(), coarse.len(), g.len() * 8);
    for z in 0..g.nz {
        let wz = dim_weights(z, coarse.nz);
        for y in 0..g.ny {
            let wy = dim_weights(y, coarse.ny);
            for x in 0..g.nx {
                let wx = dim_weights(x, coarse.nx);
                let row = g.idx(x, y, z);
                for &(cz, az) in &wz {
                    for &(cy, ay) in &wy {
                        for &(cx, ax) in &wx {
                            coo.push(row, coarse.idx(cx, cy, cz), ax * ay * az).unwrap();
                        }
                    }
                }
            }
        }
    }
    let p = coo
        .to_csr()
        .expect("prolongator has fewer columns than the fine operator");
    (p, coarse)
}

// ---------------------------------------------------------------------------
// Smoothed-aggregation setup
// ---------------------------------------------------------------------------

/// Strength-of-connection threshold, *relative to the largest off-diagonal
/// of the row*: `|a_ij| > θ · max_k |a_ik|`. The classic
/// `|a_ij| > θ√(a_ii a_jj)` test degenerates on wide stencils (the 125-pt
/// operator has diag ≈ 42 with unit off-diagonals, so nothing is "strong"
/// and aggregation would produce only singletons); the row-relative measure
/// is scale-free.
const SA_THETA: f64 = 0.5;

/// Smoothed-aggregation AMG (the `GAMG` stand-in); works on any SPD matrix.
/// The fine level borrows `a`.
pub fn gamg(a: &CsrMatrix) -> Multigrid<'_> {
    let mut mats = vec![Cow::Borrowed(a)];
    let mut ps = Vec::new();
    while mats.last().unwrap().nrows() > COARSE_LIMIT {
        let fine = mats.last().unwrap();
        let agg = aggregate(fine);
        let nagg = agg.iter().copied().max().map_or(0, |m| m + 1);
        if nagg == 0 || nagg >= fine.nrows() {
            break;
        }
        let p = smoothed_prolongator(fine, &agg, nagg);
        let ac = fine.rap(&p);
        mats.push(Cow::Owned(ac));
        ps.push(p);
    }
    Multigrid::build(mats, ps, "GAMG")
}

/// Greedy aggregation over the strength graph. Returns, per row, its
/// aggregate id.
fn aggregate(a: &CsrMatrix) -> Vec<usize> {
    let n = a.nrows();
    // Largest off-diagonal magnitude per row, for the relative strength test.
    let row_max: Vec<f64> = (0..n)
        .map(|r| {
            a.row_cols(r)
                .iter()
                .zip(a.row_vals(r))
                .filter(|(&c, _)| c as usize != r)
                .map(|(_, v)| v.abs())
                .fold(0.0f64, f64::max)
        })
        .collect();
    let strong = |r: usize, k: usize| -> bool {
        if a.row_cols(r)[k] as usize == r {
            return false;
        }
        let v = a.row_vals(r)[k].abs();
        v > SA_THETA * row_max[r]
    };
    const UNASSIGNED: usize = usize::MAX;
    let mut agg = vec![UNASSIGNED; n];
    let mut nagg = 0;
    // Pass 1: roots whose strong neighbourhood is fully unassigned.
    for r in 0..n {
        if agg[r] != UNASSIGNED {
            continue;
        }
        let mut free = true;
        for k in 0..a.row_cols(r).len() {
            if strong(r, k) && agg[a.row_cols(r)[k] as usize] != UNASSIGNED {
                free = false;
                break;
            }
        }
        if free {
            agg[r] = nagg;
            for k in 0..a.row_cols(r).len() {
                if strong(r, k) {
                    agg[a.row_cols(r)[k] as usize] = nagg;
                }
            }
            nagg += 1;
        }
    }
    // Pass 2: attach leftovers to a strongly connected aggregate, or make
    // them singletons.
    for r in 0..n {
        if agg[r] != UNASSIGNED {
            continue;
        }
        let mut joined = false;
        for k in 0..a.row_cols(r).len() {
            let c = a.row_cols(r)[k] as usize;
            if strong(r, k) && agg[c] != UNASSIGNED {
                agg[r] = agg[c];
                joined = true;
                break;
            }
        }
        if !joined {
            agg[r] = nagg;
            nagg += 1;
        }
    }
    agg
}

/// Tentative piecewise-constant prolongator smoothed with one damped-Jacobi
/// step: `P = (I − ω D⁻¹ A) P_tent`, ω = 2/3 / ρ(D⁻¹A).
fn smoothed_prolongator(a: &CsrMatrix, agg: &[usize], nagg: usize) -> CsrMatrix {
    let n = a.nrows();
    let mut tent = CooMatrix::with_capacity(n, nagg, n);
    for (r, &g) in agg.iter().enumerate() {
        tent.push(r, g, 1.0).unwrap();
    }
    let tent = tent
        .to_csr()
        .expect("tentative prolongator has fewer columns than the fine operator");
    let inv_diag: Vec<f64> = a.diagonal().iter().map(|&d| 1.0 / d).collect();
    let rho = estimate_rho_dinv_a(a, &inv_diag);
    let omega = if rho > 0.0 {
        (2.0 / 3.0) / rho
    } else {
        2.0 / 3.0
    };
    // P = tent − ω D⁻¹ (A · tent)
    let atent = a.matmul(&tent);
    let mut coo = CooMatrix::with_capacity(n, nagg, atent.nnz() + n);
    for r in 0..n {
        coo.push(r, agg[r], 1.0).unwrap();
        for (k, &c) in atent.row_cols(r).iter().enumerate() {
            coo.push(r, c as usize, -omega * inv_diag[r] * atent.row_vals(r)[k])
                .unwrap();
        }
    }
    coo.to_csr()
        .expect("smoothed prolongator has fewer columns than the fine operator")
}

/// Power iteration estimate of the spectral radius of `D⁻¹A`.
fn estimate_rho_dinv_a(a: &CsrMatrix, inv_diag: &[f64]) -> f64 {
    let n = a.nrows();
    let mut v: Vec<f64> = (0..n).map(|i| 1.0 + (i % 7) as f64 * 0.1).collect();
    let mut av = vec![0.0; n];
    let mut rho = 1.0;
    for _ in 0..8 {
        let norm = pscg_sparse::kernels::norm2(&v);
        // pscg-lint: allow(float-eq, exact-zero norm guard before normalising)
        if norm == 0.0 {
            break;
        }
        v.iter_mut().for_each(|x| *x /= norm);
        a.spmv(&v, &mut av);
        for i in 0..n {
            av[i] *= inv_diag[i];
        }
        rho = pscg_sparse::kernels::norm2(&av);
        std::mem::swap(&mut v, &mut av);
    }
    rho
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{richardson, small_poisson};
    use pscg_sparse::stencil::{poisson3d_125pt, poisson3d_7pt};
    use pscg_sparse::SplitMix64;

    /// One level of the textbook V-cycle, the oracle of [`vcycle`]: the
    /// cycle as it was before it skipped the zero-guess product, with its
    /// own iterate, right-hand side, residual and work vector per level.
    struct RefLevel<'m> {
        a: &'m CsrMatrix,
        inv_diag: &'m [f64],
        p: Option<&'m CsrMatrix>,
        pt: Option<&'m CsrMatrix>,
        x: Vec<f64>,
        rhs: Vec<f64>,
        res: Vec<f64>,
        tmp: Vec<f64>,
    }

    impl<'m> RefLevel<'m> {
        fn new(lvl: &'m Level) -> Self {
            let n = lvl.a.nrows();
            RefLevel {
                a: &lvl.a,
                inv_diag: &lvl.inv_diag,
                p: lvl.down.as_ref().map(|d| &d.p),
                pt: lvl.down.as_ref().map(|d| &d.pt),
                x: vec![0.0; n],
                rhs: vec![0.0; n],
                res: vec![0.0; n],
                tmp: vec![0.0; n],
            }
        }
    }

    fn ref_vcycle(levels: &mut [RefLevel], coarse_lu: &LuFactors, nsmooth: usize, omega: f64) {
        let nlev = levels.len();
        if nlev == 1 {
            let lvl = &mut levels[0];
            lvl.x = coarse_lu.solve(&lvl.rhs);
            return;
        }
        let (lvl, rest) = levels.split_first_mut().unwrap();
        // x = 0; pre-smooth.
        lvl.x.iter_mut().for_each(|v| *v = 0.0);
        for _ in 0..nsmooth {
            ref_smooth(lvl, omega);
        }
        // Residual and restriction.
        lvl.a.spmv(&lvl.x, &mut lvl.tmp);
        for i in 0..lvl.res.len() {
            lvl.res[i] = lvl.rhs[i] - lvl.tmp[i];
        }
        lvl.pt.unwrap().spmv(&lvl.res, &mut rest[0].rhs);
        // Coarse correction.
        ref_vcycle(rest, coarse_lu, nsmooth, omega);
        lvl.p.unwrap().spmv(&rest[0].x, &mut lvl.tmp);
        for i in 0..lvl.x.len() {
            lvl.x[i] += lvl.tmp[i];
        }
        // Post-smooth.
        for _ in 0..nsmooth {
            ref_smooth(lvl, omega);
        }
    }

    fn ref_smooth(lvl: &mut RefLevel, omega: f64) {
        lvl.a.spmv(&lvl.x, &mut lvl.tmp);
        for i in 0..lvl.x.len() {
            lvl.x[i] += omega * lvl.inv_diag[i] * (lvl.rhs[i] - lvl.tmp[i]);
        }
    }

    /// The textbook apply: `r` copied in, one cycle (one ω = 2/3 sweep per
    /// stage), the fine iterate copied out.
    fn ref_apply(mg: &Multigrid, r: &[f64]) -> Vec<f64> {
        let mut levels: Vec<RefLevel> = mg.levels.iter().map(RefLevel::new).collect();
        levels[0].rhs.copy_from_slice(r);
        ref_vcycle(&mut levels, &mg.coarse_lu, 1, 2.0 / 3.0);
        levels.swap_remove(0).x
    }

    /// Right-hand sides of length `n`: random, all `−0.0`, and random with
    /// a block of `−0.0`.
    fn inputs(n: usize) -> [Vec<f64>; 3] {
        let mut rng = SplitMix64::new(0x6d67 + n as u64);
        let random: Vec<f64> = (0..n).map(|_| rng.uniform(-1.0, 1.0)).collect();
        let mut block = random.clone();
        block[n / 4..n / 2].iter_mut().for_each(|v| *v = -0.0);
        [random, vec![-0.0; n], block]
    }

    /// Panics at the first entry whose bits differ.
    fn assert_bitwise(got: &[f64], want: &[f64], what: &str) {
        assert_eq!(got.len(), want.len(), "{what}: length");
        if let Some(i) = (0..got.len()).find(|&i| got[i].to_bits() != want[i].to_bits()) {
            panic!(
                "{what}: entry {i} is {:e}, the reference {:e}",
                got[i], want[i]
            );
        }
    }

    #[test]
    fn cycle_is_bitwise_the_reference_cycle() {
        // Chunks small enough that every SpMV of the cycle splits.
        pscg_par::knobs::set_spmv_chunk_nnz(97);
        let (g13, g12, g543, g10) = (
            Grid3::cube(13),
            Grid3::cube(12),
            Grid3::new(5, 4, 3),
            Grid3::cube(10),
        );
        let a13 = poisson3d_7pt(g13, None);
        let a12 = poisson3d_125pt(g12);
        let a543 = poisson3d_7pt(g543, None);
        let a10 = poisson3d_7pt(g10, None);
        let mut hierarchies = [gmg(&a13, g13), gmg(&a12, g12), gmg(&a543, g543), gamg(&a10)];
        // The 5×4×3 grid is below the coarse limit: a coarse solve only.
        let nlevels: Vec<usize> = hierarchies.iter().map(Multigrid::nlevels).collect();
        assert_eq!(nlevels, [3, 3, 1, 2]);
        for threads in [1, 2, 4] {
            pscg_par::set_global_threads(threads);
            for mg in &mut hierarchies {
                for r in inputs(mg.nrows()) {
                    let want = ref_apply(mg, &r);
                    let mut got = vec![f64::NAN; r.len()];
                    mg.apply(&r, &mut got);
                    let what = format!("{} apply at {threads} thread(s)", mg.name());
                    assert_bitwise(&got, &want, &what);
                }
            }
        }
        // `apply` cannot see the sign of a zero in the pre-smoothed
        // iterate: every later use of it is an SpMV, whose chains start at
        // +0.0, or a sum with an SpMV result. So the zero-guess sweep is
        // also held to the reference's `x = 0` + sweep on its own, on every
        // level that smooths.
        for mg in &hierarchies {
            for lvl in mg.levels.iter().filter(|l| l.down.is_some()) {
                let n = lvl.a.nrows();
                for r in inputs(n) {
                    let mut want = RefLevel::new(lvl);
                    want.rhs.copy_from_slice(&r);
                    ref_smooth(&mut want, 2.0 / 3.0);
                    let (mut x, mut tmp) = (vec![f64::NAN; n], vec![0.0; n]);
                    presmooth_from_zero(&lvl.a, &lvl.inv_diag, &r, &mut x, &mut tmp);
                    assert_bitwise(&x, &want.x, &format!("{} pre-smoothing", mg.name()));
                }
            }
        }
    }

    #[test]
    fn declared_cost_keeps_its_bits() {
        // The model still charges three operator passes per level (the
        // zero-guess product included): it moves only with the cost model.
        let key = |c: ApplyCost| {
            (
                c.flops_per_row.to_bits(),
                c.bytes_per_row.to_bits(),
                c.comm_rounds,
            )
        };
        let g = Grid3::cube(12);
        let a = poisson3d_125pt(g);
        assert_eq!(
            key(gmg(&a, g).cost()),
            (0x4083_4036_84bd_a12f, 0x40b3_4036_84bd_a12f, 3)
        );
        let a = poisson3d_7pt(Grid3::cube(10), None);
        assert_eq!(
            key(gamg(&a).cost()),
            (0x4057_08f5_c28f_5c29, 0x4087_08f5_c28f_5c29, 3)
        );
    }

    #[test]
    fn cycle_passes_over_each_operator_twice() {
        let g = Grid3::cube(13);
        let a = poisson3d_7pt(g, None);
        let spmvs = gmg(&a, g).cycle_spmvs();
        // Two smoothing levels of four products each.
        assert_eq!(spmvs.len(), 8);
        let fine = spmvs.iter().filter(|&&s| s == (a.nrows(), a.nnz()));
        assert_eq!(fine.count(), 2);
    }

    #[test]
    fn linear_interpolation_partitions_unity() {
        let g = Grid3::new(5, 4, 3);
        let (p, gc) = linear_interpolation(g);
        assert_eq!(p.nrows(), g.len());
        assert_eq!(p.ncols(), gc.len());
        // Row sums of an interpolation operator are 1.
        let ones = vec![1.0; gc.len()];
        let y = p.mul_vec(&ones);
        for v in y {
            assert!((v - 1.0).abs() < 1e-14);
        }
    }

    #[test]
    fn gmg_builds_multiple_levels_and_contracts() {
        let g = Grid3::cube(12);
        let a = poisson3d_7pt(g, None);
        let mut mg = gmg(&a, g);
        assert!(mg.nlevels() >= 2, "levels = {}", mg.nlevels());
        let (r0, r1) = richardson(&a, &mut mg, 6);
        assert!(r1 < 1e-2 * r0, "MG should contract fast: {r0} -> {r1}");
    }

    #[test]
    fn gamg_builds_and_contracts() {
        let (a, _) = small_poisson();
        let mut mg = gamg(&a);
        assert!(mg.nlevels() >= 2);
        let (r0, r1) = richardson(&a, &mut mg, 8);
        assert!(r1 < 0.1 * r0, "GAMG should contract: {r0} -> {r1}");
    }

    #[test]
    fn aggregation_covers_every_row() {
        let (a, _) = small_poisson();
        let agg = aggregate(&a);
        let nagg = agg.iter().copied().max().unwrap() + 1;
        assert!(nagg < a.nrows());
        assert!(agg.iter().all(|&g| g < nagg));
    }

    #[test]
    fn multigrid_apply_is_symmetric() {
        // SPD preconditioner check: (M⁻¹x, y) == (x, M⁻¹y).
        let g = Grid3::cube(8);
        let a = poisson3d_7pt(g, None);
        let mut mg = gmg(&a, g);
        let n = a.nrows();
        let x: Vec<f64> = (0..n).map(|i| ((i * 31 % 17) as f64) - 8.0).collect();
        let y: Vec<f64> = (0..n).map(|i| ((i * 13 % 23) as f64) - 11.0).collect();
        let mut mx = vec![0.0; n];
        let mut my = vec![0.0; n];
        mg.apply(&x, &mut mx);
        mg.apply(&y, &mut my);
        let lhs = pscg_sparse::kernels::dot(&mx, &y);
        let rhs = pscg_sparse::kernels::dot(&x, &my);
        assert!(
            (lhs - rhs).abs() <= 1e-10 * lhs.abs().max(rhs.abs()),
            "asymmetric: {lhs} vs {rhs}"
        );
    }

    #[test]
    fn mg_cost_exceeds_sor_and_jacobi() {
        let (a, g) = small_poisson();
        let mg = gmg(&a, g);
        let sor = crate::Ssor::new(&a, 1.0);
        assert!(mg.cost().flops_per_row > sor.cost().flops_per_row);
        assert!(mg.cost().comm_rounds > 0);
    }

    #[test]
    fn gamg_cost_exceeds_gmg_cost() {
        // Smoothed-aggregation coarse operators are denser, so GAMG is the
        // most computationally intensive preconditioner — the paper's
        // premise in the Figure 4 discussion.
        let g = Grid3::cube(10);
        let a = poisson3d_7pt(g, None);
        let mg = gmg(&a, g);
        let ga = gamg(&a);
        assert!(
            ga.cost().flops_per_row > mg.cost().flops_per_row,
            "GAMG {} vs MG {}",
            ga.cost().flops_per_row,
            mg.cost().flops_per_row
        );
    }
}
