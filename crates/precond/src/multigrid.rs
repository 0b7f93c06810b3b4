//! Multigrid V-cycle preconditioning: geometric (`MG`) and smoothed
//! aggregation (`GAMG`) setups over one cycle engine.
//!
//! Both setups build a hierarchy `A₀ = A, A_{l+1} = PᵀA_l P` (Galerkin) and
//! apply one V-cycle with weighted-Jacobi smoothing per preconditioner
//! application; the coarsest system is solved directly by dense LU. A
//! symmetric cycle (same pre- and post-smoothing, symmetric smoother) keeps
//! the preconditioner SPD, as CG requires.
//!
//! * [`gmg`] coarsens a structured [`Grid3`] by factor 2 per dimension with
//!   (tri)linear interpolation — the stand-in for PETSc `PCMG` on a DMDA.
//! * [`gamg`] is classic Vaněk-style smoothed aggregation: strength graph →
//!   greedy aggregation → tentative prolongator → one damped-Jacobi
//!   smoothing step — the stand-in for PETSc `PCGAMG`. It needs no grid, so
//!   it also serves unstructured surrogates.

use pscg_sparse::dense::{DenseMatrix, LuFactors};
use pscg_sparse::op::{ApplyCost, Operator};
use pscg_sparse::stencil::Grid3;
use pscg_sparse::{CooMatrix, CsrMatrix};

/// One level of the hierarchy: its operator, the interpolation *to this
/// level from the next coarser one* being stored on the finer level.
struct Level {
    a: CsrMatrix,
    inv_diag: Vec<f64>,
    /// Prolongation from the next-coarser level (absent on the coarsest).
    p: Option<CsrMatrix>,
    /// Transpose of `p` (restriction).
    pt: Option<CsrMatrix>,
    // Cycle work vectors.
    x: Vec<f64>,
    rhs: Vec<f64>,
    res: Vec<f64>,
    tmp: Vec<f64>,
}

impl Level {
    fn new(a: CsrMatrix) -> Self {
        let n = a.nrows();
        let inv_diag: Vec<f64> = a.diagonal().iter().map(|&d| 1.0 / d).collect();
        Level {
            a,
            inv_diag,
            p: None,
            pt: None,
            x: vec![0.0; n],
            rhs: vec![0.0; n],
            res: vec![0.0; n],
            tmp: vec![0.0; n],
        }
    }
}

/// A V-cycle multigrid preconditioner (see module docs).
pub struct Multigrid {
    levels: Vec<Level>,
    coarse_lu: LuFactors,
    nsmooth: usize,
    omega: f64,
    cost: ApplyCost,
    label: &'static str,
}

/// Smallest system handed to the dense coarse solver.
const COARSE_LIMIT: usize = 200;

impl Multigrid {
    fn build(mut as_and_ps: (Vec<CsrMatrix>, Vec<CsrMatrix>), label: &'static str) -> Self {
        let (mats, mut ps) = (
            std::mem::take(&mut as_and_ps.0),
            std::mem::take(&mut as_and_ps.1),
        );
        assert_eq!(mats.len(), ps.len() + 1);
        let mut levels: Vec<Level> = mats.into_iter().map(Level::new).collect();
        for (l, p) in ps.drain(..).enumerate() {
            levels[l].pt = Some(p.transpose());
            levels[l].p = Some(p);
        }
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

        let nsmooth = 1;
        let omega = 2.0 / 3.0;
        let cost = Self::declared_cost(&levels, nsmooth);
        Multigrid {
            levels,
            coarse_lu,
            nsmooth,
            omega,
            cost,
            label,
        }
    }

    /// Counts the real per-apply work of the built hierarchy so the machine
    /// model charges what the cycle actually does.
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
                let nnzp = lvl.p.as_ref().map_or(0.0, |p| p.nnz() as f64);
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

    /// Weighted-Jacobi smoothing sweeps per pre/post stage.
    pub fn nsmooth(&self) -> usize {
        self.nsmooth
    }

    fn vcycle(levels: &mut [Level], coarse_lu: &LuFactors, nsmooth: usize, omega: f64) {
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
            smooth(lvl, omega);
        }
        // Residual and restriction.
        lvl.a.spmv(&lvl.x, &mut lvl.tmp);
        for i in 0..lvl.res.len() {
            lvl.res[i] = lvl.rhs[i] - lvl.tmp[i];
        }
        lvl.pt.as_ref().unwrap().spmv(&lvl.res, &mut rest[0].rhs);
        // Coarse correction.
        Self::vcycle(rest, coarse_lu, nsmooth, omega);
        lvl.p.as_ref().unwrap().spmv(&rest[0].x, &mut lvl.tmp);
        for i in 0..lvl.x.len() {
            lvl.x[i] += lvl.tmp[i];
        }
        // Post-smooth.
        for _ in 0..nsmooth {
            smooth(lvl, omega);
        }
    }
}

/// One weighted-Jacobi sweep `x += ω D⁻¹ (rhs − A x)`.
fn smooth(lvl: &mut Level, omega: f64) {
    lvl.a.spmv(&lvl.x, &mut lvl.tmp);
    for i in 0..lvl.x.len() {
        lvl.x[i] += omega * lvl.inv_diag[i] * (lvl.rhs[i] - lvl.tmp[i]);
    }
}

impl Operator for Multigrid {
    fn nrows(&self) -> usize {
        self.levels[0].a.nrows()
    }

    fn apply(&mut self, r: &[f64], u: &mut [f64]) {
        self.levels[0].rhs.copy_from_slice(r);
        Multigrid::vcycle(&mut self.levels, &self.coarse_lu, self.nsmooth, self.omega);
        u.copy_from_slice(&self.levels[0].x);
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
pub fn gmg(a: &CsrMatrix, grid: Grid3) -> Multigrid {
    assert_eq!(a.nrows(), grid.len(), "gmg: grid does not match the matrix");
    let mut mats = vec![a.clone()];
    let mut ps = Vec::new();
    let mut g = grid;
    while mats.last().unwrap().nrows() > COARSE_LIMIT {
        let (p, gc) = linear_interpolation(g);
        if p.ncols() >= p.nrows() {
            break; // no further coarsening possible
        }
        let ac = mats.last().unwrap().rap(&p);
        mats.push(ac);
        ps.push(p);
        g = gc;
    }
    Multigrid::build((mats, ps), "MG")
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
pub fn gamg(a: &CsrMatrix) -> Multigrid {
    let mut mats = vec![a.clone()];
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
        mats.push(ac);
        ps.push(p);
    }
    Multigrid::build((mats, ps), "GAMG")
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
    use pscg_sparse::stencil::poisson3d_7pt;

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
