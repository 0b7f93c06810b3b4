//! Block-Jacobi preconditioning: exact solves on the diagonal blocks of a
//! row-block partition.
//!
//! This is what `PCBJACOBI` (PETSc's parallel default) computes: each rank
//! factorises its own diagonal block and applies it with no communication.
//! Like processor-local SOR, the preconditioner quality *depends on the
//! block count* — more ranks, weaker coupling — which the global engines
//! emulate by taking the intended rank count at construction.

use pscg_sparse::dense::{DenseMatrix, LuFactors, LuFactorsF32};
use pscg_sparse::op::{ApplyCost, Operator};
use pscg_sparse::partition::RowBlockPartition;
use pscg_sparse::CsrMatrix;

/// Block-Jacobi with dense LU per diagonal block.
///
/// Supports the demoted fp32 apply (DESIGN.md §12): on
/// [`Operator::demote_precision`] every block's factors are rounded to f32
/// once and the triangular solves run in f32, halving factor traffic. The
/// fp64 factors are kept, so promotion restores the original operator
/// exactly.
pub struct BlockJacobi {
    part: RowBlockPartition,
    blocks: Vec<LuFactors>,
    /// fp32 copies of the block factors, built lazily on first demotion.
    blocks_f32: Vec<LuFactorsF32>,
    fp32: bool,
    avg_block: f64,
}

impl BlockJacobi {
    /// Builds with the balanced `nblocks`-way row partition. Block sizes
    /// must stay small enough for dense factors (guarded at 2048 rows).
    pub fn new(a: &CsrMatrix, nblocks: usize) -> Self {
        assert!(nblocks > 0);
        let n = a.nrows();
        let part = RowBlockPartition::balanced(n, nblocks);
        assert!(
            part.max_local_len() <= 2048,
            "block size {} too large for dense block factors",
            part.max_local_len()
        );
        let blocks: Vec<LuFactors> = (0..nblocks)
            .map(|r| {
                let (lo, hi) = part.range(r);
                let m = hi - lo;
                let mut d = DenseMatrix::zeros(m, m);
                for row in lo..hi {
                    for (k, &c) in a.row_cols(row).iter().enumerate() {
                        let c = c as usize;
                        if c >= lo && c < hi {
                            d.set(row - lo, c - lo, a.row_vals(row)[k]);
                        }
                    }
                }
                d.lu()
                    .expect("diagonal block of an SPD matrix is nonsingular")
            })
            .collect();
        let avg_block = n as f64 / nblocks as f64;
        BlockJacobi {
            part,
            blocks,
            blocks_f32: Vec::new(),
            fp32: false,
            avg_block,
        }
    }

    /// Number of blocks.
    pub fn nblocks(&self) -> usize {
        self.blocks.len()
    }
}

impl Operator for BlockJacobi {
    fn nrows(&self) -> usize {
        self.part.nrows()
    }

    fn apply(&mut self, r: &[f64], u: &mut [f64]) {
        if self.fp32 {
            for (b, lu) in self.blocks_f32.iter().enumerate() {
                let (lo, hi) = self.part.range(b);
                lu.solve_into(&r[lo..hi], &mut u[lo..hi]);
            }
        } else {
            for (b, lu) in self.blocks.iter().enumerate() {
                let (lo, hi) = self.part.range(b);
                let x = lu.solve(&r[lo..hi]);
                u[lo..hi].copy_from_slice(&x);
            }
        }
    }

    fn cost(&self) -> ApplyCost {
        // Dense triangular solves: ~2·m² flops over m rows = 2m per row;
        // demoted factors halve the dominant factor traffic.
        ApplyCost {
            flops_per_row: 2.0 * self.avg_block,
            bytes_per_row: if self.fp32 { 4.0 } else { 8.0 } * self.avg_block,
            comm_rounds: 0,
        }
    }

    fn name(&self) -> &str {
        if self.fp32 {
            "BlockJacobi-fp32"
        } else {
            "BlockJacobi"
        }
    }

    fn demote_precision(&mut self) -> bool {
        if self.blocks_f32.is_empty() && !self.blocks.is_empty() {
            self.blocks_f32 = self.blocks.iter().map(LuFactors::to_f32).collect();
        }
        self.fp32 = true;
        true
    }

    fn promote_precision(&mut self) {
        self.fp32 = false;
    }

    fn is_demoted(&self) -> bool {
        self.fp32
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{richardson, small_poisson};

    #[test]
    fn one_block_is_a_direct_solve() {
        let (a, _) = small_poisson();
        let n = a.nrows();
        let mut m = BlockJacobi::new(&a, 1);
        let xstar: Vec<f64> = (0..n).map(|i| (0.3 * i as f64).sin()).collect();
        let b = a.mul_vec(&xstar);
        let mut u = vec![0.0; n];
        m.apply(&b, &mut u);
        for i in 0..n {
            assert!((u[i] - xstar[i]).abs() < 1e-9, "row {i}");
        }
    }

    #[test]
    fn more_blocks_weaken_the_preconditioner() {
        let (a, _) = small_poisson();
        let mut m1 = BlockJacobi::new(&a, 2);
        let mut m2 = BlockJacobi::new(&a, 27);
        let (_, r1) = richardson(&a, &mut m1, 6);
        let (_, r2) = richardson(&a, &mut m2, 6);
        assert!(r1 < r2, "2 blocks {r1} should beat 27 blocks {r2}");
    }

    #[test]
    fn block_jacobi_beats_pointwise_jacobi() {
        let (a, _) = small_poisson();
        let mut bj = BlockJacobi::new(&a, 8);
        let mut j = crate::Jacobi::new(&a);
        let (_, rb) = richardson(&a, &mut bj, 8);
        let (_, rj) = richardson(&a, &mut j, 8);
        assert!(rb < rj, "block {rb} vs pointwise {rj}");
    }

    #[test]
    fn cost_grows_with_block_size() {
        let (a, _) = small_poisson();
        let big = BlockJacobi::new(&a, 2);
        let small = BlockJacobi::new(&a, 32);
        assert!(big.cost().flops_per_row > small.cost().flops_per_row);
        assert_eq!(big.cost().comm_rounds, 0);
    }
}
