//! Row-block partitioning and communication-volume analysis.
//!
//! The distributed-memory model needs to know, for every rank count `P`, how
//! much point-to-point traffic the SpMV generates (the paper §III: "The SPMV
//! often only requires communication with the neighbouring nodes"). Matrices
//! are distributed by contiguous row blocks — the PETSc `MatAIJ` default the
//! paper's implementation uses — and we provide:
//!
//! * [`RowBlockPartition`] — balanced contiguous row ownership;
//! * [`halo_stats`] — streaming per-rank ghost/neighbour **counts** (cheap
//!   enough to run on the 10⁸-nnz paper operator for many values of `P`);
//! * [`halo_plan`] — exact ghost **index lists** per rank pair, used by the
//!   thread-backed SPMD engine to actually exchange halos.

use crate::csr::CsrMatrix;

/// A balanced contiguous row-block partition of `n` rows over `p` ranks.
///
/// The first `n % p` ranks own one extra row, matching the PETSc layout.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RowBlockPartition {
    offsets: Vec<usize>,
}

impl RowBlockPartition {
    /// Creates the balanced partition of `n` rows over `p > 0` ranks.
    pub fn balanced(n: usize, p: usize) -> Self {
        assert!(p > 0, "partition needs at least one rank");
        let base = n / p;
        let extra = n % p;
        let mut offsets = Vec::with_capacity(p + 1);
        let mut acc = 0;
        offsets.push(0);
        for r in 0..p {
            acc += base + usize::from(r < extra);
            offsets.push(acc);
        }
        RowBlockPartition { offsets }
    }

    /// Number of ranks.
    #[inline]
    pub fn nranks(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Total number of rows.
    #[inline]
    pub fn nrows(&self) -> usize {
        *self.offsets.last().unwrap() // pscg-lint: allow(panic-in-hot-path, offsets always holds at least the leading 0 pushed at construction)
    }

    /// Row range `[lo, hi)` owned by `rank`.
    #[inline]
    pub fn range(&self, rank: usize) -> (usize, usize) {
        (self.offsets[rank], self.offsets[rank + 1])
    }

    /// Number of rows owned by `rank`.
    #[inline]
    pub fn local_len(&self, rank: usize) -> usize {
        self.offsets[rank + 1] - self.offsets[rank]
    }

    /// Largest local row count over all ranks (the strong-scaling critical
    /// path is set by the slowest rank).
    pub fn max_local_len(&self) -> usize {
        (0..self.nranks())
            .map(|r| self.local_len(r))
            .max()
            .unwrap_or(0)
    }

    /// Owner of global row `row`.
    #[inline]
    pub fn owner(&self, row: usize) -> usize {
        debug_assert!(row < self.nrows());
        match self.offsets.binary_search(&row) {
            Ok(r) if r < self.nranks() => r,
            Ok(r) => r - 1,
            Err(r) => r - 1,
        }
    }

    /// The offsets array (length `nranks + 1`).
    pub fn offsets(&self) -> &[usize] {
        &self.offsets
    }
}

/// Per-rank halo summary used by the machine model.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RankHalo {
    /// Distinct off-rank columns this rank must receive.
    pub ghost_cols: usize,
    /// Distinct ranks it receives from.
    pub recv_neighbors: usize,
    /// Values it must send to other ranks (sum over destinations of distinct
    /// requested indices).
    pub send_vals: usize,
    /// Distinct ranks it sends to.
    pub send_neighbors: usize,
}

/// Aggregate halo statistics for a `(matrix, partition)` pair.
#[derive(Debug, Clone, PartialEq)]
pub struct HaloStats {
    /// Per-rank summaries.
    pub ranks: Vec<RankHalo>,
}

impl HaloStats {
    /// Maximum values any rank receives.
    pub fn max_recv(&self) -> usize {
        self.ranks.iter().map(|r| r.ghost_cols).max().unwrap_or(0)
    }

    /// Maximum neighbour count (recv side) over ranks.
    pub fn max_neighbors(&self) -> usize {
        self.ranks
            .iter()
            .map(|r| r.recv_neighbors)
            .max()
            .unwrap_or(0)
    }

    /// Maximum of (recv + send) volume over ranks, in values.
    pub fn max_traffic(&self) -> usize {
        self.ranks
            .iter()
            .map(|r| r.ghost_cols + r.send_vals)
            .max()
            .unwrap_or(0)
    }
}

/// Streaming halo statistics: one pass over the matrix per call, storing only
/// per-rank counters (no index lists), so it is safe to evaluate at paper
/// scale for every rank count in a scaling sweep.
pub fn halo_stats(a: &CsrMatrix, part: &RowBlockPartition) -> HaloStats {
    assert_eq!(
        a.nrows(),
        part.nrows(),
        "halo_stats: partition/matrix mismatch"
    );
    let p = part.nranks();
    let mut ranks = vec![RankHalo::default(); p];
    // ghost columns of rank r, collected then deduplicated per rank
    let mut ghosts: Vec<usize> = Vec::new();
    for r in 0..p {
        let (lo, hi) = part.range(r);
        ghosts.clear();
        for row in lo..hi {
            for &c in a.row_cols(row) {
                let c = c as usize;
                if c < lo || c >= hi {
                    ghosts.push(c);
                }
            }
        }
        ghosts.sort_unstable();
        ghosts.dedup();
        ranks[r].ghost_cols = ghosts.len();
        // Count distinct source ranks and attribute send volume to owners.
        let mut prev_owner = usize::MAX;
        for &c in ghosts.iter() {
            let o = part.owner(c);
            if o != prev_owner {
                ranks[r].recv_neighbors += 1;
                prev_owner = o;
            }
        }
        // The owner must send each requested value once per requester.
        let mut i = 0;
        while i < ghosts.len() {
            let o = part.owner(ghosts[i]);
            let mut j = i;
            while j < ghosts.len() && part.owner(ghosts[j]) == o {
                j += 1;
            }
            ranks[o].send_vals += j - i;
            ranks[o].send_neighbors += 1;
            i = j;
        }
    }
    HaloStats { ranks }
}

/// Exact halo exchange plan for one rank: which global indices to receive
/// from whom, and which of our rows to send to whom.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RankPlan {
    /// `(source rank, global column indices we need from it)`, sorted by rank.
    pub recv: Vec<(usize, Vec<usize>)>,
    /// `(destination rank, global row indices it needs from us)`, sorted.
    pub send: Vec<(usize, Vec<usize>)>,
}

/// Exact halo plan for all ranks. Memory scales with total ghost indices, so
/// this is intended for the rank counts the thread engine actually runs
/// (tests use ≤ 64 ranks).
#[derive(Debug, Clone, PartialEq)]
pub struct HaloPlan {
    /// One plan per rank.
    pub ranks: Vec<RankPlan>,
}

/// Builds the exact halo plan (see [`HaloPlan`]).
pub fn halo_plan(a: &CsrMatrix, part: &RowBlockPartition) -> HaloPlan {
    assert_eq!(
        a.nrows(),
        part.nrows(),
        "halo_plan: partition/matrix mismatch"
    );
    let p = part.nranks();
    let mut plans: Vec<RankPlan> = vec![RankPlan::default(); p];
    for r in 0..p {
        let (lo, hi) = part.range(r);
        let mut ghosts: Vec<usize> = Vec::new();
        for row in lo..hi {
            for &c in a.row_cols(row) {
                let c = c as usize;
                if c < lo || c >= hi {
                    ghosts.push(c);
                }
            }
        }
        ghosts.sort_unstable();
        ghosts.dedup();
        let mut i = 0;
        while i < ghosts.len() {
            let o = part.owner(ghosts[i]);
            let mut j = i;
            while j < ghosts.len() && part.owner(ghosts[j]) == o {
                j += 1;
            }
            let idx: Vec<usize> = ghosts[i..j].to_vec();
            plans[o].send.push((r, idx.clone()));
            plans[r].recv.push((o, idx));
            i = j;
        }
    }
    for plan in &mut plans {
        plan.recv.sort_by_key(|(r, _)| *r);
        plan.send.sort_by_key(|(r, _)| *r);
    }
    HaloPlan { ranks: plans }
}

/// Analytic halo volume for a 3-D box-stencil problem under row-block
/// partitioning: a rank owning a slab of `rows` grid rows with stencil
/// radius `rad` on an `nx × ny` plane receives up to `rad` planes from each
/// side. This closed form lets the machine model cost stencil problems
/// without scanning the matrix.
pub fn slab_halo_volume(
    nx: usize,
    ny: usize,
    local_planes: usize,
    rad: usize,
    interior: bool,
) -> usize {
    let per_side = nx * ny * rad.min(local_planes.max(1));
    if interior {
        2 * per_side
    } else {
        per_side
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stencil::{poisson3d_7pt, Grid3};

    #[test]
    fn balanced_partition_covers_all_rows() {
        let p = RowBlockPartition::balanced(10, 3);
        assert_eq!(p.offsets(), &[0, 4, 7, 10]);
        assert_eq!(p.local_len(0), 4);
        assert_eq!(p.max_local_len(), 4);
        assert_eq!(p.nranks(), 3);
        assert_eq!(p.nrows(), 10);
    }

    #[test]
    fn owner_is_consistent_with_range() {
        let p = RowBlockPartition::balanced(100, 7);
        for row in 0..100 {
            let o = p.owner(row);
            let (lo, hi) = p.range(o);
            assert!(
                row >= lo && row < hi,
                "row {row} owner {o} range {lo}..{hi}"
            );
        }
    }

    #[test]
    fn halo_stats_for_7pt_slab() {
        // 4x4x8 grid over 2 ranks: each rank owns 64 rows = 4 z-planes;
        // ghost = one 4x4 plane = 16 columns from the single neighbour.
        let g = Grid3::new(4, 4, 8);
        let a = poisson3d_7pt(g, None);
        let p = RowBlockPartition::balanced(g.len(), 2);
        let s = halo_stats(&a, &p);
        assert_eq!(s.ranks[0].ghost_cols, 16);
        assert_eq!(s.ranks[0].recv_neighbors, 1);
        assert_eq!(s.ranks[1].ghost_cols, 16);
        assert_eq!(s.ranks[0].send_vals, 16);
        assert_eq!(s.max_recv(), 16);
        assert_eq!(s.max_neighbors(), 1);
        assert_eq!(s.max_traffic(), 32);
    }

    #[test]
    fn halo_plan_matches_stats_and_is_symmetric() {
        let g = Grid3::new(3, 3, 9);
        let a = poisson3d_7pt(g, None);
        let p = RowBlockPartition::balanced(g.len(), 3);
        let stats = halo_stats(&a, &p);
        let plan = halo_plan(&a, &p);
        for r in 0..3 {
            let recv_total: usize = plan.ranks[r].recv.iter().map(|(_, v)| v.len()).sum();
            assert_eq!(recv_total, stats.ranks[r].ghost_cols);
            // Every recv list appears as the matching send list on the peer.
            for (src, idx) in &plan.ranks[r].recv {
                let peer = &plan.ranks[*src];
                let found = peer.send.iter().any(|(dst, sidx)| dst == &r && sidx == idx);
                assert!(found, "send/recv asymmetry between {r} and {src}");
            }
        }
    }

    #[test]
    fn single_rank_has_no_halo() {
        let g = Grid3::cube(4);
        let a = poisson3d_7pt(g, None);
        let p = RowBlockPartition::balanced(g.len(), 1);
        let s = halo_stats(&a, &p);
        assert_eq!(s.ranks[0], RankHalo::default());
    }

    #[test]
    fn slab_halo_closed_form() {
        assert_eq!(slab_halo_volume(10, 10, 5, 2, true), 400);
        assert_eq!(slab_halo_volume(10, 10, 5, 2, false), 200);
        // Thin slab: cannot receive more planes than it has.
        assert_eq!(slab_halo_volume(10, 10, 1, 2, true), 200);
    }
}
