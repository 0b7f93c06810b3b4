//! Test-only oracle for the fused in-place recurrence pass: a [`Context`]
//! wrapper whose [`Context::block_recurrence_step`] is the sequence of
//! sweeps the fused pass replaced, run out of place — every conjugation
//! window with `combine_window` reading a copy of the old blocks, the
//! solution update, one `gemv_sub` per basis column — followed by the
//! stand-alone Gram packet kernel, and charged with the op sequence the
//! solvers used to issue call by call. Everything else is forwarded to the
//! wrapped engine, so a solve through [`Unfused`] differs from a plain
//! solve only in how that phase is computed.

use pscg_sim::{
    BuddyRecovery, BufId, Context, LocalKind, OpCounters, RankFailure, RecurrenceStep,
    ReduceHandle, WaitOutcome,
};
use pscg_sparse::MultiVector;

/// Wraps an engine; see the module docs.
pub struct Unfused<C>(pub C);

impl<C: Context> Unfused<C> {
    /// The charges of one `block_combine`: a copy per column, then the LC.
    fn charge_combine(&mut self, dst: &MultiVector, src: &MultiVector, off: usize) {
        let s = dst.ncols();
        for j in 0..s {
            let (bs, bd) = (self.buf_of(src.col(off + j)), self.buf_of(dst.col(j)));
            self.charge_local_rw(LocalKind::Vma, 0.0, 16.0, [bs, BufId::ANON], bd);
        }
        let sf = s as f64;
        // The block is conjugated against itself: `prev` is `dst`.
        let bd = self.buf_of_multi(dst);
        self.charge_local_rw(LocalKind::Vma, 2.0 * sf * sf, 24.0 * sf, [bd, bd], bd);
    }

    /// The charges of one basis shift: the column copy, then the GEMV.
    fn charge_shift(&mut self, block: &MultiVector, col: &[f64]) {
        let bc = self.buf_of(col);
        self.charge_local_rw(LocalKind::Vma, 0.0, 16.0, [bc, BufId::ANON], bc);
        let k = block.ncols() as f64;
        let bx = self.buf_of_multi(block);
        self.charge_local_rw(LocalKind::Vma, 2.0 * k, 8.0 * (k + 2.0), [bx, bc], bc);
    }
}

impl<C: Context> Context for Unfused<C> {
    fn block_recurrence_step(&mut self, step: RecurrenceStep<'_, '_>, x: &mut [f64]) {
        let RecurrenceStep {
            families,
            b,
            alpha,
            alpha_x,
            shift,
            extra_vma_flops_per_row: extra,
            packet,
        } = step;
        // Numerics: conjugate from copies of the old blocks, then shift.
        for f in families.iter_mut() {
            let (pow, dirs, apow) = (f.pow.clone(), f.dirs.clone(), f.apow.to_vec());
            f.dirs.combine_window(&pow, 0, &dirs, b);
            for (w, blk) in f.apow.iter_mut().enumerate() {
                blk.combine_window(&pow, w + 1, &apow[w], b);
                if shift {
                    blk.gemv_sub(alpha, f.pow.col_mut(w));
                }
            }
        }
        // Charges, in the order the unfused solvers made the calls.
        let families = &*families;
        for f in families {
            self.charge_combine(f.dirs, f.pow, 0);
        }
        let nw = families[0].apow.len();
        for w in 0..nw {
            for f in families {
                self.charge_combine(&f.apow[w], f.pow, w + 1);
            }
        }
        self.block_gemv_acc(families[0].dirs, alpha_x, x);
        if extra > 0.0 {
            self.charge_local(LocalKind::Vma, extra, 8.0 * extra);
        }
        if shift {
            for w in 0..nw {
                for f in families.iter().rev() {
                    self.charge_shift(&f.apow[w], f.pow.col(w));
                }
            }
            let (u, r) = (&families[0], &families[families.len() - 1]);
            self.local_gram_packet(u.pow, r.pow, u.dirs, packet);
        }
    }

    // Everything below forwards: the required methods, and each defaulted
    // method an engine overrides.
    fn nrows(&self) -> usize {
        self.0.nrows()
    }
    fn vec_len(&self) -> usize {
        self.0.vec_len()
    }
    fn rank(&self) -> usize {
        self.0.rank()
    }
    fn nranks(&self) -> usize {
        self.0.nranks()
    }
    fn spmv(&mut self, x: &[f64], y: &mut [f64]) {
        self.0.spmv(x, y)
    }
    fn mpk(&mut self, pow: &mut MultiVector, from: usize, to: usize, sigma: f64) {
        self.0.mpk(pow, from, to, sigma)
    }
    fn pc_apply(&mut self, r: &[f64], u: &mut [f64]) {
        self.0.pc_apply(r, u)
    }
    fn pc_demote(&mut self) -> bool {
        self.0.pc_demote()
    }
    fn pc_promote(&mut self) {
        self.0.pc_promote()
    }
    fn pc_demoted(&self) -> bool {
        self.0.pc_demoted()
    }
    fn matrix_nnz(&self) -> usize {
        self.0.matrix_nnz()
    }
    fn pc_cost_rates(&self) -> (f64, f64) {
        self.0.pc_cost_rates()
    }
    fn allreduce(&mut self, vals: &[f64]) -> Vec<f64> {
        self.0.allreduce(vals)
    }
    fn iallreduce(&mut self, vals: &[f64]) -> ReduceHandle {
        self.0.iallreduce(vals)
    }
    fn wait(&mut self, h: ReduceHandle) -> Vec<f64> {
        self.0.wait(h)
    }
    fn try_wait(&mut self, h: ReduceHandle) -> WaitOutcome {
        self.0.try_wait(h)
    }
    fn peek_pending(&mut self, h: &ReduceHandle) -> Vec<f64> {
        self.0.peek_pending(h)
    }
    fn rank_failure(&self) -> Option<RankFailure> {
        self.0.rank_failure()
    }
    fn buddy_put(&mut self, x: &[f64]) {
        self.0.buddy_put(x)
    }
    fn buddy_recover(&mut self) -> BuddyRecovery {
        self.0.buddy_recover()
    }
    fn note_recovery_code(&mut self, code: u64) {
        self.0.note_recovery_code(code)
    }
    fn buf_of(&mut self, v: &[f64]) -> BufId {
        self.0.buf_of(v)
    }
    fn buf_of_multi(&mut self, m: &MultiVector) -> BufId {
        self.0.buf_of_multi(m)
    }
    fn charge_local(&mut self, kind: LocalKind, flops_per_row: f64, bytes_per_row: f64) {
        self.0.charge_local(kind, flops_per_row, bytes_per_row)
    }
    fn charge_local_rw(
        &mut self,
        kind: LocalKind,
        flops_per_row: f64,
        bytes_per_row: f64,
        reads: [BufId; 2],
        write: BufId,
    ) {
        self.0
            .charge_local_rw(kind, flops_per_row, bytes_per_row, reads, write)
    }
    fn charge_scalar(&mut self, flops: f64) {
        self.0.charge_scalar(flops)
    }
    fn note_residual(&mut self, relres: f64) {
        self.0.note_residual(relres)
    }
    fn counters(&self) -> &OpCounters {
        self.0.counters()
    }
    fn counters_mut(&mut self) -> &mut OpCounters {
        self.0.counters_mut()
    }
}
