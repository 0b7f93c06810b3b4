//! Test-only oracle for the fused recurrence pass: a [`Context`] wrapper
//! whose [`Context::block_recurrence_step`] is the sequence the fused pass
//! replaced — one `block_combine` per conjugation window, the solution
//! update, one `block_gemv_sub_into` per basis column — in the order the
//! solvers used to issue them. Everything else is forwarded to the wrapped
//! engine, so a solve through [`Unfused`] differs from a plain solve only
//! in how that phase is computed and charged.

use pscg_sim::{
    BuddyRecovery, BufId, Context, LocalKind, OpCounters, RankFailure, RecurrenceStep,
    ReduceHandle, WaitOutcome,
};
use pscg_sparse::MultiVector;

/// Wraps an engine; see the module docs.
pub struct Unfused<C>(pub C);

impl<C: Context> Context for Unfused<C> {
    fn block_recurrence_step(&mut self, step: RecurrenceStep<'_, '_>, x: &mut [f64]) {
        let RecurrenceStep {
            families,
            b,
            alpha,
            alpha_x,
            shift,
            extra_vma_flops_per_row: extra,
        } = step;
        for f in families.iter_mut() {
            self.block_combine(f.dirs_next, f.pow, 0, f.dirs, b);
        }
        for w in 0..families[0].apow.len() {
            for f in families.iter_mut() {
                self.block_combine(&mut f.apow_next[w], f.pow, w + 1, &f.apow[w], b);
            }
        }
        self.block_gemv_acc(families[0].dirs_next, alpha_x, x);
        if extra > 0.0 {
            self.charge_local(LocalKind::Vma, extra, 8.0 * extra);
        }
        if shift {
            for w in 0..families[0].apow.len() {
                for f in families.iter_mut().rev() {
                    let dst = f.pow_next.col_mut(w);
                    self.block_gemv_sub_into(&f.apow_next[w], alpha, f.pow.col(w), dst);
                }
            }
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
