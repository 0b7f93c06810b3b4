//! Builders for IR nodes and the shared schedule fragments.
//!
//! The cost metadata baked into these constructors mirrors the charge
//! constants of `pscg_sim::Context`'s convenience kernels (an AXPY is
//! `Combine(2, 24)`, a dot is `Dot(2, 16)`, …) and the s-step helpers of
//! `pipescg::sstep` (Gram-packet assembly, σ-scaled power extension, the
//! dual preconditioned chains). The conformance checker requires exact
//! equality with the recorded ops, so any drift between a solver loop and
//! its spec is caught the first time the trace is replayed.

use crate::node::{Node, NodeKind, Sym};

/// The symbol for column `j` of a power list, e.g. `col("pow", 3)` →
/// `"pow[3]"`.
pub fn col(list: &str, j: usize) -> Sym {
    format!("{list}[{j}]")
}

fn syms(names: &[&str]) -> Vec<Sym> {
    names.iter().map(|s| s.to_string()).collect()
}

/// An SpMV node reading `x`, writing `y`.
pub fn spmv(x: impl Into<Sym>, y: impl Into<Sym>) -> Node {
    Node {
        kind: NodeKind::Spmv,
        reads: vec![x.into()],
        writes: vec![y.into()],
    }
}

/// A matrix-powers-kernel node of the given depth over `block`.
pub fn mpk(depth: usize, block: impl Into<Sym>) -> Node {
    let block = block.into();
    Node {
        kind: NodeKind::Mpk { depth },
        reads: vec![block.clone()],
        writes: vec![block],
    }
}

/// A preconditioner application reading `r`, writing `u`.
pub fn pc(r: impl Into<Sym>, u: impl Into<Sym>) -> Node {
    Node {
        kind: NodeKind::Pc,
        reads: vec![r.into()],
        writes: vec![u.into()],
    }
}

/// A rank-local dot with explicit per-row cost, arbitrary operands.
pub fn dot_cost(flops_per_row: f64, bytes_per_row: f64, reads: Vec<Sym>, part: &str) -> Node {
    Node {
        kind: NodeKind::Dot {
            flops_per_row,
            bytes_per_row,
        },
        reads,
        writes: vec![part.to_string()],
    }
}

/// A plain two-operand local dot (`Dot(2, 16)`) accumulating into `part`.
pub fn dot(a: &str, b: &str, part: &str) -> Node {
    dot_cost(2.0, 16.0, syms(&[a, b]), part)
}

/// A VMA-class local node with explicit per-row cost.
pub fn combine(flops_per_row: f64, bytes_per_row: f64, reads: Vec<Sym>, write: &str) -> Node {
    Node {
        kind: NodeKind::Combine {
            flops_per_row,
            bytes_per_row,
        },
        reads,
        writes: vec![write.to_string()],
    }
}

/// An AXPY/AYPX/WAXPY-shaped update (`Combine(2, 24)`).
pub fn axpy(reads: &[&str], write: &str) -> Node {
    combine(2.0, 24.0, syms(reads), write)
}

/// A `scale_v`-shaped update (`Combine(1, 16)`) of one power column by σ.
pub fn scale(column: Sym) -> Node {
    combine(1.0, 16.0, vec![column.clone(), "sigma".into()], &column)
}

/// The rank-replicated s-step scalar work (`4s³ + 8s²` flops), consuming
/// the reduced Gram packet and producing the recurrence coefficients.
pub fn scalar_work(s: usize, gram: &str, coef: &str) -> Node {
    let sf = s as f64;
    Node {
        kind: NodeKind::ScalarRecurrence {
            flops: 4.0 * sf * sf * sf + 8.0 * sf * sf,
        },
        reads: vec![gram.to_string()],
        writes: vec![coef.to_string()],
    }
}

/// A non-blocking allreduce post of `doubles` values for window `tag`,
/// consuming the locally accumulated partials.
pub fn post(tag: &'static str, doubles: usize, part: &str) -> Node {
    Node {
        kind: NodeKind::ArPost { tag, doubles },
        reads: vec![part.to_string()],
        writes: vec![],
    }
}

/// The wait closing window `tag`, defining the reduced result symbol.
pub fn wait(tag: &'static str, result: &str) -> Node {
    Node {
        kind: NodeKind::ArWait { tag },
        reads: vec![],
        writes: vec![result.to_string()],
    }
}

/// A blocking allreduce of `doubles` values: consumes the partials, defines
/// the reduced result.
pub fn blocking(doubles: usize, part: &str, result: &str) -> Node {
    Node {
        kind: NodeKind::ArBlocking { doubles },
        reads: vec![part.to_string()],
        writes: vec![result.to_string()],
    }
}

/// A convergence check reading the reduced norms.
pub fn rescheck(result: &str) -> Node {
    Node {
        kind: NodeKind::ResCheck,
        reads: vec![result.to_string()],
        writes: vec![],
    }
}

// ---------------------------------------------------------------------------
// Shared fragments (methods::mod and pipescg::sstep counterparts).
// ---------------------------------------------------------------------------

/// `global_ref_norm`: one PC, three dots, one blocking allreduce of 3.
pub fn ref_norm() -> Vec<Node> {
    vec![
        pc("b", "ub"),
        dot("b", "b", "bnorm.part"),
        dot("ub", "ub", "bnorm.part"),
        dot("b", "ub", "bnorm.part"),
        blocking(3, "bnorm.part", "bnorm"),
    ]
}

/// `init_residual`: `r = b − A x` — always one SpMV plus one WAXPY.
pub fn init_residual(r: &str) -> Vec<Node> {
    vec![spmv("x", "ax"), axpy(&["ax", "b"], r)]
}

/// `estimate_sigma`: two dots over the first chain link and a blocking
/// allreduce of 2, defining the σ basis scale.
pub fn estimate_sigma(num: Sym, den: Sym) -> Vec<Node> {
    vec![
        dot_cost(2.0, 16.0, vec![num.clone(), num], "sigma.part"),
        dot_cost(2.0, 16.0, vec![den.clone(), den], "sigma.part"),
        blocking(2, "sigma.part", "sigma"),
    ]
}

/// `extend_scaled_powers(pow, from, to, σ)`: `to − from` SpMVs, each
/// followed by a σ scaling of the fresh column (the specs assume σ ≠ 1,
/// which holds for every non-degenerate operator).
pub fn extend_scaled_powers(list: &str, from: usize, to: usize) -> Vec<Node> {
    let mut out = Vec::new();
    for j in from + 1..=to {
        out.push(spmv(col(list, j - 1), col(list, j)));
        out.push(scale(col(list, j)));
    }
    out
}

/// `build_basis`/`extend_powers` of the dual preconditioned chains:
/// `rpow[j+1] = σ·A·upow[j]`, `upow[j+1] = M⁻¹ rpow[j+1]`, plus the
/// boundary PC when starting from a fresh residual (`from == 0`).
pub fn extend_dual_powers(rpow: &str, upow: &str, from: usize, to: usize) -> Vec<Node> {
    let mut out = Vec::new();
    if from == 0 {
        out.push(pc(col(rpow, 0), col(upow, 0)));
    }
    for j in from..to {
        out.push(spmv(col(upow, j), col(rpow, j + 1)));
        out.push(scale(col(rpow, j + 1)));
        out.push(pc(col(rpow, j + 1), col(upow, j + 1)));
    }
    out
}

/// `Context::local_gram_packet(upow, rpow, udirs, ..)`: the `2s² + 2s + 3`-value
/// packet as `2s + 5` local dot nodes — the two Gram-range dots (N and C),
/// the `g1`/`g2` strips, and the three norms — all accumulating into
/// `part`.
pub fn gram_assemble(s: usize, upow: &str, rpow: &str, udirs: &str, part: &str) -> Vec<Node> {
    let sf = s as f64;
    let mut out = Vec::new();
    // N = gram(upow[0..s], rpow[1..=s]).
    let mut n_reads: Vec<Sym> = (0..s).map(|j| col(upow, j)).collect();
    n_reads.extend((1..=s).map(|j| col(rpow, j)));
    out.push(dot_cost(2.0 * sf * sf, 16.0 * sf, n_reads, part));
    // C = gram(udirs, rpow[1..=s]).
    let mut c_reads: Vec<Sym> = vec![udirs.to_string()];
    c_reads.extend((1..=s).map(|j| col(rpow, j)));
    out.push(dot_cost(2.0 * sf * sf, 16.0 * sf, c_reads, part));
    // g1[j] = (upow[j], rpow[0]).
    for j in 0..s {
        out.push(dot_cost(2.0, 16.0, vec![col(upow, j), col(rpow, 0)], part));
    }
    // g2[m] = (udirs[m], rpow[0]).
    for _ in 0..s {
        out.push(dot_cost(
            2.0,
            16.0,
            vec![udirs.to_string(), col(rpow, 0)],
            part,
        ));
    }
    // rr, uu, ru.
    out.push(dot_cost(2.0, 16.0, vec![col(rpow, 0), col(rpow, 0)], part));
    out.push(dot_cost(2.0, 16.0, vec![col(upow, 0), col(upow, 0)], part));
    out.push(dot_cost(2.0, 16.0, vec![col(rpow, 0), col(upow, 0)], part));
    out
}

/// Payload size of the Gram packet (`GramPacket::len`).
pub fn gram_doubles(s: usize) -> usize {
    2 * s * s + 2 * s + 3
}

/// `conjugate_window` = `block_combine`: `s` copy moves then one fused
/// block linear combination (`k = m = s` in every use the solvers make).
pub fn conjugate_window(s: usize, window_reads: Vec<Sym>, prev: &str, dst: &str) -> Vec<Node> {
    let sf = s as f64;
    let mut out = Vec::new();
    for _ in 0..s {
        out.push(combine(0.0, 16.0, window_reads.clone(), dst));
    }
    let mut reads = window_reads;
    reads.push(prev.to_string());
    reads.push("coef".to_string());
    out.push(combine(2.0 * sf * sf, 24.0 * sf, reads, dst));
    out
}

/// `block_gemv_acc` / `block_gemv_sub`: one fused block GEMV of `s`
/// columns into `dst`.
pub fn block_gemv(s: usize, block: &str, dst: &str) -> Node {
    let sf = s as f64;
    combine(2.0 * sf, 8.0 * (sf + 2.0), syms(&[block, "coef", dst]), dst)
}

/// `block_gemv_sub_into`: a copy move then the fused GEMV subtraction,
/// writing a fresh column.
pub fn block_gemv_sub_into(s: usize, block: &str, src: Sym, dst: Sym) -> Vec<Node> {
    let sf = s as f64;
    vec![
        combine(0.0, 16.0, vec![src], &dst),
        Node {
            kind: NodeKind::Combine {
                flops_per_row: 2.0 * sf,
                bytes_per_row: 8.0 * (sf + 2.0),
            },
            reads: vec![block.to_string(), "coef".to_string(), dst.clone()],
            writes: vec![dst],
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gram_assemble_has_2s_plus_5_nodes() {
        for s in 1..=6 {
            assert_eq!(gram_assemble(s, "u", "r", "d", "p").len(), 2 * s + 5);
            assert_eq!(gram_doubles(s), 2 * s * s + 2 * s + 3);
        }
    }

    #[test]
    fn extension_fragments_count_kernels() {
        let ext = extend_scaled_powers("pow", 1, 4);
        assert_eq!(
            ext.iter()
                .filter(|n| matches!(n.kind, NodeKind::Spmv))
                .count(),
            3
        );
        let dual = extend_dual_powers("r", "u", 0, 3);
        assert_eq!(
            dual.iter()
                .filter(|n| matches!(n.kind, NodeKind::Pc))
                .count(),
            4,
            "boundary PC plus one per link"
        );
    }
}
