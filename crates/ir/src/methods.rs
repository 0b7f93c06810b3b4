//! The IR specs of all 11 implemented CG variants.
//!
//! Each spec is a faithful, node-for-op transcription of the corresponding
//! solver loop in `pipescg::methods` — prologue, steady-state body, and
//! (for PIPECG-OATI and the hybrid driver) the periodic replacement pass
//! and the phase-2 handoff. The specs assume the default verification
//! configuration: preconditioned residual norm, matched reference norm,
//! passive resilience (one wait per reduction), and a σ-scaled basis with
//! σ ≠ 1 for the s-step methods.

use pipescg::methods::MethodKind;

use crate::node::{MethodIr, Node, NodeKind, ReplacePhase, Sym};
use crate::spec::*;

/// The IR of `kind` at s-step parameter `s`. Like the solvers, the classic
/// methods ignore `s` (they advance one step per pass) and the depth-2
/// pipelined methods fix it to 2.
pub fn spec(kind: MethodKind, s: usize) -> MethodIr {
    match kind {
        MethodKind::Pcg => pcg(),
        MethodKind::Pipecg => pipecg(),
        MethodKind::Cg3 => cg3(),
        MethodKind::Scg => scg(s),
        MethodKind::ScgSspmv => scg_sspmv(s),
        MethodKind::Pscg => pscg(s),
        MethodKind::PipeScg => pipe_scg(s),
        MethodKind::PipePscg => pipe_pscg(MethodKind::PipePscg, s, None, 0.0, None),
        MethodKind::Pipecg3 => pipe_pscg(MethodKind::Pipecg3, 2, None, 10.0, None),
        MethodKind::PipecgOati => pipe_pscg(MethodKind::PipecgOati, 2, Some(24), 0.0, None),
        MethodKind::Hybrid => {
            let phase2 = pipe_pscg(MethodKind::PipecgOati, 2, Some(24), 0.0, None);
            pipe_pscg(MethodKind::Hybrid, s, None, 0.0, Some(Box::new(phase2)))
        }
    }
}

fn pcg() -> MethodIr {
    let mut setup = ref_norm();
    setup.extend(init_residual("r"));
    setup.extend([
        pc("r", "u"),
        dot("u", "r", "gamma.part"),
        blocking(1, "gamma.part", "gamma"),
        dot("u", "u", "norm.part"),
        blocking(1, "norm.part", "norm"),
        rescheck("norm"),
    ]);
    let body = vec![
        axpy(&["u", "p"], "p"), // p = u + β p
        spmv("p", "w"),
        dot("w", "p", "delta.part"),
        blocking(1, "delta.part", "delta"),
        axpy(&["p", "x"], "x"),
        axpy(&["w", "r"], "r"),
        pc("r", "u"),
        dot("u", "r", "gamma.part"),
        blocking(1, "gamma.part", "gamma"),
        dot("u", "u", "norm.part"),
        blocking(1, "norm.part", "norm"),
        rescheck("norm"),
    ];
    let check_at = body.len() - 1;
    MethodIr {
        kind: MethodKind::Pcg,
        steps: 1,
        setup,
        body,
        check_at,
        setup_check: true,
        replace: None,
        handoff: None,
    }
}

fn pipecg() -> MethodIr {
    let mut setup = ref_norm();
    setup.extend(init_residual("r"));
    setup.extend([pc("r", "u"), spmv("u", "w")]);
    let body = vec![
        dot("r", "u", "red.part"),
        dot("w", "u", "red.part"),
        dot("r", "r", "red.part"),
        dot("u", "u", "red.part"),
        post("red", 4, "red.part"),
        pc("w", "m"),
        spmv("m", "n"),
        wait("red", "red"),
        rescheck("red"), // check_at = 8
        axpy(&["n", "z"], "z"),
        axpy(&["m", "q"], "q"),
        axpy(&["w", "s"], "s"),
        axpy(&["u", "p"], "p"),
        axpy(&["p", "x"], "x"),
        axpy(&["s", "r"], "r"),
        axpy(&["q", "u"], "u"),
        axpy(&["z", "w"], "w"),
    ];
    MethodIr {
        kind: MethodKind::Pipecg,
        steps: 1,
        setup,
        body,
        check_at: 8,
        setup_check: false,
        replace: None,
        handoff: None,
    }
}

fn cg3() -> MethodIr {
    let mut setup = ref_norm();
    setup.extend(init_residual("r"));
    let body = vec![
        pc("r", "u"),
        spmv("u", "au"),
        dot("r", "u", "red.part"),
        dot("u", "au", "red.part"),
        dot("r", "r", "red.part"),
        dot("u", "u", "red.part"),
        blocking(4, "red.part", "red"),
        rescheck("red"), // check_at = 7
        // The two fused three-term updates of x and r.
        combine(12.0, 96.0, vec!["r".into(), "u".into(), "au".into()], "x"),
    ];
    MethodIr {
        kind: MethodKind::Cg3,
        steps: 1,
        setup,
        body,
        check_at: 7,
        setup_check: false,
        replace: None,
        handoff: None,
    }
}

/// Shared sCG/sCG-sSPMV prologue: residual straight into `pow[0]`, the σ
/// estimate from the first link, then the remaining monomial powers.
fn scg_setup(s: usize) -> Vec<Node> {
    let mut setup = ref_norm();
    setup.extend(init_residual(&col("pow", 0)));
    setup.push(spmv(col("pow", 0), col("pow", 1)));
    setup.extend(estimate_sigma(col("pow", 0), col("pow", 1)));
    setup.push(scale(col("pow", 1)));
    setup.extend(extend_scaled_powers("pow", 1, s));
    setup
}

fn pow_window(list: &str, off: usize, s: usize) -> Vec<Sym> {
    (off..off + s).map(|j| col(list, j)).collect()
}

fn scg(s: usize) -> MethodIr {
    let mut body = gram_assemble(s, "pow", "pow", "dirs", "gram.part");
    body.push(blocking(gram_doubles(s), "gram.part", "gram"));
    body.push(rescheck("gram"));
    let check_at = body.len() - 1;
    body.push(scalar_work(s, "gram", "coef"));
    body.extend(conjugate_window(s, pow_window("pow", 0, s), "dirs", "dirs"));
    body.push(block_gemv(s, "dirs", "x"));
    body.push(spmv("x", "ax"));
    body.push(axpy(&["ax", "b"], &col("pow", 0)));
    body.extend(extend_scaled_powers("pow", 0, s));
    MethodIr {
        kind: MethodKind::Scg,
        steps: s,
        setup: scg_setup(s),
        body,
        check_at,
        setup_check: false,
        replace: None,
        handoff: None,
    }
}

fn scg_sspmv(s: usize) -> MethodIr {
    let mut body = gram_assemble(s, "pow", "pow", "dirs", "gram.part");
    body.push(blocking(gram_doubles(s), "gram.part", "gram"));
    body.push(rescheck("gram"));
    let check_at = body.len() - 1;
    body.push(scalar_work(s, "gram", "coef"));
    body.extend(conjugate_window(s, pow_window("pow", 0, s), "dirs", "dirs"));
    body.extend(conjugate_window(
        s,
        pow_window("pow", 1, s),
        "adirs",
        "adirs",
    ));
    body.push(block_gemv(s, "dirs", "x"));
    body.push(block_gemv(s, "adirs", &col("pow", 0)));
    body.extend(extend_scaled_powers("pow", 0, s));
    MethodIr {
        kind: MethodKind::ScgSspmv,
        steps: s,
        setup: scg_setup(s),
        body,
        check_at,
        setup_check: false,
        replace: None,
        handoff: None,
    }
}

/// Shared preconditioned-chain prologue head: residual into `rpow[0]`, the
/// first dual link, σ, and `upow[1]`.
fn dual_setup_head() -> Vec<Node> {
    let mut setup = ref_norm();
    setup.extend(init_residual(&col("rpow", 0)));
    setup.push(pc(col("rpow", 0), col("upow", 0)));
    setup.push(spmv(col("upow", 0), col("rpow", 1)));
    setup.extend(estimate_sigma(col("rpow", 0), col("rpow", 1)));
    setup.push(scale(col("rpow", 1)));
    setup.push(pc(col("rpow", 1), col("upow", 1)));
    setup
}

fn pscg(s: usize) -> MethodIr {
    let mut setup = dual_setup_head();
    setup.extend(extend_dual_powers("rpow", "upow", 1, s));
    let mut body = gram_assemble(s, "upow", "rpow", "udirs", "gram.part");
    body.push(blocking(gram_doubles(s), "gram.part", "gram"));
    body.push(rescheck("gram"));
    let check_at = body.len() - 1;
    body.push(scalar_work(s, "gram", "coef"));
    body.extend(conjugate_window(
        s,
        pow_window("upow", 0, s),
        "udirs",
        "udirs",
    ));
    body.push(block_gemv(s, "udirs", "x"));
    body.push(spmv("x", "ax"));
    body.push(axpy(&["ax", "b"], &col("rpow", 0)));
    body.extend(extend_dual_powers("rpow", "upow", 0, s));
    MethodIr {
        kind: MethodKind::Pscg,
        steps: s,
        setup,
        body,
        check_at,
        setup_check: false,
        replace: None,
        handoff: None,
    }
}

fn pipe_scg(s: usize) -> MethodIr {
    let mut setup = ref_norm();
    setup.extend(init_residual(&col("pow", 0)));
    setup.push(spmv(col("pow", 0), col("pow", 1)));
    setup.extend(estimate_sigma(col("pow", 0), col("pow", 1)));
    setup.push(scale(col("pow", 1)));
    setup.extend(extend_scaled_powers("pow", 1, s));
    setup.extend(gram_assemble(s, "pow", "pow", "dirs", "gram.part"));
    setup.push(post("gram", gram_doubles(s), "gram.part"));
    setup.extend(extend_scaled_powers("pow", s, 2 * s));

    let mut body = vec![wait("gram", "gram"), rescheck("gram")];
    let check_at = 1;
    body.push(scalar_work(s, "gram", "coef"));
    body.extend(conjugate_window(s, pow_window("pow", 0, s), "dirs", "dirs"));
    for j in 0..=s {
        body.extend(conjugate_window(
            s,
            pow_window("pow", j + 1, s),
            "apow",
            "apow",
        ));
    }
    body.push(block_gemv(s, "dirs", "x"));
    for j in 0..=s {
        body.extend(block_gemv_sub_into(s, "apow", col("pow", j), col("pow", j)));
    }
    body.extend(gram_assemble(s, "pow", "pow", "dirs", "gram.part"));
    body.push(post("gram", gram_doubles(s), "gram.part"));
    body.extend(extend_scaled_powers("pow", s, 2 * s));
    MethodIr {
        kind: MethodKind::PipeScg,
        steps: s,
        setup,
        body,
        check_at,
        setup_check: false,
        replace: None,
        handoff: None,
    }
}

/// The pipelined preconditioned s-step core shared by PIPE-PsCG, PIPECG3,
/// PIPECG-OATI and the hybrid driver (`pipe_pscg::solve_with`).
fn pipe_pscg(
    kind: MethodKind,
    s: usize,
    replace_every: Option<usize>,
    extra_flops_per_row: f64,
    handoff: Option<Box<MethodIr>>,
) -> MethodIr {
    let mut setup = dual_setup_head();
    setup.extend(extend_dual_powers("rpow", "upow", 1, s));
    setup.extend(gram_assemble(s, "upow", "rpow", "udirs", "gram.part"));
    setup.push(post("gram", gram_doubles(s), "gram.part"));
    setup.extend(extend_dual_powers("rpow", "upow", s, 2 * s));

    // The common head (wait … x update) and tail (Gram post + deep powers)
    // of both the recurrence pass and the replacement pass.
    let mut head = vec![wait("gram", "gram"), rescheck("gram")];
    let check_at = 1;
    head.push(scalar_work(s, "gram", "coef"));
    head.extend(conjugate_window(
        s,
        pow_window("upow", 0, s),
        "udirs",
        "udirs",
    ));
    head.extend(conjugate_window(
        s,
        pow_window("rpow", 0, s),
        "rdirs",
        "rdirs",
    ));
    for j in 0..=s {
        head.extend(conjugate_window(
            s,
            pow_window("upow", j + 1, s),
            "uapow",
            "uapow",
        ));
        head.extend(conjugate_window(
            s,
            pow_window("rpow", j + 1, s),
            "rapow",
            "rapow",
        ));
    }
    head.push(block_gemv(s, "udirs", "x"));
    if extra_flops_per_row > 0.0 {
        // PIPECG3's explicitly charged three-term-recurrence surcharge.
        head.push(Node {
            kind: NodeKind::Combine {
                flops_per_row: extra_flops_per_row,
                bytes_per_row: 8.0 * extra_flops_per_row,
            },
            reads: vec![],
            writes: vec![],
        });
    }
    let mut tail = gram_assemble(s, "upow", "rpow", "udirs", "gram.part");
    tail.push(post("gram", gram_doubles(s), "gram.part"));
    tail.extend(extend_dual_powers("rpow", "upow", s, 2 * s));

    let mut body = head.clone();
    for j in 0..=s {
        body.extend(block_gemv_sub_into(
            s,
            "rapow",
            col("rpow", j),
            col("rpow", j),
        ));
        body.extend(block_gemv_sub_into(
            s,
            "uapow",
            col("upow", j),
            col("upow", j),
        ));
    }
    body.extend(tail.clone());

    let replace = replace_every.map(|every| {
        let mut rbody = head.clone();
        rbody.push(spmv("x", "ax"));
        rbody.push(axpy(&["ax", "b"], &col("rpow", 0)));
        rbody.extend(extend_dual_powers("rpow", "upow", 0, s));
        rbody.extend(tail.clone());
        ReplacePhase { every, body: rbody }
    });

    MethodIr {
        kind,
        steps: s,
        setup,
        body,
        check_at,
        setup_check: false,
        replace,
        handoff,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_method_has_a_spec_with_a_check() {
        for kind in MethodKind::ALL {
            let ir = spec(kind, 3);
            assert!(
                matches!(ir.body[ir.check_at].kind, NodeKind::ResCheck),
                "{kind:?}: check_at must point at a ResCheck"
            );
            assert!(ir.node_count() > 0);
            assert_eq!(ir.kind, kind);
        }
    }

    #[test]
    fn pipelined_specs_post_in_setup_and_wait_first() {
        for kind in [MethodKind::PipeScg, MethodKind::PipePscg] {
            let ir = spec(kind, 3);
            assert!(ir
                .setup
                .iter()
                .any(|n| matches!(n.kind, NodeKind::ArPost { .. })));
            assert!(matches!(ir.body[0].kind, NodeKind::ArWait { .. }));
        }
    }

    #[test]
    fn oati_replacement_pass_has_unoverlapped_kernels() {
        let ir = spec(MethodKind::PipecgOati, 3);
        let rp = ir.replace.as_ref().expect("OATI replaces periodically");
        assert_eq!(rp.every, 24);
        let spmvs = |nodes: &[Node]| {
            nodes
                .iter()
                .filter(|n| matches!(n.kind, NodeKind::Spmv))
                .count()
        };
        // Replacement recomputes the residual and the first s links on top
        // of the overlapped deep powers.
        assert!(spmvs(&rp.body) > spmvs(&ir.body));
    }
}
