//! The metric registry: every number the benchmark reports, with its unit,
//! direction and (for end-to-end metrics) regression bound.
//!
//! This is the single statement of the metric set: `BENCHMARK.json` is
//! printed from it (`solvebench --contract`), reports are checked against it
//! before they are emitted, and `--compare` takes its bounds from it.

use crate::workload::{METHODS, WORKLOADS};

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// Spelling in `BENCHMARK.json`.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One registered metric.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricDef {
    /// Name as reported.
    pub name: String,
    /// Unit as reported.
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
    /// End-to-end metrics: the share of the baseline's value by which the
    /// metric may worsen before it counts as a regression.
    pub bound: Option<f64>,
    /// Count-like metrics that must repeat exactly between two runs of one
    /// commit (iterations, call counts, trace ops, modeled seconds).
    pub exact: bool,
}

fn def(name: impl Into<String>, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name: name.into(),
        unit,
        better,
        bound: None,
        exact: false,
    }
}

fn exact(mut d: MetricDef) -> MetricDef {
    d.exact = true;
    d
}

/// The end-to-end metrics: what a user of the solvers sees. Every workload
/// reports every one of them.
pub fn end_to_end() -> Vec<MetricDef> {
    let bounded = |name: String, unit, bound| MetricDef {
        bound: Some(bound),
        ..def(name, unit, Better::Lower)
    };
    // Bounds are three times the spread (IQR over median) of ten runs with
    // ten seeds on the sizing host, rounded up: the solves of `p7-jacobi`,
    // whose working set is 1.5x a last-level cache shared with other
    // tenants, move 3.5-5.7 % between runs made minutes apart, and the
    // 8 MB resident set of `small27` moves 2.5 %.
    let mut out = vec![bounded("setup_s".into(), "s", 0.20)];
    for (m, _) in METHODS {
        out.push(bounded(format!("solve_s.{m}"), "s", 0.15));
    }
    out.push(bounded("solve_mt_s.pipe-pscg".into(), "s", 0.15));
    out.push(bounded("peak_rss_mb".into(), "MB", 0.08));
    out
}

/// The per-layer metrics, from the traced run. Every workload reports every
/// one of them.
pub fn per_layer() -> Vec<MetricDef> {
    use Better::{Higher, Lower};
    let mut out = Vec::new();
    for (m, _) in METHODS {
        out.push(exact(def(format!("core.iters.{m}"), "count", Lower)));
        out.push(def(format!("core.glue_s.{m}"), "s", Lower));
        out.push(def(format!("core.alloc_s.{m}"), "s", Lower));
        out.push(def(format!("sparse.spmv_s.{m}"), "s", Lower));
        out.push(exact(def(format!("sparse.spmv_calls.{m}"), "count", Lower)));
        out.push(def(format!("sparse.gram_s.{m}"), "s", Lower));
        // The classic methods have no block recurrences to combine.
        if matches!(m, "pscg" | "pipe-pscg") {
            out.push(def(format!("sparse.combine_s.{m}"), "s", Lower));
        }
        out.push(def(format!("sparse.blas1_s.{m}"), "s", Lower));
        out.push(def(format!("precond.apply_s.{m}"), "s", Lower));
        out.push(exact(def(
            format!("precond.apply_calls.{m}"),
            "count",
            Lower,
        )));
        out.push(def(format!("sim.reduce_s.{m}"), "s", Lower));
        out.push(exact(def(format!("sim.reduce_calls.{m}"), "count", Lower)));
        out.push(def(format!("sim.note_s.{m}"), "s", Lower));
        out.push(def(format!("sim.wait_share.{m}"), "share", Lower));
        out.push(exact(def(format!("sim.trace_ops.{m}"), "count", Lower)));
        out.push(def(format!("bench.traced_wall_s.{m}"), "s", Lower));
        out.push(def(
            format!("bench.trace_overhead_share.{m}"),
            "share",
            Lower,
        ));
        out.push(def(format!("solve_p95_s.{m}"), "s", Lower));
    }
    out.push(def("bench.solve_samples", "count", Higher));
    out.push(def("sparse.assemble_s", "s", Lower));
    out.push(def("precond.setup_s", "s", Lower));
    out.push(def("sparse.spmv_iso_s", "s", Lower));
    out.push(def("sparse.spmv_gflops", "GFLOP/s", Higher));
    out.push(def("sparse.spmv_gbps_computed", "GB/s", Higher));
    out.push(def("sparse.stream_gbps", "GB/s", Higher));
    out.push(def("sparse.spmv_bw_share", "share", Higher));
    out.push(def("sparse.mpk_vs_spmv", "ratio", Lower));
    out.push(def("par.threads", "count", Higher));
    out.push(def("par.speedup.pipe-pscg", "ratio", Higher));
    out.push(def("par.efficiency.pipe-pscg", "share", Higher));
    // Seconds the replay *model* predicts, not seconds measured: exact for
    // a given trace, hence the unit of their own.
    out.push(exact(def("sim.modeled_s.pcg", "s_model", Lower)));
    out.push(exact(def("sim.modeled_s.pipe-pscg", "s_model", Lower)));
    out.push(exact(def(
        "sim.overlap_fraction.pipe-pscg",
        "share",
        Higher,
    )));
    out.push(def("sim.replay_ns_per_op", "ns", Lower));
    out.push(exact(def("sim.trace_bytes_per_op", "B", Lower)));
    out.push(def("sim.calib_spmv_ratio", "ratio", Lower));
    out.push(def("obs.raw_overhead_share", "share", Lower));
    out.push(def("obs.aggregate_overhead_share", "share", Lower));
    out.push(def("obs.flight_overhead_share", "share", Lower));
    out.push(def("fault.armed_empty_overhead_share", "share", Lower));
    out
}

/// One line per workload: why it is in the benchmark.
pub fn workload_why(name: &str) -> &'static str {
    match name {
        "p125-jacobi" => "125-pt Poisson 64^3, CSR 8x LLC, Jacobi: SpMV/MPK is >=70% of every solve, so matrix traffic (cache-blocked MPK, SpMV format) shows here",
        "p7-jacobi" => "7-pt Poisson 80^3, vectors >> LLC, Jacobi: SpMV <35% of PIPE-PsCG, so Gram/combine/BLAS-1 and fused block updates show here, not on p125-jacobi",
        "p125-mg" => "125-pt Poisson 48^3 under geometric multigrid: 7-9 iterations, >=50% of a solve inside pc_apply and set-up comparable to a solve, so PC work and work moved into set-up show here",
        "small27" => "27-pt Poisson 16^3, cache-resident, serial engine: per-call overhead (Vec-returning collectives, per-pass scratch, trace hooks) does the work at a strong-scaled rank-local size",
        "small27-spmd" => "the small27 inputs on 2 thread-backed ranks (halo exchange, rendezvous allreduce, spmv_rows): a serial-kernel gain that costs the distributed path shows here",
        _ => panic!("no such workload: {name}"),
    }
}

/// Seconds one run measures (the driver passes it back as `--seconds`).
pub const RUN_SECONDS: u32 = 8;

/// `BENCHMARK.json`, printed from the registry.
pub fn contract_json() -> String {
    let mut s = String::from("{\n");
    s.push_str(
        "  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \
         \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\"],\n",
    );
    s.push_str("  \"paths\": [\"benchmark\"],\n");
    s.push_str(&format!("  \"run_seconds\": {RUN_SECONDS},\n"));
    s.push_str("  \"workloads\": [\n");
    let rows: Vec<String> = WORKLOADS
        .iter()
        .map(|w| {
            format!(
                "    {{\"name\": \"{}\", \"why\": \"{}\"}}",
                w.name,
                workload_why(w.name)
            )
        })
        .collect();
    s.push_str(&rows.join(",\n"));
    s.push_str("\n  ],\n  \"end_to_end\": [\n");
    let rows: Vec<String> = end_to_end()
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name,
                m.unit,
                m.better.as_str(),
                m.bound.expect("end-to-end metrics carry a bound")
            )
        })
        .collect();
    s.push_str(&rows.join(",\n"));
    s.push_str("\n  ],\n  \"per_layer\": [\n");
    let rows: Vec<String> = per_layer()
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                m.name,
                m.unit,
                m.better.as_str()
            )
        })
        .collect();
    s.push_str(&rows.join(",\n"));
    s.push_str("\n  ]\n}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name_ok(n: &str) -> bool {
        n.len() <= 64
            && n.starts_with(|c: char| c.is_ascii_alphanumeric())
            && n.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn registry_meets_the_contract_limits() {
        let (e2e, layers) = (end_to_end(), per_layer());
        assert!((1..=16).contains(&e2e.len()));
        assert!((1..=128).contains(&layers.len()));
        let mut seen = std::collections::BTreeSet::new();
        for m in e2e.iter().chain(&layers) {
            assert!(name_ok(&m.name), "bad metric name {}", m.name);
            assert!(seen.insert(m.name.clone()), "duplicate name {}", m.name);
            assert!(m.unit.len() <= 16);
        }
        for w in WORKLOADS {
            assert!(name_ok(w.name) && seen.insert(w.name.to_string()));
            assert!(workload_why(w.name).len() <= 200);
        }
        assert!(e2e.iter().all(|m| m.bound.is_some_and(|b| b <= 0.25)));
        let setup = e2e.iter().find(|m| m.name == "setup_s").unwrap();
        let widest = e2e.iter().filter_map(|m| m.bound).fold(0.0, f64::max);
        assert_eq!(setup.bound, Some(widest), "setup_s has the largest bound");
        assert!(contract_json().len() <= 64 * 1024);
    }

    #[test]
    fn committed_contract_is_the_registry() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            committed,
            contract_json(),
            "regenerate with `solvebench --contract > BENCHMARK.json`"
        );
    }
}
