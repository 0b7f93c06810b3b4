//! The Hybrid-pipelined method on a hard matrix (paper §VI-B, Table II).
//!
//! At tight tolerances the s-step recurrences stagnate; the hybrid runs
//! PIPE-PsCG until stagnation, then finishes with PIPECG-OATI from the
//! stagnated iterate. This example shows all three behaviours on an
//! ecology2-like anisotropic 2-D problem.
//!
//! Pass a Matrix Market file to run on your own SPD matrix:
//!
//! ```sh
//! cargo run --release --example suitesparse_hybrid [matrix.mtx]
//! ```

use pipe_pscg::pipescg::methods::MethodKind;
use pipe_pscg::pipescg::solver::SolveOptions;
use pipe_pscg::pscg_precond::Jacobi;
use pipe_pscg::pscg_sim::SimCtx;
use pipe_pscg::pscg_sparse::{io, suitesparse};

fn main() {
    let a = match std::env::args().nth(1) {
        Some(path) => {
            println!("reading {path} ...");
            let file = std::fs::File::open(&path).expect("cannot open matrix file");
            io::read_matrix_market(file).expect("invalid Matrix Market file")
        }
        None => {
            println!("no matrix given; generating an ecology2-like surrogate (use --help)");
            suitesparse::ecology2_like(120, 121).expect("a 120 x 121 grid fits u32 indices")
        }
    };
    assert!(
        a.is_symmetric(1e-10),
        "this example needs a symmetric matrix"
    );
    let b = a.mul_vec(&vec![1.0; a.nrows()]);
    println!("matrix: {} unknowns, {} nonzeros\n", a.nrows(), a.nnz());

    let opts = SolveOptions {
        rtol: 1e-9,
        s: 3,
        max_iters: 200_000,
        ..Default::default()
    };
    for m in [MethodKind::Pcg, MethodKind::PipePscg, MethodKind::Hybrid] {
        let mut ctx = SimCtx::serial(&a, Box::new(Jacobi::new(&a)));
        let res = m.solve(&mut ctx, &b, None, &opts);
        println!(
            "{:<17} stop = {:?}; {} steps; test residual {:.2e}; true residual {:.2e}",
            res.method,
            res.stop,
            res.iterations,
            res.final_relres,
            res.true_relres(&a, &b),
        );
    }
    println!(
        "\nPIPE-PsCG alone may stagnate above rtol; the hybrid detects the \
         flat residual curve and hands the iterate to PIPECG-OATI (§VI-B)."
    );
}
