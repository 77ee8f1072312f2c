//! Fully matrix-free PACT: the entire reduction runs on `D`-solves by
//! preconditioned conjugate gradients — no Cholesky factor is ever
//! formed, so memory stays proportional to the sparse matrices
//! themselves. The logical endpoint of the paper's Section-4 memory
//! argument, useful when a 3-D mesh's factor fill exceeds the budget.
//!
//! Run with `cargo run --release --example matrix_free`.

use std::time::Instant;

use pact::{reduce_matrix_free, CutoffSpec, DSolver, Partitions, PcgSolver, ReduceOptions};
use pact_gen::{substrate_mesh, MeshSpec};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let net = substrate_mesh(&MeshSpec {
        nx: 20,
        ny: 20,
        nz: 6,
        num_contacts: 30,
        ..MeshSpec::table2()
    });
    println!(
        "mesh: {} ports, {} internal nodes",
        net.num_ports,
        net.num_internal()
    );
    let spec = CutoffSpec::new(1e9, 0.05)?;
    let parts = Partitions::split(&net.stamp());
    let ports: Vec<String> = net.node_names[..net.num_ports].to_vec();

    // Standard path: factor D, reduce.
    let start = Instant::now();
    let standard = pact::reduce_network(&net, &ReduceOptions::new(spec))?;
    println!(
        "factored:    {} poles, {:.2} s, factor+work {:.1} MB",
        standard.model.num_poles(),
        start.elapsed().as_secs_f64(),
        standard.telemetry.counters.modelled_memory_bytes as f64 / 1e6
    );

    // Matrix-free path: IC(0)-preconditioned CG for every D-solve.
    let solver = PcgSolver::new(&parts.d)?;
    let start = Instant::now();
    let mf = reduce_matrix_free(&parts, &ports, &spec, &solver)?;
    println!(
        "matrix-free: {} poles, {:.2} s, working set {:.1} MB (IC(0) is zero-fill)",
        mf.model.num_poles(),
        start.elapsed().as_secs_f64(),
        solver.memory_bytes() as f64 / 1e6
    );

    // The two models agree.
    let f = 1e9;
    let ya = standard.model.y_at(f);
    let yb = mf.model.y_at(f);
    let mut worst: f64 = 0.0;
    let scale = ya[(0, 0)].abs();
    for i in 0..parts.m {
        for j in 0..parts.m {
            worst = worst.max((ya[(i, j)] - yb[(i, j)]).abs() / scale);
        }
    }
    println!("max |ΔY| between the two models at 1 GHz: {worst:.2e} (relative)");
    assert!(mf.model.is_passive(1e-7));
    println!("matrix-free model passivity: OK");
    Ok(())
}
