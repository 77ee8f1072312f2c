//! Cross-crate comparison of PACT against the Padé baselines on a shared
//! workload — the qualitative claims of the paper's Sections 1 and 4:
//! both methods are accurate at low frequency, both congruence methods
//! are passive, and the Padé basis memory couples to the port count
//! while PACT's does not.

use pact::{CutoffSpec, EigenSelect, Partitions, ReduceOptions};
use pact_baselines::{admittance_moments, block_krylov_reduce, pade_fit};
use pact_gen::{substrate_mesh, MeshSpec};
use pact_lanczos::LanczosConfig;
use pact_sparse::Ordering;

fn mesh(m: usize) -> (pact_netlist::RcNetwork, Partitions, Vec<String>) {
    let net = substrate_mesh(&MeshSpec {
        nx: 10,
        ny: 10,
        nz: 4,
        num_contacts: m,
        ..MeshSpec::table2()
    });
    let parts = Partitions::split(&net.stamp());
    let ports = net.node_names[..net.num_ports].to_vec();
    (net, parts, ports)
}

#[test]
fn pact_and_krylov_agree_at_low_frequency() {
    let (net, parts, ports) = mesh(8);
    let opts = ReduceOptions {
        cutoff: CutoffSpec::new(2e9, 0.05).unwrap(),
        eigen_backend: EigenSelect::Lanczos(LanczosConfig::default()),
        ordering: Ordering::Rcm,
        dense_threshold: 0,
        threads: None,
        pivot_relief: None,
        strategy: pact::ReduceStrategy::Flat,
        chol_kernel: pact::CholKernel::Auto,
    };
    let pact_red = pact::reduce_network(&net, &opts).unwrap();
    let kry = block_krylov_reduce(&parts, &ports, 2, Ordering::Rcm).unwrap();
    let full = pact::FullAdmittance::new(&parts);
    for &f in &[1e7, 1e8, 5e8] {
        let exact = full.y_at(f).unwrap();
        let yp = pact_red.model.y_at(f);
        let yk = kry.model.y_at(f);
        let scale = exact[(0, 0)].abs();
        for i in 0..parts.m {
            assert!(
                (yp[(i, i)] - exact[(i, i)]).abs() / scale < 0.05,
                "PACT off at f={f:e}"
            );
            assert!(
                (yk[(i, i)] - exact[(i, i)]).abs() / scale < 0.05,
                "Krylov off at f={f:e}"
            );
        }
    }
}

#[test]
fn both_congruence_methods_are_passive() {
    let (net, parts, ports) = mesh(6);
    let opts = ReduceOptions::new(CutoffSpec::new(1e9, 0.05).unwrap());
    let pact_red = pact::reduce_network(&net, &opts).unwrap();
    let kry = block_krylov_reduce(&parts, &ports, 2, Ordering::Rcm).unwrap();
    assert!(pact_red.model.is_passive(1e-7));
    assert!(kry.model.is_passive(1e-7));
}

#[test]
fn pade_basis_memory_couples_to_ports_pact_does_not() {
    let (net_a, parts_a, ports_a) = mesh(4);
    let (net_b, parts_b, ports_b) = mesh(24);
    let opts = ReduceOptions {
        cutoff: CutoffSpec::new(1e9, 0.05).unwrap(),
        eigen_backend: EigenSelect::Lanczos(LanczosConfig::default()),
        ordering: Ordering::Rcm,
        dense_threshold: 0,
        threads: None,
        pivot_relief: None,
        strategy: pact::ReduceStrategy::Flat,
        chol_kernel: pact::CholKernel::Auto,
    };
    let pact_a = pact::reduce_network(&net_a, &opts).unwrap();
    let pact_b = pact::reduce_network(&net_b, &opts).unwrap();
    let kry_a = block_krylov_reduce(&parts_a, &ports_a, 2, Ordering::Rcm).unwrap();
    let kry_b = block_krylov_reduce(&parts_b, &ports_b, 2, Ordering::Rcm).unwrap();
    // Krylov basis grows ~linearly with m…
    assert!(kry_b.basis_vectors >= 4 * kry_a.basis_vectors);
    // …while PACT's retained pole count tracks the spectrum, not m.
    let pa = pact_a.model.num_poles();
    let pb = pact_b.model.num_poles();
    assert!(
        pb <= pa + 3,
        "PACT pole count should not scale with ports: {pa} -> {pb}"
    );
}

#[test]
fn awe_matches_low_order_then_degrades() {
    // The ill-conditioning story of Section 1 on the mesh workload.
    let (_, parts, _) = mesh(4);
    let moments = admittance_moments(&parts, 14, Ordering::Rcm).unwrap();
    let series: Vec<f64> = moments.iter().map(|m| m[(0, 0)]).collect();
    let low = pade_fit(&series, 2).unwrap();
    assert!(low.hankel_condition.is_finite());
    // A low-order fit is accurate at low frequency.
    let full = pact::FullAdmittance::new(&parts);
    let f = 5e7;
    let exact = full.y_at(f).unwrap()[(0, 0)];
    let fit = low.y_at(f);
    assert!((fit - exact).abs() / exact.abs() < 0.05);
    // Higher order: condition number explodes (or outright singular).
    if let Ok(high) = pade_fit(&series, 6) {
        assert!(high.hankel_condition > 100.0 * low.hankel_condition);
    } // a singular Hankel is the same failure mode
}
