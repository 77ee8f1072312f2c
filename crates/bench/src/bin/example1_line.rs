//! §6 illustrative example / eq. (20): reduce the 100-segment RC
//! transmission line (250 Ω, 1.35 pF) at 5 % tolerance, 5 GHz maximum
//! frequency. The paper finds a single pole at 4.7 GHz and prints the
//! 3×3 reduced G and C matrices (two ports + one internal node).

use pact::{CutoffSpec, EigenSelect, Partitions, ReduceOptions};
use pact_bench::{mb, print_table, secs, timed};
use pact_gen::{add_default_models, inverter, rc_line_elements, LineSpec};
use pact_netlist::{extract_rc, Element, ElementKind, Netlist, Waveform};
use pact_sparse::Ordering;

/// The Figure 2 circuit without an explicit output load, so the RC
/// network has exactly the paper's two ports (line_in, line_out).
fn deck() -> Netlist {
    let mut nl = Netlist::new("fig2 inverter pair, line only");
    add_default_models(&mut nl);
    nl.elements.push(Element {
        name: "Vdd".into(),
        kind: ElementKind::VSource {
            p: "vdd".into(),
            n: "0".into(),
            wave: Waveform::Dc(5.0),
        },
    });
    nl.elements.push(Element {
        name: "Vin".into(),
        kind: ElementKind::VSource {
            p: "in".into(),
            n: "0".into(),
            wave: Waveform::Dc(0.0),
        },
    });
    nl.elements.extend(inverter(
        "drv", "in", "line_in", "vdd", "0", "vdd", 100e-6, 200e-6,
    ));
    nl.elements.extend(rc_line_elements(
        &LineSpec::default(),
        "line_in",
        "line_out",
        "ln",
    ));
    nl.elements.extend(inverter(
        "rcv", "line_out", "out", "vdd", "0", "vdd", 4e-6, 8e-6,
    ));
    nl
}

fn main() {
    println!("# Example 1 (paper §6, eq. 20): 100-segment RC line, 5 %, 5 GHz");
    let nl = deck();
    let ex = extract_rc(&nl, &[]).expect("extraction");
    let net = &ex.network;
    println!(
        "\nextracted network: {} ports, {} internal nodes, {} R, {} C (paper: 2 ports, 99 internal)",
        net.num_ports,
        net.num_internal(),
        net.resistors.len(),
        net.capacitors.len()
    );

    let opts = ReduceOptions {
        cutoff: CutoffSpec::new(5e9, 0.05).expect("cutoff"),
        eigen_backend: EigenSelect::LowRank,
        ordering: Ordering::NestedDissection,
        dense_threshold: 400,
        threads: None,
        pivot_relief: None,
        strategy: pact::ReduceStrategy::Flat,
        chol_kernel: pact::CholKernel::Auto,
    };
    let (red, elapsed) = timed(|| pact::reduce_network(net, &opts).expect("reduce"));
    let model = &red.model;
    println!(
        "cutoff frequency f_c = {:.3} GHz (ratio {:.3} × f_max; paper quotes 3.04)",
        opts.cutoff.cutoff_frequency() / 1e9,
        opts.cutoff.cutoff_ratio()
    );
    println!(
        "retained poles: {} (paper: 1), reduction time {} s, modelled memory {} MB",
        model.num_poles(),
        secs(elapsed),
        mb(red.stats.modelled_memory_bytes)
    );
    for f in model.pole_frequencies() {
        println!("pole at {:.2} GHz (paper: 4.7 GHz)", f / 1e9);
    }

    // Reduced matrices with the paper's internal-row normalization,
    // printed in the paper's units (mS and fF).
    let (g, c) = model.to_matrices_normalized();
    let dim = g.nrows();
    let fmt_mat = |m: &pact_sparse::DMat<f64>, scale: f64| -> Vec<Vec<String>> {
        (0..dim)
            .map(|i| {
                (0..dim)
                    .map(|j| format!("{:.1}", m[(i, j)] * scale))
                    .collect()
            })
            .collect()
    };
    let hdr: Vec<&str> = (0..dim).map(|_| "·").collect();
    print_table(
        "G'' in mS (paper eq. 20: [[4,-4,0],[-4,4,0],[0,0,32]])",
        &hdr,
        &fmt_mat(&g, 1e3),
    );
    print_table(
        "C'' in fF (paper eq. 20: [[443,225,-547],[225,457,-547],[-547,-547,1094]])",
        &hdr,
        &fmt_mat(&c, 1e15),
    );

    // Accuracy versus the exact admittance below f_max.
    let parts = Partitions::split(&net.stamp());
    let full = pact::FullAdmittance::new(&parts);
    // Error relative to the admittance scale ‖Y(f)‖_max at each
    // frequency (entrywise relative error on the exponentially decaying
    // transfer term Y12 is not what the tolerance bounds).
    let mut worst: f64 = 0.0;
    for k in 1..=20 {
        let f = 5e9 * k as f64 / 20.0;
        let ye = full.y_at(f).expect("exact Y");
        let yr = model.y_at(f);
        let scale = (0..net.num_ports)
            .flat_map(|i| (0..net.num_ports).map(move |j| (i, j)))
            .map(|(i, j)| ye[(i, j)].abs())
            .fold(1e-300, f64::max);
        for i in 0..net.num_ports {
            for j in 0..net.num_ports {
                worst = worst.max((yr[(i, j)] - ye[(i, j)]).abs() / scale);
            }
        }
    }
    println!(
        "worst-case error below 5 GHz, relative to ||Y(f)||: {:.2} % (tolerance 5 %)",
        worst * 100.0
    );
    assert!(model.is_passive(1e-8), "reduced model must be passive");
    println!("passivity check: PASS (G'', C'' non-negative definite)");
}
