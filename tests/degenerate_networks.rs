//! Property-style sweeps over degenerate RC networks.
//!
//! The reduction pipeline must never panic on pathological input: every
//! failure on the `rcfit` path is a typed [`PactError`] with node or
//! element attribution, and every success is a finite, well-formed
//! reduced model. Each seed drives the vendored [`XorShiftRng`] to build
//! a random network and then injects one or more degeneracies — floating
//! internal nodes, zero-value capacitors, astronomically resistive
//! near-singular `D` blocks, disconnected ports, non-finite values — and
//! runs the same sanitize → reduce pipeline the CLI runs, inside
//! `catch_unwind` so a panic anywhere is reported as a seed-numbered
//! test failure rather than a process abort.

use std::panic::{catch_unwind, AssertUnwindSafe};

use pact::{
    reduce_network, sanitize_network, CutoffSpec, EigenSelect, PactError, ReduceOptions, Reduction,
};
use pact_lanczos::LanczosConfig;
use pact_netlist::{Branch, RcNetwork};
use pact_sparse::XorShiftRng;

/// Seeds per degeneracy class in the default (fast) run.
#[cfg(not(feature = "slow-tests"))]
const SEEDS: u64 = 12;
/// Seeds per degeneracy class under `--features slow-tests`.
#[cfg(feature = "slow-tests")]
const SEEDS: u64 = 120;

/// A connected random RC core: `ports` port nodes, `internals` internal
/// nodes, a spanning resistor tree plus random cross links, grounded at
/// node 0, a capacitor on every node.
fn random_core(rng: &mut XorShiftRng, ports: usize, internals: usize) -> RcNetwork {
    let n = ports + internals;
    let mut resistors = vec![Branch {
        a: Some(0),
        b: None,
        value: rng.gen_range_f64(10.0, 1_000.0),
    }];
    for k in 1..n {
        let prev = rng.gen_index(k);
        resistors.push(Branch {
            a: Some(k),
            b: Some(prev),
            value: rng.gen_range_f64(1.0, 5_000.0),
        });
    }
    for _ in 0..n / 2 {
        let a = rng.gen_index(n);
        let b = rng.gen_index(n);
        if a != b {
            resistors.push(Branch {
                a: Some(a),
                b: Some(b),
                value: rng.gen_range_f64(100.0, 50_000.0),
            });
        }
    }
    let capacitors = (0..n)
        .map(|k| Branch {
            a: Some(k),
            b: None,
            value: rng.gen_range_f64(1e-15, 5e-12),
        })
        .collect();
    let mut node_names: Vec<String> = (0..ports).map(|i| format!("p{i}")).collect();
    node_names.extend((0..internals).map(|i| format!("n{i}")));
    RcNetwork {
        node_names,
        num_ports: ports,
        resistors,
        capacitors,
    }
}

/// Appends `extra` new internal nodes with no resistive path anywhere:
/// only capacitive links into the existing network (or nothing at all).
fn add_floating_cluster(rng: &mut XorShiftRng, net: &mut RcNetwork, extra: usize) {
    let base = net.node_names.len();
    for j in 0..extra {
        net.node_names.push(format!("float{j}"));
        if rng.gen_index(3) > 0 {
            net.capacitors.push(Branch {
                a: Some(base + j),
                b: Some(rng.gen_index(base)),
                value: rng.gen_range_f64(1e-15, 1e-12),
            });
        }
    }
}

/// Zeroes a handful of capacitor values in place.
fn add_zero_caps(rng: &mut XorShiftRng, net: &mut RcNetwork) {
    let m = net.capacitors.len();
    for _ in 0..1 + rng.gen_index(3) {
        let i = rng.gen_index(m);
        net.capacitors[i].value = 0.0;
    }
}

/// Hangs a chain of astronomically large resistors off an internal node,
/// driving that block of `D` within rounding error of singular.
fn add_near_singular_chain(rng: &mut XorShiftRng, net: &mut RcNetwork, links: usize) {
    let base = net.node_names.len();
    let anchor = rng.gen_index(base);
    for j in 0..links {
        net.node_names.push(format!("stiff{j}"));
        let prev = if j == 0 { anchor } else { base + j - 1 };
        net.resistors.push(Branch {
            a: Some(base + j),
            b: Some(prev),
            value: rng.gen_range_f64(1e18, 1e22),
        });
        net.capacitors.push(Branch {
            a: Some(base + j),
            b: None,
            value: rng.gen_range_f64(1e-15, 1e-13),
        });
    }
}

/// Detaches one port from every resistor, leaving it connected (if at
/// all) only through capacitors.
fn disconnect_port(rng: &mut XorShiftRng, net: &mut RcNetwork) {
    let port = rng.gen_index(net.num_ports);
    net.resistors
        .retain(|r| r.a != Some(port) && r.b != Some(port));
}

/// Poisons one element value with a non-finite number.
fn add_non_finite(rng: &mut XorShiftRng, net: &mut RcNetwork) {
    let bad = if rng.gen_index(2) == 0 {
        f64::NAN
    } else {
        f64::INFINITY
    };
    if rng.gen_index(2) == 0 {
        let i = rng.gen_index(net.resistors.len());
        net.resistors[i].value = bad;
    } else {
        let i = rng.gen_index(net.capacitors.len());
        net.capacitors[i].value = bad;
    }
}

/// The CLI's reduction path: sanitize, then reduce with pivot relief.
/// Every failure must surface as a typed [`PactError`].
fn run_pipeline(net: &RcNetwork, strict_pivots: bool) -> Result<Reduction, PactError> {
    let sanitized = sanitize_network(net).map_err(PactError::from)?;
    let opts = ReduceOptions {
        cutoff: CutoffSpec::new(1e9, 0.1).map_err(PactError::from)?,
        eigen_backend: EigenSelect::Lanczos(LanczosConfig::default()),
        ordering: pact_sparse::Ordering::MinDegree,
        dense_threshold: 0,
        threads: None,
        pivot_relief: if strict_pivots { None } else { Some(1e-12) },
        strategy: pact::ReduceStrategy::Flat,
        chol_kernel: pact::CholKernel::Auto,
    };
    reduce_network(&sanitized.network, &opts)
        .map_err(|e| PactError::from_reduce(e, &sanitized.network))
}

/// A model that comes back `Ok` must be structurally sound: square port
/// blocks, matching pole/row counts, every entry finite.
fn assert_model_well_formed(red: &Reduction, what: &str) {
    let m = red.model.num_ports();
    assert_eq!(red.model.a1.nrows(), m, "{what}: A' not square");
    assert_eq!(red.model.a1.ncols(), m, "{what}: A' not square");
    assert_eq!(red.model.b1.nrows(), m, "{what}: B' shape");
    assert_eq!(
        red.model.r2.nrows(),
        red.model.lambdas.len(),
        "{what}: R'' rows vs poles"
    );
    for &v in red.model.a1.as_slice() {
        assert!(v.is_finite(), "{what}: non-finite entry in A'");
    }
    for &v in red.model.b1.as_slice() {
        assert!(v.is_finite(), "{what}: non-finite entry in B'");
    }
    for &v in red.model.r2.as_slice() {
        assert!(v.is_finite(), "{what}: non-finite entry in R''");
    }
    for &l in &red.model.lambdas {
        assert!(l.is_finite(), "{what}: non-finite pole");
    }
}

/// Runs one degeneracy class over `SEEDS` seeds. `mutate` injects the
/// degeneracy; `allowed_codes` lists the error codes a typed failure may
/// carry (anything else, or a panic, fails the test).
fn sweep(label: &str, mutate: impl Fn(&mut XorShiftRng, &mut RcNetwork), allowed_codes: &[&str]) {
    for seed in 0..SEEDS {
        let what = format!("{label}/seed{seed}");
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            let mut rng = XorShiftRng::seed_from_u64(0xdead_0000 + seed * 7919);
            let ports = 2 + rng.gen_index(4);
            let internals = 10 + rng.gen_index(30);
            let mut net = random_core(&mut rng, ports, internals);
            mutate(&mut rng, &mut net);
            run_pipeline(&net, false)
        }));
        match outcome {
            Err(_) => panic!("{what}: pipeline panicked on degenerate input"),
            Ok(Ok(red)) => assert_model_well_formed(&red, &what),
            Ok(Err(e)) => assert!(
                allowed_codes.contains(&e.code()),
                "{what}: unexpected error [{}]: {e}",
                e.code()
            ),
        }
    }
}

#[test]
fn baseline_random_networks_reduce_cleanly() {
    sweep("baseline", |_, _| {}, &[]);
}

#[test]
fn floating_internal_nodes_never_panic() {
    sweep(
        "floating",
        |rng, net| {
            let extra = 1 + rng.gen_index(5);
            add_floating_cluster(rng, net, extra);
        },
        &[],
    );
}

#[test]
fn zero_value_capacitors_never_panic() {
    sweep("zero-caps", add_zero_caps, &[]);
}

#[test]
fn near_singular_d_never_panics_with_pivot_relief() {
    sweep(
        "near-singular",
        |rng, net| {
            let links = 1 + rng.gen_index(4);
            add_near_singular_chain(rng, net, links);
        },
        // Pivot relief should normally absorb these, but a chain this
        // stiff may still legitimately fail factoring or stall the
        // Lanczos sweep; what it must never do is panic or come back
        // with an unattributed error.
        &["singular_internal_conductance", "lanczos"],
    );
}

#[test]
fn disconnected_ports_never_panic() {
    sweep("disconnected-port", disconnect_port, &[]);
}

#[test]
fn non_finite_values_are_typed_network_errors() {
    sweep("non-finite", add_non_finite, &["network"]);
}

#[test]
fn everything_at_once_never_panics() {
    sweep(
        "combined",
        |rng, net| {
            let extra = 1 + rng.gen_index(3);
            add_floating_cluster(rng, net, extra);
            add_zero_caps(rng, net);
            let links = 1 + rng.gen_index(3);
            add_near_singular_chain(rng, net, links);
            disconnect_port(rng, net);
        },
        &["singular_internal_conductance", "lanczos"],
    );
}

#[test]
fn strict_pivots_fail_with_node_attribution() {
    // Under --strict-pivots the near-singular chain must either factor
    // or name a specific internal node in the error, never panic.
    for seed in 0..SEEDS {
        let what = format!("strict/seed{seed}");
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            let mut rng = XorShiftRng::seed_from_u64(0xbeef_0000 + seed * 104_729);
            let mut net = random_core(&mut rng, 3, 20);
            let links = 2 + rng.gen_index(3);
            add_near_singular_chain(&mut rng, &mut net, links);
            run_pipeline(&net, true)
        }));
        match outcome {
            Err(_) => panic!("{what}: pipeline panicked"),
            Ok(Ok(red)) => assert_model_well_formed(&red, &what),
            Ok(Err(e)) => match e.code() {
                "singular_internal_conductance" => {
                    let msg = e.to_string();
                    assert!(
                        msg.contains("stiff") || msg.contains('n') || msg.contains('p'),
                        "{what}: error lacks node attribution: {msg}"
                    );
                }
                "lanczos" => {}
                other => panic!("{what}: unexpected error [{other}]: {e}"),
            },
        }
    }
}
