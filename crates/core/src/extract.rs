//! Embedded-parasitic extraction: automatic RC-subnetwork reduction for
//! mixed decks, plus the long-chain collapse pre-pass.
//!
//! Real extracted decks are not pure RC networks — the parasitics are
//! *embedded* among drivers, receivers, inductors and diodes. This
//! module runs the whole RCFIT flow on such a deck end-to-end:
//!
//! 1. flatten the deck and pull every resistor/capacitor into an
//!    [`RcNetwork`] ([`pact_netlist::extract_rc`]), so each connected
//!    component of the RC graph is a maximal RC-only subnetwork whose
//!    boundary nodes (the paper's port rule: any node also touching a
//!    non-RC device) become ports;
//! 2. optionally collapse long degree-2 RC chains
//!    ([`collapse_chains`]) — extracted interconnect is dominated by
//!    thousands-of-segments series chains that PACT would otherwise
//!    factor at full size;
//! 3. reduce every ported component through a [`ReductionSession`]
//!    (flat or hierarchical — whatever the session's options select);
//! 4. re-stitch the reduced realizations back into the deck
//!    ([`pact_netlist::splice_reduced`]), leaving every non-RC device,
//!    model and analysis card untouched, so the simulator runs the
//!    mixed deck with the parasitics replaced by their reduced
//!    equivalents.
//!
//! Decks with no reducible parasitics (no RC elements at all, or RC
//! elements that never touch a non-RC device) pass through unchanged at
//! zero cost rather than erroring.
//!
//! ## Chain collapse
//!
//! A degree-2 interior node — exactly two resistor terminals, shunt
//! capacitance to ground only — carries no branching information: a run
//! of `k` such nodes is a discretized RC line. Purely resistive runs
//! collapse *exactly* (series resistances add). Capacitive runs are
//! re-segmented onto a coarser uniform-in-resistance grid of `m`
//! segments, with `m` chosen so the rewrite's in-band admittance error
//! stays below `tol` (see [`ChainCollapseSpec`]; `τ = R_chain·C_chain`),
//! and each original shunt capacitor is split between its two
//! neighboring grid nodes linearly in resistive distance. That
//! preserves the chain's total resistance and capacitance exactly —
//! the port-visible DC admittance is untouched — and bounds the
//! in-band error by `tol`. Both
//! rewrites are pure functions of the network, so the pass is
//! deterministic and the collapsed network reduces bit-identically
//! across runs.

use pact_netlist::{extract_rc, splice_reduced, Branch, Netlist, NetworkError, RcNetwork};

use crate::error::PactError;
use crate::reduce::ComponentReduction;
use crate::sanitize::sanitize_network;
use crate::session::ReductionSession;
use crate::telemetry::Telemetry;

/// Accuracy specification for [`collapse_chains`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ChainCollapseSpec {
    /// Highest frequency (Hz) at which the collapsed chain must match
    /// the original.
    pub f_max: f64,
    /// Relative in-band admittance error budget (e.g. `1e-6`).
    pub tol: f64,
}

impl ChainCollapseSpec {
    /// A spec with the given band edge and error budget.
    ///
    /// # Errors
    ///
    /// Returns [`PactError::Internal`] when either value is non-positive
    /// or non-finite (the segment-count rule below would divide by
    /// zero or produce a non-finite count).
    pub fn new(f_max: f64, tol: f64) -> Result<ChainCollapseSpec, PactError> {
        if !(f_max > 0.0 && f_max.is_finite() && tol > 0.0 && tol.is_finite()) {
            return Err(PactError::Internal {
                message: format!(
                    "chain collapse spec requires positive finite f_max and tol, \
                     got f_max={f_max}, tol={tol}"
                ),
            });
        }
        Ok(ChainCollapseSpec { f_max, tol })
    }

    /// Segments needed to represent a chain with time constant `tau`
    /// within the spec.
    ///
    /// Two error terms, both `∝ 1/m²`: splitting each shunt capacitor
    /// between its neighboring grid nodes linearly in resistive
    /// distance perturbs the port-visible first admittance moment
    /// (whose per-capacitor weight is *quadratic* in position) by
    /// `≈ ω·τ/(4m²)`, and the coarser lumped line itself carries the
    /// classic `(ω·τ)²/(12m²)` discretization term. Budgeting both with
    /// a 2× margin on the first gives
    /// `m = ⌈√(ω·τ·(6 + ω·τ) / (12·tol))⌉`, at least 1.
    fn segments_for(&self, tau: f64) -> usize {
        let wt = 2.0 * std::f64::consts::PI * self.f_max * tau;
        let m = (wt * (6.0 + wt) / (12.0 * self.tol)).sqrt().ceil();
        if m.is_finite() && m >= 1.0 {
            m as usize
        } else {
            1
        }
    }
}

impl Default for ChainCollapseSpec {
    /// 1 GHz band edge, `1e-6` error budget.
    fn default() -> ChainCollapseSpec {
        ChainCollapseSpec {
            f_max: 1e9,
            tol: 1e-6,
        }
    }
}

/// Result of [`collapse_chains`].
#[derive(Clone, Debug)]
pub struct ChainCollapse {
    /// The rewritten network (ports-first order preserved; ports are
    /// never collapsed).
    pub network: RcNetwork,
    /// Chains actually rewritten (chains already at or below their
    /// target segment count are left untouched and not counted).
    pub chains_collapsed: u64,
    /// Net interior nodes removed across all collapsed chains.
    pub nodes_eliminated: u64,
}

/// One maximal degree-2 run found by the chain walk: the interior nodes
/// in order, the resistor branch indices along the path (one more than
/// the interior nodes), and the two anchor terminals (`None` = ground).
struct ChainRun {
    interior: Vec<usize>,
    resistors: Vec<usize>,
    anchor_a: Option<usize>,
    anchor_b: Option<usize>,
}

/// Collapses maximal runs of degree-2 interior nodes (see the module
/// docs for the eligibility rule and the re-segmentation scheme).
///
/// Ports, nodes with node-to-node coupling capacitors, and branching
/// nodes are never touched; chains whose accuracy-mandated segment
/// count is not smaller than their current one are kept as-is.
pub fn collapse_chains(net: &RcNetwork, spec: &ChainCollapseSpec) -> ChainCollapse {
    let n = net.num_nodes();

    // Per-node resistor adjacency and shunt-capacitance bookkeeping.
    let mut radj: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (bi, r) in net.resistors.iter().enumerate() {
        if r.a == r.b {
            continue; // self-loop or ground-to-ground: stamps nothing
        }
        if let Some(i) = r.a {
            radj[i].push(bi);
        }
        if let Some(i) = r.b {
            radj[i].push(bi);
        }
    }
    let mut cgnd = vec![0.0f64; n]; // summed shunt (to-ground) capacitance
    let mut coupled = vec![false; n]; // touches a node-to-node capacitor
    for c in &net.capacitors {
        match (c.a, c.b) {
            (Some(i), None) | (None, Some(i)) => cgnd[i] += c.value,
            (Some(i), Some(j)) if i != j => {
                coupled[i] = true;
                coupled[j] = true;
            }
            _ => {}
        }
    }

    let eligible = |i: usize| -> bool { i >= net.num_ports && radj[i].len() == 2 && !coupled[i] };

    // Walk maximal runs of eligible nodes.
    let mut visited = vec![false; n];
    let mut runs: Vec<ChainRun> = Vec::new();
    let other_end = |bi: usize, from: usize| -> Option<usize> {
        let r = &net.resistors[bi];
        if r.a == Some(from) {
            r.b
        } else {
            r.a
        }
    };
    for start in net.num_ports..n {
        if visited[start] || !eligible(start) {
            continue;
        }
        // Extend from `start` in both directions to the anchors.
        let mut interior = vec![start];
        let mut resistors = Vec::new();
        visited[start] = true;
        let mut anchors = [None, None];
        let mut ring = false;
        for dir in 0..2 {
            let mut here = start;
            let mut via = radj[start][dir];
            loop {
                let next = other_end(via, here);
                if dir == 0 {
                    resistors.insert(0, via);
                } else {
                    resistors.push(via);
                }
                match next {
                    Some(v) if eligible(v) && !visited[v] => {
                        visited[v] = true;
                        if dir == 0 {
                            interior.insert(0, v);
                        } else {
                            interior.push(v);
                        }
                        via = if radj[v][0] == via {
                            radj[v][1]
                        } else {
                            radj[v][0]
                        };
                        here = v;
                    }
                    Some(v) if eligible(v) && v == start => {
                        // Closed ring of eligible nodes: no anchor to
                        // hang a rewrite on; leave it untouched.
                        ring = true;
                        break;
                    }
                    other => {
                        anchors[dir] = other;
                        break;
                    }
                }
            }
            if ring {
                break;
            }
        }
        if !ring {
            runs.push(ChainRun {
                interior,
                resistors,
                anchor_a: anchors[0],
                anchor_b: anchors[1],
            });
        }
    }

    // Decide per run whether rewriting wins, and collect the rewrites.
    let mut drop_node = vec![false; n];
    let mut drop_res = vec![false; net.resistors.len()];
    let mut chains_collapsed = 0u64;
    let mut nodes_eliminated = 0u64;
    struct Rewrite {
        run: usize,
        segments: usize,
        r_seg: f64,
        /// `(grid_index, farads)` shunt caps on the new grid
        /// (0 = anchor_a, `segments` = anchor_b).
        caps: Vec<(usize, f64)>,
    }
    let mut rewrites: Vec<Rewrite> = Vec::new();
    for (ri, run) in runs.iter().enumerate() {
        let k = run.interior.len();
        let r_tot: f64 = run
            .resistors
            .iter()
            .map(|&bi| net.resistors[bi].value)
            .sum();
        let c_tot: f64 = run.interior.iter().map(|&v| cgnd[v]).sum();
        let m = if c_tot == 0.0 {
            1
        } else {
            spec.segments_for(r_tot * c_tot)
        };
        if m > k {
            continue; // rewrite would not remove any node
        }
        // Cumulative resistive position of each interior node, then
        // split every shunt cap between its two neighboring grid nodes
        // linearly in resistive distance.
        let mut caps: Vec<(usize, f64)> = Vec::new();
        let mut pos = 0.0f64;
        for (j, &v) in run.interior.iter().enumerate() {
            pos += net.resistors[run.resistors[j]].value;
            if cgnd[v] > 0.0 {
                let x = pos / r_tot * m as f64; // in grid units
                let t = (x.floor() as usize).min(m - 1);
                let w = x - t as f64;
                if cgnd[v] * (1.0 - w) > 0.0 {
                    caps.push((t, cgnd[v] * (1.0 - w)));
                }
                if cgnd[v] * w > 0.0 {
                    caps.push((t + 1, cgnd[v] * w));
                }
            }
        }
        for &v in &run.interior {
            drop_node[v] = true;
        }
        for &bi in &run.resistors {
            drop_res[bi] = true;
        }
        chains_collapsed += 1;
        nodes_eliminated += (k - (m - 1)) as u64;
        rewrites.push(Rewrite {
            run: ri,
            segments: m,
            r_seg: r_tot / m as f64,
            caps,
        });
    }

    if rewrites.is_empty() {
        return ChainCollapse {
            network: net.clone(),
            chains_collapsed: 0,
            nodes_eliminated: 0,
        };
    }

    // Rebuild: surviving nodes keep their relative order (ports first),
    // fresh grid nodes are appended per rewrite under a prefix that
    // cannot clash with any existing node name.
    let mut remap = vec![usize::MAX; n];
    let mut node_names = Vec::new();
    for (i, name) in net.node_names.iter().enumerate() {
        if !drop_node[i] {
            remap[i] = node_names.len();
            node_names.push(name.clone());
        }
    }
    let mut prefix = String::from("chx");
    while net.node_names.iter().any(|s| s.starts_with(&prefix)) {
        prefix.push('x');
    }
    let map = |t: Option<usize>| t.map(|i| remap[i]);

    let mut resistors: Vec<Branch> = net
        .resistors
        .iter()
        .enumerate()
        .filter(|(bi, _)| !drop_res[*bi])
        .map(|(_, r)| Branch {
            a: map(r.a),
            b: map(r.b),
            value: r.value,
        })
        .collect();
    let mut capacitors: Vec<Branch> = net
        .capacitors
        .iter()
        .filter(|c| {
            let on_dropped = |t: Option<usize>| t.is_some_and(|i| drop_node[i]);
            !(on_dropped(c.a) || on_dropped(c.b))
        })
        .map(|c| Branch {
            a: map(c.a),
            b: map(c.b),
            value: c.value,
        })
        .collect();

    for (wi, rw) in rewrites.iter().enumerate() {
        let run = &runs[rw.run];
        // Grid node index → new node index (anchors map through remap;
        // interior grid nodes are freshly created).
        let mut grid: Vec<Option<usize>> = Vec::with_capacity(rw.segments + 1);
        grid.push(map(run.anchor_a));
        for t in 1..rw.segments {
            grid.push(Some(node_names.len()));
            node_names.push(format!("{prefix}{wi}_{t}"));
        }
        grid.push(map(run.anchor_b));
        for t in 0..rw.segments {
            resistors.push(Branch {
                a: grid[t],
                b: grid[t + 1],
                value: rw.r_seg,
            });
        }
        for &(t, farads) in &rw.caps {
            // A cap landing on a ground anchor is shorted out exactly.
            if let Some(node) = grid[t] {
                capacitors.push(Branch {
                    a: Some(node),
                    b: None,
                    value: farads,
                });
            }
        }
    }

    ChainCollapse {
        network: RcNetwork {
            node_names,
            num_ports: net.num_ports,
            resistors,
            capacitors,
        },
        chains_collapsed,
        nodes_eliminated,
    }
}

/// Options for [`reduce_embedded`].
#[derive(Clone, Debug)]
pub struct ExtractOptions {
    /// Node names forced to be ports in addition to the port rule.
    pub extra_ports: Vec<String>,
    /// Run the chain-collapse pre-pass with this spec before reduction.
    pub collapse: Option<ChainCollapseSpec>,
    /// Sparsification tolerance for the emitted reduced elements
    /// (`0.0` = keep everything; see
    /// [`pact_netlist::sparsify_preserving_passivity`]).
    pub sparsify: f64,
    /// Name prefix for the reduced networks' internal nodes and
    /// elements.
    pub prefix: String,
}

impl Default for ExtractOptions {
    fn default() -> ExtractOptions {
        ExtractOptions {
            extra_ports: Vec::new(),
            collapse: None,
            sparsify: 0.0,
            prefix: "pact".to_owned(),
        }
    }
}

/// Result of [`reduce_embedded`].
#[derive(Clone, Debug)]
pub struct EmbeddedReduction {
    /// The flattened deck with every reducible RC subnetwork replaced by
    /// its reduced realization (or the flattened input unchanged on the
    /// pass-through path).
    pub deck: Netlist,
    /// Per-component reductions, or `None` when the deck had nothing to
    /// reduce (pass-through).
    pub reduction: Option<ComponentReduction>,
    /// Aggregated telemetry: extraction counters
    /// (`extract_subnets`, `chains_collapsed`, `nodes_eliminated`),
    /// sanitize warnings, and every component's reduction record.
    pub telemetry: Telemetry,
    /// Internal (non-port) RC nodes in the deck before any rewriting.
    pub nodes_before: usize,
    /// Internal nodes in the re-stitched deck (retained poles across all
    /// reduced components).
    pub nodes_after: usize,
}

/// Reduces the parasitics embedded in a mixed deck end-to-end: flatten →
/// extract maximal RC subnetworks → (optional) chain collapse → sanitize
/// → per-component reduction through `session` → re-stitch.
///
/// Decks with no reducible RC subnetwork (no RC elements, or none
/// touching a non-RC device and no `extra_ports`) are returned
/// unchanged with `reduction: None` — the pass-through path costs one
/// element scan and never errors.
///
/// # Errors
///
/// [`PactError`] on flatten failures, non-physical element values, or a
/// failed reduction; factorization failures are attributed to the
/// offending node of the extracted network.
pub fn reduce_embedded(
    deck: &Netlist,
    session: &mut ReductionSession,
    opts: &ExtractOptions,
) -> Result<EmbeddedReduction, PactError> {
    let mut tel = Telemetry::new();
    let flat = if deck.instances.is_empty() {
        deck.clone()
    } else {
        tel.time("flatten", || deck.flatten())?
    };

    let extra: Vec<&str> = opts.extra_ports.iter().map(String::as_str).collect();
    let extraction = match tel.time("extract", || extract_rc(&flat, &extra)) {
        Ok(ex) => ex,
        Err(NetworkError::NoPorts) => {
            return Ok(EmbeddedReduction {
                deck: flat,
                reduction: None,
                telemetry: tel,
                nodes_before: 0,
                nodes_after: 0,
            });
        }
        Err(e) => return Err(e.into()),
    };
    let nodes_before = extraction.network.num_internal();

    let report = tel.time("sanitize", || sanitize_network(&extraction.network))?;
    report.record(&mut tel);
    let mut network = report.network;

    if let Some(spec) = &opts.collapse {
        let collapsed = tel.time("collapse", || collapse_chains(&network, spec));
        tel.counters.chains_collapsed = collapsed.chains_collapsed;
        tel.counters.nodes_eliminated = collapsed.nodes_eliminated;
        network = collapsed.network;
    }

    let reduction = session
        .reduce_network_components(&network)
        .map_err(|e| PactError::from_reduce(e, &network))?;
    tel.absorb(&reduction.telemetry());
    tel.counters.extract_subnets = reduction.reductions.len() as u64;

    let elements = tel.time("emit", || {
        reduction.to_netlist_elements(&opts.prefix, opts.sparsify)
    });
    let deck_out = splice_reduced(&flat, elements);
    let nodes_after = reduction.num_poles();

    Ok(EmbeddedReduction {
        deck: deck_out,
        reduction: Some(reduction),
        telemetry: tel,
        nodes_before,
        nodes_after,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::admittance::FullAdmittance;
    use crate::cutoff::CutoffSpec;
    use crate::partition::Partitions;
    use crate::reduce::ReduceOptions;
    use pact_netlist::parse;

    /// A two-port RC line of `nseg` segments (series R, shunt C).
    fn line_net(nseg: usize, r_total: f64, c_total: f64) -> RcNetwork {
        let mut deck = String::from("* l\nV1 p0 0 1\nM1 q pN 0 0 n\n.model n nmos()\n");
        for i in 0..nseg {
            let a = if i == 0 { "p0".into() } else { format!("n{i}") };
            let b = if i == nseg - 1 {
                "pN".into()
            } else {
                format!("n{}", i + 1)
            };
            deck.push_str(&format!(
                "R{i} {a} {b} {}\nC{i} {b} 0 {}\n",
                r_total / nseg as f64,
                c_total / nseg as f64
            ));
        }
        extract_rc(&parse(&deck).unwrap(), &[]).unwrap().network
    }

    fn max_rel_y_err(a: &RcNetwork, b: &RcNetwork, freqs: &[f64]) -> f64 {
        let pa = Partitions::split(&a.stamp());
        let pb = Partitions::split(&b.stamp());
        let fa = FullAdmittance::new(&pa);
        let fb = FullAdmittance::new(&pb);
        let m = a.num_ports;
        assert_eq!(m, b.num_ports);
        let mut worst = 0.0f64;
        for &f in freqs {
            let ya = fa.y_at(f).unwrap();
            let yb = fb.y_at(f).unwrap();
            for i in 0..m {
                for j in 0..m {
                    let denom = ya[(i, j)].abs().max(1e-12);
                    worst = worst.max((ya[(i, j)] - yb[(i, j)]).abs() / denom);
                }
            }
        }
        worst
    }

    #[test]
    fn resistive_chain_collapses_to_one_exact_resistor() {
        let deck = "* r\nV1 a 0 1\nM1 x b 0 0 n\n.model n nmos()\n\
                    R1 a m1 10\nR2 m1 m2 20\nR3 m2 m3 30\nR4 m3 b 40\n.end\n";
        let net = extract_rc(&parse(deck).unwrap(), &[]).unwrap().network;
        assert_eq!(net.num_internal(), 3);
        let out = collapse_chains(&net, &ChainCollapseSpec::default());
        assert_eq!(out.chains_collapsed, 1);
        assert_eq!(out.nodes_eliminated, 3);
        assert_eq!(out.network.num_internal(), 0);
        assert_eq!(out.network.resistors.len(), 1);
        assert!((out.network.resistors[0].value - 100.0).abs() < 1e-12);
        let err = max_rel_y_err(&net, &out.network, &[0.0, 1e9]);
        assert!(err < 1e-12, "series merge is exact up to roundoff: {err:e}");
    }

    #[test]
    fn rc_line_resegments_within_tolerance() {
        // 200 segments, 250 Ω / 1.35 pF, 100 MHz band: the error rule
        // mandates far fewer segments than 200.
        let net = line_net(200, 250.0, 1.35e-12);
        let spec = ChainCollapseSpec::new(1e8, 1e-4).unwrap();
        let out = collapse_chains(&net, &spec);
        assert_eq!(out.chains_collapsed, 1);
        assert!(
            out.nodes_eliminated as usize > net.num_internal() / 2,
            "eliminated {} of {}",
            out.nodes_eliminated,
            net.num_internal()
        );
        assert_eq!(
            net.num_internal() - out.network.num_internal(),
            out.nodes_eliminated as usize
        );
        // Total R and C are preserved exactly.
        let tot = |b: &[Branch]| b.iter().map(|x| x.value).sum::<f64>();
        assert!((tot(&net.resistors) - tot(&out.network.resistors)).abs() < 1e-9);
        assert!((tot(&net.capacitors) - tot(&out.network.capacitors)).abs() < 1e-24);
        // In-band admittance error within the budget.
        let freqs: Vec<f64> = (0..=8).map(|k| 1e8 * k as f64 / 8.0).collect();
        let err = max_rel_y_err(&net, &out.network, &freqs);
        assert!(err <= 1e-4, "in-band error {err:.3e} exceeds budget");
    }

    #[test]
    fn collapse_is_deterministic_and_skips_short_chains() {
        let net = line_net(50, 100.0, 1e-12);
        // A generous band keeps the mandated segment count above the
        // chain length: nothing to do.
        let spec = ChainCollapseSpec::new(1e11, 1e-9).unwrap();
        let out = collapse_chains(&net, &spec);
        assert_eq!(out.chains_collapsed, 0);
        assert_eq!(out.network, net);
        // And the productive case is bit-identical across runs.
        let spec = ChainCollapseSpec::new(1e8, 1e-4).unwrap();
        let a = collapse_chains(&net, &spec);
        let b = collapse_chains(&net, &spec);
        assert_eq!(a.network, b.network);
    }

    #[test]
    fn coupling_caps_and_branches_pin_nodes() {
        // m2 carries a node-to-node coupling cap, m4 is a T-branch:
        // neither may be eliminated.
        let deck = "* p\nV1 a 0 1\nM1 x b 0 0 n\nM2 y c 0 0 n\n.model n nmos()\n\
                    R1 a m1 10\nR2 m1 m2 10\nR3 m2 m3 10\nR4 m3 m4 10\nR5 m4 b 10\n\
                    R6 m4 c 10\nCc m2 b 1f\nC1 m1 0 1f\nC3 m3 0 1f\n.end\n";
        let net = extract_rc(&parse(deck).unwrap(), &[]).unwrap().network;
        let spec = ChainCollapseSpec::new(1e9, 1e-4).unwrap();
        let out = collapse_chains(&net, &spec);
        for pinned in ["m2", "m4"] {
            assert!(
                out.network.node_index(pinned).is_some(),
                "{pinned} must survive"
            );
        }
        // The runs around the pinned nodes (a–m2, m2–m4) collapsed.
        assert_eq!(out.chains_collapsed, 2);
        assert!(out.network.node_index("m1").is_none());
        assert!(out.network.node_index("m3").is_none());
        let err = max_rel_y_err(&net, &out.network, &[0.0, 1e8, 1e9]);
        assert!(err <= 1e-4, "error {err:.3e}");
    }

    #[test]
    fn grounded_anchor_chains_collapse() {
        // A chain hanging off the port down to ground through interior
        // nodes: the ground side anchors the rewrite.
        let deck = "* g\nV1 a 0 1\nM1 x a 0 0 n\n.model n nmos()\n\
                    R1 a m1 10\nR2 m1 m2 10\nR3 m2 0 10\nC1 m1 0 1f\nC2 m2 0 1f\n.end\n";
        let net = extract_rc(&parse(deck).unwrap(), &[]).unwrap().network;
        assert_eq!(net.num_internal(), 2);
        let spec = ChainCollapseSpec::new(1e9, 1e-3).unwrap();
        let out = collapse_chains(&net, &spec);
        assert_eq!(out.chains_collapsed, 1);
        assert_eq!(out.network.num_internal(), 0);
        let err = max_rel_y_err(&net, &out.network, &[0.0, 1e8, 1e9]);
        assert!(err <= 1e-3, "error {err:.3e}");
    }

    #[test]
    fn reduce_embedded_restitches_mixed_deck() {
        let mut deck = String::from("* mix\nV1 p0 0 1\nM1 q pN 0 0 n\n.model n nmos()\n");
        let nseg = 60;
        for i in 0..nseg {
            let a = if i == 0 { "p0".into() } else { format!("n{i}") };
            let b = if i == nseg - 1 {
                "pN".into()
            } else {
                format!("n{}", i + 1)
            };
            deck.push_str(&format!("R{i} {a} {b} 5\nC{i} {b} 0 20f\n"));
        }
        deck.push_str(".end\n");
        let nl = parse(&deck).unwrap();
        let opts = ReduceOptions::new(CutoffSpec::new(3e9, 0.05).unwrap());
        let mut session = ReductionSession::new(opts);
        let out = reduce_embedded(&nl, &mut session, &ExtractOptions::default()).unwrap();
        let red = out.reduction.as_ref().expect("reducible deck");
        assert_eq!(red.reductions.len(), 1);
        assert_eq!(out.telemetry.counters.extract_subnets, 1);
        assert_eq!(out.nodes_before, nseg - 1);
        assert!(out.nodes_after < out.nodes_before);
        // Non-RC devices and cards survive; original RC elements do not.
        assert!(out.deck.elements.iter().any(|e| e.name == "V1"));
        assert!(out.deck.elements.iter().any(|e| e.name == "M1"));
        assert!(out.deck.elements.iter().all(|e| e.name != "R0"));
        assert_eq!(out.deck.models.len(), 1);
        // The spliced deck carries exactly one fresh internal node per
        // retained pole (the realization may contain negative coupling
        // capacitors, so it is simulated, never re-extracted).
        let mut fresh: Vec<String> = out
            .deck
            .elements
            .iter()
            .flat_map(|e| e.nodes())
            .filter(|n| n.starts_with("pact0_p"))
            .collect();
        fresh.sort();
        fresh.dedup();
        assert_eq!(fresh.len(), out.nodes_after);
    }

    #[test]
    fn reduce_embedded_chain_collapse_feeds_the_reducer() {
        let mut deck = String::from("* mix\nV1 p0 0 1\nM1 q pN 0 0 n\n.model n nmos()\n");
        for i in 0..300 {
            let a = if i == 0 { "p0".into() } else { format!("n{i}") };
            let b = if i == 299 {
                "pN".into()
            } else {
                format!("n{}", i + 1)
            };
            deck.push_str(&format!("R{i} {a} {b} 1\nC{i} {b} 0 5f\n"));
        }
        deck.push_str(".end\n");
        let nl = parse(&deck).unwrap();
        let opts = ReduceOptions::new(CutoffSpec::new(1e9, 0.05).unwrap());
        let mut session = ReductionSession::new(opts);
        let xopts = ExtractOptions {
            collapse: Some(ChainCollapseSpec::new(1e8, 1e-4).unwrap()),
            ..ExtractOptions::default()
        };
        let out = reduce_embedded(&nl, &mut session, &xopts).unwrap();
        assert_eq!(out.telemetry.counters.chains_collapsed, 1);
        assert!(out.telemetry.counters.nodes_eliminated > 0);
        assert!(out.reduction.is_some());
        // The collapse counters survive into the deterministic JSON.
        let s = out.telemetry.counters_json_string();
        assert!(s.contains("\"chains_collapsed\":1"), "{s}");
    }

    #[test]
    fn deck_without_reducible_rc_passes_through() {
        // No RC elements at all.
        let nl = parse("* d\nV1 a 0 1\nM1 b a 0 0 n\n.model n nmos()\n.end\n").unwrap();
        let opts = ReduceOptions::new(CutoffSpec::new(1e9, 0.05).unwrap());
        let mut session = ReductionSession::new(opts);
        let out = reduce_embedded(&nl, &mut session, &ExtractOptions::default()).unwrap();
        assert!(out.reduction.is_none());
        assert_eq!(out.nodes_before, 0);
        assert_eq!(out.telemetry.counters.extract_subnets, 0);
        assert_eq!(out.deck.elements.len(), 2, "deck unchanged");

        // RC island never touching a non-RC device: also pass-through.
        let nl = parse("* f\nR1 a b 100\nC1 b 0 1p\n.end\n").unwrap();
        let out = reduce_embedded(&nl, &mut session, &ExtractOptions::default()).unwrap();
        assert!(out.reduction.is_none());
        assert!(out.deck.elements.iter().any(|e| e.name == "R1"));
    }

    #[test]
    fn spec_rejects_bad_values() {
        assert!(ChainCollapseSpec::new(0.0, 1e-6).is_err());
        assert!(ChainCollapseSpec::new(1e9, 0.0).is_err());
        assert!(ChainCollapseSpec::new(f64::NAN, 1e-6).is_err());
    }
}
