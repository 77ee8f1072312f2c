//! Workload inputs, generated from the seed before any timed region. The
//! program only ever sees the deck text (plus request options).

use pact_gen::{
    chain_heavy_deck, inverter_pair_deck, network_to_elements, power_grid_deck, substrate_mesh,
    ChainDeckSpec, LineSpec, MeshSpec, PowerGridSpec,
};
use pact_netlist::{ElementKind, Netlist};
use pact_serve::{DeckOptions, StrategyArg};
use pact_sparse::XorShiftRng;

/// A deck and the options it is reduced under.
#[derive(Clone, Debug)]
pub struct Deck {
    /// SPICE text.
    pub text: String,
    /// Resolved options (the `rcfit` flags or `rcfitd` request options).
    pub opts: DeckOptions,
}

/// Size of a workload's inputs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// The benchmark as defined.
    Full,
    /// A reduced-size run for the benchmark's own tests.
    Smoke,
}

/// A pure-RC mesh deck whose element names carry `prefix`, and its
/// port names (pure-RC decks have no device that makes a node a port).
fn pure_rc_deck(spec: &MeshSpec, title: &str, prefix: &str) -> (Netlist, Vec<String>) {
    let net = substrate_mesh(spec);
    let ports = net.node_names[..net.num_ports].to_vec();
    let deck = Netlist {
        title: title.to_owned(),
        elements: network_to_elements(&net, prefix),
        ..Netlist::default()
    };
    (deck, ports)
}

/// The element-name prefix of a one-shot deck. The seed renames the
/// elements and leaves the numeric problem the fixed deck: a ±0.5 %
/// value jitter changes which poles sit near the cutoff, and with them
/// `mesh20k_hier`'s pole count and cost (2.7–4.3 s per deck over five
/// seeds on a 2-core x86-64 host), which would swamp the changes the
/// benchmark exists to show. Capacitor-scale sensitivity is measured on
/// `serve_mix`, over a fixed set of scales.
fn one_shot_prefix(seed: u64) -> String {
    format!("s{seed:x}_")
}

/// `table4_flat`: the paper's Table-4 substrate mesh (469 ports, about
/// 20k internal nodes), flat at 500 MHz / 10 %, one thread.
pub fn table4_flat(seed: u64, scale: Scale) -> Deck {
    let spec = match scale {
        Scale::Full => MeshSpec::table4(),
        Scale::Smoke => MeshSpec {
            nx: 14,
            ny: 12,
            nz: 4,
            num_contacts: 30,
            num_wells: 4,
            ..MeshSpec::table4()
        },
    };
    let (deck, ports) = pure_rc_deck(
        &spec,
        "* table4_flat substrate mesh",
        &one_shot_prefix(seed),
    );
    Deck {
        text: deck.to_string(),
        opts: DeckOptions {
            f_max: 500e6,
            tolerance: 0.10,
            threads: Some(1),
            extra_ports: ports,
            strategy: Some(StrategyArg::Flat),
            ..DeckOptions::default()
        },
    }
}

/// `mesh20k_hier`: a 40×40×13 mesh with 64 contacts and Table-4
/// materials, hierarchical at block size 2000, two threads.
pub fn mesh20k_hier(seed: u64, scale: Scale) -> Deck {
    let (nx, ny, nz, contacts, block) = match scale {
        Scale::Full => (40, 40, 13, 64, 2000),
        Scale::Smoke => (12, 12, 5, 16, 200),
    };
    let spec = MeshSpec {
        nx,
        ny,
        nz,
        num_contacts: contacts,
        ..MeshSpec::table4()
    };
    let (deck, ports) = pure_rc_deck(
        &spec,
        "* mesh20k_hier substrate mesh",
        &one_shot_prefix(seed),
    );
    Deck {
        text: deck.to_string(),
        opts: DeckOptions {
            f_max: 500e6,
            tolerance: 0.10,
            threads: Some(2),
            extra_ports: ports,
            strategy: Some(StrategyArg::Hier),
            block_size: block,
            ..DeckOptions::default()
        },
    }
}

/// Chain-collapse budget of the `serve_mix` chain family.
pub const CHAIN_TOL: f64 = 1e-4;

/// Capacitor-scale variants per `serve_mix` family: variant `v` scales
/// every capacitor by `1 + 0.03·v`, the first seven steps (1.00 to 1.18)
/// of the nine-step `serve_load` sweep. The program misses its accuracy
/// rule on the line and chain families at the last two steps (see
/// `serve::tests`), and a benchmark workload serves only decks the
/// program reduces correctly.
pub const VARIANTS: usize = 7;

/// The capacitor scale of variant `v`.
pub fn variant_scale(v: usize) -> f64 {
    1.0 + 0.03 * v as f64
}

/// Every `NOVEL_EVERY`-th `serve_mix` request carries a topology the
/// daemon holds no warm session for. The share is chosen, not measured
/// from traffic. At one in five every deck kind (line, novel line, grid,
/// chain, mesh) is a fifth of the replies, so the median latency falls
/// in the middle of the grid decks' latencies instead of at the edge
/// between two kinds, where it moved with queueing from run to run.
pub const NOVEL_EVERY: usize = 5;

/// Line lengths the novel-topology requests rotate through. A length
/// comes back only after `NOVEL_TOPOLOGIES × NOVEL_EVERY` requests, long
/// after the daemon's session LRU (8 per worker) has evicted it, while
/// the per-request cost stays the same however long the run is.
pub const NOVEL_TOPOLOGIES: usize = 64;

/// One fixed-topology deck family of `serve_mix`.
#[derive(Clone, Debug)]
pub struct Family {
    /// Short name (request ids and reports).
    pub name: &'static str,
    /// The deck at capacitor scale 1.
    pub base: Netlist,
    /// Request options.
    pub opts: DeckOptions,
}

impl Family {
    /// The family's deck with every capacitor scaled by
    /// [`variant_scale`]`(v)`: same topology, so warm sessions apply;
    /// different numbers, so every deck is real work.
    pub fn variant(&self, v: usize) -> Deck {
        let mut deck = self.base.clone();
        for e in &mut deck.elements {
            if let ElementKind::Capacitor { farads, .. } = &mut e.kind {
                *farads *= variant_scale(v);
            }
        }
        Deck {
            text: deck.to_string(),
            opts: self.opts.clone(),
        }
    }
}

/// Request options shared by every `serve_mix` deck: one thread per
/// request, the daemon's defaults otherwise.
fn serve_opts() -> DeckOptions {
    DeckOptions {
        threads: Some(1),
        ..DeckOptions::default()
    }
}

/// The four `serve_mix` families: the Table-2 substrate mesh, a power
/// grid, the paper's example-1 inverter-pair line, and a chain-heavy
/// mixed deck sent with extraction and chain collapse.
pub fn serve_families(scale: Scale) -> Vec<Family> {
    let smoke = scale == Scale::Smoke;
    let (mesh, mesh_ports) = pure_rc_deck(
        &if smoke {
            MeshSpec {
                nx: 6,
                ny: 6,
                nz: 2,
                num_contacts: 4,
                num_wells: 2,
                ..MeshSpec::table2()
            }
        } else {
            MeshSpec::table2()
        },
        "* serve_mix substrate mesh",
        "m",
    );
    let grid = power_grid_deck(&PowerGridSpec {
        nx: if smoke { 6 } else { 20 },
        ny: if smoke { 6 } else { 20 },
        num_taps: if smoke { 2 } else { 12 },
        ..PowerGridSpec::default()
    })
    .netlist;
    let line = inverter_pair_deck(&LineSpec {
        segments: if smoke { 20 } else { 100 },
        ..LineSpec::default()
    });
    let chain = chain_heavy_deck(&ChainDeckSpec {
        chains: 4,
        segments: if smoke { 100 } else { 500 },
        r_total: 250.0,
        c_total: 1.35e-12,
        taps: 0,
    });
    let mesh_opts = DeckOptions {
        extra_ports: mesh_ports,
        ..serve_opts()
    };
    let chain_opts = DeckOptions {
        extract: true,
        collapse_chains: true,
        chain_tol: CHAIN_TOL,
        ..serve_opts()
    };
    [
        ("mesh", mesh, mesh_opts),
        ("grid", grid, serve_opts()),
        ("line", line, serve_opts()),
        ("chain", chain, chain_opts),
    ]
    .into_iter()
    .map(|(name, base, opts)| Family { name, base, opts })
    .collect()
}

/// Novel topology `j` (below [`NOVEL_TOPOLOGIES`]) of `serve_mix`: an
/// example-1 line with a segment count no family uses.
pub fn novel_deck(j: usize, scale: Scale) -> Deck {
    let base = if scale == Scale::Smoke { 20 } else { 100 };
    Deck {
        text: inverter_pair_deck(&LineSpec {
            segments: base + 1 + j,
            ..LineSpec::default()
        })
        .to_string(),
        opts: serve_opts(),
    }
}

/// What one `serve_mix` request carries.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Req {
    /// Variant `variant` of family `family`.
    Family {
        /// Index into the family list.
        family: usize,
        /// Below [`VARIANTS`].
        variant: usize,
    },
    /// Novel topology `j`, below [`NOVEL_TOPOLOGIES`].
    Novel(usize),
}

/// The first `len` requests of the seeded `serve_mix` stream: the
/// `serve_load` rotation (family request `c` is family `c mod F`,
/// variant `⌊c / F⌋ mod` [`VARIANTS`]) with every [`NOVEL_EVERY`]-th
/// request a novel topology. The seed sets where the family and novel
/// rotations start, so every seed serves the same shares.
pub fn serve_stream(seed: u64, families: usize, len: usize) -> Vec<Req> {
    let mut rng = XorShiftRng::seed_from_u64(seed ^ 0x57_4ea4);
    let c0 = rng.gen_index(families * VARIANTS);
    let j0 = rng.gen_index(NOVEL_TOPOLOGIES);
    (0..len)
        .map(|i| {
            let novel = i / NOVEL_EVERY;
            if i % NOVEL_EVERY == NOVEL_EVERY - 1 {
                return Req::Novel((j0 + novel) % NOVEL_TOPOLOGIES);
            }
            let c = c0 + i - novel;
            Req::Family {
                family: c % families,
                variant: (c / families) % VARIANTS,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decks_repeat_for_a_seed_and_change_with_it() {
        let a = table4_flat(3, Scale::Smoke);
        assert_eq!(a.text, table4_flat(3, Scale::Smoke).text);
        assert_ne!(a.text, table4_flat(4, Scale::Smoke).text);
        assert_eq!(serve_stream(9, 4, 64), serve_stream(9, 4, 64));
        assert_ne!(serve_stream(9, 4, 64), serve_stream(10, 4, 64));
    }

    #[test]
    fn stream_serves_every_variant_and_novel_topology_in_equal_shares() {
        let cycle = NOVEL_TOPOLOGIES * 4 * VARIANTS * NOVEL_EVERY;
        let s = serve_stream(1, 4, cycle);
        let mut counts = std::collections::BTreeMap::new();
        for r in &s {
            *counts.entry(*r).or_insert(0) += 1;
        }
        let novel = s.iter().filter(|r| matches!(r, Req::Novel(_))).count();
        assert_eq!(novel, cycle / NOVEL_EVERY);
        for family in 0..4 {
            for variant in 0..VARIANTS {
                let n = counts[&Req::Family { family, variant }];
                assert_eq!(
                    n,
                    NOVEL_TOPOLOGIES * (NOVEL_EVERY - 1),
                    "{family}/{variant}"
                );
            }
        }
        for j in 0..NOVEL_TOPOLOGIES {
            assert_eq!(counts[&Req::Novel(j)], 4 * VARIANTS, "novel {j}");
        }
        assert_ne!(
            novel_deck(0, Scale::Smoke).text,
            novel_deck(1, Scale::Smoke).text
        );
    }

    #[test]
    fn variants_scale_every_capacitor() {
        for fam in serve_families(Scale::Smoke) {
            let caps = |text: &str| -> Vec<f64> {
                pact_netlist::parse(text)
                    .expect("deck parses")
                    .elements
                    .iter()
                    .filter_map(|e| match e.kind {
                        ElementKind::Capacitor { farads, .. } => Some(farads),
                        _ => None,
                    })
                    .collect()
            };
            let top = VARIANTS - 1;
            let (base, scaled) = (caps(&fam.variant(0).text), caps(&fam.variant(top).text));
            assert_eq!(base.len(), scaled.len(), "{}", fam.name);
            assert!(!base.is_empty(), "{}", fam.name);
            for (b, s) in base.iter().zip(&scaled) {
                assert!(
                    (s / (variant_scale(top) * b) - 1.0).abs() < 1e-3,
                    "{}: {s} vs {b}",
                    fam.name
                );
            }
        }
    }
}
