//! The metric registry and the result line.

use std::fmt::Write as _;

use crate::stats::Tally;

/// End-to-end metrics, reported by every untraced run: `(name, unit)`.
pub const END_TO_END: [(&str, &str); 10] = [
    ("deck_s", "s"),
    ("cpu_s", "s"),
    ("throughput_decks_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p95_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("inband_err_max", "ratio"),
    ("poles_retained", "count"),
    ("realized_elements", "count"),
];

/// Per-layer metrics, reported by every traced run: `(name, unit)`.
/// Times are self seconds per deck inside the benchmark's span around
/// the named public call; counts are per deck.
pub const PER_LAYER: [(&str, &str); 44] = [
    ("netlist.parse_s", "s"),
    ("netlist.extract_s", "s"),
    ("netlist.emit_s", "s"),
    ("netlist.input_bytes", "bytes"),
    ("netlist.output_bytes", "bytes"),
    ("sanitize.s", "s"),
    ("extract.collapse_s", "s"),
    ("extract.reduce_s", "s"),
    ("extract.nodes_eliminated", "count"),
    ("extract.subnets", "count"),
    ("partition.split_s", "s"),
    ("factor.analyze_s", "s"),
    ("factor.numeric_s", "s"),
    ("factor.chol_nnz", "count"),
    ("factor.panel_flops", "count"),
    ("factor.supernodes", "count"),
    ("moments.s", "s"),
    ("moments.solve_rhs_nnz", "count"),
    ("eigen.s", "s"),
    ("eigen.matvecs", "count"),
    ("eigen.iterations", "count"),
    ("eigen.reorthogonalizations", "count"),
    ("project.s", "s"),
    ("realize.s", "s"),
    ("realize.elements", "count"),
    ("hier.partition_tree_s", "s"),
    ("hier.reduce_s", "s"),
    ("hier.blocks", "count"),
    ("hier.leaf_poles_retained", "count"),
    ("hier.leaf_trimmed_poles", "count"),
    ("hier.leaf_pattern_reuses", "count"),
    ("par.cpu_per_wall", "ratio"),
    ("session.factorizations", "count"),
    ("session.refactorizations", "count"),
    ("session.hit_rate", "ratio"),
    ("serve.requests", "count"),
    ("serve.ok", "count"),
    ("serve.errors", "count"),
    ("serve.shed", "count"),
    ("serve.queue_depth_max", "count"),
    ("serve.submit_ms_p50", "ms"),
    ("trace.wall_s", "s"),
    ("trace.other_s", "s"),
    ("trace.overhead_s", "s"),
];

/// What one run measured.
#[derive(Clone, Debug, Default)]
pub struct Report {
    /// Decks attempted and failed.
    pub tally: Tally,
    /// Run-level integrity failures (e.g. a traced deck that differs
    /// from the untraced one) beyond per-deck failures.
    pub integrity: Vec<String>,
    /// `(name, value)` in registry order.
    pub metrics: Vec<(&'static str, f64)>,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
}

impl Report {
    /// Sets metric `name` (which must be in `registry`).
    pub fn set(&mut self, name: &'static str, value: f64) {
        match self.metrics.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = value,
            None => self.metrics.push((name, value)),
        }
    }

    /// `true` when no deck failed and no run-level check failed.
    pub fn correct(&self) -> bool {
        self.tally.failed == 0 && self.integrity.is_empty() && self.tally.attempted > 0
    }

    /// The result line: exactly the registry's metrics, in its order,
    /// with units. Metrics the run could not measure (only after
    /// failures) read 0, and a run that attempted nothing reports one
    /// failed attempt.
    pub fn result_line(&self, registry: &[(&'static str, &'static str)]) -> String {
        let mut metrics = String::new();
        for (i, (name, unit)) in registry.iter().enumerate() {
            let value = self
                .metrics
                .iter()
                .find(|(n, _)| n == name)
                .map_or(0.0, |&(_, v)| v);
            let value = if value.is_finite() { value } else { 0.0 };
            if i > 0 {
                metrics.push_str(", ");
            }
            write!(
                metrics,
                "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            )
            .expect("write to String");
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.correct(),
            self.tally.attempted.max(1),
            if self.tally.attempted == 0 {
                1
            } else {
                self.tally.failed
            }
        )
    }

    /// Metrics set by the run that the registry does not list.
    pub fn unregistered(&self, registry: &[(&'static str, &'static str)]) -> Vec<&'static str> {
        self.metrics
            .iter()
            .map(|&(n, _)| n)
            .filter(|n| registry.iter().all(|(r, _)| r != n))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::valid_metric_name;
    use pact::json::Value;

    #[test]
    fn every_metric_name_and_unit_is_well_formed() {
        let all = END_TO_END.iter().chain(PER_LAYER.iter());
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in all {
            assert!(valid_metric_name(name), "{name}");
            assert!(seen.insert(*name), "{name} listed twice");
            assert!(
                !unit.is_empty()
                    && unit.len() <= 16
                    && unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "{unit}"
            );
        }
    }

    #[test]
    fn result_line_is_json_with_every_registered_metric() {
        let mut r = Report::default();
        r.tally.pass();
        r.set("deck_s", 1.25);
        r.set("setup_s", f64::NAN);
        let line = r.result_line(&END_TO_END);
        let v = Value::parse(&line).expect("result line parses");
        assert_eq!(v.get("correct"), Some(&Value::Bool(true)));
        assert_eq!(v.get("attempted").and_then(Value::as_f64), Some(1.0));
        let m = v.get("metrics").unwrap();
        for (name, unit) in END_TO_END {
            let e = m.get(name).unwrap_or_else(|| panic!("{name} missing"));
            assert_eq!(e.get("unit").and_then(Value::as_str), Some(unit));
        }
        let deck = m.get("deck_s").unwrap().get("value").unwrap().as_f64();
        assert_eq!(deck, Some(1.25));
        assert_eq!(r.unregistered(&END_TO_END), Vec::<&str>::new());
    }

    #[test]
    fn failures_make_the_run_incorrect() {
        let mut r = Report::default();
        r.tally.pass();
        r.tally.fail("shed");
        assert!(!r.correct());
        let v = Value::parse(&r.result_line(&PER_LAYER)).unwrap();
        assert_eq!(v.get("failed").and_then(Value::as_f64), Some(1.0));
        let mut r = Report::default();
        r.tally.pass();
        r.integrity.push("traced deck differs".into());
        assert!(!r.correct());
        assert!(!Report::default().correct(), "nothing attempted");
    }

    #[test]
    fn registry_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        let doc = Value::parse(&text).expect("BENCHMARK.json parses");
        let listed = |key: &str| -> Vec<(String, String)> {
            match doc.get(key) {
                Some(Value::Arr(items)) => items
                    .iter()
                    .map(|m| {
                        let s = |k: &str| m.get(k).and_then(Value::as_str).unwrap().to_owned();
                        (s("name"), s("unit"))
                    })
                    .collect(),
                _ => panic!("{key} missing"),
            }
        };
        let own = |r: &[(&str, &str)]| -> Vec<(String, String)> {
            r.iter()
                .map(|(n, u)| ((*n).to_owned(), (*u).to_owned()))
                .collect()
        };
        assert_eq!(listed("end_to_end"), own(&END_TO_END));
        assert_eq!(listed("per_layer"), own(&PER_LAYER));
    }
}
