//! Sample statistics, failure accounting and metric-name rules.

use std::collections::BTreeMap;

/// Median of a non-empty sample set (mean of the middle pair for even
/// counts).
///
/// # Panics
///
/// Panics on an empty slice or a NaN sample.
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let s = sorted(samples);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        0.5 * (s[n / 2 - 1] + s[n / 2])
    }
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut s = samples.to_vec();
    s.sort_by(|a, b| a.partial_cmp(b).expect("NaN sample"));
    s
}

/// Minimum number of samples that must lie beyond a reported tail
/// percentile.
pub const TAIL_SAMPLES: usize = 10;

/// A nearest-rank tail percentile with the percentile actually reported.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tail {
    /// The percentile reported, in percent (at most the one asked for).
    pub pct: f64,
    /// The sample at that percentile.
    pub value: f64,
}

/// The highest nearest-rank percentile, at most `want` percent, that
/// leaves at least [`TAIL_SAMPLES`] samples beyond it. `None` when there
/// are too few samples for any percentile to qualify.
pub fn tail_percentile(samples: &[f64], want: f64) -> Option<Tail> {
    let n = samples.len();
    if n <= TAIL_SAMPLES {
        return None;
    }
    let s = sorted(samples);
    // Nearest rank: the percentile p picks index ceil(p·n/100) − 1, and
    // n − 1 − index samples lie beyond it.
    let wanted = ((want / 100.0 * n as f64).ceil() as usize).clamp(1, n) - 1;
    let idx = wanted.min(n - 1 - TAIL_SAMPLES);
    let pct = if idx == wanted {
        want
    } else {
        100.0 * (idx + 1) as f64 / n as f64
    };
    Some(Tail { pct, value: s[idx] })
}

/// Decks attempted and failed, with the reason for every failure.
#[derive(Clone, Debug, Default)]
pub struct Tally {
    /// Decks attempted.
    pub attempted: u64,
    /// Decks that got a typed error, were shed, or failed a check.
    pub failed: u64,
    /// Failure counts by reason.
    pub reasons: BTreeMap<String, u64>,
}

impl Tally {
    /// Records a deck that passed every check.
    pub fn pass(&mut self) {
        self.attempted += 1;
    }

    /// Records a failed deck.
    pub fn fail(&mut self, reason: impl Into<String>) {
        self.attempted += 1;
        self.failed += 1;
        *self.reasons.entry(reason.into()).or_insert(0) += 1;
    }

    /// Records `count` already-attempted decks as failed: a check over
    /// the whole run (passivity, accuracy) that condemns every deck
    /// whose output it covers.
    pub fn condemn(&mut self, count: u64, reason: impl Into<String>) {
        let count = count.min(self.attempted - self.failed);
        self.failed += count;
        *self.reasons.entry(reason.into()).or_insert(0) += count;
    }

    /// Failed decks over attempted decks (0 when nothing was attempted).
    pub fn failed_frac(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

/// `true` when a metric name uses only `[A-Za-z0-9_.-]`, starts with a
/// letter or digit and is at most 64 characters long.
pub fn valid_metric_name(name: &str) -> bool {
    let mut chars = name.chars();
    matches!(chars.next(), Some(c) if c.is_ascii_alphanumeric())
        && name.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn tail_keeps_p95_when_ten_samples_lie_beyond_it() {
        let s: Vec<f64> = (1..=200).map(f64::from).collect();
        // p95 of 200 is rank 190: ten samples (191..=200) beyond it.
        let t = tail_percentile(&s, 95.0).unwrap();
        assert_eq!(
            t,
            Tail {
                pct: 95.0,
                value: 190.0
            }
        );
    }

    #[test]
    fn tail_drops_to_the_highest_percentile_with_ten_beyond() {
        let s: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        // p95 of 100 leaves five beyond; rank 90 leaves ten.
        let t = tail_percentile(&s, 95.0).unwrap();
        assert_eq!(
            t,
            Tail {
                pct: 90.0,
                value: 90.0
            }
        );
        let few: Vec<f64> = (1..=11).map(f64::from).collect();
        let t = tail_percentile(&few, 95.0).unwrap();
        assert_eq!(t.value, 1.0, "only the minimum leaves ten beyond");
        assert!((t.pct - 100.0 / 11.0).abs() < 1e-12);
    }

    #[test]
    fn tail_is_none_without_enough_samples() {
        let s: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(tail_percentile(&s, 95.0), None);
        assert_eq!(tail_percentile(&[], 50.0), None);
    }

    #[test]
    fn tally_counts_failures_against_attempts() {
        let mut t = Tally::default();
        t.pass();
        t.pass();
        t.fail("shed");
        t.fail("mismatch");
        t.fail("shed");
        assert_eq!((t.attempted, t.failed), (5, 3));
        assert_eq!(t.reasons["shed"], 2);
        assert!((t.failed_frac() - 0.6).abs() < 1e-12);
        // A run-wide check condemns only decks not already failed.
        t.condemn(10, "passivity");
        assert_eq!((t.attempted, t.failed), (5, 5));
        assert_eq!(t.reasons["passivity"], 2);
        assert_eq!(Tally::default().failed_frac(), 0.0);
    }

    #[test]
    fn metric_names_are_checked() {
        assert!(valid_metric_name("netlist.parse_s"));
        assert!(valid_metric_name("latency_p95_ms"));
        assert!(valid_metric_name("0-x"));
        assert!(!valid_metric_name("(other)"));
        assert!(!valid_metric_name(".hidden"));
        assert!(!valid_metric_name("a b"));
        assert!(!valid_metric_name(""));
        assert!(!valid_metric_name(&"x".repeat(65)));
    }
}
