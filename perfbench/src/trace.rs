//! Spans recorded by the benchmark around its calls into each layer.
//!
//! A span has a name, a start, an end and the span open when it began
//! (its parent). A layer's self time is its span's duration minus the
//! part covered by its children; the root span's self time is the
//! `(other)` remainder of a deck's wall time that no layer span covers.
//! Spans stay in memory until the run ends.

use std::collections::BTreeMap;
use std::time::Instant;

/// Name of the root span around one whole deck.
pub const ROOT: &str = "deck";

#[derive(Clone, Debug)]
struct Span {
    name: &'static str,
    start: Instant,
    end: Option<Instant>,
    parent: Option<usize>,
}

/// An in-memory span recorder.
#[derive(Clone, Debug, Default)]
pub struct Trace {
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Trace {
    /// Opens a span as a child of the innermost open span.
    pub fn begin(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start: Instant::now(),
            end: None,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        id
    }

    /// Closes span `id`, which must be the innermost open span.
    ///
    /// # Panics
    ///
    /// Panics when spans are closed out of order.
    pub fn end(&mut self, id: usize) {
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        self.spans[id].end = Some(Instant::now());
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.begin(name);
        let out = f();
        self.end(id);
        out
    }

    fn duration(&self, i: usize) -> f64 {
        let s = &self.spans[i];
        let end = s.end.expect("span closed before reporting");
        end.duration_since(s.start).as_secs_f64()
    }

    /// Total self time per span name, over every closed span.
    pub fn self_times(&self) -> BTreeMap<&'static str, f64> {
        let mut child_time = vec![0.0; self.spans.len()];
        for (i, s) in self.spans.iter().enumerate() {
            if let Some(p) = s.parent {
                child_time[p] += self.duration(i);
            }
        }
        let mut out = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            *out.entry(s.name).or_insert(0.0) += self.duration(i) - child_time[i];
        }
        out
    }

    /// Wall time of every root span, in recording order.
    pub fn root_walls(&self) -> Vec<f64> {
        (0..self.spans.len())
            .filter(|&i| self.spans[i].parent.is_none())
            .map(|i| self.duration(i))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn busy(ms: u64) {
        let t = Instant::now();
        while t.elapsed().as_millis() < u128::from(ms) {
            std::hint::black_box(0u64);
        }
    }

    #[test]
    fn self_time_excludes_children_and_other_is_the_root_remainder() {
        let mut tr = Trace::default();
        let root = tr.begin(ROOT);
        busy(5);
        tr.span("a", || busy(10));
        tr.span("b", || busy(10));
        tr.end(root);
        let st = tr.self_times();
        let walls = tr.root_walls();
        assert_eq!(walls.len(), 1);
        let sum: f64 = st.values().sum();
        assert!(
            (sum - walls[0]).abs() < 1e-9,
            "self times partition the wall"
        );
        assert!(st["a"] >= 0.010 && st["b"] >= 0.010);
        assert!(st[ROOT] >= 0.005 && st[ROOT] < walls[0] - 0.020);
    }

    #[test]
    #[should_panic(expected = "innermost first")]
    fn out_of_order_close_panics() {
        let mut tr = Trace::default();
        let a = tr.begin("a");
        let _b = tr.begin("b");
        tr.end(a);
    }
}
