//! In-memory spans recorded by the traced pass, from the benchmark's own
//! side of each call into a layer. Nothing is written until the run
//! ends; self time is a span's duration minus the part of it that its
//! direct children cover.

use crate::json::{self, Json};
use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the tracer was made.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer-qualified name, e.g. `core.run_world`.
    pub name: &'static str,
    /// Start time.
    pub start_ns: u64,
    /// End time (equal to `start_ns` until the span is closed).
    pub end_ns: u64,
    /// Index of the span that was open when this one started.
    pub parent: Option<usize>,
    /// Identifier shared by all spans of one experiment (plan index), or
    /// `None` for probe spans outside any experiment.
    pub experiment: Option<usize>,
}

impl Span {
    /// Wall duration.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Records spans with parentage taken from the open-span stack.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Tracer {
    fn default() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span under the innermost open one and returns its index.
    pub fn enter(&mut self, name: &'static str, experiment: Option<usize>) -> usize {
        let now = self.now_ns();
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: self.open.last().copied(),
            experiment,
        });
        self.open.push(id);
        id
    }

    /// Closes span `id` (and, defensively, anything opened inside it that
    /// was left open).
    pub fn exit(&mut self, id: usize) {
        let now = self.now_ns();
        while let Some(top) = self.open.pop() {
            self.spans[top].end_ns = now;
            if top == id {
                break;
            }
        }
    }

    /// Times `f` as a span.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        experiment: Option<usize>,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.enter(name, experiment);
        let out = f();
        self.exit(id);
        out
    }

    /// Records a span from explicit times.
    #[cfg(test)]
    fn record(&mut self, span: Span) -> usize {
        self.spans.push(span);
        self.spans.len() - 1
    }

    /// Everything recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time per span: duration minus the union of the intervals its
    /// direct children cover inside it (overlapping siblings are not
    /// subtracted twice).
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                let parent = &self.spans[p];
                let (a, b) = (s.start_ns.max(parent.start_ns), s.end_ns.min(parent.end_ns));
                if b > a {
                    children[p].push((a, b));
                }
            }
        }
        self.spans
            .iter()
            .zip(children)
            .map(|(s, mut kids)| {
                kids.sort_unstable();
                let mut covered = 0u64;
                let mut reach = s.start_ns;
                for (a, b) in kids {
                    let a = a.max(reach);
                    if b > a {
                        covered += b - a;
                        reach = b;
                    }
                }
                s.duration_ns().saturating_sub(covered)
            })
            .collect()
    }

    /// `(count, total ns, self ns)` per span name.
    pub fn totals(&self) -> BTreeMap<&'static str, (u64, u64, u64)> {
        let mut out: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
        for (s, self_ns) in self.spans.iter().zip(self.self_times_ns()) {
            let e = out.entry(s.name).or_default();
            e.0 += 1;
            e.1 += s.duration_ns();
            e.2 += self_ns;
        }
        out
    }

    /// The trace file body: per-name totals first (what people read),
    /// then every span.
    pub fn to_json(&self) -> Json {
        let selfs = self.self_times_ns();
        let totals = self
            .totals()
            .into_iter()
            .map(|(name, (count, total, own))| {
                json::obj([
                    ("name", json::str(name)),
                    ("count", Json::Num(count as f64)),
                    ("total_ns", Json::Num(total as f64)),
                    ("self_ns", Json::Num(own as f64)),
                ])
            });
        let spans = self
            .spans
            .iter()
            .zip(selfs)
            .enumerate()
            .map(|(id, (s, own))| {
                json::obj([
                    ("id", json::count(id)),
                    ("name", json::str(s.name)),
                    ("start_ns", Json::Num(s.start_ns as f64)),
                    ("end_ns", Json::Num(s.end_ns as f64)),
                    ("self_ns", Json::Num(own as f64)),
                    ("parent", s.parent.map_or(Json::Null, json::count)),
                    ("experiment", s.experiment.map_or(Json::Null, json::count)),
                ])
            });
        json::obj([
            ("totals", Json::Arr(totals.collect())),
            ("spans", Json::Arr(spans.collect())),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            experiment: Some(0),
        }
    }

    #[test]
    fn self_time_subtracts_nested_and_sibling_children() {
        let mut t = Tracer::default();
        let root = t.record(span("experiment", 0, 100, None));
        let a = t.record(span("core.run_world", 10, 60, Some(root)));
        t.record(span("inner", 20, 30, Some(a)));
        t.record(span("core.classify", 60, 80, Some(root)));
        // Overlapping sibling: only 80..90 is new coverage.
        t.record(span("core.timeline", 70, 90, Some(root)));
        // A child that sticks out of its parent is clipped to it.
        t.record(span("bench.render", 95, 120, Some(root)));
        let own = t.self_times_ns();
        assert_eq!(own[root], 100 - (50 + 20 + 10 + 5));
        assert_eq!(
            own[a],
            50 - 10,
            "grandchildren count against their own parent only"
        );
        assert_eq!(own[2], 10);
        let totals = t.totals();
        assert_eq!(totals["experiment"], (1, 100, 15));
        assert_eq!(totals["core.run_world"], (1, 50, 40));
    }

    #[test]
    fn enter_exit_builds_the_parent_chain() {
        let mut t = Tracer::default();
        let outer = t.enter("experiment", Some(7));
        let inner = t.span("core.run_world", Some(7), || 42);
        assert_eq!(inner, 42);
        let sibling = t.enter("core.classify", Some(7));
        t.exit(sibling);
        t.exit(outer);
        let s = t.spans();
        assert_eq!(s[1].parent, Some(outer));
        assert_eq!(s[2].parent, Some(outer));
        assert_eq!(s[0].parent, None);
        assert!(s
            .iter()
            .all(|s| s.end_ns >= s.start_ns && s.experiment == Some(7)));
        assert!(s[0].end_ns >= s[2].end_ns);
        let json = t.to_json();
        assert_eq!(
            json.get("spans").and_then(Json::as_arr).map(<[Json]>::len),
            Some(3)
        );
        assert_eq!(json::parse(&json::pretty(&json)), Ok(json));
    }
}
