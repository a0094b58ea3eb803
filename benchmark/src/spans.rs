//! The benchmark's own spans: kept in memory, written out at exit.
//!
//! Spans sit around *calls into* the crates (outside-in); a layer's self
//! time is its span minus the part its children cover. One [`Tracer`]
//! per thread — client threads each own one and the results are merged
//! by name afterwards.

use rafiki_serve::Json;
use std::collections::BTreeMap;
use std::time::Instant;

const NO_PARENT: u32 = u32::MAX;

/// One closed (or still open) span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    /// Shared by every span of one grid point / job / frame.
    pub id: u64,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one, or `u32::MAX` at the root.
    pub parent: u32,
}

/// Handle returned by [`Tracer::open`]; pass it back to [`Tracer::close`].
#[derive(Debug, Clone, Copy)]
pub struct Open(u32);

/// Totals for all spans of one name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NameTotal {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// An in-memory span recorder. A disabled tracer records nothing and
/// costs one branch per call.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
}

impl Tracer {
    /// `origin` is shared by the tracers of one run so their timestamps
    /// line up.
    pub fn new(enabled: bool, origin: Instant) -> Tracer {
        Tracer {
            enabled,
            origin,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Nanoseconds since the shared origin.
    pub fn clock_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span as a child of the innermost open span.
    pub fn open(&mut self, name: &'static str, id: u64) -> Open {
        if !self.enabled {
            return Open(NO_PARENT);
        }
        let index = self.spans.len() as u32;
        let now = self.clock_ns();
        self.spans.push(Span {
            name,
            id,
            start_ns: now,
            end_ns: now,
            parent: self.stack.last().copied().unwrap_or(NO_PARENT),
        });
        self.stack.push(index);
        Open(index)
    }

    /// Closes the innermost open span, which must be `open`.
    pub fn close(&mut self, open: Open) {
        if !self.enabled {
            return;
        }
        let top = self.stack.pop();
        assert_eq!(top, Some(open.0), "spans must close innermost first");
        self.spans[open.0 as usize].end_ns = self.clock_ns();
    }

    /// Records an already-timed span (for stages timed apart from the
    /// clock reads the tracer would add).
    pub fn record(&mut self, name: &'static str, id: u64, start_ns: u64, end_ns: u64) {
        if self.enabled {
            self.spans.push(Span {
                name,
                id,
                start_ns,
                end_ns,
                parent: self.stack.last().copied().unwrap_or(NO_PARENT),
            });
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Per-span self time: duration minus the summed durations of direct
/// children (children of one span never overlap — a tracer is
/// single-threaded and closes innermost first).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(|s| s.end_ns - s.start_ns).collect();
    for s in spans {
        if s.parent != NO_PARENT {
            let child = s.end_ns - s.start_ns;
            let parent = &mut own[s.parent as usize];
            *parent = parent.saturating_sub(child);
        }
    }
    own
}

/// Count, total and self time per span name.
pub fn totals_by_name(spans: &[Span]) -> BTreeMap<&'static str, NameTotal> {
    let own = self_times(spans);
    let mut out: BTreeMap<&'static str, NameTotal> = BTreeMap::new();
    for (s, own) in spans.iter().zip(own) {
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += s.end_ns - s.start_ns;
        t.self_ns += own;
    }
    out
}

/// Folds another thread's totals into `into`.
pub fn merge_totals(
    into: &mut BTreeMap<&'static str, NameTotal>,
    other: &BTreeMap<&'static str, NameTotal>,
) {
    for (name, t) in other {
        let slot = into.entry(name).or_default();
        slot.count += t.count;
        slot.total_ns += t.total_ns;
        slot.self_ns += t.self_ns;
    }
}

/// Spans written per thread to the trace file; the per-name totals in
/// the same file cover every span, so nothing is lost from the numbers.
pub const MAX_SPANS_WRITTEN: usize = 20_000;

/// The trace file's JSON: per-name totals over *all* spans, and the
/// first [`MAX_SPANS_WRITTEN`] spans of every thread in full.
pub fn trace_json(
    workload: &str,
    seed: u64,
    threads: &[&[Span]],
    totals: &BTreeMap<&'static str, NameTotal>,
) -> Json {
    let num = |v: u64| Json::Num(v as f64);
    let totals_json = totals
        .iter()
        .map(|(name, t)| {
            Json::obj(vec![
                ("name", Json::str(name)),
                ("count", num(t.count)),
                ("total_ns", num(t.total_ns)),
                ("self_ns", num(t.self_ns)),
            ])
        })
        .collect();
    let threads_json = threads
        .iter()
        .map(|spans| {
            Json::Arr(
                spans
                    .iter()
                    .take(MAX_SPANS_WRITTEN)
                    .map(|s| {
                        Json::obj(vec![
                            ("name", Json::str(s.name)),
                            ("id", num(s.id)),
                            ("start_ns", num(s.start_ns)),
                            ("end_ns", num(s.end_ns)),
                            (
                                "parent",
                                if s.parent == NO_PARENT {
                                    Json::Null
                                } else {
                                    num(s.parent as u64)
                                },
                            ),
                        ])
                    })
                    .collect(),
            )
        })
        .collect();
    Json::obj(vec![
        ("workload", Json::str(workload)),
        ("seed", Json::str(&seed.to_string())),
        (
            "spans_recorded",
            num(threads.iter().map(|s| s.len() as u64).sum()),
        ),
        ("totals", Json::Arr(totals_json)),
        ("threads", Json::Arr(threads_json)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: u32) -> Span {
        Span {
            name,
            id: 0,
            start_ns,
            end_ns,
            parent,
        }
    }

    #[test]
    fn self_time_is_span_minus_direct_children() {
        // point [0,100] > hydrate [0,10], drive [10,90] > gen [10,20],
        // step [20,85]; summarize [90,98].
        let spans = [
            span("point", 0, 100, NO_PARENT),
            span("hydrate", 0, 10, 0),
            span("drive", 10, 90, 0),
            span("gen", 10, 20, 2),
            span("step", 20, 85, 2),
            span("summarize", 90, 98, 0),
        ];
        assert_eq!(self_times(&spans), vec![2, 10, 5, 10, 65, 8]);
        // Self times always add up to the root's duration.
        assert_eq!(self_times(&spans).iter().sum::<u64>(), 100);
        let totals = totals_by_name(&spans);
        assert_eq!(
            totals["drive"],
            NameTotal {
                count: 1,
                total_ns: 80,
                self_ns: 5
            }
        );
        assert_eq!(totals["point"].self_ns, 2);
    }

    #[test]
    fn tracer_nests_and_a_disabled_tracer_records_nothing() {
        let mut t = Tracer::new(true, Instant::now());
        let a = t.open("a", 7);
        let b = t.open("b", 7);
        t.close(b);
        let at = t.clock_ns();
        t.record("c", 7, at, at + 5);
        t.close(a);
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, NO_PARENT);
        assert_eq!(spans[1].parent, 0);
        assert_eq!(spans[2].parent, 0);
        assert!(spans[0].end_ns >= spans[1].end_ns);
        assert!(spans.iter().all(|s| s.id == 7));

        let mut off = Tracer::new(false, Instant::now());
        let x = off.open("x", 0);
        off.close(x);
        off.record("y", 0, 0, 1);
        assert!(off.into_spans().is_empty());
    }

    #[test]
    fn totals_merge_across_threads() {
        let one = totals_by_name(&[span("frame", 0, 10, NO_PARENT)]);
        let mut all = totals_by_name(&[span("frame", 0, 30, NO_PARENT)]);
        merge_totals(&mut all, &one);
        assert_eq!(
            all["frame"],
            NameTotal {
                count: 2,
                total_ns: 40,
                self_ns: 40
            }
        );
    }
}
