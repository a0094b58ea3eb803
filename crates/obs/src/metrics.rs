//! Metric snapshots: named counter, gauge and latency-summary values
//! captured at a point in time, and their Prometheus text exposition.
//!
//! A [`Snapshot`] is plain data. Whoever owns the counts builds one
//! when asked (the serve daemon builds its `metrics` frame from the
//! same shard snapshots as its `stats` frame), so every event is
//! counted in one place. [`HistogramSummary::of`] condenses a
//! [`StreamingHistogram`], [`labeled`] names a per-series label set,
//! and [`Snapshot::prometheus_text`] renders the standard text format.

use rafiki_stats::StreamingHistogram;

/// Builds a labeled metric name, `name{k1="v1",k2="v2"}`. The label set
/// is part of the series name, so a per-shard series
/// (`ops_total{shard="3"}`) sits beside the unlabeled aggregate
/// (`ops_total`) and [`Snapshot::prometheus_text`] groups both under one
/// `# TYPE` family line.
pub fn labeled(name: &str, labels: &[(&str, &str)]) -> String {
    use std::fmt::Write as _;
    let mut out = String::with_capacity(name.len() + 16 * labels.len());
    out.push_str(name);
    out.push('{');
    for (i, (k, v)) in labels.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{k}=\"{v}\"");
    }
    out.push('}');
    out
}

/// The metric family of a (possibly labeled) series name: everything
/// before the first `{`.
fn family(name: &str) -> &str {
    name.split('{').next().unwrap_or(name)
}

/// Splits a series name into `(family, labels-with-braces)` — for
/// `a{shard="0"}` returns `("a", Some("shard=\"0\""))`.
fn split_labels(name: &str) -> (&str, Option<&str>) {
    match name.find('{') {
        Some(i) => (&name[..i], Some(name[i + 1..].trim_end_matches('}'))),
        None => (name, None),
    }
}

/// A point-in-time summary of one histogram's distribution.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct HistogramSummary {
    /// Observations recorded.
    pub count: u64,
    /// Exact sum of recorded values.
    pub sum: u128,
    /// Exact minimum (zero when empty).
    pub min: u64,
    /// Median (nearest-rank, ≤0.4% error; zero when empty).
    pub p50: u64,
    /// 99th percentile (zero when empty).
    pub p99: u64,
    /// Exact maximum (zero when empty).
    pub max: u64,
}

impl HistogramSummary {
    /// Summarizes `hist`.
    pub fn of(hist: &StreamingHistogram) -> Self {
        HistogramSummary {
            count: hist.total(),
            sum: hist.sum(),
            min: hist.min().unwrap_or(0),
            p50: hist.quantile(0.5).unwrap_or(0),
            p99: hist.quantile(0.99).unwrap_or(0),
            max: hist.max().unwrap_or(0),
        }
    }
}

/// Named metric values at one point in time, each section in sorted
/// name order.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Snapshot {
    /// `(name, value)` for every counter.
    pub counters: Vec<(String, u64)>,
    /// `(name, value)` for every gauge.
    pub gauges: Vec<(String, f64)>,
    /// `(name, summary)` for every histogram.
    pub histograms: Vec<(String, HistogramSummary)>,
}

impl Snapshot {
    /// Renders the snapshot in the Prometheus text exposition format:
    /// counters and gauges as single samples, histograms as summaries
    /// (`{quantile="…"}` lines plus `_count` and `_sum`).
    pub fn prometheus_text(&self) -> String {
        use std::collections::BTreeSet;
        use std::fmt::Write as _;
        let mut out = String::new();
        // One `# TYPE` line per family: labeled series (`x{shard="0"}`)
        // and the unlabeled aggregate (`x`) share the family `x`.
        let mut typed: BTreeSet<&str> = BTreeSet::new();
        for (name, value) in &self.counters {
            let fam = family(name);
            if typed.insert(fam) {
                let _ = writeln!(out, "# TYPE {fam} counter");
            }
            let _ = writeln!(out, "{name} {value}");
        }
        for (name, value) in &self.gauges {
            let fam = family(name);
            if typed.insert(fam) {
                let _ = writeln!(out, "# TYPE {fam} gauge");
            }
            let _ = writeln!(out, "{name} {value:?}");
        }
        for (name, h) in &self.histograms {
            let (fam, labels) = split_labels(name);
            if typed.insert(fam) {
                let _ = writeln!(out, "# TYPE {fam} summary");
            }
            // Merge the series labels into the quantile label set:
            // `lat{shard="0"}` → `lat{shard="0",quantile="0.5"}`.
            let prefix = match labels {
                Some(l) if !l.is_empty() => format!("{l},"),
                _ => String::new(),
            };
            let suffix = match labels {
                Some(l) if !l.is_empty() => format!("{{{l}}}"),
                _ => String::new(),
            };
            let _ = writeln!(out, "{fam}{{{prefix}quantile=\"0.5\"}} {}", h.p50);
            let _ = writeln!(out, "{fam}{{{prefix}quantile=\"0.99\"}} {}", h.p99);
            let _ = writeln!(out, "{fam}{{{prefix}quantile=\"1\"}} {}", h.max);
            let _ = writeln!(out, "{fam}_sum{suffix} {}", h.sum);
            let _ = writeln!(out, "{fam}_count{suffix} {}", h.count);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn summary(count: u64, sum: u128, min: u64, p50: u64, p99: u64, max: u64) -> HistogramSummary {
        HistogramSummary {
            count,
            sum,
            min,
            p50,
            p99,
            max,
        }
    }

    #[test]
    fn histograms_summarize_quantiles() {
        let mut hist = StreamingHistogram::new();
        for v in 1..=100u64 {
            hist.record(v);
        }
        let summary = HistogramSummary::of(&hist);
        assert_eq!(summary.count, 100);
        assert_eq!(summary.sum, 5050);
        assert_eq!(summary.min, 1);
        assert_eq!(summary.max, 100);
        assert_eq!(summary.p50, 50);
        assert_eq!(summary.p99, 99, "nearest-rank: 99th of 100, not max");
    }

    #[test]
    fn empty_histogram_summary_is_zeroed() {
        let summary = HistogramSummary::of(&StreamingHistogram::new());
        assert_eq!(summary, HistogramSummary::default());
        let snapshot = Snapshot {
            histograms: vec![("lat_us".to_string(), summary)],
            ..Snapshot::default()
        };
        assert_eq!(
            snapshot.prometheus_text(),
            "# TYPE lat_us summary\n\
             lat_us{quantile=\"0.5\"} 0\n\
             lat_us{quantile=\"0.99\"} 0\n\
             lat_us{quantile=\"1\"} 0\n\
             lat_us_sum 0\n\
             lat_us_count 0\n"
        );
    }

    #[test]
    fn prometheus_text_covers_all_sections() {
        let snapshot = Snapshot {
            counters: vec![("ops_total".to_string(), 7)],
            gauges: vec![("rr".to_string(), 0.5)],
            histograms: vec![("lat_us".to_string(), summary(2, 30, 10, 10, 20, 20))],
        };
        let text = snapshot.prometheus_text();
        assert!(text.contains("# TYPE ops_total counter"), "{text}");
        assert!(text.contains("ops_total 7"), "{text}");
        assert!(text.contains("# TYPE rr gauge"), "{text}");
        assert!(text.contains("rr 0.5"), "{text}");
        assert!(text.contains("# TYPE lat_us summary"), "{text}");
        assert!(text.contains("lat_us{quantile=\"0.5\"} 10"), "{text}");
        assert!(text.contains("lat_us{quantile=\"1\"} 20"), "{text}");
        assert!(text.contains("lat_us_sum 30"), "{text}");
        assert!(text.contains("lat_us_count 2"), "{text}");
    }

    #[test]
    fn labeled_builds_prometheus_series_names() {
        assert_eq!(
            labeled("ops_total", &[("shard", "3")]),
            "ops_total{shard=\"3\"}"
        );
        assert_eq!(
            labeled("lat_us", &[("shard", "0"), ("kind", "read")]),
            "lat_us{shard=\"0\",kind=\"read\"}"
        );
        assert_eq!(labeled("bare", &[]), "bare{}");
    }

    #[test]
    fn labeled_series_share_one_type_line_with_the_aggregate() {
        // Sorted by name, as a snapshot's sections are: a name that sorts
        // *between* `ops_total` and `ops_total{…` (ASCII '{' > any
        // letter) must not break family grouping.
        let snapshot = Snapshot {
            counters: vec![
                ("ops_total".to_string(), 10),
                ("ops_totalx".to_string(), 1),
                (labeled("ops_total", &[("shard", "0")]), 4),
                (labeled("ops_total", &[("shard", "1")]), 6),
            ],
            ..Snapshot::default()
        };
        let text = snapshot.prometheus_text();
        assert_eq!(
            text.matches("# TYPE ops_total counter").count(),
            1,
            "{text}"
        );
        assert!(text.contains("# TYPE ops_totalx counter"), "{text}");
        assert!(text.contains("ops_total{shard=\"0\"} 4"), "{text}");
        assert!(text.contains("ops_total{shard=\"1\"} 6"), "{text}");
        assert!(text.contains("ops_total 10"), "{text}");
    }

    #[test]
    fn labeled_histograms_merge_labels_into_quantiles() {
        let snapshot = Snapshot {
            histograms: vec![(
                labeled("lat_us", &[("shard", "2")]),
                summary(2, 40, 10, 10, 30, 30),
            )],
            ..Snapshot::default()
        };
        let text = snapshot.prometheus_text();
        assert!(text.contains("# TYPE lat_us summary"), "{text}");
        assert!(
            text.contains("lat_us{shard=\"2\",quantile=\"0.5\"} 10"),
            "{text}"
        );
        assert!(
            text.contains("lat_us{shard=\"2\",quantile=\"1\"} 30"),
            "{text}"
        );
        assert!(text.contains("lat_us_sum{shard=\"2\"} 40"), "{text}");
        assert!(text.contains("lat_us_count{shard=\"2\"} 2"), "{text}");
    }
}
