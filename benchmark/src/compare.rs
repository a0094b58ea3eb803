//! `benchmark compare <setA> <setB>`: are two sets of runs the same
//! within the benchmark's own bounds?
//!
//! Each directory holds run summaries (at least three untraced runs per
//! workload). For every (end-to-end metric, workload) pair the table
//! shows each set's median and quartiles, how much worse B's median is
//! than A's as a share of A's, and the bound. A pair is `worse` when
//! that share exceeds the bound, `unresolved` when either set's own
//! spread (third minus first quartile, over its median) is wider than
//! the bound — the metric cannot tell the sets apart — and `ok`
//! otherwise. `setup_s` is judged on its medians alone: set-up is short
//! and its spread is not held to the bound.

use crate::catalog::{Better, Metric, END_TO_END, WORKLOADS};
use crate::stat::quartiles;
use rafiki_serve::Json;
use std::collections::BTreeMap;
use std::path::Path;

/// Fewest runs per workload a set may hold.
pub const MIN_RUNS: usize = 3;

/// Values by (workload, metric).
pub type RunSet = BTreeMap<(String, String), Vec<f64>>;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Worse,
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One row of the table.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    pub workload: String,
    pub metric: Metric,
    pub a: [f64; 3],
    pub b: [f64; 3],
    /// How much worse B's median is than A's, as a share of A's
    /// (negative = better).
    pub worse_by: f64,
    pub verdict: Verdict,
}

/// Reads every untraced, non-smoke, correct run summary in `dir`.
///
/// # Errors
///
/// Fails on an unreadable directory or an unparsable summary.
pub fn load(dir: &Path) -> Result<RunSet, String> {
    let mut set = RunSet::new();
    let entries = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let mut paths: Vec<_> = entries.filter_map(|e| e.ok().map(|e| e.path())).collect();
    paths.sort();
    for path in paths
        .iter()
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
    {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        let doc = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        let flag = |key: &str| doc.get(key).and_then(Json::as_bool);
        let (Some(workload), Some(false), Some(false)) = (
            doc.get("workload").and_then(Json::as_str),
            flag("traced"),
            flag("smoke"),
        ) else {
            continue; // a trace file, a traced run or a smoke run
        };
        let Some(result) = doc.get("result") else {
            continue;
        };
        if result.get("correct").and_then(Json::as_bool) != Some(true) {
            return Err(format!("{}: the run was not correct", path.display()));
        }
        let metrics = result.get("metrics").and_then(Json::as_obj).unwrap_or(&[]);
        for (name, m) in metrics {
            if let Some(value) = m.get("value").and_then(Json::as_f64) {
                set.entry((workload.to_string(), name.clone()))
                    .or_default()
                    .push(value);
            }
        }
    }
    Ok(set)
}

/// Compares B against A on every (end-to-end metric, workload) pair.
///
/// # Errors
///
/// Fails when a pair has fewer than [`MIN_RUNS`] runs in either set.
pub fn compare(a: &RunSet, b: &RunSet) -> Result<Vec<Row>, String> {
    let mut rows = Vec::new();
    for (workload, _) in WORKLOADS {
        for metric in END_TO_END {
            let key = (workload.to_string(), metric.name.to_string());
            let runs = |set: &RunSet, which: &str| match set.get(&key) {
                Some(v) if v.len() >= MIN_RUNS => Ok(v.clone()),
                other => Err(format!(
                    "set {which} has {} runs of {} on {workload}, need {MIN_RUNS}",
                    other.map_or(0, Vec::len),
                    metric.name
                )),
            };
            rows.push(row(workload, *metric, &runs(a, "A")?, &runs(b, "B")?));
        }
    }
    Ok(rows)
}

fn row(workload: &str, metric: Metric, a: &[f64], b: &[f64]) -> Row {
    let (qa, qb) = (quartiles(a), quartiles(b));
    let bound = metric.bound.expect("end-to-end metrics carry a bound");
    let spread = |q: [f64; 3]| (q[2] - q[0]) / q[1].abs();
    let change = (qb[1] - qa[1]) / qa[1].abs();
    let worse_by = match metric.better {
        Better::Lower => change,
        Better::Higher => -change,
    };
    let verdict = if worse_by > bound {
        Verdict::Worse
    } else if metric.name != "setup_s" && (spread(qa) > bound || spread(qb) > bound) {
        Verdict::Unresolved
    } else {
        Verdict::Ok
    };
    Row {
        workload: workload.to_string(),
        metric,
        a: qa,
        b: qb,
        worse_by,
        verdict,
    }
}

/// The table, one row per pair, as GitHub-flavoured markdown.
pub fn render(rows: &[Row]) -> String {
    let mut out = String::from(
        "| workload | metric | unit | A median [q1, q3] | B median [q1, q3] | B worse by | bound | verdict |\n\
         |---|---|---|---|---|---|---|---|\n",
    );
    let cell = |q: [f64; 3]| format!("{} [{}, {}]", sig(q[1]), sig(q[0]), sig(q[2]));
    for r in rows {
        out.push_str(&format!(
            "| {} | {} | {} | {} | {} | {:+.1}% | {:.0}% | {} |\n",
            r.workload,
            r.metric.name,
            r.metric.unit,
            cell(r.a),
            cell(r.b),
            r.worse_by * 100.0,
            r.metric.bound.unwrap_or(0.0) * 100.0,
            r.verdict.as_str()
        ));
    }
    out
}

/// Five significant digits, for display.
fn sig(x: f64) -> String {
    if x == 0.0 || !x.is_finite() {
        return x.to_string();
    }
    let decimals = (4 - x.abs().log10().floor() as i32).max(0) as usize;
    format!("{x:.decimals$}")
}

/// Whether any pair got worse.
pub fn any_worse(rows: &[Row]) -> bool {
    rows.iter().any(|r| r.verdict == Verdict::Worse)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(name: &str) -> Metric {
        *END_TO_END.iter().find(|m| m.name == name).unwrap()
    }

    #[test]
    fn direction_and_bound_decide_the_verdict() {
        let ops = metric("sim_ops_per_s"); // higher is better, bound 10%
        let steady = [100.0, 101.0, 99.0, 100.5];
        assert_eq!(
            row("w", ops, &steady, &[80.0, 81.0, 79.0]).verdict,
            Verdict::Worse
        );
        assert_eq!(
            row("w", ops, &steady, &[120.0, 121.0, 119.0]).verdict,
            Verdict::Ok
        );
        assert_eq!(
            row("w", ops, &steady, &[95.0, 96.0, 94.0]).verdict,
            Verdict::Ok
        );
        let lat = metric("peak_rss_mb"); // lower is better, bound 10%
        assert_eq!(
            row("w", lat, &steady, &[120.0, 121.0, 119.0]).verdict,
            Verdict::Worse
        );
        assert_eq!(
            row("w", lat, &steady, &[80.0, 81.0, 79.0]).verdict,
            Verdict::Ok
        );
        let r = row("w", lat, &steady, &[105.0, 105.0, 105.0]);
        assert!((r.worse_by - 0.0474).abs() < 1e-3, "{}", r.worse_by);
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved() {
        let ops = metric("sim_ops_per_s");
        let noisy = [100.0, 60.0, 140.0, 100.0];
        assert_eq!(
            row("w", ops, &noisy, &[100.0, 100.0, 100.0]).verdict,
            Verdict::Unresolved
        );
        // ... but a median that got worse by more than the bound still is.
        assert_eq!(
            row("w", ops, &noisy, &[50.0, 50.0, 50.0]).verdict,
            Verdict::Worse
        );
    }

    #[test]
    fn sets_need_three_runs_of_every_pair() {
        let mut full = RunSet::new();
        for (w, _) in WORKLOADS {
            for m in END_TO_END {
                full.insert((w.to_string(), m.name.to_string()), vec![1.0, 1.0, 1.0]);
            }
        }
        let rows = compare(&full, &full).unwrap();
        assert_eq!(rows.len(), WORKLOADS.len() * END_TO_END.len());
        assert!(!any_worse(&rows));
        assert!(render(&rows).lines().count() == rows.len() + 2);
        let mut short = full.clone();
        short
            .get_mut(&("tune_job".to_string(), "setup_s".to_string()))
            .unwrap()
            .pop();
        assert!(compare(&full, &short).unwrap_err().contains("tune_job"));
    }

    #[test]
    fn display_rounding_keeps_five_digits() {
        assert_eq!(sig(123_456.789), "123457");
        assert_eq!(sig(144.251_9), "144.25");
        assert_eq!(sig(0.001_234_567), "0.0012346");
        assert_eq!(sig(0.0), "0");
    }
}
