//! Shared by the daemon's integration tests: a small fitted tuner, a
//! harness that runs a [`Server`] beside the test body and stops it
//! however the body ends, and the check that `metrics` and `stats`
//! agree. Each test binary compiles this module and uses a subset.

#![allow(dead_code)]

use rafiki::{CollectionPlan, EvalContext, RafikiTuner, TunerConfig};
use rafiki_serve::{LatencySummary, MetricsReport, ServeReport, Server, StatsReport};
use rafiki_workload::{BenchmarkSpec, WorkloadSpec};
use std::net::SocketAddr;

/// A deliberately tiny fitted tuner over `preload_keys` keys: the tests
/// that use it exercise the wire path, routing and aggregation, not
/// tuning quality, so the fit just needs to succeed fast.
pub fn tiny_tuner(preload_keys: u64) -> RafikiTuner {
    let ctx = EvalContext {
        bench: BenchmarkSpec {
            duration_secs: 0.5,
            warmup_secs: 0.1,
            clients: 8,
            sample_window_secs: 0.25,
        },
        workload: WorkloadSpec {
            initial_keys: preload_keys,
            ..WorkloadSpec::with_read_ratio(0.5)
        },
        preload_keys,
        preload_payload: 200,
        ..EvalContext::small()
    };
    let cfg = TunerConfig {
        collection: CollectionPlan {
            configurations: 3,
            read_ratios: vec![0.0, 0.5, 1.0],
            ..CollectionPlan::default()
        },
        ..TunerConfig::fast()
    };
    let mut tuner = RafikiTuner::new(ctx, cfg);
    tuner.fit().expect("tiny tuner fit");
    tuner
}

/// Stops the server when dropped, including while a failed assertion
/// unwinds the test body.
struct StopOnDrop<'a>(&'a Server);

impl Drop for StopOnDrop<'_> {
    fn drop(&mut self) {
        self.0.stop();
    }
}

/// Runs `server` on a scoped thread, calls `body` with its address, and
/// returns what `body` returned plus the server's lifetime report. The
/// server is stopped as soon as `body` returns or panics, so a failed
/// assertion fails the test within one poll interval instead of waiting
/// forever for the server thread to join.
pub fn serving<T>(server: &Server, body: impl FnOnce(SocketAddr) -> T) -> (T, ServeReport) {
    let addr = server.local_addr().expect("local addr");
    std::thread::scope(|scope| {
        let handle = scope.spawn(|| server.run().expect("server run"));
        let stop = StopOnDrop(server);
        let out = body(addr);
        drop(stop);
        (out, handle.join().expect("server thread"))
    })
}

/// Asserts that `metrics` reports what `stats` does when no op ran
/// between the two frames: each counter equals its `stats` field, and
/// `serve_op_latency_us` has the count, p50, p99 and max of
/// `stats.latency` — for the aggregate and for every `{shard="N"}`
/// series against its `stats.shards` row. `serve_decide_us` holds one
/// decision per closed window.
pub fn assert_metrics_match_stats(metrics: &MetricsReport, stats: &StatsReport) {
    let find = |name: &str| {
        let counter = |family: &str| {
            let series = format!("{family}{name}");
            metrics
                .counters
                .iter()
                .find(|(n, _)| *n == series)
                .unwrap_or_else(|| panic!("missing counter {series}"))
                .1
        };
        let series = format!("serve_op_latency_us{name}");
        let (_, h) = metrics
            .histograms
            .iter()
            .find(|(n, _)| *n == series)
            .unwrap_or_else(|| panic!("missing histogram {series}"));
        (
            [
                counter("serve_ops_total"),
                counter("serve_windows_closed_total"),
                counter("serve_reoptimizations_total"),
                counter("serve_reconfigurations_total"),
            ],
            [h.count, h.p50, h.p99, h.max],
        )
    };
    let digest = |l: &LatencySummary| [l.count, l.p50_us, l.p99_us, l.max_us];
    let aggregate = [
        stats.operations,
        stats.windows_closed,
        stats.reoptimizations,
        stats.reconfigurations,
    ];
    assert_eq!(find(""), (aggregate, digest(&stats.latency)), "aggregate");
    let decide = metrics
        .histograms
        .iter()
        .find(|(n, _)| n == "serve_decide_us");
    assert_eq!(decide.map(|(_, h)| h.count), Some(stats.windows_closed));
    for row in &stats.shards {
        let counts = [
            row.operations,
            row.windows_closed,
            row.reoptimizations,
            row.reconfigurations,
        ];
        let label = format!("{{shard=\"{}\"}}", row.shard);
        assert_eq!(find(&label), (counts, digest(&row.latency)), "{label}");
    }
}
