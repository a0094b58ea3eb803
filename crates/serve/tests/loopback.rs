//! End-to-end loopback test: a real daemon on an ephemeral port, a real
//! client streaming a regime shift over TCP, and a live reconfiguration
//! observed through the wire protocol — with the full tracing pipeline
//! installed, so the run also validates the JSONL trace file and the
//! `metrics` introspection frame against the `stats` ground truth.

mod common;

use common::{assert_metrics_match_stats, serving};
use rafiki::{ControllerConfig, EvalContext, RafikiTuner, TunerConfig};
use rafiki_engine::EngineConfig;
use rafiki_obs::{EventKind, JsonlSink, Level, MemorySink, TeeSink};
use rafiki_serve::{Client, ConfigSummary, Json, ServeConfig, Server};
use rafiki_workload::{
    characterize, Operation, OperationSource, ReplaySource, WorkloadGenerator, WorkloadSpec,
};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::mpsc;
use std::sync::Arc;
use std::time::Duration;

const WINDOW_OPS: usize = 400;
const PHASE_WINDOWS: usize = 3;

/// Where the JSONL trace lands; CI uploads this as an artifact.
fn trace_path() -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../target/experiments");
    std::fs::create_dir_all(&dir).expect("create experiments dir");
    dir.join("loopback_trace.jsonl")
}

/// Validates the written trace file: every line must parse as a JSON
/// object with the mandatory envelope keys, there must be at least one
/// `engine/reconfigure` span (with a duration), and exactly one
/// `controller/decision` event per closed window.
fn trace_check(path: &std::path::Path, windows_closed: u64) {
    let text = std::fs::read_to_string(path).expect("read trace file");
    let mut decisions = 0u64;
    let mut reconfigure_spans = 0u64;
    let mut lines = 0u64;
    for line in text.lines() {
        lines += 1;
        let v = Json::parse(line).unwrap_or_else(|e| panic!("bad trace line {line}: {e}"));
        for key in ["ts_us", "kind", "level", "target", "name"] {
            assert!(v.get(key).is_some(), "trace line missing {key}: {line}");
        }
        let target = v.get("target").and_then(Json::as_str).unwrap();
        let name = v.get("name").and_then(Json::as_str).unwrap();
        let kind = v.get("kind").and_then(Json::as_str).unwrap();
        if target == "controller" && name == "decision" {
            decisions += 1;
            assert!(v.get("rationale").is_some(), "decision without rationale");
        }
        if target == "engine" && name == "reconfigure" {
            assert_eq!(kind, "span");
            assert!(v.get("duration_us").is_some(), "span without duration");
            reconfigure_spans += 1;
        }
    }
    assert!(lines > 0, "trace file is empty");
    assert_eq!(
        decisions, windows_closed,
        "one controller decision per closed window"
    );
    assert!(reconfigure_spans >= 1, "no reconfigure span in trace");
}

/// The whole scenario runs under a generous watchdog so a wedged socket
/// or a lost frame fails the test instead of hanging CI.
#[test]
fn loopback_regime_shift_retunes_the_live_engine() {
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        scenario();
        tx.send(()).ok();
    });
    match rx.recv_timeout(Duration::from_secs(600)) {
        Ok(()) => {}
        Err(mpsc::RecvTimeoutError::Timeout) => panic!("loopback scenario timed out"),
        Err(mpsc::RecvTimeoutError::Disconnected) => panic!("loopback scenario panicked"),
    }
}

fn scenario() {
    // Full-detail tracing: JSONL to disk (the CI artifact) plus an
    // in-memory copy for direct assertions.
    let trace_file = trace_path();
    let jsonl = Arc::new(JsonlSink::create(&trace_file).expect("create trace file"));
    let memory = Arc::new(MemorySink::new());
    rafiki_obs::set_subscriber(
        Arc::new(TeeSink::new(vec![jsonl, memory.clone()])),
        Level::Trace,
    );

    let mut tuner = RafikiTuner::new(EvalContext::small(), TunerConfig::fast());
    tuner.fit().expect("tuner fit");
    let serve_cfg = ServeConfig {
        window_ops: WINDOW_OPS,
        krd_capacity: 1 << 16,
        // Switch on any predicted improvement: the test cares that the
        // reconfiguration machinery fires, not about the switching policy.
        controller: ControllerConfig {
            min_predicted_gain: 0.0,
            ..ControllerConfig::default()
        },
        preload_keys: 20_000,
        preload_payload: 1_000,
        ..ServeConfig::default()
    };
    let server = Server::bind("127.0.0.1:0", tuner, serve_cfg).expect("bind ephemeral port");

    // The operation stream: a hard read-heavy -> write-heavy shift, built
    // up front so the daemon's streaming characterization can be checked
    // against the batch characterizer over the exact same operations.
    let spec = |rr: f64| WorkloadSpec {
        initial_keys: 20_000,
        ..WorkloadSpec::with_read_ratio(rr)
    };
    let mut ops: Vec<Operation> = Vec::new();
    let mut read_heavy = WorkloadGenerator::new(spec(0.95), 11);
    ops.extend((0..PHASE_WINDOWS * WINDOW_OPS).map(|_| read_heavy.next_op()));
    let mut write_heavy = WorkloadGenerator::new(spec(0.05), 13);
    ops.extend((0..PHASE_WINDOWS * WINDOW_OPS).map(|_| write_heavy.next_op()));
    let total_ops = ops.len() as u64;

    let (stats, report) = serving(&server, |addr| {
        let mut client = Client::connect(addr).expect("connect");

        let initial = client.config().expect("initial config");
        assert_eq!(
            initial.active,
            ConfigSummary::from(&EngineConfig::default())
        );
        assert!(initial.events.is_empty(), "no reconfigurations yet");

        let mut source = ReplaySource::new(ops.clone());
        let histogram = client.drive(&mut source, ops.len()).expect("drive stream");
        assert_eq!(histogram.total(), total_ops);

        let stats = client.stats().expect("stats");
        assert_eq!(stats.operations, total_ops);
        assert_eq!(stats.windows_closed, (2 * PHASE_WINDOWS) as u64);
        assert!(
            stats.reoptimizations >= 2,
            "the first window and the regime shift must both re-optimize, got {}",
            stats.reoptimizations
        );
        assert!(
            stats.reconfigurations >= 1,
            "the shift must apply at least one configuration"
        );

        // The streaming characterization matches the batch one over the
        // same operations (no eviction at this capacity, so exactly).
        let batch = characterize::characterize(&ops);
        assert!((stats.read_ratio - batch.read_ratio).abs() < 1e-9);
        let (s, b) = (
            stats.krd_mean.expect("stream saw reuse"),
            batch.krd_mean.expect("batch saw reuse"),
        );
        assert!((s - b).abs() / b < 1e-9, "streamed KRD {s} vs batch {b}");

        // Latency digest sanity: ordered quantiles, positive mean, and
        // the server-side count matches the client-side histogram.
        let l = stats.latency;
        assert_eq!(l.count, total_ops);
        assert!(l.p50_us <= l.p95_us && l.p95_us <= l.p99_us && l.p99_us <= l.max_us);
        assert!(l.mean_us > 0.0);
        assert_eq!(histogram.max().unwrap(), l.max_us);
        // Every window runs exactly WINDOW_OPS foreground operations, and
        // the per-window metrics delta must account for all of them.
        assert_eq!(
            stats.last_window.reads_completed + stats.last_window.writes_completed,
            WINDOW_OPS as u64
        );
        // The last window's own latency quantiles are present and ordered.
        let w = stats.last_window;
        assert!(w.p50_us > 0 && w.p50_us <= w.p99_us);
        assert!(w.p99_us <= stats.latency.max_us);

        // The `metrics` frame agrees with `stats` exactly: both are built
        // from the same shard snapshots.
        let metrics = client.metrics().expect("metrics");
        assert_metrics_match_stats(&metrics, &stats);
        // The Prometheus exposition carries the same numbers.
        assert!(metrics
            .prometheus
            .contains(&format!("serve_ops_total {}", stats.operations)));
        assert!(metrics
            .prometheus
            .contains("# TYPE serve_ops_total counter"));

        let report = client.config().expect("config after shift");
        assert_eq!(report.events.len() as u64, stats.reconfigurations);
        assert!(
            report.events.iter().any(|e| e.to != initial.active),
            "an applied configuration must differ from the initial one"
        );
        let last = report.events.last().expect("at least one event");
        assert_eq!(report.active, last.to, "active config is the last applied");
        assert!(last.predicted_throughput > 0.0);
        // Every applied switch names the parameters it changed.
        for e in &report.events {
            assert!(!e.diff.is_empty(), "a switch with an empty diff");
            for c in &e.diff {
                assert!(!c.param.is_empty());
                assert_ne!(c.from, c.to, "{} did not change", c.param);
            }
        }

        // A second concurrent connection sees the same aggregate state.
        let mut other = Client::connect(addr).expect("second client");
        let other_stats = other.stats().expect("second client stats");
        assert_eq!(other_stats.operations, total_ops);
        assert_eq!(other_stats.latency.count, total_ops);

        // Malformed frames get an error frame, and the connection stays
        // usable afterwards.
        let raw = TcpStream::connect(addr).expect("raw connect");
        let mut raw_reader = BufReader::new(raw.try_clone().expect("clone"));
        let mut raw_writer = raw;
        let mut line = String::new();
        raw_writer
            .write_all(b"not json at all\n")
            .expect("send garbage");
        raw_reader.read_line(&mut line).expect("error frame");
        assert!(line.contains("\"error\""), "got: {line}");
        line.clear();
        raw_writer
            .write_all(b"{\"type\":\"op\",\"kind\":\"scan\",\"key\":1}\n")
            .expect("send invalid scan");
        raw_reader.read_line(&mut line).expect("error frame");
        assert!(line.contains("scan needs len"), "got: {line}");
        line.clear();
        raw_writer
            .write_all(b"{\"type\":\"op\",\"kind\":\"read\",\"key\":7}\n")
            .expect("send valid op");
        raw_reader.read_line(&mut line).expect("done frame");
        assert!(line.contains("\"done\""), "got: {line}");

        // A payload larger than anything the workload generates is still
        // a valid op: it completes, and its shard keeps serving the key.
        line.clear();
        raw_writer
            .write_all(b"{\"type\":\"op\",\"kind\":\"insert\",\"key\":7,\"len\":2000000}\n")
            .expect("send oversized insert");
        raw_reader.read_line(&mut line).expect("done frame");
        assert!(line.contains("\"done\""), "got: {line}");
        line.clear();
        raw_writer
            .write_all(b"{\"type\":\"batch\",\"ops\":[[0,7],[2,7,2000000]]}\n")
            .expect("send batch on the same key");
        raw_reader.read_line(&mut line).expect("batch frame");
        let results = Json::parse(&line).unwrap_or_else(|e| panic!("bad batch {line}: {e}"));
        let results = results.get("results").and_then(Json::as_arr);
        assert!(
            results.is_some_and(|r| r.len() == 2 && r.iter().all(|v| v.as_f64().is_some())),
            "got: {line}"
        );
        line.clear();
        raw_writer
            .write_all(b"{\"type\":\"stats\"}\n")
            .expect("send stats");
        raw_reader.read_line(&mut line).expect("stats frame");
        assert!(line.contains("\"type\":\"stats\""), "got: {line}");
        drop(raw_writer);

        client.shutdown().expect("shutdown");
        stats
    });
    assert_eq!(
        report.operations,
        total_ops + 4,
        "plus the raw-socket read, oversized insert and batch"
    );
    assert_eq!(report.windows_closed, (2 * PHASE_WINDOWS) as u64);
    assert_eq!(report.reconfigurations, stats.reconfigurations);
    assert!(report.reoptimizations >= stats.reoptimizations);

    // --- Trace assertions (the server is quiesced; everything the
    // pipeline emitted has reached the sinks). ---
    let events = memory.events();
    let decisions: Vec<_> = events
        .iter()
        .filter(|e| e.target == "controller" && e.name == "decision")
        .collect();
    assert_eq!(
        decisions.len() as u64,
        report.windows_closed,
        "one controller decision trace per closed window"
    );
    let closes = events
        .iter()
        .filter(|e| e.target == "serve" && e.name == "window_close")
        .count() as u64;
    assert_eq!(closes, report.windows_closed);
    let reconfigures = events
        .iter()
        .filter(|e| e.target == "engine" && e.name == "reconfigure" && e.kind == EventKind::Span)
        .count() as u64;
    assert!(
        reconfigures >= report.reconfigurations && report.reconfigurations >= 1,
        "expected >= {} reconfigure spans, saw {reconfigures}",
        report.reconfigurations
    );

    // The on-disk JSONL trace survives the same scrutiny.
    rafiki_obs::clear_subscriber();
    trace_check(&trace_file, report.windows_closed);
}
