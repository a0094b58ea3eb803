//! Sharding invariants observable through the wire protocol: key→shard
//! routing is deterministic across daemon restarts, a one-shard cluster
//! is indistinguishable from the unsharded daemon, per-shard stats sum
//! exactly to the aggregate, client pipelining is a transport
//! optimization only, and connections contending for the same shards
//! lose no op and get no reply out of order.

use rafiki::{CollectionPlan, ControllerConfig, EvalContext, RafikiTuner, TunerConfig};
use rafiki_serve::protocol::encode_batch_into;
use rafiki_serve::{
    BatchResult, Client, ConfigReport, Json, MetricsReport, Response, ServeConfig, Server,
    StatsReport,
};
use rafiki_workload::{
    BenchmarkSpec, Operation, OperationSource, ReplaySource, WorkloadGenerator, WorkloadSpec,
};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Barrier;

const WINDOW_OPS: usize = 300;
const PRELOAD_KEYS: u64 = 5_000;

/// A deliberately tiny fitted tuner: these tests exercise routing and
/// aggregation, not tuning quality, so the fit just needs to succeed
/// fast.
fn tiny_tuner() -> RafikiTuner {
    let ctx = EvalContext {
        bench: BenchmarkSpec {
            duration_secs: 0.5,
            warmup_secs: 0.1,
            clients: 8,
            sample_window_secs: 0.25,
        },
        workload: WorkloadSpec {
            initial_keys: PRELOAD_KEYS,
            ..WorkloadSpec::with_read_ratio(0.5)
        },
        preload_keys: PRELOAD_KEYS,
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

fn serve_config(shards: usize) -> ServeConfig {
    ServeConfig {
        window_ops: WINDOW_OPS,
        krd_capacity: 1 << 14,
        controller: ControllerConfig {
            min_predicted_gain: 0.0,
            ..ControllerConfig::default()
        },
        preload_keys: PRELOAD_KEYS,
        preload_payload: 200,
        shards,
        ..ServeConfig::default()
    }
}

fn op_stream(ops: usize, seed: u64) -> Vec<Operation> {
    let spec = WorkloadSpec {
        initial_keys: PRELOAD_KEYS,
        ..WorkloadSpec::with_read_ratio(0.6)
    };
    let mut generator = WorkloadGenerator::new(spec, seed);
    (0..ops).map(|_| generator.next_op()).collect()
}

/// Runs `ops` against a fresh daemon and returns the full observable
/// state: stats, config, metrics, and the client-side histogram total.
fn run_cluster(
    shards: usize,
    ops: &[Operation],
    batch: usize,
    inflight: usize,
) -> (StatsReport, ConfigReport, MetricsReport, u64) {
    let server = Server::bind("127.0.0.1:0", tiny_tuner(), serve_config(shards)).expect("bind");
    let addr = server.local_addr().expect("local addr");
    std::thread::scope(|scope| {
        let handle = scope.spawn(|| server.run().expect("server run"));
        let mut client = Client::connect(addr).expect("connect");
        let mut source = ReplaySource::new(ops.to_vec());
        let histogram = client
            .drive_pipelined(&mut source, ops.len(), batch, inflight)
            .expect("drive");
        let stats = client.stats().expect("stats");
        let config = client.config().expect("config");
        let metrics = client.metrics().expect("metrics");
        client.shutdown().expect("shutdown");
        handle.join().expect("server thread");
        (stats, config, metrics, histogram.total())
    })
}

/// Blanks the aggregate `last_window`: it reports whichever shard
/// closed a window most recently in *real* time, so it is the one
/// stats field that legitimately varies across runs of a multi-shard
/// cluster (per-shard rows stay deterministic).
fn scrubbed(mut stats: StatsReport) -> StatsReport {
    stats.last_window = rafiki_serve::WindowActivity::default();
    stats
}

fn counter(metrics: &MetricsReport, name: &str) -> u64 {
    metrics
        .counters
        .iter()
        .find(|(n, _)| n == name)
        .unwrap_or_else(|| panic!("missing counter {name}"))
        .1
}

/// Routing is a pure function of the key and the (fixed) ring seed: two
/// daemon instances started from scratch route an identical op stream
/// to identical shards, so every per-shard row matches across restarts.
#[test]
fn shard_routing_is_deterministic_across_restarts() {
    let ops = op_stream(3 * WINDOW_OPS, 41);
    let (first, _, _, _) = run_cluster(3, &ops, 64, 1);
    let (second, _, _, _) = run_cluster(3, &ops, 64, 1);
    assert_eq!(first.shards.len(), 3);
    assert_eq!(
        scrubbed(first.clone()),
        scrubbed(second),
        "two fresh daemons disagree on per-shard state for the same stream"
    );
    // The stream actually spread across shards (ring balance).
    for shard in &first.shards {
        assert!(
            shard.operations > 0,
            "shard {} received no operations",
            shard.shard
        );
    }
}

/// A one-shard cluster reports its single shard's row as the aggregate,
/// field for field — the `--shards 1` daemon is the old unsharded one.
#[test]
fn single_shard_aggregate_equals_its_only_shard_row() {
    let ops = op_stream(2 * WINDOW_OPS, 43);
    let (stats, config, _, client_count) = run_cluster(1, &ops, 64, 1);
    assert_eq!(client_count, ops.len() as u64);
    assert_eq!(stats.shards.len(), 1);
    let shard = &stats.shards[0];
    assert_eq!(shard.shard, 0);
    assert_eq!(shard.operations, stats.operations);
    assert_eq!(shard.read_ratio, stats.read_ratio);
    assert_eq!(shard.krd_mean, stats.krd_mean);
    assert_eq!(shard.windows_closed, stats.windows_closed);
    assert_eq!(shard.reoptimizations, stats.reoptimizations);
    assert_eq!(shard.reconfigurations, stats.reconfigurations);
    assert_eq!(shard.latency, stats.latency);
    assert_eq!(shard.last_window, stats.last_window);
    // One shard means no scale-out event and one per-shard config row.
    assert!(config.cluster_events.is_empty());
    assert_eq!(config.shards.len(), 1);
    assert_eq!(config.shards[0].active, config.active);
}

/// Per-shard rows sum exactly to the aggregate — counts as integers,
/// the read ratio through its sufficient statistics — and the labeled
/// metrics series sum to the unlabeled aggregate series.
#[test]
fn per_shard_stats_sum_exactly_to_the_aggregate() {
    let ops = op_stream(4 * WINDOW_OPS, 47);
    let (stats, config, metrics, _) = run_cluster(3, &ops, 64, 1);
    assert_eq!(stats.operations, ops.len() as u64);
    assert_eq!(
        stats.shards.iter().map(|s| s.operations).sum::<u64>(),
        stats.operations
    );
    assert_eq!(
        stats.shards.iter().map(|s| s.windows_closed).sum::<u64>(),
        stats.windows_closed
    );
    assert_eq!(
        stats.shards.iter().map(|s| s.reoptimizations).sum::<u64>(),
        stats.reoptimizations
    );
    assert_eq!(
        stats.shards.iter().map(|s| s.reconfigurations).sum::<u64>(),
        stats.reconfigurations
    );
    assert_eq!(
        stats.shards.iter().map(|s| s.latency.count).sum::<u64>(),
        stats.latency.count
    );
    // read_ratio = Σreads / Σops: reconstruct each shard's integer read
    // count and compare exactly.
    let reads: u64 = stats
        .shards
        .iter()
        .map(|s| (s.read_ratio * s.operations as f64).round() as u64)
        .sum();
    assert_eq!(
        (stats.read_ratio * stats.operations as f64).round() as u64,
        reads
    );
    // The audit trail agrees with the per-shard counts.
    assert_eq!(config.events.len() as u64, stats.reconfigurations);
    for shard in &stats.shards {
        let events = config
            .events
            .iter()
            .filter(|e| e.shard == shard.shard)
            .count() as u64;
        assert_eq!(events, shard.reconfigurations);
    }
    // Labeled registry series sum exactly to the aggregate series.
    for name in [
        "serve_ops_total",
        "serve_windows_closed_total",
        "serve_reconfigurations_total",
    ] {
        let labeled: u64 = (0..stats.shards.len())
            .map(|s| counter(&metrics, &format!("{name}{{shard=\"{s}\"}}")))
            .sum();
        assert_eq!(labeled, counter(&metrics, name), "{name} does not sum");
    }
    assert!(metrics.prometheus.contains("serve_ops_total{shard=\"0\"}"));
}

/// Pipelining is a transport optimization only: the same stream driven
/// with an 8-frame window leaves the cluster in exactly the state strict
/// request/response driving does.
#[test]
fn pipelined_and_unpipelined_runs_are_indistinguishable() {
    let ops = op_stream(3 * WINDOW_OPS, 53);
    let (sequential, _, _, seq_count) = run_cluster(2, &ops, 32, 1);
    let (pipelined, _, _, pipe_count) = run_cluster(2, &ops, 32, 8);
    assert_eq!(seq_count, ops.len() as u64);
    assert_eq!(pipe_count, ops.len() as u64);
    assert_eq!(
        scrubbed(sequential),
        scrubbed(pipelined),
        "a pipelined run must be observably identical to a sequential one"
    );
    // Unbatched pipelining (single-op frames, windowed) too.
    let short = &ops[..WINDOW_OPS];
    let (seq_1, _, _, _) = run_cluster(2, short, 1, 1);
    let (pipe_1, _, _, _) = run_cluster(2, short, 1, 16);
    assert_eq!(scrubbed(seq_1), scrubbed(pipe_1));
}

/// A burst of frames written in one TCP segment is answered with one
/// response per frame, in order (the server drains buffered frames and
/// answers them with a single vectored write).
#[test]
fn frame_bursts_are_answered_in_order() {
    let server = Server::bind("127.0.0.1:0", tiny_tuner(), serve_config(2)).expect("bind");
    let addr = server.local_addr().expect("local addr");
    std::thread::scope(|scope| {
        let handle = scope.spawn(|| server.run().expect("server run"));
        let raw = TcpStream::connect(addr).expect("raw connect");
        let mut reader = BufReader::new(raw.try_clone().expect("clone"));
        let mut writer = raw;
        // Five op frames, a blank line, and a stats frame in one write.
        let mut burst = String::new();
        for key in [1u64, 2, 3, 4, 5] {
            burst.push_str(&format!(
                "{{\"type\":\"op\",\"kind\":\"read\",\"key\":{key}}}\n"
            ));
        }
        burst.push('\n');
        burst.push_str("{\"type\":\"stats\"}\n");
        writer.write_all(burst.as_bytes()).expect("write burst");
        let mut line = String::new();
        for i in 0..5 {
            line.clear();
            reader.read_line(&mut line).expect("response");
            assert!(line.contains("\"done\""), "frame {i}: {line}");
        }
        line.clear();
        reader.read_line(&mut line).expect("stats response");
        assert!(line.contains("\"stats\""), "got: {line}");
        assert!(line.contains("\"operations\":5"), "got: {line}");
        drop(writer);
        let mut client = Client::connect(addr).expect("connect");
        client.shutdown().expect("shutdown");
        handle.join().expect("server thread");
    });
}

/// Three connections, released together by a barrier, each pipeline
/// frames whose keys span both shards of a two-shard daemon, so their
/// slices contend for the same shard locks. Every frame is answered in
/// full, without error and in frame order (frame sizes are distinct, so
/// a reordered reply shows as a length mismatch), and every op is
/// counted exactly once, in `stats`, in the registry and per shard.
#[test]
fn concurrent_connections_contending_on_shards_lose_nothing() {
    const CONNECTIONS: usize = 3;
    const FRAMES: usize = 20;
    let frame_len = |frame: usize| 64 - frame;
    let server = Server::bind("127.0.0.1:0", tiny_tuner(), serve_config(2)).expect("bind");
    let addr = server.local_addr().expect("local addr");
    let barrier = Barrier::new(CONNECTIONS);
    std::thread::scope(|scope| {
        let handle = scope.spawn(|| server.run().expect("server run"));
        let connections: Vec<_> = (0..CONNECTIONS)
            .map(|connection| {
                let barrier = &barrier;
                scope.spawn(move || {
                    let sent: usize = (0..FRAMES).map(frame_len).sum();
                    let mut ops = op_stream(sent, 60 + connection as u64).into_iter();
                    let mut burst = String::new();
                    for frame in 0..FRAMES {
                        let chunk: Vec<Operation> = ops.by_ref().take(frame_len(frame)).collect();
                        encode_batch_into(&chunk, &mut burst);
                        burst.push('\n');
                    }
                    let raw = TcpStream::connect(addr).expect("raw connect");
                    let mut reader = BufReader::new(raw.try_clone().expect("clone"));
                    let mut writer = raw;
                    barrier.wait();
                    writer.write_all(burst.as_bytes()).expect("pipeline frames");
                    let mut line = String::new();
                    for frame in 0..FRAMES {
                        line.clear();
                        reader.read_line(&mut line).expect("batch reply");
                        let json = Json::parse(line.trim()).expect("reply parses");
                        let Ok(Response::Batch(results)) = Response::from_json(&json) else {
                            panic!("connection {connection} frame {frame}: {line}");
                        };
                        assert_eq!(
                            results.len(),
                            frame_len(frame),
                            "connection {connection}: reply {frame} is out of order"
                        );
                        assert!(
                            results
                                .iter()
                                .all(|r| matches!(r, BatchResult::Done { .. })),
                            "connection {connection} frame {frame}: {line}"
                        );
                    }
                    sent as u64
                })
            })
            .collect();
        let sent: u64 = connections
            .into_iter()
            .map(|c| c.join().expect("connection thread"))
            .sum();

        let mut client = Client::connect(addr).expect("connect");
        let stats = client.stats().expect("stats");
        let metrics = client.metrics().expect("metrics");
        client.shutdown().expect("shutdown");
        let run = handle.join().expect("server thread");

        assert_eq!(stats.operations, sent);
        assert_eq!(run.operations, sent);
        assert_eq!(counter(&metrics, "serve_ops_total"), stats.operations);
        assert_eq!(stats.latency.count, sent);
        assert_eq!(stats.shards.len(), 2);
        for shard in &stats.shards {
            assert!(shard.operations > 0, "shard {} got no ops", shard.shard);
            assert_eq!(
                shard.windows_closed,
                shard.operations / WINDOW_OPS as u64,
                "shard {} closed the wrong number of windows",
                shard.shard
            );
            assert_eq!(
                counter(
                    &metrics,
                    &format!("serve_ops_total{{shard=\"{}\"}}", shard.shard)
                ),
                shard.operations
            );
        }
        assert_eq!(
            stats.shards.iter().map(|s| s.operations).sum::<u64>(),
            stats.operations
        );
        assert_eq!(
            stats.shards.iter().map(|s| s.windows_closed).sum::<u64>(),
            stats.windows_closed
        );
        assert_eq!(
            stats.shards.iter().map(|s| s.latency.count).sum::<u64>(),
            stats.latency.count
        );
        assert_eq!(
            counter(&metrics, "serve_windows_closed_total"),
            stats.windows_closed
        );
    });
}
