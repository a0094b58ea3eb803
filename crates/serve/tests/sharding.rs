//! Sharding invariants observable through the wire protocol: key→shard
//! routing is deterministic across daemon restarts, a one-shard cluster
//! is indistinguishable from the unsharded daemon, per-shard stats sum
//! exactly to the aggregate, client pipelining is a transport
//! optimization only, and connections contending for the same shards
//! lose no op and get no reply out of order.

mod common;

use common::{assert_metrics_match_stats, serving, tiny_tuner};
use rafiki::ControllerConfig;
use rafiki_serve::protocol::encode_batch_into;
use rafiki_serve::{
    BatchResult, Client, ConfigReport, Json, MetricsReport, Response, ServeConfig, Server,
    StatsReport,
};
use rafiki_workload::{Operation, OperationSource, ReplaySource, WorkloadGenerator, WorkloadSpec};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Barrier;

const WINDOW_OPS: usize = 300;
const PRELOAD_KEYS: u64 = 5_000;

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

fn server(shards: usize) -> Server {
    Server::bind(
        "127.0.0.1:0",
        tiny_tuner(PRELOAD_KEYS),
        serve_config(shards),
    )
    .expect("bind")
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
    serving(&server(shards), |addr| {
        let mut client = Client::connect(addr).expect("connect");
        let mut source = ReplaySource::new(ops.to_vec());
        let histogram = client
            .drive_pipelined(&mut source, ops.len(), batch, inflight)
            .expect("drive");
        let stats = client.stats().expect("stats");
        let config = client.config().expect("config");
        let metrics = client.metrics().expect("metrics");
        (stats, config, metrics, histogram.total())
    })
    .0
}

/// Blanks the aggregate `last_window`: it reports whichever shard
/// closed a window most recently in *real* time, so it is the one
/// stats field that legitimately varies across runs of a multi-shard
/// cluster (per-shard rows stay deterministic).
fn scrubbed(mut stats: StatsReport) -> StatsReport {
    stats.last_window = rafiki_serve::WindowActivity::default();
    stats
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
/// the read ratio through its sufficient statistics.
#[test]
fn per_shard_stats_sum_exactly_to_the_aggregate() {
    let ops = op_stream(4 * WINDOW_OPS, 47);
    let (stats, config, _, _) = run_cluster(3, &ops, 64, 1);
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
}

/// The `metrics` frame is built from the same shard snapshots as
/// `stats`, so the two agree even while windows are still filling: the
/// latency summaries count the open window's ops too.
#[test]
fn metrics_frame_equals_stats_mid_window() {
    let ops = op_stream(4 * WINDOW_OPS + WINDOW_OPS / 2, 59);
    let (stats, _, metrics, _) = run_cluster(2, &ops, 64, 1);
    assert!(
        stats
            .shards
            .iter()
            .all(|s| s.operations % WINDOW_OPS as u64 != 0),
        "the stream must end partway through a window on every shard"
    );
    assert!(stats.windows_closed > 0);
    assert_metrics_match_stats(&metrics, &stats);
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
    serving(&server(2), |addr| {
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
    });
}

/// Three connections, released together by a barrier, each pipeline
/// frames whose keys span both shards of a two-shard daemon, so their
/// slices contend for the same shard locks. Every frame is answered in
/// full, without error and in frame order (frame sizes are distinct, so
/// a reordered reply shows as a length mismatch), and every op is
/// counted exactly once, in `stats`, in `metrics` and per shard.
#[test]
fn concurrent_connections_contending_on_shards_lose_nothing() {
    const CONNECTIONS: usize = 3;
    const FRAMES: usize = 20;
    let frame_len = |frame: usize| 64 - frame;
    let barrier = Barrier::new(CONNECTIONS);
    let ((sent, stats, metrics), run) = serving(&server(2), |addr| {
        let sent = std::thread::scope(|scope| {
            let connections: Vec<_> = (0..CONNECTIONS)
                .map(|connection| {
                    let barrier = &barrier;
                    scope.spawn(move || {
                        let sent: usize = (0..FRAMES).map(frame_len).sum();
                        let mut ops = op_stream(sent, 60 + connection as u64).into_iter();
                        let mut burst = String::new();
                        for frame in 0..FRAMES {
                            let chunk: Vec<Operation> =
                                ops.by_ref().take(frame_len(frame)).collect();
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
            connections
                .into_iter()
                .map(|c| c.join().expect("connection thread"))
                .sum::<u64>()
        });
        let mut client = Client::connect(addr).expect("connect");
        (
            sent,
            client.stats().expect("stats"),
            client.metrics().expect("metrics"),
        )
    });
    assert_eq!(stats.operations, sent);
    assert_eq!(run.operations, sent);
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
    assert_metrics_match_stats(&metrics, &stats);
}
