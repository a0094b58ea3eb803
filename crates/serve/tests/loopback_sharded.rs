//! End-to-end sharded loopback: a real 2-shard daemon on an ephemeral
//! port, a pipelined client streaming a regime shift over TCP, and
//! per-shard live reconfigurations observed through the wire protocol —
//! plus a lockstep-mode run where one decision stream reconfigures both
//! shards to the same configuration.

mod common;

use common::{assert_metrics_match_stats, serving, tiny_tuner};
use rafiki::ControllerConfig;
use rafiki_serve::{Client, ServeConfig, Server};
use rafiki_workload::{Operation, OperationSource, ReplaySource, WorkloadGenerator, WorkloadSpec};
use std::sync::mpsc;
use std::time::Duration;

const WINDOW_OPS: usize = 300;
const PRELOAD_KEYS: u64 = 10_000;
const SHARDS: usize = 2;
/// Ops per phase — enough that *each* shard closes multiple windows per
/// phase even at an uneven (but ring-balanced, so >25/75) key split.
const PHASE_OPS: usize = 8 * WINDOW_OPS;

fn serve_config(lockstep: bool) -> ServeConfig {
    ServeConfig {
        window_ops: WINDOW_OPS,
        krd_capacity: 1 << 14,
        // Switch on any predicted improvement: the test cares that
        // per-shard reconfiguration fires, not about switching policy.
        controller: ControllerConfig {
            min_predicted_gain: 0.0,
            ..ControllerConfig::default()
        },
        preload_keys: PRELOAD_KEYS,
        preload_payload: 200,
        shards: SHARDS,
        lockstep,
    }
}

fn server(lockstep: bool) -> Server {
    Server::bind(
        "127.0.0.1:0",
        tiny_tuner(PRELOAD_KEYS),
        serve_config(lockstep),
    )
    .expect("bind")
}

/// A hard read-heavy → write-heavy regime shift. Keys are drawn from
/// the same space in both phases, so both shards see the shift.
fn regime_shift_stream() -> Vec<Operation> {
    let spec = |rr: f64| WorkloadSpec {
        initial_keys: PRELOAD_KEYS,
        ..WorkloadSpec::with_read_ratio(rr)
    };
    let mut ops = Vec::with_capacity(2 * PHASE_OPS);
    let mut read_heavy = WorkloadGenerator::new(spec(0.95), 11);
    ops.extend((0..PHASE_OPS).map(|_| read_heavy.next_op()));
    let mut write_heavy = WorkloadGenerator::new(spec(0.05), 13);
    ops.extend((0..PHASE_OPS).map(|_| write_heavy.next_op()));
    ops
}

/// The whole scenario runs under a generous watchdog so a wedged socket
/// or a lost frame fails the test instead of hanging CI.
#[test]
fn sharded_loopback_regime_shift_retunes_every_shard() {
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        independent_scenario();
        tx.send(()).ok();
    });
    match rx.recv_timeout(Duration::from_secs(600)) {
        Ok(()) => {}
        Err(mpsc::RecvTimeoutError::Timeout) => panic!("sharded loopback timed out"),
        Err(mpsc::RecvTimeoutError::Disconnected) => panic!("sharded loopback panicked"),
    }
}

fn independent_scenario() {
    let ops = regime_shift_stream();
    let total_ops = ops.len() as u64;
    let (stats, run) = serving(&server(false), |addr| {
        let mut client = Client::connect(addr).expect("connect");
        let mut source = ReplaySource::new(ops.clone());
        let histogram = client
            .drive_pipelined(&mut source, ops.len(), 64, 4)
            .expect("drive");
        assert_eq!(histogram.total(), total_ops);

        let stats = client.stats().expect("stats");
        assert_eq!(stats.operations, total_ops);
        assert_eq!(stats.shards.len(), SHARDS);

        // Every shard did real, independent work across the shift:
        // multiple windows, at least one live reconfiguration each.
        for shard in &stats.shards {
            assert!(
                shard.windows_closed >= 2,
                "shard {} closed only {} windows",
                shard.shard,
                shard.windows_closed
            );
            assert!(
                shard.reconfigurations >= 1,
                "shard {} never reconfigured across the regime shift",
                shard.shard
            );
            assert!(shard.operations > 0);
            assert!(shard.latency.count == shard.operations);
        }

        // Per-shard rows sum exactly to the aggregate.
        assert_eq!(
            stats.shards.iter().map(|s| s.operations).sum::<u64>(),
            stats.operations
        );
        assert_eq!(
            stats.shards.iter().map(|s| s.windows_closed).sum::<u64>(),
            stats.windows_closed
        );
        assert_eq!(
            stats.shards.iter().map(|s| s.reconfigurations).sum::<u64>(),
            stats.reconfigurations
        );
        assert_eq!(
            stats.shards.iter().map(|s| s.latency.count).sum::<u64>(),
            stats.latency.count
        );
        assert_eq!(stats.latency.count, total_ops);

        // The `metrics` frame carries the same aggregate and per-shard truth.
        assert_metrics_match_stats(&client.metrics().expect("metrics"), &stats);

        // The audit trail: per-shard reconfig events plus the scale-out
        // cluster event recorded at bootstrap.
        let report = client.config().expect("config");
        assert_eq!(report.shards.len(), SHARDS);
        assert_eq!(report.events.len() as u64, stats.reconfigurations);
        for shard in 0..SHARDS as u64 {
            assert!(
                report.events.iter().any(|e| e.shard == shard),
                "no reconfiguration event for shard {shard}"
            );
        }
        for e in &report.events {
            assert!(!e.diff.is_empty(), "a switch with an empty diff");
        }
        let scale_out = report
            .cluster_events
            .iter()
            .find(|e| e.kind == "scale_out")
            .expect("scale-out event on the audit trail");
        assert_eq!(scale_out.shards, SHARDS as u64);
        assert!(
            scale_out.moved_fraction > 0.0 && scale_out.moved_fraction < 1.0,
            "scale-out moved fraction {} out of range",
            scale_out.moved_fraction
        );
        // Each shard's active config is the last one applied to it.
        for row in &report.shards {
            let last = report
                .events
                .iter()
                .rev()
                .find(|e| e.shard == row.shard)
                .expect("every shard reconfigured at least once");
            assert_eq!(row.active, last.to);
        }
        stats
    });
    assert_eq!(run.operations, total_ops);
    assert_eq!(run.windows_closed, stats.windows_closed);
    assert_eq!(run.reconfigurations, stats.reconfigurations);
}

/// Lockstep mode: one decision stream drives both shards, every switch
/// lands on both, and the cluster stays homogeneous.
#[test]
fn lockstep_cluster_reconfigures_all_shards_together() {
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        lockstep_scenario();
        tx.send(()).ok();
    });
    match rx.recv_timeout(Duration::from_secs(600)) {
        Ok(()) => {}
        Err(mpsc::RecvTimeoutError::Timeout) => panic!("lockstep loopback timed out"),
        Err(mpsc::RecvTimeoutError::Disconnected) => panic!("lockstep loopback panicked"),
    }
}

fn lockstep_scenario() {
    let ops = regime_shift_stream();
    serving(&server(true), |addr| {
        let mut client = Client::connect(addr).expect("connect");
        // Apply before answer: a lockstep switch decided while a frame
        // runs has reached every shard by the time that frame's reply
        // arrives, so a `config` frame after any reply shows one config.
        for (frame, chunk) in ops.chunks(64).enumerate() {
            client.batch(chunk).expect("batch");
            let shards = client.config().expect("config").shards;
            assert!(
                shards.iter().all(|s| s.active == shards[0].active),
                "shards disagree on their config after frame {frame}"
            );
        }

        let stats = client.stats().expect("stats");
        let report = client.config().expect("config");
        assert!(
            stats.reconfigurations >= 2,
            "lockstep run never switched (got {} reconfigurations)",
            stats.reconfigurations
        );
        // Homogeneous cluster: both shards run the same configuration.
        assert_eq!(report.shards.len(), SHARDS);
        assert_eq!(report.shards[0].active, report.shards[1].active);
        // Every shard was reconfigured (the lockstep fan-out reached
        // shards whose own windows did not trigger the decision).
        for shard in 0..SHARDS as u64 {
            assert!(
                report.events.iter().any(|e| e.shard == shard),
                "lockstep never reconfigured shard {shard}"
            );
        }
        // The fan-out itself is on the cluster audit trail.
        let lockstep = report
            .cluster_events
            .iter()
            .find(|e| e.kind == "lockstep_reconfigure")
            .expect("lockstep_reconfigure cluster event");
        assert_eq!(lockstep.shards, SHARDS as u64);
    });
}
