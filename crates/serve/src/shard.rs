//! Per-shard state: each shard owns one [`Engine`], one
//! [`OnlineCharacterizer`], its latency histograms and its event counts.
//! The server holds the shards as `Vec<Mutex<Shard>>`, and the
//! connection thread that read a frame runs that frame's slice for each
//! shard itself, under the shard's mutex — an op never changes threads
//! between its socket read and its reply.
//!
//! # Per-shard quiescence
//!
//! A shard's engine is touched only while its mutex is held, and every
//! op is stepped to completion before the mutex is released, so the
//! engine is quiescent whenever the lock is free. Characterization
//! windows close between ops, under the lock, and [`Engine::reconfigure`]
//! — whether triggered by the shard's own window or by a lockstep
//! decision taken on a peer's window — therefore always runs on a
//! quiescent engine. A panic mid-op poisons the mutex, and a poisoned
//! shard is never served from again: its engine may be half-stepped.
//!
//! # Lock order
//!
//! No thread ever holds two shard locks. When a window close decides
//! applies for peer shards, they go into the deciding shard's outbox;
//! [`Shard::run_slice`] hands them to the connection thread, which
//! applies each under its target's lock after releasing the deciding
//! shard's lock and before answering the frame. The cluster mutexes in
//! [`ClusterShared`] are taken under a shard lock or under none, never
//! the reverse: the order is shard → controller / log / last_window /
//! decide_us.

use crate::protocol::{
    BatchResult, ClusterEvent, ConfigSummary, ParamChange, ReconfigEvent, WindowActivity,
};
use crate::server::ServeConfig;
use rafiki::{ClusterController, TuningMode};
use rafiki_engine::{
    Engine, EngineConfig, EngineMetrics, HashRing, OpCompletion, ServerSpec, SimTime,
};
use rafiki_obs as obs;
use rafiki_obs::Value;
use rafiki_stats::StreamingHistogram;
use rafiki_workload::{OnlineCharacterizer, Operation, WindowSummary};
use std::sync::{Mutex, MutexGuard};
use std::time::Instant;

/// A reconfiguration decided on one shard's window close for the shard
/// named in `shard` (the deciding shard itself, or a lockstep peer).
pub(crate) struct Apply {
    pub shard: usize,
    cfg: EngineConfig,
    window: u64,
    read_ratio: f64,
    predicted_throughput: f64,
}

/// A point-in-time copy of one shard's observable state, taken under the
/// shard's lock for the `stats`/`config`/`metrics` frames. Carries
/// the *sufficient statistics* (`reads`, `distance_sum`,
/// `distance_count`) so aggregates merge exactly, not approximately.
#[derive(Debug, Clone)]
pub(crate) struct ShardSnapshot {
    pub shard: usize,
    pub operations: u64,
    pub reads: u64,
    pub read_ratio: f64,
    pub krd_mean: Option<f64>,
    pub distance_sum: f64,
    pub distance_count: u64,
    pub windows_closed: u64,
    pub reoptimizations: u64,
    pub reconfigurations: u64,
    pub controller_errors: u64,
    pub histogram: StreamingHistogram,
    pub last_window: WindowActivity,
    /// The read ratio of the last window this shard closed (0 before any).
    pub last_read_ratio: f64,
    pub active: ConfigSummary,
}

/// The reconfiguration audit trail, shared by every shard.
#[derive(Default)]
pub(crate) struct EventLog {
    /// Per-shard engine reconfigurations, in apply order.
    pub events: Vec<ReconfigEvent>,
    /// Cluster-topology events (scale-out, lockstep reconfigure).
    pub cluster: Vec<ClusterEvent>,
}

/// Everything the shards share. The mutexes here are *off* the op hot
/// path, and each is taken under at most one shard lock, never the
/// other way round: the controller lock is taken once per closed window
/// and held for a policy lookup and two surrogate predictions
/// (microseconds — no search runs under it), the log and last-window
/// locks once per window close or reconfigure.
pub(crate) struct ClusterShared<'t> {
    pub controller: Mutex<ClusterController<'t>>,
    pub log: Mutex<EventLog>,
    /// The most recently closed window's activity and read ratio, across
    /// all shards (the aggregate `last_window` in `stats` frames and
    /// `serve_read_ratio` in `metrics` frames).
    pub last_window: Mutex<(WindowActivity, f64)>,
    /// Wall time of each window close's decision: waiting for the
    /// controller lock plus deciding under it (`serve_decide_us`). One
    /// histogram for the cluster, like the lock it times.
    pub decide_us: Mutex<StreamingHistogram>,
}

/// Locks a cluster mutex, recovering from poisoning (a panic on one
/// connection must not take the whole daemon down). Shard mutexes are
/// never locked through this: see the module docs.
pub(crate) fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// One shard: an engine preloaded with exactly the keys the hash ring
/// assigns to it, plus the characterization/tuning state scoped to it.
pub(crate) struct Shard<'t, 'c> {
    shard: usize,
    engine: Engine,
    characterizer: OnlineCharacterizer,
    /// Lifetime latencies of every op this shard executed.
    histogram: StreamingHistogram,
    /// Latencies of the window currently filling; reset at each close.
    window_histogram: StreamingHistogram,
    window_start_metrics: EngineMetrics,
    window_start_clock: SimTime,
    last_window: WindowActivity,
    windows_closed: u64,
    reoptimizations: u64,
    reconfigurations: u64,
    controller_errors: u64,
    /// The read ratio of the last window this shard closed.
    last_read_ratio: f64,
    next_token: u64,
    completions: Vec<OpCompletion>,
    /// Lockstep applies this shard's window closes decided for peers,
    /// not yet handed to the connection thread.
    outbox: Vec<Apply>,
    shared: &'c ClusterShared<'t>,
}

impl<'t, 'c> Shard<'t, 'c> {
    /// Builds the shard: a fresh engine on the controller's starting
    /// configuration, preloaded with the keys `ring` routes here.
    pub(crate) fn new(
        shard: usize,
        ring: &HashRing,
        cfg: &ServeConfig,
        shared: &'c ClusterShared<'t>,
    ) -> Self {
        let initial = lock(&shared.controller).active_config(shard).clone();
        let mut engine = Engine::new(initial, ServerSpec::default());
        if cfg.preload_keys > 0 {
            engine.preload_filtered(cfg.preload_keys, cfg.preload_payload, |k| {
                ring.shard_of(k) == shard
            });
        }
        let window_start_metrics = *engine.metrics();
        let window_start_clock = engine.clock();
        Shard {
            shard,
            engine,
            characterizer: OnlineCharacterizer::new(cfg.window_ops, cfg.krd_capacity),
            histogram: StreamingHistogram::new(),
            window_histogram: StreamingHistogram::new(),
            window_start_metrics,
            window_start_clock,
            last_window: WindowActivity::default(),
            windows_closed: 0,
            reoptimizations: 0,
            reconfigurations: 0,
            controller_errors: 0,
            last_read_ratio: 0.0,
            next_token: 0,
            completions: Vec::new(),
            outbox: Vec::new(),
            shared,
        }
    }

    /// Runs one frame's slice for this shard: each `(frame index, op)`
    /// is stepped to completion in order and its latency written to
    /// `results` at that index. Leaves `slice` empty for reuse, and moves
    /// the applies the slice's window closes decided for peers into
    /// `applies`, for the caller to run once this shard is unlocked.
    pub(crate) fn run_slice(
        &mut self,
        slice: &mut Vec<(usize, Operation)>,
        results: &mut [BatchResult],
        applies: &mut Vec<Apply>,
    ) {
        for (index, op) in slice.drain(..) {
            results[index] = BatchResult::Done {
                latency_us: self.execute_op(op),
            };
        }
        applies.append(&mut self.outbox);
    }

    /// Runs one operation on the simulated clock to completion, feeds
    /// it to the characterizer, and closes the window when it fills.
    fn execute_op(&mut self, op: Operation) -> u64 {
        let token = self.next_token;
        self.next_token += 1;
        let ready = self.engine.clock();
        self.engine.submit(token, op, ready);
        self.completions.clear();
        let latency_us = 'done: loop {
            let stepped = self.engine.step_into(&mut self.completions);
            debug_assert!(stepped, "a submitted operation always completes");
            if !stepped {
                break 0;
            }
            for c in self.completions.drain(..) {
                if c.token == token {
                    break 'done c.latency().0 / 1_000;
                }
            }
        };
        self.histogram.record(latency_us);
        self.window_histogram.record(latency_us);
        if let Some(summary) = self.characterizer.observe(&op) {
            self.close_window(summary);
        }
        latency_us
    }

    fn close_window(&mut self, window: WindowSummary) {
        self.windows_closed += 1;
        self.last_read_ratio = window.read_ratio;
        let snapshot = *self.engine.metrics();
        let delta = snapshot.delta(&self.window_start_metrics);
        self.window_start_metrics = snapshot;
        self.last_window = WindowActivity {
            reads_completed: delta.reads_completed,
            writes_completed: delta.writes_completed,
            flushes: delta.flushes,
            compactions: delta.compactions,
            p50_us: self.window_histogram.quantile(0.5).unwrap_or(0),
            p99_us: self.window_histogram.quantile(0.99).unwrap_or(0),
        };
        *lock(&self.shared.last_window) = (self.last_window, window.read_ratio);
        self.window_histogram = StreamingHistogram::new();
        // Observed throughput over the window on the simulated clock.
        let now = self.engine.clock();
        let elapsed_s = now.0.saturating_sub(self.window_start_clock.0) as f64 / 1e9;
        let window_ops = delta.reads_completed + delta.writes_completed;
        let observed_throughput = if elapsed_s > 0.0 {
            window_ops as f64 / elapsed_s
        } else {
            0.0
        };
        self.window_start_clock = now;
        if obs::enabled(obs::Level::Info) {
            obs::event(
                "serve",
                "window_close",
                obs::Level::Info,
                vec![
                    ("shard", Value::U64(self.shard as u64)),
                    ("window", Value::U64(window.index as u64)),
                    ("read_ratio", Value::F64(window.read_ratio)),
                    ("ops", Value::U64(window_ops)),
                    ("observed_throughput", Value::F64(observed_throughput)),
                    ("p50_us", Value::U64(self.last_window.p50_us)),
                    ("p99_us", Value::U64(self.last_window.p99_us)),
                    ("flushes", Value::U64(delta.flushes)),
                    ("compactions", Value::U64(delta.compactions)),
                ],
            );
        }
        // One controller-lock acquisition per closed window; released
        // before any engine reconfiguration is applied.
        let asked = Instant::now();
        let (outcome, mode) = {
            let mut controller = lock(&self.shared.controller);
            (
                controller.observe_window(self.shard, window.index, window.read_ratio),
                controller.mode(),
            )
        };
        lock(&self.shared.decide_us).record(asked.elapsed().as_micros() as u64);
        let decision = match outcome {
            Ok(decision) => decision,
            // The tuner was checked at construction, so this should not
            // happen; if it does, the window stays closed and counted
            // and the shard keeps serving on its current configuration.
            Err(e) => {
                self.controller_errors += 1;
                obs::event(
                    "serve",
                    "controller_error",
                    obs::Level::Error,
                    vec![
                        ("shard", Value::U64(self.shard as u64)),
                        ("window", Value::U64(window.index as u64)),
                        ("error", Value::str(e.to_string())),
                    ],
                );
                return;
            }
        };
        if decision.decision.reoptimized {
            self.reoptimizations += 1;
        }
        if mode == TuningMode::Lockstep && decision.apply.len() > 1 {
            let mut log = lock(&self.shared.log);
            log.cluster.push(ClusterEvent {
                kind: "lockstep_reconfigure".to_string(),
                window: window.index as u64,
                shards: decision.apply.len() as u64,
                moved_fraction: 0.0,
                detail: format!(
                    "shard {} window {} reconfigured all {} shards in lockstep",
                    self.shard,
                    window.index,
                    decision.apply.len()
                ),
            });
        }
        for (target, cfg) in decision.apply {
            let apply = Apply {
                shard: target,
                cfg,
                window: window.index as u64,
                read_ratio: window.read_ratio,
                predicted_throughput: decision.decision.predicted_throughput,
            };
            if target == self.shard {
                self.apply(apply);
            } else {
                // Taking the peer's lock here would hold two shard locks.
                self.outbox.push(apply);
            }
        }
    }

    /// Reconfigures this shard's engine (called under its lock, between
    /// ops, hence quiescent) and records the audit event.
    pub(crate) fn apply(&mut self, apply: Apply) {
        debug_assert_eq!(apply.shard, self.shard, "apply routed to the wrong shard");
        let Apply {
            cfg,
            window,
            read_ratio,
            predicted_throughput,
            ..
        } = apply;
        if *self.engine.config() == cfg {
            // A lockstep follower may already run the target config
            // (e.g. it joined after an earlier identical decision).
            return;
        }
        let outcome = self.engine.reconfigure(cfg);
        self.reconfigurations += 1;
        lock(&self.shared.log).events.push(ReconfigEvent {
            shard: self.shard as u64,
            window,
            read_ratio,
            predicted_throughput,
            to: ConfigSummary::from(self.engine.config()),
            diff: outcome
                .changed
                .iter()
                .map(|c| ParamChange {
                    param: c.name.to_string(),
                    from: c.from,
                    to: c.to,
                })
                .collect(),
            apply_us: outcome.apply_us,
        });
    }

    pub(crate) fn snapshot(&self) -> ShardSnapshot {
        ShardSnapshot {
            shard: self.shard,
            operations: self.characterizer.operations(),
            reads: self.characterizer.reads(),
            read_ratio: self.characterizer.read_ratio(),
            krd_mean: self.characterizer.krd_mean(),
            distance_sum: self.characterizer.distance_sum(),
            distance_count: self.characterizer.distances_observed(),
            windows_closed: self.windows_closed,
            reoptimizations: self.reoptimizations,
            reconfigurations: self.reconfigurations,
            controller_errors: self.controller_errors,
            histogram: self.histogram.clone(),
            last_window: self.last_window,
            last_read_ratio: self.last_read_ratio,
            active: ConfigSummary::from(self.engine.config()),
        }
    }
}
