//! Loopback tests for the batched wire path: a batched run must be
//! indistinguishable from an unbatched one at the engine level, no
//! client-side latency sample may be lost to the per-connection merge
//! batching when a connection closes, and no frame may grow past
//! `MAX_FRAME_BYTES`.

mod common;

use common::{serving, tiny_tuner};
use rafiki::ControllerConfig;
use rafiki_serve::{Client, ServeConfig, Server, StatsReport, MAX_FRAME_BYTES};
use rafiki_workload::{
    Key, Operation, OperationSource, ReplaySource, WorkloadGenerator, WorkloadSpec,
};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

const WINDOW_OPS: usize = 300;
const PRELOAD_KEYS: u64 = 5_000;

fn serve_config() -> ServeConfig {
    ServeConfig {
        window_ops: WINDOW_OPS,
        krd_capacity: 1 << 14,
        controller: ControllerConfig {
            min_predicted_gain: 0.0,
            ..ControllerConfig::default()
        },
        preload_keys: PRELOAD_KEYS,
        preload_payload: 200,
        ..ServeConfig::default()
    }
}

fn server() -> Server {
    Server::bind("127.0.0.1:0", tiny_tuner(PRELOAD_KEYS), serve_config()).expect("bind")
}

/// Runs `ops` against a fresh daemon with the given frame size and
/// returns the final aggregate stats plus the client-side histogram
/// count.
fn run_stream(ops: &[Operation], batch: usize) -> (StatsReport, u64) {
    let server = server();
    serving(&server, |addr| {
        let mut client = Client::connect(addr).expect("connect");
        let mut source = ReplaySource::new(ops.to_vec());
        let histogram = client
            .drive_batched(&mut source, ops.len(), batch)
            .expect("drive");
        (client.stats().expect("stats"), histogram.total())
    })
    .0
}

/// The tentpole invariant: batching is a transport optimization only.
/// The same operation stream, framed 1-per-request or 256-per-request,
/// must leave the engine, the characterizer, the controller, and the
/// latency digest in byte-identical states.
#[test]
fn batched_and_unbatched_runs_produce_identical_engine_metrics() {
    let spec = |rr: f64| WorkloadSpec {
        initial_keys: PRELOAD_KEYS,
        ..WorkloadSpec::with_read_ratio(rr)
    };
    let mut ops: Vec<Operation> = Vec::new();
    let mut read_heavy = WorkloadGenerator::new(spec(0.9), 21);
    ops.extend((0..2 * WINDOW_OPS).map(|_| read_heavy.next_op()));
    let mut write_heavy = WorkloadGenerator::new(spec(0.1), 23);
    ops.extend((0..2 * WINDOW_OPS).map(|_| write_heavy.next_op()));

    let (unbatched, unbatched_count) = run_stream(&ops, 1);
    let (batched, batched_count) = run_stream(&ops, 256);

    assert_eq!(unbatched_count, ops.len() as u64);
    assert_eq!(batched_count, ops.len() as u64);
    assert_eq!(
        unbatched, batched,
        "batched and unbatched runs disagree on engine metrics"
    );
    // The run did something nontrivial: windows closed and the stream
    // shift was observed.
    assert_eq!(batched.operations, ops.len() as u64);
    assert_eq!(batched.windows_closed, 4);
    assert!(batched.reoptimizations >= 1);
}

/// Regression test for the merge-batch loss bug: per-client latency
/// samples are merged into the shared histogram in batches of 128, and
/// the residual (up to 127 samples) used to be dropped when a
/// connection closed without a final `stats` call.
#[test]
fn residual_latency_samples_survive_disconnect() {
    const RESIDUAL_OPS: usize = 5;
    let server = server();
    serving(&server, |addr| {
        {
            let mut client = Client::connect(addr).expect("connect");
            let mut gen = WorkloadGenerator::new(
                WorkloadSpec {
                    initial_keys: PRELOAD_KEYS,
                    ..WorkloadSpec::with_read_ratio(0.5)
                },
                31,
            );
            for _ in 0..RESIDUAL_OPS {
                client.op(gen.next_op()).expect("op");
            }
            // Dropped here with 5 samples still in the connection's
            // local merge batch.
        }

        // The flush happens when the daemon notices the disconnect, so
        // poll the aggregate histogram from a second connection.
        let mut observer = Client::connect(addr).expect("observer connect");
        let deadline = Instant::now() + Duration::from_secs(30);
        let count = loop {
            let count = observer.stats().expect("stats").latency.count;
            if count == RESIDUAL_OPS as u64 || Instant::now() > deadline {
                break count;
            }
            std::thread::sleep(Duration::from_millis(25));
        };
        assert_eq!(
            count, RESIDUAL_OPS as u64,
            "latency samples below the merge-batch size were lost at disconnect"
        );
    });
}

/// A connection's own `stats` call folds its not-yet-merged samples in
/// immediately — no second connection or disconnect required.
#[test]
fn stats_request_flushes_the_callers_merge_batch() {
    const OPS: usize = 3;
    let server = server();
    serving(&server, |addr| {
        let mut client = Client::connect(addr).expect("connect");
        let mut gen = WorkloadGenerator::new(
            WorkloadSpec {
                initial_keys: PRELOAD_KEYS,
                ..WorkloadSpec::with_read_ratio(0.5)
            },
            37,
        );
        for _ in 0..OPS {
            client.op(gen.next_op()).expect("op");
        }
        let stats = client.stats().expect("stats");
        assert_eq!(stats.latency.count, OPS as u64);
    });
}

/// A client that never sends a newline cannot grow the daemon's line
/// buffer without bound: one byte over `MAX_FRAME_BYTES` gets a single
/// in-band `error` frame and then EOF, a frame of exactly the cap is
/// still served, and other connections keep getting `batch` answers.
#[test]
fn oversized_frame_gets_an_error_and_the_connection_closes() {
    let server = server();
    serving(&server, |addr| {
        let raw = TcpStream::connect(addr).expect("raw connect");
        let mut reader = BufReader::new(raw.try_clone().expect("clone"));
        let mut writer = raw;
        writer
            .write_all(&vec![b'x'; MAX_FRAME_BYTES + 1])
            .expect("write oversized frame");
        let mut line = String::new();
        reader.read_line(&mut line).expect("error frame");
        assert!(line.starts_with("{\"type\":\"error\""), "got: {line}");
        line.clear();
        let n = reader.read_line(&mut line).expect("read after the error");
        assert_eq!(
            n, 0,
            "connection still open after an oversized frame: {line}"
        );

        // A frame of exactly the cap (padding the generic parser skips)
        // is answered normally.
        let raw = TcpStream::connect(addr).expect("second raw connect");
        let mut reader = BufReader::new(raw.try_clone().expect("clone"));
        let mut writer = raw;
        let mut stats = String::from("{\"type\":\"stats\"}");
        stats.push_str(&" ".repeat(MAX_FRAME_BYTES - stats.len()));
        stats.push('\n');
        writer
            .write_all(stats.as_bytes())
            .expect("write full-size frame");
        line.clear();
        reader.read_line(&mut line).expect("stats response");
        assert!(line.starts_with("{\"type\":\"stats\""), "got: {line}");

        let mut client = Client::connect(addr).expect("connect");
        let ops: Vec<Operation> = (0..64).map(|k| Operation::read(Key(k))).collect();
        let latencies = client.batch(&ops).expect("batch after an oversized frame");
        assert_eq!(latencies.len(), ops.len());
    });
}
