//! A blocking client for the daemon's wire protocol: one request frame
//! out, one response frame back. Doubles as the load generator for the
//! CLI (`rafiki client`) and the loopback tests.

use crate::protocol::{
    BatchResult, ConfigReport, MetricsReport, Request, Response, StatsReport, MAX_BATCH,
};
use crate::wire::Json;
use rafiki_stats::StreamingHistogram;
use rafiki_workload::{Operation, OperationSource};
use std::collections::VecDeque;
use std::io::{self, BufRead, BufReader, Write};
use std::net::{TcpStream, ToSocketAddrs};

/// Ops per frame used by [`Client::drive`] (large enough to amortize
/// framing and the server's per-frame lock, small enough to keep
/// latency-sample merges timely).
pub const DRIVE_BATCH: usize = 64;

/// Upper bound on the pipelining window of
/// [`Client::drive_pipelined`]. Bounded so a client can never buffer an
/// unbounded number of un-acknowledged frames (and so the server's
/// bounded burst drain keeps up).
pub const MAX_INFLIGHT: usize = 64;

/// A connection to a running [`crate::Server`].
#[derive(Debug)]
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    /// Reused inbound-frame buffer.
    line: String,
    /// Reused outbound-frame buffer.
    out: String,
}

impl Client {
    /// Connects to a daemon.
    ///
    /// # Errors
    ///
    /// Propagates socket errors.
    pub fn connect<A: ToSocketAddrs>(addr: A) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true).ok();
        Ok(Client {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
            line: String::new(),
            out: String::new(),
        })
    }

    /// Sends one request and reads its response frame.
    ///
    /// # Errors
    ///
    /// Fails on socket errors, an unparsable response, or a closed
    /// connection.
    pub fn call(&mut self, request: &Request) -> io::Result<Response> {
        // Frame + newline are staged in the reusable scratch buffer and
        // hit the socket as a single write.
        self.out.clear();
        request.to_json().encode_into(&mut self.out);
        self.out.push('\n');
        self.writer.write_all(self.out.as_bytes())?;
        self.line.clear();
        if self.reader.read_line(&mut self.line)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        let parsed = Json::parse(self.line.trim())
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        Response::from_json(&parsed).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
    }

    /// Executes one operation; returns its simulated latency in
    /// microseconds.
    ///
    /// # Errors
    ///
    /// Fails on transport errors or a server-side `error` frame.
    pub fn op(&mut self, op: Operation) -> io::Result<u64> {
        match self.call(&Request::Op(op))? {
            Response::Done { latency_us } => Ok(latency_us),
            Response::Error { message } => Err(io::Error::other(message)),
            other => Err(unexpected(&other)),
        }
    }

    /// Fetches the aggregate statistics report.
    ///
    /// # Errors
    ///
    /// Fails on transport errors or a server-side `error` frame.
    pub fn stats(&mut self) -> io::Result<StatsReport> {
        match self.call(&Request::Stats)? {
            Response::Stats(report) => Ok(report),
            Response::Error { message } => Err(io::Error::other(message)),
            other => Err(unexpected(&other)),
        }
    }

    /// Fetches the active configuration and reconfiguration history.
    ///
    /// # Errors
    ///
    /// Fails on transport errors or a server-side `error` frame.
    pub fn config(&mut self) -> io::Result<ConfigReport> {
        match self.call(&Request::Config)? {
            Response::Config(report) => Ok(report),
            Response::Error { message } => Err(io::Error::other(message)),
            other => Err(unexpected(&other)),
        }
    }

    /// Fetches the daemon's metric series (counters, gauges, histogram
    /// summaries, and the Prometheus text exposition).
    ///
    /// # Errors
    ///
    /// Fails on transport errors or a server-side `error` frame.
    pub fn metrics(&mut self) -> io::Result<MetricsReport> {
        match self.call(&Request::Metrics)? {
            Response::Metrics(report) => Ok(report),
            Response::Error { message } => Err(io::Error::other(message)),
            other => Err(unexpected(&other)),
        }
    }

    /// Asks the daemon to shut down; returns once it acknowledges.
    ///
    /// # Errors
    ///
    /// Fails on transport errors or an unexpected response.
    pub fn shutdown(&mut self) -> io::Result<()> {
        match self.call(&Request::Shutdown)? {
            Response::Bye => Ok(()),
            other => Err(unexpected(&other)),
        }
    }

    /// Executes a batch of operations in one frame; returns their
    /// simulated latencies in request order.
    ///
    /// # Errors
    ///
    /// Fails on transport errors, on a top-level `error` frame (e.g. a
    /// batch over [`MAX_BATCH`] ops), on a result-count mismatch, or on
    /// the first per-op error in the batch.
    ///
    /// # Panics
    ///
    /// Panics when `ops` exceeds [`MAX_BATCH`] — chunk first (as
    /// [`Client::drive_batched`] does).
    pub fn batch(&mut self, ops: &[Operation]) -> io::Result<Vec<u64>> {
        assert!(
            ops.len() <= MAX_BATCH,
            "batch of {} exceeds MAX_BATCH = {MAX_BATCH}",
            ops.len()
        );
        // Encode straight into the scratch buffer — no `Json` tree.
        self.out.clear();
        crate::protocol::encode_batch_into(ops, &mut self.out);
        self.out.push('\n');
        self.writer.write_all(self.out.as_bytes())?;
        self.line.clear();
        if self.reader.read_line(&mut self.line)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        let parsed = Json::parse(self.line.trim())
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        let response = Response::from_json(&parsed)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
        match response {
            Response::Batch(results) => {
                if results.len() != ops.len() {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!("sent {} ops, got {} results", ops.len(), results.len()),
                    ));
                }
                results
                    .into_iter()
                    .map(|r| match r {
                        BatchResult::Done { latency_us } => Ok(latency_us),
                        BatchResult::Error { message } => Err(io::Error::other(message)),
                    })
                    .collect()
            }
            Response::Error { message } => Err(io::Error::other(message)),
            other => Err(unexpected(&other)),
        }
    }

    /// Load-generator mode: pulls `ops` operations from `source`, executes
    /// them in order in batched frames of [`DRIVE_BATCH`], and returns the
    /// client-side latency histogram (merge-able into others via
    /// [`StreamingHistogram::merge`]).
    ///
    /// # Errors
    ///
    /// Fails on the first operation that errors.
    pub fn drive<S: OperationSource + ?Sized>(
        &mut self,
        source: &mut S,
        ops: usize,
    ) -> io::Result<StreamingHistogram> {
        self.drive_batched(source, ops, DRIVE_BATCH)
    }

    /// [`Client::drive`] with an explicit frame size. `batch <= 1` uses
    /// one single-op frame per operation (the unbatched wire path — the
    /// baseline the serve benchmark compares against); larger values
    /// chunk the stream into `batch`-op frames, capped at [`MAX_BATCH`].
    ///
    /// # Errors
    ///
    /// Fails on the first operation that errors.
    pub fn drive_batched<S: OperationSource + ?Sized>(
        &mut self,
        source: &mut S,
        ops: usize,
        batch: usize,
    ) -> io::Result<StreamingHistogram> {
        self.drive_pipelined(source, ops, batch, 1)
    }

    /// [`Client::drive_batched`] with a configurable pipelining window:
    /// up to `inflight` frames may be on the wire awaiting responses at
    /// once. `inflight = 1` is strict request/response — the exact wire
    /// sequence of [`Client::drive_batched`]; larger windows overlap the
    /// client's encode/send with the server's execution so neither side
    /// idles on the other's turnaround (the server drains bursts of
    /// buffered frames and answers them with one vectored write).
    /// `inflight` is clamped to `1..=`[`MAX_INFLIGHT`].
    ///
    /// Responses are matched to frames in order (the protocol has no
    /// frame IDs; the server answers each connection's frames strictly
    /// in order), so latencies land in the histogram in the same order
    /// as unpipelined driving.
    ///
    /// # Errors
    ///
    /// Fails on the first operation that errors.
    pub fn drive_pipelined<S: OperationSource + ?Sized>(
        &mut self,
        source: &mut S,
        ops: usize,
        batch: usize,
        inflight: usize,
    ) -> io::Result<StreamingHistogram> {
        let inflight = inflight.clamp(1, MAX_INFLIGHT);
        let batch = batch.min(MAX_BATCH);
        let mut histogram = StreamingHistogram::new();
        let mut chunk: Vec<Operation> = Vec::with_capacity(batch.max(1));
        // Sizes of frames sent but not yet answered, in send order.
        let mut pending: VecDeque<usize> = VecDeque::with_capacity(inflight);
        let mut remaining = ops;
        while remaining > 0 || !pending.is_empty() {
            if remaining > 0 && pending.len() < inflight {
                // Window open: encode and send the next frame.
                let n = if batch <= 1 { 1 } else { remaining.min(batch) };
                self.out.clear();
                if batch <= 1 {
                    Request::Op(source.next_op())
                        .to_json()
                        .encode_into(&mut self.out);
                } else {
                    chunk.clear();
                    chunk.extend((0..n).map(|_| source.next_op()));
                    crate::protocol::encode_batch_into(&chunk, &mut self.out);
                }
                self.out.push('\n');
                self.writer.write_all(self.out.as_bytes())?;
                pending.push_back(n);
                remaining -= n;
                continue;
            }
            // Window full (or stream exhausted): read the oldest frame's
            // response.
            let expect = pending.pop_front().expect("pending is non-empty");
            self.line.clear();
            if self.reader.read_line(&mut self.line)? == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "server closed the connection",
                ));
            }
            let parsed = Json::parse(self.line.trim())
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
            let response = Response::from_json(&parsed)
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
            match response {
                Response::Done { latency_us } if expect == 1 && batch <= 1 => {
                    histogram.record(latency_us);
                }
                Response::Batch(results) if batch > 1 => {
                    if results.len() != expect {
                        return Err(io::Error::new(
                            io::ErrorKind::InvalidData,
                            format!("sent {expect} ops, got {} results", results.len()),
                        ));
                    }
                    for result in results {
                        match result {
                            BatchResult::Done { latency_us } => histogram.record(latency_us),
                            BatchResult::Error { message } => {
                                return Err(io::Error::other(message))
                            }
                        }
                    }
                }
                Response::Error { message } => return Err(io::Error::other(message)),
                other => return Err(unexpected(&other)),
            }
        }
        Ok(histogram)
    }
}

fn unexpected(response: &Response) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidData,
        format!("unexpected response: {response:?}"),
    )
}
