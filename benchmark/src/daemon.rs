//! An in-process `rafiki-serve` daemon on an ephemeral loopback port, and
//! the benchmark's own stepwise client for traced frames.

use crate::spans::Tracer;
use rafiki::RafikiTuner;
use rafiki_serve::protocol::encode_batch_into;
use rafiki_serve::{BatchResult, Client, Json, Response, ServeConfig, ServeReport, Server};
use rafiki_workload::Operation;
use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::thread::JoinHandle;

/// A daemon running on its own thread.
pub struct Daemon {
    addr: SocketAddr,
    handle: JoinHandle<io::Result<ServeReport>>,
}

impl Daemon {
    /// Binds `127.0.0.1:0` and starts serving.
    pub fn start(tuner: RafikiTuner, cfg: ServeConfig) -> Daemon {
        let server = Arc::new(Server::bind("127.0.0.1:0", tuner, cfg).expect("bind loopback"));
        let addr = server.local_addr().expect("bound address");
        let handle = std::thread::spawn(move || server.run());
        Daemon { addr, handle }
    }

    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Sends `shutdown`, waits for the daemon thread, and returns its
    /// lifetime report.
    pub fn shutdown(self) -> ServeReport {
        Client::connect(self.addr)
            .and_then(|mut c| c.shutdown())
            .expect("daemon acknowledges shutdown");
        self.handle
            .join()
            .expect("daemon thread does not panic")
            .expect("daemon run succeeds")
    }
}

/// Closed-loop frame sender; both variants wait for each reply before
/// sending the next frame.
pub enum FrameClient {
    /// `Client::batch`, untouched — what every untraced run uses.
    Plain(Client),
    /// The same wire sequence through the same public codec functions,
    /// taken apart so spans fit between the steps.
    Stepwise(Stepwise),
}

impl FrameClient {
    pub fn connect(addr: SocketAddr, stepwise: bool) -> io::Result<FrameClient> {
        if stepwise {
            let stream = TcpStream::connect(addr)?;
            stream.set_nodelay(true).ok();
            Ok(FrameClient::Stepwise(Stepwise {
                reader: BufReader::new(stream.try_clone()?),
                writer: stream,
                out: String::new(),
                line: String::new(),
            }))
        } else {
            Client::connect(addr).map(FrameClient::Plain)
        }
    }

    /// One frame, send to parsed reply. An error fails the whole frame.
    pub fn batch(&mut self, ops: &[Operation], tracer: &mut Tracer, id: u64) -> io::Result<()> {
        match self {
            FrameClient::Plain(client) => client.batch(ops).map(drop),
            FrameClient::Stepwise(client) => client.batch(ops, tracer, id),
        }
    }
}

pub struct Stepwise {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    out: String,
    line: String,
}

impl Stepwise {
    fn batch(&mut self, ops: &[Operation], tracer: &mut Tracer, id: u64) -> io::Result<()> {
        let invalid = |e: String| io::Error::new(io::ErrorKind::InvalidData, e);
        let span = tracer.open("encode_req", id);
        self.out.clear();
        encode_batch_into(ops, &mut self.out);
        self.out.push('\n');
        tracer.close(span);

        let span = tracer.open("wire_wait", id);
        self.writer.write_all(self.out.as_bytes())?;
        self.line.clear();
        let read = self.reader.read_line(&mut self.line)?;
        tracer.close(span);
        if read == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }

        let span = tracer.open("decode_resp", id);
        let response = Json::parse(self.line.trim())
            .map_err(|e| invalid(e.to_string()))
            .and_then(|json| Response::from_json(&json).map_err(invalid));
        tracer.close(span);
        match response? {
            Response::Batch(results) if results.len() == ops.len() => {
                match results.into_iter().find_map(|r| match r {
                    BatchResult::Error { message } => Some(message),
                    BatchResult::Done { .. } => None,
                }) {
                    Some(message) => Err(io::Error::other(message)),
                    None => Ok(()),
                }
            }
            other => Err(invalid(format!("unexpected response: {other:?}"))),
        }
    }
}
