//! Blocking clients for the serve protocol, used by `srra query`, the
//! cluster router and the integration tests.
//!
//! [`Connection`] is the client: it keeps one `TcpStream` (with
//! `TCP_NODELAY`) alive across any number of requests, prepares each request
//! (a JSON line plus its trailing `\n`, or one binary frame) in a reused
//! scratch buffer and sends it with a single `write_all`, and supports
//! *pipelining* — write N requests back-to-back, then read the N replies in
//! order.  Every typed op is one preparation step (the op's one field
//! writer, shared with [`Request`]'s own encoding, run by the connection's
//! codec) plus one narrowing step from [`Response`] to the op's reply type.  [`Client`] is
//! only an address handle: it opens connections and carries the one
//! naturally one-shot op, `shutdown`.
//!
//! A keep-alive socket can go stale while idle — the server restarted, or a
//! middlebox dropped the connection — surfacing as broken-pipe / ECONNRESET
//! on the next write or an immediate EOF on the next read.  The single
//! request/response methods transparently reconnect and retry **once** in
//! that case (safe: a stale failure means no reply byte arrived, and every
//! protocol op except `shutdown` is idempotent — `shutdown` alone is never
//! retried, since a replay could stop a server restarted between the
//! attempts); [`Connection::pipeline`] retries only when the failure
//! precedes its first reply byte and the window carries no `shutdown`, so
//! replies are never replayed or lost.

use std::io::{BufRead, BufReader, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

use srra_explore::codec::{BinWriter, JsonWriter, WireError};
use srra_explore::PointRecord;
use srra_obs::{Counter, MetricsSnapshot, Registry, SeriesSample, SnapshotDelta, Span};

use crate::binary::{decode_payload, frame_into, read_frame, FrameError};
use crate::protocol::{
    stamp_trace, trace_suffix, valid_trace_id, write_get, write_mget, write_points, write_put, Op,
    PointOutcome, QueryPoint, Request, Response, ServerStats, ShardDigest,
};

/// Lifts a codec failure into the client error space.
fn wire_err(err: WireError) -> ClientError {
    match err {
        WireError::Io(err) => ClientError::Io(err),
        WireError::Corrupt(message) => ClientError::Protocol(message),
    }
}

/// Handles into [`Registry::global`] for the client-side instruments,
/// resolved once — recording on the reconnect paths is handle-direct.
struct ConnectionMetrics {
    connects: Arc<Counter>,
    reconnect_retries: Arc<Counter>,
}

fn connection_metrics() -> &'static ConnectionMetrics {
    static METRICS: OnceLock<ConnectionMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let registry = Registry::global();
        ConnectionMetrics {
            connects: registry.counter("client_connects_total"),
            reconnect_retries: registry.counter("client_reconnect_retries_total"),
        }
    })
}

/// Errors of the query client.
#[derive(Debug)]
pub enum ClientError {
    /// Socket-level failure.
    Io(std::io::Error),
    /// The response line could not be decoded.
    Protocol(String),
    /// The server answered with an error response.
    Server(String),
    /// The caller passed an unusable argument; nothing was sent.
    Invalid(String),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(err) => write!(f, "query I/O error: {err}"),
            ClientError::Protocol(message) => write!(f, "malformed server response: {message}"),
            ClientError::Server(message) => write!(f, "server error: {message}"),
            ClientError::Invalid(message) => write!(f, "{message}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(err: std::io::Error) -> Self {
        ClientError::Io(err)
    }
}

/// The records and cache statistics of one `explore` request.
#[derive(Debug, Clone, PartialEq)]
pub struct ExploreReply {
    /// One record per requested point, in request order.
    pub records: Vec<PointRecord>,
    /// Points answered from the shards.
    pub hits: u64,
    /// Points evaluated on demand.
    pub evaluated: u64,
}

/// The per-point outcomes and cache statistics of one `mexplore` request.
#[derive(Debug, Clone, PartialEq)]
pub struct MultiExploreReply {
    /// One outcome per requested point, in request order.
    pub outcomes: Vec<PointOutcome>,
    /// Points answered from the shards.
    pub hits: u64,
    /// Points evaluated on demand.
    pub evaluated: u64,
}

/// A persistent keep-alive connection to one server.
///
/// One `TcpStream` carries any number of request/response pairs; the server
/// answers in strict request order.  All methods take `&mut self` — a
/// connection is a sequential conversation, callers wanting parallelism open
/// several connections.
#[derive(Debug)]
pub struct Connection {
    /// The `host:port` this connection targets, kept for transparent
    /// reconnects after the socket goes stale.
    addr: String,
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    /// Whether this connection speaks the binary frame codec instead of
    /// JSON lines (chosen at connect time; the server negotiates per frame).
    binary: bool,
    /// Scratch buffer for rendering outgoing request lines.
    scratch: String,
    /// Scratch buffer for incoming response lines.
    line: String,
    /// Scratch buffer for outgoing binary frames.
    frame: Vec<u8>,
    /// Scratch buffer for incoming binary frame payloads.
    payload: Vec<u8>,
    /// Trace id stamped onto every outgoing request line, when set.
    trace: Option<String>,
    /// Trace id echoed on the most recently received reply, if any.
    last_trace: Option<String>,
    /// I/O deadline applied to connects, reads and writes; `None` blocks
    /// indefinitely (the pre-deadline behaviour).
    timeout: Option<Duration>,
}

/// Whether `err` says the keep-alive socket went stale while idle (server
/// restart, middlebox drop) — the failures a reconnect-and-retry can heal.
fn is_stale(err: &ClientError) -> bool {
    matches!(err, ClientError::Io(io) if matches!(
        io.kind(),
        std::io::ErrorKind::BrokenPipe
            | std::io::ErrorKind::ConnectionReset
            | std::io::ErrorKind::ConnectionAborted
            | std::io::ErrorKind::UnexpectedEof
            | std::io::ErrorKind::NotConnected
    ))
}

/// Opens the `TCP_NODELAY` stream pair for `addr`.  With a `timeout`, the
/// connect and every subsequent read and write carry that deadline — a hung,
/// partitioned or stalled server surfaces as a `TimedOut`/`WouldBlock` I/O
/// error instead of blocking the caller forever.
fn open_stream(
    addr: &str,
    timeout: Option<Duration>,
) -> Result<(BufReader<TcpStream>, TcpStream), ClientError> {
    let mut addrs = addr.to_socket_addrs()?;
    let addr = addrs
        .next()
        .ok_or_else(|| ClientError::Protocol(format!("unresolvable address `{addr}`")))?;
    let stream = match timeout {
        None => TcpStream::connect(addr)?,
        Some(deadline) => TcpStream::connect_timeout(&addr, deadline)?,
    };
    stream.set_read_timeout(timeout)?;
    stream.set_write_timeout(timeout)?;
    stream.set_nodelay(true)?;
    let writer = stream.try_clone()?;
    connection_metrics().connects.inc();
    Ok((BufReader::new(stream), writer))
}

impl Connection {
    /// Connects to the server at `addr` (`host:port`) and disables Nagle's
    /// algorithm, so single-line requests leave immediately.
    ///
    /// # Errors
    ///
    /// Connection failures and unresolvable addresses.
    pub fn connect(addr: &str) -> Result<Self, ClientError> {
        Self::dial(addr, false, None)
    }

    /// Like [`connect`](Connection::connect), but the connection speaks the
    /// length-prefixed binary codec (`docs/serving.md`) instead of JSON
    /// lines — same protocol, same server port, no text parse on either
    /// side's hot path.
    ///
    /// # Errors
    ///
    /// Connection failures and unresolvable addresses.
    pub fn connect_binary(addr: &str) -> Result<Self, ClientError> {
        Self::dial(addr, true, None)
    }

    /// Connects to `addr` speaking the binary codec when `binary` is set
    /// (JSON lines otherwise), with an I/O deadline: the connect, every read
    /// and every write time out after `timeout`, so a hung or partitioned
    /// server costs at most the deadline instead of blocking forever.
    /// `None` disables the deadline.
    ///
    /// # Errors
    ///
    /// Connection failures (including a connect timeout) and unresolvable
    /// addresses.
    pub fn dial(addr: &str, binary: bool, timeout: Option<Duration>) -> Result<Self, ClientError> {
        let (reader, writer) = open_stream(addr, timeout)?;
        Ok(Self {
            addr: addr.to_owned(),
            reader,
            writer,
            binary,
            scratch: String::with_capacity(256),
            line: String::with_capacity(256),
            frame: Vec::with_capacity(256),
            payload: Vec::with_capacity(256),
            trace: None,
            last_trace: None,
            timeout,
        })
    }

    /// The I/O deadline this connection applies to connects, reads and
    /// writes, if any.
    pub fn timeout(&self) -> Option<Duration> {
        self.timeout
    }

    /// The `host:port` this connection targets.
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// Whether this connection speaks the binary frame codec.
    pub fn is_binary(&self) -> bool {
        self.binary
    }

    /// Sets (or clears, with `None`) the trace id stamped onto every
    /// outgoing request line from now on.  The server echoes the id on each
    /// reply — readable afterwards via [`last_trace`](Connection::last_trace)
    /// — and attributes its slow-query log lines to it.
    ///
    /// # Errors
    ///
    /// Rejects ids that are empty, longer than
    /// [`TRACE_MAX_LEN`](crate::protocol::TRACE_MAX_LEN) bytes, or contain
    /// characters outside `[A-Za-z0-9._-]`.
    pub fn set_trace(&mut self, trace: Option<&str>) -> Result<(), ClientError> {
        match trace {
            Some(id) if !valid_trace_id(id) => Err(ClientError::Invalid(format!(
                "invalid trace id `{id}`: want 1-64 bytes of [A-Za-z0-9._-]"
            ))),
            Some(id) => {
                self.trace = Some(id.to_owned());
                Ok(())
            }
            None => {
                self.trace = None;
                Ok(())
            }
        }
    }

    /// The trace id currently stamped onto outgoing requests, if any.
    pub fn trace(&self) -> Option<&str> {
        self.trace.as_deref()
    }

    /// The trace id the server echoed on the most recent reply, if any.
    pub fn last_trace(&self) -> Option<&str> {
        self.last_trace.as_deref()
    }

    /// Replaces the stale socket with a fresh one to the same address.  The
    /// scratch buffers (and whatever request line `scratch` holds) survive,
    /// so a failed call can be replayed byte-identically.
    fn reconnect(&mut self) -> Result<(), ClientError> {
        let (reader, writer) = open_stream(&self.addr, self.timeout)?;
        self.reader = reader;
        self.writer = writer;
        Ok(())
    }

    /// Writes one request (a terminated line, or one binary frame) with a
    /// single `write_all`, without waiting for the reply.
    ///
    /// Pair each `send` with a later [`receive`](Connection::receive): the
    /// server replies in request order.
    ///
    /// # Errors
    ///
    /// Socket-level failures.
    pub fn send(&mut self, request: &Request) -> Result<(), ClientError> {
        self.prepare(|w| request.encode(w), |w| request.encode(w))?;
        Ok(self.write_prepared()?)
    }

    /// Empties both codecs' outgoing scratch buffers.
    fn clear_prepared(&mut self) {
        self.scratch.clear();
        self.frame.clear();
    }

    /// Appends one request to the active codec's scratch buffer, written by
    /// `json` or `binary` — the same field writer, once per codec.  JSON
    /// requests are stamped with the connection's trace id (when set) and
    /// terminated with `\n`; binary requests are framed with the trace id in
    /// the frame header.
    fn append(
        &mut self,
        json: impl FnOnce(&mut JsonWriter<'_>) -> Result<(), WireError>,
        binary: impl FnOnce(&mut BinWriter<'_, Vec<u8>>) -> Result<(), WireError>,
    ) -> Result<(), ClientError> {
        if self.binary {
            return frame_into(&mut self.frame, self.trace.as_deref(), |out| {
                binary(&mut BinWriter(out))
            })
            .map_err(wire_err);
        }
        JsonWriter::object(&mut self.scratch, json);
        if let Some(trace) = &self.trace {
            stamp_trace(&mut self.scratch, trace);
        }
        self.scratch.push('\n');
        Ok(())
    }

    /// Prepares exactly one request in the active codec's scratch buffer.
    fn prepare(
        &mut self,
        json: impl FnOnce(&mut JsonWriter<'_>) -> Result<(), WireError>,
        binary: impl FnOnce(&mut BinWriter<'_, Vec<u8>>) -> Result<(), WireError>,
    ) -> Result<(), ClientError> {
        self.clear_prepared();
        self.append(json, binary)
    }

    /// Prepares `request` and narrows its reply (see
    /// [`reply`](Connection::reply)).
    fn call<T>(
        &mut self,
        request: &Request,
        pick: impl FnOnce(Response) -> Result<T, Box<Response>>,
    ) -> Result<T, ClientError> {
        self.prepare(|w| request.encode(w), |w| request.encode(w))?;
        self.reply(request.op(), pick)
    }

    /// Round-trips the prepared request of `op` (replayed once on a stale
    /// socket, unless `op` is `shutdown`) and narrows the reply to the shape
    /// `op` expects: `pick` returns the typed value or hands an unexpected
    /// response back (boxed: replies are large, and this is the cold path).
    /// A server error reply becomes [`ClientError::Server`]; any other shape
    /// is a protocol violation.
    fn reply<T>(
        &mut self,
        op: Op,
        pick: impl FnOnce(Response) -> Result<T, Box<Response>>,
    ) -> Result<T, ClientError> {
        let response = self.roundtrip_prepared(op != Op::Shutdown)?;
        match pick(response).map_err(|unexpected| *unexpected) {
            Ok(value) => Ok(value),
            Err(Response::Error { message }) => Err(ClientError::Server(message)),
            Err(other) => Err(ClientError::Protocol(format!(
                "unexpected response to {}: {other:?}",
                op.name()
            ))),
        }
    }

    /// Writes the prepared request bytes with one `write_all`.
    fn write_prepared(&mut self) -> std::io::Result<()> {
        if self.binary {
            self.writer.write_all(&self.frame)
        } else {
            self.writer.write_all(self.scratch.as_bytes())
        }
    }

    /// Reads and decodes the next response (line or binary frame, matching
    /// this connection's codec).
    ///
    /// # Errors
    ///
    /// Socket-level failures ([`std::io::ErrorKind::UnexpectedEof`] when the
    /// connection closes before the reply) and malformed responses.
    pub fn receive(&mut self) -> Result<Response, ClientError> {
        if self.binary {
            return self.receive_frame();
        }
        self.line.clear();
        self.reader.read_line(&mut self.line)?;
        if self.line.is_empty() {
            return Err(ClientError::Io(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server closed the connection without answering",
            )));
        }
        self.line.truncate(self.line.trim_end().len());
        // The parser ignores an echoed `trace` member; read its id off the
        // line's tail.
        self.last_trace = trace_suffix(&self.line).map(|(_, id)| id.to_owned());
        Response::parse(&self.line).map_err(ClientError::Protocol)
    }

    /// The binary twin of the line-based `receive`: reads one reply frame
    /// and decodes it, recording the echoed trace id.
    fn receive_frame(&mut self) -> Result<Response, ClientError> {
        match read_frame(&mut self.reader, &mut self.payload) {
            Ok(()) => {}
            Err(FrameError::Io(err)) => return Err(ClientError::Io(err)),
            Err(err) => return Err(ClientError::Protocol(err.to_string())),
        }
        let (response, trace) = decode_payload::<Response>(&self.payload).map_err(wire_err)?;
        self.last_trace = trace;
        Ok(response)
    }

    /// Performs the round trip of the prepared request and — when the socket
    /// turns out to be stale and the request is `replayable` — reconnects
    /// and replays the identical bytes exactly once.  Safe because a stale
    /// failure means no reply byte arrived; only `shutdown` is not
    /// replayable (a replay could stop a server restarted in between).
    fn roundtrip_prepared(&mut self, replayable: bool) -> Result<Response, ClientError> {
        match self.try_roundtrip_prepared() {
            Err(err) if replayable && is_stale(&err) => {
                connection_metrics().reconnect_retries.inc();
                self.reconnect()?;
                self.try_roundtrip_prepared()
            }
            other => other,
        }
    }

    /// One attempt of [`roundtrip_prepared`](Connection::roundtrip_prepared):
    /// writes the prepared request bytes and reads one reply.
    fn try_roundtrip_prepared(&mut self) -> Result<Response, ClientError> {
        self.write_prepared()?;
        self.receive()
    }

    /// Sends one request and reads its response, transparently reconnecting
    /// and retrying once if the idle socket had gone stale (broken pipe /
    /// connection reset / immediate EOF).  `shutdown` is the one
    /// non-idempotent op, so it is never retried — reconnect-and-replay
    /// could stop a server that was restarted between the two attempts.
    ///
    /// # Errors
    ///
    /// Socket-level failures and malformed responses.
    pub fn roundtrip(&mut self, request: &Request) -> Result<Response, ClientError> {
        self.prepare(|w| request.encode(w), |w| request.encode(w))?;
        self.roundtrip_prepared(request.op() != Op::Shutdown)
    }

    /// Pipelines a batch: prepares *all* requests into one buffer, sends
    /// them with a single `write_all`, then reads the replies in order.
    ///
    /// The caller bounds the batch: both peers' socket buffers must absorb
    /// the whole request window plus the replies produced while the client
    /// is still writing, so keep batches to at most a few hundred lines
    /// (the in-tree callers use 48–256) and loop for larger workloads.
    ///
    /// A stale socket detected on the write or **before the first reply
    /// byte** reconnects and replays the whole window once; once any reply
    /// has been consumed the batch fails as-is (replaying would re-execute
    /// requests whose replies are gone).  A window containing the one
    /// non-idempotent op, `shutdown`, is never replayed — the replay could
    /// stop a server that was restarted between the attempts.
    ///
    /// # Errors
    ///
    /// Socket-level failures and malformed responses.  An [`Response::Error`]
    /// reply is returned in place, not promoted to an `Err` — pipelined
    /// batches are position-addressed.
    pub fn pipeline(&mut self, requests: &[Request]) -> Result<Vec<Response>, ClientError> {
        self.clear_prepared();
        for request in requests {
            self.append(|w| request.encode(w), |w| request.encode(w))?;
        }
        let replayable = !requests.iter().any(|request| request.op() == Op::Shutdown);
        match self.try_pipeline_prepared(requests.len()) {
            Err((_, true)) if replayable => {
                connection_metrics().reconnect_retries.inc();
                self.reconnect()?;
                self.try_pipeline_prepared(requests.len())
                    .map_err(|(err, _)| err)
            }
            Err((err, _)) => Err(err),
            Ok(responses) => Ok(responses),
        }
    }

    /// One attempt of [`pipeline`](Connection::pipeline): writes the whole
    /// prepared window (lines or frames), then reads `count` replies.
    /// The error's boolean says whether a retry is safe: `true` only while
    /// no reply byte has been consumed.
    fn try_pipeline_prepared(
        &mut self,
        count: usize,
    ) -> Result<Vec<Response>, (ClientError, bool)> {
        if let Err(err) = self.write_prepared() {
            let err = ClientError::Io(err);
            let retryable = is_stale(&err);
            return Err((err, retryable));
        }
        let mut responses = Vec::with_capacity(count);
        for index in 0..count {
            match self.receive() {
                Ok(response) => responses.push(response),
                Err(err) => {
                    let retryable = index == 0 && is_stale(&err);
                    return Err((err, retryable));
                }
            }
        }
        Ok(responses)
    }

    /// Looks a record up by canonical string; `None` is a miss.
    ///
    /// # Errors
    ///
    /// Connection failures, malformed responses and server-side errors.
    pub fn get(&mut self, canonical: &str) -> Result<Option<PointRecord>, ClientError> {
        // Encoded from the borrowed canonical — no owned Request, no clone.
        self.prepare(|w| write_get(w, canonical), |w| write_get(w, canonical))?;
        self.reply(Op::Get, |response| match response {
            Response::Found { record } => Ok(Some(record)),
            Response::NotFound => Ok(None),
            other => Err(other.into()),
        })
    }

    /// Looks a batch of canonical strings up in one request/reply pair.
    ///
    /// # Errors
    ///
    /// Connection failures, malformed responses and server-side errors.
    pub fn mget(&mut self, canonicals: &[String]) -> Result<Vec<Option<PointRecord>>, ClientError> {
        self.prepare(|w| write_mget(w, canonicals), |w| write_mget(w, canonicals))?;
        self.reply(Op::MultiGet, |response| match response {
            Response::MultiGot { records } => Ok(records),
            other => Err(other.into()),
        })
    }

    /// Answers a batch of design points (hits from the shards, misses
    /// evaluated server-side).
    ///
    /// # Errors
    ///
    /// Connection failures, malformed responses and server-side errors.
    pub fn explore(&mut self, points: &[QueryPoint]) -> Result<ExploreReply, ClientError> {
        self.prepare(
            |w| write_points(w, Op::Explore, points),
            |w| write_points(w, Op::Explore, points),
        )?;
        self.reply(Op::Explore, |response| match response {
            Response::Explored {
                records,
                hits,
                evaluated,
            } => Ok(ExploreReply {
                records,
                hits,
                evaluated,
            }),
            other => Err(other.into()),
        })
    }

    /// Answers a batch of design points with per-point outcomes: a point that
    /// fails to resolve reports its error in place instead of failing the
    /// batch.
    ///
    /// # Errors
    ///
    /// Connection failures, malformed responses and server-side errors.
    pub fn mexplore(&mut self, points: &[QueryPoint]) -> Result<MultiExploreReply, ClientError> {
        self.prepare(
            |w| write_points(w, Op::MultiExplore, points),
            |w| write_points(w, Op::MultiExplore, points),
        )?;
        self.reply(Op::MultiExplore, |response| match response {
            Response::MultiExplored {
                outcomes,
                hits,
                evaluated,
            } => Ok(MultiExploreReply {
                outcomes,
                hits,
                evaluated,
            }),
            other => Err(other.into()),
        })
    }

    /// Stores pre-evaluated records verbatim (the cluster replication tee);
    /// returns how many were new to the server's shards.
    ///
    /// # Errors
    ///
    /// Connection failures, malformed responses and server-side errors.
    pub fn put(&mut self, records: &[PointRecord]) -> Result<u64, ClientError> {
        self.prepare(|w| write_put(w, records), |w| write_put(w, records))?;
        self.reply(Op::Put, |response| match response {
            Response::Stored { stored } => Ok(stored),
            other => Err(other.into()),
        })
    }

    /// Trivial health probe: round-trips a `ping` line.
    ///
    /// # Errors
    ///
    /// Connection failures, malformed responses and server-side errors.
    pub fn ping(&mut self) -> Result<(), ClientError> {
        self.call(&Request::Ping, |response| match response {
            Response::Pong => Ok(()),
            other => Err(other.into()),
        })
    }

    /// Fetches the server statistics.
    ///
    /// # Errors
    ///
    /// Connection failures, malformed responses and server-side errors.
    pub fn stats(&mut self) -> Result<ServerStats, ClientError> {
        self.call(&Request::Stats, |response| match response {
            Response::Stats(stats) => Ok(stats),
            other => Err(other.into()),
        })
    }

    /// Fetches the server's full telemetry snapshot (counters, gauges and
    /// latency histograms) as structured data.
    ///
    /// # Errors
    ///
    /// Connection failures, malformed responses and server-side errors.
    pub fn metrics(&mut self) -> Result<MetricsSnapshot, ClientError> {
        let request = Request::Metrics { prometheus: false };
        self.call(&request, |response| match response {
            Response::Metrics(snapshot) => Ok(snapshot),
            other => Err(other.into()),
        })
    }

    /// Fetches the server's telemetry in the Prometheus text exposition
    /// format, ready to serve to a scraper.
    ///
    /// # Errors
    ///
    /// Connection failures, malformed responses and server-side errors.
    pub fn metrics_text(&mut self) -> Result<String, ClientError> {
        let request = Request::Metrics { prometheus: true };
        self.call(&request, |response| match response {
            Response::MetricsText { text } => Ok(text),
            other => Err(other.into()),
        })
    }

    /// Fetches the spans the server's flight recorder retains for `id` —
    /// the read side of request tracing.  An unknown (or already evicted)
    /// trace id yields an empty list, not an error.
    ///
    /// # Errors
    ///
    /// Connection failures, malformed responses and server-side errors.
    pub fn trace_spans(&mut self, id: &str) -> Result<Vec<Span>, ClientError> {
        let request = Request::Trace { id: id.to_owned() };
        self.call(&request, |response| match response {
            Response::Traced { spans } => Ok(spans),
            other => Err(other.into()),
        })
    }

    /// Fetches the newest `last` samples of the server's metrics series ring
    /// (oldest first).  An idle sampler yields an empty list, not an error.
    ///
    /// # Errors
    ///
    /// Connection failures, malformed responses and server-side errors.
    pub fn series_samples(&mut self, last: u64) -> Result<Vec<SeriesSample>, ClientError> {
        let request = Request::Series { last, window_us: 0 };
        self.call(&request, |response| match response {
            Response::Series { samples } => Ok(samples),
            other => Err(other.into()),
        })
    }

    /// Fetches the metrics delta across the server's trailing `window_us`
    /// window — per-window counter increments, gauge last values and
    /// histogram bucket differences, ready for rate/quantile math.
    ///
    /// # Errors
    ///
    /// Connection failures, malformed responses and server-side errors
    /// (including too few samples in the window, e.g. a disabled sampler).
    pub fn series_delta(&mut self, window_us: u64) -> Result<SnapshotDelta, ClientError> {
        let request = Request::Series { last: 0, window_us };
        self.call(&request, |response| match response {
            Response::SeriesDelta { delta } => Ok(delta),
            other => Err(other.into()),
        })
    }

    /// Fetches the server's per-shard anti-entropy digests, in shard order.
    /// Two nodes holding the same record set answer identical digests (see
    /// `docs/cluster.md`).
    ///
    /// # Errors
    ///
    /// Connection failures, malformed responses and server-side errors.
    pub fn digest(&mut self) -> Result<Vec<ShardDigest>, ClientError> {
        self.call(&Request::Digest, |response| match response {
            Response::Digests { digests } => Ok(digests),
            other => Err(other.into()),
        })
    }

    /// Fetches one page of shard `shard`'s canonical strings (`offset` /
    /// `limit` paging); the boolean is `true` when the page reached the end
    /// of the shard.
    ///
    /// # Errors
    ///
    /// Connection failures, malformed responses and server-side errors
    /// (including an out-of-range shard index).
    pub fn scan(
        &mut self,
        shard: u64,
        offset: u64,
        limit: u64,
    ) -> Result<(Vec<String>, bool), ClientError> {
        let request = Request::Scan {
            shard,
            offset,
            limit,
        };
        self.call(&request, |response| match response {
            Response::Scanned { canonicals, done } => Ok((canonicals, done)),
            other => Err(other.into()),
        })
    }

    /// Asks the server to shut down gracefully.  Never retried on a stale
    /// socket ([`roundtrip`](Connection::roundtrip) exempts `shutdown` from
    /// the reconnect-and-replay): a replay could stop a server that was
    /// restarted between the two attempts.
    ///
    /// # Errors
    ///
    /// Connection failures, malformed responses and server-side errors.
    pub fn shutdown(&mut self) -> Result<(), ClientError> {
        self.call(&Request::Shutdown, |response| match response {
            Response::ShuttingDown => Ok(()),
            other => Err(other.into()),
        })
    }
}

/// An address handle for one server: it opens [`Connection`]s in its codec
/// and carries the one naturally one-shot op, [`shutdown`](Client::shutdown).
/// Every other op lives on [`Connection`] — open one with
/// [`connect`](Client::connect) (or [`Connection::connect`] directly) and
/// keep it for as many requests as the caller has.
#[derive(Debug, Clone)]
pub struct Client {
    addr: String,
    binary: bool,
}

impl Client {
    /// A client for the server at `addr` (`host:port`), speaking JSON lines.
    pub fn new(addr: impl Into<String>) -> Self {
        Self {
            addr: addr.into(),
            binary: false,
        }
    }

    /// A client for the server at `addr` speaking the binary frame codec.
    pub fn new_binary(addr: impl Into<String>) -> Self {
        Self {
            addr: addr.into(),
            binary: true,
        }
    }

    /// The server address this client talks to.
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// Opens a persistent keep-alive [`Connection`] to this client's server,
    /// in this client's codec.
    ///
    /// # Errors
    ///
    /// Connection failures and unresolvable addresses.
    pub fn connect(&self) -> Result<Connection, ClientError> {
        if self.binary {
            Connection::connect_binary(&self.addr)
        } else {
            Connection::connect(&self.addr)
        }
    }

    /// Asks the server to shut down gracefully, over a fresh connection.
    ///
    /// # Errors
    ///
    /// Connection failures, malformed responses and server-side errors.
    pub fn shutdown(&self) -> Result<(), ClientError> {
        self.connect()?.shutdown()
    }
}
