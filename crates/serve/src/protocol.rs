//! The wire protocol spoken between `srra serve` and its clients: the
//! [`Request`] / [`Response`] shapes and the op table.
//!
//! Every request and every response is exactly one JSON object on one line
//! (`\n`-terminated), or one binary frame (see `binary`).  A connection may
//! carry any number of request/response pairs in order, and clients may
//! *pipeline*: write several requests before reading any replies — the
//! server answers strictly in request order.  The full specification lives
//! in `docs/serving.md`.
//!
//! Each op is declared once.  [`OPS`] gives every op its JSON name, binary
//! request tag and `stats` slot, and [`REPLIES`] gives every reply its
//! binary tag and the JSON key that identifies it.  [`Request::encode`] and
//! [`Response::encode`] list each variant's fields once, against the
//! codec-neutral [`Writer`]; [`Request::decode`] and [`Response::decode`]
//! read them back through a [`Reader`].  Both codecs run these same arms, and
//! both decoders finish with [`Request::check`], so the codecs cannot drift
//! apart.  Adding an op takes one [`OPS`] row, one encode arm, one decode arm
//! and one server handler.  The writer/reader pairs and every field value's
//! two encodings live in [`srra_explore::codec`]; this module adds only the
//! serve-owned shapes' [`Encode`] / [`Decode`] / [`Fields`] impls.
//!
//! All render methods come in a pair: `render` (fresh `String`) and
//! `render_into` (append to a caller-owned buffer), so the server and the
//! keep-alive client can reuse one scratch allocation across requests.
//! Embedded [`PointRecord`]s are written straight into the output buffer as
//! their JSON lines — no intermediate [`JsonValue`] tree.

use std::io::{Read, Write};

use srra_explore::codec::{
    render_named, BinReader, BinWriter, Decode, Encode, Fields, Head, JsonReader, JsonWriter,
    Reader, WireError, Writer,
};
use srra_explore::{JsonValue, PointRecord};
use srra_obs::{MetricsSnapshot, SeriesSample, SnapshotDelta, Span};

/// Longest accepted `trace` id, in bytes.
pub const TRACE_MAX_LEN: usize = 64;

/// Whether `id` is a legal wire trace id: 1 ..= [`TRACE_MAX_LEN`] bytes of
/// `[A-Za-z0-9._-]`.
///
/// The restricted alphabet is what makes trace propagation free on the hot
/// path: a valid id never needs JSON escaping, so both sides can stamp and
/// strip the field with plain byte pushes (see [`stamp_trace`] /
/// [`trace_suffix`]).
pub fn valid_trace_id(id: &str) -> bool {
    !id.is_empty()
        && id.len() <= TRACE_MAX_LEN
        && id
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'-' | b'_' | b'.'))
}

/// Appends `,"trace":"<id>"` inside the closing brace of the one-object JSON
/// line in `out`.
///
/// Every rendered request and response line ends in `}`, so stamping is one
/// pop plus a few pushes — no re-render.  Callers guarantee
/// [`valid_trace_id`]`(id)`.
pub fn stamp_trace(out: &mut String, id: &str) {
    debug_assert!(
        out.ends_with('}'),
        "stamping requires a rendered JSON object"
    );
    debug_assert!(valid_trace_id(id));
    out.pop();
    out.push_str(",\"trace\":\"");
    out.push_str(id);
    out.push_str("\"}");
}

/// Recognises a trailing `,"trace":"<id>"}` suffix on a one-object JSON
/// line, returning the byte offset where the suffix starts and the id.
///
/// Sound for any valid JSON line: an unescaped `"` cannot occur inside a
/// JSON string, so a raw `,"trace":"` directly before the final `"}` can
/// only be a top-level `trace` member.  Lines where the candidate id fails
/// [`valid_trace_id`] are left alone.
pub fn trace_suffix(line: &str) -> Option<(usize, &str)> {
    let rest = line.strip_suffix("\"}")?;
    let start = rest.rfind(",\"trace\":\"")?;
    let id = &rest[start + ",\"trace\":\"".len()..];
    valid_trace_id(id).then_some((start, id))
}

/// Declares a fieldless enum together with its table: one row per variant,
/// in declaration order, so `variant as usize` indexes the table.
macro_rules! table {
    (
        $(#[$enum_doc:meta])* enum $name:ident;
        $(#[$table_doc:meta])* const $table:ident: [$row:ty];
        $($variant:ident: $($column:expr),+;)+
    ) => {
        $(#[$enum_doc])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub(crate) enum $name { $($variant),+ }

        $(#[$table_doc])*
        pub(crate) const $table: &[$row] = &[$(($name::$variant, $($column),+)),+];
    };
}

table! {
    /// The wire ops, in `stats` slot order.
    enum Op;
    /// The op table: each op's JSON name and binary request tag, one row
    /// per op in `stats` slot order.  The server accounts unparseable
    /// requests in one more slot after these, named `invalid`.
    const OPS: [(Op, &str, u8)];
    Get: "get", 1;
    MultiGet: "mget", 2;
    Explore: "explore", 3;
    MultiExplore: "mexplore", 4;
    Put: "put", 5;
    Ping: "ping", 6;
    Stats: "stats", 7;
    Metrics: "metrics", 8;
    Trace: "trace", 10;
    Series: "series", 13;
    Digest: "digest", 11;
    Scan: "scan", 12;
    Shutdown: "shutdown", 9;
}

impl Op {
    /// The op's JSON name.
    pub(crate) fn name(self) -> &'static str {
        OPS[self as usize].1
    }

    fn by_name(name: &str) -> Option<Op> {
        OPS.iter().find(|row| row.1 == name).map(|row| row.0)
    }

    fn by_tag(tag: u8) -> Option<Op> {
        OPS.iter().find(|row| row.2 == tag).map(|row| row.0)
    }
}

/// A request opens with `"op":"<name>"` in JSON, its tag byte in binary.
impl Head for Op {
    fn tag(self) -> u8 {
        OPS[self as usize].2
    }

    fn json(self, w: &mut JsonWriter<'_>) {
        self.name().render(w.member("op"));
    }
}

table! {
    /// The reply shapes.
    enum Reply;
    /// The reply table: each reply's binary tag and the JSON key that
    /// identifies it, plus the value of that key when it is a bare marker
    /// (`"found":false`, `"pong":true`, …) rather than a payload field.
    const REPLIES: [(Reply, u8, &str, Option<bool>)];
    Found: 1, "found", Some(true);
    NotFound: 2, "found", Some(false);
    MultiGot: 3, "got", None;
    Explored: 4, "records", None;
    MultiExplored: 5, "outcomes", None;
    Stored: 6, "stored", None;
    Pong: 7, "pong", Some(true);
    Stats: 8, "stats", None;
    Metrics: 9, "metrics", None;
    MetricsText: 10, "exposition", None;
    ShuttingDown: 11, "shutting_down", Some(true);
    Error: 12, "error", None;
    Traced: 13, "spans", None;
    Digests: 14, "digests", None;
    Scanned: 15, "canonicals", None;
    Series: 16, "series", None;
    SeriesDelta: 17, "delta", None;
}

impl Reply {
    /// The JSON key identifying this reply; a payload reply's first field
    /// sits under it.
    fn key(self) -> &'static str {
        REPLIES[self as usize].2
    }

    fn by_tag(tag: u8) -> Option<Reply> {
        REPLIES.iter().find(|row| row.1 == tag).map(|row| row.0)
    }

    /// The successful reply whose key `value` carries (the JSON codec has no
    /// tag byte).
    fn sniff(value: &JsonValue) -> Option<Reply> {
        REPLIES.iter().find_map(|&(reply, _, key, marker)| {
            let member = value.get(key)?;
            let matches = reply != Reply::Error
                && marker.map_or(true, |marker| member.as_bool() == Some(marker));
            matches.then_some(reply)
        })
    }
}

/// A reply opens with `"ok":…` (plus its marker member, if any) in JSON, its
/// tag byte in binary.
impl Head for Reply {
    fn tag(self) -> u8 {
        REPLIES[self as usize].1
    }

    fn json(self, w: &mut JsonWriter<'_>) {
        let (_, _, key, marker) = REPLIES[self as usize];
        (self != Reply::Error).render(w.member("ok"));
        if let Some(marker) = marker {
            marker.render(w.member(key));
        }
    }
}

/// The RAM latency a query point gets when it names none.
const DEFAULT_LATENCY: u64 = 2;
/// The device a query point gets when it names none.
const DEFAULT_DEVICE: &str = "xcv1000";

/// One design point named by a query (the request-side mirror of
/// [`srra_explore::DesignPoint`], with everything by name).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryPoint {
    /// Kernel name (`fir`, `mat`, ..., or `example`).
    pub kernel: String,
    /// Allocator name, label, version or alias (resolved through the
    /// [`srra_core::AllocatorRegistry`]).
    pub algorithm: String,
    /// Register budget.
    pub budget: u64,
    /// RAM access latency in cycles.
    pub ram_latency: u64,
    /// Device name (`xcv1000` / `xcv300`, case-insensitive, or a full part
    /// name).
    pub device: String,
}

impl QueryPoint {
    /// A point with the protocol defaults for latency (2 cycles) and device
    /// (`xcv1000`).
    pub fn new(kernel: impl Into<String>, algorithm: impl Into<String>, budget: u64) -> Self {
        Self {
            kernel: kernel.into(),
            algorithm: algorithm.into(),
            budget,
            ram_latency: DEFAULT_LATENCY,
            device: DEFAULT_DEVICE.to_owned(),
        }
    }
}

impl Fields for QueryPoint {
    const NAME: &'static str = "point";

    fn write_fields<W: Writer>(&self, w: &mut W) -> Result<(), WireError> {
        w.field("kernel", &self.kernel)?;
        w.field("algo", &self.algorithm)?;
        w.field("budget", &self.budget)?;
        w.field("latency", &self.ram_latency)?;
        w.field("device", &self.device)
    }

    fn read_fields<R: Reader>(r: &mut R) -> Result<Self, WireError> {
        Ok(Self {
            kernel: r.field("kernel")?,
            algorithm: r.field("algo")?,
            budget: r.field("budget")?,
            ram_latency: r.field_or("latency", || DEFAULT_LATENCY)?,
            device: r.field_or("device", || DEFAULT_DEVICE.to_owned())?,
        })
    }
}

/// Writes a `get` request.  This and the three writers below are their
/// ops' one request layout: [`Request::encode`] and the client's borrowed,
/// no-clone encoding both call them.
pub(crate) fn write_get<W: Writer>(w: &mut W, canonical: &str) -> Result<(), WireError> {
    w.open(Op::Get)?;
    w.field("canonical", canonical)
}

/// Writes an `mget` request.
pub(crate) fn write_mget<W: Writer>(w: &mut W, canonicals: &[String]) -> Result<(), WireError> {
    w.open(Op::MultiGet)?;
    w.field("canonicals", canonicals)
}

/// Writes an `explore` or `mexplore` request (`op` says which).
pub(crate) fn write_points<W: Writer>(
    w: &mut W,
    op: Op,
    points: &[QueryPoint],
) -> Result<(), WireError> {
    w.open(op)?;
    w.field("points", points)
}

/// Writes a `put` request.
pub(crate) fn write_put<W: Writer>(w: &mut W, records: &[PointRecord]) -> Result<(), WireError> {
    w.open(Op::Put)?;
    w.field("records", records)
}

/// The `metrics` request's `format`: JSON names it (`"prometheus"`, or
/// `"json"`, the default, which requests leave out), binary carries a flag.
struct MetricsFormat(bool);

impl Encode for MetricsFormat {
    fn render(&self, out: &mut String) {
        if self.0 { "prometheus" } else { "json" }.render(out);
    }

    fn write(&self, out: &mut impl Write) -> Result<(), WireError> {
        self.0.write(out)
    }
}

impl Decode for MetricsFormat {
    const KIND: &'static str = "a string";

    fn from_json(value: &JsonValue) -> Result<Self, String> {
        match value.as_str() {
            Some("json") => Ok(Self(false)),
            Some("prometheus" | "prom") => Ok(Self(true)),
            _ => Err("expected \"json\" or \"prometheus\"".to_owned()),
        }
    }

    fn read(reader: &mut impl Read) -> Result<Self, WireError> {
        bool::read(reader).map(Self)
    }
}

/// One request line.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Look a record up by its canonical design-point string; never evaluates.
    Get {
        /// The canonical string (see `srra_explore::DesignPoint::canonical`).
        canonical: String,
    },
    /// Batched lookups: one line carrying many canonical strings, answered by
    /// one line of record-or-null results in request order.  Never evaluates.
    MultiGet {
        /// The canonical strings to look up, in reply order.
        canonicals: Vec<String>,
    },
    /// Answer a batch of design points: cache hits from the shards, misses
    /// evaluated on demand and written back.
    Explore {
        /// The points to answer, in request order.
        points: Vec<QueryPoint>,
    },
    /// Batched explore with *per-point* outcomes: points that fail to resolve
    /// answer with a per-point error instead of failing the whole batch.
    MultiExplore {
        /// The points to answer, in request order.
        points: Vec<QueryPoint>,
    },
    /// Store pre-evaluated records verbatim (no evaluation).  Used by the
    /// cluster router to tee freshly evaluated records to replica nodes; a
    /// record whose canonical is already present is a no-op.
    Put {
        /// The records to store.
        records: Vec<PointRecord>,
    },
    /// Trivial health probe: answers [`Response::Pong`] and touches nothing.
    /// Used by the cluster router to probe node liveness cheaply.
    Ping,
    /// Server statistics.
    Stats,
    /// Telemetry scrape: every instrument of the server's registry merged
    /// with the process-global one, as JSON or as a Prometheus-style text
    /// exposition (see `docs/observability.md`).
    Metrics {
        /// `false` answers [`Response::Metrics`] (JSON), `true` answers
        /// [`Response::MetricsText`] (Prometheus-style exposition).
        prometheus: bool,
    },
    /// Fetch the recorded span tree of one trace id from the server's flight
    /// recorder (see `docs/observability.md`).  Answers [`Response::Traced`]
    /// with every retained span of the trace, oldest first; a trace the
    /// recorder no longer holds answers with an empty span list, not an
    /// error.
    Trace {
        /// The trace id to look up (validated by [`valid_trace_id`]).
        id: String,
    },
    /// Time-series scrape of the server's sampled metrics ring (fed by
    /// `--sample-interval-ms`; see `docs/observability.md`).  Exactly one of
    /// the two fields is non-zero: `last` answers [`Response::Series`] with
    /// the most recent samples, `window_us` answers
    /// [`Response::SeriesDelta`] with the computed window delta (per-window
    /// counter increments and histogram buckets, last-value gauges).
    Series {
        /// Most recent samples to return (`0` when querying by window).
        last: u64,
        /// Window length in microseconds (`0` when querying by sample
        /// count).
        window_us: u64,
    },
    /// Anti-entropy digest: answers [`Response::Digests`] with one
    /// [`ShardDigest`] per shard, in shard order.  Cheap enough to compare
    /// across replicas on every repair pass without streaming records.
    Digest,
    /// Page through one shard's canonical strings in its stable store order.
    /// Answers [`Response::Scanned`]; repair and rebalance walk these pages
    /// to learn what a node holds without transferring whole records.
    Scan {
        /// Shard index to page through (`0 ..` the server's shard count).
        shard: u64,
        /// Records to skip before the first returned canonical.
        offset: u64,
        /// Maximum canonicals in this page (at least 1).
        limit: u64,
    },
    /// Graceful shutdown: the server acknowledges, stops accepting, drains
    /// in-flight connections and exits.
    Shutdown,
}

// The `trace` rule in `Request::check` spells the bound out.
const _: () = assert!(TRACE_MAX_LEN == 64);

impl Request {
    /// The op this request invokes.
    pub(crate) fn op(&self) -> Op {
        match self {
            Request::Get { .. } => Op::Get,
            Request::MultiGet { .. } => Op::MultiGet,
            Request::Explore { .. } => Op::Explore,
            Request::MultiExplore { .. } => Op::MultiExplore,
            Request::Put { .. } => Op::Put,
            Request::Ping => Op::Ping,
            Request::Stats => Op::Stats,
            Request::Metrics { .. } => Op::Metrics,
            Request::Trace { .. } => Op::Trace,
            Request::Series { .. } => Op::Series,
            Request::Digest => Op::Digest,
            Request::Scan { .. } => Op::Scan,
            Request::Shutdown => Op::Shutdown,
        }
    }

    /// Writes the request in either codec: each variant's fields, once.
    pub(crate) fn encode<W: Writer>(&self, w: &mut W) -> Result<(), WireError> {
        match self {
            Request::Get { canonical } => write_get(w, canonical),
            Request::MultiGet { canonicals } => write_mget(w, canonicals),
            Request::Explore { points } => write_points(w, Op::Explore, points),
            Request::MultiExplore { points } => write_points(w, Op::MultiExplore, points),
            Request::Put { records } => write_put(w, records),
            Request::Metrics { prometheus } => {
                w.open(Op::Metrics)?;
                w.field_if("format", &MetricsFormat(*prometheus), *prometheus)
            }
            Request::Trace { id } => {
                w.open(Op::Trace)?;
                w.field("id", id)
            }
            // JSON leaves out a zero field.
            Request::Series { last, window_us } => {
                w.open(Op::Series)?;
                w.field_if("last", last, *last > 0)?;
                w.field_if("window_us", window_us, *window_us > 0)
            }
            Request::Scan {
                shard,
                offset,
                limit,
            } => {
                w.open(Op::Scan)?;
                w.field("shard", shard)?;
                w.field("offset", offset)?;
                w.field("limit", limit)
            }
            Request::Ping | Request::Stats | Request::Digest | Request::Shutdown => {
                w.open(self.op())
            }
        }
    }

    /// Reads the fields of an `op` request in either codec.  The caller
    /// runs [`check`](Self::check) on the result.
    pub(crate) fn decode<R: Reader>(op: Op, r: &mut R) -> Result<Self, WireError> {
        Ok(match op {
            Op::Get => Request::Get {
                canonical: r.field("canonical")?,
            },
            Op::MultiGet => Request::MultiGet {
                canonicals: r.field("canonicals")?,
            },
            Op::Explore => Request::Explore {
                points: r.field("points")?,
            },
            Op::MultiExplore => Request::MultiExplore {
                points: r.field("points")?,
            },
            Op::Put => Request::Put {
                records: r.field("records")?,
            },
            Op::Ping => Request::Ping,
            Op::Stats => Request::Stats,
            Op::Metrics => Request::Metrics {
                prometheus: r.field_or("format", || MetricsFormat(false))?.0,
            },
            Op::Trace => Request::Trace { id: r.field("id")? },
            Op::Series => Request::Series {
                last: r.field_or("last", || 0)?,
                window_us: r.field_or("window_us", || 0)?,
            },
            Op::Digest => Request::Digest,
            Op::Scan => Request::Scan {
                shard: r.field("shard")?,
                offset: r.field_or("offset", || 0)?,
                limit: r.field_or("limit", || 1024)?,
            },
            Op::Shutdown => Request::Shutdown,
        })
    }

    /// The semantic rules both decoders enforce: non-empty batches, a legal
    /// trace id, exactly one `series` mode and a positive `scan` limit.
    ///
    /// # Errors
    ///
    /// A user-facing description of the broken rule.
    pub(crate) fn check(&self) -> Result<(), String> {
        let problem = match self {
            Request::MultiGet { canonicals } if canonicals.is_empty() => {
                "needs at least one canonical"
            }
            Request::Explore { points } | Request::MultiExplore { points } if points.is_empty() => {
                "needs at least one point"
            }
            Request::Put { records } if records.is_empty() => "needs at least one record",
            Request::Trace { id } if !valid_trace_id(id) => {
                "id must be 1..=64 bytes of [A-Za-z0-9._-]"
            }
            Request::Series { last, window_us } if (*last == 0) == (*window_us == 0) => {
                "needs exactly one of `last` or `window_us`, non-zero"
            }
            Request::Scan { limit: 0, .. } => "limit must be at least 1",
            _ => return Ok(()),
        };
        Err(format!("`{}` {problem}", self.op().name()))
    }

    /// Encodes the request as one JSON line (no trailing newline).
    pub fn render(&self) -> String {
        let mut out = String::with_capacity(64);
        self.render_into(&mut out);
        out
    }

    /// Encodes the request into `out` (no trailing newline), reusing the
    /// buffer's allocation.
    pub fn render_into(&self, out: &mut String) {
        Encode::render(self, out);
    }

    /// Decodes one request line.
    ///
    /// # Errors
    ///
    /// Returns a user-facing description of the first problem (malformed JSON,
    /// unknown op, missing fields, a broken semantic rule such as an empty
    /// batch).
    pub fn parse(line: &str) -> Result<Self, String> {
        Self::from_json(&JsonValue::parse(line)?)
    }

    /// Decodes one request line together with its optional `trace` id.
    ///
    /// The decoder ignores the `trace` member, so this is [`parse`](Self::parse)
    /// plus [`trace_suffix`]: clients render the member last (see
    /// [`stamp_trace`]).
    ///
    /// # Errors
    ///
    /// As [`Request::parse`].
    pub fn parse_with_trace(line: &str) -> Result<(Self, Option<String>), String> {
        let trace = trace_suffix(line).map(|(_, id)| id.to_owned());
        Ok((Self::parse(line)?, trace))
    }
}

impl Encode for Request {
    fn render(&self, out: &mut String) {
        JsonWriter::object(out, |w| self.encode(w));
    }

    fn write(&self, out: &mut impl Write) -> Result<(), WireError> {
        self.encode(&mut BinWriter(out))
    }
}

/// Both decoders finish with `Request::check`.
impl Decode for Request {
    const KIND: &'static str = "an object";

    fn from_json(value: &JsonValue) -> Result<Self, String> {
        let name = value
            .get("op")
            .and_then(JsonValue::as_str)
            .ok_or("request needs a string `op` field")?;
        let op = Op::by_name(name).ok_or_else(|| format!("unknown op `{name}`"))?;
        let request =
            Self::decode(op, &mut JsonReader::new(value, name)).map_err(WireError::into_message)?;
        request.check()?;
        Ok(request)
    }

    fn read(reader: &mut impl Read) -> Result<Self, WireError> {
        let tag = u8::read(reader)?;
        let op = Op::by_tag(tag)
            .ok_or_else(|| WireError::Corrupt(format!("unknown request tag {tag:#04x}")))?;
        let request = Self::decode(op, &mut BinReader(reader))?;
        request.check().map_err(WireError::Corrupt)?;
        Ok(request)
    }
}

/// One shard's anti-entropy digest, as served by the `digest` op: the
/// record count plus an order-insensitive fold of the records' content
/// hashes.  Two shards holding the same record set report the same digest
/// regardless of insertion order, and one mutated payload flips the fold —
/// so replicas can detect divergence by comparing a few integers instead of
/// streaming records (see `ShardedStore::digests`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardDigest {
    /// Records indexed in the shard.
    pub records: u64,
    /// Order-insensitive fold over the records' content hashes.
    pub fold: u64,
}

srra_explore::plain_fields! {
    ShardDigest, "digest" { records: "records", fold: "fold" };
}

/// Request count and latency quantiles of one op, as reported by `stats`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OpStats {
    /// Op name: one of the wire ops in `stats` order (`get`, `mget`,
    /// `explore`, `mexplore`, `put`, `ping`, `stats`, `metrics`, `trace`,
    /// `series`, `digest`, `scan`, `shutdown`), or `invalid` for requests
    /// that failed to decode.
    pub op: String,
    /// Requests of this op handled so far.
    pub count: u64,
    /// Median service time in microseconds (bucket upper bound; 0 when the
    /// op was never requested).
    pub p50_us: u64,
    /// 99th-percentile service time in microseconds (bucket upper bound).
    pub p99_us: u64,
}

/// JSON keys the entries by op name (see `ByName`), so only binary
/// carries `op` inside the entry.
impl Fields for OpStats {
    const NAME: &'static str = "op stats";

    fn write_fields<W: Writer>(&self, w: &mut W) -> Result<(), WireError> {
        w.field_if("op", &self.op, false)?;
        w.field("count", &self.count)?;
        w.field("p50_us", &self.p50_us)?;
        w.field("p99_us", &self.p99_us)
    }

    fn read_fields<R: Reader>(r: &mut R) -> Result<Self, WireError> {
        Ok(Self {
            op: r.field_or("op", String::new)?,
            count: r.field("count")?,
            p50_us: r.field("p50_us")?,
            p99_us: r.field("p99_us")?,
        })
    }
}

/// Server statistics reported by [`Request::Stats`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServerStats {
    /// Milliseconds since the server started.
    pub uptime_ms: u64,
    /// Whole seconds since the server started (the human-friendly twin of
    /// `uptime_ms`; derived from it when talking to a server that predates
    /// the field).
    pub uptime_secs: u64,
    /// The server's `srra-serve` crate version, empty when talking to a
    /// server that predates the field.
    pub version: String,
    /// Connections accepted.
    pub connections: u64,
    /// Requests handled (all ops).
    pub requests: u64,
    /// Lookups answered from the shards.
    pub hits: u64,
    /// Lookups that found nothing in the shards.
    pub misses: u64,
    /// Design points evaluated on demand.
    pub evaluated: u64,
    /// Record count per shard, in shard order.
    pub shard_records: Vec<usize>,
    /// Per-op request counts and service-time quantiles, in the server's
    /// fixed op order.  Empty when talking to a server that predates the
    /// field.
    pub ops: Vec<OpStats>,
}

impl ServerStats {
    /// Total records across all shards.
    pub fn records(&self) -> usize {
        self.shard_records.iter().sum()
    }

    /// The stats entry for `op`, if the server reported one.
    pub fn op(&self, op: &str) -> Option<&OpStats> {
        self.ops.iter().find(|entry| entry.op == op)
    }
}

/// Servers that predate `uptime_secs`, `version` or `ops` still parse: the
/// first derives from `uptime_ms`, the others default to empty.  The
/// `records` and `shard_count` totals are JSON-only conveniences.
impl Fields for ServerStats {
    const NAME: &'static str = "stats";

    fn write_fields<W: Writer>(&self, w: &mut W) -> Result<(), WireError> {
        w.field("uptime_ms", &self.uptime_ms)?;
        w.field("uptime_secs", &self.uptime_secs)?;
        w.field("version", &self.version)?;
        w.field("connections", &self.connections)?;
        w.field("requests", &self.requests)?;
        w.field("hits", &self.hits)?;
        w.field("misses", &self.misses)?;
        w.field("evaluated", &self.evaluated)?;
        let shards: Vec<u64> = self.shard_records.iter().map(|&n| n as u64).collect();
        w.json_only("records", &shards.iter().sum::<u64>())?;
        w.json_only("shard_count", &(shards.len() as u64))?;
        w.field("shards", &shards)?;
        w.field("ops", &ByName(self.ops.as_slice()))
    }

    fn read_fields<R: Reader>(r: &mut R) -> Result<Self, WireError> {
        let uptime_ms = r.field("uptime_ms")?;
        Ok(Self {
            uptime_ms,
            uptime_secs: r.field_or("uptime_secs", || uptime_ms / 1000)?,
            version: r.field_or("version", String::new)?,
            connections: r.field("connections")?,
            requests: r.field("requests")?,
            hits: r.field("hits")?,
            misses: r.field("misses")?,
            evaluated: r.field("evaluated")?,
            shard_records: r
                .field::<Vec<u64>>("shards")?
                .into_iter()
                .map(|n| n as usize)
                .collect(),
            ops: r.field_or("ops", || ByName(Vec::new()))?.0,
        })
    }
}

/// The `stats` op entries: a JSON object keyed by op name, a plain sequence
/// in binary.
struct ByName<T>(T);

impl Encode for ByName<&[OpStats]> {
    fn render(&self, out: &mut String) {
        render_named(out, self.0.iter().map(|entry| (entry.op.as_str(), entry)));
    }

    fn write(&self, out: &mut impl Write) -> Result<(), WireError> {
        self.0.write(out)
    }
}

impl Decode for ByName<Vec<OpStats>> {
    const KIND: &'static str = "an object";

    fn from_json(value: &JsonValue) -> Result<Self, String> {
        let named = Vec::<(String, OpStats)>::from_json(value)?;
        let ops = named.into_iter().map(|(op, stats)| OpStats { op, ..stats });
        Ok(ByName(ops.collect()))
    }

    fn read(reader: &mut impl Read) -> Result<Self, WireError> {
        Vec::read(reader).map(ByName)
    }
}

/// The per-point result of one `mexplore` entry.
//
// `Answered` dwarfs `Failed`, but outcomes overwhelmingly ARE answers on the
// hot path — boxing the record would buy smaller error variants at the price
// of one extra allocation per served record.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, PartialEq)]
pub enum PointOutcome {
    /// The point resolved; `hit` is `true` when the shards already held the
    /// record before this request arrived.  `hit == false` means the point
    /// was evaluated on this request's account — by this request itself *or
    /// by a concurrent one it waited on* (matching the `evaluated` counter
    /// of [`Response::Explored`]).
    Answered {
        /// The stored or freshly evaluated record.
        record: PointRecord,
        /// Whether the shards already held the record when the request
        /// arrived.
        hit: bool,
    },
    /// The point failed to resolve (unknown kernel/algorithm/device or a
    /// store error); the rest of the batch is unaffected.
    Failed {
        /// A user-facing description of the problem.
        error: String,
    },
}

/// Binary leads with a variant tag; JSON tells the variants apart by the
/// `error` member.
impl Fields for PointOutcome {
    const NAME: &'static str = "outcome";

    fn write_fields<W: Writer>(&self, w: &mut W) -> Result<(), WireError> {
        match self {
            PointOutcome::Answered { record, hit } => {
                w.open(0u8)?;
                w.field("hit", hit)?;
                w.field("record", record)
            }
            PointOutcome::Failed { error } => {
                w.open(1u8)?;
                w.field("error", error)
            }
        }
    }

    fn read_fields<R: Reader>(r: &mut R) -> Result<Self, WireError> {
        match r.tag(|value| u8::from(value.get("error").is_some()))? {
            0 => Ok(PointOutcome::Answered {
                hit: r.field("hit")?,
                record: r.field("record")?,
            }),
            1 => Ok(PointOutcome::Failed {
                error: r.field("error")?,
            }),
            other => Err(WireError::Corrupt(format!(
                "unknown outcome tag {other:#04x}"
            ))),
        }
    }
}

/// One response line.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// `get` hit.
    Found {
        /// The stored record.
        record: PointRecord,
    },
    /// `get` miss.
    NotFound,
    /// `mget` answer: one record-or-null per requested canonical, in order.
    MultiGot {
        /// `Some(record)` for hits, `None` for misses, in request order.
        records: Vec<Option<PointRecord>>,
    },
    /// `explore` answer.
    Explored {
        /// One record per requested point, in request order.
        records: Vec<PointRecord>,
        /// Points answered from the shards.
        hits: u64,
        /// Points evaluated on demand (by this request or one it waited on).
        evaluated: u64,
    },
    /// `mexplore` answer: per-point outcomes, in request order.
    MultiExplored {
        /// One outcome per requested point.
        outcomes: Vec<PointOutcome>,
        /// Points answered from the shards.
        hits: u64,
        /// Points evaluated on demand (by this request or one it waited on).
        evaluated: u64,
    },
    /// `put` answer: how many of the records were new to the store (records
    /// whose canonical was already present are skipped).
    Stored {
        /// Newly stored records, `<=` the records in the request.
        stored: u64,
    },
    /// `ping` answer.
    Pong,
    /// `stats` answer.
    Stats(ServerStats),
    /// `metrics` answer in JSON form: the merged per-server + process-global
    /// instrument snapshot.
    Metrics(MetricsSnapshot),
    /// `metrics` answer in Prometheus-style text form, carried as one JSON
    /// string member (the exposition itself is multi-line; the wire line is
    /// still one line).
    MetricsText {
        /// The rendered exposition, `\n`-separated inside the JSON string.
        text: String,
    },
    /// `trace` answer: every span of the requested trace that the node's
    /// flight recorder still retains, sorted by start time.  An unknown or
    /// evicted trace answers with an empty list.
    Traced {
        /// The retained spans, oldest first.
        spans: Vec<Span>,
    },
    /// `series` answer (by sample count): the most recent retained samples
    /// of the server's metrics ring, oldest first.  A server whose sampler
    /// is off answers an empty list.
    Series {
        /// The retained samples, oldest first.
        samples: Vec<SeriesSample>,
    },
    /// `series` answer (by window): the delta between the newest retained
    /// sample and the oldest one inside the window — per-window counter
    /// increments and histogram buckets, last-value gauges.
    SeriesDelta {
        /// The computed window delta.
        delta: SnapshotDelta,
    },
    /// `digest` answer: one entry per shard, in shard order.
    Digests {
        /// Per-shard digests (`digests.len()` is the server's shard count).
        digests: Vec<ShardDigest>,
    },
    /// `scan` answer: one page of canonical strings from the requested shard.
    Scanned {
        /// The canonicals in this page, in the shard's stable store order.
        canonicals: Vec<String>,
        /// Whether the page reached the end of the shard (an `offset` past
        /// the end answers an empty page with `done == true`).
        done: bool,
    },
    /// `shutdown` acknowledgement.
    ShuttingDown,
    /// Any failure; the connection stays open.
    Error {
        /// A user-facing description of the problem.
        message: String,
    },
}

impl Response {
    /// Writes the response in either codec: each variant's fields, once.
    pub(crate) fn encode<W: Writer>(&self, w: &mut W) -> Result<(), WireError> {
        match self {
            Response::Found { record } => {
                w.open(Reply::Found)?;
                w.field("record", record)
            }
            Response::NotFound => w.open(Reply::NotFound),
            Response::MultiGot { records } => write_reply(w, Reply::MultiGot, records),
            Response::Explored {
                records,
                hits,
                evaluated,
            } => {
                write_reply(w, Reply::Explored, records)?;
                w.field("hits", hits)?;
                w.field("evaluated", evaluated)
            }
            Response::MultiExplored {
                outcomes,
                hits,
                evaluated,
            } => {
                write_reply(w, Reply::MultiExplored, outcomes)?;
                w.field("hits", hits)?;
                w.field("evaluated", evaluated)
            }
            Response::Stored { stored } => write_reply(w, Reply::Stored, stored),
            Response::Pong => w.open(Reply::Pong),
            Response::Stats(stats) => write_reply(w, Reply::Stats, stats),
            Response::Metrics(snapshot) => write_reply(w, Reply::Metrics, snapshot),
            Response::MetricsText { text } => write_reply(w, Reply::MetricsText, text),
            Response::Traced { spans } => write_reply(w, Reply::Traced, spans),
            Response::Series { samples } => write_reply(w, Reply::Series, samples),
            Response::SeriesDelta { delta } => write_reply(w, Reply::SeriesDelta, delta),
            Response::Digests { digests } => write_reply(w, Reply::Digests, digests),
            Response::Scanned { canonicals, done } => {
                write_reply(w, Reply::Scanned, canonicals)?;
                w.field("done", done)
            }
            Response::ShuttingDown => w.open(Reply::ShuttingDown),
            Response::Error { message } => write_reply(w, Reply::Error, message),
        }
    }

    /// Reads the fields of a `reply` in either codec.
    pub(crate) fn decode<R: Reader>(reply: Reply, r: &mut R) -> Result<Self, WireError> {
        Ok(match reply {
            Reply::Found => Response::Found {
                record: r.field("record")?,
            },
            Reply::NotFound => Response::NotFound,
            Reply::MultiGot => Response::MultiGot {
                records: r.field(reply.key())?,
            },
            Reply::Explored => Response::Explored {
                records: r.field(reply.key())?,
                hits: r.field("hits")?,
                evaluated: r.field("evaluated")?,
            },
            Reply::MultiExplored => Response::MultiExplored {
                outcomes: r.field(reply.key())?,
                hits: r.field("hits")?,
                evaluated: r.field("evaluated")?,
            },
            Reply::Stored => Response::Stored {
                stored: r.field(reply.key())?,
            },
            Reply::Pong => Response::Pong,
            Reply::Stats => Response::Stats(r.field(reply.key())?),
            Reply::Metrics => Response::Metrics(r.field(reply.key())?),
            Reply::MetricsText => Response::MetricsText {
                text: r.field(reply.key())?,
            },
            Reply::Traced => Response::Traced {
                spans: r.field(reply.key())?,
            },
            Reply::Series => Response::Series {
                samples: r.field(reply.key())?,
            },
            Reply::SeriesDelta => Response::SeriesDelta {
                delta: r.field(reply.key())?,
            },
            Reply::Digests => Response::Digests {
                digests: r.field(reply.key())?,
            },
            Reply::Scanned => Response::Scanned {
                canonicals: r.field(reply.key())?,
                done: r.field("done")?,
            },
            Reply::ShuttingDown => Response::ShuttingDown,
            Reply::Error => Response::Error {
                message: r.field_or(reply.key(), || "unspecified server error".to_owned())?,
            },
        })
    }

    /// Encodes the response as one JSON line (no trailing newline).
    pub fn render(&self) -> String {
        let mut out = String::with_capacity(128);
        self.render_into(&mut out);
        out
    }

    /// Encodes the response into `out` (no trailing newline), reusing the
    /// buffer's allocation.  Embedded records are appended as their JSON
    /// lines ([`PointRecord::write_json_line`]), so the hot reply paths do
    /// not build an intermediate JSON tree.
    pub fn render_into(&self, out: &mut String) {
        Encode::render(self, out);
    }

    /// Decodes one response line.  A trailing `trace` member is ignored
    /// (see [`trace_suffix`]).
    ///
    /// # Errors
    ///
    /// Returns a description of the first problem (malformed JSON or an
    /// unrecognised shape).
    pub fn parse(line: &str) -> Result<Self, String> {
        Self::from_json(&JsonValue::parse(line)?)
    }
}

/// Opens `reply` and writes its first payload field under the reply's key.
fn write_reply<W: Writer, T: Encode + ?Sized>(
    w: &mut W,
    reply: Reply,
    payload: &T,
) -> Result<(), WireError> {
    w.open(reply)?;
    w.field(reply.key(), payload)
}

impl Encode for Response {
    fn render(&self, out: &mut String) {
        JsonWriter::object(out, |w| self.encode(w));
    }

    fn write(&self, out: &mut impl Write) -> Result<(), WireError> {
        self.encode(&mut BinWriter(out))
    }
}

/// JSON has no tag byte: a reply is told apart by its `ok` flag and the
/// key its payload sits under.
impl Decode for Response {
    const KIND: &'static str = "an object";

    fn from_json(value: &JsonValue) -> Result<Self, String> {
        let ok = value
            .get("ok")
            .and_then(JsonValue::as_bool)
            .ok_or("response needs a boolean `ok` field")?;
        let reply = if ok {
            Reply::sniff(value).ok_or("unrecognised response shape")?
        } else {
            Reply::Error
        };
        Self::decode(reply, &mut JsonReader::new(value, reply.key()))
            .map_err(WireError::into_message)
    }

    fn read(reader: &mut impl Read) -> Result<Self, WireError> {
        let tag = u8::read(reader)?;
        let reply = Reply::by_tag(tag)
            .ok_or_else(|| WireError::Corrupt(format!("unknown response tag {tag:#04x}")))?;
        Self::decode(reply, &mut BinReader(reader))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_record() -> PointRecord {
        PointRecord {
            key: 0x1234_5678_9abc_def0,
            canonical: "kernel=fir;algo=CPA-RA;budget=32;latency=2;device=XCV1000-BG560".to_owned(),
            kernel: "fir".to_owned(),
            algorithm: "CPA-RA".to_owned(),
            version: "v3".to_owned(),
            budget: 32,
            ram_latency: 2,
            device: "XCV1000-BG560".to_owned(),
            feasible: true,
            fits: true,
            registers_used: 17,
            total_cycles: 4242,
            compute_cycles: 4000,
            memory_cycles: 200,
            transfer_cycles: 42,
            clock_period_ns: 10.573,
            execution_time_us: 1_305.312_048,
            slices: 471,
            block_rams: 3,
            distribution: "a:16 \"b\":1".to_owned(),
        }
    }

    fn sample_stats() -> ServerStats {
        ServerStats {
            uptime_ms: 1234,
            uptime_secs: 1,
            version: "0.1.0".to_owned(),
            connections: 5,
            requests: 17,
            hits: 10,
            misses: 7,
            evaluated: 7,
            shard_records: vec![3, 0, 4, 1],
            ops: vec![
                OpStats {
                    op: "get".to_owned(),
                    count: 9,
                    p50_us: 63,
                    p99_us: 255,
                },
                OpStats {
                    op: "explore".to_owned(),
                    count: 8,
                    p50_us: 127,
                    p99_us: 1023,
                },
            ],
        }
    }

    fn sample_snapshot() -> MetricsSnapshot {
        let registry = srra_obs::Registry::new();
        registry.counter("serve_requests_total").add(7);
        registry.gauge("serve_open_connections").set(-1);
        let latency = registry.histogram("serve_op_get_latency_us");
        latency.record_micros(40);
        latency.record_micros(5_000);
        latency.record_traced(std::time::Duration::from_micros(90), "sweep-7.a");
        registry.snapshot()
    }

    #[test]
    fn op_and_reply_tables_have_distinct_names_and_tags() {
        for (index, row) in OPS.iter().enumerate() {
            assert_eq!(row.0 as usize, index);
            let earlier = &OPS[..index];
            assert!(earlier
                .iter()
                .all(|other| other.1 != row.1 && other.2 != row.2));
            assert_eq!(Op::by_name(row.1), Some(row.0));
            assert_eq!(Op::by_tag(row.2), Some(row.0));
        }
        for (index, row) in REPLIES.iter().enumerate() {
            assert_eq!(row.0 as usize, index);
            assert!(REPLIES[..index].iter().all(|other| other.1 != row.1));
            assert_eq!(Reply::by_tag(row.1), Some(row.0));
        }
    }

    #[test]
    fn requests_round_trip() {
        let requests = [
            Request::Get {
                canonical: "kernel=fir;algo=CPA-RA;budget=32;latency=2;device=XCV1000-BG560"
                    .to_owned(),
            },
            Request::MultiGet {
                canonicals: vec![
                    "kernel=fir;algo=CPA-RA;budget=32".to_owned(),
                    "x".to_owned(),
                ],
            },
            Request::Explore {
                points: vec![
                    QueryPoint::new("fir", "cpa", 32),
                    QueryPoint {
                        kernel: "mat".to_owned(),
                        algorithm: "FR-RA".to_owned(),
                        budget: 8,
                        ram_latency: 1,
                        device: "xcv300".to_owned(),
                    },
                ],
            },
            Request::MultiExplore {
                points: vec![QueryPoint::new("mat", "fr", 16)],
            },
            Request::Put {
                records: vec![sample_record(), sample_record()],
            },
            Request::Ping,
            Request::Stats,
            Request::Metrics { prometheus: false },
            Request::Metrics { prometheus: true },
            Request::Trace {
                id: "sweep-7.a".to_owned(),
            },
            Request::Series {
                last: 16,
                window_us: 0,
            },
            Request::Series {
                last: 0,
                window_us: 60_000_000,
            },
            Request::Digest,
            Request::Scan {
                shard: 3,
                offset: 128,
                limit: 64,
            },
            Request::Shutdown,
        ];
        for request in requests {
            let line = request.render();
            assert!(!line.contains('\n'), "one line per request");
            assert_eq!(Request::parse(&line).unwrap(), request, "line: {line}");
            // `render_into` appends exactly the same bytes.
            let mut buffer = String::from("prefix");
            request.render_into(&mut buffer);
            assert_eq!(buffer, format!("prefix{line}"));
        }
    }

    #[test]
    fn explore_points_default_latency_and_device() {
        let parsed = Request::parse(
            r#"{"op":"explore","points":[{"kernel":"fir","algo":"cpa","budget":32}]}"#,
        )
        .unwrap();
        let Request::Explore { points } = parsed else {
            panic!("wrong variant");
        };
        assert_eq!(points[0].ram_latency, 2);
        assert_eq!(points[0].device, "xcv1000");
    }

    #[test]
    fn responses_round_trip_with_bit_exact_floats() {
        let record = sample_record();
        let responses = [
            Response::Found {
                record: record.clone(),
            },
            Response::NotFound,
            Response::MultiGot {
                records: vec![Some(record.clone()), None, Some(record.clone())],
            },
            Response::Explored {
                records: vec![record.clone(), record.clone()],
                hits: 1,
                evaluated: 1,
            },
            Response::MultiExplored {
                outcomes: vec![
                    PointOutcome::Answered {
                        record: record.clone(),
                        hit: true,
                    },
                    PointOutcome::Failed {
                        error: "unknown kernel `nope`".to_owned(),
                    },
                    PointOutcome::Answered { record, hit: false },
                ],
                hits: 1,
                evaluated: 1,
            },
            Response::Stored { stored: 2 },
            Response::Pong,
            Response::Stats(sample_stats()),
            Response::Metrics(sample_snapshot()),
            Response::MetricsText {
                text: "# TYPE serve_requests_total counter\nserve_requests_total 7\n".to_owned(),
            },
            Response::Traced {
                spans: vec![
                    Span {
                        trace_id: "sweep-7.a".to_owned(),
                        span_id: 11,
                        parent_id: 0,
                        name: "explore".to_owned(),
                        start_us: 100,
                        dur_us: 900,
                        annotations: vec![("points".to_owned(), "4".to_owned())],
                    },
                    Span {
                        trace_id: "sweep-7.a".to_owned(),
                        span_id: 12,
                        parent_id: 11,
                        name: "engine.cost_model".to_owned(),
                        start_us: 400,
                        dur_us: 300,
                        annotations: Vec::new(),
                    },
                ],
            },
            Response::Traced { spans: Vec::new() },
            Response::Series {
                samples: vec![
                    SeriesSample {
                        at_us: 1_000_000,
                        metrics: sample_snapshot(),
                    },
                    SeriesSample {
                        at_us: 2_000_000,
                        metrics: sample_snapshot(),
                    },
                ],
            },
            Response::Series {
                samples: Vec::new(),
            },
            Response::SeriesDelta {
                delta: SnapshotDelta {
                    from_us: 1_000_000,
                    to_us: 2_000_000,
                    diff: sample_snapshot(),
                },
            },
            Response::Digests {
                digests: vec![
                    ShardDigest {
                        records: 3,
                        fold: 0x1234_5678_9abc_def0,
                    },
                    ShardDigest {
                        records: 0,
                        fold: 0,
                    },
                ],
            },
            Response::Scanned {
                canonicals: vec![
                    "kernel=fir;algo=CPA-RA;budget=32".to_owned(),
                    "kernel=mat;algo=FR-RA;budget=8".to_owned(),
                ],
                done: false,
            },
            Response::Scanned {
                canonicals: Vec::new(),
                done: true,
            },
            Response::ShuttingDown,
            Response::Error {
                message: "unknown kernel `nope`".to_owned(),
            },
        ];
        for response in responses {
            let line = response.render();
            assert!(!line.contains('\n'), "one line per response");
            assert_eq!(Response::parse(&line).unwrap(), response, "line: {line}");
            let mut buffer = String::from("prefix");
            response.render_into(&mut buffer);
            assert_eq!(buffer, format!("prefix{line}"));
        }
    }

    #[test]
    fn stats_totals_sum_the_shards_and_carry_op_latencies() {
        let stats = sample_stats();
        assert_eq!(stats.records(), 8);
        let rendered = Response::Stats(stats.clone()).render();
        assert!(rendered.contains("\"records\":8"));
        assert!(rendered.contains("\"ops\":{\"get\":{\"count\":9,\"p50_us\":63,\"p99_us\":255}"));
        assert_eq!(stats.op("get").unwrap().count, 9);
        assert_eq!(stats.op("frobnicate"), None);
    }

    #[test]
    fn stats_without_ops_still_parse() {
        // A reply from a server that predates per-op latency accounting.
        let line = r#"{"ok":true,"stats":{"uptime_ms":1,"connections":2,"requests":3,"hits":1,"misses":2,"evaluated":2,"records":3,"shards":[1,2]}}"#;
        let Response::Stats(stats) = Response::parse(line).unwrap() else {
            panic!("expected stats");
        };
        assert_eq!(stats.shard_records, vec![1, 2]);
        assert!(stats.ops.is_empty());
        assert_eq!(stats.uptime_secs, 0, "derived from uptime_ms when absent");
        assert_eq!(stats.version, "", "absent on old servers");
    }

    #[test]
    fn stats_carry_uptime_version_and_shard_count() {
        let rendered = Response::Stats(sample_stats()).render();
        assert!(rendered.contains("\"uptime_secs\":1"));
        assert!(rendered.contains("\"version\":\"0.1.0\""));
        assert!(rendered.contains("\"shard_count\":4"));
    }

    #[test]
    fn trace_ids_stamp_and_strip_on_any_line() {
        let mut line = Request::Stats.render();
        stamp_trace(&mut line, "sweep-7.a");
        assert_eq!(line, r#"{"op":"stats","trace":"sweep-7.a"}"#);
        let (request, trace) = Request::parse_with_trace(&line).unwrap();
        assert_eq!(request, Request::Stats);
        assert_eq!(trace.as_deref(), Some("sweep-7.a"));

        // The traced hot-path `get` still decodes, trace included.
        let mut line = Request::Get {
            canonical: "kernel=fir;algo=CPA-RA;budget=32".to_owned(),
        }
        .render();
        stamp_trace(&mut line, "t1");
        let (request, trace) = Request::parse_with_trace(&line).unwrap();
        assert_eq!(
            request,
            Request::Get {
                canonical: "kernel=fir;algo=CPA-RA;budget=32".to_owned()
            }
        );
        assert_eq!(trace.as_deref(), Some("t1"));

        // Responses stamp the same way; `trace_suffix` locates the id.
        let mut reply = Response::Pong.render();
        stamp_trace(&mut reply, "t1");
        let (start, id) = trace_suffix(&reply).expect("stamped reply carries the id");
        assert_eq!(id, "t1");
        assert!(reply[..start].starts_with(r#"{"ok":true"#));
    }

    #[test]
    fn untraced_lines_and_bad_ids_have_no_trace() {
        assert_eq!(
            Request::parse_with_trace(r#"{"op":"ping"}"#).unwrap(),
            (Request::Ping, None)
        );
        // A canonical that *contains* the marker text is escaped on the wire,
        // so the suffix scanner never fires inside a string.
        let tricky = Request::Get {
            canonical: "x\",\"trace\":\"oops".to_owned(),
        };
        let line = tricky.render();
        assert_eq!(trace_suffix(&line), None);
        assert_eq!(Request::parse_with_trace(&line).unwrap(), (tricky, None));
        // Over-long or ill-charactered ids are not trace suffixes.
        assert!(!valid_trace_id(""));
        assert!(!valid_trace_id(&"x".repeat(TRACE_MAX_LEN + 1)));
        assert!(!valid_trace_id("no spaces"));
        assert!(valid_trace_id("ok-id_1.2"));
    }

    #[test]
    fn metrics_requests_validate_their_format() {
        assert_eq!(
            Request::parse(r#"{"op":"metrics","format":"prom"}"#).unwrap(),
            Request::Metrics { prometheus: true }
        );
        assert_eq!(
            Request::parse(r#"{"op":"metrics","format":"json"}"#).unwrap(),
            Request::Metrics { prometheus: false }
        );
        assert!(Request::parse(r#"{"op":"metrics","format":"xml"}"#).is_err());
        assert!(Request::parse(r#"{"op":"metrics","format":3}"#).is_err());
    }

    #[test]
    fn metrics_replies_reject_illegal_names_and_oversized_buckets() {
        assert!(Response::parse(r#"{"ok":true,"metrics":{"counters":{"bad name":1}}}"#).is_err());
        assert!(Response::parse(r#"{"ok":true,"metrics":{"gauges":{"g":1.5}}}"#).is_err());
        let buckets = vec!["1"; srra_obs::LATENCY_BUCKETS + 1].join(",");
        let line = format!(
            r#"{{"ok":true,"metrics":{{"histograms":{{"h":{{"buckets":[{buckets}]}}}}}}}}"#
        );
        assert!(Response::parse(&line).is_err());
        // Short bucket arrays (older peer, or trailing zeros trimmed) pad.
        let line = r#"{"ok":true,"metrics":{"histograms":{"h":{"buckets":[0,2]}}}}"#;
        let Response::Metrics(snapshot) = Response::parse(line).unwrap() else {
            panic!("expected metrics");
        };
        assert_eq!(snapshot.histogram("h").map(|h| h.count()), Some(2));
    }

    #[test]
    fn malformed_requests_are_rejected_with_messages() {
        for bad in [
            "",
            "{}",
            "not json",
            r#"{"op":"frobnicate"}"#,
            r#"{"op":"get"}"#,
            r#"{"op":"explore","points":[]}"#,
            r#"{"op":"explore","points":[{"kernel":"fir"}]}"#,
            r#"{"op":"mget"}"#,
            r#"{"op":"mget","canonicals":[]}"#,
            r#"{"op":"mget","canonicals":[42]}"#,
            r#"{"op":"mexplore"}"#,
            r#"{"op":"mexplore","points":[]}"#,
            r#"{"op":"mexplore","points":[{"algo":"cpa","budget":32}]}"#,
            r#"{"op":"put"}"#,
            r#"{"op":"put","records":[]}"#,
            r#"{"op":"put","records":[{"kernel":"fir"}]}"#,
            r#"{"op":"trace"}"#,
            r#"{"op":"trace","id":""}"#,
            r#"{"op":"trace","id":"no spaces"}"#,
            r#"{"op":"scan"}"#,
            r#"{"op":"scan","shard":"zero"}"#,
            r#"{"op":"scan","shard":0,"limit":0}"#,
            r#"{"op":"series"}"#,
            r#"{"op":"series","last":0}"#,
            r#"{"op":"series","last":4,"window_us":1000}"#,
            r#"{"op":"series","last":"four"}"#,
        ] {
            assert!(Request::parse(bad).is_err(), "accepted `{bad}`");
        }
    }
}
