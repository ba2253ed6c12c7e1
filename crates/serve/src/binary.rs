//! The binary wire codec: length-prefixed frames carrying the same
//! [`Request`]/[`Response`] protocol as the JSON lines, without the text
//! tax.
//!
//! # Frame layout
//!
//! ```text
//! frame   := magic:u8 len:u32le payload[len]
//! payload := trace_len:u8 trace[trace_len] body
//! body    := tag:u8 fields...
//! ```
//!
//! * `magic` is [`BINARY_MAGIC`] (`0xB1`) — a byte that can never begin a
//!   JSON request line (`{` is `0x7B`, and blank/whitespace bytes are also
//!   distinct), which is the whole negotiation rule: the server sniffs the
//!   first byte of each buffered request and picks the codec per frame, so
//!   existing JSON clients keep working unchanged on the same port.
//! * `len` counts the payload bytes (everything after the 5-byte header)
//!   and must be `1 ..=` [`MAX_FRAME_LEN`]; a zero or oversized length is
//!   unrecoverable (the stream cannot be resynchronised) and closes the
//!   connection after one final error reply.
//! * `trace` is the optional trace id (see [`crate::valid_trace_id`]),
//!   echoed verbatim on the reply frame — the binary twin of the JSON
//!   `"trace"` member; `trace_len` 0 means untraced.
//! * `body` is the request or response: a one-byte tag from the op table
//!   (`OPS` / `REPLIES` in `protocol`) followed by the variant's fields in
//!   the order `Request::encode` / `Response::encode` list them, each in
//!   its binary encoding from [`srra_explore::codec`].  The JSON codec runs
//!   the same encode and decode arms, so the two codecs carry the same
//!   fields.
//!
//! A payload that fails to decode is answered with a [`Response::Error`]
//! frame and the connection *stays open* — the frame boundary was already
//! known, so the stream never desyncs (mirroring the JSON contract where a
//! malformed line still produces exactly one reply line).

use std::io::Read;

use srra_explore::codec::{Decode, Encode, WireError};

use crate::protocol::{valid_trace_id, Request, Response};

/// First byte of every binary frame.  `0xB1` can never open a JSON request
/// (those start with `{`, whitespace or nothing), so one peeked byte decides
/// the codec.
pub const BINARY_MAGIC: u8 = 0xB1;

/// Largest accepted frame payload (64 MiB) — far above any legitimate
/// request or reply, low enough that a corrupt length header cannot ask the
/// server to buffer gigabytes.
pub const MAX_FRAME_LEN: usize = 64 << 20;

/// Errors reading one frame off the wire.
#[derive(Debug)]
pub enum FrameError {
    /// The stream failed or ended mid-frame; the connection is unusable.
    Io(std::io::Error),
    /// The header declared a zero or over-cap payload length; the stream
    /// cannot be resynchronised (the next frame boundary is unknowable).
    BadLength(usize),
    /// The first byte was not [`BINARY_MAGIC`] — the peer is not speaking
    /// the binary codec.
    BadMagic(u8),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Io(err) => write!(f, "binary frame I/O error: {err}"),
            FrameError::BadLength(len) => {
                write!(f, "binary frame length {len} outside 1..={MAX_FRAME_LEN}")
            }
            FrameError::BadMagic(byte) => write!(
                f,
                "expected the binary frame magic {BINARY_MAGIC:#04x}, got {byte:#04x}"
            ),
        }
    }
}

impl std::error::Error for FrameError {}

impl From<std::io::Error> for FrameError {
    fn from(err: std::io::Error) -> Self {
        FrameError::Io(err)
    }
}

/// Reads one complete frame — magic byte included — into `payload`
/// (cleared and reused).
///
/// # Errors
///
/// [`FrameError::Io`] when the stream fails or ends mid-frame,
/// [`FrameError::BadLength`] when the header is malformed.  The caller must
/// close the connection on either (after answering `BadLength` with one
/// error frame if it can).
pub fn read_frame(reader: &mut impl Read, payload: &mut Vec<u8>) -> Result<(), FrameError> {
    let mut header = [0u8; 5];
    reader.read_exact(&mut header)?;
    if header[0] != BINARY_MAGIC {
        return Err(FrameError::BadMagic(header[0]));
    }
    let len = u32::from_le_bytes([header[1], header[2], header[3], header[4]]) as usize;
    if len == 0 || len > MAX_FRAME_LEN {
        return Err(FrameError::BadLength(len));
    }
    payload.clear();
    payload.resize(len, 0);
    reader.read_exact(payload)?;
    Ok(())
}

/// Appends one complete frame (magic + length + trace + body) to `out`,
/// encoding the body through `body`.
pub(crate) fn frame_into(
    out: &mut Vec<u8>,
    trace: Option<&str>,
    body: impl FnOnce(&mut Vec<u8>) -> Result<(), WireError>,
) -> Result<(), WireError> {
    out.push(BINARY_MAGIC);
    let len_at = out.len();
    out.extend_from_slice(&[0u8; 4]);
    let start = out.len();
    match trace {
        None => out.push(0),
        Some(id) => {
            if !valid_trace_id(id) {
                return Err(WireError::Corrupt(format!("illegal trace id {id:?}")));
            }
            out.push(id.len() as u8);
            out.extend_from_slice(id.as_bytes());
        }
    }
    body(out)?;
    let len = out.len() - start;
    if len > MAX_FRAME_LEN {
        return Err(WireError::Corrupt(format!(
            "frame payload of {len} bytes exceeds the {MAX_FRAME_LEN} cap"
        )));
    }
    out[len_at..len_at + 4].copy_from_slice(&(len as u32).to_le_bytes());
    Ok(())
}

/// Appends one request frame to `out` (not cleared — pipelining callers
/// append several frames into one buffer).
///
/// # Errors
///
/// [`WireError::Corrupt`] on an illegal trace id or over-cap body; writing
/// to a `Vec` cannot fail.
pub fn encode_request_frame(
    out: &mut Vec<u8>,
    trace: Option<&str>,
    request: &Request,
) -> Result<(), WireError> {
    frame_into(out, trace, |buf| request.write(buf))
}

/// Appends one response frame to `out` (not cleared).
///
/// # Errors
///
/// As [`encode_request_frame`].
pub fn encode_response_frame(
    out: &mut Vec<u8>,
    trace: Option<&str>,
    response: &Response,
) -> Result<(), WireError> {
    frame_into(out, trace, |buf| response.write(buf))
}

/// Decodes a frame payload (trace prefix + tagged body), requiring every
/// byte to be consumed.
///
/// # Errors
///
/// [`WireError::Io`] on truncation inside the payload, [`WireError::Corrupt`]
/// on bad bytes, an illegal trace id, or trailing garbage.
pub fn decode_payload<T: Decode>(payload: &[u8]) -> Result<(T, Option<String>), WireError> {
    let mut reader = payload;
    let trace_len = u8::read(&mut reader)? as usize;
    let trace = if trace_len == 0 {
        None
    } else {
        let bytes = reader
            .get(..trace_len)
            .ok_or_else(|| WireError::Corrupt("trace id truncated".to_owned()))?;
        let id = std::str::from_utf8(bytes)
            .map_err(|_| WireError::Corrupt("trace id is not UTF-8".to_owned()))?;
        if !valid_trace_id(id) {
            return Err(WireError::Corrupt(format!("illegal trace id {id:?}")));
        }
        reader = &reader[trace_len..];
        Some(id.to_owned())
    };
    let value = T::read(&mut reader)?;
    if !reader.is_empty() {
        return Err(WireError::Corrupt(format!(
            "{} trailing bytes after the frame body",
            reader.len()
        )));
    }
    Ok((value, trace))
}

/// Whether `buffer` (a read buffer already known to start a request) holds at
/// least one *complete* request of either codec — the flush-deferral test of
/// the pipelined server loop, generalised to mixed codecs.
pub(crate) fn holds_complete_request(buffer: &[u8]) -> bool {
    let mut rest = buffer;
    // Skip leading blank bytes (the JSON path ignores blank lines).
    while let [b, tail @ ..] = rest {
        if b.is_ascii_whitespace() {
            rest = tail;
        } else {
            break;
        }
    }
    match rest.first() {
        None => false,
        Some(&BINARY_MAGIC) => {
            if rest.len() < 5 {
                return false;
            }
            let len = u32::from_le_bytes([rest[1], rest[2], rest[3], rest[4]]) as usize;
            // A malformed length still counts as "something to answer
            // immediately" — the server will reply and close without waiting
            // for more bytes.
            len == 0 || len > MAX_FRAME_LEN || rest.len() >= 5 + len
        }
        Some(_) => rest.contains(&b'\n'),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{
        write_get, write_mget, write_points, write_put, Op, OpStats, PointOutcome, QueryPoint,
        ServerStats, ShardDigest,
    };
    use srra_explore::codec::{BinWriter, Head};
    use srra_explore::PointRecord;
    use srra_obs::{MetricsSnapshot, Registry, SeriesSample, SnapshotDelta, Span};

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
            ops: vec![OpStats {
                op: "get".to_owned(),
                count: 9,
                p50_us: 63,
                p99_us: 255,
            }],
        }
    }

    fn sample_snapshot() -> MetricsSnapshot {
        let registry = Registry::new();
        registry.counter("serve_requests_total").add(7);
        registry.gauge("serve_open_connections").set(-1);
        let latency = registry.histogram("serve_op_get_latency_us");
        latency.record_micros(40);
        latency.record_micros(5_000);
        latency.record_traced(std::time::Duration::from_micros(90), "sweep-7.a");
        registry.snapshot()
    }

    fn every_request() -> Vec<Request> {
        vec![
            Request::Get {
                canonical: "kernel=fir;algo=CPA-RA;budget=32;latency=2;device=XCV1000-BG560"
                    .to_owned(),
            },
            Request::Get {
                canonical: "nasty \"quoted\" \\ \n canonical — ünïcødé".to_owned(),
            },
            Request::MultiGet {
                canonicals: vec!["a".to_owned(), String::new(), "c".to_owned()],
            },
            Request::Explore {
                points: vec![
                    QueryPoint::new("fir", "cpa", 32),
                    QueryPoint {
                        kernel: "mat".to_owned(),
                        algorithm: "FR-RA".to_owned(),
                        budget: u64::MAX,
                        ram_latency: 0,
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
        ]
    }

    fn every_response() -> Vec<Response> {
        let record = sample_record();
        let mut extreme = sample_record();
        extreme.clock_period_ns = f64::NAN;
        extreme.execution_time_us = f64::INFINITY;
        vec![
            Response::Found {
                record: record.clone(),
            },
            Response::Found { record: extreme },
            Response::NotFound,
            Response::MultiGot {
                records: vec![Some(record.clone()), None, Some(record.clone())],
            },
            Response::MultiGot {
                records: vec![None],
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
                canonicals: vec!["kernel=fir;algo=CPA-RA;budget=32".to_owned()],
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
        ]
    }

    fn frame_round_trip<T>(
        value: &T,
        trace: Option<&str>,
        encode: impl Fn(&mut Vec<u8>, Option<&str>, &T) -> Result<(), WireError>,
    ) -> (T, Option<String>)
    where
        T: Decode,
    {
        let mut wire = Vec::new();
        encode(&mut wire, trace, value).expect("encodes");
        let mut reader = wire.as_slice();
        let mut payload = Vec::new();
        read_frame(&mut reader, &mut payload).expect("frame reads");
        assert!(reader.is_empty(), "frame consumed exactly");
        decode_payload(&payload).expect("payload decodes")
    }

    #[test]
    fn every_request_variant_round_trips() {
        for request in every_request() {
            let (back, trace) = frame_round_trip(&request, None, encode_request_frame);
            assert_eq!(back, request);
            assert_eq!(trace, None);
            let (back, trace) = frame_round_trip(&request, Some("t-1.a"), encode_request_frame);
            assert_eq!(back, request);
            assert_eq!(trace.as_deref(), Some("t-1.a"));
        }
    }

    #[test]
    fn every_response_variant_round_trips() {
        for response in every_response() {
            let (back, trace) = frame_round_trip(&response, Some("x"), encode_response_frame);
            assert_eq!(trace.as_deref(), Some("x"));
            // NaN != NaN under PartialEq: compare via the JSON rendering,
            // which is bit-faithful for floats.
            assert_eq!(back.render(), response.render());
        }
    }

    #[test]
    fn borrowed_encoders_match_the_owned_request_encoding() {
        let canonicals = vec!["a".to_owned(), "b".to_owned()];
        let points = vec![QueryPoint::new("fir", "cpa", 32)];
        let records = vec![sample_record()];
        let borrowed = |body: &dyn Fn(&mut Vec<u8>) -> Result<(), WireError>| {
            let mut frame = Vec::new();
            frame_into(&mut frame, Some("t-1"), body).unwrap();
            frame
        };
        let cases: Vec<(Request, Vec<u8>)> = vec![
            (
                Request::Get {
                    canonical: "a".to_owned(),
                },
                borrowed(&|out| write_get(&mut BinWriter(out), "a")),
            ),
            (
                Request::MultiGet {
                    canonicals: canonicals.clone(),
                },
                borrowed(&|out| write_mget(&mut BinWriter(out), &canonicals)),
            ),
            (
                Request::Explore {
                    points: points.clone(),
                },
                borrowed(&|out| write_points(&mut BinWriter(out), Op::Explore, &points)),
            ),
            (
                Request::MultiExplore {
                    points: points.clone(),
                },
                borrowed(&|out| write_points(&mut BinWriter(out), Op::MultiExplore, &points)),
            ),
            (
                Request::Put {
                    records: records.clone(),
                },
                borrowed(&|out| write_put(&mut BinWriter(out), &records)),
            ),
        ];
        for (request, borrowed) in cases {
            let mut owned = Vec::new();
            encode_request_frame(&mut owned, Some("t-1"), &request).unwrap();
            assert_eq!(borrowed, owned, "{request:?}");
        }
    }

    #[test]
    fn truncated_and_oversized_frames_are_rejected() {
        let mut wire = Vec::new();
        encode_request_frame(&mut wire, None, &Request::Ping).unwrap();
        // Truncate mid-payload.
        for cut in [1, 3, wire.len() - 1] {
            let mut reader = &wire[..cut];
            let mut payload = Vec::new();
            assert!(matches!(
                read_frame(&mut reader, &mut payload),
                Err(FrameError::Io(_))
            ));
        }
        // Zero-length header.
        let zero = [BINARY_MAGIC, 0, 0, 0, 0];
        let mut reader = zero.as_slice();
        assert!(matches!(
            read_frame(&mut reader, &mut Vec::new()),
            Err(FrameError::BadLength(0))
        ));
        // Oversized header.
        let mut oversized = vec![BINARY_MAGIC];
        oversized.extend_from_slice(&(u32::MAX).to_le_bytes());
        let mut reader = oversized.as_slice();
        assert!(matches!(
            read_frame(&mut reader, &mut Vec::new()),
            Err(FrameError::BadLength(_))
        ));
    }

    #[test]
    fn corrupt_payloads_are_rejected_without_reading_past_the_frame() {
        // Unknown tag.
        let payload = [0u8, 0xEE];
        assert!(matches!(
            decode_payload::<Request>(&payload),
            Err(WireError::Corrupt(_))
        ));
        // Trailing garbage after a valid body.
        let mut wire = Vec::new();
        encode_request_frame(&mut wire, None, &Request::Ping).unwrap();
        let mut payload = wire[5..].to_vec();
        payload.push(0);
        assert!(decode_payload::<Request>(&payload).is_err());
        // Empty batches are rejected like their JSON twins.
        let mut body = vec![0u8, Op::MultiGet.tag()];
        body.extend_from_slice(&0u32.to_le_bytes());
        assert!(matches!(
            decode_payload::<Request>(&body),
            Err(WireError::Corrupt(_))
        ));
        // Bad trace bytes.
        let payload = [3u8, b'a', b' ', b'b', Op::Ping.tag()];
        assert!(matches!(
            decode_payload::<Request>(&payload),
            Err(WireError::Corrupt(_))
        ));
    }

    #[test]
    fn cross_codec_equivalence_binary_and_json_agree() {
        // A reply decoded from the binary codec carries the same record a
        // JSON reply parses to, byte-identical when re-rendered as JSON.
        let record = sample_record();
        let response = Response::Found {
            record: record.clone(),
        };
        let json_line = response.render();
        let from_json = Response::parse(&json_line).unwrap();

        let mut wire = Vec::new();
        encode_response_frame(&mut wire, None, &response).unwrap();
        let mut reader = wire.as_slice();
        let mut payload = Vec::new();
        read_frame(&mut reader, &mut payload).unwrap();
        let (from_binary, _) = decode_payload::<Response>(&payload).unwrap();

        assert_eq!(from_binary, from_json);
        assert_eq!(
            from_binary.render(),
            json_line,
            "re-render is byte-identical"
        );
        let Response::Found { record: back } = from_binary else {
            panic!("wrong variant");
        };
        assert_eq!(back.to_json_line(), record.to_json_line());
    }

    #[test]
    fn magic_byte_can_never_open_a_json_request() {
        assert_ne!(BINARY_MAGIC, b'{');
        assert!(!BINARY_MAGIC.is_ascii_whitespace());
        for request in every_request() {
            let line = request.render();
            assert_ne!(line.as_bytes()[0], BINARY_MAGIC, "{line}");
        }
    }

    #[test]
    fn complete_request_detection_handles_both_codecs() {
        assert!(!holds_complete_request(b""));
        assert!(!holds_complete_request(b"   \n  "));
        assert!(!holds_complete_request(b"{\"op\":\"ping\"}"));
        assert!(holds_complete_request(b"{\"op\":\"ping\"}\n"));
        assert!(holds_complete_request(b"  \n{\"op\":\"ping\"}\n"));

        let mut wire = Vec::new();
        encode_request_frame(&mut wire, None, &Request::Ping).unwrap();
        assert!(holds_complete_request(&wire));
        assert!(!holds_complete_request(&wire[..wire.len() - 1]));
        assert!(!holds_complete_request(&wire[..3]));
        // A malformed length is "complete": the server answers and closes.
        assert!(holds_complete_request(&[BINARY_MAGIC, 0, 0, 0, 0]));
        assert!(holds_complete_request(&[BINARY_MAGIC, 255, 255, 255, 255]));
    }
}
