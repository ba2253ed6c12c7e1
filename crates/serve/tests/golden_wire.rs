//! Golden wire fixtures: the exact bytes every request and response variant
//! encodes to, in both codecs, untraced and traced, plus one record cache
//! line.
//!
//! The fixture files under `tests/golden/` pin the wire format.  Each test
//! encodes a fixed value list and compares the result to its fixture file
//! byte for byte, then decodes every fixture entry and checks that it gives
//! back the value it was recorded from.  A refactor of either codec that
//! changes one byte on the wire fails here.
//!
//! Text fixtures hold one JSON line per value; binary fixtures hold one
//! frame per line as lowercase hex.

use std::path::PathBuf;

use srra_explore::PointRecord;
use srra_obs::Registry;
use srra_serve::{
    decode_payload, encode_request_frame, encode_response_frame, read_frame, stamp_trace,
    trace_suffix, OpStats, PointOutcome, QueryPoint, Request, Response, SeriesSample, ServerStats,
    ShardDigest, SnapshotDelta, Span,
};

const TRACE: &str = "golden-7.a";

fn fixture(name: &str) -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|err| panic!("fixture {}: {err}", path.display()))
}

/// A record whose strings need every kind of JSON escape and whose floats
/// sit at the edges of the f64 range.
fn extreme_record() -> PointRecord {
    PointRecord {
        key: 0xffff_0000_1234_abcd,
        canonical: "kernel=fir;algo=CPA-RA;budget=32;latency=2;device=XCV1000-BG560".to_owned(),
        kernel: "fir \"quoted\"".to_owned(),
        algorithm: "CPA-RA\\back".to_owned(),
        version: "v3\ttab\r\n".to_owned(),
        budget: u64::MAX,
        ram_latency: 0,
        device: "XCV1000-BG560 \u{1} ünïcødé →".to_owned(),
        feasible: false,
        fits: true,
        registers_used: 17,
        total_cycles: 4242,
        compute_cycles: 4000,
        memory_cycles: 200,
        transfer_cycles: 42,
        clock_period_ns: f64::MAX,
        execution_time_us: 5e-324,
        slices: 471,
        block_rams: 3,
        distribution: "a:16 \"b\":1 \\c\u{1f}".to_owned(),
    }
}

fn plain_record() -> PointRecord {
    PointRecord {
        key: 0x1234_5678_9abc_def0,
        canonical: "kernel=mat;algo=FR-RA;budget=8;latency=1;device=XCV300-BG432".to_owned(),
        kernel: "mat".to_owned(),
        algorithm: "FR-RA".to_owned(),
        version: "v1".to_owned(),
        budget: 8,
        ram_latency: 1,
        device: "XCV300-BG432".to_owned(),
        feasible: true,
        fits: true,
        registers_used: 8,
        total_cycles: 123_456,
        compute_cycles: 100_000,
        memory_cycles: 20_000,
        transfer_cycles: 3_456,
        clock_period_ns: -0.0,
        execution_time_us: f64::MIN_POSITIVE,
        slices: 0,
        block_rams: 0,
        distribution: String::new(),
    }
}

fn snapshot() -> srra_obs::MetricsSnapshot {
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
            canonical: "kernel=fir;algo=CPA-RA;budget=32;latency=2;device=XCV1000-BG560".to_owned(),
        },
        Request::Get {
            canonical: "nasty \"quoted\" \\ \n canonical — ünïcødé".to_owned(),
        },
        Request::MultiGet {
            canonicals: vec!["a".to_owned(), String::new(), "c\"d".to_owned()],
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
            records: vec![extreme_record(), plain_record()],
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
    let record = extreme_record();
    vec![
        Response::Found {
            record: record.clone(),
        },
        Response::Found {
            record: plain_record(),
        },
        Response::NotFound,
        Response::MultiGot {
            records: vec![Some(record.clone()), None, Some(plain_record())],
        },
        Response::Explored {
            records: vec![record.clone(), plain_record()],
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
        Response::Stats(ServerStats {
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
        }),
        Response::Metrics(snapshot()),
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
                    annotations: vec![("points".to_owned(), "4 \"quoted\"".to_owned())],
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
                    metrics: snapshot(),
                },
                SeriesSample {
                    at_us: 2_000_000,
                    metrics: snapshot(),
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
                diff: snapshot(),
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
                "\\".to_owned(),
            ],
            done: false,
        },
        Response::Scanned {
            canonicals: Vec::new(),
            done: true,
        },
        Response::ShuttingDown,
        Response::Error {
            message: "unknown kernel `nope`: \"quoted\"\n".to_owned(),
        },
    ]
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|byte| format!("{byte:02x}")).collect()
}

fn unhex(text: &str) -> Vec<u8> {
    assert!(text.len() % 2 == 0, "odd hex line");
    (0..text.len())
        .step_by(2)
        .map(|at| u8::from_str_radix(&text[at..at + 2], 16).expect("hex digit"))
        .collect()
}

/// Renders one JSON line per value, stamped with [`TRACE`] when `traced`.
fn json_lines<T>(values: &[T], traced: bool, render: impl Fn(&T) -> String) -> String {
    let mut out = String::new();
    for value in values {
        let mut line = render(value);
        if traced {
            stamp_trace(&mut line, TRACE);
        }
        out.push_str(&line);
        out.push('\n');
    }
    out
}

/// Encodes one hex frame line per value, carrying [`TRACE`] when `traced`.
fn hex_frames<T>(
    values: &[T],
    traced: bool,
    encode: impl Fn(&mut Vec<u8>, Option<&str>, &T) -> Result<(), srra_explore::WireError>,
) -> String {
    let trace = traced.then_some(TRACE);
    let mut out = String::new();
    for value in values {
        let mut frame = Vec::new();
        encode(&mut frame, trace, value).expect("encodes");
        out.push_str(&hex(&frame));
        out.push('\n');
    }
    out
}

/// Reads one hex frame line back into its payload's value and trace id.
fn decode_frame<T: srra_explore::codec::Decode>(line: &str) -> (T, Option<String>) {
    let wire = unhex(line);
    let mut reader = wire.as_slice();
    let mut payload = Vec::new();
    read_frame(&mut reader, &mut payload).expect("frame reads");
    assert!(reader.is_empty(), "one frame per line");
    decode_payload(&payload).expect("payload decodes")
}

/// Strips a stamped trace id off a reply line the way the client does.
fn parse_reply(line: &str) -> (Response, Option<String>) {
    match trace_suffix(line) {
        Some((start, id)) => {
            let mut body = line[..start].to_owned();
            body.push('}');
            (
                Response::parse(&body).expect("reply parses"),
                Some(id.to_owned()),
            )
        }
        None => (Response::parse(line).expect("reply parses"), None),
    }
}

fn check_fixture(name: &str, encoded: &str, count: usize) -> String {
    let recorded = fixture(name);
    assert_eq!(
        recorded.lines().count(),
        count,
        "{name}: one entry per value"
    );
    for (index, (now, then)) in encoded.lines().zip(recorded.lines()).enumerate() {
        assert_eq!(now, then, "{name}: entry {index} changed on the wire");
    }
    assert_eq!(encoded, recorded, "{name}: bytes changed");
    recorded
}

#[test]
fn request_json_lines_match_the_fixtures() {
    let requests = every_request();
    for traced in [false, true] {
        let name = if traced {
            "request_traced.jsonl"
        } else {
            "request.jsonl"
        };
        let encoded = json_lines(&requests, traced, Request::render);
        let recorded = check_fixture(name, &encoded, requests.len());
        for (line, request) in recorded.lines().zip(&requests) {
            let (back, trace) = Request::parse_with_trace(line).expect("request parses");
            assert_eq!(&back, request, "{name}: {line}");
            assert_eq!(trace.as_deref(), traced.then_some(TRACE));
            if !traced {
                assert_eq!(&Request::parse(line).expect("request parses"), request);
            }
        }
    }
}

#[test]
fn request_binary_frames_match_the_fixtures() {
    let requests = every_request();
    for traced in [false, true] {
        let name = if traced {
            "request_traced.hex"
        } else {
            "request.hex"
        };
        let encoded = hex_frames(&requests, traced, encode_request_frame);
        let recorded = check_fixture(name, &encoded, requests.len());
        for (line, request) in recorded.lines().zip(&requests) {
            let (back, trace) = decode_frame::<Request>(line);
            assert_eq!(&back, request, "{name}: {line}");
            assert_eq!(trace.as_deref(), traced.then_some(TRACE));
        }
    }
}

#[test]
fn response_json_lines_match_the_fixtures() {
    let responses = every_response();
    for traced in [false, true] {
        let name = if traced {
            "response_traced.jsonl"
        } else {
            "response.jsonl"
        };
        let encoded = json_lines(&responses, traced, Response::render);
        let recorded = check_fixture(name, &encoded, responses.len());
        for (line, response) in recorded.lines().zip(&responses) {
            let (back, trace) = parse_reply(line);
            assert_eq!(&back, response, "{name}: {line}");
            assert_eq!(trace.as_deref(), traced.then_some(TRACE));
            // Signed zero compares equal to zero: the re-render pins the bits.
            let mut again = back.render();
            if traced {
                stamp_trace(&mut again, TRACE);
            }
            assert_eq!(again, line);
        }
    }
}

#[test]
fn response_binary_frames_match_the_fixtures() {
    let responses = every_response();
    for traced in [false, true] {
        let name = if traced {
            "response_traced.hex"
        } else {
            "response.hex"
        };
        let encoded = hex_frames(&responses, traced, encode_response_frame);
        let recorded = check_fixture(name, &encoded, responses.len());
        for (line, response) in recorded.lines().zip(&responses) {
            let (back, trace) = decode_frame::<Response>(line);
            assert_eq!(&back, response, "{name}: {line}");
            assert_eq!(trace.as_deref(), traced.then_some(TRACE));
            let mut again = Vec::new();
            encode_response_frame(&mut again, trace.as_deref(), &back).expect("encodes");
            assert_eq!(hex(&again), line);
        }
    }
}

#[test]
fn record_cache_line_matches_the_fixture() {
    let records = [extreme_record(), plain_record()];
    let encoded = json_lines(&records, false, PointRecord::to_json_line);
    let recorded = check_fixture("record.jsonl", &encoded, records.len());
    for (line, record) in recorded.lines().zip(&records) {
        let back = PointRecord::from_json_line(line).expect("record parses");
        assert_eq!(&back, record);
        assert_eq!(back.to_json_line(), line, "bit-exact floats");
    }
}
