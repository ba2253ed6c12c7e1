//! Both codecs enforce the same semantic request rules: a request that
//! breaks one is rejected from its JSON line and from its binary frame, and
//! the binary error carries the JSON message.

use srra_serve::{decode_payload, encode_request_frame, Request};

/// One request per semantic rule, each breaking it.
fn invalid_requests() -> Vec<Request> {
    vec![
        Request::MultiGet {
            canonicals: Vec::new(),
        },
        Request::Explore { points: Vec::new() },
        Request::MultiExplore { points: Vec::new() },
        Request::Put {
            records: Vec::new(),
        },
        Request::Trace {
            id: "no spaces".to_owned(),
        },
        Request::Series {
            last: 0,
            window_us: 0,
        },
        Request::Series {
            last: 4,
            window_us: 1_000,
        },
        Request::Scan {
            shard: 0,
            offset: 0,
            limit: 0,
        },
    ]
}

#[test]
fn both_codecs_reject_each_invalid_request_with_the_same_message() {
    for request in invalid_requests() {
        let line = request.render();
        let Err(json) = Request::parse(&line) else {
            panic!("JSON accepted {line}");
        };
        let mut frame = Vec::new();
        encode_request_frame(&mut frame, None, &request).expect("encodes");
        // The payload follows the magic byte and the u32 length.
        let Err(binary) = decode_payload::<Request>(&frame[5..]) else {
            panic!("binary accepted {request:?}");
        };
        let binary = binary.to_string();
        assert!(
            binary.ends_with(&json),
            "{request:?}: binary says `{binary}`, JSON says `{json}`"
        );
    }
}
