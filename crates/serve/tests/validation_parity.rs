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

/// A batch one entry over the codec's sequence cap (1 << 20) is refused by
/// both codecs with the same message: the binary encoder will not write
/// it, the binary decoder rejects a frame that carries it anyway, and the
/// JSON decoder rejects its line.
#[test]
fn both_codecs_refuse_a_batch_over_the_sequence_cap() {
    const CAP: usize = 1 << 20;
    let message = format!("sequence length {} exceeds the {CAP} cap", CAP + 1);
    let mut canonicals = vec!["a".to_owned(); CAP];

    // At the cap the frame encodes; patch its count header to one more and
    // append the extra entry.
    let mut frame = Vec::new();
    let at_cap = Request::MultiGet {
        canonicals: canonicals.clone(),
    };
    encode_request_frame(&mut frame, None, &at_cap).expect("encodes at the cap");
    let mut payload = frame[5..].to_vec();
    payload[2..6].copy_from_slice(&(CAP as u32 + 1).to_le_bytes());
    payload.extend_from_slice(&1u32.to_le_bytes());
    payload.push(b'a');
    let Err(binary) = decode_payload::<Request>(&payload) else {
        panic!("binary decoder accepted an over-cap batch");
    };
    assert!(binary.to_string().ends_with(&message), "{binary}");

    canonicals.push("a".to_owned());
    let over = Request::MultiGet { canonicals };
    let Err(encoded) = encode_request_frame(&mut Vec::new(), None, &over) else {
        panic!("binary encoder wrote an over-cap batch");
    };
    assert!(encoded.to_string().ends_with(&message), "{encoded}");
    let Err(json) = Request::parse(&over.render()) else {
        panic!("JSON decoder accepted an over-cap batch");
    };
    assert!(json.ends_with(&message), "{json}");
}
