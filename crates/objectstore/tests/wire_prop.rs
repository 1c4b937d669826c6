//! Property tests for the HTTP/1.1 wire codec (`net::wire`).
//!
//! The codec owns its framing headers (`content-length` on requests,
//! `transfer-encoding` on responses, the deadline budget) and promises that
//! `encode → frame → decode → re-encode` reproduces the exact wire bytes:
//! arbitrary header sets (including every `x-scoop-*` constant), binary
//! bodies, suffix ranges and 416 responses must all survive the round trip
//! byte-identically. These properties hold the codec to that contract so a
//! pooled, pipelined connection can never desynchronize on a frame the
//! types can legally express.

use bytes::Bytes;
use proptest::prelude::*;
use scoop_common::{headers, Deadline};
use scoop_objectstore::net::wire::{
    self, BodyFraming, FrameReader, StartLine, Target,
};
use scoop_objectstore::request::{Headers, Method, Request, Response};
use scoop_objectstore::ObjectPath;
use std::io::Cursor;
use std::time::Duration;

type Frame = FrameReader<Cursor<Vec<u8>>>;

/// Uniform choice from a static slice (the vendored proptest has no
/// `sample::select`).
fn select<T: Copy + 'static>(items: &'static [T]) -> impl Strategy<Value = T> {
    (0usize..items.len()).prop_map(move |i| items[i])
}

/// Every wire-crossing header constant; arbitrary subsets ride generated
/// frames so no constant can silently stop surviving the codec.
const SCOOP_HEADERS: &[&str] = &[
    headers::AUTH_TOKEN,
    headers::UPLOAD_TOKEN,
    headers::BACKEND_STAGE,
    headers::RUN_STORLET,
    headers::STORLET_PARAMETERS,
    headers::STORLET_RUN_ON,
    headers::STORLET_RANGE,
    headers::STORLET_INVOKED,
    headers::STORLET_DEGRADED,
    headers::OBJECT_LENGTH,
    headers::TRACE,
    headers::ERROR_KIND,
    headers::LIST_PREFIX,
    headers::STREAM_ERROR,
    "x-object-meta-owner", // OBJECT_META_PREFIX + a user suffix
];

/// A header value that survives the decoder's `trim()` untouched: printable
/// ASCII with no leading/trailing whitespace (values with control bytes are
/// rejected by the encoder, values with outer whitespace are canonicalized
/// — neither can be byte-identical, so neither is generated).
fn header_value() -> impl Strategy<Value = String> {
    "[ -~]{0,26}".prop_map(|s| s.trim().to_string())
}

/// A header name the codec does not own. `transfer-encoding` is framing
/// (stripped by the decoder); everything else crosses verbatim.
fn header_name() -> impl Strategy<Value = String> {
    "[a-z][a-z0-9-]{0,16}".prop_filter("framing header names are codec-owned", |n| {
        n != "transfer-encoding"
    })
}

/// An arbitrary header map: generated names plus a subset of the
/// `x-scoop-*` constants, each with an arbitrary value. Also seeds *stale*
/// copies of the request framing headers (`content-length`, the deadline
/// budget) at some probability — the encoder must skip them and write
/// canonical values, so a stale map entry can never lie about the body.
fn header_map(with_stale_framing: bool) -> impl Strategy<Value = Headers> {
    let named = proptest::collection::vec((header_name(), header_value()), 0..6);
    let scoop = proptest::collection::vec((select(SCOOP_HEADERS), header_value()), 0..4);
    let stale = if with_stale_framing {
        proptest::option::of(0u64..u64::MAX).boxed()
    } else {
        Just(None).boxed()
    };
    (named, scoop, stale).prop_map(|(named, scoop, stale)| {
        let mut h = Headers::new();
        for (name, value) in named {
            h.set(&name, value);
        }
        for (name, value) in scoop {
            h.set(name, value);
        }
        if let Some(n) = stale {
            h.set("content-length", n.to_string());
            h.set(headers::DEADLINE_MS, n.to_string());
        }
        h
    })
}

/// A path segment exercising the percent-escaper: spaces, `%`, `+`/`=`/`&`,
/// non-ASCII bytes.
fn segment() -> impl Strategy<Value = String> {
    "[a-zA-Z0-9 %._+&=ïü-]{1,12}"
        .prop_filter("segments must hold a non-space byte", |s| !s.trim().is_empty())
}

/// An object path, including pseudo-directory `/` in object names.
fn object_path() -> impl Strategy<Value = ObjectPath> {
    (segment(), segment(), proptest::collection::vec(segment(), 1..3)).prop_map(
        |(account, container, object)| {
            ObjectPath::new(account, container, object.join("/")).unwrap()
        },
    )
}

/// Top-level segments that address an endpoint, never an account.
fn routable_account(account: &str) -> bool {
    !matches!(account, "info" | "metrics" | "events" | "trace")
}

/// Any routable request target: each endpoint, and containers and objects
/// whose segments exercise the escaper.
fn target() -> impl Strategy<Value = Target> {
    prop_oneof![
        Just(Target::Info),
        Just(Target::Metrics),
        Just(Target::Events),
        segment().prop_map(Target::Trace),
        (segment(), segment())
            .prop_filter("reserved namespaces never route as accounts", |(a, _)| {
                routable_account(a)
            })
            .prop_map(|(account, container)| Target::Container { account, container }),
        object_path()
            .prop_filter("reserved namespaces never route as accounts", |p| {
                routable_account(&p.account)
            })
            .prop_map(Target::Object),
    ]
}

const METHODS: &[Method] =
    &[Method::Get, Method::Put, Method::Delete, Method::Head, Method::Post];

/// An arbitrary request: binary body on PUT/POST, optional range header
/// (bounded or suffix form) on the rest.
fn request() -> impl Strategy<Value = Request> {
    (
        select(METHODS),
        object_path(),
        header_map(true),
        proptest::collection::vec(any::<u8>(), 1..2048),
        proptest::option::of(prop_oneof![
            (0u64..1000, 1u64..1000).prop_map(|(a, b)| format!("bytes={a}-{}", a + b)),
            (1u64..100_000).prop_map(|n| format!("bytes=-{n}")), // suffix form
        ]),
    )
        .prop_map(|(method, path, headers, body, range)| {
            let body = matches!(method, Method::Put | Method::Post)
                .then(|| Bytes::from(body));
            let mut req = Request { method, path, headers, body, deadline: Deadline::none() };
            if let Some(r) = range {
                req = req.with_header("range", r);
            }
            req
        })
}

/// Decode one request frame and reassemble the [`Request`].
fn decode_request(bytes: &[u8]) -> Request {
    let mut r = FrameReader::new(Cursor::new(bytes.to_vec()));
    let head = r.read_head().unwrap().expect("frame must hold a head");
    let framing = Frame::body_framing(&head).unwrap();
    let StartLine::Request { method, target } = head.start else {
        panic!("request frame decoded as a response")
    };
    let Target::Object(path) = wire::decode_target(&target).unwrap() else {
        panic!("object request decoded as a non-object target")
    };
    let body = match framing {
        BodyFraming::ContentLength(n) => Some(r.read_exact_body(n).unwrap()),
        BodyFraming::None => None,
        BodyFraming::Chunked => panic!("requests are content-length framed"),
    };
    assert!(r.is_drained(), "decode must consume the whole frame");
    wire::request_from_parts(method, path, head.headers, body).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any request round-trips byte-identically: the re-encoded decode of a
    /// frame *is* that frame, however adversarial the header map (stale
    /// framing entries, every `x-scoop-*` constant, suffix ranges) and
    /// however binary the body.
    #[test]
    fn request_frames_roundtrip_byte_identically(req in request()) {
        let bytes = wire::encode_request(&req).unwrap();
        let decoded = decode_request(&bytes);
        prop_assert_eq!(decoded.method, req.method);
        prop_assert_eq!(&decoded.path, &req.path);
        prop_assert_eq!(decoded.body.as_ref(), req.body.as_ref());
        // Every non-framing header crossed verbatim.
        for (name, value) in req.headers.iter() {
            if name == "content-length" || name == headers::DEADLINE_MS {
                continue;
            }
            prop_assert_eq!(decoded.headers.get(name), Some(value), "header {}", name);
        }
        // The codec owns the deadline budget: a stale map entry must not
        // resurrect as a deadline on the decoded request.
        prop_assert!(!decoded.deadline.is_set());
        prop_assert!(!decoded.headers.contains(headers::DEADLINE_MS));
        let reencoded = wire::encode_request(&decoded).unwrap();
        prop_assert_eq!(reencoded, bytes, "encode → decode → encode must be byte-identical");
    }

    /// `encode_target` inverts `decode_target`: every routable target —
    /// endpoint, container or object — decodes back to itself.
    #[test]
    fn targets_roundtrip_through_the_encoder(target in target()) {
        let encoded = wire::encode_target(&target);
        prop_assert_eq!(wire::decode_target(&encoded).unwrap(), target);
    }

    /// A live deadline crosses as a shrinking budget: the decoded request
    /// carries a deadline no larger than the encoder's, and re-encoding
    /// reproduces the frame except for that one (time-dependent) header.
    #[test]
    fn deadline_budgets_only_shrink_across_hops(
        path in object_path(),
        budget_ms in 2_000u64..3_600_000,
    ) {
        let req = Request::get(path)
            .with_deadline(Deadline::within(Duration::from_millis(budget_ms)));
        let bytes = wire::encode_request(&req).unwrap();
        let decoded = decode_request(&bytes);
        prop_assert!(decoded.deadline.is_set());
        let rem = decoded.deadline.remaining().unwrap();
        prop_assert!(rem <= Duration::from_millis(budget_ms), "budgets never grow");
        prop_assert!(rem > Duration::from_millis(budget_ms / 2), "budget lost too much in codec");
        // Byte-identity modulo the budget line, which legitimately shrinks
        // with wall-clock time between the two encodes.
        let strip = |frame: &[u8]| -> Vec<u8> {
            let text = std::str::from_utf8(frame).unwrap().to_string();
            text.lines()
                .filter(|l| !l.starts_with(headers::DEADLINE_MS))
                .collect::<Vec<_>>()
                .join("\r\n")
                .into_bytes()
        };
        let reencoded = wire::encode_request(&decoded).unwrap();
        prop_assert_eq!(strip(&reencoded), strip(&bytes));
        prop_assert!(
            reencoded.windows(headers::DEADLINE_MS.len())
                .any(|w| w == headers::DEADLINE_MS.as_bytes()),
            "the budget header must survive re-encode"
        );
    }

    /// Any chunked response round-trips byte-identically, chunk boundaries
    /// included: re-framing the decoded head and chunks reproduces the wire
    /// bytes exactly, and the decoded header map mirrors the encoder's
    /// input (`transfer-encoding` owned by the codec, semantic
    /// `content-length` untouched).
    #[test]
    fn response_frames_roundtrip_byte_identically(
        status in select(&[200u16, 201, 204, 206, 404, 409, 503]),
        headers_map in header_map(false),
        chunks in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 1..512), 0..5),
    ) {
        let mut bytes = wire::encode_response_head(status, &headers_map).unwrap();
        for chunk in &chunks {
            wire::write_chunk(&mut bytes, chunk).unwrap();
        }
        wire::finish_chunks(&mut bytes).unwrap();

        let mut r = FrameReader::new(Cursor::new(bytes.clone()));
        let head = r.read_head().unwrap().unwrap();
        prop_assert_eq!(Frame::body_framing(&head).unwrap(), BodyFraming::Chunked);
        let StartLine::Status(code) = head.start else {
            panic!("response frame decoded as a request")
        };
        prop_assert_eq!(code, status);
        prop_assert!(!head.headers.contains("transfer-encoding"));
        let mut decoded_chunks = Vec::new();
        while let Some(chunk) = r.read_chunk().unwrap() {
            decoded_chunks.push(chunk);
        }
        prop_assert!(r.is_drained());
        prop_assert_eq!(decoded_chunks.len(), chunks.len(), "chunk boundaries must survive");
        for (got, want) in decoded_chunks.iter().zip(&chunks) {
            prop_assert_eq!(&got[..], &want[..]);
        }
        for (name, value) in headers_map.iter() {
            prop_assert_eq!(head.headers.get(name), Some(value), "header {}", name);
        }

        let mut reencoded = wire::encode_response_head(status, &head.headers).unwrap();
        for chunk in &decoded_chunks {
            wire::write_chunk(&mut reencoded, chunk).unwrap();
        }
        wire::finish_chunks(&mut reencoded).unwrap();
        prop_assert_eq!(reencoded, bytes, "encode → decode → encode must be byte-identical");
    }

    /// 416 responses survive the wire: the RFC 7233 `bytes */total` form is
    /// preserved for any object size and the empty body still frames as a
    /// clean chunked terminator.
    #[test]
    fn range_not_satisfiable_roundtrips(total in 0u64..u64::MAX) {
        let resp = Response::range_not_satisfiable(total);
        let mut bytes = wire::encode_response_head(resp.status, &resp.headers).unwrap();
        wire::finish_chunks(&mut bytes).unwrap();

        let mut r = FrameReader::new(Cursor::new(bytes.clone()));
        let head = r.read_head().unwrap().unwrap();
        let StartLine::Status(code) = head.start else { panic!("not a response") };
        prop_assert_eq!(code, 416);
        let want = format!("bytes */{total}");
        prop_assert_eq!(head.headers.get("content-range"), Some(want.as_str()));
        prop_assert!(r.read_chunk().unwrap().is_none(), "416 bodies are empty");
        prop_assert!(r.is_drained());
        let mut reencoded = wire::encode_response_head(code, &head.headers).unwrap();
        wire::finish_chunks(&mut reencoded).unwrap();
        prop_assert_eq!(reencoded, bytes);
    }

    /// A mid-stream failure after any prefix of data chunks crosses as a
    /// trailer that rebuilds the exact error kind and message, for every
    /// kind in the taxonomy — retryability survives the wire even when the
    /// status line is long gone.
    #[test]
    fn stream_error_trailers_preserve_the_taxonomy(
        chunks in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 1..256), 0..4),
        kind in select(&["io", "not_found", "csv", "storlet", "compute", "deadline", "internal"]),
        msg in "[!-~][ -~]{0,20}".prop_map(|s| s.trim_end().to_string()),
    ) {
        let failure = wire::error_from_kind(kind, msg.clone());
        let mut bytes = Vec::new();
        for chunk in &chunks {
            wire::write_chunk(&mut bytes, chunk).unwrap();
        }
        wire::finish_chunks_with_error(&mut bytes, &failure).unwrap();

        let mut r = FrameReader::new(Cursor::new(bytes));
        for chunk in &chunks {
            prop_assert_eq!(&r.read_chunk().unwrap().unwrap()[..], &chunk[..]);
        }
        let err = r.read_chunk().unwrap_err();
        prop_assert_eq!(err.kind(), kind, "trailer must preserve the error kind");
        prop_assert_eq!(err.is_retryable(), failure.is_retryable());
        prop_assert!(err.to_string().contains(&msg), "trailer must preserve the message");
        prop_assert!(r.is_drained(), "an error trailer still completes the frame");
    }
}
