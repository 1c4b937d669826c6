//! Transport parity: one request path serves both transports, so every
//! endpoint must answer an in-process client and a TCP client alike.
//!
//! One test body ([`exercise`]) runs against each transport on its own
//! fresh cluster, and the two outcomes must be equal — listings, statuses,
//! observability endpoints and error kinds. (Under `SCOOP_TRANSPORT=tcp`
//! the "in-process" arm rides TCP too, and the comparison still holds.)

use bytes::Bytes;
use scoop_common::{headers, telemetry};
use scoop_objectstore::proxy::ObjectRecord;
use scoop_objectstore::{ObjectPath, Request, SwiftClient, SwiftCluster, SwiftConfig};

/// Object names that must survive the path and listing encodings.
const NAMES: &[&str] = &["dir/a b.csv", "dir/tab\there.csv", "plain.csv"];

#[derive(Debug, PartialEq)]
struct Outcome {
    listing: Vec<ObjectRecord>,
    prefixed: Vec<ObjectRecord>,
    info_status: u16,
    metrics_has_counter: bool,
    trace_has_proxy_span: bool,
    client_spans: usize,
    events_are_json: bool,
    stats_keys_in_head: usize,
    missing_object: &'static str,
    missing_container: &'static str,
}

fn exercise(client: &SwiftClient) -> Outcome {
    client.create_container("meters").unwrap();
    for (i, name) in NAMES.iter().enumerate() {
        let body = Bytes::from(format!("id,v\n{i},{}\n", i * 7));
        client.put_object("meters", name, body).unwrap();
    }
    // Zone-map stats chunks are store-internal: stored, but never returned.
    let path = ObjectPath::new(client.account(), "meters", "plain.csv").unwrap();
    let put = Request::put(path, Bytes::from_static(b"id,v\n9,9\n"))
        .with_header(&format!("{}0", headers::SCOOP_STATS_PREFIX), "v1|opaque");
    client.request(put).unwrap();
    let head = client.head_object("meters", "plain.csv").unwrap();
    let stats_keys_in_head = head
        .headers
        .with_prefix(headers::SCOOP_STATS_PREFIX)
        .count();

    let trace = telemetry::new_trace_id();
    client.set_trace(Some(trace.clone()));
    client
        .get_object("meters", "dir/a b.csv")
        .unwrap()
        .read_body()
        .unwrap();
    let trace_json = client.trace_json(&trace).unwrap();
    let metrics = client.metrics_text().unwrap();
    let events = client.events_json().unwrap();
    let info_status = client.info().status;
    client.set_trace(None);
    // Endpoint calls record no client span: only the GET's remains.
    let client_spans = telemetry::trace_spans(&trace)
        .iter()
        .filter(|s| s.layer == telemetry::layers::CLIENT)
        .count();

    Outcome {
        listing: client.list("meters", None).unwrap(),
        prefixed: client.list("meters", Some("dir/")).unwrap(),
        info_status,
        metrics_has_counter: metrics.contains(telemetry::names::PROXY_REQUESTS),
        trace_has_proxy_span: trace_json.contains(r#""layer":"proxy""#),
        client_spans,
        events_are_json: events.starts_with(r#"{"events":["#),
        stats_keys_in_head,
        missing_object: client.get_object("meters", "ghost").unwrap_err().kind(),
        missing_container: client.list("ghost", None).unwrap_err().kind(),
    }
}

#[test]
fn every_endpoint_answers_both_transports_alike() {
    let in_process = SwiftCluster::new(SwiftConfig::default())
        .unwrap()
        .anonymous_client("AUTH_parity");
    let tcp = SwiftCluster::new(SwiftConfig::default())
        .unwrap()
        .anonymous_client("AUTH_parity")
        .over_tcp()
        .unwrap();
    assert!(tcp.is_tcp());

    let expected = exercise(&in_process);
    assert_eq!(
        expected
            .listing
            .iter()
            .map(|r| r.name.as_str())
            .collect::<Vec<_>>(),
        NAMES
    );
    assert_eq!(expected.prefixed.len(), 2);
    assert_eq!(expected.info_status, 200);
    assert!(expected.metrics_has_counter);
    assert!(expected.trace_has_proxy_span);
    assert_eq!(expected.client_spans, 1);
    assert!(expected.events_are_json);
    assert_eq!(expected.stats_keys_in_head, 0);
    assert_eq!(expected.missing_object, "not_found");
    assert_eq!(expected.missing_container, "not_found");

    assert_eq!(exercise(&tcp), expected, "the transports disagree");
}
