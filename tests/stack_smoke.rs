//! Tier-1 smoke test of the serving stack. `cargo test -q` at the root
//! runs the root package only, so without this file a break in service,
//! store or obs is invisible to the tier-1 gate. One in-process,
//! store-backed `ServiceState`, one short fixed session through its one
//! `handle`: every witness frame must survive the wire encoding and
//! validate against the schema it answers, and a restart on the same
//! store must answer the re-asks byte-identically from the store.

use softhw_hypergraph::{named, parse_hypergraph, render_hypergraph, Hypergraph};
use softhw_service::{
    read_frame, BatchRequest, EvalKind, Request, RequestClass, RequestCtx, Response, ServiceConfig,
    ServiceState, WireRequest,
};

/// The decomposition asks of the session, for one schema.
fn asks(schema: &str) -> Vec<Request> {
    [
        RequestClass::Shw,
        RequestClass::ShwLeq(1),
        RequestClass::Hw,
        RequestClass::Best(EvalKind::ConCov, 2),
    ]
    .into_iter()
    .map(|class| Request::new(class, schema))
    .collect()
}

/// The decomposition part of the fixed session: the asks on `H2` one
/// by one, then the same asks on the 4-cycle as one `BATCH`.
fn solves(h2: &str, c4: &str) -> Vec<WireRequest> {
    let mut out: Vec<WireRequest> = asks(h2).into_iter().map(WireRequest::Single).collect();
    out.push(WireRequest::Batch(BatchRequest::new(asks(c4))));
    out
}

/// Sends `req`, returning the encoded response frame and what a client
/// decodes from it.
fn roundtrip(state: &ServiceState, req: &WireRequest) -> (String, Response) {
    let text = state.handle(req, &RequestCtx::default());
    let lines = read_frame(&mut text.as_bytes())
        .expect("in-memory read")
        .expect("one complete frame");
    let decoded = Response::decode(&lines).expect("the service's own frames decode");
    (text, decoded)
}

/// Asserts `resp` carries a witness (when `accepted`) that decodes and
/// validates against `h`.
fn assert_witness(resp: &Response, h: &Hypergraph, accepted: bool) {
    let frame = match resp {
        Response::Width { td, .. } => Some(td),
        Response::Decision { td, .. } => td.as_ref(),
        other => panic!("expected a decomposition answer, got {other:?}"),
    };
    assert_eq!(frame.is_some(), accepted, "{resp:?}");
    if let Some(frame) = frame {
        let td = frame.to_td().expect("witness frame decodes");
        assert_eq!(td.validate(h), Ok(()));
    }
}

fn stat(resp: &Response, key: &str) -> u64 {
    let Response::Stats { fields } = resp else {
        panic!("expected STATS, got {resp:?}");
    };
    let (_, v) = fields.iter().find(|(k, _)| k == key).expect(key);
    v.parse().expect("numeric stat")
}

#[test]
fn store_backed_session_validates_and_restarts_byte_identically() {
    let path =
        std::env::temp_dir().join(format!("softhw-stack-smoke-{}.store", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let (h2, c4) = (
        render_hypergraph(&named::h2()),
        render_hypergraph(&named::cycle(4)),
    );
    // Witnesses are over the vertex numbering the service parses.
    let parsed = |text: &str| parse_hypergraph(text).expect("rendered schemas parse");
    let (h2_graph, c4_graph) = (parsed(&h2), parsed(&c4));
    let solves = solves(&h2, &c4);
    let stats = WireRequest::Single(Request::new(RequestClass::Stats, h2.as_str()));
    let metrics = WireRequest::Single(Request::new(RequestClass::Metrics, ""));
    // shw = 2 on both, so `SHW_LEQ 1` rejects; the 4-cycle has a
    // connected-cover decomposition at width 2, `H2` (hw = 3) has none.
    let h2_accepts = [true, false, true, false];
    let c4_accepts = [true, false, true, true];
    let config = || ServiceConfig {
        warm_start: 0, // re-asks after the restart go to the store
        ..ServiceConfig::default()
    };

    let first: Vec<String> = {
        let state = ServiceState::open_store(config(), &path).expect("create store");
        let (frames, answers): (Vec<String>, Vec<Response>) =
            solves.iter().map(|r| roundtrip(&state, r)).unzip();
        let (singles, batch) = answers.split_at(h2_accepts.len());
        for (answer, &yes) in singles.iter().zip(&h2_accepts) {
            assert_witness(answer, &h2_graph, yes);
        }
        let [Response::Batch { responses }] = batch else {
            panic!("expected one BATCH answer, got {batch:?}");
        };
        assert_eq!(responses.len(), c4_accepts.len());
        for (resp, &yes) in responses.iter().zip(&c4_accepts) {
            assert_witness(resp, &c4_graph, yes);
        }
        assert_eq!(stat(&roundtrip(&state, &stats).1, "store_hits"), 0);
        let Response::Metrics { lines } = roundtrip(&state, &metrics).1 else {
            panic!("expected a METRICS answer");
        };
        assert!(lines.iter().any(|l| l.starts_with("softhw_")));
        frames
    }; // dropped: the persister drains and the log is durable

    let state = ServiceState::open_store(config(), &path).expect("reopen store");
    for (req, before) in solves.iter().zip(&first) {
        assert_eq!(
            &roundtrip(&state, req).0,
            before,
            "restart changed an answer"
        );
    }
    assert_eq!(
        stat(&roundtrip(&state, &stats).1, "store_hits"),
        (h2_accepts.len() + c4_accepts.len()) as u64
    );
    drop(state);
    let _ = std::fs::remove_file(&path);
}
