//! Observability must be a pure observer: a server with tracing,
//! histograms, and the slow-query ring fully enabled (`--slow-ms 0`
//! records a span tree for *every* request) must answer byte-for-byte
//! identically to a twin server with observability disabled.
//!
//! Same twin-server idiom as `pipeline_props.rs`: each side gets its
//! own fresh server with one worker so request order and cache history
//! (warm paths, memo hits, counters) match by construction. Nothing is
//! masked — STATS rows are fed by the same request-path counters and
//! cache mirrors on both sides, and the histogram/slow-ring state only
//! surfaces through `METRICS` / `STATS SLOW`, which this session never
//! sends (their payloads legitimately differ between the twins).

use softhw_hypergraph::{named, render_hypergraph};
use softhw_service::{
    read_frame, BatchRequest, EvalKind, Request, RequestClass, RequestCtx, ServeOptions, Server,
    ServiceConfig, ServiceState, WireRequest,
};
use std::io::{BufReader, Write as _};
use std::net::TcpStream;

/// One single request through the service's one `handle`: the frame.
fn handle(state: &ServiceState, req: &Request) -> String {
    state.handle(&WireRequest::Single(req.clone()), &RequestCtx::default())
}

/// Encoded frames for a mixed-class session: every answer-bearing
/// class plus STATS, HELLO, and BATCH, two rounds so warm responses
/// are compared too.
fn mixed_session() -> Vec<String> {
    let schemas: Vec<String> = [
        named::h2(),
        named::cycle(5),
        named::cycle(6),
        named::grid(3, 3),
        named::triangle_star(3),
    ]
    .iter()
    .map(render_hypergraph)
    .collect();
    let classes = [
        RequestClass::Shw,
        RequestClass::ShwLeq(1),
        RequestClass::ShwLeq(2),
        RequestClass::Hw,
        RequestClass::HwLeq(2),
        RequestClass::Best(EvalKind::Trivial, 2),
        RequestClass::Stats,
        RequestClass::Hello,
    ];
    let mut frames = Vec::new();
    for _ in 0..2 {
        for schema in &schemas {
            for class in classes {
                frames.push(Request::new(class, schema.clone()).encode());
            }
            frames.push(
                BatchRequest::new(vec![
                    Request::new(RequestClass::Shw, schema.clone()),
                    Request::new(RequestClass::HwLeq(2), schema.clone()),
                    Request::new(RequestClass::ShwLeq(1), schema.clone()),
                ])
                .encode(),
            );
        }
    }
    frames
}

fn one_worker_server(config: ServiceConfig, queue_depth: usize) -> (Server, std::net::SocketAddr) {
    let state = ServiceState::new(config);
    let server = Server::bind(
        ServeOptions {
            addr: "127.0.0.1:0".to_string(),
            workers: 1,
            max_conns: Some(1),
            queue_depth,
        },
        state,
    )
    .expect("bind loopback");
    let addr = server.local_addr().expect("local addr");
    (server, addr)
}

/// Observability fully on: per-request traces feed the slow-query ring
/// unconditionally (`slow_ms == 0` means every request is "slow").
fn observed_config() -> ServiceConfig {
    ServiceConfig {
        obs_enabled: true,
        slow_ms: Some(0),
        ..ServiceConfig::default()
    }
}

fn blind_config() -> ServiceConfig {
    ServiceConfig {
        obs_enabled: false,
        slow_ms: None,
        ..ServiceConfig::default()
    }
}

fn run_pipelined(addr: std::net::SocketAddr, frames: &[String]) -> Vec<String> {
    let mut stream = TcpStream::connect(addr).expect("connect");
    let burst: String = frames.iter().map(String::as_str).collect();
    stream.write_all(burst.as_bytes()).expect("write burst");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    (0..frames.len())
        .map(|_| reencode(read_frame(&mut reader).expect("read").expect("frame")))
        .collect()
}

fn reencode(lines: Vec<String>) -> String {
    let mut s = String::new();
    for l in &lines {
        s.push_str(l);
        s.push('\n');
    }
    s.push_str("%%\n");
    s
}

#[test]
fn observed_server_is_byte_identical_to_blind_twin() {
    let frames = mixed_session();
    let (obs_server, obs_addr) = one_worker_server(observed_config(), 2 * frames.len());
    let (blind_server, blind_addr) = one_worker_server(blind_config(), 2 * frames.len());
    let frames_ref = &frames;
    let (observed, blind) = std::thread::scope(|scope| {
        let o = scope.spawn(move || run_pipelined(obs_addr, frames_ref));
        let b = scope.spawn(move || run_pipelined(blind_addr, frames_ref));
        let (_, obs_state) = obs_server.run_state().expect("observed server");
        blind_server.run().expect("blind server");
        // The observed side really was observing: every request left a
        // span tree in the slow ring (`slow_ms == 0`).
        assert!(
            !obs_state.slow_log().is_empty(),
            "slow ring must have recorded traces with --slow-ms 0"
        );
        (
            o.join().expect("observed client"),
            b.join().expect("blind client"),
        )
    });
    assert_eq!(observed.len(), blind.len());
    for (i, (o, b)) in observed.iter().zip(&blind).enumerate() {
        assert_eq!(o, b, "response {i} diverged (frame: {:?})", frames[i]);
    }
}

#[test]
fn observed_state_answers_match_blind_state_directly() {
    // Handler-level twin (no sockets): the same request sequence
    // against two fresh states, one observed and one blind, serially.
    let schemas: Vec<String> = [named::h2(), named::cycle(5), named::grid(3, 3)]
        .iter()
        .map(render_hypergraph)
        .collect();
    let classes = [
        RequestClass::Shw,
        RequestClass::ShwLeq(2),
        RequestClass::Hw,
        RequestClass::Best(EvalKind::ConCov, 2),
        RequestClass::Stats,
    ];
    let observed = ServiceState::new(observed_config());
    let blind = ServiceState::new(blind_config());
    for _ in 0..2 {
        for schema in &schemas {
            for class in classes {
                let req = Request::new(class, schema.clone());
                assert_eq!(
                    handle(&observed, &req),
                    handle(&blind, &req),
                    "{class:?} diverged between observed and blind state"
                );
            }
        }
    }
    assert!(
        !observed.slow_log().is_empty(),
        "observed state must have recorded span trees"
    );
}
