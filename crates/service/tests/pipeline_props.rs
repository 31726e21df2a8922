//! Pipelining correctness: a connection that writes many frames before
//! reading anything must get exactly the bytes a lockstep
//! one-request-at-a-time session gets, in request order — for mixed
//! single classes, BATCH frames, mid-pipeline deadline TIMEOUTs, and
//! mid-pipeline BUSY sheds.
//!
//! Every comparison runs the pipelined and the sequential session
//! against **separate servers with identical fresh state** and one
//! worker, so both sides process requests in the same order and the
//! cache history (warm paths, memo hits, counters) is the same on both.
//! Under more workers the responses may legitimately differ in which
//! warm path produced them — that surface is covered by
//! `service_props.rs`; this suite pins the transport: decoding frames
//! incrementally off a shared byte stream, fanning them through the
//! queue, and flushing responses strictly in request order must not
//! change a single byte.

use softhw_hypergraph::{named, render_hypergraph};
use softhw_service::{
    read_frame, BatchRequest, EvalKind, Request, RequestClass, Response, ServeOptions, Server,
    ServiceConfig, ServiceState,
};
use std::io::{BufReader, Write as _};
use std::net::TcpStream;

/// Encoded frames for a mixed-class session: every single class the
/// wire knows (STATS included — with one worker its counters evolve
/// identically on both sides) plus BATCH frames, two rounds so warm
/// responses are compared too.
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

fn one_worker_server(queue_depth: usize) -> (Server, std::net::SocketAddr) {
    let state = ServiceState::new(ServiceConfig::default());
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

/// Sends every frame, then reads every response: the whole session is
/// in flight at once.
fn run_pipelined(addr: std::net::SocketAddr, frames: &[String]) -> Vec<String> {
    let mut stream = TcpStream::connect(addr).expect("connect");
    let burst: String = frames.iter().map(String::as_str).collect();
    stream.write_all(burst.as_bytes()).expect("write burst");
    read_session(&mut stream, frames.len())
}

/// Lockstep reference: one frame, one response, repeat.
fn run_sequential(addr: std::net::SocketAddr, frames: &[String]) -> Vec<String> {
    let mut stream = TcpStream::connect(addr).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut out = Vec::new();
    for frame in frames {
        stream.write_all(frame.as_bytes()).expect("write frame");
        let lines = read_frame(&mut reader).expect("read").expect("frame");
        out.push(reencode(lines));
    }
    out
}

fn read_session(stream: &mut TcpStream, n: usize) -> Vec<String> {
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    (0..n)
        .map(|_| reencode(read_frame(&mut reader).expect("read").expect("frame")))
        .collect()
}

/// Re-joins a decoded frame into its canonical byte form (`read_frame`
/// already un-stuffed it; responses never need stuffing back).
fn reencode(lines: Vec<String>) -> String {
    let mut s = String::new();
    for l in &lines {
        s.push_str(l);
        s.push('\n');
    }
    s.push_str("%%\n");
    s
}

/// Masks the one STATS row that *measures pipelining itself*
/// (`pipelined_depth` is the high-water mark of in-flight requests, so
/// it reads 1 on the lockstep side by construction). Every other byte
/// of every frame is compared exactly.
fn mask_depth(encoded: &str) -> String {
    let Some(rest) = encoded.strip_prefix("OK STATS") else {
        return encoded.to_string();
    };
    let mut out = String::from("OK STATS");
    for tok in rest.split_whitespace() {
        if tok == "%%" {
            continue;
        }
        match tok.split_once('=') {
            Some(("pipelined_depth", _)) => out.push_str(" pipelined_depth=<masked>"),
            _ => {
                out.push(' ');
                out.push_str(tok);
            }
        }
    }
    out.push_str("\n%%\n");
    out
}

#[test]
fn pipelined_mixed_session_is_byte_identical_to_sequential() {
    let frames = mixed_session();
    let (pipe_server, pipe_addr) = one_worker_server(2 * frames.len());
    let (seq_server, seq_addr) = one_worker_server(2 * frames.len());
    let frames_ref = &frames;
    let (piped, sequential) = std::thread::scope(|scope| {
        let p = scope.spawn(move || run_pipelined(pipe_addr, frames_ref));
        let s = scope.spawn(move || run_sequential(seq_addr, frames_ref));
        pipe_server.run().expect("pipelined server");
        seq_server.run().expect("sequential server");
        (
            p.join().expect("pipelined client"),
            s.join().expect("sequential client"),
        )
    });
    assert_eq!(piped.len(), sequential.len());
    for (i, (p, s)) in piped.iter().zip(&sequential).enumerate() {
        assert_eq!(
            mask_depth(p),
            mask_depth(s),
            "response {i} diverged (frame: {:?})",
            frames[i]
        );
    }
}

#[test]
fn mid_pipeline_timeout_matches_sequential() {
    // The middle request carries a deadline no cold exact sweep on the
    // 24x24 grid can meet (it starts at k = 3, past the minor bound):
    // both sessions must answer OK, TIMEOUT, OK with identical bytes,
    // and the pipelined connection must keep serving past the expiry.
    let heavy = render_hypergraph(&named::grid(24, 24));
    let light = render_hypergraph(&named::h2());
    let mut doomed = Request::new(RequestClass::Shw, heavy);
    doomed.deadline_ms = Some(50);
    let frames = vec![
        Request::new(RequestClass::Shw, light.clone()).encode(),
        doomed.encode(),
        Request::new(RequestClass::Shw, light).encode(),
    ];
    let (pipe_server, pipe_addr) = one_worker_server(frames.len());
    let (seq_server, seq_addr) = one_worker_server(frames.len());
    let frames_ref = &frames;
    let (piped, sequential) = std::thread::scope(|scope| {
        let p = scope.spawn(move || run_pipelined(pipe_addr, frames_ref));
        let s = scope.spawn(move || run_sequential(seq_addr, frames_ref));
        pipe_server.run().expect("pipelined server");
        seq_server.run().expect("sequential server");
        (
            p.join().expect("pipelined client"),
            s.join().expect("sequential client"),
        )
    });
    assert_eq!(piped, sequential);
    let timeout_lines: Vec<String> = piped[1].lines().map(str::to_string).collect();
    assert!(
        matches!(
            Response::decode(&timeout_lines[..timeout_lines.len() - 1]),
            Ok(Response::Timeout)
        ),
        "expected a TIMEOUT in slot 1, got {:?}",
        piped[1]
    );
}

#[test]
fn mid_pipeline_busy_shed_lands_in_its_slot() {
    // One worker, a queue of one: while the worker sits on a slow
    // deadline-bounded solve, a burst of four more requests decodes —
    // one queues, the rest shed BUSY *in their pipeline slots*. The
    // requests around the sheds still answer exactly like a sequential
    // session of the same surviving requests, and the connection stays
    // open for a post-shed request.
    let heavy = render_hypergraph(&named::grid(24, 24));
    let light = render_hypergraph(&named::h2());
    let mut slow = Request::new(RequestClass::Shw, heavy);
    slow.deadline_ms = Some(400);
    let light_req = Request::new(RequestClass::Shw, light);

    let state = ServiceState::new(ServiceConfig::default());
    let server = Server::bind(
        ServeOptions {
            addr: "127.0.0.1:0".to_string(),
            workers: 1,
            max_conns: Some(1),
            queue_depth: 1,
        },
        state,
    )
    .expect("bind loopback");
    let addr = server.local_addr().expect("local addr");
    let slow_frame = slow.encode();
    let light_frame = light_req.encode();
    let client = std::thread::spawn(move || {
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream.write_all(slow_frame.as_bytes()).expect("write slow");
        // Give the loop time to hand the slow solve to the worker.
        std::thread::sleep(std::time::Duration::from_millis(150));
        let burst = light_frame.repeat(4);
        stream.write_all(burst.as_bytes()).expect("write burst");
        let mut got = read_session(&mut stream, 5);
        // The shed slots answered instantly; once the worker frees up,
        // the same request must succeed on this same connection.
        stream
            .write_all(light_frame.as_bytes())
            .expect("write post-shed");
        got.extend(read_session(&mut stream, 1));
        got
    });
    server.run().expect("server run");
    let got = client.join().expect("client");

    let decode = |s: &String| {
        let lines: Vec<String> = s.lines().map(str::to_string).collect();
        Response::decode(&lines[..lines.len() - 1]).expect("decode")
    };
    assert!(
        matches!(decode(&got[0]), Response::Timeout),
        "slot 0: {:?}",
        got[0]
    );
    assert!(
        matches!(decode(&got[1]), Response::Width { width: 2, .. }),
        "slot 1 (queued): {:?}",
        got[1]
    );
    for (i, slot) in got[2..5].iter().enumerate() {
        assert!(
            matches!(decode(slot), Response::Busy { .. }),
            "slot {} should be BUSY: {slot:?}",
            i + 2
        );
    }
    assert_eq!(
        got[5], got[1],
        "the post-shed retry must answer byte-identically to the queued success"
    );
}
