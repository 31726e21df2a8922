//! The event loop runs a request's front half (scan → hash → probe)
//! itself when the frame is at the head of its connection's pipeline,
//! is a single request of a cacheable class, and is small. These tests
//! pin that mechanism by **counting**, never by timing: a frame a worker
//! handled left exactly one `queue_wait` observation, a frame the loop
//! answered left none, and every cacheable request — wherever its front
//! half ran — left exactly one `result_cache` observation.
//!
//! A `METRICS` scrape is itself a frame that goes through the worker
//! queue, so between two scrapes `queue_wait` grows by one more than
//! what was sent in between; [`grown`] accounts for it.

mod common;

use common::{grown, Client, Running};
use softhw_hypergraph::{named, render_hypergraph};
use softhw_service::{Request, RequestClass, ServiceConfig};
use std::io::Write as _;
use std::time::Duration;

/// The cacheable classes over a few small schemas: 20 distinct frames.
fn cacheable_frames() -> Vec<String> {
    let schemas = [
        named::h2(),
        named::cycle(5),
        named::cycle(6),
        named::grid(3, 3),
    ];
    let classes = [
        RequestClass::Shw,
        RequestClass::ShwLeq(2),
        RequestClass::Hw,
        RequestClass::HwLeq(2),
        RequestClass::Best(softhw_service::EvalKind::ConCov, 2),
    ];
    let mut frames = Vec::new();
    for schema in schemas.iter().map(render_hypergraph) {
        for class in classes {
            frames.push(Request::new(class, schema.clone()).encode());
        }
    }
    frames
}

#[test]
fn lockstep_repeats_never_reach_the_worker_queue_and_misses_reach_it_once() {
    let server = Running::start(1, ServiceConfig::default());
    let mut client = Client::connect(server.addr);
    let frames = cacheable_frames();
    let n = frames.len() as u64;
    let start = client.stage_counts();
    // Never seen: the loop probes, misses, and a worker finishes each.
    let first = client.lockstep(&frames);
    let cold = client.stage_counts();
    assert_eq!(grown(cold, start), [n, n, n]);
    // Answered: the loop probes and answers; no queue, no solve.
    for _ in 0..3 {
        assert_eq!(client.lockstep(&frames), first);
    }
    let warm = client.stage_counts();
    assert_eq!(grown(warm, cold), [0, 3 * n, 0]);
}

#[test]
fn nothing_overtakes_a_request_a_worker_holds() {
    let server = Running::start(1, ServiceConfig::default());
    let mut client = Client::connect(server.addr);
    let body = render_hypergraph(&named::h2());
    let hit_a = Request::new(RequestClass::Shw, body.clone()).encode();
    let hit_b = Request::new(RequestClass::Hw, body).encode();
    let miss =
        |n: usize| Request::new(RequestClass::Shw, render_hypergraph(&named::cycle(n))).encode();
    let warm = client.lockstep(&[hit_a.clone(), hit_b.clone()]);
    // A lockstep twin answers every frame the pipelined writes use.
    let twin = Running::start(1, ServiceConfig::default());
    let mut reference = Client::connect(twin.addr);
    reference.lockstep(&[hit_a.clone(), hit_b.clone()]);

    // [miss, hit, hit] in one write: the hits sit behind a request a
    // worker holds, so they queue behind it — three jobs.
    let before = client.stage_counts();
    let frames = [miss(7), hit_a.clone(), hit_b.clone()];
    let piped = client.send(&frames);
    assert_eq!(grown(client.stage_counts(), before), [3, 3, 1]);
    assert_eq!(piped, reference.lockstep(&frames));
    assert_eq!(piped[1..], warm[..]);

    // [hit, hit, miss] in one write: each hit completes on the spot, so
    // the next frame is at the head again — one job, the miss.
    let before = client.stage_counts();
    let frames = [hit_a, hit_b, miss(8)];
    let piped = client.send(&frames);
    assert_eq!(grown(client.stage_counts(), before), [1, 3, 1]);
    assert_eq!(piped, reference.lockstep(&frames));
    assert_eq!(piped[..2], warm[..]);
}

#[test]
fn a_hit_too_large_for_the_loop_is_answered_by_a_worker() {
    let server = Running::start(1, ServiceConfig::default());
    let mut client = Client::connect(server.addr);
    // 760 edges, 15 KB of text: seven times what the loop will scan.
    let grid = render_hypergraph(&named::grid(20, 20));
    assert!(grid.len() > 8 * 1024);
    let frame = Request::new(RequestClass::ShwLeq(1), grid).encode();
    let start = client.stage_counts();
    let first = client.send(std::slice::from_ref(&frame));
    let cold = client.stage_counts();
    assert_eq!(grown(cold, start), [1, 1, 1]);
    assert_eq!(client.send(std::slice::from_ref(&frame)), first);
    assert_eq!(client.send(std::slice::from_ref(&frame)), first);
    assert_eq!(grown(client.stage_counts(), cold), [2, 2, 0]);
}

#[test]
fn a_hit_is_served_while_the_only_worker_is_busy() {
    // One worker, one stripe: the slow solve holds both the worker and
    // the stripe's solve lock. A repeat on another connection needs
    // neither — the loop answers it under the probe lock alone. If that
    // lock were ever held across a solve again, or the repeat queued for
    // the worker, `b` would wait out the slow request's whole deadline.
    let config = ServiceConfig {
        stripes: 1,
        ..ServiceConfig::default()
    };
    let server = Running::start(1, config);
    let small = Request::new(RequestClass::Shw, render_hypergraph(&named::h2())).encode();
    let mut b = Client::connect(server.addr);
    let answered = b.send(std::slice::from_ref(&small));

    let mut slow = Request::new(RequestClass::Shw, render_hypergraph(&named::grid(24, 24)));
    slow.deadline_ms = Some(400);
    let mut a = Client::connect(server.addr);
    a.stream
        .write_all(slow.encode().as_bytes())
        .expect("write slow");
    std::thread::sleep(Duration::from_millis(100));

    assert_eq!(b.send(std::slice::from_ref(&small)), answered);
    // `a` is still being solved: nothing to read yet.
    a.stream
        .set_read_timeout(Some(Duration::from_millis(20)))
        .expect("read timeout");
    let mut probe = [0u8; 1];
    let early = a.stream.peek(&mut probe);
    assert!(early.is_err(), "the slow request answered first: {early:?}");
    a.stream
        .set_read_timeout(Some(Duration::from_secs(20)))
        .expect("read timeout");
    assert_eq!(a.read(), "TIMEOUT\n%%\n");
}

#[test]
fn two_workers_asked_the_same_new_schema_solve_it_once() {
    // Two connections, each at the head of its own pipeline, ask the same
    // never-seen schema at once: both front halves miss, both requests
    // reach a worker, and the stripe's solve lock lets one of them solve
    // while the other waits, probes again and finds the answer.
    let config = ServiceConfig {
        stripes: 1,
        ..ServiceConfig::default()
    };
    let server = Running::start(2, config);
    let frame = Request::new(RequestClass::Shw, render_hypergraph(&named::grid(4, 5))).encode();
    let mut scraper = Client::connect(server.addr);
    let before = scraper.stage_counts();
    let go = std::sync::Barrier::new(2);
    let answers: Vec<Vec<String>> = std::thread::scope(|scope| {
        let ask = || {
            let mut client = Client::connect(server.addr);
            go.wait();
            client.send(std::slice::from_ref(&frame))
        };
        let (x, y) = (scope.spawn(ask), scope.spawn(ask));
        vec![x.join().expect("x"), y.join().expect("y")]
    });
    assert_eq!(answers[0], answers[1]);
    assert!(answers[0][0].starts_with("OK SHW"), "{:?}", answers[0]);
    let [_, probes, solves] = grown(scraper.stage_counts(), before);
    assert_eq!((probes, solves), (2, 1));
}
