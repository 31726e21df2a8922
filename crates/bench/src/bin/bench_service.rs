//! End-to-end latency/throughput benchmark of the decomposition
//! service: an in-process `softhw-service` server on a loopback socket,
//! hammered by concurrent client connections with per-request-class
//! traffic. Reports p50/p99 wall-clock latency per class (measured at
//! the client, so parse + route + solve + frame + TCP are all in the
//! number) and aggregate throughput.
//!
//! ```text
//! bench_service [out.json] [--clients n] [--requests n] [--store path]
//!               [--check baseline.json]
//! ```
//!
//! Request classes:
//! - `shw_warm`: exact `shw` over schemas the striped cache has already
//!   served (the headline repeated-query path — index, instances, and
//!   width decisions are all warm);
//! - `shw_leq_warm`, `hw_warm`, `best_warm`, `stats`: the other classes
//!   over the same warm schemas;
//! - `shw_cold`: exact `shw` over schemas never seen before (every
//!   request pays generation + instance build + DP).
//!
//! Three throughput phases run against one server:
//! - sequential (`service/throughput_rps`): one request in flight per
//!   connection, the pre-pipelining lockstep workload;
//! - pipelined (`service/throughput_pipelined_rps`): the same traffic
//!   mix with a window of [`WINDOW`] requests in flight per connection
//!   (`pipelined` latency rows measure enqueue-to-response, so queueing
//!   behind the window is in the number);
//! - batched (`service/throughput_batch_rps`, in sub-requests/s): BATCH
//!   frames of [`BATCH_SIZE`] warm bodies each, one roundtrip per frame
//!   (`batch_frame` latency rows are per frame, not per sub-request).
//!
//! After the three phases one `METRICS` scrape turns the server's
//! per-stage duration histograms into `service/stage_<name>_*` rows —
//! where the wall clock went, stage by stage, across everything the
//! phases served (reported, not gated).
//!
//! `--check <baseline.json>` gates after the run: every
//! `service/throughput*` row present in both runs must be at least half
//! the baseline's; pipelined/batched rows missing from an older baseline
//! must instead beat its *sequential* throughput outright — the whole
//! point of the pipelined server.
//!
//! With `--store <path>` the server persists through the decomposition
//! store, and a second phase **restarts** it — a fresh `ServiceState`
//! over the same store file, in-memory caches cold — and measures
//! `shw_store_warm`: the repeated-query path served from warm-started
//! persisted results instead of anything computed this process
//! lifetime. That is the number a `softhw-serve` restart ships with.

use softhw_hypergraph::random::{random_hypergraph, RandomConfig};
use softhw_hypergraph::{named, render_hypergraph};
use softhw_service::{
    read_frame, roundtrip, BatchRequest, EvalKind, Request, RequestClass, Response, ServeOptions,
    Server, ServiceConfig, ServiceState,
};
use std::collections::VecDeque;
use std::fmt::Write as _;
use std::io::{BufReader, Write as _};
use std::net::TcpStream;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Requests kept in flight per connection during the pipelined phase.
const WINDOW: usize = 64;

/// Sub-requests per BATCH frame during the batched phase.
const BATCH_SIZE: usize = 32;

struct Args {
    out: Option<String>,
    clients: usize,
    requests: usize,
    store: Option<String>,
    check: Option<String>,
}

fn parse_args() -> Args {
    let mut out = None;
    let mut clients = 8;
    let mut requests = 200;
    let mut store = None;
    let mut check = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--clients" => {
                clients = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--clients n");
            }
            "--requests" => {
                requests = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--requests n");
            }
            "--store" => {
                store = Some(args.next().expect("--store path"));
            }
            "--check" => {
                check = Some(args.next().expect("--check baseline.json"));
            }
            other => out = Some(other.to_string()),
        }
    }
    Args {
        out,
        clients,
        requests,
        store,
        check,
    }
}

/// (class label, request) pairs the clients rotate through.
fn traffic() -> Vec<(&'static str, Request)> {
    let warm: Vec<String> = [
        named::h2(),
        named::cycle(6),
        named::cycle(8),
        named::grid(3, 3),
        named::triangle_star(3),
    ]
    .iter()
    .map(render_hypergraph)
    .collect();
    let mut out = Vec::new();
    for schema in &warm {
        out.push(("shw_warm", Request::new(RequestClass::Shw, schema.clone())));
        out.push((
            "shw_leq_warm",
            Request::new(RequestClass::ShwLeq(2), schema.clone()),
        ));
        out.push(("hw_warm", Request::new(RequestClass::Hw, schema.clone())));
        out.push((
            "best_warm",
            Request::new(RequestClass::Best(EvalKind::Trivial, 2), schema.clone()),
        ));
        out.push(("stats", Request::new(RequestClass::Stats, schema.clone())));
    }
    out
}

/// A cold-schema request: a random hypergraph no other request shares.
fn cold_request(seed: u64) -> Request {
    let h = random_hypergraph(
        &RandomConfig {
            num_vertices: 8,
            num_edges: 8,
            min_arity: 2,
            max_arity: 3,
            connect: true,
        },
        seed,
    );
    Request::new(RequestClass::Shw, render_hypergraph(&h))
}

fn percentile(sorted_us: &[f64], p: f64) -> f64 {
    if sorted_us.is_empty() {
        return 0.0;
    }
    let idx = ((sorted_us.len() as f64 - 1.0) * p).round() as usize;
    sorted_us[idx.min(sorted_us.len() - 1)]
}

fn main() {
    let args = parse_args();
    let state = match &args.store {
        Some(path) => ServiceState::open_store(ServiceConfig::default(), path).expect("open store"),
        None => ServiceState::new(ServiceConfig::default()),
    };
    // Three measured phases share this server: warmup + sequential
    // clients, then pipelined clients, then batch clients. The queue
    // must hold every request the pipelined windows can have in flight
    // at once, or the server sheds them with BUSY mid-measurement.
    let server = Server::bind(
        ServeOptions {
            addr: "127.0.0.1:0".to_string(),
            workers: args.clients,
            // Warmup + three phases of clients + the METRICS scrape.
            max_conns: Some(3 * args.clients as u64 + 2),
            queue_depth: (2 * args.clients * WINDOW).max(128),
        },
        state,
    )
    .expect("bind loopback");
    let addr = server.local_addr().expect("local addr");
    let server_thread = std::thread::spawn(move || server.run());

    let traffic = traffic();
    // Warm the caches once so the *_warm classes measure the warm path
    // (the first client request would otherwise fold a cold build into
    // one sample).
    {
        let mut stream = TcpStream::connect(addr).expect("warmup connect");
        for (_, req) in &traffic {
            let resp = roundtrip(&mut stream, req).expect("warmup roundtrip");
            assert!(
                !matches!(resp, Response::Error { .. }),
                "warmup failed: {resp:?}"
            );
        }
    }

    // Fire: each client thread owns one connection and pulls request
    // indices off a shared counter. Cold requests are interleaved 1:10
    // with unique seeds.
    let total = args.requests.max(args.clients);
    let next = AtomicUsize::new(0);
    let samples: Mutex<Vec<(&'static str, f64)>> = Mutex::new(Vec::with_capacity(total));
    let wall = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..args.clients {
            scope.spawn(|| {
                let mut stream = TcpStream::connect(addr).expect("client connect");
                let mut local: Vec<(&'static str, f64)> = Vec::new();
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= total {
                        break;
                    }
                    let cold;
                    let (label, req) = if i % 10 == 9 {
                        cold = cold_request(1_000 + i as u64);
                        ("shw_cold", &cold)
                    } else {
                        let (label, req) = &traffic[i % traffic.len()];
                        (*label, req)
                    };
                    let start = Instant::now();
                    let resp = roundtrip(&mut stream, req).expect("bench roundtrip");
                    let us = start.elapsed().as_secs_f64() * 1e6;
                    assert!(
                        !matches!(resp, Response::Error { .. }),
                        "request failed: {resp:?}"
                    );
                    local.push((label, us));
                }
                samples
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner)
                    .extend(local);
            });
        }
    });
    let wall_s = wall.elapsed().as_secs_f64();

    // Pipelined phase: same traffic mix, but each client keeps WINDOW
    // requests in flight on its one connection instead of running in
    // lockstep. Responses arrive in request order, so the client reads
    // them back against a FIFO of send timestamps.
    let pipe_total = args.requests.max(args.clients * WINDOW);
    let next = AtomicUsize::new(0);
    let pipe_samples: Mutex<Vec<(&'static str, f64)>> = Mutex::new(Vec::with_capacity(pipe_total));
    let pipe_wall = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..args.clients {
            scope.spawn(|| {
                let mut stream = TcpStream::connect(addr).expect("pipelined connect");
                stream.set_nodelay(true).ok();
                let mut reader = BufReader::new(stream.try_clone().expect("clone stream"));
                let mut sent: VecDeque<Instant> = VecDeque::with_capacity(WINDOW);
                let mut local: Vec<(&'static str, f64)> = Vec::new();
                loop {
                    // Keep the window full, then retire the oldest
                    // in-flight request.
                    let mut burst = String::new();
                    while sent.len() < WINDOW {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= pipe_total {
                            break;
                        }
                        let frame = if i % 10 == 9 {
                            cold_request(100_000 + i as u64).encode()
                        } else {
                            traffic[i % traffic.len()].1.encode()
                        };
                        burst.push_str(&frame);
                        sent.push_back(Instant::now());
                    }
                    if !burst.is_empty() {
                        stream.write_all(burst.as_bytes()).expect("pipelined write");
                    }
                    let Some(start) = sent.pop_front() else { break };
                    let lines = read_frame(&mut reader)
                        .expect("pipelined read")
                        .expect("pipelined frame");
                    // Status-line check only: fully decoding every
                    // witness TD frame would bill client-side parsing
                    // to the server's throughput number.
                    let status = lines.first().map(String::as_str).unwrap_or("");
                    assert!(
                        !status.starts_with("ERR") && !status.starts_with("BUSY"),
                        "pipelined request failed: {status}"
                    );
                    local.push(("pipelined", start.elapsed().as_secs_f64() * 1e6));
                }
                pipe_samples
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner)
                    .extend(local);
            });
        }
    });
    let pipe_wall_s = pipe_wall.elapsed().as_secs_f64();
    let pipe_requests = pipe_samples
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
        .len();
    let throughput_pipelined = pipe_requests as f64 / pipe_wall_s;

    // Batched phase: BATCH frames of BATCH_SIZE warm solver bodies, one
    // frame in flight per connection. Latency is per frame; throughput
    // counts the sub-requests each frame carries.
    let batch_items: Vec<Request> = traffic
        .iter()
        .filter(|(label, _)| *label != "stats")
        .map(|(_, req)| req.clone())
        .collect();
    let batch_frames = pipe_total.div_ceil(BATCH_SIZE).max(args.clients);
    let next = AtomicUsize::new(0);
    let batch_samples: Mutex<Vec<(&'static str, f64)>> =
        Mutex::new(Vec::with_capacity(batch_frames));
    let batch_wall = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..args.clients {
            scope.spawn(|| {
                let mut stream = TcpStream::connect(addr).expect("batch connect");
                stream.set_nodelay(true).ok();
                let mut reader = BufReader::new(stream.try_clone().expect("clone stream"));
                let mut local: Vec<(&'static str, f64)> = Vec::new();
                loop {
                    let f = next.fetch_add(1, Ordering::Relaxed);
                    if f >= batch_frames {
                        break;
                    }
                    let items: Vec<Request> = (0..BATCH_SIZE)
                        .map(|j| batch_items[(f * BATCH_SIZE + j) % batch_items.len()].clone())
                        .collect();
                    let frame = BatchRequest::new(items).encode();
                    let start = Instant::now();
                    stream.write_all(frame.as_bytes()).expect("batch write");
                    let lines = read_frame(&mut reader)
                        .expect("batch read")
                        .expect("batch frame");
                    let us = start.elapsed().as_secs_f64() * 1e6;
                    match Response::decode(&lines).expect("batch decode") {
                        Response::Batch { responses } => {
                            assert_eq!(responses.len(), BATCH_SIZE);
                            for resp in &responses {
                                assert!(
                                    !matches!(resp, Response::Error { .. } | Response::Busy { .. }),
                                    "batched sub-request failed: {resp:?}"
                                );
                            }
                        }
                        other => panic!("expected a batch response, got {other:?}"),
                    }
                    local.push(("batch_frame", us));
                }
                batch_samples
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner)
                    .extend(local);
            });
        }
    });
    let batch_wall_s = batch_wall.elapsed().as_secs_f64();
    let throughput_batch = (batch_frames * BATCH_SIZE) as f64 / batch_wall_s;

    // Per-stage timing: scrape the METRICS exposition once after the
    // three phases and turn the `softhw_stage_duration_us` histograms
    // into rows — where the wall clock went (solver stages, cache and
    // store probes, queue wait, reorder dwell) across everything the
    // phases just served.
    let stage_rows = {
        let mut stream = TcpStream::connect(addr).expect("metrics connect");
        match roundtrip(&mut stream, &Request::new(RequestClass::Metrics, ""))
            .expect("metrics roundtrip")
        {
            Response::Metrics { lines } => stage_series(&lines),
            other => panic!("expected a METRICS response, got {other:?}"),
        }
    };

    // All client connections are closed; the server has accepted its
    // max_conns (warmup + three phases of clients + the scrape) and
    // drains cleanly.
    let served = server_thread
        .join()
        .expect("server thread")
        .expect("server run");
    assert_eq!(served, 3 * args.clients as u64 + 2);

    let mut samples = samples
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
        .clone();
    samples.extend(
        pipe_samples
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .iter()
            .copied(),
    );
    samples.extend(
        batch_samples
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .iter()
            .copied(),
    );
    // Throughput describes phase 1 only (the pipelined/batched phases
    // and the restart-warm phase below extend `samples` but were
    // measured on their own wall clocks).
    let phase1_requests = samples.len() - pipe_requests - batch_frames;
    let throughput = phase1_requests as f64 / wall_s;

    // Restart-warm phase: a fresh state over the same store file — the
    // in-memory caches are cold, everything served comes from persisted
    // results (warm-started at boot). This is the latency a
    // `softhw-serve` restart offers on its hot schemas.
    if let Some(path) = &args.store {
        let state = ServiceState::open_store(ServiceConfig::default(), path)
            .expect("reopen store for restart-warm phase");
        let server = Server::bind(
            ServeOptions {
                addr: "127.0.0.1:0".to_string(),
                workers: args.clients,
                max_conns: Some(args.clients as u64),
                ..ServeOptions::default()
            },
            state,
        )
        .expect("bind restart server");
        let addr = server.local_addr().expect("local addr");
        let server_thread = std::thread::spawn(move || server.run());
        let shw_reqs: Vec<Request> = traffic
            .iter()
            .filter(|(label, _)| *label == "shw_warm")
            .map(|(_, req)| req.clone())
            .collect();
        let next = AtomicUsize::new(0);
        let store_samples: Mutex<Vec<(&'static str, f64)>> = Mutex::new(Vec::new());
        std::thread::scope(|scope| {
            for _ in 0..args.clients {
                scope.spawn(|| {
                    let mut stream = TcpStream::connect(addr).expect("client connect");
                    let mut local: Vec<(&'static str, f64)> = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= total {
                            break;
                        }
                        let req = &shw_reqs[i % shw_reqs.len()];
                        let start = Instant::now();
                        let resp = roundtrip(&mut stream, req).expect("store-warm roundtrip");
                        let us = start.elapsed().as_secs_f64() * 1e6;
                        assert!(
                            !matches!(resp, Response::Error { .. }),
                            "request failed: {resp:?}"
                        );
                        local.push(("shw_store_warm", us));
                    }
                    store_samples
                        .lock()
                        .unwrap_or_else(std::sync::PoisonError::into_inner)
                        .extend(local);
                });
            }
        });
        server_thread
            .join()
            .expect("restart server thread")
            .expect("restart server run");
        samples.extend(
            store_samples
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .iter()
                .copied(),
        );
    }
    let mut by_class: Vec<(&'static str, Vec<f64>)> = Vec::new();
    for (label, us) in &samples {
        match by_class.iter_mut().find(|(l2, _)| l2 == label) {
            Some((_, v)) => v.push(*us),
            None => by_class.push((label, vec![*us])),
        }
    }
    by_class.sort_by_key(|(l2, _)| *l2);

    let mut rows = Vec::new();
    for (label, mut v) in by_class {
        v.sort_by(|a, b| a.total_cmp(b));
        let p50 = percentile(&v, 0.50);
        let p99 = percentile(&v, 0.99);
        println!(
            "service/{label:<14} n={:<5} p50={p50:>10.1}us p99={p99:>10.1}us",
            v.len()
        );
        rows.push((format!("service/{label}_p50_us"), p50));
        rows.push((format!("service/{label}_p99_us"), p99));
    }
    println!(
        "service/throughput           {throughput:.0} req/s over {} requests, {} clients (sequential)",
        phase1_requests, args.clients
    );
    println!(
        "service/throughput_pipelined {throughput_pipelined:.0} req/s over {} requests, window {WINDOW}",
        pipe_requests
    );
    println!(
        "service/throughput_batch     {throughput_batch:.0} sub-req/s over {} frames of {BATCH_SIZE}",
        batch_frames
    );
    rows.push(("service/throughput_rps".to_string(), throughput));
    rows.push((
        "service/throughput_pipelined_rps".to_string(),
        throughput_pipelined,
    ));
    rows.push(("service/throughput_batch_rps".to_string(), throughput_batch));
    rows.extend(stage_rows);
    if let Some(out) = args.out {
        let json = match std::fs::read_to_string(&out) {
            // An existing bench_baseline emission: merge the service
            // rows into its "benchmarks" object, so one BENCH_pr*.json
            // carries solver gates and service latencies together.
            Ok(existing) => merge_rows(&existing, &rows)
                .unwrap_or_else(|| panic!("{out} exists but has no benchmarks object")),
            Err(_) => standalone_json(&rows),
        };
        std::fs::write(&out, &json).expect("write json");
        println!("wrote {out}");
    }
    if let Some(baseline) = &args.check {
        if let Err(msg) = check_against(baseline, &rows) {
            eprintln!("BENCH CHECK FAILED: {msg}");
            std::process::exit(1);
        }
        println!("bench_service check passed against {baseline}");
    }
}

/// `service/stage_<name>_{total_us,calls}` rows from the
/// `softhw_stage_duration_us` histogram series of a METRICS
/// exposition. Stages never hit in this run are dropped; like the
/// latency rows, stage rows are reported but not gated.
fn stage_series(lines: &[String]) -> Vec<(String, f64)> {
    let field = |line: &str, prefix: &str| -> Option<(String, f64)> {
        let rest = line.strip_prefix(prefix)?;
        let (stage, rest) = rest.split_once("\"}")?;
        let value: f64 = rest.trim().parse().ok()?;
        Some((stage.to_string(), value))
    };
    let mut sums: Vec<(String, f64)> = Vec::new();
    let mut counts: Vec<(String, f64)> = Vec::new();
    for line in lines {
        if let Some(kv) = field(line, "softhw_stage_duration_us_sum{stage=\"") {
            sums.push(kv);
        } else if let Some(kv) = field(line, "softhw_stage_duration_us_count{stage=\"") {
            counts.push(kv);
        }
    }
    let mut rows = Vec::new();
    for (stage, sum) in sums {
        let calls = counts
            .iter()
            .find(|(s, _)| s == &stage)
            .map_or(0.0, |(_, c)| *c);
        if calls > 0.0 {
            println!(
                "service/stage/{stage:<16} calls={calls:<8} total={sum:>12.0}us avg={:>9.1}us",
                sum / calls
            );
            rows.push((format!("service/stage_{stage}_total_us"), sum));
            rows.push((format!("service/stage_{stage}_calls"), calls));
        }
    }
    rows
}

/// Throughput rows gated by `--check`. Latency rows are reported but
/// not gated: on shared CI runners they are too noisy to block on,
/// while throughput over hundreds of requests amortizes the noise.
const THROUGHPUT_GATES: &[&str] = &[
    "service/throughput_rps",
    "service/throughput_pipelined_rps",
    "service/throughput_batch_rps",
];

/// A throughput row may not fall below `baseline / GATE_FACTOR`.
const GATE_FACTOR: f64 = 2.0;

/// Gates the current run's throughput rows against a baseline emission.
/// Rows present in both runs use the regression factor; pipelined and
/// batched rows missing from an older baseline must instead beat that
/// baseline's sequential throughput outright.
fn check_against(baseline_path: &str, rows: &[(String, f64)]) -> Result<(), String> {
    let text = std::fs::read_to_string(baseline_path)
        .map_err(|e| format!("--check {baseline_path}: {e}"))?;
    let baseline = softhw_bench::parse_baseline_json(&text);
    let old = |name: &str| baseline.iter().find(|(n, _)| n == name).map(|(_, v)| *v);
    for name in THROUGHPUT_GATES {
        let new = rows
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
            .ok_or_else(|| format!("current run lacks {name}"))?;
        match old(name) {
            Some(prev) => {
                println!(
                    "check {name}: {new:.1} req/s vs baseline {prev:.1} req/s ({:.2}x)",
                    new / prev
                );
                if new < prev / GATE_FACTOR {
                    return Err(format!(
                        "{name} regressed: {new:.1} req/s < baseline {prev:.1} req/s / {GATE_FACTOR}"
                    ));
                }
            }
            None => {
                // A pre-pipelining baseline: the new concurrency paths
                // must at least beat its sequential throughput.
                let seq = old("service/throughput_rps").ok_or_else(|| {
                    format!(
                        "baseline {baseline_path} lacks service/throughput_rps — corrupt or wrong file?"
                    )
                })?;
                println!(
                    "check {name}: {new:.1} req/s vs baseline sequential {seq:.1} req/s ({:.2}x, new row)",
                    new / seq
                );
                if new < seq {
                    return Err(format!(
                        "{name}: {new:.1} req/s does not beat the baseline's sequential {seq:.1} req/s"
                    ));
                }
            }
        }
    }
    Ok(())
}

/// A self-contained `{"benchmarks": {...}}` document from the rows.
fn standalone_json(rows: &[(String, f64)]) -> String {
    let mut json = String::from("{\n  \"benchmarks\": {\n");
    for (i, (name, value)) in rows.iter().enumerate() {
        let sep = if i + 1 == rows.len() { "" } else { "," };
        let _ = writeln!(json, "    \"{name}\": {value:.1}{sep}");
    }
    json.push_str("  }\n}\n");
    json
}

/// Splices the rows into an existing emission's `"benchmarks"` object
/// (dropping any previous `service/` rows so reruns stay idempotent).
/// Returns `None` if the document has no benchmarks object.
fn merge_rows(existing: &str, rows: &[(String, f64)]) -> Option<String> {
    let mut out: Vec<String> = Vec::new();
    let mut lines = existing.lines().peekable();
    // Copy up to and including the benchmarks opener.
    loop {
        let line = lines.next()?;
        let opened = line.trim_start().starts_with("\"benchmarks\"");
        out.push(line.to_string());
        if opened {
            break;
        }
    }
    // Copy the object's entries (minus stale service rows) until its
    // closing brace.
    let mut entries: Vec<String> = Vec::new();
    let closer = loop {
        let line = lines.next()?;
        if line.trim_start().starts_with('}') {
            break line;
        }
        if !line.trim_start().starts_with("\"service/") {
            entries.push(line.trim_end().trim_end_matches(',').to_string());
        }
    };
    for (name, value) in rows {
        entries.push(format!("    \"{name}\": {value:.1}"));
    }
    let n = entries.len();
    for (i, e) in entries.into_iter().enumerate() {
        let sep = if i + 1 == n { "" } else { "," };
        out.push(format!("{e}{sep}"));
    }
    out.push(closer.to_string());
    for line in lines {
        out.push(line.to_string());
    }
    let mut joined = out.join("\n");
    joined.push('\n');
    Some(joined)
}
