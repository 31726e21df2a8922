//! Concurrency correctness of the service: a response produced under
//! simultaneous mixed-schema traffic must be identical, byte for byte,
//! to what a fresh [`ServiceState`] answers when it is asked that one
//! request and nothing else.
//!
//! No solver state outlives a request, and every solver entry point is
//! deterministic, so a cacheable response is a function of the request
//! alone: not of what the server answered before, not of which layer
//! (result cache or cold solve) served it, not of thread scheduling or
//! stripe count. The test fires the workload from eight threads and
//! compares every response with its fresh single-request answer.
//!
//! One carve-out: `STATS` responses carry **cross-stripe observability
//! rows** (`stripe_load=…`, `result_cache_*=…`, `store_*=…`) that by
//! definition reflect global concurrent progress — they are sampled
//! from atomics without other stripes' locks. Those rows (and only
//! those) are masked before comparison; every answer-bearing byte,
//! including all deterministic STATS fields, is still compared exactly.
//!
//! The result cache holds each answer as the frame it is sent as, so a
//! hit is a copy of stored bytes. The hit-path tests pin that those
//! bytes are the ones a server without a result cache computes, on every
//! path a hit takes: the event loop's front half, a worker's second look
//! and a `BATCH` item (the store hit is `store_persistence`'s).

mod common;

use common::{cacheable_requests, decode, grown, Client, Running};
use softhw_hypergraph::{named, render_hypergraph};
use softhw_service::{
    BatchRequest, EvalKind, Request, RequestClass, RequestCtx, Response, ServiceConfig,
    ServiceState, WireRequest,
};
use std::io::Write as _;
use std::sync::atomic::{AtomicUsize, Ordering};

/// One single request through the service's one `handle`: the frame.
fn handle(state: &ServiceState, req: &Request) -> String {
    state.handle(&WireRequest::Single(req.clone()), &RequestCtx::default())
}

fn workload() -> Vec<Request> {
    let schemas: Vec<String> = [
        named::h2(),
        named::cycle(4),
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
        RequestClass::Best(EvalKind::ConCov, 2),
        RequestClass::Stats,
    ];
    let mut reqs = Vec::new();
    // Two rounds so result-cache hits are part of what concurrency must
    // preserve.
    for _ in 0..2 {
        for schema in &schemas {
            for class in classes {
                reqs.push(Request::new(class, schema.clone()));
            }
        }
    }
    reqs
}

/// Masks the volatile cross-stripe observability fields of a `STATS`
/// frame (see the module docs); all other frames pass through
/// untouched.
fn mask_volatile(encoded: &str) -> String {
    let Some(rest) = encoded.strip_prefix("OK STATS") else {
        return encoded.to_string();
    };
    let volatile = |key: &str| {
        key == "stripe_load" || key.starts_with("result_cache_") || key.starts_with("store_")
    };
    let mut out = String::from("OK STATS");
    for tok in rest.split_whitespace() {
        if tok == "%%" {
            continue;
        }
        let masked = match tok.split_once('=') {
            Some((key, _)) if volatile(key) => format!("{key}=<volatile>"),
            _ => tok.to_string(),
        };
        out.push(' ');
        out.push_str(&masked);
    }
    out.push_str("\n%%\n");
    out
}

/// Fires `reqs` from `threads` workers against `state` (work-stealing
/// over a shared counter, so interleavings vary run to run); returns the
/// responses by request index.
fn run_concurrent(state: &ServiceState, reqs: &[Request], threads: usize) -> Vec<String> {
    let next = AtomicUsize::new(0);
    let mut responses: Vec<String> = vec![String::new(); reqs.len()];
    let slots: Vec<std::sync::Mutex<&mut String>> =
        responses.iter_mut().map(std::sync::Mutex::new).collect();
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= reqs.len() {
                    break;
                }
                let resp = handle(state, &reqs[i]);
                **slots[i].lock().unwrap() = resp;
            });
        }
    });
    responses
}

fn check_concurrent_matches_fresh_states(config: ServiceConfig, threads: usize) {
    let reqs = workload();
    let concurrent = run_concurrent(&ServiceState::new(config.clone()), &reqs, threads);
    // The second round repeats the first, so its fresh answers are the
    // first round's.
    let distinct = reqs.len() / 2;
    let fresh: Vec<String> = reqs[..distinct]
        .iter()
        .map(|req| handle(&ServiceState::new(config.clone()), req))
        .collect();
    for (i, got) in concurrent.iter().enumerate() {
        assert_eq!(
            mask_volatile(got),
            mask_volatile(&fresh[i % distinct]),
            "request {i} ({:?}) is not what a fresh state answers",
            reqs[i].class
        );
    }
}

#[test]
fn concurrent_responses_equal_fresh_single_request_states() {
    check_concurrent_matches_fresh_states(ServiceConfig::default(), 8);
}

#[test]
fn single_stripe_full_contention_still_answers_like_fresh_states() {
    // One stripe = one result cache and one lock shared by every schema
    // and thread: the strongest contention case.
    check_concurrent_matches_fresh_states(
        ServiceConfig {
            stripes: 1,
            ..ServiceConfig::default()
        },
        8,
    );
}

#[test]
fn result_cache_churn_under_concurrency_answers_like_fresh_states() {
    // Eight result-cache slots per stripe against 42 cacheable frames
    // asked twice: concurrent requests continuously evict each other's
    // answers, and an evicted answer recomputes cold, identically.
    check_concurrent_matches_fresh_states(
        ServiceConfig {
            stripes: 2,
            result_cache_capacity: 8,
            ..ServiceConfig::default()
        },
        8,
    );
}

#[test]
fn bounded_answers_do_not_depend_on_whether_shw_ran_first() {
    // `SHW` and `SHW_LEQ k` decide the same widths of the same schema
    // (reduction off, so on the schema itself): whichever is asked
    // first, each must get the frame a fresh server would have computed.
    use softhw_hypergraph::random::{random_hypergraph, RandomConfig};
    let config = ServiceConfig {
        no_reduce: true,
        ..ServiceConfig::default()
    };
    let shape = RandomConfig {
        num_vertices: 8,
        num_edges: 8,
        min_arity: 2,
        max_arity: 3,
        connect: true,
    };
    let classes = [
        RequestClass::Shw,
        RequestClass::ShwLeq(1),
        RequestClass::ShwLeq(2),
        RequestClass::ShwLeq(3),
    ];
    for seed in 0..12 {
        let schema = render_hypergraph(&random_hypergraph(&shape, seed));
        let ask = |state: &ServiceState, class: RequestClass| {
            handle(state, &Request::new(class, schema.clone()))
        };
        let fresh: Vec<String> = classes
            .iter()
            .map(|&class| ask(&ServiceState::new(config.clone()), class))
            .collect();
        for order in [[0, 1, 2, 3], [3, 2, 1, 0]] {
            let state = ServiceState::new(config.clone());
            for i in order {
                assert_eq!(
                    ask(&state, classes[i]),
                    fresh[i],
                    "seed {seed}: {:?} in order {order:?}",
                    classes[i]
                );
            }
        }
    }
}

#[test]
fn best_answers_do_not_depend_on_query_order() {
    // A BEST frame must not depend on which evaluators, widths or
    // SHW_LEQ decisions the server answered for the schema first. With
    // and without reduction.
    use softhw_hypergraph::random::{random_hypergraph, RandomConfig};
    let shape = RandomConfig {
        num_vertices: 8,
        num_edges: 8,
        min_arity: 2,
        max_arity: 3,
        connect: true,
    };
    let mut classes = Vec::new();
    for k in [1, 2] {
        for eval in [EvalKind::Trivial, EvalKind::ConCov, EvalKind::Shallow(2)] {
            classes.push(RequestClass::Best(eval, k));
        }
        classes.push(RequestClass::ShwLeq(k));
    }
    let forward: Vec<usize> = (0..classes.len()).collect();
    let backward: Vec<usize> = forward.iter().rev().copied().collect();
    let interleaved = vec![5, 0, 7, 2, 4, 3, 1, 6];
    for no_reduce in [true, false] {
        let config = ServiceConfig {
            no_reduce,
            ..ServiceConfig::default()
        };
        for seed in 0..8 {
            let schema = render_hypergraph(&random_hypergraph(&shape, seed));
            let ask = |state: &ServiceState, class: RequestClass| {
                handle(state, &Request::new(class, schema.clone()))
            };
            let fresh: Vec<String> = classes
                .iter()
                .map(|&class| ask(&ServiceState::new(config.clone()), class))
                .collect();
            for order in [&forward, &backward, &interleaved] {
                let state = ServiceState::new(config.clone());
                for &i in order {
                    assert_eq!(
                        ask(&state, classes[i]),
                        fresh[i],
                        "seed {seed} no_reduce {no_reduce}: {:?} in order {order:?}",
                        classes[i]
                    );
                }
            }
        }
    }
}

/// Every `BEST` frame the golden file pins: the example schemas under
/// `data/examples/`, then random schemas — connected ones with and
/// without reduction, disconnected ones for the stitched-tree path —
/// each asked `trivial`, `concov` and `shallow:1` at k = 1, 2, 3 on a
/// fresh state. One `## <schema> <eval> <k>` header per frame.
fn best_frames() -> String {
    use softhw_hypergraph::random::{random_hypergraph, RandomConfig};
    let examples = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../data/examples");
    let mut files: Vec<_> = std::fs::read_dir(&examples)
        .expect("data/examples exists")
        .map(|entry| entry.expect("readable entry").path())
        .filter(|path| path.extension().is_some_and(|ext| ext == "hg"))
        .collect();
    files.sort();
    let mut schemas: Vec<(String, String, bool)> = files
        .iter()
        .map(|path| {
            let name = path.file_name().expect("file name").to_string_lossy();
            let body = std::fs::read_to_string(path).expect("readable schema");
            (name.into_owned(), body, false)
        })
        .collect();
    for (connect, no_reduce) in [(true, false), (true, true), (false, false)] {
        let shape = RandomConfig {
            num_vertices: 10,
            num_edges: 9,
            min_arity: 2,
            max_arity: 3,
            connect,
        };
        for seed in 0..6 {
            let name = format!("random-{seed}-connect={connect}-no_reduce={no_reduce}");
            let body = render_hypergraph(&random_hypergraph(&shape, seed));
            schemas.push((name, body, no_reduce));
        }
    }
    let mut out = String::new();
    for (name, body, no_reduce) in &schemas {
        let config = ServiceConfig {
            no_reduce: *no_reduce,
            ..ServiceConfig::default()
        };
        for eval in [EvalKind::Trivial, EvalKind::ConCov, EvalKind::Shallow(1)] {
            for k in 1..=3 {
                let req = Request::new(RequestClass::Best(eval, k), body.clone());
                let frame = handle(&ServiceState::new(config.clone()), &req);
                out.push_str(&format!("## {name} {} {k}\n{frame}", eval.token()));
            }
        }
    }
    out
}

#[test]
fn best_frames_equal_the_golden_file() {
    // Algorithm 2 may be reorganised freely, but its choice among equally
    // good candidates may not move. The `trivial` and `concov` frames are
    // fixed since the once-per-bag DP: each block takes its first passing
    // candidate in (wave, bag) order. The `shallow` frames are fixed since
    // the ranked pass settles each block once from its children's final
    // values, keeping the least candidate in (wave, bag) order among the
    // best.
    let golden = include_str!("golden/best_frames.txt");
    let now = best_frames();
    for (want, got) in golden.split("## ").zip(now.split("## ")) {
        assert_eq!(got, want, "BEST frame diverged from the golden file");
    }
    assert_eq!(now.len(), golden.len());
}

/// What a server started with `--result-cache 0` sends for each frame,
/// asked in lockstep: every answer solved for the request that asks it.
fn uncached_frames(frames: &[String]) -> Vec<String> {
    let uncached = Running::start(
        1,
        ServiceConfig {
            result_cache_capacity: 0,
            ..ServiceConfig::default()
        },
    );
    Client::connect(uncached.addr).lockstep(frames)
}

/// The `OK BATCH` envelope around single-request frames, written out by
/// hand from the wire grammar.
fn envelope(frames: &[String]) -> String {
    let mut out = format!("OK BATCH n={}\n", frames.len());
    for frame in frames {
        let body = frame.strip_suffix("%%\n").expect("a terminated frame");
        out.push_str(&format!("@ lines={}\n{body}", body.lines().count()));
    }
    out.push_str("%%\n");
    out
}

#[test]
fn hits_on_the_event_loop_and_in_a_batch_send_the_uncached_frames() {
    let reqs = cacheable_requests();
    let frames: Vec<String> = reqs.iter().map(Request::encode).collect();
    let n = frames.len() as u64;
    let reference = uncached_frames(&frames);
    let server = Running::start(1, ServiceConfig::default());
    let mut client = Client::connect(server.addr);
    assert_eq!(client.lockstep(&frames), reference, "the misses");
    // Each repeat is at the head of its pipeline: the loop probes and
    // answers it, no worker, no solve.
    let before = client.stage_counts();
    assert_eq!(client.lockstep(&frames), reference, "hits on the loop");
    assert_eq!(grown(client.stage_counts(), before), [0, n, 0]);
    // A BATCH of hits is those frames under the envelope.
    let batch = BatchRequest::new(reqs).encode();
    let before = client.stage_counts();
    assert_eq!(client.send(&[batch]), [envelope(&reference)]);
    assert_eq!(grown(client.stage_counts(), before), [1, n, 0]);
}

#[test]
fn a_hit_on_a_workers_second_look_sends_the_uncached_frame() {
    // One worker sits on a solve that runs out its deadline while every
    // request arrives twice, each copy at the head of its own connection:
    // both front halves miss and queue. Then one copy solves and inserts,
    // and the other finds that answer when it looks again under the
    // stripe's solve lock.
    let frames: Vec<String> = cacheable_requests().iter().map(Request::encode).collect();
    let n = frames.len() as u64;
    let reference = uncached_frames(&frames);
    let server = Running::start(1, ServiceConfig::default());
    let mut blocker = Client::connect(server.addr);
    // The scrape's answer shows the loop already polls this connection,
    // so it reads the slow frame no later than the round that accepts the
    // first twin — whose frame it reads a round after that.
    let before = blocker.stage_counts();
    let mut slow = Request::new(RequestClass::Shw, render_hypergraph(&named::grid(24, 24)));
    slow.deadline_ms = Some(600);
    let slow = slow.encode();
    blocker.stream.write_all(slow.as_bytes()).expect("write");
    let mut twins: Vec<[Client; 2]> = Vec::new();
    for frame in &frames {
        let pair = [(); 2].map(|()| Client::connect(server.addr));
        for client in &pair {
            (&client.stream).write_all(frame.as_bytes()).expect("write");
        }
        twins.push(pair);
    }
    assert_eq!(blocker.read(), "TIMEOUT\n%%\n");
    for (pair, want) in twins.iter_mut().zip(&reference) {
        for client in pair {
            assert_eq!(&client.read(), want);
        }
    }
    // Every request was solved once (the blocker too) and probed once
    // per copy; the second looks are the only hits.
    let [_, probes, solves] = grown(blocker.stage_counts(), before);
    assert_eq!((probes, solves), (2 * n + 1, n + 1));
    let stats = Request::new(RequestClass::Stats, render_hypergraph(&named::h2())).encode();
    let Response::Stats { fields } = decode(&blocker.send(&[stats]).remove(0)) else {
        panic!("not a STATS frame");
    };
    let sum = |row: &str| -> u64 {
        let (_, per_stripe) = fields.iter().find(|(k, _)| k == row).expect(row);
        per_stripe
            .split(',')
            .map(|v| v.parse::<u64>().unwrap())
            .sum()
    };
    assert_eq!(
        (sum("result_cache_hits"), sum("result_cache_misses")),
        (n, 2 * n + 1)
    );
}
