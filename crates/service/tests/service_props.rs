//! Concurrency correctness of the shared decomposition cache: responses
//! produced under simultaneous mixed-schema traffic must be identical,
//! byte for byte, to a single-threaded replay of the requests in the
//! order each stripe actually processed them.
//!
//! The service serialises handlers per stripe (one mutex per
//! [`softhw_core::DecompCache`]), and every cached entry point is
//! deterministic, so a response may depend on its stripe's processing
//! history (warm vs cold paths, LRU evictions, stats counters) but on
//! nothing else — not on thread scheduling, not on traffic to other
//! stripes. The test records each stripe's linearisation under real
//! contention, then replays it on a fresh single-threaded state and
//! compares every response.
//!
//! One carve-out: `STATS` responses carry **cross-stripe observability
//! rows** (`stripe_load=…`, `stripe_evictions=…`, `result_cache_*=…`,
//! `store_*=…`) that by definition reflect global concurrent progress,
//! not the routed stripe's own history — they are sampled from atomics
//! without other stripes' locks. Those rows (and only those) are
//! masked before comparison; every answer-bearing byte, including all
//! deterministic STATS fields, is still compared exactly.

use softhw_hypergraph::{named, render_hypergraph};
use softhw_service::{
    EvalKind, Request, RequestClass, RequestCtx, Response, ServiceConfig, ServiceState, WireRequest,
};
use std::sync::atomic::{AtomicUsize, Ordering};

/// One single request through the service's one `handle`, recording
/// `tag` in its stripe's processing log.
fn handle(state: &ServiceState, req: &Request, tag: Option<u64>) -> Response {
    let ctx = RequestCtx {
        tag,
        ..RequestCtx::default()
    };
    state.handle(&WireRequest::Single(req.clone()), &ctx)
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
    // Two rounds so warm-path responses (memo hits, prepared instances)
    // are part of what concurrency must preserve.
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
        key == "stripe_load"
            || key == "stripe_evictions"
            // Cache bytes sum mirrors of *all* stripes, so the value
            // reflects global concurrent progress like the rows above.
            || key == "bytes_per_cached_schema"
            || key.starts_with("result_cache_")
            || key.starts_with("store_")
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
/// over a shared counter, so interleavings vary run to run), tagging
/// each request with its index; returns the responses by request index.
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
                let resp = handle(state, &reqs[i], Some(i as u64)).encode();
                **slots[i].lock().unwrap() = resp;
            });
        }
    });
    responses
}

fn check_concurrent_matches_replay(config: ServiceConfig, threads: usize) {
    let reqs = workload();
    let state = ServiceState::new(config.clone());
    let concurrent = run_concurrent(&state, &reqs, threads);
    let logs = state.stripe_logs();
    assert_eq!(
        logs.iter().map(Vec::len).sum::<usize>(),
        reqs.len(),
        "every request must be logged exactly once"
    );

    // Replay: a fresh state processes each stripe's requests in the
    // exact order the concurrent run linearised them. Stripes share no
    // state, so replaying stripe by stripe is a faithful serialisation.
    let replay_state = ServiceState::new(config);
    for log in &logs {
        for &tag in log {
            let i = tag as usize;
            let replayed = handle(&replay_state, &reqs[i], None).encode();
            assert_eq!(
                mask_volatile(&replayed),
                mask_volatile(&concurrent[i]),
                "request {i} ({:?}) diverged from its replay",
                reqs[i].class
            );
        }
    }
}

#[test]
fn concurrent_responses_equal_single_threaded_replay() {
    check_concurrent_matches_replay(ServiceConfig::default(), 8);
}

#[test]
fn single_stripe_full_contention_still_replays_exactly() {
    // One stripe = one DecompCache shared by every schema and thread:
    // the strongest same-cache contention case.
    check_concurrent_matches_replay(
        ServiceConfig {
            stripes: 1,
            ..ServiceConfig::default()
        },
        8,
    );
}

#[test]
fn eviction_churn_under_concurrency_replays_exactly() {
    // Capacity 2 with six schemas per stripe bank: concurrent requests
    // continuously evict each other's warm state. Responses must still
    // be exactly the replay's (evicted entries recompute cold with
    // identical answers).
    check_concurrent_matches_replay(
        ServiceConfig {
            stripes: 2,
            cache_capacity: 2,
            ..ServiceConfig::default()
        },
        8,
    );
}

#[test]
fn bounded_answers_do_not_depend_on_whether_shw_ran_first() {
    // Reduction off, so `SHW` and `SHW_LEQ k` share the schema's own
    // decision memo: whichever class fills an entry, the other must read
    // back the frame a fresh server would have computed.
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
            handle(state, &Request::new(class, schema.clone()), None).encode()
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
    // BEST builds its instance on the stripe's warm index — the one
    // SHW_LEQ decisions enumerate on — and keeps nothing afterwards, so
    // a frame must not depend on which evaluators or widths, or which
    // decisions, touched that index first. With and without reduction.
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
                handle(state, &Request::new(class, schema.clone()), None).encode()
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
                let frame = handle(&ServiceState::new(config.clone()), &req, None).encode();
                out.push_str(&format!("## {name} {} {k}\n{frame}", eval.token()));
            }
        }
    }
    out
}

#[test]
fn best_frames_equal_the_golden_file() {
    // Captured at the parent of the once-per-bag DP (PR 15): Algorithm 2
    // may be reorganised freely, but wave order and first-wins
    // tie-breaking — hence every witness byte — must not move.
    let golden = include_str!("golden/best_frames.txt");
    let now = best_frames();
    for (want, got) in golden.split("## ").zip(now.split("## ")) {
        assert_eq!(got, want, "BEST frame diverged from the golden file");
    }
    assert_eq!(now.len(), golden.len());
}
