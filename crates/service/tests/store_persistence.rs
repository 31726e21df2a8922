//! The acceptance properties of the persistent decomposition store at
//! the service level:
//!
//! 1. restarting a store-backed service answers a replayed request set
//!    **byte-identically** to the pre-restart run, with store /
//!    result-cache hits reported in `STATS` and — counted from the
//!    `METRICS` stage histograms — no solver work at all;
//! 2. a corrupted store — random bit flips anywhere in the file —
//!    degrades to a cold recompute with **identical answers**, never a
//!    panic and never a trusted-but-wrong response;
//! 3. a semantically stale record (valid checksum, witness that does
//!    not decompose the schema) is rejected by re-validation and
//!    recomputed;
//! 4. a store hit — served to the request that probed the store, then
//!    from the result cache it was copied into, or preloaded at boot —
//!    sends the frame a server without a result cache computes.

mod common;

use common::{cacheable_requests, decode};
use softhw_core::td::TreeDecomposition;
use softhw_hypergraph::{named, render_hypergraph, BitSet};
use softhw_service::{
    EvalKind, Request, RequestClass, RequestCtx, Response, ServiceConfig, ServiceState, TdFrame,
    WireRequest,
};
use softhw_store::{ClassKey, PutAnswer, Store};
use std::path::PathBuf;

/// One single request through the service's one `handle`: the frame.
fn handle(state: &ServiceState, req: &Request) -> String {
    state.handle(&WireRequest::Single(req.clone()), &RequestCtx::default())
}

struct TempStore {
    path: PathBuf,
}

impl TempStore {
    fn new(name: &str) -> TempStore {
        let path = std::env::temp_dir().join(format!(
            "softhw-service-{}-{name}-{:?}.store",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_file(&path);
        TempStore { path }
    }
}

impl Drop for TempStore {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.path);
    }
}

/// The replayed request set: several schemas, all cacheable classes.
fn workload() -> Vec<Request> {
    let schemas: Vec<String> = [
        named::h2(),
        named::cycle(5),
        named::cycle(6),
        named::grid(3, 3),
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
        RequestClass::Best(EvalKind::Shallow(1), 2),
    ];
    let mut reqs = Vec::new();
    for schema in &schemas {
        for class in classes {
            reqs.push(Request::new(class, schema.clone()));
        }
    }
    reqs
}

fn run_all(state: &ServiceState, reqs: &[Request]) -> Vec<String> {
    reqs.iter().map(|r| handle(state, r)).collect()
}

fn stats_field(state: &ServiceState, field: &str) -> Option<String> {
    stats_field_for(state, &render_hypergraph(&named::h2()), field)
}

/// One row of the `STATS` answer to a request carrying `schema`.
fn stats_field_for(state: &ServiceState, schema: &str, field: &str) -> Option<String> {
    let resp = handle(state, &Request::new(RequestClass::Stats, schema));
    match decode(&resp) {
        Response::Stats { fields } => fields
            .iter()
            .find(|(k, _)| k == field)
            .map(|(_, v)| v.clone()),
        other => panic!("unexpected response {other:?}"),
    }
}

/// The observation count of one stage histogram, read off the `METRICS`
/// exposition (which itself records no stage).
fn stage_count(state: &ServiceState, stage: &str) -> u64 {
    let series = format!("softhw_stage_duration_us_count{{stage=\"{stage}\"}} ");
    match decode(&handle(state, &Request::new(RequestClass::Metrics, ""))) {
        Response::Metrics { lines } => {
            let line = lines.iter().find_map(|l| l.strip_prefix(series.as_str()));
            line.expect("every stage is exposed").parse().unwrap()
        }
        other => panic!("unexpected response {other:?}"),
    }
}

#[test]
fn restart_replays_byte_identically_with_store_hits() {
    let tmp = TempStore::new("restart");
    let reqs = workload();
    let reference = {
        let state =
            ServiceState::open_store(ServiceConfig::default(), &tmp.path).expect("open store");
        let out = run_all(&state, &reqs);
        assert!(state.sync_store());
        out
    }; // state dropped: persister joined, log durable
       // Restart 1: default warm start. Every response must be
       // byte-identical, and STATS must report persisted state serving the
       // traffic (warm-started results + result-cache hits).
    let state = ServiceState::open_store(ServiceConfig::default(), &tmp.path).expect("reopen");
    assert!(state.has_store());
    let replayed = run_all(&state, &reqs);
    assert_eq!(reference, replayed, "restart changed a response");
    let warmed: u64 = stats_field(&state, "store_warmed")
        .unwrap()
        .parse()
        .unwrap();
    assert!(warmed > 0, "warm start preloaded nothing");
    let rc_hits = stats_field(&state, "result_cache_hits").unwrap();
    assert!(
        rc_hits.split(',').any(|v| v != "0"),
        "no result-cache hits reported: {rc_hits}"
    );
    assert_eq!(
        stats_field(&state, "store_recovered_bytes").as_deref(),
        Some("0")
    );
    drop(state);
    // Restart 2: warm start disabled, so every request exercises the
    // store-probe path instead — still byte-identical, with store hits.
    let cold_config = ServiceConfig {
        warm_start: 0,
        ..ServiceConfig::default()
    };
    let state = ServiceState::open_store(cold_config, &tmp.path).expect("reopen cold");
    let replayed = run_all(&state, &reqs);
    assert_eq!(reference, replayed, "cold-warm restart changed a response");
    // Counted, not inferred from the hit counter (and before `STATS`,
    // which reduces, is asked): a store hit is one probe, which
    // re-validates the witness, and no solver stage.
    assert_eq!(stage_count(&state, "store_probe"), reqs.len() as u64);
    for solver_stage in ["reduce", "index_build", "enumerate", "solve"] {
        assert_eq!(stage_count(&state, solver_stage), 0, "{solver_stage}");
    }
    let hits: u64 = stats_field(&state, "store_hits").unwrap().parse().unwrap();
    assert_eq!(
        hits,
        reqs.len() as u64,
        "every request should have been served from the store"
    );
}

#[test]
fn corrupted_store_degrades_to_cold_recompute_with_identical_answers() {
    let tmp = TempStore::new("corrupt");
    let reqs = workload();
    // Reference responses from a storeless state (pure solver answers).
    let reference = run_all(&ServiceState::new(ServiceConfig::default()), &reqs);
    // Populate the store.
    {
        let state =
            ServiceState::open_store(ServiceConfig::default(), &tmp.path).expect("open store");
        let served = run_all(&state, &reqs);
        assert_eq!(reference, served, "store-backed first run must match");
        assert!(state.sync_store());
    }
    let clean = std::fs::read(&tmp.path).expect("read store file");
    // Deterministic pseudo-random flips across the whole file (magic
    // included): the service must never panic, never serve a wrong
    // byte, and report the degradation in STATS.
    let mut seed = 0x9e3779b97f4a7c15u64;
    for trial in 0..12 {
        seed = seed
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let byte = (seed >> 16) as usize % clean.len();
        let bit = (seed >> 56) % 8;
        let mut corrupt = clean.clone();
        corrupt[byte] ^= 1 << bit;
        std::fs::write(&tmp.path, &corrupt).expect("write corrupt store");
        let state =
            ServiceState::open_store(ServiceConfig::default(), &tmp.path).expect("open corrupt");
        let served = run_all(&state, &reqs);
        assert_eq!(
            reference, served,
            "trial {trial}: corruption at byte {byte} changed an answer"
        );
    }
}

#[test]
fn stale_records_are_rejected_and_recomputed() {
    let tmp = TempStore::new("stale");
    let h_text = render_hypergraph(&named::cycle(6));
    let h = softhw_hypergraph::parse_hypergraph(&h_text).unwrap();
    // Craft a checksum-valid but semantically wrong record: a "witness"
    // that is just one undersized bag, under the exact-shw key, claiming
    // width 1.
    {
        let mut store = Store::open(&tmp.path).expect("open");
        let fake = TreeDecomposition::new(BitSet::from_iter(h.num_vertices(), [0, 1]));
        let frame = TdFrame::from_td(&fake, h.num_vertices());
        store
            .put(
                &h,
                ClassKey::Shw,
                &[],
                PutAnswer::Width {
                    width: 1,
                    frame: (&frame).into(),
                },
            )
            .expect("put fake");
        store.sync().expect("sync");
    }
    let fresh = ServiceState::new(ServiceConfig::default());
    let reference = handle(&fresh, &Request::new(RequestClass::Shw, h_text.clone()));
    let state = ServiceState::open_store(ServiceConfig::default(), &tmp.path).expect("open");
    let served = handle(&state, &Request::new(RequestClass::Shw, h_text.clone()));
    assert_eq!(reference, served, "stale witness must not be served");
    let invalid: u64 = stats_field(&state, "store_invalid")
        .unwrap()
        .parse()
        .unwrap();
    assert!(invalid >= 1, "rejection must be reported");
    // The cold recompute was persisted, superseding the stale record:
    // after a sync + restart the store now serves the *correct* answer.
    assert!(state.sync_store());
    drop(state);
    let state = ServiceState::open_store(
        ServiceConfig {
            warm_start: 0,
            ..ServiceConfig::default()
        },
        &tmp.path,
    )
    .expect("reopen");
    let served = handle(&state, &Request::new(RequestClass::Shw, h_text));
    assert_eq!(reference, served);
    let hits: u64 = stats_field(&state, "store_hits").unwrap().parse().unwrap();
    assert_eq!(hits, 1, "the superseding record should now hit");
}

#[test]
fn warm_started_schemas_wait_on_the_stripe_a_live_request_routes_to() {
    // Boot routes a stored schema by its stored hash, a live request by
    // the hash it computes: they must be the same stripe, or a
    // warm-started answer sits where no request will look. The reducible
    // schema is the one whose reduced form hashes differently.
    let tmp = TempStore::new("warm-route");
    let reducible = "c0(v0,v1), c1(v1,v2), c2(v2,v3), c3(v3,v0), dup(v0,v1), p1(v2,p), p2(p,q).";
    let mut schemas: Vec<String> = [named::h2(), named::cycle(6), named::grid(3, 3)]
        .iter()
        .map(render_hypergraph)
        .collect();
    schemas.push(reducible.to_string());
    let first_request = |schema: &String| Request::new(RequestClass::Shw, schema.clone());
    let reference: Vec<String> = {
        let state =
            ServiceState::open_store(ServiceConfig::default(), &tmp.path).expect("open store");
        let out = schemas.iter().map(first_request);
        let out = out.map(|req| handle(&state, &req)).collect();
        assert!(state.sync_store());
        out
    };
    let state = ServiceState::open_store(ServiceConfig::default(), &tmp.path).expect("reopen");
    for (schema, expected) in schemas.iter().zip(&reference) {
        // `STATS` is a live request: its `stripe` row is live routing.
        let row = |field: &str| stats_field_for(&state, schema, field).expect(field);
        let stripe: usize = row("stripe").parse().unwrap();
        let on_stripe = |field: &str| -> u64 {
            let per_stripe = row(field);
            let value = per_stripe
                .split(',')
                .nth(stripe)
                .expect("a value per stripe");
            value.parse().unwrap()
        };
        let (hits, misses) = (
            on_stripe("result_cache_hits"),
            on_stripe("result_cache_misses"),
        );
        assert_eq!(&handle(&state, &first_request(schema)), expected);
        assert_eq!(on_stripe("result_cache_hits"), hits + 1, "{schema}");
        assert_eq!(on_stripe("result_cache_misses"), misses, "{schema}");
        assert_eq!(row("store_hits"), "0", "{schema}: probed the store");
    }
}

#[test]
fn store_hits_send_the_frames_an_uncached_server_sends() {
    // A store hit is encoded once, where it is copied into the result
    // cache: the request that probed the store, every later hit on that
    // copy, and a frame preloaded at boot all send what a server with
    // `--result-cache 0` computes.
    let tmp = TempStore::new("hit-bytes");
    let reqs = cacheable_requests();
    let uncached = ServiceConfig {
        result_cache_capacity: 0,
        ..ServiceConfig::default()
    };
    let reference = run_all(&ServiceState::new(uncached), &reqs);
    {
        let state =
            ServiceState::open_store(ServiceConfig::default(), &tmp.path).expect("open store");
        assert_eq!(run_all(&state, &reqs), reference, "the first run");
        assert!(state.sync_store());
    }
    let probing = ServiceConfig {
        warm_start: 0,
        ..ServiceConfig::default()
    };
    let state = ServiceState::open_store(probing, &tmp.path).expect("reopen");
    assert_eq!(run_all(&state, &reqs), reference, "store hits");
    let store_hits = stats_field(&state, "store_hits").expect("a store row");
    assert_eq!(store_hits, reqs.len().to_string());
    assert_eq!(run_all(&state, &reqs), reference, "cached store hits");
    assert_eq!(stats_field(&state, "store_hits"), Some(store_hits));
    drop(state);
    let warm = ServiceConfig {
        warm_start: reqs.len(),
        ..ServiceConfig::default()
    };
    let state = ServiceState::open_store(warm, &tmp.path).expect("reopen warm");
    let warmed = stats_field(&state, "store_warmed").expect("a store row");
    assert_eq!(warmed, reqs.len().to_string());
    assert_eq!(run_all(&state, &reqs), reference, "preloaded frames");
    assert_eq!(stats_field(&state, "store_hits").as_deref(), Some("0"));
}
