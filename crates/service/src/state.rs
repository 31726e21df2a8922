//! Request handling: an exact result cache, (optionally) the persistent
//! decomposition store, and a solver run that lives for one request.
//!
//! Everything enters through one method,
//! [`ServiceState::handle`]`(&WireRequest, &RequestCtx)`: a single
//! request or a `BATCH`, with its budget and trace id in the context.
//!
//! The state the service shares across connections is a bank of
//! result caches ("stripes"). A request's schema is scanned and hashed
//! once — the structural hash of its canonical form, the same hash that
//! keys the result cache and the store — and routed to stripe `hash mod
//! stripes`: requests over the *same* schema always meet the same result
//! cache, while requests over different schemas almost always run
//! concurrently on different stripes.
//!
//! The one request path is cut in two where the expensive half starts.
//! [`ServiceState::handle`] runs both halves on the caller's thread; the
//! server's event loop may run the first half itself and hand a worker
//! the rest (see [`crate::server`]).
//!
//! 1. The **front half** is all a repeated request needs: scan the body
//!    to its canonical form ([`softhw_hypergraph::Scan`] — no
//!    `Hypergraph` is built, no name copied; a SQL body goes through the
//!    query AST instead), one hash and one digest, and one probe of the
//!    per-stripe **result cache** keyed by `(structural hash, canonical
//!    digest, request class)`, holding each answer as the wire frame it
//!    is sent as — encoded once, when it is inserted, so a hit copies
//!    bytes and builds no [`Response`]. No reduction, no solver call, no
//!    walk over anything cached: the only stage it records is
//!    `result_cache`.
//! 2. The **back half** is everything a miss needs, from what the front
//!    half computed — nothing is parsed or hashed twice. It builds the
//!    `Hypergraph`, and then, with `--store`, probes the **persistent
//!    store** ([`softhw_store::Store`]): every persisted witness is
//!    **re-validated against the schema** before it is served — a stale
//!    or corrupt store entry is treated as a miss and recomputed cold,
//!    byte-identical. Otherwise it solves, inserts the answer, and
//!    persists it through a **write-behind channel** to a dedicated
//!    thread that batches fsyncs off the request path. At boot,
//!    [`ServiceState::with_store`] **warm-starts** the result caches
//!    from the hottest stored schemas.
//!
//! Each stripe has **two mutexes**, because the two halves want
//! different things from a lock. The *probe lock* guards the result
//! cache and is held for one `get` or one `insert`, never across a store
//! probe or a solve: any thread may take it, the event loop included,
//! and none waits on it longer than a probe. The *solve lock* is what
//! makes a second identical request wait for the first one's answer
//! instead of solving beside it: only the back half takes it, holds it
//! from a second probe (which finds that answer) through the store and
//! the solvers to the insert, and so the store sees one put per key. The
//! event loop never runs a back half, so it never waits for a solve.
//!
//! A miss on both layers solves cold ([`softhw_core::solve`]): an
//! exact-width sweep shares one index per reduced piece across
//! `k = 1, 2, …`, and nothing of the solver outlives the request. Every
//! solver entry point is deterministic, so a cacheable response is a function
//! of the request alone — not of what the server answered before, of
//! thread scheduling, or of which layer served it — which is what the
//! concurrency property test checks, response for response, against
//! fresh single-request states.
//!
//! Handlers never panic on request content: schema errors, blown
//! generation limits, and internal inconsistencies all map to `ERR`
//! responses.

use crate::metrics::{ServiceObs, StripeMirror};
use crate::persist::{persist_msg, response_from_hit, StoreHandle};
use crate::wire::{
    encode_batch, BodyFormat, EvalKind, Request, RequestClass, Response, WireRequest,
};
use softhw_core::constraints::{ConCov, ShallowCyc, Trivial};
use softhw_core::ctd_opt::best_on_budgeted;
use softhw_core::error::DecompError;
use softhw_core::shw::soft_instance;
use softhw_core::soft::SoftLimits;
use softhw_core::{Budget, SolveSpec, Solved, TdFrame, TreeDecomposition};
use softhw_hypergraph::cache::canonical_form;
use softhw_hypergraph::fxhash::hash_u64s;
use softhw_hypergraph::{scan_hypergraph, FxHashMap, Hypergraph, Scan};
use softhw_obs::stage;
use softhw_store::{schema_digest, ClassKey};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};
use std::time::Instant;

/// Tuning knobs of a [`ServiceState`].
#[derive(Clone, Debug)]
pub struct ServiceConfig {
    /// Number of result-cache stripes (concurrently lockable shards).
    pub stripes: usize,
    /// Per-stripe result-cache capacity (cached answer frames; `0`
    /// disables the layer).
    pub result_cache_capacity: usize,
    /// Candidate-generation guards applied to every request.
    pub limits: SoftLimits,
    /// Largest schema (edge count) a request may carry.
    pub max_edges: usize,
    /// How many of the store's hottest schemas to preload at boot
    /// (ignored without a store).
    pub warm_start: usize,
    /// Disable the reduce-before-solve pipeline (the `--no-reduce`
    /// escape hatch). Routing (which never reduces) and the `STATS`
    /// reduction rows are unaffected — only the solvers stop acting on
    /// the reduction.
    pub no_reduce: bool,
    /// Compute deadline applied to requests that carry no `DEADLINE`
    /// token of their own (`--default-deadline`); `None` means
    /// unbounded.
    pub default_deadline_ms: Option<u64>,
    /// Record per-request traces, per-class latency histograms, and
    /// per-stage duration histograms (the `METRICS` exposition). Off,
    /// requests skip every observability write; responses are
    /// byte-identical either way.
    pub obs_enabled: bool,
    /// Requests slower than this many milliseconds record their full
    /// span tree into the slow-query ring (`--slow-ms`; `0` records
    /// everything, `None` disables the ring).
    pub slow_ms: Option<u64>,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            stripes: 8,
            result_cache_capacity: 1024,
            limits: SoftLimits::default(),
            max_edges: 100_000,
            warm_start: 64,
            no_reduce: false,
            default_deadline_ms: None,
            obs_enabled: true,
            slow_ms: None,
        }
    }
}

/// What travels with a request frame into [`ServiceState::handle`]
/// besides the frame itself. The default — a budget derived from the
/// frame's own `DEADLINE`, a locally minted trace id — is what embedded
/// and test callers want.
#[derive(Clone, Debug, Default)]
pub struct RequestCtx {
    /// The budget the frame runs under; `None` derives
    /// [`ServiceState::request_budget`]. The server supplies its own so
    /// a draining shutdown can cancel it.
    pub budget: Option<Budget>,
    /// Trace id minted by the event loop; `None` mints one here.
    pub trace: Option<u64>,
}

/// The backoff hint (milliseconds) sent with `BUSY` responses — both
/// queue sheds and requests cancelled mid-flight by a draining server.
pub const BUSY_RETRY_MS: u64 = 100;

/// A request's schema as [`ServiceState::front`] leaves it.
enum Schema {
    /// A HyperBench body, scanned to ids: the [`Hypergraph`] is built
    /// from the scan and the body by [`ServiceState::back`], if at all.
    Scanned(Scan),
    /// A SQL body: the query AST builds its hypergraph on the way.
    Built(Hypergraph),
}

/// What [`ServiceState::front`] computed for a request it could not
/// answer: all [`ServiceState::back`] needs besides the request itself,
/// so nothing is parsed or hashed twice.
pub(crate) struct Miss {
    schema: Schema,
    hash: u64,
    digest: u64,
    /// The stripe `hash` routes to.
    idx: usize,
    /// When the request began, for the class latency the back half
    /// reports.
    started: Instant,
}

/// How far [`ServiceState::front`] got with a request.
pub(crate) enum Front {
    /// Answered, with the encoded frame: a result-cache hit, a
    /// schema-free class, or a request error.
    Done(String),
    /// Not in the result cache (or, for `STATS`, not cacheable).
    Miss(Miss),
}

/// A result-cache key: `(structural hash, canonical digest, request
/// class)`.
type CacheKey = (u64, u64, ClassKey);

/// A bounded LRU of answers as the wire frames they are sent as, keyed
/// by [`CacheKey`]: one stripe of the service's only in-memory tier. A
/// frame is encoded once, before it is inserted, and a hit is a copy of
/// its bytes — no hit builds or encodes a [`Response`].
pub(crate) struct ResultCache {
    capacity: usize,
    map: FxHashMap<CacheKey, (u64, Box<str>)>,
    tick: u64,
    pub(crate) hits: u64,
    pub(crate) misses: u64,
    /// Σ `len` of the frames held, kept up to date on insert, replace
    /// and eviction.
    pub(crate) bytes: u64,
}

impl ResultCache {
    fn new(capacity: usize) -> ResultCache {
        ResultCache {
            capacity,
            map: FxHashMap::default(),
            tick: 0,
            hits: 0,
            misses: 0,
            bytes: 0,
        }
    }

    /// A request's probe: counted as a hit or as a miss.
    fn get(&mut self, key: &CacheKey) -> Option<String> {
        let hit = self.get_again(key);
        if hit.is_none() {
            self.misses += 1;
        }
        hit
    }

    /// The second look of a request whose [`ResultCache::get`] missed:
    /// that miss is already counted, so only a hit is counted here.
    fn get_again(&mut self, key: &CacheKey) -> Option<String> {
        self.tick += 1;
        let (tick, frame) = self.map.get_mut(key)?;
        *tick = self.tick;
        self.hits += 1;
        Some(String::from(&**frame))
    }

    fn insert(&mut self, key: CacheKey, frame: Box<str>) {
        if self.capacity == 0 {
            return;
        }
        self.tick += 1;
        self.bytes += frame.len() as u64;
        if let Some((_, old)) = self.map.insert(key, (self.tick, frame)) {
            self.bytes -= old.len() as u64;
        }
        if self.map.len() > self.capacity {
            // Amortised batch eviction: drop down to capacity minus an
            // eighth in one pass, so the O(n) sweep runs once per
            // capacity/8 inserts instead of per insert.
            let keep = self.capacity - self.capacity / 8;
            let mut ticks: Vec<u64> = self.map.values().map(|(t, _)| *t).collect();
            ticks.sort_unstable();
            let Some(&cutoff) = ticks.get(ticks.len().saturating_sub(keep)) else {
                return;
            };
            let bytes = &mut self.bytes;
            self.map.retain(|_, (t, frame)| {
                let kept = *t >= cutoff;
                if !kept {
                    *bytes -= frame.len() as u64;
                }
                kept
            });
        }
    }
}

/// Shared, thread-safe service state: the striped result-cache bank
/// plus the optional persistent store.
pub struct ServiceState {
    pub(crate) config: ServiceConfig,
    /// The probe locks: each held for one `get` or one `insert`, by any
    /// thread — the server's event loop included.
    pub(crate) stripes: Vec<Mutex<ResultCache>>,
    /// The solve locks, index-aligned with `stripes`: held by
    /// [`ServiceState::back`] from its second probe to its insert, across
    /// the store probe and the solvers. Never taken by the event loop.
    solves: Vec<Mutex<()>>,
    /// One lock-free counter mirror per stripe, index-aligned with
    /// `stripes`.
    pub(crate) mirrors: Vec<StripeMirror>,
    /// Requests whose compute deadline expired (answered `TIMEOUT`).
    pub(crate) deadline_timeouts: AtomicU64,
    /// Requests shed before any work — queue-full `BUSY` responses
    /// (reported by the server via [`ServiceState::note_busy_shed`])
    /// plus requests cancelled mid-flight by a draining server.
    pub(crate) busy_sheds: AtomicU64,
    /// Connections currently open on the serving event loop (reported
    /// by the server via [`ServiceState::note_conn_opened`] /
    /// [`ServiceState::note_conn_closed`]).
    pub(crate) conns_active: AtomicU64,
    /// High-water mark of requests in flight on a single connection —
    /// how deep clients actually pipeline.
    pub(crate) pipelined_depth: AtomicU64,
    /// `BATCH` frames served (each counts once, however many items it
    /// carried).
    pub(crate) batch_requests: AtomicU64,
    pub(crate) obs: ServiceObs,
    pub(crate) store: Option<StoreHandle>,
}

impl ServiceState {
    /// Fresh state under `config` (stripe count clamped to ≥ 1), no
    /// persistence.
    pub fn new(config: ServiceConfig) -> ServiceState {
        let n = config.stripes.max(1);
        let stripes = (0..n)
            .map(|_| Mutex::new(ResultCache::new(config.result_cache_capacity)))
            .collect();
        let obs = ServiceObs::new(&config);
        ServiceState {
            config,
            stripes,
            solves: (0..n).map(|_| Mutex::new(())).collect(),
            mirrors: (0..n).map(|_| StripeMirror::default()).collect(),
            deadline_timeouts: AtomicU64::new(0),
            busy_sheds: AtomicU64::new(0),
            conns_active: AtomicU64::new(0),
            pipelined_depth: AtomicU64::new(0),
            batch_requests: AtomicU64::new(0),
            obs,
            store: None,
        }
    }

    /// The stripe a schema routes to: its structural hash — the one
    /// hash a request computes, which also keys the result cache and the
    /// store — modulo the stripe count. Live requests and the boot-time
    /// warm start both route here, so a warm-started schema is waiting on
    /// the stripe its first request locks.
    pub(crate) fn stripe_of(&self, hash: u64) -> usize {
        (hash % self.stripes.len() as u64) as usize
    }

    /// The configuration this state was created with.
    pub fn config(&self) -> &ServiceConfig {
        &self.config
    }

    /// Number of stripes.
    pub fn num_stripes(&self) -> usize {
        self.stripes.len()
    }

    /// Handles one request frame — a single request or a `BATCH` — end
    /// to end, front half then back half on the calling thread; the one
    /// public way into the service. The trace is begun and ended on this
    /// thread, the frame's latency lands in its class histogram, each
    /// recorded span in its stage histogram, and a frame slower than
    /// `--slow-ms` records its span tree into the slow-query ring.
    /// Returns the encoded response frame, terminator included: the
    /// bytes a server sends ([`Response::decode`] reads it back).
    ///
    /// Every `BATCH` item takes the full single-request path (routing,
    /// result cache, store, solvers) in item order under the frame's one
    /// shared budget — so the sub-responses are byte-identical to
    /// sending the items as individual requests under budgets that trip
    /// at the same points. The batch owns the trace; item spans nest
    /// into it, and each item still lands in its own class's latency
    /// histogram.
    pub fn handle(&self, req: &WireRequest, ctx: &RequestCtx) -> String {
        let started = Instant::now();
        let owns_trace = self.obs.begin(ctx.trace);
        let budget = match &ctx.budget {
            Some(budget) => budget.clone(),
            None => self.request_budget(req),
        };
        let (class, frame) = match req {
            WireRequest::Single(one) => {
                let frame = self.handle_inner(one, &budget, started);
                (one.class.name(), frame)
            }
            WireRequest::Batch(batch) => {
                self.batch_requests.fetch_add(1, Ordering::Relaxed);
                if self.obs.enabled {
                    self.obs.batch_sizes.observe(batch.items.len() as u64);
                }
                let answer = |item: &Request| {
                    let item_started = Instant::now();
                    let frame = self.handle_inner(item, &budget, item_started);
                    self.finish_request(item.class.name(), item_started, false);
                    frame
                };
                let frames: Vec<String> = batch.items.iter().map(answer).collect();
                ("BATCH", encode_batch(&frames))
            }
        };
        self.finish_request(class, started, owns_trace);
        frame
    }

    /// The [`Budget`] a request frame runs under when its
    /// [`RequestCtx`] supplies none: its own `DEADLINE` token if
    /// present, else the server's `--default-deadline`, else an
    /// unbounded-but-cancellable budget. A `BATCH` frame's token covers
    /// the *whole batch* (items drain it in order — once it trips, every
    /// remaining item that needs solver work answers `TIMEOUT`, while
    /// result-cache and store hits still serve, same as single
    /// requests). The deadline clock starts here — *before* the stripe's
    /// solve lock is taken — so time spent queueing behind a slow
    /// neighbour counts against the request, exactly like queueing in
    /// the accept backlog would.
    pub fn request_budget(&self, req: &WireRequest) -> Budget {
        let deadline_ms = match req {
            WireRequest::Single(one) => one.deadline_ms,
            WireRequest::Batch(batch) => batch.deadline_ms,
        };
        match deadline_ms.or(self.config.default_deadline_ms) {
            Some(ms) => Budget::with_deadline(std::time::Duration::from_millis(ms)),
            None => Budget::cancellable(),
        }
    }

    /// One request end to end on the calling thread: the front half,
    /// and on a miss the back half from what the front half computed.
    fn handle_inner(&self, req: &Request, budget: &Budget, started: Instant) -> String {
        match self.front(req, started) {
            Front::Done(frame) => frame,
            Front::Miss(miss) => self.back(req, miss, budget),
        }
    }

    /// The front half alone, for the server's event loop: a trace of its
    /// own on the calling thread, and a request it answers is a finished
    /// request. One it hands on is not: its spans are folded into the
    /// stage histograms here, and [`ServiceState::handle_back`] counts it
    /// from `started` on, so its class latency covers both halves.
    pub(crate) fn handle_front(&self, req: &Request, trace: u64) -> Front {
        let started = Instant::now();
        let owns_trace = self.obs.begin(Some(trace));
        let front = self.front(req, started);
        match &front {
            Front::Done(_) => self.finish_request(req.class.name(), started, owns_trace),
            Front::Miss(_) => {
                if owns_trace {
                    self.fold_trace();
                }
            }
        }
        front
    }

    /// The back half alone, on a worker, for a request whose front half
    /// ran on the event loop.
    pub(crate) fn handle_back(
        &self,
        req: &Request,
        miss: Miss,
        budget: &Budget,
        trace: u64,
    ) -> String {
        let started = miss.started;
        let owns_trace = self.obs.begin(Some(trace));
        let frame = self.back(req, miss, budget);
        self.finish_request(req.class.name(), started, owns_trace);
        frame
    }

    /// Everything a result-cache hit needs, and nothing a hit does not:
    /// the body scanned to its canonical form (a SQL body goes through
    /// the query AST), one hash and one digest of it, the stripe they
    /// select, one probe under that stripe's probe lock. Nothing is
    /// reduced, no [`Hypergraph`] is built for a HyperBench body, and no
    /// cache or store index is walked. The schema-free classes and
    /// request errors are answered here too; `STATS` has no cache key
    /// and goes on to [`ServiceState::back`] unprobed.
    fn front(&self, req: &Request, started: Instant) -> Front {
        match req.class {
            RequestClass::Hello => return Front::Done(Response::hello().encode()),
            RequestClass::Metrics => return Front::Done(self.metrics_response().encode()),
            RequestClass::Slow => return Front::Done(self.slow_response().encode()),
            _ => {}
        }
        let schema = match self.schema(req) {
            Ok(schema) => schema,
            Err(resp) => return Front::Done(resp.encode()),
        };
        let canon = match &schema {
            Schema::Scanned(scan) => scan.canonical_form(),
            Schema::Built(h) => canonical_form(h),
        };
        let hash = hash_u64s(&canon);
        let digest = schema_digest(&canon);
        let idx = self.stripe_of(hash);
        let Some(mirror) = self.mirrors.get(idx) else {
            let routing = Response::error("internal", "stripe routing out of range");
            return Front::Done(routing.encode());
        };
        mirror.load.fetch_add(1, Ordering::Relaxed);
        if let Some(key) = class_key(req.class) {
            let _span = softhw_obs::span(stage::RESULT_CACHE);
            let cached = self.with_results(idx, |r| r.get(&(hash, digest, key)));
            if let Some(frame) = cached.flatten() {
                return Front::Done(frame);
            }
        }
        Front::Miss(Miss {
            schema,
            hash,
            digest,
            idx,
            started,
        })
    }

    /// Runs `f` — one `get` or one `insert` — on stripe `idx`'s result
    /// cache under its probe lock, then copies the stripe's counters into
    /// its lock-free mirror. The lock is never held across anything
    /// else, so no thread waits on it for longer than a probe. `idx` is
    /// always a [`ServiceState::stripe_of`], so it is in range by
    /// construction, but the request path must stay panic-free, so out of
    /// range degrades to `None` instead of indexing.
    fn with_results<R>(&self, idx: usize, f: impl FnOnce(&mut ResultCache) -> R) -> Option<R> {
        let stripe = self.stripes.get(idx)?;
        let mut results = stripe.lock().unwrap_or_else(PoisonError::into_inner);
        let out = f(&mut results);
        self.mirrors.get(idx)?.record(&results);
        Some(out)
    }

    /// Everything a miss needs, from what [`ServiceState::front`]
    /// computed: the [`Hypergraph`], then — holding the stripe's solve
    /// lock, so a second identical request waits here for the first
    /// one's answer instead of solving beside it — a second probe, the
    /// store, the solvers, and the insert (persisting what the solvers
    /// produce). Budget trips map to `TIMEOUT`/`BUSY` frames and are
    /// never cached or persisted; cache and store probes themselves run
    /// un-budgeted (they are hash lookups, and a warm answer an instant
    /// after the deadline is still the byte-identical right answer). A
    /// store hit or a fresh answer is encoded once, here, and the frame
    /// that is cached is the frame that is sent.
    fn back(&self, req: &Request, miss: Miss, budget: &Budget) -> String {
        let Miss {
            schema,
            hash,
            digest,
            idx,
            ..
        } = miss;
        let h = match schema {
            Schema::Scanned(scan) => scan.build(&req.body),
            Schema::Built(h) => h,
        };
        let key = class_key(req.class);
        // Only what can be cached waits its turn: `STATS` has nothing to
        // wait for.
        let _turn = key
            .and(self.solves.get(idx))
            .map(|solve| solve.lock().unwrap_or_else(PoisonError::into_inner));
        if let Some(key) = key {
            let cached = self.with_results(idx, |r| r.get_again(&(hash, digest, key)));
            if let Some(frame) = cached.flatten() {
                return frame;
            }
            if let Some(handle) = &self.store {
                let _span = softhw_obs::span(stage::STORE_PROBE);
                let hit = handle
                    .store
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .get(hash, digest, &key);
                match hit {
                    Some(hit) => match response_from_hit(&key, hit, &h) {
                        Some(resp) => {
                            handle.hits.fetch_add(1, Ordering::Relaxed);
                            let frame = resp.encode();
                            self.cache(idx, (hash, digest, key), &frame);
                            return frame;
                        }
                        None => {
                            // Stale/corrupt entry: never trusted. Fall
                            // through to a cold compute (whose fresh
                            // result supersedes the bad record).
                            handle.invalid.fetch_add(1, Ordering::Relaxed);
                        }
                    },
                    None => {
                        handle.misses.fetch_add(1, Ordering::Relaxed);
                    }
                }
            }
        }
        let resp = {
            let _span = softhw_obs::span(stage::SOLVE);
            self.dispatch(req, &h, idx, budget)
        };
        let frame = resp.encode();
        // Only answers are cached and persisted — never errors, budget
        // trips, or the volatile classes (which have no key).
        let answered = matches!(resp, Response::Width { .. } | Response::Decision { .. });
        if let (Some(key), true) = (key, answered) {
            self.cache(idx, (hash, digest, key), &frame);
            if let Some(handle) = &self.store {
                if let (Some(tx), Some(msg)) = (&handle.tx, persist_msg(&h, key, resp)) {
                    let _ = tx.send(msg);
                }
            }
        }
        frame
    }

    /// Inserts an answer's encoded frame into stripe `idx`'s result
    /// cache (copied before the probe lock is taken).
    pub(crate) fn cache(&self, idx: usize, key: CacheKey, frame: &str) {
        let frame = Box::from(frame);
        self.with_results(idx, |r| r.insert(key, frame));
    }

    /// Scans (HyperBench) or parses (SQL) the request's schema and
    /// checks its size. HyperBench errors are positioned — `ERR parse
    /// <line>:<col>: <msg>` — so a client can point at the offending
    /// schema line instead of a raw byte offset.
    fn schema(&self, req: &Request) -> Result<Schema, Response> {
        let schema = match req.format {
            BodyFormat::HyperBench => Schema::Scanned(scan_hypergraph(&req.body).map_err(|e| {
                let (line, col) = e.line_col(&req.body);
                Response::error("parse", format!("{line}:{col}: {}", e.message))
            })?),
            BodyFormat::Sql => {
                let q =
                    softhw_query::parse_sql(&req.body).map_err(|e| Response::error("parse", e))?;
                Schema::Built(
                    softhw_query::ast_hypergraph(&q).map_err(|e| Response::error("parse", e))?,
                )
            }
        };
        let edges = match &schema {
            Schema::Scanned(scan) => scan.num_edges(),
            Schema::Built(h) => h.num_edges(),
        };
        if edges == 0 {
            return Err(Response::error("request", "empty schema"));
        }
        if edges > self.config.max_edges {
            return Err(Response::error(
                "request",
                format!(
                    "schema has {edges} edges, limit is {}",
                    self.config.max_edges
                ),
            ));
        }
        Ok(schema)
    }

    /// Answers a request the result cache and the store could not: the
    /// four width classes are one [`SolveSpec`] each through the cold
    /// [`softhw_core::solve`], which reduces unless `--no-reduce` and
    /// clamps an absurd `k` per piece (a sweep shares one index per piece
    /// across widths; nothing outlives the request), framed by the shape
    /// of what comes back; `BEST` runs Algorithm 2 on the schema as sent.
    fn dispatch(&self, req: &Request, h: &Hypergraph, idx: usize, budget: &Budget) -> Response {
        let (spec, k) = match req.class {
            RequestClass::Shw => (SolveSpec::shw(), None),
            RequestClass::ShwLeq(k) => (SolveSpec::shw_leq(k), Some(k)),
            RequestClass::Hw => (SolveSpec::hw(), None),
            RequestClass::HwLeq(k) => (SolveSpec::hw_leq(k), Some(k)),
            RequestClass::Best(eval, k) => {
                let best = self.best(eval, k, h, budget);
                return best.unwrap_or_else(|e| self.decomp_error(e));
            }
            RequestClass::Stats => return self.stats_response(h, idx),
            // The three schema-free classes are served before schema
            // parsing in `front`; kept for match exhaustiveness.
            RequestClass::Hello => return Response::hello(),
            RequestClass::Metrics => return self.metrics_response(),
            RequestClass::Slow => return self.slow_response(),
        };
        if k == Some(0) {
            return Response::error("request", "width must be >= 1");
        }
        let spec = spec
            .with_limits(self.config.limits.clone())
            .with_budget(budget.clone())
            .with_reduce(!self.config.no_reduce);
        let class = req.class.name().to_string();
        let frame = |td: &TreeDecomposition| TdFrame::from_td(td, h.num_vertices());
        let decision = |class, td: Option<&TreeDecomposition>| Response::Decision {
            class,
            fields: Vec::new(),
            k: k.unwrap_or_default(),
            td: td.map(frame),
        };
        // An exact `hw` on an input no width accepts degrades to an
        // error, not a panic (`solve` maps it to an internal ERR).
        match softhw_core::solve(h, &spec) {
            Ok(Solved::ShwWidth(width, td)) => Response::Width {
                class,
                width,
                td: frame(&td),
            },
            Ok(Solved::HwWidth(width, ghd)) => Response::Width {
                class,
                width,
                td: frame(&ghd.td),
            },
            Ok(Solved::ShwDecision(td)) => decision(class, td.as_ref()),
            Ok(Solved::HwDecision(ghd)) => decision(class, ghd.as_ref().map(|g| &g.td)),
            Err(e) => self.decomp_error(e),
        }
    }

    /// `BEST eval k`: Algorithm 2 over `Soft_{H,k}`. Generation and the
    /// instance build — the same prepared instance a `SHW_LEQ k` miss
    /// builds — and the DP on top of it all run under the request's
    /// budget; the instance is dropped once the best decomposition is
    /// framed (the answer lives in the result cache and the store).
    fn best(
        &self,
        eval: EvalKind,
        k: usize,
        h: &Hypergraph,
        budget: &Budget,
    ) -> Result<Response, DecompError> {
        if k == 0 {
            return Ok(Response::error("request", "width must be >= 1"));
        }
        // Soft_{H,k} and ConCov do not change past |E(H)| (a λ never
        // repeats an edge): an absurd k must not size scratch pools.
        let width = k.min(h.num_edges());
        let inst = soft_instance(h, width, &self.config.limits, budget)?;
        let mut fields = vec![("eval".to_string(), eval.token())];
        let best = match eval {
            EvalKind::Trivial => best_on_budgeted(&inst, &Trivial, budget)?.map(|(td, ())| td),
            EvalKind::ConCov => {
                best_on_budgeted(&inst, &ConCov { k: width }, budget)?.map(|(td, ())| td)
            }
            EvalKind::Shallow(d) => {
                best_on_budgeted(&inst, &ShallowCyc { d }, budget)?.map(|(td, cost)| {
                    fields.push(("cost".to_string(), cost.to_string()));
                    td
                })
            }
        };
        Ok(Response::Decision {
            class: "BEST".into(),
            fields,
            k,
            td: best.map(|td| TdFrame::from_td(&td, h.num_vertices())),
        })
    }
}

/// The store/result-cache key of a request class (`None` = not
/// cacheable: `STATS` is volatile by design).
pub(crate) fn class_key(class: RequestClass) -> Option<ClassKey> {
    Some(match class {
        RequestClass::Shw => ClassKey::Shw,
        RequestClass::ShwLeq(k) => ClassKey::ShwLeq(k as u64),
        RequestClass::Hw => ClassKey::Hw,
        RequestClass::HwLeq(k) => ClassKey::HwLeq(k as u64),
        RequestClass::Best(EvalKind::Trivial, k) => ClassKey::BestTrivial(k as u64),
        RequestClass::Best(EvalKind::ConCov, k) => ClassKey::BestConCov(k as u64),
        RequestClass::Best(EvalKind::Shallow(d), k) => ClassKey::BestShallow { d, k: k as u64 },
        RequestClass::Stats | RequestClass::Hello | RequestClass::Metrics | RequestClass::Slow => {
            return None
        }
    })
}

impl ServiceState {
    /// Maps a [`DecompError`] onto the wire: budget trips become
    /// `TIMEOUT`/`BUSY` frames (counted for `STATS`), everything else
    /// an `ERR` of the matching category.
    fn decomp_error(&self, e: DecompError) -> Response {
        match &e {
            DecompError::DeadlineExceeded => {
                self.deadline_timeouts.fetch_add(1, Ordering::Relaxed);
                Response::Timeout
            }
            DecompError::Canceled => {
                // Cancelled mid-flight (a draining server): the request
                // did not complete and should be retried elsewhere.
                self.busy_sheds.fetch_add(1, Ordering::Relaxed);
                Response::Busy {
                    retry_after_ms: BUSY_RETRY_MS,
                }
            }
            DecompError::Limit(_) => Response::error("limit", e),
            DecompError::Internal { .. } => Response::error("internal", e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::persist::lock_store;
    use softhw_core::{hw, shw};
    use softhw_hypergraph::{named, render_hypergraph};

    fn state() -> ServiceState {
        ServiceState::new(ServiceConfig::default())
    }

    /// A 4-cycle under a duplicate edge and a pendant path: what `reduce`
    /// strips is exactly what the pre-reduced form leaves out.
    const REDUCIBLE: &str =
        "c0(v0,v1), c1(v1,v2), c2(v2,v3), c3(v3,v0), dup(v0,v1), p1(v2,p), p2(p,q).";

    /// A frame as a client reads it back.
    fn decode(frame: &str) -> Response {
        let lines: Vec<String> = frame.lines().map(String::from).collect();
        let (terminator, lines) = lines.split_last().expect("a frame");
        assert_eq!(terminator, "%%", "{frame}");
        Response::decode(lines).expect("the service's own frames decode")
    }

    /// One single request under the default context, decoded.
    fn ask(st: &ServiceState, req: &Request) -> Response {
        decode(&st.handle(&WireRequest::Single(req.clone()), &RequestCtx::default()))
    }

    #[test]
    fn shw_responses_match_library() {
        let st = state();
        for h in [named::h2(), named::cycle(6), named::grid(3, 3)] {
            let body = render_hypergraph(&h);
            // The schema as both server and client see it: the text form
            // (rendering renumbers vertices relative to the builder).
            let h = softhw_hypergraph::parse_hypergraph(&body).unwrap();
            let req = Request::new(RequestClass::Shw, body);
            // Twice: the warm path must answer identically.
            let first = ask(&st, &req);
            let again = ask(&st, &req);
            assert_eq!(first, again);
            let (cold_w, _) = shw::shw(&h);
            match first {
                Response::Width { class, width, td } => {
                    assert_eq!(class, "SHW");
                    assert_eq!(width, cold_w);
                    let td = td.to_td().unwrap();
                    assert_eq!(td.validate(&h), Ok(()));
                    assert!(td.is_comp_nf(&h));
                }
                other => panic!("unexpected response {other:?}"),
            }
        }
    }

    #[test]
    fn decisions_and_hw_match_library() {
        let st = state();
        let body = render_hypergraph(&named::h2());
        // Validate against the text form's numbering (what the wire
        // carries), not the builder's.
        let h = softhw_hypergraph::parse_hypergraph(&body).unwrap();
        // shw(H2) = 2: k = 1 rejects, k = 2 accepts with valid witness.
        match ask(&st, &Request::new(RequestClass::ShwLeq(1), body.clone())) {
            Response::Decision { td, .. } => assert!(td.is_none()),
            other => panic!("{other:?}"),
        }
        match ask(&st, &Request::new(RequestClass::ShwLeq(2), body.clone())) {
            Response::Decision { td, .. } => {
                let td = td.expect("shw(H2) <= 2").to_td().unwrap();
                assert_eq!(td.validate(&h), Ok(()));
            }
            other => panic!("{other:?}"),
        }
        let (hw_w, _) = hw::hw(&h);
        match ask(&st, &Request::new(RequestClass::Hw, body.clone())) {
            Response::Width { class, width, td } => {
                assert_eq!(class, "HW");
                assert_eq!(width, hw_w);
                // The framed tree is the GHD's underlying TD; covers can
                // be rebuilt client-side at the reported width.
                let td = td.to_td().unwrap();
                let ghd = softhw_core::ghd::Ghd::from_td(&h, td, width).unwrap();
                assert!(ghd.validate(&h).is_ok());
            }
            other => panic!("{other:?}"),
        }
        // BEST with ConCov: width 2 suffices on C4 (Example 3's D2) but
        // not on C5 (Section 6's width jump to 3).
        let c4 = render_hypergraph(&named::cycle(4));
        match ask(
            &st,
            &Request::new(RequestClass::Best(EvalKind::ConCov, 2), c4),
        ) {
            Response::Decision { class, td, .. } => {
                assert_eq!(class, "BEST");
                assert!(td.is_some(), "ConCov-shw(C4) = 2");
                let c4h = softhw_hypergraph::parse_hypergraph(&render_hypergraph(&named::cycle(4)))
                    .unwrap();
                assert_eq!(td.unwrap().to_td().unwrap().validate(&c4h), Ok(()));
            }
            other => panic!("{other:?}"),
        }
        let c5 = render_hypergraph(&named::cycle(5));
        match ask(
            &st,
            &Request::new(RequestClass::Best(EvalKind::ConCov, 2), c5),
        ) {
            Response::Decision { td, .. } => assert!(td.is_none(), "ConCov-shw(C5) = 3"),
            other => panic!("{other:?}"),
        }
        match ask(&st, &Request::new(RequestClass::Stats, body)) {
            Response::Stats { fields } => {
                let get = |k: &str| {
                    fields
                        .iter()
                        .find(|(key, _)| key == k)
                        .map(|(_, v)| v.clone())
                };
                assert_eq!(get("vertices").as_deref(), Some("10"));
                assert_eq!(get("edges").as_deref(), Some("8"));
                // The extended rows are present (store rows only with a
                // store attached).
                let loads = get("stripe_load").expect("per-stripe load row");
                assert_eq!(loads.split(',').count(), st.num_stripes());
                assert!(get("result_cache_hits").is_some());
                assert!(get("store_hits").is_none(), "no store attached");
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn sql_bodies_route_through_the_query_ast() {
        let st = state();
        let mut req = Request::new(
            RequestClass::Shw,
            "SELECT MIN(r.a) FROM r, s, t WHERE r.b = s.b AND s.c = t.c",
        );
        req.format = BodyFormat::Sql;
        match ask(&st, &req) {
            Response::Width { width, .. } => assert_eq!(width, 1, "path query is acyclic"),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn malformed_requests_become_error_responses() {
        let st = state();
        // Unparsable schema.
        let r = ask(&st, &Request::new(RequestClass::Shw, "e1(a,"));
        assert!(
            matches!(r, Response::Error { ref kind, .. } if kind == "parse"),
            "{r:?}"
        );
        // The duplicate-name rejection reaches the wire.
        let r = ask(&st, &Request::new(RequestClass::Shw, "e1(a,b), e1(b,c)."));
        assert!(
            matches!(r, Response::Error { ref kind, .. } if kind == "parse"),
            "{r:?}"
        );
        // Empty schema.
        let r = ask(&st, &Request::new(RequestClass::Shw, "% nothing"));
        assert!(
            matches!(r, Response::Error { ref kind, .. } if kind == "request"),
            "{r:?}"
        );
        // Zero width.
        let r = ask(&st, &Request::new(RequestClass::ShwLeq(0), "e1(a,b)."));
        assert!(
            matches!(r, Response::Error { ref kind, .. } if kind == "request"),
            "{r:?}"
        );
        // Blown limits surface as limit errors, and the stripe still
        // serves later requests.
        let tight = ServiceState::new(ServiceConfig {
            limits: SoftLimits {
                max_lambda_sets: 2,
                max_bags: 2,
            },
            ..ServiceConfig::default()
        });
        let grid = render_hypergraph(&named::grid(3, 3));
        let r = ask(&tight, &Request::new(RequestClass::Shw, grid));
        assert!(
            matches!(r, Response::Error { ref kind, .. } if kind == "limit"),
            "{r:?}"
        );
        let ok = ask(&tight, &Request::new(RequestClass::Shw, "e1(a,b)."));
        assert!(matches!(ok, Response::Width { width: 1, .. }), "{ok:?}");
    }

    #[test]
    fn absurd_widths_are_clamped_not_allocated() {
        let st = state();
        let r = ask(
            &st,
            &Request::new(
                RequestClass::ShwLeq(usize::MAX),
                render_hypergraph(&named::h2()),
            ),
        );
        match r {
            Response::Decision { k, td, .. } => {
                assert_eq!(k, usize::MAX);
                assert!(td.is_some(), "shw(H2) = 2 <= clamp(|E|)");
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn no_reduce_answers_are_byte_identical_on_irreducible_schemas() {
        // The example corpus is irreducible, so `--no-reduce` must be
        // invisible: every response byte-identical, including STATS
        // (whose reduce_* rows are computed in both modes).
        let reduced = state();
        let no_reduce = ServiceState::new(ServiceConfig {
            no_reduce: true,
            ..ServiceConfig::default()
        });
        for h in [named::h2(), named::cycle(6), named::grid(3, 3)] {
            let body = render_hypergraph(&h);
            for class in [
                RequestClass::Shw,
                RequestClass::ShwLeq(2),
                RequestClass::Hw,
                RequestClass::HwLeq(2),
                RequestClass::Stats,
            ] {
                let a = ask(&reduced, &Request::new(class, body.clone()));
                let b = ask(&no_reduce, &Request::new(class, body.clone()));
                assert_eq!(a, b, "{class:?} diverged under --no-reduce");
            }
        }
    }

    #[test]
    fn reducible_schemas_report_reduction_and_agree_across_modes() {
        let body = "c0(v0,v1), c1(v1,v2), c2(v2,v3), c3(v3,v0), dup(v0,v1), p1(v2,p), p2(p,q).";
        let reduced = state();
        let no_reduce = ServiceState::new(ServiceConfig {
            no_reduce: true,
            ..ServiceConfig::default()
        });
        // Same widths and decisions in both modes (witnesses may differ
        // in shape; both must be valid).
        let h = softhw_hypergraph::parse_hypergraph(body).unwrap();
        for st in [&reduced, &no_reduce] {
            match ask(st, &Request::new(RequestClass::Shw, body)) {
                Response::Width { width, td, .. } => {
                    assert_eq!(width, 2);
                    assert_eq!(td.to_td().unwrap().validate(&h), Ok(()));
                }
                other => panic!("{other:?}"),
            }
            match ask(st, &Request::new(RequestClass::Hw, body)) {
                Response::Width { width, td, .. } => {
                    assert_eq!(width, 2);
                    assert_eq!(td.to_td().unwrap().validate(&h), Ok(()));
                }
                other => panic!("{other:?}"),
            }
        }
        // Both modes report what the pipeline actually does, matching
        // the library's own reduction stats.
        let red = softhw_hypergraph::reduce(&h);
        assert!(red.stats.edges_dropped > 0 && red.stats.vertices_peeled > 0);
        for st in [&reduced, &no_reduce] {
            match ask(st, &Request::new(RequestClass::Stats, body)) {
                Response::Stats { fields } => {
                    let get = |k: &str| {
                        fields
                            .iter()
                            .find(|(key, _)| key == k)
                            .map(|(_, v)| v.clone())
                    };
                    assert_eq!(
                        get("reduce_edges_dropped"),
                        Some(red.stats.edges_dropped.to_string())
                    );
                    assert_eq!(
                        get("reduce_vertices_peeled"),
                        Some(red.stats.vertices_peeled.to_string())
                    );
                    assert_eq!(
                        get("reduce_components"),
                        Some(red.stats.components.to_string())
                    );
                }
                other => panic!("{other:?}"),
            }
        }
    }

    #[test]
    fn raw_and_prereduced_schemas_answer_alike_wherever_they_route() {
        // A schema and its reduced core are two schemas to the router
        // (it hashes what was sent, it does not reduce). Whichever
        // stripes they land on, both answer width 2 with a witness of
        // their own schema, byte for byte what a fresh server frames.
        let pre = "c0(v0,v1), c1(v1,v2), c2(v2,v3), c3(v3,v0).";
        for stripes in [ServiceConfig::default().stripes, 1] {
            let st = ServiceState::new(ServiceConfig {
                stripes,
                ..ServiceConfig::default()
            });
            for body in [REDUCIBLE, pre] {
                let h = softhw_hypergraph::parse_hypergraph(body).unwrap();
                let req = Request::new(RequestClass::Shw, body);
                let resp = ask(&st, &req);
                match &resp {
                    Response::Width { width: 2, td, .. } => {
                        assert_eq!(td.to_td().unwrap().validate(&h), Ok(()));
                    }
                    other => panic!("{stripes} stripes, {body}: {other:?}"),
                }
                assert_eq!(
                    resp.encode(),
                    ask(&state(), &req).encode(),
                    "{stripes} stripes, {body}: not a fresh server's frame"
                );
            }
        }
    }

    /// The observation count of one stage histogram, read off the
    /// `METRICS` exposition (which itself records no stage).
    fn stage_count(st: &ServiceState, stage: &str) -> u64 {
        let series = format!("softhw_stage_duration_us_count{{stage=\"{stage}\"}} ");
        match ask(st, &Request::new(RequestClass::Metrics, "")) {
            Response::Metrics { lines } => {
                let line = lines.iter().find_map(|l| l.strip_prefix(series.as_str()));
                line.expect("every stage is exposed").parse().unwrap()
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn a_result_cache_hit_records_one_probe_and_no_solver_stage() {
        // Counted, not timed: a hit is parse, one hash, one probe. If a
        // reduction, an index build or a solver call came back onto the
        // request path, its stage histogram would count it.
        let st = state();
        let mut bodies: Vec<String> = [
            named::h2(),
            named::cycle(4),
            named::cycle(5),
            named::cycle(6),
            named::grid(3, 3),
            named::triangle_star(3),
            named::grid(2, 4),
        ]
        .iter()
        .map(render_hypergraph)
        .collect();
        bodies.push(REDUCIBLE.to_string());
        let classes = [
            RequestClass::Shw,
            RequestClass::ShwLeq(2),
            RequestClass::Hw,
            RequestClass::Best(EvalKind::ConCov, 2),
        ];
        let requests: Vec<Request> = bodies
            .iter()
            .flat_map(|body| classes.map(|class| Request::new(class, body.clone())))
            .collect();
        let answers: Vec<Response> = requests.iter().map(|req| ask(&st, req)).collect();
        let miss_stages = [
            stage::REDUCE,
            stage::SOLVE,
            stage::INDEX_BUILD,
            stage::ENUMERATE,
        ];
        let before = miss_stages.map(|name| stage_count(&st, name));
        // The miss path, counted too. Every schema here reduces to at
        // most one piece, so per schema: `SHW`, `SHW_LEQ` and `HW` reduce
        // once each and `BEST` never (24); every request is one solve (32);
        // `SHW` builds one index for its sweep, `SHW_LEQ` and `BEST` one
        // each, `HW` none (24); and all eight have `shw` 2, so a `SHW`
        // sweep enumerates at `k = 1` and `k = 2`, beside one enumeration
        // per `SHW_LEQ` and `BEST` (32). A second index per piece, a
        // second reduction or a skipped span moves these.
        assert_eq!(before, [24, 32, 24, 32]);
        let probes_before = stage_count(&st, stage::RESULT_CACHE);
        for i in 0..1000 {
            let at = i % requests.len();
            assert_eq!(ask(&st, &requests[at]), answers[at]);
        }
        assert_eq!(miss_stages.map(|name| stage_count(&st, name)), before);
        assert_eq!(stage_count(&st, stage::RESULT_CACHE), probes_before + 1000);
    }

    #[test]
    fn a_miss_that_waited_for_the_same_solve_finds_its_answer_in_back() {
        // The interleaving the solve lock exists for, forced: two front
        // halves run before either back half, so both miss; the second
        // back half probes again under the solve lock and must find what
        // the first one inserted instead of solving beside it.
        let st = state();
        let req = Request::new(RequestClass::Shw, render_hypergraph(&named::grid(3, 3)));
        let front = |trace| match st.handle_front(&req, trace) {
            Front::Miss(miss) => miss,
            Front::Done(resp) => panic!("nothing is cached yet: {resp:?}"),
        };
        let (first, second) = (front(1), front(2));
        let budget = Budget::cancellable();
        let solved = st.handle_back(&req, first, &budget, 1);
        assert!(
            matches!(decode(&solved), Response::Width { .. }),
            "{solved}"
        );
        assert_eq!(st.handle_back(&req, second, &budget, 2), solved);
        assert_eq!(stage_count(&st, stage::SOLVE), 1);
        assert_eq!(stage_count(&st, stage::RESULT_CACHE), 2);
        // Both front halves counted a miss; a second look is counted
        // only when it hits.
        let sum = |counter: fn(&ResultCache) -> u64| -> u64 {
            let stripes = st.stripes.iter();
            stripes
                .map(|s| counter(&s.lock().unwrap_or_else(PoisonError::into_inner)))
                .sum()
        };
        assert_eq!((sum(|r| r.hits), sum(|r| r.misses)), (1, 2));
        assert_eq!(ask(&st, &req), decode(&solved));
    }

    #[test]
    fn an_hw_request_builds_no_index() {
        // `hw` searches run on the schema itself: a `BlockIndex` built
        // for one would be read by nobody. Reducible and irreducible
        // schemas, exact and bounded, with and without reduction.
        for no_reduce in [false, true] {
            let st = ServiceState::new(ServiceConfig {
                no_reduce,
                ..ServiceConfig::default()
            });
            for body in [render_hypergraph(&named::grid(3, 3)), REDUCIBLE.to_string()] {
                for class in [RequestClass::Hw, RequestClass::HwLeq(2)] {
                    let resp = ask(&st, &Request::new(class, body.clone()));
                    assert!(
                        matches!(resp, Response::Width { .. } | Response::Decision { .. }),
                        "{resp:?}"
                    );
                }
            }
            assert_eq!(stage_count(&st, stage::SOLVE), 4);
            assert_eq!(stage_count(&st, stage::INDEX_BUILD), 0);
        }
    }

    #[test]
    fn stats_names_the_stripe_the_structural_hash_selects() {
        // One hash routes: `STATS` reports `structural_hash mod stripes`
        // for reducible and irreducible schemas alike, and `--no-reduce`
        // (which only changes what the solvers do) does not move it.
        let mut bodies: Vec<String> = [named::h2(), named::cycle(6), named::grid(3, 3)]
            .iter()
            .map(render_hypergraph)
            .collect();
        bodies.push(REDUCIBLE.to_string());
        for no_reduce in [false, true] {
            let st = ServiceState::new(ServiceConfig {
                no_reduce,
                ..ServiceConfig::default()
            });
            for body in &bodies {
                let h = softhw_hypergraph::parse_hypergraph(body).unwrap();
                let expected = softhw_hypergraph::structural_hash(&h) % st.num_stripes() as u64;
                match ask(&st, &Request::new(RequestClass::Stats, body.clone())) {
                    Response::Stats { fields } => {
                        let stripe = fields.iter().find(|(k, _)| k == "stripe");
                        assert_eq!(
                            stripe.map(|(_, v)| v.clone()),
                            Some(expected.to_string()),
                            "no_reduce {no_reduce}: {body}"
                        );
                    }
                    other => panic!("{other:?}"),
                }
            }
        }
    }

    #[test]
    fn expired_deadline_times_out_and_retry_serves_identically() {
        let st = state();
        let body = render_hypergraph(&named::grid(3, 3));
        // A 0 ms deadline has expired before the solver starts: the
        // request must come back TIMEOUT (not an error, not a panic).
        let mut dead = Request::new(RequestClass::Shw, body.clone());
        dead.deadline_ms = Some(0);
        assert_eq!(ask(&st, &dead), Response::Timeout);
        // Nothing was cached for the interrupted request and the stripe
        // is immediately reusable: the same schema without a deadline
        // answers exactly like a fresh state would.
        let ok = ask(&st, &Request::new(RequestClass::Shw, body.clone()));
        assert_eq!(ok, ask(&state(), &Request::new(RequestClass::Shw, body)));
        assert!(matches!(ok, Response::Width { .. }), "{ok:?}");
        // The timeout is counted in STATS, and a request that now hits
        // the warm result cache answers even under an expired deadline
        // (cache probes are not budgeted).
        match ask(&st, &Request::new(RequestClass::Stats, "e(a,b).")) {
            Response::Stats { fields } => {
                assert!(
                    fields
                        .iter()
                        .any(|(k, v)| k == "deadline_timeout" && v == "1"),
                    "{fields:?}"
                );
                assert!(fields.iter().any(|(k, _)| k == "busy_shed"), "{fields:?}");
            }
            other => panic!("{other:?}"),
        }
        assert_eq!(ask(&st, &dead), ok, "warm repeats ignore the deadline");
    }

    #[test]
    fn best_honours_its_budget_inside_the_stages_and_retry_serves_identically() {
        let path = std::env::temp_dir().join(format!(
            "softhw-state-best-budget-{}.store",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&path);
        let st = ServiceState::open_store(ServiceConfig::default(), &path).expect("open store");
        let body = render_hypergraph(&named::grid(3, 3));
        let req = Request::new(RequestClass::Best(EvalKind::ConCov, 2), body);
        // An expired deadline stops BEST like any other solver class.
        let mut dead = req.clone();
        dead.deadline_ms = Some(0);
        assert_eq!(ask(&st, &dead), Response::Timeout);
        // So does a work cap that candidate enumeration alone exceeds:
        // the budget ticks inside the stages, not only between them.
        let capped = RequestCtx {
            budget: Some(Budget::with_work_cap(8)),
            ..RequestCtx::default()
        };
        let timed_out = st.handle(&WireRequest::Single(req.clone()), &capped);
        assert_eq!(decode(&timed_out), Response::Timeout);
        // And so does the smallest cap that enumeration and the instance
        // build fit under: the DP on top of them ticks too.
        let h = named::grid(3, 3);
        let builds_under = |cap: u64| {
            let limits = ServiceConfig::default().limits;
            let capped = Budget::with_work_cap(cap);
            soft_instance(&h, 2, &limits, &capped).is_ok()
        };
        let mut fits = 1u64;
        while !builds_under(fits) {
            fits *= 2;
        }
        let mut too_small = fits / 2;
        while fits - too_small > 1 {
            let mid = too_small + (fits - too_small) / 2;
            if builds_under(mid) {
                fits = mid;
            } else {
                too_small = mid;
            }
        }
        let capped = RequestCtx {
            budget: Some(Budget::with_work_cap(fits)),
            ..RequestCtx::default()
        };
        let timed_out = st.handle(&WireRequest::Single(req.clone()), &capped);
        assert_eq!(
            decode(&timed_out),
            Response::Timeout,
            "the DP ignored {fits}"
        );
        // No trip cached or persisted anything ...
        assert!(st.sync_store());
        for stripe in &st.stripes {
            let stripe = stripe.lock().unwrap_or_else(PoisonError::into_inner);
            assert!(stripe.map.is_empty(), "a TIMEOUT was cached");
        }
        let persisted = st
            .store
            .as_ref()
            .map(|s| lock_store(&s.store).stats().results);
        assert_eq!(persisted, Some(0), "a TIMEOUT was persisted");
        // ... and the unbudgeted retry answers exactly like a fresh state.
        let ok = ask(&st, &req);
        assert_eq!(ok.encode(), ask(&state(), &req).encode());
        assert!(matches!(ok, Response::Decision { .. }), "{ok:?}");
        drop(st);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn batch_equals_its_items_sent_singly_under_the_same_budget() {
        // A BATCH is its items through the single-request path under
        // one shared budget. Work caps trip at input-determined ticks,
        // so one capped budget shared by the single sends trips exactly
        // where the batch's does — at every cap, in whichever item.
        let grid = render_hypergraph(&named::grid(3, 3));
        let h2 = render_hypergraph(&named::h2());
        let items = vec![
            Request::new(RequestClass::Shw, h2.clone()),
            Request::new(RequestClass::Best(EvalKind::ConCov, 2), grid.clone()),
            Request::new(RequestClass::ShwLeq(2), grid.clone()),
            Request::new(RequestClass::Hw, h2.clone()),
            Request::new(RequestClass::Shw, h2), // warm repeat: serves after a trip
            Request::new(RequestClass::Best(EvalKind::Shallow(2), 2), grid),
        ];
        let batch = WireRequest::Batch(crate::wire::BatchRequest::new(items.clone()));
        let mut outcomes = std::collections::BTreeSet::new();
        for cap in [0, 500, 1_000, 1_500, 2_000, 3_000, u64::MAX] {
            let ctx = |budget: &Budget| RequestCtx {
                budget: Some(budget.clone()),
                ..RequestCtx::default()
            };
            let batched = state().handle(&batch, &ctx(&Budget::with_work_cap(cap)));
            let batched = match decode(&batched) {
                Response::Batch { responses } => responses,
                other => panic!("expected a batch response, got {other:?}"),
            };
            let (singly_on, shared) = (state(), Budget::with_work_cap(cap));
            let singly: Vec<Response> = items
                .iter()
                .map(|item| singly_on.handle(&WireRequest::Single(item.clone()), &ctx(&shared)))
                .map(|frame| decode(&frame))
                .collect();
            assert_eq!(batched, singly, "cap {cap}");
            outcomes.insert(batched.iter().filter(|r| **r == Response::Timeout).count());
        }
        // The caps really did trip in different items.
        assert!(outcomes.len() >= 3, "timeouts per cap: {outcomes:?}");
        assert!(outcomes.contains(&0), "the uncapped run must finish");
    }

    #[test]
    fn default_deadline_applies_when_requests_carry_none() {
        let st = ServiceState::new(ServiceConfig {
            default_deadline_ms: Some(0),
            ..ServiceConfig::default()
        });
        let body = render_hypergraph(&named::grid(3, 3));
        let req = Request::new(RequestClass::Shw, body);
        assert_eq!(ask(&st, &req), Response::Timeout);
        // A per-request deadline overrides the default.
        let mut generous = req.clone();
        generous.deadline_ms = Some(60_000);
        assert!(matches!(ask(&st, &generous), Response::Width { .. }));
    }

    #[test]
    fn parse_errors_are_positioned_line_and_column() {
        let st = state();
        let r = ask(&st, &Request::new(RequestClass::Shw, "e1(a,b),\ne1(b,c)."));
        match r {
            Response::Error { kind, message } => {
                assert_eq!(kind, "parse");
                assert!(
                    message.starts_with("2:1: "),
                    "expected line:col prefix, got {message:?}"
                );
                assert!(message.contains("duplicate edge name"), "{message}");
            }
            other => panic!("{other:?}"),
        }
    }

    /// Σ `len` of the frames a result cache holds, by a walk.
    fn held(cache: &ResultCache) -> u64 {
        cache.map.values().map(|(_, f)| f.len() as u64).sum()
    }

    #[test]
    fn result_cache_bytes_follow_inserts_replaces_and_evictions() {
        let mut cache = ResultCache::new(8);
        let key = |i: u64| (i, !i, ClassKey::Shw);
        for i in 0..8 {
            cache.insert(key(i), "a".repeat(10 + i as usize).into());
        }
        assert_eq!(cache.bytes, held(&cache));
        // A replace swaps one frame's length for another's.
        cache.insert(key(3), "b".repeat(100).into());
        assert_eq!(cache.map.len(), 8);
        assert_eq!(cache.bytes, held(&cache));
        // A ninth key sweeps the two oldest out (capacity minus an eighth
        // stays).
        cache.insert(key(8), "c".repeat(5).into());
        assert_eq!(cache.map.len(), 7);
        assert_eq!(cache.bytes, held(&cache));
        assert_eq!(
            cache.bytes,
            100 + 5 + (12..18).filter(|&n| n != 13).sum::<u64>()
        );
    }

    #[test]
    fn the_result_cache_bytes_gauge_is_the_sum_of_the_frames_held() {
        // Small stripes under churn: the gauge, read off `STATS` and
        // `METRICS` alike, is what a walk over every stripe finds.
        let st = ServiceState::new(ServiceConfig {
            stripes: 2,
            result_cache_capacity: 4,
            ..ServiceConfig::default()
        });
        let gauge = |st: &ServiceState| -> (u64, u64) {
            let schema = render_hypergraph(&named::h2());
            let row = match ask(st, &Request::new(RequestClass::Stats, schema)) {
                Response::Stats { fields } => fields
                    .into_iter()
                    .find_map(|(k, v)| (k == "result_cache_bytes").then_some(v)),
                other => panic!("{other:?}"),
            };
            let series = match ask(st, &Request::new(RequestClass::Metrics, "")) {
                Response::Metrics { lines } => lines.iter().find_map(|l| {
                    l.strip_prefix("softhw_result_cache_bytes ")
                        .map(String::from)
                }),
                other => panic!("{other:?}"),
            };
            let row: u64 = row.expect("a STATS row").parse().unwrap();
            assert_eq!(
                series.expect("a METRICS series").parse::<u64>().unwrap(),
                row
            );
            let walked = st.stripes.iter();
            let walked = walked.map(|s| held(&s.lock().unwrap_or_else(PoisonError::into_inner)));
            (row, walked.sum())
        };
        assert_eq!(gauge(&st), (0, 0));
        let classes = [RequestClass::Shw, RequestClass::ShwLeq(2), RequestClass::Hw];
        for h in [
            named::h2(),
            named::cycle(5),
            named::cycle(6),
            named::grid(3, 3),
        ] {
            for class in classes {
                ask(&st, &Request::new(class, render_hypergraph(&h)));
            }
            let (row, walked) = gauge(&st);
            assert!(row > 0);
            assert_eq!(row, walked);
        }
    }

    #[test]
    fn result_cache_serves_repeats_without_solver_work() {
        let st = state();
        let body = render_hypergraph(&named::h2());
        let req = Request::new(RequestClass::Shw, body.clone());
        let first = ask(&st, &req);
        let again = ask(&st, &req);
        assert_eq!(first, again);
        // The repeat came out of the result cache.
        let hits = |st: &ServiceState| -> u64 {
            let per_stripe = st.mirrors.iter();
            per_stripe
                .map(|m| m.result_hits.load(Ordering::Relaxed))
                .sum()
        };
        assert_eq!(hits(&st), 1, "second request must hit the result cache");
        // With a zero-capacity result cache every request is a cold
        // solve, with identical responses.
        let no_cache = ServiceState::new(ServiceConfig {
            result_cache_capacity: 0,
            ..ServiceConfig::default()
        });
        assert_eq!(ask(&no_cache, &req), first);
        assert_eq!(ask(&no_cache, &req), first);
        assert_eq!(hits(&no_cache), 0);
    }
}
