//! What the service knows about itself: the per-state observability
//! registry ([`ServiceObs`]), the lock-free per-stripe counter mirrors,
//! the `note_*` hooks the server reports through, and the three
//! surfaces rendered from them — `STATS` rows, the `METRICS`
//! exposition, and the `STATS SLOW` ring. `STATS` and `METRICS` read
//! the shared counters from one `metric_registry`, so the two surfaces
//! cannot drift.

use crate::state::{ResultCache, ServiceConfig, ServiceState};
use crate::wire::Response;
use softhw_hypergraph::{stats, Hypergraph};
use softhw_obs::{stage, Histogram, SlowEntry, SlowRing};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};
use std::time::Instant;

/// How many slow-query span trees the ring retains (oldest evicted
/// first; the total recorded count keeps growing past this).
const SLOW_RING_CAP: usize = 64;

/// Request classes the per-class latency histograms and
/// `softhw_requests_total` counters are keyed by, in exposition order.
const OBS_CLASSES: [&str; 10] = [
    "SHW", "SHW_LEQ", "HW", "HW_LEQ", "BEST", "STATS", "BATCH", "HELLO", "METRICS", "SLOW",
];

fn obs_class_index(name: &str) -> Option<usize> {
    OBS_CLASSES.iter().position(|c| *c == name)
}

/// Per-state observability registry: one latency histogram per request
/// class, one duration histogram per pipeline stage, batch-size and
/// pipeline-depth histograms, and the slow-query ring. Lives inside
/// [`ServiceState`] (not a global) so twin servers in one process —
/// the determinism property tests — cannot observe each other; the
/// only global is `softhw_obs`'s span fast-path gate.
pub(crate) struct ServiceObs {
    pub(crate) enabled: bool,
    slow_ms: Option<u64>,
    latency: [Histogram; OBS_CLASSES.len()],
    stages: Vec<Histogram>,
    pub(crate) batch_sizes: Histogram,
    pipeline_depths: Histogram,
    slow: Mutex<SlowRing>,
    /// Mints trace ids for entry points the event loop did not tag
    /// (embedded/test callers); the high bit separates them from
    /// loop-minted `(conn_id << 32) | seq` ids.
    trace_seq: AtomicU64,
}

impl ServiceObs {
    pub(crate) fn new(config: &ServiceConfig) -> ServiceObs {
        ServiceObs {
            enabled: config.obs_enabled,
            slow_ms: config.slow_ms,
            latency: std::array::from_fn(|_| Histogram::new()),
            stages: stage::ALL.iter().map(|_| Histogram::new()).collect(),
            batch_sizes: Histogram::new(),
            pipeline_depths: Histogram::new(),
            slow: Mutex::new(SlowRing::new(SLOW_RING_CAP)),
            trace_seq: AtomicU64::new(0),
        }
    }

    /// Begins a trace for one request on the calling thread. Returns
    /// whether this call owns the trace (a `BATCH` item running inside
    /// its batch's trace does not — its spans nest into the batch
    /// tree).
    pub(crate) fn begin(&self, trace: Option<u64>) -> bool {
        if !self.enabled || !softhw_obs::enabled() || softhw_obs::trace_active() {
            return false;
        }
        let id =
            trace.unwrap_or_else(|| self.trace_seq.fetch_add(1, Ordering::Relaxed) | (1u64 << 63));
        softhw_obs::begin_trace(id);
        true
    }

    fn observe_stage(&self, name: &str, micros: u64) {
        if !self.enabled {
            return;
        }
        if let Some(i) = stage::index_of(name) {
            if let Some(h) = self.stages.get(i) {
                h.observe(micros);
            }
        }
    }
}

/// Lock-free mirror of one stripe's counters, refreshed after every
/// probe and insert the stripe serves, so `STATS`/`METRICS` handlers on
/// other stripes report all of them without taking this stripe's lock. These
/// are cross-stripe *observability* values, not part of any response
/// determinism contract. A refresh is three relaxed stores of values the
/// stripe already holds, so it costs a result-cache hit nothing that
/// grows with what is cached.
#[derive(Default)]
pub(crate) struct StripeMirror {
    /// Requests routed to the stripe (monotonic, bumped before its lock
    /// is taken).
    pub(crate) load: AtomicU64,
    /// The stripe's result-cache hit/miss counters.
    pub(crate) result_hits: AtomicU64,
    result_misses: AtomicU64,
    /// Σ `len` of the frames the stripe's result cache holds.
    result_bytes: AtomicU64,
}

impl StripeMirror {
    pub(crate) fn record(&self, results: &ResultCache) {
        self.result_hits.store(results.hits, Ordering::Relaxed);
        self.result_misses.store(results.misses, Ordering::Relaxed);
        self.result_bytes.store(results.bytes, Ordering::Relaxed);
    }
}

impl ServiceState {
    /// Records a request shed by the server's bounded work queue (the
    /// `BUSY` fast path never reaches a handler, so the server reports
    /// it here for `STATS`).
    pub fn note_busy_shed(&self) {
        self.busy_sheds.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a connection accepted by the server (`conns_active` in
    /// `STATS`).
    pub fn note_conn_opened(&self) {
        self.conns_active.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a connection closed by the server.
    pub fn note_conn_closed(&self) {
        // Saturating: a miscounting caller must not wrap to 2^64.
        let _ = self
            .conns_active
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| {
                Some(n.saturating_sub(1))
            });
    }

    /// Records the number of requests in flight on one connection;
    /// `STATS` reports the high-water mark across all connections,
    /// `METRICS` the full depth histogram.
    pub fn note_pipeline_depth(&self, depth: u64) {
        self.pipelined_depth.fetch_max(depth, Ordering::Relaxed);
        if self.obs.enabled {
            self.obs.pipeline_depths.observe(depth);
        }
    }

    /// Records how long a decoded request waited in the ready-request
    /// queue before a worker picked it up (reported by the worker pool;
    /// atomic increments only).
    pub fn note_queue_wait(&self, micros: u64) {
        self.obs.observe_stage(stage::QUEUE_WAIT, micros);
    }

    /// Records how long a completed response dwelt in its connection's
    /// reorder buffer before it could be flushed in request order
    /// (reported by the event loop; atomic increments only — safe to
    /// call from the non-blocking loop).
    pub fn note_reorder_dwell(&self, micros: u64) {
        self.obs.observe_stage(stage::REORDER_DWELL, micros);
    }

    /// Folds one finished request into the observability registry; the
    /// mirror of [`ServiceState::handle`]'s `begin`.
    pub(crate) fn finish_request(&self, class: &'static str, started: Instant, owns_trace: bool) {
        if !self.obs.enabled {
            return;
        }
        let total_us = started.elapsed().as_micros().min(u64::MAX as u128) as u64;
        if let Some(i) = obs_class_index(class) {
            if let Some(h) = self.obs.latency.get(i) {
                h.observe(total_us);
            }
        }
        if !owns_trace {
            return;
        }
        let Some(trace) = self.fold_trace() else {
            return;
        };
        if self
            .obs
            .slow_ms
            .is_some_and(|ms| total_us >= ms.saturating_mul(1000))
        {
            let entry = SlowEntry {
                trace_id: trace.trace_id,
                class: class.to_string(),
                total_us,
                records: trace.records,
            };
            self.obs
                .slow
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .push(entry);
        }
    }

    /// Ends the calling thread's trace and folds each recorded span into
    /// its stage histogram. On its own this is how the event loop closes
    /// the front half of a request a worker will finish: the stages are
    /// counted where they ran, the request where it ends.
    pub(crate) fn fold_trace(&self) -> Option<softhw_obs::Trace> {
        let trace = softhw_obs::end_trace()?;
        for r in &trace.records {
            self.obs.observe_stage(r.stage, r.dur_us);
        }
        Some(trace)
    }

    /// Assembles the `STATS` response: structural stats of the schema,
    /// what the reduction pipeline does to it and the stripe it routes
    /// to (a function of the schema alone), then the cross-stripe
    /// observability rows — per-stripe load, result-cache hit/miss — and,
    /// when a store is attached, the store hit/size rows. The frame
    /// stays backward-parseable: clients read `key=value` fields
    /// generically, and a row that is gone reads as absent.
    pub(crate) fn stats_response(&self, h: &Hypergraph, idx: usize) -> Response {
        let s = stats::stats(h);
        // What the reduce-before-solve pipeline does to this schema.
        // Reported identically with and without `--no-reduce` (the
        // reduction is computed either way; the flag only stops the
        // solvers from acting on it), so answers stay byte-comparable
        // across the two modes.
        let red = softhw_hypergraph::reduce(h);
        let list = |counter: fn(&StripeMirror) -> &AtomicU64| {
            let per_stripe = self.mirrors.iter();
            per_stripe
                .map(|m| counter(m).load(Ordering::Relaxed).to_string())
                .collect::<Vec<_>>()
                .join(",")
        };
        let mut fields = vec![
            ("vertices".to_string(), s.num_vertices.to_string()),
            ("edges".to_string(), s.num_edges.to_string()),
            ("max_arity".to_string(), s.max_arity.to_string()),
            ("components".to_string(), s.components.to_string()),
            (
                "reduce_edges_dropped".to_string(),
                red.stats.edges_dropped.to_string(),
            ),
            (
                "reduce_vertices_peeled".to_string(),
                red.stats.vertices_peeled.to_string(),
            ),
            (
                "reduce_components".to_string(),
                red.stats.components.to_string(),
            ),
            ("stripe".to_string(), idx.to_string()),
            ("stripe_load".to_string(), list(|m| &m.load)),
            ("result_cache_hits".to_string(), list(|m| &m.result_hits)),
            (
                "result_cache_misses".to_string(),
                list(|m| &m.result_misses),
            ),
        ];
        // The registry-backed service counters: one source of truth
        // shared with the `METRICS` exposition, so the two can never
        // drift.
        for m in self.metric_registry() {
            fields.push((m.stats_row.to_string(), m.value.to_string()));
        }
        if let Some(handle) = &self.store {
            let st = handle
                .store
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .stats();
            // What the store itself holds: read under its mutex, so
            // `STATS` only.
            let rows = [
                ("store_schemas", st.schemas as u64),
                ("store_results", st.results as u64),
                ("store_dict_bags", st.dict_bags as u64),
                ("store_bytes", st.bytes),
                ("store_recovered_bytes", st.recovered_bytes),
            ];
            for (k, v) in rows {
                fields.push((k.to_string(), v.to_string()));
            }
        }
        Response::Stats { fields }
    }

    /// The central metric registry: every cross-stripe service counter
    /// with both its `METRICS` exposition name and its `STATS` row
    /// name, read from one place. [`ServiceState::stats_response`] and
    /// [`ServiceState::metrics_response`] both iterate this list, so a
    /// counter cannot appear in one surface with a different value (or
    /// not at all) in the other. The store's hit, miss, invalid, warmed
    /// and put-error counters close the list when a store is attached.
    fn metric_registry(&self) -> Vec<Metric> {
        let m = |name, stats_row, kind, value| Metric {
            name,
            stats_row,
            kind,
            value,
        };
        let mut registry = vec![
            m(
                "softhw_deadline_timeouts_total",
                "deadline_timeout",
                MetricKind::Counter,
                self.deadline_timeouts.load(Ordering::Relaxed),
            ),
            m(
                "softhw_busy_sheds_total",
                "busy_shed",
                MetricKind::Counter,
                self.busy_sheds.load(Ordering::Relaxed),
            ),
            m(
                "softhw_conns_active",
                "conns_active",
                MetricKind::Gauge,
                self.conns_active.load(Ordering::Relaxed),
            ),
            m(
                "softhw_pipelined_depth_max",
                "pipelined_depth",
                MetricKind::Gauge,
                self.pipelined_depth.load(Ordering::Relaxed),
            ),
            m(
                "softhw_batch_requests_total",
                "batch_requests",
                MetricKind::Counter,
                self.batch_requests.load(Ordering::Relaxed),
            ),
            m(
                "softhw_result_cache_bytes",
                "result_cache_bytes",
                MetricKind::Gauge,
                self.mirrors
                    .iter()
                    .map(|m| m.result_bytes.load(Ordering::Relaxed))
                    .sum(),
            ),
            m(
                "softhw_store_index_bytes",
                "store_index_bytes",
                MetricKind::Gauge,
                self.store
                    .as_ref()
                    .map_or(0, |handle| handle.index_bytes.load(Ordering::Relaxed)),
            ),
        ];
        if let Some(handle) = &self.store {
            let counter = |name, stats_row, value: &AtomicU64| {
                m(
                    name,
                    stats_row,
                    MetricKind::Counter,
                    value.load(Ordering::Relaxed),
                )
            };
            registry.extend([
                counter("softhw_store_hits_total", "store_hits", &handle.hits),
                counter("softhw_store_misses_total", "store_misses", &handle.misses),
                counter(
                    "softhw_store_invalid_total",
                    "store_invalid",
                    &handle.invalid,
                ),
                counter("softhw_store_warmed_total", "store_warmed", &handle.warmed),
                counter(
                    "softhw_store_put_errors_total",
                    "store_put_errors",
                    &handle.put_errors,
                ),
            ]);
        }
        registry
    }

    /// Assembles the `METRICS` exposition: the registry counters and
    /// gauges, per-class request counts and latency histograms,
    /// per-stage duration histograms, batch-size and pipeline-depth
    /// histograms, and the slow-query totals. Stable Prometheus-style
    /// text; every metric family carries one `# TYPE` header.
    pub(crate) fn metrics_response(&self) -> Response {
        let obs = &self.obs;
        let mut lines: Vec<String> = Vec::new();
        for m in self.metric_registry() {
            match m.kind {
                MetricKind::Counter => softhw_obs::expose_counter(&mut lines, m.name, m.value),
                MetricKind::Gauge => softhw_obs::expose_gauge(&mut lines, m.name, m.value),
            }
        }
        lines.push("# TYPE softhw_requests_total counter".to_string());
        for (i, class) in OBS_CLASSES.iter().enumerate() {
            let count = obs.latency.get(i).map_or(0, Histogram::count);
            lines.push(format!(
                "softhw_requests_total{{class=\"{class}\"}} {count}"
            ));
        }
        for (i, class) in OBS_CLASSES.iter().enumerate() {
            let snap = obs
                .latency
                .get(i)
                .map(Histogram::snapshot)
                .unwrap_or_default();
            softhw_obs::expose_histogram(
                &mut lines,
                "softhw_request_duration_us",
                &format!("class=\"{class}\""),
                &snap,
                i == 0,
            );
        }
        for (i, name) in stage::ALL.iter().enumerate() {
            let snap = obs
                .stages
                .get(i)
                .map(Histogram::snapshot)
                .unwrap_or_default();
            softhw_obs::expose_histogram(
                &mut lines,
                "softhw_stage_duration_us",
                &format!("stage=\"{name}\""),
                &snap,
                i == 0,
            );
        }
        softhw_obs::expose_histogram(
            &mut lines,
            "softhw_batch_size",
            "",
            &obs.batch_sizes.snapshot(),
            true,
        );
        softhw_obs::expose_histogram(
            &mut lines,
            "softhw_pipeline_depth",
            "",
            &obs.pipeline_depths.snapshot(),
            true,
        );
        let slow = obs.slow.lock().unwrap_or_else(PoisonError::into_inner);
        softhw_obs::expose_counter(&mut lines, "softhw_slow_queries_total", slow.recorded());
        drop(slow);
        softhw_obs::expose_gauge(&mut lines, "softhw_obs_enabled", obs.enabled as u64);
        Response::Metrics { lines }
    }

    /// Renders the retained slow-query span trees (`STATS SLOW`),
    /// oldest first. Also used by `softhw-serve`'s shutdown dump.
    pub fn slow_log(&self) -> Vec<String> {
        self.obs
            .slow
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .render()
    }

    pub(crate) fn slow_response(&self) -> Response {
        Response::Slow {
            lines: self.slow_log(),
        }
    }
}

/// One registry entry: a service counter under both of its names.
struct Metric {
    /// `METRICS` exposition name (`softhw_…`).
    name: &'static str,
    /// `STATS` row name.
    stats_row: &'static str,
    kind: MetricKind,
    value: u64,
}

enum MetricKind {
    Counter,
    Gauge,
}

#[cfg(test)]
mod tests {
    use crate::wire::{Request, RequestClass, Response};
    use crate::{RequestCtx, ServiceConfig, ServiceState, WireRequest};
    use softhw_hypergraph::{named, render_hypergraph};

    fn ask(st: &ServiceState, req: &Request) -> Response {
        let frame = st.handle(&WireRequest::Single(req.clone()), &RequestCtx::default());
        let lines: Vec<String> = frame.lines().map(String::from).collect();
        let (_, lines) = lines.split_last().expect("a frame");
        Response::decode(lines).expect("the service's own frames decode")
    }

    #[test]
    fn store_backed_registry_rows_agree_across_stats_and_metrics() {
        let path = std::env::temp_dir().join(format!(
            "softhw-metrics-{}-registry.store",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&path);
        let solve = Request::new(RequestClass::Shw, render_hypergraph(&named::cycle(5)));
        {
            let st = ServiceState::open_store(ServiceConfig::default(), &path).expect("open");
            ask(&st, &solve);
            assert!(st.sync_store());
        }
        let config = ServiceConfig {
            warm_start: 0,
            ..ServiceConfig::default()
        };
        let st = ServiceState::open_store(config, &path).expect("reopen");
        ask(&st, &solve);
        let stats = match ask(&st, &Request::new(RequestClass::Stats, solve.body.clone())) {
            Response::Stats { fields } => fields,
            other => panic!("{other:?}"),
        };
        let exposition = match ask(&st, &Request::new(RequestClass::Metrics, "")) {
            Response::Metrics { lines } => lines,
            other => panic!("{other:?}"),
        };
        let registry = st.metric_registry();
        let store_rows = ["store_hits", "store_misses", "store_warmed"];
        for row in store_rows {
            assert!(registry.iter().any(|m| m.stats_row == row), "{row}");
        }
        for m in &registry {
            let in_stats = stats.iter().find(|(k, _)| k == m.stats_row);
            let sample = format!("{} ", m.name);
            let in_metrics = exposition.iter().find_map(|l| l.strip_prefix(&sample));
            assert_eq!(
                in_stats.map(|(_, v)| v.as_str()),
                in_metrics,
                "{} / {}",
                m.stats_row,
                m.name
            );
            assert!(in_metrics.is_some(), "{}", m.name);
        }
        let hits = stats.iter().find(|(k, _)| k == "store_hits");
        assert_eq!(hits.map(|(_, v)| v.as_str()), Some("1"));
        drop(st);
        let _ = std::fs::remove_file(&path);
    }
}
