//! Observability primitives for the softhw solve pipeline: a
//! thread-local span/trace layer, fixed log2-bucket histograms with
//! lock-free atomic counters, a slow-query ring buffer, and the
//! Prometheus-style text exposition the service's `METRICS` verb emits.
//!
//! Std-only and registry-free (like `softhw-lint`): nothing here spawns
//! threads, allocates globals beyond one `AtomicBool`, or takes locks on
//! a hot path.
//!
//! # Spans and traces
//!
//! A *trace* is the per-request recording context. The service begins a
//! trace on the worker thread that executes a request
//! ([`begin_trace`]), the instrumented long paths in
//! `softhw-hypergraph` / `softhw-core` / `softhw-service` open cheap
//! RAII [`Span`] guards ([`span`]), and the service closes the trace
//! ([`end_trace`]) to get the recorded tree back. Everything is
//! thread-local: a request is executed start to finish on one worker
//! thread, so no synchronisation is needed, and two servers in one
//! process (the twin-server tests) cannot observe each other.
//!
//! When the process-wide gate is off ([`set_enabled`]) or no trace is
//! active on the current thread — which is the situation on *every*
//! solver call made outside a traced request — [`span`] is one relaxed
//! atomic load plus one thread-local flag read and returns a disarmed
//! guard: no clock is read, nothing allocates. That is the
//! "compiled-out-to-near-zero" contract the hot paths rely on.
//!
//! # Histograms
//!
//! [`Histogram`] is 32 log2 buckets of `AtomicU64` plus a count and a
//! sum. `observe` is two relaxed fetch-adds and one `fetch_add` on the
//! bucket — safe from any number of threads, no lock, no loss.
//! Bucket `i` holds values whose bit length is `i` (so bucket 0 is
//! exactly `0`, bucket 1 is `1`, bucket 2 is `2..=3`, …); the top
//! bucket saturates. [`Histogram::snapshot`] reads a consistent-enough
//! view for exposition (counters only ever grow).

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

/// Canonical stage names used across the workspace, so instrumented
/// crates, the metrics exposition, the README glossary, and the lint
/// sync rule all agree on one spelling.
pub mod stage {
    /// Hypergraph simplification (`softhw_hypergraph::reduce`).
    pub const REDUCE: &str = "reduce";
    /// `BlockIndex` construction (arena, incidence, component tables).
    pub const INDEX_BUILD: &str = "index_build";
    /// `CtdInstance` build (block derivation, row copy or gather, and
    /// the inverted vertex → bags index).
    pub const INSTANCE_BUILD: &str = "instance_build";
    /// Satisfaction pass (Algorithm 1 DP).
    pub const SATISFY: &str = "satisfy";
    /// λ-set enumeration / candidate bag generation.
    pub const ENUMERATE: &str = "enumerate";
    /// Algorithm 2's preference DP (`ctd_opt::best_on_budgeted`): the
    /// bag-local evaluations, the one pass in dependency order and the
    /// extraction.
    pub const BEST_DP: &str = "best_dp";
    /// `[S]`-component / coverage-union passes over the `BlockIndex`:
    /// the `U`-side sweep inside `enumerate`, block derivation inside
    /// `instance_build`.
    pub const COMPONENTS: &str = "components";
    /// The inverted vertex → bags index build inside `instance_build`.
    /// The candidate reads that run on it are not here: the one pass of
    /// Algorithms 1 and 2 reads once per component inside `satisfy` or
    /// `best_dp`.
    pub const DEPS_SCAN: &str = "deps_scan";
    /// Result-cache probe in the service stripe.
    pub const RESULT_CACHE: &str = "result_cache";
    /// Disk-store probe (including witness re-validation on a hit).
    pub const STORE_PROBE: &str = "store_probe";
    /// Solver dispatch under the stripe lock (everything between cache
    /// miss and answer).
    pub const SOLVE: &str = "solve";
    /// Time a job spent queued between the event loop and a worker.
    pub const QUEUE_WAIT: &str = "queue_wait";
    /// Time a completed response dwelt in the per-connection reorder
    /// buffer before it could be flushed in order.
    pub const REORDER_DWELL: &str = "reorder_dwell";

    /// Every stage name, in the order histograms and the exposition
    /// report them.
    pub const ALL: &[&str] = &[
        REDUCE,
        INDEX_BUILD,
        INSTANCE_BUILD,
        SATISFY,
        ENUMERATE,
        BEST_DP,
        COMPONENTS,
        DEPS_SCAN,
        RESULT_CACHE,
        STORE_PROBE,
        SOLVE,
        QUEUE_WAIT,
        REORDER_DWELL,
    ];

    /// Index of `name` in [`ALL`], if it is a known stage.
    pub fn index_of(name: &str) -> Option<usize> {
        ALL.iter().position(|s| *s == name)
    }
}

/// Process-wide observability gate. On by default; `--no-obs` (or any
/// embedder) flips it off to make every [`span`] a disarmed no-op.
static GATE: AtomicBool = AtomicBool::new(true);

/// Enables or disables span recording process-wide.
pub fn set_enabled(on: bool) {
    GATE.store(on, Ordering::Relaxed);
}

/// True iff the process-wide gate is on.
pub fn enabled() -> bool {
    GATE.load(Ordering::Relaxed)
}

/// One recorded span: a named stage with its depth in the span stack
/// and its start offset / duration in microseconds relative to the
/// trace start.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpanRecord {
    /// Stage name (one of [`stage::ALL`] for pipeline stages).
    pub stage: &'static str,
    /// Nesting depth at open time (0 = top level).
    pub depth: u16,
    /// Microseconds from trace start to span open.
    pub start_us: u64,
    /// Span duration in microseconds.
    pub dur_us: u64,
}

/// A finished trace: the request's trace id, total duration, and every
/// span recorded on this thread while it was active.
#[derive(Clone, Debug)]
pub struct Trace {
    /// Trace id minted by the caller (the event loop).
    pub trace_id: u64,
    /// Microseconds from [`begin_trace`] to [`end_trace`].
    pub total_us: u64,
    /// Recorded spans in open order.
    pub records: Vec<SpanRecord>,
}

struct TraceBuf {
    trace_id: u64,
    start: Instant,
    records: Vec<SpanRecord>,
    /// Indices into `records` of currently open spans.
    stack: Vec<usize>,
}

thread_local! {
    static ACTIVE: std::cell::RefCell<Option<TraceBuf>> =
        const { std::cell::RefCell::new(None) };
    /// Mirror of `ACTIVE.is_some()` readable without a `RefCell` borrow
    /// — the disarmed-span fast path.
    static TRACING: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// Begins a trace on the current thread (replacing any stale one left
/// behind by a panicking request). No-op when the gate is off.
pub fn begin_trace(trace_id: u64) {
    if !enabled() {
        return;
    }
    ACTIVE.with(|a| {
        *a.borrow_mut() = Some(TraceBuf {
            trace_id,
            start: Instant::now(),
            records: Vec::new(),
            stack: Vec::new(),
        });
    });
    TRACING.with(|t| t.set(true));
}

/// True iff a trace is active on the current thread.
pub fn trace_active() -> bool {
    TRACING.with(|t| t.get())
}

/// Ends the current thread's trace and returns what it recorded, or
/// `None` if no trace was active.
pub fn end_trace() -> Option<Trace> {
    TRACING.with(|t| t.set(false));
    let buf = ACTIVE.with(|a| a.borrow_mut().take())?;
    Some(Trace {
        trace_id: buf.trace_id,
        total_us: buf.start.elapsed().as_micros() as u64,
        records: buf.records,
    })
}

/// RAII guard for one pipeline stage. Construct via [`span`]; the
/// elapsed time is recorded into the active trace when it drops.
pub struct Span {
    /// Index of the open record, or `usize::MAX` when disarmed.
    slot: usize,
}

/// Opens a span for `stage_name` on the active trace. When the gate is
/// off or no trace is active this is a flag read and returns a disarmed
/// guard whose drop does nothing.
#[inline]
pub fn span(stage_name: &'static str) -> Span {
    if !enabled() || !TRACING.with(|t| t.get()) {
        return Span { slot: usize::MAX };
    }
    let slot = ACTIVE.with(|a| {
        let mut a = a.borrow_mut();
        match a.as_mut() {
            Some(buf) => {
                let idx = buf.records.len();
                let depth = buf.stack.len() as u16;
                let start_us = buf.start.elapsed().as_micros() as u64;
                buf.records.push(SpanRecord {
                    stage: stage_name,
                    depth,
                    start_us,
                    dur_us: 0,
                });
                buf.stack.push(idx);
                idx
            }
            None => usize::MAX,
        }
    });
    Span { slot }
}

impl Drop for Span {
    fn drop(&mut self) {
        if self.slot == usize::MAX {
            return;
        }
        let slot = self.slot;
        ACTIVE.with(|a| {
            let mut a = a.borrow_mut();
            if let Some(buf) = a.as_mut() {
                // Pop our own frame (and, defensively, any deeper
                // frames a panic unwound past without dropping).
                while let Some(open) = buf.stack.pop() {
                    if open <= slot {
                        break;
                    }
                }
                if let Some(rec) = buf.records.get_mut(slot) {
                    let now_us = buf.start.elapsed().as_micros() as u64;
                    rec.dur_us = now_us.saturating_sub(rec.start_us);
                }
            }
        });
    }
}

/// Number of log2 buckets in a [`Histogram`].
pub const BUCKETS: usize = 32;

/// A fixed log2-bucket histogram over `u64` values with lock-free
/// atomic counters. Bucket `i` counts values of bit length `i`
/// (bucket 0 counts exactly `0`); the top bucket saturates.
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

/// Bucket index of value `v`: its bit length, clamped to the top
/// bucket.
#[inline]
pub fn bucket_index(v: u64) -> usize {
    ((64 - v.leading_zeros()) as usize).min(BUCKETS - 1)
}

/// Inclusive upper bound of bucket `i` (`None` for the saturating top
/// bucket).
pub fn bucket_upper(i: usize) -> Option<u64> {
    if i + 1 >= BUCKETS {
        None
    } else {
        Some((1u64 << i) - 1)
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }

    /// Records one value. Lock-free; safe from any number of threads.
    #[inline]
    pub fn observe(&self, v: u64) {
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
    }

    /// Total number of recorded values.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of recorded values.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Adds every recorded value of `other` into `self` (bucket-wise).
    pub fn merge(&self, other: &Histogram) {
        for (mine, theirs) in self.buckets.iter().zip(other.buckets.iter()) {
            let v = theirs.load(Ordering::Relaxed);
            if v > 0 {
                mine.fetch_add(v, Ordering::Relaxed);
            }
        }
        self.count
            .fetch_add(other.count.load(Ordering::Relaxed), Ordering::Relaxed);
        self.sum
            .fetch_add(other.sum.load(Ordering::Relaxed), Ordering::Relaxed);
    }

    /// A point-in-time copy of the counters (counters only grow, so the
    /// snapshot is internally consistent up to in-flight increments).
    pub fn snapshot(&self) -> HistSnapshot {
        HistSnapshot {
            buckets: std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed)),
            count: self.count(),
            sum: self.sum(),
        }
    }
}

/// Plain-data copy of a [`Histogram`]'s counters.
#[derive(Clone, Debug, Default)]
pub struct HistSnapshot {
    /// Per-bucket counts (see [`bucket_index`]).
    pub buckets: [u64; BUCKETS],
    /// Total values recorded.
    pub count: u64,
    /// Sum of values recorded.
    pub sum: u64,
}

impl HistSnapshot {
    /// Approximate quantile `q` in `[0, 1]`: the inclusive upper bound
    /// of the bucket where the cumulative count crosses `q · count`
    /// (the sum for the saturating top bucket). `None` when empty.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let target = (q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64;
        let mut cum = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            cum += c;
            if cum >= target.max(1) {
                return Some(bucket_upper(i).unwrap_or(self.sum));
            }
        }
        Some(self.sum)
    }
}

/// Appends a `# TYPE … counter` header plus one sample line for a
/// label-less counter.
pub fn expose_counter(out: &mut Vec<String>, name: &str, value: u64) {
    out.push(format!("# TYPE {name} counter"));
    out.push(format!("{name} {value}"));
}

/// Appends one gauge sample (with `# TYPE … gauge` header).
pub fn expose_gauge(out: &mut Vec<String>, name: &str, value: u64) {
    out.push(format!("# TYPE {name} gauge"));
    out.push(format!("{name} {value}"));
}

/// Appends the cumulative-bucket exposition of one histogram series.
/// `labels` is either empty or a `key="value"` list without braces;
/// `emit_type` controls the shared `# TYPE` header (emit it once per
/// metric name, not once per label set). Zero-count tail buckets below
/// the last occupied one are skipped; `+Inf`, `_sum`, and `_count` are
/// always present.
pub fn expose_histogram(
    out: &mut Vec<String>,
    name: &str,
    labels: &str,
    snap: &HistSnapshot,
    emit_type: bool,
) {
    if emit_type {
        out.push(format!("# TYPE {name} histogram"));
    }
    let sep = if labels.is_empty() { "" } else { "," };
    let last = snap
        .buckets
        .iter()
        .rposition(|&c| c > 0)
        .unwrap_or(0)
        .min(BUCKETS - 2);
    let mut cum = 0u64;
    for i in 0..=last {
        cum += snap.buckets[i];
        // The top bucket has no finite bound; `last` is clamped below it.
        let le = bucket_upper(i).unwrap_or(u64::MAX);
        out.push(format!("{name}_bucket{{{labels}{sep}le=\"{le}\"}} {cum}"));
    }
    out.push(format!(
        "{name}_bucket{{{labels}{sep}le=\"+Inf\"}} {}",
        snap.count
    ));
    let lb = if labels.is_empty() {
        String::new()
    } else {
        format!("{{{labels}}}")
    };
    out.push(format!("{name}_sum{lb} {}", snap.sum));
    out.push(format!("{name}_count{lb} {}", snap.count));
}

/// One slow-query record: the request's trace, class, and span tree.
#[derive(Clone, Debug)]
pub struct SlowEntry {
    /// Trace id (as minted by the event loop).
    pub trace_id: u64,
    /// Request class name (`SHW`, `BATCH`, …).
    pub class: String,
    /// Total request duration in microseconds.
    pub total_us: u64,
    /// The span tree, in open order.
    pub records: Vec<SpanRecord>,
}

impl SlowEntry {
    /// Renders this entry as indented text lines: one header line and
    /// one line per span, indented by nesting depth.
    pub fn render(&self) -> Vec<String> {
        let mut out = Vec::with_capacity(1 + self.records.len());
        out.push(format!(
            "slow trace={:016x} class={} total_us={} spans={}",
            self.trace_id,
            self.class,
            self.total_us,
            self.records.len()
        ));
        for r in &self.records {
            out.push(format!(
                "{}{} dur_us={} start_us={}",
                "  ".repeat(r.depth as usize + 1),
                r.stage,
                r.dur_us,
                r.start_us
            ));
        }
        out
    }
}

/// Bounded ring of the most recent slow queries (oldest evicted first).
pub struct SlowRing {
    cap: usize,
    entries: VecDeque<SlowEntry>,
    /// Total slow queries ever recorded (not bounded by `cap`).
    recorded: u64,
}

impl SlowRing {
    /// An empty ring keeping at most `cap` entries (minimum 1).
    pub fn new(cap: usize) -> Self {
        SlowRing {
            cap: cap.max(1),
            entries: VecDeque::new(),
            recorded: 0,
        }
    }

    /// Records one slow query, evicting the oldest entry when full.
    pub fn push(&mut self, entry: SlowEntry) {
        if self.entries.len() == self.cap {
            self.entries.pop_front();
        }
        self.entries.push_back(entry);
        self.recorded = self.recorded.saturating_add(1);
    }

    /// Entries currently retained, oldest first.
    pub fn entries(&self) -> impl Iterator<Item = &SlowEntry> {
        self.entries.iter()
    }

    /// Number of retained entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True iff nothing is retained.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Total slow queries ever recorded (including evicted ones).
    pub fn recorded(&self) -> u64 {
        self.recorded
    }

    /// Renders every retained entry, oldest first.
    pub fn render(&self) -> Vec<String> {
        let mut out = Vec::new();
        for e in &self.entries {
            out.extend(e.render());
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries_are_exact_powers_of_two() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(7), 3);
        assert_eq!(bucket_index(8), 4);
        // Every bucket's inclusive upper bound maps into that bucket and
        // the next value maps out of it.
        for i in 1..BUCKETS - 1 {
            let hi = bucket_upper(i).expect("finite bucket");
            assert_eq!(bucket_index(hi), i, "upper bound of bucket {i}");
            assert_eq!(bucket_index(hi + 1), i + 1, "first value past bucket {i}");
        }
        assert_eq!(bucket_upper(BUCKETS - 1), None);
    }

    #[test]
    fn top_bucket_saturates() {
        let h = Histogram::new();
        h.observe(u64::MAX);
        h.observe(1u64 << 62);
        h.observe((1u64 << 30) - 1); // last finite bucket
        let s = h.snapshot();
        assert_eq!(s.buckets[BUCKETS - 1], 2);
        assert_eq!(s.count, 3);
        assert_eq!(
            s.sum,
            u64::MAX.wrapping_add(1 << 62).wrapping_add((1 << 30) - 1)
        );
    }

    #[test]
    fn concurrent_increments_are_lossless_and_merge_adds() {
        let h = std::sync::Arc::new(Histogram::new());
        let threads = 8;
        let per = 10_000u64;
        let mut joins = Vec::new();
        for t in 0..threads {
            let h = std::sync::Arc::clone(&h);
            joins.push(std::thread::spawn(move || {
                for i in 0..per {
                    h.observe(t as u64 * per + i);
                }
            }));
        }
        for j in joins {
            j.join().expect("worker");
        }
        let s = h.snapshot();
        assert_eq!(s.count, threads as u64 * per);
        assert_eq!(s.buckets.iter().sum::<u64>(), s.count);

        let other = Histogram::new();
        other.observe(5);
        other.observe(500);
        other.merge(&h);
        assert_eq!(other.count(), s.count + 2);
        assert_eq!(other.sum(), s.sum + 505);
    }

    #[test]
    fn spans_record_into_the_active_trace_only() {
        // No trace: disarmed, nothing recorded.
        drop(span(stage::REDUCE));
        assert!(end_trace().is_none());

        begin_trace(42);
        {
            let _outer = span(stage::SOLVE);
            std::thread::sleep(std::time::Duration::from_millis(2));
            let _inner = span(stage::SATISFY);
        }
        let t = end_trace().expect("trace active");
        assert_eq!(t.trace_id, 42);
        assert_eq!(t.records.len(), 2);
        assert_eq!(t.records[0].stage, stage::SOLVE);
        assert_eq!(t.records[0].depth, 0);
        assert_eq!(t.records[1].stage, stage::SATISFY);
        assert_eq!(t.records[1].depth, 1);
        assert!(t.records[0].dur_us >= t.records[1].dur_us);
        assert!(t.total_us >= t.records[0].dur_us);
    }

    #[test]
    fn disabled_gate_disarms_spans_and_traces() {
        set_enabled(false);
        begin_trace(7);
        drop(span(stage::REDUCE));
        assert!(end_trace().is_none());
        set_enabled(true);
    }

    #[test]
    fn slow_ring_bounds_and_renders() {
        let mut ring = SlowRing::new(2);
        assert!(ring.is_empty());
        for i in 0..3u64 {
            ring.push(SlowEntry {
                trace_id: i,
                class: "SHW".to_string(),
                total_us: 10 * i,
                records: vec![SpanRecord {
                    stage: stage::REDUCE,
                    depth: 0,
                    start_us: 0,
                    dur_us: 1,
                }],
            });
        }
        assert_eq!(ring.len(), 2);
        assert_eq!(ring.recorded(), 3);
        let lines = ring.render();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("trace=0000000000000001"), "{}", lines[0]);
        assert!(lines[1].trim_start().starts_with("reduce"), "{}", lines[1]);
    }

    #[test]
    fn exposition_is_cumulative_and_parseable() {
        let h = Histogram::new();
        for v in [0u64, 1, 2, 3, 9] {
            h.observe(v);
        }
        let mut out = Vec::new();
        expose_histogram(
            &mut out,
            "softhw_test_us",
            "class=\"SHW\"",
            &h.snapshot(),
            true,
        );
        assert_eq!(out[0], "# TYPE softhw_test_us histogram");
        assert!(out.contains(&"softhw_test_us_bucket{class=\"SHW\",le=\"0\"} 1".to_string()));
        assert!(out.contains(&"softhw_test_us_bucket{class=\"SHW\",le=\"1\"} 2".to_string()));
        assert!(out.contains(&"softhw_test_us_bucket{class=\"SHW\",le=\"3\"} 4".to_string()));
        assert!(out.contains(&"softhw_test_us_bucket{class=\"SHW\",le=\"+Inf\"} 5".to_string()));
        assert!(out.contains(&"softhw_test_us_sum{class=\"SHW\"} 15".to_string()));
        assert!(out.contains(&"softhw_test_us_count{class=\"SHW\"} 5".to_string()));
        // Cumulative counts never decrease.
        let mut prev = 0u64;
        for line in &out {
            if let Some(rest) = line.strip_suffix(|c: char| c.is_ascii_digit()) {
                let _ = rest;
            }
            if line.contains("_bucket{") {
                let v: u64 = line
                    .rsplit(' ')
                    .next()
                    .and_then(|s| s.parse().ok())
                    .expect("sample value");
                assert!(v >= prev, "non-cumulative: {line}");
                prev = v;
            }
        }
    }

    #[test]
    fn quantile_reports_bucket_upper_bounds() {
        let h = Histogram::new();
        for _ in 0..99 {
            h.observe(3);
        }
        h.observe(1000);
        let s = h.snapshot();
        assert_eq!(s.quantile(0.5), Some(3));
        assert_eq!(s.quantile(1.0), Some(1023));
        assert_eq!(HistSnapshot::default().quantile(0.5), None);
    }
}
