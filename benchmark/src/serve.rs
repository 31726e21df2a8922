//! The closed-loop driver shared by the three serving workloads: one
//! generator thread, one connection, one `softhw-serve --workers 1`
//! (client + event loop + worker on two cores — never more threads or
//! connections than the box has cores).
//!
//! A run alternates untimed gaps (generate the next chunk of requests,
//! check the previous chunk's raw answers) with timed windows (send and
//! receive, nothing else). The measurement clock only advances inside
//! windows, so `--seconds` is time spent measuring.

use crate::check::Oracle;
use crate::client::{split_batch, Conn};
use crate::gen::{batch_frame, Class, Req, Stream};
use crate::layers::{self, Replayer};
use crate::proc::{ServerProc, TempFile};
use crate::refkernel;
use crate::report::{RunResult, Tally};
use crate::stats::{self, median, summarise, Window};
use crate::trace::{self, Tracer};
use crate::Mode;
use softhw_service::{Request, RequestClass};
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::io;
use std::time::{Duration, Instant};

/// One in `DEEP_EVERY` answers is fully decoded, validated and compared
/// with an in-process solve after the run.
const DEEP_EVERY: u64 = 50;

/// Hot requests re-asked after the restart of a store-backed server.
const RESTART_REASKS: usize = 200;

/// What distinguishes the serving workloads.
pub trait ServeWorkload {
    fn name(&self) -> &'static str;
    /// Extra `softhw-serve` flags (documented ones only).
    fn server_flags(&self) -> Vec<String> {
        Vec::new()
    }
    fn uses_store(&self) -> bool {
        false
    }
    /// Frames kept in flight on the connection (1 = lockstep).
    fn window(&self) -> usize {
        1
    }
    /// `(singles, batch size)`: after `singles` single frames one
    /// `BATCH` frame carries the next `batch size` stream items.
    fn batch(&self) -> Option<(u64, u64)> {
        None
    }
    /// Stream items per timed window — the granularity at which the box's
    /// speed is probed; about a fifth of a second of work.
    fn window_items(&self) -> u64;
    /// Stream items after which the mix of work repeats. A run ends on a
    /// multiple of it, so runs of different length hold the same mix.
    fn cycle_items(&self) -> u64 {
        self.window_items()
    }
    /// Generates the inputs (part of set-up).
    fn stream(&self, seed: u64) -> Box<dyn Stream>;
    /// Stream items the traced pass sends and replays.
    fn traced_prefix(&self) -> u64;
}

/// A server with everything a run needs around it.
struct Env {
    // Field order is drop order: the connection closes before the server
    // is killed, and the store file goes last.
    conn: Conn,
    server: ServerProc,
    stream: Box<dyn Stream>,
    first: FirstAnswers,
    warm_up: Vec<Req>,
    store: Option<TempFile>,
}

/// First raw answer per working-set slot and class; every repeat must be
/// byte-identical to it. The first [`RESTART_REASKS`] requests are kept
/// too, to be asked again after a restart.
#[derive(Default)]
struct FirstAnswers {
    map: HashMap<(u32, Class), Vec<u8>>,
    reask: Vec<((u32, Class), Req)>,
}

/// `BENCH_SERVE_FLAGS`: extra `softhw-serve` flags for one-off
/// experiments (`--result-cache 0`, `--no-reduce`, …) without a source
/// edit. A run made with it says so and is not a baseline.
fn experiment_flags() -> Vec<String> {
    std::env::var("BENCH_SERVE_FLAGS")
        .map(|v| v.split_whitespace().map(String::from).collect())
        .unwrap_or_default()
}

fn spawn_server(
    w: &dyn ServeWorkload,
    store: Option<&TempFile>,
    extra_flags: &[&str],
) -> io::Result<ServerProc> {
    let mut flags = w.server_flags();
    if let Some(store) = store {
        flags.push("--store".into());
        flags.push(store.path_str());
    }
    flags.extend(extra_flags.iter().map(|f| f.to_string()));
    flags.extend(experiment_flags());
    let flag_refs: Vec<&str> = flags.iter().map(String::as_str).collect();
    Ok(ServerProc::spawn(&flag_refs)?.0)
}

fn spawn_env(w: &dyn ServeWorkload, seed: u64, extra_flags: &[&str]) -> io::Result<Env> {
    let store = w.uses_store().then(|| TempFile::new(w.name(), "store"));
    let server = spawn_server(w, store.as_ref(), extra_flags)?;
    let conn = Conn::connect(&server.addr)?;
    let stream = w.stream(seed);
    let warm_up = stream.warm_up();
    let mut env = Env {
        conn,
        server,
        stream,
        first: FirstAnswers::default(),
        warm_up,
        store,
    };
    env.conn.ask(&Request::new(RequestClass::Hello, ""))?;
    let mut tally = Tally::default();
    let mut raw = Vec::new();
    for req in &env.warm_up {
        raw.clear();
        env.conn.roundtrip(&req.frame(), &mut raw)?;
        check_item(req, &raw, &mut env.first, &mut tally);
    }
    if tally.failed > 0 {
        return Err(io::Error::other(format!(
            "warm-up failed: {}",
            tally.notes.join("; ")
        )));
    }
    Ok(env)
}

/// Status, then byte identity with the slot's first answer.
fn check_item(req: &Req, raw: &[u8], first: &mut FirstAnswers, tally: &mut Tally) {
    tally.attempted += 1;
    if !raw.starts_with(req.class.ok_prefix().as_bytes()) {
        let status = String::from_utf8_lossy(raw.split(|&b| b == b'\n').next().unwrap_or(b""));
        tally.fail(format!("{:?} answered {status:?}", req.class));
        return;
    }
    let (Some(slot), true) = (req.slot, req.class != Class::Stats) else {
        return;
    };
    match first.map.get(&(slot, req.class)) {
        Some(seen) if seen.as_slice() != raw => {
            tally.fail(format!(
                "slot {slot} {:?}: repeat differs from the first answer",
                req.class
            ));
        }
        Some(_) => {}
        None => {
            first.map.insert((slot, req.class), raw.to_vec());
            if first.reask.len() < RESTART_REASKS {
                first.reask.push(((slot, req.class), req.clone()));
            }
        }
    }
}

struct Frame {
    bytes: Vec<u8>,
    /// Range of the chunk's requests this frame carries.
    items: std::ops::Range<usize>,
    batch: bool,
}

/// Frames for the requests at stream positions `base..base + reqs.len()`.
fn plan_frames(reqs: &[Req], base: u64, batch: Option<(u64, u64)>) -> Vec<Frame> {
    let mut frames = Vec::with_capacity(reqs.len());
    let mut i = 0usize;
    while i < reqs.len() {
        let in_batch =
            batch.filter(|&(singles, size)| (base + i as u64) % (singles + size) == singles);
        match in_batch {
            Some((_, size)) if i + size as usize <= reqs.len() => {
                let items = i..i + size as usize;
                frames.push(Frame {
                    bytes: batch_frame(&reqs[items.clone()]),
                    items: items.clone(),
                    batch: true,
                });
                i = items.end;
            }
            _ => {
                frames.push(Frame {
                    bytes: reqs[i].frame(),
                    items: i..i + 1,
                    batch: false,
                });
                i += 1;
            }
        }
    }
    frames
}

/// Everything a timed loop accumulates.
#[derive(Default)]
struct Timed {
    clock_ns: u64,
    next_item: u64,
    windows: Vec<Window>,
    /// `(raw, corrected)` latency per item, µs.
    lat_us: Vec<(f64, f64)>,
    by_class: [Vec<f64>; 5],
    batch_frames_us: Vec<f64>,
    deep: Vec<(Req, Vec<u8>)>,
}

/// Runs timed windows until the measurement clock has advanced by
/// `budget`.
fn timed_loop(
    w: &dyn ServeWorkload,
    env: &mut Env,
    budget: Duration,
    seed: u64,
    timed: &mut Timed,
    tally: &mut Tally,
) -> io::Result<()> {
    let deadline = timed.clock_ns + budget.as_nanos() as u64;
    let chunk = w.window_items();
    let mut arena: Vec<u8> = Vec::new();
    while timed.clock_ns < deadline || !timed.next_item.is_multiple_of(w.cycle_items()) {
        // Untimed: generate and frame the chunk.
        let base = timed.next_item;
        let reqs: Vec<Req> = (base..base + chunk).map(|i| env.stream.req(i)).collect();
        let frames = plan_frames(&reqs, base, w.batch());
        arena.clear();
        let mut ends: Vec<usize> = Vec::with_capacity(frames.len());
        let mut lats: Vec<u64> = Vec::with_capacity(frames.len());
        let before = refkernel::probe();
        // Timed: nothing but send and receive.
        let t0 = Instant::now();
        let mut sent_at: VecDeque<Instant> = VecDeque::with_capacity(w.window());
        let mut sent = 0usize;
        while ends.len() < frames.len() {
            while sent < frames.len() && sent_at.len() < w.window() {
                sent_at.push_back(Instant::now());
                env.conn.send(&frames[sent].bytes)?;
                sent += 1;
            }
            env.conn.recv(&mut arena)?;
            let now = Instant::now();
            let start = sent_at.pop_front().expect("a frame is in flight");
            ends.push(arena.len());
            lats.push((now - start).as_nanos() as u64);
        }
        let window_ns = t0.elapsed().as_nanos() as u64;
        let after = refkernel::probe();
        // Untimed: account and check.
        let mut begin = 0usize;
        let slowness = refkernel::slowness(before, after);
        for ((frame, &end), &lat) in frames.iter().zip(&ends).zip(&lats) {
            let raw = &arena[begin..end];
            begin = end;
            let parts: Vec<Vec<u8>>;
            let answers: Vec<&[u8]> = if frame.batch {
                timed.batch_frames_us.push(lat as f64 / 1e3);
                match split_batch(raw) {
                    Ok(p) if p.len() == frame.items.len() => {
                        parts = p;
                        parts.iter().map(Vec::as_slice).collect()
                    }
                    other => {
                        tally.attempted += frame.items.len() as u64;
                        tally.failed += frame.items.len() as u64 - 1;
                        tally.fail(format!("batch frame: {:?}", other.err()));
                        continue;
                    }
                }
            } else {
                vec![raw]
            };
            for (idx, answer) in frame.items.clone().zip(answers) {
                let req = &reqs[idx];
                let item = base + idx as u64;
                check_item(req, answer, &mut env.first, tally);
                timed
                    .lat_us
                    .push((lat as f64 / 1e3, lat as f64 / 1e3 / slowness));
                timed.by_class[req.class.index()].push(lat as f64 / 1e3);
                if item % DEEP_EVERY == seed % DEEP_EVERY {
                    timed.deep.push((req.clone(), answer.to_vec()));
                }
            }
        }
        timed.windows.push(Window {
            items: reqs.len(),
            span_ns: window_ns,
            slowness,
        });
        timed.clock_ns += window_ns;
        timed.next_item += chunk;
    }
    Ok(())
}

/// Fully checks the sampled answers against in-process solves.
fn deep_check(deep: &[(Req, Vec<u8>)], tally: &mut Tally) -> usize {
    let mut oracle = Oracle::new();
    for (req, raw) in deep {
        if let Err(e) = oracle.check(req, raw) {
            tally.fail(format!("{:?} sampled answer: {e}", req.class));
        }
    }
    deep.len()
}

struct Restart {
    restart_s: f64,
    store_hits: f64,
    bytes_per_result: f64,
}

/// SIGTERM → drain → a second server over the same store file; the first
/// answers recorded before the restart must come back byte-identical,
/// served from the store.
fn restart_check(w: &dyn ServeWorkload, env: Env, tally: &mut Tally) -> io::Result<Restart> {
    let Env {
        conn,
        server,
        first,
        store,
        ..
    } = env;
    drop(conn);
    if !server.terminate()? {
        tally.fail("server did not drain cleanly on SIGTERM".into());
    }
    let store = store.expect("restart needs a store-backed workload");
    let persisted = softhw_store::Store::open(&store.0)?.stats();
    let Some((_, probe)) = first.reask.first() else {
        return Err(io::Error::other(
            "no hot answers were recorded before the restart",
        ));
    };
    let started = Instant::now();
    let server = spawn_server(w, Some(&store), &[])?;
    let mut conn = Conn::connect(&server.addr)?;
    let mut restart_s = 0.0;
    let mut raw = Vec::new();
    for (n, (key, req)) in first.reask.iter().enumerate() {
        raw.clear();
        conn.roundtrip(&req.frame(), &mut raw)?;
        tally.attempted += 1;
        if raw != first.map[key] {
            tally.fail(format!(
                "slot {} {:?}: answer after restart differs from the one before",
                key.0, key.1
            ));
        }
        if n == 0 {
            restart_s = started.elapsed().as_secs_f64();
        }
    }
    let fields = conn.stats(&probe.wire())?;
    let store_hits = stats::stats_sum(&fields, "store_hits").unwrap_or(0.0);
    if store_hits <= 0.0 {
        tally.fail("restarted server reports no store hits".into());
    }
    drop(conn);
    server.terminate()?;
    Ok(Restart {
        restart_s,
        store_hits,
        bytes_per_result: persisted.bytes as f64 / (persisted.results.max(1)) as f64,
    })
}

/// Set-up several times over; the median is reported and the last
/// environment is the one measured.
fn repeated_setup(w: &dyn ServeWorkload, seed: u64, reps: usize) -> io::Result<(Env, f64, usize)> {
    let mut times = Vec::with_capacity(reps);
    let mut env = None;
    for _ in 0..reps {
        drop(env.take());
        let before = refkernel::probe();
        let started = Instant::now();
        env = Some(spawn_env(w, seed, &[])?);
        let took = started.elapsed().as_secs_f64();
        times.push(took / refkernel::slowness(before, refkernel::probe()));
    }
    Ok((env.expect("at least one set-up"), median(&times), reps))
}

/// The end-to-end run (`--trace 0`).
pub fn run_timed(w: &dyn ServeWorkload, seed: u64, mode: &Mode) -> io::Result<RunResult> {
    let (mut env, setup_s, setup_n) = repeated_setup(w, seed, mode.setup_reps)?;
    let mut tally = Tally::default();
    let mut timed = Timed::default();
    timed_loop(w, &mut env, mode.window, seed, &mut timed, &mut tally)?;
    let rss = env.server.vm_hwm_mb().unwrap_or(0.0);
    if w.uses_store() {
        restart_check(w, env, &mut tally)?;
    } else {
        drop(env);
    }
    let sampled = deep_check(&timed.deep, &mut tally);
    let s = summarise(&timed.windows, &timed.lat_us);
    let n = s.items;
    let mut result = RunResult::new(w.name(), tally);
    result.push("setup_s", setup_s, setup_n);
    result.push("req_per_s", s.req_per_s, n);
    result.push("p50_us", s.p50_us, n);
    result.push("p99_us", s.p99_us, n);
    result.push("peak_rss_mb", rss, 1);
    note_experiment(&mut result);
    result.info.push(format!(
        "stream digest (first 1000 requests) {:016x}",
        crate::gen::stream_digest(&*w.stream(seed), 1_000)
    ));
    result.info.push(format!(
        "{n} requests in {} windows, {:.2} s on the clock; {sampled} answers fully checked",
        s.windows,
        timed.clock_ns as f64 / 1e9
    ));
    result.info.push(format!(
        "uncorrected: {:.1} req/s, p50 {:.1} us; the box ran {:.2}x slower than the quiet reference",
        s.raw_req_per_s, s.raw_p50_us, s.slowness
    ));
    Ok(result)
}

fn note_experiment(result: &mut RunResult) {
    let flags = experiment_flags();
    if !flags.is_empty() {
        result.info.push(format!(
            "EXPERIMENT: server ran with extra flags {flags:?}; not a baseline"
        ));
    }
}

/// Median lockstep roundtrip of `n` control requests, µs.
fn control_rtt_us(conn: &mut Conn, frame: &[u8], n: usize) -> io::Result<f64> {
    let mut raw = Vec::new();
    let mut lats = Vec::with_capacity(n);
    for _ in 0..n {
        raw.clear();
        let t = Instant::now();
        conn.roundtrip(frame, &mut raw)?;
        lats.push(t.elapsed().as_nanos() as f64 / 1e3);
    }
    Ok(median(&lats))
}

const STAGES: [&str; 11] = [
    "queue_wait",
    "reorder_dwell",
    "result_cache",
    "store_probe",
    "solve",
    "reduce",
    "index_build",
    "instance_build",
    "instance_extend",
    "satisfy",
    "enumerate",
];

/// Lockstep throughput of `n` stream items starting at `from`, req/s.
fn lockstep_rps(env: &mut Env, from: u64, n: u64) -> io::Result<f64> {
    let frames: Vec<Vec<u8>> = (from..from + n)
        .map(|i| env.stream.req(i).frame())
        .collect();
    let mut raw = Vec::new();
    let t = Instant::now();
    for f in &frames {
        raw.clear();
        env.conn.roundtrip(f, &mut raw)?;
    }
    Ok(n as f64 / t.elapsed().as_secs_f64())
}

/// `req/s` lost to observability: paired lockstep slices against a
/// default server and a `--no-obs` one over the same items.
fn obs_overhead_pct(w: &dyn ServeWorkload, seed: u64, env: &mut Env, from: u64) -> io::Result<f64> {
    let mut quiet = spawn_env(w, seed, &["--no-obs"])?;
    let per_slice = 4_000u64;
    let mut pct = Vec::new();
    for pair in 0..4u64 {
        let at = from + pair * per_slice;
        let (on, off) = if pair % 2 == 0 {
            let on = lockstep_rps(env, at, per_slice)?;
            (on, lockstep_rps(&mut quiet, at, per_slice)?)
        } else {
            let off = lockstep_rps(&mut quiet, at, per_slice)?;
            (lockstep_rps(env, at, per_slice)?, off)
        };
        pct.push((off - on) / off * 100.0);
    }
    Ok(median(&pct))
}

/// Per-layer metrics of a traced run by name: `(value, samples)`.
#[derive(Default)]
struct Layers(BTreeMap<String, (f64, usize)>);

impl Layers {
    fn set(&mut self, name: impl Into<String>, value: f64, samples: usize) {
        self.0.insert(name.into(), (value, samples));
    }
}

/// One METRICS + STATS scrape over the wire.
struct Scrape {
    metrics: BTreeMap<String, f64>,
    stats: Vec<(String, String)>,
}

fn scrape(conn: &mut Conn, probe: &Req) -> io::Result<Scrape> {
    Ok(Scrape {
        metrics: stats::parse_exposition(&conn.metrics()?),
        stats: conn.stats(&probe.wire())?,
    })
}

/// What the server's own counters say happened between two scrapes,
/// per request served in between. A row the server no longer reports is
/// left out (and reads 0 in the result), never a failure.
fn wire_deltas(m: &mut Layers, before: &Scrape, after: &Scrape, served: usize) {
    for stage in STAGES {
        let key = format!("softhw_stage_duration_us_sum{{stage=\"{stage}\"}}");
        if let Some(us) = stats::delta(&before.metrics, &after.metrics, &key) {
            m.set(
                format!("service.stage.{stage}_us_per_req"),
                us / served as f64,
                served,
            );
        }
    }
    let stat_delta = |key: &str| -> Option<f64> {
        Some(stats::stats_sum(&after.stats, key)? - stats::stats_sum(&before.stats, key)?)
    };
    if let (Some(hits), Some(misses)) = (
        stat_delta("result_cache_hits"),
        stat_delta("result_cache_misses"),
    ) {
        let lookups = hits + misses;
        let ratio = if lookups > 0.0 { hits / lookups } else { 0.0 };
        m.set("service.result_cache_hit_ratio", ratio, lookups as usize);
    }
    for (name, key, samples) in [
        ("service.evictions", "stripe_evictions", served),
        ("service.busy_shed", "busy_shed", served),
        // A per-stripe STATS row: the probed schema's stripe only.
        ("service.instance_hits", "instance_hits", 1),
    ] {
        if let Some(v) = stat_delta(key) {
            m.set(name, v, samples);
        }
    }
    for (name, series) in [
        ("service.pipelined_depth_max", "softhw_pipelined_depth_max"),
        (
            "service.bytes_per_cached_schema",
            "softhw_bytes_per_cached_schema",
        ),
    ] {
        if let Some(v) = after.metrics.get(series) {
            m.set(name, *v, 1);
        }
    }
}

/// The traced prefix of a run and everything it leaves behind.
struct Prefix {
    requests: u64,
    tr: Tracer,
    replayer: Replayer,
    traced_p50_us: f64,
    bare_p50_us: f64,
    /// Keeps the replayer's store file alive.
    _store: Option<TempFile>,
}

/// Sends the first `2 × prefix` stream items in lockstep: even items
/// inside a span, odd items bare — same stream, same cache warmth, so
/// the difference of the two medians is the tracer's own cost. The
/// in-process replays of the traced items wait until everything has been
/// sent: a replay between two requests would leave the server's caches
/// cold for the next one.
fn traced_prefix(
    w: &dyn ServeWorkload,
    env: &mut Env,
    mode: &Mode,
    tally: &mut Tally,
    m: &mut Layers,
) -> io::Result<Prefix> {
    let store = w.uses_store().then(|| TempFile::new("replay", "store"));
    let mut replayer = Replayer::new(
        store
            .as_ref()
            .map(|f| softhw_store::Store::open(&f.0))
            .transpose()?,
    );
    for req in &env.warm_up {
        replayer.prime(req).map_err(io::Error::other)?;
    }
    let mut tr = Tracer::new();
    let requests = w.traced_prefix() / mode.shrink;
    let (mut traced_us, mut bare_us) = (Vec::new(), Vec::new());
    let mut raw = Vec::new();
    // Per-layer times are reported as measured; the box's slowness over
    // the prefix is reported beside them.
    let mut probes = vec![refkernel::probe()];
    let mut sent: Vec<(u64, Req, Vec<u8>, Vec<u8>)> = Vec::with_capacity(requests as usize);
    for i in 0..2 * requests {
        if i % 200 == 199 {
            probes.push(refkernel::probe());
        }
        let traced = i % 2 == 0;
        let req = env.stream.req(i);
        let frame = req.frame();
        raw.clear();
        let conn = &mut env.conn;
        let sent_at = Instant::now();
        if traced {
            tr.set_request(i);
            tr.scope("client.roundtrip", |_| conn.roundtrip(&frame, &mut raw))?;
            traced_us.push(sent_at.elapsed().as_nanos() as f64 / 1e3);
        } else {
            conn.roundtrip(&frame, &mut raw)?;
            bare_us.push(sent_at.elapsed().as_nanos() as f64 / 1e3);
        }
        check_item(&req, &raw, &mut env.first, tally);
        if traced {
            sent.push((i, req, frame, raw.clone()));
        }
    }
    for (i, req, frame, raw) in &sent {
        tr.set_request(*i);
        tr.scope("replay", |tr| replayer.replay(tr, req, frame, raw))
            .map_err(io::Error::other)?;
    }
    probes.push(refkernel::probe());
    let (slowness, intervals) = refkernel::median_slowness(&probes);
    let (traced_p50_us, bare_p50_us) = (median(&traced_us), median(&bare_us));
    m.set("box.slowness", slowness, intervals);
    m.set("e2e.traced_p50_us", traced_p50_us, traced_us.len());
    m.set("e2e.bare_p50_us", bare_p50_us, bare_us.len());
    m.set("check.traced_requests", requests as f64, 1);
    m.set(
        "trace.overhead_pct",
        (traced_p50_us - bare_p50_us) / bare_p50_us * 100.0,
        requests as usize,
    );
    Ok(Prefix {
        requests,
        tr,
        replayer,
        traced_p50_us,
        bare_p50_us,
        _store: store,
    })
}

/// Per-layer self times, exact counts and the ledger from the replay.
fn replay_metrics(m: &mut Layers, prefix: &Prefix, hello_rtt_us: f64) {
    let spans = prefix.tr.spans();
    for (name, us) in &trace::per_request_self_us(spans) {
        if name.contains('.') && *name != layers::span::BY_LAYER && !name.starts_with("client.") {
            m.set(format!("{name}_us"), median(us), us.len());
        }
    }
    let n = prefix.requests as usize;
    m.set(
        "core.enumerate_bags",
        prefix.replayer.enumerate_bags as f64,
        n,
    );
    m.set(
        "core.instance_blocks",
        prefix.replayer.instance_blocks as f64,
        n,
    );
    // Ledger: what share of a traced request's roundtrip the transport
    // floor plus the replayed blocking-path layers do not explain.
    let mut attributed: BTreeMap<u64, f64> = BTreeMap::new();
    for s in spans {
        if layers::LEDGER_SPANS.contains(&s.name) {
            *attributed.entry(s.req).or_default() += (s.end_ns - s.start_ns) as f64 / 1e3;
        }
    }
    let attributed: Vec<f64> = attributed.into_values().collect();
    let layer_sum = median(&attributed);
    m.set("replay.layer_sum_us", layer_sum, attributed.len());
    m.set(
        "ledger.unattributed_pct",
        (1.0 - (hello_rtt_us + layer_sum) / prefix.traced_p50_us) * 100.0,
        attributed.len(),
    );
    m.set("check.spans", spans.len() as f64, 1);
}

/// The traced pass (`--trace 1`): per-layer numbers.
pub fn run_traced(w: &dyn ServeWorkload, seed: u64, mode: &Mode) -> io::Result<RunResult> {
    let started = Instant::now();
    let (mut env, _, _) = repeated_setup(w, seed, 1)?;
    let mut tally = Tally::default();
    let mut m = Layers::default();

    // Transport and event-loop floor, and the cheapest schema-bearing verb.
    let probe = env.stream.req(0);
    let hello = Request::new(RequestClass::Hello, "").encode();
    let hello_rtt = control_rtt_us(&mut env.conn, hello.as_bytes(), 2_000)?;
    m.set("service.hello_rtt_us", hello_rtt, 2_000);
    let stats_frame = Req {
        class: Class::Stats,
        ..probe.clone()
    }
    .frame();
    let stats_rtt = control_rtt_us(&mut env.conn, &stats_frame, 2_000)?;
    m.set("service.stats_rtt_us", stats_rtt, 2_000);

    let before = scrape(&mut env.conn, &probe)?;
    let prefix = traced_prefix(w, &mut env, mode, &mut tally, &mut m)?;

    // The workload's own load shape for what is left of the run: class
    // medians, BATCH frames, pipelining depth, and the stage deltas.
    let mut timed = Timed {
        next_item: (2 * prefix.requests).next_multiple_of(w.cycle_items()),
        ..Timed::default()
    };
    let left = mode
        .window
        .saturating_sub(started.elapsed())
        .clamp(mode.window / 5, mode.window / 2);
    timed_loop(w, &mut env, left, seed, &mut timed, &mut tally)?;
    let sampled = deep_check(&timed.deep, &mut tally);
    m.set("check.sampled", sampled as f64, 1);
    let after = scrape(&mut env.conn, &probe)?;
    let items: usize = timed.windows.iter().map(|w| w.items).sum();
    wire_deltas(
        &mut m,
        &before,
        &after,
        2 * prefix.requests as usize + items,
    );

    for class in Class::ALL {
        let lats = &timed.by_class[class.index()];
        if !lats.is_empty() {
            m.set(
                format!("service.class.{}_p50_us", class.label()),
                median(lats),
                lats.len(),
            );
        }
    }
    if !timed.batch_frames_us.is_empty() {
        m.set(
            "service.batch_frame_p50_us",
            median(&timed.batch_frames_us),
            timed.batch_frames_us.len(),
        );
    }
    let lockstep_p50 = if w.window() == 1 && w.batch().is_none() {
        summarise(&timed.windows, &timed.lat_us).p50_us
    } else {
        prefix.bare_p50_us
    };
    m.set("service.dispatch_us", lockstep_p50 - hello_rtt, items);
    replay_metrics(&mut m, &prefix, hello_rtt);

    if w.name() == "serve_warm" {
        let pct = obs_overhead_pct(w, seed, &mut env, timed.next_item)?;
        m.set("obs.overhead_pct", pct, 4);
    }

    let Prefix { tr, replayer, .. } = prefix;
    if let Some(mut store) = replayer.into_store() {
        store.sync()?;
        let path = store.path().to_path_buf();
        drop(store);
        let t = Instant::now();
        let reopened = softhw_store::Store::open(&path)?;
        m.set("store.open_ms", t.elapsed().as_secs_f64() * 1e3, 1);
        let st = reopened.stats();
        m.set(
            "store.bytes_per_result",
            st.bytes as f64 / st.results.max(1) as f64,
            st.results,
        );
    }

    if w.uses_store() {
        let r = restart_check(w, env, &mut tally)?;
        m.set("store.restart_s", r.restart_s, 1);
        m.set("store.restart_hits", r.store_hits, RESTART_REASKS);
        m.set("store.server_bytes_per_result", r.bytes_per_result, 1);
    } else {
        drop(env);
    }

    let trace_path = crate::proc::out_dir().join(format!("trace-{}.jsonl", w.name()));
    trace::write_jsonl(tr.spans(), &trace_path)?;

    let mut result = RunResult::new(w.name(), tally);
    note_experiment(&mut result);
    result.info.push(format!(
        "{} spans written to {}",
        tr.spans().len(),
        trace_path.display()
    ));
    for (name, (value, n)) in m.0 {
        result.push(&name, value, n);
    }
    Ok(result)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::Schema;

    fn req(i: u32) -> Req {
        Req {
            class: Class::Shw,
            schema: Schema {
                body: format!("e{i}(a,b).\n").into(),
                sql: false,
            },
            slot: None,
        }
    }

    #[test]
    fn frames_follow_the_singles_then_batch_period() {
        let reqs: Vec<Req> = (0..46).map(req).collect();
        let frames = plan_frames(&reqs, 0, Some((7, 16)));
        // Two periods: 7 singles + 1 batch of 16 each.
        assert_eq!(frames.len(), 16);
        assert!(frames[..7].iter().all(|f| !f.batch && f.items.len() == 1));
        assert!(frames[7].batch && frames[7].items == (7..23));
        assert!(frames[15].batch && frames[15].items == (30..46));
        assert!(frames[7].bytes.starts_with(b"BATCH 16\n"));
        // The plan depends on the stream position, not the chunk.
        let tail = plan_frames(&reqs[..23], 23, Some((7, 16)));
        assert_eq!(tail.len(), 8);
        assert!(plan_frames(&reqs, 0, None).iter().all(|f| !f.batch));
    }

    #[test]
    fn a_repeat_that_differs_from_the_first_answer_fails() {
        let mut first = FirstAnswers::default();
        let mut tally = Tally::default();
        let mut r = req(0);
        r.slot = Some(3);
        check_item(&r, b"OK SHW width=1\nTD\n%%\n", &mut first, &mut tally);
        check_item(&r, b"OK SHW width=1\nTD\n%%\n", &mut first, &mut tally);
        assert_eq!((tally.attempted, tally.failed), (2, 0));
        check_item(&r, b"OK SHW width=2\nTD\n%%\n", &mut first, &mut tally);
        check_item(&r, b"BUSY 5\n%%\n", &mut first, &mut tally);
        assert_eq!((tally.attempted, tally.failed), (4, 2));
    }
}
