//! The four workloads. Each `why` is also recorded in `BENCHMARK.json`.

use crate::gen::{shuffle, Class, Req, Rng, Schema, Shape, Stream, Zipf, PAPER_SQL};
use crate::proc::{bin_dir, run_cli, TempFile};
use crate::refkernel;
use crate::report::{RunResult, Tally};
use crate::serve::ServeWorkload;
use crate::stats::median;
use crate::trace::{self, Tracer};
use crate::Mode;
use softhw_core::soft::{soft_bag_ids, SoftLimits};
use softhw_core::CtdInstance;
use softhw_hypergraph::{named, parse_hypergraph, render_hypergraph, structural_hash, BlockIndex};
use std::io;
use std::time::Instant;

pub const NAMES: [&str; 4] = [
    "serve_warm",
    "serve_cold",
    "serve_mixed_store",
    "solve_hb_k2",
];

pub fn why(name: &str) -> &'static str {
    match name {
        "serve_warm" => "lockstep repeats over 64 pre-answered schemas x 5 classes: fits every cache, so service + parse/hash do all the work and core none",
        "serve_cold" => "lockstep, every request a never-seen 12-16-edge schema: larger than every cache, so core + hypergraph do the work and LRU eviction churns",
        "serve_mixed_store" => "window 16 + BATCH 16 with --store: Zipf hot set that starts cold plus 20% never-seen schemas, so caches and the store are written beside reads",
        "solve_hb_k2" => "softhw-cli child on the 20x20 HyperBench grid at width 2: one large negative decision, no service, cache or extraction (the seed does not alter this input)",
        _ => "",
    }
}

// Stream tags keep the seeded choices of different streams independent.
const TAG_WARM_SET: u64 = 1;
const TAG_WARM: u64 = 2;
const TAG_COLD: u64 = 3;
const TAG_COLD_ORDER: u64 = 4;
const TAG_COLD_WARM_UP: u64 = 5;
const TAG_HOT_SET: u64 = 6;
const TAG_MIXED: u64 = 7;
const TAG_MIXED_WARM_UP: u64 = 8;

// Shape pools (the same for every seed, see `Shape::pool`).
const POOL_WARM: u64 = 1;
const POOL_COLD: u64 = 2;
const POOL_COLD_CLASS: u64 = 3;
const POOL_HOT: u64 = 4;
const POOL_SMALL: u64 = 5;

/// SHW : SHW_LEQ 2 : HW : BEST concov 2 : STATS.
const WARM_MIX: [u64; 5] = [4, 2, 2, 1, 1];
const COLD_MIX: [u64; 5] = [6, 2, 1, 1, 0];

pub struct ServeWarm;

struct WarmStream {
    seed: u64,
    set: Vec<Schema>,
}

impl WarmStream {
    fn new(seed: u64) -> WarmStream {
        let mut set: Vec<Schema> = [
            named::h2(),
            named::cycle(4),
            named::cycle(6),
            named::cycle(8),
            named::grid(3, 3),
            named::triangle_star(3),
            named::four_cycle_query(),
            named::example4_query().0,
        ]
        .iter()
        .map(|h| Schema {
            body: render_hypergraph(h).into(),
            sql: false,
        })
        .collect();
        set.extend(PAPER_SQL.iter().map(|q| Schema {
            body: (*q).into(),
            sql: true,
        }));
        let shapes = Shape::pool(POOL_WARM, 50, &[10]);
        set.extend(
            shapes
                .iter()
                .enumerate()
                .map(|(j, shape)| shape.named(&mut Rng::keyed(seed, TAG_WARM_SET, j as u64))),
        );
        WarmStream { seed, set }
    }
}

impl Stream for WarmStream {
    fn req(&self, i: u64) -> Req {
        let mut rng = Rng::keyed(self.seed, TAG_WARM, i);
        let slot = rng.below(self.set.len() as u64) as usize;
        Req {
            class: Class::draw(&mut rng, WARM_MIX),
            schema: self.set[slot].clone(),
            slot: Some(slot as u32),
        }
    }

    /// Every (schema, class) is answered once in set-up: 320 answers
    /// against 8 x 1024 result-cache slots.
    fn warm_up(&self) -> Vec<Req> {
        self.set
            .iter()
            .enumerate()
            .flat_map(|(slot, schema)| {
                Class::ALL.into_iter().map(move |class| Req {
                    class,
                    schema: schema.clone(),
                    slot: Some(slot as u32),
                })
            })
            .collect()
    }
}

impl ServeWorkload for ServeWarm {
    fn name(&self) -> &'static str {
        "serve_warm"
    }

    fn window_items(&self) -> u64 {
        4_096
    }

    fn stream(&self, seed: u64) -> Box<dyn Stream> {
        Box::new(WarmStream::new(seed))
    }

    fn traced_prefix(&self) -> u64 {
        2_000
    }
}

pub struct ServeCold;

/// Shapes in the cold pool: every cycle of this many stream items asks
/// each pool shape exactly once, freshly named and in a fresh order, so
/// all cycles hold the same work.
const COLD_POOL: usize = 256;

struct ColdStream {
    seed: u64,
    /// 12 / 14 / 16 edges at 5 : 3 : 2, each shape with a fixed class.
    pool: Vec<(Shape, Class)>,
}

impl ColdStream {
    fn new(seed: u64) -> ColdStream {
        let pool = Shape::pool(
            POOL_COLD,
            COLD_POOL,
            &[12, 12, 12, 12, 12, 14, 14, 14, 16, 16],
        )
        .into_iter()
        .enumerate()
        .map(|(j, shape)| {
            let class = Class::draw(&mut Rng::keyed(0, POOL_COLD_CLASS, j as u64), COLD_MIX);
            (shape, class)
        })
        .collect();
        ColdStream { seed, pool }
    }

    fn named(&self, j: usize, tag: u64, i: u64) -> Req {
        let (shape, class) = &self.pool[j];
        Req {
            class: *class,
            schema: shape.named(&mut Rng::keyed(self.seed, tag, i)),
            slot: None,
        }
    }
}

impl Stream for ColdStream {
    fn req(&self, i: u64) -> Req {
        let n = self.pool.len() as u64;
        let mut order: Vec<usize> = (0..self.pool.len()).collect();
        shuffle(
            &mut Rng::keyed(self.seed, TAG_COLD_ORDER, i / n),
            &mut order,
        );
        self.named(order[(i % n) as usize], TAG_COLD, i)
    }

    /// A few cold solves so the first timed request does not also pay
    /// for the server's lazy initialisation.
    fn warm_up(&self) -> Vec<Req> {
        (0..32)
            .map(|j| self.named(j, TAG_COLD_WARM_UP, j as u64))
            .collect()
    }
}

impl ServeWorkload for ServeCold {
    fn name(&self) -> &'static str {
        "serve_cold"
    }

    fn window_items(&self) -> u64 {
        64
    }

    fn cycle_items(&self) -> u64 {
        COLD_POOL as u64
    }

    fn server_flags(&self) -> Vec<String> {
        ["--cache", "16", "--result-cache", "64"]
            .map(String::from)
            .to_vec()
    }

    fn stream(&self, seed: u64) -> Box<dyn Stream> {
        Box::new(ColdStream::new(seed))
    }

    fn traced_prefix(&self) -> u64 {
        400
    }
}

pub struct ServeMixedStore;

const HOT_SET: usize = 2_000;

struct MixedStream {
    seed: u64,
    /// The hot set under this seed's naming; Zipf rank = pool index.
    hot: Vec<Schema>,
    /// Shapes the never-seen 20 % are named from.
    small: Vec<Shape>,
    zipf: Zipf,
}

impl MixedStream {
    fn new(seed: u64) -> MixedStream {
        MixedStream {
            seed,
            hot: Shape::pool(POOL_HOT, HOT_SET, &[8, 9, 10])
                .iter()
                .enumerate()
                .map(|(j, shape)| shape.named(&mut Rng::keyed(seed, TAG_HOT_SET, j as u64)))
                .collect(),
            small: Shape::pool(POOL_SMALL, 256, &[8, 9, 10]),
            zipf: Zipf::new(HOT_SET),
        }
    }

    fn never_seen(&self, rng: &mut Rng) -> Req {
        let class = Class::draw(rng, WARM_MIX);
        let shape = &self.small[rng.below(self.small.len() as u64) as usize];
        Req {
            class,
            schema: shape.named(rng),
            slot: None,
        }
    }
}

impl Stream for MixedStream {
    fn req(&self, i: u64) -> Req {
        let mut rng = Rng::keyed(self.seed, TAG_MIXED, i);
        // 80 % hot (schema and class drawn independently), 20 % never seen.
        if rng.below(5) < 4 {
            let slot = self.zipf.draw(&mut rng);
            Req {
                class: Class::draw(&mut rng, WARM_MIX),
                schema: self.hot[slot].clone(),
                slot: Some(slot as u32),
            }
        } else {
            self.never_seen(&mut rng)
        }
    }

    /// The hot set starts cold; a few throw-away schemas only take the
    /// server's (and the store's) lazy initialisation off the clock.
    fn warm_up(&self) -> Vec<Req> {
        (0..64)
            .map(|i| self.never_seen(&mut Rng::keyed(self.seed, TAG_MIXED_WARM_UP, i)))
            .collect()
    }
}

impl ServeWorkload for ServeMixedStore {
    fn name(&self) -> &'static str {
        "serve_mixed_store"
    }

    fn uses_store(&self) -> bool {
        true
    }

    fn window(&self) -> usize {
        16
    }

    fn batch(&self) -> Option<(u64, u64)> {
        Some((7, 16))
    }

    /// 30 periods of 7 single frames + one BATCH 16.
    fn window_items(&self) -> u64 {
        690
    }

    fn stream(&self, seed: u64) -> Box<dyn Stream> {
        Box::new(MixedStream::new(seed))
    }

    fn traced_prefix(&self) -> u64 {
        1_000
    }
}

pub fn serving(name: &str) -> Option<Box<dyn ServeWorkload>> {
    match name {
        "serve_warm" => Some(Box::new(ServeWarm)),
        "serve_cold" => Some(Box::new(ServeCold)),
        "serve_mixed_store" => Some(Box::new(ServeMixedStore)),
        _ => None,
    }
}

/// Side of the grid `solve_hb_k2` decides. The repository's HyperBench
/// instance is the 24x24 member of this family (one solve ≈ 30 s); the
/// 20x20 member runs the same code on |Soft_2| ≈ 3 x 10^5 bags in ≈ 8 s,
/// which lets a run of the contract's length hold a median of three.
const GRID_SIDE: usize = 20;

fn grid_instance() -> io::Result<TempFile> {
    let file = TempFile::new("grid", "hg");
    std::fs::write(
        &file.0,
        render_hypergraph(&named::grid(GRID_SIDE, GRID_SIDE)),
    )?;
    Ok(file)
}

/// One child solve; returns `(wall seconds, wall corrected for the
/// box's slowness, ru_maxrss MiB)`.
fn solve_once(path: &str, tally: &mut Tally) -> io::Result<(f64, f64, f64)> {
    let run = run_cli(&[path, "--width", "2"])?;
    tally.attempted += 1;
    if run.exit_code != Some(1) || !run.stdout.contains("shw <= 2: no") {
        tally.fail(format!(
            "softhw-cli exited {:?} saying {:?}; the grid must be rejected at width 2",
            run.exit_code,
            run.stdout.trim()
        ));
    }
    Ok((run.wall_s, run.corrected_s, run.maxrss_mb))
}

fn solve_setup(reps: usize) -> io::Result<(TempFile, f64)> {
    let mut times = Vec::new();
    let mut file = None;
    for _ in 0..reps {
        drop(file.take());
        let before = refkernel::probe();
        let t = Instant::now();
        let f = grid_instance()?;
        // Pages the binary in, so the first timed solve is not charged for it.
        std::process::Command::new(bin_dir().join("softhw-cli"))
            .args([&f.path_str(), "--stats"])
            .output()?;
        let took = t.elapsed().as_secs_f64();
        times.push(took / refkernel::slowness(before, refkernel::probe()));
        file = Some(f);
    }
    Ok((file.expect("at least one set-up"), median(&times)))
}

pub fn solve_timed(mode: &Mode) -> io::Result<RunResult> {
    let (file, setup_s) = solve_setup(mode.setup_reps)?;
    let path = file.path_str();
    let mut tally = Tally::default();
    let (mut raw, mut walls, mut rss) = (Vec::new(), Vec::new(), Vec::new());
    let started = Instant::now();
    while walls.is_empty() || started.elapsed() < mode.window {
        let (wall, corrected, mb) = solve_once(&path, &mut tally)?;
        raw.push(wall);
        walls.push(corrected);
        rss.push(mb);
    }
    let n = walls.len();
    let wall = median(&walls);
    let worst = walls.iter().copied().fold(0.0, f64::max);
    let mut result = RunResult::new("solve_hb_k2", tally);
    result.push("setup_s", setup_s, mode.setup_reps);
    result.push("req_per_s", 1.0 / wall, n);
    result.push("p50_us", wall * 1e6, n);
    // With a handful of solves per run the slowest one is the tail.
    result.push("p99_us", worst * 1e6, n);
    result.push("peak_rss_mb", median(&rss), n);
    result.info.push(format!(
        "{n} child solves; uncorrected median {:.3} s",
        median(&raw)
    ));
    Ok(result)
}

/// The traced pass: one child solve for the end-to-end figure, then the
/// same decision in-process, layer by layer, as often as time allows.
pub fn solve_traced(mode: &Mode) -> io::Result<RunResult> {
    use crate::layers::span;
    let (file, _) = solve_setup(1)?;
    let mut tally = Tally::default();
    let (child_s, _, _) = solve_once(&file.path_str(), &mut tally)?;
    let text = std::fs::read_to_string(&file.0)?;
    let mut tr = Tracer::new();
    let (mut bags, mut blocks) = (0u64, 0u64);
    let started = Instant::now();
    let mut rounds = 0u64;
    let mut probes = vec![refkernel::probe()];
    while rounds == 0
        || started.elapsed() + std::time::Duration::from_secs_f64(child_s) < mode.window
    {
        tr.set_request(rounds);
        let accept = tr.scope("request", |tr| -> Result<bool, String> {
            let h = tr
                .scope(span::PARSE, |_| parse_hypergraph(&text))
                .map_err(|e| e.message.to_string())?;
            std::hint::black_box(tr.scope(span::HASH, |_| structural_hash(&h)));
            let mut index = tr.scope(span::INDEX_BUILD, |_| BlockIndex::new(&h));
            let ids = tr
                .scope(span::ENUMERATE, |_| {
                    soft_bag_ids(&mut index, 2, &SoftLimits::default())
                })
                .map_err(|e| format!("{e:?}"))?;
            let inst = tr.scope(span::INSTANCE_BUILD, |_| {
                CtdInstance::build(&mut index, &ids)
            });
            let sat = tr.scope(span::SATISFY, |_| inst.satisfy());
            (bags, blocks) = (ids.len() as u64, inst.blocks.len() as u64);
            Ok(sat.accept)
        });
        tally.attempted += 1;
        if accept != Ok(false) {
            tally.fail(format!(
                "in-process decision: {accept:?}, expected a rejection"
            ));
        }
        rounds += 1;
        probes.push(refkernel::probe());
    }
    let (slowness, intervals) = refkernel::median_slowness(&probes);
    let by_span = trace::per_request_self_us(tr.spans());
    let mut result = RunResult::new("solve_hb_k2", tally);
    let mut layer_sum_us = 0.0;
    for (name, us) in &by_span {
        if *name != "request" {
            layer_sum_us += median(us);
            result.push(&format!("{name}_us"), median(us), us.len());
        }
    }
    let n = rounds as usize;
    result.push("core.enumerate_bags", bags as f64, n);
    result.push("core.instance_blocks", blocks as f64, n);
    // What the child's wall clock holds beyond the six layer calls:
    // process start, reading the file, and tearing the tables down.
    result.push(
        "ledger.unattributed_pct",
        (1.0 - layer_sum_us / (child_s * 1e6)) * 100.0,
        n,
    );
    result.push("box.slowness", slowness, intervals);
    result.push("e2e.child_solve_s", child_s, 1);
    result.push("replay.layer_sum_us", layer_sum_us, n);
    result.push("check.traced_requests", rounds as f64, 1);
    result.push("check.spans", tr.spans().len() as f64, 1);
    let trace_path = crate::proc::out_dir().join("trace-solve_hb_k2.jsonl");
    trace::write_jsonl(tr.spans(), &trace_path)?;
    result.info.push(format!(
        "child solve {child_s:.3} s; {rounds} in-process rounds; spans in {}",
        trace_path.display()
    ));
    Ok(result)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::stream_digest;

    #[test]
    fn a_seed_fixes_the_request_stream_and_another_seed_changes_it() {
        for name in ["serve_warm", "serve_cold", "serve_mixed_store"] {
            let w = serving(name).expect("a serving workload");
            let digest = |seed| stream_digest(&*w.stream(seed), 600);
            assert_eq!(digest(11), digest(11), "{name}: same seed, same bytes");
            assert_ne!(digest(11), digest(12), "{name}: another seed, other bytes");
        }
    }

    #[test]
    fn request_i_does_not_depend_on_what_was_asked_before() {
        let w = serving("serve_mixed_store").expect("a serving workload");
        let (a, b) = (w.stream(5), w.stream(5));
        for i in (0..500).rev() {
            b.req(i);
        }
        assert_eq!(a.req(123).frame(), b.req(123).frame());
    }

    #[test]
    fn every_cold_cycle_asks_every_pool_shape_once() {
        let s = ColdStream::new(3);
        for cycle in 0..2u64 {
            let mut classes = [0usize; 5];
            let mut edges = Vec::new();
            for i in cycle * COLD_POOL as u64..(cycle + 1) * COLD_POOL as u64 {
                let r = s.req(i);
                classes[r.class.index()] += 1;
                edges.push(r.schema.body.lines().count());
            }
            edges.sort_unstable();
            let mut pool: Vec<usize> = s
                .pool
                .iter()
                .map(|(shape, _)| shape.named(&mut Rng::keyed(0, 0, 0)).body.lines().count())
                .collect();
            pool.sort_unstable();
            assert_eq!(edges, pool, "cycle {cycle}");
            // 6 : 2 : 1 : 1 within sampling noise, and never STATS.
            assert!(classes[0] > 120 && classes[4] == 0, "{classes:?}");
        }
    }

    #[test]
    fn ports_are_never_fixed() {
        // Servers are only ever spawned through `ServerProc::spawn`,
        // which always passes `--addr 127.0.0.1:0`; no workload may add
        // an address of its own.
        for name in ["serve_warm", "serve_cold", "serve_mixed_store"] {
            let flags = serving(name).expect("a serving workload").server_flags();
            assert!(!flags.iter().any(|f| f == "--addr"), "{name}: {flags:?}");
        }
    }
}
