//! Emits a machine-readable performance baseline (`BENCH_pr3.json` by
//! default, first CLI arg overrides) covering the decomposition and
//! engine hot paths on the named paper instances, so future PRs have a
//! perf trajectory to compare against.
//!
//! Flags:
//! - `--quick`: fewer samples and shorter calibration (the CI smoke
//!   configuration);
//! - `--hyperbench <dir>`: additionally parse every HyperBench-format
//!   file in `dir` ([`softhw_hypergraph::parse`]) and time candidate
//!   enumeration plus the worklist satisfaction DP at `k = 1` on it —
//!   the 1k+-edge validation of the arena/worklist path;
//! - `--hyperbench-k2`: on top of `--hyperbench`, run the `k = 2`
//!   configuration per file — the reduction pipeline (`reduce/*`),
//!   candidate enumeration and the satisfaction DP over the ~10^6-bag
//!   `Soft_2` space (`hb_soft_enum_k2`/`hb_satisfy_k2`), and one
//!   end-to-end `shw ≤ 2` decision from a cold index (`hb_shw_k2`).
//!   Separate flag because these rows add minutes of wall time;
//! - `--check <baseline.json>`: after writing, gate against the given
//!   baseline: every gate entry present in both runs
//!   (`algorithm1_cold/h2_k2`, `sweep/h2`, the `hb_*_k2` rows; the
//!   pre-cache seed baseline records the cold gate as
//!   `algorithm1/h2_k2`, baselines up to PR 8 record the sweep as
//!   `sweep_cold/h2`) must not have regressed more than 2×. Exits
//!   non-zero on violation.
//!
//! Every entry records the median ns of `samples` timed runs. The
//! `soft_enum_*` triple captures the bag-arena acceptance gate (warm
//! shared-index enumeration vs the seed's `FxHashSet<BitSet>` generator,
//! preserved in `soft::reference`). The `satisfy_*` pair captures the
//! worklist-DP gate: the dependency-driven engine vs the retained Jacobi
//! reference on the same prepared instance. The `sweep/*` rows time the
//! exact width sweep end to end ([`shw::shw_raw`]). `shw_cached/h2`
//! measures the repeated-query configuration (a warm cross-query
//! [`DecompCache`] answering `solve`), `algorithm1_cold/h2_k2` one cold
//! single-shot Algorithm 1 run.

use softhw_core::cache::DecompCache;
use softhw_core::ctd::CtdInstance;
use softhw_core::soft::{self, reference, SoftLimits};
use softhw_core::{hw, shw, SolveSpec};
use softhw_engine::relation::Relation;
use softhw_hypergraph::{named, parse_hypergraph, BlockIndex, Hypergraph};
use std::fmt::Write as _;
use std::time::Instant;

struct Config {
    out_path: String,
    samples: usize,
    min_sample_ms: u128,
    hyperbench: Option<String>,
    hyperbench_k2: bool,
    check: Option<String>,
}

/// Median ns of `samples` runs of `f` (each run may loop internally).
fn median_ns_cfg<F: FnMut()>(cfg: &Config, mut f: F) -> f64 {
    // Calibrate reps so one sample is >= ~min_sample_ms.
    let mut reps = 1usize;
    loop {
        let t = Instant::now();
        for _ in 0..reps {
            f();
        }
        if t.elapsed().as_millis() >= cfg.min_sample_ms || reps >= 1 << 22 {
            break;
        }
        reps *= 2;
    }
    let mut samples: Vec<f64> = (0..cfg.samples)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..reps {
                f();
            }
            t.elapsed().as_nanos() as f64 / reps as f64
        })
        .collect();
    samples.sort_by(|a, b| a.total_cmp(b));
    samples[samples.len() / 2]
}

struct Report {
    entries: Vec<(String, f64)>,
}

impl Report {
    fn record(&mut self, id: &str, ns: f64) {
        println!("{id:<44} {ns:>14.1} ns");
        self.entries.push((id.to_string(), ns));
    }

    fn get(&self, id: &str) -> Option<f64> {
        self.entries.iter().find(|(n, _)| n == id).map(|&(_, v)| v)
    }
}

fn named_instances() -> Vec<(&'static str, Hypergraph, usize)> {
    vec![
        ("h2_k2", named::h2(), 2),
        ("h2_k3", named::h2(), 3),
        ("c8_k2", named::cycle(8), 2),
        ("grid3x3_k2", named::grid(3, 3), 2),
        ("tstar4_k2", named::triangle_star(4), 2),
    ]
}

fn bench_decomposition(cfg: &Config, r: &mut Report) {
    let limits = SoftLimits::default();
    for (name, h, k) in named_instances() {
        let mut warm = BlockIndex::new(&h);
        let expected = soft::soft_bag_ids(&mut warm, k, &limits).unwrap().len();
        r.record(
            &format!("soft_enum_warm/{name}"),
            median_ns_cfg(cfg, || {
                assert_eq!(
                    soft::soft_bag_ids(&mut warm, k, &limits).unwrap().len(),
                    expected
                );
            }),
        );
        r.record(
            &format!("soft_enum_cold/{name}"),
            median_ns_cfg(cfg, || {
                let mut index = BlockIndex::new(&h);
                assert_eq!(
                    soft::soft_bag_ids(&mut index, k, &limits).unwrap().len(),
                    expected
                );
            }),
        );
        r.record(
            &format!("soft_enum_reference/{name}"),
            median_ns_cfg(cfg, || {
                assert_eq!(
                    reference::soft_bags_with(&h, k, &limits).unwrap().len(),
                    expected
                );
            }),
        );
    }
    let h2 = named::h2();
    r.record(
        "shw/h2",
        median_ns_cfg(cfg, || {
            assert_eq!(shw::shw(&h2).0, 2);
        }),
    );
    {
        let mut cache = DecompCache::new();
        r.record(
            "shw_cached/h2",
            median_ns_cfg(cfg, || {
                let solved = cache.solve(&h2, &SolveSpec::shw());
                assert_eq!(solved.ok().and_then(|s| s.width()), Some(2));
            }),
        );
    }
    r.record(
        "hw/h2",
        median_ns_cfg(cfg, || {
            assert_eq!(hw::hw(&h2).0, 3);
        }),
    );
    let c8 = named::cycle(8);
    r.record(
        "shw/c8",
        median_ns_cfg(cfg, || {
            assert_eq!(shw::shw(&c8).0, 2);
        }),
    );
    // The exact width sweep, end to end (index build + enumeration +
    // decision per width), on the named instances.
    for (name, h, w) in [
        ("h2", named::h2(), 2usize),
        ("c8", named::cycle(8), 2),
        ("grid3x3", named::grid(3, 3), 2),
    ] {
        r.record(
            &format!("sweep/{name}"),
            median_ns_cfg(cfg, || {
                assert_eq!(shw::shw_raw(&h).0, w);
            }),
        );
    }
    // The satisfaction DP itself, on one prepared instance: the worklist
    // engine vs the retained Jacobi reference.
    let bags = soft::soft_bags(&h2, 2);
    let inst = CtdInstance::new(&h2, &bags);
    r.record(
        "satisfy_worklist/h2_k2",
        median_ns_cfg(cfg, || {
            assert!(inst.satisfy().accept);
        }),
    );
    r.record(
        "satisfy_jacobi/h2_k2",
        median_ns_cfg(cfg, || {
            assert!(inst.satisfy_jacobi().accept);
        }),
    );
    r.record(
        "algorithm1_cold/h2_k2",
        median_ns_cfg(cfg, || {
            assert!(softhw_core::candidate_td(&h2, &bags).is_some());
        }),
    );
}

/// HyperBench-format directory benchmarks: parse, candidate enumeration,
/// and the worklist DP at `k = 1` per file (large instances; one timed
/// run per sample, no calibration loop).
fn bench_hyperbench(cfg: &Config, dir: &str, r: &mut Report) {
    let mut paths: Vec<_> = std::fs::read_dir(dir)
        .unwrap_or_else(|e| panic!("--hyperbench {dir}: {e}"))
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.is_file())
        .collect();
    paths.sort();
    let limits = SoftLimits {
        max_lambda_sets: 4_000_000,
        max_bags: 4_000_000,
    };
    for path in paths {
        let name = path
            .file_stem()
            .and_then(|s| s.to_str())
            .unwrap_or("instance")
            .to_string();
        let text = std::fs::read_to_string(&path).expect("readable instance");
        let h = match parse_hypergraph(&text) {
            Ok(h) => h,
            Err(e) => {
                eprintln!("skipping {name}: {e}");
                continue;
            }
        };
        println!(
            "hyperbench {name}: |V|={} |E|={}",
            h.num_vertices(),
            h.num_edges()
        );
        let samples = cfg.samples.min(3);
        let once = |f: &mut dyn FnMut()| -> f64 {
            let mut ts: Vec<f64> = (0..samples)
                .map(|_| {
                    let t = Instant::now();
                    f();
                    t.elapsed().as_nanos() as f64
                })
                .collect();
            ts.sort_by(|a, b| a.total_cmp(b));
            ts[ts.len() / 2]
        };
        r.record(
            &format!("hb_parse/{name}"),
            once(&mut || {
                assert_eq!(parse_hypergraph(&text).unwrap().num_edges(), h.num_edges());
            }),
        );
        let mut index = BlockIndex::new(&h);
        let bags = match soft::soft_bag_ids(&mut index, 1, &limits) {
            Ok(b) => b,
            Err(e) => {
                eprintln!("skipping enumeration on {name}: {e}");
                continue;
            }
        };
        println!("hyperbench {name}: |Soft_1| = {}", bags.len());
        r.record(
            &format!("hb_soft_enum_k1/{name}"),
            once(&mut || {
                assert_eq!(
                    soft::soft_bag_ids(&mut index, 1, &limits).unwrap().len(),
                    bags.len()
                );
            }),
        );
        let inst = CtdInstance::build(&mut index, &bags);
        println!("hyperbench {name}: blocks = {} (k = 1)", inst.blocks.len());
        let accept = inst.satisfy().accept;
        r.record(
            &format!("hb_satisfy_k1/{name}"),
            once(&mut || {
                assert_eq!(inst.satisfy().accept, accept);
            }),
        );
        if !cfg.hyperbench_k2 {
            continue;
        }
        // The reduce-before-solve front door: the full simplification
        // pipeline (subsumption + peeling + splitting) on the raw input.
        r.record(
            &format!("reduce/{name}"),
            once(&mut || {
                assert!(!softhw_hypergraph::reduce(&h).pieces.is_empty());
            }),
        );
        // k = 2 over the same shared index (the k = 1 cache warms it, as
        // in a real width sweep). The cold enumeration below is the
        // setup; the timed row is the warm re-enumeration, mirroring
        // `hb_soft_enum_k1`.
        let bags2 = match soft::soft_bag_ids(&mut index, 2, &limits) {
            Ok(b) => b,
            Err(e) => {
                eprintln!("skipping k = 2 on {name}: {e}");
                continue;
            }
        };
        println!("hyperbench {name}: |Soft_2| = {}", bags2.len());
        r.record(
            &format!("hb_soft_enum_k2/{name}"),
            once(&mut || {
                assert_eq!(
                    soft::soft_bag_ids(&mut index, 2, &limits).unwrap().len(),
                    bags2.len()
                );
            }),
        );
        let inst2 = CtdInstance::build(&mut index, &bags2);
        println!("hyperbench {name}: blocks = {} (k = 2)", inst2.blocks.len());
        let accept2 = inst2.satisfy().accept;
        println!("hyperbench {name}: shw <= 2: {accept2}");
        r.record(
            &format!("hb_satisfy_k2/{name}"),
            once(&mut || {
                assert_eq!(inst2.satisfy().accept, accept2);
            }),
        );
        // One end-to-end `shw(H) <= 2` decision from a cold index —
        // enumeration + instance build + DP, the number a single-shot
        // caller pays. One sample: the phases above already bound the
        // variance, and a cold run costs tens of seconds.
        let t = Instant::now();
        let decided = shw::shw_leq_with(&h, 2, &limits)
            .expect("k = 2 within limits")
            .is_some();
        let e2e_ns = t.elapsed().as_nanos() as f64;
        assert_eq!(decided, accept2);
        r.record(&format!("hb_shw_k2/{name}"), e2e_ns);
    }
}

fn chain_relation(n: u64, offset: u64) -> Relation {
    Relation::from_rows(vec![0, 1], (0..n).map(|i| vec![i, (i + offset) % n]))
}

fn bench_engine(cfg: &Config, r: &mut Report) {
    let a = chain_relation(10_000, 1);
    let b = Relation::from_rows(
        vec![1, 2],
        (0..10_000u64).map(|i| vec![i, (i + 2) % 10_000]),
    );
    r.record(
        "engine/natural_join_10k",
        median_ns_cfg(cfg, || {
            assert!(!a.natural_join(&b).is_empty());
        }),
    );
    r.record(
        "engine/semijoin_10k",
        median_ns_cfg(cfg, || {
            assert!(!a.semijoin(&b).is_empty());
        }),
    );
    let scale = softhw_workloads::hetionet::HetionetScale {
        nodes: 300,
        edges_per_relation: 1_500,
    };
    let db = softhw_workloads::hetionet::generate(&scale, 42);
    let cq = softhw_query::bind(
        &softhw_query::parse_sql(softhw_workloads::queries::Q_HTO3).expect("fixed"),
        &db,
    )
    .expect("schema");
    let h = cq.hypergraph();
    let atoms = softhw_query::atom_relations(&cq, &db);
    let (_, td) = shw::shw(&h);
    let plan = softhw_query::build_plan(&cq, &h, &td).expect("plannable");
    r.record(
        "engine/yannakakis_q_hto3_small",
        median_ns_cfg(cfg, || {
            let _ = softhw_query::execute(&cq, &atoms, &plan).value;
        }),
    );
}

/// Reads `"name": <float>` entries out of a baseline JSON file emitted by
/// this binary (shared parser in the bench lib).
fn parse_baseline(path: &str) -> Vec<(String, f64)> {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("--check {path}: {e}"));
    softhw_bench::parse_baseline_json(&text)
}

/// The regression gates of the CI smoke job: each gate entry present in
/// both the current run and the baseline may not be more than 2× slower
/// than recorded. `algorithm1_cold/h2_k2` is recorded as
/// `algorithm1/h2_k2` in `BENCH_seed.json` (which predates the cached
/// configuration), so that gate accepts either baseline name — always
/// comparing cold against cold. That gate is **required**: every
/// committed baseline records it, so a baseline that fails to yield it
/// is corrupt (or mis-selected) and the check errors rather than
/// passing vacuously. The sweep entry only exists from
/// `BENCH_pr3.json` on (as `sweep_cold/h2`, the rebuild-per-width half
/// of what was then a pair), and the `hb_*_k2` entries from
/// `BENCH_pr6.json` on; entries absent from the baseline — or from the current run, for
/// rows behind an off flag — are skipped with a note.
const GATES: [(&str, &[&str], bool); 6] = [
    (
        "algorithm1_cold/h2_k2",
        &["algorithm1_cold/h2_k2", "algorithm1/h2_k2"],
        true, // required in every baseline
    ),
    ("sweep/h2", &["sweep/h2", "sweep_cold/h2"], false),
    // The k = 2 HyperBench rows (from `BENCH_pr6.json` on; only emitted
    // under `--hyperbench-k2`, and skipped with a note in runs without
    // that flag).
    (
        "hb_soft_enum_k2/grid24x24",
        &["hb_soft_enum_k2/grid24x24"],
        false,
    ),
    (
        "hb_satisfy_k2/grid24x24",
        &["hb_satisfy_k2/grid24x24"],
        false,
    ),
    (
        "hb_soft_enum_k2/rand1200",
        &["hb_soft_enum_k2/rand1200"],
        false,
    ),
    ("hb_satisfy_k2/rand1200", &["hb_satisfy_k2/rand1200"], false),
];
const GATE_FACTOR: f64 = 2.0;

fn check_against(baseline_path: &str, r: &Report) -> Result<(), String> {
    let baseline = parse_baseline(baseline_path);
    for (current_name, baseline_names, required) in GATES {
        let Some(new) = r.get(current_name) else {
            if required {
                return Err(format!("current run lacks {current_name}"));
            }
            // Optional rows only exist in some configurations (e.g. the
            // k = 2 HyperBench rows need `--hyperbench-k2`).
            println!("check {current_name}: not in current run, skipped");
            continue;
        };
        let Some((old_name, old)) = baseline_names.iter().find_map(|name| {
            baseline
                .iter()
                .find(|(n, _)| n == name)
                .map(|&(_, v)| (*name, v))
        }) else {
            if required {
                return Err(format!(
                    "baseline {baseline_path} lacks required gate {current_name} — corrupt or wrong file?"
                ));
            }
            println!("check {current_name}: not in baseline {baseline_path}, skipped");
            continue;
        };
        println!(
            "check {current_name}: {new:.1} ns vs baseline {old_name} {old:.1} ns ({:.2}x)",
            old / new
        );
        if new > old * GATE_FACTOR {
            return Err(format!(
                "{current_name} regressed: {new:.1} ns > {GATE_FACTOR}x baseline {old:.1} ns"
            ));
        }
    }
    Ok(())
}

fn parse_args() -> Config {
    let mut cfg = Config {
        out_path: "BENCH_pr3.json".to_string(),
        samples: 9,
        min_sample_ms: 5,
        hyperbench: None,
        hyperbench_k2: false,
        check: None,
    };
    let mut out_path_set = false;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--quick" => {
                cfg.samples = 3;
                cfg.min_sample_ms = 2;
            }
            "--hyperbench" => {
                cfg.hyperbench = Some(args.next().expect("--hyperbench needs a directory"));
            }
            "--hyperbench-k2" => {
                cfg.hyperbench_k2 = true;
            }
            "--check" => {
                cfg.check = Some(args.next().expect("--check needs a baseline file"));
            }
            other if other.starts_with('-') => {
                // A typo'd flag must not silently become the output path
                // (it would clobber the committed baseline).
                eprintln!("unknown flag {other}; expected --quick, --hyperbench <dir>, --hyperbench-k2, --check <baseline>, or an output path");
                std::process::exit(2);
            }
            other => {
                if out_path_set {
                    eprintln!("output path given twice: {} and {other}", cfg.out_path);
                    std::process::exit(2);
                }
                out_path_set = true;
                cfg.out_path = other.to_string();
            }
        }
    }
    cfg
}

fn main() {
    let cfg = parse_args();
    let mut r = Report {
        entries: Vec::new(),
    };
    bench_decomposition(&cfg, &mut r);
    bench_engine(&cfg, &mut r);
    if let Some(dir) = cfg.hyperbench.clone() {
        bench_hyperbench(&cfg, &dir, &mut r);
    }

    // Aggregate speedups per instance (the arena acceptance metric).
    let mut speedups: Vec<(String, f64)> = Vec::new();
    for (name, _, _) in named_instances() {
        if let (Some(warm), Some(reference)) = (
            r.get(&format!("soft_enum_warm/{name}")),
            r.get(&format!("soft_enum_reference/{name}")),
        ) {
            speedups.push((name.to_string(), reference / warm));
        }
    }
    let dp_speedup = match (
        r.get("satisfy_jacobi/h2_k2"),
        r.get("satisfy_worklist/h2_k2"),
    ) {
        (Some(j), Some(w)) => j / w,
        _ => 0.0,
    };

    let mut json = String::from("{\n  \"benchmarks\": {\n");
    for (i, (id, ns)) in r.entries.iter().enumerate() {
        let sep = if i + 1 == r.entries.len() { "" } else { "," };
        let _ = writeln!(json, "    \"{id}\": {ns:.1}{sep}");
    }
    json.push_str("  },\n  \"speedup_warm_vs_reference\": {\n");
    for (i, (name, ratio)) in speedups.iter().enumerate() {
        let sep = if i + 1 == speedups.len() { "" } else { "," };
        let _ = writeln!(json, "    \"{name}\": {ratio:.2}{sep}");
    }
    json.push_str("  },\n");
    let _ = writeln!(json, "  \"speedup_worklist_vs_jacobi\": {dp_speedup:.2},");
    json.push_str("  \"unit\": \"median_ns\"\n}\n");
    std::fs::write(&cfg.out_path, &json).expect("write baseline file");
    println!("\nwrote {}", cfg.out_path);
    for (name, ratio) in &speedups {
        println!("speedup {name}: {ratio:.2}x");
    }
    println!("speedup worklist vs jacobi: {dp_speedup:.2}x");

    if let Some(baseline) = &cfg.check {
        if let Err(msg) = check_against(baseline, &r) {
            eprintln!("BENCH CHECK FAILED: {msg}");
            std::process::exit(1);
        }
        println!("bench check passed against {baseline}");
    }
}
