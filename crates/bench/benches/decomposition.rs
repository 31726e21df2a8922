//! Criterion microbenchmarks for the decomposition machinery: candidate
//! bag generation, bag interning, Algorithm 1 (end to end, and its one pass
//! on prebuilt instances), Algorithm 2's pass under a ranking evaluator,
//! the shw/hw solvers, the top-10 enumeration whose latency Table 1
//! reports ("a few milliseconds"), and the same enumeration over the
//! Soft bags of larger shapes.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use softhw_core::constraints::{concov_exact_filter, Trivial};
use softhw_core::ctd_opt::{best, top_n};
use softhw_core::soft::{cover_bags, soft_bags};
use softhw_core::{candidate_td, hw, shw};
use softhw_hypergraph::named;
use softhw_query::{bind, parse_sql, CostContext, TrueCardCost};
use std::hint::black_box;

fn bench_soft_generation(c: &mut Criterion) {
    let mut g = c.benchmark_group("soft_bags");
    for (name, h, k) in [
        ("H2/k2", named::h2(), 2),
        ("C8/k2", named::cycle(8), 2),
        ("grid3x3/k2", named::grid(3, 3), 2),
    ] {
        g.bench_function(BenchmarkId::from_parameter(name), |b| {
            b.iter(|| black_box(soft_bags(&h, k)))
        });
    }
    g.finish();
}

fn bench_soft_arena_vs_reference(c: &mut Criterion) {
    // The acceptance gate of the arena refactor: candidate enumeration on
    // the named paper instances via the interned-bag path vs the seed's
    // FxHashSet<BitSet> path (preserved verbatim in soft::reference).
    //
    // "arena-warm" is the configuration the solvers actually run: one
    // BlockIndex shared across calls (the shw width sweep reuses it at
    // every k), id-level output. "arena-cold" pays a fresh index per
    // call. The warm path is expected to be >= 2x faster than the
    // reference on every instance; cold is still well ahead.
    use softhw_core::soft::{reference, soft_bag_ids, SoftLimits};
    use softhw_hypergraph::BlockIndex;
    let mut g = c.benchmark_group("soft_enumeration");
    let limits = SoftLimits::default();
    for (name, h, k) in [
        ("H2/k2", named::h2(), 2),
        ("H2/k3", named::h2(), 3),
        ("C8/k2", named::cycle(8), 2),
        ("grid3x3/k2", named::grid(3, 3), 2),
        ("tstar4/k2", named::triangle_star(4), 2),
    ] {
        let mut warm = BlockIndex::new(&h);
        let expected = soft_bag_ids(&mut warm, k, &limits).unwrap().len();
        g.bench_function(BenchmarkId::new("arena-warm", name), |b| {
            b.iter(|| {
                let n = soft_bag_ids(&mut warm, k, &limits).unwrap().len();
                assert_eq!(n, expected);
                black_box(n)
            })
        });
        g.bench_function(BenchmarkId::new("arena-cold", name), |b| {
            b.iter(|| {
                let mut index = BlockIndex::new(&h);
                black_box(soft_bag_ids(&mut index, k, &limits).unwrap().len())
            })
        });
        g.bench_function(BenchmarkId::new("reference", name), |b| {
            b.iter(|| black_box(reference::soft_bags_with(&h, k, &limits).unwrap().len()))
        });
    }
    // Cold alone on the 10x10 grid: a walk large enough that its block
    // rows, not its bags, would fill an arena that interned components.
    let grid = named::grid(10, 10);
    g.bench_function(BenchmarkId::new("arena-cold", "grid10x10/k2"), |b| {
        b.iter(|| {
            let mut index = BlockIndex::new(&grid);
            black_box(soft_bag_ids(&mut index, 2, &limits).unwrap().len())
        })
    });
    g.finish();
}

fn bench_arena_intern(c: &mut Criterion) {
    // The bag interner's probe cost: every `k = 2` separator of the
    // 20x20 grid (the vertex set of each λ of at most two edges), interned
    // into a fresh arena in the order the soft-bag sweep meets them.
    use softhw_hypergraph::arena::words_union_into;
    use softhw_hypergraph::BagArena;
    let h = named::grid(20, 20);
    let m = h.num_edges();
    let pairs = (0..m).flat_map(|i| (i..m).map(move |j| (i, j)));
    let rows: Vec<Vec<u64>> = pairs
        .map(|(i, j)| {
            let mut row = h.edge(i).blocks().to_vec();
            words_union_into(h.edge(j).blocks(), &mut row);
            row
        })
        .collect();
    let mut g = c.benchmark_group("arena");
    g.bench_function("intern", |b| {
        b.iter(|| {
            let mut arena = BagArena::new(h.num_vertices());
            for row in &rows {
                black_box(arena.intern_words(row));
            }
            arena.len()
        })
    });
    g.finish();
}

fn bench_algorithm1(c: &mut Criterion) {
    let mut g = c.benchmark_group("algorithm1");
    for (name, h, k) in [("H2/k2", named::h2(), 2), ("C8/k2", named::cycle(8), 2)] {
        let bags = soft_bags(&h, k);
        g.bench_function(BenchmarkId::from_parameter(name), |b| {
            b.iter(|| black_box(candidate_td(&h, &bags)))
        });
    }
    g.finish();
}

fn bench_width_solvers(c: &mut Criterion) {
    let mut g = c.benchmark_group("width_solvers");
    let h2 = named::h2();
    g.bench_function("shw(H2)", |b| b.iter(|| black_box(shw::shw(&h2).0)));
    g.bench_function("hw(H2)", |b| b.iter(|| black_box(hw::hw(&h2).0)));
    let c8 = named::cycle(8);
    g.bench_function("shw(C8)", |b| b.iter(|| black_box(shw::shw(&c8).0)));
    g.bench_function("hw(C8)", |b| b.iter(|| black_box(hw::hw(&c8).0)));
    g.finish();
}

fn bench_table1_top10(c: &mut Criterion) {
    // The Table 1 "time to produce top-10 best TDs" measurement, on the
    // same candidate sets the paper's prototype enumerates. Cost
    // acquisition (true bag cardinalities — the paper's separate DBMS
    // round-trip) is pre-warmed outside the measurement, as in the
    // `table1` binary.
    let mut g = c.benchmark_group("table1_top10");
    for (name, sql, k) in softhw_workloads::queries::all_queries() {
        let db = softhw_workloads::database_for(name, 42);
        let cq = bind(&parse_sql(sql).expect("fixed"), &db).expect("schema");
        let h = cq.hypergraph();
        let atoms = softhw_query::atom_relations(&cq, &db);
        let bags = concov_exact_filter(&h, k, &cover_bags(&h, k, true));
        let cx = CostContext::new(&cq, &h, &atoms, &db);
        for bag in &bags {
            let _ = cx.cover(bag);
            let _ = cx.true_bag_size(bag);
        }
        let eval = TrueCardCost { cx: &cx };
        g.bench_function(BenchmarkId::from_parameter(name), |b| {
            b.iter(|| black_box(top_n(&h, &bags, &eval, 10).len()))
        });
    }
    g.finish();
}

fn bench_top_n(c: &mut Criterion) {
    // Ranked enumeration alone, the ten cheapest CTDs by total bag size
    // over the Soft bags: each block's list of derivations is built once,
    // so H2 at k = 3 (682 blocks, 1.6e10 CTDs) finishes.
    use softhw_core::constraints::BagCost;
    use softhw_hypergraph::BitSet;
    let mut g = c.benchmark_group("top_n");
    let size = BagCost::new(|bag: &BitSet| bag.len() as f64);
    for (name, h, k) in [
        ("H2/k2", named::h2(), 2),
        ("grid3x3/k2", named::grid(3, 3), 2),
        ("H2/k3", named::h2(), 3),
    ] {
        let bags = soft_bags(&h, k);
        g.bench_function(BenchmarkId::from_parameter(name), |b| {
            b.iter(|| black_box(top_n(&h, &bags, &size, 10).len()))
        });
    }
    g.finish();
}

fn bench_constrained_best(c: &mut Criterion) {
    let mut g = c.benchmark_group("algorithm2_best");
    let c5 = named::cycle(5);
    let bags = soft_bags(&c5, 3);
    let cc = concov_exact_filter(&c5, 3, &bags);
    g.bench_function("C5/ConCov/k3", |b| {
        b.iter(|| black_box(best(&c5, &cc, &Trivial).is_some()))
    });
    g.finish();
}

fn bench_satisfy(c: &mut Criterion) {
    // Algorithm 1's one pass alone, on instances built once: a 14-edge
    // shape of the cold serving family (as many vertices, 2-3 vertices an
    // edge) at k = 3, where components are shared by several blocks, and
    // the 10x10 grid at k = 2, where most components belong to one block.
    use softhw_core::ctd::CtdInstance;
    use softhw_core::soft::{soft_bag_ids, SoftLimits};
    use softhw_hypergraph::random::{random_hypergraph, RandomConfig};
    use softhw_hypergraph::BlockIndex;
    let cold = RandomConfig {
        num_vertices: 14,
        num_edges: 14,
        min_arity: 2,
        max_arity: 3,
        connect: true,
    };
    let mut g = c.benchmark_group("satisfy");
    for (name, h, k) in [
        ("cold14/k3", random_hypergraph(&cold, 14), 3),
        ("grid10x10/k2", named::grid(10, 10), 2),
    ] {
        let mut index = BlockIndex::new(&h);
        let ids = soft_bag_ids(&mut index, k, &SoftLimits::default()).unwrap();
        let inst = CtdInstance::build(&mut index, &ids);
        g.bench_function(BenchmarkId::from_parameter(name), |b| {
            b.iter(|| black_box(inst.satisfy().accept))
        });
    }
    g.finish();
}

fn bench_best_shallow(c: &mut Criterion) {
    // Algorithm 2's pass under an evaluator that ranks, `ShallowCyc { d: 1 }`,
    // on instances built once: the 6x6 grid at k = 2, and the 14-edge shape
    // of the cold serving family of `bench_satisfy` at k = 3.
    use softhw_core::constraints::ShallowCyc;
    use softhw_core::ctd::CtdInstance;
    use softhw_core::ctd_opt::best_on;
    use softhw_hypergraph::random::{random_hypergraph, RandomConfig};
    let cold = RandomConfig {
        num_vertices: 14,
        num_edges: 14,
        min_arity: 2,
        max_arity: 3,
        connect: true,
    };
    let mut g = c.benchmark_group("best_shallow");
    for (name, h, k) in [
        ("grid6x6/k2", named::grid(6, 6), 2),
        ("cold14/k3", random_hypergraph(&cold, 14), 3),
    ] {
        let inst = CtdInstance::new(&h, &soft_bags(&h, k));
        g.bench_function(BenchmarkId::from_parameter(name), |b| {
            b.iter(|| black_box(best_on(&inst, &ShallowCyc { d: 1 }).is_some()))
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_soft_generation,
    bench_soft_arena_vs_reference,
    bench_arena_intern,
    bench_algorithm1,
    bench_satisfy,
    bench_best_shallow,
    bench_width_solvers,
    bench_table1_top10,
    bench_top_n,
    bench_constrained_best
);
criterion_main!(benches);
