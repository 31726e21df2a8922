//! Property tests for the one-pass satisfaction DP and the
//! decomposition cache: on random hypergraphs and chorded grids, the
//! pass must agree **block for block** — bases and timestamps, not just
//! accept/reject — with the retained Jacobi reference; the viable
//! candidates a pass reads must match the first-principles basis
//! predicate, and the lemma that lets it skip the coverage test must
//! hold; an instance whose build releases the index it was
//! handed must be the one a build on a borrowed index makes; and the
//! cross-query decomposition cache must return
//! exactly what cold runs return, whatever was asked of it before — and
//! in the edge numbering of the hypergraph that was passed in, however
//! the same edges were listed when the entry was cached.

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use softhw::core::cache::DecompCache;
use softhw::core::ctd::{CtdInstance, ScanStats};
use softhw::core::shw::{shw_leq_indexed_budgeted, soft_instance};
use softhw::core::soft::{soft_bag_ids, soft_bags_with, SoftLimits};
use softhw::core::{solve, Budget, SolveSpec, Solved};
use softhw::hypergraph::arena::{words_card, words_subset, words_union_into};
use softhw::hypergraph::random::{random_hypergraph, RandomConfig};
use softhw::hypergraph::{named, BitSet, BlockIndex, Hypergraph, HypergraphBuilder};

fn small_hypergraph() -> impl Strategy<Value = Hypergraph> {
    (4usize..9, 3usize..9, 0u64..5000).prop_map(|(nv, ne, seed)| {
        random_hypergraph(
            &RandomConfig {
                num_vertices: nv,
                num_edges: ne,
                min_arity: 2,
                max_arity: 3,
                connect: true,
            },
            seed,
        )
    })
}

/// A small grid plus a few random chords: every edge has two vertices,
/// and, as on the HyperBench grids, a separator of `k` edges often has a
/// component next to all of its vertices — `|req|` then equals the
/// largest bag cardinality and the candidate scan takes its short-cut,
/// which it rarely does on [`small_hypergraph`]s.
fn chorded_grid() -> impl Strategy<Value = Hypergraph> {
    (2usize..5, 3usize..5, 0usize..3, 0u64..5000).prop_map(|(rows, cols, chords, seed)| {
        let grid = named::grid(rows, cols);
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut b = HypergraphBuilder::new();
        for e in 0..grid.num_edges() {
            let names: Vec<&str> = grid.edge(e).iter().map(|v| grid.vertex_name(v)).collect();
            b.edge(grid.edge_name(e), &names);
        }
        for c in 0..chords {
            let u = rng.gen_range(0..grid.num_vertices());
            let v = (u + rng.gen_range(1..grid.num_vertices())) % grid.num_vertices();
            b.edge(
                &format!("chord{c}"),
                &[grid.vertex_name(u), grid.vertex_name(v)],
            );
        }
        b.build()
    })
}

/// A random hypergraph that may come out disconnected: a component that
/// is a whole connected part of the hypergraph is shared by its root
/// block and by the blocks headed by bags of the other parts.
fn disconnected_hypergraph() -> impl Strategy<Value = Hypergraph> {
    (6usize..10, 3usize..7, 0u64..5000).prop_map(|(nv, ne, seed)| {
        random_hypergraph(
            &RandomConfig {
                num_vertices: nv,
                num_edges: ne,
                min_arity: 2,
                max_arity: 3,
                connect: false,
            },
            seed,
        )
    })
}

/// `h` with every vertex replaced by `twins` copies of itself in every
/// edge: the same blocks over rows of more words.
fn with_twins(h: &Hypergraph, twins: usize) -> Hypergraph {
    let mut b = HypergraphBuilder::new();
    for v in 0..h.num_vertices() * twins {
        b.vertex(&format!("v{v}"));
    }
    for e in 0..h.num_edges() {
        let copies = h
            .edge(e)
            .iter()
            .flat_map(|v| (0..twins).map(move |t| v * twins + t));
        b.edge_ids(h.edge_name(e), &copies.collect::<Vec<_>>());
    }
    b.build()
}

/// A [`small_hypergraph`] over more than 64 vertices, so every row spans
/// two words or more.
fn wide_hypergraph() -> impl Strategy<Value = Hypergraph> {
    small_hypergraph().prop_map(|h| {
        let twins = 64 / h.num_vertices() + 1;
        with_twins(&h, twins)
    })
}

/// A shape of the cold serving family: 12–16 edges, as many vertices,
/// 2–3 vertices an edge, connected.
fn cold_hypergraph() -> impl Strategy<Value = Hypergraph> {
    (12usize..17, 0u64..5000).prop_map(|(n, seed)| {
        random_hypergraph(
            &RandomConfig {
                num_vertices: n,
                num_edges: n,
                min_arity: 2,
                max_arity: 3,
                connect: true,
            },
            seed,
        )
    })
}

/// Holds the candidate lists of `inst` against first principles: for
/// every block `b`, bag `x` is a viable candidate of `b` iff it is a
/// basis of `b` once every block is satisfied.
fn assert_candidates_match_predicate(inst: &CtdInstance) {
    let all_true = vec![true; inst.blocks.len()];
    let mut buf = Vec::new();
    for b in 0..inst.blocks.len() {
        let viable: Vec<usize> = inst.viable_candidates(b).map(|(x, _)| x).collect();
        let direct: Vec<usize> = (0..inst.num_bags())
            .filter(|&x| inst.is_basis_with(b, x, &all_true, &mut buf))
            .collect();
        assert_eq!(viable, direct, "block {b}");
    }
}

/// [`assert_candidates_match_predicate`], and the child lists against
/// the definition: for every block `b` and bag `x`, the child blocks of
/// `x` are exactly the blocks it heads whose component lies inside `b`'s,
/// listed whenever those complete `b`'s coverage. That is the one way to
/// see what `b`'s own head offers, which no candidate list shows.
fn assert_tables_match_predicate(inst: &CtdInstance) {
    assert_candidates_match_predicate(inst);
    let (mut buf, mut inside) = (Vec::new(), Vec::new());
    for (b, blk) in inst.blocks.iter().enumerate() {
        for (x, children) in inst.viable_candidates(b) {
            assert_eq!(children, inst.child_blocks(b, x), "block {b}, bag {x}");
        }
        let (comp, cover) = (inst.words(blk.comp), inst.words(blk.cover));
        for x in 0..inst.num_bags() {
            let (start, len) = inst.blocks_by_head[x];
            inside.clear();
            inst.load_bag(x, &mut buf);
            for b2 in start..start + len {
                let child = inst.words(inst.blocks[b2 as usize].comp);
                if words_subset(child, comp) {
                    inside.push(b2);
                    words_union_into(child, &mut buf);
                }
            }
            if !words_subset(cover, &buf) {
                inside.clear();
            }
            assert_eq!(inst.child_blocks(b, x), inside, "block {b}, bag {x}");
        }
    }
}

/// Full table equality of the one-pass satisfaction and the Jacobi
/// reference on `h` at width `k`: same accept, same satisfied set, same
/// bases, same timestamps — the pass's waves must replay the Jacobi
/// rounds exactly. The certified decomposition validates.
fn assert_satisfaction_equals_jacobi(h: &Hypergraph, k: usize) {
    let bags = soft_bags_with(h, k, &SoftLimits::default()).unwrap();
    let inst = CtdInstance::new(h, &bags);
    let fast = inst.satisfy();
    assert_eq!(fast, inst.satisfy_jacobi(), "k = {k}");
    if let Some(td) = inst.extract(&fast) {
        assert_eq!(td.validate(h), Ok(()));
        assert!(td.is_comp_nf(h));
    }
}

/// The fixed pool: 24 seeded random hypergraphs of 8 vertices and 7
/// edges, each with its `Soft_{H,k}` instance for `k` 1–3.
fn pool() -> Vec<(u64, usize, CtdInstance)> {
    let mut pool = Vec::new();
    for seed in 0..24u64 {
        let config = RandomConfig {
            num_vertices: 8,
            num_edges: 7,
            min_arity: 2,
            max_arity: 3,
            connect: true,
        };
        let h = random_hypergraph(&config, seed);
        for k in 1..=3 {
            let bags = soft_bags_with(&h, k, &SoftLimits::default()).unwrap();
            let inst = CtdInstance::new(&h, &bags);
            pool.push((seed, k, inst));
        }
    }
    pool
}

/// A viable candidate `X` of `(S, C)` can have the child `(X, C)`, with
/// `X ⊊ S`: a pass ordered by `|C|` alone could reach `(S, C)` before that
/// child, and the `|S|` order is what settles the child first. This pins
/// on the fixed pool that such candidates occur, and that none of them is
/// ever a basis: the child's own basis `Z` is viable for `(S, C)` as well
/// (`Z ⊆ X ∪ C ⊆ S ∪ C`, `Z ≠ S` since `S ⊄ X ∪ C`, and `Z`'s candidacy
/// and children depend on the component alone), so it reaches the
/// child's own wave there — and `X`, at least one wave above the child,
/// never wins.
#[test]
fn a_child_can_keep_its_blocks_component_but_no_basis_uses_one() {
    let (mut candidates, mut bases) = (0, 0);
    for (seed, k, inst) in pool() {
        let sat = inst.satisfy();
        let mut here = 0;
        for (b, blk) in inst.blocks.iter().enumerate() {
            for (x, children) in inst.viable_candidates(b) {
                if !children
                    .iter()
                    .any(|&c| inst.blocks[c as usize].comp == blk.comp)
                {
                    continue;
                }
                let s = blk.head().expect("a root's candidate misses its component");
                assert!(x != s && inst.bag(x).is_subset(inst.bag(s)));
                here += 1;
                bases += usize::from(sat.basis[b].get().is_some_and(|(bx, _)| bx == x));
            }
        }
        if here > 0 {
            assert_eq!(sat, inst.satisfy_jacobi(), "seed {seed}, k = {k}");
        }
        candidates += here;
    }
    assert_eq!((candidates, bases), (19_750, 0));
}

/// The lemma that lets a candidate read skip the coverage test: for a
/// block `b = (S, C)` with `req = cover ∖ C`, a bag `x` holds `req` iff
/// `x` together with the blocks it heads inside `C` covers `b`'s
/// coverage union. (With `req ⊆ x`, a path out of `C` that avoids `x`
/// would step onto a vertex of `req`, so every `[x]`-component meeting
/// `C` lies inside it.) Checked for every block and every bag.
fn assert_req_decides_coverage(inst: &CtdInstance) {
    let mut buf = Vec::new();
    for (b, blk) in inst.blocks.iter().enumerate() {
        let (comp, cover) = (inst.words(blk.comp), inst.words(blk.cover));
        for x in 0..inst.num_bags() {
            inst.load_bag(x, &mut buf);
            let holds_req = (cover.iter().zip(comp).zip(&buf)).all(|((c, m), x)| c & !m & !x == 0);
            let (start, len) = inst.blocks_by_head[x];
            for b2 in start..start + len {
                let child = inst.words(inst.blocks[b2 as usize].comp);
                if words_subset(child, comp) {
                    words_union_into(child, &mut buf);
                }
            }
            assert_eq!(holds_req, words_subset(cover, &buf), "block {b}, bag {x}");
        }
    }
}

#[test]
fn req_decides_coverage_on_the_pool_and_small_grids() {
    for (_, _, inst) in pool() {
        assert_req_decides_coverage(&inst);
    }
    for n in 1..=6 {
        let h = named::grid(n, n);
        for k in 1..=2 {
            let bags = soft_bags_with(&h, k, &SoftLimits::default()).unwrap();
            assert_req_decides_coverage(&CtdInstance::new(&h, &bags));
        }
    }
}

/// The lemma every tree reader rests on (the extractor, the sampler and
/// the enumeration; see `softhw_core::ctd`): each child `(X, Y)` of a
/// viable candidate `X` of `(S, C)` is strictly smaller in `(|C|, |S|)`,
/// with `|S| = 0` for a root block, and the children of one candidate
/// have pairwise disjoint components. So a tree read top-down meets no
/// block twice, and none of them keeps a guard for it. Returns the
/// `(block, candidate)` pairs and the children checked.
fn assert_children_are_smaller_and_disjoint(inst: &CtdInstance) -> (usize, usize) {
    let size = |b: usize| {
        let blk = &inst.blocks[b];
        let head = blk.head().map_or(0, |s| inst.bag(s).len());
        (words_card(inst.words(blk.comp)), head)
    };
    let (mut pairs, mut children_read) = (0, 0);
    let mut union = Vec::new();
    for b in 0..inst.blocks.len() {
        for (x, children) in inst.viable_candidates(b) {
            pairs += 1;
            union.clear();
            union.resize(inst.words(inst.blocks[b].comp).len(), 0u64);
            for &c in &children {
                children_read += 1;
                assert!(size(c as usize) < size(b), "block {b}, bag {x}, child {c}");
                let comp = inst.words(inst.blocks[c as usize].comp);
                let disjoint = comp.iter().zip(&union).all(|(w, u)| w & u == 0);
                assert!(disjoint, "block {b}, bag {x}: child {c} overlaps a sibling");
                words_union_into(comp, &mut union);
            }
        }
    }
    (pairs, children_read)
}

#[test]
fn children_are_smaller_and_disjoint_on_the_pool_and_small_grids() {
    let mut pool_counts = (0, 0);
    for (_, _, inst) in pool() {
        let (pairs, children) = assert_children_are_smaller_and_disjoint(&inst);
        pool_counts = (pool_counts.0 + pairs, pool_counts.1 + children);
    }
    let mut grid_counts = (0, 0);
    for n in 1..=6 {
        let h = named::grid(n, n);
        for k in 1..=3 {
            let bags = soft_bags_with(&h, k, &SoftLimits::default()).unwrap();
            let inst = CtdInstance::new(&h, &bags);
            let (pairs, children) = assert_children_are_smaller_and_disjoint(&inst);
            grid_counts = (grid_counts.0 + pairs, grid_counts.1 + children);
        }
    }
    assert_eq!(
        (pool_counts, grid_counts),
        ((76_990, 74_703), (3_900_137, 4_204_147))
    );
}

/// `grid(10, 10)` at `k = 2` through a shared index, as the exact-width
/// sweep builds it.
fn grid10_k2() -> CtdInstance {
    let mut index = BlockIndex::new(&named::grid(10, 10));
    let ids = soft_bag_ids(&mut index, 2, &SoftLimits::default()).unwrap();
    CtdInstance::build(&mut index, &ids)
}

/// What the candidate reads of one pass cost, in clock-free counts: on
/// `grid(10, 10)` at `k = 2`, and summed over the fixed pool.
#[test]
fn candidate_read_counts_are_pinned() {
    let grid = grid10_k2().scan_stats();
    let mut sum = ScanStats::default();
    for (_, _, inst) in pool() {
        let s = inst.scan_stats();
        sum.blocks += s.blocks;
        sum.components += s.components;
        sum.direct += s.direct;
        sum.row_words += s.row_words;
        sum.candidates += s.candidates;
        sum.children += s.children;
    }
    let pinned = |blocks, components, direct, row_words, candidates, children| ScanStats {
        blocks,
        components,
        direct,
        row_words,
        candidates,
        children,
    };
    assert_eq!(
        grid,
        pinned(21_042, 20_978, 15_529, 724_838, 102_041, 102_545)
    );
    assert_eq!(sum, pinned(6_773, 1_687, 28, 5_365, 27_335, 39_054));
}

/// The heap an instance holds, counted off its vectors' capacities.
#[test]
fn instance_heap_bytes_are_pinned() {
    let inst = grid10_k2();
    assert_eq!(inst.heap_bytes(), 1_359_064);
}

/// The random cases below stay far below 4 096 bags, i.e. inside one
/// summary word of the two-level candidate read. `grid(7, 7)` at `k = 2`
/// has 5 622 bags — 88 row words, two summary words — so this pins the
/// read across a summary-word boundary, and the short-cut beside it:
/// most blocks of a grid have a four-vertex `req`.
#[test]
fn candidate_scan_crosses_a_summary_word_boundary() {
    let h = named::grid(7, 7);
    let mut index = BlockIndex::new(&h);
    let k2 = soft_bag_ids(&mut index, 2, &SoftLimits::default()).unwrap();
    let inst = CtdInstance::build(&mut index, &k2);
    assert!(inst.num_bags() > 64 * 64, "{} bags", inst.num_bags());
    let scan = inst.scan_stats();
    assert!(scan.direct * 2 > scan.blocks, "{scan:?}");
    assert!(scan.direct < scan.blocks, "{scan:?}");
    assert_candidates_match_predicate(&inst);
}

/// A largest bag that heads no block — all of `V`, which leaves no
/// component — makes `|req|` equal to the largest cardinality impossible:
/// no block may take the short-cut, and each must find its candidates
/// the usual way.
#[test]
fn a_largest_bag_heading_no_block_disarms_the_scan_short_cut() {
    let h = named::grid(4, 4);
    let mut bags = soft_bags_with(&h, 2, &SoftLimits::default()).unwrap();
    let before = CtdInstance::new(&h, &bags).scan_stats();
    assert!(before.direct > 0, "{before:?}");
    bags.push(h.all_vertices());
    let inst = CtdInstance::new(&h, &bags);
    assert_eq!(inst.blocks_by_head[inst.num_bags() - 1].1, 0);
    assert_eq!(inst.scan_stats().direct, 0);
    assert_tables_match_predicate(&inst);
}

/// `h` with the same vertex ids and its edges listed in a seeded random
/// order: structurally identical, so it shares `h`'s cache entries.
fn with_edges_permuted(h: &Hypergraph, seed: u64) -> Hypergraph {
    let mut order: Vec<usize> = (0..h.num_edges()).collect();
    let mut rng = SmallRng::seed_from_u64(seed);
    for i in (1..order.len()).rev() {
        order.swap(i, rng.gen_range(0..=i));
    }
    let mut b = HypergraphBuilder::new();
    for v in 0..h.num_vertices() {
        b.vertex(h.vertex_name(v));
    }
    for e in order {
        b.edge_ids(h.edge_name(e), &h.edge(e).iter().collect::<Vec<_>>());
    }
    b.build()
}

/// One answer of the cache, rendered: the comparison key of the
/// order-independence property.
fn rendered(h: &Hypergraph, solved: &Solved) -> String {
    match solved {
        Solved::ShwWidth(w, td) => format!("shw = {w}\n{}", td.render(h)),
        Solved::ShwDecision(Some(td)) => format!("yes\n{}", td.render(h)),
        Solved::ShwDecision(None) => "no".to_string(),
        other => panic!("not a shw answer: {other:?}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn worklist_satisfaction_equals_jacobi(
        h in small_hypergraph(),
        grid in chorded_grid(),
        apart in disconnected_hypergraph(),
        wide in wide_hypergraph(),
        k in 1usize..4,
    ) {
        assert_satisfaction_equals_jacobi(&h, k);
        assert_satisfaction_equals_jacobi(&grid, k);
        assert_satisfaction_equals_jacobi(&apart, k);
        assert!(wide.num_vertices() > 64);
        assert_satisfaction_equals_jacobi(&wide, k);
    }

    #[test]
    fn req_decides_coverage_for_any_bag_family(h in small_hypergraph(), seed in 0u64..5000) {
        // Bags drawn vertex by vertex, not from `Soft_{H,k}`: the lemma
        // holds for every bag.
        let mut rng = SmallRng::seed_from_u64(seed);
        let bags: Vec<BitSet> = (0..rng.gen_range(1..12))
            .map(|_| {
                let vertices = (0..h.num_vertices()).filter(|_| rng.gen_bool(0.5));
                BitSet::from_iter(h.num_vertices(), vertices.collect::<Vec<_>>())
            })
            .collect();
        assert_req_decides_coverage(&CtdInstance::new(&h, &bags));
    }

    #[test]
    fn viable_candidate_tables_match_reference_predicate(
        h in small_hypergraph(),
        k in 1usize..3,
    ) {
        // The candidates read on demand must be exactly the ones the
        // from-first-principles predicate accepts under an all-satisfied
        // state.
        let limits = SoftLimits::default();
        let bags = soft_bags_with(&h, k, &limits).unwrap();
        assert_tables_match_predicate(&CtdInstance::new(&h, &bags));
    }

    #[test]
    fn viable_candidate_tables_match_reference_predicate_on_chorded_grids(
        h in chorded_grid(),
        k in 1usize..3,
    ) {
        let bags = soft_bags_with(&h, k, &SoftLimits::default()).unwrap();
        assert_tables_match_predicate(&CtdInstance::new(&h, &bags));
    }

    #[test]
    fn an_owned_index_builds_the_instance_a_borrowed_one_does(
        h in small_hypergraph(),
        k in 1usize..4,
    ) {
        // `soft_instance` hands its index to the build, which releases it
        // part by part; `build(&mut index)` leaves it whole. The two must
        // be the same instance, table for table.
        let limits = SoftLimits::default();
        let owned = soft_instance(&h, k, &limits, &Budget::unlimited()).unwrap();
        let mut index = BlockIndex::new(&h);
        let ids = soft_bag_ids(&mut index, k, &limits).unwrap();
        let borrowed = CtdInstance::build(&mut index, &ids);
        // The in-place gather leaves exactly the rows a copy holds.
        prop_assert_eq!(owned.heap_bytes(), borrowed.heap_bytes());
        prop_assert_eq!(&owned.blocks, &borrowed.blocks);
        prop_assert_eq!(&owned.root_blocks, &borrowed.root_blocks);
        prop_assert_eq!(owned.num_bags(), borrowed.num_bags());
        for (b, blk) in owned.blocks.iter().enumerate() {
            prop_assert_eq!(owned.words(blk.comp), borrowed.words(blk.comp));
            prop_assert_eq!(owned.words(blk.cover), borrowed.words(blk.cover));
            let viable = |inst: &CtdInstance| -> Vec<(usize, Vec<u32>)> {
                inst.viable_candidates(b).map(|(x, kids)| (x, kids.to_vec())).collect()
            };
            prop_assert_eq!(viable(&owned), viable(&borrowed), "block {}", b);
            for x in 0..owned.num_bags() {
                prop_assert_eq!(owned.child_blocks(b, x), borrowed.child_blocks(b, x));
            }
        }
        for x in 0..owned.num_bags() {
            prop_assert_eq!(owned.bag(x), borrowed.bag(x));
        }
        prop_assert_eq!(owned.satisfy(), borrowed.satisfy());
        // The cold decision on the raw input, which builds through the
        // owned index, answers with the witness of a decision on a fresh
        // shared index.
        let spec = SolveSpec::shw_leq(k).with_reduce(false);
        let cold = solve(&h, &spec).unwrap();
        let mut index = BlockIndex::new(&h);
        let indexed = shw_leq_indexed_budgeted(&mut index, k, &limits, &Budget::unlimited());
        let indexed = indexed.unwrap();
        prop_assert_eq!(&cold, &Solved::ShwDecision(indexed));
        // A work cap trips it at points spread over enumeration, build
        // and DP; the retry is the run that was never interrupted.
        let mut cap = 1u64;
        loop {
            match solve(&h, &spec.clone().with_budget(Budget::with_work_cap(cap))) {
                Err(e) => {
                    prop_assert!(e.is_budget(), "cap {}: {:?}", cap, e);
                    prop_assert_eq!(&solve(&h, &spec).unwrap(), &cold, "retry after cap {}", cap);
                }
                Ok(answer) => {
                    prop_assert_eq!(&answer, &cold, "cap {}", cap);
                    break;
                }
            }
            cap += cap.div_ceil(4);
        }
    }

    #[test]
    fn shw_answers_do_not_depend_on_query_order(h in small_hypergraph(), reduce in 0usize..2) {
        // Op `0` asks the exact width, op `k > 0` asks `shw ≤ k`. In
        // every order of the four on one cache, each answer — witness
        // included — must be the one a fresh cache gives: a memoised
        // decision is a function of `(h, k)`, not of which class filled
        // it.
        let spec = |op: usize| {
            let spec = if op == 0 { SolveSpec::shw() } else { SolveSpec::shw_leq(op) };
            spec.with_reduce(reduce == 1)
        };
        let fresh: Vec<String> = (0..4)
            .map(|op| rendered(&h, &DecompCache::new().solve(&h, &spec(op)).unwrap()))
            .collect();
        for code in 0..24usize {
            // Factoradic decode: `code` names one of the 4! orders.
            let mut pool = vec![0usize, 1, 2, 3];
            let mut rest = code;
            let order: Vec<usize> = (1..=4)
                .rev()
                .map(|n| {
                    let op = pool.remove(rest % n);
                    rest /= n;
                    op
                })
                .collect();
            let mut shared = DecompCache::new();
            for &op in &order {
                let warm = shared.solve(&h, &spec(op)).unwrap();
                prop_assert_eq!(&rendered(&h, &warm), &fresh[op], "op {} in order {:?}", op, &order);
            }
        }
    }

    #[test]
    fn cross_query_cache_equals_cold_runs(h in small_hypergraph(), k in 1usize..3) {
        let limits = SoftLimits::default();
        let bags = soft_bags_with(&h, k, &limits).unwrap();
        let cold = softhw::core::candidate_td(&h, &bags);
        // Algorithm 1 on one shared index, twice: the instance built for
        // the repeat reuses every block the first one cached.
        let mut index = BlockIndex::new(&h);
        let mut warm = || {
            shw_leq_indexed_budgeted(&mut index, k, &limits, &Budget::unlimited()).unwrap()
        };
        let (warm1, warm2) = (warm(), warm());
        match (&cold, &warm1, &warm2) {
            (Some(c), Some(w1), Some(w2)) => {
                prop_assert_eq!(c.bags(), w1.bags());
                prop_assert_eq!(w1.bags(), w2.bags());
            }
            (None, None, None) => {}
            _ => prop_assert!(false, "cold and shared-index runs disagree"),
        }
        let mut cache = DecompCache::new();
        // Width sweeps through the cache agree with the cold solver, and
        // a repeat is answered from the memoised decisions alone.
        let (cold_w, cold_td) = softhw::core::shw::shw(&h);
        for repeat in [false, true] {
            let misses = cache.stats().result_misses;
            match cache.solve(&h, &SolveSpec::shw()).unwrap() {
                Solved::ShwWidth(w, td) => {
                    prop_assert_eq!(w, cold_w);
                    prop_assert_eq!(td.bags(), cold_td.bags());
                }
                other => prop_assert!(false, "expected ShwWidth, got {:?}", other),
            }
            prop_assert!(!repeat || cache.stats().result_misses == misses);
        }
    }

    #[test]
    fn shared_cache_answers_in_the_callers_edge_numbering(
        h in small_hypergraph(),
        seed in 0u64..1000,
        k in 1usize..3,
        reduce in 0usize..2,
    ) {
        // Two listings of one structure share every cache entry; each
        // answer must validate against the listing it was asked for
        // (`hw` witnesses name edges; `shw` witnesses are vertex sets).
        let h2 = with_edges_permuted(&h, seed);
        prop_assert_eq!(
            softhw::hypergraph::structural_hash(&h),
            softhw::hypergraph::structural_hash(&h2)
        );
        let mut cache = DecompCache::new();
        for asked in [&h, &h2, &h] {
            for spec in [SolveSpec::hw(), SolveSpec::hw_leq(k), SolveSpec::shw(), SolveSpec::shw_leq(k)] {
                match cache.solve(asked, &spec.with_reduce(reduce == 1)).unwrap() {
                    Solved::HwWidth(_, g) | Solved::HwDecision(Some(g)) => {
                        prop_assert_eq!(g.validate(asked), Ok(()));
                        prop_assert!(g.is_hd(asked));
                    }
                    Solved::ShwWidth(_, td) | Solved::ShwDecision(Some(td)) => {
                        prop_assert_eq!(td.validate(asked), Ok(()));
                    }
                    Solved::HwDecision(None) | Solved::ShwDecision(None) => {}
                }
            }
        }
        prop_assert!(cache.stats().result_hits > 0);
    }
}

proptest! {
    // The Jacobi reference rescans every block against every bag each
    // round: at `k = 3` on these shapes a case takes seconds unoptimised.
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn worklist_satisfaction_equals_jacobi_on_cold_shapes_at_k3(h in cold_hypergraph()) {
        assert_satisfaction_equals_jacobi(&h, 3);
    }
}
