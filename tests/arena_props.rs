//! Property-based tests for the bag arena and block index: interned-id
//! set algebra must agree with direct `BitSet` algebra, cached
//! blocks/components must equal freshly computed ones, and the arena
//! candidate generator must agree with the seed's reference generator on
//! random hypergraphs.

use proptest::prelude::*;
use softhw::core::shw::shw_leq_indexed_budgeted;
use softhw::core::soft::{self, reference, SoftLimits};
use softhw::core::{solve, Budget, SolveSpec};
use softhw::hypergraph::arena::BagArena;
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

/// `parts` vertex-disjoint random hypergraphs side by side, with unary
/// edges, and — on top of what the generator draws — a duplicate of the
/// first edge and an empty edge.
fn degenerate_hypergraph() -> impl Strategy<Value = Hypergraph> {
    (3usize..7, 2usize..6, 0u64..5000, 1usize..3).prop_map(|(nv, ne, seed, parts)| {
        let mut b = HypergraphBuilder::new();
        for p in 0..parts {
            let piece = random_hypergraph(
                &RandomConfig {
                    num_vertices: nv,
                    num_edges: ne,
                    min_arity: 1,
                    max_arity: 3,
                    connect: false,
                },
                seed + p as u64,
            );
            for e in 0..piece.num_edges() {
                let names: Vec<String> =
                    piece.edge(e).iter().map(|v| format!("p{p}v{v}")).collect();
                let refs: Vec<&str> = names.iter().map(String::as_str).collect();
                b.edge(&format!("p{p}e{e}"), &refs);
                if e == 0 {
                    b.edge(&format!("p{p}twin"), &refs);
                }
            }
        }
        b.edge("nothing", &[]);
        b.build()
    })
}

/// A pseudo-random vertex set over `universe`, derived from `seed`.
fn derive_set(universe: usize, seed: u64) -> BitSet {
    let mut s = BitSet::empty(universe);
    let mut x = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
    for v in 0..universe {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        if x >> 33 & 1 == 1 {
            s.insert(v);
        }
    }
    s
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn interned_algebra_matches_bitset_algebra(universe in 1usize..200, seed in 0u64..10_000) {
        let a = derive_set(universe, seed);
        let b = derive_set(universe, seed.wrapping_add(77));
        let mut arena = BagArena::new(universe);
        let (ia, ib) = (arena.intern(&a), arena.intern(&b));
        prop_assert_eq!(arena.is_subset(ia, ib), a.is_subset(&b));
        prop_assert_eq!(arena.intersects(ia, ib), a.intersects(&b));
        prop_assert_eq!(arena.card(ia), a.len());
        prop_assert_eq!(arena.bag_is_empty(ia), a.is_empty());
        let iu = arena.union(ia, ib);
        prop_assert_eq!(arena.to_bitset(iu), a.union(&b));
        let ii = arena.intersection(ia, ib);
        prop_assert_eq!(arena.to_bitset(ii), a.intersection(&b));
        // Interning is idempotent and round-trips.
        prop_assert_eq!(arena.intern(&a), ia);
        prop_assert_eq!(arena.to_bitset(ia), a);
        // Id ordering follows content ordering.
        prop_assert_eq!(
            arena.cmp_bags(ia, ib),
            a.cmp(&b)
        );
    }

    #[test]
    fn cached_blocks_equal_fresh_ones(h in small_hypergraph(), seed in 0u64..1000) {
        let mut index = BlockIndex::new(&h);
        // Query separators twice (second pass must hit the cache) and
        // compare against the direct Hypergraph machinery.
        let seps: Vec<BitSet> = (0..4)
            .map(|i| derive_set(h.num_vertices(), seed.wrapping_add(i * 131)))
            .collect();
        for _round in 0..2 {
            for sep in &seps {
                let sid = index.intern(sep);
                let r = index.block_rows(sid);
                let rows = index.rows(r);
                let cached: Vec<BitSet> =
                    rows.iter().map(|&(c, _)| index.arena.to_bitset(c)).collect();
                let fresh = h.vertex_components(sep);
                prop_assert_eq!(&cached, &fresh, "components of {}", h.render_vertex_set(sep));
                // The cover column is the union of the touching edges.
                for (&(_, cover), comp) in rows.iter().zip(&fresh) {
                    let fresh_union = h.union_of_edge_set(&h.edges_touching(comp));
                    prop_assert_eq!(index.arena.to_bitset(cover), fresh_union);
                }
            }
        }
        // Second pass was all hits: misses counted each distinct separator once.
        let stats = index.stats();
        prop_assert!(stats.hits >= stats.misses);
    }

    #[test]
    fn arena_soft_generation_agrees_with_reference(h in small_hypergraph(), k in 1usize..3) {
        let limits = SoftLimits::default();
        let fast = soft::soft_bags_with(&h, k, &limits).unwrap();
        let slow = reference::soft_bags_with(&h, k, &limits).unwrap();
        prop_assert_eq!(fast, slow);
        let fast_u = soft::component_unions(&h, k, &limits).unwrap();
        let slow_u = reference::component_unions(&h, k, &limits).unwrap();
        prop_assert_eq!(fast_u, slow_u);
        let fast_w = soft::lambda_unions(h.num_vertices(), h.edges(), k, &limits).unwrap();
        let slow_w = reference::lambda_unions(h.num_vertices(), h.edges(), k, &limits).unwrap();
        prop_assert_eq!(fast_w, slow_w);
    }

    #[test]
    fn soft_generation_agrees_with_reference_on_degenerate_inputs(
        h in degenerate_hypergraph(),
        k in 1usize..4,
    ) {
        // Duplicate, empty and unary edges and disconnected inputs: the
        // one λ walk must still hand the `W × U` stage every `⋃λ1`, and
        // the stage must emit an empty `w` never and every other `w ∩ u`
        // once.
        let limits = SoftLimits::default();
        let fast = soft::soft_bags_with(&h, k, &limits).unwrap();
        let slow = reference::soft_bags_with(&h, k, &limits).unwrap();
        prop_assert_eq!(fast, slow);
    }

    #[test]
    fn membership_search_agrees_with_the_generator(
        h in small_hypergraph(),
        k in 1usize..3,
        masks in proptest::collection::vec(1u64..256, 16..17),
    ) {
        // `soft_witness` is Definition 6's search at level 0: every bag
        // the generator emits gets a witness whose `⋃λ1 ∩ ⋃C` rebuilds
        // it from at most `k` edges, and every other vertex set gets none.
        let limits = SoftLimits::default();
        let bags = soft::soft_bags_with(&h, k, &limits).unwrap();
        for bag in &bags {
            let witness = soft::soft_witness(&h, k, bag, &limits).unwrap();
            prop_assert!(witness.is_some(), "generated bag {:?} has no witness", bag);
            let (lambda1, u) = witness.unwrap();
            prop_assert!(lambda1.len() <= k);
            let mut rebuilt = h.union_of_edges(lambda1.iter().copied());
            rebuilt.intersect_with(&u);
            prop_assert_eq!(&rebuilt, bag);
        }
        for mask in masks {
            let mut set = h.empty_vertex_set();
            for v in (0..h.num_vertices()).filter(|v| mask >> v & 1 == 1) {
                set.insert(v);
            }
            if set.is_empty() || bags.contains(&set) {
                continue;
            }
            prop_assert_eq!(soft::soft_witness(&h, k, &set, &limits), Ok(None), "{:?}", set);
        }
    }

    #[test]
    fn shared_index_solves_like_fresh_instances(h in small_hypergraph()) {
        // The shw sweep over a shared index must agree with per-k fresh
        // solves, and the hierarchy solver (which builds its CTD instance
        // on the hierarchy's own index) must agree with shw at level 0.
        let limits = SoftLimits::default();
        let mut index = BlockIndex::new(&h);
        for k in 1..=2 {
            let unlimited = Budget::unlimited();
            let shared = shw_leq_indexed_budgeted(&mut index, k, &limits, &unlimited).unwrap();
            let fresh = solve(&h, &SolveSpec::shw_leq(k).with_limits(limits.clone()));
            let fresh = fresh.unwrap().accepted().expect("a bounded spec decides");
            let level0 = softhw::core::soft_iter::shw_i_leq(&h, k, 0, &limits).unwrap();
            prop_assert_eq!(shared.is_some(), fresh, "k = {}", k);
            prop_assert_eq!(level0.is_some(), fresh, "shw_0 vs shw at k = {}", k);
            if let Some(td) = shared {
                prop_assert_eq!(td.validate(&h), Ok(()));
            }
            if let Some(td) = level0 {
                prop_assert_eq!(td.validate(&h), Ok(()));
            }
        }
    }
}

/// Cycles and paths at `k = 2` have one `⋃C` per arc, more than fit one
/// mask word, so the `W × U` stage runs on multi-word masks.
#[test]
fn soft_generation_agrees_with_reference_past_one_mask_word() {
    let path = {
        let mut b = HypergraphBuilder::new();
        for i in 0..14 {
            b.edge(
                &format!("e{i}"),
                &[&format!("v{i}"), &format!("v{}", i + 1)],
            );
        }
        b.build()
    };
    let limits = SoftLimits::default();
    for h in [named::cycle(13), path] {
        let unions = soft::component_unions(&h, 2, &limits).unwrap();
        assert!(unions.len() > 64, "only {} distinct unions", unions.len());
        let fast = soft::soft_bags_with(&h, 2, &limits).unwrap();
        let slow = reference::soft_bags_with(&h, 2, &limits).unwrap();
        assert_eq!(fast, slow);
    }
}
