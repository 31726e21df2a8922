//! Property-based tests of the framework's core invariants (proptest):
//! the width hierarchy, Soft monotonicity, CTD validity, cover
//! soundness, and game/width consistency on random hypergraphs.

use proptest::prelude::*;
use softhw::core::soft::{soft_bags, SoftLimits};
use softhw::core::soft_iter::SoftHierarchy;
use softhw::core::{candidate_td, cover, hw, shw};
use softhw::hypergraph::random::{random_hypergraph, RandomConfig};
use softhw::hypergraph::{BitSet, Hypergraph};

fn small_hypergraph() -> impl Strategy<Value = Hypergraph> {
    (4usize..8, 3usize..8, 0u64..5000).prop_map(|(nv, ne, seed)| {
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn theorem2_shw_between_ghw_bound_and_hw(h in small_hypergraph()) {
        let (hw_v, hd) = hw::hw(&h);
        let (shw_v, td) = shw::shw(&h);
        // shw <= hw (Theorem 2)
        prop_assert!(shw_v <= hw_v);
        // witnesses are valid
        prop_assert!(hd.is_hd(&h));
        prop_assert_eq!(td.validate(&h), Ok(()));
        // every soft bag has a cover with <= shw edges (ghw <= shw half)
        for bag in td.bags() {
            prop_assert!(cover::find_cover(&h, bag, shw_v).is_some());
        }
    }

    #[test]
    fn soft_hierarchy_monotone(h in small_hypergraph()) {
        let mut hier = SoftHierarchy::new(&h, 2, SoftLimits::default());
        let e0 = hier.subedge_level(0).unwrap().to_vec();
        let e1 = hier.subedge_level(1).unwrap().to_vec();
        let s0 = hier.soft_level(0).unwrap().to_vec();
        let s1 = hier.soft_level(1).unwrap().to_vec();
        for e in &e0 { prop_assert!(e1.contains(e), "E0 ⊆ E1"); }
        for e in &e1 { prop_assert!(s1.contains(e), "E1 ⊆ Soft1"); }
        for b in &s0 { prop_assert!(s1.contains(b), "Soft0 ⊆ Soft1"); }
    }

    #[test]
    fn candidate_td_bags_come_from_candidates(h in small_hypergraph()) {
        let bags = soft_bags(&h, 2);
        if let Some(td) = candidate_td(&h, &bags) {
            prop_assert_eq!(td.validate(&h), Ok(()));
            prop_assert!(td.is_comp_nf(&h), "Algorithm 1 produces CompNF TDs");
            for bag in td.bags() {
                prop_assert!(bags.contains(bag));
            }
        }
    }

    #[test]
    fn covers_cover(h in small_hypergraph()) {
        // find_cover results actually cover their bags; connected covers
        // are connected.
        let bags = soft_bags(&h, 2);
        for bag in bags.iter().take(12) {
            if let Some(c) = cover::find_cover(&h, bag, 3) {
                let u = h.union_of_edges(c.iter().copied());
                prop_assert!(bag.is_subset(&u));
            }
            if let Some(cc) = cover::find_connected_cover(&h, bag, 3) {
                let u = h.union_of_edges(cc.iter().copied());
                prop_assert!(bag.is_subset(&u));
                prop_assert!(cover::edges_connected(&h, &cc));
            }
        }
    }

    #[test]
    fn components_partition_vertices(h in small_hypergraph(), seed in 0u64..100) {
        // vertex components w.r.t. a random separator partition V \ S
        let mut sep = BitSet::empty(h.num_vertices());
        let mut x = seed;
        for v in 0..h.num_vertices() {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            if x % 3 == 0 { sep.insert(v); }
        }
        let comps = h.vertex_components(&sep);
        let mut seen = sep.clone();
        for c in &comps {
            prop_assert!(!c.intersects(&seen), "components are disjoint from sep and each other");
            seen.union_with(c);
        }
        prop_assert_eq!(seen, h.all_vertices());
    }

    #[test]
    fn hw_equals_monotone_marshal_width(h in small_hypergraph()) {
        // GLS characterisation on random instances (the games module and
        // the hw solver are independent implementations).
        prop_assume!(h.num_edges() <= 6);
        let (hw_v, _) = hw::hw(&h);
        prop_assert_eq!(softhw::core::games::mon_marshal_width(&h), hw_v);
    }

    #[test]
    fn mon_irmw_at_most_shw(h in small_hypergraph()) {
        // Theorem 12.
        prop_assume!(h.num_edges() <= 6);
        let (shw_v, _) = shw::shw(&h);
        prop_assert!(softhw::core::games::mon_irm_width_tree(&h) <= shw_v);
    }

    #[test]
    fn relation_join_is_commutative_on_len(
        rows_a in proptest::collection::vec((0u64..8, 0u64..8), 0..40),
        rows_b in proptest::collection::vec((0u64..8, 0u64..8), 0..40),
    ) {
        use softhw::engine::Relation;
        let a = Relation::from_rows(vec![0, 1], rows_a.iter().map(|&(x, y)| vec![x, y]));
        let b = Relation::from_rows(vec![1, 2], rows_b.iter().map(|&(x, y)| vec![x, y]));
        prop_assert_eq!(a.natural_join(&b).len(), b.natural_join(&a).len());
        // semijoin is a filter: |a ⋉ b| <= |a|, and idempotent
        let sj = a.semijoin(&b);
        prop_assert!(sj.len() <= a.len());
        prop_assert_eq!(sj.semijoin(&b).len(), sj.len());
    }
}

/// The five game widths `(mw, mon-mw, irmw, mon-irmw, mon-irmw-tree)` on
/// H2, the named cycles, the 3×3 grid, `triangle_star(3)` and a fixed
/// seeded pool of small random hypergraphs. Only `mon-mw = hw` and
/// `mon-irmw-tree ≤ shw` are properties; the rest is pinned, so a change
/// to any game's move space shows here.
#[test]
fn game_widths_are_pinned() {
    use softhw::core::games;
    use softhw::hypergraph::named;
    let mut pool: Vec<(String, Hypergraph)> = vec![
        ("H2".into(), named::h2()),
        ("C4".into(), named::cycle(4)),
        ("C5".into(), named::cycle(5)),
        ("C6".into(), named::cycle(6)),
        ("grid(3,3)".into(), named::grid(3, 3)),
        ("triangle_star(3)".into(), named::triangle_star(3)),
    ];
    for seed in 0..12u64 {
        let cfg = RandomConfig {
            num_vertices: 6 + seed as usize % 4,
            num_edges: 5 + seed as usize % 5,
            min_arity: 2,
            max_arity: 3,
            connect: true,
        };
        pool.push((format!("random {seed}"), random_hypergraph(&cfg, seed)));
    }
    let widths: Vec<(&str, [usize; 5])> = pool
        .iter()
        .map(|(name, h)| {
            let w = [
                games::marshal_width(h),
                games::mon_marshal_width(h),
                games::irm_width(h),
                games::mon_irm_width(h),
                games::mon_irm_width_tree(h),
            ];
            (name.as_str(), w)
        })
        .collect();
    let pinned = [
        ("H2", [2, 3, 2, 2, 2]),
        ("C4", [2, 2, 2, 2, 1]),
        ("C5", [2, 2, 2, 2, 2]),
        ("C6", [2, 2, 2, 2, 2]),
        ("grid(3,3)", [2, 2, 2, 2, 2]),
        ("triangle_star(3)", [2, 2, 2, 2, 1]),
        ("random 0", [1, 1, 1, 1, 1]),
        ("random 1", [2, 2, 2, 2, 1]),
        ("random 2", [2, 2, 2, 2, 2]),
        ("random 3", [2, 2, 2, 2, 1]),
        ("random 4", [2, 2, 2, 2, 1]),
        ("random 5", [2, 2, 2, 2, 1]),
        ("random 6", [2, 2, 2, 2, 2]),
        ("random 7", [2, 2, 2, 2, 1]),
        ("random 8", [2, 2, 2, 2, 1]),
        ("random 9", [2, 2, 2, 2, 2]),
        ("random 10", [2, 2, 2, 2, 1]),
        ("random 11", [2, 2, 2, 2, 1]),
    ];
    assert_eq!(widths, pinned);
}
