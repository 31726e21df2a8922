//! Edge-case integration tests across the framework: degenerate inputs,
//! limit handling, evaluator/enumeration corner cases, and cross-module
//! consistency checks that don't fit a single crate's unit tests.

use softhw::core::constraints::{BagCost, ConCov, JoinCost, Lexi, ShallowCyc, Trivial};
use softhw::core::ctd_opt::{best, evaluate_td, sample_random, top_n};
use softhw::core::soft::{soft_bags, soft_bags_with, SoftLimits};
use softhw::core::td::TreeDecomposition;
use softhw::core::{candidate_td, cover, hw, shw, solve, DecompError, SolveSpec};
use softhw::hypergraph::{named, BitSet, HypergraphBuilder};

#[test]
fn single_edge_hypergraph_everything_is_one() {
    let mut b = HypergraphBuilder::new();
    b.edge("e", &["x", "y", "z"]);
    let h = b.build();
    assert_eq!(shw::shw(&h).0, 1);
    assert_eq!(hw::hw(&h).0, 1);
    let bags = soft_bags(&h, 1);
    assert!(bags.contains(&h.all_vertices()));
    let td = candidate_td(&h, &bags).expect("trivial");
    assert_eq!(td.num_nodes(), 1);
}

#[test]
fn parallel_edges_are_handled() {
    // Two identical edges: dedup at the Soft level, width 1.
    let mut b = HypergraphBuilder::new();
    b.edge("e1", &["x", "y"]);
    b.edge("e2", &["x", "y"]);
    let h = b.build();
    assert_eq!(shw::shw(&h).0, 1);
    assert_eq!(hw::hw(&h).0, 1);
}

#[test]
fn limits_propagate_as_errors_not_panics() {
    let h = named::h2();
    let tiny = SoftLimits {
        max_lambda_sets: 2,
        max_bags: 2,
    };
    assert!(soft_bags_with(&h, 2, &tiny).is_err());
    let spec = SolveSpec::shw_leq(2).with_limits(tiny);
    assert!(matches!(solve(&h, &spec), Err(DecompError::Limit(_))));
}

#[test]
fn evaluate_td_rejects_constraint_violations() {
    // A decomposition with a non-single-edge bag violates ShallowCyc{d:-1}.
    let h = named::four_cycle_query();
    let (_, td) = shw::shw(&h);
    assert!(evaluate_td(&h, &td, &ShallowCyc { d: -1 }).is_none());
    assert!(evaluate_td(&h, &td, &ShallowCyc { d: 5 }).is_some());
}

#[test]
fn join_cost_evaluator_prices_edges() {
    // With free nodes and unit edge costs, the best decomposition
    // minimises the number of tree edges = nodes - 1.
    let h = named::cycle(6);
    let bags = soft_bags(&h, 2);
    let eval = JoinCost::new(|_: &BitSet| 0.0, |_: &BitSet, _: &BitSet| 1.0);
    let (td, summary) = best(&h, &bags, &eval).expect("C6 decomposes");
    assert!((summary.cost - (td.num_nodes() as f64 - 1.0)).abs() < 1e-9);
    let all = top_n(&h, &bags, &eval, 10_000);
    for (other, s) in &all {
        assert!(s.cost + 1e-9 >= summary.cost);
        assert_eq!(other.validate(&h), Ok(()));
    }
}

#[test]
fn lexi_constraint_first_cost_second() {
    let h = named::cycle(5);
    let bags = soft_bags(&h, 3);
    let eval = Lexi::new(ConCov { k: 3 }, BagCost::new(|b: &BitSet| b.len() as f64));
    let (td, ((), cost)) = best(&h, &bags, &eval).expect("ConCov at width 3");
    assert!(cost.cost > 0.0);
    for bag in td.bags() {
        assert!(cover::find_connected_cover(&h, bag, 3).is_some());
    }
}

/// An edgeless hypergraph has no CTD to rank or sample: every procedure
/// of Section 6's prototype answers with nothing (the enumeration used
/// to panic on the empty combination of zero components).
#[test]
fn an_edgeless_hypergraph_ranks_and_samples_nothing() {
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    let h = HypergraphBuilder::new().build();
    assert!(best(&h, &[], &Trivial).is_none());
    assert!(top_n(&h, &[], &Trivial, usize::MAX).is_empty());
    assert!(top_n(&h, &[], &BagCost::new(|b: &BitSet| b.len() as f64), 10).is_empty());
    assert!(sample_random(&h, &[], &mut SmallRng::seed_from_u64(0)).is_none());
}

#[test]
fn sampling_covers_multiple_decompositions() {
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    let h = named::cycle(6);
    let bags = soft_bags(&h, 2);
    let mut rng = SmallRng::seed_from_u64(3);
    let mut shapes = std::collections::BTreeSet::new();
    for _ in 0..30 {
        let td = sample_random(&h, &bags, &mut rng).expect("satisfiable");
        let mut bag_list: Vec<Vec<usize>> = td.bags().iter().map(|b| b.to_vec()).collect();
        bag_list.sort();
        shapes.insert(bag_list);
    }
    assert!(
        shapes.len() >= 3,
        "random sampling should reach several distinct decompositions, got {}",
        shapes.len()
    );
}

#[test]
fn comp_nf_check_distinguishes() {
    // A path decomposition of C4 in "wrong" shape: duplicate bags chained
    // arbitrarily can break CompNF while staying a valid TD.
    let h = named::cycle(4);
    let mut td = TreeDecomposition::new(h.vset(&["v0", "v1", "v2"]));
    let mid = td.add_child(td.root(), h.vset(&["v0", "v2"]));
    td.add_child(mid, h.vset(&["v0", "v2", "v3"]));
    assert_eq!(td.validate(&h), Ok(()));
    assert!(td.is_comp_nf(&h));
    // Duplicating the root bag as a leaf: still valid, still CompNF? A
    // duplicate bag child has B(T_c) = B(u) ∩ B(c) ∪ ∅ — no component
    // matches, so CompNF must fail.
    let mut td2 = td.clone();
    td2.add_child(td2.root(), h.vset(&["v0", "v1", "v2"]));
    assert_eq!(td2.validate(&h), Ok(()));
    assert!(!td2.is_comp_nf(&h));
}

#[test]
fn ghw_leq_shw_leq_hw_chain_on_named_instances() {
    use softhw::core::soft_iter::ghw;
    for h in [
        named::cycle(4),
        named::cycle(7),
        named::four_cycle_query(),
        named::triangle_star(2),
    ] {
        let g = ghw(&h, &SoftLimits::default()).expect("small instance");
        let (s, _) = shw::shw(&h);
        let (c, _) = hw::hw(&h);
        assert!(g <= s && s <= c, "chain violated: {g} {s} {c}");
        assert!(c <= 3 * g + 1, "paper Section 8 bound");
    }
}

#[test]
fn sql_rewrite_renders_for_every_paper_query() {
    use softhw::query::{bind, build_plan, parse_sql, rewrite};
    for (name, sql, _) in softhw::workloads::queries::all_queries() {
        let db = softhw::workloads::schema_for(name);
        let cq = bind(&parse_sql(sql).expect("fixed"), &db).expect("binds");
        let h = cq.hypergraph();
        let (_, td) = shw::shw(&h);
        let plan = build_plan(&cq, &h, &td).expect("plannable");
        let script = rewrite::render_sql(&cq, &plan);
        assert!(script.contains("CREATE VIEW bag_0"));
        assert!(script.matches("CREATE VIEW").count() == plan.nodes.len());
    }
}
