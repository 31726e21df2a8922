//! Property tests for the dependency-driven worklist satisfaction DP
//! and the incremental sweep engine: on random hypergraphs, the worklist
//! engine must agree **block for block** — bases and timestamps, not
//! just accept/reject — with the retained Jacobi reference; the
//! incremental `k → k+1` instance extension must be bit-identical to a
//! cold build over the same bag sequence; the state-reusing incremental
//! satisfaction must reproduce the cold satisfied set while keeping
//! previously satisfied blocks' bases and timestamps verbatim; and the
//! cross-query decomposition cache must return exactly what cold runs
//! return. The same file runs under the `parallel` feature in CI (the
//! feature-matrix job), so serial/parallel bit-identity is covered by
//! the same assertions.

use proptest::prelude::*;
use softhw::core::cache::DecompCache;
use softhw::core::ctd::CtdInstance;
use softhw::core::soft::{soft_bag_ids, soft_bags_with, SoftLimits};
use softhw::core::sweep::IncrementalSweep;
use softhw::hypergraph::random::{random_hypergraph, RandomConfig};
use softhw::hypergraph::{named, BagId, BlockIndex, Hypergraph};

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

/// `(bag, child blocks)` per viable candidate of block `b`.
fn viable_table(inst: &CtdInstance, b: usize) -> Vec<(usize, Vec<u32>)> {
    inst.viable_candidates(b)
        .map(|(x, kids)| (x, kids.to_vec()))
        .collect()
}

/// The random cases above stay far below 4 096 bags, i.e. inside one
/// summary word of the two-level candidate scan. `grid(7, 7)` at `k = 2`
/// has 5 622 bags — 88 row words, two summary words — so this pins the
/// scan across a summary-word boundary, for the cold build (full bag
/// range) and for the `k = 1 → 2` extension (a range starting mid-word).
#[test]
fn candidate_scan_crosses_a_summary_word_boundary() {
    let h = named::grid(7, 7);
    let limits = SoftLimits::default();
    let mut index = BlockIndex::new(&h);
    let k1 = soft_bag_ids(&mut index, 1, &limits).unwrap();
    let k2 = soft_bag_ids(&mut index, 2, &limits).unwrap();
    let mut extended = CtdInstance::build(&mut index, &k1);
    extended.extend(&mut index, &k2);
    let mut seen = softhw::hypergraph::FxHashSet::default();
    let stratified: Vec<BagId> = k1
        .iter()
        .chain(&k2)
        .copied()
        .filter(|&id| seen.insert(id))
        .collect();
    let cold = CtdInstance::build(&mut index, &stratified);
    assert!(cold.num_bags() > 64 * 64, "{} bags", cold.num_bags());
    assert_eq!(extended.num_bags(), cold.num_bags());
    assert_eq!(extended.blocks.len(), cold.blocks.len());

    let all_true = vec![true; cold.blocks.len()];
    let mut buf = Vec::new();
    for b in 0..cold.blocks.len() {
        let table = viable_table(&cold, b);
        let direct: Vec<usize> = (0..cold.num_bags())
            .filter(|&x| cold.is_basis_with(b, x, &all_true, &mut buf))
            .collect();
        let viable: Vec<usize> = table.iter().map(|&(x, _)| x).collect();
        assert_eq!(viable, direct, "block {b}");
        assert_eq!(viable_table(&extended, b), table, "block {b}");
    }
    let (ext_sat, cold_sat) = (extended.satisfy(), cold.satisfy());
    assert_eq!(ext_sat.accept, cold_sat.accept);
    assert_eq!(ext_sat.basis, cold_sat.basis);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn worklist_satisfaction_equals_jacobi(h in small_hypergraph(), k in 1usize..3) {
        let limits = SoftLimits::default();
        let bags = soft_bags_with(&h, k, &limits).unwrap();
        let inst = CtdInstance::new(&h, &bags);
        let fast = inst.satisfy();
        let slow = inst.satisfy_jacobi();
        prop_assert_eq!(fast.accept, slow.accept);
        // Full table equality: same satisfied set, same bases, same
        // timestamps — the worklist's frontier waves must replay the
        // Jacobi rounds exactly.
        prop_assert_eq!(&fast.basis, &slow.basis);
        // And the certified decompositions validate.
        if let Some(td) = inst.extract(&fast) {
            prop_assert_eq!(td.validate(&h), Ok(()));
            prop_assert!(td.is_comp_nf(&h));
        }
    }

    #[test]
    fn viable_candidate_tables_match_reference_predicate(
        h in small_hypergraph(),
        k in 1usize..3,
    ) {
        // The precomputed (comp-group, closure-group) tables must induce
        // exactly the candidates the from-first-principles predicate
        // accepts under an all-satisfied state.
        let limits = SoftLimits::default();
        let bags = soft_bags_with(&h, k, &limits).unwrap();
        let inst = CtdInstance::new(&h, &bags);
        let all_true = vec![true; inst.blocks.len()];
        let mut buf = Vec::new();
        for b in 0..inst.blocks.len() {
            let viable: Vec<usize> = inst.viable_candidates(b).map(|(x, _)| x).collect();
            let direct: Vec<usize> = (0..inst.num_bags())
                .filter(|&x| inst.is_basis_with(b, x, &all_true, &mut buf))
                .collect();
            prop_assert_eq!(viable, direct, "block {}", b);
        }
    }

    #[test]
    fn incremental_extension_bit_identical_to_cold_build(h in small_hypergraph()) {
        // Grow one instance through the width strata k = 1, 2, 3 and, at
        // every step, compare against a cold build over the same bag
        // sequence: the satisfaction tables — bases AND timestamps —
        // must be bit-identical, and the viable-candidate tables must
        // match entry for entry. Under `--features parallel` the same
        // assertions certify serial/parallel identity of the extension
        // path.
        let limits = SoftLimits::default();
        let mut index = BlockIndex::new(&h);
        let mut inst = CtdInstance::empty(&mut index);
        let mut sat = inst.satisfy();
        let mut stratified: Vec<BagId> = Vec::new();
        let mut seen = softhw::hypergraph::FxHashSet::default();
        for k in 1..=3usize {
            let ids = soft_bag_ids(&mut index, k, &limits).unwrap();
            let delta = inst.extend(&mut index, &ids);
            for &id in &ids {
                if seen.insert(id) {
                    stratified.push(id);
                }
            }
            let cold = CtdInstance::build(&mut index, &stratified);
            let cold_sat = cold.satisfy();
            let fresh_sat = inst.satisfy();
            prop_assert_eq!(fresh_sat.accept, cold_sat.accept, "k = {}", k);
            prop_assert_eq!(&fresh_sat.basis, &cold_sat.basis, "k = {}", k);
            prop_assert_eq!(inst.num_bags(), cold.num_bags());
            prop_assert_eq!(inst.blocks.len(), cold.blocks.len());
            for b in 0..cold.blocks.len() {
                let (ext, cld) = (viable_table(&inst, b), viable_table(&cold, b));
                prop_assert_eq!(&ext, &cld, "viable candidates of block {} at k = {}", b, k);
            }
            // The state-reusing DP: same satisfied set and accept as a
            // fresh run on the extended instance; previously satisfied
            // blocks keep bases and timestamps verbatim.
            let inc_sat = inst.satisfy_extend(&sat, &delta);
            prop_assert_eq!(inc_sat.accept, fresh_sat.accept);
            let inc_set: Vec<bool> = inc_sat.basis.iter().map(Option::is_some).collect();
            let fresh_set: Vec<bool> = fresh_sat.basis.iter().map(Option::is_some).collect();
            prop_assert_eq!(inc_set, fresh_set, "satisfied set at k = {}", k);
            for b in 0..delta.prev_blocks {
                if sat.basis[b].is_some() {
                    prop_assert_eq!(inc_sat.basis[b], sat.basis[b], "kept state of block {}", b);
                }
            }
            if let Some(td) = inst.extract(&inc_sat) {
                prop_assert_eq!(td.validate(&h), Ok(()));
                prop_assert!(td.is_comp_nf(&h));
            }
            sat = inc_sat;
        }
    }

    #[test]
    fn incremental_sweep_decisions_equal_cold_decisions(h in small_hypergraph()) {
        let limits = SoftLimits::default();
        let mut index = BlockIndex::new(&h);
        let mut sweep = IncrementalSweep::new();
        for k in 1..=3usize {
            let inc = sweep.decide_leq(&mut index, k, &limits).unwrap();
            let cold = softhw::core::shw::shw_leq_with(&h, k, &limits).unwrap();
            prop_assert_eq!(inc.is_some(), cold.is_some(), "k = {}", k);
            if let Some(td) = inc {
                prop_assert_eq!(td.validate(&h), Ok(()));
                prop_assert!(td.is_comp_nf(&h));
            }
        }
        // The public sweep entry points agree on the width.
        let (w_inc, td_inc) = softhw::core::shw::shw(&h);
        let (w_reb, _) = softhw::core::shw::shw_rebuild(&h);
        prop_assert_eq!(w_inc, w_reb);
        prop_assert_eq!(td_inc.validate(&h), Ok(()));
    }

    #[test]
    fn cross_query_cache_equals_cold_runs(h in small_hypergraph(), k in 1usize..3) {
        let limits = SoftLimits::default();
        let bags = soft_bags_with(&h, k, &limits).unwrap();
        let cold = softhw::core::candidate_td(&h, &bags);
        let mut cache = DecompCache::new();
        let warm1 = cache.candidate_td(&h, &bags);
        let warm2 = cache.candidate_td(&h, &bags);
        match (&cold, &warm1, &warm2) {
            (Some(c), Some(w1), Some(w2)) => {
                prop_assert_eq!(c.bags(), w1.bags());
                prop_assert_eq!(w1.bags(), w2.bags());
            }
            (None, None, None) => {}
            _ => prop_assert!(false, "cold and cached runs disagree"),
        }
        prop_assert_eq!(cache.stats().instance_hits, 1);
        // Width sweeps through the cache agree with the cold solver.
        let (cold_w, _) = softhw::core::shw::shw(&h);
        let (warm_w, warm_td) = cache.shw(&h);
        prop_assert_eq!(cold_w, warm_w);
        prop_assert_eq!(warm_td.validate(&h), Ok(()));
    }
}
