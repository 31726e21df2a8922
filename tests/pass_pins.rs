//! Pins what Algorithm 1's pass and Algorithm 2's pass answer: the
//! satisfaction tables (every block's basis and timestamp), the witnesses
//! of the exact `shw` sweep, `best_on` under `Trivial` and `ConCov { k }`,
//! and `best_on` under the ranking `ShallowCyc { d: 1 }` and `BagCost` by
//! bag size. Each pin is an FxHash of the `Debug` strings of
//! every answer, in order, and of each witness's rendered tree, bag by
//! bag (a tree's `Debug` gives its node count and root only), so a change
//! to how the pass reads or orders candidates that moves one basis, one
//! timestamp or one witness bag fails here.
//!
//! The shapes are the cold serving family: 64 connected random shapes of
//! 12, 14 or 16 edges (5 : 3 : 2) with as many vertices as edges and
//! edges of 2–3 vertices, at `k = 1..3`; and `grid(n, n)` for `2 ≤ n ≤ 6`
//! at `k = 2` (`grid(1, 1)` has no edge).

use softhw::core::constraints::{BagCost, ConCov, ShallowCyc, Trivial};
use softhw::core::ctd::CtdInstance;
use softhw::core::ctd_opt::best_on;
use softhw::core::soft::soft_bags;
use softhw::core::td::TreeDecomposition;
use softhw::core::{solve, SolveSpec, Solved};
use softhw::hypergraph::fxhash::FxHasher;
use softhw::hypergraph::random::{random_hypergraph, RandomConfig};
use softhw::hypergraph::{named, BitSet, Hypergraph};
use std::hash::Hasher;

/// Shape `j` of the fixed pool.
fn cold_shape(j: u64) -> Hypergraph {
    let edges = [12, 12, 12, 12, 12, 14, 14, 14, 16, 16][j as usize % 10];
    let config = RandomConfig {
        num_vertices: edges,
        num_edges: edges,
        min_arity: 2,
        max_arity: 3,
        connect: true,
    };
    random_hypergraph(&config, 4_100 + j)
}

/// Every `(hypergraph, k)` the pins run on, in order.
fn cases() -> Vec<(Hypergraph, usize)> {
    let mut cases = Vec::new();
    for j in 0..64 {
        let h = cold_shape(j);
        for k in 1..=3 {
            cases.push((h.clone(), k));
        }
    }
    cases.extend((2..=6).map(|n| (named::grid(n, n), 2)));
    cases
}

/// Feeds the `Debug` string of `value` into `hasher`.
fn feed(hasher: &mut FxHasher, value: &impl std::fmt::Debug) {
    hasher.write(format!("{value:?}").as_bytes());
    hasher.write_u8(0xff);
}

/// Feeds `td`'s rendered tree, bag by bag, when there is one.
fn feed_tree(hasher: &mut FxHasher, h: &Hypergraph, td: Option<&TreeDecomposition>) {
    if let Some(td) = td {
        feed(hasher, &td.render(h));
    }
}

#[test]
fn satisfaction_tables_are_pinned() {
    let mut hasher = FxHasher::default();
    for (h, k) in cases() {
        let inst = CtdInstance::new(&h, &soft_bags(&h, k));
        feed(&mut hasher, &inst.satisfy());
    }
    assert_eq!(hasher.finish(), 18_069_129_118_631_748_888);
}

/// The exact `shw` of every pool shape and of `grid(n, n)` for `2 ≤ n ≤
/// 4`, with its witness, off the raw sweep (no reduction, so every
/// decision's satisfaction table is the one its witness is read from).
/// Larger grids are left out: their sweep passes `k = 3` and trips the
/// default `max_bags`.
#[test]
fn shw_sweep_witnesses_are_pinned() {
    let mut hasher = FxHasher::default();
    let spec = SolveSpec::shw().with_reduce(false);
    let grids = (2..=4).map(|n| named::grid(n, n));
    for h in (0..64).map(cold_shape).chain(grids) {
        let solved = solve(&h, &spec).unwrap();
        let Solved::ShwWidth(_, td) = &solved else {
            panic!("exact shw specs answer with a width");
        };
        feed(&mut hasher, &solved);
        feed_tree(&mut hasher, &h, Some(td));
    }
    assert_eq!(hasher.finish(), 10_487_878_822_701_082_252);
}

#[test]
fn best_under_trivial_and_concov_is_pinned() {
    let mut hasher = FxHasher::default();
    for (h, k) in cases() {
        let inst = CtdInstance::new(&h, &soft_bags(&h, k));
        for best in [best_on(&inst, &Trivial), best_on(&inst, &ConCov { k })] {
            feed(&mut hasher, &best);
            feed_tree(&mut hasher, &h, best.as_ref().map(|b| &b.0));
        }
    }
    assert_eq!(hasher.finish(), 114_081_003_256_014_943);
}

/// Under an evaluator that ranks, each block keeps the candidate no other
/// one beats over its children's final values, the least in (wave, bag)
/// order among equals; this pins those witnesses, which all validate.
#[test]
fn ranked_bests_are_pinned() {
    let mut hasher = FxHasher::default();
    let size = BagCost::new(|bag: &BitSet| bag.len() as f64);
    for (h, k) in cases() {
        let inst = CtdInstance::new(&h, &soft_bags(&h, k));
        let shallow = best_on(&inst, &ShallowCyc { d: 1 });
        let cost = best_on(&inst, &size);
        let witnesses = [shallow.as_ref().map(|b| &b.0), cost.as_ref().map(|b| &b.0)];
        for td in witnesses.into_iter().flatten() {
            assert_eq!(td.validate(&h), Ok(()));
        }
        feed(&mut hasher, &shallow);
        feed_tree(&mut hasher, &h, witnesses[0]);
        feed(&mut hasher, &cost);
        feed_tree(&mut hasher, &h, witnesses[1]);
    }
    assert_eq!(hasher.finish(), 12_048_141_424_914_256_118);
}
