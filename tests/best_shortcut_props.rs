//! Algorithm 2 is one pass in dependency order for every evaluator. Under
//! a pure constraint it settles each block with its first passing
//! candidate in (wave, bag) order, because `Trivial` and `ConCov` say
//! they do not rank (`TdEvaluator::ranks`). These properties pin that
//! short-cut as invisible:
//! - `best_on` answers exactly (its `Debug` string, and the witness bag
//!   for bag) what it answers when the same evaluator claims to rank,
//!   which makes every block replay its waves with a full scan of its
//!   viable candidates in each;
//! - a `ConCov` verdict is Algorithm 1's on the `ConCov`-filtered bags
//!   (the paper's `ConCov-Soft_{H,k}`);
//! - under `Trivial`, `best_on` is Algorithm 1 itself: its verdict is
//!   `satisfy`'s and its witness `decide`'s, since both run one pass and
//!   one extractor.

use softhw::core::candidate_td;
use softhw::core::constraints::{concov_filter, ConCov, Trivial};
use softhw::core::ctd::CtdInstance;
use softhw::core::ctd_opt::{best_on, TdEvaluator};
use softhw::core::soft::soft_bags;
use softhw::core::{Budget, DecompError, TreeDecomposition};
use softhw::hypergraph::random::{random_hypergraph, RandomConfig};
use softhw::hypergraph::{named, BitSet, Hypergraph, HypergraphBuilder};

/// Forwards everything to the wrapped evaluator but claims to rank, so
/// the DP takes none of its short-cuts.
struct ClaimsToRank<'a, E>(&'a E);

impl<E: TdEvaluator> TdEvaluator for ClaimsToRank<'_, E> {
    type Summary = E::Summary;
    type Local = E::Local;

    fn local(
        &self,
        h: &Hypergraph,
        bag: &BitSet,
        budget: &Budget,
    ) -> Result<Option<E::Local>, DecompError> {
        self.0.local(h, bag, budget)
    }

    fn combine(
        &self,
        bag: &BitSet,
        local: &E::Local,
        children: &[E::Summary],
    ) -> Option<E::Summary> {
        self.0.combine(bag, local, children)
    }

    fn better(&self, a: &E::Summary, b: &E::Summary) -> bool {
        self.0.better(a, b)
    }

    fn ranks(&self) -> bool {
        true
    }
}

/// A random connected shape with `edges` edges (a bridge may add one).
fn random_connected(edges: usize, seed: u64) -> Hypergraph {
    let config = RandomConfig {
        num_vertices: edges + 1,
        num_edges: edges,
        min_arity: 2,
        max_arity: 3,
        connect: true,
    };
    random_hypergraph(&config, seed)
}

/// The disjoint union of `a` and `b`.
fn disjoint_union(a: &Hypergraph, b: &Hypergraph) -> Hypergraph {
    let mut builder = HypergraphBuilder::new();
    for (side, h) in [("a", a), ("b", b)] {
        for e in 0..h.num_edges() {
            let names: Vec<String> = h
                .edge(e)
                .iter()
                .map(|v| format!("{side}{}", h.vertex_name(v)))
                .collect();
            let names: Vec<&str> = names.iter().map(String::as_str).collect();
            builder.edge(&format!("{side}{}", h.edge_name(e)), &names);
        }
    }
    builder.build()
}

/// The paper's shapes plus random connected and disconnected ones of at
/// most 10 edges.
fn shapes() -> Vec<(String, Hypergraph)> {
    let mut shapes = vec![
        ("h2".to_string(), named::h2()),
        ("cycle(5)".to_string(), named::cycle(5)),
        ("cycle(6)".to_string(), named::cycle(6)),
        ("grid(3,3)".to_string(), named::grid(3, 3)),
    ];
    for seed in 0..32u64 {
        let edges = 3 + seed as usize % 8;
        let h = if seed % 3 == 0 {
            let left = 2 + seed as usize % 4;
            let right = random_connected(edges.saturating_sub(left).max(2), seed + 1000);
            disjoint_union(&random_connected(left, seed), &right)
        } else {
            random_connected(edges, seed)
        };
        if h.num_edges() <= 10 {
            shapes.push((format!("random seed {seed}"), h));
        }
    }
    shapes
}

fn assert_invisible<E: TdEvaluator>(inst: &CtdInstance, eval: &E, what: &str) {
    assert!(!eval.ranks(), "{what}: a pure constraint does not rank");
    let short = best_on(inst, eval);
    let full = best_on(inst, &ClaimsToRank(eval));
    assert_eq!(format!("{short:?}"), format!("{full:?}"), "{what}");
    // `Debug` shows a witness's shape; its bags must match too.
    let witness = |best: Option<(TreeDecomposition, _)>| best.map(|(td, _)| td);
    assert_eq!(witness(short), witness(full), "{what}");
}

#[test]
fn the_first_passing_candidate_is_what_the_full_scan_keeps() {
    let shapes = shapes();
    assert!(shapes.len() >= 30, "{} shapes", shapes.len());
    let (mut disconnected, mut verdicts) = (0, [0usize; 2]);
    for (name, h) in &shapes {
        disconnected += !h.is_connected() as usize;
        for k in 1..=3 {
            let bags = soft_bags(h, k);
            let inst = CtdInstance::new(h, &bags);
            let what = format!("{name}, k={k}");
            assert_invisible(&inst, &Trivial, &format!("Trivial, {what}"));
            assert_invisible(&inst, &ConCov { k }, &format!("ConCov, {what}"));
            // Under `Trivial`, Algorithm 2 is Algorithm 1: the same
            // verdict and the same witness.
            let trivial = best_on(&inst, &Trivial).map(|(td, ())| td);
            assert_eq!(trivial.is_some(), inst.satisfy().accept, "Trivial, {what}");
            assert_eq!(trivial, inst.decide(), "Trivial witness, {what}");
            let concov = best_on(&inst, &ConCov { k }).is_some();
            let filtered = candidate_td(h, &concov_filter(h, k, &bags)).is_some();
            assert_eq!(
                concov, filtered,
                "ConCov verdict against Algorithm 1, {what}"
            );
            verdicts[concov as usize] += 1;
        }
    }
    assert!(disconnected >= 5, "{disconnected} disconnected shapes");
    assert!(verdicts[0] >= 10 && verdicts[1] >= 10, "{verdicts:?}");
}
