//! Pins what Section 6's prototype reads off an instance besides the
//! best decomposition: random samples ([`sample_random`]) and the ranked
//! enumeration ([`top_n`]), long and short. Each pin is an FxHash of
//! every answer, in order, over a fixed set of shapes and widths. Every
//! pin feeds each tree bag by bag, so a change that alters one bag, one
//! child order or one rank fails there.

use rand::rngs::SmallRng;
use rand::SeedableRng;
use softhw::core::constraints::{BagCost, ConCov, ShallowCyc, Trivial};
use softhw::core::ctd_opt::{sample_random, top_n, TdEvaluator};
use softhw::core::soft::soft_bags;
use softhw::hypergraph::fxhash::FxHasher;
use softhw::hypergraph::random::{random_hypergraph, RandomConfig};
use softhw::hypergraph::{named, BitSet, Hypergraph, HypergraphBuilder};
use std::hash::Hasher;

/// A triangle beside a 4-cycle: two root blocks, so two trees chained
/// under one root.
fn apart() -> Hypergraph {
    let mut b = HypergraphBuilder::new();
    for (name, ends) in [
        ("t0", ["a", "b"]),
        ("t1", ["b", "c"]),
        ("t2", ["c", "a"]),
        ("q0", ["w", "x"]),
        ("q1", ["x", "y"]),
        ("q2", ["y", "z"]),
        ("q3", ["z", "w"]),
    ] {
        b.edge(name, &ends);
    }
    b.build()
}

/// A seeded random shape with `6 + seed % 5` edges; odd seeds may come
/// out disconnected.
fn random_shape(seed: u64) -> Hypergraph {
    let edges = 6 + seed as usize % 5;
    let config = RandomConfig {
        num_vertices: edges + 1,
        num_edges: edges,
        min_arity: 2,
        max_arity: 3,
        connect: seed.is_multiple_of(2),
    };
    random_hypergraph(&config, seed)
}

/// Feeds the `Debug` string of `value` into `hasher`.
fn feed(hasher: &mut FxHasher, value: &impl std::fmt::Debug) {
    hasher.write(format!("{value:?}").as_bytes());
    hasher.write_u8(0xff);
}

/// 8 draws for each of the `SmallRng` seeds 0–4 on H2, C5, C6,
/// `grid(3, 3)`, [`apart`] and the random shapes of seeds 0–7, at
/// `k = 2, 3`.
#[test]
fn samples_are_pinned() {
    let mut shapes = vec![
        named::h2(),
        named::cycle(5),
        named::cycle(6),
        named::grid(3, 3),
        apart(),
    ];
    shapes.extend((0..8).map(random_shape));
    let mut hasher = FxHasher::default();
    for h in &shapes {
        for k in 2..=3 {
            let bags = soft_bags(h, k);
            for seed in 0..5 {
                let mut rng = SmallRng::seed_from_u64(seed);
                for _ in 0..8 {
                    let sample = sample_random(h, &bags, &mut rng);
                    feed(&mut hasher, &sample);
                    if let Some(td) = &sample {
                        feed(&mut hasher, &td.render(h));
                    }
                }
            }
        }
    }
    assert_eq!(hasher.finish(), 17_901_458_996_728_819_161);
}

/// The disconnected 8-edge shape of seed 5, on which the stitched root
/// block rejects most combinations of its components' trees under
/// `ShallowCyc`.
fn apart_random() -> Hypergraph {
    let config = RandomConfig {
        num_vertices: 9,
        num_edges: 8,
        min_arity: 2,
        max_arity: 3,
        connect: false,
    };
    random_hypergraph(&config, 5)
}

/// The hash of `top_n(10_000)` or, with `top`, of `top_n(10)`, under
/// `Trivial`, `BagCost` by bag size, `ShallowCyc { d: 1 }` and
/// `ConCov { k }`: on C5, C6 and [`apart`] at `k = 2, 3`, and at `k = 2`
/// on H2, `grid(3, 3)`, [`apart_random`] and the random shape of seed 5.
/// Each answer is fed as its rendered tree and its summary, so one bag
/// or one rank moved within a tie changes the hash. Each block's list
/// of derivations is built once, however many parents reach the block,
/// so H2 and `grid(3, 3)`, with 3.3e5 and 1.6e6 CTDs, fit here: this
/// file's tests take about 6 s in a debug build.
fn enumeration_hash(top: bool) -> u64 {
    fn ranked<E: TdEvaluator>(
        hasher: &mut FxHasher,
        h: &Hypergraph,
        bags: &[BitSet],
        eval: &E,
        top: bool,
    ) {
        let n = if top { 10 } else { 10_000 };
        let answers = top_n(h, bags, eval, n);
        hasher.write_usize(answers.len());
        for (td, summary) in &answers {
            feed(hasher, &td.render(h));
            feed(hasher, summary);
        }
    }
    let cases = [
        (named::cycle(5), 3),
        (named::cycle(6), 3),
        (apart(), 3),
        (random_shape(5), 2),
        (named::h2(), 2),
        (named::grid(3, 3), 2),
        (apart_random(), 2),
    ];
    let size = |bag: &BitSet| bag.len() as f64;
    let mut hasher = FxHasher::default();
    for (h, top_k) in &cases {
        for k in 2..=*top_k {
            let bags = soft_bags(h, k);
            ranked(&mut hasher, h, &bags, &Trivial, top);
            ranked(&mut hasher, h, &bags, &BagCost::new(size), top);
            ranked(&mut hasher, h, &bags, &ShallowCyc { d: 1 }, top);
            ranked(&mut hasher, h, &bags, &ConCov { k }, top);
        }
    }
    hasher.finish()
}

#[test]
fn enumerations_are_pinned() {
    assert_eq!(enumeration_hash(false), 3_937_810_059_203_577_118);
}

#[test]
fn top_ten_lists_are_pinned() {
    assert_eq!(enumeration_hash(true), 11_697_724_874_575_521_457);
}
