//! Pins what Section 6's prototype reads off an instance besides the
//! best decomposition: random samples ([`sample_random`]), the ranked
//! enumeration ([`enumerate_all`]) and its prefix ([`top_n`]). Each pin
//! is an FxHash of the `Debug` strings of every answer, in order, over a
//! fixed set of shapes and widths, so a change to how trees are read off
//! the satisfaction table that alters one bag, one child order or one
//! random draw fails here.

use rand::rngs::SmallRng;
use rand::SeedableRng;
use softhw::core::constraints::{BagCost, ConCov, ShallowCyc, Trivial};
use softhw::core::ctd_opt::{enumerate_all, sample_random, top_n, EnumerateOptions, TdEvaluator};
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
                    feed(&mut hasher, &sample_random(h, &bags, &mut rng));
                }
            }
        }
    }
    assert_eq!(hasher.finish(), 16_415_240_994_479_854_717);
}

/// The hash of `enumerate_all` (default options) or, with `top`, of
/// `top_n(10)`, under `Trivial`, `BagCost` by bag size,
/// `ShallowCyc { d: 1 }` and `ConCov { k }`: on C5, C6 and [`apart`] at
/// `k = 2, 3` and on the random shape of seed 5 at `k = 2`. Enumeration
/// rebuilds a block's alternatives under every candidate that reaches
/// it, so its time grows with the number of paths through the blocks:
/// H2 and `grid(3, 3)` take minutes in a debug build and are left to
/// [`samples_are_pinned`].
fn enumeration_hash(top: bool) -> u64 {
    fn ranked<E: TdEvaluator>(h: &Hypergraph, bags: &[BitSet], eval: &E, top: bool) -> String {
        if top {
            format!("{:?}", top_n(h, bags, eval, 10))
        } else {
            format!(
                "{:?}",
                enumerate_all(h, bags, eval, &EnumerateOptions::default())
            )
        }
    }
    let cases = [
        (named::cycle(5), 3),
        (named::cycle(6), 3),
        (apart(), 3),
        (random_shape(5), 2),
    ];
    let size = |bag: &BitSet| bag.len() as f64;
    let mut hasher = FxHasher::default();
    for (h, top_k) in &cases {
        for k in 2..=*top_k {
            let bags = soft_bags(h, k);
            feed(&mut hasher, &ranked(h, &bags, &Trivial, top));
            feed(&mut hasher, &ranked(h, &bags, &BagCost::new(size), top));
            feed(&mut hasher, &ranked(h, &bags, &ShallowCyc { d: 1 }, top));
            feed(&mut hasher, &ranked(h, &bags, &ConCov { k }, top));
        }
    }
    hasher.finish()
}

#[test]
fn enumerations_are_pinned() {
    assert_eq!(enumeration_hash(false), 7_278_268_430_932_776_232);
}

#[test]
fn top_ten_lists_are_pinned() {
    assert_eq!(enumeration_hash(true), 13_040_480_782_648_361_121);
}
