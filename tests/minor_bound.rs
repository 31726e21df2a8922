//! Soundness of the minor bound `solve` runs on each reduced piece before
//! it builds anything (`softhw_core::reduce_solve`): a min-degree minor
//! of degree `d` refutes `shw ≤ k` whenever `d ≥ b_k`, the sum of the `k`
//! largest edge sizes. On every input here, every certificate passes
//! `check_minor`, the bound never refutes a width the raw solve accepts,
//! and the solve with the reduction (and so the bound) answers as the raw
//! one at every width.

use softhw::core::{solve, SolveSpec};
use softhw::hypergraph::minor::{check_minor, min_cover_width, min_degree_minor};
use softhw::hypergraph::random::{random_hypergraph, RandomConfig};
use softhw::hypergraph::{named, reduce, Hypergraph};
use std::ops::RangeInclusive;

/// Shape `j` of `tests/pass_pins.rs`' cold pool: 12, 14 or 16 edges
/// (5 : 3 : 2), as many vertices, arity 2–3, connected.
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

/// The least width the bound leaves open on `h`: the largest
/// [`min_cover_width`] over the pieces `solve` runs it on (`h` itself
/// when the reduction leaves it alone), each certificate checked.
fn bound(h: &Hypergraph, what: &str) -> usize {
    let red = reduce(h);
    let pieces: Vec<&Hypergraph> = if red.is_trivial() {
        vec![h]
    } else {
        red.pieces.iter().map(|p| &p.h).collect()
    };
    pieces
        .into_iter()
        .map(|piece| {
            let m = min_degree_minor(piece);
            assert_eq!(check_minor(piece, &m), Ok(()), "{what}");
            min_cover_width(piece, &m)
        })
        .max()
        .unwrap_or(1)
}

fn accepts(h: &Hypergraph, spec: SolveSpec) -> bool {
    let solved = solve(h, &spec).expect("an unbudgeted decision");
    solved
        .accepted()
        .expect("bounded specs answer with a decision")
}

/// The `shw ≤ k` verdicts at `widths`, with or without the reduction
/// (and so the bound). Each `k` is decided up to the first yes; every
/// wider `k` is a yes as well, since `shw ≤ k` implies `shw ≤ k + 1`.
fn verdicts(h: &Hypergraph, widths: RangeInclusive<usize>, reduce: bool) -> Vec<bool> {
    let mut yes = false;
    widths
        .map(|k| {
            yes = yes || accepts(h, SolveSpec::shw_leq(k).with_reduce(reduce));
            yes
        })
        .collect()
}

/// Checks the bound on `h` at `widths` and returns the least width it
/// leaves open.
fn check(h: &Hypergraph, widths: RangeInclusive<usize>, what: &str) -> usize {
    let floor = bound(h, what);
    let raw = verdicts(h, widths.clone(), false);
    assert_eq!(verdicts(h, widths.clone(), true), raw, "{what}");
    for (k, yes) in widths.zip(raw) {
        assert!(
            !(yes && k < floor),
            "{what}: the bound refutes k = {k}, which the raw solve accepts"
        );
    }
    floor
}

/// The pool at `k = 1..4`, the named shapes at `k = 1..4`, and the grids
/// at `k = 1, 2`: the bound refutes `k = 2` on `grid(5, 5)` and
/// `grid(6, 6)` and nothing wider (a raw `k = 3` decision on `grid(6, 6)`
/// takes seconds in a debug build).
#[test]
fn the_minor_bound_never_refutes_an_accepted_width() {
    for j in 0..64 {
        check(&cold_shape(j), 1..=4, &format!("cold shape {j}"));
    }
    let grids: Vec<usize> = (2..=6)
        .map(|n| check(&named::grid(n, n), 1..=2, &format!("grid({n}, {n})")))
        .collect();
    assert_eq!(grids, [2, 2, 2, 3, 3]);
    for (h, what) in [
        (named::h2(), "H2"),
        (named::cycle(5), "C5"),
        (named::four_cycle_query(), "four-cycle query"),
        (named::triangle_star(3), "triangle star"),
    ] {
        check(&h, 1..=4, what);
    }
    // Too large to solve here: the bound must leave the paper's `shw`
    // open (Appendix A.2: 3 for H3, 4 for H'3).
    assert!(bound(&named::h3(), "H3") <= 3);
    assert!(bound(&named::h3_prime(), "H'3") <= 4);
}
