//! Property-based tests of the reduction pipeline (proptest): solving
//! through `reduce` (subsumed-edge removal, degree-1 peeling, component
//! splitting) must agree with raw solving on the original hypergraph,
//! and every lifted witness must validate against the *raw* input.

use proptest::prelude::*;
use softhw::core::{hw, shw, solve, SolveSpec, Solved};
use softhw::hypergraph::random::{random_hypergraph, RandomConfig};
use softhw::hypergraph::reduce::reduce;
use softhw::hypergraph::{parse_hypergraph, Hypergraph, HypergraphBuilder};

fn small_hypergraph() -> impl Strategy<Value = Hypergraph> {
    random_connected(4..8, 3..8)
}

/// [`small_hypergraph`] with about twice the edges per vertex, so that
/// most inputs keep a cyclic core through `reduce`.
fn dense_hypergraph() -> impl Strategy<Value = Hypergraph> {
    random_connected(4..8, 6..14)
}

fn random_connected(
    vertices: std::ops::Range<usize>,
    edges: std::ops::Range<usize>,
) -> impl Strategy<Value = Hypergraph> {
    (vertices, edges, 0u64..5000).prop_map(|(nv, ne, seed)| {
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

/// Disjoint union of `a` and `b` with fresh vertex/edge names — the
/// component-splitting stimulus (random generation keeps its inputs
/// connected).
fn disjoint_union(a: &Hypergraph, b: &Hypergraph) -> Hypergraph {
    let mut bld = HypergraphBuilder::new();
    for (tag, h) in [("a", a), ("b", b)] {
        let ids: Vec<usize> = (0..h.num_vertices())
            .map(|v| bld.vertex(&format!("{tag}{v}")))
            .collect();
        for e in 0..h.num_edges() {
            let vs: Vec<usize> = h.edge(e).iter().map(|v| ids[v]).collect();
            bld.edge_ids(&format!("{tag}e{e}"), &vs);
        }
    }
    bld.build()
}

/// `h` plus a copy of each of its first two edges and a strict subset of
/// edge 0 — all subsumed, so every width is unchanged.
fn with_subsumed_edges(h: &Hypergraph) -> Hypergraph {
    let mut bld = HypergraphBuilder::new();
    for v in 0..h.num_vertices() {
        bld.vertex(h.vertex_name(v));
    }
    for e in 0..h.num_edges() {
        let vs: Vec<usize> = h.edge(e).iter().collect();
        bld.edge_ids(h.edge_name(e), &vs);
    }
    for e in 0..h.num_edges().min(2) {
        let vs: Vec<usize> = h.edge(e).iter().collect();
        bld.edge_ids(&format!("dup{e}"), &vs);
        if vs.len() > 1 {
            bld.edge_ids(&format!("sub{e}"), &vs[1..]);
        }
    }
    bld.build()
}

/// The exact width `spec` asks for, swept on `h` itself: the oracle the
/// reduce-aware answers are held to.
fn raw_width(h: &Hypergraph, spec: SolveSpec) -> usize {
    let solved = solve(h, &spec.with_reduce(false)).expect("unbudgeted raw sweep");
    solved.width().expect("exact specs answer with a width")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn reduced_shw_matches_raw_sweep_oracle(h in small_hypergraph()) {
        // `shw::shw` solves through the reduction pipeline; the sweep on
        // the raw input is the oracle.
        let raw_w = raw_width(&h, SolveSpec::shw());
        let (red_w, td) = shw::shw(&h);
        prop_assert_eq!(red_w, raw_w, "reduce changed shw");
        // The lifted witness is a decomposition of the *raw* hypergraph.
        prop_assert_eq!(td.validate(&h), Ok(()));
    }

    #[test]
    fn reduced_hw_matches_raw_oracle(h in small_hypergraph()) {
        let raw_w = raw_width(&h, SolveSpec::hw());
        let (red_w, ghd) = hw::hw(&h);
        prop_assert_eq!(red_w, raw_w, "reduce changed hw");
        prop_assert!(ghd.is_hd(&h), "lifted hw witness is not an HD of the raw input");
    }

    #[test]
    fn subsumed_edges_never_change_widths(h in small_hypergraph()) {
        // Adding duplicate and subset edges leaves shw/hw unchanged; the
        // pipeline drops them, and the witness must still cover the
        // padded input (the oracle here is the solver on the unpadded
        // hypergraph).
        let padded = with_subsumed_edges(&h);
        let red = reduce(&padded);
        prop_assert!(red.stats.edges_dropped >= padded.num_edges() - h.num_edges(),
            "subsumption missed a duplicated/subset edge");
        let (w, td) = shw::shw(&padded);
        prop_assert_eq!(w, shw::shw(&h).0);
        prop_assert_eq!(td.validate(&padded), Ok(()));
        let (hw_w, ghd) = hw::hw(&padded);
        prop_assert_eq!(hw_w, hw::hw(&h).0);
        prop_assert!(ghd.is_hd(&padded));
    }

    #[test]
    fn disconnected_inputs_split_solve_and_lift(
        a in small_hypergraph(),
        b in small_hypergraph(),
    ) {
        // Component splitting: the union's width is the max over the
        // pieces (solved independently as their own oracles), and the
        // lifted witness spans the whole disconnected input.
        let u = disjoint_union(&a, &b);
        let red = reduce(&u);
        // Peeling can dissolve an acyclic half entirely, so the piece
        // *count* is not fixed — but no surviving piece may ever span
        // both halves (a-vertices precede b-vertices in the union's id
        // space).
        for piece in &red.pieces {
            let in_a = piece.vertex_map.iter().filter(|&&v| v < a.num_vertices()).count();
            prop_assert!(in_a == 0 || in_a == piece.vertex_map.len(),
                "a reduced piece spans both components");
        }
        let expect = raw_width(&a, SolveSpec::shw()).max(raw_width(&b, SolveSpec::shw()));
        let (w, td) = shw::shw(&u);
        prop_assert_eq!(w, expect);
        prop_assert_eq!(td.validate(&u), Ok(()));
        let expect_hw = raw_width(&a, SolveSpec::hw()).max(raw_width(&b, SolveSpec::hw()));
        let (hw_w, ghd) = hw::hw(&u);
        prop_assert_eq!(hw_w, expect_hw);
        prop_assert!(ghd.is_hd(&u));
    }

    #[test]
    fn irreducible_pieces_of_two_or_more_edges_need_width_two(
        a in dense_hypergraph(),
        b in small_hypergraph(),
    ) {
        // `reduce` runs the GYO rules (subsumed-edge removal, degree-1
        // peeling) to a fixpoint, which is empty exactly on α-acyclic
        // inputs. A piece with two or more edges is therefore α-cyclic,
        // so `ghw ≥ 2` and, as `ghw ≤ shw ≤ hw`, both `k = 1` decisions
        // are a foregone "no" — the ground a width sweep could start at 2
        // on.
        let u = disjoint_union(&a, &b);
        for piece in reduce(&u).pieces.iter().filter(|p| p.h.num_edges() >= 2) {
            prop_assert_eq!(
                solve(&piece.h, &SolveSpec::shw_leq(1)),
                Ok(Solved::ShwDecision(None))
            );
            prop_assert_eq!(
                solve(&piece.h, &SolveSpec::hw_leq(1)),
                Ok(Solved::HwDecision(None))
            );
        }
    }

    #[test]
    fn reduction_bookkeeping_is_consistent(h in small_hypergraph()) {
        // Structural sanity of the trace itself: pieces account for
        // every surviving edge, and the maps point back into the raw
        // input's id spaces.
        let red = reduce(&h);
        let surviving: usize = red.pieces.iter().map(|p| p.h.num_edges()).sum();
        prop_assert!(surviving <= h.num_edges());
        for piece in &red.pieces {
            for &v in &piece.vertex_map {
                prop_assert!(v < h.num_vertices());
            }
            for &e in &piece.edge_map {
                prop_assert!(e < h.num_edges());
            }
        }
    }
}

/// The shipped HyperBench files as one more input: both parse, reduce to
/// something, and are rejected at `k = 1` whichever way the spec sets
/// the reduce switch (the `k = 2` verdicts cost seconds and stay in
/// CI's `hyperbench-k2` job).
#[test]
fn shipped_hyperbench_files_parse_reduce_and_reject_width_one() {
    for name in ["grid24x24.hg", "rand1200.hg"] {
        let path = format!("{}/data/hyperbench/{name}", env!("CARGO_MANIFEST_DIR"));
        let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
        let h = parse_hypergraph(&text).unwrap_or_else(|e| panic!("{path}: {e}"));
        assert!(
            !reduce(&h).pieces.is_empty(),
            "{name}: nothing left to solve"
        );
        for on in [true, false] {
            let answer = solve(&h, &SolveSpec::shw_leq(1).with_reduce(on));
            assert!(
                matches!(answer, Ok(Solved::ShwDecision(None))),
                "{name}, reduce {on}: expected a rejection, got {answer:?}"
            );
        }
    }
}
