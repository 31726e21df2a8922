//! Property-based tests of the reduction pipeline (proptest): solving
//! `shw` through `reduce` (subsumed-edge removal, degree-1 peeling,
//! component splitting) must agree with raw solving on the original
//! hypergraph, and every lifted witness must validate against the *raw*
//! input. `hw` solves the input as sent, so the reduce switch must not
//! change an `hw` answer at all.

use proptest::prelude::*;
use softhw::core::ghd::Ghd;
use softhw::core::{hw, shw, solve, SolveSpec, Solved};
use softhw::hypergraph::minor::{check_minor, min_degree_minor, Minor, MinorError};
use softhw::hypergraph::random::{random_hypergraph, RandomConfig};
use softhw::hypergraph::reduce::reduce;
use softhw::hypergraph::{named, parse_hypergraph, Hypergraph, HypergraphBuilder};

fn small_hypergraph() -> impl Strategy<Value = Hypergraph> {
    random_connected(4..8, 3..8)
}

/// Arity 1–3, connected or not: at this density pendant, subsumed and
/// split-off edges are common, so both reductions really fire.
fn clutter_hypergraph() -> impl Strategy<Value = Hypergraph> {
    (4usize..9, 3usize..9, 0u64..5000, 0usize..2).prop_map(|(nv, ne, seed, connect)| {
        random_hypergraph(
            &RandomConfig {
                num_vertices: nv,
                num_edges: ne,
                min_arity: 1,
                max_arity: 3,
                connect: connect == 1,
            },
            seed,
        )
    })
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
/// each — all subsumed, so `shw` is unchanged and `hw` can only fall.
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
    fn the_reduce_switch_leaves_hw_answers_alone(h in clutter_hypergraph(), k in 1usize..4) {
        // `hw` solves the input as sent: exact or bounded, the answer
        // with the switch on is the raw one, witness included.
        for spec in [SolveSpec::hw(), SolveSpec::hw_leq(k)] {
            let raw = solve(&h, &spec.clone().with_reduce(false));
            prop_assert_eq!(solve(&h, &spec.with_reduce(true)), raw);
        }
        let (_, ghd) = hw::hw(&h);
        prop_assert!(ghd.is_hd(&h), "hw witness is not an HD of the input");
    }

    #[test]
    fn subsumed_edges_keep_shw_and_never_raise_hw(h in small_hypergraph()) {
        // Adding duplicate and subset edges leaves shw unchanged: the
        // pipeline drops them, and the witness must still cover the
        // padded input (the oracle here is the solver on the unpadded
        // hypergraph). They can lower hw, whose λ may use them (`H2`
        // plus `{2, a}` has hw 2, `H2` 3), but never raise it: an HD of
        // `h` is one of the padded input.
        let padded = with_subsumed_edges(&h);
        let red = reduce(&padded);
        prop_assert!(red.stats.edges_dropped >= padded.num_edges() - h.num_edges(),
            "subsumption missed a duplicated/subset edge");
        let (w, td) = shw::shw(&padded);
        prop_assert_eq!(w, shw::shw(&h).0);
        prop_assert_eq!(td.validate(&padded), Ok(()));
        let (hw_w, ghd) = hw::hw(&padded);
        prop_assert!(hw_w <= hw::hw(&h).0, "a subedge raised hw to {}", hw_w);
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
        // are a foregone "no" — the ground the solvers' `shw` sweeps start
        // at 2 on.
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
    fn every_piece_of_reduce_has_two_edges_and_rejects_width_one(
        h in clutter_hypergraph(),
        a in dense_hypergraph(),
        b in small_hypergraph(),
    ) {
        // What lets an `shw` sweep start at width 2 on the pieces of
        // `reduce`, and a bounded `k = 1` answer "no" there unbuilt: no
        // piece is left with fewer than two non-empty edges, and
        // `Soft_{piece,1}`, built and decided raw, admits no
        // decomposition of any piece.
        for u in [h, disjoint_union(&a, &b)] {
            for piece in reduce(&u).pieces {
                let edges = piece.h.edges();
                prop_assert!(edges.len() >= 2 && edges.iter().all(|e| !e.is_empty()));
                prop_assert_eq!(
                    solve(&piece.h, &SolveSpec::shw_leq(1).with_reduce(false)),
                    Ok(Solved::ShwDecision(None))
                );
            }
        }
    }

    #[test]
    fn bounded_decisions_reduce_and_agree_with_exact_widths(h in clutter_hypergraph()) {
        // `shw ≤ k` answers through the same reduce → pieces → lift body
        // as the exact width, `hw ≤ k` through the same sweep: each
        // accepts exactly from the exact width on, with a witness of
        // width ≤ k, and on a connected input says what the raw decision
        // says.
        let (shw_w, hw_w) = (shw::shw(&h).0, hw::hw(&h).0);
        for k in 1..=3 {
            let Ok(Solved::ShwDecision(td)) = solve(&h, &SolveSpec::shw_leq(k)) else {
                panic!("an shw ≤ k decision under default limits answers");
            };
            prop_assert_eq!(td.is_some(), k >= shw_w, "shw {} at k = {}", shw_w, k);
            if let Some(td) = &td {
                prop_assert_eq!(td.validate(&h), Ok(()));
                prop_assert!(Ghd::from_td(&h, td.clone(), k).is_some(), "a bag needs > {} edges", k);
            }
            let Ok(Solved::HwDecision(g)) = solve(&h, &SolveSpec::hw_leq(k)) else {
                panic!("an unbudgeted hw ≤ k decision answers");
            };
            prop_assert_eq!(g.is_some(), k >= hw_w, "hw {} at k = {}", hw_w, k);
            if let Some(g) = &g {
                prop_assert_eq!(g.validate(&h), Ok(()));
                prop_assert!(g.is_hd(&h) && g.width() <= k, "k = {}:\n{}", k, g.render(&h));
            }
            if h.is_connected() {
                for spec in [SolveSpec::shw_leq(k), SolveSpec::hw_leq(k)] {
                    let raw = solve(&h, &spec.clone().with_reduce(false)).unwrap();
                    let reduced = solve(&h, &spec).unwrap();
                    prop_assert_eq!(raw.accepted(), reduced.accepted(), "{:?}", spec);
                }
            }
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

fn shipped_hyperbench(name: &str) -> Hypergraph {
    let path = format!("{}/data/hyperbench/{name}", env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    parse_hypergraph(&text).unwrap_or_else(|e| panic!("{path}: {e}"))
}

/// The shipped HyperBench files as one more input: both parse, reduce to
/// something, and are rejected at `k = 1` whichever way the spec sets
/// the reduce switch (the `k = 2` verdicts cost seconds and stay in
/// CI's `hyperbench-k2` job).
#[test]
fn shipped_hyperbench_files_parse_reduce_and_reject_width_one() {
    for name in ["grid24x24.hg", "rand1200.hg"] {
        let h = shipped_hyperbench(name);
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

/// The sum of the two largest edge sizes: no bag of `Soft_{H,2}` is
/// larger, so a minor of minimum degree at least this refutes `shw ≤ 2`.
fn two_largest_edges(h: &Hypergraph) -> usize {
    let mut sizes: Vec<usize> = h.edges().iter().map(|e| e.len()).collect();
    sizes.sort_unstable_by(|a, b| b.cmp(a));
    sizes.iter().take(2).sum()
}

/// How far the minor bound reaches: degree 5 on the 20x20 grid, the
/// benchmark's input, and on each reduced piece of both shipped files a
/// degree past `b_2`, so `softhw-cli --width 2` answers both from the
/// bound. The exact degrees are pinned.
#[test]
fn the_minor_bound_refutes_width_two_on_the_shipped_files() {
    let grid = named::grid(20, 20);
    let m = min_degree_minor(&grid);
    assert_eq!(check_minor(&grid, &m), Ok(()));
    assert_eq!((m.degree, two_largest_edges(&grid)), (5, 4));
    let mut degrees = Vec::new();
    for name in ["grid24x24.hg", "rand1200.hg"] {
        for piece in reduce(&shipped_hyperbench(name)).pieces {
            let m = min_degree_minor(&piece.h);
            assert_eq!(check_minor(&piece.h, &m), Ok(()), "{name}");
            assert!(
                m.degree >= two_largest_edges(&piece.h),
                "{name}: {}",
                m.degree
            );
            degrees.push(m.degree);
        }
    }
    assert_eq!(degrees, [5, 39]);
}

/// Four forgeries of a valid certificate on the 6x6 grid, each of which
/// `check_minor` must reject: two branch sets merged, one set's id spread
/// over two halves the primal graph does not join, an id out of range, and
/// the claimed degree raised by one.
#[test]
fn the_minor_checker_rejects_forged_certificates() {
    let h = named::grid(6, 6);
    let m = min_degree_minor(&h);
    assert_eq!(check_minor(&h, &m), Ok(()));
    assert!(m.sets >= 3 && m.degree >= 2, "{m:?}");
    // Merge set 0 into a set it touches; the last id fills the gap, so
    // no id is unused. The merged set is connected, but the sets that
    // touched both now touch one fewer.
    let next = (0..h.num_vertices())
        .filter(|&v| m.branch[v] == 0)
        .flat_map(|v| h.closed_neighbourhood(v).iter())
        .map(|w| m.branch[w])
        .find(|&b| b != 0 && b != Minor::OUTSIDE)
        .expect("set 0 touches another set");
    let mut merged = m.clone();
    for b in merged.branch.iter_mut() {
        if *b == 0 {
            *b = next;
        }
    }
    for b in merged.branch.iter_mut() {
        if *b == m.sets - 1 {
            *b = 0;
        }
    }
    merged.sets -= 1;
    assert!(
        matches!(check_minor(&h, &merged), Err(MinorError::LowDegree(_))),
        "{:?}",
        check_minor(&h, &merged)
    );
    // Two sets no edge joins given one id.
    let (a, b) = (0..m.sets)
        .flat_map(|a| (0..m.sets).map(move |b| (a, b)))
        .find(|&(a, b)| {
            a < b
                && !(0..h.num_vertices()).any(|v| {
                    m.branch[v] == a && h.closed_neighbourhood(v).iter().any(|w| m.branch[w] == b)
                })
        })
        .expect("two sets that do not touch");
    let mut split = m.clone();
    for v in split.branch.iter_mut() {
        if *v == b {
            *v = a;
        } else if *v == m.sets - 1 {
            *v = b;
        }
    }
    split.sets -= 1;
    assert_eq!(
        check_minor(&h, &split),
        Err(MinorError::Disconnected(a as usize))
    );
    let mut out_of_range = m.clone();
    out_of_range.branch[7] = m.sets;
    assert_eq!(
        check_minor(&h, &out_of_range),
        Err(MinorError::OutOfRange(7))
    );
    let raised = Minor {
        degree: m.degree + 1,
        ..m.clone()
    };
    assert!(matches!(
        check_minor(&h, &raised),
        Err(MinorError::LowDegree(_))
    ));
}
