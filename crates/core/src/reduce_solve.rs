//! Reduce-before-solve for `shw`: run the width-preserving simplification
//! pipeline of [`softhw_hypergraph::reduce()`], solve each reduced piece
//! independently, and lift the piece witnesses back to one valid tree
//! decomposition of the *original* hypergraph.
//!
//! Widths recombine by max (with a floor of 1 once any reduction event
//! fired: every peeled or dropped edge still needs a covering node). The
//! lift replays the reduction trace **backwards**, maintaining two
//! invariants at every step:
//!
//! * the tree under construction is a valid decomposition of the
//!   intermediate hypergraph state (the state just after the event being
//!   undone), and
//! * `cover[e]` points at a node whose bag contains edge `e`'s current
//!   vertex set, flagged *owned* when the lift created it.
//!
//! Undoing a peel of `v` from host `e` grows `e`'s owned node in place —
//! safe because a peeled vertex occurs in no other bag at that point —
//! or adds one leaf under `e`'s cover node. Undoing a subsumption drop
//! `d ⊆ f` adds a leaf with `d`'s set under `f`'s cover node (a subset
//! of that bag, so connectedness is preserved). Growing in place rather
//! than chaining one leaf per peel is what makes the lifted witness of a
//! fully-peelable (α-acyclic) hypergraph a genuine join tree: one node
//! per surviving edge, each coverable by a single edge.
//!
//! Before a piece is solved, a lower bound may answer it. Every bag of
//! `Soft_{H,k}` lies inside some `⋃λ` with `|λ| ≤ k` (Definition 3), so it
//! holds at most `b_k` vertices, `b_k` being the sum of the `k` largest
//! edge sizes, and a CTD over `Soft_{H,k}` has width at most `b_k − 1`.
//! [`min_degree_minor`] finds a minor of the piece's primal graph with
//! minimum degree `d`, so `d ≤ tw`. If `d ≥ b_k`, the width `b_k − 1` is
//! less than `d ≤ tw`, which no tree decomposition can be, and `shw ≤ k`
//! is refuted. So a piece's floor is the least `k` with `b_k > d`
//! ([`min_cover_width`]), and at least 2 on an α-cyclic piece
//! (`width_floor`): a bounded `k` below it answers "no" with nothing
//! built, and an exact sweep starts there. The minor is the certificate
//! of that "no", checked by [`check_minor`] under `debug_assert`, as the
//! lifted witness of a "yes" is. It runs with the reduction, so a raw
//! solve (`spec.reduce` off) skips it too.
//!
//! `hw` solves the input as sent. Its `λ` may only name edges of the
//! input, so a subsumed edge a reduction drops can be the one an optimal
//! HD needs: `H2` plus the edge `{2, a}` has `hw` 2, and 3 without that
//! edge (see the [`reduce`](mod@softhw_hypergraph::reduce) module docs).
//! The `hw` search already decomposes each connected component on its
//! own, so splitting buys it nothing either.
//!
//! This module is also the **one solver front**. [`solve`] is the cold
//! door, a `match` on the class: an `shw` spec runs `solve_shw`, the
//! reduce → answer each piece → lift body, whose per-piece leaf decides
//! with [`shw_leq_indexed_budgeted`] against one index per piece; an `hw`
//! spec runs `solve_hw`, a sweep of [`hw_leq_budgeted`] over the widths
//! the spec asks about. Both share the width range and the answer
//! helpers, and nothing outlives the call.
//! [`crate::cache::DecompCache::solve`] runs the same two bodies with its
//! memo probes as leaves. Every other way in is [`solve`] under a fixed
//! [`SolveSpec`]: `shw::{shw, shw_leq}` and `hw::{hw, hw_leq}` name the
//! default corners, and a raw solve or explicit limits are
//! [`SolveSpec::with_reduce`] and [`SolveSpec::with_limits`] — no second
//! spelling of either exists.

use crate::error::DecompError;
use crate::ghd::Ghd;
use crate::hw::hw_leq_budgeted;
use crate::shw::{new_index, shw_leq_indexed_budgeted, soft_instance_on};
use crate::spec::{SolveClass, SolveSpec, Solved};
use crate::td::TreeDecomposition;
use softhw_hypergraph::reduce::{reduce, ReduceEvent, ReducePiece, Reduction};
use softhw_hypergraph::{check_minor, min_cover_width, min_degree_minor, BitSet, Hypergraph};
use std::ops::RangeInclusive;

struct Lifter<'a> {
    h: &'a Hypergraph,
    red: &'a Reduction,
    td: Option<TreeDecomposition>,
    /// Per original edge: `(node, owned)` with `bag(node) ⊇` the edge's
    /// current set in the backward replay.
    cover: Vec<Option<(usize, bool)>>,
}

impl<'a> Lifter<'a> {
    fn new(h: &'a Hypergraph, red: &'a Reduction) -> Self {
        Lifter {
            h,
            red,
            td: None,
            cover: vec![None; red.num_edges],
        }
    }

    /// Adds a node: the root if none exists yet, otherwise a child of
    /// `parent`, defaulting to the root.
    fn add_node(&mut self, parent: Option<usize>, bag: BitSet) -> usize {
        match &mut self.td {
            None => {
                debug_assert!(parent.is_none());
                self.td = Some(TreeDecomposition::new(bag));
                0
            }
            Some(td) => {
                let p = parent.unwrap_or(td.root());
                td.add_child(p, bag)
            }
        }
    }

    /// Grafts one solved piece into the global tree (piece 0's root
    /// becomes the global root; later pieces hang under it — the pieces
    /// are vertex-disjoint, so any attachment point is valid) and
    /// records a cover node for every piece edge.
    fn stitch(&mut self, piece: &ReducePiece, ptd: &TreeDecomposition) {
        let remap = |bag: &BitSet| -> BitSet {
            let mut out = BitSet::empty(self.h.num_vertices());
            for v in bag.iter() {
                out.insert(piece.vertex_map[v]);
            }
            out
        };
        let mut node_map = vec![usize::MAX; ptd.num_nodes()];
        for u in ptd.preorder() {
            let parent = ptd.parent(u).map(|p| node_map[p]);
            node_map[u] = self.add_node(parent, remap(ptd.bag(u)));
        }
        for (pe, &re) in piece.edge_map.iter().enumerate() {
            let eset = piece.h.edge(pe);
            let n = (0..ptd.num_nodes())
                .find(|&u| eset.is_subset(ptd.bag(u)))
                .expect("piece witness covers every piece edge");
            self.cover[re] = Some((node_map[n], false));
        }
    }

    /// Replays the reduction trace backwards, restoring every peeled
    /// vertex and dropped edge into the tree.
    fn replay(&mut self) {
        for ev in self.red.events.iter().rev() {
            let (edge, parent, bag) = match ev {
                ReduceEvent::Peel {
                    vertex,
                    edge,
                    host_before,
                } => match self.cover[*edge] {
                    Some((node, true)) => {
                        // The peeled vertex occurs in no bag yet, so
                        // growing its host's owned node keeps every
                        // vertex's occurrence set a subtree.
                        self.td
                            .as_mut()
                            .expect("cover implies nodes")
                            .grow_bag(node, *vertex);
                        continue;
                    }
                    Some((node, false)) => (*edge, Some(node), host_before),
                    // The edge is currently empty (fully peeled): this
                    // event restored its last vertex, which is fresh, so
                    // the node can attach anywhere.
                    None => (*edge, None, host_before),
                },
                ReduceEvent::Drop {
                    edge,
                    subsumer,
                    set,
                } => {
                    let (anchor, _) = self.cover[*subsumer]
                        .expect("subsumer is alive, hence placed, when a drop is undone");
                    (*edge, Some(anchor), set)
                }
            };
            let leaf = self.add_node(parent, bag.clone());
            self.cover[edge] = Some((leaf, true));
        }
    }
}

/// One tree decomposition of `h` out of one per piece of `red`, by
/// replaying the reduction trace backwards (`red` is non-trivial).
fn lift(h: &Hypergraph, red: &Reduction, piece_tds: &[TreeDecomposition]) -> TreeDecomposition {
    assert_eq!(piece_tds.len(), red.pieces.len());
    let mut lifter = Lifter::new(h, red);
    for (piece, ptd) in red.pieces.iter().zip(piece_tds) {
        lifter.stitch(piece, ptd);
    }
    lifter.replay();
    lifter
        .td
        .expect("non-trivial reduction lifts at least one node")
}

/// The widths a solve asks about on `h`: `floor..=|E|` for an exact spec,
/// `min(k, |E|)` alone for a bounded one (`Soft_{H,k}` and an HD's `λ` do
/// not change past `|E|`, so an absurd `k` sizes nothing), and none when
/// that `k` is below `floor`.
fn widths(h: &Hypergraph, bound: Option<usize>, floor: usize) -> RangeInclusive<usize> {
    let top = h.num_edges().max(1);
    bound.map_or(floor..=top, |k| {
        let k = k.min(top);
        k.max(floor)..=k
    })
}

/// The answer to a spec with bound `bound`, out of the first width found
/// and its witness: a decision for a bounded spec (a witness on yes), the
/// width and witness for an exact one.
fn answer<W>(
    bound: Option<usize>,
    found: Option<(usize, W)>,
    width: fn(usize, W) -> Solved,
    decision: fn(Option<W>) -> Solved,
) -> Result<Solved, DecompError> {
    match bound {
        Some(_) => Ok(decision(found.map(|(_, witness)| witness))),
        // `shw` always accepts at `|E|`; `hw` may not, on a degenerate input.
        None => found
            .map(|(w, witness)| width(w, witness))
            .ok_or_else(|| DecompError::internal("no width up to |E(H)| admits a decomposition")),
    }
}

/// The least width a piece `reduce` left may have. `reduce` runs the GYO
/// rules (degree-1 peeling and subsumed-edge removal) to a fixpoint, which
/// is empty exactly on α-acyclic inputs, so a piece with two or more
/// non-empty edges is α-cyclic and has `shw ≥ ghw ≥ 2`. Past that, the
/// [`min_cover_width`] of the piece's min-degree minor (see the module
/// docs), whose certificate is asserted as the lifted witness is.
fn width_floor(piece: &Hypergraph) -> usize {
    if piece.edges().iter().filter(|e| !e.is_empty()).count() < 2 {
        return 1;
    }
    let minor = min_degree_minor(piece);
    debug_assert_eq!(check_minor(piece, &minor), Ok(()), "the minor certificate");
    min_cover_width(piece, &minor).max(2)
}

/// The `shw` pipeline. `leaf` answers one irreducible connected piece
/// with the first width in a range it accepts and its witness, the range
/// being [`widths`] from [`width_floor`] with `spec.reduce` and from 1
/// without. A bounded `k` below the floor answers "no" without asking
/// `leaf`. With `spec.reduce` and a
/// non-trivial reduction every piece is answered, the budget checked
/// before each, the widths recombined by max (floor 1) and the witnesses
/// lifted; otherwise `h` itself is answered. A piece that accepts no
/// width answers "no".
pub(crate) fn solve_shw(
    h: &Hypergraph,
    spec: &SolveSpec,
    mut leaf: impl FnMut(
        &Hypergraph,
        RangeInclusive<usize>,
    ) -> Result<Option<(usize, TreeDecomposition)>, DecompError>,
) -> Result<Solved, DecompError> {
    let mut leaf = |piece: &Hypergraph| {
        let floor = if spec.reduce { width_floor(piece) } else { 1 };
        let widths = widths(piece, spec.bound, floor);
        if widths.is_empty() {
            return Ok(None);
        }
        leaf(piece, widths)
    };
    let answer = |found| answer(spec.bound, found, Solved::ShwWidth, Solved::ShwDecision);
    let red = spec.reduce.then(|| reduce(h));
    let Some(red) = red.filter(|red| !red.is_trivial()) else {
        return answer(leaf(h)?);
    };
    let mut width = 1;
    let mut witnesses = Vec::with_capacity(red.pieces.len());
    for piece in &red.pieces {
        spec.budget.check()?;
        let Some((w, witness)) = leaf(&piece.h)? else {
            return answer(None);
        };
        width = width.max(w);
        witnesses.push(witness);
    }
    let lifted = lift(h, &red, &witnesses);
    debug_assert_eq!(lifted.validate(h), Ok(()), "the lifted witness");
    answer(Some((width, lifted)))
}

/// The `hw` sweep: the first of [`widths`] from 1 that `decide` accepts on
/// `h` as sent, made an [`answer`]. `spec.reduce` is not read.
pub(crate) fn solve_hw(
    h: &Hypergraph,
    spec: &SolveSpec,
    decide: impl FnMut(usize) -> Result<Option<Ghd>, DecompError>,
) -> Result<Solved, DecompError> {
    let found = first_width(widths(h, spec.bound, 1), decide)?;
    answer(spec.bound, found, Solved::HwWidth, Solved::HwDecision)
}

/// The first of `widths` that `decide` accepts, with its witness.
pub(crate) fn first_width<W>(
    widths: impl IntoIterator<Item = usize>,
    mut decide: impl FnMut(usize) -> Result<Option<W>, DecompError>,
) -> Result<Option<(usize, W)>, DecompError> {
    for k in widths {
        if let Some(witness) = decide(k)? {
            return Ok(Some((k, witness)));
        }
    }
    Ok(None)
}

/// Answers one width query cold: the entry point over every
/// (class × exactness × budget × reduction × limits) corner of a
/// [`SolveSpec`], keeping nothing between calls. An `shw` piece gets one
/// [`softhw_hypergraph::BlockIndex`]: every width but the last decides on
/// it, and the last hands it to its instance build, which releases it as
/// it goes ([`crate::shw::soft_instance`]); `hw` builds none and reduces
/// nothing. A budget or limit trip is the error; nothing partial is
/// returned.
pub fn solve(h: &Hypergraph, spec: &SolveSpec) -> Result<Solved, DecompError> {
    let (limits, budget) = (&spec.limits, &spec.budget);
    match spec.class {
        SolveClass::Shw => solve_shw(h, spec, |piece, widths| {
            let (first, last) = widths.into_inner();
            let mut index = new_index(piece);
            if let found @ Some(_) = first_width(first..last, |k| {
                shw_leq_indexed_budgeted(&mut index, k, limits, budget)
            })? {
                return Ok(found);
            }
            let instance = soft_instance_on(index, last, limits, budget)?;
            Ok(instance.try_decide_budgeted(budget)?.map(|td| (last, td)))
        }),
        SolveClass::Hw => solve_hw(h, spec, |k| hw_leq_budgeted(h, k, budget)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hw::hw;
    use crate::shw::shw;
    use softhw_hypergraph::HypergraphBuilder;

    fn acyclic_chain() -> Hypergraph {
        let mut b = HypergraphBuilder::new();
        b.edge("e1", &["a", "b", "c"]);
        b.edge("e2", &["c", "d"]);
        b.edge("e3", &["d", "e"]);
        b.build()
    }

    #[test]
    fn acyclic_chain_lifts_to_a_join_tree() {
        let h = acyclic_chain();
        let (ws, td) = shw(&h);
        assert_eq!(ws, 1);
        assert_eq!(td.validate(&h), Ok(()));
        // Fully peeled, the lift grows one node per edge: a join tree.
        let g = Ghd::from_td(&h, td, 1).expect("every bag is one edge");
        assert!(g.is_hd(&h), "{}", g.render(&h));
        let (w, g) = hw(&h);
        assert_eq!(w, 1);
        assert!(g.is_hd(&h));
    }

    #[test]
    fn disconnected_input_is_solved_piecewise() {
        let mut b = HypergraphBuilder::new();
        for (p, vs) in [("a", ["a1", "a2", "a3"]), ("b", ["b1", "b2", "b3"])] {
            b.edge(&format!("{p}_e1"), &[vs[0], vs[1]]);
            b.edge(&format!("{p}_e2"), &[vs[1], vs[2]]);
            b.edge(&format!("{p}_e3"), &[vs[2], vs[0]]);
        }
        let h = b.build();
        // The raw `shw` sweep cannot decompose disconnected inputs at
        // all; the reduce path splits and recombines. The `hw` search
        // decomposes each component of the input itself.
        let (w, td) = shw(&h);
        assert_eq!(w, 2, "each triangle has shw 2");
        assert_eq!(td.validate(&h), Ok(()));
        let (wh, g) = hw(&h);
        assert_eq!(wh, 2);
        assert!(g.is_hd(&h));
    }

    #[test]
    fn pendant_and_subsumed_edges_do_not_change_width() {
        // A 6-cycle (shw = hw = 2) with a pendant path and a subsumed
        // edge attached: `reduce` strips them for `shw`, `hw` solves
        // them as sent, and both widths stay 2.
        let mut b = HypergraphBuilder::new();
        for i in 0..6 {
            b.edge(
                &format!("c{i}"),
                &[&format!("v{i}"), &format!("v{}", (i + 1) % 6)],
            );
        }
        b.edge("sub", &["v0", "v1"]); // duplicate of c0
        b.edge("p1", &["v3", "p"]);
        b.edge("p2", &["p", "q"]);
        let h = b.build();
        let (w, td) = shw(&h);
        assert_eq!(w, 2);
        assert_eq!(td.validate(&h), Ok(()));
        let (wh, g) = hw(&h);
        assert_eq!(wh, 2);
        assert!(g.is_hd(&h));
    }

    #[test]
    fn decisions_agree_with_exact_widths() {
        let accepts = |h: &Hypergraph, spec: SolveSpec| match solve(h, &spec).unwrap() {
            Solved::ShwDecision(td) => td.map(|td| td.validate(h)),
            Solved::HwDecision(g) => g.map(|g| g.validate(h)),
            exact => panic!("bounded specs answer with a decision, got {exact:?}"),
        };
        let h = acyclic_chain();
        assert_eq!(accepts(&h, SolveSpec::shw_leq(1)), Some(Ok(())));
        assert_eq!(accepts(&h, SolveSpec::hw_leq(1)), Some(Ok(())));
        let mut b = HypergraphBuilder::new();
        for i in 0..5 {
            b.edge(
                &format!("c{i}"),
                &[&format!("v{i}"), &format!("v{}", (i + 1) % 5)],
            );
        }
        b.edge("pendant", &["v0", "x"]);
        let h = b.build();
        assert_eq!(
            accepts(&h, SolveSpec::shw_leq(1)),
            None,
            "a 5-cycle needs 2"
        );
        assert_eq!(accepts(&h, SolveSpec::hw_leq(1)), None, "a 5-cycle needs 2");
        assert_eq!(accepts(&h, SolveSpec::shw_leq(2)), Some(Ok(())));
        assert_eq!(accepts(&h, SolveSpec::hw_leq(2)), Some(Ok(())));
    }
}
