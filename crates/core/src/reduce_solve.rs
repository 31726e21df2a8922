//! Reduce-before-solve: run the width-preserving simplification pipeline
//! of [`softhw_hypergraph::reduce()`], solve each reduced piece
//! independently, and lift the piece witnesses back to one valid
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
//! This module is also the **one solver pipeline**. `solve_with` is the
//! only reduce → answer each piece → lift body in the crate, for exact
//! widths and `width ≤ k` decisions alike, parameterised by the witness
//! kind (`Witness`: which reduction is sound, how pieces lift, what
//! "valid" means, which [`Solved`] it makes) and by a per-piece leaf. It
//! has two front doors, each a `match` on the class. [`solve`] is the
//! cold one: every piece is answered with the leaf decisions
//! ([`shw_leq_indexed_budgeted`] against one index per piece,
//! [`hw_leq_budgeted`]) and nothing outlives the call.
//! [`crate::cache::DecompCache::solve`] runs the same body with its memo
//! probes as leaves. Every other way in is
//! [`solve`] under a fixed [`SolveSpec`]: `shw::{shw, shw_leq}` and
//! `hw::{hw, hw_leq}` name the default corners, and a raw solve or
//! explicit limits are [`SolveSpec::with_reduce`] and
//! [`SolveSpec::with_limits`] — no second spelling of either exists.

use crate::error::DecompError;
use crate::ghd::Ghd;
use crate::hw::hw_leq_budgeted;
use crate::shw::{new_index, shw_leq_indexed_budgeted, soft_instance_on};
use crate::spec::{SolveClass, SolveSpec, Solved};
use crate::td::TreeDecomposition;
use softhw_hypergraph::reduce::{reduce, reduce_no_peel, ReduceEvent, ReducePiece, Reduction};
use softhw_hypergraph::{BitSet, Hypergraph};
use std::ops::RangeInclusive;

/// Where a lifted node came from: copied out of a solved piece, or
/// created by the replay for a specific original edge (its bag stays a
/// subset of that edge, so `λ = {edge}` covers it).
#[derive(Clone, Copy, Debug)]
enum NodeOrigin {
    /// Node `node` of the witness for piece `piece`.
    Piece { piece: usize, node: usize },
    /// Created by the replay; owned by original edge `edge`.
    Owned { edge: usize },
}

struct Lifter<'a> {
    h: &'a Hypergraph,
    red: &'a Reduction,
    td: Option<TreeDecomposition>,
    /// Parallel to the nodes of `td`, in creation order.
    origin: Vec<NodeOrigin>,
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
            origin: Vec::new(),
            cover: vec![None; red.num_edges],
        }
    }

    /// Adds a node (the root if none exists yet, otherwise a child of
    /// `parent`, defaulting to the root) and records its origin.
    fn add_node(&mut self, parent: Option<usize>, bag: BitSet, origin: NodeOrigin) -> usize {
        let id = match &mut self.td {
            None => {
                debug_assert!(parent.is_none());
                self.td = Some(TreeDecomposition::new(bag));
                0
            }
            Some(td) => {
                let p = parent.unwrap_or(td.root());
                td.add_child(p, bag)
            }
        };
        debug_assert_eq!(id, self.origin.len());
        self.origin.push(origin);
        id
    }

    /// Grafts one solved piece into the global tree (piece 0's root
    /// becomes the global root; later pieces hang under it — the pieces
    /// are vertex-disjoint, so any attachment point is valid) and
    /// records a cover node for every piece edge.
    fn stitch(&mut self, piece_idx: usize, piece: &ReducePiece, ptd: &TreeDecomposition) {
        let remap = |bag: &BitSet| -> BitSet {
            let mut out = BitSet::empty(self.h.num_vertices());
            for v in bag.iter() {
                out.insert(piece.vertex_map[v]);
            }
            out
        };
        let mut node_map = vec![usize::MAX; ptd.num_nodes()];
        for u in ptd.preorder() {
            let origin = NodeOrigin::Piece {
                piece: piece_idx,
                node: u,
            };
            let parent = ptd.parent(u).map(|p| node_map[p]);
            node_map[u] = self.add_node(parent, remap(ptd.bag(u)), origin);
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
            match ev {
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
                    }
                    Some((node, false)) => {
                        let leaf = self.add_node(
                            Some(node),
                            host_before.clone(),
                            NodeOrigin::Owned { edge: *edge },
                        );
                        self.cover[*edge] = Some((leaf, true));
                    }
                    None => {
                        // The edge is currently empty (fully peeled):
                        // this event restored its last vertex, which is
                        // fresh, so the node can attach anywhere.
                        let leaf = self.add_node(
                            None,
                            host_before.clone(),
                            NodeOrigin::Owned { edge: *edge },
                        );
                        self.cover[*edge] = Some((leaf, true));
                    }
                },
                ReduceEvent::Drop {
                    edge,
                    subsumer,
                    set,
                } => {
                    let (anchor, _) = self.cover[*subsumer]
                        .expect("subsumer is alive, hence placed, when a drop is undone");
                    let leaf =
                        self.add_node(Some(anchor), set.clone(), NodeOrigin::Owned { edge: *edge });
                    self.cover[*edge] = Some((leaf, true));
                }
            }
        }
    }

    fn finish(self) -> (TreeDecomposition, Vec<NodeOrigin>) {
        let td = self
            .td
            .expect("non-trivial reduction lifts at least one node");
        (td, self.origin)
    }
}

fn lift(
    h: &Hypergraph,
    red: &Reduction,
    piece_tds: &[&TreeDecomposition],
) -> (TreeDecomposition, Vec<NodeOrigin>) {
    assert_eq!(piece_tds.len(), red.pieces.len());
    let mut lifter = Lifter::new(h, red);
    for (i, (piece, ptd)) in red.pieces.iter().zip(piece_tds).enumerate() {
        lifter.stitch(i, piece, ptd);
    }
    lifter.replay();
    lifter.finish()
}

/// A width witness the pipeline can reduce for, lift, check and answer
/// with. The two measures differ in exactly these places.
pub(crate) trait Witness: Sized {
    /// Whether [`Witness::reduce`] runs the GYO rules (degree-1 peeling
    /// and subsumed-edge removal) to a fixpoint, which is empty exactly on
    /// α-acyclic inputs: then a piece it leaves, or an input it leaves
    /// untouched, with two or more non-empty edges is α-cyclic, so its
    /// `ghw`, and every width here above it, is at least 2.
    const GYO: bool;
    /// The width-preserving reduction that is sound for this witness.
    fn reduce(h: &Hypergraph) -> Reduction;
    /// One witness for `h` out of one per piece of `red`, by replaying
    /// the reduction trace backwards (`red` is non-trivial).
    fn lift(h: &Hypergraph, red: &Reduction, pieces: &[Self]) -> Self;
    /// Whether this is a valid witness for `h`.
    fn holds_on(&self, h: &Hypergraph) -> bool;
    /// The exact answer (width and witness) and the `width ≤ k` one.
    const WIDTH: fn(usize, Self) -> Solved;
    const DECISION: fn(Option<Self>) -> Solved;
}

impl Witness for TreeDecomposition {
    const GYO: bool = true;
    const WIDTH: fn(usize, Self) -> Solved = Solved::ShwWidth;
    const DECISION: fn(Option<Self>) -> Solved = Solved::ShwDecision;
    fn reduce(h: &Hypergraph) -> Reduction {
        reduce(h)
    }

    fn lift(h: &Hypergraph, red: &Reduction, pieces: &[Self]) -> Self {
        lift(h, red, &pieces.iter().collect::<Vec<_>>()).0
    }

    fn holds_on(&self, h: &Hypergraph) -> bool {
        self.validate(h).is_ok()
    }
}

/// Degree-1 peeling is sound for tree decompositions but re-enters
/// peeled vertices *below* nodes that may carry their host edge in `λ`,
/// violating the HD special condition — so `hw` restricts itself to
/// subsumption and splitting ([`reduce_no_peel`]). Piece `λ`-labels map
/// through the piece's edge map; replay-created nodes get
/// `λ = {owning edge}` (their bags are subsets of that edge).
impl Witness for Ghd {
    const GYO: bool = false;
    const WIDTH: fn(usize, Self) -> Solved = Solved::HwWidth;
    const DECISION: fn(Option<Self>) -> Solved = Solved::HwDecision;
    fn reduce(h: &Hypergraph) -> Reduction {
        reduce_no_peel(h)
    }

    fn lift(h: &Hypergraph, red: &Reduction, pieces: &[Self]) -> Self {
        let tds: Vec<&TreeDecomposition> = pieces.iter().map(|g| &g.td).collect();
        let (td, origin) = lift(h, red, &tds);
        let lambdas = origin
            .iter()
            .map(|o| match *o {
                NodeOrigin::Piece { piece, node } => pieces[piece].lambdas[node]
                    .iter()
                    .map(|&e| red.pieces[piece].edge_map[e])
                    .collect(),
                NodeOrigin::Owned { edge } => vec![edge],
            })
            .collect();
        Ghd { td, lambdas }
    }

    fn holds_on(&self, h: &Hypergraph) -> bool {
        self.is_hd(h)
    }
}

/// The one solver body both doors run. `leaf` answers one irreducible
/// connected piece with the first width in a range it accepts and its
/// witness: `floor..=|E|` for an exact spec, `min(k, |E|)` alone for a
/// bounded one (`Soft_{H,k}` and an HD's `λ` do not change past `|E|`, so
/// an absurd `k` sizes nothing), where `floor` is 2 on a GYO fixpoint
/// with two or more non-empty edges ([`Witness::GYO`]) and 1 otherwise.
/// A bounded `k` below the floor answers "no" without asking `leaf`.
/// With `spec.reduce` and a non-trivial reduction every piece is
/// answered, the budget checked before each, the widths recombined by
/// max (floor 1) and the witnesses lifted; otherwise `h` itself is
/// answered. A piece that accepts no width answers "no".
pub(crate) fn solve_with<W: Witness>(
    h: &Hypergraph,
    spec: &SolveSpec,
    mut leaf: impl FnMut(&Hypergraph, RangeInclusive<usize>) -> Result<Option<(usize, W)>, DecompError>,
) -> Result<Solved, DecompError> {
    let mut leaf = |piece: &Hypergraph| {
        let top = piece.num_edges().max(1);
        let cyclic =
            W::GYO && spec.reduce && piece.edges().iter().filter(|e| !e.is_empty()).count() >= 2;
        let floor = if cyclic { 2 } else { 1 };
        let widths = spec.bound.map_or(floor..=top, |k| {
            let k = k.min(top);
            k.max(floor)..=k
        });
        if widths.is_empty() {
            return Ok(None);
        }
        leaf(piece, widths)
    };
    let answer = |found: Option<(usize, W)>| match spec.bound {
        Some(_) => Ok(W::DECISION(found.map(|(_, witness)| witness))),
        // `shw` always accepts at `|E|`; `hw` may not, on a degenerate input.
        None => found
            .map(|(w, witness)| W::WIDTH(w, witness))
            .ok_or_else(|| DecompError::internal("no width up to |E(H)| admits a decomposition")),
    };
    let red = spec.reduce.then(|| W::reduce(h));
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
    let lifted = W::lift(h, &red, &witnesses);
    debug_assert!(lifted.holds_on(h), "the lifted witness must be valid");
    answer(Some((width, lifted)))
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
/// it goes ([`crate::shw::soft_instance`]); `hw` builds none. A budget or
/// limit trip is the error; nothing partial is returned.
pub fn solve(h: &Hypergraph, spec: &SolveSpec) -> Result<Solved, DecompError> {
    let (limits, budget) = (&spec.limits, &spec.budget);
    match spec.class {
        SolveClass::Shw => solve_with(h, spec, |piece, widths| {
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
        SolveClass::Hw => solve_with(h, spec, |piece, widths| {
            first_width(widths, |k| hw_leq_budgeted(piece, k, budget))
        }),
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
    fn acyclic_chain_lifts_to_a_hypertree() {
        let h = acyclic_chain();
        let (w, g) = hw(&h);
        assert_eq!(w, 1);
        assert!(
            g.is_hd(&h),
            "fully-peeled lift is a join tree:\n{}",
            g.render(&h)
        );
        let (ws, td) = shw(&h);
        assert_eq!(ws, 1);
        assert_eq!(td.validate(&h), Ok(()));
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
        // The raw sweep cannot decompose disconnected inputs at all;
        // the reduce path splits and recombines.
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
        // edge attached: the reductions strip them, the width stays 2.
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
