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
//! This module is also the **one solver pipeline**. `exact_width` is
//! the only reduce → sweep each piece → lift loop in the crate,
//! parameterised by the witness kind (`Witness`: which reduction is
//! sound, how pieces lift, what "valid" means) and by a per-piece sweep.
//! It has two front doors. [`solve`] is the cold one: every piece is
//! swept with the leaf decisions ([`shw_leq_indexed_budgeted`] against
//! one index per piece, [`hw_leq_budgeted`]) and nothing outlives the
//! call. [`crate::cache::DecompCache::solve`] runs the same routine with
//! the same leaves behind its cross-query memo. Every other way in is
//! [`solve`] under a fixed [`SolveSpec`]: `shw::{shw, shw_leq}` and
//! `hw::{hw, hw_leq}` name the default corners, and a raw sweep or
//! explicit limits are [`SolveSpec::with_reduce`] and
//! [`SolveSpec::with_limits`] — no second spelling of either exists.

use crate::budget::Budget;
use crate::error::DecompError;
use crate::ghd::Ghd;
use crate::hw::hw_leq_budgeted;
use crate::shw::{new_index, shw_leq_indexed_budgeted, soft_instance};
use crate::spec::{SolveClass, SolveSpec, Solved};
use crate::td::TreeDecomposition;
use softhw_hypergraph::reduce::{reduce, reduce_no_peel, ReduceEvent, ReducePiece, Reduction};
use softhw_hypergraph::{BitSet, Hypergraph};

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

/// A width witness the pipeline can reduce for, lift and check. The two
/// measures differ in exactly these three places.
pub(crate) trait Witness: Sized {
    /// The width-preserving reduction that is sound for this witness.
    fn reduce(h: &Hypergraph) -> Reduction;
    /// One witness for `h` out of one per piece of `red`, by replaying
    /// the reduction trace backwards (`red` is non-trivial).
    fn lift(h: &Hypergraph, red: &Reduction, pieces: &[Self]) -> Self;
    /// Whether this is a valid witness for `h`.
    fn holds_on(&self, h: &Hypergraph) -> bool;
}

impl Witness for TreeDecomposition {
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

/// The exact width of `h` and a witness, given `sweep`, which answers
/// that for one irreducible connected hypergraph. With `reduce`, `h` is
/// simplified first, every reduced piece swept (the budget checked
/// before each; the sweeps check it far more finely on their own), the
/// widths recombined by max — floor 1 once anything was reduced — and
/// the piece witnesses lifted. Without it, and for inputs the reduction
/// leaves alone, `h` itself is swept. A budget abort drops the pieces
/// solved so far.
pub(crate) fn exact_width<W: Witness>(
    h: &Hypergraph,
    reduce: bool,
    budget: &Budget,
    mut sweep: impl FnMut(&Hypergraph) -> Result<(usize, W), DecompError>,
) -> Result<(usize, W), DecompError> {
    if !reduce {
        return sweep(h);
    }
    let red = W::reduce(h);
    if red.is_trivial() {
        return sweep(h);
    }
    let mut width = 1;
    let mut witnesses = Vec::with_capacity(red.pieces.len());
    for piece in &red.pieces {
        budget.check()?;
        let (w, witness) = sweep(&piece.h)?;
        width = width.max(w);
        witnesses.push(witness);
    }
    let lifted = W::lift(h, &red, &witnesses);
    debug_assert!(lifted.holds_on(h), "the lifted witness must be valid");
    Ok((width, lifted))
}

/// The width sweep: asks `decide` for `k = 1, 2, …, |E(H)|` and answers
/// with the first width it accepts.
pub(crate) fn least_width<W>(
    h: &Hypergraph,
    mut decide: impl FnMut(usize) -> Result<Option<W>, DecompError>,
) -> Result<(usize, W), DecompError> {
    for k in 1..=h.num_edges().max(1) {
        if let Some(witness) = decide(k)? {
            return Ok((k, witness));
        }
    }
    // Unreachable for `shw` (the full vertex set is a candidate at
    // `k = |E|`); for `hw`, a degenerate input admitting no HD.
    Err(DecompError::internal(
        "no width up to |E(H)| admits a decomposition",
    ))
}

/// Answers one width query cold: the entry point over every
/// (class × exactness × budget × reduction × limits) corner of a
/// [`SolveSpec`], keeping nothing between calls. Exact widths run the
/// reduce-aware pipeline above, one [`softhw_hypergraph::BlockIndex`]
/// per piece shared across the widths of its sweep (`hw` builds none);
/// bounded decisions are one leaf decision on `h` as given, `shw ≤ k` on
/// an index its instance build releases as it goes ([`soft_instance`]).
/// A budget or
/// limit trip is the error; nothing partial is returned.
pub fn solve(h: &Hypergraph, spec: &SolveSpec) -> Result<Solved, DecompError> {
    let (limits, budget) = (&spec.limits, &spec.budget);
    Ok(match (spec.class, spec.bound) {
        (SolveClass::Shw, Some(k)) => {
            Solved::ShwDecision(soft_instance(h, k, limits, budget)?.try_decide_budgeted(budget)?)
        }
        (SolveClass::Shw, None) => {
            let (w, td) = exact_width(h, spec.reduce, budget, |piece| {
                let mut index = new_index(piece);
                least_width(piece, |k| {
                    shw_leq_indexed_budgeted(&mut index, k, limits, budget)
                })
            })?;
            Solved::ShwWidth(w, td)
        }
        (SolveClass::Hw, Some(k)) => Solved::HwDecision(hw_leq_budgeted(h, k, budget)?),
        (SolveClass::Hw, None) => {
            let (w, g) = exact_width(h, spec.reduce, budget, |piece| {
                least_width(piece, |k| hw_leq_budgeted(piece, k, budget))
            })?;
            Solved::HwWidth(w, g)
        }
    })
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
