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
//! The `shw`/`hw` entry points here are **cold** reduce-aware solvers;
//! long-lived callers should prefer
//! [`crate::cache::DecompCache::solve`] with a
//! [`crate::spec::SolveSpec`], which routes through the same pipeline
//! with cross-query memoisation of the piece solves.

use crate::budget::Budget;
use crate::error::DecompError;
use crate::ghd::Ghd;
use crate::soft::SoftLimits;
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

/// Lifts per-piece tree decompositions back to one valid decomposition
/// of the original hypergraph by replaying the reduction trace
/// backwards. Panics if the reduction is trivial *and* empty (nothing to
/// lift); callers handle `red.is_trivial()` with the raw solver path.
pub fn lift_td(
    h: &Hypergraph,
    red: &Reduction,
    piece_tds: &[TreeDecomposition],
) -> TreeDecomposition {
    let refs: Vec<&TreeDecomposition> = piece_tds.iter().collect();
    lift(h, red, &refs).0
}

/// Lifts per-piece GHDs back to one GHD of the original hypergraph.
/// Piece λ-labels map through the piece's edge map; replay-created nodes
/// get `λ = {owning edge}` (their bags are subsets of that edge).
pub fn lift_ghd(h: &Hypergraph, red: &Reduction, piece_ghds: &[Ghd]) -> Ghd {
    let refs: Vec<&TreeDecomposition> = piece_ghds.iter().map(|g| &g.td).collect();
    let (td, origin) = lift(h, red, &refs);
    let lambdas: Vec<Vec<usize>> = origin
        .iter()
        .map(|o| match *o {
            NodeOrigin::Piece { piece, node } => piece_ghds[piece].lambdas[node]
                .iter()
                .map(|&e| red.pieces[piece].edge_map[e])
                .collect(),
            NodeOrigin::Owned { edge } => vec![edge],
        })
        .collect();
    Ghd { td, lambdas }
}

/// Exact soft hypertree width via reduce-before-solve: simplify, sweep
/// each piece ([`crate::shw::shw_raw`]), recombine widths by max (floor
/// 1 when anything was reduced) and lift the witness. Irreducible
/// connected inputs take the raw path unchanged.
pub fn shw(h: &Hypergraph) -> (usize, TreeDecomposition) {
    shw_budgeted(h, &SoftLimits::default(), &Budget::unlimited()).expect("default limits exceeded")
}

/// [`shw`] with a cooperative [`Budget`], checked before every reduced
/// piece (the per-piece sweeps check it far more finely on their own).
/// On abort the partially solved pieces are dropped; a retry re-reduces
/// and re-solves from scratch.
pub fn shw_budgeted(
    h: &Hypergraph,
    limits: &SoftLimits,
    budget: &Budget,
) -> Result<(usize, TreeDecomposition), DecompError> {
    let red = reduce(h);
    if red.is_trivial() {
        return crate::shw::shw_raw_budgeted(h, limits, budget);
    }
    let mut width = 1usize;
    let mut tds = Vec::with_capacity(red.pieces.len());
    for piece in &red.pieces {
        budget.check()?;
        let (w, td) = crate::shw::shw_raw_budgeted(&piece.h, limits, budget)?;
        width = width.max(w);
        tds.push(td);
    }
    let td = lift_td(h, &red, &tds);
    debug_assert_eq!(td.validate(h), Ok(()));
    Ok((width, td))
}

/// Decides `shw(H) <= k` via reduce-before-solve (every piece must
/// accept). `k = 0` falls back to the raw decision.
pub fn shw_leq(h: &Hypergraph, k: usize) -> Option<TreeDecomposition> {
    if k == 0 {
        return crate::shw::shw_leq(h, k);
    }
    let red = reduce(h);
    if red.is_trivial() {
        return crate::shw::shw_leq(h, k);
    }
    let mut tds = Vec::with_capacity(red.pieces.len());
    for piece in &red.pieces {
        tds.push(crate::shw::shw_leq(&piece.h, k)?);
    }
    let td = lift_td(h, &red, &tds);
    debug_assert_eq!(td.validate(h), Ok(()));
    Some(td)
}

/// [`shw_leq`] with a cooperative [`Budget`] and explicit limits.
pub fn shw_leq_budgeted(
    h: &Hypergraph,
    k: usize,
    limits: &SoftLimits,
    budget: &Budget,
) -> Result<Option<TreeDecomposition>, DecompError> {
    let raw = |h: &Hypergraph| {
        let mut index = softhw_hypergraph::BlockIndex::new(h);
        crate::shw::shw_leq_indexed_budgeted(&mut index, k, limits, budget)
    };
    if k == 0 {
        return raw(h);
    }
    let red = reduce(h);
    if red.is_trivial() {
        return raw(h);
    }
    let mut tds = Vec::with_capacity(red.pieces.len());
    for piece in &red.pieces {
        budget.check()?;
        match raw(&piece.h)? {
            Some(td) => tds.push(td),
            None => return Ok(None),
        }
    }
    let td = lift_td(h, &red, &tds);
    debug_assert_eq!(td.validate(h), Ok(()));
    Ok(Some(td))
}

/// Exact hypertree width via reduce-before-solve; the lifted witness is
/// a genuine HD (special condition included) of the reported width.
///
/// Uses [`reduce_no_peel`]: degree-1 peeling is sound for tree
/// decompositions but re-enters peeled vertices *below* nodes that may
/// carry their host edge in `λ`, violating the HD special condition —
/// so the `hw` path restricts itself to subsumption and splitting.
pub fn hw(h: &Hypergraph) -> (usize, Ghd) {
    let red = reduce_no_peel(h);
    if red.is_trivial() {
        return crate::hw::hw_raw(h);
    }
    let mut width = 1usize;
    let mut ghds = Vec::with_capacity(red.pieces.len());
    for piece in &red.pieces {
        let (w, g) = crate::hw::hw_raw(&piece.h);
        width = width.max(w);
        ghds.push(g);
    }
    let g = lift_ghd(h, &red, &ghds);
    debug_assert!(g.is_hd(h), "lifted HD must satisfy the special condition");
    (width, g)
}

/// [`hw`] with a cooperative [`Budget`], checked before every reduced
/// piece and per sub-problem inside each piece's search.
pub fn hw_budgeted(h: &Hypergraph, budget: &Budget) -> Result<(usize, Ghd), DecompError> {
    let red = reduce_no_peel(h);
    if red.is_trivial() {
        return crate::hw::hw_raw_budgeted(h, budget);
    }
    let mut width = 1usize;
    let mut ghds = Vec::with_capacity(red.pieces.len());
    for piece in &red.pieces {
        budget.check()?;
        let (w, g) = crate::hw::hw_raw_budgeted(&piece.h, budget)?;
        width = width.max(w);
        ghds.push(g);
    }
    let g = lift_ghd(h, &red, &ghds);
    debug_assert!(g.is_hd(h), "lifted HD must satisfy the special condition");
    Ok((width, g))
}

/// Decides `hw(H) <= k` via reduce-before-solve (every piece must
/// accept). `k = 0` falls back to the raw decision.
pub fn hw_leq(h: &Hypergraph, k: usize) -> Option<Ghd> {
    if k == 0 {
        return crate::hw::hw_leq(h, k);
    }
    let red = reduce_no_peel(h);
    if red.is_trivial() {
        return crate::hw::hw_leq(h, k);
    }
    let mut ghds = Vec::with_capacity(red.pieces.len());
    for piece in &red.pieces {
        ghds.push(crate::hw::hw_leq(&piece.h, k)?);
    }
    let g = lift_ghd(h, &red, &ghds);
    debug_assert!(g.is_hd(h), "lifted HD must satisfy the special condition");
    Some(g)
}

/// [`hw_leq`] with a cooperative [`Budget`].
pub fn hw_leq_budgeted(
    h: &Hypergraph,
    k: usize,
    budget: &Budget,
) -> Result<Option<Ghd>, DecompError> {
    if k == 0 {
        return crate::hw::hw_leq_budgeted(h, k, budget);
    }
    let red = reduce_no_peel(h);
    if red.is_trivial() {
        return crate::hw::hw_leq_budgeted(h, k, budget);
    }
    let mut ghds = Vec::with_capacity(red.pieces.len());
    for piece in &red.pieces {
        budget.check()?;
        match crate::hw::hw_leq_budgeted(&piece.h, k, budget)? {
            Some(g) => ghds.push(g),
            None => return Ok(None),
        }
    }
    let g = lift_ghd(h, &red, &ghds);
    debug_assert!(g.is_hd(h), "lifted HD must satisfy the special condition");
    Ok(Some(g))
}

#[cfg(test)]
mod tests {
    use super::*;
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
        let h = acyclic_chain();
        assert!(shw_leq(&h, 1).is_some());
        assert!(hw_leq(&h, 1).is_some());
        let mut b = HypergraphBuilder::new();
        for i in 0..5 {
            b.edge(
                &format!("c{i}"),
                &[&format!("v{i}"), &format!("v{}", (i + 1) % 5)],
            );
        }
        b.edge("pendant", &["v0", "x"]);
        let h = b.build();
        assert!(shw_leq(&h, 1).is_none(), "a 5-cycle needs width 2");
        let td = shw_leq(&h, 2).expect("width 2 suffices");
        assert_eq!(td.validate(&h), Ok(()));
        let g = hw_leq(&h, 2).expect("width 2 suffices");
        assert_eq!(g.validate(&h), Ok(()));
    }
}
