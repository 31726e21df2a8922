//! Rooted tree decompositions and their validity checks
//! (Section 2 of the paper), including the component normal form
//! (CompNF, Definition 2) that the CandidateTD machinery relies on.
//!
//! This is also the one home of the witness frame, [`TdFrame`]: the
//! flat `(bag words, preorder node table)` form every answer takes
//! from the solver to the socket and to disk. The service's wire codec
//! writes it as text, the persistent store rebuilds it from its bag
//! dictionary, and both decode it through [`TdFrame::to_td`] — one
//! decoder for both trust boundaries.

use softhw_hypergraph::arena::words_iter;
use softhw_hypergraph::{ArenaSnapshot, BagArena, BitSet, Hypergraph};
use std::fmt;

/// A rooted tree decomposition `(T, B)` of a hypergraph.
///
/// Nodes are dense indices; `bags[u]` is `B(u)`. The root is node
/// `self.root`. Construction goes through [`TreeDecomposition::new`] and
/// [`TreeDecomposition::add_child`]; validity is *not* enforced during
/// construction — call [`TreeDecomposition::validate`].
#[derive(Clone, PartialEq, Eq)]
pub struct TreeDecomposition {
    bags: Vec<BitSet>,
    parent: Vec<Option<usize>>,
    children: Vec<Vec<usize>>,
    root: usize,
}

/// Violations reported by [`TreeDecomposition::validate`] and
/// [`crate::ghd::Ghd::validate`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TdError {
    /// Some hyperedge is not contained in any bag.
    EdgeNotCovered {
        /// The offending edge id.
        edge: usize,
    },
    /// The nodes whose bags contain `vertex` do not induce a subtree.
    ConnectednessViolated {
        /// The offending vertex id.
        vertex: usize,
    },
    /// A vertex of the decomposition's bags is outside the hypergraph.
    BagOutOfRange {
        /// The offending node id.
        node: usize,
    },
    /// `B(u) ⊄ ⋃λ(u)` for some GHD node.
    NotCovered {
        /// The offending node id.
        node: usize,
    },
    /// The special condition `B(T_u) ∩ ⋃λ(u) ⊆ B(u)` fails at `node`.
    SpecialConditionViolated {
        /// The offending node id.
        node: usize,
    },
}

impl fmt::Display for TdError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TdError::EdgeNotCovered { edge } => write!(f, "edge {edge} not covered by any bag"),
            TdError::ConnectednessViolated { vertex } => {
                write!(f, "occurrences of vertex {vertex} do not form a subtree")
            }
            TdError::BagOutOfRange { node } => write!(f, "bag of node {node} out of range"),
            TdError::NotCovered { node } => write!(f, "bag of node {node} not covered by λ"),
            TdError::SpecialConditionViolated { node } => {
                write!(f, "special condition violated at node {node}")
            }
        }
    }
}

impl std::error::Error for TdError {}

/// Why a [`TdFrame`] could not be reconstructed into a
/// [`TreeDecomposition`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FrameError {
    /// What was malformed.
    pub message: String,
}

impl FrameError {
    fn new(message: impl Into<String>) -> Self {
        FrameError {
            message: message.into(),
        }
    }
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.message)
    }
}

impl std::error::Error for FrameError {}

/// A tree decomposition in its flat framing: deduplicated **bag words**
/// (an [`ArenaSnapshot`] over `universe` vertices, every distinct bag
/// once, ids dense in first-occurrence order over the node table) plus
/// a `(parent, bag-id)` **node table** in preorder. This is the one
/// witness format of the system: the service's wire codec writes it as
/// text and the persistent store rebuilds it from its bag dictionary,
/// and both decode it through [`TdFrame::to_td`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TdFrame {
    /// The vertex universe the bags are over.
    pub universe: usize,
    /// Every distinct bag's words, back to back in id order.
    pub snapshot: ArenaSnapshot,
    /// `(parent index, bag id)` per node, preorder; the root is node 0
    /// with no parent.
    pub nodes: Vec<(Option<u32>, u32)>,
}

impl TdFrame {
    /// Frames a decomposition over a `universe`-vertex hypergraph: nodes
    /// in [`TreeDecomposition::preorder`], bags interned in that order.
    pub fn from_td(td: &TreeDecomposition, universe: usize) -> TdFrame {
        let order = td.preorder();
        let mut new_id = vec![u32::MAX; td.num_nodes()];
        for (i, &u) in order.iter().enumerate() {
            new_id[u] = i as u32;
        }
        let mut arena = BagArena::new(universe);
        let nodes = order
            .iter()
            .map(|&u| {
                let bag = arena.intern(td.bag(u));
                (td.parent(u).map(|p| new_id[p]), bag.0)
            })
            .collect();
        TdFrame {
            universe,
            snapshot: arena.snapshot(),
            nodes,
        }
    }

    /// Reconstructs the decomposition. Every malformed shape — bag or
    /// parent references out of range, wrong preorder, bag words with
    /// bits beyond the universe — is an error, never a panic: the wire
    /// and the store log both feed this bytes from outside the process.
    pub fn to_td(&self) -> Result<TreeDecomposition, FrameError> {
        let (universe, snapshot) = (self.universe, &self.snapshot);
        let num_bags = snapshot.len();
        if snapshot.universe != universe || snapshot.words_per_bag() != universe.div_ceil(64).max(1)
        {
            return Err(FrameError::new("snapshot width disagrees with universe"));
        }
        // Bits in the last word's slack (universe..words*64) would decode
        // into nonexistent vertices; reject them explicitly.
        let tail_bits = universe % 64;
        let last_word_mask = if universe == 0 {
            0
        } else if tail_bits == 0 {
            u64::MAX
        } else {
            (1u64 << tail_bits) - 1
        };
        let bag = |id: u32| -> Result<BitSet, FrameError> {
            if (id as usize) >= num_bags {
                return Err(FrameError::new(format!("bag id {id} out of range")));
            }
            let words = snapshot.words(id as usize);
            let Some((last, _)) = words.split_last() else {
                return Err(FrameError::new("empty bag words"));
            };
            if last & !last_word_mask != 0 {
                return Err(FrameError::new("bag words exceed the universe"));
            }
            Ok(BitSet::from_iter(universe, words_iter(words)))
        };
        let (first, rest) = self
            .nodes
            .split_first()
            .ok_or_else(|| FrameError::new("decomposition frame with no nodes"))?;
        if first.0.is_some() {
            return Err(FrameError::new("root node has a parent"));
        }
        let mut td = TreeDecomposition::new(bag(first.1)?);
        for (i, &(parent, b)) in rest.iter().enumerate() {
            let node = i + 1;
            let Some(p) = parent else {
                return Err(FrameError::new("non-root node without parent"));
            };
            if (p as usize) >= node {
                return Err(FrameError::new("node table is not in preorder"));
            }
            td.add_child(p as usize, bag(b)?);
        }
        Ok(td)
    }
}

impl TreeDecomposition {
    /// Creates a decomposition consisting of a single root node.
    pub fn new(root_bag: BitSet) -> Self {
        TreeDecomposition {
            bags: vec![root_bag],
            parent: vec![None],
            children: vec![Vec::new()],
            root: 0,
        }
    }

    /// Inserts vertex `v` into the bag of node `u`.
    ///
    /// The caller is responsible for keeping the decomposition valid;
    /// the witness-lifting replay of `reduce_solve` uses this to restore
    /// peeled vertices into the node that owns their host edge (safe
    /// there because a peeled vertex occurs in no other bag).
    pub fn grow_bag(&mut self, u: usize, v: usize) {
        self.bags[u].insert(v);
    }

    /// Appends a new node with the given bag under `parent`; returns its id.
    pub fn add_child(&mut self, parent: usize, bag: BitSet) -> usize {
        let id = self.bags.len();
        self.bags.push(bag);
        self.parent.push(Some(parent));
        self.children.push(Vec::new());
        self.children[parent].push(id);
        id
    }

    /// Root node id.
    #[inline]
    pub fn root(&self) -> usize {
        self.root
    }

    /// Number of nodes.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.bags.len()
    }

    /// Bag of node `u`.
    #[inline]
    pub fn bag(&self, u: usize) -> &BitSet {
        &self.bags[u]
    }

    /// All bags, indexed by node id.
    #[inline]
    pub fn bags(&self) -> &[BitSet] {
        &self.bags
    }

    /// Children of node `u`.
    #[inline]
    pub fn children(&self, u: usize) -> &[usize] {
        &self.children[u]
    }

    /// Parent of node `u` (None for the root).
    #[inline]
    pub fn parent(&self, u: usize) -> Option<usize> {
        self.parent[u]
    }

    /// Nodes in preorder (root first, children in order). Sibling order
    /// is preserved so that framing a decomposition
    /// ([`TdFrame::from_td`]) and rebuilding it ([`TdFrame::to_td`]) is
    /// *idempotent* — the persistent store and the wire protocol both
    /// rely on a decode → re-encode roundtrip being byte-stable.
    pub fn preorder(&self) -> Vec<usize> {
        let mut out = Vec::with_capacity(self.num_nodes());
        let mut stack = vec![self.root];
        while let Some(u) = stack.pop() {
            out.push(u);
            stack.extend(self.children[u].iter().rev().copied());
        }
        out
    }

    /// Nodes in postorder (children before parents).
    pub fn postorder(&self) -> Vec<usize> {
        let mut pre = self.preorder();
        pre.reverse();
        pre
    }

    /// `B(T_u)`: union of the bags in the subtree rooted at `u`.
    pub fn subtree_vertices(&self, u: usize) -> BitSet {
        let mut acc = self.bags[u].clone();
        let mut stack: Vec<usize> = self.children[u].clone();
        while let Some(v) = stack.pop() {
            acc.union_with(&self.bags[v]);
            stack.extend(self.children[v].iter().copied());
        }
        acc
    }

    /// Depth of node `u` (root has depth 0).
    pub fn depth(&self, u: usize) -> usize {
        let mut d = 0;
        let mut cur = u;
        while let Some(p) = self.parent[cur] {
            d += 1;
            cur = p;
        }
        d
    }

    /// Tree-decomposition width: `max |B(u)| - 1`.
    pub fn tw_width(&self) -> usize {
        self.bags.iter().map(BitSet::len).max().unwrap_or(1) - 1
    }

    /// Validates the two tree-decomposition conditions against `h`:
    /// every edge is inside some bag, and every vertex's occurrences form a
    /// non-empty connected subtree.
    pub fn validate(&self, h: &Hypergraph) -> Result<(), TdError> {
        for (u, bag) in self.bags.iter().enumerate() {
            if bag.num_blocks() != h.empty_vertex_set().num_blocks() {
                return Err(TdError::BagOutOfRange { node: u });
            }
        }
        'edges: for e in 0..h.num_edges() {
            for bag in &self.bags {
                if h.edge(e).is_subset(bag) {
                    continue 'edges;
                }
            }
            return Err(TdError::EdgeNotCovered { edge: e });
        }
        for v in 0..h.num_vertices() {
            let occurrences: Vec<usize> = (0..self.num_nodes())
                .filter(|&u| self.bags[u].contains(v))
                .collect();
            if occurrences.is_empty() {
                return Err(TdError::ConnectednessViolated { vertex: v });
            }
            // BFS through tree edges restricted to occurrence nodes.
            let mut seen = vec![false; self.num_nodes()];
            let mut stack = vec![occurrences[0]];
            seen[occurrences[0]] = true;
            let mut count = 0usize;
            while let Some(u) = stack.pop() {
                count += 1;
                let mut nbrs: Vec<usize> = self.children[u].clone();
                if let Some(p) = self.parent[u] {
                    nbrs.push(p);
                }
                for n in nbrs {
                    if !seen[n] && self.bags[n].contains(v) {
                        seen[n] = true;
                        stack.push(n);
                    }
                }
            }
            if count != occurrences.len() {
                return Err(TdError::ConnectednessViolated { vertex: v });
            }
        }
        Ok(())
    }

    /// Checks the component normal form (Definition 2): for each node `u`
    /// and child `c` there is exactly one `[B(u)]`-component `C_c` with
    /// `B(T_c) = ⋃C_c ∪ (B(u) ∩ B(c))`.
    pub fn is_comp_nf(&self, h: &Hypergraph) -> bool {
        for u in self.preorder() {
            let comps = h.edge_components(&self.bags[u]);
            for &c in &self.children[u] {
                let subtree = self.subtree_vertices(c);
                let interface = self.bags[u].intersection(&self.bags[c]);
                let matching = comps
                    .iter()
                    .filter(|comp| {
                        let mut target = h.union_of_edge_set(comp);
                        target.union_with(&interface);
                        target == subtree
                    })
                    .count();
                if matching != 1 {
                    return false;
                }
            }
        }
        true
    }

    /// Pretty-prints the decomposition with vertex names from `h`.
    pub fn render(&self, h: &Hypergraph) -> String {
        let mut out = String::new();
        fn rec(td: &TreeDecomposition, h: &Hypergraph, u: usize, depth: usize, out: &mut String) {
            out.push_str(&"  ".repeat(depth));
            out.push_str(&h.render_vertex_set(td.bag(u)));
            out.push('\n');
            for &c in td.children(u) {
                rec(td, h, c, depth + 1, out);
            }
        }
        rec(self, h, self.root, 0, &mut out);
        out
    }
}

impl fmt::Debug for TreeDecomposition {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "TreeDecomposition({} nodes, root {})",
            self.num_nodes(),
            self.root
        )
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use softhw_hypergraph::named;

    /// The soft HD of H2 from Figure 1b of the paper.
    pub(crate) fn h2_soft_td() -> (Hypergraph, TreeDecomposition) {
        let h = named::h2();
        let mut td = TreeDecomposition::new(h.vset(&["2", "6", "7", "a", "b"]));
        let mid = td.add_child(td.root(), h.vset(&["2", "5", "6", "a", "b"]));
        td.add_child(mid, h.vset(&["2", "3", "4", "5", "a", "b"]));
        td.add_child(td.root(), h.vset(&["1", "2", "7", "8", "a", "b"]));
        (h, td)
    }

    #[test]
    fn figure_1b_is_valid_td() {
        let (h, td) = h2_soft_td();
        assert_eq!(td.validate(&h), Ok(()));
    }

    #[test]
    fn figure_1b_is_comp_nf() {
        let (h, td) = h2_soft_td();
        assert!(td.is_comp_nf(&h));
    }

    #[test]
    fn missing_edge_detected() {
        let h = named::h2();
        let td = TreeDecomposition::new(h.vset(&["1", "2", "a"]));
        assert!(matches!(
            td.validate(&h),
            Err(TdError::EdgeNotCovered { .. })
        ));
    }

    #[test]
    fn connectedness_violation_detected() {
        let h = named::cycle(4);
        // v0 appears in two bags separated by a bag without it
        let mut td = TreeDecomposition::new(h.vset(&["v0", "v1"]));
        let mid = td.add_child(td.root(), h.vset(&["v1", "v2"]));
        td.add_child(mid, h.vset(&["v2", "v3", "v0"]));
        assert!(matches!(
            td.validate(&h),
            Err(TdError::ConnectednessViolated { .. })
        ));
    }

    #[test]
    fn orders_and_subtrees() {
        let (_, td) = h2_soft_td();
        let pre = td.preorder();
        assert_eq!(pre.len(), 4);
        assert_eq!(pre[0], td.root());
        let post = td.postorder();
        assert_eq!(post.last().copied(), Some(td.root()));
        let all = td.subtree_vertices(td.root());
        assert_eq!(all.len(), 10);
        assert_eq!(td.depth(pre[0]), 0);
    }

    #[test]
    fn tw_width_counts_largest_bag() {
        let (_, td) = h2_soft_td();
        assert_eq!(td.tw_width(), 5); // largest bag has 6 vertices
    }

    #[test]
    fn frame_roundtrip_is_idempotent() {
        // frame → rebuild → frame again must be byte-identical: the
        // store serves frames that were decoded and re-encoded, and the
        // service's byte-identity contract depends on stability.
        let (h, td) = h2_soft_td();
        let frame = TdFrame::from_td(&td, h.num_vertices());
        let back = frame.to_td().unwrap();
        assert_eq!(back.validate(&h), Ok(()));
        // The rebuilt tree's preorder is the identity, so re-framing
        // reproduces the exact same snapshot and node table.
        assert_eq!(back.preorder(), (0..back.num_nodes()).collect::<Vec<_>>());
        assert_eq!(TdFrame::from_td(&back, h.num_vertices()), frame);
    }

    #[test]
    fn corrupt_frames_are_rejected() {
        let (h, td) = h2_soft_td();
        let good = TdFrame::from_td(&td, h.num_vertices());
        type Corruption = fn(&mut TdFrame);
        let corruptions: [(&str, Corruption); 6] = [
            ("root with a parent", |f| f.nodes[0].0 = Some(0)),
            ("parent out of preorder range", |f| f.nodes[1].0 = Some(99)),
            ("bag id out of range", |f| f.nodes[0].1 = u32::MAX),
            ("empty node table", |f| f.nodes.clear()),
            ("slack bits beyond the universe", |f| {
                f.snapshot.storage[0] |= 1 << 63
            }),
            ("universe the bag words do not match", |f| f.universe = 65),
        ];
        for (what, corrupt) in corruptions {
            let mut bad = good.clone();
            corrupt(&mut bad);
            assert!(bad.to_td().is_err(), "{what}");
        }
    }
}
