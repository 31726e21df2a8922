//! The structural identity of a hypergraph: its *canonical edge list*
//! (the sorted packed edge bitsets plus the vertex count) and the hash
//! of it.
//!
//! Repeated workloads keep presenting the same hypergraph to the
//! solvers, so everything cached per hypergraph — `softhw-core`'s
//! `DecompCache` entries, the service's result cache and its store — is
//! keyed by [`structural_hash`], and whatever must not confuse two
//! structures on a hash collision keeps the [`canonical_form`] beside
//! its entry and compares it on a hit.
//!
//! Two hypergraphs match iff they have the same vertex count and the
//! same multiset of edges *under the same vertex numbering* (the common
//! case for repeated queries, which rebuild the hypergraph the same way);
//! full isomorphism canonicalisation is deliberately out of scope.

use crate::hypergraph::Hypergraph;

/// The canonical structural form of a hypergraph: vertex count, edge
/// count, then the packed words of every edge in sorted order. Equal
/// canonical forms ⟺ structurally identical hypergraphs (same vertex
/// numbering).
pub fn canonical_form(h: &Hypergraph) -> Vec<u64> {
    let edges = (0..h.num_edges()).map(|e| h.edge(e).blocks()).collect();
    canonical_words(h.num_vertices(), edges)
}

/// The canonical form of a hypergraph given as its vertex count and its
/// edges' packed rows, in any order: the one place the layout is written
/// down, shared by [`canonical_form`] and the parser's
/// [`Scan`](crate::parse::Scan), which has rows but no [`Hypergraph`].
pub(crate) fn canonical_words(num_vertices: usize, mut edges: Vec<&[u64]>) -> Vec<u64> {
    edges.sort_unstable();
    let words = edges.first().map_or(0, |w| w.len());
    let mut out = Vec::with_capacity(2 + edges.len() * words);
    out.push(num_vertices as u64);
    out.push(edges.len() as u64);
    for e in edges {
        out.extend_from_slice(e);
    }
    out
}

/// `h`'s edge ids in the order [`canonical_form`] lists the edges
/// (equal edges by ascending id). Structurally identical hypergraphs
/// hold the same edge at every position of this order, however their
/// edges were listed — the shared numbering for anything cached per
/// [`structural_hash`] that names edges.
pub fn canonical_edge_order(h: &Hypergraph) -> Vec<usize> {
    let mut order: Vec<usize> = (0..h.num_edges()).collect();
    order.sort_unstable_by(|&a, &b| h.edge(a).blocks().cmp(h.edge(b).blocks()).then(a.cmp(&b)));
    order
}

/// Structural hash of a hypergraph: the Fx-style hash
/// ([`crate::fxhash::hash_u64s`]) of its [`canonical_form`].
pub fn structural_hash(h: &Hypergraph) -> u64 {
    crate::fxhash::hash_u64s(&canonical_form(h))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canonical_form_ignores_edge_order_only() {
        // Same edges listed in a different order: same canonical form.
        let mut b1 = crate::HypergraphBuilder::new();
        b1.edge("e1", &["a", "b"]);
        b1.edge("e2", &["b", "c"]);
        let mut b2 = crate::HypergraphBuilder::new();
        b2.edge("e2", &["a", "b"]);
        b2.edge("e1", &["b", "c"]);
        let (h1, h2) = (b1.build(), b2.build());
        assert_eq!(canonical_form(&h1), canonical_form(&h2));
        // A genuinely different edge set differs.
        let mut b3 = crate::HypergraphBuilder::new();
        b3.edge("e1", &["a", "b"]);
        b3.edge("e2", &["a", "c"]);
        let h3 = b3.build();
        assert_ne!(canonical_form(&h1), canonical_form(&h3));
    }
}
