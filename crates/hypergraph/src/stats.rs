//! Structural statistics of hypergraphs — the properties decomposition
//! tools (HyperBench, det-k-decomp, BalancedGo) report for their inputs,
//! used here by the experiment harness and the random-instance sweeps.

use crate::bitset::BitSet;
use crate::hypergraph::Hypergraph;

/// A bundle of structural statistics for one hypergraph.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HypergraphStats {
    /// `|V(H)|`.
    pub num_vertices: usize,
    /// `|E(H)|`.
    pub num_edges: usize,
    /// Largest edge cardinality (arity).
    pub max_arity: usize,
    /// Smallest edge cardinality.
    pub min_arity: usize,
    /// Largest vertex degree (number of incident edges).
    pub max_degree: usize,
    /// Largest pairwise edge intersection (the *intersection width*;
    /// bounded intersection width is the tractable-ghw fragment of
    /// Gottlob et al. \[17\]).
    pub intersection_width: usize,
    /// Number of connected components.
    pub components: usize,
    /// Number of edges contained in another edge (subsumed edges, which
    /// preprocessing in decomposition tools typically removes).
    pub subsumed_edges: usize,
}

/// Computes all statistics in one pass over the edge list.
pub fn stats(h: &Hypergraph) -> HypergraphStats {
    let mut max_arity = 0;
    let mut min_arity = usize::MAX;
    for e in h.edges() {
        let a = e.len();
        max_arity = max_arity.max(a);
        min_arity = min_arity.min(a);
    }
    if h.num_edges() == 0 {
        min_arity = 0;
    }
    let max_degree = (0..h.num_vertices())
        .map(|v| h.incident_edges(v).len())
        .max()
        .unwrap_or(0);
    let mut intersection_width = 0;
    let mut subsumed = 0;
    for i in 0..h.num_edges() {
        for j in 0..h.num_edges() {
            if i == j {
                continue;
            }
            if j > i {
                // Counted word by word: a set per pair would allocate
                // `|E|²` times.
                let (a, b) = (h.edge(i).blocks(), h.edge(j).blocks());
                let inter = a
                    .iter()
                    .zip(b)
                    .map(|(x, y)| (x & y).count_ones())
                    .sum::<u32>();
                intersection_width = intersection_width.max(inter as usize);
            }
            if h.edge(i).is_subset(h.edge(j)) && h.edge(i) != h.edge(j) {
                subsumed += 1;
                break;
            }
        }
    }
    HypergraphStats {
        num_vertices: h.num_vertices(),
        num_edges: h.num_edges(),
        max_arity,
        min_arity,
        max_degree,
        intersection_width,
        components: h.vertex_components(&BitSet::empty(h.num_vertices())).len(),
        subsumed_edges: subsumed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::named;

    #[test]
    fn h2_stats() {
        let s = stats(&named::h2());
        assert_eq!(s.num_vertices, 10);
        assert_eq!(s.num_edges, 8);
        assert_eq!(s.max_arity, 3);
        assert_eq!(s.min_arity, 2);
        assert_eq!(s.components, 1);
        assert_eq!(s.subsumed_edges, 0);
        // a and b each sit in 3 edges
        assert_eq!(s.max_degree, 3);
        // edges share at most one vertex in H2... {1,2,a} ∩ {4,5,a} = {a}
        assert_eq!(s.intersection_width, 1);
    }

    #[test]
    fn cycle_stats() {
        let s = stats(&named::cycle(6));
        assert_eq!(s.max_degree, 2);
        assert_eq!(s.intersection_width, 1);
        assert_eq!(s.components, 1);
    }

    #[test]
    fn subsumed_edges_detected() {
        let mut b = crate::HypergraphBuilder::new();
        b.edge("big", &["a", "b", "c"]);
        b.edge("small", &["a", "b"]);
        let s = stats(&b.build());
        assert_eq!(s.subsumed_edges, 1);
    }

    #[test]
    fn disconnected_counted() {
        let mut b = crate::HypergraphBuilder::new();
        b.edge("e1", &["a", "b"]);
        b.edge("e2", &["c", "d"]);
        assert_eq!(stats(&b.build()).components, 2);
    }
}
