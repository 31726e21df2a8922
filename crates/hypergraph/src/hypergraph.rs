//! Hypergraph representation and the connectivity primitives
//! (`[S]`-components) that all decomposition algorithms are built on.

use crate::bitset::BitSet;
use crate::fxhash::FxHashMap;
use std::fmt;

/// A hypergraph `H = (V(H), E(H))`.
///
/// Vertices and edges are dense indices (`0..num_vertices`,
/// `0..num_edges`); names are kept for parsing/printing. Every edge is a
/// [`BitSet`] over the vertex universe. Following the paper we assume no
/// isolated vertices (the builder enforces it unless explicitly allowed).
#[derive(Clone)]
pub struct Hypergraph {
    vertex_names: Vec<String>,
    edge_names: Vec<String>,
    edges: Vec<BitSet>,
    /// vertex -> ids of incident edges (`I(v)` in the paper)
    incidence: Vec<Vec<usize>>,
    /// Gaifman adjacency: vertex -> vertices sharing an edge with it
    adjacency: Vec<BitSet>,
}

impl Hypergraph {
    /// Number of vertices `|V(H)|`.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.vertex_names.len()
    }

    /// Number of edges `|E(H)|`.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// The vertex set of edge `e`.
    #[inline]
    pub fn edge(&self, e: usize) -> &BitSet {
        &self.edges[e]
    }

    /// All edges, indexed by edge id.
    #[inline]
    pub fn edges(&self) -> &[BitSet] {
        &self.edges
    }

    /// Name of vertex `v`.
    pub fn vertex_name(&self, v: usize) -> &str {
        &self.vertex_names[v]
    }

    /// Name of edge `e`.
    pub fn edge_name(&self, e: usize) -> &str {
        &self.edge_names[e]
    }

    /// Looks up a vertex id by name.
    pub fn vertex_by_name(&self, name: &str) -> Option<usize> {
        self.vertex_names.iter().position(|n| n == name)
    }

    /// Looks up an edge id by name.
    pub fn edge_by_name(&self, name: &str) -> Option<usize> {
        self.edge_names.iter().position(|n| n == name)
    }

    /// Edges incident to vertex `v` (`I(v)`).
    #[inline]
    pub fn incident_edges(&self, v: usize) -> &[usize] {
        &self.incidence[v]
    }

    /// Gaifman-graph neighbourhood of `v` (vertices co-occurring with `v`
    /// in some edge, including `v` itself).
    #[inline]
    pub fn closed_neighbourhood(&self, v: usize) -> &BitSet {
        &self.adjacency[v]
    }

    /// An empty vertex set sized for this hypergraph.
    #[inline]
    pub fn empty_vertex_set(&self) -> BitSet {
        BitSet::empty(self.num_vertices())
    }

    /// The full vertex set `V(H)`.
    #[inline]
    pub fn all_vertices(&self) -> BitSet {
        BitSet::full(self.num_vertices())
    }

    /// An empty edge set sized for this hypergraph.
    #[inline]
    pub fn empty_edge_set(&self) -> BitSet {
        BitSet::empty(self.num_edges())
    }

    /// Builds a vertex set from named vertices; panics on unknown names
    /// (test/example convenience).
    pub fn vset(&self, names: &[&str]) -> BitSet {
        BitSet::from_iter(
            self.num_vertices(),
            names.iter().map(|n| {
                self.vertex_by_name(n)
                    .unwrap_or_else(|| panic!("unknown vertex {n:?}"))
            }),
        )
    }

    /// Union of the vertex sets of the given edges (`⋃λ`).
    pub fn union_of_edges(&self, lambda: impl IntoIterator<Item = usize>) -> BitSet {
        let mut u = self.empty_vertex_set();
        for e in lambda {
            u.union_with(&self.edges[e]);
        }
        u
    }

    /// Union of the vertex sets of an edge bitset (`⋃C` for an edge set C).
    pub fn union_of_edge_set(&self, edge_set: &BitSet) -> BitSet {
        self.union_of_edges(edge_set.iter())
    }

    /// Connected components of the vertices `V(H) \ sep` in the Gaifman
    /// graph, i.e. the maximal sets of pairwise `[sep]`-connected vertices.
    ///
    /// Each returned set is disjoint from `sep`. The union of the returned
    /// sets is `V(H) \ sep`.
    pub fn vertex_components(&self, sep: &BitSet) -> Vec<BitSet> {
        let n = self.num_vertices();
        let mut seen = sep.clone();
        let mut out = Vec::new();
        let mut queue: Vec<usize> = Vec::new();
        for start in 0..n {
            if seen.contains(start) {
                continue;
            }
            let mut comp = self.empty_vertex_set();
            comp.insert(start);
            seen.insert(start);
            queue.push(start);
            while let Some(v) = queue.pop() {
                // neighbours not yet seen and not in sep
                let mut nbrs = self.adjacency[v].clone();
                nbrs.difference_with(&seen);
                for w in nbrs.iter() {
                    seen.insert(w);
                    comp.insert(w);
                    queue.push(w);
                }
            }
            out.push(comp);
        }
        out
    }

    /// `[S]`-components as *edge* sets: the maximal sets of pairwise
    /// `[sep]`-connected edges. An edge belongs to a component iff it has at
    /// least one vertex outside `sep` (edges fully inside `sep` belong to no
    /// component, cf. Section 2 of the paper).
    pub fn edge_components(&self, sep: &BitSet) -> Vec<BitSet> {
        self.vertex_components(sep)
            .iter()
            .map(|comp| self.edges_touching(comp))
            .collect()
    }

    /// `[S]`-components restricted to a sub-universe of edges: components of
    /// the edges in `within` w.r.t. separator `sep`. Used by the top-down
    /// hw algorithm, which recurses on edge components.
    pub fn edge_components_within(&self, sep: &BitSet, within: &BitSet) -> Vec<BitSet> {
        // BFS over edges of `within`: two edges are adjacent if they share a
        // vertex outside `sep`.
        let mut remaining = within.clone();
        let mut out = Vec::new();
        let mut queue: Vec<usize> = Vec::new();
        while let Some(start) = remaining.first() {
            remaining.remove(start);
            if self.edges[start].is_subset(sep) {
                continue; // fully covered edge: in no component
            }
            let mut comp = self.empty_edge_set();
            comp.insert(start);
            // frontier of reachable vertices outside sep
            let mut verts = self.edges[start].difference(sep);
            queue.clear();
            queue.extend(verts.iter());
            while let Some(v) = queue.pop() {
                for &e in &self.incidence[v] {
                    if remaining.contains(e) {
                        remaining.remove(e);
                        comp.insert(e);
                        let new = self.edges[e].difference(sep).difference(&verts);
                        for w in new.iter() {
                            verts.insert(w);
                            queue.push(w);
                        }
                    }
                }
            }
            out.push(comp);
        }
        out
    }

    /// All edges having at least one vertex in `verts`.
    pub fn edges_touching(&self, verts: &BitSet) -> BitSet {
        let mut s = self.empty_edge_set();
        for v in verts.iter() {
            for &e in &self.incidence[v] {
                s.insert(e);
            }
        }
        s
    }

    /// True iff the Gaifman graph is connected (and the hypergraph is
    /// non-empty).
    pub fn is_connected(&self) -> bool {
        self.num_vertices() > 0 && self.vertex_components(&self.empty_vertex_set()).len() == 1
    }

    /// Finds some edge cover of `bag` using at most `k` edges, if one
    /// exists. Branch-and-bound on the uncovered vertex with the fewest
    /// incident edges. This is the width-check primitive shared by the
    /// solvers (via `softhw_core::cover`) and the block index's cached
    /// cover-size queries.
    pub fn find_edge_cover(&self, bag: &BitSet, k: usize) -> Option<Vec<usize>> {
        fn rec(h: &Hypergraph, uncovered: &BitSet, k: usize, chosen: &mut Vec<usize>) -> bool {
            // Pivot: uncovered vertex with the fewest incident edges.
            let mut pivot: Option<(usize, usize)> = None;
            for v in uncovered.iter() {
                let deg = h.incident_edges(v).len();
                if pivot.is_none_or(|(_, d)| deg < d) {
                    pivot = Some((v, deg));
                }
            }
            let Some((pivot, _)) = pivot else {
                return true;
            };
            if k == 0 {
                return false;
            }
            for &e in h.incident_edges(pivot) {
                if chosen.contains(&e) {
                    continue;
                }
                let rest = uncovered.difference(h.edge(e));
                chosen.push(e);
                if rec(h, &rest, k - 1, chosen) {
                    return true;
                }
                chosen.pop();
            }
            false
        }
        // A cover never repeats an edge: clamp before sizing the scratch.
        let k = k.min(self.num_edges());
        let mut chosen = Vec::with_capacity(k);
        if rec(self, bag, k, &mut chosen) {
            Some(chosen)
        } else {
            None
        }
    }

    /// Compact `name(v1,v2,..)` rendering of one edge.
    pub fn render_edge(&self, e: usize) -> String {
        let vs: Vec<&str> = self.edges[e].iter().map(|v| self.vertex_name(v)).collect();
        format!("{}({})", self.edge_name(e), vs.join(","))
    }

    /// Renders a vertex set with names, e.g. `{a,b,c}`.
    pub fn render_vertex_set(&self, s: &BitSet) -> String {
        let vs: Vec<&str> = s.iter().map(|v| self.vertex_name(v)).collect();
        format!("{{{}}}", vs.join(","))
    }
}

impl fmt::Debug for Hypergraph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Hypergraph({} vertices, {} edges)",
            self.num_vertices(),
            self.num_edges()
        )?;
        for e in 0..self.num_edges() {
            writeln!(f, "  {}", self.render_edge(e))?;
        }
        Ok(())
    }
}

/// Incremental construction of a [`Hypergraph`].
#[derive(Default)]
pub struct HypergraphBuilder {
    vertex_names: Vec<String>,
    vertex_ids: FxHashMap<String, usize>,
    edge_names: Vec<String>,
    edge_vertices: Vec<Vec<usize>>,
}

impl HypergraphBuilder {
    /// Fresh builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Fresh builder with pre-sized tables: room for `vertices` distinct
    /// vertices and `edges` edges before any rehash or reallocation.
    /// Both are capacity hints, not limits.
    pub fn with_capacity(vertices: usize, edges: usize) -> Self {
        HypergraphBuilder {
            vertex_names: Vec::with_capacity(vertices),
            vertex_ids: FxHashMap::with_capacity_and_hasher(vertices, Default::default()),
            edge_names: Vec::with_capacity(edges),
            edge_vertices: Vec::with_capacity(edges),
        }
    }

    /// Interns a vertex by name, returning its id.
    pub fn vertex(&mut self, name: &str) -> usize {
        if let Some(&id) = self.vertex_ids.get(name) {
            return id;
        }
        let id = self.vertex_names.len();
        self.vertex_names.push(name.to_string());
        self.vertex_ids.insert(name.to_string(), id);
        id
    }

    /// Adds an edge given vertex *names* (vertices are interned on the fly).
    pub fn edge(&mut self, name: &str, vertices: &[&str]) -> usize {
        let ids: Vec<usize> = vertices.iter().map(|v| self.vertex(v)).collect();
        self.edge_ids(name, &ids)
    }

    /// Adds an edge given existing vertex ids.
    pub fn edge_ids(&mut self, name: &str, vertices: &[usize]) -> usize {
        let id = self.edge_names.len();
        self.edge_names.push(name.to_string());
        self.edge_vertices.push(vertices.to_vec());
        id
    }

    /// Number of vertices interned so far.
    pub fn num_vertices(&self) -> usize {
        self.vertex_names.len()
    }

    /// Finalises the hypergraph. Panics if any vertex is isolated (the
    /// paper's standing assumption); use
    /// [`HypergraphBuilder::build_allow_isolated`] to opt out.
    pub fn build(self) -> Hypergraph {
        let h = self.build_allow_isolated();
        for v in 0..h.num_vertices() {
            assert!(
                !h.incidence[v].is_empty(),
                "isolated vertex {:?}",
                h.vertex_name(v)
            );
        }
        h
    }

    /// Finalises the hypergraph without the isolated-vertex check.
    pub fn build_allow_isolated(self) -> Hypergraph {
        let n = self.vertex_names.len();
        let mut edges = Vec::with_capacity(self.edge_vertices.len());
        let mut incidence = vec![Vec::new(); n];
        for (eid, vs) in self.edge_vertices.iter().enumerate() {
            let mut set = BitSet::empty(n);
            for &v in vs {
                if set.insert(v) {
                    incidence[v].push(eid);
                }
            }
            edges.push(set);
        }
        let mut adjacency = vec![BitSet::empty(n); n];
        for e in &edges {
            for v in e.iter() {
                adjacency[v].union_with(e);
            }
        }
        Hypergraph {
            vertex_names: self.vertex_names,
            edge_names: self.edge_names,
            edges,
            incidence,
            adjacency,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path3() -> Hypergraph {
        // a-b-c path: edges {a,b}, {b,c}
        let mut b = HypergraphBuilder::new();
        b.edge("e1", &["a", "b"]);
        b.edge("e2", &["b", "c"]);
        b.build()
    }

    #[test]
    fn builder_basics() {
        let h = path3();
        assert_eq!(h.num_vertices(), 3);
        assert_eq!(h.num_edges(), 2);
        assert_eq!(h.vertex_by_name("b"), Some(1));
        assert_eq!(h.edge_by_name("e2"), Some(1));
        assert_eq!(h.incident_edges(1), &[0, 1]);
        assert!(h.is_connected());
    }

    #[test]
    #[should_panic(expected = "isolated vertex")]
    fn isolated_vertex_rejected() {
        let mut b = HypergraphBuilder::new();
        b.vertex("lonely");
        b.edge("e", &["a", "b"]);
        b.build();
    }

    #[test]
    fn vertex_components_split_by_separator() {
        let h = path3();
        let sep = h.vset(&["b"]);
        let comps = h.vertex_components(&sep);
        assert_eq!(comps.len(), 2);
        let mut names: Vec<String> = comps.iter().map(|c| h.render_vertex_set(c)).collect();
        names.sort();
        assert_eq!(names, vec!["{a}", "{c}"]);
    }

    #[test]
    fn edge_components_exclude_covered_edges() {
        // Example 1 sanity from the paper: separator {2,3,4,b} of H2 leaves
        // one component not containing the covered edges.
        let h = crate::named::h2();
        let lambda2 = [
            h.edge_by_name("e34").unwrap(),
            h.edge_by_name("e23b").unwrap(),
        ];
        let sep = h.union_of_edges(lambda2);
        let comps = h.edge_components(&sep);
        assert_eq!(comps.len(), 1);
        let uc = h.union_of_edge_set(&comps[0]);
        // ⋃C = V \ {3}
        let mut expect = h.all_vertices();
        expect.remove(h.vertex_by_name("3").unwrap());
        assert_eq!(uc, expect);
    }

    #[test]
    fn edge_components_within_respects_universe() {
        let h = path3();
        let within = BitSet::from_iter(2, [0]); // only edge e1
        let sep = h.vset(&["b"]);
        let comps = h.edge_components_within(&sep, &within);
        assert_eq!(comps.len(), 1);
        assert_eq!(comps[0].to_vec(), vec![0]);
        // with separator covering e1 entirely, no components
        let sep2 = h.vset(&["a", "b"]);
        assert!(h.edge_components_within(&sep2, &within).is_empty());
    }

    #[test]
    fn union_of_edges_matches_manual() {
        let h = path3();
        let u = h.union_of_edges([0, 1]);
        assert_eq!(u, h.all_vertices());
    }

    #[test]
    fn disconnected_graph_detected() {
        let mut b = HypergraphBuilder::new();
        b.edge("e1", &["a", "b"]);
        b.edge("e2", &["c", "d"]);
        let h = b.build();
        assert!(!h.is_connected());
        assert_eq!(h.vertex_components(&h.empty_vertex_set()).len(), 2);
    }
}
