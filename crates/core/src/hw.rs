//! Hypertree width via a det-k-decomp-style top-down search
//! (Gottlob & Samer \[22\]; the paper's baseline notion from Section 2).
//!
//! The solver searches for an HD of width ≤ k in the Gottlob–Leone–
//! Scarcello normal form: every node `u` handling a sub-problem
//! `(comp, conn)` — an edge component `comp` and the connector vertices
//! `conn` shared with the parent — carries the bag
//! `χ_u = ⋃λ_u ∩ (conn ∪ V(comp))` for some `λ_u` of at most `k` edges
//! with `conn ⊆ ⋃λ_u`, and its children handle the `[χ_u]`-components of
//! `comp`, which are strictly smaller. Restricting bags to this normal
//! form is complete for HDs (\[19\], Lemma 5.2-style normalisation; also
//! re-derived as Equation (1)'s ancestor in Section 4 of the paper), and
//! it enforces the special condition by construction: vertices of `⋃λ_u`
//! outside `conn ∪ V(comp)` never occur in the subtree below `u`.
//!
//! Sub-problems are memoised on `(comp, conn)`; separator enumeration is
//! cover-guided (branch on the lowest uncovered connector vertex) with a
//! free extension phase, which prunes the `|E|^k` space drastically.
//!
//! [`hw`] and [`hw_leq`] are [`crate::solve`] under the matching
//! [`SolveSpec`] — the cold door of the one solver pipeline
//! ([`crate::reduce_solve`]); the raw sweep is that door under
//! [`SolveSpec::with_reduce`]`(false)`. [`hw_leq_budgeted`] is the
//! pipeline's `hw` leaf.

use crate::budget::Budget;
use crate::error::DecompError;
use crate::ghd::Ghd;
use crate::spec::{SolveSpec, Solved};
use crate::td::TreeDecomposition;
use softhw_hypergraph::{BagArena, BagId, BitSet, FxHashMap, Hypergraph};

struct Solver<'h> {
    h: &'h Hypergraph,
    k: usize,
    /// Interner for component edge sets (edge universe).
    comp_arena: BagArena,
    /// Interner for connector vertex sets (vertex universe).
    conn_arena: BagArena,
    /// `(component id, connector id)` → witness separator. Keying the
    /// memo on interned ids makes probes a u64 hash + two u32 compares
    /// instead of re-hashing and re-comparing two boxed bitsets.
    memo: FxHashMap<(BagId, BagId), Option<Vec<usize>>>,
    /// Cooperative budget, ticked once per sub-problem. The boolean
    /// recursion cannot carry a `Result`, so a trip is latched in
    /// `tripped` and `decompose` answers `false` from then on — the
    /// top-level entry point checks the latch and converts it to the
    /// budget error before any (now meaningless) reject can escape.
    budget: Budget,
    /// First budget error observed, if any.
    tripped: Option<DecompError>,
}

impl<'h> Solver<'h> {
    fn new(h: &'h Hypergraph, k: usize, budget: Budget) -> Self {
        Solver {
            h,
            k,
            comp_arena: BagArena::new(h.num_edges()),
            conn_arena: BagArena::new(h.num_vertices()),
            memo: FxHashMap::default(),
            budget,
            tripped: None,
        }
    }

    fn key(&mut self, comp: &BitSet, conn: &BitSet) -> (BagId, BagId) {
        (self.comp_arena.intern(comp), self.conn_arena.intern(conn))
    }

    /// Does the sub-problem `(comp, conn)` admit an HD subtree of width ≤ k?
    fn decompose(&mut self, comp: &BitSet, conn: &BitSet) -> bool {
        if self.tripped.is_some() {
            return false; // unwind: the top level reports the trip
        }
        if let Err(e) = self.budget.tick() {
            self.tripped = Some(e);
            return false;
        }
        if comp.is_empty() && conn.is_empty() {
            return true;
        }
        let key = self.key(comp, conn);
        if let Some(r) = self.memo.get(&key) {
            return r.is_some();
        }
        // Candidate separator edges: those touching the sub-problem. Edges
        // disjoint from conn ∪ V(comp) contribute nothing to the bag and
        // can be dropped from any separator without harm.
        let mut scope = self.h.union_of_edge_set(comp);
        scope.union_with(conn);
        let pool: Vec<usize> = (0..self.h.num_edges())
            .filter(|&e| self.h.edge(e).intersects(&scope))
            .collect();
        let mut chosen: Vec<usize> = Vec::with_capacity(self.k);
        let found = self.search(&pool, comp, conn, &scope, conn.clone(), &mut chosen, 0);
        if self.tripped.is_some() {
            // A trip mid-search makes `found` meaningless: do not poison
            // the memo with it (the solver is discarded on the error
            // path anyway, but the invariant is cheap to keep).
            return false;
        }
        let entry = if found { Some(chosen) } else { None };
        self.memo.insert(key, entry);
        found
    }

    /// Cover phase: branch on the lowest connector vertex not yet covered
    /// by the current separator; once covered, try the separator and then
    /// extend it with further pool edges.
    #[allow(clippy::too_many_arguments)]
    fn search(
        &mut self,
        pool: &[usize],
        comp: &BitSet,
        conn: &BitSet,
        scope: &BitSet,
        uncovered: BitSet,
        chosen: &mut Vec<usize>,
        ext_from: usize,
    ) -> bool {
        if let Some(pivot) = uncovered.first() {
            if chosen.len() == self.k {
                return false;
            }
            for &e in pool {
                if !self.h.edge(e).contains(pivot) || chosen.contains(&e) {
                    continue;
                }
                let rest = uncovered.difference(self.h.edge(e));
                chosen.push(e);
                // Extension ordering restarts at 0: splitter edges may have
                // smaller pool indices than cover edges.
                if self.search(pool, comp, conn, scope, rest, chosen, 0) {
                    return true;
                }
                chosen.pop();
            }
            return false;
        }
        // Connector covered: try the current separator.
        if !chosen.is_empty() && self.try_separator(comp, conn, scope, chosen) {
            return true;
        }
        // Extension phase: grow with pool edges at positions >= ext_from
        // (canonical ascending order avoids re-enumerating extensions).
        if chosen.len() < self.k {
            for pos in ext_from..pool.len() {
                let e = pool[pos];
                if chosen.contains(&e) {
                    continue;
                }
                chosen.push(e);
                if self.search(
                    pool,
                    comp,
                    conn,
                    scope,
                    BitSet::empty(self.h.num_vertices()),
                    chosen,
                    pos + 1,
                ) {
                    return true;
                }
                chosen.pop();
            }
        }
        false
    }

    /// Evaluates one candidate separator: derive the bag, split the
    /// component, require strict progress, and recurse.
    fn try_separator(
        &mut self,
        comp: &BitSet,
        _conn: &BitSet,
        scope: &BitSet,
        lambda: &[usize],
    ) -> bool {
        let mut chi = self.h.union_of_edges(lambda.iter().copied());
        chi.intersect_with(scope);
        let comp_size = comp.len();
        let subcomps = self.h.edge_components_within(&chi, comp);
        for sc in &subcomps {
            if sc.len() >= comp_size {
                return false; // no progress; normal form guarantees some λ splits
            }
        }
        for sc in &subcomps {
            let sub_conn = self.h.union_of_edge_set(sc).intersection(&chi);
            if !self.decompose(sc, &sub_conn) {
                return false;
            }
        }
        true
    }

    /// Rebuilds the HD from the memo table after a successful run.
    fn build(&self, comp: &BitSet, conn: &BitSet, td: &mut Option<Ghd>, parent: Option<usize>) {
        // Every sub-problem reached here was decomposed, so both keys are
        // already interned; lookup needs no `&mut self`.
        let key = (
            self.comp_arena
                .lookup_words(comp.blocks())
                .expect("memoised component"),
            self.conn_arena
                .lookup_words(conn.blocks())
                .expect("memoised connector"),
        );
        let lambda = self
            .memo
            .get(&key)
            .expect("memoised")
            .clone()
            .expect("successful sub-problem");
        let mut scope = self.h.union_of_edge_set(comp);
        scope.union_with(conn);
        let mut chi = self.h.union_of_edges(lambda.iter().copied());
        chi.intersect_with(&scope);
        let node = match (td.as_mut(), parent) {
            (None, _) => {
                *td = Some(Ghd {
                    td: TreeDecomposition::new(chi.clone()),
                    lambdas: vec![lambda.clone()],
                });
                0
            }
            (Some(g), Some(p)) => {
                let n = g.td.add_child(p, chi.clone());
                g.lambdas.push(lambda.clone());
                n
            }
            (Some(g), None) => {
                // extra connected component: chain under the root
                let n = g.td.add_child(g.td.root(), chi.clone());
                g.lambdas.push(lambda.clone());
                n
            }
        };
        for sc in self.h.edge_components_within(&chi, comp) {
            let sub_conn = self.h.union_of_edge_set(&sc).intersection(&chi);
            self.build(&sc, &sub_conn, td, Some(node));
        }
    }
}

/// Decides `hw(H) ≤ k`; on success returns a witness HD (validated
/// special condition included in debug builds).
pub fn hw_leq(h: &Hypergraph, k: usize) -> Option<Ghd> {
    match crate::solve(h, &SolveSpec::hw_leq(k)) {
        Ok(Solved::HwDecision(g)) => g,
        other => panic!("an unbudgeted hw ≤ k decision answered {other:?}"),
    }
}

/// [`hw_leq`] with a cooperative [`Budget`], ticked once per sub-problem
/// of the top-down search. On a trip the solver (memo included) is
/// dropped and the budget error propagates; a retry restarts the search
/// cold.
pub fn hw_leq_budgeted(
    h: &Hypergraph,
    k: usize,
    budget: &Budget,
) -> Result<Option<Ghd>, DecompError> {
    if h.num_edges() == 0 {
        return Ok(None);
    }
    let mut solver = Solver::new(h, k, budget.clone());
    let comps = h.edge_components(&h.empty_vertex_set());
    let empty = h.empty_vertex_set();
    for comp in &comps {
        let ok = solver.decompose(comp, &empty);
        if let Some(e) = solver.tripped.take() {
            return Err(e);
        }
        if !ok {
            return Ok(None);
        }
    }
    let mut ghd: Option<Ghd> = None;
    for comp in &comps {
        solver.build(comp, &empty, &mut ghd, None);
    }
    let ghd = ghd.expect("at least one component");
    debug_assert!(ghd.is_hd(h), "constructed decomposition must be an HD");
    Ok(Some(ghd))
}

/// Computes `hw(H)` exactly, returning the width and a witness HD —
/// [`crate::solve`] under [`SolveSpec::hw`]. The input is first
/// simplified by the HD-safe (no-peel) reduction pipeline
/// ([`softhw_hypergraph::reduce_no_peel`]); each piece is swept and the
/// piece witnesses lifted back ([`crate::reduce_solve`]).
pub fn hw(h: &Hypergraph) -> (usize, Ghd) {
    match crate::solve(h, &SolveSpec::hw()) {
        Ok(Solved::HwWidth(w, g)) => (w, g),
        other => panic!("the unbudgeted hw sweep answered {other:?}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use softhw_hypergraph::named;

    #[test]
    fn acyclic_has_hw_1() {
        let mut b = softhw_hypergraph::HypergraphBuilder::new();
        b.edge("e1", &["a", "b", "c"]);
        b.edge("e2", &["c", "d"]);
        b.edge("e3", &["d", "e"]);
        let h = b.build();
        let (w, ghd) = hw(&h);
        assert_eq!(w, 1);
        assert!(ghd.is_hd(&h));
    }

    #[test]
    fn cycles_have_hw_2() {
        for n in [4, 5, 6, 7, 8] {
            let h = named::cycle(n);
            assert!(hw_leq(&h, 1).is_none(), "C{n} is cyclic");
            let g = hw_leq(&h, 2).unwrap_or_else(|| panic!("hw(C{n}) = 2"));
            assert!(g.is_hd(&h));
            assert_eq!(g.width(), 2);
        }
    }

    #[test]
    fn h2_has_hw_3() {
        // Example 1: hw(H2) = 3 (while ghw = shw = 2).
        let h = named::h2();
        assert!(hw_leq(&h, 2).is_none(), "hw(H2) > 2");
        let g = hw_leq(&h, 3).expect("hw(H2) = 3");
        assert!(g.is_hd(&h));
    }

    #[test]
    fn triangle_star_hw_2() {
        let h = named::triangle_star(3);
        let (w, g) = hw(&h);
        assert_eq!(w, 2);
        assert!(g.is_hd(&h));
    }

    #[test]
    fn grid_3x3_hw() {
        let h = named::grid(3, 3);
        let (w, g) = hw(&h);
        assert!(g.is_hd(&h));
        // The 3x3 grid graph is cyclic (hw >= 2) and its treewidth-3 bags
        // are coverable by pairs of its binary edges (hw <= 3).
        assert!((2..=3).contains(&w), "hw(grid3x3) = {w}");
    }

    #[test]
    fn single_edge() {
        let mut b = softhw_hypergraph::HypergraphBuilder::new();
        b.edge("e", &["x", "y", "z"]);
        let h = b.build();
        let (w, g) = hw(&h);
        assert_eq!(w, 1);
        assert_eq!(g.td.num_nodes(), 1);
    }

    #[test]
    fn disconnected_components_each_decomposed() {
        let mut b = softhw_hypergraph::HypergraphBuilder::new();
        b.edge("e1", &["a", "b"]);
        b.edge("e2", &["c", "d"]);
        let h = b.build();
        let (w, g) = hw(&h);
        assert_eq!(w, 1);
        assert_eq!(g.td.num_nodes(), 2);
        assert!(g.validate(&h).is_ok());
    }
}
