//! Width-preserving simplification of hypergraphs before solving `shw`.
//!
//! Exact width computation pays `|E|^k` enumeration costs on every vertex
//! and edge of the input, including the many that provably cannot affect
//! the width. Following the preprocessing step of the exact-width
//! literature (Moll, Tazari, Thurley: *Computing hypergraph width
//! measures exactly*) and the reductions det-k-decomp applies to
//! HyperBench instances, this module shrinks a hypergraph to a fixpoint
//! under three rules before any solver runs:
//!
//! 1. **Subsumed-edge removal** — an edge contained in another edge never
//!    appears in an optimal bag cover; word-level subset tests on the
//!    `u64` bitset rows drop it (duplicated edges keep the lowest id).
//!    Bag covers are what `shw` and `ghw` read. `hw`'s `λ` is not one:
//!    its union also bounds what the subtree below may hold (the special
//!    condition). `H2` plus the edge `{2, a}`, a subset of `{1, 2, a}`,
//!    has `hw` 2: its HD puts `{2, a}` in the `λ` of a bag without vertex
//!    1 whose subtree holds 1, where `{1, 2, a}` would break the special
//!    condition. Without `{2, a}` it is `H2` again, with `hw` 3. So `hw`
//!    is solved on the input as sent, never on a reduction.
//! 2. **Degree-1 vertex peeling** — a vertex in exactly one edge is
//!    removed from it. The peel worklist is XOR-packed in the style of
//!    the cache-oblivious peeling of Belazzougui et al.: per vertex we
//!    keep only a degree counter and the XOR of incident alive edge ids,
//!    so when the degree hits 1 the accumulator *is* the host edge and
//!    the whole peel runs allocation-free over two flat `u32` arrays.
//! 3. **`[∅]`-component splitting** — the reduced edges are grouped into
//!    connected pieces that downstream solvers decompose independently
//!    (widths recombine by max).
//!
//! Every rule application is recorded in an ordered [`ReduceEvent`]
//! trace, and each event carries the edge set it removed, so a witness
//! decomposition of the reduced pieces can be lifted back to a valid
//! `TreeDecomposition` of the *original* hypergraph by replaying the
//! trace backwards (see `softhw-core`'s `reduce_solve`).
//!
//! Pieces are rebuilt deterministically — edges in ascending original id
//! with their original names, vertices numbered by first occurrence — so
//! a schema submitted raw and the same schema submitted already-reduced
//! produce structurally identical pieces and share solver cache entries.

use crate::bitset::BitSet;
use crate::hypergraph::{Hypergraph, HypergraphBuilder};

/// One recorded application of a reduction rule, in forward order.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ReduceEvent {
    /// Edge `edge` (with current vertex set `set`) was removed because
    /// `set` is contained in the current vertex set of edge `subsumer`.
    Drop {
        /// The dropped edge (original id).
        edge: usize,
        /// The alive edge whose set contained it at drop time.
        subsumer: usize,
        /// The dropped edge's vertex set at drop time.
        set: BitSet,
    },
    /// Vertex `vertex` had degree 1 and was peeled out of its single
    /// host edge `edge`.
    Peel {
        /// The peeled vertex.
        vertex: usize,
        /// Its single host edge (original id) at peel time.
        edge: usize,
        /// The host edge's vertex set immediately *before* the peel.
        host_before: BitSet,
    },
}

/// One connected component of the reduced hypergraph, rebuilt as a
/// standalone [`Hypergraph`] plus the maps back to original ids.
#[derive(Clone, Debug)]
pub struct ReducePiece {
    /// The piece itself (original edge and vertex names preserved).
    pub h: Hypergraph,
    /// `vertex_map[piece_vertex] = original_vertex`.
    pub vertex_map: Vec<usize>,
    /// `edge_map[piece_edge] = original_edge`.
    pub edge_map: Vec<usize>,
}

/// What the pipeline did, in the units the service's `STATS` rows report.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ReduceStats {
    /// Edges removed by subsumption.
    pub edges_dropped: usize,
    /// Degree-1 vertices peeled out of their host edge.
    pub vertices_peeled: usize,
    /// Connected pieces the reduced hypergraph splits into.
    pub components: usize,
}

/// The full reduction trace of one hypergraph: the ordered events, the
/// connected pieces that remain, and summary statistics.
#[derive(Clone, Debug)]
pub struct Reduction {
    /// `|V|` of the original hypergraph.
    pub num_vertices: usize,
    /// `|E|` of the original hypergraph.
    pub num_edges: usize,
    /// Rule applications in forward order (replay backwards to lift).
    pub events: Vec<ReduceEvent>,
    /// Connected components of the reduced hypergraph, by ascending
    /// smallest original edge id.
    pub pieces: Vec<ReducePiece>,
    /// Summary counters.
    pub stats: ReduceStats,
}

impl Reduction {
    /// True iff the pipeline changed nothing: no rule fired and the
    /// input was connected (at most one piece). Callers use this to take
    /// the raw solver path byte-for-byte.
    pub fn is_trivial(&self) -> bool {
        self.events.is_empty() && self.pieces.len() <= 1
    }
}

/// Runs the simplification pipeline on `h` to fixpoint and splits the
/// result into connected pieces. `h` itself is not modified.
pub fn reduce(h: &Hypergraph) -> Reduction {
    let _span = softhw_obs::span(softhw_obs::stage::REDUCE);
    let nv = h.num_vertices();
    let ne = h.num_edges();
    let mut cur: Vec<BitSet> = h.edges().to_vec();
    let mut alive: Vec<bool> = vec![true; ne];
    // XOR-packed incidence accumulators: deg[v] counts alive edges whose
    // current set contains v, exor[v] is the XOR of their ids. When
    // deg[v] == 1 the accumulator holds exactly the host edge id.
    let mut deg: Vec<u32> = vec![0; nv];
    let mut exor: Vec<u32> = vec![0; nv];
    for (e, set) in cur.iter().enumerate() {
        for v in set.iter() {
            deg[v] += 1;
            exor[v] ^= e as u32;
        }
    }
    let mut worklist: Vec<u32> = (0..nv as u32).filter(|&v| deg[v as usize] == 1).collect();
    let mut events: Vec<ReduceEvent> = Vec::new();
    let mut stats = ReduceStats::default();

    loop {
        // Peel degree-1 vertices to fixpoint (allocation-free: the
        // worklist is the only growth, bounded by |V| + drop fan-in).
        while let Some(v) = worklist.pop() {
            let v = v as usize;
            if deg[v] != 1 {
                continue; // stale entry: degree changed since queued
            }
            let e = exor[v] as usize;
            debug_assert!(
                alive[e] && cur[e].contains(v),
                "XOR accumulator out of sync"
            );
            let host_before = cur[e].clone();
            cur[e].remove(v);
            deg[v] = 0;
            exor[v] = 0;
            stats.vertices_peeled += 1;
            if cur[e].is_empty() {
                // Fully peeled: the edge is vacuous from here on.
                alive[e] = false;
            }
            events.push(ReduceEvent::Peel {
                vertex: v,
                edge: e,
                host_before,
            });
        }

        // One subsumption sweep, smallest edges first (they are the
        // candidates for being contained). Candidate subsumers come from
        // the original incidence list of the edge's smallest vertex: a
        // vertex still present in an edge was never peeled, so original
        // incidence is a superset of current incidence.
        let mut order: Vec<usize> = (0..ne).filter(|&e| alive[e]).collect();
        order.sort_unstable_by_key(|&e| (cur[e].len(), e));
        let mut changed = false;
        for &d in &order {
            if !alive[d] {
                continue; // dropped earlier in this sweep
            }
            let Some(pivot) = cur[d].first() else {
                continue;
            };
            for &f in h.incident_edges(pivot) {
                if f == d || !alive[f] || !cur[f].contains(pivot) {
                    continue;
                }
                if !cur[d].is_subset(&cur[f]) {
                    continue;
                }
                if cur[d] == cur[f] && d < f {
                    continue; // duplicate edges: the lower id survives
                }
                alive[d] = false;
                for v in cur[d].iter() {
                    deg[v] -= 1;
                    exor[v] ^= d as u32;
                    if deg[v] == 1 {
                        worklist.push(v as u32);
                    }
                }
                stats.edges_dropped += 1;
                events.push(ReduceEvent::Drop {
                    edge: d,
                    subsumer: f,
                    set: cur[d].clone(),
                });
                changed = true;
                break;
            }
        }
        if !changed {
            break;
        }
    }

    // Split the surviving edges into connected components (BFS over
    // shared vertices of the *current* sets) and rebuild each as a
    // standalone hypergraph with original names.
    let mut inc: Vec<Vec<u32>> = vec![Vec::new(); nv];
    for e in 0..ne {
        if alive[e] {
            for v in cur[e].iter() {
                inc[v].push(e as u32);
            }
        }
    }
    let mut comp_of: Vec<usize> = vec![usize::MAX; ne];
    let mut num_comps = 0usize;
    let mut stack: Vec<u32> = Vec::new();
    for seed in 0..ne {
        if !alive[seed] || comp_of[seed] != usize::MAX {
            continue;
        }
        comp_of[seed] = num_comps;
        stack.push(seed as u32);
        while let Some(e) = stack.pop() {
            for v in cur[e as usize].iter() {
                for &f in &inc[v] {
                    if comp_of[f as usize] == usize::MAX {
                        comp_of[f as usize] = num_comps;
                        stack.push(f);
                    }
                }
            }
        }
        num_comps += 1;
    }
    let mut piece_edges: Vec<Vec<usize>> = vec![Vec::new(); num_comps];
    for e in 0..ne {
        if alive[e] {
            piece_edges[comp_of[e]].push(e); // ascending: e iterates upward
        }
    }
    let mut pieces: Vec<ReducePiece> = Vec::with_capacity(num_comps);
    for edges in piece_edges {
        let mut b = HypergraphBuilder::new();
        let mut vertex_map: Vec<usize> = Vec::new();
        let mut seen: BitSet = BitSet::empty(nv);
        for &e in &edges {
            // The builder numbers vertices by first occurrence, matching
            // this traversal exactly; vertex_map mirrors it.
            for v in cur[e].iter() {
                if seen.insert(v) {
                    vertex_map.push(v);
                }
            }
            let names: Vec<&str> = cur[e].iter().map(|v| h.vertex_name(v)).collect();
            b.edge(h.edge_name(e), &names);
        }
        let piece = b.build();
        debug_assert_eq!(piece.num_vertices(), vertex_map.len());
        pieces.push(ReducePiece {
            h: piece,
            vertex_map,
            edge_map: edges,
        });
    }
    stats.components = pieces.len();
    Reduction {
        num_vertices: nv,
        num_edges: ne,
        events,
        pieces,
        stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::named;

    #[test]
    fn named_instances_are_irreducible() {
        for h in [
            named::h2(),
            named::cycle(6),
            named::grid(3, 3),
            named::triangle_star(3),
        ] {
            let r = reduce(&h);
            assert!(r.is_trivial(), "expected trivial reduction");
            assert_eq!(r.pieces.len(), 1);
            assert_eq!(r.pieces[0].h.num_edges(), h.num_edges());
            assert_eq!(r.pieces[0].h.num_vertices(), h.num_vertices());
        }
    }

    #[test]
    fn single_edge_peels_to_nothing() {
        let mut b = HypergraphBuilder::new();
        b.edge("e", &["x", "y", "z"]);
        let r = reduce(&b.build());
        assert_eq!(r.stats.vertices_peeled, 3);
        assert_eq!(r.stats.components, 0);
        assert!(r.pieces.is_empty());
        assert_eq!(r.events.len(), 3);
        // The last peel sees a singleton host.
        let ReduceEvent::Peel { host_before, .. } = r.events.last().unwrap() else {
            panic!("expected a peel");
        };
        assert_eq!(host_before.len(), 1);
    }

    #[test]
    fn subsumed_edge_dropped_and_peel_cascades() {
        // big(a,b,c), small(a,b), tail(c,d): small ⊆ big is dropped, then
        // d peels from tail, then c, then tail subsumes into big... the
        // acyclic instance reduces to nothing.
        let mut b = HypergraphBuilder::new();
        b.edge("big", &["a", "b", "c"]);
        b.edge("small", &["a", "b"]);
        b.edge("tail", &["c", "d"]);
        let r = reduce(&b.build());
        assert!(r.stats.edges_dropped >= 1);
        assert!(r.pieces.is_empty(), "acyclic input reduces to nothing");
        // All four vertices are accounted for by the trace.
        let mut covered = BitSet::empty(r.num_vertices);
        for ev in &r.events {
            match ev {
                ReduceEvent::Drop { set, .. } => covered.union_with(set),
                ReduceEvent::Peel {
                    vertex,
                    host_before,
                    ..
                } => {
                    assert!(host_before.contains(*vertex));
                    covered.union_with(host_before);
                }
            }
        }
        assert_eq!(covered.len(), 4);
    }

    #[test]
    fn duplicate_edges_keep_lowest_id() {
        let mut b = HypergraphBuilder::new();
        b.edge("e1", &["a", "b"]);
        b.edge("e2", &["b", "a"]);
        b.edge("e3", &["b", "c"]);
        b.edge("e4", &["c", "a"]);
        let r = reduce(&b.build());
        let dropped: Vec<usize> = r
            .events
            .iter()
            .filter_map(|ev| match ev {
                ReduceEvent::Drop { edge, .. } => Some(*edge),
                _ => None,
            })
            .collect();
        assert_eq!(dropped, vec![1], "the higher duplicate id is dropped");
        assert_eq!(r.pieces.len(), 1);
        assert_eq!(r.pieces[0].edge_map, vec![0, 2, 3]);
    }

    #[test]
    fn disconnected_input_splits_into_pieces() {
        let mut b = HypergraphBuilder::new();
        b.edge("e1", &["a", "b"]);
        b.edge("e2", &["b", "c"]);
        b.edge("e3", &["c", "a"]);
        b.edge("f1", &["x", "y"]);
        b.edge("f2", &["y", "z"]);
        b.edge("f3", &["z", "x"]);
        let r = reduce(&b.build());
        assert_eq!(
            r.stats,
            ReduceStats {
                edges_dropped: 0,
                vertices_peeled: 0,
                components: 2
            }
        );
        assert!(!r.is_trivial());
        assert_eq!(r.pieces[0].edge_map, vec![0, 1, 2]);
        assert_eq!(r.pieces[1].edge_map, vec![3, 4, 5]);
        // Maps translate names faithfully.
        let h = {
            let mut b = HypergraphBuilder::new();
            b.edge("e1", &["a", "b"]);
            b.edge("e2", &["b", "c"]);
            b.edge("e3", &["c", "a"]);
            b.edge("f1", &["x", "y"]);
            b.edge("f2", &["y", "z"]);
            b.edge("f3", &["z", "x"]);
            b.build()
        };
        for piece in &r.pieces {
            for (pv, &rv) in piece.vertex_map.iter().enumerate() {
                assert_eq!(piece.h.vertex_name(pv), h.vertex_name(rv));
            }
            for (pe, &re) in piece.edge_map.iter().enumerate() {
                assert_eq!(piece.h.edge_name(pe), h.edge_name(re));
            }
        }
    }

    #[test]
    fn pieces_are_fully_reduced() {
        // Re-reducing any piece is a no-op: the fixpoint is global.
        let mut b = HypergraphBuilder::new();
        b.edge("e1", &["a", "b", "c"]);
        b.edge("e2", &["b", "c", "d"]);
        b.edge("e3", &["c", "d", "a"]);
        b.edge("pendant", &["d", "p"]);
        b.edge("far1", &["u", "v"]);
        b.edge("far2", &["v", "w"]);
        b.edge("far3", &["w", "u"]);
        let r = reduce(&b.build());
        assert!(!r.pieces.is_empty());
        for piece in &r.pieces {
            assert!(reduce(&piece.h).is_trivial());
        }
    }

    #[test]
    fn events_replay_to_the_reduced_state() {
        // Forward-replaying the trace over the raw edge sets yields
        // exactly the pieces' edge sets.
        let h = {
            let mut b = HypergraphBuilder::new();
            b.edge("core1", &["a", "b", "c"]);
            b.edge("core2", &["b", "c", "d"]);
            b.edge("core3", &["c", "d", "a"]);
            b.edge("sub", &["a", "b"]);
            b.edge("chain1", &["d", "e"]);
            b.edge("chain2", &["e", "f"]);
            b.build()
        };
        let r = reduce(&h);
        let mut cur: Vec<BitSet> = h.edges().to_vec();
        let mut alive = vec![true; h.num_edges()];
        for ev in &r.events {
            match ev {
                ReduceEvent::Drop {
                    edge,
                    subsumer,
                    set,
                } => {
                    assert!(alive[*edge] && alive[*subsumer]);
                    assert_eq!(&cur[*edge], set);
                    assert!(set.is_subset(&cur[*subsumer]));
                    alive[*edge] = false;
                }
                ReduceEvent::Peel {
                    vertex,
                    edge,
                    host_before,
                } => {
                    assert!(alive[*edge]);
                    assert_eq!(&cur[*edge], host_before);
                    cur[*edge].remove(*vertex);
                    if cur[*edge].is_empty() {
                        alive[*edge] = false;
                    }
                }
            }
        }
        let mut alive_total = 0;
        for piece in &r.pieces {
            for (pe, &re) in piece.edge_map.iter().enumerate() {
                assert!(alive[re]);
                alive_total += 1;
                let lifted: Vec<usize> = piece
                    .h
                    .edge(pe)
                    .iter()
                    .map(|v| piece.vertex_map[v])
                    .collect();
                let expect: Vec<usize> = cur[re].iter().collect();
                assert_eq!(lifted, expect);
            }
        }
        assert_eq!(alive_total, alive.iter().filter(|&&a| a).count());
    }
}
