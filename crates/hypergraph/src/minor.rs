//! A lower bound on treewidth that carries its own proof: a minor of the
//! primal graph with minimum degree `d` shows `tw ≥ d`, because treewidth
//! does not grow under taking minors and is at least the minimum degree.
//!
//! [`min_degree_minor`] finds such a minor with MMD+ in its min-d form
//! (Bodlaender and Koster, *Treewidth computations II. Lower bounds*,
//! 2011). It repeatedly contracts a vertex of minimum degree into its
//! neighbour of minimum degree, deletes a vertex of degree 0, and keeps the
//! graph at which the minimum degree peaked. The answer is a [`Minor`]: a
//! branch set per vertex, plus the degree `d`. [`check_minor`] validates
//! one against the hypergraph alone, whatever found it.

use crate::bitset::BitSet;
use crate::hypergraph::Hypergraph;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// A minor of a hypergraph's primal graph: vertex `v` lies in branch set
/// `branch[v]`, and every branch set touches at least `degree` others.
/// Contracting each set to one vertex, after deleting the vertices in no
/// set, leaves a graph of minimum degree at least `degree`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Minor {
    /// Each vertex's branch set, in `0..sets`, or [`Minor::OUTSIDE`].
    pub branch: Vec<u32>,
    /// The number of branch sets: the minor's vertex count.
    pub sets: u32,
    /// The minor's minimum degree, hence a lower bound on treewidth.
    pub degree: usize,
}

impl Minor {
    /// The branch id of a vertex the minor deletes.
    pub const OUTSIDE: u32 = u32::MAX;
}

/// Why [`check_minor`] rejects a [`Minor`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MinorError {
    /// `branch` does not hold one entry per vertex.
    Length,
    /// This vertex names a set at or past `sets`.
    OutOfRange(usize),
    /// This set has no vertex (set 0 when `sets` is 0 and `degree` is not).
    Empty(usize),
    /// This set is not connected in the primal graph.
    Disconnected(usize),
    /// This set touches fewer than `degree` other sets.
    LowDegree(usize),
}

/// MMD+ (min-d) on the primal graph of `h`: the minor at which the minimum
/// degree peaked. Ties go to the lowest vertex id, so the answer is a
/// function of `h`.
pub fn min_degree_minor(h: &Hypergraph) -> Minor {
    let n = h.num_vertices();
    let mut adj: Vec<BitSet> = (0..n)
        .map(|v| {
            let mut row = h.closed_neighbourhood(v).clone();
            row.remove(v);
            row
        })
        .collect();
    let mut degree: Vec<usize> = adj.iter().map(BitSet::len).collect();
    let mut heap: BinaryHeap<_> = (0..n).map(|v| Reverse((degree[v], v))).collect();
    // Each removed vertex, and the vertex it was contracted into (`None`
    // for a deletion), in the order of removal.
    let mut removed: Vec<(usize, Option<usize>)> = Vec::with_capacity(n);
    let (mut best, mut peak) = (0, 0);
    while let Some(Reverse((d, v))) = heap.pop() {
        // A stale entry's degree is not `d`; a removed vertex's is `MAX`.
        if d != degree[v] {
            continue;
        }
        if d > best {
            (best, peak) = (d, removed.len());
        }
        degree[v] = usize::MAX;
        let row = std::mem::replace(&mut adj[v], BitSet::empty(0));
        let into = row.iter().min_by_key(|&u| (degree[u], u));
        if let Some(u) = into {
            for w in row.iter().filter(|&w| w != u) {
                adj[w].remove(v);
                if adj[w].contains(u) {
                    degree[w] -= 1;
                    heap.push(Reverse((degree[w], w)));
                } else {
                    adj[w].insert(u);
                    adj[u].insert(w);
                    degree[u] += 1;
                }
            }
            adj[u].remove(v);
            degree[u] -= 1;
            heap.push(Reverse((degree[u], u)));
        }
        removed.push((v, into));
    }
    // Undo the removals before the peak last to first: a vertex lies in
    // the set of the vertex it went into, which left later or never.
    let mut root: Vec<Option<usize>> = (0..n).map(Some).collect();
    for &(v, into) in removed[..peak].iter().rev() {
        root[v] = into.and_then(|u| root[u]);
    }
    let mut id = vec![Minor::OUTSIDE; n];
    let mut sets = 0;
    let mut branch = Vec::with_capacity(n);
    for r in root {
        branch.push(r.map_or(Minor::OUTSIDE, |r| {
            if id[r] == Minor::OUTSIDE {
                id[r] = sets;
                sets += 1;
            }
            id[r]
        }));
    }
    Minor {
        branch,
        sets,
        degree: best,
    }
}

/// The least `k` whose `k` largest edges of `h` hold more than `m.degree`
/// vertices between them, or `|E| + 1` if all of them do not. A tree
/// decomposition of `h` whose every bag lies in a union of fewer edges
/// has bags of at most `m.degree` vertices, so a width below `m.degree`,
/// which the minor forbids (`tw ≥ m.degree`). So `ghw`, `shw` and `hw`
/// are all at least this. On a hypergraph without isolated vertices it is
/// at most `|E|`, since `Σ|e| ≥ |V| > m.degree`.
pub fn min_cover_width(h: &Hypergraph, m: &Minor) -> usize {
    let mut sizes: Vec<usize> = h.edges().iter().map(BitSet::len).collect();
    sizes.sort_unstable_by(|a, b| b.cmp(a));
    let mut held = 0;
    1 + sizes
        .iter()
        .position(|size| {
            held += size;
            held > m.degree
        })
        .unwrap_or(sizes.len())
}

/// Checks that `m` is a minor of `h`'s primal graph with minimum degree
/// `m.degree`: every set id is in range and used, each set is connected,
/// and each touches at least `m.degree` others. It reads the edges, not
/// the adjacency rows, in `O(|V| log |V| + Σ_e |e|²)` steps after one read
/// of each edge: near-linear in `|V| + Σ|e|` at a fixed rank.
pub fn check_minor(h: &Hypergraph, m: &Minor) -> Result<(), MinorError> {
    let n = h.num_vertices();
    if m.branch.len() != n {
        return Err(MinorError::Length);
    }
    let sets = m.sets as usize;
    if sets == 0 && m.degree > 0 {
        return Err(MinorError::Empty(0));
    }
    if let Some(v) = (0..n).find(|&v| m.branch[v] != Minor::OUTSIDE && m.branch[v] >= m.sets) {
        return Err(MinorError::OutOfRange(v));
    }
    let set = |v: usize| (m.branch[v] != Minor::OUTSIDE).then_some(m.branch[v] as usize);
    // The vertices of each set, set by set: group `s` must be set `s`.
    let mut members: Vec<usize> = (0..n).filter(|&v| set(v).is_some()).collect();
    members.sort_by_key(|&v| m.branch[v]);
    let groups: Vec<&[usize]> = members
        .chunk_by(|&a, &b| m.branch[a] == m.branch[b])
        .collect();
    if let Some(s) = (0..sets).find(|&s| groups.get(s).is_none_or(|g| set(g[0]) != Some(s))) {
        return Err(MinorError::Empty(s));
    }
    let edges: Vec<Vec<usize>> = h.edges().iter().map(BitSet::to_vec).collect();
    // Connectivity: within each edge, join every vertex to the first one
    // of its set.
    let mut parent: Vec<usize> = (0..n).collect();
    fn find(parent: &mut [usize], mut v: usize) -> usize {
        while parent[v] != v {
            parent[v] = parent[parent[v]];
            v = parent[v];
        }
        v
    }
    let mut first = vec![(usize::MAX, 0); sets];
    for (e, vs) in edges.iter().enumerate() {
        for &v in vs {
            let Some(s) = set(v) else { continue };
            if first[s].0 == e {
                let (a, b) = (find(&mut parent, first[s].1), find(&mut parent, v));
                parent[a] = b;
            } else {
                first[s] = (e, v);
            }
        }
    }
    let mut seen = vec![usize::MAX; sets];
    for (s, vs) in groups.into_iter().enumerate() {
        let r = find(&mut parent, vs[0]);
        if vs.iter().any(|&v| find(&mut parent, v) != r) {
            return Err(MinorError::Disconnected(s));
        }
        seen[s] = s;
        let mut touches = 0;
        let neighbours = vs
            .iter()
            .flat_map(|&v| h.incident_edges(v))
            .flat_map(|&e| &edges[e]);
        for t in neighbours.filter_map(|&w| set(w)) {
            if touches >= m.degree {
                break;
            }
            if seen[t] != s {
                seen[t] = s;
                touches += 1;
            }
        }
        if touches < m.degree {
            return Err(MinorError::LowDegree(s));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::named;

    #[test]
    fn a_cycle_is_its_own_minor_of_degree_two() {
        let h = named::cycle(6);
        let m = min_degree_minor(&h);
        assert_eq!(m.degree, 2);
        assert_eq!(check_minor(&h, &m), Ok(()));
    }

    #[test]
    fn a_path_has_degree_one_and_a_clique_its_size_less_one() {
        let mut b = crate::HypergraphBuilder::new();
        b.edge("ab", &["a", "b"]);
        b.edge("bc", &["b", "c"]);
        let path = b.build();
        assert_eq!(min_degree_minor(&path).degree, 1);
        let mut b = crate::HypergraphBuilder::new();
        b.edge("k5", &["a", "b", "c", "d", "e"]);
        let k5 = b.build();
        let m = min_degree_minor(&k5);
        assert_eq!((m.degree, m.sets), (4, 5));
        assert_eq!(check_minor(&k5, &m), Ok(()));
    }

    #[test]
    fn no_sets_certify_nothing() {
        let h = named::cycle(4);
        let empty = Minor {
            branch: vec![Minor::OUTSIDE; 4],
            sets: 0,
            degree: 1,
        };
        assert_eq!(check_minor(&h, &empty), Err(MinorError::Empty(0)));
        let nothing = Minor { degree: 0, ..empty };
        assert_eq!(check_minor(&h, &nothing), Ok(()));
    }
}
