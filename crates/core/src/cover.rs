//! Edge covers of bags: the one home of the per-bag question every width
//! question ends in.
//!
//! A bag `B` in a (G)HD must satisfy `B ⊆ ⋃λ` for a set `λ` of at most `k`
//! hyperedges; `ConCov` (Section 6) asks the same with a *connected* `λ`,
//! which rules out Cartesian products in the bag joins. Each question has
//! exactly one search here, and both take a crate-private edge filter:
//!
//! - the plain search, [`find_cover`]: `Ghd::from_td` (and through it
//!   every `hw` and store-hit answer), `PartClust` over one partition's
//!   edges, and `soft_iter::soft_i_witness` over a hypergraph of
//!   projections;
//! - the connected search, [`find_connected_cover`]: the `ConCov`
//!   evaluator and `concov_filter`, `concov_exact_filter` over the bag's
//!   own edges ([`find_exact_connected_cover`]), and the covers of
//!   `softhw_query`'s plans.
//!
//! `hw`'s det-k-decomp separator search keeps its own loop: it backtracks
//! over every cover of the connector, not just the first one found.

use crate::budget::Budget;
use crate::error::DecompError;
use softhw_hypergraph::arena::{words_empty, words_intersect, words_iter};
use softhw_hypergraph::{BitSet, Hypergraph};

/// Finds some edge cover of `bag` using at most `k` edges, if one exists.
///
/// Branch-and-bound: repeatedly branch on the uncovered vertex with the
/// fewest incident edges, over those edges in incidence order. Returns
/// edge ids in order of selection. This is the one plain cover search in
/// the workspace; the per-bag cover *cache* with production consumers
/// lives in `softhw_query::CostContext`, keyed by interned bag id.
pub fn find_cover(h: &Hypergraph, bag: &BitSet, k: usize) -> Option<Vec<usize>> {
    find_cover_among(h, bag, k, |_| true, &Budget::unlimited())
        .expect("the unlimited budget cannot trip")
}

/// [`find_cover`] over the edges `usable` admits, with a cooperative
/// [`Budget`] ticked per edge tried. The pivot is the uncovered vertex
/// with the fewest usable incident edges, so a vertex no usable edge
/// covers fails the branch at once.
///
/// The search state is one word row per depth — the bag vertices still
/// uncovered — in one scratch buffer of `k + 1` levels.
pub(crate) fn find_cover_among(
    h: &Hypergraph,
    bag: &BitSet,
    k: usize,
    usable: impl Fn(usize) -> bool,
    budget: &Budget,
) -> Result<Option<Vec<usize>>, DecompError> {
    // A cover never repeats an edge: clamp before sizing the scratch.
    let k = k.min(h.num_edges());
    let words = bag.blocks().len();
    let mut levels = vec![0u64; words * (k + 1)];
    levels[..words].copy_from_slice(bag.blocks());
    let mut chosen: Vec<usize> = Vec::with_capacity(k);
    let found = extend_cover(h, k, words, &mut levels, &mut chosen, &usable, budget)?;
    Ok(found.then_some(chosen))
}

/// One level of [`find_cover_among`]: `levels` starts at the current
/// level's row of uncovered bag vertices.
fn extend_cover<F: Fn(usize) -> bool>(
    h: &Hypergraph,
    k: usize,
    words: usize,
    levels: &mut [u64],
    chosen: &mut Vec<usize>,
    usable: &F,
    budget: &Budget,
) -> Result<bool, DecompError> {
    let (uncovered, deeper) = levels.split_at_mut(words);
    if words_empty(uncovered) {
        return Ok(true);
    }
    if chosen.len() == k {
        return Ok(false);
    }
    // The first of the uncovered vertices with the fewest usable edges.
    let pivot = words_iter(uncovered)
        .min_by_key(|&v| h.incident_edges(v).iter().filter(|&&e| usable(e)).count())
        .expect("an uncovered bag has a vertex");
    // No chosen edge meets the uncovered pivot, so none repeats.
    for &e in h.incident_edges(pivot) {
        if !usable(e) {
            continue;
        }
        budget.tick()?;
        let edge = h.edge(e).blocks();
        for i in 0..words {
            deeper[i] = uncovered[i] & !edge[i];
        }
        chosen.push(e);
        if extend_cover(h, k, words, deeper, chosen, usable, budget)? {
            return Ok(true);
        }
        chosen.pop();
    }
    Ok(false)
}

/// True iff the given edges form a connected subhypergraph: the
/// intersection graph of the edges (adjacency = sharing a vertex) is
/// connected. The empty set counts as disconnected, a singleton as
/// connected.
pub fn edges_connected(h: &Hypergraph, edges: &[usize]) -> bool {
    if edges.is_empty() {
        return false;
    }
    let n = edges.len();
    let mut seen = vec![false; n];
    let mut stack = vec![0usize];
    seen[0] = true;
    let mut count = 0;
    while let Some(i) = stack.pop() {
        count += 1;
        for (j, sj) in seen.iter_mut().enumerate() {
            if !*sj && h.edge(edges[i]).intersects(h.edge(edges[j])) {
                *sj = true;
                stack.push(j);
            }
        }
    }
    count == n
}

/// Finds a *connected* edge cover of `bag` with at most `k` edges
/// (the `ConCov` witness), if one exists.
///
/// Unlike plain covers, a connected cover may need redundant edges (e.g.
/// on `C5` a width-2 bag of four cycle vertices is only coverable
/// connectedly with 3 edges), so the search enumerates connected edge
/// subsets by growth rather than by cover-minimality: start from each
/// edge, repeatedly add an edge sharing a vertex with the current
/// selection, and test coverage at every step. The candidates at every
/// step are *all* edges: one disjoint from the bag can still be the
/// connector making an otherwise-disconnected cover connected. A
/// connected set is reached once per growth order — nothing is
/// deduplicated; with `k ≤ 3` that is at most `|E|·(|E|−1)·(|E|−2)`
/// word-level steps.
pub fn find_connected_cover(h: &Hypergraph, bag: &BitSet, k: usize) -> Option<Vec<usize>> {
    find_connected_cover_budgeted(h, bag, k, &Budget::unlimited())
        .expect("the unlimited budget cannot trip")
}

/// [`find_connected_cover`] with a cooperative [`Budget`], ticked per
/// edge tried.
pub fn find_connected_cover_budgeted(
    h: &Hypergraph,
    bag: &BitSet,
    k: usize,
    budget: &Budget,
) -> Result<Option<Vec<usize>>, DecompError> {
    find_connected_cover_among(h, bag, k, |_| true, budget)
}

/// [`find_connected_cover_budgeted`] over the edges `usable` admits.
///
/// The search state is two word rows per depth — the bag vertices still
/// uncovered and the vertices of the chosen edges — in one scratch buffer
/// of `k + 1` levels, so a step is a pass over the edge's words and
/// allocates nothing.
pub(crate) fn find_connected_cover_among(
    h: &Hypergraph,
    bag: &BitSet,
    k: usize,
    usable: impl Fn(usize) -> bool,
    budget: &Budget,
) -> Result<Option<Vec<usize>>, DecompError> {
    // A cover never repeats an edge, so a larger `k` answers as `|E|`
    // does and must not size the scratch.
    let k = k.min(h.num_edges());
    if bag.is_empty() || k == 0 {
        return Ok(None);
    }
    let words = bag.blocks().len();
    // Level `d` holds `uncovered | reach` after `d` edges; level 0 is the
    // whole bag uncovered and nothing reached.
    let mut levels = vec![0u64; 2 * words * (k + 1)];
    levels[..words].copy_from_slice(bag.blocks());
    let mut chosen: Vec<usize> = Vec::with_capacity(k);
    if !grow_connected_cover(h, k, words, &mut levels, &mut chosen, &usable, budget)? {
        return Ok(None);
    }
    debug_assert!(edges_connected(h, &chosen));
    Ok(Some(chosen))
}

/// One level of [`find_connected_cover_among`]: `levels` starts at the
/// current level's rows; extends `chosen` in edge order, keeping the
/// selection connected at every step.
fn grow_connected_cover<F: Fn(usize) -> bool>(
    h: &Hypergraph,
    k: usize,
    words: usize,
    levels: &mut [u64],
    chosen: &mut Vec<usize>,
    usable: &F,
    budget: &Budget,
) -> Result<bool, DecompError> {
    let (here, deeper) = levels.split_at_mut(2 * words);
    let (uncovered, reach) = here.split_at(words);
    if words_empty(uncovered) {
        return Ok(true);
    }
    if chosen.len() == k {
        return Ok(false);
    }
    for e in 0..h.num_edges() {
        let edge = h.edge(e).blocks();
        if chosen.contains(&e) || !(chosen.is_empty() || words_intersect(edge, reach)) || !usable(e)
        {
            continue;
        }
        budget.tick()?;
        let (next_uncovered, next_reach) = deeper[..2 * words].split_at_mut(words);
        for i in 0..words {
            next_uncovered[i] = uncovered[i] & !edge[i];
            next_reach[i] = reach[i] | edge[i];
        }
        chosen.push(e);
        if grow_connected_cover(h, k, words, deeper, chosen, usable, budget)? {
            return Ok(true);
        }
        chosen.pop();
    }
    Ok(false)
}

/// Finds a connected cover whose union is *exactly* the bag (`⋃λ = B`,
/// not merely `⊇ B`). This is the ConCov notion of the paper's prototype:
/// candidate bags are generated as cover unions, and a bag counts as
/// ConCov iff one of its *generating* covers is connected. Since the
/// union must equal the bag, only edges inside the bag qualify, and over
/// those `⋃λ ⊇ B` is `⋃λ = B`: this is the connected search over the
/// bag's own edges.
pub fn find_exact_connected_cover(h: &Hypergraph, bag: &BitSet, k: usize) -> Option<Vec<usize>> {
    let inside: Vec<bool> = h.edges().iter().map(|e| e.is_subset(bag)).collect();
    find_connected_cover_among(h, bag, k, |e| inside[e], &Budget::unlimited())
        .expect("the unlimited budget cannot trip")
}

#[cfg(test)]
mod tests {
    use super::*;
    use softhw_hypergraph::named;

    #[test]
    fn simple_cover() {
        let h = named::cycle(4);
        let bag = h.vset(&["v0", "v1", "v2"]);
        let cover = find_cover(h.edges().first().map(|_| &h).unwrap(), &bag, 2).unwrap();
        assert_eq!(cover.len(), 2);
        let mut u = h.union_of_edges(cover.iter().copied());
        u.intersect_with(&bag);
        assert_eq!(u, bag);
    }

    #[test]
    fn cover_requires_enough_edges() {
        let h = named::cycle(6);
        // all six vertices need 3 edges
        let bag = h.all_vertices();
        assert!(find_cover(&h, &bag, 2).is_none());
        assert!(find_cover(&h, &bag, 3).is_some());
    }

    #[test]
    fn c5_connected_cover_needs_three_edges() {
        // Section 6: ConCov-hw(C5) = 3 although hw(C5) = 2. The width-2
        // bag {v0,v1,v2,v3} is covered by e0={v0,v1} and e2={v2,v3},
        // but those two edges are disjoint; the connected cover adds e1.
        let h = named::cycle(5);
        let bag = h.vset(&["v0", "v1", "v2", "v3"]);
        assert!(find_cover(&h, &bag, 2).is_some());
        assert!(find_connected_cover(&h, &bag, 2).is_none());
        let cc = find_connected_cover(&h, &bag, 3).unwrap();
        assert!(edges_connected(&h, &cc));
    }

    #[test]
    fn connected_cover_kernel_agrees_with_brute_force() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        use softhw_hypergraph::bitset::for_each_subset_up_to_k;
        use softhw_hypergraph::random::{random_hypergraph, RandomConfig};
        // Definition-level oracles: some set of at most `k` edges is
        // connected and covers the bag; for the exact notion, some set of
        // at most `k` of the bag's own edges is connected and its union
        // is the bag.
        let brute_force = |h: &Hypergraph, bag: &BitSet, k: usize| {
            let all: Vec<usize> = (0..h.num_edges()).collect();
            let mut found = false;
            for_each_subset_up_to_k(&all, k, |subset| {
                found |= edges_connected(h, subset)
                    && bag.is_subset(&h.union_of_edges(subset.iter().copied()));
            });
            found
        };
        let brute_force_exact = |h: &Hypergraph, bag: &BitSet, k: usize| {
            let inside: Vec<usize> = (0..h.num_edges())
                .filter(|&e| h.edge(e).is_subset(bag))
                .collect();
            let mut found = false;
            for_each_subset_up_to_k(&inside, k, |subset| {
                found |=
                    edges_connected(h, subset) && h.union_of_edges(subset.iter().copied()) == *bag;
            });
            found
        };
        let mut path = softhw_hypergraph::HypergraphBuilder::new();
        path.edge("e1", &["a", "b"]);
        path.edge("e2", &["b", "c"]);
        path.edge("e3", &["c", "d"]);
        let mut shapes = vec![named::cycle(5), path.build(), named::h2()];
        for seed in 0..24u64 {
            let shape = RandomConfig {
                num_vertices: 4 + seed as usize % 7,
                num_edges: 3 + seed as usize % 6,
                min_arity: 1 + seed as usize % 2,
                max_arity: 3,
                connect: seed % 3 != 0,
            };
            shapes.push(random_hypergraph(&shape, seed));
        }
        // Isolated vertices and components get joined with extra edges.
        shapes.retain(|h| h.num_edges() <= 10);
        assert!(shapes.len() > 20);
        let mut rng = SmallRng::seed_from_u64(7);
        let (mut verdicts, mut exact_verdicts) = ([0usize; 2], [0usize; 2]);
        for h in &shapes {
            // Random vertex sets, plus unions of up to three edges (the
            // shape candidate bags have).
            let mut bags: Vec<BitSet> = Vec::new();
            for _ in 0..12 {
                let mut bag = h.empty_vertex_set();
                for v in 0..h.num_vertices() {
                    if rng.gen_range(0..3) == 0 {
                        bag.insert(v);
                    }
                }
                bags.push(bag);
                let picks = (0..rng.gen_range(1..=3)).map(|_| rng.gen_range(0..h.num_edges()));
                bags.push(h.union_of_edges(picks));
            }
            for bag in &bags {
                for k in 0..=3 {
                    let cover = find_connected_cover(h, bag, k);
                    let expected = !bag.is_empty() && brute_force(h, bag, k);
                    assert_eq!(cover.is_some(), expected, "bag {bag:?}, k={k}");
                    verdicts[expected as usize] += 1;
                    if let Some(cover) = cover {
                        assert!(cover.len() <= k && edges_connected(h, &cover));
                        assert!(bag.is_subset(&h.union_of_edges(cover.iter().copied())));
                    }
                    let exact = find_exact_connected_cover(h, bag, k);
                    let expected = !bag.is_empty() && brute_force_exact(h, bag, k);
                    assert_eq!(exact.is_some(), expected, "exact: bag {bag:?}, k={k}");
                    exact_verdicts[expected as usize] += 1;
                    if let Some(cover) = exact {
                        assert!(cover.len() <= k && edges_connected(h, &cover));
                        assert_eq!(h.union_of_edges(cover.iter().copied()), *bag);
                    }
                }
            }
        }
        assert!(verdicts[0] > 100 && verdicts[1] > 100, "{verdicts:?}");
        let enough = exact_verdicts[0] > 100 && exact_verdicts[1] > 100;
        assert!(enough, "{exact_verdicts:?}");
    }

    #[test]
    fn connected_cover_search_ticks_its_budget() {
        let h = named::cycle(6);
        let bag = h.all_vertices();
        assert!(find_connected_cover(&h, &bag, 3).is_none());
        let capped = Budget::with_work_cap(5);
        let stopped = find_connected_cover_budgeted(&h, &bag, 3, &capped);
        assert_eq!(stopped, Err(DecompError::DeadlineExceeded));
    }

    #[test]
    fn plain_cover_search_ticks_its_budget() {
        use crate::constraints::PartClust;
        use crate::ctd_opt::TdEvaluator;
        // C6 with alternating labels: each partition covers the whole
        // cycle with its three edges, and with nothing less.
        let h = named::cycle(6);
        let clust = PartClust {
            k: 3,
            labels: vec![0, 1, 0, 1, 0, 1],
            num_partitions: 2,
        };
        let bag = h.all_vertices();
        let answer = clust.local(&h, &bag, &Budget::unlimited());
        assert_eq!(answer, Ok(Some(vec![0, 1])));
        let capped = Budget::with_work_cap(2);
        let stopped = clust.local(&h, &bag, &capped);
        assert_eq!(stopped, Err(DecompError::DeadlineExceeded));
        let retry = clust.local(&h, &bag, &Budget::with_work_cap(1_000));
        assert_eq!(retry, answer);
    }

    #[test]
    fn a_width_beyond_the_edge_count_answers_as_the_edge_count() {
        let h = named::cycle(5);
        let all = h.num_edges();
        let bags = [
            h.vset(&["v0", "v1", "v2", "v3"]),
            h.all_vertices(),
            h.empty_vertex_set(),
        ];
        for bag in &bags {
            let connected = find_connected_cover(&h, bag, all);
            assert_eq!(find_connected_cover(&h, bag, 1_000_000_000_000), connected);
            assert_eq!(find_connected_cover(&h, bag, usize::MAX), connected);
            assert_eq!(find_cover(&h, bag, usize::MAX), find_cover(&h, bag, all));
            assert_eq!(
                find_exact_connected_cover(&h, bag, usize::MAX),
                find_exact_connected_cover(&h, bag, all)
            );
        }
        assert!(find_connected_cover(&h, &bags[1], usize::MAX).is_some());
    }

    #[test]
    fn connected_cover_single_edge() {
        let h = named::h2();
        let bag = h.vset(&["1", "2", "a"]);
        let cc = find_connected_cover(&h, &bag, 1).unwrap();
        assert_eq!(cc.len(), 1);
    }

    #[test]
    fn edges_connected_cases() {
        let h = named::cycle(6);
        assert!(edges_connected(&h, &[0]));
        assert!(edges_connected(&h, &[0, 1]));
        assert!(!edges_connected(&h, &[0, 3]));
        assert!(!edges_connected(&h, &[]));
        assert!(edges_connected(&h, &[0, 1, 2, 3, 4, 5]));
    }

    #[test]
    fn min_cover_of_empty_bag_is_trivial() {
        let h = named::cycle(4);
        let empty = h.empty_vertex_set();
        assert_eq!(find_cover(&h, &empty, 0), Some(vec![]));
    }

    #[test]
    fn connector_edges_outside_bag_are_usable() {
        // Path a-b-c-d: bag {a, d}: the connected cover must route
        // through e2 = {b,c}, which is disjoint from the bag.
        let mut b = softhw_hypergraph::HypergraphBuilder::new();
        b.edge("e1", &["a", "b"]);
        b.edge("e2", &["b", "c"]);
        b.edge("e3", &["c", "d"]);
        let h = b.build();
        let bag = h.vset(&["a", "d"]);
        assert!(find_connected_cover(&h, &bag, 2).is_none());
        let cc = find_connected_cover(&h, &bag, 3).unwrap();
        assert_eq!(cc.len(), 3);
    }
}
