//! Cross-query decomposition cache: a memo in front of the one solver
//! pipeline ([`crate::reduce_solve`]).
//!
//! A process that decomposes structurally identical hypergraphs more
//! than once (one schema swept over several widths and both measures,
//! the same query shape arriving again) holds a [`DecompCache`] across
//! those calls. A process that solves once has nothing to hit:
//! `softhw-cli` and the service, which keeps finished responses in its
//! own result cache, both call the cold [`crate::solve`]. The cache
//! holds **one map**, from structural hash to everything kept for that
//! structure:
//!
//! - its canonical form, compared on every probe — a hash collision is a
//!   miss that replaces the entry, never a wrong answer;
//! - one warm [`BlockIndex`] (arena + `[S]`-components + blocks +
//!   unions), shared across widths `k` and across queries — built on the
//!   first `shw` query over the structure (`hw` decisions never read it
//!   and never build it);
//! - `shw ≤ k` / `hw ≤ k` decisions with witness decompositions, so width
//!   sweeps over repeated queries skip generation and search entirely;
//! - its last-use tick, the LRU clock.
//!
//! Nothing else is kept: the reduce-aware sweeps reduce the caller's own
//! hypergraph on every call (a reduction is cheap next to one width
//! decision) and memoise per reduced *piece*.
//!
//! [`DecompCache::solve`] answers what the cold [`crate::solve`] answers
//! (both are deterministic — the property test below holds them equal,
//! decomposition for decomposition) through the same `solve_with` body;
//! only the leaves differ. Every width a piece is asked at is a memo
//! probe or one Algorithm 1 run against the warm index: an exact width
//! is a sweep `k = 1, 2, …` until the first accept, a bounded spec one
//! width. A memoised decision is therefore a function of `(piece, k)`
//! alone — exact and bounded specs fill and read the same entries, in
//! either order.
//!
//! The structural hash ignores the order edges are listed in, so the one
//! thing kept per entry that names edges — the `λ`-labels of `hw`
//! witnesses — is held in *canonical edge positions*
//! ([`canonical_edge_order`]) and translated through the caller's own
//! edge order on the way in and out: a hit always answers in the
//! numbering of the hypergraph that was passed in.
//!
//! The cache answers width questions only: its surface is
//! [`DecompCache::solve`] and [`DecompCache::stats`]. Algorithm 2
//! callers, whose answers are not width decisions, build their instance
//! cold ([`crate::shw::soft_instance`]).
//!
//! The cache is **bounded**: it holds at most `max_graphs` entries
//! ([`DecompCache::with_capacity`]) and drops the least-recently-used
//! one — warm index and width decisions together — when a new structure
//! would exceed the bound. Eviction only costs recomputation: an evicted
//! structure rebuilds cold on its next query, with identical results.

use crate::budget::Budget;
use crate::error::DecompError;
use crate::ghd::Ghd;
use crate::hw::hw_leq_budgeted;
use crate::reduce_solve::{first_width, solve_with};
use crate::shw::{new_index, shw_leq_indexed_budgeted};
use crate::soft::SoftLimits;
use crate::spec::{SolveClass, SolveSpec, Solved};
use crate::td::TreeDecomposition;
use softhw_hypergraph::cache::{canonical_edge_order, canonical_form};
use softhw_hypergraph::fxhash::hash_u64s;
use softhw_hypergraph::{BlockIndex, FxHashMap, Hypergraph};
use std::collections::BTreeMap;

/// Hit/miss counters of a [`DecompCache`].
#[derive(Clone, Copy, Debug, Default)]
pub struct DecompCacheStats {
    /// Width-decision probes answered from the cache.
    pub result_hits: u64,
    /// Width-decision probes computed fresh.
    pub result_misses: u64,
    /// Hypergraphs evicted to keep the cache within its bound.
    pub evictions: u64,
}

/// Default bound on the number of structurally distinct hypergraphs a
/// [`DecompCache`] tracks before evicting the least-recently-used one.
pub const DEFAULT_MAX_GRAPHS: usize = 128;

/// Everything held for one structurally distinct hypergraph; see the
/// module docs. Decisions are `Some(witness)` on yes, `None` on no.
struct Entry {
    canon: Vec<u64>,
    index: Option<BlockIndex>,
    shw: BTreeMap<usize, Option<TreeDecomposition>>,
    /// `λ`-labels in canonical edge positions.
    hw: BTreeMap<usize, Option<Ghd>>,
    last_used: u64,
}

/// Cross-query cache for width decisions. See the module docs for what
/// an entry holds and how the capacity bound evicts.
pub struct DecompCache {
    entries: FxHashMap<u64, Entry>,
    tick: u64,
    max_graphs: usize,
    stats: DecompCacheStats,
}

impl Default for DecompCache {
    fn default() -> Self {
        DecompCache::with_capacity(DEFAULT_MAX_GRAPHS)
    }
}

/// `g` with every `λ`-label `e` rewritten to `map[e]`.
fn relabel(mut g: Ghd, map: &[usize]) -> Ghd {
    for e in g.lambdas.iter_mut().flatten() {
        *e = map[*e];
    }
    g
}

/// The canonical position of each edge id, given the canonical order.
fn positions_of(order: &[usize]) -> Vec<usize> {
    let mut positions = vec![0; order.len()];
    for (pos, &e) in order.iter().enumerate() {
        positions[e] = pos;
    }
    positions
}

impl DecompCache {
    /// An empty cache bounded to [`DEFAULT_MAX_GRAPHS`] hypergraphs.
    pub fn new() -> Self {
        DecompCache::default()
    }

    /// An empty cache tracking at most `max_graphs` structurally
    /// distinct hypergraphs (minimum 1).
    pub fn with_capacity(max_graphs: usize) -> Self {
        DecompCache {
            entries: FxHashMap::default(),
            tick: 0,
            max_graphs: max_graphs.max(1),
            stats: DecompCacheStats::default(),
        }
    }

    /// Cache statistics so far.
    pub fn stats(&self) -> DecompCacheStats {
        self.stats
    }

    /// `h`'s entry, marked as just used, beside the counters. A structure
    /// the cache does not hold gets an empty entry first — in place of a
    /// different structure under the same hash, or else of the
    /// least-recently-used entry if the cache is full. Every query goes
    /// through here before it computes anything, so whatever a budget
    /// trip leaves half-grown sits in an entry the LRU clock can evict.
    fn entry(&mut self, h: &Hypergraph) -> (&mut Entry, &mut DecompCacheStats) {
        let canon = canonical_form(h);
        let hash = hash_u64s(&canon);
        self.tick += 1;
        let held = self.entries.get(&hash).is_some_and(|e| e.canon == canon);
        if !held {
            let victim = if self.entries.contains_key(&hash) {
                Some(hash)
            } else if self.entries.len() >= self.max_graphs {
                let lru = self.entries.iter().min_by_key(|(_, e)| e.last_used);
                lru.map(|(&victim, _)| victim)
            } else {
                None
            };
            if let Some(victim) = victim {
                self.entries.remove(&victim);
                self.stats.evictions += 1;
            }
            let fresh = Entry {
                canon,
                index: None,
                shw: BTreeMap::new(),
                hw: BTreeMap::new(),
                last_used: 0,
            };
            self.entries.insert(hash, fresh);
        }
        let entry = self.entries.get_mut(&hash).expect("held or just inserted");
        entry.last_used = self.tick;
        (entry, &mut self.stats)
    }

    /// The memoised [`crate::solve`]: the same answer to the same
    /// [`SolveSpec`], with every `width ≤ k` decision it takes — on `h`
    /// for raw specs, on each reduced piece (under the *piece's*
    /// structural hash, so a schema submitted raw and the same schema
    /// submitted already reduced meet on the same entries) for
    /// reduce-aware ones, exact or bounded — read from or written to the
    /// cache.
    ///
    /// Budget aborts keep the cache warm and consistent: nothing is
    /// memoised for the interrupted width (so a partial answer can never
    /// be served later), every width decided before the trip stays
    /// cached, and an abort evicts no more than the finished call would
    /// have. A retry resumes from the memoised widths and recomputes only
    /// the interrupted one.
    pub fn solve(&mut self, h: &Hypergraph, spec: &SolveSpec) -> Result<Solved, DecompError> {
        let (limits, budget) = (&spec.limits, &spec.budget);
        match spec.class {
            SolveClass::Shw => solve_with(h, spec, |piece, widths| {
                first_width(widths, |k| self.shw_decision(piece, k, limits, budget))
            }),
            SolveClass::Hw => solve_with(h, spec, |piece, widths| {
                first_width(widths, |k| self.hw_decision(piece, k, budget))
            }),
        }
    }

    /// The `shw ≤ k` decision: a memo probe, or one Algorithm 1 run
    /// against `h`'s warm index (built here if this is the structure's
    /// first `shw` query).
    fn shw_decision(
        &mut self,
        h: &Hypergraph,
        k: usize,
        limits: &SoftLimits,
        budget: &Budget,
    ) -> Result<Option<TreeDecomposition>, DecompError> {
        let (entry, stats) = self.entry(h);
        if let Some(cached) = entry.shw.get(&k) {
            stats.result_hits += 1;
            return Ok(cached.clone());
        }
        stats.result_misses += 1;
        let index = entry.index.get_or_insert_with(|| new_index(h));
        let result = shw_leq_indexed_budgeted(index, k, limits, budget)?;
        entry.shw.insert(k, result.clone());
        Ok(result)
    }

    /// The `hw ≤ k` decision: a memo probe, or one search on `h` itself —
    /// no index is probed or built.
    fn hw_decision(
        &mut self,
        h: &Hypergraph,
        k: usize,
        budget: &Budget,
    ) -> Result<Option<Ghd>, DecompError> {
        let (entry, stats) = self.entry(h);
        if let Some(cached) = entry.hw.get(&k) {
            stats.result_hits += 1;
            let in_callers_order = |g| relabel(g, &canonical_edge_order(h));
            return Ok(cached.clone().map(in_callers_order));
        }
        stats.result_misses += 1;
        let result = hw_leq_budgeted(h, k, budget)?;
        let in_canonical_positions = |g| relabel(g, &positions_of(&canonical_edge_order(h)));
        entry
            .hw
            .insert(k, result.clone().map(in_canonical_positions));
        Ok(result)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::soft::soft_bags;
    use crate::{hw, shw};
    use proptest::prelude::*;
    use softhw_hypergraph::cache::structural_hash;
    use softhw_hypergraph::named;
    use softhw_hypergraph::random::{random_hypergraph, RandomConfig};

    fn shw_of(cache: &mut DecompCache, h: &Hypergraph) -> (usize, TreeDecomposition) {
        match cache
            .solve(h, &SolveSpec::shw())
            .expect("default limits suffice")
        {
            Solved::ShwWidth(w, td) => (w, td),
            other => panic!("expected ShwWidth, got {other:?}"),
        }
    }

    fn hw_of(cache: &mut DecompCache, h: &Hypergraph) -> (usize, Ghd) {
        match cache
            .solve(h, &SolveSpec::hw())
            .expect("unlimited budgets never abort")
        {
            Solved::HwWidth(w, g) => (w, g),
            other => panic!("expected HwWidth, got {other:?}"),
        }
    }

    fn accepts(cache: &mut DecompCache, h: &Hypergraph, spec: SolveSpec) -> bool {
        let solved = cache
            .solve(h, &spec)
            .expect("unlimited budgets never abort");
        solved
            .accepted()
            .expect("bounded specs answer with a decision")
    }

    /// How many `shw ≤ k` decisions the cache holds keyed by `h` itself.
    fn shw_decisions_of(cache: &DecompCache, h: &Hypergraph) -> usize {
        let canon = canonical_form(h);
        let held = cache.entries.get(&hash_u64s(&canon));
        held.filter(|e| e.canon == canon).map_or(0, |e| e.shw.len())
    }

    #[test]
    fn cached_shw_and_hw_equal_cold_runs() {
        let mut cache = DecompCache::new();
        for h in [named::h2(), named::cycle(8), named::triangle_star(3)] {
            let (cold_w, cold_td) = shw::shw(&h);
            let (warm_w, warm_td) = shw_of(&mut cache, &h);
            assert_eq!(cold_w, warm_w);
            assert_eq!(cold_td.bags(), warm_td.bags());
            // Second query over the same structure: pure memo hits, and
            // the bounded specs read the entries the sweep filled.
            let before = cache.stats().result_misses;
            let (again_w, again_td) = shw_of(&mut cache, &h);
            assert_eq!(again_w, warm_w);
            assert_eq!(again_td.bags(), warm_td.bags());
            for k in 1..=warm_w {
                assert_eq!(
                    accepts(&mut cache, &h, SolveSpec::shw_leq(k)),
                    shw::shw_leq(&h, k).is_some(),
                    "k = {k}"
                );
            }
            assert_eq!(cache.stats().result_misses, before, "sweep must be cached");

            let (cold_hw, _) = hw::hw(&h);
            let (warm_hw, warm_ghd) = hw_of(&mut cache, &h);
            assert_eq!(cold_hw, warm_hw);
            assert!(warm_ghd.is_hd(&h));
            assert!(accepts(&mut cache, &h, SolveSpec::hw_leq(warm_hw)));
        }
    }

    #[test]
    fn capacity_bound_evicts_lru_and_stays_correct() {
        let mut cache = DecompCache::with_capacity(2);
        let graphs = [
            named::h2(),
            named::cycle(5),
            named::cycle(6),
            named::grid(3, 3),
        ];
        let mut widths = Vec::new();
        for h in &graphs {
            widths.push(shw_of(&mut cache, h).0);
        }
        // Four distinct structures through a bound of two: the cache must
        // stay within bound and must have evicted.
        assert!(cache.entries.len() <= 2, "{}", cache.entries.len());
        assert!(cache.stats().evictions >= 2, "{:?}", cache.stats());
        // Evicted structures recompute cold with identical results.
        for (h, w) in graphs.iter().zip(&widths) {
            let (again, td) = shw_of(&mut cache, h);
            assert_eq!(again, *w);
            assert_eq!(td.validate(h), Ok(()));
            assert_eq!((again, td.bags().to_vec()), {
                let (cw, ctd) = crate::shw::shw(h);
                (cw, ctd.bags().to_vec())
            });
        }
        assert!(cache.entries.len() <= 2);
    }

    #[test]
    fn edge_capacities_survive_eviction_storms_cold_identical() {
        // with_capacity(0) clamps to 1; both degenerate bounds force an
        // eviction on every schema change. Interleaving four schemas
        // over several rounds is a worst-case eviction storm: every
        // probe except repeats within a round is a cold rebuild. The
        // cache must never panic and must answer exactly like the cold
        // entry points throughout.
        for cap in [0, 1] {
            let mut cache = DecompCache::with_capacity(cap);
            assert_eq!(cache.max_graphs, 1);
            let graphs = [
                named::h2(),
                named::cycle(5),
                named::cycle(6),
                named::grid(3, 3),
            ];
            for round in 0..3 {
                for h in &graphs {
                    let (w, td) = shw_of(&mut cache, h);
                    let (cold_w, cold_td) = shw::shw(h);
                    assert_eq!(w, cold_w, "cap {cap} round {round}");
                    assert_eq!(td.bags(), cold_td.bags(), "cap {cap} round {round}");
                    // Mix in bounded and hw traffic on the same storm so
                    // every artefact kind churns together.
                    let bounded = SolveSpec::shw_leq(w);
                    let Solved::ShwDecision(td) = cache.solve(h, &bounded).unwrap() else {
                        panic!("bounded specs answer with a decision");
                    };
                    assert_eq!(
                        td.map(|t| t.bags().to_vec()),
                        crate::ctd::candidate_td(h, &soft_bags(h, w)).map(|t| t.bags().to_vec()),
                        "cap {cap} round {round}"
                    );
                    let (hw_w, ghd) = hw_of(&mut cache, h);
                    assert_eq!(hw_w, hw::hw(h).0);
                    assert!(ghd.is_hd(h));
                    assert!(cache.entries.len() <= 1, "bound violated");
                }
            }
            let s = cache.stats();
            // Four interleaved schemas through a bound of one: every
            // schema switch evicts.
            assert!(s.evictions >= 11, "expected an eviction storm: {s:?}");
        }
    }

    #[test]
    fn blown_limits_are_errors_and_leave_the_cache_usable() {
        let mut cache = DecompCache::with_capacity(2);
        let h = named::grid(3, 3);
        let tight = SoftLimits {
            max_lambda_sets: 4,
            max_bags: 4,
        };
        match cache.solve(&h, &SolveSpec::shw().with_limits(tight)) {
            Err(DecompError::Limit(_)) => {}
            other => panic!("expected a limit error, got {other:?}"),
        }
        // The same cache still answers correctly under sane limits.
        let (w, td) = shw_of(&mut cache, &h);
        assert_eq!((w, td.bags().to_vec()), {
            let (cw, ctd) = shw::shw(&h);
            (cw, ctd.bags().to_vec())
        });
    }

    #[test]
    fn repeated_queries_never_evict_below_bound() {
        let mut cache = DecompCache::with_capacity(4);
        for _ in 0..10 {
            shw_of(&mut cache, &named::h2());
            accepts(&mut cache, &named::h2(), SolveSpec::shw_leq(2));
            hw_of(&mut cache, &named::cycle(5));
        }
        assert_eq!(cache.stats().evictions, 0);
        assert_eq!(cache.entries.len(), 2);
    }

    #[test]
    fn raw_and_prereduced_schemas_share_piece_entries() {
        // A schema with reducible clutter (duplicate edge + pendant
        // path) and the same schema submitted already reduced must land
        // on the same piece-level cache entries: solving the second
        // after the first does no fresh width decisions.
        let raw = {
            let mut b = softhw_hypergraph::HypergraphBuilder::new();
            b.edge("c0", &["v0", "v1"]);
            b.edge("c1", &["v1", "v2"]);
            b.edge("c2", &["v2", "v3"]);
            b.edge("c3", &["v3", "v0"]);
            b.edge("dup", &["v0", "v1"]);
            b.edge("p1", &["v2", "p"]);
            b.edge("p2", &["p", "q"]);
            b.build()
        };
        // What a client would submit post-reduction: the surviving piece
        // (the 4-cycle), edges in ascending original id, vertices
        // numbered by first occurrence — exactly how `reduce` rebuilds
        // pieces, so the structural hashes agree.
        let prereduced = {
            let mut b = softhw_hypergraph::HypergraphBuilder::new();
            b.edge("c0", &["v0", "v1"]);
            b.edge("c1", &["v1", "v2"]);
            b.edge("c2", &["v2", "v3"]);
            b.edge("c3", &["v3", "v0"]);
            b.build()
        };
        let red = softhw_hypergraph::reduce(&raw);
        assert_eq!(red.pieces.len(), 1);
        assert_eq!(
            structural_hash(&red.pieces[0].h),
            structural_hash(&prereduced),
            "deterministic piece rebuild must match a pre-reduced submission"
        );

        let mut cache = DecompCache::new();
        let (w_raw, td_raw) = shw_of(&mut cache, &raw);
        assert_eq!(w_raw, 2);
        assert_eq!(td_raw.validate(&raw), Ok(()));
        let misses_before = cache.stats().result_misses;
        let (w_pre, td_pre) = shw_of(&mut cache, &prereduced);
        assert_eq!(w_pre, 2);
        assert_eq!(td_pre.validate(&prereduced), Ok(()));
        assert_eq!(
            cache.stats().result_misses,
            misses_before,
            "pre-reduced submission must be answered from the raw schema's piece entries"
        );
        // And the other direction: a fresh cache primed with the
        // pre-reduced schema answers the raw schema's piece solves from
        // cache (only the lift is new work).
        let mut cache = DecompCache::new();
        shw_of(&mut cache, &prereduced);
        let misses_before = cache.stats().result_misses;
        let (w, td) = shw_of(&mut cache, &raw);
        assert_eq!(w, 2);
        assert_eq!(td.validate(&raw), Ok(()));
        assert_eq!(cache.stats().result_misses, misses_before);
    }

    #[test]
    fn no_reduce_toggle_takes_the_raw_path() {
        let mut b = softhw_hypergraph::HypergraphBuilder::new();
        b.edge("e1", &["a", "b"]);
        b.edge("e2", &["b", "c"]);
        b.edge("e3", &["c", "a"]);
        b.edge("pendant", &["a", "x"]);
        let h = b.build();
        let mut raw = DecompCache::new();
        let Solved::ShwWidth(w, td) = raw.solve(&h, &SolveSpec::shw().with_reduce(false)).unwrap()
        else {
            panic!("exact shw specs answer with a width");
        };
        assert_eq!(td.validate(&h), Ok(()));
        // The raw sweep decided on `h` itself, never on its reduced core.
        assert_eq!(shw_decisions_of(&raw, &h), w);
        let Solved::HwWidth(w_hw, g) = raw.solve(&h, &SolveSpec::hw().with_reduce(false)).unwrap()
        else {
            panic!("exact hw specs answer with a width");
        };
        assert!(g.is_hd(&h));
        // Same widths as the reduce-aware path on a fresh cache, which
        // decides on the pieces and so leaves no decision keyed by `h`.
        let mut reduced = DecompCache::new();
        assert_eq!(shw_of(&mut reduced, &h).0, w);
        assert_eq!(hw_of(&mut reduced, &h).0, w_hw);
        assert_eq!(shw_decisions_of(&reduced, &h), 0);
    }

    /// The 6-cycle over vertices `a..f` (ids fixed up front) with its
    /// edges listed in `order`, plus — with `extras` — a subsumed edge
    /// and a second component, so the no-peel reduction is non-trivial.
    fn six_cycle(order: [usize; 6], extras: bool) -> Hypergraph {
        let names = ["a", "b", "c", "d", "e", "f", "x", "y"];
        let mut b = softhw_hypergraph::HypergraphBuilder::new();
        for v in &names[..if extras { 8 } else { 6 }] {
            b.vertex(v);
        }
        if extras {
            b.edge("far", &["x", "y"]);
        }
        for i in order {
            b.edge(&format!("e{i}"), &[names[i], names[(i + 1) % 6]]);
        }
        if extras {
            b.edge("sub", &["a"]);
        }
        b.build()
    }

    #[test]
    fn hw_witnesses_follow_the_callers_edge_order() {
        // Same edges, same vertex ids, listed in two orders: one
        // structural hash, so the second ask hits what the first cached —
        // and must still name *its own* edges in every λ-label.
        for extras in [false, true] {
            let h1 = six_cycle([0, 1, 2, 3, 4, 5], extras);
            let h2 = six_cycle([5, 3, 1, 4, 2, 0], extras);
            assert_eq!(structural_hash(&h1), structural_hash(&h2));
            for reduce in [true, false] {
                let spec = SolveSpec::hw().with_reduce(reduce);
                // The first-listed order gets exactly its cold answer
                // back, before and after the other order was served.
                let Ok(Solved::HwWidth(w1, g1)) = crate::solve(&h1, &spec) else {
                    panic!("exact hw specs answer with a width");
                };
                let cold = (w1, g1);
                let mut cache = DecompCache::new();
                for h in [&h1, &h2, &h1] {
                    let Solved::HwWidth(w, g) = cache.solve(h, &spec).unwrap() else {
                        panic!("exact hw specs answer with a width");
                    };
                    assert_eq!(w, cold.0);
                    assert_eq!(g.validate(h), Ok(()), "extras {extras}, reduce {reduce}");
                    assert!(g.is_hd(h));
                    if std::ptr::eq(h, &h1) {
                        assert_eq!(g.lambdas, cold.1.lambdas);
                    }
                }
                assert!(cache.stats().result_hits > 0, "the re-asks must hit");
            }
        }
    }

    #[test]
    fn hw_queries_build_no_index() {
        // The `hw` search runs on the hypergraph itself: neither the raw
        // sweep nor the reduced pieces may cost a `BlockIndex` build.
        for h in [named::h2(), six_cycle([0, 1, 2, 3, 4, 5], true)] {
            for spec in [SolveSpec::hw(), SolveSpec::hw_leq(2)] {
                for reduce in [true, false] {
                    let mut cache = DecompCache::new();
                    cache.solve(&h, &spec.clone().with_reduce(reduce)).unwrap();
                    assert!(!cache.entries.is_empty(), "the decisions are held");
                    assert!(cache.entries.values().all(|e| e.index.is_none()));
                }
            }
        }
    }

    #[test]
    fn a_rebuilt_structure_hits_its_entry() {
        let mut cache = DecompCache::new();
        assert!(accepts(&mut cache, &named::h2(), SolveSpec::shw_leq(2)));
        // A structurally identical rebuild (fresh allocation) must hit.
        assert!(accepts(&mut cache, &named::h2(), SolveSpec::shw_leq(2)));
        assert_eq!(cache.entries.len(), 1);
        assert!(cache.entries.contains_key(&structural_hash(&named::h2())));
        let s = cache.stats();
        assert_eq!((s.result_hits, s.result_misses), (1, 1));
    }

    #[test]
    fn distinct_structures_get_distinct_entries() {
        let mut cache = DecompCache::new();
        for h in [named::h2(), named::cycle(5), named::cycle(6)] {
            accepts(&mut cache, &h, SolveSpec::hw_leq(2));
        }
        assert_eq!(cache.entries.len(), 3);
        assert_eq!(cache.stats().result_misses, 3);
    }

    #[test]
    fn warm_index_state_survives_across_queries() {
        let mut cache = DecompCache::new();
        let h = named::cycle(6);
        let passes = |cache: &DecompCache| {
            let index = cache.entries[&structural_hash(&h)].index.as_ref();
            index.expect("an shw query built it").stats().misses
        };
        assert!(accepts(&mut cache, &h, SolveSpec::shw_leq(2)));
        let first = passes(&cache);
        assert!(first > 0, "the first instance ran its component passes");
        // A fresh `k = 1` decision on the warm index reads only separators
        // and bags the `k = 2` one cached: `Soft_{H,1} ⊆ Soft_{H,2}`.
        assert!(!accepts(&mut cache, &h, SolveSpec::shw_leq(1)));
        assert_eq!(cache.stats().result_misses, 2);
        assert_eq!(passes(&cache), first);
    }

    #[test]
    fn an_evicted_structure_rebuilds_cold_under_the_same_hash() {
        let mut cache = DecompCache::with_capacity(1);
        let (h, other) = (named::h2(), named::cycle(5));
        let first = shw_of(&mut cache, &h);
        shw_of(&mut cache, &other);
        assert!(!cache.entries.contains_key(&structural_hash(&h)), "evicted");
        let misses = cache.stats().result_misses;
        assert_eq!(shw_of(&mut cache, &h), first);
        assert!(cache.entries.contains_key(&structural_hash(&h)));
        assert_eq!(cache.stats().result_misses, misses + first.0 as u64);
        assert_eq!(cache.stats().evictions, 2);
    }

    #[test]
    fn a_colliding_structure_is_a_miss_that_takes_the_entry_over() {
        // Forge the collision: file the 5-cycle's decisions under the
        // hash of `H2`. Decisions and index sit behind the same
        // canonical-form check, so `H2` must not read them.
        let mut cache = DecompCache::new();
        let (h, squatter) = (named::h2(), named::cycle(5));
        shw_of(&mut cache, &squatter);
        let forged = cache.entries.remove(&structural_hash(&squatter)).unwrap();
        cache.entries.insert(structural_hash(&h), forged);
        assert_eq!(shw_decisions_of(&cache, &h), 0);
        assert_eq!(shw_of(&mut cache, &h), shw::shw(&h));
        assert_eq!(cache.stats().result_hits, 0);
        assert_eq!((cache.entries.len(), cache.stats().evictions), (1, 1));
    }

    /// `h` beside a copy of itself on fresh vertices and edge names: the
    /// one input whose reduced pieces share a cache entry within a call.
    fn with_renamed_twin(h: &Hypergraph) -> Hypergraph {
        let mut b = softhw_hypergraph::HypergraphBuilder::new();
        for copy in ["", "twin_"] {
            for e in 0..h.num_edges() {
                let names: Vec<String> = (h.edge(e).iter())
                    .map(|v| format!("{copy}{}", h.vertex_name(v)))
                    .collect();
                let names: Vec<&str> = names.iter().map(String::as_str).collect();
                b.edge(&format!("{copy}{}", h.edge_name(e)), &names);
            }
        }
        b.build()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        #[test]
        fn the_bound_holds_after_every_call_while_eviction_churns(
            (seed, capacity) in (0u64..10_000, 2usize..5),
            ops in proptest::collection::vec((0usize..5, 0usize..6, 1usize..4, 0u64..4, 1u64..320), 30..50),
        ) {
            // Six 6-10-edge schemas through a bound of 2-4, so eviction
            // churns; pendant and subsumed edges are common at this
            // density, so the reduce-aware paths really split off pieces.
            let pool: Vec<Hypergraph> = (0..6)
                .map(|i| {
                    let config = RandomConfig {
                        num_vertices: 6 + (seed as usize + i) % 4,
                        num_edges: 6 + (seed as usize / 4 + i) % 5,
                        min_arity: 1,
                        max_arity: 3,
                        connect: i % 2 == 0,
                    };
                    random_hypergraph(&config, seed * 6 + i as u64)
                })
                .collect();
            let mut cache = DecompCache::with_capacity(capacity);
            let mut trips = 0;
            for (step, &(op, schema, k, flags, cap)) in ops.iter().enumerate() {
                let h = &pool[schema];
                let reduce = flags & 1 == 1;
                // Half the calls run under a work cap small enough to
                // trip mid-enumeration: an index a trip leaves half-grown
                // sits in an entry like any other, inside the bound. A
                // cold `shw`-class call on schemas of this pool ticks
                // 0-1 570 times (quartiles 21 / 63 / 219 over `shw` and
                // `shw ≤ 1..3`, raw and reduced, seeds 0-59; one tick per
                // λ node, `W`-side element, bag and DP block), an `hw`
                // one 3-33 times, so caps below 320 trip a good share of
                // the capped calls (most of the others are memo hits).
                let budget = if flags & 2 == 2 {
                    Budget::with_work_cap(cap)
                } else {
                    Budget::unlimited()
                };
                let mut solve = |spec: SolveSpec| {
                    let spec = spec.with_reduce(reduce).with_budget(budget.clone());
                    match cache.solve(h, &spec) {
                        Ok(_) => {}
                        Err(e) if e.is_budget() => trips += 1,
                        Err(e) => panic!("step {step}: {e}"),
                    }
                };
                match op {
                    0 => solve(SolveSpec::shw()),
                    2 => solve(SolveSpec::hw()),
                    3 => solve(SolveSpec::hw_leq(k)),
                    _ => solve(SolveSpec::shw_leq(k)),
                }
                prop_assert!(
                    cache.entries.len() <= capacity,
                    "step {}, op {} on schema {}", step, op, schema
                );
            }
            prop_assert!(cache.stats().evictions > 0, "capacity {} never evicted", capacity);
            prop_assert!(trips > 0, "no call tripped its work cap");
        }

        #[test]
        fn cold_and_memoised_doors_agree_decomposition_for_decomposition(
            (seed, vertices, edges) in (0u64..10_000, 4usize..8, 3usize..8),
            (connect, twin) in (0usize..2, 0usize..2),
            k in 1usize..4,
        ) {
            // Arity from 1 at this density: pendant and subsumed edges
            // are common, so both reductions really fire.
            let config = RandomConfig {
                num_vertices: vertices,
                num_edges: edges,
                min_arity: 1,
                max_arity: 3,
                connect: connect == 1,
            };
            let base = random_hypergraph(&config, seed);
            let h = if twin == 1 { with_renamed_twin(&base) } else { base };
            let corners = [
                SolveSpec::shw(),
                SolveSpec::shw_leq(k),
                SolveSpec::hw(),
                SolveSpec::hw_leq(k),
            ];
            for spec in corners {
                for reduce in [true, false] {
                    let spec = spec.clone().with_reduce(reduce);
                    // Raw sweeps of a disconnected input have no witness:
                    // the doors must then fail alike.
                    let cold = crate::solve(&h, &spec);
                    let mut cache = DecompCache::new();
                    prop_assert_eq!(&cache.solve(&h, &spec), &cold, "fresh cache, {:?}", &spec);
                    let misses = cache.stats().result_misses;
                    prop_assert_eq!(&cache.solve(&h, &spec), &cold, "second ask, {:?}", &spec);
                    if cold.is_ok() {
                        prop_assert_eq!(cache.stats().result_misses, misses, "a repeat is a memo hit");
                    }
                }
            }
            // The named cold functions are the same door.
            prop_assert_eq!(crate::solve(&h, &SolveSpec::shw()).unwrap(), {
                let (w, td) = shw::shw(&h);
                Solved::ShwWidth(w, td)
            });
            prop_assert_eq!(crate::solve(&h, &SolveSpec::hw()).unwrap(), {
                let (w, g) = hw::hw(&h);
                Solved::HwWidth(w, g)
            });
        }
    }
}
