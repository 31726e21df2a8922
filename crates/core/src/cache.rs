//! Cross-query decomposition cache: solver-level memoisation on top of
//! the structural-hash [`IndexCache`] of `softhw-hypergraph`.
//!
//! Repeated workloads (the `shw` width sweep per query, `table1`-style
//! harness runs, a CLI session decomposing one schema several ways)
//! re-decompose structurally identical hypergraphs. [`DecompCache`] keeps,
//! per structurally distinct hypergraph:
//!
//! - one warm [`BlockIndex`](softhw_hypergraph::BlockIndex) (arena +
//!   `[S]`-components + blocks + unions), shared across widths `k` and
//!   across queries — built on the first `shw` query over the structure
//!   (`hw` decisions never read it and never build it);
//! - `shw ≤ k` / `hw ≤ k` decisions with witness decompositions, so width
//!   sweeps over repeated queries skip generation and search entirely.
//!
//! Both live under one LRU clock keyed by the structural hash. Nothing
//! else is kept: the reduce-aware sweeps reduce the caller's own
//! hypergraph on every call (a reduction is cheap next to one width
//! decision) and memoise per reduced *piece*.
//!
//! An exact width is a sweep over those decisions: `k = 1, 2, …` until
//! the first accept, each width a memo probe or one Algorithm 1 run
//! against the warm index. A memoised decision is therefore a function
//! of `(h, k)` alone — exact and bounded specs fill and read the same
//! entries, in either order.
//!
//! The structural hash ignores the order edges are listed in, so the one
//! thing kept per hash that names edges — the `λ`-labels of `hw`
//! witnesses — is held in *canonical edge positions*
//! ([`canonical_edge_order`]) and translated through the caller's own
//! edge order on the way in and out: a hit always answers in the
//! numbering of the hypergraph that was passed in.
//!
//! The solving surface is [`DecompCache::solve`]: it consumes a
//! [`crate::spec::SolveSpec`] and is the one front door over every
//! (class × exactness × budget × reduction) corner; it returns exactly
//! what the cold solvers return (they are deterministic — the unit tests
//! assert this decomposition-for-decomposition).
//! [`DecompCache::export`] reads the decisions held for one hypergraph.
//! Algorithm 2 callers, whose answers are not width decisions, borrow
//! the warm index through [`DecompCache::soft_instance`] — the same
//! prepared instance a decision miss builds — and keep nothing here.
//!
//! The cache is **bounded**: it tracks at most
//! [`DecompCache::max_graphs`] structurally distinct hypergraphs and
//! evicts the least-recently-used one (warm index and width decisions
//! together) when a new structure would exceed the bound. Eviction only
//! costs recomputation — an evicted structure rebuilds cold on its next
//! query, with identical results.

use crate::budget::Budget;
use crate::ctd::CtdInstance;
use crate::error::DecompError;
use crate::ghd::Ghd;
use crate::hw;
use crate::reduce_solve::{lift_ghd, lift_td};
use crate::shw::{shw_leq_indexed_budgeted, soft_instance_budgeted};
use crate::soft::SoftLimits;
use crate::spec::{SolveClass, SolveSpec, Solved};
use crate::td::TreeDecomposition;
use softhw_hypergraph::cache::{canonical_edge_order, structural_hash, IndexCache};
use softhw_hypergraph::{FxHashMap, Hypergraph};

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

/// Memoised `width ≤ k` decisions keyed by `(structural hash, k)`;
/// `Some(witness)` on yes, `None` on no.
type Decisions<W> = FxHashMap<(u64, usize), Option<W>>;

/// Cross-query cache for width decisions. See the module docs for what
/// is shared at which level and how the capacity bound evicts.
pub struct DecompCache {
    indexes: IndexCache,
    shw_results: Decisions<TreeDecomposition>,
    /// `λ`-labels in canonical edge positions (see the module docs).
    hw_results: Decisions<Ghd>,
    /// hash → last-use tick, the LRU clock.
    last_used: FxHashMap<u64, u64>,
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

/// Every cached decision for `hash`, width-sorted, witnesses rendered
/// as their trees.
fn decisions_of<W>(
    results: &Decisions<W>,
    hash: u64,
    tree: impl Fn(&W) -> TreeDecomposition,
) -> Vec<(usize, Option<TreeDecomposition>)> {
    let mut out: Vec<_> = results
        .iter()
        .filter(|((h2, _), _)| *h2 == hash)
        .map(|((_, k), w)| (*k, w.as_ref().map(&tree)))
        .collect();
    out.sort_by_key(|(k, _)| *k);
    out
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
            indexes: IndexCache::new(),
            shw_results: FxHashMap::default(),
            hw_results: FxHashMap::default(),
            last_used: FxHashMap::default(),
            tick: 0,
            max_graphs: max_graphs.max(1),
            stats: DecompCacheStats::default(),
        }
    }

    /// Cache statistics so far.
    pub fn stats(&self) -> DecompCacheStats {
        self.stats
    }

    /// The underlying structural-hash index cache.
    pub fn index_cache(&self) -> &IndexCache {
        &self.indexes
    }

    /// The capacity bound (structurally distinct hypergraphs).
    pub fn max_graphs(&self) -> usize {
        self.max_graphs
    }

    /// Number of structurally distinct hypergraphs currently tracked.
    pub fn tracked_graphs(&self) -> usize {
        self.last_used.len()
    }

    /// Marks `hash` as just used and evicts the least-recently-used
    /// *other* hypergraph if the bound is now exceeded. Every entry point
    /// calls it for the hash it read or filled; one that probed a warm
    /// index does so once it is done with that index — on the error path
    /// too, so an index a budget trip leaves behind is tracked (and
    /// evictable). Never evicts `hash` itself.
    fn touch(&mut self, hash: u64) {
        self.tick += 1;
        self.last_used.insert(hash, self.tick);
        while self.last_used.len() > self.max_graphs {
            let others = self.last_used.iter().filter(|&(&h2, _)| h2 != hash);
            let Some((&victim, _)) = others.min_by_key(|&(_, &t)| t) else {
                break;
            };
            self.evict(victim);
        }
    }

    /// Drops every cached artefact of hypergraph `victim`: warm index
    /// and width decisions.
    fn evict(&mut self, victim: u64) {
        self.indexes.remove(victim);
        self.shw_results.retain(|&(h2, _), _| h2 != victim);
        self.hw_results.retain(|&(h2, _), _| h2 != victim);
        self.last_used.remove(&victim);
        self.stats.evictions += 1;
    }

    /// `Soft_{H,k}` and the prepared `CandidateTD` instance over it,
    /// generated and built on `h`'s warm index under `budget` — exactly
    /// what a `shw ≤ k` decision miss builds, for callers that run their
    /// own DP over the block tables (Algorithm 2, [`crate::ctd_opt`]).
    /// The instance is the caller's: nothing is retained here, and a
    /// budget abort leaves the cache as warm and consistent as
    /// [`DecompCache::solve`] does.
    pub fn soft_instance(
        &mut self,
        h: &Hypergraph,
        k: usize,
        limits: &SoftLimits,
        budget: &Budget,
    ) -> Result<CtdInstance, DecompError> {
        let (hash, index) = self.indexes.entry(h);
        let inst = soft_instance_budgeted(index, k, limits, budget);
        self.touch(hash);
        inst
    }

    /// The one entry point over every cached width query: routes a
    /// [`SolveSpec`] to the matching (class, exactness) solver under the
    /// spec's budget, reduction policy, and generation limits.
    ///
    /// Budget aborts keep the cache warm and consistent: nothing partial
    /// is memoised, and an abort evicts no more than the finished call
    /// would have (a structure the cache had not seen still takes its LRU
    /// slot, so its half-grown index stays tracked); an exact-`hw` query on a
    /// degenerate input admitting no HD at any width surfaces as an
    /// internal [`DecompError`].
    pub fn solve(&mut self, h: &Hypergraph, spec: &SolveSpec) -> Result<Solved, DecompError> {
        match (spec.class, spec.bound) {
            (SolveClass::Shw, Some(k)) => Ok(Solved::ShwDecision(self.shw_decision(
                h,
                k,
                &spec.limits,
                &spec.budget,
            )?)),
            (SolveClass::Shw, None) => {
                let (w, td) = self.shw_exact(h, &spec.limits, &spec.budget, spec.reduce)?;
                Ok(Solved::ShwWidth(w, td))
            }
            (SolveClass::Hw, Some(k)) => {
                Ok(Solved::HwDecision(self.hw_decision(h, k, &spec.budget)?))
            }
            (SolveClass::Hw, None) => match self.hw_exact(h, &spec.budget, spec.reduce)? {
                Some((w, g)) => Ok(Solved::HwWidth(w, g)),
                None => Err(DecompError::internal("no width up to |E(H)| admits an HD")),
            },
        }
    }

    /// The `shw ≤ k` decision with cross-query memoisation. A budget
    /// abort memoises nothing for `(h, k)` — no partial answer can ever
    /// be served — and evicts nothing of `h`'s: every decision cached
    /// before the trip stays warm, so a retry recomputes only this width.
    fn shw_decision(
        &mut self,
        h: &Hypergraph,
        k: usize,
        limits: &SoftLimits,
        budget: &Budget,
    ) -> Result<Option<TreeDecomposition>, DecompError> {
        let (hash, index) = self.indexes.entry(h);
        if let Some(cached) = self.shw_results.get(&(hash, k)).cloned() {
            self.stats.result_hits += 1;
            self.touch(hash);
            return Ok(cached);
        }
        self.stats.result_misses += 1;
        let result = shw_leq_indexed_budgeted(index, k, limits, budget);
        self.touch(hash);
        let result = result?;
        self.shw_results.insert((hash, k), result.clone());
        Ok(result)
    }

    /// The exact-`shw` solver behind [`DecompCache::solve`]: reduce-aware
    /// unless `reduce` is off — the input is simplified first and each
    /// reduced piece swept through the cache under the *piece's*
    /// structural hash, so a schema submitted raw and the same schema
    /// submitted already reduced land on the same piece entries.
    /// Irreducible connected inputs sweep raw. Budget aborts leave the
    /// cache **warm and consistent**: nothing is memoised for the
    /// interrupted width (so a partial answer can never be served later),
    /// nothing is evicted that the finished sweep would have kept, and
    /// every width decided before the trip stays cached. A retry resumes
    /// from the memoised widths and recomputes
    /// only the interrupted one.
    fn shw_exact(
        &mut self,
        h: &Hypergraph,
        limits: &SoftLimits,
        budget: &Budget,
        reduce: bool,
    ) -> Result<(usize, TreeDecomposition), DecompError> {
        if !reduce {
            return self.shw_sweep(h, limits, budget);
        }
        let red = softhw_hypergraph::reduce(h);
        if red.is_trivial() {
            return self.shw_sweep(h, limits, budget);
        }
        let mut width = 1usize;
        let mut tds = Vec::with_capacity(red.pieces.len());
        for piece in &red.pieces {
            budget.check()?;
            // Pieces are at the reduction fixpoint and connected, so the
            // raw cached path is exactly the reduce-aware path for them.
            let (w, td) = self.shw_sweep(&piece.h, limits, budget)?;
            width = width.max(w);
            tds.push(td);
        }
        let td = lift_td(h, &red, &tds);
        debug_assert_eq!(td.validate(h), Ok(()));
        Ok((width, td))
    }

    /// The raw (no-reduction) cached exact sweep: the least `k` that
    /// [`DecompCache::shw_decision`] accepts.
    fn shw_sweep(
        &mut self,
        h: &Hypergraph,
        limits: &SoftLimits,
        budget: &Budget,
    ) -> Result<(usize, TreeDecomposition), DecompError> {
        for k in 1..=h.num_edges().max(1) {
            if let Some(td) = self.shw_decision(h, k, limits, budget)? {
                return Ok((k, td));
            }
        }
        // Unreachable for well-formed hypergraphs (shw ≤ |E(H)|): the
        // full vertex set is always a candidate at k = |E|.
        Err(DecompError::internal("no width up to |E(H)| accepted"))
    }

    /// The `hw ≤ k` decision with cross-query memoisation (decision +
    /// witness), keyed by `h`'s structural hash alone: the `hw` search
    /// runs on `h` itself, so no warm index is probed or built, and a
    /// budget abort leaves nothing behind.
    fn hw_decision(
        &mut self,
        h: &Hypergraph,
        k: usize,
        budget: &Budget,
    ) -> Result<Option<Ghd>, DecompError> {
        let hash = structural_hash(h);
        if let Some(cached) = self.hw_results.get(&(hash, k)).cloned() {
            self.stats.result_hits += 1;
            self.touch(hash);
            return Ok(cached.map(|g| relabel(g, &canonical_edge_order(h))));
        }
        self.stats.result_misses += 1;
        let result = hw::hw_leq_budgeted(h, k, budget)?;
        let canonical = result
            .clone()
            .map(|g| relabel(g, &positions_of(&canonical_edge_order(h))));
        self.hw_results.insert((hash, k), canonical);
        self.touch(hash);
        Ok(result)
    }

    /// The exact-`hw` solver behind [`DecompCache::solve`]: reduce-aware
    /// with the no-peel (HD-safe) pipeline unless `reduce` is off —
    /// pieces are swept through the cache under their own structural
    /// hashes and the piece HDs lifted back; same warm abort guarantees
    /// as the `shw` sweep. `Ok(None)` when no width up to `|E(H)|`
    /// admits an HD.
    fn hw_exact(
        &mut self,
        h: &Hypergraph,
        budget: &Budget,
        reduce: bool,
    ) -> Result<Option<(usize, Ghd)>, DecompError> {
        if !reduce {
            return self.hw_sweep(h, budget);
        }
        let red = softhw_hypergraph::reduce_no_peel(h);
        if red.is_trivial() {
            return self.hw_sweep(h, budget);
        }
        let mut width = 1usize;
        let mut ghds = Vec::with_capacity(red.pieces.len());
        for piece in &red.pieces {
            budget.check()?;
            match self.hw_sweep(&piece.h, budget)? {
                Some((w, g)) => {
                    width = width.max(w);
                    ghds.push(g);
                }
                None => return Ok(None),
            }
        }
        let g = lift_ghd(h, &red, &ghds);
        debug_assert!(g.is_hd(h), "lifted HD must satisfy the special condition");
        Ok(Some((width, g)))
    }

    /// The raw (no-reduction) cached `hw` sweep: the least `k` that
    /// [`DecompCache::hw_decision`] accepts.
    fn hw_sweep(
        &mut self,
        h: &Hypergraph,
        budget: &Budget,
    ) -> Result<Option<(usize, Ghd)>, DecompError> {
        for k in 1..=h.num_edges().max(1) {
            if let Some(g) = self.hw_decision(h, k, budget)? {
                return Ok(Some((k, g)));
            }
        }
        Ok(None)
    }

    /// Every cached `class ≤ k` decision for `h` (width-sorted), witness
    /// trees cloned — a snapshot of this hypergraph's decision state
    /// (the covers of `hw` witnesses are left out).
    pub fn export(
        &self,
        h: &Hypergraph,
        class: SolveClass,
    ) -> Vec<(usize, Option<TreeDecomposition>)> {
        let hash = structural_hash(h);
        match class {
            SolveClass::Shw => decisions_of(&self.shw_results, hash, TreeDecomposition::clone),
            SolveClass::Hw => decisions_of(&self.hw_results, hash, |g| g.td.clone()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shw;
    use crate::soft::soft_bags;
    use proptest::prelude::*;
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

    /// Algorithm 1 over `Soft_{H,k}` on the cache's warm index.
    fn decide_at(cache: &mut DecompCache, h: &Hypergraph, k: usize) -> Option<TreeDecomposition> {
        cache
            .soft_instance(h, k, &SoftLimits::default(), &Budget::unlimited())
            .expect("default limits suffice")
            .decide()
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
        assert!(cache.tracked_graphs() <= 2, "{}", cache.tracked_graphs());
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
        assert!(cache.tracked_graphs() <= 2);
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
            assert_eq!(cache.max_graphs(), 1);
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
                    // Mix in instance-level and hw traffic on the same
                    // storm so every artefact kind churns together.
                    assert_eq!(
                        decide_at(&mut cache, h, w).map(|t| t.bags().to_vec()),
                        crate::ctd::candidate_td(h, &soft_bags(h, w)).map(|t| t.bags().to_vec()),
                        "cap {cap} round {round}"
                    );
                    let (hw_w, ghd) = hw_of(&mut cache, h);
                    assert_eq!(hw_w, hw::hw(h).0);
                    assert!(ghd.is_hd(h));
                    assert!(cache.tracked_graphs() <= 1, "bound violated");
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
            decide_at(&mut cache, &named::h2(), 2);
            hw_of(&mut cache, &named::cycle(5));
        }
        assert_eq!(cache.stats().evictions, 0);
        assert_eq!(cache.tracked_graphs(), 2);
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
        assert_eq!(raw.export(&h, SolveClass::Shw).len(), w);
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
        assert!(reduced.export(&h, SolveClass::Shw).is_empty());
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
                let cold = if reduce { hw::hw(&h1) } else { hw::hw_raw(&h1) };
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
                    assert_eq!(cache.index_cache().stats().misses, 0);
                    assert!(cache.tracked_graphs() > 0, "the decisions are tracked");
                }
            }
        }
    }

    /// What the LRU oracle checks after every call: every hash holding a
    /// warm index or a memoised decision is in the LRU clock, and the
    /// clock is within its bound.
    fn assert_lru_consistent(cache: &DecompCache, after: &str) {
        let held = (cache.indexes.hashes())
            .chain(cache.shw_results.keys().map(|&(hash, _)| hash))
            .chain(cache.hw_results.keys().map(|&(hash, _)| hash));
        for hash in held {
            assert!(
                cache.last_used.contains_key(&hash),
                "{after}: untracked state"
            );
        }
        assert!(cache.tracked_graphs() <= cache.max_graphs(), "{after}");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        #[test]
        fn whatever_is_cached_is_in_the_lru_clock_after_every_call(
            (seed, capacity) in (0u64..10_000, 2usize..5),
            ops in proptest::collection::vec((0usize..5, 0usize..6, 1usize..4, 0u64..4, 1u64..400), 30..50),
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
                // must still be tracked.
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
                    1 => solve(SolveSpec::shw_leq(k)),
                    2 => solve(SolveSpec::hw()),
                    3 => solve(SolveSpec::hw_leq(k)),
                    _ => {
                        let inst = cache.soft_instance(h, k, &SoftLimits::default(), &budget);
                        trips += usize::from(inst.is_err());
                    }
                }
                assert_lru_consistent(&cache, &format!("step {step}, op {op} on schema {schema}"));
            }
            prop_assert!(cache.stats().evictions > 0, "capacity {} never evicted", capacity);
            prop_assert!(trips > 0, "no call tripped its work cap");
        }
    }
}
