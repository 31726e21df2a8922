//! Cross-query decomposition cache: solver-level memoisation on top of
//! the structural-hash [`IndexCache`] of `softhw-hypergraph`.
//!
//! Repeated workloads (the `shw` width sweep per query, `table1`-style
//! harness runs, a service answering many queries over one schema)
//! re-decompose structurally identical hypergraphs. [`DecompCache`] keeps,
//! per structurally distinct hypergraph:
//!
//! - one warm [`BlockIndex`] (arena + `[S]`-components + blocks + unions),
//!   shared across widths `k` and across queries;
//! - prepared [`CtdInstance`]s *with their satisfied-block tables*, keyed
//!   by the candidate-bag id set, so a repeated Algorithm 1 run is a hash
//!   probe plus extraction — the DP itself is not re-run;
//! - `shw ≤ k` / `hw ≤ k` decisions with witness decompositions, so width
//!   sweeps over repeated queries skip generation and search entirely.
//!
//! An exact width is a sweep over those decisions: `k = 1, 2, …` until
//! the first accept, each width a memo probe or one Algorithm 1 run
//! against the warm index. A memoised decision is therefore a function
//! of `(h, k)` alone — exact and bounded specs fill and read the same
//! entries, in either order.
//!
//! All cached entry points return exactly what the cold entry points
//! return (the solvers are deterministic); the unit tests assert this
//! decomposition-for-decomposition.
//!
//! **Entry point:** [`DecompCache::solve`] consumes a
//! [`crate::spec::SolveSpec`] and is the one front door over every
//! (class × exactness × budget × reduction) corner. The historical
//! per-corner methods are kept as thin compatibility wrappers:
//!
//! | deprecated wrapper            | `SolveSpec` replacement                          |
//! |-------------------------------|--------------------------------------------------|
//! | `shw` / `try_shw(_with)`      | `solve(h, &SolveSpec::shw())`                    |
//! | `try_shw_budgeted`            | `solve(h, &SolveSpec::shw().with_budget(b))`     |
//! | `shw_leq(_budgeted)`          | `solve(h, &SolveSpec::shw_leq(k)…)`              |
//! | `hw` / `try_hw(_budgeted)`    | `solve(h, &SolveSpec::hw()…)`                    |
//! | `hw_leq(_budgeted)`           | `solve(h, &SolveSpec::hw_leq(k)…)`               |
//!
//! The cache is **bounded**: it tracks at most
//! [`DecompCache::max_graphs`] structurally distinct hypergraphs and
//! evicts the least-recently-used one (warm index, prepared instances,
//! and width decisions together) when a new structure would exceed the
//! bound. Eviction only costs recomputation — an evicted structure
//! rebuilds cold on its next query, with identical results.

use crate::budget::Budget;
use crate::ctd::{CtdInstance, Satisfaction};
use crate::error::DecompError;
use crate::ghd::Ghd;
use crate::hw;
use crate::reduce_solve::{lift_ghd, lift_td};
use crate::soft::{soft_bag_ids_budgeted, SoftLimits};
use crate::spec::{SolveClass, SolveSpec, Solved};
use crate::td::TreeDecomposition;
use softhw_hypergraph::cache::IndexCache;
use softhw_hypergraph::{BagId, BitSet, FxHashMap, FxHashSet, Hypergraph, Reduction};
use std::sync::Arc;

/// Hit/miss counters of a [`DecompCache`].
#[derive(Clone, Copy, Debug, Default)]
pub struct DecompCacheStats {
    /// Prepared-instance probes answered from the cache.
    pub instance_hits: u64,
    /// Prepared-instance probes that built (and satisfied) fresh.
    pub instance_misses: u64,
    /// Width-decision probes answered from the cache.
    pub result_hits: u64,
    /// Width-decision probes computed fresh.
    pub result_misses: u64,
    /// Hypergraphs evicted to keep the cache within its bound.
    pub evictions: u64,
}

/// A prepared instance together with its satisfaction table.
struct CachedInstance {
    /// The interned candidate-bag ids this instance was built from
    /// (cache-key verification against hash collisions).
    ids: Vec<BagId>,
    inst: CtdInstance,
    sat: Satisfaction,
}

/// Default bound on the number of structurally distinct hypergraphs a
/// [`DecompCache`] tracks before evicting the least-recently-used one.
pub const DEFAULT_MAX_GRAPHS: usize = 128;

/// Cross-query cache for Algorithm 1 instances and width decisions. See
/// the module docs for what is shared at which level and how the
/// capacity bound evicts.
pub struct DecompCache {
    indexes: IndexCache,
    instances: FxHashMap<(u64, u64), Vec<CachedInstance>>,
    shw_results: FxHashMap<(u64, usize), Option<TreeDecomposition>>,
    hw_results: FxHashMap<(u64, usize), Option<Ghd>>,
    /// Cached full-pipeline reduction per hypergraph (shared so the
    /// service reports reduction stats without recomputing).
    reductions: FxHashMap<u64, Arc<Reduction>>,
    /// Cached no-peel reduction per hypergraph (the HD-safe variant the
    /// `hw` path uses).
    reductions_no_peel: FxHashMap<u64, Arc<Reduction>>,
    /// When set, every entry point takes the raw solver path (the
    /// service's `--no-reduce` escape hatch).
    no_reduce: bool,
    /// hash → last-use tick, the LRU clock.
    last_used: FxHashMap<u64, u64>,
    /// Hashes exempt from LRU eviction (hot-schema pinning): a pinned
    /// hypergraph's warm state survives any eviction storm.
    pinned: FxHashSet<u64>,
    tick: u64,
    max_graphs: usize,
    stats: DecompCacheStats,
}

impl Default for DecompCache {
    fn default() -> Self {
        DecompCache::with_capacity(DEFAULT_MAX_GRAPHS)
    }
}

fn hash_ids(ids: &[BagId]) -> u64 {
    softhw_hypergraph::fxhash::hash_u64_iter(
        std::iter::once(ids.len() as u64).chain(ids.iter().map(|id| id.0 as u64)),
    )
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
            instances: FxHashMap::default(),
            shw_results: FxHashMap::default(),
            hw_results: FxHashMap::default(),
            reductions: FxHashMap::default(),
            reductions_no_peel: FxHashMap::default(),
            no_reduce: false,
            last_used: FxHashMap::default(),
            pinned: FxHashSet::default(),
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

    /// Approximate heap footprint in bytes of everything this cache
    /// retains: warm indexes, prepared instances with satisfaction
    /// tables, width-decision witnesses, and reductions.
    /// Divide by [`DecompCache::tracked_graphs`] for the
    /// `bytes_per_cached_schema` memory stat the service reports.
    pub fn approx_bytes(&self) -> u64 {
        let instances: u64 = self
            .instances
            .values()
            .flat_map(|bucket| bucket.iter())
            .map(|c| {
                (c.ids.capacity() * std::mem::size_of::<BagId>()) as u64
                    + c.inst.approx_bytes()
                    + c.sat.approx_bytes()
            })
            .sum();
        let shw: u64 = self
            .shw_results
            .values()
            .map(|v| v.as_ref().map_or(0, |td| td.approx_bytes()) + 32)
            .sum();
        let hw: u64 = self
            .hw_results
            .values()
            .map(|v| v.as_ref().map_or(0, |g| g.approx_bytes()) + 32)
            .sum();
        let reds: u64 = self
            .reductions
            .values()
            .chain(self.reductions_no_peel.values())
            .map(|r| r.approx_bytes())
            .sum();
        // LRU clock + pin set, at one (key, value) pair each.
        let book = ((self.last_used.len() + self.pinned.len()) * 24) as u64;
        self.indexes.approx_bytes() + instances + shw + hw + reds + book
    }

    /// Pins hypergraph `hash` (the [`structural_hash`] the entry points
    /// key on): as long as it stays pinned it is exempt from LRU
    /// eviction, so an eviction storm of one-off schemas cannot thrash
    /// the head of the traffic distribution. Pinning is a policy bit,
    /// not a reservation — it does not populate the cache, and pinned
    /// entries still count against the capacity bound, so pinning more
    /// hashes than `max_graphs` lets the cache overshoot its bound by
    /// the pinned excess (never panic, never evict a pin).
    ///
    /// [`structural_hash`]: softhw_hypergraph::cache::structural_hash
    pub fn pin(&mut self, hash: u64) {
        self.pinned.insert(hash);
    }

    /// Removes the pin on `hash`, making it evictable again; returns
    /// whether it was pinned. The entry is not dropped eagerly — it
    /// simply rejoins the LRU order at its last-use tick.
    pub fn unpin(&mut self, hash: u64) -> bool {
        self.pinned.remove(&hash)
    }

    /// True iff `hash` is currently pinned.
    pub fn is_pinned(&self, hash: u64) -> bool {
        self.pinned.contains(&hash)
    }

    /// Number of pinned hashes.
    pub fn pinned_count(&self) -> usize {
        self.pinned.len()
    }

    /// Disables (or re-enables) the reduce-before-solve pipeline for
    /// every entry point — the service's `--no-reduce` escape hatch.
    /// Cached reductions are kept; they are simply not consulted.
    pub fn set_no_reduce(&mut self, no_reduce: bool) {
        self.no_reduce = no_reduce;
    }

    /// True iff the reduce-before-solve pipeline is disabled.
    pub fn no_reduce(&self) -> bool {
        self.no_reduce
    }

    /// The full-pipeline reduction of `h`, cached per structural hash
    /// (computed even under `--no-reduce`, so the service can always
    /// report what the pipeline *would* do — callers decide whether to
    /// act on it).
    pub fn reduction(&mut self, h: &Hypergraph) -> Arc<Reduction> {
        let (hash, _) = self.indexes.entry(h);
        self.touch(hash);
        if let Some(r) = self.reductions.get(&hash) {
            return Arc::clone(r);
        }
        let r = Arc::new(softhw_hypergraph::reduce(h));
        self.reductions.insert(hash, Arc::clone(&r));
        r
    }

    /// The no-peel (HD-safe) reduction of `h`, cached per structural
    /// hash; used by the `hw` path.
    fn reduction_no_peel(&mut self, h: &Hypergraph) -> Arc<Reduction> {
        let (hash, _) = self.indexes.entry(h);
        self.touch(hash);
        if let Some(r) = self.reductions_no_peel.get(&hash) {
            return Arc::clone(r);
        }
        let r = Arc::new(softhw_hypergraph::reduce_no_peel(h));
        self.reductions_no_peel.insert(hash, Arc::clone(&r));
        r
    }

    /// Marks `hash` as just used and evicts the least-recently-used
    /// *other* hypergraph if the bound is now exceeded. Called on every
    /// entry point, right after the index probe. Never evicts `hash`
    /// itself or a pinned hash, and never panics: if no evictable entry
    /// exists (every other entry is pinned, or the LRU clock is
    /// inconsistent), it stops evicting — an over-full cache is a
    /// bounded memory overshoot, not a reason to kill the process.
    fn touch(&mut self, hash: u64) {
        self.tick += 1;
        self.last_used.insert(hash, self.tick);
        while self.last_used.len() > self.max_graphs {
            let victim = self
                .last_used
                .iter()
                .filter(|&(&h2, _)| h2 != hash && !self.pinned.contains(&h2))
                .min_by_key(|&(_, &t)| t)
                .map(|(&h2, _)| h2);
            match victim {
                Some(v) => self.evict(v),
                None => break, // everything else is pinned: overshoot
            }
        }
    }

    /// Drops every cached artefact of hypergraph `victim`: warm index,
    /// prepared instances, and width decisions.
    fn evict(&mut self, victim: u64) {
        self.indexes.remove(victim);
        self.instances.retain(|&(h2, _), _| h2 != victim);
        self.shw_results.retain(|&(h2, _), _| h2 != victim);
        self.hw_results.retain(|&(h2, _), _| h2 != victim);
        self.reductions.remove(&victim);
        self.reductions_no_peel.remove(&victim);
        self.last_used.remove(&victim);
        self.stats.evictions += 1;
    }

    /// The prepared (instance, satisfaction) pair for `(h, bags)`,
    /// building and satisfying on first sight.
    ///
    /// The lookup is written defensively: after the probe (and the LRU
    /// `touch`, which by construction never evicts the hash just used)
    /// the entry's presence is *re-verified*, and a missing entry —
    /// a cache inconsistency that previously took the process down via
    /// an `.expect(...)` chain — is repaired by one cold rebuild of
    /// exactly this entry.
    fn instance(&mut self, h: &Hypergraph, bags: &[BitSet]) -> &CachedInstance {
        let (hash, index) = self.indexes.entry(h);
        let ids: Vec<BagId> = bags.iter().map(|b| index.arena.intern(b)).collect();
        let key = (hash, hash_ids(&ids));
        let probed = self
            .instances
            .get(&key)
            .and_then(|bucket| bucket.iter().position(|c| c.ids == ids));
        let mut pos = match probed {
            Some(p) => {
                self.stats.instance_hits += 1;
                p
            }
            None => {
                self.stats.instance_misses += 1;
                let (_, index) = self.indexes.entry(h);
                let inst = CtdInstance::build(index, &ids);
                let sat = inst.satisfy();
                let bucket = self.instances.entry(key).or_default();
                bucket.push(CachedInstance {
                    ids: ids.clone(),
                    inst,
                    sat,
                });
                bucket.len() - 1
            }
        };
        self.touch(hash);
        let present = self
            .instances
            .get(&key)
            .is_some_and(|bucket| bucket.get(pos).is_some());
        if !present {
            // Degrade to a cold recompute of this entry instead of
            // panicking on the inconsistency.
            debug_assert!(false, "cache entry vanished between probe and return");
            self.stats.instance_misses += 1;
            let (_, index) = self.indexes.entry(h);
            let inst = CtdInstance::build(index, &ids);
            let sat = inst.satisfy();
            let bucket = self.instances.entry(key).or_default();
            bucket.push(CachedInstance { ids, inst, sat });
            pos = bucket.len() - 1;
        }
        // Structurally guaranteed: either re-verified present above, or
        // just pushed at `pos`.
        &self.instances[&key][pos]
    }

    /// Algorithm 1 with cross-query reuse: repeated calls with a
    /// structurally identical hypergraph and bag set skip index build,
    /// block construction, *and* the satisfaction DP — only extraction
    /// runs. Returns exactly what [`crate::ctd::candidate_td`] returns.
    pub fn candidate_td(&mut self, h: &Hypergraph, bags: &[BitSet]) -> Option<TreeDecomposition> {
        let cached = self.instance(h, bags);
        cached.inst.extract(&cached.sat)
    }

    /// The prepared instance for `(h, bags)` (for callers that want to
    /// run their own DP variants — e.g. [`crate::ctd_opt`] — against the
    /// cached block tables).
    pub fn instance_for(&mut self, h: &Hypergraph, bags: &[BitSet]) -> &CtdInstance {
        &self.instance(h, bags).inst
    }

    /// The one entry point over every cached width query: routes a
    /// [`SolveSpec`] to the matching (class, exactness) solver under the
    /// spec's budget, reduction policy, and generation limits. All the
    /// per-corner methods below are thin wrappers over this.
    ///
    /// Budget aborts keep the cache warm and consistent (nothing partial
    /// is memoised, nothing is evicted); an exact-`hw` query on a
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
    /// be served — and evicts nothing: every decision cached before the
    /// trip stays warm, so a retry recomputes only this width.
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
        let bags = soft_bag_ids_budgeted(index, k, limits, budget)?;
        let result =
            CtdInstance::build_budgeted(index, &bags, budget)?.try_decide_budgeted(budget)?;
        self.shw_results.insert((hash, k), result.clone());
        self.touch(hash);
        Ok(result)
    }

    /// `shw(h) ≤ k` with cross-query memoisation of the decision and
    /// witness. Generation limits only apply on a cache miss.
    ///
    /// Deprecated wrapper — prefer
    /// [`DecompCache::solve`] with [`SolveSpec::shw_leq`].
    pub fn shw_leq(
        &mut self,
        h: &Hypergraph,
        k: usize,
        limits: &SoftLimits,
    ) -> Result<Option<TreeDecomposition>, DecompError> {
        match self.solve(h, &SolveSpec::shw_leq(k).with_limits(limits.clone()))? {
            Solved::ShwDecision(r) => Ok(r),
            _ => unreachable!("shw_leq specs answer with a shw decision"),
        }
    }

    /// [`DecompCache::shw_leq`] with a cooperative [`Budget`].
    ///
    /// Deprecated wrapper — prefer [`DecompCache::solve`] with
    /// [`SolveSpec::shw_leq`] + [`SolveSpec::with_budget`].
    pub fn shw_leq_budgeted(
        &mut self,
        h: &Hypergraph,
        k: usize,
        limits: &SoftLimits,
        budget: &Budget,
    ) -> Result<Option<TreeDecomposition>, DecompError> {
        match self.solve(
            h,
            &SolveSpec::shw_leq(k)
                .with_limits(limits.clone())
                .with_budget(budget.clone()),
        )? {
            Solved::ShwDecision(r) => Ok(r),
            _ => unreachable!("shw_leq specs answer with a shw decision"),
        }
    }

    /// `shw(h)` exactly, memoised per width across queries: a repeated
    /// sweep over the same structure is pure memo hits. Returns what
    /// [`crate::shw::shw`] returns.
    ///
    /// Panics if `limits`-style default generation guards are exceeded;
    /// long-lived callers (the decomposition service) use
    /// [`DecompCache::try_shw`], where every failure mode is an `Err`.
    ///
    /// Deprecated wrapper — prefer [`DecompCache::solve`] with
    /// [`SolveSpec::shw`].
    pub fn shw(&mut self, h: &Hypergraph) -> (usize, TreeDecomposition) {
        match self.try_shw_with(h, &SoftLimits::default()) {
            Ok(out) => out,
            Err(e) => panic!("shw under default limits: {e}"),
        }
    }

    /// [`DecompCache::shw`] with the default generation limits and no
    /// panicking path.
    ///
    /// Deprecated wrapper — prefer [`DecompCache::solve`] with
    /// [`SolveSpec::shw`].
    pub fn try_shw(&mut self, h: &Hypergraph) -> Result<(usize, TreeDecomposition), DecompError> {
        self.try_shw_with(h, &SoftLimits::default())
    }

    /// The exact-`shw` solver behind [`DecompCache::solve`]: reduce-aware
    /// unless `reduce` is off (or the cache-wide `no_reduce` toggle is
    /// set). Budget aborts leave the cache **warm and consistent**:
    /// nothing is memoised for the interrupted width (so a partial answer
    /// can never be served later), nothing is evicted, and every width
    /// decided before the trip stays cached. A retry resumes from the
    /// memoised widths and recomputes only the interrupted one.
    fn shw_exact(
        &mut self,
        h: &Hypergraph,
        limits: &SoftLimits,
        budget: &Budget,
        reduce: bool,
    ) -> Result<(usize, TreeDecomposition), DecompError> {
        if self.no_reduce || !reduce {
            return self.try_shw_raw_budgeted(h, limits, budget);
        }
        let red = self.reduction(h);
        if red.is_trivial() {
            return self.try_shw_raw_budgeted(h, limits, budget);
        }
        let mut width = 1usize;
        let mut tds = Vec::with_capacity(red.pieces.len());
        for piece in &red.pieces {
            budget.check()?;
            // Pieces are at the reduction fixpoint and connected, so the
            // raw cached path is exactly the reduce-aware path for them.
            let (w, td) = self.try_shw_raw_budgeted(&piece.h, limits, budget)?;
            width = width.max(w);
            tds.push(td);
        }
        let td = lift_td(h, &red, &tds);
        debug_assert_eq!(td.validate(h), Ok(()));
        Ok((width, td))
    }

    /// `shw(h)` exactly through the cache, non-panicking: generation
    /// blow-ups surface as [`DecompError::Limit`]/[`DecompError::Shards`]
    /// instead of killing the caller.
    ///
    /// Reduce-aware: the input is simplified first and each reduced
    /// piece solved through the cache under the *piece's* structural
    /// hash — a schema submitted raw and the same schema submitted
    /// already reduced land on the same piece entries, so neither is
    /// computed twice. Irreducible connected inputs (and caches with
    /// [`DecompCache::set_no_reduce`] set) take the raw path unchanged.
    ///
    /// Deprecated wrapper — prefer [`DecompCache::solve`] with
    /// [`SolveSpec::shw`] (+ [`SolveSpec::with_limits`]).
    pub fn try_shw_with(
        &mut self,
        h: &Hypergraph,
        limits: &SoftLimits,
    ) -> Result<(usize, TreeDecomposition), DecompError> {
        self.shw_exact(h, limits, &Budget::unlimited(), true)
    }

    /// [`DecompCache::try_shw_with`] with a cooperative [`Budget`]; see
    /// [`DecompCache::solve`] for the warm-abort guarantees.
    ///
    /// Deprecated wrapper — prefer [`DecompCache::solve`] with
    /// [`SolveSpec::shw`] + [`SolveSpec::with_budget`].
    pub fn try_shw_budgeted(
        &mut self,
        h: &Hypergraph,
        limits: &SoftLimits,
        budget: &Budget,
    ) -> Result<(usize, TreeDecomposition), DecompError> {
        self.shw_exact(h, limits, budget, true)
    }

    /// The raw (no-reduction) cached exact sweep: the least `k` that
    /// [`DecompCache::shw_decision`] accepts.
    fn try_shw_raw_budgeted(
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
    /// witness); a budget abort memoises and evicts nothing.
    fn hw_decision(
        &mut self,
        h: &Hypergraph,
        k: usize,
        budget: &Budget,
    ) -> Result<Option<Ghd>, DecompError> {
        let (hash, _) = self.indexes.entry(h);
        if let Some(cached) = self.hw_results.get(&(hash, k)).cloned() {
            self.stats.result_hits += 1;
            self.touch(hash);
            return Ok(cached);
        }
        self.stats.result_misses += 1;
        let result = hw::hw_leq_budgeted(h, k, budget)?;
        self.hw_results.insert((hash, k), result.clone());
        self.touch(hash);
        Ok(result)
    }

    /// `hw(h) ≤ k` with cross-query memoisation (decision + witness).
    ///
    /// Deprecated wrapper — prefer [`DecompCache::solve`] with
    /// [`SolveSpec::hw_leq`].
    pub fn hw_leq(&mut self, h: &Hypergraph, k: usize) -> Option<Ghd> {
        match self.solve(h, &SolveSpec::hw_leq(k)) {
            Ok(Solved::HwDecision(r)) => r,
            Ok(_) => unreachable!("hw_leq specs answer with an hw decision"),
            Err(_) => unreachable!("unlimited budgets never abort the hw decision"),
        }
    }

    /// [`DecompCache::hw_leq`] with a cooperative [`Budget`]; a budget
    /// abort memoises and evicts nothing.
    ///
    /// Deprecated wrapper — prefer [`DecompCache::solve`] with
    /// [`SolveSpec::hw_leq`] + [`SolveSpec::with_budget`].
    pub fn hw_leq_budgeted(
        &mut self,
        h: &Hypergraph,
        k: usize,
        budget: &Budget,
    ) -> Result<Option<Ghd>, DecompError> {
        match self.solve(h, &SolveSpec::hw_leq(k).with_budget(budget.clone()))? {
            Solved::HwDecision(r) => Ok(r),
            _ => unreachable!("hw_leq specs answer with an hw decision"),
        }
    }

    /// `hw(h)` exactly, memoised per width across queries. Reduce-aware
    /// with the no-peel (HD-safe) pipeline: pieces are swept through the
    /// cache under their own structural hashes and the piece HDs lifted
    /// back; irreducible connected inputs sweep raw.
    ///
    /// Deprecated wrapper — prefer [`DecompCache::solve`] with
    /// [`SolveSpec::hw`].
    pub fn hw(&mut self, h: &Hypergraph) -> (usize, Ghd) {
        self.try_hw(h).expect("no width up to |E(H)| admits an HD")
    }

    /// [`DecompCache::hw`] without the panicking path: `None` when no
    /// width up to `|E(H)|` admits an HD (degenerate inputs), which
    /// long-lived callers map to an error response.
    ///
    /// Deprecated wrapper — prefer [`DecompCache::solve`] with
    /// [`SolveSpec::hw`] (there the degenerate `None` surfaces as an
    /// internal [`DecompError`]).
    pub fn try_hw(&mut self, h: &Hypergraph) -> Option<(usize, Ghd)> {
        match self.hw_exact(h, &Budget::unlimited(), true) {
            Ok(r) => r,
            Err(_) => unreachable!("unlimited budgets never abort the hw sweep"),
        }
    }

    /// The exact-`hw` solver behind [`DecompCache::solve`]: reduce-aware
    /// with the no-peel (HD-safe) pipeline unless `reduce` is off (or
    /// the cache-wide `no_reduce` toggle is set); same warm abort
    /// guarantees as the `shw` sweep. `Ok(None)` when no width up to
    /// `|E(H)|` admits an HD.
    fn hw_exact(
        &mut self,
        h: &Hypergraph,
        budget: &Budget,
        reduce: bool,
    ) -> Result<Option<(usize, Ghd)>, DecompError> {
        if self.no_reduce || !reduce {
            return self.try_hw_raw_budgeted(h, budget);
        }
        let red = self.reduction_no_peel(h);
        if red.is_trivial() {
            return self.try_hw_raw_budgeted(h, budget);
        }
        let mut width = 1usize;
        let mut ghds = Vec::with_capacity(red.pieces.len());
        for piece in &red.pieces {
            budget.check()?;
            match self.try_hw_raw_budgeted(&piece.h, budget)? {
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

    /// [`DecompCache::try_hw`] with a cooperative [`Budget`]; same warm
    /// abort guarantees as [`DecompCache::try_shw_budgeted`].
    ///
    /// Deprecated wrapper — prefer [`DecompCache::solve`] with
    /// [`SolveSpec::hw`] + [`SolveSpec::with_budget`].
    pub fn try_hw_budgeted(
        &mut self,
        h: &Hypergraph,
        budget: &Budget,
    ) -> Result<Option<(usize, Ghd)>, DecompError> {
        self.hw_exact(h, budget, true)
    }

    /// The raw (no-reduction) cached budgeted `hw` sweep. The per-width
    /// decisions route through [`DecompCache::hw_decision`].
    fn try_hw_raw_budgeted(
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

    /// Imports a persisted `shw(h) ≤ k` decision (the warm-start path of
    /// the disk-backed decomposition store). A witness is **re-validated
    /// before it is trusted**: it must be a valid tree decomposition of
    /// `h` in component normal form, exactly what the solver's own
    /// witnesses satisfy. Returns `false` — importing nothing — on a
    /// witness that fails validation or when a decision for `(h, k)` is
    /// already cached (imports never clobber live state). Negative
    /// decisions carry no witness to check and are accepted as-is; the
    /// store's record checksums are their integrity guard.
    pub fn import_shw_leq(
        &mut self,
        h: &Hypergraph,
        k: usize,
        witness: Option<TreeDecomposition>,
    ) -> bool {
        if let Some(td) = &witness {
            if td.validate(h).is_err() || !td.is_comp_nf(h) {
                return false;
            }
        }
        let (hash, _) = self.indexes.entry(h);
        if self.shw_results.contains_key(&(hash, k)) {
            return false;
        }
        self.shw_results.insert((hash, k), witness);
        self.touch(hash);
        true
    }

    /// Imports a persisted `hw(h) ≤ k` decision. A witness tree is
    /// re-validated and completed into a GHD by searching width-`k`
    /// covers ([`Ghd::from_td`]); a tree admitting no such covers is
    /// rejected. Same no-clobber rule as
    /// [`DecompCache::import_shw_leq`].
    pub fn import_hw_leq(
        &mut self,
        h: &Hypergraph,
        k: usize,
        witness: Option<TreeDecomposition>,
    ) -> bool {
        let ghd = match witness {
            Some(td) => {
                if td.validate(h).is_err() {
                    return false;
                }
                match Ghd::from_td(h, td, k) {
                    Some(g) => Some(g),
                    None => return false,
                }
            }
            None => None,
        };
        let (hash, _) = self.indexes.entry(h);
        if self.hw_results.contains_key(&(hash, k)) {
            return false;
        }
        self.hw_results.insert((hash, k), ghd);
        self.touch(hash);
        true
    }

    /// Imports a persisted *exact* `shw(h) = width` answer in one shot:
    /// the witness at `width` plus the negative decisions the solver's
    /// sweep implies for every smaller width — computing the structural
    /// hash once instead of once per width. Same validation and
    /// no-clobber rules as [`DecompCache::import_shw_leq`].
    pub fn import_shw_exact(
        &mut self,
        h: &Hypergraph,
        width: usize,
        td: TreeDecomposition,
    ) -> bool {
        if td.validate(h).is_err() || !td.is_comp_nf(h) {
            return false;
        }
        let (hash, _) = self.indexes.entry(h);
        for k in 1..width {
            self.shw_results.entry((hash, k)).or_insert(None);
        }
        self.shw_results.entry((hash, width)).or_insert(Some(td));
        self.touch(hash);
        true
    }

    /// Imports a persisted exact `hw(h) = width` answer (witness plus
    /// implied negatives below it), one hash computation total. Same
    /// validation as [`DecompCache::import_hw_leq`].
    pub fn import_hw_exact(&mut self, h: &Hypergraph, width: usize, td: TreeDecomposition) -> bool {
        if td.validate(h).is_err() {
            return false;
        }
        let Some(ghd) = Ghd::from_td(h, td, width) else {
            return false;
        };
        let (hash, _) = self.indexes.entry(h);
        for k in 1..width {
            self.hw_results.entry((hash, k)).or_insert(None);
        }
        self.hw_results.entry((hash, width)).or_insert(Some(ghd));
        self.touch(hash);
        true
    }

    /// Exports every cached `shw ≤ k` decision for `h` (width-sorted),
    /// witnesses cloned — the persistence snapshot of this hypergraph's
    /// decision state, mirrored by [`DecompCache::import_shw_leq`].
    pub fn export_shw_decisions(
        &mut self,
        h: &Hypergraph,
    ) -> Vec<(usize, Option<TreeDecomposition>)> {
        let (hash, _) = self.indexes.entry(h);
        let mut out: Vec<(usize, Option<TreeDecomposition>)> = self
            .shw_results
            .iter()
            .filter(|((h2, _), _)| *h2 == hash)
            .map(|((_, k), v)| (*k, v.clone()))
            .collect();
        out.sort_by_key(|(k, _)| *k);
        out
    }

    /// Exports every cached `hw ≤ k` decision for `h` (width-sorted),
    /// the underlying trees cloned — importable via
    /// [`DecompCache::import_hw_leq`], which rebuilds the covers.
    pub fn export_hw_decisions(
        &mut self,
        h: &Hypergraph,
    ) -> Vec<(usize, Option<TreeDecomposition>)> {
        let (hash, _) = self.indexes.entry(h);
        let mut out: Vec<(usize, Option<TreeDecomposition>)> = self
            .hw_results
            .iter()
            .filter(|((h2, _), _)| *h2 == hash)
            .map(|((_, k), v)| (*k, v.as_ref().map(|g| g.td.clone())))
            .collect();
        out.sort_by_key(|(k, _)| *k);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shw;
    use crate::soft::soft_bags;
    use softhw_hypergraph::named;

    #[test]
    fn cached_candidate_td_equals_cold_runs() {
        let mut cache = DecompCache::new();
        for (h, k) in [
            (named::h2(), 1),
            (named::h2(), 2),
            (named::cycle(6), 2),
            (named::grid(3, 3), 2),
        ] {
            let bags = soft_bags(&h, k);
            let cold = crate::ctd::candidate_td(&h, &bags);
            let warm1 = cache.candidate_td(&h, &bags);
            let warm2 = cache.candidate_td(&h, &bags);
            assert_eq!(cold.is_some(), warm1.is_some(), "k = {k}");
            match (&cold, &warm1, &warm2) {
                (Some(c), Some(w1), Some(w2)) => {
                    // Same decomposition, node for node.
                    assert_eq!(c.bags(), w1.bags(), "k = {k}");
                    assert_eq!(w1.bags(), w2.bags(), "k = {k}");
                }
                (None, None, None) => {}
                _ => panic!("cold/warm disagree at k = {k}"),
            }
        }
        let s = cache.stats();
        assert!(s.instance_hits >= 4, "repeat calls must hit: {s:?}");
    }

    #[test]
    fn cached_shw_and_hw_equal_cold_runs() {
        let mut cache = DecompCache::new();
        for h in [named::h2(), named::cycle(8), named::triangle_star(3)] {
            let (cold_w, cold_td) = shw::shw(&h);
            let (warm_w, warm_td) = cache.shw(&h);
            assert_eq!(cold_w, warm_w);
            assert_eq!(cold_td.bags(), warm_td.bags());
            // Second query over the same structure: pure memo hits.
            let before = cache.stats().result_misses;
            let (again_w, again_td) = cache.shw(&h);
            assert_eq!(again_w, warm_w);
            assert_eq!(again_td.bags(), warm_td.bags());
            assert_eq!(cache.stats().result_misses, before, "sweep must be cached");

            let (cold_hw, _) = hw::hw(&h);
            let (warm_hw, warm_ghd) = cache.hw(&h);
            assert_eq!(cold_hw, warm_hw);
            assert!(warm_ghd.is_hd(&h));
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
            widths.push(cache.shw(h).0);
        }
        // Four distinct structures through a bound of two: the cache must
        // stay within bound and must have evicted.
        assert!(cache.tracked_graphs() <= 2, "{}", cache.tracked_graphs());
        assert!(cache.stats().evictions >= 2, "{:?}", cache.stats());
        // Evicted structures recompute cold with identical results.
        for (h, w) in graphs.iter().zip(&widths) {
            let (again, td) = cache.shw(h);
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
                    let (w, td) = cache.shw(h);
                    let (cold_w, cold_td) = shw::shw(h);
                    assert_eq!(w, cold_w, "cap {cap} round {round}");
                    assert_eq!(td.bags(), cold_td.bags(), "cap {cap} round {round}");
                    // Mix in instance-level and hw traffic on the same
                    // storm so all three artefact kinds churn together.
                    let bags = soft_bags(h, w);
                    assert_eq!(
                        cache.candidate_td(h, &bags).map(|t| t.bags().to_vec()),
                        crate::ctd::candidate_td(h, &bags).map(|t| t.bags().to_vec()),
                        "cap {cap} round {round}"
                    );
                    let (hw_w, ghd) = cache.hw(h);
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
    fn pinned_schemas_survive_eviction_storms_warm() {
        // Capacity 2, one pinned hot schema, three cold schemas cycling
        // through the remaining slot: a worst-case eviction storm. The
        // pinned schema's decisions must stay warm throughout — every
        // repeat query over it is a pure memo hit — while the cold
        // schemas evict each other freely.
        let mut cache = DecompCache::with_capacity(2);
        let hot = named::h2();
        let (hot_w, hot_td) = cache.shw(&hot);
        let hot_hash = softhw_hypergraph::cache::structural_hash(&hot);
        cache.pin(hot_hash);
        assert!(cache.is_pinned(hot_hash));
        let cold = [named::cycle(5), named::cycle(6), named::grid(3, 3)];
        for round in 0..3 {
            for h in &cold {
                let (w, td) = cache.shw(h);
                let (cw, ctd) = shw::shw(h);
                assert_eq!((w, td.bags()), (cw, ctd.bags()), "round {round}");
                // The hot schema answers from memo despite the churn.
                let misses_before = cache.stats().result_misses;
                let (w2, td2) = cache.shw(&hot);
                assert_eq!((w2, td2.bags()), (hot_w, hot_td.bags()));
                assert_eq!(
                    cache.stats().result_misses,
                    misses_before,
                    "pinned schema fell cold in round {round}"
                );
            }
        }
        assert!(cache.stats().evictions >= 6, "{:?}", cache.stats());
        assert!(cache.tracked_graphs() <= 2);
        // Unpinning makes it evictable again: two fresh schemas push it
        // out, and the next query over it is a (correct) cold rebuild.
        assert!(cache.unpin(hot_hash));
        cache.shw(&cold[0]);
        cache.shw(&cold[1]);
        let misses_before = cache.stats().result_misses;
        let (w3, td3) = cache.shw(&hot);
        assert_eq!((w3, td3.bags()), (hot_w, hot_td.bags()));
        assert!(cache.stats().result_misses > misses_before);
    }

    #[test]
    fn pinning_more_than_capacity_overshoots_without_evicting_pins() {
        let mut cache = DecompCache::with_capacity(1);
        let graphs = [named::h2(), named::cycle(5), named::cycle(6)];
        for h in &graphs {
            cache.shw(h);
            cache.pin(softhw_hypergraph::cache::structural_hash(h));
        }
        // All three pinned through a bound of one: nothing evicts.
        assert_eq!(cache.stats().evictions, 0);
        assert_eq!(cache.tracked_graphs(), 3);
        assert_eq!(cache.pinned_count(), 3);
    }

    #[test]
    fn imported_decisions_serve_and_validate() {
        let h = named::h2();
        let (w, td) = shw::shw(&h);
        let (hw_w, ghd) = hw::hw(&h);

        let mut cache = DecompCache::new();
        assert!(cache.import_shw_leq(&h, w, Some(td.clone())));
        for k in 1..w {
            assert!(cache.import_shw_leq(&h, k, None));
        }
        assert!(cache.import_hw_leq(&h, hw_w, Some(ghd.td.clone())));
        // Imports are visible through the ordinary entry points without
        // any solver work (pure result hits).
        let (warm_w, warm_td) = cache.try_shw(&h).unwrap();
        assert_eq!((warm_w, warm_td.bags()), (w, td.bags()));
        assert_eq!(cache.stats().result_misses, 0, "{:?}", cache.stats());
        assert!(cache.hw_leq(&h, hw_w).is_some());
        // Export mirrors what was imported.
        let exported = cache.export_shw_decisions(&h);
        assert_eq!(exported.len(), w);
        assert_eq!(exported[w - 1].0, w);
        assert!(exported[w - 1].1.is_some());
        assert_eq!(cache.export_hw_decisions(&h).len(), 1);

        // Invalid witnesses are rejected, not trusted: a bag set from a
        // different hypergraph fails validation.
        let mut cache = DecompCache::new();
        let other = shw::shw(&named::cycle(4)).1;
        assert!(!cache.import_shw_leq(&h, w, Some(other.clone())));
        assert!(!cache.import_hw_leq(&h, hw_w, Some(other)));
        assert!(cache.export_shw_decisions(&h).is_empty());
        // And imports never clobber live state.
        let (w1, _) = cache.try_shw(&h).unwrap();
        assert_eq!(w1, w);
        assert!(!cache.import_shw_leq(&h, w, Some(td.clone())));

        // The one-shot exact imports (witness + implied negatives in a
        // single hash pass) fill the same state the per-width imports
        // do, and reject invalid witnesses the same way.
        let mut exact = DecompCache::new();
        assert!(exact.import_shw_exact(&h, w, td.clone()));
        assert!(exact.import_hw_exact(&h, hw_w, ghd.td.clone()));
        let (we, tde) = exact.try_shw(&h).unwrap();
        assert_eq!((we, tde.bags()), (w, td.bags()));
        assert_eq!(exact.stats().result_misses, 0, "{:?}", exact.stats());
        assert!(exact.hw_leq(&h, hw_w).is_some());
        if hw_w > 1 {
            assert!(exact.hw_leq(&h, hw_w - 1).is_none(), "implied negative");
        }
        assert!(!exact.import_shw_exact(&h, w, shw::shw(&named::cycle(4)).1));
    }

    #[test]
    fn try_shw_reports_limits_as_errors() {
        let mut cache = DecompCache::with_capacity(2);
        let h = named::grid(3, 3);
        let tight = SoftLimits {
            max_lambda_sets: 4,
            max_bags: 4,
        };
        match cache.try_shw_with(&h, &tight) {
            Err(DecompError::Limit(_)) | Err(DecompError::Shards(_)) => {}
            other => panic!("expected a limit error, got {other:?}"),
        }
        // The same cache still answers correctly under sane limits.
        let (w, td) = cache.try_shw(&h).expect("default limits suffice");
        assert_eq!((w, td.bags().to_vec()), {
            let (cw, ctd) = shw::shw(&h);
            (cw, ctd.bags().to_vec())
        });
    }

    #[test]
    fn repeated_queries_never_evict_below_bound() {
        let mut cache = DecompCache::with_capacity(4);
        for _ in 0..10 {
            cache.shw(&named::h2());
            cache.candidate_td(&named::h2(), &soft_bags(&named::h2(), 2));
            cache.hw(&named::cycle(5));
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
            softhw_hypergraph::cache::structural_hash(&red.pieces[0].h),
            softhw_hypergraph::cache::structural_hash(&prereduced),
            "deterministic piece rebuild must match a pre-reduced submission"
        );

        let mut cache = DecompCache::new();
        let (w_raw, td_raw) = cache.shw(&raw);
        assert_eq!(w_raw, 2);
        assert_eq!(td_raw.validate(&raw), Ok(()));
        let misses_before = cache.stats().result_misses;
        let instance_misses_before = cache.stats().instance_misses;
        let (w_pre, td_pre) = cache.shw(&prereduced);
        assert_eq!(w_pre, 2);
        assert_eq!(td_pre.validate(&prereduced), Ok(()));
        let s = cache.stats();
        assert_eq!(
            (s.result_misses, s.instance_misses),
            (misses_before, instance_misses_before),
            "pre-reduced submission must be answered from the raw schema's piece entries"
        );
        // And the other direction: a fresh cache primed with the
        // pre-reduced schema answers the raw schema's piece solves from
        // cache (only the lift is new work).
        let mut cache = DecompCache::new();
        cache.shw(&prereduced);
        let misses_before = cache.stats().result_misses;
        let (w, td) = cache.shw(&raw);
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
        let mut cache = DecompCache::new();
        cache.set_no_reduce(true);
        assert!(cache.no_reduce());
        let (w, td) = cache.shw(&h);
        assert_eq!(td.validate(&h), Ok(()));
        let (w_hw, g) = cache.hw(&h);
        assert!(g.is_hd(&h));
        // Same widths as the reduce-aware path on a fresh cache.
        let mut reduced = DecompCache::new();
        assert_eq!(reduced.shw(&h).0, w);
        assert_eq!(reduced.hw(&h).0, w_hw);
    }

    #[test]
    fn solve_matches_the_legacy_entry_points() {
        // One spec-driven pass and one legacy-wrapper pass over the same
        // workload must agree decomposition-for-decomposition — the
        // wrappers are thin shims over `solve`, and both must equal the
        // cold solvers.
        for h in [named::h2(), named::cycle(6), named::triangle_star(3)] {
            let mut via_spec = DecompCache::new();
            let mut via_legacy = DecompCache::new();
            let (sw, std_) = match via_spec.solve(&h, &SolveSpec::shw()).unwrap() {
                Solved::ShwWidth(w, td) => (w, td),
                other => panic!("expected ShwWidth, got {other:?}"),
            };
            let (lw, ltd) = via_legacy.try_shw(&h).unwrap();
            assert_eq!((sw, std_.bags()), (lw, ltd.bags()));
            for k in 1..=sw {
                let spec_dec = via_spec.solve(&h, &SolveSpec::shw_leq(k)).unwrap();
                let legacy_dec = via_legacy.shw_leq(&h, k, &SoftLimits::default()).unwrap();
                assert_eq!(spec_dec.accepted(), Some(legacy_dec.is_some()), "k = {k}");
            }
            let (hw_w, hw_g) = match via_spec.solve(&h, &SolveSpec::hw()).unwrap() {
                Solved::HwWidth(w, g) => (w, g),
                other => panic!("expected HwWidth, got {other:?}"),
            };
            let (lhw, _) = via_legacy.try_hw(&h).unwrap();
            assert_eq!(hw_w, lhw);
            assert!(hw_g.is_hd(&h));
            assert_eq!(
                via_spec
                    .solve(&h, &SolveSpec::hw_leq(hw_w))
                    .unwrap()
                    .accepted(),
                Some(true)
            );
            // A budgeted spec with room to finish answers identically.
            let budgeted = SolveSpec::shw().with_budget(Budget::with_work_cap(u64::MAX));
            let mut fresh = DecompCache::new();
            match fresh.solve(&h, &budgeted).unwrap() {
                Solved::ShwWidth(w, td) => assert_eq!((w, td.bags()), (sw, std_.bags())),
                other => panic!("expected ShwWidth, got {other:?}"),
            }
            // The raw (reduce-off) spec answers the same width.
            let mut raw = DecompCache::new();
            assert_eq!(
                raw.solve(&h, &SolveSpec::shw().with_reduce(false))
                    .unwrap()
                    .width(),
                Some(sw)
            );
        }
    }

    #[test]
    fn distinct_bag_sets_get_distinct_instances() {
        let mut cache = DecompCache::new();
        let h = named::h2();
        let b1 = soft_bags(&h, 1);
        let b2 = soft_bags(&h, 2);
        assert!(cache.candidate_td(&h, &b1).is_none());
        assert!(cache.candidate_td(&h, &b2).is_some());
        assert_eq!(cache.stats().instance_misses, 2);
        assert!(cache.candidate_td(&h, &b2).is_some());
        assert_eq!(cache.stats().instance_hits, 1);
    }
}
