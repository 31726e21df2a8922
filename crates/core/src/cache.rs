//! Cross-query decomposition cache: solver-level memoisation on top of
//! the structural-hash [`IndexCache`] of `softhw-hypergraph`.
//!
//! Repeated workloads (the `shw` width sweep per query, `table1`-style
//! harness runs, a service answering many queries over one schema)
//! re-decompose structurally identical hypergraphs. [`DecompCache`] keeps,
//! per structurally distinct hypergraph:
//!
//! - one warm [`BlockIndex`](softhw_hypergraph::BlockIndex) (arena +
//!   `[S]`-components + blocks + unions), shared across widths `k` and
//!   across queries;
//! - `shw ≤ k` / `hw ≤ k` decisions with witness decompositions, so width
//!   sweeps over repeated queries skip generation and search entirely;
//! - the width-preserving reductions the exact sweeps solve through.
//!
//! An exact width is a sweep over those decisions: `k = 1, 2, …` until
//! the first accept, each width a memo probe or one Algorithm 1 run
//! against the warm index. A memoised decision is therefore a function
//! of `(h, k)` alone — exact and bounded specs fill and read the same
//! entries, in either order.
//!
//! The structural hash ignores the order edges are listed in, so
//! whatever is kept per hash and names edges — the `λ`-labels of `hw`
//! witnesses, the edge ids of a cached reduction — is held in *canonical
//! edge positions* ([`canonical_edge_order`]) and translated through the
//! caller's own edge order on the way in and out: a hit always answers
//! in the numbering of the hypergraph that was passed in.
//!
//! The solving surface is three methods. [`DecompCache::solve`] consumes
//! a [`crate::spec::SolveSpec`] and is the one front door over every
//! (class × exactness × budget × reduction) corner; it returns exactly
//! what the cold solvers return (they are deterministic — the unit tests
//! assert this decomposition-for-decomposition).
//! [`DecompCache::import`] / [`DecompCache::export`] move decisions in
//! and out for persistence: an import re-validates its witness before it
//! is trusted and never clobbers a live entry. Algorithm 2 callers, whose
//! answers are not width decisions, borrow the warm index through
//! [`DecompCache::soft_instance`] — the same prepared instance a
//! decision miss builds — and keep nothing here.
//!
//! The cache is **bounded**: it tracks at most
//! [`DecompCache::max_graphs`] structurally distinct hypergraphs and
//! evicts the least-recently-used one (warm index, width decisions and
//! reductions together) when a new structure would exceed the bound.
//! Eviction only costs recomputation — an evicted structure rebuilds
//! cold on its next query, with identical results.

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
use softhw_hypergraph::{FxHashMap, FxHashSet, Hypergraph, Reduction};
use std::collections::hash_map::Entry;
use std::sync::Arc;

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
    /// Cached full-pipeline reduction per hypergraph (shared so the
    /// service reports reduction stats without recomputing).
    reductions: FxHashMap<u64, Arc<Reduction>>,
    /// Cached no-peel reduction per hypergraph (the HD-safe variant the
    /// `hw` path uses), with the canonical position of each edge id of
    /// the hypergraph it was computed on.
    reductions_no_peel: FxHashMap<u64, (Arc<Reduction>, Vec<usize>)>,
    /// hash → last-use tick, the LRU clock.
    last_used: FxHashMap<u64, u64>,
    /// Hashes exempt from LRU eviction (hot-schema pinning): a pinned
    /// hypergraph's warm state survives any eviction storm.
    pinned: FxHashSet<u64>,
    /// Σ [`decision_bytes`] over both decision memos plus the cached
    /// reductions: the part of [`DecompCache::approx_bytes`] this type
    /// adds to and subtracts from as entries come and go.
    memo_bytes: u64,
    tick: u64,
    max_graphs: usize,
    stats: DecompCacheStats,
}

impl Default for DecompCache {
    fn default() -> Self {
        DecompCache::with_capacity(DEFAULT_MAX_GRAPHS)
    }
}

/// A memoised witness, as far as byte accounting cares.
trait Witness {
    fn heap_bytes(&self) -> u64;
}

impl Witness for TreeDecomposition {
    fn heap_bytes(&self) -> u64 {
        self.approx_bytes()
    }
}

impl Witness for Ghd {
    fn heap_bytes(&self) -> u64 {
        self.approx_bytes()
    }
}

/// What one memoised decision counts for in
/// [`DecompCache::approx_bytes`]: its witness plus a flat 32 for the
/// table slot.
fn decision_bytes<W: Witness>(decision: &Option<W>) -> u64 {
    decision.as_ref().map_or(0, W::heap_bytes) + 32
}

/// What a cached no-peel reduction counts for: the reduction plus its
/// canonical edge positions.
fn no_peel_bytes((red, positions): &(Arc<Reduction>, Vec<usize>)) -> u64 {
    red.approx_bytes() + (positions.capacity() * 8) as u64
}

/// Memoises `decision` under `key`, which holds none yet, charging it
/// to `bytes`.
fn memoise<W: Witness>(
    results: &mut Decisions<W>,
    bytes: &mut u64,
    key: (u64, usize),
    decision: Option<W>,
) {
    *bytes += decision_bytes(&decision);
    let replaced = results.insert(key, decision);
    debug_assert!(replaced.is_none(), "a decision is memoised once");
}

/// Drops every decision memoised for `hash`; returns the bytes they
/// were charged at.
fn forget<W: Witness>(results: &mut Decisions<W>, hash: u64) -> u64 {
    let mut freed = 0;
    results.retain(|&(h2, _), decision| {
        if h2 == hash {
            freed += decision_bytes(decision);
        }
        h2 != hash
    });
    freed
}

/// Stores `witness` at width `k` — and, for an `exact` answer, the
/// rejections the sweep implies at every smaller width — wherever no
/// decision is cached yet, charging what it stores to `bytes`. Returns
/// whether anything was stored.
fn store_absent<W: Witness>(
    results: &mut Decisions<W>,
    bytes: &mut u64,
    hash: u64,
    exact: bool,
    k: usize,
    witness: Option<W>,
) -> bool {
    let mut stored = false;
    let mut put = |width: usize, decision: Option<W>| {
        if !results.contains_key(&(hash, width)) {
            memoise(results, bytes, (hash, width), decision);
            stored = true;
        }
    };
    if exact {
        for below in 1..k {
            put(below, None);
        }
    }
    put(k, witness);
    stored
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
            reductions: FxHashMap::default(),
            reductions_no_peel: FxHashMap::default(),
            last_used: FxHashMap::default(),
            pinned: FxHashSet::default(),
            memo_bytes: 0,
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
    /// retains: warm indexes, width-decision witnesses, and reductions.
    /// Divide by [`DecompCache::tracked_graphs`] for the
    /// `bytes_per_cached_schema` memory stat the service reports.
    ///
    /// O(1): nothing cached is walked. Memoised decisions and reductions
    /// are immutable once stored, so they are added to a running total
    /// where they are inserted and subtracted where eviction drops them; a
    /// warm index grows in place, so every entry point re-measures the one
    /// index it used before it returns ([`IndexCache::remeasure`] — a sum
    /// of that index's buffer capacities, whatever else is cached).
    pub fn approx_bytes(&self) -> u64 {
        self.indexes.approx_bytes() + self.memo_bytes + self.book_bytes()
    }

    /// LRU clock + pin set, at one (key, value) pair each.
    fn book_bytes(&self) -> u64 {
        ((self.last_used.len() + self.pinned.len()) * 24) as u64
    }

    /// [`DecompCache::approx_bytes`] recomputed from scratch by walking
    /// every index, decision and reduction: the oracle the running total
    /// is tested against.
    #[cfg(test)]
    fn approx_bytes_walk(&self) -> u64 {
        let shw: u64 = self.shw_results.values().map(decision_bytes).sum();
        let hw: u64 = self.hw_results.values().map(decision_bytes).sum();
        let reds: u64 = self
            .reductions
            .values()
            .map(|r| r.approx_bytes())
            .chain(self.reductions_no_peel.values().map(no_peel_bytes))
            .sum();
        self.indexes.approx_bytes_walk() + shw + hw + reds + self.book_bytes()
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

    /// The full-pipeline reduction of `h`, cached per structural hash
    /// (available whether or not any spec reduces, so the service can
    /// always report what the pipeline *would* do).
    pub fn reduction(&mut self, h: &Hypergraph) -> Arc<Reduction> {
        let hash = self.track(h);
        if let Some(r) = self.reductions.get(&hash) {
            return Arc::clone(r);
        }
        let r = Arc::new(softhw_hypergraph::reduce(h));
        self.memo_bytes += r.approx_bytes();
        self.reductions.insert(hash, Arc::clone(&r));
        r
    }

    /// The no-peel (HD-safe) reduction of `h`'s structure, cached per
    /// structural hash, plus the map from the reduction's edge ids to
    /// `h`'s — the identity unless the entry was computed on the same
    /// edges listed in another order. Used by the `hw` path.
    fn reduction_no_peel(&mut self, h: &Hypergraph) -> (Arc<Reduction>, Vec<usize>) {
        let hash = self.track(h);
        let order = canonical_edge_order(h);
        let (red, positions) = match self.reductions_no_peel.entry(hash) {
            Entry::Occupied(cached) => cached.into_mut(),
            Entry::Vacant(slot) => {
                let red = Arc::new(softhw_hypergraph::reduce_no_peel(h));
                let fresh = (red, positions_of(&order));
                self.memo_bytes += no_peel_bytes(&fresh);
                slot.insert(fresh)
            }
        };
        let to_caller = positions.iter().map(|&pos| order[pos]).collect();
        (Arc::clone(red), to_caller)
    }

    /// Probes (building on first sight) `h`'s warm index and marks it
    /// just used; returns its structural hash.
    fn track(&mut self, h: &Hypergraph) -> u64 {
        let (hash, _) = self.indexes.entry(h);
        self.touch(hash);
        hash
    }

    /// Marks `hash` as just used, re-measures its warm index, and evicts
    /// the least-recently-used *other* hypergraph if the bound is now
    /// exceeded. Every entry point calls it once it is done with the
    /// index it probed — on the error path too, so an index a budget
    /// trip leaves behind is tracked (and evictable) and its growth is
    /// counted. Never evicts `hash` itself or a pinned hash, and never
    /// panics: if no evictable entry exists (every other entry is
    /// pinned, or the LRU clock is inconsistent), it stops evicting — an
    /// over-full cache is a bounded memory overshoot, not a reason to
    /// kill the process.
    fn touch(&mut self, hash: u64) {
        self.tick += 1;
        self.last_used.insert(hash, self.tick);
        self.indexes.remeasure(hash);
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
    /// width decisions, and reductions.
    fn evict(&mut self, victim: u64) {
        self.indexes.remove(victim);
        let mut freed =
            forget(&mut self.shw_results, victim) + forget(&mut self.hw_results, victim);
        if let Some(red) = self.reductions.remove(&victim) {
            freed += red.approx_bytes();
        }
        if let Some(no_peel) = self.reductions_no_peel.remove(&victim) {
            freed += no_peel_bytes(&no_peel);
        }
        self.memo_bytes -= freed;
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
        memoise(
            &mut self.shw_results,
            &mut self.memo_bytes,
            (hash, k),
            result.clone(),
        );
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
        let red = self.reduction(h);
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
    /// witness); a budget abort memoises nothing and evicts nothing of
    /// `h`'s.
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
            return Ok(cached.map(|g| relabel(g, &canonical_edge_order(h))));
        }
        self.stats.result_misses += 1;
        let result = hw::hw_leq_budgeted(h, k, budget);
        self.touch(hash);
        let result = result?;
        let canonical = result
            .clone()
            .map(|g| relabel(g, &positions_of(&canonical_edge_order(h))));
        memoise(
            &mut self.hw_results,
            &mut self.memo_bytes,
            (hash, k),
            canonical,
        );
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
        let (red, to_caller) = self.reduction_no_peel(h);
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
        let g = relabel(lift_ghd(h, &red, &ghds), &to_caller);
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

    /// Imports a persisted `class ≤ k` decision (the warm-start path of
    /// the disk-backed decomposition store), or with `exact` a persisted
    /// exact width `k`: its witness plus the rejections the solver's
    /// sweep implies at every smaller width, in one hash pass.
    ///
    /// A witness is **re-validated before it is trusted**: it must be a
    /// valid tree decomposition of `h` — for `shw` in component normal
    /// form, exactly what the solver's own witnesses satisfy; for `hw`
    /// completed into a GHD by searching width-`k` covers
    /// ([`Ghd::from_td`]). Negative decisions carry no witness to check
    /// and are accepted as-is; the store's record checksums are their
    /// integrity guard. Imports never clobber live state: a width that
    /// already has a decision keeps it. Returns whether anything was
    /// stored — `false` on a witness that fails validation, an `exact`
    /// import without a witness, or when every implied width was already
    /// decided.
    pub fn import(
        &mut self,
        h: &Hypergraph,
        class: SolveClass,
        exact: bool,
        k: usize,
        witness: Option<TreeDecomposition>,
    ) -> bool {
        if exact && witness.is_none() {
            return false;
        }
        if witness.as_ref().is_some_and(|td| td.validate(h).is_err()) {
            return false;
        }
        match class {
            SolveClass::Shw => {
                if witness.as_ref().is_some_and(|td| !td.is_comp_nf(h)) {
                    return false;
                }
                let hash = self.track(h);
                let bytes = &mut self.memo_bytes;
                store_absent(&mut self.shw_results, bytes, hash, exact, k, witness)
            }
            SolveClass::Hw => {
                let covered = witness.map(|td| Ghd::from_td(h, td, k).ok_or(()));
                let Ok(ghd) = covered.transpose() else {
                    return false; // no width-k covers for some bag
                };
                let ghd = ghd.map(|g| relabel(g, &positions_of(&canonical_edge_order(h))));
                let hash = self.track(h);
                let bytes = &mut self.memo_bytes;
                store_absent(&mut self.hw_results, bytes, hash, exact, k, ghd)
            }
        }
    }

    /// Exports every cached `class ≤ k` decision for `h` (width-sorted),
    /// witness trees cloned — the persistence snapshot of this
    /// hypergraph's decision state, mirrored by [`DecompCache::import`]
    /// (which rebuilds the covers of `hw` witnesses).
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
    fn pinned_schemas_survive_eviction_storms_warm() {
        // Capacity 2, one pinned hot schema, three cold schemas cycling
        // through the remaining slot: a worst-case eviction storm. The
        // pinned schema's decisions must stay warm throughout — every
        // repeat query over it is a pure memo hit — while the cold
        // schemas evict each other freely.
        let mut cache = DecompCache::with_capacity(2);
        let hot = named::h2();
        let (hot_w, hot_td) = shw_of(&mut cache, &hot);
        let hot_hash = structural_hash(&hot);
        cache.pin(hot_hash);
        assert!(cache.is_pinned(hot_hash));
        let cold = [named::cycle(5), named::cycle(6), named::grid(3, 3)];
        for round in 0..3 {
            for h in &cold {
                let (w, td) = shw_of(&mut cache, h);
                let (cw, ctd) = shw::shw(h);
                assert_eq!((w, td.bags()), (cw, ctd.bags()), "round {round}");
                // The hot schema answers from memo despite the churn.
                let misses_before = cache.stats().result_misses;
                let (w2, td2) = shw_of(&mut cache, &hot);
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
        shw_of(&mut cache, &cold[0]);
        shw_of(&mut cache, &cold[1]);
        let misses_before = cache.stats().result_misses;
        let (w3, td3) = shw_of(&mut cache, &hot);
        assert_eq!((w3, td3.bags()), (hot_w, hot_td.bags()));
        assert!(cache.stats().result_misses > misses_before);
    }

    #[test]
    fn pinning_more_than_capacity_overshoots_without_evicting_pins() {
        let mut cache = DecompCache::with_capacity(1);
        let graphs = [named::h2(), named::cycle(5), named::cycle(6)];
        for h in &graphs {
            shw_of(&mut cache, h);
            cache.pin(structural_hash(h));
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
        assert!(cache.import(&h, SolveClass::Shw, false, w, Some(td.clone())));
        for k in 1..w {
            assert!(cache.import(&h, SolveClass::Shw, false, k, None));
        }
        assert!(cache.import(&h, SolveClass::Hw, false, hw_w, Some(ghd.td.clone())));
        // Imports are visible through the ordinary entry point without
        // any solver work (pure result hits).
        let (warm_w, warm_td) = shw_of(&mut cache, &h);
        assert_eq!((warm_w, warm_td.bags()), (w, td.bags()));
        assert!(accepts(&mut cache, &h, SolveSpec::hw_leq(hw_w)));
        assert_eq!(cache.stats().result_misses, 0, "{:?}", cache.stats());
        // Export mirrors what was imported.
        let exported = cache.export(&h, SolveClass::Shw);
        assert_eq!(exported.len(), w);
        assert_eq!(exported[w - 1].0, w);
        assert_eq!(
            exported[w - 1].1.as_ref().map(|t| t.bags()),
            Some(td.bags())
        );
        assert_eq!(cache.export(&h, SolveClass::Hw).len(), 1);

        // Invalid witnesses are rejected, not trusted: a bag set from a
        // different hypergraph fails validation.
        let mut cache = DecompCache::new();
        let other = shw::shw(&named::cycle(4)).1;
        assert!(!cache.import(&h, SolveClass::Shw, false, w, Some(other.clone())));
        assert!(!cache.import(&h, SolveClass::Hw, false, hw_w, Some(other)));
        assert!(cache.export(&h, SolveClass::Shw).is_empty());
        // And imports never clobber live state.
        assert_eq!(shw_of(&mut cache, &h).0, w);
        assert!(!cache.import(&h, SolveClass::Shw, false, w, Some(td)));
    }

    #[test]
    fn exact_import_equals_the_per_width_imports_it_implies() {
        let config = RandomConfig {
            num_vertices: 7,
            num_edges: 6,
            min_arity: 2,
            max_arity: 3,
            connect: true,
        };
        // Decision state as `export` sees it, witnesses by their bags.
        let state = |cache: &DecompCache, h: &Hypergraph, class| -> Vec<_> {
            let decisions = cache.export(h, class).into_iter();
            decisions
                .map(|(k, td)| (k, td.map(|t| t.bags().to_vec())))
                .collect()
        };
        for seed in 0..12 {
            let h = random_hypergraph(&config, seed);
            let other = shw::shw(&named::cycle(4)).1;
            for class in [SolveClass::Shw, SolveClass::Hw] {
                let (w, td) = match class {
                    SolveClass::Shw => shw::shw_raw(&h),
                    SolveClass::Hw => {
                        let (w, g) = hw::hw_raw(&h);
                        (w, g.td)
                    }
                };
                let mut exact = DecompCache::new();
                assert!(
                    exact.import(&h, class, true, w, Some(td.clone())),
                    "seed {seed}"
                );
                let mut per_width = DecompCache::new();
                for k in 1..w {
                    assert!(per_width.import(&h, class, false, k, None), "seed {seed}");
                }
                assert!(
                    per_width.import(&h, class, false, w, Some(td.clone())),
                    "seed {seed}"
                );
                assert_eq!(
                    state(&exact, &h, class),
                    state(&per_width, &h, class),
                    "seed {seed}"
                );
                assert_eq!(exact.export(&h, class).len(), w);
                // Both serve the raw sweep without any solver work.
                let spec = SolveSpec {
                    class,
                    ..SolveSpec::shw()
                }
                .with_reduce(false);
                for cache in [&mut exact, &mut per_width] {
                    let solved = cache.solve(&h, &spec).unwrap();
                    assert_eq!(solved.width(), Some(w), "seed {seed}");
                    assert_eq!(cache.stats().result_misses, 0, "seed {seed} {class:?}");
                }
                // A repeat stores nothing; neither does an invalid or a
                // missing witness, on a fresh cache or a live one.
                assert!(!exact.import(&h, class, true, w, Some(td.clone())));
                for cache in [&mut exact, &mut DecompCache::new()] {
                    let before = state(cache, &h, class);
                    assert!(!cache.import(&h, class, true, w, Some(other.clone())));
                    assert!(!cache.import(&h, class, true, w, None));
                    assert_eq!(state(cache, &h, class), before, "seed {seed}");
                }
                // Live entries are never clobbered: after a solve has
                // rejected `w - 1`, an exact import claiming that width
                // fills nothing in and the rejection stands.
                if w > 1 {
                    let mut live = DecompCache::new();
                    let below = SolveSpec {
                        bound: Some(w - 1),
                        ..spec.clone()
                    };
                    assert_eq!(live.solve(&h, &below).unwrap().accepted(), Some(false));
                    live.import(&h, class, true, w - 1, Some(td.clone()));
                    assert_eq!(live.solve(&h, &below).unwrap().accepted(), Some(false));
                }
            }
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
            // Imports translate the same way: a witness imported under
            // one order serves the other.
            let td = hw::hw_raw(&h1).1.td;
            let mut cache = DecompCache::new();
            assert!(cache.import(&h1, SolveClass::Hw, true, 2, Some(td)));
            let spec = SolveSpec::hw().with_reduce(false);
            let Solved::HwWidth(_, g) = cache.solve(&h2, &spec).unwrap() else {
                panic!("exact hw specs answer with a width");
            };
            assert_eq!(cache.stats().result_misses, 0);
            assert_eq!(g.validate(&h2), Ok(()));
        }
    }

    /// What the accounting oracle checks after every call: the running
    /// byte total equals the walk, every warm index belongs to a tracked
    /// hash, and nothing is memoised for an untracked one.
    fn assert_accounted(cache: &DecompCache, after: &str) {
        assert_eq!(cache.approx_bytes(), cache.approx_bytes_walk(), "{after}");
        assert_eq!(cache.tracked_graphs(), cache.indexes.len(), "{after}");
        let memo_hashes = (cache.shw_results.keys().map(|(hash, _)| hash))
            .chain(cache.hw_results.keys().map(|(hash, _)| hash))
            .chain(cache.reductions.keys())
            .chain(cache.reductions_no_peel.keys());
        for hash in memo_hashes {
            assert!(
                cache.last_used.contains_key(hash),
                "{after}: untracked memo"
            );
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        #[test]
        fn running_byte_total_equals_the_walk_after_every_call(
            (seed, capacity) in (0u64..10_000, 2usize..5),
            ops in proptest::collection::vec((0usize..8, 0usize..6, 1usize..4, 0u64..4, 1u64..400), 30..50),
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
                // Half the budgeted calls run under a work cap small
                // enough to trip mid-enumeration: the abort paths count.
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
                    4 => {
                        // What the store's warm start does: a cold answer
                        // imported, exact or as the one width asked for.
                        let (class, (w, td)) = if reduce {
                            (SolveClass::Shw, shw::shw_raw(h))
                        } else {
                            let (w, g) = hw::hw_raw(h);
                            (SolveClass::Hw, (w, g.td))
                        };
                        if flags & 2 == 2 {
                            cache.import(h, class, true, w, Some(td));
                        } else {
                            cache.import(h, class, false, k, (k >= w).then_some(td));
                        }
                    }
                    5 => {
                        let inst = cache.soft_instance(h, k, &SoftLimits::default(), &budget);
                        trips += usize::from(inst.is_err());
                    }
                    6 => {
                        let hash = structural_hash(h);
                        if !cache.unpin(hash) {
                            cache.pin(hash);
                        }
                    }
                    _ => drop(cache.reduction(h)),
                }
                assert_accounted(&cache, &format!("step {step}, op {op} on schema {schema}"));
            }
            prop_assert!(cache.stats().evictions > 0, "capacity {} never evicted", capacity);
            prop_assert!(trips > 0, "no call tripped its work cap");
        }
    }
}
