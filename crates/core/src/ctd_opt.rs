//! **Algorithm 2**: the `{C, ≤}`-CandidateTD problem (Section 6).
//!
//! The boolean "satisfied" bit of Algorithm 1 is generalised to a DP value
//! produced by a [`TdEvaluator`], which says two things about a node of a
//! partial tree decomposition. What it knows about the **bag by itself**
//! ([`TdEvaluator::local`]: does `ConCov` find a connected cover, is the
//! bag inside one edge for `ShallowCyc`, what does the node cost) — `None`
//! when the bag alone violates the constraint `C`. And how that **combines
//! with the children's summaries** ([`TdEvaluator::combine`]) — `None`
//! when the subtree violates `C`, otherwise a summary of the partial
//! decomposition. `better` is the strict part of the total quasiordering
//! (toptd) `≤`. The contract mirrors the paper's *preference-complete*
//! and *strongly monotone* assumptions: improving a child's summary never
//! worsens the parent's.
//!
//! The bag-local part is where the searches are (a `ConCov` verdict is a
//! connected-cover search), and it depends on nothing but the bag — the
//! paper's prototype applies `ConCov` as a filter over the candidate bags
//! (Table 1's `ConCov-Soft_{H,k}`). So every procedure here keeps it in a
//! table **by candidate-bag index** next to the instance's own tables and
//! computes it **at most once per candidate bag per run**, on first use;
//! the DP's inner loop over *(block, viable candidate)* pairs only
//! combines.
//!
//! Besides the polynomial best-decomposition DP ([`best`]), this module
//! provides what the paper's experimental prototype uses: exhaustive
//! enumeration of all constraint-satisfying CTDs ranked by preference
//! ([`enumerate_all`], with a cap), top-n extraction ([`top_n`]), and
//! random sampling ([`sample_random`]). All of them read a block's viable
//! candidates when they reach it (see [`crate::ctd`]). The DP and the
//! sampler read their tree with Algorithm 1's one extractor, which takes
//! the bag chosen per block: the DP's basis, or a random candidate whose
//! children are satisfied. Neither they nor the enumeration guard against
//! meeting a block twice: every child of a viable candidate is strictly
//! smaller in `(|C|, |S|)`, and the children of one candidate have
//! disjoint components, so no tree built top-down reaches a block twice.
//!
//! The preference DP is no second engine: it is one pass over the blocks
//! in Algorithm 1's dependency order, each settled once after its
//! children. Under a pure constraint (`Trivial`, `ConCov`:
//! [`TdEvaluator::ranks`] is `false`) a block's value never changes once
//! it has one, so the pass is Algorithm 1's own, asking the evaluator
//! about a block's candidates in (wave, bag) order until one passes
//! (`tests/best_shortcut_props.rs` pins that this changes no answer).
//! Under an evaluator that ranks, a block replays its waves: it is asked
//! in wave 0 and in the wave after each change of a child's value,
//! against its children's values as of the wave before, and keeps a
//! proposal only if it is strictly `better`. Those are the Jacobi rounds
//! of the DP, with the same bases: in a round after no child changed, a
//! block proposes what it proposed before, which is not strictly better
//! than what it holds.

use crate::budget::Budget;
use crate::ctd::{Basis, Candidates, CtdInstance, TdNode};
use crate::error::DecompError;
use crate::td::TreeDecomposition;
use rand::Rng;
use softhw_hypergraph::{BitSet, FxHashSet, Hypergraph};

/// Evaluation of partial tree decompositions: subtree constraint plus
/// total quasiordering, as in Section 6.1 of the paper.
///
/// The evaluator is called bottom-up: for a node whose children have
/// already been summarised, [`local`](TdEvaluator::local) judges the bag
/// on its own and [`combine`](TdEvaluator::combine) either rejects the
/// partial decomposition (constraint violated → `None`) or summarises
/// it. `local` must be a function of the bag alone — callers evaluate it
/// once per distinct bag and reuse the answer under every parent block
/// and in every wave. `better(a, b)` must implement the *strict* part of
/// a total quasiordering and be strongly monotone w.r.t. `combine`.
pub trait TdEvaluator {
    /// Summary of a partial tree decomposition rooted at some node.
    type Summary: Clone + std::fmt::Debug;

    /// What the evaluator derives from a bag by itself.
    type Local;

    /// Judges `bag` on its own: `Ok(None)` when no decomposition with
    /// this bag can satisfy the constraint. Searches in here tick
    /// `budget` (a trip propagates; nothing is recorded for the bag).
    fn local(
        &self,
        h: &Hypergraph,
        bag: &BitSet,
        budget: &Budget,
    ) -> Result<Option<Self::Local>, DecompError>;

    /// Summarises a node given its bag, the bag's [`local`] value, and
    /// the summaries of its children.
    ///
    /// [`local`]: TdEvaluator::local
    fn combine(
        &self,
        bag: &BitSet,
        local: &Self::Local,
        children: &[Self::Summary],
    ) -> Option<Self::Summary>;

    /// Strict preference: is `a` strictly better than `b`?
    fn better(&self, a: &Self::Summary, b: &Self::Summary) -> bool;

    /// Can [`better`](TdEvaluator::better) ever answer `true`? The
    /// contract runs one way: `false ⇒ better ≡ false`. A pure constraint
    /// (`Trivial`, `ConCov`) answers `false`, and Algorithm 2's one pass
    /// then settles each block with its first passing candidate in (wave,
    /// bag) order — the choice its replayed waves would make. The default
    /// `true` is always safe.
    fn ranks(&self) -> bool {
        true
    }
}

/// A decomposition together with its evaluator summary.
pub type Ranked<S> = (TreeDecomposition, S);

/// One run of an evaluator over an instance: the bag-local table, held
/// by bag index beside the instance's tables. A slot is filled the first
/// time a procedure needs the bag's verdict and never recomputed.
struct Run<'a, E: TdEvaluator> {
    inst: &'a CtdInstance,
    eval: &'a E,
    budget: &'a Budget,
    locals: Vec<Option<Option<E::Local>>>,
}

impl<'a, E: TdEvaluator> Run<'a, E> {
    fn new(inst: &'a CtdInstance, eval: &'a E, budget: &'a Budget) -> Self {
        let locals = (0..inst.num_bags()).map(|_| None).collect();
        Run {
            inst,
            eval,
            budget,
            locals,
        }
    }

    /// The bag-local value of candidate bag `x` (`None`: the bag alone
    /// violates the constraint), computed on first use.
    fn local(&mut self, x: usize) -> Result<Option<&E::Local>, DecompError> {
        if self.locals[x].is_none() {
            let local = self
                .eval
                .local(&self.inst.h, self.inst.bag(x), self.budget)?;
            self.locals[x] = Some(local);
        }
        Ok(self.locals[x].as_ref().and_then(Option::as_ref))
    }

    /// The evaluator's summary of a node with bag `x` over `children`.
    fn node(
        &mut self,
        x: usize,
        children: &[E::Summary],
    ) -> Result<Option<E::Summary>, DecompError> {
        let (inst, eval) = (self.inst, self.eval);
        Ok(self
            .local(x)?
            .and_then(|local| eval.combine(inst.bag(x), local, children)))
    }

    /// Bottom-up summary of the tree `node` with the trees `grafted`
    /// hung under its root — the shape [`CtdInstance::materialise`] gives
    /// the per-component trees of a disconnected hypergraph.
    fn summarise(
        &mut self,
        node: &TdNode,
        grafted: &[&TdNode],
    ) -> Result<Option<E::Summary>, DecompError> {
        let mut children = Vec::with_capacity(node.children.len() + grafted.len());
        for child in node.children.iter().chain(grafted.iter().copied()) {
            match self.summarise(child, &[])? {
                Some(summary) => children.push(summary),
                None => return Ok(None),
            }
        }
        self.node(node.bag, &children)
    }

    /// Algorithm 2's block rule: the preference-minimal one of a block's
    /// viable `candidates` (bag order, each covering the block with its
    /// children) with its summary, where `value` gives a child block's
    /// value. Ticks the budget per candidate, combines those whose
    /// children all have values and whose bag passes on its own, and keeps
    /// the strictly best summary (first wins ties, so the choice is
    /// deterministic).
    fn best_candidate<'v>(
        &mut self,
        candidates: &Candidates,
        value: impl Fn(u32) -> Option<&'v E::Summary>,
    ) -> Result<Option<(u32, E::Summary)>, DecompError>
    where
        E::Summary: 'v,
    {
        let (inst, eval) = (self.inst, self.eval);
        let mut best: Option<(u32, E::Summary)> = None;
        let mut child_summaries: Vec<E::Summary> = Vec::new();
        for (x, children) in candidates.iter() {
            self.budget.tick()?;
            if !children.iter().all(|&b2| value(b2).is_some()) {
                continue;
            }
            let Some(local) = self.local(x)? else {
                continue;
            };
            child_summaries.clear();
            child_summaries.extend(children.iter().filter_map(|&b2| value(b2).cloned()));
            let Some(summary) = eval.combine(inst.bag(x), local, &child_summaries) else {
                continue;
            };
            let replace = match &best {
                None => true,
                Some((_, old)) => eval.better(&summary, old),
            };
            if replace {
                best = Some((x as u32, summary));
            }
        }
        Ok(best)
    }

    /// The pass of Algorithm 2 under an evaluator that ranks: the blocks
    /// in [`CtdInstance::pass_order`], each settled once, after its
    /// children, by replaying its Jacobi waves. A block is asked in wave
    /// 0, and in wave `w + 1` for every wave `w` in which a child of a
    /// viable candidate (read when the block is settled) took a value;
    /// each time it proposes [`Run::best_candidate`] over its children's
    /// values as of the wave before, and takes the proposal if it holds no
    /// value yet or the proposal is `better`. The histories live in one
    /// log, appended in pass order. A block's last value is its basis, timestamped with its
    /// wave. The budget is ticked per block (and per candidate).
    fn ranked_pass(&mut self) -> Result<Vec<Basis>, DecompError> {
        let inst = self.inst;
        // Every value a block took, as `(wave, bag, summary)`; block `b`'s
        // are `log[history[b]]`.
        let mut log: Vec<(u32, u32, E::Summary)> = Vec::new();
        let mut history = vec![0..0; inst.blocks.len()];
        let (mut candidates, mut waves) = (Candidates::default(), Vec::new());
        for b in inst.pass_order() {
            let b = b as usize;
            self.budget.tick()?;
            inst.read_candidates(b, &mut candidates);
            let children = candidates.iter().flat_map(|(_, children)| children);
            let changes = children.flat_map(|&c| &log[history[c as usize].clone()]);
            waves.clear();
            waves.extend(std::iter::once(0).chain(changes.map(|&(w, ..)| w + 1)));
            waves.sort_unstable();
            waves.dedup();
            let start = log.len();
            for &wave in &waves {
                let as_of = |c: u32| {
                    let taken = &log[history[c as usize].clone()];
                    let then = taken.iter().rev().find(|&&(w, ..)| w < wave);
                    then.map(|(.., summary)| summary)
                };
                let Some((x, summary)) = self.best_candidate(&candidates, as_of)? else {
                    continue;
                };
                let held = log[start..].last();
                if held.is_some_and(|(.., old)| !self.eval.better(&summary, old)) {
                    continue;
                }
                log.push((wave, x, summary));
            }
            history[b] = start..log.len();
        }
        let basis = history.into_iter().map(|taken| match log[taken].last() {
            Some(&(at, bag, _)) => Basis { bag, at },
            None => Basis::NONE,
        });
        Ok(basis.collect())
    }
}

/// Runs the `{C, ≤}` dynamic program of Algorithm 2 and returns a globally
/// minimal constraint-satisfying CTD with its summary, or `None` if no
/// CTD satisfies the constraint.
///
/// Algorithm 2 is Algorithm 1 with the satisfied bit replaced by the
/// evaluator's value, and runs as Algorithm 1 does: one pass over the
/// blocks in dependency order. Without a preference it is Algorithm 1's
/// pass with the evaluator as a filter; with one, each block replays its
/// waves from its children's value histories. Algorithm 1's extractor
/// reads the witness off the basis column.
pub fn best<E: TdEvaluator>(
    h: &Hypergraph,
    bags: &[BitSet],
    eval: &E,
) -> Option<Ranked<E::Summary>> {
    let inst = CtdInstance::new(h, bags);
    best_on(&inst, eval)
}

/// [`best`] on a prepared instance.
pub fn best_on<E: TdEvaluator>(inst: &CtdInstance, eval: &E) -> Option<Ranked<E::Summary>> {
    best_on_budgeted(inst, eval, &Budget::unlimited()).expect("the unlimited budget cannot trip")
}

/// [`best_on`] with a cooperative [`Budget`], handed to the evaluator's
/// bag-local searches and ticked per block and per candidate evaluated.
/// All DP state lives in locals, so an abort leaves the instance
/// untouched and a retry is bit-identical to a never-interrupted run.
///
/// The DP is one pass in dependency order, each block settled once. An
/// evaluator that does not [rank](TdEvaluator::ranks) pays only for its
/// constraint: the pass is `CtdInstance::ordered_pass`, which takes the
/// first candidate in (wave, bag) order that the evaluator passes. Under
/// one that ranks, each block replays its waves (`Run::ranked_pass`). The
/// witness is `CtdInstance::extract_tree`'s.
pub fn best_on_budgeted<E: TdEvaluator>(
    inst: &CtdInstance,
    eval: &E,
    budget: &Budget,
) -> Result<Option<Ranked<E::Summary>>, DecompError> {
    let _span = softhw_obs::span(softhw_obs::stage::BEST_DP);
    let mut run = Run::new(inst, eval, budget);
    let basis = if eval.ranks() {
        run.ranked_pass()?
    } else {
        let mut summaries = Vec::new();
        let pass = inst.ordered_pass(budget, |x, children, value| {
            summaries.clear();
            summaries.extend(children.iter().filter_map(|&c| value[c as usize].clone()));
            run.node(x, &summaries)
        });
        pass?.0
    };
    if !inst.root_blocks.iter().all(|&b| basis[b].get().is_some()) {
        return Ok(None);
    }
    // Extract one tree per connected component, chain them under the
    // first one's root, and summarise the stitched tree bottom-up.
    let nb = inst.blocks.len();
    let mut pick = |b: usize| basis[b].get().map(|(x, _)| x);
    let roots: Vec<TdNode> = (inst.root_blocks.iter())
        .map(|&rb| inst.extract_tree(rb, &mut pick, &mut vec![false; nb]))
        .collect::<Option<_>>()
        .ok_or_else(|| DecompError::internal("value table inconsistent with this instance"))?;
    let roots: Vec<&TdNode> = roots.iter().collect();
    let Some((first, rest)) = roots.split_first() else {
        return Ok(None);
    };
    let Some(summary) = run.summarise(first, rest)? else {
        return Ok(None);
    };
    let mut td: Option<TreeDecomposition> = None;
    for root in roots {
        inst.materialise(root, &mut td);
    }
    Ok(td.map(|td| (td, summary)))
}

/// Evaluates a complete decomposition bottom-up with an evaluator;
/// `None` if any node violates the constraint.
pub fn evaluate_td<E: TdEvaluator>(
    h: &Hypergraph,
    td: &TreeDecomposition,
    eval: &E,
) -> Option<E::Summary> {
    fn rec<E: TdEvaluator>(
        h: &Hypergraph,
        td: &TreeDecomposition,
        eval: &E,
        u: usize,
    ) -> Option<E::Summary> {
        let mut children = Vec::new();
        for &c in td.children(u) {
            children.push(rec(h, td, eval, c)?);
        }
        let local = eval
            .local(h, td.bag(u), &Budget::unlimited())
            .expect("the unlimited budget cannot trip")?;
        eval.combine(td.bag(u), &local, &children)
    }
    rec(h, td, eval, td.root())
}

/// Options for [`enumerate_all`].
#[derive(Clone, Debug)]
pub struct EnumerateOptions {
    /// Hard cap on the number of alternatives kept per block (and on the
    /// final result list). `usize::MAX` enumerates everything.
    pub cap_per_block: usize,
}

impl Default for EnumerateOptions {
    fn default() -> Self {
        EnumerateOptions {
            cap_per_block: 10_000,
        }
    }
}

/// Enumerates constraint-satisfying CTDs ranked best-first by the
/// evaluator. With `cap_per_block >= n` and a strongly monotone evaluator,
/// the first `n` results are exactly the top-n decompositions (the
/// paper's Table 1 "top-10 best TDs" workload).
pub fn enumerate_all<E: TdEvaluator>(
    h: &Hypergraph,
    bags: &[BitSet],
    eval: &E,
    opts: &EnumerateOptions,
) -> Vec<Ranked<E::Summary>> {
    let inst = CtdInstance::new(h, bags);
    enumerate_on(&inst, eval, opts)
}

/// [`enumerate_all`] on a prepared instance.
pub fn enumerate_on<E: TdEvaluator>(
    inst: &CtdInstance,
    eval: &E,
    opts: &EnumerateOptions,
) -> Vec<Ranked<E::Summary>> {
    let sat = inst.satisfy();
    if !sat.accept || inst.root_blocks.is_empty() {
        return Vec::new();
    }
    let satisfied: Vec<bool> = sat.basis.iter().map(|b| b.get().is_some()).collect();
    let unlimited = Budget::unlimited();
    let mut run = Run::new(inst, eval, &unlimited);
    let cannot_trip = "the unlimited budget cannot trip";
    // Enumerate per root block, then combine across connected components.
    let per_root: Vec<Vec<(TdNode, E::Summary)>> = (inst.root_blocks.iter())
        .map(|&rb| enum_block(&mut run, &satisfied, rb, opts).expect(cannot_trip))
        .collect();
    if per_root.iter().any(Vec::is_empty) {
        return Vec::new();
    }
    // Cartesian combination across components (almost always a single one).
    type Combo<'a, S> = Vec<&'a (TdNode, S)>;
    let mut combos: Vec<Combo<'_, E::Summary>> = vec![Vec::new()];
    for options in &per_root {
        let mut next = Vec::new();
        for combo in &combos {
            for opt in options {
                let mut c = combo.clone();
                c.push(opt);
                next.push(c);
                if next.len() >= opts.cap_per_block {
                    break;
                }
            }
        }
        combos = next;
    }
    let mut out: Vec<Ranked<E::Summary>> = Vec::new();
    for combo in combos {
        let mut td: Option<TreeDecomposition> = None;
        for (node, _) in &combo {
            inst.materialise(node, &mut td);
        }
        let td = td.expect("non-empty combo");
        // Summary of the first component's root (single-component case) or
        // a re-evaluation for stitched trees.
        let summary = if combo.len() == 1 {
            combo[0].1.clone()
        } else {
            let nodes: Vec<&TdNode> = combo.iter().map(|(node, _)| node).collect();
            match run.summarise(nodes[0], &nodes[1..]).expect(cannot_trip) {
                Some(s) => s,
                None => continue,
            }
        };
        out.push((td, summary));
    }
    out.sort_by(|a, b| by_preference(eval, a, b));
    out.truncate(opts.cap_per_block);
    out
}

/// Orders `(tree, summary)` pairs best-first by `eval`'s preference;
/// the sorts are stable, so equally good pairs keep their order.
fn by_preference<E: TdEvaluator, T>(
    eval: &E,
    a: &(T, E::Summary),
    b: &(T, E::Summary),
) -> std::cmp::Ordering {
    if eval.better(&a.1, &b.1) {
        std::cmp::Ordering::Less
    } else if eval.better(&b.1, &a.1) {
        std::cmp::Ordering::Greater
    } else {
        std::cmp::Ordering::Equal
    }
}

fn enum_block<E: TdEvaluator>(
    run: &mut Run<'_, E>,
    satisfied: &[bool],
    b: usize,
    opts: &EnumerateOptions,
) -> Result<Vec<(TdNode, E::Summary)>, DecompError> {
    let (inst, eval) = (run.inst, run.eval);
    let mut results: Vec<(TdNode, E::Summary)> = Vec::new();
    // Viable candidates come with their child lists and cover the block
    // with them, so only the children's satisfaction is checked here.
    let mut candidates = Candidates::default();
    inst.read_candidates(b, &mut candidates);
    'bags: for (x, child_blocks) in candidates.iter() {
        if !child_blocks.iter().all(|&b2| satisfied[b2 as usize]) {
            continue;
        }
        // Recurse into children; each list comes back best-first and
        // truncated to the cap (sound for top-n under strong monotonicity:
        // a top-n parent combination only uses top-n child entries).
        let mut child_options: Vec<Vec<(TdNode, E::Summary)>> = Vec::new();
        for &b2 in child_blocks {
            let opt = enum_block(run, satisfied, b2 as usize, opts)?;
            if opt.is_empty() {
                continue 'bags;
            }
            child_options.push(opt);
        }
        // Best-first combination of children alternatives: start from the
        // all-best index vector and expand one coordinate at a time
        // (`open` holds the index vectors not yet popped). With
        // a strongly monotone evaluator, emitted summaries are
        // nondecreasing, so collecting the first `cap` yields the true
        // per-basis top list. Constraint-violating combos (eval = None)
        // are expanded but not emitted.
        let mut evaluate = |idxs: &[usize]| -> Result<Option<E::Summary>, DecompError> {
            let sums: Vec<E::Summary> = idxs
                .iter()
                .enumerate()
                .map(|(ci, &j)| child_options[ci][j].1.clone())
                .collect();
            run.node(x, &sums)
        };
        let start = vec![0usize; child_options.len()];
        let mut open = vec![(start.clone(), evaluate(&start)?)];
        let mut seen: FxHashSet<Vec<usize>> = [start].into_iter().collect();
        let mut emitted = 0usize;
        while !open.is_empty() && emitted < opts.cap_per_block {
            // Pop the best open entry: None summaries (violations)
            // first so their successors get explored, then the summary-
            // minimal one.
            let mut best_i = 0usize;
            for i in 1..open.len() {
                let better = match (&open[i].1, &open[best_i].1) {
                    (None, _) => true,
                    (_, None) => false,
                    (Some(a), Some(b)) => eval.better(a, b),
                };
                if better {
                    best_i = i;
                }
            }
            let (idxs, summary) = open.swap_remove(best_i);
            if let Some(summary) = summary {
                let children: Vec<TdNode> = idxs
                    .iter()
                    .enumerate()
                    .map(|(ci, &j)| child_options[ci][j].0.clone())
                    .collect();
                results.push((TdNode { bag: x, children }, summary));
                emitted += 1;
            }
            for ci in 0..idxs.len() {
                if idxs[ci] + 1 < child_options[ci].len() {
                    let mut nxt = idxs.clone();
                    nxt[ci] += 1;
                    if seen.insert(nxt.clone()) {
                        let s = evaluate(&nxt)?;
                        open.push((nxt, s));
                    }
                }
            }
        }
    }
    // Keep the block's alternatives ordered best-first and capped.
    results.sort_by(|a, b| by_preference(eval, a, b));
    results.truncate(opts.cap_per_block);
    Ok(results)
}

/// The `n` best constraint-satisfying CTDs under the evaluator's
/// preference (ties broken arbitrarily).
pub fn top_n<E: TdEvaluator>(
    h: &Hypergraph,
    bags: &[BitSet],
    eval: &E,
    n: usize,
) -> Vec<Ranked<E::Summary>> {
    let mut out = enumerate_all(
        h,
        bags,
        eval,
        &EnumerateOptions {
            cap_per_block: n.max(64),
        },
    );
    out.truncate(n);
    out
}

/// Samples a random CTD: Algorithm 1's table, then the one extractor on
/// each root block, where every block takes a uniformly random one of its
/// viable candidates whose children are all satisfied. Returns `None`
/// when no CTD exists.
pub fn sample_random<R: Rng>(
    h: &Hypergraph,
    bags: &[BitSet],
    rng: &mut R,
) -> Option<TreeDecomposition> {
    let inst = CtdInstance::new(h, bags);
    let sat = inst.satisfy();
    if !sat.accept {
        return None;
    }
    let satisfied = |c: &u32| sat.basis[*c as usize].get().is_some();
    let (mut read, mut choices) = (Candidates::default(), Vec::new());
    // Every block reached is satisfied, and so holds its basis among the
    // choices: the range drawn from is never empty.
    let mut choose = |b: usize| {
        inst.read_candidates(b, &mut read);
        choices.clear();
        let viable = (read.iter()).filter(|(_, children)| children.iter().all(satisfied));
        choices.extend(viable.map(|(x, _)| x));
        Some(choices[rng.gen_range(0..choices.len())])
    };
    let mut td = None;
    for &rb in &inst.root_blocks {
        let root = inst.extract_tree(rb, &mut choose, &mut vec![false; inst.blocks.len()])?;
        inst.materialise(&root, &mut td);
    }
    td
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constraints::{BagCost, ConCov, Lexi, PartClust, ShallowCyc, Trivial};
    use crate::soft::soft_bags;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use softhw_hypergraph::random::{random_hypergraph, RandomConfig};
    use softhw_hypergraph::{named, FxHashMap};
    use std::cell::{Cell, RefCell};

    /// Random hypergraphs with `edges` edges; odd seeds may come out
    /// disconnected, which exercises the stitched-tree summaries.
    fn random_shape(edges: usize, seed: u64) -> Hypergraph {
        let shape = RandomConfig {
            num_vertices: edges + 1,
            num_edges: edges,
            min_arity: 2,
            max_arity: 3,
            connect: seed.is_multiple_of(2),
        };
        random_hypergraph(&shape, seed)
    }

    /// Counts the bag-local evaluations of the wrapped evaluator, per
    /// bag, and its `combine` calls.
    struct Counting<'a, E> {
        inner: &'a E,
        evals: RefCell<FxHashMap<BitSet, usize>>,
        combines: Cell<usize>,
    }

    impl<E: TdEvaluator> TdEvaluator for Counting<'_, E> {
        type Summary = E::Summary;
        type Local = E::Local;

        fn local(
            &self,
            h: &Hypergraph,
            bag: &BitSet,
            budget: &Budget,
        ) -> Result<Option<E::Local>, DecompError> {
            *self.evals.borrow_mut().entry(bag.clone()).or_default() += 1;
            self.inner.local(h, bag, budget)
        }

        fn combine(
            &self,
            bag: &BitSet,
            local: &E::Local,
            children: &[E::Summary],
        ) -> Option<E::Summary> {
            self.combines.set(self.combines.get() + 1);
            self.inner.combine(bag, local, children)
        }

        fn better(&self, a: &E::Summary, b: &E::Summary) -> bool {
            self.inner.better(a, b)
        }

        fn ranks(&self) -> bool {
            self.inner.ranks()
        }
    }

    #[test]
    fn bag_local_part_runs_at_most_once_per_candidate_bag() {
        let opts = EnumerateOptions { cap_per_block: 4 };
        for edges in 6..=12 {
            for k in 1..=3 {
                let h = random_shape(edges, (edges * 3 + k) as u64);
                let inst = CtdInstance::new(&h, &soft_bags(&h, k));
                let concov = ConCov { k };
                let counting = Counting {
                    inner: &concov,
                    evals: RefCell::default(),
                    combines: Cell::default(),
                };
                let check = |what: &str| {
                    let evals = counting.evals.take();
                    assert!(evals.len() <= inst.num_bags());
                    for (bag, n) in evals {
                        assert_eq!(
                            n, 1,
                            "{what}: {n} evaluations of {bag:?} ({edges} edges, k={k})"
                        );
                    }
                };
                let found = best_on(&inst, &counting).is_some();
                check("best_on");
                // Enumeration is exponential in the block count: the
                // small shapes only.
                if edges <= 7 {
                    let ranked = enumerate_on(&inst, &counting, &opts);
                    check("enumerate_on");
                    assert_eq!(found, !ranked.is_empty());
                }
            }
        }
    }

    /// What `best_on(ConCov)` costs over the shapes of
    /// `bag_local_part_runs_at_most_once_per_candidate_bag`, in clock-free
    /// counts: the bag-local evaluations (a connected-cover search each),
    /// and the boolean reference DPs (`satisfy` spans inside `best_dp`),
    /// which run only when an extraction revisits a block.
    #[test]
    fn concov_best_counts_are_pinned() {
        let (mut locals, mut reference_dps, mut found) = (0, 0, 0);
        for edges in 6..=12 {
            for k in 1..=3 {
                let h = random_shape(edges, (edges * 3 + k) as u64);
                let inst = CtdInstance::new(&h, &soft_bags(&h, k));
                let concov = ConCov { k };
                let counting = Counting {
                    inner: &concov,
                    evals: RefCell::default(),
                    combines: Cell::default(),
                };
                softhw_obs::begin_trace(0);
                found += best_on(&inst, &counting).is_some() as usize;
                let trace = softhw_obs::end_trace().expect("spans record by default");
                let stages: Vec<_> = trace.records.iter().map(|r| (r.stage, r.depth)).collect();
                assert_eq!(stages[0], (softhw_obs::stage::BEST_DP, 0), "{stages:?}");
                reference_dps += stages[1..]
                    .iter()
                    .filter(|&&(stage, depth)| stage == softhw_obs::stage::SATISFY && depth > 0)
                    .count();
                locals += counting.evals.take().values().sum::<usize>();
            }
        }
        assert_eq!((locals, reference_dps, found), (679, 0, 13));
    }

    /// What `best_on` costs under two ranked evaluators over the shapes
    /// of `concov_best_counts_are_pinned`, in clock-free counts: the
    /// bag-local evaluations, the `combine` calls (the pass's, and the
    /// summary of the extracted tree), and the instances answered.
    #[test]
    fn shallow_best_counts_are_pinned() {
        fn tally<E: TdEvaluator>(eval: &E) -> (usize, usize, usize) {
            let (mut locals, mut combines, mut found) = (0, 0, 0);
            for edges in 6..=12 {
                for k in 1..=3 {
                    let h = random_shape(edges, (edges * 3 + k) as u64);
                    let inst = CtdInstance::new(&h, &soft_bags(&h, k));
                    let counting = Counting {
                        inner: eval,
                        evals: RefCell::default(),
                        combines: Cell::default(),
                    };
                    found += best_on(&inst, &counting).is_some() as usize;
                    locals += counting.evals.take().values().sum::<usize>();
                    combines += counting.combines.get();
                }
            }
            (locals, combines, found)
        }
        let shallow = tally(&ShallowCyc { d: 1 });
        let cost = tally(&BagCost::new(|bag: &BitSet| bag.len() as f64));
        assert_eq!((shallow, cost), ((2647, 250_081, 13), (2650, 243_602, 13)));
    }

    /// The DP value of a block: its best basis (bag index) and the
    /// summary of the partial decomposition below it.
    type Value<S> = Option<(usize, S)>;

    /// Algorithm 2 as it ran before the bag-local table: full Jacobi
    /// rounds in which every *(block, viable candidate)* pair re-runs
    /// both halves of the evaluator, then the one extractor following the
    /// best-value table, and the summary from [`evaluate_td`] on the
    /// finished tree.
    fn per_pair_reference<E: TdEvaluator>(
        inst: &CtdInstance,
        eval: &E,
    ) -> Option<Ranked<E::Summary>> {
        let unlimited = Budget::unlimited();
        let nb = inst.blocks.len();
        let mut value: Vec<Value<E::Summary>> = vec![None; nb];
        let improves = |new: &E::Summary, old: &Value<E::Summary>| match old {
            None => true,
            Some((_, old)) => eval.better(new, old),
        };
        let mut changed = true;
        while changed {
            changed = false;
            let snapshot = value.clone();
            for (b, slot) in value.iter_mut().enumerate() {
                let mut best: Value<E::Summary> = None;
                'cands: for (x, children) in inst.viable_candidates(b) {
                    let mut sums = Vec::new();
                    for &b2 in &children {
                        match &snapshot[b2 as usize] {
                            Some((_, s)) => sums.push(s.clone()),
                            None => continue 'cands,
                        }
                    }
                    let bag = inst.bag(x);
                    let summary = eval
                        .local(&inst.h, bag, &unlimited)
                        .unwrap()
                        .and_then(|local| eval.combine(bag, &local, &sums));
                    match summary {
                        Some(summary) if improves(&summary, &best) => best = Some((x, summary)),
                        _ => {}
                    }
                }
                if let Some((x, summary)) = best {
                    if improves(&summary, slot) {
                        *slot = Some((x, summary));
                        changed = true;
                    }
                }
            }
        }
        let mut pick = |b: usize| value[b].as_ref().map(|(x, _)| *x);
        let mut td = None;
        for &rb in &inst.root_blocks {
            let root = inst.extract_tree(rb, &mut pick, &mut vec![false; nb])?;
            inst.materialise(&root, &mut td);
        }
        let td = td?;
        let summary = evaluate_td(&inst.h, &td, eval)?;
        Some((td, summary))
    }

    fn assert_matches_reference<E: TdEvaluator>(inst: &CtdInstance, eval: &E, what: &str) {
        let fast = format!("{:?}", best_on(inst, eval));
        let slow = format!("{:?}", per_pair_reference(inst, eval));
        assert_eq!(fast, slow, "{what}");
    }

    #[test]
    fn best_equals_the_per_pair_reference() {
        let mut shapes = vec![
            named::h2(),
            named::cycle(5),
            named::cycle(6),
            named::triangle_star(3),
        ];
        shapes.extend((0..6).map(|seed| random_shape(6 + seed as usize % 3, seed)));
        // Larger shapes, where the tie-break among equally good candidates
        // shows: breaking ties by (value, depth, bag) instead of by wave
        // order diverges here at `k = 2` on seeds 1 and 2. They stop at
        // `k = 2`: at `k = 3` the per-pair reference alone takes most of a
        // minute in a debug build.
        let larger = shapes.len();
        shapes.extend((0..4).map(|seed| random_shape(9 + seed as usize % 2, seed)));
        let size = |bag: &BitSet| bag.len() as f64;
        for (i, h) in shapes.iter().enumerate() {
            let top_k = if i < larger { 3 } else { 2 };
            for k in 1..=top_k {
                let inst = CtdInstance::new(h, &soft_bags(h, k));
                let what = format!("shape {i}, k={k}");
                assert_matches_reference(&inst, &Trivial, &what);
                assert_matches_reference(&inst, &ConCov { k }, &what);
                assert_matches_reference(&inst, &ShallowCyc { d: 1 }, &what);
                assert_matches_reference(&inst, &ShallowCyc { d: 2 }, &what);
                assert_matches_reference(&inst, &BagCost::new(size), &what);
                let lexi = Lexi::new(ConCov { k }, BagCost::new(size));
                assert_matches_reference(&inst, &lexi, &what);
                let lexi = Lexi::new(ConCov { k }, ShallowCyc { d: 1 });
                assert_matches_reference(&inst, &lexi, &what);
            }
        }
        // Example 4: R,U,V on partition 0, S,T,W on partition 1.
        let (h, labels) = named::example4_query();
        let inst = CtdInstance::new(&h, &soft_bags(&h, 2));
        let clust = PartClust {
            k: 2,
            labels,
            num_partitions: 2,
        };
        assert!(best_on(&inst, &clust).is_some());
        assert_matches_reference(&inst, &clust, "example 4");
    }

    #[test]
    fn a_tripped_budget_is_an_error_and_a_retry_is_identical() {
        fn check<E: TdEvaluator>(inst: &CtdInstance, eval: &E, what: &str) {
            let control = format!("{:?}", best_on(inst, eval));
            let mut tripped = 0;
            for cap in [0, 1, 10, 100, 1_000, 10_000, 100_000_000] {
                match best_on_budgeted(inst, eval, &Budget::with_work_cap(cap)) {
                    Ok(best) => assert_eq!(format!("{best:?}"), control, "{what}, cap {cap}"),
                    Err(e) => {
                        assert_eq!(e, DecompError::DeadlineExceeded, "{what}, cap {cap}");
                        tripped += 1;
                    }
                }
                assert_eq!(format!("{:?}", best_on(inst, eval)), control, "{what}");
            }
            assert!(
                (1..7).contains(&tripped),
                "{what}: {tripped} of 7 caps tripped"
            );
            let canceled = Budget::cancellable();
            canceled.cancel();
            let stopped = best_on_budgeted(inst, eval, &canceled);
            assert_eq!(stopped.err(), Some(DecompError::Canceled), "{what}");
        }
        let h = named::grid(3, 3);
        let inst = CtdInstance::new(&h, &soft_bags(&h, 3));
        check(&inst, &ConCov { k: 3 }, "ConCov");
        check(&inst, &ShallowCyc { d: 1 }, "ShallowCyc");
        check(
            &inst,
            &BagCost::new(|bag: &BitSet| bag.len() as f64),
            "BagCost",
        );
    }

    #[test]
    fn a_non_monotone_evaluator_terminates_with_a_valid_witness() {
        // `better` that always prefers the newcomer is not a strict
        // order; the pass still settles every block once.
        struct Restless;
        impl TdEvaluator for Restless {
            type Summary = ();
            type Local = ();
            fn local(
                &self,
                _: &Hypergraph,
                _: &BitSet,
                _: &Budget,
            ) -> Result<Option<()>, DecompError> {
                Ok(Some(()))
            }
            fn combine(&self, _: &BitSet, _: &(), _: &[()]) -> Option<()> {
                Some(())
            }
            fn better(&self, _: &(), _: &()) -> bool {
                true
            }
        }
        let h = named::cycle(5);
        let inst = CtdInstance::new(&h, &soft_bags(&h, 2));
        let (td, ()) = best_on(&inst, &Restless).expect("shw(C5) = 2");
        assert_eq!(td.validate(&h), Ok(()));
    }

    #[test]
    fn best_with_trivial_evaluator_matches_algorithm_1() {
        let h = named::h2();
        let bags = soft_bags(&h, 2);
        let (td, _) = best(&h, &bags, &Trivial).expect("shw(H2)=2");
        assert_eq!(td.validate(&h), Ok(()));
    }

    #[test]
    fn best_minimises_bag_cost() {
        // Cost = total bag cardinality; the best decomposition cannot be
        // beaten by any enumerated one.
        let h = named::cycle(6);
        let bags = soft_bags(&h, 2);
        let cost = BagCost::new(|bag: &BitSet| bag.len() as f64);
        let (btd, bsum) = best(&h, &bags, &cost).expect("exists");
        assert_eq!(btd.validate(&h), Ok(()));
        let all = enumerate_all(&h, &bags, &cost, &EnumerateOptions::default());
        assert!(!all.is_empty());
        for (td, s) in &all {
            assert_eq!(td.validate(&h), Ok(()));
            assert!(
                s.cost + 1e-9 >= bsum.cost,
                "enumeration found cheaper ({} < {})",
                s.cost,
                bsum.cost
            );
        }
        // and the cheapest enumerated equals the DP's optimum
        assert!((all[0].1.cost - bsum.cost).abs() < 1e-9);
    }

    #[test]
    fn enumeration_is_ranked() {
        let h = named::cycle(5);
        let bags = soft_bags(&h, 2);
        let cost = BagCost::new(|bag: &BitSet| bag.len() as f64);
        let all = enumerate_all(&h, &bags, &cost, &EnumerateOptions::default());
        for w in all.windows(2) {
            assert!(w[0].1.cost <= w[1].1.cost + 1e-9);
        }
    }

    #[test]
    fn top_n_truncates() {
        let h = named::cycle(5);
        let bags = soft_bags(&h, 2);
        let cost = BagCost::new(|bag: &BitSet| bag.len() as f64);
        let t3 = top_n(&h, &bags, &cost, 3);
        assert!(t3.len() <= 3);
        assert!(!t3.is_empty());
    }

    #[test]
    fn sample_random_produces_valid_ctds() {
        let h = named::h2();
        let bags = soft_bags(&h, 2);
        let mut rng = SmallRng::seed_from_u64(42);
        for _ in 0..10 {
            let td = sample_random(&h, &bags, &mut rng).expect("satisfiable");
            assert_eq!(td.validate(&h), Ok(()));
            for bag in td.bags() {
                assert!(bags.contains(bag), "sampled bag must be a candidate");
            }
        }
    }

    #[test]
    fn unsatisfiable_instances_yield_nothing() {
        let h = named::cycle(4);
        let bags = vec![h.vset(&["v0", "v1"])];
        assert!(best(&h, &bags, &Trivial).is_none());
        assert!(enumerate_all(&h, &bags, &Trivial, &EnumerateOptions::default()).is_empty());
        let mut rng = SmallRng::seed_from_u64(1);
        assert!(sample_random(&h, &bags, &mut rng).is_none());
    }
}
