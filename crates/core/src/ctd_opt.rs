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
//! provides what the paper's experimental prototype uses: the
//! constraint-satisfying CTDs ranked by preference ([`top_n`], all of
//! them with `usize::MAX`) and random sampling ([`sample_random`]). The
//! DP reads a component's candidates once, when it settles the
//! component's blocks; the others read a block's when they reach it (see
//! [`crate::ctd`]). All three read their trees with Algorithm 1's one
//! extractor, which takes the bag chosen per block: the DP's basis, a
//! random candidate whose children are satisfied, or the candidate of the
//! derivation the parent asked for. None of them guards against meeting
//! a block twice: every child of a viable candidate is strictly smaller
//! in `(|C|, |S|)`, and the children of one candidate have disjoint
//! components, so no tree built top-down reaches a block twice.
//!
//! The ranked enumeration keeps **one lazy list per block**: the block's
//! derivations, a derivation being a viable candidate with one rank per
//! child block, grown best-first only as far as a parent asks, each built
//! once however many parents reach the block (Huang and Chiang's lazy
//! k-best over the block DAG). **Rejected derivations are not expanded**,
//! as the DP drops a candidate whose best children are rejected. The
//! **stitched root** of a disconnected hypergraph is root block 0, whose
//! candidates take the other root blocks as extra children, so the
//! stitched tree's summary is the evaluator's own `combine`.
//!
//! The preference DP is no second engine: it is Algorithm 1's one pass
//! over the blocks in dependency order, each settled once after its
//! children, with one read per component. Every child of a candidate is
//! strictly smaller, so its value is final when a block asks, and under
//! the paper's strong monotonicity the best candidate over final values
//! is already optimal. Under an evaluator that ranks, the pass values
//! each candidate a component's blocks share once, and each block keeps
//! the candidate no other one is `better` than, the least in (wave, bag)
//! order among equals. Under a pure constraint (`Trivial`, `ConCov`:
//! [`TdEvaluator::ranks`] is `false`) all values are equal, so the pass
//! stops at the first candidate in (wave, bag) order that the evaluator
//! passes: the same choice, paid for the constraint only
//! (`tests/best_shortcut_props.rs` pins that this changes no answer).

use crate::budget::Budget;
use crate::ctd::{Better, Candidates, CtdInstance, TdNode};
use crate::error::DecompError;
use crate::td::TreeDecomposition;
use rand::Rng;
use softhw_hypergraph::{BitSet, FxHashSet, Hypergraph};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

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
    /// bag) order — the choice it makes when it values every candidate
    /// and keeps the least in (wave, bag) order among equals. The default
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
}

/// Runs the `{C, ≤}` dynamic program of Algorithm 2 and returns a globally
/// minimal constraint-satisfying CTD with its summary, or `None` if no
/// CTD satisfies the constraint.
///
/// Algorithm 2 is Algorithm 1 with the satisfied bit replaced by the
/// evaluator's value, and runs as Algorithm 1 does: one pass over the
/// blocks in dependency order. Without a preference it is Algorithm 1's
/// pass with the evaluator as a filter; with one, each block keeps the
/// candidate no other one beats over its children's final values, the
/// least in (wave, bag) order among equals. Algorithm 1's extractor
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
/// bag-local searches and ticked per block and per candidate turned down
/// or, under an evaluator that ranks, valued.
/// All DP state lives in locals, so an abort leaves the instance
/// untouched and a retry is bit-identical to a never-interrupted run.
///
/// The DP is one `CtdInstance::ordered_pass` for every evaluator, each
/// block settled once from its children's final values. An evaluator
/// that does not [rank](TdEvaluator::ranks) pays only for its
/// constraint: the pass takes the first candidate in (wave, bag) order
/// that the evaluator passes. Under one that ranks, the pass values each
/// candidate once per component and keeps the best, the least in (wave,
/// bag) order among equals. The witness is `CtdInstance::extract_tree`'s.
pub fn best_on_budgeted<E: TdEvaluator>(
    inst: &CtdInstance,
    eval: &E,
    budget: &Budget,
) -> Result<Option<Ranked<E::Summary>>, DecompError> {
    let _span = softhw_obs::span(softhw_obs::stage::BEST_DP);
    let mut run = Run::new(inst, eval, budget);
    let better = |a: &E::Summary, b: &E::Summary| eval.better(a, b);
    let ranked = eval.ranks().then_some(&better as Better<'_, _>);
    let mut summaries = Vec::new();
    let (basis, _) = inst.ordered_pass(budget, ranked, |x, children, value| {
        summaries.clear();
        summaries.extend(children.iter().filter_map(|&c| value[c as usize].clone()));
        run.node(x, &summaries)
    })?;
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

/// A derivation of a block: a viable candidate, by its place in the
/// block's list, one rank per child block, and the summary. A frontier
/// pops the preferred summary first and, among equals, the earlier push.
struct Derivation<'e, E: TdEvaluator> {
    eval: &'e E,
    seq: usize,
    cand: u32,
    ranks: Box<[u32]>,
    summary: E::Summary,
}

impl<E: TdEvaluator> Ord for Derivation<'_, E> {
    fn cmp(&self, other: &Self) -> Ordering {
        let (a, b) = (&self.summary, &other.summary);
        let by_summary = self.eval.better(a, b).cmp(&self.eval.better(b, a));
        by_summary.then(other.seq.cmp(&self.seq))
    }
}

impl<E: TdEvaluator> PartialOrd for Derivation<'_, E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E: TdEvaluator> PartialEq for Derivation<'_, E> {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl<E: TdEvaluator> Eq for Derivation<'_, E> {}

/// One block's lazily grown, best-first list of derivations.
struct List<'e, E: TdEvaluator> {
    /// The viable candidates with their child blocks, as
    /// `CtdInstance::read_candidates` lists them; root block 0's take
    /// the other root blocks as extra children.
    cands: Vec<(usize, Vec<u32>)>,
    /// The derivations found so far: rank `r` is `found[r]`.
    found: Vec<Derivation<'e, E>>,
    /// The derivations pushed and not yet found.
    frontier: BinaryHeap<Derivation<'e, E>>,
    /// Every derivation ever considered, so that none is pushed twice;
    /// its size numbers the pushes.
    seen: FxHashSet<(u32, Box<[u32]>)>,
}

/// Huang and Chiang's lazy k-best ("Better k-best Parsing", Algorithm 3)
/// over the block DAG: finding a derivation pushes its successors, one
/// child rank up each, and a rejected one is never pushed, so never
/// expanded.
struct Ranking<'a, E: TdEvaluator> {
    run: Run<'a, E>,
    lists: Vec<Option<List<'a, E>>>,
    read: Candidates,
}

impl<'a, E: TdEvaluator> Ranking<'a, E> {
    /// Whether block `b` has a derivation of rank `r`, growing its list
    /// as far as that. No block reaches itself: every child of a viable
    /// candidate is strictly smaller, and no root block is a child.
    fn reach(&mut self, b: usize, r: usize) -> Result<bool, DecompError> {
        let mut list = self.lists[b].take().map_or_else(|| self.start(b), Ok)?;
        let reached = self.grow(&mut list, r);
        self.lists[b] = Some(list);
        reached
    }

    /// Block `b`'s list, each viable candidate's first derivation (every
    /// child at rank 0) on its frontier.
    fn start(&mut self, b: usize) -> Result<List<'a, E>, DecompError> {
        let inst = self.run.inst;
        let stitched = (b == inst.root_blocks[0]).then_some(&inst.root_blocks[1..]);
        let others: Vec<u32> = stitched
            .into_iter()
            .flatten()
            .map(|&rb| rb as u32)
            .collect();
        inst.read_candidates(b, &mut self.read);
        let cands = (self.read.iter()).map(|(x, kids)| (x, [kids, &others].concat()));
        let (found, frontier, seen) = (Vec::new(), BinaryHeap::new(), FxHashSet::default());
        let mut list = List {
            cands: cands.collect(),
            found,
            frontier,
            seen,
        };
        for cand in 0..list.cands.len() {
            let ranks = vec![0; list.cands[cand].1.len()].into_boxed_slice();
            self.push(&mut list, (cand as u32, ranks))?;
        }
        Ok(list)
    }

    /// Whether `list` has a derivation of rank `r`, popping its frontier
    /// until it has.
    fn grow(&mut self, list: &mut List<'a, E>, r: usize) -> Result<bool, DecompError> {
        while list.found.len() <= r {
            let Some(derivation) = list.frontier.pop() else {
                return Ok(false);
            };
            for i in 0..derivation.ranks.len() {
                let mut next = derivation.ranks.clone();
                next[i] += 1;
                self.push(list, (derivation.cand, next))?;
            }
            list.found.push(derivation);
        }
        Ok(true)
    }

    /// Pushes the derivation `(cand, ranks)` on `list`'s frontier, unless
    /// it was considered before, a child has no derivation of its rank,
    /// or the evaluator rejects it.
    fn push(&mut self, list: &mut List<'a, E>, key: (u32, Box<[u32]>)) -> Result<(), DecompError> {
        if !list.seen.insert(key.clone()) {
            return Ok(());
        }
        let (cand, ranks) = key;
        let (x, kids) = &list.cands[cand as usize];
        let mut children = Vec::with_capacity(kids.len());
        for (&c, &r) in kids.iter().zip(&ranks) {
            if !self.reach(c as usize, r as usize)? {
                return Ok(());
            }
            let child = self.lists[c as usize].as_ref().expect("a reached list");
            children.push(child.found[r as usize].summary.clone());
        }
        if let Some(summary) = self.run.node(*x, &children)? {
            list.frontier.push(Derivation {
                eval: self.run.eval,
                seq: list.seen.len(),
                cand,
                ranks,
                summary,
            });
        }
        Ok(())
    }
}

/// The `n` best constraint-satisfying CTDs under the evaluator's
/// preference, best first, equals in the order found; `usize::MAX` asks
/// for all of them. One lazy list per block, rejected derivations not
/// expanded, and the stitched root is root block 0 with the other roots
/// as children (see the module docs). Trees are read only for the
/// answers, each block taking its parent's derivation's candidate.
pub fn top_n<E: TdEvaluator>(
    h: &Hypergraph,
    bags: &[BitSet],
    eval: &E,
    n: usize,
) -> Vec<Ranked<E::Summary>> {
    top_n_on(&CtdInstance::new(h, bags), eval, n)
}

/// [`top_n`] on a prepared instance.
fn top_n_on<E: TdEvaluator>(inst: &CtdInstance, eval: &E, n: usize) -> Vec<Ranked<E::Summary>> {
    let Some(&root) = inst.root_blocks.first() else {
        return Vec::new();
    };
    let unlimited = Budget::unlimited();
    let nb = inst.blocks.len();
    let mut ranking = Ranking {
        run: Run::new(inst, eval, &unlimited),
        lists: (0..nb).map(|_| None).collect(),
        read: Candidates::default(),
    };
    let reached = |r: &usize| {
        ranking
            .reach(root, *r)
            .expect("the unlimited budget cannot trip")
    };
    let count = (0..n).take_while(reached).count();
    let lists = &ranking.lists;
    // The rank each block is asked for, set by its parent's derivation.
    let mut want = vec![0u32; nb];
    let mut ranked = |rank: usize| {
        want[root] = rank as u32;
        let mut choose = |b: usize| {
            let list = lists[b].as_ref()?;
            let derivation = list.found.get(want[b] as usize)?;
            let (x, kids) = &list.cands[derivation.cand as usize];
            for (&c, &r) in kids.iter().zip(&derivation.ranks) {
                want[c as usize] = r;
            }
            Some(*x)
        };
        let (mut td, mut visited) = (None, vec![false; nb]);
        for &rb in &inst.root_blocks {
            let tree = inst.extract_tree(rb, &mut choose, &mut visited);
            inst.materialise(&tree.expect("every derivation was reached"), &mut td);
        }
        let found = &lists[root].as_ref().expect("a reached list").found;
        (td.expect("a root block"), found[rank].summary.clone())
    };
    (0..count).map(&mut ranked).collect()
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
    use crate::constraints::{BagCost, ConCov, JoinCost, Lexi, PartClust, ShallowCyc, Trivial};
    use crate::soft::soft_bags;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use softhw_hypergraph::random::{random_hypergraph, RandomConfig};
    use softhw_hypergraph::{named, FxHashMap};
    use std::cell::{Cell, RefCell};

    /// `best` as its tree and its summary's `Debug`: what an "identical
    /// answer" check compares, since a tree's own `Debug` shows only its
    /// node count and root.
    fn seen<S: std::fmt::Debug>(best: &Option<Ranked<S>>) -> Option<(TreeDecomposition, String)> {
        best.as_ref().map(|(td, s)| (td.clone(), format!("{s:?}")))
    }

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
                let ranked = top_n_on(&inst, &counting, 10);
                check("top_n");
                assert_eq!(found, !ranked.is_empty());
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
    /// bag-local evaluations, the `combine` calls (the pass's, one per
    /// candidate a component's blocks share, and the summary of the
    /// extracted tree), and the instances answered.
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
        assert_eq!((shallow, cost), ((2647, 44_906, 13), (2650, 45_959, 13)));
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

    /// `best_on` answers when the reference does, with a summary neither
    /// better nor worse than the reference's, and with a witness that
    /// validates and re-evaluates to the summary it came with. Under an
    /// evaluator that ranks the witnesses may differ: within a tie class
    /// the pass keeps the least candidate in (wave, bag) order over final
    /// values, where the reference keeps what its Jacobi rounds met first.
    /// Under one that does not, both keep the first passing candidate in
    /// that order, and the answers are the same to the byte.
    fn assert_matches_reference<E: TdEvaluator>(inst: &CtdInstance, eval: &E, what: &str) {
        let (fast, slow) = (best_on(inst, eval), per_pair_reference(inst, eval));
        if !eval.ranks() {
            assert_eq!(seen(&fast), seen(&slow), "{what}");
        }
        let (Some((td, fast)), Some((_, slow))) = (&fast, &slow) else {
            assert_eq!(fast.is_some(), slow.is_some(), "{what}");
            return;
        };
        let equivalent = !eval.better(fast, slow) && !eval.better(slow, fast);
        assert!(equivalent, "{what}: {fast:?} against {slow:?}");
        assert_eq!(td.validate(&inst.h), Ok(()), "{what}");
        let again = evaluate_td(&inst.h, td, eval);
        assert_eq!(format!("{again:?}"), format!("{:?}", Some(fast)), "{what}");
    }

    /// A check run on every instance and evaluator of [`reference_cases`].
    trait Check {
        fn check<E: TdEvaluator>(&self, inst: &CtdInstance, eval: &E, what: &str);
    }

    /// The shapes and evaluators Algorithm 2 and the ranked enumeration
    /// are checked on.
    fn reference_cases(check: &impl Check) {
        let mut shapes = vec![
            named::h2(),
            named::cycle(5),
            named::cycle(6),
            named::triangle_star(3),
        ];
        shapes.extend((0..6).map(|seed| random_shape(6 + seed as usize % 3, seed)));
        // Larger shapes, where witnesses differ within tie classes. They
        // stop at `k = 2`: at `k = 3` the per-pair reference alone takes
        // most of a minute in a debug build.
        let larger = shapes.len();
        shapes.extend((0..4).map(|seed| random_shape(9 + seed as usize % 2, seed)));
        let size = |bag: &BitSet| bag.len() as f64;
        // A negative node cost, under which a bag `X ⊊ S` that misses
        // `C` beats its only child `(X, C)` as a candidate of `(S, C)`.
        let gain = |bag: &BitSet| -(bag.len() as f64);
        let join = JoinCost::new(gain, |p: &BitSet, c: &BitSet| {
            p.intersection(c).len() as f64
        });
        for (i, h) in shapes.iter().enumerate() {
            let top_k = if i < larger { 3 } else { 2 };
            for k in 1..=top_k {
                let inst = CtdInstance::new(h, &soft_bags(h, k));
                let what = format!("shape {i}, k={k}");
                check.check(&inst, &Trivial, &what);
                check.check(&inst, &ConCov { k }, &what);
                check.check(&inst, &ShallowCyc { d: 1 }, &what);
                check.check(&inst, &ShallowCyc { d: 2 }, &what);
                check.check(&inst, &BagCost::new(size), &what);
                check.check(&inst, &BagCost::new(gain), &what);
                check.check(&inst, &join, &what);
                let lexi = Lexi::new(ConCov { k }, BagCost::new(size));
                check.check(&inst, &lexi, &what);
                let lexi = Lexi::new(ConCov { k }, ShallowCyc { d: 1 });
                check.check(&inst, &lexi, &what);
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
        check.check(&inst, &clust, "example 4");
    }

    #[test]
    fn best_equals_the_per_pair_reference() {
        struct Reference;
        impl Check for Reference {
            fn check<E: TdEvaluator>(&self, inst: &CtdInstance, eval: &E, what: &str) {
                assert_matches_reference(inst, eval, what);
            }
        }
        reference_cases(&Reference);
    }

    /// `top_n(1)` answers iff `best_on` does, with a summary neither
    /// better nor worse than `best_on`'s; `top_n(3)` is a prefix of
    /// `top_n(8)` by summary; and every answer validates, re-evaluates to
    /// its summary and differs from the others.
    fn assert_top_n_agrees<E: TdEvaluator>(inst: &CtdInstance, eval: &E, what: &str) {
        assert!(top_n_on(inst, eval, 0).is_empty(), "{what}");
        let (best, first) = (best_on(inst, eval), top_n_on(inst, eval, 1));
        assert_eq!(first.len(), best.is_some() as usize, "{what}");
        if let (Some((_, a)), Some((_, b))) = (&best, first.first()) {
            let equivalent = !eval.better(a, b) && !eval.better(b, a);
            assert!(equivalent, "{what}: {a:?} against {b:?}");
        }
        let (short, long) = (top_n_on(inst, eval, 3), top_n_on(inst, eval, 8));
        assert!(long.len() <= 8, "{what}");
        assert_eq!(short.len(), long.len().min(3), "{what}");
        let summaries = |ranked: &[Ranked<E::Summary>]| -> Vec<String> {
            ranked.iter().map(|(_, s)| format!("{s:?}")).collect()
        };
        assert_eq!(summaries(&short), summaries(&long[..short.len()]), "{what}");
        for (i, (td, summary)) in long.iter().enumerate() {
            assert_eq!(td.validate(&inst.h), Ok(()), "{what}");
            let again = evaluate_td(&inst.h, td, eval);
            assert_eq!(
                format!("{again:?}"),
                format!("{:?}", Some(summary)),
                "{what}"
            );
            assert!(long[..i].iter().all(|(other, _)| other != td), "{what}");
        }
    }

    #[test]
    fn top_n_agrees_with_best() {
        struct Agrees;
        impl Check for Agrees {
            fn check<E: TdEvaluator>(&self, inst: &CtdInstance, eval: &E, what: &str) {
                assert_top_n_agrees(inst, eval, what);
            }
        }
        reference_cases(&Agrees);
        // C5 under the squared bag size, a cost the cases above do not use.
        let h = named::cycle(5);
        let inst = CtdInstance::new(&h, &soft_bags(&h, 2));
        let squared = BagCost::new(|b: &BitSet| (b.len() * b.len()) as f64);
        assert_top_n_agrees(&inst, &squared, "C5, size squared");
    }

    /// The shapes on which the non-ranking pass settles blocks that share
    /// a component together in ways the shapes above rarely show: a
    /// disconnected one (a root block shares its component with blocks
    /// headed in another part), one over more than 64 vertices (rows of
    /// several words), and a 12-edge one of the cold serving family at
    /// `k = 3`. The non-ranking evaluators must still answer what the
    /// per-pair reference answers.
    #[test]
    fn non_ranking_best_equals_the_per_pair_reference_on_shared_components() {
        let apart = |seed| {
            let shape = RandomConfig {
                num_vertices: 9,
                num_edges: 5,
                min_arity: 2,
                max_arity: 3,
                connect: false,
            };
            random_hypergraph(&shape, seed)
        };
        let wide = |seed| {
            let h = random_shape(6, seed * 2);
            let mut b = softhw_hypergraph::HypergraphBuilder::new();
            for v in 0..h.num_vertices() * 10 {
                b.vertex(&format!("v{v}"));
            }
            for e in 0..h.num_edges() {
                let copies = h
                    .edge(e)
                    .iter()
                    .flat_map(|v| (0..10).map(move |t| v * 10 + t));
                b.edge_ids(h.edge_name(e), &copies.collect::<Vec<_>>());
            }
            b.build()
        };
        let cold = |seed| {
            let shape = RandomConfig {
                num_vertices: 12,
                num_edges: 12,
                min_arity: 2,
                max_arity: 3,
                connect: true,
            };
            random_hypergraph(&shape, seed)
        };
        let mut cases: Vec<(Hypergraph, usize)> = Vec::new();
        for seed in 0..2 {
            let (apart, wide) = (apart(seed), wide(seed));
            assert!(wide.num_vertices() > 64);
            for k in 1..=3 {
                cases.push((apart.clone(), k));
                cases.push((wide.clone(), k));
            }
        }
        cases.push((cold(0), 3));
        for (i, (h, k)) in cases.iter().enumerate() {
            let inst = CtdInstance::new(h, &soft_bags(h, *k));
            let what = format!("case {i}, k={k}");
            assert_matches_reference(&inst, &Trivial, &what);
            assert_matches_reference(&inst, &ConCov { k: *k }, &what);
        }
    }

    #[test]
    fn a_tripped_budget_is_an_error_and_a_retry_is_identical() {
        fn check<E: TdEvaluator>(inst: &CtdInstance, eval: &E, what: &str) {
            let control = seen(&best_on(inst, eval));
            let mut tripped = 0;
            for cap in [0, 1, 10, 100, 1_000, 10_000, 100_000_000] {
                match best_on_budgeted(inst, eval, &Budget::with_work_cap(cap)) {
                    Ok(best) => assert_eq!(seen(&best), control, "{what}, cap {cap}"),
                    Err(e) => {
                        assert_eq!(e, DecompError::DeadlineExceeded, "{what}, cap {cap}");
                        tripped += 1;
                    }
                }
                assert_eq!(seen(&best_on(inst, eval)), control, "{what}");
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
        let all = top_n(&h, &bags, &cost, 10_000);
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
        let all = top_n(&h, &bags, &cost, 10_000);
        for w in all.windows(2) {
            assert!(w[0].1.cost <= w[1].1.cost + 1e-9);
        }
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
        assert!(top_n(&h, &bags, &Trivial, usize::MAX).is_empty());
        let mut rng = SmallRng::seed_from_u64(1);
        assert!(sample_random(&h, &bags, &mut rng).is_none());
    }
}
