//! Soft hypertree width (Definition 4): `shw(H)` is the least `k` such
//! that a candidate tree decomposition for `Soft_{H,k}` exists.
//!
//! By Theorem 1 deciding `shw(H) ≤ k` for fixed `k` is polynomial (even
//! LogCFL); this module combines the `Soft_{H,k}` generator with
//! Algorithm 1. A witness "soft hypertree decomposition" is a CompNF tree
//! decomposition all of whose bags are `Soft_{H,k}` elements; each bag is
//! coverable by at most `k` edges (Theorem 2), so the result can always be
//! upgraded to a GHD of width ≤ k via [`crate::ghd::Ghd::from_td`].
//!
//! [`shw`] and [`shw_leq`] are [`crate::solve`] under the matching
//! [`SolveSpec`] — the cold door of the one solver pipeline
//! ([`crate::reduce_solve`]); other corners (explicit limits, no
//! reduction, a budget) are that door under
//! [`SolveSpec::with_limits`], [`SolveSpec::with_reduce`] and
//! [`SolveSpec::with_budget`]. What lives here are that pipeline's `shw`
//! leaves: one `shw ≤ k` decision against a caller-held [`BlockIndex`]
//! ([`shw_leq_indexed_budgeted`]), and the prepared instance a cold
//! decision runs on ([`soft_instance`]).

use crate::budget::Budget;
use crate::ctd::CtdInstance;
use crate::error::DecompError;
use crate::soft::{soft_bag_ids_budgeted, SoftLimits};
use crate::spec::{SolveSpec, Solved};
use crate::td::TreeDecomposition;
use softhw_hypergraph::{BlockIndex, Hypergraph};

/// Decides `shw(H) ≤ k`; on success returns a soft hypertree
/// decomposition of width `k`.
pub fn shw_leq(h: &Hypergraph, k: usize) -> Option<TreeDecomposition> {
    match crate::solve(h, &SolveSpec::shw_leq(k)) {
        Ok(Solved::ShwDecision(td)) => td,
        other => panic!("an shw ≤ k decision under default limits answered {other:?}"),
    }
}

/// A fresh [`BlockIndex`] over `h`, under the `index_build` span: the
/// one place the solver pipeline — a cold sweep or decision (one per
/// piece), [`soft_instance`], a [`crate::cache::DecompCache`] entry's
/// first `shw` query — builds an index.
pub(crate) fn new_index(h: &Hypergraph) -> BlockIndex {
    let _span = softhw_obs::span(softhw_obs::stage::INDEX_BUILD);
    BlockIndex::new(h)
}

/// `Soft_{H,k}` and the prepared `CandidateTD` instance over it on an
/// index built for this call — what a cold `shw ≤ k` decision
/// ([`crate::solve`]) runs Algorithm 1 on for each piece, for callers that
/// run their own DP over the block tables (Algorithm 2,
/// [`crate::ctd_opt`]).
///
/// The index is the build's to release ([`CtdInstance`]): all but its
/// rows go once the blocks are derived, and the rows are gathered in
/// place into the instance's, so no second copy of them is alive beside
/// the inverted index, the DP or the caller's use of the instance.
pub fn soft_instance(
    h: &Hypergraph,
    k: usize,
    limits: &SoftLimits,
    budget: &Budget,
) -> Result<CtdInstance, DecompError> {
    soft_instance_on(new_index(h), k, limits, budget)
}

/// [`soft_instance`] on an index the caller is done with: the last width
/// of a cold sweep ([`crate::solve`]) hands over the index its earlier
/// widths shared.
pub(crate) fn soft_instance_on(
    mut index: BlockIndex,
    k: usize,
    limits: &SoftLimits,
    budget: &Budget,
) -> Result<CtdInstance, DecompError> {
    let bags = soft_bag_ids_budgeted(&mut index, k, limits, budget)?;
    CtdInstance::build_owned(index, &bags, budget)
}

/// Decides `shw(H) ≤ k` against a shared [`BlockIndex`], with a
/// cooperative [`Budget`] threaded through candidate generation, instance
/// build, and the satisfaction DP. Generation and block construction
/// reuse every component, block, and component union the index has
/// already cached — from smaller widths or other solvers on the same
/// hypergraph. The index stays valid on abort (it only ever holds
/// fully-computed cache entries), so a retry reuses everything already
/// cached.
pub fn shw_leq_indexed_budgeted(
    index: &mut BlockIndex,
    k: usize,
    limits: &SoftLimits,
    budget: &Budget,
) -> Result<Option<TreeDecomposition>, DecompError> {
    let bags = soft_bag_ids_budgeted(index, k, limits, budget)?;
    CtdInstance::build_budgeted(index, &bags, budget)?.try_decide_budgeted(budget)
}

/// Computes `shw(H)` exactly: the least `k` admitting a soft HD, together
/// with a witness decomposition — [`crate::solve`] under
/// [`SolveSpec::shw`]. The input is first simplified by the
/// width-preserving reduction pipeline ([`softhw_hypergraph::reduce()`]);
/// each reduced piece is swept and the piece witnesses are lifted back to
/// one decomposition of the original hypergraph
/// ([`crate::reduce_solve`]). Irreducible connected inputs take the raw
/// sweep unchanged; [`SolveSpec::with_reduce`]`(false)` asks for the raw
/// sweep on any input.
pub fn shw(h: &Hypergraph) -> (usize, TreeDecomposition) {
    match crate::solve(h, &SolveSpec::shw()) {
        Ok(Solved::ShwWidth(w, td)) => (w, td),
        other => panic!("the shw sweep under default limits answered {other:?}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hw;
    use softhw_hypergraph::named;
    use softhw_hypergraph::random::{random_hypergraph, RandomConfig};

    #[test]
    fn acyclic_has_shw_1() {
        let mut b = softhw_hypergraph::HypergraphBuilder::new();
        b.edge("e1", &["a", "b", "c"]);
        b.edge("e2", &["c", "d"]);
        let h = b.build();
        let (w, td) = shw(&h);
        assert_eq!(w, 1);
        assert_eq!(td.validate(&h), Ok(()));
    }

    #[test]
    fn h2_has_shw_2() {
        // Example 1's headline: shw(H2) = 2 < hw(H2) = 3.
        let h = named::h2();
        assert!(shw_leq(&h, 1).is_none());
        let td = shw_leq(&h, 2).expect("shw(H2) = 2");
        assert_eq!(td.validate(&h), Ok(()));
        assert!(td.is_comp_nf(&h));
        // Every bag is coverable by <= 2 edges, yielding a width-2 GHD.
        let ghd = crate::ghd::Ghd::from_td(&h, td, 2).unwrap();
        assert!(ghd.validate(&h).is_ok());
        assert_eq!(ghd.width(), 2);
    }

    #[test]
    fn cycles_shw_2() {
        for n in [4, 5, 6, 8] {
            let h = named::cycle(n);
            assert!(shw_leq(&h, 1).is_none(), "C{n}");
            assert!(shw_leq(&h, 2).is_some(), "C{n}");
        }
    }

    #[test]
    fn reduced_sweep_agrees_with_raw_sweep() {
        for h in [named::h2(), named::cycle(8), named::triangle_star(3)] {
            let (w_red, td_red) = shw(&h);
            let raw = crate::solve(&h, &SolveSpec::shw().with_reduce(false));
            let Ok(Solved::ShwWidth(w_raw, td_raw)) = raw else {
                panic!("the raw sweep of a connected input answers with a width");
            };
            assert_eq!(w_red, w_raw);
            assert_eq!(td_red.validate(&h), Ok(()));
            assert_eq!(td_raw.validate(&h), Ok(()));
            assert!(td_raw.is_comp_nf(&h));
        }
    }

    #[test]
    fn shw_never_exceeds_hw_on_random_graphs() {
        // Theorem 2: ghw <= shw <= hw. Randomised check of the right half.
        for seed in 0..8 {
            let h = random_hypergraph(
                &RandomConfig {
                    num_vertices: 7,
                    num_edges: 7,
                    min_arity: 2,
                    max_arity: 3,
                    connect: true,
                },
                seed,
            );
            let (hw_val, _) = hw::hw(&h);
            let (shw_val, td) = shw(&h);
            assert!(
                shw_val <= hw_val,
                "seed {seed}: shw {shw_val} > hw {hw_val}"
            );
            assert_eq!(td.validate(&h), Ok(()));
        }
    }

    #[test]
    fn soft_td_bags_have_small_covers() {
        // Every Soft_{H,k} bag is a subset of a union of k edges
        // (Theorem 2's ghw <= shw argument); check on the witness.
        let h = named::h2();
        let td = shw_leq(&h, 2).unwrap();
        for bag in td.bags() {
            assert!(crate::cover::find_cover(&h, bag, 2).is_some());
        }
    }
}
