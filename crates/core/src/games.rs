//! Robber & Marshals games and the paper's **Institutional Robber and
//! Marshals Game** (IRMG, Appendix A.1).
//!
//! In the classic game (Gottlob–Leone–Scarcello), `k` marshals occupy up
//! to `k` edges; the robber stands on a vertex and, when the marshals
//! move from `M` to `M'`, may run along paths avoiding `⋃M ∩ ⋃M'`.
//! Monotone winning strategies for `k` marshals characterise `hw ≤ k`.
//!
//! The institutional variant adds `k` *administrators* on edges `A` who
//! designate an `[A]`-edge-component `C`; marshals are only effective
//! inside it: the effectively marshalled space is `η = ⋃C ∩ ⋃M`. Children
//! of a game-tree node are the `[η']`-components `[η]`-connected to the
//! current escape space (the formal game-tree definition of the paper,
//! which Theorem 12 uses to show `mon-irmw(H) ≤ shw(H)`).
//!
//! The move spaces are the sets the paper builds them from: the plain
//! marshals reach `∅` and the `λ` unions `⋃M`, the institutional ones `∅`
//! and `Soft_{H,k}` (every non-empty `⋃C ∩ ⋃M` is a bag of Definition
//! 3). Both come from [`crate::soft::reference`], the seed's generator,
//! so the games check the solvers' arena path rather than share it.
//!
//! Both games are solved exactly by a least-fixpoint (attractor)
//! computation over the finite state space of `(η, escape-space)` pairs —
//! every play is memoryless in that pair. Exponential in `k` and `|E|`;
//! meant for the small hypergraphs of the paper's examples and for
//! cross-validating the width solvers (`mon-rmw = hw`).

use crate::soft::{self, SoftLimits};
use softhw_hypergraph::{BitSet, FxHashMap, Hypergraph};

/// Which game to solve.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GameVariant {
    /// Classic Robber & Marshals: `η = ⋃M`, robber blocked by
    /// `η_old ∩ η_new` while the marshals are in transit.
    RobberMarshals,
    /// Institutional RMG with the *move rule* of Appendix A.1, step (3):
    /// the robber runs along `[η_old ∩ η_new]`-avoiding paths, like in the
    /// classic game. This is the physically meaningful variant.
    Institutional,
    /// Institutional RMG with the paper's *game-tree* successor
    /// definition: children are the `[η_new]`-components that are
    /// `[η_old]`-connected to the escape space. Strictly cop-friendlier
    /// than [`GameVariant::Institutional`] (the robber cannot slip through
    /// positions the marshals are vacating); e.g. a single institutional
    /// marshal already wins `C4` under this reading. Kept because it is
    /// the formal device behind Theorem 12's proof.
    InstitutionalTreeRule,
}

/// A marshalling option: the effectively marshalled space `η` and the
/// `[η]`-vertex-components (the possible next escape spaces).
struct Move {
    eta: BitSet,
    comps: Vec<BitSet>,
}

/// The distinct `η` the marshalling side can reach with `k` pieces, with
/// their escape-space components: `∅` (no piece placed) and the unions
/// `⋃M` of 1..=`k` edges for the plain marshals, `∅` and `Soft_{H,k}`
/// for the institutional ones — every non-empty `⋃C ∩ ⋃M` is a bag of
/// Definition 3. Both sets come from [`soft::reference`], under limits
/// that cannot trip, so the games stay independent of the arena
/// generator the solvers use.
fn move_set(h: &Hypergraph, k: usize, variant: GameVariant) -> Vec<Move> {
    let unlimited = SoftLimits {
        max_lambda_sets: usize::MAX,
        max_bags: usize::MAX,
    };
    let etas = match variant {
        GameVariant::RobberMarshals => {
            soft::reference::lambda_unions(h.num_vertices(), h.edges(), k, &unlimited)
        }
        GameVariant::Institutional | GameVariant::InstitutionalTreeRule => {
            soft::reference::soft_bags_with(h, k, &unlimited)
        }
    }
    .expect("limits that cannot trip");
    std::iter::once(h.empty_vertex_set())
        .chain(etas)
        .map(|eta| Move {
            comps: h.vertex_components(&eta),
            eta,
        })
        .collect()
}

/// Solves the `k`-marshal game on `h`. Returns whether the marshalling
/// side has a (monotone, if requested) winning strategy.
pub fn has_winning_strategy(
    h: &Hypergraph,
    k: usize,
    variant: GameVariant,
    monotone: bool,
) -> bool {
    if h.num_vertices() == 0 {
        return true;
    }
    let moves = move_set(h, k, variant);
    // State space: (move index that produced η, escape component) plus the
    // initial state (η = ∅, ε = V). States with equal (η, ε) are merged.
    let mut state_ids: FxHashMap<(BitSet, BitSet), usize> = FxHashMap::default();
    let mut states: Vec<(BitSet, BitSet)> = Vec::new();
    let intern = |eta: &BitSet,
                  eps: &BitSet,
                  states: &mut Vec<(BitSet, BitSet)>,
                  ids: &mut FxHashMap<(BitSet, BitSet), usize>| {
        *ids.entry((eta.clone(), eps.clone())).or_insert_with(|| {
            states.push((eta.clone(), eps.clone()));
            states.len() - 1
        })
    };
    let initial = intern(
        &h.empty_vertex_set(),
        &h.all_vertices(),
        &mut states,
        &mut state_ids,
    );
    // Materialise all reachable states: (η_m, ε) for every move m and
    // component ε of it.
    for m in &moves {
        for c in &m.comps {
            intern(&m.eta, c, &mut states, &mut state_ids);
        }
    }
    // Least fixpoint: a state is winning if some move's successors are all
    // already winning (no successors = capture = winning).
    let mut winning = vec![false; states.len()];
    loop {
        let mut changed = false;
        for s in 0..states.len() {
            if winning[s] {
                continue;
            }
            let (eta_old, eps) = &states[s];
            'moves: for m in &moves {
                let blocker = match variant {
                    GameVariant::RobberMarshals | GameVariant::Institutional => {
                        eta_old.intersection(&m.eta)
                    }
                    GameVariant::InstitutionalTreeRule => eta_old.clone(),
                };
                let reach = reachable_avoiding(h, eps, &blocker);
                for c in &m.comps {
                    if !c.intersects(&reach) {
                        continue; // not a successor
                    }
                    if monotone && !c.is_subset(eps) {
                        continue 'moves; // move not monotone-admissible
                    }
                    let succ = state_ids[&(m.eta.clone(), c.clone())];
                    if !winning[succ] {
                        continue 'moves;
                    }
                }
                winning[s] = true;
                changed = true;
                break;
            }
        }
        if !changed {
            return winning[initial];
        }
    }
}

/// Vertices reachable from `from \ avoid` along paths avoiding `avoid`.
fn reachable_avoiding(h: &Hypergraph, from: &BitSet, avoid: &BitSet) -> BitSet {
    let mut reach = from.difference(avoid);
    let mut frontier: Vec<usize> = reach.to_vec();
    while let Some(v) = frontier.pop() {
        let mut nbrs = h.closed_neighbourhood(v).difference(avoid);
        nbrs.difference_with(&reach);
        for w in nbrs.iter() {
            reach.insert(w);
            frontier.push(w);
        }
    }
    reach
}

fn least_k(h: &Hypergraph, variant: GameVariant, monotone: bool) -> usize {
    (1..=h.num_edges().max(1))
        .find(|&k| has_winning_strategy(h, k, variant, monotone))
        .expect("|E| marshals always win")
}

/// Marshal width `mw(H)`: least `k` with a winning strategy in the
/// classic game. A lower bound on `ghw` (Adler).
pub fn marshal_width(h: &Hypergraph) -> usize {
    least_k(h, GameVariant::RobberMarshals, false)
}

/// Monotone marshal width: least `k` with a *monotone* winning strategy;
/// equals `hw(H)` (Gottlob–Leone–Scarcello).
pub fn mon_marshal_width(h: &Hypergraph) -> usize {
    least_k(h, GameVariant::RobberMarshals, true)
}

/// Institutional robber-and-marshal width `irmw(H)` (Appendix A.1, with
/// the physical move rule).
pub fn irm_width(h: &Hypergraph) -> usize {
    least_k(h, GameVariant::Institutional, false)
}

/// Monotone institutional width `mon-irmw(H)` under the physical move
/// rule.
pub fn mon_irm_width(h: &Hypergraph) -> usize {
    least_k(h, GameVariant::Institutional, true)
}

/// Monotone institutional width under the paper's game-tree successor
/// rule — the exact object of Theorem 12's `mon-irmw(H) ≤ shw(H)`.
pub fn mon_irm_width_tree(h: &Hypergraph) -> usize {
    least_k(h, GameVariant::InstitutionalTreeRule, true)
}

#[cfg(test)]
mod tests {
    use super::*;
    use softhw_hypergraph::named;
    use softhw_hypergraph::random::{random_hypergraph, RandomConfig};

    #[test]
    fn single_edge_width_1() {
        let mut b = softhw_hypergraph::HypergraphBuilder::new();
        b.edge("e", &["x", "y"]);
        let h = b.build();
        assert_eq!(mon_marshal_width(&h), 1);
        assert_eq!(mon_irm_width(&h), 1);
    }

    #[test]
    fn mon_marshal_width_equals_hw_on_examples() {
        // GLS: monotone RMG width = hw.
        for (h, expected) in [
            (named::cycle(4), 2),
            (named::cycle(5), 2),
            (named::four_cycle_query(), 2),
        ] {
            assert_eq!(mon_marshal_width(&h), expected);
            assert_eq!(crate::hw::hw(&h).0, expected);
        }
    }

    #[test]
    fn h2_game_widths_match_paper() {
        // Appendix A.1: for H2, 2 marshals win the plain game but a
        // monotone strategy needs 3 (= hw); the institutional game is
        // monotonically winnable with 2 (= shw).
        let h = named::h2();
        assert_eq!(marshal_width(&h), 2);
        assert_eq!(mon_marshal_width(&h), 3);
        assert_eq!(mon_irm_width(&h), 2);
        assert_eq!(irm_width(&h), 2);
    }

    #[test]
    fn mon_irmw_tree_bounded_by_shw_random() {
        // Theorem 12 on random small hypergraphs (the game-tree rule the
        // proof is stated for).
        for seed in 0..6 {
            let h = random_hypergraph(
                &RandomConfig {
                    num_vertices: 6,
                    num_edges: 6,
                    min_arity: 2,
                    max_arity: 3,
                    connect: true,
                },
                seed,
            );
            let (shw_val, _) = crate::shw::shw(&h);
            let mi = mon_irm_width_tree(&h);
            assert!(mi <= shw_val, "seed {seed}: mon-irmw {mi} > shw {shw_val}");
        }
    }

    #[test]
    fn tree_rule_is_cop_friendlier() {
        // The tree rule blocks the robber with the *old* marshalled space,
        // so it can only help the marshals.
        for h in [named::cycle(4), named::cycle(5), named::h2()] {
            assert!(mon_irm_width_tree(&h) <= mon_irm_width(&h));
        }
    }

    #[test]
    fn mon_rmw_equals_hw_random() {
        for seed in 0..6 {
            let h = random_hypergraph(
                &RandomConfig {
                    num_vertices: 6,
                    num_edges: 5,
                    min_arity: 2,
                    max_arity: 3,
                    connect: true,
                },
                seed,
            );
            let (hw_val, _) = crate::hw::hw(&h);
            assert_eq!(mon_marshal_width(&h), hw_val, "seed {seed}: mon-rmw != hw");
        }
    }

    #[test]
    fn widths_are_monotone_in_variant() {
        // irmw <= mon-irmw and mw <= mon-mw by definition.
        let h = named::h2();
        assert!(irm_width(&h) <= mon_irm_width(&h));
        assert!(marshal_width(&h) <= mon_marshal_width(&h));
    }
}
