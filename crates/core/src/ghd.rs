//! Generalised hypertree decompositions (GHDs) and hypertree
//! decompositions (HDs) — a GHD plus the *special condition*
//! `B(T_u) ∩ ⋃λ(u) ⊆ B(u)` (Section 2).

use crate::cover;
use crate::td::{TdError, TreeDecomposition};
use softhw_hypergraph::Hypergraph;

/// A generalised hypertree decomposition `(T, λ, B)`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Ghd {
    /// The underlying tree decomposition `(T, B)`.
    pub td: TreeDecomposition,
    /// `λ(u)`: for each node, the edge ids covering its bag.
    pub lambdas: Vec<Vec<usize>>,
}

impl Ghd {
    /// GHD width: `max |λ(u)|`.
    pub fn width(&self) -> usize {
        self.lambdas.iter().map(Vec::len).max().unwrap_or(0)
    }

    /// Validates the GHD conditions: the underlying TD is valid and
    /// `B(u) ⊆ ⋃λ(u)` for every node.
    pub fn validate(&self, h: &Hypergraph) -> Result<(), TdError> {
        self.td.validate(h)?;
        assert_eq!(self.lambdas.len(), self.td.num_nodes());
        for u in 0..self.td.num_nodes() {
            let cov = h.union_of_edges(self.lambdas[u].iter().copied());
            if !self.td.bag(u).is_subset(&cov) {
                return Err(TdError::NotCovered { node: u });
            }
        }
        Ok(())
    }

    /// Checks the special condition, i.e. whether this GHD is an HD:
    /// for every node `u`, `B(T_u) ∩ ⋃λ(u) ⊆ B(u)`.
    pub fn check_special_condition(&self, h: &Hypergraph) -> Result<(), TdError> {
        for u in 0..self.td.num_nodes() {
            let mut below = self.td.subtree_vertices(u);
            below.intersect_with(&h.union_of_edges(self.lambdas[u].iter().copied()));
            if !below.is_subset(self.td.bag(u)) {
                return Err(TdError::SpecialConditionViolated { node: u });
            }
        }
        Ok(())
    }

    /// True iff this is a valid HD of `h` (valid GHD + special condition).
    pub fn is_hd(&self, h: &Hypergraph) -> bool {
        self.validate(h).is_ok() && self.check_special_condition(h).is_ok()
    }

    /// Upgrades a plain tree decomposition into a GHD by computing, for
    /// each bag, some edge cover with at most `k` edges. Returns `None` if
    /// a bag has no cover of size `<= k`.
    pub fn from_td(h: &Hypergraph, td: TreeDecomposition, k: usize) -> Option<Ghd> {
        let mut lambdas = Vec::with_capacity(td.num_nodes());
        for u in 0..td.num_nodes() {
            lambdas.push(cover::find_cover(h, td.bag(u), k)?);
        }
        Some(Ghd { td, lambdas })
    }

    /// Pretty-prints bags with λ-labels.
    pub fn render(&self, h: &Hypergraph) -> String {
        let mut out = String::new();
        fn rec(g: &Ghd, h: &Hypergraph, u: usize, depth: usize, out: &mut String) {
            out.push_str(&"  ".repeat(depth));
            let lam: Vec<String> = g.lambdas[u].iter().map(|&e| h.render_edge(e)).collect();
            out.push_str(&format!(
                "λ: [{}]  χ: {}\n",
                lam.join(", "),
                h.render_vertex_set(g.td.bag(u))
            ));
            for &c in g.td.children(u) {
                rec(g, h, c, depth + 1, out);
            }
        }
        rec(self, h, self.td.root(), 0, &mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use softhw_hypergraph::named;

    /// The width-3 GHD of H'3 from Figure 2b (root plus the right-hand
    /// chain of the figure; left chain elided in this unit test — the full
    /// decomposition is exercised in the soft_iter tests).
    #[test]
    fn from_td_covers_bags() {
        let h = named::h2();
        let (h2, td) = crate::td::tests::h2_soft_td();
        assert_eq!(h.num_edges(), h2.num_edges());
        let ghd = Ghd::from_td(&h2, td, 2).expect("width-2 covers exist");
        assert_eq!(ghd.width(), 2);
        assert_eq!(ghd.validate(&h2), Ok(()));
    }

    #[test]
    fn width_counts_largest_lambda() {
        let h = named::cycle(4);
        let mut td = TreeDecomposition::new(h.all_vertices());
        let _ = &mut td;
        let ghd = Ghd::from_td(&h, td, 2).unwrap();
        assert_eq!(ghd.width(), 2);
    }

    #[test]
    fn special_condition_detects_violation() {
        // Root bag {x,y}, λ = {e_xyz} where z occurs below: SCV at root.
        let mut b = softhw_hypergraph::HypergraphBuilder::new();
        b.edge("exyz", &["x", "y", "z"]);
        b.edge("ezw", &["z", "w"]);
        let h = b.build();
        let mut td = TreeDecomposition::new(h.vset(&["x", "y"]));
        let c = td.add_child(td.root(), h.vset(&["x", "y", "z"]));
        td.add_child(c, h.vset(&["z", "w"]));
        let ghd = Ghd {
            td,
            lambdas: vec![vec![0], vec![0], vec![1]],
        };
        assert_eq!(ghd.validate(&h), Ok(()));
        assert!(matches!(
            ghd.check_special_condition(&h),
            Err(TdError::SpecialConditionViolated { node: 0 })
        ));
        assert!(!ghd.is_hd(&h));
    }

    #[test]
    fn hd_accepts_well_formed() {
        let mut b = softhw_hypergraph::HypergraphBuilder::new();
        b.edge("exyz", &["x", "y", "z"]);
        b.edge("ezw", &["z", "w"]);
        let h = b.build();
        let mut td = TreeDecomposition::new(h.vset(&["x", "y", "z"]));
        td.add_child(td.root(), h.vset(&["z", "w"]));
        let ghd = Ghd {
            td,
            lambdas: vec![vec![0], vec![1]],
        };
        assert!(ghd.is_hd(&h));
    }

    #[test]
    fn from_td_fails_when_width_too_small() {
        let h = named::cycle(6);
        let td = TreeDecomposition::new(h.all_vertices());
        assert!(Ghd::from_td(&h, td, 2).is_none());
    }
}
