//! The unified solve specification: one request surface over the
//! width solvers.
//!
//! A width query has five axes, and a [`SolveSpec`] names each once —
//! callers (the service dispatch, the CLI, benches) build a spec
//! instead of picking among per-corner entry points:
//!
//! - **class** — which width measure ([`SolveClass::Shw`] or
//!   [`SolveClass::Hw`]);
//! - **bound** — `None` for the exact width (a sweep), `Some(k)` for
//!   the `width ≤ k` decision;
//! - **budget** — a cooperative [`Budget`]; [`Budget::unlimited`] costs
//!   nothing and never trips;
//! - **reduce** — whether an `shw` solve runs the reduce-before-solve
//!   pipeline ([`SolveSpec::reduce`]); `hw` solves the input as sent;
//! - **limits** — the [`SoftLimits`] generation guards for `shw` paths.
//!
//! [`crate::solve`] is the entry point: it consumes a spec and answers
//! with a [`Solved`], keeping nothing between calls.
//! [`crate::cache::DecompCache::solve`] is the same function of
//! `(h, spec)` with a cross-query memo in front, for callers that ask
//! one schema several ways.

use crate::budget::Budget;
use crate::ghd::Ghd;
use crate::soft::SoftLimits;
use crate::td::TreeDecomposition;

/// Which width measure a [`SolveSpec`] asks about.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum SolveClass {
    /// Soft hypertree width (the paper's `shw`, Thm. 1 solver).
    Shw,
    /// Classical hypertree width (the det-k-decomp-style baseline).
    Hw,
}

/// A complete description of one width query: class, exact-vs-bounded,
/// budget, reduction policy, and generation limits. Construct with
/// [`SolveSpec::shw`] / [`SolveSpec::shw_leq`] / [`SolveSpec::hw`] /
/// [`SolveSpec::hw_leq`] and refine with the builder methods.
#[derive(Clone, Debug)]
pub struct SolveSpec {
    /// The width measure to compute or decide.
    pub class: SolveClass,
    /// `None`: compute the exact width (and a witness). `Some(k)`:
    /// decide `width ≤ k` (with a witness on yes).
    pub bound: Option<usize>,
    /// Cooperative deadline/cancellation budget. The unlimited budget
    /// allocates nothing and solves on the never-checking fast path.
    pub budget: Budget,
    /// Whether an `shw` solve runs the reduce-before-solve pipeline
    /// (simplify, bound, solve pieces, lift), for exact widths and
    /// `width ≤ k` decisions alike. The bound is a checked min-degree
    /// minor of each piece, which refutes the widths too narrow to hold it
    /// before anything is built ([`crate::reduce_solve`]); switching the
    /// pipeline off skips it too. Verdicts and widths do not depend on it;
    /// a witness may. An `hw` solve does not read it: it solves the input
    /// as sent, since dropping a subsumed edge can raise `hw`
    /// (`softhw_hypergraph::reduce`'s module docs).
    pub reduce: bool,
    /// Generation guards for the `Soft_{H,k}` candidate bag sets; only
    /// `shw` paths consult them.
    pub limits: SoftLimits,
}

impl SolveSpec {
    /// Exact `shw` under default limits, unlimited budget, reduction on.
    pub fn shw() -> Self {
        SolveSpec {
            class: SolveClass::Shw,
            bound: None,
            budget: Budget::unlimited(),
            reduce: true,
            limits: SoftLimits::default(),
        }
    }

    /// The `shw ≤ k` decision under default limits, unlimited budget.
    pub fn shw_leq(k: usize) -> Self {
        SolveSpec {
            bound: Some(k),
            ..SolveSpec::shw()
        }
    }

    /// Exact `hw`, unlimited budget (the reduction switch is on, and not
    /// read).
    pub fn hw() -> Self {
        SolveSpec {
            class: SolveClass::Hw,
            ..SolveSpec::shw()
        }
    }

    /// The `hw ≤ k` decision, unlimited budget.
    pub fn hw_leq(k: usize) -> Self {
        SolveSpec {
            bound: Some(k),
            ..SolveSpec::hw()
        }
    }

    /// Replaces the budget.
    pub fn with_budget(mut self, budget: Budget) -> Self {
        self.budget = budget;
        self
    }

    /// Sets the reduction policy (see [`SolveSpec::reduce`]).
    pub fn with_reduce(mut self, reduce: bool) -> Self {
        self.reduce = reduce;
        self
    }

    /// Replaces the generation limits.
    pub fn with_limits(mut self, limits: SoftLimits) -> Self {
        self.limits = limits;
        self
    }
}

/// The answer to a [`SolveSpec`], one variant per (class, exactness)
/// corner. Decisions carry `Some(witness)` on yes, `None` on no.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Solved {
    /// Exact `shw`: the width and a witness decomposition.
    ShwWidth(usize, TreeDecomposition),
    /// `shw ≤ k`: a witness iff the answer is yes.
    ShwDecision(Option<TreeDecomposition>),
    /// Exact `hw`: the width and a witness HD.
    HwWidth(usize, Ghd),
    /// `hw ≤ k`: a witness iff the answer is yes.
    HwDecision(Option<Ghd>),
}

impl Solved {
    /// The exact width, when this is an exact answer.
    pub fn width(&self) -> Option<usize> {
        match self {
            Solved::ShwWidth(w, _) | Solved::HwWidth(w, _) => Some(*w),
            _ => None,
        }
    }

    /// The decision bit, when this is a decision answer.
    pub fn accepted(&self) -> Option<bool> {
        match self {
            Solved::ShwDecision(w) => Some(w.is_some()),
            Solved::HwDecision(w) => Some(w.is_some()),
            _ => None,
        }
    }
}
