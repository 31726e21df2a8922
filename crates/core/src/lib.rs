//! # softhw-core
//!
//! The paper's primary contribution: soft hypertree decompositions and
//! soft hypertree width, computed through candidate tree decompositions
//! (CTDs), plus the constrained/preference-guided decomposition framework
//! and the classical baselines it is compared against.
//!
//! Module map (paper section in parentheses):
//! - [`td`], [`ghd`]: (generalised) hypertree decompositions and checks (§2)
//! - [`ctd`]: blocks, bases, Algorithm 1 as one pass in dependency order (§3)
//! - [`spec`]: the unified [`SolveSpec`] request surface over every
//!   (class × exactness × budget × reduction × limits) corner
//! - [`reduce_solve`]: the one solver front, [`solve`]: the `shw`
//!   pipeline (reduce → sweep each piece → lift) and the `hw` sweep on
//!   the input as sent
//! - [`cache`]: [`DecompCache`], the cross-query memo in front of the same
//!   front (one structural-hash keyed map of warm indexes + width
//!   decisions under an LRU bound); its whole surface is `new`,
//!   `with_capacity`, `solve` and `stats`
//! - [`soft`]: the candidate bag set `Soft_{H,k}` (§4, Def. 3)
//! - [`soft_iter`]: the iterated hierarchy `Soft^i`, `shw_i`, ghw as the
//!   fixpoint (§5), and the one `Soft^i_{H,k}` membership search
//!   ([`soft::soft_witness`] is its level 0)
//! - [`shw`]: the shw solver (§4, Thm. 1): the named `shw` / `shw_leq`
//!   spellings of [`solve`], its per-width leaf and the cold instance
//! - [`hw`]: det-k-decomp-style hypertree width baseline (§2), under the
//!   same two named spellings and one leaf
//! - [`cover`]: (connected) edge covers (§6, ConCov)
//! - [`ctd_opt`]: Algorithm 2 — constraints and preferences over CTDs,
//!   top-n enumeration, random sampling (§6)
//! - [`constraints`]: ConCov / ShallowCyc / PartClust / cost evaluators (§6)
//! - [`games`]: (institutional) robber & marshals games (App. A.1)
//! - [`budget`]: cooperative deadline/cancellation budgets threaded
//!   through every long-running solver path

#![warn(missing_docs)]

pub mod budget;
pub mod cache;
pub mod constraints;
pub mod cover;
pub mod ctd;
pub mod ctd_opt;
pub mod error;
pub mod games;
pub mod ghd;
pub mod hw;
pub mod reduce_solve;
pub mod shw;
pub mod soft;
pub mod soft_iter;
pub mod spec;
pub mod td;

pub use budget::Budget;
pub use cache::DecompCache;
pub use ctd::{candidate_td, CtdInstance};
pub use error::DecompError;
pub use reduce_solve::solve;

pub use ghd::Ghd;
pub use soft::{soft_bags, SoftLimits};
pub use spec::{SolveClass, SolveSpec, Solved};
pub use td::{FrameError, TdError, TdFrame, TreeDecomposition};
