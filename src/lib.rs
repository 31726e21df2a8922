//! # softhw — Soft and Constrained Hypertree Width
//!
//! A from-scratch Rust implementation of *Soft and Constrained Hypertree
//! Width* (PODS 2025): soft hypertree decompositions computed through
//! candidate tree decompositions, the iterated `shw_i` hierarchy
//! converging to `ghw`, constrained and preference-guided decomposition
//! (ConCov / ShallowCyc / PartClust / cost models), the classical `hw`
//! baseline, the (institutional) robber & marshals games, and a complete
//! query-evaluation substrate (SQL-subset frontend, in-memory relational
//! engine, Yannakakis execution, the paper's two cost functions, and the
//! three synthetic benchmark workloads).
//!
//! This crate is a facade: it re-exports the workspace crates under one
//! namespace so the examples and downstream users have a single import.
//!
//! ```
//! use softhw::prelude::*;
//!
//! let h = softhw::hypergraph::named::h2();
//! let (width, td) = softhw::core::shw::shw(&h);
//! assert_eq!(width, 2);            // Example 1 of the paper
//! assert!(td.validate(&h).is_ok());
//! ```

#![warn(missing_docs)]

pub use softhw_core as core;
pub use softhw_engine as engine;
pub use softhw_hypergraph as hypergraph;
pub use softhw_query as query;
pub use softhw_workloads as workloads;

/// Convenience re-exports of the most commonly used items.
pub mod prelude {
    pub use softhw_core::constraints::{concov_filter, ConCov, Trivial};
    pub use softhw_core::ctd_opt::{best, top_n, TdEvaluator};
    pub use softhw_core::{candidate_td, soft_bags, Ghd, TreeDecomposition};
    pub use softhw_engine::{Database, Relation, Table};
    pub use softhw_hypergraph::{BitSet, Hypergraph, HypergraphBuilder};
    pub use softhw_query::{atom_relations, bind, build_plan, execute, parse_sql};
}
