//! # softhw-workloads
//!
//! Synthetic stand-ins for the paper's three benchmark datasets
//! (Section 7, Appendix D) plus the six benchmark queries verbatim. Each
//! workload module exposes `schema()` (a row-less catalog sufficient for
//! binding and the combinatorial Table 1 experiments) and
//! `generate(scale, seed)` (deterministic skewed data sized for
//! laptop-scale runs).
//!
//! ## Why synthetic data
//!
//! The paper evaluates on TPC-DS, LSQB and Hetionet dumps of many
//! gigabytes, which cannot ship with a library or be fetched by its
//! tests. What its experiments measure does not need them:
//! - Table 1's counts (hypergraph sizes, candidate bags, `shw` and
//!   ConCov-`shw`) depend on the query's hypergraph alone, so `schema()`
//!   carries no rows.
//! - Figures 5–6 compare decompositions by the intermediate results they
//!   materialise, and those differ through the data's *shape*: the join
//!   keys each query touches, their PK/FK structure, and skew where the
//!   paper's estimates break down (a skewed non-key pair closing the
//!   cycle of `q_ds`, zipfian city and country sizes for `q_lb`,
//!   power-law degrees for the Hetionet self-joins). Each generator
//!   reproduces that shape for exactly the tables and columns its
//!   queries reference, and nothing else.
//!
//! Generation is seeded, so every run sees the same rows, and scaled to
//! finish in seconds; absolute times are therefore not the paper's, only
//! the ranking of decompositions is comparable.

#![warn(missing_docs)]

pub mod hetionet;
pub mod lsqb;
pub mod queries;
pub mod tpcds;

use softhw_engine::Database;

/// Returns the schema catalog a query name binds against.
pub fn schema_for(query_name: &str) -> Database {
    match query_name {
        "q_ds" => tpcds::schema(),
        "q_lb" => lsqb::schema(),
        _ => hetionet::schema(),
    }
}

/// Returns a populated database for a query name at default scales.
pub fn database_for(query_name: &str, seed: u64) -> Database {
    match query_name {
        "q_ds" => tpcds::generate(&tpcds::TpcdsScale::default(), seed),
        "q_lb" => lsqb::generate(&lsqb::LsqbScale::default(), seed),
        _ => hetionet::generate(&hetionet::HetionetScale::default(), seed),
    }
}
