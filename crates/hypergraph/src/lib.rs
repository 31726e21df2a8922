//! Hypergraph substrate for the soft hypertree width framework.
//!
//! This crate provides the combinatorial ground floor of the repository:
//! dense bitsets, the [`BagArena`] interner with word-level set algebra
//! that all solvers route candidate-bag storage through, the
//! [`BlockIndex`] cache of `[S]`-components and blocks shared across
//! solver calls, the [`Hypergraph`] type with the `[S]`-connectivity
//! machinery of the paper's Section 2, a parser for the HyperBench text
//! format, the named hypergraphs that appear in the paper (`H2`, `H3`,
//! `H'3`, cycles, the example queries), and random generators used by the
//! property tests and benchmarks.

#![warn(missing_docs)]

pub mod arena;
pub mod bitset;
pub mod blocks;
pub mod cache;
pub mod fxhash;
#[allow(clippy::module_inception)]
pub mod hypergraph;
pub mod named;
pub mod pack;
pub mod parse;
pub mod random;
pub mod reduce;
pub mod stats;

pub use arena::{ArenaSnapshot, BagArena, BagId};
pub use bitset::BitSet;
pub use blocks::{BlockIndex, BlockIndexStats, BlockRow};
pub use cache::structural_hash;
pub use fxhash::{FxHashMap, FxHashSet};
pub use hypergraph::{Hypergraph, HypergraphBuilder};
pub use parse::{parse_hypergraph, render_hypergraph, scan_hypergraph, ParseError, Scan};
pub use reduce::{reduce, ReduceEvent, ReducePiece, ReduceStats, Reduction};
