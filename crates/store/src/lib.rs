//! # softhw-store
//!
//! The persistent decomposition store: a disk-backed, compact binary
//! result cache that survives service restarts.
//!
//! The paper's premise is that a decomposition is computed once and
//! reused across many query evaluations; exact width computation is
//! expensive enough that the witness is the most valuable artefact the
//! service produces. Before this crate, every `softhw-serve` restart
//! threw that state away. The store keeps, per structurally distinct
//! schema, the canonical hypergraph (for rebuilds and collision
//! rejection), a **shared bag dictionary** (every distinct witness bag
//! stored once per schema), and the set of `(request class → answer)`
//! results with witnesses served as softhw-core's `TdFrame`, the frame
//! the wire carries — so a restart can answer a repeated request
//! byte-identically without touching a solver.
//!
//! - [`record`]: the versioned, crc64-checksummed, varint-packed record
//!   format (`Schema` / `Bags` / `Result`).
//! - [`store`]: the append-only log + in-memory index
//!   ([`Store::open`]/[`Store::get`]/[`Store::put`]/[`Store::compact`]),
//!   with torn-tail recovery that truncates to the last valid record.
//!
//! Trust model: records are integrity-checked (framing, crc64, semantic
//! validation at replay), and every witness served out of the store is
//! **re-validated against its schema by the consumer** before anything
//! reaches a client — a corrupt or stale store degrades to a cold
//! recompute with byte-identical answers, never to a wrong answer or a
//! panic.

#![warn(missing_docs)]

pub mod fault;
pub mod record;
pub mod store;

pub use fault::{FaultInjector, FaultKind, FaultPlan};
pub use record::{crc64, ClassKey, ResultRecord, StoreRecord, StoredAnswer, StoredTd};
pub use store::{
    schema_digest, schema_key, FrameRef, HitAnswer, PutAnswer, SchemaSummary, Store, StoreHit,
    StoreStats,
};
