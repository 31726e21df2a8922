//! # softhw-service
//!
//! The decomposition service front-end: the paper's repeated-query
//! setting (Algorithms 1–2 evaluated per schema, the Section 7 engine
//! experiments) is a request/response workload, and this crate turns
//! the workspace's cross-query machinery into a long-lived server for
//! it.
//!
//! - [`wire`]: the newline-framed request/response format. Requests
//!   carry a schema (HyperBench text or a SQL query routed through the
//!   query AST) plus a request class (`SHW`, `SHW_LEQ k`, `HW`,
//!   `HW_LEQ k`, `BEST eval k`, `STATS`); responses frame witness
//!   decompositions as flat bag words + a dense node table
//!   ([`TdFrame`], softhw-core's one witness frame, re-exported here;
//!   [`wire`] is only its text codec).
//! - [`state`]: the shared handler state behind one entry point,
//!   [`ServiceState::handle`], which returns the encoded response frame
//!   — a bank of result-cache stripes routed by the schema's structural
//!   hash (the one hash a request computes; it also keys the store), the
//!   service's one in-memory tier, holding each answer as the frame it is
//!   sent as. A
//!   request is a front half — scan the body to its canonical form,
//!   hash, one result-cache probe: all a repeated request costs — and a
//!   back half that runs only on a miss, from what the front half
//!   computed; with `--store`, a miss probes the disk-backed
//!   [`softhw_store::Store`]
//!   (persisted witnesses are re-validated before they are served,
//!   fresh results are persisted write-behind, and boot warm-starts the
//!   result caches from the hottest stored schemas); a miss on both
//!   solves cold ([`softhw_core::solve`]) and keeps nothing of the
//!   solver. Two private modules carry its halves:
//!   `persist` (the store attachment) and `metrics` (the registry and
//!   the `STATS` / `METRICS` / slow-ring rendering).
//! - [`server`]: the `poll(2)` event loop and worker pool (std threads
//!   only, like the rest of the workspace) — the one serving path. The
//!   loop runs the front half of a head-of-line request itself and
//!   answers a hit without a worker.
//!
//! Handlers are hardened end to end: malformed schemas, blown
//! generation limits, and internal inconsistencies all produce `ERR`
//! responses — the process never dies on request content. Concurrency
//! correctness is property-tested: under simultaneous mixed-schema
//! traffic every response is bit-identical to what a fresh server
//! answers that one request (`tests/service_props.rs`).

#![warn(missing_docs)]

mod metrics;
mod persist;
pub mod server;
pub mod state;
pub mod wire;

pub use server::{roundtrip, ServeOptions, Server, ShutdownHandle};
pub use softhw_core::TdFrame;
pub use state::{RequestCtx, ServiceConfig, ServiceState};
pub use wire::{
    read_frame, BatchRequest, BodyFormat, EvalKind, FrameDecoder, HeaderVerb, Request,
    RequestClass, RequestHeader, Response, WireError, WireRequest, PROTOCOL_VERBS,
    PROTOCOL_VERSION,
};
