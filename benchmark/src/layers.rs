//! The traced pass's in-process replay: for one request, call each
//! layer's public functions the way the server's blocking path does,
//! with a span around every call. Only the functions listed in
//! `SURFACE.md` are called.

use crate::check::schema_hypergraph;
use crate::gen::{Class, Req};
use crate::trace::Tracer;
use softhw_core::constraints::ConCov;
use softhw_core::ctd_opt::best_on;
use softhw_core::soft::{soft_bag_ids, SoftLimits};
use softhw_core::{CtdInstance, DecompCache, SolveSpec, Solved, TreeDecomposition};
use softhw_hypergraph::{parse_hypergraph, reduce, structural_hash, BlockIndex, Hypergraph};
use softhw_service::{FrameDecoder, Response, TdFrame, WireRequest};
use softhw_store::{ClassKey, FrameRef, PutAnswer, Store};
use std::collections::HashSet;
use std::hint::black_box;

/// Span names (also the keys the per-layer metrics are read by).
pub mod span {
    pub const REQUEST_DECODE: &str = "service.request_decode";
    pub const RESPONSE_ENCODE: &str = "service.response_encode";
    pub const RESPONSE_DECODE: &str = "service.response_decode";
    pub const PARSE: &str = "hypergraph.parse";
    pub const SQL_PARSE: &str = "query.sql_parse";
    pub const HASH: &str = "hypergraph.hash";
    pub const REDUCE: &str = "hypergraph.reduce";
    pub const INDEX_BUILD: &str = "hypergraph.index_build";
    pub const ENUMERATE: &str = "core.enumerate";
    pub const INSTANCE_BUILD: &str = "core.instance_build";
    pub const SATISFY: &str = "core.satisfy";
    pub const EXTRACT: &str = "core.extract";
    pub const VALIDATE: &str = "core.validate";
    pub const BEST: &str = "core.best";
    pub const HW: &str = "core.hw";
    pub const SOLVE_COLD: &str = "core.solve_cold";
    pub const SOLVE_WARM: &str = "core.solve_warm";
    pub const STORE_PUT: &str = "store.put";
    pub const STORE_GET: &str = "store.get";
    /// The by-layer re-run of a cold solve. Its children are the layer
    /// spans; it is excluded from the ledger because `core.solve_cold`
    /// already counts the same work once.
    pub const BY_LAYER: &str = "replay.by_layer";
}

/// Spans that stand for work on the server's blocking path of a request
/// (each counted once); the ledger sums these.
pub const LEDGER_SPANS: [&str; 9] = [
    span::REQUEST_DECODE,
    span::PARSE,
    span::SQL_PARSE,
    span::HASH,
    span::SOLVE_COLD,
    span::SOLVE_WARM,
    span::HW,
    span::BEST,
    span::RESPONSE_ENCODE,
];

pub struct Replayer {
    /// Mirrors the server's solver caches: first sight of a
    /// (schema, class) is a cold solve, a repeat is a warm one.
    mirror: DecompCache,
    seen: HashSet<(u64, Class)>,
    limits: SoftLimits,
    store: Option<Store>,
    /// Exact counts over everything replayed so far.
    pub enumerate_bags: u64,
    pub instance_blocks: u64,
}

impl Replayer {
    pub fn new(store: Option<Store>) -> Replayer {
        Replayer {
            mirror: DecompCache::with_capacity(1024),
            seen: HashSet::new(),
            limits: SoftLimits::default(),
            store,
            enumerate_bags: 0,
            instance_blocks: 0,
        }
    }

    /// Marks `(schema, class)` as already answered (set-up pre-answers).
    pub fn prime(&mut self, req: &Req) -> Result<(), String> {
        let h = schema_hypergraph(req)?;
        self.solve_mirror(req.class, &h)?;
        self.seen.insert((structural_hash(&h), req.class));
        Ok(())
    }

    pub fn into_store(self) -> Option<Store> {
        self.store
    }

    fn solve_mirror(&mut self, class: Class, h: &Hypergraph) -> Result<Option<Answer>, String> {
        let spec = match class {
            Class::Shw => SolveSpec::shw(),
            Class::ShwLeq2 => SolveSpec::shw_leq(2.min(h.num_edges())),
            Class::Hw => SolveSpec::hw(),
            Class::BestConcov2 | Class::Stats => return Ok(None),
        };
        let solved = self.mirror.solve(h, &spec).map_err(|e| e.to_string())?;
        Ok(Some(match solved {
            Solved::ShwWidth(w, td) => Answer::Width(w, td),
            Solved::HwWidth(w, g) => Answer::Width(w, g.td),
            Solved::ShwDecision(td) => Answer::Decision(td),
            Solved::HwDecision(g) => Answer::Decision(g.map(|g| g.td)),
        }))
    }

    /// One `shw ≤ k` decision by layers; returns the witness on accept.
    fn decide_by_layers(
        &mut self,
        tr: &mut Tracer,
        index: &mut BlockIndex,
        k: usize,
    ) -> Result<Option<TreeDecomposition>, String> {
        let limits = self.limits.clone();
        let ids = tr
            .scope(span::ENUMERATE, |_| soft_bag_ids(index, k, &limits))
            .map_err(|e| format!("{e:?}"))?;
        self.enumerate_bags += ids.len() as u64;
        let inst = tr.scope(span::INSTANCE_BUILD, |_| CtdInstance::build(index, &ids));
        self.instance_blocks += inst.blocks.len() as u64;
        let sat = tr.scope(span::SATISFY, |_| inst.satisfy());
        if !sat.accept {
            return Ok(None);
        }
        Ok(tr.scope(span::EXTRACT, |_| inst.extract(&sat)))
    }

    /// The cold SHW / SHW_LEQ path, layer by layer.
    fn shw_by_layers(
        &mut self,
        tr: &mut Tracer,
        class: Class,
        h: &Hypergraph,
    ) -> Result<(), String> {
        let sweep = class == Class::Shw;
        // Exact solves reduce first and sweep each piece; bounded
        // decisions decide on the raw input (see `SolveSpec::reduce`).
        let pieces: Vec<Hypergraph> = if sweep {
            let red = tr.scope(span::REDUCE, |_| reduce(h));
            if red.is_trivial() {
                vec![h.clone()]
            } else {
                red.pieces.iter().map(|p| p.h.clone()).collect()
            }
        } else {
            vec![h.clone()]
        };
        for piece in &pieces {
            let mut index = tr.scope(span::INDEX_BUILD, |_| BlockIndex::new(piece));
            let widths = if sweep {
                1..=piece.num_edges().max(1)
            } else {
                let k = 2.min(piece.num_edges());
                k..=k
            };
            for k in widths {
                if let Some(td) = self.decide_by_layers(tr, &mut index, k)? {
                    tr.scope(span::VALIDATE, |_| td.validate(piece))
                        .map_err(|e| format!("replayed witness invalid: {e:?}"))?;
                    break;
                }
            }
        }
        Ok(())
    }

    /// Replays one request in-process under the tracer's current request
    /// id. `req_frame` is what was sent, `resp_raw` what came back.
    pub fn replay(
        &mut self,
        tr: &mut Tracer,
        req: &Req,
        req_frame: &[u8],
        resp_raw: &[u8],
    ) -> Result<(), String> {
        // The client's own share of the roundtrip.
        tr.scope(span::RESPONSE_DECODE, |_| {
            crate::client::decode_response(black_box(resp_raw)).map(black_box)
        })?;
        let body = tr.scope(span::REQUEST_DECODE, |_| -> Result<String, String> {
            let mut frames = Vec::new();
            FrameDecoder::new()
                .push(black_box(req_frame), &mut frames)
                .map_err(|e| e.to_string())?;
            let lines = frames.first().ok_or("request frame incomplete")?;
            match WireRequest::decode(lines).map_err(|e| e.to_string())? {
                WireRequest::Single(r) => Ok(r.body),
                WireRequest::Batch(_) => Err("traced requests are single frames".into()),
            }
        })?;
        let h = if req.schema.sql {
            tr.scope(span::SQL_PARSE, |_| {
                let q = softhw_query::parse_sql(&body).map_err(|e| e.to_string())?;
                softhw_query::ast_hypergraph(&q).map_err(|e| e.to_string())
            })?
        } else {
            tr.scope(span::PARSE, |_| {
                parse_hypergraph(&body).map_err(|e| e.message.to_string())
            })?
        };
        let hash = tr.scope(span::HASH, |_| structural_hash(&h));
        let first_sight = self.seen.insert((hash, req.class));
        let answer = match (req.class, first_sight) {
            (Class::Stats, _) => {
                black_box(tr.scope(span::REDUCE, |_| reduce(&h)));
                None
            }
            (Class::BestConcov2, false) => None,
            (Class::BestConcov2, true) => {
                let k = 2.min(h.num_edges());
                let limits = self.limits.clone();
                let (bags, blocks) = tr.scope(span::BEST, |tr| -> Result<(u64, u64), String> {
                    let mut index = tr.scope(span::INDEX_BUILD, |_| BlockIndex::new(&h));
                    let ids = tr
                        .scope(span::ENUMERATE, |_| soft_bag_ids(&mut index, k, &limits))
                        .map_err(|e| format!("{e:?}"))?;
                    let inst = tr.scope(span::INSTANCE_BUILD, |_| {
                        CtdInstance::build(&mut index, &ids)
                    });
                    black_box(best_on(&inst, &ConCov { k }));
                    Ok((ids.len() as u64, inst.blocks.len() as u64))
                })?;
                self.enumerate_bags += bags;
                self.instance_blocks += blocks;
                None
            }
            (Class::Hw, true) => tr.scope(span::HW, |_| self.solve_mirror(Class::Hw, &h))?,
            (class, true) => {
                let answer = tr.scope(span::SOLVE_COLD, |_| self.solve_mirror(class, &h))?;
                tr.scope(span::BY_LAYER, |tr| self.shw_by_layers(tr, class, &h))?;
                answer
            }
            (class, false) => tr.scope(span::SOLVE_WARM, |_| self.solve_mirror(class, &h))?,
        };
        let Some(answer) = answer else { return Ok(()) };
        let (class_name, k) = match req.class {
            Class::Shw => ("SHW", 0),
            Class::Hw => ("HW", 0),
            _ => ("SHW_LEQ", 2),
        };
        let frame = tr.scope(span::RESPONSE_ENCODE, |_| {
            let td = |td: &TreeDecomposition| TdFrame::from_td(td, h.num_vertices());
            let resp = match &answer {
                Answer::Width(width, witness) => Response::Width {
                    class: class_name.into(),
                    width: *width,
                    td: td(witness),
                },
                Answer::Decision(witness) => Response::Decision {
                    class: class_name.into(),
                    fields: Vec::new(),
                    k,
                    td: witness.as_ref().map(td),
                },
            };
            black_box(resp.encode());
            match resp {
                Response::Width { td, .. } => Some(td),
                Response::Decision { td, .. } => td,
                _ => None,
            }
        });
        if first_sight {
            self.store_roundtrip(tr, req.class, &h, &answer, frame.as_ref())?;
        }
        Ok(())
    }

    /// What the write-behind persister and a later store probe do for a
    /// fresh result (only when the workload runs with a store).
    fn store_roundtrip(
        &mut self,
        tr: &mut Tracer,
        class: Class,
        h: &Hypergraph,
        answer: &Answer,
        frame: Option<&TdFrame>,
    ) -> Result<(), String> {
        let Some(store) = self.store.as_mut() else {
            return Ok(());
        };
        let key = match class {
            Class::Shw => ClassKey::Shw,
            Class::ShwLeq2 => ClassKey::ShwLeq(2),
            Class::Hw => ClassKey::Hw,
            Class::BestConcov2 | Class::Stats => return Ok(()),
        };
        let frame_ref = frame.map(|f| FrameRef {
            universe: f.universe,
            snapshot: &f.snapshot,
            nodes: &f.nodes,
        });
        let put = match (answer, frame_ref) {
            (Answer::Width(width, _), Some(frame)) => PutAnswer::Width {
                width: *width,
                frame,
            },
            (Answer::Decision(Some(_)), Some(frame)) => PutAnswer::Yes(frame),
            _ => PutAnswer::No,
        };
        tr.scope(span::STORE_PUT, |_| store.put(h, key, &[], put))
            .map_err(|e| e.to_string())?;
        let (hash, digest) = softhw_store::schema_key(h);
        let hit = tr.scope(span::STORE_GET, |_| store.get(hash, digest, &key));
        if hit.is_none() {
            return Err("store lost a result it was just given".into());
        }
        Ok(())
    }
}

enum Answer {
    Width(usize, TreeDecomposition),
    Decision(Option<TreeDecomposition>),
}
