//! The correctness gate. Runs off the clock on raw response frames kept
//! during the timed windows: a sampled answer is fully decoded, its
//! witness validated against the schema, and its width or decision
//! compared with an in-process solve of the same specification.

use crate::client::decode_response;
use crate::gen::{Class, Req};
use softhw_core::constraints::ConCov;
use softhw_core::ctd_opt::best_on;
use softhw_core::soft::{soft_bag_ids, SoftLimits};
use softhw_core::{CtdInstance, DecompCache, SolveSpec, Solved};
use softhw_hypergraph::{parse_hypergraph, BlockIndex, Hypergraph};
use softhw_service::{Response, TdFrame};

/// What an answer must say for its request, computed in-process.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Expected {
    Width(usize),
    Decision(bool),
    /// `(vertices, edges)` a STATS answer must report.
    Shape(usize, usize),
}

/// The schema of a request as the server reads it.
pub fn schema_hypergraph(req: &Req) -> Result<Hypergraph, String> {
    if req.schema.sql {
        let q = softhw_query::parse_sql(&req.schema.body).map_err(|e| e.to_string())?;
        softhw_query::ast_hypergraph(&q).map_err(|e| e.to_string())
    } else {
        parse_hypergraph(&req.schema.body).map_err(|e| e.message.to_string())
    }
}

/// `BEST concov 2` in-process: is there a CTD over `Soft_{H,2}` whose
/// every bag has a connected cover of at most two edges?
pub fn best_concov2(h: &Hypergraph) -> Result<bool, String> {
    let mut index = BlockIndex::new(h);
    let k = 2.min(h.num_edges());
    let ids = soft_bag_ids(&mut index, k, &SoftLimits::default()).map_err(|e| format!("{e:?}"))?;
    let inst = CtdInstance::build(&mut index, &ids);
    Ok(best_on(&inst, &ConCov { k }).is_some())
}

/// The oracle: one long-lived [`DecompCache`] so repeated schemas of a
/// sample cost one solve.
pub struct Oracle {
    cache: DecompCache,
}

impl Oracle {
    pub fn new() -> Oracle {
        Oracle {
            cache: DecompCache::with_capacity(4096),
        }
    }

    pub fn expected(&mut self, class: Class, h: &Hypergraph) -> Result<Expected, String> {
        let spec = match class {
            Class::Shw => SolveSpec::shw(),
            Class::ShwLeq2 => SolveSpec::shw_leq(2.min(h.num_edges())),
            Class::Hw => SolveSpec::hw(),
            Class::BestConcov2 => return best_concov2(h).map(Expected::Decision),
            Class::Stats => return Ok(Expected::Shape(h.num_vertices(), h.num_edges())),
        };
        match self.cache.solve(h, &spec).map_err(|e| e.to_string())? {
            Solved::ShwWidth(w, _) | Solved::HwWidth(w, _) => Ok(Expected::Width(w)),
            Solved::ShwDecision(td) => Ok(Expected::Decision(td.is_some())),
            Solved::HwDecision(g) => Ok(Expected::Decision(g.is_some())),
        }
    }

    /// Fully checks one raw answer against its request.
    pub fn check(&mut self, req: &Req, raw: &[u8]) -> Result<(), String> {
        let h = schema_hypergraph(req)?;
        let expected = self.expected(req.class, &h)?;
        verify(&decode_response(raw)?, expected, &h)
    }
}

fn valid_witness(frame: &TdFrame, h: &Hypergraph) -> Result<(), String> {
    let td = frame.to_td().map_err(|e| e.to_string())?;
    td.validate(h)
        .map_err(|e| format!("witness is not a tree decomposition of the schema: {e:?}"))
}

/// Does `resp` say what `expected` says, with a valid witness?
pub fn verify(resp: &Response, expected: Expected, h: &Hypergraph) -> Result<(), String> {
    match (resp, expected) {
        (Response::Width { width, td, .. }, Expected::Width(w)) => {
            if *width != w {
                return Err(format!("width {width}, in-process solve says {w}"));
            }
            valid_witness(td, h)
        }
        (Response::Decision { td, .. }, Expected::Decision(yes)) => {
            if td.is_some() != yes {
                return Err(format!(
                    "decision {}, in-process solve says {yes}",
                    td.is_some()
                ));
            }
            td.as_ref().map_or(Ok(()), |td| valid_witness(td, h))
        }
        (Response::Stats { fields }, Expected::Shape(v, e)) => {
            let get = |key: &str| {
                fields
                    .iter()
                    .find(|(k, _)| k == key)
                    .and_then(|(_, v)| v.parse::<usize>().ok())
            };
            if get("vertices") == Some(v) && get("edges") == Some(e) {
                Ok(())
            } else {
                Err(format!(
                    "STATS shape differs from the schema's {v} vertices / {e} edges"
                ))
            }
        }
        (other, expected) => Err(format!("answer {other:?} does not fit {expected:?}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::Schema;
    use softhw_hypergraph::{named, render_hypergraph};

    fn h2_req(class: Class) -> Req {
        Req {
            class,
            schema: Schema {
                body: render_hypergraph(&named::h2()).into(),
                sql: false,
            },
            slot: None,
        }
    }

    fn h2_answer(width: usize) -> Vec<u8> {
        // As the server reads it: vertices numbered in order of appearance.
        let h = schema_hypergraph(&h2_req(Class::Shw)).expect("h2 parses");
        let Ok(Solved::ShwWidth(_, td)) = DecompCache::new().solve(&h, &SolveSpec::shw()) else {
            panic!("h2 has an shw");
        };
        Response::Width {
            class: "SHW".into(),
            width,
            td: TdFrame::from_td(&td, h.num_vertices()),
        }
        .encode()
        .into_bytes()
    }

    #[test]
    fn a_right_answer_passes_and_a_wrong_expectation_fails() {
        let mut oracle = Oracle::new();
        assert_eq!(oracle.check(&h2_req(Class::Shw), &h2_answer(2)), Ok(()));
        // The same frame claiming another width must be refused …
        assert!(oracle.check(&h2_req(Class::Shw), &h2_answer(3)).is_err());
        // … and so must a deliberately wrong expected answer.
        let resp = decode_response(&h2_answer(2)).expect("decodes");
        let h = schema_hypergraph(&h2_req(Class::Shw)).expect("h2 parses");
        assert_eq!(verify(&resp, Expected::Width(2), &h), Ok(()));
        assert!(verify(&resp, Expected::Width(3), &h).is_err());
        assert!(verify(&resp, Expected::Decision(true), &h).is_err());
    }

    #[test]
    fn a_witness_for_another_schema_is_refused() {
        let resp = decode_response(&h2_answer(2)).expect("decodes");
        // Ten vertices like h2, but one edge holds them all: no bag of
        // h2's width-2 witness covers it.
        let other = parse_hypergraph("big(a,b,c,d,e,f,g,h,i,j).").expect("parses");
        assert!(verify(&resp, Expected::Width(2), &other).is_err());
    }

    #[test]
    fn oracle_knows_the_paper_example() {
        let mut oracle = Oracle::new();
        let h = named::h2();
        assert_eq!(oracle.expected(Class::Shw, &h), Ok(Expected::Width(2)));
        assert_eq!(oracle.expected(Class::Hw, &h), Ok(Expected::Width(3)));
        assert_eq!(
            oracle.expected(Class::ShwLeq2, &h),
            Ok(Expected::Decision(true))
        );
        assert_eq!(
            oracle.expected(Class::Stats, &h),
            Ok(Expected::Shape(10, 8))
        );
    }
}
