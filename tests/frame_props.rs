//! Fuzz of the witness frame at the wire boundary: real witnesses, framed
//! with `TdFrame::from_td` and encoded as responses, are mutated one step
//! at a time (one header value, one token, or one line dropped,
//! duplicated or swapped) and decoded again. Decoding and rebuilding the
//! decomposition must return `Ok` or `Err` and never panic or abort, and a
//! mutant that decodes must re-encode byte-identically: a frame has one
//! spelling. Seeds are fixed, so a failure reproduces.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use softhw_core::{shw, TdFrame};
use softhw_hypergraph::random::{random_hypergraph, RandomConfig};
use softhw_hypergraph::{named, Hypergraph};
use softhw_service::Response;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// The schemas whose witnesses are mutated: the named ones, one with
/// two-word bags, and random ones.
fn schemas() -> Vec<Hypergraph> {
    let mut out = vec![
        named::h2(),
        named::h3(),
        named::cycle(5),
        named::grid(3, 3),
        named::grid(1, 70),
        named::triangle_star(3),
        named::four_cycle_query(),
    ];
    for seed in 0..10u64 {
        let cfg = RandomConfig {
            num_vertices: 6 + seed as usize % 5,
            num_edges: 5 + seed as usize % 4,
            min_arity: 2,
            max_arity: 3,
            connect: true,
        };
        out.push(random_hypergraph(&cfg, seed));
    }
    out
}

/// Every response shape that carries a witness, as its frame lines (no
/// `%%` terminator).
fn witness_frames() -> Vec<Vec<String>> {
    let mut out = Vec::new();
    for h in schemas() {
        let (width, td) = shw::shw(&h);
        let frame = TdFrame::from_td(&td, h.num_vertices());
        let responses = [
            Response::Width {
                class: "SHW".into(),
                width,
                td: frame.clone(),
            },
            Response::Decision {
                class: "BEST".into(),
                fields: vec![("eval".into(), "concov".into())],
                k: width,
                td: Some(frame),
            },
        ];
        for resp in responses {
            let mut lines: Vec<String> = resp.encode().lines().map(String::from).collect();
            assert_eq!(lines.pop().as_deref(), Some("%%"));
            out.push(lines);
        }
    }
    out
}

/// A decimal a mutation writes: small, near a word boundary, or past one.
fn decimal(rng: &mut SmallRng, near: usize) -> String {
    match rng.gen_range(0..7u32) {
        0 => "0".into(),
        1 => near.saturating_sub(1).to_string(),
        2 => (near + 1).to_string(),
        3 => u32::MAX.to_string(),
        4 => (u32::MAX as u64 + 1).to_string(),
        5 => usize::MAX.to_string(),
        _ => rng.gen_range(0..80usize).to_string(),
    }
}

/// A token a mutation writes in place of another: a well-formed one of
/// some kind, or one in a spelling the encoder never writes.
fn token(rng: &mut SmallRng, near: usize) -> String {
    match rng.gen_range(0..12u32) {
        0 => "-".into(),
        1 => ["A", "N", "TD", "OK"][rng.gen_range(0..4usize)].into(),
        2 => format!("{:016x}", rng.gen::<u64>()),
        3 => format!("{:016x}", u64::MAX),
        4 => format!("{:016x}", 1u64 << rng.gen_range(0..64u32)),
        5 => format!("{:016X}", rng.gen::<u64>()),
        6 => format!("{:x}", rng.gen_range(0..4096u64)),
        7 => format!("0{}", rng.gen_range(0..9u32)),
        8 => format!("+{}", rng.gen_range(0..9u32)),
        9 => "x".into(),
        _ => decimal(rng, near),
    }
}

/// One mutation of `lines`, described for the failure message.
fn mutate(lines: &[String], rng: &mut SmallRng) -> (Vec<String>, String) {
    let mut out = lines.to_vec();
    let n = out.len();
    let what = match rng.gen_range(0..6u32) {
        // One `key=value` of the response or `TD` header.
        0 | 1 => {
            let line = rng.gen_range(0..2usize);
            let mut toks: Vec<String> = out[line].split(' ').map(String::from).collect();
            let fields: Vec<usize> = (0..toks.len()).filter(|&i| toks[i].contains('=')).collect();
            let at = fields[rng.gen_range(0..fields.len())];
            let (key, value) = toks[at].split_once('=').expect("a field");
            let (key, near) = (key.to_string(), value.parse().unwrap_or(1usize));
            let value = decimal(rng, near);
            // `words` is a function of `universe`: half the time the two
            // move together, so only the claimed sizes are hostile.
            if key == "universe" && line == 1 && rng.gen_bool(0.5) {
                let universe: usize = value.parse().expect("a decimal");
                let words = toks.len() - 1;
                toks[words] = format!("words={}", universe.div_ceil(64).max(1));
            }
            toks[at] = format!("{key}={value}");
            out[line] = toks.join(" ");
            format!("header line {line}: {key}={value}")
        }
        // One token of the `TD` header or body.
        2 => {
            let line = rng.gen_range(1..n);
            let mut toks: Vec<String> = out[line].split(' ').map(String::from).collect();
            let at = rng.gen_range(0..toks.len());
            toks[at] = token(rng, n);
            out[line] = toks.join(" ");
            format!("line {line} token {at} -> {:?}", toks[at])
        }
        3 => {
            let line = rng.gen_range(0..n);
            out.remove(line);
            format!("drop line {line}")
        }
        4 => {
            let line = rng.gen_range(0..n);
            out.insert(line, out[line].clone());
            format!("duplicate line {line}")
        }
        _ => {
            let (a, b) = (rng.gen_range(0..n), rng.gen_range(0..n));
            out.swap(a, b);
            format!("swap lines {a} and {b}")
        }
    };
    (out, what)
}

#[test]
fn mutated_witness_frames_decode_without_panicking_and_reencode_exactly() {
    let frames = witness_frames();
    let mut rng = SmallRng::seed_from_u64(0x7D_F2A3E);
    let (mut decoded, mut rebuilt) = (0usize, 0usize);
    for lines in &frames {
        for _ in 0..120 {
            let (mutant, what) = mutate(lines, &mut rng);
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                let resp = Response::decode(&mutant).ok()?;
                let td = match &resp {
                    Response::Width { td, .. } => Some(td),
                    Response::Decision { td, .. } => td.as_ref(),
                    _ => None,
                };
                let rebuilds = td.map(|td| td.to_td().is_ok());
                Some((resp.encode(), rebuilds))
            }));
            let Ok(outcome) = outcome else {
                panic!("{what}: decoding panicked on {mutant:#?}");
            };
            let Some((encoded, rebuilds)) = outcome else {
                continue;
            };
            decoded += 1;
            rebuilt += usize::from(rebuilds == Some(true));
            let mut expected = mutant.join("\n");
            expected.push_str("\n%%\n");
            assert_eq!(encoded, expected, "{what}: re-encoding differs");
        }
    }
    // The mutations are not all rejected at the first byte: some mutants
    // decode, and some of those still rebuild a decomposition.
    assert!(
        decoded > 0 && rebuilt > 0,
        "decoded {decoded}, rebuilt {rebuilt}"
    );
}
