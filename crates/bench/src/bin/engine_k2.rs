//! Decides `shw ≤ 2` on a HyperBench file through the CTD engine alone:
//! parse, [`reduce()`], then for each piece `Soft_{H,2}`, the instance over
//! it ([`shw::soft_instance`]) and Algorithm 1's decision. `softhw-cli
//! --width 2` refutes a piece from a checked minor before it builds
//! anything, so this is the path that keeps the engine measured at scale
//! (CI's `hyperbench-k2` job caps its peak RSS).
//!
//! ```text
//! cargo run --release -p softhw-bench --bin engine_k2 -- data/hyperbench/grid24x24.hg
//! ```
//!
//! Prints the verdict as `softhw-cli` does, then the bags and blocks of
//! the instances built. Exit code 0 on yes, 1 on no, 2 on errors.

use softhw_core::{shw, Budget, SoftLimits};
use softhw_hypergraph::{parse_hypergraph, reduce};
use std::process::ExitCode;

const K: usize = 2;

/// The verdict, and the bags and blocks of the instances built: pieces
/// are decided in order up to the first "no".
fn decide(path: &str) -> Result<(bool, usize, usize), String> {
    let text = std::fs::read_to_string(path).map_err(|e| e.to_string())?;
    let h = parse_hypergraph(&text).map_err(|e| e.to_string())?;
    let (mut bags, mut blocks) = (0, 0);
    for piece in &reduce(&h).pieces {
        let limits = SoftLimits::default();
        let inst = shw::soft_instance(&piece.h, K, &limits, &Budget::unlimited())
            .map_err(|e| e.to_string())?;
        (bags, blocks) = (bags + inst.num_bags(), blocks + inst.blocks.len());
        if inst.decide().is_none() {
            return Ok((false, bags, blocks));
        }
    }
    Ok((true, bags, blocks))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let [path] = &args[..] else {
        eprintln!("usage: engine_k2 <file.hg>");
        return ExitCode::from(2);
    };
    match decide(path) {
        Ok((accept, bags, blocks)) => {
            println!("shw <= {K}: {}", if accept { "yes" } else { "no" });
            println!("bags {bags}, blocks {blocks}");
            ExitCode::from(if accept { 0 } else { 1 })
        }
        Err(e) => {
            eprintln!("{path}: {e}");
            ExitCode::from(2)
        }
    }
}
