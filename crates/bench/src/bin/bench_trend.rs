//! Bench-trend report: compares every `BENCH_*.json` baseline in
//! chronological (argument) order and emits a markdown table per
//! benchmark entry, with the speedup of the newest baseline over the
//! oldest one that records the entry. Memory entries (names carrying
//! `bytes`, e.g. the `service/bytes_per_cached_schema_bytes` row the
//! committed baselines up to PR 8 carry) get their own table with a growth
//! column instead of a speedup — bigger is not better there, so they
//! must not dilute the timing table. CI runs this over all committed
//! baselines plus the fresh smoke run and uploads the result as an
//! artifact, so a PR's perf trajectory is one click away.
//!
//! Usage: `bench_trend <out.md> <baseline.json>...`

use std::fmt::Write as _;

fn main() {
    let mut args = std::env::args().skip(1);
    let Some(out_path) = args.next() else {
        eprintln!("usage: bench_trend <out.md> <baseline.json>...");
        std::process::exit(2);
    };
    let paths: Vec<String> = args.collect();
    if paths.is_empty() {
        eprintln!("usage: bench_trend <out.md> <baseline.json>...");
        std::process::exit(2);
    }
    let mut columns: Vec<(String, Vec<(String, f64)>)> = Vec::new();
    for path in &paths {
        match std::fs::read_to_string(path) {
            Ok(text) => {
                let label = path
                    .trim_end_matches(".json")
                    .rsplit('/')
                    .next()
                    .unwrap_or(path)
                    .to_string();
                columns.push((label, softhw_bench::parse_baseline_json(&text)));
            }
            Err(e) => eprintln!("skipping {path}: {e}"),
        }
    }
    if columns.is_empty() {
        eprintln!("no readable baselines");
        std::process::exit(1);
    }
    // Row order: first appearance across the baselines, oldest first.
    // Memory entries (bytes, not time) go to their own table: their
    // trend column is growth, where bigger is worse, so folding them
    // into the speedup table would misread either way.
    let is_memory = |name: &str| name.contains("bytes");
    let mut rows: Vec<String> = Vec::new();
    let mut mem_rows: Vec<String> = Vec::new();
    for (_, entries) in &columns {
        for (name, _) in entries {
            let bucket = if is_memory(name) {
                &mut mem_rows
            } else {
                &mut rows
            };
            if !bucket.iter().any(|r| r == name) {
                bucket.push(name.clone());
            }
        }
    }
    let get = |col: &[(String, f64)], name: &str| -> Option<f64> {
        col.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    };
    // One table body: per-baseline values plus the oldest-vs-newest
    // trend ratio, formatted by the caller's header.
    let table = |md: &mut String, names: &[String], invert: bool| {
        let _ = write!(md, "| entry |");
        for (label, _) in &columns {
            let _ = write!(md, " {label} |");
        }
        let _ = writeln!(md, " {} |", if invert { "growth" } else { "speedup" });
        let _ = write!(md, "|---|");
        for _ in &columns {
            let _ = write!(md, "---:|");
        }
        let _ = writeln!(md, "---:|");
        for name in names {
            let _ = write!(md, "| {name} |");
            let mut first: Option<f64> = None;
            let mut last: Option<f64> = None;
            for (_, entries) in &columns {
                match get(entries, name) {
                    Some(v) => {
                        first = first.or(Some(v));
                        last = Some(v);
                        let _ = write!(md, " {v:.0} |");
                    }
                    None => {
                        let _ = write!(md, " – |");
                    }
                }
            }
            match (first, last) {
                (Some(f), Some(l)) if f > 0.0 && l > 0.0 => {
                    let ratio = if invert { l / f } else { f / l };
                    let _ = writeln!(md, " {ratio:.2}x |");
                }
                _ => {
                    let _ = writeln!(md, " – |");
                }
            }
        }
    };
    let mut md = String::from("# Bench trend (median ns; speedup = oldest recorded / newest)\n\n");
    table(&mut md, &rows, false);
    if !mem_rows.is_empty() {
        md.push_str("\n## Memory (bytes; growth = newest / oldest recorded)\n\n");
        table(&mut md, &mem_rows, true);
    }
    std::fs::write(&out_path, &md).unwrap_or_else(|e| panic!("write {out_path}: {e}"));
    println!(
        "wrote {out_path} ({} entries, {} memory entries, {} baselines)",
        rows.len(),
        mem_rows.len(),
        columns.len()
    );
}
