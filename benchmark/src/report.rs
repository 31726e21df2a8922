//! Metric registries (the source `BENCHMARK.json` is generated from) and
//! output formatting.

use std::fmt::Write as _;

/// How long one run measures, as frozen in `BENCHMARK.json`.
pub const RUN_SECONDS: u64 = 20;

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

/// What a client of the system sees. Every workload reports every one
/// (`solve_hb_k2` reads: solves per second, median solve, slowest solve,
/// child `ru_maxrss`).
pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "req_per_s",
        unit: "1/s",
        better: "higher",
        bound: 0.25,
    },
    EndToEnd {
        name: "p50_us",
        unit: "us",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "p99_us",
        unit: "us",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: "lower",
        bound: 0.15,
    },
];

pub struct Layer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// The end-to-end metric (and workload) this one should move.
    pub moves: &'static str,
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    moves: &'static str,
) -> Layer {
    Layer {
        name,
        unit,
        better,
        moves,
    }
}

/// Single-layer metrics of the traced pass. A metric that does not apply
/// to a workload (or that the server no longer reports) reads 0 there.
pub const PER_LAYER: &[Layer] = &[
    layer("hypergraph.parse_us", "us", "lower", "p50_us, req_per_s on serve_warm"),
    layer("hypergraph.hash_us", "us", "lower", "p50_us, req_per_s on serve_warm"),
    layer("query.sql_parse_us", "us", "lower", "p50_us, req_per_s on serve_warm"),
    layer("hypergraph.reduce_us", "us", "lower", "req_per_s, p50_us on serve_cold"),
    layer("hypergraph.index_build_us", "us", "lower", "req_per_s, p50_us on serve_cold; p50_us on solve_hb_k2"),
    layer("core.enumerate_us", "us", "lower", "p50_us, peak_rss_mb on solve_hb_k2; req_per_s, p99_us on serve_cold"),
    layer("core.enumerate_bags", "count", "lower", "p50_us, peak_rss_mb on solve_hb_k2 (exact count)"),
    layer("core.instance_build_us", "us", "lower", "p50_us, peak_rss_mb on solve_hb_k2; req_per_s, p99_us on serve_cold"),
    layer("core.instance_blocks", "count", "lower", "p50_us, peak_rss_mb on solve_hb_k2 (exact count)"),
    layer("core.satisfy_us", "us", "lower", "p50_us on solve_hb_k2; req_per_s on serve_cold"),
    layer("core.extract_us", "us", "lower", "req_per_s on serve_cold"),
    layer("core.validate_us", "us", "lower", "req_per_s on serve_cold; store.restart_s on serve_mixed_store"),
    layer("core.best_us", "us", "lower", "p99_us on serve_cold"),
    layer("core.hw_us", "us", "lower", "p99_us on serve_cold"),
    layer("core.solve_cold_us", "us", "lower", "req_per_s, p50_us on serve_cold"),
    layer("core.solve_warm_us", "us", "lower", "req_per_s on serve_mixed_store"),
    layer("service.hello_rtt_us", "us", "lower", "p50_us, req_per_s on serve_warm (transport + event-loop floor)"),
    layer("service.stats_rtt_us", "us", "lower", "p50_us on serve_warm"),
    layer("service.request_decode_us", "us", "lower", "p50_us, req_per_s on serve_warm"),
    layer("service.response_encode_us", "us", "lower", "p50_us, req_per_s on serve_warm"),
    layer("service.response_decode_us", "us", "lower", "p50_us on serve_warm (the client's own share)"),
    layer("service.dispatch_us", "us", "lower", "p50_us on serve_warm (lockstep p50 - hello_rtt)"),
    layer("service.class.shw_p50_us", "us", "lower", "p50_us on every serving workload"),
    layer("service.class.shw_leq_p50_us", "us", "lower", "p50_us on every serving workload"),
    layer("service.class.hw_p50_us", "us", "lower", "p50_us, p99_us on every serving workload"),
    layer("service.class.best_p50_us", "us", "lower", "p50_us, p99_us on every serving workload"),
    layer("service.class.stats_p50_us", "us", "lower", "p50_us on serve_warm, serve_mixed_store"),
    layer("service.batch_frame_p50_us", "us", "lower", "p50_us, p99_us on serve_mixed_store"),
    layer("service.pipelined_depth_max", "count", "higher", "req_per_s on serve_mixed_store"),
    layer("service.stage.queue_wait_us_per_req", "us", "lower", "p99_us on serve_mixed_store"),
    layer("service.stage.reorder_dwell_us_per_req", "us", "lower", "p99_us on serve_mixed_store"),
    layer("service.stage.result_cache_us_per_req", "us", "lower", "p50_us on serve_warm"),
    layer("service.stage.store_probe_us_per_req", "us", "lower", "req_per_s on serve_mixed_store"),
    layer("service.stage.solve_us_per_req", "us", "lower", "p50_us on serve_cold (about 0 on serve_warm)"),
    layer("service.stage.reduce_us_per_req", "us", "lower", "p50_us on serve_cold"),
    layer("service.stage.index_build_us_per_req", "us", "lower", "p50_us on serve_cold"),
    layer("service.stage.instance_build_us_per_req", "us", "lower", "p50_us on serve_cold"),
    layer("service.stage.instance_extend_us_per_req", "us", "lower", "p50_us on serve_cold"),
    layer("service.stage.satisfy_us_per_req", "us", "lower", "p50_us on serve_cold"),
    layer("service.stage.enumerate_us_per_req", "us", "lower", "p50_us on serve_cold"),
    layer("service.result_cache_hit_ratio", "ratio", "higher", "req_per_s on serve_warm, serve_mixed_store"),
    layer("service.instance_hits", "count", "higher", "req_per_s on serve_mixed_store"),
    layer("service.evictions", "count", "lower", "peak_rss_mb, req_per_s on serve_cold"),
    layer("service.busy_shed", "count", "lower", "failed requests on serve_mixed_store"),
    layer("service.bytes_per_cached_schema", "bytes", "lower", "peak_rss_mb on serve_cold"),
    layer("store.put_us", "us", "lower", "req_per_s on serve_mixed_store"),
    layer("store.get_us", "us", "lower", "req_per_s, store.restart_s on serve_mixed_store"),
    layer("store.open_ms", "ms", "lower", "store.restart_s on serve_mixed_store"),
    layer("store.bytes_per_result", "bytes", "lower", "store.server_bytes_per_result on serve_mixed_store (exact count)"),
    layer("store.server_bytes_per_result", "bytes", "lower", "disk footprint of serve_mixed_store (demoted end-to-end metric)"),
    layer("store.restart_s", "s", "lower", "second-server spawn to first correct warm answer on serve_mixed_store (demoted end-to-end metric)"),
    layer("store.restart_hits", "count", "higher", "store.restart_s on serve_mixed_store"),
    layer("obs.overhead_pct", "%", "lower", "req_per_s on serve_warm"),
    layer("trace.overhead_pct", "%", "lower", "none: the cost of the benchmark's own tracer"),
    layer("ledger.unattributed_pct", "%", "lower", "none: share of p50_us the replayed layers do not explain"),
    layer("e2e.traced_p50_us", "us", "lower", "p50_us of the same workload (traced lockstep requests)"),
    layer("e2e.bare_p50_us", "us", "lower", "p50_us of the same workload (untraced lockstep requests)"),
    layer("e2e.child_solve_s", "s", "lower", "p50_us on solve_hb_k2 (the traced run's one child solve)"),
    layer("replay.layer_sum_us", "us", "lower", "p50_us of the same workload (sum of replayed blocking-path layers)"),
    layer("box.slowness", "ratio", "lower", "none: how much slower than the quiet reference box the traced pass ran; per-layer times are not corrected for it"),
    layer("check.sampled", "count", "higher", "none: answers fully validated against in-process solves"),
    layer("check.traced_requests", "count", "higher", "none: requests sent traced and replayed in-process"),
    layer("check.spans", "count", "higher", "none: spans recorded by the traced pass"),
];

fn unit_of(name: &str) -> &'static str {
    PER_LAYER
        .iter()
        .find(|l| l.name == name)
        .map(|l| l.unit)
        .or_else(|| END_TO_END.iter().find(|e| e.name == name).map(|e| e.unit))
        .unwrap_or("count")
}

#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Samples behind the value.
    pub n: usize,
}

impl Metric {
    /// The unit comes from the registries; a non-finite value reads 0.
    pub fn new(name: &str, value: f64, n: usize) -> Metric {
        Metric {
            name: name.to_string(),
            value: if value.is_finite() { value } else { 0.0 },
            unit: unit_of(name),
            n,
        }
    }
}

/// Operations attempted and failed so far, with the first few reasons.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub notes: Vec<String>,
}

impl Tally {
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.notes.len() < 8 {
            self.notes.push(what);
        }
    }
}

pub struct RunResult {
    pub workload: &'static str,
    pub attempted: u64,
    pub failed: u64,
    /// Why operations failed (first few).
    pub notes: Vec<String>,
    /// Free-form facts about the run.
    pub info: Vec<String>,
    pub metrics: Vec<Metric>,
}

impl RunResult {
    pub fn new(workload: &'static str, tally: Tally) -> RunResult {
        RunResult {
            workload,
            attempted: tally.attempted,
            failed: tally.failed,
            notes: tally.notes,
            info: Vec::new(),
            metrics: Vec::new(),
        }
    }

    /// Records metric `name` as `value`, backed by `n` samples.
    pub fn push(&mut self, name: &str, value: f64, n: usize) {
        self.metrics.push(Metric::new(name, value, n));
    }

    pub fn get(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// The human-readable block: every metric by name, with its unit and
    /// sample count.
    pub fn render(&self, traced: bool) -> String {
        let mut out = String::new();
        let pass = if traced { "per-layer" } else { "end-to-end" };
        let _ = writeln!(
            out,
            "== {} ({pass}): attempted {} failed {}",
            self.workload, self.attempted, self.failed
        );
        for line in self.info.iter().chain(&self.notes) {
            let _ = writeln!(out, "   {line}");
        }
        for m in &self.metrics {
            let moves = PER_LAYER
                .iter()
                .find(|l| l.name == m.name)
                .map_or(String::new(), |l| format!("   -> {}", l.moves));
            let _ = writeln!(
                out,
                "   {:<42} {:>16.4} {:<6} n={}{moves}",
                m.name, m.value, m.unit, m.n
            );
        }
        out
    }

    /// The contract's result object: every metric of the pass, by the
    /// registry's names, absent ones reading 0.
    pub fn contract_json(&self, traced: bool) -> String {
        let names: Vec<(&str, &str)> = if traced {
            PER_LAYER.iter().map(|l| (l.name, l.unit)).collect()
        } else {
            END_TO_END.iter().map(|e| (e.name, e.unit)).collect()
        };
        let metrics: Vec<String> = names
            .iter()
            .map(|(name, unit)| {
                let value = self.get(name).map_or(0.0, |m| m.value);
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    /// `"name": {"value": …, "unit": …, "n": …}` pairs for the suite's
    /// output file.
    pub fn metrics_json(&self) -> String {
        let rows: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "      \"{}\": {{\"value\": {}, \"unit\": \"{}\", \"n\": {}}}",
                    m.name, m.value, m.unit, m.n
                )
            })
            .collect();
        rows.join(",\n")
    }
}

/// `BENCHMARK.json`, generated so the file and the code cannot drift
/// (a unit test compares them).
pub fn benchmark_json() -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"command\": [\"bash\", \"benchmark/run.sh\"],\n");
    out.push_str("  \"paths\": [\"benchmark\"],\n");
    let _ = writeln!(out, "  \"run_seconds\": {RUN_SECONDS},");
    out.push_str("  \"workloads\": [\n");
    let names = crate::workloads::NAMES;
    for (i, name) in names.iter().enumerate() {
        let sep = if i + 1 == names.len() { "" } else { "," };
        let _ = writeln!(
            out,
            "    {{\"name\": \"{name}\", \"why\": \"{}\"}}{sep}",
            crate::workloads::why(name)
        );
    }
    out.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, e) in END_TO_END.iter().enumerate() {
        let sep = if i + 1 == END_TO_END.len() { "" } else { "," };
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}{sep}",
            e.name, e.unit, e.better, e.bound
        );
    }
    out.push_str("  ],\n  \"per_layer\": [\n");
    for (i, l) in PER_LAYER.iter().enumerate() {
        let sep = if i + 1 == PER_LAYER.len() { "" } else { "," };
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}{sep}",
            l.name, l.unit, l.better
        );
    }
    out.push_str("  ]\n}\n");
    out
}

/// The README's per-layer glossary rows.
pub fn glossary() -> String {
    let mut out = String::from("| metric | unit | better | should move |\n|---|---|---|---|\n");
    for l in PER_LAYER {
        let _ = writeln!(
            out,
            "| `{}` | {} | {} | {} |",
            l.name, l.unit, l.better, l.moves
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_on_disk_matches_the_registries() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert_eq!(
            on_disk,
            benchmark_json(),
            "regenerate with run.sh --emit-benchmark-json"
        );
    }

    #[test]
    fn names_units_and_whys_fit_the_contract() {
        let ok_name = |s: &str| {
            s.len() <= 64
                && s.starts_with(|c: char| c.is_ascii_alphanumeric())
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let ok_unit = |s: &str| {
            !s.is_empty()
                && s.len() <= 16
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let mut seen = std::collections::HashSet::new();
        for (name, unit) in END_TO_END
            .iter()
            .map(|e| (e.name, e.unit))
            .chain(PER_LAYER.iter().map(|l| (l.name, l.unit)))
        {
            assert!(ok_name(name), "{name}");
            assert!(ok_unit(unit), "{name}: {unit}");
            assert!(seen.insert(name), "{name} used twice");
        }
        assert!(END_TO_END.iter().all(|e| e.bound > 0.0 && e.bound <= 0.25));
        for name in crate::workloads::NAMES {
            assert!(ok_name(name) && seen.insert(name));
            let why = crate::workloads::why(name);
            assert!(
                !why.is_empty() && why.len() <= 200 && !why.contains('\n'),
                "{name}"
            );
        }
        assert!(benchmark_json().len() < 64 * 1024);
    }

    #[test]
    fn a_failed_operation_makes_the_result_incorrect() {
        let tally = Tally {
            attempted: 10,
            ..Tally::default()
        };
        let mut r = RunResult::new("serve_warm", tally);
        r.push("p50_us", 51.25, 100);
        assert!(r.correct());
        assert!(r
            .contract_json(false)
            .starts_with("{\"correct\": true, \"attempted\": 10, \"failed\": 0"));
        assert!(r
            .contract_json(false)
            .contains("\"p50_us\": {\"value\": 51.25, \"unit\": \"us\"}"));
        // Metrics the run did not produce still appear, reading 0.
        assert!(r
            .contract_json(true)
            .contains("\"store.put_us\": {\"value\": 0, \"unit\": \"us\"}"));
        r.failed = 1;
        assert!(!r.correct());
        assert!(r.contract_json(false).starts_with("{\"correct\": false"));
    }
}
