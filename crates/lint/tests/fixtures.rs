//! The fixture corpus: a known-bad tree where every rule must fire,
//! and a known-good tree (including one waivered site) that must come
//! back clean. Both trees mirror the real workspace layout
//! (`crates/…/src`, `crates/…/tests`, `README.md`,
//! `.github/workflows/`) so [`softhw_lint::analyze`] runs on them
//! unchanged; the real analyzer skips any directory named `fixtures`,
//! so the deliberate violations never count against the actual tree.

use softhw_lint::rules;
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

fn fixture(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

#[test]
fn bad_tree_trips_every_rule() {
    let report = softhw_lint::analyze(&fixture("bad")).expect("fixture tree loads");
    let fired: BTreeSet<&str> = report.findings.iter().map(|f| f.rule).collect();
    for rule in [
        rules::PANIC_FREE_SERVICE,
        rules::BUDGET_TICK,
        rules::SAFETY_COMMENT,
        rules::NO_BLOCKING_IN_EVENT_LOOP,
        rules::CROSS_ARTIFACT_SYNC,
        rules::WAIVER_JUSTIFICATION,
    ] {
        assert!(
            fired.contains(rule),
            "rule {rule} did not fire on the known-bad tree; fired: {fired:?}"
        );
    }
}

#[test]
fn bad_tree_panic_sites_are_attributed() {
    let report = softhw_lint::analyze(&fixture("bad")).expect("fixture tree loads");
    let sites: Vec<_> = report
        .findings
        .iter()
        .filter(|f| f.rule == rules::PANIC_FREE_SERVICE)
        .collect();
    // state.rs: v[0], .unwrap(), .expect(…), panic! — and nothing from
    // its #[cfg(test)] module, which indexes and unwraps legally. The
    // two files split out of state.rs stay covered: rows[0] in
    // metrics.rs, .expect(…) in persist.rs.
    let in_file = |rel: &str| sites.iter().filter(|f| f.rel == rel).count();
    assert_eq!(in_file("crates/service/src/state.rs"), 4, "{sites:#?}");
    assert_eq!(in_file("crates/service/src/metrics.rs"), 1, "{sites:#?}");
    assert_eq!(in_file("crates/service/src/persist.rs"), 1, "{sites:#?}");
    assert_eq!(sites.len(), 6, "findings: {sites:#?}");
}

#[test]
fn bad_tree_budget_sites_are_attributed() {
    let report = softhw_lint::analyze(&fixture("bad")).expect("fixture tree loads");
    let sites: Vec<_> = report
        .findings
        .iter()
        .filter(|f| f.rule == rules::BUDGET_TICK)
        .collect();
    // Every budgeted solver file is watched: ctd.rs drops its budget
    // and never ticks its loop, the preference DP consumes its budget
    // but not inside its wave loop, the cover search never consumes it,
    // and neither does the reduce → sweep pieces → lift loop.
    let in_file = |rel: &str, needle: &str| {
        let hits = sites.iter().filter(|f| f.rel == rel);
        hits.filter(|f| f.msg.contains(needle)).count()
    };
    for (rel, needle) in [
        ("crates/core/src/ctd.rs", "never consumes it"),
        ("crates/core/src/ctd.rs", "never ticks/checks"),
        ("crates/core/src/ctd_opt.rs", "never ticks/checks"),
        ("crates/core/src/cover.rs", "never consumes it"),
        ("crates/core/src/reduce_solve.rs", "never consumes it"),
    ] {
        assert_eq!(in_file(rel, needle), 1, "{rel}: {needle}: {sites:#?}");
    }
    assert_eq!(sites.len(), 5, "findings: {sites:#?}");
}

#[test]
fn bad_tree_cross_artifact_names_every_drift() {
    let report = softhw_lint::analyze(&fixture("bad")).expect("fixture tree loads");
    let msgs: Vec<&str> = report
        .findings
        .iter()
        .filter(|f| f.rule == rules::CROSS_ARTIFACT_SYNC)
        .map(|f| f.msg.as_str())
        .collect();
    for needle in [
        "verb BOGUS advertised by PROTOCOL_VERBS but not parsed",
        "verb EXTRA parsed by RequestHeader::parse but missing",
        "RequestClass::Orphan is parsed by the wire but never dispatched",
        "verb STATS missing from the README banner line",
        "verb BOGUS missing from the README banner line",
        "verb STATS never appears quoted in the README wire grammar",
        "test masks STATS row \"ghost_row\"",
        "CI parses STATS row \"ghost_row\"",
        "metric softhw_phantom_metric_total emitted by METRICS but missing from the README metrics table",
    ] {
        assert!(
            msgs.iter().any(|m| m.contains(needle)),
            "missing drift {needle:?}; got: {msgs:#?}"
        );
    }
}

#[test]
fn bad_tree_flags_bad_waivers() {
    let report = softhw_lint::analyze(&fixture("bad")).expect("fixture tree loads");
    let waiver_findings: Vec<&str> = report
        .findings
        .iter()
        .filter(|f| f.rule == rules::WAIVER_JUSTIFICATION)
        .map(|f| f.msg.as_str())
        .collect();
    assert!(
        waiver_findings
            .iter()
            .any(|m| m.contains("no justification")),
        "unjustified waiver not flagged: {waiver_findings:#?}"
    );
    assert!(
        waiver_findings
            .iter()
            .any(|m| m.contains("unknown rule `made-up-rule`")),
        "unknown-rule waiver not flagged: {waiver_findings:#?}"
    );
}

#[test]
fn good_tree_is_clean_and_respects_the_waiver() {
    let report = softhw_lint::analyze(&fixture("good")).expect("fixture tree loads");
    assert!(
        report.clean(),
        "known-good tree has findings: {:#?}",
        report.findings
    );
    // The waivered index in server.rs was found, then silenced.
    assert_eq!(report.waived.len(), 1, "waived: {:#?}", report.waived);
    assert_eq!(report.waived[0].rule, rules::PANIC_FREE_SERVICE);
    assert_eq!(report.waivers.len(), 1);
    assert!(
        !report.waivers[0].3.is_empty(),
        "the good tree's one waiver must carry a justification"
    );
}

#[test]
fn real_workspace_is_clean_without_waivers() {
    // CI runs the analyzer with `--max-waivers 0`; this keeps `cargo
    // test --workspace` telling the same story.
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let report = softhw_lint::analyze(&root).expect("workspace loads");
    assert!(report.clean(), "findings: {:#?}", report.findings);
    assert!(report.waivers.is_empty(), "waivers: {:#?}", report.waivers);
}
