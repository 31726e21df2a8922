//! `softhw-lint` — the workspace invariant analyzer.
//!
//! The workspace carries contracts that `rustc` cannot see: the service
//! request path must degrade instead of panicking, budgeted solver
//! loops must keep ticking so deadlines land, the `poll(2)` event loop
//! must never block, `unsafe` must justify itself, and the protocol
//! surface (verbs, STATS rows) must read the same in code, tests, docs,
//! and CI. This crate makes those contracts *checkable*: a hand-rolled
//! lexer (std only — the build image has no registry access), a rule
//! catalog over the token streams, and per-site
//! `// lint:allow(rule): why` waivers for the residue a syntactic
//! analyzer cannot prove.
//!
//! Run it as `cargo run -p softhw-lint -- --workspace`; CI runs the
//! same command and fails on any unwaived finding. The rule catalog and
//! waiver syntax are documented in the README's "Static analysis"
//! section and in [`rules`].

pub mod lex;
pub mod model;
pub mod rules;

use model::Workspace;
use rules::Finding;
use std::path::Path;

/// Everything one analyzer run produced.
#[derive(Debug, Default)]
pub struct Report {
    /// Violations not covered by a waiver — these fail the run.
    pub findings: Vec<Finding>,
    /// Violations silenced by a `lint:allow` waiver.
    pub waived: Vec<Finding>,
    /// Every waiver in the tree: `(file, rule, line, justification)`.
    pub waivers: Vec<(String, String, u32, String)>,
}

impl Report {
    pub fn clean(&self) -> bool {
        self.findings.is_empty()
    }
}

/// Runs every rule over the workspace rooted at `root` and applies the
/// waivers. A waiver covers findings of its rule on its own line and
/// the following line; a waiver without a justification is itself a
/// finding (`waiver-justification`).
pub fn analyze(root: &Path) -> std::io::Result<Report> {
    let ws = Workspace::load(root)?;
    Ok(analyze_workspace(&ws))
}

/// [`analyze`] over an already-loaded workspace (tests build synthetic
/// trees and call this directly).
pub fn analyze_workspace(ws: &Workspace) -> Report {
    let mut raw: Vec<Finding> = Vec::new();
    for f in &ws.files {
        rules::panic_free_service(f, &mut raw);
        rules::budget_tick(f, &mut raw);
        rules::safety_comment(f, &mut raw);
        rules::no_blocking_in_event_loop(f, &mut raw);
    }
    rules::cross_artifact_sync(ws, &mut raw);

    let mut report = Report::default();
    for f in &ws.files {
        for w in &f.waivers {
            report.waivers.push((
                f.rel.clone(),
                w.rule.clone(),
                w.line,
                w.justification.clone(),
            ));
            if w.justification.is_empty() {
                report.findings.push(Finding {
                    rule: rules::WAIVER_JUSTIFICATION,
                    rel: f.rel.clone(),
                    line: w.line,
                    msg: format!(
                        "waiver for `{}` has no justification — write `// lint:allow({}): why`",
                        w.rule, w.rule
                    ),
                });
            }
            if !rules::RULES.contains(&w.rule.as_str()) {
                report.findings.push(Finding {
                    rule: rules::WAIVER_JUSTIFICATION,
                    rel: f.rel.clone(),
                    line: w.line,
                    msg: format!("waiver names unknown rule `{}`", w.rule),
                });
            }
        }
    }
    for finding in raw {
        let covered = ws
            .files
            .iter()
            .find(|f| f.rel == finding.rel)
            .map(|f| {
                f.waivers.iter().any(|w| {
                    w.rule == finding.rule && finding.line >= w.line && finding.line <= w.line + 1
                })
            })
            .unwrap_or(false);
        if covered {
            report.waived.push(finding);
        } else {
            report.findings.push(finding);
        }
    }
    report
        .findings
        .sort_by(|a, b| (&a.rel, a.line, a.rule).cmp(&(&b.rel, b.line, b.rule)));
    report
}
