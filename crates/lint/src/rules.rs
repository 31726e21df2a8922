//! The rule catalog. Each rule enforces a contract an earlier PR
//! established by convention:
//!
//! | rule | contract |
//! |------|----------|
//! | `panic-free-service` | PR 4: the service request path degrades via `DecompError`, never panics — no `unwrap`/`expect`/panic macros/slice-indexing in `crates/service/src/{state,persist,metrics,wire,server}.rs` |
//! | `budget-tick` | PR 7: unbounded loops in budgeted solver paths tick their `Budget` so deadlines and cancellation land |
//! | `safety-comment` | every `unsafe` needs an adjacent `// SAFETY:` stating the precondition |
//! | `no-blocking-in-event-loop` | PR 8: the `poll(2)` event loop never blocks — no sleeps, locks, or blocking channel reads in the readiness path |
//! | `cross-artifact-sync` | the verb list, dispatch arms, README grammar, STATS row names, and METRICS metric names stay in lockstep across code, tests, docs, and CI |
//!
//! Rules are syntactic, not type-aware: a hand-rolled lexer cannot
//! prove an index in-bounds or resolve a method receiver. Sites that
//! are provably fine carry a `// lint:allow(rule): why` waiver instead
//! — the waiver *is* the machine-checked SAFETY-comment equivalent for
//! these rules, and the analyzer budget (`--max-waivers`) keeps the
//! escape hatch from becoming the norm.

use crate::lex::{Tok, TokKind};
use crate::model::{SourceFile, Workspace};
use std::collections::BTreeSet;

/// One rule violation.
#[derive(Debug, Clone)]
pub struct Finding {
    pub rule: &'static str,
    /// Root-relative path of the offending file (or artifact).
    pub rel: String,
    /// 1-based line, 0 when the finding is about a whole artifact.
    pub line: u32,
    pub msg: String,
}

pub const PANIC_FREE_SERVICE: &str = "panic-free-service";
pub const BUDGET_TICK: &str = "budget-tick";
pub const SAFETY_COMMENT: &str = "safety-comment";
pub const NO_BLOCKING_IN_EVENT_LOOP: &str = "no-blocking-in-event-loop";
pub const CROSS_ARTIFACT_SYNC: &str = "cross-artifact-sync";
pub const WAIVER_JUSTIFICATION: &str = "waiver-justification";

/// All per-site rule names a waiver may name.
pub const RULES: &[&str] = &[
    PANIC_FREE_SERVICE,
    BUDGET_TICK,
    SAFETY_COMMENT,
    NO_BLOCKING_IN_EVENT_LOOP,
    CROSS_ARTIFACT_SYNC,
];

/// Files whose request path must be panic-free (service hardening, PR 4).
const SERVICE_FILES: &[&str] = &[
    "crates/service/src/state.rs",
    "crates/service/src/persist.rs",
    "crates/service/src/metrics.rs",
    "crates/service/src/wire.rs",
    "crates/service/src/server.rs",
];

/// Files whose budgeted functions must keep ticking (cancellation, PR 7).
const BUDGET_FILES: &[&str] = &[
    "crates/core/src/ctd.rs",
    "crates/core/src/ctd_opt.rs",
    "crates/core/src/cover.rs",
    "crates/core/src/soft.rs",
    "crates/core/src/reduce_solve.rs",
];

/// The readiness-path functions of the `poll(2)` event loop (PR 8).
/// `run_event_loop` and `worker_loop` are out of scope by design: they
/// run on the spawning thread and the worker pool, which may block.
const EVENT_LOOP_FNS: &[&str] = &["event_loop", "on_readable", "submit"];

fn is_ident(t: &Tok, s: &str) -> bool {
    t.kind == TokKind::Ident && t.text == s
}

fn is_punct(t: &Tok, s: &str) -> bool {
    t.kind == TokKind::Punct && t.text == s
}

/// Reserved words that can directly precede `[` without forming an
/// index expression (`&mut [0u8; 64]`, `for x in [..]`, `return [..]`).
const KEYWORDS: &[&str] = &[
    "as", "async", "await", "box", "break", "const", "continue", "crate", "dyn", "else", "enum",
    "extern", "false", "fn", "for", "if", "impl", "in", "let", "loop", "match", "mod", "move",
    "mut", "pub", "ref", "return", "self", "Self", "static", "struct", "super", "trait", "true",
    "type", "union", "unsafe", "use", "where", "while", "yield",
];

/// `panic-free-service`: on the service request-path files, non-test code must
/// not contain `.unwrap()`, `.expect(…)`, panic-family macros, or slice
/// indexing — the request path degrades via `DecompError`.
pub fn panic_free_service(f: &SourceFile, out: &mut Vec<Finding>) {
    if !SERVICE_FILES.contains(&f.rel.as_str()) {
        return;
    }
    let toks = f.toks();
    for i in 0..toks.len() {
        let t = &toks[i];
        if f.is_test_line(t.line) {
            continue;
        }
        let prev_dot = i > 0 && is_punct(&toks[i - 1], ".");
        if prev_dot
            && is_ident(t, "unwrap")
            && i + 2 < toks.len()
            && is_punct(&toks[i + 1], "(")
            && is_punct(&toks[i + 2], ")")
        {
            out.push(Finding {
                rule: PANIC_FREE_SERVICE,
                rel: f.rel.clone(),
                line: t.line,
                msg: "`.unwrap()` on the service path — return an ERR response via DecompError"
                    .into(),
            });
        }
        if prev_dot && is_ident(t, "expect") && i + 1 < toks.len() && is_punct(&toks[i + 1], "(") {
            out.push(Finding {
                rule: PANIC_FREE_SERVICE,
                rel: f.rel.clone(),
                line: t.line,
                msg: "`.expect(…)` on the service path — return an ERR response via DecompError"
                    .into(),
            });
        }
        if t.kind == TokKind::Ident
            && matches!(
                t.text.as_str(),
                "panic"
                    | "unreachable"
                    | "todo"
                    | "unimplemented"
                    | "assert"
                    | "assert_eq"
                    | "assert_ne"
                    | "debug_assert"
                    | "debug_assert_eq"
                    | "debug_assert_ne"
            )
            && i + 1 < toks.len()
            && is_punct(&toks[i + 1], "!")
        {
            out.push(Finding {
                rule: PANIC_FREE_SERVICE,
                rel: f.rel.clone(),
                line: t.line,
                msg: format!(
                    "`{}!` on the service path — the worker must answer, not unwind",
                    t.text
                ),
            });
        }
        // Index expression: `expr[…]` — `[` directly after an
        // identifier (that is not a keyword), `)`, or `]`.
        if is_punct(t, "[") && i > 0 {
            let p = &toks[i - 1];
            let indexable = (p.kind == TokKind::Ident && !KEYWORDS.contains(&p.text.as_str()))
                || is_punct(p, ")")
                || is_punct(p, "]");
            // `expr[..]` — the full-range slice never panics.
            let full_range = i + 3 < toks.len()
                && is_punct(&toks[i + 1], ".")
                && is_punct(&toks[i + 2], ".")
                && is_punct(&toks[i + 3], "]");
            if indexable && !full_range {
                out.push(Finding {
                    rule: PANIC_FREE_SERVICE,
                    rel: f.rel.clone(),
                    line: t.line,
                    msg: "slice indexing can panic on the service path — use .get()/.get_mut()"
                        .into(),
                });
            }
        }
    }
}

/// `safety-comment`: every `unsafe` token needs a comment containing
/// `SAFETY:` ending within the three lines above it (or on its line).
pub fn safety_comment(f: &SourceFile, out: &mut Vec<Finding>) {
    // Index comment coverage by line so adjacency means "the contiguous
    // comment block ending just above the `unsafe` token" — a SAFETY:
    // note several lines up still counts as long as the comment run is
    // unbroken down to the token.
    let mut comment_lines = std::collections::HashSet::new();
    let mut safety_lines = std::collections::HashSet::new();
    for c in &f.lexed.comments {
        for l in c.line..=c.end_line {
            comment_lines.insert(l);
            if c.text.contains("SAFETY:") {
                safety_lines.insert(l);
            }
        }
    }
    for t in f.toks() {
        if !is_ident(t, "unsafe") || f.is_test_line(t.line) {
            continue;
        }
        let mut documented = safety_lines.contains(&t.line);
        let mut l = t.line.saturating_sub(1);
        while !documented && l > 0 && comment_lines.contains(&l) {
            documented = safety_lines.contains(&l);
            l -= 1;
        }
        if !documented {
            out.push(Finding {
                rule: SAFETY_COMMENT,
                rel: f.rel.clone(),
                line: t.line,
                msg: "`unsafe` without an adjacent `// SAFETY:` comment stating the precondition"
                    .into(),
            });
        }
    }
}

/// A function item located in the token stream.
struct FnItem {
    name: String,
    /// Token range of the signature (after the name, up to the body).
    sig: (usize, usize),
    /// Token range of the body, *excluding* the outer braces.
    body: (usize, usize),
    line: u32,
}

/// Finds every `fn` item (including nested ones) and its body range.
/// Brace matching is exact because the lexer already removed comments,
/// strings, and char literals.
fn parse_fns(toks: &[Tok]) -> Vec<FnItem> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        if !is_ident(&toks[i], "fn") {
            i += 1;
            continue;
        }
        let Some(name_tok) = toks.get(i + 1) else {
            break;
        };
        if name_tok.kind != TokKind::Ident {
            i += 1;
            continue;
        }
        let sig_start = i + 2;
        // The signature runs to the body `{` at paren depth 0, or to a
        // `;` (trait/extern declaration, no body).
        let mut j = sig_start;
        let mut paren = 0usize;
        let mut body = None;
        while j < toks.len() {
            let t = &toks[j];
            if is_punct(t, "(") {
                paren += 1;
            } else if is_punct(t, ")") {
                paren = paren.saturating_sub(1);
            } else if paren == 0 && is_punct(t, ";") {
                break;
            } else if paren == 0 && is_punct(t, "{") {
                // Body: find the matching close brace.
                let mut depth = 1usize;
                let mut k = j + 1;
                while k < toks.len() && depth > 0 {
                    if is_punct(&toks[k], "{") {
                        depth += 1;
                    } else if is_punct(&toks[k], "}") {
                        depth -= 1;
                    }
                    k += 1;
                }
                body = Some((j + 1, k.saturating_sub(1)));
                break;
            }
            j += 1;
        }
        if let Some(body) = body {
            out.push(FnItem {
                name: name_tok.text.clone(),
                sig: (sig_start, j),
                body,
                line: toks[i].line,
            });
        }
        // Continue scanning *inside* the item too: nested fns are their
        // own scopes for loop attribution.
        i += 2;
    }
    out
}

/// The innermost function whose body contains token index `idx`.
fn innermost_fn(fns: &[FnItem], idx: usize) -> Option<&FnItem> {
    fns.iter()
        .filter(|f| f.body.0 <= idx && idx < f.body.1)
        .min_by_key(|f| f.body.1 - f.body.0)
}

/// `budget-tick`: in the budgeted solver files, every function
/// that takes a `Budget` must actually consume it, and every
/// *unbounded* loop (`while` / `loop`) in such a function must touch
/// the budget inside its body — a tick, a check, or handing `budget`
/// to a callee. Bounded `for` loops are out of scope: the worklist and
/// enumeration paths that can run away are all condition-driven.
pub fn budget_tick(f: &SourceFile, out: &mut Vec<Finding>) {
    if !BUDGET_FILES.contains(&f.rel.as_str()) {
        return;
    }
    let toks = f.toks();
    let fns = parse_fns(toks);
    let has_budget = |item: &FnItem| {
        toks[item.sig.0..item.sig.1]
            .iter()
            .any(|t| is_ident(t, "Budget"))
    };
    let touches_budget = |range: (usize, usize)| {
        toks[range.0..range.1]
            .iter()
            .any(|t| is_ident(t, "budget") || is_ident(t, "tick") || is_ident(t, "check"))
    };
    for item in &fns {
        if f.is_test_line(item.line) || !has_budget(item) {
            continue;
        }
        if !touches_budget(item.body) {
            out.push(Finding {
                rule: BUDGET_TICK,
                rel: f.rel.clone(),
                line: item.line,
                msg: format!(
                    "fn {} takes a Budget but never consumes it — deadlines cannot land here",
                    item.name
                ),
            });
        }
    }
    let mut i = 0;
    while i < toks.len() {
        let t = &toks[i];
        let is_loop_kw = is_ident(t, "while") || is_ident(t, "loop");
        if !is_loop_kw || f.is_test_line(t.line) {
            i += 1;
            continue;
        }
        let Some(owner) = innermost_fn(&fns, i) else {
            i += 1;
            continue;
        };
        if !has_budget(owner) {
            i += 1;
            continue;
        }
        // Body: first `{` at paren depth 0 after the keyword.
        let mut j = i + 1;
        let mut paren = 0usize;
        while j < toks.len() {
            if is_punct(&toks[j], "(") {
                paren += 1;
            } else if is_punct(&toks[j], ")") {
                paren = paren.saturating_sub(1);
            } else if paren == 0 && is_punct(&toks[j], "{") {
                break;
            }
            j += 1;
        }
        let mut depth = 1usize;
        let mut k = j + 1;
        while k < toks.len() && depth > 0 {
            if is_punct(&toks[k], "{") {
                depth += 1;
            } else if is_punct(&toks[k], "}") {
                depth -= 1;
            }
            k += 1;
        }
        if !touches_budget((j, k)) {
            out.push(Finding {
                rule: BUDGET_TICK,
                rel: f.rel.clone(),
                line: t.line,
                msg: format!(
                    "unbounded `{}` in budgeted fn {} never ticks/checks the budget",
                    t.text, owner.name
                ),
            });
        }
        i += 1;
    }
}

/// `no-blocking-in-event-loop`: the readiness-path functions of the
/// `poll(2)` event loop must not sleep, take locks, or block on
/// channels/joins — a stalled loop stalls every connection.
pub fn no_blocking_in_event_loop(f: &SourceFile, out: &mut Vec<Finding>) {
    if f.rel != "crates/service/src/server.rs" {
        return;
    }
    let toks = f.toks();
    let fns = parse_fns(toks);
    for item in fns
        .iter()
        .filter(|i| EVENT_LOOP_FNS.contains(&i.name.as_str()))
    {
        if f.is_test_line(item.line) {
            continue;
        }
        for i in item.body.0..item.body.1 {
            let t = &toks[i];
            let prev_dot = i > 0 && is_punct(&toks[i - 1], ".");
            let blocking = match t.text.as_str() {
                "sleep" | "read_to_end" | "read_to_string" | "park" => t.kind == TokKind::Ident,
                "lock" | "join" | "wait" => {
                    prev_dot && i + 1 < toks.len() && is_punct(&toks[i + 1], "(")
                }
                "recv" => {
                    // `.recv()` blocks; `.try_recv()` / `.recv_timeout()`
                    // are distinct identifiers and stay legal.
                    prev_dot
                        && i + 2 < toks.len()
                        && is_punct(&toks[i + 1], "(")
                        && is_punct(&toks[i + 2], ")")
                }
                _ => false,
            };
            if blocking {
                out.push(Finding {
                    rule: NO_BLOCKING_IN_EVENT_LOOP,
                    rel: f.rel.clone(),
                    line: t.line,
                    msg: format!(
                        "`{}` inside event-loop fn {} — the readiness path must never block",
                        t.text, item.name
                    ),
                });
            }
        }
    }
}

/// `cross-artifact-sync`: the protocol and STATS surfaces must agree
/// everywhere they are written down. Sub-checks (each skipped when its
/// artifact is absent, so fixture trees can exercise them one by one):
///
/// 1. `PROTOCOL_VERBS` (wire.rs) ≡ the verbs `RequestHeader::parse`
///    actually accepts (`Some("VERB")` arms).
/// 2. Every `RequestClass` variant is dispatched in state.rs.
/// 3. The README banner line (`protocol … verbs …`) ≡ `PROTOCOL_VERBS`,
///    and every verb appears quoted in the README wire grammar.
/// 4. Every STATS row the service tests mask (`fn mask_*`) and every
///    row CI parses (`sed -n 's/^row = //p'`) is a row metrics.rs emits
///    — rows live in `stats_response` or, since the metric registry
///    became the single source for the shared counters, in
///    `metric_registry` (whose `softhw_*` literals are metric names,
///    not rows).
/// 5. Every `softhw_*` metric name the registry or the METRICS
///    exposition emits appears backticked in the README metrics table.
pub fn cross_artifact_sync(ws: &Workspace, out: &mut Vec<Finding>) {
    let wire = ws.file("crates/service/src/wire.rs");
    let state = ws.file("crates/service/src/state.rs");
    let metrics = ws.file("crates/service/src/metrics.rs");

    // -- the verb universe, from the PROTOCOL_VERBS const.
    let verbs: Option<BTreeSet<String>> = wire.and_then(|f| {
        let toks = f.toks();
        (0..toks.len()).find_map(|i| {
            if is_ident(&toks[i], "PROTOCOL_VERBS") {
                toks[i..toks.len().min(i + 8)]
                    .iter()
                    .find(|t| t.kind == TokKind::Str)
                    .map(|t| t.text.split(',').map(|s| s.trim().to_string()).collect())
            } else {
                None
            }
        })
    });

    if let (Some(wire), Some(verbs)) = (wire, &verbs) {
        // 1. Verbs accepted by the header parser: `Some("VERB")`.
        let toks = wire.toks();
        let mut parsed = BTreeSet::new();
        for i in 0..toks.len().saturating_sub(3) {
            if is_ident(&toks[i], "Some")
                && is_punct(&toks[i + 1], "(")
                && toks[i + 2].kind == TokKind::Str
                && is_punct(&toks[i + 3], ")")
            {
                let v = &toks[i + 2].text;
                // Verbs are ≥ 2 chars: single uppercase letters are the
                // frame line tags (`A`, `N`), not protocol verbs.
                if v.len() >= 2 && v.chars().all(|c| c.is_ascii_uppercase() || c == '_') {
                    parsed.insert(v.clone());
                }
            }
        }
        for v in verbs.difference(&parsed) {
            out.push(Finding {
                rule: CROSS_ARTIFACT_SYNC,
                rel: wire.rel.clone(),
                line: 0,
                msg: format!(
                    "verb {v} advertised by PROTOCOL_VERBS but not parsed by RequestHeader::parse"
                ),
            });
        }
        for v in parsed.difference(verbs) {
            out.push(Finding {
                rule: CROSS_ARTIFACT_SYNC,
                rel: wire.rel.clone(),
                line: 0,
                msg: format!(
                    "verb {v} parsed by RequestHeader::parse but missing from PROTOCOL_VERBS"
                ),
            });
        }
    }

    // 2. Every RequestClass variant has a dispatch arm in state.rs.
    if let (Some(wire), Some(state)) = (wire, state) {
        let toks = wire.toks();
        let mut variants = Vec::new();
        for i in 0..toks.len().saturating_sub(2) {
            if is_ident(&toks[i], "enum") && is_ident(&toks[i + 1], "RequestClass") {
                let mut j = i + 2;
                while j < toks.len() && !is_punct(&toks[j], "{") {
                    j += 1;
                }
                let mut depth = 1usize;
                let mut expect_variant = true;
                j += 1;
                while j < toks.len() && depth > 0 {
                    let t = &toks[j];
                    if is_punct(t, "{") || is_punct(t, "(") {
                        depth += 1;
                    } else if is_punct(t, "}") || is_punct(t, ")") {
                        depth -= 1;
                    } else if depth == 1 && is_punct(t, ",") {
                        expect_variant = true;
                    } else if depth == 1 && t.kind == TokKind::Ident && expect_variant {
                        variants.push(t.text.clone());
                        expect_variant = false;
                    }
                    j += 1;
                }
                break;
            }
        }
        let st = state.toks();
        for v in variants {
            let dispatched = (0..st.len().saturating_sub(3)).any(|i| {
                is_ident(&st[i], "RequestClass")
                    && is_punct(&st[i + 1], ":")
                    && is_punct(&st[i + 2], ":")
                    && is_ident(&st[i + 3], &v)
            });
            if !dispatched {
                out.push(Finding {
                    rule: CROSS_ARTIFACT_SYNC,
                    rel: state.rel.clone(),
                    line: 0,
                    msg: format!(
                        "RequestClass::{v} is parsed by the wire but never dispatched in state.rs"
                    ),
                });
            }
        }
    }

    // 3. README banner + grammar agree with the verb list.
    if let (Some(readme), Some(verbs)) = (ws.readme.as_deref(), &verbs) {
        let banner: Option<BTreeSet<String>> = readme.lines().find_map(|l| {
            let l = l.trim();
            if l.starts_with("protocol ") && l.contains(" verbs ") {
                l.rsplit(" verbs ")
                    .next()
                    .map(|csv| csv.split(',').map(|s| s.trim().to_string()).collect())
            } else {
                None
            }
        });
        match banner {
            None => out.push(Finding {
                rule: CROSS_ARTIFACT_SYNC,
                rel: "README.md".into(),
                line: 0,
                msg: "README never shows the server banner (`protocol … verbs …`)".into(),
            }),
            Some(b) => {
                for v in verbs.difference(&b) {
                    out.push(Finding {
                        rule: CROSS_ARTIFACT_SYNC,
                        rel: "README.md".into(),
                        line: 0,
                        msg: format!("verb {v} missing from the README banner line"),
                    });
                }
                for v in b.difference(verbs) {
                    out.push(Finding {
                        rule: CROSS_ARTIFACT_SYNC,
                        rel: "README.md".into(),
                        line: 0,
                        msg: format!("README banner advertises {v}, which PROTOCOL_VERBS does not"),
                    });
                }
            }
        }
        for v in verbs {
            if !readme.contains(&format!("\"{v}\"")) {
                out.push(Finding {
                    rule: CROSS_ARTIFACT_SYNC,
                    rel: "README.md".into(),
                    line: 0,
                    msg: format!("verb {v} never appears quoted in the README wire grammar"),
                });
            }
        }
    }

    // 4. STATS rows: tests/CI must only reference rows metrics.rs emits.
    if let Some(metrics) = metrics {
        let toks = metrics.toks();
        let fns = parse_fns(toks);

        // 5. METRICS names: everything the registry or the exposition
        //    emits must be documented (backticked) in the README
        //    metrics table. Skipped when the tree has no metrics
        //    surface at all.
        let metric_names: BTreeSet<String> = fns
            .iter()
            .filter(|f| f.name == "metric_registry" || f.name == "metrics_response")
            .flat_map(|f| toks[f.body.0..f.body.1].iter())
            .filter(|t| t.kind == TokKind::Str)
            .flat_map(|t| metric_names_in(&t.text))
            .collect();
        if let Some(readme) = ws.readme.as_deref() {
            for name in &metric_names {
                if !readme.contains(&format!("`{name}`")) {
                    out.push(Finding {
                        rule: CROSS_ARTIFACT_SYNC,
                        rel: "README.md".into(),
                        line: 0,
                        msg: format!(
                            "metric {name} emitted by METRICS but missing from the README metrics table"
                        ),
                    });
                }
            }
        }

        let emitted: BTreeSet<String> = fns
            .iter()
            .filter(|f| f.name == "stats_response" || f.name == "metric_registry")
            .flat_map(|f| toks[f.body.0..f.body.1].iter())
            .filter(|t| {
                t.kind == TokKind::Str && is_row_key(&t.text) && !t.text.starts_with("softhw_")
            })
            .map(|t| t.text.clone())
            .collect();
        if emitted.is_empty() {
            return;
        }
        let matches_emitted = |key: &str| {
            if let Some(prefix) = key.strip_suffix('_') {
                emitted.iter().any(|e| e.starts_with(prefix))
            } else {
                emitted.contains(key)
            }
        };
        for f in ws
            .files
            .iter()
            .filter(|f| f.rel.starts_with("crates/service/tests/"))
        {
            let toks = f.toks();
            for item in parse_fns(toks)
                .iter()
                .filter(|i| i.name.starts_with("mask"))
            {
                for t in &toks[item.body.0..item.body.1] {
                    if t.kind == TokKind::Str && is_row_key(&t.text) && !matches_emitted(&t.text) {
                        out.push(Finding {
                            rule: CROSS_ARTIFACT_SYNC,
                            rel: f.rel.clone(),
                            line: t.line,
                            msg: format!(
                                "test masks STATS row {:?}, which stats_response never emits",
                                t.text
                            ),
                        });
                    }
                }
            }
        }
        if let Some(ci) = ws.ci.as_deref() {
            for (i, line) in ci.lines().enumerate() {
                let mut rest = line;
                while let Some(pos) = rest.find("sed -n 's/^") {
                    rest = &rest[pos + "sed -n 's/^".len()..];
                    if let Some(end) = rest.find(" = //p'") {
                        let key = &rest[..end];
                        if is_row_key(key) && !matches_emitted(key) {
                            out.push(Finding {
                                rule: CROSS_ARTIFACT_SYNC,
                                rel: ".github/workflows".into(),
                                line: (i + 1) as u32,
                                msg: format!(
                                    "CI parses STATS row {key:?}, which stats_response never emits"
                                ),
                            });
                        }
                    }
                }
            }
        }
    }
}

/// Every maximal `softhw_*` identifier run inside a string literal:
/// the metric names in `# TYPE …` comments, bare registry names, and
/// labelled `format!` templates (`softhw_x{{…}} {v}`) all start at a
/// `softhw_` word boundary and run over `[a-z0-9_]`.
fn metric_names_in(s: &str) -> Vec<String> {
    let bytes = s.as_bytes();
    let ident = |c: u8| c.is_ascii_lowercase() || c.is_ascii_digit() || c == b'_';
    let mut out = Vec::new();
    let mut i = 0;
    while let Some(pos) = s.get(i..).and_then(|rest| rest.find("softhw_")) {
        let start = i + pos;
        // Mid-identifier hit (`not_softhw_x`): not a name boundary.
        if start > 0 && bytes.get(start - 1).copied().is_some_and(ident) {
            i = start + 1;
            continue;
        }
        let mut end = start;
        while bytes.get(end).copied().is_some_and(ident) {
            end += 1;
        }
        if let Some(name) = s.get(start..end) {
            out.push(name.to_string());
        }
        i = end;
    }
    out
}

/// A STATS row key: lowercase snake_case with at least one underscore
/// or a known bare word — in practice every literal inside
/// `stats_response` that looks like an identifier.
fn is_row_key(s: &str) -> bool {
    !s.is_empty()
        && s.chars().next().is_some_and(|c| c.is_ascii_lowercase())
        && s.chars()
            .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_')
}
