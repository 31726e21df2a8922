//! CLI for the workspace invariant analyzer.
//!
//! ```text
//! softhw-lint --workspace [--root <path>] [--max-waivers <n>] [--list-waivers]
//! ```
//!
//! Prints one `file:line rule message` line per unwaived finding and
//! exits nonzero when any exist (CI gates on this). `--list-waivers`
//! prints the waiver inventory with justifications; `--max-waivers`
//! additionally fails the run when the tree carries more waivers than
//! the budget — the escape hatch must not become the norm.

use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut root = PathBuf::from(".");
    let mut list_waivers = false;
    let mut max_waivers: Option<usize> = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            // The default and only mode; accepted for CI readability.
            "--workspace" => {}
            "--root" => match args.next() {
                Some(p) => root = PathBuf::from(p),
                None => return usage("--root needs a path"),
            },
            "--max-waivers" => match args.next().and_then(|v| v.parse().ok()) {
                Some(n) => max_waivers = Some(n),
                None => return usage("--max-waivers needs a number"),
            },
            "--list-waivers" => list_waivers = true,
            "--help" | "-h" => return usage(""),
            other => return usage(&format!("unknown argument {other:?}")),
        }
    }
    let report = match softhw_lint::analyze(&root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!(
                "softhw-lint: cannot read workspace at {}: {e}",
                root.display()
            );
            return ExitCode::from(2);
        }
    };
    for f in &report.findings {
        println!("{}:{} [{}] {}", f.rel, f.line, f.rule, f.msg);
    }
    if list_waivers || !report.waivers.is_empty() {
        eprintln!("waivers: {}", report.waivers.len());
        for (rel, rule, line, why) in &report.waivers {
            eprintln!("  {rel}:{line} [{rule}] {why}");
        }
    }
    let over_budget = max_waivers.is_some_and(|cap| report.waivers.len() > cap);
    if over_budget {
        eprintln!(
            "softhw-lint: {} waivers exceed the budget of {}",
            report.waivers.len(),
            max_waivers.unwrap_or(0)
        );
    }
    if report.clean() && !over_budget {
        eprintln!(
            "softhw-lint: clean ({} waived site(s), {} waiver(s))",
            report.waived.len(),
            report.waivers.len()
        );
        ExitCode::SUCCESS
    } else {
        eprintln!("softhw-lint: {} finding(s)", report.findings.len());
        ExitCode::FAILURE
    }
}

fn usage(err: &str) -> ExitCode {
    if !err.is_empty() {
        eprintln!("softhw-lint: {err}");
    }
    eprintln!("usage: softhw-lint --workspace [--root path] [--max-waivers n] [--list-waivers]");
    if err.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(2)
    }
}
