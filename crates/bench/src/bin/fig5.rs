//! Regenerates **Figure 5**: for the TPC-DS query `q_ds`, evaluation time
//! of every ConCov-shw-2 candidate tree decomposition against (left) the
//! actual-cardinality cost, (middle) the DBMS-estimate cost, and (right)
//! all TDs ordered by runtime with the baseline ("standard execution")
//! marked.
//!
//! Expected shape (paper): runtimes spread by ~an order of magnitude
//! across decompositions; actual-cardinality cost correlates with
//! runtime; DBMS-estimate cost correlates poorly or inversely; the
//! baseline sits between the best and worst decompositions.

use softhw_bench::{prepare, print_series, run_baseline, run_decomposition};
use softhw_core::constraints::concov_exact_filter;
use softhw_core::ctd_opt::{evaluate_td, top_n};
use softhw_core::soft::cover_bags;
use softhw_query::{CostContext, DbmsEstimateCost, TrueCardCost};

fn main() {
    let inst = prepare("q_ds", 42);
    let bags = concov_exact_filter(&inst.h, inst.k, &cover_bags(&inst.h, inst.k, true));
    let cx = CostContext::new(&inst.cq, &inst.h, &inst.atoms, &inst.db);
    let actual = TrueCardCost { cx: &cx };
    let estimate = DbmsEstimateCost { cx: &cx };
    let all = top_n(&inst.h, &bags, &actual, usize::MAX);
    eprintln!("q_ds: {} ConCov-shw-2 decompositions", all.len());

    let mut rows_actual = Vec::new();
    let mut rows_estimate = Vec::new();
    let mut runtimes: Vec<(f64, u64)> = Vec::new();
    let mut value_check: Option<Option<u64>> = None;
    for (td, s) in &all {
        let run = run_decomposition(&inst, td).expect("plannable");
        match &value_check {
            None => value_check = Some(run.value),
            Some(v) => assert_eq!(*v, run.value, "all decompositions agree"),
        }
        let est = evaluate_td(&inst.h, td, &estimate).expect("estimable");
        rows_actual.push(format!("{:.1},{:.6}", s.cost, run.seconds));
        rows_estimate.push(format!("{:.1},{:.6}", est.cost, run.seconds));
        runtimes.push((run.seconds, run.stats.tuples_materialised));
    }
    print_series(
        "Figure 5 (left): cost (actual cardinalities) vs evaluation time",
        "cost,seconds",
        &rows_actual,
    );
    print_series(
        "Figure 5 (middle): cost (DBMS estimates) vs evaluation time",
        "cost,seconds",
        &rows_estimate,
    );
    runtimes.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite"));
    let ordered: Vec<String> = runtimes
        .iter()
        .enumerate()
        .map(|(i, (s, t))| format!("{i},{s:.6},{t}"))
        .collect();
    print_series(
        "Figure 5 (right): TDs ordered by runtime",
        "rank,seconds,tuples_materialised",
        &ordered,
    );
    match run_baseline(&inst, 200_000_000) {
        Some(b) => {
            println!(
                "baseline: {:.6} s ({} tuples materialised)",
                b.seconds, b.stats.tuples_materialised
            );
            assert_eq!(Some(b.value), value_check, "baseline agrees on the answer");
        }
        None => println!("baseline: exceeded intermediate cap (timeout)"),
    }
    if let (Some(first), Some(last)) = (runtimes.first(), runtimes.last()) {
        println!(
            "spread: fastest {:.6}s, slowest {:.6}s ({:.1}x)",
            first.0,
            last.0,
            last.0 / first.0.max(1e-12)
        );
    }
}
