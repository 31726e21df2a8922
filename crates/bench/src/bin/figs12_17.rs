//! Regenerates **Figures 12–17** (Appendix D): for each benchmark query,
//! the scatter of evaluation time against both cost functions over all
//! ConCov candidate tree decompositions, plus the baseline where the
//! paper reports one (Figures 13 and 14).
//!
//! Run a single query with `figs12_17 -- q_hto`; no argument runs all
//! six. Mapping: fig12 = q_ds, fig13 = q_hto, fig14 = q_hto2,
//! fig15 = q_hto3, fig16 = q_hto4, fig17 = q_lb.

use softhw_bench::{prepare, print_series, run_baseline, run_decomposition};
use softhw_core::constraints::concov_exact_filter;
use softhw_core::ctd_opt::{evaluate_td, top_n};
use softhw_core::soft::cover_bags;
use softhw_query::{CostContext, DbmsEstimateCost, TrueCardCost};

fn run_query(name: &'static str, fig: usize) {
    let inst = prepare(name, 42);
    let bags = concov_exact_filter(&inst.h, inst.k, &cover_bags(&inst.h, inst.k, true));
    let cx = CostContext::new(&inst.cq, &inst.h, &inst.atoms, &inst.db);
    let actual = TrueCardCost { cx: &cx };
    let estimate = DbmsEstimateCost { cx: &cx };
    let all = top_n(&inst.h, &bags, &actual, usize::MAX);
    let mut rows_actual = Vec::new();
    let mut rows_estimate = Vec::new();
    for (td, s) in &all {
        let Some(run) = run_decomposition(&inst, td) else {
            continue;
        };
        let est = evaluate_td(&inst.h, td, &estimate).expect("estimable");
        rows_actual.push(format!("{:.1},{:.6}", s.cost, run.seconds));
        rows_estimate.push(format!("{:.1},{:.6}", est.cost, run.seconds));
    }
    print_series(
        &format!("Figure {fig} ({name}, left): actual-cardinality cost vs time"),
        "cost,seconds",
        &rows_actual,
    );
    print_series(
        &format!("Figure {fig} ({name}, right): DBMS-estimate cost vs time"),
        "cost,seconds",
        &rows_estimate,
    );
    if matches!(name, "q_hto" | "q_hto2") {
        match run_baseline(&inst, 60_000_000) {
            Some(b) => println!("baseline ({name}): {:.6} s", b.seconds),
            None => println!("baseline ({name}): exceeded cap"),
        }
        println!();
    }
    // Rank correlation between each cost function and runtime (Spearman),
    // summarising the paper's correlation claims numerically.
    let rho_a = spearman(&rows_actual);
    let rho_e = spearman(&rows_estimate);
    println!(
        "spearman({name}): actual-cost vs time = {rho_a:.3}, estimate-cost vs time = {rho_e:.3}"
    );
    println!();
}

fn spearman(rows: &[String]) -> f64 {
    let pts: Vec<(f64, f64)> = rows
        .iter()
        .map(|r| {
            let mut it = r.split(',');
            let c: f64 = it.next().expect("cost").parse().expect("float");
            let t: f64 = it.next().expect("time").parse().expect("float");
            (c, t)
        })
        .collect();
    let n = pts.len();
    if n < 2 {
        return 0.0;
    }
    let rank = |vals: Vec<f64>| -> Vec<f64> {
        let mut idx: Vec<usize> = (0..vals.len()).collect();
        idx.sort_by(|&a, &b| vals[a].partial_cmp(&vals[b]).expect("finite"));
        let mut r = vec![0.0; vals.len()];
        for (pos, &i) in idx.iter().enumerate() {
            r[i] = pos as f64;
        }
        r
    };
    let rc = rank(pts.iter().map(|p| p.0).collect());
    let rt = rank(pts.iter().map(|p| p.1).collect());
    let mean = (n as f64 - 1.0) / 2.0;
    let mut num = 0.0;
    let mut dc = 0.0;
    let mut dt = 0.0;
    for i in 0..n {
        num += (rc[i] - mean) * (rt[i] - mean);
        dc += (rc[i] - mean).powi(2);
        dt += (rt[i] - mean).powi(2);
    }
    if dc == 0.0 || dt == 0.0 {
        0.0
    } else {
        num / (dc * dt).sqrt()
    }
}

fn main() {
    let arg = std::env::args().nth(1);
    let queries: Vec<(&'static str, usize)> = vec![
        ("q_ds", 12),
        ("q_hto", 13),
        ("q_hto2", 14),
        ("q_hto3", 15),
        ("q_hto4", 16),
        ("q_lb", 17),
    ];
    match arg.as_deref() {
        Some(q) => {
            let (name, fig) = queries
                .iter()
                .find(|(n, f)| *n == q || q == format!("fig{f}"))
                .copied()
                .unwrap_or_else(|| panic!("unknown query {q}"));
            run_query(name, fig);
        }
        None => {
            for (name, fig) in queries {
                run_query(name, fig);
            }
        }
    }
}
