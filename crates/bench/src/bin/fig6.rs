//! Regenerates **Figure 6**: for Hetionet queries Q1 (`q_hto`) and Q2
//! (`q_hto2`), the evaluation times of the 10 cheapest width-2 ConCov
//! decompositions vs their cost, the baseline time, and (right chart) the
//! average evaluation time of 10 randomly chosen width-2 decompositions
//! with and without the ConCov constraint.
//!
//! Expected shape (paper): all ConCov decompositions beat the baseline by
//! multiples; random unconstrained TDs are far slower on average than
//! random ConCov TDs.
//!
//! Besides the seconds, every series prints the tuples each
//! decomposition materialised, which depend on the decompositions alone
//! and not on the machine.

use rand::rngs::SmallRng;
use rand::SeedableRng;
use softhw_bench::{
    prepare, print_series, run_baseline, run_decomposition, run_decomposition_capped, Instance,
};
use softhw_core::constraints::concov_exact_filter;
use softhw_core::ctd_opt::{sample_random, top_n};
use softhw_core::soft::{cover_bags, soft_bags};
use softhw_query::{CostContext, DbmsEstimateCost};

fn ten_cheapest(inst: &Instance) {
    let bags = concov_exact_filter(&inst.h, inst.k, &cover_bags(&inst.h, inst.k, true));
    let cx = CostContext::new(&inst.cq, &inst.h, &inst.atoms, &inst.db);
    let eval = DbmsEstimateCost { cx: &cx };
    let top = top_n(&inst.h, &bags, &eval, 10);
    let mut rows = Vec::new();
    for (td, s) in &top {
        let run = run_decomposition(inst, td).expect("plannable");
        let tuples = run.stats.tuples_materialised;
        rows.push(format!("{:.1},{:.6},{tuples}", s.cost, run.seconds));
    }
    print_series(
        &format!(
            "Figure 6: {} 10 cheapest ConCov-shw-2 TDs (DBMS-estimate cost)",
            inst.name
        ),
        "cost,seconds,tuples_materialised",
        &rows,
    );
    match run_baseline(inst, 60_000_000) {
        Some(b) => println!("baseline ({}): {:.6} s", inst.name, b.seconds),
        None => println!("baseline ({}): exceeded cap", inst.name),
    }
    println!();
}

/// Average over `n` random decompositions; runs exceeding the
/// materialisation cap count as `cap_penalty` seconds (the paper's runs
/// simply took hundreds of seconds; we cap and penalise to keep the
/// harness bounded). Returns (average seconds, timeouts, the tuples each
/// run materialised — `cap` for a run cut at the cap).
fn random_avg(inst: &Instance, concov: bool, n: usize) -> Option<(f64, usize, Vec<String>)> {
    const CAP: u64 = 30_000_000;
    const CAP_PENALTY: f64 = 30.0;
    let all_bags = soft_bags(&inst.h, inst.k);
    let bags = if concov {
        concov_exact_filter(&inst.h, inst.k, &all_bags)
    } else {
        all_bags
    };
    let mut rng = SmallRng::seed_from_u64(7);
    let mut total = 0.0;
    let mut timeouts = 0usize;
    let mut tuples = Vec::with_capacity(n);
    for _ in 0..n {
        let td = sample_random(&inst.h, &bags, &mut rng)?;
        match run_decomposition_capped(inst, &td, CAP) {
            Some(run) => {
                total += run.seconds;
                tuples.push(run.stats.tuples_materialised.to_string());
            }
            None => {
                total += CAP_PENALTY;
                timeouts += 1;
                tuples.push("cap".into());
            }
        }
    }
    Some((total / n as f64, timeouts, tuples))
}

fn main() {
    for name in ["q_hto", "q_hto2"] {
        let inst = prepare(name, 42);
        ten_cheapest(&inst);
    }
    let mut tuples = Vec::new();
    println!("## Figure 6 (right): avg time of 10 random width-2 TDs");
    println!("query,concov_avg_seconds,all_avg_seconds,concov_timeouts,all_timeouts");
    for name in ["q_hto", "q_hto2"] {
        let inst = prepare(name, 42);
        let with = random_avg(&inst, true, 10);
        let without = random_avg(&inst, false, 10);
        let fmt = |r: &Option<(f64, usize, Vec<String>)>, idx: usize| match r {
            Some((s, t, _)) => {
                if idx == 0 {
                    format!("{s:.6}")
                } else {
                    format!("{t}")
                }
            }
            None => "n/a".into(),
        };
        println!(
            "{name},{},{},{},{}",
            fmt(&with, 0),
            fmt(&without, 0),
            fmt(&with, 1),
            fmt(&without, 1)
        );
        let draws = |r: Option<(f64, usize, Vec<String>)>| r.map(|(.., t)| t).unwrap_or_default();
        tuples.push((name, draws(with), draws(without)));
    }
    println!();
    for (name, with, without) in tuples {
        let rows: Vec<String> = (0..with.len().max(without.len()))
            .map(|i| {
                let at = |t: &[String]| t.get(i).cloned().unwrap_or_else(|| "n/a".into());
                format!("{i},{},{}", at(&with), at(&without))
            })
            .collect();
        print_series(
            &format!("Figure 6 (right): {name} tuples materialised by the 10 random TDs"),
            "draw,concov_tuples,all_tuples",
            &rows,
        );
    }
}
