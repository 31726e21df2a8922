//! Shared harness utilities for the experiment binaries that regenerate
//! the paper's tables and figures. Each binary prints the same rows or
//! series the paper reports (plus machine-independent logical cost
//! counters).

#![warn(missing_docs)]

use softhw_core::td::TreeDecomposition;
use softhw_engine::yannakakis::EvalStats;
use softhw_engine::Database;
use softhw_hypergraph::Hypergraph;
use softhw_query::{ConjunctiveQuery, ExecResult};
use std::time::Instant;

/// A prepared experiment instance: bound query, hypergraph, atom
/// relations.
pub struct Instance {
    /// The paper's query name.
    pub name: &'static str,
    /// Width parameter used by the paper for this query.
    pub k: usize,
    /// The bound conjunctive query.
    pub cq: ConjunctiveQuery,
    /// Its hypergraph.
    pub h: Hypergraph,
    /// Materialised atom relations.
    pub atoms: Vec<softhw_engine::Relation>,
    /// The populated database.
    pub db: Database,
}

/// Binds and materialises one of the six benchmark queries on generated
/// data (deterministic in `seed`).
pub fn prepare(name: &'static str, seed: u64) -> Instance {
    let (_, sql, k) = softhw_workloads::queries::all_queries()
        .into_iter()
        .find(|(n, _, _)| *n == name)
        .unwrap_or_else(|| panic!("unknown query {name}"));
    let db = softhw_workloads::database_for(name, seed);
    let cq = softhw_query::bind(&softhw_query::parse_sql(sql).expect("fixed SQL"), &db)
        .expect("schema matches");
    let h = cq.hypergraph();
    let atoms = softhw_query::atom_relations(&cq, &db);
    Instance {
        name,
        k,
        cq,
        h,
        atoms,
        db,
    }
}

/// One timed decomposition evaluation.
pub struct TimedRun {
    /// Wall-clock seconds.
    pub seconds: f64,
    /// The aggregate value produced.
    pub value: Option<u64>,
    /// Logical counters.
    pub stats: EvalStats,
}

/// Executes a decomposition plan, timing wall clock.
pub fn run_decomposition(inst: &Instance, td: &TreeDecomposition) -> Option<TimedRun> {
    let plan = softhw_query::build_plan(&inst.cq, &inst.h, td).ok()?;
    let start = Instant::now();
    let ExecResult { value, stats, .. } = softhw_query::execute(&inst.cq, &inst.atoms, &plan);
    Some(TimedRun {
        seconds: start.elapsed().as_secs_f64(),
        value,
        stats,
    })
}

/// Executes a decomposition plan with a materialisation cap; `None` when
/// the cap is exceeded (the harness's "timeout").
pub fn run_decomposition_capped(
    inst: &Instance,
    td: &TreeDecomposition,
    cap: u64,
) -> Option<TimedRun> {
    let plan = softhw_query::build_plan(&inst.cq, &inst.h, td).ok()?;
    let start = Instant::now();
    let res = softhw_query::plan::execute_with_cap(&inst.cq, &inst.atoms, &plan, cap)?;
    Some(TimedRun {
        seconds: start.elapsed().as_secs_f64(),
        value: res.value,
        stats: res.stats,
    })
}

/// Executes the baseline binary-join plan, timing wall clock. `None` if
/// the run exceeded the intermediate-result cap ("timeout").
pub fn run_baseline(inst: &Instance, cap: u64) -> Option<TimedRun> {
    let start = Instant::now();
    let res = softhw_engine::baseline::run_baseline(&inst.atoms, &[inst.cq.agg_var], cap)?;
    let value = match inst.cq.agg {
        softhw_query::Agg::Min => res.answer.min_of(inst.cq.agg_var),
        softhw_query::Agg::Max => res.answer.max_of(inst.cq.agg_var),
        softhw_query::Agg::Count => Some(res.answer.len() as u64),
    };
    Some(TimedRun {
        seconds: start.elapsed().as_secs_f64(),
        value,
        stats: res.stats,
    })
}

/// Prints a CSV-ish series header + rows to stdout.
pub fn print_series(title: &str, header: &str, rows: &[String]) {
    println!("## {title}");
    println!("{header}");
    for r in rows {
        println!("{r}");
    }
    println!();
}
