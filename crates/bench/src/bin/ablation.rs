//! Ablation sweeps for three design choices of this crate's solver
//! stack, each printed as a CSV table:
//!
//! 1. **Decompose at query time, bottom-up.** Latency vs hypergraph
//!    size, testing the paper's claim that bottom-up CTD computation "is
//!    in the order of milliseconds and does not create a new bottleneck"
//!    (Section 1), swept over random query-shaped hypergraphs and cycles.
//! 2. **Solve `shw`, not `hw`.** The soft solver avoids the special
//!    condition bookkeeping; how do the two searches scale?
//! 3. **Generate all of `Soft_{H,k}`.** Full Definition 3 vs the
//!    prototype's cover-union subset: size and decision-time impact, and
//!    whether the extra Definition-3 bags ever change decomposability at
//!    the same width (they can only help).

use softhw_core::soft::{cover_bags, soft_bags};
use softhw_core::{candidate_td, hw, shw};
use softhw_hypergraph::random::{random_hypergraph, random_query_graph, RandomConfig};
use softhw_hypergraph::stats::stats;
use std::time::Instant;

fn ms(f: impl FnOnce()) -> f64 {
    let t = Instant::now();
    f();
    t.elapsed().as_secs_f64() * 1e3
}

fn main() {
    println!("## Ablation 1: CTD latency vs query size (k = 2, random binary query graphs)");
    println!("atoms,vars,|Soft|,gen_ms,decide_ms");
    for atoms in [4usize, 6, 8, 10, 12, 14] {
        let vars = atoms; // cyclic-ish density
        let h = random_query_graph(vars, atoms, 7);
        let mut bags = Vec::new();
        let gen = ms(|| bags = soft_bags(&h, 2));
        let mut ok = false;
        let dec = ms(|| ok = candidate_td(&h, &bags).is_some());
        println!(
            "{atoms},{vars},{},{gen:.3},{dec:.3}  (decomposable at k=2: {ok})",
            bags.len()
        );
    }
    println!();

    println!("## Ablation 2: shw vs hw solver latency (exact widths)");
    println!("instance,shw,shw_ms,hw,hw_ms");
    let mut instances: Vec<(String, softhw_hypergraph::Hypergraph)> = vec![
        ("H2".into(), softhw_hypergraph::named::h2()),
        ("C8".into(), softhw_hypergraph::named::cycle(8)),
        ("grid3x3".into(), softhw_hypergraph::named::grid(3, 3)),
    ];
    for seed in 0..3 {
        instances.push((
            format!("rand8x8/{seed}"),
            random_hypergraph(
                &RandomConfig {
                    num_vertices: 8,
                    num_edges: 8,
                    min_arity: 2,
                    max_arity: 3,
                    connect: true,
                },
                seed,
            ),
        ));
    }
    for (name, h) in &instances {
        let mut sv = 0;
        let st = ms(|| sv = shw::shw(h).0);
        let mut hv = 0;
        let ht = ms(|| hv = hw::hw(h).0);
        println!("{name},{sv},{st:.3},{hv},{ht:.3}");
        assert!(sv <= hv, "Theorem 2");
    }
    println!();

    println!("## Ablation 3: Definition-3 Soft vs prototype cover bags (k = 2)");
    println!("instance,|cover_bags|,|soft_def3|,cover_decides,def3_decides");
    for (name, h) in &instances {
        let cb = cover_bags(h, 2, true);
        let sb = soft_bags(h, 2);
        let cd = candidate_td(h, &cb).is_some();
        let sd = candidate_td(h, &sb).is_some();
        // The Definition-3 set is a superset: it can only decide "yes" in
        // more cases.
        assert!(!cd || sd, "{name}: cover-decidable implies Soft-decidable");
        println!("{name},{},{},{cd},{sd}", cb.len(), sb.len());
    }
    println!();

    println!("## Instance statistics (context for the sweeps above)");
    for (name, h) in &instances {
        println!("{name}: {:?}", stats(h));
    }
}
