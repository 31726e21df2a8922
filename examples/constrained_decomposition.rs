//! Constrained decompositions (Section 6 of the paper): how `ConCov`
//! rules out Cartesian products (Example 3), how width can grow under
//! constraints (`C5`), and how `PartClust` clusters a distributed query's
//! partitions into disjoint subtrees (Example 4).
//!
//! ```sh
//! cargo run --example constrained_decomposition
//! ```

use softhw::core::constraints::{concov_filter, ConCov, PartClust, ShallowCyc, Trivial};
use softhw::core::ctd_opt::best;
use softhw::core::soft::soft_bags;
use softhw::core::{candidate_td, cover};
use softhw::hypergraph::named;

fn main() {
    // --- Example 3: the 4-cycle and Cartesian products -----------------
    let h = named::four_cycle_query();
    let bags = soft_bags(&h, 2);
    let td = candidate_td(&h, &bags).expect("shw = 2");
    println!("Unconstrained width-2 decomposition of the 4-cycle:");
    println!("{}", td.render(&h));
    for bag in td.bags() {
        let cover = cover::find_cover(&h, bag, 2).expect("width 2");
        let connected = cover::edges_connected(&h, &cover);
        println!(
            "  bag {} covered by {:?} (connected: {connected})",
            h.render_vertex_set(bag),
            cover.iter().map(|&e| h.edge_name(e)).collect::<Vec<_>>()
        );
    }
    // D1/D3 of Example 3 compute T×R or S×U; ConCov bans them:
    let concov_bags = concov_filter(&h, 2, &bags);
    match candidate_td(&h, &concov_bags) {
        Some(td) => {
            println!("ConCov-shw-2 decomposition (no Cartesian products):");
            println!("{}", td.render(&h));
        }
        None => println!("no ConCov decomposition at width 2"),
    }

    // --- C5: constraints can increase the width -------------------------
    // `ConCov` as an evaluator of Algorithm 2, which answers as Algorithm 1
    // does on the filtered bags above.
    let c5 = named::cycle(5);
    let concov_ctd = |k| best(&c5, &soft_bags(&c5, k), &ConCov { k }).is_some();
    println!(
        "C5: ConCov CTD at width 2 exists: {}, at width 3: {} \
         (paper: ConCov-shw(C5) = 3 although shw(C5) = 2)",
        concov_ctd(2),
        concov_ctd(3),
    );

    // --- Example 4: partition clustering --------------------------------
    let (hq, labels) = named::example4_query();
    let bags = soft_bags(&hq, 2);
    let eval = PartClust {
        k: 2,
        labels,
        num_partitions: 2,
    };
    let (td, summary) = best(&hq, &bags, &eval).expect("Figure 4c exists");
    println!("PartClust decomposition of Example 4 (partitions form disjoint subtrees):");
    println!("{}", td.render(&hq));
    println!("feasible root partitions: {:?}", summary.options);

    // --- ShallowCyc: bound the depth of the cyclic core -----------------
    let eval = ShallowCyc { d: 0 };
    match best(&hq, &bags, &eval) {
        Some((td, depth)) => {
            println!("ShallowCyc_0 decomposition (cyclic core at the root only):");
            println!("{}", td.render(&hq));
            println!("deepest multi-edge node depth: {depth}");
        }
        None => println!("no ShallowCyc_0 decomposition at width 2"),
    }
    let _ = best(&hq, &bags, &Trivial);
}
