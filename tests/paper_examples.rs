//! Integration tests pinning the paper's concrete claims about its named
//! example hypergraphs (Examples 1–2, Appendix A.2, Section 6).

use softhw::core::constraints::{concov_filter, Trivial};
use softhw::core::ctd_opt::best;
use softhw::core::soft::{soft_bags, soft_witness, SoftLimits};
use softhw::core::soft_iter::{ghw, shw_i, soft_i_witness};
use softhw::core::td::TreeDecomposition;
use softhw::core::{candidate_td, hw, shw};
use softhw::hypergraph::named;
use softhw::hypergraph::Hypergraph;

#[test]
fn example1_h2_widths() {
    // Example 1: ghw(H2) = shw(H2) = 2 and hw(H2) = 3.
    let h = named::h2();
    assert_eq!(shw::shw(&h).0, 2);
    assert_eq!(hw::hw(&h).0, 3);
    assert_eq!(ghw(&h, &SoftLimits::default()).unwrap(), 2);
}

#[test]
fn example1_figure_1b_is_a_soft_hd() {
    // The decomposition of Figure 1b is a CTD for Soft_{H2,2}.
    let h = named::h2();
    let mut td = TreeDecomposition::new(h.vset(&["2", "6", "7", "a", "b"]));
    let mid = td.add_child(td.root(), h.vset(&["2", "5", "6", "a", "b"]));
    td.add_child(mid, h.vset(&["2", "3", "4", "5", "a", "b"]));
    td.add_child(td.root(), h.vset(&["1", "2", "7", "8", "a", "b"]));
    assert_eq!(td.validate(&h), Ok(()));
    let bags = soft_bags(&h, 2);
    assert!(softhw::core::ctd::is_candidate_td(&h, &td, &bags));
}

#[test]
fn hierarchy_on_h2_interpolates() {
    // ghw <= shw_1 <= shw_0 = shw (Section 5, Lemma 3 + Theorem 7).
    let h = named::h2();
    let limits = SoftLimits::default();
    let s0 = shw_i(&h, 0, &limits).unwrap();
    let s1 = shw_i(&h, 1, &limits).unwrap();
    let g = ghw(&h, &limits).unwrap();
    assert_eq!(s0, 2);
    assert!(g <= s1 && s1 <= s0);
}

/// The Figure 9 / Figure 2b decomposition shared by H3 and H'3.
fn figure9_td(h: &Hypergraph) -> TreeDecomposition {
    let gh = ["g11", "g12", "g21", "g22", "h11", "h12", "h21", "h22"];
    let bag = |extra: &[&str]| {
        let mut names: Vec<&str> = gh.to_vec();
        names.extend_from_slice(extra);
        h.vset(&names)
    };
    let mut td = TreeDecomposition::new(bag(&["3", "0'", "0"]));
    let l1 = td.add_child(td.root(), bag(&["3", "0", "1"]));
    let l2 = td.add_child(l1, bag(&["3", "1", "2"]));
    td.add_child(l2, bag(&["4", "2"]));
    let r1 = td.add_child(td.root(), bag(&["3'", "0'", "1'"]));
    let r2 = td.add_child(r1, bag(&["3'", "1'", "2'"]));
    td.add_child(r2, bag(&["3'", "2'", "4'"]));
    td
}

fn big_limits() -> SoftLimits {
    SoftLimits {
        max_lambda_sets: 20_000_000,
        max_bags: 4_000_000,
    }
}

#[test]
fn appendix_a2_figure9_is_valid_td_of_h3() {
    let h = named::h3();
    let td = figure9_td(&h);
    assert_eq!(td.validate(&h), Ok(()));
}

#[test]
fn appendix_a2_h3_shw_at_most_3() {
    // Every Figure 9 bag is in Soft_{H3,3} => shw(H3) <= 3.
    let h = named::h3();
    let td = figure9_td(&h);
    let limits = big_limits();
    for bag in td.bags() {
        assert!(
            matches!(soft_witness(&h, 3, bag, &limits), Ok(Some(_))),
            "bag {} must be in Soft_{{H3,3}}",
            h.render_vertex_set(bag)
        );
    }
}

#[test]
fn appendix_a2_h3_hw_at_most_4() {
    let h = named::h3();
    let g = hw::hw_leq(&h, 4).expect("hw(H3) = 4 per the paper");
    assert!(g.is_hd(&h));
}

#[test]
fn example2_h3_prime_upper_bounds() {
    // Example 2 claims shw1(H'3) <= 3 via the Figure 2b bags being in
    // Soft^1_{H'3,3}; our membership checker confirms that direction.
    //
    // DISCREPANCY: the paper additionally claims the root bag is NOT in
    // Soft^0_{H'3,3} ("any λ_p would induce only a single component
    // that contains 4'"). Machine-checking refutes this for the
    // hypergraph as transcribed from Appendix A.2 + footnote 1:
    // λ2 = {hor1, hor2, {0',3'}} splits H'3 into a component avoiding 4'
    // (4' sits inside the separator through hor1, and its remaining
    // links {2',4'}, {3',4'} fall into the other component or inside the
    // separator), so (hor1 ∪ hor2 ∪ {0,0'}) ∩ ⋃C reconstructs the root
    // bag at level 0 already. The hand-verified witness is asserted here.
    let h = named::h3_prime();
    let td = figure9_td(&h);
    assert_eq!(td.validate(&h), Ok(()));
    let limits = big_limits();
    // paper's claimed direction: all bags in Soft^1
    for bag in td.bags() {
        assert!(
            soft_i_witness(&h, 3, 1, bag, &limits)
                .expect("within limits")
                .is_some(),
            "bag {} must be in Soft^1_{{H'3,3}}",
            h.render_vertex_set(bag)
        );
    }
    // the machine-checked finding: the root bag already has a Soft^0
    // witness (hand-verified; documents the Example 2 discrepancy)
    let root_bag = td.bag(td.root());
    let (lambda1, u) = soft_witness(&h, 3, root_bag, &limits)
        .expect("within limits")
        .expect("the level-0 witness exists");
    let mut reconstructed = h.union_of_edges(lambda1);
    reconstructed.intersect_with(&u);
    assert_eq!(&reconstructed, root_bag);
    assert!(!u.contains(h.vertex_by_name("4'").expect("vertex 4'")));
}

#[test]
fn section6_c5_concov_width_jump() {
    // Section 6: ConCov-shw(C5) = 3 although hw(C5) = shw(C5) = 2.
    let c5 = named::cycle(5);
    assert_eq!(hw::hw(&c5).0, 2);
    assert_eq!(shw::shw(&c5).0, 2);
    let w2 = concov_filter(&c5, 2, &soft_bags(&c5, 2));
    assert!(best(&c5, &w2, &Trivial).is_none());
    let w3 = concov_filter(&c5, 3, &soft_bags(&c5, 3));
    let (td, _) = best(&c5, &w3, &Trivial).expect("ConCov-shw(C5) = 3");
    assert_eq!(td.validate(&c5), Ok(()));
}

#[test]
fn example3_four_cycle_has_width_2_everywhere() {
    let h = named::four_cycle_query();
    assert_eq!(hw::hw(&h).0, 2);
    assert_eq!(shw::shw(&h).0, 2);
    // And with ConCov the width stays 2 on the 4-cycle (D2 of Example 3:
    // S ⋈ T and R ⋈ U are connected covers).
    let cc = concov_filter(&h, 2, &soft_bags(&h, 2));
    assert!(candidate_td(&h, &cc).is_some());
}

#[test]
fn games_match_widths_on_h2() {
    use softhw::core::games;
    let h = named::h2();
    assert_eq!(games::mon_marshal_width(&h), 3); // = hw
    assert_eq!(games::marshal_width(&h), 2);
    assert_eq!(games::mon_irm_width(&h), 2); // <= shw, here equal
}
