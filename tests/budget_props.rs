//! Property tests for cooperative budget cancellation: aborting a
//! solve mid-flight and retrying must be **bit-identical** to a run
//! that was never interrupted — same decisions, same witness
//! decompositions. The abort points are driven deterministically by
//! work caps (a tripped work cap reports [`DeadlineExceeded`] at an
//! input-determined tick, unlike a wall-clock deadline), and by the
//! shared cancel flag.

use proptest::prelude::*;
use softhw::core::cache::DecompCache;
use softhw::core::error::DecompError;
use softhw::core::shw::shw_leq_indexed_budgeted;
use softhw::core::soft::SoftLimits;
use softhw::core::{Budget, SolveSpec, Solved};
use softhw::hypergraph::random::{random_hypergraph, RandomConfig};
use softhw::hypergraph::{BitSet, BlockIndex, Hypergraph};

fn small_hypergraph() -> impl Strategy<Value = Hypergraph> {
    (4usize..9, 3usize..9, 0u64..5000).prop_map(|(nv, ne, seed)| {
        random_hypergraph(
            &RandomConfig {
                num_vertices: nv,
                num_edges: ne,
                min_arity: 2,
                max_arity: 3,
                connect: true,
            },
            seed,
        )
    })
}

/// Per width `1..=3`: the witness bags of an accept, `None` for a reject.
type Sweep = Vec<Option<Vec<BitSet>>>;

/// Decides widths `1..=3` over one shared index. Each width first burns
/// through `caps` as work caps, retrying on the same index after every
/// trip, then runs under `last`. Returns the answers and the trip count.
fn sweep_with_caps(h: &Hypergraph, caps: &[u64], last: &Budget) -> (Sweep, usize) {
    let limits = SoftLimits::default();
    let mut index = BlockIndex::new(h);
    let mut trips = 0;
    let mut out = Vec::new();
    for k in 1..=3usize {
        let mut caps = caps.iter();
        let td = loop {
            let budget = match caps.next() {
                Some(&cap) => Budget::with_work_cap(cap),
                None => last.clone(),
            };
            match shw_leq_indexed_budgeted(&mut index, k, &limits, &budget) {
                Ok(td) => break td,
                Err(e) if e.is_budget() => trips += 1,
                Err(e) => panic!("unexpected {e}"),
            }
        };
        if let Some(td) = &td {
            assert_eq!(td.validate(h), Ok(()));
        }
        out.push(td.map(|td| td.bags().to_vec()));
    }
    (out, trips)
}

/// The control run: a never-interrupted sweep.
fn control_sweep(h: &Hypergraph) -> Sweep {
    sweep_with_caps(h, &[], &Budget::unlimited()).0
}

/// The exact width and witness bags of a `SolveSpec::shw` answer.
fn exact(solved: Solved) -> (usize, Vec<BitSet>) {
    match solved {
        Solved::ShwWidth(w, td) => (w, td.bags().to_vec()),
        other => panic!("not an exact shw answer: {other:?}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn work_cap_abort_then_retry_is_bit_identical(
        h in small_hypergraph(),
        cap_seq in proptest::collection::vec(1u64..2000, 1..6),
    ) {
        // Drive every width into work-cap trips at a range of depths
        // (the caps spread the abort points across candidate
        // generation, the instance build, and the DP), retrying on the
        // same index after each trip. A trip leaves only fully-computed
        // entries in the index, so the retries must reproduce the
        // never-interrupted control: same decisions, same witness bags.
        let (answers, trips) = sweep_with_caps(&h, &cap_seq, &Budget::unlimited());
        prop_assert_eq!(answers, control_sweep(&h), "diverged after {} trips", trips);
    }

    #[test]
    fn generous_cap_never_trips_and_matches_unlimited(h in small_hypergraph()) {
        // A cap the workload cannot exhaust must behave exactly like
        // Budget::unlimited(): same decisions, same witnesses, no error.
        let (answers, trips) = sweep_with_caps(&h, &[], &Budget::with_work_cap(u64::MAX / 2));
        prop_assert_eq!(trips, 0);
        prop_assert_eq!(answers, control_sweep(&h));
    }

    #[test]
    fn pre_canceled_budget_aborts_and_leaves_sweep_reusable(h in small_hypergraph()) {
        let limits = SoftLimits::default();
        let control = control_sweep(&h);
        let budget = Budget::cancellable();
        budget.cancel();
        let mut index = BlockIndex::new(&h);
        match shw_leq_indexed_budgeted(&mut index, 1, &limits, &budget) {
            Err(DecompError::Canceled) => {}
            other => prop_assert!(false, "expected Canceled, got {:?}", other),
        }
        // Cancellation is sticky on the budget, not on the index: a
        // fresh budget on the same index decides normally and matches
        // the control bit for bit.
        for k in 1..=3usize {
            let td = shw_leq_indexed_budgeted(&mut index, k, &limits, &Budget::unlimited()).unwrap();
            prop_assert_eq!(&td.map(|td| td.bags().to_vec()), &control[k - 1], "k = {}", k);
        }
        // Same for the cache behind `solve` (reduction off: a fully
        // reducible input is answered without any budgeted work).
        let spec = SolveSpec::shw().with_reduce(false);
        let mut cache = DecompCache::new();
        match cache.solve(&h, &spec.clone().with_budget(budget)) {
            Err(DecompError::Canceled) => {}
            other => prop_assert!(false, "expected Canceled, got {:?}", other),
        }
        let retried = exact(cache.solve(&h, &spec).unwrap());
        let fresh = exact(DecompCache::new().solve(&h, &spec).unwrap());
        prop_assert_eq!(retried, fresh);
    }

    #[test]
    fn cache_warm_state_survives_budget_trips(
        h in small_hypergraph(),
        cap in 1u64..500,
        reduce in 0usize..2,
    ) {
        // A budget trip against the cache must not evict warm state or
        // memoise a partial answer: after the trip, an unlimited retry
        // returns exactly what a never-tripped cache returns, and serves
        // every width decided before the trip from the memo.
        let spec = SolveSpec::shw().with_reduce(reduce == 1);
        let cold_answer = exact(DecompCache::new().solve(&h, &spec).unwrap());
        let mut cache = DecompCache::new();
        let misses_before = cache.stats().result_misses;
        let tripped = matches!(
            cache.solve(&h, &spec.clone().with_budget(Budget::with_work_cap(cap))),
            Err(ref e) if e.is_budget()
        );
        // Every width the capped call started is a miss; all of them but
        // the one a trip interrupted are memoised.
        let started = cache.stats().result_misses - misses_before;
        let warm = started.saturating_sub(u64::from(tripped));
        let hits_before = cache.stats().result_hits;
        let retried = exact(cache.solve(&h, &spec).unwrap());
        prop_assert_eq!(&retried, &cold_answer, "after trip={}", tripped);
        if reduce == 0 {
            // Without reduction the sweep runs under `h`'s own hash, so
            // the widths counted above are exactly its warm ones.
            prop_assert_eq!(cache.stats().result_hits - hits_before, warm);
        }
        // And the bounded class agrees with the exact one.
        let bounded = cache.solve(&h, &SolveSpec::shw_leq(retried.0)).unwrap();
        prop_assert_eq!(bounded.accepted(), Some(true), "cache must decide its own width positively");
    }
}
