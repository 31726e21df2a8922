//! Durability properties of the persistent decomposition store:
//! encode/decode fuzz, torn-tail truncation recovery, bit-flip
//! corruption rejection, and compaction preserving live state — the
//! store side of the "a stale or corrupt store degrades to a cold
//! compute with identical answers" contract (the service side lives in
//! `softhw-service`'s integration tests).

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use softhw_core::shw;
use softhw_core::TdFrame;
use softhw_hypergraph::{named, ArenaSnapshot, Hypergraph};
use softhw_store::record::{scan_record, ScanOutcome};
use softhw_store::{
    schema_key, ClassKey, FrameRef, HitAnswer, PutAnswer, Store, StoreRecord, StoredAnswer,
    StoredTd,
};
use std::path::PathBuf;

/// A unique temp path per test; removed on drop.
struct TempStore {
    path: PathBuf,
}

impl TempStore {
    fn new(name: &str) -> TempStore {
        let path = std::env::temp_dir().join(format!(
            "softhw-store-{}-{name}-{:?}.store",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_file(&path);
        TempStore { path }
    }
}

impl Drop for TempStore {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.path);
    }
}

/// Puts the exact-shw result of `h` and returns what was framed.
fn put_shw(store: &mut Store, h: &Hypergraph) -> (usize, TdFrame) {
    let (w, td) = shw::shw(h);
    let frame = TdFrame::from_td(&td, h.num_vertices());
    store
        .put(
            h,
            ClassKey::Shw,
            &[],
            PutAnswer::Width {
                width: w,
                frame: (&frame).into(),
            },
        )
        .expect("put");
    (w, frame)
}

/// `Store::stats` reports `results` and `dict_bags` from running totals
/// (it runs under the store mutex on every `STATS`); the walk over the
/// per-schema summaries is what they must equal.
fn assert_totals_equal_the_walk(store: &Store, at: &str) {
    let (stats, schemas) = (store.stats(), store.schemas());
    let walk =
        |of: fn(&softhw_store::SchemaSummary) -> usize| schemas.iter().map(of).sum::<usize>();
    assert_eq!(stats.results, walk(|s| s.results), "{at}: results");
    assert_eq!(stats.dict_bags, walk(|s| s.dict_bags), "{at}: dict_bags");
}

fn expect_width(store: &mut Store, h: &Hypergraph) -> (usize, TdFrame) {
    let (hash, digest) = schema_key(h);
    match store.get(hash, digest, &ClassKey::Shw).expect("hit").answer {
        HitAnswer::Width { width, frame } => (width, frame),
        other => panic!("unexpected answer {other:?}"),
    }
}

#[test]
fn puts_survive_reopen_byte_identical() {
    let tmp = TempStore::new("reopen");
    // The 70-vertex path has two-word sets, nine bytes each resident: the
    // index keeps sets byte-packed, and must hand them back whole.
    let graphs = [
        named::h2(),
        named::cycle(6),
        named::grid(3, 3),
        named::grid(1, 70),
    ];
    let mut framed = Vec::new();
    {
        let mut store = Store::open(&tmp.path).expect("open fresh");
        for h in &graphs {
            framed.push(put_shw(&mut store, h));
            // A negative decision and a decision with echo fields ride
            // along, exercising all answer shapes.
            store
                .put(h, ClassKey::ShwLeq(0), &[], PutAnswer::No)
                .expect("put no");
            assert_totals_equal_the_walk(&store, "after a put");
        }
        assert_eq!(store.stats().results, 2 * graphs.len());
        store.sync().expect("sync");
    }
    let mut store = Store::open(&tmp.path).expect("reopen");
    assert_eq!(store.stats().recovered_bytes, 0);
    assert_eq!(store.stats().schemas, graphs.len());
    assert_eq!(store.stats().results, 2 * graphs.len());
    assert_totals_equal_the_walk(&store, "after reopen");
    for (h, (w, frame)) in graphs.iter().zip(&framed) {
        let (rw, rframe) = expect_width(&mut store, h);
        // Byte-identical to what was framed before the restart.
        assert_eq!((&rw, &rframe), (w, frame));
        let (hash, digest) = schema_key(h);
        match store.get(hash, digest, &ClassKey::ShwLeq(0)) {
            Some(hit) => assert!(matches!(hit.answer, HitAnswer::No)),
            None => panic!("negative decision lost"),
        }
        // The witness re-validates against the schema.
        let td = rframe.to_td().unwrap();
        assert_eq!(td.validate(h), Ok(()));
        // And against the *rebuilt* schema (what a warm start parses).
        let rebuilt = store.schema_hypergraph(hash, digest).expect("rebuild");
        assert_eq!(schema_key(&rebuilt), (hash, digest));
        assert_eq!(td.validate(&rebuilt), Ok(()));
    }
    assert!(store.verify().is_empty(), "{:?}", store.verify());
}

#[test]
fn shared_dictionary_dedups_across_records() {
    let tmp = TempStore::new("dedup");
    let h = named::h2();
    let mut store = Store::open(&tmp.path).expect("open");
    let (_, frame) = put_shw(&mut store, &h);
    let bags_after_first = store.stats().dict_bags;
    assert_eq!(bags_after_first, frame.snapshot.len());
    let before_bytes = store.stats().bytes;
    // Re-putting the same witness under another key adds a Result
    // record but not a single dictionary bag.
    let (w, td) = shw::shw(&h);
    let frame2 = TdFrame::from_td(&td, h.num_vertices());
    store
        .put(
            &h,
            ClassKey::ShwLeq(w as u64),
            &[],
            PutAnswer::Yes((&frame2).into()),
        )
        .expect("put");
    assert_eq!(store.stats().dict_bags, bags_after_first);
    assert_totals_equal_the_walk(&store, "after a deduplicated put");
    // The second record is cheap: no schema, no bags, just the node
    // table and framing.
    assert!(store.stats().bytes - before_bytes < before_bytes);
}

#[test]
fn record_roundtrip_fuzz() {
    let mut rng = SmallRng::seed_from_u64(0x5eed);
    for case in 0..500 {
        let hash = rng.next_u64();
        let digest = rng.next_u64();
        let record = match rng.gen_range(0..3u32) {
            0 => {
                let nv = rng.gen_range(1..200usize);
                let wpb = nv.div_ceil(64).max(1);
                let ne = rng.gen_range(0..20usize);
                StoreRecord::Schema {
                    hash,
                    digest,
                    num_vertices: nv as u64,
                    edges: (0..ne)
                        .map(|_| (0..wpb).map(|_| rng.next_u64()).collect())
                        .collect(),
                }
            }
            1 => {
                let nv = rng.gen_range(1..200usize);
                let wpb = nv.div_ceil(64).max(1);
                let nb = rng.gen_range(0..20usize);
                StoreRecord::Bags {
                    hash,
                    digest,
                    universe: nv as u64,
                    bags: (0..nb)
                        .map(|_| (0..wpb).map(|_| rng.next_u64()).collect())
                        .collect(),
                }
            }
            _ => {
                let key = match rng.gen_range(0..7u32) {
                    0 => ClassKey::Shw,
                    1 => ClassKey::ShwLeq(rng.gen_range(0..100u64)),
                    2 => ClassKey::Hw,
                    3 => ClassKey::HwLeq(rng.gen_range(0..100u64)),
                    4 => ClassKey::BestTrivial(rng.gen_range(0..100u64)),
                    5 => ClassKey::BestConCov(rng.gen_range(0..100u64)),
                    _ => ClassKey::BestShallow {
                        d: rng.gen_range(-50..50i64),
                        k: rng.gen_range(0..100u64),
                    },
                };
                fn random_td(rng: &mut SmallRng) -> StoredTd {
                    StoredTd {
                        nodes: (0..rng.gen_range(1..30usize))
                            .map(|i| {
                                let parent = if i == 0 {
                                    None
                                } else {
                                    Some(rng.gen_range(0..i as u32))
                                };
                                (parent, rng.gen_range(0..1000u32))
                            })
                            .collect(),
                    }
                }
                let answer = match rng.gen_range(0..3u32) {
                    0 => StoredAnswer::No,
                    1 => StoredAnswer::Yes(random_td(&mut rng)),
                    _ => StoredAnswer::Width {
                        width: rng.gen_range(1..50u64),
                        td: random_td(&mut rng),
                    },
                };
                let nfields = rng.gen_range(0..4usize);
                let fields = (0..nfields)
                    .map(|i| (format!("k{i}"), format!("value-{}", rng.next_u64())))
                    .collect();
                StoreRecord::Result {
                    hash,
                    digest,
                    result: softhw_store::ResultRecord {
                        key,
                        fields,
                        answer,
                    },
                }
            }
        };
        let body = record.encode_body();
        assert_eq!(
            StoreRecord::decode_body(&body).as_ref(),
            Some(&record),
            "case {case}"
        );
        let framed = record.frame();
        match scan_record(&framed, 0) {
            ScanOutcome::Record(back, next) => {
                assert_eq!(back, record, "case {case}");
                assert_eq!(next, framed.len());
            }
            other => panic!("case {case}: {other:?}"),
        }
    }
}

#[test]
fn torn_tail_truncates_to_last_valid_record() {
    let tmp = TempStore::new("torn");
    let graphs = [named::h2(), named::cycle(5)];
    {
        let mut store = Store::open(&tmp.path).expect("open");
        for h in &graphs {
            put_shw(&mut store, h);
        }
        store.sync().expect("sync");
    }
    let full = std::fs::read(&tmp.path).expect("read back");
    // Cut the file mid-record at several depths: reopen must never
    // panic, must drop only the torn suffix, and must stay usable.
    for cut in [full.len() - 1, full.len() - 9, full.len() / 2, 9] {
        std::fs::write(&tmp.path, &full[..cut]).expect("truncate");
        let mut store = Store::open(&tmp.path).expect("recovering open");
        assert!(store.stats().recovered_bytes > 0, "cut {cut}");
        assert!(store.verify().is_empty(), "cut {cut}: {:?}", store.verify());
        assert_totals_equal_the_walk(&store, "after torn-tail recovery");
        // The file was physically truncated to the valid prefix, and a
        // fresh put + reopen works on top of it.
        let disk = std::fs::read(&tmp.path).unwrap();
        assert!(disk.len() <= cut);
        put_shw(&mut store, &named::cycle(6));
        assert_totals_equal_the_walk(&store, "after a put on the recovered prefix");
        store.sync().expect("sync");
        drop(store);
        let mut store = Store::open(&tmp.path).expect("reopen after repair");
        assert_eq!(store.stats().recovered_bytes, 0, "cut {cut}");
        assert_totals_equal_the_walk(&store, "after reopening the repaired log");
        let (w, _) = expect_width(&mut store, &named::cycle(6));
        assert_eq!(w, shw::shw(&named::cycle(6)).0);
    }
    // A file with garbage where the magic should be resets to empty.
    std::fs::write(&tmp.path, b"not a store at all").unwrap();
    let store = Store::open(&tmp.path).expect("open over garbage");
    assert_eq!(store.stats().schemas, 0);
    assert!(store.stats().recovered_bytes > 0);
}

#[test]
fn bit_flips_are_rejected_never_trusted() {
    let tmp = TempStore::new("flip");
    let graphs = [named::h2(), named::cycle(6), named::grid(3, 3)];
    {
        let mut store = Store::open(&tmp.path).expect("open");
        for h in &graphs {
            put_shw(&mut store, h);
        }
        store.sync().expect("sync");
    }
    let full = std::fs::read(&tmp.path).expect("read back");
    let mut rng = SmallRng::seed_from_u64(42);
    for trial in 0..60 {
        let byte = rng.gen_range(8..full.len()); // past the magic
        let bit = rng.gen_range(0..8u32);
        let mut corrupt = full.clone();
        corrupt[byte] ^= 1 << bit;
        std::fs::write(&tmp.path, &corrupt).expect("write corrupt");
        // Open must not panic; every record it keeps must verify; and
        // any result it still serves must carry a witness that
        // validates against its schema — corruption is *rejected*, the
        // service recomputes, answers stay identical.
        let mut store = Store::open(&tmp.path).expect("open corrupt");
        assert!(
            store.stats().recovered_bytes > 0,
            "trial {trial}: flip at byte {byte} went undetected"
        );
        assert!(store.verify().is_empty(), "trial {trial}");
        assert_totals_equal_the_walk(&store, "after bit-flip recovery");
        for h in &graphs {
            let (hash, digest) = schema_key(h);
            if let Some(hit) = store.get(hash, digest, &ClassKey::Shw) {
                let HitAnswer::Width { width, frame } = hit.answer else {
                    panic!("trial {trial}: wrong answer shape")
                };
                let td = frame.to_td().expect("kept witness decodes");
                assert_eq!(td.validate(h), Ok(()), "trial {trial}");
                assert_eq!(width, shw::shw(h).0, "trial {trial}");
            }
        }
    }
}

#[test]
fn compaction_drops_superseded_results_and_preserves_live_state() {
    let tmp = TempStore::new("compact");
    let h = named::h2();
    let mut store = Store::open(&tmp.path).expect("open");
    // Many supersessions of the same key bloat the log.
    for _ in 0..20 {
        put_shw(&mut store, &h);
    }
    put_shw(&mut store, &named::cycle(6));
    store
        .put(&h, ClassKey::HwLeq(1), &[], PutAnswer::No)
        .expect("put");
    store.sync().expect("sync");
    // Twenty supersessions are one live result; their orphaned
    // dictionary bags stay counted until compaction drops them.
    assert_eq!(store.stats().results, 3);
    assert_totals_equal_the_walk(&store, "after supersessions");
    let live_before: Vec<_> = {
        let (hash, digest) = schema_key(&h);
        store.results_for(hash, digest)
    };
    let (before, after) = store.compact().expect("compact");
    assert!(
        after < before,
        "compaction must shrink: {before} -> {after}"
    );
    assert!(store.verify().is_empty(), "{:?}", store.verify());
    assert_eq!(store.stats().results, 3);
    assert_totals_equal_the_walk(&store, "after compaction");
    // Live results survive with identical materialised frames (ids are
    // remapped on disk, but the dense first-occurrence framing is
    // canonical, so the frames compare equal).
    let (hash, digest) = schema_key(&h);
    let live_after = store.results_for(hash, digest);
    assert_eq!(live_before.len(), live_after.len());
    for ((k1, hit1), (k2, hit2)) in live_before.iter().zip(&live_after) {
        assert_eq!(k1, k2);
        match (&hit1.answer, &hit2.answer) {
            (HitAnswer::No, HitAnswer::No) => {}
            (HitAnswer::Yes(f1), HitAnswer::Yes(f2)) => assert_eq!(f1, f2),
            (
                HitAnswer::Width {
                    width: w1,
                    frame: f1,
                },
                HitAnswer::Width {
                    width: w2,
                    frame: f2,
                },
            ) => {
                assert_eq!(w1, w2);
                assert_eq!(f1, f2);
            }
            other => panic!("answer shape changed: {other:?}"),
        }
    }
    // And the compacted file reopens clean.
    drop(store);
    let mut store = Store::open(&tmp.path).expect("reopen");
    assert_eq!(store.stats().recovered_bytes, 0);
    assert_eq!(store.stats().schemas, 2);
    assert_totals_equal_the_walk(&store, "after reopening the compacted log");
    let (w, _) = expect_width(&mut store, &h);
    assert_eq!(w, shw::shw(&h).0);
}

#[test]
fn digest_guards_against_hash_collisions() {
    let tmp = TempStore::new("digest");
    let h = named::h2();
    let mut store = Store::open(&tmp.path).expect("open");
    put_shw(&mut store, &h);
    let (hash, digest) = schema_key(&h);
    // A colliding hash with a different digest must miss, not serve the
    // wrong schema's witness.
    assert!(store.get(hash, digest ^ 1, &ClassKey::Shw).is_none());
    assert!(store.get(hash, digest, &ClassKey::Shw).is_some());
    let s = store.stats();
    assert_eq!((s.hits, s.misses), (1, 1));
}

#[test]
fn sets_outside_the_universe_are_refused_not_truncated() {
    // The resident index keeps a set's low `ceil(|V|/8)` bytes. A bag
    // with an element past them cannot be a bag of this schema; storing
    // its truncation would serve a different witness than was put.
    let tmp = TempStore::new("universe");
    let h = named::h2();
    let mut store = Store::open(&tmp.path).expect("open");
    put_shw(&mut store, &h);
    let before = (store.stats().bytes, store.stats().dict_bags);
    let stray = ArenaSnapshot {
        universe: h.num_vertices(),
        storage: vec![1 << 40],
    };
    let frame = FrameRef {
        universe: h.num_vertices(),
        snapshot: &stray,
        nodes: &[(None, 0)],
    };
    let refused = store.put(&h, ClassKey::ShwLeq(9), &[], PutAnswer::Yes(frame));
    assert_eq!(
        refused.map_err(|e| e.kind()),
        Err(std::io::ErrorKind::InvalidInput)
    );
    assert_eq!((store.stats().bytes, store.stats().dict_bags), before);
    let (hash, digest) = schema_key(&h);
    assert!(store.get(hash, digest, &ClassKey::ShwLeq(9)).is_none());
    assert_totals_equal_the_walk(&store, "after a refused put");
    assert!(store.verify().is_empty(), "{:?}", store.verify());
}
