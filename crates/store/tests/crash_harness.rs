//! Crash/fault-injection harness for the write-behind persistence
//! pipeline: drive a randomized put/sync workload into the store, kill
//! it at a randomized point — an injected storage fault (short write,
//! EIO, disk-full, failed fsync) or a simulated process kill, plus
//! random loss of the never-synced tail (what a machine crash does to
//! the page cache) — then restart and assert that recovery is clean:
//!
//! - `verify()` reports no problems;
//! - every **acknowledged** write (a `put` that succeeded and was
//!   covered by a successful `sync`) is present and materialises
//!   byte-identically to what was framed before the crash;
//! - recovery is idempotent: a second open recovers zero bytes and
//!   leaves the file byte-identical.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use softhw_core::{shw, TdFrame};
use softhw_hypergraph::{named, Hypergraph};
use softhw_store::{
    schema_key, ClassKey, FaultInjector, FaultKind, FaultPlan, HitAnswer, PutAnswer, Store,
};
use std::path::PathBuf;

/// A unique temp path per test; removed on drop.
struct TempStore {
    path: PathBuf,
}

impl TempStore {
    fn new(name: &str) -> TempStore {
        let path = std::env::temp_dir().join(format!(
            "softhw-crash-{}-{name}-{:?}.store",
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

/// One schema with its solved witness, framed once up front so every
/// trial puts (and later expects) the exact same bytes.
struct PoolEntry {
    h: Hypergraph,
    width: usize,
    frame: TdFrame,
}

fn build_pool() -> Vec<PoolEntry> {
    let mut graphs = vec![named::h2(), named::grid(2, 2), named::grid(2, 3)];
    graphs.push(named::grid(2, 4));
    graphs.push(named::grid(3, 3));
    for n in 3..=8 {
        graphs.push(named::cycle(n));
    }
    graphs
        .into_iter()
        .map(|h| {
            let (width, td) = shw::shw(&h);
            let frame = TdFrame::from_td(&td, h.num_vertices());
            PoolEntry { h, width, frame }
        })
        .collect()
}

/// The workload: three puts per schema — the exact width, a positive
/// decision, a negative decision — covering every answer shape.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum StepKind {
    Width,
    Yes,
    No,
}

#[derive(Clone, Copy, Debug)]
struct Step {
    pool: usize,
    kind: StepKind,
}

fn build_steps(pool_len: usize) -> Vec<Step> {
    let mut steps = Vec::with_capacity(pool_len * 3);
    for pool in 0..pool_len {
        for kind in [StepKind::Width, StepKind::Yes, StepKind::No] {
            steps.push(Step { pool, kind });
        }
    }
    steps
}

fn do_put(store: &mut Store, pool: &[PoolEntry], step: Step) -> std::io::Result<()> {
    let e = &pool[step.pool];
    let frame = (&e.frame).into();
    let (key, answer) = match step.kind {
        StepKind::Width => (
            ClassKey::Shw,
            PutAnswer::Width {
                width: e.width,
                frame,
            },
        ),
        StepKind::Yes => (ClassKey::ShwLeq(e.width as u64), PutAnswer::Yes(frame)),
        StepKind::No => (ClassKey::ShwLeq(0), PutAnswer::No),
    };
    store.put(&e.h, key, &[], answer)
}

/// Asserts the acked step is present and byte-identical to what was
/// framed before the crash.
fn check_step(store: &mut Store, pool: &[PoolEntry], step: Step, trial: usize) {
    let e = &pool[step.pool];
    let (hash, digest) = schema_key(&e.h);
    let key = match step.kind {
        StepKind::Width => ClassKey::Shw,
        StepKind::Yes => ClassKey::ShwLeq(e.width as u64),
        StepKind::No => ClassKey::ShwLeq(0),
    };
    let hit = store
        .get(hash, digest, &key)
        .unwrap_or_else(|| panic!("trial {trial}: acked write {step:?} lost"));
    match (step.kind, hit.answer) {
        (StepKind::No, HitAnswer::No) => {}
        (StepKind::Yes, HitAnswer::Yes(frame)) => {
            assert_eq!(frame, e.frame, "trial {trial} {step:?}");
        }
        (StepKind::Width, HitAnswer::Width { width, frame }) => {
            assert_eq!(width, e.width, "trial {trial} {step:?}");
            assert_eq!(frame, e.frame, "trial {trial} {step:?}");
        }
        (_, other) => panic!("trial {trial} {step:?}: answer shape changed: {other:?}"),
    }
}

fn shuffle<T>(items: &mut [T], rng: &mut SmallRng) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.gen_range(0..=i));
    }
}

#[test]
fn randomized_kill_points_recover_clean_with_every_acked_write() {
    let pool = build_pool();
    let base_steps = build_steps(pool.len());
    let tmp = TempStore::new("killpoints");

    // Dry run: learn how large a full clean run gets, so fault offsets
    // can be drawn across the whole file.
    let total_bytes = {
        let mut store = Store::open(&tmp.path).expect("dry open");
        for &step in &base_steps {
            do_put(&mut store, &pool, step).expect("dry put");
        }
        store.sync().expect("dry sync");
        store.stats().bytes
    };
    assert!(total_bytes > 64);

    let mut rng = SmallRng::seed_from_u64(0xC4A5_11ED);
    const TRIALS: usize = 220;
    let mut faults_fired = 0u64;
    for trial in 0..TRIALS {
        let _ = std::fs::remove_file(&tmp.path);
        let mut steps = base_steps.clone();
        shuffle(&mut steps, &mut rng);

        // The randomized kill point: an armed storage fault at a random
        // byte offset, and/or a hard process kill after a random number
        // of steps (sometimes past the end: the run completes and only
        // the fault, if any, interrupts it).
        let injector = FaultInjector::new();
        let kind = match rng.gen_range(0..5u32) {
            0 => Some(FaultKind::ShortWrite),
            1 => Some(FaultKind::Eio),
            2 => Some(FaultKind::DiskFull),
            3 => Some(FaultKind::FsyncFail),
            _ => None, // pure process-kill trial
        };
        if let Some(kind) = kind {
            injector.arm(FaultPlan {
                at_byte: rng.gen_range(8..total_bytes),
                kind,
            });
        }
        let kill_after = rng.gen_range(1..steps.len() + 8);
        let sync_every = rng.gen_range(1..6usize);

        let mut store = Store::open_with_faults(&tmp.path, injector.clone()).expect("faulted open");
        let mut acked: Vec<Step> = Vec::new();
        let mut pending: Vec<Step> = Vec::new();
        let mut synced_bytes = store.stats().bytes;
        let mut crashed = false;
        for (si, &step) in steps.iter().enumerate() {
            if si >= kill_after {
                crashed = true;
                break;
            }
            match do_put(&mut store, &pool, step) {
                Ok(()) => pending.push(step),
                Err(_) => {
                    crashed = true;
                    break;
                }
            }
            if (si + 1) % sync_every == 0 {
                match store.sync() {
                    Ok(()) => {
                        acked.append(&mut pending);
                        synced_bytes = store.stats().bytes;
                    }
                    Err(_) => {
                        crashed = true;
                        break;
                    }
                }
            }
        }
        if !crashed && store.sync().is_ok() {
            acked.append(&mut pending);
            synced_bytes = store.stats().bytes;
        }
        faults_fired += injector.triggered();
        drop(store);

        // Machine-crash model: anything past the last successful sync
        // may vanish — cut the file at a random point in that window.
        let disk = std::fs::read(&tmp.path).expect("read after crash");
        if (disk.len() as u64) > synced_bytes {
            let cut = rng.gen_range(synced_bytes..=disk.len() as u64) as usize;
            std::fs::write(&tmp.path, &disk[..cut]).expect("drop unsynced tail");
        }

        // Restart: recovery must be clean and keep every acked write.
        let mut store = Store::open(&tmp.path).expect("recovering open");
        let problems = store.verify();
        assert!(problems.is_empty(), "trial {trial}: {problems:?}");
        for &step in &acked {
            check_step(&mut store, &pool, step, trial);
        }
        drop(store);

        // Recovery already truncated the damage: a second open finds a
        // fully valid log and changes nothing — replay is idempotent
        // and the file byte-identical.
        let after_recovery = std::fs::read(&tmp.path).expect("read recovered");
        let store = Store::open(&tmp.path).expect("idempotent reopen");
        assert_eq!(
            store.stats().recovered_bytes,
            0,
            "trial {trial}: recovery left damage behind"
        );
        drop(store);
        let after_second = std::fs::read(&tmp.path).expect("read after reopen");
        assert_eq!(
            after_recovery, after_second,
            "trial {trial}: reopen changed the file"
        );
    }
    // The harness is only meaningful if the faults actually fire.
    assert!(
        faults_fired >= TRIALS as u64 / 4,
        "only {faults_fired} injected faults fired across {TRIALS} trials"
    );
}

/// Each fault kind, aimed at a precise offset, produces exactly the
/// damage it advertises — and recovery handles each.
#[test]
fn each_fault_kind_fires_and_recovers() {
    let pool = build_pool();
    for kind in [
        FaultKind::ShortWrite,
        FaultKind::Eio,
        FaultKind::DiskFull,
        FaultKind::FsyncFail,
    ] {
        let tmp = TempStore::new(&format!("{kind:?}"));
        let injector = FaultInjector::new();
        let mut store = Store::open_with_faults(&tmp.path, injector.clone()).expect("faulted open");
        do_put(
            &mut store,
            &pool,
            Step {
                pool: 0,
                kind: StepKind::Width,
            },
        )
        .expect("clean put");
        store.sync().expect("clean sync");
        let synced = store.stats().bytes;
        // Arm mid-way through the *next* record.
        injector.arm(FaultPlan {
            at_byte: synced + 10,
            kind,
        });
        let second = Step {
            pool: 1,
            kind: StepKind::Width,
        };
        let put = do_put(&mut store, &pool, second);
        let sync = store.sync();
        match kind {
            FaultKind::ShortWrite | FaultKind::Eio | FaultKind::DiskFull => {
                assert!(put.is_err(), "{kind:?}: put must fail");
            }
            FaultKind::FsyncFail => {
                assert!(put.is_ok(), "{kind:?}: writes pass, the fsync fails");
                assert!(sync.is_err(), "{kind:?}: sync must fail");
            }
        }
        assert_eq!(injector.triggered(), 1, "{kind:?}");
        drop(store);
        let disk_len = std::fs::read(&tmp.path).expect("read").len() as u64;
        match kind {
            // Exactly the armed prefix of the failed record persisted.
            FaultKind::ShortWrite | FaultKind::DiskFull => assert_eq!(disk_len, synced + 10),
            // Nothing of the failed record persisted.
            FaultKind::Eio => assert_eq!(disk_len, synced),
            // The record persisted; only durability was refused.
            FaultKind::FsyncFail => assert!(disk_len > synced),
        }
        let mut store = Store::open(&tmp.path).expect("recovering open");
        assert!(store.verify().is_empty(), "{kind:?}");
        check_step(
            &mut store,
            &pool,
            Step {
                pool: 0,
                kind: StepKind::Width,
            },
            0,
        );
        // The torn kinds dropped the partial record on reopen.
        if matches!(kind, FaultKind::ShortWrite | FaultKind::DiskFull) {
            assert_eq!(store.stats().recovered_bytes, 10, "{kind:?}");
        }
    }
}

/// A failed append stops the store: without the stop, puts after the
/// failure land behind a torn or missing record, and replay — which ends
/// at the first bad record — truncates them at the next open although
/// their `put` and `sync` succeeded. With it, later puts fail loudly,
/// and a reopen serves every put acknowledged before the fault.
#[test]
fn a_failed_append_stops_later_puts_and_reopen_keeps_the_acked_ones() {
    let pool = build_pool();
    let steps = build_steps(pool.len());
    for kind in [FaultKind::Eio, FaultKind::ShortWrite, FaultKind::DiskFull] {
        let tmp = TempStore::new(&format!("failstop-{kind:?}"));
        let injector = FaultInjector::new();
        let mut store = Store::open_with_faults(&tmp.path, injector.clone()).expect("faulted open");
        // Three puts of the first schema, acked; the failing put is the
        // second schema's first, so the fault lands in its `Schema` record.
        let acked = &steps[..3];
        for &step in acked {
            do_put(&mut store, &pool, step).expect("clean put");
        }
        store.sync().expect("clean sync");
        // Fail the next put partway through its first record.
        injector.arm(FaultPlan {
            at_byte: store.stats().bytes + 9,
            kind,
        });
        let (failed, later) = steps[3..].split_first().expect("steps left");
        assert!(
            do_put(&mut store, &pool, *failed).is_err(),
            "{kind:?}: armed put must fail"
        );
        assert_eq!(injector.triggered(), 1, "{kind:?}");
        for &step in later.iter().take(3) {
            assert!(
                do_put(&mut store, &pool, step).is_err(),
                "{kind:?}: {step:?} accepted after a failed append"
            );
        }
        assert_eq!(store.stats().puts, acked.len() as u64, "{kind:?}");
        store.sync().expect("what was acked still syncs");
        drop(store);

        let mut store = Store::open(&tmp.path).expect("recovering open");
        assert!(store.verify().is_empty(), "{kind:?}: {:?}", store.verify());
        for &step in acked {
            check_step(&mut store, &pool, step, 0);
        }
        assert_eq!(store.stats().results, acked.len(), "{kind:?}");
        // The reopened store takes puts again.
        do_put(&mut store, &pool, *failed).expect("put after reopen");
        check_step(&mut store, &pool, *failed, 0);
    }
}
