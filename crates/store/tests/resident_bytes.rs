//! How much heap the store's in-memory index costs per stored schema,
//! measured with a counting global allocator: the mirror must stay
//! no larger than the log it mirrors (see the `store` module docs for
//! the layout that gets it there). One test per binary,
//! so nothing else allocates while it counts.

use softhw_hypergraph::random::{random_hypergraph, RandomConfig};
use softhw_hypergraph::BagArena;
use softhw_store::{ClassKey, FrameRef, PutAnswer, Store};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Bytes currently allocated (requested sizes, allocator overhead
/// excluded).
static LIVE: AtomicUsize = AtomicUsize::new(0);

struct Counting;

// SAFETY: every call forwards to `System` with the caller's arguments
// unchanged; the counter is only bookkeeping.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size(), Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE.fetch_add(new_size, Ordering::Relaxed);
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

#[test]
fn index_stays_within_the_size_of_the_log() {
    const PUTS: usize = 5_000;
    let path = std::env::temp_dir().join(format!(
        "softhw-store-{}-resident.store",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&path);
    let before = LIVE.load(Ordering::Relaxed);
    let mut store = Store::open(&path).expect("open fresh");
    for i in 0..PUTS {
        // The benchmark's `serve_cold` shape: a never-seen 12-16-edge
        // schema answered once, with a six-node witness (the whole
        // vertex set over five edge leaves — valid, and cheap to make).
        let shape = RandomConfig {
            num_vertices: 14,
            num_edges: 12 + i % 5,
            min_arity: 2,
            max_arity: 3,
            connect: true,
        };
        let h = random_hypergraph(&shape, i as u64);
        let mut arena = BagArena::new(h.num_vertices());
        let root = arena.intern(&h.all_vertices()).0;
        let mut nodes = vec![(None, root)];
        for e in 0..5 {
            nodes.push((Some(0), arena.intern(h.edge(e)).0));
        }
        let snapshot = arena.snapshot();
        let frame = FrameRef {
            universe: h.num_vertices(),
            snapshot: &snapshot,
            nodes: &nodes,
        };
        let answer = PutAnswer::Width { width: 2, frame };
        store.put(&h, ClassKey::Shw, &[], answer).expect("put");
    }
    let resident = LIVE.load(Ordering::Relaxed) - before;
    let stats = store.stats();
    assert!(stats.schemas > PUTS * 9 / 10, "{stats:?}");
    let (per_schema, log_per_schema) = (
        resident / stats.schemas,
        stats.bytes as usize / stats.schemas,
    );
    eprintln!("resident {per_schema} B, log {log_per_schema} B per stored schema");
    assert!(
        resident as u64 <= stats.bytes,
        "{per_schema} B of live heap per stored schema for {log_per_schema} B of log"
    );
    // The reported size is the measured one, up to the handle itself.
    let reported = stats.index_bytes as usize;
    assert!(
        reported <= resident && resident - reported < 4096,
        "index_bytes reports {reported} B, the allocator counted {resident} B"
    );
    drop(store);
    let _ = std::fs::remove_file(&path);
}
