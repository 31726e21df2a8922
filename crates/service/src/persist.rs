//! The persistent-store attachment of a [`ServiceState`]: the
//! write-behind persister thread and its channel, boot-time warm start,
//! and the one trust boundary — a stored hit is rebuilt into a
//! [`Response`] only after its witness **re-validates against the
//! schema** ([`response_from_hit`]), once, whether it is served to a
//! live request or preloaded at boot.
//! Nothing here converts frames: the store takes and returns the
//! [`TdFrame`] a [`Response`] carries, so a fresh response is put as a
//! borrowed view ([`put_parts`]) and a hit's frames move into its reply.

use crate::state::{ServiceConfig, ServiceState};
use crate::wire::Response;
use softhw_core::ghd::Ghd;
use softhw_core::TdFrame;
use softhw_hypergraph::Hypergraph;
use softhw_store::{ClassKey, HitAnswer, PutAnswer, Store, StoreHit};
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex, PoisonError};
use std::thread::JoinHandle;

/// A persistence message on the write-behind channel (the put payload
/// is boxed: it carries a whole schema + witness frame, and the
/// channel also ferries tiny flush requests).
pub(crate) enum PersistMsg {
    Put(Box<PutPayload>),
    Flush(mpsc::Sender<()>),
}

pub(crate) struct PutPayload {
    schema: Hypergraph,
    key: ClassKey,
    /// A response [`put_parts`] accepts.
    resp: Response,
}

/// The store attachment: the shared store, its service-side counters,
/// and the write-behind persister thread. Dropping the handle closes
/// the channel, joins the persister (which drains and fsyncs first),
/// so a clean shutdown loses nothing that was handed to the channel.
pub(crate) struct StoreHandle {
    pub(crate) store: Arc<Mutex<Store>>,
    pub(crate) hits: AtomicU64,
    pub(crate) misses: AtomicU64,
    /// Store entries that failed witness re-validation (served cold
    /// instead — never trusted).
    pub(crate) invalid: AtomicU64,
    /// Results preloaded into the caches at boot.
    pub(crate) warmed: AtomicU64,
    /// Write-behind puts that failed at the disk layer.
    pub(crate) put_errors: Arc<AtomicU64>,
    /// Heap bytes of the store's in-memory index, refreshed by the
    /// persister after every put (under the lock the put took).
    pub(crate) index_bytes: Arc<AtomicU64>,
    pub(crate) tx: Option<mpsc::Sender<PersistMsg>>,
    join: Option<JoinHandle<()>>,
}

impl Drop for StoreHandle {
    fn drop(&mut self) {
        drop(self.tx.take()); // close the channel: persister drains + syncs
        if let Some(join) = self.join.take() {
            let _ = join.join();
        }
    }
}

/// How many puts the persister applies between fsyncs when the channel
/// stays busy (it always syncs once its queue momentarily drains).
const FSYNC_BATCH: usize = 64;

pub(crate) fn lock_store(s: &Mutex<Store>) -> std::sync::MutexGuard<'_, Store> {
    s.lock().unwrap_or_else(PoisonError::into_inner)
}

fn persister(
    store: Arc<Mutex<Store>>,
    rx: mpsc::Receiver<PersistMsg>,
    errors: Arc<AtomicU64>,
    index_bytes: Arc<AtomicU64>,
) {
    let mut dirty = 0usize;
    let apply = |msg: PersistMsg, dirty: &mut usize| match msg {
        PersistMsg::Put(put) => {
            let Some((fields, answer)) = put_parts(&put.resp) else {
                return;
            };
            let result = {
                let mut store = lock_store(&store);
                let result = store.put(&put.schema, put.key, fields, answer);
                index_bytes.store(store.index_bytes(), Ordering::Relaxed);
                result
            };
            match result {
                Ok(()) => *dirty += 1,
                Err(_) => {
                    errors.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
        PersistMsg::Flush(ack) => {
            if sync_unlocked(&store).is_err() {
                errors.fetch_add(1, Ordering::Relaxed);
            }
            *dirty = 0;
            let _ = ack.send(());
        }
    };
    loop {
        // Block for the next message, then drain whatever else is
        // already queued: one fsync covers the whole batch.
        let Ok(first) = rx.recv() else { break };
        apply(first, &mut dirty);
        while dirty < FSYNC_BATCH {
            match rx.try_recv() {
                Ok(msg) => apply(msg, &mut dirty),
                Err(_) => break,
            }
        }
        if dirty > 0 {
            if sync_unlocked(&store).is_err() {
                errors.fetch_add(1, Ordering::Relaxed);
            }
            dirty = 0;
        }
    }
    // Channel closed (state dropped): final sync for durability.
    let _ = sync_unlocked(&store);
}

/// Fsyncs the store log *without* holding its lock: the handle clone is
/// taken under the lock (cheap), the disk flush happens outside it, so
/// request handlers probing the store index never queue behind an
/// in-progress fsync batch.
fn sync_unlocked(store: &Arc<Mutex<Store>>) -> io::Result<()> {
    let handle = lock_store(store).sync_handle()?;
    handle.sync_data()
}

impl ServiceState {
    /// State backed by an open [`Store`]: warm-starts the result caches
    /// from the hottest `config.warm_start` schemas, then spawns the
    /// write-behind persister.
    pub fn with_store(config: ServiceConfig, mut store: Store) -> ServiceState {
        let mut state = ServiceState::new(config);
        let warmed = state.warm_start(&mut store);
        let put_errors = Arc::new(AtomicU64::new(0));
        let index_bytes = Arc::new(AtomicU64::new(store.index_bytes()));
        let store = Arc::new(Mutex::new(store));
        let (tx, rx) = mpsc::channel();
        let join = {
            let store = Arc::clone(&store);
            let (errors, index_bytes) = (Arc::clone(&put_errors), Arc::clone(&index_bytes));
            std::thread::spawn(move || persister(store, rx, errors, index_bytes))
        };
        state.store = Some(StoreHandle {
            store,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            invalid: AtomicU64::new(0),
            warmed: AtomicU64::new(warmed),
            put_errors,
            index_bytes,
            tx: Some(tx),
            join: Some(join),
        });
        state
    }

    /// Opens (or creates) the store at `path` — with torn-tail
    /// recovery — and builds a store-backed state over it.
    pub fn open_store(config: ServiceConfig, path: impl AsRef<Path>) -> io::Result<ServiceState> {
        Ok(ServiceState::with_store(config, Store::open(path)?))
    }

    /// True iff a persistent store is attached.
    pub fn has_store(&self) -> bool {
        self.store.is_some()
    }

    /// Blocks until every persistence message sent so far is applied
    /// and fsynced. Returns `false` without a store (or if the
    /// persister died). Tests and benchmarks use this to make "restart"
    /// points explicit; a dropping state flushes implicitly.
    pub fn sync_store(&self) -> bool {
        let Some(handle) = &self.store else {
            return false;
        };
        let Some(tx) = &handle.tx else { return false };
        let (ack_tx, ack_rx) = mpsc::channel();
        if tx.send(PersistMsg::Flush(ack_tx)).is_err() {
            return false;
        }
        ack_rx.recv().is_ok()
    }

    /// Preloads the hottest stored schemas: for each, the persisted
    /// responses (witnesses re-validated first, then encoded) go into the
    /// result cache of the stripe its stored hash routes to — the stripe
    /// a live request for it will lock, found without reducing anything.
    /// Returns how many results were preloaded.
    fn warm_start(&mut self, store: &mut Store) -> u64 {
        let mut warmed = 0u64;
        for (hash, digest) in store.hottest(self.config.warm_start) {
            let Some(h) = store.schema_hypergraph(hash, digest) else {
                continue;
            };
            if softhw_store::schema_key(&h) != (hash, digest) {
                continue; // stored structure does not hash back: distrust it
            }
            let idx = self.stripe_of(hash);
            for (key, hit) in store.results_for(hash, digest) {
                if let Some(resp) = response_from_hit(&key, hit, &h) {
                    self.cache(idx, (hash, digest, key), &resp.encode());
                    warmed += 1;
                }
            }
        }
        warmed
    }
}

/// Rebuilds the exact [`Response`] a stored hit represents —
/// **re-validating every witness against the schema first**. A hit
/// whose shape does not match its key, whose frame does not decode,
/// or whose witness fails validation yields `None`: the store entry is
/// rejected and the request recomputes cold (identical answer, fresh
/// record).
pub(crate) fn response_from_hit(key: &ClassKey, hit: StoreHit, h: &Hypergraph) -> Option<Response> {
    // hw witnesses (`hw_k` set) additionally need width-k edge covers to
    // exist (one decode + validation total).
    let validated = |frame: TdFrame, hw_k: Option<usize>| -> Option<TdFrame> {
        let td = frame.to_td().ok()?;
        td.validate(h).ok()?;
        if let Some(k) = hw_k {
            Ghd::from_td(h, td, k)?;
        }
        Some(frame)
    };
    let (class, k) = match *key {
        ClassKey::Shw | ClassKey::Hw => {
            let HitAnswer::Width { width, frame } = hit.answer else {
                return None; // shape does not match the key: reject
            };
            let (class, hw_k) = match key {
                ClassKey::Hw => ("HW", Some(width)),
                _ => ("SHW", None),
            };
            let td = validated(frame, hw_k)?;
            return Some(Response::Width {
                class: class.into(),
                width,
                td,
            });
        }
        ClassKey::ShwLeq(k) => ("SHW_LEQ", k as usize),
        ClassKey::HwLeq(k) => ("HW_LEQ", k as usize),
        ClassKey::BestTrivial(k) | ClassKey::BestConCov(k) | ClassKey::BestShallow { k, .. } => {
            ("BEST", k as usize)
        }
    };
    let td = match hit.answer {
        HitAnswer::No => None,
        HitAnswer::Yes(frame) => {
            let hw_k = matches!(key, ClassKey::HwLeq(_)).then(|| k.min(h.num_edges()));
            Some(validated(frame, hw_k)?)
        }
        HitAnswer::Width { .. } => return None,
    };
    Some(Response::Decision {
        class: class.into(),
        fields: hit.fields,
        k,
        td,
    })
}

/// The store's view of a persisted response: its echo fields and its
/// answer, borrowing the response's witness frame. `None` for responses
/// that are not persisted (errors, stats).
fn put_parts(resp: &Response) -> Option<(&[(String, String)], PutAnswer<'_>)> {
    Some(match resp {
        Response::Width { width, td, .. } => (
            &[],
            PutAnswer::Width {
                width: *width,
                frame: td.into(),
            },
        ),
        Response::Decision { fields, td, .. } => (
            fields,
            td.as_ref()
                .map_or(PutAnswer::No, |td| PutAnswer::Yes(td.into())),
        ),
        _ => return None,
    })
}

/// The write-behind message for a fresh cacheable response (`None` for
/// responses that are not persisted: errors, stats). The response has
/// already been encoded for the wire, so it moves into the message
/// whole.
pub(crate) fn persist_msg(h: &Hypergraph, key: ClassKey, resp: Response) -> Option<PersistMsg> {
    put_parts(&resp)?;
    Some(PersistMsg::Put(Box::new(PutPayload {
        schema: h.clone(),
        key,
        resp,
    })))
}
