//! The disk-backed store: an append-only record log with an in-memory
//! index, torn-tail recovery, and log compaction.
//!
//! **What is resident.** The index mirrors the log's live state, so a
//! `get` is a probe with no disk I/O — and the mirror is kept smaller
//! than the log it mirrors. Per stored schema there is one 32-byte slot
//! of a hash map keyed by `(structural hash, digest)` and **one**
//! exact-fit allocation behind it: a 20-byte header (vertex, edge,
//! dictionary and result counts, session hits), then the canonical edges
//! followed by the bag dictionary as byte-packed sets (`⌈|V|/8⌉` bytes
//! each — a 14-vertex schema's sets are two bytes, not a word;
//! dictionary ids are positions), then the live results in their log
//! encoding ([`ResultRecord`] payloads, varint-packed,
//! length-prefixed). There is no per-schema arena, hash table or vector
//! of vectors: dictionary lookups scan the sets and result lookups scan
//! the blob, both a handful of entries long; sets are unpacked to words
//! where a witness frame or a hypergraph is rebuilt. The slot is kept
//! narrow on purpose: the map doubles as it grows, and at the doubling
//! the old and the new table are both resident. Measured with a counting
//! allocator over 5 000 stored 12–16-edge schemas with one witness each
//! (`tests/resident_bytes.rs`): 133 B of live heap per schema for 146 B
//! of log (0.9×; 331 B with 72-byte slots holding a word row and a result
//! blob of their own, and 1 969 B at the layout before that — a
//! `BagArena`, a `Vec<Vec<u64>>` and a `FxHashMap` per schema in `Vec`
//! buckets). [`StoreStats::index_bytes`] reports the mirror's size,
//! maintained per mutation.
//!
//! [`Store::open`] replays the log into per-schema state (canonical
//! structure, shared bag dictionary, live results). Replay stops at the
//! first frame that fails its length, checksum, or semantic validation
//! and **truncates the file back to the last valid record** — a torn
//! tail from a crash mid-append costs the unflushed suffix, never the
//! prefix, and a corrupted record is rejected (recomputed by the
//! service), never trusted.
//!
//! **A failed append stops the store.** A write that fails (EIO, a short
//! write, a full disk) may leave a torn record on disk, and replay stops
//! at the first one: anything appended after it would be truncated at the
//! next open even though its `put` and `sync` succeeded. So the handle
//! latches the first failed append and every later [`Store::put`] fails
//! with its error kind until the store is reopened. The torn tail stays
//! where it is for [`Store::open`] to recover; what was appended before
//! it survives, and [`Store::sync`] still makes that durable.
//!
//! [`Store::put`] appends: on a schema's first sight a `Schema` record,
//! then a `Bags` delta for witness bags the schema's dictionary has not
//! seen (bag dedup across records of one schema), then the `Result`. A
//! record reaches the index only after its append succeeded, so the
//! index never holds what the log lacks. Writes go straight to the file
//! descriptor; durability is the caller's [`Store::sync`] (the service
//! batches fsyncs on its write-behind channel). [`Store::compact`]
//! rewrites the log dropping superseded results and orphaned dictionary
//! bags, atomically via a temp file + rename.
//!
//! Witnesses go in and come out as softhw-core's [`TdFrame`], the same
//! frame the wire protocol carries: [`Store::get`] rebuilds one from the
//! bag dictionary in exactly the order [`TdFrame::from_td`] frames, and
//! [`Store::verify`] decodes it with the one decoder, [`TdFrame::to_td`].

use crate::fault::{FaultInjector, WriteDecision};
use crate::record::{
    crc64, scan_record, words_per_set, ClassKey, ResultRecord, ScanOutcome, StoreRecord,
    StoredAnswer, StoredTd, MAGIC,
};
use softhw_core::TdFrame;
use softhw_hypergraph::cache::canonical_form;
use softhw_hypergraph::fxhash::hash_u64_iter;
use softhw_hypergraph::pack::{get_varint, put_varint};
use softhw_hypergraph::{ArenaSnapshot, FxHashMap, Hypergraph, HypergraphBuilder};
use std::fs::{File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::ops::Range;
use std::path::{Path, PathBuf};

/// Structural hash + independent digest of a hypergraph's canonical
/// form. The pair keys the store: the hash routes, the digest (different
/// mixing over the same canonical words) rejects hash collisions without
/// storing the full canonical form in every record.
pub fn schema_key(h: &Hypergraph) -> (u64, u64) {
    let canon = canonical_form(h);
    (
        softhw_hypergraph::fxhash::hash_u64s(&canon),
        schema_digest(&canon),
    )
}

/// The digest half of [`schema_key`], over a precomputed canonical form.
pub fn schema_digest(canon: &[u64]) -> u64 {
    hash_u64_iter(std::iter::once(0x9e37_79b9_7f4a_7c15).chain(canon.iter().copied()))
}

/// Counters and sizes of a [`Store`].
#[derive(Clone, Copy, Debug, Default)]
pub struct StoreStats {
    /// Structurally distinct schemas tracked.
    pub schemas: usize,
    /// Live results across all schemas.
    pub results: usize,
    /// Dictionary bags across all schemas.
    pub dict_bags: usize,
    /// Valid log bytes on disk.
    pub bytes: u64,
    /// `get` probes served.
    pub gets: u64,
    /// `get` probes that found a result.
    pub hits: u64,
    /// `get` probes that found nothing.
    pub misses: u64,
    /// Results persisted this session.
    pub puts: u64,
    /// Bytes dropped by open-time recovery (torn tail / corruption).
    pub recovered_bytes: u64,
    /// Heap bytes of the in-memory index: the schema map's table plus
    /// every schema's word row and result blob (capacities, not
    /// lengths).
    pub index_bytes: u64,
}

/// Per-schema summary row (`inspect` / `top` / warm-start ordering).
#[derive(Clone, Debug)]
pub struct SchemaSummary {
    /// Structural hash.
    pub hash: u64,
    /// Canonical digest.
    pub digest: u64,
    /// `|V(H)|`.
    pub num_vertices: usize,
    /// `|E(H)|`.
    pub num_edges: usize,
    /// Bags in the shared dictionary.
    pub dict_bags: usize,
    /// Live results.
    pub results: usize,
    /// Heat: live results plus this session's hits — the warm-start
    /// ordering key.
    pub heat: u64,
}

/// A borrowed witness frame handed to [`Store::put`]: a [`TdFrame`]'s
/// parts, so a caller that holds them apart need not assemble one.
#[derive(Clone, Copy)]
pub struct FrameRef<'a> {
    /// The vertex universe.
    pub universe: usize,
    /// Deduplicated bag words.
    pub snapshot: &'a ArenaSnapshot,
    /// `(parent index, bag id)` per node, preorder.
    pub nodes: &'a [(Option<u32>, u32)],
}

impl<'a> From<&'a TdFrame> for FrameRef<'a> {
    fn from(frame: &'a TdFrame) -> FrameRef<'a> {
        FrameRef {
            universe: frame.universe,
            snapshot: &frame.snapshot,
            nodes: &frame.nodes,
        }
    }
}

/// The answer being persisted by [`Store::put`].
#[derive(Clone, Copy)]
pub enum PutAnswer<'a> {
    /// A "no" decision.
    No,
    /// A "yes" decision with its witness.
    Yes(FrameRef<'a>),
    /// An exact width with its witness.
    Width {
        /// The computed width.
        width: usize,
        /// The witness decomposition.
        frame: FrameRef<'a>,
    },
}

/// A result retrieved from the store.
#[derive(Clone, Debug)]
pub struct StoreHit {
    /// Echo fields of the stored response.
    pub fields: Vec<(String, String)>,
    /// The stored answer with materialised witness frames.
    pub answer: HitAnswer,
}

/// The answer half of a [`StoreHit`].
#[derive(Clone, Debug)]
pub enum HitAnswer {
    /// A "no" decision.
    No,
    /// A "yes" decision with its witness.
    Yes(TdFrame),
    /// An exact width with its witness.
    Width {
        /// The stored width.
        width: usize,
        /// The witness decomposition.
        frame: TdFrame,
    },
}

/// Bytes per packed set over a `universe`-element domain: the low bytes
/// of its `words_per_set` words, which hold every element.
fn bytes_per_set(universe: usize) -> usize {
    universe.div_ceil(8).max(1)
}

/// Appends the low `bps` bytes of a word-packed set — all of it, for a
/// set that [`fits`].
fn pack_set(words: &[u64], bps: usize, out: &mut Vec<u8>) {
    out.extend(words.iter().flat_map(|w| w.to_le_bytes()).take(bps));
}

/// Appends the word-packed set behind `bytes` ([`pack_set`]'s inverse).
fn unpack_set(bytes: &[u8], out: &mut Vec<u64>) {
    let word = |chunk: &[u8]| {
        let mut le = [0u8; 8];
        le[..chunk.len()].copy_from_slice(chunk);
        u64::from_le_bytes(le)
    };
    out.extend(bytes.chunks(8).map(word));
}

/// True iff `words` has no element past its first `bps` bytes, so
/// [`pack_set`] keeps all of it.
fn fits(words: &[u64], bps: usize) -> bool {
    let bytes = words.iter().flat_map(|w| w.to_le_bytes());
    bytes.skip(bps).all(|b| b == 0)
}

/// The `u32` header fields of a [`SchemaEntry`], in buffer order.
#[derive(Clone, Copy)]
enum Field {
    NumVertices,
    NumEdges,
    DictLen,
    NumResults,
    /// Session get-hits (heat = this + live results), saturating.
    SessionHits,
}

const HEADER_BYTES: usize = 5 * std::mem::size_of::<u32>();

/// The resident state of one stored schema: **one** exact-fit
/// allocation, `[header | edges | dictionary | results]` — see the module
/// docs for the layout and why it is flat. It is rebuilt to fit on each of
/// the handful of appends a schema sees: slack, a second allocation or a
/// wider map slot would be paid 40 000 times over.
struct SchemaEntry {
    /// [`HEADER_BYTES`] of [`Field`]s; then `bytes_per_set(num_vertices)`
    /// bytes per set — the canonical (sorted) edges, then the shared bag
    /// dictionary in id order (ids are record-referenced); then the live
    /// results, one `len:varint payload` each, payload as
    /// [`ResultRecord::encode`] writes it.
    buf: Box<[u8]>,
}

impl SchemaEntry {
    fn new(num_vertices: usize, edges: &[Vec<u64>]) -> SchemaEntry {
        let bps = bytes_per_set(num_vertices);
        let mut buf = Vec::with_capacity(HEADER_BYTES + edges.len() * bps);
        for field in [num_vertices as u32, edges.len() as u32, 0, 0, 0] {
            buf.extend_from_slice(&field.to_le_bytes());
        }
        for edge in edges {
            pack_set(edge, bps, &mut buf);
        }
        SchemaEntry {
            buf: buf.into_boxed_slice(),
        }
    }

    fn field(&self, field: Field) -> u32 {
        let at = field as usize * 4;
        let mut le = [0u8; 4];
        le.copy_from_slice(&self.buf[at..at + 4]);
        u32::from_le_bytes(le)
    }

    fn set_field(&mut self, field: Field, value: u32) {
        let at = field as usize * 4;
        self.buf[at..at + 4].copy_from_slice(&value.to_le_bytes());
    }

    fn num_vertices(&self) -> usize {
        self.field(Field::NumVertices) as usize
    }

    fn num_edges(&self) -> usize {
        self.field(Field::NumEdges) as usize
    }

    fn dict_len(&self) -> usize {
        self.field(Field::DictLen) as usize
    }

    fn num_results(&self) -> usize {
        self.field(Field::NumResults) as usize
    }

    fn heat(&self) -> u64 {
        self.num_results() as u64 + self.field(Field::SessionHits) as u64
    }

    fn note_hit(&mut self) {
        let hits = self.field(Field::SessionHits).saturating_add(1);
        self.set_field(Field::SessionHits, hits);
    }

    fn bps(&self) -> usize {
        bytes_per_set(self.num_vertices())
    }

    /// The packed bytes of set `i`, counting edges then dictionary bags.
    fn set_bytes(&self, i: usize) -> &[u8] {
        let at = HEADER_BYTES + i * self.bps();
        &self.buf[at..at + self.bps()]
    }

    fn edges(&self) -> impl Iterator<Item = Vec<u64>> + '_ {
        (0..self.num_edges()).map(|e| {
            let mut words = Vec::new();
            unpack_set(self.set_bytes(e), &mut words);
            words
        })
    }

    /// Appends the words of dictionary bag `id`.
    fn dict_words(&self, id: u32, out: &mut Vec<u64>) {
        unpack_set(self.set_bytes(self.num_edges() + id as usize), out);
    }

    /// Where the sets end and the results begin.
    fn results_at(&self) -> usize {
        HEADER_BYTES + (self.num_edges() + self.dict_len()) * self.bps()
    }

    /// The id of the dictionary bag whose packed bytes are `packed`.
    fn dict_lookup(&self, packed: &[u8]) -> Option<u32> {
        let bps = self.bps();
        let dict = &self.buf[HEADER_BYTES + self.num_edges() * bps..self.results_at()];
        let found = dict.chunks_exact(bps).position(|bag| bag == packed);
        found.map(|id| id as u32)
    }

    /// Replaces `self.buf[range]` with `with`, refitting the allocation.
    fn splice(&mut self, range: Range<usize>, with: &[u8]) {
        let mut buf = std::mem::take(&mut self.buf).into_vec();
        buf.reserve_exact(with.len().saturating_sub(range.len()));
        buf.splice(range, with.iter().copied());
        self.buf = buf.into_boxed_slice();
    }

    /// Appends packed bags the dictionary does not hold yet; they take
    /// the next ids in order.
    fn dict_extend(&mut self, packed: &[u8]) {
        debug_assert_eq!(packed.len() % self.bps(), 0);
        let at = self.results_at();
        self.splice(at..at, packed);
        let added = (packed.len() / self.bps()) as u32;
        self.set_field(Field::DictLen, self.dict_len() as u32 + added);
    }

    fn results(&self) -> &[u8] {
        &self.buf[self.results_at()..]
    }

    /// Every live result as `(frame start, payload range, key)`, offsets
    /// into [`SchemaEntry::results`]. A blob that does not parse ends the
    /// walk — it is written by `set_result` alone, so that would be a bug,
    /// not input.
    fn result_spans(&self) -> impl Iterator<Item = (usize, Range<usize>, ClassKey)> + '_ {
        let results = self.results();
        let mut pos = 0usize;
        std::iter::from_fn(move || {
            let start = pos;
            let len = get_varint(results, &mut pos)? as usize;
            let payload = pos..pos.checked_add(len)?;
            let key = ClassKey::decode(results.get(payload.clone())?, &mut 0)?;
            pos = payload.end;
            Some((start, payload, key))
        })
    }

    fn decode_result(&self, payload: Range<usize>) -> Option<ResultRecord> {
        ResultRecord::decode(&self.results()[payload], &mut 0)
    }

    fn result(&self, key: &ClassKey) -> Option<ResultRecord> {
        let (_, payload, _) = self.result_spans().find(|(_, _, k)| k == key)?;
        self.decode_result(payload)
    }

    /// Every live result, in blob (insertion) order.
    fn all_results(&self) -> Vec<ResultRecord> {
        self.result_spans()
            .filter_map(|(_, payload, _)| self.decode_result(payload))
            .collect()
    }

    /// Stores `result`, superseding the live result under its key.
    fn set_result(&mut self, result: &ResultRecord) {
        let superseded = self.result_spans().find(|(_, _, k)| *k == result.key);
        let at = self.results_at();
        match superseded {
            Some((start, payload, _)) => self.splice(at + start..at + payload.end, &[]),
            None => self.set_field(Field::NumResults, self.num_results() as u32 + 1),
        }
        let (mut framed, mut payload) = (Vec::new(), Vec::new());
        result.encode(&mut payload);
        put_varint(&mut framed, payload.len() as u64);
        framed.extend_from_slice(&payload);
        let end = self.buf.len();
        self.splice(end..end, &framed);
    }

    fn heap_bytes(&self) -> u64 {
        self.buf.len() as u64
    }
}

/// The index: `(structural hash, digest)` → resident schema state.
type Index = FxHashMap<(u64, u64), SchemaEntry>;

/// The disk-backed decomposition store. See the module docs.
pub struct Store {
    path: PathBuf,
    file: File,
    index: Index,
    /// Σ [`SchemaEntry::heap_bytes`] over the index, kept current by
    /// [`Store::mutate`].
    entry_bytes: u64,
    /// Σ live results and Σ dictionary bags over the index, kept current
    /// the same way: [`Store::stats`] runs under the store mutex on every
    /// `STATS` of a store-backed server, so it walks nothing.
    num_results: usize,
    dict_bags: usize,
    bytes: u64,
    gets: u64,
    hits: u64,
    misses: u64,
    puts: u64,
    recovered_bytes: u64,
    /// The kind of the first failed append, latched: every later `put`
    /// fails with it until the store is reopened (see the module docs).
    failed: Option<io::ErrorKind>,
    /// Test-only storage fault injection; `None` in production.
    faults: Option<FaultInjector>,
}

impl Store {
    /// Opens (or creates) the store at `path`, replaying the log with
    /// torn-tail recovery: the file is truncated back to the last valid
    /// record, and `recovered_bytes` in [`Store::stats`] reports what
    /// was dropped. A file that does not even carry the magic header is
    /// treated as wholly corrupt and reset to an empty store.
    pub fn open(path: impl AsRef<Path>) -> io::Result<Store> {
        let path = path.as_ref().to_path_buf();
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(&path)?;
        // Exclusive advisory lock for the lifetime of this handle: a
        // second opener (another server, or `softhw-store compact`
        // against a live server) would race appends or rename the log
        // out from under us — refuse loudly instead. On filesystems
        // without lock support the lock is best-effort: proceed
        // unlocked rather than refuse to run at all.
        match file.try_lock() {
            Ok(()) => {}
            Err(std::fs::TryLockError::WouldBlock) => {
                return Err(io::Error::new(
                    io::ErrorKind::WouldBlock,
                    format!("store {} is locked by another process", path.display()),
                ));
            }
            Err(std::fs::TryLockError::Error(_)) => {}
        }
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes)?;
        let mut store = Store {
            path,
            file,
            index: Index::default(),
            entry_bytes: 0,
            num_results: 0,
            dict_bags: 0,
            bytes: MAGIC.len() as u64,
            gets: 0,
            hits: 0,
            misses: 0,
            puts: 0,
            recovered_bytes: 0,
            failed: None,
            faults: None,
        };
        if bytes.is_empty() {
            store.file.write_all(MAGIC)?;
            store.file.sync_data()?;
            return Ok(store);
        }
        if bytes.len() < MAGIC.len() || &bytes[..MAGIC.len()] != MAGIC {
            // Unrecognisable header: nothing in the file can be trusted.
            store.recovered_bytes = bytes.len() as u64;
            store.file.set_len(0)?;
            store.file.seek(SeekFrom::Start(0))?;
            store.file.write_all(MAGIC)?;
            store.file.sync_data()?;
            return Ok(store);
        }
        let mut pos = MAGIC.len();
        let mut last_good = pos;
        loop {
            match scan_record(&bytes, pos) {
                ScanOutcome::End => break,
                ScanOutcome::Record(record, next) => {
                    if store.apply(record).is_err() {
                        // Checksum-valid but semantically inconsistent
                        // (e.g. a result referencing dictionary bags
                        // that were never appended): reject it and
                        // everything after it.
                        break;
                    }
                    pos = next;
                    last_good = next;
                }
                ScanOutcome::Corrupt => break,
            }
        }
        if last_good < bytes.len() {
            store.recovered_bytes = (bytes.len() - last_good) as u64;
            store.file.set_len(last_good as u64)?;
            store.file.sync_data()?;
        }
        store.file.seek(SeekFrom::Start(last_good as u64))?;
        store.bytes = last_good as u64;
        Ok(store)
    }

    /// Like [`Store::open`], but with storage fault injection on the
    /// append/sync path (see [`crate::fault`]). Open-time replay and
    /// recovery run un-faulted — recovery is the code a fault-injection
    /// test wants to exercise *afterwards*, on a clean reopen.
    pub fn open_with_faults(path: impl AsRef<Path>, faults: FaultInjector) -> io::Result<Store> {
        let mut store = Store::open(path)?;
        store.faults = Some(faults);
        Ok(store)
    }

    /// The path this store is backed by.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Heap bytes of the in-memory index ([`StoreStats::index_bytes`]),
    /// in O(1): the per-schema buffers are totalled as they change.
    pub fn index_bytes(&self) -> u64 {
        // The map's table: `capacity()` is 7/8 of its slots, and every
        // slot has one control byte beside it.
        let slots = (self.index.capacity() * 8).div_ceil(7);
        let slot = std::mem::size_of::<((u64, u64), SchemaEntry)>() + 1;
        self.entry_bytes + (slots * slot) as u64
    }

    /// Current counters and sizes.
    pub fn stats(&self) -> StoreStats {
        StoreStats {
            schemas: self.index.len(),
            results: self.num_results,
            dict_bags: self.dict_bags,
            index_bytes: self.index_bytes(),
            bytes: self.bytes,
            gets: self.gets,
            hits: self.hits,
            misses: self.misses,
            puts: self.puts,
            recovered_bytes: self.recovered_bytes,
        }
    }

    /// Applies a replayed record to the index. `Err` marks the record
    /// semantically inconsistent with the state built so far.
    fn apply(&mut self, record: StoreRecord) -> Result<(), &'static str> {
        let key = record.schema_key();
        match record {
            StoreRecord::Schema {
                num_vertices,
                edges,
                ..
            } => {
                if let Some(existing) = self.index.get(&key) {
                    // Idempotent re-registration (e.g. a crash between a
                    // Schema append and its first Result) must describe
                    // the same structure.
                    if existing.num_vertices() as u64 != num_vertices
                        || !existing.edges().eq(edges.iter().cloned())
                    {
                        return Err("schema re-registered with different structure");
                    }
                    return Ok(());
                }
                let bps = bytes_per_set(num_vertices as usize);
                if edges.iter().any(|e| !fits(e, bps)) {
                    return Err("edge reaches outside the schema's vertices");
                }
                let entry = SchemaEntry::new(num_vertices as usize, &edges);
                self.entry_bytes += entry.heap_bytes();
                self.index.insert(key, entry);
                Ok(())
            }
            StoreRecord::Bags { universe, bags, .. } => self
                .mutate(key, |entry| {
                    if universe != entry.num_vertices() as u64 {
                        return Err("bags universe disagrees with schema");
                    }
                    let (wpb, bps) = (words_per_set(entry.num_vertices()), entry.bps());
                    // The writer only appends bags the dictionary has not
                    // seen; a duplicate here (within the record or against
                    // the dictionary) would shift every later id, so it is
                    // corruption. Check before mutating.
                    let mut packed = Vec::with_capacity(bags.len() * bps);
                    for (i, b) in bags.iter().enumerate() {
                        if b.len() != wpb || !fits(b, bps) {
                            return Err("bag with wrong word count or outside the universe");
                        }
                        pack_set(b, bps, &mut packed);
                        if entry.dict_lookup(&packed[i * bps..]).is_some()
                            || bags[..i].iter().any(|prev| prev == b)
                        {
                            return Err("duplicate dictionary bag");
                        }
                    }
                    entry.dict_extend(&packed);
                    Ok(())
                })
                .ok_or("bags for unregistered schema")?,
            StoreRecord::Result { result, .. } => self
                .mutate(key, |entry| {
                    let dict_len = entry.dict_len() as u64;
                    match &result.answer {
                        StoredAnswer::No => {}
                        StoredAnswer::Yes(td) | StoredAnswer::Width { td, .. } => {
                            if td.nodes.iter().any(|&(_, bag)| bag as u64 >= dict_len) {
                                return Err("witness references unknown dictionary bag");
                            }
                        }
                    }
                    entry.set_result(&result);
                    Ok(())
                })
                .ok_or("result for unregistered schema")?,
        }
    }

    /// Runs `f` on the entry under `key` (`None` if the schema is not
    /// registered), keeping the resident-byte, result and dictionary-bag
    /// totals current. A schema registers with no results and an empty
    /// dictionary, so every change to either comes through here.
    fn mutate<R>(&mut self, key: (u64, u64), f: impl FnOnce(&mut SchemaEntry) -> R) -> Option<R> {
        let entry = self.index.get_mut(&key)?;
        let before = (entry.heap_bytes(), entry.num_results(), entry.dict_len());
        let out = f(entry);
        self.entry_bytes = self.entry_bytes - before.0 + entry.heap_bytes();
        self.num_results = self.num_results - before.1 + entry.num_results();
        self.dict_bags = self.dict_bags - before.2 + entry.dict_len();
        Some(out)
    }

    /// Appends one record; a failed write latches the store
    /// ([`Store::put`] refuses from then on).
    fn append(&mut self, record: &StoreRecord) -> io::Result<()> {
        let framed = record.frame();
        if let Err(e) = self.write_log(&framed) {
            self.failed = Some(e.kind());
            return Err(e);
        }
        self.bytes += framed.len() as u64;
        Ok(())
    }

    /// One log write, routed through the fault injector when present.
    /// On an injected partial write the persisted prefix stays on disk
    /// (that is the point — it is the torn tail recovery must clean up)
    /// but `self.bytes` is *not* advanced, so the in-memory view keeps
    /// describing only the valid prefix.
    fn write_log(&mut self, framed: &[u8]) -> io::Result<()> {
        if let Some(faults) = &self.faults {
            match faults.on_write(self.bytes, framed.len()) {
                WriteDecision::Full => {}
                WriteDecision::Partial(keep, err) => {
                    self.file.write_all(&framed[..keep])?;
                    return Err(err);
                }
                WriteDecision::Fail(err) => return Err(err),
            }
        }
        self.file.write_all(framed)
    }

    /// Persists one result of schema `h`. Appends, in order: a `Schema`
    /// record on first sight, a `Bags` delta for witness bags new to
    /// the schema's dictionary, and the `Result` (which supersedes any
    /// earlier result under the same class key). Each record reaches the
    /// index only once its append succeeded. Durability requires a later
    /// [`Store::sync`]. After a failed append every call returns that
    /// failure until the store is reopened.
    pub fn put(
        &mut self,
        h: &Hypergraph,
        key: ClassKey,
        fields: &[(String, String)],
        answer: PutAnswer<'_>,
    ) -> io::Result<()> {
        if let Some(kind) = self.failed {
            return Err(io::Error::new(kind, "store stopped after a failed append"));
        }
        let (hash, digest) = schema_key(h);
        if !self.index.contains_key(&(hash, digest)) {
            let mut edges: Vec<Vec<u64>> = h.edges().iter().map(|e| e.blocks().to_vec()).collect();
            edges.sort_unstable();
            let record = StoreRecord::Schema {
                hash,
                digest,
                num_vertices: h.num_vertices() as u64,
                edges,
            };
            self.append(&record)?;
            self.apply(record)
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e))?;
        }
        // Intern the witness's bags into the shared dictionary, logging
        // only the delta, and translate the node table to dictionary
        // ids.
        let translate = |this: &mut Store, frame: FrameRef<'_>| -> io::Result<StoredTd> {
            if frame.universe != h.num_vertices() || frame.snapshot.universe != frame.universe {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidInput,
                    "witness universe disagrees with schema",
                ));
            }
            let bps = bytes_per_set(h.num_vertices());
            let mut packed = Vec::with_capacity(frame.snapshot.len() * bps);
            for i in 0..frame.snapshot.len() {
                let words = frame.snapshot.words(i);
                if !fits(words, bps) {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidInput,
                        "witness bag reaches outside the schema's vertices",
                    ));
                }
                pack_set(words, bps, &mut packed);
            }
            // The bags the dictionary lacks, as logged and as kept: they
            // take the next ids in order, in one append.
            let mut new_bags: Vec<Vec<u64>> = Vec::new();
            let mut new_packed: Vec<u8> = Vec::new();
            let mut dict_of_local: Vec<u32> = Vec::with_capacity(frame.snapshot.len());
            let entry = &this.index[&(hash, digest)];
            let next = entry.dict_len();
            for (i, bag) in packed.chunks_exact(bps).enumerate() {
                let pending = || new_packed.chunks_exact(bps).position(|new| new == bag);
                let known = entry
                    .dict_lookup(bag)
                    .or_else(|| pending().map(|at| (next + at) as u32));
                dict_of_local.push(known.unwrap_or_else(|| {
                    new_bags.push(frame.snapshot.words(i).to_vec());
                    new_packed.extend_from_slice(bag);
                    (next + new_bags.len() - 1) as u32
                }));
            }
            let mut nodes = Vec::with_capacity(frame.nodes.len());
            for &(parent, bag) in frame.nodes {
                let dict_id = *dict_of_local.get(bag as usize).ok_or_else(|| {
                    io::Error::new(io::ErrorKind::InvalidInput, "witness bag id out of range")
                })?;
                nodes.push((parent, dict_id));
            }
            if !new_bags.is_empty() {
                this.append(&StoreRecord::Bags {
                    hash,
                    digest,
                    universe: h.num_vertices() as u64,
                    bags: new_bags,
                })?;
                this.mutate((hash, digest), |entry| entry.dict_extend(&new_packed));
            }
            Ok(StoredTd { nodes })
        };
        let answer = match answer {
            PutAnswer::No => StoredAnswer::No,
            PutAnswer::Yes(frame) => StoredAnswer::Yes(translate(self, frame)?),
            PutAnswer::Width { width, frame } => StoredAnswer::Width {
                width: width as u64,
                td: translate(self, frame)?,
            },
        };
        let result = ResultRecord {
            key,
            fields: fields.to_vec(),
            answer,
        };
        let record = StoreRecord::Result {
            hash,
            digest,
            result: result.clone(),
        };
        self.append(&record)?;
        self.mutate((hash, digest), |entry| entry.set_result(&result));
        self.puts += 1;
        Ok(())
    }

    /// Looks up the stored result for `(hash, digest, key)`,
    /// materialising witness frames against the schema's dictionary.
    /// Pure index probe — no disk I/O.
    pub fn get(&mut self, hash: u64, digest: u64, key: &ClassKey) -> Option<StoreHit> {
        self.gets += 1;
        let entry = self.index.get_mut(&(hash, digest));
        let Some((result, entry)) = entry.and_then(|e| Some((e.result(key)?, e))) else {
            self.misses += 1;
            return None;
        };
        entry.note_hit();
        self.hits += 1;
        Some(Self::hit(entry, result))
    }

    /// A stored result with its witness materialised against the
    /// schema's dictionary.
    fn hit(entry: &SchemaEntry, result: ResultRecord) -> StoreHit {
        let frame = |td: &StoredTd| Self::materialise(entry, td);
        let answer = match &result.answer {
            StoredAnswer::No => HitAnswer::No,
            StoredAnswer::Yes(td) => HitAnswer::Yes(frame(td)),
            StoredAnswer::Width { width, td } => HitAnswer::Width {
                width: *width as usize,
                frame: frame(td),
            },
        };
        StoreHit {
            fields: result.fields,
            answer,
        }
    }

    /// Rebuilds a dense-id witness frame from dictionary-id nodes: local
    /// ids are assigned in first-occurrence order over the node table,
    /// which is exactly the order [`TdFrame::from_td`] interns preorder
    /// bags — so a frame that went through the store compares
    /// byte-identical to one framed fresh.
    fn materialise(entry: &SchemaEntry, td: &StoredTd) -> TdFrame {
        let universe = entry.num_vertices();
        let mut local_of_dict: FxHashMap<u32, u32> = FxHashMap::default();
        let mut storage: Vec<u64> = Vec::new();
        let mut nodes = Vec::with_capacity(td.nodes.len());
        for &(parent, dict_id) in &td.nodes {
            let next = local_of_dict.len() as u32;
            let local = *local_of_dict.entry(dict_id).or_insert_with(|| {
                entry.dict_words(dict_id, &mut storage);
                next
            });
            nodes.push((parent, local));
        }
        TdFrame {
            universe,
            snapshot: ArenaSnapshot { universe, storage },
            nodes,
        }
    }

    /// Flushes and fsyncs the log. The write-behind persister calls
    /// this between batches; nothing is durable before it returns.
    pub fn sync(&mut self) -> io::Result<()> {
        self.file.flush()?;
        if let Some(faults) = &self.faults {
            faults.on_sync()?;
        }
        self.file.sync_data()
    }

    /// A second handle onto the log for durability syncs: appends
    /// happen under the store lock (fast syscalls), but a caller can
    /// `sync_data()` this clone *without* holding the lock, keeping the
    /// slow disk flush off the request path entirely.
    pub fn sync_handle(&self) -> io::Result<File> {
        self.file.try_clone()
    }

    /// Summaries of every schema, hottest first (ties broken by hash for
    /// a stable order). The warm-start preload order.
    pub fn schemas(&self) -> Vec<SchemaSummary> {
        let mut out: Vec<SchemaSummary> = self
            .index
            .iter()
            .map(|(&(hash, digest), e)| SchemaSummary {
                hash,
                digest,
                num_vertices: e.num_vertices(),
                num_edges: e.num_edges(),
                dict_bags: e.dict_len(),
                results: e.num_results(),
                heat: e.heat(),
            })
            .collect();
        out.sort_by(|a, b| b.heat.cmp(&a.heat).then(a.hash.cmp(&b.hash)));
        out
    }

    /// The hottest `n` schemas as `(hash, digest)` pairs.
    pub fn hottest(&self, n: usize) -> Vec<(u64, u64)> {
        self.schemas()
            .into_iter()
            .take(n)
            .map(|s| (s.hash, s.digest))
            .collect()
    }

    /// Rebuilds a structurally identical hypergraph for a stored schema
    /// (synthetic `v<i>`/`e<j>` names; the structural hash and digest of
    /// the rebuilt hypergraph equal the stored ones, which
    /// [`Store::verify`] checks).
    pub fn schema_hypergraph(&self, hash: u64, digest: u64) -> Option<Hypergraph> {
        let entry = self.index.get(&(hash, digest))?;
        let num_vertices = entry.num_vertices();
        let mut b = HypergraphBuilder::new();
        for v in 0..num_vertices {
            b.vertex(&format!("v{v}"));
        }
        for (j, words) in entry.edges().enumerate() {
            let ids: Vec<usize> = softhw_hypergraph::arena::words_iter(&words).collect();
            if ids.iter().any(|&v| v >= num_vertices) {
                return None; // corrupt edge survived somehow: refuse
            }
            b.edge_ids(&format!("e{j}"), &ids);
        }
        Some(b.build_allow_isolated())
    }

    /// Every stored result of a schema, key-sorted, witnesses
    /// materialised — the warm-start feed.
    pub fn results_for(&self, hash: u64, digest: u64) -> Vec<(ClassKey, StoreHit)> {
        let Some(entry) = self.index.get(&(hash, digest)) else {
            return Vec::new();
        };
        let mut out: Vec<(ClassKey, StoreHit)> = entry
            .all_results()
            .into_iter()
            .map(|r| (r.key, Self::hit(entry, r)))
            .collect();
        out.sort_by_key(|(k, _)| *k);
        out
    }

    /// Full offline verification: every schema rebuilds to its stored
    /// hash/digest, and every stored witness decodes into a valid tree
    /// decomposition of its schema. Returns human-readable problem
    /// descriptions (empty = clean).
    pub fn verify(&self) -> Vec<String> {
        let mut problems = Vec::new();
        for s in self.schemas() {
            let Some(h) = self.schema_hypergraph(s.hash, s.digest) else {
                problems.push(format!("schema {:016x}: cannot rebuild hypergraph", s.hash));
                continue;
            };
            let (rh, rd) = schema_key(&h);
            if (rh, rd) != (s.hash, s.digest) {
                problems.push(format!(
                    "schema {:016x}: rebuilt hash/digest disagree ({rh:016x}/{rd:016x})",
                    s.hash
                ));
                continue;
            }
            for (key, hit) in self.results_for(s.hash, s.digest) {
                let (HitAnswer::Yes(frame) | HitAnswer::Width { frame, .. }) = &hit.answer else {
                    continue;
                };
                match frame.to_td() {
                    Ok(td) => {
                        if let Err(e) = td.validate(&h) {
                            problems.push(format!(
                                "schema {:016x} {key:?}: witness invalid: {e}",
                                s.hash
                            ));
                        }
                    }
                    Err(e) => problems.push(format!(
                        "schema {:016x} {key:?}: witness frame corrupt: {e}",
                        s.hash
                    )),
                }
            }
        }
        problems
    }

    /// Rewrites the log keeping only live state: one `Schema` record per
    /// schema, one `Bags` record holding exactly the dictionary bags
    /// still referenced by a live result (orphans from superseded
    /// results are dropped, ids remapped), and the live `Result`
    /// records. Atomic: written to a temp file, fsynced, renamed over
    /// the log. Returns `(bytes_before, bytes_after)`.
    pub fn compact(&mut self) -> io::Result<(u64, u64)> {
        let before = self.bytes;
        let tmp_path = {
            let mut p = self.path.clone().into_os_string();
            p.push(".compact");
            PathBuf::from(p)
        };
        let mut tmp = File::create(&tmp_path)?;
        tmp.write_all(MAGIC)?;
        let mut written = MAGIC.len() as u64;
        let mut schemas: Vec<(u64, u64)> = self.index.keys().copied().collect();
        schemas.sort_unstable();
        for (hash, digest) in schemas {
            let entry = &self.index[&(hash, digest)];
            let mut records: Vec<StoreRecord> = Vec::new();
            records.push(StoreRecord::Schema {
                hash,
                digest,
                num_vertices: entry.num_vertices() as u64,
                edges: entry.edges().collect(),
            });
            // Gather referenced dictionary bags in a deterministic
            // order (key-sorted results, node order within each) and
            // remap them to fresh dense ids.
            let mut live = entry.all_results();
            live.sort_unstable_by_key(|r| r.key);
            let mut new_of_old: FxHashMap<u32, u32> = FxHashMap::default();
            let mut kept_bags: Vec<Vec<u64>> = Vec::new();
            for result in &mut live {
                let (StoredAnswer::Yes(td) | StoredAnswer::Width { td, .. }) = &mut result.answer
                else {
                    continue;
                };
                for (_, bag) in &mut td.nodes {
                    let (old, next) = (*bag, new_of_old.len() as u32);
                    *bag = *new_of_old.entry(old).or_insert_with(|| {
                        let mut bag = Vec::new();
                        entry.dict_words(old, &mut bag);
                        kept_bags.push(bag);
                        next
                    });
                }
            }
            if !kept_bags.is_empty() {
                records.push(StoreRecord::Bags {
                    hash,
                    digest,
                    universe: entry.num_vertices() as u64,
                    bags: kept_bags,
                });
            }
            for result in live {
                records.push(StoreRecord::Result {
                    hash,
                    digest,
                    result,
                });
            }
            for record in &records {
                let framed = record.frame();
                tmp.write_all(&framed)?;
                written += framed.len() as u64;
            }
        }
        tmp.sync_data()?;
        drop(tmp);
        std::fs::rename(&tmp_path, &self.path)?;
        // Reopen on the compacted file and rebuild the index (ids were
        // remapped), carrying the session counters over.
        let reopened = Store::open(&self.path)?;
        let (gets, hits, misses, puts, recovered) = (
            self.gets,
            self.hits,
            self.misses,
            self.puts,
            self.recovered_bytes,
        );
        *self = reopened;
        self.gets = gets;
        self.hits = hits;
        self.misses = misses;
        self.puts = puts;
        self.recovered_bytes = recovered;
        debug_assert_eq!(self.bytes, written);
        Ok((before, written))
    }
}

/// Consistency helper for tests and `softhw-store verify`: the crc of
/// the whole live file (read back from disk), to detect writer bugs
/// that in-memory state would mask.
pub fn file_crc(path: impl AsRef<Path>) -> io::Result<u64> {
    let bytes = std::fs::read(path)?;
    Ok(crc64(&bytes))
}
