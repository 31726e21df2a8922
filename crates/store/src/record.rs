//! The store's record format: versioned, checksummed, varint-packed.
//!
//! A store file is a magic header followed by framed records:
//!
//! ```text
//! file   := magic(8 = "SHWSTOR1") record*
//! record := len:u32le body crc:u64le          crc64-ECMA over body
//! body   := type:u8 payload
//! ```
//!
//! Three record types build up one schema's state:
//!
//! - **Schema** (`0x01`): structural hash, canonical digest, vertex
//!   count, and the canonical (sorted) edge bitsets — enough to rebuild
//!   a structurally identical hypergraph for warm starts and witness
//!   re-validation, and to reject hash collisions.
//! - **Bags** (`0x02`): a delta of bag words appended to the schema's
//!   shared **bag dictionary**. Every record of one schema references
//!   bags by dictionary id, so a bag shared by many witnesses is stored
//!   once per schema, not once per record.
//! - **Result** (`0x03`): a `(request class, answer)` pair — the width
//!   or yes/no decision, echo fields, and the witness as a dense
//!   `(parent, bag-id)` node table over dictionary ids.
//!
//! All integers are LEB128 varints (via [`softhw_hypergraph::pack`]);
//! bag and edge words are varint-packed too, so sparse high words cost
//! one byte. Decoders are total: corrupt bytes yield `None`, never a
//! panic and never unbounded allocation — length fields are checked
//! against the bytes actually present before anything is reserved.

use softhw_hypergraph::pack::{get_varint, get_zigzag, put_varint, put_zigzag};
use std::sync::OnceLock;

/// The store file's magic header (8 bytes, includes the format version).
pub const MAGIC: &[u8; 8] = b"SHWSTOR1";

/// Hard ceiling on one record's body length: a corrupt length field
/// must not trigger a giant read or allocation.
pub const MAX_RECORD_BYTES: usize = 1 << 28;

const MAX_VERTICES: u64 = 1 << 24;
const MAX_EDGES: u64 = 1 << 24;
const MAX_FIELDS: u64 = 1 << 10;
const MAX_STRING: u64 = 1 << 20;

/// CRC-64/ECMA (reflected, poly 0xC96C5795D7870F42) over `bytes`.
/// Strong enough that any localised corruption — the bit flips and torn
/// writes the recovery tests inject — is detected with near certainty.
pub fn crc64(bytes: &[u8]) -> u64 {
    static TABLE: OnceLock<[u64; 256]> = OnceLock::new();
    let table = TABLE.get_or_init(|| {
        let mut table = [0u64; 256];
        let mut i = 0;
        while i < 256 {
            let mut crc = i as u64;
            let mut bit = 0;
            while bit < 8 {
                crc = if crc & 1 != 0 {
                    (crc >> 1) ^ 0xC96C_5795_D787_0F42
                } else {
                    crc >> 1
                };
                bit += 1;
            }
            table[i] = crc;
            i += 1;
        }
        table
    });
    let mut crc = !0u64;
    for &b in bytes {
        crc = table[((crc ^ b as u64) & 0xff) as usize] ^ (crc >> 8);
    }
    !crc
}

/// The request-class component of a result key: which question the
/// stored answer responds to. Together with the schema's structural
/// hash and digest this keys the exact result cache.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum ClassKey {
    /// Exact `shw` with witness.
    Shw,
    /// `shw ≤ k` decision.
    ShwLeq(u64),
    /// Exact `hw` with witness.
    Hw,
    /// `hw ≤ k` decision.
    HwLeq(u64),
    /// `BEST trivial k`.
    BestTrivial(u64),
    /// `BEST concov k`.
    BestConCov(u64),
    /// `BEST shallow:<d> k`.
    BestShallow {
        /// The shallowness depth.
        d: i64,
        /// The width bound.
        k: u64,
    },
}

impl ClassKey {
    fn encode(&self, out: &mut Vec<u8>) {
        match *self {
            ClassKey::Shw => out.push(1),
            ClassKey::ShwLeq(k) => {
                out.push(2);
                put_varint(out, k);
            }
            ClassKey::Hw => out.push(3),
            ClassKey::HwLeq(k) => {
                out.push(4);
                put_varint(out, k);
            }
            ClassKey::BestTrivial(k) => {
                out.push(5);
                put_varint(out, k);
            }
            ClassKey::BestConCov(k) => {
                out.push(6);
                put_varint(out, k);
            }
            ClassKey::BestShallow { d, k } => {
                out.push(7);
                put_zigzag(out, d);
                put_varint(out, k);
            }
        }
    }

    pub(crate) fn decode(buf: &[u8], pos: &mut usize) -> Option<ClassKey> {
        let tag = *buf.get(*pos)?;
        *pos += 1;
        Some(match tag {
            1 => ClassKey::Shw,
            2 => ClassKey::ShwLeq(get_varint(buf, pos)?),
            3 => ClassKey::Hw,
            4 => ClassKey::HwLeq(get_varint(buf, pos)?),
            5 => ClassKey::BestTrivial(get_varint(buf, pos)?),
            6 => ClassKey::BestConCov(get_varint(buf, pos)?),
            7 => {
                let d = get_zigzag(buf, pos)?;
                let k = get_varint(buf, pos)?;
                ClassKey::BestShallow { d, k }
            }
            _ => return None,
        })
    }
}

/// A stored witness tree: `(parent, bag)` per node in preorder, bags
/// referencing the schema's shared dictionary.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StoredTd {
    /// `(parent index, dictionary bag id)` per node; node 0 is the root
    /// with no parent.
    pub nodes: Vec<(Option<u32>, u32)>,
}

/// A stored answer: what the service would respond, minus the framing.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum StoredAnswer {
    /// Decision answered "no" (no witness).
    No,
    /// Decision answered "yes" with a witness.
    Yes(StoredTd),
    /// Exact width with its witness.
    Width {
        /// The computed width.
        width: u64,
        /// The witness decomposition.
        td: StoredTd,
    },
}

/// One stored result: the class asked about, echo fields (e.g. `eval`,
/// `cost` of a `BEST` response), and the answer.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ResultRecord {
    /// Which question this answers.
    pub key: ClassKey,
    /// Extra response fields, in emission order.
    pub fields: Vec<(String, String)>,
    /// The stored answer.
    pub answer: StoredAnswer,
}

impl ResultRecord {
    /// Appends the payload of a `Result` record (key, fields, answer) —
    /// also the form the store keeps live results resident in.
    pub(crate) fn encode(&self, out: &mut Vec<u8>) {
        self.key.encode(out);
        put_varint(out, self.fields.len() as u64);
        for (k, v) in &self.fields {
            put_string(out, k);
            put_string(out, v);
        }
        match &self.answer {
            StoredAnswer::No => out.push(0),
            StoredAnswer::Yes(td) => {
                out.push(1);
                put_td(out, td);
            }
            StoredAnswer::Width { width, td } => {
                out.push(2);
                put_varint(out, *width);
                put_td(out, td);
            }
        }
    }

    /// Decodes one payload written by [`ResultRecord::encode`] at `pos`.
    pub(crate) fn decode(buf: &[u8], pos: &mut usize) -> Option<ResultRecord> {
        let key = ClassKey::decode(buf, pos)?;
        let nfields = get_varint(buf, pos)?;
        if nfields > MAX_FIELDS {
            return None;
        }
        let mut fields = Vec::with_capacity(nfields as usize);
        for _ in 0..nfields {
            let k = get_string(buf, pos)?;
            let v = get_string(buf, pos)?;
            fields.push((k, v));
        }
        let tag = *buf.get(*pos)?;
        *pos += 1;
        let answer = match tag {
            0 => StoredAnswer::No,
            1 => StoredAnswer::Yes(get_td(buf, pos)?),
            2 => {
                let width = get_varint(buf, pos)?;
                StoredAnswer::Width {
                    width,
                    td: get_td(buf, pos)?,
                }
            }
            _ => return None,
        };
        Some(ResultRecord {
            key,
            fields,
            answer,
        })
    }
}

/// One log record (see the module docs for the framing and the roles).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum StoreRecord {
    /// Registers a schema: canonical structure for rebuild + collision
    /// rejection.
    Schema {
        /// Structural hash (the index key).
        hash: u64,
        /// Second, independently mixed digest of the canonical form.
        digest: u64,
        /// `|V(H)|`.
        num_vertices: u64,
        /// Canonical (sorted) edge bitsets, `words_per_set` words each.
        edges: Vec<Vec<u64>>,
    },
    /// Appends bags to a schema's shared dictionary.
    Bags {
        /// Structural hash of the owning schema.
        hash: u64,
        /// Digest of the owning schema.
        digest: u64,
        /// The vertex universe (must match the schema's).
        universe: u64,
        /// The appended bag words, `words_per_set` words each.
        bags: Vec<Vec<u64>>,
    },
    /// Stores (or supersedes) one result of a schema.
    Result {
        /// Structural hash of the owning schema.
        hash: u64,
        /// Digest of the owning schema.
        digest: u64,
        /// The result payload.
        result: ResultRecord,
    },
}

/// Words per packed set over a `universe`-element domain (the
/// [`softhw_hypergraph::BagArena`] convention).
pub fn words_per_set(universe: usize) -> usize {
    universe.div_ceil(64).max(1)
}

fn put_string(out: &mut Vec<u8>, s: &str) {
    put_varint(out, s.len() as u64);
    out.extend_from_slice(s.as_bytes());
}

fn get_string(buf: &[u8], pos: &mut usize) -> Option<String> {
    let len = get_varint(buf, pos)?;
    if len > MAX_STRING {
        return None;
    }
    let len = len as usize;
    let bytes = buf.get(*pos..*pos + len)?;
    *pos += len;
    String::from_utf8(bytes.to_vec()).ok()
}

/// Unpacks `count` sets of `wpb` varint words each, bounding allocation
/// by the bytes actually present.
fn get_word_sets(buf: &[u8], pos: &mut usize, count: u64, wpb: usize) -> Option<Vec<Vec<u64>>> {
    let total = (count as usize).checked_mul(wpb)?;
    // Every packed word is at least one byte.
    if total > buf.len().saturating_sub(*pos) {
        return None;
    }
    let mut out = Vec::with_capacity(count as usize);
    for _ in 0..count {
        let mut words = Vec::with_capacity(wpb);
        for _ in 0..wpb {
            words.push(get_varint(buf, pos)?);
        }
        out.push(words);
    }
    Some(out)
}

fn put_td(out: &mut Vec<u8>, td: &StoredTd) {
    put_varint(out, td.nodes.len() as u64);
    for &(parent, bag) in &td.nodes {
        put_varint(out, parent.map_or(0, |p| p as u64 + 1));
        put_varint(out, bag as u64);
    }
}

fn get_td(buf: &[u8], pos: &mut usize) -> Option<StoredTd> {
    let n = get_varint(buf, pos)?;
    // Two varints of at least one byte each per node.
    if (n as usize).checked_mul(2)? > buf.len().saturating_sub(*pos) {
        return None;
    }
    let mut nodes = Vec::with_capacity(n as usize);
    for _ in 0..n {
        let parent = get_varint(buf, pos)?;
        let parent = if parent == 0 {
            None
        } else {
            Some(u32::try_from(parent - 1).ok()?)
        };
        let bag = u32::try_from(get_varint(buf, pos)?).ok()?;
        nodes.push((parent, bag));
    }
    Some(StoredTd { nodes })
}

impl StoreRecord {
    /// Encodes the record body (type byte + payload; no framing).
    pub fn encode_body(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            StoreRecord::Schema {
                hash,
                digest,
                num_vertices,
                edges,
            } => {
                out.push(1);
                out.extend_from_slice(&hash.to_le_bytes());
                out.extend_from_slice(&digest.to_le_bytes());
                put_varint(&mut out, *num_vertices);
                put_varint(&mut out, edges.len() as u64);
                for e in edges {
                    for &w in e {
                        put_varint(&mut out, w);
                    }
                }
            }
            StoreRecord::Bags {
                hash,
                digest,
                universe,
                bags,
            } => {
                out.push(2);
                out.extend_from_slice(&hash.to_le_bytes());
                out.extend_from_slice(&digest.to_le_bytes());
                put_varint(&mut out, *universe);
                put_varint(&mut out, bags.len() as u64);
                for b in bags {
                    for &w in b {
                        put_varint(&mut out, w);
                    }
                }
            }
            StoreRecord::Result {
                hash,
                digest,
                result,
            } => {
                out.push(3);
                out.extend_from_slice(&hash.to_le_bytes());
                out.extend_from_slice(&digest.to_le_bytes());
                result.encode(&mut out);
            }
        }
        out
    }

    /// Decodes a record body. `None` on any malformed shape — unknown
    /// type, truncation, oversized counts, trailing garbage.
    pub fn decode_body(body: &[u8]) -> Option<StoreRecord> {
        let ty = *body.first()?;
        let mut pos = 1usize;
        let hash = u64::from_le_bytes(body.get(pos..pos + 8)?.try_into().ok()?);
        pos += 8;
        let digest = u64::from_le_bytes(body.get(pos..pos + 8)?.try_into().ok()?);
        pos += 8;
        let record = match ty {
            1 => {
                let num_vertices = get_varint(body, &mut pos)?;
                if num_vertices == 0 || num_vertices > MAX_VERTICES {
                    return None;
                }
                let ne = get_varint(body, &mut pos)?;
                if ne > MAX_EDGES {
                    return None;
                }
                let wpb = words_per_set(num_vertices as usize);
                let edges = get_word_sets(body, &mut pos, ne, wpb)?;
                StoreRecord::Schema {
                    hash,
                    digest,
                    num_vertices,
                    edges,
                }
            }
            2 => {
                let universe = get_varint(body, &mut pos)?;
                if universe == 0 || universe > MAX_VERTICES {
                    return None;
                }
                let count = get_varint(body, &mut pos)?;
                let wpb = words_per_set(universe as usize);
                let bags = get_word_sets(body, &mut pos, count, wpb)?;
                StoreRecord::Bags {
                    hash,
                    digest,
                    universe,
                    bags,
                }
            }
            3 => StoreRecord::Result {
                hash,
                digest,
                result: ResultRecord::decode(body, &mut pos)?,
            },
            _ => return None,
        };
        // Trailing bytes mean the body was not what its length claimed:
        // reject rather than silently ignore.
        if pos != body.len() {
            return None;
        }
        Some(record)
    }

    /// Frames the record for the log: `len || body || crc64(body)`.
    pub fn frame(&self) -> Vec<u8> {
        let body = self.encode_body();
        debug_assert!(body.len() <= MAX_RECORD_BYTES);
        let mut out = Vec::with_capacity(body.len() + 12);
        out.extend_from_slice(&(body.len() as u32).to_le_bytes());
        out.extend_from_slice(&body);
        out.extend_from_slice(&crc64(&body).to_le_bytes());
        out
    }

    /// The owning schema's `(hash, digest)`.
    pub fn schema_key(&self) -> (u64, u64) {
        match *self {
            StoreRecord::Schema { hash, digest, .. }
            | StoreRecord::Bags { hash, digest, .. }
            | StoreRecord::Result { hash, digest, .. } => (hash, digest),
        }
    }
}

/// Outcome of scanning one record out of the log bytes.
#[derive(Debug)]
pub enum ScanOutcome {
    /// A valid record; `next` is the offset just past it.
    Record(StoreRecord, usize),
    /// Clean end of log (no bytes past `pos`).
    End,
    /// Torn tail or corruption at `pos`: everything from here on is
    /// untrusted and must be truncated away.
    Corrupt,
}

/// Scans the record starting at `pos` (which must be past the magic).
pub fn scan_record(bytes: &[u8], pos: usize) -> ScanOutcome {
    if pos == bytes.len() {
        return ScanOutcome::End;
    }
    let Some(len_bytes) = bytes.get(pos..pos + 4) else {
        return ScanOutcome::Corrupt; // torn length field
    };
    let len = u32::from_le_bytes(len_bytes.try_into().unwrap()) as usize;
    if len > MAX_RECORD_BYTES {
        return ScanOutcome::Corrupt;
    }
    let body_start = pos + 4;
    let Some(body) = bytes.get(body_start..body_start + len) else {
        return ScanOutcome::Corrupt; // torn body
    };
    let crc_start = body_start + len;
    let Some(crc_bytes) = bytes.get(crc_start..crc_start + 8) else {
        return ScanOutcome::Corrupt; // torn checksum
    };
    let crc = u64::from_le_bytes(crc_bytes.try_into().unwrap());
    if crc != crc64(body) {
        return ScanOutcome::Corrupt;
    }
    match StoreRecord::decode_body(body) {
        Some(record) => ScanOutcome::Record(record, crc_start + 8),
        None => ScanOutcome::Corrupt,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc64_known_vector() {
        // CRC-64/XZ ("123456789") = 0x995DC9BBDF1939FA.
        assert_eq!(crc64(b"123456789"), 0x995D_C9BB_DF19_39FA);
        assert_ne!(crc64(b"123456789"), crc64(b"123456788"));
    }

    #[test]
    fn bodies_roundtrip() {
        let records = vec![
            StoreRecord::Schema {
                hash: 0xdead_beef,
                digest: 42,
                num_vertices: 70,
                edges: vec![vec![0b11, 0], vec![1 << 63, 0b1]],
            },
            StoreRecord::Bags {
                hash: 1,
                digest: 2,
                universe: 10,
                bags: vec![vec![0b101], vec![0b11]],
            },
            StoreRecord::Result {
                hash: 9,
                digest: 8,
                result: ResultRecord {
                    key: ClassKey::BestShallow { d: -3, k: 2 },
                    fields: vec![("eval".into(), "shallow:-3".into())],
                    answer: StoredAnswer::Yes(StoredTd {
                        nodes: vec![(None, 0), (Some(0), 1), (Some(0), 0)],
                    }),
                },
            },
            StoreRecord::Result {
                hash: 9,
                digest: 8,
                result: ResultRecord {
                    key: ClassKey::Shw,
                    fields: vec![],
                    answer: StoredAnswer::Width {
                        width: 2,
                        td: StoredTd {
                            nodes: vec![(None, 5)],
                        },
                    },
                },
            },
            StoreRecord::Result {
                hash: 9,
                digest: 8,
                result: ResultRecord {
                    key: ClassKey::ShwLeq(1),
                    fields: vec![],
                    answer: StoredAnswer::No,
                },
            },
        ];
        for r in &records {
            let body = r.encode_body();
            assert_eq!(StoreRecord::decode_body(&body).as_ref(), Some(r));
            // Truncation at every cut point is rejected.
            for cut in 0..body.len() {
                assert_eq!(StoreRecord::decode_body(&body[..cut]), None, "cut {cut}");
            }
            // Trailing garbage is rejected.
            let mut padded = body.clone();
            padded.push(0);
            assert_eq!(StoreRecord::decode_body(&padded), None);
        }
    }

    #[test]
    fn framed_records_scan_and_reject_flips() {
        let r = StoreRecord::Bags {
            hash: 7,
            digest: 7,
            universe: 100,
            bags: vec![vec![u64::MAX, 0b1111], vec![0, 1]],
        };
        let framed = r.frame();
        match scan_record(&framed, 0) {
            ScanOutcome::Record(back, next) => {
                assert_eq!(back, r);
                assert_eq!(next, framed.len());
            }
            other => panic!("{other:?}"),
        }
        // Any single bit flip anywhere in the frame is caught (length,
        // body, or checksum corruption all scan as Corrupt — or, for
        // length-field flips that still frame validly, fail the crc).
        for byte in 0..framed.len() {
            let mut bad = framed.clone();
            bad[byte] ^= 0x10;
            match scan_record(&bad, 0) {
                ScanOutcome::Corrupt => {}
                other => panic!("flip at {byte} not rejected: {other:?}"),
            }
        }
    }

    #[test]
    fn absurd_counts_do_not_allocate() {
        // A Bags record claiming 2^40 bags over a short buffer must be
        // rejected before reserving anything.
        let mut body = vec![2u8];
        body.extend_from_slice(&1u64.to_le_bytes());
        body.extend_from_slice(&2u64.to_le_bytes());
        put_varint(&mut body, 64); // universe
        put_varint(&mut body, 1 << 40); // bag count
        assert_eq!(StoreRecord::decode_body(&body), None);
    }
}
