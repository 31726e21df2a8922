//! Parser for the HyperBench-style plain-text hypergraph format used by
//! decomposition tools (det-k-decomp, BalancedGo, log-k-decomp):
//!
//! ```text
//! % comment
//! edge1(v1, v2, v3),
//! edge2(v3, v4).
//! ```
//!
//! Edge and vertex names are arbitrary identifiers (alphanumeric plus
//! `_ ' -`). The trailing period is optional, commas between edges are
//! optional at line breaks.
//!
//! Reading a text is two steps. [`scan_hypergraph`] is the grammar: one
//! pass that checks the syntax and the two naming rules and yields a
//! [`Scan`] — vertex ids in first-seen order, each edge's id list, and
//! where every name sits in the text. It allocates a handful of flat
//! vectors and copies no name. [`Scan::build`] turns a scan into a
//! [`Hypergraph`] (owned names, incidence lists, Gaifman adjacency).
//! [`parse_hypergraph`] is the two in a row. A caller that only needs to
//! *recognise* a schema — the service looking a request up in its result
//! cache — stops after the scan: [`Scan::canonical_form`] is what
//! [`canonical_form`](crate::cache::canonical_form) returns for the
//! built hypergraph, word for word, without building it.

use crate::cache::canonical_words;
use crate::fxhash::{FxHashMap, FxHashSet};
use crate::hypergraph::{Hypergraph, HypergraphBuilder};
use std::fmt;
use std::ops::Range;

/// Error with position information raised by [`parse_hypergraph`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset in the input.
    pub offset: usize,
    /// Human-readable message.
    pub message: String,
}

impl ParseError {
    /// The 1-indexed `(line, column)` of the error's byte offset in
    /// `src` (the text that was parsed). The column counts bytes from
    /// the start of the line — identifiers in this format are ASCII, so
    /// byte columns and character columns coincide. An offset past the
    /// end of `src` (e.g. an unexpected-EOF error) lands just past the
    /// last line's content.
    pub fn line_col(&self, src: &str) -> (usize, usize) {
        let upto = &src.as_bytes()[..self.offset.min(src.len())];
        let line = 1 + upto.iter().filter(|&&b| b == b'\n').count();
        let col = 1 + upto.len() - upto.iter().rposition(|&b| b == b'\n').map_or(0, |p| p + 1);
        (line, col)
    }
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for ParseError {}

/// Byte-class bits for the scanner's 256-entry lookup table.
const CLASS_IDENT: u8 = 1;
const CLASS_WS: u8 = 2;

/// The scanner's byte-class table, built once with exactly the character
/// predicates the original `char`-based scanner used (`is_whitespace`,
/// `is_alphanumeric` plus `_ ' -` on the byte interpreted as a Latin-1
/// char), so classification is one indexed load per byte.
fn class_table() -> &'static [u8; 256] {
    static TABLE: std::sync::OnceLock<[u8; 256]> = std::sync::OnceLock::new();
    TABLE.get_or_init(|| {
        let mut t = [0u8; 256];
        for (b, slot) in t.iter_mut().enumerate() {
            let c = b as u8 as char;
            if c.is_alphanumeric() || c == '_' || c == '\'' || c == '-' {
                *slot |= CLASS_IDENT;
            }
            if c.is_whitespace() {
                *slot |= CLASS_WS;
            }
        }
        t
    })
}

struct Cursor<'a> {
    src: &'a [u8],
    pos: usize,
    class: &'static [u8; 256],
}

impl<'a> Cursor<'a> {
    fn new(src: &'a str) -> Self {
        Cursor {
            src: src.as_bytes(),
            pos: 0,
            class: class_table(),
        }
    }

    fn skip_ws(&mut self) {
        loop {
            while self.pos < self.src.len()
                && self.class[self.src[self.pos] as usize] & CLASS_WS != 0
            {
                self.pos += 1;
            }
            if self.pos < self.src.len() && self.src[self.pos] == b'%' {
                while self.pos < self.src.len() && self.src[self.pos] != b'\n' {
                    self.pos += 1;
                }
            } else {
                return;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.src.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let c = self.peek();
        if c.is_some() {
            self.pos += 1;
        }
        c
    }

    fn eat(&mut self, c: u8) -> bool {
        if self.peek() == Some(c) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn ident(&mut self) -> Result<&'a str, ParseError> {
        let start = self.pos;
        while self.pos < self.src.len()
            && self.class[self.src[self.pos] as usize] & CLASS_IDENT != 0
        {
            self.pos += 1;
        }
        if start == self.pos {
            return Err(ParseError {
                offset: start,
                message: format!(
                    "expected identifier, found {:?}",
                    self.peek().map(|c| c as char)
                ),
            });
        }
        Ok(std::str::from_utf8(&self.src[start..self.pos]).expect("ascii idents"))
    }

    fn err(&self, message: impl Into<String>) -> ParseError {
        ParseError {
            offset: self.pos,
            message: message.into(),
        }
    }
}

/// What one pass of the scanner knows about a text: its vertices
/// numbered in first-seen order, each edge as a list of those ids, and the
/// byte range of every name. Nothing is copied out of the text, so
/// [`Scan::build`] takes the text again.
#[derive(Clone, Debug)]
pub struct Scan {
    /// Where vertex `v`'s name first appears.
    vertex_names: Vec<Range<usize>>,
    /// Where edge `e`'s name appears.
    edge_names: Vec<Range<usize>>,
    /// Edge `e` is `edge_verts[edge_ends[e - 1]..edge_ends[e]]`.
    edge_ends: Vec<usize>,
    edge_verts: Vec<usize>,
}

impl Scan {
    /// Number of distinct vertices.
    pub fn num_vertices(&self) -> usize {
        self.vertex_names.len()
    }

    /// Number of edges.
    pub fn num_edges(&self) -> usize {
        self.edge_names.len()
    }

    /// Each edge's name range and vertex ids, in text order.
    fn edges(&self) -> impl Iterator<Item = (&Range<usize>, &[usize])> {
        let mut first = 0;
        self.edge_names
            .iter()
            .zip(&self.edge_ends)
            .map(move |(name, &end)| {
                let verts = self.edge_verts.get(first..end).unwrap_or_default();
                first = end;
                (name, verts)
            })
    }

    /// The canonical structural form of the scanned hypergraph: exactly
    /// the words [`canonical_form`](crate::cache::canonical_form) returns
    /// for [`Scan::build`]'s result (vertex count, edge count, then every
    /// edge's packed row in sorted order).
    pub fn canonical_form(&self) -> Vec<u64> {
        let words = self.num_vertices().div_ceil(64).max(1);
        let mut rows = vec![0u64; self.num_edges() * words];
        for ((_, verts), row) in self.edges().zip(rows.chunks_exact_mut(words)) {
            for &v in verts {
                row[v / 64] |= 1u64 << (v % 64);
            }
        }
        canonical_words(self.num_vertices(), rows.chunks_exact(words).collect())
    }

    /// Builds the [`Hypergraph`] this scan describes. `src` must be the
    /// text the scan was made from: names are read back out of it.
    pub fn build(&self, src: &str) -> Hypergraph {
        let name = |span: &Range<usize>| src.get(span.clone()).unwrap_or_default();
        let mut b = HypergraphBuilder::with_capacity(self.num_vertices(), self.num_edges());
        for span in &self.vertex_names {
            b.vertex(name(span));
        }
        for (span, verts) in self.edges() {
            b.edge_ids(name(span), verts);
        }
        b.build_allow_isolated()
    }
}

/// Scans the HyperBench text format: the one grammar of this module.
///
/// Malformed schemas are rejected with a positioned [`ParseError`] rather
/// than silently normalised: a duplicate edge name would alias two
/// distinct atoms under one name (and break name-based lookups
/// downstream), and a vertex repeated within one edge is almost always a
/// typo for a different vertex — both previously merged silently.
pub fn scan_hypergraph(input: &str) -> Result<Scan, ParseError> {
    // One cheap counting pass sizes every table up front: `(` bounds the
    // edge count, `(` + `,` bounds the vertex occurrences (and therefore
    // the distinct-vertex count), so the tables and the per-edge loop
    // below never rehash or reallocate mid-scan.
    let mut n_opens = 0usize;
    let mut n_commas = 0usize;
    for &byte in input.as_bytes() {
        n_opens += (byte == b'(') as usize;
        n_commas += (byte == b',') as usize;
    }
    let mut cur = Cursor::new(input);
    let mut scan = Scan {
        vertex_names: Vec::with_capacity(n_opens + n_commas),
        edge_names: Vec::with_capacity(n_opens),
        edge_ends: Vec::with_capacity(n_opens),
        edge_verts: Vec::with_capacity(n_opens + n_commas),
    };
    let mut vertex_ids: FxHashMap<&str, usize> =
        FxHashMap::with_capacity_and_hasher(n_opens + n_commas, Default::default());
    let mut edge_names: FxHashSet<&str> =
        FxHashSet::with_capacity_and_hasher(n_opens, Default::default());
    loop {
        cur.skip_ws();
        if cur.peek().is_none() {
            break;
        }
        if cur.eat(b'.') {
            cur.skip_ws();
            if cur.peek().is_some() {
                return Err(cur.err("content after terminating '.'"));
            }
            break;
        }
        let name_offset = cur.pos;
        let name = cur.ident()?;
        if !edge_names.insert(name) {
            return Err(ParseError {
                offset: name_offset,
                message: format!("duplicate edge name {name:?}"),
            });
        }
        scan.edge_names.push(name_offset..cur.pos);
        cur.skip_ws();
        if !cur.eat(b'(') {
            return Err(cur.err("expected '(' after edge name"));
        }
        let first = scan.edge_verts.len();
        loop {
            cur.skip_ws();
            let vert_offset = cur.pos;
            let vert = cur.ident()?;
            let fresh = scan.vertex_names.len();
            let id = *vertex_ids.entry(vert).or_insert(fresh);
            if id == fresh {
                scan.vertex_names.push(vert_offset..cur.pos);
            } else if scan
                .edge_verts
                .get(first..)
                .is_some_and(|e| e.contains(&id))
            {
                return Err(ParseError {
                    offset: vert_offset,
                    message: format!("vertex {vert:?} repeated within edge {name:?}"),
                });
            }
            scan.edge_verts.push(id);
            cur.skip_ws();
            match cur.bump() {
                Some(b',') => continue,
                Some(b')') => break,
                other => {
                    return Err(cur.err(format!(
                        "expected ',' or ')', found {:?}",
                        other.map(|c| c as char)
                    )))
                }
            }
        }
        scan.edge_ends.push(scan.edge_verts.len());
        cur.skip_ws();
        // optional comma between edges
        cur.eat(b',');
    }
    Ok(scan)
}

/// Parses the HyperBench text format into a [`Hypergraph`]:
/// [`scan_hypergraph`], then [`Scan::build`].
pub fn parse_hypergraph(input: &str) -> Result<Hypergraph, ParseError> {
    Ok(scan_hypergraph(input)?.build(input))
}

/// Renders a hypergraph back into the text format accepted by
/// [`parse_hypergraph`] (useful for interop with external decomposers).
pub fn render_hypergraph(h: &Hypergraph) -> String {
    let mut out = String::new();
    for e in 0..h.num_edges() {
        if e > 0 {
            out.push_str(",\n");
        }
        out.push_str(&h.render_edge(e));
    }
    out.push_str(".\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_simple() {
        let h = parse_hypergraph("e1(a,b), e2(b,c).").unwrap();
        assert_eq!(h.num_edges(), 2);
        assert_eq!(h.num_vertices(), 3);
        assert_eq!(h.edge_name(1), "e2");
    }

    #[test]
    fn parse_multiline_with_comments() {
        let src = "% a path\n e1(a, b)\n e2(b, c),\n% tail\n e3(c, d).";
        let h = parse_hypergraph(src).unwrap();
        assert_eq!(h.num_edges(), 3);
        assert_eq!(h.num_vertices(), 4);
    }

    #[test]
    fn parse_primed_names() {
        let h = parse_hypergraph("e(x', y_2)").unwrap();
        assert!(h.vertex_by_name("x'").is_some());
        assert!(h.vertex_by_name("y_2").is_some());
    }

    #[test]
    fn parse_errors_carry_position() {
        let err = parse_hypergraph("e1(a,)").unwrap_err();
        assert!(err.offset >= 5);
        assert!(parse_hypergraph("e1 a,b)").is_err());
        assert!(parse_hypergraph("e1(a,b). junk").is_err());
    }

    #[test]
    fn line_col_is_one_indexed_per_line() {
        let src = "e1(a,b),\ne2(b,c),\ne2(c,d).";
        let err = parse_hypergraph(src).unwrap_err();
        assert_eq!(err.line_col(src), (3, 1), "duplicate name on line 3");
        let src = "e1(a,b,a)";
        let err = parse_hypergraph(src).unwrap_err();
        assert_eq!(err.line_col(src), (1, 8), "repeated vertex mid-line");
        // An offset at (or past) EOF maps just past the last content.
        let src = "e1(a,b";
        let err = parse_hypergraph(src).unwrap_err();
        assert_eq!(err.line_col(src), (1, 7));
    }

    #[test]
    fn duplicate_edge_names_are_rejected_with_position() {
        let src = "e1(a,b),\ne1(b,c).";
        let err = parse_hypergraph(src).unwrap_err();
        assert_eq!(err.offset, src.find("\ne1").unwrap() + 1);
        assert!(err.message.contains("duplicate edge name"), "{err}");
        assert!(err.message.contains("e1"), "{err}");
    }

    #[test]
    fn repeated_vertex_within_edge_is_rejected_with_position() {
        let src = "e1(a,b,a)";
        let err = parse_hypergraph(src).unwrap_err();
        assert_eq!(err.offset, src.rfind('a').unwrap());
        assert!(err.message.contains("repeated within edge"), "{err}");
        // The same vertex across *different* edges stays legal.
        assert!(parse_hypergraph("e1(a,b), e2(a,c).").is_ok());
    }

    #[test]
    fn roundtrip() {
        let h = crate::named::h2();
        let txt = render_hypergraph(&h);
        let h2 = parse_hypergraph(&txt).unwrap();
        assert_eq!(h2.num_edges(), h.num_edges());
        assert_eq!(h2.num_vertices(), h.num_vertices());
        for e in 0..h.num_edges() {
            assert_eq!(h.edge_name(e), h2.edge_name(e));
            let mut a: Vec<&str> = h.edge(e).iter().map(|v| h.vertex_name(v)).collect();
            let mut b: Vec<&str> = h2.edge(e).iter().map(|v| h2.vertex_name(v)).collect();
            a.sort_unstable();
            b.sort_unstable();
            assert_eq!(a, b);
        }
    }

    /// The parser this module had before the scanner: names into a
    /// [`HypergraphBuilder`], edge by edge. Kept as the oracle the scanner
    /// is pinned to — same hypergraph, same error at the same offset.
    fn reference_parse(input: &str) -> Result<Hypergraph, ParseError> {
        let mut cur = Cursor::new(input);
        let mut b = HypergraphBuilder::new();
        let mut edge_names: FxHashSet<&str> = FxHashSet::default();
        let mut verts: Vec<&str> = Vec::new();
        loop {
            cur.skip_ws();
            if cur.peek().is_none() {
                break;
            }
            if cur.eat(b'.') {
                cur.skip_ws();
                if cur.peek().is_some() {
                    return Err(cur.err("content after terminating '.'"));
                }
                break;
            }
            let name_offset = cur.pos;
            let name = cur.ident()?;
            if !edge_names.insert(name) {
                return Err(ParseError {
                    offset: name_offset,
                    message: format!("duplicate edge name {name:?}"),
                });
            }
            cur.skip_ws();
            if !cur.eat(b'(') {
                return Err(cur.err("expected '(' after edge name"));
            }
            verts.clear();
            loop {
                cur.skip_ws();
                let vert_offset = cur.pos;
                let vert = cur.ident()?;
                if verts.contains(&vert) {
                    return Err(ParseError {
                        offset: vert_offset,
                        message: format!("vertex {vert:?} repeated within edge {name:?}"),
                    });
                }
                verts.push(vert);
                cur.skip_ws();
                match cur.bump() {
                    Some(b',') => continue,
                    Some(b')') => break,
                    other => {
                        return Err(cur.err(format!(
                            "expected ',' or ')', found {:?}",
                            other.map(|c| c as char)
                        )))
                    }
                }
            }
            b.edge(name, &verts);
            cur.skip_ws();
            cur.eat(b',');
        }
        Ok(b.build_allow_isolated())
    }

    /// What a generated text gets wrong, if anything.
    #[derive(Clone, Copy, Debug, PartialEq)]
    enum Fault {
        None,
        DroppedOpen,
        DroppedClose,
        DuplicateEdgeName,
        RepeatedVertex,
        JunkAfterPeriod,
    }

    /// A random schema as text: `vertices` distinct names over the whole
    /// identifier alphabet, `edges` edges (some of them structural
    /// duplicates of an earlier one), gaps of shuffled whitespace and `%`
    /// comments, commas and the final period present or not — with
    /// `fault` worked into one edge.
    fn random_text(seed: u64, vertices: usize, edges: usize, fault: Fault) -> String {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        const ALPHABET: &[u8] = b"abcXYZ019_'-";
        let mut rng = SmallRng::seed_from_u64(seed);
        let fresh_names = |rng: &mut SmallRng, count: usize| {
            let mut names: Vec<String> = Vec::new();
            while names.len() < count {
                let len = rng.gen_range(1..=5);
                let name: String = (0..len)
                    .map(|_| ALPHABET[rng.gen_range(0..ALPHABET.len())] as char)
                    .collect();
                if !names.contains(&name) {
                    names.push(name);
                }
            }
            names
        };
        let vertex_names = fresh_names(&mut rng, vertices);
        let edge_names = fresh_names(&mut rng, edges);
        let mut lists: Vec<Vec<usize>> = Vec::new();
        let mut unused = 0;
        for e in 0..edges {
            if e > 0 && rng.gen_bool(0.2) {
                let copy = lists[rng.gen_range(0..e)].clone();
                lists.push(copy);
                continue;
            }
            let mut list: Vec<usize> = Vec::new();
            for _ in 0..rng.gen_range(1..=vertices.min(8)) {
                let v = if unused < vertices && rng.gen_bool(0.7) {
                    unused += 1;
                    unused - 1
                } else {
                    rng.gen_range(0..vertices)
                };
                if !list.contains(&v) {
                    list.push(v);
                }
            }
            lists.push(list);
        }
        let gap = |rng: &mut SmallRng, out: &mut String| {
            for _ in 0..rng.gen_range(0..3) {
                match rng.gen_range(0..6) {
                    0 => out.push(' '),
                    1 => out.push('\t'),
                    2 => out.push('\n'),
                    3 => out.push_str("\r\n"),
                    4 => out.push_str("% e(a, b). '-_\n"),
                    _ => out.push_str("  "),
                }
            }
        };
        // A duplicated name needs an earlier edge to take it from.
        let faulty = rng.gen_range(0..edges).max(1);
        let mut out = String::new();
        for (e, list) in lists.iter().enumerate() {
            let hit = |f: Fault| fault == f && e == faulty;
            gap(&mut rng, &mut out);
            if hit(Fault::DuplicateEdgeName) {
                out.push_str(&edge_names[rng.gen_range(0..e)]);
            } else {
                out.push_str(&edge_names[e]);
            }
            gap(&mut rng, &mut out);
            if !hit(Fault::DroppedOpen) {
                out.push('(');
            }
            for (i, &v) in list.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                gap(&mut rng, &mut out);
                out.push_str(&vertex_names[v]);
                gap(&mut rng, &mut out);
            }
            if hit(Fault::RepeatedVertex) {
                out.push(',');
                out.push_str(&vertex_names[list[rng.gen_range(0..list.len())]]);
            }
            if !hit(Fault::DroppedClose) {
                out.push(')');
            }
            // Without its comma the next name needs a gap of its own.
            if rng.gen_bool(0.7) {
                gap(&mut rng, &mut out);
                out.push(',');
            } else {
                out.push('\n');
            }
        }
        gap(&mut rng, &mut out);
        if fault == Fault::JunkAfterPeriod {
            out.push_str(". junk");
        } else if rng.gen_bool(0.5) {
            out.push('.');
            gap(&mut rng, &mut out);
        }
        out
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(256))]

        /// One scanner, pinned to the old parser: on well-formed texts
        /// the scan's canonical form and hash are the built hypergraph's
        /// and the built hypergraph is the old parser's; on malformed
        /// ones all three fail with the same error at the same offset.
        #[test]
        fn the_scan_agrees_with_the_reference_parser(
            seed in 0u64..1_000_000,
            vertices in 1usize..200,
            edges in 2usize..60,
            fault in 0usize..12,
        ) {
            use crate::cache::{canonical_form, structural_hash};
            let fault = match fault {
                0 => Fault::DroppedOpen,
                1 => Fault::DroppedClose,
                2 => Fault::DuplicateEdgeName,
                3 => Fault::RepeatedVertex,
                4 => Fault::JunkAfterPeriod,
                _ => Fault::None,
            };
            let text = random_text(seed, vertices, edges, fault);
            let reference = reference_parse(&text);
            match scan_hypergraph(&text) {
                Ok(scan) => {
                    proptest::prop_assert!(fault == Fault::None, "{fault:?} scanned: {text:?}");
                    let old = reference.expect("the reference accepts what the scan accepts");
                    let h = parse_hypergraph(&text).expect("scan, then build");
                    let canon = scan.canonical_form();
                    proptest::prop_assert_eq!(&canon, &canonical_form(&h));
                    proptest::prop_assert_eq!(&canon, &canonical_form(&old));
                    proptest::prop_assert_eq!(crate::fxhash::hash_u64s(&canon), structural_hash(&h));
                    proptest::prop_assert_eq!(scan.num_vertices(), old.num_vertices());
                    proptest::prop_assert_eq!(scan.num_edges(), old.num_edges());
                    proptest::prop_assert_eq!(render_hypergraph(&h), render_hypergraph(&old));
                    for v in 0..old.num_vertices() {
                        proptest::prop_assert_eq!(h.vertex_name(v), old.vertex_name(v));
                    }
                }
                Err(e) => {
                    proptest::prop_assert!(fault != Fault::None, "{e}: {text:?}");
                    proptest::prop_assert_eq!(Some(&e), reference.as_ref().err(), "{:?}", text);
                    proptest::prop_assert_eq!(Some(e), parse_hypergraph(&text).err());
                }
            }
        }
    }
}
