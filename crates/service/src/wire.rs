//! The service wire format: newline-framed requests and responses.
//!
//! Every frame is a header line, zero or more body lines, and a `%%`
//! terminator line. Body lines beginning with `%` (HyperBench comments)
//! are *stuffed* on the wire — the encoder prefixes them with `% ` and
//! the reader strips it — so no schema content, not even a comment line
//! that is literally `%%`, can collide with the terminator. The format
//! is human-typable (`nc` is a usable client; just don't start typed
//! body lines with a bare `%`) but the decomposition payload is
//! machine-dense: a witness travels as softhw-core's [`TdFrame`], a flat
//! framing of deduplicated **bag words** (an [`ArenaSnapshot`] — every
//! distinct bag once, `words_per_bag` `u64`s back to back in id order,
//! hex on the wire) plus a **node table** of `(parent, bag-id)` pairs in
//! preorder. The arena's dense `u32` ids do all the work: nodes
//! reference bags by index, equal bags are framed once, and decoding is
//! two linear passes with no name resolution.
//!
//! This module is the frame's **text codec only**. The frame itself,
//! framing a decomposition ([`TdFrame::from_td`]) and rebuilding one
//! ([`TdFrame::to_td`]) live in `softhw_core::td`, shared with the
//! persistent store, so wire witnesses and stored witnesses go through
//! one decoder. The text decoder trusts no count in a `TD` header: it
//! allocates only what the lines present can fill.
//!
//! This is protocol revision [`PROTOCOL_VERSION`] (`V1`). The version
//! is advertised through the opt-in `HELLO` verb — a zero-body request
//! answered with `OK HELLO proto=V1 verbs=…` — rather than an
//! unsolicited banner, so pre-`V1` clients that write a request and
//! read exactly one response never desynchronise. Future verbs gate on
//! the advertised set.
//!
//! ```text
//! request  := header-line body-line* "%%"
//! header   := class-tokens ["DEADLINE" ms] ["sql"]
//! class    := "SHW"
//!           | "SHW_LEQ" k
//!           | "HW" | "HW_LEQ" k
//!           | "BEST" eval k                  eval ∈ trivial|concov|shallow:<d>
//!           | "STATS" ["SLOW"]               — SLOW dumps the slow-query log
//!           | "HELLO"                        — protocol/verb discovery
//!           | "METRICS"                      — Prometheus-style exposition
//! body     := HyperBench schema text, or (with "sql") a SQL query
//!
//! batch    := "BATCH" n ["DEADLINE" ms] item*n "%%"
//! item     := "@" class-tokens ["sql"] "lines=" m body-line*m
//!
//! response := ("OK" class key=value* | "ERR" kind message
//!              | "TIMEOUT" | "BUSY" retry-after-ms) td-frame? "%%"
//! metrics  := "OK METRICS" exposition-line* "%%"   — text/plain samples
//! slowresp := "OK SLOW" "lines=" n slow-line*n "%%"
//! batchresp:= "OK BATCH" "n=" k ("@ lines=" m response-lines*m)*k "%%"
//! td-frame := "TD" nodes=<n> bags=<b> universe=<u> words=<w>
//!             ("A" hex-word{w})*b        — bag words, id = line order
//!             ("N" (parent|"-") bag-id)*n — preorder node table
//! ```
//!
//! A `BATCH n` frame carries `n` requests (each an `@` item whose body
//! spans exactly the declared `lines=<m>` following lines — counted
//! scoping, so no separator can collide with schema text) and is
//! answered by **one** `OK BATCH` frame containing the `n` sub-responses
//! in request order. Stripping the `OK BATCH n=…` header and the
//! `@ lines=…` separators from a batch response yields byte-for-byte
//! the concatenation of the `n` single-request responses minus their
//! `%%` terminators. The whole batch shares a single `DEADLINE` budget
//! (per-item deadlines are not permitted); a budget that trips mid-batch
//! answers the remaining items `TIMEOUT`.
//!
//! `DEADLINE <ms>` caps the server-side compute time of the request: a
//! request whose solve outlives its deadline is answered with a bare
//! `TIMEOUT` frame (the worker aborts cooperatively and its caches stay
//! warm and consistent — a retry is safe and by-construction
//! bit-identical). `BUSY <retry-after-ms>` is overload shedding: the
//! server's bounded work queue is full, nothing was computed, and the
//! client should back off for roughly the hinted milliseconds before
//! retrying (`softhw-cli --connect` does this automatically).
//!
//! `STATS` responses are an open `key=value` set: servers may add rows
//! (per-stripe load/evictions, result-cache and store counters — see
//! `state.rs`) and clients must parse fields they do not recognise
//! generically. The decoder here does exactly that, which is what keeps
//! the frame backward-parseable as the set grows.

use softhw_core::TdFrame;
use softhw_hypergraph::ArenaSnapshot;
use std::fmt::Write as _;
use std::io::{self, BufRead};

/// Hard ceiling on body lines per frame (a malformed or hostile client
/// must not make the server buffer unboundedly).
pub const MAX_FRAME_LINES: usize = 100_000;
/// Hard ceiling on a single frame line's byte length.
pub const MAX_LINE_BYTES: usize = 1 << 20;
/// The protocol revision this codec speaks, advertised by `OK HELLO`.
pub const PROTOCOL_VERSION: &str = "V1";
/// The verbs this protocol revision serves, advertised by `OK HELLO`
/// (comma-separated, stable order). Clients gate new verbs on this set
/// instead of probing with requests that older servers reject.
pub const PROTOCOL_VERBS: &str = "SHW,SHW_LEQ,HW,HW_LEQ,BEST,STATS,BATCH,HELLO,METRICS";

/// A malformed frame (decode-side).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireError {
    /// What was malformed.
    pub message: String,
}

impl WireError {
    fn new(message: impl Into<String>) -> Self {
        WireError {
            message: message.into(),
        }
    }
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "malformed frame: {}", self.message)
    }
}

impl std::error::Error for WireError {}

/// Preference evaluator selector of a `BEST` request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EvalKind {
    /// Any CTD (Algorithm 1 through the Algorithm 2 engine).
    Trivial,
    /// `ConCov`: every bag has a connected edge cover of size ≤ k.
    ConCov,
    /// `ShallowCyc_d`: cyclic bags only within depth `d`; prefers
    /// shallower cyclicity.
    Shallow(i64),
}

impl EvalKind {
    /// The wire token of the evaluator (`trivial`, `concov`,
    /// `shallow:<d>`).
    pub fn token(&self) -> String {
        match self {
            EvalKind::Trivial => "trivial".into(),
            EvalKind::ConCov => "concov".into(),
            EvalKind::Shallow(d) => format!("shallow:{d}"),
        }
    }

    fn parse(tok: &str) -> Result<EvalKind, WireError> {
        if tok == "trivial" {
            return Ok(EvalKind::Trivial);
        }
        if tok == "concov" {
            return Ok(EvalKind::ConCov);
        }
        if let Some(d) = tok.strip_prefix("shallow:") {
            let d: i64 = d
                .parse()
                .map_err(|_| WireError::new(format!("bad shallow depth {d:?}")))?;
            return Ok(EvalKind::Shallow(d));
        }
        Err(WireError::new(format!("unknown evaluator {tok:?}")))
    }
}

/// What a request asks of the service.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RequestClass {
    /// Exact `shw` with witness.
    Shw,
    /// Decide `shw ≤ k`, witness on accept.
    ShwLeq(usize),
    /// Exact `hw` with witness.
    Hw,
    /// Decide `hw ≤ k`, witness on accept.
    HwLeq(usize),
    /// Algorithm 2: best CTD over `Soft_{H,k}` under an evaluator.
    Best(EvalKind, usize),
    /// Structural + cache statistics, no decomposition.
    Stats,
    /// Slow-query log dump (`STATS SLOW`): no body, answered with the
    /// span trees of recent requests that exceeded `--slow-ms`.
    Slow,
    /// Protocol discovery: no body, answered `OK HELLO proto=… verbs=…`.
    Hello,
    /// Metrics exposition: no body, answered with a Prometheus-style
    /// text exposition assembled from the service metric registry.
    Metrics,
}

impl RequestClass {
    /// The wire name of the class (also used in `OK` response headers).
    pub fn name(&self) -> &'static str {
        match self {
            RequestClass::Shw => "SHW",
            RequestClass::ShwLeq(_) => "SHW_LEQ",
            RequestClass::Hw => "HW",
            RequestClass::HwLeq(_) => "HW_LEQ",
            RequestClass::Best(..) => "BEST",
            RequestClass::Stats => "STATS",
            RequestClass::Slow => "SLOW",
            RequestClass::Hello => "HELLO",
            RequestClass::Metrics => "METRICS",
        }
    }

    /// The class tokens as they appear on a header line (name plus any
    /// width/evaluator arguments).
    fn tokens(&self) -> String {
        match self {
            RequestClass::ShwLeq(k) | RequestClass::HwLeq(k) => format!("{} {k}", self.name()),
            RequestClass::Best(eval, k) => format!("BEST {} {k}", eval.token()),
            // SLOW is an argument of the STATS verb, not a verb itself.
            RequestClass::Slow => "STATS SLOW".to_string(),
            _ => self.name().to_string(),
        }
    }
}

/// How the request body encodes the schema.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BodyFormat {
    /// HyperBench plain-text hypergraph (the default).
    #[default]
    HyperBench,
    /// A SQL query; the schema is its query hypergraph (ast-format).
    Sql,
}

/// The verb of a request header line: either an ordinary request class
/// or the `BATCH n` envelope.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HeaderVerb {
    /// A single-request class (`SHW`, `HW_LEQ k`, `STATS`, …).
    Class(RequestClass),
    /// A batch envelope carrying `n` sub-requests.
    Batch(usize),
}

/// A parsed request header line — the one grammar shared by the
/// single-request and `BATCH` decode paths on the server and by the
/// client-side encoders: `verb`, then an optional `DEADLINE <ms>`
/// (accepted at any token position), then an optional trailing `sql`
/// body-format marker.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RequestHeader {
    /// What the frame asks for.
    pub verb: HeaderVerb,
    /// Per-request (or per-batch) compute deadline in milliseconds.
    pub deadline_ms: Option<u64>,
    /// How the body is encoded.
    pub format: BodyFormat,
}

impl RequestHeader {
    /// Parses a header line (or the class tokens of a `BATCH` item):
    /// `DEADLINE <ms>` is taken out first, then a trailing `sql`, and a
    /// token the verb does not place is an error.
    pub fn parse(line: &str) -> Result<RequestHeader, WireError> {
        let mut toks: Vec<&str> = line.split_whitespace().collect();
        let deadline_ms = match toks.iter().position(|&t| t == "DEADLINE") {
            Some(pos) => {
                let Some(&ms_tok) = toks.get(pos + 1) else {
                    return Err(WireError::new("DEADLINE without milliseconds"));
                };
                let ms: u64 = ms_tok
                    .parse()
                    .map_err(|_| WireError::new(format!("bad deadline {ms_tok:?}")))?;
                toks.drain(pos..pos + 2);
                Some(ms)
            }
            None => None,
        };
        let format = if toks.last() == Some(&"sql") {
            toks.pop();
            BodyFormat::Sql
        } else {
            BodyFormat::HyperBench
        };
        let parse_k = |tok: Option<&&str>| -> Result<usize, WireError> {
            let tok = tok.ok_or_else(|| WireError::new("missing width argument"))?;
            tok.parse()
                .map_err(|_| WireError::new(format!("bad width {tok:?}")))
        };
        // The verb, and how many tokens it places (itself included).
        let (verb, placed) = match toks.first().copied() {
            Some("SHW") => (HeaderVerb::Class(RequestClass::Shw), 1),
            Some("SHW_LEQ") => {
                let k = parse_k(toks.get(1))?;
                (HeaderVerb::Class(RequestClass::ShwLeq(k)), 2)
            }
            Some("HW") => (HeaderVerb::Class(RequestClass::Hw), 1),
            Some("HW_LEQ") => {
                let k = parse_k(toks.get(1))?;
                (HeaderVerb::Class(RequestClass::HwLeq(k)), 2)
            }
            Some("BEST") => {
                let eval = EvalKind::parse(
                    toks.get(1)
                        .ok_or_else(|| WireError::new("missing evaluator"))?,
                )?;
                let k = parse_k(toks.get(2))?;
                (HeaderVerb::Class(RequestClass::Best(eval, k)), 3)
            }
            Some("STATS") => {
                // `STATS SLOW` selects the slow-query log dump; the SLOW
                // token is an argument of STATS (like a width `k`), not
                // a protocol verb of its own.
                if toks.get(1).copied().is_some_and(|t| t == "SLOW") {
                    (HeaderVerb::Class(RequestClass::Slow), 2)
                } else {
                    (HeaderVerb::Class(RequestClass::Stats), 1)
                }
            }
            Some("HELLO") => (HeaderVerb::Class(RequestClass::Hello), 1),
            Some("METRICS") => (HeaderVerb::Class(RequestClass::Metrics), 1),
            Some("BATCH") => {
                let n = toks
                    .get(1)
                    .ok_or_else(|| WireError::new("BATCH without a count"))?;
                let n: usize = n
                    .parse()
                    .map_err(|_| WireError::new(format!("bad batch count {n:?}")))?;
                (HeaderVerb::Batch(n), 2)
            }
            other => return Err(WireError::new(format!("unknown request class {other:?}"))),
        };
        if let Some(extra) = toks.get(placed) {
            return Err(WireError::new(format!("unexpected token {extra:?}")));
        }
        Ok(RequestHeader {
            verb,
            deadline_ms,
            format,
        })
    }

    /// Serialises the header line (no trailing newline).
    pub fn encode(&self) -> String {
        let mut out = match self.verb {
            HeaderVerb::Class(class) => class.tokens(),
            HeaderVerb::Batch(n) => format!("BATCH {n}"),
        };
        if let Some(ms) = self.deadline_ms {
            let _ = write!(out, " DEADLINE {ms}");
        }
        if self.format == BodyFormat::Sql {
            out.push_str(" sql");
        }
        out
    }
}

/// One service request: a class plus the schema body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// What to compute.
    pub class: RequestClass,
    /// How to read the body.
    pub format: BodyFormat,
    /// Per-request compute deadline in milliseconds (`DEADLINE <ms>` on
    /// the wire); `None` defers to the server's `--default-deadline`.
    pub deadline_ms: Option<u64>,
    /// The schema text (HyperBench or SQL).
    pub body: String,
}

impl Request {
    /// A HyperBench-format request.
    pub fn new(class: RequestClass, body: impl Into<String>) -> Request {
        Request {
            class,
            format: BodyFormat::HyperBench,
            deadline_ms: None,
            body: body.into(),
        }
    }

    /// Serialises the request frame (including the terminator).
    pub fn encode(&self) -> String {
        let header = RequestHeader {
            verb: HeaderVerb::Class(self.class),
            deadline_ms: self.deadline_ms,
            format: self.format,
        };
        let mut out = header.encode();
        out.push('\n');
        push_stuffed_body(&mut out, &self.body);
        out.push_str("%%\n");
        out
    }

    /// Decodes a request from frame lines (header first, no terminator).
    pub fn decode(lines: &[String]) -> Result<Request, WireError> {
        Request::after_header(parse_first_line(lines)?, lines)
    }

    /// The request of a frame whose header line is already parsed.
    fn after_header(header: RequestHeader, lines: &[String]) -> Result<Request, WireError> {
        let HeaderVerb::Class(class) = header.verb else {
            return Err(WireError::new(
                "BATCH envelope where a single request was expected",
            ));
        };
        Ok(Request {
            class,
            format: header.format,
            deadline_ms: header.deadline_ms,
            body: lines.get(1..).unwrap_or(&[]).join("\n"),
        })
    }
}

/// Parses a frame's header line.
fn parse_first_line(lines: &[String]) -> Result<RequestHeader, WireError> {
    let header = lines.first().ok_or_else(|| WireError::new("empty frame"))?;
    RequestHeader::parse(header)
}

/// Appends `body` line by line, stuffing lines that start with '%'
/// (HyperBench comments — including a comment line that is literally
/// `"%%"`) so they can never collide with the bare `%%` frame
/// terminator: on the wire every content line beginning with '%' starts
/// `"% "`, and `read_frame` strips the prefix back off.
fn push_stuffed_body(out: &mut String, body: &str) {
    for line in body.lines() {
        if line.starts_with('%') {
            out.push_str("% ");
        }
        out.push_str(line);
        out.push('\n');
    }
}

/// A `BATCH n` request: `n` sub-requests framed in one frame, answered
/// by one ordered [`Response::Batch`] frame, all solved under a single
/// shared `DEADLINE` budget. Per-item deadlines are rejected — the
/// batch *is* the deadline domain.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchRequest {
    /// The shared compute deadline for the whole batch.
    pub deadline_ms: Option<u64>,
    /// The sub-requests, answered in this order.
    pub items: Vec<Request>,
}

impl BatchRequest {
    /// A batch over the given requests (any per-item deadline is
    /// dropped; set [`BatchRequest::deadline_ms`] for the shared one).
    pub fn new(items: Vec<Request>) -> BatchRequest {
        BatchRequest {
            deadline_ms: None,
            items,
        }
    }

    /// Serialises the batch frame (including the terminator). Each item
    /// is an `@` line carrying the class tokens and the exact body line
    /// count, followed by that many (stuffed) body lines — counted
    /// scoping, so schema content can never be mistaken for a
    /// separator.
    pub fn encode(&self) -> String {
        let header = RequestHeader {
            verb: HeaderVerb::Batch(self.items.len()),
            deadline_ms: self.deadline_ms,
            format: BodyFormat::HyperBench,
        };
        let mut out = header.encode();
        out.push('\n');
        for item in &self.items {
            let item_header = RequestHeader {
                verb: HeaderVerb::Class(item.class),
                deadline_ms: None,
                format: item.format,
            };
            let _ = writeln!(
                out,
                "@ {} lines={}",
                item_header.encode(),
                item.body.lines().count()
            );
            push_stuffed_body(&mut out, &item.body);
        }
        out.push_str("%%\n");
        out
    }

    /// Decodes a batch from frame lines (the `BATCH n` header first, no
    /// terminator).
    pub fn decode(lines: &[String]) -> Result<BatchRequest, WireError> {
        BatchRequest::after_header(parse_first_line(lines)?, lines)
    }

    /// The batch of a frame whose header line is already parsed.
    fn after_header(header: RequestHeader, lines: &[String]) -> Result<BatchRequest, WireError> {
        let HeaderVerb::Batch(n) = header.verb else {
            return Err(WireError::new("expected a BATCH envelope"));
        };
        // Cap the reservation by the frame size: a hostile `BATCH
        // 999999999` header must not pre-allocate for items that cannot
        // possibly be present.
        let mut items = Vec::with_capacity(n.min(lines.len()));
        let mut idx = 1;
        for i in 0..n {
            let item_line = lines
                .get(idx)
                .ok_or_else(|| WireError::new(format!("batch item {i} missing")))?;
            let rest = item_line
                .strip_prefix('@')
                .ok_or_else(|| WireError::new(format!("batch item {i}: expected an @ line")))?;
            let mut toks: Vec<&str> = rest.split_whitespace().collect();
            let m: usize = match toks.last().and_then(|t| t.strip_prefix("lines=")) {
                Some(m) => m
                    .parse()
                    .map_err(|_| WireError::new(format!("batch item {i}: bad line count")))?,
                None => {
                    return Err(WireError::new(format!(
                        "batch item {i}: missing lines= count"
                    )))
                }
            };
            toks.pop();
            let item_header = RequestHeader::parse(&toks.join(" "))?;
            let HeaderVerb::Class(class) = item_header.verb else {
                return Err(WireError::new(format!("batch item {i}: nested BATCH")));
            };
            if item_header.deadline_ms.is_some() {
                return Err(WireError::new(format!(
                    "batch item {i}: DEADLINE inside a batch item (use the batch header)"
                )));
            }
            let body_end = idx + 1 + m;
            if body_end > lines.len() {
                return Err(WireError::new(format!(
                    "batch item {i}: declared {m} body lines, frame has fewer"
                )));
            }
            items.push(Request {
                class,
                format: item_header.format,
                deadline_ms: None,
                body: lines.get(idx + 1..body_end).unwrap_or(&[]).join("\n"),
            });
            idx = body_end;
        }
        if idx != lines.len() {
            return Err(WireError::new("trailing lines after the last batch item"));
        }
        Ok(BatchRequest {
            deadline_ms: header.deadline_ms,
            items,
        })
    }
}

/// Any decodable request frame: a single request or a batch envelope.
/// This is what the server's dispatch decodes; clients encode the
/// variants directly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireRequest {
    /// An ordinary single request.
    Single(Request),
    /// A `BATCH n` envelope.
    Batch(BatchRequest),
}

impl WireRequest {
    /// Decodes either frame kind by dispatching on the header verb; the
    /// header line is parsed once.
    pub fn decode(lines: &[String]) -> Result<WireRequest, WireError> {
        let header = parse_first_line(lines)?;
        match header.verb {
            HeaderVerb::Batch(_) => Ok(WireRequest::Batch(BatchRequest::after_header(
                header, lines,
            )?)),
            HeaderVerb::Class(_) => Ok(WireRequest::Single(Request::after_header(header, lines)?)),
        }
    }
}

/// Writes `frame` as its `TD` header, `A` bag-word lines and `N` node
/// lines.
fn encode_frame(frame: &TdFrame, out: &mut String) {
    let _ = writeln!(
        out,
        "TD nodes={} bags={} universe={} words={}",
        frame.nodes.len(),
        frame.snapshot.len(),
        frame.universe,
        frame.snapshot.words_per_bag()
    );
    for i in 0..frame.snapshot.len() {
        out.push('A');
        for w in frame.snapshot.words(i) {
            let _ = write!(out, " {w:016x}");
        }
        out.push('\n');
    }
    for &(parent, bag) in &frame.nodes {
        let _ = match parent {
            Some(p) => writeln!(out, "N {p} {bag}"),
            None => writeln!(out, "N - {bag}"),
        };
    }
}

/// Decodes a frame from its lines (the `TD` header plus `A`/`N` lines).
/// It accepts exactly the spelling [`encode_frame`] writes, so a frame
/// that decodes re-encodes byte-identically. The header's counts are
/// claims, not sizes: nothing is allocated for more than the lines
/// actually present can fill.
fn decode_frame(lines: &[String]) -> Result<TdFrame, WireError> {
    let header = lines
        .first()
        .ok_or_else(|| WireError::new("missing TD header"))?;
    let toks: Vec<&str> = header.split(' ').collect();
    let ["TD", nodes_tok, bags_tok, universe_tok, words_tok] = toks[..] else {
        return Err(WireError::new(format!("bad TD header {header:?}")));
    };
    let field = |tok: &str, key: &str| -> Result<usize, WireError> {
        tok.strip_prefix(key)
            .and_then(|value| value.strip_prefix('='))
            .and_then(decimal)
            .ok_or_else(|| WireError::new(format!("bad TD field {tok:?}, expected {key}=<n>")))
    };
    let nodes_n = field(nodes_tok, "nodes")?;
    let bags_n = field(bags_tok, "bags")?;
    let universe = field(universe_tok, "universe")?;
    let words = field(words_tok, "words")?;
    if words != universe.div_ceil(64).max(1) {
        return Err(WireError::new("TD word width disagrees with universe"));
    }
    let (bag_lines, node_lines) = lines
        .get(1..)
        .and_then(|body| body.split_at_checked(bags_n))
        .filter(|(_, node_lines)| node_lines.len() == nodes_n)
        .ok_or_else(|| WireError::new("TD frame line count mismatch"))?;
    // A word token is 16 digits and a separator, so the bag lines hold
    // at most that many words, whatever `bags × words` claims.
    let fillable: usize = bag_lines.iter().map(|line| line.len() / 17).sum();
    let mut storage = Vec::with_capacity(bags_n.saturating_mul(words).min(fillable));
    for line in bag_lines {
        let mut toks = line.split(' ');
        if toks.next() != Some("A") {
            return Err(WireError::new("expected bag line"));
        }
        let mut count = 0;
        for t in toks {
            let w = word(t).ok_or_else(|| WireError::new(format!("bad bag word {t:?}")))?;
            storage.push(w);
            count += 1;
        }
        if count != words {
            return Err(WireError::new("bag line with wrong word count"));
        }
    }
    let mut nodes = Vec::with_capacity(nodes_n);
    for line in node_lines {
        let toks: Vec<&str> = line.split(' ').collect();
        let ["N", parent_tok, bag_tok] = toks[..] else {
            return Err(WireError::new("expected node line"));
        };
        let parent = match parent_tok {
            "-" => None,
            _ => Some(
                decimal(parent_tok)
                    .ok_or_else(|| WireError::new(format!("bad parent {parent_tok:?}")))?,
            ),
        };
        let bag =
            decimal(bag_tok).ok_or_else(|| WireError::new(format!("bad bag id {bag_tok:?}")))?;
        nodes.push((parent, bag));
    }
    Ok(TdFrame {
        universe,
        snapshot: ArenaSnapshot { universe, storage },
        nodes,
    })
}

/// Parses a decimal in the one spelling `{}` writes: digits only, and
/// no leading zero.
fn decimal<T: std::str::FromStr>(tok: &str) -> Option<T> {
    let canonical =
        tok.bytes().all(|b| b.is_ascii_digit()) && (tok == "0" || !tok.starts_with('0'));
    canonical.then(|| tok.parse().ok()).flatten()
}

/// Parses a bag word in the one spelling `{:016x}` writes.
fn word(tok: &str) -> Option<u64> {
    let canonical = tok.len() == 16 && tok.bytes().all(|b| matches!(b, b'0'..=b'9' | b'a'..=b'f'));
    canonical
        .then(|| u64::from_str_radix(tok, 16).ok())
        .flatten()
}

/// One service response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    /// Exact width (SHW / HW) with witness.
    Width {
        /// The request class name (`SHW` or `HW`).
        class: String,
        /// The computed width.
        width: usize,
        /// The witness decomposition.
        td: TdFrame,
    },
    /// A `≤ k` decision (SHW_LEQ / HW_LEQ / BEST), witness on accept.
    Decision {
        /// The request class name.
        class: String,
        /// Extra `key=value` fields (e.g. `eval`, `cost`).
        fields: Vec<(String, String)>,
        /// The width asked about.
        k: usize,
        /// The witness, present iff the answer is yes.
        td: Option<TdFrame>,
    },
    /// Statistics (`STATS`), flat `key=value` fields.
    Stats {
        /// The fields, in emission order.
        fields: Vec<(String, String)>,
    },
    /// The request's compute deadline expired before an answer was
    /// reached; the server's caches stay warm and a retry is safe.
    Timeout,
    /// The server shed the request before doing any work (bounded work
    /// queue full); the client should back off and retry.
    Busy {
        /// Suggested backoff before retrying, in milliseconds.
        retry_after_ms: u64,
    },
    /// The request failed; `kind` is one of `parse`, `request`, `limit`,
    /// `internal`.
    Error {
        /// Failure category.
        kind: String,
        /// Human-readable detail (single line).
        message: String,
    },
    /// Protocol discovery (`HELLO`): flat `key=value` fields, at least
    /// `proto` and `verbs`.
    Hello {
        /// The fields, in emission order.
        fields: Vec<(String, String)>,
    },
    /// Metrics exposition (`METRICS`): Prometheus-style text samples,
    /// one per line, passed through verbatim (no line starts with `%`,
    /// so the framing never needs stuffing).
    Metrics {
        /// The exposition lines, in emission order.
        lines: Vec<String>,
    },
    /// Slow-query log dump (`STATS SLOW`): rendered span trees of recent
    /// requests that exceeded the server's `--slow-ms` threshold.
    Slow {
        /// The rendered entries (header + indented span lines each).
        lines: Vec<String>,
    },
    /// The ordered sub-responses of a `BATCH` request.
    Batch {
        /// One response per batch item, in request order.
        responses: Vec<Response>,
    },
}

impl Response {
    /// An error response with a sanitised single-line message.
    pub fn error(kind: &str, message: impl std::fmt::Display) -> Response {
        Response::Error {
            kind: kind.to_string(),
            message: message.to_string().replace('\n', " "),
        }
    }

    /// The `OK HELLO` frame this server revision answers with.
    pub fn hello() -> Response {
        Response::Hello {
            fields: vec![
                ("proto".to_string(), PROTOCOL_VERSION.to_string()),
                ("verbs".to_string(), PROTOCOL_VERBS.to_string()),
            ],
        }
    }

    /// Serialises the response frame (including the terminator).
    pub fn encode(&self) -> String {
        let mut out = String::new();
        match self {
            Response::Width { class, width, td } => {
                let _ = writeln!(out, "OK {class} width={width}");
                encode_frame(td, &mut out);
            }
            Response::Decision {
                class,
                fields,
                k,
                td,
            } => {
                let _ = write!(out, "OK {class} k={k}");
                for (key, value) in fields {
                    let _ = write!(out, " {key}={value}");
                }
                let _ = writeln!(out, " answer={}", if td.is_some() { "yes" } else { "no" });
                if let Some(td) = td {
                    encode_frame(td, &mut out);
                }
            }
            Response::Stats { fields } => {
                out.push_str("OK STATS");
                for (key, value) in fields {
                    let _ = write!(out, " {key}={value}");
                }
                out.push('\n');
            }
            Response::Timeout => {
                out.push_str("TIMEOUT\n");
            }
            Response::Busy { retry_after_ms } => {
                let _ = writeln!(out, "BUSY {retry_after_ms}");
            }
            Response::Error { kind, message } => {
                let _ = writeln!(out, "ERR {kind} {message}");
            }
            Response::Hello { fields } => {
                out.push_str("OK HELLO");
                for (key, value) in fields {
                    let _ = write!(out, " {key}={value}");
                }
                out.push('\n');
            }
            Response::Metrics { lines } => {
                out.push_str("OK METRICS\n");
                for line in lines {
                    let _ = writeln!(out, "{line}");
                }
            }
            Response::Slow { lines } => {
                let _ = writeln!(out, "OK SLOW lines={}", lines.len());
                for line in lines {
                    let _ = writeln!(out, "{line}");
                }
            }
            Response::Batch { responses } => {
                let frames: Vec<String> = responses.iter().map(Response::encode).collect();
                return encode_batch(&frames);
            }
        }
        out.push_str("%%\n");
        out
    }

    /// Decodes a response from frame lines (no terminator).
    pub fn decode(lines: &[String]) -> Result<Response, WireError> {
        let header = lines.first().ok_or_else(|| WireError::new("empty frame"))?;
        if header.trim_end() == "TIMEOUT" {
            return Ok(Response::Timeout);
        }
        if let Some(rest) = header.strip_prefix("BUSY ") {
            let retry_after_ms: u64 = rest
                .trim()
                .parse()
                .map_err(|_| WireError::new(format!("bad BUSY backoff {rest:?}")))?;
            return Ok(Response::Busy { retry_after_ms });
        }
        if let Some(rest) = header.strip_prefix("ERR ") {
            let (kind, message) = rest.split_once(' ').unwrap_or((rest, ""));
            return Ok(Response::Error {
                kind: kind.to_string(),
                message: message.to_string(),
            });
        }
        let rest = header
            .strip_prefix("OK ")
            .ok_or_else(|| WireError::new(format!("bad response header {header:?}")))?;
        let mut toks = rest.split_whitespace();
        let class = toks
            .next()
            .ok_or_else(|| WireError::new("missing response class"))?
            .to_string();
        let mut fields: Vec<(String, String)> = Vec::new();
        for tok in toks {
            let (key, value) = tok
                .split_once('=')
                .ok_or_else(|| WireError::new(format!("bad response field {tok:?}")))?;
            fields.push((key.to_string(), value.to_string()));
        }
        let take = |fields: &mut Vec<(String, String)>, key: &str| -> Option<String> {
            let pos = fields.iter().position(|(k2, _)| k2 == key)?;
            Some(fields.remove(pos).1)
        };
        if class == "STATS" {
            return Ok(Response::Stats { fields });
        }
        if class == "HELLO" {
            return Ok(Response::Hello { fields });
        }
        if class == "METRICS" {
            return Ok(Response::Metrics {
                lines: lines.get(1..).unwrap_or(&[]).to_vec(),
            });
        }
        if class == "SLOW" {
            return Ok(Response::Slow {
                lines: lines.get(1..).unwrap_or(&[]).to_vec(),
            });
        }
        if class == "BATCH" {
            let n: usize = take(&mut fields, "n")
                .ok_or_else(|| WireError::new("missing batch count"))?
                .parse()
                .map_err(|_| WireError::new("bad batch count"))?;
            let mut responses = Vec::with_capacity(n.min(lines.len()));
            let mut idx = 1;
            for i in 0..n {
                let sep = lines
                    .get(idx)
                    .ok_or_else(|| WireError::new(format!("batch response {i} missing")))?;
                let m: usize = sep
                    .strip_prefix("@ lines=")
                    .ok_or_else(|| {
                        WireError::new(format!("batch response {i}: expected @ lines="))
                    })?
                    .parse()
                    .map_err(|_| WireError::new(format!("batch response {i}: bad line count")))?;
                let body_end = idx + 1 + m;
                if body_end > lines.len() {
                    return Err(WireError::new(format!(
                        "batch response {i}: declared {m} lines, frame has fewer"
                    )));
                }
                responses.push(Response::decode(
                    lines.get(idx + 1..body_end).unwrap_or(&[]),
                )?);
                idx = body_end;
            }
            if idx != lines.len() {
                return Err(WireError::new(
                    "trailing lines after the last batch response",
                ));
            }
            return Ok(Response::Batch { responses });
        }
        if class == "SHW" || class == "HW" {
            let width: usize = take(&mut fields, "width")
                .ok_or_else(|| WireError::new("missing width"))?
                .parse()
                .map_err(|_| WireError::new("bad width"))?;
            let td = decode_frame(lines.get(1..).unwrap_or(&[]))?;
            return Ok(Response::Width { class, width, td });
        }
        let k: usize = take(&mut fields, "k")
            .ok_or_else(|| WireError::new("missing k"))?
            .parse()
            .map_err(|_| WireError::new("bad k"))?;
        let answer = take(&mut fields, "answer").ok_or_else(|| WireError::new("missing answer"))?;
        let td = match answer.as_str() {
            "yes" => Some(decode_frame(lines.get(1..).unwrap_or(&[]))?),
            "no" => None,
            other => return Err(WireError::new(format!("bad answer {other:?}"))),
        };
        Ok(Response::Decision {
            class,
            fields,
            k,
            td,
        })
    }
}

/// The `OK BATCH` frame around already-encoded item frames, in item
/// order: the one envelope writer, behind [`Response::encode`] and the
/// server alike. An item is its ordinary frame minus the `%%`
/// terminator, under an `@ lines=<m>` separator, so stripping the
/// envelope lines yields the exact concatenation of the single-request
/// frames (minus terminators), which is what the CI replay diffs
/// against.
pub(crate) fn encode_batch(frames: &[String]) -> String {
    let mut out = String::with_capacity(frames.iter().map(|f| f.len() + 16).sum());
    let _ = writeln!(out, "OK BATCH n={}", frames.len());
    for frame in frames {
        // Every frame ends with the terminator; if that invariant ever
        // broke, framing the whole frame is still well-formed (the count
        // line is derived from the body actually written).
        let body = frame.strip_suffix("%%\n").unwrap_or(frame);
        let _ = writeln!(out, "@ lines={}", body.lines().count());
        out.push_str(body);
    }
    out.push_str("%%\n");
    out
}

/// Reads one frame's lines (header through the line before `%%`) off a
/// blocking reader: a [`FrameDecoder`] fed one line at a time, so
/// nothing past the frame's terminator is consumed — a pipelined stream
/// can be read frame by frame. Returns `Ok(None)` on clean EOF before
/// any byte of a frame, an error mid-frame. A line is handed over in
/// chunks of at most the reader's own buffer, so the decoder's caps hold
/// *during* the read: a peer streaming newline-free garbage cannot grow
/// memory past [`MAX_LINE_BYTES`] plus one buffer.
pub fn read_frame(reader: &mut impl BufRead) -> io::Result<Option<Vec<String>>> {
    let mut decoder = FrameDecoder::new();
    let mut frames = Vec::new();
    loop {
        let buf = reader.fill_buf()?;
        if buf.is_empty() {
            if decoder.mid_frame() {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "EOF mid-frame",
                ));
            }
            return Ok(None);
        }
        let line_end = buf.iter().position(|&b| b == b'\n');
        let fed = line_end.map_or(buf.len(), |nl| nl + 1);
        decoder.push(buf.get(..fed).unwrap_or(buf), &mut frames)?;
        reader.consume(fed);
        if let Some(frame) = frames.pop() {
            return Ok(Some(frame));
        }
    }
}

/// The framing grammar, written once: the `%%` terminator, `% `
/// un-stuffing (see [`Request::encode`]), `\r\n` tolerance, and the
/// [`MAX_LINE_BYTES`] / [`MAX_FRAME_LINES`] caps. An incremental decoder
/// over raw bytes: a nonblocking socket feeds it whatever chunk `read(2)`
/// produced and collects every frame the chunk completed; the blocking
/// [`read_frame`] feeds it line by line. The caps are enforced on the
/// *partial* state, so a peer streaming newline-free garbage cannot grow
/// memory past them (plus the chunk in hand) however the bytes are
/// chunked.
#[derive(Default)]
pub struct FrameDecoder {
    /// Un-stuffed lines of the frame currently being accumulated.
    lines: Vec<String>,
    /// Bytes of the current line, up to (not including) its `\n`.
    partial: Vec<u8>,
}

impl FrameDecoder {
    /// A fresh decoder with no partial state.
    pub fn new() -> FrameDecoder {
        FrameDecoder::default()
    }

    /// True while a frame is partially accumulated — an EOF here is the
    /// `EOF mid-frame` protocol violation, not a clean close.
    pub fn mid_frame(&self) -> bool {
        !self.lines.is_empty() || !self.partial.is_empty()
    }

    /// Consumes `data`, appending every frame it completes to `out`
    /// (as un-stuffed line lists). An `Err` is a protocol violation —
    /// oversized line, oversized frame, non-UTF-8 line — after which the
    /// connection should be dropped.
    pub fn push(&mut self, data: &[u8], out: &mut Vec<Vec<String>>) -> io::Result<()> {
        let too_long = || io::Error::new(io::ErrorKind::InvalidData, "frame line too long");
        let mut rest = data;
        while let Some(nl) = rest.iter().position(|&b| b == b'\n') {
            let Some((line, tail)) = rest.split_at_checked(nl) else {
                break;
            };
            self.partial.extend_from_slice(line);
            rest = tail.get(1..).unwrap_or(&[]);
            if self.partial.len() > MAX_LINE_BYTES {
                return Err(too_long());
            }
            let mut bytes = std::mem::take(&mut self.partial);
            while bytes.last() == Some(&b'\r') {
                bytes.pop();
            }
            let line = String::from_utf8(bytes).map_err(|_| {
                io::Error::new(io::ErrorKind::InvalidData, "frame line is not UTF-8")
            })?;
            if line == "%%" {
                out.push(std::mem::take(&mut self.lines));
                continue;
            }
            let unstuffed = line.strip_prefix("% ").unwrap_or(&line);
            self.lines.push(unstuffed.to_string());
            if self.lines.len() > MAX_FRAME_LINES {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    "frame has too many lines",
                ));
            }
        }
        self.partial.extend_from_slice(rest);
        if self.partial.len() > MAX_LINE_BYTES {
            return Err(too_long());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use softhw_core::shw;
    use softhw_hypergraph::named;

    #[test]
    fn request_roundtrip() {
        for class in [
            RequestClass::Shw,
            RequestClass::ShwLeq(2),
            RequestClass::Hw,
            RequestClass::HwLeq(3),
            RequestClass::Best(EvalKind::Trivial, 2),
            RequestClass::Best(EvalKind::ConCov, 2),
            RequestClass::Best(EvalKind::Shallow(1), 2),
            RequestClass::Stats,
        ] {
            let req = Request::new(class, "e1(a,b),\ne2(b,c).");
            let encoded = req.encode();
            let lines: Vec<String> = encoded
                .lines()
                .take_while(|l| *l != "%%")
                .map(String::from)
                .collect();
            assert_eq!(Request::decode(&lines).unwrap(), req, "{class:?}");
        }
        let mut sql = Request::new(RequestClass::Shw, "SELECT MIN(r.a) FROM r");
        sql.format = BodyFormat::Sql;
        let lines: Vec<String> = sql
            .encode()
            .lines()
            .take_while(|l| *l != "%%")
            .map(String::from)
            .collect();
        assert_eq!(Request::decode(&lines).unwrap(), sql);
    }

    #[test]
    fn deadline_token_roundtrips_in_every_position() {
        // DEADLINE composes with every class, with and without sql.
        for class in [
            RequestClass::Shw,
            RequestClass::ShwLeq(2),
            RequestClass::Best(EvalKind::Shallow(1), 2),
            RequestClass::Stats,
        ] {
            for format in [BodyFormat::HyperBench, BodyFormat::Sql] {
                let mut req = Request::new(class, "e1(a,b).");
                req.format = format;
                req.deadline_ms = Some(50);
                let lines: Vec<String> = req
                    .encode()
                    .lines()
                    .take_while(|l| *l != "%%")
                    .map(String::from)
                    .collect();
                assert_eq!(Request::decode(&lines).unwrap(), req, "{class:?}");
            }
        }
        // Hand-typed variant (nc usability) and malformed deadlines.
        let lines = vec!["SHW_LEQ 2 DEADLINE 750".to_string(), "e1(a,b).".to_string()];
        let req = Request::decode(&lines).unwrap();
        assert_eq!(req.class, RequestClass::ShwLeq(2));
        assert_eq!(req.deadline_ms, Some(750));
        assert!(Request::decode(&["SHW DEADLINE".to_string()]).is_err());
        assert!(Request::decode(&["SHW DEADLINE soon".to_string()]).is_err());
    }

    #[test]
    fn timeout_and_busy_frames_roundtrip() {
        for resp in [
            Response::Timeout,
            Response::Busy {
                retry_after_ms: 125,
            },
        ] {
            let encoded = resp.encode();
            let lines: Vec<String> = encoded
                .lines()
                .take_while(|l| *l != "%%")
                .map(String::from)
                .collect();
            assert_eq!(Response::decode(&lines).unwrap(), resp);
        }
        assert_eq!(Response::Timeout.encode(), "TIMEOUT\n%%\n");
        assert_eq!(
            Response::Busy { retry_after_ms: 40 }.encode(),
            "BUSY 40\n%%\n"
        );
        assert!(Response::decode(&["BUSY never".to_string()]).is_err());
    }

    #[test]
    fn td_frame_roundtrips_real_decompositions() {
        for h in [named::h2(), named::cycle(6), named::grid(3, 3)] {
            let (w, td) = shw::shw(&h);
            let frame = TdFrame::from_td(&td, h.num_vertices());
            let back = frame.to_td().unwrap();
            assert_eq!(back.validate(&h), Ok(()));
            assert_eq!(back.num_nodes(), td.num_nodes());
            // Bags survive node for node: reconstructed node `i` is the
            // i-th node of the frame, i.e. the i-th preorder node of the
            // original.
            let order = td.preorder();
            for (i, &u) in order.iter().enumerate() {
                assert_eq!(back.bag(i), td.bag(u));
            }
            // And through the full response encoding.
            let resp = Response::Width {
                class: "SHW".into(),
                width: w,
                td: frame.clone(),
            };
            let lines: Vec<String> = resp
                .encode()
                .lines()
                .take_while(|l| *l != "%%")
                .map(String::from)
                .collect();
            assert_eq!(Response::decode(&lines).unwrap(), resp);
        }
    }

    #[test]
    fn stats_frames_with_unknown_fields_stay_parseable() {
        // The STATS field set grows over time (per-stripe load,
        // result-cache and store rows). A client built against an older
        // field set — this decoder — must parse newer frames
        // generically rather than reject them.
        let lines = vec![
            "OK STATS vertices=10 edges=8 stripe_load=1,0,2 store_hits=7 \
             some_future_row=anything result_cache_misses=0,0,0 \
             reduce_edges_dropped=3 reduce_vertices_peeled=1 reduce_components=2"
                .to_string(),
        ];
        match Response::decode(&lines).expect("extended STATS parses") {
            Response::Stats { fields } => {
                assert_eq!(fields.len(), 9);
                assert!(fields
                    .iter()
                    .any(|(k, v)| k == "stripe_load" && v == "1,0,2"));
                assert!(fields
                    .iter()
                    .any(|(k, v)| k == "some_future_row" && v == "anything"));
                // The reduction-pipeline rows ride the same generic
                // key=value format: old clients see three more opaque
                // fields, nothing else changes.
                for (key, want) in [
                    ("reduce_edges_dropped", "3"),
                    ("reduce_vertices_peeled", "1"),
                    ("reduce_components", "2"),
                ] {
                    assert!(fields.iter().any(|(k, v)| k == key && v == want));
                }
            }
            other => panic!("{other:?}"),
        }
        // Decision frames tolerate extra fields the same way (they ride
        // in `fields`, ordered).
        let lines = vec!["OK BEST k=2 eval=concov new_field=1 answer=no".to_string()];
        match Response::decode(&lines).expect("extended decision parses") {
            Response::Decision { class, fields, .. } => {
                assert_eq!(class, "BEST");
                assert_eq!(fields.len(), 2);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn comment_bodies_roundtrip_through_stuffing() {
        // A body carrying '%'-comment lines — including one that is
        // literally "%%" — must survive encode → read_frame → decode
        // intact, not truncate the frame at the fake terminator.
        let body = "% header comment\n%%\ne1(a,b),\n% mid\ne2(b,c).";
        let req = Request::new(RequestClass::Shw, body);
        let mut cursor = io::Cursor::new(req.encode().into_bytes());
        let lines = read_frame(&mut cursor).unwrap().unwrap();
        let back = Request::decode(&lines).unwrap();
        assert_eq!(back, req);
        // And nothing is left dangling on the stream.
        assert!(read_frame(&mut cursor).unwrap().is_none());
    }

    #[test]
    fn oversized_lines_are_capped_during_the_read() {
        // A newline-free flood larger than the cap errors out instead of
        // buffering unboundedly (the take() bound keeps memory at the
        // cap even while consuming).
        let flood = vec![b'a'; MAX_LINE_BYTES + 10];
        let mut cursor = io::Cursor::new(flood);
        assert!(read_frame(&mut cursor).is_err());
    }

    #[test]
    fn td_header_counts_cannot_size_an_allocation() {
        let lines = |td_header: &str, bag: &str| -> Vec<String> {
            ["OK SHW width=1", td_header, bag, "N - 0"]
                .map(String::from)
                .to_vec()
        };
        // `bags × words` here is 2^61 bytes: reserving it up front
        // aborted the decoding process, which no `catch_unwind` contains.
        let huge = "TD nodes=1 bags=1 universe=18446744073709551615 words=288230376151711744";
        for bag in ["A 0", "A 0000000000000001"] {
            assert!(Response::decode(&lines(huge, bag)).is_err(), "{bag}");
        }
        // Line counts whose sum overflows are a mismatch, not a panic.
        let max = usize::MAX;
        for header in [
            format!("TD nodes={max} bags=1 universe=1 words=1"),
            format!("TD nodes=1 bags={max} universe=1 words=1"),
        ] {
            let decoded = Response::decode(&lines(&header, "A 0000000000000001"));
            assert!(decoded.is_err(), "{header}");
        }
        // The same frame with honest counts decodes.
        let honest = lines("TD nodes=1 bags=1 universe=1 words=1", "A 0000000000000001");
        let ok = Response::decode(&honest).unwrap();
        assert!(matches!(ok, Response::Width { width: 1, .. }), "{ok:?}");
    }

    #[test]
    fn td_frames_decode_only_their_one_spelling() {
        // A frame has one text form, so a frame that decodes re-encodes
        // byte-identically.
        let good = [
            "OK SHW width=1",
            "TD nodes=1 bags=1 universe=1 words=1",
            "A 0000000000000001",
            "N - 0",
        ];
        let decodes = |at: usize, line: &str| {
            let mut lines = good.map(String::from);
            lines[at] = line.to_string();
            Response::decode(&lines).is_ok()
        };
        assert!(decodes(3, "N - 0"));
        for (at, line) in [
            (1, "TD bags=1 nodes=1 universe=1 words=1"),
            (1, "XX nodes=1 bags=1 universe=1 words=1"),
            (1, "TD nodes=01 bags=1 universe=1 words=1"),
            (1, "TD nodes=1 bags=1  universe=1 words=1"),
            (2, "A 1"),
            (2, "A 000000000000000F"),
            (2, "A  0000000000000001"),
            (3, "N - 00"),
            (3, "N - +0"),
            (3, "N - 0 "),
        ] {
            assert!(!decodes(at, line), "{line:?}");
        }
    }

    fn frame_lines(encoded: &str) -> Vec<String> {
        let mut lines: Vec<String> = encoded.lines().map(String::from).collect();
        assert_eq!(lines.pop().as_deref(), Some("%%"), "terminator present");
        lines
    }

    #[test]
    fn hello_frames_roundtrip_and_advertise_v1() {
        let req = Request::new(RequestClass::Hello, "");
        assert_eq!(req.encode(), "HELLO\n%%\n");
        let decoded = Request::decode(&frame_lines(&req.encode())).unwrap();
        assert_eq!(decoded.class, RequestClass::Hello);
        let resp = Response::hello();
        let lines = frame_lines(&resp.encode());
        assert_eq!(
            lines[0],
            format!("OK HELLO proto={PROTOCOL_VERSION} verbs={PROTOCOL_VERBS}")
        );
        match Response::decode(&lines).unwrap() {
            Response::Hello { fields } => {
                assert!(fields.iter().any(|(k, v)| k == "proto" && v == "V1"));
                let verbs = &fields.iter().find(|(k, _)| k == "verbs").unwrap().1;
                for verb in ["BATCH", "HELLO", "SHW", "STATS"] {
                    assert!(verbs.split(',').any(|v| v == verb), "{verb} advertised");
                }
            }
            other => panic!("{other:?}"),
        }
        // A future server may add fields; they must ride generically.
        let lines = vec!["OK HELLO proto=V2 verbs=SHW max_batch=64".to_string()];
        match Response::decode(&lines).unwrap() {
            Response::Hello { fields } => assert_eq!(fields.len(), 3),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn batch_requests_roundtrip_with_counted_bodies() {
        // Mixed classes, sql bodies, comment lines (including a literal
        // "%%" comment) and an empty body all survive the counted
        // framing through a real read_frame pass.
        let items = vec![
            Request::new(RequestClass::Shw, "% note\n%%\ne1(a,b),\ne2(b,c)."),
            Request::new(RequestClass::ShwLeq(2), "e1(a,b)."),
            {
                let mut r = Request::new(RequestClass::Hw, "SELECT MIN(r.a) FROM r");
                r.format = BodyFormat::Sql;
                r
            },
            Request::new(RequestClass::Stats, "e1(a,b)."),
            Request::new(RequestClass::Hello, ""),
        ];
        let mut batch = BatchRequest::new(items);
        batch.deadline_ms = Some(500);
        let mut cursor = io::Cursor::new(batch.encode().into_bytes());
        let lines = read_frame(&mut cursor).unwrap().unwrap();
        match WireRequest::decode(&lines).unwrap() {
            WireRequest::Batch(back) => assert_eq!(back, batch),
            other => panic!("{other:?}"),
        }
        // Single requests still decode as singles through WireRequest.
        let single = Request::new(RequestClass::Shw, "e1(a,b).");
        match WireRequest::decode(&frame_lines(&single.encode())).unwrap() {
            WireRequest::Single(back) => assert_eq!(back, single),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn malformed_batch_requests_are_rejected() {
        // Per-item deadlines are the batch header's job.
        let lines = vec![
            "BATCH 1".to_string(),
            "@ SHW DEADLINE 50 lines=1".to_string(),
            "e1(a,b).".to_string(),
        ];
        assert!(BatchRequest::decode(&lines).is_err());
        // Nested batch, short body, trailing garbage, missing count.
        let lines = vec!["BATCH 1".to_string(), "@ BATCH 2 lines=0".to_string()];
        assert!(BatchRequest::decode(&lines).is_err());
        let lines = vec!["BATCH 1".to_string(), "@ SHW lines=3".to_string()];
        assert!(BatchRequest::decode(&lines).is_err());
        let lines = vec![
            "BATCH 1".to_string(),
            "@ SHW lines=0".to_string(),
            "stray".to_string(),
        ];
        assert!(BatchRequest::decode(&lines).is_err());
        assert!(BatchRequest::decode(&["BATCH".to_string()]).is_err());
        assert!(BatchRequest::decode(&["BATCH many".to_string()]).is_err());
        // And a batch where a single was expected (and vice versa).
        assert!(Request::decode(&["BATCH 1".to_string()]).is_err());
        assert!(BatchRequest::decode(&["SHW".to_string()]).is_err());
    }

    #[test]
    fn batch_responses_roundtrip_and_strip_to_singles() {
        let h = named::h2();
        let (w, td) = shw::shw(&h);
        let singles = vec![
            Response::Width {
                class: "SHW".into(),
                width: w,
                td: TdFrame::from_td(&td, h.num_vertices()),
            },
            Response::Decision {
                class: "SHW_LEQ".into(),
                fields: vec![],
                k: 1,
                td: None,
            },
            Response::Timeout,
            Response::Busy {
                retry_after_ms: 100,
            },
            Response::error("request", "width must be >= 1"),
            Response::hello(),
        ];
        let batch = Response::Batch {
            responses: singles.clone(),
        };
        let encoded = batch.encode();
        let decoded = Response::decode(&frame_lines(&encoded)).unwrap();
        assert_eq!(decoded, batch);
        // Envelope-stripping invariant: dropping the OK BATCH header and
        // the @ separators yields the concatenated single frames minus
        // their terminators.
        let stripped: String = encoded
            .lines()
            .filter(|l| !l.starts_with("OK BATCH") && !l.starts_with("@ lines=") && *l != "%%")
            .map(|l| format!("{l}\n"))
            .collect();
        let concat: String = singles
            .iter()
            .map(|r| r.encode())
            .collect::<String>()
            .lines()
            .filter(|l| *l != "%%")
            .map(|l| format!("{l}\n"))
            .collect();
        assert_eq!(stripped, concat);
    }

    #[test]
    fn request_header_is_shared_by_both_paths() {
        // The same header grammar parses single and batch headers.
        let h = RequestHeader::parse("SHW_LEQ 3 DEADLINE 250 sql").unwrap();
        assert_eq!(h.verb, HeaderVerb::Class(RequestClass::ShwLeq(3)));
        assert_eq!(h.deadline_ms, Some(250));
        assert_eq!(h.format, BodyFormat::Sql);
        assert_eq!(h.encode(), "SHW_LEQ 3 DEADLINE 250 sql");
        let b = RequestHeader::parse("BATCH 7 DEADLINE 100").unwrap();
        assert_eq!(b.verb, HeaderVerb::Batch(7));
        assert_eq!(b.deadline_ms, Some(100));
        assert_eq!(b.encode(), "BATCH 7 DEADLINE 100");
        assert!(RequestHeader::parse("NOPE 1").is_err());
    }

    #[test]
    fn request_header_places_every_token() {
        // DEADLINE may stand anywhere, even after the `sql` marker.
        let h = RequestHeader::parse("SHW sql DEADLINE 5").unwrap();
        assert_eq!(h.verb, HeaderVerb::Class(RequestClass::Shw));
        assert_eq!(h.deadline_ms, Some(5));
        assert_eq!(h.format, BodyFormat::Sql);
        let h = RequestHeader::parse("DEADLINE 9 BEST concov 2 sql").unwrap();
        assert_eq!(
            h.verb,
            HeaderVerb::Class(RequestClass::Best(EvalKind::ConCov, 2))
        );
        assert_eq!((h.deadline_ms, h.format), (Some(9), BodyFormat::Sql));
        let slow = RequestHeader::parse("STATS SLOW").unwrap();
        assert_eq!(slow.verb, HeaderVerb::Class(RequestClass::Slow));
        // A token the grammar does not place is refused, not skipped.
        for line in [
            "SHW_LEQ 2 3",
            "SHW_LEQ 2 sq1",
            "HW junk",
            "STATS extra",
            "STATS SLOW extra",
            "BATCH 2 x",
            "BEST concov 2 2",
            "SHW DEADLINE 5 DEADLINE 6",
            "SHW sql sql",
        ] {
            assert!(RequestHeader::parse(line).is_err(), "{line:?} was accepted");
        }
    }

    #[test]
    fn frame_reader_handles_eof_and_terminators() {
        let mut input = io::Cursor::new(b"SHW\ne(a,b)\n%%\n".to_vec());
        let lines = read_frame(&mut input).unwrap().unwrap();
        assert_eq!(lines, vec!["SHW".to_string(), "e(a,b)".to_string()]);
        assert!(read_frame(&mut input).unwrap().is_none(), "clean EOF");
        let mut cut = io::Cursor::new(b"SHW\ne(a,b)\n".to_vec());
        assert!(read_frame(&mut cut).is_err(), "EOF mid-frame");
    }
}
