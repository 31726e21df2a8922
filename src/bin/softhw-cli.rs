//! `softhw-cli` — command-line decomposer in the style of det-k-decomp /
//! BalancedGo: read a hypergraph in the HyperBench text format, compute
//! widths and decompositions.
//!
//! ```text
//! softhw-cli <file.hg> [options]
//!   --width <k>      decide shw(H) <= k (k >= 1) instead of computing shw
//!   --measure <m>    shw (default) | hw | ghw | shw1 | all
//!   --concov         restrict to ConCov candidate bags
//!   --no-reduce      solve shw without the reduction pipeline (subsumption,
//!                    peeling, component splitting; hw never reduces); local
//!                    mode only — the server's is set by
//!                    `softhw-serve --no-reduce`
//!   --print          print the witness decomposition
//!   --stats          print structural statistics only
//!   --connect <addr> client mode: send the request to a softhw-serve
//!                    instance instead of solving locally (same output
//!                    and exit codes except --stats, which shows the
//!                    server's fields incl. cache counters; returned
//!                    decompositions are validated locally before
//!                    printing)
//!   --deadline <ms>  (with --connect) attach a DEADLINE to each request;
//!                    a server-side TIMEOUT is reported as an error
//!   --retries <n>    (with --connect) retry connect failures, transport
//!                    errors, and BUSY shedding up to n times with
//!                    jittered exponential backoff, honouring the
//!                    server's BUSY retry-after hint (default 3)
//!   --metrics        (with --connect; no input file) fetch the server's
//!                    Prometheus-style METRICS exposition and print it;
//!                    every line is validated before printing and a
//!                    malformed exposition exits 2
//! ```
//!
//! Both modes answer one [`Question`] (exact ConCov-shw: the least `k`
//! whose `ConCovLeq(k)` is yes) with one [`Answer`], and one printer,
//! [`report`], writes every `= k` / `<= k: yes|no` line and witness.
//! `ghw`, `shw1` and `all` are local only.
//!
//! Exit code 0 when a decomposition at the requested width exists (or the
//! width was computed), 1 when a `--width` check rejects, 2 on errors.

use softhw::core::constraints::ConCov;
use softhw::core::ctd_opt::best_on_budgeted;
use softhw::core::ghd::Ghd;
use softhw::core::shw::soft_instance;
use softhw::core::soft::SoftLimits;
use softhw::core::soft_iter::{ghw, ghw_leq_via_fixpoint, shw_i, shw_i_leq};
use softhw::core::{solve, Budget, SolveSpec, Solved, TreeDecomposition};
use softhw::hypergraph::{parse_hypergraph, Hypergraph};
use softhw_service::{roundtrip, EvalKind, Request, RequestClass, Response};
use std::error::Error;
use std::net::TcpStream;
use std::process::ExitCode;

/// Errors print as one line and exit 2, whatever raised them.
type Fallible<T> = Result<T, Box<dyn Error>>;

#[derive(Default)]
struct Options {
    file: String,
    width: Option<usize>,
    measure: String,
    concov: bool,
    no_reduce: bool,
    print: bool,
    stats: bool,
    connect: Option<String>,
    deadline_ms: Option<u64>,
    retries: u32,
    metrics: bool,
}

/// The value after `--<flag>`, parsed.
fn value<T: std::str::FromStr>(
    args: &mut impl Iterator<Item = String>,
    flag: &str,
) -> Result<T, String> {
    let v = args.next().ok_or(format!("--{flag} needs a value"))?;
    v.parse().map_err(|_| format!("bad {flag} {v:?}"))
}

fn parse_args() -> Result<Options, String> {
    let mut args = std::env::args().skip(1);
    let mut opts = Options {
        measure: "shw".to_string(),
        retries: 3,
        ..Options::default()
    };
    while let Some(a) = args.next() {
        match a.as_str() {
            "--width" => {
                // The server's own rejection, so both modes refuse alike.
                match value(&mut args, "width")? {
                    0 => return Err("width must be >= 1".to_string()),
                    k => opts.width = Some(k),
                }
            }
            "--measure" => {
                opts.measure = args.next().ok_or("--measure needs a value")?;
                if !["shw", "hw", "ghw", "shw1", "all"].contains(&opts.measure.as_str()) {
                    return Err(format!("unknown measure {:?}", opts.measure));
                }
            }
            "--concov" => opts.concov = true,
            "--no-reduce" => opts.no_reduce = true,
            "--print" => opts.print = true,
            "--stats" => opts.stats = true,
            "--connect" => opts.connect = Some(args.next().ok_or("--connect needs an address")?),
            "--deadline" => opts.deadline_ms = Some(value(&mut args, "deadline")?),
            "--retries" => opts.retries = value(&mut args, "retries")?,
            "--metrics" => opts.metrics = true,
            "--help" | "-h" => {
                return Err("usage: softhw-cli <file.hg> [--width k] \
                            [--measure shw|hw|ghw|shw1|all] [--concov] [--no-reduce] \
                            [--print] [--stats] [--connect host:port] [--deadline ms] \
                            [--retries n] | softhw-cli --connect host:port --metrics"
                    .to_string())
            }
            f if opts.file.is_empty() && !f.starts_with('-') => opts.file = f.to_string(),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if opts.metrics {
        if opts.connect.is_none() {
            return Err("--metrics asks a server for its exposition; add --connect".to_string());
        }
        if !opts.file.is_empty() {
            return Err("--metrics takes no input file".to_string());
        }
    } else if opts.file.is_empty() {
        return Err("no input file (use --help)".to_string());
    }
    Ok(opts)
}

/// A width question either mode answers: exact `shw` (Thm. 1), `shw ≤ k`,
/// `shw ≤ k` over the ConCov candidate bags (Section 6), exact `hw`,
/// `hw ≤ k`.
#[derive(Clone, Copy)]
enum Question {
    Shw,
    ShwLeq(usize),
    ConCovLeq(usize),
    Hw,
    HwLeq(usize),
}

impl Question {
    /// The measure's name as the output lines spell it.
    fn measure(self) -> &'static str {
        match self {
            Question::Shw | Question::ShwLeq(_) => "shw",
            Question::ConCovLeq(_) => "ConCov-shw",
            Question::Hw | Question::HwLeq(_) => "hw",
        }
    }
}

/// The decomposition `--print` shows: a tree decomposition for `shw`, a
/// hypertree decomposition for `hw`.
enum Witness {
    Td(TreeDecomposition),
    Hd(Ghd),
}

/// What a mode answers: an exact width, or the `≤ k` decision, which is
/// yes exactly when it carries a witness.
enum Answer {
    Width(usize, Option<Witness>),
    Decision(usize, Option<Witness>),
}

/// Prints `measure = w` or `measure <= k: yes|no`, then the witness if
/// `print` asks for it, and returns whether the answer accepts.
fn report(measure: &str, answer: Answer, print: bool, h: &Hypergraph) -> bool {
    let (accepted, verdict, witness) = match answer {
        Answer::Width(w, witness) => (true, format!("= {w}"), witness),
        Answer::Decision(k, None) => (false, format!("<= {k}: no"), None),
        Answer::Decision(k, witness) => (true, format!("<= {k}: yes"), witness),
    };
    println!("{measure} {verdict}");
    match (print, witness) {
        (true, Some(Witness::Td(td))) => print!("{}", td.render(h)),
        (true, Some(Witness::Hd(g))) => print!("{}", g.render(h)),
        _ => {}
    }
    accepted
}

/// Local mode: the cold `SolveSpec` door for the unconstrained
/// questions, and for ConCov — which has no spec formulation — what
/// `BEST concov k` runs: Algorithm 2 with the `ConCov` evaluator over
/// `Soft_{H,k}` of the input as given.
fn answer_locally(h: &Hypergraph, q: Question, reduce: bool) -> Fallible<Answer> {
    let spec = match q {
        Question::ConCovLeq(k) => {
            // As `BEST` does: nothing changes past `|E|`; report the asked `k`.
            let width = k.min(h.num_edges());
            let inst = soft_instance(h, width, &SoftLimits::default(), &Budget::unlimited())?;
            let td = best_on_budgeted(&inst, &ConCov { k: width }, &Budget::unlimited())?;
            return Ok(Answer::Decision(k, td.map(|(td, ())| Witness::Td(td))));
        }
        Question::Shw => SolveSpec::shw(),
        Question::ShwLeq(k) => SolveSpec::shw_leq(k),
        Question::Hw => SolveSpec::hw(),
        Question::HwLeq(k) => SolveSpec::hw_leq(k),
    }
    .with_reduce(reduce);
    let decided = |witness| Answer::Decision(spec.bound.expect("only a bound decides"), witness);
    Ok(match solve(h, &spec)? {
        Solved::ShwWidth(w, td) => Answer::Width(w, Some(Witness::Td(td))),
        Solved::HwWidth(w, g) => Answer::Width(w, Some(Witness::Hd(g))),
        Solved::ShwDecision(td) => decided(td.map(Witness::Td)),
        Solved::HwDecision(g) => decided(g.map(Witness::Hd)),
    })
}

/// A connection to `softhw-serve` with retry semantics: connect
/// failures, transport errors, and `BUSY` shedding are retried up to
/// `retries` times with jittered exponential backoff (the server's
/// `BUSY <retry-after-ms>` hint is honoured as the wait floor). The
/// TCP connection is **reused across requests and retries** — the V1
/// server sheds overload per request and keeps the connection open, so
/// only connect failures and transport errors reconnect; a `BUSY`
/// backs off on the same socket. Each fresh connection starts with a
/// `HELLO` handshake (a legacy server answers `ERR`, which is equally
/// conclusive — the request grammar is a superset). A server-side
/// `TIMEOUT` is *not* retried — the deadline the user set has been
/// spent; retrying would just spend it again.
struct Remote {
    addr: String,
    deadline_ms: Option<u64>,
    retries: u32,
    stream: Option<TcpStream>,
    rng: rand::rngs::SmallRng,
}

impl Remote {
    fn new(opts: &Options) -> Remote {
        use rand::SeedableRng as _;
        Remote {
            addr: opts.connect.clone().unwrap_or_default(),
            deadline_ms: opts.deadline_ms,
            retries: opts.retries,
            stream: None,
            // Seed from the pid so concurrent clients retrying against
            // an overloaded server do not thunder in lockstep.
            rng: rand::rngs::SmallRng::seed_from_u64(std::process::id() as u64),
        }
    }

    /// Sleeps `hint + uniform(0..=50ms * 2^attempt)` (capped at 2s of
    /// exponential part), where `hint` is the server's retry-after.
    fn backoff(&mut self, attempt: u32, hint_ms: u64) {
        use rand::Rng as _;
        let base = 50u64.saturating_mul(1 << attempt.min(5)).min(2_000);
        let wait = hint_ms + self.rng.gen_range(0..=base);
        std::thread::sleep(std::time::Duration::from_millis(wait));
    }

    fn ask(&mut self, class: RequestClass, text: &str) -> Result<Response, String> {
        let mut attempt = 0u32;
        loop {
            // `reconnect` controls whether the retry tears the stream
            // down: transport-level failures do, a BUSY shed does not —
            // the server kept the connection open and the next attempt
            // reuses it.
            let mut retry = |this: &mut Remote,
                             why: String,
                             hint_ms: u64,
                             reconnect: bool|
             -> Result<(), String> {
                if reconnect {
                    this.stream = None;
                }
                if attempt >= this.retries {
                    return Err(why);
                }
                eprintln!("softhw-cli: {why}; retry {}/{}", attempt + 1, this.retries);
                this.backoff(attempt, hint_ms);
                attempt += 1;
                Ok(())
            };
            if self.stream.is_none() {
                match TcpStream::connect(&self.addr) {
                    Ok(mut s) => {
                        // V1 handshake, once per fresh connection. Any
                        // frame back — HELLO from a V1 server, ERR from
                        // a legacy one — proves the transport; only an
                        // I/O failure counts against the retries.
                        match roundtrip(&mut s, &Request::new(RequestClass::Hello, "")) {
                            Ok(_) => self.stream = Some(s),
                            Err(e) => {
                                retry(self, format!("handshake {}: {e}", self.addr), 0, true)?;
                                continue;
                            }
                        }
                    }
                    Err(e) => {
                        retry(self, format!("connect {}: {e}", self.addr), 0, true)?;
                        continue;
                    }
                }
            }
            let mut req = Request::new(class, text);
            req.deadline_ms = self.deadline_ms;
            let stream = self.stream.as_mut().expect("stream set above");
            match roundtrip(stream, &req) {
                Ok(Response::Busy { retry_after_ms }) => {
                    retry(self, "server busy".to_string(), retry_after_ms, false)?;
                }
                Ok(Response::Timeout) => {
                    return Err(format!(
                        "server gave up: deadline{} exceeded",
                        self.deadline_ms
                            .map(|ms| format!(" of {ms}ms"))
                            .unwrap_or_default()
                    ))
                }
                Ok(Response::Error { kind, message }) => {
                    return Err(format!("server error [{kind}] {message}"))
                }
                Ok(resp) => return Ok(resp),
                Err(e) => {
                    retry(self, format!("{}: {e}", self.addr), 0, true)?;
                }
            }
        }
    }

    /// Remote mode: one request per question. The witness frame is
    /// validated against the locally parsed `h`; an `hw` witness travels
    /// as its tree decomposition, whose covers are rebuilt for `print`.
    fn answer(&mut self, text: &str, h: &Hypergraph, q: Question, print: bool) -> Fallible<Answer> {
        let (class, bound) = match q {
            Question::Shw => (RequestClass::Shw, None),
            Question::ShwLeq(k) => (RequestClass::ShwLeq(k), Some(k)),
            Question::ConCovLeq(k) => (RequestClass::Best(EvalKind::ConCov, k), Some(k)),
            Question::Hw => (RequestClass::Hw, None),
            Question::HwLeq(k) => (RequestClass::HwLeq(k), Some(k)),
        };
        let (k, frame, answer): (_, _, fn(usize, Option<Witness>) -> Answer) =
            match (self.ask(class, text)?, bound) {
                (Response::Width { width, td, .. }, None) => (width, Some(td), Answer::Width),
                (Response::Decision { td, .. }, Some(k)) => (k, td, Answer::Decision),
                (other, _) => return Err(format!("unexpected response {other:?}").into()),
            };
        let Some(td) = frame.map(|frame| frame.to_td()).transpose()? else {
            return Ok(answer(k, None));
        };
        td.validate(h)
            .map_err(|e| format!("server returned an invalid decomposition: {e:?}"))?;
        let witness = match q {
            Question::Hw | Question::HwLeq(_) if print => {
                Witness::Hd(Ghd::from_td(h, td, k).ok_or("server witness has no width-k covers")?)
            }
            _ => Witness::Td(td),
        };
        Ok(answer(k, Some(witness)))
    }
}

/// `--metrics`: fetch the server's Prometheus-style text exposition and
/// print it. Every line is validated *before* anything is printed, so a
/// scrape wired through this subcommand fails loudly (exit 2) instead
/// of feeding a collector garbage.
fn run_metrics(opts: &Options) -> Fallible<bool> {
    let mut remote = Remote::new(opts);
    match remote.ask(RequestClass::Metrics, "")? {
        Response::Metrics { lines } => {
            validate_exposition(&lines)?;
            for line in &lines {
                println!("{line}");
            }
            Ok(true)
        }
        other => Err(format!("unexpected response {other:?}").into()),
    }
}

/// Checks text-exposition shape: `# TYPE <name> counter|gauge|histogram`
/// / `# HELP` comments, and `name[{labels}] value` samples with a valid
/// metric identifier and a finite numeric value.
fn validate_exposition(lines: &[String]) -> Result<(), String> {
    let ident_ok = |s: &str| {
        let mut chars = s.chars();
        chars
            .next()
            .is_some_and(|c| c.is_ascii_alphabetic() || c == '_' || c == ':')
            && chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
    };
    for (i, line) in lines.iter().enumerate() {
        let bad = |why: &str| {
            Err(format!(
                "unparseable exposition line {}: {why}: {line:?}",
                i + 1
            ))
        };
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix('#') {
            let mut toks = rest.split_whitespace();
            match toks.next() {
                Some("TYPE") => {
                    let name = toks.next().unwrap_or("");
                    let kind = toks.next().unwrap_or("");
                    if !ident_ok(name) || !["counter", "gauge", "histogram"].contains(&kind) {
                        return bad("malformed TYPE comment");
                    }
                }
                Some("HELP") => {}
                _ => return bad("unknown comment kind"),
            }
            continue;
        }
        let Some((series, value)) = line.rsplit_once(' ') else {
            return bad("no value field");
        };
        let name = series.split('{').next().unwrap_or("");
        if !ident_ok(name) {
            return bad("invalid metric name");
        }
        if series.contains('{') && !series.ends_with('}') {
            return bad("unterminated label set");
        }
        if !value.parse::<f64>().is_ok_and(f64::is_finite) {
            return bad("non-numeric sample value");
        }
    }
    Ok(())
}

/// `--measure ghw|shw1|all`: the iterated hierarchy, local only and
/// without a printed witness.
fn run_hierarchy(opts: &Options, h: &Hypergraph) -> Fallible<bool> {
    let limits = SoftLimits::default();
    let answer = match (opts.measure.as_str(), opts.width) {
        ("ghw", Some(k)) => {
            Answer::Decision(k, ghw_leq_via_fixpoint(h, k, &limits)?.map(Witness::Td))
        }
        ("ghw", None) => Answer::Width(ghw(h, &limits)?, None),
        ("shw1", Some(k)) => Answer::Decision(k, shw_i_leq(h, k, 1, &limits)?.map(Witness::Td)),
        ("shw1", None) => Answer::Width(shw_i(h, 1, &limits)?, None),
        _ => {
            let width = |spec: SolveSpec| -> Fallible<usize> {
                let solved = solve(h, &spec.with_reduce(!opts.no_reduce))?;
                Ok(solved.width().expect("exact specs answer with a width"))
            };
            let (s, c) = (width(SolveSpec::shw())?, width(SolveSpec::hw())?);
            let (s1, g) = (shw_i(h, 1, &limits)?, ghw(h, &limits)?);
            println!("ghw = {g}, shw1 = {s1}, shw = {s}, hw = {c}");
            return Ok(true);
        }
    };
    Ok(report(&opts.measure, answer, false, h))
}

fn run() -> Fallible<bool> {
    let opts = parse_args()?;
    if opts.metrics {
        return run_metrics(&opts);
    }
    let text = std::fs::read_to_string(&opts.file)
        .map_err(|e| format!("cannot read {}: {e}", opts.file))?;
    let h = parse_hypergraph(&text)?;
    eprintln!(
        "parsed {}: {} vertices, {} edges",
        opts.file,
        h.num_vertices(),
        h.num_edges()
    );
    // The server's words for a schema with nothing to decompose.
    if h.num_edges() == 0 {
        return Err("empty schema".into());
    }
    let mut remote = opts.connect.as_ref().map(|_| Remote::new(&opts));
    if remote.is_some() && opts.no_reduce {
        let msg = "--no-reduce is a local-solve flag; the server's pipeline is set by \
                   `softhw-serve --no-reduce`";
        return Err(msg.into());
    }
    if remote.is_none() && opts.deadline_ms.is_some() {
        let msg = "--deadline applies to --connect requests; local solves run to completion";
        return Err(msg.into());
    }
    if opts.stats {
        // Deliberately different per mode: the server's `key = value`
        // fields include its cache counters, which local mode cannot know.
        match &mut remote {
            Some(remote) => match remote.ask(RequestClass::Stats, &text)? {
                Response::Stats { fields } => {
                    for (key, value) in fields {
                        println!("{key} = {value}");
                    }
                }
                other => return Err(format!("unexpected response {other:?}").into()),
            },
            None => println!("{:#?}", softhw::hypergraph::stats::stats(&h)),
        }
        return Ok(true);
    }
    let question = match (opts.measure.as_str(), opts.width) {
        (m, _) if opts.concov && m != "shw" => {
            return Err("--concov is a CTD constraint; use --measure shw".into())
        }
        ("all", Some(_)) => {
            return Err("--measure all computes four exact widths; drop --width".into())
        }
        ("hw", None) => Some(Question::Hw),
        ("hw", Some(k)) => Some(Question::HwLeq(k)),
        ("shw", Some(k)) if opts.concov => Some(Question::ConCovLeq(k)),
        ("shw", Some(k)) => Some(Question::ShwLeq(k)),
        ("shw", None) if opts.concov => None,
        ("shw", None) => Some(Question::Shw),
        (m, _) if remote.is_some() => {
            return Err(format!("--measure {m} is not supported over --connect").into())
        }
        _ => return run_hierarchy(&opts, &h),
    };
    let mut ask = |q: Question| match &mut remote {
        Some(remote) => remote.answer(&text, &h, q, opts.print),
        None => answer_locally(&h, q, !opts.no_reduce),
    };
    if let Some(q) = question {
        return Ok(report(q.measure(), ask(q)?, opts.print, &h));
    }
    // Exact ConCov-shw: no solver computes it, so sweep the decision.
    for k in 1..=h.num_edges().max(1) {
        let q = Question::ConCovLeq(k);
        if let Answer::Decision(_, witness @ Some(_)) = ask(q)? {
            let answer = Answer::Width(k, witness);
            return Ok(report(q.measure(), answer, opts.print, &h));
        }
    }
    Err("no decomposition up to |E| — disconnected input?".into())
}

fn main() -> ExitCode {
    match run() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("softhw-cli: {e}");
            ExitCode::from(2)
        }
    }
}
