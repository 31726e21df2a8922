//! `softhw-cli` — command-line decomposer in the style of det-k-decomp /
//! BalancedGo: read a hypergraph in the HyperBench text format, compute
//! widths and decompositions.
//!
//! ```text
//! softhw-cli <file.hg> [options]
//!   --width <k>      decide shw(H) <= k instead of computing shw exactly
//!   --measure <m>    shw (default) | hw | ghw | shw1 | all
//!   --concov         restrict to ConCov candidate bags
//!   --no-reduce      skip the reduction pipeline (subsumption, peeling,
//!                    component splitting) before exact shw/hw solving;
//!                    local mode only — the server's pipeline is set by
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
//! Exit code 0 when a decomposition at the requested width exists (or the
//! width was computed), 1 when a `--width` check rejects, 2 on errors.

use softhw::core::constraints::{concov_filter, Trivial};
use softhw::core::ctd_opt::best;
use softhw::core::soft::{soft_bags_with, SoftLimits};
use softhw::core::soft_iter;
use softhw::core::{solve, SolveSpec, Solved};
use softhw::hypergraph::{parse_hypergraph, Hypergraph};
use softhw_service::{roundtrip, EvalKind, Request, RequestClass, Response};
use std::net::TcpStream;
use std::process::ExitCode;

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

fn parse_args() -> Result<Options, String> {
    let mut args = std::env::args().skip(1);
    let mut opts = Options {
        file: String::new(),
        width: None,
        measure: "shw".to_string(),
        concov: false,
        no_reduce: false,
        print: false,
        stats: false,
        connect: None,
        deadline_ms: None,
        retries: 3,
        metrics: false,
    };
    while let Some(a) = args.next() {
        match a.as_str() {
            "--width" => {
                let v = args.next().ok_or("--width needs a value")?;
                opts.width = Some(v.parse().map_err(|_| format!("bad width {v:?}"))?);
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
            "--deadline" => {
                let v = args.next().ok_or("--deadline needs a value")?;
                opts.deadline_ms = Some(v.parse().map_err(|_| format!("bad deadline {v:?}"))?);
            }
            "--retries" => {
                let v = args.next().ok_or("--retries needs a value")?;
                opts.retries = v.parse().map_err(|_| format!("bad retries {v:?}"))?;
            }
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

fn candidate_bags(
    h: &Hypergraph,
    k: usize,
    concov: bool,
) -> Result<Vec<softhw::hypergraph::BitSet>, String> {
    let bags = soft_bags_with(h, k, &SoftLimits::default()).map_err(|e| e.to_string())?;
    Ok(if concov {
        concov_filter(h, k, &bags)
    } else {
        bags
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
}

/// `--metrics`: fetch the server's Prometheus-style text exposition and
/// print it. Every line is validated *before* anything is printed, so a
/// scrape wired through this subcommand fails loudly (exit 2) instead
/// of feeding a collector garbage.
fn run_metrics(opts: &Options) -> Result<bool, String> {
    let mut remote = Remote::new(opts);
    match remote.ask(RequestClass::Metrics, "")? {
        Response::Metrics { lines } => {
            validate_exposition(&lines)?;
            for line in &lines {
                println!("{line}");
            }
            Ok(true)
        }
        other => Err(format!("unexpected response {other:?}")),
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

/// Client mode: the same questions, answered by a `softhw-serve`
/// instance. Width/decision output lines and exit codes match local
/// mode exactly; witness decompositions are decoded from the wire frame
/// and validated against the locally parsed hypergraph before anything
/// is printed. The one deliberate divergence is `--stats`: remote stats
/// are the server's `key = value` fields (structural stats *plus* its
/// cache counters, which local mode cannot know), not the local Debug
/// render.
fn run_remote(opts: &Options, text: &str, h: &Hypergraph) -> Result<bool, String> {
    let mut remote = Remote::new(opts);
    let mut ask = |class: RequestClass| -> Result<Response, String> { remote.ask(class, text) };
    let decode =
        |frame: softhw_service::TdFrame| -> Result<softhw::core::TreeDecomposition, String> {
            let td = frame.to_td().map_err(|e| e.to_string())?;
            td.validate(h)
                .map_err(|e| format!("server returned an invalid decomposition: {e:?}"))?;
            Ok(td)
        };
    let constraint_label = if opts.concov { "ConCov-" } else { "" };
    let leq_class = |k: usize| {
        if opts.concov {
            RequestClass::Best(EvalKind::ConCov, k)
        } else {
            RequestClass::ShwLeq(k)
        }
    };
    if opts.stats {
        match ask(RequestClass::Stats)? {
            Response::Stats { fields } => {
                for (key, value) in fields {
                    println!("{key} = {value}");
                }
                return Ok(true);
            }
            other => return Err(format!("unexpected response {other:?}")),
        }
    }
    match (opts.measure.as_str(), opts.width) {
        ("shw", Some(k)) => match ask(leq_class(k))? {
            Response::Decision { td, .. } => match td {
                Some(frame) => {
                    let td = decode(frame)?;
                    println!("{constraint_label}shw <= {k}: yes");
                    if opts.print {
                        print!("{}", td.render(h));
                    }
                    Ok(true)
                }
                None => {
                    println!("{constraint_label}shw <= {k}: no");
                    Ok(false)
                }
            },
            other => Err(format!("unexpected response {other:?}")),
        },
        ("shw", None) if opts.concov => {
            // No exact ConCov class on the wire: sweep the decision.
            for k in 1..=h.num_edges().max(1) {
                if let Response::Decision {
                    td: Some(frame), ..
                } = ask(leq_class(k))?
                {
                    let td = decode(frame)?;
                    println!("ConCov-shw = {k}");
                    if opts.print {
                        print!("{}", td.render(h));
                    }
                    return Ok(true);
                }
            }
            Err("no decomposition up to |E| — disconnected input?".to_string())
        }
        ("shw", None) => match ask(RequestClass::Shw)? {
            Response::Width { width, td, .. } => {
                let td = decode(td)?;
                println!("shw = {width}");
                if opts.print {
                    print!("{}", td.render(h));
                }
                Ok(true)
            }
            other => Err(format!("unexpected response {other:?}")),
        },
        ("hw", w) => {
            if opts.concov {
                return Err("--concov is a CTD constraint; use --measure shw".into());
            }
            match w {
                Some(k) => match ask(RequestClass::HwLeq(k))? {
                    Response::Decision { td, .. } => match td {
                        Some(frame) => {
                            let td = decode(frame)?;
                            println!("hw <= {k}: yes");
                            if opts.print {
                                let g = softhw::core::ghd::Ghd::from_td(h, td, k)
                                    .ok_or("server witness has no width-k covers")?;
                                print!("{}", g.render(h));
                            }
                            Ok(true)
                        }
                        None => {
                            println!("hw <= {k}: no");
                            Ok(false)
                        }
                    },
                    other => Err(format!("unexpected response {other:?}")),
                },
                None => match ask(RequestClass::Hw)? {
                    Response::Width { width, td, .. } => {
                        let td = decode(td)?;
                        println!("hw = {width}");
                        if opts.print {
                            let g = softhw::core::ghd::Ghd::from_td(h, td, width)
                                .ok_or("server witness has no width-k covers")?;
                            print!("{}", g.render(h));
                        }
                        Ok(true)
                    }
                    other => Err(format!("unexpected response {other:?}")),
                },
            }
        }
        (m, _) => Err(format!("--measure {m} is not supported over --connect")),
    }
}

fn run() -> Result<bool, String> {
    let opts = parse_args()?;
    if opts.metrics {
        return run_metrics(&opts);
    }
    let text = std::fs::read_to_string(&opts.file)
        .map_err(|e| format!("cannot read {}: {e}", opts.file))?;
    let h = parse_hypergraph(&text).map_err(|e| e.to_string())?;
    eprintln!(
        "parsed {}: {} vertices, {} edges",
        opts.file,
        h.num_vertices(),
        h.num_edges()
    );
    if opts.connect.is_some() {
        if opts.no_reduce {
            return Err(
                "--no-reduce is a local-solve flag; the server's pipeline is set by \
                 `softhw-serve --no-reduce`"
                    .to_string(),
            );
        }
        return run_remote(&opts, &text, &h);
    }
    if opts.deadline_ms.is_some() {
        return Err(
            "--deadline applies to --connect requests; local solves run to completion".to_string(),
        );
    }
    if opts.stats {
        println!("{:#?}", softhw::hypergraph::stats::stats(&h));
        return Ok(true);
    }
    let constraint_label = if opts.concov { "ConCov-" } else { "" };
    let decide = |k: usize| -> Result<Option<softhw::core::TreeDecomposition>, String> {
        let bags = candidate_bags(&h, k, opts.concov)?;
        Ok(best(&h, &bags, &Trivial).map(|(td, ())| td))
    };
    // The unconstrained solves all go through the cold SolveSpec door
    // (the same one the service dispatches on); only the
    // ConCov-constrained paths keep the candidate-filter + `best`
    // machinery, which has no spec formulation.
    match (opts.measure.as_str(), opts.width) {
        ("shw", Some(k)) if opts.concov => {
            let td = decide(k)?;
            match td {
                Some(td) => {
                    println!("{constraint_label}shw <= {k}: yes");
                    if opts.print {
                        print!("{}", td.render(&h));
                    }
                    Ok(true)
                }
                None => {
                    println!("{constraint_label}shw <= {k}: no");
                    Ok(false)
                }
            }
        }
        ("shw", Some(k)) => match solve(&h, &SolveSpec::shw_leq(k)).map_err(|e| e.to_string())? {
            Solved::ShwDecision(Some(td)) => {
                println!("shw <= {k}: yes");
                if opts.print {
                    print!("{}", td.render(&h));
                }
                Ok(true)
            }
            Solved::ShwDecision(None) => {
                println!("shw <= {k}: no");
                Ok(false)
            }
            _ => unreachable!("shw_leq spec yields a ShwDecision"),
        },
        ("shw", None) => {
            if opts.concov {
                // No spec formulation for the ConCov constraint: sweep
                // the constrained decision per width.
                for k in 1..=h.num_edges().max(1) {
                    if let Some(td) = decide(k)? {
                        println!("{constraint_label}shw = {k}");
                        if opts.print {
                            print!("{}", td.render(&h));
                        }
                        return Ok(true);
                    }
                }
                return Err("no decomposition up to |E| — disconnected input?".to_string());
            }
            // Exact shw goes through the reduce-before-solve front door
            // (simplify, sweep each reduced piece, lift the witnesses);
            // `--no-reduce` keeps the raw per-width sweep.
            match solve(&h, &SolveSpec::shw().with_reduce(!opts.no_reduce))
                .map_err(|e| e.to_string())?
            {
                Solved::ShwWidth(k, td) => {
                    println!("shw = {k}");
                    if opts.print {
                        print!("{}", td.render(&h));
                    }
                    Ok(true)
                }
                _ => unreachable!("shw spec yields a ShwWidth"),
            }
        }
        ("hw", w) => {
            if opts.concov {
                return Err("--concov is a CTD constraint; use --measure shw".into());
            }
            match w {
                Some(k) => match solve(&h, &SolveSpec::hw_leq(k)).map_err(|e| e.to_string())? {
                    Solved::HwDecision(Some(g)) => {
                        println!("hw <= {k}: yes");
                        if opts.print {
                            print!("{}", g.render(&h));
                        }
                        Ok(true)
                    }
                    Solved::HwDecision(None) => {
                        println!("hw <= {k}: no");
                        Ok(false)
                    }
                    _ => unreachable!("hw_leq spec yields a HwDecision"),
                },
                None => match solve(&h, &SolveSpec::hw().with_reduce(!opts.no_reduce))
                    .map_err(|e| e.to_string())?
                {
                    Solved::HwWidth(k, g) => {
                        println!("hw = {k}");
                        if opts.print {
                            print!("{}", g.render(&h));
                        }
                        Ok(true)
                    }
                    _ => unreachable!("hw spec yields a HwWidth"),
                },
            }
        }
        ("ghw", w) => {
            let limits = SoftLimits::default();
            match w {
                Some(k) => {
                    let td = soft_iter::ghw_leq_via_fixpoint(&h, k, &limits)
                        .map_err(|e| e.to_string())?;
                    println!("ghw <= {k}: {}", if td.is_some() { "yes" } else { "no" });
                    Ok(td.is_some())
                }
                None => {
                    let k = soft_iter::ghw(&h, &limits).map_err(|e| e.to_string())?;
                    println!("ghw = {k}");
                    Ok(true)
                }
            }
        }
        ("shw1", w) => {
            let limits = SoftLimits::default();
            match w {
                Some(k) => {
                    let td = soft_iter::shw_i_leq(&h, k, 1, &limits).map_err(|e| e.to_string())?;
                    println!("shw1 <= {k}: {}", if td.is_some() { "yes" } else { "no" });
                    Ok(td.is_some())
                }
                None => {
                    let k = soft_iter::shw_i(&h, 1, &limits).map_err(|e| e.to_string())?;
                    println!("shw1 = {k}");
                    Ok(true)
                }
            }
        }
        ("all", _) => {
            let width = |spec: SolveSpec| -> Result<usize, String> {
                let solved = solve(&h, &spec.with_reduce(!opts.no_reduce));
                let solved = solved.map_err(|e| e.to_string())?;
                Ok(solved.width().expect("exact specs answer with a width"))
            };
            let (s, c) = (width(SolveSpec::shw())?, width(SolveSpec::hw())?);
            let limits = SoftLimits::default();
            let s1 = soft_iter::shw_i(&h, 1, &limits).map_err(|e| e.to_string())?;
            let g = soft_iter::ghw(&h, &limits).map_err(|e| e.to_string())?;
            println!("ghw = {g}, shw1 = {s1}, shw = {s}, hw = {c}");
            Ok(true)
        }
        _ => unreachable!("measure validated in parse_args"),
    }
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
