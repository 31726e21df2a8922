//! `softhw-serve` — the decomposition service: a `poll(2)` event loop
//! with a worker pool over a striped result cache, optionally backed by
//! the persistent decomposition store.
//!
//! ```text
//! softhw-serve [options]
//!   --addr <host:port>   bind address (default 127.0.0.1:7401, :0 = any port)
//!   --workers <n>        request-handling worker threads behind the event
//!                        loop (default: cores)
//!   --stripes <n>        result-cache stripes (default 8)
//!   --cache <n>          accepted and ignored (no solver state outlives a request)
//!   --result-cache <n>   per-stripe result-cache capacity (default 1024, 0 = off)
//!   --max-edges <n>      largest schema accepted (default 100000)
//!   --max-conns <n>      exit after serving n connections (for smoke tests)
//!   --queue <n>          decoded requests queued for a free worker; a request
//!                        past it is shed with BUSY in its pipeline slot and
//!                        its connection stays open (default 128)
//!   --default-deadline <ms>  deadline applied to requests that carry no
//!                        DEADLINE directive of their own (default: none)
//!   --store <path>       persistent store: results survive restarts (created
//!                        if missing; torn tails recovered on open)
//!   --warm <n>           warm-start the n hottest stored schemas (default 64)
//!   --no-reduce          disable the reduce-before-solve pipeline: solve every
//!                        `shw` schema raw, without the minor bound that
//!                        refutes too narrow widths before a build (escape
//!                        hatch; answers are identical, the pipeline only
//!                        changes how they are computed; `HW` never reduces)
//!   --slow-ms <ms>       record the span tree of every request slower than
//!                        ms milliseconds in the slow-query ring (0 records
//!                        everything; dumped via `STATS SLOW` and on shutdown)
//!   --no-obs             disable observability: no traces, no histograms, no
//!                        slow-query ring; METRICS still answers, with zeros
//! ```
//!
//! With `--store`, the boot sequence opens the log (truncating a torn
//! tail back to the last valid record), preloads the hottest schemas'
//! answers into the result caches, and prints a `store:` line before the
//! `listening on <addr>` readiness line. On clean exit (`--max-conns`)
//! the write-behind persister drains and fsyncs before the process
//! ends. See the README for the wire format; `softhw-cli --connect`
//! speaks the protocol and `softhw-store` inspects the store offline.
//!
//! SIGINT/SIGTERM trigger a graceful drain: the server stops accepting,
//! cancels in-flight solves against their budgets (clients see `BUSY`),
//! and drains + fsyncs the write-behind store before exiting.

use softhw_service::{ServeOptions, Server, ServiceConfig, ServiceState, ShutdownHandle};
use std::process::ExitCode;

/// Routes SIGINT/SIGTERM to a graceful drain. The handler body is one
/// atomic store ([`ShutdownHandle::shutdown`] is async-signal-safe);
/// the server's own threads do the actual draining. (`softhw-service`
/// itself only builds for unix targets.)
fn install_signal_handlers(handle: ShutdownHandle) {
    use std::sync::OnceLock;
    static HANDLE: OnceLock<ShutdownHandle> = OnceLock::new();
    extern "C" fn on_signal(_sig: i32) {
        if let Some(h) = HANDLE.get() {
            h.shutdown();
        }
    }
    // Set before registering, so the handler can never observe an
    // uninitialised slot.
    let _ = HANDLE.set(handle);
    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    // SAFETY: `on_signal` is an `extern "C"` fn whose body is one
    // OnceLock read plus an atomic store ([`ShutdownHandle::shutdown`])
    // — both async-signal-safe, no allocation, no locks. The handler
    // slot is initialized before registration, so the handler can never
    // observe an empty OnceLock racing its own installation.
    unsafe {
        signal(SIGINT, on_signal);
        signal(SIGTERM, on_signal);
    }
}

struct Args {
    serve: ServeOptions,
    config: ServiceConfig,
    store: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut serve = ServeOptions::default();
    let mut config = ServiceConfig::default();
    let mut store = None;
    let mut args = std::env::args().skip(1);
    let num = |args: &mut dyn Iterator<Item = String>, flag: &str| -> Result<usize, String> {
        let v = args.next().ok_or(format!("{flag} needs a value"))?;
        v.parse().map_err(|_| format!("bad {flag} value {v:?}"))
    };
    while let Some(a) = args.next() {
        match a.as_str() {
            "--addr" => serve.addr = args.next().ok_or("--addr needs a value")?,
            "--workers" => serve.workers = num(&mut args, "--workers")?.max(1),
            "--stripes" => config.stripes = num(&mut args, "--stripes")?.max(1),
            "--cache" => {
                num(&mut args, "--cache")?; // ignored: see --help
            }
            "--result-cache" => config.result_cache_capacity = num(&mut args, "--result-cache")?,
            "--max-edges" => config.max_edges = num(&mut args, "--max-edges")?,
            "--max-conns" => serve.max_conns = Some(num(&mut args, "--max-conns")? as u64),
            "--queue" => serve.queue_depth = num(&mut args, "--queue")?.max(1),
            "--default-deadline" => {
                config.default_deadline_ms = Some(num(&mut args, "--default-deadline")? as u64)
            }
            "--store" => store = Some(args.next().ok_or("--store needs a path")?),
            "--warm" => config.warm_start = num(&mut args, "--warm")?,
            "--no-reduce" => config.no_reduce = true,
            "--slow-ms" => config.slow_ms = Some(num(&mut args, "--slow-ms")? as u64),
            "--no-obs" => config.obs_enabled = false,
            "--help" | "-h" => {
                return Err("usage: softhw-serve [--addr host:port] [--workers n] \
                            [--stripes n] [--result-cache n] [--max-edges n] \
                            [--max-conns n] [--queue n] [--default-deadline ms] \
                            [--store path] [--warm n] [--no-reduce] \
                            [--slow-ms ms] [--no-obs]\n  \
                            --cache n is accepted and ignored: no solver state outlives a request"
                    .to_string())
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Args {
        serve,
        config,
        store,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("softhw-serve: {e}");
            return ExitCode::from(2);
        }
    };
    if !args.config.obs_enabled {
        // Turn the process-wide span gate off too, so instrumented
        // library paths skip even the thread-local probe.
        softhw_obs::set_enabled(false);
    }
    let state = match &args.store {
        Some(path) => {
            let store = match softhw_store::Store::open(path) {
                Ok(s) => s,
                Err(e) => {
                    eprintln!("softhw-serve: cannot open store {path}: {e}");
                    return ExitCode::from(2);
                }
            };
            let stats = store.stats();
            if stats.recovered_bytes > 0 {
                eprintln!(
                    "softhw-serve: store recovery dropped {} corrupt/torn byte(s)",
                    stats.recovered_bytes
                );
            }
            println!(
                "store: {path} ({} schemas, {} results, {} bytes)",
                stats.schemas, stats.results, stats.bytes
            );
            ServiceState::with_store(args.config, store)
        }
        None => ServiceState::new(args.config),
    };
    let server = match Server::bind(args.serve, state) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("softhw-serve: bind failed: {e}");
            return ExitCode::from(2);
        }
    };
    install_signal_handlers(server.shutdown_handle());
    match server.local_addr() {
        Ok(addr) => {
            // Announce the protocol revision, then readiness on stdout
            // so scripts can wait for it.
            println!(
                "protocol {} verbs {}",
                softhw_service::PROTOCOL_VERSION,
                softhw_service::PROTOCOL_VERBS
            );
            println!("listening on {addr}");
            use std::io::Write as _;
            let _ = std::io::stdout().flush();
        }
        Err(e) => {
            eprintln!("softhw-serve: {e}");
            return ExitCode::from(2);
        }
    }
    match server.run_state() {
        Ok((served, state)) => {
            // Dump the slow-query log before the state drops, so an
            // operator gets the span trees of the slowest requests even
            // without having asked for `STATS SLOW` while live.
            let slow = state.slow_log();
            if !slow.is_empty() {
                eprintln!("softhw-serve: slow-query log ({} entries):", {
                    // Each entry renders as a header plus one line per
                    // span; count headers, not lines.
                    slow.iter().filter(|l| !l.starts_with(' ')).count()
                });
                for line in &slow {
                    eprintln!("  {line}");
                }
            }
            // Dropping the state joins the write-behind persister: the
            // store is durable past here.
            eprintln!("softhw-serve: served {served} connections, exiting");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("softhw-serve: {e}");
            ExitCode::from(2)
        }
    }
}
