//! The repo benchmark: four seeded workloads, end-to-end metrics taken
//! from outside the shipped binaries, and a traced pass that attributes
//! them to layers. See `README.md` next to this package.
//!
//! ```text
//! run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>   one run (the driver's form)
//! run.sh --seed <n> [--out <json>] [--smoke]                        the whole suite, both passes
//! run.sh --aa <k> [--seed <n>]                                      k end-to-end repeats, spreads gated
//! ```

mod check;
mod client;
mod gen;
mod layers;
mod proc;
mod refkernel;
mod report;
mod serve;
mod stats;
mod surface;
mod trace;
mod workloads;

use report::{RunResult, END_TO_END, RUN_SECONDS};
use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Duration;

/// How much a run measures.
pub struct Mode {
    /// Time spent in timed windows.
    pub window: Duration,
    /// Set-ups per run; the median is `setup_s`.
    pub setup_reps: usize,
    /// Divisor applied to fixed counts (`--smoke` runs 1/50 of everything).
    pub shrink: u64,
}

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: u64,
    trace: bool,
    smoke: bool,
    aa: Option<usize>,
    out: Option<String>,
    emit: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 1,
        seconds: RUN_SECONDS,
        trace: false,
        smoke: false,
        aa: None,
        out: None,
        emit: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = |what: &str| args.next().ok_or(format!("{flag} needs {what}"));
        let num = |v: String| v.parse::<u64>().map_err(|_| format!("bad number {v:?}"));
        match flag.as_str() {
            "--workload" => a.workload = Some(value("a name")?),
            "--seed" => a.seed = num(value("a number")?)?,
            "--seconds" => a.seconds = num(value("a number")?)?.max(1),
            "--trace" => a.trace = num(value("0 or 1")?)? != 0,
            "--aa" => a.aa = Some(num(value("a count")?)?.max(2) as usize),
            "--out" => a.out = Some(value("a path")?),
            "--smoke" => a.smoke = true,
            "--emit-benchmark-json" | "--emit-glossary" => a.emit = Some(flag.clone()),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if let Some(w) = &a.workload {
        if !workloads::NAMES.contains(&w.as_str()) {
            return Err(format!(
                "unknown workload {w:?}; one of {:?}",
                workloads::NAMES
            ));
        }
    }
    Ok(a)
}

fn mode(args: &Args) -> Mode {
    if args.smoke {
        Mode {
            window: Duration::from_millis(args.seconds * 1000 / 50),
            setup_reps: 1,
            shrink: 50,
        }
    } else {
        Mode {
            window: Duration::from_secs(args.seconds),
            setup_reps: 5,
            shrink: 1,
        }
    }
}

fn run_one(name: &str, seed: u64, traced: bool, mode: &Mode) -> std::io::Result<RunResult> {
    match (workloads::serving(name), traced) {
        (Some(w), false) => serve::run_timed(&*w, seed, mode),
        (Some(w), true) => serve::run_traced(&*w, seed, mode),
        (None, false) => workloads::solve_timed(mode),
        (None, true) => workloads::solve_traced(mode),
    }
}

/// The build and box facts `run.sh` exports, as JSON members.
fn env_json() -> String {
    let get = |key: &str| std::env::var(key).unwrap_or_else(|_| "unknown".into());
    format!(
        "\"nproc\": \"{}\", \"kernel\": \"{}\", \"rustc\": \"{}\", \"commit\": \"{}\"",
        get("BENCH_NPROC"),
        get("BENCH_KERNEL"),
        get("BENCH_RUSTC"),
        get("BENCH_COMMIT")
    )
}

/// Both passes of every workload; prints every metric and optionally
/// writes them to `--out`.
fn suite(args: &Args) -> std::io::Result<bool> {
    let mode = mode(args);
    let mut ok = true;
    let mut blocks = Vec::new();
    for name in workloads::NAMES {
        if args.smoke && name == "solve_hb_k2" {
            continue;
        }
        let timed = run_one(name, args.seed, false, &mode)?;
        print!("{}", timed.render(false));
        let traced = run_one(name, args.seed, true, &mode)?;
        print!("{}", traced.render(true));
        ok &= timed.correct() && traced.correct();
        blocks.push(format!(
            "    \"{name}\": {{\n      \"attempted\": {}, \"failed\": {},\n{},\n{}\n    }}",
            timed.attempted + traced.attempted,
            timed.failed + traced.failed,
            timed.metrics_json(),
            traced.metrics_json()
        ));
    }
    if let Some(out) = &args.out {
        let mut json = String::from("{\n");
        let _ = writeln!(json, "  \"env\": {{{}}},", env_json());
        let _ = writeln!(
            json,
            "  \"seed\": {}, \"run_seconds\": {}, \"smoke\": {},",
            args.seed, args.seconds, args.smoke
        );
        let _ = writeln!(
            json,
            "  \"workloads\": {{\n{}\n  }}\n}}",
            blocks.join(",\n")
        );
        std::fs::write(out, json)?;
        println!("wrote {out}");
    }
    Ok(ok)
}

/// A/A: `k` end-to-end runs per workload on one build; a spread wider
/// than the metric's bound fails the command.
fn aa(args: &Args, k: usize) -> std::io::Result<bool> {
    let mode = mode(args);
    let (mut ok, mut spreads_ok) = (true, true);
    for name in workloads::NAMES {
        let mut runs = Vec::with_capacity(k);
        for _ in 0..k {
            let r = run_one(name, args.seed, false, &mode)?;
            ok &= r.correct();
            runs.push(r);
        }
        println!("== {name}: {k} runs, seed {}", args.seed);
        for e in &END_TO_END {
            let values: Vec<f64> = runs
                .iter()
                .filter_map(|r| r.get(e.name).map(|m| m.value))
                .collect();
            let (min, max) = values
                .iter()
                .fold((f64::MAX, f64::MIN), |(lo, hi), &v| (lo.min(v), hi.max(v)));
            let med = stats::median(&values);
            let spread = (max - min) / med;
            // Sub-second set-ups get an absolute allowance: half a
            // second of scheduler noise is not a regression.
            let within = spread <= e.bound || (e.name == "setup_s" && max - min <= 0.5);
            spreads_ok &= within;
            println!(
                "   {:<12} min {min:>14.4} median {med:>14.4} max {max:>14.4} {:<4} spread {:>6.2}% bound {:>4.0}% {}",
                e.name,
                e.unit,
                spread * 100.0,
                e.bound * 100.0,
                if within { "ok" } else { "EXCEEDED" }
            );
        }
    }
    if !spreads_ok {
        eprintln!("softhw-benchmark: A/A spread exceeded a metric's bound");
    }
    Ok(ok && spreads_ok)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("softhw-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    match args.emit.as_deref() {
        Some("--emit-benchmark-json") => {
            print!("{}", report::benchmark_json());
            return ExitCode::SUCCESS;
        }
        Some(_) => {
            print!("{}", report::glossary());
            return ExitCode::SUCCESS;
        }
        None => {}
    }
    match proc::pin_to_one_cpu() {
        Some(cpu) => eprintln!("softhw-benchmark: pinned to cpu {cpu}"),
        None => eprintln!("softhw-benchmark: could not pin to one cpu; expect bimodal latencies"),
    }
    let outcome = match (&args.workload, args.aa) {
        (Some(name), _) => run_one(name, args.seed, args.trace, &mode(&args)).map(|r| {
            print!("{}", r.render(args.trace));
            // The driver reads the last line of standard output.
            println!("{}", r.contract_json(args.trace));
            r.correct()
        }),
        (None, Some(k)) => aa(&args, k),
        (None, None) => suite(&args),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("softhw-benchmark: failed (wrong or refused answers, or an A/A spread past its bound)");
            ExitCode::from(1)
        }
        Err(e) => {
            eprintln!("softhw-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
