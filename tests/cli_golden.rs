//! Golden test of `softhw-cli`: stdout and exit code over a fixed matrix
//! of inputs × flag sets, pinned in `tests/golden/cli.txt`. A second test
//! starts an in-process `softhw-serve` and checks that `--connect` answers
//! the questions both modes share with exactly the local lines.
//!
//! On a mismatch the full actual output is written next to the temp
//! inputs and its path is in the panic message; after an intended output
//! change, copy that file over the golden one.

use softhw_hypergraph::random::{random_hypergraph, RandomConfig};
use softhw_hypergraph::{named, render_hypergraph, HypergraphBuilder};
use softhw_service::{ServeOptions, Server, ServiceConfig, ServiceState};
use std::path::{Path, PathBuf};
use std::process::Command;

/// Every flag set of the golden matrix, run on every input.
const FLAGS: &[&str] = &[
    "",
    "--print",
    "--width 1",
    "--width 2",
    "--width 3",
    "--width 1 --print",
    "--width 2 --print",
    "--width 3 --print",
    "--measure hw",
    "--measure hw --width 2",
    "--measure hw --print",
    "--measure hw --width 2 --print",
    "--measure ghw",
    "--measure shw1",
    "--measure all",
    "--concov",
    "--concov --width 2",
    "--concov --print",
    "--concov --width 3 --print",
    "--no-reduce",
    "--width 0",
];

/// The flag sets whose `--connect` output must equal local mode's. Exact
/// `hw --print` is left out on purpose: the server sends the tree of its
/// witness and the client rebuilds the covers.
const SHARED: &[&str] = &[
    "--print",
    "--width 1 --print",
    "--width 2 --print",
    "--width 3 --print",
    "--measure hw",
    "--measure hw --width 2",
    "--concov",
    "--concov --width 2",
    "--concov --print",
    "--concov --width 3 --print",
    "--width 0",
];

/// Cases left out of both tests: exact ConCov-shw on the 4x4 grid sweeps
/// the decision up to `k = 4`, which takes most of a minute unoptimised.
const SKIPPED: &[(&str, &str)] = &[
    ("grid4x4.hg", "--concov"),
    ("grid4x4.hg", "--concov --print"),
];

/// Cases added to both tests on one input: a width no schema reaches
/// decides at `|E|` without sizing anything by `k`, and prints the `k`
/// that was asked for.
const EXTRA: &[(&str, &str)] = &[
    ("cycle6.hg", "--width 18446744073709551615"),
    ("cycle6.hg", "--measure hw --width 18446744073709551615"),
    ("cycle6.hg", "--concov --width 18446744073709551615"),
];

/// Cases added to the local test only, since `--connect` serves neither
/// `ghw` nor `shw1`: a width at or past `|E|` is decided on the vertex
/// sets of the connected components, sizing nothing by `k` and walking
/// no `λ` subsets, so H2 and C6 both answer yes. And flags the hierarchy
/// cannot honour are refused, not dropped: `--concov` beside `ghw`,
/// `shw1` or `all`, and `--width` beside `all`.
const LOCAL_EXTRA: &[(&str, &str)] = &[
    ("h2.hg", "--measure ghw --width 18446744073709551615"),
    ("h2.hg", "--measure shw1 --width 18446744073709551615"),
    ("h2.hg", "--concov --measure ghw"),
    ("h2.hg", "--concov --measure shw1"),
    ("h2.hg", "--concov --measure all"),
    ("h2.hg", "--measure all --width 2"),
    ("cycle6.hg", "--measure ghw --width 18446744073709551615"),
    ("cycle6.hg", "--measure shw1 --width 18446744073709551615"),
];

/// The flag sets to run on input `name`: `flags`, then the cases of
/// [`EXTRA`] and of `extra` on it.
fn flag_sets<'a>(
    name: &'a str,
    flags: &'a [&'a str],
    extra: &'a [(&'a str, &'a str)],
) -> impl Iterator<Item = &'a str> + 'a {
    let extra = EXTRA
        .iter()
        .chain(extra)
        .filter(move |(input, _)| *input == name);
    flags
        .iter()
        .copied()
        .filter(move |f| !SKIPPED.contains(&(name, *f)))
        .chain(extra.map(|(_, f)| *f))
}

fn golden_path() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/cli.txt")
}

/// A fresh directory of its own for one test's inputs.
fn scratch_dir(test: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("softhw-cli-golden-{}-{test}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

/// The inputs, named as in the golden file: the two shipped examples, and
/// six schemas written into `dir` — the last one edgeless, which both
/// modes refuse as an empty schema.
fn inputs(dir: &Path) -> Vec<(&'static str, PathBuf)> {
    let examples = Path::new(env!("CARGO_MANIFEST_DIR")).join("data/examples");
    let mut out = vec![
        ("h2.hg", examples.join("h2.hg")),
        ("cycle6.hg", examples.join("cycle6.hg")),
    ];
    let mut union = HypergraphBuilder::new();
    for (name, scope) in [
        ("t0", &["a", "b"][..]),
        ("t1", &["b", "c"]),
        ("t2", &["c", "a"]),
        ("s0", &["x", "y", "z"]),
        ("s1", &["z", "w"]),
        ("s2", &["w", "x"]),
    ] {
        union.edge(name, scope);
    }
    let cfg = RandomConfig {
        num_vertices: 10,
        num_edges: 12,
        min_arity: 2,
        max_arity: 4,
        connect: true,
    };
    let random = random_hypergraph(&cfg, 7);
    assert_eq!(
        random.num_edges(),
        12,
        "the random schema must have 12 edges"
    );
    for (name, text) in [
        ("cycle5.hg", render_hypergraph(&named::cycle(5))),
        ("grid4x4.hg", render_hypergraph(&named::grid(4, 4))),
        ("disconnected.hg", render_hypergraph(&union.build())),
        ("random12.hg", render_hypergraph(&random)),
        ("parse_error.hg", "e1(a, b), e2(b, c\n".to_string()),
        ("empty.hg", String::new()),
    ] {
        let path = dir.join(name);
        std::fs::write(&path, text).expect("write input");
        out.push((name, path));
    }
    out
}

/// One case of the golden file: a `== <input> <flags>` header, the exit
/// code, then stdout as printed.
fn case(name: &str, path: &Path, flags: &str, connect: Option<&str>) -> String {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_softhw-cli"));
    cmd.arg(path).args(flags.split_whitespace());
    if let Some(addr) = connect {
        cmd.args(["--connect", addr]);
    }
    let out = cmd.output().expect("run softhw-cli");
    format!(
        "== {}\nexit {}\n{}",
        format!("{name} {flags}").trim_end(),
        out.status
            .code()
            .map_or("signal".to_string(), |c| c.to_string()),
        String::from_utf8_lossy(&out.stdout)
    )
}

/// The golden file's cases, keyed by their header line.
fn golden_cases(golden: &str) -> Vec<(&str, String)> {
    let mut cases: Vec<(&str, String)> = Vec::new();
    for line in golden.lines() {
        match (line.strip_prefix("== "), cases.last_mut()) {
            (Some(header), _) => cases.push((header, format!("{line}\n"))),
            (None, Some((_, body))) => body.push_str(&format!("{line}\n")),
            (None, None) => panic!("golden file starts outside a case: {line:?}"),
        }
    }
    cases
}

#[test]
fn local_output_matches_the_golden_file() {
    let dir = scratch_dir("local");
    let actual: Vec<String> = inputs(&dir)
        .iter()
        .flat_map(|(name, path)| {
            flag_sets(name, FLAGS, LOCAL_EXTRA).map(move |f| case(name, path, f, None))
        })
        .collect();
    let actual = actual.concat();
    let golden = std::fs::read_to_string(golden_path()).unwrap_or_default();
    if actual != golden {
        let dump = dir.join("cli.actual.txt");
        std::fs::write(&dump, &actual).expect("write actual output");
        let (want, got) = (golden_cases(&golden), golden_cases(&actual));
        let first = got
            .iter()
            .zip(&want)
            .find(|(g, w)| g != w)
            .map_or("a missing or extra case".to_string(), |(g, _)| {
                g.0.to_string()
            });
        panic!(
            "softhw-cli output differs from {:?}, first at `{first}`; actual output in {dump:?}",
            golden_path()
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn connect_answers_the_shared_questions_with_the_local_lines() {
    let golden = std::fs::read_to_string(golden_path()).expect("golden file");
    let local = golden_cases(&golden);
    let server = Server::bind(
        ServeOptions {
            addr: "127.0.0.1:0".to_string(),
            workers: 2,
            ..ServeOptions::default()
        },
        ServiceState::new(ServiceConfig::default()),
    )
    .expect("bind loopback");
    let addr = server.local_addr().expect("bound address").to_string();
    let stop = server.shutdown_handle();
    let serving = std::thread::spawn(move || server.run());
    let dir = scratch_dir("connect");
    for (name, path) in inputs(&dir) {
        for flags in flag_sets(name, SHARED, &[]) {
            let remote = case(name, &path, flags, Some(&addr));
            let header = format!("{name} {flags}");
            let header = header.trim_end();
            let (_, want) = local
                .iter()
                .find(|(h, _)| h == &header)
                .unwrap_or_else(|| panic!("no golden case `{header}`"));
            assert_eq!(&remote, want, "--connect differs from local mode");
        }
    }
    stop.shutdown();
    serving.join().expect("server thread").expect("server run");
    let _ = std::fs::remove_dir_all(&dir);
}
