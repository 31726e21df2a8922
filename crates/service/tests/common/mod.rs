//! Helpers the service's integration tests share: a server on its own
//! thread, a client connection that reads whole frames back, a frame's
//! client-side decode, and the random cacheable requests the hit-path
//! tests replay.

// Each test binary compiles this module and uses only part of it.
#![allow(dead_code)]

use softhw_hypergraph::random::{random_hypergraph, RandomConfig};
use softhw_hypergraph::render_hypergraph;
use softhw_service::{
    read_frame, EvalKind, Request, RequestClass, Response, ServeOptions, Server, ServiceConfig,
    ServiceState, ShutdownHandle,
};
use std::io::{BufReader, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// A frame as a client reads it back.
pub fn decode(frame: &str) -> Response {
    let lines: Vec<String> = frame.lines().map(String::from).collect();
    let (terminator, lines) = lines.split_last().expect("a frame");
    assert_eq!(terminator, "%%", "{frame}");
    Response::decode(lines).expect("the service's own frames decode")
}

/// Every class the result cache keeps an answer for.
pub const CACHEABLE: [RequestClass; 8] = [
    RequestClass::Shw,
    RequestClass::ShwLeq(1),
    RequestClass::ShwLeq(2),
    RequestClass::Hw,
    RequestClass::HwLeq(2),
    RequestClass::Best(EvalKind::Trivial, 2),
    RequestClass::Best(EvalKind::ConCov, 2),
    RequestClass::Best(EvalKind::Shallow(1), 2),
];

/// Random schemas — three connected, one not — each asked every
/// cacheable class.
pub fn cacheable_requests() -> Vec<Request> {
    let mut reqs = Vec::new();
    for (seed, connect) in [(0, true), (1, true), (2, true), (3, false)] {
        let shape = RandomConfig {
            num_vertices: 8,
            num_edges: 8,
            min_arity: 2,
            max_arity: 3,
            connect,
        };
        let schema = render_hypergraph(&random_hypergraph(&shape, seed));
        for class in CACHEABLE {
            reqs.push(Request::new(class, schema.clone()));
        }
    }
    reqs
}

/// A server on its own thread, drained when the guard drops.
pub struct Running {
    pub addr: SocketAddr,
    stop: ShutdownHandle,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl Running {
    pub fn start(workers: usize, config: ServiceConfig) -> Running {
        let opts = ServeOptions {
            addr: "127.0.0.1:0".to_string(),
            workers,
            max_conns: None,
            ..ServeOptions::default()
        };
        let server = Server::bind(opts, ServiceState::new(config)).expect("bind loopback");
        let addr = server.local_addr().expect("local addr");
        let stop = server.shutdown_handle();
        let thread = std::thread::spawn(move || {
            server.run().expect("serve");
        });
        Running {
            addr,
            stop,
            thread: Some(thread),
        }
    }
}

impl Drop for Running {
    fn drop(&mut self) {
        self.stop.shutdown();
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

/// One connection: frames out, re-joined response frames back.
pub struct Client {
    pub stream: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    pub fn connect(addr: SocketAddr) -> Client {
        let stream = TcpStream::connect(addr).expect("connect");
        // A request that waits where it must not fails the test instead
        // of hanging it.
        stream
            .set_read_timeout(Some(Duration::from_secs(20)))
            .expect("read timeout");
        let reader = BufReader::new(stream.try_clone().expect("clone"));
        Client { stream, reader }
    }

    /// Writes `frames` in one `write`, then reads that many responses.
    pub fn send(&mut self, frames: &[String]) -> Vec<String> {
        let burst: String = frames.iter().map(String::as_str).collect();
        self.stream.write_all(burst.as_bytes()).expect("write");
        frames.iter().map(|_| self.read()).collect()
    }

    /// The next response frame, as the bytes the server sent.
    pub fn read(&mut self) -> String {
        let lines = read_frame(&mut self.reader)
            .expect("read")
            .expect("a frame");
        let mut frame = lines.join("\n");
        frame.push_str("\n%%\n");
        frame
    }

    /// One frame at a time, each answered before the next is sent.
    pub fn lockstep(&mut self, frames: &[String]) -> Vec<String> {
        let each = frames.iter();
        each.flat_map(|f| self.send(std::slice::from_ref(f)))
            .collect()
    }

    /// `[queue_wait, result_cache, solve]` observation counts so far
    /// (this scrape's own pass through the worker queue included).
    pub fn stage_counts(&mut self) -> [u64; 3] {
        let scrape = Request::new(RequestClass::Metrics, "").encode();
        let frame = self.send(&[scrape]).remove(0);
        let Response::Metrics { lines } = decode(&frame) else {
            panic!("not a METRICS frame: {frame}");
        };
        let count = |stage: &str| -> u64 {
            let series = format!("softhw_stage_duration_us_count{{stage=\"{stage}\"}} ");
            let line = lines.iter().find_map(|l| l.strip_prefix(series.as_str()));
            line.expect("every stage is exposed")
                .parse()
                .expect("a count")
        };
        [count("queue_wait"), count("result_cache"), count("solve")]
    }
}

/// What the frames sent between two scrapes added to each stage: the
/// later scrape's own `queue_wait` is not theirs.
pub fn grown(after: [u64; 3], before: [u64; 3]) -> [u64; 3] {
    [
        after[0] - before[0] - 1,
        after[1] - before[1],
        after[2] - before[2],
    ]
}
