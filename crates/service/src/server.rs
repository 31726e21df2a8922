//! The TCP front-end: a readiness-driven event loop, pipelined
//! persistent connections, a bounded worker pool, per-request overload
//! shedding, and graceful drain shutdown.
//!
//! One thread runs a `poll(2)` event loop over the (nonblocking)
//! listener, a self-wake pipe, and every accepted connection. Each
//! connection carries an incremental frame decoder
//! ([`crate::wire::FrameDecoder`]) feeding a per-connection request
//! sequence: clients may **pipeline** any number of request frames
//! (single or `BATCH`) without waiting for responses. A decoded frame is
//! answered in one of two places: by the loop itself (next paragraph),
//! or by a fixed worker pool it reaches through a **bounded**
//! ready-request queue — workers dispatch against the shared
//! [`ServiceState`] under a per-request [`Budget`] and post the encoded
//! response back to the event loop. Either way the loop flushes
//! responses **strictly in request order** per connection —
//! out-of-order completions park in a per-connection reorder buffer
//! until their turn. A malformed frame gets an `ERR` response in its
//! slot; only transport-level violations stop a connection's input.
//!
//! **A repeated request never leaves the loop.** The request path has a
//! front half — scan the body, hash it, probe the result cache — that is
//! all a repeated request needs (see [`crate::state`]), and the loop runs
//! it itself, answering a hit without the job queue, the completion
//! channel or the wake pipe, when a frame meets three conditions, each
//! read off what the loop can see:
//!
//! - *It is a single request of a cacheable class.* `STATS` runs a
//!   reduction, `BATCH` is many requests, `HELLO` / `METRICS` / `SLOW`
//!   have nothing to probe, and a frame that does not decode is a
//!   worker's to report: all of these queue as before, and one the loop
//!   has decoded is handed on decoded, so no frame is decoded twice.
//! - *It is at the head of its connection's pipeline*: every earlier
//!   response of the connection is already in the write buffer, which is
//!   exactly when a hand-off to a worker would be pure latency. A frame
//!   behind one a worker still holds queues behind it, so a connection's
//!   requests run in the order it sent them, pipelined or not, and a
//!   `STATS` reads the same counters either way.
//! - *Its body is at most `INLINE_BODY_MAX` bytes*, so one front half
//!   costs the loop microseconds however large a schema a client sends.
//!
//! A hit is the answer's frame exactly as the result cache stores it,
//! copied into the connection's write buffer: nothing is encoded on the
//! loop. A front half that misses goes to a worker together with what it
//! computed, and the worker runs the back half (store, solvers, insert)
//! from there. The loop takes one lock doing this: the stripe's probe
//! lock, which no thread holds across anything but one `get` or one
//! `insert`. Solves serialise on a second per-stripe lock that only back
//! halves — so only workers — take: the loop never waits for a solve.
//!
//! **Shedding:** when the ready-request queue is full, the overflowing
//! *request* (not the whole connection) is answered `BUSY
//! <retry-after-ms>` in its pipeline slot, before any solver work, and
//! the connection stays usable. A request the loop answers itself never
//! enters the queue, so it is never shed: under a full queue a repeated
//! request at the head of its connection is still answered, while a
//! never-seen one — its probe missed, its back half needs a worker — gets
//! `BUSY`. Backpressure is bidirectional: a connection whose response
//! bytes back up past a high-water mark stops being read until the
//! client drains it.
//!
//! **Graceful drain:** [`Server::shutdown_handle`] hands out a
//! [`ShutdownHandle`] whose [`shutdown`](ShutdownHandle::shutdown) is a
//! single atomic store (async-signal-safe — `softhw-serve` calls it
//! from its SIGINT/SIGTERM handlers). The event loop notices within one
//! poll interval: it stops accepting, cancels every in-flight request's
//! [`Budget`] (long solves abort cooperatively and answer `BUSY`),
//! answers never-served connections with `BUSY` instead of silence,
//! flushes queued responses under a bounded grace period, and drains +
//! fsyncs the write-behind store channel before [`Server::run`] returns.

use crate::state::{class_key, Front, Miss, RequestCtx, ServiceState, BUSY_RETRY_MS};
use crate::wire::{FrameDecoder, Request, Response, WireRequest};
use softhw_core::Budget;
use std::collections::{BTreeMap, HashMap};
use std::io::{self, BufReader};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// The event loop's poll timeout: how fast a drain request (an atomic
/// store, no wakeup of its own) is noticed while the loop is idle.
const POLL_INTERVAL_MS: i32 = 10;
/// Response bytes a connection may buffer before the loop stops reading
/// more requests from it (resumed as soon as the client drains).
const OUT_HIGH_WATER: usize = 1 << 20;
/// How long a draining server keeps flushing queued responses before
/// force-closing what remains.
const DRAIN_GRACE: Duration = Duration::from_secs(2);
/// Read chunk size for the event loop's nonblocking reads.
const READ_CHUNK: usize = 16 * 1024;
/// The largest request body the event loop scans itself; a longer one
/// goes to a worker whatever its position in the pipeline, so the cost
/// of one inline front half — and with it how long every other
/// connection waits for the loop — is bounded by a constant.
const INLINE_BODY_MAX: usize = 2 * 1024;

#[cfg(not(unix))]
compile_error!("softhw-service serves through a poll(2) event loop: unix targets only");

/// Minimal `poll(2)`/`pipe(2)` bindings. Raw `extern "C"` declarations
/// — the workspace deliberately takes no libc dependency (the precedent
/// is `softhw-serve`'s `signal` binding).
mod sys {
    use std::io;
    use std::os::raw::{c_int, c_ulong};

    #[repr(C)]
    pub struct PollFd {
        pub fd: c_int,
        pub events: i16,
        pub revents: i16,
    }

    pub const POLLIN: i16 = 0x001;
    pub const POLLOUT: i16 = 0x004;
    pub const POLLERR: i16 = 0x008;
    pub const POLLHUP: i16 = 0x010;
    pub const POLLNVAL: i16 = 0x020;

    const F_GETFL: c_int = 3;
    const F_SETFL: c_int = 4;
    #[cfg(target_os = "linux")]
    const O_NONBLOCK: c_int = 0o4000;
    #[cfg(not(target_os = "linux"))]
    const O_NONBLOCK: c_int = 0x0004;

    #[cfg(target_os = "linux")]
    type NFds = c_ulong;
    #[cfg(not(target_os = "linux"))]
    type NFds = u32;

    extern "C" {
        fn poll(fds: *mut PollFd, nfds: NFds, timeout: c_int) -> c_int;
        fn pipe(fds: *mut c_int) -> c_int;
        fn fcntl(fd: c_int, cmd: c_int, ...) -> c_int;
        fn read(fd: c_int, buf: *mut u8, count: usize) -> isize;
        fn write(fd: c_int, buf: *const u8, count: usize) -> isize;
        fn close(fd: c_int) -> c_int;
    }

    /// `poll(2)` over `fds`; `EINTR` reports as zero ready fds rather
    /// than an error (the loop re-polls immediately).
    pub fn poll_fds(fds: &mut [PollFd], timeout_ms: c_int) -> io::Result<usize> {
        // SAFETY: `fds` is a live `&mut [PollFd]` of initialized
        // entries for the whole call; the kernel reads/writes only
        // within the `fds.len()` entries the pointer+length describe.
        let n = unsafe { poll(fds.as_mut_ptr(), fds.len() as NFds, timeout_ms) };
        if n < 0 {
            let e = io::Error::last_os_error();
            if e.kind() == io::ErrorKind::Interrupted {
                return Ok(0);
            }
            return Err(e);
        }
        Ok(n as usize)
    }

    /// A nonblocking self-wake pipe: workers write one byte to make an
    /// idle `poll` return immediately.
    pub struct WakePipe {
        rfd: c_int,
        wfd: c_int,
    }

    impl WakePipe {
        pub fn new() -> io::Result<WakePipe> {
            let mut fds = [0 as c_int; 2];
            // SAFETY: `fds` is a stack array of exactly the 2 c_ints
            // pipe(2) writes through the pointer; it outlives the call.
            if unsafe { pipe(fds.as_mut_ptr()) } != 0 {
                return Err(io::Error::last_os_error());
            }
            let [rfd, wfd] = fds;
            for fd in fds {
                // SAFETY: `fd` is one of the two descriptors pipe(2)
                // just opened and neither has been closed; F_GETFL
                // takes no third argument.
                let flags = unsafe { fcntl(fd, F_GETFL) };
                // SAFETY: same open fd; F_SETFL's third argument is the
                // flag word, passed by value.
                if flags < 0 || unsafe { fcntl(fd, F_SETFL, flags | O_NONBLOCK) } < 0 {
                    let e = io::Error::last_os_error();
                    // SAFETY: both fds are open (opened above, not yet
                    // closed on this error path) and owned by us; each
                    // is closed exactly once.
                    unsafe {
                        close(rfd);
                        close(wfd);
                    }
                    return Err(e);
                }
            }
            Ok(WakePipe { rfd, wfd })
        }

        pub fn read_fd(&self) -> c_int {
            self.rfd
        }

        pub fn write_fd(&self) -> c_int {
            self.wfd
        }

        /// Discards every pending wake byte.
        pub fn drain(&self) {
            let mut buf = [0u8; 256];
            loop {
                // SAFETY: `self.rfd` is the pipe's read end, owned by
                // this struct and open until Drop; `buf` is a live
                // stack buffer of exactly `buf.len()` writable bytes.
                let n = unsafe { read(self.rfd, buf.as_mut_ptr(), buf.len()) };
                if n <= 0 {
                    break;
                }
            }
        }
    }

    impl Drop for WakePipe {
        fn drop(&mut self) {
            // SAFETY: the struct owns both descriptors; Drop runs at
            // most once, so each fd is closed exactly once and never
            // used afterwards.
            unsafe {
                close(self.rfd);
                close(self.wfd);
            }
        }
    }

    /// Wakes the event loop. A full pipe (`EAGAIN`) is fine — the wake
    /// is already pending.
    pub fn wake(wfd: c_int) {
        let b = [1u8];
        // SAFETY: `wfd` is the pipe's write end, kept open for the
        // server's lifetime; `b` provides the 1 readable byte the call
        // names. write(2) is async-signal-safe, so waking from any
        // thread or handler context is sound.
        let _ = unsafe { write(wfd, b.as_ptr(), 1) };
    }
}

/// Server options; see field docs.
#[derive(Clone, Debug)]
pub struct ServeOptions {
    /// Bind address, e.g. `127.0.0.1:7401` (`:0` for an OS-picked port).
    pub addr: String,
    /// Request-handling worker threads.
    pub workers: usize,
    /// Stop after accepting this many connections (`None` = run
    /// forever). Used by smoke tests and benchmarks for clean shutdown.
    pub max_conns: Option<u64>,
    /// Bound on decoded requests queued for a free worker. A request
    /// arriving with the queue full is shed with `BUSY` in its pipeline
    /// slot instead of waiting (and instead of the event loop stalling);
    /// its connection stays open.
    pub queue_depth: usize,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            addr: "127.0.0.1:7401".to_string(),
            workers: std::thread::available_parallelism()
                .map(|p| p.get())
                .unwrap_or(4),
            max_conns: None,
            queue_depth: 128,
        }
    }
}

/// Drain-shutdown state shared between the event loop, the workers,
/// and [`ShutdownHandle`]s: the stop flag plus the registry of
/// in-flight request budgets to cancel.
#[derive(Default)]
struct Drain {
    stop: AtomicBool,
    next_id: AtomicU64,
    inflight: Mutex<HashMap<u64, Budget>>,
}

impl Drain {
    fn stopping(&self) -> bool {
        self.stop.load(Ordering::SeqCst)
    }

    /// Registers an in-flight request's budget; the returned id
    /// deregisters it.
    fn register(&self, budget: Budget) -> u64 {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        self.inflight
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .insert(id, budget);
        id
    }

    fn deregister(&self, id: u64) {
        self.inflight
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .remove(&id);
    }

    /// Cancels every registered in-flight budget. Requests that
    /// register *after* this runs observe the stop flag themselves and
    /// self-cancel (see [`execute`]), closing the race.
    fn cancel_inflight(&self) {
        let inflight = self.inflight.lock().unwrap_or_else(PoisonError::into_inner);
        for budget in inflight.values() {
            budget.cancel();
        }
    }
}

/// A cloneable handle that asks a running [`Server`] to drain and stop.
#[derive(Clone)]
pub struct ShutdownHandle {
    drain: Arc<Drain>,
}

impl ShutdownHandle {
    /// Requests a graceful drain: stop accepting, cancel in-flight
    /// work, flush the store. This is a single atomic store —
    /// **async-signal-safe**, so it may be called from a SIGINT/SIGTERM
    /// handler. The heavy lifting (budget cancellation, worker join,
    /// store fsync) happens on the server's own threads.
    pub fn shutdown(&self) {
        self.drain.stop.store(true, Ordering::SeqCst);
    }

    /// True once a shutdown has been requested.
    pub fn is_shutting_down(&self) -> bool {
        self.drain.stopping()
    }
}

/// A bound listener plus the shared state, ready to run.
pub struct Server {
    listener: TcpListener,
    state: ServiceState,
    opts: ServeOptions,
    drain: Arc<Drain>,
}

impl Server {
    /// Binds the listener. The state is owned by the server and shared
    /// by reference with the scoped workers — no leak, no `Arc`.
    pub fn bind(opts: ServeOptions, state: ServiceState) -> io::Result<Server> {
        let listener = TcpListener::bind(&opts.addr)?;
        Ok(Server {
            listener,
            state,
            opts,
            drain: Arc::new(Drain::default()),
        })
    }

    /// The bound address (resolves `:0` to the actual port).
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// A handle that can request a graceful drain of this server while
    /// [`Server::run`] owns it (e.g. from a signal handler or another
    /// thread).
    pub fn shutdown_handle(&self) -> ShutdownHandle {
        ShutdownHandle {
            drain: Arc::clone(&self.drain),
        }
    }

    /// Runs the event loop until `max_conns` connections were accepted
    /// *and drained*, a [`ShutdownHandle`] fires, or forever; returns
    /// the number of connections accepted. Worker panics are
    /// *contained*: request execution runs under `catch_unwind`, so a
    /// panicking handler (a solver invariant the hardened paths did not
    /// cover) degrades to an `ERR internal` response in that request's
    /// pipeline slot — the connection lives on and the pool never
    /// shrinks. State locks recover from poisoning (a cache poisoned
    /// mid-mutation at worst degrades to the cold recompute paths).
    /// Before returning, the write-behind store channel (if any) is
    /// drained and fsynced.
    pub fn run(self) -> io::Result<u64> {
        self.run_state().map(|(accepted, _)| accepted)
    }

    /// [`Server::run`], additionally handing the (now quiescent)
    /// [`ServiceState`] back to the caller — `softhw-serve` uses this
    /// to dump the slow-query log on shutdown.
    pub fn run_state(self) -> io::Result<(u64, ServiceState)> {
        let accepted = run_event_loop(&self.listener, &self.state, &self.drain, &self.opts)?;
        // Workers are joined: flush the write-behind store channel so
        // every acknowledged result is on disk before run() returns.
        self.state.sync_store();
        Ok((accepted, self.state))
    }
}

/// What a worker is handed. A frame is decoded once, wherever that
/// happens first.
enum Work {
    /// A frame as the decoder produced it — behind a request a worker
    /// holds, too large for the loop, or one that does not decode: the
    /// worker decodes it and runs the whole request.
    Frame(Vec<String>),
    /// A frame the event loop decoded but does not answer (`STATS`,
    /// `BATCH`, `HELLO` / `METRICS` / `SLOW`): the worker runs the whole
    /// request.
    Decoded(WireRequest),
    /// A single request whose front half ran on the event loop and
    /// missed: the worker runs the back half from what the front half
    /// computed (boxed: a job is moved through the queue, and most are
    /// the other variant).
    Fronted(Box<(Request, Miss)>),
}

/// A request frame on its way to the worker pool.
struct Job {
    conn_id: u64,
    seq: u64,
    /// Trace id minted by the event loop: `(conn_id << 32) | seq`.
    trace: u64,
    /// When the event loop queued this job (queue-wait metric).
    submitted: Instant,
    work: Work,
}

/// A finished response on its way back to the event loop.
struct Completion {
    conn_id: u64,
    seq: u64,
    /// When the worker finished (reorder-dwell metric).
    finished: Instant,
    bytes: String,
}

/// Per-connection event-loop state: the socket, the incremental frame
/// decoder, the in-order response assembly line.
struct Conn {
    stream: TcpStream,
    decoder: FrameDecoder,
    /// Encoded response bytes queued for the socket.
    out: Vec<u8>,
    /// How much of `out` is already written.
    out_pos: usize,
    /// Sequence number assigned to the next decoded request frame.
    next_seq: u64,
    /// The response sequence the socket gets next — responses always
    /// flush in request order.
    next_write: u64,
    /// Completed responses that arrived out of order, with when each
    /// finished (reorder-dwell metric).
    pending: BTreeMap<u64, (String, Instant)>,
    /// Requests handed to workers (or the shed path) not yet completed.
    inflight: usize,
    /// Input has ended: client EOF or a transport violation.
    read_closed: bool,
    /// Stop decoding frames; just drain and discard input bytes (a
    /// draining server, or a connection that committed a protocol
    /// violation but still has responses to deliver).
    discard_input: bool,
    /// During a drain: this connection had undelivered responses, so
    /// half-close and wait briefly for the client's EOF instead of
    /// closing outright (an immediate close could RST the responses
    /// away).
    linger_on_close: bool,
    /// The write side was shut down while lingering.
    lingering: bool,
}

impl Conn {
    fn new(stream: TcpStream) -> Conn {
        Conn {
            stream,
            decoder: FrameDecoder::new(),
            out: Vec::new(),
            out_pos: 0,
            next_seq: 0,
            next_write: 0,
            pending: BTreeMap::new(),
            inflight: 0,
            read_closed: false,
            discard_input: false,
            linger_on_close: false,
            lingering: false,
        }
    }

    fn wants_write(&self) -> bool {
        self.out_pos < self.out.len()
    }

    fn wants_read(&self) -> bool {
        !self.read_closed && (self.discard_input || self.out.len() - self.out_pos < OUT_HIGH_WATER)
    }

    /// Nothing left to produce or deliver on this connection.
    fn idle(&self) -> bool {
        self.inflight == 0 && self.pending.is_empty() && !self.wants_write()
    }

    /// Moves a completed response into the write buffer if it is the
    /// one the socket gets next — and with it every parked response that
    /// is now contiguous — or parks it at its sequence slot, recording
    /// how long each dwelt between completion and write buffer (atomics
    /// only — this runs on the event loop).
    fn queue_response(&mut self, seq: u64, bytes: String, finished: Instant, state: &ServiceState) {
        if seq != self.next_write {
            self.pending.insert(seq, (bytes, finished));
            return;
        }
        let mut next = Some((bytes, finished));
        while let Some((b, arrived)) = next {
            state.note_reorder_dwell(arrived.elapsed().as_micros().min(u64::MAX as u128) as u64);
            self.out.extend_from_slice(b.as_bytes());
            self.next_write += 1;
            next = self.pending.remove(&self.next_write);
        }
    }

    /// Writes as much buffered output as the socket accepts right now.
    fn flush(&mut self) -> io::Result<()> {
        use std::io::Write as _;
        while self.out_pos < self.out.len() {
            let Some(chunk) = self.out.get(self.out_pos..) else {
                break;
            };
            match self.stream.write(chunk) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => self.out_pos += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        if self.out_pos == self.out.len() {
            self.out.clear();
            self.out_pos = 0;
        } else if self.out_pos > (1 << 16) {
            // Compact so a long-lived pipelining connection cannot grow
            // the buffer by its already-written prefix.
            self.out.drain(..self.out_pos);
            self.out_pos = 0;
        }
        Ok(())
    }
}

/// Executes one job — a frame to run whole (single or batch), decoded
/// here if the loop did not, or the back half of a request the event
/// loop fronted — under its budget, with drain registration: the whole
/// per-request policy of the worker pool. Returns the encoded response
/// frame.
fn execute(work: Work, state: &ServiceState, drain: &Drain, trace: u64) -> String {
    let (req, fronted) = match work {
        Work::Frame(lines) => match WireRequest::decode(&lines) {
            Ok(req) => (req, None),
            Err(e) => return Response::error("parse", e).encode(),
        },
        Work::Decoded(req) => (req, None),
        Work::Fronted(fronted) => {
            let (req, miss) = *fronted;
            (WireRequest::Single(req), Some(miss))
        }
    };
    let budget = state.request_budget(&req);
    let id = drain.register(budget.clone());
    // A drain that fired between queueing and execution has already
    // swept the registry: observe it ourselves so the request still
    // aborts promptly.
    if drain.stopping() {
        budget.cancel();
    }
    let frame = match (&req, fronted) {
        (WireRequest::Single(one), Some(miss)) => state.handle_back(one, miss, &budget, trace),
        _ => {
            let ctx = RequestCtx {
                budget: Some(budget),
                trace: Some(trace),
            };
            state.handle(&req, &ctx)
        }
    };
    drain.deregister(id);
    frame
}

/// The frame a request whose handler panicked is answered with. The
/// unwound request's trace is still open on this thread: it is ended
/// here, or it would adopt the spans of every request the thread handles
/// next.
fn panicked() -> String {
    softhw_obs::end_trace();
    Response::error("internal", "request handler panicked").encode()
}

/// The worker→loop "a completion is ready" signal: a self-wake pipe
/// plus a coalescing flag, so a burst of completions between two loop
/// rounds costs one pipe write, not one per response.
struct CompletionSignal {
    pipe: sys::WakePipe,
    pending: AtomicBool,
}

impl CompletionSignal {
    /// Called by workers after sending on the completion channel.
    fn notify(&self) {
        if !self.pending.swap(true, Ordering::AcqRel) {
            sys::wake(self.pipe.write_fd());
        }
    }

    /// Called by the event loop each round, *before* draining the
    /// completion channel: a completion sent after this always buys a
    /// fresh pipe write, so the loop cannot sleep past it.
    fn rearm(&self) {
        self.pending.store(false, Ordering::Release);
    }
}

fn worker_loop(
    jobs: &Mutex<mpsc::Receiver<Job>>,
    done: mpsc::Sender<Completion>,
    signal: &CompletionSignal,
    state: &ServiceState,
    drain: &Drain,
) {
    loop {
        // Holding the lock only for the recv keeps the pool
        // work-stealing: whichever worker is free next takes the next
        // request.
        let next = match jobs.lock() {
            Ok(guard) => guard.recv(),
            Err(poisoned) => poisoned.into_inner().recv(),
        };
        let Ok(job) = next else { break };
        state.note_queue_wait(job.submitted.elapsed().as_micros().min(u64::MAX as u128) as u64);
        let bytes = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            execute(job.work, state, drain, job.trace)
        }))
        .unwrap_or_else(|_| panicked());
        let sent = done.send(Completion {
            conn_id: job.conn_id,
            seq: job.seq,
            finished: Instant::now(),
            bytes,
        });
        if sent.is_err() {
            break; // event loop gone
        }
        signal.notify();
    }
}

/// The readiness-driven serving core. See the module docs for the
/// shape; this function owns every connection and the job queue sender,
/// and returns once the accept target is reached and drained (or a
/// shutdown completes).
fn run_event_loop(
    listener: &TcpListener,
    state: &ServiceState,
    drain: &Drain,
    opts: &ServeOptions,
) -> io::Result<u64> {
    listener.set_nonblocking(true)?;
    let signal = CompletionSignal {
        pipe: sys::WakePipe::new()?,
        pending: AtomicBool::new(false),
    };
    let workers = opts.workers.max(1);
    let (job_tx, job_rx) = mpsc::sync_channel::<Job>(opts.queue_depth.max(1));
    let job_rx = Mutex::new(job_rx);
    let (done_tx, done_rx) = mpsc::channel::<Completion>();
    let mut result = Ok(0);

    std::thread::scope(|scope| {
        for _ in 0..workers {
            let done_tx = done_tx.clone();
            let job_rx = &job_rx;
            let signal = &signal;
            scope.spawn(move || worker_loop(job_rx, done_tx, signal, state, drain));
        }
        drop(done_tx);
        result = event_loop(listener, state, drain, opts, &signal, job_tx, &done_rx);
        // job_tx was dropped inside event_loop: the workers drain the
        // queue and exit; the scope joins them here.
    });
    result
}

/// One iteration's bookkeeping lives in locals; connections are keyed
/// by a monotonically assigned id (completions for already-closed
/// connections simply miss the map and are dropped).
fn event_loop(
    listener: &TcpListener,
    state: &ServiceState,
    drain: &Drain,
    opts: &ServeOptions,
    signal: &CompletionSignal,
    job_tx: mpsc::SyncSender<Job>,
    done_rx: &mpsc::Receiver<Completion>,
) -> io::Result<u64> {
    use std::os::unix::io::AsRawFd;
    use sys::{POLLERR, POLLHUP, POLLIN, POLLNVAL, POLLOUT};

    let mut conns: HashMap<u64, Conn> = HashMap::new();
    let mut next_conn_id: u64 = 0;
    let mut accepted: u64 = 0;
    let mut accepting = true;
    let mut draining = false;
    let mut drain_deadline = None;
    // This round's poll set, which connection sits in which of its slots,
    // and the read buffer: allocated once, reused every round.
    let mut fds: Vec<sys::PollFd> = Vec::new();
    let mut order: Vec<(usize, u64)> = Vec::new();
    let mut chunk = vec![0u8; READ_CHUNK];

    loop {
        // Notice a drain request exactly once: stop accepting, cancel
        // in-flight budgets, stop decoding new frames, answer
        // never-served connections with BUSY instead of silence.
        if drain.stopping() && !draining {
            draining = true;
            accepting = false;
            drain.cancel_inflight();
            drain_deadline = Some(Instant::now() + DRAIN_GRACE);
            for conn in conns.values_mut() {
                conn.discard_input = true;
                if conn.next_seq == 0 {
                    state.note_busy_shed();
                    let busy = Response::Busy {
                        retry_after_ms: BUSY_RETRY_MS,
                    };
                    conn.out.extend_from_slice(busy.encode().as_bytes());
                }
                // Only connections with responses still to deliver need
                // the half-close linger; idle ones close outright.
                conn.linger_on_close =
                    conn.wants_write() || !conn.pending.is_empty() || conn.inflight > 0;
            }
        }
        if opts.max_conns.is_some_and(|m| accepted >= m) {
            accepting = false;
        }
        if !accepting && conns.is_empty() && (draining || opts.max_conns.is_some()) {
            break;
        }
        if draining && drain_deadline.is_some_and(|d: Instant| Instant::now() >= d) {
            // Grace expired: force-close what remains.
            for _ in conns.drain() {
                state.note_conn_closed();
            }
            break;
        }

        // Build this round's poll set: wake pipe, listener (while
        // accepting), then every connection with its readiness needs.
        fds.clear();
        fds.push(sys::PollFd {
            fd: signal.pipe.read_fd(),
            events: POLLIN,
            revents: 0,
        });
        let listener_slot = if accepting {
            fds.push(sys::PollFd {
                fd: listener.as_raw_fd(),
                events: POLLIN,
                revents: 0,
            });
            Some(fds.len() - 1)
        } else {
            None
        };
        order.clear();
        for (&id, conn) in conns.iter() {
            let mut ev: i16 = 0;
            if conn.wants_read() {
                ev |= POLLIN;
            }
            if conn.wants_write() {
                ev |= POLLOUT;
            }
            order.push((fds.len(), id));
            fds.push(sys::PollFd {
                fd: conn.stream.as_raw_fd(),
                events: ev,
                revents: 0,
            });
        }
        sys::poll_fds(&mut fds, POLL_INTERVAL_MS)?;

        // 1. Route finished responses to their reorder buffers. The
        // completion channel is drained every round whether or not the
        // wake pipe fired, so a missed wake can only add latency, never
        // lose a response.
        if fds.first().is_some_and(|f| f.revents & POLLIN != 0) {
            signal.pipe.drain();
        }
        signal.rearm();
        while let Ok(c) = done_rx.try_recv() {
            if let Some(conn) = conns.get_mut(&c.conn_id) {
                conn.inflight -= 1;
                conn.queue_response(c.seq, c.bytes, c.finished, state);
            }
        }

        // 2. Accept whatever is pending (the listener is nonblocking).
        if let Some(slot) = listener_slot {
            if fds.get(slot).is_some_and(|f| f.revents & POLLIN != 0) {
                loop {
                    match listener.accept() {
                        Ok((stream, _)) => {
                            accepted += 1;
                            let _ = stream.set_nodelay(true);
                            if stream.set_nonblocking(true).is_err() {
                                continue; // count it, but it cannot be served
                            }
                            state.note_conn_opened();
                            conns.insert(next_conn_id, Conn::new(stream));
                            next_conn_id += 1;
                            if opts.max_conns.is_some_and(|m| accepted >= m) {
                                break;
                            }
                        }
                        Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                        Err(_) => break, // transient; retry next round
                    }
                }
            }
        }

        // 3. Readable connections: pull bytes through the incremental
        // decoder and submit every completed frame: answer it here if
        // it is at the head of its pipeline and the result cache has it,
        // else queue it for a worker (or shed it with an in-slot BUSY).
        for &(slot, id) in &order {
            let Some(re) = fds.get(slot).map(|f| f.revents) else {
                continue;
            };
            if re & (POLLERR | POLLNVAL) != 0 {
                if let Some(_conn) = conns.remove(&id) {
                    state.note_conn_closed();
                }
                continue;
            }
            if re & (POLLIN | POLLHUP) != 0 {
                if let Some(conn) = conns.get_mut(&id) {
                    if !conn.read_closed {
                        on_readable(conn, id, &mut chunk, state, &job_tx);
                    }
                }
            }
        }

        // 4. Flush and reap. Flushing runs opportunistically for every
        // connection with queued bytes (not only POLLOUT-ready ones):
        // a response queued this round usually fits the socket buffer
        // and goes out with no extra poll round-trip.
        conns.retain(|_, conn| {
            if conn.wants_write() && conn.flush().is_err() {
                state.note_conn_closed();
                return false;
            }
            let done = if draining {
                conn.idle() && (!conn.linger_on_close || conn.read_closed)
            } else {
                conn.read_closed && conn.idle()
            };
            if done {
                state.note_conn_closed();
                return false;
            }
            if draining && conn.idle() && conn.linger_on_close && !conn.lingering {
                // Everything delivered: half-close, then wait (bounded
                // by the drain grace) for the client's EOF so the final
                // frames cannot be RST away by unread input.
                let _ = conn.stream.shutdown(std::net::Shutdown::Write);
                conn.lingering = true;
            }
            true
        });
    }
    drop(job_tx);
    Ok(accepted)
}

/// Drains the socket's currently readable bytes into the frame decoder
/// and submits every completed frame. Called with `POLLIN`/`POLLHUP`
/// set; reads until a short read (the socket is drained, and `poll` is
/// level-triggered: whatever arrives next reports readable again),
/// `WouldBlock`, EOF, error, or the connection's output backpressure
/// threshold.
fn on_readable(
    conn: &mut Conn,
    id: u64,
    chunk: &mut [u8],
    state: &ServiceState,
    job_tx: &mpsc::SyncSender<Job>,
) {
    loop {
        match io::Read::read(&mut conn.stream, chunk) {
            Ok(0) => {
                conn.read_closed = true;
                return;
            }
            Ok(n) => {
                if !conn.discard_input {
                    let mut frames = Vec::new();
                    if conn
                        .decoder
                        .push(chunk.get(..n).unwrap_or(&[]), &mut frames)
                        .is_err()
                    {
                        // Protocol violation: take no more input, but still
                        // deliver the responses already owed.
                        conn.read_closed = true;
                        conn.discard_input = true;
                    }
                    for lines in frames {
                        submit(conn, id, lines, state, job_tx);
                    }
                }
                if n < chunk.len() || conn.read_closed || !conn.wants_read() {
                    return;
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => {
                conn.read_closed = true;
                conn.discard_input = true;
                return;
            }
        }
    }
}

/// The front half of a head-of-line frame, on the event loop — if the
/// frame is one the loop may touch: a single request of a cacheable
/// class whose body is at most [`INLINE_BODY_MAX`] bytes. `Ok` is the
/// encoded answer (a result-cache hit's stored frame, or a request
/// error); `Err` is what a worker must be handed instead — the frame
/// untouched, the request as decoded here, or the request with what its
/// front half computed. A probe carries no budget, so nothing is
/// registered for a drain to cancel; a panic is contained like a
/// worker's.
fn try_front(lines: Vec<String>, state: &ServiceState, trace: u64) -> Result<String, Work> {
    // The body is the lines after the header, joined by newlines.
    let body_len = lines.iter().skip(1).map(|l| l.len() + 1).sum::<usize>();
    if body_len.saturating_sub(1) > INLINE_BODY_MAX {
        return Err(Work::Frame(lines));
    }
    let req = match WireRequest::decode(&lines) {
        Ok(WireRequest::Single(req)) if class_key(req.class).is_some() => req,
        Ok(req) => return Err(Work::Decoded(req)),
        Err(_) => return Err(Work::Frame(lines)),
    };
    let front = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        state.handle_front(&req, trace)
    }))
    .unwrap_or_else(|_| Front::Done(panicked()));
    match front {
        Front::Done(frame) => Ok(frame),
        Front::Miss(miss) => Err(Work::Fronted(Box::new((req, miss)))),
    }
}

/// Assigns the next pipeline slot to a decoded frame and answers it —
/// here, if it is at the head of its connection's pipeline and
/// [`try_front`] can — or hands it to the worker pool; a full queue
/// sheds the *request* with an in-slot `BUSY`, leaving the connection
/// open.
fn submit(
    conn: &mut Conn,
    id: u64,
    lines: Vec<String>,
    state: &ServiceState,
    job_tx: &mpsc::SyncSender<Job>,
) {
    let seq = conn.next_seq;
    conn.next_seq += 1;
    state.note_pipeline_depth(conn.inflight as u64 + 1);
    // The per-request trace id: connection id in the high half,
    // pipeline slot in the low half.
    let trace = (id << 32) | (seq & 0xffff_ffff);
    // Head of the line: every earlier response of this connection is
    // already in the write buffer, so this one could follow it now.
    let work = if conn.next_write == seq {
        match try_front(lines, state, trace) {
            Ok(bytes) => return conn.queue_response(seq, bytes, Instant::now(), state),
            Err(work) => work,
        }
    } else {
        Work::Frame(lines)
    };
    conn.inflight += 1;
    match job_tx.try_send(Job {
        conn_id: id,
        seq,
        trace,
        submitted: Instant::now(),
        work,
    }) {
        Ok(()) => {}
        Err(mpsc::TrySendError::Full(_)) | Err(mpsc::TrySendError::Disconnected(_)) => {
            // Queue full (overload) or workers gone (shutdown): shed
            // with BUSY in this request's response slot, never silence.
            state.note_busy_shed();
            conn.inflight -= 1;
            let busy = Response::Busy {
                retry_after_ms: BUSY_RETRY_MS,
            };
            conn.queue_response(seq, busy.encode(), Instant::now(), state);
        }
    }
}

/// Client-side convenience: sends one request over an existing stream
/// and reads the response frame.
pub fn roundtrip(stream: &mut TcpStream, req: &Request) -> io::Result<Response> {
    use std::io::Write as _;
    stream.write_all(req.encode().as_bytes())?;
    stream.flush()?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let lines = crate::wire::read_frame(&mut reader)?.ok_or_else(|| {
        io::Error::new(io::ErrorKind::UnexpectedEof, "connection closed mid-reply")
    })?;
    Response::decode(&lines).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::ServiceConfig;
    use crate::wire::{read_frame, RequestClass};
    use softhw_hypergraph::{named, render_hypergraph};

    #[test]
    fn end_to_end_over_tcp() {
        let state = ServiceState::new(ServiceConfig::default());
        let server = Server::bind(
            ServeOptions {
                addr: "127.0.0.1:0".to_string(),
                workers: 2,
                max_conns: Some(1),
                ..ServeOptions::default()
            },
            state,
        )
        .expect("bind loopback");
        let addr = server.local_addr().unwrap();
        let client = std::thread::spawn(move || {
            let mut stream = TcpStream::connect(addr).expect("connect");
            let body = render_hypergraph(&named::h2());
            // Several requests on one connection, mixed classes.
            let r1 = roundtrip(&mut stream, &Request::new(RequestClass::Shw, body.clone()))
                .expect("shw roundtrip");
            assert!(matches!(r1, Response::Width { width: 2, .. }), "{r1:?}");
            let r2 = roundtrip(
                &mut stream,
                &Request::new(RequestClass::ShwLeq(1), body.clone()),
            )
            .expect("leq roundtrip");
            assert!(matches!(r2, Response::Decision { td: None, .. }), "{r2:?}");
            let r3 = roundtrip(&mut stream, &Request::new(RequestClass::Shw, "e1(a,"))
                .expect("error roundtrip");
            assert!(matches!(r3, Response::Error { .. }), "{r3:?}");
            // The V1 handshake answers on the same connection.
            let r4 = roundtrip(&mut stream, &Request::new(RequestClass::Hello, ""))
                .expect("hello roundtrip");
            assert!(matches!(r4, Response::Hello { .. }), "{r4:?}");
        });
        let served = server.run().expect("serve");
        assert_eq!(served, 1);
        client.join().expect("client thread");
    }

    #[test]
    fn full_queue_sheds_requests_with_busy_in_order() {
        // One worker, a one-deep ready queue: while the worker is held
        // by a slow solve, a second connection pipelines four STATS —
        // the first occupies the queue slot, the other three must shed
        // with BUSY *in their pipeline slots*, and the responses must
        // still arrive in request order.
        let state = ServiceState::new(ServiceConfig::default());
        let server = Server::bind(
            ServeOptions {
                addr: "127.0.0.1:0".to_string(),
                workers: 1,
                max_conns: Some(3),
                queue_depth: 1,
            },
            state,
        )
        .expect("bind loopback");
        let addr = server.local_addr().unwrap();
        let client = std::thread::spawn(move || {
            use std::io::Write as _;
            let mut x = TcpStream::connect(addr).expect("connect x");
            // Answered before the stall: Z repeats it during the stall.
            let cached = Request::new(RequestClass::Shw, render_hypergraph(&named::h2()));
            let answer = roundtrip(&mut x, &cached).expect("cached roundtrip");
            assert!(matches!(answer, Response::Width { .. }), "{answer:?}");
            // X holds the single worker: an exact SHW solve on a 24x24
            // grid cannot finish inside its 400ms deadline, so the
            // worker is busy for that long deterministically.
            let grid = render_hypergraph(&named::grid(24, 24));
            let mut slow = Request::new(RequestClass::Shw, grid);
            slow.deadline_ms = Some(400);
            x.write_all(slow.encode().as_bytes()).expect("send slow");
            x.flush().unwrap();
            std::thread::sleep(Duration::from_millis(150));
            // Y pipelines four STATS in one write. #1 takes the queue
            // slot; #2-#4 find it full and shed.
            let body = render_hypergraph(&named::h2());
            let stats = Request::new(RequestClass::Stats, body).encode();
            let mut y = TcpStream::connect(addr).expect("connect y");
            let burst = stats.repeat(4);
            y.write_all(burst.as_bytes()).expect("send burst");
            y.flush().unwrap();
            // The queue is full and the worker held, yet a repeated
            // request is answered, not shed: at the head of Z's pipeline
            // it never enters the queue.
            let mut z = TcpStream::connect(addr).expect("connect z");
            assert_eq!(roundtrip(&mut z, &cached).expect("z roundtrip"), answer);
            let mut reader = BufReader::new(y.try_clone().unwrap());
            let mut got = Vec::new();
            for _ in 0..4 {
                let lines = read_frame(&mut reader).expect("read").expect("frame");
                got.push(Response::decode(&lines).expect("decode"));
            }
            // In request order: the queued STATS answers first (after
            // the slow solve frees the worker), then the three sheds.
            match &got[0] {
                Response::Stats { fields } => {
                    // The sheds happened while the slow solve held the
                    // worker, so the queued STATS already sees them.
                    assert!(
                        fields.iter().any(|(k, v)| k == "busy_shed" && v == "3"),
                        "{fields:?}"
                    );
                }
                other => panic!("expected STATS first, got {other:?}"),
            }
            for r in &got[1..] {
                assert!(
                    matches!(r, Response::Busy { retry_after_ms } if *retry_after_ms > 0),
                    "{r:?}"
                );
            }
            // X's slow solve hit its deadline.
            let mut xr = BufReader::new(x.try_clone().unwrap());
            let lines = read_frame(&mut xr).expect("read x").expect("frame x");
            let rx = Response::decode(&lines).expect("decode x");
            assert!(matches!(rx, Response::Timeout), "{rx:?}");
        });
        let served = server.run().expect("serve");
        assert_eq!(served, 3);
        client.join().expect("client thread");
    }

    #[test]
    fn pipelined_mixed_frames_answer_in_request_order() {
        // A pipelined burst of singles and a BATCH on one connection:
        // every response arrives in request order and matches what the
        // classes individually produce.
        let state = ServiceState::new(ServiceConfig::default());
        let server = Server::bind(
            ServeOptions {
                addr: "127.0.0.1:0".to_string(),
                workers: 4,
                max_conns: Some(1),
                ..ServeOptions::default()
            },
            state,
        )
        .expect("bind loopback");
        let addr = server.local_addr().unwrap();
        let client = std::thread::spawn(move || {
            use std::io::Write as _;
            let body = render_hypergraph(&named::h2());
            let frames = [
                Request::new(RequestClass::Shw, body.clone()).encode(),
                Request::new(RequestClass::HwLeq(3), body.clone()).encode(),
                crate::wire::BatchRequest::new(vec![
                    Request::new(RequestClass::ShwLeq(2), body.clone()),
                    Request::new(RequestClass::Hw, body.clone()),
                ])
                .encode(),
                Request::new(RequestClass::Shw, body.clone()).encode(),
            ];
            let burst: String = frames.iter().map(String::as_str).collect();
            let mut stream = TcpStream::connect(addr).expect("connect");
            stream.write_all(burst.as_bytes()).expect("send burst");
            stream.flush().unwrap();
            let mut reader = BufReader::new(stream.try_clone().unwrap());
            let mut got = Vec::new();
            for _ in 0..frames.len() {
                let lines = read_frame(&mut reader).expect("read").expect("frame");
                got.push(Response::decode(&lines).expect("decode"));
            }
            assert!(
                matches!(got[0], Response::Width { width: 2, .. }),
                "{:?}",
                got[0]
            );
            assert!(
                matches!(&got[1], Response::Decision { td: Some(_), .. }),
                "{:?}",
                got[1]
            );
            match &got[2] {
                Response::Batch { responses } => {
                    assert_eq!(responses.len(), 2);
                    assert!(matches!(
                        &responses[0],
                        Response::Decision { td: Some(_), .. }
                    ));
                    assert!(matches!(&responses[1], Response::Width { width: 3, .. }));
                }
                other => panic!("expected a batch response, got {other:?}"),
            }
            assert_eq!(got[3], got[0], "pipelined repeat must be byte-identical");
        });
        let served = server.run().expect("serve");
        assert_eq!(served, 1);
        client.join().expect("client thread");
    }

    #[test]
    fn shutdown_handle_drains_gracefully() {
        let state = ServiceState::new(ServiceConfig::default());
        let server = Server::bind(
            ServeOptions {
                addr: "127.0.0.1:0".to_string(),
                workers: 2,
                max_conns: None,
                ..ServeOptions::default()
            },
            state,
        )
        .expect("bind loopback");
        let addr = server.local_addr().unwrap();
        let handle = server.shutdown_handle();
        let server_thread = std::thread::spawn(move || server.run());
        // A normal request completes before the drain.
        let mut stream = TcpStream::connect(addr).expect("connect");
        let body = render_hypergraph(&named::h2());
        let r = roundtrip(&mut stream, &Request::new(RequestClass::Shw, body.clone()))
            .expect("pre-drain roundtrip");
        assert!(matches!(r, Response::Width { .. }), "{r:?}");
        assert!(!handle.is_shutting_down());
        handle.shutdown();
        assert!(handle.is_shutting_down());
        // The event loop stops and the idle connection is closed; the
        // server thread returns instead of serving forever.
        let accepted = server_thread.join().expect("server thread").expect("run");
        assert_eq!(accepted, 1);
        // The drained connection is gone: the next read sees EOF (or a
        // reset), not a hang.
        use std::io::Read as _;
        let _ = stream.set_read_timeout(Some(Duration::from_secs(5)));
        let mut buf = [0u8; 64];
        match stream.read(&mut buf) {
            Ok(0) | Err(_) => {}
            Ok(n) => {
                // Tolerated: a drain-time BUSY frame if the server saw
                // the connection as never-served.
                let text = String::from_utf8_lossy(&buf[..n]).to_string();
                assert!(text.starts_with("BUSY"), "{text:?}");
            }
        }
    }
}
