//! The service runtime: accept loop, worker pool, bounded admission
//! queue, content-addressed result cache, and single-flight deduping.
//!
//! ## Life of a `run` request
//!
//! 1. The connection thread parses the line and computes the spec's
//!    [`RunSpec::cache_key`].
//! 2. Under one lock: cache hit → respond immediately (`"cached":true`);
//!    an identical request already queued or running → *coalesce* onto
//!    its job (no new work); otherwise admission control — if the bounded
//!    queue is full the request is rejected with `429 overloaded` right
//!    away, else a job is enqueued for the worker pool. When a persistent
//!    store is configured, a memory miss probes it (without the state
//!    lock) before any work is admitted: a disk hit is promoted into the
//!    memory cache and served as `"cached":true`.
//! 3. The connection thread blocks on the job's completion slot (with the
//!    request's `timeout_ms` deadline, if any). A deadline miss responds
//!    `408 timed_out` carrying a CLI repro string; the worker still
//!    finishes and populates the cache, so a retry is a hit.
//! 4. Workers run the simulation through the shared [`Executor`] under
//!    `catch_unwind`: a poisoned scenario fails that one request
//!    (`500 worker_panicked`), never the server. Successes are committed
//!    to the memory cache and (when configured) the on-disk store, so a
//!    warm cache survives restarts.
//!
//! ## The two-level cache
//!
//! The result cache keys on the full [`RunSpec::cache_key`]. Beneath it,
//! the [`Executor`]'s topology-tier cache keys generated scenarios on
//! [`RunSpec::topology_key`] alone: a request whose deployment matches a
//! cached scenario but whose radio parameters differ re-customizes the
//! cached world instead of regenerating it — bit-identical results at a
//! fraction of the cost (`topology_hits` in `stats` counts these).
//!
//! ## Sweeps
//!
//! A sweep resolves its points up front, then pushes them through the
//! submission ladder with a bounded **pipeline window**: up to `W` points
//! are in flight at once (so the worker pool actually runs a sweep in
//! parallel), while results are emitted strictly in point order — the
//! response byte stream is deterministic regardless of completion order.
//! With `"stream":true` each point is written immediately as its own
//! `{"v":1,"row":{...}}` line followed by a final summary response; the
//! window doubles as per-connection backpressure, because emission blocks
//! on the client's TCP receive window before more points are admitted.
//!
//! `shutdown` flips the draining flag: the listener stops accepting,
//! queued jobs drain, idle connections close, and [`Server::wait`]
//! returns the final stats snapshot.

use crate::cache::LruCache;
use crate::exec::{ExecError, Executor};
use crate::protocol::{
    error_response, parse_request, report_json, response_base, Request, RunSpec, ENGINE_VERSION,
    PROTOCOL_VERSION,
};
use crate::store::{ResultStore, StoreConfig};
use crate::sweep::{drive_sweep, PointOutcome};
use crate::ErrorKind;
use crn_core::CollectionOutcome;
use crn_workloads::export::record_jsonl;
use crn_workloads::json::Json;
use crn_workloads::{Axis, RunRecord};
use std::collections::{HashMap, VecDeque};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Upper edges of the latency histogram buckets, in milliseconds; the
/// implicit last bucket is `+∞`.
pub const LATENCY_BUCKETS_MS: [f64; 12] = [
    1.0, 2.0, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0, 500.0, 1000.0, 2500.0, 5000.0,
];

/// Upper bound on one accepted request line. A malformed or hostile
/// client that never sends a newline is answered `400 request_too_large`
/// once the bound trips, and the remainder of its line is discarded
/// without buffering — the connection stays usable. Generous relative to
/// real requests: a maximal sweep (4096 seeds) is under 100 KiB.
pub const MAX_REQUEST_LINE_BYTES: usize = 1 << 20;

/// How the service is sized; see the field docs for defaults.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Bind address; port 0 picks an ephemeral port (the bound address is
    /// available from [`Server::local_addr`]).
    pub addr: String,
    /// Worker threads executing simulations (min 1).
    pub workers: usize,
    /// Bounded request queue capacity; a full queue rejects new work with
    /// `429 overloaded` (admission control).
    pub queue_cap: usize,
    /// Result cache capacity in entries (0 disables caching).
    pub cache_cap: usize,
    /// Topology-tier cache capacity in entries: generated scenarios
    /// keyed by deployment structure ([`RunSpec::topology_key`]) and
    /// re-customized in place for radio-only parameter changes
    /// (0 disables the tier; every request then regenerates).
    pub topo_cache_cap: usize,
    /// Optional persistent result store layered under the memory cache;
    /// `None` keeps the service memory-only (the pre-cluster behavior).
    pub store: Option<StoreConfig>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".into(),
            workers: 4,
            queue_cap: 64,
            cache_cap: 1024,
            topo_cache_cap: 64,
            store: None,
        }
    }
}

/// Aggregate request counters (all monotonically increasing).
#[derive(Clone, Copy, Debug, Default)]
pub struct Counters {
    /// Run/sweep-point requests received (control commands excluded).
    pub received: u64,
    /// Requests answered `ok` (from cache or computation).
    pub served: u64,
    /// Requests answered from the in-memory result cache.
    pub cache_hits: u64,
    /// Requests answered from the persistent store (memory miss promoted
    /// from disk).
    pub store_hits: u64,
    /// Requests that coalesced onto an identical in-flight computation.
    pub coalesced: u64,
    /// Simulations actually executed by the worker pool.
    pub computed: u64,
    /// Computations that re-customized a cached topology (same
    /// deployment, different radio parameters) instead of regenerating
    /// the scenario from scratch.
    pub topology_hits: u64,
    /// Requests rejected by admission control (queue full).
    pub rejected: u64,
    /// Requests whose deadline expired before the result was ready.
    pub timed_out: u64,
    /// Requests that failed (scenario error, invariant violation, panic).
    pub failed: u64,
    /// Lines that failed to parse as protocol requests (including
    /// over-length lines).
    pub bad_requests: u64,
}

type JobOutcome = Result<Arc<CollectionOutcome>, ExecError>;

/// One admitted computation; identical concurrent requests share it.
struct Job {
    spec: RunSpec,
    key: u64,
    slot: Mutex<Option<JobOutcome>>,
    done: Condvar,
}

impl Job {
    fn new(spec: RunSpec, key: u64) -> Self {
        Self {
            spec,
            key,
            slot: Mutex::new(None),
            done: Condvar::new(),
        }
    }

    fn complete(&self, outcome: JobOutcome) {
        let mut slot = self.slot.lock().expect("job slot poisoned");
        *slot = Some(outcome);
        self.done.notify_all();
    }

    /// Blocks until the job completes or `deadline` passes.
    fn wait(&self, deadline: Option<Instant>) -> Option<JobOutcome> {
        let mut slot = self.slot.lock().expect("job slot poisoned");
        loop {
            if let Some(out) = slot.as_ref() {
                return Some(out.clone());
            }
            match deadline {
                None => slot = self.done.wait(slot).expect("job slot poisoned"),
                Some(d) => {
                    let now = Instant::now();
                    if now >= d {
                        return None;
                    }
                    let (guard, _) = self
                        .done
                        .wait_timeout(slot, d - now)
                        .expect("job slot poisoned");
                    slot = guard;
                }
            }
        }
    }
}

struct State {
    queue: VecDeque<Arc<Job>>,
    in_flight: HashMap<u64, Arc<Job>>,
    running: usize,
    cache: LruCache<u64, Arc<CollectionOutcome>>,
    counters: Counters,
    latency_hist: [u64; LATENCY_BUCKETS_MS.len() + 1],
    draining: bool,
}

struct Shared {
    cfg: ServeConfig,
    started: Instant,
    state: Mutex<State>,
    work_ready: Condvar,
    exec: Executor,
    /// Persistent result tier; its own mutex so disk I/O never holds the
    /// scheduling state lock.
    store: Option<Mutex<ResultStore>>,
}

impl Shared {
    fn draining(&self) -> bool {
        self.state.lock().expect("state poisoned").draining
    }
}

/// What [`submit`] decided about a run request.
enum Submitted {
    Cached(Arc<CollectionOutcome>),
    Wait { job: Arc<Job>, coalesced: bool },
    Rejected,
    Draining,
}

/// A running simulation service.
pub struct Server {
    shared: Arc<Shared>,
    addr: SocketAddr,
    accept: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
    connections: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

impl Server {
    /// Binds and starts the service (listener + worker pool). Returns as
    /// soon as the socket is bound; the actual address (with the resolved
    /// ephemeral port) is [`Server::local_addr`].
    ///
    /// # Errors
    ///
    /// Propagates socket bind failures and store open/scan failures.
    pub fn start(cfg: ServeConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&cfg.addr)?;
        let addr = listener.local_addr()?;
        let workers = cfg.workers.max(1);
        let store = match &cfg.store {
            None => None,
            Some(sc) => Some(Mutex::new(ResultStore::open(sc.clone())?)),
        };
        let exec = Executor::new(cfg.topo_cache_cap);
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                queue: VecDeque::with_capacity(cfg.queue_cap),
                in_flight: HashMap::new(),
                running: 0,
                cache: LruCache::new(cfg.cache_cap),
                counters: Counters::default(),
                latency_hist: [0; LATENCY_BUCKETS_MS.len() + 1],
                draining: false,
            }),
            work_ready: Condvar::new(),
            started: Instant::now(),
            cfg,
            exec,
            store,
        });
        let worker_handles: Vec<JoinHandle<()>> = (0..workers)
            .map(|i| {
                let shared = shared.clone();
                std::thread::Builder::new()
                    .name(format!("crn-serve-worker-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn worker")
            })
            .collect();
        let connections = Arc::new(Mutex::new(Vec::new()));
        let accept = {
            let shared = shared.clone();
            let connections = connections.clone();
            std::thread::Builder::new()
                .name("crn-serve-accept".into())
                .spawn(move || accept_loop(&listener, &shared, &connections))
                .expect("spawn acceptor")
        };
        Ok(Server {
            shared,
            addr,
            accept: Some(accept),
            workers: worker_handles,
            connections,
        })
    }

    /// The bound address (resolves `--addr 127.0.0.1:0` to the actual
    /// ephemeral port).
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Initiates a graceful shutdown programmatically (equivalent to a
    /// `shutdown` protocol request): stop accepting, drain, exit.
    pub fn shutdown(&self) {
        initiate_shutdown(&self.shared, self.addr);
    }

    /// Blocks until the service has fully drained after a shutdown
    /// request, then returns the final counter snapshot.
    ///
    /// # Panics
    ///
    /// Panics if a service thread itself panicked (worker panics are
    /// caught per-request and do **not** trip this).
    pub fn wait(mut self) -> Counters {
        if let Some(accept) = self.accept.take() {
            accept.join().expect("accept thread panicked");
        }
        for w in self.workers.drain(..) {
            w.join().expect("worker thread panicked");
        }
        loop {
            let handle = self.connections.lock().expect("connections poisoned").pop();
            match handle {
                Some(h) => h.join().expect("connection thread panicked"),
                None => break,
            }
        }
        let mut counters = self.shared.state.lock().expect("state poisoned").counters;
        counters.topology_hits = self.shared.exec.topology_hits();
        counters
    }
}

fn initiate_shutdown(shared: &Arc<Shared>, addr: SocketAddr) {
    {
        let mut st = shared.state.lock().expect("state poisoned");
        if st.draining {
            return;
        }
        st.draining = true;
    }
    shared.work_ready.notify_all();
    // Unblock the accept loop: it checks the draining flag after every
    // accept, so poke it with a throwaway connection.
    drop(TcpStream::connect_timeout(
        &addr,
        Duration::from_millis(500),
    ));
}

fn accept_loop(
    listener: &TcpListener,
    shared: &Arc<Shared>,
    connections: &Arc<Mutex<Vec<JoinHandle<()>>>>,
) {
    for stream in listener.incoming() {
        if shared.draining() {
            break;
        }
        let Ok(stream) = stream else { continue };
        let shared = shared.clone();
        let addr = listener.local_addr().expect("listener has an address");
        let Ok(handle) = std::thread::Builder::new()
            .name("crn-serve-conn".into())
            .spawn(move || connection_loop(stream, &shared, addr))
        else {
            continue;
        };
        connections
            .lock()
            .expect("connections poisoned")
            .push(handle);
    }
}

/// What one [`read_bounded_line`] call produced.
#[derive(Debug, PartialEq, Eq)]
pub enum LineRead {
    /// A complete line is in the buffer (trailing `\n` included).
    Line,
    /// Clean end of stream.
    Eof,
    /// The read timed out with no complete line; any partial data stays
    /// buffered for the next call.
    Idle,
    /// A line exceeded the byte bound; it has been fully discarded (the
    /// stream is positioned after its newline) and the buffer is empty.
    TooLarge,
    /// The stream failed.
    Closed,
}

/// Reads one newline-terminated line of at most `max` bytes.
///
/// Unlike [`BufRead::read_line`], an over-length line does not grow the
/// buffer without bound: once `max` is exceeded the accumulated prefix is
/// dropped and the rest of the line is *consumed and discarded*, keeping
/// the connection usable for the next request. `discarding` carries that
/// skip-state across [`LineRead::Idle`] returns (read timeouts), so the
/// caller must keep it alongside `line`.
pub fn read_bounded_line<R: BufRead>(
    reader: &mut R,
    line: &mut String,
    discarding: &mut bool,
    max: usize,
) -> LineRead {
    loop {
        let (consumed, found_newline) = {
            let buf = match reader.fill_buf() {
                Ok([]) => {
                    if *discarding {
                        // EOF mid-discard: nothing left to answer.
                        *discarding = false;
                        return LineRead::Eof;
                    }
                    // A trailing line without a newline is still a line
                    // (matches `read_line`); the next call sees EOF.
                    return if line.is_empty() {
                        LineRead::Eof
                    } else {
                        LineRead::Line
                    };
                }
                Ok(buf) => buf,
                Err(e)
                    if matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                    ) =>
                {
                    return LineRead::Idle;
                }
                Err(_) => return LineRead::Closed,
            };
            match buf.iter().position(|&b| b == b'\n') {
                Some(i) => {
                    if !*discarding {
                        line.push_str(&String::from_utf8_lossy(&buf[..=i]));
                    }
                    (i + 1, true)
                }
                None => {
                    if !*discarding {
                        line.push_str(&String::from_utf8_lossy(buf));
                    }
                    (buf.len(), false)
                }
            }
        };
        reader.consume(consumed);
        if !*discarding && line.len() > max {
            line.clear();
            *discarding = true;
        }
        if found_newline {
            if *discarding {
                *discarding = false;
                return LineRead::TooLarge;
            }
            return LineRead::Line;
        }
    }
}

fn connection_loop(stream: TcpStream, shared: &Arc<Shared>, addr: SocketAddr) {
    // A finite read timeout lets idle connections notice the draining
    // flag and close, so `wait()` can join every connection thread.
    stream
        .set_read_timeout(Some(Duration::from_millis(200)))
        .ok();
    stream.set_nodelay(true).ok();
    let mut writer = match stream.try_clone() {
        Ok(w) => w,
        Err(_) => return,
    };
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    let mut discarding = false;
    loop {
        match read_bounded_line(
            &mut reader,
            &mut line,
            &mut discarding,
            MAX_REQUEST_LINE_BYTES,
        ) {
            LineRead::Eof | LineRead::Closed => return,
            LineRead::Idle => {
                if shared.draining() {
                    return;
                }
            }
            LineRead::TooLarge => {
                shared
                    .state
                    .lock()
                    .expect("state poisoned")
                    .counters
                    .bad_requests += 1;
                let response = error_response(
                    ErrorKind::RequestTooLarge,
                    &format!("request line exceeds {MAX_REQUEST_LINE_BYTES} bytes"),
                );
                if write_line(&mut writer, &response).is_err() {
                    return;
                }
            }
            LineRead::Line => {
                let trimmed = line.trim();
                if !trimmed.is_empty() {
                    let (response, shutdown) = handle_line(trimmed, shared, addr, &mut writer);
                    match response {
                        None => return, // streamed response hit a dead client
                        Some(response) => {
                            if write_line(&mut writer, &response).is_err() {
                                return;
                            }
                        }
                    }
                    if shutdown {
                        return;
                    }
                }
                line.clear();
            }
        }
    }
}

fn write_line(writer: &mut TcpStream, response: &Json) -> std::io::Result<()> {
    let payload = format!("{response}\n");
    writer.write_all(payload.as_bytes())?;
    writer.flush()
}

/// Dispatches one request line; the bool asks the connection to close
/// (after a `shutdown` acknowledgment). `None` means a streamed response
/// failed mid-flight (dead client) and the connection should just close.
fn handle_line(
    line: &str,
    shared: &Arc<Shared>,
    addr: SocketAddr,
    writer: &mut TcpStream,
) -> (Option<Json>, bool) {
    let request = match parse_request(line) {
        Ok(r) => r,
        Err(e) => {
            shared
                .state
                .lock()
                .expect("state poisoned")
                .counters
                .bad_requests += 1;
            return (Some(error_response(e.kind, &e.message)), false);
        }
    };
    match request {
        Request::Status => (Some(status_json(shared)), false),
        Request::Stats => (Some(stats_json(shared)), false),
        Request::Shutdown => {
            initiate_shutdown(shared, addr);
            let mut o = response_base(true);
            o.set("shutting_down", Json::Bool(true));
            (Some(o), true)
        }
        Request::Run { spec, timeout_ms } => (Some(handle_run(shared, spec, timeout_ms)), false),
        Request::Sweep {
            spec,
            seeds,
            axis,
            timeout_ms,
            stream,
        } => {
            let sink = if stream { Some(&mut *writer) } else { None };
            (
                handle_sweep(shared, &spec, &seeds, axis.as_ref(), timeout_ms, sink),
                false,
            )
        }
    }
}

/// Admission decision for one run spec; see the module docs for the
/// cache → store → coalesce → enqueue/reject ladder.
fn submit(shared: &Arc<Shared>, spec: RunSpec) -> Submitted {
    let key = spec.cache_key();
    // First pass under the state lock: memory tiers only.
    {
        let mut st = shared.state.lock().expect("state poisoned");
        st.counters.received += 1;
        if st.draining {
            return Submitted::Draining;
        }
        // Injected panics must reach a worker (that is their point), so
        // they skip the caches on both ends.
        if !spec.inject_panic {
            if let Some(hit) = st.cache.get(&key) {
                st.counters.cache_hits += 1;
                return Submitted::Cached(hit);
            }
        }
        if let Some(job) = st.in_flight.get(&key).cloned() {
            st.counters.coalesced += 1;
            return Submitted::Wait {
                job,
                coalesced: true,
            };
        }
        if shared.store.is_none() || spec.inject_panic {
            return admit(shared, st, spec, key);
        }
    }
    // Memory miss with a store configured: probe the disk tier without
    // the state lock (store I/O must never serialize the scheduler).
    if let Some(store) = &shared.store {
        let promoted = store.lock().expect("store poisoned").get(key).map(Arc::new);
        if let Some(outcome) = promoted {
            let mut st = shared.state.lock().expect("state poisoned");
            st.counters.store_hits += 1;
            st.cache.insert(key, outcome.clone());
            return Submitted::Cached(outcome);
        }
    }
    // Disk miss: rerun the ladder — another thread may have raced the
    // same key into the cache or in-flight table while we were on disk.
    let mut st = shared.state.lock().expect("state poisoned");
    if st.draining {
        return Submitted::Draining;
    }
    if let Some(hit) = st.cache.get(&key) {
        st.counters.cache_hits += 1;
        return Submitted::Cached(hit);
    }
    if let Some(job) = st.in_flight.get(&key).cloned() {
        st.counters.coalesced += 1;
        return Submitted::Wait {
            job,
            coalesced: true,
        };
    }
    admit(shared, st, spec, key)
}

/// The enqueue/reject tail of the submission ladder (state lock held).
fn admit(
    shared: &Arc<Shared>,
    mut st: std::sync::MutexGuard<'_, State>,
    spec: RunSpec,
    key: u64,
) -> Submitted {
    if st.queue.len() >= shared.cfg.queue_cap {
        st.counters.rejected += 1;
        return Submitted::Rejected;
    }
    let job = Arc::new(Job::new(spec, key));
    st.in_flight.insert(key, job.clone());
    st.queue.push_back(job.clone());
    drop(st);
    shared.work_ready.notify_one();
    Submitted::Wait {
        job,
        coalesced: false,
    }
}

/// How one run/sweep-point request resolved.
enum PointResult {
    Ok {
        outcome: Arc<CollectionOutcome>,
        cached: bool,
        coalesced: bool,
        latency_ms: f64,
    },
    /// A complete error response object, ready to send.
    Err(Json),
}

/// A submitted point whose result may not be ready yet — the sweep
/// pipeline holds a window of these.
enum PendingPoint {
    /// Resolved at submission time (cache hit, rejection, draining).
    Ready(PointResult),
    /// Waiting on a worker.
    Wait {
        job: Arc<Job>,
        coalesced: bool,
        submitted: Instant,
        repro: String,
    },
}

/// The submission half of serving a point: runs the cache → store →
/// coalesce → admit ladder and returns either an immediate result or a
/// pending job to wait on.
fn submit_point(shared: &Arc<Shared>, spec: RunSpec) -> PendingPoint {
    let submitted = Instant::now();
    let repro = spec.repro();
    match submit(shared, spec) {
        Submitted::Draining => PendingPoint::Ready(PointResult::Err(error_response(
            ErrorKind::Draining,
            "server is shutting down",
        ))),
        Submitted::Rejected => PendingPoint::Ready(PointResult::Err(error_response(
            ErrorKind::Overloaded,
            &format!(
                "request queue full ({} pending); retry later",
                shared.cfg.queue_cap
            ),
        ))),
        Submitted::Cached(outcome) => {
            PendingPoint::Ready(ok_result(shared, outcome, true, false, submitted))
        }
        Submitted::Wait { job, coalesced } => PendingPoint::Wait {
            job,
            coalesced,
            submitted,
            repro,
        },
    }
}

/// The wait half: blocks until the point resolves or its deadline
/// (measured from submission) expires, maintaining the
/// served/timed-out/failed counters and the latency histogram.
fn finish_point(shared: &Arc<Shared>, point: PendingPoint, timeout_ms: Option<u64>) -> PointResult {
    let PendingPoint::Wait {
        job,
        coalesced,
        submitted,
        repro,
    } = point
    else {
        let PendingPoint::Ready(result) = point else {
            unreachable!()
        };
        return result;
    };
    let deadline = timeout_ms.map(|ms| submitted + Duration::from_millis(ms));
    match job.wait(deadline) {
        None => {
            shared
                .state
                .lock()
                .expect("state poisoned")
                .counters
                .timed_out += 1;
            PointResult::Err(error_response(
                ErrorKind::TimedOut,
                &format!(
                    "deadline of {}ms expired; repro: {repro}",
                    timeout_ms.unwrap_or(0)
                ),
            ))
        }
        Some(Err(e)) => {
            shared.state.lock().expect("state poisoned").counters.failed += 1;
            PointResult::Err(error_response(
                e.kind,
                &format!("{}; repro: {repro}", e.message),
            ))
        }
        Some(Ok(outcome)) => ok_result(shared, outcome, false, coalesced, submitted),
    }
}

/// Success bookkeeping shared by the cached and computed paths.
fn ok_result(
    shared: &Arc<Shared>,
    outcome: Arc<CollectionOutcome>,
    cached: bool,
    coalesced: bool,
    submitted: Instant,
) -> PointResult {
    let latency_ms = submitted.elapsed().as_secs_f64() * 1e3;
    {
        let mut st = shared.state.lock().expect("state poisoned");
        st.counters.served += 1;
        let bucket = LATENCY_BUCKETS_MS
            .iter()
            .position(|&le| latency_ms <= le)
            .unwrap_or(LATENCY_BUCKETS_MS.len());
        st.latency_hist[bucket] += 1;
    }
    PointResult::Ok {
        outcome,
        cached,
        coalesced,
        latency_ms,
    }
}

/// Serves one point end to end (used by the `run` path; sweeps pipeline
/// the two halves instead).
fn run_point(shared: &Arc<Shared>, spec: RunSpec, timeout_ms: Option<u64>) -> PointResult {
    finish_point(shared, submit_point(shared, spec), timeout_ms)
}

/// Serves one run request end to end, returning the response line.
fn handle_run(shared: &Arc<Shared>, spec: RunSpec, timeout_ms: Option<u64>) -> Json {
    let key = spec.cache_key();
    match run_point(shared, spec, timeout_ms) {
        PointResult::Err(response) => response,
        PointResult::Ok {
            outcome,
            cached,
            coalesced,
            latency_ms,
        } => {
            let mut o = response_base(true);
            o.set("cached", Json::Bool(cached))
                .set("coalesced", Json::Bool(coalesced))
                .set("key", Json::Str(format!("{key:016x}")))
                .set("latency_ms", Json::float(latency_ms))
                .set("report", report_json(&outcome));
            o
        }
    }
}

/// The sweep pipeline window: how many points may be in flight at once.
/// Sized to keep the worker pool busy without letting one connection
/// fill the admission queue by itself.
fn sweep_window(shared: &Arc<Shared>) -> usize {
    (shared.cfg.workers.max(1) * 2)
        .max(4)
        .min(shared.cfg.queue_cap.max(1))
}

/// A sweep is a batch of run points — the request's seeds crossed with
/// its optional axis values. Each point goes through the same
/// cache/store/coalesce/admission ladder, pipelined through a bounded
/// window (see [`crate::sweep`]), so a re-sent sweep is answered from
/// cache point by point, and a radio-axis sweep re-customizes one cached
/// topology per seed. Per-point results reuse the `crn-workloads` record
/// exporter shape (`RunRecord` JSONL objects), so sweep output splices
/// directly into existing analysis tooling. Returns `None` only when a
/// streamed row failed to write (dead client).
fn handle_sweep(
    shared: &Arc<Shared>,
    template: &RunSpec,
    seeds: &[u64],
    axis: Option<&Axis>,
    timeout_ms: Option<u64>,
    stream: Option<&mut TcpStream>,
) -> Option<Json> {
    drive_sweep(
        template,
        seeds,
        axis,
        timeout_ms,
        stream.map(|s| s as &mut dyn Write),
        sweep_window(shared),
        |spec| submit_point(shared, spec),
        |job, timeout_ms| match finish_point(shared, job, timeout_ms) {
            PointResult::Ok {
                outcome, cached, ..
            } => PointOutcome::Ok { outcome, cached },
            PointResult::Err(response) => PointOutcome::Err(response),
        },
    )
}

fn status_json(shared: &Arc<Shared>) -> Json {
    let draining = shared.draining();
    let mut o = response_base(true);
    o.set(
        "status",
        Json::Str(if draining { "draining" } else { "running" }.into()),
    )
    .set(
        "uptime_s",
        Json::float(shared.started.elapsed().as_secs_f64()),
    )
    .set("engine_version", Json::Str(ENGINE_VERSION.into()))
    .set("protocol_version", Json::UInt(PROTOCOL_VERSION));
    o
}

fn stats_json(shared: &Arc<Shared>) -> Json {
    let (counters_json, cache_json, hist, queue_depth, running, in_flight, draining) = {
        let st = shared.state.lock().expect("state poisoned");
        let mut c = st.counters;
        c.topology_hits = shared.exec.topology_hits();
        let cache = st.cache.stats();
        let mut counters = Json::obj();
        counters
            .set("received", Json::UInt(c.received))
            .set("served", Json::UInt(c.served))
            .set("cache_hits", Json::UInt(c.cache_hits))
            .set("store_hits", Json::UInt(c.store_hits))
            .set("coalesced", Json::UInt(c.coalesced))
            .set("computed", Json::UInt(c.computed))
            .set("topology_hits", Json::UInt(c.topology_hits))
            .set("rejected", Json::UInt(c.rejected))
            .set("timed_out", Json::UInt(c.timed_out))
            .set("failed", Json::UInt(c.failed))
            .set("bad_requests", Json::UInt(c.bad_requests));
        let mut cache_json = Json::obj();
        cache_json
            .set("capacity", Json::UInt(st.cache.capacity() as u64))
            .set("len", Json::UInt(st.cache.len() as u64))
            .set("hits", Json::UInt(cache.hits))
            .set("misses", Json::UInt(cache.misses))
            .set("evictions", Json::UInt(cache.evictions))
            .set("insertions", Json::UInt(cache.insertions));
        let mut hist = Vec::with_capacity(st.latency_hist.len());
        for (i, &count) in st.latency_hist.iter().enumerate() {
            let mut bucket = Json::obj();
            bucket.set(
                "le_ms",
                LATENCY_BUCKETS_MS
                    .get(i)
                    .map_or(Json::Null, |&le| Json::float(le)),
            );
            bucket.set("count", Json::UInt(count));
            hist.push(bucket);
        }
        (
            counters,
            cache_json,
            hist,
            st.queue.len(),
            st.running,
            st.in_flight.len(),
            st.draining,
        )
    };
    let (topo_cap, topo_len, topo) = shared.exec.topology_cache_stats();
    let mut topo_json = Json::obj();
    topo_json
        .set("capacity", Json::UInt(topo_cap as u64))
        .set("len", Json::UInt(topo_len as u64))
        .set("hits", Json::UInt(topo.hits))
        .set("misses", Json::UInt(topo.misses))
        .set("evictions", Json::UInt(topo.evictions))
        .set("insertions", Json::UInt(topo.insertions));
    let mut s = Json::obj();
    s.set(
        "uptime_s",
        Json::float(shared.started.elapsed().as_secs_f64()),
    )
    .set("engine_version", Json::Str(ENGINE_VERSION.into()))
    .set("workers", Json::UInt(shared.cfg.workers.max(1) as u64))
    .set("queue_cap", Json::UInt(shared.cfg.queue_cap as u64))
    .set("queue_depth", Json::UInt(queue_depth as u64))
    .set("running", Json::UInt(running as u64))
    .set("in_flight", Json::UInt(in_flight as u64))
    .set("draining", Json::Bool(draining))
    .set("counters", counters_json)
    .set("cache", cache_json)
    .set("topology_cache", topo_json)
    .set("store", store_stats_json(shared.store.as_ref()))
    .set("latency_ms", Json::Arr(hist));
    let mut o = response_base(true);
    o.set("stats", s);
    o
}

/// The persistent tier's stats object (also used by the cluster
/// coordinator, hence public within the crate family). Counter names
/// follow the `stats` vocabulary: `store_hits`/`store_bytes`/
/// `store_evictions` are the headline numbers.
#[must_use]
pub fn store_stats_json(store: Option<&Mutex<ResultStore>>) -> Json {
    let mut o = Json::obj();
    match store {
        None => {
            o.set("configured", Json::Bool(false));
        }
        Some(store) => {
            let s = store.lock().expect("store poisoned");
            let c = s.counters();
            o.set("configured", Json::Bool(true))
                .set("len", Json::UInt(s.len() as u64))
                .set("store_bytes", Json::UInt(s.bytes()))
                .set("store_hits", Json::UInt(c.hits))
                .set("store_evictions", Json::UInt(c.evictions))
                .set("misses", Json::UInt(c.misses))
                .set("writes", Json::UInt(c.writes))
                .set("repaired", Json::UInt(c.repaired));
        }
    }
    o
}

fn worker_loop(shared: &Arc<Shared>) {
    loop {
        let job = {
            let mut st = shared.state.lock().expect("state poisoned");
            loop {
                if let Some(job) = st.queue.pop_front() {
                    st.running += 1;
                    break job;
                }
                if st.draining {
                    return;
                }
                st = shared.work_ready.wait(st).expect("state poisoned");
            }
        };
        let outcome: JobOutcome = shared.exec.execute(&job.spec).map(Arc::new);
        {
            let mut st = shared.state.lock().expect("state poisoned");
            st.running -= 1;
            st.in_flight.remove(&job.key);
            match &outcome {
                Ok(o) => {
                    st.counters.computed += 1;
                    st.cache.insert(job.key, o.clone());
                }
                Err(_) => {
                    // The failure counter is incremented per *waiter* in
                    // handle_run; nothing to cache.
                }
            }
        }
        // Durable commit outside the state lock; a failed write degrades
        // restart warmth, not this response.
        if let (Some(store), Ok(o)) = (&shared.store, &outcome) {
            let _ = store.lock().expect("store poisoned").put(job.key, o);
        }
        job.complete(outcome);
    }
}

/// Exporter-shape helper used by the sweep path; lives here so the serve
/// crate has exactly one conversion from outcomes to record objects.
/// Seed sweeps use `("seed", seed)` as the x coordinate, axis sweeps use
/// the axis label and value.
#[must_use]
pub fn outcome_record_json(x_name: &str, x: f64, outcome: &CollectionOutcome) -> Json {
    let record = RunRecord::from_outcome("serve", x_name, x, 0, outcome);
    record_jsonl(&record)
        .parse()
        .expect("record exporter emits valid JSON")
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn bounded_line_reader_accepts_and_discards() {
        let data = b"short line\n".to_vec();
        let mut reader = BufReader::new(Cursor::new(data));
        let mut line = String::new();
        let mut discarding = false;
        assert_eq!(
            read_bounded_line(&mut reader, &mut line, &mut discarding, 64),
            LineRead::Line
        );
        assert_eq!(line.trim(), "short line");
        line.clear();
        assert_eq!(
            read_bounded_line(&mut reader, &mut line, &mut discarding, 64),
            LineRead::Eof
        );
    }

    #[test]
    fn oversized_line_is_discarded_and_next_line_survives() {
        let mut data = vec![b'x'; 200];
        data.push(b'\n');
        data.extend_from_slice(b"ok\n");
        let mut reader = BufReader::new(Cursor::new(data));
        let mut line = String::new();
        let mut discarding = false;
        assert_eq!(
            read_bounded_line(&mut reader, &mut line, &mut discarding, 64),
            LineRead::TooLarge
        );
        assert!(line.is_empty(), "oversized prefix is not retained");
        assert!(!discarding);
        assert_eq!(
            read_bounded_line(&mut reader, &mut line, &mut discarding, 64),
            LineRead::Line
        );
        assert_eq!(line.trim(), "ok");
    }

    #[test]
    fn oversized_line_without_newline_ends_in_eof() {
        let data = vec![b'y'; 500];
        let mut reader = BufReader::new(Cursor::new(data));
        let mut line = String::new();
        let mut discarding = false;
        assert_eq!(
            read_bounded_line(&mut reader, &mut line, &mut discarding, 64),
            LineRead::Eof
        );
    }

    #[test]
    fn trailing_line_without_newline_is_still_a_line() {
        let mut reader = BufReader::new(Cursor::new(b"tail".to_vec()));
        let mut line = String::new();
        let mut discarding = false;
        assert_eq!(
            read_bounded_line(&mut reader, &mut line, &mut discarding, 64),
            LineRead::Line
        );
        assert_eq!(line, "tail");
        line.clear();
        assert_eq!(
            read_bounded_line(&mut reader, &mut line, &mut discarding, 64),
            LineRead::Eof
        );
    }
}
