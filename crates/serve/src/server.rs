//! The service front end, shared by `crn serve` and the fleet
//! coordinator, and the local worker pool behind [`Server`].
//!
//! The front end owns everything a client can observe: the listener and
//! bounded line reader, request dispatch, the cache → store → coalesce →
//! admit ladder, deadlines, the sweep window, `status`/`stats` and
//! shutdown. What runs an admitted job is a [`Backend`]: the local pool
//! here, or ring dispatch in `crn-cluster`. A coordinator therefore
//! answers every request exactly as `crn serve` does; only the role's own
//! `status`/`stats` fields differ.
//!
//! ## Life of a `run` request
//!
//! 1. The connection thread parses the line and computes the spec's
//!    [`RunSpec::cache_key`].
//! 2. Under the state lock: cache hit → respond immediately
//!    (`"cached":true`); an identical job already in flight → *coalesce*
//!    onto it (no new work); otherwise admission control. With a
//!    persistent store, a memory miss probes it (without the state lock)
//!    before any work is admitted: a disk hit is promoted into the memory
//!    cache and served as `"cached":true`.
//! 3. Admission rejects the request with `429 overloaded` once the
//!    admitted jobs that no local thread has started reach `queue_cap`.
//!    Only the pool marks a job started, so `queue_cap` bounds the
//!    server's queued jobs and the coordinator's in-flight jobs.
//! 4. An admitted job goes to [`Backend::dispatch`]; the connection
//!    thread blocks on the job (with the request's `timeout_ms` deadline,
//!    if any). A deadline miss responds `408 timed_out` carrying a CLI
//!    repro string; the job still completes and fills the cache, so a
//!    retry is a hit. A miss means no result was published when the
//!    waiter looked: one that is published is served even to a waiter
//!    that looks after its deadline.
//! 5. Executors run the simulation through the shared [`Executor`] under
//!    `catch_unwind`: a poisoned scenario fails that one request
//!    (`500 worker_panicked`), never the process.
//!
//! ## The at-most-once commit
//!
//! A backend may produce a job's result more than once (the ring
//! re-dispatches after a crash or timeout). [`FrontEnd::commit`] runs in
//! this order:
//!
//! 1. claim the job under its mutex; the first result wins, later ones
//!    are counted in `late_duplicates` and dropped;
//! 2. under the state lock, remove the job from the in-flight table,
//!    cache a success and update the counters;
//! 3. write a success to the store;
//! 4. publish the result and wake the waiters.
//!
//! A waiter that sees the result therefore also sees its cache entry and
//! counters. Locks nest only as front-end state → job.
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
//! submission ladder with a bounded **pipeline window** of
//! `(executors × 2).max(4).min(queue_cap)` points in flight, while
//! results are emitted strictly in point order — the response byte stream
//! is deterministic regardless of completion order. With `"stream":true`
//! each point is written immediately as its own `{"v":1,"row":{...}}`
//! line followed by a final summary response; the window doubles as
//! per-connection backpressure, because emission blocks on the client's
//! TCP receive window before more points are admitted.
//!
//! `shutdown` flips the draining flag: the listener stops accepting,
//! admitted jobs drain, idle connections close, and [`Service::wait`]
//! returns the final counters.

use crate::cache::LruCache;
use crate::exec::{ExecError, Executor};
use crate::protocol::{
    error_response, parse_request, report_json, response_base, Request, RunSpec, ENGINE_VERSION,
    PROTOCOL_VERSION,
};
use crate::store::{ResultStore, StoreConfig};
use crate::sweep::{drive_sweep, write_json_line, PointOutcome};
use crate::ErrorKind;
use crn_core::CollectionOutcome;
use crn_workloads::export::record_jsonl;
use crn_workloads::json::Json;
use crn_workloads::{Axis, RunRecord};
use std::collections::{HashMap, VecDeque};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
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
    /// Jobs committed with a successful result: simulations the service
    /// had to obtain from an executor rather than a cache tier.
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
    /// Results dropped by the at-most-once commit because their job had
    /// already been committed.
    pub late_duplicates: u64,
}

/// What an executor produced for a job.
pub type JobOutcome = Result<Arc<CollectionOutcome>, ExecError>;

/// Who runs admitted jobs: the seam between the front end and its
/// executors.
///
/// A backend must eventually [`FrontEnd::commit`] every job it is handed,
/// or leave its waiters to their deadlines.
pub trait Backend: Send + Sync + Sized + 'static {
    /// Spawns the backend's own threads once the front end exists;
    /// [`Service::wait`] joins them after the listener has closed.
    fn start(_front: &Arc<FrontEnd<Self>>) -> Vec<JoinHandle<()>> {
        Vec::new()
    }

    /// Hands an admitted job to an executor. Called with no front-end
    /// lock held.
    fn dispatch(front: &Arc<FrontEnd<Self>>, job: Arc<Job>);

    /// Executors that can take a job now; sizes the sweep window.
    fn executors(&self) -> usize;

    /// Draining has begun; wake idle threads so they can exit.
    fn drain(&self) {}

    /// Offered each request line before it is parsed. Returning `true`
    /// means the backend has served the connection to its end.
    fn adopt(
        _front: &Arc<FrontEnd<Self>>,
        _line: &str,
        _reader: &mut BufReader<TcpStream>,
        _writer: &TcpStream,
    ) -> bool {
        false
    }

    /// Adds the role's own fields to a `status` response.
    fn status_fields(&self, _status: &mut Json) {}

    /// Adds the role's own fields to the `stats` object.
    fn stats_fields(&self, _snapshot: &Snapshot, _stats: &mut Json) {}
}

/// The front end's bookkeeping at one instant.
#[derive(Clone, Copy, Debug)]
pub struct Snapshot {
    /// Counter values, `topology_hits` included.
    pub counters: Counters,
    /// Admitted jobs not yet committed.
    pub in_flight: usize,
    /// Of those, the jobs a local thread has started.
    pub started: usize,
}

/// One admitted computation; identical concurrent requests share it.
pub struct Job {
    /// What to run.
    pub spec: RunSpec,
    /// The spec's [`RunSpec::cache_key`].
    pub key: u64,
    slot: Mutex<JobSlot>,
    done: Condvar,
}

#[derive(Default)]
struct JobSlot {
    started: bool,
    claimed: bool,
    outcome: Option<JobOutcome>,
}

impl Job {
    /// Whether a result has won the commit (it may not be published yet).
    ///
    /// # Panics
    ///
    /// Panics if a thread panicked while holding the job's mutex.
    #[must_use]
    pub fn is_claimed(&self) -> bool {
        self.lock().claimed
    }

    fn lock(&self) -> MutexGuard<'_, JobSlot> {
        self.slot.lock().expect("job slot poisoned")
    }

    /// Blocks until the job's result is published or `deadline` passes.
    ///
    /// The deadline bounds how long a waiter blocks, not when it answers:
    /// a result already published when the waiter looks is returned even
    /// if the waiter looks after its deadline (woken or scheduled late). By
    /// then the result is committed, cached and counted, so a `408` would
    /// only send the client back for an answer that is already there;
    /// `None` means no result existed when the waiter gave up.
    fn wait(&self, deadline: Option<Instant>) -> Option<JobOutcome> {
        let mut slot = self.lock();
        loop {
            if let Some(out) = slot.outcome.as_ref() {
                return Some(out.clone());
            }
            match deadline {
                None => slot = self.done.wait(slot).expect("job slot poisoned"),
                Some(d) => {
                    let now = Instant::now();
                    if now >= d {
                        return None;
                    }
                    slot = self
                        .done
                        .wait_timeout(slot, d - now)
                        .expect("job slot poisoned")
                        .0;
                }
            }
        }
    }
}

struct State {
    in_flight: HashMap<u64, Arc<Job>>,
    started: usize,
    cache: LruCache<u64, Arc<CollectionOutcome>>,
    counters: Counters,
    latency_hist: [u64; LATENCY_BUCKETS_MS.len() + 1],
    draining: bool,
}

/// The state every front-end thread shares, and the handle a [`Backend`]
/// commits through.
pub struct FrontEnd<B> {
    addr: SocketAddr,
    queue_cap: usize,
    up_since: Instant,
    state: Mutex<State>,
    /// The execution core (with its topology-tier cache) that local
    /// execution goes through.
    pub exec: Executor,
    /// Persistent result tier; its own mutex so disk I/O never holds the
    /// state lock.
    store: Option<Mutex<ResultStore>>,
    /// The backend behind this front end.
    pub backend: B,
}

/// What [`FrontEnd::submit`] decided about a run request.
enum Submitted {
    Cached(Arc<CollectionOutcome>),
    Wait { job: Arc<Job>, coalesced: bool },
    Rejected,
    Draining,
}

/// A submitted point whose result may not be ready yet — the sweep
/// pipeline holds a window of these.
enum PendingPoint {
    /// Resolved at submission time (cache hit, rejection, draining).
    Ready(PointOutcome),
    /// Waiting on an executor.
    Wait {
        job: Arc<Job>,
        coalesced: bool,
        submitted: Instant,
        repro: String,
    },
}

impl<B: Backend> FrontEnd<B> {
    /// Whether a shutdown has begun.
    ///
    /// # Panics
    ///
    /// Panics if a thread panicked while holding the state lock.
    #[must_use]
    pub fn draining(&self) -> bool {
        self.lock().draining
    }

    /// The counters and admission load at this instant.
    ///
    /// # Panics
    ///
    /// Panics if a thread panicked while holding the state lock.
    #[must_use]
    pub fn snapshot(&self) -> Snapshot {
        self.snapshot_of(&self.lock())
    }

    /// Marks `job` as started by a local thread, which takes it out of
    /// the admission bound.
    ///
    /// # Panics
    ///
    /// Panics if a thread panicked while holding the state or job lock.
    pub fn start_job(&self, job: &Job) {
        let mut st = self.lock();
        st.started += 1;
        job.lock().started = true;
    }

    /// The at-most-once commit, in the order the module docs give:
    /// claim, bookkeeping, store, publish. `on_win` runs right after a
    /// successful claim, before any waiter can see the result, so a
    /// backend's own counters are as current as the front end's. Returns
    /// whether this call won; a losing call counts a late duplicate.
    ///
    /// # Panics
    ///
    /// Panics if a thread panicked while holding the state, job or store
    /// lock.
    pub fn commit(&self, job: &Job, outcome: JobOutcome, on_win: impl FnOnce()) -> bool {
        {
            let mut slot = job.lock();
            if slot.claimed {
                drop(slot);
                self.late_duplicate();
                return false;
            }
            slot.claimed = true;
        }
        on_win();
        {
            let mut st = self.lock();
            st.in_flight.remove(&job.key);
            if job.lock().started {
                st.started -= 1;
            }
            if let Ok(o) = &outcome {
                st.counters.computed += 1;
                st.cache.insert(job.key, o.clone());
            }
        }
        // A failed write degrades restart warmth, not this response.
        if let (Some(store), Ok(o)) = (&self.store, &outcome) {
            let _ = store.lock().expect("store poisoned").put(job.key, o);
        }
        job.lock().outcome = Some(outcome);
        job.done.notify_all();
        true
    }

    /// Counts a result that arrived for a job no longer in flight.
    ///
    /// # Panics
    ///
    /// Panics if a thread panicked while holding the state lock.
    pub fn late_duplicate(&self) {
        self.lock().counters.late_duplicates += 1;
    }

    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().expect("state poisoned")
    }

    fn snapshot_of(&self, st: &State) -> Snapshot {
        let mut counters = st.counters;
        counters.topology_hits = self.exec.topology_hits();
        Snapshot {
            counters,
            in_flight: st.in_flight.len(),
            started: st.started,
        }
    }

    fn initiate_shutdown(&self) {
        {
            let mut st = self.lock();
            if st.draining {
                return;
            }
            st.draining = true;
        }
        self.backend.drain();
        // Unblock the accept loop: it checks the draining flag after every
        // accept, so poke it with a throwaway connection.
        drop(TcpStream::connect_timeout(
            &self.addr,
            Duration::from_millis(500),
        ));
    }

    /// Dispatches one request line; the bool asks the connection to close
    /// (after a `shutdown` acknowledgment). `None` means a streamed
    /// response failed mid-flight (dead client) and the connection should
    /// just close.
    fn handle_line(self: &Arc<Self>, line: &str, writer: &mut TcpStream) -> (Option<Json>, bool) {
        let request = match parse_request(line) {
            Ok(r) => r,
            Err(e) => {
                self.lock().counters.bad_requests += 1;
                return (Some(error_response(e.kind, &e.message)), false);
            }
        };
        match request {
            Request::Status => (Some(self.status_json()), false),
            Request::Stats => (Some(self.stats_json()), false),
            Request::Shutdown => {
                self.initiate_shutdown();
                let mut o = response_base(true);
                o.set("shutting_down", Json::Bool(true));
                (Some(o), true)
            }
            Request::Run { spec, timeout_ms } => (Some(self.handle_run(spec, timeout_ms)), false),
            Request::Sweep {
                spec,
                seeds,
                axis,
                timeout_ms,
                stream,
            } => {
                let sink = stream.then_some(writer as &mut dyn Write);
                (
                    self.handle_sweep(&spec, &seeds, axis.as_ref(), timeout_ms, sink),
                    false,
                )
            }
        }
    }

    /// The cache → store → coalesce → admit ladder for one run spec.
    fn submit(self: &Arc<Self>, spec: RunSpec) -> Submitted {
        let key = spec.cache_key();
        // First pass under the state lock: memory tiers only.
        {
            let mut st = self.lock();
            st.counters.received += 1;
            if st.draining {
                return Submitted::Draining;
            }
            if let Some(resolved) = memory_tiers(&mut st, key) {
                return resolved;
            }
            let Some(store) = &self.store else {
                return self.admit(st, spec, key);
            };
            drop(st);
            // Memory miss with a store configured: probe the disk tier
            // without the state lock (store I/O must never serialize the
            // scheduler).
            let promoted = store.lock().expect("store poisoned").get(key).map(Arc::new);
            if let Some(outcome) = promoted {
                let mut st = self.lock();
                st.counters.store_hits += 1;
                st.cache.insert(key, outcome.clone());
                return Submitted::Cached(outcome);
            }
        }
        // Disk miss: rerun the ladder — another thread may have raced the
        // same key into the cache or in-flight table while we were on disk.
        let mut st = self.lock();
        if st.draining {
            return Submitted::Draining;
        }
        if let Some(resolved) = memory_tiers(&mut st, key) {
            return resolved;
        }
        self.admit(st, spec, key)
    }

    /// The admit/reject tail of the ladder (state lock held on entry).
    fn admit(
        self: &Arc<Self>,
        mut st: MutexGuard<'_, State>,
        spec: RunSpec,
        key: u64,
    ) -> Submitted {
        if st.in_flight.len() - st.started >= self.queue_cap {
            st.counters.rejected += 1;
            return Submitted::Rejected;
        }
        let job = Arc::new(Job {
            spec,
            key,
            slot: Mutex::default(),
            done: Condvar::new(),
        });
        st.in_flight.insert(key, job.clone());
        drop(st);
        B::dispatch(self, job.clone());
        Submitted::Wait {
            job,
            coalesced: false,
        }
    }

    /// The submission half of serving a point: runs the ladder and
    /// returns either an immediate result or a pending job to wait on.
    fn submit_point(self: &Arc<Self>, spec: RunSpec) -> PendingPoint {
        let submitted = Instant::now();
        let repro = spec.repro();
        match self.submit(spec) {
            Submitted::Draining => PendingPoint::Ready(PointOutcome::Err(error_response(
                ErrorKind::Draining,
                "server is shutting down",
            ))),
            Submitted::Rejected => PendingPoint::Ready(PointOutcome::Err(error_response(
                ErrorKind::Overloaded,
                &format!(
                    "admission queue full ({} unstarted jobs); retry later",
                    self.queue_cap
                ),
            ))),
            Submitted::Cached(outcome) => {
                PendingPoint::Ready(self.ok_result(outcome, true, false, submitted))
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
    fn finish_point(&self, point: PendingPoint, timeout_ms: Option<u64>) -> PointOutcome {
        let (job, coalesced, submitted, repro) = match point {
            PendingPoint::Ready(result) => return result,
            PendingPoint::Wait {
                job,
                coalesced,
                submitted,
                repro,
            } => (job, coalesced, submitted, repro),
        };
        let deadline = timeout_ms.map(|ms| submitted + Duration::from_millis(ms));
        match job.wait(deadline) {
            None => {
                self.lock().counters.timed_out += 1;
                PointOutcome::Err(error_response(
                    ErrorKind::TimedOut,
                    &format!(
                        "deadline of {}ms expired; repro: {repro}",
                        timeout_ms.unwrap_or(0)
                    ),
                ))
            }
            Some(Err(e)) => {
                self.lock().counters.failed += 1;
                PointOutcome::Err(error_response(
                    e.kind,
                    &format!("{}; repro: {repro}", e.message),
                ))
            }
            Some(Ok(outcome)) => self.ok_result(outcome, false, coalesced, submitted),
        }
    }

    /// Success bookkeeping shared by the cached and computed paths.
    fn ok_result(
        &self,
        outcome: Arc<CollectionOutcome>,
        cached: bool,
        coalesced: bool,
        submitted: Instant,
    ) -> PointOutcome {
        let latency_ms = submitted.elapsed().as_secs_f64() * 1e3;
        {
            let mut st = self.lock();
            st.counters.served += 1;
            let bucket = LATENCY_BUCKETS_MS
                .iter()
                .position(|&le| latency_ms <= le)
                .unwrap_or(LATENCY_BUCKETS_MS.len());
            st.latency_hist[bucket] += 1;
        }
        PointOutcome::Ok {
            outcome,
            cached,
            coalesced,
            latency_ms,
        }
    }

    /// Serves one run request end to end, returning the response line.
    fn handle_run(self: &Arc<Self>, spec: RunSpec, timeout_ms: Option<u64>) -> Json {
        let key = spec.cache_key();
        match self.finish_point(self.submit_point(spec), timeout_ms) {
            PointOutcome::Err(response) => response,
            PointOutcome::Ok {
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

    /// The sweep pipeline window: every executor has a point in flight
    /// and one queued, floored for a backend with no executors yet, and
    /// capped by admission so one connection cannot fill it alone.
    fn sweep_window(&self) -> usize {
        (self.backend.executors() * 2)
            .max(4)
            .min(self.queue_cap.max(1))
    }

    /// A sweep is a batch of run points — the request's seeds crossed with
    /// its optional axis values. Each point goes through the same ladder,
    /// pipelined through a bounded window (see [`crate::sweep`]), so a
    /// re-sent sweep is answered from cache point by point, and a
    /// radio-axis sweep re-customizes one cached topology per seed.
    /// Returns `None` only when a streamed row failed to write (dead
    /// client).
    fn handle_sweep(
        self: &Arc<Self>,
        template: &RunSpec,
        seeds: &[u64],
        axis: Option<&Axis>,
        timeout_ms: Option<u64>,
        stream: Option<&mut dyn Write>,
    ) -> Option<Json> {
        drive_sweep(
            template,
            seeds,
            axis,
            timeout_ms,
            stream,
            self.sweep_window(),
            |spec| self.submit_point(spec),
            |job, timeout_ms| self.finish_point(job, timeout_ms),
        )
    }

    fn status_json(&self) -> Json {
        let status = if self.draining() {
            "draining"
        } else {
            "running"
        };
        let mut o = response_base(true);
        o.set("status", Json::Str(status.into()));
        self.backend.status_fields(&mut o);
        o.set(
            "uptime_s",
            Json::float(self.up_since.elapsed().as_secs_f64()),
        )
        .set("engine_version", Json::Str(ENGINE_VERSION.into()))
        .set("protocol_version", Json::UInt(PROTOCOL_VERSION));
        o
    }

    fn stats_json(&self) -> Json {
        let (snapshot, cache, hist, draining) = {
            let st = self.lock();
            let hist = st
                .latency_hist
                .iter()
                .enumerate()
                .map(|(i, &count)| {
                    let mut bucket = Json::obj();
                    bucket
                        .set(
                            "le_ms",
                            LATENCY_BUCKETS_MS
                                .get(i)
                                .map_or(Json::Null, |&le| Json::float(le)),
                        )
                        .set("count", Json::UInt(count));
                    bucket
                })
                .collect();
            (
                self.snapshot_of(&st),
                cache_json(st.cache.capacity(), st.cache.len(), st.cache.stats()),
                hist,
                st.draining,
            )
        };
        let c = snapshot.counters;
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
        let (topo_cap, topo_len, topo) = self.exec.topology_cache_stats();
        let mut s = Json::obj();
        s.set(
            "uptime_s",
            Json::float(self.up_since.elapsed().as_secs_f64()),
        )
        .set("engine_version", Json::Str(ENGINE_VERSION.into()));
        self.backend.stats_fields(&snapshot, &mut s);
        s.set("queue_cap", Json::UInt(self.queue_cap as u64))
            .set("in_flight", Json::UInt(snapshot.in_flight as u64))
            .set("draining", Json::Bool(draining))
            .set("counters", counters)
            .set("cache", cache)
            .set("topology_cache", cache_json(topo_cap, topo_len, topo))
            .set("store", store_stats_json(self.store.as_ref()))
            .set("latency_ms", Json::Arr(hist));
        let mut o = response_base(true);
        o.set("stats", s);
        o
    }

    fn connection_loop(self: &Arc<Self>, stream: TcpStream) {
        // A finite read timeout lets idle connections notice the draining
        // flag and close, so `wait()` can join every connection thread.
        stream
            .set_read_timeout(Some(Duration::from_millis(200)))
            .ok();
        stream.set_nodelay(true).ok();
        let Ok(mut writer) = stream.try_clone() else {
            return;
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
                    if self.draining() {
                        return;
                    }
                }
                LineRead::TooLarge => {
                    self.lock().counters.bad_requests += 1;
                    let response = error_response(
                        ErrorKind::RequestTooLarge,
                        &format!("request line exceeds {MAX_REQUEST_LINE_BYTES} bytes"),
                    );
                    if write_json_line(&mut writer, &response).is_err() {
                        return;
                    }
                }
                LineRead::Line => {
                    let trimmed = line.trim();
                    if !trimmed.is_empty() {
                        if B::adopt(self, trimmed, &mut reader, &writer) {
                            return;
                        }
                        let (response, shutdown) = self.handle_line(trimmed, &mut writer);
                        // `None`: a streamed response hit a dead client.
                        let Some(response) = response else { return };
                        if write_json_line(&mut writer, &response).is_err() || shutdown {
                            return;
                        }
                    }
                    line.clear();
                }
            }
        }
    }
}

/// The memory half of the ladder: a cache hit, or a coalesce onto the
/// job already in flight for `key`.
fn memory_tiers(st: &mut State, key: u64) -> Option<Submitted> {
    if let Some(hit) = st.cache.get(&key) {
        st.counters.cache_hits += 1;
        return Some(Submitted::Cached(hit));
    }
    let job = st.in_flight.get(&key)?.clone();
    st.counters.coalesced += 1;
    Some(Submitted::Wait {
        job,
        coalesced: true,
    })
}

fn cache_json(capacity: usize, len: usize, stats: crate::CacheStats) -> Json {
    let mut o = Json::obj();
    o.set("capacity", Json::UInt(capacity as u64))
        .set("len", Json::UInt(len as u64))
        .set("hits", Json::UInt(stats.hits))
        .set("misses", Json::UInt(stats.misses))
        .set("evictions", Json::UInt(stats.evictions))
        .set("insertions", Json::UInt(stats.insertions));
    o
}

/// A running front end: the listener, its connection threads and the
/// backend's threads.
pub struct Service<B: Backend> {
    front: Arc<FrontEnd<B>>,
    accept: Option<JoinHandle<()>>,
    backend_threads: Vec<JoinHandle<()>>,
    connections: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

impl<B: Backend> Service<B> {
    /// Binds `addr` and starts serving through `backend`. Returns as soon
    /// as the socket is bound. `queue_cap` bounds the admitted jobs no
    /// local thread has started; `cache_cap` and `topo_cache_cap` size
    /// the result and topology caches.
    ///
    /// # Errors
    ///
    /// Propagates socket bind failures and store open/scan failures.
    ///
    /// # Panics
    ///
    /// Panics if the accept thread cannot be spawned.
    pub fn bind(
        addr: &str,
        queue_cap: usize,
        cache_cap: usize,
        topo_cache_cap: usize,
        store: Option<StoreConfig>,
        backend: B,
    ) -> std::io::Result<Service<B>> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let store = match store {
            None => None,
            Some(sc) => Some(Mutex::new(ResultStore::open(sc)?)),
        };
        let front = Arc::new(FrontEnd {
            addr,
            queue_cap,
            up_since: Instant::now(),
            state: Mutex::new(State {
                in_flight: HashMap::new(),
                started: 0,
                cache: LruCache::new(cache_cap),
                counters: Counters::default(),
                latency_hist: [0; LATENCY_BUCKETS_MS.len() + 1],
                draining: false,
            }),
            exec: Executor::new(topo_cache_cap),
            store,
            backend,
        });
        let backend_threads = B::start(&front);
        let connections = Arc::new(Mutex::new(Vec::new()));
        let accept = {
            let front = front.clone();
            let connections = connections.clone();
            std::thread::Builder::new()
                .name("crn-serve-accept".into())
                .spawn(move || accept_loop(&listener, &front, &connections))
                .expect("spawn acceptor")
        };
        Ok(Service {
            front,
            accept: Some(accept),
            backend_threads,
            connections,
        })
    }

    /// The shared front end.
    #[must_use]
    pub fn front(&self) -> &Arc<FrontEnd<B>> {
        &self.front
    }

    /// The bound address (resolves port 0 to the actual ephemeral port).
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.front.addr
    }

    /// Initiates a graceful shutdown programmatically (equivalent to a
    /// `shutdown` protocol request): stop accepting, drain, exit.
    pub fn shutdown(&self) {
        self.front.initiate_shutdown();
    }

    /// Blocks until the service has fully drained after a shutdown
    /// request, then returns the final counters.
    ///
    /// # Panics
    ///
    /// Panics if a service thread itself panicked (simulation panics are
    /// caught per request and do **not** trip this).
    pub fn wait(mut self) -> Counters {
        if let Some(accept) = self.accept.take() {
            accept.join().expect("accept thread panicked");
        }
        for handle in self.backend_threads.drain(..) {
            handle.join().expect("backend thread panicked");
        }
        loop {
            let handle = self.connections.lock().expect("connections poisoned").pop();
            match handle {
                Some(h) => h.join().expect("connection thread panicked"),
                None => break,
            }
        }
        self.front.snapshot().counters
    }
}

fn accept_loop<B: Backend>(
    listener: &TcpListener,
    front: &Arc<FrontEnd<B>>,
    connections: &Arc<Mutex<Vec<JoinHandle<()>>>>,
) {
    for stream in listener.incoming() {
        if front.draining() {
            break;
        }
        let Ok(stream) = stream else { continue };
        let front = front.clone();
        let Ok(handle) = std::thread::Builder::new()
            .name("crn-serve-conn".into())
            .spawn(move || front.connection_loop(stream))
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

/// The persistent tier's stats object. Counter names follow the `stats`
/// vocabulary: `store_hits`/`store_bytes`/`store_evictions` are the
/// headline numbers.
fn store_stats_json(store: Option<&Mutex<ResultStore>>) -> Json {
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

/// The local worker pool: `threads` threads taking jobs from one FIFO
/// queue.
pub struct Pool {
    threads: usize,
    queue: Mutex<PoolQueue>,
    ready: Condvar,
}

struct PoolQueue {
    jobs: VecDeque<Arc<Job>>,
    /// Set when draining begins: each thread exits once the queue is
    /// empty.
    closed: bool,
}

impl Pool {
    fn lock(&self) -> MutexGuard<'_, PoolQueue> {
        self.queue.lock().expect("pool queue poisoned")
    }
}

impl Backend for Pool {
    fn start(front: &Arc<FrontEnd<Self>>) -> Vec<JoinHandle<()>> {
        (0..front.backend.threads)
            .map(|i| {
                let front = front.clone();
                std::thread::Builder::new()
                    .name(format!("crn-serve-worker-{i}"))
                    .spawn(move || pool_loop(&front))
                    .expect("spawn worker")
            })
            .collect()
    }

    fn dispatch(front: &Arc<FrontEnd<Self>>, job: Arc<Job>) {
        let mut queue = front.backend.lock();
        if queue.closed {
            // Admitted just before draining began, after the pool threads
            // may have exited: run it here rather than strand its waiters.
            drop(queue);
            run_pooled(front, &job);
        } else {
            queue.jobs.push_back(job);
            drop(queue);
            front.backend.ready.notify_one();
        }
    }

    fn executors(&self) -> usize {
        self.threads
    }

    fn drain(&self) {
        self.lock().closed = true;
        self.ready.notify_all();
    }

    fn stats_fields(&self, snapshot: &Snapshot, stats: &mut Json) {
        stats
            .set("workers", Json::UInt(self.threads as u64))
            .set(
                "queue_depth",
                Json::UInt((snapshot.in_flight - snapshot.started) as u64),
            )
            .set("running", Json::UInt(snapshot.started as u64));
    }
}

fn pool_loop(front: &FrontEnd<Pool>) {
    let pool = &front.backend;
    loop {
        let mut queue = pool
            .ready
            .wait_while(pool.lock(), |q| q.jobs.is_empty() && !q.closed)
            .expect("pool queue poisoned");
        let Some(job) = queue.jobs.pop_front() else {
            return;
        };
        drop(queue);
        run_pooled(front, &job);
    }
}

fn run_pooled(front: &FrontEnd<Pool>, job: &Job) {
    front.start_job(job);
    let outcome = front.exec.execute(&job.spec).map(Arc::new);
    front.commit(job, outcome, || {});
}

/// A running single-process simulation service: the front end over the
/// local worker pool.
pub type Server = Service<Pool>;

impl Server {
    /// Binds and starts the service (listener + worker pool). Returns as
    /// soon as the socket is bound; the actual address (with the resolved
    /// ephemeral port) is [`Service::local_addr`].
    ///
    /// # Errors
    ///
    /// Propagates socket bind failures and store open/scan failures.
    pub fn start(cfg: ServeConfig) -> std::io::Result<Server> {
        let pool = Pool {
            threads: cfg.workers.max(1),
            queue: Mutex::new(PoolQueue {
                jobs: VecDeque::new(),
                closed: false,
            }),
            ready: Condvar::new(),
        };
        Service::bind(
            &cfg.addr,
            cfg.queue_cap,
            cfg.cache_cap,
            cfg.topo_cache_cap,
            cfg.store,
            pool,
        )
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

    /// A waiter that looks after its deadline still gets a result
    /// published before it looked; only a missing result times out.
    #[test]
    fn a_published_result_is_served_past_the_deadline() {
        let Ok(Request::Run { spec, .. }) =
            parse_request(r#"{"v":1,"cmd":"run","params":{"seed":1}}"#)
        else {
            panic!("a run line parses as a run");
        };
        let job = Job {
            key: spec.cache_key(),
            spec,
            slot: Mutex::default(),
            done: Condvar::new(),
        };
        let passed = Instant::now();
        assert!(job.wait(Some(passed)).is_none());
        job.lock().outcome = Some(Err(ExecError {
            kind: ErrorKind::WorkerPanicked,
            message: "published".into(),
        }));
        let late = job.wait(Some(passed));
        assert!(matches!(late, Some(Err(e)) if e.message == "published"));
    }

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
