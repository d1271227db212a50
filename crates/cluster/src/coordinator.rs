//! The cluster coordinator: the `crn-serve` front end over ring
//! dispatch to a fleet of worker processes.
//!
//! ## One front end, one extra vocabulary
//!
//! Clients talk to the same [`Service`] front end `crn serve` runs, so
//! they cannot tell a coordinator from a single-process server: same
//! requests, same responses, and the same counters; only `status` adds
//! `role` and `workers`, and `stats` adds `role` and a `cluster` block.
//! The same listener also accepts workers: a connection whose line is
//! `{"v":1,"cmd":"join","worker":NAME}` becomes that worker's channel
//! for the rest of its life (`work` down, `result` up).
//!
//! ## Ring dispatch
//!
//! The front end admits a job; the `Ring` backend routes it to a worker by
//! consistent hashing over its cache key ([`HashRing`]). A crashed worker
//! (EOF on its channel) or an overdue job (re-dispatch timer) sends the
//! job to the next ring node, so the same result may arrive twice; the
//! front end's at-most-once commit keeps the first and counts the rest as
//! `late_duplicates`. With no live workers the coordinator executes
//! locally through the front end's [`Executor`](crn_serve::exec::Executor),
//! inline on the dispatching thread, so a degraded fleet degrades to
//! `crn serve`, not to an outage.
//!
//! Bit-identical results at any worker count are a consequence of
//! every process executing specs through the one shared executor path
//! and shipping them with the exact-float
//! [`outcome_codec`](crn_serve::outcome_codec).

use crate::ring::HashRing;
use crn_serve::exec::ExecError;
use crn_serve::protocol::ClusterMsg;
use crn_serve::server::{
    read_bounded_line, Backend, Counters, FrontEnd, Job, JobOutcome, LineRead, Service, Snapshot,
    MAX_REQUEST_LINE_BYTES,
};
use crn_serve::store::StoreConfig;
use crn_serve::sweep::write_json_line;
use crn_workloads::json::Json;
use std::collections::HashMap;
use std::io::BufReader;
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How the coordinator is sized; see the field docs for defaults.
#[derive(Clone, Debug)]
pub struct ClusterConfig {
    /// Bind address; port 0 picks an ephemeral port.
    pub addr: String,
    /// Bound on cluster jobs in flight; beyond it new work is rejected
    /// with `429 overloaded` (admission control, like the server queue).
    pub queue_cap: usize,
    /// Coordinator-side in-memory result cache capacity in entries.
    pub cache_cap: usize,
    /// Topology-tier cache capacity for the local-fallback executor.
    pub topo_cache_cap: usize,
    /// Optional persistent result store under the memory cache.
    pub store: Option<StoreConfig>,
    /// Re-dispatch a job still unanswered after this long (0 disables
    /// the timer; crash re-dispatch still works via EOF).
    pub job_timeout_ms: u64,
    /// Virtual nodes per worker on the hash ring.
    pub replicas: usize,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".into(),
            queue_cap: 256,
            cache_cap: 1024,
            topo_cache_cap: 64,
            store: None,
            job_timeout_ms: 30_000,
            replicas: 64,
        }
    }
}

/// The ring's own counters (all monotonically increasing); the request
/// counters are the front end's [`Counters`].
#[derive(Clone, Copy, Debug, Default)]
pub struct ClusterCounters {
    /// Jobs sent to a worker (re-dispatches included).
    pub dispatched: u64,
    /// Jobs whose winning result came from a worker.
    pub completed_remote: u64,
    /// Jobs executed by the coordinator itself (no eligible worker).
    pub local_fallbacks: u64,
    /// Jobs re-sent after a worker crash or timeout.
    pub redispatches: u64,
    /// Workers that ever joined.
    pub workers_joined: u64,
    /// Worker connections lost (crash or disconnect).
    pub workers_lost: u64,
}

/// A joined worker as the coordinator sees it.
struct WorkerHandle {
    slot: usize,
    name: String,
    writer: Mutex<TcpStream>,
    alive: AtomicBool,
    dispatched: AtomicU64,
    completed: AtomicU64,
    failed: AtomicU64,
}

/// An admitted job in the ring's table until its commit.
struct Routed {
    job: Arc<Job>,
    /// Worker slot currently responsible (`None` while executing locally).
    assigned: Option<usize>,
    dispatched_at: Instant,
}

struct RingState {
    workers: HashMap<usize, Arc<WorkerHandle>>,
    ring: HashRing,
    /// Jobs by the id their `work` and `result` lines carry.
    jobs: HashMap<u64, Routed>,
    next_id: u64,
    next_slot: usize,
    counters: ClusterCounters,
}

/// The coordinator's [`Backend`]: consistent-hash dispatch to joined
/// workers, crash and timeout re-dispatch, and the local fallback.
struct Ring {
    job_timeout_ms: u64,
    state: Mutex<RingState>,
}

type Front = FrontEnd<Ring>;

impl Ring {
    fn lock(&self) -> MutexGuard<'_, RingState> {
        self.state.lock().expect("ring state poisoned")
    }
}

impl Backend for Ring {
    fn start(front: &Arc<Front>) -> Vec<JoinHandle<()>> {
        let timeout = match front.backend.job_timeout_ms {
            0 => return Vec::new(),
            ms => Duration::from_millis(ms),
        };
        let front = front.clone();
        vec![std::thread::Builder::new()
            .name("crn-coord-monitor".into())
            .spawn(move || monitor_loop(&front, timeout))
            .expect("spawn coordinator monitor")]
    }

    fn dispatch(front: &Arc<Front>, job: Arc<Job>) {
        let id = {
            let mut rs = front.backend.lock();
            let id = rs.next_id;
            rs.next_id += 1;
            rs.jobs.insert(
                id,
                Routed {
                    job,
                    assigned: None,
                    dispatched_at: Instant::now(),
                },
            );
            id
        };
        route(front, id, None);
    }

    fn executors(&self) -> usize {
        self.lock()
            .workers
            .values()
            .filter(|w| w.alive.load(Ordering::Relaxed))
            .count()
    }

    fn adopt(
        front: &Arc<Front>,
        line: &str,
        reader: &mut BufReader<TcpStream>,
        writer: &TcpStream,
    ) -> bool {
        let Ok(ClusterMsg::Join { worker }) = ClusterMsg::parse(line) else {
            return false;
        };
        // The connection becomes the worker channel; a writer clone moves
        // into the registry.
        if let Ok(writer) = writer.try_clone() {
            worker_channel_loop(front, reader, writer, worker);
        }
        true
    }

    fn status_fields(&self, status: &mut Json) {
        status
            .set("role", Json::Str("coordinator".into()))
            .set("workers", Json::UInt(self.executors() as u64));
    }

    fn stats_fields(&self, snapshot: &Snapshot, stats: &mut Json) {
        let rs = self.lock();
        let c = rs.counters;
        let mut workers: Vec<&Arc<WorkerHandle>> = rs.workers.values().collect();
        workers.sort_by_key(|w| w.slot);
        let rows = workers
            .into_iter()
            .map(|w| {
                let mut row = Json::obj();
                row.set("name", Json::Str(w.name.clone()))
                    .set("alive", Json::Bool(w.alive.load(Ordering::Relaxed)))
                    .set(
                        "dispatched",
                        Json::UInt(w.dispatched.load(Ordering::Relaxed)),
                    )
                    .set("completed", Json::UInt(w.completed.load(Ordering::Relaxed)))
                    .set("failed", Json::UInt(w.failed.load(Ordering::Relaxed)));
                row
            })
            .collect();
        let mut cluster = Json::obj();
        cluster
            .set("workers", Json::Arr(rows))
            .set("workers_joined", Json::UInt(c.workers_joined))
            .set("workers_lost", Json::UInt(c.workers_lost))
            .set("dispatched", Json::UInt(c.dispatched))
            .set("completed_remote", Json::UInt(c.completed_remote))
            .set("local_fallbacks", Json::UInt(c.local_fallbacks))
            .set("redispatches", Json::UInt(c.redispatches))
            .set(
                "late_duplicates",
                Json::UInt(snapshot.counters.late_duplicates),
            );
        stats
            .set("role", Json::Str("coordinator".into()))
            .set("cluster", cluster);
    }
}

/// Routes job `id` to a worker via the ring, or runs it locally when no
/// eligible worker exists. `exclude` skips the current assignee on a
/// timeout re-dispatch.
fn route(front: &Arc<Front>, id: u64, exclude: Option<usize>) {
    let (job, target) = {
        let mut rs = front.backend.lock();
        let rs = &mut *rs;
        let Some(routed) = rs.jobs.get_mut(&id) else {
            return; // committed meanwhile
        };
        if routed.job.is_claimed() {
            return;
        }
        let workers = &rs.workers;
        let slot = rs.ring.route_when(routed.job.key, |slot| {
            Some(slot) != exclude
                && workers
                    .get(&slot)
                    .is_some_and(|w| w.alive.load(Ordering::Relaxed))
        });
        routed.assigned = slot;
        routed.dispatched_at = Instant::now();
        let target = slot.map(|slot| workers[&slot].clone());
        if target.is_some() {
            rs.counters.dispatched += 1;
        }
        (routed.job.clone(), target)
    };
    match target {
        Some(w) => {
            let msg = ClusterMsg::Work {
                id,
                spec: job.spec.clone(),
            }
            .encode();
            let sent = {
                let mut wr = w.writer.lock().expect("worker writer poisoned");
                write_json_line(&mut *wr, &msg)
            };
            if sent.is_ok() {
                w.dispatched.fetch_add(1, Ordering::Relaxed);
            } else {
                // Dead on arrival: reaping re-dispatches everything
                // assigned to this worker, this job included.
                reap_worker(front, w.slot);
            }
        }
        None => {
            // No eligible worker: degrade to a single-process server.
            let result = front.exec.execute(&job.spec).map(Arc::new);
            settle(front, id, &job, result, |c| c.local_fallbacks += 1);
        }
    }
}

/// Commits one result for job `id` through the front end; the winner
/// retires the job from the ring and credits `credit` before any waiter
/// wakes.
fn settle(
    front: &Front,
    id: u64,
    job: &Job,
    result: JobOutcome,
    credit: impl FnOnce(&mut ClusterCounters),
) {
    front.commit(job, result, || {
        let mut rs = front.backend.lock();
        rs.jobs.remove(&id);
        credit(&mut rs.counters);
    });
}

/// Marks a worker dead, removes its ring arcs, and re-dispatches every
/// job it still owed. Idempotent per worker.
fn reap_worker(front: &Arc<Front>, slot: usize) {
    let orphans: Vec<u64> = {
        let mut rs = front.backend.lock();
        let Some(w) = rs.workers.get(&slot) else {
            return;
        };
        if !w.alive.swap(false, Ordering::SeqCst) {
            return; // already reaped
        }
        // Close the socket so the worker process sees EOF and exits.
        let _ = w
            .writer
            .lock()
            .expect("worker writer poisoned")
            .shutdown(std::net::Shutdown::Both);
        rs.ring.remove(slot);
        rs.counters.workers_lost += 1;
        let orphans: Vec<u64> = rs
            .jobs
            .iter()
            .filter(|(_, r)| r.assigned == Some(slot) && !r.job.is_claimed())
            .map(|(&id, _)| id)
            .collect();
        rs.counters.redispatches += orphans.len() as u64;
        orphans
    };
    for id in orphans {
        route(front, id, None);
    }
}

/// Re-dispatches jobs a worker has sat on past the timeout. Exits when
/// draining (remaining jobs are owned by their dispatch chains).
fn monitor_loop(front: &Arc<Front>, timeout: Duration) {
    let tick = (timeout / 4).clamp(Duration::from_millis(20), Duration::from_millis(500));
    loop {
        std::thread::sleep(tick);
        if front.draining() {
            return;
        }
        let overdue: Vec<(u64, Option<usize>)> = {
            let mut rs = front.backend.lock();
            // Only remotely assigned jobs can be stuck; local execution
            // completes synchronously.
            let late: Vec<(u64, Option<usize>)> = rs
                .jobs
                .iter()
                .filter(|(_, r)| {
                    r.assigned.is_some()
                        && r.dispatched_at.elapsed() > timeout
                        && !r.job.is_claimed()
                })
                .map(|(&id, r)| (id, r.assigned))
                .collect();
            rs.counters.redispatches += late.len() as u64;
            late
        };
        for (id, previous) in overdue {
            route(front, id, previous);
        }
    }
}

/// Registers the worker and consumes its `result` lines until the
/// connection dies, then reaps it.
fn worker_channel_loop(
    front: &Arc<Front>,
    reader: &mut BufReader<TcpStream>,
    writer: TcpStream,
    name: String,
) {
    if front.draining() {
        return;
    }
    let handle = {
        let mut rs = front.backend.lock();
        let slot = rs.next_slot;
        rs.next_slot += 1;
        let handle = Arc::new(WorkerHandle {
            slot,
            name: name.clone(),
            writer: Mutex::new(writer),
            alive: AtomicBool::new(true),
            dispatched: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            failed: AtomicU64::new(0),
        });
        rs.workers.insert(slot, handle.clone());
        rs.ring.insert(slot, &name);
        rs.counters.workers_joined += 1;
        handle
    };
    let mut line = String::new();
    let mut discarding = false;
    loop {
        match read_bounded_line(reader, &mut line, &mut discarding, MAX_REQUEST_LINE_BYTES) {
            LineRead::Idle => {
                // Keep the channel while draining until every routed job
                // has committed — late results still matter — then hang
                // up so the worker process winds down on EOF.
                if front.draining() && front.backend.lock().jobs.is_empty() {
                    break;
                }
            }
            LineRead::Eof | LineRead::Closed | LineRead::TooLarge => break,
            LineRead::Line => {
                if let Ok(ClusterMsg::Result { id, result }) = ClusterMsg::parse(line.trim()) {
                    accept_result(front, &handle, id, result);
                }
                line.clear();
            }
        }
    }
    reap_worker(front, handle.slot);
}

/// Commits one worker result through the at-most-once path.
fn accept_result(
    front: &Front,
    worker: &WorkerHandle,
    id: u64,
    result: Result<crn_core::CollectionOutcome, (crn_serve::ErrorKind, String)>,
) {
    let job = front.backend.lock().jobs.get(&id).map(|r| r.job.clone());
    let Some(job) = job else {
        // Committed (and retired from the ring) by someone faster.
        front.late_duplicate();
        return;
    };
    let failed = result.is_err();
    let result = result
        .map(Arc::new)
        .map_err(|(kind, message)| ExecError { kind, message });
    settle(front, id, &job, result, |c| {
        c.completed_remote += 1;
        let tally = if failed {
            &worker.failed
        } else {
            &worker.completed
        };
        tally.fetch_add(1, Ordering::Relaxed);
    });
}

/// A running coordinator.
pub struct Coordinator {
    service: Service<Ring>,
}

impl Coordinator {
    /// Binds and starts the coordinator. Returns as soon as the socket
    /// is bound; workers and clients connect to
    /// [`Coordinator::local_addr`].
    ///
    /// # Errors
    ///
    /// Propagates bind failures and store open/scan failures.
    pub fn start(cfg: ClusterConfig) -> std::io::Result<Coordinator> {
        let ring = Ring {
            job_timeout_ms: cfg.job_timeout_ms,
            state: Mutex::new(RingState {
                workers: HashMap::new(),
                ring: HashRing::new(cfg.replicas),
                jobs: HashMap::new(),
                next_id: 1,
                next_slot: 0,
                counters: ClusterCounters::default(),
            }),
        };
        let service = Service::bind(
            &cfg.addr,
            cfg.queue_cap,
            cfg.cache_cap,
            cfg.topo_cache_cap,
            cfg.store,
            ring,
        )?;
        Ok(Coordinator { service })
    }

    /// The bound address.
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.service.local_addr()
    }

    /// Initiates a graceful shutdown: stop accepting, let in-flight
    /// jobs finish (locally if every worker leaves first), hang up on
    /// workers, exit.
    pub fn shutdown(&self) {
        self.service.shutdown();
    }

    /// Blocks until fully drained after a shutdown, then returns the
    /// final request counters and the ring's own counters.
    ///
    /// # Panics
    ///
    /// Panics if a coordinator thread itself panicked.
    pub fn wait(self) -> (Counters, ClusterCounters) {
        let front = self.service.front().clone();
        let counters = self.service.wait();
        let fleet = front.backend.lock().counters;
        (counters, fleet)
    }
}
