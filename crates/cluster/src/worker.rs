//! A cluster worker: dials the coordinator, joins, and executes the
//! `work` messages pushed down the same connection.
//!
//! The worker runs specs through the shared [`Executor`] — the exact
//! code path `crn-serve` uses — with its own two result tiers in front:
//! an in-memory LRU and (optionally) a persistent
//! [`ResultStore`]. Because the coordinator
//! routes by content, the same key always lands here, so the local
//! tiers carry the fleet's share of the dedup work. Results travel back
//! as full-fidelity [`outcome_codec`](crn_serve::outcome_codec)
//! payloads: the coordinator re-serves them bit-identically.
//!
//! A worker's lifetime is its connection: when the coordinator hangs up
//! (or [`WorkerNode::kill`] shuts the socket, as the crash tests do),
//! the reader stops, the execution threads drain and exit, and any
//! still-running job's result is simply never delivered — the
//! coordinator's re-dispatch owns recovery from there.

use crn_core::CollectionOutcome;
use crn_serve::cache::LruCache;
use crn_serve::exec::Executor;
use crn_serve::protocol::{ClusterMsg, RunSpec};
use crn_serve::server::{read_bounded_line, LineRead, MAX_REQUEST_LINE_BYTES};
use crn_serve::store::{ResultStore, StoreConfig};
use crn_serve::sweep::write_json_line;
use std::collections::VecDeque;
use std::io::BufReader;
use std::net::TcpStream;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

/// How a worker is sized and where it joins.
#[derive(Clone, Debug)]
pub struct WorkerConfig {
    /// Coordinator address (`host:port`).
    pub coordinator: String,
    /// Operator-visible name; also seeds the worker's ring arcs, so a
    /// restarted worker with the same name reclaims the same key range.
    pub name: String,
    /// Execution threads (min 1).
    pub threads: usize,
    /// In-memory result cache capacity in entries.
    pub cache_cap: usize,
    /// Topology-tier cache capacity in entries.
    pub topo_cache_cap: usize,
    /// Optional persistent result store (worker-local directory).
    pub store: Option<StoreConfig>,
}

impl Default for WorkerConfig {
    fn default() -> Self {
        Self {
            coordinator: String::new(),
            name: "worker".into(),
            threads: 2,
            cache_cap: 1024,
            topo_cache_cap: 64,
            store: None,
        }
    }
}

struct WorkQueue {
    jobs: VecDeque<(u64, RunSpec)>,
    closed: bool,
}

struct WorkerShared {
    queue: Mutex<WorkQueue>,
    work_ready: Condvar,
    writer: Mutex<TcpStream>,
    exec: Executor,
    cache: Mutex<LruCache<u64, Arc<CollectionOutcome>>>,
    store: Option<Mutex<ResultStore>>,
}

/// A joined worker process half: reader thread + execution pool.
pub struct WorkerNode {
    stream: TcpStream,
    reader: Option<JoinHandle<()>>,
    execs: Vec<JoinHandle<()>>,
}

impl WorkerNode {
    /// Connects, joins, and starts executing; returns immediately.
    ///
    /// # Errors
    ///
    /// Propagates connect/handshake failures and store open failures.
    pub fn start(cfg: WorkerConfig) -> std::io::Result<WorkerNode> {
        let stream = TcpStream::connect(cfg.coordinator.as_str())?;
        stream.set_nodelay(true).ok();
        let mut writer = stream.try_clone()?;
        write_json_line(
            &mut writer,
            &ClusterMsg::Join {
                worker: cfg.name.clone(),
            }
            .encode(),
        )?;
        let store = match &cfg.store {
            None => None,
            Some(sc) => Some(Mutex::new(ResultStore::open(sc.clone())?)),
        };
        let shared = Arc::new(WorkerShared {
            queue: Mutex::new(WorkQueue {
                jobs: VecDeque::new(),
                closed: false,
            }),
            work_ready: Condvar::new(),
            writer: Mutex::new(writer),
            exec: Executor::new(cfg.topo_cache_cap),
            cache: Mutex::new(LruCache::new(cfg.cache_cap)),
            store,
        });
        let reader = {
            let shared = shared.clone();
            let conn = stream.try_clone()?;
            std::thread::Builder::new()
                .name(format!("crn-worker-{}-reader", cfg.name))
                .spawn(move || reader_loop(conn, &shared))
                .expect("spawn worker reader")
        };
        let execs = (0..cfg.threads.max(1))
            .map(|i| {
                let shared = shared.clone();
                std::thread::Builder::new()
                    .name(format!("crn-worker-{}-exec-{i}", cfg.name))
                    .spawn(move || exec_loop(&shared))
                    .expect("spawn worker exec thread")
            })
            .collect();
        Ok(WorkerNode {
            stream,
            reader: Some(reader),
            execs,
        })
    }

    /// Connects and blocks until the coordinator hangs up (the CLI
    /// `crn serve --join` body).
    ///
    /// # Errors
    ///
    /// Propagates [`WorkerNode::start`] failures.
    pub fn run(cfg: WorkerConfig) -> std::io::Result<()> {
        WorkerNode::start(cfg)?.wait();
        Ok(())
    }

    /// Hard-kills the worker's connection (crash injection for tests):
    /// the coordinator sees EOF and re-dispatches this worker's jobs.
    pub fn kill(&self) {
        let _ = self.stream.shutdown(std::net::Shutdown::Both);
    }

    /// Blocks until the connection dies and every thread has exited.
    pub fn wait(mut self) {
        if let Some(r) = self.reader.take() {
            r.join().expect("worker reader panicked");
        }
        for h in self.execs.drain(..) {
            h.join().expect("worker exec thread panicked");
        }
    }
}

fn reader_loop(stream: TcpStream, shared: &Arc<WorkerShared>) {
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
            LineRead::Idle => {}
            LineRead::Eof | LineRead::Closed | LineRead::TooLarge => break,
            LineRead::Line => {
                if let Ok(ClusterMsg::Work { id, spec }) = ClusterMsg::parse(line.trim()) {
                    let mut q = shared.queue.lock().expect("worker queue poisoned");
                    q.jobs.push_back((id, spec));
                    drop(q);
                    shared.work_ready.notify_one();
                }
                // Anything else on the worker channel is a protocol slip
                // by the coordinator; dropping it is the safe response.
                line.clear();
            }
        }
    }
    let mut q = shared.queue.lock().expect("worker queue poisoned");
    q.closed = true;
    drop(q);
    shared.work_ready.notify_all();
}

fn exec_loop(shared: &Arc<WorkerShared>) {
    loop {
        let (id, spec) = {
            let mut q = shared.queue.lock().expect("worker queue poisoned");
            loop {
                if let Some(job) = q.jobs.pop_front() {
                    break job;
                }
                if q.closed {
                    return;
                }
                q = shared.work_ready.wait(q).expect("worker queue poisoned");
            }
        };
        let result = resolve(shared, &spec);
        let msg = ClusterMsg::Result { id, result }.encode();
        // A failed write means the coordinator is gone; the reader will
        // notice EOF and wind the worker down.
        let mut w = shared.writer.lock().expect("worker writer poisoned");
        let _ = write_json_line(&mut *w, &msg);
    }
}

/// Cache → store → execute, committing fresh results to both tiers.
fn resolve(
    shared: &Arc<WorkerShared>,
    spec: &RunSpec,
) -> Result<CollectionOutcome, (crn_serve::ErrorKind, String)> {
    let key = spec.cache_key();
    let hit = shared
        .cache
        .lock()
        .expect("worker cache poisoned")
        .get(&key);
    if let Some(outcome) = hit {
        return Ok((*outcome).clone());
    }
    if let Some(store) = &shared.store {
        let promoted = store.lock().expect("worker store poisoned").get(key);
        if let Some(outcome) = promoted {
            let outcome = Arc::new(outcome);
            shared
                .cache
                .lock()
                .expect("worker cache poisoned")
                .insert(key, outcome.clone());
            return Ok((*outcome).clone());
        }
    }
    match shared.exec.execute(spec) {
        Ok(outcome) => {
            let arc = Arc::new(outcome.clone());
            shared
                .cache
                .lock()
                .expect("worker cache poisoned")
                .insert(key, arc);
            if let Some(store) = &shared.store {
                let _ = store
                    .lock()
                    .expect("worker store poisoned")
                    .put(key, &outcome);
            }
            Ok(outcome)
        }
        Err(e) => Err((e.kind, e.message)),
    }
}
