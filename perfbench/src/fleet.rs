//! `fleet-restart`: an in-process `crn_cluster::Coordinator` with two
//! `WorkerNode`s of one execution thread each; the coordinator and each
//! worker have their own `ResultStore` in a scratch directory.
//!
//! One client submits a fixed list of streamed `p_t`-axis sweeps of fresh
//! tiny-preset points. The fleet is then shut down and restarted on the
//! same stores, and the same list is submitted again. The first pass
//! routes every point over the ring to a worker and writes each result
//! to disk with an fsync; the second pass reads them back. A change that
//! helps one side at the other's cost therefore shows. The restart pass's
//! rows must equal the first pass's, apart from their `cached` flag.

use crate::pipeline::{self, Prepared, Work};
use crate::{stats, trace, Ctx, Unit};
use crn_cluster::{ClusterConfig, Coordinator, HashRing, WorkerConfig, WorkerNode};
use crn_core::CollectionOutcome;
use crn_serve::client::Client;
use crn_serve::exec::Executor;
use crn_serve::protocol::{parse_request, ClusterMsg, Request, RunSpec};
use crn_serve::store::{ResultStore, StoreConfig};
use crn_workloads::json::Json;
use std::collections::HashMap;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Sweeps per pass and the `p_t` values of each.
const SWEEPS: usize = 12;
const SWEEPS_SMOKE: usize = 2;
const VALUES: [f64; 5] = [0.2, 0.25, 0.3, 0.35, 0.4];
const VALUES_SMOKE: usize = 2;
const WORKERS: usize = 2;
/// Rounds of ring routing timed per key in a traced unit (one route
/// takes well under a microsecond).
const ROUTE_ROUNDS: usize = 200;

struct Fleet {
    coordinator: Coordinator,
    workers: Vec<WorkerNode>,
}

fn store(dir: PathBuf) -> Option<StoreConfig> {
    Some(StoreConfig { dir, max_bytes: 0 })
}

impl Fleet {
    /// Starts the coordinator and its workers on the stores under `root`
    /// and returns once every worker has joined.
    fn start(root: &Path) -> Result<(Fleet, Client), String> {
        let coordinator = Coordinator::start(ClusterConfig {
            store: store(root.join("coordinator")),
            ..ClusterConfig::default()
        })
        .map_err(|e| format!("coordinator start: {e}"))?;
        let addr = coordinator.local_addr();
        let mut fleet = Fleet {
            coordinator,
            workers: Vec::new(),
        };
        for w in 0..WORKERS {
            let name = format!("w{w}");
            match WorkerNode::start(WorkerConfig {
                coordinator: addr.to_string(),
                threads: 1,
                store: store(root.join(&name)),
                name,
                ..WorkerConfig::default()
            }) {
                Ok(node) => fleet.workers.push(node),
                Err(e) => {
                    fleet.stop();
                    return Err(format!("worker start: {e}"));
                }
            }
        }
        match wait_joined(addr) {
            Ok(client) => Ok((fleet, client)),
            Err(e) => {
                fleet.stop();
                Err(e)
            }
        }
    }

    fn stop(self) {
        self.coordinator.shutdown();
        self.coordinator.wait();
        for w in self.workers {
            w.wait();
        }
    }
}

/// Polls the coordinator's `stats` until every worker is alive.
fn wait_joined(addr: SocketAddr) -> Result<Client, String> {
    let mut client = Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let stats = client.stats().map_err(|e| format!("stats: {e}"))?;
        let alive = stats
            .get("cluster")
            .and_then(|c| c.get("workers"))
            .and_then(Json::as_arr)
            .map_or(0, |rows| {
                rows.iter()
                    .filter(|r| r.get("alive").and_then(Json::as_bool) == Some(true))
                    .count()
            });
        if alive >= WORKERS {
            return Ok(client);
        }
        if Instant::now() > deadline {
            return Err(format!("only {alive} of {WORKERS} workers joined"));
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// The sweep request lines of one unit: fresh deployments, alternating
/// algorithms, one `p_t` axis each.
fn sweep_lines(ctx: &Ctx) -> Vec<String> {
    let (sweeps, values) = if ctx.opts.smoke {
        (SWEEPS_SMOKE, &VALUES[..VALUES_SMOKE])
    } else {
        (SWEEPS, &VALUES[..])
    };
    let mut rng = stats::Rng::new(ctx.seed);
    (0..sweeps)
        .map(|k| {
            let mut params = Json::obj();
            params
                .set("sus", Json::UInt(150))
                .set("pus", Json::UInt(16))
                .set("side", Json::UInt(70))
                .set("seed", Json::UInt(rng.next_u64() >> 11));
            let mut axis = Json::obj();
            axis.set("kind", Json::Str("pt".into())).set(
                "values",
                Json::Arr(values.iter().map(|&v| Json::float(v)).collect()),
            );
            let mut o = Json::obj();
            o.set("v", Json::UInt(1))
                .set("cmd", Json::Str("sweep".into()))
                .set("params", params)
                .set(
                    "algo",
                    Json::Str(if k % 2 == 0 { "addc" } else { "coolest" }.into()),
                )
                .set("axis", axis)
                .set("stream", Json::Bool(true));
            o.to_string()
        })
        .collect()
}

/// One pass: every sweep in order over one connection. Returns the rows
/// (with `cached` removed) and each sweep's latency in milliseconds.
fn pass(client: &mut Client, lines: &[String]) -> Result<(Vec<String>, Vec<f64>), String> {
    let mut rows = Vec::new();
    let mut latencies = Vec::new();
    for (k, line) in lines.iter().enumerate() {
        let _span = trace::span("fleet.sweep", k as u64);
        let sent = Instant::now();
        let done = client
            .request_stream(line, |row| {
                let kept = match row {
                    Json::Obj(pairs) => {
                        Json::Obj(pairs.into_iter().filter(|(k, _)| k != "cached").collect())
                    }
                    other => other,
                };
                rows.push(kept.to_string());
            })
            .map_err(|e| format!("sweep {k}: {e}"))?;
        latencies.push(sent.elapsed().as_secs_f64() * 1e3);
        if done.get("ok").and_then(Json::as_bool) != Some(true) {
            return Err(format!("sweep {k} failed: {done}"));
        }
    }
    Ok((rows, latencies))
}

fn stat(stats: &Json, path: &[&str]) -> f64 {
    let mut v = stats;
    for key in path {
        match v.get(key) {
            Some(next) => v = next,
            None => return 0.0,
        }
    }
    v.as_f64().unwrap_or(0.0)
}

pub fn run(ctx: &Ctx) -> Result<Unit, String> {
    let root = ctx.scratch_dir();
    let _ = std::fs::remove_dir_all(&root);
    let result = run_in(ctx, &root);
    let _ = std::fs::remove_dir_all(&root);
    result
}

fn run_in(ctx: &Ctx, root: &Path) -> Result<Unit, String> {
    let lines = sweep_lines(ctx);
    let mut unit = Unit::default();

    let (fleet, mut client) = Fleet::start(root)?;
    unit.setup_s = ctx.elapsed();
    let cpu0 = stats::cpu_seconds();
    let first = pass(&mut client, &lines);
    let cpu = stats::cpu_seconds() - cpu0;
    unit.wall_s = ctx.elapsed();
    let first_s = unit.wall_s - unit.setup_s;
    let cold = client.stats().map_err(|e| format!("stats: {e}"));
    drop(client);
    fleet.stop();
    let (first_rows, latencies) = first?;
    let cold = cold?;

    let restarted = ctx.elapsed();
    let (fleet, mut client) = Fleet::start(root)?;
    let second = pass(&mut client, &lines);
    unit.rerun_s = ctx.elapsed() - restarted;
    let warm = client.stats().map_err(|e| format!("stats: {e}"));
    drop(client);
    fleet.stop();
    unit.peak_rss_mb = stats::peak_rss_mb();
    let (second_rows, _) = second?;
    let warm = warm?;

    eprintln!(
        "fleet-restart unit {}: {} rows in {first_s:.3} s, rerun {:.3} s",
        ctx.unit,
        first_rows.len(),
        unit.rerun_s
    );
    unit.lat_ms = latencies;
    unit.good_ops = first_rows.len() as u64;
    unit.window_s = first_s;
    unit.work_s = first_s;
    unit.digest = first_rows
        .iter()
        .fold(stats::FNV_START, |h, r| crn_core::fnv1a_64(h, r.as_bytes()));
    let completed: Vec<f64> = cold
        .get("cluster")
        .and_then(|c| c.get("workers"))
        .and_then(Json::as_arr)
        .map_or_else(Vec::new, |rows| {
            rows.iter()
                .map(|r| r.get("completed").and_then(Json::as_f64).unwrap_or(0.0))
                .collect()
        });
    let share = stats::ratio(
        completed.iter().copied().fold(0.0, f64::max),
        completed.iter().sum(),
    );
    unit.layer(
        "cluster.dispatched",
        stat(&cold, &["cluster", "dispatched"]),
    );
    unit.layer(
        "cluster.redispatches",
        stat(&cold, &["cluster", "redispatches"]),
    );
    unit.layer(
        "cluster.local_fallbacks",
        stat(&cold, &["cluster", "local_fallbacks"]),
    );
    unit.layer("cluster.worker_share_max", share);
    unit.layer(
        "proc.cpu_util",
        stats::ratio(cpu, stats::cores() as f64 * first_s),
    );
    unit.layer("store.bytes", stat(&cold, &["store", "store_bytes"]));
    unit.layer("store.hits", stat(&warm, &["store", "store_hits"]));
    let received = stat(&cold, &["counters", "received"]);
    unit.layer(
        "serve.cache_hit_ratio",
        stats::ratio(stat(&cold, &["counters", "cache_hits"]), received),
    );
    unit.layer("serve.coalesced", stat(&cold, &["counters", "coalesced"]));
    unit.layer("serve.computed", stat(&cold, &["counters", "computed"]));

    // One operation per row: the first pass's rows carry records, and the
    // restart pass gives the same rows in the same order.
    let expected = lines.len()
        * if ctx.opts.smoke {
            VALUES_SMOKE
        } else {
            VALUES.len()
        };
    unit.check(first_rows.len() == expected, || {
        format!(
            "first pass gave {} rows for {expected} points",
            first_rows.len()
        )
    });
    for (j, row) in first_rows.iter().enumerate() {
        let ok = row.contains("\"record\"") && second_rows.get(j) == Some(row);
        unit.check(ok, || {
            format!("row {j}: {row} then {:?}", second_rows.get(j))
        });
    }

    if ctx.opts.trace {
        replay(&mut unit, root, &lines, first_s, first_rows.len())?;
    }
    Ok(unit)
}

/// The per-point specs of the sweep lines, as the coordinator derives
/// them.
fn point_specs(lines: &[String]) -> Result<Vec<RunSpec>, String> {
    let mut specs = Vec::new();
    for line in lines {
        let Ok(Request::Sweep {
            spec, seeds, axis, ..
        }) = parse_request(line)
        else {
            return Err(format!("not a sweep request: {line}"));
        };
        for seed in seeds {
            let mut base = spec.clone();
            base.params.seed = seed;
            match &axis {
                None => specs.push(base),
                Some(axis) => {
                    for &x in &axis.values {
                        let mut point = base.clone();
                        point.params = axis.apply(&base.params, x);
                        specs.push(point);
                    }
                }
            }
        }
    }
    Ok(specs)
}

/// Replays, on the unit's own points: `Executor::execute` (a worker's
/// execution) and the layer path of [`pipeline`], then the wire and
/// store calls of [`replay_wire_and_store`].
fn replay(
    unit: &mut Unit,
    root: &Path,
    lines: &[String],
    first_s: f64,
    rows: usize,
) -> Result<(), String> {
    let specs = point_specs(lines)?;
    let exec = Executor::new(WorkerConfig::default().topo_cache_cap);
    let mut outcomes = Vec::with_capacity(specs.len());
    let mut exec_s = 0.0;
    let mut work = Work::default();
    let mut topologies: HashMap<u64, Prepared> = HashMap::new();
    for (i, spec) in specs.iter().enumerate() {
        let op = i as u64;
        let started = Instant::now();
        let outcome = trace::in_span("serve.exec", op, || exec.execute(spec))
            .map_err(|e| format!("execute: {}", e.message))?;
        exec_s += started.elapsed().as_secs_f64();
        let key = spec.params.topology_key();
        let mut prepared = match topologies.get(&key) {
            Some(prev) => prev.derive(&spec.params, op)?,
            None => Prepared::generate(&spec.params, op)?,
        };
        let direct = prepared.run(spec.algorithm, op, &mut work)?;
        unit.check(direct == outcome, || {
            format!("point {i}: layer replay differs from the executor")
        });
        topologies.insert(key, prepared);
        outcomes.push(outcome);
    }
    let n = specs.len().max(1) as f64;
    unit.layer("serve.exec_ms", exec_s * 1e3 / n);
    unit.layer(
        "cluster.dispatch_overhead_ms",
        (first_s * WORKERS as f64 / rows.max(1) as f64 - exec_s / n) * 1e3,
    );
    replay_wire_and_store(unit, &root.join("replay-store"), &specs, &outcomes)?;
    pipeline::layer_metrics(unit, &trace::spans(), &work, None);
    Ok(())
}

/// Replays the cluster and store calls a fleet makes for each point, on
/// `specs` and their `outcomes`: the `ClusterMsg` work/result codec,
/// `HashRing::route` over two workers, and `ResultStore` put, open and
/// get on a fresh store in `dir`. Every round trip must give back what
/// went in.
pub fn replay_wire_and_store(
    unit: &mut Unit,
    dir: &Path,
    specs: &[RunSpec],
    outcomes: &[CollectionOutcome],
) -> Result<(), String> {
    let n = specs.len().max(1) as f64;
    let started = Instant::now();
    for (i, (spec, outcome)) in specs.iter().zip(outcomes).enumerate() {
        let _span = trace::span("cluster.codec", i as u64);
        let id = i as u64;
        let work_line = ClusterMsg::Work {
            id,
            spec: spec.clone(),
        }
        .encode()
        .to_string();
        let back = ClusterMsg::parse(&work_line);
        unit.check(
            matches!(&back, Ok(ClusterMsg::Work { spec: s, .. }) if s == spec),
            || format!("point {i}: work message does not round-trip"),
        );
        let result_line = ClusterMsg::Result {
            id,
            result: Ok(outcome.clone()),
        }
        .encode()
        .to_string();
        let back = ClusterMsg::parse(&result_line);
        unit.check(
            matches!(&back, Ok(ClusterMsg::Result { result: Ok(o), .. }) if o == outcome),
            || format!("point {i}: result message does not round-trip"),
        );
    }
    unit.layer(
        "cluster.msg_codec_us",
        started.elapsed().as_secs_f64() * 1e6 / (2.0 * n),
    );

    let mut ring = HashRing::new(ClusterConfig::default().replicas);
    for w in 0..WORKERS {
        ring.insert(w, &format!("w{w}"));
    }
    let keys: Vec<u64> = specs.iter().map(RunSpec::cache_key).collect();
    let started = Instant::now();
    let mut routed = 0usize;
    {
        let _span = trace::span("cluster.route", 0);
        for _ in 0..ROUTE_ROUNDS {
            for &k in &keys {
                routed += std::hint::black_box(ring.route(k)).unwrap_or(0);
            }
        }
    }
    std::hint::black_box(routed);
    unit.layer(
        "cluster.route_us",
        started.elapsed().as_secs_f64() * 1e6 / (ROUTE_ROUNDS as f64 * n),
    );

    let open = |dir: &Path| {
        ResultStore::open(StoreConfig {
            dir: dir.to_path_buf(),
            max_bytes: 0,
        })
        .map_err(|e| format!("store open: {e}"))
    };
    let mut store = open(dir)?;
    let started = Instant::now();
    for (i, (key, outcome)) in keys.iter().zip(outcomes).enumerate() {
        trace::in_span("store.put", i as u64, || store.put(*key, outcome))
            .map_err(|e| format!("store put: {e}"))?;
    }
    unit.layer("store.put_ms", started.elapsed().as_secs_f64() * 1e3 / n);
    drop(store);
    let started = Instant::now();
    let mut store = trace::in_span("store.scan", 0, || open(dir))?;
    unit.layer("store.scan_s", started.elapsed().as_secs_f64());
    let started = Instant::now();
    for (i, (key, outcome)) in keys.iter().zip(outcomes).enumerate() {
        let got = trace::in_span("store.get", i as u64, || store.get(*key));
        unit.check(got.as_ref() == Some(outcome), || {
            format!("point {i}: store get differs")
        });
    }
    unit.layer("store.get_ms", started.elapsed().as_secs_f64() * 1e3 / n);
    Ok(())
}
