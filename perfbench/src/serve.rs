//! `serve-mixed`: an in-process `crn_serve::Server` on loopback with one
//! worker per core and the memory cache.
//!
//! A fixed, seeded list of tiny-preset `run` requests (150 SUs, 16 PUs,
//! 70×70) is driven closed loop over one connection per core: a free
//! connection sends the next request as soon as its previous answer is
//! in. The mix is ≈60% repeats of pre-warmed points, ≈25% `p_t` variants
//! of a recently computed deployment, and ≈15% fresh seeds. A cache hit
//! costs a round trip through parse, cache, encode and the wire; a miss
//! costs a simulation. So `p50_ms` is set by the front end and `p99_ms`
//! by compute.
//!
//! The end-to-end figures come from the closed loop because an open
//! loop does not hold on a 2-core host: two compute workers leave the
//! load generator without a core, so requests go out late and the tail
//! follows the host rather than the server. Traced units still drive an
//! open loop after the closed one, at [`RATE_RPS`], and report its
//! lateness as `loadgen.lag_ms`.
//!
//! The protocol's `run` request carries `p_t` but no SU power, so radio
//! variants change `p_t` only.

use crate::pipeline::{self, Prepared, Work};
use crate::{fleet, stats, trace, Ctx, Unit};
use crn_core::Scenario;
use crn_serve::client::Client;
use crn_serve::exec::Executor;
use crn_serve::protocol::{parse_request, report_json, Request, RunSpec};
use crn_serve::server::{ServeConfig, Server};
use crn_workloads::json::Json;
use std::collections::{HashMap, HashSet, VecDeque};
use std::net::SocketAddr;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Shares of repeats and radio variants; the rest are fresh seeds.
const REPEAT_SHARE: f64 = 0.60;
const VARIANT_SHARE: f64 = 0.25;
/// Requests slower than this miss the goodput count.
const LIMIT_MS: f64 = 50.0;
/// Closed-loop requests in one unit.
const REQUESTS: usize = 1500;
const REQUESTS_SMOKE: usize = 60;
/// Open-loop arrival rate of a traced unit, requests per second: half
/// the 366 requests per second that two saturating connections reached
/// with this mix on a 2-core host when this benchmark was added.
const RATE_RPS: f64 = 180.0;
/// Seconds of open-loop traffic in a traced unit.
const OPEN_S: f64 = 3.0;
const OPEN_S_SMOKE: f64 = 0.2;
/// Pre-warmed points that repeats draw from.
const WARM: usize = 64;
const WARM_SMOKE: usize = 6;
/// Deployments a radio variant may pick from: the most recently
/// computed ones, well inside the server's 64-entry topology tier.
const RECENT: usize = 32;
/// Computed points compared against a direct `Scenario` run.
const DIRECT_SAMPLE: usize = 6;
/// Misses replayed through the layers in a traced unit.
const REPLAY_MISSES: usize = 40;
const REPLAY_MISSES_SMOKE: usize = 4;
/// Closed-loop passes over the measured requests in the rerun.
const RERUN_ROUNDS: usize = 3;
/// Status round trips timed in a traced unit.
const STATUS_PINGS: usize = 200;

/// `p_t` of a point: 0.20, 0.22, …, 0.40; fresh points take 0.30, the
/// protocol's default.
fn p_t(idx: usize) -> f64 {
    (20 + 2 * idx) as f64 / 100.0
}
const PT_VALUES: usize = 11;
const PT_BASE: usize = 5;

#[derive(Clone, Copy, PartialEq, Eq, Hash)]
struct Point {
    seed: u64,
    pt: usize,
    coolest: bool,
}

impl Point {
    fn line(self) -> String {
        let mut params = Json::obj();
        params
            .set("sus", Json::UInt(150))
            .set("pus", Json::UInt(16))
            .set("side", Json::UInt(70))
            .set("pt", Json::float(p_t(self.pt)))
            .set("seed", Json::UInt(self.seed));
        let mut o = Json::obj();
        o.set("v", Json::UInt(1))
            .set("cmd", Json::Str("run".into()))
            .set("params", params)
            .set(
                "algo",
                Json::Str(if self.coolest { "coolest" } else { "addc" }.into()),
            );
        o.to_string()
    }
}

#[derive(Clone, Copy, PartialEq)]
enum Kind {
    Repeat,
    Variant,
    Fresh,
}

/// The seeded inputs of one unit. A longer schedule extends a shorter
/// one drawn from the same seed.
struct Inputs {
    warm: Vec<Point>,
    /// Requests in sending order.
    schedule: Vec<(Point, Kind)>,
}

fn inputs(seed: u64, requests: usize, warm_n: usize) -> Inputs {
    let mut rng = stats::Rng::new(seed);
    let fresh = |rng: &mut stats::Rng| Point {
        seed: rng.next_u64() >> 11,
        pt: PT_BASE,
        coolest: rng.below(2) == 1,
    };
    let warm: Vec<Point> = (0..warm_n).map(|_| fresh(&mut rng)).collect();
    let mut used: HashSet<Point> = warm.iter().copied().collect();
    let mut recent: VecDeque<Point> = warm.iter().rev().take(RECENT).rev().copied().collect();
    let mut schedule = Vec::with_capacity(requests);
    for _ in 0..requests {
        let r = rng.unit();
        if r < REPEAT_SHARE {
            schedule.push((warm[rng.below(warm.len())], Kind::Repeat));
            continue;
        }
        if r < REPEAT_SHARE + VARIANT_SHARE {
            let base = recent[rng.below(recent.len())];
            let free: Vec<usize> = (0..PT_VALUES)
                .filter(|&pt| !used.contains(&Point { pt, ..base }))
                .collect();
            if !free.is_empty() {
                let point = Point {
                    pt: free[rng.below(free.len())],
                    ..base
                };
                used.insert(point);
                recent.retain(|p| p.seed != base.seed);
                recent.push_back(base);
                schedule.push((point, Kind::Variant));
                continue;
            }
        }
        let point = fresh(&mut rng);
        used.insert(point);
        recent.push_back(point);
        if recent.len() > RECENT {
            recent.pop_front();
        }
        schedule.push((point, Kind::Fresh));
    }
    Inputs { warm, schedule }
}

/// One answered request.
struct Answer {
    /// Send time minus due time.
    lag_ms: f64,
    /// Completion minus due time.
    latency_ms: f64,
    /// Completion minus send time.
    rtt_ms: f64,
    ok: bool,
    cached: bool,
    /// The `report` object as sent, or the error response.
    report: String,
}

/// Sends `lines[i]` no earlier than `due(i)` over at most `conns`
/// connections; a free connection takes the earliest due request. With
/// no due times this is a closed loop.
fn drive(
    addr: SocketAddr,
    lines: &[String],
    conns: usize,
    due: &(dyn Fn(usize) -> Option<Instant> + Sync),
) -> Result<Vec<Answer>, String> {
    let next = AtomicUsize::new(0);
    let answers: Mutex<Vec<Option<Answer>>> = Mutex::new((0..lines.len()).map(|_| None).collect());
    let errors: Mutex<Vec<String>> = Mutex::new(Vec::new());
    std::thread::scope(|s| {
        for _ in 0..conns.max(1) {
            s.spawn(|| {
                let mut client = match Client::connect(addr) {
                    Ok(c) => c,
                    Err(e) => {
                        errors
                            .lock()
                            .expect("errors lock")
                            .push(format!("connect: {e}"));
                        return;
                    }
                };
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= lines.len() {
                        return;
                    }
                    let due_at = due(i);
                    if let Some(d) = due_at {
                        let now = Instant::now();
                        if d > now {
                            std::thread::sleep(d - now);
                        }
                    }
                    let _span = trace::span("serve.request", i as u64);
                    let sent = Instant::now();
                    let response = client.request_line(&lines[i]);
                    let done = Instant::now();
                    let from = due_at.unwrap_or(sent);
                    let ms =
                        |a: Instant, b: Instant| a.saturating_duration_since(b).as_secs_f64() * 1e3;
                    let answer = match response {
                        Ok(r) => Answer {
                            lag_ms: ms(sent, from),
                            latency_ms: ms(done, from),
                            rtt_ms: ms(done, sent),
                            ok: r.get("ok").and_then(Json::as_bool) == Some(true),
                            cached: r.get("cached").and_then(Json::as_bool) == Some(true),
                            report: r
                                .get("report")
                                .map_or_else(|| r.to_string(), Json::to_string),
                        },
                        Err(e) => {
                            errors
                                .lock()
                                .expect("errors lock")
                                .push(format!("request {i}: {e}"));
                            return;
                        }
                    };
                    answers.lock().expect("answers lock")[i] = Some(answer);
                }
            });
        }
    });
    let errors = errors.into_inner().expect("errors lock");
    if let Some(e) = errors.first() {
        return Err(e.clone());
    }
    answers
        .into_inner()
        .expect("answers lock")
        .into_iter()
        .enumerate()
        .map(|(i, a)| a.ok_or_else(|| format!("request {i} was never answered")))
        .collect()
}

fn counters(client: &mut Client) -> Result<HashMap<String, f64>, String> {
    let stats = client.stats().map_err(|e| format!("stats: {e}"))?;
    let mut out = HashMap::new();
    if let Some(Json::Obj(pairs)) = stats.get("counters") {
        for (k, v) in pairs {
            out.insert(k.clone(), v.as_f64().unwrap_or(0.0));
        }
    }
    Ok(out)
}

fn spec_of(line: &str) -> Result<RunSpec, String> {
    match parse_request(line) {
        Ok(Request::Run { spec, .. }) => Ok(spec),
        Ok(_) => Err(format!("not a run request: {line}")),
        Err(e) => Err(format!("unparseable request {line}: {}", e.message)),
    }
}

pub fn run(ctx: &Ctx) -> Result<Unit, String> {
    let smoke = ctx.opts.smoke;
    let requests = if smoke { REQUESTS_SMOKE } else { REQUESTS };
    let open_n = if ctx.opts.trace {
        let seconds = if smoke { OPEN_S_SMOKE } else { OPEN_S };
        (RATE_RPS * seconds).round() as usize
    } else {
        0
    };
    let warm_n = if smoke { WARM_SMOKE } else { WARM };
    let inputs = inputs(ctx.seed, requests + open_n, warm_n);
    let (closed, open) = inputs.schedule.split_at(requests);
    let conns = stats::cores();
    let mut unit = Unit::default();

    let server = Server::start(ServeConfig {
        addr: "127.0.0.1:0".into(),
        workers: conns,
        cache_cap: 1 << 16,
        ..ServeConfig::default()
    })
    .map_err(|e| format!("server start: {e}"))?;
    let addr = server.local_addr();
    let result = (|| -> Result<(), String> {
        let warm_lines: Vec<String> = inputs.warm.iter().map(|p| p.line()).collect();
        let warm = drive(addr, &warm_lines, conns, &|_| None)?;
        unit.setup_s = ctx.elapsed();
        let mut control = Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
        let before = counters(&mut control)?;

        let lines: Vec<String> = closed.iter().map(|(p, _)| p.line()).collect();
        let loop_started = ctx.elapsed();
        let cpu0 = stats::cpu_seconds();
        let answers = drive(addr, &lines, conns, &|_| None)?;
        unit.wall_s = ctx.elapsed();
        let loop_s = unit.wall_s - loop_started;
        let cpu = stats::cpu_seconds() - cpu0;
        let after = counters(&mut control)?;

        let mut first: HashMap<Point, String> = HashMap::new();
        let mut seen: Vec<Point> = Vec::new();
        let mut note_first = |p: &Point, a: &Answer| {
            if !first.contains_key(p) {
                first.insert(*p, a.report.clone());
                seen.push(*p);
            }
        };
        for (p, a) in inputs.warm.iter().zip(&warm) {
            note_first(p, a);
        }
        for ((p, _), a) in closed.iter().zip(&answers) {
            note_first(p, a);
        }
        // The measured requests again: all cache hits.
        let rerun_lines: Vec<String> = (0..RERUN_ROUNDS)
            .flat_map(|_| lines.iter().cloned())
            .collect();
        let rerun_started = ctx.elapsed();
        let rerun = drive(addr, &rerun_lines, conns, &|_| None)?;
        unit.rerun_s = ctx.elapsed() - rerun_started;
        unit.peak_rss_mb = stats::peak_rss_mb();

        // Traced units go on with the open loop: requests due at a fixed
        // rate, each timed from its due time.
        let open_lines: Vec<String> = open.iter().map(|(p, _)| p.line()).collect();
        let due0 = Instant::now() + Duration::from_millis(5);
        let open_answers = drive(addr, &open_lines, conns, &|i| {
            Some(due0 + Duration::from_secs_f64(i as f64 / RATE_RPS))
        })?;
        for ((p, _), a) in open.iter().zip(&open_answers) {
            note_first(p, a);
        }

        let d =
            |k: &str| after.get(k).copied().unwrap_or(0.0) - before.get(k).copied().unwrap_or(0.0);
        unit.lat_ms = answers.iter().map(|a| a.latency_ms).collect();
        unit.good_ops = answers
            .iter()
            .filter(|a| a.ok && a.latency_ms <= LIMIT_MS)
            .count() as u64;
        unit.window_s = loop_s;
        unit.work_s = loop_s;
        unit.digest = answers.iter().fold(stats::FNV_START, |h, a| {
            crn_core::fnv1a_64(h, a.report.as_bytes())
        });
        let hits: Vec<f64> = answers
            .iter()
            .filter(|a| a.cached)
            .map(|a| a.rtt_ms * 1e3)
            .collect();
        unit.layer("serve.hit_rtt_us", stats::median(&hits));
        unit.layer(
            "serve.cache_hit_ratio",
            stats::ratio(d("cache_hits"), d("received")),
        );
        unit.layer(
            "serve.topology_hit_ratio",
            stats::ratio(d("topology_hits"), d("computed")),
        );
        unit.layer("serve.coalesced", d("coalesced"));
        unit.layer("serve.computed", d("computed"));
        unit.layer("proc.cpu_util", stats::ratio(cpu, conns as f64 * loop_s));
        if !open_answers.is_empty() {
            let lags: Vec<f64> = open_answers.iter().map(|a| a.lag_ms).collect();
            unit.layer("loadgen.lag_ms", stats::percentile(&lags, 99.0));
        }
        eprintln!(
            "serve-mixed unit {}: {requests} requests in {loop_s:.3} s, {} hits, \
             p99 {:.1} ms, rerun {:.3} s",
            ctx.unit,
            hits.len(),
            stats::percentile(&unit.lat_ms, 99.0),
            unit.rerun_s
        );

        // Checks: every response ok; every repeat and every rerun answer
        // equal to the first answer for its point.
        for (i, ((p, kind), a)) in closed
            .iter()
            .chain(open)
            .zip(answers.iter().chain(&open_answers))
            .enumerate()
        {
            let expect = &first[p];
            let ok = a.ok && (*kind != Kind::Repeat || (a.cached && &a.report == expect));
            unit.check(ok, || format!("request {i}: {}", a.report));
        }
        for (j, a) in rerun.iter().enumerate() {
            let p = &closed[j % lines.len()].0;
            unit.check(a.ok && a.cached && a.report == first[p], || {
                format!("rerun of seed {}: {}", p.seed, a.report)
            });
        }
        for (p, a) in inputs.warm.iter().zip(&warm) {
            unit.check(a.ok, || format!("warm seed {}: {}", p.seed, a.report));
        }
        // A seeded sample of computed points against a direct run.
        let mut rng = stats::Rng::new(ctx.seed ^ 0xD1EC);
        for _ in 0..DIRECT_SAMPLE.min(seen.len()) {
            let p = seen[rng.below(seen.len())];
            let spec = spec_of(&p.line())?;
            let direct = Scenario::generate(&spec.params)
                .and_then(|s| s.run(spec.algorithm))
                .map(|o| report_json(&o).to_string());
            unit.check(direct.as_ref().ok() == Some(&first[&p]), || {
                format!("seed {} direct run gave {direct:?}", p.seed)
            });
        }

        if ctx.opts.trace {
            let replay_n = if smoke {
                REPLAY_MISSES_SMOKE
            } else {
                REPLAY_MISSES
            };
            let misses: Vec<Point> = inputs
                .warm
                .iter()
                .copied()
                .chain(
                    closed
                        .iter()
                        .filter(|(_, k)| *k != Kind::Repeat)
                        .map(|(p, _)| *p)
                        .take(replay_n),
                )
                .collect();
            let dir = ctx.scratch_dir();
            let replayed = replay(&mut unit, &dir, &lines, &misses, &first);
            let _ = std::fs::remove_dir_all(&dir);
            replayed?;
            let mut pings = Vec::with_capacity(STATUS_PINGS);
            for _ in 0..STATUS_PINGS {
                let sent = Instant::now();
                control
                    .request_line("{\"v\":1,\"cmd\":\"status\"}")
                    .map_err(|e| format!("status: {e}"))?;
                pings.push(sent.elapsed().as_secs_f64() * 1e6);
            }
            unit.layer("serve.status_rtt_us", stats::median(&pings));
        }
        Ok(())
    })();
    server.shutdown();
    server.wait();
    result.map(|()| unit)
}

/// Replays the front-end and execution calls on the unit's own request
/// lines: `parse_request` on every measured line, and for the computed
/// points in order `Executor::execute`, `report_json`, and the layer path
/// of [`pipeline`] with the executor's topology reuse. Both must give
/// the answers the server sent. The executor's outcomes then go through
/// the cluster codec and a result store in `dir`
/// ([`fleet::replay_wire_and_store`]), so those layers have figures on
/// this workload too.
fn replay(
    unit: &mut Unit,
    dir: &Path,
    lines: &[String],
    misses: &[Point],
    first: &HashMap<Point, String>,
) -> Result<(), String> {
    let parse_started = Instant::now();
    for (i, line) in lines.iter().enumerate() {
        let parsed = trace::in_span("serve.parse", i as u64, || parse_request(line));
        unit.check(parsed.is_ok(), || format!("line {i} does not parse"));
    }
    unit.layer(
        "serve.parse_us",
        parse_started.elapsed().as_secs_f64() * 1e6 / lines.len().max(1) as f64,
    );

    let exec = Executor::new(ServeConfig::default().topo_cache_cap);
    let mut exec_s = 0.0;
    let mut encode_s = 0.0;
    let mut work = Work::default();
    let mut topologies: HashMap<u64, Prepared> = HashMap::new();
    let mut specs = Vec::with_capacity(misses.len());
    let mut outcomes = Vec::with_capacity(misses.len());
    for (i, p) in misses.iter().enumerate() {
        let op = i as u64;
        let spec = spec_of(&p.line())?;
        let started = Instant::now();
        let outcome = trace::in_span("serve.exec", op, || exec.execute(&spec))
            .map_err(|e| format!("execute seed {}: {}", p.seed, e.message))?;
        exec_s += started.elapsed().as_secs_f64();
        let started = Instant::now();
        let encoded = trace::in_span("serve.encode", op, || report_json(&outcome).to_string());
        encode_s += started.elapsed().as_secs_f64();
        unit.check(encoded == first[p], || {
            format!("seed {}: executor replay differs", p.seed)
        });

        let key = spec.params.topology_key();
        let mut prepared = match topologies.get(&key) {
            Some(prev) => prev.derive(&spec.params, op)?,
            None => Prepared::generate(&spec.params, op)?,
        };
        let direct = prepared.run(spec.algorithm, op, &mut work)?;
        unit.check(report_json(&direct).to_string() == first[p], || {
            format!("seed {}: layer replay differs", p.seed)
        });
        topologies.insert(key, prepared);
        specs.push(spec);
        outcomes.push(outcome);
    }
    let n = misses.len().max(1) as f64;
    unit.layer("serve.exec_ms", exec_s * 1e3 / n);
    unit.layer("serve.encode_us", encode_s * 1e6 / n);
    fleet::replay_wire_and_store(unit, dir, &specs, &outcomes)?;
    pipeline::layer_metrics(unit, &trace::spans(), &work, None);
    Ok(())
}
