//! End-to-end and per-layer benchmark of the ADDC reproduction.
//!
//! ```text
//! crn-perfbench --workload NAME --seed N --seconds S --trace 0|1 [--smoke]
//! ```
//!
//! Runs one workload (`fig6-sweep`, `scale-sparse`, `serve-mixed`,
//! `fleet-restart`) for about `S` seconds and prints, as the last line of
//! standard output, one JSON object: `correct`, `attempted`, `failed` and
//! `metrics`. With `--trace 0` the metrics are the end-to-end ones; with
//! `--trace 1` they are the per-layer ones, taken from span self times.
//!
//! The measured work is split into *units*. Each unit runs in a child
//! process of its own (this binary re-executed with `--unit K`), so that
//! `peak_rss_mb` is that unit's own `VmHWM` and no unit inherits another's
//! heap. Every metric is the median over the units of a run; latency
//! percentiles and rates are taken within each unit first. The inputs of
//! unit `K` derive from the seed and `K` alone. See `README.md` next to
//! this crate for the workloads, the metric definitions and the layer
//! each metric belongs to.

mod fig6;
mod fleet;
mod pipeline;
mod serve;
mod sparse;
mod stats;
mod trace;

use crn_workloads::json::Json;
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

/// The workloads, in the order `BENCHMARK.json` lists them.
const WORKLOADS: [&str; 4] = ["fig6-sweep", "scale-sparse", "serve-mixed", "fleet-restart"];

/// End-to-end metrics: name and unit.
const END_TO_END: [(&str, &str); 7] = [
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("rerun_s", "s"),
    ("p50_ms", "ms"),
    ("p99_ms", "ms"),
    ("goodput_rps", "1/s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics of the simulation layers: name and unit.
const CORE_LAYERS: [(&str, &str); 22] = [
    ("topology.generate_s", "s"),
    ("topology.generate_calls", "count"),
    ("topology.tree_s", "s"),
    ("topology.tree_calls", "count"),
    ("radio.customize_s", "s"),
    ("radio.customize_calls", "count"),
    ("radio.customize_us_per_su", "us"),
    ("radio.recustomize_s", "s"),
    ("radio.gain_table_bytes", "B"),
    ("engine.run_s", "s"),
    ("engine.run_calls", "count"),
    ("engine.events", "count"),
    ("engine.events_per_s", "1/s"),
    ("engine.success_ratio", "ratio"),
    ("engine.sir_failures", "count"),
    ("sweep.jobs", "count"),
    ("sweep.job_p50_s", "s"),
    ("sweep.job_max_s", "s"),
    ("sweep.idle_frac", "ratio"),
    ("proc.cpu_util", "ratio"),
    ("trace.overhead_frac", "ratio"),
    ("trace.coverage_frac", "ratio"),
];

/// Per-layer metrics of the service layers, which only `serve-mixed`
/// and `fleet-restart` exercise.
const SERVICE_LAYERS: [(&str, &str); 22] = [
    ("serve.status_rtt_us", "us"),
    ("serve.hit_rtt_us", "us"),
    ("serve.parse_us", "us"),
    ("serve.encode_us", "us"),
    ("serve.exec_ms", "ms"),
    ("serve.cache_hit_ratio", "ratio"),
    ("serve.topology_hit_ratio", "ratio"),
    ("serve.coalesced", "count"),
    ("serve.computed", "count"),
    ("loadgen.lag_ms", "ms"),
    ("store.put_ms", "ms"),
    ("store.bytes", "B"),
    ("store.get_ms", "ms"),
    ("store.hits", "count"),
    ("store.scan_s", "s"),
    ("cluster.dispatched", "count"),
    ("cluster.redispatches", "count"),
    ("cluster.local_fallbacks", "count"),
    ("cluster.worker_share_max", "ratio"),
    ("cluster.msg_codec_us", "us"),
    ("cluster.route_us", "us"),
    ("cluster.dispatch_overhead_ms", "ms"),
];

/// The per-layer metrics every workload reports; layers a workload does
/// not exercise read 0.
fn per_layer_names() -> Vec<(&'static str, &'static str)> {
    CORE_LAYERS.iter().chain(&SERVICE_LAYERS).copied().collect()
}

/// Options shared by the parent and its unit processes.
#[derive(Clone, Debug)]
pub struct Opts {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
}

/// What one unit hands a workload: its seed, its mode, and the instant
/// the unit's process entered `main`.
pub struct Ctx {
    pub opts: Opts,
    pub unit: u64,
    pub seed: u64,
    pub started: Instant,
}

impl Ctx {
    /// A scratch directory for this unit inside the working directory.
    pub fn scratch_dir(&self) -> PathBuf {
        PathBuf::from(".bench_out").join(format!(
            "{}-{}-{}-{}",
            self.opts.workload,
            self.opts.seed,
            self.unit,
            std::process::id()
        ))
    }

    /// Seconds since the unit process entered `main`.
    pub fn elapsed(&self) -> f64 {
        self.started.elapsed().as_secs_f64()
    }
}

/// What one unit measured. Times are seconds since the unit's `main`.
#[derive(Debug, Default)]
pub struct Unit {
    pub setup_s: f64,
    pub wall_s: f64,
    pub rerun_s: f64,
    /// Per-operation latencies.
    pub lat_ms: Vec<f64>,
    /// Operations that succeeded within the workload's latency limit.
    pub good_ops: u64,
    /// Seconds over which `good_ops` were scheduled.
    pub window_s: f64,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    pub peak_rss_mb: f64,
    /// The quantity `trace.overhead_frac` compares between a traced unit
    /// and its untraced twin.
    pub work_s: f64,
    /// Digest of the unit's outputs; a traced unit must match its twin.
    pub digest: u64,
    pub layers: BTreeMap<String, f64>,
}

impl Unit {
    /// Counts one checked operation, recording `failure` if it failed.
    pub fn check(&mut self, ok: bool, failure: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failures.len() < 16 {
                self.failures.push(failure());
            }
        }
    }

    pub fn layer(&mut self, name: &str, value: f64) {
        self.layers.insert(name.to_owned(), value);
    }

    fn to_json(&self) -> Json {
        let mut layers = Json::obj();
        for (k, v) in &self.layers {
            layers.set(k, Json::float(*v));
        }
        let mut o = Json::obj();
        o.set("setup_s", Json::float(self.setup_s))
            .set("wall_s", Json::float(self.wall_s))
            .set("rerun_s", Json::float(self.rerun_s))
            .set(
                "lat_ms",
                Json::Arr(self.lat_ms.iter().map(|&v| Json::float(v)).collect()),
            )
            .set("good_ops", Json::UInt(self.good_ops))
            .set("window_s", Json::float(self.window_s))
            .set("attempted", Json::UInt(self.attempted))
            .set("failed", Json::UInt(self.failed))
            .set(
                "failures",
                Json::Arr(self.failures.iter().map(|f| Json::Str(f.clone())).collect()),
            )
            .set("peak_rss_mb", Json::float(self.peak_rss_mb))
            .set("work_s", Json::float(self.work_s))
            .set("digest", Json::UInt(self.digest))
            .set("layers", layers);
        o
    }

    fn from_json(v: &Json) -> Option<Unit> {
        let f = |k: &str| v.get(k).and_then(Json::as_f64);
        let u = |k: &str| v.get(k).and_then(Json::as_u64);
        let mut layers = BTreeMap::new();
        if let Some(Json::Obj(pairs)) = v.get("layers") {
            for (k, x) in pairs {
                layers.insert(k.clone(), x.as_f64()?);
            }
        }
        Some(Unit {
            setup_s: f("setup_s")?,
            wall_s: f("wall_s")?,
            rerun_s: f("rerun_s")?,
            lat_ms: v
                .get("lat_ms")?
                .as_arr()?
                .iter()
                .map(Json::as_f64)
                .collect::<Option<_>>()?,
            good_ops: u("good_ops")?,
            window_s: f("window_s")?,
            attempted: u("attempted")?,
            failed: u("failed")?,
            failures: v
                .get("failures")?
                .as_arr()?
                .iter()
                .map(|s| s.as_str().map(str::to_owned))
                .collect::<Option<_>>()?,
            peak_rss_mb: f("peak_rss_mb")?,
            work_s: f("work_s")?,
            digest: u("digest")?,
            layers,
        })
    }
}

fn usage(msg: &str) -> ExitCode {
    eprintln!("crn-perfbench: {msg}");
    eprintln!(
        "usage: crn-perfbench --workload {} --seed N --seconds S --trace 0|1 \
         [--smoke]",
        WORKLOADS.join("|")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let started = Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut flags: BTreeMap<&str, &str> = BTreeMap::new();
    let mut smoke = false;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--smoke" => smoke = true,
            flag @ ("--workload" | "--seed" | "--seconds" | "--trace" | "--unit") => {
                let Some(value) = args.get(i + 1) else {
                    return usage(&format!("{flag} needs a value"));
                };
                flags.insert(flag, value);
                i += 1;
            }
            other => return usage(&format!("unknown argument {other:?}")),
        }
        i += 1;
    }
    let Some(workload) = flags.get("--workload") else {
        return usage("--workload is required");
    };
    if !WORKLOADS.contains(workload) {
        return usage(&format!("unknown workload {workload:?}"));
    }
    let parse = |flag: &str, default: &str| -> Result<f64, String> {
        let raw = flags.get(flag).copied().unwrap_or(default);
        raw.parse::<f64>()
            .ok()
            .filter(|v| v.is_finite() && *v >= 0.0)
            .ok_or_else(|| format!("{flag} takes a non-negative number, got {raw:?}"))
    };
    let opts = match (|| {
        let seed = flags
            .get("--seed")
            .copied()
            .unwrap_or("1")
            .parse::<u64>()
            .map_err(|_| "--seed takes an unsigned integer".to_owned())?;
        let trace = match flags.get("--trace").copied().unwrap_or("0") {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace takes 0 or 1, got {other:?}")),
        };
        Ok(Opts {
            workload: (*workload).to_owned(),
            seed,
            seconds: parse("--seconds", "10")?,
            trace,
            smoke,
        })
    })() {
        Ok(opts) => opts,
        Err(msg) => return usage(&msg),
    };
    match flags.get("--unit") {
        Some(unit) => match unit.parse::<u64>() {
            Ok(unit) => run_unit(opts, unit, started),
            Err(_) => usage("--unit takes an unsigned integer"),
        },
        None => run_parent(&opts),
    }
}

/// The seed of unit `k` of a run seeded with `seed`.
fn unit_seed(seed: u64, k: u64) -> u64 {
    stats::mix(seed ^ stats::mix(k.wrapping_add(1)))
}

/// Child side: announce liveness, run one unit, print its JSON line.
fn run_unit(opts: Opts, unit: u64, started: Instant) -> ExitCode {
    println!("alive");
    let _ = std::io::stdout().flush();
    if opts.trace {
        trace::enable();
    }
    let ctx = Ctx {
        seed: unit_seed(opts.seed, unit),
        unit,
        opts,
        started,
    };
    let result = match ctx.opts.workload.as_str() {
        "fig6-sweep" => fig6::run(&ctx),
        "scale-sparse" => sparse::run(&ctx),
        "serve-mixed" => serve::run(&ctx),
        "fleet-restart" => fleet::run(&ctx),
        other => unreachable!("workload {other} was validated"),
    };
    let mut result = match result {
        Ok(unit) => unit,
        Err(e) => {
            eprintln!("crn-perfbench: unit {unit} failed to run: {e}");
            return ExitCode::FAILURE;
        }
    };
    if result.peak_rss_mb == 0.0 {
        result.peak_rss_mb = stats::peak_rss_mb();
    }
    if ctx.opts.trace {
        let spans = trace::spans();
        let path = ctx.scratch_dir().with_extension("spans.jsonl");
        if let Err(e) = trace::write_jsonl(&path, &spans) {
            eprintln!("crn-perfbench: cannot write {}: {e}", path.display());
        }
    }
    println!("{}", result.to_json());
    ExitCode::SUCCESS
}

/// Spawns unit `k` and collects its result; the returned float is the
/// seconds from spawn until the unit entered `main`.
fn spawn_unit(opts: &Opts, k: u64, traced: bool) -> Result<(Unit, f64), String> {
    let exe = std::env::current_exe().map_err(|e| format!("current executable: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", &opts.workload])
        .args(["--seed", &opts.seed.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .args(["--unit", &k.to_string()])
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit());
    if opts.smoke {
        cmd.arg("--smoke");
    }
    let spawned = Instant::now();
    let mut child = cmd.spawn().map_err(|e| format!("spawn unit {k}: {e}"))?;
    let stdout = child.stdout.take().expect("stdout is piped");
    let mut alive_s = None;
    let mut last = String::new();
    let mut read_error = None;
    for line in BufReader::new(stdout).lines() {
        match line {
            Ok(line) if alive_s.is_none() && line == "alive" => {
                alive_s = Some(spawned.elapsed().as_secs_f64());
            }
            Ok(line) if !line.trim().is_empty() => last = line,
            Ok(_) => {}
            Err(e) => {
                read_error = Some(format!("read unit {k}: {e}"));
                break;
            }
        }
    }
    // Reap the child before judging what it printed.
    let status = child
        .wait()
        .map_err(|e| format!("wait for unit {k}: {e}"))?;
    if let Some(e) = read_error {
        return Err(e);
    }
    if !status.success() {
        return Err(format!("unit {k} exited with {status}"));
    }
    let alive_s = alive_s.ok_or_else(|| format!("unit {k} never announced itself"))?;
    let json: Json = last
        .parse()
        .map_err(|e| format!("unit {k} printed no result ({e})"))?;
    let unit = Unit::from_json(&json).ok_or_else(|| format!("unit {k} result is malformed"))?;
    Ok((unit, alive_s))
}

/// How many units a run makes at least and at most.
fn unit_bounds(opts: &Opts) -> (u64, u64) {
    if opts.smoke {
        (1, 1)
    } else {
        (3, 64)
    }
}

/// Parent side: run units until the time budget is spent, then report.
fn run_parent(opts: &Opts) -> ExitCode {
    let started = Instant::now();
    let (min_units, max_units) = unit_bounds(opts);
    let mut plain: Vec<(Unit, f64)> = Vec::new();
    let mut traced: Vec<Unit> = Vec::new();
    let mut errors: Vec<String> = Vec::new();
    let mut k = 0;
    while k < max_units && (k < min_units || started.elapsed().as_secs_f64() < opts.seconds) {
        match spawn_unit(opts, k, false) {
            Ok(u) => plain.push(u),
            Err(e) => errors.push(e),
        }
        if opts.trace && errors.is_empty() {
            match spawn_unit(opts, k, true) {
                Ok((u, _)) => traced.push(u),
                Err(e) => errors.push(e),
            }
        }
        if !errors.is_empty() {
            break;
        }
        k += 1;
    }

    let mut attempted = 0;
    let mut failed = 0;
    let mut failures = errors.clone();
    for u in plain.iter().map(|(u, _)| u).chain(&traced) {
        attempted += u.attempted;
        failed += u.failed;
        failures.extend(u.failures.iter().cloned());
    }
    for (i, t) in traced.iter().enumerate() {
        let twin = &plain[i].0;
        attempted += 1;
        if t.digest != twin.digest {
            failed += 1;
            failures.push(format!(
                "unit {i}: traced outputs {:016x} differ from untraced {:016x}",
                t.digest, twin.digest
            ));
        }
    }
    failed += errors.len() as u64;
    attempted = attempted.max(1);
    if failed > 0 {
        for f in &failures {
            eprintln!("crn-perfbench: FAILED: {f}");
        }
        println!("{{\"correct\": false, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{}}}}");
        return ExitCode::FAILURE;
    }

    let (metrics, names) = if opts.trace {
        let names = per_layer_names();
        (per_layer(&plain, &traced, &names), names)
    } else {
        (end_to_end(&plain), END_TO_END.to_vec())
    };
    let body: Vec<String> = names
        .iter()
        .map(|(name, unit)| {
            let value = metrics.get(*name).copied().unwrap_or(0.0);
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                num(value)
            )
        })
        .collect();
    println!(
        "{{\"correct\": true, \"attempted\": {attempted}, \"failed\": 0, \"metrics\": {{{}}}}}",
        body.join(", ")
    );
    ExitCode::SUCCESS
}

/// A JSON number with every digit Rust's shortest round-trip form gives.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_owned()
    }
}

fn end_to_end(units: &[(Unit, f64)]) -> BTreeMap<&'static str, f64> {
    let col = |f: &dyn Fn(&Unit, f64) -> f64| -> Vec<f64> {
        units.iter().map(|(u, alive)| f(u, *alive)).collect()
    };
    eprintln!(
        "crn-perfbench: {} units, {} latency samples",
        units.len(),
        units.iter().map(|(u, _)| u.lat_ms.len()).sum::<usize>()
    );
    BTreeMap::from([
        ("wall_s", stats::median(&col(&|u, a| u.wall_s + a))),
        ("setup_s", stats::median(&col(&|u, a| u.setup_s + a))),
        ("rerun_s", stats::median(&col(&|u, _| u.rerun_s))),
        (
            "p50_ms",
            stats::median(&col(&|u, _| stats::percentile(&u.lat_ms, 50.0))),
        ),
        (
            "p99_ms",
            stats::median(&col(&|u, _| stats::percentile(&u.lat_ms, 99.0))),
        ),
        (
            "goodput_rps",
            stats::median(&col(&|u, _| stats::ratio(u.good_ops as f64, u.window_s))),
        ),
        ("peak_rss_mb", stats::median(&col(&|u, _| u.peak_rss_mb))),
    ])
}

/// Per-layer figures: the median over traced units, falling back to the
/// untraced twins for layers only they measure (the `run_sweep` progress
/// stamps, process CPU use, the load generator's lateness).
fn per_layer(
    plain: &[(Unit, f64)],
    traced: &[Unit],
    names: &[(&'static str, &'static str)],
) -> BTreeMap<&'static str, f64> {
    let mut out = BTreeMap::new();
    for &(name, _) in names {
        let from = |units: &mut dyn Iterator<Item = &Unit>| -> Vec<f64> {
            units.filter_map(|u| u.layers.get(name).copied()).collect()
        };
        let mut values = from(&mut traced.iter());
        if values.is_empty() {
            values = from(&mut plain.iter().map(|(u, _)| u));
        }
        out.insert(name, stats::median(&values));
    }
    let overhead: Vec<f64> = traced
        .iter()
        .zip(plain)
        .map(|(t, (p, _))| stats::ratio(t.work_s, p.work_s) - 1.0)
        .collect();
    out.insert("trace.overhead_frac", stats::median(&overhead));
    out
}
