//! Argument parsing and command execution, kept pure (string in → string
//! out) so every path is unit-testable without spawning processes. The
//! exceptions are the inherently effectful commands: `serve` (binds a
//! socket and blocks) and `submit` (talks to a server); their argument
//! parsing is still pure and unit-tested.

use crn_cluster::{ClusterConfig, ClusterCounters, Coordinator, WorkerConfig, WorkerNode};
use crn_core::Scenario;
use crn_interference::{pcr, PcrConstants, PhyParams};
use crn_serve::client::Client;
use crn_serve::protocol::{parse_spec, spec_to_json, RunSpec, RUN_PARAMS};
use crn_serve::server::{Counters, ServeConfig, Server};
use crn_serve::store::StoreConfig;
use crn_sim::{InvariantChecker, TraceLog, Traffic};
use crn_workloads::export::{trace_to_string, TraceFormat};
use crn_workloads::json::Json;
use crn_workloads::table::{csv_records, markdown_figure};
use crn_workloads::{
    aggregate, presets, run_sweep, AggregatePoint, Fig6Panel, PresetKind, SweepOptions,
};
use std::fmt::Write as _;

/// Top-level usage text.
pub const USAGE: &str = "\
usage:
  crn run    [run flags] [--algo ALGO] [--check-invariants] [--map]
  crn trace  [run flags] [--algo ALGO] [--format jsonl|csv] [--out FILE]
  crn sweep  <a|b|c|d|e|f|all|churn> [--preset paper|scaled|tiny] [--reps R] [--threads T]
             [--csv FILE]
  crn pcr    [--alpha A] [--eta-db E] [--pp P] [--ps P] [--big-r R] [--r r]
  crn bounds [run flags]
  crn serve  [--addr H:P] [--workers N] [--queue-cap Q] [--cache-cap C] [--topo-cache-cap T]
             [--store DIR [--store-max-mb M]]
  crn serve  --coordinator [--addr H:P] [--workers N] [--queue-cap Q] [--cache-cap C]
             [--topo-cache-cap T] [--store DIR [--store-max-mb M]] [--job-timeout-ms T]
  crn serve  --join H:P [--name NAME] [--threads T] [--cache-cap C] [--topo-cache-cap T]
             [--store DIR [--store-max-mb M]]
  crn submit --addr H:P  [run flags] [--algo ALGO] [--check-invariants] [--timeout-ms T]
             [--seed-count N [--seed-start K] [--stream]]
             | --stats | --status | --shutdown | --raw JSON
run flags (the wire's params keys): [--sus N] [--pus N] [--side S] [--pt P] [--seed K]
             [--interference exact|truncated:EPS] [--faults PLAN.json | --fault-preset none|churn:RATE]
algorithms: addc (default), coolest, coolest-oracle, bfs
exit codes: 0 ok, 1 runtime failure (violation, server error, timeout), 2 usage";

/// A command failure with a process exit code attached.
///
/// Usage mistakes (bad flags, unknown commands) exit 2 and reprint the
/// usage text; runtime failures (a failed simulation, an invariant
/// violation under `--check-invariants`, a server-side error from
/// `submit`) exit 1 so scripts can tell "you called it wrong" from "it
/// ran and failed".
#[derive(Debug)]
pub struct CliError {
    /// Human-readable explanation (printed to stderr).
    pub message: String,
    /// Process exit code (1 = runtime failure, 2 = usage error).
    pub code: i32,
    /// Whether main should reprint [`USAGE`] after the message.
    pub show_usage: bool,
}

impl CliError {
    /// A runtime failure: the invocation was well-formed but the work
    /// itself failed. Exits 1, no usage spam.
    pub fn runtime(message: impl std::fmt::Display) -> Self {
        Self {
            message: message.to_string(),
            code: 1,
            show_usage: false,
        }
    }

    /// A usage error: bad flags or values. Exits 2 with usage text.
    pub fn usage(message: impl std::fmt::Display) -> Self {
        Self {
            message: message.to_string(),
            code: 2,
            show_usage: true,
        }
    }
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.message)
    }
}

impl From<String> for CliError {
    fn from(message: String) -> Self {
        CliError::usage(message)
    }
}

/// Parses and executes one invocation, returning its stdout.
///
/// # Errors
///
/// Returns a [`CliError`] carrying the message and exit code for unknown
/// commands, malformed flags (exit 2), or runtime failures (exit 1).
pub fn dispatch(args: &[String]) -> Result<String, CliError> {
    let mut args = args.to_vec();
    let Some(command) = args.first().cloned() else {
        return Err(CliError::usage("no command given"));
    };
    args.remove(0);
    match command.as_str() {
        "run" => cmd_run(args),
        "trace" => cmd_trace(args),
        "sweep" => cmd_sweep(args),
        "pcr" => cmd_pcr(args),
        "bounds" => cmd_bounds(args),
        "serve" => cmd_serve(args),
        "submit" => cmd_submit(args),
        "help" | "--help" | "-h" => Ok(format!("{USAGE}\n")),
        other => Err(CliError::usage(format!("unknown command '{other}'"))),
    }
}

fn take_opt(args: &mut Vec<String>, flag: &str) -> Result<Option<String>, String> {
    let Some(i) = args.iter().position(|a| a == flag) else {
        return Ok(None);
    };
    if i + 1 >= args.len() {
        return Err(format!("flag {flag} requires a value"));
    }
    let raw = args.remove(i + 1);
    args.remove(i);
    Ok(Some(raw))
}

fn take<T: std::str::FromStr>(args: &mut Vec<String>, flag: &str, default: T) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    take_opt(args, flag)?.map_or(Ok(default), |raw| {
        raw.parse()
            .map_err(|e| format!("bad value '{raw}' for {flag}: {e}"))
    })
}

fn ensure_consumed(args: &[String]) -> Result<(), String> {
    if args.is_empty() {
        Ok(())
    } else {
        Err(format!("unrecognized arguments: {args:?}"))
    }
}

/// Parses the run flags into a [`RunSpec`] by mapping them onto the wire's
/// `params` object and calling the service's own parser, so each flag
/// means exactly what its `params` key means in a request, defaults and
/// checks included. `--KEY VALUE` sets key `KEY` of [`RUN_PARAMS`]; the
/// `faults` value comes from the plan file `--faults` names, or from
/// `--fault-preset`. `request` holds the top-level fields the command
/// takes.
fn run_spec_from(args: &mut Vec<String>, mut request: Json) -> Result<RunSpec, CliError> {
    let plan_path = take_opt(args, "--faults")?;
    let preset = take_opt(args, "--fault-preset")?;
    let (faults_from, mut faults) = match (plan_path, preset) {
        (Some(_), Some(_)) => {
            return Err(CliError::usage(
                "--faults and --fault-preset are mutually exclusive",
            ))
        }
        (Some(path), None) => {
            let plan = std::fs::read_to_string(&path)
                .map_err(|e| format!("cannot read fault plan {path}: {e}"))?
                .trim()
                .parse::<Json>()
                .map_err(|e| format!("{path}: {e}"))?;
            (path, Some(plan))
        }
        (None, preset) => ("--fault-preset".to_owned(), preset.map(Json::Str)),
    };
    let mut params = Json::obj();
    for key in RUN_PARAMS {
        let value = match key {
            "faults" => faults.take(),
            _ => take_opt(args, &format!("--{key}"))?.map(flag_value),
        };
        if let Some(value) = value {
            params.set(key, value);
        }
    }
    request.set("params", params);
    parse_spec(&request).map_err(|e| {
        // Errors name the flags, and the plan file, not the wire keys.
        let message = e.message.replace("params.", "--");
        CliError::usage(message.replace("--faults", &faults_from))
    })
}

/// [`run_spec_from`] with `--algo` and `--check-invariants`: every field
/// of a [`RunSpec`].
fn run_spec(args: &mut Vec<String>) -> Result<RunSpec, CliError> {
    let mut request = Json::obj();
    if let Some(algo) = take_opt(args, "--algo")? {
        request.set("algo", Json::Str(algo));
    }
    request.set(
        "check_invariants",
        Json::Bool(presence(args, "--check-invariants")),
    );
    run_spec_from(args, request)
}

/// A flag value as a request carries it: a number when it reads as one,
/// a string otherwise. Which type each key wants is the spec parser's to
/// check.
fn flag_value(raw: String) -> Json {
    match (raw.parse(), raw.parse()) {
        (Ok(n), _) => Json::UInt(n),
        (_, Ok(x)) => Json::float(x),
        _ => Json::Str(raw),
    }
}

fn presence(args: &mut Vec<String>, flag: &str) -> bool {
    if let Some(i) = args.iter().position(|a| a == flag) {
        args.remove(i);
        true
    } else {
        false
    }
}

fn cmd_run(mut args: Vec<String>) -> Result<String, CliError> {
    let show_map = presence(&mut args, "--map");
    // Undocumented testing aid: run the engine with the Algorithm 1
    // fairness wait disabled while the oracle audits against the honest
    // config, yielding a real end-to-end invariant violation (and exit
    // code 1). Used by the exit-code integration tests.
    let inject_fairness_skip = presence(&mut args, "--inject-fairness-skip");
    let spec = run_spec(&mut args)?;
    ensure_consumed(&args)?;
    if inject_fairness_skip && !spec.check_invariants {
        return Err(CliError::usage(
            "--inject-fairness-skip requires --check-invariants",
        ));
    }
    if inject_fairness_skip {
        return run_with_injected_fairness_skip(&spec);
    }
    let (params, algo) = (&spec.params, spec.algorithm);
    let scenario = Scenario::generate(params).map_err(CliError::runtime)?;
    // `run_checked` shares `run`'s derived seed, so the checked report is
    // identical to the unchecked one — the oracle observes, never perturbs.
    let (outcome, oracle) = if spec.check_invariants {
        let (outcome, oracle) = scenario.run_checked(algo).map_err(CliError::runtime)?;
        (outcome, Some(oracle))
    } else {
        (scenario.run(algo).map_err(CliError::runtime)?, None)
    };
    let r = &outcome.report;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{algo} on n={} N={} A={}² p_t={} (seed {}, PCR {:.1})",
        params.num_sus,
        params.num_pus,
        params.area_side,
        params.activity.duty_cycle(),
        params.seed,
        scenario.pcr()
    );
    let _ = writeln!(
        out,
        "  delivered {}/{} in {:.0} slots ({:.3} s); finished: {}",
        r.packets_delivered, r.packets_expected, r.delay_slots, r.delay, r.finished
    );
    let _ = writeln!(
        out,
        "  attempts {} | successes {} | PU handoffs {} | SIR losses {} | capture {}",
        r.attempts, r.successes, r.pu_aborts, r.sir_failures, r.capture_losses
    );
    let _ = writeln!(
        out,
        "  capacity {:.4}·W | Jain {:.3} | peak queue {} | tree height {} | Δ {}",
        r.capacity_fraction(),
        r.jain_fairness().unwrap_or(1.0),
        r.peak_queue,
        outcome.tree_height,
        outcome.tree_max_degree
    );
    // Fault lines appear only when a fault workload is attached, so the
    // fault-free output stays byte-identical to the pre-faults CLI.
    if !params.faults.is_none() {
        let _ = writeln!(
            out,
            "  faults [{}]: delivery ratio {:.3} | lost {} | fault aborts {}",
            params.faults,
            r.delivery_ratio(),
            r.packets_lost,
            r.fault_aborts
        );
        let _ = writeln!(
            out,
            "  healing: reparents {} | latency mean {:.4} s, max {:.4} s",
            r.reparents, r.reparent_latency_mean, r.reparent_latency_max
        );
    }
    if let Some(oracle) = oracle {
        let _ = writeln!(
            out,
            "  invariants: ok ({} events checked)",
            oracle.events_checked()
        );
    }
    if show_map {
        let tree = scenario.tree(algo).map_err(CliError::runtime)?;
        let _ = writeln!(out);
        out.push_str(&crn_topology::render_ascii(
            scenario.graph(),
            Some(&tree),
            72,
        ));
    }
    Ok(out)
}

/// The `--inject-fairness-skip` path: the engine runs with
/// `fairness_wait: false` but the [`InvariantChecker`] is configured with
/// the honest MAC, so the oracle reports a scheduler-hygiene violation —
/// which this function turns into a runtime (exit 1) error, exactly like
/// a genuine violation caught in the field.
fn run_with_injected_fairness_skip(spec: &RunSpec) -> Result<String, CliError> {
    let mut rigged = spec.params.clone();
    rigged.mac.fairness_wait = false;
    let scenario = Scenario::generate(&rigged).map_err(CliError::runtime)?;
    let world = scenario.world(spec.algorithm).map_err(CliError::runtime)?;
    let checker = InvariantChecker::new(world, spec.params.mac).with_repro(
        spec.params.seed,
        format!("{} --inject-fairness-skip", spec.repro()),
    );
    let (_outcome, oracle) = scenario
        .run_probed(spec.algorithm, Traffic::Snapshot, checker)
        .map_err(CliError::runtime)?;
    match oracle.first_violation() {
        Some(v) => Err(CliError::runtime(format!("invariant violation: {v}"))),
        None => Err(CliError::runtime(
            "injected fairness skip produced no violation — oracle is blind",
        )),
    }
}

/// `crn trace`: run one scenario with a [`crn_sim::TraceLog`] attached and
/// emit the event stream (JSONL by default). The trace uses the same
/// derived seed as `crn run`, so its `delivery` events line up exactly
/// with the run's reported delivery times.
fn cmd_trace(mut args: Vec<String>) -> Result<String, CliError> {
    let format: TraceFormat = take(&mut args, "--format", "jsonl".to_owned())?.parse()?;
    let out_path: String = take(&mut args, "--out", String::new())?;
    let spec = run_spec(&mut args)?;
    ensure_consumed(&args)?;
    if spec.check_invariants {
        return Err(CliError::usage("crn trace takes no --check-invariants"));
    }
    let scenario = Scenario::generate(&spec.params).map_err(CliError::runtime)?;
    let (outcome, log) = scenario
        .run_probed(spec.algorithm, Traffic::Snapshot, TraceLog::unbounded())
        .map_err(CliError::runtime)?;
    let rendered = trace_to_string(&log, format);
    if out_path.is_empty() {
        return Ok(rendered);
    }
    std::fs::write(&out_path, &rendered)
        .map_err(|e| CliError::runtime(format!("cannot write {out_path}: {e}")))?;
    Ok(format!(
        "wrote {} events ({} dropped) to {out_path}; delivered {}/{} in {:.0} slots\n",
        log.len(),
        log.dropped(),
        outcome.report.packets_delivered,
        outcome.report.packets_expected,
        outcome.report.delay_slots,
    ))
}

fn cmd_sweep(mut args: Vec<String>) -> Result<String, CliError> {
    let preset: PresetKind = take(&mut args, "--preset", "tiny".to_owned())?.parse()?;
    let reps: u32 = take(&mut args, "--reps", 0)?;
    let threads: usize = take(&mut args, "--threads", 1)?;
    let csv_path = take_opt(&mut args, "--csv")?;
    let churn = presence(&mut args, "churn");
    let mut specs: Vec<crn_workloads::SweepSpec> = if args.iter().any(|a| a == "all") {
        args.clear();
        Fig6Panel::ALL
            .iter()
            .map(|&p| presets::fig6_spec(preset, p))
            .collect()
    } else {
        let parsed: Result<Vec<Fig6Panel>, String> = args.iter().map(|a| a.parse()).collect();
        let panels = parsed?;
        args.clear();
        panels
            .into_iter()
            .map(|p| presets::fig6_spec(preset, p))
            .collect()
    };
    if churn {
        specs.push(presets::churn_spec(preset));
    }
    if specs.is_empty() {
        return Err(CliError::usage(
            "sweep requires panel letters a..f, 'all', or 'churn'",
        ));
    }
    let mut out = String::new();
    let mut all_records = Vec::new();
    for mut spec in specs {
        if reps > 0 {
            spec.reps = reps;
        }
        let records =
            run_sweep(&spec, SweepOptions::with_threads(threads)).map_err(CliError::runtime)?;
        let points = aggregate(&records);
        let _ = writeln!(out, "## {} [{preset}, {} reps]\n", spec.figure, spec.reps);
        let _ = writeln!(out, "{}", markdown_figure(&points));
        if let Some(line) = ratio_line(&points) {
            let _ = writeln!(out, "{line}\n");
        }
        all_records.extend(records);
    }
    if let Some(path) = csv_path {
        std::fs::write(&path, csv_records(&all_records))
            .map_err(|e| CliError::runtime(format!("cannot write {path}: {e}")))?;
        let _ = writeln!(out, "wrote {} records to {path}", all_records.len());
    }
    Ok(out)
}

/// The paper-style summary of one figure: the Coolest/ADDC delay ratio
/// averaged over the axis points where both ran, as "ADDC induces X%
/// less delay".
fn ratio_line(points: &[AggregatePoint]) -> Option<String> {
    use crn_core::CollectionAlgorithm::{Addc, Coolest};
    let ratios: Vec<f64> = points
        .iter()
        .filter(|a| a.algorithm == Addc && a.mean_delay_slots > 0.0)
        .filter_map(|a| {
            let c = points
                .iter()
                .find(|c| c.algorithm == Coolest && c.x.to_bits() == a.x.to_bits())?;
            Some(c.mean_delay_slots / a.mean_delay_slots)
        })
        .collect();
    if ratios.is_empty() {
        return None;
    }
    let mean = ratios.iter().sum::<f64>() / ratios.len() as f64;
    Some(format!(
        "On average Coolest takes {mean:.2}x the ADDC delay, i.e. ADDC induces {:.0}% less delay.",
        (mean - 1.0) * 100.0
    ))
}

fn cmd_pcr(mut args: Vec<String>) -> Result<String, CliError> {
    let alpha: f64 = take(&mut args, "--alpha", 4.0)?;
    let eta_db: f64 = take(&mut args, "--eta-db", 10.0)?;
    let pp: f64 = take(&mut args, "--pp", 10.0)?;
    let ps: f64 = take(&mut args, "--ps", 10.0)?;
    let big_r: f64 = take(&mut args, "--big-r", 12.0)?;
    let r: f64 = take(&mut args, "--r", 10.0)?;
    ensure_consumed(&args)?;
    let phy = PhyParams::builder()
        .alpha(alpha)
        .pu_sir_threshold_db(eta_db)
        .su_sir_threshold_db(eta_db)
        .pu_power(pp)
        .su_power(ps)
        .pu_radius(big_r)
        .su_radius(r)
        .build()
        .map_err(|e| e.to_string())?;
    let mut out = String::new();
    for constants in [PcrConstants::Paper, PcrConstants::Corrected] {
        let _ = writeln!(
            out,
            "{constants:?}: kappa = {:.3}, PCR = {:.2}",
            pcr::kappa(&phy, constants),
            pcr::carrier_sensing_range(&phy, constants)
        );
    }
    Ok(out)
}

fn cmd_bounds(mut args: Vec<String>) -> Result<String, CliError> {
    let spec = run_spec_from(&mut args, Json::obj())?;
    ensure_consumed(&args)?;
    let b = Scenario::generate(&spec.params)
        .and_then(|scenario| scenario.delay_bounds())
        .map_err(CliError::runtime)?;
    let mut out = String::new();
    let _ = writeln!(out, "kappa = {:.3}, p_o = {:.5}", b.kappa, b.p_o);
    let _ = writeln!(
        out,
        "Lemma 5 (CDS nodes in PCR) <= {:.1}; Lemma 6 (SUs in PCR) <= {:.1}; Δ w.h.p. <= {:.1}",
        b.lemma5_cds_nodes, b.lemma6_sus, b.delta_whp_bound
    );
    let _ = writeln!(
        out,
        "Theorem 1 service <= {:.0} slots; Lemma 8 backbone <= {:.0} slots",
        b.theorem1_service_slots, b.lemma8_service_slots
    );
    let _ = writeln!(
        out,
        "Theorem 2 delay <= {:.0} slots; capacity >= {:.6}·W",
        b.theorem2_delay_slots, b.capacity_fraction_lower
    );
    Ok(out)
}

/// Parses the shared persistent-store flags: `--store DIR` enables the
/// on-disk result store there; `--store-max-mb M` (default 0 = no limit)
/// caps it with LRU eviction. Pure, unit-tested.
fn parse_store_flags(args: &mut Vec<String>) -> Result<Option<StoreConfig>, CliError> {
    let dir = take_opt(args, "--store")?;
    let max_mb: u64 = take(args, "--store-max-mb", 0)?;
    if dir.is_none() && max_mb > 0 {
        return Err(CliError::usage("--store-max-mb requires --store DIR"));
    }
    Ok(dir.map(|dir| StoreConfig {
        dir: dir.into(),
        max_bytes: max_mb * 1024 * 1024,
    }))
}

/// Parses `crn serve` flags into a [`ServeConfig`] (pure, unit-tested).
fn parse_serve_config(args: &mut Vec<String>) -> Result<ServeConfig, CliError> {
    let d = ServeConfig::default();
    let cfg = ServeConfig {
        addr: take(args, "--addr", d.addr)?,
        workers: take(args, "--workers", d.workers)?,
        queue_cap: take(args, "--queue-cap", d.queue_cap)?,
        cache_cap: take(args, "--cache-cap", d.cache_cap)?,
        topo_cache_cap: take(args, "--topo-cache-cap", d.topo_cache_cap)?,
        store: parse_store_flags(args)?,
    };
    if cfg.workers == 0 {
        return Err(CliError::usage("--workers must be at least 1"));
    }
    Ok(cfg)
}

/// Parses `crn serve --coordinator` flags (pure, unit-tested). The
/// returned worker count is the number of worker *processes* to spawn
/// (0 = none; external workers join with `crn serve --join`).
fn parse_cluster_config(args: &mut Vec<String>) -> Result<(ClusterConfig, usize), CliError> {
    let d = ClusterConfig::default();
    let workers: usize = take(args, "--workers", 2)?;
    let cfg = ClusterConfig {
        addr: take(args, "--addr", d.addr)?,
        queue_cap: take(args, "--queue-cap", d.queue_cap)?,
        cache_cap: take(args, "--cache-cap", d.cache_cap)?,
        topo_cache_cap: take(args, "--topo-cache-cap", d.topo_cache_cap)?,
        job_timeout_ms: take(args, "--job-timeout-ms", d.job_timeout_ms)?,
        // The coordinator's own store lives in a subdirectory so
        // spawned workers can share the parent --store DIR.
        store: parse_store_flags(args)?.map(|s| StoreConfig {
            dir: s.dir.join("coordinator"),
            max_bytes: s.max_bytes,
        }),
        ..d
    };
    Ok((cfg, workers))
}

/// Parses `crn serve --join` flags into a [`WorkerConfig`] (pure,
/// unit-tested). `coordinator` is the already-extracted `--join` value.
fn parse_worker_config(
    coordinator: String,
    args: &mut Vec<String>,
) -> Result<WorkerConfig, CliError> {
    let d = WorkerConfig::default();
    let cfg = WorkerConfig {
        coordinator,
        name: take(args, "--name", format!("worker-{}", std::process::id()))?,
        threads: take(args, "--threads", d.threads)?,
        cache_cap: take(args, "--cache-cap", d.cache_cap)?,
        topo_cache_cap: take(args, "--topo-cache-cap", d.topo_cache_cap)?,
        store: parse_store_flags(args)?,
    };
    if cfg.threads == 0 {
        return Err(CliError::usage("--threads must be at least 1"));
    }
    Ok(cfg)
}

/// `crn serve`: bind, print the bound address immediately (so scripts can
/// parse the ephemeral port), then block until a `shutdown` request
/// drains the service; the final counter summary becomes the output.
///
/// Three modes share the verb: the classic single process (default), a
/// fleet coordinator (`--coordinator`, optionally spawning `--workers N`
/// worker processes of this same binary), and a worker (`--join H:P`).
fn cmd_serve(mut args: Vec<String>) -> Result<String, CliError> {
    let join_addr: String = take(&mut args, "--join", String::new())?;
    let coordinator = presence(&mut args, "--coordinator");
    if coordinator && !join_addr.is_empty() {
        return Err(CliError::usage(
            "--coordinator and --join are mutually exclusive",
        ));
    }
    if !join_addr.is_empty() {
        return cmd_serve_worker(join_addr, args);
    }
    if coordinator {
        return cmd_serve_coordinator(args);
    }
    let cfg = parse_serve_config(&mut args)?;
    ensure_consumed(&args)?;
    let server =
        Server::start(cfg).map_err(|e| CliError::runtime(format!("cannot bind listener: {e}")))?;
    announce(&format!("crn-serve listening on {}", server.local_addr()));
    Ok(serve_summary(&server.wait(), None))
}

/// The exit summary of `crn serve` in either role; `fleet` adds the
/// coordinator's ring counts.
fn serve_summary(c: &Counters, fleet: Option<&ClusterCounters>) -> String {
    let mut out = format!(
        "served {} ok ({} cache hits, {} store hits, {} coalesced, {} computed",
        c.served, c.cache_hits, c.store_hits, c.coalesced, c.computed,
    );
    match fleet {
        None => out.push(')'),
        Some(f) => {
            let _ = write!(
                out,
                "; {} remote, {} local fallbacks); \
                 {} joined / {} lost workers, {} redispatches, {} late duplicates",
                f.completed_remote,
                f.local_fallbacks,
                f.workers_joined,
                f.workers_lost,
                f.redispatches,
                c.late_duplicates,
            );
        }
    }
    let _ = writeln!(
        out,
        "; rejected {}, timed out {}, failed {}, bad requests {}",
        c.rejected, c.timed_out, c.failed, c.bad_requests,
    );
    out
}

/// Prints a line to stdout immediately (before the blocking wait), so
/// scripts can parse ephemeral ports and readiness.
fn announce(line: &str) {
    use std::io::Write as _;
    let mut stdout = std::io::stdout();
    let _ = writeln!(stdout, "{line}");
    let _ = stdout.flush();
}

/// `crn serve --join`: run one worker until the coordinator hangs up.
fn cmd_serve_worker(coordinator: String, mut args: Vec<String>) -> Result<String, CliError> {
    let cfg = parse_worker_config(coordinator, &mut args)?;
    ensure_consumed(&args)?;
    let name = cfg.name.clone();
    let addr = cfg.coordinator.clone();
    announce(&format!("crn-serve worker '{name}' joined {addr}"));
    WorkerNode::run(cfg)
        .map_err(|e| CliError::runtime(format!("worker cannot join {addr}: {e}")))?;
    Ok(format!("worker '{name}' released by {addr}\n"))
}

/// `crn serve --coordinator`: bind the fleet endpoint, spawn `--workers N`
/// worker processes of this same binary (each with its own store
/// subdirectory when `--store` is given), and block until shutdown.
fn cmd_serve_coordinator(mut args: Vec<String>) -> Result<String, CliError> {
    let (cfg, worker_count) = parse_cluster_config(&mut args)?;
    ensure_consumed(&args)?;
    // The --store DIR the coordinator's own subdirectory was parsed under.
    let store_root = cfg
        .store
        .as_ref()
        .and_then(|s| s.dir.parent())
        .map(std::path::Path::to_path_buf);
    let coordinator = Coordinator::start(cfg)
        .map_err(|e| CliError::runtime(format!("cannot start coordinator: {e}")))?;
    let addr = coordinator.local_addr();
    announce(&format!("crn-serve coordinator listening on {addr}"));
    let exe = std::env::current_exe()
        .map_err(|e| CliError::runtime(format!("cannot locate own binary: {e}")))?;
    let mut children = Vec::new();
    for i in 0..worker_count {
        let name = format!("worker-{i}");
        let mut cmd = std::process::Command::new(&exe);
        cmd.arg("serve")
            .arg("--join")
            .arg(addr.to_string())
            .arg("--name")
            .arg(&name)
            .stdout(std::process::Stdio::null())
            .stderr(std::process::Stdio::inherit());
        if let Some(root) = &store_root {
            cmd.arg("--store").arg(root.join(&name));
        }
        match cmd.spawn() {
            Ok(child) => children.push(child),
            Err(e) => {
                coordinator.shutdown();
                coordinator.wait();
                return Err(CliError::runtime(format!(
                    "cannot spawn worker process '{name}': {e}"
                )));
            }
        }
    }
    let (counters, fleet) = coordinator.wait();
    // Reaped workers see EOF and exit on their own; collect them so no
    // zombies outlive the coordinator.
    for mut child in children {
        let _ = child.wait();
    }
    Ok(serve_summary(&counters, Some(&fleet)))
}

/// Builds the protocol request line for `crn submit` (pure, unit-tested):
/// the run flags parse as for `crn run`, and the line carries the parsed
/// spec in its wire shape.
fn build_submit_request(args: &mut Vec<String>) -> Result<String, CliError> {
    if let Some(raw) = take_opt(args, "--raw")? {
        return Ok(raw);
    }
    for (flag, cmd) in [
        ("--stats", "stats"),
        ("--status", "status"),
        ("--shutdown", "shutdown"),
    ] {
        if presence(args, flag) {
            return Ok(format!(r#"{{"v":1,"cmd":"{cmd}"}}"#));
        }
    }
    let stream = presence(args, "--stream");
    let timeout_ms: u64 = take(args, "--timeout-ms", 0)?;
    let seed_count: u64 = take(args, "--seed-count", 0)?;
    let seed_start: u64 = take(args, "--seed-start", 0)?;
    if stream && seed_count == 0 {
        return Err(CliError::usage("--stream requires a sweep (--seed-count)"));
    }
    let mut req = spec_to_json(&run_spec(args)?);
    req.set("v", Json::UInt(1)).set(
        "cmd",
        Json::Str(if seed_count > 0 { "sweep" } else { "run" }.into()),
    );
    if seed_count > 0 {
        req.set("seed_start", Json::UInt(seed_start))
            .set("seed_count", Json::UInt(seed_count));
        if stream {
            req.set("stream", Json::Bool(true));
        }
    }
    if timeout_ms > 0 {
        req.set("timeout_ms", Json::UInt(timeout_ms));
    }
    Ok(req.to_string())
}

/// The latency percentile ladder `crn submit --stats` summarizes.
const STATS_PERCENTILES: [(&str, f64); 3] = [("p50", 0.50), ("p95", 0.95), ("p99", 0.99)];

/// Upper-bound percentile from a cumulative histogram: the first bucket
/// edge at which the cumulative count covers fraction `q` of the samples.
/// A `None` edge is the open `+∞` bucket. Returns `None` when empty.
fn histogram_percentile(buckets: &[(Option<f64>, u64)], q: f64) -> Option<Option<f64>> {
    let total: u64 = buckets.iter().map(|&(_, c)| c).sum();
    if total == 0 {
        return None;
    }
    // ceil(q·total), clamped to at least one sample.
    let target = ((q * total as f64).ceil() as u64).clamp(1, total);
    let mut cumulative = 0;
    for &(le, count) in buckets {
        cumulative += count;
        if cumulative >= target {
            return Some(le);
        }
    }
    None
}

/// Renders the `submit --stats` percentile summary from a stats response,
/// reading the serve layer's `latency_ms` histogram. Returns `None` when
/// the response carries no histogram (e.g. `--raw` against an older
/// server).
fn stats_latency_summary(response: &Json) -> Option<String> {
    let hist = response.get("stats")?.get("latency_ms")?.as_arr()?;
    let buckets: Vec<(Option<f64>, u64)> = hist
        .iter()
        .map(|b| {
            (
                b.get("le_ms").and_then(Json::as_f64),
                b.get("count").and_then(Json::as_u64).unwrap_or(0),
            )
        })
        .collect();
    let total: u64 = buckets.iter().map(|&(_, c)| c).sum();
    if total == 0 {
        return Some("latency: no served requests yet\n".to_owned());
    }
    // The +∞ bucket reports as "greater than the last finite edge".
    let last_edge = buckets.iter().rev().find_map(|&(le, _)| le);
    let mut line = format!("latency over {total} served:");
    for (name, q) in STATS_PERCENTILES {
        let bound = match histogram_percentile(&buckets, q)? {
            Some(le) => format!("<={le}ms"),
            None => last_edge.map_or("?".to_owned(), |le| format!(">{le}ms")),
        };
        let _ = write!(line, " {name} {bound}");
    }
    line.push('\n');
    Some(line)
}

/// Renders the `submit --stats` persistent-store summary. `None` when no
/// store block is present or no store is configured (nothing to say).
fn stats_store_summary(response: &Json) -> Option<String> {
    let store = response.get("stats")?.get("store")?;
    if store.get("configured").and_then(Json::as_bool) != Some(true) {
        return None;
    }
    Some(format!(
        "store: {} results, {} bytes; {} hits, {} evictions\n",
        store.get("len").and_then(Json::as_u64).unwrap_or(0),
        store.get("store_bytes").and_then(Json::as_u64).unwrap_or(0),
        store.get("store_hits").and_then(Json::as_u64).unwrap_or(0),
        store
            .get("store_evictions")
            .and_then(Json::as_u64)
            .unwrap_or(0),
    ))
}

/// Renders the `submit --stats` per-worker rows when the server is a
/// cluster coordinator. `None` against a single-process server.
fn stats_cluster_summary(response: &Json) -> Option<String> {
    let cluster = response.get("stats")?.get("cluster")?;
    let rows = cluster.get("workers").and_then(Json::as_arr)?;
    let mut out = format!(
        "cluster: {} workers ({} lost), {} redispatches, {} local fallbacks\n",
        rows.len(),
        cluster
            .get("workers_lost")
            .and_then(Json::as_u64)
            .unwrap_or(0),
        cluster
            .get("redispatches")
            .and_then(Json::as_u64)
            .unwrap_or(0),
        cluster
            .get("local_fallbacks")
            .and_then(Json::as_u64)
            .unwrap_or(0),
    );
    for row in rows {
        let _ = writeln!(
            out,
            "  {} [{}]: dispatched {}, completed {}, failed {}",
            row.get("name").and_then(Json::as_str).unwrap_or("?"),
            if row.get("alive").and_then(Json::as_bool) == Some(true) {
                "alive"
            } else {
                "lost"
            },
            row.get("dispatched").and_then(Json::as_u64).unwrap_or(0),
            row.get("completed").and_then(Json::as_u64).unwrap_or(0),
            row.get("failed").and_then(Json::as_u64).unwrap_or(0),
        );
    }
    Some(out)
}

/// `crn submit`: send one request to a running `crn serve` and print the
/// response line. Exit code 0 for an `ok` response, 1 for a server-side
/// error (overloaded, timed out, failed run), 2 for bad flags. `--stats`
/// appends a human-readable p50/p95/p99 summary computed from the
/// server's latency histogram.
fn cmd_submit(mut args: Vec<String>) -> Result<String, CliError> {
    let addr = take_opt(&mut args, "--addr")?
        .ok_or_else(|| CliError::usage("submit requires --addr HOST:PORT"))?;
    let want_stats = args.iter().any(|a| a == "--stats");
    let want_stream = args.iter().any(|a| a == "--stream");
    let request = build_submit_request(&mut args)?;
    ensure_consumed(&args)?;
    let mut client = Client::connect(addr.as_str())
        .map_err(|e| CliError::runtime(format!("cannot connect to {addr}: {e}")))?;
    let response = if want_stream {
        // Streamed sweep: rows go to stdout as they arrive (JSONL), the
        // summary line is the command output.
        client
            .request_stream(&request, |row| announce(&row.to_string()))
            .map_err(|e| CliError::runtime(format!("request to {addr} failed: {e}")))?
    } else {
        client
            .request_line(&request)
            .map_err(|e| CliError::runtime(format!("request to {addr} failed: {e}")))?
    };
    if response.get("ok").and_then(Json::as_bool) == Some(true) {
        if want_stats {
            let mut out = format!("{response}\n");
            for extra in [
                stats_latency_summary(&response),
                stats_store_summary(&response),
                stats_cluster_summary(&response),
            ]
            .into_iter()
            .flatten()
            {
                out.push_str(&extra);
            }
            return Ok(out);
        }
        return Ok(format!("{response}\n"));
    }
    let kind = response
        .get("error")
        .and_then(|e| e.get("kind"))
        .and_then(Json::as_str)
        .unwrap_or("unknown");
    let message = response
        .get("error")
        .and_then(|e| e.get("message"))
        .and_then(Json::as_str)
        .unwrap_or("(no message)");
    Err(CliError::runtime(format!(
        "server error ({kind}): {message}"
    )))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crn_core::CollectionAlgorithm;

    fn run(args: &[&str]) -> Result<String, CliError> {
        dispatch(&args.iter().map(|s| (*s).to_owned()).collect::<Vec<_>>())
    }

    #[test]
    fn no_command_is_an_error() {
        assert!(run(&[]).is_err());
    }

    #[test]
    fn unknown_command_is_an_error() {
        let e = run(&["frobnicate"]).unwrap_err();
        assert!(e.message.contains("frobnicate"));
        assert_eq!(e.code, 2);
        assert!(e.show_usage);
    }

    #[test]
    fn help_prints_usage() {
        let out = run(&["help"]).unwrap();
        assert!(out.contains("crn run"));
    }

    #[test]
    fn pcr_defaults_match_library() {
        let out = run(&["pcr"]).unwrap();
        let phy = PhyParams::builder().build().unwrap();
        let expect = pcr::carrier_sensing_range(&phy, PcrConstants::Paper);
        assert!(out.contains(&format!("{expect:.2}")), "{out}");
        assert!(out.contains("Corrected"));
    }

    #[test]
    fn pcr_rejects_bad_alpha() {
        let e = run(&["pcr", "--alpha", "1.5"]).unwrap_err();
        assert!(e.message.contains("path-loss"), "{e}");
    }

    #[test]
    fn run_executes_a_small_scenario() {
        let out = run(&[
            "run", "--sus", "40", "--pus", "4", "--side", "36", "--seed", "3",
        ])
        .unwrap();
        assert!(out.contains("delivered 40/40"), "{out}");
        assert!(out.contains("finished: true"), "{out}");
    }

    #[test]
    fn run_with_each_algorithm() {
        for algo in ["addc", "coolest", "coolest-oracle", "bfs"] {
            let out = run(&[
                "run", "--algo", algo, "--sus", "30", "--pus", "3", "--side", "31",
            ])
            .unwrap();
            assert!(out.contains("delivered 30/30"), "{algo}: {out}");
        }
    }

    #[test]
    fn trace_emits_one_delivery_event_per_packet() {
        let common = ["--sus", "30", "--pus", "3", "--side", "31", "--seed", "3"];
        let mut trace_args = vec!["trace"];
        trace_args.extend_from_slice(&common);
        let trace = run(&trace_args).unwrap();
        let deliveries = trace
            .lines()
            .filter(|l| l.contains("\"event\":\"delivery\""))
            .count();
        assert_eq!(deliveries, 30, "{trace}");
        // And the stream is deterministic: rerunning gives identical bytes.
        assert_eq!(trace, run(&trace_args).unwrap());
    }

    #[test]
    fn trace_csv_has_header_and_rows() {
        let out = run(&[
            "trace", "--format", "csv", "--sus", "20", "--pus", "2", "--side", "26",
        ])
        .unwrap();
        let mut lines = out.lines();
        assert_eq!(lines.next(), Some("time,event,su,peer,outcome,v0,v1"));
        assert!(lines.next().is_some(), "no data rows: {out}");
    }

    #[test]
    fn trace_rejects_unknown_format() {
        let e = run(&["trace", "--format", "xml"]).unwrap_err();
        assert!(e.message.contains("xml"), "{e}");
    }

    #[test]
    fn run_rejects_unknown_flag() {
        let e = run(&["run", "--bogus", "1"]).unwrap_err();
        assert!(e.message.contains("unrecognized"), "{e}");
        assert_eq!(e.code, 2, "bad flags are usage errors");
    }

    #[test]
    fn run_rejects_bad_probability() {
        let e = run(&["run", "--pt", "1.5"]).unwrap_err();
        assert!(e.message.contains("probability"), "{e}");
    }

    #[test]
    fn bounds_reports_theorems() {
        let out = run(&["bounds", "--sus", "40", "--pus", "4", "--side", "36"]).unwrap();
        assert!(out.contains("Theorem 2"), "{out}");
        assert!(out.contains("kappa"), "{out}");
    }

    #[test]
    fn sweep_requires_panels() {
        assert!(run(&["sweep"]).is_err());
    }

    #[test]
    fn sweep_runs_one_tiny_panel() {
        let out = run(&["sweep", "c", "--reps", "1"]).unwrap();
        assert!(out.contains("fig6c"), "{out}");
        assert!(out.contains("ADDC delay"), "{out}");
        assert!(out.contains("On average Coolest takes"), "{out}");
    }

    #[test]
    fn sweep_writes_its_raw_records_as_csv() {
        let path = std::env::temp_dir().join(format!("crn_cli_sweep_{}.csv", std::process::id()));
        let file = path.to_str().unwrap();
        let out = run(&["sweep", "churn", "--reps", "1", "--csv", file]).unwrap();
        let csv = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).ok();
        // Three churn rates, two algorithms, one repetition.
        assert!(out.contains(&format!("wrote 6 records to {file}")), "{out}");
        assert_eq!(csv.lines().count(), 7, "{csv}");
        assert!(csv.starts_with("figure,x_name,x,algorithm,rep,"), "{csv}");
    }

    #[test]
    fn run_with_map_renders_roles() {
        let out = run(&["run", "--map", "--sus", "40", "--pus", "4", "--side", "36"]).unwrap();
        assert!(out.contains("legend"), "{out}");
        assert!(out.contains('B'), "{out}");
    }

    #[test]
    fn algo_parse_errors_are_reported() {
        let e = run(&["run", "--algo", "magic"]).unwrap_err();
        assert!(e.message.contains("magic"));
    }

    #[test]
    fn run_with_check_invariants_reports_clean_oracle() {
        let common = ["--sus", "40", "--pus", "4", "--side", "36", "--seed", "3"];
        let mut plain = vec!["run"];
        plain.extend_from_slice(&common);
        let mut checked = plain.clone();
        checked.push("--check-invariants");
        let checked_out = run(&checked).unwrap();
        assert!(
            checked_out.contains("invariants: ok ("),
            "oracle verdict missing: {checked_out}"
        );
        // Apart from the verdict line, the checked run reports the exact
        // same results — the oracle must not perturb the simulation.
        let stripped: String = checked_out
            .lines()
            .filter(|l| !l.contains("invariants:"))
            .map(|l| format!("{l}\n"))
            .collect();
        assert_eq!(run(&plain).unwrap(), stripped);
    }

    #[test]
    fn run_with_truncated_interference_matches_exact() {
        let common = ["--sus", "40", "--pus", "4", "--side", "36", "--seed", "3"];
        let mut exact = vec!["run"];
        exact.extend_from_slice(&common);
        let mut truncated = exact.clone();
        truncated.extend_from_slice(&["--interference", "truncated:0.1"]);
        assert_eq!(run(&exact).unwrap(), run(&truncated).unwrap());
    }

    #[test]
    fn interference_flag_rejects_garbage() {
        let e = run(&["run", "--interference", "psychic"]).unwrap_err();
        assert!(e.message.contains("psychic"), "{e}");
        let e = run(&["run", "--interference", "truncated:1.5"]).unwrap_err();
        assert!(e.message.contains("(0, 1)"), "{e}");
    }

    #[test]
    fn injected_fairness_skip_is_a_runtime_failure() {
        let e = run(&[
            "run",
            "--check-invariants",
            "--inject-fairness-skip",
            "--sus",
            "40",
            "--pus",
            "4",
            "--side",
            "36",
            "--seed",
            "3",
        ])
        .unwrap_err();
        assert_eq!(e.code, 1, "violations are runtime failures, not usage");
        assert!(!e.show_usage);
        assert!(e.message.contains("invariant violation"), "{e}");
        assert!(e.message.contains("scheduler-hygiene"), "{e}");
    }

    #[test]
    fn inject_flag_requires_check_invariants() {
        let e = run(&["run", "--inject-fairness-skip"]).unwrap_err();
        assert_eq!(e.code, 2);
        assert!(e.message.contains("--check-invariants"), "{e}");
    }

    #[test]
    fn fault_free_flags_leave_the_output_byte_identical() {
        let common = ["--sus", "40", "--pus", "4", "--side", "36", "--seed", "3"];
        let mut plain = vec!["run"];
        plain.extend_from_slice(&common);
        let mut preset_none = plain.clone();
        preset_none.extend_from_slice(&["--fault-preset", "none"]);
        assert_eq!(run(&plain).unwrap(), run(&preset_none).unwrap());
    }

    #[test]
    fn empty_plan_file_matches_the_fault_free_report() {
        // ISSUE acceptance at the CLI level: an explicit empty plan runs
        // the identical simulation; only the fault-summary lines differ.
        let path = std::env::temp_dir().join("crn_cli_empty_plan.json");
        std::fs::write(&path, r#"{"events":[]}"#).unwrap();
        let common = ["--sus", "40", "--pus", "4", "--side", "36", "--seed", "3"];
        let mut plain = vec!["run"];
        plain.extend_from_slice(&common);
        let mut with_plan = plain.clone();
        let path_s = path.to_str().unwrap();
        with_plan.extend_from_slice(&["--faults", path_s]);
        let with_out = run(&with_plan).unwrap();
        assert!(with_out.contains("faults [plan(0 events)]"), "{with_out}");
        assert!(with_out.contains("delivery ratio 1.000"), "{with_out}");
        let stripped: String = with_out
            .lines()
            .filter(|l| !l.contains("faults [") && !l.contains("healing:"))
            .map(|l| format!("{l}\n"))
            .collect();
        assert_eq!(run(&plain).unwrap(), stripped);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn churn_preset_runs_clean_under_the_oracle_and_reports_faults() {
        let out = run(&[
            "run",
            "--check-invariants",
            "--fault-preset",
            "churn:10",
            "--sus",
            "40",
            "--pus",
            "4",
            "--side",
            "36",
            "--seed",
            "3",
        ])
        .unwrap();
        assert!(out.contains("faults [churn:10]"), "{out}");
        assert!(out.contains("healing: reparents"), "{out}");
        assert!(out.contains("invariants: ok ("), "{out}");
    }

    #[test]
    fn plan_file_crash_is_reported() {
        let path = std::env::temp_dir().join("crn_cli_crash_plan.json");
        std::fs::write(
            &path,
            r#"{"events":[{"t":0.001,"kind":"crash","su":1},{"t":0.5,"kind":"recover","su":1}]}"#,
        )
        .unwrap();
        let out = run(&[
            "run",
            "--check-invariants",
            "--faults",
            path.to_str().unwrap(),
            "--sus",
            "40",
            "--pus",
            "4",
            "--side",
            "36",
            "--seed",
            "3",
        ])
        .unwrap();
        assert!(out.contains("faults [plan(2 events)]"), "{out}");
        assert!(out.contains("invariants: ok ("), "{out}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn fault_flag_misuse_is_a_usage_error() {
        let e = run(&["run", "--faults", "x.json", "--fault-preset", "churn:1"]).unwrap_err();
        assert_eq!(e.code, 2);
        assert!(e.message.contains("mutually exclusive"), "{e}");
        let e = run(&["run", "--fault-preset", "meteor"]).unwrap_err();
        assert!(e.message.contains("meteor"), "{e}");
        let e = run(&["run", "--faults", "/nonexistent/plan.json"]).unwrap_err();
        assert!(e.message.contains("cannot read"), "{e}");
    }

    #[test]
    fn malformed_plan_files_are_rejected_with_the_path() {
        let path = std::env::temp_dir().join("crn_cli_bad_plan.json");
        for bad in ["not json", r#"{"events":[{"t":0.0,"kind":"zap"}]}"#] {
            std::fs::write(&path, bad).unwrap();
            let e = run(&["run", "--faults", path.to_str().unwrap()]).unwrap_err();
            assert_eq!(e.code, 2, "{bad}");
            assert!(e.message.contains("crn_cli_bad_plan"), "{bad}: {e}");
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn sweep_runs_the_churn_figure() {
        let out = run(&["sweep", "churn", "--reps", "1"]).unwrap();
        assert!(out.contains("## churn"), "{out}");
        assert!(out.contains("ADDC delay"), "{out}");
    }

    #[test]
    fn histogram_percentiles_walk_the_cumulative_counts() {
        let buckets = vec![(Some(1.0), 50u64), (Some(5.0), 45), (None, 5)];
        assert_eq!(histogram_percentile(&buckets, 0.50), Some(Some(1.0)));
        assert_eq!(histogram_percentile(&buckets, 0.95), Some(Some(5.0)));
        assert_eq!(histogram_percentile(&buckets, 0.99), Some(None));
        assert_eq!(histogram_percentile(&[], 0.5), None);
        assert_eq!(histogram_percentile(&[(Some(1.0), 0)], 0.5), None);
        // A single sample is every percentile.
        let one = vec![(Some(1.0), 0u64), (Some(5.0), 1)];
        assert_eq!(histogram_percentile(&one, 0.50), Some(Some(5.0)));
        assert_eq!(histogram_percentile(&one, 0.99), Some(Some(5.0)));
    }

    #[test]
    fn stats_summary_renders_percentiles_from_a_response() {
        let response: Json = r#"{"v":1,"ok":true,"stats":{"latency_ms":[
            {"le_ms":1.0,"count":90},{"le_ms":5.0,"count":5},{"le_ms":null,"count":5}
        ]}}"#
            .parse()
            .unwrap();
        let summary = stats_latency_summary(&response).unwrap();
        assert_eq!(
            summary,
            "latency over 100 served: p50 <=1ms p95 <=5ms p99 >5ms\n"
        );
        let empty: Json = r#"{"v":1,"ok":true,"stats":{"latency_ms":[
            {"le_ms":1.0,"count":0},{"le_ms":null,"count":0}
        ]}}"#
            .parse()
            .unwrap();
        assert_eq!(
            stats_latency_summary(&empty).unwrap(),
            "latency: no served requests yet\n"
        );
        let no_hist: Json = r#"{"v":1,"ok":true}"#.parse().unwrap();
        assert!(stats_latency_summary(&no_hist).is_none());
    }

    #[test]
    fn stats_summary_renders_store_counters() {
        let response: Json = r#"{"v":1,"ok":true,"stats":{"store":{
            "configured":true,"len":12,"store_bytes":3456,
            "store_hits":7,"store_evictions":2,"misses":5,"writes":12,"repaired":0
        }}}"#
            .parse()
            .unwrap();
        assert_eq!(
            stats_store_summary(&response).unwrap(),
            "store: 12 results, 3456 bytes; 7 hits, 2 evictions\n"
        );
        let off: Json = r#"{"v":1,"ok":true,"stats":{"store":{"configured":false}}}"#
            .parse()
            .unwrap();
        assert!(stats_store_summary(&off).is_none());
        let absent: Json = r#"{"v":1,"ok":true,"stats":{}}"#.parse().unwrap();
        assert!(stats_store_summary(&absent).is_none());
    }

    #[test]
    fn stats_summary_renders_per_worker_rows() {
        let response: Json = r#"{"v":1,"ok":true,"stats":{"cluster":{
            "workers":[
                {"name":"w0","alive":true,"dispatched":9,"completed":9,"failed":0},
                {"name":"w1","alive":false,"dispatched":4,"completed":3,"failed":0}
            ],
            "workers_lost":1,"redispatches":1,"local_fallbacks":0
        }}}"#
            .parse()
            .unwrap();
        let summary = stats_cluster_summary(&response).unwrap();
        assert!(
            summary.starts_with("cluster: 2 workers (1 lost), 1 redispatches, 0 local fallbacks\n"),
            "{summary}"
        );
        assert!(
            summary.contains("w0 [alive]: dispatched 9, completed 9, failed 0"),
            "{summary}"
        );
        assert!(
            summary.contains("w1 [lost]: dispatched 4, completed 3, failed 0"),
            "{summary}"
        );
        let plain: Json = r#"{"v":1,"ok":true,"stats":{}}"#.parse().unwrap();
        assert!(stats_cluster_summary(&plain).is_none());
    }

    #[test]
    fn serve_config_parses_with_defaults_and_flags() {
        let mut args = Vec::new();
        let cfg = parse_serve_config(&mut args).unwrap();
        assert_eq!(cfg.addr, "127.0.0.1:0");
        assert_eq!((cfg.workers, cfg.queue_cap, cfg.cache_cap), (4, 64, 1024));
        assert_eq!(cfg.topo_cache_cap, 64);

        assert!(cfg.store.is_none(), "no store unless --store is given");

        let mut args: Vec<String> = [
            "--addr",
            "0.0.0.0:9000",
            "--workers",
            "2",
            "--queue-cap",
            "5",
            "--cache-cap",
            "10",
            "--topo-cache-cap",
            "3",
            "--store",
            "/tmp/crn-store",
            "--store-max-mb",
            "7",
        ]
        .iter()
        .map(|s| (*s).to_owned())
        .collect();
        let cfg = parse_serve_config(&mut args).unwrap();
        assert_eq!(cfg.addr, "0.0.0.0:9000");
        assert_eq!((cfg.workers, cfg.queue_cap, cfg.cache_cap), (2, 5, 10));
        assert_eq!(cfg.topo_cache_cap, 3);
        let store = cfg.store.expect("store configured");
        assert_eq!(store.dir, std::path::PathBuf::from("/tmp/crn-store"));
        assert_eq!(store.max_bytes, 7 * 1024 * 1024);
        assert!(args.is_empty(), "all flags consumed");

        let mut args: Vec<String> = vec!["--workers".into(), "0".into()];
        assert!(parse_serve_config(&mut args).is_err());

        // --store-max-mb without --store is a usage error.
        let mut args: Vec<String> = vec!["--store-max-mb".into(), "5".into()];
        assert!(parse_serve_config(&mut args).is_err());
    }

    #[test]
    fn cluster_config_parses_with_defaults_and_flags() {
        let mut args = Vec::new();
        let (cfg, workers) = parse_cluster_config(&mut args).unwrap();
        assert_eq!(cfg.addr, "127.0.0.1:0");
        assert_eq!((cfg.queue_cap, cfg.cache_cap), (256, 1024));
        assert_eq!(cfg.job_timeout_ms, 30_000);
        assert!(cfg.store.is_none());
        assert_eq!(workers, 2, "default fleet size");

        let mut args: Vec<String> = [
            "--workers",
            "3",
            "--job-timeout-ms",
            "500",
            "--store",
            "/tmp/fleet",
        ]
        .iter()
        .map(|s| (*s).to_owned())
        .collect();
        let (cfg, workers) = parse_cluster_config(&mut args).unwrap();
        assert_eq!(workers, 3);
        assert_eq!(cfg.job_timeout_ms, 500);
        // The coordinator gets its own store subdirectory so worker
        // processes can share the parent --store DIR.
        assert_eq!(
            cfg.store.expect("store").dir,
            std::path::PathBuf::from("/tmp/fleet/coordinator")
        );
        assert!(args.is_empty(), "all flags consumed");
    }

    #[test]
    fn worker_config_parses_with_defaults_and_flags() {
        let mut args = Vec::new();
        let cfg = parse_worker_config("127.0.0.1:9000".into(), &mut args).unwrap();
        assert_eq!(cfg.coordinator, "127.0.0.1:9000");
        assert!(cfg.name.starts_with("worker-"), "pid-derived name");
        assert_eq!(cfg.threads, 2);

        let mut args: Vec<String> = ["--name", "w7", "--threads", "1", "--store", "/tmp/w7"]
            .iter()
            .map(|s| (*s).to_owned())
            .collect();
        let cfg = parse_worker_config("h:1".into(), &mut args).unwrap();
        assert_eq!(cfg.name, "w7");
        assert_eq!(cfg.threads, 1);
        assert_eq!(
            cfg.store.expect("store").dir,
            std::path::PathBuf::from("/tmp/w7")
        );
        assert!(args.is_empty(), "all flags consumed");

        let mut args: Vec<String> = vec!["--threads".into(), "0".into()];
        assert!(parse_worker_config("h:1".into(), &mut args).is_err());
    }

    #[test]
    fn serve_mode_flags_are_mutually_exclusive() {
        let e = run(&["serve", "--coordinator", "--join", "127.0.0.1:1"]).unwrap_err();
        assert_eq!(e.code, 2);
        assert!(e.message.contains("mutually exclusive"), "{e}");
    }

    #[test]
    fn submit_request_builder_emits_protocol_lines() {
        let build = |flags: &[&str]| {
            let mut args: Vec<String> = flags.iter().map(|s| (*s).to_owned()).collect();
            let line = build_submit_request(&mut args).unwrap();
            assert!(args.is_empty(), "unconsumed: {args:?}");
            line
        };
        // Control commands.
        assert_eq!(build(&["--stats"]), r#"{"v":1,"cmd":"stats"}"#);
        assert_eq!(build(&["--shutdown"]), r#"{"v":1,"cmd":"shutdown"}"#);
        // A run request parses under the server's own protocol parser.
        let line = build(&[
            "--sus",
            "40",
            "--seed",
            "7",
            "--algo",
            "coolest",
            "--timeout-ms",
            "500",
        ]);
        let req = crn_serve::protocol::parse_request(&line).unwrap();
        let crn_serve::protocol::Request::Run { spec, timeout_ms } = req else {
            panic!("expected run request: {line}");
        };
        assert_eq!(spec.params.num_sus, 40);
        assert_eq!(spec.params.seed, 7);
        assert_eq!(spec.algorithm, CollectionAlgorithm::Coolest);
        assert_eq!(timeout_ms, Some(500));
        // Sweep form.
        let line = build(&["--seed-count", "3", "--seed-start", "5"]);
        let req = crn_serve::protocol::parse_request(&line).unwrap();
        let crn_serve::protocol::Request::Sweep { seeds, stream, .. } = req else {
            panic!("expected sweep request: {line}");
        };
        assert_eq!(seeds, vec![5, 6, 7]);
        assert!(!stream, "streaming is opt-in");
        // Streamed sweep form.
        let line = build(&["--seed-count", "2", "--stream"]);
        let req = crn_serve::protocol::parse_request(&line).unwrap();
        let crn_serve::protocol::Request::Sweep { stream, .. } = req else {
            panic!("expected sweep request: {line}");
        };
        assert!(stream, "--stream sets the protocol flag");
        // --stream without a sweep is a usage error.
        let mut args: Vec<String> = vec!["--stream".into()];
        assert!(build_submit_request(&mut args).is_err());
        // --raw passes through verbatim.
        let mut args: Vec<String> = vec!["--raw".into(), r#"{"v":1,"cmd":"status"}"#.into()];
        assert_eq!(
            build_submit_request(&mut args).unwrap(),
            r#"{"v":1,"cmd":"status"}"#
        );
        // Bad algorithms are rejected locally.
        let mut args: Vec<String> = vec!["--algo".into(), "magic".into()];
        assert!(build_submit_request(&mut args).is_err());
    }

    fn served_spec(line: &str) -> RunSpec {
        match crn_serve::protocol::parse_request(line).unwrap() {
            crn_serve::protocol::Request::Run { spec, .. } => spec,
            other => panic!("expected a run request: {other:?}"),
        }
    }

    #[test]
    fn a_served_specs_repro_line_reruns_the_same_spec() {
        // Every wire field at a non-default value.
        let spec = served_spec(
            r#"{"v":1,"cmd":"run","params":{"sus":61,"pus":9,"side":41.5,"pt":0.35,
                "seed":1234,"interference":"truncated:0.07","faults":"churn:2.5"},
                "algo":"coolest","check_invariants":true}"#,
        );
        let repro = spec.repro();
        let mut args: Vec<String> = repro.split_whitespace().map(str::to_owned).collect();
        assert_eq!(
            args.drain(..2).collect::<Vec<_>>(),
            ["crn", "run"],
            "{repro}"
        );
        let rerun = run_spec(&mut args).unwrap();
        assert!(args.is_empty(), "unconsumed: {args:?}");
        assert_eq!(rerun, spec, "{repro}");
        assert_eq!(rerun.cache_key(), spec.cache_key());
    }

    #[test]
    fn submit_sends_the_spec_crn_run_parses() {
        let path = std::env::temp_dir().join("crn_cli_submit_plan.json");
        std::fs::write(&path, r#"{"events":[{"t":0.001,"kind":"crash","su":1}]}"#).unwrap();
        let common = "--sus 40 --pus 4 --side 36 --pt 0.25 --seed 5 \
                      --interference truncated:0.1 --algo coolest --check-invariants";
        let plan = path.to_str().unwrap();
        for faults in [["--fault-preset", "churn:3"], ["--faults", plan]] {
            let flags: Vec<String> = common
                .split_whitespace()
                .chain(faults)
                .map(str::to_owned)
                .collect();
            let mut run_args = flags.clone();
            let local = run_spec(&mut run_args).unwrap();
            let mut submit_args = flags;
            let line = build_submit_request(&mut submit_args).unwrap();
            assert!(run_args.is_empty() && submit_args.is_empty());
            let served = served_spec(&line);
            assert_eq!(served, local, "{line}");
            assert_eq!(served.cache_key(), local.cache_key());
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn trace_and_bounds_take_only_their_run_fields() {
        let e = run(&["trace", "--check-invariants"]).unwrap_err();
        assert_eq!(e.code, 2);
        assert!(e.message.contains("--check-invariants"), "{e}");
        let e = run(&["bounds", "--algo", "coolest"]).unwrap_err();
        assert_eq!(e.code, 2);
        assert!(e.message.contains("unrecognized"), "{e}");
    }

    #[test]
    fn submit_requires_addr() {
        let e = run(&["submit", "--stats"]).unwrap_err();
        assert_eq!(e.code, 2);
        assert!(e.message.contains("--addr"), "{e}");
    }

    #[test]
    fn submit_to_dead_server_is_a_runtime_failure() {
        // Port 1 on loopback is essentially never listening.
        let e = run(&["submit", "--addr", "127.0.0.1:1", "--stats"]).unwrap_err();
        assert_eq!(e.code, 1, "connection failure is runtime, not usage");
        assert!(e.message.contains("cannot connect"), "{e}");
    }
}
