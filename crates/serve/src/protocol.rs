//! The `crn-serve` wire protocol: newline-delimited JSON, version 1.
//!
//! One request per line, one response line per request, over a plain TCP
//! stream. Every message carries `"v":1`; unknown versions are rejected
//! with a typed error instead of being guessed at.
//!
//! Requests (`cmd` selects):
//!
//! ```text
//! {"v":1,"cmd":"run","params":{"sus":60,"pus":12,"side":45,"pt":0.3,"seed":7,
//!   "interference":"exact"},"algo":"addc","check_invariants":false,"timeout_ms":30000}
//! {"v":1,"cmd":"sweep","params":{...},"algo":"addc","seeds":[1,2,3]}
//! {"v":1,"cmd":"sweep","params":{...},"seed_start":0,"seed_count":50}
//! {"v":1,"cmd":"sweep","params":{...},"axis":{"kind":"pt","values":[0.1,0.2,0.3]}}
//! {"v":1,"cmd":"status"}
//! {"v":1,"cmd":"stats"}
//! {"v":1,"cmd":"shutdown"}
//! ```
//!
//! Responses carry `"ok":true` plus payload, or `"ok":false` plus a typed
//! `error` object `{kind, code, message}` where `code` follows HTTP
//! conventions (`429` for admission-control rejection, `408` for a
//! deadline miss, `400` for malformed requests, `503` while draining).

use crate::ErrorKind;
use crn_core::{CollectionAlgorithm, CollectionOutcome, ScenarioParams};
use crn_interference::cutoff::FarFieldBound;
use crn_interference::PathLoss;
use crn_sim::{FaultsConfig, InterferenceModel};
use crn_workloads::faults_wire;
use crn_workloads::json::Json;
use crn_workloads::{Axis, AxisKind};
use std::fmt::Write as _;

/// The protocol version this build speaks.
pub const PROTOCOL_VERSION: u64 = 1;

/// Engine version folded into every cache key: bump(s) of the crate
/// version invalidate cached reports across deployments.
pub const ENGINE_VERSION: &str = env!("CARGO_PKG_VERSION");

/// Upper bound on seeds in one sweep request (keeps a single line from
/// scheduling unbounded work behind the admission controller's back).
pub const MAX_SWEEP_SEEDS: usize = 4096;

/// Upper bounds on the world one run may ask for, checked on
/// `params.sus`, `params.pus` and every `sus`/`pus` axis value. A world
/// too large to allocate aborts the process (allocation failure does not
/// unwind), so the bounds sit at parse time. They are the largest worlds
/// `bench_sim` builds: dense gain tables grow as n², and it stops
/// building them at 5,000 SUs (with n/5 PUs); sparse worlds it builds up
/// to 250,000 SUs. The paper preset's largest Fig. 6 points (2,660 SUs
/// in panel (b), 800 PUs in panel (a)) fit under the exact caps.
pub(crate) const MAX_EXACT_SUS: usize = 5_000;
/// PU bound under exact interference (see [`MAX_EXACT_SUS`]).
pub(crate) const MAX_EXACT_PUS: usize = 1_000;
/// SU bound under truncated interference (see [`MAX_EXACT_SUS`]).
pub(crate) const MAX_TRUNCATED_SUS: usize = 250_000;
/// PU bound under truncated interference (see [`MAX_EXACT_SUS`]).
pub(crate) const MAX_TRUNCATED_PUS: usize = 50_000;
/// Upper bound on `params.side`. The unit-disk graph's grid index
/// allocates ⌈side / r⌉² buckets, with r = 10 on the wire, so a side of
/// 10⁶ asks for 10¹⁰ bucket headers (about 240 GB), and that allocation
/// failure aborts the process like an oversized world (see
/// [`MAX_EXACT_SUS`]). 10,000 gives 10⁶ buckets (24 MB) and still admits
/// a 250,000-SU world at the paper preset's density (side ≈ 2,800).
pub(crate) const MAX_SIDE: f64 = 10_000.0;

/// Upper bound on the carrier-sensing entries a world is expected to hold
/// (see [`sense_entries`]), checked on `params` and on every point of an
/// axis that moves the SU count or the PCR. The SU and PU caps bound how
/// many nodes a world has, not how closely they pack: 250,000 SUs in the
/// default 70 × 70 area expect 2.4·10¹⁰ entries and exhaust memory while
/// building. The presets expect 10⁴–1.2·10⁵, the exact cap at side 70
/// 9.5·10⁶ and the largest sparse world the benchmarks build (250,000
/// SUs at side 2,800) 1.5·10⁷. A truncated grid world built and run
/// peaked at about 6 B per expected entry (3.6·10⁷ entries: 223 MB,
/// 6.3·10⁷: 444 MB, 1.8·10⁸: 1.1 GB), so this cap keeps one admitted
/// world's radio state near 300 MB.
pub(crate) const MAX_SENSE_ENTRIES: f64 = 5e7;

/// Upper bound on the near-field PU entries a truncated world is expected
/// to hold (see [`near_pu_entries`]), checked where [`MAX_SENSE_ENTRIES`]
/// is. The cutoffs grow as `epsilon^(-1/2)` at `alpha = 4`: on the
/// 5,000-SU grid the largest reads 64.6 at ε 0.1 and 203 at 10⁻², and
/// from 10⁻³ on every PU is in every row. The largest sparse world the
/// benchmarks build (250,000 SUs, 50,000 PUs, side 2,800, ε 0.1) expects
/// 8.5·10⁷ entries; the same world at ε 10⁻³ expects 8.6·10⁹. At 4 B per
/// stored id the cap holds one admitted world's rows to 400 MB.
pub(crate) const MAX_NEAR_PU_ENTRIES: f64 = 1e8;

/// How many deployments every run draws before it reports the world
/// disconnected. Fixed here, not taken from a request, so no client sets
/// the length of the connectivity retry loop.
pub(crate) const CONNECTIVITY_ATTEMPTS: usize = 3_000;

/// The keys of the wire `params` object, in the order [`spec_to_json`]
/// writes them. Each is also a `crn run` flag: `--KEY VALUE`, except that
/// `--faults` names a file holding the `faults` value and `--fault-preset`
/// gives it in the preset grammar.
pub const RUN_PARAMS: [&str; 7] = ["sus", "pus", "side", "pt", "seed", "interference", "faults"];

/// One simulation to execute: the full deterministic identity of a run.
#[derive(Clone, Debug, PartialEq)]
pub struct RunSpec {
    /// Scenario parameters (seed included).
    pub params: ScenarioParams,
    /// Collection algorithm.
    pub algorithm: CollectionAlgorithm,
    /// Whether to attach the live invariant oracle.
    pub check_invariants: bool,
    /// Testing aid: makes the worker panic instead of simulating, so the
    /// panic-isolation path is exercisable end-to-end. Part of the run's
    /// identity, so a plain run never shares its job; its failure is never
    /// cached.
    pub inject_panic: bool,
}

impl RunSpec {
    /// The content address of this run's result: the params key chained
    /// with algorithm, oracle flag, and engine version.
    ///
    /// Equals the FNV chain of [`RunSpec::topology_key`] and the radio
    /// half, so two specs with equal topology and radio keys share a
    /// cache entry.
    #[must_use]
    pub fn cache_key(&self) -> u64 {
        self.chain_run_identity(self.params.cache_key())
    }

    /// The deployment-structure half of the identity: equal keys mean the
    /// generated [`crn_core::Scenario`] topology can be shared between
    /// the runs (the server's topology-tier cache keys on this).
    #[must_use]
    pub fn topology_key(&self) -> u64 {
        self.params.topology_key()
    }

    /// The run half of the identity: the radio parameters chained with
    /// algorithm, oracle flag, and engine version. Together with
    /// [`RunSpec::topology_key`] this pins the full [`RunSpec::cache_key`].
    #[must_use]
    pub fn radio_key(&self) -> u64 {
        self.chain_run_identity(self.params.radio_key())
    }

    fn chain_run_identity(&self, mut h: u64) -> u64 {
        h = crn_core::fnv1a_64(h, self.algorithm.to_string().as_bytes());
        h = crn_core::fnv1a_64(h, &[u8::from(self.check_invariants)]);
        h = crn_core::fnv1a_64(h, ENGINE_VERSION.as_bytes());
        // Chained only when set, so every plain key (and with it every
        // stored file name and ring route) is unchanged.
        if self.inject_panic {
            h = crn_core::fnv1a_64(h, b"inject_panic");
        }
        h
    }

    /// The `crn run` line that reruns this simulation: `--algo`, one flag
    /// per [`RUN_PARAMS`] field and `--check-invariants`. A fault workload
    /// the preset grammar cannot spell (an explicit plan, or churn with a
    /// non-default downtime or horizon) becomes a `--faults` placeholder
    /// naming the plan file to write.
    #[must_use]
    pub fn repro(&self) -> String {
        let algo = self.algorithm.to_string().to_ascii_lowercase();
        let mut line = format!("crn run --algo {algo}");
        for (key, value) in params_fields(&self.params) {
            let _ = match (key, value) {
                ("faults", plan) => write!(line, " {}", faults_flag(&self.params.faults, &plan)),
                (_, Json::Str(s)) => write!(line, " --{key} {s}"),
                (_, v) => write!(line, " --{key} {v}"),
            };
        }
        if self.check_invariants {
            line.push_str(" --check-invariants");
        }
        line
    }
}

/// The `crn run` flag for a fault workload whose wire value is `plan`: the
/// preset when the preset grammar spells it exactly, else a `--faults`
/// placeholder naming the plan file to write.
fn faults_flag(faults: &FaultsConfig, plan: &Json) -> String {
    match faults {
        FaultsConfig::Plan(p) => format!("--faults <plan.json: {} events>", p.events().len()),
        _ if faults.to_string().parse().as_ref() == Ok(faults) => {
            format!("--fault-preset {faults}")
        }
        _ => format!("--faults <plan.json: {plan}>"),
    }
}

/// The `params` fields of a run in [`RUN_PARAMS`] order, `faults` left
/// out when there are none.
fn params_fields(p: &ScenarioParams) -> Vec<(&'static str, Json)> {
    let values = [
        Json::UInt(p.num_sus as u64),
        Json::UInt(p.num_pus as u64),
        Json::float(p.area_side),
        Json::float(p.activity.duty_cycle()),
        Json::UInt(p.seed),
        Json::Str(p.interference.to_string()),
        faults_wire::faults_config_to_json(&p.faults),
    ];
    RUN_PARAMS
        .into_iter()
        .zip(values)
        .filter(|(key, _)| *key != "faults" || !p.faults.is_none())
        .collect()
}

/// A parsed protocol request.
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    /// Execute (or serve from cache) one simulation.
    Run {
        /// What to run.
        spec: RunSpec,
        /// Per-request deadline in milliseconds, if any.
        timeout_ms: Option<u64>,
    },
    /// Execute a sweep: seeds crossed with an optional parameter axis.
    Sweep {
        /// Template spec; each point derives its own [`RunSpec`].
        spec: RunSpec,
        /// Seeds to run (the template's own seed when only an axis is
        /// given).
        seeds: Vec<u64>,
        /// Optional swept parameter: each seed runs once per value. A
        /// radio axis (anything but the node counts) keeps the deployment
        /// fixed, so the server re-customizes one cached topology per
        /// seed instead of regenerating the world per point.
        axis: Option<Axis>,
        /// Per-point deadline in milliseconds, if any.
        timeout_ms: Option<u64>,
        /// Stream each point as its own `{"v":1,"row":{...}}` line (in
        /// point order) instead of buffering one response; a final
        /// summary response line still follows the rows.
        stream: bool,
    },
    /// Liveness probe.
    Status,
    /// Full counter/histogram snapshot.
    Stats,
    /// Graceful shutdown: stop accepting, drain, exit.
    Shutdown,
}

/// A malformed or unacceptable request.
#[derive(Clone, Debug, PartialEq)]
pub struct ProtoError {
    /// Error class (drives the response `code`).
    pub kind: ErrorKind,
    /// Human-readable explanation.
    pub message: String,
}

impl ProtoError {
    fn bad(message: impl Into<String>) -> Self {
        Self {
            kind: ErrorKind::BadRequest,
            message: message.into(),
        }
    }
}

/// Parses one request line.
///
/// # Errors
///
/// Returns [`ProtoError`] for invalid JSON, a missing/unsupported
/// version, an unknown command, or malformed fields.
pub fn parse_request(line: &str) -> Result<Request, ProtoError> {
    let (v, cmd) = envelope(line)?;
    match cmd.as_str() {
        "status" => Ok(Request::Status),
        "stats" => Ok(Request::Stats),
        "shutdown" => Ok(Request::Shutdown),
        "run" => {
            let spec = admit(parse_spec(&v)?)?;
            Ok(Request::Run {
                spec,
                timeout_ms: opt_u64(&v, "timeout_ms")?,
            })
        }
        "sweep" => {
            let spec = admit(parse_spec(&v)?)?;
            let axis = parse_axis(&v)?;
            if let Some(axis) = &axis {
                check_axis_world(axis, &spec.params, spec.algorithm)?;
            }
            let seeds = parse_seeds(&v, axis.as_ref().map(|_| spec.params.seed))?;
            let points = seeds
                .len()
                .saturating_mul(axis.as_ref().map_or(1, |a| a.values.len()));
            if points > MAX_SWEEP_SEEDS {
                return Err(ProtoError::bad(format!(
                    "sweep of {points} points exceeds the per-request cap of {MAX_SWEEP_SEEDS}"
                )));
            }
            let stream = match v.get("stream") {
                None | Some(Json::Null) => false,
                Some(field) => field
                    .as_bool()
                    .ok_or_else(|| ProtoError::bad("'stream' must be a bool"))?,
            };
            Ok(Request::Sweep {
                spec,
                seeds,
                axis,
                timeout_ms: opt_u64(&v, "timeout_ms")?,
                stream,
            })
        }
        other => Err(ProtoError::bad(format!("unknown cmd '{other}'"))),
    }
}

/// Parses a line's JSON, checks its protocol version, and returns it with
/// its `cmd`: the envelope of requests and cluster messages alike.
fn envelope(line: &str) -> Result<(Json, String), ProtoError> {
    let v: Json = line.parse().map_err(|e| ProtoError::bad(format!("{e}")))?;
    let version = v
        .get("v")
        .and_then(Json::as_u64)
        .ok_or_else(|| ProtoError::bad("missing protocol version field 'v'"))?;
    if version != PROTOCOL_VERSION {
        return Err(ProtoError {
            kind: ErrorKind::UnsupportedVersion,
            message: format!(
                "unsupported protocol version {version} (this build speaks v{PROTOCOL_VERSION})"
            ),
        });
    }
    let cmd = v
        .get("cmd")
        .and_then(Json::as_str)
        .ok_or_else(|| ProtoError::bad("missing string field 'cmd'"))?
        .to_owned();
    Ok((v, cmd))
}

fn opt_u64(v: &Json, key: &str) -> Result<Option<u64>, ProtoError> {
    match v.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(field) => field.as_u64().map(Some).ok_or_else(|| {
            ProtoError::bad(format!("field '{key}' must be a non-negative integer"))
        }),
    }
}

fn parse_seeds(v: &Json, implied: Option<u64>) -> Result<Vec<u64>, ProtoError> {
    let seeds: Vec<u64> = if let Some(arr) = v.get("seeds") {
        arr.as_arr()
            .ok_or_else(|| ProtoError::bad("'seeds' must be an array"))?
            .iter()
            .map(|s| {
                s.as_u64()
                    .ok_or_else(|| ProtoError::bad("'seeds' entries must be non-negative integers"))
            })
            .collect::<Result<_, _>>()?
    } else if v.get("seed_start").is_some() || v.get("seed_count").is_some() {
        let start = opt_u64(v, "seed_start")?.unwrap_or(0);
        let count = opt_u64(v, "seed_count")?
            .ok_or_else(|| ProtoError::bad("'seed_start' needs a 'seed_count'"))?;
        // Cap before collecting: the range would otherwise be allocated
        // in full first.
        if count > MAX_SWEEP_SEEDS as u64 {
            return Err(seeds_over_cap(count));
        }
        (0..count).map(|k| start.wrapping_add(k)).collect()
    } else if let Some(seed) = implied {
        // An axis-only sweep runs every value at the template's seed.
        vec![seed]
    } else {
        return Err(ProtoError::bad(
            "sweep needs 'seeds', 'seed_start'/'seed_count', or an 'axis'",
        ));
    };
    if seeds.is_empty() {
        return Err(ProtoError::bad("sweep needs at least one seed"));
    }
    if seeds.len() > MAX_SWEEP_SEEDS {
        return Err(seeds_over_cap(seeds.len() as u64));
    }
    Ok(seeds)
}

fn seeds_over_cap(count: u64) -> ProtoError {
    ProtoError::bad(format!(
        "sweep of {count} seeds exceeds the per-request cap of {MAX_SWEEP_SEEDS}"
    ))
}

/// The service's admission bounds on a parsed spec: [`MAX_SIDE`] and the
/// world caps of [`check_world`]. They protect a long-lived process, so
/// request lines and cluster work meet them and `crn run` does not.
fn admit(spec: RunSpec) -> Result<RunSpec, ProtoError> {
    let p = &spec.params;
    if p.area_side > MAX_SIDE {
        return Err(ProtoError::bad(format!(
            "params.side {} exceeds the cap of {MAX_SIDE}",
            p.area_side
        )));
    }
    check_world(p.num_sus, p.num_pus, p.interference)?;
    check_density(p, spec.algorithm)?;
    Ok(spec)
}

/// The carrier-sensing entries `params` is expected to build: every SU
/// times the SUs inside one PCR disk at the world's density,
/// `(sus + 1)² · π · PCR² / side²`, with a disk wider than the area
/// holding every SU once. `None` where the PCR is undefined (an `alpha`
/// the paper's constant breaks down at): that point fails when it runs.
fn sense_entries(params: &ScenarioParams) -> Option<f64> {
    crn_interference::pcr::checked_c2(params.phy.alpha(), params.pcr_constants)?;
    let n = (params.num_sus + 1) as f64;
    let pcr = params.pcr();
    let share = std::f64::consts::PI * pcr * pcr / (params.area_side * params.area_side);
    Some(n * n * share.min(1.0))
}

/// The near-field PU entries a truncated `params` run by `algorithm` is
/// expected to build: every receiver slot (at most `sus + 1`) times the
/// PUs inside a disk of radius R̄ at the world's PU density,
/// `(sus + 1) · pus · min(1, π·R̄² / side²)`. R̄ is the cutoff the build's
/// own far-field bound gives a slot whose weakest link is as long as a
/// tree allows (the SU radius), the widest any slot gets. `None` under
/// exact interference and where the PCR is undefined (see
/// [`sense_entries`]).
fn near_pu_entries(params: &ScenarioParams, algorithm: CollectionAlgorithm) -> Option<f64> {
    let InterferenceModel::Truncated { epsilon } = params.interference else {
        return None;
    };
    let phy = &params.phy;
    crn_interference::pcr::checked_c2(phy.alpha(), params.pcr_constants)?;
    let sense = crn_core::su_sense_range(algorithm, params, params.pcr());
    let bound = FarFieldBound::normalized(phy.alpha(), sense);
    let weakest = PathLoss::new(phy.alpha()).gain(phy.su_radius());
    let budget = 0.5 * epsilon * weakest / phy.su_sir_threshold();
    // A disk of radius side/√π covers the whole area. Only a cutoff inside
    // it is searched for, so the search stays short however small epsilon
    // is (and never meets a budget that underflowed to zero).
    let side = params.area_side;
    let share = if bound.tail(side / std::f64::consts::PI.sqrt()) > budget {
        1.0
    } else {
        let r = bound.cutoff_radius(budget);
        (std::f64::consts::PI * r * r / (side * side)).min(1.0)
    };
    Some((params.num_sus + 1) as f64 * params.num_pus as f64 * share)
}

/// Rejects a world packed denser than [`MAX_SENSE_ENTRIES`] allows, and a
/// truncated one whose near-PU rows would pass [`MAX_NEAR_PU_ENTRIES`].
fn check_density(
    params: &ScenarioParams,
    algorithm: CollectionAlgorithm,
) -> Result<(), ProtoError> {
    let over = |entries: f64, cap: f64| entries.is_nan() || entries > cap;
    if let Some(entries) = sense_entries(params).filter(|&e| over(e, MAX_SENSE_ENTRIES)) {
        return Err(ProtoError::bad(format!(
            "{} sus in a side of {} expect {entries:.2e} carrier-sensing entries, over the \
             cap of {MAX_SENSE_ENTRIES:.0e}; widen params.side",
            params.num_sus, params.area_side
        )));
    }
    if let Some(entries) =
        near_pu_entries(params, algorithm).filter(|&e| over(e, MAX_NEAR_PU_ENTRIES))
    {
        return Err(ProtoError::bad(format!(
            "{} sus and {} pus in a side of {} under {} interference expect {entries:.2e} \
             near-field PU entries, over the cap of {MAX_NEAR_PU_ENTRIES:.0e}; raise the \
             truncation epsilon or widen params.side",
            params.num_sus, params.num_pus, params.area_side, params.interference
        )));
    }
    Ok(())
}

/// Rejects a world larger than the bounds for its interference model
/// ([`MAX_EXACT_SUS`] and its siblings).
fn check_world(sus: usize, pus: usize, model: InterferenceModel) -> Result<(), ProtoError> {
    let (max_sus, max_pus) = match model {
        InterferenceModel::Exact => (MAX_EXACT_SUS, MAX_EXACT_PUS),
        InterferenceModel::Truncated { .. } => (MAX_TRUNCATED_SUS, MAX_TRUNCATED_PUS),
    };
    for (what, count, max) in [("sus", sus, max_sus), ("pus", pus, max_pus)] {
        if count > max {
            return Err(ProtoError::bad(format!(
                "{count} {what} exceeds the cap of {max} under {model} interference"
            )));
        }
    }
    Ok(())
}

/// [`check_world`] and [`check_density`] for every point of an axis that
/// moves the node counts or, through the PHY, the PCR or the truncation
/// cutoffs; each point is checked with its own parameters.
fn check_axis_world(
    axis: &Axis,
    params: &ScenarioParams,
    algorithm: CollectionAlgorithm,
) -> Result<(), ProtoError> {
    if matches!(axis.kind, AxisKind::Pt | AxisKind::ChurnRate) {
        return Ok(());
    }
    for &x in &axis.values {
        // A value invalid for its axis fails its own point when it runs.
        let Ok(point) = axis.try_apply(params, x) else {
            continue;
        };
        check_world(point.num_sus, point.num_pus, point.interference)?;
        check_density(&point, algorithm)?;
    }
    Ok(())
}

/// Parses the optional sweep `axis` object:
/// `{"kind":"su_power","values":[10,15,20]}`.
fn parse_axis(v: &Json) -> Result<Option<Axis>, ProtoError> {
    let axis = match v.get("axis") {
        None | Some(Json::Null) => return Ok(None),
        Some(obj @ Json::Obj(_)) => obj,
        Some(_) => return Err(ProtoError::bad("'axis' must be an object")),
    };
    let kind = match axis.get("kind").and_then(Json::as_str) {
        None => return Err(ProtoError::bad("axis.kind must be a string")),
        Some("pus") => AxisKind::NumPus,
        Some("sus") => AxisKind::NumSus,
        Some("pt") => AxisKind::Pt,
        Some("alpha") => AxisKind::Alpha,
        Some("pu_power") => AxisKind::PuPower,
        Some("su_power") => AxisKind::SuPower,
        Some("churn") => AxisKind::ChurnRate,
        Some(other) => {
            return Err(ProtoError::bad(format!(
                "unknown axis.kind '{other}' \
                 (expected pus|sus|pt|alpha|pu_power|su_power|churn)"
            )))
        }
    };
    let values: Vec<f64> = axis
        .get("values")
        .ok_or_else(|| ProtoError::bad("axis needs a 'values' array"))?
        .as_arr()
        .ok_or_else(|| ProtoError::bad("axis.values must be an array"))?
        .iter()
        .map(|x| {
            x.as_f64()
                .filter(|x| x.is_finite())
                .ok_or_else(|| ProtoError::bad("axis.values entries must be finite numbers"))
        })
        .collect::<Result<_, _>>()?;
    if values.is_empty() {
        return Err(ProtoError::bad("axis needs at least one value"));
    }
    Ok(Some(Axis::new(kind, values)))
}

/// Parses one run: the `params` object ([`RUN_PARAMS`], with the defaults
/// of `crn run`) and the top-level `algo`, `check_invariants` and
/// `inject_panic`. Request lines, cluster work and the `crn` command's run
/// flags all arrive here. It checks that the fields describe a run; the
/// service's size bounds are applied after it, at admission.
///
/// # Errors
///
/// Returns a `bad_request` [`ProtoError`] for an unknown `params` key or a
/// malformed or out-of-domain field.
pub fn parse_spec(v: &Json) -> Result<RunSpec, ProtoError> {
    let empty = Json::obj();
    let p = match v.get("params") {
        None => &empty,
        Some(obj @ Json::Obj(pairs)) => {
            if let Some((key, _)) = pairs
                .iter()
                .find(|(k, _)| !RUN_PARAMS.contains(&k.as_str()))
            {
                return Err(ProtoError::bad(format!("unknown params field '{key}'")));
            }
            obj
        }
        Some(_) => return Err(ProtoError::bad("'params' must be an object")),
    };
    let uint = |key: &str, default: u64| -> Result<u64, ProtoError> {
        match p.get(key) {
            None => Ok(default),
            Some(field) => field.as_u64().ok_or_else(|| {
                ProtoError::bad(format!("params.{key} must be a non-negative integer"))
            }),
        }
    };
    let float = |key: &str, default: f64| -> Result<f64, ProtoError> {
        match p.get(key) {
            None => Ok(default),
            Some(field) => field
                .as_f64()
                .filter(|x| x.is_finite())
                .ok_or_else(|| ProtoError::bad(format!("params.{key} must be a finite number"))),
        }
    };
    let sus = usize::try_from(uint("sus", 150)?)
        .map_err(|_| ProtoError::bad("params.sus out of range"))?;
    let pus = usize::try_from(uint("pus", 16)?)
        .map_err(|_| ProtoError::bad("params.pus out of range"))?;
    let side = float("side", 70.0)?;
    let p_t = float("pt", 0.3)?;
    if !(0.0..=1.0).contains(&p_t) {
        return Err(ProtoError::bad(format!(
            "params.pt must be a probability, got {p_t}"
        )));
    }
    if side <= 0.0 {
        return Err(ProtoError::bad(format!(
            "params.side must be positive, got {side}"
        )));
    }
    let seed = uint("seed", 0)?;
    let interference: InterferenceModel = match p.get("interference") {
        None => InterferenceModel::Exact,
        Some(field) => field
            .as_str()
            .ok_or_else(|| ProtoError::bad("params.interference must be a string"))?
            .parse()
            .map_err(|e| ProtoError::bad(format!("params.interference: {e}")))?,
    };
    if let Some(epsilon) = interference.epsilon() {
        if !(epsilon > 0.0 && epsilon < 1.0) {
            return Err(ProtoError::bad(format!(
                "truncation epsilon must lie in (0, 1), got {epsilon}"
            )));
        }
    }
    // Faults travel either as a preset string ("none", "churn:RATE") or
    // as the structured wire shapes ({"churn":{...}}, {"events":[...]}).
    let faults = match p.get("faults") {
        None => FaultsConfig::None,
        Some(field) => faults_wire::faults_config_from_json(field)
            .map_err(|e| ProtoError::bad(format!("params.faults: {e}")))?,
    };
    let algorithm: CollectionAlgorithm = match v.get("algo") {
        None => CollectionAlgorithm::Addc,
        Some(field) => field
            .as_str()
            .ok_or_else(|| ProtoError::bad("'algo' must be a string"))?
            .parse()
            .map_err(|e: String| ProtoError::bad(e))?,
    };
    let check_invariants = match v.get("check_invariants") {
        None => false,
        Some(field) => field
            .as_bool()
            .ok_or_else(|| ProtoError::bad("'check_invariants' must be a bool"))?,
    };
    let inject_panic = v
        .get("inject_panic")
        .and_then(Json::as_bool)
        .unwrap_or(false);
    let params = ScenarioParams::builder()
        .num_sus(sus)
        .num_pus(pus)
        .area_side(side)
        .p_t(p_t)
        .seed(seed)
        .interference(interference)
        .max_connectivity_attempts(CONNECTIVITY_ATTEMPTS)
        .faults(faults)
        .build();
    Ok(RunSpec {
        params,
        algorithm,
        check_invariants,
        inject_panic,
    })
}

/// Serializes one completed run as the response payload fields.
///
/// The per-node arrays (`delivery_times`, `node_stats`) are summarized,
/// not shipped — a 2000-SU report would otherwise dwarf every other
/// message on the wire; clients that need event-level detail run
/// `crn trace` locally.
#[must_use]
pub fn report_json(outcome: &CollectionOutcome) -> Json {
    let r = &outcome.report;
    let mut o = Json::obj();
    o.set("algorithm", Json::Str(outcome.algorithm.to_string()))
        .set("finished", Json::Bool(r.finished))
        .set("delay", Json::float(r.delay))
        .set("delay_slots", Json::float(r.delay_slots))
        .set("packets_expected", Json::UInt(r.packets_expected as u64))
        .set("packets_delivered", Json::UInt(r.packets_delivered as u64))
        .set("attempts", Json::UInt(r.attempts))
        .set("successes", Json::UInt(r.successes))
        .set("pu_aborts", Json::UInt(r.pu_aborts))
        .set("sir_failures", Json::UInt(r.sir_failures))
        .set("capture_losses", Json::UInt(r.capture_losses))
        .set("delivery_ratio", Json::float(r.delivery_ratio()))
        .set("packets_lost", Json::UInt(r.packets_lost))
        .set("fault_aborts", Json::UInt(r.fault_aborts))
        .set("reparents", Json::UInt(u64::from(r.reparents)))
        .set("peak_queue", Json::UInt(r.peak_queue as u64))
        .set("mean_service_time", Json::float(r.mean_service_time))
        .set("max_service_time", Json::float(r.max_service_time))
        .set("events_processed", Json::UInt(r.events_processed))
        .set("capacity_fraction", Json::float(r.capacity_fraction()))
        .set("jain", r.jain_fairness().map_or(Json::Null, Json::float))
        .set("tree_kind", Json::Str(format!("{:?}", outcome.tree_kind)))
        .set("tree_height", Json::UInt(u64::from(outcome.tree_height)))
        .set(
            "tree_max_degree",
            Json::UInt(outcome.tree_max_degree as u64),
        );
    o
}

/// Starts a versioned response object.
#[must_use]
pub fn response_base(ok: bool) -> Json {
    let mut o = Json::obj();
    o.set("v", Json::UInt(PROTOCOL_VERSION))
        .set("ok", Json::Bool(ok));
    o
}

/// A complete error response line (without trailing newline).
#[must_use]
pub fn error_response(kind: ErrorKind, message: &str) -> Json {
    let mut e = Json::obj();
    e.set("kind", Json::Str(kind.as_str().into()))
        .set("code", Json::UInt(kind.code()))
        .set("message", Json::Str(message.into()));
    let mut o = response_base(false);
    o.set("error", e);
    o
}

/// Serializes a [`RunSpec`] back into the request vocabulary, such that
/// [`parse_request`] on a `run` carrying these fields yields an equal
/// spec (the round trip is property-tested below). This is how a
/// coordinator ships work to cluster workers: the spec crosses the wire
/// in the same shape a client would have sent, so there is exactly one
/// parser on the receiving end.
#[must_use]
pub fn spec_to_json(spec: &RunSpec) -> Json {
    let params = params_fields(&spec.params)
        .into_iter()
        .map(|(key, value)| (key.to_owned(), value))
        .collect();
    let mut o = Json::obj();
    o.set("params", Json::Obj(params))
        .set("algo", Json::Str(spec.algorithm.to_string()))
        .set("check_invariants", Json::Bool(spec.check_invariants))
        .set("inject_panic", Json::Bool(spec.inject_panic));
    o
}

/// One internal cluster message: the coordinator↔worker vocabulary that
/// rides the same JSON-lines transport as the public protocol.
///
/// A worker dials the coordinator's public port and sends `join`; from
/// then on that connection is the worker channel — the coordinator pushes
/// `work` down it and the worker answers with `result`. Result payloads
/// use the full-fidelity [`crate::outcome_codec`] (not the summarized
/// [`report_json`]), because the coordinator re-serves them as if it had
/// computed them itself — bit-identical or nothing.
#[derive(Clone, Debug)]
pub enum ClusterMsg {
    /// A worker announcing itself on a fresh connection.
    Join {
        /// Operator-visible worker name (per-worker stats rows key on it).
        worker: String,
    },
    /// One simulation for the worker to run.
    Work {
        /// Coordinator-assigned job id; echoed in the result.
        id: u64,
        /// What to run.
        spec: RunSpec,
    },
    /// The worker's answer to a `work` message.
    Result {
        /// The `work` id this answers.
        id: u64,
        /// The outcome, or a typed failure.
        result: Result<CollectionOutcome, (ErrorKind, String)>,
    },
}

impl ClusterMsg {
    /// Serializes the message as one line-ready JSON object.
    ///
    /// # Panics
    ///
    /// Panics if a result outcome carries a non-finite float (cannot
    /// happen for outcomes produced by the engine; see
    /// [`crate::outcome_codec::outcome_to_json`]).
    #[must_use]
    pub fn encode(&self) -> Json {
        let mut o = Json::obj();
        o.set("v", Json::UInt(PROTOCOL_VERSION));
        match self {
            ClusterMsg::Join { worker } => {
                o.set("cmd", Json::Str("join".into()))
                    .set("worker", Json::Str(worker.clone()));
            }
            ClusterMsg::Work { id, spec } => {
                o.set("cmd", Json::Str("work".into()))
                    .set("id", Json::UInt(*id))
                    .set("spec", spec_to_json(spec));
            }
            ClusterMsg::Result { id, result } => {
                o.set("cmd", Json::Str("result".into()))
                    .set("id", Json::UInt(*id));
                match result {
                    Ok(outcome) => {
                        o.set("ok", Json::Bool(true)).set(
                            "outcome",
                            crate::outcome_codec::outcome_to_json(outcome)
                                .expect("engine outcomes have finite floats"),
                        );
                    }
                    Err((kind, message)) => {
                        let mut e = Json::obj();
                        e.set("kind", Json::Str(kind.as_str().into()))
                            .set("message", Json::Str(message.clone()));
                        o.set("ok", Json::Bool(false)).set("error", e);
                    }
                }
            }
        }
        o
    }

    /// Parses one internal message line. Lines whose `cmd` is not a
    /// cluster command fail with a `bad_request` — callers on a mixed
    /// listener try this first and fall back to [`parse_request`].
    ///
    /// # Errors
    ///
    /// Returns [`ProtoError`] for invalid JSON, a missing/unsupported
    /// version, a non-cluster command, or malformed fields.
    pub fn parse(line: &str) -> Result<ClusterMsg, ProtoError> {
        let (v, cmd) = envelope(line)?;
        match cmd.as_str() {
            "join" => {
                let worker = v
                    .get("worker")
                    .and_then(Json::as_str)
                    .ok_or_else(|| ProtoError::bad("join needs a string 'worker' name"))?;
                Ok(ClusterMsg::Join {
                    worker: worker.to_owned(),
                })
            }
            "work" => {
                let id = v
                    .get("id")
                    .and_then(Json::as_u64)
                    .ok_or_else(|| ProtoError::bad("work needs an integer 'id'"))?;
                let spec_obj = v
                    .get("spec")
                    .ok_or_else(|| ProtoError::bad("work needs a 'spec' object"))?;
                let spec = admit(parse_spec(spec_obj)?)?;
                Ok(ClusterMsg::Work { id, spec })
            }
            "result" => {
                let id = v
                    .get("id")
                    .and_then(Json::as_u64)
                    .ok_or_else(|| ProtoError::bad("result needs an integer 'id'"))?;
                let ok = v
                    .get("ok")
                    .and_then(Json::as_bool)
                    .ok_or_else(|| ProtoError::bad("result needs a bool 'ok'"))?;
                let result = if ok {
                    let outcome = v
                        .get("outcome")
                        .ok_or_else(|| ProtoError::bad("ok result needs an 'outcome'"))?;
                    Ok(crate::outcome_codec::outcome_from_json(outcome)
                        .map_err(|e| ProtoError::bad(e.to_string()))?)
                } else {
                    let e = v
                        .get("error")
                        .ok_or_else(|| ProtoError::bad("failed result needs an 'error'"))?;
                    let kind = e
                        .get("kind")
                        .and_then(Json::as_str)
                        .ok_or_else(|| ProtoError::bad("error needs a string 'kind'"))?
                        .parse::<ErrorKind>()
                        .map_err(ProtoError::bad)?;
                    let message = e
                        .get("message")
                        .and_then(Json::as_str)
                        .unwrap_or("")
                        .to_owned();
                    Err((kind, message))
                };
                Ok(ClusterMsg::Result { id, result })
            }
            other => Err(ProtoError::bad(format!(
                "not a cluster message: cmd '{other}'"
            ))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn minimal_run_request_uses_cli_defaults() {
        let req = parse_request(r#"{"v":1,"cmd":"run"}"#).unwrap();
        let Request::Run { spec, timeout_ms } = req else {
            panic!("not a run");
        };
        assert_eq!(spec.params.num_sus, 150);
        assert_eq!(spec.params.num_pus, 16);
        assert_eq!(spec.params.area_side, 70.0);
        assert_eq!(spec.params.seed, 0);
        assert_eq!(spec.algorithm, CollectionAlgorithm::Addc);
        assert!(!spec.check_invariants);
        assert_eq!(timeout_ms, None);
    }

    #[test]
    fn full_run_request_parses() {
        let req = parse_request(
            r#"{"v":1,"cmd":"run","params":{"sus":60,"pus":12,"side":45.0,"pt":0.4,"seed":7,
                "interference":"truncated:0.1"},"algo":"coolest","check_invariants":true,
                "timeout_ms":2500}"#,
        )
        .unwrap();
        let Request::Run { spec, timeout_ms } = req else {
            panic!("not a run");
        };
        assert_eq!(spec.params.num_sus, 60);
        assert_eq!(spec.params.seed, 7);
        assert_eq!(spec.params.activity.duty_cycle(), 0.4);
        assert_eq!(
            spec.params.interference,
            InterferenceModel::Truncated { epsilon: 0.1 }
        );
        assert_eq!(spec.algorithm, CollectionAlgorithm::Coolest);
        assert!(spec.check_invariants);
        assert_eq!(timeout_ms, Some(2500));
    }

    #[test]
    fn unknown_version_rejected_cleanly() {
        let e = parse_request(r#"{"v":2,"cmd":"run"}"#).unwrap_err();
        assert_eq!(e.kind, ErrorKind::UnsupportedVersion);
        assert!(e.message.contains("v1"), "{}", e.message);
        let e = parse_request(r#"{"cmd":"run"}"#).unwrap_err();
        assert_eq!(e.kind, ErrorKind::BadRequest);
    }

    #[test]
    fn malformed_requests_are_typed_errors() {
        for bad in [
            "not json",
            r#"{"v":1}"#,
            r#"{"v":1,"cmd":"frobnicate"}"#,
            r#"{"v":1,"cmd":"run","params":{"sus":-3}}"#,
            r#"{"v":1,"cmd":"run","params":{"pt":1.5}}"#,
            r#"{"v":1,"cmd":"run","params":{"bogus":1}}"#,
            r#"{"v":1,"cmd":"run","params":7}"#,
            r#"{"v":1,"cmd":"run","algo":"magic"}"#,
            r#"{"v":1,"cmd":"run","params":{"interference":"psychic"}}"#,
            r#"{"v":1,"cmd":"run","timeout_ms":-1}"#,
            r#"{"v":1,"cmd":"sweep"}"#,
            r#"{"v":1,"cmd":"sweep","seeds":[]}"#,
            r#"{"v":1,"cmd":"sweep","seeds":"x"}"#,
        ] {
            let e = parse_request(bad).unwrap_err();
            assert_eq!(e.kind, ErrorKind::BadRequest, "{bad} → {}", e.message);
        }
    }

    #[test]
    fn sweep_seeds_forms() {
        let explicit = parse_request(r#"{"v":1,"cmd":"sweep","seeds":[3,1,4]}"#).unwrap();
        let Request::Sweep { seeds, .. } = explicit else {
            panic!("not a sweep");
        };
        assert_eq!(seeds, vec![3, 1, 4]);
        let range =
            parse_request(r#"{"v":1,"cmd":"sweep","seed_start":10,"seed_count":3}"#).unwrap();
        let Request::Sweep { seeds, .. } = range else {
            panic!("not a sweep");
        };
        assert_eq!(seeds, vec![10, 11, 12]);
        let e = parse_request(r#"{"v":1,"cmd":"sweep","seed_count":99999}"#).unwrap_err();
        assert!(e.message.contains("cap"), "{}", e.message);
    }

    #[test]
    fn huge_seed_counts_are_rejected_before_allocating() {
        // A count this large would need terabytes if collected first.
        let e = parse_request(
            r#"{"v":1,"cmd":"sweep","params":{"sus":40},"seed_count":1000000000000}"#,
        )
        .unwrap_err();
        assert_eq!(e.kind, ErrorKind::BadRequest);
        assert!(e.message.contains("cap"), "{}", e.message);
        let e = parse_request(&format!(
            r#"{{"v":1,"cmd":"sweep","seed_start":5,"seed_count":{}}}"#,
            u64::MAX
        ))
        .unwrap_err();
        assert!(e.message.contains("cap"), "{}", e.message);
        // The cap itself is accepted.
        let ok = parse_request(&format!(
            r#"{{"v":1,"cmd":"sweep","seed_count":{MAX_SWEEP_SEEDS}}}"#
        ));
        assert!(ok.is_ok(), "{ok:?}");
    }

    #[test]
    fn world_sizes_are_capped_per_interference_model() {
        let run = |params: &str| {
            parse_request(&format!(r#"{{"v":1,"cmd":"run","params":{{{params}}}}}"#))
        };
        for bad in [
            r#""sus":100000000000,"pus":1"#,
            r#""sus":5001"#,
            r#""pus":1001"#,
            r#""sus":250001,"interference":"truncated:0.1""#,
            r#""pus":50001,"interference":"truncated:0.1""#,
            r#""side":1e6"#,
            r#""side":10000.5,"sus":40"#,
        ] {
            let e = run(bad).unwrap_err();
            assert_eq!(e.kind, ErrorKind::BadRequest, "{bad}");
            assert!(e.message.contains("cap"), "{bad} → {}", e.message);
        }
        // The paper preset's largest Fig. 6 points and the largest sparse
        // world the benchmarks build are accepted.
        for good in [
            r#""sus":2660,"pus":400"#,
            r#""sus":2000,"pus":800"#,
            r#""sus":5000,"pus":1000"#,
            r#""sus":250000,"pus":50000,"side":2800,"interference":"truncated:0.1""#,
            r#""side":10000"#,
        ] {
            assert!(run(good).is_ok(), "{good}");
        }
        // Node-count axes are checked point by point; other axes are not
        // node counts.
        let sweep = |axis: &str| {
            parse_request(&format!(
                r#"{{"v":1,"cmd":"sweep","params":{{"seed":1}},"axis":{axis}}}"#
            ))
        };
        let e = sweep(r#"{"kind":"sus","values":[100,1e11]}"#).unwrap_err();
        assert!(e.message.contains("cap"), "{}", e.message);
        let e = sweep(r#"{"kind":"pus","values":[20000]}"#).unwrap_err();
        assert!(e.message.contains("cap"), "{}", e.message);
        assert!(sweep(r#"{"kind":"sus","values":[1340,2660]}"#).is_ok());
        assert!(sweep(r#"{"kind":"su_power","values":[1e11]}"#).is_ok());
    }

    #[test]
    fn densely_packed_worlds_are_rejected_at_admission() {
        let run = |params: &str| {
            parse_request(&format!(r#"{{"v":1,"cmd":"run","params":{{{params}}}}}"#))
        };
        // Under the truncated counts cap, but packed into the default
        // 70 × 70 area: 2.4·10¹⁰ expected entries.
        let e = run(r#""sus":250000,"interference":"truncated:0.1""#).unwrap_err();
        assert_eq!(e.kind, ErrorKind::BadRequest);
        assert!(
            e.message.contains("carrier-sensing entries"),
            "{}",
            e.message
        );
        // Spread over side 2,800 the same world is admitted.
        assert!(run(r#""sus":250000,"side":2800,"interference":"truncated:0.1""#).is_ok());
        let sweep = |params: &str, axis: &str| {
            parse_request(&format!(
                r#"{{"v":1,"cmd":"sweep","params":{{{params}}},"axis":{axis}}}"#
            ))
        };
        // A PCR disk wider than the area holds each SU once: an enormous
        // SU power does not reject a small world.
        assert!(sweep(r#""seed":1"#, r#"{"kind":"su_power","values":[1e11]}"#).is_ok());
        // The paper's PCR is undefined at alpha 5; that point fails when it
        // runs, not at admission.
        assert!(sweep(r#""seed":1"#, r#"{"kind":"alpha","values":[3,5]}"#).is_ok());
        let e = sweep(
            r#""sus":200000,"side":2800,"interference":"truncated:0.1""#,
            r#"{"kind":"alpha","values":[2.1]}"#,
        )
        .unwrap_err();
        assert!(
            e.message.contains("carrier-sensing entries"),
            "{}",
            e.message
        );
        // Every point of an axis is checked with its own count and PHY.
        let sparse = r#""interference":"truncated:0.1","side":1000"#;
        let e = sweep(sparse, r#"{"kind":"sus","values":[1000,200000]}"#).unwrap_err();
        assert!(
            e.message.contains("carrier-sensing entries"),
            "{}",
            e.message
        );
        let dense = r#""sus":100000,"interference":"truncated:0.1","side":1000"#;
        assert!(sweep(dense, r#"{"kind":"su_power","values":[10]}"#).is_ok());
        let e = sweep(dense, r#"{"kind":"su_power","values":[10,1e4]}"#).unwrap_err();
        assert!(
            e.message.contains("carrier-sensing entries"),
            "{}",
            e.message
        );
    }

    #[test]
    fn near_pu_rows_are_capped_at_admission() {
        let run = |params: &str| {
            parse_request(&format!(r#"{{"v":1,"cmd":"run","params":{{{params}}}}}"#))
        };
        let near_pus = |e: ProtoError| {
            assert_eq!(e.kind, ErrorKind::BadRequest);
            assert!(e.message.contains("near-field PU entries"), "{}", e.message);
        };
        let world = r#""sus":250000,"pus":50000,"side":2800"#;
        // Expected entries scale as 1/ε at alpha 4: 8.5·10⁷ at ε 0.1, so
        // ε 0.09 sits under the cap and ε 0.08 over it.
        for eps in ["0.1", "0.09"] {
            let ok = run(&format!(r#"{world},"interference":"truncated:{eps}""#));
            assert!(ok.is_ok(), "ε {eps}: {ok:?}");
        }
        for eps in ["0.08", "0.001", "1e-300"] {
            near_pus(run(&format!(r#"{world},"interference":"truncated:{eps}""#)).unwrap_err());
        }
        // The Coolest baseline senses SUs over r, not the PCR: its looser
        // far-field bound widens every cutoff, so the same world is refused.
        let coolest = format!(
            r#"{{"v":1,"cmd":"run","params":{{{world},"interference":"truncated:0.1"}},
                "algo":"coolest"}}"#
        );
        near_pus(parse_request(&coolest).unwrap_err());
        // Exact worlds hold no near-PU rows.
        assert!(run(r#""sus":5000,"pus":1000,"side":2800"#).is_ok());
        let sweep = |params: &str, axis: &str| {
            parse_request(&format!(
                r#"{{"v":1,"cmd":"sweep","params":{{{params}}},"axis":{axis}}}"#
            ))
        };
        // Every point of an axis that moves the counts or alpha is checked.
        let truncated = format!(r#"{world},"interference":"truncated:0.1""#);
        assert!(sweep(&truncated, r#"{"kind":"pus","values":[1000,50000]}"#).is_ok());
        let e = sweep(&truncated, r#"{"kind":"alpha","values":[4,3]}"#).unwrap_err();
        near_pus(e);
        let sparse = r#""sus":250000,"pus":5000,"side":2800,"interference":"truncated:0.01""#;
        assert!(sweep(sparse, r#"{"kind":"pus","values":[5000]}"#).is_ok());
        near_pus(sweep(sparse, r#"{"kind":"pus","values":[5000,50000]}"#).unwrap_err());
        // The axes move one power at a time, so even an extreme one leaves
        // the PCR, the bound's separation, finite.
        for axis in [
            r#"{"kind":"pu_power","values":[1e300]}"#,
            r#"{"kind":"su_power","values":[1e-300,1e300]}"#,
        ] {
            let got = sweep(r#""interference":"truncated:0.1""#, axis);
            assert!(got.is_ok(), "{axis}: {got:?}");
        }
    }

    #[test]
    fn sweep_axis_parses_and_defaults_to_the_template_seed() {
        let req = parse_request(
            r#"{"v":1,"cmd":"sweep","params":{"seed":9},
                "axis":{"kind":"su_power","values":[10.0,15.0,20.0]}}"#,
        )
        .unwrap();
        let Request::Sweep { seeds, axis, .. } = req else {
            panic!("not a sweep");
        };
        assert_eq!(seeds, vec![9], "axis-only sweep runs at the template seed");
        let axis = axis.expect("axis present");
        assert_eq!(axis.kind, AxisKind::SuPower);
        assert_eq!(axis.values, vec![10.0, 15.0, 20.0]);

        // Axis crossed with explicit seeds keeps both.
        let req = parse_request(
            r#"{"v":1,"cmd":"sweep","seeds":[1,2],"axis":{"kind":"pt","values":[0.2,0.4]}}"#,
        )
        .unwrap();
        let Request::Sweep { seeds, axis, .. } = req else {
            panic!("not a sweep");
        };
        assert_eq!(seeds, vec![1, 2]);
        assert_eq!(axis.unwrap().kind, AxisKind::Pt);
    }

    #[test]
    fn malformed_axes_are_typed_errors() {
        for bad in [
            r#"{"v":1,"cmd":"sweep","axis":7}"#,
            r#"{"v":1,"cmd":"sweep","axis":{"values":[1.0]}}"#,
            r#"{"v":1,"cmd":"sweep","axis":{"kind":"frequency","values":[1.0]}}"#,
            r#"{"v":1,"cmd":"sweep","axis":{"kind":"pt"}}"#,
            r#"{"v":1,"cmd":"sweep","axis":{"kind":"pt","values":[]}}"#,
            r#"{"v":1,"cmd":"sweep","axis":{"kind":"pt","values":["x"]}}"#,
        ] {
            let e = parse_request(bad).unwrap_err();
            assert_eq!(e.kind, ErrorKind::BadRequest, "{bad} → {}", e.message);
            assert!(e.message.contains("axis"), "{bad} → {}", e.message);
        }
        // The point cap counts seeds × values, not just seeds.
        let values: Vec<String> = (0..100).map(|i| format!("{}.0", i + 1)).collect();
        let line = format!(
            r#"{{"v":1,"cmd":"sweep","seed_start":0,"seed_count":100,
                "axis":{{"kind":"su_power","values":[{}]}}}}"#,
            values.join(",")
        );
        let e = parse_request(&line).unwrap_err();
        assert!(e.message.contains("cap"), "{}", e.message);
    }

    #[test]
    fn radio_changes_preserve_the_topology_key() {
        let spec = |pt: f64, algo: &str| {
            let Request::Run { spec, .. } = parse_request(&format!(
                r#"{{"v":1,"cmd":"run","params":{{"pt":{pt}}},"algo":"{algo}"}}"#
            ))
            .unwrap() else {
                panic!()
            };
            spec
        };
        let a = spec(0.2, "addc");
        let b = spec(0.5, "addc");
        let c = spec(0.2, "coolest");
        // Activity and algorithm are radio-side: same deployment…
        assert_eq!(a.topology_key(), b.topology_key());
        assert_eq!(a.topology_key(), c.topology_key());
        // …different runs.
        assert_ne!(a.radio_key(), b.radio_key());
        assert_ne!(a.radio_key(), c.radio_key());
        assert_ne!(a.cache_key(), b.cache_key());
        // Equal key pairs pin the full cache identity.
        assert_eq!(a.radio_key(), spec(0.2, "addc").radio_key());
        assert_eq!(a.cache_key(), spec(0.2, "addc").cache_key());
        // A deployment change flips the topology side.
        let Request::Run { spec: d, .. } =
            parse_request(r#"{"v":1,"cmd":"run","params":{"sus":99}}"#).unwrap()
        else {
            panic!()
        };
        assert_ne!(a.topology_key(), d.topology_key());
    }

    #[test]
    fn control_commands_parse() {
        assert_eq!(
            parse_request(r#"{"v":1,"cmd":"status"}"#).unwrap(),
            Request::Status
        );
        assert_eq!(
            parse_request(r#"{"v":1,"cmd":"stats"}"#).unwrap(),
            Request::Stats
        );
        assert_eq!(
            parse_request(r#"{"v":1,"cmd":"shutdown"}"#).unwrap(),
            Request::Shutdown
        );
    }

    #[test]
    fn shards_parse_but_never_touch_the_cache_key() {
        // Older clients may still send the retired "shards" key; unknown
        // top-level keys are ignored, so it parses to the plain spec.
        let spec = |line: &str| {
            let Request::Run { spec, .. } = parse_request(line).unwrap() else {
                panic!()
            };
            spec
        };
        let plain = spec(r#"{"v":1,"cmd":"run","params":{"seed":7}}"#);
        let sharded = spec(r#"{"v":1,"cmd":"run","params":{"seed":7},"shards":2}"#);
        assert_eq!(plain, sharded);
        assert_eq!(plain.cache_key(), sharded.cache_key());
    }

    #[test]
    fn cache_key_separates_algorithm_and_oracle() {
        let spec = |algo: CollectionAlgorithm, check: bool| {
            let Request::Run { spec, .. } = parse_request(&format!(
                r#"{{"v":1,"cmd":"run","algo":"{}","check_invariants":{check}}}"#,
                match algo {
                    CollectionAlgorithm::Addc => "addc",
                    _ => "coolest",
                }
            ))
            .unwrap() else {
                panic!()
            };
            spec
        };
        let a = spec(CollectionAlgorithm::Addc, false).cache_key();
        let b = spec(CollectionAlgorithm::Coolest, false).cache_key();
        let c = spec(CollectionAlgorithm::Addc, true).cache_key();
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_eq!(a, spec(CollectionAlgorithm::Addc, false).cache_key());
    }

    #[test]
    fn repro_string_is_a_cli_line() {
        let Request::Run { spec, .. } =
            parse_request(r#"{"v":1,"cmd":"run","params":{"sus":60,"seed":9}}"#).unwrap()
        else {
            panic!()
        };
        let repro = spec.repro();
        assert!(repro.starts_with("crn run"), "{repro}");
        assert!(repro.contains("--seed 9"), "{repro}");
        assert!(repro.contains("--sus 60"), "{repro}");
    }

    #[test]
    fn faults_field_parses_presets_plans_and_churn_objects() {
        let run = |line: &str| {
            let Request::Run { spec, .. } = parse_request(line).unwrap() else {
                panic!("not a run: {line}");
            };
            spec
        };
        // Absent → inert default.
        assert!(run(r#"{"v":1,"cmd":"run"}"#).params.faults.is_none());
        // Preset string, same grammar as the CLI.
        let spec = run(r#"{"v":1,"cmd":"run","params":{"faults":"churn:4"}}"#);
        let FaultsConfig::Churn(c) = &spec.params.faults else {
            panic!("expected churn: {:?}", spec.params.faults);
        };
        assert_eq!(c.rate_per_1k_slots, 4.0);
        // Structured plan, the CLI `--faults plan.json` wire shape.
        let spec = run(
            r#"{"v":1,"cmd":"run","params":{"faults":{"events":[{"t":0.05,"kind":"crash","su":3}]}}}"#,
        );
        let FaultsConfig::Plan(plan) = &spec.params.faults else {
            panic!("expected plan: {:?}", spec.params.faults);
        };
        assert_eq!(plan.events().len(), 1);
        // Garbage is a typed bad request.
        for bad in [
            r#"{"v":1,"cmd":"run","params":{"faults":"meteor"}}"#,
            r#"{"v":1,"cmd":"run","params":{"faults":7}}"#,
            r#"{"v":1,"cmd":"run","params":{"faults":{"events":[{"t":0.0,"kind":"zap"}]}}}"#,
        ] {
            let e = parse_request(bad).unwrap_err();
            assert_eq!(e.kind, ErrorKind::BadRequest, "{bad}");
            assert!(e.message.contains("faults"), "{}", e.message);
        }
    }

    #[test]
    fn faults_feed_the_cache_key_and_the_repro_line() {
        let spec = |faults: &str| {
            let Request::Run { spec, .. } = parse_request(&format!(
                r#"{{"v":1,"cmd":"run","params":{{"faults":{faults}}}}}"#
            ))
            .unwrap() else {
                panic!()
            };
            spec
        };
        let plain = spec("\"none\"");
        let churn = spec("\"churn:3\"");
        let plan = spec(r#"{"events":[{"t":0.05,"kind":"crash","su":3}]}"#);
        assert_ne!(plain.cache_key(), churn.cache_key());
        assert_ne!(plain.cache_key(), plan.cache_key());
        assert_ne!(churn.cache_key(), plan.cache_key());
        assert!(!plain.repro().contains("--fault"), "{}", plain.repro());
        assert!(
            churn.repro().contains("--fault-preset churn:3"),
            "{}",
            churn.repro()
        );
        assert!(plan.repro().contains("1 events"), "{}", plan.repro());
    }

    #[test]
    fn sweep_stream_flag_parses() {
        let Request::Sweep { stream, .. } =
            parse_request(r#"{"v":1,"cmd":"sweep","seeds":[1],"stream":true}"#).unwrap()
        else {
            panic!("not a sweep");
        };
        assert!(stream);
        let Request::Sweep { stream, .. } =
            parse_request(r#"{"v":1,"cmd":"sweep","seeds":[1]}"#).unwrap()
        else {
            panic!("not a sweep");
        };
        assert!(!stream, "stream defaults to off");
        let e = parse_request(r#"{"v":1,"cmd":"sweep","seeds":[1],"stream":7}"#).unwrap_err();
        assert!(e.message.contains("stream"), "{}", e.message);
    }

    #[test]
    fn spec_round_trips_through_its_wire_shape() {
        // Every wire-expressible knob at a non-default value.
        let line = r#"{"v":1,"cmd":"run","params":{"sus":61,"pus":9,"side":41.5,"pt":0.35,
            "seed":1234,"interference":"truncated:0.07","faults":"churn:2.5"},"algo":"coolest",
            "check_invariants":true}"#;
        let Request::Run { spec, .. } = parse_request(line).unwrap() else {
            panic!("not a run");
        };
        let encoded = spec_to_json(&spec).to_string();
        // Re-parse via the run-request parser (same object shape).
        let mut wrapped: Json = encoded.parse().unwrap();
        wrapped
            .set("v", Json::UInt(1))
            .set("cmd", Json::Str("run".into()));
        let Request::Run { spec: back, .. } = parse_request(&wrapped.to_string()).unwrap() else {
            panic!("not a run");
        };
        assert_eq!(spec, back);
        assert_eq!(spec.cache_key(), back.cache_key());
    }

    #[test]
    fn params_accept_exactly_the_run_flags() {
        // The connectivity budget and the baseline's sensing factor are
        // not run flags: a request cannot set either.
        for key in ["max_connectivity_attempts", "baseline_su_sense_factor"] {
            let e = parse_request(&format!(r#"{{"v":1,"cmd":"run","params":{{"{key}":2}}}}"#))
                .unwrap_err();
            assert_eq!(e.kind, ErrorKind::BadRequest, "{key}");
            assert!(e.message.contains("unknown params field"), "{}", e.message);
        }
        let Request::Run { spec, .. } = parse_request(r#"{"v":1,"cmd":"run"}"#).unwrap() else {
            panic!("not a run");
        };
        assert_eq!(spec.params.max_connectivity_attempts, CONNECTIVITY_ATTEMPTS);
        assert_eq!(spec.params.baseline_su_sense_factor, 1.0);
        // The encoder writes exactly the run keys, faults only when set.
        let keys = |spec: &RunSpec| match spec_to_json(spec).get("params") {
            Some(Json::Obj(pairs)) => pairs.iter().map(|(k, _)| k.clone()).collect::<Vec<_>>(),
            other => panic!("params is not an object: {other:?}"),
        };
        assert_eq!(keys(&spec), RUN_PARAMS[..6]);
        let mut churn = spec.clone();
        churn.params.faults = "churn:2".parse().unwrap();
        assert_eq!(keys(&churn), RUN_PARAMS);
    }

    #[test]
    fn cluster_work_meets_the_admission_bounds() {
        let work = |params: &str| {
            ClusterMsg::parse(&format!(
                r#"{{"v":1,"cmd":"work","id":1,"spec":{{"params":{{{params}}}}}}}"#
            ))
        };
        assert!(work(r#""sus":40"#).is_ok());
        for bad in [r#""sus":5001"#, r#""side":1e6"#] {
            let e = work(bad).unwrap_err();
            assert!(e.message.contains("cap"), "{bad} → {}", e.message);
        }
    }

    #[test]
    fn repro_keeps_a_placeholder_for_faults_the_presets_cannot_spell() {
        let Request::Run { spec, .. } =
            parse_request(r#"{"v":1,"cmd":"run","params":{"faults":"churn:3"}}"#).unwrap()
        else {
            panic!("not a run");
        };
        assert!(
            spec.repro().ends_with(" --fault-preset churn:3"),
            "{}",
            spec.repro()
        );
        let mut slow_repair = spec.clone();
        let FaultsConfig::Churn(c) = &mut slow_repair.params.faults else {
            panic!("not churn");
        };
        c.downtime_slots *= 2.0;
        let repro = slow_repair.repro();
        assert!(
            repro.contains(" --faults <plan.json: {\"churn\":"),
            "{repro}"
        );
        assert!(repro.contains("downtime_slots"), "{repro}");
        assert!(!repro.contains("--fault-preset"), "{repro}");
    }

    #[test]
    fn cluster_join_and_work_round_trip() {
        let msg = ClusterMsg::Join {
            worker: "worker-3".into(),
        };
        let ClusterMsg::Join { worker } = ClusterMsg::parse(&msg.encode().to_string()).unwrap()
        else {
            panic!("not a join");
        };
        assert_eq!(worker, "worker-3");

        let Request::Run { spec, .. } =
            parse_request(r#"{"v":1,"cmd":"run","params":{"sus":40,"seed":5}}"#).unwrap()
        else {
            panic!()
        };
        let msg = ClusterMsg::Work {
            id: 42,
            spec: spec.clone(),
        };
        let ClusterMsg::Work { id, spec: back } =
            ClusterMsg::parse(&msg.encode().to_string()).unwrap()
        else {
            panic!("not a work");
        };
        assert_eq!(id, 42);
        assert_eq!(spec.cache_key(), back.cache_key());
        assert_eq!(spec, back);
    }

    #[test]
    fn cluster_result_round_trips_both_arms() {
        let params = crn_core::ScenarioParams::builder()
            .num_sus(30)
            .num_pus(3)
            .area_side(32.0)
            .seed(2)
            .build();
        let outcome = crn_core::Scenario::generate(&params)
            .unwrap()
            .run(CollectionAlgorithm::Addc)
            .unwrap();
        let msg = ClusterMsg::Result {
            id: 7,
            result: Ok(outcome.clone()),
        };
        let ClusterMsg::Result { id, result } =
            ClusterMsg::parse(&msg.encode().to_string()).unwrap()
        else {
            panic!("not a result");
        };
        assert_eq!(id, 7);
        assert_eq!(result.unwrap().report, outcome.report);

        let msg = ClusterMsg::Result {
            id: 9,
            result: Err((ErrorKind::SimFailed, "boom".into())),
        };
        let ClusterMsg::Result { id, result } =
            ClusterMsg::parse(&msg.encode().to_string()).unwrap()
        else {
            panic!("not a result");
        };
        assert_eq!(id, 9);
        let (kind, message) = result.unwrap_err();
        assert_eq!(kind, ErrorKind::SimFailed);
        assert_eq!(message, "boom");
    }

    #[test]
    fn public_requests_are_not_cluster_messages() {
        for line in [
            r#"{"v":1,"cmd":"run"}"#,
            r#"{"v":1,"cmd":"stats"}"#,
            r#"{"v":1,"cmd":"frobnicate"}"#,
        ] {
            assert!(ClusterMsg::parse(line).is_err(), "{line}");
        }
        // And a join is not a public request.
        assert!(parse_request(r#"{"v":1,"cmd":"join","worker":"w"}"#).is_err());
    }

    #[test]
    fn error_response_shape() {
        let r = error_response(ErrorKind::Overloaded, "queue full");
        let s = r.to_string();
        assert!(s.contains("\"ok\":false"), "{s}");
        assert!(s.contains("\"code\":429"), "{s}");
        assert!(s.contains("\"kind\":\"overloaded\""), "{s}");
        // And it parses back.
        let v: Json = s.parse().unwrap();
        assert_eq!(
            v.get("error").unwrap().get("code").unwrap().as_u64(),
            Some(429)
        );
    }
}
