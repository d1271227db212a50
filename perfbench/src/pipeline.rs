//! The path a run takes through the layers, replayed call by call with a
//! span around each public call: `Scenario::generate` or
//! `Scenario::recustomized` (topology), `Scenario::tree` (topology), the
//! `SimWorld` build or `SimWorld::recustomize` (radio), and
//! `Simulator::run` (engine).
//!
//! It follows the reuse rules `Scenario` applies internally, so its work
//! matches what `run_sweep` and the serve executor do: a radio-only
//! change re-customizes a prepared world when the algorithm's routing
//! tree cannot change, and builds tree and world afresh otherwise. Its
//! outcomes must equal theirs exactly; the workloads check that.

use crate::stats;
use crate::trace::{self, Span};
use crate::Unit;
use crn_core::{CollectionAlgorithm, CollectionOutcome, Scenario, ScenarioParams};
use crn_sim::{RadioParams, SimWorld, Simulator, Traffic};
use crn_topology::TreeKind;
use crn_workloads::{RunRecord, SweepSpec};
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier, Mutex};

/// The offset `Scenario::run` adds to the master seed to seed the
/// simulator.
const SIM_SEED_OFFSET: u64 = 0x9E37_79B9_7F4A_7C15;

/// Work counted along the replayed path (times come from the spans).
#[derive(Clone, Copy, Debug, Default)]
pub struct Work {
    /// SUs of every world customized from scratch.
    pub sus_customized: u64,
    /// Largest gain-table footprint among the worlds built.
    pub gain_table_bytes: u64,
    pub runs: u64,
    pub events: u64,
    pub attempts: u64,
    pub successes: u64,
    pub sir_failures: u64,
}

impl Work {
    pub fn add(&mut self, other: &Work) {
        self.sus_customized += other.sus_customized;
        self.gain_table_bytes = self.gain_table_bytes.max(other.gain_table_bytes);
        self.runs += other.runs;
        self.events += other.events;
        self.attempts += other.attempts;
        self.successes += other.successes;
        self.sir_failures += other.sir_failures;
    }

    /// Counts one finished simulation.
    pub fn count_run(&mut self, report: &crn_sim::SimReport) {
        self.runs += 1;
        self.events += report.events_processed;
        self.attempts += report.attempts;
        self.successes += report.successes;
        self.sir_failures += report.sir_failures;
    }

    /// Counts one world customized from scratch.
    pub fn count_build(&mut self, world: &SimWorld) {
        self.sus_customized += world.num_sus() as u64;
        self.gain_table_bytes = self.gain_table_bytes.max(world.gain_table_bytes() as u64);
    }
}

/// A world prepared for one algorithm, with its tree's statistics.
#[derive(Clone)]
struct World {
    world: Arc<SimWorld>,
    outcome_shape: (TreeKind, u32, usize),
}

/// A scenario with the worlds prepared on it so far.
pub struct Prepared {
    scenario: Scenario,
    worlds: HashMap<CollectionAlgorithm, World>,
}

fn heat_range(p: &ScenarioParams) -> f64 {
    p.baseline_su_sense_factor * p.phy.su_radius()
}

/// The SU carrier-sensing range `Scenario` gives `algorithm`.
fn su_sense(algorithm: CollectionAlgorithm, scenario: &Scenario) -> f64 {
    let p = scenario.params();
    match algorithm {
        CollectionAlgorithm::Addc | CollectionAlgorithm::BfsTree => scenario.pcr(),
        CollectionAlgorithm::Coolest | CollectionAlgorithm::CoolestOracle => {
            heat_range(p).max(p.phy.su_radius())
        }
    }
}

impl Prepared {
    /// `Scenario::generate`, in a `topology.generate` span.
    pub fn generate(params: &ScenarioParams, op: u64) -> Result<Prepared, String> {
        let scenario = trace::in_span("topology.generate", op, || Scenario::generate(params))
            .map_err(|e| format!("generate seed {}: {e}", params.seed))?;
        Ok(Prepared {
            scenario,
            worlds: HashMap::new(),
        })
    }

    /// The scenario for `params` derived from this one: a fresh
    /// generation when the deployment differs, otherwise
    /// `Scenario::recustomized` plus a `SimWorld::recustomize` of every
    /// prepared world whose tree cannot change.
    pub fn derive(&self, params: &ScenarioParams, op: u64) -> Result<Prepared, String> {
        let old = self.scenario.params();
        if params.topology_key() != old.topology_key() {
            return Prepared::generate(params, op);
        }
        let scenario = trace::in_span("radio.recustomize", op, || {
            self.scenario.recustomized(params)
        })
        .map_err(|e| format!("recustomize seed {}: {e}", params.seed))?;
        let same_duty =
            params.activity.duty_cycle().to_bits() == old.activity.duty_cycle().to_bits();
        let same_heat = heat_range(params).to_bits() == heat_range(old).to_bits();
        let same_pcr = scenario.pcr().to_bits() == self.scenario.pcr().to_bits();
        let mut worlds = HashMap::new();
        for (&alg, prepared) in &self.worlds {
            let tree_unchanged = match alg {
                CollectionAlgorithm::Addc | CollectionAlgorithm::BfsTree => true,
                CollectionAlgorithm::Coolest => same_heat && same_duty,
                CollectionAlgorithm::CoolestOracle => same_pcr && same_duty,
            };
            if !tree_unchanged {
                continue;
            }
            let radio = RadioParams {
                phy: params.phy,
                pu_sense_range: scenario.pcr(),
                su_sense_range: su_sense(alg, &scenario),
                interference: params.interference,
            };
            let world = trace::in_span("radio.recustomize", op, || {
                prepared.world.recustomize(radio)
            })
            .map_err(|e| format!("recustomize world: {e}"))?;
            worlds.insert(
                alg,
                World {
                    world: Arc::new(world),
                    outcome_shape: prepared.outcome_shape,
                },
            );
        }
        Ok(Prepared { scenario, worlds })
    }

    /// Runs `algorithm` on this scenario the way `Scenario::run` does,
    /// building its tree and world first if none is prepared.
    pub fn run(
        &mut self,
        algorithm: CollectionAlgorithm,
        op: u64,
        work: &mut Work,
    ) -> Result<CollectionOutcome, String> {
        let prepared = match self.worlds.get(&algorithm) {
            Some(w) => w.clone(),
            None => {
                let tree = trace::in_span("topology.tree", op, || self.scenario.tree(algorithm))
                    .map_err(|e| format!("tree: {e}"))?;
                let parents: Vec<Option<u32>> = (0..self.scenario.graph().len() as u32)
                    .map(|u| tree.parent(u))
                    .collect();
                let p = self.scenario.params();
                let world = trace::in_span("radio.customize", op, || {
                    SimWorld::builder(self.scenario.region())
                        .su_positions(self.scenario.su_positions().to_vec())
                        .pu_positions(self.scenario.pu_positions().to_vec())
                        .parents(parents)
                        .phy(p.phy)
                        .pu_sense_range(self.scenario.pcr())
                        .su_sense_range(su_sense(algorithm, &self.scenario))
                        .interference(p.interference)
                        .build()
                })
                .map_err(|e| format!("world: {e}"))?;
                work.count_build(&world);
                let w = World {
                    world: Arc::new(world),
                    outcome_shape: (tree.kind(), tree.height(), tree.max_degree()),
                };
                self.worlds.insert(algorithm, w.clone());
                w
            }
        };
        let p = self.scenario.params();
        let report = trace::in_span("engine.run", op, || {
            Simulator::builder(Arc::clone(&prepared.world))
                .mac(p.mac)
                .activity(p.activity)
                .seed(p.seed.wrapping_add(SIM_SEED_OFFSET))
                .traffic(Traffic::Snapshot)
                .build()
                .map(Simulator::run)
        })
        .map_err(|e| format!("simulator: {e}"))?;
        work.count_run(&report);
        let (tree_kind, tree_height, tree_max_degree) = prepared.outcome_shape;
        Ok(CollectionOutcome {
            algorithm,
            tree_kind,
            tree_height,
            tree_max_degree,
            report,
        })
    }
}

/// Replays `spec` the way `run_sweep` executes it: `threads` workers
/// claim groups of consecutive jobs (one parameter point's algorithms,
/// or a whole repetition on a radio axis) and derive each point's
/// scenario from the previous one in the group. Returns the records in
/// job order.
pub fn replay_sweep(
    spec: &SweepSpec,
    threads: usize,
    work: &Mutex<Work>,
) -> Result<Vec<RunRecord>, String> {
    let jobs = spec.jobs();
    let chunk_len = spec.algorithms.len().max(1);
    let stride = if spec.axis.kind.varies_topology() {
        chunk_len
    } else {
        chunk_len * spec.axis.values.len().max(1)
    };
    let next = AtomicUsize::new(0);
    let slots: Mutex<Vec<Option<Result<RunRecord, String>>>> =
        Mutex::new((0..jobs.len()).map(|_| None).collect());
    let threads = threads.max(1);
    let done = Barrier::new(threads);
    let worker = |thread: u64| {
        let _root = trace::span("sweep.thread", thread);
        let mut local = Work::default();
        loop {
            let group_idx = next.fetch_add(1, Ordering::Relaxed);
            let start = group_idx * stride;
            if start >= jobs.len() {
                break;
            }
            let _group = trace::span("sweep.group", group_idx as u64);
            let group = &jobs[start..(start + stride).min(jobs.len())];
            let mut prev: Option<Prepared> = None;
            for (c, chunk) in group.chunks(chunk_len).enumerate() {
                let slot0 = start + c * chunk_len;
                let derived = match &prev {
                    None => Prepared::generate(&chunk[0].params, slot0 as u64),
                    Some(p) => p.derive(&chunk[0].params, slot0 as u64),
                };
                let mut current = match derived {
                    Ok(current) => current,
                    Err(e) => {
                        slots.lock().expect("slots lock")[slot0] = Some(Err(e));
                        break;
                    }
                };
                for (offset, job) in chunk.iter().enumerate() {
                    let slot = slot0 + offset;
                    let result = current
                        .run(job.algorithm, slot as u64, &mut local)
                        .map(|o| {
                            RunRecord::from_outcome(&job.figure, job.x_name, job.x, job.rep, &o)
                        });
                    slots.lock().expect("slots lock")[slot] = Some(result);
                }
                prev = Some(current);
            }
        }
        work.lock().expect("work lock").add(&local);
        // A thread out of groups idles until the last one finishes: the
        // sweep's scheduling loss, the one cost of the sweep layer itself.
        trace::in_span("sweep.idle", thread, || done.wait());
    };
    std::thread::scope(|s| {
        for t in 0..threads {
            let worker = &worker;
            s.spawn(move || worker(t as u64));
        }
    });
    slots
        .into_inner()
        .expect("slots lock")
        .into_iter()
        .enumerate()
        .map(|(i, slot)| slot.unwrap_or_else(|| Err(format!("job {i} never ran"))))
        .collect()
}

/// FNV digest of records in their JSON-lines export form.
pub fn records_digest(records: &[RunRecord]) -> u64 {
    records.iter().fold(stats::FNV_START, |h, r| {
        crn_core::fnv1a_64(h, crn_workloads::export::record_jsonl(r).as_bytes())
    })
}

/// Span names that belong to a layer; their self times are what the
/// trace attributes. The benchmark's own root spans (`sweep.thread`,
/// `sweep.group`) are not among them: their self time is harness
/// bookkeeping, which coverage must leave out.
const LAYER_SPANS: [&str; 6] = [
    "topology.generate",
    "topology.tree",
    "radio.customize",
    "radio.recustomize",
    "engine.run",
    "sweep.idle",
];

/// Fills the topology, radio and engine figures of `unit` from `spans`
/// and `work`. Given `(threads, traced_wall_s)`, also
/// `trace.coverage_frac`: the share of `threads × traced_wall_s` that
/// layer spans cover.
pub fn layer_metrics(unit: &mut Unit, spans: &[Span], work: &Work, coverage: Option<(usize, f64)>) {
    let own = trace::self_seconds(spans);
    let calls = trace::counts(spans);
    let t = |name: &str| own.get(name).copied().unwrap_or(0.0);
    let n = |name: &str| calls.get(name).copied().unwrap_or(0) as f64;
    unit.layer("topology.generate_s", t("topology.generate"));
    unit.layer("topology.generate_calls", n("topology.generate"));
    unit.layer("topology.tree_s", t("topology.tree"));
    unit.layer("topology.tree_calls", n("topology.tree"));
    unit.layer("radio.customize_s", t("radio.customize"));
    unit.layer("radio.customize_calls", n("radio.customize"));
    unit.layer(
        "radio.customize_us_per_su",
        stats::ratio(t("radio.customize") * 1e6, work.sus_customized as f64),
    );
    unit.layer("radio.recustomize_s", t("radio.recustomize"));
    unit.layer("radio.gain_table_bytes", work.gain_table_bytes as f64);
    unit.layer("engine.run_s", t("engine.run"));
    unit.layer("engine.run_calls", n("engine.run"));
    unit.layer("engine.events", work.events as f64);
    unit.layer(
        "engine.events_per_s",
        stats::ratio(work.events as f64, t("engine.run")),
    );
    unit.layer(
        "engine.success_ratio",
        stats::ratio(work.successes as f64, work.attempts as f64),
    );
    unit.layer("engine.sir_failures", work.sir_failures as f64);
    if let Some((threads, wall)) = coverage {
        let covered: f64 = LAYER_SPANS.iter().map(|name| t(name)).sum();
        unit.layer(
            "trace.coverage_frac",
            stats::ratio(covered, threads as f64 * wall),
        );
    }
}
