use crate::{coolest_tree, ScenarioParams};
use crn_geometry::{Deployment, GridIndex, Point, Region};
use crn_interference::pcr;
use crn_sim::{
    BuildError, InvariantChecker, Probe, RadioParams, SimReport, SimWorld, Simulator, Traffic,
    Violation, WorldError,
};
use crn_theory::DelayBounds;
use crn_topology::{CollectionTree, TreeError, TreeKind, UnitDiskGraph};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;
use std::fmt;
use std::sync::{Arc, Mutex};

/// Which data collection algorithm to run over a [`Scenario`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum CollectionAlgorithm {
    /// The paper's Asynchronous Distributed Data Collection (Algorithm 1)
    /// over the CDS-based tree.
    Addc,
    /// The Coolest-path baseline: distributed greedy spectrum-temperature
    /// routing (see [`crate::CoolestStrategy::GreedyLocal`]) with a
    /// conventional CSMA SU-sensing range.
    Coolest,
    /// Ablation: Coolest with genie-aided global routes
    /// ([`crate::CoolestStrategy::OracleDijkstra`]), same baseline MAC.
    CoolestOracle,
    /// Ablation: plain BFS shortest-path tree under ADDC's MAC.
    BfsTree,
}

impl fmt::Display for CollectionAlgorithm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CollectionAlgorithm::Addc => "ADDC",
            CollectionAlgorithm::Coolest => "Coolest",
            CollectionAlgorithm::CoolestOracle => "Coolest-oracle",
            CollectionAlgorithm::BfsTree => "BFS-tree",
        };
        f.write_str(s)
    }
}

impl std::str::FromStr for CollectionAlgorithm {
    type Err = String;

    /// Parses both the CLI spellings (`addc`, `coolest`, `coolest-oracle`,
    /// `bfs`) and the display names (`ADDC`, `Coolest`, `Coolest-oracle`,
    /// `BFS-tree`), case-insensitively — so exported records and protocol
    /// messages round-trip through the same parser the CLI uses.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "addc" => Ok(CollectionAlgorithm::Addc),
            "coolest" => Ok(CollectionAlgorithm::Coolest),
            "coolest-oracle" => Ok(CollectionAlgorithm::CoolestOracle),
            "bfs" | "bfs-tree" => Ok(CollectionAlgorithm::BfsTree),
            other => Err(format!("unknown algorithm '{other}'")),
        }
    }
}

/// Errors from scenario generation or execution.
#[derive(Clone, Debug, PartialEq)]
pub enum ScenarioError {
    /// No connected deployment was found within the attempt budget —
    /// the node density is too low for the transmission radius.
    Disconnected {
        /// Attempts made.
        attempts: usize,
    },
    /// Routing-tree construction failed.
    Tree(TreeError),
    /// Simulator world assembly failed.
    World(WorldError),
    /// Simulator configuration was rejected at build time.
    Sim(BuildError),
    /// The fault workload failed to resolve (invalid plan or churn spec).
    Fault(crn_sim::FaultError),
    /// The simulation oracle observed an invariant violation (only from
    /// [`Scenario::run_checked`]); carries the first violation, which is
    /// usually the root cause.
    Invariant(Box<Violation>),
    /// Lemma 7's access probability `p_o` is 0 (e.g. `p_t = 1` with PUs in
    /// range), so the paper's delay bounds do not exist (only from
    /// [`Scenario::delay_bounds`]).
    NoAccessOpportunity,
}

impl fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScenarioError::Disconnected { attempts } => write!(
                f,
                "no connected deployment in {attempts} attempts; increase density or radius"
            ),
            ScenarioError::Tree(e) => write!(f, "tree construction failed: {e}"),
            ScenarioError::World(e) => write!(f, "world assembly failed: {e}"),
            ScenarioError::Sim(e) => write!(f, "simulator configuration rejected: {e}"),
            ScenarioError::Fault(e) => write!(f, "fault workload rejected: {e}"),
            ScenarioError::Invariant(v) => write!(f, "simulation invariant violated: {v}"),
            ScenarioError::NoAccessOpportunity => f.write_str(
                "p_o = 0: the paper's bounds need a positive spectrum-access probability",
            ),
        }
    }
}

impl std::error::Error for ScenarioError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ScenarioError::Disconnected { .. }
            | ScenarioError::Invariant(_)
            | ScenarioError::NoAccessOpportunity => None,
            ScenarioError::Tree(e) => Some(e),
            ScenarioError::World(e) => Some(e),
            ScenarioError::Sim(e) => Some(e),
            ScenarioError::Fault(e) => Some(e),
        }
    }
}

impl From<crn_sim::FaultError> for ScenarioError {
    fn from(e: crn_sim::FaultError) -> Self {
        ScenarioError::Fault(e)
    }
}

impl From<TreeError> for ScenarioError {
    fn from(e: TreeError) -> Self {
        ScenarioError::Tree(e)
    }
}

impl From<WorldError> for ScenarioError {
    fn from(e: WorldError) -> Self {
        ScenarioError::World(e)
    }
}

impl From<BuildError> for ScenarioError {
    fn from(e: BuildError) -> Self {
        ScenarioError::Sim(e)
    }
}

/// Result of running one data collection task.
#[derive(Clone, Debug, PartialEq)]
pub struct CollectionOutcome {
    /// Algorithm that produced the routing structure.
    pub algorithm: CollectionAlgorithm,
    /// Kind of tree used.
    pub tree_kind: TreeKind,
    /// Height of the routing tree (hops).
    pub tree_height: u32,
    /// Maximum tree degree `Δ`.
    pub tree_max_degree: usize,
    /// Full simulator report (delays, counters, per-flow times).
    pub report: SimReport,
}

/// A generated CRN instance: a connected secondary network, a primary
/// network, and the derived PCR — everything needed to run any of the
/// collection algorithms on identical ground.
///
/// See the crate-level example for typical use.
#[derive(Debug)]
pub struct Scenario {
    params: ScenarioParams,
    region: Region,
    su_deployment: Deployment,
    pu_deployment: Deployment,
    graph: UnitDiskGraph,
    pu_index: GridIndex,
    pcr: f64,
    /// Per-algorithm routing tree + assembled world, built once and shared
    /// (`Arc`) across repeated runs of the same scenario — gain-table
    /// construction dominates short runs, so sweeps reuse it.
    prepared: Mutex<HashMap<CollectionAlgorithm, PreparedRun>>,
}

/// Everything [`Scenario::run`] needs that depends only on the algorithm,
/// not the simulation seed.
#[derive(Clone, Debug)]
struct PreparedRun {
    world: Arc<SimWorld>,
    tree_kind: TreeKind,
    tree_height: u32,
    tree_max_degree: usize,
}

impl Clone for Scenario {
    fn clone(&self) -> Self {
        Self {
            params: self.params.clone(),
            region: self.region,
            su_deployment: self.su_deployment.clone(),
            pu_deployment: self.pu_deployment.clone(),
            graph: self.graph.clone(),
            pu_index: self.pu_index.clone(),
            pcr: self.pcr,
            prepared: Mutex::new(
                self.prepared
                    .lock()
                    .expect("prepared cache poisoned")
                    .clone(),
            ),
        }
    }
}

impl Scenario {
    /// Samples deployments until the secondary network is connected (the
    /// paper's standing assumption), then derives the PCR.
    ///
    /// # Errors
    ///
    /// Returns [`ScenarioError::Disconnected`] if no connected deployment
    /// appears within `params.max_connectivity_attempts`.
    pub fn generate(params: &ScenarioParams) -> Result<Self, ScenarioError> {
        let region = Region::square(params.area_side);
        let mut rng = StdRng::seed_from_u64(params.seed);
        let attempts = params.max_connectivity_attempts.max(1);
        for _ in 0..attempts {
            let su_deployment = Deployment::uniform(region, params.num_sus + 1, &mut rng);
            let graph = UnitDiskGraph::build(&su_deployment, params.phy.su_radius());
            if !graph.is_connected() {
                continue;
            }
            let pu_deployment = Deployment::uniform(region, params.num_pus, &mut rng);
            let pu_index = GridIndex::build(pu_deployment.points(), region, params.phy.su_radius());
            let pcr = pcr::carrier_sensing_range(&params.phy, params.pcr_constants);
            return Ok(Self {
                params: params.clone(),
                region,
                su_deployment,
                pu_deployment,
                graph,
                pu_index,
                pcr,
                prepared: Mutex::new(HashMap::new()),
            });
        }
        Err(ScenarioError::Disconnected { attempts })
    }

    /// The generating parameters.
    #[must_use]
    pub fn params(&self) -> &ScenarioParams {
        &self.params
    }

    /// Deployment region.
    #[must_use]
    pub fn region(&self) -> Region {
        self.region
    }

    /// The secondary-network graph `G_s` (node 0 is the base station).
    #[must_use]
    pub fn graph(&self) -> &UnitDiskGraph {
        &self.graph
    }

    /// SU positions (node 0 is the base station).
    #[must_use]
    pub fn su_positions(&self) -> &[Point] {
        self.su_deployment.points()
    }

    /// PU positions.
    #[must_use]
    pub fn pu_positions(&self) -> &[Point] {
        self.pu_deployment.points()
    }

    /// The derived Proper Carrier-sensing Range `κ·r`.
    #[must_use]
    pub fn pcr(&self) -> f64 {
        self.pcr
    }

    /// Builds the routing tree for `algorithm`.
    ///
    /// # Errors
    ///
    /// Returns [`ScenarioError::Tree`] if construction fails (cannot
    /// happen for a connected graph).
    pub fn tree(&self, algorithm: CollectionAlgorithm) -> Result<CollectionTree, ScenarioError> {
        let tree = match algorithm {
            CollectionAlgorithm::Addc => CollectionTree::cds(&self.graph, 0)?,
            CollectionAlgorithm::BfsTree => CollectionTree::bfs(&self.graph, 0)?,
            // The distributed baseline estimates spectrum temperature from
            // its own carrier-sensing observations (range factor·r); only
            // the genie-aided oracle variant sees PCR-wide heat.
            CollectionAlgorithm::Coolest => coolest_tree(
                &self.graph,
                &self.pu_index,
                self.params.baseline_su_sense_factor * self.params.phy.su_radius(),
                self.params.activity.duty_cycle(),
            )?,
            CollectionAlgorithm::CoolestOracle => crate::coolest_tree_with(
                &self.graph,
                &self.pu_index,
                self.pcr,
                self.params.activity.duty_cycle(),
                crate::CoolestStrategy::OracleDijkstra,
            )?,
        };
        Ok(tree)
    }

    /// The simulator seed every run uses: the master seed plus a fixed odd
    /// offset. Distinct from the deployment stream but common to
    /// algorithms, so comparisons see the same primary-network behaviour
    /// profile.
    #[must_use]
    pub fn sim_seed(&self) -> u64 {
        self.params.seed.wrapping_add(0x9E37_79B9_7F4A_7C15)
    }

    /// The paper's analytic bounds (Lemmas 5–8, Theorems 1–2) for ADDC on
    /// this scenario: `Δ` and `Δ_b` from its CDS tree, `c₀ = A/n`, and
    /// the scenario's PU density and duty cycle `p_t`.
    ///
    /// # Errors
    ///
    /// Returns [`ScenarioError::NoAccessOpportunity`] when `p_o` is 0 (the
    /// bounds divide by it), and propagates tree construction failures.
    pub fn delay_bounds(&self) -> Result<DelayBounds, ScenarioError> {
        let tree = self.tree(CollectionAlgorithm::Addc)?;
        let p = &self.params;
        DelayBounds::compute(
            &p.phy,
            p.pcr_constants,
            p.pu_density(),
            p.activity.duty_cycle(),
            p.num_sus,
            p.area_side * p.area_side / p.num_sus as f64,
            tree.max_degree(),
            tree.root_degree(),
        )
        .ok_or(ScenarioError::NoAccessOpportunity)
    }

    /// Runs a full data collection task under `algorithm`: one snapshot,
    /// no probe.
    ///
    /// # Errors
    ///
    /// Propagates tree or world assembly failures.
    pub fn run(&self, algorithm: CollectionAlgorithm) -> Result<CollectionOutcome, ScenarioError> {
        let (outcome, _noop) = self.run_probed(algorithm, Traffic::Snapshot, crn_sim::NoopProbe)?;
        Ok(outcome)
    }

    /// The assembled simulator world for `algorithm`, built on first use
    /// and shared (`Arc`) across every later run of this scenario.
    ///
    /// # Errors
    ///
    /// Propagates tree or world assembly failures.
    pub fn world(&self, algorithm: CollectionAlgorithm) -> Result<Arc<SimWorld>, ScenarioError> {
        Ok(self.prepared(algorithm)?.world)
    }

    /// Returns the cached tree + world for `algorithm`, building (and
    /// caching) them on first use.
    fn prepared(&self, algorithm: CollectionAlgorithm) -> Result<PreparedRun, ScenarioError> {
        if let Some(hit) = self
            .prepared
            .lock()
            .expect("prepared cache poisoned")
            .get(&algorithm)
        {
            return Ok(hit.clone());
        }
        let tree = self.tree(algorithm)?;
        let parents: Vec<Option<u32>> = (0..self.graph.len() as u32)
            .map(|u| tree.parent(u))
            .collect();
        let world = SimWorld::builder(self.region)
            .su_positions(self.su_deployment.points().to_vec())
            .pu_positions(self.pu_deployment.points().to_vec())
            .parents(parents)
            .phy(self.params.phy)
            .pu_sense_range(self.pcr)
            .su_sense_range(su_sense_range(algorithm, &self.params, self.pcr))
            .interference(self.params.interference)
            .build()?;
        let run = PreparedRun {
            world: Arc::new(world),
            tree_kind: tree.kind(),
            tree_height: tree.height(),
            tree_max_degree: tree.max_degree(),
        };
        self.prepared
            .lock()
            .expect("prepared cache poisoned")
            .insert(algorithm, run.clone());
        Ok(run)
    }

    /// Derives the scenario for `params` from this one, reusing the
    /// deployment, connectivity graph, and — where the routing tree's
    /// inputs are unchanged — the prepared per-algorithm worlds via
    /// [`SimWorld::recustomize`]. The result is guaranteed bit-identical
    /// to [`Scenario::generate`] on `params`: if the parameters differ in
    /// any topology-determining field
    /// ([`ScenarioParams::topology_key`]), this simply falls back to a
    /// full `generate`.
    ///
    /// This is the cheap path behind radio-axis sweeps and the serve
    /// layer's topology cache tier: a power/alpha/activity/interference
    /// change skips deployment sampling, graph construction, and (for
    /// structural trees) tree + gain-table rebuilds.
    ///
    /// # Errors
    ///
    /// Propagates generation or world-customization failures.
    pub fn recustomized(&self, params: &ScenarioParams) -> Result<Self, ScenarioError> {
        if params.topology_key() != self.params.topology_key() {
            return Scenario::generate(params);
        }
        let pcr = pcr::carrier_sensing_range(&params.phy, params.pcr_constants);
        let same_duty =
            params.activity.duty_cycle().to_bits() == self.params.activity.duty_cycle().to_bits();
        let heat_range = |p: &ScenarioParams| p.baseline_su_sense_factor * p.phy.su_radius();
        let same_heat = heat_range(params).to_bits() == heat_range(&self.params).to_bits();
        let same_pcr = pcr.to_bits() == self.pcr.to_bits();

        let mut prepared = HashMap::new();
        for (&alg, old) in self
            .prepared
            .lock()
            .expect("prepared cache poisoned")
            .iter()
        {
            // Carry a prepared world only when the algorithm's tree would
            // come out identical; otherwise drop it and let `prepared()`
            // lazily rebuild from the shared graph.
            let tree_unchanged = match alg {
                // Structural trees depend only on the graph.
                CollectionAlgorithm::Addc | CollectionAlgorithm::BfsTree => true,
                // Heat-based trees also read the sensing range and the PU
                // duty cycle.
                CollectionAlgorithm::Coolest => same_heat && same_duty,
                CollectionAlgorithm::CoolestOracle => same_pcr && same_duty,
            };
            if !tree_unchanged {
                continue;
            }
            let world = old.world.recustomize(RadioParams {
                phy: params.phy,
                pu_sense_range: pcr,
                su_sense_range: su_sense_range(alg, params, pcr),
                interference: params.interference,
            })?;
            prepared.insert(
                alg,
                PreparedRun {
                    world: Arc::new(world),
                    ..old.clone()
                },
            );
        }
        Ok(Self {
            params: params.clone(),
            region: self.region,
            su_deployment: self.su_deployment.clone(),
            pu_deployment: self.pu_deployment.clone(),
            graph: self.graph.clone(),
            pu_index: self.pu_index.clone(),
            pcr,
            prepared: Mutex::new(prepared),
        })
    }

    /// Runs a full data collection task under `algorithm` with the live
    /// simulation oracle attached: an [`InvariantChecker`] audits packet
    /// conservation, the concurrent-set/SIR property, PU protection, and
    /// scheduler hygiene on every trace event. The checker is returned for
    /// inspection (e.g. [`InvariantChecker::events_checked`]).
    ///
    /// The run itself is identical to [`Scenario::run`] — probes observe,
    /// they never perturb.
    ///
    /// # Errors
    ///
    /// Returns [`ScenarioError::Invariant`] carrying the first violation
    /// if the oracle caught any, besides propagating tree/world/simulator
    /// assembly failures.
    pub fn run_checked(
        &self,
        algorithm: CollectionAlgorithm,
    ) -> Result<(CollectionOutcome, InvariantChecker), ScenarioError> {
        let checker = InvariantChecker::new(self.world(algorithm)?, self.params.mac).with_repro(
            self.params.seed,
            format!(
                "n={} N={} side={} alg={algorithm}",
                self.params.num_sus, self.params.num_pus, self.params.area_side
            ),
        );
        let (outcome, oracle) = self.run_probed(algorithm, Traffic::Snapshot, checker)?;
        match oracle.first_violation() {
            Some(v) => Err(ScenarioError::Invariant(Box::new(v.clone()))),
            None => Ok((outcome, oracle)),
        }
    }

    /// The one run path: fetches the cached world for `algorithm`, runs it
    /// at [`Scenario::sim_seed`] under `traffic` with `probe` attached, and
    /// returns the probe alongside the outcome. [`Scenario::run`] and
    /// [`Scenario::run_checked`] wrap it. Continuous collection, whose
    /// steady-state [`SimReport::capacity_fraction`] exercises Theorem 2's
    /// capacity bound, passes [`Traffic::Periodic`]; a full event trace
    /// passes [`crn_sim::TraceLog::unbounded`]. Probes observe and never
    /// perturb, so every probe sees the same run.
    ///
    /// # Errors
    ///
    /// Propagates tree, world, or simulator assembly failures (including
    /// a [`Traffic`] the simulator rejects).
    pub fn run_probed<P: Probe>(
        &self,
        algorithm: CollectionAlgorithm,
        traffic: Traffic,
        probe: P,
    ) -> Result<(CollectionOutcome, P), ScenarioError> {
        let prepared = self.prepared(algorithm)?;
        // Fault schedules resolve against the *master* seed, not the sim
        // seed, so algorithm comparisons and repetition sweeps face the
        // same churn workload.
        let faults = self.params.faults.resolve(
            self.params.num_sus,
            self.params.mac.slot,
            self.params.seed,
        )?;
        let (report, probe): (SimReport, P) = Simulator::builder(prepared.world)
            .mac(self.params.mac)
            .activity(self.params.activity)
            .seed(self.sim_seed())
            .traffic(traffic)
            .faults(faults)
            .probe(probe)
            .build()?
            .run_with_probe();
        Ok((
            CollectionOutcome {
                algorithm,
                tree_kind: prepared.tree_kind,
                tree_height: prepared.tree_height,
                tree_max_degree: prepared.tree_max_degree,
                report,
            },
            probe,
        ))
    }
}

/// The SU-coordination carrier-sensing range `algorithm` runs with. PU
/// protection (sensing the primary network over the PCR) is mandatory for
/// every algorithm; the SU range is the PCR only for algorithms that have
/// it — the Coolest baselines use a conventional CSMA range
/// `max(factor·r, r)` (see [`ScenarioParams::baseline_su_sense_factor`]).
fn su_sense_range(algorithm: CollectionAlgorithm, params: &ScenarioParams, pcr: f64) -> f64 {
    match algorithm {
        CollectionAlgorithm::Addc | CollectionAlgorithm::BfsTree => pcr,
        CollectionAlgorithm::Coolest | CollectionAlgorithm::CoolestOracle => {
            (params.baseline_su_sense_factor * params.phy.su_radius()).max(params.phy.su_radius())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_params(seed: u64) -> ScenarioParams {
        ScenarioParams::builder()
            .num_sus(60)
            .num_pus(12)
            .area_side(45.0)
            .seed(seed)
            .build()
    }

    #[test]
    fn generate_produces_connected_graph() {
        let s = Scenario::generate(&small_params(1)).unwrap();
        assert!(s.graph().is_connected());
        assert_eq!(s.graph().len(), 61);
        assert_eq!(s.pu_positions().len(), 12);
        assert!(s.pcr() > s.params().phy.su_radius());
    }

    #[test]
    fn generation_is_deterministic() {
        let a = Scenario::generate(&small_params(5)).unwrap();
        let b = Scenario::generate(&small_params(5)).unwrap();
        assert_eq!(a.su_positions(), b.su_positions());
        assert_eq!(a.pu_positions(), b.pu_positions());
    }

    #[test]
    fn impossible_connectivity_errors() {
        let p = ScenarioParams::builder()
            .num_sus(5)
            .num_pus(0)
            .area_side(500.0)
            .max_connectivity_attempts(3)
            .build();
        assert_eq!(
            Scenario::generate(&p).unwrap_err(),
            ScenarioError::Disconnected { attempts: 3 }
        );
    }

    #[test]
    fn empty_fault_plan_reproduces_reports_bit_for_bit() {
        // FaultsConfig::None and an explicit empty plan must both be
        // byte-identical to the fault-unaware path (report PartialEq
        // compares every float bit-exactly).
        let baseline = Scenario::generate(&small_params(3))
            .unwrap()
            .run(CollectionAlgorithm::Addc)
            .unwrap();
        let mut with_plan = small_params(3);
        with_plan.faults = crn_sim::FaultsConfig::Plan(crn_sim::FaultPlan::empty());
        let planned = Scenario::generate(&with_plan)
            .unwrap()
            .run(CollectionAlgorithm::Addc)
            .unwrap();
        assert_eq!(baseline, planned);
    }

    #[test]
    fn churn_scenario_passes_the_oracle_and_loses_accountably() {
        let mut p = small_params(4);
        p.faults = "churn:4".parse().unwrap();
        let s = Scenario::generate(&p).unwrap();
        let (o, oracle) = s.run_checked(CollectionAlgorithm::Addc).unwrap();
        assert!(oracle.is_clean());
        let r = &o.report;
        assert!(r.packets_delivered as u64 + r.packets_lost <= 60);
        if r.finished {
            assert_eq!(
                r.packets_delivered as u64 + r.packets_lost,
                60,
                "a finished run accounts for every packet"
            );
        }
        assert!(r.delivery_ratio() <= 1.0);
    }

    #[test]
    fn churn_workload_hits_every_algorithm() {
        // The schedule resolves from the master seed, so ADDC and the
        // baseline face the same crash script (how many packets each
        // loses still differs with their queue states — only the script
        // is shared). A heavy rate must visibly perturb both.
        let mut p = small_params(6);
        p.faults = "churn:25".parse().unwrap();
        let s = Scenario::generate(&p).unwrap();
        for alg in [CollectionAlgorithm::Addc, CollectionAlgorithm::Coolest] {
            let o = s.run(alg).unwrap();
            assert!(
                o.report.packets_lost + o.report.fault_aborts > 0,
                "{alg:?} saw no churn effect"
            );
        }
    }

    #[test]
    fn addc_collects_everything() {
        let s = Scenario::generate(&small_params(2)).unwrap();
        let o = s.run(CollectionAlgorithm::Addc).unwrap();
        assert!(o.report.finished);
        assert_eq!(o.report.packets_delivered, 60);
        assert_eq!(o.tree_kind, TreeKind::Cds);
        assert!(o.tree_height >= 1);
    }

    #[test]
    fn coolest_collects_everything() {
        let s = Scenario::generate(&small_params(2)).unwrap();
        let o = s.run(CollectionAlgorithm::Coolest).unwrap();
        assert!(o.report.finished);
        assert_eq!(o.report.packets_delivered, 60);
        assert_eq!(o.tree_kind, TreeKind::Custom);
    }

    #[test]
    fn bfs_tree_collects_everything() {
        let s = Scenario::generate(&small_params(2)).unwrap();
        let o = s.run(CollectionAlgorithm::BfsTree).unwrap();
        assert!(o.report.finished);
        assert_eq!(o.report.packets_delivered, 60);
        assert_eq!(o.tree_kind, TreeKind::Bfs);
    }

    #[test]
    fn runs_share_the_deployment_across_algorithms() {
        let s = Scenario::generate(&small_params(3)).unwrap();
        let addc = s.tree(CollectionAlgorithm::Addc).unwrap();
        let cool = s.tree(CollectionAlgorithm::Coolest).unwrap();
        assert_eq!(addc.len(), cool.len());
    }

    const ALGORITHMS: [CollectionAlgorithm; 4] = [
        CollectionAlgorithm::Addc,
        CollectionAlgorithm::Coolest,
        CollectionAlgorithm::CoolestOracle,
        CollectionAlgorithm::BfsTree,
    ];

    #[test]
    fn run_and_run_checked_wrap_run_probed() {
        let s = Scenario::generate(&small_params(4)).unwrap();
        for alg in ALGORITHMS {
            let plain = s.run(alg).unwrap();
            let (probed, _noop) = s
                .run_probed(alg, Traffic::Snapshot, crn_sim::NoopProbe)
                .unwrap();
            assert_eq!(plain, probed, "{alg}: run != run_probed(Snapshot, Noop)");
            let (checked, _oracle) = s.run_checked(alg).unwrap();
            assert_eq!(plain, checked, "{alg}: run_checked perturbed the run");
        }
    }

    /// `snapshots` rounds of one packet per SU, one every `interval_slots`.
    fn continuous(s: &Scenario, interval_slots: f64, snapshots: u32) -> CollectionOutcome {
        let traffic = Traffic::Periodic {
            interval: interval_slots * s.params().mac.slot,
            snapshots,
        };
        s.run_probed(CollectionAlgorithm::Addc, traffic, crn_sim::NoopProbe)
            .unwrap()
            .0
    }

    #[test]
    fn continuous_collection_delivers_every_snapshot() {
        let s = Scenario::generate(&small_params(6)).unwrap();
        let o = continuous(&s, 2000.0, 3);
        assert!(o.report.finished);
        assert_eq!(o.report.packets_expected, 180);
        assert_eq!(o.report.packets_delivered, 180);
        // Steady-state capacity counts all snapshots.
        assert!(o.report.capacity_fraction() > 0.0);
    }

    #[test]
    fn tighter_intervals_raise_peak_queues() {
        let s = Scenario::generate(&small_params(7)).unwrap();
        let slow = continuous(&s, 5000.0, 3);
        let fast = continuous(&s, 50.0, 3);
        assert!(
            fast.report.peak_queue >= slow.report.peak_queue,
            "fast {} < slow {}",
            fast.report.peak_queue,
            slow.report.peak_queue
        );
    }

    #[test]
    fn traced_run_matches_plain_run() {
        let s = Scenario::generate(&small_params(8)).unwrap();
        let plain = s.run(CollectionAlgorithm::Addc).unwrap();
        let (traced, log) = s
            .run_probed(
                CollectionAlgorithm::Addc,
                Traffic::Snapshot,
                crn_sim::TraceLog::unbounded(),
            )
            .unwrap();
        assert_eq!(plain, traced, "tracing must not perturb the run");
        // Every delivery in the report appears as a Delivery event at the
        // recorded first-delivery time.
        let mut first = vec![None; plain.report.delivery_times.len()];
        for e in log.events() {
            if let crn_sim::TraceEventKind::Delivery { origin, .. } = e.kind {
                if first[origin as usize].is_none() {
                    first[origin as usize] = Some(e.time);
                }
            }
        }
        assert_eq!(first, plain.report.delivery_times);
    }

    #[test]
    fn checked_runs_are_invariant_clean() {
        use crn_sim::InterferenceModel;
        let s = Scenario::generate(&small_params(2)).unwrap();
        for alg in [CollectionAlgorithm::Addc, CollectionAlgorithm::Coolest] {
            let (o, oracle) = s.run_checked(alg).unwrap();
            assert!(o.report.finished, "{alg}");
            assert!(oracle.events_checked() > 0);
            assert!(oracle.is_clean());
        }
        // The oracle rechecks SIR under the *exact* model even when the
        // engine runs truncated tables — the Lemma-2 certificate holds.
        let mut b = ScenarioParams::builder();
        b.num_sus(60)
            .num_pus(12)
            .area_side(45.0)
            .seed(2)
            .interference(InterferenceModel::Truncated { epsilon: 0.1 });
        let t = Scenario::generate(&b.build()).unwrap();
        let (o, oracle) = t.run_checked(CollectionAlgorithm::Addc).unwrap();
        assert!(o.report.finished);
        assert!(oracle.is_clean());
    }

    #[test]
    fn worlds_are_cached_and_shared_across_runs() {
        let s = Scenario::generate(&small_params(2)).unwrap();
        let a = s.world(CollectionAlgorithm::Addc).unwrap();
        let b = s.world(CollectionAlgorithm::Addc).unwrap();
        assert!(Arc::ptr_eq(&a, &b), "same algorithm must share one world");
        let c = s.world(CollectionAlgorithm::Coolest).unwrap();
        assert!(!Arc::ptr_eq(&a, &c), "algorithms get distinct worlds");
        // A clone carries the cache but stays independent; runs agree.
        let o1 = s.run(CollectionAlgorithm::Addc).unwrap();
        let o2 = s.clone().run(CollectionAlgorithm::Addc).unwrap();
        assert_eq!(o1, o2);
    }

    #[test]
    fn truncated_interference_matches_exact_at_scaled_fig6_params() {
        use crn_sim::InterferenceModel;
        // Fig. 6 densities (n/A = 0.032, N/A = 0.0064) on a 62.5-side
        // region, paper phy/activity/MAC defaults throughout.
        for seed in [11, 12] {
            let mut b = ScenarioParams::builder();
            b.num_sus(125).num_pus(25).area_side(62.5).seed(seed);
            let exact = Scenario::generate(&b.build()).unwrap();
            b.interference(InterferenceModel::Truncated { epsilon: 0.1 });
            let truncated = Scenario::generate(&b.build()).unwrap();
            for alg in [CollectionAlgorithm::Addc, CollectionAlgorithm::Coolest] {
                let e = exact.run(alg).unwrap();
                let t = truncated.run(alg).unwrap();
                assert_eq!(e, t, "seed {seed}, {alg}");
            }
        }
    }

    #[test]
    fn recustomized_matches_fresh_generate_bitwise() {
        use crn_sim::InterferenceModel;
        for model in [
            InterferenceModel::Exact,
            InterferenceModel::Truncated { epsilon: 0.1 },
        ] {
            let mut base = small_params(9);
            base.interference = model;
            let s = Scenario::generate(&base).unwrap();
            // Populate the prepared cache so recustomization has worlds to
            // carry.
            s.run(CollectionAlgorithm::Addc).unwrap();
            s.run(CollectionAlgorithm::Coolest).unwrap();

            // Radio-only delta: SU transmit power.
            let mut next = base.clone();
            next.phy = crn_interference::PhyParams::builder()
                .su_power(25.0)
                .build()
                .unwrap();
            assert_eq!(next.topology_key(), base.topology_key());
            let cheap = s.recustomized(&next).unwrap();
            let fresh = Scenario::generate(&next).unwrap();
            assert_eq!(cheap.su_positions(), fresh.su_positions());
            for alg in [CollectionAlgorithm::Addc, CollectionAlgorithm::Coolest] {
                assert_eq!(
                    cheap.run(alg).unwrap(),
                    fresh.run(alg).unwrap(),
                    "{alg}: recustomized run diverged from a fresh generate"
                );
            }
            // The carried worlds share the original topology allocation.
            let old_world = s.world(CollectionAlgorithm::Addc).unwrap();
            let new_world = cheap.world(CollectionAlgorithm::Addc).unwrap();
            assert!(Arc::ptr_eq(old_world.topology(), new_world.topology()));
        }
    }

    #[test]
    fn recustomized_rebuilds_heat_trees_when_their_inputs_move() {
        // A duty-cycle change leaves structural trees alone but changes
        // the Coolest heat field: the carried scenario must still match a
        // fresh generate for every algorithm.
        let base = small_params(10);
        let s = Scenario::generate(&base).unwrap();
        s.run(CollectionAlgorithm::Addc).unwrap();
        s.run(CollectionAlgorithm::Coolest).unwrap();
        let mut next = base.clone();
        next.activity = crn_spectrum::PuActivity::bernoulli(0.45).unwrap();
        let cheap = s.recustomized(&next).unwrap();
        let fresh = Scenario::generate(&next).unwrap();
        for alg in [CollectionAlgorithm::Addc, CollectionAlgorithm::Coolest] {
            assert_eq!(cheap.run(alg).unwrap(), fresh.run(alg).unwrap(), "{alg}");
        }
    }

    #[test]
    fn recustomized_falls_back_to_generate_on_topology_change() {
        let base = small_params(11);
        let s = Scenario::generate(&base).unwrap();
        let mut next = base.clone();
        next.num_sus += 5;
        assert_ne!(next.topology_key(), base.topology_key());
        let rebuilt = s.recustomized(&next).unwrap();
        let fresh = Scenario::generate(&next).unwrap();
        assert_eq!(rebuilt.su_positions(), fresh.su_positions());
        assert_eq!(
            rebuilt.run(CollectionAlgorithm::Addc).unwrap(),
            fresh.run(CollectionAlgorithm::Addc).unwrap()
        );
    }

    #[test]
    fn delay_bounds_equal_a_direct_compute() {
        let s = Scenario::generate(&small_params(5)).unwrap();
        let p = s.params();
        let tree = s.tree(CollectionAlgorithm::Addc).unwrap();
        let direct = DelayBounds::compute(
            &p.phy,
            p.pcr_constants,
            p.pu_density(),
            p.activity.duty_cycle(),
            p.num_sus,
            p.area_side * p.area_side / p.num_sus as f64,
            tree.max_degree(),
            tree.root_degree(),
        )
        .unwrap();
        // Debug prints each f64 in shortest round-trip form, so equal
        // strings mean equal bits.
        assert_eq!(
            format!("{:?}", s.delay_bounds().unwrap()),
            format!("{direct:?}")
        );
    }

    #[test]
    fn saturated_primary_network_has_no_delay_bounds() {
        let mut p = small_params(5);
        p.activity = crn_spectrum::PuActivity::bernoulli(1.0).unwrap();
        let s = Scenario::generate(&p).unwrap();
        assert_eq!(
            s.delay_bounds().unwrap_err(),
            ScenarioError::NoAccessOpportunity
        );
        // Without PUs nothing blocks access, whatever p_t says.
        p.num_pus = 0;
        let bounds = Scenario::generate(&p).unwrap().delay_bounds().unwrap();
        assert_eq!(bounds.p_o, 1.0);
    }

    #[test]
    fn algorithm_display_names() {
        assert_eq!(CollectionAlgorithm::Addc.to_string(), "ADDC");
        assert_eq!(CollectionAlgorithm::Coolest.to_string(), "Coolest");
        assert_eq!(CollectionAlgorithm::BfsTree.to_string(), "BFS-tree");
    }

    #[test]
    fn algorithm_parses_cli_and_display_spellings() {
        for alg in ALGORITHMS {
            let display: CollectionAlgorithm = alg.to_string().parse().unwrap();
            assert_eq!(display, alg, "display name must round-trip");
        }
        assert_eq!(
            "addc".parse::<CollectionAlgorithm>().unwrap(),
            CollectionAlgorithm::Addc
        );
        assert_eq!(
            "bfs".parse::<CollectionAlgorithm>().unwrap(),
            CollectionAlgorithm::BfsTree
        );
        assert!("magic".parse::<CollectionAlgorithm>().is_err());
    }

    #[test]
    fn error_display_and_source() {
        use std::error::Error;
        let e = ScenarioError::Disconnected { attempts: 2 };
        assert!(e.to_string().contains("2 attempts"));
        assert!(e.source().is_none());
        let e = ScenarioError::NoAccessOpportunity;
        assert!(e.to_string().starts_with("p_o = 0"), "{e}");
        assert!(e.source().is_none());
        let e: ScenarioError = TreeError::EmptyGraph.into();
        assert!(e.source().is_some());
    }
}
