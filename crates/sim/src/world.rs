use crate::config::InterferenceModel;
use crate::radio::{Radio, RadioParams};
use crate::topology::Topology;
use crn_geometry::{Point, Region};
use crn_interference::PhyParams;
use std::fmt;
use std::sync::Arc;

/// Errors from [`SimWorldBuilder::build`], [`crate::Topology::builder`],
/// and [`crate::Radio::customize`].
#[derive(Clone, Debug, PartialEq)]
pub enum WorldError {
    /// No secondary users were supplied (the base station is mandatory).
    NoSecondaryUsers,
    /// `parents.len()` must equal the number of SUs.
    ParentLengthMismatch {
        /// Supplied parents length.
        parents: usize,
        /// Number of SUs.
        sus: usize,
    },
    /// Node 0 (the base station) must have no parent; everyone else must
    /// have one.
    BadRootStructure {
        /// Offending node.
        node: u32,
    },
    /// A parent pointer referenced a node out of range or the node itself.
    BadParent {
        /// Child node.
        child: u32,
    },
    /// A child sits farther from its parent than the SU transmission
    /// radius `r`, so the link cannot exist.
    LinkTooLong {
        /// Child node.
        child: u32,
        /// Its parent.
        parent: u32,
        /// Actual distance.
        distance: f64,
    },
    /// A carrier-sensing range must be at least the SU transmission
    /// radius (a sensing range below `r` cannot even protect a node's own
    /// receiver).
    SenseRangeTooSmall {
        /// Which range (`"pu"` or `"su"`).
        which: &'static str,
        /// Supplied range.
        range: f64,
        /// SU radius `r`.
        r: f64,
    },
    /// The truncation budget fraction of
    /// [`InterferenceModel::Truncated`] must lie in `(0, 1)`.
    BadEpsilon {
        /// Supplied epsilon.
        epsilon: f64,
    },
    /// A node's parent chain never reaches the base station (node 0) —
    /// the parent pointers contain a cycle, so the "tree" would silently
    /// strand that node's traffic.
    UnreachableRoot {
        /// A node on the cycle (its chain revisits a node before
        /// reaching node 0).
        node: u32,
    },
    /// A sparse radio table would hold more entries than its `u32` row
    /// offsets can address; customization refuses rather than wrap.
    TableTooLarge {
        /// Which table.
        table: &'static str,
        /// The entries it would hold.
        entries: u64,
    },
    /// A position has a NaN or infinite coordinate: no distance to it is
    /// a number, so no gain or certificate could be.
    NonFinitePosition {
        /// Whose position (`"su"` or `"pu"`).
        which: &'static str,
        /// Its index among those nodes.
        index: u32,
    },
}

impl fmt::Display for WorldError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WorldError::NoSecondaryUsers => write!(f, "no secondary users supplied"),
            WorldError::ParentLengthMismatch { parents, sus } => {
                write!(f, "parents length {parents} does not match SU count {sus}")
            }
            WorldError::BadRootStructure { node } => {
                write!(
                    f,
                    "node {node} breaks the root structure (only node 0 is parentless)"
                )
            }
            WorldError::BadParent { child } => {
                write!(f, "node {child} has an invalid parent pointer")
            }
            WorldError::LinkTooLong {
                child,
                parent,
                distance,
            } => write!(
                f,
                "link {child} -> {parent} spans {distance:.3}, beyond the SU radius"
            ),
            WorldError::SenseRangeTooSmall { which, range, r } => {
                write!(
                    f,
                    "{which} sensing range {range} is below the SU transmission radius {r}"
                )
            }
            WorldError::BadEpsilon { epsilon } => {
                write!(f, "truncation epsilon must lie in (0, 1), got {epsilon}")
            }
            WorldError::UnreachableRoot { node } => {
                write!(
                    f,
                    "node {node}'s parent chain never reaches the base station (node 0): the parent pointers form a cycle"
                )
            }
            WorldError::TableTooLarge { table, entries } => write!(
                f,
                "the {table} table would hold {entries} entries, more than its u32 offsets address ({})",
                u32::MAX
            ),
            WorldError::NonFinitePosition { which, index } => {
                write!(f, "{which} {index} has a non-finite position")
            }
        }
    }
}

impl std::error::Error for WorldError {}

/// The world a [`crate::Simulator`] runs in: a thin view pairing an
/// immutable, `Arc`-shared [`Topology`] (positions, routing tree,
/// receiver slots, grid index) with a [`Radio`] customization (sensing
/// neighbor lists, path-gain tables, truncation cutoffs) derived from it.
///
/// The split follows the customizable-contraction-hierarchy recipe:
/// structure is built once per deployment, while
/// [`SimWorld::recustomize`] re-derives only the radio-dependent stages
/// a new [`RadioParams`] actually invalidates — the operation that makes
/// radio-only sweep points cheap.
///
/// The two sensing ranges are independent: `pu_sense_range` governs when
/// PU activity blocks/aborts an SU (ADDC and any legitimate CRN protocol
/// use the PCR here — PU protection is non-negotiable), while
/// `su_sense_range` governs SU↔SU carrier sensing (ADDC uses the PCR;
/// the Coolest baseline uses a conventional CSMA range and pays for it in
/// SIR collisions — exactly the coordination gap Lemma 3's PCR closes).
///
/// Node 0 is the base station: it has no parent and never transmits.
#[derive(Clone, Debug)]
pub struct SimWorld {
    topology: Arc<Topology>,
    radio: Radio,
}

/// Named-setter constructor for [`SimWorld`] assembling both phases in
/// one call — the porcelain over [`Topology::builder`] plus
/// [`Radio::customize`].
///
/// Start from [`SimWorld::builder`]; only `su_positions` and `parents`
/// are usually mandatory (validation rejects an empty network). Unset
/// fields default to: no PUs, [`PhyParams::paper_simulation_defaults`],
/// and carrier-sensing ranges equal to the SU transmission radius `r` —
/// the minimum customization accepts.
///
/// ```
/// use crn_geometry::{Point, Region};
/// use crn_sim::SimWorld;
///
/// let world = SimWorld::builder(Region::square(60.0))
///     .su_positions(vec![Point::new(5.0, 5.0), Point::new(12.0, 5.0)])
///     .parents(vec![None, Some(0)])
///     .sense_range(25.0)
///     .build()
///     .expect("valid chain");
/// assert_eq!(world.num_sus(), 2);
/// ```
#[derive(Clone, Debug)]
pub struct SimWorldBuilder {
    region: Region,
    su_positions: Vec<Point>,
    pu_positions: Vec<Point>,
    parents: Vec<Option<u32>>,
    phy: PhyParams,
    pu_sense_range: Option<f64>,
    su_sense_range: Option<f64>,
    interference: InterferenceModel,
}

impl SimWorldBuilder {
    fn new(region: Region) -> Self {
        Self {
            region,
            su_positions: Vec::new(),
            pu_positions: Vec::new(),
            parents: Vec::new(),
            phy: PhyParams::paper_simulation_defaults(),
            pu_sense_range: None,
            su_sense_range: None,
            interference: InterferenceModel::Exact,
        }
    }

    /// SU positions; index 0 is the base station.
    #[must_use]
    pub fn su_positions(mut self, sus: Vec<Point>) -> Self {
        self.su_positions = sus;
        self
    }

    /// PU positions (defaults to none).
    #[must_use]
    pub fn pu_positions(mut self, pus: Vec<Point>) -> Self {
        self.pu_positions = pus;
        self
    }

    /// Routing tree: `parents[0]` must be `None` (base station), every
    /// other entry `Some(p)` with the link no longer than the SU radius.
    #[must_use]
    pub fn parents(mut self, parents: Vec<Option<u32>>) -> Self {
        self.parents = parents;
        self
    }

    /// Physical-layer parameters (defaults to
    /// [`PhyParams::paper_simulation_defaults`]).
    #[must_use]
    pub fn phy(mut self, phy: PhyParams) -> Self {
        self.phy = phy;
        self
    }

    /// One carrier-sensing range for both PU and SU sensing — ADDC's
    /// configuration, where both equal the PCR `κ·r`.
    #[must_use]
    pub fn sense_range(mut self, range: f64) -> Self {
        self.pu_sense_range = Some(range);
        self.su_sense_range = Some(range);
        self
    }

    /// Range within which PU activity blocks or aborts an SU.
    #[must_use]
    pub fn pu_sense_range(mut self, range: f64) -> Self {
        self.pu_sense_range = Some(range);
        self
    }

    /// Range of SU↔SU carrier sensing (the Coolest baseline uses a
    /// conventional CSMA range here instead of the PCR).
    #[must_use]
    pub fn su_sense_range(mut self, range: f64) -> Self {
        self.su_sense_range = Some(range);
        self
    }

    /// Interference model (defaults to [`InterferenceModel::Exact`]).
    #[must_use]
    pub fn interference(mut self, model: InterferenceModel) -> Self {
        self.interference = model;
        self
    }

    /// Validates both phases and assembles the world.
    ///
    /// # Errors
    ///
    /// Returns a [`WorldError`] describing the first violated
    /// requirement — structural ones from the topology phase, then
    /// radio-dependent ones (epsilon, sensing ranges, link lengths) from
    /// the customization phase.
    pub fn build(self) -> Result<SimWorld, WorldError> {
        let topology = Topology::builder(self.region)
            .su_positions(self.su_positions)
            .pu_positions(self.pu_positions)
            .parents(self.parents)
            .build()?;
        let r = self.phy.su_radius();
        let params = RadioParams {
            phy: self.phy,
            pu_sense_range: self.pu_sense_range.unwrap_or(r),
            su_sense_range: self.su_sense_range.or(self.pu_sense_range).unwrap_or(r),
            interference: self.interference,
        };
        SimWorld::new(Arc::new(topology), params)
    }
}

impl SimWorld {
    /// Starts a [`SimWorldBuilder`] over `region`.
    #[must_use]
    pub fn builder(region: Region) -> SimWorldBuilder {
        SimWorldBuilder::new(region)
    }

    /// Pairs an existing topology with a fresh radio customization.
    ///
    /// # Errors
    ///
    /// Returns the [`WorldError`] of [`Radio::customize`].
    pub fn new(topology: Arc<Topology>, params: RadioParams) -> Result<Self, WorldError> {
        let radio = Radio::customize(&topology, &params)?;
        Ok(Self { topology, radio })
    }

    /// Re-derives the radio layer for `params` over the *same* shared
    /// topology, reusing every stage the new parameters do not
    /// invalidate. The result is guaranteed bit-identical to building a
    /// fresh world from the same inputs.
    ///
    /// # Errors
    ///
    /// Returns the [`WorldError`] of [`Radio::customize`].
    pub fn recustomize(&self, params: RadioParams) -> Result<Self, WorldError> {
        let radio = self.radio.recustomize(&self.topology, &params)?;
        Ok(Self {
            topology: self.topology.clone(),
            radio,
        })
    }

    /// The shared deployment structure.
    #[must_use]
    pub fn topology(&self) -> &Arc<Topology> {
        &self.topology
    }

    /// The radio customization layer.
    #[must_use]
    pub fn radio(&self) -> &Radio {
        &self.radio
    }

    /// The radio parameters this world was customized with.
    #[must_use]
    pub fn radio_params(&self) -> &RadioParams {
        self.radio.params()
    }

    /// Number of SUs including the base station.
    #[must_use]
    pub fn num_sus(&self) -> usize {
        self.topology.num_sus()
    }

    /// Number of PUs.
    #[must_use]
    pub fn num_pus(&self) -> usize {
        self.topology.num_pus()
    }

    /// Physical parameters.
    #[must_use]
    pub fn phy(&self) -> &PhyParams {
        &self.radio.params().phy
    }

    /// Range within which PU activity blocks or aborts an SU.
    #[must_use]
    pub fn pu_sense_range(&self) -> f64 {
        self.radio.params().pu_sense_range
    }

    /// Range of SU↔SU carrier sensing.
    #[must_use]
    pub fn su_sense_range(&self) -> f64 {
        self.radio.params().su_sense_range
    }

    /// Parent of `su` in the routing tree. Production code reads the
    /// engine's `cur_parent` overlay instead (identical until a fault
    /// re-parents someone); tests keep this direct accessor.
    #[cfg(test)]
    #[must_use]
    pub(crate) fn parent(&self, su: u32) -> Option<u32> {
        self.topology.parents()[su as usize]
    }

    /// Routing-tree parent pointers.
    #[must_use]
    pub fn parents(&self) -> &[Option<u32>] {
        self.topology.parents()
    }

    /// SU positions.
    #[must_use]
    pub fn su_positions(&self) -> &[Point] {
        self.topology.su_positions()
    }

    /// PU positions.
    #[must_use]
    pub fn pu_positions(&self) -> &[Point] {
        self.topology.pu_positions()
    }

    pub(crate) fn su_hears_su(&self, su: u32) -> &[u32] {
        self.radio.su_hears_su(su)
    }

    pub(crate) fn pu_fanout(&self, pu: usize) -> &[u32] {
        self.radio.pu_fanout(pu)
    }

    pub(crate) fn sensed_pus(&self, su: u32) -> (&[u32], &[u32]) {
        self.radio.sensed_pus(su)
    }

    pub(crate) fn receiver_slot(&self, su: u32) -> Option<u32> {
        self.topology.receiver_slot(su)
    }

    pub(crate) fn num_receiver_slots(&self) -> usize {
        self.topology.num_receiver_slots()
    }

    pub(crate) fn pu_gain(&self, pu: usize, slot: u32) -> f64 {
        self.radio.pu_gain(&self.topology, pu, slot)
    }

    #[inline]
    pub(crate) fn su_gain(&self, su: u32, slot: u32) -> f64 {
        self.radio.su_gain(&self.topology, su, slot)
    }

    /// The PUs a receiver slot serves, each PU's gain given by
    /// [`SimWorld::near_pu_gain`]: its base row (the PUs within its
    /// cutoff, ids ascending), then the ladder prefix its certificate's
    /// step serves under this world's budget, read off the ladder on each
    /// call. Every sum over them runs in that order. `None` in dense
    /// (exact) mode, where callers must sum over every PU.
    pub(crate) fn near_pus(&self, slot: u32) -> Option<(&[u32], &[u32])> {
        self.radio.near_pus(slot)
    }

    /// The gain from `pu`, a PU `slot` serves, recomputed from positions:
    /// [`SimWorld::pu_gain`] without looking `pu` up.
    #[inline]
    pub(crate) fn near_pu_gain(&self, pu: u32, slot: u32) -> f64 {
        self.radio.near_pu_gain(&self.topology, pu, slot)
    }

    /// Slot `slot`'s certified truncation budget `B_s = ε·p_s·g_min/η_s`:
    /// the most interference its truncated tables may leave out. `0.0` in
    /// exact mode. A pure function of the PHY and the tree.
    pub(crate) fn certified_budget(&self, slot: u32) -> f64 {
        self.radio.certified_budget(slot)
    }

    /// The interference model this world was customized with.
    #[must_use]
    pub fn interference_model(&self) -> InterferenceModel {
        self.radio.params().interference
    }

    /// Bytes held by the path-gain storage (dense tables, or the sparse
    /// cutoffs, base PU id rows, ladder steps and `ext` rows) — the memory
    /// the truncated model exists to shrink. A table shared with another
    /// world (after [`SimWorld::recustomize`]) counts in full for each.
    #[must_use]
    pub fn gain_table_bytes(&self) -> usize {
        self.radio.gain_table_bytes()
    }

    /// Per-slot SU cutoff radii, read without computing anything; `None`
    /// in exact mode.
    pub(crate) fn cutoffs(&self) -> Option<&[f64]> {
        self.radio.cutoffs()
    }

    /// Truncation diagnostics: per-slot `(cutoff radii, excluded-PU
    /// residual powers)`. A residual is a certified upper bound on the
    /// power every excluded PU delivers when all transmit at once: `P_p`
    /// times the bound of the first step of the slot's ladder that fits
    /// its budget, computed by this call (no residual is stored). `None`
    /// in exact mode.
    #[must_use]
    pub fn truncation_stats(&self) -> Option<(&[f64], Vec<f64>)> {
        self.radio.truncation_stats()
    }

    /// One 64-bit FNV-1a digest of every truncation table, bit for bit:
    /// cutoffs, the ladder steps (bounds and reaches), the `ext` and base
    /// PU id rows, offsets included. Those are all a truncated world
    /// stores: its served PUs and residuals are read off them. Builds that
    /// agree on every table agree on it. `None` in exact mode.
    #[must_use]
    pub fn tables_digest(&self) -> Option<u64> {
        self.radio.tables_digest()
    }

    /// Receiver SUs in slot order (the slot of `receivers()[s]` is `s`).
    #[must_use]
    pub fn receivers(&self) -> &[u32] {
        self.topology.receivers()
    }

    /// Signal power of `su` at its own parent. Like [`SimWorld::parent`],
    /// superseded in the engine by the overlay-aware computation; kept
    /// for tests pinning the gain tables.
    #[cfg(test)]
    pub(crate) fn link_signal(&self, su: u32) -> f64 {
        let parent = self.topology.parents()[su as usize].expect("non-root");
        let slot = self
            .topology
            .receiver_slot(parent)
            .expect("parents are receivers");
        self.phy().su_power() * self.su_gain(su, slot)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crn_interference::path_gain;

    fn phy() -> PhyParams {
        PhyParams::paper_simulation_defaults()
    }

    fn chain_world() -> SimWorld {
        // bs(0) <- 1 <- 2, spaced 7 apart, PCR 25, one PU at (50, 5).
        SimWorld::builder(Region::square(60.0))
            .su_positions(vec![
                Point::new(5.0, 5.0),
                Point::new(12.0, 5.0),
                Point::new(19.0, 5.0),
            ])
            .pu_positions(vec![Point::new(50.0, 5.0)])
            .parents(vec![None, Some(0), Some(1)])
            .phy(phy())
            .sense_range(25.0)
            .build()
            .unwrap()
    }

    #[test]
    fn builds_chain() {
        let w = chain_world();
        assert_eq!(w.num_sus(), 3);
        assert_eq!(w.num_pus(), 1);
        assert_eq!(w.parent(2), Some(1));
        assert_eq!(w.num_receiver_slots(), 2); // nodes 0 and 1 receive
    }

    #[test]
    fn hears_lists_are_symmetric() {
        let w = chain_world();
        for i in 0..w.num_sus() as u32 {
            for &j in w.su_hears_su(i) {
                assert!(w.su_hears_su(j).contains(&i));
                assert_ne!(i, j);
            }
        }
    }

    #[test]
    fn pu_fanout_contains_sus_within_pcr() {
        let w = chain_world();
        // PU at x=50; SU 2 at x=19 -> distance 31 > 25 (outside);
        // nothing is within 25 of the PU.
        assert!(w.pu_fanout(0).is_empty());
    }

    #[test]
    fn gains_match_distances() {
        let w = chain_world();
        let slot0 = w.receiver_slot(0).unwrap();
        // SU 1 is 7 away from node 0; alpha = 4.
        let expected = 7.0f64.powf(-4.0);
        assert!((w.su_gain(1, slot0) - expected).abs() < 1e-12);
        // Signal power of SU 1 at its parent.
        assert!((w.link_signal(1) - 10.0 * expected).abs() < 1e-12);
    }

    #[test]
    fn rejects_empty() {
        let e = SimWorld::builder(Region::square(1.0)).build().unwrap_err();
        assert_eq!(e, WorldError::NoSecondaryUsers);
    }

    #[test]
    fn rejects_parent_length_mismatch() {
        let e = SimWorld::builder(Region::square(10.0))
            .su_positions(vec![Point::new(1.0, 1.0)])
            .parents(vec![None, Some(0)])
            .phy(phy())
            .sense_range(25.0)
            .build()
            .unwrap_err();
        assert!(matches!(e, WorldError::ParentLengthMismatch { .. }));
    }

    #[test]
    fn rejects_rooted_non_zero() {
        let e = SimWorld::builder(Region::square(20.0))
            .su_positions(vec![Point::new(1.0, 1.0), Point::new(2.0, 1.0)])
            .parents(vec![Some(1), None])
            .phy(phy())
            .sense_range(25.0)
            .build()
            .unwrap_err();
        assert!(matches!(e, WorldError::BadRootStructure { .. }));
    }

    #[test]
    fn rejects_parent_cycle_detached_from_root() {
        // 1 → 2 → 1 passes every pointwise parent check but never reaches
        // the base station; snapshot generation would strand both nodes'
        // packets forever.
        let e = SimWorld::builder(Region::square(20.0))
            .su_positions(vec![
                Point::new(1.0, 1.0),
                Point::new(2.0, 1.0),
                Point::new(3.0, 1.0),
            ])
            .parents(vec![None, Some(2), Some(1)])
            .phy(phy())
            .sense_range(25.0)
            .build()
            .unwrap_err();
        assert!(matches!(e, WorldError::UnreachableRoot { .. }));
        assert!(e.to_string().contains("base station"), "{e}");
    }

    #[test]
    fn accepts_deep_chains_to_root() {
        // A long path 0 ← 1 ← 2 ← … exercises the memoized reach-root
        // walk (every prefix re-uses the previous chain's result).
        let n = 50usize;
        let sus: Vec<Point> = (0..n).map(|i| Point::new(1.0 + i as f64, 1.0)).collect();
        let parents: Vec<Option<u32>> = (0..n)
            .map(|i| if i == 0 { None } else { Some(i as u32 - 1) })
            .collect();
        let w = SimWorld::builder(Region::square(60.0))
            .su_positions(sus)
            .parents(parents)
            .phy(phy())
            .sense_range(25.0)
            .build()
            .unwrap();
        assert_eq!(w.num_sus(), n);
    }

    #[test]
    fn rejects_overlong_link() {
        let e = SimWorld::builder(Region::square(40.0))
            .su_positions(vec![Point::new(1.0, 1.0), Point::new(30.0, 1.0)])
            .parents(vec![None, Some(0)])
            .phy(phy())
            .sense_range(35.0)
            .build()
            .unwrap_err();
        assert!(matches!(e, WorldError::LinkTooLong { child: 1, .. }));
    }

    #[test]
    fn rejects_self_parent() {
        let e = SimWorld::builder(Region::square(20.0))
            .su_positions(vec![Point::new(1.0, 1.0), Point::new(2.0, 1.0)])
            .parents(vec![None, Some(1)])
            .phy(phy())
            .sense_range(25.0)
            .build()
            .unwrap_err();
        assert!(matches!(e, WorldError::BadParent { child: 1 }));
    }

    #[test]
    fn rejects_tiny_pcr() {
        let e = SimWorld::builder(Region::square(20.0))
            .su_positions(vec![Point::new(1.0, 1.0), Point::new(2.0, 1.0)])
            .parents(vec![None, Some(0)])
            .phy(phy())
            .sense_range(5.0)
            .build()
            .unwrap_err();
        assert!(matches!(e, WorldError::SenseRangeTooSmall { .. }));
    }

    #[test]
    fn builder_defaults_are_minimal_but_valid() {
        // Default phy + default sense ranges (= su radius) accept a
        // one-hop network whose link fits inside the radius.
        let w = SimWorld::builder(Region::square(20.0))
            .su_positions(vec![Point::new(1.0, 1.0), Point::new(4.0, 1.0)])
            .parents(vec![None, Some(0)])
            .build()
            .expect("defaults validate");
        assert_eq!(w.num_pus(), 0);
        assert!((w.pu_sense_range() - w.phy().su_radius()).abs() < 1e-12);
        assert!((w.su_sense_range() - w.phy().su_radius()).abs() < 1e-12);
    }

    #[test]
    fn worlds_share_one_topology_across_recustomizations() {
        let w = chain_world();
        let re = w
            .recustomize(w.radio_params().su_sense_range(30.0))
            .unwrap();
        assert!(Arc::ptr_eq(w.topology(), re.topology()));
        assert_eq!(re.su_sense_range(), 30.0);
        assert_eq!(re.pu_sense_range(), 25.0);
        // The original is untouched.
        assert_eq!(w.su_sense_range(), 25.0);
    }

    #[test]
    fn recustomized_world_matches_fresh_build() {
        for model in [
            InterferenceModel::Exact,
            InterferenceModel::Truncated { epsilon: 0.1 },
        ] {
            let base = grid_world(model);
            let mut b = PhyParams::builder();
            b.alpha(4.0)
                .pu_power(10.0)
                .su_power(20.0)
                .pu_radius(10.0)
                .su_radius(10.0)
                .pu_sir_threshold(phy().pu_sir_threshold())
                .su_sir_threshold(phy().su_sir_threshold());
            let new_phy = b.build().unwrap();
            let re = base.recustomize(base.radio_params().phy(new_phy)).unwrap();
            let fresh = grid_world_with_phy(model, new_phy);
            for su in 0..fresh.num_sus() as u32 {
                assert_eq!(re.su_hears_su(su), fresh.su_hears_su(su));
                for s in 0..fresh.num_receiver_slots() as u32 {
                    assert_eq!(re.su_gain(su, s).to_bits(), fresh.su_gain(su, s).to_bits());
                }
            }
            for pu in 0..fresh.num_pus() {
                for s in 0..fresh.num_receiver_slots() as u32 {
                    assert_eq!(re.pu_gain(pu, s).to_bits(), fresh.pu_gain(pu, s).to_bits());
                }
            }
            assert_eq!(re.truncation_stats(), fresh.truncation_stats());
        }
    }

    #[test]
    fn error_display_renders() {
        for e in [
            WorldError::NoSecondaryUsers,
            WorldError::ParentLengthMismatch { parents: 1, sus: 2 },
            WorldError::BadRootStructure { node: 3 },
            WorldError::BadParent { child: 4 },
            WorldError::LinkTooLong {
                child: 1,
                parent: 0,
                distance: 30.0,
            },
            WorldError::SenseRangeTooSmall {
                which: "su",
                range: 5.0,
                r: 10.0,
            },
            WorldError::BadEpsilon { epsilon: 1.5 },
            WorldError::UnreachableRoot { node: 2 },
            WorldError::TableTooLarge {
                table: "SU near-field",
                entries: 1 << 32,
            },
            WorldError::NonFinitePosition {
                which: "pu",
                index: 3,
            },
        ] {
            assert!(!e.to_string().is_empty());
        }
    }

    /// A 20×20 grid deployment (spacing 7, chain-to-corner parents) with
    /// PUs sprinkled on a coarser grid — big enough that truncation
    /// actually drops far-field pairs.
    fn grid_world_with_phy(model: InterferenceModel, phy: PhyParams) -> SimWorld {
        let cols = 20usize;
        let spacing = 7.0;
        let mut sus = Vec::new();
        let mut parents = Vec::new();
        for i in 0..cols * cols {
            let (row, col) = (i / cols, i % cols);
            sus.push(Point::new(
                col as f64 * spacing + 1.0,
                row as f64 * spacing + 1.0,
            ));
            parents.push(if i == 0 {
                None
            } else if col > 0 {
                Some((i - 1) as u32)
            } else {
                Some((i - cols) as u32)
            });
        }
        let side = cols as f64 * spacing + 2.0;
        let pus: Vec<Point> = (0..25)
            .map(|k| {
                Point::new(
                    (k % 5) as f64 * side / 5.0 + 10.0,
                    (k / 5) as f64 * side / 5.0 + 10.0,
                )
            })
            .collect();
        SimWorld::builder(Region::square(side))
            .su_positions(sus)
            .pu_positions(pus)
            .parents(parents)
            .phy(phy)
            .sense_range(24.0)
            .interference(model)
            .build()
            .unwrap()
    }

    fn grid_world(model: InterferenceModel) -> SimWorld {
        grid_world_with_phy(model, phy())
    }

    #[test]
    fn truncated_rejects_bad_epsilon() {
        for eps in [0.0, 1.0, -0.1, 2.0] {
            let e = SimWorld::builder(Region::square(20.0))
                .su_positions(vec![Point::new(1.0, 1.0), Point::new(4.0, 1.0)])
                .parents(vec![None, Some(0)])
                .interference(InterferenceModel::Truncated { epsilon: eps })
                .build()
                .unwrap_err();
            assert_eq!(e, WorldError::BadEpsilon { epsilon: eps });
        }
    }

    #[test]
    fn sparse_matches_dense_inside_the_cutoff() {
        let dense = grid_world(InterferenceModel::Exact);
        let sparse = grid_world(InterferenceModel::Truncated { epsilon: 0.1 });
        let (cutoffs, _) = sparse.truncation_stats().unwrap();
        assert_eq!(cutoffs.len(), sparse.num_receiver_slots());
        let cutoffs = cutoffs.to_vec();
        for s in 0..sparse.num_receiver_slots() as u32 {
            let rx = sparse.receivers()[s as usize];
            let q = sparse.su_positions()[rx as usize];
            for su in 0..sparse.num_sus() as u32 {
                let d = sparse.su_positions()[su as usize].distance(q);
                let got = sparse.su_gain(su, s);
                if d <= cutoffs[s as usize] {
                    let want = dense.su_gain(su, s);
                    assert!(
                        (got - want).abs() <= want * 1e-12,
                        "slot {s} su {su}: {got} vs {want}"
                    );
                } else {
                    assert_eq!(got, 0.0, "slot {s} su {su} beyond cutoff kept a gain");
                }
            }
            for pu in 0..sparse.num_pus() {
                let got = sparse.pu_gain(pu, s);
                if got != 0.0 {
                    let want = dense.pu_gain(pu, s);
                    assert!((got - want).abs() <= want * 1e-12);
                }
            }
        }
    }

    #[test]
    fn sparse_keeps_every_tree_link_and_self_gain() {
        let w = grid_world(InterferenceModel::Truncated { epsilon: 0.1 });
        for (i, &p) in w.parents().iter().enumerate() {
            if let Some(p) = p {
                assert!(w.link_signal(i as u32) > 0.0, "link {i} -> {p} truncated");
            }
        }
        // A transmitting receiver must jam its own slot (half-duplex).
        for s in 0..w.num_receiver_slots() as u32 {
            let rx = w.receivers()[s as usize];
            assert!(w.su_gain(rx, s) > 0.0, "slot {s} lost its self gain");
        }
    }

    #[test]
    fn sparse_truncation_error_is_certified() {
        // Brute force: for each slot, everything the sparse tables dropped
        // (SU side summed over the actual deployment restricted to any
        // su_sense_range-separated subset; PU side all-on) must fit inside
        // the epsilon budget.
        let epsilon = 0.1;
        let w = grid_world(InterferenceModel::Truncated { epsilon });
        let phy = *w.phy();
        let (cutoffs, residuals) = w.truncation_stats().unwrap();
        let (cutoffs, residuals) = (cutoffs.to_vec(), residuals.to_vec());
        let eta = phy.su_sir_threshold();
        for s in 0..w.num_receiver_slots() as u32 {
            let rx = w.receivers()[s as usize];
            let q = w.su_positions()[rx as usize];
            // Weakest-link margin of this slot.
            let mut floor = f64::INFINITY;
            for (i, &p) in w.parents().iter().enumerate() {
                if p == Some(rx) {
                    floor = floor.min(w.link_signal(i as u32));
                }
            }
            let budget = epsilon * floor / eta;

            // SU side: greedily pick the strongest far-field SUs that keep
            // pairwise separation >= su_sense_range — the worst concurrent
            // set the MAC allows from this deployment.
            let mut far: Vec<(f64, Point)> = w
                .su_positions()
                .iter()
                .map(|&p| (p.distance(q), p))
                .filter(|&(d, _)| d > cutoffs[s as usize])
                .collect();
            far.sort_unstable_by(|a, b| a.0.total_cmp(&b.0));
            let mut chosen: Vec<Point> = Vec::new();
            let mut su_sum = 0.0;
            for &(d, p) in &far {
                if chosen
                    .iter()
                    .all(|&c| c.distance(p) >= w.su_sense_range() - 1e-9)
                {
                    chosen.push(p);
                    su_sum += phy.su_power() * path_gain(d, phy.alpha());
                }
            }
            // PU side: every excluded PU on at once is exactly the stored
            // residual.
            let mut pu_sum = 0.0;
            for (k, &pu) in w.pu_positions().iter().enumerate() {
                if w.pu_gain(k, s) == 0.0 {
                    pu_sum += phy.pu_power() * path_gain(pu.distance(q), phy.alpha());
                }
            }
            assert!(
                pu_sum <= residuals[s as usize] + 1e-15,
                "slot {s}: stored residual underestimates the PU far field"
            );
            assert!(
                su_sum + pu_sum <= budget,
                "slot {s}: truncated field {su_sum} + {pu_sum} exceeds budget {budget}"
            );
        }
    }

    #[test]
    fn sparse_tables_are_much_smaller() {
        let dense = grid_world(InterferenceModel::Exact);
        let sparse = grid_world(InterferenceModel::Truncated { epsilon: 0.1 });
        assert_eq!(dense.interference_model(), InterferenceModel::Exact);
        assert!(sparse.gain_table_bytes() < dense.gain_table_bytes());
    }

    #[test]
    fn exact_world_reports_no_truncation() {
        let w = chain_world();
        assert!(w.truncation_stats().is_none());
        assert!(w.near_pus(0).is_none());
        assert!(w.gain_table_bytes() > 0);
    }

    #[test]
    fn sparse_near_pu_lists_are_sorted_and_consistent() {
        let w = grid_world(InterferenceModel::Truncated { epsilon: 0.1 });
        for s in 0..w.num_receiver_slots() as u32 {
            let (base, prefix) = w.near_pus(s).unwrap();
            assert!(
                base.windows(2).all(|w| w[0] < w[1]),
                "slot {s} base row unsorted"
            );
            let mut served = [base, prefix].concat();
            served.sort_unstable();
            served.dedup();
            assert_eq!(
                served.len(),
                base.len() + prefix.len(),
                "slot {s} serves a PU twice"
            );
            for k in 0..w.num_pus() as u32 {
                let want = if served.binary_search(&k).is_ok() {
                    w.near_pu_gain(k, s)
                } else {
                    0.0
                };
                assert_eq!(w.pu_gain(k as usize, s), want, "slot {s} pu {k}");
            }
        }
    }

    #[test]
    fn rejects_non_finite_positions() {
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let e = SimWorld::builder(Region::square(20.0))
                .su_positions(vec![Point::new(1.0, 1.0), Point::new(bad, 1.0)])
                .parents(vec![None, Some(0)])
                .build()
                .unwrap_err();
            assert_eq!(
                e,
                WorldError::NonFinitePosition {
                    which: "su",
                    index: 1
                }
            );
            let e = SimWorld::builder(Region::square(20.0))
                .su_positions(vec![Point::new(1.0, 1.0), Point::new(4.0, 1.0)])
                .pu_positions(vec![Point::new(5.0, bad)])
                .parents(vec![None, Some(0)])
                .build()
                .unwrap_err();
            assert_eq!(
                e,
                WorldError::NonFinitePosition {
                    which: "pu",
                    index: 0
                }
            );
        }
    }
}
