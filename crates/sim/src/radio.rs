//! The re-customizable radio half of a [`crate::SimWorld`].
//!
//! [`Radio::customize`] derives every radio-dependent table — sensing
//! neighbor lists, path-gain storage, truncation cutoffs, near-field PU
//! lists — from an immutable [`Topology`] and a [`RadioParams`]. Each
//! table is a *stage* stamped with the bit-pattern of exactly the inputs
//! it reads; [`Radio::recustomize`] re-derives only the stages whose
//! fingerprints changed and `Arc`-shares the rest, which is what makes a
//! radio-only sweep point cheap (the metric-customization phase of the
//! CCH-style split, see `DESIGN.md` §9).
//!
//! Every stage is a pure function of `(Topology, fingerprinted inputs)`,
//! so a reused stage is bit-identical to a freshly built one — the
//! equivalence the customize-vs-rebuild suite pins.

use crate::config::InterferenceModel;
use crate::topology::Topology;
use crate::world::WorldError;
use crn_interference::cutoff::{CutoffTable, FarFieldBound};
use crn_interference::{PathLoss, PhyParams};
use std::sync::Arc;

/// The radio-layer inputs of [`Radio::customize`]: everything about a
/// world that is *not* deployment structure.
///
/// The chainable setters make sweep deltas terse:
///
/// ```
/// use crn_interference::PhyParams;
/// use crn_sim::RadioParams;
///
/// let base = RadioParams::new(PhyParams::paper_simulation_defaults()).sense_range(25.0);
/// let wider = base.su_sense_range(30.0);
/// assert_eq!(wider.pu_sense_range, 25.0);
/// assert_eq!(wider.su_sense_range, 30.0);
/// ```
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RadioParams {
    /// Physical-layer parameters.
    pub phy: PhyParams,
    /// Range within which PU activity blocks or aborts an SU.
    pub pu_sense_range: f64,
    /// Range of SU↔SU carrier sensing.
    pub su_sense_range: f64,
    /// How path gains are materialized: dense `Exact` tables or sparse
    /// `Truncated` near-field lists with a certified error bound.
    pub interference: InterferenceModel,
}

impl RadioParams {
    /// Radio parameters with both sensing ranges at the SU radius `r`
    /// (the minimum customization accepts) and dense exact gains.
    #[must_use]
    pub fn new(phy: PhyParams) -> Self {
        let r = phy.su_radius();
        Self {
            phy,
            pu_sense_range: r,
            su_sense_range: r,
            interference: InterferenceModel::Exact,
        }
    }

    /// Returns a copy with both sensing ranges set to `range`.
    #[must_use]
    pub fn sense_range(mut self, range: f64) -> Self {
        self.pu_sense_range = range;
        self.su_sense_range = range;
        self
    }

    /// Returns a copy with the PU sensing range set.
    #[must_use]
    pub fn pu_sense_range(mut self, range: f64) -> Self {
        self.pu_sense_range = range;
        self
    }

    /// Returns a copy with the SU sensing range set.
    #[must_use]
    pub fn su_sense_range(mut self, range: f64) -> Self {
        self.su_sense_range = range;
        self
    }

    /// Returns a copy with the interference model set.
    #[must_use]
    pub fn interference(mut self, model: InterferenceModel) -> Self {
        self.interference = model;
        self
    }

    /// Returns a copy with the physical parameters replaced.
    #[must_use]
    pub fn phy(mut self, phy: PhyParams) -> Self {
        self.phy = phy;
        self
    }
}

/// Rows of ids in one flat array (CSR): row `i` is
/// `ids[off[i]..off[i + 1]]`. One allocation per table instead of one
/// per row.
#[derive(Debug)]
struct IdRows {
    off: Vec<u32>,
    ids: Vec<u32>,
}

impl IdRows {
    /// Builds `rows` rows, `fill(i, ids)` appending row `i`'s ids, which
    /// are then sorted ascending.
    fn collect(
        table: &'static str,
        rows: usize,
        mut fill: impl FnMut(usize, &mut Vec<u32>),
    ) -> Result<Self, WorldError> {
        let mut off = Vec::with_capacity(rows + 1);
        off.push(0u32);
        let mut ids = Vec::new();
        for i in 0..rows {
            let start = ids.len();
            fill(i, &mut ids);
            ids[start..].sort_unstable();
            off.push(offset(table, ids.len())?);
        }
        Ok(Self { off, ids })
    }

    fn row(&self, i: usize) -> &[u32] {
        &self.ids[self.off[i] as usize..self.off[i + 1] as usize]
    }
}

/// `len` entries as a `u32` CSR offset, or the error naming `table` once
/// the entries no longer fit: a wrapped offset would silently alias rows.
fn offset(table: &'static str, len: usize) -> Result<u32, WorldError> {
    u32::try_from(len).map_err(|_| WorldError::TableTooLarge {
        table,
        entries: len as u64,
    })
}

/// Prefix-sums row lengths into CSR offsets in place: on entry `off[0]`
/// is 0 and `off[i + 1]` is row `i`'s length; on success `off[i]` is
/// where row `i` starts and the entry count is returned. The total is
/// summed in `u64` and refused past `u32::MAX` before anything is
/// written, so a caller learns it before allocating the table.
fn prefix_offsets(table: &'static str, off: &mut [u32]) -> Result<usize, WorldError> {
    let entries: u64 = off.iter().map(|&len| u64::from(len)).sum();
    if u32::try_from(entries).is_err() {
        return Err(WorldError::TableTooLarge { table, entries });
    }
    let mut end = 0u32;
    for o in off.iter_mut() {
        end += *o;
        *o = end;
    }
    Ok(end as usize)
}

/// Carrier-sensing neighbor lists; inputs: both sensing ranges.
#[derive(Debug)]
struct SenseStage {
    /// `(pu_sense_range, su_sense_range)` bit patterns.
    key: (u64, u64),
    /// For each SU, the other SUs within its SU sensing range.
    su_hears_su: IdRows,
    /// For each PU, the SUs whose PU sensing range contains it.
    pu_fanout: IdRows,
    /// Transpose of `pu_fanout`: for each SU, every PU whose fanout holds
    /// it...
    sensed_pu: IdRows,
    /// ...and its position in that PU's fanout row, aligned with
    /// `sensed_pu.ids` — what the engine's per-PU listener bitsets index.
    sensed_pos: Vec<u32>,
}

/// Dense path-gain tables (`Exact` model); input: `alpha` only — the
/// engine multiplies by transmit powers at run time, so a power-only
/// re-customization reuses these wholesale.
#[derive(Debug)]
struct DenseStage {
    /// `alpha` bit pattern.
    key: u64,
    slots: usize,
    /// PU → receiver gains, `pu * slots + slot`.
    pu_gain: Vec<f64>,
    /// SU → receiver gains, `su * slots + slot`.
    su_gain: Vec<f64>,
}

/// Per-slot weakest-link *gain* floor (no power factor, so the stage
/// survives power sweeps); input: `alpha`.
#[derive(Debug)]
struct GminStage {
    /// `alpha` bit pattern.
    key: u64,
    /// `min` over the slot's children of `path_gain(link, alpha)`.
    g_min: Vec<f64>,
}

/// Fingerprint of everything the truncation *structure* (cutoff radii,
/// and with them the near-field membership lists) reads. Transmit powers
/// are deliberately absent: the cutoff budget is computed in normalized
/// gain space (`0.5·ε·g_min/η_s`), so the SU-side cutoffs are
/// power-invariant by construction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct StructureKey {
    alpha: u64,
    su_radius: u64,
    su_sense: u64,
    epsilon: u64,
    eta_s: u64,
}

/// Per-slot truncation cutoff radii.
#[derive(Debug)]
struct CutoffStage {
    key: StructureKey,
    cutoff: Vec<f64>,
}

/// Transmitter-major SU→slot CSR of near-field gains.
#[derive(Debug)]
struct SuCsrStage {
    key: StructureKey,
    /// Row offsets, length `n + 1`.
    su_off: Vec<u32>,
    /// Receiver slots per SU row, ascending.
    su_slot: Vec<u32>,
    /// Gains aligned with `su_slot`.
    su_gain: Vec<f64>,
}

impl SuCsrStage {
    fn bytes(&self) -> usize {
        (self.su_off.len() + self.su_slot.len()) * 4 + self.su_gain.len() * 8
    }
}

/// Receiver-major near-field PU lists: row `s` holds the PUs slot `s`
/// keeps, ids ascending, with their precomputed gains.
#[derive(Debug)]
struct PuLists {
    off: Vec<u32>,
    id: Vec<u32>,
    gain: Vec<f64>,
}

impl PuLists {
    fn row(&self, s: usize) -> (&[u32], &[f64]) {
        let lo = self.off[s] as usize;
        let hi = self.off[s + 1] as usize;
        (&self.id[lo..hi], &self.gain[lo..hi])
    }

    fn bytes(&self) -> usize {
        (self.off.len() + self.id.len()) * 4 + self.gain.len() * 8
    }
}

/// The budget-independent part of the near-field PU lists, plus a pulled
/// far-field prefix deep enough for the budgets it was built under.
///
/// Per slot: the PUs inside the cutoff (`base`, ids ascending), the
/// nearest far-field PUs pulled to meet the PU-side budget (`ext_*`, in
/// pull order), and the *exclusion levels* `level[k]` — the exact summed
/// far-field gain left outside after pulling `k` PUs. A looser budget
/// re-derives its pull count by a pure `partition_point` over the stored
/// levels, bit-identical to a fresh build; a tighter budget that needs a
/// deeper prefix rebuilds the structure.
#[derive(Debug)]
struct PuStructure {
    key: StructureKey,
    /// `Arc`-shared: when no slot pulls, [`ServedPu`] serves these very
    /// lists instead of a copy.
    base: Arc<PuLists>,
    ext_off: Vec<u32>,
    ext_id: Vec<u32>,
    ext_gain: Vec<f64>,
    /// Row offsets into `level`; row `s` has `ext` row length + 1 values.
    lvl_off: Vec<u32>,
    level: Vec<f64>,
}

impl PuStructure {
    fn levels(&self, s: usize) -> &[f64] {
        &self.level[self.lvl_off[s] as usize..self.lvl_off[s + 1] as usize]
    }

    fn ext(&self, s: usize) -> (&[u32], &[f64]) {
        let lo = self.ext_off[s] as usize;
        let hi = self.ext_off[s + 1] as usize;
        (&self.ext_id[lo..hi], &self.ext_gain[lo..hi])
    }

    /// Each slot's pull count under `threshold`, or `None` when some slot
    /// needs a deeper pulled prefix than this structure holds (the caller
    /// then rebuilds it).
    fn pull_counts(&self, threshold: &[f64]) -> Option<Vec<u32>> {
        let mut pulls = Vec::with_capacity(threshold.len());
        for (s, &t) in threshold.iter().enumerate() {
            let levels = self.levels(s);
            // Levels are non-increasing, so the first one at or below the
            // threshold is the canonical pull count.
            let k = levels.partition_point(|&v| v > t);
            if k == levels.len() {
                return None;
            }
            pulls.push(k as u32);
        }
        Some(pulls)
    }

    fn bytes(&self) -> usize {
        self.base.bytes()
            + (self.ext_off.len() + self.ext_id.len() + self.lvl_off.len()) * 4
            + (self.ext_gain.len() + self.level.len()) * 8
    }
}

/// The served near-field PU lists for one vector of pull counts, plus
/// their transmitter-major transpose. Both are a pure function of the
/// [`PuStructure`] and the counts, so radios that agree on every count
/// share one copy; only the power-scaled residual is per radio.
#[derive(Debug)]
struct ServedPu {
    /// Slot `s` serves its base row plus the first `pulls[s]` pulled PUs,
    /// ids ascending. When no slot pulls, this is the structure's `base`.
    lists: Arc<PuLists>,
    rev: PuRevStage,
}

impl ServedPu {
    fn new(num_pus: usize, structure: &PuStructure, pulls: &[u32]) -> Result<Self, WorldError> {
        let lists = if pulls.iter().all(|&k| k == 0) {
            structure.base.clone()
        } else {
            Arc::new(merge_pulled(structure, pulls)?)
        };
        let rev = PuRevStage::from_lists(num_pus, &lists);
        Ok(Self { lists, rev })
    }

    /// Whether these lists serve exactly `pulls` over `structure`, the
    /// structure they were built from. A served row is its base row plus
    /// its pulled PUs, which the cutoff keeps disjoint.
    fn serves(&self, structure: &PuStructure, pulls: &[u32]) -> bool {
        pulls
            .iter()
            .enumerate()
            .all(|(s, &k)| self.lists.row(s).0.len() == structure.base.row(s).0.len() + k as usize)
    }
}

/// Transmitter-major transpose of the served near-field PU lists: for
/// each PU, the receiver slots whose near lists keep it, with the same
/// precomputed gains (slots ascending per row).
///
/// Together with the transmitter-major rows of [`SuCsrStage`] this is
/// the reverse index the engine's delta path walks: turning a PU on or
/// off (or starting/ending an SU transmission) touches exactly one row
/// instead of scanning every active reception, and the row carries the
/// gains so the event loop never calls `pu_gain`/`su_gain`.
#[derive(Debug)]
struct PuRevStage {
    pu_off: Vec<u32>,
    pu_slot: Vec<u32>,
    pu_gain: Vec<f64>,
}

impl PuRevStage {
    /// Transposes receiver-major [`PuLists`] (O(nnz) counting scatter).
    fn from_lists(num_pus: usize, lists: &PuLists) -> Self {
        let (pu_off, pu_slot, pu_gain) =
            crate::topology::transpose_csr(num_pus, &lists.off, &lists.id, &lists.gain);
        Self {
            pu_off,
            pu_slot,
            pu_gain,
        }
    }

    fn bytes(&self) -> usize {
        (self.pu_off.len() + self.pu_slot.len()) * 4 + self.pu_gain.len() * 8
    }
}

/// Sparse gain stages (`Truncated` model).
#[derive(Clone, Debug)]
struct SparseRadio {
    gmin: Arc<GminStage>,
    cutoff: Arc<CutoffStage>,
    su: Arc<SuCsrStage>,
    structure: Arc<PuStructure>,
    served: Arc<ServedPu>,
    /// Per-slot exact received power if every excluded PU transmitted at
    /// once (the certified PU-side truncation error).
    pu_residual: Arc<[f64]>,
}

#[derive(Clone, Debug)]
enum RadioGains {
    Dense(Arc<DenseStage>),
    Sparse(SparseRadio),
}

/// The radio-dependent tables of a [`crate::SimWorld`], derived from an
/// immutable [`Topology`] by [`Radio::customize`] and cheaply re-derived
/// by [`Radio::recustomize`] when only some inputs change.
#[derive(Clone, Debug)]
pub struct Radio {
    params: RadioParams,
    sense: Arc<SenseStage>,
    gains: RadioGains,
}

impl Radio {
    /// Derives every radio-dependent table from scratch.
    ///
    /// # Errors
    ///
    /// Returns a [`WorldError`] for an invalid truncation epsilon, a
    /// sensing range below the SU radius, a tree link longer than the SU
    /// radius, or a table with more entries than its `u32` offsets
    /// address.
    pub fn customize(topology: &Topology, params: &RadioParams) -> Result<Self, WorldError> {
        Self::customize_from(topology, params, None)
    }

    /// Like [`Radio::customize`], but reuses (by `Arc` clone) every stage
    /// of `self` whose fingerprinted inputs are bit-identical under the
    /// new parameters. The result is guaranteed bit-identical to a fresh
    /// [`Radio::customize`].
    ///
    /// # Errors
    ///
    /// Same as [`Radio::customize`].
    pub fn recustomize(
        &self,
        topology: &Topology,
        params: &RadioParams,
    ) -> Result<Self, WorldError> {
        Self::customize_from(topology, params, Some(self))
    }

    fn customize_from(
        topology: &Topology,
        params: &RadioParams,
        prev: Option<&Radio>,
    ) -> Result<Self, WorldError> {
        let phy = &params.phy;
        let r = phy.su_radius();
        if let InterferenceModel::Truncated { epsilon } = params.interference {
            if !(epsilon > 0.0 && epsilon < 1.0) {
                return Err(WorldError::BadEpsilon { epsilon });
            }
        }
        if params.pu_sense_range < r {
            return Err(WorldError::SenseRangeTooSmall {
                which: "pu",
                range: params.pu_sense_range,
                r,
            });
        }
        if params.su_sense_range < r {
            return Err(WorldError::SenseRangeTooSmall {
                which: "su",
                range: params.su_sense_range,
                r,
            });
        }
        for (i, &d) in topology.link_dist().iter().enumerate().skip(1) {
            if d > r + 1e-9 {
                return Err(WorldError::LinkTooLong {
                    child: i as u32,
                    parent: topology.parents()[i].expect("non-root nodes have parents"),
                    distance: d,
                });
            }
        }

        let sense_key = (
            params.pu_sense_range.to_bits(),
            params.su_sense_range.to_bits(),
        );
        let sense = match prev {
            Some(p) if p.sense.key == sense_key => p.sense.clone(),
            _ => Arc::new(build_sense(topology, params)?),
        };

        let alpha_key = phy.alpha().to_bits();
        let gains = match params.interference {
            InterferenceModel::Exact => {
                let dense = match prev.map(|p| &p.gains) {
                    Some(RadioGains::Dense(d)) if d.key == alpha_key => d.clone(),
                    _ => Arc::new(build_dense(topology, phy.alpha())),
                };
                RadioGains::Dense(dense)
            }
            InterferenceModel::Truncated { epsilon } => {
                let prev_sparse = match prev.map(|p| &p.gains) {
                    Some(RadioGains::Sparse(s)) => Some(s),
                    _ => None,
                };
                let gmin = match prev_sparse {
                    Some(p) if p.gmin.key == alpha_key => p.gmin.clone(),
                    _ => Arc::new(build_gmin(topology, phy.alpha())),
                };
                let skey = StructureKey {
                    alpha: alpha_key,
                    su_radius: r.to_bits(),
                    su_sense: params.su_sense_range.to_bits(),
                    epsilon: epsilon.to_bits(),
                    eta_s: phy.su_sir_threshold().to_bits(),
                };
                let cutoff = match prev_sparse {
                    Some(p) if p.cutoff.key == skey => p.cutoff.clone(),
                    _ => Arc::new(build_cutoffs(topology, params, epsilon, &gmin.g_min, skey)),
                };
                let su = match prev_sparse {
                    Some(p) if p.su.key == skey => p.su.clone(),
                    _ => Arc::new(build_su_csr(topology, phy.alpha(), &cutoff.cutoff, skey)?),
                };
                // PU-side exclusion threshold per slot, in gain space:
                // `p_p · excluded ≤ 0.5·ε·(p_s·g_min)/η_s` rearranged so
                // the comparison against the stored levels is power-free.
                let threshold: Vec<f64> = gmin
                    .g_min
                    .iter()
                    .map(|&g| {
                        0.5 * epsilon * phy.su_power() * g
                            / (phy.su_sir_threshold() * phy.pu_power())
                    })
                    .collect();
                let reused = prev_sparse
                    .filter(|p| p.structure.key == skey)
                    .and_then(|p| {
                        Some((p.structure.clone(), p.structure.pull_counts(&threshold)?))
                    });
                let (structure, pulls) = match reused {
                    Some(reused) => reused,
                    None => {
                        let structure = build_pu_structure(
                            topology,
                            phy.alpha(),
                            &cutoff.cutoff,
                            &threshold,
                            skey,
                        )?;
                        let pulls = structure
                            .pull_counts(&threshold)
                            .expect("a freshly built structure covers its own budgets");
                        (Arc::new(structure), pulls)
                    }
                };
                // Served lists depend only on the structure and the pull
                // counts, so a radio that agrees with its predecessor on
                // both keeps its lists and reverse index.
                let served = match prev_sparse {
                    Some(p)
                        if Arc::ptr_eq(&p.structure, &structure)
                            && p.served.serves(&structure, &pulls) =>
                    {
                        p.served.clone()
                    }
                    _ => Arc::new(ServedPu::new(topology.num_pus(), &structure, &pulls)?),
                };
                let pu_residual = pulls
                    .iter()
                    .enumerate()
                    .map(|(s, &k)| phy.pu_power() * structure.levels(s)[k as usize])
                    .collect();
                RadioGains::Sparse(SparseRadio {
                    gmin,
                    cutoff,
                    su,
                    structure,
                    served,
                    pu_residual,
                })
            }
        };

        Ok(Self {
            params: *params,
            sense,
            gains,
        })
    }

    /// The parameters this radio was customized with.
    #[must_use]
    pub fn params(&self) -> &RadioParams {
        &self.params
    }

    pub(crate) fn su_hears_su(&self, su: u32) -> &[u32] {
        self.sense.su_hears_su.row(su as usize)
    }

    pub(crate) fn pu_fanout(&self, pu: usize) -> &[u32] {
        self.sense.pu_fanout.row(pu)
    }

    /// The PUs `su` senses (ids ascending) and, aligned with them, `su`'s
    /// position in each one's [`Radio::pu_fanout`] row.
    pub(crate) fn sensed_pus(&self, su: u32) -> (&[u32], &[u32]) {
        let sensed = &self.sense.sensed_pu;
        let lo = sensed.off[su as usize] as usize;
        let hi = sensed.off[su as usize + 1] as usize;
        (&sensed.ids[lo..hi], &self.sense.sensed_pos[lo..hi])
    }

    pub(crate) fn pu_gain(&self, pu: usize, slot: u32) -> f64 {
        match &self.gains {
            RadioGains::Dense(d) => d.pu_gain[pu * d.slots + slot as usize],
            RadioGains::Sparse(s) => {
                let (ids, gains) = s.served.lists.row(slot as usize);
                match ids.binary_search(&(pu as u32)) {
                    Ok(idx) => gains[idx],
                    Err(_) => 0.0,
                }
            }
        }
    }

    pub(crate) fn su_gain(&self, su: u32, slot: u32) -> f64 {
        match &self.gains {
            RadioGains::Dense(d) => d.su_gain[su as usize * d.slots + slot as usize],
            RadioGains::Sparse(s) => {
                let csr = &s.su;
                let lo = csr.su_off[su as usize] as usize;
                let hi = csr.su_off[su as usize + 1] as usize;
                match csr.su_slot[lo..hi].binary_search(&slot) {
                    Ok(idx) => csr.su_gain[lo + idx],
                    Err(_) => 0.0,
                }
            }
        }
    }

    pub(crate) fn near_pus(&self, slot: u32) -> Option<(&[u32], &[f64])> {
        match &self.gains {
            RadioGains::Dense(_) => None,
            RadioGains::Sparse(s) => Some(s.served.lists.row(slot as usize)),
        }
    }

    /// Whether this radio carries the transmitter-indexed reverse rows
    /// (`who_hears_su`/`who_hears_pu`) the delta engine needs.
    pub(crate) fn has_reverse_index(&self) -> bool {
        matches!(self.gains, RadioGains::Sparse(_))
    }

    /// The receiver slots that hear `su` in the sparse near-field
    /// tables, with precomputed gains (slots ascending) — row `su` of
    /// the transmitter-major SU CSR. `None` in dense mode.
    pub(crate) fn who_hears_su(&self, su: u32) -> Option<(&[u32], &[f64])> {
        match &self.gains {
            RadioGains::Dense(_) => None,
            RadioGains::Sparse(s) => {
                let csr = &s.su;
                let lo = csr.su_off[su as usize] as usize;
                let hi = csr.su_off[su as usize + 1] as usize;
                Some((&csr.su_slot[lo..hi], &csr.su_gain[lo..hi]))
            }
        }
    }

    /// The receiver slots whose near lists keep PU `pu`, with
    /// precomputed gains (slots ascending) — row `pu` of the reverse
    /// PU index. `None` in dense mode.
    pub(crate) fn who_hears_pu(&self, pu: usize) -> Option<(&[u32], &[f64])> {
        match &self.gains {
            RadioGains::Dense(_) => None,
            RadioGains::Sparse(s) => {
                let rev = &s.served.rev;
                let lo = rev.pu_off[pu] as usize;
                let hi = rev.pu_off[pu + 1] as usize;
                Some((&rev.pu_slot[lo..hi], &rev.pu_gain[lo..hi]))
            }
        }
    }

    pub(crate) fn truncation_stats(&self) -> Option<(&[f64], &[f64])> {
        match &self.gains {
            RadioGains::Dense(_) => None,
            RadioGains::Sparse(s) => Some((&s.cutoff.cutoff, &s.pu_residual)),
        }
    }

    /// Bytes this radio holds in gain tables. A table shared between
    /// stages (the served PU lists are the structure's base lists when no
    /// slot pulls) counts once; tables shared with another radio count
    /// in full for each, since each holds them.
    pub(crate) fn gain_table_bytes(&self) -> usize {
        match &self.gains {
            RadioGains::Dense(d) => (d.pu_gain.len() + d.su_gain.len()) * 8,
            RadioGains::Sparse(s) => {
                let served_lists = if Arc::ptr_eq(&s.served.lists, &s.structure.base) {
                    0
                } else {
                    s.served.lists.bytes()
                };
                (s.cutoff.cutoff.len() + s.pu_residual.len()) * 8
                    + s.su.bytes()
                    + s.structure.bytes()
                    + served_lists
                    + s.served.rev.bytes()
            }
        }
    }
}

fn build_sense(topology: &Topology, params: &RadioParams) -> Result<SenseStage, WorldError> {
    let sus = topology.su_positions();
    let pus = topology.pu_positions();
    let index = topology.su_index();
    let su_hears_su = IdRows::collect("SU sensing", sus.len(), |i, ids| {
        index.for_each_within(sus[i], params.su_sense_range, |j| {
            if j as usize != i {
                ids.push(j);
            }
        });
    })?;
    let pu_fanout = IdRows::collect("PU fanout", pus.len(), |k, ids| {
        index.for_each_within(pus[k], params.pu_sense_range, |j| ids.push(j));
    })?;
    // Each fanout entry carries its position in its row, so the
    // transpose lists, per SU, the PUs it senses (ascending) and where it
    // sits in each one's fanout.
    let pos: Vec<u32> = (0..pus.len())
        .flat_map(|k| 0..pu_fanout.row(k).len() as u32)
        .collect();
    let (off, ids, sensed_pos) =
        crate::topology::transpose_csr(sus.len(), &pu_fanout.off, &pu_fanout.ids, &pos);
    Ok(SenseStage {
        key: (
            params.pu_sense_range.to_bits(),
            params.su_sense_range.to_bits(),
        ),
        su_hears_su,
        pu_fanout,
        sensed_pu: IdRows { off, ids },
        sensed_pos,
    })
}

fn build_dense(topology: &Topology, alpha: f64) -> DenseStage {
    // The original dense construction, kept verbatim so Exact worlds are
    // bit-for-bit identical to the pre-split engine.
    let sus = topology.su_positions();
    let receivers = topology.receivers();
    let gain =
        |a: crn_geometry::Point, b: crn_geometry::Point| a.distance(b).max(1e-9).powf(-alpha);
    let m = receivers.len();
    let mut pu_gain = vec![0.0; topology.num_pus() * m];
    for (k, &pu) in topology.pu_positions().iter().enumerate() {
        for (s, &r) in receivers.iter().enumerate() {
            pu_gain[k * m + s] = gain(pu, sus[r as usize]);
        }
    }
    let mut su_gain = vec![0.0; sus.len() * m];
    for (i, &su) in sus.iter().enumerate() {
        for (s, &r) in receivers.iter().enumerate() {
            su_gain[i * m + s] = gain(su, sus[r as usize]);
        }
    }
    DenseStage {
        key: alpha.to_bits(),
        slots: m,
        pu_gain,
        su_gain,
    }
}

fn build_gmin(topology: &Topology, alpha: f64) -> GminStage {
    let slots = topology.receiver_slots();
    let law = PathLoss::new(alpha);
    let mut g_min = vec![f64::INFINITY; topology.num_receiver_slots()];
    for (i, &p) in topology.parents().iter().enumerate() {
        if let Some(p) = p {
            let s = slots[p as usize].expect("parents are receivers") as usize;
            g_min[s] = g_min[s].min(law.gain(topology.link_dist()[i]));
        }
    }
    GminStage {
        key: alpha.to_bits(),
        g_min,
    }
}

fn build_cutoffs(
    topology: &Topology,
    params: &RadioParams,
    epsilon: f64,
    g_min: &[f64],
    key: StructureKey,
) -> CutoffStage {
    let phy = &params.phy;
    // Cutoffs must at least cover every tree link (validation allows
    // d <= r + 1e-9) and need never exceed the deployment's diameter.
    let r_floor = phy.su_radius() * (1.0 + 1e-6) + 1e-6;
    let r_max = (r_floor * (1.0 + 1e-6)).max(topology.bbox_diag());
    // The bound is normalized (unit power): the budget `0.5·ε·g_min/η_s`
    // is the power-free rearrangement of `0.5·ε·(p_s·g_min)/η_s` against
    // a `p_s`-scaled tail, so the resulting radii survive power sweeps.
    let bound = FarFieldBound::normalized(phy.alpha(), params.su_sense_range);
    let table = CutoffTable::new(&bound, r_floor, r_max, 512);
    let eta_s = phy.su_sir_threshold();
    let cutoff = g_min
        .iter()
        .map(|&g| table.radius_for(0.5 * epsilon * g / eta_s))
        .collect();
    CutoffStage { key, cutoff }
}

/// The transmitter-major SU→slot CSR, built in place by two passes of
/// the same per-receiver grid queries: the first counts each SU's row
/// length, the second writes every entry at its row's cursor. Both visit
/// receiver slots ascending, so every row comes out slot-ascending and
/// nothing is staged beside the finished table.
fn build_su_csr(
    topology: &Topology,
    alpha: f64,
    cutoff: &[f64],
    key: StructureKey,
) -> Result<SuCsrStage, WorldError> {
    let sus = topology.su_positions();
    let receivers = topology.receivers();
    let index = topology.su_index();
    let n = sus.len();
    let law = PathLoss::new(alpha);
    let mut su_off = vec![0u32; n + 1];
    for (s, &rx) in receivers.iter().enumerate() {
        index.for_each_within(sus[rx as usize], cutoff[s], |j| su_off[j as usize + 1] += 1);
    }
    let nnz = prefix_offsets("SU near-field", &mut su_off)?;
    let mut su_slot = vec![0u32; nnz];
    let mut su_gain = vec![0.0f64; nnz];
    let mut cursor = su_off[..n].to_vec();
    for (s, &rx) in receivers.iter().enumerate() {
        let q = sus[rx as usize];
        index.for_each_within(q, cutoff[s], |j| {
            let c = &mut cursor[j as usize];
            su_slot[*c as usize] = s as u32;
            su_gain[*c as usize] = law.gain_sq(sus[j as usize].distance_sq(q));
            *c += 1;
        });
    }
    Ok(SuCsrStage {
        key,
        su_off,
        su_slot,
        su_gain,
    })
}

/// Partitions the PUs of every slot into within-cutoff (`base`) and
/// far field, then pulls the nearest far-field PUs (`ext`) until the
/// exact excluded gain sum fits the slot's threshold, recording the
/// exclusion level after every pull.
///
/// Level 0 is the id-order sum of the whole far field, folded as the
/// gains are computed; only a slot whose level 0 exceeds its threshold
/// lists and sorts its far field. Levels `k ≥ 1` are fresh left-to-right
/// folds over the distance-sorted remainder, so every stored level is a
/// pure function of `(topology, alpha, cutoff)` — independent of which
/// budget triggered its computation. PUs obey no packing bound, so exact
/// certification (not an analytic tail) is the only sound option here.
fn build_pu_structure(
    topology: &Topology,
    alpha: f64,
    cutoff: &[f64],
    threshold: &[f64],
    key: StructureKey,
) -> Result<PuStructure, WorldError> {
    let m = topology.num_receiver_slots();
    let sus = topology.su_positions();
    let pus = topology.pu_positions();
    let receivers = topology.receivers();
    let law = PathLoss::new(alpha);
    let mut base_off = vec![0u32; m + 1];
    let mut base_id = Vec::new();
    let mut base_gain = Vec::new();
    let mut ext_off = vec![0u32; m + 1];
    let mut ext_id = Vec::new();
    let mut ext_gain = Vec::new();
    let mut lvl_off = vec![0u32; m + 1];
    let mut level = Vec::new();
    let mut far: Vec<(u64, u32, f64)> = Vec::new();
    for s in 0..m {
        let q = sus[receivers[s] as usize];
        let cutoff_sq = cutoff[s] * cutoff[s];
        // `-0.0` and PU-id order make this the very left fold that
        // `Iterator::sum` performs, so the level keeps its bits (an empty
        // far field included).
        let mut lvl0 = -0.0f64;
        for (k, &pu) in pus.iter().enumerate() {
            let d2 = pu.distance_sq(q);
            let g = law.gain_sq(d2);
            if d2 <= cutoff_sq {
                base_id.push(k as u32);
                base_gain.push(g);
            } else {
                lvl0 += g;
            }
        }
        base_off[s + 1] = offset("PU near-field", base_id.len())?;
        level.push(lvl0);
        if lvl0 > threshold[s] {
            // Distances are non-negative finite, so their bit patterns
            // order identically to the values; `far` starts in id order,
            // so the stable sort breaks distance ties toward the lower PU
            // id.
            far.clear();
            far.extend(pus.iter().enumerate().filter_map(|(k, &pu)| {
                let d2 = pu.distance_sq(q);
                (d2 > cutoff_sq).then(|| (d2.to_bits(), k as u32, law.gain_sq(d2)))
            }));
            far.sort_by_key(|&(d2_bits, _, _)| d2_bits);
            let mut pulled = 0usize;
            while level.last().copied().expect("level 0 exists") > threshold[s]
                && pulled < far.len()
            {
                let (_, id, g) = far[pulled];
                ext_id.push(id);
                ext_gain.push(g);
                pulled += 1;
                level.push(far[pulled..].iter().map(|&(_, _, g)| g).sum());
            }
        }
        ext_off[s + 1] = offset("pulled PU", ext_id.len())?;
        lvl_off[s + 1] = offset("PU exclusion level", level.len())?;
    }
    Ok(PuStructure {
        key,
        base: Arc::new(PuLists {
            off: base_off,
            id: base_id,
            gain: base_gain,
        }),
        ext_off,
        ext_id,
        ext_gain,
        lvl_off,
        level,
    })
}

/// The served lists of a structure under pull counts of which some are
/// non-zero: each slot's base row merged with its first `pulls[s]`
/// pulled PUs, ids ascending, written into tables sized exactly once.
fn merge_pulled(structure: &PuStructure, pulls: &[u32]) -> Result<PuLists, WorldError> {
    let entries = structure.base.id.len() + pulls.iter().map(|&k| k as usize).sum::<usize>();
    // Every row offset is at most `entries`, so one check covers them all.
    offset("served PU", entries)?;
    let mut off = vec![0u32; pulls.len() + 1];
    let mut id = Vec::with_capacity(entries);
    let mut gain = Vec::with_capacity(entries);
    let mut near: Vec<(u32, f64)> = Vec::new();
    for (s, &k) in pulls.iter().enumerate() {
        let (base_ids, base_gains) = structure.base.row(s);
        let (ext_ids, ext_gains) = structure.ext(s);
        let k = k as usize;
        near.clear();
        near.extend(base_ids.iter().copied().zip(base_gains.iter().copied()));
        near.extend(
            ext_ids[..k]
                .iter()
                .copied()
                .zip(ext_gains[..k].iter().copied()),
        );
        near.sort_unstable_by_key(|&(id, _)| id);
        id.extend(near.iter().map(|&(i, _)| i));
        gain.extend(near.iter().map(|&(_, g)| g));
        off[s + 1] = id.len() as u32;
    }
    Ok(PuLists { off, id, gain })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crn_geometry::{Point, Region};

    fn phy() -> PhyParams {
        PhyParams::paper_simulation_defaults()
    }

    /// A 12×12 grid with PUs on a coarser lattice — small enough to be
    /// fast, big enough that truncation actually drops far-field pairs.
    fn grid() -> Topology {
        let cols = 12usize;
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
        let pus: Vec<Point> = (0..16)
            .map(|k| {
                Point::new(
                    (k % 4) as f64 * side / 4.0 + 9.0,
                    (k / 4) as f64 * side / 4.0 + 9.0,
                )
            })
            .collect();
        Topology::builder(Region::square(side))
            .su_positions(sus)
            .pu_positions(pus)
            .parents(parents)
            .build()
            .unwrap()
    }

    fn sparse_params() -> RadioParams {
        RadioParams::new(phy())
            .sense_range(24.0)
            .interference(InterferenceModel::Truncated { epsilon: 0.1 })
    }

    fn assert_same_tables(topo: &Topology, a: &Radio, b: &Radio) {
        let m = topo.num_receiver_slots() as u32;
        for su in 0..topo.num_sus() as u32 {
            assert_eq!(a.su_hears_su(su), b.su_hears_su(su));
            assert_eq!(a.sensed_pus(su), b.sensed_pus(su), "su {su}");
            for s in 0..m {
                assert_eq!(a.su_gain(su, s).to_bits(), b.su_gain(su, s).to_bits());
            }
        }
        for pu in 0..topo.num_pus() {
            assert_eq!(a.pu_fanout(pu), b.pu_fanout(pu));
            for s in 0..m {
                assert_eq!(
                    a.pu_gain(pu, s).to_bits(),
                    b.pu_gain(pu, s).to_bits(),
                    "pu {pu} slot {s}"
                );
            }
        }
        for s in 0..m {
            assert_eq!(a.near_pus(s), b.near_pus(s));
        }
        for su in 0..topo.num_sus() as u32 {
            assert_eq!(a.who_hears_su(su), b.who_hears_su(su));
        }
        for pu in 0..topo.num_pus() {
            assert_eq!(a.who_hears_pu(pu), b.who_hears_pu(pu));
        }
        match (a.truncation_stats(), b.truncation_stats()) {
            (Some((ca, ra)), Some((cb, rb))) => {
                assert_eq!(ca, cb);
                assert_eq!(ra, rb);
            }
            (None, None) => {}
            other => panic!("truncation stats diverged: {other:?}"),
        }
    }

    #[test]
    fn power_recustomize_reuses_every_sparse_stage() {
        let topo = grid();
        let base = sparse_params();
        let radio = Radio::customize(&topo, &base).unwrap();
        // Doubling P_s loosens the PU budget and leaves cutoffs (which
        // are power-normalized) untouched.
        let mut b = PhyParams::builder();
        b.alpha(4.0)
            .pu_power(10.0)
            .su_power(20.0)
            .pu_radius(10.0)
            .su_radius(10.0)
            .pu_sir_threshold(phy().pu_sir_threshold())
            .su_sir_threshold(phy().su_sir_threshold());
        let next = base.phy(b.build().unwrap());
        let re = radio.recustomize(&topo, &next).unwrap();
        assert!(Arc::ptr_eq(&radio.sense, &re.sense), "sense lists rebuilt");
        let (RadioGains::Sparse(old), RadioGains::Sparse(new)) = (&radio.gains, &re.gains) else {
            panic!("expected sparse gains");
        };
        assert!(Arc::ptr_eq(&old.gmin, &new.gmin));
        assert!(Arc::ptr_eq(&old.cutoff, &new.cutoff), "cutoffs rebuilt");
        assert!(Arc::ptr_eq(&old.su, &new.su), "SU CSR rebuilt");
        assert!(
            Arc::ptr_eq(&old.structure, &new.structure),
            "PU structure rebuilt on a looser budget"
        );
        assert!(
            Arc::ptr_eq(&old.served, &new.served),
            "served PU lists rebuilt though no pull count moved"
        );
        assert_eq!(radio.gain_table_bytes(), re.gain_table_bytes());
        // And the reused stages still produce exactly a fresh build.
        let fresh = Radio::customize(&topo, &next).unwrap();
        assert_same_tables(&topo, &re, &fresh);
    }

    /// The grid's radio with both transmit powers set; a PU power far
    /// above the SU power tightens the PU budget until slots pull.
    fn powered(params: RadioParams, pu_power: f64, su_power: f64) -> RadioParams {
        let mut b = PhyParams::builder();
        b.alpha(4.0)
            .pu_power(pu_power)
            .su_power(su_power)
            .pu_radius(10.0)
            .su_radius(10.0)
            .pu_sir_threshold(phy().pu_sir_threshold())
            .su_sir_threshold(phy().su_sir_threshold());
        params.phy(b.build().unwrap())
    }

    fn sparse(radio: &Radio) -> &SparseRadio {
        match &radio.gains {
            RadioGains::Sparse(s) => s,
            RadioGains::Dense(_) => panic!("expected sparse gains"),
        }
    }

    fn total_pulls(radio: &Radio) -> usize {
        let s = sparse(radio);
        (0..s.pu_residual.len())
            .map(|i| s.served.lists.row(i).0.len() - s.structure.base.row(i).0.len())
            .sum()
    }

    #[test]
    fn served_lists_follow_pull_counts_along_a_chain() {
        let topo = grid();
        let pulling = powered(sparse_params(), 100.0, 1.0);
        let radio = Radio::customize(&topo, &pulling).unwrap();
        assert!(total_pulls(&radio) > 0, "the tight budget must pull");
        assert!(!Arc::ptr_eq(
            &sparse(&radio).served.lists,
            &sparse(&radio).structure.base
        ));
        // Scaling both powers keeps every threshold, hence every pull
        // count: lists and reverse index are kept, only the residual
        // moves.
        let same_counts = radio
            .recustomize(&topo, &powered(sparse_params(), 200.0, 2.0))
            .unwrap();
        assert!(Arc::ptr_eq(
            &sparse(&radio).served,
            &sparse(&same_counts).served
        ));
        assert_ne!(sparse(&radio).pu_residual, sparse(&same_counts).pu_residual);
        assert_eq!(radio.gain_table_bytes(), same_counts.gain_table_bytes());
        // A looser budget keeps the structure but pulls fewer PUs; a hop
        // back and a hop to no pulls at all land on fresh builds too.
        let mut prev = same_counts;
        for (pu_power, su_power) in [(100.0, 2.0), (100.0, 1.0), (10.0, 10.0)] {
            let params = powered(sparse_params(), pu_power, su_power);
            let next = prev.recustomize(&topo, &params).unwrap();
            assert!(Arc::ptr_eq(
                &sparse(&prev).structure,
                &sparse(&next).structure
            ));
            assert_same_tables(&topo, &next, &Radio::customize(&topo, &params).unwrap());
            prev = next;
        }
        assert!(
            Arc::ptr_eq(&sparse(&prev).served.lists, &sparse(&prev).structure.base),
            "with no pulls the served lists are the base lists"
        );
    }

    #[test]
    fn gain_table_bytes_count_each_held_table_once() {
        let topo = grid();
        for (pu_power, su_power) in [(10.0, 10.0), (100.0, 1.0)] {
            let radio =
                Radio::customize(&topo, &powered(sparse_params(), pu_power, su_power)).unwrap();
            let s = sparse(&radio);
            let shared = Arc::ptr_eq(&s.served.lists, &s.structure.base);
            assert_eq!(shared, total_pulls(&radio) == 0);
            let served_lists = if shared { 0 } else { s.served.lists.bytes() };
            assert_eq!(
                radio.gain_table_bytes(),
                (s.cutoff.cutoff.len() + s.pu_residual.len()) * 8
                    + s.su.bytes()
                    + s.structure.bytes()
                    + served_lists
                    + s.served.rev.bytes()
            );
        }
    }

    #[test]
    fn offsets_refuse_totals_past_u32() {
        // Row lengths summing to 2^32: refused with the full count, and
        // nothing of that size is ever allocated.
        let mut off = [0, u32::MAX, 0, 1];
        assert_eq!(
            prefix_offsets("test", &mut off),
            Err(WorldError::TableTooLarge {
                table: "test",
                entries: 1 << 32,
            })
        );
        let mut off = [0, u32::MAX - 2, 2, 0];
        assert_eq!(prefix_offsets("test", &mut off), Ok(u32::MAX as usize));
        assert_eq!(off, [0, u32::MAX - 2, u32::MAX, u32::MAX]);
        let mut off = [0, 3, 0, 2];
        assert_eq!(prefix_offsets("test", &mut off), Ok(5));
        assert_eq!(off, [0, 3, 3, 5]);
        assert_eq!(offset("test", u32::MAX as usize), Ok(u32::MAX));
        assert_eq!(
            offset("test", u32::MAX as usize + 1),
            Err(WorldError::TableTooLarge {
                table: "test",
                entries: 1 << 32,
            })
        );
    }

    #[test]
    fn tighter_budget_rebuilds_structure_bit_identically() {
        let topo = grid();
        let base = sparse_params();
        let radio = Radio::customize(&topo, &base).unwrap();
        // Halving P_s tightens the PU budget below what the stored
        // prefix certifies for some slots.
        let mut b = PhyParams::builder();
        b.alpha(4.0)
            .pu_power(10.0)
            .su_power(5.0)
            .pu_radius(10.0)
            .su_radius(10.0)
            .pu_sir_threshold(phy().pu_sir_threshold())
            .su_sir_threshold(phy().su_sir_threshold());
        let next = base.phy(b.build().unwrap());
        let re = radio.recustomize(&topo, &next).unwrap();
        let fresh = Radio::customize(&topo, &next).unwrap();
        assert_same_tables(&topo, &re, &fresh);
    }

    #[test]
    fn alpha_recustomize_matches_fresh_build() {
        let topo = grid();
        for model in [
            InterferenceModel::Exact,
            InterferenceModel::Truncated { epsilon: 0.1 },
        ] {
            let base = sparse_params().interference(model);
            let radio = Radio::customize(&topo, &base).unwrap();
            let mut b = PhyParams::builder();
            b.alpha(3.5)
                .pu_power(10.0)
                .su_power(10.0)
                .pu_radius(10.0)
                .su_radius(10.0)
                .pu_sir_threshold(phy().pu_sir_threshold())
                .su_sir_threshold(phy().su_sir_threshold());
            let next = base.phy(b.build().unwrap());
            let re = radio.recustomize(&topo, &next).unwrap();
            let fresh = Radio::customize(&topo, &next).unwrap();
            assert_same_tables(&topo, &re, &fresh);
        }
    }

    #[test]
    fn dense_power_recustomize_reuses_gains() {
        let topo = grid();
        let base = RadioParams::new(phy()).sense_range(24.0);
        let radio = Radio::customize(&topo, &base).unwrap();
        let mut b = PhyParams::builder();
        b.alpha(4.0)
            .pu_power(30.0)
            .su_power(15.0)
            .pu_radius(10.0)
            .su_radius(10.0)
            .pu_sir_threshold(phy().pu_sir_threshold())
            .su_sir_threshold(phy().su_sir_threshold());
        let re = radio
            .recustomize(&topo, &base.phy(b.build().unwrap()))
            .unwrap();
        let (RadioGains::Dense(old), RadioGains::Dense(new)) = (&radio.gains, &re.gains) else {
            panic!("expected dense gains");
        };
        assert!(Arc::ptr_eq(old, new), "dense gains rebuilt on power change");
        assert!(Arc::ptr_eq(&radio.sense, &re.sense));
    }

    #[test]
    fn sense_range_change_rebuilds_only_sense_in_dense_mode() {
        let topo = grid();
        let base = RadioParams::new(phy()).sense_range(24.0);
        let radio = Radio::customize(&topo, &base).unwrap();
        let re = radio.recustomize(&topo, &base.sense_range(30.0)).unwrap();
        assert!(!Arc::ptr_eq(&radio.sense, &re.sense));
        let (RadioGains::Dense(old), RadioGains::Dense(new)) = (&radio.gains, &re.gains) else {
            panic!("expected dense gains");
        };
        assert!(Arc::ptr_eq(old, new));
        let fresh = Radio::customize(&topo, &base.sense_range(30.0)).unwrap();
        assert_same_tables(&topo, &re, &fresh);
    }

    #[test]
    fn model_switch_recustomizes_cleanly_both_ways() {
        let topo = grid();
        let dense = RadioParams::new(phy()).sense_range(24.0);
        let sparse = sparse_params();
        let d = Radio::customize(&topo, &dense).unwrap();
        let s = d.recustomize(&topo, &sparse).unwrap();
        assert_same_tables(&topo, &s, &Radio::customize(&topo, &sparse).unwrap());
        let back = s.recustomize(&topo, &dense).unwrap();
        assert_same_tables(&topo, &back, &d);
    }

    #[test]
    fn reverse_index_mirrors_forward_tables_exactly() {
        let topo = grid();
        let radio = Radio::customize(&topo, &sparse_params()).unwrap();
        assert!(radio.has_reverse_index());
        let m = topo.num_receiver_slots() as u32;
        // Every reverse-row entry carries the forward gain bit-for-bit,
        // rows are slot-ascending, and nothing is missing: the nonzero
        // counts agree in both orientations.
        let mut su_nnz = 0usize;
        for su in 0..topo.num_sus() as u32 {
            let (slots, gains) = radio.who_hears_su(su).unwrap();
            assert_eq!(slots.len(), gains.len());
            assert!(slots.windows(2).all(|w| w[0] < w[1]), "su {su} unsorted");
            for (&s, &g) in slots.iter().zip(gains) {
                assert_eq!(radio.su_gain(su, s).to_bits(), g.to_bits());
                assert!(g > 0.0);
            }
            su_nnz += slots.len();
        }
        let forward_su_nnz: usize = (0..m)
            .map(|s| {
                (0..topo.num_sus() as u32)
                    .filter(|&su| radio.su_gain(su, s) != 0.0)
                    .count()
            })
            .sum();
        assert_eq!(su_nnz, forward_su_nnz);
        let mut pu_nnz = 0usize;
        for pu in 0..topo.num_pus() {
            let (slots, gains) = radio.who_hears_pu(pu).unwrap();
            assert!(slots.windows(2).all(|w| w[0] < w[1]), "pu {pu} unsorted");
            for (&s, &g) in slots.iter().zip(gains) {
                assert_eq!(radio.pu_gain(pu, s).to_bits(), g.to_bits());
            }
            pu_nnz += slots.len();
        }
        let forward_pu_nnz: usize = (0..m).map(|s| radio.near_pus(s).unwrap().0.len()).sum();
        assert_eq!(pu_nnz, forward_pu_nnz);
    }

    #[test]
    fn sensed_lists_transpose_pu_fanout_exactly() {
        let topo = grid();
        for params in [
            sparse_params(),
            RadioParams::new(phy()).sense_range(24.0),
            RadioParams::new(phy()).pu_sense_range(40.0),
        ] {
            let radio = Radio::customize(&topo, &params).unwrap();
            // Every transpose entry points back at its SU, rows are
            // PU-ascending, and the entry counts agree, so nothing is
            // missing.
            let mut entries = 0usize;
            for su in 0..topo.num_sus() as u32 {
                let (pus, pos) = radio.sensed_pus(su);
                assert_eq!(pus.len(), pos.len());
                assert!(pus.windows(2).all(|w| w[0] < w[1]), "su {su} unsorted");
                for (&k, &p) in pus.iter().zip(pos) {
                    assert_eq!(radio.pu_fanout(k as usize)[p as usize], su);
                }
                entries += pus.len();
            }
            let fanout: usize = (0..topo.num_pus()).map(|k| radio.pu_fanout(k).len()).sum();
            assert!(fanout > 0, "the grid's PUs must be heard");
            assert_eq!(entries, fanout);
        }
    }

    #[test]
    fn dense_mode_has_no_reverse_index() {
        let topo = grid();
        let radio = Radio::customize(&topo, &RadioParams::new(phy()).sense_range(24.0)).unwrap();
        assert!(!radio.has_reverse_index());
        assert!(radio.who_hears_su(0).is_none());
        assert!(radio.who_hears_pu(0).is_none());
    }

    #[test]
    fn rejects_link_longer_than_radius() {
        let topo = Topology::builder(Region::square(40.0))
            .su_positions(vec![Point::new(1.0, 1.0), Point::new(31.0, 1.0)])
            .parents(vec![None, Some(0)])
            .build()
            .unwrap();
        let e = Radio::customize(&topo, &RadioParams::new(phy()).sense_range(35.0)).unwrap_err();
        assert!(matches!(e, WorldError::LinkTooLong { child: 1, .. }));
    }
}
