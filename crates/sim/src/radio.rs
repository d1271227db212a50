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
use crn_geometry::Point;
use crn_interference::cutoff::{CutoffTable, FarFieldBound};
use crn_interference::{PathLoss, PhyParams};
use std::ops::Range;
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

    fn bytes(&self) -> usize {
        (self.off.len() + self.ids.len()) * 4
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

/// Fewest receiver slots one range of the PU certification is given. Its
/// count and row passes cost 3.1 µs a slot on the 2,000-SU synthetic grid
/// and 6.7 µs at 20,000 (one core, default budget), so a range holds at
/// least about 1.6 ms of work against the 30 µs a scoped thread takes to
/// start and join.
const MIN_RANGE_SLOTS: usize = 512;

/// How many contiguous slot ranges a build over `slots` receiver slots
/// runs in: one per core this process may run on, none under
/// [`MIN_RANGE_SLOTS`] slots, and at least one. Asking for the cores
/// reads the affinity mask and the cgroup quota (about 30 µs), so a
/// world too small for two ranges never asks.
fn range_count(slots: usize) -> usize {
    match slots / MIN_RANGE_SLOTS {
        0 | 1 => 1,
        most => std::thread::available_parallelism().map_or(1, |c| c.get().min(most)),
    }
}

/// `0..len` cut into `ranges` contiguous ranges, in order, whose lengths
/// differ by at most one.
fn split(len: usize, ranges: usize) -> Vec<Range<usize>> {
    (0..ranges)
        .map(|i| len * i / ranges..len * (i + 1) / ranges)
        .collect()
}

/// `table` cut at the ascending `ends`, the last of which is its length,
/// into consecutive pieces: one per range, for its rows to go in place.
fn cut<T>(mut table: &mut [T], ends: impl IntoIterator<Item = usize>) -> Vec<&mut [T]> {
    let mut at = 0;
    ends.into_iter()
        .map(|end| {
            let (piece, rest) = std::mem::take(&mut table).split_at_mut(end - at);
            (table, at) = (rest, end);
            piece
        })
        .collect()
}

/// Runs `work` on every part and returns the results in part order: the
/// first part on this thread, every other on a scoped thread of its own.
/// A lone part runs inline, with no thread. A panic in any part is
/// resumed here once every part has ended.
fn fan_out<P: Send, T: Send>(parts: Vec<P>, work: impl Fn(P) -> T + Sync) -> Vec<T> {
    if parts.len() <= 1 {
        return parts.into_iter().map(work).collect();
    }
    let work = &work;
    std::thread::scope(|scope| {
        let mut parts = parts.into_iter();
        let first = parts.next().expect("two or more parts");
        let rest: Vec<_> = parts.map(|p| scope.spawn(move || work(p))).collect();
        let mut out = vec![work(first)];
        for handle in rest {
            out.push(
                handle
                    .join()
                    .unwrap_or_else(|panic| std::panic::resume_unwind(panic)),
            );
        }
        out
    })
}

/// Appends `part` to `table`, taking it whole when `table` is empty, so a
/// lone range's tables are never copied.
fn append<T>(table: &mut Vec<T>, part: Vec<T>) {
    if table.is_empty() {
        *table = part;
    } else {
        table.extend(part);
    }
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

/// The budget-independent ladder of every slot's PU certificate.
///
/// Rung `j` of a slot serves every PU within `R_j = cutoff·2^j` of its
/// receiver and bounds the gains of the rest; rung 0 serves the PUs
/// inside the cutoff (`base`, ids ascending). A slot's *steps* are
/// certified upper bounds on the id-order sum of the gains its rung
/// leaves out, non-increasing: rung 0's group bound, then, where that did
/// not fit the slot's threshold at build, rung 0's refined bound and one
/// bound per rung `j ≥ 1` up to the first that fit. The ladder ends at
/// the latest at the rung that covers every PU, whose bound is zero.
/// Beside each bound a step stores how many of the slot's `ext` PUs it
/// serves: `ext` lists the PUs beyond the cutoff that its top rung
/// serves, ring by ring outward.
///
/// A slot re-derives its step under any threshold by a pure
/// `partition_point` over its bounds, bit-identical to a fresh build. A
/// budget that needs more steps than a slot stores rebuilds the
/// structure.
///
/// The structure is each slot's whole certificate: under its step it
/// serves its base row, then the first `reach` PUs of its `ext` row, and
/// leaves out PUs whose gains sum to at most that step's bound. Rows hold
/// PU ids only: [`SparseRadio::near_pu_gain`] recomputes a gain from
/// positions with the expression the build evaluated.
#[derive(Debug)]
struct PuStructure {
    key: StructureKey,
    base: IdRows,
    /// Slot `s`'s steps are `step_off[s]..step_off[s + 1]`, at least one.
    step_off: Vec<u32>,
    /// Per step, its bound, certified in floating point (see
    /// [`build_pu_structure`]).
    bound: Vec<f64>,
    /// Per step, how many of the slot's `ext` PUs it serves.
    reach: Vec<u32>,
    ext: IdRows,
}

impl PuStructure {
    /// Slot `s`'s served `ext` count under threshold `t`, with the bound
    /// on the gain it leaves out: its first step whose bound fits. `None`
    /// when the slot needs more steps than this structure holds (the
    /// caller then rebuilds it).
    ///
    /// Bounds are pure functions of the geometry, so the result does not
    /// depend on which budget built the structure.
    fn pull(&self, s: usize, t: f64) -> Option<(u32, f64)> {
        let steps = self.step_off[s] as usize..self.step_off[s + 1] as usize;
        let i = steps.start + self.bound[steps.clone()].partition_point(|&v| v > t);
        (i < steps.end).then(|| (self.reach[i], self.bound[i]))
    }

    fn bytes(&self) -> usize {
        self.base.bytes()
            + self.ext.bytes()
            + (self.step_off.len() + self.reach.len()) * 4
            + self.bound.len() * 8
    }
}

/// Sparse gain stages (`Truncated` model). No gain is stored:
/// [`SparseRadio::su_gain`] and [`SparseRadio::near_pu_gain`] recompute
/// each from positions. Nor is any value of one budget: [`Radio::step`]
/// reads a slot's served PUs and residual off its ladder when asked.
#[derive(Clone, Debug)]
struct SparseRadio {
    law: PathLoss,
    gmin: Arc<GminStage>,
    cutoff: Arc<CutoffStage>,
    structure: Arc<PuStructure>,
}

#[derive(Clone, Debug)]
enum RadioGains {
    Dense(Arc<DenseStage>),
    Sparse(SparseRadio),
}

/// 64-bit FNV-1a, fed one table at a time: its length, then each entry
/// widened to 64 bits, as little-endian bytes.
struct Fnv(u64);

impl Fnv {
    fn table(&mut self, words: impl ExactSizeIterator<Item = u64>) {
        for word in std::iter::once(words.len() as u64).chain(words) {
            for byte in word.to_le_bytes() {
                self.0 = (self.0 ^ u64::from(byte)).wrapping_mul(0x100_0000_01b3);
            }
        }
    }

    fn f64s(&mut self, table: &[f64]) {
        self.table(table.iter().map(|x| x.to_bits()));
    }

    fn u32s(&mut self, table: &[u32]) {
        self.table(table.iter().map(|&x| u64::from(x)));
    }
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

impl SparseRadio {
    /// The gain from `su` at `slot`, from the positions of `topology`:
    /// `gain_sq(d²)` exactly when the squared distance `d²` to the slot's
    /// receiver is at most its cutoff squared — the test a
    /// [`crn_geometry::GridIndex`] disk query of that radius applies — and
    /// `0.0` beyond.
    fn su_gain(&self, topology: &Topology, su: u32, slot: u32) -> f64 {
        let sus = topology.su_positions();
        let q = sus[topology.receivers()[slot as usize] as usize];
        let d2 = sus[su as usize].distance_sq(q);
        let c = self.cutoff.cutoff[slot as usize];
        if d2 <= c * c {
            self.law.gain_sq(d2)
        } else {
            0.0
        }
    }

    /// The gain from PU `pu` at `slot`, from the positions of `topology`:
    /// `gain_sq` of the PU's squared distance to the slot's receiver, the
    /// expression [`build_pu_structure`] evaluated for the PU, so a served
    /// gain has the bits a stored one had. It does not look `pu` up in the
    /// slot's served row.
    #[inline]
    fn near_pu_gain(&self, topology: &Topology, pu: u32, slot: u32) -> f64 {
        let q = topology.su_positions()[topology.receivers()[slot as usize] as usize];
        self.law
            .gain_sq(topology.pu_positions()[pu as usize].distance_sq(q))
    }
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
        Self::customize_from(topology, params, None, None)
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
        Self::customize_from(topology, params, Some(self), None)
    }

    /// The build behind [`Radio::customize`] and [`Radio::recustomize`].
    /// A truncated radio's PU certification splits into `ranges`
    /// contiguous slot ranges whatever their size, or by [`range_count`]
    /// when `None`. Every table is bit-identical for every count.
    fn customize_from(
        topology: &Topology,
        params: &RadioParams,
        prev: Option<&Radio>,
        ranges: Option<usize>,
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
                let law = PathLoss::new(phy.alpha());
                let g_min = &gmin.g_min;
                let m = g_min.len();
                let threshold = |s: usize| pu_threshold(phy, epsilon, g_min[s]);
                // The predecessor's structure serves every slot it holds a
                // fitting step for: bounds are pure functions of the
                // geometry, whichever budget built them.
                let structure = match prev_sparse {
                    Some(p)
                        if p.structure.key == skey
                            && (0..m).all(|s| p.structure.pull(s, threshold(s)).is_some()) =>
                    {
                        p.structure.clone()
                    }
                    _ => Arc::new(build_pu_structure(
                        topology,
                        &law,
                        &cutoff.cutoff,
                        threshold,
                        skey,
                        // Asked only here: a build that reuses its
                        // predecessor's structure never asks for the cores.
                        ranges.unwrap_or_else(|| range_count(m)),
                    )?),
                };
                RadioGains::Sparse(SparseRadio {
                    law,
                    gmin,
                    cutoff,
                    structure,
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

    /// The gain from `pu` at `slot`: the dense table entry, or on a
    /// truncated radio [`Radio::served_pu_gain`]. Kept this small so the
    /// dense lookup inlines into the scan path's loops.
    #[inline]
    pub(crate) fn pu_gain(&self, topology: &Topology, pu: usize, slot: u32) -> f64 {
        match &self.gains {
            RadioGains::Dense(d) => d.pu_gain[pu * d.slots + slot as usize],
            RadioGains::Sparse(s) => self.served_pu_gain(s, topology, pu as u32, slot),
        }
    }

    /// [`SparseRadio::near_pu_gain`] over `topology` where `slot` serves
    /// `pu` (a binary search of its base row, then a scan of its ladder
    /// prefix), and `0.0` elsewhere.
    fn served_pu_gain(&self, s: &SparseRadio, topology: &Topology, pu: u32, slot: u32) -> f64 {
        let (base, prefix) = self.near_pus(slot).expect("a sparse radio serves PUs");
        if base.binary_search(&pu).is_ok() || prefix.contains(&pu) {
            s.near_pu_gain(topology, pu, slot)
        } else {
            0.0
        }
    }

    /// The gain from `pu` at `slot`, for a PU the slot serves (see
    /// [`Radio::near_pus`]): [`Radio::pu_gain`] without the row search.
    #[inline]
    pub(crate) fn near_pu_gain(&self, topology: &Topology, pu: u32, slot: u32) -> f64 {
        match &self.gains {
            RadioGains::Dense(d) => d.pu_gain[pu as usize * d.slots + slot as usize],
            RadioGains::Sparse(s) => s.near_pu_gain(topology, pu, slot),
        }
    }

    /// The gain from `su` at `slot`: the dense table entry, or on a
    /// truncated radio [`SparseRadio::su_gain`] over `topology`, the
    /// deployment this radio was customized for. Kept this small so the
    /// dense lookup inlines into the scan path's loops.
    #[inline]
    pub(crate) fn su_gain(&self, topology: &Topology, su: u32, slot: u32) -> f64 {
        match &self.gains {
            RadioGains::Dense(d) => d.su_gain[su as usize * d.slots + slot as usize],
            RadioGains::Sparse(s) => s.su_gain(topology, su, slot),
        }
    }

    /// Slot `slot`'s step under this radio's budget, its first whose bound
    /// fits: how many `ext` PUs it serves past its base row, and the bound
    /// on the rest. `None` on a dense radio.
    fn step(&self, slot: usize) -> Option<(u32, f64)> {
        match (&self.gains, self.params.interference) {
            (RadioGains::Sparse(s), InterferenceModel::Truncated { epsilon }) => {
                let threshold = pu_threshold(&self.params.phy, epsilon, s.gmin.g_min[slot]);
                Some(s.structure.pull(slot, threshold).expect("a step fits"))
            }
            _ => None,
        }
    }

    /// The PUs slot `slot` serves, in the order every sum over them runs:
    /// its base row (ids ascending), then the prefix of its `ext` row that
    /// its step serves (ring by ring outward). `None` on a dense radio.
    #[inline]
    pub(crate) fn near_pus(&self, slot: u32) -> Option<(&[u32], &[u32])> {
        let RadioGains::Sparse(s) = &self.gains else {
            return None;
        };
        let (st, slot) = (&s.structure, slot as usize);
        let ext = st.ext.row(slot);
        // A slot that never climbed serves its base row alone at every
        // step, so the engine's hot paths read no step for it.
        let k = if ext.is_empty() {
            0
        } else {
            self.step(slot)?.0
        };
        Some((st.base.row(slot), &ext[..k as usize]))
    }

    /// Slot `slot`'s certified budget `ε·p_s·g_min/η_s`, split in halves
    /// between the SU cutoff and the PU ladder; `0.0` on a dense radio.
    pub(crate) fn certified_budget(&self, slot: u32) -> f64 {
        match (&self.gains, self.params.interference) {
            (RadioGains::Sparse(s), InterferenceModel::Truncated { epsilon }) => {
                let phy = &self.params.phy;
                epsilon * phy.su_power() * s.gmin.g_min[slot as usize] / phy.su_sir_threshold()
            }
            _ => 0.0,
        }
    }

    /// Per-slot SU cutoff radii; `None` on a dense radio.
    pub(crate) fn cutoffs(&self) -> Option<&[f64]> {
        match &self.gains {
            RadioGains::Dense(_) => None,
            RadioGains::Sparse(s) => Some(&s.cutoff.cutoff),
        }
    }

    /// Per-slot cutoffs and residuals, each residual `P_p` times the bound
    /// of the slot's step, computed by this call.
    pub(crate) fn truncation_stats(&self) -> Option<(&[f64], Vec<f64>)> {
        let cutoffs = self.cutoffs()?;
        let p_p = self.params.phy.pu_power();
        let residual = |s| p_p * self.step(s).expect("a sparse radio").1;
        Some((cutoffs, (0..cutoffs.len()).map(residual).collect()))
    }

    /// FNV-1a (64-bit) over every sparse table, in bit patterns: cutoffs,
    /// step offsets, bounds and reaches, `ext` id rows and base id rows,
    /// each row table with its offsets. `None` in exact mode.
    pub(crate) fn tables_digest(&self) -> Option<u64> {
        let RadioGains::Sparse(s) = &self.gains else {
            return None;
        };
        let st = &s.structure;
        let mut h = Fnv(0xcbf2_9ce4_8422_2325);
        h.f64s(&s.cutoff.cutoff);
        h.u32s(&st.step_off);
        h.f64s(&st.bound);
        h.u32s(&st.reach);
        for rows in [&st.ext, &st.base] {
            h.u32s(&rows.off);
            h.u32s(&rows.ids);
        }
        Some(h.0)
    }

    /// Bytes this radio holds in gain tables: dense gains, or the sparse
    /// cutoffs and PU structure. Tables shared with another radio count in
    /// full for each, since each holds them.
    pub(crate) fn gain_table_bytes(&self) -> usize {
        match &self.gains {
            RadioGains::Dense(d) => (d.pu_gain.len() + d.su_gain.len()) * 8,
            RadioGains::Sparse(s) => s.cutoff.cutoff.len() * 8 + s.structure.bytes(),
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

/// PU-side exclusion threshold of a slot with weakest-link gain `g_min`,
/// in gain space: `p_p · excluded ≤ 0.5·ε·(p_s·g_min)/η_s` rearranged so
/// the comparison against the stored bounds is power-free.
fn pu_threshold(phy: &PhyParams, epsilon: f64, g_min: f64) -> f64 {
    0.5 * epsilon * phy.su_power() * g_min / (phy.su_sir_threshold() * phy.pu_power())
}

/// The exact radius of a slot's far-field bound, in multiples of the
/// largest cutoff in its receiver group: every PU in a leaf cell that
/// comes within it of the group's receivers is evaluated exactly, so the
/// cells that only count toward the bound lie where the field has decayed
/// (beyond 3.5 cutoffs, about a twelfth of a uniform far field's sum at
/// `α = 4`). On the synthetic grid, 3 cutoffs left 698 of 19,860 slots at
/// n = 20,000 (41,867 of 249,501 at 250,000) to the refined bound, 3.5
/// left 139 (7,221), and 4 left 71 (none) for a quarter more exact
/// evaluations.
const EXACT_RADIUS_CUTOFFS: f64 = 3.5;

/// The exact radius of rung 0's refined bound, taken only where the group
/// bound does not fit the threshold, in multiples of the slot's own
/// cutoff and walked from its receiver alone: farther than the group
/// walk's, so the counted cells carry about a third of what they did, for
/// about three times the exact evaluations.
const REFINED_RADIUS_CUTOFFS: f64 = 6.0;

/// How much wider each rung's radius is than the one below: rung `j`
/// serves every PU within `cutoff·2^j`.
const RUNG_RATIO: f64 = 2.0;

/// The exact radius of a rung `j ≥ 1`'s bound, in multiples of its radius
/// `R_j`. A walk from the receiver evaluates every PU within it, so a
/// climb to rung `j` costs about the PUs within `2·R_j`. On the synthetic
/// grid at `P_p` 100, `P_s` 1, 6 rung radii settled every slot on the
/// same rung as 2 and built the 20,000-SU world in 2.07–2.38 s against
/// 1.79–1.83 s.
const RUNG_EXACT_RADII: f64 = 2.0;

/// A coarse cell whose PU box is wider than this fraction of its distance
/// `d` is opened into its four children. A cell counted whole therefore
/// spreads its PUs over at most about `0.43·d` beyond its nearest point,
/// so counting them all at `d` over-states their gains by a bounded factor
/// (under 4 at `α = 4`), and only on cells beyond the exact radius, which
/// carry a small share of the field.
const OPENING_RATIO: f64 = 0.3;

/// Mean PUs per leaf cell of a [`PuGrid`]: enough that a leaf's box is
/// worth testing before its PUs are, few enough that a leaf (and a
/// receiver group, as wide) is small against the exact radius (about 31
/// units against 3.5 × 65 on the synthetic grid).
const LEAF_PUS: f64 = 4.0;

/// PU positions bucketed on a grid of leaf cells, with coarser levels
/// above it that each merge 2×2 cells, up to a single root. Every cell
/// carries its PU count and the bounding box of the PUs actually in it:
/// the hierarchy a slot's far field is bounded from (O(N) to build).
struct PuGrid {
    /// The law every gain and bound is taken under.
    law: PathLoss,
    /// Leaf cell side.
    side: f64,
    /// Leaf cell `c` holds `leaf_id[leaf_off[c]..leaf_off[c + 1]]`, ids
    /// ascending, with their positions alongside in `leaf_pos`.
    leaf_off: Vec<u32>,
    leaf_id: Vec<u32>,
    leaf_pos: Vec<Point>,
    /// `levels[0]` is the leaf grid; the last level is the root.
    levels: Vec<PuLevel>,
}

/// One level of a [`PuGrid`], cells row-major.
struct PuLevel {
    cols: usize,
    rows: usize,
    count: Vec<u32>,
    /// `[min_x, min_y, max_x, max_y]` of the cell's PUs; an empty cell's
    /// box is inverted and never read.
    bbox: Vec<[f64; 4]>,
}

const EMPTY_BOX: [f64; 4] = [
    f64::INFINITY,
    f64::INFINITY,
    f64::NEG_INFINITY,
    f64::NEG_INFINITY,
];

fn grow_box(b: &mut [f64; 4], other: &[f64; 4]) {
    b[0] = b[0].min(other[0]);
    b[1] = b[1].min(other[1]);
    b[2] = b[2].max(other[2]);
    b[3] = b[3].max(other[3]);
}

fn point_box(p: Point) -> [f64; 4] {
    [p.x, p.y, p.x, p.y]
}

/// Squared distance between the boxes `a` and `b`. Every operation is
/// monotone and rounds the same way as [`Point::distance_sq`], so for any
/// points `q` in `a` and `p` in `b` the result is at most
/// `p.distance_sq(q)` as computed, not only in real arithmetic.
fn box_distance_sq(a: &[f64; 4], b: &[f64; 4]) -> f64 {
    let dx = (b[0] - a[2]).max(a[0] - b[2]).max(0.0);
    let dy = (b[1] - a[3]).max(a[1] - b[3]).max(0.0);
    dx * dx + dy * dy
}

/// A grid of square cells, row-major, over the bounding box of a point
/// set.
#[derive(Debug)]
pub(crate) struct Cells {
    origin: [f64; 2],
    side: f64,
    cols: usize,
    rows: usize,
}

impl Cells {
    /// Cells over `points` holding about `per_cell` of them each, no
    /// narrower than `min_side`, and never more along one axis than there
    /// are points.
    pub(crate) fn new(points: impl Iterator<Item = Point>, per_cell: f64, min_side: f64) -> Self {
        let (mut all, mut n) = (EMPTY_BOX, 0usize);
        for p in points {
            grow_box(&mut all, &point_box(p));
            n += 1;
        }
        let (w, h) = if n == 0 {
            (0.0, 0.0)
        } else {
            (all[2] - all[0], all[3] - all[1])
        };
        let n = n.max(1) as f64;
        let side = min_side
            .max((per_cell * w * h / n).sqrt())
            .max(w.max(h) / n);
        let side = if side > 0.0 { side } else { 1.0 };
        Self {
            origin: [all[0], all[1]],
            side,
            cols: (w / side) as usize + 1,
            rows: (h / side) as usize + 1,
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.cols * self.rows
    }

    /// The cell of `p`, a point of the set (others clamp to the edge).
    pub(crate) fn of(&self, p: Point) -> usize {
        let c = (((p.x - self.origin[0]) / self.side) as usize).min(self.cols - 1);
        let r = (((p.y - self.origin[1]) / self.side) as usize).min(self.rows - 1);
        r * self.cols + c
    }

    /// Cell `c` and its neighbours: the 3×3 block around it, clipped to
    /// the grid. Two points of the set less than a cell side apart lie in
    /// each other's blocks.
    pub(crate) fn around(&self, c: usize) -> impl Iterator<Item = usize> {
        let (col, row) = (c % self.cols, c / self.cols);
        let cols = col.saturating_sub(1)..=(col + 1).min(self.cols - 1);
        let width = self.cols;
        (row.saturating_sub(1)..=(row + 1).min(self.rows - 1))
            .flat_map(move |r| cols.clone().map(move |c| r * width + c))
    }
}

impl PuGrid {
    fn new(pus: &[Point], law: PathLoss) -> Self {
        let grid = Cells::new(pus.iter().copied(), LEAF_PUS, 0.0);
        let cells = grid.len();
        let mut leaf_off = vec![0u32; cells + 1];
        for &p in pus {
            leaf_off[grid.of(p) + 1] += 1;
        }
        for c in 0..cells {
            leaf_off[c + 1] += leaf_off[c];
        }
        let mut cursor = leaf_off[..cells].to_vec();
        let mut leaf_id = vec![0u32; pus.len()];
        let mut leaf_pos = vec![Point::ORIGIN; pus.len()];
        let mut leaf = PuLevel {
            cols: grid.cols,
            rows: grid.rows,
            count: vec![0; cells],
            bbox: vec![EMPTY_BOX; cells],
        };
        for (k, &p) in pus.iter().enumerate() {
            let c = grid.of(p);
            let at = cursor[c] as usize;
            cursor[c] += 1;
            leaf_id[at] = k as u32;
            leaf_pos[at] = p;
            leaf.count[c] += 1;
            grow_box(&mut leaf.bbox[c], &point_box(p));
        }
        let mut levels = vec![leaf];
        loop {
            let below = levels.last().expect("the leaf level exists");
            if below.cols == 1 && below.rows == 1 {
                break;
            }
            let (cols, rows) = (below.cols.div_ceil(2), below.rows.div_ceil(2));
            let mut up = PuLevel {
                cols,
                rows,
                count: vec![0; cols * rows],
                bbox: vec![EMPTY_BOX; cols * rows],
            };
            for r in 0..below.rows {
                for c in 0..below.cols {
                    let (from, to) = (r * below.cols + c, (r / 2) * cols + c / 2);
                    up.count[to] += below.count[from];
                    grow_box(&mut up.bbox[to], &below.bbox[from]);
                }
            }
            levels.push(up);
        }
        Self {
            law,
            side: grid.side,
            leaf_off,
            leaf_id,
            leaf_pos,
            levels,
        }
    }

    /// Walks the hierarchy from the root for the receivers inside the box
    /// `from`. Every leaf whose PU box comes within `exact_sq` (squared)
    /// of `from` is pushed onto `near_leaves`; every other cell adds
    /// `count × gain(box distance)`, which is at least the computed gain
    /// of each PU in it at any receiver in `from`. A coarse cell is opened
    /// while it reaches into the exact radius or is wide against its
    /// distance.
    ///
    /// Returns the sum, before any rounding margin, starting from `-0.0`
    /// as an id-order fold does. The walk reads only the geometry.
    fn walk(
        &self,
        from: &[f64; 4],
        exact_sq: f64,
        near_leaves: &mut Vec<u32>,
        stack: &mut Vec<(usize, usize)>,
    ) -> f64 {
        let mut sum = -0.0f64;
        stack.clear();
        stack.push((self.levels.len() - 1, 0));
        while let Some((l, c)) = stack.pop() {
            let level = &self.levels[l];
            let count = level.count[c];
            if count == 0 {
                continue;
            }
            let b = &level.bbox[c];
            let d2 = box_distance_sq(from, b);
            if l == 0 && d2 <= exact_sq {
                near_leaves.push(c as u32);
                continue;
            }
            let size = (b[2] - b[0]).max(b[3] - b[1]);
            if l > 0 && (d2 <= exact_sq || size * size > OPENING_RATIO * OPENING_RATIO * d2) {
                let child = &self.levels[l - 1];
                let (r, col) = (c / level.cols, c % level.cols);
                for cr in 2 * r..(2 * r + 2).min(child.rows) {
                    for cc in 2 * col..(2 * col + 2).min(child.cols) {
                        stack.push((l - 1, cr * child.cols + cc));
                    }
                }
                continue;
            }
            sum += f64::from(count) * self.law.gain_sq(d2);
        }
        sum
    }

    /// How many PUs of the leaf cells `leaves` lie within `cutoff_sq` of
    /// `q`: the length of the near list [`PuGrid::evaluate`] pushes.
    fn count_near(&self, leaves: &[u32], q: Point, cutoff_sq: f64) -> u32 {
        let mut n = 0;
        for &c in leaves {
            let (lo, hi) = (
                self.leaf_off[c as usize] as usize,
                self.leaf_off[c as usize + 1] as usize,
            );
            n += self.leaf_pos[lo..hi]
                .iter()
                .filter(|p| p.distance_sq(q) <= cutoff_sq)
                .count() as u32;
        }
        n
    }

    /// Evaluates every PU of the leaf cells `leaves` for the receiver at
    /// `q`: a PU within `served_sq` is served, and its id pushed onto
    /// `ring` (if given) where it lies beyond `inner_sq`; any other adds
    /// its gain to the returned sum, which starts from `-0.0`.
    fn evaluate(
        &self,
        leaves: &[u32],
        q: Point,
        inner_sq: f64,
        served_sq: f64,
        mut ring: Option<&mut Vec<u32>>,
    ) -> f64 {
        let mut sum = -0.0f64;
        for &c in leaves {
            let (lo, hi) = (
                self.leaf_off[c as usize] as usize,
                self.leaf_off[c as usize + 1] as usize,
            );
            for (&k, p) in self.leaf_id[lo..hi].iter().zip(&self.leaf_pos[lo..hi]) {
                let d2 = p.distance_sq(q);
                if d2 <= served_sq {
                    if d2 > inner_sq {
                        if let Some(ring) = ring.as_deref_mut() {
                            ring.push(k);
                        }
                    }
                } else {
                    sum += self.law.gain_sq(d2);
                }
            }
        }
        sum
    }

    /// The sum of a walk from the receiver at `q` alone, with exact radius
    /// `radius`, over the PUs beyond `served_sq`: a rung's bound, before
    /// its margin. The served PUs beyond `inner_sq` go onto `ring`, if
    /// given.
    fn rung(
        &self,
        q: Point,
        inner_sq: f64,
        served_sq: f64,
        radius: f64,
        ring: Option<&mut Vec<u32>>,
        bufs: &mut WalkBuffers,
    ) -> f64 {
        let WalkBuffers { leaves, stack } = bufs;
        leaves.clear();
        let far = self.walk(&point_box(q), radius * radius, leaves, stack);
        self.evaluate(leaves, q, inner_sq, served_sq, ring) + far
    }

    /// The squared distance from `q` to the far corner of the box of
    /// every PU, rounded as [`Point::distance_sq`] rounds: at least each
    /// PU's squared distance from `q` as computed.
    fn far_sq(&self, q: Point) -> f64 {
        let b = &self.levels.last().expect("the root level exists").bbox[0];
        let (dx, dy) = ((q.x - b[0]).max(b[2] - q.x), (q.y - b[1]).max(b[3] - q.y));
        dx * dx + dy * dy
    }
}

/// The leaf list and the stack a walk from one receiver reuses for the
/// next.
#[derive(Default)]
struct WalkBuffers {
    leaves: Vec<u32>,
    stack: Vec<(usize, usize)>,
}

/// Receiver slots grouped by the cell, of a grid at least as coarse as
/// the PU leaves, that holds their receiver. One walk from the box around
/// a group's receivers, with the exact radius of its largest cutoff,
/// serves every slot in the group: its near leaves are evaluated per
/// slot, its other cells are summed once.
struct GroupWalks {
    /// Each slot's group.
    group: Vec<u32>,
    /// Group `g`'s near leaves are `leaves[off[g]..off[g + 1]]`.
    off: Vec<u32>,
    leaves: Vec<u32>,
    /// Each group's walk sum over the cells it counts whole.
    far: Vec<f64>,
}

impl GroupWalks {
    fn new(topology: &Topology, grid: &PuGrid, cutoff: &[f64]) -> Result<Self, WorldError> {
        let sus = topology.su_positions();
        let rx = |s: usize| sus[topology.receivers()[s] as usize];
        // At most about one group per slot, and none finer than the PU
        // leaves.
        let groups = Cells::new((0..cutoff.len()).map(rx), 1.0, grid.side);
        let group: Vec<u32> = (0..cutoff.len()).map(|s| groups.of(rx(s)) as u32).collect();
        let cells = groups.len();
        let mut boxes = vec![EMPTY_BOX; cells];
        let mut reach = vec![0.0f64; cells];
        for (s, &g) in group.iter().enumerate() {
            grow_box(&mut boxes[g as usize], &point_box(rx(s)));
            reach[g as usize] = reach[g as usize].max(cutoff[s]);
        }
        let mut off = vec![0u32; cells + 1];
        let mut leaves = Vec::new();
        let mut far = vec![-0.0f64; cells];
        let mut stack = Vec::new();
        for g in 0..cells {
            // Cutoffs are positive, so an empty cell is one left at 0.
            if reach[g] > 0.0 {
                let r = EXACT_RADIUS_CUTOFFS * reach[g];
                far[g] = grid.walk(&boxes[g], r * r, &mut leaves, &mut stack);
            }
            off[g + 1] = offset("PU leaf list", leaves.len())?;
        }
        Ok(Self {
            group,
            off,
            leaves,
            far,
        })
    }

    /// Slot `s`'s near leaves and the sum over its group's other cells.
    fn of(&self, s: usize) -> (&[u32], f64) {
        let g = self.group[s] as usize;
        let leaves = &self.leaves[self.off[g] as usize..self.off[g + 1] as usize];
        (leaves, self.far[g])
    }
}

/// The factor a bound's sum is inflated by to bound the id-order fold of
/// the same gains over `num_pus` PUs as computed, not only in real
/// arithmetic. Both add at most `N` non-negative terms (in any order or
/// grouping), each bound term a product rounded once: together within a
/// relative `2(N + 1)·2^-53` of each other, so `4(N + 1)·2^-52` covers it
/// with room for a libm `powf` off by an ulp.
fn rounding_margin(num_pus: usize) -> f64 {
    1.0 + 4.0 * (num_pus as f64 + 1.0) * f64::EPSILON
}

/// Builds every slot's ladder ([`PuStructure`]) up to the first step
/// that fits its threshold. Rung 0 serves the PUs within the cutoff
/// (`base`) and is bounded from a [`PuGrid`] walked once per receiver
/// group ([`GroupWalks`]); where that bound does not fit, from the slot's
/// own receiver ([`REFINED_RADIUS_CUTOFFS`]). Where neither fits, the slot
/// climbs: rung `j` serves the ring of PUs out to `R_j = cutoff·2^j` and
/// is bounded by a walk from its receiver ([`RUNG_EXACT_RADII`]), capped
/// by the step below, until a bound fits. The rung whose radius reaches
/// the far corner of the PUs' box ([`PuGrid::far_sq`]) serves every PU,
/// so its bound is zero and the climb ends there at the latest, whatever
/// the sums read.
///
/// Each bound is a walk's sum inflated by a margin that covers every
/// rounding in it and in an id-order fold of the gains it bounds, so it
/// is at least that fold as computed. Bounds and rings are pure functions
/// of `(topology, alpha, cutoff)`, independent of which budget triggered
/// their computation. PUs obey no packing bound, so certification from
/// the actual positions (not an analytic tail) is the only sound option
/// here.
///
/// A slot's rows and steps read that slot alone, so the count and row
/// passes run on `ranges` contiguous slot ranges at once ([`fan_out`]):
/// base rows go in place, into disjoint pieces of tables sized once; each
/// range appends its steps and `ext` PUs to tables of its own, joined in
/// slot order. Every table and every error is the same for every range
/// count.
fn build_pu_structure(
    topology: &Topology,
    law: &PathLoss,
    cutoff: &[f64],
    threshold: impl Fn(usize) -> f64 + Sync,
    key: StructureKey,
    ranges: usize,
) -> Result<PuStructure, WorldError> {
    let m = topology.num_receiver_slots();
    let sus = topology.su_positions();
    let pus = topology.pu_positions();
    let receivers = topology.receivers();
    let rx = |s: usize| sus[receivers[s] as usize];
    let grid = PuGrid::new(pus, *law);
    let groups = GroupWalks::new(topology, &grid, cutoff)?;
    let margin = rounding_margin(pus.len());
    let slots = split(m, ranges);
    // The base rows are the largest table here: count them first, so they
    // are written in place into blocks sized once, with no doubling
    // reallocation holding an old and a new block at the same time.
    let mut base_off = vec![0u32; m + 1];
    let counts = cut(&mut base_off[1..], slots.iter().map(|r| r.end));
    fan_out(
        slots.iter().cloned().zip(counts).collect(),
        |(range, lens)| {
            for (s, len) in range.zip(lens) {
                *len = grid.count_near(groups.of(s).0, rx(s), cutoff[s] * cutoff[s]);
            }
        },
    );
    let entries = prefix_offsets("PU near-field", &mut base_off)?;
    let mut base_id = vec![0u32; entries];
    let rows = cut(&mut base_id, slots.iter().map(|r| base_off[r.end] as usize));
    let ladders = fan_out(slots.iter().cloned().zip(rows).collect(), |(range, ids)| {
        let first = base_off[range.start] as usize;
        let mut out = Ladders {
            step_end: Vec::with_capacity(range.len()),
            ext_end: Vec::with_capacity(range.len()),
            bound: Vec::with_capacity(range.len()),
            reach: Vec::with_capacity(range.len()),
            ..Ladders::default()
        };
        let mut near: Vec<u32> = Vec::new();
        let mut bufs = WalkBuffers::default();
        for s in range {
            let q = rx(s);
            let cutoff_sq = cutoff[s] * cutoff[s];
            let threshold = threshold(s);
            let (near_leaves, group_far) = groups.of(s);
            near.clear();
            let exact = grid.evaluate(
                near_leaves,
                q,
                f64::NEG_INFINITY,
                cutoff_sq,
                Some(&mut near),
            );
            let mut b = margin * (exact + group_far);
            near.sort_unstable();
            let row = base_off[s] as usize - first..base_off[s + 1] as usize - first;
            assert_eq!(near.len(), row.len(), "slot {s}: near PUs miscounted");
            ids[row].copy_from_slice(&near);
            out.step(b, 0);
            let (ext_start, mut radius) = (out.ext_id.len(), cutoff[s]);
            if b > threshold {
                // Rung 0 again, from the receiver alone.
                let r = REFINED_RADIUS_CUTOFFS * radius;
                let sum = grid.rung(q, cutoff_sq, cutoff_sq, r, None, &mut bufs);
                b = (margin * sum).min(b);
                out.step(b, 0);
            }
            let far_sq = grid.far_sq(q);
            while b > threshold {
                let inner_sq = radius * radius;
                radius *= RUNG_RATIO;
                let r = RUNG_EXACT_RADII * radius;
                let ring = Some(&mut out.ext_id);
                let sum = grid.rung(q, inner_sq, radius * radius, r, ring, &mut bufs);
                // The rung that reaches `far_sq` serves every PU.
                b = if radius * radius < far_sq {
                    (margin * sum).min(b)
                } else {
                    0.0
                };
                out.step(b, out.ext_id.len() - ext_start);
            }
            out.ext_end.push(out.ext_id.len());
            out.step_end.push(out.bound.len());
            // Past `u32::MAX` the join below refuses at this slot or
            // before, so the rest of the range is never read.
            if out.ext_id.len().max(out.bound.len()) > u32::MAX as usize {
                break;
            }
        }
        out
    });
    // Slot by slot in order, as a serial append checks them, so an
    // oversized table is refused at the same slot with the same count.
    let (mut step_off, mut ext_off) = (Vec::with_capacity(m + 1), Vec::with_capacity(m + 1));
    step_off.push(0u32);
    ext_off.push(0u32);
    let (mut bound, mut reach, mut ext_id) = (Vec::new(), Vec::new(), Vec::new());
    for part in ladders {
        for (&e, &l) in part.ext_end.iter().zip(&part.step_end) {
            ext_off.push(offset("served far PU", ext_id.len() + e)?);
            step_off.push(offset("PU certificate step", bound.len() + l)?);
        }
        append(&mut bound, part.bound);
        append(&mut reach, part.reach);
        append(&mut ext_id, part.ext_id);
    }
    Ok(PuStructure {
        key,
        base: IdRows {
            off: base_off,
            ids: base_id,
        },
        step_off,
        bound,
        reach,
        ext: IdRows {
            off: ext_off,
            ids: ext_id,
        },
    })
}

/// What one range of [`build_pu_structure`]'s row pass appends, slot by
/// slot: steps and `ext` PUs, with each slot's ends in those tables
/// counted from the range's start.
#[derive(Default)]
struct Ladders {
    step_end: Vec<usize>,
    ext_end: Vec<usize>,
    bound: Vec<f64>,
    reach: Vec<u32>,
    ext_id: Vec<u32>,
}

impl Ladders {
    fn step(&mut self, bound: f64, reach: usize) {
        self.bound.push(bound);
        // A slot's ring holds at most every PU, and PU ids are `u32`.
        self.reach.push(reach as u32);
    }
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
                assert_eq!(
                    a.su_gain(topo, su, s).to_bits(),
                    b.su_gain(topo, su, s).to_bits()
                );
            }
        }
        for pu in 0..topo.num_pus() {
            assert_eq!(a.pu_fanout(pu), b.pu_fanout(pu));
            for s in 0..m {
                assert_eq!(
                    a.pu_gain(topo, pu, s).to_bits(),
                    b.pu_gain(topo, pu, s).to_bits(),
                    "pu {pu} slot {s}"
                );
            }
        }
        for s in 0..m {
            assert_eq!(a.near_pus(s), b.near_pus(s));
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
        assert!(
            Arc::ptr_eq(&old.structure, &new.structure),
            "PU structure rebuilt on a looser budget"
        );
        assert_eq!(
            radio.truncation_stats(),
            re.truncation_stats(),
            "residuals moved though P_p and every step held"
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

    /// How many PUs past their base rows the slots of `radio` serve.
    fn total_pulls(radio: &Radio) -> usize {
        (0..sparse(radio).gmin.g_min.len() as u32)
            .map(|s| radio.near_pus(s).unwrap().1.len())
            .sum()
    }

    fn served_pus(radio: &Radio) -> Vec<(&[u32], &[u32])> {
        (0..sparse(radio).gmin.g_min.len() as u32)
            .map(|s| radio.near_pus(s).unwrap())
            .collect()
    }

    #[test]
    fn served_pus_follow_pull_counts_along_a_chain() {
        let topo = grid();
        let pulling = powered(sparse_params(), 100.0, 1.0);
        let radio = Radio::customize(&topo, &pulling).unwrap();
        assert!(total_pulls(&radio) > 0, "the tight budget must pull");
        // Scaling both powers keeps every threshold, hence every pull
        // count: the structure and every served PU are kept, only the
        // residuals move.
        let same_counts = radio
            .recustomize(&topo, &powered(sparse_params(), 200.0, 2.0))
            .unwrap();
        assert!(Arc::ptr_eq(
            &sparse(&radio).structure,
            &sparse(&same_counts).structure
        ));
        assert_eq!(served_pus(&radio), served_pus(&same_counts));
        assert_ne!(
            radio.truncation_stats().unwrap().1,
            same_counts.truncation_stats().unwrap().1
        );
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
        assert_eq!(
            total_pulls(&prev),
            0,
            "every slot serves its base row alone"
        );
    }

    /// A `cols`×`cols` SU grid (spacing 7, rows chained leftward to
    /// column 0) in a square of side `side`, with the given PUs.
    fn lattice_world(cols: usize, side: f64, pus: Vec<Point>) -> Topology {
        let mut sus = Vec::new();
        let mut parents = Vec::new();
        for i in 0..cols * cols {
            let (row, col) = (i / cols, i % cols);
            sus.push(Point::new(col as f64 * 7.0 + 1.0, row as f64 * 7.0 + 1.0));
            parents.push(if i == 0 {
                None
            } else if col > 0 {
                Some((i - 1) as u32)
            } else {
                Some((i - cols) as u32)
            });
        }
        Topology::builder(Region::square(side))
            .su_positions(sus)
            .pu_positions(pus)
            .parents(parents)
            .build()
            .unwrap()
    }

    /// `per_side`² PUs on a lattice of pitch `step` from `origin`.
    fn pu_lattice(per_side: usize, step: f64, origin: Point) -> Vec<Point> {
        (0..per_side * per_side)
            .map(|k| {
                Point::new(
                    origin.x + (k % per_side) as f64 * step,
                    origin.y + (k / per_side) as f64 * step,
                )
            })
            .collect()
    }

    /// Worlds of 40×40 SUs (side 275) large enough that some of a slot's
    /// PU cells lie outside its exact radius, plus the degenerate PU
    /// counts.
    fn certification_worlds() -> Vec<(&'static str, Topology)> {
        let side = 7.0 * 39.0 + 2.0;
        // Four tight clusters of 64 PUs and a sparse lattice around them.
        let mut clustered = Vec::new();
        for (cx, cy) in [(20.0, 30.0), (250.0, 40.0), (140.0, 140.0), (60.0, 250.0)] {
            clustered.extend(pu_lattice(8, 0.9, Point::new(cx, cy)));
        }
        clustered.extend(pu_lattice(5, side / 5.0, Point::new(13.0, 17.0)));
        vec![
            (
                "lattice",
                lattice_world(40, side, pu_lattice(20, side / 20.0, Point::new(6.0, 6.0))),
            ),
            ("clustered", lattice_world(40, side, clustered)),
            (
                "outside",
                lattice_world(
                    40,
                    2.0 * side,
                    pu_lattice(12, 15.0, Point::new(300.0, 120.0)),
                ),
            ),
            ("no PUs", lattice_world(40, side, Vec::new())),
            (
                "one PU",
                lattice_world(40, side, vec![Point::new(100.0, 90.0)]),
            ),
        ]
    }

    /// Slot `s`'s receiver, squared cutoff and, in id order, every PU with
    /// its squared distance and gain, as a brute-force scan sees them.
    fn scan(topo: &Topology, radio: &Radio, s: usize) -> (f64, Vec<(u32, f64, f64)>) {
        let q = topo.su_positions()[topo.receivers()[s] as usize];
        let cutoff = radio.truncation_stats().unwrap().0[s];
        let law = PathLoss::new(radio.params().phy.alpha());
        let pus = topo.pu_positions().iter().enumerate().map(|(k, &pu)| {
            let d2 = pu.distance_sq(q);
            (k as u32, d2, law.gain_sq(d2))
        });
        (cutoff * cutoff, pus.collect())
    }

    #[test]
    fn base_rows_and_bounds_match_a_brute_force_scan() {
        for (name, topo) in certification_worlds() {
            let radio = Radio::customize(&topo, &sparse_params()).unwrap();
            let structure = &sparse(&radio).structure;
            let grid = PuGrid::new(
                topo.pu_positions(),
                PathLoss::new(radio.params().phy.alpha()),
            );
            let margin = rounding_margin(topo.num_pus());
            let mut bufs = WalkBuffers::default();
            let mut approximated = 0;
            for s in 0..topo.num_receiver_slots() {
                let (cutoff_sq, pus) = scan(&topo, &radio, s);
                let want: Vec<u32> = pus
                    .iter()
                    .filter(|&&(_, d2, _)| d2 <= cutoff_sq)
                    .map(|&(k, _, _)| k)
                    .collect();
                assert_eq!(structure.base.row(s), want, "{name}: slot {s} base row");
                let exact: f64 = pus
                    .iter()
                    .filter(|&&(_, d2, _)| d2 > cutoff_sq)
                    .map(|&(_, _, g)| g)
                    .sum();
                let bound = structure.bound[structure.step_off[s] as usize];
                assert!(
                    bound >= exact,
                    "{name}: slot {s} bound {bound} < exact {exact}"
                );
                // The refined bound is stored only where the group bound
                // misses a budget; take it at every slot here.
                let q = topo.su_positions()[topo.receivers()[s] as usize];
                let r = REFINED_RADIUS_CUTOFFS * cutoff_sq.sqrt();
                let refined = margin * grid.rung(q, cutoff_sq, cutoff_sq, r, None, &mut bufs);
                assert!(
                    refined >= exact,
                    "{name}: slot {s} refined bound {refined} < exact {exact}"
                );
                if bound > exact * (1.0 + 1e-9) {
                    approximated += 1;
                }
            }
            if name != "no PUs" && name != "one PU" {
                assert!(
                    approximated > 0,
                    "{name}: no cell lay outside an exact radius"
                );
            }
        }
    }

    /// The step that decides each slot under `params`: 0 where rung 0's
    /// group bound fits, 1 where its refined bound does, `j + 1` where
    /// rung `j ≥ 1` does.
    fn steps(radio: &Radio, params: &RadioParams) -> Vec<usize> {
        let s = sparse(radio);
        let st = &s.structure;
        (0..s.gmin.g_min.len())
            .map(|i| {
                let threshold = pu_threshold(&params.phy, 0.1, s.gmin.g_min[i]);
                let steps = &st.bound[st.step_off[i] as usize..st.step_off[i + 1] as usize];
                steps.partition_point(|&v| v > threshold)
            })
            .collect()
    }

    /// Checks every slot of `radio` against a brute-force scan of `topo`:
    /// its base row is exactly the PUs within its cutoff, ids ascending;
    /// the PUs it serves are exactly those within its rung's radius, each
    /// once; and the bound its residual carries is at least the id-order
    /// fold over the PUs it leaves out and at most its threshold. Returns
    /// how many slots serve a rung above 0.
    fn assert_ladder_certifies(topo: &Topology, radio: &Radio, what: &str) -> usize {
        let params = radio.params();
        let InterferenceModel::Truncated { epsilon } = params.interference else {
            panic!("{what}: expected a truncated radio");
        };
        let s = sparse(radio);
        let (cutoff, residual) = radio.truncation_stats().unwrap();
        let mut climbed = 0;
        for (slot, step) in steps(radio, params).into_iter().enumerate() {
            let (cutoff_sq, pus) = scan(topo, radio, slot);
            let rung = step.saturating_sub(1);
            let r = cutoff[slot] * RUNG_RATIO.powi(rung as i32);
            let within = |r_sq: f64| -> Vec<u32> {
                pus.iter()
                    .filter(|&&(_, d2, _)| d2 <= r_sq)
                    .map(|&(k, _, _)| k)
                    .collect()
            };
            let (base, prefix) = radio.near_pus(slot as u32).unwrap();
            assert_eq!(base, within(cutoff_sq), "{what}: slot {slot} base row");
            let mut served = [base, prefix].concat();
            served.sort_unstable();
            assert_eq!(served, within(r * r), "{what}: slot {slot} at rung {rung}");
            let fold: f64 = pus
                .iter()
                .filter(|&&(_, d2, _)| d2 > r * r)
                .map(|&(_, _, g)| g)
                .sum();
            let bound = s.structure.bound[s.structure.step_off[slot] as usize + step];
            let threshold = pu_threshold(&params.phy, epsilon, s.gmin.g_min[slot]);
            assert!(
                fold <= bound && bound <= threshold,
                "{what}: slot {slot} at rung {rung}: fold {fold}, bound {bound}, \
                 threshold {threshold}"
            );
            assert_eq!(
                residual[slot].to_bits(),
                (params.phy.pu_power() * bound).to_bits(),
                "{what}: slot {slot} residual"
            );
            climbed += usize::from(rung > 0);
        }
        climbed
    }

    #[test]
    fn every_slot_serves_the_pus_within_its_rung_and_bounds_the_rest() {
        // Per world, a P_p/P_s at which some of its slots climb past rung 0.
        let ratios = [
            (15.0, 10.0),
            (15.0, 10.0),
            (100.0, 10.0),
            (400.0, 1.0),
            (400.0, 1.0),
        ];
        for ((name, topo), (pu_power, su_power)) in certification_worlds().into_iter().zip(ratios) {
            let params = powered(sparse_params(), pu_power, su_power);
            let radio = Radio::customize(&topo, &params).unwrap();
            let climbed = assert_ladder_certifies(&topo, &radio, name);
            if name != "no PUs" {
                assert!(climbed > 0, "{name}: no slot climbed past rung 0");
            }
        }
    }

    /// A seeded uniform deployment at the scaled preset's size and density
    /// (600 SUs and a base station, 63 PUs, side 140) under ADDC: the
    /// connected-dominating-set tree and the PCR as both sensing ranges.
    fn uniform_addc_world(seed: u64) -> (Topology, RadioParams) {
        use crn_geometry::Deployment;
        use crn_interference::{pcr, PcrConstants};
        use crn_topology::{CollectionTree, UnitDiskGraph};
        use rand::{rngs::StdRng, SeedableRng};
        let region = Region::square(140.0);
        let mut rng = StdRng::seed_from_u64(seed);
        loop {
            let sus = Deployment::uniform(region, 601, &mut rng);
            let graph = UnitDiskGraph::build(&sus, phy().su_radius());
            if !graph.is_connected() {
                continue;
            }
            let pus = Deployment::uniform(region, 63, &mut rng);
            let tree = CollectionTree::cds(&graph, 0).unwrap();
            let topology = Topology::builder(region)
                .su_positions(sus.points().to_vec())
                .pu_positions(pus.points().to_vec())
                .parents((0..601).map(|u| tree.parent(u)).collect())
                .build()
                .unwrap();
            let params = RadioParams::new(phy())
                .sense_range(pcr::carrier_sensing_range(&phy(), PcrConstants::Paper))
                .interference(InterferenceModel::Truncated { epsilon: 0.1 });
            return (topology, params);
        }
    }

    #[test]
    fn a_ladder_ends_at_the_rung_that_covers_every_pu() {
        // At a PU power 10¹² times the SU power no bound over a PU left
        // out fits a budget, so every slot climbs to the rung that serves
        // every PU.
        let side = 7.0 * 39.0 + 2.0;
        let topo = lattice_world(40, side, pu_lattice(20, side / 20.0, Point::new(6.0, 6.0)));
        let params = powered(sparse_params(), 1e12, 1.0);
        let radio = Radio::customize(&topo, &params).unwrap();
        let s = sparse(&radio);
        for (slot, step) in steps(&radio, &params).into_iter().enumerate() {
            // Rung 0's two bounds, then one rung per doubling of the
            // cutoff until it spans the deployment's diagonal.
            let rungs = (side * std::f64::consts::SQRT_2 / s.cutoff.cutoff[slot]).log2();
            let stored = s.structure.step_off[slot + 1] - s.structure.step_off[slot];
            assert!(
                f64::from(stored) <= 2.0 + rungs.ceil() && step + 1 == stored as usize,
                "slot {slot}: {stored} steps, deciding at {step}"
            );
            let (base, prefix) = radio.near_pus(slot as u32).unwrap();
            let mut served = [base, prefix].concat();
            served.sort_unstable();
            assert!(
                served.iter().copied().eq(0..topo.num_pus() as u32),
                "slot {slot}"
            );
            let last = s.structure.step_off[slot + 1] as usize - 1;
            assert_eq!(s.structure.bound[last], 0.0, "slot {slot}");
        }
    }

    #[test]
    fn a_uniform_addc_world_climbs_at_the_default_budget() {
        let (topo, params) = uniform_addc_world(1);
        let radio = Radio::customize(&topo, &params).unwrap();
        let climbed = assert_ladder_certifies(&topo, &radio, "uniform ADDC");
        assert!(
            climbed > 0,
            "no slot climbed past rung 0 at the default budget"
        );
    }

    #[test]
    fn recustomize_chain_crosses_the_certified_boundary_both_ways() {
        let topo = certification_worlds().swap_remove(0).1;
        let mut params = powered(sparse_params(), 10.0, 10.0);
        let mut radio = Radio::customize(&topo, &params).unwrap();
        let (mut climbed, mut descended_reused) = (0, 0);
        // Tightening moves slots off rung 0 (a rebuild: they stored no
        // higher rung); loosening moves them back onto rung 0 on the
        // stored structure.
        for (pu_power, su_power) in [(15.0, 10.0), (20.0, 10.0), (12.0, 10.0), (10.0, 10.0)] {
            let next_params = powered(sparse_params(), pu_power, su_power);
            let next = radio.recustomize(&topo, &next_params).unwrap();
            assert_same_tables(
                &topo,
                &next,
                &Radio::customize(&topo, &next_params).unwrap(),
            );
            let (before, after) = (steps(&radio, &params), steps(&next, &next_params));
            let moved = |from: &dyn Fn(usize) -> bool, to: &dyn Fn(usize) -> bool| {
                before
                    .iter()
                    .zip(&after)
                    .filter(|&(&b, &a)| from(b) && to(a))
                    .count()
            };
            climbed += moved(&|b| b < 2, &|a| a >= 2);
            if Arc::ptr_eq(&sparse(&radio).structure, &sparse(&next).structure) {
                descended_reused += moved(&|b| b >= 2, &|a| a < 2);
            }
            (radio, params) = (next, next_params);
        }
        assert!(climbed > 0, "no slot climbed past rung 0");
        assert!(
            descended_reused > 0,
            "no slot returned to rung 0 on a reused structure"
        );
    }

    /// Every sparse table of `a` and `b`, bit for bit: cutoffs, base rows,
    /// steps and `ext` rows; and what is read off them, the served PUs and
    /// the residuals.
    fn assert_same_sparse_bits(a: &Radio, b: &Radio, what: &str) {
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(served_pus(a), served_pus(b), "{what}: served PUs");
        let (a_stats, b_stats) = (a.truncation_stats().unwrap(), b.truncation_stats().unwrap());
        assert_eq!(bits(&a_stats.1), bits(&b_stats.1), "{what}: residuals");
        assert_eq!(
            a.tables_digest(),
            b.tables_digest(),
            "{what}: tables digest"
        );
        let (a, b) = (sparse(a), sparse(b));
        assert_eq!(
            bits(&a.cutoff.cutoff),
            bits(&b.cutoff.cutoff),
            "{what}: cutoffs"
        );
        let (sa, sb) = (&a.structure, &b.structure);
        for (la, lb, table) in [
            (&sa.base, &sb.base, "base rows"),
            (&sa.ext, &sb.ext, "ext rows"),
        ] {
            assert_eq!(la.off, lb.off, "{what}: {table}");
            assert_eq!(la.ids, lb.ids, "{what}: {table}");
        }
        assert_eq!(sa.step_off, sb.step_off, "{what}: step offsets");
        assert_eq!(bits(&sa.bound), bits(&sb.bound), "{what}: bounds");
        assert_eq!(sa.reach, sb.reach, "{what}: reaches");
    }

    #[test]
    fn three_ranges_build_the_serial_tables_bit_for_bit() {
        let default = sparse_params();
        let pulling = powered(sparse_params(), 100.0, 1.0);
        // Tightens past the stored chain (a rebuild), pulls, then loosens
        // onto the reused structure.
        let chain = [(15.0, 10.0), (100.0, 1.0), (12.0, 10.0)];
        let mut pulled = 0;
        for (name, topo) in certification_worlds() {
            let build = |params: &RadioParams, prev: Option<&Radio>, ranges| {
                Radio::customize_from(&topo, params, prev, Some(ranges)).unwrap()
            };
            for (budget, params) in [("default", &default), ("pulling", &pulling)] {
                let serial = build(params, None, 1);
                assert_same_sparse_bits(
                    &serial,
                    &build(params, None, 3),
                    &format!("{name} {budget}"),
                );
                pulled += total_pulls(&serial);
            }
            let (mut serial, mut ranged) = (build(&default, None, 1), build(&default, None, 3));
            for (pu_power, su_power) in chain {
                let params = powered(sparse_params(), pu_power, su_power);
                serial = build(&params, Some(&serial), 1);
                ranged = build(&params, Some(&ranged), 3);
                let step = format!("{name} chain at P_p {pu_power}, P_s {su_power}");
                assert_same_sparse_bits(&serial, &ranged, &step);
            }
        }
        assert!(pulled > 0, "the pulling budget must pull");
    }

    #[test]
    fn tables_digest_reads_every_sparse_table() {
        let pulling = powered(sparse_params(), 100.0, 1.0);
        let mut radio = certification_worlds()
            .into_iter()
            .map(|(_, topo)| Radio::customize(&topo, &pulling).unwrap())
            .max_by_key(total_pulls)
            .unwrap();
        assert!(total_pulls(&radio) > 0, "every table must hold an entry");
        let before = radio.tables_digest();
        // Each flips the lowest bit of a table's first entry: twice is
        // none. Every `Arc` here is this radio's own.
        fn f(x: &mut f64) {
            *x = f64::from_bits(x.to_bits() ^ 1);
        }
        fn own<T: ?Sized>(shared: &mut Arc<T>) -> &mut T {
            Arc::get_mut(shared).unwrap()
        }
        type Flip = fn(&mut SparseRadio);
        let flips: [(&str, Flip); 8] = [
            ("cutoffs", |s| f(&mut own(&mut s.cutoff).cutoff[0])),
            ("step offsets", |s| own(&mut s.structure).step_off[0] ^= 1),
            ("bounds", |s| f(&mut own(&mut s.structure).bound[0])),
            ("reaches", |s| own(&mut s.structure).reach[0] ^= 1),
            ("ext offsets", |s| own(&mut s.structure).ext.off[0] ^= 1),
            ("ext ids", |s| own(&mut s.structure).ext.ids[0] ^= 1),
            ("base offsets", |s| own(&mut s.structure).base.off[0] ^= 1),
            ("base ids", |s| own(&mut s.structure).base.ids[0] ^= 1),
        ];
        for (table, flip) in flips {
            for flipped in [true, false] {
                let RadioGains::Sparse(s) = &mut radio.gains else {
                    unreachable!("a truncated radio")
                };
                flip(s);
                assert_eq!(radio.tables_digest() != before, flipped, "{table}");
            }
        }
        let exact = RadioParams::new(phy()).sense_range(24.0);
        let exact = Radio::customize(&grid(), &exact).unwrap();
        assert_eq!(exact.tables_digest(), None);
    }

    #[test]
    fn split_cuts_every_slot_into_exactly_one_range() {
        for (len, ranges) in [(0, 1), (5, 3), (1_560, 3), (7, 7), (2, 4)] {
            let split = split(len, ranges);
            assert_eq!(split.len(), ranges);
            assert_eq!(split.first().map(|r| r.start), Some(0));
            assert_eq!(split.last().map(|r| r.end), Some(len));
            assert!(split.windows(2).all(|w| w[0].end == w[1].start));
            let (short, long) = (len / ranges, len.div_ceil(ranges));
            assert!(split.iter().all(|r| (short..=long).contains(&r.len())));
        }
        let mut table = [0u8; 6];
        let pieces = cut(&mut table, [2, 2, 6]);
        assert_eq!(
            pieces.iter().map(|p| p.len()).collect::<Vec<_>>(),
            [2, 0, 4]
        );
    }

    #[test]
    fn gain_table_bytes_count_each_held_table_once() {
        let topo = grid();
        for (pu_power, su_power) in [(10.0, 10.0), (100.0, 1.0)] {
            let radio =
                Radio::customize(&topo, &powered(sparse_params(), pu_power, su_power)).unwrap();
            let (s, m) = (sparse(&radio), topo.num_receiver_slots());
            let st = &s.structure;
            assert_eq!(
                (st.base.off.len(), st.ext.off.len(), st.step_off.len()),
                (m + 1, m + 1, m + 1)
            );
            assert_eq!(st.reach.len(), st.bound.len());
            assert_eq!(
                radio.gain_table_bytes(),
                m * 8
                    + (3 * (m + 1) + st.base.ids.len() + st.ext.ids.len() + st.reach.len()) * 4
                    + st.bound.len() * 8
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
    fn su_gains_follow_the_cutoff_disk_query_bit_for_bit() {
        // The gain rule recomputes every SU gain from positions. A brute
        // force over every (SU, slot) pair: the gain is `gain_sq(d²)`
        // exactly where the cutoff's disk query visits the SU, `0.0`
        // elsewhere.
        for (name, topo) in certification_worlds() {
            let radio = Radio::customize(&topo, &sparse_params()).unwrap();
            let cutoff = radio.truncation_stats().unwrap().0;
            let law = PathLoss::new(radio.params().phy.alpha());
            let sus = topo.su_positions();
            let mut heard = vec![false; sus.len()];
            for s in 0..topo.num_receiver_slots() {
                let q = sus[topo.receivers()[s] as usize];
                heard.fill(false);
                topo.su_index()
                    .for_each_within(q, cutoff[s], |j| heard[j as usize] = true);
                for (su, &p) in sus.iter().enumerate() {
                    let want = if heard[su] {
                        law.gain_sq(p.distance_sq(q))
                    } else {
                        0.0
                    };
                    let got = radio.su_gain(&topo, su as u32, s as u32);
                    assert_eq!(got.to_bits(), want.to_bits(), "{name}: su {su} at slot {s}");
                }
            }
        }
    }

    #[test]
    fn pu_gains_follow_the_cutoff_bit_for_bit() {
        // The gain rule recomputes every served PU gain from positions. A
        // brute force over every (PU, slot) pair: the gain is `gain_sq(d²)`
        // exactly where the slot's served row (its PUs within the cutoff
        // and the first `ext` PUs its step serves) holds the PU, `0.0`
        // elsewhere.
        let pulling = powered(sparse_params(), 100.0, 1.0);
        let mut pulled = 0;
        for (name, topo) in certification_worlds() {
            for (budget, params) in [("default", &sparse_params()), ("pulling", &pulling)] {
                let radio = Radio::customize(&topo, params).unwrap();
                let structure = &sparse(&radio).structure;
                for (s, &g_min) in sparse(&radio).gmin.g_min.iter().enumerate() {
                    let (cutoff_sq, pus) = scan(&topo, &radio, s);
                    let threshold = pu_threshold(&params.phy, 0.1, g_min);
                    let k = structure.pull(s, threshold).unwrap().0 as usize;
                    pulled += k;
                    let first = &structure.ext.row(s)[..k];
                    for (pu, d2, g) in pus {
                        let want = if d2 <= cutoff_sq || first.contains(&pu) {
                            g
                        } else {
                            0.0
                        };
                        let got = radio.pu_gain(&topo, pu as usize, s as u32);
                        assert_eq!(
                            got.to_bits(),
                            want.to_bits(),
                            "{name} {budget}: pu {pu} at slot {s}"
                        );
                    }
                }
            }
        }
        assert!(pulled > 0, "the pulling budget must pull");
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
