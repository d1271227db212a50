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
/// Per slot: the PUs inside the cutoff (`base`, ids ascending), a
/// certified upper `bound` on the id-order sum of the far field's gains,
/// and, where that bound did not fit the slot's threshold at build, a
/// chain of non-increasing values in `level`: a refined bound, then —
/// where that did not fit either — the *exclusion levels*, the exact
/// summed far-field gain left outside after pulling `k` PUs, with the
/// nearest far-field PUs pulled to meet the PU-side budget (`ext_*`, in
/// pull order). A slot whose bound fits a budget pulls nothing under it;
/// any other slot re-derives its pull count by a pure `partition_point`
/// over its chain, bit-identical to a fresh build. A budget that needs
/// more of a chain than a slot stores rebuilds the structure.
#[derive(Debug)]
struct PuStructure {
    key: StructureKey,
    /// `Arc`-shared: when no slot pulls, [`ServedPu`] serves these very
    /// lists instead of a copy.
    base: Arc<PuLists>,
    /// Per slot, an upper bound on level 0, certified in floating point
    /// (see [`build_pu_structure`]).
    bound: Vec<f64>,
    ext_off: Vec<u32>,
    ext_id: Vec<u32>,
    ext_gain: Vec<f64>,
    /// Row offsets into `level`. Row `s` is empty where `bound[s]` fit the
    /// build's threshold; else it holds the refined bound and, where that
    /// did not fit, level 0 and one level per pulled PU.
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

    /// Slot `s`'s pull count under threshold `t`, with the far-field gain
    /// it leaves excluded: the first of the slot's bounds that fits, else
    /// the exact level after the pulls. `None` when the slot needs more of
    /// its chain than this structure holds (the caller then rebuilds it).
    ///
    /// Bounds and levels are pure functions of the geometry, so the result
    /// does not depend on which budget built the structure.
    fn pull(&self, s: usize, t: f64) -> Option<(u32, f64)> {
        if self.bound[s] <= t {
            return Some((0, self.bound[s]));
        }
        let chain = self.levels(s);
        // The chain is non-increasing, so its first value at or below the
        // threshold is canonical: the refined bound (index 0) or level 0
        // pull nothing, level `k` pulls `k`.
        let i = chain.partition_point(|&v| v > t);
        Some((i.saturating_sub(1) as u32, *chain.get(i)?))
    }

    /// [`PuStructure::pull`] for every slot, `threshold(s)` giving slot
    /// `s`'s threshold.
    fn pull_counts(&self, threshold: impl Fn(usize) -> f64) -> Option<(Vec<u32>, Vec<f64>)> {
        let m = self.bound.len();
        let mut pulls = Vec::with_capacity(m);
        let mut excluded = Vec::with_capacity(m);
        for s in 0..m {
            let (k, v) = self.pull(s, threshold(s))?;
            pulls.push(k);
            excluded.push(v);
        }
        Some((pulls, excluded))
    }

    fn bytes(&self) -> usize {
        self.base.bytes()
            + (self.ext_off.len() + self.ext_id.len() + self.lvl_off.len()) * 4
            + (self.bound.len() + self.ext_gain.len() + self.level.len()) * 8
    }
}

/// The served near-field PU lists for one vector of pull counts: slot `s`
/// serves its base row plus the first `pulls[s]` pulled PUs, ids
/// ascending. They are a pure function of the [`PuStructure`] and the
/// counts, so radios that agree on every count share one copy, and when
/// no slot pulls they are the structure's `base`.
fn served_lists(structure: &PuStructure, pulls: &[u32]) -> Result<Arc<PuLists>, WorldError> {
    if pulls.iter().all(|&k| k == 0) {
        Ok(structure.base.clone())
    } else {
        Ok(Arc::new(merge_pulled(structure, pulls)?))
    }
}

/// Whether `lists` serve exactly `pulls` over `structure`, the structure
/// they were built from. A served row is its base row plus its pulled
/// PUs, which the cutoff keeps disjoint.
fn serves(lists: &PuLists, structure: &PuStructure, pulls: &[u32]) -> bool {
    pulls
        .iter()
        .enumerate()
        .all(|(s, &k)| lists.row(s).0.len() == structure.base.row(s).0.len() + k as usize)
}

/// Sparse gain stages (`Truncated` model). SU gains are not stored:
/// [`SparseRadio::su_gain`] recomputes each from positions.
#[derive(Clone, Debug)]
struct SparseRadio {
    law: PathLoss,
    gmin: Arc<GminStage>,
    cutoff: Arc<CutoffStage>,
    structure: Arc<PuStructure>,
    served: Arc<PuLists>,
    /// Per-slot certified upper bound on the power received if every
    /// excluded PU transmitted at once (the PU-side truncation error):
    /// the far-field bound where it fits the budget, else exact.
    pu_residual: Arc<[f64]>,
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
                let threshold = |s: usize| pu_threshold(phy, epsilon, g_min[s]);
                // A step that moves no slot's pull count or excluded gain,
                // at an unchanged `P_p`, keeps the served lists and the
                // residual: each slot is checked under both budgets
                // without materializing either.
                let unmoved = prev.zip(prev_sparse).filter(|(p, sp)| {
                    let before = &p.params.phy;
                    let bits = |v: Option<(u32, f64)>| v.map(|(k, x)| (k, x.to_bits()));
                    sp.structure.key == skey
                        && before.pu_power().to_bits() == phy.pu_power().to_bits()
                        && (0..g_min.len()).all(|s| {
                            let old = sp
                                .structure
                                .pull(s, pu_threshold(before, epsilon, g_min[s]));
                            bits(old) == bits(sp.structure.pull(s, threshold(s)))
                        })
                });
                if let Some((_, sp)) = unmoved {
                    // The structure key covers alpha and the cutoffs too.
                    RadioGains::Sparse(sp.clone())
                } else {
                    let reused = prev_sparse
                        .filter(|p| p.structure.key == skey)
                        .and_then(|p| {
                            Some((p.structure.clone(), p.structure.pull_counts(threshold)?))
                        });
                    let (structure, (pulls, excluded)) = match reused {
                        Some(reused) => reused,
                        None => {
                            let structure = build_pu_structure(
                                topology,
                                &law,
                                &cutoff.cutoff,
                                threshold,
                                skey,
                                // Asked only here: a build that reuses its
                                // predecessor's structure never asks for
                                // the cores.
                                ranges.unwrap_or_else(|| range_count(g_min.len())),
                            )?;
                            let counts = structure
                                .pull_counts(threshold)
                                .expect("a freshly built structure covers its own budgets");
                            (Arc::new(structure), counts)
                        }
                    };
                    // Served lists depend only on the structure and the
                    // pull counts, so a radio that agrees with its
                    // predecessor on both keeps its lists.
                    let served = match prev_sparse {
                        Some(p)
                            if Arc::ptr_eq(&p.structure, &structure)
                                && serves(&p.served, &structure, &pulls) =>
                        {
                            p.served.clone()
                        }
                        _ => served_lists(&structure, &pulls)?,
                    };
                    let pu_residual = excluded.iter().map(|&v| phy.pu_power() * v).collect();
                    RadioGains::Sparse(SparseRadio {
                        law,
                        gmin,
                        cutoff,
                        structure,
                        served,
                        pu_residual,
                    })
                }
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
                let (ids, gains) = s.served.row(slot as usize);
                match ids.binary_search(&(pu as u32)) {
                    Ok(idx) => gains[idx],
                    Err(_) => 0.0,
                }
            }
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

    pub(crate) fn near_pus(&self, slot: u32) -> Option<(&[u32], &[f64])> {
        match &self.gains {
            RadioGains::Dense(_) => None,
            RadioGains::Sparse(s) => Some(s.served.row(slot as usize)),
        }
    }

    pub(crate) fn truncation_stats(&self) -> Option<(&[f64], &[f64])> {
        match &self.gains {
            RadioGains::Dense(_) => None,
            RadioGains::Sparse(s) => Some((&s.cutoff.cutoff, &s.pu_residual)),
        }
    }

    /// FNV-1a (64-bit) over every sparse table, in bit patterns: cutoffs,
    /// bounds, pulled lists, levels, base rows, served lists and
    /// residuals, each with its offsets. `None` in exact mode.
    pub(crate) fn tables_digest(&self) -> Option<u64> {
        let RadioGains::Sparse(s) = &self.gains else {
            return None;
        };
        let st = &s.structure;
        let mut h = Fnv(0xcbf2_9ce4_8422_2325);
        h.f64s(&s.cutoff.cutoff);
        h.f64s(&st.bound);
        h.u32s(&st.ext_off);
        h.u32s(&st.ext_id);
        h.f64s(&st.ext_gain);
        h.u32s(&st.lvl_off);
        h.f64s(&st.level);
        for lists in [&st.base, &s.served] {
            h.u32s(&lists.off);
            h.u32s(&lists.id);
            h.f64s(&lists.gain);
        }
        h.f64s(&s.pu_residual);
        Some(h.0)
    }

    /// Bytes this radio holds in gain tables. A table shared between
    /// stages (the served PU lists are the structure's base lists when no
    /// slot pulls) counts once; tables shared with another radio count
    /// in full for each, since each holds them.
    pub(crate) fn gain_table_bytes(&self) -> usize {
        match &self.gains {
            RadioGains::Dense(d) => (d.pu_gain.len() + d.su_gain.len()) * 8,
            RadioGains::Sparse(s) => {
                let served_lists = if Arc::ptr_eq(&s.served, &s.structure.base) {
                    0
                } else {
                    s.served.bytes()
                };
                (s.cutoff.cutoff.len() + s.pu_residual.len()) * 8
                    + s.structure.bytes()
                    + served_lists
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

/// PU-side exclusion threshold of a slot with weakest-link gain `g_min`,
/// in gain space: `p_p · excluded ≤ 0.5·ε·(p_s·g_min)/η_s` rearranged so
/// the comparison against the stored bound and levels is power-free.
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

/// The exact radius of the refined bound, taken only where the first one
/// does not fit the threshold, in multiples of the slot's own cutoff and
/// walked from its receiver alone: farther than the first, so the counted
/// cells carry about a third of what they did, for about three times the
/// exact evaluations — still far fewer than the exact fold over every PU.
const REFINED_RADIUS_CUTOFFS: f64 = 6.0;

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
    fn new(pus: &[Point]) -> Self {
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
    /// as the exact fold does. The walk reads only the geometry.
    fn walk(
        &self,
        from: &[f64; 4],
        exact_sq: f64,
        law: &PathLoss,
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
            sum += f64::from(count) * law.gain_sq(d2);
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
    /// `q` as the exact fold evaluates it: within `cutoff_sq` it is pushed
    /// with its gain onto `near` (if given), else its gain is added to the
    /// returned sum, which starts from `-0.0`.
    fn evaluate(
        &self,
        leaves: &[u32],
        q: Point,
        cutoff_sq: f64,
        law: &PathLoss,
        mut near: Option<&mut Vec<(u32, f64)>>,
    ) -> f64 {
        let mut sum = -0.0f64;
        for &c in leaves {
            let (lo, hi) = (
                self.leaf_off[c as usize] as usize,
                self.leaf_off[c as usize + 1] as usize,
            );
            for (&k, p) in self.leaf_id[lo..hi].iter().zip(&self.leaf_pos[lo..hi]) {
                let d2 = p.distance_sq(q);
                let g = law.gain_sq(d2);
                if d2 <= cutoff_sq {
                    if let Some(near) = near.as_deref_mut() {
                        near.push((k, g));
                    }
                } else {
                    sum += g;
                }
            }
        }
        sum
    }

    /// The far-field sum of a walk from the receiver at `q` alone, with
    /// exact radius `radius`: the refined bound, before its margin.
    fn point_bound(
        &self,
        q: Point,
        cutoff_sq: f64,
        radius: f64,
        law: &PathLoss,
        leaves: &mut Vec<u32>,
        stack: &mut Vec<(usize, usize)>,
    ) -> f64 {
        leaves.clear();
        let far = self.walk(&point_box(q), radius * radius, law, leaves, stack);
        self.evaluate(leaves, q, cutoff_sq, law, None) + far
    }
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
    fn new(
        topology: &Topology,
        grid: &PuGrid,
        cutoff: &[f64],
        law: &PathLoss,
    ) -> Result<Self, WorldError> {
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
                far[g] = grid.walk(&boxes[g], r * r, law, &mut leaves, &mut stack);
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

/// The factor a far-field bound's sum is inflated by to bound the exact
/// fold over `num_pus` PUs as computed, not only in real arithmetic. Both
/// add at most `N` non-negative terms (in any order or grouping), each
/// bound term a product rounded once: together within a relative
/// `2(N + 1)·2^-53` of each other, so `4(N + 1)·2^-52` covers it with room
/// for a libm `powf` off by an ulp.
fn rounding_margin(num_pus: usize) -> f64 {
    1.0 + 4.0 * (num_pus as f64 + 1.0) * f64::EPSILON
}

/// Partitions the PUs of every slot into within-cutoff (`base`) and far
/// field and bounds the far field from a [`PuGrid`], walked once per
/// receiver group ([`GroupWalks`]). Only where the bound does not fit the
/// slot's threshold does it refine the bound from the slot's own
/// receiver, and only
/// where that does not fit either does it compute the exact far field,
/// then pull the nearest far-field PUs (`ext`) until the exact excluded
/// gain sum fits, recording the exclusion level after every pull.
///
/// Each bound is a walk's sum inflated by a margin that covers every
/// rounding in it and in the exact fold, so it is at least level 0 as
/// computed; the refined one is capped by the first. Level 0 is the
/// id-order sum of the whole far field, folded as the gains are computed.
/// Levels `k ≥ 1` are fresh left-to-right folds over the distance-sorted
/// remainder, so both bounds and every stored level are pure functions
/// of `(topology, alpha, cutoff)` — independent of which budget
/// triggered their computation. PUs obey no packing bound, so
/// certification from the actual positions (not an analytic tail) is the
/// only sound option here.
///
/// A slot's rows, bound and levels read that slot alone, so the count and
/// row passes run on `ranges` contiguous slot ranges at once
/// ([`fan_out`]): base rows go in place, into disjoint pieces of tables
/// sized once; each range appends its bounds, levels and pulled PUs to
/// tables of its own, joined in slot order. Every table and every error
/// is the same for every range count.
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
    let grid = PuGrid::new(pus);
    let groups = GroupWalks::new(topology, &grid, cutoff, law)?;
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
    let mut base_gain = vec![0.0f64; entries];
    let row_ends = || slots.iter().map(|r| base_off[r.end] as usize);
    let rows = cut(&mut base_id, row_ends())
        .into_iter()
        .zip(cut(&mut base_gain, row_ends()));
    let certified = fan_out(
        slots.iter().cloned().zip(rows).collect(),
        |(range, (ids, gains))| {
            let first = base_off[range.start] as usize;
            let mut out = Certified {
                bound: Vec::with_capacity(range.len()),
                ext_end: Vec::with_capacity(range.len()),
                lvl_end: Vec::with_capacity(range.len()),
                ..Certified::default()
            };
            let mut near: Vec<(u32, f64)> = Vec::new();
            let (mut leaves, mut stack) = (Vec::new(), Vec::new());
            let mut far: Vec<(u64, u32, f64)> = Vec::new();
            for s in range {
                let q = rx(s);
                let cutoff_sq = cutoff[s] * cutoff[s];
                let threshold = threshold(s);
                let (near_leaves, group_far) = groups.of(s);
                near.clear();
                let exact = grid.evaluate(near_leaves, q, cutoff_sq, law, Some(&mut near));
                let b = margin * (exact + group_far);
                near.sort_unstable_by_key(|&(k, _)| k);
                let row = base_off[s] as usize - first..base_off[s + 1] as usize - first;
                assert_eq!(near.len(), row.len(), "slot {s}: near PUs miscounted");
                for ((id, gain), &(k, g)) in
                    ids[row.clone()].iter_mut().zip(&mut gains[row]).zip(&near)
                {
                    (*id, *gain) = (k, g);
                }
                out.bound.push(b);
                let refined = (b > threshold).then(|| {
                    let r = REFINED_RADIUS_CUTOFFS * cutoff[s];
                    (margin * grid.point_bound(q, cutoff_sq, r, law, &mut leaves, &mut stack))
                        .min(b)
                });
                out.level.extend(refined);
                if refined.is_some_and(|v| v > threshold) {
                    // `-0.0` and PU-id order make this the very left fold that
                    // `Iterator::sum` performs, so the level keeps its bits (an
                    // empty far field included).
                    let mut lvl0 = -0.0f64;
                    for &pu in pus {
                        let d2 = pu.distance_sq(q);
                        if d2 > cutoff_sq {
                            lvl0 += law.gain_sq(d2);
                        }
                    }
                    out.level.push(lvl0);
                    if lvl0 > threshold {
                        // Distances are non-negative finite, so their bit patterns
                        // order identically to the values; `far` starts in id
                        // order, so the stable sort breaks distance ties toward
                        // the lower PU id.
                        far.clear();
                        far.extend(pus.iter().enumerate().filter_map(|(k, &pu)| {
                            let d2 = pu.distance_sq(q);
                            (d2 > cutoff_sq).then(|| (d2.to_bits(), k as u32, law.gain_sq(d2)))
                        }));
                        far.sort_by_key(|&(d2_bits, _, _)| d2_bits);
                        let mut pulled = 0usize;
                        while out.level.last().copied().expect("level 0 exists") > threshold
                            && pulled < far.len()
                        {
                            let (_, id, g) = far[pulled];
                            out.ext_id.push(id);
                            out.ext_gain.push(g);
                            pulled += 1;
                            out.level
                                .push(far[pulled..].iter().map(|&(_, _, g)| g).sum());
                        }
                    }
                }
                out.ext_end.push(out.ext_id.len());
                out.lvl_end.push(out.level.len());
                // Past `u32::MAX` the join below refuses at this slot or
                // before, so the rest of the range is never read.
                if out.ext_id.len().max(out.level.len()) > u32::MAX as usize {
                    break;
                }
            }
            out
        },
    );
    // Slot by slot in order, as a serial append checks them, so an
    // oversized table is refused at the same slot with the same count.
    let (mut ext_off, mut lvl_off) = (Vec::with_capacity(m + 1), Vec::with_capacity(m + 1));
    ext_off.push(0u32);
    lvl_off.push(0u32);
    let (mut bound, mut ext_id, mut ext_gain, mut level) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for part in certified {
        for (&e, &l) in part.ext_end.iter().zip(&part.lvl_end) {
            ext_off.push(offset("pulled PU", ext_id.len() + e)?);
            lvl_off.push(offset("PU exclusion level", level.len() + l)?);
        }
        append(&mut bound, part.bound);
        append(&mut ext_id, part.ext_id);
        append(&mut ext_gain, part.ext_gain);
        append(&mut level, part.level);
    }
    Ok(PuStructure {
        key,
        base: Arc::new(PuLists {
            off: base_off,
            id: base_id,
            gain: base_gain,
        }),
        bound,
        ext_off,
        ext_id,
        ext_gain,
        lvl_off,
        level,
    })
}

/// What one range of [`build_pu_structure`]'s row pass appends, slot by
/// slot: bounds, pulled PUs and levels, with each slot's ends in those
/// tables counted from the range's start.
#[derive(Default)]
struct Certified {
    bound: Vec<f64>,
    ext_end: Vec<usize>,
    lvl_end: Vec<usize>,
    ext_id: Vec<u32>,
    ext_gain: Vec<f64>,
    level: Vec<f64>,
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
                    a.pu_gain(pu, s).to_bits(),
                    b.pu_gain(pu, s).to_bits(),
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
        assert!(
            Arc::ptr_eq(&old.served, &new.served),
            "served PU lists rebuilt though no pull count moved"
        );
        assert!(
            Arc::ptr_eq(&old.pu_residual, &new.pu_residual),
            "residual rebuilt though P_p and every excluded gain held"
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
            .map(|i| s.served.row(i).0.len() - s.structure.base.row(i).0.len())
            .sum()
    }

    #[test]
    fn served_lists_follow_pull_counts_along_a_chain() {
        let topo = grid();
        let pulling = powered(sparse_params(), 100.0, 1.0);
        let radio = Radio::customize(&topo, &pulling).unwrap();
        assert!(total_pulls(&radio) > 0, "the tight budget must pull");
        assert!(!Arc::ptr_eq(
            &sparse(&radio).served,
            &sparse(&radio).structure.base
        ));
        // Scaling both powers keeps every threshold, hence every pull
        // count: the lists are kept, only the residual moves.
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
            Arc::ptr_eq(&sparse(&prev).served, &sparse(&prev).structure.base),
            "with no pulls the served lists are the base lists"
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
            let grid = PuGrid::new(topo.pu_positions());
            let law = PathLoss::new(radio.params().phy.alpha());
            let margin = rounding_margin(topo.num_pus());
            let (mut leaves, mut stack) = (Vec::new(), Vec::new());
            let mut approximated = 0;
            for s in 0..topo.num_receiver_slots() {
                let (cutoff_sq, pus) = scan(&topo, &radio, s);
                let (ids, gains) = structure.base.row(s);
                let want: Vec<(u32, u64)> = pus
                    .iter()
                    .filter(|&&(_, d2, _)| d2 <= cutoff_sq)
                    .map(|&(k, _, g)| (k, g.to_bits()))
                    .collect();
                let got: Vec<(u32, u64)> = ids
                    .iter()
                    .zip(gains)
                    .map(|(&k, g)| (k, g.to_bits()))
                    .collect();
                assert_eq!(got, want, "{name}: slot {s} base row");
                let exact: f64 = pus
                    .iter()
                    .filter(|&&(_, d2, _)| d2 > cutoff_sq)
                    .map(|&(_, _, g)| g)
                    .sum();
                let bound = structure.bound[s];
                assert!(
                    bound >= exact,
                    "{name}: slot {s} bound {bound} < exact {exact}"
                );
                // The refined bound is stored only where the first one
                // misses a budget; take it at every slot here.
                let q = topo.su_positions()[topo.receivers()[s] as usize];
                let r = REFINED_RADIUS_CUTOFFS * cutoff_sq.sqrt();
                let refined =
                    margin * grid.point_bound(q, cutoff_sq, r, &law, &mut leaves, &mut stack);
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

    /// Which value decides each slot under `params`: 0 where the first
    /// bound fits, 1 where the refined bound does, 2 where the exact
    /// levels do.
    fn tiers(radio: &Radio, params: &RadioParams) -> Vec<u8> {
        let s = sparse(radio);
        (0..s.gmin.g_min.len())
            .map(|i| {
                let threshold = pu_threshold(&params.phy, 0.1, s.gmin.g_min[i]);
                if s.structure.bound[i] <= threshold {
                    0
                } else if s.structure.levels(i)[0] <= threshold {
                    1
                } else {
                    2
                }
            })
            .collect()
    }

    #[test]
    fn fallback_slots_pull_the_nearest_pus_until_the_rest_fits() {
        // Per world, a P_p/P_s at which some of its slots fall back to
        // the exact levels.
        let ratios = [
            (15.0, 10.0),
            (15.0, 10.0),
            (100.0, 10.0),
            (400.0, 1.0),
            (400.0, 1.0),
        ];
        let mut pulls = 0;
        for ((name, topo), (pu_power, su_power)) in certification_worlds().into_iter().zip(ratios) {
            let params = powered(sparse_params(), pu_power, su_power);
            let radio = Radio::customize(&topo, &params).unwrap();
            let g_min = &sparse(&radio).gmin.g_min;
            let threshold: Vec<f64> = g_min
                .iter()
                .map(|&g| pu_threshold(&params.phy, 0.1, g))
                .collect();
            let structure = &sparse(&radio).structure;
            let (_, residual) = radio.truncation_stats().unwrap();
            let tiers = tiers(&radio, &params);
            for s in 0..topo.num_receiver_slots() {
                let (cutoff_sq, pus) = scan(&topo, &radio, s);
                // The reference: pull the nearest far-field PUs (ties to
                // the lower id) until the exact remainder fits.
                let mut far: Vec<(u32, f64, f64)> = pus
                    .iter()
                    .copied()
                    .filter(|&(_, d2, _)| d2 > cutoff_sq)
                    .collect();
                let mut excluded: f64 = far.iter().map(|&(_, _, g)| g).sum();
                far.sort_by(|a, b| a.1.total_cmp(&b.1));
                let mut kept: Vec<(u32, u64)> = pus
                    .iter()
                    .filter(|&&(_, d2, _)| d2 <= cutoff_sq)
                    .map(|&(k, _, g)| (k, g.to_bits()))
                    .collect();
                let mut pulled = 0;
                while excluded > threshold[s] && pulled < far.len() {
                    kept.push((far[pulled].0, far[pulled].2.to_bits()));
                    pulled += 1;
                    excluded = far[pulled..].iter().map(|&(_, _, g)| g).sum();
                }
                kept.sort_unstable();
                let (ids, gains) = radio.near_pus(s as u32).unwrap();
                let got: Vec<(u32, u64)> = ids
                    .iter()
                    .zip(gains)
                    .map(|(&k, g)| (k, g.to_bits()))
                    .collect();
                assert_eq!(got, kept, "{name}: slot {s} served list");
                let level = match tiers[s] {
                    0 => structure.bound[s],
                    1 => structure.levels(s)[0],
                    _ => excluded,
                };
                assert_eq!(
                    residual[s].to_bits(),
                    (params.phy.pu_power() * level).to_bits(),
                    "{name}: slot {s} residual (tier {})",
                    tiers[s]
                );
            }
            if name != "no PUs" {
                assert!(tiers.contains(&2), "{name}: no slot fell back");
            }
            pulls += total_pulls(&radio);
        }
        assert!(pulls > 0, "the tight budgets must pull");
    }

    #[test]
    fn recustomize_chain_crosses_the_certified_boundary_both_ways() {
        let topo = certification_worlds().swap_remove(0).1;
        let mut params = powered(sparse_params(), 10.0, 10.0);
        let mut radio = Radio::customize(&topo, &params).unwrap();
        let (mut to_exact, mut to_bound_reused) = (0, 0);
        // Tightening moves bounded slots to the exact levels (a rebuild:
        // they stored none); loosening moves them back onto a bound on
        // the stored structure.
        for (pu_power, su_power) in [(15.0, 10.0), (20.0, 10.0), (12.0, 10.0), (10.0, 10.0)] {
            let next_params = powered(sparse_params(), pu_power, su_power);
            let next = radio.recustomize(&topo, &next_params).unwrap();
            assert_same_tables(
                &topo,
                &next,
                &Radio::customize(&topo, &next_params).unwrap(),
            );
            let (before, after) = (tiers(&radio, &params), tiers(&next, &next_params));
            let moved = |from: &dyn Fn(u8) -> bool, to: &dyn Fn(u8) -> bool| {
                before
                    .iter()
                    .zip(&after)
                    .filter(|&(&b, &a)| from(b) && to(a))
                    .count()
            };
            to_exact += moved(&|b| b < 2, &|a| a == 2);
            if Arc::ptr_eq(&sparse(&radio).structure, &sparse(&next).structure) {
                to_bound_reused += moved(&|b| b == 2, &|a| a < 2);
            }
            (radio, params) = (next, next_params);
        }
        assert!(to_exact > 0, "no bounded slot fell back");
        assert!(
            to_bound_reused > 0,
            "no fallback slot returned to a bound on a reused structure"
        );
    }

    /// Every sparse table of `a` and `b`, bit for bit: cutoffs, base rows,
    /// bounds, pulled lists, levels, served lists and residuals.
    fn assert_same_sparse_bits(a: &Radio, b: &Radio, what: &str) {
        let (a_digest, b_digest) = (a.tables_digest(), b.tables_digest());
        let (a, b) = (sparse(a), sparse(b));
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(
            bits(&a.cutoff.cutoff),
            bits(&b.cutoff.cutoff),
            "{what}: cutoffs"
        );
        let (sa, sb) = (&a.structure, &b.structure);
        for (la, lb, table) in [
            (&sa.base, &sb.base, "base rows"),
            (&a.served, &b.served, "served lists"),
        ] {
            assert_eq!(la.off, lb.off, "{what}: {table}");
            assert_eq!(la.id, lb.id, "{what}: {table}");
            assert_eq!(bits(&la.gain), bits(&lb.gain), "{what}: {table}");
        }
        assert_eq!(bits(&sa.bound), bits(&sb.bound), "{what}: bounds");
        assert_eq!(sa.ext_off, sb.ext_off, "{what}: pulled lists");
        assert_eq!(sa.ext_id, sb.ext_id, "{what}: pulled lists");
        assert_eq!(bits(&sa.ext_gain), bits(&sb.ext_gain), "{what}: pulled");
        assert_eq!(sa.lvl_off, sb.lvl_off, "{what}: levels");
        assert_eq!(bits(&sa.level), bits(&sb.level), "{what}: levels");
        assert_eq!(
            bits(&a.pu_residual),
            bits(&b.pu_residual),
            "{what}: residuals"
        );
        assert_eq!(a_digest, b_digest, "{what}: tables digest");
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
        let flips: [(&str, Flip); 14] = [
            ("cutoffs", |s| f(&mut own(&mut s.cutoff).cutoff[0])),
            ("bounds", |s| f(&mut own(&mut s.structure).bound[0])),
            ("pulled offsets", |s| own(&mut s.structure).ext_off[0] ^= 1),
            ("pulled ids", |s| own(&mut s.structure).ext_id[0] ^= 1),
            (
                "pulled gains",
                |s| f(&mut own(&mut s.structure).ext_gain[0]),
            ),
            ("level offsets", |s| own(&mut s.structure).lvl_off[0] ^= 1),
            ("levels", |s| f(&mut own(&mut s.structure).level[0])),
            ("base offsets", |s| {
                own(&mut own(&mut s.structure).base).off[0] ^= 1
            }),
            ("base ids", |s| {
                own(&mut own(&mut s.structure).base).id[0] ^= 1
            }),
            ("base gains", |s| {
                f(&mut own(&mut own(&mut s.structure).base).gain[0])
            }),
            ("served offsets", |s| own(&mut s.served).off[0] ^= 1),
            ("served ids", |s| own(&mut s.served).id[0] ^= 1),
            ("served gains", |s| f(&mut own(&mut s.served).gain[0])),
            ("residuals", |s| f(&mut own(&mut s.pu_residual)[0])),
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
            let s = sparse(&radio);
            let shared = Arc::ptr_eq(&s.served, &s.structure.base);
            assert_eq!(shared, total_pulls(&radio) == 0);
            let served_lists = if shared { 0 } else { s.served.bytes() };
            assert_eq!(
                radio.gain_table_bytes(),
                (s.cutoff.cutoff.len() + s.pu_residual.len()) * 8
                    + s.structure.bytes()
                    + served_lists
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
