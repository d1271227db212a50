//! The immutable, radio-independent half of a [`crate::SimWorld`].
//!
//! A [`Topology`] captures everything about a scenario that survives a
//! radio-parameter change: node positions, the routing tree, receiver
//! slots, link geometry, and the spatial grid index. It is built once
//! per deployment, wrapped in an [`std::sync::Arc`], and shared by every
//! [`crate::Radio`] customization derived from it — the
//! metric-independent phase of the CCH-style split (see `DESIGN.md` §9).

use crate::world::WorldError;
use crn_geometry::{GridIndex, Point, Region};

/// Deployment structure shared across radio customizations: positions,
/// the routing tree rooted at the base station (node 0), the receiver
/// slot assignment, per-link distances, and a grid index over the SUs.
///
/// A `Topology` knows nothing about powers, path loss, sensing ranges,
/// or interference models — those belong to [`crate::RadioParams`] and
/// are applied by [`crate::Radio::customize`]. Validation here covers
/// exactly the radio-independent invariants: a non-empty SU set, finite
/// positions, parent pointers that form a tree rooted at node 0, and
/// indices in range.
/// Link-length admissibility (`d ≤ r`) depends on the SU radius and is
/// checked at customization time.
#[derive(Clone, Debug)]
pub struct Topology {
    region: Region,
    su_positions: Vec<Point>,
    pu_positions: Vec<Point>,
    parents: Vec<Option<u32>>,
    /// Distance from each SU to its parent (`0.0` for the root), in node
    /// order — the link geometry every customization re-reads.
    link_dist: Vec<f64>,
    /// Dense receiver slots: `receiver_slot[su]` is `Some(slot)` iff `su`
    /// is some node's parent.
    receiver_slot: Vec<Option<u32>>,
    /// Inverse of `receiver_slot`.
    receivers: Vec<u32>,
    /// Grid index over the SU positions with a density-derived cell size
    /// (correct for queries at any radius).
    su_index: GridIndex,
    /// Diagonal of the bounding box of all SU and PU positions — the
    /// upper end of any useful truncation cutoff.
    bbox_diag: f64,
}

/// Named-setter constructor for [`Topology`]; start from
/// [`Topology::builder`].
///
/// ```
/// use crn_geometry::{Point, Region};
/// use crn_sim::Topology;
///
/// let topo = Topology::builder(Region::square(30.0))
///     .su_positions(vec![Point::new(5.0, 5.0), Point::new(12.0, 5.0)])
///     .parents(vec![None, Some(0)])
///     .build()
///     .expect("valid chain");
/// assert_eq!(topo.num_sus(), 2);
/// ```
#[derive(Clone, Debug)]
pub struct TopologyBuilder {
    region: Region,
    su_positions: Vec<Point>,
    pu_positions: Vec<Point>,
    parents: Vec<Option<u32>>,
}

impl TopologyBuilder {
    fn new(region: Region) -> Self {
        Self {
            region,
            su_positions: Vec::new(),
            pu_positions: Vec::new(),
            parents: Vec::new(),
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
    /// other entry `Some(p)` with `p` in range and distinct from the
    /// node.
    #[must_use]
    pub fn parents(mut self, parents: Vec<Option<u32>>) -> Self {
        self.parents = parents;
        self
    }

    /// Validates the structure and assembles the topology.
    ///
    /// # Errors
    ///
    /// Returns the first violated structural requirement as a
    /// [`WorldError`] (`NoSecondaryUsers`, `NonFinitePosition`,
    /// `ParentLengthMismatch`, `BadRootStructure`, `BadParent`, or
    /// `UnreachableRoot`).
    pub fn build(self) -> Result<Topology, WorldError> {
        let Self {
            region,
            su_positions,
            pu_positions,
            parents,
        } = self;
        let n = su_positions.len();
        if n == 0 {
            return Err(WorldError::NoSecondaryUsers);
        }
        for (which, positions) in [("su", &su_positions), ("pu", &pu_positions)] {
            if let Some(index) = positions
                .iter()
                .position(|p| !(p.x.is_finite() && p.y.is_finite()))
            {
                let index = index as u32;
                return Err(WorldError::NonFinitePosition { which, index });
            }
        }
        if parents.len() != n {
            return Err(WorldError::ParentLengthMismatch {
                parents: parents.len(),
                sus: n,
            });
        }
        let mut link_dist = vec![0.0f64; n];
        for (i, &p) in parents.iter().enumerate() {
            match p {
                None => {
                    if i != 0 {
                        return Err(WorldError::BadRootStructure { node: i as u32 });
                    }
                }
                Some(p) => {
                    if i == 0 {
                        return Err(WorldError::BadRootStructure { node: 0 });
                    }
                    if p as usize >= n || p as usize == i {
                        return Err(WorldError::BadParent { child: i as u32 });
                    }
                    link_dist[i] = su_positions[i].distance(su_positions[p as usize]);
                }
            }
        }
        // Every parent chain must reach the base station at node 0: the
        // simulator's snapshot generation (`1..n` with node 0 as sink)
        // and delivery accounting assume a tree rooted there, and a
        // cycle would pass the pointwise checks above while silently
        // stranding its nodes' traffic. `reaches_root[i]` memoizes so
        // the whole pass is O(n).
        let mut reaches_root = vec![false; n];
        reaches_root[0] = true;
        let mut visited_at = vec![0usize; n];
        for start in 1..n {
            let mut chain = Vec::new();
            let mut cur = start;
            while !reaches_root[cur] {
                if visited_at[cur] == start {
                    return Err(WorldError::UnreachableRoot { node: start as u32 });
                }
                visited_at[cur] = start;
                chain.push(cur);
                cur = parents[cur].expect("non-root nodes have parents") as usize;
            }
            for c in chain {
                reaches_root[c] = true;
            }
        }

        // Receiver slots: every node that appears as a parent.
        let mut receiver_slot: Vec<Option<u32>> = vec![None; n];
        let mut receivers = Vec::new();
        for &p in parents.iter().flatten() {
            if receiver_slot[p as usize].is_none() {
                receiver_slot[p as usize] = Some(receivers.len() as u32);
                receivers.push(p);
            }
        }

        // A density-derived cell keeps the index radio-independent:
        // range queries are correct for any cell size, and the average
        // inter-node spacing keeps per-cell occupancy near constant.
        let cell = (region.area() / n as f64).sqrt().max(1e-9);
        let su_index = GridIndex::build(&su_positions, region, cell);

        let first = su_positions[0];
        let (mut min_x, mut max_x) = (first.x, first.x);
        let (mut min_y, mut max_y) = (first.y, first.y);
        for p in su_positions.iter().chain(&pu_positions) {
            min_x = min_x.min(p.x);
            max_x = max_x.max(p.x);
            min_y = min_y.min(p.y);
            max_y = max_y.max(p.y);
        }
        let bbox_diag = ((max_x - min_x).powi(2) + (max_y - min_y).powi(2)).sqrt();

        Ok(Topology {
            region,
            su_positions,
            pu_positions,
            parents,
            link_dist,
            receiver_slot,
            receivers,
            su_index,
            bbox_diag,
        })
    }
}

/// Transposes a CSR adjacency — row offsets `off` (length `rows + 1`),
/// column indices `col`, and values `val` aligned with `col` — into a
/// CSR over the `num_cols` columns.
///
/// The scatter walks the input rows in ascending order and the counting
/// sort is stable, so each output row lists its entries in ascending
/// input-row order. With fanout positions as the values, this is how the
/// radio layer turns each PU's sensing fanout into the SU-major lists the
/// engine's listener bookkeeping reads.
pub(crate) fn transpose_csr<T: Copy + Default>(
    num_cols: usize,
    off: &[u32],
    col: &[u32],
    val: &[T],
) -> (Vec<u32>, Vec<u32>, Vec<T>) {
    debug_assert!(!off.is_empty());
    debug_assert_eq!(col.len(), val.len());
    let rows = off.len() - 1;
    let mut t_off = vec![0u32; num_cols + 1];
    for &c in col {
        t_off[c as usize + 1] += 1;
    }
    for c in 0..num_cols {
        t_off[c + 1] += t_off[c];
    }
    let nnz = col.len();
    let mut t_row = vec![0u32; nnz];
    let mut t_val = vec![T::default(); nnz];
    let mut cursor: Vec<u32> = t_off[..num_cols].to_vec();
    for r in 0..rows {
        for i in off[r] as usize..off[r + 1] as usize {
            let c = col[i] as usize;
            let k = cursor[c] as usize;
            t_row[k] = r as u32;
            t_val[k] = val[i];
            cursor[c] += 1;
        }
    }
    (t_off, t_row, t_val)
}

impl Topology {
    /// Starts a [`TopologyBuilder`] over `region`.
    #[must_use]
    pub fn builder(region: Region) -> TopologyBuilder {
        TopologyBuilder::new(region)
    }

    /// The deployment region.
    #[must_use]
    pub fn region(&self) -> Region {
        self.region
    }

    /// Number of SUs including the base station.
    #[must_use]
    pub fn num_sus(&self) -> usize {
        self.su_positions.len()
    }

    /// Number of PUs.
    #[must_use]
    pub fn num_pus(&self) -> usize {
        self.pu_positions.len()
    }

    /// SU positions.
    #[must_use]
    pub fn su_positions(&self) -> &[Point] {
        &self.su_positions
    }

    /// PU positions.
    #[must_use]
    pub fn pu_positions(&self) -> &[Point] {
        &self.pu_positions
    }

    /// Routing-tree parent pointers.
    #[must_use]
    pub fn parents(&self) -> &[Option<u32>] {
        &self.parents
    }

    /// Receiver SUs in slot order (the slot of `receivers()[s]` is `s`).
    #[must_use]
    pub fn receivers(&self) -> &[u32] {
        &self.receivers
    }

    /// The receiver slot of `su`, if it is some node's parent.
    #[must_use]
    pub fn receiver_slot(&self, su: u32) -> Option<u32> {
        self.receiver_slot[su as usize]
    }

    /// Number of receiver slots.
    #[must_use]
    pub fn num_receiver_slots(&self) -> usize {
        self.receivers.len()
    }

    pub(crate) fn link_dist(&self) -> &[f64] {
        &self.link_dist
    }

    pub(crate) fn receiver_slots(&self) -> &[Option<u32>] {
        &self.receiver_slot
    }

    pub(crate) fn su_index(&self) -> &GridIndex {
        &self.su_index
    }

    pub(crate) fn bbox_diag(&self) -> f64 {
        self.bbox_diag
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chain() -> Topology {
        Topology::builder(Region::square(60.0))
            .su_positions(vec![
                Point::new(5.0, 5.0),
                Point::new(12.0, 5.0),
                Point::new(19.0, 5.0),
            ])
            .pu_positions(vec![Point::new(50.0, 5.0)])
            .parents(vec![None, Some(0), Some(1)])
            .build()
            .unwrap()
    }

    #[test]
    fn builds_and_exposes_structure() {
        let t = chain();
        assert_eq!(t.num_sus(), 3);
        assert_eq!(t.num_pus(), 1);
        assert_eq!(t.receivers(), &[0, 1]);
        assert_eq!(t.receiver_slot(1), Some(1));
        assert_eq!(t.receiver_slot(2), None);
        assert!((t.link_dist()[1] - 7.0).abs() < 1e-12);
        assert!((t.link_dist()[2] - 7.0).abs() < 1e-12);
        assert_eq!(t.link_dist()[0], 0.0);
    }

    #[test]
    fn bbox_diag_covers_pus() {
        let t = chain();
        // SUs span x in [5, 19]; the PU at x=50 stretches the box.
        assert!(t.bbox_diag() >= 45.0);
    }

    #[test]
    fn rejects_structurally_invalid_trees() {
        let e = Topology::builder(Region::square(1.0)).build().unwrap_err();
        assert_eq!(e, WorldError::NoSecondaryUsers);

        let e = Topology::builder(Region::square(20.0))
            .su_positions(vec![Point::new(1.0, 1.0)])
            .parents(vec![None, Some(0)])
            .build()
            .unwrap_err();
        assert!(matches!(e, WorldError::ParentLengthMismatch { .. }));

        let e = Topology::builder(Region::square(20.0))
            .su_positions(vec![Point::new(1.0, 1.0), Point::new(2.0, 1.0)])
            .parents(vec![Some(1), None])
            .build()
            .unwrap_err();
        assert!(matches!(e, WorldError::BadRootStructure { .. }));

        let e = Topology::builder(Region::square(20.0))
            .su_positions(vec![
                Point::new(1.0, 1.0),
                Point::new(2.0, 1.0),
                Point::new(3.0, 1.0),
            ])
            .parents(vec![None, Some(2), Some(1)])
            .build()
            .unwrap_err();
        assert!(matches!(e, WorldError::UnreachableRoot { .. }));
    }

    #[test]
    fn rejects_non_finite_positions() {
        let finite = vec![Point::new(1.0, 1.0), Point::new(2.0, 1.0)];
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            for p in [Point::new(bad, 1.0), Point::new(1.0, bad)] {
                let e = Topology::builder(Region::square(20.0))
                    .su_positions(vec![finite[0], p])
                    .pu_positions(finite.clone())
                    .parents(vec![None, Some(0)])
                    .build()
                    .unwrap_err();
                let want = WorldError::NonFinitePosition {
                    which: "su",
                    index: 1,
                };
                assert_eq!(e, want, "SU at ({}, {})", p.x, p.y);
                let e = Topology::builder(Region::square(20.0))
                    .su_positions(finite.clone())
                    .pu_positions(vec![finite[0], finite[1], p])
                    .parents(vec![None, Some(0)])
                    .build()
                    .unwrap_err();
                let want = WorldError::NonFinitePosition {
                    which: "pu",
                    index: 2,
                };
                assert_eq!(e, want, "PU at ({}, {})", p.x, p.y);
            }
        }
    }

    #[test]
    fn transpose_csr_round_trips_and_keeps_rows_ascending() {
        // 3 rows over 4 columns:
        //   row 0: (col 1, 1.0) (col 3, 2.0)
        //   row 1: (col 0, 3.0)
        //   row 2: (col 1, 4.0) (col 2, 5.0)
        let off = [0u32, 2, 3, 5];
        let col = [1u32, 3, 0, 1, 2];
        let val = [1.0, 2.0, 3.0, 4.0, 5.0];
        let (t_off, t_row, t_val) = transpose_csr(4, &off, &col, &val);
        assert_eq!(t_off, vec![0, 1, 3, 4, 5]);
        assert_eq!(t_row, vec![1, 0, 2, 2, 0]);
        assert_eq!(t_val, vec![3.0, 1.0, 4.0, 5.0, 2.0]);
        // Each output row lists input rows ascending (stable scatter).
        for c in 0..4 {
            let rows = &t_row[t_off[c] as usize..t_off[c + 1] as usize];
            assert!(rows.windows(2).all(|w| w[0] < w[1]), "col {c} unsorted");
        }
        // Transposing back restores the original matrix.
        let (b_off, b_col, b_val) = transpose_csr(3, &t_off, &t_row, &t_val);
        assert_eq!(b_off.as_slice(), off.as_slice());
        assert_eq!(b_col.as_slice(), col.as_slice());
        assert_eq!(b_val.as_slice(), val.as_slice());
    }

    #[test]
    fn transpose_csr_handles_empty_rows_and_cols() {
        let (t_off, t_row, t_val) = transpose_csr::<f64>(3, &[0u32, 0, 0], &[], &[]);
        assert_eq!(t_off, vec![0, 0, 0, 0]);
        assert!(t_row.is_empty());
        assert!(t_val.is_empty());
    }

    #[test]
    fn no_link_length_check_at_topology_time() {
        // A 30-unit link is structurally fine; admissibility against the
        // SU radius is the radio layer's job.
        let t = Topology::builder(Region::square(40.0))
            .su_positions(vec![Point::new(1.0, 1.0), Point::new(31.0, 1.0)])
            .parents(vec![None, Some(0)])
            .build()
            .unwrap();
        assert!((t.link_dist()[1] - 30.0).abs() < 1e-12);
    }
}
