use crate::{Point, Region};

/// A uniform-grid spatial index over a fixed set of points.
///
/// The simulator issues millions of disk queries ("which nodes are inside
/// this carrier-sensing range?"), all against static node positions, so a
/// bucket grid with cell size matched to the dominant query radius gives
/// near-constant-time queries without the complexity of a k-d tree.
///
/// Indices returned by queries refer to the slice passed to
/// [`GridIndex::build`].
///
/// # Example
///
/// ```
/// use crn_geometry::{GridIndex, Point, Region};
///
/// let pts = vec![Point::new(1.0, 1.0), Point::new(8.0, 8.0)];
/// let index = GridIndex::build(&pts, Region::square(10.0), 2.0);
/// assert_eq!(index.within_disk(Point::new(0.0, 0.0), 2.0), vec![0]);
/// ```
#[derive(Clone, Debug)]
pub struct GridIndex {
    points: Vec<Point>,
    cell: f64,
    cols: usize,
    rows: usize,
    /// `buckets[r * cols + c]` holds the indices of points in cell `(c, r)`.
    buckets: Vec<Vec<u32>>,
}

impl GridIndex {
    /// Builds an index over `points` deployed in `region`, with grid cell
    /// size `cell` (typically the most common query radius).
    ///
    /// Points outside the region are still indexed (they are clamped into
    /// the boundary cells), so callers never lose nodes to floating-point
    /// drift.
    ///
    /// # Panics
    ///
    /// Panics if `cell` is not strictly positive and finite, or if more than
    /// `u32::MAX` points are supplied.
    #[must_use]
    pub fn build(points: &[Point], region: Region, cell: f64) -> Self {
        assert!(
            cell > 0.0 && cell.is_finite(),
            "cell size must be positive and finite, got {cell}"
        );
        assert!(
            points.len() <= u32::MAX as usize,
            "too many points for a GridIndex"
        );
        let cols = (region.width() / cell).ceil().max(1.0) as usize;
        let rows = (region.height() / cell).ceil().max(1.0) as usize;
        let mut index = Self {
            points: points.to_vec(),
            cell,
            cols,
            rows,
            buckets: vec![Vec::new(); cols * rows],
        };
        for (i, &p) in points.iter().enumerate() {
            let b = index.bucket_of(p);
            index.buckets[b].push(i as u32);
        }
        index
    }

    /// Number of indexed points.
    #[must_use]
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether the index holds no points.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// The indexed points, in the order given to [`GridIndex::build`].
    #[must_use]
    pub fn points(&self) -> &[Point] {
        &self.points
    }

    fn clamp_col(&self, x: f64) -> usize {
        ((x / self.cell).floor().max(0.0) as usize).min(self.cols - 1)
    }

    fn clamp_row(&self, y: f64) -> usize {
        ((y / self.cell).floor().max(0.0) as usize).min(self.rows - 1)
    }

    fn bucket_of(&self, p: Point) -> usize {
        self.clamp_row(p.y) * self.cols + self.clamp_col(p.x)
    }

    /// Indices of all points within (inclusive) `radius` of `center`,
    /// in ascending index order.
    #[must_use]
    pub fn within_disk(&self, center: Point, radius: f64) -> Vec<u32> {
        let mut out = Vec::new();
        self.for_each_within(center, radius, |i| out.push(i));
        out.sort_unstable();
        out
    }

    /// Calls `f` for every point index within (inclusive) `radius` of
    /// `center`. Visit order is unspecified (cell-major internally).
    ///
    /// This is the allocation-free core used by hot simulator paths.
    pub fn for_each_within<F: FnMut(u32)>(&self, center: Point, radius: f64, mut f: F) {
        debug_assert!(radius >= 0.0, "radius must be non-negative");
        let r_sq = radius * radius;
        let c_lo = self.clamp_col(center.x - radius);
        let c_hi = self.clamp_col(center.x + radius);
        let r_lo = self.clamp_row(center.y - radius);
        let r_hi = self.clamp_row(center.y + radius);
        for row in r_lo..=r_hi {
            for col in c_lo..=c_hi {
                for &i in &self.buckets[row * self.cols + col] {
                    if self.points[i as usize].distance_sq(center) <= r_sq {
                        f(i);
                    }
                }
            }
        }
    }

    /// Number of points within (inclusive) `radius` of `center`.
    #[must_use]
    pub fn count_within(&self, center: Point, radius: f64) -> usize {
        let mut n = 0;
        self.for_each_within(center, radius, |_| n += 1);
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};

    fn brute_force(points: &[Point], center: Point, radius: f64) -> Vec<u32> {
        points
            .iter()
            .enumerate()
            .filter(|(_, p)| p.within(center, radius))
            .map(|(i, _)| i as u32)
            .collect()
    }

    #[test]
    fn empty_index_returns_nothing() {
        let idx = GridIndex::build(&[], Region::square(10.0), 1.0);
        assert!(idx.is_empty());
        assert!(idx.within_disk(Point::new(5.0, 5.0), 100.0).is_empty());
    }

    #[test]
    fn finds_point_in_same_cell() {
        let pts = vec![Point::new(0.5, 0.5)];
        let idx = GridIndex::build(&pts, Region::square(10.0), 1.0);
        assert_eq!(idx.within_disk(Point::new(0.6, 0.6), 0.5), vec![0]);
    }

    #[test]
    fn radius_larger_than_region_finds_all() {
        let pts = vec![
            Point::new(0.0, 0.0),
            Point::new(9.9, 9.9),
            Point::new(5.0, 5.0),
        ];
        let idx = GridIndex::build(&pts, Region::square(10.0), 2.0);
        assert_eq!(idx.within_disk(Point::new(5.0, 5.0), 100.0), vec![0, 1, 2]);
    }

    #[test]
    fn boundary_point_is_inclusive() {
        let pts = vec![Point::new(3.0, 0.0)];
        let idx = GridIndex::build(&pts, Region::square(10.0), 1.0);
        assert_eq!(idx.within_disk(Point::ORIGIN, 3.0), vec![0]);
        assert!(idx.within_disk(Point::ORIGIN, 2.999).is_empty());
    }

    #[test]
    fn query_center_outside_region_is_clamped_not_lost() {
        let pts = vec![Point::new(0.1, 0.1)];
        let idx = GridIndex::build(&pts, Region::square(10.0), 1.0);
        assert_eq!(idx.within_disk(Point::new(-5.0, -5.0), 8.0), vec![0]);
    }

    #[test]
    fn matches_brute_force_on_random_inputs() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(12345);
        for trial in 0..20 {
            let region = Region::square(100.0);
            let n = 200;
            let pts: Vec<Point> = (0..n)
                .map(|_| Point::new(rng.gen_range(0.0..100.0), rng.gen_range(0.0..100.0)))
                .collect();
            let cell = rng.gen_range(0.5..20.0);
            let idx = GridIndex::build(&pts, region, cell);
            for _ in 0..10 {
                let c = Point::new(rng.gen_range(-10.0..110.0), rng.gen_range(-10.0..110.0));
                let r = rng.gen_range(0.0..50.0);
                assert_eq!(
                    idx.within_disk(c, r),
                    brute_force(&pts, c, r),
                    "trial {trial}: mismatch at center {c} radius {r} cell {cell}"
                );
            }
        }
    }

    #[test]
    fn count_within_matches_within_disk() {
        let pts = vec![Point::new(1.0, 1.0), Point::new(2.0, 2.0)];
        let idx = GridIndex::build(&pts, Region::square(4.0), 1.0);
        let c = Point::new(1.5, 1.5);
        assert_eq!(idx.count_within(c, 1.0), idx.within_disk(c, 1.0).len());
    }

    #[test]
    #[should_panic(expected = "cell size")]
    fn zero_cell_rejected() {
        let _ = GridIndex::build(&[], Region::square(1.0), 0.0);
    }
}
