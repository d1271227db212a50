use crate::{Point, Region};
use rand::Rng;

/// An i.i.d. uniform random placement of nodes inside a [`Region`].
///
/// Both the primary and the secondary network in the paper are deployed
/// i.i.d. uniformly (Section III). A `Deployment` remembers its region so
/// downstream code can rebuild spatial indices consistently.
///
/// # Example
///
/// ```
/// use crn_geometry::{Deployment, Region};
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let d = Deployment::uniform(Region::square(100.0), 50, &mut rng);
/// assert_eq!(d.len(), 50);
/// assert!(d.points().iter().all(|&p| d.region().contains(p)));
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct Deployment {
    region: Region,
    points: Vec<Point>,
}

impl Deployment {
    /// Samples `count` points i.i.d. uniformly inside `region`.
    #[must_use]
    pub fn uniform<R: Rng + ?Sized>(region: Region, count: usize, rng: &mut R) -> Self {
        let points = (0..count)
            .map(|_| {
                Point::new(
                    rng.gen_range(0.0..=region.width()),
                    rng.gen_range(0.0..=region.height()),
                )
            })
            .collect();
        Self { region, points }
    }

    /// Wraps explicit positions (e.g. hand-crafted test topologies).
    ///
    /// # Panics
    ///
    /// Panics if any point lies outside `region` or is non-finite.
    #[must_use]
    pub fn from_points(region: Region, points: Vec<Point>) -> Self {
        for (i, &p) in points.iter().enumerate() {
            assert!(p.is_finite(), "point {i} is not finite: {p}");
            assert!(
                region.contains(p),
                "point {i} = {p} outside region {region}"
            );
        }
        Self { region, points }
    }

    /// The deployment region.
    #[must_use]
    pub fn region(&self) -> Region {
        self.region
    }

    /// The node positions, in node-id order.
    #[must_use]
    pub fn points(&self) -> &[Point] {
        &self.points
    }

    /// Number of deployed nodes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether the deployment is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Node density (nodes per unit area).
    #[must_use]
    pub fn density(&self) -> f64 {
        self.points.len() as f64 / self.region.area()
    }

    /// Position of node `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[must_use]
    pub fn position(&self, i: usize) -> Point {
        self.points[i]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn uniform_points_stay_in_region() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(99);
        let region = Region::new(30.0, 70.0);
        let d = Deployment::uniform(region, 500, &mut rng);
        assert_eq!(d.len(), 500);
        assert!(d.points().iter().all(|&p| region.contains(p)));
    }

    #[test]
    fn uniform_is_reproducible_with_same_seed() {
        let region = Region::square(50.0);
        let a = Deployment::uniform(region, 20, &mut rand::rngs::StdRng::seed_from_u64(7));
        let b = Deployment::uniform(region, 20, &mut rand::rngs::StdRng::seed_from_u64(7));
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let region = Region::square(50.0);
        let a = Deployment::uniform(region, 20, &mut rand::rngs::StdRng::seed_from_u64(7));
        let b = Deployment::uniform(region, 20, &mut rand::rngs::StdRng::seed_from_u64(8));
        assert_ne!(a, b);
    }

    #[test]
    fn density_is_count_over_area() {
        let region = Region::square(10.0);
        let d = Deployment::from_points(region, vec![Point::new(1.0, 1.0); 4]);
        assert!((d.density() - 0.04).abs() < 1e-12);
    }

    #[test]
    fn uniform_covers_all_quadrants_eventually() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let region = Region::square(100.0);
        let d = Deployment::uniform(region, 2000, &mut rng);
        let c = region.center();
        let quad = |p: Point| (p.x > c.x) as usize * 2 + (p.y > c.y) as usize;
        let mut counts = [0usize; 4];
        for &p in d.points() {
            counts[quad(p)] += 1;
        }
        // With 2000 uniform points every quadrant gets a healthy share.
        assert!(
            counts.iter().all(|&c| c > 300),
            "skewed quadrants: {counts:?}"
        );
    }

    #[test]
    #[should_panic(expected = "outside region")]
    fn from_points_rejects_outside() {
        let _ = Deployment::from_points(Region::square(1.0), vec![Point::new(2.0, 0.5)]);
    }

    #[test]
    fn empty_deployment() {
        let d = Deployment::from_points(Region::square(1.0), vec![]);
        assert!(d.is_empty());
        assert_eq!(d.len(), 0);
    }
}
