use crate::Point;
use std::fmt;

/// An axis-aligned rectangular deployment region with its lower-left corner
/// at the origin.
///
/// The paper deploys both networks i.i.d. in a square area of size
/// `A = c0 * n`; [`Region::square`] is the common constructor.
///
/// # Example
///
/// ```
/// use crn_geometry::{Point, Region};
///
/// let region = Region::square(250.0);
/// assert_eq!(region.area(), 62_500.0);
/// assert!(region.contains(Point::new(100.0, 200.0)));
/// assert!(!region.contains(Point::new(-1.0, 0.0)));
/// ```
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Region {
    width: f64,
    height: f64,
}

impl Region {
    /// Creates a `width x height` region.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is not strictly positive and finite.
    #[must_use]
    pub fn new(width: f64, height: f64) -> Self {
        assert!(
            width > 0.0 && height > 0.0 && width.is_finite() && height.is_finite(),
            "region dimensions must be positive and finite, got {width} x {height}"
        );
        Self { width, height }
    }

    /// Creates a square region with the given side length.
    ///
    /// # Panics
    ///
    /// Panics if `side` is not strictly positive and finite.
    #[must_use]
    pub fn square(side: f64) -> Self {
        Self::new(side, side)
    }

    /// Creates the square region of area `c0 * n` used throughout the paper
    /// (`A = c0 * n`, Section III).
    ///
    /// # Panics
    ///
    /// Panics if `c0` is not strictly positive or `n` is zero.
    ///
    /// ```
    /// # use crn_geometry::Region;
    /// let region = Region::from_density(31.25, 2000);
    /// assert!((region.area() - 62_500.0).abs() < 1e-9);
    /// ```
    #[must_use]
    pub fn from_density(c0: f64, n: usize) -> Self {
        assert!(c0 > 0.0, "c0 must be positive, got {c0}");
        assert!(n > 0, "n must be positive");
        Self::square((c0 * n as f64).sqrt())
    }

    /// Region width.
    #[must_use]
    pub fn width(self) -> f64 {
        self.width
    }

    /// Region height.
    #[must_use]
    pub fn height(self) -> f64 {
        self.height
    }

    /// Region area `A`.
    #[must_use]
    pub fn area(self) -> f64 {
        self.width * self.height
    }

    /// Geometric center of the region.
    #[must_use]
    pub fn center(self) -> Point {
        Point::new(self.width / 2.0, self.height / 2.0)
    }

    /// Whether `p` lies inside the region (boundary inclusive).
    #[must_use]
    pub fn contains(self, p: Point) -> bool {
        (0.0..=self.width).contains(&p.x) && (0.0..=self.height).contains(&p.y)
    }

    /// Length of the region diagonal — the maximum distance between any two
    /// contained points.
    #[must_use]
    pub fn diagonal(self) -> f64 {
        (self.width * self.width + self.height * self.height).sqrt()
    }
}

impl fmt::Display for Region {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}x{}", self.width, self.height)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn square_has_equal_sides() {
        let r = Region::square(10.0);
        assert_eq!(r.width(), 10.0);
        assert_eq!(r.height(), 10.0);
        assert_eq!(r.area(), 100.0);
    }

    #[test]
    fn from_density_matches_paper_defaults() {
        // Paper Fig. 6 defaults: A = 250x250, n = 2000 => c0 = 31.25.
        let r = Region::from_density(62_500.0 / 2000.0, 2000);
        assert!((r.width() - 250.0).abs() < 1e-9);
    }

    #[test]
    fn contains_boundary() {
        let r = Region::square(5.0);
        assert!(r.contains(Point::new(0.0, 0.0)));
        assert!(r.contains(Point::new(5.0, 5.0)));
        assert!(!r.contains(Point::new(5.0001, 5.0)));
    }

    #[test]
    fn center_is_contained() {
        let r = Region::new(3.0, 9.0);
        assert!(r.contains(r.center()));
        assert_eq!(r.center(), Point::new(1.5, 4.5));
    }

    #[test]
    fn diagonal_bounds_distances() {
        let r = Region::new(3.0, 4.0);
        assert_eq!(r.diagonal(), 5.0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_width_rejected() {
        let _ = Region::new(0.0, 1.0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn nan_rejected() {
        let _ = Region::new(f64::NAN, 1.0);
    }
}
