use std::fmt;
use std::ops::{Add, Sub};

/// A point (or displacement) on the Euclidean plane.
///
/// Node positions are immutable for the lifetime of a scenario (the paper
/// studies static networks), so `Point` is a plain `Copy` value type.
///
/// # Example
///
/// ```
/// use crn_geometry::Point;
///
/// let a = Point::new(0.0, 0.0);
/// let b = Point::new(3.0, 4.0);
/// assert_eq!(a.distance(b), 5.0);
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Point {
    /// Horizontal coordinate.
    pub x: f64,
    /// Vertical coordinate.
    pub y: f64,
}

impl Point {
    /// Creates a point from its coordinates.
    #[must_use]
    pub const fn new(x: f64, y: f64) -> Self {
        Self { x, y }
    }

    /// The origin `(0, 0)`.
    pub const ORIGIN: Point = Point::new(0.0, 0.0);

    /// Euclidean distance to `other`.
    ///
    /// ```
    /// # use crn_geometry::Point;
    /// let d = Point::new(1.0, 1.0).distance(Point::new(4.0, 5.0));
    /// assert_eq!(d, 5.0);
    /// ```
    #[must_use]
    pub fn distance(self, other: Point) -> f64 {
        self.distance_sq(other).sqrt()
    }

    /// Squared Euclidean distance to `other`.
    ///
    /// Cheaper than [`Point::distance`]; prefer it for comparisons against a
    /// squared radius.
    #[must_use]
    pub fn distance_sq(self, other: Point) -> f64 {
        let dx = self.x - other.x;
        let dy = self.y - other.y;
        dx * dx + dy * dy
    }

    /// Whether `other` lies within (or exactly on) a disk of radius
    /// `radius` centered at `self`.
    ///
    /// ```
    /// # use crn_geometry::Point;
    /// assert!(Point::ORIGIN.within(Point::new(0.0, 2.0), 2.0));
    /// assert!(!Point::ORIGIN.within(Point::new(0.0, 2.1), 2.0));
    /// ```
    #[must_use]
    pub fn within(self, other: Point, radius: f64) -> bool {
        self.distance_sq(other) <= radius * radius
    }

    /// Midpoint between `self` and `other`.
    #[must_use]
    pub fn midpoint(self, other: Point) -> Point {
        Point::new((self.x + other.x) / 2.0, (self.y + other.y) / 2.0)
    }

    /// Whether both coordinates are finite (not NaN/∞).
    #[must_use]
    pub fn is_finite(self) -> bool {
        self.x.is_finite() && self.y.is_finite()
    }
}

impl Add for Point {
    type Output = Point;

    fn add(self, rhs: Point) -> Point {
        Point::new(self.x + rhs.x, self.y + rhs.y)
    }
}

impl Sub for Point {
    type Output = Point;

    fn sub(self, rhs: Point) -> Point {
        Point::new(self.x - rhs.x, self.y - rhs.y)
    }
}

impl fmt::Display for Point {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({:.3}, {:.3})", self.x, self.y)
    }
}

impl From<(f64, f64)> for Point {
    fn from((x, y): (f64, f64)) -> Self {
        Point::new(x, y)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distance_is_symmetric() {
        let a = Point::new(1.5, -2.0);
        let b = Point::new(-3.0, 4.25);
        assert_eq!(a.distance(b), b.distance(a));
    }

    #[test]
    fn distance_to_self_is_zero() {
        let a = Point::new(42.0, 17.0);
        assert_eq!(a.distance(a), 0.0);
    }

    #[test]
    fn distance_sq_matches_distance() {
        let a = Point::new(0.0, 0.0);
        let b = Point::new(3.0, 4.0);
        assert_eq!(a.distance_sq(b), 25.0);
        assert_eq!(a.distance(b), 5.0);
    }

    #[test]
    fn within_is_inclusive_on_boundary() {
        let a = Point::ORIGIN;
        let b = Point::new(5.0, 0.0);
        assert!(a.within(b, 5.0));
    }

    #[test]
    fn midpoint_is_halfway() {
        let m = Point::new(0.0, 0.0).midpoint(Point::new(4.0, -6.0));
        assert_eq!(m, Point::new(2.0, -3.0));
    }

    #[test]
    fn add_and_sub_are_inverses() {
        let a = Point::new(1.0, 2.0);
        let d = Point::new(-0.5, 3.5);
        assert_eq!(a + d - d, a);
    }

    #[test]
    fn display_is_nonempty() {
        assert!(!format!("{}", Point::ORIGIN).is_empty());
    }

    #[test]
    fn from_tuple() {
        let p: Point = (1.0, 2.0).into();
        assert_eq!(p, Point::new(1.0, 2.0));
    }

    #[test]
    fn is_finite_rejects_nan() {
        assert!(Point::new(1.0, 2.0).is_finite());
        assert!(!Point::new(f64::NAN, 2.0).is_finite());
        assert!(!Point::new(1.0, f64::INFINITY).is_finite());
    }
}
