//! Certified far-field interference truncation (the Lemma-2 tail bound).
//!
//! The proof of the paper's Lemma 2 organizes any set of concurrent
//! transmitters with pairwise separation ≥ `s` into hexagon-packing
//! layers around a reference receiver: layer `l` holds at most `6l` nodes
//! ([`crn_geometry::packing::hex_layer_max_nodes`]) at distance at least
//! `d_l` ([`crn_geometry::packing::hex_layer_min_distance`], `s` for
//! `l = 1`, `(√3/2)·l·s` beyond). For a path-loss exponent `α > 2` the
//! layered interference series converges, so the cumulative power arriving
//! from **beyond any cutoff radius `R_c`** is bounded by a closed-form
//! tail — the same truncation argument the SINR-scheduling literature
//! uses to localize power-law interference with provable error.
//!
//! [`FarFieldBound::tail`] evaluates that worst-case tail;
//! [`FarFieldBound::cutoff_radius`] inverts it, returning the smallest
//! `R_c` whose tail fits a caller-chosen budget (typically an ε fraction
//! of the SIR decision margin, see [`decision_budget`]). [`CutoffTable`]
//! pre-tabulates the inverse on a geometric grid so a simulator can derive
//! thousands of per-receiver cutoffs without re-running the bisection.

use crn_geometry::packing::{hex_layer_max_nodes, hex_layer_min_distance};

/// Extra layers summed explicitly beyond the last cutoff-clamped one
/// before switching to the closed-form integral remainder.
const EXPLICIT_LAYERS: u32 = 64;

/// Worst-case far-field interference of an `s`-separated transmitter set,
/// parameterized by path-loss exponent, per-transmitter power, and the
/// minimum pairwise separation the MAC guarantees (carrier sensing: no
/// two concurrent SU transmitters are within each other's sensing range).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FarFieldBound {
    alpha: f64,
    power: f64,
    min_sep: f64,
}

impl FarFieldBound {
    /// Creates a bound for transmit power `power`, path loss `d^{-alpha}`,
    /// and pairwise separation `min_sep`.
    ///
    /// # Panics
    ///
    /// Panics unless `alpha > 2` (Lemma 2's convergence condition) and
    /// `power`, `min_sep` are strictly positive and finite.
    #[must_use]
    pub fn new(alpha: f64, power: f64, min_sep: f64) -> Self {
        assert!(
            alpha > 2.0 && alpha.is_finite(),
            "far-field series converges only for alpha > 2, got {alpha}"
        );
        assert!(
            power > 0.0 && power.is_finite(),
            "power must be positive, got {power}"
        );
        assert!(
            min_sep > 0.0 && min_sep.is_finite(),
            "min_sep must be positive, got {min_sep}"
        );
        Self {
            alpha,
            power,
            min_sep,
        }
    }

    /// A unit-power bound for callers that work in normalized gain
    /// space: with the budget divided by the transmit power up front,
    /// `tail`/`cutoff_radius` certificates — and any cutoff radii
    /// derived from them — become invariant under power sweeps, which is
    /// what lets a radio re-customization keep its truncation structure
    /// when only transmit powers change.
    ///
    /// # Panics
    ///
    /// Panics unless `alpha > 2` and `min_sep` is strictly positive and
    /// finite (as [`FarFieldBound::new`]).
    #[must_use]
    pub fn normalized(alpha: f64, min_sep: f64) -> Self {
        Self::new(alpha, 1.0, min_sep)
    }

    /// The guaranteed pairwise separation of the transmitter set.
    #[must_use]
    pub fn min_sep(&self) -> f64 {
        self.min_sep
    }

    /// Upper bound on the total received power at the reference point from
    /// every transmitter **farther than `cutoff`**, over all `min_sep`-
    /// separated transmitter sets.
    ///
    /// Layers whose minimum distance falls inside the cutoff contribute at
    /// `cutoff^{-α}` (their nodes sit just outside `cutoff` in the worst
    /// case); farther layers contribute at their own `d_l^{-α}`; the
    /// infinite remainder is closed with `Σ_{l>L} l^{1−α} ≤ L^{2−α}/(α−2)`.
    ///
    /// # Panics
    ///
    /// Panics if `cutoff` is negative or non-finite.
    #[must_use]
    pub fn tail(&self, cutoff: f64) -> f64 {
        assert!(
            cutoff >= 0.0 && cutoff.is_finite(),
            "cutoff must be non-negative, got {cutoff}"
        );
        let row = 3.0_f64.sqrt() / 2.0 * self.min_sep;
        // Last layer whose minimum distance can still be clamped by the
        // cutoff, then a block of exact layers, then the integral bound.
        let clamped = ((cutoff / row).ceil().max(1.0) as u32).min(1 << 24);
        let last = clamped + EXPLICIT_LAYERS;
        let mut sum = 0.0;
        for l in 1..=last {
            let d = hex_layer_min_distance(l, self.min_sep).max(cutoff);
            sum += f64::from(hex_layer_max_nodes(l)) * d.powf(-self.alpha);
        }
        let remainder = 6.0 * row.powf(-self.alpha) * f64::from(last).powf(2.0 - self.alpha)
            / (self.alpha - 2.0);
        self.power * (sum + remainder)
    }

    /// The smallest cutoff radius whose far-field tail is at most
    /// `budget`, found by doubling search plus bisection (the tail is
    /// non-increasing in the cutoff). Returns `0.0` when even the full
    /// series fits the budget.
    ///
    /// # Panics
    ///
    /// Panics if `budget` is not strictly positive and finite.
    #[must_use]
    pub fn cutoff_radius(&self, budget: f64) -> f64 {
        assert!(
            budget > 0.0 && budget.is_finite(),
            "budget must be positive, got {budget}"
        );
        if self.tail(0.0) <= budget {
            return 0.0;
        }
        let mut lo = 0.0;
        let mut hi = self.min_sep;
        let mut doublings = 0;
        while self.tail(hi) > budget {
            lo = hi;
            hi *= 2.0;
            doublings += 1;
            assert!(doublings < 200, "cutoff search diverged (budget {budget})");
        }
        for _ in 0..64 {
            let mid = 0.5 * (lo + hi);
            if self.tail(mid) <= budget {
                hi = mid;
            } else {
                lo = mid;
            }
        }
        hi
    }
}

/// The interference budget "ε fraction of the SIR decision margin": a
/// signal of power `signal_floor` still clears the threshold `eta` when
/// the unaccounted interference is below `signal_floor / eta`, so a
/// truncation that hides at most `epsilon` of that margin perturbs every
/// SIR decision by a factor ≤ `1 + epsilon` of its slack.
///
/// # Panics
///
/// Panics unless all inputs are strictly positive and finite and
/// `epsilon < 1`.
#[must_use]
pub fn decision_budget(signal_floor: f64, eta: f64, epsilon: f64) -> f64 {
    assert!(
        signal_floor > 0.0 && signal_floor.is_finite(),
        "signal floor must be positive, got {signal_floor}"
    );
    assert!(
        eta > 0.0 && eta.is_finite(),
        "eta must be positive, got {eta}"
    );
    assert!(
        epsilon > 0.0 && epsilon < 1.0,
        "epsilon must lie in (0, 1), got {epsilon}"
    );
    epsilon * signal_floor / eta
}

/// Pre-tabulated inverse of [`FarFieldBound::tail`] on a geometric radius
/// grid: [`CutoffTable::radius_for`] answers "smallest tabulated cutoff
/// whose tail fits this budget" with one binary search, conservatively
/// rounding the radius **up** to the next grid point so the certificate
/// `tail(radius) ≤ budget` always holds for returned radii below the
/// table's maximum.
#[derive(Clone, Debug)]
pub struct CutoffTable {
    radii: Vec<f64>,
    tails: Vec<f64>,
}

impl CutoffTable {
    /// Tabulates `points` cutoff radii geometrically spaced over
    /// `[r_min, r_max]`.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < r_min < r_max` (finite) and `points ≥ 2`.
    #[must_use]
    pub fn new(bound: &FarFieldBound, r_min: f64, r_max: f64, points: usize) -> Self {
        assert!(
            r_min > 0.0 && r_min < r_max && r_max.is_finite(),
            "need 0 < r_min < r_max, got [{r_min}, {r_max}]"
        );
        assert!(points >= 2, "need at least two grid points, got {points}");
        let ratio = (r_max / r_min).ln() / (points - 1) as f64;
        let mut radii = Vec::with_capacity(points);
        let mut tails = Vec::with_capacity(points);
        for i in 0..points {
            let r = if i + 1 == points {
                r_max
            } else {
                r_min * (ratio * i as f64).exp()
            };
            let mut t = bound.tail(r);
            // The tail is mathematically non-increasing; guard the table
            // against float wiggle so the binary search stays valid.
            if let Some(&prev) = tails.last() {
                t = f64::min(t, prev);
            }
            radii.push(r);
            tails.push(t);
        }
        Self { radii, tails }
    }

    /// Smallest tabulated radius whose tail is at most `budget`; returns
    /// the table's maximum radius when no tabulated tail fits (callers
    /// treat that as "no truncation beyond the arena").
    #[must_use]
    pub fn radius_for(&self, budget: f64) -> f64 {
        let idx = self.tails.partition_point(|&t| t > budget);
        if idx == self.radii.len() {
            *self.radii.last().expect("table is non-empty")
        } else {
            self.radii[idx]
        }
    }

    /// Largest tabulated radius.
    #[must_use]
    pub fn max_radius(&self) -> f64 {
        *self.radii.last().expect("table is non-empty")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crn_geometry::packing::hex_lattice;

    fn bound() -> FarFieldBound {
        // Paper defaults: alpha 4, P_s 10, PCR-like separation 24.
        FarFieldBound::new(4.0, 10.0, 24.0)
    }

    #[test]
    fn tail_is_monotone_non_increasing() {
        let b = bound();
        let mut last = f64::INFINITY;
        for r in [0.0, 10.0, 24.0, 50.0, 100.0, 300.0, 1000.0] {
            let t = b.tail(r);
            assert!(t <= last + 1e-15, "tail grew at cutoff {r}");
            assert!(t > 0.0);
            last = t;
        }
    }

    #[test]
    fn tail_dominates_densest_lattice_far_field() {
        // Brute force: the hexagonal lattice is the densest s-separated
        // set; summing its actual far-field power must stay below the
        // analytic tail for every cutoff.
        for sep in [8.0, 24.0] {
            let b = FarFieldBound::new(4.0, 10.0, sep);
            let pts = hex_lattice(60.0 * sep, sep);
            for cutoff in [0.0, 2.0 * sep, 5.0 * sep, 11.3 * sep] {
                let brute: f64 = pts
                    .iter()
                    .map(|&(x, y)| (x * x + y * y).sqrt())
                    .filter(|&d| d > cutoff && d > 1e-9)
                    .map(|d| 10.0 * d.powf(-4.0))
                    .sum();
                let tail = b.tail(cutoff);
                assert!(
                    brute <= tail,
                    "lattice far field {brute} beats tail {tail} (sep {sep}, cutoff {cutoff})"
                );
            }
        }
    }

    #[test]
    fn cutoff_radius_certifies_its_budget() {
        let b = bound();
        for budget in [1e-2, 1e-4, 1e-6, 1e-8] {
            let r = b.cutoff_radius(budget);
            assert!(b.tail(r) <= budget, "tail at chosen radius over budget");
            if r > 0.0 {
                // Minimality: a noticeably smaller radius must blow the
                // budget (the bisection converges to the boundary).
                assert!(
                    b.tail(r * 0.99) > budget,
                    "cutoff for budget {budget} is not minimal"
                );
            }
        }
    }

    #[test]
    fn generous_budget_needs_no_cutoff() {
        let b = bound();
        let everything = b.tail(0.0);
        assert_eq!(b.cutoff_radius(everything * 2.0), 0.0);
    }

    #[test]
    fn tighter_budgets_push_the_cutoff_out() {
        let b = bound();
        let loose = b.cutoff_radius(1e-3);
        let tight = b.cutoff_radius(1e-7);
        assert!(tight > loose, "tight {tight} <= loose {loose}");
    }

    #[test]
    fn wider_separation_shrinks_the_cutoff() {
        let near = FarFieldBound::new(4.0, 10.0, 10.0).cutoff_radius(1e-5);
        let far = FarFieldBound::new(4.0, 10.0, 30.0).cutoff_radius(1e-5);
        assert!(
            far < near,
            "separation 30 cutoff {far} >= separation 10 {near}"
        );
    }

    #[test]
    fn decision_budget_scales_linearly() {
        let a = decision_budget(1.0, 8.0, 0.1);
        let b = decision_budget(2.0, 8.0, 0.1);
        assert!((b / a - 2.0).abs() < 1e-12);
        assert!((decision_budget(1.0, 8.0, 0.2) / a - 2.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "epsilon")]
    fn decision_budget_rejects_epsilon_one() {
        let _ = decision_budget(1.0, 8.0, 1.0);
    }

    #[test]
    #[should_panic(expected = "alpha > 2")]
    fn alpha_two_rejected() {
        let _ = FarFieldBound::new(2.0, 10.0, 10.0);
    }

    #[test]
    fn table_matches_direct_inversion_conservatively() {
        let b = bound();
        let table = CutoffTable::new(&b, 5.0, 2000.0, 512);
        for budget in [1e-2, 1e-4, 1e-6] {
            let exact = b.cutoff_radius(budget);
            let tabulated = table.radius_for(budget);
            assert!(
                tabulated >= exact - 1e-9,
                "table under-shoots: {tabulated} < {exact}"
            );
            assert!(b.tail(tabulated) <= budget, "table radius broke budget");
            // Geometric grid: at most one step coarser than the exact
            // inverse.
            assert!(tabulated <= exact * 1.05 + 5.0, "table too coarse");
        }
    }

    #[test]
    fn decision_budget_accepts_boundary_epsilons() {
        // ε may approach both ends of (0, 1) without tripping the guard,
        // and the budget stays proportional all the way down.
        let tiny = decision_budget(1.0, 8.0, 1e-300);
        assert!(tiny > 0.0 && tiny.is_finite());
        let nearly_one = decision_budget(1.0, 8.0, 1.0 - f64::EPSILON);
        assert!(nearly_one < 1.0 / 8.0);
        assert!(nearly_one > 0.124);
    }

    #[test]
    #[should_panic(expected = "epsilon")]
    fn decision_budget_rejects_epsilon_zero() {
        let _ = decision_budget(1.0, 8.0, 0.0);
    }

    #[test]
    fn extreme_epsilon_budgets_still_invert_cleanly() {
        // A near-zero ε produces a tiny budget; the doubling search must
        // still terminate with a certified, minimal radius.
        let b = bound();
        let budget = decision_budget(1e-6, 8.0, 1e-9);
        let r = b.cutoff_radius(budget);
        assert!(r.is_finite() && r > 0.0);
        assert!(b.tail(r) <= budget);
        assert!(b.tail(r * 0.99) > budget);
    }

    #[test]
    fn budget_exactly_the_full_series_needs_no_cutoff() {
        // The `tail(0) ≤ budget` comparison is inclusive: a budget equal
        // to the whole series is satisfiable with no truncation at all.
        let b = bound();
        assert_eq!(b.cutoff_radius(b.tail(0.0)), 0.0);
    }

    #[test]
    fn budget_exactly_a_tail_value_stays_certified() {
        // Feeding a tail value back in as the budget sits exactly on the
        // decision boundary; the returned radius must still certify.
        let b = bound();
        for r in [24.0, 48.0, 96.0] {
            let budget = b.tail(r);
            let chosen = b.cutoff_radius(budget);
            assert!(b.tail(chosen) <= budget, "boundary budget broken at {r}");
            assert!(
                chosen <= r + 1e-6,
                "boundary budget {budget} pushed the cutoff from {r} to {chosen}"
            );
        }
    }

    #[test]
    fn table_boundary_budgets_round_to_their_own_grid_point() {
        // A budget exactly equal to a tabulated tail is satisfied by that
        // grid point itself (`partition_point` uses a strict comparison),
        // so the certificate holds with zero slack.
        let b = bound();
        let table = CutoffTable::new(&b, 5.0, 2000.0, 64);
        for budget in [b.tail(5.0), b.tail(130.0), b.tail(2000.0)] {
            let r = table.radius_for(budget);
            assert!(b.tail(r) <= budget, "tabulated boundary budget broken");
        }
        // Just beyond the finest tabulated tail the table saturates.
        let below_min = b.tail(2000.0) * (1.0 - 1e-12);
        assert_eq!(table.radius_for(below_min), table.max_radius());
        // Just above the coarsest tail the first grid point suffices.
        let above_max = b.tail(5.0) * (1.0 + 1e-12);
        assert_eq!(table.radius_for(above_max), 5.0);
    }

    #[test]
    fn table_saturates_at_max_radius() {
        let b = bound();
        let table = CutoffTable::new(&b, 5.0, 50.0, 16);
        // A budget below the tail at 50 cannot be certified inside the
        // table; the caller gets the arena-covering maximum.
        let impossible = b.tail(50.0) / 1e6;
        assert_eq!(table.radius_for(impossible), 50.0);
        assert_eq!(table.max_radius(), 50.0);
    }
}
