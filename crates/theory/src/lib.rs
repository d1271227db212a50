//! Analytic delay/capacity bounds of the ADDC paper (Lemmas 4–8,
//! Theorems 1–2), as executable formulas.
//!
//! All bounds are expressed in **slots** (multiples of `τ`), matching the
//! paper's statements up to the `τ` factor, and are built from:
//!
//! - `β_x = 2πx²/√3 + πx + 1` — Lemma 4's packing bound,
//! - `κ` — the PCR scaling factor (Eq. 16, from `crn-interference`),
//! - `Δ` — the collection tree's maximum degree (Lemma 6 bounds it by
//!   `log n + πr²(e²−1)/(2c₀)` w.h.p.),
//! - `p_o` — Lemma 7's expected spectrum-opportunity probability.
//!
//! The headline statements:
//!
//! - **Theorem 1** (per-packet service): any SU with data transmits at
//!   least one packet within `(2Δβ_κ + 24β_{κ+1} − 1)·τ/p_o`.
//! - **Lemma 8** (backbone service): after the dominatee phase, a CDS node
//!   forwards a packet within `(2β_κ + 24β_{κ+1} − 1)·τ/p_o`.
//! - **Theorem 2** (total): collection finishes within
//!   `(2Δβ_κ+24β_{κ+1}−1)·τ/p_o + (n−Δ_b)(2β_κ+24β_{κ+1}−1)·τ/p_o`, so
//!   capacity is `Ω(p_o·W / (2β_κ + 24β_{κ+1} − 1))` — order-optimal.
//!
//! `crn_core::Scenario::delay_bounds` evaluates them for a generated
//! scenario; the `validate-bounds` harness in `crn-bench` checks simulated
//! delays against those numbers.
//!
//! # Example
//!
//! ```
//! use crn_interference::{PcrConstants, PhyParams};
//! use crn_theory::DelayBounds;
//!
//! let phy = PhyParams::paper_simulation_defaults();
//! let b = DelayBounds::compute(
//!     &phy,
//!     PcrConstants::Paper,
//!     400.0 / 62_500.0, // PU density N/A
//!     0.3,              // p_t
//!     2000,             // n
//!     31.25,            // c0 = A/n
//!     20,               // observed tree Δ
//!     5,                // observed Δ_b
//! )
//! .expect("p_o > 0");
//! assert!(b.theorem2_delay_slots > b.theorem1_service_slots);
//! assert!(b.capacity_fraction_lower > 0.0 && b.capacity_fraction_lower < 1.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use crn_geometry::packing::beta;
use crn_interference::{pcr, PcrConstants, PhyParams};
use crn_spectrum::opportunity;

/// Lemma 5: the number of dominators and connectors within an SU's PCR is
/// at most `β_κ + 12·β_{κ+1}`.
///
/// # Panics
///
/// Panics if `kappa` is negative or non-finite.
#[must_use]
pub fn lemma5_cds_nodes_in_pcr(kappa: f64) -> f64 {
    beta(kappa) + 12.0 * beta(kappa + 1.0)
}

/// Lemma 6: the number of SUs within an SU's PCR is at most
/// `Δ·β_κ + 12·β_{κ+1}`, with `Δ` the tree's maximum degree.
///
/// # Panics
///
/// Panics if `kappa` is negative or non-finite.
#[must_use]
pub fn lemma6_sus_in_pcr(kappa: f64, delta: usize) -> f64 {
    delta as f64 * beta(kappa) + 12.0 * beta(kappa + 1.0)
}

/// Lemma 6's high-probability bound on the tree degree itself:
/// `Δ ≤ log n + πr²(e²−1)/(2c₀)` where `c₀ = A/n`.
///
/// # Panics
///
/// Panics unless `n ≥ 1`, `r > 0`, and `c0 > 0`.
#[must_use]
pub fn lemma6_delta_bound(n: usize, r: f64, c0: f64) -> f64 {
    assert!(n >= 1, "n must be at least 1");
    assert!(r > 0.0 && c0 > 0.0, "r and c0 must be positive");
    (n as f64).ln()
        + std::f64::consts::PI * r * r * (std::f64::consts::E.powi(2) - 1.0) / (2.0 * c0)
}

/// The recurring contention factor `2Δβ_κ + 24β_{κ+1} − 1` of Theorem 1.
#[must_use]
pub fn theorem1_contention_factor(kappa: f64, delta: usize) -> f64 {
    2.0 * delta as f64 * beta(kappa) + 24.0 * beta(kappa + 1.0) - 1.0
}

/// The backbone contention factor `2β_κ + 24β_{κ+1} − 1` of Lemma 8 /
/// Theorem 2.
#[must_use]
pub fn lemma8_contention_factor(kappa: f64) -> f64 {
    2.0 * beta(kappa) + 24.0 * beta(kappa + 1.0) - 1.0
}

/// Theorem 1 in slots: upper bound on the expected time for any SU with
/// data to push one packet to its parent.
///
/// # Panics
///
/// Panics unless `0 < p_o ≤ 1`.
#[must_use]
pub fn theorem1_service_slots(kappa: f64, delta: usize, p_o: f64) -> f64 {
    assert!(p_o > 0.0 && p_o <= 1.0, "p_o must be in (0,1], got {p_o}");
    theorem1_contention_factor(kappa, delta) / p_o
}

/// Lemma 8 in slots: upper bound on the expected per-packet forwarding
/// time of a CDS node once only the backbone holds data.
///
/// # Panics
///
/// Panics unless `0 < p_o ≤ 1`.
#[must_use]
pub fn lemma8_service_slots(kappa: f64, p_o: f64) -> f64 {
    assert!(p_o > 0.0 && p_o <= 1.0, "p_o must be in (0,1], got {p_o}");
    lemma8_contention_factor(kappa) / p_o
}

/// Theorem 2 in slots: upper bound on the expected total data collection
/// delay, `theorem1 + (n − Δ_b)·lemma8`.
///
/// # Panics
///
/// Panics unless `0 < p_o ≤ 1`.
#[must_use]
pub fn theorem2_delay_slots(kappa: f64, delta: usize, delta_b: usize, n: usize, p_o: f64) -> f64 {
    let tail = n.saturating_sub(delta_b) as f64 * lemma8_service_slots(kappa, p_o);
    theorem1_service_slots(kappa, delta, p_o) + tail
}

/// Theorem 2's capacity lower bound as a fraction of the bandwidth `W`:
/// `p_o / (2β_κ + 24β_{κ+1} − 1)`.
///
/// # Panics
///
/// Panics unless `0 < p_o ≤ 1`.
#[must_use]
pub fn theorem2_capacity_fraction(kappa: f64, p_o: f64) -> f64 {
    assert!(p_o > 0.0 && p_o <= 1.0, "p_o must be in (0,1], got {p_o}");
    p_o / lemma8_contention_factor(kappa)
}

/// Every bound of Section IV-D evaluated for one scenario — the
/// validation artifact the `validate-bounds` harness prints.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DelayBounds {
    /// PCR scaling factor κ.
    pub kappa: f64,
    /// Lemma 7's expected opportunity probability.
    pub p_o: f64,
    /// Lemma 5 bound.
    pub lemma5_cds_nodes: f64,
    /// Lemma 6 bound (with the observed Δ).
    pub lemma6_sus: f64,
    /// Lemma 6's w.h.p. bound on Δ itself.
    pub delta_whp_bound: f64,
    /// Theorem 1 per-packet service bound, in slots.
    pub theorem1_service_slots: f64,
    /// Lemma 8 backbone service bound, in slots.
    pub lemma8_service_slots: f64,
    /// Theorem 2 total delay bound, in slots.
    pub theorem2_delay_slots: f64,
    /// Theorem 2 capacity lower bound, as a fraction of `W`.
    pub capacity_fraction_lower: f64,
}

impl DelayBounds {
    /// Evaluates all bounds from physical parameters and scenario facts.
    ///
    /// `pu_density` is `N/A`, `c0` is the paper's area-per-SU constant
    /// `A/n`, and `delta`/`delta_b` are the observed tree degrees (compare
    /// them with [`lemma6_delta_bound`], reported as
    /// [`DelayBounds::delta_whp_bound`]).
    ///
    /// Returns `None` if the parameters put `p_o` at 0 (e.g. `p_t = 1` with
    /// PUs in range, or `(1 − p_t)^(π·pcr²·N/A)` underflowing): the
    /// paper's bounds require a positive access probability.
    ///
    /// # Panics
    ///
    /// Panics if `c0 ≤ 0`.
    #[must_use]
    #[allow(clippy::too_many_arguments)]
    pub fn compute(
        phy: &PhyParams,
        constants: PcrConstants,
        pu_density: f64,
        p_t: f64,
        n: usize,
        c0: f64,
        delta: usize,
        delta_b: usize,
    ) -> Option<Self> {
        let kappa = pcr::kappa(phy, constants);
        let range = pcr::carrier_sensing_range(phy, constants);
        let p_o = opportunity::expected_probability(p_t, pu_density, range);
        if p_o <= 0.0 {
            return None;
        }
        Some(Self {
            kappa,
            p_o,
            lemma5_cds_nodes: lemma5_cds_nodes_in_pcr(kappa),
            lemma6_sus: lemma6_sus_in_pcr(kappa, delta),
            delta_whp_bound: lemma6_delta_bound(n.max(1), phy.su_radius(), c0),
            theorem1_service_slots: theorem1_service_slots(kappa, delta, p_o),
            lemma8_service_slots: lemma8_service_slots(kappa, p_o),
            theorem2_delay_slots: theorem2_delay_slots(kappa, delta, delta_b, n, p_o),
            capacity_fraction_lower: theorem2_capacity_fraction(kappa, p_o),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn phy() -> PhyParams {
        PhyParams::paper_simulation_defaults()
    }

    #[test]
    fn lemma5_matches_hand_formula() {
        let k = 2.5;
        let expect = beta(k) + 12.0 * beta(k + 1.0);
        assert_eq!(lemma5_cds_nodes_in_pcr(k), expect);
    }

    #[test]
    fn lemma6_grows_with_delta() {
        assert!(lemma6_sus_in_pcr(2.5, 10) > lemma6_sus_in_pcr(2.5, 5));
    }

    #[test]
    fn lemma6_delta_bound_is_logarithmic_in_n() {
        let a = lemma6_delta_bound(1000, 10.0, 31.25);
        let b = lemma6_delta_bound(2000, 10.0, 31.25);
        assert!((b - a - 2.0f64.ln()).abs() < 1e-9);
    }

    #[test]
    fn theorem1_scales_inversely_with_p_o() {
        let a = theorem1_service_slots(2.5, 10, 0.5);
        let b = theorem1_service_slots(2.5, 10, 0.25);
        assert!((b / a - 2.0).abs() < 1e-9);
    }

    #[test]
    fn theorem1_exceeds_lemma8_for_delta_above_one() {
        assert!(theorem1_service_slots(2.5, 5, 0.3) > lemma8_service_slots(2.5, 0.3));
        // Delta = 1 degenerates to the same factor.
        assert!((theorem1_contention_factor(2.5, 1) - lemma8_contention_factor(2.5)).abs() < 1e-9);
    }

    #[test]
    fn theorem2_is_linear_in_n() {
        let d1 = theorem2_delay_slots(2.5, 10, 4, 1000, 0.1);
        let d2 = theorem2_delay_slots(2.5, 10, 4, 2000, 0.1);
        let per_node = lemma8_service_slots(2.5, 0.1);
        assert!((d2 - d1 - 1000.0 * per_node).abs() < 1e-6);
    }

    #[test]
    fn capacity_bound_consistent_with_delay_bound() {
        // capacity_fraction ~ n / theorem2_delay for large n.
        let n = 100_000;
        let cap = theorem2_capacity_fraction(2.5, 0.2);
        let delay = theorem2_delay_slots(2.5, 10, 4, n, 0.2);
        let implied = n as f64 / delay;
        assert!(
            (implied / cap - 1.0).abs() < 0.01,
            "implied {implied} cap {cap}"
        );
    }

    #[test]
    fn capacity_below_channel_bound() {
        // The achievable fraction can never exceed W (fraction 1).
        for kappa in [2.0, 2.5, 4.0] {
            for p_o in [0.01, 0.3, 1.0] {
                assert!(theorem2_capacity_fraction(kappa, p_o) <= 1.0);
            }
        }
    }

    #[test]
    fn compute_bundles_everything() {
        let b = DelayBounds::compute(&phy(), PcrConstants::Paper, 0.0064, 0.3, 2000, 31.25, 20, 5)
            .unwrap();
        assert!(b.kappa > 1.0);
        assert!(b.p_o > 0.0 && b.p_o < 1.0);
        assert!(b.theorem2_delay_slots > b.theorem1_service_slots);
        assert!(b.lemma5_cds_nodes < b.lemma6_sus);
    }

    #[test]
    #[should_panic(expected = "p_o")]
    fn zero_p_o_rejected() {
        let _ = theorem1_service_slots(2.5, 10, 0.0);
    }

    #[test]
    fn saturated_pus_rejected_in_compute() {
        let b = DelayBounds::compute(&phy(), PcrConstants::Paper, 0.0064, 1.0, 2000, 31.25, 20, 5);
        assert_eq!(b, None);
    }
}
