//! Proper Carrier-sensing Range (PCR) closed forms — Section IV-B.
//!
//! Lemma 2 protects the primary network, Lemma 3 protects concurrent SU
//! transmissions; Eq. 16 combines them into
//!
//! ```text
//! κ = max( (1 + (c₂·η_p / c₁)^{1/α}) · R/r ,  1 + (c₂·η_s / c₃)^{1/α} )
//! PCR = κ · r
//! ```
//!
//! with `c₁ = P_p / max(P_p, P_s)`, `c₃ = P_s / max(P_p, P_s)`, and `c₂`
//! the hexagon-packing interference constant.
//!
//! **The `c₂` discrepancy** (see `DESIGN.md` §5): the paper bounds the
//! layer series `Σ_{l≥2} l^{−(α−1)} = ζ(α−1) − 1` using "ζ(x) ≤ 1/(x−1)",
//! which is false as stated (ζ(3) ≈ 1.202 > 1/2); the correct integral-test
//! bound is `ζ(x) − 1 ≤ 1/(x−1)`. [`PcrConstants`] selects between the
//! paper's printed constant (used to reproduce Fig. 4/Fig. 6) and the
//! corrected one (used by the `ablation_pcr` bench).

use crate::PhyParams;

/// Which `c₂` constant to use in the PCR formulas.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum PcrConstants {
    /// The constant exactly as printed in the paper:
    /// `c₂ = 6 + 6(√3/2)^{−α}(1/(α−2) − 1)`.
    ///
    /// Positive only for `α` below ≈ 4.1; [`c2`] panics beyond that.
    Paper,
    /// The constant under the correct bound `ζ(x) − 1 ≤ 1/(x−1)`:
    /// `c₂ = 6 + 6(√3/2)^{−α} / (α−2)`. Valid for all `α > 2`.
    Corrected,
}

/// `c₁ = P_p / max(P_p, P_s)` (Lemma 2).
#[must_use]
pub fn c1(params: &PhyParams) -> f64 {
    params.pu_power() / params.max_power()
}

/// `c₃ = P_s / max(P_p, P_s)` (Lemma 3).
#[must_use]
pub fn c3(params: &PhyParams) -> f64 {
    params.su_power() / params.max_power()
}

/// The hexagon-packing interference constant `c₂` for path-loss exponent
/// `alpha`, under the chosen [`PcrConstants`].
///
/// # Panics
///
/// Panics if `alpha ≤ 2`, or if [`PcrConstants::Paper`] is selected with an
/// `alpha` large enough to drive the paper's (typo-affected) expression
/// non-positive (α ≳ 4.82).
#[must_use]
pub fn c2(alpha: f64, constants: PcrConstants) -> f64 {
    assert!(alpha > 2.0, "c2 requires alpha > 2, got {alpha}");
    checked_c2(alpha, constants).unwrap_or_else(|| {
        panic!(
            "c2 is not positive for alpha = {alpha} under {constants:?}; \
             the paper's printed constant breaks down here — use PcrConstants::Corrected"
        )
    })
}

/// [`c2`] where it is defined, `None` where [`c2`] panics.
#[must_use]
pub fn checked_c2(alpha: f64, constants: PcrConstants) -> Option<f64> {
    if alpha.is_nan() || alpha <= 2.0 {
        return None;
    }
    let hex = (3.0_f64.sqrt() / 2.0).powf(-alpha);
    let tail = match constants {
        PcrConstants::Paper => 1.0 / (alpha - 2.0) - 1.0,
        PcrConstants::Corrected => 1.0 / (alpha - 2.0),
    };
    let c2 = 6.0 + 6.0 * hex * tail;
    (c2 > 0.0).then_some(c2)
}

/// Lemma 2's κ branch (protecting PUs), already scaled by `R/r` so it is
/// expressed in units of the SU radius `r`.
#[must_use]
pub fn kappa_primary(params: &PhyParams, constants: PcrConstants) -> f64 {
    let c2 = c2(params.alpha(), constants);
    let base = 1.0 + (c2 * params.pu_sir_threshold() / c1(params)).powf(1.0 / params.alpha());
    base * params.pu_radius() / params.su_radius()
}

/// Lemma 3's κ branch (protecting concurrent SU transmissions), in units
/// of `r`.
#[must_use]
pub fn kappa_secondary(params: &PhyParams, constants: PcrConstants) -> f64 {
    let c2 = c2(params.alpha(), constants);
    1.0 + (c2 * params.su_sir_threshold() / c3(params)).powf(1.0 / params.alpha())
}

/// Eq. 16: `κ = max(κ_primary, κ_secondary)`, in units of `r`.
///
/// ```
/// use crn_interference::{pcr, PcrConstants, PhyParams};
///
/// let p = PhyParams::builder().build().unwrap();
/// let k = pcr::kappa(&p, PcrConstants::Corrected);
/// assert!(k >= pcr::kappa_secondary(&p, PcrConstants::Corrected));
/// ```
#[must_use]
pub fn kappa(params: &PhyParams, constants: PcrConstants) -> f64 {
    kappa_primary(params, constants).max(kappa_secondary(params, constants))
}

/// The Proper Carrier-sensing Range `R = κ·r` — the carrier-sensing
/// radius every SU uses in Algorithm 1.
#[must_use]
pub fn carrier_sensing_range(params: &PhyParams, constants: PcrConstants) -> f64 {
    kappa(params, constants) * params.su_radius()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::db_to_linear;

    fn fig4_defaults() -> PhyParams {
        PhyParams::builder().build().unwrap()
    }

    #[test]
    fn c1_c3_bounded_by_one() {
        let p = PhyParams::builder()
            .pu_power(5.0)
            .su_power(20.0)
            .build()
            .unwrap();
        assert!((c1(&p) - 0.25).abs() < 1e-12);
        assert!((c3(&p) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn c2_paper_alpha3_is_six() {
        // At alpha = 3 the paper's tail term vanishes exactly.
        assert!((c2(3.0, PcrConstants::Paper) - 6.0).abs() < 1e-12);
    }

    #[test]
    fn c2_paper_alpha4_matches_hand_computation() {
        // 6 + 6*(sqrt(3)/2)^{-4} * (1/2 - 1) = 6 - 6*(16/9)*0.5 = 6 - 16/3.
        let expected = 6.0 - 16.0 / 3.0;
        assert!((c2(4.0, PcrConstants::Paper) - expected).abs() < 1e-12);
    }

    #[test]
    fn c2_corrected_alpha4_matches_hand_computation() {
        // 6 + 6*(16/9)*0.5 = 6 + 16/3.
        let expected = 6.0 + 16.0 / 3.0;
        assert!((c2(4.0, PcrConstants::Corrected) - expected).abs() < 1e-12);
    }

    #[test]
    fn c2_corrected_always_exceeds_paper() {
        for alpha in [2.5, 3.0, 3.5, 4.0] {
            assert!(c2(alpha, PcrConstants::Corrected) > c2(alpha, PcrConstants::Paper));
        }
    }

    #[test]
    #[should_panic(expected = "not positive")]
    fn c2_paper_breaks_down_at_large_alpha() {
        let _ = c2(6.0, PcrConstants::Paper);
    }

    #[test]
    fn c2_corrected_fine_at_large_alpha() {
        assert!(c2(6.0, PcrConstants::Corrected) > 6.0);
    }

    #[test]
    fn fig4_shape_alpha3_pcr_exceeds_alpha4() {
        // The headline observation of Fig. 4.
        for constants in [PcrConstants::Paper, PcrConstants::Corrected] {
            let p3 = PhyParams::builder().alpha(3.0).build().unwrap();
            let p4 = PhyParams::builder().alpha(4.0).build().unwrap();
            assert!(
                carrier_sensing_range(&p3, constants) > carrier_sensing_range(&p4, constants),
                "PCR(alpha=3) must exceed PCR(alpha=4) under {constants:?}"
            );
        }
    }

    #[test]
    fn pcr_nondecreasing_in_powers_and_thresholds() {
        // Fig. 4's second observation: PCR is non-decreasing in P_p, P_s,
        // eta_p, eta_s.
        let base = fig4_defaults();
        let k0 = kappa(&base, PcrConstants::Paper);
        let variants = [
            PhyParams::builder().pu_power(20.0).build().unwrap(),
            PhyParams::builder().su_power(20.0).build().unwrap(),
            PhyParams::builder()
                .pu_sir_threshold_db(13.0)
                .build()
                .unwrap(),
            PhyParams::builder()
                .su_sir_threshold_db(13.0)
                .build()
                .unwrap(),
        ];
        for p in variants {
            assert!(
                kappa(&p, PcrConstants::Paper) >= k0 - 1e-12,
                "kappa decreased under a parameter increase: {p:?}"
            );
        }
    }

    #[test]
    fn kappa_is_max_of_branches() {
        let p = fig4_defaults();
        for constants in [PcrConstants::Paper, PcrConstants::Corrected] {
            let k = kappa(&p, constants);
            assert!(
                (k - kappa_primary(&p, constants).max(kappa_secondary(&p, constants))).abs()
                    < 1e-12
            );
        }
    }

    #[test]
    fn primary_branch_dominates_when_pu_radius_large() {
        let p = PhyParams::builder().pu_radius(100.0).build().unwrap();
        assert!(kappa_primary(&p, PcrConstants::Paper) > kappa_secondary(&p, PcrConstants::Paper));
    }

    #[test]
    fn secondary_branch_dominates_when_pu_radius_tiny() {
        let p = PhyParams::builder().pu_radius(0.1).build().unwrap();
        assert!(kappa_secondary(&p, PcrConstants::Paper) > kappa_primary(&p, PcrConstants::Paper));
    }

    #[test]
    fn paper_simulation_defaults_kappa_value() {
        // Recorded reference value so regressions are visible: alpha = 4,
        // eta = 8 dB, equal powers, R = r: kappa = 1 + (c2*eta)^{1/4} with
        // c2 = 2/3.
        let p = PhyParams::paper_simulation_defaults();
        let eta = db_to_linear(8.0);
        let expected = 1.0 + ((6.0 - 16.0 / 3.0) * eta).powf(0.25);
        assert!((kappa(&p, PcrConstants::Paper) - expected).abs() < 1e-9);
        // Numeric ballpark: ~2.43 with the paper constants.
        assert!((2.0..3.0).contains(&kappa(&p, PcrConstants::Paper)));
    }

    #[test]
    fn carrier_sensing_range_scales_with_r() {
        let a = PhyParams::builder()
            .su_radius(10.0)
            .pu_radius(10.0)
            .build()
            .unwrap();
        let b = PhyParams::builder()
            .su_radius(20.0)
            .pu_radius(20.0)
            .build()
            .unwrap();
        let ra = carrier_sensing_range(&a, PcrConstants::Corrected);
        let rb = carrier_sensing_range(&b, PcrConstants::Corrected);
        assert!((rb / ra - 2.0).abs() < 1e-9);
    }
}
