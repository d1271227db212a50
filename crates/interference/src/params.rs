use std::fmt;

/// Converts a decibel quantity to its linear ratio (`10^(db/10)`).
///
/// The paper quotes SIR thresholds in dB (e.g. `η_p = 10 dB` means a linear
/// ratio of 10).
///
/// ```
/// # use crn_interference::db_to_linear;
/// assert!((db_to_linear(10.0) - 10.0).abs() < 1e-12);
/// assert!((db_to_linear(0.0) - 1.0).abs() < 1e-12);
/// ```
#[must_use]
pub fn db_to_linear(db: f64) -> f64 {
    10.0_f64.powf(db / 10.0)
}

/// Converts a linear ratio to decibels (`10·log10`).
///
/// # Panics
///
/// Panics if `linear` is not strictly positive.
#[must_use]
pub fn linear_to_db(linear: f64) -> f64 {
    assert!(linear > 0.0, "linear ratio must be positive, got {linear}");
    10.0 * linear.log10()
}

/// The path-loss law `g(d) = d^{-α}`, with its evaluation strategy
/// resolved once from `α` instead of on every call.
///
/// A (near-)integral `α` in `3..=8` evaluates `g(d)` by `powi`, several
/// times cheaper than `powf` and within a few ulps of it (pinned by a
/// test); an even integral `α` in `4..=8` evaluates `g` from a squared
/// distance without the square root. Every other `α` takes `powf`.
/// [`path_gain`] and [`path_gain_sq`] are thin wrappers, so a table built
/// from one resolved law is bit-identical to one built pair by pair.
///
/// ```
/// # use crn_interference::{path_gain, path_gain_sq, PathLoss};
/// let law = PathLoss::new(4.0);
/// assert_eq!(law.gain(3.0).to_bits(), path_gain(3.0, 4.0).to_bits());
/// assert_eq!(law.gain_sq(9.0).to_bits(), path_gain_sq(9.0, 4.0).to_bits());
/// assert_eq!(law.gain(2.0), 1.0 / 16.0);
/// ```
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PathLoss {
    alpha: f64,
    /// `Some(n)` when `g(d) = d^{-n}` takes the `powi` route.
    d_exp: Option<i32>,
    /// `Some(m)` when `g = (d²)^{-m}` takes the square-root-free route.
    d2_exp: Option<i32>,
}

impl PathLoss {
    /// Resolves the law for path-loss exponent `alpha`.
    #[must_use]
    pub fn new(alpha: f64) -> Self {
        let integral = |x: f64, range: std::ops::RangeInclusive<f64>| {
            let rounded = x.round();
            ((x - rounded).abs() < 1e-9 && range.contains(&rounded)).then_some(rounded as i32)
        };
        Self {
            alpha,
            d_exp: integral(alpha, 3.0..=8.0),
            d2_exp: integral(alpha * 0.5, 2.0..=4.0),
        }
    }

    /// Path gain at distance `d`, with the same 1e-9 distance clamp as
    /// [`PhyParams::received_power`].
    #[must_use]
    #[inline]
    pub fn gain(&self, d: f64) -> f64 {
        let d = d.max(1e-9);
        match self.d_exp {
            Some(n) => powi_neg(d, n),
            None => d.powf(-self.alpha),
        }
    }

    /// Path gain from a **squared** distance `d2` (the same clamp,
    /// expressed on `d²`).
    #[must_use]
    #[inline]
    pub fn gain_sq(&self, d2: f64) -> f64 {
        match self.d2_exp {
            Some(m) => powi_neg(d2.max(1e-18), m),
            None => self.gain(d2.sqrt()),
        }
    }
}

/// `x^{-n}` by `powi` with a literal exponent for every `n` a resolved
/// [`PathLoss`] can hold, so the compiler expands each arm into a fixed
/// multiply chain instead of calling the variable-exponent libcall. Both
/// square and multiply in the same order, so the bits agree.
#[inline]
fn powi_neg(x: f64, n: i32) -> f64 {
    match n {
        2 => x.powi(-2),
        3 => x.powi(-3),
        4 => x.powi(-4),
        5 => x.powi(-5),
        6 => x.powi(-6),
        7 => x.powi(-7),
        8 => x.powi(-8),
        _ => x.powi(-n),
    }
}

/// Path gain `d^{-α}` with the same 1e-9 distance clamp as
/// [`PhyParams::received_power`] (see [`PathLoss`], which resolves the
/// evaluation strategy once for table builds).
#[must_use]
pub fn path_gain(d: f64, alpha: f64) -> f64 {
    PathLoss::new(alpha).gain(d)
}

/// [`path_gain`] evaluated from a **squared** distance, skipping the
/// square root entirely when `α` is an even integer (the paper's `α = 4`
/// included). Results agree with `path_gain(d, α)` to within a few ulps.
#[must_use]
pub fn path_gain_sq(d2: f64, alpha: f64) -> f64 {
    PathLoss::new(alpha).gain_sq(d2)
}

/// Error from [`PhyParamsBuilder::build`].
#[derive(Clone, Debug, PartialEq)]
pub enum ParamError {
    /// The path-loss exponent must satisfy `α > 2` (required for the
    /// interference series in Lemma 2 to converge).
    AlphaOutOfRange(f64),
    /// A physical quantity that must be strictly positive and finite was
    /// not.
    NotPositive {
        /// Parameter name.
        name: &'static str,
        /// Offending value.
        value: f64,
    },
}

impl fmt::Display for ParamError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParamError::AlphaOutOfRange(a) => {
                write!(f, "path-loss exponent must be > 2, got {a}")
            }
            ParamError::NotPositive { name, value } => {
                write!(f, "{name} must be positive and finite, got {value}")
            }
        }
    }
}

impl std::error::Error for ParamError {}

/// Physical-layer parameters of Section III: path loss, transmit powers,
/// transmission radii, and SIR thresholds for both networks.
///
/// Thresholds are stored as **linear ratios**; use the `_db` builder
/// methods to supply dB values as the paper does.
///
/// # Example
///
/// ```
/// use crn_interference::PhyParams;
///
/// // Paper Fig. 6 defaults.
/// let p = PhyParams::paper_simulation_defaults();
/// assert_eq!(p.alpha(), 4.0);
/// assert_eq!(p.su_radius(), 10.0);
/// ```
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PhyParams {
    alpha: f64,
    pu_power: f64,
    su_power: f64,
    pu_radius: f64,
    su_radius: f64,
    pu_sir_threshold: f64,
    su_sir_threshold: f64,
}

impl PhyParams {
    /// Starts a builder primed with the paper's Fig. 4 defaults
    /// (`α = 4`, `P_p = P_s = 10`, `R = 12`, `r = 10`,
    /// `η_p = η_s = 10 dB`).
    #[must_use]
    pub fn builder() -> PhyParamsBuilder {
        PhyParamsBuilder::default()
    }

    /// The paper's Fig. 6 simulation defaults (`α = 4`, `P_p = P_s = 10`,
    /// `R = r = 10`, `η_p = η_s = 8 dB`).
    #[must_use]
    pub fn paper_simulation_defaults() -> Self {
        PhyParams::builder()
            .pu_radius(10.0)
            .pu_sir_threshold_db(8.0)
            .su_sir_threshold_db(8.0)
            .build()
            .expect("paper defaults are valid")
    }

    /// Path-loss exponent `α > 2`.
    #[must_use]
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// PU transmit power `P_p`.
    #[must_use]
    pub fn pu_power(&self) -> f64 {
        self.pu_power
    }

    /// SU transmit power `P_s`.
    #[must_use]
    pub fn su_power(&self) -> f64 {
        self.su_power
    }

    /// PU maximum transmission radius `R`.
    #[must_use]
    pub fn pu_radius(&self) -> f64 {
        self.pu_radius
    }

    /// SU maximum transmission radius `r`.
    #[must_use]
    pub fn su_radius(&self) -> f64 {
        self.su_radius
    }

    /// Primary-network SIR threshold `η_p` (linear).
    #[must_use]
    pub fn pu_sir_threshold(&self) -> f64 {
        self.pu_sir_threshold
    }

    /// Secondary-network SIR threshold `η_s` (linear).
    #[must_use]
    pub fn su_sir_threshold(&self) -> f64 {
        self.su_sir_threshold
    }

    /// `max(P_p, P_s)` — the denominator of the paper's `c_1`/`c_3`.
    #[must_use]
    pub fn max_power(&self) -> f64 {
        self.pu_power.max(self.su_power)
    }

    /// Received power at distance `d` from a transmitter of power `p`
    /// under `p · d^{-α}` path loss.
    ///
    /// Distances below `min_distance` (a 1e-9 guard) are clamped to avoid
    /// singularities when a receiver sits on top of a transmitter.
    #[must_use]
    pub fn received_power(&self, p: f64, d: f64) -> f64 {
        p * path_gain(d, self.alpha)
    }
}

/// Builder for [`PhyParams`]; see [`PhyParams::builder`] for defaults.
#[derive(Clone, Debug)]
pub struct PhyParamsBuilder {
    alpha: f64,
    pu_power: f64,
    su_power: f64,
    pu_radius: f64,
    su_radius: f64,
    pu_sir_threshold: f64,
    su_sir_threshold: f64,
}

impl Default for PhyParamsBuilder {
    fn default() -> Self {
        // Paper Fig. 4 defaults.
        Self {
            alpha: 4.0,
            pu_power: 10.0,
            su_power: 10.0,
            pu_radius: 12.0,
            su_radius: 10.0,
            pu_sir_threshold: db_to_linear(10.0),
            su_sir_threshold: db_to_linear(10.0),
        }
    }
}

impl PhyParamsBuilder {
    /// Sets the path-loss exponent `α` (must be `> 2`).
    pub fn alpha(&mut self, alpha: f64) -> &mut Self {
        self.alpha = alpha;
        self
    }

    /// Sets the PU transmit power `P_p`.
    pub fn pu_power(&mut self, p: f64) -> &mut Self {
        self.pu_power = p;
        self
    }

    /// Sets the SU transmit power `P_s`.
    pub fn su_power(&mut self, p: f64) -> &mut Self {
        self.su_power = p;
        self
    }

    /// Sets the PU transmission radius `R`.
    pub fn pu_radius(&mut self, r: f64) -> &mut Self {
        self.pu_radius = r;
        self
    }

    /// Sets the SU transmission radius `r`.
    pub fn su_radius(&mut self, r: f64) -> &mut Self {
        self.su_radius = r;
        self
    }

    /// Sets `η_p` as a linear ratio.
    pub fn pu_sir_threshold(&mut self, eta: f64) -> &mut Self {
        self.pu_sir_threshold = eta;
        self
    }

    /// Sets `η_s` as a linear ratio.
    pub fn su_sir_threshold(&mut self, eta: f64) -> &mut Self {
        self.su_sir_threshold = eta;
        self
    }

    /// Sets `η_p` in decibels (the paper's convention).
    pub fn pu_sir_threshold_db(&mut self, db: f64) -> &mut Self {
        self.pu_sir_threshold = db_to_linear(db);
        self
    }

    /// Sets `η_s` in decibels (the paper's convention).
    pub fn su_sir_threshold_db(&mut self, db: f64) -> &mut Self {
        self.su_sir_threshold = db_to_linear(db);
        self
    }

    /// Validates and produces the parameter set.
    ///
    /// # Errors
    ///
    /// Returns [`ParamError`] when `α ≤ 2` or any power/radius/threshold is
    /// not strictly positive and finite.
    pub fn build(&self) -> Result<PhyParams, ParamError> {
        if !(self.alpha > 2.0 && self.alpha.is_finite()) {
            return Err(ParamError::AlphaOutOfRange(self.alpha));
        }
        for (name, value) in [
            ("pu_power", self.pu_power),
            ("su_power", self.su_power),
            ("pu_radius", self.pu_radius),
            ("su_radius", self.su_radius),
            ("pu_sir_threshold", self.pu_sir_threshold),
            ("su_sir_threshold", self.su_sir_threshold),
        ] {
            if !(value > 0.0 && value.is_finite()) {
                return Err(ParamError::NotPositive { name, value });
            }
        }
        Ok(PhyParams {
            alpha: self.alpha,
            pu_power: self.pu_power,
            su_power: self.su_power,
            pu_radius: self.pu_radius,
            su_radius: self.su_radius,
            pu_sir_threshold: self.pu_sir_threshold,
            su_sir_threshold: self.su_sir_threshold,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn db_roundtrip() {
        for db in [-10.0, 0.0, 3.0, 8.0, 10.0, 20.0] {
            assert!((linear_to_db(db_to_linear(db)) - db).abs() < 1e-9);
        }
    }

    #[test]
    fn defaults_match_fig4() {
        let p = PhyParams::builder().build().unwrap();
        assert_eq!(p.alpha(), 4.0);
        assert_eq!(p.pu_power(), 10.0);
        assert_eq!(p.su_power(), 10.0);
        assert_eq!(p.pu_radius(), 12.0);
        assert_eq!(p.su_radius(), 10.0);
        assert!((p.pu_sir_threshold() - 10.0).abs() < 1e-9);
        assert!((p.su_sir_threshold() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn simulation_defaults_match_fig6() {
        let p = PhyParams::paper_simulation_defaults();
        assert_eq!(p.pu_radius(), 10.0);
        assert!((p.pu_sir_threshold() - db_to_linear(8.0)).abs() < 1e-12);
    }

    #[test]
    fn alpha_at_most_two_rejected() {
        let err = PhyParams::builder().alpha(2.0).build().unwrap_err();
        assert_eq!(err, ParamError::AlphaOutOfRange(2.0));
        assert!(PhyParams::builder().alpha(2.01).build().is_ok());
    }

    #[test]
    fn non_positive_values_rejected() {
        let err = PhyParams::builder().su_power(0.0).build().unwrap_err();
        assert!(matches!(
            err,
            ParamError::NotPositive {
                name: "su_power",
                ..
            }
        ));
        let err = PhyParams::builder()
            .pu_radius(f64::NAN)
            .build()
            .unwrap_err();
        assert!(matches!(
            err,
            ParamError::NotPositive {
                name: "pu_radius",
                ..
            }
        ));
    }

    #[test]
    fn received_power_decays_with_distance() {
        let p = PhyParams::builder().build().unwrap();
        assert!(p.received_power(10.0, 1.0) > p.received_power(10.0, 2.0));
        // alpha = 4: doubling distance divides power by 16.
        let ratio = p.received_power(10.0, 1.0) / p.received_power(10.0, 2.0);
        assert!((ratio - 16.0).abs() < 1e-9);
    }

    #[test]
    fn received_power_clamps_zero_distance() {
        let p = PhyParams::builder().build().unwrap();
        assert!(p.received_power(10.0, 0.0).is_finite());
    }

    #[test]
    fn path_gain_powi_fast_path_matches_powf_within_ulps() {
        // Integral alphas take the powi route; pin it to powf at a few-ulp
        // relative tolerance across the distance range the simulator uses.
        for alpha in [3.0, 4.0, 6.0] {
            for d in [1e-9, 0.1, 1.0, 7.3, 24.0, 123.456, 5.0e3] {
                let fast = path_gain(d, alpha);
                let slow = d.max(1e-9).powf(-alpha);
                let rel = ((fast - slow) / slow).abs();
                assert!(rel < 1e-14, "alpha {alpha}, d {d}: rel error {rel:e}");
            }
        }
    }

    #[test]
    fn path_gain_sq_matches_path_gain_within_ulps() {
        for alpha in [3.0, 4.0, 6.0, 8.0, 3.7] {
            for d in [1e-9, 0.1, 1.0, 7.3, 24.0, 123.456, 5.0e3] {
                let from_sq = path_gain_sq(d * d, alpha);
                let direct = path_gain(d, alpha);
                let rel = ((from_sq - direct) / direct).abs();
                assert!(rel < 1e-14, "alpha {alpha}, d {d}: rel error {rel:e}");
            }
        }
    }

    #[test]
    fn path_gain_fractional_alpha_uses_powf_exactly() {
        for alpha in [2.5, 3.7, 4.25] {
            for d in [0.5, 2.0, 31.0] {
                assert_eq!(path_gain(d, alpha), d.powf(-alpha));
            }
        }
    }

    /// The pre-`PathLoss` formulas, verbatim: they re-derive the
    /// strategy on every call and evaluate `powi` with a run-time
    /// exponent (the variable-exponent libcall).
    fn reference_gain(d: f64, alpha: f64) -> f64 {
        let d = d.max(1e-9);
        let rounded = alpha.round();
        if (alpha - rounded).abs() < 1e-9 && (3.0..=8.0).contains(&rounded) {
            d.powi(std::hint::black_box(-(rounded as i32)))
        } else {
            d.powf(-alpha)
        }
    }

    fn reference_gain_sq(d2: f64, alpha: f64) -> f64 {
        let half = alpha * 0.5;
        let rounded = half.round();
        if (half - rounded).abs() < 1e-9 && (2.0..=4.0).contains(&rounded) {
            d2.max(1e-18).powi(std::hint::black_box(-(rounded as i32)))
        } else {
            reference_gain(d2.sqrt(), alpha)
        }
    }

    #[test]
    fn path_loss_is_bit_identical_to_per_pair_gains() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0x9a7e_1055);
        let mut cases = 0u64;
        for alpha in [2.5, 3.0, 3.25, 3.5, 3.7, 4.0, 4.25, 5.0, 6.0, 7.0, 8.0, 8.5] {
            let law = PathLoss::new(alpha);
            for _ in 0..100_000 {
                // Log-uniform over 1e-10..1e4: below the clamp, the
                // near field and well past any deployment's diameter.
                let d = 10f64.powf(rng.gen_range(-10.0..4.0));
                let d2 = d * d;
                let want = reference_gain(d, alpha);
                assert_eq!(
                    law.gain(d).to_bits(),
                    want.to_bits(),
                    "alpha {alpha}, d {d:e}"
                );
                assert_eq!(path_gain(d, alpha).to_bits(), want.to_bits());
                let want_sq = reference_gain_sq(d2, alpha);
                assert_eq!(
                    law.gain_sq(d2).to_bits(),
                    want_sq.to_bits(),
                    "alpha {alpha}, d2 {d2:e}"
                );
                assert_eq!(path_gain_sq(d2, alpha).to_bits(), want_sq.to_bits());
                cases += 2;
            }
        }
        assert_eq!(cases, 2_400_000);
    }

    #[test]
    fn max_power_picks_larger() {
        let p = PhyParams::builder()
            .pu_power(5.0)
            .su_power(15.0)
            .build()
            .unwrap();
        assert_eq!(p.max_power(), 15.0);
    }

    #[test]
    fn error_messages_render() {
        assert!(!ParamError::AlphaOutOfRange(1.0).to_string().is_empty());
        let e = ParamError::NotPositive {
            name: "x",
            value: -1.0,
        };
        assert!(e.to_string().contains('x'));
    }
}
