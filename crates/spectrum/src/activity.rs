use rand::Rng;
use std::fmt;

/// Error constructing a PU activity model.
#[derive(Clone, Debug, PartialEq)]
pub enum ActivityError {
    /// A probability parameter fell outside `[0, 1]` (or an open subrange
    /// where required).
    BadProbability {
        /// Parameter name.
        name: &'static str,
        /// Offending value.
        value: f64,
    },
    /// Gilbert mean burst length must be at least one slot.
    BurstTooShort(f64),
}

impl fmt::Display for ActivityError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ActivityError::BadProbability { name, value } => {
                write!(f, "{name} must be a probability in [0, 1], got {value}")
            }
            ActivityError::BurstTooShort(v) => {
                write!(f, "mean burst length must be >= 1 slot, got {v}")
            }
        }
    }
}

impl std::error::Error for ActivityError {}

/// Parameters of the two-state Gilbert (bursty on/off) extension model.
///
/// Unlike the paper's i.i.d.-per-slot Bernoulli model, a Gilbert PU stays
/// in its current state with high probability, producing *bursts* of
/// occupancy with the same long-run duty cycle. The `ablation_pu_model`
/// bench compares collection delay under both at equal duty cycle.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct GilbertParams {
    /// Probability of switching OFF → ON at a slot boundary.
    pub p_on: f64,
    /// Probability of switching ON → OFF at a slot boundary.
    pub p_off: f64,
}

/// A primary-user slot-activity model (Section III's "generalized
/// probabilistic model" plus a bursty extension).
///
/// The model is *per PU*: [`PuActivity::advance`] updates a slice of PU
/// on/off states by one slot.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum PuActivity {
    /// Each PU transmits in each slot independently with probability
    /// `p_t` — the paper's model.
    Bernoulli {
        /// Per-slot transmission probability `p_t`.
        p_t: f64,
    },
    /// Two-state Markov (Gilbert) bursts.
    Gilbert(GilbertParams),
}

impl PuActivity {
    /// The paper's i.i.d.-per-slot model with transmission probability
    /// `p_t`.
    ///
    /// # Errors
    ///
    /// Returns [`ActivityError::BadProbability`] unless `0 ≤ p_t ≤ 1`.
    pub fn bernoulli(p_t: f64) -> Result<Self, ActivityError> {
        if !(0.0..=1.0).contains(&p_t) || !p_t.is_finite() {
            return Err(ActivityError::BadProbability {
                name: "p_t",
                value: p_t,
            });
        }
        Ok(PuActivity::Bernoulli { p_t })
    }

    /// A Gilbert model matching duty cycle `duty` with mean ON-burst
    /// length `mean_burst_slots` (≥ 1).
    ///
    /// The ON → OFF probability is `1 / mean_burst_slots`; the OFF → ON
    /// probability follows from stationarity:
    /// `p_on = duty · p_off / (1 − duty)`.
    ///
    /// # Errors
    ///
    /// Returns an error unless `0 < duty < 1`, `mean_burst_slots ≥ 1`, and
    /// the implied `p_on ≤ 1`.
    pub fn gilbert_with_duty_cycle(
        duty: f64,
        mean_burst_slots: f64,
    ) -> Result<Self, ActivityError> {
        if !(duty > 0.0 && duty < 1.0) {
            return Err(ActivityError::BadProbability {
                name: "duty",
                value: duty,
            });
        }
        if !(mean_burst_slots >= 1.0 && mean_burst_slots.is_finite()) {
            return Err(ActivityError::BurstTooShort(mean_burst_slots));
        }
        let p_off = 1.0 / mean_burst_slots;
        let p_on = duty * p_off / (1.0 - duty);
        if p_on > 1.0 {
            return Err(ActivityError::BadProbability {
                name: "p_on (implied)",
                value: p_on,
            });
        }
        Ok(PuActivity::Gilbert(GilbertParams { p_on, p_off }))
    }

    /// Long-run fraction of slots a PU spends transmitting.
    #[must_use]
    pub fn duty_cycle(&self) -> f64 {
        match *self {
            PuActivity::Bernoulli { p_t } => p_t,
            PuActivity::Gilbert(GilbertParams { p_on, p_off }) => {
                if p_on + p_off == 0.0 {
                    0.0
                } else {
                    p_on / (p_on + p_off)
                }
            }
        }
    }

    /// Samples initial PU states from the model's stationary distribution.
    pub fn initial_states<R: Rng + ?Sized>(&self, count: usize, rng: &mut R) -> Vec<bool> {
        let duty = self.duty_cycle();
        (0..count).map(|_| rng.gen_bool(duty)).collect()
    }

    /// Advances all PU states by one slot, in place.
    pub fn advance<R: Rng + ?Sized>(&self, states: &mut [bool], rng: &mut R) {
        match *self {
            PuActivity::Bernoulli { p_t } => {
                for s in states {
                    *s = rng.gen_bool(p_t);
                }
            }
            PuActivity::Gilbert(GilbertParams { p_on, p_off }) => {
                for s in states {
                    let flip = if *s { p_off } else { p_on };
                    if rng.gen_bool(flip) {
                        *s = !*s;
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(42)
    }

    #[test]
    fn bernoulli_rejects_bad_probability() {
        assert!(PuActivity::bernoulli(-0.1).is_err());
        assert!(PuActivity::bernoulli(1.1).is_err());
        assert!(PuActivity::bernoulli(f64::NAN).is_err());
        assert!(PuActivity::bernoulli(0.0).is_ok());
        assert!(PuActivity::bernoulli(1.0).is_ok());
    }

    #[test]
    fn bernoulli_duty_cycle_is_p_t() {
        let m = PuActivity::bernoulli(0.3).unwrap();
        assert_eq!(m.duty_cycle(), 0.3);
    }

    #[test]
    fn bernoulli_empirical_duty_matches() {
        let m = PuActivity::bernoulli(0.3).unwrap();
        let mut rng = rng();
        let mut states = vec![false; 100];
        let mut on = 0usize;
        let slots = 2000;
        for _ in 0..slots {
            m.advance(&mut states, &mut rng);
            on += states.iter().filter(|&&s| s).count();
        }
        let frac = on as f64 / (slots * 100) as f64;
        assert!((frac - 0.3).abs() < 0.01, "empirical duty {frac}");
    }

    #[test]
    fn gilbert_duty_cycle_matches_construction() {
        let m = PuActivity::gilbert_with_duty_cycle(0.3, 10.0).unwrap();
        assert!((m.duty_cycle() - 0.3).abs() < 1e-12);
    }

    #[test]
    fn gilbert_empirical_duty_matches() {
        let m = PuActivity::gilbert_with_duty_cycle(0.25, 8.0).unwrap();
        let mut rng = rng();
        let mut states = m.initial_states(200, &mut rng);
        let mut on = 0usize;
        let slots = 5000;
        for _ in 0..slots {
            m.advance(&mut states, &mut rng);
            on += states.iter().filter(|&&s| s).count();
        }
        let frac = on as f64 / (slots * 200) as f64;
        assert!((frac - 0.25).abs() < 0.02, "empirical duty {frac}");
    }

    #[test]
    fn gilbert_bursts_are_longer_than_bernoulli() {
        // Mean ON-run length should be ~ mean_burst_slots for Gilbert and
        // ~ 1/(1-p_t) for Bernoulli.
        let mean_run = |m: PuActivity| {
            let mut rng = rng();
            let mut state = [false];
            let mut runs = 0usize;
            let mut on_slots = 0usize;
            let mut prev = false;
            for _ in 0..200_000 {
                m.advance(&mut state, &mut rng);
                if state[0] {
                    on_slots += 1;
                    if !prev {
                        runs += 1;
                    }
                }
                prev = state[0];
            }
            on_slots as f64 / runs.max(1) as f64
        };
        let bern = mean_run(PuActivity::bernoulli(0.3).unwrap());
        let gilb = mean_run(PuActivity::gilbert_with_duty_cycle(0.3, 12.0).unwrap());
        assert!((bern - 1.0 / 0.7).abs() < 0.1, "bernoulli run {bern}");
        assert!((gilb - 12.0).abs() < 1.0, "gilbert run {gilb}");
    }

    #[test]
    fn gilbert_rejects_bad_parameters() {
        assert!(PuActivity::gilbert_with_duty_cycle(0.0, 5.0).is_err());
        assert!(PuActivity::gilbert_with_duty_cycle(1.0, 5.0).is_err());
        assert!(PuActivity::gilbert_with_duty_cycle(0.3, 0.5).is_err());
        // duty 0.99 with burst length 1 implies p_on = 99 > 1.
        assert!(PuActivity::gilbert_with_duty_cycle(0.99, 1.0).is_err());
    }

    #[test]
    fn initial_states_match_duty_statistically() {
        let m = PuActivity::bernoulli(0.4).unwrap();
        let states = m.initial_states(20_000, &mut rng());
        let frac = states.iter().filter(|&&s| s).count() as f64 / 20_000.0;
        assert!((frac - 0.4).abs() < 0.02);
    }

    #[test]
    fn zero_probability_never_activates() {
        let m = PuActivity::bernoulli(0.0).unwrap();
        let mut rng = rng();
        let mut states = vec![true; 10];
        m.advance(&mut states, &mut rng);
        assert!(states.iter().all(|&s| !s));
    }

    #[test]
    fn error_display_renders() {
        let e = PuActivity::bernoulli(2.0).unwrap_err();
        assert!(e.to_string().contains("p_t"));
        let e = PuActivity::gilbert_with_duty_cycle(0.3, 0.1).unwrap_err();
        assert!(e.to_string().contains("burst"));
    }
}
