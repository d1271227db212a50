use crate::{FaultError, FaultEvent, FaultKind, FaultPlan};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Seed-domain separator so the churn stream never collides with the
/// deployment stream (`seed`) or the simulation stream
/// (`seed + 0x9E3779B97F4A7C15`) derived from the same master seed.
const CHURN_SEED_SALT: u64 = 0x5DEE_CE66_D027_94C9;

/// A seeded random-churn generator: crash/recover cycles arrive as a
/// Poisson process over a scheduling window, each hitting a uniformly
/// chosen SU that stays down for a jittered mean downtime.
///
/// Everything is deterministic in `(spec, num_sus, slot, seed)`; the
/// generator draws from its own RNG stream, salted away from the
/// deployment and simulation streams, so attaching churn to a scenario
/// never perturbs where nodes land or how backoffs unfold.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ChurnSpec {
    /// Expected crash events per 1000 slots, network-wide (`≥ 0`).
    pub rate_per_1k_slots: f64,
    /// Mean downtime of a crashed SU, in slots; actual downtimes jitter
    /// uniformly over `[0.5, 1.5)×` this mean.
    pub downtime_slots: f64,
    /// Window in which crashes are scheduled, in slots from `t = 0`
    /// (recoveries may land past it).
    pub horizon_slots: f64,
}

impl ChurnSpec {
    /// Paper-scale defaults: 50-slot mean downtime over a 4000-slot
    /// scheduling window.
    ///
    /// # Errors
    ///
    /// Returns [`FaultError::BadChurn`] for a negative or non-finite rate.
    pub fn new(rate_per_1k_slots: f64) -> Result<Self, FaultError> {
        let spec = Self {
            rate_per_1k_slots,
            downtime_slots: 50.0,
            horizon_slots: 4000.0,
        };
        spec.validated()?;
        Ok(spec)
    }

    /// Validates the spec's numeric ranges.
    ///
    /// # Errors
    ///
    /// Returns [`FaultError::BadChurn`] naming the offending field.
    pub fn validated(&self) -> Result<(), FaultError> {
        for (field, value) in [
            ("rate_per_1k_slots", self.rate_per_1k_slots),
            ("downtime_slots", self.downtime_slots),
            ("horizon_slots", self.horizon_slots),
        ] {
            if !(value.is_finite() && value >= 0.0) {
                return Err(FaultError::BadChurn { field, value });
            }
        }
        Ok(())
    }

    /// Generates the concrete crash/recover plan for a network of
    /// `num_sus` secondary users with MAC slot length `slot` (seconds),
    /// deterministically from `seed`.
    ///
    /// A crash candidate landing on an SU that is still down is skipped
    /// (a node cannot crash twice), so the realized rate can fall
    /// slightly under the nominal one at high rates.
    ///
    /// # Errors
    ///
    /// Returns [`FaultError::BadChurn`] if the spec is malformed.
    pub fn generate(&self, num_sus: usize, slot: f64, seed: u64) -> Result<FaultPlan, FaultError> {
        self.validated()?;
        if !(slot.is_finite() && slot > 0.0) {
            return Err(FaultError::BadChurn {
                field: "slot",
                value: slot,
            });
        }
        let mut plan = FaultPlan::empty();
        if self.rate_per_1k_slots <= 0.0 || num_sus == 0 || self.horizon_slots <= 0.0 {
            return Ok(plan);
        }
        let mut rng = StdRng::seed_from_u64(seed ^ CHURN_SEED_SALT);
        let lambda = self.rate_per_1k_slots / 1000.0; // crashes per slot
        let mut down_until = vec![0.0_f64; num_sus + 1];
        let mut t_slots = 0.0_f64;
        loop {
            // Exponential inter-arrival; 1 - u keeps the argument in (0, 1].
            let u: f64 = rng.gen_range(0.0..1.0);
            t_slots += -(1.0 - u).ln() / lambda;
            if t_slots >= self.horizon_slots {
                break;
            }
            let su = rng.gen_range(1..=num_sus) as u32;
            let jitter: f64 = rng.gen_range(0.5..1.5);
            if down_until[su as usize] > t_slots {
                continue; // already down; draws above keep the stream aligned
            }
            let downtime = (self.downtime_slots * jitter).max(1.0);
            down_until[su as usize] = t_slots + downtime;
            plan.push(FaultEvent::new(t_slots * slot, FaultKind::SuCrash { su }));
            plan.push(FaultEvent::new(
                (t_slots + downtime) * slot,
                FaultKind::SuRecover { su },
            ));
        }
        Ok(plan)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_rate_is_empty() {
        let spec = ChurnSpec::new(0.0).unwrap();
        assert!(spec.generate(50, 1e-3, 7).unwrap().is_empty());
    }

    #[test]
    fn generation_is_deterministic_and_seed_sensitive() {
        let spec = ChurnSpec::new(5.0).unwrap();
        let a = spec.generate(50, 1e-3, 7).unwrap();
        let b = spec.generate(50, 1e-3, 7).unwrap();
        assert_eq!(a, b);
        assert!(!a.is_empty());
        let c = spec.generate(50, 1e-3, 8).unwrap();
        assert_ne!(a, c);
    }

    #[test]
    fn crashes_pair_with_recoveries_in_window() {
        let spec = ChurnSpec::new(10.0).unwrap();
        let plan = spec.generate(30, 1e-3, 3).unwrap();
        let crashes = plan
            .events()
            .iter()
            .filter(|e| matches!(e.kind, FaultKind::SuCrash { .. }))
            .count();
        let recoveries = plan
            .events()
            .iter()
            .filter(|e| matches!(e.kind, FaultKind::SuRecover { .. }))
            .count();
        assert_eq!(crashes, recoveries);
        assert!(crashes > 0);
        for pair in plan.events().chunks(2) {
            let [crash, recover] = pair else { panic!() };
            assert!(matches!(crash.kind, FaultKind::SuCrash { .. }));
            assert!(matches!(recover.kind, FaultKind::SuRecover { .. }));
            assert_eq!(crash.kind.target(), recover.kind.target());
            assert!(recover.time > crash.time);
            assert!(crash.time < 4000.0 * 1e-3);
        }
        // And the generated plan passes its own validation.
        assert!(plan.compile().is_ok());
    }

    #[test]
    fn higher_rates_generate_more_events() {
        let lo = ChurnSpec::new(1.0).unwrap().generate(50, 1e-3, 5).unwrap();
        let hi = ChurnSpec::new(20.0).unwrap().generate(50, 1e-3, 5).unwrap();
        assert!(hi.events().len() > lo.events().len());
    }

    #[test]
    fn bad_specs_rejected() {
        assert!(ChurnSpec::new(f64::NAN).is_err());
        assert!(ChurnSpec::new(-1.0).is_err());
        let mut spec = ChurnSpec::new(1.0).unwrap();
        spec.downtime_slots = f64::INFINITY;
        assert!(spec.validated().is_err());
        let spec = ChurnSpec::new(1.0).unwrap();
        assert!(spec.generate(10, 0.0, 1).is_err());
    }
}
