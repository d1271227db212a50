//! Fault injection and network dynamics for the ADDC reproduction.
//!
//! The paper's setting is an *asynchronous* cognitive radio network:
//! spectrum availability and node participation change underneath the
//! protocol. This crate models that churn as data — a deterministic,
//! seeded [`FaultPlan`] of schedulable events (SU crash/recover,
//! SU pause/resume, PU regime shifts `p_t → p_t'`, per-link path-gain
//! degradation, and base-station brownout windows) — that the simulator
//! (`crn-sim`) compiles into timer events on its own queue. Nothing here
//! touches an RNG unless a plan is *generated* (the churn preset); an
//! empty plan is guaranteed inert, so fault-free runs reproduce the
//! fault-unaware simulator bit for bit.
//!
//! # Example
//!
//! ```
//! use crn_faults::{FaultEvent, FaultKind, FaultPlan};
//!
//! let plan = FaultPlan::from_events(vec![
//!     FaultEvent::new(0.050, FaultKind::SuCrash { su: 3 }),
//!     FaultEvent::new(0.120, FaultKind::SuRecover { su: 3 }),
//! ]);
//! let schedule = plan.compile().unwrap();
//! assert_eq!(schedule.len(), 2);
//! assert!(FaultPlan::empty().compile().unwrap().is_empty());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod churn;
mod plan;

pub use churn::ChurnSpec;
pub use plan::{FaultError, FaultEvent, FaultKind, FaultPlan, FaultSchedule};

use std::fmt;
use std::str::FromStr;

/// How a scenario acquires its fault workload: none (the default, inert),
/// an explicit [`FaultPlan`], or a seeded churn generator resolved against
/// the scenario's own size, slot length, and seed at run time.
#[derive(Clone, Debug, PartialEq, Default)]
pub enum FaultsConfig {
    /// No faults; runs are bit-for-bit the fault-unaware simulation.
    #[default]
    None,
    /// An explicit, author-written plan (times in seconds).
    Plan(FaultPlan),
    /// Random node churn generated deterministically from the scenario
    /// seed (see [`ChurnSpec`]).
    Churn(ChurnSpec),
}

impl FaultsConfig {
    /// Whether this configuration injects nothing.
    #[must_use]
    pub fn is_none(&self) -> bool {
        matches!(self, FaultsConfig::None)
    }

    /// Resolves the configuration into a compiled, time-sorted schedule
    /// for a scenario with `num_sus` secondary users (node ids `1..=n`),
    /// MAC slot length `slot` (seconds), and master seed `seed`.
    ///
    /// # Errors
    ///
    /// Returns [`FaultError`] if an explicit plan fails validation or the
    /// churn spec is malformed.
    pub fn resolve(
        &self,
        num_sus: usize,
        slot: f64,
        seed: u64,
    ) -> Result<FaultSchedule, FaultError> {
        match self {
            FaultsConfig::None => Ok(FaultSchedule::empty()),
            FaultsConfig::Plan(plan) => plan.compile(),
            FaultsConfig::Churn(spec) => spec.generate(num_sus, slot, seed)?.compile(),
        }
    }
}

impl fmt::Display for FaultsConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultsConfig::None => f.write_str("none"),
            FaultsConfig::Plan(plan) => write!(f, "plan({} events)", plan.events().len()),
            FaultsConfig::Churn(spec) => write!(f, "churn:{}", spec.rate_per_1k_slots),
        }
    }
}

impl FromStr for FaultsConfig {
    type Err = String;

    /// Parses the CLI/protocol preset grammar: `"none"` or `"churn:RATE"`
    /// (expected crash events per 1000 slots, e.g. `churn:2`). Explicit
    /// plans travel as JSON, not through this parser.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        if s.eq_ignore_ascii_case("none") {
            return Ok(FaultsConfig::None);
        }
        if let Some(rate) = s.strip_prefix("churn:") {
            let rate: f64 = rate
                .parse()
                .map_err(|_| format!("bad churn rate {rate:?}"))?;
            let spec = ChurnSpec::new(rate).map_err(|e| e.to_string())?;
            return Ok(FaultsConfig::Churn(spec));
        }
        Err(format!(
            "unknown fault preset {s:?} (expected none or churn:RATE)"
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_none_and_inert() {
        let c = FaultsConfig::default();
        assert!(c.is_none());
        assert!(c.resolve(50, 1e-3, 7).unwrap().is_empty());
    }

    #[test]
    fn preset_grammar_round_trips() {
        assert_eq!("none".parse::<FaultsConfig>().unwrap(), FaultsConfig::None);
        let c: FaultsConfig = "churn:2.5".parse().unwrap();
        assert_eq!(c.to_string(), "churn:2.5");
        let again: FaultsConfig = c.to_string().parse().unwrap();
        assert_eq!(again, c);
        assert!("churn:x".parse::<FaultsConfig>().is_err());
        assert!("meteor".parse::<FaultsConfig>().is_err());
        assert!("churn:-1".parse::<FaultsConfig>().is_err());
    }

    #[test]
    fn churn_resolution_is_seed_deterministic() {
        let c: FaultsConfig = "churn:5".parse().unwrap();
        let a = c.resolve(40, 1e-3, 11).unwrap();
        let b = c.resolve(40, 1e-3, 11).unwrap();
        assert_eq!(a.events(), b.events());
        let other = c.resolve(40, 1e-3, 12).unwrap();
        assert_ne!(a.events(), other.events());
    }

    #[test]
    fn plan_config_compiles_through_resolve() {
        let plan = FaultPlan::from_events(vec![
            FaultEvent::new(0.2, FaultKind::SuRecover { su: 4 }),
            FaultEvent::new(0.1, FaultKind::SuCrash { su: 4 }),
        ]);
        let c = FaultsConfig::Plan(plan);
        let sched = c.resolve(10, 1e-3, 0).unwrap();
        assert_eq!(sched.len(), 2);
        assert!(sched.events()[0].time < sched.events()[1].time);
        assert_eq!(c.to_string(), "plan(2 events)");
    }
}
