use std::fmt;
use std::str::FromStr;

/// How [`crate::SimWorld`] materializes path gains for cumulative-SIR
/// accounting.
///
/// `Exact` keeps the dense per-(transmitter, receiver) gain tables —
/// bit-for-bit the original semantics, O(n²) memory. `Truncated` builds
/// sparse near-field lists certified by the Lemma-2 far-field tail bound
/// ([`crn_interference::cutoff`]): every gain beyond a per-receiver cutoff
/// radius is dropped, and the analytic worst case of everything dropped is
/// below `epsilon` of that receiver's weakest-link SIR decision margin.
#[derive(Clone, Copy, Debug, PartialEq, Default)]
pub enum InterferenceModel {
    /// Dense gain tables; every concurrent transmitter contributes to
    /// every receiver (the paper's literal cumulative model).
    #[default]
    Exact,
    /// Sparse near-field lists with a certified far-field truncation.
    Truncated {
        /// Fraction of the SIR decision margin the truncated far field is
        /// allowed to occupy, in `(0, 1)`. The paper-default margins and
        /// `epsilon = 0.1` leave every decision numerically unchanged in
        /// practice (asserted by equivalence tests).
        epsilon: f64,
    },
}

impl InterferenceModel {
    /// The truncation budget fraction, if any.
    #[must_use]
    pub fn epsilon(&self) -> Option<f64> {
        match *self {
            InterferenceModel::Exact => None,
            InterferenceModel::Truncated { epsilon } => Some(epsilon),
        }
    }
}

impl fmt::Display for InterferenceModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            InterferenceModel::Exact => f.write_str("exact"),
            InterferenceModel::Truncated { epsilon } => write!(f, "truncated:{epsilon}"),
        }
    }
}

impl FromStr for InterferenceModel {
    type Err = String;

    /// Parses `"exact"` or `"truncated:EPS"` (e.g. `truncated:0.1`).
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        if s.eq_ignore_ascii_case("exact") {
            return Ok(InterferenceModel::Exact);
        }
        if let Some(eps) = s.strip_prefix("truncated:") {
            let epsilon: f64 = eps
                .parse()
                .map_err(|_| format!("bad truncation epsilon {eps:?}"))?;
            return Ok(InterferenceModel::Truncated { epsilon });
        }
        Err(format!(
            "unknown interference model {s:?} (expected exact or truncated:EPS)"
        ))
    }
}

/// MAC-layer and run-control knobs of the simulated Algorithm 1.
///
/// Defaults mirror the paper's Section V settings: 1 ms slots, a 0.5 ms
/// contention window, SIR-checked reception with RS capture, and a
/// 1 000 000-slot safety cap.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MacConfig {
    /// Slot duration `τ` in seconds (the PU activity granularity).
    pub slot: f64,
    /// Contention window `τ_c` in seconds (must be `< slot`).
    pub contention_window: f64,
    /// Packet airtime in seconds. The paper states "the propagation time
    /// of a data packet ... is less than 1 ms" (one slot); the default is
    /// half a slot, so packets that start early enough in a PU-free slot
    /// complete without crossing a boundary — matching the `τ/p_o`
    /// waiting-time analysis of Lemma 7. Setting it equal to `slot` makes
    /// every transmission span a boundary and face preemption.
    pub airtime: f64,
    /// Hard wall on simulated time, in seconds. A run that exceeds it
    /// reports `finished = false`.
    pub max_sim_time: f64,
    /// Whether the fairness wait of Algorithm 1 line 12 (`τ_c − t_i`) is
    /// applied after each transmission (the `ablation_fairness` bench
    /// turns it off).
    pub fairness_wait: bool,
}

/// Largest collision-backoff exponent (window cap `2⁶·τ_c`).
///
/// Every SU backs off exponentially on **collision** failures (SIR
/// violations and capture losses): each consecutive collision doubles its
/// contention window up to this cap; success resets it. PU handoffs do not
/// trigger it (they signal spectrum loss, not congestion). This is the
/// paper's footnote-2 collision resolution; without it, under-sensed CSMA
/// (the Coolest baseline) can livelock.
pub(crate) const MAX_BACKOFF_EXP: u32 = 6;

/// When secondary users produce data.
///
/// The paper's headline task is a single **snapshot**: every SU produces
/// one packet at `t = 0`. [`Traffic::Periodic`] extends this to the
/// *continuous data collection* setting of the authors' companion work
/// (repeated snapshots at a fixed interval), which is how the achievable
/// data collection **capacity** is exercised in steady state.
#[derive(Clone, Copy, Debug, PartialEq, Default)]
pub enum Traffic {
    /// One packet per SU at `t = 0` (the paper's data collection task).
    #[default]
    Snapshot,
    /// `snapshots` rounds, one packet per SU at `t = k · interval`.
    Periodic {
        /// Seconds between snapshot generations.
        interval: f64,
        /// Number of snapshots (≥ 1).
        snapshots: u32,
    },
}

impl Traffic {
    /// Number of snapshot rounds.
    #[must_use]
    pub fn snapshots(&self) -> u32 {
        match *self {
            Traffic::Snapshot => 1,
            Traffic::Periodic { snapshots, .. } => snapshots,
        }
    }

    /// Validates the traffic model, returning a typed error for a
    /// non-positive/non-finite periodic interval or a zero snapshot count.
    ///
    /// # Errors
    ///
    /// [`BuildError::BadInterval`] or [`BuildError::NoSnapshots`].
    pub fn validated(&self) -> Result<(), BuildError> {
        if let Traffic::Periodic {
            interval,
            snapshots,
        } = *self
        {
            if !(interval > 0.0 && interval.is_finite()) {
                return Err(BuildError::BadInterval { interval });
            }
            if snapshots < 1 {
                return Err(BuildError::NoSnapshots);
            }
        }
        Ok(())
    }

    /// Validates the traffic model.
    ///
    /// # Panics
    ///
    /// Panics if a periodic interval is not strictly positive or the
    /// snapshot count is zero. Prefer [`Traffic::validated`] for a typed
    /// error.
    pub fn validate(&self) {
        if let Err(e) = self.validated() {
            panic!("{e}");
        }
    }
}

/// Why [`crate::SimulatorBuilder::build`] rejected a configuration.
///
/// Every variant corresponds to a timing parameter that would otherwise
/// surface as a panic deep inside the event queue mid-run (non-finite
/// event times fail `EventQueue::push`'s assertion); validating at build
/// time turns those into a typed, matchable error.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum BuildError {
    /// The slot length is not strictly positive and finite.
    BadSlot {
        /// Offending slot length in seconds.
        slot: f64,
    },
    /// The contention window does not lie in `(0, slot)` or is non-finite.
    BadContentionWindow {
        /// Offending contention window in seconds.
        contention_window: f64,
        /// The configured slot length in seconds.
        slot: f64,
    },
    /// The airtime does not lie in `(0, slot]` or is non-finite.
    BadAirtime {
        /// Offending airtime in seconds.
        airtime: f64,
        /// The configured slot length in seconds.
        slot: f64,
    },
    /// `max_sim_time` is not strictly positive and finite.
    BadMaxSimTime {
        /// Offending time cap in seconds.
        max_sim_time: f64,
    },
    /// A periodic traffic interval is not strictly positive and finite.
    BadInterval {
        /// Offending interval in seconds.
        interval: f64,
    },
    /// Periodic traffic was configured with zero snapshots.
    NoSnapshots,
    /// The fault schedule targets a node id outside the simulated world.
    BadFaultTarget {
        /// Largest node id mentioned by the schedule.
        target: u32,
        /// Number of nodes in the world (ids are `0..nodes`).
        nodes: usize,
    },
}

impl fmt::Display for BuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            BuildError::BadSlot { slot } => {
                write!(f, "slot must be positive, got {slot}")
            }
            BuildError::BadContentionWindow {
                contention_window,
                slot,
            } => write!(
                f,
                "contention window must lie in (0, slot), got {contention_window} (slot {slot})"
            ),
            BuildError::BadAirtime { airtime, slot } => {
                write!(
                    f,
                    "airtime must lie in (0, slot], got {airtime} (slot {slot})"
                )
            }
            BuildError::BadMaxSimTime { max_sim_time } => {
                write!(f, "max_sim_time must be positive, got {max_sim_time}")
            }
            BuildError::BadInterval { interval } => {
                write!(f, "periodic interval must be positive, got {interval}")
            }
            BuildError::NoSnapshots => f.write_str("at least one snapshot required"),
            BuildError::BadFaultTarget { target, nodes } => write!(
                f,
                "fault schedule targets node {target}, but the world has only {nodes} nodes"
            ),
        }
    }
}

impl std::error::Error for BuildError {}

impl Default for MacConfig {
    fn default() -> Self {
        Self {
            slot: 1e-3,
            contention_window: 0.5e-3,
            airtime: 0.5e-3,
            max_sim_time: 1e-3 * 1_000_000.0,
            fairness_wait: true,
        }
    }
}

impl MacConfig {
    /// Validates internal consistency, returning a typed error instead of
    /// panicking.
    ///
    /// # Errors
    ///
    /// Returns the first applicable [`BuildError`] if the slot, contention
    /// window, airtime, or time cap is non-finite, non-positive, or out of
    /// range (`contention_window ∈ (0, slot)`, `airtime ∈ (0, slot]`).
    pub fn validated(&self) -> Result<(), BuildError> {
        if !(self.slot > 0.0 && self.slot.is_finite()) {
            return Err(BuildError::BadSlot { slot: self.slot });
        }
        if !(self.contention_window > 0.0 && self.contention_window < self.slot) {
            return Err(BuildError::BadContentionWindow {
                contention_window: self.contention_window,
                slot: self.slot,
            });
        }
        if !(self.airtime > 0.0 && self.airtime <= self.slot) {
            return Err(BuildError::BadAirtime {
                airtime: self.airtime,
                slot: self.slot,
            });
        }
        if !(self.max_sim_time > 0.0 && self.max_sim_time.is_finite()) {
            return Err(BuildError::BadMaxSimTime {
                max_sim_time: self.max_sim_time,
            });
        }
        Ok(())
    }

    /// Validates internal consistency.
    ///
    /// # Panics
    ///
    /// Panics if the slot or contention window is not strictly positive,
    /// if `contention_window ≥ slot`, or if `max_sim_time` is not
    /// positive and finite. Prefer [`MacConfig::validated`] for a typed
    /// error.
    pub fn validate(&self) {
        if let Err(e) = self.validated() {
            panic!("{e}");
        }
    }

    /// Convenience: the safety cap expressed in slots.
    #[must_use]
    pub fn max_slots(&self) -> f64 {
        self.max_sim_time / self.slot
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = MacConfig::default();
        assert_eq!(c.slot, 1e-3);
        assert_eq!(c.contention_window, 0.5e-3);
        assert_eq!(c.airtime, 0.5e-3);
        assert!(c.fairness_wait);
        c.validate();
    }

    #[test]
    #[should_panic(expected = "airtime")]
    fn airtime_above_slot_rejected() {
        let c = MacConfig {
            airtime: 2e-3,
            ..MacConfig::default()
        };
        c.validate();
    }

    #[test]
    fn max_slots_is_time_over_slot() {
        let c = MacConfig::default();
        assert!((c.max_slots() - 1_000_000.0).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "contention window")]
    fn contention_window_must_fit_in_slot() {
        let c = MacConfig {
            contention_window: 2e-3,
            ..MacConfig::default()
        };
        c.validate();
    }

    #[test]
    #[should_panic(expected = "slot must be positive")]
    fn zero_slot_rejected() {
        let c = MacConfig {
            slot: 0.0,
            ..MacConfig::default()
        };
        c.validate();
    }

    #[test]
    fn validated_returns_typed_errors() {
        let defaults = MacConfig::default();
        assert_eq!(defaults.validated(), Ok(()));
        let nan_slot = MacConfig {
            slot: f64::NAN,
            ..defaults
        };
        assert!(matches!(
            nan_slot.validated(),
            Err(BuildError::BadSlot { .. })
        ));
        let inf_cap = MacConfig {
            max_sim_time: f64::INFINITY,
            ..defaults
        };
        assert_eq!(
            inf_cap.validated(),
            Err(BuildError::BadMaxSimTime {
                max_sim_time: f64::INFINITY
            })
        );
        let wide_cw = MacConfig {
            contention_window: 2e-3,
            ..defaults
        };
        assert!(wide_cw
            .validated()
            .unwrap_err()
            .to_string()
            .contains("contention window"));
    }

    #[test]
    fn traffic_validated_returns_typed_errors() {
        assert_eq!(Traffic::Snapshot.validated(), Ok(()));
        let bad = Traffic::Periodic {
            interval: 0.0,
            snapshots: 3,
        };
        assert!(matches!(
            bad.validated(),
            Err(BuildError::BadInterval { .. })
        ));
        assert!(bad
            .validated()
            .unwrap_err()
            .to_string()
            .contains("interval"));
        let none = Traffic::Periodic {
            interval: 1e-3,
            snapshots: 0,
        };
        assert_eq!(none.validated(), Err(BuildError::NoSnapshots));
    }

    #[test]
    fn interference_model_defaults_to_exact() {
        assert_eq!(InterferenceModel::default(), InterferenceModel::Exact);
        assert_eq!(InterferenceModel::Exact.epsilon(), None);
        assert_eq!(
            InterferenceModel::Truncated { epsilon: 0.1 }.epsilon(),
            Some(0.1)
        );
    }

    #[test]
    fn interference_model_round_trips_through_strings() {
        for model in [
            InterferenceModel::Exact,
            InterferenceModel::Truncated { epsilon: 0.1 },
            InterferenceModel::Truncated { epsilon: 0.05 },
        ] {
            let s = model.to_string();
            assert_eq!(s.parse::<InterferenceModel>().unwrap(), model);
        }
        assert_eq!(
            "exact".parse::<InterferenceModel>().unwrap(),
            InterferenceModel::Exact
        );
        assert!("nearfield".parse::<InterferenceModel>().is_err());
        assert!("truncated:abc".parse::<InterferenceModel>().is_err());
    }
}
