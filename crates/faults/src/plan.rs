use crn_spectrum::PuActivity;
use std::fmt;

/// One schedulable fault, the DSL vocabulary of a [`FaultPlan`].
///
/// Node ids follow the simulator convention: node `0` is the base
/// station, secondary users are `1..=n`. The base station never crashes
/// or pauses — its outages are modeled as brownout windows — so every
/// per-node kind requires `su ≥ 1`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum FaultKind {
    /// The SU dies: any transmission in flight aborts, its queue is
    /// dropped (counted as lost to faults), and its children re-parent
    /// through the self-healing protocol.
    SuCrash {
        /// Crashing node (`≥ 1`).
        su: u32,
    },
    /// A crashed SU rejoins with an empty queue and an idle MAC.
    SuRecover {
        /// Recovering node (`≥ 1`).
        su: u32,
    },
    /// The SU freezes (duty-cycling, firmware stall): transmissions abort
    /// but the queue is retained for resume.
    SuPause {
        /// Pausing node (`≥ 1`).
        su: u32,
    },
    /// A paused SU picks its retained queue back up.
    SuResume {
        /// Resuming node (`≥ 1`).
        su: u32,
    },
    /// The primary network switches activity regime (`p_t → p_t'`, or a
    /// whole new model). Per-PU on/off states persist across the switch.
    PuRegimeShift {
        /// The new activity model.
        activity: PuActivity,
    },
    /// The SU's uplink path gain is multiplied by `factor` (obstruction,
    /// antenna damage). Applies to transmissions *started* after this
    /// instant; `factor = 1` restores the nominal link.
    LinkDegrade {
        /// Affected transmitter (`≥ 1`).
        su: u32,
        /// Multiplier on the link's path gain, in `[0, 1]`.
        factor: f64,
    },
    /// The base station stops receiving: deliveries fail until the
    /// matching [`FaultKind::BrownoutEnd`]; senders retry.
    BrownoutStart,
    /// The base station resumes receiving.
    BrownoutEnd,
}

impl FaultKind {
    /// Short label used in traces and JSON (`"crash"`, `"recover"`, ...).
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            FaultKind::SuCrash { .. } => "crash",
            FaultKind::SuRecover { .. } => "recover",
            FaultKind::SuPause { .. } => "pause",
            FaultKind::SuResume { .. } => "resume",
            FaultKind::PuRegimeShift { .. } => "pu_regime_shift",
            FaultKind::LinkDegrade { .. } => "link_degrade",
            FaultKind::BrownoutStart => "brownout_start",
            FaultKind::BrownoutEnd => "brownout_end",
        }
    }

    /// The targeted node, for per-node kinds.
    #[must_use]
    pub fn target(&self) -> Option<u32> {
        match *self {
            FaultKind::SuCrash { su }
            | FaultKind::SuRecover { su }
            | FaultKind::SuPause { su }
            | FaultKind::SuResume { su }
            | FaultKind::LinkDegrade { su, .. } => Some(su),
            _ => None,
        }
    }
}

/// A fault scheduled at an absolute simulation time (seconds).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FaultEvent {
    /// When the fault fires, in seconds of simulated time (`≥ 0`, finite).
    pub time: f64,
    /// What happens.
    pub kind: FaultKind,
}

impl FaultEvent {
    /// Creates an event.
    #[must_use]
    pub fn new(time: f64, kind: FaultKind) -> Self {
        Self { time, kind }
    }
}

/// Why a plan failed validation.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum FaultError {
    /// An event time is negative or non-finite.
    BadTime {
        /// Offending time.
        time: f64,
    },
    /// A per-node fault targets the base station (node 0); use brownout
    /// windows to model base-station outages.
    BadTarget,
    /// A link-degradation factor lies outside `[0, 1]`.
    BadFactor {
        /// Offending factor.
        factor: f64,
    },
    /// A regime-shift activity model carries an invalid probability.
    BadActivity {
        /// The offending probability.
        p: f64,
    },
    /// A churn spec parameter is negative or non-finite.
    BadChurn {
        /// Which parameter.
        field: &'static str,
        /// Offending value.
        value: f64,
    },
}

impl fmt::Display for FaultError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            FaultError::BadTime { time } => {
                write!(f, "fault time must be finite and non-negative, got {time}")
            }
            FaultError::BadTarget => {
                f.write_str("per-node faults must target an SU (node >= 1); model base-station outages as brownouts")
            }
            FaultError::BadFactor { factor } => {
                write!(f, "link degradation factor must lie in [0, 1], got {factor}")
            }
            FaultError::BadActivity { p } => {
                write!(f, "regime-shift activity carries a non-probability {p}")
            }
            FaultError::BadChurn { field, value } => {
                write!(f, "churn {field} must be finite and non-negative, got {value}")
            }
        }
    }
}

impl std::error::Error for FaultError {}

/// An author-facing fault script: an unordered bag of [`FaultEvent`]s.
///
/// Plans are inert data; [`FaultPlan::compile`] validates and sorts them
/// into a [`FaultSchedule`] the simulator can walk. The empty plan
/// compiles to an empty schedule and injects nothing.
#[derive(Clone, Debug, PartialEq, Default)]
pub struct FaultPlan {
    events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// The plan that injects nothing.
    #[must_use]
    pub fn empty() -> Self {
        Self::default()
    }

    /// Wraps a list of events (any order; compile sorts).
    #[must_use]
    pub fn from_events(events: Vec<FaultEvent>) -> Self {
        Self { events }
    }

    /// Appends an event.
    pub fn push(&mut self, event: FaultEvent) {
        self.events.push(event);
    }

    /// The plan's events, in authoring order.
    #[must_use]
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// Whether the plan schedules nothing.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Validates every event without compiling.
    ///
    /// # Errors
    ///
    /// Returns the first [`FaultError`] found.
    pub fn validated(&self) -> Result<(), FaultError> {
        for e in &self.events {
            if !(e.time.is_finite() && e.time >= 0.0) {
                return Err(FaultError::BadTime { time: e.time });
            }
            if e.kind.target() == Some(0) {
                return Err(FaultError::BadTarget);
            }
            match e.kind {
                FaultKind::LinkDegrade { factor, .. }
                    if !(factor.is_finite() && (0.0..=1.0).contains(&factor)) =>
                {
                    return Err(FaultError::BadFactor { factor });
                }
                FaultKind::PuRegimeShift { activity } => {
                    let probs: &[f64] = match activity {
                        PuActivity::Bernoulli { p_t } => &[p_t],
                        PuActivity::Gilbert(g) => &[g.p_on, g.p_off],
                    };
                    for &p in probs {
                        if !(p.is_finite() && (0.0..=1.0).contains(&p)) {
                            return Err(FaultError::BadActivity { p });
                        }
                    }
                }
                _ => {}
            }
        }
        Ok(())
    }

    /// Validates and sorts the plan into an executable schedule. The sort
    /// is stable, so same-instant events keep their authoring order.
    ///
    /// # Errors
    ///
    /// Returns the first [`FaultError`] found.
    pub fn compile(&self) -> Result<FaultSchedule, FaultError> {
        self.validated()?;
        let mut events = self.events.clone();
        events.sort_by(|a, b| a.time.partial_cmp(&b.time).expect("validated finite times"));
        Ok(FaultSchedule { events })
    }
}

/// A validated, time-sorted fault script, ready for the simulator to walk
/// front to back.
#[derive(Clone, Debug, PartialEq, Default)]
pub struct FaultSchedule {
    events: Vec<FaultEvent>,
}

impl FaultSchedule {
    /// The schedule that injects nothing.
    #[must_use]
    pub fn empty() -> Self {
        Self::default()
    }

    /// The events, sorted by time.
    #[must_use]
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// Number of scheduled events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the schedule injects nothing.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Largest per-node target mentioned, for bounds-checking against the
    /// simulated network size.
    #[must_use]
    pub fn max_target(&self) -> Option<u32> {
        self.events.iter().filter_map(|e| e.kind.target()).max()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_is_empty_schedule() {
        let s = FaultPlan::empty().compile().unwrap();
        assert!(s.is_empty());
        assert_eq!(s.len(), 0);
        assert_eq!(s.max_target(), None);
    }

    #[test]
    fn compile_sorts_stably() {
        let plan = FaultPlan::from_events(vec![
            FaultEvent::new(0.5, FaultKind::SuCrash { su: 2 }),
            FaultEvent::new(0.1, FaultKind::BrownoutStart),
            FaultEvent::new(0.1, FaultKind::BrownoutEnd),
        ]);
        let s = plan.compile().unwrap();
        assert_eq!(s.events()[0].kind, FaultKind::BrownoutStart);
        assert_eq!(s.events()[1].kind, FaultKind::BrownoutEnd);
        assert_eq!(s.events()[2].kind, FaultKind::SuCrash { su: 2 });
        assert_eq!(s.max_target(), Some(2));
    }

    #[test]
    fn validation_rejects_bad_events() {
        let bad_time =
            FaultPlan::from_events(vec![FaultEvent::new(f64::NAN, FaultKind::BrownoutStart)]);
        assert!(matches!(
            bad_time.compile(),
            Err(FaultError::BadTime { .. })
        ));
        let bs = FaultPlan::from_events(vec![FaultEvent::new(0.0, FaultKind::SuCrash { su: 0 })]);
        assert_eq!(bs.compile(), Err(FaultError::BadTarget));
        let factor = FaultPlan::from_events(vec![FaultEvent::new(
            0.0,
            FaultKind::LinkDegrade { su: 1, factor: 1.5 },
        )]);
        assert!(matches!(
            factor.compile(),
            Err(FaultError::BadFactor { .. })
        ));
        let shift = FaultPlan::from_events(vec![FaultEvent::new(
            0.0,
            FaultKind::PuRegimeShift {
                activity: PuActivity::Bernoulli { p_t: 1.5 },
            },
        )]);
        assert!(matches!(
            shift.compile(),
            Err(FaultError::BadActivity { .. })
        ));
        for e in [
            FaultError::BadTime { time: -1.0 },
            FaultError::BadTarget,
            FaultError::BadFactor { factor: 2.0 },
            FaultError::BadActivity { p: -0.5 },
            FaultError::BadChurn {
                field: "rate",
                value: -1.0,
            },
        ] {
            assert!(!e.to_string().is_empty());
        }
    }

    #[test]
    fn labels_and_targets() {
        assert_eq!(FaultKind::SuCrash { su: 3 }.label(), "crash");
        assert_eq!(FaultKind::SuCrash { su: 3 }.target(), Some(3));
        assert_eq!(FaultKind::BrownoutStart.target(), None);
        assert_eq!(
            FaultKind::PuRegimeShift {
                activity: PuActivity::Bernoulli { p_t: 0.5 }
            }
            .target(),
            None
        );
        assert_eq!(
            FaultKind::LinkDegrade { su: 2, factor: 0.5 }.label(),
            "link_degrade"
        );
    }

    #[test]
    fn push_accumulates() {
        let mut p = FaultPlan::empty();
        assert!(p.is_empty());
        p.push(FaultEvent::new(1.0, FaultKind::SuPause { su: 5 }));
        p.push(FaultEvent::new(2.0, FaultKind::SuResume { su: 5 }));
        assert_eq!(p.events().len(), 2);
        assert!(!p.is_empty());
    }
}
