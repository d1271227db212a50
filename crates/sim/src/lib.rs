//! Asynchronous discrete-event simulator for the ADDC (ICDCS 2012)
//! reproduction.
//!
//! This crate is the **evaluation platform** the paper's authors never
//! published: an event-driven simulator of a secondary network of
//! carrier-sensing SUs coexisting with a slotted primary network, under
//! the cumulative physical (SIR) interference model of Section III.
//!
//! ## Model highlights (see `DESIGN.md` §4)
//!
//! - **Asynchrony**: SUs keep their own continuous-time backoff clocks;
//!   only the PU activity process is slotted (`τ = 1 ms`). There is no
//!   global SU synchronization anywhere.
//! - **Algorithm 1 MAC**: each SU draws a backoff `t_i ∈ (0, τ_c]`, counts
//!   down only while the channel within its PCR is free (freezing
//!   otherwise), transmits one packet to its tree parent on expiry, then
//!   waits the *fairness* remainder `τ_c − t_i`.
//! - **Spectrum handoff**: if a PU inside the transmitter's PCR activates
//!   mid-transmission, the SU aborts immediately and retries later.
//! - **Reception**: receivers track cumulative SIR from *all* concurrent
//!   transmitters (PU + SU) incrementally; RS-mode capture locks a
//!   receiver onto the strongest addressed signal.
//! - **Determinism**: all randomness flows from one seeded RNG; ties in
//!   event time break by sequence number, so a `(scenario, seed)` pair
//!   reproduces exactly.
//! - **Observability**: the engine emits typed [`TraceEvent`]s to a
//!   pluggable [`Probe`] (ring-buffer [`TraceLog`], bucketed
//!   [`TimeSeries`], or your own). The default [`NoopProbe`] makes the
//!   instrumentation free when unused.
//!
//! # Example
//!
//! Worlds and simulators are assembled through builders; both validate
//! their inputs ([`SimWorldBuilder::build`] returns a [`WorldError`]).
//!
//! ```
//! use crn_geometry::{Point, Region};
//! use crn_sim::{Simulator, SimWorld};
//!
//! // A two-SU chain with no PUs: both packets reach the base station.
//! let world = SimWorld::builder(Region::square(30.0))
//!     .su_positions(vec![
//!         Point::new(5.0, 5.0),
//!         Point::new(12.0, 5.0),
//!         Point::new(19.0, 5.0),
//!     ])
//!     .parents(vec![None, Some(0), Some(1)])
//!     .sense_range(25.0)
//!     .build()
//!     .unwrap();
//! let report = Simulator::builder(world).seed(7).build().unwrap().run();
//! assert!(report.finished);
//! assert_eq!(report.packets_delivered, 2);
//! ```
//!
//! To watch a run instead of just summarizing it, attach a probe:
//!
//! ```
//! use crn_geometry::{Point, Region};
//! use crn_sim::{Simulator, SimWorld, TraceEventKind, TraceLog};
//!
//! let world = SimWorld::builder(Region::square(30.0))
//!     .su_positions(vec![Point::new(5.0, 5.0), Point::new(12.0, 5.0)])
//!     .parents(vec![None, Some(0)])
//!     .sense_range(25.0)
//!     .build()
//!     .unwrap();
//! let (report, trace) = Simulator::builder(world)
//!     .seed(7)
//!     .probe(TraceLog::unbounded())
//!     .build()
//!     .unwrap()
//!     .run_with_probe();
//! let deliveries = trace
//!     .events()
//!     .filter(|e| matches!(e.kind, TraceEventKind::Delivery { .. }))
//!     .count();
//! assert_eq!(deliveries, report.packets_delivered);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod engine;
mod event;
mod oracle;
mod probe;
mod radio;
mod report;
mod topology;
mod world;

pub use config::{BuildError, InterferenceModel, MacConfig, Traffic};
pub use crn_faults::{
    ChurnSpec, FaultError, FaultEvent, FaultKind, FaultPlan, FaultSchedule, FaultsConfig,
};
pub use engine::{Simulator, SimulatorBuilder};
pub use oracle::{InvariantChecker, InvariantKind, Violation};
pub use probe::{
    NoopProbe, Probe, TimeSeries, TimeSeriesPoint, TraceEvent, TraceEventKind, TraceLog, TxOutcome,
};
pub use radio::{Radio, RadioParams};
pub use report::{NodeStats, SimReport};
pub use topology::{Topology, TopologyBuilder};
pub use world::{SimWorld, SimWorldBuilder, WorldError};
