//! # crn — ADDC reproduction facade
//!
//! A full reproduction of *"Optimal Distributed Data Collection for
//! Asynchronous Cognitive Radio Networks"* (Cai, Ji, He, Bourgeois — IEEE
//! ICDCS 2012) as a Rust workspace. This facade crate re-exports the
//! workspace crates under one roof so applications can depend on `crn`
//! alone.
//!
//! | Module | Crate | Contents |
//! |--------|-------|----------|
//! | [`geometry`] | `crn-geometry` | points, regions, spatial index, deployments, packing lemmas |
//! | [`topology`] | `crn-topology` | unit-disk graphs, BFS, MIS, CDS collection trees |
//! | [`interference`] | `crn-interference` | physical SIR model, PCR/κ derivation |
//! | [`spectrum`] | `crn-spectrum` | PU activity models, spectrum opportunities & temperature |
//! | [`faults`] | `crn-faults` | seeded fault plans & churn: crashes, pauses, regime shifts, brownouts |
//! | [`sim`] | `crn-sim` | asynchronous discrete-event CSMA simulator + trace probes |
//! | [`core`] | `crn-core` | ADDC (Algorithm 1) and the Coolest-path baseline |
//! | [`theory`] | `crn-theory` | Lemmas 4–8, Theorems 1–2 analytic bounds |
//! | [`workloads`] | `crn-workloads` | scenarios, sweeps, parallel runners, tables |
//! | [`serve`] | `crn-serve` | JSON-lines-over-TCP simulation service: batching, caching, admission control |
//!
//! # Quickstart
//!
//! ```
//! use crn::core::{CollectionAlgorithm, Scenario, ScenarioParams};
//!
//! // A small network so the doctest stays fast.
//! let params = ScenarioParams::builder()
//!     .num_sus(60)
//!     .num_pus(12)
//!     .area_side(45.0)
//!     .seed(42)
//!     .build();
//! let scenario = Scenario::generate(&params).expect("connected scenario");
//! let outcome = scenario.run(CollectionAlgorithm::Addc).expect("collection finishes");
//! assert_eq!(outcome.report.packets_delivered, 60);
//! ```
//!
//! To watch a run instead of just summarizing it, attach a probe:
//! `Scenario::run_probed` with [`sim::TraceLog::unbounded`] pairs the
//! outcome with a log of typed events, and [`sim::Simulator::builder`]
//! accepts any [`sim::Probe`] (e.g. [`sim::TimeSeries`]) for custom
//! instrumentation.

#![forbid(unsafe_code)]

pub use crn_core as core;
pub use crn_faults as faults;
pub use crn_geometry as geometry;
pub use crn_interference as interference;
pub use crn_serve as serve;
pub use crn_sim as sim;
pub use crn_spectrum as spectrum;
pub use crn_theory as theory;
pub use crn_topology as topology;
pub use crn_workloads as workloads;
