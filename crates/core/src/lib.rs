//! ADDC — the paper's contribution — and its evaluation baselines.
//!
//! This crate ties the substrates together into the systems the ICDCS 2012
//! paper evaluates:
//!
//! - **ADDC** (Algorithm 1): CDS-based collection tree + PCR carrier
//!   sensing + asynchronous backoff with the fairness wait,
//! - **Coolest** (the comparison baseline, adapted from Huang et al.'s
//!   Coolest Path routing): spectrum-temperature-weighted shortest-path
//!   routing under the *same* asynchronous MAC,
//! - **BFS tree** (an extra ablation): plain hop-count shortest-path tree
//!   under the same MAC.
//!
//! The entry points are [`ScenarioParams`] (a builder for everything the
//! paper's Section V parameterizes), [`Scenario::generate`] (a connected
//! random CRN deployment), and [`Scenario::run`], which wraps the one run
//! path [`Scenario::run_probed`] (any traffic pattern, any probe).
//! [`Scenario::delay_bounds`] evaluates the paper's analytic bounds on the
//! same scenario.
//!
//! # Example
//!
//! ```
//! use crn_core::{CollectionAlgorithm, Scenario, ScenarioParams};
//!
//! let params = ScenarioParams::builder()
//!     .num_sus(50)
//!     .num_pus(10)
//!     .area_side(42.0)
//!     .seed(3)
//!     .build();
//! let scenario = Scenario::generate(&params)?;
//! let addc = scenario.run(CollectionAlgorithm::Addc)?;
//! assert!(addc.report.finished);
//! assert_eq!(addc.report.packets_delivered, 50);
//! # Ok::<(), crn_core::ScenarioError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cache_key;
mod coolest;
mod params;
mod scenario;

pub use cache_key::{
    canonical_params_string, canonical_radio_string, canonical_topology_string, fnv1a_64,
};
pub use coolest::{coolest_tree, coolest_tree_with, CoolestStrategy};
pub use params::{ScenarioParams, ScenarioParamsBuilder};
pub use scenario::{CollectionAlgorithm, CollectionOutcome, Scenario, ScenarioError};
