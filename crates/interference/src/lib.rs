//! Physical-interference substrate for the ADDC (ICDCS 2012) reproduction.
//!
//! Section III of the paper adopts the **physical interference model**: a
//! transmission from `u` to `v` succeeds iff the Signal-to-Interference
//! Ratio at `v` — received power of `u` over the cumulative received power
//! of *every* other concurrent transmitter, primary or secondary — meets a
//! per-network threshold (`η_p` for PUs, `η_s` for SUs).
//!
//! Section IV-B derives the **Proper Carrier-sensing Range** `R = κ·r`
//! (Lemmas 2–3, Eq. 16): if all concurrent transmitters keep pairwise
//! distance at least `R`, every transmission succeeds and the secondary
//! network never disturbs the primary network.
//!
//! This crate provides:
//!
//! - [`PhyParams`] — the paper's physical-layer parameter set with
//!   dB-aware builders,
//! - [`sir`] — cumulative SIR evaluation and RS-mode capture
//!   ([`sir::capture`]),
//! - [`pcr`] — the κ/PCR closed forms under both the paper's constants and
//!   the corrected constants (see `DESIGN.md` §5: the paper's bound
//!   `ζ(x) ≤ 1/(x−1)` is a typo for `ζ(x) − 1 ≤ 1/(x−1)`),
//! - [`concurrent`] — an empirical verifier that a point set is a
//!   *concurrent set* (Definition 4.1), used to probe the PCR lemmas,
//! - [`cutoff`] — the certified far-field truncation built on Lemma 2's
//!   convergent hexagon-layer series: the smallest cutoff radius whose
//!   worst-case far-field interference tail fits an ε fraction of the SIR
//!   decision margin.
//!
//! # Example
//!
//! ```
//! use crn_interference::{pcr, PcrConstants, PhyParams};
//!
//! // Paper Fig. 4 defaults.
//! let params = PhyParams::builder()
//!     .alpha(4.0)
//!     .pu_power(10.0)
//!     .su_power(10.0)
//!     .pu_radius(12.0)
//!     .su_radius(10.0)
//!     .pu_sir_threshold_db(10.0)
//!     .su_sir_threshold_db(10.0)
//!     .build()
//!     .unwrap();
//! let kappa = pcr::kappa(&params, PcrConstants::Paper);
//! let range = pcr::carrier_sensing_range(&params, PcrConstants::Paper);
//! assert!((range - kappa * 10.0).abs() < 1e-12);
//! assert!(kappa > 1.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod concurrent;
pub mod cutoff;
mod params;
pub mod pcr;
pub mod sir;

pub use cutoff::{CutoffTable, FarFieldBound};
pub use params::{
    db_to_linear, linear_to_db, path_gain, path_gain_sq, ParamError, PathLoss, PhyParams,
    PhyParamsBuilder,
};
pub use pcr::PcrConstants;
