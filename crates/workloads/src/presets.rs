//! Experiment presets: the paper's exact scale, a density-preserving
//! laptop scale, and a CI-speed scale.
//!
//! The paper's Fig. 6 runs `n = 2000`, `N = 400` in a `250×250` area with
//! 10 repetitions; one run at its default point takes 2.5–73 s on one
//! core (median 7.3 s over ten seeds of both algorithms, measured on a
//! 2-core x86-64 host with `examples/paper_spot.rs`). `Scaled` keeps every
//! *density* that drives the physics (SUs and PUs per unit area, radii,
//! powers, thresholds) while shrinking the arena, so trends and
//! win/loss orderings are preserved at ~100× less cost; `EXPERIMENTS.md`
//! records which preset produced each table. `Scaled` also halves the PU
//! density: at the paper's own density the `α ≤ 3.25` corner of panel (d)
//! drives `p_o` below `10⁻⁵` and a faithful run needs days (see
//! `DESIGN.md` §5) — the halved density keeps every panel's trend while
//! staying tractable.

use crate::{Axis, AxisKind, SweepSpec};
use crn_core::{CollectionAlgorithm, ScenarioParams};
use std::fmt;
use std::str::FromStr;

/// Which scale to run an experiment at.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum PresetKind {
    /// The paper's exact Section V parameters. Expensive.
    Paper,
    /// Density-preserving laptop scale (default for `EXPERIMENTS.md`).
    Scaled,
    /// Minutes-scale variant for CI and doctests.
    Tiny,
}

impl fmt::Display for PresetKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            PresetKind::Paper => "paper",
            PresetKind::Scaled => "scaled",
            PresetKind::Tiny => "tiny",
        };
        f.write_str(s)
    }
}

impl FromStr for PresetKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "paper" => Ok(PresetKind::Paper),
            "scaled" => Ok(PresetKind::Scaled),
            "tiny" => Ok(PresetKind::Tiny),
            other => Err(format!("unknown preset '{other}' (paper|scaled|tiny)")),
        }
    }
}

/// The six panels of the paper's Fig. 6.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Fig6Panel {
    /// Delay vs. number of PUs `N`.
    A,
    /// Delay vs. number of SUs `n`.
    B,
    /// Delay vs. PU activity `p_t`.
    C,
    /// Delay vs. path loss `α`.
    D,
    /// Delay vs. PU power `P_p`.
    E,
    /// Delay vs. SU power `P_s`.
    F,
}

impl Fig6Panel {
    /// All six panels in order.
    pub const ALL: [Fig6Panel; 6] = [
        Fig6Panel::A,
        Fig6Panel::B,
        Fig6Panel::C,
        Fig6Panel::D,
        Fig6Panel::E,
        Fig6Panel::F,
    ];

    /// Figure id, e.g. `"fig6a"`.
    #[must_use]
    pub fn figure_id(self) -> &'static str {
        match self {
            Fig6Panel::A => "fig6a",
            Fig6Panel::B => "fig6b",
            Fig6Panel::C => "fig6c",
            Fig6Panel::D => "fig6d",
            Fig6Panel::E => "fig6e",
            Fig6Panel::F => "fig6f",
        }
    }
}

impl fmt::Display for Fig6Panel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.figure_id())
    }
}

impl FromStr for Fig6Panel {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "a" | "fig6a" => Ok(Fig6Panel::A),
            "b" | "fig6b" => Ok(Fig6Panel::B),
            "c" | "fig6c" => Ok(Fig6Panel::C),
            "d" | "fig6d" => Ok(Fig6Panel::D),
            "e" | "fig6e" => Ok(Fig6Panel::E),
            "f" | "fig6f" => Ok(Fig6Panel::F),
            other => Err(format!("unknown panel '{other}' (a..f)")),
        }
    }
}

/// Base scenario parameters for a preset (before any axis is applied).
#[must_use]
pub fn base_params(kind: PresetKind) -> ScenarioParams {
    match kind {
        // Paper Fig. 6 defaults verbatim; at full PU density straggler
        // flows (SUs inside PU-dense pockets, where p_o is exponentially
        // small) routinely outlive the default 10⁶-slot cap, so the cap
        // is raised 10x.
        PresetKind::Paper => {
            let mut params = ScenarioParams::builder().build();
            params.mac.max_sim_time = 10_000.0; // 10^7 slots
            params
        }
        // 140x140 arena: SU density matches the paper (0.032/unit^2); PU
        // density is half the paper's (see module docs).
        PresetKind::Scaled => ScenarioParams::builder()
            .num_sus(600)
            .num_pus(63)
            .area_side(140.0)
            .max_connectivity_attempts(2000)
            .build(),
        // 70x70 arena at the same densities.
        PresetKind::Tiny => ScenarioParams::builder()
            .num_sus(150)
            .num_pus(16)
            .area_side(70.0)
            .max_connectivity_attempts(2000)
            .build(),
    }
}

/// Default repetition count for a preset (the paper uses 10).
#[must_use]
pub fn default_reps(kind: PresetKind) -> u32 {
    match kind {
        PresetKind::Paper => 10,
        PresetKind::Scaled => 10,
        PresetKind::Tiny => 3,
    }
}

/// Builds the sweep for one Fig. 6 panel at the given scale, comparing
/// ADDC against the Coolest baseline as the paper does.
#[must_use]
pub fn fig6_spec(kind: PresetKind, panel: Fig6Panel) -> SweepSpec {
    let base = base_params(kind);
    let n = base.num_sus as f64;
    let big_n = base.num_pus as f64;
    let axis = match (panel, kind) {
        // Panel (a): N from half to double the default PU count, mirroring
        // the paper's 200..600 around its default 400 (the top of that
        // range saturates the slot cap at our densities).
        (Fig6Panel::A, _) => Axis::new(
            AxisKind::NumPus,
            [0.5, 0.75, 1.0, 1.5, 2.0]
                .iter()
                .map(|f| (f * big_n).round())
                .collect(),
        ),
        // Panel (b): n from 2/3 to 4/3 of default, mirroring 1000..3000
        // around 2000 while staying in the connected regime.
        (Fig6Panel::B, _) => Axis::new(
            AxisKind::NumSus,
            [0.67, 0.83, 1.0, 1.17, 1.33]
                .iter()
                .map(|f| (f * n).round())
                .collect(),
        ),
        (Fig6Panel::C, _) => Axis::new(AxisKind::Pt, vec![0.1, 0.2, 0.3, 0.4, 0.5]),
        // Panel (d): the paper sweeps alpha downward of 4; at paper PU
        // density the alpha <= 3.25 corner is intractable (p_o < 1e-5), so
        // the scaled presets start at 3.25.
        (Fig6Panel::D, PresetKind::Paper) => {
            Axis::new(AxisKind::Alpha, vec![3.0, 3.25, 3.5, 3.75, 4.0])
        }
        (Fig6Panel::D, _) => Axis::new(AxisKind::Alpha, vec![3.25, 3.5, 3.75, 4.0]),
        (Fig6Panel::E, _) => Axis::new(AxisKind::PuPower, vec![10.0, 15.0, 20.0, 25.0]),
        (Fig6Panel::F, _) => Axis::new(AxisKind::SuPower, vec![10.0, 15.0, 20.0, 25.0]),
    };
    SweepSpec {
        figure: panel.figure_id().to_owned(),
        base,
        axis,
        algorithms: vec![CollectionAlgorithm::Addc, CollectionAlgorithm::Coolest],
        reps: default_reps(kind),
    }
}

/// Builds the churn-robustness sweep at the given scale: delivery and
/// delay under increasing crash rates (expected crashes per 1000 slots),
/// ADDC against the Coolest baseline. Rate 0 is included as the
/// fault-free anchor point.
#[must_use]
pub fn churn_spec(kind: PresetKind) -> SweepSpec {
    let rates = match kind {
        PresetKind::Paper | PresetKind::Scaled => vec![0.0, 2.0, 5.0, 10.0, 20.0],
        PresetKind::Tiny => vec![0.0, 5.0, 20.0],
    };
    SweepSpec {
        figure: "churn".to_owned(),
        base: base_params(kind),
        axis: Axis::new(AxisKind::ChurnRate, rates),
        algorithms: vec![CollectionAlgorithm::Addc, CollectionAlgorithm::Coolest],
        reps: default_reps(kind),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_preset_matches_section_v() {
        let p = base_params(PresetKind::Paper);
        assert_eq!(p.num_sus, 2000);
        assert_eq!(p.num_pus, 400);
        assert_eq!(p.area_side, 250.0);
    }

    #[test]
    fn scaled_preserves_su_density() {
        let paper = base_params(PresetKind::Paper);
        let scaled = base_params(PresetKind::Scaled);
        let d_paper = paper.su_density();
        let d_scaled = scaled.su_density();
        assert!(
            (d_scaled / d_paper - 1.0).abs() < 0.05,
            "SU density drifted: {d_scaled} vs {d_paper}"
        );
    }

    #[test]
    fn scaled_halves_pu_density() {
        let paper = base_params(PresetKind::Paper);
        let scaled = base_params(PresetKind::Scaled);
        let ratio = scaled.pu_density() / paper.pu_density();
        assert!((ratio - 0.5).abs() < 0.05, "PU density ratio {ratio}");
    }

    #[test]
    fn tiny_matches_scaled_densities() {
        let scaled = base_params(PresetKind::Scaled);
        let tiny = base_params(PresetKind::Tiny);
        assert!((tiny.su_density() / scaled.su_density() - 1.0).abs() < 0.1);
        assert!((tiny.pu_density() / scaled.pu_density() - 1.0).abs() < 0.1);
    }

    #[test]
    fn all_panels_build_specs() {
        for kind in [PresetKind::Paper, PresetKind::Scaled, PresetKind::Tiny] {
            for panel in Fig6Panel::ALL {
                let spec = fig6_spec(kind, panel);
                assert!(!spec.axis.values.is_empty());
                assert_eq!(spec.algorithms.len(), 2);
                assert!(spec.reps >= 1);
                assert_eq!(spec.figure, panel.figure_id());
            }
        }
    }

    #[test]
    fn panel_a_sweeps_around_default_n() {
        let spec = fig6_spec(PresetKind::Scaled, Fig6Panel::A);
        let base_n = spec.base.num_pus as f64;
        assert!(spec.axis.values.contains(&base_n));
        assert!(spec.axis.values.iter().any(|&v| v < base_n));
        assert!(spec.axis.values.iter().any(|&v| v > base_n));
    }

    #[test]
    fn panel_d_paper_reaches_alpha_three() {
        assert!(fig6_spec(PresetKind::Paper, Fig6Panel::D)
            .axis
            .values
            .contains(&3.0));
        assert!(!fig6_spec(PresetKind::Scaled, Fig6Panel::D)
            .axis
            .values
            .contains(&3.0));
    }

    #[test]
    fn power_panels_sweep_upward_from_default() {
        for panel in [Fig6Panel::E, Fig6Panel::F] {
            let spec = fig6_spec(PresetKind::Scaled, panel);
            assert_eq!(spec.axis.values[0], 10.0, "start at the default power");
            assert!(spec.axis.values.windows(2).all(|w| w[0] < w[1]));
        }
    }

    #[test]
    fn churn_specs_anchor_at_zero_and_scale_with_preset() {
        for kind in [PresetKind::Paper, PresetKind::Scaled, PresetKind::Tiny] {
            let spec = churn_spec(kind);
            assert_eq!(spec.figure, "churn");
            assert_eq!(spec.axis.kind, AxisKind::ChurnRate);
            assert_eq!(spec.axis.values[0], 0.0, "fault-free anchor point");
            assert!(spec.axis.values.windows(2).all(|w| w[0] < w[1]));
            assert!(spec.base.faults.is_none(), "base itself is fault-free");
            assert_eq!(spec.algorithms.len(), 2);
        }
    }

    #[test]
    fn parse_roundtrips() {
        assert_eq!("scaled".parse::<PresetKind>().unwrap(), PresetKind::Scaled);
        assert_eq!("fig6c".parse::<Fig6Panel>().unwrap(), Fig6Panel::C);
        assert_eq!("c".parse::<Fig6Panel>().unwrap(), Fig6Panel::C);
        assert!("bogus".parse::<PresetKind>().is_err());
        assert!("z".parse::<Fig6Panel>().is_err());
    }
}
