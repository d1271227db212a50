//! Fig. 4 — the PCR value under different parameter settings.
//!
//! Fig. 4 is closed-form: for each of five panels (sweeping `P_p`, `P_s`,
//! `η_p`, `η_s`, and `R` away from the defaults `α = 4`, `P_p = P_s = 10`,
//! `R = 12`, `r = 10`, `η_p = η_s = 10 dB`) it plots the PCR for
//! `α = 3.0` and `α = 4.0`. The paper's observations, which the generated
//! series reproduce:
//!
//! 1. the PCR at `α = 3.0` exceeds the PCR at `α = 4.0` everywhere, and
//! 2. the PCR is non-decreasing in `P_p`, `P_s`, `η_p`, and `η_s`.

use crn_interference::{pcr, PcrConstants, PhyParams, PhyParamsBuilder};

/// Which parameter a Fig. 4 panel sweeps.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Fig4Panel {
    /// PU transmit power `P_p`.
    PuPower,
    /// SU transmit power `P_s`.
    SuPower,
    /// Primary SIR threshold `η_p` (dB).
    EtaPDb,
    /// Secondary SIR threshold `η_s` (dB).
    EtaSDb,
    /// PU transmission radius `R`.
    PuRadius,
}

impl Fig4Panel {
    /// All five panels.
    pub const ALL: [Fig4Panel; 5] = [
        Fig4Panel::PuPower,
        Fig4Panel::SuPower,
        Fig4Panel::EtaPDb,
        Fig4Panel::EtaSDb,
        Fig4Panel::PuRadius,
    ];

    /// Axis label for tables.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Fig4Panel::PuPower => "P_p",
            Fig4Panel::SuPower => "P_s",
            Fig4Panel::EtaPDb => "eta_p(dB)",
            Fig4Panel::EtaSDb => "eta_s(dB)",
            Fig4Panel::PuRadius => "R",
        }
    }

    /// The swept values (upward from the Fig. 4 defaults, where the
    /// paper's monotonicity claim applies).
    #[must_use]
    pub fn values(self) -> Vec<f64> {
        match self {
            Fig4Panel::PuPower | Fig4Panel::SuPower => {
                vec![10.0, 14.0, 18.0, 22.0, 26.0, 30.0]
            }
            Fig4Panel::EtaPDb | Fig4Panel::EtaSDb => {
                vec![10.0, 11.0, 12.0, 13.0, 14.0]
            }
            Fig4Panel::PuRadius => vec![12.0, 14.0, 16.0, 18.0, 20.0],
        }
    }

    fn apply(self, b: &mut PhyParamsBuilder, x: f64) {
        match self {
            Fig4Panel::PuPower => {
                b.pu_power(x);
            }
            Fig4Panel::SuPower => {
                b.su_power(x);
            }
            Fig4Panel::EtaPDb => {
                b.pu_sir_threshold_db(x);
            }
            Fig4Panel::EtaSDb => {
                b.su_sir_threshold_db(x);
            }
            Fig4Panel::PuRadius => {
                b.pu_radius(x);
            }
        }
    }
}

/// One row of the Fig. 4 reproduction: PCR for both α settings at one
/// swept value.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Fig4Row {
    /// Panel (swept parameter).
    pub panel: Fig4Panel,
    /// Swept value.
    pub x: f64,
    /// PCR (carrier-sensing range) at `α = 3.0`.
    pub pcr_alpha3: f64,
    /// PCR at `α = 4.0`.
    pub pcr_alpha4: f64,
}

/// Generates every row of Fig. 4 under the chosen `c₂` constants.
#[must_use]
pub fn fig4_rows(constants: PcrConstants) -> Vec<Fig4Row> {
    let mut rows = Vec::new();
    for panel in Fig4Panel::ALL {
        for x in panel.values() {
            let pcr_at = |alpha: f64| {
                let mut b = PhyParams::builder();
                b.alpha(alpha);
                panel.apply(&mut b, x);
                let phy = b.build().expect("fig4 sweep values are valid");
                pcr::carrier_sensing_range(&phy, constants)
            };
            rows.push(Fig4Row {
                panel,
                x,
                pcr_alpha3: pcr_at(3.0),
                pcr_alpha4: pcr_at(4.0),
            });
        }
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_panels_generate_rows() {
        let rows = fig4_rows(PcrConstants::Paper);
        for panel in Fig4Panel::ALL {
            assert!(rows.iter().any(|r| r.panel == panel));
        }
        assert_eq!(
            rows.len(),
            Fig4Panel::ALL
                .iter()
                .map(|p| p.values().len())
                .sum::<usize>()
        );
    }

    #[test]
    fn alpha3_always_exceeds_alpha4() {
        // The paper's headline Fig. 4 observation.
        for constants in [PcrConstants::Paper, PcrConstants::Corrected] {
            for row in fig4_rows(constants) {
                assert!(
                    row.pcr_alpha3 > row.pcr_alpha4,
                    "{:?} x={}: {} vs {}",
                    row.panel,
                    row.x,
                    row.pcr_alpha3,
                    row.pcr_alpha4
                );
            }
        }
    }

    #[test]
    fn pcr_nondecreasing_along_each_panel() {
        // The paper's second Fig. 4 observation.
        for constants in [PcrConstants::Paper, PcrConstants::Corrected] {
            for panel in Fig4Panel::ALL {
                let rows: Vec<Fig4Row> = fig4_rows(constants)
                    .into_iter()
                    .filter(|r| r.panel == panel)
                    .collect();
                for w in rows.windows(2) {
                    assert!(
                        w[1].pcr_alpha3 >= w[0].pcr_alpha3 - 1e-9,
                        "{panel:?} alpha3 decreased"
                    );
                    assert!(
                        w[1].pcr_alpha4 >= w[0].pcr_alpha4 - 1e-9,
                        "{panel:?} alpha4 decreased"
                    );
                }
            }
        }
    }

    #[test]
    fn corrected_constants_give_larger_pcr() {
        let paper = fig4_rows(PcrConstants::Paper);
        let corrected = fig4_rows(PcrConstants::Corrected);
        for (p, c) in paper.iter().zip(&corrected) {
            assert!(c.pcr_alpha4 > p.pcr_alpha4);
            assert!(c.pcr_alpha3 > p.pcr_alpha3);
        }
    }

    #[test]
    fn default_point_matches_direct_computation() {
        let rows = fig4_rows(PcrConstants::Paper);
        let row = rows
            .iter()
            .find(|r| r.panel == Fig4Panel::PuPower && r.x == 10.0)
            .unwrap();
        let phy = PhyParams::builder().alpha(4.0).build().unwrap();
        let direct = pcr::carrier_sensing_range(&phy, PcrConstants::Paper);
        assert!((row.pcr_alpha4 - direct).abs() < 1e-12);
    }
}
