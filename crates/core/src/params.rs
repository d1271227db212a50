use crn_interference::{PcrConstants, PhyParams};
use crn_sim::{FaultsConfig, InterferenceModel, MacConfig};
use crn_spectrum::PuActivity;

/// Everything Section V parameterizes for one simulated CRN scenario.
///
/// The defaults are the paper's Fig. 6 settings **scaled for a single
/// machine** is *not* done here — [`ScenarioParamsBuilder`] defaults to the
/// paper's exact values (`A = 250×250`, `N = 400`, `n = 2000`,
/// `p_t = 0.3`, `α = 4`, `P_p = P_s = 10`, `R = r = 10`,
/// `η_p = η_s = 8 dB`); workload presets downscale explicitly.
#[derive(Clone, Debug, PartialEq)]
pub struct ScenarioParams {
    /// Number of secondary users `n` (the base station is extra).
    pub num_sus: usize,
    /// Number of primary users `N`.
    pub num_pus: usize,
    /// Side of the square deployment area (`A = side²`).
    pub area_side: f64,
    /// Physical-layer parameters.
    pub phy: PhyParams,
    /// PU activity model (the paper's `p_t` Bernoulli model by default).
    pub activity: PuActivity,
    /// Which `c₂` constant the PCR uses (see `DESIGN.md` §5).
    pub pcr_constants: PcrConstants,
    /// MAC configuration (slotting, contention window, caps, ablations).
    pub mac: MacConfig,
    /// How the simulator materializes path gains: dense `Exact` tables or
    /// sparse `Truncated` near-field lists with a certified far-field
    /// error bound (see [`InterferenceModel`]).
    pub interference: InterferenceModel,
    /// Master seed: deployment and simulation randomness derive from it.
    pub seed: u64,
    /// How many deployments to try before giving up on connectivity.
    pub max_connectivity_attempts: usize,
    /// Fault workload: none (inert, the default), an explicit
    /// [`crn_sim::FaultPlan`], or seeded churn resolved against the
    /// scenario's size, slot, and seed at run time.
    pub faults: FaultsConfig,
    /// SU↔SU carrier-sensing range of the **Coolest baseline**, as a
    /// multiple of the SU radius `r`. ADDC's PCR is the paper's
    /// contribution; the baseline routing protocol uses a conventional
    /// CSMA sensing range (default `r`, the textbook physical-carrier-sensing default) and consequently suffers the SU
    /// collisions Lemma 3's PCR provably prevents. PU sensing (protection
    /// of the primary network) always uses the PCR for every algorithm.
    pub baseline_su_sense_factor: f64,
}

impl ScenarioParams {
    /// Starts a builder with the paper's Fig. 6 defaults.
    #[must_use]
    pub fn builder() -> ScenarioParamsBuilder {
        ScenarioParamsBuilder::default()
    }

    /// PU density `N / A`.
    #[must_use]
    pub fn pu_density(&self) -> f64 {
        self.num_pus as f64 / (self.area_side * self.area_side)
    }

    /// SU density `(n + 1) / A` (base station included).
    #[must_use]
    pub fn su_density(&self) -> f64 {
        (self.num_sus + 1) as f64 / (self.area_side * self.area_side)
    }

    /// The derived Proper Carrier-sensing Range `κ·r` of these parameters.
    #[must_use]
    pub fn pcr(&self) -> f64 {
        crn_interference::pcr::carrier_sensing_range(&self.phy, self.pcr_constants)
    }
}

/// Builder for [`ScenarioParams`]; see [`ScenarioParams::builder`].
#[derive(Clone, Debug)]
pub struct ScenarioParamsBuilder {
    params: ScenarioParams,
    p_t: Option<f64>,
}

impl Default for ScenarioParamsBuilder {
    fn default() -> Self {
        Self {
            params: ScenarioParams {
                num_sus: 2000,
                num_pus: 400,
                area_side: 250.0,
                phy: PhyParams::paper_simulation_defaults(),
                activity: PuActivity::bernoulli(0.3).expect("0.3 is a probability"),
                pcr_constants: PcrConstants::Paper,
                mac: MacConfig::default(),
                interference: InterferenceModel::default(),
                seed: 0,
                max_connectivity_attempts: 100,
                faults: FaultsConfig::None,
                baseline_su_sense_factor: 1.0,
            },
            p_t: None,
        }
    }
}

impl ScenarioParamsBuilder {
    /// Sets the number of secondary users `n` (base station excluded).
    pub fn num_sus(&mut self, n: usize) -> &mut Self {
        self.params.num_sus = n;
        self
    }

    /// Sets the number of primary users `N`.
    pub fn num_pus(&mut self, n: usize) -> &mut Self {
        self.params.num_pus = n;
        self
    }

    /// Sets the square deployment area's side length.
    pub fn area_side(&mut self, side: f64) -> &mut Self {
        self.params.area_side = side;
        self
    }

    /// Sets the physical-layer parameters.
    pub fn phy(&mut self, phy: PhyParams) -> &mut Self {
        self.params.phy = phy;
        self
    }

    /// Sets the PU per-slot transmission probability `p_t` (keeps the
    /// Bernoulli model).
    ///
    /// # Panics
    ///
    /// Panics at [`ScenarioParamsBuilder::build`] time if `p_t` is not a
    /// probability.
    pub fn p_t(&mut self, p_t: f64) -> &mut Self {
        self.p_t = Some(p_t);
        self
    }

    /// Sets the full PU activity model (overrides
    /// [`ScenarioParamsBuilder::p_t`]).
    pub fn activity(&mut self, activity: PuActivity) -> &mut Self {
        self.params.activity = activity;
        self.p_t = None;
        self
    }

    /// Selects the PCR constant variant.
    pub fn pcr_constants(&mut self, c: PcrConstants) -> &mut Self {
        self.params.pcr_constants = c;
        self
    }

    /// Sets the MAC configuration.
    pub fn mac(&mut self, mac: MacConfig) -> &mut Self {
        self.params.mac = mac;
        self
    }

    /// Selects the interference model (default [`InterferenceModel::Exact`]).
    pub fn interference(&mut self, model: InterferenceModel) -> &mut Self {
        self.params.interference = model;
        self
    }

    /// Sets the master seed.
    pub fn seed(&mut self, seed: u64) -> &mut Self {
        self.params.seed = seed;
        self
    }

    /// Sets the connectivity resampling budget.
    pub fn max_connectivity_attempts(&mut self, attempts: usize) -> &mut Self {
        self.params.max_connectivity_attempts = attempts;
        self
    }

    /// Sets the fault workload (default [`FaultsConfig::None`], which is
    /// guaranteed bit-for-bit inert).
    pub fn faults(&mut self, faults: FaultsConfig) -> &mut Self {
        self.params.faults = faults;
        self
    }

    /// Produces the parameter set.
    ///
    /// # Panics
    ///
    /// Panics if a `p_t` set via [`ScenarioParamsBuilder::p_t`] is not a
    /// valid probability, or if the MAC configuration is inconsistent.
    #[must_use]
    pub fn build(&self) -> ScenarioParams {
        let mut params = self.params.clone();
        if let Some(p_t) = self.p_t {
            params.activity =
                PuActivity::bernoulli(p_t).unwrap_or_else(|e| panic!("invalid p_t: {e}"));
        }
        params.mac.validate();
        params
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_the_papers() {
        let p = ScenarioParams::builder().build();
        assert_eq!(p.num_sus, 2000);
        assert_eq!(p.num_pus, 400);
        assert_eq!(p.area_side, 250.0);
        assert_eq!(p.activity.duty_cycle(), 0.3);
        assert_eq!(p.pcr_constants, PcrConstants::Paper);
        assert_eq!(p.interference, InterferenceModel::Exact);
    }

    #[test]
    fn interference_model_is_configurable() {
        let p = ScenarioParams::builder()
            .interference(InterferenceModel::Truncated { epsilon: 0.1 })
            .build();
        assert_eq!(p.interference.epsilon(), Some(0.1));
    }

    #[test]
    fn densities() {
        let p = ScenarioParams::builder()
            .num_sus(199)
            .num_pus(25)
            .area_side(50.0)
            .build();
        assert!((p.pu_density() - 0.01).abs() < 1e-12);
        assert!((p.su_density() - 0.08).abs() < 1e-12);
    }

    #[test]
    fn p_t_shortcut_sets_bernoulli() {
        let p = ScenarioParams::builder().p_t(0.45).build();
        assert_eq!(p.activity, PuActivity::bernoulli(0.45).unwrap());
    }

    #[test]
    fn activity_overrides_p_t() {
        let gilbert = PuActivity::gilbert_with_duty_cycle(0.3, 5.0).unwrap();
        let p = ScenarioParams::builder().p_t(0.9).activity(gilbert).build();
        assert_eq!(p.activity, gilbert);
    }

    #[test]
    #[should_panic(expected = "invalid p_t")]
    fn bad_p_t_panics_at_build() {
        let _ = ScenarioParams::builder().p_t(1.5).build();
    }
}
