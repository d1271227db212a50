use crn_core::{CollectionAlgorithm, ScenarioParams};
use crn_interference::PhyParams;
use std::fmt;

/// Which scenario parameter a sweep varies — one per Fig. 6 panel.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum AxisKind {
    /// Panel (a): number of PUs `N`.
    NumPus,
    /// Panel (b): number of SUs `n`.
    NumSus,
    /// Panel (c): PU activity probability `p_t`.
    Pt,
    /// Panel (d): path-loss exponent `α`.
    Alpha,
    /// Panel (e): PU transmit power `P_p`.
    PuPower,
    /// Panel (f): SU transmit power `P_s`.
    SuPower,
    /// Fault study: churn rate (expected crashes per 1000 slots). Sets
    /// `params.faults` to a [`crn_sim::ChurnSpec`] with paper-scale
    /// downtime/horizon defaults; the per-point master seed then resolves
    /// it into a concrete crash/recover script at run time.
    ChurnRate,
}

impl AxisKind {
    /// Short label used in tables (`N`, `n`, `p_t`, ...).
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            AxisKind::NumPus => "N",
            AxisKind::NumSus => "n",
            AxisKind::Pt => "p_t",
            AxisKind::Alpha => "alpha",
            AxisKind::PuPower => "P_p",
            AxisKind::SuPower => "P_s",
            AxisKind::ChurnRate => "churn",
        }
    }

    /// Whether moving along this axis changes the deployment structure
    /// ([`ScenarioParams::topology_key`]). Node-count axes resample the
    /// world; everything else — activity, path loss, powers, churn — only
    /// re-customizes the radio layer, so a sweep can share one generated
    /// [`crn_core::Scenario`] per repetition across every value
    /// (`Scenario::recustomized`).
    #[must_use]
    pub fn varies_topology(self) -> bool {
        match self {
            AxisKind::NumPus | AxisKind::NumSus => true,
            AxisKind::Pt
            | AxisKind::Alpha
            | AxisKind::PuPower
            | AxisKind::SuPower
            | AxisKind::ChurnRate => false,
        }
    }
}

impl fmt::Display for AxisKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// A swept parameter and its values (counts are carried as `f64` and
/// rounded on application).
#[derive(Clone, Debug, PartialEq)]
pub struct Axis {
    /// Which parameter varies.
    pub kind: AxisKind,
    /// The sweep values, in presentation order.
    pub values: Vec<f64>,
}

impl Axis {
    /// Creates an axis.
    #[must_use]
    pub fn new(kind: AxisKind, values: Vec<f64>) -> Self {
        Self { kind, values }
    }

    /// Returns `base` with this axis set to `value`, or a message naming
    /// the value when it is invalid for the axis.
    ///
    /// # Errors
    ///
    /// Rejects negative PU counts, SU counts below 1, `p_t ∉ [0,1]`,
    /// `α ≤ 2`, non-positive powers and negative churn rates.
    pub fn try_apply(&self, base: &ScenarioParams, value: f64) -> Result<ScenarioParams, String> {
        let mut params = base.clone();
        match self.kind {
            AxisKind::NumPus if value >= 0.0 => params.num_pus = value.round() as usize,
            AxisKind::NumPus => return Err(format!("N must be non-negative, got {value}")),
            AxisKind::NumSus if value >= 1.0 => params.num_sus = value.round() as usize,
            AxisKind::NumSus => return Err(format!("n must be at least 1, got {value}")),
            AxisKind::Pt => {
                params.activity = crn_spectrum::PuActivity::bernoulli(value)
                    .map_err(|e| format!("bad p_t on axis: {e}"))?;
            }
            AxisKind::Alpha => {
                params.phy = rebuild_phy(&base.phy, |b| {
                    b.alpha(value);
                })?;
            }
            AxisKind::PuPower => {
                params.phy = rebuild_phy(&base.phy, |b| {
                    b.pu_power(value);
                })?;
            }
            AxisKind::SuPower => {
                params.phy = rebuild_phy(&base.phy, |b| {
                    b.su_power(value);
                })?;
            }
            AxisKind::ChurnRate => {
                let spec = crn_sim::ChurnSpec::new(value)
                    .map_err(|e| format!("bad churn rate on axis: {e}"))?;
                params.faults = crn_sim::FaultsConfig::Churn(spec);
            }
        }
        Ok(params)
    }

    /// Returns `base` with this axis set to `value`.
    ///
    /// # Panics
    ///
    /// Panics with [`Axis::try_apply`]'s message if `value` is invalid
    /// for the axis.
    #[must_use]
    pub fn apply(&self, base: &ScenarioParams, value: f64) -> ScenarioParams {
        self.try_apply(base, value)
            .unwrap_or_else(|e| panic!("{e}"))
    }
}

/// Rebuilds a [`PhyParams`] with one field changed.
fn rebuild_phy(
    base: &PhyParams,
    tweak: impl FnOnce(&mut crn_interference::PhyParamsBuilder),
) -> Result<PhyParams, String> {
    let mut b = PhyParams::builder();
    b.alpha(base.alpha())
        .pu_power(base.pu_power())
        .su_power(base.su_power())
        .pu_radius(base.pu_radius())
        .su_radius(base.su_radius())
        .pu_sir_threshold(base.pu_sir_threshold())
        .su_sir_threshold(base.su_sir_threshold());
    tweak(&mut b);
    b.build().map_err(|e| format!("invalid swept phy: {e}"))
}

/// One figure panel as an executable sweep: a base parameter set, an axis,
/// the algorithms to compare, and a repetition count (the paper uses 10).
#[derive(Clone, Debug, PartialEq)]
pub struct SweepSpec {
    /// Figure identifier (e.g. `"fig6a"`), carried into records.
    pub figure: String,
    /// Base scenario parameters the axis perturbs.
    pub base: ScenarioParams,
    /// The swept parameter.
    pub axis: Axis,
    /// Algorithms run on each generated scenario.
    pub algorithms: Vec<CollectionAlgorithm>,
    /// Repetitions per point; each uses deployment seed `base.seed + rep`.
    pub reps: u32,
}

/// One concrete unit of work: a fully resolved parameter set, one
/// algorithm, one repetition.
#[derive(Clone, Debug, PartialEq)]
pub struct Job {
    /// Figure identifier.
    pub figure: String,
    /// Axis label (`N`, `p_t`, ...).
    pub x_name: &'static str,
    /// Axis value.
    pub x: f64,
    /// Fully resolved parameters (seed already includes the repetition).
    pub params: ScenarioParams,
    /// Algorithm to run.
    pub algorithm: CollectionAlgorithm,
    /// Repetition index.
    pub rep: u32,
}

impl SweepSpec {
    /// Expands the spec into concrete jobs: `values × reps × algorithms`,
    /// with the two algorithms of a `(value, rep)` pair sharing a
    /// deployment seed so comparisons are paired (as in the paper).
    ///
    /// Ordering and seeding follow the axis's relationship to the
    /// topology ([`AxisKind::varies_topology`]):
    ///
    /// - **Topology axes** (`N`, `n`) mix the value into the deployment
    ///   seed (each point samples its own world) and iterate values
    ///   outermost.
    /// - **Radio axes** (everything else) use `base.seed + rep` — every
    ///   value of a repetition shares one deployment, making comparisons
    ///   along the axis paired as well — and iterate repetitions
    ///   outermost, so the jobs of one repetition form a contiguous run
    ///   of `values × algorithms` entries that [`crate::run_sweep`] can
    ///   serve from a single generated scenario via
    ///   [`crn_core::Scenario::recustomized`].
    #[must_use]
    pub fn jobs(&self) -> Vec<Job> {
        let mut out = Vec::new();
        let mut push = |x: f64, rep: u32, params: &ScenarioParams| {
            for &algorithm in &self.algorithms {
                out.push(Job {
                    figure: self.figure.clone(),
                    x_name: self.axis.kind.label(),
                    x,
                    params: params.clone(),
                    algorithm,
                    rep,
                });
            }
        };
        if self.axis.kind.varies_topology() {
            for &x in &self.axis.values {
                for rep in 0..self.reps {
                    let mut params = self.axis.apply(&self.base, x);
                    params.seed = self
                        .base
                        .seed
                        .wrapping_add(u64::from(rep))
                        .wrapping_add((x.to_bits() >> 17) ^ x.to_bits());
                    push(x, rep, &params);
                }
            }
        } else {
            for rep in 0..self.reps {
                for &x in &self.axis.values {
                    let mut params = self.axis.apply(&self.base, x);
                    params.seed = self.base.seed.wrapping_add(u64::from(rep));
                    push(x, rep, &params);
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crn_core::CollectionAlgorithm::{Addc, Coolest};

    fn base() -> ScenarioParams {
        ScenarioParams::builder()
            .num_sus(50)
            .num_pus(10)
            .area_side(45.0)
            .build()
    }

    fn spec(kind: AxisKind, values: Vec<f64>) -> SweepSpec {
        SweepSpec {
            figure: "test".into(),
            base: base(),
            axis: Axis::new(kind, values),
            algorithms: vec![Addc, Coolest],
            reps: 3,
        }
    }

    #[test]
    fn jobs_cross_product() {
        let s = spec(AxisKind::NumPus, vec![5.0, 10.0]);
        let jobs = s.jobs();
        assert_eq!(jobs.len(), 2 * 3 * 2);
    }

    #[test]
    fn paired_algorithms_share_seed() {
        let s = spec(AxisKind::Pt, vec![0.2]);
        let jobs = s.jobs();
        let addc: Vec<_> = jobs.iter().filter(|j| j.algorithm == Addc).collect();
        let cool: Vec<_> = jobs.iter().filter(|j| j.algorithm == Coolest).collect();
        for (a, c) in addc.iter().zip(&cool) {
            assert_eq!(a.rep, c.rep);
            assert_eq!(a.params.seed, c.params.seed);
        }
    }

    #[test]
    fn different_reps_have_different_seeds() {
        let s = spec(AxisKind::Pt, vec![0.2]);
        let jobs = s.jobs();
        let seeds: std::collections::HashSet<u64> = jobs
            .iter()
            .filter(|j| j.algorithm == Addc)
            .map(|j| j.params.seed)
            .collect();
        assert_eq!(seeds.len(), 3);
    }

    #[test]
    fn topology_axes_resample_the_deployment_per_x() {
        let s = spec(AxisKind::NumPus, vec![5.0, 10.0]);
        let seeds: std::collections::HashSet<u64> = s
            .jobs()
            .iter()
            .filter(|j| j.rep == 0 && j.algorithm == Addc)
            .map(|j| j.params.seed)
            .collect();
        assert_eq!(seeds.len(), 2, "each N samples its own world");
    }

    #[test]
    fn radio_axes_share_one_topology_per_rep() {
        let s = spec(AxisKind::Pt, vec![0.2, 0.3]);
        let jobs = s.jobs();
        for rep in 0..s.reps {
            let keys: std::collections::HashSet<u64> = jobs
                .iter()
                .filter(|j| j.rep == rep)
                .map(|j| j.params.topology_key())
                .collect();
            assert_eq!(keys.len(), 1, "rep {rep} must share one deployment");
        }
        // Reps still differ from each other.
        let rep_keys: std::collections::HashSet<u64> =
            jobs.iter().map(|j| j.params.topology_key()).collect();
        assert_eq!(rep_keys.len(), s.reps as usize);
        // And radio-axis repetitions are contiguous: one run of
        // values × algorithms jobs per rep (what the runner's super-group
        // claiming relies on).
        let group = s.axis.values.len() * s.algorithms.len();
        for (i, j) in jobs.iter().enumerate() {
            assert_eq!(j.rep, (i / group) as u32, "job {i} out of rep order");
        }
    }

    #[test]
    fn num_pus_axis_applies() {
        let s = spec(AxisKind::NumPus, vec![25.0]);
        assert_eq!(s.jobs()[0].params.num_pus, 25);
    }

    #[test]
    fn num_sus_axis_applies() {
        let s = spec(AxisKind::NumSus, vec![80.0]);
        assert_eq!(s.jobs()[0].params.num_sus, 80);
    }

    #[test]
    fn p_t_axis_applies() {
        let s = spec(AxisKind::Pt, vec![0.4]);
        assert_eq!(s.jobs()[0].params.activity.duty_cycle(), 0.4);
    }

    #[test]
    fn alpha_axis_applies_preserving_other_fields() {
        let s = spec(AxisKind::Alpha, vec![3.5]);
        let p = &s.jobs()[0].params.phy;
        assert_eq!(p.alpha(), 3.5);
        assert_eq!(p.pu_power(), base().phy.pu_power());
        assert_eq!(p.su_radius(), base().phy.su_radius());
    }

    #[test]
    fn power_axes_apply() {
        let s = spec(AxisKind::PuPower, vec![20.0]);
        assert_eq!(s.jobs()[0].params.phy.pu_power(), 20.0);
        let s = spec(AxisKind::SuPower, vec![15.0]);
        assert_eq!(s.jobs()[0].params.phy.su_power(), 15.0);
    }

    #[test]
    fn churn_axis_applies_and_leaves_the_base_faultless() {
        let s = spec(AxisKind::ChurnRate, vec![2.5]);
        assert!(s.base.faults.is_none());
        let job = &s.jobs()[0];
        match &job.params.faults {
            crn_sim::FaultsConfig::Churn(c) => {
                assert_eq!(c.rate_per_1k_slots, 2.5);
                assert_eq!(c.downtime_slots, 50.0);
                assert_eq!(c.horizon_slots, 4000.0);
            }
            other => panic!("expected churn faults, got {other:?}"),
        }
        // Everything else is untouched.
        assert_eq!(job.params.num_sus, s.base.num_sus);
        assert_eq!(job.params.phy, s.base.phy);
    }

    #[test]
    fn churn_axis_pairs_algorithms_on_the_same_workload() {
        // Paired jobs share a seed, and churn resolves from the master
        // seed, so both algorithms at a (rate, rep) point face the same
        // crash script.
        let s = spec(AxisKind::ChurnRate, vec![4.0]);
        let jobs = s.jobs();
        let a = jobs.iter().find(|j| j.algorithm == Addc).unwrap();
        let c = jobs.iter().find(|j| j.algorithm == Coolest).unwrap();
        assert_eq!(a.params.faults, c.params.faults);
        assert_eq!(a.params.seed, c.params.seed);
    }

    #[test]
    fn labels() {
        assert_eq!(AxisKind::NumPus.label(), "N");
        assert_eq!(AxisKind::Alpha.to_string(), "alpha");
        assert_eq!(AxisKind::ChurnRate.label(), "churn");
    }

    fn reject(kind: AxisKind, value: f64) -> String {
        Axis::new(kind, vec![value])
            .try_apply(&base(), value)
            .unwrap_err()
    }

    #[test]
    fn try_apply_rejects_negative_pu_counts() {
        assert_eq!(
            reject(AxisKind::NumPus, -1.0),
            "N must be non-negative, got -1"
        );
        assert_eq!(
            reject(AxisKind::NumPus, f64::NAN),
            "N must be non-negative, got NaN"
        );
    }

    #[test]
    fn try_apply_rejects_su_counts_below_one() {
        assert_eq!(reject(AxisKind::NumSus, 0.0), "n must be at least 1, got 0");
    }

    #[test]
    fn try_apply_rejects_p_t_outside_the_unit_interval() {
        for value in [1.5, -0.1] {
            let e = reject(AxisKind::Pt, value);
            assert!(e.starts_with("bad p_t on axis: "), "{e}");
            assert!(e.contains(&value.to_string()), "{e}");
        }
    }

    #[test]
    fn try_apply_rejects_alpha_at_most_two() {
        let e = reject(AxisKind::Alpha, 2.0);
        assert!(
            e.starts_with("invalid swept phy: path-loss exponent"),
            "{e}"
        );
    }

    #[test]
    fn try_apply_rejects_non_positive_powers() {
        for kind in [AxisKind::PuPower, AxisKind::SuPower] {
            for value in [0.0, -3.0] {
                let e = reject(kind, value);
                assert!(e.starts_with("invalid swept phy: "), "{kind} {value}: {e}");
                assert!(e.contains(&value.to_string()), "{e}");
            }
        }
    }

    #[test]
    fn try_apply_rejects_negative_churn_rates() {
        let e = reject(AxisKind::ChurnRate, -1.0);
        assert!(e.starts_with("bad churn rate on axis: "), "{e}");
    }

    #[test]
    #[should_panic(expected = "bad p_t")]
    fn invalid_p_t_panics() {
        let s = spec(AxisKind::Pt, vec![1.5]);
        let _ = s.jobs();
    }

    #[test]
    #[should_panic(expected = "bad churn rate")]
    fn invalid_churn_rate_panics() {
        let s = spec(AxisKind::ChurnRate, vec![-1.0]);
        let _ = s.jobs();
    }
}
