//! Content-addressed identity for scenario runs.
//!
//! A [`ScenarioParams`] value fully determines a simulated run (the
//! deployment stream, the PU activity stream, and every MAC decision all
//! derive from it), so a stable hash of its canonical serialization is a
//! sound cache key: two requests with equal keys would recompute the
//! byte-identical [`crn_sim::SimReport`]. The serve layer
//! (`crn-serve`) keys its result cache and single-flight dedup on this.
//!
//! Stability contract: the canonical form starts with a schema tag
//! (`ck2`), floats are rendered from their IEEE-754 bit patterns (no
//! shortest-float ambiguity, `-0.0 ≠ 0.0`, NaN payloads preserved), and
//! every field of every nested struct is spelled out. Adding a parameter
//! field therefore *must* extend [`canonical_params_string`] — the
//! field-sensitivity test below pins that each existing field feeds the
//! hash.
//!
//! The canonical string is the concatenation of a **topology prefix**
//! (the fields that determine the deployment, the connectivity graph,
//! and the routing structure: counts, area, SU radius, seed, retry
//! budget) and a **radio suffix** (everything a
//! [`crn_sim::SimWorld::recustomize`] can change without rebuilding the
//! structure). [`ScenarioParams::topology_key`] hashes only the prefix,
//! [`ScenarioParams::radio_key`] only the suffix, and
//! [`ScenarioParams::cache_key`] chains the two (FNV-1a composes by
//! chaining), so two parameter sets share a `topology_key` exactly when
//! a cached scenario can be re-customized instead of regenerated.

use crate::ScenarioParams;
use crn_interference::PcrConstants;
use crn_sim::{FaultKind, FaultsConfig, InterferenceModel};
use crn_spectrum::PuActivity;
use std::fmt::Write as _;

/// FNV-1a 64-bit offset basis.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a 64-bit prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a over `bytes`, seeded with `state` (chainable).
#[must_use]
pub fn fnv1a_64(state: u64, bytes: &[u8]) -> u64 {
    let mut h = state;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// Renders a float as its exact bit pattern (`x` prefix, hex).
fn bits(out: &mut String, v: f64) {
    let _ = write!(out, "x{:016x}", v.to_bits());
}

/// The topology prefix of the canonical form: the fields that determine
/// the deployment positions, the `G_s` connectivity graph, and the
/// routing structure — i.e. what [`crate::Scenario`] generation must
/// redo from scratch when they change.
#[must_use]
pub fn canonical_topology_string(p: &ScenarioParams) -> String {
    let mut s = String::with_capacity(96);
    let _ = write!(s, "ck2;sus={};pus={};side=", p.num_sus, p.num_pus);
    bits(&mut s, p.area_side);
    s.push_str(";r=");
    bits(&mut s, p.phy.su_radius());
    let _ = write!(
        s,
        ";seed={};attempts={}",
        p.seed, p.max_connectivity_attempts
    );
    s
}

/// The radio suffix of the canonical form: every field a
/// [`crn_sim::SimWorld::recustomize`] (plus a re-derived sweep/MAC
/// configuration) can absorb without touching the topology.
#[must_use]
pub fn canonical_radio_string(p: &ScenarioParams) -> String {
    let mut s = String::with_capacity(192);
    s.push_str(";phy=");
    for v in [
        p.phy.alpha(),
        p.phy.pu_power(),
        p.phy.su_power(),
        p.phy.pu_radius(),
        p.phy.su_radius(),
        p.phy.pu_sir_threshold(),
        p.phy.su_sir_threshold(),
    ] {
        bits(&mut s, v);
        s.push(',');
    }
    s.push_str(";act=");
    match p.activity {
        PuActivity::Bernoulli { p_t } => {
            s.push_str("bern:");
            bits(&mut s, p_t);
        }
        PuActivity::Gilbert(g) => {
            s.push_str("gilb:");
            bits(&mut s, g.p_on);
            s.push(',');
            bits(&mut s, g.p_off);
        }
    }
    s.push_str(";pcr=");
    s.push_str(match p.pcr_constants {
        PcrConstants::Paper => "paper",
        PcrConstants::Corrected => "corrected",
    });
    s.push_str(";mac=");
    for v in [
        p.mac.slot,
        p.mac.contention_window,
        p.mac.airtime,
        p.mac.max_sim_time,
    ] {
        bits(&mut s, v);
        s.push(',');
    }
    // The 1s stand where an SIR-check switch (receivers always check)
    // and a collision-backoff switch (backoff is always on) once wrote
    // their flags, so every existing key holds.
    let _ = write!(s, "1{}1", u8::from(p.mac.fairness_wait));
    s.push_str(";intf=");
    match p.interference {
        InterferenceModel::Exact => s.push_str("exact"),
        InterferenceModel::Truncated { epsilon } => {
            s.push_str("trunc:");
            bits(&mut s, epsilon);
        }
    }
    s.push_str(";basef=");
    bits(&mut s, p.baseline_su_sense_factor);
    s.push_str(";faults=");
    match &p.faults {
        FaultsConfig::None => s.push_str("none"),
        FaultsConfig::Plan(plan) => {
            s.push_str("plan:");
            for e in plan.events() {
                bits(&mut s, e.time);
                s.push('@');
                s.push_str(e.kind.label());
                match e.kind {
                    FaultKind::SuCrash { su }
                    | FaultKind::SuRecover { su }
                    | FaultKind::SuPause { su }
                    | FaultKind::SuResume { su } => {
                        let _ = write!(s, ":{su}");
                    }
                    FaultKind::LinkDegrade { su, factor } => {
                        let _ = write!(s, ":{su}:");
                        bits(&mut s, factor);
                    }
                    FaultKind::PuRegimeShift { activity } => {
                        s.push(':');
                        match activity {
                            PuActivity::Bernoulli { p_t } => {
                                s.push_str("bern:");
                                bits(&mut s, p_t);
                            }
                            PuActivity::Gilbert(g) => {
                                s.push_str("gilb:");
                                bits(&mut s, g.p_on);
                                s.push(',');
                                bits(&mut s, g.p_off);
                            }
                        }
                    }
                    FaultKind::BrownoutStart | FaultKind::BrownoutEnd => {}
                }
                s.push(';');
            }
        }
        FaultsConfig::Churn(c) => {
            s.push_str("churn:");
            bits(&mut s, c.rate_per_1k_slots);
            s.push(',');
            bits(&mut s, c.downtime_slots);
            s.push(',');
            bits(&mut s, c.horizon_slots);
        }
    }
    s
}

/// The canonical, versioned, byte-stable serialization of `params` that
/// [`ScenarioParams::cache_key`] hashes: the topology prefix followed by
/// the radio suffix. Exposed for diagnostics (the serve layer logs it
/// next to a cache key when asked for a repro).
#[must_use]
pub fn canonical_params_string(p: &ScenarioParams) -> String {
    let mut s = canonical_topology_string(p);
    s.push_str(&canonical_radio_string(p));
    s
}

impl ScenarioParams {
    /// A stable 64-bit content hash of this parameter set (FNV-1a over
    /// [`canonical_params_string`]).
    ///
    /// Equal keys ⇒ equal params ⇒ identical deterministic runs, which is
    /// what makes this usable as a result-cache address. Any single field
    /// change — including the seed and a truncation epsilon — changes the
    /// key (pinned by tests). Equals chaining [`fnv1a_64`] from
    /// [`ScenarioParams::topology_key`]'s state over the radio suffix.
    #[must_use]
    pub fn cache_key(&self) -> u64 {
        fnv1a_64(self.topology_key(), canonical_radio_string(self).as_bytes())
    }

    /// Hash of only the topology-determining fields
    /// ([`canonical_topology_string`]): two parameter sets with equal
    /// `topology_key`s generate byte-identical deployments, graphs, and
    /// structural trees, so a cached scenario for one can be
    /// re-customized (not regenerated) for the other.
    #[must_use]
    pub fn topology_key(&self) -> u64 {
        fnv1a_64(FNV_OFFSET, canonical_topology_string(self).as_bytes())
    }

    /// Hash of only the radio-layer fields ([`canonical_radio_string`]):
    /// together with [`ScenarioParams::topology_key`] it determines
    /// [`ScenarioParams::cache_key`].
    #[must_use]
    pub fn radio_key(&self) -> u64 {
        fnv1a_64(FNV_OFFSET, canonical_radio_string(self).as_bytes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crn_sim::MacConfig;

    fn base() -> ScenarioParams {
        ScenarioParams::builder()
            .num_sus(60)
            .num_pus(12)
            .area_side(45.0)
            .seed(7)
            .build()
    }

    #[test]
    fn equal_params_hash_equal() {
        assert_eq!(base().cache_key(), base().cache_key());
        let clone = base().clone();
        assert_eq!(base().cache_key(), clone.cache_key());
    }

    #[test]
    fn canonical_string_is_versioned_and_deterministic() {
        let s = canonical_params_string(&base());
        assert!(s.starts_with("ck2;"), "{s}");
        assert_eq!(s, canonical_params_string(&base()));
    }

    #[test]
    fn cache_key_is_the_hash_of_the_full_canonical_string() {
        let p = base();
        assert_eq!(
            p.cache_key(),
            fnv1a_64(FNV_OFFSET, canonical_params_string(&p).as_bytes()),
            "the split keys must chain back to the whole-string hash"
        );
    }

    /// Radio-layer fields must leave the topology key alone (that is the
    /// whole point of the split: a radio-only sweep point can reuse a
    /// cached scenario) while still moving the radio and cache keys.
    #[test]
    fn radio_only_changes_preserve_the_topology_key() {
        let b = base();
        let mut variants: Vec<(&str, ScenarioParams)> = Vec::new();
        let mut p = b.clone();
        p.phy = crn_interference::PhyParams::builder()
            .su_power(25.0)
            .build()
            .unwrap();
        variants.push(("phy.su_power", p));
        let mut p = b.clone();
        p.activity = crn_spectrum::PuActivity::bernoulli(0.31).unwrap();
        variants.push(("activity", p));
        let mut p = b.clone();
        p.pcr_constants = PcrConstants::Corrected;
        variants.push(("pcr_constants", p));
        let mut p = b.clone();
        p.mac = MacConfig {
            airtime: 0.4e-3,
            ..p.mac
        };
        variants.push(("mac.airtime", p));
        let mut p = b.clone();
        p.interference = InterferenceModel::Truncated { epsilon: 0.1 };
        variants.push(("interference", p));
        let mut p = b.clone();
        p.baseline_su_sense_factor = 1.5;
        variants.push(("baseline_su_sense_factor", p));
        let mut p = b.clone();
        p.faults = FaultsConfig::Churn(crn_sim::ChurnSpec::new(2.0).unwrap());
        variants.push(("faults", p));

        for (field, p) in &variants {
            assert_eq!(
                p.topology_key(),
                b.topology_key(),
                "{field} is radio-layer and must not move the topology key"
            );
            assert_ne!(p.radio_key(), b.radio_key(), "{field} misses the radio key");
            assert_ne!(p.cache_key(), b.cache_key(), "{field} misses the cache key");
        }
    }

    #[test]
    fn topology_changes_change_the_topology_key() {
        let b = base();
        let mut variants: Vec<(&str, ScenarioParams)> = Vec::new();
        let mut p = b.clone();
        p.num_sus += 1;
        variants.push(("num_sus", p));
        let mut p = b.clone();
        p.num_pus += 1;
        variants.push(("num_pus", p));
        let mut p = b.clone();
        p.area_side += 0.5;
        variants.push(("area_side", p));
        let mut p = b.clone();
        p.seed ^= 1;
        variants.push(("seed", p));
        let mut p = b.clone();
        p.max_connectivity_attempts += 1;
        variants.push(("max_connectivity_attempts", p));
        let mut p = b.clone();
        p.phy = crn_interference::PhyParams::builder()
            .su_radius(12.0)
            .build()
            .unwrap();
        variants.push(("phy.su_radius", p));

        for (field, p) in &variants {
            assert_ne!(
                p.topology_key(),
                b.topology_key(),
                "{field} shapes the deployment and must move the topology key"
            );
            assert_ne!(p.cache_key(), b.cache_key(), "{field} misses the cache key");
        }
    }

    /// Every field — including nested phy/mac/activity fields, the seed,
    /// and the interference epsilon — must feed the key.
    #[test]
    fn any_single_field_change_changes_the_key() {
        let b = base();
        let key = b.cache_key();
        let mut variants: Vec<(&str, ScenarioParams)> = Vec::new();

        let mut p = b.clone();
        p.num_sus += 1;
        variants.push(("num_sus", p));
        let mut p = b.clone();
        p.num_pus += 1;
        variants.push(("num_pus", p));
        let mut p = b.clone();
        p.area_side += 0.5;
        variants.push(("area_side", p));
        let mut p = b.clone();
        p.phy = crn_interference::PhyParams::builder()
            .alpha(4.5)
            .build()
            .unwrap();
        variants.push(("phy.alpha", p));
        let mut p = b.clone();
        p.activity = crn_spectrum::PuActivity::bernoulli(0.31).unwrap();
        variants.push(("activity.p_t", p));
        let mut p = b.clone();
        p.activity = crn_spectrum::PuActivity::gilbert_with_duty_cycle(0.3, 5.0).unwrap();
        variants.push(("activity model", p));
        let mut p = b.clone();
        p.pcr_constants = PcrConstants::Corrected;
        variants.push(("pcr_constants", p));
        let mut p = b.clone();
        p.mac = MacConfig {
            fairness_wait: false,
            ..p.mac
        };
        variants.push(("mac.fairness_wait", p));
        let mut p = b.clone();
        p.mac = MacConfig {
            airtime: 0.4e-3,
            ..p.mac
        };
        variants.push(("mac.airtime", p));
        let mut p = b.clone();
        p.interference = InterferenceModel::Truncated { epsilon: 0.1 };
        variants.push(("interference model", p));
        let mut p = b.clone();
        p.interference = InterferenceModel::Truncated { epsilon: 0.05 };
        variants.push(("interference epsilon", p));
        let mut p = b.clone();
        p.seed ^= 1;
        variants.push(("seed", p));
        let mut p = b.clone();
        p.max_connectivity_attempts += 1;
        variants.push(("max_connectivity_attempts", p));
        let mut p = b.clone();
        p.baseline_su_sense_factor = 1.5;
        variants.push(("baseline_su_sense_factor", p));
        let mut p = b.clone();
        p.faults = FaultsConfig::Churn(crn_sim::ChurnSpec::new(2.0).unwrap());
        variants.push(("faults churn", p));
        let mut p = b.clone();
        p.faults = FaultsConfig::Churn(crn_sim::ChurnSpec::new(3.0).unwrap());
        variants.push(("faults churn rate", p));
        let mut p = b.clone();
        p.faults = FaultsConfig::Plan(crn_sim::FaultPlan::from_events(vec![
            crn_sim::FaultEvent::new(0.05, crn_sim::FaultKind::SuCrash { su: 3 }),
        ]));
        variants.push(("faults plan", p));
        let mut p = b.clone();
        p.faults = FaultsConfig::Plan(crn_sim::FaultPlan::from_events(vec![
            crn_sim::FaultEvent::new(0.05, crn_sim::FaultKind::SuCrash { su: 4 }),
        ]));
        variants.push(("faults plan target", p));
        let mut p = b.clone();
        p.faults = FaultsConfig::Plan(crn_sim::FaultPlan::from_events(vec![
            crn_sim::FaultEvent::new(0.06, crn_sim::FaultKind::SuCrash { su: 3 }),
        ]));
        variants.push(("faults plan time", p));
        let mut p = b.clone();
        p.faults = FaultsConfig::Plan(crn_sim::FaultPlan::from_events(vec![
            crn_sim::FaultEvent::new(0.05, crn_sim::FaultKind::LinkDegrade { su: 3, factor: 0.5 }),
        ]));
        variants.push(("faults plan kind", p));

        let mut seen = vec![key];
        for (field, p) in &variants {
            let k = p.cache_key();
            assert_ne!(k, key, "changing {field} must change the cache key");
            assert!(
                !seen.contains(&k),
                "{field} produced a key colliding with an earlier variant"
            );
            seen.push(k);
        }
    }

    #[test]
    fn distinct_truncation_epsilons_get_distinct_keys() {
        let mut a = base();
        a.interference = InterferenceModel::Truncated { epsilon: 0.1 };
        let mut b = base();
        b.interference = InterferenceModel::Truncated {
            epsilon: 0.1 + 1e-12,
        };
        assert_ne!(a.cache_key(), b.cache_key());
    }

    #[test]
    fn fnv_chains() {
        // Hashing "ab" equals hashing "a" then "b" from the intermediate
        // state — the serve layer relies on this to fold extra context
        // (algorithm, engine version) into a params key.
        let one = fnv1a_64(FNV_OFFSET, b"ab");
        let chained = fnv1a_64(fnv1a_64(FNV_OFFSET, b"a"), b"b");
        assert_eq!(one, chained);
    }
}
