//! Numeric validation of the paper's analysis (Lemmas 5–8, Theorems 1–2)
//! against simulated runs — the integration-level counterpart of the
//! `validate-bounds` harness.

use crn::core::{CollectionAlgorithm, Scenario, ScenarioParams};
use crn::theory;

#[test]
fn theorem_bounds_hold_across_seeds() {
    for seed in 0..4 {
        let params = ScenarioParams::builder()
            .num_sus(100)
            .num_pus(10)
            .area_side(58.0)
            .p_t(0.3)
            .seed(seed)
            .max_connectivity_attempts(2000)
            .build();
        let scenario = Scenario::generate(&params).unwrap();
        let bounds = scenario.delay_bounds().unwrap();
        let o = scenario.run(CollectionAlgorithm::Addc).unwrap();
        assert!(o.report.finished, "seed {seed}");

        let service_slots = o.report.max_service_time / params.mac.slot;
        assert!(
            service_slots <= bounds.theorem1_service_slots,
            "seed {seed}: Theorem 1 violated: {service_slots} > {}",
            bounds.theorem1_service_slots
        );
        assert!(
            o.report.delay_slots <= bounds.theorem2_delay_slots,
            "seed {seed}: Theorem 2 violated: {} > {}",
            o.report.delay_slots,
            bounds.theorem2_delay_slots
        );
        assert!(
            o.report.capacity_fraction() >= bounds.capacity_fraction_lower,
            "seed {seed}: capacity bound violated"
        );
    }
}

#[test]
fn lemma5_and_lemma6_bound_observed_pcr_populations() {
    let params = ScenarioParams::builder()
        .num_sus(150)
        .num_pus(10)
        .area_side(70.0)
        .seed(11)
        .max_connectivity_attempts(2000)
        .build();
    let scenario = Scenario::generate(&params).unwrap();
    let tree = scenario.tree(CollectionAlgorithm::Addc).unwrap();
    let graph = scenario.graph();
    let kappa = scenario.pcr() / params.phy.su_radius();

    let lemma5 = theory::lemma5_cds_nodes_in_pcr(kappa);
    let lemma6 = theory::lemma6_sus_in_pcr(kappa, tree.max_degree());
    for u in 0..graph.len() as u32 {
        let center = graph.position(u);
        let mut cds_count = 0.0;
        let mut su_count = 0.0;
        for v in 0..graph.len() as u32 {
            if graph.position(v).within(center, scenario.pcr()) {
                su_count += 1.0;
                if let Some(crn::topology::Role::Dominator | crn::topology::Role::Connector) =
                    tree.role(v)
                {
                    cds_count += 1.0;
                }
            }
        }
        assert!(
            cds_count <= lemma5,
            "node {u}: {cds_count} CDS nodes > {lemma5}"
        );
        assert!(su_count <= lemma6, "node {u}: {su_count} SUs > {lemma6}");
    }
}

#[test]
fn observed_tree_degree_within_lemma6_whp_bound() {
    // The w.h.p. bound on Δ itself — check it on several instances.
    for seed in 0..5 {
        let params = ScenarioParams::builder()
            .num_sus(200)
            .num_pus(5)
            .area_side(80.0)
            .seed(seed)
            .max_connectivity_attempts(2000)
            .build();
        let scenario = Scenario::generate(&params).unwrap();
        let tree = scenario.tree(CollectionAlgorithm::Addc).unwrap();
        let c0 = params.area_side * params.area_side / params.num_sus as f64;
        let bound = theory::lemma6_delta_bound(params.num_sus, params.phy.su_radius(), c0);
        assert!(
            (tree.max_degree() as f64) <= bound,
            "seed {seed}: Δ = {} exceeds the w.h.p. bound {bound:.1}",
            tree.max_degree()
        );
    }
}

#[test]
fn analytic_p_o_tracks_empirical_waits_in_order_of_magnitude() {
    // The expected per-hop service (from Lemma 7's p_o) and the simulated
    // mean service should stay within one order of magnitude.
    let params = ScenarioParams::builder()
        .num_sus(120)
        .num_pus(14)
        .area_side(65.0)
        .p_t(0.3)
        .seed(21)
        .max_connectivity_attempts(2000)
        .build();
    let scenario = Scenario::generate(&params).unwrap();
    let bounds = scenario.delay_bounds().unwrap();
    let o = scenario.run(CollectionAlgorithm::Addc).unwrap();
    let mean_service_slots = o.report.mean_service_time / params.mac.slot;
    let analytic_wait = 1.0 / bounds.p_o;
    let ratio = mean_service_slots / analytic_wait;
    assert!(
        (0.1..=100.0).contains(&ratio),
        "service {mean_service_slots:.1} slots vs analytic wait {analytic_wait:.1}: ratio {ratio}"
    );
}
