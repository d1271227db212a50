//! Oracle fuzz suite: random scenarios run under the live
//! [`InvariantChecker`] for both collection algorithms × both
//! interference models, plus a fixed seed corpus replayed verbatim so CI
//! catches regressions on a stable set of runs (pin the sampled cases
//! too by exporting `PROPTEST_RNG_SEED`).
//!
//! An end-to-end injected-bug test proves the oracle actually bites: an
//! engine that skips the fairness wait is caught on its first round.

use crn::core::{CollectionAlgorithm, Scenario, ScenarioParams};
use crn::sim::{InterferenceModel, InvariantChecker, MacConfig, Simulator, Traffic};
use proptest::prelude::*;

const ALGORITHMS: [CollectionAlgorithm; 2] =
    [CollectionAlgorithm::Addc, CollectionAlgorithm::Coolest];
const MODELS: [InterferenceModel; 2] = [
    InterferenceModel::Exact,
    InterferenceModel::Truncated { epsilon: 0.1 },
];

fn params_for(
    num_sus: usize,
    num_pus: usize,
    p_t: f64,
    seed: u64,
    interference: InterferenceModel,
) -> ScenarioParams {
    // Density as in the paper's connected regime; side from n keeps runs fast.
    let side = (num_sus as f64 / 0.035).sqrt();
    ScenarioParams::builder()
        .num_sus(num_sus)
        .num_pus(num_pus)
        .area_side(side)
        .p_t(p_t)
        .seed(seed)
        .interference(interference)
        .max_connectivity_attempts(3000)
        .build()
}

/// Runs `algorithm` over the scenario with the oracle attached and
/// asserts a clean verdict. Returns the number of events audited.
fn assert_clean(scenario: &Scenario, algorithm: CollectionAlgorithm) -> u64 {
    let (outcome, oracle) = scenario
        .run_checked(algorithm)
        .unwrap_or_else(|e| panic!("{algorithm}: {e}"));
    assert!(outcome.report.finished, "{algorithm}: run hit the cap");
    oracle.events_checked()
}

fn arb_world() -> impl Strategy<Value = (usize, usize, f64, u64)> {
    (30usize..=70, 0usize..=8, 0.0f64..=0.4, 0u64..1000)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(13))]

    /// 13 cases × 2 algorithms × 2 interference models = 52 checked runs.
    #[test]
    fn random_scenarios_are_invariant_clean(case in arb_world()) {
        let (num_sus, num_pus, p_t, seed) = case;
        for model in MODELS {
            let params = params_for(num_sus, num_pus, p_t, seed, model);
            let scenario = Scenario::generate(&params).unwrap();
            for algorithm in ALGORITHMS {
                let events = assert_clean(&scenario, algorithm);
                prop_assert!(events > 0, "{algorithm}: oracle saw no events");
            }
        }
    }
}

/// The pinned corpus: every seed in `tests/corpus/oracle_seeds.txt`
/// replays under the oracle for both algorithms × both models. Add the
/// seed of any future oracle-caught bug here so it stays fixed.
#[test]
fn seed_corpus_replays_clean() {
    let corpus = include_str!("corpus/oracle_seeds.txt");
    let seeds: Vec<u64> = corpus
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(|l| l.parse().expect("corpus lines are u64 seeds"))
        .collect();
    assert!(seeds.len() >= 14, "corpus shrank to {}", seeds.len());
    for &seed in &seeds {
        for model in MODELS {
            let params = params_for(50, 6, 0.3, seed, model);
            let scenario = Scenario::generate(&params).unwrap();
            for algorithm in ALGORITHMS {
                assert_clean(&scenario, algorithm);
            }
        }
    }
}

/// Scaled-preset worlds (`crn run --sus 600 --pus 63 --side 140 --pt 0.3
/// --interference truncated:0.1`) whose ADDC runs see a success with its
/// exact SIR just under the threshold, inside the slack the truncation
/// certificate allows. The oracle judges those successes by the receiver
/// slot's certified budget, so the runs replay clean; held to the exact
/// model alone, each of these seeds was a false `concurrent-set`
/// violation.
#[test]
fn truncated_scaled_preset_seeds_replay_clean() {
    for seed in [1, 2, 17] {
        let params = ScenarioParams::builder()
            .num_sus(600)
            .num_pus(63)
            .area_side(140.0)
            .p_t(0.3)
            .seed(seed)
            .interference(InterferenceModel::Truncated { epsilon: 0.1 })
            .build();
        let scenario = Scenario::generate(&params).unwrap();
        assert_clean(&scenario, CollectionAlgorithm::Addc);
    }
}

/// End-to-end injected bug: run the real engine with the fairness wait
/// disabled while the oracle audits against a configuration that
/// promises it — the exact failure mode of a MAC that drops
/// Algorithm 1 line 12. The oracle must flag it.
#[test]
fn injected_fairness_skip_is_caught_end_to_end() {
    let params = params_for(50, 4, 0.2, 9, InterferenceModel::Exact);
    let scenario = Scenario::generate(&params).unwrap();
    let world = scenario.world(CollectionAlgorithm::Addc).unwrap();
    let buggy_mac = MacConfig {
        fairness_wait: false,
        ..params.mac
    };
    let checker = InvariantChecker::new(world.clone(), params.mac).with_repro(9, "injected-bug");
    let (report, oracle) = Simulator::builder(world)
        .mac(buggy_mac)
        .activity(params.activity)
        .seed(9)
        .traffic(Traffic::Snapshot)
        .probe(checker)
        .build()
        .unwrap()
        .run_with_probe();
    assert!(report.finished, "the buggy run still collects");
    let v = oracle
        .first_violation()
        .expect("skipping the fairness wait must be caught");
    assert!(v.detail.contains("fairness"), "{v}");
    assert!(
        v.repro.as_deref().unwrap_or_default().contains("seed=9"),
        "violations carry their reproduction: {v:?}"
    );
}
