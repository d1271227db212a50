//! How primary-user behaviour shapes secondary-network performance:
//! sweeps the PU duty cycle (`p_t`) and burstiness (Bernoulli vs Gilbert
//! at equal duty), and compares observed delays against the paper's
//! Lemma 7 / Theorem 2 expectations.
//!
//! ```text
//! cargo run --release --example duty_cycle_study
//! ```

use crn::core::{CollectionAlgorithm, Scenario, ScenarioParams};
use crn::spectrum::{opportunity, PuActivity};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let base = ScenarioParams::builder()
        .num_sus(150)
        .num_pus(16)
        .area_side(70.0)
        .seed(7)
        .max_connectivity_attempts(2000)
        .build();

    println!("## Delay vs PU duty cycle (Bernoulli, paper model)\n");
    println!("| p_t | analytic p_o | expected wait (slots) | ADDC delay (slots) |");
    println!("|---|---|---|---|");
    let mut last_delay = 0.0;
    for p_t in [0.05, 0.15, 0.25, 0.35, 0.45] {
        let mut params = base.clone();
        params.activity = PuActivity::bernoulli(p_t)?;
        let scenario = Scenario::generate(&params)?;
        let outcome = scenario.run(CollectionAlgorithm::Addc)?;
        let p_o = opportunity::expected_probability(p_t, params.pu_density(), scenario.pcr());
        println!(
            "| {p_t} | {:.4} | {:.1} | {:.0} |",
            p_o,
            opportunity::expected_wait_slots(p_o),
            outcome.report.delay_slots
        );
        last_delay = outcome.report.delay_slots;
    }
    println!("\n(The paper's Fig. 6(c): delay grows sharply with p_t.)\n");

    println!("## Burstiness at fixed duty cycle 0.3\n");
    println!("| PU model | ADDC delay (slots) | PU handoffs |");
    println!("|---|---|---|");
    for (name, activity) in [
        ("Bernoulli (i.i.d. slots)", PuActivity::bernoulli(0.3)?),
        (
            "Gilbert, mean burst 5 slots",
            PuActivity::gilbert_with_duty_cycle(0.3, 5.0)?,
        ),
        (
            "Gilbert, mean burst 20 slots",
            PuActivity::gilbert_with_duty_cycle(0.3, 20.0)?,
        ),
    ] {
        let mut params = base.clone();
        params.activity = activity;
        let scenario = Scenario::generate(&params)?;
        let outcome = scenario.run(CollectionAlgorithm::Addc)?;
        println!(
            "| {name} | {:.0} | {} |",
            outcome.report.delay_slots, outcome.report.pu_aborts
        );
    }

    // Situate the last Bernoulli run against Theorem 2's worst-case bound.
    let mut params = base.clone();
    params.activity = PuActivity::bernoulli(0.45)?;
    let bounds = Scenario::generate(&params)?.delay_bounds()?;
    println!(
        "\nTheorem 2 bound at p_t = 0.45: {:.0} slots (observed {last_delay:.0} — \
         the bound is worst-case and holds with slack)",
        bounds.theorem2_delay_slots
    );
    Ok(())
}
