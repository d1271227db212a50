//! Numerically validates the paper's analytical results (Theorem 1,
//! Lemma 8, Theorem 2) against simulated ADDC runs: observed per-packet
//! service times and total collection delay must sit below the bounds,
//! and the achieved capacity above the Theorem 2 lower bound.
//!
//! Usage: `cargo run -p crn-bench --release --bin validate-bounds --
//! [--preset tiny|scaled] [--reps 5]`

use crn_bench::take_flag;
use crn_core::{CollectionAlgorithm, Scenario};
use crn_workloads::{presets, PresetKind};

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let preset: PresetKind = take_flag(&mut args, "--preset")
        .map_or(PresetKind::Tiny, |s| s.parse().expect("valid preset"));
    let reps: u32 = take_flag(&mut args, "--reps").map_or(5, |s| s.parse().expect("number"));

    let base = presets::base_params(preset);
    println!(
        "## Theorem validation [{preset} preset: n = {}, N = {}, A = {}², p_t = {}]\n",
        base.num_sus,
        base.num_pus,
        base.area_side,
        base.activity.duty_cycle()
    );
    println!("| rep | Δ | Δ_b | service max (slots) | Thm-1 bound | delay (slots) | Thm-2 bound | capacity | Thm-2 cap. lower |");
    println!("|---|---|---|---|---|---|---|---|---|");

    let mut all_hold = true;
    for rep in 0..reps {
        let mut params = base.clone();
        params.seed = u64::from(rep) * 7919 + 13;
        let scenario = Scenario::generate(&params).expect("connected scenario");
        let tree = scenario.tree(CollectionAlgorithm::Addc).expect("cds tree");
        let outcome = scenario.run(CollectionAlgorithm::Addc).expect("run");
        let r = &outcome.report;
        let bounds = scenario.delay_bounds().expect("positive p_o");

        let service_slots = r.max_service_time / params.mac.slot;
        let t1_ok = service_slots <= bounds.theorem1_service_slots;
        let t2_ok = r.delay_slots <= bounds.theorem2_delay_slots;
        let cap_ok = r.capacity_fraction() >= bounds.capacity_fraction_lower;
        all_hold &= t1_ok && t2_ok && cap_ok && r.finished;

        println!(
            "| {rep} | {} | {} | {:.0}{} | {:.0} | {:.0}{} | {:.0} | {:.4}{} | {:.5} |",
            tree.max_degree(),
            tree.root_degree(),
            service_slots,
            mark(t1_ok),
            bounds.theorem1_service_slots,
            r.delay_slots,
            mark(t2_ok),
            bounds.theorem2_delay_slots,
            r.capacity_fraction(),
            mark(cap_ok),
            bounds.capacity_fraction_lower,
        );
    }
    println!(
        "\nall bounds hold: {}",
        if all_hold { "YES" } else { "NO (see ✗ rows)" }
    );
    println!(
        "(✓ = observed within bound; the paper's bounds are worst-case, so \
         large slack is expected.)"
    );
    if !all_hold {
        std::process::exit(1);
    }
}

fn mark(ok: bool) -> &'static str {
    if ok {
        " ✓"
    } else {
        " ✗"
    }
}
