//! Paper-scale spot check: the paper's exact Fig. 6 default point
//! (`n = 2000`, `N = 400`, `250×250`, `p_t = 0.3`, `Exact` interference,
//! one snapshot) for ADDC and the Coolest baseline over a range of
//! deployment seeds. Prints one line per run, then the Coolest/ADDC delay
//! ratio over the seeds where both runs finished. Its output is
//! `results/paper_spot.txt`.
//!
//! ```text
//! cargo run --release --example paper_spot                # seeds 0-9
//! cargo run --release --example paper_spot -- --seeds 2   # or 0-4,7
//! ```

use crn::core::{CollectionAlgorithm, Scenario};
use crn::workloads::presets::{self, PresetKind};
use std::io::Write;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let seeds = parse_args(std::env::args().skip(1))?;
    let algorithms = [CollectionAlgorithm::Addc, CollectionAlgorithm::Coolest];
    let mut ratios = Vec::new();
    let mut out = std::io::stdout().lock();
    for seed in seeds {
        let mut params = presets::base_params(PresetKind::Paper);
        params.seed = seed;
        let scenario = Scenario::generate(&params)?;
        let mut delays = Vec::new();
        for algo in algorithms {
            let r = scenario.run(algo)?.report;
            writeln!(
                out,
                "paper-scale seed {seed} {algo:?}: delay_slots {:.0} finished {} attempts {} \
                 successes {} sir {} peakq {}",
                r.delay_slots, r.finished, r.attempts, r.successes, r.sir_failures, r.peak_queue
            )?;
            out.flush()?;
            delays.push(r.finished.then_some(r.delay_slots));
        }
        if let [Some(addc), Some(coolest)] = delays[..] {
            ratios.push((seed, coolest / addc));
        }
    }
    let line: Vec<String> = ratios
        .iter()
        .map(|(seed, r)| format!("{seed}:{r:.2}"))
        .collect();
    writeln!(
        out,
        "ratio Coolest/ADDC per seed (both finished): {}",
        line.join(" ")
    )?;
    let mut sorted: Vec<f64> = ratios.iter().map(|&(_, r)| r).collect();
    sorted.sort_by(f64::total_cmp);
    if let (Some(min), Some(max)) = (sorted.first(), sorted.last()) {
        writeln!(
            out,
            "ratio Coolest/ADDC over {} seeds: median {:.2} quartiles {:.2}-{:.2} range {min:.2}-{max:.2}",
            sorted.len(),
            quantile(&sorted, 0.5),
            quantile(&sorted, 0.25),
            quantile(&sorted, 0.75),
        )?;
    }
    Ok(())
}

/// Linear-interpolation quantile of an ascending, non-empty slice.
fn quantile(sorted: &[f64], q: f64) -> f64 {
    let pos = q * (sorted.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// `--seeds LIST`, where LIST is comma-separated seeds or inclusive
/// `a-b` ranges; defaults to seeds 0-9.
fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Vec<u64>, String> {
    let mut seeds: Vec<u64> = (0..10).collect();
    while let Some(arg) = args.next() {
        if arg != "--seeds" {
            return Err(format!("unknown argument '{arg}' (usage: --seeds 0-9)"));
        }
        let list = args.next().ok_or("--seeds needs a value")?;
        seeds.clear();
        for item in list.split(',') {
            let bad = || format!("bad seed list item '{item}'");
            let (a, b) = item.split_once('-').unwrap_or((item, item));
            let lo: u64 = a.trim().parse().map_err(|_| bad())?;
            let hi: u64 = b.trim().parse().map_err(|_| bad())?;
            if lo > hi {
                return Err(bad());
            }
            seeds.extend(lo..=hi);
        }
    }
    Ok(seeds)
}
