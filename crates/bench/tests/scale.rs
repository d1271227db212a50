//! Release-mode scale smoke tests for the sparse interference engine.
//!
//! These are `#[ignore]`d so the ordinary (debug) `cargo test` stays fast;
//! CI's scale job runs them with
//! `cargo test --release -p crn-bench -- --ignored`.

use crn_bench::synthetic::grid_world;
use crn_sim::{InterferenceModel, MacConfig, Simulator, TraceLog};
use std::sync::Arc;
use std::time::Instant;

#[test]
#[ignore = "release-mode scale smoke test (CI scale job)"]
fn sparse_engine_handles_ten_thousand_sus() {
    let started = Instant::now();
    let world = grid_world(10_000, InterferenceModel::Truncated { epsilon: 0.1 });
    let build = started.elapsed();
    assert_eq!(world.num_sus(), 10_001);
    assert!(
        world.truncation_stats().is_some(),
        "scale world must use sparse tables"
    );
    let mac = MacConfig {
        max_sim_time: 0.1,
        ..MacConfig::default()
    };
    let report = Simulator::builder(world)
        .mac(mac)
        .seed(7)
        .build()
        .unwrap()
        .run();
    assert!(report.attempts > 0, "capped 10k-SU run must make progress");
    eprintln!(
        "n=10000 sparse: built in {:.1} ms, {} attempts in 100 slots",
        build.as_secs_f64() * 1e3,
        report.attempts
    );
}

/// The committed pre-delta-engine sparse throughput at `n = 5000`
/// (`events_per_sec` in `results/BENCH_sim.json` at this change's seed
/// commit). The delta engine must hold a ≥5× floor over it.
const SEED_EVENTS_PER_SEC_N5000: f64 = 1_179_089.0;
const REQUIRED_SPEEDUP: f64 = 5.0;

#[test]
#[ignore = "release-mode throughput regression gate (CI scale job)"]
fn delta_engine_holds_five_x_floor_at_five_thousand_sus() {
    let world = Arc::new(grid_world(
        5_000,
        InterferenceModel::Truncated { epsilon: 0.1 },
    ));
    let mac = MacConfig {
        max_sim_time: 0.2,
        ..MacConfig::default()
    };
    // Mirrors `bench_sim::capped_run` (same seed, probe, and cap), best
    // of five deterministic reruns: host noise can only slow a run
    // down, so the fastest sample is the honest throughput estimate.
    let run = |full_scan: bool| -> f64 {
        let mut best = 0.0f64;
        for _ in 0..5 {
            let sim = Simulator::builder(world.clone())
                .mac(mac)
                .seed(42)
                .full_scan(full_scan)
                .probe(TraceLog::bounded(64))
                .build()
                .unwrap();
            let started = Instant::now();
            let (_, trace) = sim.run_with_probe();
            let wall = started.elapsed().as_secs_f64();
            let events = trace.len() as u64 + trace.dropped();
            best = best.max(events as f64 / wall.max(1e-9));
        }
        best
    };
    let delta = run(false);
    let scan = run(true);
    eprintln!(
        "n=5000 sparse: delta {delta:.0} events/s, scan reference {scan:.0} events/s \
         ({:.1}x in-process), committed seed {SEED_EVENTS_PER_SEC_N5000:.0}",
        delta / scan
    );
    assert!(
        delta >= REQUIRED_SPEEDUP * SEED_EVENTS_PER_SEC_N5000,
        "throughput regression: delta engine ran {delta:.0} events/s, below {REQUIRED_SPEEDUP}x \
         the committed seed baseline of {SEED_EVENTS_PER_SEC_N5000:.0} events/s"
    );
}

/// Best-of-`rounds` construction time: the minimum is the honest estimate
/// of the work itself on a noisy shared box (first-touch page faults and
/// scheduler preemption only ever inflate a round).
fn best_construction_seconds(
    n: usize,
    model: InterferenceModel,
    rounds: usize,
) -> (f64, crn_sim::SimWorld) {
    let mut best = f64::INFINITY;
    let mut world = None;
    for _ in 0..rounds {
        let started = Instant::now();
        let w = grid_world(n, model);
        best = best.min(started.elapsed().as_secs_f64());
        world = Some(w);
    }
    (best, world.expect("rounds >= 1"))
}

#[test]
#[ignore = "release-mode scale smoke test (CI scale job)"]
fn sparse_beats_dense_at_five_thousand_sus() {
    let (dense_build, dense) = best_construction_seconds(5_000, InterferenceModel::Exact, 3);
    let (sparse_build, sparse) =
        best_construction_seconds(5_000, InterferenceModel::Truncated { epsilon: 0.1 }, 3);
    eprintln!(
        "n=5000 construction: dense {:.1} ms / {} B, sparse {:.1} ms / {} B",
        dense_build * 1e3,
        dense.gain_table_bytes(),
        sparse_build * 1e3,
        sparse.gain_table_bytes()
    );
    assert!(
        dense.gain_table_bytes() >= 10 * sparse.gain_table_bytes(),
        "sparse tables must be ≥10× smaller: dense {} B vs sparse {} B",
        dense.gain_table_bytes(),
        sparse.gain_table_bytes()
    );
    assert!(
        dense_build >= 5.0 * sparse_build,
        "sparse construction must be ≥5× faster: dense {dense_build:.3}s vs sparse {sparse_build:.3}s"
    );
}
