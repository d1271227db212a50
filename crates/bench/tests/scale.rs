//! Release-mode scale smoke tests for the sparse interference engine.
//!
//! These are `#[ignore]`d so the ordinary (debug) `cargo test` stays fast;
//! CI's scale job runs them with
//! `cargo test --release -p crn-bench -- --ignored`.

use crn_bench::synthetic::{grid_radio, grid_topology, grid_world};
use crn_interference::PhyParams;
use crn_sim::{InterferenceModel, MacConfig, RadioParams, SimWorld, Simulator, TraceLog};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

/// Tests in one binary run on parallel threads; each test here times
/// something, and holds this lock so that no other test's work shares the
/// cores with it.
static TIME: Mutex<()> = Mutex::new(());

/// Takes [`TIME`]. It guards no data, so a test that failed while holding
/// it leaves nothing to repair.
fn time_alone() -> MutexGuard<'static, ()> {
    TIME.lock().unwrap_or_else(PoisonError::into_inner)
}

#[test]
#[ignore = "release-mode scale smoke test (CI scale job)"]
fn sparse_engine_handles_ten_thousand_sus() {
    let _guard = time_alone();
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

/// The throughput the delta engine must hold over the Scan path, both
/// measured in this process on the same world, seed and cap.
const REQUIRED_SPEEDUP: f64 = 5.0;

#[test]
#[ignore = "release-mode throughput regression gate (CI scale job)"]
fn delta_engine_holds_five_x_floor_at_five_thousand_sus() {
    let _guard = time_alone();
    let world = Arc::new(grid_world(
        5_000,
        InterferenceModel::Truncated { epsilon: 0.1 },
    ));
    let mac = MacConfig {
        max_sim_time: 0.2,
        ..MacConfig::default()
    };
    // Mirrors `bench_sim::capped_run` (same seed, probe, and cap). Both
    // paths run the same events, so each run's rate compares the engines
    // alone; the runs alternate, so drift on a shared host reaches both
    // medians alike.
    let run = |full_scan: bool| -> (u64, f64) {
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
        (events, events as f64 / wall.max(1e-9))
    };
    let (mut delta, mut scan) = (Vec::new(), Vec::new());
    for _ in 0..5 {
        let (delta_events, delta_rate) = run(false);
        let (scan_events, scan_rate) = run(true);
        assert_eq!(delta_events, scan_events, "the paths ran different events");
        delta.push(delta_rate);
        scan.push(scan_rate);
    }
    let median = |rates: &mut Vec<f64>| {
        rates.sort_by(f64::total_cmp);
        rates[rates.len() / 2]
    };
    let (delta, scan) = (median(&mut delta), median(&mut scan));
    eprintln!(
        "n=5000 sparse: delta median {delta:.0} events/s, scan median {scan:.0} events/s \
         ({:.2}x in-process)",
        delta / scan
    );
    assert!(
        delta >= REQUIRED_SPEEDUP * scan,
        "throughput regression: the delta engine's median {delta:.0} events/s is below \
         {REQUIRED_SPEEDUP}x the Scan path's median {scan:.0} events/s"
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
    let _guard = time_alone();
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

/// How much grid-world customization may cost per unit of work at 4n
/// against n (ROADMAP item 4): a linear-time build keeps the ratio near
/// 1, while a per-(slot, PU) pass grows it with n.
const MAX_COST_GROWTH: f64 = 1.5;

/// The grid world's customization under `radio` at n = 10,000 and at
/// 40,000: per size, µs per SU (a median of 3 samples) and gain-table
/// bytes per SU.
fn customization_cost(radio: RadioParams) -> [(f64, f64); 2] {
    let sizes = [10_000usize, 40_000];
    let topologies = sizes.map(|n| Arc::new(grid_topology(n)));
    // A sample builds a size's world until it has built 40,000 SUs (the
    // small world four times), so samples of both sizes do the same work
    // and last about as long: a single 0.1 s build on a shared host
    // wanders by a third. The sizes alternate round by round, so load
    // from a tenant falls on both alike; each figure is a median of 3
    // samples.
    let mut seconds = [Vec::new(), Vec::new()];
    let mut bytes = [0usize; 2];
    for _ in 0..3 {
        for (i, topology) in topologies.iter().enumerate() {
            let started = Instant::now();
            for _ in 0..sizes[1] / sizes[i] {
                let world = SimWorld::new(topology.clone(), radio).expect("valid grid");
                bytes[i] = world.gain_table_bytes();
                drop(world);
            }
            seconds[i].push(started.elapsed().as_secs_f64());
        }
    }
    [0, 1].map(|i| {
        seconds[i].sort_by(f64::total_cmp);
        (
            seconds[i][1] * 1e6 / sizes[1] as f64,
            bytes[i] as f64 / sizes[i] as f64,
        )
    })
}

#[test]
#[ignore = "release-mode scale gate (CI scale job)"]
fn sparse_customization_cost_per_su_grows_at_most_half_from_n_to_4n() {
    let _guard = time_alone();
    let [(small, _), (large, _)] =
        customization_cost(grid_radio(InterferenceModel::Truncated { epsilon: 0.1 }));
    eprintln!(
        "sparse customization: {small:.1} us/SU at n = 10000, {large:.1} us/SU at n = 40000 \
         ({:.2}x)",
        large / small
    );
    assert!(
        large <= MAX_COST_GROWTH * small,
        "customization is not linear: {large:.1} us/SU at n = 40000 against {small:.1} at \
         n = 10000 (more than {MAX_COST_GROWTH}x)"
    );
}

/// How much the gain tables may grow per SU from n = 10,000 to 40,000 at
/// `P_p` 100, `P_s` 1. There every slot climbs its PU ladder to rung 3,
/// serving every PU within 8 cutoffs (about 520 units): that disk covers
/// most of the 10,000-SU world (side 700) but under half of the
/// 40,000-SU one (side 1,400), so a slot serves about 1.5 times as many
/// PUs at 40,000. A slot that served every PU would serve 4 times as
/// many.
const MAX_BYTES_PER_SU_GROWTH: f64 = 2.0;

/// The same gate at a PU power 100 times the SU power, where every slot
/// serves PUs past its cutoff. The rung its budget needs serves more PUs
/// per slot at 40,000 SUs than at 10,000 (see
/// [`MAX_BYTES_PER_SU_GROWTH`]), so its cost per SU grows with them by
/// geometry: the gate holds the cost per byte of the tables built, which
/// a build linear in its output keeps flat and a per-slot fold over every
/// PU grows with n, and bounds the bytes per SU, which a ladder that
/// climbs past the rung a slot needs grows.
#[test]
#[ignore = "release-mode scale gate (CI scale job)"]
fn sparse_customization_cost_per_table_byte_holds_at_the_pulling_budget() {
    let _guard = time_alone();
    let radio = grid_radio(InterferenceModel::Truncated { epsilon: 0.1 });
    let phy = radio.phy;
    let mut b = PhyParams::builder();
    b.alpha(phy.alpha())
        .pu_power(100.0)
        .su_power(1.0)
        .pu_radius(phy.pu_radius())
        .su_radius(phy.su_radius())
        .pu_sir_threshold(phy.pu_sir_threshold())
        .su_sir_threshold(phy.su_sir_threshold());
    let pulling = radio.phy(b.build().expect("valid powers"));
    let [(small_su, small_b), (large_su, large_b)] = customization_cost(pulling);
    let (small, large) = (1e3 * small_su / small_b, 1e3 * large_su / large_b);
    eprintln!(
        "sparse customization at P_p 100, P_s 1: {small_su:.1} us/SU, {small_b:.0} B/SU and \
         {small:.2} ns/B at n = 10000; {large_su:.1} us/SU, {large_b:.0} B/SU and {large:.2} \
         ns/B at n = 40000 ({:.2}x per SU, {:.2}x B/SU, {:.2}x per byte)",
        large_su / small_su,
        large_b / small_b,
        large / small
    );
    assert!(
        large_b <= MAX_BYTES_PER_SU_GROWTH * small_b,
        "gain tables at P_p 100, P_s 1 grew from {small_b:.0} B/SU at n = 10000 to \
         {large_b:.0} at n = 40000 (more than {MAX_BYTES_PER_SU_GROWTH}x)"
    );
    assert!(
        large <= MAX_COST_GROWTH * small,
        "customization at P_p 100, P_s 1 is not linear in its tables: {large:.2} ns/B at \
         n = 40000 against {small:.2} at n = 10000 (more than {MAX_COST_GROWTH}x)"
    );
}
