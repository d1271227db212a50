//! Paired-seed equivalence suite for the interference engine.
//!
//! The delta engine (transmitter-indexed reverse-CSR updates over
//! struct-of-arrays active state) must be **bit-identical** to the
//! retained full-scan reference path — and both must be bit-identical to
//! the pre-rewrite engine, whose [`crn_sim::SimReport`]s are pinned as
//! FNV-64 digests in `tests/corpus/engine_reports.txt`. A report can
//! survive a reordering of freeze, resume and abort events unchanged, so
//! the full event stream of every case is pinned too, as an FNV-64
//! digest of its [`TraceLog`] in `tests/corpus/engine_traces.txt`.
//!
//! Four lanes, and two targeted comparisons beside them:
//! 1. `reports_match_pinned_digests` — every corpus case (both
//!    interference models, both sensing configurations, fault-free and
//!    fault-plan runs) hashed against the pre-change digests.
//! 2. `delta_matches_full_scan_reference` — the same corpus run twice,
//!    once on the default engine and once with the full-scan reference
//!    path forced, compared report-for-report.
//! 3. `fuzz_lane_is_oracle_clean` — randomized deployments run under the
//!    fault-aware [`InvariantChecker`] on the delta engine, with the
//!    scan path compared on every draw.
//! 4. `traces_match_pinned_digests` — every corpus case traced on both
//!    SIR paths, each event stream hashed against its pinned digest.
//!
//! `delta_matches_scan_when_one_long_link_widens_the_cells` and
//! `delta_matches_scan_where_slots_serve_past_their_cutoff` compare the
//! two paths on worlds no corpus case builds, and pin nothing.
//!
//! Regenerating the digests (only legitimate when the *intended*
//! behavior changes) rewrites both corpus files:
//! `ENGINE_EQUIV_REGEN=1 cargo test -p crn-sim --test engine_equiv --
//! regen --nocapture`.
//!
//! The world-generation and case-enumeration code below is part of the
//! pinned contract: changing it invalidates the stored digests.

use crn_geometry::{Point, Region};
use crn_interference::{path_gain, PhyParams};
use crn_sim::{
    ChurnSpec, FaultEvent, FaultKind, FaultPlan, FaultSchedule, InterferenceModel,
    InvariantChecker, MacConfig, SimReport, SimWorld, Simulator, TraceLog,
};
use crn_spectrum::PuActivity;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

const DIGEST_PATH: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/corpus/engine_reports.txt"
);

const TRACE_DIGEST_PATH: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/corpus/engine_traces.txt"
);

/// Seeds shared with the oracle corpus at the repository root.
fn corpus_seeds() -> Vec<u64> {
    include_str!("../../../tests/corpus/oracle_seeds.txt")
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(|l| l.parse().expect("corpus seeds are integers"))
        .collect()
}

const FAULT_SEEDS: [u64; 3] = [7, 42, 1999];

/// A jittered grid deployment with chain-to-corner parents and randomly
/// scattered PUs — deterministic in `(cols, seed)`. Jitter is capped at
/// ±1.0 so every tree link stays inside the SU radius (`r = 10`).
fn jitter_world(cols: usize, seed: u64, model: InterferenceModel, su_sense: f64) -> Arc<SimWorld> {
    let spacing = 7.0;
    let side = cols as f64 * spacing + 10.0;
    let mut rng = StdRng::seed_from_u64(seed ^ 0x9e37_79b9_7f4a_7c15);
    let mut sus = Vec::with_capacity(cols * cols);
    let mut parents = Vec::with_capacity(cols * cols);
    for i in 0..cols * cols {
        let (row, col) = (i / cols, i % cols);
        let dx: f64 = rng.gen_range(-1.0..1.0);
        let dy: f64 = rng.gen_range(-1.0..1.0);
        sus.push(Point::new(
            col as f64 * spacing + 5.0 + dx,
            row as f64 * spacing + 5.0 + dy,
        ));
        parents.push(if i == 0 {
            None
        } else if col > 0 {
            Some((i - 1) as u32)
        } else {
            Some((i - cols) as u32)
        });
    }
    let num_pus = cols;
    let pus: Vec<Point> = (0..num_pus)
        .map(|_| {
            let x: f64 = rng.gen_range(0.0..side);
            let y: f64 = rng.gen_range(0.0..side);
            Point::new(x, y)
        })
        .collect();
    Arc::new(
        SimWorld::builder(Region::square(side))
            .su_positions(sus)
            .pu_positions(pus)
            .parents(parents)
            .phy(PhyParams::paper_simulation_defaults())
            .pu_sense_range(25.0)
            .su_sense_range(su_sense)
            .interference(model)
            .build()
            .expect("jitter world is valid"),
    )
}

fn schedule(events: Vec<FaultEvent>) -> FaultSchedule {
    FaultPlan::from_events(events)
        .compile()
        .expect("valid plan")
}

/// Mirrors `tests/corpus/fault_plans/crash_recover.json` in spirit: two
/// staggered crash/recover pairs.
fn crash_recover_plan() -> FaultSchedule {
    schedule(vec![
        FaultEvent::new(0.01, FaultKind::SuCrash { su: 3 }),
        FaultEvent::new(0.02, FaultKind::SuCrash { su: 5 }),
        FaultEvent::new(0.05, FaultKind::SuRecover { su: 3 }),
        FaultEvent::new(0.06, FaultKind::SuRecover { su: 5 }),
    ])
}

/// Mirrors `regime_shift.json`: the PU process heats up, then quiets.
fn regime_shift_plan() -> FaultSchedule {
    schedule(vec![
        FaultEvent::new(
            0.01,
            FaultKind::PuRegimeShift {
                activity: PuActivity::bernoulli(0.9).expect("valid p_t"),
            },
        ),
        FaultEvent::new(
            0.04,
            FaultKind::PuRegimeShift {
                activity: PuActivity::bernoulli(0.05).expect("valid p_t"),
            },
        ),
    ])
}

/// Mirrors `mixed_storm.json`: pause/resume, link degradation, a
/// brownout window, and a crash/recover pair, interleaved.
fn mixed_storm_plan() -> FaultSchedule {
    schedule(vec![
        FaultEvent::new(0.005, FaultKind::SuPause { su: 2 }),
        FaultEvent::new(0.01, FaultKind::LinkDegrade { su: 4, factor: 0.3 }),
        FaultEvent::new(0.015, FaultKind::BrownoutStart),
        FaultEvent::new(0.02, FaultKind::SuResume { su: 2 }),
        FaultEvent::new(0.025, FaultKind::SuCrash { su: 7 }),
        FaultEvent::new(0.03, FaultKind::BrownoutEnd),
        FaultEvent::new(0.06, FaultKind::SuRecover { su: 7 }),
    ])
}

/// A generated churn workload (crash/recover pairs at a paper-scale
/// rate), deterministic in `seed`. `generate` samples targets in
/// `1..=num_sus`, so it receives the highest valid node id.
fn churn_plan(num_sus: usize, seed: u64) -> FaultSchedule {
    ChurnSpec::new(400.0)
        .expect("valid churn rate")
        .generate(num_sus - 1, 1e-3, seed)
        .expect("churn generates")
        .compile()
        .expect("churn compiles")
}

struct Case {
    id: String,
    world: Arc<SimWorld>,
    p_t: f64,
    seed: u64,
    faults: FaultSchedule,
}

/// The pinned corpus: every fault-free `(seed, model, sensing)` cell
/// plus a fault lane over `(fault seed, plan, model)`.
fn corpus_cases() -> Vec<Case> {
    let models = [
        ("exact", InterferenceModel::Exact),
        ("sparse", InterferenceModel::Truncated { epsilon: 0.1 }),
    ];
    let mut cases = Vec::new();
    for &seed in &corpus_seeds() {
        for (mname, model) in models {
            // ADDC senses at the PCR; the Coolest baseline at a
            // conventional CSMA range (hidden terminals appear).
            for (aname, su_sense) in [("addc", 25.0), ("coolest", 12.0)] {
                cases.push(Case {
                    id: format!("free/{mname}/{aname}/seed{seed}"),
                    world: jitter_world(8, seed, model, su_sense),
                    p_t: 0.3,
                    seed,
                    faults: FaultSchedule::empty(),
                });
            }
        }
    }
    for &seed in &FAULT_SEEDS {
        for (mname, model) in models {
            let world = jitter_world(6, seed, model, 25.0);
            let n = world.num_sus();
            let plans: [(&str, FaultSchedule); 4] = [
                ("crash_recover", crash_recover_plan()),
                ("regime_shift", regime_shift_plan()),
                ("mixed_storm", mixed_storm_plan()),
                ("churn", churn_plan(n, seed)),
            ];
            for (pname, faults) in plans {
                cases.push(Case {
                    id: format!("fault/{mname}/{pname}/seed{seed}"),
                    world: world.clone(),
                    p_t: 0.3,
                    seed,
                    faults,
                });
            }
        }
    }
    cases
}

fn run_case_path(case: &Case, full_scan: bool) -> SimReport {
    Simulator::builder(case.world.clone())
        .activity(PuActivity::bernoulli(case.p_t).expect("valid p_t"))
        .seed(case.seed)
        .faults(case.faults.clone())
        .full_scan(full_scan)
        .build()
        .expect("case builds")
        .run()
}

/// The default engine: delta path wherever the radio carries a reverse
/// index, the scan reference elsewhere.
fn run_case(case: &Case) -> SimReport {
    run_case_path(case, false)
}

/// The case traced end to end on one SIR path.
fn trace_case_path(case: &Case, full_scan: bool) -> TraceLog {
    Simulator::builder(case.world.clone())
        .activity(PuActivity::bernoulli(case.p_t).expect("valid p_t"))
        .seed(case.seed)
        .faults(case.faults.clone())
        .full_scan(full_scan)
        .probe(TraceLog::unbounded())
        .build()
        .expect("case builds")
        .run_with_probe()
        .1
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn fnv1a(mut h: u64, text: &str) -> u64 {
    for b in text.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// FNV-1a over the report's `Debug` rendering: `{:?}` round-trips every
/// `f64` exactly, so any bit difference in any field changes the hash.
fn digest(report: &SimReport) -> u64 {
    fnv1a(FNV_OFFSET, &format!("{report:?}"))
}

/// FNV-1a over every event's `Debug` rendering, in emission order: a
/// reordered, added, dropped or re-timed event changes the hash.
fn trace_digest(log: &TraceLog) -> u64 {
    assert_eq!(log.dropped(), 0, "an unbounded log drops nothing");
    log.events()
        .fold(FNV_OFFSET, |h, e| fnv1a(h, &format!("{e:?}\n")))
}

#[test]
fn regen() {
    if std::env::var("ENGINE_EQUIV_REGEN").is_err() {
        return;
    }
    let mut out = String::from(
        "# FNV-64 digests of SimReport {:?} per corpus case, pinned to the\n\
         # pre-delta-engine event loop. Regenerate only on an intended\n\
         # behavior change: ENGINE_EQUIV_REGEN=1 cargo test -p crn-sim\n\
         #   --test engine_equiv -- regen --nocapture\n",
    );
    let mut traces = String::from(
        "# FNV-64 digests of each corpus case's TraceLog (every event's\n\
         # {:?}, in emission order). Regenerate only on an intended\n\
         # behavior change: ENGINE_EQUIV_REGEN=1 cargo test -p crn-sim\n\
         #   --test engine_equiv -- regen --nocapture\n",
    );
    for case in corpus_cases() {
        let report = run_case(&case);
        out.push_str(&format!("{} {:016x}\n", case.id, digest(&report)));
        let log = trace_case_path(&case, false);
        traces.push_str(&format!("{} {:016x}\n", case.id, trace_digest(&log)));
    }
    std::fs::create_dir_all(
        std::path::Path::new(DIGEST_PATH)
            .parent()
            .expect("has parent"),
    )
    .expect("create corpus dir");
    std::fs::write(DIGEST_PATH, out).expect("write digest corpus");
    std::fs::write(TRACE_DIGEST_PATH, traces).expect("write trace digest corpus");
    eprintln!("regenerated {DIGEST_PATH} and {TRACE_DIGEST_PATH}");
}

fn read_digests(path: &str) -> Vec<(String, u64)> {
    let text = std::fs::read_to_string(path)
        .expect("digest corpus missing; regenerate with ENGINE_EQUIV_REGEN=1");
    text.lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(|l| {
            let (id, hash) = l.split_once(' ').expect("line is `id hash`");
            (
                id.to_string(),
                u64::from_str_radix(hash, 16).expect("hash is hex"),
            )
        })
        .collect()
}

/// The delta engine and the retained full-scan reference must agree
/// bit-for-bit on every corpus case (trivially true for dense worlds,
/// where both run the scan path).
#[test]
fn delta_matches_full_scan_reference() {
    for case in corpus_cases() {
        let delta = run_case_path(&case, false);
        let scan = run_case_path(&case, true);
        assert_eq!(
            format!("{delta:?}"),
            format!("{scan:?}"),
            "{}: delta path diverged from the full-scan reference",
            case.id
        );
    }
}

/// The retained full-scan path must reproduce the pre-change engine
/// bit-for-bit (it *is* the old algorithm, plus exact-zero snapping).
#[test]
fn full_scan_matches_pinned_digests() {
    let pinned = read_digests(DIGEST_PATH);
    for (case, (id, want)) in corpus_cases().iter().zip(&pinned) {
        assert_eq!(&case.id, id, "corpus order drifted from digests");
        let got = digest(&run_case_path(case, true));
        assert_eq!(
            got, *want,
            "{}: scan path diverged from the pre-change engine",
            case.id
        );
    }
}

/// Lane 3: randomized deployments under the fault-aware oracle. Each
/// draw samples a fresh jittered world (side, placement seed, sensing
/// range, interference model), a PU activity level, and — on half the
/// draws — a generated churn workload; the delta engine runs under the
/// [`InvariantChecker`] and must come back clean, and the scan path must
/// reproduce its report bit-for-bit (which also proves the report is
/// independent of the attached probe). Deterministic in the lane seed.
#[test]
fn fuzz_lane_is_oracle_clean() {
    let mut rng = StdRng::seed_from_u64(0x5eed_f22e);
    for draw in 0..12 {
        let cols = rng.gen_range(4..8usize);
        let wseed: u64 = rng.gen_range(0..u64::MAX);
        let su_sense = if rng.gen_bool(0.5) { 25.0 } else { 12.0 };
        let model = if rng.gen_bool(0.5) {
            InterferenceModel::Exact
        } else {
            InterferenceModel::Truncated { epsilon: 0.1 }
        };
        let p_t = rng.gen_range(0.1..0.5);
        let world = jitter_world(cols, wseed, model, su_sense);
        let faults = if rng.gen_bool(0.5) {
            churn_plan(world.num_sus(), wseed)
        } else {
            FaultSchedule::empty()
        };
        let mac = MacConfig {
            max_sim_time: 0.1,
            ..MacConfig::default()
        };
        let checker =
            InvariantChecker::new(world.clone(), mac).with_repro(wseed, "engine_equiv fuzz lane");
        let (delta, oracle) = Simulator::builder(world.clone())
            .mac(mac)
            .activity(PuActivity::bernoulli(p_t).expect("valid p_t"))
            .seed(wseed)
            .faults(faults.clone())
            .probe(checker)
            .build()
            .expect("fuzz case builds")
            .run_with_probe();
        assert!(
            oracle.is_clean(),
            "draw {draw} (cols {cols}, seed {wseed:#x}, p_t {p_t:.2}): {:?}",
            oracle.first_violation()
        );
        let scan = Simulator::builder(world.clone())
            .mac(mac)
            .activity(PuActivity::bernoulli(p_t).expect("valid p_t"))
            .seed(wseed)
            .faults(faults)
            .full_scan(true)
            .build()
            .expect("fuzz case builds")
            .run();
        assert_eq!(
            format!("{delta:?}"),
            format!("{scan:?}"),
            "draw {draw} (cols {cols}, seed {wseed:#x}): delta diverged from scan"
        );
    }
}

/// A 20×20 grid at spacing 4 with chain-to-corner parents, plus one leaf
/// hung 9.9 from an inner node, and scattered PUs — deterministic in
/// `seed`. The long link's slot gets a cutoff several times the others',
/// and the delta path's cells are as wide as the largest cutoff.
fn long_link_world(seed: u64) -> Arc<SimWorld> {
    let (cols, spacing) = (20usize, 4.0);
    let side = cols as f64 * spacing + 10.0;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut sus = Vec::new();
    let mut parents = Vec::new();
    for i in 0..cols * cols {
        let (row, col) = (i / cols, i % cols);
        sus.push(Point::new(
            col as f64 * spacing + 5.0,
            row as f64 * spacing + 5.0,
        ));
        parents.push(if i == 0 {
            None
        } else if col > 0 {
            Some((i - 1) as u32)
        } else {
            Some((i - cols) as u32)
        });
    }
    let hub = cols * (cols / 2) + cols / 2;
    sus.push(Point::new(sus[hub].x + 9.9 * 0.6, sus[hub].y + 9.9 * 0.8));
    parents.push(Some(hub as u32));
    let pus: Vec<Point> = (0..30)
        .map(|_| Point::new(rng.gen_range(0.0..side), rng.gen_range(0.0..side)))
        .collect();
    Arc::new(
        SimWorld::builder(Region::square(side))
            .su_positions(sus)
            .pu_positions(pus)
            .parents(parents)
            .phy(PhyParams::paper_simulation_defaults())
            .sense_range(25.0)
            .interference(InterferenceModel::Truncated { epsilon: 0.1 })
            .build()
            .expect("long-link world is valid"),
    )
}

/// The delta path's cells are as wide as the largest cutoff, so one long
/// tree link widens every cell; delta must still match the scan
/// reference, report and event stream alike.
#[test]
fn delta_matches_scan_when_one_long_link_widens_the_cells() {
    for seed in [3, 11] {
        let world = long_link_world(seed);
        let (cutoff, _) = world.truncation_stats().expect("a truncated world");
        let lo = cutoff.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = cutoff.iter().copied().fold(0.0, f64::max);
        assert!(hi >= 4.0 * lo, "cutoffs span only {lo}..{hi}");
        for p_t in [0.1, 0.4] {
            let run = |full_scan: bool| {
                Simulator::builder(world.clone())
                    .mac(MacConfig {
                        max_sim_time: 0.2,
                        ..MacConfig::default()
                    })
                    .activity(PuActivity::bernoulli(p_t).expect("valid p_t"))
                    .seed(seed)
                    .full_scan(full_scan)
                    .probe(TraceLog::unbounded())
                    .build()
                    .expect("case builds")
                    .run_with_probe()
            };
            let ((delta, delta_log), (scan, scan_log)) = (run(false), run(true));
            assert!(delta.attempts > 0, "seed {seed}: nothing transmitted");
            assert_eq!(
                format!("{delta:?}"),
                format!("{scan:?}"),
                "seed {seed}, p_t {p_t}: delta diverged from scan"
            );
            assert_eq!(trace_digest(&delta_log), trace_digest(&scan_log));
        }
    }
}

/// Every corpus case must reproduce the pre-change engine bit-for-bit.
#[test]
fn reports_match_pinned_digests() {
    let pinned = read_digests(DIGEST_PATH);
    let cases = corpus_cases();
    assert_eq!(pinned.len(), cases.len(), "corpus drifted from digests");
    for (case, (id, want)) in cases.iter().zip(&pinned) {
        assert_eq!(&case.id, id, "corpus order drifted from digests");
        let got = digest(&run_case(case));
        assert_eq!(
            got, *want,
            "{}: report diverged from the pre-change engine (got {got:016x})",
            case.id
        );
    }
}

/// Every corpus case must emit the pre-change event stream, event for
/// event, on both SIR paths (a probe observes; it never perturbs).
#[test]
fn traces_match_pinned_digests() {
    let pinned = read_digests(TRACE_DIGEST_PATH);
    let cases = corpus_cases();
    assert_eq!(
        pinned.len(),
        cases.len(),
        "corpus drifted from trace digests"
    );
    for (case, (id, want)) in cases.iter().zip(&pinned) {
        assert_eq!(&case.id, id, "corpus order drifted from trace digests");
        for full_scan in [false, true] {
            let got = trace_digest(&trace_case_path(case, full_scan));
            assert_eq!(
                got, *want,
                "{} (full_scan {full_scan}): event stream diverged from the pre-change engine \
                 (got {got:016x})",
                case.id
            );
        }
    }
}

/// A jitter world of 8×8 SUs, truncated at ε = 0.1, with a PU power 100
/// times the SU power (`P_p` 100, `P_s` 1), where the PUs beyond some
/// slots' cutoffs outweigh their budgets.
fn climbing_world(seed: u64) -> Arc<SimWorld> {
    let world = jitter_world(8, seed, InterferenceModel::Truncated { epsilon: 0.1 }, 25.0);
    let phy = world.phy();
    let mut b = PhyParams::builder();
    b.alpha(phy.alpha())
        .pu_power(100.0)
        .su_power(1.0)
        .pu_radius(phy.pu_radius())
        .su_radius(phy.su_radius())
        .pu_sir_threshold(phy.pu_sir_threshold())
        .su_sir_threshold(phy.su_sir_threshold());
    let params = world.radio_params().phy(b.build().expect("valid powers"));
    Arc::new(world.recustomize(params).expect("valid radio"))
}

/// The slots of `world` that must serve PUs past their cutoffs: those
/// whose PUs beyond the cutoff, all on, deliver more than the PU half of
/// the slot's budget, `0.5·ε·P_s·g_min/η_s`. A certificate that served
/// none of them would leave out at least that much, so its bound could
/// not fit. Computed from positions alone.
fn slots_past_their_cutoff(world: &SimWorld, epsilon: f64) -> usize {
    let phy = world.phy();
    let (cutoff, _) = world.truncation_stats().expect("a truncated world");
    let sus = world.su_positions();
    let mut past = 0;
    for (s, &rx) in world.receivers().iter().enumerate() {
        let q = sus[rx as usize];
        let g_min = (0..sus.len())
            .filter(|&i| world.parents()[i] == Some(rx))
            .map(|i| path_gain(sus[i].distance(q), phy.alpha()))
            .fold(f64::INFINITY, f64::min);
        let far: f64 = world
            .pu_positions()
            .iter()
            .map(|p| p.distance(q))
            .filter(|&d| d > cutoff[s])
            .map(|d| phy.pu_power() * path_gain(d, phy.alpha()))
            .sum();
        let half_budget = 0.5 * epsilon * phy.su_power() * g_min / phy.su_sir_threshold();
        past += usize::from(far > half_budget * (1.0 + 1e-9));
    }
    past
}

/// At `P_p` 100, `P_s` 1 some slots serve PUs past their cutoffs, so
/// their sums run over a ladder prefix as well as a base row. The delta
/// path must still match the scan reference, report and event stream
/// alike, and run clean under the oracle.
#[test]
fn delta_matches_scan_where_slots_serve_past_their_cutoff() {
    let mac = MacConfig {
        max_sim_time: 0.3,
        ..MacConfig::default()
    };
    for seed in [1, 2, 3, 4] {
        let world = climbing_world(seed);
        let past = slots_past_their_cutoff(&world, 0.1);
        assert!(past > 0, "seed {seed}: no slot serves past its cutoff");
        let sim = |full_scan: bool| {
            Simulator::builder(world.clone())
                .mac(mac)
                .activity(PuActivity::bernoulli(0.3).expect("valid p_t"))
                .seed(seed)
                .full_scan(full_scan)
        };
        let traced = |full_scan: bool| {
            sim(full_scan)
                .probe(TraceLog::unbounded())
                .build()
                .expect("case builds")
                .run_with_probe()
        };
        let ((delta, delta_log), (scan, scan_log)) = (traced(false), traced(true));
        assert!(delta.attempts > 0, "seed {seed}: nothing transmitted");
        assert_eq!(
            format!("{delta:?}"),
            format!("{scan:?}"),
            "seed {seed} ({past} slots past their cutoff): delta diverged from scan"
        );
        assert_eq!(
            trace_digest(&delta_log),
            trace_digest(&scan_log),
            "seed {seed}"
        );
        let checker = InvariantChecker::new(world.clone(), mac)
            .with_repro(seed, "engine_equiv climbing lane");
        let (checked, oracle) = sim(false)
            .probe(checker)
            .build()
            .expect("case builds")
            .run_with_probe();
        assert!(
            oracle.is_clean(),
            "seed {seed}: {:?}",
            oracle.first_violation()
        );
        assert_eq!(format!("{checked:?}"), format!("{delta:?}"), "seed {seed}");
    }
}
