//! Emits `results/BENCH_sim.json`: dense-vs-sparse interference-engine
//! scaling on the deterministic synthetic grid world, plus the
//! topology/radio phase split.
//!
//! For each size `n` the harness times the structure phase (`Topology`
//! build) once, then per interference model times radio customization
//! (`SimWorld::new` on the shared topology) — the median, min and max of
//! three builds — and measures event throughput of a short capped run —
//! the median, min and max of five deterministic reruns (`Exact` dense
//! tables are skipped above `n = 5000`, where they would need
//! gigabytes), and records the bytes its gain tables hold plus a
//! peak-RSS proxy (`VmHWM` from `/proc/self/status`). The top-level
//! `cores` field records the host's available parallelism: a sparse
//! build certifies its PU field on up to that many threads, while every
//! throughput figure is single-threaded.
//!
//! It also times the headline of the split API: a radio-only
//! re-customization (an SU transmit-power bump) against a full
//! from-scratch rebuild at the new parameters, three of each with their
//! median, min and max, asserting along the way that both worlds produce
//! bit-identical reports from a capped run with the PUs transmitting
//! (`p_t` 0.3, as perfbench's `scale-sparse`), so that run reads the
//! served near-PU gains. The timed throughput runs and the
//! `--check-invariants` window keep a silent primary network.
//!
//! Every world also prints a `digest`: FNV-1a over the bits of every
//! truncation table ([`crn_sim::SimWorld::tables_digest`]: cutoffs, PU
//! near-field id rows, bounds, pulled id lists, levels, served id rows
//! and residuals, offsets included; a truncated world stores no gain, so
//! none is digested, and an `Exact` world has no such table), continued
//! over its capped run's report and then over the equivalence run's.
//! Those are the same on any number of cores, so CI compares the digests
//! of a run pinned to one core (`taskset -c 0`, serial radio builds) with
//! an unpinned one (builds split across the cores).
//!
//! Each size is measured in a **spawned child process** (`--one-size`),
//! because `VmHWM` is a monotone per-process high-water mark: reading it
//! after several sizes in one process reports the peak of the largest
//! size for every later row. A fresh process per size gives each row its
//! own honest peak.
//!
//! Flags: `--smoke` (tiny sizes, for CI PR runs), `--out FILE` (default
//! `results/BENCH_sim.json`), `--check-invariants` (run each measured
//! world below 1,000,000 SUs briefly under the fault-aware oracle and
//! fail on any violation), `--one-size N` (measure one size and print its
//! JSON object to stdout; the parent runs one such child per size).
//!
//! Run with `cargo run -p crn-bench --release --bin bench_sim`.

use crn_bench::synthetic::{bump_su_power, grid_radio, grid_topology};
use crn_bench::take_flag;
use crn_sim::{
    InterferenceModel, InvariantChecker, MacConfig, SimWorld, Simulator, Topology, TraceLog,
};
use crn_spectrum::PuActivity;
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;

/// Truncation budget used throughout (the equivalence-tested default).
const EPSILON: f64 = 0.1;
/// Dense tables above this size would need gigabytes; sparse-only beyond.
const DENSE_CAP: usize = 5_000;
/// Above this size the throughput cap shrinks (see [`sim_seconds_for`]):
/// the point of the 100k+ rows is memory footprint and events/s, not a
/// long simulated horizon.
const BIG_SIZE: usize = 50_000;
/// From this size on the cap shrinks again, to five slots, and
/// `--check-invariants` skips the oracle: the 1,000,000-SU row measures
/// construction and memory. The oracle recomputes every reception's exact
/// SIR over every active SU and every PU at each interference addition;
/// its 0.05 s window at n = 100,000 alone ran over seven minutes.
const HUGE_SIZE: usize = 1_000_000;
/// FNV-1a 64-bit offset basis, where an exact world's digest starts.
const FNV_START: u64 = 0xcbf2_9ce4_8422_2325;
/// PU activity of the recustomize-vs-rebuild equivalence runs.
const EQUIV_P_T: f64 = 0.3;

fn cores() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Simulated-seconds cap for the throughput runs at size `n`. Derived
/// from `n` (not passed between parent and child) so `--one-size`
/// children and the stitched report always agree.
fn sim_seconds_for(n: usize, smoke: bool) -> f64 {
    if smoke {
        0.02
    } else if n >= HUGE_SIZE {
        0.005
    } else if n >= BIG_SIZE {
        0.05
    } else {
        0.2
    }
}

/// Every `[f64; 3]` below is the median, min and max over its repetitions.
struct ModelStats {
    construct_ms: f64,
    customize_s: [f64; 3],
    recustomize_s: [f64; 3],
    rebuild_s: [f64; 3],
    recustomize_speedup: f64,
    gain_table_bytes: usize,
    events: u64,
    events_per_sec: [f64; 3],
    digest: u64,
}

/// Deterministic reruns behind each throughput figure.
const RERUNS: usize = 5;
/// Builds behind each construction figure (customize, recustomize,
/// rebuild): one call on a shared virtualized host wanders by tens of
/// percent.
const BUILDS: usize = 3;

/// The median, min and max of `samples`.
fn spread(mut samples: Vec<f64>) -> [f64; 3] {
    samples.sort_by(f64::total_cmp);
    [
        samples[samples.len() / 2],
        samples[0],
        samples[samples.len() - 1],
    ]
}

struct SizeStats {
    n: usize,
    topology_build_s: f64,
    dense: Option<ModelStats>,
    sparse: ModelStats,
    vm_hwm_kb: Option<u64>,
}

fn capped_run(
    world: impl Into<Arc<SimWorld>>,
    sim_seconds: f64,
    p_t: f64,
) -> (crn_sim::SimReport, u64) {
    let mac = MacConfig {
        max_sim_time: sim_seconds,
        ..MacConfig::default()
    };
    let (report, trace) = Simulator::builder(world)
        .mac(mac)
        .activity(PuActivity::bernoulli(p_t).expect("p_t is a probability"))
        .seed(42)
        .probe(TraceLog::bounded(64))
        .build()
        .unwrap()
        .run_with_probe();
    let events = trace.len() as u64 + trace.dropped();
    (report, events)
}

/// Runs `world` briefly under the fault-aware oracle and panics on the
/// first invariant violation (`--check-invariants`).
fn assert_invariants_clean(world: &Arc<SimWorld>, sim_seconds: f64) {
    let mac = MacConfig {
        max_sim_time: sim_seconds,
        ..MacConfig::default()
    };
    let checker = InvariantChecker::new(world.clone(), mac).with_repro(42, "bench_sim");
    let (_report, oracle) = Simulator::builder(world.clone())
        .mac(mac)
        .seed(42)
        .probe(checker)
        .build()
        .unwrap()
        .run_with_probe();
    assert!(
        oracle.is_clean(),
        "invariant violation under bench world: {:?}",
        oracle.first_violation()
    );
}

fn measure(
    n: usize,
    topology: &Arc<Topology>,
    topology_build_s: f64,
    model: InterferenceModel,
    sim_seconds: f64,
    check_invariants: bool,
) -> ModelStats {
    let params = grid_radio(model);
    // Each repetition drops its predecessor's world first, so the peak
    // holds one.
    let mut customize_s = Vec::with_capacity(BUILDS);
    let mut world = None;
    for _ in 0..BUILDS {
        drop(world.take());
        let started = Instant::now();
        let built = SimWorld::new(topology.clone(), params).expect("grid radio params are valid");
        customize_s.push(started.elapsed().as_secs_f64());
        world = Some(built);
    }
    let world = Arc::new(world.expect("BUILDS >= 1"));
    let gain_table_bytes = world.gain_table_bytes();

    // Radio-only re-customization vs a full from-scratch rebuild at the
    // same new parameters.
    let bumped = params.phy(bump_su_power(&params.phy));
    let (mut recustomize_s, mut rebuild_s) = (Vec::new(), Vec::new());
    let mut pair = None;
    for _ in 0..BUILDS {
        drop(pair.take());
        let started = Instant::now();
        let recustomized = world
            .recustomize(bumped)
            .expect("power-only recustomize succeeds");
        recustomize_s.push(started.elapsed().as_secs_f64());
        let started = Instant::now();
        let rebuilt =
            SimWorld::new(Arc::new(grid_topology(n)), bumped).expect("rebuilt grid world is valid");
        rebuild_s.push(started.elapsed().as_secs_f64());
        pair = Some((recustomized, rebuilt));
    }
    let (recustomized, rebuilt) = pair.expect("BUILDS >= 1");
    let (customize_s, recustomize_s, rebuild_s) = (
        spread(customize_s),
        spread(recustomize_s),
        spread(rebuild_s),
    );

    // Both paths must agree bit-for-bit before either timing counts.
    let equiv_seconds = sim_seconds.min(0.05);
    let (from_recustomize, _) = capped_run(recustomized, equiv_seconds, EQUIV_P_T);
    let (from_rebuild, _) = capped_run(rebuilt, equiv_seconds, EQUIV_P_T);
    assert_eq!(
        from_recustomize, from_rebuild,
        "recustomized world diverged from a fresh build at n = {n}"
    );

    if check_invariants && n < HUGE_SIZE {
        // A short window bounds the checker's (instrumented) cost while
        // still exercising the engine on the measured world.
        assert_invariants_clean(&world, equiv_seconds);
    }

    // Throughput over identical runs. The simulation is deterministic
    // (same seed, same world — asserted below), so the spread is host
    // noise; single runs on a shared virtualized host were observed to
    // wander by ±30%, hence the median with its min and max.
    let mut report: Option<crn_sim::SimReport> = None;
    let mut events = 0u64;
    let mut eps = Vec::with_capacity(RERUNS);
    for _ in 0..RERUNS {
        let started = Instant::now();
        let (r, ev) = capped_run(world.clone(), sim_seconds, 0.0);
        let wall = started.elapsed().as_secs_f64();
        eps.push(ev as f64 / wall.max(1e-9));
        match &report {
            Some(first) => assert_eq!(first, &r, "deterministic rerun diverged"),
            None => report = Some(r),
        }
        events = ev;
    }
    let report = report.expect("the reruns happened");
    assert!(report.attempts > 0, "capped run must make progress");
    let digest = world.tables_digest().unwrap_or(FNV_START);
    let digest = crn_core::fnv1a_64(digest, format!("{report:?}").as_bytes());
    let digest = crn_core::fnv1a_64(digest, format!("{from_recustomize:?}").as_bytes());
    ModelStats {
        construct_ms: (topology_build_s + customize_s[0]) * 1e3,
        customize_s,
        recustomize_s,
        rebuild_s,
        recustomize_speedup: rebuild_s[0] / recustomize_s[0].max(1e-9),
        gain_table_bytes,
        events,
        events_per_sec: spread(eps),
        digest,
    }
}

/// Peak resident set size in kB (`VmHWM`), where procfs exists.
fn vm_hwm_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// `"name": median, "name_min": min, "name_max": max`, each with
/// `decimals` decimals.
fn spread_json(name: &str, [median, min, max]: [f64; 3], decimals: usize) -> String {
    format!(
        "\"{name}\": {median:.decimals$}, \"{name}_min\": {min:.decimals$}, \
         \"{name}_max\": {max:.decimals$}"
    )
}

fn model_json(stats: &ModelStats) -> String {
    format!(
        "{{\"construct_ms\": {:.3}, {}, {}, {}, \"recustomize_speedup\": {:.1}, \
         \"gain_table_bytes\": {}, \"events\": {}, {}, \"digest\": \"{:016x}\"}}",
        stats.construct_ms,
        spread_json("customize_s", stats.customize_s, 6),
        spread_json("recustomize_s", stats.recustomize_s, 6),
        spread_json("rebuild_s", stats.rebuild_s, 6),
        stats.recustomize_speedup,
        stats.gain_table_bytes,
        stats.events,
        spread_json("events_per_sec", stats.events_per_sec, 0),
        stats.digest,
    )
}

/// Renders one size's JSON object (no trailing comma or newline) — the
/// unit a `--one-size` child prints to stdout for the parent to stitch.
fn size_json(s: &SizeStats) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "    {{");
    let _ = writeln!(out, "      \"n\": {},", s.n);
    let _ = writeln!(
        out,
        "      \"topology_build_s\": {:.6},",
        s.topology_build_s
    );
    match &s.dense {
        Some(d) => {
            let _ = writeln!(out, "      \"dense\": {},", model_json(d));
            let _ = writeln!(
                out,
                "      \"construct_speedup\": {:.2},",
                d.construct_ms / s.sparse.construct_ms.max(1e-9)
            );
            let _ = writeln!(
                out,
                "      \"memory_ratio\": {:.2},",
                d.gain_table_bytes as f64 / s.sparse.gain_table_bytes.max(1) as f64
            );
        }
        None => {
            let _ = writeln!(out, "      \"dense\": null,");
            let _ = writeln!(out, "      \"construct_speedup\": null,");
            let _ = writeln!(out, "      \"memory_ratio\": null,");
        }
    }
    let _ = writeln!(out, "      \"sparse\": {},", model_json(&s.sparse));
    match s.vm_hwm_kb {
        Some(kb) => {
            let _ = writeln!(out, "      \"vm_hwm_kb\": {kb}");
        }
        None => {
            let _ = writeln!(out, "      \"vm_hwm_kb\": null");
        }
    }
    let _ = write!(out, "    }}");
    out
}

fn render_json(mode: &str, size_objects: &[String]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{{");
    let _ = writeln!(out, "  \"bench\": \"sim_interference_scaling\",");
    let _ = writeln!(out, "  \"mode\": \"{mode}\",");
    let _ = writeln!(out, "  \"cores\": {},", cores());
    let _ = writeln!(out, "  \"epsilon\": {EPSILON},");
    let _ = writeln!(out, "  \"sizes\": [");
    let _ = writeln!(out, "{}", size_objects.join(",\n"));
    let _ = writeln!(out, "  ]");
    let _ = writeln!(out, "}}");
    out
}

/// Measures one size end-to-end (topology, both models, `VmHWM`). Run in
/// a fresh process per size so the monotone `VmHWM` reading is this
/// size's own peak, not a larger predecessor's.
fn measure_size(n: usize, sim_seconds: f64, check_invariants: bool) -> SizeStats {
    let started = Instant::now();
    let topology = Arc::new(grid_topology(n));
    let topology_build_s = started.elapsed().as_secs_f64();
    let sparse = measure(
        n,
        &topology,
        topology_build_s,
        InterferenceModel::Truncated { epsilon: EPSILON },
        sim_seconds,
        check_invariants,
    );
    let dense = (n <= DENSE_CAP).then(|| {
        measure(
            n,
            &topology,
            topology_build_s,
            InterferenceModel::Exact,
            sim_seconds,
            check_invariants,
        )
    });
    SizeStats {
        n,
        topology_build_s,
        dense,
        sparse,
        vm_hwm_kb: vm_hwm_kb(),
    }
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let take_switch = |args: &mut Vec<String>, name: &str| -> bool {
        if let Some(i) = args.iter().position(|a| a == name) {
            args.remove(i);
            true
        } else {
            false
        }
    };
    let smoke = take_switch(&mut args, "--smoke");
    let check_invariants = take_switch(&mut args, "--check-invariants");
    let one_size = take_flag(&mut args, "--one-size")
        .map(|v| v.parse::<usize>().expect("--one-size takes an integer"));
    let out_path = take_flag(&mut args, "--out").unwrap_or_else(|| "results/BENCH_sim.json".into());
    assert!(args.is_empty(), "unrecognized arguments: {args:?}");

    let (mode, ns) = if smoke {
        ("smoke", vec![200usize, 500])
    } else {
        (
            "full",
            vec![500usize, 2_000, 5_000, 10_000, 100_000, 250_000, HUGE_SIZE],
        )
    };

    // Child mode: measure the one size and print its JSON object.
    if let Some(n) = one_size {
        let stats = measure_size(n, sim_seconds_for(n, smoke), check_invariants);
        print!("{}", size_json(&stats));
        return;
    }

    // Parent mode: one child process per size, stitched into the report.
    let exe = std::env::current_exe().expect("current executable path");
    let mut size_objects = Vec::new();
    for &n in &ns {
        eprintln!("bench_sim: n = {n} ...");
        let mut cmd = std::process::Command::new(&exe);
        cmd.arg("--one-size").arg(n.to_string());
        if smoke {
            cmd.arg("--smoke");
        }
        if check_invariants {
            cmd.arg("--check-invariants");
        }
        let output = cmd
            .stderr(std::process::Stdio::inherit())
            .output()
            .expect("spawn per-size child process");
        assert!(
            output.status.success(),
            "bench child for n = {n} failed with {:?}",
            output.status
        );
        size_objects.push(String::from_utf8(output.stdout).expect("child emits UTF-8 JSON"));
    }

    let json = render_json(mode, &size_objects);
    if let Some(dir) = std::path::Path::new(&out_path).parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir).expect("create output directory");
        }
    }
    std::fs::write(&out_path, &json).unwrap_or_else(|e| panic!("cannot write {out_path}: {e}"));
    eprintln!("bench_sim: wrote {out_path}");
    print!("{json}");
}
