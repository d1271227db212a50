//! `fig6-sweep`: `run_sweep` over Fig. 6 panels (b) and (c) at the
//! `scaled` preset, ADDC against Coolest, `Exact` interference, one
//! sweep thread per core.
//!
//! This is the paper's own evaluation and the `crn sweep` path: almost
//! all of its time is the event loop on the dense Scan SIR path. Panel
//! (b) varies the SU count, so every point generates a deployment; panel
//! (c) varies `p_t`, so each repetition generates one deployment and
//! re-customizes it per point.
//!
//! Every collection is capped at 10,000 simulated slots instead of the
//! preset's 10⁶. Uncapped, one straggler deployment runs 10–50× longer
//! than the median job (a whole `p_t` = 0.5 repetition took 10–16 s),
//! so a run's wall time followed the seed rather than the code: over five
//! seeds its spread was 47% of the median. Capped, a job costs at most
//! its first 10,000 slots, the low-`p_t` points still finish, and the
//! spread falls to a few percent.
//!
//! Traced units replay the same jobs in `run_sweep`'s grouping through
//! the layers' public calls (see [`crate::pipeline`]); the replay's
//! records must equal `run_sweep`'s.

use crate::pipeline::{self, Work};
use crate::{stats, trace, Ctx, Unit};
use crn_core::Scenario;
use crn_workloads::{
    presets, run_sweep, Fig6Panel, PresetKind, RunRecord, SweepOptions, SweepSpec,
};
use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::thread::ThreadId;

/// Repetitions of each panel in one unit.
const REPS: u32 = 2;
/// Simulated-time cap of every collection: 10,000 slots.
const HORIZON_S: f64 = 10.0;

/// The two sweeps of a unit, seeded from the unit's seed.
fn specs(ctx: &Ctx) -> Vec<SweepSpec> {
    let kind = if ctx.opts.smoke {
        PresetKind::Tiny
    } else {
        PresetKind::Scaled
    };
    let mut b = presets::fig6_spec(kind, Fig6Panel::B);
    let mut c = presets::fig6_spec(kind, Fig6Panel::C);
    b.reps = REPS;
    c.reps = REPS;
    if ctx.opts.smoke {
        b.axis.values.truncate(2);
        c.axis.values.truncate(2);
        b.reps = 1;
        c.reps = 1;
    }
    b.base.mac.max_sim_time = HORIZON_S;
    c.base.mac.max_sim_time = HORIZON_S;
    b.base.seed = ctx.seed;
    c.base.seed = stats::mix(ctx.seed);
    vec![b, c]
}

pub fn run(ctx: &Ctx) -> Result<Unit, String> {
    let specs = specs(ctx);
    if ctx.opts.trace {
        traced(ctx, &specs)
    } else {
        plain(ctx, &specs)
    }
}

/// A job end stamped by the progress callback: the thread and the
/// seconds since the sweep started.
type Stamp = (ThreadId, f64);

/// Runs `spec` under `run_sweep`, returning its records, its wall time
/// and the job-end stamps.
fn sweep_with_stamps(spec: &SweepSpec) -> Result<(Vec<RunRecord>, f64, Vec<Stamp>), String> {
    let stamps: Arc<Mutex<Vec<Stamp>>> = Arc::default();
    let sink = Arc::clone(&stamps);
    let started = std::time::Instant::now();
    let options = SweepOptions::with_threads(stats::cores()).on_progress(move |_, _| {
        let at = started.elapsed().as_secs_f64();
        sink.lock()
            .expect("stamp lock")
            .push((std::thread::current().id(), at));
    });
    let records = run_sweep(spec, options).map_err(|e| e.to_string())?;
    let wall = started.elapsed().as_secs_f64();
    let stamps = std::mem::take(&mut *stamps.lock().expect("stamp lock"));
    Ok((records, wall, stamps))
}

/// Per-job durations (from each thread's previous stamp) and the
/// thread-seconds left idle after each thread's last job.
fn job_times(wall: f64, threads: usize, stamps: &[Stamp]) -> (Vec<f64>, f64) {
    let mut by_thread: HashMap<ThreadId, Vec<f64>> = HashMap::new();
    for &(t, at) in stamps {
        by_thread.entry(t).or_default().push(at);
    }
    let mut durations = Vec::with_capacity(stamps.len());
    let mut idle = (threads.saturating_sub(by_thread.len())) as f64 * wall;
    for times in by_thread.values_mut() {
        times.sort_by(f64::total_cmp);
        let mut prev = 0.0;
        for &at in times.iter() {
            durations.push(at - prev);
            prev = at;
        }
        idle += wall - prev;
    }
    (durations, idle)
}

fn plain(ctx: &Ctx, specs: &[SweepSpec]) -> Result<Unit, String> {
    let mut unit = Unit {
        setup_s: ctx.elapsed(),
        ..Unit::default()
    };
    let threads = stats::cores();
    let cpu0 = stats::cpu_seconds();
    let mut all = Vec::new();
    let mut swept = 0.0;
    let mut idle = 0.0;
    let mut job_s = Vec::new();
    for spec in specs {
        let (records, wall, stamps) = sweep_with_stamps(spec)?;
        let (durations, spare) = job_times(wall, threads, &stamps);
        swept += wall;
        idle += spare;
        job_s.extend(durations);
        all.push(records);
    }
    unit.wall_s = ctx.elapsed();
    let cpu = stats::cpu_seconds() - cpu0;
    unit.peak_rss_mb = stats::peak_rss_mb();

    // The radio-axis sweep again in the same process.
    let rerun_started = ctx.elapsed();
    let (again, _, _) = sweep_with_stamps(&specs[1])?;
    unit.rerun_s = ctx.elapsed() - rerun_started;
    unit.check(again == all[1], || {
        "panel (c) rerun changed its records".into()
    });

    let jobs: usize = all.iter().map(Vec::len).sum();
    unit.lat_ms = job_s.iter().map(|s| s * 1e3).collect();
    unit.good_ops = jobs as u64;
    unit.window_s = swept;
    unit.work_s = swept;
    unit.digest = all.iter().fold(stats::FNV_START, |h, r| {
        crn_core::fnv1a_64(h, &pipeline::records_digest(r).to_le_bytes())
    });
    unit.layer("sweep.jobs", jobs as f64);
    unit.layer("sweep.job_p50_s", stats::median(&job_s));
    unit.layer("sweep.job_max_s", stats::percentile(&job_s, 100.0));
    unit.layer(
        "sweep.idle_frac",
        stats::ratio(idle, threads as f64 * swept),
    );
    unit.layer("proc.cpu_util", stats::ratio(cpu, threads as f64 * swept));

    // Outside the timed region: a seeded sample of jobs re-run from a
    // fresh generation under the invariant oracle must be clean and give
    // the very records the sweep produced.
    let mut rng = stats::Rng::new(ctx.seed ^ 0xC4EC);
    for (spec, records) in specs.iter().zip(&all) {
        let jobs = spec.jobs();
        unit.check(records.len() == jobs.len(), || {
            format!(
                "{}: {} records for {} jobs",
                spec.figure,
                records.len(),
                jobs.len()
            )
        });
        let i = rng.below(jobs.len());
        let job = &jobs[i];
        let checked = Scenario::generate(&job.params)
            .and_then(|s| s.run_checked(job.algorithm))
            .map(|(o, _)| RunRecord::from_outcome(&job.figure, job.x_name, job.x, job.rep, &o));
        unit.check(checked.as_ref().ok() == records.get(i), || {
            format!(
                "{} {}={} rep {} {}: checked re-run gave {checked:?}",
                job.figure, job.x_name, job.x, job.rep, job.algorithm
            )
        });
    }
    // One operation per job: each record must carry its own job's
    // identity.
    for (spec, records) in specs.iter().zip(&all) {
        for (job, r) in spec.jobs().iter().zip(records) {
            let same = r.figure == job.figure
                && r.x.to_bits() == job.x.to_bits()
                && r.algorithm == job.algorithm
                && r.rep == job.rep;
            unit.check(same, || {
                format!(
                    "{} {}={} rep {}: record of another job",
                    job.figure, job.x_name, job.x, job.rep
                )
            });
        }
    }
    Ok(unit)
}

fn traced(ctx: &Ctx, specs: &[SweepSpec]) -> Result<Unit, String> {
    let mut unit = Unit {
        setup_s: ctx.elapsed(),
        ..Unit::default()
    };
    let threads = stats::cores();
    let work = Mutex::new(Work::default());
    let mut replayed = 0.0;
    let mut digest = stats::FNV_START;
    for spec in specs {
        let started = std::time::Instant::now();
        let records = pipeline::replay_sweep(spec, threads, &work)?;
        replayed += started.elapsed().as_secs_f64();
        digest = crn_core::fnv1a_64(digest, &pipeline::records_digest(&records).to_le_bytes());
    }
    unit.wall_s = ctx.elapsed();
    unit.work_s = replayed;
    unit.digest = digest;
    let work = work.into_inner().expect("work lock");
    pipeline::layer_metrics(&mut unit, &trace::spans(), &work, Some((threads, replayed)));
    Ok(unit)
}
