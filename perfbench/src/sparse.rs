//! `scale-sparse`: the deterministic grid world of
//! `crn_bench::synthetic` at n = 20,000 SUs and 4,000 PUs under
//! `Truncated { epsilon: 0.1 }`, with one sequential capped run.
//!
//! Radio customization dominates: `setup_s` is the grid topology plus
//! `SimWorld::new`, and the event loop runs the Delta SIR path, not the
//! Scan path `fig6-sweep` uses. The rerun re-customizes the world for a
//! higher SU power (`SimWorld::recustomize`) and runs it again. The world
//! is the same for every seed; the seed drives the simulation.
//!
//! The PUs transmit in each slot with probability 0.3, the protocol's
//! default `p_t`, so the run exercises the Delta path's PU on/off updates
//! and PU-blocked contention; the simulator's default (and `bench_sim`'s)
//! is a silent primary network.
//!
//! n is 20,000 rather than 50,000: at 50k customization alone took
//! 8.3–9.5 s over five runs, too long and too noisy for the repetitions
//! a steady median needs, while 20k still shows twice the per-SU
//! customization cost of 5k.

use crate::pipeline::{self, Work};
use crate::{stats, trace, Ctx, Unit};
use crn_bench::synthetic::{grid_radio, grid_topology};
use crn_interference::PhyParams;
use crn_sim::{
    InterferenceModel, InvariantChecker, MacConfig, SimWorld, Simulator, SimulatorBuilder,
};
use crn_spectrum::PuActivity;
use std::sync::Arc;

/// The SU count at full size and at smoke size.
const N: usize = 20_000;
const N_SMOKE: usize = 500;
/// Per-slot transmission probability of every PU.
const PU_P_T: f64 = 0.3;
/// Simulated seconds of each capped run: 100 slots.
const HORIZON_S: f64 = 0.1;
/// Simulated seconds of the prefix run under the invariant oracle. Its
/// exact SIR audit costs O(transmitters × PUs) per transmission start,
/// seconds for a fraction of a slot of this world, so the prefix covers
/// only the first transmission starts; the Scan-path replay of the whole
/// capped runs covers the verdicts.
const ORACLE_HORIZON_S: f64 = 0.00002;

/// `phy` with the SU transmit power raised by half: a radio-only change.
fn bump_su_power(phy: &PhyParams) -> Result<PhyParams, String> {
    let mut b = PhyParams::builder();
    b.alpha(phy.alpha())
        .pu_power(phy.pu_power())
        .su_power(phy.su_power() * 1.5)
        .pu_radius(phy.pu_radius())
        .su_radius(phy.su_radius())
        .pu_sir_threshold(phy.pu_sir_threshold())
        .su_sir_threshold(phy.su_sir_threshold());
    b.build().map_err(|e| format!("bumped phy: {e}"))
}

/// A simulation of `world` for `horizon` simulated seconds under the
/// workload's PU activity.
fn simulation(world: &Arc<SimWorld>, seed: u64, horizon: f64) -> Result<SimulatorBuilder, String> {
    let activity = PuActivity::bernoulli(PU_P_T).map_err(|e| format!("activity: {e}"))?;
    Ok(Simulator::builder(Arc::clone(world))
        .mac(MacConfig {
            max_sim_time: horizon,
            ..MacConfig::default()
        })
        .activity(activity)
        .seed(seed))
}

pub fn run(ctx: &Ctx) -> Result<Unit, String> {
    let n = if ctx.opts.smoke { N_SMOKE } else { N };
    let mut unit = Unit::default();
    let mut work = Work::default();
    let started = ctx.elapsed();
    let cpu0 = stats::cpu_seconds();

    let topology = trace::in_span("topology.generate", 0, || Arc::new(grid_topology(n)));
    let radio = grid_radio(InterferenceModel::Truncated { epsilon: 0.1 });
    let world = trace::in_span("radio.customize", 0, || SimWorld::new(topology, radio))
        .map_err(|e| format!("customize: {e}"))?;
    work.count_build(&world);
    let world = Arc::new(world);
    unit.setup_s = ctx.elapsed();

    let first = trace::in_span("engine.run", 1, || {
        simulation(&world, ctx.seed, HORIZON_S)?
            .build()
            .map(Simulator::run)
            .map_err(|e| format!("simulator: {e}"))
    })?;
    unit.wall_s = ctx.elapsed();
    let run_s = unit.wall_s - unit.setup_s;

    let rerun_started = ctx.elapsed();
    let bumped = radio.phy(bump_su_power(&radio.phy)?);
    let rerun_world = trace::in_span("radio.recustomize", 2, || world.recustomize(bumped))
        .map_err(|e| format!("recustomize: {e}"))?;
    let rerun_world = Arc::new(rerun_world);
    let rerun_run_started = ctx.elapsed();
    let second = trace::in_span("engine.run", 2, || {
        simulation(&rerun_world, ctx.seed, HORIZON_S)?
            .build()
            .map(Simulator::run)
            .map_err(|e| format!("simulator: {e}"))
    })?;
    let finished = ctx.elapsed();
    unit.rerun_s = finished - rerun_started;
    let cpu = stats::cpu_seconds() - cpu0;
    unit.peak_rss_mb = stats::peak_rss_mb();

    let rerun_run_s = finished - rerun_run_started;
    eprintln!(
        "scale-sparse unit {}: setup {:.3} s, run {run_s:.3} s, rerun {:.3} s",
        ctx.unit, unit.setup_s, unit.rerun_s
    );
    unit.lat_ms = vec![run_s * 1e3, rerun_run_s * 1e3];
    unit.good_ops = 2;
    unit.window_s = run_s + rerun_run_s;
    unit.work_s = finished - started;
    work.count_run(&first);
    work.count_run(&second);
    unit.digest = [&first, &second].iter().fold(stats::FNV_START, |h, r| {
        crn_core::fnv1a_64(h, format!("{r:?}").as_bytes())
    });
    unit.layer("proc.cpu_util", stats::ratio(cpu, finished - started));
    if ctx.opts.trace {
        pipeline::layer_metrics(
            &mut unit,
            &trace::spans(),
            &work,
            Some((1, finished - started)),
        );
    }

    // Outside the timed region. Every run must have made progress. The
    // first unit of a run also replays both capped runs on the engine's
    // Scan reference path, which must give the very same reports, and
    // runs a prefix of the fresh world under the invariant oracle, which
    // recomputes every SIR sum from positions. Together these cost about
    // 4 s on a world that is the same in every unit, so one unit per run
    // carries them and the others fit more timed repetitions.
    for (i, report) in [&first, &second].into_iter().enumerate() {
        unit.check(report.attempts > 0 && report.events_processed > 0, || {
            format!("n={n} run {i}: the capped run made no progress")
        });
    }
    if ctx.unit != 0 {
        return Ok(unit);
    }
    for (i, (report, w)) in [(&first, &world), (&second, &rerun_world)]
        .into_iter()
        .enumerate()
    {
        let scan = simulation(w, ctx.seed, HORIZON_S)?
            .full_scan(true)
            .build()
            .map(Simulator::run);
        unit.check(scan.as_ref().ok() == Some(report), || {
            format!(
                "n={n} run {i} seed {}: Delta and Scan SIR paths disagree",
                ctx.seed
            )
        });
    }
    let checker = InvariantChecker::new(
        Arc::clone(&world),
        MacConfig {
            max_sim_time: ORACLE_HORIZON_S,
            ..MacConfig::default()
        },
    )
    .with_repro(ctx.seed, "scale-sparse");
    let checked = simulation(&world, ctx.seed, ORACLE_HORIZON_S)?
        .probe(checker)
        .build()
        .map(Simulator::run_with_probe);
    unit.check(
        matches!(&checked, Ok((r, oracle)) if oracle.is_clean() && r.events_processed > 0),
        || match &checked {
            Ok((_, oracle)) => format!(
                "n={n} seed {}: oracle prefix: {:?}",
                ctx.seed,
                oracle.first_violation()
            ),
            Err(e) => format!("n={n}: checked prefix failed to build: {e}"),
        },
    );
    Ok(unit)
}
