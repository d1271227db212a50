use crate::{Job, RunRecord, SweepSpec};
use crn_core::{Scenario, ScenarioError};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;

/// Execution options for [`run_sweep`].
///
/// `threads: 0` (the [`Default`]) means "auto": use
/// [`std::thread::available_parallelism`], falling back to 1. `threads: 1`
/// runs inline on the calling thread. The optional `progress` callback is
/// invoked after every completed job with `(done, total)`.
///
/// ```
/// use crn_workloads::SweepOptions;
///
/// let quiet = SweepOptions::default();           // auto threads, no progress
/// let seq = SweepOptions::sequential();          // one inline worker
/// let noisy = SweepOptions::with_threads(4)
///     .on_progress(|done, total| eprintln!("{done}/{total}"));
/// assert_eq!(quiet.threads, 0);
/// assert_eq!(seq.threads, 1);
/// assert_eq!(noisy.threads, 4);
/// ```
#[derive(Default)]
pub struct SweepOptions {
    /// Worker thread count; `0` = auto from available parallelism.
    pub threads: usize,
    /// Called after each completed job with `(done, total)`.
    pub progress: Option<Box<dyn Fn(usize, usize) + Send + Sync>>,
    /// Run every job under the live simulation oracle
    /// ([`crn_core::Scenario::run_checked`]): any invariant violation
    /// aborts the sweep as a [`SweepError`] carrying the violation and the
    /// failing job's identity. Off by default — the oracle roughly doubles
    /// per-job cost.
    pub check_invariants: bool,
}

impl SweepOptions {
    /// Options running on `threads` workers (0 = auto).
    #[must_use]
    pub fn with_threads(threads: usize) -> Self {
        Self {
            threads,
            ..Self::default()
        }
    }

    /// Options running inline on the calling thread.
    #[must_use]
    pub fn sequential() -> Self {
        Self::with_threads(1)
    }

    /// Attach a progress callback invoked after every completed job.
    #[must_use]
    pub fn on_progress<F>(mut self, progress: F) -> Self
    where
        F: Fn(usize, usize) + Send + Sync + 'static,
    {
        self.progress = Some(Box::new(progress));
        self
    }

    /// Enable (or disable) the live simulation oracle for every job.
    #[must_use]
    pub fn check_invariants(mut self, check: bool) -> Self {
        self.check_invariants = check;
        self
    }

    fn effective_threads(&self) -> usize {
        if self.threads > 0 {
            self.threads
        } else {
            std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
        }
    }
}

/// A sweep job that failed to generate or run, with enough identity to
/// reproduce it in isolation.
#[derive(Debug)]
pub struct SweepError {
    /// Figure the failing job belongs to.
    pub figure: String,
    /// Swept-axis name (e.g. `p_t`).
    pub x_name: &'static str,
    /// Swept-axis value of the failing job.
    pub x: f64,
    /// Repetition index of the failing job.
    pub rep: u32,
    /// Underlying scenario failure.
    pub source: ScenarioError,
}

impl std::fmt::Display for SweepError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "sweep job failed for {} {}={} rep {}: {}",
            self.figure, self.x_name, self.x, self.rep, self.source
        )
    }
}

impl std::error::Error for SweepError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(&self.source)
    }
}

/// Executes every job of `spec` and returns one [`RunRecord`] per job, in
/// job order.
///
/// The sweep is embarrassingly parallel; [`SweepOptions::threads`] picks
/// the worker count (0 = auto). Workers claim one **group** of consecutive
/// jobs at a time — [`SweepSpec::jobs`] puts algorithms innermost, so the
/// jobs of a chunk differ only in algorithm and share one generated
/// [`Scenario`] (deployment sampling, connectivity retries, and the
/// per-algorithm simulator worlds are built once per chunk instead of once
/// per job). For **radio axes** ([`crate::AxisKind::varies_topology`] is
/// false) the claimed group widens to a whole repetition — every axis
/// value over one shared deployment — and each value's scenario derives
/// from the previous one via [`Scenario::recustomized`], so the expensive
/// topology phase runs once per repetition, not once per point. A
/// scenario that fails to generate (e.g. a disconnected deployment beyond
/// the retry budget) or to run aborts the sweep — remaining jobs are
/// cancelled at the next boundary — and is reported as a [`SweepError`]
/// carrying the failing job's identity, so a sweep whose points silently
/// vanish cannot misreport a figure.
///
/// # Errors
///
/// Returns the first [`SweepError`] (in job order) encountered.
pub fn run_sweep(spec: &SweepSpec, options: SweepOptions) -> Result<Vec<RunRecord>, SweepError> {
    let jobs = spec.jobs();
    let total = jobs.len();
    let chunk_len = spec.algorithms.len().max(1);
    // Radio axes share one topology per repetition, so a worker claims the
    // repetition's whole contiguous run of jobs and re-customizes along it.
    let stride = if spec.axis.kind.varies_topology() {
        chunk_len
    } else {
        chunk_len * spec.axis.values.len().max(1)
    };
    let threads = options.effective_threads();
    let progress = options.progress.as_deref();
    let check_invariants = options.check_invariants;

    let done = AtomicUsize::new(0);
    let next = AtomicUsize::new(0);
    let failed = AtomicBool::new(false);
    let mut results: Vec<Option<Result<RunRecord, SweepError>>> = Vec::new();
    results.resize_with(total, || None);
    let results = Mutex::new(&mut results);

    let record = |slot: usize, outcome: Result<RunRecord, SweepError>| {
        if outcome.is_err() {
            failed.store(true, Ordering::Relaxed);
        }
        results.lock().expect("results lock poisoned")[slot] = Some(outcome);
        if let Some(progress) = progress {
            progress(done.fetch_add(1, Ordering::Relaxed) + 1, total);
        }
    };

    let worker = |jobs: &[Job]| 'claims: loop {
        let start = next.fetch_add(1, Ordering::Relaxed) * stride;
        if start >= jobs.len() || failed.load(Ordering::Relaxed) {
            break;
        }
        let group = &jobs[start..(start + stride).min(jobs.len())];
        let mut scenario: Option<Scenario> = None;
        for (chunk_idx, chunk) in group.chunks(chunk_len).enumerate() {
            debug_assert!(
                chunk.iter().all(|j| j.params == chunk[0].params),
                "a job chunk must share one parameter set"
            );
            let slot0 = start + chunk_idx * chunk_len;
            // `recustomized` is bit-identical to `generate` (and falls
            // back to it when the topology differs), so later chunks reuse
            // the previous chunk's deployment and worlds for free.
            let derived = match &scenario {
                None => Scenario::generate(&chunk[0].params),
                Some(prev) => prev.recustomized(&chunk[0].params),
            };
            let current = match derived {
                Ok(current) => current,
                Err(source) => {
                    record(slot0, Err(fail_for(&chunk[0], source)));
                    continue 'claims;
                }
            };
            for (offset, job) in chunk.iter().enumerate() {
                let outcome = run_group_job(&current, job, check_invariants);
                let stop = outcome.is_err();
                record(slot0 + offset, outcome);
                if stop {
                    continue 'claims;
                }
            }
            scenario = Some(current);
        }
    };

    if threads == 1 {
        worker(&jobs);
    } else {
        std::thread::scope(|s| {
            for _ in 0..threads {
                s.spawn(|| worker(&jobs));
            }
        });
    }

    let slots = std::mem::take(*results.lock().expect("results lock poisoned"));
    // Report the first failure in job order; cancellation may leave later
    // slots empty, but an empty slot can only exist once some job failed.
    let mut records = Vec::with_capacity(total);
    let mut first_error = None;
    for slot in slots {
        match slot {
            Some(Ok(record)) if first_error.is_none() => records.push(record),
            Some(Ok(_)) => {}
            Some(Err(e)) => return Err(e),
            None => {
                first_error.get_or_insert(());
            }
        }
    }
    debug_assert!(
        first_error.is_none() || failed.load(Ordering::Relaxed),
        "incomplete sweep without a recorded failure"
    );
    Ok(records)
}

fn fail_for(job: &Job, source: ScenarioError) -> SweepError {
    SweepError {
        figure: job.figure.clone(),
        x_name: job.x_name,
        x: job.x,
        rep: job.rep,
        source,
    }
}

fn run_group_job(
    scenario: &Scenario,
    job: &Job,
    check_invariants: bool,
) -> Result<RunRecord, SweepError> {
    // `run_checked` uses the same derived seed as `run`, so checked sweeps
    // reproduce unchecked ones bit-for-bit (probes observe, never perturb).
    let outcome = if check_invariants {
        scenario.run_checked(job.algorithm).map(|(o, _)| o)
    } else {
        scenario.run(job.algorithm)
    }
    .map_err(|source| fail_for(job, source))?;
    Ok(RunRecord::from_outcome(
        &job.figure,
        job.x_name,
        job.x,
        job.rep,
        &outcome,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Axis, AxisKind};
    use crn_core::CollectionAlgorithm::{Addc, Coolest};
    use crn_core::ScenarioParams;
    use std::sync::atomic::AtomicUsize;

    fn tiny_spec() -> SweepSpec {
        SweepSpec {
            figure: "t".into(),
            base: ScenarioParams::builder()
                .num_sus(40)
                .num_pus(6)
                .area_side(40.0)
                .max_connectivity_attempts(500)
                .build(),
            axis: Axis::new(AxisKind::Pt, vec![0.1, 0.2]),
            algorithms: vec![Addc, Coolest],
            reps: 2,
        }
    }

    fn impossible_spec() -> SweepSpec {
        // 40 SUs scattered over a huge area with a tiny retry budget can
        // never produce a connected deployment.
        SweepSpec {
            figure: "fail".into(),
            base: ScenarioParams::builder()
                .num_sus(40)
                .num_pus(0)
                .area_side(100_000.0)
                .max_connectivity_attempts(2)
                .build(),
            axis: Axis::new(AxisKind::Pt, vec![0.1]),
            algorithms: vec![Addc],
            reps: 1,
        }
    }

    #[test]
    fn sequential_run_produces_all_records() {
        let spec = tiny_spec();
        let calls = std::sync::Arc::new(AtomicUsize::new(0));
        let seen = calls.clone();
        let records = run_sweep(
            &spec,
            SweepOptions::sequential().on_progress(move |_d, t| {
                assert_eq!(t, 8);
                seen.fetch_add(1, Ordering::Relaxed);
            }),
        )
        .expect("tiny sweep succeeds");
        assert_eq!(records.len(), 8);
        assert_eq!(calls.load(Ordering::Relaxed), 8);
        assert!(records.iter().all(|r| r.finished));
    }

    #[test]
    fn threaded_matches_sequential() {
        let spec = tiny_spec();
        let seq = run_sweep(&spec, SweepOptions::sequential()).unwrap();
        let par = run_sweep(&spec, SweepOptions::with_threads(3)).unwrap();
        assert_eq!(seq, par, "parallel execution must not change results");
    }

    #[test]
    fn zero_threads_means_auto_not_panic() {
        let spec = tiny_spec();
        let auto = run_sweep(&spec, SweepOptions::default()).unwrap();
        let seq = run_sweep(&spec, SweepOptions::sequential()).unwrap();
        assert_eq!(auto, seq);
    }

    #[test]
    fn records_carry_job_identity() {
        let spec = tiny_spec();
        let records = run_sweep(&spec, SweepOptions::sequential()).unwrap();
        assert!(records.iter().any(|r| r.x == 0.1 && r.algorithm == Addc));
        assert!(records.iter().any(|r| r.x == 0.2 && r.algorithm == Coolest));
        assert!(records.iter().all(|r| r.figure == "t" && r.x_name == "p_t"));
    }

    #[test]
    fn checked_sweep_matches_unchecked() {
        let spec = tiny_spec();
        let plain = run_sweep(&spec, SweepOptions::sequential()).unwrap();
        let checked = run_sweep(&spec, SweepOptions::sequential().check_invariants(true))
            .expect("tiny sweep is invariant-clean");
        assert_eq!(plain, checked, "the oracle must not perturb results");
    }

    #[test]
    fn radio_axis_sweep_matches_per_point_fresh_generation() {
        // The runner serves a radio axis from one scenario per rep via
        // recustomization; every record must still be bit-identical to
        // generating that point's scenario from scratch.
        let spec = tiny_spec();
        let records = run_sweep(&spec, SweepOptions::sequential()).unwrap();
        let jobs = spec.jobs();
        assert_eq!(records.len(), jobs.len());
        for (job, rec) in jobs.iter().zip(&records) {
            let fresh = Scenario::generate(&job.params)
                .unwrap()
                .run(job.algorithm)
                .unwrap();
            let expect = RunRecord::from_outcome(&job.figure, job.x_name, job.x, job.rep, &fresh);
            assert_eq!(
                rec, &expect,
                "{}={} rep {} {}: recustomized sweep diverged",
                job.x_name, job.x, job.rep, job.algorithm
            );
        }
    }

    #[test]
    fn topology_axis_sweep_still_groups_per_point() {
        // Node-count axes cannot share a deployment; the sweep must still
        // produce one record per job with per-point worlds.
        let spec = SweepSpec {
            axis: Axis::new(AxisKind::NumPus, vec![4.0, 8.0]),
            ..tiny_spec()
        };
        let records = run_sweep(&spec, SweepOptions::sequential()).unwrap();
        assert_eq!(records.len(), 8);
        let par = run_sweep(&spec, SweepOptions::with_threads(3)).unwrap();
        assert_eq!(records, par);
    }

    #[test]
    fn failures_are_reported_not_panicked() {
        let err = run_sweep(&impossible_spec(), SweepOptions::sequential())
            .expect_err("disconnected scenario must fail");
        assert_eq!(err.figure, "fail");
        assert_eq!(err.rep, 0);
        let msg = err.to_string();
        assert!(
            msg.contains("fail"),
            "error message carries identity: {msg}"
        );
    }
}
