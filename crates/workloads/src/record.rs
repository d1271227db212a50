use crn_core::{CollectionAlgorithm, CollectionOutcome};

/// One `(figure, x, algorithm, repetition)` simulation result — the raw
/// row the harness stores before aggregation.
#[derive(Clone, Debug, PartialEq)]
pub struct RunRecord {
    /// Figure identifier (e.g. `"fig6a"`).
    pub figure: String,
    /// Axis label (`N`, `n`, `p_t`, ...).
    pub x_name: String,
    /// Axis value.
    pub x: f64,
    /// Algorithm run.
    pub algorithm: CollectionAlgorithm,
    /// Repetition index.
    pub rep: u32,
    /// Whether the collection task completed before the cap.
    pub finished: bool,
    /// Data collection delay in slots.
    pub delay_slots: f64,
    /// Achieved capacity as a fraction of `W`.
    pub capacity_fraction: f64,
    /// Jain fairness over delivered flows (if at least two).
    pub jain: Option<f64>,
    /// Transmission attempts.
    pub attempts: u64,
    /// Successful transmissions.
    pub successes: u64,
    /// Spectrum-handoff aborts.
    pub pu_aborts: u64,
    /// SIR reception failures.
    pub sir_failures: u64,
    /// RS-capture losses.
    pub capture_losses: u64,
    /// Largest queue observed at any SU (data accumulation).
    pub peak_queue: usize,
    /// Routing tree height.
    pub tree_height: u32,
    /// Routing tree maximum degree `Δ`.
    pub tree_max_degree: usize,
}

impl RunRecord {
    /// Builds a record from a job's identity and its outcome.
    #[must_use]
    pub fn from_outcome(
        figure: &str,
        x_name: &str,
        x: f64,
        rep: u32,
        outcome: &CollectionOutcome,
    ) -> Self {
        let r = &outcome.report;
        Self {
            figure: figure.to_owned(),
            x_name: x_name.to_owned(),
            x,
            algorithm: outcome.algorithm,
            rep,
            finished: r.finished,
            delay_slots: r.delay_slots,
            capacity_fraction: r.capacity_fraction(),
            jain: r.jain_fairness(),
            attempts: r.attempts,
            successes: r.successes,
            pu_aborts: r.pu_aborts,
            sir_failures: r.sir_failures,
            capture_losses: r.capture_losses,
            peak_queue: r.peak_queue,
            tree_height: outcome.tree_height,
            tree_max_degree: outcome.tree_max_degree,
        }
    }
}

/// Mean/std summary of all repetitions at one `(figure, x, algorithm)`
/// point — one series point of a paper figure.
#[derive(Clone, Debug, PartialEq)]
pub struct AggregatePoint {
    /// Figure identifier.
    pub figure: String,
    /// Axis label.
    pub x_name: String,
    /// Axis value.
    pub x: f64,
    /// Algorithm.
    pub algorithm: CollectionAlgorithm,
    /// Repetitions aggregated.
    pub reps: usize,
    /// Repetitions that finished before the cap.
    pub finished_reps: usize,
    /// Mean delay in slots (finished reps only; cap value otherwise).
    pub mean_delay_slots: f64,
    /// Sample standard deviation of the delay.
    pub std_delay_slots: f64,
    /// Mean capacity fraction.
    pub mean_capacity: f64,
    /// Mean Jain fairness (reps reporting one).
    pub mean_jain: Option<f64>,
    /// Mean per-attempt success rate.
    pub mean_success_rate: f64,
}

/// Groups raw records into per-point aggregates, ordered by
/// `(figure, x, algorithm)`.
#[must_use]
pub fn aggregate(records: &[RunRecord]) -> Vec<AggregatePoint> {
    let mut keys: Vec<(&str, u64, CollectionAlgorithm)> = records
        .iter()
        .map(|r| (r.figure.as_str(), r.x.to_bits(), r.algorithm))
        .collect();
    keys.sort_unstable_by(|a, b| {
        a.0.cmp(b.0)
            .then_with(|| f64::from_bits(a.1).total_cmp(&f64::from_bits(b.1)))
            .then_with(|| format!("{:?}", a.2).cmp(&format!("{:?}", b.2)))
    });
    keys.dedup();

    keys.into_iter()
        .map(|(figure, x_bits, algorithm)| {
            let x = f64::from_bits(x_bits);
            let group: Vec<&RunRecord> = records
                .iter()
                .filter(|r| {
                    r.figure == figure && r.x.to_bits() == x_bits && r.algorithm == algorithm
                })
                .collect();
            let delays: Vec<f64> = group.iter().map(|r| r.delay_slots).collect();
            let mean = delays.iter().sum::<f64>() / delays.len() as f64;
            let var = if delays.len() > 1 {
                delays.iter().map(|d| (d - mean).powi(2)).sum::<f64>() / (delays.len() - 1) as f64
            } else {
                0.0
            };
            let jains: Vec<f64> = group.iter().filter_map(|r| r.jain).collect();
            let success_rates: Vec<f64> = group
                .iter()
                .map(|r| {
                    if r.attempts == 0 {
                        0.0
                    } else {
                        r.successes as f64 / r.attempts as f64
                    }
                })
                .collect();
            AggregatePoint {
                figure: figure.to_owned(),
                x_name: group[0].x_name.clone(),
                x,
                algorithm,
                reps: group.len(),
                finished_reps: group.iter().filter(|r| r.finished).count(),
                mean_delay_slots: mean,
                std_delay_slots: var.sqrt(),
                mean_capacity: group.iter().map(|r| r.capacity_fraction).sum::<f64>()
                    / group.len() as f64,
                mean_jain: if jains.is_empty() {
                    None
                } else {
                    Some(jains.iter().sum::<f64>() / jains.len() as f64)
                },
                mean_success_rate: success_rates.iter().sum::<f64>() / success_rates.len() as f64,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crn_core::CollectionAlgorithm::{Addc, Coolest};

    fn record(x: f64, algorithm: CollectionAlgorithm, rep: u32, delay: f64) -> RunRecord {
        RunRecord {
            figure: "f".into(),
            x_name: "N".into(),
            x,
            algorithm,
            rep,
            finished: true,
            delay_slots: delay,
            capacity_fraction: 0.5,
            jain: Some(0.9),
            attempts: 10,
            successes: 8,
            pu_aborts: 1,
            sir_failures: 1,
            capture_losses: 0,
            peak_queue: 2,
            tree_height: 4,
            tree_max_degree: 6,
        }
    }

    #[test]
    fn aggregate_groups_by_x_and_algorithm() {
        let records = vec![
            record(1.0, Addc, 0, 10.0),
            record(1.0, Addc, 1, 20.0),
            record(1.0, Coolest, 0, 30.0),
            record(2.0, Addc, 0, 40.0),
        ];
        let points = aggregate(&records);
        assert_eq!(points.len(), 3);
        let p = points
            .iter()
            .find(|p| p.x == 1.0 && p.algorithm == Addc)
            .unwrap();
        assert_eq!(p.reps, 2);
        assert!((p.mean_delay_slots - 15.0).abs() < 1e-12);
        assert!((p.std_delay_slots - 50.0_f64.sqrt()).abs() < 1e-9);
    }

    #[test]
    fn aggregate_is_sorted_by_x() {
        let records = vec![
            record(3.0, Addc, 0, 1.0),
            record(1.0, Addc, 0, 1.0),
            record(2.0, Addc, 0, 1.0),
        ];
        let xs: Vec<f64> = aggregate(&records).iter().map(|p| p.x).collect();
        assert_eq!(xs, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn single_rep_has_zero_std() {
        let points = aggregate(&[record(1.0, Addc, 0, 10.0)]);
        assert_eq!(points[0].std_delay_slots, 0.0);
    }

    #[test]
    fn unfinished_reps_counted() {
        let mut a = record(1.0, Addc, 0, 10.0);
        a.finished = false;
        let points = aggregate(&[a, record(1.0, Addc, 1, 20.0)]);
        assert_eq!(points[0].reps, 2);
        assert_eq!(points[0].finished_reps, 1);
    }

    #[test]
    fn success_rate_mean() {
        let points = aggregate(&[record(1.0, Addc, 0, 10.0)]);
        assert!((points[0].mean_success_rate - 0.8).abs() < 1e-12);
    }

    #[test]
    fn jain_absent_when_no_reps_report_it() {
        let mut a = record(1.0, Addc, 0, 10.0);
        a.jain = None;
        assert_eq!(aggregate(&[a])[0].mean_jain, None);
    }
}
