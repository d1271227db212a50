/// Per-SU counters, indexed like the world's nodes (entry 0 is the base
/// station, which never transmits). These are the raw material for
/// straggler analysis: a node with many attempts and few successes sits
/// in a PU-dense pocket or a collision hot spot.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NodeStats {
    /// Transmission attempts by this node.
    pub attempts: u32,
    /// Successful transmissions by this node.
    pub successes: u32,
    /// Spectrum handoffs suffered by this node.
    pub pu_aborts: u32,
    /// SIR losses suffered by this node's transmissions.
    pub sir_failures: u32,
    /// Largest queue this node ever held.
    pub peak_queue: u32,
    /// Transmissions by this node voided by an injected fault (its own
    /// crash/pause, a dead receiver, or a base-station brownout).
    pub fault_aborts: u32,
    /// Packets lost at this node to injected faults (queue dropped on
    /// crash, or generated while crashed).
    pub packets_lost: u32,
}

/// Outcome of one simulated data collection task.
///
/// Produced by [`crate::Simulator::run`]; all delay quantities are in
/// simulated seconds unless suffixed `_slots`.
#[derive(Clone, Debug, PartialEq)]
pub struct SimReport {
    /// Whether the whole snapshot reached the base station before the
    /// safety cap.
    pub finished: bool,
    /// Time at which the last packet arrived (or the cap, if unfinished).
    pub delay: f64,
    /// [`SimReport::delay`] expressed in slots of `τ`.
    pub delay_slots: f64,
    /// Snapshot size (`n`: one packet per SU, base station excluded).
    pub packets_expected: usize,
    /// Packets that reached the base station.
    pub packets_delivered: usize,
    /// Per-origin delivery time, indexed by SU id (entry 0, the base
    /// station, is always `None`).
    pub delivery_times: Vec<Option<f64>>,
    /// Transmission attempts (airtime occupations).
    pub attempts: u64,
    /// Successful child → parent packet deliveries.
    pub successes: u64,
    /// Transmissions aborted by spectrum handoff (a PU activated inside
    /// the transmitter's PCR mid-transmission).
    pub pu_aborts: u64,
    /// Receptions lost to cumulative SIR violations.
    pub sir_failures: u64,
    /// Receptions lost to RS-mode capture (a stronger signal took the
    /// receiver).
    pub capture_losses: u64,
    /// Largest queue length observed at any SU — the paper's "data
    /// accumulation effect" made measurable (routing structures that
    /// funnel flows onto shared relays push this up).
    pub peak_queue: usize,
    /// Mean time from the start of a backoff round to a successful
    /// transmission's end (per-packet service time; compare Theorem 1).
    pub mean_service_time: f64,
    /// Maximum observed per-packet service time.
    pub max_service_time: f64,
    /// Total events processed (diagnostic).
    pub events_processed: u64,
    /// Packets lost to injected faults (crashed queues and packets
    /// generated on crashed nodes). Always 0 in fault-free runs; packet
    /// conservation is `generated = delivered + queued + packets_lost`.
    pub packets_lost: u64,
    /// Transmissions voided by injected faults (transmitter crash/pause,
    /// dead receiver, base-station brownout). Always 0 without faults.
    pub fault_aborts: u64,
    /// Self-healing re-parent operations performed.
    pub reparents: u32,
    /// Mean latency from orphaning to adoption across re-parents
    /// (0 when none occurred), in seconds.
    pub reparent_latency_mean: f64,
    /// Largest re-parent latency observed, in seconds.
    pub reparent_latency_max: f64,
    /// Per-node counters (entry 0 is the base station).
    pub node_stats: Vec<NodeStats>,
}

impl SimReport {
    /// Achieved data-collection capacity as a fraction of the channel
    /// bandwidth `W` (the paper's upper bound is `W`, i.e. fraction 1):
    /// `delivered / delay_slots`.
    ///
    /// Returns 0 when nothing was delivered.
    #[must_use]
    pub fn capacity_fraction(&self) -> f64 {
        if self.packets_delivered == 0 || self.delay_slots <= 0.0 {
            0.0
        } else {
            self.packets_delivered as f64 / self.delay_slots
        }
    }

    /// Jain's fairness index over per-origin delivery times (1 = all flows
    /// finished together; → `1/n` = one flow hogged the channel). Every
    /// delivered flow counts, including deliveries at `t = 0` —
    /// undelivered flows are the `None` entries, not the zero times.
    /// Returns `None` if fewer than two flows were delivered.
    #[must_use]
    pub fn jain_fairness(&self) -> Option<f64> {
        let times: Vec<f64> = self.delivery_times.iter().flatten().copied().collect();
        if times.len() < 2 {
            return None;
        }
        let sum: f64 = times.iter().sum();
        let sum_sq: f64 = times.iter().map(|t| t * t).sum();
        Some(sum * sum / (times.len() as f64 * sum_sq))
    }

    /// Fraction of the expected snapshot that reached the base station:
    /// `delivered / expected` (1 when nothing was expected). Under fault
    /// injection this is the headline degradation metric — packets lost
    /// to crashes pull it below 1 even in "finished" runs, where every
    /// surviving packet was accounted for.
    #[must_use]
    pub fn delivery_ratio(&self) -> f64 {
        if self.packets_expected == 0 {
            1.0
        } else {
            self.packets_delivered as f64 / self.packets_expected as f64
        }
    }

    /// Per-node fault-loss counts, indexed like [`SimReport::node_stats`]
    /// (entry 0 is the base station): how many packets each node lost to
    /// injected faults. All zeros in fault-free runs.
    #[must_use]
    pub fn loss_counts(&self) -> Vec<u32> {
        self.node_stats.iter().map(|s| s.packets_lost).collect()
    }

    /// Fraction of attempts that succeeded.
    #[must_use]
    pub fn success_rate(&self) -> f64 {
        if self.attempts == 0 {
            0.0
        } else {
            self.successes as f64 / self.attempts as f64
        }
    }

    /// Node ids sorted by descending attempt count — the contention hot
    /// spots (truncated to `top`).
    #[must_use]
    pub fn busiest_nodes(&self, top: usize) -> Vec<u32> {
        let mut ids: Vec<u32> = (0..self.node_stats.len() as u32).collect();
        ids.sort_by_key(|&u| std::cmp::Reverse(self.node_stats[u as usize].attempts));
        ids.truncate(top);
        ids
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report() -> SimReport {
        SimReport {
            finished: true,
            delay: 0.01,
            delay_slots: 10.0,
            packets_expected: 5,
            packets_delivered: 5,
            delivery_times: vec![
                None,
                Some(0.002),
                Some(0.004),
                Some(0.006),
                Some(0.008),
                Some(0.01),
            ],
            attempts: 8,
            successes: 6,
            pu_aborts: 1,
            sir_failures: 1,
            capture_losses: 0,
            peak_queue: 3,
            mean_service_time: 0.001,
            max_service_time: 0.002,
            events_processed: 100,
            packets_lost: 0,
            fault_aborts: 0,
            reparents: 0,
            reparent_latency_mean: 0.0,
            reparent_latency_max: 0.0,
            node_stats: vec![NodeStats::default(); 6],
        }
    }

    #[test]
    fn delivery_ratio_and_loss_counts() {
        let mut r = report();
        assert!((r.delivery_ratio() - 1.0).abs() < 1e-12);
        r.packets_delivered = 3;
        assert!((r.delivery_ratio() - 0.6).abs() < 1e-12);
        r.packets_expected = 0;
        assert_eq!(r.delivery_ratio(), 1.0);
        let mut r = report();
        r.node_stats[2].packets_lost = 4;
        assert_eq!(r.loss_counts(), vec![0, 0, 4, 0, 0, 0]);
    }

    #[test]
    fn capacity_fraction_is_delivered_over_slots() {
        let r = report();
        assert!((r.capacity_fraction() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn capacity_zero_when_nothing_delivered() {
        let mut r = report();
        r.packets_delivered = 0;
        assert_eq!(r.capacity_fraction(), 0.0);
    }

    #[test]
    fn jain_equal_times_is_one() {
        let mut r = report();
        r.delivery_times = vec![None, Some(3.0), Some(3.0), Some(3.0)];
        assert!((r.jain_fairness().unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn jain_skewed_times_below_one() {
        let mut r = report();
        r.delivery_times = vec![None, Some(1.0), Some(100.0)];
        let j = r.jain_fairness().unwrap();
        assert!(j < 0.6, "jain {j}");
        assert!(j > 0.5 - 1e-9, "jain lower bound 1/n: {j}");
    }

    #[test]
    fn jain_counts_time_zero_deliveries() {
        // A delivery at t = 0 is a delivered flow, not a missing one: with
        // one flow at 0 and one at 2, Jain is (0+2)²/(2·(0²+2²)) = 0.5.
        let mut r = report();
        r.delivery_times = vec![None, Some(0.0), Some(2.0)];
        let j = r.jain_fairness().expect("two delivered flows");
        assert!((j - 0.5).abs() < 1e-12, "jain {j}");
        // Two flows, one delivered at 0: still only pairs with a second
        // *delivered* flow — a lone t = 0 delivery yields None.
        r.delivery_times = vec![None, Some(0.0), None];
        assert_eq!(r.jain_fairness(), None);
    }

    #[test]
    fn jain_requires_two_flows() {
        let mut r = report();
        r.delivery_times = vec![None, Some(1.0)];
        assert_eq!(r.jain_fairness(), None);
    }

    #[test]
    fn success_rate() {
        let r = report();
        assert!((r.success_rate() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn busiest_nodes_sorted_and_truncated() {
        let mut r = report();
        r.node_stats[2].attempts = 9;
        r.node_stats[4].attempts = 3;
        let top = r.busiest_nodes(2);
        assert_eq!(top, vec![2, 4]);
        assert_eq!(r.busiest_nodes(0), Vec::<u32>::new());
    }
}
