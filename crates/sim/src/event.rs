use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Kinds of simulator events.
///
/// Generation counters (`gen`) invalidate stale timer events: freezing a
/// backoff or aborting a transmission bumps the owner's generation, so any
/// already-queued event with the old generation is skipped on pop.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EventKind {
    /// Slot boundary of the primary network (reschedules itself).
    PuSlot {
        /// Slot index about to begin.
        index: u64,
    },
    /// A secondary user's backoff timer reaches zero.
    BackoffExpire {
        /// SU id.
        su: u32,
        /// Generation at scheduling time.
        gen: u32,
    },
    /// A transmission's airtime finishes.
    TxEnd {
        /// Transmitting SU id.
        su: u32,
        /// Generation at scheduling time.
        gen: u32,
    },
    /// The post-transmission fairness wait (`τ_c − t_i`) finishes.
    WaitEnd {
        /// SU id.
        su: u32,
        /// Generation at scheduling time.
        gen: u32,
    },
    /// A periodic-traffic snapshot round begins (every SU produces one
    /// packet).
    SnapshotTick {
        /// Snapshot index about to be generated.
        index: u32,
    },
    /// The next entry of the compiled fault schedule fires (chains itself
    /// to the following entry, so at most one is ever pending; an empty
    /// schedule pushes none and leaves the queue untouched).
    FaultAt {
        /// Index into the compiled, time-sorted fault schedule.
        index: u32,
    },
    /// A self-healing attempt: an orphaned SU looks for a live adoptive
    /// parent (re-scheduled while none is reachable).
    Heal {
        /// Orphaned SU id.
        su: u32,
    },
}

#[derive(Clone, Copy, Debug)]
struct Queued {
    time: f64,
    seq: u64,
    kind: EventKind,
}

/// Strict `(time, seq)` order, reversed so that std's max-heap pops the
/// earliest event. `seq` is unique, so no two entries compare equal and
/// the pop sequence does not depend on the heap's layout.
impl Ord for Queued {
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .time
            .total_cmp(&self.time)
            .then(other.seq.cmp(&self.seq))
    }
}

impl PartialOrd for Queued {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for Queued {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Queued {}

/// A deterministic future-event list: events pop in `(time, seq)` order,
/// where `seq` is assigned monotonically at push. Equal-time events
/// therefore resolve in scheduling order, making whole runs reproducible.
#[derive(Debug, Default)]
pub struct EventQueue {
    heap: BinaryHeap<Queued>,
    next_seq: u64,
}

impl EventQueue {
    /// Creates an empty queue.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedules `kind` at absolute time `time`.
    ///
    /// # Panics
    ///
    /// Panics if `time` is not finite (NaN times would corrupt the heap
    /// order).
    pub fn push(&mut self, time: f64, kind: EventKind) {
        assert!(time.is_finite(), "event time must be finite, got {time}");
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Queued { time, seq, kind });
    }

    /// Pops the earliest event as `(time, kind)`.
    pub fn pop(&mut self) -> Option<(f64, EventKind)> {
        self.heap.pop().map(|q| (q.time, q.kind))
    }

    /// Number of pending events.
    #[must_use]
    #[cfg_attr(not(test), allow(dead_code))]
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no events are pending.
    #[must_use]
    #[cfg_attr(not(test), allow(dead_code))]
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(3.0, EventKind::PuSlot { index: 3 });
        q.push(1.0, EventKind::PuSlot { index: 1 });
        q.push(2.0, EventKind::PuSlot { index: 2 });
        let times: Vec<f64> = std::iter::from_fn(|| q.pop().map(|(t, _)| t)).collect();
        assert_eq!(times, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn equal_times_pop_in_push_order() {
        let mut q = EventQueue::new();
        for su in 0..5u32 {
            q.push(1.0, EventKind::BackoffExpire { su, gen: 0 });
        }
        let sus: Vec<u32> = std::iter::from_fn(|| {
            q.pop().map(|(_, k)| match k {
                EventKind::BackoffExpire { su, .. } => su,
                _ => unreachable!(),
            })
        })
        .collect();
        assert_eq!(sus, vec![0, 1, 2, 3, 4]);
    }

    /// Seeded pushes and pops over four time values, so most events tie:
    /// every pop must be the reference's earliest, ties in push order.
    #[test]
    fn ties_pop_in_push_order_against_a_sorted_reference() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(25);
        let mut q = EventQueue::new();
        // Pending `(time, id)` pairs in pop order; `id` counts pushes.
        let mut reference: Vec<(f64, u32)> = Vec::new();
        let mut pushed = 0u32;
        for _ in 0..20_000 {
            if reference.is_empty() || rng.gen_bool(0.55) {
                let time = f64::from(rng.gen_range(0..4u32)) * 0.5;
                let at = reference.partition_point(|&(t, _)| t <= time);
                reference.insert(at, (time, pushed));
                q.push(time, EventKind::Heal { su: pushed });
                pushed += 1;
            } else {
                let (time, su) = reference.remove(0);
                assert_eq!(q.pop(), Some((time, EventKind::Heal { su })));
            }
        }
        for (time, su) in reference {
            assert_eq!(q.pop(), Some((time, EventKind::Heal { su })));
        }
        assert!(q.is_empty());
    }

    #[test]
    fn interleaved_push_pop() {
        let mut q = EventQueue::new();
        q.push(5.0, EventKind::PuSlot { index: 5 });
        q.push(1.0, EventKind::PuSlot { index: 1 });
        assert_eq!(q.pop().unwrap().0, 1.0);
        q.push(2.0, EventKind::PuSlot { index: 2 });
        assert_eq!(q.pop().unwrap().0, 2.0);
        assert_eq!(q.pop().unwrap().0, 5.0);
        assert!(q.is_empty());
    }

    #[test]
    fn len_tracks_contents() {
        let mut q = EventQueue::new();
        assert_eq!(q.len(), 0);
        q.push(1.0, EventKind::PuSlot { index: 0 });
        q.push(1.0, EventKind::PuSlot { index: 0 });
        assert_eq!(q.len(), 2);
        let _ = q.pop();
        assert_eq!(q.len(), 1);
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn nan_time_rejected() {
        let mut q = EventQueue::new();
        q.push(f64::NAN, EventKind::PuSlot { index: 0 });
    }
}
