use crate::event::{EventKind, EventQueue};
use crate::probe::{NoopProbe, Probe, TraceEvent, TraceEventKind, TxOutcome};
use crate::radio::Cells;
use crate::report::NodeStats;
use crate::{BuildError, MacConfig, SimReport, SimWorld, Traffic};
use crn_faults::{FaultKind, FaultSchedule};
use crn_spectrum::PuActivity;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;
use std::sync::Arc;

/// Per-SU MAC phase (Algorithm 1's control flow).
#[derive(Clone, Copy, Debug, PartialEq)]
enum Phase {
    /// No data queued.
    Idle,
    /// Backoff timer running; fires at `expiry` unless frozen first.
    CountingDown { expiry: f64 },
    /// Backoff frozen with `remaining` seconds left (channel busy).
    Frozen { remaining: f64 },
    /// On air until the scheduled `TxEnd`.
    Transmitting,
    /// Fairness wait (`τ_c − t_i`) after a transmission.
    Waiting,
    /// Knocked out by an injected fault (crash or pause); no timers run
    /// until the matching recover/resume.
    Down,
}

impl Phase {
    /// Whether an SU in this phase *listens* to the primary network: only
    /// a running, frozen or transmitting backoff round acts on a PU
    /// toggle (freeze, resume, or spectrum handoff).
    #[cfg(debug_assertions)]
    fn listens(self) -> bool {
        matches!(
            self,
            Phase::CountingDown { .. } | Phase::Frozen { .. } | Phase::Transmitting
        )
    }
}

/// How a transmission's airtime came to its end, for outcome
/// classification in `finish_tx`.
#[derive(Clone, Copy, Debug, PartialEq)]
enum FinishCause {
    /// The airtime ran to completion with a live receiver.
    Natural,
    /// A PU appeared inside the transmitter's PCR (spectrum handoff).
    PuAbort,
    /// An injected fault voided it: the transmitter went down mid-air, or
    /// the receiver was dead when the airtime ended.
    Fault,
}

#[derive(Clone, Copy, Debug)]
struct Packet {
    origin: u32,
}

/// Per-SU state: the packet queue, the current backoff round, and the
/// carrier-sense counters.
#[derive(Clone, Debug)]
struct SuState {
    queue: VecDeque<Packet>,
    phase: Phase,
    /// Generation counter: every (re)scheduling of a timer event for this
    /// SU bumps it; events carrying an older generation are stale.
    gen: u32,
    /// Active PUs within this SU's PCR — exact only while the SU listens
    /// (phase `CountingDown`, `Frozen` or `Transmitting`). PU toggles
    /// update listeners alone; `start_round` recounts it from `pu_on`
    /// when the SU starts listening, and it goes stale once the SU stops.
    pu_busy: u32,
    /// Transmitting SUs within this SU's PCR.
    su_busy: u32,
    /// Backoff drawn for the current round (`t_i`).
    t_i: f64,
    /// Contention window of the current round (`τ_c · 2^cw_exp`).
    cw: f64,
    /// Collision-backoff exponent, at most
    /// [`MAX_BACKOFF_EXP`](crate::config::MAX_BACKOFF_EXP).
    cw_exp: u32,
    /// When the current head-of-queue packet started being served.
    head_since: f64,
}

impl SuState {
    fn free(&self) -> bool {
        self.pu_busy == 0 && self.su_busy == 0
    }
}

/// How per-reception interference is maintained across events.
#[derive(Clone, Copy, Debug, PartialEq)]
enum SirPath {
    /// Every interference change scans the whole active list — the
    /// retained reference implementation (always used in dense mode,
    /// forceable elsewhere via [`SimulatorBuilder::full_scan`]).
    Scan,
    /// Reception-local sums: only a receiver slot with a reception in
    /// progress holds an interference sum. A TxStart/TxEnd updates the
    /// receiving slots in the cells around the transmitter, a PU toggle
    /// the receiving slots whose near rows hold it, and each re-checks
    /// only the receptions whose interference changed.
    Delta,
}

/// A cumulative interference sum at one receiver and its count of live
/// contributors (callers add nonzero-gain terms only).
#[derive(Clone, Copy, Debug)]
struct Interference {
    sum: f64,
    cnt: u32,
}

impl Interference {
    const ZERO: Interference = Interference { sum: 0.0, cnt: 0 };

    fn add(&mut self, term: f64) {
        self.sum += term;
        self.cnt += 1;
    }

    /// Withdraws `term`. The sum snaps to exactly 0.0 as its last
    /// contributor leaves: subtract-then-clamp alone leaves cancellation
    /// residue behind, which a persistent sum would feed to every later
    /// SIR verdict at that receiver.
    fn withdraw(&mut self, term: f64) {
        debug_assert!(self.cnt > 0, "contributor underflow");
        self.cnt -= 1;
        self.sum = if self.cnt == 0 {
            0.0
        } else {
            (self.sum - term).max(0.0)
        };
    }

    /// The sum without the receiver's own term `own`, itself one of the
    /// contributors: exactly 0.0 when it is the only one.
    fn without(self, own: f64) -> f64 {
        if self.cnt <= 1 {
            0.0
        } else {
            (self.sum - own).max(0.0)
        }
    }
}

/// One in-flight transmission, from `begin_tx` to `finish_tx`.
#[derive(Clone, Copy, Debug)]
struct Reception {
    su: u32,
    rx: u32,
    rx_slot: u32,
    /// Received signal power at the intended receiver (includes any
    /// fault-injected link degradation).
    signal: f64,
    /// Undegraded own contribution `p_s · g(su, rx_slot)` at the
    /// receiver — what the delta path takes out of the slot sum to
    /// evaluate this reception's interference (degradation affects the
    /// intended link only, never the field).
    own: f64,
    /// Scan path: the cumulative interference at the receiver,
    /// maintained as transmitters and PUs come and go (the delta path
    /// keeps it in the receiver's [`SlotAcc`] instead).
    intf: Interference,
    failed_sir: bool,
    failed_capture: bool,
}

impl Reception {
    /// Section III's SIR rule, latched: the reception fails once its
    /// signal falls below `η` times a nonzero `interference`. Only
    /// additions call it — a shrinking sum cannot newly violate it.
    fn verdict(&mut self, interference: f64, eta: f64) {
        self.failed_sir |= interference > 0.0 && self.signal < eta * interference;
    }
}

/// Sentinel for the intrusive per-slot chains ([`SlotAcc::head`],
/// `next_at_slot`).
const NO_SU: u32 = u32::MAX;

/// Word index in `listeners` and bit mask of fanout position `pos` in PU
/// `pu`'s listener set.
#[inline]
fn listen_bit(listen_off: &[u32], pu: u32, pos: u32) -> (usize, u64) {
    (
        listen_off[pu as usize] as usize + (pos / 64) as usize,
        1 << (pos % 64),
    )
}

/// Delta path: the per-receiver-slot interference accumulator, live only
/// while the slot receives: opened at its first reception, reset at its
/// last.
#[derive(Clone, Copy, Debug)]
struct SlotAcc {
    /// Every active SU's contribution within the slot's cutoff (including
    /// each reception's own intended signal, undegraded) plus every
    /// on-PU's contribution from its near row.
    intf: Interference,
    /// Head of the intrusive chain of transmitters whose *receiver* is
    /// this slot ([`NO_SU`] when empty) — the set a slot re-check walks.
    head: u32,
    /// The slot *owner's* self-jamming term while the owner is itself
    /// transmitting (0.0 otherwise). The self-gain is computed over a
    /// distance clamp, so it dwarfs every real contribution by tens of
    /// orders of magnitude — running it through `intf` would absorb them
    /// all and leave ulp-scale garbage behind on removal. Keeping the one
    /// monster term apart and adding it at evaluation time makes its
    /// removal exact.
    self_term: f64,
}

impl SlotAcc {
    const EMPTY: SlotAcc = SlotAcc {
        intf: Interference::ZERO,
        head: NO_SU,
        self_term: 0.0,
    };
}

/// Delta path: the live transmitters and the receiving slots (those with
/// a reception in progress), bucketed by cells no narrower than the
/// largest SU cutoff, so every transmitter a receiving slot hears lies in
/// the 3×3 block around its receiver's cell.
#[derive(Debug)]
struct LiveCells {
    cells: Cells,
    /// Per cell, the live transmitters positioned in it.
    txs: Vec<Vec<u32>>,
    /// Per cell, the receiving slots whose receiver is positioned in it.
    rxs: Vec<Vec<u32>>,
}

impl LiveCells {
    /// Cells over the SUs of `world`, at most about one per SU, a hair
    /// wider than its largest cutoff so that rounding in the cell
    /// arithmetic cannot split a heard pair; one empty cell on the scan
    /// path.
    fn new(world: &SimWorld, path: SirPath) -> Self {
        let cells = match (path, world.cutoffs()) {
            (SirPath::Delta, Some(cutoff)) => {
                let reach = cutoff.iter().fold(0.0f64, |a, &c| a.max(c));
                let sus = world.su_positions().iter().copied();
                Cells::new(sus, 1.0, reach * (1.0 + 1e-6))
            }
            _ => Cells::new(std::iter::empty(), 1.0, 1.0),
        };
        Self {
            txs: vec![Vec::new(); cells.len()],
            rxs: vec![Vec::new(); cells.len()],
            cells,
        }
    }
}

/// The most receiver slots a world may have for debug builds to check the
/// delta path's sums after every event (see `Simulator::check_live_sums`).
#[cfg(debug_assertions)]
const CHECKED_SLOTS: usize = 1024;

/// Removes `x` from the cell list `list`.
fn unlist(list: &mut Vec<u32>, x: u32) {
    let i = list.iter().position(|&y| y == x).expect("listed");
    list.swap_remove(i);
}

/// The asynchronous discrete-event simulator of Algorithm 1's MAC over a
/// [`SimWorld`].
///
/// Construct with [`Simulator::builder`] and consume with
/// [`Simulator::run`] (or [`Simulator::run_with_probe`] to recover an
/// attached [`Probe`]). Runs are deterministic in
/// `(world, config, activity, seed)`; the probe observes the run but
/// never influences it.
///
/// The probe type parameter defaults to [`NoopProbe`], whose empty
/// `on_event` monomorphizes every emission site away — an uninstrumented
/// simulator costs exactly what it did before probes existed.
///
/// The world is held behind an [`Arc`], so many simulators (sweep
/// repetitions differing only in seed or traffic) can share one built
/// [`SimWorld`] without re-deriving its gain tables; passing a plain
/// [`SimWorld`] to [`Simulator::builder`] still works and wraps it.
#[derive(Debug)]
pub struct Simulator<P: Probe = NoopProbe> {
    world: Arc<SimWorld>,
    mac: MacConfig,
    activity: PuActivity,
    traffic: Traffic,
    rng: StdRng,
    probe: P,

    queue: EventQueue,
    now: f64,
    su: Vec<SuState>,

    // Fault-injection state. All of it stays at its fault-free fixpoint
    // (everything up, factors 1, `cur_parent` = the world's tree) when the
    // schedule is empty, and none of the fault paths below consume RNG
    // draws, so an empty schedule reproduces fault-free runs bit-for-bit.
    faults: FaultSchedule,
    /// Whether each node is currently knocked out (crashed or paused).
    down: Vec<bool>,
    /// Whether each node's outage is a crash (queue dropped) rather than a
    /// pause (queue retained).
    crashed: Vec<bool>,
    /// Per-transmitter multiplier on the *intended-link* path gain
    /// (fault-injected obstruction); interference contributions to other
    /// receivers are unaffected.
    link_factor: Vec<f64>,
    /// Whether the base station is inside a brownout window.
    brownout: bool,
    /// Live routing overlay: starts as the world's tree and is rewritten
    /// by self-healing re-parents.
    cur_parent: Vec<Option<u32>>,
    /// When each orphaned node lost its parent (None while parented).
    orphan_since: Vec<Option<f64>>,

    pu_on: Vec<bool>,
    pu_scratch: Vec<bool>,
    /// Dense list of currently active PUs.
    on_pus: Vec<u32>,
    /// Position of each PU in `on_pus` (`usize::MAX` when off).
    on_pos: Vec<usize>,
    /// Per-PU listener bitsets over `pu_fanout` positions: bit `pos` of
    /// PU `k`'s set is on exactly while SU `pu_fanout(k)[pos]` listens
    /// (see `SuState::pu_busy`). A toggle walks only the set bits, in
    /// ascending position — the fanout's own (SU id) order.
    listeners: Vec<u64>,
    /// Word offsets of each PU's set in `listeners` (length `num_pus + 1`).
    listen_off: Vec<u32>,

    /// The in-flight transmissions, in no particular order.
    active: Vec<Reception>,
    /// Position of each SU's transmission in `active` (`usize::MAX` when
    /// not transmitting).
    active_pos: Vec<usize>,
    /// Which transmitter each receiver slot is locked onto.
    rx_lock: Vec<Option<u32>>,

    /// Which interference-maintenance strategy this run uses (fixed at
    /// construction; see [`SirPath`]).
    path: SirPath,
    /// Delta path: per-receiver-slot accumulator, one [`SlotAcc`] per
    /// slot, meaningful while the slot receives.
    slot: Vec<SlotAcc>,
    /// Delta path: next link of the per-slot transmitter chain
    /// ([`SlotAcc::head`]), indexed by transmitter.
    next_at_slot: Vec<u32>,
    /// Delta path: where the live transmitters and receiving slots are.
    live: LiveCells,
    /// Delta path, during a PU slot: the `(pu, slot, gain)` terms its
    /// toggles move, ordered by PU (see [`Simulator::gather_pu_terms`]);
    /// empty between PU slots.
    pu_terms: Vec<(u32, u32, f64)>,

    // Outcome accumulators.
    delivered: usize,
    packets_expected: usize,
    delivery_times: Vec<Option<f64>>,
    finished_at: Option<f64>,
    attempts: u64,
    successes: u64,
    pu_aborts: u64,
    sir_failures: u64,
    capture_losses: u64,
    service_sum: f64,
    service_max: f64,
    service_count: u64,
    peak_queue: usize,
    node_stats: Vec<NodeStats>,
    events_processed: u64,
    packets_lost: u64,
    fault_aborts: u64,
    reparents: u32,
    reparent_lat_sum: f64,
    reparent_lat_max: f64,
}

/// Fluent constructor for [`Simulator`], started by
/// [`Simulator::builder`].
///
/// Unset fields default to [`MacConfig::default`], a silent primary
/// network (`p_t = 0`), seed `0`, the paper's single-snapshot task, and
/// the cost-free [`NoopProbe`]. Attaching a probe with
/// [`SimulatorBuilder::probe`] changes the simulator's type parameter, so
/// instrumentation is selected at compile time.
///
/// ```
/// use crn_geometry::{Point, Region};
/// use crn_sim::{Simulator, SimWorld, TraceLog};
///
/// let world = SimWorld::builder(Region::square(60.0))
///     .su_positions(vec![Point::new(5.0, 5.0), Point::new(12.0, 5.0)])
///     .parents(vec![None, Some(0)])
///     .sense_range(25.0)
///     .build()
///     .expect("valid world");
/// let (report, trace) = Simulator::builder(world)
///     .seed(7)
///     .probe(TraceLog::unbounded())
///     .build()
///     .expect("valid MAC config")
///     .run_with_probe();
/// assert!(report.finished);
/// assert!(!trace.is_empty());
/// ```
#[derive(Debug)]
pub struct SimulatorBuilder<P: Probe = NoopProbe> {
    world: Arc<SimWorld>,
    mac: MacConfig,
    activity: PuActivity,
    seed: u64,
    traffic: Traffic,
    faults: FaultSchedule,
    full_scan: bool,
    probe: P,
}

impl<P: Probe> SimulatorBuilder<P> {
    /// MAC configuration (defaults to [`MacConfig::default`]).
    #[must_use]
    pub fn mac(mut self, mac: MacConfig) -> Self {
        self.mac = mac;
        self
    }

    /// PU activity model (defaults to a silent primary network).
    #[must_use]
    pub fn activity(mut self, activity: PuActivity) -> Self {
        self.activity = activity;
        self
    }

    /// RNG seed (defaults to 0).
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Traffic model (defaults to [`Traffic::Snapshot`], the paper's
    /// single collection task).
    #[must_use]
    pub fn traffic(mut self, traffic: Traffic) -> Self {
        self.traffic = traffic;
        self
    }

    /// Compiled fault schedule to inject (defaults to
    /// [`FaultSchedule::empty`], which injects nothing and leaves runs
    /// bit-for-bit identical to a fault-free simulator).
    #[must_use]
    pub fn faults(mut self, faults: FaultSchedule) -> Self {
        self.faults = faults;
        self
    }

    /// Forces the full-scan reference path for interference updates even
    /// on a `Truncated` world, which otherwise runs reception-local sums
    /// (defaults to `false`). The two paths produce bit-identical reports;
    /// this knob exists so equivalence tests and benchmarks can pin the
    /// reference.
    #[must_use]
    pub fn full_scan(mut self, full_scan: bool) -> Self {
        self.full_scan = full_scan;
        self
    }

    /// Attaches `probe`, replacing any previously attached one (the
    /// builder's probe type parameter changes with it).
    #[must_use]
    pub fn probe<Q: Probe>(self, probe: Q) -> SimulatorBuilder<Q> {
        SimulatorBuilder {
            world: self.world,
            mac: self.mac,
            activity: self.activity,
            seed: self.seed,
            traffic: self.traffic,
            faults: self.faults,
            full_scan: self.full_scan,
            probe,
        }
    }

    /// Constructs the simulator, validating the MAC timing and traffic
    /// model up front.
    ///
    /// # Errors
    ///
    /// Returns a [`BuildError`] when any timing parameter is non-finite or
    /// out of range (see [`MacConfig::validated`] and
    /// [`Traffic::validated`]) — the same configurations that would
    /// otherwise panic deep inside the event queue mid-run.
    pub fn build(self) -> Result<Simulator<P>, BuildError> {
        Simulator::construct(
            self.world,
            self.mac,
            self.activity,
            self.seed,
            self.traffic,
            self.faults,
            self.full_scan,
            self.probe,
        )
    }
}

impl Simulator {
    /// Starts a [`SimulatorBuilder`] over `world` — either an owned
    /// [`SimWorld`] or an [`Arc<SimWorld>`] shared across repetitions.
    #[must_use]
    pub fn builder(world: impl Into<Arc<SimWorld>>) -> SimulatorBuilder {
        SimulatorBuilder {
            world: world.into(),
            mac: MacConfig::default(),
            activity: PuActivity::bernoulli(0.0).expect("p_t = 0 is valid"),
            seed: 0,
            traffic: Traffic::Snapshot,
            faults: FaultSchedule::empty(),
            full_scan: false,
            probe: NoopProbe,
        }
    }
}

impl<P: Probe> Simulator<P> {
    #[allow(clippy::too_many_arguments)]
    fn construct(
        world: Arc<SimWorld>,
        mac: MacConfig,
        activity: PuActivity,
        seed: u64,
        traffic: Traffic,
        faults: FaultSchedule,
        full_scan: bool,
        probe: P,
    ) -> Result<Self, BuildError> {
        mac.validated()?;
        traffic.validated()?;
        let n = world.num_sus();
        let num_pus = world.num_pus();
        let slots = world.num_receiver_slots();
        if let Some(target) = faults.max_target() {
            if target as usize >= n {
                return Err(BuildError::BadFaultTarget { target, nodes: n });
            }
        }
        // Dense radios keep no per-slot cutoffs, so they always take the
        // reference scan path (it doubles as the bit-exact oracle).
        let path = if !full_scan && world.cutoffs().is_some() {
            SirPath::Delta
        } else {
            SirPath::Scan
        };
        // Only the delta path touches the slot accumulators.
        let (delta_slots, delta_txs) = match path {
            SirPath::Delta => (slots, n),
            SirPath::Scan => (0, 0),
        };
        let cur_parent = world.parents().to_vec();
        let mut listen_off = Vec::with_capacity(num_pus + 1);
        listen_off.push(0u32);
        for k in 0..num_pus {
            let words = world.pu_fanout(k).len().div_ceil(64) as u32;
            listen_off.push(listen_off[k] + words);
        }
        Ok(Self {
            mac,
            activity,
            traffic,
            rng: StdRng::seed_from_u64(seed),
            queue: EventQueue::new(),
            now: 0.0,
            su: vec![
                SuState {
                    queue: VecDeque::new(),
                    phase: Phase::Idle,
                    gen: 0,
                    pu_busy: 0,
                    su_busy: 0,
                    t_i: 0.0,
                    cw: mac.contention_window,
                    cw_exp: 0,
                    head_since: 0.0,
                };
                n
            ],
            pu_on: vec![false; num_pus],
            pu_scratch: vec![false; num_pus],
            on_pus: Vec::with_capacity(num_pus),
            on_pos: vec![usize::MAX; num_pus],
            listeners: vec![0; listen_off[num_pus] as usize],
            listen_off,
            active: Vec::new(),
            active_pos: vec![usize::MAX; n],
            rx_lock: vec![None; slots],
            path,
            slot: vec![SlotAcc::EMPTY; delta_slots],
            next_at_slot: vec![NO_SU; delta_txs],
            live: LiveCells::new(&world, path),
            pu_terms: Vec::new(),
            delivered: 0,
            packets_expected: n.saturating_sub(1) * traffic.snapshots() as usize,
            delivery_times: vec![None; n],
            finished_at: None,
            attempts: 0,
            successes: 0,
            pu_aborts: 0,
            sir_failures: 0,
            capture_losses: 0,
            service_sum: 0.0,
            service_max: 0.0,
            service_count: 0,
            peak_queue: 0,
            node_stats: vec![NodeStats::default(); n],
            events_processed: 0,
            packets_lost: 0,
            fault_aborts: 0,
            reparents: 0,
            reparent_lat_sum: 0.0,
            reparent_lat_max: 0.0,
            faults,
            down: vec![false; n],
            crashed: vec![false; n],
            link_factor: vec![1.0; n],
            brownout: false,
            cur_parent,
            orphan_since: vec![None; n],
            world,
            probe,
        })
    }

    /// Emits a trace event at the current simulation time. With the
    /// default [`NoopProbe`] this inlines to nothing.
    #[inline]
    fn emit(&mut self, kind: TraceEventKind) {
        self.probe.on_event(&TraceEvent {
            time: self.now,
            kind,
        });
    }

    /// Runs the data collection task to completion (every snapshot packet
    /// at the base station) or to the configured time cap, and reports.
    #[must_use]
    pub fn run(self) -> SimReport {
        self.run_with_probe().0
    }

    /// Like [`Simulator::run`], additionally returning the attached
    /// [`Probe`] so its accumulated observations can be read back.
    #[must_use]
    pub fn run_with_probe(mut self) -> (SimReport, P) {
        self.initialize();
        while self.finished_at.is_none() {
            let Some((time, kind)) = self.queue.pop() else {
                break;
            };
            if time > self.mac.max_sim_time {
                break;
            }
            debug_assert!(time + 1e-12 >= self.now, "time went backwards");
            self.now = time;
            self.events_processed += 1;
            match kind {
                EventKind::PuSlot { index } => self.on_pu_slot(index),
                EventKind::BackoffExpire { su, gen } => self.on_backoff_expire(su, gen),
                EventKind::TxEnd { su, gen } => self.on_tx_end(su, gen),
                EventKind::WaitEnd { su, gen } => self.on_wait_end(su, gen),
                EventKind::SnapshotTick { index } => self.on_snapshot_tick(index),
                EventKind::FaultAt { index } => self.on_fault_at(index),
                EventKind::Heal { su } => self.on_heal(su),
            }
            #[cfg(debug_assertions)]
            self.check_live_sums();
        }
        let end = self.finished_at.unwrap_or(self.mac.max_sim_time);
        self.probe.on_finish(end);
        let report = self.report();
        (report, self.probe)
    }

    fn initialize(&mut self) {
        // Stationary PU states for slot 0.
        let initial = self
            .activity
            .initial_states(self.world.num_pus(), &mut self.rng);
        let world = Arc::clone(&self.world);
        for (k, on) in initial.into_iter().enumerate() {
            if on {
                self.set_pu_on(&world, k);
            }
        }
        if self.world.num_pus() > 0 {
            self.queue
                .push(self.mac.slot, EventKind::PuSlot { index: 1 });
        }
        // Snapshot 0: every SU except the base station produces a packet.
        self.generate_snapshot();
        if let Traffic::Periodic {
            interval,
            snapshots,
        } = self.traffic
        {
            if snapshots > 1 {
                self.queue
                    .push(interval, EventKind::SnapshotTick { index: 1 });
            }
        }
        // Arm the fault driver: exactly one FaultAt is ever pending (it
        // chains itself), and an empty schedule pushes nothing — keeping
        // event sequence numbers identical to a fault-free run.
        if let Some(first) = self.faults.events().first() {
            self.queue.push(first.time, EventKind::FaultAt { index: 0 });
        }
        if self.packets_expected == 0 {
            self.finished_at = Some(0.0);
        }
    }

    /// Every SU produces one packet now (a snapshot round). Packets
    /// generated on a crashed node are lost immediately; a paused node
    /// enqueues but stays silent until resume.
    fn generate_snapshot(&mut self) {
        for su in 1..self.world.num_sus() as u32 {
            if self.crashed[su as usize] {
                self.emit(TraceEventKind::PacketGenerated { su });
                self.packets_lost += 1;
                self.node_stats[su as usize].packets_lost += 1;
                self.emit(TraceEventKind::PacketsLost { su, count: 1 });
                self.check_finished();
                continue;
            }
            let s = &mut self.su[su as usize];
            if s.queue.is_empty() {
                s.head_since = self.now;
            }
            s.queue.push_back(Packet { origin: su });
            let qlen = s.queue.len();
            self.peak_queue = self.peak_queue.max(qlen);
            let ns = &mut self.node_stats[su as usize];
            ns.peak_queue = ns.peak_queue.max(qlen as u32);
            self.emit(TraceEventKind::PacketGenerated { su });
            self.emit(TraceEventKind::QueueDepth {
                su,
                depth: qlen as u32,
            });
            if self.su[su as usize].phase == Phase::Idle {
                self.start_round(su);
            }
        }
    }

    fn on_snapshot_tick(&mut self, index: u32) {
        self.generate_snapshot();
        if let Traffic::Periodic {
            interval,
            snapshots,
        } = self.traffic
        {
            if index + 1 < snapshots {
                self.queue.push(
                    f64::from(index + 1) * interval,
                    EventKind::SnapshotTick { index: index + 1 },
                );
            }
        }
    }

    // ------------------------------------------------------------------
    // Channel sensing bookkeeping.

    /// Makes `su` a listener: sets its bit in the listener set of every PU
    /// it senses and recounts its `pu_busy` from `pu_on`. PU toggles keep
    /// the count exact from here until [`Self::unlisten`].
    fn listen(&mut self, su: u32) {
        let (pus, pos) = self.world.sensed_pus(su);
        let mut busy = 0;
        for (&k, &p) in pus.iter().zip(pos) {
            let (w, mask) = listen_bit(&self.listen_off, k, p);
            self.listeners[w] |= mask;
            busy += u32::from(self.pu_on[k as usize]);
        }
        self.su[su as usize].pu_busy = busy;
    }

    /// Stops `su` listening: clears its listener bits, after which PU
    /// toggles pass it by and its `pu_busy` goes stale.
    fn unlisten(&mut self, su: u32) {
        let (pus, pos) = self.world.sensed_pus(su);
        for (&k, &p) in pus.iter().zip(pos) {
            let (w, mask) = listen_bit(&self.listen_off, k, p);
            self.listeners[w] &= !mask;
        }
    }

    /// Calls `f` on every listener in PU `k`'s fanout (`fanout`), in
    /// fanout order. No listener bit changes during the walk: `f` may
    /// freeze or resume a backoff, never end or start a round.
    fn for_each_listener(&mut self, k: usize, fanout: &[u32], mut f: impl FnMut(&mut Self, u32)) {
        let lo = self.listen_off[k] as usize;
        for w in lo..self.listen_off[k + 1] as usize {
            let mut bits = self.listeners[w];
            while bits != 0 {
                let pos = (w - lo) * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                f(self, fanout[pos]);
            }
        }
    }

    /// Debug builds, after every PU slot: an SU has listener bits set iff
    /// it listens, and every listener's `pu_busy` counts exactly the
    /// on-PUs it senses.
    #[cfg(debug_assertions)]
    fn check_listeners(&self) {
        for su in 0..self.su.len() as u32 {
            let h = &self.su[su as usize];
            let listening = h.phase.listens();
            let (pus, pos) = self.world.sensed_pus(su);
            let mut busy = 0;
            for (&k, &p) in pus.iter().zip(pos) {
                let (w, mask) = listen_bit(&self.listen_off, k, p);
                assert_eq!(
                    self.listeners[w] & mask != 0,
                    listening,
                    "su {su} in phase {:?}: listener bit at pu {k} disagrees",
                    h.phase
                );
                busy += u32::from(self.pu_on[k as usize]);
            }
            if listening {
                assert_eq!(h.pu_busy, busy, "listener {su}: stale pu_busy");
            }
        }
    }

    fn busy_changed(&mut self, su: u32, became_busy: bool) {
        if became_busy {
            // 0 -> 1 transition: freeze a running countdown.
            if let Phase::CountingDown { expiry } = self.su[su as usize].phase {
                let remaining = (expiry - self.now).max(0.0);
                self.su[su as usize].gen += 1;
                self.su[su as usize].phase = Phase::Frozen { remaining };
                self.emit(TraceEventKind::BackoffFreeze { su, remaining });
            }
        } else if let Phase::Frozen { remaining } = self.su[su as usize].phase {
            // Channel cleared: resume the countdown.
            let h = &mut self.su[su as usize];
            h.gen += 1;
            let expiry = self.now + remaining;
            h.phase = Phase::CountingDown { expiry };
            let gen = h.gen;
            self.queue
                .push(expiry, EventKind::BackoffExpire { su, gen });
            self.emit(TraceEventKind::BackoffResume { su, remaining });
        }
    }

    fn pu_busy_inc(&mut self, su: u32) {
        let b = &mut self.su[su as usize];
        let was_free = b.free();
        b.pu_busy += 1;
        if was_free {
            self.busy_changed(su, true);
        }
    }

    fn pu_busy_dec(&mut self, su: u32) {
        let b = &mut self.su[su as usize];
        debug_assert!(b.pu_busy > 0, "pu_busy underflow at {su}");
        b.pu_busy -= 1;
        if b.free() {
            self.busy_changed(su, false);
        }
    }

    fn su_busy_inc(&mut self, su: u32) {
        let b = &mut self.su[su as usize];
        let was_free = b.free();
        b.su_busy += 1;
        if was_free {
            self.busy_changed(su, true);
        }
    }

    fn su_busy_dec(&mut self, su: u32) {
        let b = &mut self.su[su as usize];
        debug_assert!(b.su_busy > 0, "su_busy underflow at {su}");
        b.su_busy -= 1;
        if b.free() {
            self.busy_changed(su, false);
        }
    }

    // ------------------------------------------------------------------
    // Backoff rounds.

    fn start_round(&mut self, su: u32) {
        debug_assert!(!self.su[su as usize].queue.is_empty());
        let exp = self.su[su as usize]
            .cw_exp
            .min(crate::config::MAX_BACKOFF_EXP);
        let cw = self.mac.contention_window * f64::from(1u32 << exp);
        // Uniform on (0, cw]: flip the half-open range of gen_range.
        let t_i = cw - self.rng.gen_range(0.0..cw);
        let s = &mut self.su[su as usize];
        s.t_i = t_i;
        s.cw = cw;
        s.gen += 1;
        self.emit(TraceEventKind::BackoffStart { su, t_i, cw });
        self.listen(su);
        if self.su[su as usize].free() {
            let expiry = self.now + t_i;
            let h = &mut self.su[su as usize];
            h.phase = Phase::CountingDown { expiry };
            let gen = h.gen;
            self.queue
                .push(expiry, EventKind::BackoffExpire { su, gen });
        } else {
            self.su[su as usize].phase = Phase::Frozen { remaining: t_i };
            self.emit(TraceEventKind::BackoffFreeze { su, remaining: t_i });
        }
    }

    fn on_backoff_expire(&mut self, su: u32, gen: u32) {
        let s = &self.su[su as usize];
        if s.gen != gen {
            return; // stale (frozen/cancelled since scheduling)
        }
        debug_assert!(matches!(s.phase, Phase::CountingDown { .. }));
        debug_assert!(s.free(), "expiry while channel busy at {su}");
        self.begin_tx(su);
    }

    // ------------------------------------------------------------------
    // Transmissions.

    fn begin_tx(&mut self, su: u32) {
        // The routing overlay, not the world's tree: self-healing may have
        // re-parented this node (identical until a fault rewrites it).
        let rx = self.cur_parent[su as usize].expect("base station never transmits");
        let rx_slot = self.world.receiver_slot(rx).expect("parents are receivers");
        let p_s = self.world.phy().su_power();
        let p_p = self.world.phy().pu_power();
        // A local handle lets us iterate the world's slices while mutating
        // engine state (one atomic increment per event).
        let world = Arc::clone(&self.world);

        // This transmitter's contribution enters every receiver that can
        // hear it, and the affected ongoing receptions are re-verdicted.
        // `own` is the (undegraded) contribution at our own receiver.
        let own = p_s * world.su_gain(su, rx_slot);
        debug_assert!(own > 0.0, "transmitter inaudible at its own receiver");
        let mut intf = Interference::ZERO;
        let interference = match self.path {
            SirPath::Scan => {
                for r in &mut self.active {
                    // Gate on `g != 0.0` so the contributor count is
                    // meaningful; adding 0.0 is an exact no-op, so the sums
                    // keep their previous bits.
                    let g = world.su_gain(su, r.rx_slot);
                    if g != 0.0 {
                        r.intf.add(p_s * g);
                    }
                }
                self.check_all_sir();

                // Cumulative interference the new reception starts with.
                // In truncated mode only the PUs the receiver serves are
                // scanned, base row then ladder prefix as the delta path
                // sums them; exact mode sums every active PU.
                match world.near_pus(rx_slot) {
                    Some((base, prefix)) => {
                        for &k in base.iter().chain(prefix) {
                            if self.pu_on[k as usize] {
                                intf.add(p_p * world.near_pu_gain(k, rx_slot));
                            }
                        }
                    }
                    None => {
                        for &k in &self.on_pus {
                            let g = world.pu_gain(k as usize, rx_slot);
                            if g != 0.0 {
                                intf.add(p_p * g);
                            }
                        }
                    }
                }
                for r in &self.active {
                    let g = world.su_gain(r.su, rx_slot);
                    if g != 0.0 {
                        intf.add(p_s * g);
                    }
                }
                intf.sum
            }
            SirPath::Delta => {
                self.move_su_term(su, true);
                // The first reception at a slot opens its sum.
                if self.slot[rx_slot as usize].head == NO_SU {
                    self.open_slot(rx_slot, su);
                }
                // Our own term is in the slot sum (we are not chained yet,
                // so the re-check above never sees us); interference is
                // everything there except it, plus the receiver's
                // self-jamming term if it is mid-transmission.
                let acc = self.slot[rx_slot as usize];
                debug_assert!(acc.intf.cnt >= 1, "own contribution missing from slot");
                acc.intf.without(own) + acc.self_term
            }
        };

        // Intended-link signal through the overlay parent, scaled by any
        // injected degradation (`× 1.0` is exact, so fault-free runs are
        // bit-identical to `SimWorld::link_signal`).
        let mut rec = Reception {
            su,
            rx,
            rx_slot,
            signal: own * self.link_factor[su as usize],
            own,
            intf,
            failed_sir: false,
            failed_capture: false,
        };

        // RS-mode capture at the receiver.
        match self.rx_lock[rx_slot as usize] {
            None => self.rx_lock[rx_slot as usize] = Some(su),
            Some(holder) => {
                let held = &mut self.active[self.active_pos[holder as usize]];
                if rec.signal > held.signal {
                    // Stronger signal: the receiver re-starts onto us.
                    held.failed_capture = true;
                    self.rx_lock[rx_slot as usize] = Some(su);
                } else {
                    rec.failed_capture = true;
                }
            }
        }
        rec.verdict(interference, world.phy().su_sir_threshold());
        self.active_pos[su as usize] = self.active.len();
        self.active.push(rec);
        if self.path == SirPath::Delta {
            // Join the receiver slot's chain of in-flight receptions.
            let head = &mut self.slot[rx_slot as usize].head;
            self.next_at_slot[su as usize] = *head;
            *head = su;
        }
        self.attempts += 1;
        self.node_stats[su as usize].attempts += 1;
        self.emit(TraceEventKind::TxStart { su, rx });

        // Neighbors now sense a busy channel.
        for &v in world.su_hears_su(su) {
            self.su_busy_inc(v);
        }

        let h = &mut self.su[su as usize];
        h.phase = Phase::Transmitting;
        h.gen += 1;
        let gen = h.gen;
        self.queue
            .push(self.now + self.mac.airtime, EventKind::TxEnd { su, gen });
    }

    fn on_tx_end(&mut self, su: u32, gen: u32) {
        if self.su[su as usize].gen != gen {
            return; // aborted earlier
        }
        // A reception whose receiver died mid-air (or whose base station
        // browned out) is voided by the fault, whatever else happened.
        let pos = self.active_pos[su as usize];
        debug_assert_ne!(pos, usize::MAX);
        let rx = self.active[pos].rx;
        let cause = if self.down[rx as usize] || (rx == 0 && self.brownout) {
            FinishCause::Fault
        } else {
            FinishCause::Natural
        };
        self.finish_tx(su, cause);
    }

    /// Aborts an in-flight transmission (spectrum handoff).
    fn abort_tx(&mut self, su: u32) {
        debug_assert!(matches!(self.su[su as usize].phase, Phase::Transmitting));
        self.su[su as usize].gen += 1; // cancels the pending TxEnd
        self.finish_tx(su, FinishCause::PuAbort);
    }

    fn finish_tx(&mut self, su: u32, cause: FinishCause) {
        let aborted = cause != FinishCause::Natural;
        let pos = self.active_pos[su as usize];
        debug_assert_ne!(pos, usize::MAX, "finish_tx without active tx");
        let tx = self.active.swap_remove(pos);
        if let Some(moved) = self.active.get(pos) {
            self.active_pos[moved.su as usize] = pos;
        }
        self.active_pos[su as usize] = usize::MAX;

        // Stop interfering with the remaining receptions. Decreases never
        // need a re-check: a shrinking sum cannot newly violate the
        // (sticky) SIR condition.
        let p_s = self.world.phy().su_power();
        let world = Arc::clone(&self.world);
        match self.path {
            SirPath::Scan => {
                for r in &mut self.active {
                    let g = world.su_gain(su, r.rx_slot);
                    if g != 0.0 {
                        r.intf.withdraw(p_s * g);
                    }
                }
            }
            SirPath::Delta => {
                // Leave the receiver slot's chain...
                let slot = tx.rx_slot as usize;
                let mut cur = self.slot[slot].head;
                if cur == su {
                    self.slot[slot].head = self.next_at_slot[su as usize];
                } else {
                    while self.next_at_slot[cur as usize] != su {
                        cur = self.next_at_slot[cur as usize];
                        debug_assert_ne!(cur, NO_SU, "active tx missing from slot chain");
                    }
                    self.next_at_slot[cur as usize] = self.next_at_slot[su as usize];
                }
                self.next_at_slot[su as usize] = NO_SU;
                // ...closing the slot if we were its last reception...
                if self.slot[slot].head == NO_SU {
                    self.close_slot(tx.rx_slot);
                }
                // ...and withdraw our term from every receiving slot that
                // heard us.
                self.move_su_term(su, false);
            }
        }

        // Release the receiver lock if we still hold it.
        let held_lock = self.rx_lock[tx.rx_slot as usize] == Some(su);
        if held_lock {
            self.rx_lock[tx.rx_slot as usize] = None;
        }

        // Neighbors stop sensing us.
        for &v in world.su_hears_su(su) {
            self.su_busy_dec(v);
        }

        let success = !aborted && held_lock && !tx.failed_sir && !tx.failed_capture;
        let outcome = if cause == FinishCause::Fault {
            self.fault_aborts += 1;
            self.node_stats[su as usize].fault_aborts += 1;
            TxOutcome::FaultAbort
        } else if aborted {
            self.pu_aborts += 1;
            self.node_stats[su as usize].pu_aborts += 1;
            TxOutcome::PuAbort
        } else if tx.failed_capture {
            self.capture_losses += 1;
            TxOutcome::CaptureLoss
        } else if tx.failed_sir {
            self.sir_failures += 1;
            self.node_stats[su as usize].sir_failures += 1;
            TxOutcome::SirLoss
        } else {
            // Losing the receiver lock without a capture failure is
            // impossible: the stealing transmitter marks us failed.
            debug_assert!(success, "lock lost without a recorded capture loss");
            self.node_stats[su as usize].successes += 1;
            TxOutcome::Success
        };
        self.emit(TraceEventKind::TxEnd {
            su,
            rx: tx.rx,
            outcome,
        });
        // Collision resolution: collisions widen the window, success
        // resets it, spectrum handoffs leave it unchanged.
        if success {
            self.su[su as usize].cw_exp = 0;
        } else if !aborted {
            let s = &mut self.su[su as usize];
            s.cw_exp = (s.cw_exp + 1).min(crate::config::MAX_BACKOFF_EXP);
        }

        if success {
            self.successes += 1;
            let packet = self.su[su as usize]
                .queue
                .pop_front()
                .expect("successful tx implies a queued packet");
            let service = self.now - self.su[su as usize].head_since;
            self.service_sum += service;
            self.service_max = self.service_max.max(service);
            self.service_count += 1;
            self.su[su as usize].head_since = self.now;
            let depth = self.su[su as usize].queue.len() as u32;
            self.emit(TraceEventKind::QueueDepth { su, depth });
            if tx.rx == 0 {
                self.delivered += 1;
                self.emit(TraceEventKind::Delivery {
                    origin: packet.origin,
                    via: su,
                });
                // Record the first delivery per origin (snapshot 0 for
                // periodic traffic), which fairness metrics read.
                if self.delivery_times[packet.origin as usize].is_none() {
                    self.delivery_times[packet.origin as usize] = Some(self.now);
                }
                self.check_finished();
            } else {
                let was_empty = self.su[tx.rx as usize].queue.is_empty();
                self.su[tx.rx as usize].queue.push_back(packet);
                let qlen = self.su[tx.rx as usize].queue.len();
                self.peak_queue = self.peak_queue.max(qlen);
                let ns = &mut self.node_stats[tx.rx as usize];
                ns.peak_queue = ns.peak_queue.max(qlen as u32);
                self.emit(TraceEventKind::QueueDepth {
                    su: tx.rx,
                    depth: qlen as u32,
                });
                if was_empty {
                    self.su[tx.rx as usize].head_since = self.now;
                }
                if self.su[tx.rx as usize].phase == Phase::Idle {
                    self.start_round(tx.rx);
                }
            }
        }

        // Fairness wait, then the next round (Algorithm 1 line 12); the
        // wait completes the round's contention window.
        if self.mac.fairness_wait {
            self.unlisten(su);
            let h = &mut self.su[su as usize];
            h.phase = Phase::Waiting;
            h.gen += 1;
            let gen = h.gen;
            let s = &self.su[su as usize];
            let wait = (s.cw - s.t_i).max(0.0);
            self.queue
                .push(self.now + wait, EventKind::WaitEnd { su, gen });
            self.emit(TraceEventKind::FairnessWait { su, wait });
        } else if self.su[su as usize].queue.is_empty() {
            self.unlisten(su);
            self.su[su as usize].phase = Phase::Idle;
        } else {
            self.start_round(su);
        }
    }

    fn on_wait_end(&mut self, su: u32, gen: u32) {
        if self.su[su as usize].gen != gen {
            return;
        }
        debug_assert_eq!(self.su[su as usize].phase, Phase::Waiting);
        if self.su[su as usize].queue.is_empty() {
            self.su[su as usize].phase = Phase::Idle;
        } else {
            self.start_round(su);
        }
    }

    // ------------------------------------------------------------------
    // Fault injection and self-healing.

    /// The task is over once every expected packet is either delivered or
    /// attributed to a fault (identical to `delivered == expected` in
    /// fault-free runs, where nothing is ever lost).
    fn check_finished(&mut self) {
        if self.finished_at.is_none()
            && self.delivered as u64 + self.packets_lost == self.packets_expected as u64
        {
            self.finished_at = Some(self.now);
        }
    }

    /// Applies the schedule entry at `index`, then chains the driver to
    /// the next entry (so at most one `FaultAt` is ever pending).
    fn on_fault_at(&mut self, index: u32) {
        let kind = self.faults.events()[index as usize].kind;
        match kind {
            FaultKind::SuCrash { su } => self.fault_down(su, true),
            FaultKind::SuPause { su } => self.fault_down(su, false),
            FaultKind::SuRecover { su } => self.fault_up(su, true),
            FaultKind::SuResume { su } => self.fault_up(su, false),
            FaultKind::PuRegimeShift { activity } => {
                // Per-PU on/off states persist; only the transition law
                // changes. Bernoulli/Gilbert advances draw once per PU per
                // slot regardless of parameters, so the RNG stream stays
                // aligned across the shift.
                self.activity = activity;
                self.emit(TraceEventKind::PuRegimeShift {
                    duty: activity.duty_cycle(),
                });
            }
            FaultKind::LinkDegrade { su, factor } => {
                self.link_factor[su as usize] = factor;
                self.emit(TraceEventKind::LinkDegraded { su, factor });
            }
            FaultKind::BrownoutStart => {
                self.brownout = true;
                self.emit(TraceEventKind::Brownout { on: true });
            }
            FaultKind::BrownoutEnd => {
                self.brownout = false;
                self.emit(TraceEventKind::Brownout { on: false });
            }
        }
        let next = index as usize + 1;
        if next < self.faults.len() {
            self.queue.push(
                self.faults.events()[next].time,
                EventKind::FaultAt { index: next as u32 },
            );
        }
    }

    /// Knocks an SU out: crash (`drop queue, orphan children`) or pause
    /// (`queue retained`). Idempotent, except that a crash landing on a
    /// paused node upgrades the outage.
    fn fault_down(&mut self, su: u32, crash: bool) {
        let i = su as usize;
        if self.down[i] {
            if crash && !self.crashed[i] {
                self.crashed[i] = true;
                self.emit(TraceEventKind::SuCrashed { su });
                self.drop_queue(su);
                self.orphan_children(su);
            }
            return;
        }
        self.down[i] = true;
        self.crashed[i] = crash;
        // A transmission in flight dies with the node.
        if self.active_pos[i] != usize::MAX {
            self.su[i].gen += 1; // cancels the pending TxEnd
            self.finish_tx(su, FinishCause::Fault);
        }
        // Cancel whatever timer finish_tx (or the prior phase) left armed.
        self.su[i].gen += 1;
        self.su[i].phase = Phase::Down;
        self.unlisten(su);
        if crash {
            self.emit(TraceEventKind::SuCrashed { su });
            self.drop_queue(su);
            self.orphan_children(su);
        } else {
            self.emit(TraceEventKind::SuPaused { su });
        }
    }

    /// Brings an SU back: recover clears any outage, resume only a pause
    /// (a crashed node stays down until its recover).
    fn fault_up(&mut self, su: u32, recover: bool) {
        let i = su as usize;
        if !self.down[i] || (!recover && self.crashed[i]) {
            return;
        }
        self.down[i] = false;
        self.crashed[i] = false;
        self.su[i].gen += 1;
        self.su[i].phase = Phase::Idle;
        self.emit(if recover {
            TraceEventKind::SuRecovered { su }
        } else {
            TraceEventKind::SuResumed { su }
        });
        // If our parent died while we were out, enter the healing protocol.
        if let Some(p) = self.cur_parent[i] {
            if self.down[p as usize] && self.orphan_since[i].is_none() {
                self.orphan_since[i] = Some(self.now);
                self.queue
                    .push(self.now + self.mac.slot, EventKind::Heal { su });
            }
        }
        if !self.su[i].queue.is_empty() {
            self.su[i].head_since = self.now;
            self.start_round(su);
        }
    }

    /// Drops an SU's queue, attributing every packet to the fault.
    fn drop_queue(&mut self, su: u32) {
        let count = self.su[su as usize].queue.len() as u32;
        if count == 0 {
            return;
        }
        self.su[su as usize].queue.clear();
        self.packets_lost += u64::from(count);
        self.node_stats[su as usize].packets_lost += count;
        self.emit(TraceEventKind::PacketsLost { su, count });
        self.emit(TraceEventKind::QueueDepth { su, depth: 0 });
        self.check_finished();
    }

    /// Marks every live child of a crashed node orphaned and schedules its
    /// first healing attempt one slot out (the discovery delay).
    fn orphan_children(&mut self, parent: u32) {
        for su in 1..self.world.num_sus() as u32 {
            if su != parent
                && self.cur_parent[su as usize] == Some(parent)
                && self.orphan_since[su as usize].is_none()
            {
                self.orphan_since[su as usize] = Some(self.now);
                self.queue
                    .push(self.now + self.mac.slot, EventKind::Heal { su });
            }
        }
    }

    /// A healing attempt: adopt the nearest live receiver-capable node
    /// within radio range that would not create a routing cycle; retry one
    /// slot later while none exists (the old parent recovering also ends
    /// the search).
    fn on_heal(&mut self, su: u32) {
        let i = su as usize;
        let Some(since) = self.orphan_since[i] else {
            return; // healed (or re-healed) by an earlier attempt
        };
        if self.crashed[i] {
            // A crashed orphan stops searching; its own recovery re-enters
            // the protocol if the parent is still dead.
            self.orphan_since[i] = None;
            return;
        }
        if self.down[i] {
            // Paused: keep the claim, try again after resume.
            self.queue
                .push(self.now + self.mac.slot, EventKind::Heal { su });
            return;
        }
        if let Some(p) = self.cur_parent[i] {
            if !self.down[p as usize] {
                self.orphan_since[i] = None; // parent came back first
                return;
            }
        }
        match self.find_adoptive_parent(su) {
            Some(to) => {
                self.cur_parent[i] = Some(to);
                self.orphan_since[i] = None;
                let latency = self.now - since;
                self.reparents += 1;
                self.reparent_lat_sum += latency;
                self.reparent_lat_max = self.reparent_lat_max.max(latency);
                self.emit(TraceEventKind::Reparented { su, to, latency });
                // Defensive: an idle node with data starts contending at
                // its new parent (normally it never stopped).
                if self.su[i].phase == Phase::Idle && !self.su[i].queue.is_empty() {
                    self.start_round(su);
                }
            }
            None => self
                .queue
                .push(self.now + self.mac.slot, EventKind::Heal { su }),
        }
    }

    /// The nearest live dominator within the SU transmission radius whose
    /// adoption keeps the overlay acyclic (ties broken by lowest id).
    /// Candidates are restricted to the world's receiver-capable nodes, so
    /// the sparse gain tables always cover the new link.
    fn find_adoptive_parent(&self, su: u32) -> Option<u32> {
        let pos = self.world.su_positions()[su as usize];
        let radius = self.world.phy().su_radius() + 1e-9;
        let mut best: Option<(f64, u32)> = None;
        for idx in 0..self.world.receivers().len() {
            let r = self.world.receivers()[idx];
            if r == su || self.down[r as usize] {
                continue;
            }
            let slot = self.world.receiver_slot(r).expect("receivers have slots");
            if self.world.su_gain(su, slot) <= 0.0 {
                continue; // beyond the truncated gain table's cutoff
            }
            let d = pos.distance(self.world.su_positions()[r as usize]);
            if d > radius || self.would_cycle(su, r) {
                continue;
            }
            if best.is_none_or(|(bd, br)| d < bd || (d == bd && r < br)) {
                best = Some((d, r));
            }
        }
        best.map(|(_, r)| r)
    }

    /// Whether making `candidate` the parent of `su` would close a cycle
    /// in the routing overlay.
    fn would_cycle(&self, su: u32, candidate: u32) -> bool {
        let mut cur = candidate;
        let mut steps = 0;
        while let Some(p) = self.cur_parent[cur as usize] {
            if p == su {
                return true;
            }
            cur = p;
            steps += 1;
            if steps > self.world.num_sus() {
                debug_assert!(false, "pre-existing cycle in routing overlay");
                return true;
            }
        }
        false
    }

    // ------------------------------------------------------------------
    // Primary-network slotting.

    fn on_pu_slot(&mut self, index: u64) {
        self.pu_scratch.copy_from_slice(&self.pu_on);
        self.activity.advance(&mut self.pu_scratch, &mut self.rng);
        if self.path == SirPath::Delta {
            self.gather_pu_terms();
        }
        let world = Arc::clone(&self.world);
        for k in 0..self.pu_scratch.len() {
            let new = self.pu_scratch[k];
            if new != self.pu_on[k] {
                if new {
                    self.set_pu_on(&world, k);
                } else {
                    self.set_pu_off(&world, k);
                }
            }
        }
        self.queue.push(
            (index + 1) as f64 * self.mac.slot,
            EventKind::PuSlot { index: index + 1 },
        );
        self.pu_terms.clear();
        #[cfg(debug_assertions)]
        self.check_listeners();
    }

    /// Delta path, before a PU slot's toggles: gathers the `(pu, slot,
    /// gain)` terms they move — each toggling PU in the near row of each
    /// receiving slot — ordered by PU, the order the toggles run in. No
    /// slot opens during a PU slot, so these are all the terms it moves.
    fn gather_pu_terms(&mut self) {
        let world = Arc::clone(&self.world);
        for r in &self.active {
            let s = r.rx_slot;
            // A slot's chain head stands for it, so each is read once.
            if self.slot[s as usize].head != r.su {
                continue;
            }
            let (base, prefix) = world.near_pus(s).expect("delta runs on sparse radios");
            for &k in base.iter().chain(prefix) {
                if self.pu_scratch[k as usize] != self.pu_on[k as usize] {
                    self.pu_terms.push((k, s, world.near_pu_gain(k, s)));
                }
            }
        }
        self.pu_terms.sort_unstable_by_key(|&(k, _, _)| k);
    }

    /// Delta path: adds (`on`) or withdraws toggling PU `k`'s gathered
    /// terms, skipping any slot an abort earlier in the PU slot closed. A
    /// toggle's terms may run in any order: a re-check reads only its own
    /// slot, and an addition re-checks each.
    fn move_pu_terms(&mut self, k: usize, on: bool) {
        let p_p = self.world.phy().pu_power();
        let lo = self.pu_terms.partition_point(|t| (t.0 as usize) < k);
        let hi = self.pu_terms.partition_point(|t| t.0 as usize <= k);
        for i in lo..hi {
            let (_, s, g) = self.pu_terms[i];
            let acc = &mut self.slot[s as usize];
            if acc.head == NO_SU {
                continue;
            } else if on {
                acc.intf.add(p_p * g);
                self.recheck_slot(s);
            } else {
                acc.intf.withdraw(p_p * g);
            }
        }
    }

    /// Turns PU `k` on. `world` is this simulator's own world, cloned
    /// once by the caller rather than once per toggle.
    fn set_pu_on(&mut self, world: &SimWorld, k: usize) {
        debug_assert!(!self.pu_on[k]);
        self.emit(TraceEventKind::PuOn { pu: k as u32 });
        self.pu_on[k] = true;
        self.on_pos[k] = self.on_pus.len();
        self.on_pus.push(k as u32);

        // New interference for every ongoing reception.
        let p_p = world.phy().pu_power();
        match self.path {
            SirPath::Scan => {
                for r in &mut self.active {
                    let g = world.pu_gain(k, r.rx_slot);
                    if g != 0.0 {
                        r.intf.add(p_p * g);
                    }
                }
                self.check_all_sir();
            }
            SirPath::Delta => self.move_pu_terms(k, true),
        }

        // Listening SUs overhearing this PU: freeze backoffs; transmitters
        // hand off. Aborts run after the walk, so it sees fixed bits.
        let mut aborts: Vec<u32> = Vec::new();
        self.for_each_listener(k, world.pu_fanout(k), |sim, v| {
            sim.pu_busy_inc(v);
            if sim.active_pos[v as usize] != usize::MAX {
                aborts.push(v);
            }
        });
        for v in aborts {
            self.abort_tx(v);
        }
    }

    /// Turns PU `k` off; `world` as for `set_pu_on`.
    fn set_pu_off(&mut self, world: &SimWorld, k: usize) {
        debug_assert!(self.pu_on[k]);
        self.emit(TraceEventKind::PuOff { pu: k as u32 });
        self.pu_on[k] = false;
        let pos = self.on_pos[k];
        self.on_pus.swap_remove(pos);
        if pos < self.on_pus.len() {
            self.on_pos[self.on_pus[pos] as usize] = pos;
        }
        self.on_pos[k] = usize::MAX;

        // No re-checks on decrease.
        let p_p = world.phy().pu_power();
        match self.path {
            SirPath::Scan => {
                for r in &mut self.active {
                    let g = world.pu_gain(k, r.rx_slot);
                    if g != 0.0 {
                        r.intf.withdraw(p_p * g);
                    }
                }
            }
            SirPath::Delta => self.move_pu_terms(k, false),
        }

        self.for_each_listener(k, world.pu_fanout(k), Self::pu_busy_dec);
    }

    /// Scan path: re-verdicts every reception after an interference
    /// increase (the full O(actives) sweep).
    fn check_all_sir(&mut self) {
        let eta = self.world.phy().su_sir_threshold();
        for r in &mut self.active {
            r.verdict(r.intf.sum, eta);
        }
    }

    /// Delta path: re-verdicts the receptions chained at `slot` after its
    /// accumulator increased — the only receptions whose interference
    /// changed: everything at the slot except the reception's own term,
    /// plus the owner's self term (`x + 0.0` keeps the bits of every
    /// finite `x >= 0.0`, so an absent one is exact). Callers pre-filter
    /// on a non-empty chain (`SlotAcc::head`), keeping this out of the
    /// row-walk fast path.
    fn recheck_slot(&mut self, slot: u32) {
        let eta = self.world.phy().su_sir_threshold();
        let acc = self.slot[slot as usize];
        let mut cur = acc.head;
        while cur != NO_SU {
            let r = &mut self.active[self.active_pos[cur as usize]];
            if !r.failed_sir {
                r.verdict(acc.intf.without(r.own) + acc.self_term, eta);
            }
            cur = self.next_at_slot[cur as usize];
        }
    }

    /// Delta path: adds (`on`) or withdraws `su`'s term at every receiving
    /// slot that hears it, all of them in the 3×3 cell block around it,
    /// and lists or unlists `su` as live. An addition re-checks each
    /// slot's receptions; each slot is listed once, so a re-check sees the
    /// fully updated sum, and a removal never needs one (a shrinking sum
    /// cannot newly fail the sticky SIR test). At `su`'s *own* slot, if it
    /// is a receiver, the term is the clamped self-jamming monster, kept
    /// apart in [`SlotAcc::self_term`] so that clearing it is exact.
    fn move_su_term(&mut self, su: u32, on: bool) {
        let world = Arc::clone(&self.world);
        let p_s = world.phy().su_power();
        let my_slot = world.receiver_slot(su).unwrap_or(NO_SU);
        let cell = self.live.cells.of(world.su_positions()[su as usize]);
        if on {
            self.live.txs[cell].push(su);
        } else {
            unlist(&mut self.live.txs[cell], su);
        }
        for c in self.live.cells.around(cell) {
            for i in 0..self.live.rxs[c].len() {
                let s = self.live.rxs[c][i];
                let g = world.su_gain(su, s);
                let acc = &mut self.slot[s as usize];
                if g == 0.0 {
                    continue;
                } else if s == my_slot {
                    acc.self_term = if on { p_s * g } else { 0.0 };
                } else if on {
                    acc.intf.add(p_s * g);
                } else {
                    acc.intf.withdraw(p_s * g);
                }
                if on {
                    self.recheck_slot(s);
                }
            }
        }
    }

    /// Delta path: the cell of slot `s`'s receiver.
    fn slot_cell(&self, s: u32) -> usize {
        let rx = self.world.receivers()[s as usize];
        self.live.cells.of(self.world.su_positions()[rx as usize])
    }

    /// Delta path: the live transmitters in the 3×3 cell block around slot
    /// `s`'s receiver, a superset of those within its cutoff.
    fn block_txs(&self, s: u32) -> impl Iterator<Item = u32> + '_ {
        let cells = self.live.cells.around(self.slot_cell(s));
        cells.flat_map(|c| self.live.txs[c].iter().copied())
    }

    /// Delta path: slot `s`'s sum over the transmitters `txs` it hears, in
    /// their order (the owner's term kept apart), then over the on-PUs it
    /// serves: its base row, then its ladder prefix.
    fn slot_sum(&self, s: u32, txs: impl Iterator<Item = u32>) -> SlotAcc {
        let (p_s, p_p) = (self.world.phy().su_power(), self.world.phy().pu_power());
        let owner = self.world.receivers()[s as usize];
        let mut acc = SlotAcc::EMPTY;
        for t in txs {
            let g = self.world.su_gain(t, s);
            if g != 0.0 && t == owner {
                acc.self_term = p_s * g;
            } else if g != 0.0 {
                acc.intf.add(p_s * g);
            }
        }
        let (base, prefix) = self.world.near_pus(s).expect("delta runs on sparse radios");
        for &k in base.iter().chain(prefix) {
            if self.pu_on[k as usize] {
                acc.intf.add(p_p * self.world.near_pu_gain(k, s));
            }
        }
        acc
    }

    /// Delta path: opens slot `s` for its first reception, `su`'s, which
    /// is live already. The sum starts from the other live transmitters
    /// within the slot's cutoff, all in the cell block around it, then
    /// `su`'s own term, then the on-PUs of the slot's near row; the slot
    /// is listed as receiving.
    fn open_slot(&mut self, s: u32, su: u32) {
        debug_assert!(self.pu_terms.is_empty(), "slot {s} opened in a PU slot");
        let others = self.block_txs(s).filter(|&t| t != su);
        self.slot[s as usize] = self.slot_sum(s, others.chain([su]));
        let cell = self.slot_cell(s);
        self.live.rxs[cell].push(s);
    }

    /// Delta path: closes slot `s` after its last reception. Its sum is
    /// dropped, so no residue outlives a reception.
    fn close_slot(&mut self, s: u32) {
        self.slot[s as usize] = SlotAcc::EMPTY;
        let cell = self.slot_cell(s);
        unlist(&mut self.live.rxs[cell], s);
    }

    /// Debug builds, after every event on the delta path: the cells list
    /// exactly the live transmitters and the receiving slots, each in its
    /// own cell, and every receiving slot's count and self term match its
    /// contributors recounted from positions and on-PUs (over its cell
    /// block, which those exact cells make every live transmitter that
    /// can reach it). Worlds above [`CHECKED_SLOTS`] skip it: there the
    /// per-event recount slowed a 5,000-SU debug test from under a second
    /// to about a minute.
    #[cfg(debug_assertions)]
    fn check_live_sums(&self) {
        if self.path != SirPath::Delta || self.slot.len() > CHECKED_SLOTS {
            return;
        }
        let sus = self.world.su_positions();
        let (mut txs, mut rxs) = (Vec::new(), Vec::new());
        for c in 0..self.live.cells.len() {
            txs.extend_from_slice(&self.live.txs[c]);
            rxs.extend_from_slice(&self.live.rxs[c]);
            let wrong_tx = self.live.txs[c]
                .iter()
                .find(|&&t| self.live.cells.of(sus[t as usize]) != c);
            let wrong_rx = self.live.rxs[c].iter().find(|&&s| self.slot_cell(s) != c);
            assert_eq!((wrong_tx, wrong_rx), (None, None), "listed in a wrong cell");
        }
        let mut live: Vec<u32> = self.active.iter().map(|r| r.su).collect();
        let mut receiving: Vec<u32> = self.active.iter().map(|r| r.rx_slot).collect();
        for v in [&mut txs, &mut rxs, &mut live, &mut receiving] {
            v.sort_unstable();
        }
        receiving.dedup();
        assert_eq!(
            (txs, rxs),
            (live.clone(), receiving.clone()),
            "cells disagree"
        );
        for s in receiving {
            let (got, want) = (self.slot[s as usize], self.slot_sum(s, self.block_txs(s)));
            assert_eq!(got.intf.cnt, want.intf.cnt, "slot {s}: count drifted");
            let bits = |a: SlotAcc| a.self_term.to_bits();
            assert_eq!(bits(got), bits(want), "slot {s}: stale self term");
        }
    }

    // ------------------------------------------------------------------

    fn report(&mut self) -> SimReport {
        let finished = self.finished_at.is_some();
        let delay = self.finished_at.unwrap_or(self.mac.max_sim_time);
        SimReport {
            finished,
            delay,
            delay_slots: delay / self.mac.slot,
            packets_expected: self.packets_expected,
            packets_delivered: self.delivered,
            delivery_times: std::mem::take(&mut self.delivery_times),
            attempts: self.attempts,
            successes: self.successes,
            pu_aborts: self.pu_aborts,
            sir_failures: self.sir_failures,
            capture_losses: self.capture_losses,
            peak_queue: self.peak_queue,
            node_stats: std::mem::take(&mut self.node_stats),
            mean_service_time: if self.service_count == 0 {
                0.0
            } else {
                self.service_sum / self.service_count as f64
            },
            max_service_time: self.service_max,
            events_processed: self.events_processed,
            packets_lost: self.packets_lost,
            fault_aborts: self.fault_aborts,
            reparents: self.reparents,
            reparent_latency_mean: if self.reparents == 0 {
                0.0
            } else {
                self.reparent_lat_sum / f64::from(self.reparents)
            },
            reparent_latency_max: self.reparent_lat_max,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crn_geometry::{Point, Region};
    use crn_interference::PhyParams;

    fn phy() -> PhyParams {
        PhyParams::paper_simulation_defaults()
    }

    /// bs(0) <- 1 <- 2 <- ... chain spaced 7 apart.
    fn chain_world(len: usize, pus: Vec<Point>) -> SimWorld {
        let sus: Vec<Point> = (0..len)
            .map(|i| Point::new(5.0 + 7.0 * i as f64, 5.0))
            .collect();
        let parents: Vec<Option<u32>> = (0..len)
            .map(|i| if i == 0 { None } else { Some(i as u32 - 1) })
            .collect();
        let side = (10.0 + 7.0 * len as f64).max(60.0);
        SimWorld::builder(Region::square(side))
            .su_positions(sus)
            .pu_positions(pus)
            .parents(parents)
            .phy(phy())
            .sense_range(25.0)
            .build()
            .unwrap()
    }

    fn run_chain(len: usize, pus: Vec<Point>, p_t: f64, seed: u64) -> SimReport {
        let world = chain_world(len, pus);
        let activity = PuActivity::bernoulli(p_t).unwrap();
        Simulator::builder(world)
            .activity(activity)
            .seed(seed)
            .build()
            .unwrap()
            .run()
    }

    #[test]
    fn single_su_delivers_quickly() {
        let r = run_chain(2, vec![], 0.0, 1);
        assert!(r.finished);
        assert_eq!(r.packets_delivered, 1);
        // One backoff (<= tau_c) plus one slot of airtime.
        assert!(r.delay <= 0.5e-3 + 1e-3 + 1e-9, "delay {}", r.delay);
        assert_eq!(r.successes, 1);
        assert_eq!(r.pu_aborts, 0);
    }

    #[test]
    fn chain_relays_all_packets() {
        for seed in 0..5 {
            let r = run_chain(6, vec![], 0.0, seed);
            assert!(r.finished, "seed {seed}");
            assert_eq!(r.packets_delivered, 5);
            // Everyone's packet recorded exactly once.
            let times: Vec<f64> = r.delivery_times.iter().flatten().copied().collect();
            assert_eq!(times.len(), 5);
            assert!(r.delivery_times[0].is_none());
        }
    }

    #[test]
    fn deeper_sources_deliver_later_on_a_chain() {
        let r = run_chain(5, vec![], 0.0, 3);
        assert!(r.finished);
        // Node 4's packet needs 4 hops; node 1's needs 1. With no PUs the
        // chain drains roughly in depth order.
        let t1 = r.delivery_times[1].unwrap();
        let t4 = r.delivery_times[4].unwrap();
        assert!(t4 > t1, "t1 {t1} t4 {t4}");
    }

    #[test]
    fn always_on_pu_starves_the_network() {
        // PU sits right on top of the chain: p_t = 1 means zero spectrum
        // opportunities forever.
        let mut world_pus = vec![Point::new(12.0, 5.0)];
        let world = chain_world(3, std::mem::take(&mut world_pus));
        let activity = PuActivity::bernoulli(1.0).unwrap();
        let mac = MacConfig {
            max_sim_time: 0.2, // keep the run short
            ..MacConfig::default()
        };
        let r = Simulator::builder(world)
            .mac(mac)
            .activity(activity)
            .seed(7)
            .build()
            .unwrap()
            .run();
        assert!(!r.finished);
        assert_eq!(r.packets_delivered, 0);
        assert_eq!(r.attempts, 0, "no SU should ever find an opportunity");
    }

    #[test]
    fn distant_pu_does_not_block() {
        // PU far beyond the PCR of every chain node.
        let r = run_chain(3, vec![Point::new(55.0, 55.0)], 1.0, 9);
        assert!(r.finished);
        assert_eq!(r.packets_delivered, 2);
    }

    #[test]
    fn pu_handoff_aborts_transmissions() {
        // A PU on top of the chain with p_t = 0.5: SU transmissions start
        // mid-slot (asynchronously) and span a slot boundary, so roughly
        // half of them meet a PU arrival and must hand off.
        let world = chain_world(3, vec![Point::new(12.0, 5.0)]);
        let activity = PuActivity::bernoulli(0.5).unwrap();
        let mac = MacConfig {
            max_sim_time: 0.5,
            ..MacConfig::default()
        };
        let total_aborts: u64 = (0..8)
            .map(|seed| {
                Simulator::builder(world.clone())
                    .mac(mac)
                    .activity(activity)
                    .seed(seed)
                    .build()
                    .unwrap()
                    .run()
                    .pu_aborts
            })
            .sum();
        assert!(
            total_aborts > 0,
            "expected mid-transmission PU arrivals to abort at least once across seeds"
        );
    }

    #[test]
    fn runs_are_deterministic() {
        let a = run_chain(8, vec![Point::new(30.0, 10.0)], 0.3, 42);
        let b = run_chain(8, vec![Point::new(30.0, 10.0)], 0.3, 42);
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let a = run_chain(8, vec![Point::new(30.0, 10.0)], 0.3, 1);
        let b = run_chain(8, vec![Point::new(30.0, 10.0)], 0.3, 2);
        assert_ne!(a.delay, b.delay);
    }

    #[test]
    fn moderate_pu_traffic_still_completes() {
        let r = run_chain(5, vec![Point::new(20.0, 10.0)], 0.3, 11);
        assert!(r.finished);
        assert_eq!(r.packets_delivered, 4);
        // PU waits should have slowed things beyond the no-PU case.
        let clean = run_chain(5, vec![], 0.0, 11);
        assert!(r.delay > clean.delay);
    }

    #[test]
    fn base_station_receptions_are_serialized() {
        let r = run_chain(10, vec![], 0.0, 5);
        assert!(r.finished);
        let mac = MacConfig::default();
        // The bs decodes one packet per airtime, so capacity (measured in
        // slot-sized packets) is bounded by slot/airtime.
        assert!(r.capacity_fraction() <= mac.slot / mac.airtime + 1e-9);
        // And the delay covers at least n back-to-back receptions.
        let airtime_slots = mac.airtime / mac.slot;
        assert!(r.delay_slots >= r.packets_expected as f64 * airtime_slots - 1e-9);
    }

    #[test]
    fn full_slot_airtime_faces_preemption() {
        // With airtime = slot, every transmission spans a PU boundary;
        // with the default half-slot airtime roughly half escape. The
        // full-slot configuration must therefore see strictly more aborts.
        let world_full = chain_world(4, vec![Point::new(15.0, 5.0)]);
        let world_half = chain_world(4, vec![Point::new(15.0, 5.0)]);
        let mac_full = MacConfig {
            airtime: 1e-3,
            max_sim_time: 2.0,
            ..MacConfig::default()
        };
        let mac_half = MacConfig {
            max_sim_time: 2.0,
            ..MacConfig::default()
        };
        let activity = PuActivity::bernoulli(0.3).unwrap();
        let aborts = |world: &SimWorld, mac: MacConfig| -> u64 {
            (0..5)
                .map(|s| {
                    Simulator::builder(world.clone())
                        .mac(mac)
                        .activity(activity)
                        .seed(s)
                        .build()
                        .unwrap()
                        .run()
                        .pu_aborts
                })
                .sum()
        };
        let full = aborts(&world_full, mac_full);
        let half = aborts(&world_half, mac_half);
        assert!(
            full > half,
            "full-slot airtime aborts {full} <= half-slot {half}"
        );
    }

    #[test]
    fn star_contention_is_fair() {
        // Many children directly attached to the bs, all contending: the
        // fairness wait should keep completion times tight.
        let k = 8;
        let mut sus = vec![Point::new(25.0, 25.0)];
        for i in 0..k {
            let a = i as f64 * std::f64::consts::TAU / k as f64;
            sus.push(Point::new(25.0 + 8.0 * a.cos(), 25.0 + 8.0 * a.sin()));
        }
        let parents: Vec<Option<u32>> = std::iter::once(None)
            .chain((0..k).map(|_| Some(0)))
            .collect();
        let world = SimWorld::builder(Region::square(50.0))
            .su_positions(sus)
            .parents(parents)
            .phy(phy())
            .sense_range(25.0)
            .build()
            .unwrap();
        let r = Simulator::builder(world).seed(3).build().unwrap().run();
        assert!(r.finished);
        assert_eq!(r.packets_delivered, k);
        let jain = r.jain_fairness().unwrap();
        assert!(jain > 0.5, "star fairness too low: {jain}");
    }

    #[test]
    fn service_times_are_recorded() {
        let r = run_chain(4, vec![], 0.0, 2);
        assert!(r.mean_service_time > 0.0);
        assert!(r.max_service_time >= r.mean_service_time);
    }

    #[test]
    fn fairness_wait_can_be_disabled() {
        let world = chain_world(4, vec![]);
        let mac = MacConfig {
            fairness_wait: false,
            ..MacConfig::default()
        };
        let r = Simulator::builder(world)
            .mac(mac)
            .seed(1)
            .build()
            .unwrap()
            .run();
        assert!(r.finished);
        assert_eq!(r.packets_delivered, 3);
    }

    #[test]
    fn only_base_station_world_finishes_instantly() {
        let world = SimWorld::builder(Region::square(10.0))
            .su_positions(vec![Point::new(5.0, 5.0)])
            .parents(vec![None])
            .phy(phy())
            .sense_range(25.0)
            .build()
            .unwrap();
        let r = Simulator::builder(world)
            .activity(PuActivity::bernoulli(0.5).unwrap())
            .seed(1)
            .build()
            .unwrap()
            .run();
        assert!(r.finished);
        assert_eq!(r.packets_expected, 0);
        assert_eq!(r.delay, 0.0);
    }

    #[test]
    fn periodic_traffic_collects_every_snapshot() {
        let world = chain_world(4, vec![]);
        let traffic = Traffic::Periodic {
            interval: 0.05,
            snapshots: 3,
        };
        let r = Simulator::builder(world)
            .seed(5)
            .traffic(traffic)
            .build()
            .unwrap()
            .run();
        assert!(r.finished);
        assert_eq!(r.packets_expected, 9);
        assert_eq!(r.packets_delivered, 9);
        // The last snapshot is generated at 0.1 s, so the run outlives it.
        assert!(r.delay >= 0.1);
        // First-delivery times recorded once per origin.
        assert_eq!(r.delivery_times.iter().flatten().count(), 3);
    }

    #[test]
    fn periodic_traffic_tracks_queue_accumulation() {
        // A short interval floods the chain faster than it drains past a
        // PU, so queues must build beyond a single packet.
        let world = chain_world(5, vec![Point::new(19.0, 5.0)]);
        let traffic = Traffic::Periodic {
            interval: 2e-3,
            snapshots: 10,
        };
        let mac = MacConfig {
            max_sim_time: 10.0,
            ..MacConfig::default()
        };
        let r = Simulator::builder(world)
            .mac(mac)
            .activity(PuActivity::bernoulli(0.4).unwrap())
            .seed(9)
            .traffic(traffic)
            .build()
            .unwrap()
            .run();
        assert!(
            r.peak_queue >= 2,
            "expected accumulation, got {}",
            r.peak_queue
        );
    }

    #[test]
    fn snapshot_runs_report_peak_queue() {
        let r = run_chain(6, vec![], 0.0, 3);
        // The node next to the bs relays everyone's packet: its queue must
        // have held at least two packets at some point.
        assert!(r.peak_queue >= 2, "peak queue {}", r.peak_queue);
    }

    #[test]
    fn bad_periodic_interval_rejected() {
        let world = chain_world(2, vec![]);
        let err = Simulator::builder(world)
            .seed(1)
            .traffic(Traffic::Periodic {
                interval: 0.0,
                snapshots: 2,
            })
            .build()
            .unwrap_err();
        assert!(matches!(err, BuildError::BadInterval { .. }));
        assert!(err.to_string().contains("interval"), "{err}");
    }

    #[test]
    fn bad_mac_config_rejected_at_build_time() {
        // Configurations that previously panicked deep inside
        // EventQueue::push mid-run now fail the build with a typed error.
        let cases = [
            (
                MacConfig {
                    contention_window: f64::NAN,
                    ..MacConfig::default()
                },
                "contention window",
            ),
            (
                MacConfig {
                    airtime: f64::INFINITY,
                    ..MacConfig::default()
                },
                "airtime",
            ),
            (
                MacConfig {
                    max_sim_time: f64::INFINITY,
                    ..MacConfig::default()
                },
                "max_sim_time",
            ),
            (
                MacConfig {
                    slot: -1.0,
                    ..MacConfig::default()
                },
                "slot",
            ),
        ];
        for (mac, needle) in cases {
            let err = Simulator::builder(chain_world(2, vec![]))
                .mac(mac)
                .build()
                .unwrap_err();
            assert!(err.to_string().contains(needle), "{err}");
        }
    }

    #[test]
    fn attempts_bound_successes() {
        let r = run_chain(8, vec![Point::new(25.0, 8.0)], 0.4, 13);
        assert!(r.successes <= r.attempts);
        assert_eq!(
            r.attempts,
            r.successes + r.pu_aborts + r.sir_failures + r.capture_losses,
            "every attempt must be classified exactly once"
        );
    }

    /// Two children share a parent but cannot hear each other (short SU
    /// sensing range): their transmissions overlap at the receiver and
    /// RS-mode capture / SIR loss must arbitrate.
    fn hidden_terminal_world() -> SimWorld {
        // Parent (0) in the middle; children 1 and 2 at ±9 — 18 apart,
        // beyond the 10-unit SU sensing range, so they are mutually
        // hidden. PU sensing range stays wide (no PUs anyway).
        let sus = vec![
            Point::new(30.0, 30.0),
            Point::new(21.0, 30.0),
            Point::new(39.0, 30.0),
        ];
        SimWorld::builder(Region::square(60.0))
            .su_positions(sus)
            .parents(vec![None, Some(0), Some(0)])
            .phy(phy())
            .pu_sense_range(25.0)
            .su_sense_range(10.0)
            .build()
            .unwrap()
    }

    #[test]
    fn hidden_terminals_collide_and_eventually_resolve() {
        let mut total_losses = 0;
        for seed in 0..10 {
            let r = Simulator::builder(hidden_terminal_world())
                .seed(seed)
                .build()
                .unwrap()
                .run();
            assert!(r.finished, "BEB must resolve the collision (seed {seed})");
            assert_eq!(r.packets_delivered, 2);
            total_losses += r.sir_failures + r.capture_losses;
        }
        assert!(
            total_losses > 0,
            "mutually hidden equal-power children must collide sometimes"
        );
    }

    #[test]
    fn capture_favors_the_stronger_signal() {
        // Like the hidden-terminal world, but child 2 sits much closer to
        // the parent: when both overlap, RS capture locks onto child 2.
        let sus = vec![
            Point::new(30.0, 30.0),
            Point::new(20.5, 30.0), // far child: distance 9.5
            Point::new(33.0, 30.0), // near child: distance 3
        ];
        let world = SimWorld::builder(Region::square(60.0))
            .su_positions(sus)
            .parents(vec![None, Some(0), Some(0)])
            .phy(phy())
            .pu_sense_range(25.0)
            .su_sense_range(10.0)
            .build()
            .unwrap();
        let mut near_first = 0;
        let mut far_first = 0;
        for seed in 0..20 {
            let r = Simulator::builder(world.clone())
                .seed(seed)
                .build()
                .unwrap()
                .run();
            assert!(r.finished);
            let t1 = r.delivery_times[1].unwrap();
            let t2 = r.delivery_times[2].unwrap();
            if t2 < t1 {
                near_first += 1;
            } else {
                far_first += 1;
            }
        }
        // The stronger (near) child should win the majority of races; the
        // far child still gets through eventually every time.
        assert!(
            near_first > far_first,
            "capture should favor the near child: {near_first} vs {far_first}"
        );
    }

    #[test]
    fn frozen_backoff_resumes_with_preserved_remaining_time() {
        // Two SUs in each other's PCR with no PUs: the loser of the first
        // contention freezes during the winner's airtime and resumes; the
        // total time to both deliveries is bounded by two contention
        // windows plus two airtimes plus the fairness waits — only
        // possible if the frozen remainder is preserved rather than
        // redrawn.
        let world = chain_world(3, vec![]);
        let mac = MacConfig::default();
        for seed in 0..10 {
            let r = Simulator::builder(world.clone())
                .mac(mac)
                .seed(seed)
                .build()
                .unwrap()
                .run();
            assert!(r.finished);
            // worst case: cw + air + wait + cw + air + wait + cw + air
            let bound = 3.0 * mac.contention_window * 2.0 + 3.0 * mac.airtime;
            assert!(
                r.delay <= bound + 1e-9,
                "seed {seed}: delay {} exceeds freeze-preserving bound {bound}",
                r.delay
            );
        }
    }

    #[test]
    fn channel_sensing_is_spatial_not_global() {
        // Two disjoint chains far apart, joined only at the bs in the
        // middle: transmissions on one side must not freeze the other.
        // With PCR 25, nodes at x=5..19 and x=81..95 cannot hear each
        // other (gap > 60), so both sides progress concurrently and the
        // delay is well below the serialized bound.
        let sus = vec![
            Point::new(50.0, 50.0), // bs
            Point::new(41.0, 50.0),
            Point::new(32.0, 50.0),
            Point::new(59.0, 50.0),
            Point::new(68.0, 50.0),
        ];
        let parents = vec![None, Some(0), Some(1), Some(0), Some(3)];
        let world = SimWorld::builder(Region::square(100.0))
            .su_positions(sus)
            .parents(parents)
            .phy(phy())
            .sense_range(25.0)
            .build()
            .unwrap();
        let r = Simulator::builder(world).seed(3).build().unwrap().run();
        assert!(r.finished);
        assert_eq!(r.packets_delivered, 4);
    }

    #[test]
    fn busy_counters_return_to_zero_after_quiescence() {
        // Indirect invariant check: a network that finishes leaves no
        // stuck busy state — rerunning longer changes nothing.
        let world = chain_world(5, vec![Point::new(20.0, 10.0)]);
        let mac_short = MacConfig::default();
        let mac_long = MacConfig {
            max_sim_time: 2.0 * MacConfig::default().max_sim_time,
            ..MacConfig::default()
        };
        let a = Simulator::builder(world.clone())
            .mac(mac_short)
            .activity(PuActivity::bernoulli(0.2).unwrap())
            .seed(8)
            .build()
            .unwrap()
            .run();
        let b = Simulator::builder(world)
            .mac(mac_long)
            .activity(PuActivity::bernoulli(0.2).unwrap())
            .seed(8)
            .build()
            .unwrap()
            .run();
        assert_eq!(
            a.delay, b.delay,
            "extending the cap must not change a finished run"
        );
        assert_eq!(a.attempts, b.attempts);
    }

    // ------------------------------------------------------------------
    // Observability layer.

    use crate::probe::{TimeSeries, TraceLog};

    fn traced_chain(len: usize, pus: Vec<Point>, p_t: f64, seed: u64) -> (SimReport, TraceLog) {
        let world = chain_world(len, pus);
        Simulator::builder(world)
            .activity(PuActivity::bernoulli(p_t).unwrap())
            .seed(seed)
            .probe(TraceLog::unbounded())
            .build()
            .unwrap()
            .run_with_probe()
    }

    #[test]
    fn attaching_a_probe_does_not_change_the_run() {
        let plain = run_chain(6, vec![Point::new(25.0, 8.0)], 0.3, 17);
        let (traced, log) = traced_chain(6, vec![Point::new(25.0, 8.0)], 0.3, 17);
        assert_eq!(plain, traced, "a probe must observe, never perturb");
        assert!(!log.is_empty());
    }

    #[test]
    fn trace_streams_are_byte_identical_across_reruns() {
        let (_, a) = traced_chain(6, vec![Point::new(25.0, 8.0)], 0.3, 42);
        let (_, b) = traced_chain(6, vec![Point::new(25.0, 8.0)], 0.3, 42);
        assert_eq!(a.to_jsonl(), b.to_jsonl());
        assert_eq!(a.to_csv(), b.to_csv());
    }

    #[test]
    fn trace_events_are_time_ordered() {
        let (_, log) = traced_chain(6, vec![Point::new(25.0, 8.0)], 0.4, 5);
        let times: Vec<f64> = log.events().map(|e| e.time).collect();
        assert!(times.windows(2).all(|w| w[0] <= w[1]), "trace out of order");
    }

    #[test]
    fn node_stats_equal_the_fold_of_the_trace() {
        // The aggregate report must be derivable from the event stream:
        // attempts = TxStart count, outcome counters = TxEnd partition,
        // peak queue = max QueueDepth. Run a lossy scenario so every
        // outcome class can appear.
        let (report, log) = traced_chain(8, vec![Point::new(25.0, 8.0)], 0.4, 13);
        let n = report.node_stats.len();
        let mut folded = vec![NodeStats::default(); n];
        for e in log.events() {
            match e.kind {
                TraceEventKind::TxStart { su, .. } => folded[su as usize].attempts += 1,
                TraceEventKind::TxEnd { su, outcome, .. } => match outcome {
                    TxOutcome::Success => folded[su as usize].successes += 1,
                    TxOutcome::PuAbort => folded[su as usize].pu_aborts += 1,
                    TxOutcome::SirLoss => folded[su as usize].sir_failures += 1,
                    TxOutcome::FaultAbort => folded[su as usize].fault_aborts += 1,
                    TxOutcome::CaptureLoss => {}
                },
                TraceEventKind::QueueDepth { su, depth } => {
                    let f = &mut folded[su as usize];
                    f.peak_queue = f.peak_queue.max(depth);
                }
                _ => {}
            }
        }
        for (su, (folded, reported)) in folded.iter().zip(&report.node_stats).enumerate() {
            assert_eq!(folded.attempts, reported.attempts, "su {su} attempts");
            assert_eq!(folded.successes, reported.successes, "su {su} successes");
            assert_eq!(folded.pu_aborts, reported.pu_aborts, "su {su} pu_aborts");
            assert_eq!(
                folded.sir_failures, reported.sir_failures,
                "su {su} sir_failures"
            );
            assert_eq!(folded.peak_queue, reported.peak_queue, "su {su} peak_queue");
        }
        let tx_ends = log
            .events()
            .filter(|e| matches!(e.kind, TraceEventKind::TxEnd { .. }))
            .count() as u64;
        assert_eq!(tx_ends, report.attempts, "every attempt ends exactly once");
    }

    #[test]
    fn delivery_events_match_delivery_times() {
        let (report, log) = traced_chain(6, vec![Point::new(20.0, 8.0)], 0.3, 9);
        assert!(report.finished);
        let mut first_delivery = vec![None; report.delivery_times.len()];
        for e in log.events() {
            if let TraceEventKind::Delivery { origin, .. } = e.kind {
                if first_delivery[origin as usize].is_none() {
                    first_delivery[origin as usize] = Some(e.time);
                }
            }
        }
        assert_eq!(first_delivery, report.delivery_times);
    }

    #[test]
    fn backoff_events_pair_freeze_with_resume_or_tx() {
        let (_, log) = traced_chain(5, vec![Point::new(19.0, 5.0)], 0.5, 21);
        let freezes = log
            .events()
            .filter(|e| matches!(e.kind, TraceEventKind::BackoffFreeze { .. }))
            .count();
        let resumes = log
            .events()
            .filter(|e| matches!(e.kind, TraceEventKind::BackoffResume { .. }))
            .count();
        // Every resume must have a matching earlier freeze; a freeze can
        // stay unresumed at the end of the run.
        assert!(resumes <= freezes, "resumes {resumes} > freezes {freezes}");
        assert!(
            freezes > 0,
            "a p_t = 0.5 PU on the chain must freeze someone"
        );
    }

    #[test]
    fn time_series_probe_reflects_the_run() {
        let world = chain_world(6, vec![]);
        let mac = MacConfig::default();
        let (report, ts) = Simulator::builder(world)
            .mac(mac)
            .seed(3)
            .probe(TimeSeries::per_slot(&mac))
            .build()
            .unwrap()
            .run_with_probe();
        assert!(report.finished);
        let points = ts.points();
        assert!(!points.is_empty());
        // The run transmitted, so some bucket saw the channel busy...
        assert!(points.iter().any(|p| p.utilization > 0.0));
        // ...and utilization is a fraction.
        assert!(points.iter().all(|p| (0.0..=1.0).contains(&p.utilization)));
        // Queues drained by the end of a finished run.
        assert_eq!(points.last().unwrap().total_queue, 0);
        // Buckets are consecutive from 0.
        for (i, p) in points.iter().enumerate() {
            assert_eq!(p.bucket, i as u64);
        }
    }

    #[test]
    fn shared_arc_world_runs_match_owned_world_runs() {
        let world = chain_world(6, vec![Point::new(25.0, 8.0)]);
        let shared = Arc::new(world.clone());
        let activity = PuActivity::bernoulli(0.3).unwrap();
        for seed in 0..3 {
            let owned = Simulator::builder(world.clone())
                .activity(activity)
                .seed(seed)
                .build()
                .unwrap()
                .run();
            let arc = Simulator::builder(shared.clone())
                .activity(activity)
                .seed(seed)
                .build()
                .unwrap()
                .run();
            assert_eq!(owned, arc, "seed {seed}: Arc world changed the run");
        }
    }

    #[test]
    fn truncated_mode_reproduces_exact_reports() {
        // Same deployment under both interference models: the certified
        // truncation must leave every SIR decision — and therefore the
        // whole report — unchanged.
        let build = |model| {
            let len = 8usize;
            let sus: Vec<Point> = (0..len)
                .map(|i| Point::new(5.0 + 7.0 * i as f64, 5.0))
                .collect();
            let parents: Vec<Option<u32>> = (0..len)
                .map(|i| if i == 0 { None } else { Some(i as u32 - 1) })
                .collect();
            SimWorld::builder(Region::square(70.0))
                .su_positions(sus)
                .pu_positions(vec![Point::new(30.0, 10.0), Point::new(65.0, 65.0)])
                .parents(parents)
                .phy(phy())
                .sense_range(25.0)
                .interference(model)
                .build()
                .unwrap()
        };
        let exact = Arc::new(build(crate::InterferenceModel::Exact));
        let sparse = Arc::new(build(crate::InterferenceModel::Truncated { epsilon: 0.1 }));
        assert!(sparse.truncation_stats().is_some());
        let activity = PuActivity::bernoulli(0.3).unwrap();
        for seed in 0..6 {
            let a = Simulator::builder(exact.clone())
                .activity(activity)
                .seed(seed)
                .build()
                .unwrap()
                .run();
            let b = Simulator::builder(sparse.clone())
                .activity(activity)
                .seed(seed)
                .build()
                .unwrap()
                .run();
            assert_eq!(a, b, "seed {seed}: truncated run diverged from exact");
        }
    }

    /// The pre-change removal rule — subtract then clamp — cannot restore
    /// an interference sum to exact zero once a large contribution has
    /// absorbed part of a small one: the rounding residue survives the
    /// clamp and reads as phantom interference. The counted rule snaps to
    /// 0.0 when the last contributor leaves.
    #[test]
    fn contributor_snap_restores_exact_zero() {
        // A near-field PU contribution (p_p · d⁻⁴ at d = 0.5 mm) whose
        // ulp dwarfs far-field contributions.
        let big = 10.0 * (5e-4_f64).powi(4).recip();
        let ulp = f64::from_bits(big.to_bits() + 1) - big;
        let small = 0.6 * ulp; // in (ulp/2, ulp): partially absorbed

        // Old rule: fold both in, fold both out, clamp each step.
        let mut acc = 0.0;
        acc += big;
        acc += small;
        acc = (acc - big).max(0.0);
        acc = (acc - small).max(0.0);
        assert!(
            acc > 0.0,
            "expected cancellation residue from subtract-then-clamp"
        );

        // Counted rule: the last contributor's departure snaps the sum.
        let mut intf = Interference::ZERO;
        for c in [big, small] {
            intf.add(c);
        }
        for c in [big, small] {
            intf.withdraw(c);
        }
        assert_eq!(intf.sum.to_bits(), 0.0f64.to_bits());
    }

    /// End-to-end drift regression: a monster PU contribution (on top of
    /// the base station) partially absorbs a small PU contribution; both
    /// leave before the next packet. A delta engine whose persistent slot
    /// accumulator kept the subtract-then-clamp rule would be left with
    /// residue ≈ 0.014 — the follow-up packet (signal 1e-3 < η·residue)
    /// would then fail SIR on every retry and the run would never finish.
    /// The counted snap restores exact zero, and delta must agree with
    /// the full-scan reference, which recomputes each reception fresh.
    #[test]
    fn interference_residue_does_not_poison_later_receptions() {
        use crn_faults::{FaultEvent, FaultPlan};

        let run = |full_scan: bool| -> SimReport {
            let world = SimWorld::builder(Region::square(50.0))
                .su_positions(vec![Point::new(20.0, 20.0), Point::new(30.0, 20.0)])
                // PU 0 sits 0.5 mm from the base station: contribution
                // 1.6e14, ulp 2⁻⁵. PU 1 at 4.9 m contributes 0.0173 ∈
                // (2⁻⁶, 2⁻⁵) — partially absorbed. Both are outside the
                // transmitter's 10 m PU sense range (10.0005 and 14.9),
                // so node 1 transmits obliviously.
                .pu_positions(vec![Point::new(19.9995, 20.0), Point::new(15.1, 20.0)])
                .parents(vec![None, Some(0)])
                .phy(phy())
                .pu_sense_range(10.0)
                .su_sense_range(10.0)
                .interference(crate::InterferenceModel::Truncated { epsilon: 0.1 })
                .build()
                .unwrap();
            // Silent PU process, pulsed on for exactly one slot between
            // the two packets: on at t = 3 ms, off at t = 4 ms (PU 0
            // first, maximizing residue), with no reception in flight.
            let plan = FaultPlan::from_events(vec![
                FaultEvent::new(
                    2.5e-3,
                    crn_faults::FaultKind::PuRegimeShift {
                        activity: PuActivity::bernoulli(1.0).unwrap(),
                    },
                ),
                FaultEvent::new(
                    3.5e-3,
                    crn_faults::FaultKind::PuRegimeShift {
                        activity: PuActivity::bernoulli(0.0).unwrap(),
                    },
                ),
            ])
            .compile()
            .unwrap();
            Simulator::builder(world)
                .mac(MacConfig {
                    max_sim_time: 1.0,
                    ..MacConfig::default()
                })
                .traffic(Traffic::Periodic {
                    interval: 6e-3,
                    snapshots: 2,
                })
                .faults(plan)
                .seed(1)
                .full_scan(full_scan)
                .build()
                .unwrap()
                .run()
        };

        let delta = run(false);
        let scan = run(true);
        assert_eq!(delta, scan, "delta engine diverged from full scan");
        assert!(
            delta.finished,
            "post-pulse packet starved: phantom interference residue"
        );
        assert_eq!(delta.packets_delivered, 2);
        assert_eq!(
            delta.sir_failures, 0,
            "no real interference ever overlapped a reception"
        );
    }
}
