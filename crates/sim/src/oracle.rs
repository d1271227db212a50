//! Simulation oracle: an [`InvariantChecker`] probe that validates the
//! paper's guarantees *live* during any run.
//!
//! The aggregate report can look plausible while the engine silently
//! violates the properties the reproduction exists to uphold. The oracle
//! re-derives, from the trace stream plus the immutable [`SimWorld`], an
//! independent model of what the engine is allowed to do, and records a
//! [`Violation`] whenever the stream disagrees:
//!
//! - **Packet conservation** — every generated packet is delivered,
//!   queued, or in flight at every instant; queue-depth probes match the
//!   oracle's mirrored queues exactly.
//! - **Concurrent-set property** (Lemma 3) — simultaneously active SU
//!   transmitters are pairwise outside each other's carrier-sensing
//!   range, and every *successful* transmission's SIR clears the decode
//!   threshold under the **exact** cumulative model recomputed from node
//!   positions — even when the engine runs the truncated near-field
//!   tables, so the Lemma-2 truncation certificate is audited on line.
//! - **PU protection** (Section III) — no SU starts transmitting while an
//!   ON primary user senses it, and a PU activation aborts every covered
//!   transmission in the same instant (spectrum handoff).
//! - **Scheduler hygiene** — event times are monotone, frozen backoffs
//!   preserve their remaining time, a stale timer never resurrects (an
//!   expiry from a frozen/waiting phase is an illegal transition), and
//!   the fairness wait equals `max(τ_c − t_i, 0)` (Algorithm 1 line 12).
//!
//! Attach it like any probe:
//!
//! ```
//! use crn_geometry::{Point, Region};
//! use crn_sim::{InvariantChecker, MacConfig, Simulator, SimWorld};
//! use std::sync::Arc;
//!
//! let world = Arc::new(
//!     SimWorld::builder(Region::square(30.0))
//!         .su_positions(vec![Point::new(5.0, 5.0), Point::new(12.0, 5.0)])
//!         .parents(vec![None, Some(0)])
//!         .sense_range(25.0)
//!         .build()
//!         .unwrap(),
//! );
//! let checker = InvariantChecker::new(world.clone(), MacConfig::default());
//! let (report, oracle) = Simulator::builder(world)
//!     .seed(7)
//!     .probe(checker)
//!     .build()
//!     .unwrap()
//!     .run_with_probe();
//! assert!(report.finished);
//! assert!(oracle.is_clean(), "{:?}", oracle.first_violation());
//! ```

use crate::probe::{Probe, TraceEvent, TraceEventKind, TxOutcome};
use crate::{MacConfig, SimWorld};
use crn_interference::path_gain;
use std::fmt;
use std::sync::Arc;

/// Absolute slack for timer arithmetic re-derived from emitted floats.
const TIME_TOL: f64 = 1e-9;
/// Relative slack between the engine's incrementally maintained SIR state
/// and the oracle's from-scratch recomputation. The engine arrives at that
/// state either by full active-set scans or by the transmitter-indexed
/// delta walk (`SirPath` in the engine); the oracle deliberately uses
/// neither, so one tolerance audits both paths.
const SIR_TOL: f64 = 1e-9;
/// Stored-violation cap; later violations only bump the suppressed count.
const MAX_VIOLATIONS: usize = 32;

/// Which guarantee a [`Violation`] breaks.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum InvariantKind {
    /// `generated = delivered + queued + in flight` / queue mirrors.
    PacketConservation,
    /// Pairwise transmitter separation or the exact-model SIR recheck.
    ConcurrentSet,
    /// An SU transmitted under an ON PU, or a handoff did not happen.
    PuProtection,
    /// Monotone times, phase machine, timer budgets, fairness waits.
    SchedulerHygiene,
    /// Injected faults and self-healing: losses attributed exactly once,
    /// fault-aborts justified by an actual outage, re-parents to live
    /// in-range receivers without routing cycles, no traffic through dead
    /// nodes or a browned-out base station.
    FaultConsistency,
}

impl fmt::Display for InvariantKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            InvariantKind::PacketConservation => "packet-conservation",
            InvariantKind::ConcurrentSet => "concurrent-set",
            InvariantKind::PuProtection => "pu-protection",
            InvariantKind::SchedulerHygiene => "scheduler-hygiene",
            InvariantKind::FaultConsistency => "fault-consistency",
        })
    }
}

/// One observed invariant violation, carrying enough context to replay
/// it: the simulation time, the index of the offending trace event, and
/// the reproduction string attached via
/// [`InvariantChecker::with_repro`].
#[derive(Clone, Debug, PartialEq)]
pub struct Violation {
    /// The guarantee that broke.
    pub invariant: InvariantKind,
    /// Simulation time of the offending event, in seconds.
    pub time: f64,
    /// 0-based index of the offending event in the trace stream.
    pub event_index: u64,
    /// Human-readable description of the disagreement.
    pub detail: String,
    /// Reproduction context (seed / parameters), if attached.
    pub repro: Option<String>,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{}] t={} event#{}: {}",
            self.invariant, self.time, self.event_index, self.detail
        )?;
        if let Some(repro) = &self.repro {
            write!(f, " (repro: {repro})")?;
        }
        Ok(())
    }
}

/// The oracle's mirror of one SU's MAC phase.
#[derive(Clone, Copy, Debug, PartialEq)]
enum NodePhase {
    /// Nothing scheduled (or unknown yet).
    Idle,
    /// Countdown running: `remaining` seconds were left at time `since`.
    Counting { remaining: f64, since: f64 },
    /// Countdown frozen with `remaining` seconds banked.
    Frozen { remaining: f64 },
    /// On air since `since`.
    Transmitting { since: f64 },
    /// `TxEnd` seen; fairness wait / next round / idling pending.
    AfterTx,
    /// Fairness wait running until `until`.
    Waiting { until: f64 },
    /// Knocked out by an injected fault (crash or pause).
    Down,
}

/// Per-SU oracle state.
#[derive(Clone, Debug)]
struct NodeState {
    phase: NodePhase,
    /// Backoff drawn at the last `BackoffStart`.
    t_i: f64,
    /// Contention window of the last `BackoffStart`.
    cw: f64,
    /// Mirrored queue depth.
    depth: u64,
}

/// Exact-model SIR bookkeeping for one active transmission.
#[derive(Clone, Copy, Debug)]
struct ActiveSir {
    rx: u32,
    /// SIR dipped below threshold with margin (a `Success` is a bug).
    ever_bad_strict: bool,
    /// SIR dipped below threshold within tolerance (absolves a
    /// `SirLoss`).
    ever_bad_loose: bool,
}

/// A live invariant checker implementing [`Probe`]; see the crate docs
/// for the invariants it enforces and an attachment example.
///
/// The checker *records* violations instead of panicking, so a fuzz
/// harness can collect every disagreement of a run; query with
/// [`InvariantChecker::is_clean`], [`InvariantChecker::violations`], and
/// [`InvariantChecker::first_violation`]. At most 32 violations are
/// stored — the rest only bump [`InvariantChecker::suppressed`].
#[derive(Clone, Debug)]
pub struct InvariantChecker {
    world: Arc<SimWorld>,
    mac: MacConfig,
    repro: Option<String>,

    now: f64,
    events_checked: u64,
    violations: Vec<Violation>,
    suppressed: u64,

    nodes: Vec<NodeState>,
    /// Dense list of currently transmitting SUs.
    active: Vec<u32>,
    /// Per-SU SIR state while transmitting.
    sir: Vec<Option<ActiveSir>>,
    /// Expected `Delivery { via }` after a base-station success.
    expect_delivery_via: Option<u32>,

    pu_on: Vec<bool>,
    /// PUs that sense each SU (reverse of the world's PU fanout lists).
    su_near_pus: Vec<Vec<u32>>,
    /// Transmitters that must hand off at the recorded activation time.
    must_abort: Vec<(u32, f64)>,

    // Fault mirrors (all at their fault-free fixpoint in clean runs).
    /// Whether each node is knocked out (crashed or paused).
    down: Vec<bool>,
    /// Whether a knocked-out node's outage is a crash.
    crashed: Vec<bool>,
    /// Mirrored per-transmitter intended-link gain multipliers.
    link_factor: Vec<f64>,
    /// Whether the base station is inside a brownout window.
    brownout: bool,
    /// Mirrored routing overlay (the world's tree until re-parents).
    cur_parent: Vec<Option<u32>>,
    /// When each orphaned node lost its parent, to audit re-parent
    /// latencies.
    orphan_since: Vec<Option<f64>>,
    /// `FaultAbort` TxEnds awaiting their same-instant crash/pause event.
    fault_abort_pending: Vec<(u32, f64)>,

    generated: u64,
    delivered: u64,
    deliveries_seen: u64,
    /// Packets attributed to faults (crash-dropped queues, packets
    /// generated on crashed nodes).
    lost: u64,
}

impl InvariantChecker {
    /// Creates a checker for runs over `world` under `mac`.
    ///
    /// `mac` must be the configuration the simulator actually runs —
    /// the checker reads `contention_window`, `airtime` and
    /// `fairness_wait` to know what the engine promised. (Passing a
    /// config with `fairness_wait: true` against an engine running
    /// without it is how the injected-bug tests prove the oracle bites.)
    #[must_use]
    pub fn new(world: impl Into<Arc<SimWorld>>, mac: MacConfig) -> Self {
        let world = world.into();
        let n = world.num_sus();
        let num_pus = world.num_pus();
        let mut su_near_pus = vec![Vec::new(); n];
        for k in 0..num_pus {
            for &su in world.pu_fanout(k) {
                su_near_pus[su as usize].push(k as u32);
            }
        }
        Self {
            mac,
            repro: None,
            now: 0.0,
            events_checked: 0,
            violations: Vec::new(),
            suppressed: 0,
            nodes: vec![
                NodeState {
                    phase: NodePhase::Idle,
                    t_i: 0.0,
                    cw: 0.0,
                    depth: 0,
                };
                n
            ],
            active: Vec::new(),
            sir: vec![None; n],
            expect_delivery_via: None,
            pu_on: vec![false; num_pus],
            su_near_pus,
            must_abort: Vec::new(),
            down: vec![false; n],
            crashed: vec![false; n],
            link_factor: vec![1.0; n],
            brownout: false,
            cur_parent: world.parents().to_vec(),
            orphan_since: vec![None; n],
            fault_abort_pending: Vec::new(),
            generated: 0,
            delivered: 0,
            deliveries_seen: 0,
            lost: 0,
            world,
        }
    }

    /// Attaches a reproduction string (conventionally
    /// `"seed=… params=…"`) copied into every recorded [`Violation`].
    #[must_use]
    pub fn with_repro(mut self, seed: u64, params: impl Into<String>) -> Self {
        self.repro = Some(format!("seed={} params={}", seed, params.into()));
        self
    }

    /// Whether no violation was observed.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// Every recorded violation, in observation order (capped at 32).
    #[must_use]
    pub fn violations(&self) -> &[Violation] {
        &self.violations
    }

    /// The first recorded violation, if any — usually the root cause,
    /// since later ones tend to be knock-on effects.
    #[must_use]
    pub fn first_violation(&self) -> Option<&Violation> {
        self.violations.first()
    }

    /// Violations beyond the storage cap.
    #[must_use]
    pub fn suppressed(&self) -> u64 {
        self.suppressed
    }

    /// Number of trace events checked.
    #[must_use]
    pub fn events_checked(&self) -> u64 {
        self.events_checked
    }

    fn record(&mut self, invariant: InvariantKind, detail: String) {
        if self.violations.len() < MAX_VIOLATIONS {
            self.violations.push(Violation {
                invariant,
                time: self.now,
                event_index: self.events_checked,
                detail,
                repro: self.repro.clone(),
            });
        } else {
            self.suppressed += 1;
        }
    }

    /// Recomputes, from scratch and under the **exact** interference
    /// model, the SIR of every active reception, latching the sticky
    /// bad-SIR flags the engine's incremental bookkeeping claims to
    /// maintain. Called after every interference *addition* (`TxStart`,
    /// `PuOn`) — removals only improve SIR, matching the engine's
    /// monotone-fail verdicts on both the full-scan and delta SIR paths
    /// (neither re-verdicts on interference decrease, so auditing
    /// additions covers every latch site).
    fn recheck_exact_sir(&mut self) {
        let phy = self.world.phy();
        let alpha = phy.alpha();
        let eta = phy.su_sir_threshold();
        let p_s = phy.su_power();
        let p_p = phy.pu_power();
        let sus = self.world.su_positions();
        let pus = self.world.pu_positions();
        for i in 0..self.active.len() {
            let su = self.active[i];
            let rx = self.sir[su as usize].expect("active SU has SIR state").rx;
            let rx_pos = sus[rx as usize];
            // The intended link carries any injected degradation (×1.0
            // exactly in fault-free runs); interference terms do not.
            let signal = p_s
                * path_gain(sus[su as usize].distance(rx_pos), alpha)
                * self.link_factor[su as usize];
            let mut interference = 0.0;
            for &other in &self.active {
                if other != su {
                    interference += p_s * path_gain(sus[other as usize].distance(rx_pos), alpha);
                }
            }
            for (k, pu_pos) in pus.iter().enumerate() {
                if self.pu_on[k] {
                    interference += p_p * path_gain(pu_pos.distance(rx_pos), alpha);
                }
            }
            if interference > 0.0 {
                let st = self.sir[su as usize].as_mut().expect("active SU");
                if signal < eta * interference * (1.0 - SIR_TOL) {
                    st.ever_bad_strict = true;
                }
                if signal < eta * interference * (1.0 + SIR_TOL) {
                    st.ever_bad_loose = true;
                }
            }
        }
    }

    /// Whether `cw` is a legal contention window: `τ_c · 2^k` for some
    /// collision-backoff exponent `k` within the engine's cap.
    fn legal_cw(&self, cw: f64) -> bool {
        let base = self.mac.contention_window;
        (0..=crate::config::MAX_BACKOFF_EXP)
            .any(|k| (cw - base * f64::from(1u32 << k)).abs() <= TIME_TOL * f64::from(1u32 << k))
    }

    fn on_backoff_start(&mut self, su: u32, t_i: f64, cw: f64) {
        let phase = self.nodes[su as usize].phase;
        match phase {
            NodePhase::Idle | NodePhase::AfterTx | NodePhase::Waiting { .. } => {}
            _ => self.record(
                InvariantKind::SchedulerHygiene,
                format!("SU {su} started a backoff round from phase {phase:?}"),
            ),
        }
        if let NodePhase::Waiting { until } = phase {
            if self.now < until - TIME_TOL {
                self.record(
                    InvariantKind::SchedulerHygiene,
                    format!(
                        "SU {su} started a round at {} before its fairness wait elapsed at {until}",
                        self.now
                    ),
                );
            }
        }
        if phase == NodePhase::AfterTx && self.mac.fairness_wait {
            self.record(
                InvariantKind::SchedulerHygiene,
                format!(
                    "SU {su} skipped the fairness wait: new round follows TxEnd directly \
                     though fairness_wait is enabled"
                ),
            );
        }
        if !(t_i > 0.0 && t_i <= cw + TIME_TOL) {
            self.record(
                InvariantKind::SchedulerHygiene,
                format!("SU {su} drew backoff t_i={t_i} outside (0, cw={cw}]"),
            );
        }
        if !self.legal_cw(cw) {
            self.record(
                InvariantKind::SchedulerHygiene,
                format!(
                    "SU {su} contention window {cw} is not τ_c·2^k (τ_c={}, k≤{})",
                    self.mac.contention_window,
                    crate::config::MAX_BACKOFF_EXP
                ),
            );
        }
        let node = &mut self.nodes[su as usize];
        node.t_i = t_i;
        node.cw = cw;
        node.phase = NodePhase::Counting {
            remaining: t_i,
            since: self.now,
        };
    }

    fn on_freeze(&mut self, su: u32, remaining: f64) {
        match self.nodes[su as usize].phase {
            NodePhase::Counting {
                remaining: had,
                since,
            } => {
                let expected = (had - (self.now - since)).max(0.0);
                if (remaining - expected).abs() > TIME_TOL {
                    self.record(
                        InvariantKind::SchedulerHygiene,
                        format!(
                            "SU {su} froze with remaining={remaining}, expected {expected} \
                             (had {had} at {since})"
                        ),
                    );
                }
                self.nodes[su as usize].phase = NodePhase::Frozen { remaining };
            }
            phase => {
                self.record(
                    InvariantKind::SchedulerHygiene,
                    format!("SU {su} froze from phase {phase:?}"),
                );
                self.nodes[su as usize].phase = NodePhase::Frozen { remaining };
            }
        }
    }

    fn on_resume(&mut self, su: u32, remaining: f64) {
        match self.nodes[su as usize].phase {
            NodePhase::Frozen { remaining: banked } => {
                if (remaining - banked).abs() > TIME_TOL {
                    self.record(
                        InvariantKind::SchedulerHygiene,
                        format!("SU {su} resumed with remaining={remaining}, banked {banked}"),
                    );
                }
            }
            phase => self.record(
                InvariantKind::SchedulerHygiene,
                format!("SU {su} resumed from phase {phase:?}"),
            ),
        }
        self.nodes[su as usize].phase = NodePhase::Counting {
            remaining,
            since: self.now,
        };
    }

    fn on_tx_start(&mut self, su: u32, rx: u32) {
        // Scheduler: the countdown must have actually elapsed.
        match self.nodes[su as usize].phase {
            NodePhase::Counting { remaining, since } => {
                let elapsed = self.now - since;
                if (elapsed - remaining).abs() > TIME_TOL {
                    self.record(
                        InvariantKind::SchedulerHygiene,
                        format!(
                            "SU {su} transmitted after {elapsed}s of countdown, \
                             but {remaining}s were pending — a stale or forged timer"
                        ),
                    );
                }
            }
            phase => self.record(
                InvariantKind::SchedulerHygiene,
                format!("SU {su} began transmitting from phase {phase:?}"),
            ),
        }
        // The routing overlay, not the world's tree: self-healing may have
        // re-parented this node (identical until a Reparented event).
        if self.cur_parent[su as usize] != Some(rx) {
            self.record(
                InvariantKind::SchedulerHygiene,
                format!(
                    "SU {su} transmitted to {rx}, not its overlay parent {:?}",
                    self.cur_parent[su as usize]
                ),
            );
        }
        if self.down[su as usize] {
            self.record(
                InvariantKind::FaultConsistency,
                format!("SU {su} began transmitting while knocked out by a fault"),
            );
        }
        // PU protection: no ON PU may sense this transmitter.
        for idx in 0..self.su_near_pus[su as usize].len() {
            let k = self.su_near_pus[su as usize][idx];
            if self.pu_on[k as usize] {
                self.record(
                    InvariantKind::PuProtection,
                    format!("SU {su} began transmitting while PU {k} is ON within its PCR"),
                );
            }
        }
        // Concurrent set: pairwise carrier-sensing separation.
        for i in 0..self.active.len() {
            let other = self.active[i];
            if self.world.su_hears_su(su).contains(&other) {
                self.record(
                    InvariantKind::ConcurrentSet,
                    format!(
                        "SU {su} and SU {other} transmit concurrently \
                         though they are within carrier-sensing range"
                    ),
                );
            }
        }
        if self.sir[su as usize].is_some() {
            self.record(
                InvariantKind::SchedulerHygiene,
                format!("SU {su} started a transmission while already on air"),
            );
        } else {
            self.active.push(su);
            self.sir[su as usize] = Some(ActiveSir {
                rx,
                ever_bad_strict: false,
                ever_bad_loose: false,
            });
        }
        self.nodes[su as usize].phase = NodePhase::Transmitting { since: self.now };
        self.recheck_exact_sir();
    }

    fn on_tx_end(&mut self, su: u32, rx: u32, outcome: TxOutcome) {
        if self.expect_delivery_via.is_some() {
            self.record(
                InvariantKind::PacketConservation,
                format!("TxEnd for SU {su} arrived while a Delivery event was still pending"),
            );
            self.expect_delivery_via = None;
        }
        // Scheduler: airtime accounting.
        match self.nodes[su as usize].phase {
            NodePhase::Transmitting { since } => {
                let airtime = self.now - since;
                let cut_short = matches!(outcome, TxOutcome::PuAbort | TxOutcome::FaultAbort);
                let ok = if cut_short {
                    airtime <= self.mac.airtime + TIME_TOL
                } else {
                    (airtime - self.mac.airtime).abs() <= TIME_TOL
                };
                if !ok {
                    self.record(
                        InvariantKind::SchedulerHygiene,
                        format!(
                            "SU {su} transmission lasted {airtime}s, configured airtime {}s \
                             (outcome {})",
                            self.mac.airtime,
                            outcome.label()
                        ),
                    );
                }
            }
            phase => self.record(
                InvariantKind::SchedulerHygiene,
                format!("TxEnd for SU {su} in phase {phase:?}"),
            ),
        }
        // Spectrum handoff bookkeeping.
        let pending = self.must_abort.iter().position(|&(v, _)| v == su);
        match (outcome, pending) {
            (TxOutcome::PuAbort, Some(i)) => {
                self.must_abort.swap_remove(i);
            }
            (TxOutcome::PuAbort, None) => self.record(
                InvariantKind::PuProtection,
                format!("SU {su} reported a spectrum handoff with no PU activation covering it"),
            ),
            // A fault abort also stops the transmission at the activation
            // instant, so it satisfies a pending handoff obligation.
            (TxOutcome::FaultAbort, Some(i)) => {
                self.must_abort.swap_remove(i);
            }
            (_, Some(i)) => {
                self.must_abort.swap_remove(i);
                self.record(
                    InvariantKind::PuProtection,
                    format!(
                        "SU {su} finished with outcome {} though a PU activated inside \
                         its PCR mid-transmission (handoff required)",
                        outcome.label()
                    ),
                );
            }
            (_, None) => {}
        }
        // Exact-model SIR verdict audit.
        let sir = self.sir[su as usize].take();
        if let Some(pos) = self.active.iter().position(|&v| v == su) {
            self.active.swap_remove(pos);
        }
        match sir {
            Some(st) => {
                if outcome == TxOutcome::Success && st.ever_bad_strict {
                    self.record(
                        InvariantKind::ConcurrentSet,
                        format!(
                            "SU {su} → {rx} succeeded though the exact cumulative model \
                             put its SIR below threshold mid-flight"
                        ),
                    );
                }
                if outcome == TxOutcome::SirLoss && !st.ever_bad_loose {
                    self.record(
                        InvariantKind::ConcurrentSet,
                        format!(
                            "SU {su} → {rx} was charged a SIR loss though the exact \
                             model never saw its SIR below threshold"
                        ),
                    );
                }
            }
            None => self.record(
                InvariantKind::SchedulerHygiene,
                format!("TxEnd for SU {su} without a matching TxStart"),
            ),
        }
        // A fault abort must be justified by an actual outage. The engine
        // emits the TxEnd *before* the crash/pause event when the dying
        // node is the transmitter itself, so an unjustified abort goes on
        // a pending list that the same-instant outage event must clear.
        let justified =
            self.down[rx as usize] || (rx == 0 && self.brownout) || self.down[su as usize];
        if outcome == TxOutcome::FaultAbort && !justified {
            self.fault_abort_pending.push((su, self.now));
        }
        // No traffic lands on a dead receiver or a browned-out BS.
        if outcome == TxOutcome::Success {
            if self.down[rx as usize] {
                self.record(
                    InvariantKind::FaultConsistency,
                    format!("SU {su} → {rx} succeeded though the receiver is down"),
                );
            }
            if rx == 0 && self.brownout {
                self.record(
                    InvariantKind::FaultConsistency,
                    format!("SU {su} delivered to the base station during a brownout"),
                );
            }
        }
        // Conservation: a success moves the head packet downstream.
        if outcome == TxOutcome::Success {
            if self.nodes[su as usize].depth == 0 {
                self.record(
                    InvariantKind::PacketConservation,
                    format!("SU {su} delivered from an empty queue"),
                );
            } else {
                self.nodes[su as usize].depth -= 1;
            }
            if rx == 0 {
                self.delivered += 1;
                self.expect_delivery_via = Some(su);
            } else {
                self.nodes[rx as usize].depth += 1;
            }
        }
        self.nodes[su as usize].phase = NodePhase::AfterTx;
    }

    fn on_fairness_wait(&mut self, su: u32, wait: f64) {
        if self.nodes[su as usize].phase != NodePhase::AfterTx {
            self.record(
                InvariantKind::SchedulerHygiene,
                format!(
                    "SU {su} entered a fairness wait from phase {:?}",
                    self.nodes[su as usize].phase
                ),
            );
        }
        let node = &self.nodes[su as usize];
        let expected = (node.cw - node.t_i).max(0.0);
        if (wait - expected).abs() > TIME_TOL {
            self.record(
                InvariantKind::SchedulerHygiene,
                format!(
                    "SU {su} fairness wait is {wait}, but max(cw − t_i, 0) = {expected} \
                     (cw={}, t_i={})",
                    node.cw, node.t_i
                ),
            );
        }
        self.nodes[su as usize].phase = NodePhase::Waiting {
            until: self.now + wait,
        };
    }

    fn on_queue_depth(&mut self, su: u32, depth: u32) {
        let mirrored = self.nodes[su as usize].depth;
        if u64::from(depth) != mirrored {
            self.record(
                InvariantKind::PacketConservation,
                format!("SU {su} queue-depth probe says {depth}, oracle mirror says {mirrored}"),
            );
            // Re-sync so one divergence doesn't cascade into 32 copies.
            self.nodes[su as usize].depth = u64::from(depth);
        }
    }

    fn on_delivery(&mut self, origin: u32, via: u32) {
        self.deliveries_seen += 1;
        match self.expect_delivery_via.take() {
            Some(expected) if expected == via => {}
            Some(expected) => self.record(
                InvariantKind::PacketConservation,
                format!("Delivery via SU {via}, but the base-station success was SU {expected}"),
            ),
            None => self.record(
                InvariantKind::PacketConservation,
                format!("Delivery (origin {origin}, via {via}) without a base-station success"),
            ),
        }
        if origin == 0 || origin as usize >= self.world.num_sus() {
            self.record(
                InvariantKind::PacketConservation,
                format!("Delivery claims impossible origin {origin}"),
            );
        }
    }

    fn on_pu_on(&mut self, pu: u32) {
        if self.pu_on[pu as usize] {
            self.record(
                InvariantKind::SchedulerHygiene,
                format!("PU {pu} turned ON while already ON"),
            );
        }
        self.pu_on[pu as usize] = true;
        // Every covered transmitter must hand off in this same instant.
        for idx in 0..self.world.pu_fanout(pu as usize).len() {
            let su = self.world.pu_fanout(pu as usize)[idx];
            if self.sir[su as usize].is_some() && !self.must_abort.iter().any(|&(v, _)| v == su) {
                self.must_abort.push((su, self.now));
            }
        }
        self.recheck_exact_sir();
    }

    fn on_pu_off(&mut self, pu: u32) {
        if !self.pu_on[pu as usize] {
            self.record(
                InvariantKind::SchedulerHygiene,
                format!("PU {pu} turned OFF while already OFF"),
            );
        }
        self.pu_on[pu as usize] = false;
    }

    /// Overdue spectrum handoffs: a PU activation must abort covered
    /// transmitters at the activation instant, so any entry older than
    /// the current time means the engine kept transmitting under a PU.
    fn check_overdue_handoffs(&mut self) {
        let mut overdue = Vec::new();
        self.must_abort.retain(|&(su, t0)| {
            if self.now > t0 + TIME_TOL {
                overdue.push((su, t0));
                false
            } else {
                true
            }
        });
        for (su, t0) in overdue {
            self.record(
                InvariantKind::PuProtection,
                format!(
                    "SU {su} was still on air after the PU activation at t={t0} \
                     (handoff must be immediate)"
                ),
            );
        }
    }

    /// A `FaultAbort` that no mirrored outage justified must be followed
    /// by its transmitter's crash/pause event in the same instant; an
    /// entry that survives a time advance was never justified at all.
    fn check_stale_fault_aborts(&mut self) {
        let mut stale = Vec::new();
        self.fault_abort_pending.retain(|&(su, t0)| {
            if self.now > t0 + TIME_TOL {
                stale.push((su, t0));
                false
            } else {
                true
            }
        });
        for (su, t0) in stale {
            self.record(
                InvariantKind::FaultConsistency,
                format!(
                    "SU {su} reported a fault abort at t={t0} that no outage \
                     (dead peer, brownout, or same-instant crash/pause) justifies"
                ),
            );
        }
    }

    /// Clears a pending fault-abort justification once the transmitter's
    /// own outage event arrives.
    fn resolve_fault_abort(&mut self, su: u32) {
        if let Some(i) = self.fault_abort_pending.iter().position(|&(v, _)| v == su) {
            self.fault_abort_pending.swap_remove(i);
        }
    }

    /// Shared teardown when an SU is knocked out: the engine must have
    /// ended any transmission first, and the node's phase becomes `Down`.
    fn knock_down(&mut self, su: u32, label: &str) {
        if self.sir[su as usize].is_some() {
            self.record(
                InvariantKind::FaultConsistency,
                format!("SU {su} {label} while the oracle still saw it on air (no TxEnd)"),
            );
            self.sir[su as usize] = None;
            if let Some(pos) = self.active.iter().position(|&v| v == su) {
                self.active.swap_remove(pos);
            }
        }
        self.nodes[su as usize].phase = NodePhase::Down;
    }

    fn on_su_crashed(&mut self, su: u32) {
        self.resolve_fault_abort(su);
        if self.crashed[su as usize] {
            self.record(
                InvariantKind::FaultConsistency,
                format!("SU {su} crashed twice without recovering in between"),
            );
        }
        // (A crash landing on a *paused* node is a legal upgrade.)
        self.down[su as usize] = true;
        self.crashed[su as usize] = true;
        self.knock_down(su, "crashed");
        // Its children enter the healing protocol. Claims persist until
        // the matching `Reparented` — the engine clears them lazily at
        // invisible heal ticks, so the oracle keeps the earliest claim
        // and audits re-parent latencies with one-sided bounds.
        for v in 0..self.cur_parent.len() {
            if v as u32 != su && self.cur_parent[v] == Some(su) && self.orphan_since[v].is_none() {
                self.orphan_since[v] = Some(self.now);
            }
        }
    }

    fn on_su_paused(&mut self, su: u32) {
        self.resolve_fault_abort(su);
        if self.down[su as usize] {
            self.record(
                InvariantKind::FaultConsistency,
                format!("SU {su} paused while already knocked out"),
            );
        }
        self.down[su as usize] = true;
        self.crashed[su as usize] = false;
        self.knock_down(su, "paused");
    }

    /// Shared bring-up for recover/resume: flags clear, the node idles,
    /// and an orphaned comeback (parent still dead) re-enters healing.
    fn bring_up(&mut self, su: u32) {
        self.down[su as usize] = false;
        self.crashed[su as usize] = false;
        self.nodes[su as usize].phase = NodePhase::Idle;
        if let Some(p) = self.cur_parent[su as usize] {
            if self.down[p as usize] && self.orphan_since[su as usize].is_none() {
                self.orphan_since[su as usize] = Some(self.now);
            }
        }
    }

    fn on_su_recovered(&mut self, su: u32) {
        if !self.down[su as usize] {
            self.record(
                InvariantKind::FaultConsistency,
                format!("SU {su} recovered though it was not down"),
            );
        }
        self.bring_up(su);
    }

    fn on_su_resumed(&mut self, su: u32) {
        if !self.down[su as usize] || self.crashed[su as usize] {
            self.record(
                InvariantKind::FaultConsistency,
                format!(
                    "SU {su} resumed though it was not paused \
                     (a crashed node needs a recover)"
                ),
            );
        }
        self.bring_up(su);
    }

    fn on_reparented(&mut self, su: u32, to: u32, latency: f64) {
        let i = su as usize;
        match self.cur_parent[i] {
            Some(p) if self.down[p as usize] => {}
            Some(p) => self.record(
                InvariantKind::FaultConsistency,
                format!("SU {su} re-parented away from {p}, which is alive"),
            ),
            None => self.record(
                InvariantKind::FaultConsistency,
                format!("the base station ({su}) claims to have re-parented"),
            ),
        }
        if self.down[i] {
            self.record(
                InvariantKind::FaultConsistency,
                format!("SU {su} re-parented while itself knocked out"),
            );
        }
        if to == su || self.down[to as usize] {
            self.record(
                InvariantKind::FaultConsistency,
                format!("SU {su} adopted {to}, which is itself or down"),
            );
        }
        if self.world.receiver_slot(to).is_none() {
            self.record(
                InvariantKind::FaultConsistency,
                format!("SU {su} adopted {to}, which is not receiver-capable"),
            );
        }
        let sus = self.world.su_positions();
        let d = sus[i].distance(sus[to as usize]);
        let radius = self.world.phy().su_radius() + 1e-9;
        if d > radius {
            self.record(
                InvariantKind::FaultConsistency,
                format!("SU {su} adopted {to} at distance {d}, beyond the SU radius"),
            );
        }
        // Adopting `to` must keep the overlay acyclic.
        let mut cur = to;
        let mut steps = 0;
        while let Some(p) = self.cur_parent[cur as usize] {
            if p == su {
                self.record(
                    InvariantKind::FaultConsistency,
                    format!("SU {su} adopting {to} closes a routing cycle"),
                );
                break;
            }
            cur = p;
            steps += 1;
            if steps > self.cur_parent.len() {
                break;
            }
        }
        // Latency audit: the claimed orphan instant may not precede the
        // oracle's earliest recorded claim, and discovery takes ≥ 1 slot.
        match self.orphan_since[i] {
            Some(since) => {
                if latency < self.mac.slot - TIME_TOL || self.now - latency < since - TIME_TOL {
                    self.record(
                        InvariantKind::FaultConsistency,
                        format!(
                            "SU {su} re-parent latency {latency} is inconsistent \
                             (orphaned at {since}, now {}, slot {})",
                            self.now, self.mac.slot
                        ),
                    );
                }
            }
            None => self.record(
                InvariantKind::FaultConsistency,
                format!("SU {su} re-parented without ever being orphaned"),
            ),
        }
        self.cur_parent[i] = Some(to);
        self.orphan_since[i] = None;
    }

    fn on_packets_lost(&mut self, su: u32, count: u32) {
        if !self.crashed[su as usize] {
            self.record(
                InvariantKind::FaultConsistency,
                format!("SU {su} lost {count} packets without being crashed"),
            );
        }
        let mirrored = self.nodes[su as usize].depth;
        if u64::from(count) > mirrored {
            self.record(
                InvariantKind::PacketConservation,
                format!("SU {su} lost {count} packets but its mirror holds only {mirrored}"),
            );
            self.nodes[su as usize].depth = 0;
        } else {
            self.nodes[su as usize].depth -= u64::from(count);
        }
        self.lost += u64::from(count);
    }
}

impl Probe for InvariantChecker {
    fn on_event(&mut self, event: &TraceEvent) {
        if event.time + TIME_TOL < self.now {
            self.record(
                InvariantKind::SchedulerHygiene,
                format!(
                    "event time went backwards: {} after {}",
                    event.time, self.now
                ),
            );
        }
        let previous = self.now;
        self.now = event.time.max(previous);
        if self.now > previous {
            self.check_overdue_handoffs();
            self.check_stale_fault_aborts();
        }
        match event.kind {
            TraceEventKind::BackoffStart { su, t_i, cw } => self.on_backoff_start(su, t_i, cw),
            TraceEventKind::BackoffFreeze { su, remaining } => self.on_freeze(su, remaining),
            TraceEventKind::BackoffResume { su, remaining } => self.on_resume(su, remaining),
            TraceEventKind::TxStart { su, rx } => self.on_tx_start(su, rx),
            TraceEventKind::TxEnd { su, rx, outcome } => self.on_tx_end(su, rx, outcome),
            TraceEventKind::FairnessWait { su, wait } => self.on_fairness_wait(su, wait),
            TraceEventKind::Delivery { origin, via } => self.on_delivery(origin, via),
            TraceEventKind::QueueDepth { su, depth } => self.on_queue_depth(su, depth),
            TraceEventKind::PuOn { pu } => self.on_pu_on(pu),
            TraceEventKind::PuOff { pu } => self.on_pu_off(pu),
            TraceEventKind::PacketGenerated { su } => {
                self.generated += 1;
                self.nodes[su as usize].depth += 1;
            }
            TraceEventKind::SuCrashed { su } => self.on_su_crashed(su),
            TraceEventKind::SuRecovered { su } => self.on_su_recovered(su),
            TraceEventKind::SuPaused { su } => self.on_su_paused(su),
            TraceEventKind::SuResumed { su } => self.on_su_resumed(su),
            TraceEventKind::Reparented { su, to, latency } => self.on_reparented(su, to, latency),
            TraceEventKind::PuRegimeShift { duty } => {
                if !(duty.is_finite() && (0.0..=1.0).contains(&duty)) {
                    self.record(
                        InvariantKind::FaultConsistency,
                        format!("PU regime shift to impossible duty cycle {duty}"),
                    );
                }
            }
            TraceEventKind::LinkDegraded { su, factor } => {
                if !(factor.is_finite() && (0.0..=1.0).contains(&factor)) {
                    self.record(
                        InvariantKind::FaultConsistency,
                        format!("SU {su} link degraded by impossible factor {factor}"),
                    );
                }
                self.link_factor[su as usize] = factor;
            }
            TraceEventKind::Brownout { on } => self.brownout = on,
            TraceEventKind::PacketsLost { su, count } => self.on_packets_lost(su, count),
        }
        self.events_checked += 1;
    }

    fn on_finish(&mut self, end_time: f64) {
        self.now = self.now.max(end_time);
        self.check_overdue_handoffs();
        // Any still-pending fault abort never got its outage event.
        let unjustified: Vec<(u32, f64)> = self.fault_abort_pending.drain(..).collect();
        for (su, t0) in unjustified {
            self.record(
                InvariantKind::FaultConsistency,
                format!("run ended with SU {su}'s fault abort at t={t0} unjustified"),
            );
        }
        if !self.must_abort.is_empty() {
            let stuck: Vec<u32> = self.must_abort.iter().map(|&(su, _)| su).collect();
            self.record(
                InvariantKind::PuProtection,
                format!("run ended with un-handed-off transmitters under ON PUs: {stuck:?}"),
            );
        }
        if self.deliveries_seen != self.delivered {
            self.record(
                InvariantKind::PacketConservation,
                format!(
                    "saw {} Delivery events but {} base-station successes",
                    self.deliveries_seen, self.delivered
                ),
            );
        }
        let queued: u64 = self.nodes.iter().map(|s| s.depth).sum();
        if self.generated != self.delivered + queued + self.lost {
            self.record(
                InvariantKind::PacketConservation,
                format!(
                    "conservation broke: generated {} ≠ delivered {} + queued {} \
                     + lost to faults {}",
                    self.generated, self.delivered, queued, self.lost
                ),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Simulator, Traffic};
    use crn_geometry::{Point, Region};
    use crn_interference::PhyParams;
    use crn_spectrum::PuActivity;

    fn chain_world(len: usize, pus: Vec<Point>) -> Arc<SimWorld> {
        let sus: Vec<Point> = (0..len)
            .map(|i| Point::new(5.0 + 7.0 * i as f64, 5.0))
            .collect();
        let parents: Vec<Option<u32>> = (0..len)
            .map(|i| if i == 0 { None } else { Some(i as u32 - 1) })
            .collect();
        let side = (10.0 + 7.0 * len as f64).max(60.0);
        Arc::new(
            SimWorld::builder(Region::square(side))
                .su_positions(sus)
                .pu_positions(pus)
                .parents(parents)
                .phy(PhyParams::paper_simulation_defaults())
                .sense_range(25.0)
                .build()
                .unwrap(),
        )
    }

    fn run_checked(
        world: Arc<SimWorld>,
        mac: MacConfig,
        p_t: f64,
        seed: u64,
        traffic: Traffic,
    ) -> InvariantChecker {
        let checker = InvariantChecker::new(world.clone(), mac).with_repro(seed, "oracle-test");
        let (_, oracle) = Simulator::builder(world)
            .mac(mac)
            .activity(PuActivity::bernoulli(p_t).unwrap())
            .seed(seed)
            .traffic(traffic)
            .probe(checker)
            .build()
            .unwrap()
            .run_with_probe();
        oracle
    }

    #[test]
    fn clean_runs_stay_clean() {
        for seed in 0..4 {
            let oracle = run_checked(
                chain_world(6, vec![Point::new(25.0, 8.0)]),
                MacConfig::default(),
                0.3,
                seed,
                Traffic::Snapshot,
            );
            assert!(
                oracle.is_clean(),
                "seed {seed}: {}",
                oracle.first_violation().unwrap()
            );
            assert!(oracle.events_checked() > 0);
        }
    }

    #[test]
    fn clean_under_periodic_traffic_and_disabled_features() {
        let traffic = Traffic::Periodic {
            interval: 2e-3,
            snapshots: 4,
        };
        for mac in [
            MacConfig::default(),
            MacConfig {
                fairness_wait: false,
                ..MacConfig::default()
            },
        ] {
            let oracle = run_checked(
                chain_world(5, vec![Point::new(19.0, 5.0)]),
                mac,
                0.4,
                3,
                traffic,
            );
            assert!(
                oracle.is_clean(),
                "mac {mac:?}: {}",
                oracle.first_violation().unwrap()
            );
        }
    }

    #[test]
    fn injected_fairness_skip_is_caught() {
        // The engine runs WITHOUT the fairness wait while the oracle is
        // told the configuration promises it — exactly the bug of a MAC
        // that drops Algorithm 1 line 12.
        let world = chain_world(4, vec![]);
        let sim_mac = MacConfig {
            fairness_wait: false,
            ..MacConfig::default()
        };
        let oracle_mac = MacConfig::default();
        let checker = InvariantChecker::new(world.clone(), oracle_mac);
        let (_, oracle) = Simulator::builder(world)
            .mac(sim_mac)
            .seed(1)
            .probe(checker)
            .build()
            .unwrap()
            .run_with_probe();
        let v = oracle
            .first_violation()
            .expect("skipping the fairness wait must be caught");
        assert_eq!(v.invariant, InvariantKind::SchedulerHygiene);
        assert!(v.detail.contains("fairness"), "{v}");
    }

    /// Synthetic tampered streams: feed hand-built events to the checker
    /// directly, as a hostile engine would.
    fn checker_for(world: &Arc<SimWorld>) -> InvariantChecker {
        InvariantChecker::new(world.clone(), MacConfig::default()).with_repro(0, "tampered")
    }

    fn ev(time: f64, kind: TraceEventKind) -> TraceEvent {
        TraceEvent { time, kind }
    }

    #[test]
    fn tampered_time_reversal_is_caught() {
        let world = chain_world(3, vec![]);
        let mut c = checker_for(&world);
        c.on_event(&ev(1.0, TraceEventKind::PacketGenerated { su: 1 }));
        c.on_event(&ev(0.5, TraceEventKind::PacketGenerated { su: 2 }));
        let v = c.first_violation().expect("time reversal");
        assert_eq!(v.invariant, InvariantKind::SchedulerHygiene);
        assert!(v.detail.contains("backwards"), "{v}");
        assert_eq!(v.repro.as_deref(), Some("seed=0 params=tampered"));
    }

    #[test]
    fn tampered_queue_depth_is_caught() {
        let world = chain_world(3, vec![]);
        let mut c = checker_for(&world);
        c.on_event(&ev(0.0, TraceEventKind::PacketGenerated { su: 1 }));
        c.on_event(&ev(0.0, TraceEventKind::QueueDepth { su: 1, depth: 2 }));
        let v = c.first_violation().expect("depth mismatch");
        assert_eq!(v.invariant, InvariantKind::PacketConservation);
    }

    #[test]
    fn tampered_wrong_fairness_wait_is_caught() {
        let world = chain_world(3, vec![]);
        let mut c = checker_for(&world);
        let cw = MacConfig::default().contention_window;
        let t_i = cw * 0.25;
        c.on_event(&ev(0.0, TraceEventKind::BackoffStart { su: 1, t_i, cw }));
        c.on_event(&ev(t_i, TraceEventKind::TxStart { su: 1, rx: 0 }));
        c.on_event(&ev(
            t_i + MacConfig::default().airtime,
            TraceEventKind::TxEnd {
                su: 1,
                rx: 0,
                outcome: TxOutcome::SirLoss,
            },
        ));
        // Correct wait would be cw − t_i = 0.75·cw; claim half of that.
        c.on_event(&ev(
            t_i + MacConfig::default().airtime,
            TraceEventKind::FairnessWait {
                su: 1,
                wait: (cw - t_i) / 2.0,
            },
        ));
        assert!(c
            .violations()
            .iter()
            .any(|v| v.invariant == InvariantKind::SchedulerHygiene
                && v.detail.contains("fairness wait is")));
    }

    #[test]
    fn tampered_concurrent_neighbors_are_caught() {
        // SUs 1 and 2 are 7 apart with sensing range 25: transmitting
        // concurrently violates the concurrent-set separation.
        let world = chain_world(4, vec![]);
        let mut c = checker_for(&world);
        let cw = MacConfig::default().contention_window;
        for su in [1u32, 2] {
            c.on_event(&ev(
                0.0,
                TraceEventKind::BackoffStart {
                    su,
                    t_i: cw / 2.0,
                    cw,
                },
            ));
        }
        c.on_event(&ev(cw / 2.0, TraceEventKind::TxStart { su: 1, rx: 0 }));
        c.on_event(&ev(cw / 2.0, TraceEventKind::TxStart { su: 2, rx: 1 }));
        assert!(c
            .violations()
            .iter()
            .any(|v| v.invariant == InvariantKind::ConcurrentSet));
    }

    #[test]
    fn tampered_transmission_under_on_pu_is_caught() {
        // A PU sitting right on the chain is ON; SU 1 transmits anyway.
        let world = chain_world(3, vec![Point::new(12.0, 5.0)]);
        let mut c = checker_for(&world);
        let cw = MacConfig::default().contention_window;
        c.on_event(&ev(0.0, TraceEventKind::PuOn { pu: 0 }));
        c.on_event(&ev(
            0.0,
            TraceEventKind::BackoffStart {
                su: 1,
                t_i: cw / 2.0,
                cw,
            },
        ));
        c.on_event(&ev(cw / 2.0, TraceEventKind::TxStart { su: 1, rx: 0 }));
        assert!(c
            .violations()
            .iter()
            .any(|v| v.invariant == InvariantKind::PuProtection));
    }

    #[test]
    fn tampered_missed_handoff_is_caught() {
        // PU activates over an in-flight transmission; the stream then
        // moves on without the mandatory same-instant PuAbort.
        let world = chain_world(3, vec![Point::new(12.0, 5.0)]);
        let mut c = checker_for(&world);
        let cw = MacConfig::default().contention_window;
        c.on_event(&ev(
            0.0,
            TraceEventKind::BackoffStart {
                su: 1,
                t_i: cw / 2.0,
                cw,
            },
        ));
        c.on_event(&ev(cw / 2.0, TraceEventKind::TxStart { su: 1, rx: 0 }));
        c.on_event(&ev(cw / 2.0 + 1e-4, TraceEventKind::PuOn { pu: 0 }));
        // Time advances past the activation with SU 1 still on air.
        c.on_event(&ev(
            cw / 2.0 + 2e-4,
            TraceEventKind::PacketGenerated { su: 2 },
        ));
        assert!(c.violations().iter().any(
            |v| v.invariant == InvariantKind::PuProtection && v.detail.contains("still on air")
        ));
    }

    #[test]
    fn tampered_stale_timer_resurrection_is_caught() {
        // A TxStart fired from a Frozen phase is exactly what a stale
        // (generation-counter-bypassing) backoff expiry would produce.
        let world = chain_world(3, vec![]);
        let mut c = checker_for(&world);
        let cw = MacConfig::default().contention_window;
        c.on_event(&ev(
            0.0,
            TraceEventKind::BackoffStart {
                su: 1,
                t_i: cw / 2.0,
                cw,
            },
        ));
        c.on_event(&ev(
            1e-4,
            TraceEventKind::BackoffFreeze {
                su: 1,
                remaining: cw / 2.0 - 1e-4,
            },
        ));
        c.on_event(&ev(cw / 2.0, TraceEventKind::TxStart { su: 1, rx: 0 }));
        assert!(c
            .violations()
            .iter()
            .any(|v| v.invariant == InvariantKind::SchedulerHygiene
                && v.detail.contains("phase Frozen")));
    }

    #[test]
    fn tampered_success_from_empty_queue_is_caught() {
        let world = chain_world(3, vec![]);
        let mut c = checker_for(&world);
        let cw = MacConfig::default().contention_window;
        c.on_event(&ev(
            0.0,
            TraceEventKind::BackoffStart {
                su: 1,
                t_i: cw / 2.0,
                cw,
            },
        ));
        c.on_event(&ev(cw / 2.0, TraceEventKind::TxStart { su: 1, rx: 0 }));
        c.on_event(&ev(
            cw / 2.0 + MacConfig::default().airtime,
            TraceEventKind::TxEnd {
                su: 1,
                rx: 0,
                outcome: TxOutcome::Success,
            },
        ));
        assert!(c
            .violations()
            .iter()
            .any(|v| v.invariant == InvariantKind::PacketConservation
                && v.detail.contains("empty queue")));
    }

    #[test]
    fn violation_storage_is_capped() {
        let world = chain_world(3, vec![]);
        let mut c = checker_for(&world);
        for i in 0..(MAX_VIOLATIONS as u32 + 10) {
            // Every mismatched depth probe is a fresh violation (the
            // mirror re-syncs each time).
            c.on_event(&ev(
                f64::from(i),
                TraceEventKind::QueueDepth {
                    su: 1,
                    depth: 2 * i + 1,
                },
            ));
        }
        assert_eq!(c.violations().len(), MAX_VIOLATIONS);
        assert_eq!(c.suppressed(), 10);
        assert!(!c.is_clean());
    }

    #[test]
    fn violation_display_is_informative() {
        let v = Violation {
            invariant: InvariantKind::ConcurrentSet,
            time: 0.5,
            event_index: 42,
            detail: "test detail".into(),
            repro: Some("seed=7 params=x".into()),
        };
        let s = v.to_string();
        assert!(s.contains("concurrent-set"), "{s}");
        assert!(s.contains("event#42"), "{s}");
        assert!(s.contains("seed=7"), "{s}");
    }
}
