//! Anatomy of one ADDC collection round, narrated from the simulator's
//! event trace.
//!
//! The aggregate report says *how long* collection took; the trace says
//! *why*. This example runs a small scenario with a `TraceLog` attached,
//! then walks the stream: the first SU's full MAC round (backoff draw,
//! freezes, transmission, fairness wait), the attempt-outcome breakdown,
//! and the delivery order at the base station.
//!
//! ```text
//! cargo run --release --example trace_anatomy
//! ```

use crn::core::{CollectionAlgorithm, Scenario, ScenarioParams};
use crn::sim::{TraceEventKind, TraceLog, Traffic, TxOutcome};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let params = ScenarioParams::builder()
        .num_sus(40)
        .num_pus(6)
        .area_side(40.0)
        .p_t(0.3)
        .seed(7)
        .max_connectivity_attempts(2000)
        .build();
    let scenario = Scenario::generate(&params)?;
    let (outcome, trace) = scenario.run_probed(
        CollectionAlgorithm::Addc,
        Traffic::Snapshot,
        TraceLog::unbounded(),
    )?;
    let r = &outcome.report;
    println!(
        "ADDC on {} SUs / {} PUs (p_t = {}): {}/{} packets in {:.0} slots, {} trace events\n",
        params.num_sus,
        params.num_pus,
        params.activity.duty_cycle(),
        r.packets_delivered,
        r.packets_expected,
        r.delay_slots,
        trace.len(),
    );

    // --- Act 1: one SU's first MAC round, event by event. -------------
    let hero = trace
        .events()
        .find_map(|e| match e.kind {
            TraceEventKind::TxStart { su, .. } => Some(su),
            _ => None,
        })
        .expect("someone transmitted");
    println!("== the first transmitter, SU {hero}, round by round ==");
    let slot = 1e-3;
    let mut shown = 0;
    for e in trace.events() {
        let line = match e.kind {
            TraceEventKind::BackoffStart { su, t_i, cw } if su == hero => {
                format!(
                    "draws backoff {:.3} of a {:.3}-slot window",
                    t_i / slot,
                    cw / slot
                )
            }
            TraceEventKind::BackoffFreeze { su, remaining } if su == hero => {
                format!(
                    "channel busy -> freezes with {:.3} slots left",
                    remaining / slot
                )
            }
            TraceEventKind::BackoffResume { su, remaining } if su == hero => {
                format!(
                    "channel clear -> resumes the remaining {:.3} slots",
                    remaining / slot
                )
            }
            TraceEventKind::TxStart { su, rx } if su == hero => {
                format!("backoff expired -> transmits to parent SU {rx}")
            }
            TraceEventKind::TxEnd { su, outcome, .. } if su == hero => {
                format!("transmission ends: {}", outcome.label())
            }
            TraceEventKind::FairnessWait { su, wait } if su == hero => {
                format!(
                    "fairness wait {:.3} slots (cw - t_i) before recontending",
                    wait / slot
                )
            }
            _ => continue,
        };
        println!("  t = {:8.3} slots  {line}", e.time / slot);
        shown += 1;
        if shown >= 12 {
            println!(
                "  ... ({} more events for SU {hero})",
                count_for(&trace, hero) - shown
            );
            break;
        }
    }

    // --- Act 2: where the attempts went. ------------------------------
    let mut by_outcome = [0u64; 5];
    for e in trace.events() {
        if let TraceEventKind::TxEnd { outcome, .. } = e.kind {
            by_outcome[match outcome {
                TxOutcome::Success => 0,
                TxOutcome::PuAbort => 1,
                TxOutcome::SirLoss => 2,
                TxOutcome::CaptureLoss => 3,
                TxOutcome::FaultAbort => 4,
            }] += 1;
        }
    }
    println!("\n== attempt outcomes across the whole run ==");
    for (label, n) in [
        "success",
        "pu_abort (spectrum handoff)",
        "sir_loss",
        "capture_loss",
        "fault_abort (injected faults)",
    ]
    .iter()
    .zip(by_outcome)
    {
        println!("  {label:<30} {n}");
    }

    // --- Act 3: the collection order at the base station. -------------
    println!("\n== first and last packets to arrive ==");
    let deliveries: Vec<(f64, u32, u32)> = trace
        .events()
        .filter_map(|e| match e.kind {
            TraceEventKind::Delivery { origin, via } => Some((e.time, origin, via)),
            _ => None,
        })
        .collect();
    for &(t, origin, via) in deliveries.iter().take(3) {
        println!(
            "  t = {:8.3} slots  SU {origin}'s snapshot (last hop: SU {via})",
            t / slot
        );
    }
    println!("  ...");
    for &(t, origin, via) in deliveries
        .iter()
        .rev()
        .take(2)
        .collect::<Vec<_>>()
        .iter()
        .rev()
    {
        println!(
            "  t = {:8.3} slots  SU {origin}'s snapshot (last hop: SU {via})",
            t / slot
        );
    }
    println!(
        "\nThe stragglers explain the tail: the last arrival sets the paper's \
         data collection delay D = {:.0} slots.",
        r.delay_slots
    );
    Ok(())
}

fn count_for(trace: &crn::sim::TraceLog, su: u32) -> usize {
    trace
        .events()
        .filter(|e| match e.kind {
            TraceEventKind::BackoffStart { su: s, .. }
            | TraceEventKind::BackoffFreeze { su: s, .. }
            | TraceEventKind::BackoffResume { su: s, .. }
            | TraceEventKind::TxStart { su: s, .. }
            | TraceEventKind::TxEnd { su: s, .. }
            | TraceEventKind::FairnessWait { su: s, .. } => s == su,
            _ => false,
        })
        .count()
}
