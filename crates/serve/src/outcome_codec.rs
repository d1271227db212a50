//! Full-fidelity JSON codec for [`CollectionOutcome`] — the one
//! serialization both the persistent result store and the cluster's
//! internal `result` messages use.
//!
//! Unlike [`crate::protocol::report_json`] (a summarized response
//! payload), this codec round-trips **every** field bit-for-bit: the
//! [`crn_workloads::json::Json`] writer emits shortest-round-trip float
//! literals and the parser recovers the exact same `f64` bits, so a
//! result computed on any worker, committed to disk, and re-read after a
//! restart serializes to byte-identical response lines. That exactness is
//! what lets the coordinator treat "who computed it" and "when" as
//! non-identity.
//!
//! Per-node arrays (`delivery_times`, `node_stats`) ARE shipped here —
//! they feed derived response fields (`jain`, per-node loss counts) that
//! must match a locally-computed result exactly.

use crn_core::CollectionOutcome;
use crn_sim::{NodeStats, SimReport};
use crn_topology::TreeKind;
use crn_workloads::json::Json;

/// A malformed or lossy encoded outcome.
#[derive(Clone, Debug, PartialEq)]
pub struct CodecError(pub String);

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "outcome codec: {}", self.0)
    }
}

impl std::error::Error for CodecError {}

fn bad(message: impl Into<String>) -> CodecError {
    CodecError(message.into())
}

fn tree_kind_str(kind: TreeKind) -> &'static str {
    match kind {
        TreeKind::Cds => "cds",
        TreeKind::Bfs => "bfs",
        TreeKind::Custom => "custom",
    }
}

fn tree_kind_from(s: &str) -> Result<TreeKind, CodecError> {
    match s {
        "cds" => Ok(TreeKind::Cds),
        "bfs" => Ok(TreeKind::Bfs),
        "custom" => Ok(TreeKind::Custom),
        other => Err(bad(format!("unknown tree kind '{other}'"))),
    }
}

/// Encodes a finite float exactly; non-finite values (which JSON cannot
/// express) are rejected rather than silently flattened to `null` — a
/// report carrying one would not round-trip, and no honest simulation
/// produces one.
fn float(name: &str, v: f64) -> Result<Json, CodecError> {
    if v.is_finite() {
        Ok(Json::Float(v))
    } else {
        Err(bad(format!("non-finite field '{name}' ({v})")))
    }
}

/// Serializes one outcome to a single JSON object.
///
/// # Errors
///
/// Returns [`CodecError`] if the report carries a non-finite float
/// (every float field is checked on encode).
pub fn outcome_to_json(outcome: &CollectionOutcome) -> Result<Json, CodecError> {
    let r = &outcome.report;
    let mut delivery = Vec::with_capacity(r.delivery_times.len());
    for (i, t) in r.delivery_times.iter().enumerate() {
        delivery.push(match t {
            None => Json::Null,
            Some(t) => float(&format!("delivery_times[{i}]"), *t)?,
        });
    }
    // Node stats pack as fixed-order 7-tuples: with thousands of nodes the
    // field names would dominate the payload.
    let nodes: Vec<Json> = r
        .node_stats
        .iter()
        .map(|s| {
            Json::Arr(vec![
                Json::UInt(u64::from(s.attempts)),
                Json::UInt(u64::from(s.successes)),
                Json::UInt(u64::from(s.pu_aborts)),
                Json::UInt(u64::from(s.sir_failures)),
                Json::UInt(u64::from(s.peak_queue)),
                Json::UInt(u64::from(s.fault_aborts)),
                Json::UInt(u64::from(s.packets_lost)),
            ])
        })
        .collect();
    let mut report = Json::obj();
    report
        .set("finished", Json::Bool(r.finished))
        .set("delay", float("delay", r.delay)?)
        .set("delay_slots", float("delay_slots", r.delay_slots)?)
        .set("packets_expected", Json::UInt(r.packets_expected as u64))
        .set("packets_delivered", Json::UInt(r.packets_delivered as u64))
        .set("delivery_times", Json::Arr(delivery))
        .set("attempts", Json::UInt(r.attempts))
        .set("successes", Json::UInt(r.successes))
        .set("pu_aborts", Json::UInt(r.pu_aborts))
        .set("sir_failures", Json::UInt(r.sir_failures))
        .set("capture_losses", Json::UInt(r.capture_losses))
        .set("peak_queue", Json::UInt(r.peak_queue as u64))
        .set(
            "mean_service_time",
            float("mean_service_time", r.mean_service_time)?,
        )
        .set(
            "max_service_time",
            float("max_service_time", r.max_service_time)?,
        )
        .set("events_processed", Json::UInt(r.events_processed))
        .set("packets_lost", Json::UInt(r.packets_lost))
        .set("fault_aborts", Json::UInt(r.fault_aborts))
        .set("reparents", Json::UInt(u64::from(r.reparents)))
        .set(
            "reparent_latency_mean",
            float("reparent_latency_mean", r.reparent_latency_mean)?,
        )
        .set(
            "reparent_latency_max",
            float("reparent_latency_max", r.reparent_latency_max)?,
        )
        .set("node_stats", Json::Arr(nodes));
    let mut o = Json::obj();
    o.set("algorithm", Json::Str(outcome.algorithm.to_string()))
        .set(
            "tree_kind",
            Json::Str(tree_kind_str(outcome.tree_kind).into()),
        )
        .set("tree_height", Json::UInt(u64::from(outcome.tree_height)))
        .set(
            "tree_max_degree",
            Json::UInt(outcome.tree_max_degree as u64),
        )
        .set("report", report);
    Ok(o)
}

fn field<'a>(v: &'a Json, key: &str) -> Result<&'a Json, CodecError> {
    v.get(key).ok_or_else(|| bad(format!("missing '{key}'")))
}

fn req_u64(v: &Json, key: &str) -> Result<u64, CodecError> {
    field(v, key)?
        .as_u64()
        .ok_or_else(|| bad(format!("'{key}' must be a non-negative integer")))
}

fn req_usize(v: &Json, key: &str) -> Result<usize, CodecError> {
    usize::try_from(req_u64(v, key)?).map_err(|_| bad(format!("'{key}' out of range")))
}

fn req_u32(v: &Json, key: &str) -> Result<u32, CodecError> {
    u32::try_from(req_u64(v, key)?).map_err(|_| bad(format!("'{key}' out of range")))
}

fn req_f64(v: &Json, key: &str) -> Result<f64, CodecError> {
    field(v, key)?
        .as_f64()
        .filter(|x| x.is_finite())
        .ok_or_else(|| bad(format!("'{key}' must be a finite number")))
}

fn req_bool(v: &Json, key: &str) -> Result<bool, CodecError> {
    field(v, key)?
        .as_bool()
        .ok_or_else(|| bad(format!("'{key}' must be a bool")))
}

fn node_stats_from(v: &Json) -> Result<NodeStats, CodecError> {
    let t = v
        .as_arr()
        .filter(|t| t.len() == 7)
        .ok_or_else(|| bad("node_stats entries must be 7-tuples"))?;
    let at = |i: usize| -> Result<u32, CodecError> {
        t[i].as_u64()
            .and_then(|u| u32::try_from(u).ok())
            .ok_or_else(|| bad("node_stats entries must be u32 counters"))
    };
    Ok(NodeStats {
        attempts: at(0)?,
        successes: at(1)?,
        pu_aborts: at(2)?,
        sir_failures: at(3)?,
        peak_queue: at(4)?,
        fault_aborts: at(5)?,
        packets_lost: at(6)?,
    })
}

/// Deserializes an outcome encoded by [`outcome_to_json`].
///
/// # Errors
///
/// Returns [`CodecError`] for missing fields, wrong types, or unknown
/// algorithm/tree-kind names.
pub fn outcome_from_json(v: &Json) -> Result<CollectionOutcome, CodecError> {
    let algorithm = field(v, "algorithm")?
        .as_str()
        .ok_or_else(|| bad("'algorithm' must be a string"))?
        .parse()
        .map_err(|e: String| bad(e))?;
    let tree_kind = tree_kind_from(
        field(v, "tree_kind")?
            .as_str()
            .ok_or_else(|| bad("'tree_kind' must be a string"))?,
    )?;
    let tree_height = req_u32(v, "tree_height")?;
    let tree_max_degree = req_usize(v, "tree_max_degree")?;
    let r = field(v, "report")?;
    let delivery_times = field(r, "delivery_times")?
        .as_arr()
        .ok_or_else(|| bad("'delivery_times' must be an array"))?
        .iter()
        .map(|t| match t {
            Json::Null => Ok(None),
            other => other
                .as_f64()
                .filter(|x| x.is_finite())
                .map(Some)
                .ok_or_else(|| bad("delivery times must be finite numbers or null")),
        })
        .collect::<Result<Vec<_>, _>>()?;
    let node_stats = field(r, "node_stats")?
        .as_arr()
        .ok_or_else(|| bad("'node_stats' must be an array"))?
        .iter()
        .map(node_stats_from)
        .collect::<Result<Vec<_>, _>>()?;
    let report = SimReport {
        finished: req_bool(r, "finished")?,
        delay: req_f64(r, "delay")?,
        delay_slots: req_f64(r, "delay_slots")?,
        packets_expected: req_usize(r, "packets_expected")?,
        packets_delivered: req_usize(r, "packets_delivered")?,
        delivery_times,
        attempts: req_u64(r, "attempts")?,
        successes: req_u64(r, "successes")?,
        pu_aborts: req_u64(r, "pu_aborts")?,
        sir_failures: req_u64(r, "sir_failures")?,
        capture_losses: req_u64(r, "capture_losses")?,
        peak_queue: req_usize(r, "peak_queue")?,
        mean_service_time: req_f64(r, "mean_service_time")?,
        max_service_time: req_f64(r, "max_service_time")?,
        events_processed: req_u64(r, "events_processed")?,
        packets_lost: req_u64(r, "packets_lost")?,
        fault_aborts: req_u64(r, "fault_aborts")?,
        reparents: req_u32(r, "reparents")?,
        reparent_latency_mean: req_f64(r, "reparent_latency_mean")?,
        reparent_latency_max: req_f64(r, "reparent_latency_max")?,
        node_stats,
    };
    Ok(CollectionOutcome {
        algorithm,
        tree_kind,
        tree_height,
        tree_max_degree,
        report,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crn_core::{CollectionAlgorithm, Scenario, ScenarioParams};

    fn real_outcome(seed: u64) -> CollectionOutcome {
        let params = ScenarioParams::builder()
            .num_sus(40)
            .num_pus(4)
            .area_side(36.0)
            .seed(seed)
            .build();
        Scenario::generate(&params)
            .unwrap()
            .run(CollectionAlgorithm::Addc)
            .unwrap()
    }

    #[test]
    fn real_outcome_round_trips_bit_for_bit() {
        let outcome = real_outcome(3);
        let encoded = outcome_to_json(&outcome).unwrap();
        let decoded = outcome_from_json(&encoded).unwrap();
        assert_eq!(outcome.report, decoded.report);
        assert_eq!(outcome.algorithm, decoded.algorithm);
        assert_eq!(outcome.tree_kind, decoded.tree_kind);
        assert_eq!(outcome.tree_height, decoded.tree_height);
        assert_eq!(outcome.tree_max_degree, decoded.tree_max_degree);
        // Serialized bytes are stable through a parse → write cycle (the
        // cluster relies on this: a re-encoded result is byte-identical).
        let bytes = encoded.to_string();
        let reparsed: Json = bytes.parse().unwrap();
        assert_eq!(bytes, reparsed.to_string());
        // And the response-facing projections agree exactly.
        assert_eq!(
            crate::protocol::report_json(&outcome).to_string(),
            crate::protocol::report_json(&decoded).to_string()
        );
        assert_eq!(
            crate::server::outcome_record_json("seed", 3.0, &outcome).to_string(),
            crate::server::outcome_record_json("seed", 3.0, &decoded).to_string()
        );
    }

    #[test]
    fn awkward_floats_survive_exactly() {
        let mut outcome = real_outcome(5);
        outcome.report.delay = 0.1 + 0.2; // 0.30000000000000004
        outcome.report.mean_service_time = f64::MIN_POSITIVE;
        outcome.report.max_service_time = 1e300;
        outcome.report.delivery_times[1] = Some(1.0 / 3.0);
        let decoded = outcome_from_json(
            &outcome_to_json(&outcome)
                .unwrap()
                .to_string()
                .parse()
                .unwrap(),
        )
        .unwrap();
        assert_eq!(
            outcome.report.delay.to_bits(),
            decoded.report.delay.to_bits()
        );
        assert_eq!(
            outcome.report.mean_service_time.to_bits(),
            decoded.report.mean_service_time.to_bits()
        );
        assert_eq!(
            outcome.report.max_service_time.to_bits(),
            decoded.report.max_service_time.to_bits()
        );
        assert_eq!(
            outcome.report.delivery_times[1].unwrap().to_bits(),
            decoded.report.delivery_times[1].unwrap().to_bits()
        );
    }

    #[test]
    fn non_finite_fields_are_rejected_not_flattened() {
        let mut outcome = real_outcome(7);
        outcome.report.delay = f64::NAN;
        let e = outcome_to_json(&outcome).unwrap_err();
        assert!(e.0.contains("delay"), "{e}");
        let mut outcome = real_outcome(7);
        outcome.report.delivery_times[2] = Some(f64::INFINITY);
        assert!(outcome_to_json(&outcome).is_err());
    }

    #[test]
    fn malformed_payloads_are_typed_errors() {
        let good = outcome_to_json(&real_outcome(9)).unwrap();

        let mut missing = good.clone();
        if let Json::Obj(pairs) = &mut missing {
            pairs.retain(|(k, _)| k != "algorithm");
        }
        let e = outcome_from_json(&missing).unwrap_err();
        assert!(e.0.contains("algorithm"), "{e}");

        let mut shrub = good.clone();
        if let Json::Obj(pairs) = &mut shrub {
            for (k, v) in pairs.iter_mut() {
                if k == "tree_kind" {
                    *v = Json::Str("shrub".into());
                }
            }
        }
        let e = outcome_from_json(&shrub).unwrap_err();
        assert!(e.0.contains("shrub"), "{e}");

        assert!(outcome_from_json(&Json::obj()).is_err());
    }
}
