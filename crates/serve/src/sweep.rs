//! The sweep pipeline, generic over who executes the points.
//!
//! The front end serves every sweep, for `crn serve` and the cluster
//! coordinator alike, the same way: resolve every point up front, push
//! them through a bounded in-flight **window** (submit ahead, wait in
//! strict point order), and emit each point either buffered into one
//! response or streamed as its own `{"v":1,"row":{...}}` line. This
//! module owns that pipeline and takes the submit/finish halves of the
//! admission ladder as closures.
//! The response byte stream is deterministic regardless of completion
//! order or which process computed a point, which is what lets the
//! cluster promise bit-identical sweep output at any worker count.

use crate::protocol::{error_response, response_base, RunSpec};
use crate::server::outcome_record_json;
use crate::ErrorKind;
use crn_core::CollectionOutcome;
use crn_workloads::json::Json;
use crn_workloads::Axis;
use std::collections::VecDeque;
use std::io::Write;
use std::sync::Arc;
use std::time::Instant;

/// How one sweep point (or `run` request) resolved.
pub enum PointOutcome {
    /// Success, from cache or computation.
    Ok {
        /// The full-fidelity result.
        outcome: Arc<CollectionOutcome>,
        /// Served without running a simulation (memory or store tier).
        cached: bool,
        /// Joined an identical job already in flight.
        coalesced: bool,
        /// Time from submission to resolution.
        latency_ms: f64,
    },
    /// A complete error response object, ready to send.
    Err(Json),
}

/// Writes one JSON line and flushes it.
///
/// # Errors
///
/// Propagates transport failures (a dead client, for streamed rows).
pub fn write_json_line(writer: &mut dyn Write, payload: &Json) -> std::io::Result<()> {
    let line = format!("{payload}\n");
    writer.write_all(line.as_bytes())?;
    writer.flush()
}

/// Where sweep entries go: buffered into the response, or written
/// immediately as one `{"v":1,"row":{...}}` line per point.
struct SweepSink<'a> {
    stream: Option<&'a mut dyn Write>,
    results: Vec<Json>,
    ok_count: u64,
    cached_count: u64,
    write_failed: bool,
}

impl SweepSink<'_> {
    fn emit(
        &mut self,
        seed: u64,
        x: Option<f64>,
        x_name: &str,
        x_value: f64,
        result: PointOutcome,
    ) {
        let mut entry = Json::obj();
        entry.set("seed", Json::UInt(seed));
        if let Some(x) = x {
            entry.set("x", Json::float(x));
        }
        match result {
            PointOutcome::Ok {
                outcome, cached, ..
            } => {
                self.ok_count += 1;
                self.cached_count += u64::from(cached);
                entry
                    .set("cached", Json::Bool(cached))
                    .set("record", outcome_record_json(x_name, x_value, &outcome));
            }
            PointOutcome::Err(response) => {
                entry.set(
                    "error",
                    response.get("error").cloned().unwrap_or(Json::Null),
                );
            }
        }
        match &mut self.stream {
            None => self.results.push(entry),
            Some(writer) => {
                let mut row = response_base(true);
                row.set("row", entry);
                if write_json_line(*writer, &row).is_err() {
                    self.write_failed = true;
                }
            }
        }
    }
}

/// Runs a sweep end to end: the request's seeds crossed with its
/// optional axis values, each point submitted through `submit` (which
/// may resolve it immediately or return a pending handle) and resolved
/// through `finish`, pipelined `window` deep. Returns the summary
/// response, or `None` when a streamed row failed to write (dead
/// client) — the window then doubles as per-connection backpressure,
/// because emission blocks on the client's TCP receive window before
/// more points are submitted.
#[allow(clippy::too_many_arguments)]
pub fn drive_sweep<P>(
    template: &RunSpec,
    seeds: &[u64],
    axis: Option<&Axis>,
    timeout_ms: Option<u64>,
    stream: Option<&mut dyn Write>,
    window: usize,
    mut submit: impl FnMut(RunSpec) -> P,
    mut finish: impl FnMut(P, Option<u64>) -> PointOutcome,
) -> Option<Json> {
    let started = Instant::now();
    let streamed = stream.is_some();
    // Resolve every point up front: axis application validates values
    // (counts, probabilities, powers), and a bad value fails the whole
    // request before any work is admitted.
    let mut points: Vec<(u64, Option<f64>, RunSpec)> = Vec::new();
    for &seed in seeds {
        let mut spec = template.clone();
        spec.params.seed = seed;
        match axis {
            None => points.push((seed, None, spec)),
            Some(axis) => {
                for &x in &axis.values {
                    match axis.try_apply(&spec.params, x) {
                        Ok(params) => {
                            let mut point = spec.clone();
                            point.params = params;
                            points.push((seed, Some(x), point));
                        }
                        Err(e) => {
                            return Some(error_response(
                                ErrorKind::BadRequest,
                                &format!("axis value {x} rejected: {e}"),
                            ));
                        }
                    }
                }
            }
        }
    }
    let total = points.len();
    let window = window.max(1);
    let mut sink = SweepSink {
        stream,
        results: Vec::with_capacity(if streamed { 0 } else { total }),
        ok_count: 0,
        cached_count: 0,
        write_failed: false,
    };
    // Sliding window: submit ahead, emit strictly in point order. The
    // response byte stream is therefore deterministic no matter which
    // worker (or process, in cluster mode) finishes a point first.
    let mut pending: VecDeque<(u64, Option<f64>)> = VecDeque::new();
    let mut jobs: VecDeque<P> = VecDeque::new();
    for (seed, x, spec) in points {
        pending.push_back((seed, x));
        jobs.push_back(submit(spec));
        if jobs.len() >= window {
            drain_one(
                axis,
                timeout_ms,
                &mut pending,
                &mut jobs,
                &mut sink,
                &mut finish,
            );
            if sink.write_failed {
                return None;
            }
        }
    }
    while !jobs.is_empty() {
        drain_one(
            axis,
            timeout_ms,
            &mut pending,
            &mut jobs,
            &mut sink,
            &mut finish,
        );
        if sink.write_failed {
            return None;
        }
    }
    let mut o = response_base(true);
    if let Some(a) = axis {
        o.set("axis", Json::Str(a.kind.label().into()));
    }
    o.set("points", Json::UInt(total as u64))
        .set("ok_points", Json::UInt(sink.ok_count))
        .set("cached_points", Json::UInt(sink.cached_count))
        .set(
            "wall_ms",
            Json::float(started.elapsed().as_secs_f64() * 1e3),
        );
    if streamed {
        o.set("streamed", Json::Bool(true));
    } else {
        o.set("results", Json::Arr(sink.results));
    }
    Some(o)
}

/// Pops the head of the sweep window, waits for it, and emits it.
fn drain_one<P>(
    axis: Option<&Axis>,
    timeout_ms: Option<u64>,
    pending: &mut VecDeque<(u64, Option<f64>)>,
    jobs: &mut VecDeque<P>,
    sink: &mut SweepSink<'_>,
    finish: &mut impl FnMut(P, Option<u64>) -> PointOutcome,
) {
    let Some((seed, x)) = pending.pop_front() else {
        return;
    };
    let Some(job) = jobs.pop_front() else { return };
    let (x_name, x_value) = match (axis, x) {
        (Some(a), Some(x)) => (a.kind.label(), x),
        _ => ("seed", seed as f64),
    };
    let result = finish(job, timeout_ms);
    sink.emit(seed, x, x_name, x_value, result);
}
