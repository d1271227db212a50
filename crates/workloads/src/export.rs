//! JSONL / CSV serialization of sweep records and simulator traces.
//!
//! Everything here is hand-rolled, line-oriented, and deterministic —
//! byte-identical output for identical inputs — so exported artifacts
//! can be diffed across runs and machines. Floats use Rust's shortest
//! round-trip formatting.

use crate::RunRecord;
use crn_sim::TraceLog;
use std::fmt::Write as _;
use std::str::FromStr;

/// On-disk format for trace export.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TraceFormat {
    /// One JSON object per line (`{"t":…,"event":"tx_end",…}`).
    Jsonl,
    /// Flat CSV with a header row.
    Csv,
}

impl FromStr for TraceFormat {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "jsonl" | "json" => Ok(TraceFormat::Jsonl),
            "csv" => Ok(TraceFormat::Csv),
            other => Err(format!(
                "unknown trace format {other:?} (expected jsonl or csv)"
            )),
        }
    }
}

/// Serializes a trace in `format`.
#[must_use]
pub fn trace_to_string(log: &TraceLog, format: TraceFormat) -> String {
    match format {
        TraceFormat::Jsonl => log.to_jsonl(),
        TraceFormat::Csv => log.to_csv(),
    }
}

/// One record as a single JSON line.
#[must_use]
pub fn record_jsonl(r: &RunRecord) -> String {
    let mut s = String::with_capacity(256);
    s.push('{');
    let _ = write!(
        s,
        "\"figure\":{},\"x_name\":{},\"x\":{},\"algorithm\":{},\"rep\":{}",
        json_str(&r.figure),
        json_str(&r.x_name),
        json_f64(r.x),
        json_str(&r.algorithm.to_string()),
        r.rep,
    );
    let _ = write!(
        s,
        ",\"finished\":{},\"delay_slots\":{},\"capacity_fraction\":{}",
        r.finished,
        json_f64(r.delay_slots),
        json_f64(r.capacity_fraction),
    );
    match r.jain {
        Some(j) => {
            let _ = write!(s, ",\"jain\":{}", json_f64(j));
        }
        None => s.push_str(",\"jain\":null"),
    }
    let _ = write!(
        s,
        ",\"attempts\":{},\"successes\":{},\"pu_aborts\":{},\"sir_failures\":{},\"capture_losses\":{}",
        r.attempts, r.successes, r.pu_aborts, r.sir_failures, r.capture_losses,
    );
    let _ = write!(
        s,
        ",\"peak_queue\":{},\"tree_height\":{},\"tree_max_degree\":{}}}",
        r.peak_queue, r.tree_height, r.tree_max_degree,
    );
    s
}

/// JSON number rendering: shortest round-trip for finite values, `null`
/// for NaN/±∞ — JSON has no non-finite literals, and a `NaN` token turns
/// the whole line unparsable (an all-`t = 0` round yields a NaN Jain).
fn json_f64(v: f64) -> String {
    if v.is_finite() {
        v.to_string()
    } else {
        "null".to_owned()
    }
}

/// Minimal JSON string encoding (quotes, backslashes, control chars).
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crn_core::CollectionAlgorithm;

    fn record() -> RunRecord {
        RunRecord {
            figure: "fig6a".into(),
            x_name: "p_t".into(),
            x: 0.3,
            algorithm: CollectionAlgorithm::Addc,
            rep: 2,
            finished: true,
            delay_slots: 123.5,
            capacity_fraction: 0.25,
            jain: None,
            attempts: 10,
            successes: 8,
            pu_aborts: 1,
            sir_failures: 1,
            capture_losses: 0,
            peak_queue: 3,
            tree_height: 4,
            tree_max_degree: 5,
        }
    }

    #[test]
    fn record_jsonl_is_flat_and_complete() {
        let line = record_jsonl(&record());
        assert!(line.starts_with('{') && line.ends_with('}'));
        assert!(line.contains("\"figure\":\"fig6a\""));
        assert!(line.contains("\"algorithm\":\"ADDC\""));
        assert!(line.contains("\"jain\":null"));
        assert!(line.contains("\"delay_slots\":123.5"));
        assert_eq!(line.matches('{').count(), 1);
    }

    #[test]
    fn json_str_escapes() {
        assert_eq!(json_str("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
    }

    #[test]
    fn non_finite_floats_stay_valid_json() {
        // A round where every flow lands at t = 0 makes Jain 0/0 = NaN;
        // JSON has no NaN literal, so the writer must fall back to null.
        let mut r = record();
        r.jain = Some(f64::NAN);
        r.delay_slots = f64::INFINITY;
        r.capacity_fraction = f64::NEG_INFINITY;
        let line = record_jsonl(&r);
        assert!(line.contains("\"jain\":null"), "{line}");
        assert!(line.contains("\"delay_slots\":null"), "{line}");
        assert!(line.contains("\"capacity_fraction\":null"), "{line}");
        for token in ["NaN", "inf"] {
            assert!(!line.contains(token), "invalid JSON token {token}: {line}");
        }
        // Finite values still use shortest round-trip formatting.
        assert!(record_jsonl(&record()).contains("\"delay_slots\":123.5"));
    }

    #[test]
    fn figure_names_with_metacharacters_stay_one_json_object() {
        let mut r = record();
        r.figure = "delay \"vs\" N,\nper rep".into();
        let line = record_jsonl(&r);
        assert_eq!(line.matches('{').count(), 1);
        assert!(line.contains("\\\"vs\\\""), "{line}");
        assert!(!line.contains('\n'), "JSONL must stay one line: {line}");
    }

    #[test]
    fn trace_format_parses() {
        assert_eq!("jsonl".parse::<TraceFormat>().unwrap(), TraceFormat::Jsonl);
        assert_eq!("csv".parse::<TraceFormat>().unwrap(), TraceFormat::Csv);
        assert!("xml".parse::<TraceFormat>().is_err());
    }
}
