//! `crn-serve`: a concurrent simulation service for the ADDC
//! reproduction.
//!
//! The crate turns the library's scenario runner into a long-lived
//! JSON-lines-over-TCP service with the operational features batch
//! sweeps want but one-shot CLI runs lack:
//!
//! - **Request batching** — a `sweep` request runs one parameter set
//!   over many seeds in a single round trip.
//! - **Result caching** — responses are content-addressed by
//!   [`protocol::RunSpec::cache_key`] (canonical parameters + algorithm +
//!   oracle flag + engine version), so repeated points are answered
//!   without recomputation.
//! - **Single-flight dedup** — identical concurrent requests coalesce
//!   onto one computation instead of racing each other.
//! - **Admission control** — a bounded queue in front of a fixed worker
//!   pool; when it is full the service says `429 overloaded` immediately
//!   rather than letting latency collapse.
//! - **Deadlines** — per-request `timeout_ms` with a CLI repro string in
//!   the `408 timed_out` response.
//! - **Observability** — a `stats` request exposing queue depth,
//!   cache/coalesce counters, and a latency histogram.
//!
//! Everything is `std`-only (`std::net` + threads): the protocol is one
//! JSON object per line in each direction, so `nc` is a usable client.
//! See `protocol.rs` for the wire format and `server.rs` for the
//! runtime: the front end `crn-cluster`'s coordinator shares through its
//! `Backend` trait, and the local worker pool; [`client::Client`] is a
//! minimal blocking client used by the CLI (`crn submit`) and the load
//! generator.

pub mod cache;
pub mod client;
pub mod exec;
pub mod outcome_codec;
pub mod protocol;
pub mod server;
pub mod store;
pub mod sweep;

pub use cache::{CacheStats, LruCache};
pub use client::{Client, ClientError};
pub use protocol::{RunSpec, PROTOCOL_VERSION};
pub use server::{Counters, ServeConfig, Server};
pub use store::{ResultStore, StoreConfig, StoreCounters};

/// Protocol-visible error taxonomy. Every error response carries the
/// snake_case kind plus an HTTP-flavoured numeric code so clients can
/// branch without string matching.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ErrorKind {
    /// Malformed JSON, unknown request type, or invalid parameters.
    BadRequest,
    /// The `v` field is missing or names a protocol we don't speak.
    UnsupportedVersion,
    /// Admission control rejected the request (queue full).
    Overloaded,
    /// The request's `timeout_ms` deadline expired before completion.
    TimedOut,
    /// The server is draining after a shutdown request.
    Draining,
    /// Scenario generation or simulation failed.
    SimFailed,
    /// The run was executed with `check_invariants` and the oracle
    /// reported a violation.
    InvariantViolation,
    /// The simulation panicked; the worker caught it and the server
    /// kept running.
    WorkerPanicked,
    /// The request line exceeded the server's accepted length bound.
    RequestTooLarge,
}

impl ErrorKind {
    /// The stable snake_case identifier used on the wire.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            ErrorKind::BadRequest => "bad_request",
            ErrorKind::UnsupportedVersion => "unsupported_version",
            ErrorKind::Overloaded => "overloaded",
            ErrorKind::TimedOut => "timed_out",
            ErrorKind::Draining => "draining",
            ErrorKind::SimFailed => "sim_failed",
            ErrorKind::InvariantViolation => "invariant_violation",
            ErrorKind::WorkerPanicked => "worker_panicked",
            ErrorKind::RequestTooLarge => "request_too_large",
        }
    }

    /// HTTP-flavoured numeric code for the kind.
    #[must_use]
    pub fn code(self) -> u64 {
        match self {
            ErrorKind::BadRequest | ErrorKind::UnsupportedVersion | ErrorKind::RequestTooLarge => {
                400
            }
            ErrorKind::TimedOut => 408,
            ErrorKind::Overloaded => 429,
            ErrorKind::Draining => 503,
            ErrorKind::SimFailed | ErrorKind::InvariantViolation | ErrorKind::WorkerPanicked => 500,
        }
    }
}

impl std::fmt::Display for ErrorKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

impl std::str::FromStr for ErrorKind {
    type Err = String;

    /// Parses the wire names emitted by [`ErrorKind::as_str`] (used by
    /// the cluster's internal `result` messages to ship typed failures
    /// across processes).
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "bad_request" => Ok(ErrorKind::BadRequest),
            "unsupported_version" => Ok(ErrorKind::UnsupportedVersion),
            "overloaded" => Ok(ErrorKind::Overloaded),
            "timed_out" => Ok(ErrorKind::TimedOut),
            "draining" => Ok(ErrorKind::Draining),
            "sim_failed" => Ok(ErrorKind::SimFailed),
            "invariant_violation" => Ok(ErrorKind::InvariantViolation),
            "worker_panicked" => Ok(ErrorKind::WorkerPanicked),
            "request_too_large" => Ok(ErrorKind::RequestTooLarge),
            other => Err(format!("unknown error kind '{other}'")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_kinds_have_distinct_wire_names() {
        let kinds = [
            ErrorKind::BadRequest,
            ErrorKind::UnsupportedVersion,
            ErrorKind::Overloaded,
            ErrorKind::TimedOut,
            ErrorKind::Draining,
            ErrorKind::SimFailed,
            ErrorKind::InvariantViolation,
            ErrorKind::WorkerPanicked,
            ErrorKind::RequestTooLarge,
        ];
        let names: std::collections::HashSet<&str> = kinds.iter().map(|k| k.as_str()).collect();
        assert_eq!(names.len(), kinds.len());
        assert_eq!(ErrorKind::Overloaded.code(), 429);
        assert_eq!(ErrorKind::TimedOut.code(), 408);
    }
}
