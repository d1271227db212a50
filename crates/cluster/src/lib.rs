//! # crn-cluster — a distributed serve fleet
//!
//! Turns the single-process [`crn-serve`](crn_serve) daemon into a
//! fleet: one [`Coordinator`] runs the `crn-serve` front end itself, so
//! clients cannot tell it from `crn serve`, while N [`WorkerNode`]
//! processes dial in, join, and execute the work it routes to them.
//!
//! The three layers:
//!
//! - [`ring`] — consistent hashing over result cache keys. Routing is
//!   by *content*, so a given spec always lands on the same worker and
//!   the fleet partitions the cache instead of replicating it.
//! - [`worker`] — the execution half: an in-memory LRU and optional
//!   persistent [`ResultStore`](crn_serve::ResultStore) in front of the
//!   shared [`Executor`](crn_serve::exec::Executor).
//! - [`coordinator`] — the front end's ring backend: the worker
//!   registry, routing, crash/timeout re-dispatch and the local
//!   fallback. Admission, caching and the at-most-once commit are the
//!   front end's, shared with `crn serve`.
//!
//! Everything is std-only (TCP + threads), like the rest of the
//! workspace, and results are bit-identical to single-process
//! `crn serve` because every process executes through the same engine
//! and ships outcomes with the exact-float codec.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod coordinator;
pub mod ring;
pub mod worker;

pub use coordinator::{ClusterConfig, ClusterCounters, Coordinator};
pub use ring::HashRing;
pub use worker::{WorkerConfig, WorkerNode};
