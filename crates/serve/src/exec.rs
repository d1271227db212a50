//! The execution core shared by every process that actually runs
//! simulations: the single-process server's worker pool, the cluster
//! worker node, and the coordinator's no-workers-left local fallback.
//!
//! [`Executor`] owns the topology-tier cache (generated scenarios keyed
//! on [`RunSpec::topology_key`], re-customized in place for radio-only
//! parameter changes) and turns a [`RunSpec`] into a
//! [`CollectionOutcome`] with panic isolation — a poisoned scenario fails
//! that one request, never the process.
//!
//! Extracted from `server.rs` so the cluster crate executes specs through
//! the *same* code path as `crn-serve`: bit-identical results regardless
//! of which process computes them is a consequence of there being exactly
//! one way to compute them.

use crate::cache::{CacheStats, LruCache};
use crate::protocol::RunSpec;
use crate::ErrorKind;
use crn_core::{CollectionOutcome, Scenario, ScenarioError};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// An execution failure, typed for the wire.
#[derive(Clone, Debug)]
pub struct ExecError {
    /// Error class (drives the response `code`).
    pub kind: ErrorKind,
    /// Human-readable explanation.
    pub message: String,
}

/// Runs specs; see the module docs.
pub struct Executor {
    topologies: Mutex<LruCache<u64, Arc<Scenario>>>,
    topology_hits: AtomicU64,
}

impl Executor {
    /// Creates an executor with a topology-tier cache of `topo_cache_cap`
    /// entries (0 disables the tier; every request then regenerates).
    #[must_use]
    pub fn new(topo_cache_cap: usize) -> Self {
        Self {
            topologies: Mutex::new(LruCache::new(topo_cache_cap)),
            topology_hits: AtomicU64::new(0),
        }
    }

    /// Executions that re-customized a cached topology instead of
    /// regenerating the scenario from scratch.
    #[must_use]
    pub fn topology_hits(&self) -> u64 {
        self.topology_hits.load(Ordering::Relaxed)
    }

    /// Topology-tier cache snapshot: `(capacity, len, stats)`.
    ///
    /// # Panics
    ///
    /// Panics if the cache mutex is poisoned.
    #[must_use]
    pub fn topology_cache_stats(&self) -> (usize, usize, CacheStats) {
        let t = self.topologies.lock().expect("topology cache poisoned");
        (t.capacity(), t.len(), t.stats())
    }

    /// Runs one simulation with panic isolation: a panicking scenario
    /// yields `500 worker_panicked` instead of unwinding the caller.
    ///
    /// # Errors
    ///
    /// Returns [`ExecError`] for scenario failures, invariant violations,
    /// and caught panics.
    pub fn execute(&self, spec: &RunSpec) -> Result<CollectionOutcome, ExecError> {
        match catch_unwind(AssertUnwindSafe(|| self.execute_unisolated(spec))) {
            Ok(result) => result,
            Err(panic) => Err(ExecError {
                kind: ErrorKind::WorkerPanicked,
                message: format!("worker panicked: {}", panic_message(&panic)),
            }),
        }
    }

    fn execute_unisolated(&self, spec: &RunSpec) -> Result<CollectionOutcome, ExecError> {
        assert!(
            !spec.inject_panic,
            "injected panic (inject_panic=true): exercising worker panic isolation"
        );
        let scenario = self.obtain_scenario(spec)?;
        // Publish before running: the cache shares the allocation, so the
        // per-algorithm world this run prepares is warm for the next
        // re-customization of the same deployment.
        self.topologies
            .lock()
            .expect("topology cache poisoned")
            .insert(spec.topology_key(), scenario.clone());
        if spec.check_invariants {
            let (outcome, _oracle) = scenario.run_checked(spec.algorithm).map_err(|e| match e {
                ScenarioError::Invariant(_) => ExecError {
                    kind: ErrorKind::InvariantViolation,
                    message: e.to_string(),
                },
                other => ExecError {
                    kind: ErrorKind::SimFailed,
                    message: other.to_string(),
                },
            })?;
            Ok(outcome)
        } else {
            scenario.run(spec.algorithm).map_err(|e| ExecError {
                kind: ErrorKind::SimFailed,
                message: e.to_string(),
            })
        }
    }

    /// The topology tier of the two-level cache: a request whose
    /// deployment matches a cached scenario re-customizes it
    /// ([`Scenario::recustomized`] — bit-identical to a fresh generation,
    /// per the `crn-core` equivalence suite); otherwise the scenario is
    /// generated from scratch.
    fn obtain_scenario(&self, spec: &RunSpec) -> Result<Arc<Scenario>, ExecError> {
        let cached = self
            .topologies
            .lock()
            .expect("topology cache poisoned")
            .get(&spec.topology_key());
        if let Some(base) = cached {
            if let Ok(derived) = base.recustomized(&spec.params) {
                self.topology_hits.fetch_add(1, Ordering::Relaxed);
                return Ok(Arc::new(derived));
            }
            // A failed re-customization (e.g. radio parameters the cached
            // deployment cannot satisfy) falls through to the canonical
            // generate path and its error reporting.
        }
        Scenario::generate(&spec.params)
            .map(Arc::new)
            .map_err(|e| ExecError {
                kind: ErrorKind::SimFailed,
                message: e.to_string(),
            })
    }
}

/// Best-effort extraction of a caught panic's message.
#[must_use]
fn panic_message(panic: &Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = panic.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = panic.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".into()
    }
}
