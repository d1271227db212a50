//! The service front end driven through a fake [`Backend`] that holds
//! every admitted job until the test commits it, so the ladder, the
//! admission bound and the at-most-once commit are checked without a
//! simulation in the loop. The one real simulation computes the outcome
//! fixture the tests commit.

use crn_core::CollectionOutcome;
use crn_serve::client::Client;
use crn_serve::exec::{ExecError, Executor};
use crn_serve::protocol::{parse_request, Request, RunSpec};
use crn_serve::server::{Backend, FrontEnd, Job, Service};
use crn_serve::ErrorKind;
use crn_workloads::json::Json;
use std::net::SocketAddr;
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread::JoinHandle;
use std::time::Duration;

/// Holds dispatched jobs for the test to start and commit.
#[derive(Default)]
struct Fake {
    held: Mutex<Vec<Arc<Job>>>,
    arrived: Condvar,
}

impl Backend for Fake {
    fn dispatch(front: &Arc<FrontEnd<Self>>, job: Arc<Job>) {
        let fake = &front.backend;
        fake.held.lock().unwrap().push(job);
        fake.arrived.notify_all();
    }

    fn executors(&self) -> usize {
        1
    }
}

impl Fake {
    /// Blocks until `n` jobs have been dispatched, then returns them in
    /// dispatch order.
    fn await_jobs(&self, n: usize) -> Vec<Arc<Job>> {
        let mut held = self.held.lock().unwrap();
        while held.len() < n {
            held = self.arrived.wait(held).unwrap();
        }
        held.clone()
    }
}

fn start(queue_cap: usize) -> Service<Fake> {
    Service::bind("127.0.0.1:0", queue_cap, 64, 0, None, Fake::default()).expect("bind")
}

fn run_line(seed: u64, extra: &str) -> String {
    format!(
        r#"{{"v":1,"cmd":"run","params":{{"sus":50,"pus":8,"side":42.0,"seed":{seed}}}{extra}}}"#
    )
}

fn spec_of(line: &str) -> RunSpec {
    match parse_request(line) {
        Ok(Request::Run { spec, .. }) => spec,
        other => panic!("not a run: {other:?}"),
    }
}

/// The real outcome for `run_line(1, "")`, computed once.
fn outcome() -> Arc<CollectionOutcome> {
    static OUTCOME: OnceLock<Arc<CollectionOutcome>> = OnceLock::new();
    OUTCOME
        .get_or_init(|| {
            Arc::new(
                Executor::new(0)
                    .execute(&spec_of(&run_line(1, "")))
                    .expect("fixture run"),
            )
        })
        .clone()
}

fn panicked() -> ExecError {
    ExecError {
        kind: ErrorKind::WorkerPanicked,
        message: "worker panicked".into(),
    }
}

fn request(addr: SocketAddr, line: &str) -> Json {
    let mut client = Client::connect(addr).expect("connect");
    client
        .set_read_timeout(Some(Duration::from_secs(60)))
        .expect("set timeout");
    client.request_line(line).expect("response line")
}

/// Sends `line` from its own connection; the response arrives when the
/// test commits the job.
fn spawn_request(addr: SocketAddr, line: String) -> JoinHandle<Json> {
    std::thread::spawn(move || request(addr, &line))
}

fn stats(addr: SocketAddr) -> Json {
    request(addr, r#"{"v":1,"cmd":"stats"}"#)
        .get("stats")
        .expect("stats object")
        .clone()
}

fn counter(stats: &Json, name: &str) -> u64 {
    stats
        .get("counters")
        .and_then(|c| c.get(name))
        .and_then(Json::as_u64)
        .unwrap_or_else(|| panic!("no counter {name}: {stats}"))
}

fn error_kind(response: &Json) -> Option<&str> {
    response.get("error")?.get("kind")?.as_str()
}

fn stop(service: Service<Fake>) {
    service.shutdown();
    service.wait();
}

#[test]
fn identical_runs_coalesce_onto_a_held_job() {
    let service = start(8);
    let addr = service.local_addr();
    let first = spawn_request(addr, run_line(1, ""));
    let job = service.front().backend.await_jobs(1)[0].clone();
    let second = spawn_request(addr, run_line(1, ""));
    // The second request is answered from the held job, so no second
    // job is ever dispatched; wait for it to register as coalesced.
    while counter(&stats(addr), "coalesced") == 0 {
        std::thread::yield_now();
    }
    assert!(service.front().commit(&job, Ok(outcome()), || {}));
    let (first, second) = (first.join().unwrap(), second.join().unwrap());
    assert_eq!(first.get("coalesced").and_then(Json::as_bool), Some(false));
    assert_eq!(second.get("coalesced").and_then(Json::as_bool), Some(true));
    assert_eq!(first.get("report"), second.get("report"));
    assert_eq!(service.front().backend.held.lock().unwrap().len(), 1);
    let snapshot = service.front().snapshot();
    assert_eq!(snapshot.counters.computed, 1);
    assert_eq!(snapshot.counters.served, 2);
    stop(service);
}

#[test]
fn an_injected_panic_never_shares_a_plain_runs_job() {
    let service = start(8);
    let addr = service.local_addr();
    let poisoned = spawn_request(addr, run_line(1, r#","inject_panic":true"#));
    service.front().backend.await_jobs(1);
    let plain = spawn_request(addr, run_line(1, ""));
    let jobs = service.front().backend.await_jobs(2);
    assert!(jobs[0].spec.inject_panic && !jobs[1].spec.inject_panic);
    assert_ne!(jobs[0].key, jobs[1].key);
    assert!(service.front().commit(&jobs[1], Ok(outcome()), || {}));
    assert!(service.front().commit(&jobs[0], Err(panicked()), || {}));
    let plain = plain.join().unwrap();
    assert_eq!(
        plain.get("ok").and_then(Json::as_bool),
        Some(true),
        "{plain}"
    );
    let poisoned = poisoned.join().unwrap();
    assert_eq!(error_kind(&poisoned), Some("worker_panicked"));
    let counters = service.front().snapshot().counters;
    assert_eq!((counters.coalesced, counters.failed), (0, 1));
    stop(service);
}

/// The pool's rule: a job a local thread has started leaves the bound.
#[test]
fn admission_bounds_unstarted_jobs_when_the_backend_starts_them() {
    let service = start(2);
    let addr = service.local_addr();
    let waiters: Vec<_> = (1..=2)
        .map(|s| spawn_request(addr, run_line(s, "")))
        .collect();
    let jobs = service.front().backend.await_jobs(2);
    let rejected = request(addr, &run_line(3, ""));
    assert_eq!(error_kind(&rejected), Some("overloaded"), "{rejected}");
    service.front().start_job(&jobs[0]);
    let admitted = spawn_request(addr, run_line(3, ""));
    let jobs = service.front().backend.await_jobs(3);
    assert_eq!(
        error_kind(&request(addr, &run_line(4, ""))),
        Some("overloaded")
    );
    let snapshot = service.front().snapshot();
    assert_eq!((snapshot.in_flight, snapshot.started), (3, 1));
    for job in &jobs {
        assert!(service.front().commit(job, Ok(outcome()), || {}));
    }
    for waiter in waiters.into_iter().chain([admitted]) {
        assert_eq!(waiter.join().unwrap().get("ok"), Some(&Json::Bool(true)));
    }
    let snapshot = service.front().snapshot();
    assert_eq!((snapshot.in_flight, snapshot.started), (0, 0));
    assert_eq!(snapshot.counters.rejected, 2);
    stop(service);
}

/// The ring's rule: nothing marks a job started, so the bound covers
/// every job in flight until it commits.
#[test]
fn admission_bounds_in_flight_jobs_when_nothing_starts_them() {
    let service = start(2);
    let addr = service.local_addr();
    let waiters: Vec<_> = (1..=2)
        .map(|s| spawn_request(addr, run_line(s, "")))
        .collect();
    let jobs = service.front().backend.await_jobs(2);
    assert_eq!(
        error_kind(&request(addr, &run_line(3, ""))),
        Some("overloaded")
    );
    assert!(service.front().commit(&jobs[0], Ok(outcome()), || {}));
    let admitted = spawn_request(addr, run_line(3, ""));
    let jobs = service.front().backend.await_jobs(3);
    assert_eq!(
        error_kind(&request(addr, &run_line(4, ""))),
        Some("overloaded")
    );
    for job in &jobs[1..] {
        assert!(service.front().commit(job, Ok(outcome()), || {}));
    }
    for waiter in waiters.into_iter().chain([admitted]) {
        assert_eq!(waiter.join().unwrap().get("ok"), Some(&Json::Bool(true)));
    }
    assert_eq!(service.front().snapshot().counters.rejected, 2);
    stop(service);
}

#[test]
fn a_second_commit_loses_and_the_first_result_stays() {
    let service = start(8);
    let addr = service.local_addr();
    let waiter = spawn_request(addr, run_line(1, ""));
    let job = service.front().backend.await_jobs(1)[0].clone();
    let mut won = false;
    assert!(service.front().commit(&job, Ok(outcome()), || won = true));
    assert!(won);
    let mut lost_ran = false;
    assert!(!service
        .front()
        .commit(&job, Err(panicked()), || lost_ran = true));
    assert!(!lost_ran, "a losing commit never runs its hook");
    let first = waiter.join().unwrap();
    assert_eq!(
        first.get("ok").and_then(Json::as_bool),
        Some(true),
        "{first}"
    );
    let counters = service.front().snapshot().counters;
    assert_eq!(counters.late_duplicates, 1);
    assert_eq!((counters.computed, counters.failed), (1, 0));
    let again = request(addr, &run_line(1, ""));
    assert_eq!(again.get("cached").and_then(Json::as_bool), Some(true));
    assert_eq!(again.get("report"), first.get("report"));
    stop(service);
}

/// A commit paused right after its claim has published nothing: a
/// waiter whose deadline passes then times out, and a waiter that does
/// see the result also sees its cache entry and counters.
#[test]
fn a_waiter_that_sees_the_result_sees_its_bookkeeping() {
    let service = start(8);
    let addr = service.local_addr();
    let patient = spawn_request(addr, run_line(1, ""));
    let job = service.front().backend.await_jobs(1)[0].clone();
    let (release, paused) = mpsc::channel::<()>();
    let (claimed, on_claim) = mpsc::channel::<()>();
    let committer = {
        let front = service.front().clone();
        let job = job.clone();
        std::thread::spawn(move || {
            front.commit(&job, Ok(outcome()), || {
                claimed.send(()).unwrap();
                paused.recv().unwrap();
            })
        })
    };
    on_claim.recv().unwrap();
    assert!(job.is_claimed());
    let hasty = request(addr, &run_line(1, r#","timeout_ms":50"#));
    assert_eq!(error_kind(&hasty), Some("timed_out"), "{hasty}");
    assert_eq!(service.front().snapshot().counters.computed, 0);
    release.send(()).unwrap();
    assert!(committer.join().unwrap());
    let patient = patient.join().unwrap();
    assert_eq!(patient.get("ok").and_then(Json::as_bool), Some(true));
    let stats = stats(addr);
    assert_eq!(counter(&stats, "computed"), 1);
    assert_eq!(
        stats
            .get("cache")
            .and_then(|c| c.get("len"))
            .and_then(Json::as_u64),
        Some(1)
    );
    assert_eq!(stats.get("in_flight").and_then(Json::as_u64), Some(0));
    stop(service);
}

/// The job is held, so its deadline always passes first: the response is
/// a `timed_out` carrying a CLI repro line, and the late commit still
/// fills the cache for an untimed retry.
#[test]
fn a_deadline_miss_counts_and_the_late_commit_fills_the_cache() {
    let service = start(8);
    let addr = service.local_addr();
    let missed = request(addr, &run_line(1, r#","timeout_ms":1"#));
    assert_eq!(error_kind(&missed), Some("timed_out"), "{missed}");
    let message = missed
        .get("error")
        .and_then(|e| e.get("message"))
        .and_then(Json::as_str)
        .expect("an error message");
    assert!(
        message.contains("crn run") && message.contains("--seed 1"),
        "timeout must carry a repro line: {message}"
    );
    let job = service.front().backend.await_jobs(1)[0].clone();
    assert_eq!(service.front().snapshot().counters.timed_out, 1);
    assert!(service.front().commit(&job, Ok(outcome()), || {}));
    let retry = request(addr, &run_line(1, ""));
    assert_eq!(retry.get("ok").and_then(Json::as_bool), Some(true));
    assert_eq!(retry.get("cached").and_then(Json::as_bool), Some(true));
    let counters = service.front().snapshot().counters;
    assert_eq!((counters.computed, counters.cache_hits), (1, 1));
    assert_eq!(counters.timed_out, 1);
    stop(service);
}

/// Four workers and a queue of 8 under a burst of 32 distinct requests
/// from concurrent connections: every response is `ok` or a clean `429
/// overloaded`, never a hang or a malformed line, and both occur. The
/// first four jobs are started as four idle workers would start them;
/// the other 28 requests arrive at once, and nothing commits until all 32
/// are decided, so exactly 4 + 8 are admitted.
#[test]
fn burst_of_32_yields_only_ok_or_overloaded() {
    let service = start(8);
    let addr = service.local_addr();
    let mut waiters: Vec<_> = (0..4)
        .map(|s| spawn_request(addr, run_line(s, "")))
        .collect();
    for job in &service.front().backend.await_jobs(4) {
        service.front().start_job(job);
    }
    waiters.extend((4..32).map(|s| spawn_request(addr, run_line(s, ""))));
    while service.front().snapshot().counters.received < 32 {
        std::thread::yield_now();
    }
    for job in &service.front().backend.await_jobs(12) {
        assert!(service.front().commit(job, Ok(outcome()), || {}));
    }
    let (mut ok_count, mut overloaded) = (0, 0);
    for waiter in waiters {
        let r = waiter.join().expect("a response line");
        if r.get("ok").and_then(Json::as_bool) == Some(true) {
            ok_count += 1;
        } else {
            assert_eq!(
                error_kind(&r),
                Some("overloaded"),
                "unexpected failure mode: {r}"
            );
            assert_eq!(
                r.get("error")
                    .and_then(|e| e.get("code"))
                    .and_then(Json::as_u64),
                Some(429)
            );
            overloaded += 1;
        }
    }
    assert_eq!((ok_count, overloaded), (12, 20));
    assert_eq!(service.front().backend.held.lock().unwrap().len(), 12);
    // Admission-control rejections show up in the counters.
    assert_eq!(counter(&stats(addr), "rejected"), overloaded);
    stop(service);
}

/// Stored results stay reachable within a release: this is the key engine
/// version 0.2.0 computes for the spec. The version is part of the key, so
/// a release whose results may differ turns every key over (0.1.0 computed
/// `0xe48b_c382_8f34_c666`).
#[test]
fn a_plain_specs_cache_key_is_unchanged() {
    let spec = spec_of(&run_line(1, ""));
    assert_eq!(spec.cache_key(), 0xff98_5482_9ed4_2bf7);
    let poisoned = spec_of(&run_line(1, r#","inject_panic":true"#));
    assert_ne!(poisoned.cache_key(), spec.cache_key());
    assert_eq!(poisoned.topology_key(), spec.topology_key());
}
