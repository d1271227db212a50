//! End-to-end tests for the fleet: a real coordinator on an ephemeral
//! port, real worker nodes over loopback TCP, real (small) simulations.

use crn_cluster::coordinator::{ClusterConfig, Coordinator};
use crn_cluster::worker::{WorkerConfig, WorkerNode};
use crn_serve::client::Client;
use crn_serve::protocol::ClusterMsg;
use crn_serve::server::{ServeConfig, Server};
use crn_workloads::json::Json;
use std::io::Write;
use std::time::{Duration, Instant};

fn start_coordinator(cfg: ClusterConfig) -> Coordinator {
    Coordinator::start(cfg).expect("bind ephemeral port")
}

fn join_worker(coordinator: &Coordinator, name: &str) -> WorkerNode {
    WorkerNode::start(WorkerConfig {
        coordinator: coordinator.local_addr().to_string(),
        name: name.into(),
        threads: 2,
        ..WorkerConfig::default()
    })
    .expect("worker joins")
}

fn connect(coordinator: &Coordinator) -> Client {
    let client = Client::connect(coordinator.local_addr()).expect("connect");
    client
        .set_read_timeout(Some(Duration::from_secs(120)))
        .expect("set timeout");
    client
}

fn ok(response: &Json) -> bool {
    response.get("ok").and_then(Json::as_bool) == Some(true)
}

/// Polls `status` until the coordinator reports `want` live workers
/// (joins race the first request otherwise).
fn await_workers(client: &mut Client, want: u64) {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let status = client
            .request_line(r#"{"v":1,"cmd":"status"}"#)
            .expect("status");
        if status.get("workers").and_then(Json::as_u64) == Some(want) {
            return;
        }
        assert!(
            Instant::now() < deadline,
            "workers never reached {want}: {status}"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// Satellite: kill a worker mid-sweep; the sweep still completes with
/// every row delivered exactly once, in order.
#[test]
fn a_killed_worker_never_loses_a_sweep_row() {
    let coordinator = start_coordinator(ClusterConfig {
        job_timeout_ms: 5_000,
        ..ClusterConfig::default()
    });
    let casualty = join_worker(&coordinator, "casualty");
    let survivor = join_worker(&coordinator, "survivor");
    let mut client = connect(&coordinator);
    await_workers(&mut client, 2);

    let seeds: u64 = 8;
    let sweep = format!(
        r#"{{"v":1,"cmd":"sweep","params":{{"sus":50,"pus":8,"side":42.0}},"seed_start":0,"seed_count":{seeds},"stream":true}}"#
    );
    let mut rows: Vec<Json> = Vec::new();
    let summary = client
        .request_stream(&sweep, |row| {
            // Crash one worker while the sweep's window is in flight;
            // its outstanding jobs must be re-dispatched, not lost.
            if rows.len() == 1 {
                casualty.kill();
            }
            rows.push(row);
        })
        .expect("streamed sweep survives the crash");

    assert!(ok(&summary), "sweep failed: {summary}");
    assert_eq!(summary.get("points").and_then(Json::as_u64), Some(seeds));
    assert_eq!(summary.get("ok_points").and_then(Json::as_u64), Some(seeds));
    let delivered: Vec<u64> = rows
        .iter()
        .map(|r| r.get("seed").and_then(Json::as_u64).expect("row has seed"))
        .collect();
    assert_eq!(
        delivered,
        (0..seeds).collect::<Vec<u64>>(),
        "every seed exactly once, in order"
    );

    let stats = client.stats().expect("stats");
    let cluster = stats.get("cluster").expect("cluster block");
    assert_eq!(
        cluster.get("workers_lost").and_then(Json::as_u64),
        Some(1),
        "the kill was observed: {cluster}"
    );
    let worker_rows = cluster
        .get("workers")
        .and_then(Json::as_arr)
        .expect("per-worker rows");
    assert_eq!(worker_rows.len(), 2);
    let alive: Vec<bool> = worker_rows
        .iter()
        .map(|w| w.get("alive").and_then(Json::as_bool).unwrap())
        .collect();
    assert_eq!(alive.iter().filter(|&&a| a).count(), 1);

    client.shutdown().expect("shutdown");
    coordinator.wait();
    casualty.wait();
    survivor.wait();
}

/// A worker that joins and then never answers: the job times out, is
/// re-dispatched, and (with no other worker) completes locally.
#[test]
fn an_unresponsive_worker_times_out_and_the_job_recovers() {
    let coordinator = start_coordinator(ClusterConfig {
        job_timeout_ms: 200,
        ..ClusterConfig::default()
    });
    // A hand-rolled "worker" that joins and goes silent.
    let mut silent =
        std::net::TcpStream::connect(coordinator.local_addr()).expect("silent worker connects");
    let join = ClusterMsg::Join {
        worker: "silent".into(),
    }
    .encode();
    writeln!(silent, "{join}").expect("join line");
    silent.flush().expect("flush join");

    let mut client = connect(&coordinator);
    await_workers(&mut client, 1);

    let run = r#"{"v":1,"cmd":"run","params":{"sus":50,"pus":8,"side":42.0,"seed":3}}"#;
    let response = client.request_line(run).expect("run answered");
    assert!(ok(&response), "run failed: {response}");
    assert_eq!(response.get("cached").and_then(Json::as_bool), Some(false));

    let stats = client.stats().expect("stats");
    let cluster = stats.get("cluster").expect("cluster block");
    assert!(
        cluster.get("redispatches").and_then(Json::as_u64) >= Some(1),
        "timeout re-dispatch counted: {cluster}"
    );
    assert!(
        cluster.get("local_fallbacks").and_then(Json::as_u64) >= Some(1),
        "no eligible worker left, so the coordinator computed: {cluster}"
    );

    client.shutdown().expect("shutdown");
    coordinator.wait();
}

/// The headline invariant: results are bit-identical no matter which
/// process computes them — single-process serve, a 1-worker fleet, and
/// a 2-worker fleet produce byte-identical sweep records.
#[test]
fn results_are_bit_identical_across_worker_counts() {
    let sweep = r#"{"v":1,"cmd":"sweep","params":{"sus":50,"pus":8,"side":42.0},"seed_start":0,"seed_count":4}"#;
    let records = |response: &Json| -> Vec<String> {
        response
            .get("results")
            .and_then(Json::as_arr)
            .expect("results array")
            .iter()
            .map(|e| e.get("record").expect("record").to_string())
            .collect()
    };

    // Reference: the plain single-process server.
    let server = Server::start(ServeConfig {
        addr: "127.0.0.1:0".into(),
        workers: 2,
        queue_cap: 8,
        cache_cap: 64,
        topo_cache_cap: 64,
        store: None,
    })
    .expect("bind server");
    let mut client = Client::connect(server.local_addr()).expect("connect");
    client
        .set_read_timeout(Some(Duration::from_secs(120)))
        .expect("set timeout");
    let reference = client.request_line(sweep).expect("server sweep");
    assert!(ok(&reference), "server sweep failed: {reference}");
    let reference = records(&reference);
    client.shutdown().expect("shutdown");
    server.wait();

    for fleet in [1usize, 2] {
        let coordinator = start_coordinator(ClusterConfig::default());
        let workers: Vec<WorkerNode> = (0..fleet)
            .map(|i| join_worker(&coordinator, &format!("w{i}")))
            .collect();
        let mut client = connect(&coordinator);
        await_workers(&mut client, fleet as u64);
        let response = client.request_line(sweep).expect("cluster sweep");
        assert!(ok(&response), "{fleet}-worker sweep failed: {response}");
        assert_eq!(
            records(&response),
            reference,
            "{fleet}-worker records differ from the single-process server"
        );
        // Content routing means remote workers computed these, not the
        // coordinator fallback.
        let stats = client.stats().expect("stats");
        let cluster = stats.get("cluster").expect("cluster block");
        assert_eq!(
            cluster.get("local_fallbacks").and_then(Json::as_u64),
            Some(0),
            "fleet had workers, fallback must be idle: {cluster}"
        );
        assert!(
            cluster.get("completed_remote").and_then(Json::as_u64) >= Some(4),
            "workers computed the points: {cluster}"
        );
        client.shutdown().expect("shutdown");
        coordinator.wait();
        for w in workers {
            w.wait();
        }
    }
}

/// Polls `stats` until `in_flight` reads `want`.
fn await_in_flight(client: &mut Client, want: u64) {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let stats = client.stats().expect("stats");
        if stats.get("in_flight").and_then(Json::as_u64) == Some(want) {
            return;
        }
        assert!(
            Instant::now() < deadline,
            "in_flight never reached {want}: {stats}"
        );
        std::thread::yield_now();
    }
}

/// A plain run arriving while an `inject_panic` run of the same spec is
/// held by a silent worker gets its own job, not the injected panic.
#[test]
fn a_plain_run_never_coalesces_onto_an_injected_panic() {
    let coordinator = start_coordinator(ClusterConfig {
        job_timeout_ms: 1_000,
        ..ClusterConfig::default()
    });
    let mut silent =
        std::net::TcpStream::connect(coordinator.local_addr()).expect("silent worker connects");
    let join = ClusterMsg::Join {
        worker: "silent".into(),
    }
    .encode();
    writeln!(silent, "{join}").expect("join line");
    silent.flush().expect("flush join");
    let mut client = connect(&coordinator);
    await_workers(&mut client, 1);

    let addr = coordinator.local_addr();
    let poisoned = std::thread::spawn(move || {
        let mut client = Client::connect(addr).expect("connect");
        client
            .set_read_timeout(Some(Duration::from_secs(120)))
            .expect("set timeout");
        client
            .request_line(r#"{"v":1,"cmd":"run","params":{"sus":50,"pus":8,"side":42.0,"seed":1},"inject_panic":true}"#)
            .expect("poisoned run answered")
    });
    // The silent worker holds the poisoned job until its timeout.
    await_in_flight(&mut client, 1);
    let plain = client
        .request_line(r#"{"v":1,"cmd":"run","params":{"sus":50,"pus":8,"side":42.0,"seed":1}}"#)
        .expect("plain run answered");
    assert!(ok(&plain), "plain run got the injected panic: {plain}");
    assert_eq!(plain.get("coalesced").and_then(Json::as_bool), Some(false));
    let poisoned = poisoned.join().expect("poisoned client");
    assert_eq!(
        poisoned
            .get("error")
            .and_then(|e| e.get("kind"))
            .and_then(Json::as_str),
        Some("worker_panicked"),
        "{poisoned}"
    );
    let stats = client.stats().expect("stats");
    let counters = stats.get("counters").expect("counters");
    assert_eq!(counters.get("coalesced").and_then(Json::as_u64), Some(0));
    assert_eq!(counters.get("failed").and_then(Json::as_u64), Some(1));

    client.shutdown().expect("shutdown");
    coordinator.wait();
}

/// Every key path of `value`, with array elements under `[]`, skipping
/// the fields only one role emits.
fn key_paths(value: &Json, prefix: &str, out: &mut std::collections::BTreeSet<String>) {
    const ROLE_FIELDS: [&str; 5] = ["cluster", "role", "workers", "queue_depth", "running"];
    match value {
        Json::Obj(pairs) => {
            for (key, child) in pairs {
                if !ROLE_FIELDS.contains(&key.as_str()) {
                    let path = format!("{prefix}.{key}");
                    out.insert(path.clone());
                    key_paths(child, &path, out);
                }
            }
        }
        Json::Arr(items) => {
            for item in items {
                key_paths(item, &format!("{prefix}[]"), out);
            }
        }
        _ => {}
    }
}

/// Clients cannot tell a coordinator from `crn serve`: the same lines get
/// responses with the same fields, outside each role's own, and the same
/// counters.
#[test]
fn a_coordinator_answers_like_a_server() {
    let lines = [
        r#"{"v":1,"cmd":"run","params":{"sus":50,"pus":8,"side":42.0,"seed":7}}"#,
        r#"{"v":1,"cmd":"run","params":{"sus":50,"pus":8,"side":42.0,"seed":7}}"#,
        r#"{"v":1,"cmd":"sweep","params":{"sus":50,"pus":8,"side":42.0},"seed_start":0,"seed_count":3}"#,
        r#"{"v":1,"cmd":"status"}"#,
        r#"{"v":1,"cmd":"stats"}"#,
    ];
    let answer = |client: &mut Client| -> Vec<Json> {
        lines
            .iter()
            .map(|line| client.request_line(line).expect("answered"))
            .collect()
    };

    let server = Server::start(ServeConfig {
        workers: 2,
        ..ServeConfig::default()
    })
    .expect("bind server");
    let mut client = Client::connect(server.local_addr()).expect("connect");
    client
        .set_read_timeout(Some(Duration::from_secs(120)))
        .expect("set timeout");
    let served = answer(&mut client);
    client.shutdown().expect("shutdown");
    server.wait();

    let coordinator = start_coordinator(ClusterConfig::default());
    let mut client = connect(&coordinator);
    let coordinated = answer(&mut client);
    client.shutdown().expect("shutdown");
    coordinator.wait();

    for ((line, a), b) in lines.iter().zip(&served).zip(&coordinated) {
        assert!(ok(a) && ok(b), "{line}: {a} / {b}");
        let (mut paths_a, mut paths_b) = Default::default();
        key_paths(a, "", &mut paths_a);
        key_paths(b, "", &mut paths_b);
        assert_eq!(paths_a, paths_b, "{line}: fields differ between roles");
    }
    assert!(served[0].get("latency_ms").is_some());
    assert_eq!(served[0].get("report"), coordinated[0].get("report"));
    let counters = |stats: &Json| stats.get("stats").and_then(|s| s.get("counters")).cloned();
    assert_eq!(counters(&served[4]), counters(&coordinated[4]));
}
