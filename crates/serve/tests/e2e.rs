//! End-to-end tests for the simulation service: a real server on an
//! ephemeral port, real TCP clients, real simulations (small networks so
//! the suite stays fast).

use crn_serve::client::Client;
use crn_serve::server::{ServeConfig, Server, MAX_REQUEST_LINE_BYTES};
use crn_serve::store::StoreConfig;
use crn_workloads::json::Json;
use std::time::Duration;

/// A small-but-real run request: ~60 SUs finishes in well under a second.
fn small_run(seed: u64) -> String {
    format!(r#"{{"v":1,"cmd":"run","params":{{"sus":50,"pus":8,"side":42.0,"seed":{seed}}}}}"#)
}

fn start(workers: usize, queue_cap: usize, cache_cap: usize) -> Server {
    Server::start(ServeConfig {
        addr: "127.0.0.1:0".into(),
        workers,
        queue_cap,
        cache_cap,
        topo_cache_cap: 64,
        store: None,
    })
    .expect("bind ephemeral port")
}

fn connect(server: &Server) -> Client {
    let client = Client::connect(server.local_addr()).expect("connect");
    client
        .set_read_timeout(Some(Duration::from_secs(120)))
        .expect("set timeout");
    client
}

fn ok(response: &Json) -> bool {
    response.get("ok").and_then(Json::as_bool) == Some(true)
}

fn error_kind(response: &Json) -> Option<&str> {
    response.get("error")?.get("kind")?.as_str()
}

#[test]
fn run_round_trip_and_cache_hit_via_stats() {
    let server = start(2, 8, 64);
    let mut client = connect(&server);

    let first = client.request_line(&small_run(7)).unwrap();
    assert!(ok(&first), "first run failed: {first}");
    assert_eq!(first.get("cached").and_then(Json::as_bool), Some(false));
    let report = first.get("report").expect("report present");
    assert_eq!(
        report.get("packets_delivered").and_then(Json::as_u64),
        Some(50),
        "all packets collected: {report}"
    );

    // The identical request must be answered from the cache…
    let second = client.request_line(&small_run(7)).unwrap();
    assert!(ok(&second), "cached run failed: {second}");
    assert_eq!(second.get("cached").and_then(Json::as_bool), Some(true));
    assert_eq!(
        second.get("key").and_then(Json::as_str),
        first.get("key").and_then(Json::as_str),
        "same spec, same content address"
    );

    // …and the stats must say so.
    let stats = client.stats().unwrap();
    let counters = stats.get("counters").expect("counters");
    assert_eq!(counters.get("cache_hits").and_then(Json::as_u64), Some(1));
    assert_eq!(counters.get("computed").and_then(Json::as_u64), Some(1));
    assert_eq!(counters.get("served").and_then(Json::as_u64), Some(2));

    // A different seed is a different content address.
    let third = client.request_line(&small_run(8)).unwrap();
    assert!(ok(&third));
    assert_eq!(third.get("cached").and_then(Json::as_bool), Some(false));
    assert_ne!(
        third.get("key").and_then(Json::as_str),
        first.get("key").and_then(Json::as_str)
    );

    client.shutdown().unwrap();
    server.wait();
}

/// The ISSUE acceptance test: 4 workers, queue cap 8, a burst of 32
/// distinct requests from concurrent connections. Every response must be
/// either `ok` or a clean `429 overloaded` — never a hang, never a
/// malformed line — and at least one of each must occur (the queue can't
/// hold 32, and admitted work must finish).
#[test]
fn burst_of_32_yields_only_ok_or_overloaded() {
    let server = start(4, 8, 64);
    let addr = server.local_addr();

    let handles: Vec<_> = (0..32u64)
        .map(|i| {
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                client
                    .set_read_timeout(Some(Duration::from_secs(120)))
                    .expect("set timeout");
                client.request_line(&small_run(i)).expect("response line")
            })
        })
        .collect();
    let responses: Vec<Json> = handles.into_iter().map(|h| h.join().unwrap()).collect();

    let mut ok_count = 0;
    let mut overloaded = 0;
    for r in &responses {
        if ok(r) {
            ok_count += 1;
        } else {
            assert_eq!(
                error_kind(r),
                Some("overloaded"),
                "unexpected failure mode: {r}"
            );
            assert_eq!(
                r.get("error").unwrap().get("code").and_then(Json::as_u64),
                Some(429)
            );
            overloaded += 1;
        }
    }
    assert_eq!(ok_count + overloaded, 32);
    assert!(
        ok_count >= 8,
        "at least workers+queue requests must be admitted, got {ok_count}"
    );
    assert!(
        overloaded > 0,
        "32 concurrent distinct requests cannot all fit in workers=4 + queue=8"
    );

    // Admission-control rejections must show up in the counters.
    let mut client = connect(&server);
    let stats = client.stats().unwrap();
    let counters = stats.get("counters").expect("counters");
    assert_eq!(
        counters.get("rejected").and_then(Json::as_u64),
        Some(overloaded)
    );
    client.shutdown().unwrap();
    server.wait();
}

/// Identical concurrent requests coalesce onto one computation: the
/// follower does not consume a queue slot and the simulation runs once.
#[test]
fn identical_concurrent_requests_coalesce() {
    let server = start(1, 4, 64);
    let addr = server.local_addr();

    // Many clients ask for the same spec at once, racing the lone worker.
    let handles: Vec<_> = (0..6)
        .map(|_| {
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                client
                    .set_read_timeout(Some(Duration::from_secs(120)))
                    .expect("set timeout");
                client.request_line(&small_run(3)).expect("response line")
            })
        })
        .collect();
    let responses: Vec<Json> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    for r in &responses {
        assert!(ok(r), "coalesced request failed: {r}");
    }

    let mut client = connect(&server);
    let stats = client.stats().unwrap();
    let counters = stats.get("counters").expect("counters");
    let computed = counters.get("computed").and_then(Json::as_u64).unwrap();
    let coalesced = counters.get("coalesced").and_then(Json::as_u64).unwrap();
    let hits = counters.get("cache_hits").and_then(Json::as_u64).unwrap();
    assert_eq!(computed, 1, "one simulation serves all identical requests");
    assert_eq!(coalesced + hits, 5, "the other five piggybacked: {stats}");
    client.shutdown().unwrap();
    server.wait();
}

#[test]
fn deadline_miss_reports_timed_out_with_repro_then_cache_recovers() {
    let server = start(1, 4, 64);
    let mut client = connect(&server);

    // A 170-SU network takes much longer than 1ms.
    let slow =
        r#"{"v":1,"cmd":"run","params":{"sus":170,"pus":12,"side":75.0,"seed":5},"timeout_ms":1}"#;
    let response = client.request_line(slow).unwrap();
    assert!(!ok(&response), "must time out: {response}");
    assert_eq!(error_kind(&response), Some("timed_out"));
    let message = response
        .get("error")
        .unwrap()
        .get("message")
        .and_then(Json::as_str)
        .unwrap();
    assert!(
        message.contains("crn run") && message.contains("--seed 5"),
        "timeout must carry a repro line: {message}"
    );

    // The worker still finishes and caches; an untimed retry is a hit
    // (or at worst coalesces onto the still-running job).
    let retry = r#"{"v":1,"cmd":"run","params":{"sus":170,"pus":12,"side":75.0,"seed":5}}"#;
    let response = client.request_line(retry).unwrap();
    assert!(ok(&response), "retry failed: {response}");

    let stats = client.stats().unwrap();
    let counters = stats.get("counters").expect("counters");
    assert_eq!(counters.get("timed_out").and_then(Json::as_u64), Some(1));
    client.shutdown().unwrap();
    server.wait();
}

/// A panicking simulation fails its own request with `worker_panicked`
/// but leaves the server fully operational.
#[test]
fn worker_panic_is_isolated() {
    let server = start(2, 8, 64);
    let mut client = connect(&server);

    let poisoned = r#"{"v":1,"cmd":"run","params":{"sus":50,"pus":8,"side":42.0,"seed":1},"inject_panic":true}"#;
    let response = client.request_line(poisoned).unwrap();
    assert!(!ok(&response));
    assert_eq!(error_kind(&response), Some("worker_panicked"));
    assert_eq!(
        response
            .get("error")
            .unwrap()
            .get("code")
            .and_then(Json::as_u64),
        Some(500)
    );

    // The same connection and the same server keep working.
    let response = client.request_line(&small_run(1)).unwrap();
    assert!(
        ok(&response),
        "server must survive a worker panic: {response}"
    );
    let stats = client.stats().unwrap();
    assert_eq!(
        stats
            .get("counters")
            .unwrap()
            .get("failed")
            .and_then(Json::as_u64),
        Some(1)
    );
    client.shutdown().unwrap();
    server.wait();
}

#[test]
fn sweep_batches_seeds_and_second_pass_is_fully_cached() {
    let server = start(2, 8, 64);
    let mut client = connect(&server);

    let sweep = r#"{"v":1,"cmd":"sweep","params":{"sus":50,"pus":8,"side":42.0},"seed_start":0,"seed_count":4}"#;
    let first = client.request_line(sweep).unwrap();
    assert!(ok(&first), "sweep failed: {first}");
    assert_eq!(first.get("points").and_then(Json::as_u64), Some(4));
    assert_eq!(first.get("ok_points").and_then(Json::as_u64), Some(4));
    assert_eq!(first.get("cached_points").and_then(Json::as_u64), Some(0));
    let results = first.get("results").and_then(Json::as_arr).unwrap();
    assert_eq!(results.len(), 4);
    // Per-seed entries embed exporter-shaped records.
    let record = results[0].get("record").expect("record");
    assert_eq!(record.get("figure").and_then(Json::as_str), Some("serve"));
    assert_eq!(record.get("x_name").and_then(Json::as_str), Some("seed"));
    assert_eq!(record.get("x").and_then(Json::as_f64), Some(0.0));
    assert_eq!(record.get("finished").and_then(Json::as_bool), Some(true));

    // Same sweep again: every point served from cache.
    let second = client.request_line(sweep).unwrap();
    assert!(ok(&second));
    assert_eq!(second.get("cached_points").and_then(Json::as_u64), Some(4));

    client.shutdown().unwrap();
    server.wait();
}

#[test]
fn check_invariants_runs_clean_through_the_service() {
    let server = start(1, 4, 64);
    let mut client = connect(&server);
    let checked = r#"{"v":1,"cmd":"run","params":{"sus":40,"pus":6,"side":38.0,"seed":2},"check_invariants":true}"#;
    let response = client.request_line(checked).unwrap();
    assert!(ok(&response), "oracle-checked run failed: {response}");
    // Checked and unchecked runs have distinct content addresses.
    let unchecked = r#"{"v":1,"cmd":"run","params":{"sus":40,"pus":6,"side":38.0,"seed":2}}"#;
    let other = client.request_line(unchecked).unwrap();
    assert!(ok(&other));
    assert_ne!(
        response.get("key").and_then(Json::as_str),
        other.get("key").and_then(Json::as_str)
    );
    client.shutdown().unwrap();
    server.wait();
}

#[test]
fn protocol_violations_get_typed_errors_not_disconnects() {
    let server = start(1, 4, 64);
    let mut client = connect(&server);

    let bad_json = client.request_line("{this is not json").unwrap();
    assert_eq!(error_kind(&bad_json), Some("bad_request"));

    let bad_version = client.request_line(r#"{"v":99,"cmd":"status"}"#).unwrap();
    assert_eq!(error_kind(&bad_version), Some("unsupported_version"));
    assert_eq!(
        bad_version
            .get("error")
            .unwrap()
            .get("code")
            .and_then(Json::as_u64),
        Some(400)
    );

    let unknown_cmd = client.request_line(r#"{"v":1,"cmd":"teleport"}"#).unwrap();
    assert_eq!(error_kind(&unknown_cmd), Some("bad_request"));

    // Connection is still usable afterwards.
    let status = client.request_line(r#"{"v":1,"cmd":"status"}"#).unwrap();
    assert!(ok(&status));
    assert_eq!(status.get("status").and_then(Json::as_str), Some("running"));

    let stats = client.stats().unwrap();
    assert_eq!(
        stats
            .get("counters")
            .unwrap()
            .get("bad_requests")
            .and_then(Json::as_u64),
        Some(3)
    );
    client.shutdown().unwrap();
    server.wait();
}

#[test]
fn graceful_shutdown_acknowledges_then_drains() {
    let server = start(2, 8, 16);
    let addr = server.local_addr();
    let mut client = connect(&server);
    let response = client.request_line(&small_run(11)).unwrap();
    assert!(ok(&response));

    let ack = client.shutdown().unwrap();
    assert!(ok(&ack), "shutdown must be acknowledged: {ack}");
    assert_eq!(ack.get("shutting_down").and_then(Json::as_bool), Some(true));

    // wait() returns the final counters once every thread has drained.
    let counters = server.wait();
    assert_eq!(counters.served, 1);
    assert_eq!(counters.computed, 1);

    // The listener is gone once wait() returns.
    assert!(
        std::net::TcpStream::connect_timeout(&addr, Duration::from_millis(500)).is_err(),
        "listener must be closed after drain"
    );
}

#[test]
fn stats_shape_is_complete() {
    let server = start(3, 5, 7);
    let mut client = connect(&server);
    client.request_line(&small_run(1)).unwrap();
    let stats = client.stats().unwrap();
    assert_eq!(stats.get("workers").and_then(Json::as_u64), Some(3));
    assert_eq!(stats.get("queue_cap").and_then(Json::as_u64), Some(5));
    assert_eq!(stats.get("draining").and_then(Json::as_bool), Some(false));
    assert!(stats.get("uptime_s").and_then(Json::as_f64).unwrap() >= 0.0);
    let cache = stats.get("cache").expect("cache block");
    assert_eq!(cache.get("capacity").and_then(Json::as_u64), Some(7));
    assert_eq!(cache.get("insertions").and_then(Json::as_u64), Some(1));
    let topo = stats.get("topology_cache").expect("topology cache block");
    assert_eq!(topo.get("capacity").and_then(Json::as_u64), Some(64));
    assert_eq!(topo.get("insertions").and_then(Json::as_u64), Some(1));
    let hist = stats.get("latency_ms").and_then(Json::as_arr).unwrap();
    assert_eq!(hist.len(), 13, "12 finite buckets + overflow");
    let total: u64 = hist
        .iter()
        .map(|b| b.get("count").and_then(Json::as_u64).unwrap())
        .sum();
    assert_eq!(total, 1, "one served request, one histogram sample");
    assert!(hist[12].get("le_ms").unwrap().is_null(), "overflow bucket");
    client.shutdown().unwrap();
    server.wait();
}

/// The two-level-cache acceptance test: one cold point generates the
/// deployment, then a 50-point radio-axis sweep over the same deployment
/// re-customizes the cached topology for every computed point instead of
/// regenerating the world.
#[test]
fn radio_axis_sweep_reuses_one_cached_topology() {
    let server = start(2, 64, 256);
    let mut client = connect(&server);

    // Cold point: generates and publishes the topology.
    let cold = client.request_line(&small_run(11)).unwrap();
    assert!(ok(&cold), "cold run failed: {cold}");

    // 50 activity values at the same deployment seed: pure radio-side
    // changes, every point a distinct result-cache key.
    let values: Vec<String> = (1..=50)
        .map(|i| format!("{:.2}", 0.01 * f64::from(i)))
        .collect();
    let sweep = format!(
        r#"{{"v":1,"cmd":"sweep","params":{{"sus":50,"pus":8,"side":42.0,"seed":11}},"axis":{{"kind":"pt","values":[{}]}}}}"#,
        values.join(",")
    );
    let resp = client.request_line(&sweep).unwrap();
    assert!(ok(&resp), "axis sweep failed: {resp}");
    assert_eq!(resp.get("axis").and_then(Json::as_str), Some("p_t"));
    assert_eq!(resp.get("points").and_then(Json::as_u64), Some(50));
    assert_eq!(resp.get("ok_points").and_then(Json::as_u64), Some(50));
    let results = resp.get("results").and_then(Json::as_arr).unwrap();
    let record = results[0].get("record").expect("record");
    assert_eq!(record.get("x_name").and_then(Json::as_str), Some("p_t"));
    assert_eq!(record.get("x").and_then(Json::as_f64), Some(0.01));

    // Every computed sweep point re-customized the cached deployment.
    // (The point matching the cold run's own activity is a result-cache
    // hit and never reaches a worker, hence >= 49 rather than 50.)
    let stats = client.stats().unwrap();
    let counters = stats.get("counters").expect("counters");
    let hits = counters
        .get("topology_hits")
        .and_then(Json::as_u64)
        .unwrap();
    assert!(hits >= 49, "expected >= 49 topology hits, got {hits}");
    let topo = stats.get("topology_cache").expect("topology cache block");
    assert_eq!(
        topo.get("len").and_then(Json::as_u64),
        Some(1),
        "one deployment shared by all 51 points"
    );

    client.shutdown().unwrap();
    server.wait();
}

/// The persistent tier end to end: results computed before a restart are
/// served from disk (`"cached":true`, `store_hits` counted) by a fresh
/// server on the same directory, with a byte-identical report.
#[test]
fn store_survives_a_server_restart() {
    let dir = std::env::temp_dir().join(format!("crn-serve-e2e-store-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = Some(StoreConfig {
        dir: dir.clone(),
        max_bytes: 0,
    });
    let start_with_store = || {
        Server::start(ServeConfig {
            addr: "127.0.0.1:0".into(),
            workers: 2,
            queue_cap: 8,
            cache_cap: 64,
            topo_cache_cap: 64,
            store: store.clone(),
        })
        .expect("bind ephemeral port")
    };

    let server = start_with_store();
    let mut client = connect(&server);
    let first = client.request_line(&small_run(21)).unwrap();
    assert!(ok(&first), "cold run failed: {first}");
    assert_eq!(first.get("cached").and_then(Json::as_bool), Some(false));
    let stats = client.stats().unwrap();
    let store_stats = stats.get("store").expect("store block");
    assert_eq!(
        store_stats.get("configured").and_then(Json::as_bool),
        Some(true)
    );
    assert_eq!(store_stats.get("writes").and_then(Json::as_u64), Some(1));
    assert!(
        store_stats
            .get("store_bytes")
            .and_then(Json::as_u64)
            .unwrap()
            > 0
    );
    client.shutdown().unwrap();
    server.wait();

    // Fresh process state, same directory: the memory cache is empty but
    // the result is one disk read away.
    let server = start_with_store();
    let mut client = connect(&server);
    let warm = client.request_line(&small_run(21)).unwrap();
    assert!(ok(&warm), "store-served run failed: {warm}");
    assert_eq!(
        warm.get("cached").and_then(Json::as_bool),
        Some(true),
        "restart must serve from the persistent store: {warm}"
    );
    assert_eq!(
        warm.get("report"),
        first.get("report"),
        "disk round trip must be byte-identical"
    );
    let stats = client.stats().unwrap();
    let counters = stats.get("counters").expect("counters");
    assert_eq!(counters.get("store_hits").and_then(Json::as_u64), Some(1));
    assert_eq!(counters.get("computed").and_then(Json::as_u64), Some(0));
    client.shutdown().unwrap();
    server.wait();
    let _ = std::fs::remove_dir_all(&dir);
}

/// An over-length request line gets a typed `400 request_too_large` and
/// the connection keeps working for the next (sane) request.
#[test]
fn oversized_request_line_is_rejected_not_buffered() {
    let server = start(1, 4, 16);
    let mut client = connect(&server);

    let huge = format!(
        r#"{{"v":1,"cmd":"run","pad":"{}"}}"#,
        "x".repeat(MAX_REQUEST_LINE_BYTES + 1024)
    );
    let response = client.request_line(&huge).unwrap();
    assert_eq!(error_kind(&response), Some("request_too_large"));
    assert_eq!(
        response
            .get("error")
            .unwrap()
            .get("code")
            .and_then(Json::as_u64),
        Some(400)
    );

    // The connection survives and the next request is served normally.
    let response = client.request_line(&small_run(2)).unwrap();
    assert!(ok(&response), "connection must survive: {response}");
    client.shutdown().unwrap();
    server.wait();
}

/// Streamed sweeps: every point arrives as its own in-order row line,
/// then a summary; rows carry the same records a buffered sweep returns.
#[test]
fn streamed_sweep_rows_match_the_buffered_sweep() {
    let server = start(2, 8, 64);
    let mut client = connect(&server);

    let buffered = client
        .request_line(
            r#"{"v":1,"cmd":"sweep","params":{"sus":50,"pus":8,"side":42.0},"seed_start":0,"seed_count":4}"#,
        )
        .unwrap();
    assert!(ok(&buffered), "buffered sweep failed: {buffered}");
    let buffered_records: Vec<String> = buffered
        .get("results")
        .and_then(Json::as_arr)
        .unwrap()
        .iter()
        .map(|e| e.get("record").unwrap().to_string())
        .collect();

    let mut rows = Vec::new();
    let streamed = client
        .request_stream(
            r#"{"v":1,"cmd":"sweep","params":{"sus":50,"pus":8,"side":42.0},"seed_start":0,"seed_count":4,"stream":true}"#,
            |row| rows.push(row),
        )
        .unwrap();
    assert!(ok(&streamed), "streamed sweep failed: {streamed}");
    assert_eq!(streamed.get("streamed").and_then(Json::as_bool), Some(true));
    assert_eq!(streamed.get("points").and_then(Json::as_u64), Some(4));
    assert!(
        streamed.get("results").is_none(),
        "streamed summary must not re-buffer the rows"
    );
    assert_eq!(rows.len(), 4);
    for (i, row) in rows.iter().enumerate() {
        assert_eq!(
            row.get("seed").and_then(Json::as_u64),
            Some(i as u64),
            "rows must arrive in point order: {row}"
        );
        assert_eq!(
            row.get("record").unwrap().to_string(),
            buffered_records[i],
            "streamed and buffered records must be byte-identical"
        );
    }

    client.shutdown().unwrap();
    server.wait();
}

/// Requests for more work or a larger world than the server can
/// allocate are typed `400`s. Serving either line below would need an
/// allocation of terabytes, and an allocation failure aborts the process
/// instead of unwinding, so no panic guard could catch it; the same
/// server must answer `status` afterwards.
#[test]
fn oversized_requests_are_rejected_and_the_server_survives() {
    let server = start(1, 4, 16);
    let mut client = connect(&server);
    for line in [
        r#"{"v":1,"cmd":"sweep","params":{"sus":40},"seed_count":1000000000000}"#,
        r#"{"v":1,"cmd":"run","params":{"sus":100000000000,"pus":1}}"#,
        r#"{"v":1,"cmd":"run","params":{"side":1e6}}"#,
    ] {
        let response = client.request_line(line).unwrap();
        assert_eq!(error_kind(&response), Some("bad_request"), "{line}");
        assert_eq!(
            response
                .get("error")
                .unwrap()
                .get("code")
                .and_then(Json::as_u64),
            Some(400),
            "{line}"
        );
    }

    let mut fresh = connect(&server);
    let status = fresh.request_line(r#"{"v":1,"cmd":"status"}"#).unwrap();
    assert!(ok(&status), "{status}");
    assert_eq!(status.get("status").and_then(Json::as_str), Some("running"));

    client.shutdown().unwrap();
    server.wait();
}

/// A sweep axis value outside its parameter's domain is a typed `400`
/// naming the value, answered before any point runs; the connection and
/// the server keep serving.
#[test]
fn bad_sweep_axis_values_are_typed_bad_requests() {
    let server = start(1, 4, 16);
    let mut client = connect(&server);
    for (axis, value) in [
        (r#"{"kind":"pt","values":[0.2,1.5]}"#, "1.5"),
        (r#"{"kind":"pus","values":[-1]}"#, "-1"),
    ] {
        let line = format!(
            r#"{{"v":1,"cmd":"sweep","params":{{"sus":40,"pus":4,"side":36}},"axis":{axis}}}"#
        );
        let response = client.request_line(&line).unwrap();
        assert_eq!(error_kind(&response), Some("bad_request"), "{response}");
        let error = response.get("error").unwrap();
        assert_eq!(error.get("code").and_then(Json::as_u64), Some(400));
        let message = error.get("message").and_then(Json::as_str).unwrap();
        assert!(
            message.starts_with(&format!("axis value {value} rejected: ")),
            "{message}"
        );
    }

    let status = client.request_line(r#"{"v":1,"cmd":"status"}"#).unwrap();
    assert!(ok(&status), "{status}");
    assert_eq!(status.get("status").and_then(Json::as_str), Some("running"));

    client.shutdown().unwrap();
    server.wait();
}
