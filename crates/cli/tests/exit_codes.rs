//! Exit-code contract tests: spawn the real `crn` binary and assert on
//! the process status, because `std::process::exit` semantics cannot be
//! checked in-process. The contract: 0 = ok, 1 = runtime failure
//! (invariant violation, server error, timeout), 2 = usage error.

use std::io::{BufRead, BufReader};
use std::process::{Child, Command, Stdio};

fn crn() -> Command {
    Command::new(env!("CARGO_BIN_EXE_crn"))
}

#[test]
fn clean_run_exits_zero() {
    let out = crn()
        .args([
            "run", "--sus", "40", "--pus", "4", "--side", "36", "--seed", "3",
        ])
        .output()
        .expect("spawn crn");
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("delivered 40/40"));
}

#[test]
fn usage_errors_exit_two_with_usage_text() {
    let out = crn()
        .args(["run", "--bogus", "1"])
        .output()
        .expect("spawn crn");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unrecognized"), "{stderr}");
    assert!(stderr.contains("usage:"), "usage text reprinted: {stderr}");

    let out = crn().args(["frobnicate"]).output().expect("spawn crn");
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn invariant_violation_exits_one_without_usage_spam() {
    let out = crn()
        .args([
            "run",
            "--check-invariants",
            "--inject-fairness-skip",
            "--sus",
            "40",
            "--pus",
            "4",
            "--side",
            "36",
            "--seed",
            "3",
        ])
        .output()
        .expect("spawn crn");
    assert_eq!(
        out.status.code(),
        Some(1),
        "violations are runtime failures: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("invariant violation"), "{stderr}");
    assert!(
        !stderr.contains("usage:"),
        "runtime failures must not reprint usage: {stderr}"
    );
}

/// `crn bounds` at `p_t = 1` with PUs in range has `p_o = 0`, where the
/// paper's bounds do not exist: a runtime failure (exit 1) naming `p_o`,
/// not a panic (exit 101).
#[test]
fn bounds_without_access_opportunity_exit_one() {
    let out = crn()
        .args([
            "bounds", "--sus", "40", "--pus", "6", "--side", "40", "--pt", "1",
        ])
        .output()
        .expect("spawn crn");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("p_o = 0"), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert!(!stderr.contains("usage:"), "{stderr}");
}

#[test]
fn clean_checked_run_exits_zero() {
    let out = crn()
        .args([
            "run",
            "--check-invariants",
            "--sus",
            "40",
            "--pus",
            "4",
            "--side",
            "36",
            "--seed",
            "3",
        ])
        .output()
        .expect("spawn crn");
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("invariants: ok"));
}

#[test]
fn submit_to_dead_server_exits_one() {
    let out = crn()
        .args(["submit", "--addr", "127.0.0.1:1", "--stats"])
        .output()
        .expect("spawn crn");
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).contains("cannot connect"));
}

/// Guard that kills a spawned server if the test panics midway.
struct KillOnDrop(Child);

impl Drop for KillOnDrop {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

#[test]
fn serve_submit_round_trip_with_cache_hit_and_shutdown() {
    let mut server = crn()
        .args([
            "serve",
            "--addr",
            "127.0.0.1:0",
            "--workers",
            "2",
            "--queue-cap",
            "8",
            "--cache-cap",
            "16",
        ])
        .stdout(Stdio::piped())
        // The injected worker panic below would otherwise splat its
        // backtrace into the test harness output.
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn crn serve");

    // First stdout line announces the bound address.
    let stdout = server.stdout.take().expect("piped stdout");
    let mut reader = BufReader::new(stdout);
    let mut banner = String::new();
    reader.read_line(&mut banner).expect("read banner");
    let addr = banner
        .trim()
        .rsplit(' ')
        .next()
        .expect("address in banner")
        .to_owned();
    assert!(
        addr.contains(':') && !addr.ends_with(":0"),
        "ephemeral port resolved: {banner}"
    );
    let mut server = KillOnDrop(server);

    let run_args = ["--sus", "40", "--pus", "4", "--side", "36", "--seed", "3"];

    // First submit computes; exit 0.
    let mut args = vec!["submit", "--addr", &addr];
    args.extend_from_slice(&run_args);
    let out = crn().args(&args).output().expect("spawn submit");
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("\"cached\":false"));

    // Identical submit is answered from cache.
    let out = crn().args(&args).output().expect("spawn submit");
    assert_eq!(out.status.code(), Some(0));
    assert!(String::from_utf8_lossy(&out.stdout).contains("\"cached\":true"));

    // Stats confirm the hit.
    let out = crn()
        .args(["submit", "--addr", &addr, "--stats"])
        .output()
        .expect("spawn submit --stats");
    assert_eq!(out.status.code(), Some(0));
    let stats = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(stats.contains("\"cache_hits\":1"), "{stats}");
    assert!(stats.contains("\"computed\":1"), "{stats}");

    // A server-side failure (injected panic) exits 1.
    let raw = r#"{"v":1,"cmd":"run","params":{"sus":40,"pus":4,"side":36.0,"seed":3},"inject_panic":true}"#;
    let out = crn()
        .args(["submit", "--addr", &addr, "--raw", raw])
        .output()
        .expect("spawn submit --raw");
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).contains("worker_panicked"));

    // Graceful shutdown: submit exits 0, then the server process itself
    // drains and exits 0 with a final summary on stdout.
    let out = crn()
        .args(["submit", "--addr", &addr, "--shutdown"])
        .output()
        .expect("spawn submit --shutdown");
    assert_eq!(out.status.code(), Some(0));

    let status = server.0.wait().expect("server exits after shutdown");
    assert_eq!(status.code(), Some(0));
    let mut summary = String::new();
    reader.read_line(&mut summary).expect("read summary");
    assert!(
        summary.contains("served 2 ok") && summary.contains("1 cache hits"),
        "final summary: {summary}"
    );
}
