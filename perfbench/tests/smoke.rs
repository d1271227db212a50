//! Runs every workload at smoke size, untraced and traced, and requires
//! each run's output checks to pass and its result line to carry every
//! metric of its mode.

use std::process::Command;

const WORKLOADS: [&str; 4] = ["fig6-sweep", "scale-sparse", "serve-mixed", "fleet-restart"];

fn run(workload: &str, trace: &str) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_crn-perfbench"))
        .args(["--workload", workload, "--seed", "7", "--seconds", "1"])
        .args(["--trace", trace, "--smoke"])
        .output()
        .expect("run the benchmark");
    let stdout = String::from_utf8(out.stdout).expect("UTF-8 output");
    assert!(
        out.status.success(),
        "{workload} --trace {trace} failed: {}\n{stdout}",
        String::from_utf8_lossy(&out.stderr)
    );
    stdout.lines().last().expect("a result line").to_owned()
}

#[test]
fn every_workload_passes_its_checks_at_smoke_size() {
    for workload in WORKLOADS {
        let plain = run(workload, "0");
        assert!(
            plain.starts_with("{\"correct\": true"),
            "{workload}: {plain}"
        );
        for metric in [
            "wall_s",
            "setup_s",
            "rerun_s",
            "p50_ms",
            "p99_ms",
            "goodput_rps",
            "peak_rss_mb",
        ] {
            assert!(
                plain.contains(&format!("\"{metric}\"")),
                "{workload} lacks {metric}"
            );
        }
        let traced = run(workload, "1");
        assert!(
            traced.starts_with("{\"correct\": true"),
            "{workload}: {traced}"
        );
        for metric in ["engine.run_s", "radio.customize_s", "trace.overhead_frac"] {
            assert!(
                traced.contains(&format!("\"{metric}\"")),
                "{workload} lacks {metric}"
            );
        }
    }
}

#[test]
fn bad_arguments_exit_with_usage_error() {
    for args in [
        vec!["--workload", "no-such-workload"],
        vec!["--workload", "fig6-sweep", "--trace", "2"],
        vec!["--seed", "1"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_crn-perfbench"))
            .args(&args)
            .output()
            .expect("run the benchmark");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
    }
}
