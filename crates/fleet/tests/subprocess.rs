//! Multi-process sharding: a fleet distributed over `firm-fleet-worker`
//! subprocesses must be *bit-identical* to the in-process thread path —
//! report bytes, digests, trained shared-agent weights, and round-trip
//! policy checkpoints — at 1, 2, and 4 workers.
//!
//! This is the ISSUE's acceptance criterion for the wire redesign: the
//! whole coordinator↔worker vocabulary (scenario in, outcome +
//! experience out, policy both ways) crosses a real process boundary
//! through `firm-wire` frames and comes back exact.

use std::path::PathBuf;

use firm_fleet::{builtin_catalog, FleetConfig, FleetRunner, Scenario};
use firm_sim::SimDuration;

/// The worker binary cargo built alongside this test.
fn worker_bin() -> PathBuf {
    PathBuf::from(env!("CARGO_BIN_EXE_firm-fleet-worker"))
}

fn config(seed: u64, train_steps: usize) -> FleetConfig {
    FleetConfig {
        threads: 2,
        worker_bin: Some(worker_bin()),
        seed,
        train_steps,
        ..FleetConfig::default()
    }
}

/// A catalog slice that still spans FIRM + baseline + replay rows.
fn short_catalog(n: usize) -> Vec<Scenario> {
    let catalog = builtin_catalog();
    let len = catalog.len();
    catalog
        .into_iter()
        .enumerate()
        .filter(|(i, _)| *i < n.saturating_sub(1) || *i == len - 1)
        .map(|(_, s)| s.with_duration(SimDuration::from_secs(6)))
        .take(n)
        .collect()
}

#[test]
fn subprocess_fleet_is_bit_identical_to_in_process_at_1_2_and_4_workers() {
    let scenarios = short_catalog(4);
    let in_process = FleetRunner::new(config(2026, 48)).run(&scenarios);
    let base_json = in_process.report.to_json();
    let base_weights = in_process.estimator.shared_agent().export_weights();
    assert!(
        !in_process.pooled.transitions.is_empty(),
        "catalog slice harvested no experience"
    );

    for workers in [1usize, 2, 4] {
        let result = FleetRunner::new(config(2026, 48).workers(workers)).run(&scenarios);
        assert_eq!(
            base_json,
            result.report.to_json(),
            "report bytes diverged at {workers} subprocess workers"
        );
        assert_eq!(in_process.report.digest(), result.report.digest());
        assert_eq!(
            base_weights,
            result.estimator.shared_agent().export_weights(),
            "shared-agent weights diverged at {workers} subprocess workers"
        );
        assert_eq!(
            in_process.pooled, result.pooled,
            "pooled experience diverged at {workers} subprocess workers"
        );
    }
}

/// The deploy pass dispatches only the FIRM scenarios, each under its
/// catalog index. The second catalog puts a baseline between two FIRM
/// rows, so the subset is not a prefix: workers handed the subset under
/// its positions instead of its catalog indices would run the wrong
/// seeds and diverge from the in-process pass.
#[test]
fn subprocess_round_trip_reproduces_policy_bytes_and_digest() {
    let interleaved: Vec<Scenario> = builtin_catalog()
        .into_iter()
        .enumerate()
        .filter(|(i, _)| [0, 4, 5, 6].contains(i))
        .map(|(_, s)| s.with_duration(SimDuration::from_secs(6)))
        .collect();
    let controllers: Vec<bool> = interleaved
        .iter()
        .map(|s| s.controller.takes_policy())
        .collect();
    assert_eq!(controllers, [true, false, true, false]);
    for scenarios in [short_catalog(3), interleaved] {
        round_trip_matches_in_process(&scenarios);
    }
}

fn round_trip_matches_in_process(scenarios: &[Scenario]) {
    let in_process = FleetRunner::new(config(77, 32)).run_round_trip(scenarios);

    for workers in [1usize, 2] {
        let rt = FleetRunner::new(config(77, 32).workers(workers)).run_round_trip(scenarios);
        assert_eq!(
            in_process.policy, rt.policy,
            "frozen policy bytes diverged at {workers} workers"
        );
        assert_eq!(in_process.policy.digest(), rt.policy.digest());
        assert_eq!(
            in_process.report().to_json(),
            rt.report().to_json(),
            "round-trip report bytes diverged at {workers} workers"
        );
        assert_eq!(in_process.report().digest(), rt.report().digest());
        assert_eq!(
            rt.deploy.totals.transitions, 0,
            "subprocess deploy pass was not pure inference"
        );
    }
}

/// Regression test for a pipe deadlock: the full catalog ships ~60 KB
/// replay-trace frames *to* each worker and multi-hundred-KB experience
/// logs *back*, overflowing the OS pipe buffers in both directions at
/// once. The coordinator must drain a worker's stdout before joining
/// its stdin writer, or the triangle wedges forever (the short catalogs
/// above fit inside the buffers and can never catch this).
#[test]
fn large_frames_in_both_directions_do_not_deadlock_the_pipes() {
    let scenarios: Vec<Scenario> = builtin_catalog()
        .into_iter()
        .map(|s| s.with_duration(SimDuration::from_secs(4)))
        .collect();
    let request_bytes: usize = scenarios
        .iter()
        .map(|s| firm_wire::encode_line(s).len())
        .sum();
    assert!(
        request_bytes > 128 * 1024,
        "catalog frames shrank to {request_bytes} bytes; this test no longer \
         overflows the pipe buffers it exists to exercise"
    );

    let subprocess = FleetRunner::new(config(11, 16).workers(2)).run(&scenarios);
    let in_process = FleetRunner::new(config(11, 16)).run(&scenarios);
    assert_eq!(in_process.report.to_json(), subprocess.report.to_json());
    assert_eq!(in_process.pooled, subprocess.pooled);
}

#[test]
fn worker_count_above_catalog_size_is_clamped() {
    let scenarios = short_catalog(2);
    let result = FleetRunner::new(config(5, 0).workers(16)).run(&scenarios);
    assert_eq!(result.report.scenarios.len(), 2);
    let in_process = FleetRunner::new(config(5, 0)).run(&scenarios);
    assert_eq!(in_process.report.to_json(), result.report.to_json());
}

#[test]
fn malformed_frames_kill_the_worker_with_a_spanned_error() {
    use std::io::Write;
    use std::process::{Command, Stdio};

    let mut child = Command::new(worker_bin())
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn worker");
    child
        .stdin
        .take()
        .expect("stdin")
        .write_all(b"{\"index\":0,\"seed\":oops\n")
        .expect("write");
    let out = child.wait_with_output().expect("worker exit");
    assert_eq!(out.status.code(), Some(2), "worker should exit 2");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("bad request frame") && stderr.contains("byte"),
        "stderr lacks a spanned error: {stderr}"
    );
}
