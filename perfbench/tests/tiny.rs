//! A tiny-size run of every workload: it must pass its oracle, print
//! every metric `BENCHMARK.json` names, and — traced — report a layer
//! table that sums to its budget (`lanes × traced wall`).
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use std::sync::Mutex;

use firm_perfbench::{run, Opts, Report, Size, WORKLOADS};

/// The traced runs read process-wide program timers, so workloads in
/// this binary run one at a time.
static SERIAL: Mutex<()> = Mutex::new(());

/// The metric names of one `BENCHMARK.json` section.
fn names(section: &str) -> Vec<String> {
    let doc = include_str!("../../BENCHMARK.json");
    let start = doc
        .find(&format!("\"{section}\""))
        .expect("section present");
    let body = &doc[start..];
    let body = &body[..body.find(']').expect("section closes")];
    body.split("\"name\": \"")
        .skip(1)
        .map(|s| s[..s.find('"').expect("name closes")].to_string())
        .collect()
}

fn tiny(workload: &str, trace: bool) -> Report {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let report = run(
        workload,
        &Opts {
            seed: 11,
            seconds: 0.5,
            trace,
            size: Size::Tiny,
        },
    )
    .expect("workload runs");
    assert!(report.correct, "{workload}: oracle failed: {report:?}");
    assert_eq!(report.failed, 0);
    assert!(report.attempted > 0);
    report
}

/// Simulated outcomes: a tiny catalog may see no violation or
/// mitigation at all, so these may read 0 here (never at full size).
const SIM_METRICS: [&str; 4] = [
    "slo_violation_pct",
    "sim_worst_p99_ms",
    "mitigation_s",
    "deploy_slo_violation_pct",
];

fn check_end_to_end(workload: &str) {
    let report = tiny(workload, false);
    for name in names("end_to_end") {
        let value = report
            .get(&name)
            .unwrap_or_else(|| panic!("{workload}: no {name}"));
        let floor_ok = if SIM_METRICS.contains(&name.as_str()) {
            value >= 0.0
        } else {
            value > 0.0
        };
        assert!(floor_ok, "{workload}: {name} = {value}");
    }
    assert_eq!(report.get("ok_pct"), Some(100.0));
}

fn check_layers(workload: &str) {
    let report = tiny(workload, true);
    for name in names("per_layer") {
        assert!(report.get(&name).is_some(), "{workload}: no {name}");
    }
    let get = |name: &str| report.get(name).expect(name);
    let table = [
        "exec.other_s",
        "slo.calibrate_s",
        "sim.run_for_s",
        "ctrl.firm.tick_s",
        "ctrl.k8s.tick_s",
        "ctrl.aimd.tick_s",
        "ctrl.none.tick_s",
        "episode.other_s",
        "wire.worker_s",
        "fleet.fold_s",
        "fleet.aggregate_s",
        "fleet.idle_s",
        "fleet.unattributed_s",
    ];
    let sum: f64 = table.iter().map(|name| get(name)).sum();
    let budget = get("trace.budget_s");
    assert!(
        (sum - budget).abs() <= 1e-9 * budget.max(1.0),
        "{workload}: layers sum to {sum}, budget is {budget}"
    );
    // The residual is what the trace could not place; at tiny sizes a
    // fifth of the budget is the most that is plausible.
    let unattributed = get("fleet.unattributed_s");
    assert!(
        unattributed.abs() <= 0.2 * budget,
        "{workload}: unattributed {unattributed} of {budget}"
    );
    for name in ["slo.calibrate_s", "sim.run_for_s", "exec.scenario_ms_p50"] {
        assert!(get(name) > 0.0, "{workload}: {name} is zero");
    }
    // The FIRM stages nest inside FIRM's tick.
    let stages = get("firm.ingest_s") + get("firm.extract_s") + get("firm.train_s");
    assert!(stages <= get("ctrl.firm.tick_s") * 1.01 + 1e-3);
}

#[test]
fn every_workload_is_listed() {
    let listed: Vec<String> = names("workloads");
    assert_eq!(listed, WORKLOADS);
}

#[test]
fn batch_sf100_tiny() {
    check_end_to_end("batch-sf100");
    check_layers("batch-sf100");
}

#[test]
fn roundtrip_firm_tiny() {
    check_end_to_end("roundtrip-firm");
    check_layers("roundtrip-firm");
}

#[test]
fn serve_small_tiny() {
    check_end_to_end("serve-small");
    check_layers("serve-small");
    assert!(
        tiny("serve-small", true)
            .get("wire.tx_bytes")
            .expect("bytes")
            > 0.0
    );
}

#[test]
fn unknown_workloads_are_refused() {
    let opts = Opts {
        seed: 7,
        seconds: 1.0,
        trace: false,
        size: Size::Tiny,
    };
    assert!(run("no-such-workload", &opts).is_err());
}
