//! Work accounting for a round trip: the deploy pass runs only the
//! scenarios a frozen policy can change, so a built-in round trip runs
//! every tenant once (train) and only the FIRM tenants a second time
//! (deploy) — 12 + 7 = 19 scenario runs and 19 calibration pilots,
//! where re-running the whole catalog would take 24 of each.
//!
//! A file of its own with a single test: the counts are read from the
//! process-global metrics registry, which another test running in the
//! same process would add to.

use firm::fleet::{builtin_catalog, FleetConfig, FleetRunner, Scenario};
use firm::sim::SimDuration;

fn samples(key: &str) -> u64 {
    firm::obs::metrics().histogram(key).snapshot().count
}

#[test]
fn round_trip_deploys_only_the_firm_scenarios() {
    let scenarios: Vec<Scenario> = builtin_catalog()
        .into_iter()
        .map(|s| s.with_duration(SimDuration::from_secs(3)))
        .collect();
    let firm = scenarios
        .iter()
        .filter(|s| s.controller.takes_policy())
        .count();
    assert_eq!((scenarios.len(), firm), (12, 7));

    let runs = samples("fleet.scenario.wall_us");
    let pilots = samples("stage.calibrate_us");
    FleetRunner::new(FleetConfig {
        threads: 2,
        seed: 7,
        train_steps: 16,
        ..FleetConfig::default()
    })
    .run_round_trip(&scenarios);

    assert_eq!(
        samples("fleet.scenario.wall_us") - runs,
        19,
        "scenario runs"
    );
    assert_eq!(
        samples("stage.calibrate_us") - pilots,
        19,
        "calibration pilots"
    );
}
