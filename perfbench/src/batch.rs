//! The two batch workloads, both on `FleetRunner`'s in-process threads.
//!
//! * `batch-sf100` — `FleetRunner::run` over
//!   `generate_catalog(CatalogSpec::new(seed, 100))` (16 tenants,
//!   replica factor 10): simulator-bound.
//! * `roundtrip-firm` — `FleetRunner::run_round_trip` over the
//!   hand-written catalog at 20 simulated seconds per scenario: the
//!   train pass, the pooled fold, and the deploy pass.
//!
//! A pass is one whole runner call at one fleet seed. Every
//! [`ANCHOR_EVERY`]-th pass runs seed 7, the anchor, whose digests are
//! pinned; every other pass runs its own seed derived from `--seed`,
//! so a run's medians cover many inputs and stay steady from one
//! `--seed` to the next. The timed section runs until the run's seconds
//! are spent and the anchor has run twice.
//!
//! Every pass is checked. The anchor must match its pins (and its first
//! pass in the run, scenario by scenario). A derived seed runs once per
//! run, so its per-scenario digests are recorded next to the benchmark
//! binary, keyed by the binary's own hash: every later run of the same
//! build at the same seed must reproduce them.

use std::path::PathBuf;
use std::sync::OnceLock;
use std::time::{Duration, Instant};

use firm_core::controller::PolicyCheckpoint;
use firm_fleet::{
    builtin_catalog, generate_catalog, scenario_seed, CatalogSpec, FleetConfig, FleetReport,
    FleetRunner, Scenario, ScenarioOutcome,
};
use firm_sim::SimDuration;

use crate::layers::{traced_aggregate, traced_execute, Budget, Stages};
use crate::stats::{median, ms, peak_rss_mb, quantile, reset_peak_rss, secs, Report};
use crate::{lanes, Opts, Size};

/// Which batch workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `batch-sf100`.
    Sf100,
    /// `roundtrip-firm`.
    RoundTrip,
}

/// The anchor seed: its digests are pinned, and the simulated-outcome
/// metrics are read from its pass.
pub const ANCHOR_SEED: u64 = 7;

/// Set-up blocks timed before every pass.
const SETUP_BLOCKS: usize = 20;

/// Every `ANCHOR_EVERY`-th pass, starting with the first, runs the
/// anchor seed.
pub const ANCHOR_EVERY: usize = 4;

/// Digests observed at the anchor seed: `(train or only pass, deploy
/// pass)`.
fn pinned(kind: Kind, size: Size) -> Vec<u64> {
    match (kind, size) {
        (Kind::Sf100, Size::Full) => vec![0xcb6a_f1e5_4e68_9487],
        (Kind::RoundTrip, Size::Full) => vec![0x69bd_5988_96dd_3318, 0xd46d_c131_939a_14ca],
        (Kind::Sf100, Size::Tiny) => vec![0x4190_edc7_5029_56fd],
        (Kind::RoundTrip, Size::Tiny) => vec![0x8686_774e_1ac5_e4d6, 0x908a_9dc9_840b_0979],
    }
}

/// The fleet seed of pass `pass` of a run at `seed`.
pub fn pass_seed(seed: u64, pass: usize) -> u64 {
    if pass.is_multiple_of(ANCHOR_EVERY) {
        ANCHOR_SEED
    } else {
        scenario_seed(seed, pass)
    }
}

/// The workload's catalog. Its structure is the same at every seed;
/// the fleet seed of a pass drives every random draw inside it.
pub fn catalog(kind: Kind, size: Size) -> Vec<Scenario> {
    let (take, secs) = match (kind, size) {
        (_, Size::Tiny) => (3, Some(3)),
        (Kind::Sf100, Size::Full) => (usize::MAX, None),
        (Kind::RoundTrip, Size::Full) => (usize::MAX, Some(20)),
    };
    let catalog = match kind {
        Kind::Sf100 => generate_catalog(&CatalogSpec::new(ANCHOR_SEED, 100)),
        Kind::RoundTrip => builtin_catalog(),
    };
    catalog
        .into_iter()
        .take(take)
        .map(|s| match secs {
            Some(n) => s.with_duration(SimDuration::from_secs(n)),
            None => s,
        })
        .collect()
}

/// The runner for a pass at fleet seed `seed`.
fn runner(seed: u64) -> FleetRunner {
    FleetRunner::new(FleetConfig {
        threads: lanes(),
        seed,
        train_steps: 256,
        ..FleetConfig::default()
    })
}

/// One untraced pass: its reports (train or only pass, then deploy
/// pass) and the policy it froze (round trip only).
struct Pass {
    seed: u64,
    wall: Duration,
    peak_rss_mb: f64,
    reports: Vec<FleetReport>,
    policy: Option<PolicyCheckpoint>,
}

impl Pass {
    /// Runs one pass; with `measure_rss`, its own peak resident set is
    /// measured (freed heap is handed back first, which costs the pass
    /// the page faults of growing again).
    fn run(kind: Kind, scenarios: &[Scenario], seed: u64, measure_rss: bool) -> Pass {
        let runner = runner(seed);
        let rss_reset = measure_rss && reset_peak_rss();
        let started = Instant::now();
        let (reports, policy) = match kind {
            Kind::Sf100 => (vec![runner.run(scenarios).report], None),
            Kind::RoundTrip => {
                let rt = runner.run_round_trip(scenarios);
                (vec![rt.train.report, rt.deploy], Some(rt.policy))
            }
        };
        Pass {
            seed,
            wall: started.elapsed(),
            // Without a reset, the process-wide peak is all there is.
            peak_rss_mb: if rss_reset { peak_rss_mb() } else { f64::NAN },
            reports,
            policy,
        }
    }

    fn completions(&self) -> u64 {
        self.reports.iter().map(|r| r.totals.completions).sum()
    }

    fn scenarios(&self) -> u64 {
        self.reports.iter().map(|r| r.scenarios.len() as u64).sum()
    }
}

/// Per-scenario outcome digests, one line per report.
fn outcome_digests(reports: &[FleetReport]) -> String {
    reports
        .iter()
        .map(|r| {
            let line: Vec<String> = r
                .scenarios
                .iter()
                .map(|o| format!("{:016x}", firm_wire::fnv64(o.to_json().as_bytes())))
                .collect();
            line.join(" ") + "\n"
        })
        .collect()
}

/// Where this build records derived-seed digests: a directory next to
/// the binary, one file per `(build, workload, size, seed)`.
fn record_path(kind: Kind, size: Size, seed: u64) -> Option<PathBuf> {
    static BUILD: OnceLock<Option<(PathBuf, u64)>> = OnceLock::new();
    let (dir, build) = BUILD
        .get_or_init(|| {
            let exe = std::env::current_exe().ok()?;
            let build = firm_wire::fnv64(&std::fs::read(&exe).ok()?);
            Some((exe.parent()?.join("perfbench-digests"), build))
        })
        .as_ref()?;
    Some(dir.join(format!("{build:016x}-{kind:?}-{size:?}-{seed:016x}")))
}

/// The digest oracle.
#[derive(Default)]
struct Oracle {
    /// The first anchor pass's reports.
    anchor: Option<Vec<FleetReport>>,
}

impl Oracle {
    /// Scenarios of `pass` that miss the oracle.
    fn failures(&mut self, kind: Kind, size: Size, pass: &Pass) -> u64 {
        if pass.seed == ANCHOR_SEED {
            let reference = self.anchor.get_or_insert_with(|| pass.reports.clone());
            let mut failed = 0;
            for ((report, pin), reference) in
                pass.reports.iter().zip(pinned(kind, size)).zip(&*reference)
            {
                if report.digest() == pin {
                    continue;
                }
                // Equal to the first pass but not to the pin: the first
                // pass was wrong too, so every scenario counts.
                failed += match mismatches(&report.scenarios, reference) {
                    0 => report.scenarios.len() as u64,
                    n => n,
                };
            }
            return failed;
        }
        let observed = outcome_digests(&pass.reports);
        let Some(path) = record_path(kind, size, pass.seed) else {
            return 0;
        };
        match std::fs::read_to_string(&path) {
            Ok(recorded) => {
                recorded
                    .split_whitespace()
                    .zip(observed.split_whitespace())
                    .filter(|(a, b)| a != b)
                    .count() as u64
                    + recorded
                        .split_whitespace()
                        .count()
                        .abs_diff(observed.split_whitespace().count()) as u64
            }
            Err(_) => {
                // First run of this build at this seed: record it. A
                // record that cannot be written only skips the check.
                if let Some(dir) = path.parent() {
                    let _ = std::fs::create_dir_all(dir);
                }
                let _ = std::fs::write(&path, observed);
                0
            }
        }
    }
}

/// Outcomes that differ from `reference`'s.
fn mismatches(outcomes: &[ScenarioOutcome], reference: &FleetReport) -> u64 {
    outcomes
        .iter()
        .zip(&reference.scenarios)
        .filter(|(a, b)| a != b)
        .count() as u64
        + outcomes.len().abs_diff(reference.scenarios.len()) as u64
}

/// Runs a batch workload.
pub fn run(kind: Kind, opts: &Opts) -> Result<Report, String> {
    Ok(if opts.trace {
        traced(kind, opts, &set_up(kind, opts.size).0)
    } else {
        untraced(kind, opts)
    })
}

/// Set-up: generating the catalog. One generation takes microseconds,
/// too little to time alone, so it is timed as [`SETUP_BLOCKS`] blocks
/// of a few generations; the catalog and the median block's seconds
/// per generation are returned.
fn set_up(kind: Kind, size: Size) -> (Vec<Scenario>, f64) {
    let reps = match (kind, size) {
        (_, Size::Tiny) => 1,
        (Kind::Sf100, Size::Full) => 50,
        (Kind::RoundTrip, Size::Full) => 3,
    };
    let mut scenarios = Vec::new();
    let samples: Vec<f64> = (0..SETUP_BLOCKS)
        .map(|_| {
            let started = Instant::now();
            for _ in 0..reps {
                scenarios = catalog(kind, size);
            }
            secs(started.elapsed()) / reps as f64
        })
        .collect();
    (scenarios, median(&samples))
}

/// Whether the timed section may stop after `passes` passes.
fn done(started: Instant, opts: &Opts, passes: usize, min_passes: usize) -> bool {
    passes >= min_passes && secs(started.elapsed()) >= opts.seconds
}

fn untraced(kind: Kind, opts: &Opts) -> Report {
    let mut oracle = Oracle::default();
    let mut report = Report::default();
    let mut passes = Vec::new();
    let mut setups = Vec::new();
    let started = Instant::now();
    // The anchor runs at least twice.
    while !done(started, opts, passes.len(), ANCHOR_EVERY + 1) {
        // Every pass sets up its own catalog, outside the pass's wall.
        let (scenarios, setup) = set_up(kind, opts.size);
        setups.push(setup);
        let pass = Pass::run(kind, &scenarios, pass_seed(opts.seed, passes.len()), true);
        report.attempted += pass.scenarios();
        report.failed += oracle.failures(kind, opts.size, &pass);
        passes.push(pass);
    }
    report.correct = report.failed == 0;

    let walls: Vec<f64> = passes.iter().map(|p| ms(p.wall)).collect();
    let peaks: Vec<f64> = passes.iter().map(|p| p.peak_rss_mb).collect();
    let peak = if peaks.iter().any(|p| p.is_nan()) {
        peak_rss_mb()
    } else {
        median(&peaks)
    };
    let completions: u64 = passes.iter().map(Pass::completions).sum();
    let wall: f64 = passes.iter().map(|p| secs(p.wall)).sum();
    // On a shared host the set-up's speed can double from one pass to
    // the next and hold within a pass, so a median over passes jumps
    // between those levels from run to run; the mean over passes moves
    // with the host as the pass walls do.
    report.push(
        "setup_s",
        setups.iter().sum::<f64>() / setups.len() as f64,
        "s",
    );
    report.push("sim_req_per_s", completions as f64 / wall, "1/s");
    report.push("peak_rss_mb", peak, "MiB");
    report.push("ok_pct", ok_pct(&report), "%");
    // A batch run is one submission that returns every outcome at
    // once: its first outcome arrives with its last.
    report.push("submit_ms_p50", median(&walls), "ms");
    report.push("submit_ms_p90", quantile(&walls, 0.9), "ms");
    report.push("first_outcome_ms_p50", median(&walls), "ms");
    let anchor = &passes[0].reports;
    push_sim_metrics(&mut report, &anchor[0], anchor.last().expect("a report"));
    report
}

/// Share of checked units that passed, in percent.
pub fn ok_pct(report: &Report) -> f64 {
    100.0 * (report.attempted - report.failed) as f64 / report.attempted.max(1) as f64
}

/// The simulated-outcome metrics, read from the anchor seed's reports
/// so they are identical on every run: `served` is the pass that
/// served traffic while learning, `deployed` the pass that served the
/// final policy (the same report when nothing was frozen).
pub fn push_sim_metrics(report: &mut Report, served: &FleetReport, deployed: &FleetReport) {
    let t = &served.totals;
    report.push("slo_violation_pct", 100.0 * t.violation_rate(), "%");
    report.push("sim_worst_p99_ms", t.worst_p99_us as f64 / 1e3, "sim_ms");
    let (weighted, count) = served.scenarios.iter().fold((0.0, 0u64), |(w, n), s| {
        (
            w + s.mean_mitigation_secs * s.mitigations as f64,
            n + s.mitigations,
        )
    });
    report.push("mitigation_s", weighted / count.max(1) as f64, "sim_s");
    report.push(
        "deploy_slo_violation_pct",
        100.0 * deployed.totals.violation_rate(),
        "%",
    );
}

/// One traced pass at fleet seed `seed`: its budget, its reports, and
/// the policy it froze (round trip only).
fn traced_pass(
    kind: Kind,
    scenarios: &[Scenario],
    seed: u64,
) -> (Budget, Vec<FleetReport>, Option<PolicyCheckpoint>) {
    let lanes = lanes();
    let stages = Stages::now();
    let started = Instant::now();
    let train = traced_execute(scenarios, seed, None, lanes);
    let exec_end = Instant::now();
    let (train_report, estimator, fold, aggregate) =
        traced_aggregate(train.slots, seed, runner(seed).config().train_steps);
    let mut budget = Budget {
        lanes,
        layers: train.layers,
        idle: train.idle,
        fold,
        aggregate,
        ..Budget::default()
    };
    let mut reports = vec![train_report];
    let mut policy = None;
    // While the coordinator lane folds, the other lanes idle.
    let idle_lanes = lanes as u32 - 1;
    budget.idle += exec_end.elapsed() * idle_lanes;
    if kind == Kind::RoundTrip {
        let (actor, critic) = estimator.shared_agent().export_weights();
        let frozen = PolicyCheckpoint { actor, critic };
        let deploy = traced_execute(scenarios, seed, Some(&frozen), lanes);
        let tail = Instant::now();
        let outcomes = deploy.slots.into_iter().map(|(o, _)| o).collect();
        reports.push(FleetReport::new(seed, outcomes));
        budget.layers.merge(deploy.layers);
        budget.idle += deploy.idle + tail.elapsed() * idle_lanes;
        budget.aggregate += tail.elapsed();
        policy = Some(frozen);
    }
    budget.wall = started.elapsed();
    budget.stages = Stages::now().since(stages);
    (budget, reports, policy)
}

fn traced(kind: Kind, opts: &Opts, scenarios: &[Scenario]) -> Report {
    let mut oracle = Oracle::default();
    let mut report = Report::default();
    let mut untraced_walls = Vec::new();
    let mut traced_walls = Vec::new();
    let mut budget = Budget::default();
    let started = Instant::now();
    while !done(started, opts, traced_walls.len(), 2) {
        // Each traced pass is paired with the untraced program at the
        // same seed — its outcomes are `run_one`'s, the reference every
        // traced outcome must equal. The pair's order alternates, so
        // neither side always runs on the other's warm heap.
        let n = traced_walls.len();
        let seed = pass_seed(opts.seed, n);
        let early = (n % 2 == 1).then(|| traced_pass(kind, scenarios, seed));
        let reference = Pass::run(kind, scenarios, seed, false);
        let (pass, reports, policy) = early.unwrap_or_else(|| traced_pass(kind, scenarios, seed));
        report.failed += oracle.failures(kind, opts.size, &reference);
        for (traced, reference) in reports.iter().zip(&reference.reports) {
            report.failed += mismatches(&traced.scenarios, reference);
        }
        if policy.as_ref().map(PolicyCheckpoint::digest)
            != reference.policy.as_ref().map(PolicyCheckpoint::digest)
        {
            report.failed += 1;
        }
        report.attempted += 2 * reference.scenarios();
        untraced_walls.push(secs(reference.wall));
        traced_walls.push(secs(pass.wall));
        budget.merge(pass);
    }
    report.correct = report.failed == 0;
    budget.push(&mut report, traced_walls.len());
    push_serve_zeros(&mut report);
    report.push(
        "trace.overhead_pct",
        100.0 * (median(&traced_walls) / median(&untraced_walls) - 1.0),
        "%",
    );
    report
}

/// The serve-only layer metrics, which a batch run has no use for.
fn push_serve_zeros(report: &mut Report) {
    report.push("wire.encode_us", 0.0, "us");
    report.push("wire.decode_us", 0.0, "us");
    report.push("wire.tx_bytes", 0.0, "B/submission");
    report.push("dispatch.overhead_ms_p50", 0.0, "ms");
    report.push("serve.fold_ms_p50", 0.0, "ms");
    report.push("serve.pool_transitions", 0.0, "count");
}
