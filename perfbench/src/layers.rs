//! The traced driver and the layer budget.
//!
//! [`traced_run_one`] makes the same public calls as
//! [`firm_fleet::run_one_sharded`] (at one intra-scenario shard), in the
//! same order — `Benchmark::build`, `scale_replicas`, `calibrate_slos`,
//! `Simulation::builder`, `run_episode` — and times each from here. The
//! controller runs inside a [`Timed`] wrapper, so every controller tick
//! is timed too. `Simulation::run_for` and the FIRM stages are timed by
//! the program's own `stage.*_us` histograms, read as deltas around a
//! traced pass. Callers assert every traced outcome equals the untraced
//! program's, so the trace always measures the same computation.
//!
//! A [`Budget`] adds those spans up over a pass. Its unit is the
//! lane-second: `lanes × wall`, where a lane is one scenario thread (or
//! one in-process worker). Every lane-second is either inside a
//! scenario (split into the self times of its layers), on the
//! coordinator lane (fold, aggregation), in a worker's wire codec,
//! idle (a lane with no scenario to run), or `fleet.unattributed_s`.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::thread;
use std::time::{Duration, Instant};

use firm_core::baselines::{AimdController, K8sHpaController};
use firm_core::controller::{
    run_episode, ControlDecision, Controller, EpisodeSpec, PolicyCheckpoint, TickContext, Unmanaged,
};
use firm_core::estimator::{AgentRegime, ResourceEstimator};
use firm_core::extractor::CriticalComponentExtractor;
use firm_core::injector::AnomalyInjector;
use firm_core::manager::{ExperienceLog, FirmConfig, FirmManager};
use firm_core::slo::calibrate_slos;
use firm_core::training::replay_experience;
use firm_fleet::{
    scenario_seed, FleetController, FleetReport, OpsReport, Scenario, ScenarioOutcome,
};
use firm_sim::spec::ClusterSpec;
use firm_sim::Simulation;

use crate::stats::{median, quantile, secs, Report};

/// Controller labels and their tick-time metric names.
pub const CONTROLLERS: [(&str, &str); 4] = [
    ("FIRM", "ctrl.firm.tick_s"),
    ("K8S", "ctrl.k8s.tick_s"),
    ("AIMD", "ctrl.aimd.tick_s"),
    ("none", "ctrl.none.tick_s"),
];

/// Spans timed from this crate, summed over the scenarios of a pass.
#[derive(Debug, Clone, Default)]
pub struct Layers {
    /// Whole traced scenarios (the span every layer below nests in).
    pub scenario: Duration,
    /// `calibrate_slos`: the 10-simulated-second pilot run.
    pub calibrate: Duration,
    /// `run_episode`.
    pub episode: Duration,
    /// `Controller::tick`, per [`CONTROLLERS`] entry.
    pub ticks: [Duration; 4],
    /// Requests handed to controllers (`TickContext.completed`).
    pub requests: u64,
    /// Spans in those requests' traces.
    pub spans: u64,
    /// Requests handed to FIRM controllers — traces Algorithm 1 ingests.
    pub firm_traces: u64,
    /// RL transitions harvested.
    pub transitions: u64,
    /// SVM examples harvested.
    pub svm_examples: u64,
    /// Per-scenario wall, ms.
    pub scenario_ms: Vec<f64>,
}

impl Layers {
    /// Folds another lane's spans in.
    pub fn merge(&mut self, other: Layers) {
        self.scenario += other.scenario;
        self.calibrate += other.calibrate;
        self.episode += other.episode;
        for (a, b) in self.ticks.iter_mut().zip(other.ticks) {
            *a += b;
        }
        self.requests += other.requests;
        self.spans += other.spans;
        self.firm_traces += other.firm_traces;
        self.transitions += other.transitions;
        self.svm_examples += other.svm_examples;
        self.scenario_ms.extend(other.scenario_ms);
    }
}

/// Microsecond sums of the program's `stage.*_us` histograms.
#[derive(Debug, Clone, Copy, Default)]
pub struct Stages {
    /// `Simulation::run_for` inside `run_episode`.
    pub sim: u64,
    /// FIRM trace ingest (Algorithm 1).
    pub ingest: u64,
    /// FIRM critical-component extraction (Algorithm 2).
    pub extract: u64,
    /// FIRM in-episode SVM and DDPG training.
    pub train: u64,
}

impl Stages {
    /// The current process-wide sums.
    pub fn now() -> Stages {
        let m = firm_obs::metrics();
        let sum = |key: &str| m.histogram(key).snapshot().sum;
        Stages {
            sim: sum("stage.sim_us"),
            ingest: sum("stage.ingest_us"),
            extract: sum("stage.extract_us"),
            train: sum("stage.train_us"),
        }
    }

    /// What accrued since `before`.
    pub fn since(self, before: Stages) -> Stages {
        Stages {
            sim: self.sim - before.sim,
            ingest: self.ingest - before.ingest,
            extract: self.extract - before.extract,
            train: self.train - before.train,
        }
    }

    fn add(&mut self, other: Stages) {
        self.sim += other.sim;
        self.ingest += other.ingest;
        self.extract += other.extract;
        self.train += other.train;
    }
}

/// A controller wrapper that times every tick and counts the traces
/// and spans the tick received.
struct Timed<'a> {
    inner: &'a mut dyn Controller,
    spent: Duration,
    requests: u64,
    spans: u64,
}

impl Controller for Timed<'_> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn tick(&mut self, sim: &mut Simulation, ctx: TickContext) -> ControlDecision {
        self.requests += ctx.completed.len() as u64;
        self.spans += ctx
            .completed
            .iter()
            .map(|r| r.spans.len() as u64)
            .sum::<u64>();
        let started = Instant::now();
        let decision = self.inner.tick(sim, ctx);
        self.spent += started.elapsed();
        decision
    }

    fn drain_experience(&mut self) -> ExperienceLog {
        self.inner.drain_experience()
    }

    fn export_policy(&self) -> Option<PolicyCheckpoint> {
        self.inner.export_policy()
    }

    fn import_policy(&mut self, policy: &PolicyCheckpoint) {
        self.inner.import_policy(policy)
    }
}

/// The controller `run_one_sharded` builds for `scenario` at one
/// intra-scenario shard.
fn build_controller(
    scenario: &Scenario,
    seed: u64,
    services: usize,
    policy: Option<&PolicyCheckpoint>,
) -> Box<dyn Controller> {
    match scenario.controller {
        FleetController::Unmanaged => Box::new(Unmanaged),
        FleetController::Firm => {
            let deployed = policy.is_some();
            let mut mgr = Box::new(FirmManager::new(FirmConfig {
                control_interval: scenario.control_interval,
                training: !deployed,
                explore: !deployed,
                record_experience: !deployed,
                slo_penalty: scenario.slo_penalty,
                seed: seed ^ 0xF12A,
                intra_shards: 1,
                ..FirmConfig::default()
            }));
            if let Some(p) = policy {
                Controller::import_policy(mgr.as_mut(), p);
            }
            mgr
        }
        FleetController::K8sHpa => Box::new(K8sHpaController::new(scenario.k8s.clone(), services)),
        FleetController::Aimd => Box::new(AimdController::new(scenario.aimd.clone())),
    }
}

/// `run_one_sharded(scenario, seed, policy, 1)`, timed layer by layer
/// into `layers`.
pub fn traced_run_one(
    scenario: &Scenario,
    seed: u64,
    policy: Option<&PolicyCheckpoint>,
    layers: &mut Layers,
) -> (ScenarioOutcome, ExperienceLog) {
    let span = Instant::now();
    let cluster = ClusterSpec::small(scenario.nodes.max(1));
    let mut app = scenario.benchmark.build();
    if scenario.replica_factor > 1 {
        firm_workload::builder::scale_replicas(&mut app, scenario.replica_factor);
    }
    if let Some(factor) = scenario.slo_factor {
        let started = Instant::now();
        calibrate_slos(
            &mut app,
            &cluster,
            scenario.load.mean_rate(),
            factor,
            seed ^ 0x510C_A11B,
        );
        layers.calibrate += started.elapsed();
    }
    let mut sim = Simulation::builder(cluster, app, seed)
        .arrivals(scenario.load.build())
        .build();
    let services = sim.app().services.len();
    let mut controller = build_controller(scenario, seed, services, policy);
    let mut injector = scenario
        .campaign
        .clone()
        .map(|c| AnomalyInjector::new(c, seed ^ 0xF00D));
    let spec = EpisodeSpec {
        duration: scenario.duration,
        control_interval: scenario.control_interval,
        warmup: scenario.warmup,
    };

    let mut timed = Timed {
        inner: controller.as_mut(),
        spent: Duration::ZERO,
        requests: 0,
        spans: 0,
    };
    let started = Instant::now();
    let episode = run_episode(&mut sim, &mut timed, injector.as_mut(), &spec);
    layers.episode += started.elapsed();
    let slot = CONTROLLERS
        .iter()
        .position(|(name, _)| *name == timed.name())
        .expect("known controller label");
    layers.ticks[slot] += timed.spent;
    layers.requests += timed.requests;
    layers.spans += timed.spans;
    if slot == 0 {
        layers.firm_traces += timed.requests;
    }
    let experience = controller.drain_experience();

    let outcome = ScenarioOutcome {
        name: scenario.name.clone(),
        benchmark: scenario.benchmark.name(),
        controller: controller.name(),
        load: scenario.load.label(),
        seed,
        ticks: episode.ticks,
        arrivals: sim.stats().arrivals,
        completions: episode.completions,
        drops: episode.drops,
        slo_violations: episode.slo_violations,
        p50_us: episode.latency.p50(),
        p99_us: episode.latency.p99(),
        mean_latency_us: episode.mean_latency_us(),
        anomalies_injected: injector.map(|i| i.history().len() as u64).unwrap_or(0),
        mitigations: episode.mitigation_times.len() as u64,
        mean_mitigation_secs: episode.mean_mitigation_secs(),
        transitions: experience.transitions.len() as u64,
        svm_examples: experience.svm_examples.len() as u64,
    };
    // The program's own out-of-band scenario timer, kept so the traced
    // scenario does the same work as the untraced one.
    let wall = span.elapsed();
    firm_obs::metrics()
        .histogram("fleet.scenario.wall_us")
        .record(wall.as_micros() as u64);
    layers.transitions += outcome.transitions;
    layers.svm_examples += outcome.svm_examples;
    layers.scenario += wall;
    layers.scenario_ms.push(wall.as_secs_f64() * 1e3);
    (outcome, experience)
}

/// One traced execution of a catalog on scenario threads.
pub struct TracedExec {
    /// `(outcome, experience)` in catalog order.
    pub slots: Vec<(ScenarioOutcome, ExperienceLog)>,
    /// Spans summed over every lane.
    pub layers: Layers,
    /// Lane time with no scenario: before a lane's first claim and
    /// after its last scenario, until the pass joined.
    pub idle: Duration,
}

/// `FleetRunner`'s in-process thread path over `lanes` threads, with
/// every scenario run by [`traced_run_one`].
pub fn traced_execute(
    scenarios: &[Scenario],
    fleet_seed: u64,
    policy: Option<&PolicyCheckpoint>,
    lanes: usize,
) -> TracedExec {
    let started = Instant::now();
    let next = AtomicUsize::new(0);
    let (tx, rx) = mpsc::channel::<(usize, ScenarioOutcome, ExperienceLog)>();
    let mut slots: Vec<Option<(ScenarioOutcome, ExperienceLog)>> =
        (0..scenarios.len()).map(|_| None).collect();
    let lane_spans = thread::scope(|scope| {
        let handles: Vec<_> = (0..lanes.min(scenarios.len()))
            .map(|_| {
                let tx = tx.clone();
                let next = &next;
                scope.spawn(move || {
                    let lane_start = Instant::now();
                    let mut layers = Layers::default();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(scenario) = scenarios.get(i) else {
                            break;
                        };
                        let seed = scenario_seed(fleet_seed, i);
                        let (outcome, log) = traced_run_one(scenario, seed, policy, &mut layers);
                        tx.send((i, outcome, log)).expect("collector alive");
                    }
                    (lane_start, Instant::now(), layers)
                })
            })
            .collect();
        drop(tx);
        for (i, outcome, log) in rx {
            slots[i] = Some((outcome, log));
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("traced lane panicked"))
            .collect::<Vec<_>>()
    });
    let joined = Instant::now();
    let mut layers = Layers::default();
    let mut idle = Duration::ZERO;
    // A lane that never started (fewer scenarios than lanes) idles for
    // the whole pass.
    idle += (joined - started) * (lanes - lane_spans.len()) as u32;
    for (lane_start, lane_end, lane) in lane_spans {
        idle += (lane_start - started) + (joined - lane_end);
        layers.merge(lane);
    }
    TracedExec {
        slots: slots
            .into_iter()
            .map(|s| s.expect("every scenario ran"))
            .collect(),
        layers,
        idle,
    }
}

/// `FleetRunner`'s aggregation tail, with the pooled replay timed
/// apart from the rest: returns the report, the trained shared agent,
/// the time in `replay_experience`, and the rest of the tail's time.
pub fn traced_aggregate(
    slots: Vec<(ScenarioOutcome, ExperienceLog)>,
    fleet_seed: u64,
    train_steps: usize,
) -> (FleetReport, ResourceEstimator, Duration, Duration) {
    let started = Instant::now();
    let mut outcomes = Vec::with_capacity(slots.len());
    let mut pooled = ExperienceLog::default();
    for (outcome, log) in slots {
        outcomes.push(outcome);
        pooled.merge(log);
    }
    let report = FleetReport::new(fleet_seed, outcomes);
    let mut estimator = ResourceEstimator::new(AgentRegime::Shared, fleet_seed ^ 0x0A11);
    let fold_started = Instant::now();
    replay_experience(&mut estimator, &pooled, train_steps);
    let fold = fold_started.elapsed();
    let mut extractor = CriticalComponentExtractor::new(fleet_seed ^ 0x51FE);
    for (features, label) in &pooled.svm_examples {
        extractor.train(features, *label);
    }
    let _ops = OpsReport::new(firm_obs::metrics().snapshot(), Vec::new()); // as the runner does
    (report, estimator, fold, started.elapsed() - fold)
}

/// A pass's layer budget, in lane-seconds.
#[derive(Debug, Clone, Default)]
pub struct Budget {
    /// Lanes the pass ran on.
    pub lanes: usize,
    /// Traced wall of the pass.
    pub wall: Duration,
    /// Scenario spans.
    pub layers: Layers,
    /// Program timers over the pass.
    pub stages: Stages,
    /// Lane time with nothing to run.
    pub idle: Duration,
    /// `replay_experience` on the coordinator lane.
    pub fold: Duration,
    /// The rest of the coordinator's aggregation tail.
    pub aggregate: Duration,
    /// Worker-side wire codec and frame writes (serve-small).
    pub wire: Duration,
}

impl Budget {
    /// Folds another pass in.
    pub fn merge(&mut self, other: Budget) {
        self.lanes = other.lanes;
        self.wall += other.wall;
        self.layers.merge(other.layers);
        self.stages.add(other.stages);
        self.idle += other.idle;
        self.fold += other.fold;
        self.aggregate += other.aggregate;
        self.wire += other.wire;
    }

    /// The lane-seconds available: `lanes × wall`.
    pub fn total_s(&self) -> f64 {
        self.lanes as f64 * secs(self.wall)
    }

    /// The additive layer table: `(name, lane-seconds)`. Together with
    /// `fleet.unattributed_s` the entries sum to [`Budget::total_s`].
    pub fn table(&self) -> Vec<(&'static str, f64)> {
        let l = &self.layers;
        let run_for = self.stages.sim as f64 * 1e-6;
        let ticks: f64 = l.ticks.iter().copied().map(secs).sum();
        let mut rows = vec![
            (
                "exec.other_s",
                secs(l.scenario) - secs(l.calibrate) - secs(l.episode),
            ),
            ("slo.calibrate_s", secs(l.calibrate)),
            ("sim.run_for_s", run_for),
        ];
        for ((_, name), t) in CONTROLLERS.iter().zip(l.ticks) {
            rows.push((name, secs(t)));
        }
        rows.extend([
            ("episode.other_s", secs(l.episode) - run_for - ticks),
            ("wire.worker_s", secs(self.wire)),
            ("fleet.fold_s", secs(self.fold)),
            ("fleet.aggregate_s", secs(self.aggregate)),
            ("fleet.idle_s", secs(self.idle)),
        ]);
        let attributed: f64 = rows.iter().map(|(_, v)| v).sum();
        rows.push(("fleet.unattributed_s", self.total_s() - attributed));
        rows
    }

    /// Appends every budget metric to `report`, scaled by `1 / passes`
    /// so figures read per pass. Metrics a workload has no use for
    /// (the wire on a batch run) read 0.
    pub fn push(&self, report: &mut Report, passes: usize) {
        let per = 1.0 / passes.max(1) as f64;
        let l = &self.layers;
        for (name, value) in self.table() {
            report.push(name, value * per, "s");
        }
        let us = |v: u64| v as f64 * 1e-6 * per;
        report.push("firm.ingest_s", us(self.stages.ingest), "s");
        report.push("firm.extract_s", us(self.stages.extract), "s");
        report.push("firm.train_s", us(self.stages.train), "s");
        report.push("firm.traces", l.firm_traces as f64 * per, "count");
        report.push("firm.svm_examples", l.svm_examples as f64 * per, "count");
        report.push("firm.transitions", l.transitions as f64 * per, "count");
        report.push(
            "sim.us_per_span",
            self.stages.sim as f64 / l.spans.max(1) as f64,
            "us",
        );
        report.push(
            "sim.spans_per_req",
            l.spans as f64 / l.requests.max(1) as f64,
            "count",
        );
        report.push("exec.scenario_ms_p50", median(&l.scenario_ms), "ms");
        report.push("exec.scenario_ms_max", quantile(&l.scenario_ms, 1.0), "ms");
        report.push("trace.wall_s", secs(self.wall) * per, "s");
        report.push("trace.budget_s", self.total_s() * per, "s");
    }
}
