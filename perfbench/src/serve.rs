//! `serve-small`: one resident `FleetServer` in this process, its
//! workers reached through [`InProcess`] transports, loaded by closed
//! loop clients (each waits for its reply before the next submit, like
//! `firm-fleet-client`).
//!
//! Each submission is a slice of two or three scenarios of the
//! hand-written catalog at [`SCENARIO_SECS`] simulated seconds. A cycle
//! walks the slices with continuous base indices, once per fleet seed
//! of the first [`ANCHOR_EVERY`] batch passes (the anchor and three
//! seeds derived from `--seed`). Every cycle is served by a fresh
//! server, started and stopped outside the timed section, so the
//! resident pool — and the fold and retrain behind each submission —
//! is the same in every cycle whatever the program's speed. Before
//! timing, one in-process batch run per seed computes every slice's
//! expected digest (the anchor seed's run is itself pinned); each
//! submission's report must match it.
//!
//! The traced run serves cycles twice: first with the program's own
//! worker loop (`serve_session`), then with the traced worker loop
//! [`traced_session`], which makes the worker's calls — decode,
//! `run_one_sharded`'s calls, encode, write — from this crate and times
//! them.

use std::io::{self, BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use firm_fleet::worker::{serve_session, ServeOptions};
use firm_fleet::{
    builtin_catalog, Connection, ConnectionControl, FleetConfig, FleetReport, FleetRunner,
    Scenario, ScenarioOutcome, Transport, WorkerHello, WorkerMessage, WorkerRequest,
    WorkerResponse, PROTOCOL_VERSION,
};
use firm_obs::{FieldValue, Level};
use firm_serve::{FleetServer, FleetService, ServeClient, ServiceLimits};
use firm_sim::SimDuration;

use crate::batch::{ok_pct, pass_seed, push_sim_metrics, ANCHOR_EVERY, ANCHOR_SEED};
use crate::layers::{traced_run_one, Budget, Layers, Stages};
use crate::stats::{median, ms, peak_rss_mb, quantile, reset_peak_rss, secs, Report};
use crate::{lanes, Opts, Size};

/// Simulated seconds per submitted scenario.
pub const SCENARIO_SECS: u64 = 4;

/// Central replay steps after every submission's fold.
const TRAIN_STEPS: usize = 64;

/// Digest of the anchor seed's batch run over a cycle's scenarios.
fn pinned(size: Size) -> u64 {
    match size {
        Size::Full => 0x8ae7_2a95_a02c_b1bf,
        Size::Tiny => 0x6630_8730_00ca_c041,
    }
}

/// One submission's inputs.
struct Slice {
    seed: u64,
    base: u64,
    scenarios: Vec<Scenario>,
    /// The digest its report must have; `None` when the batch run at
    /// its seed missed its pin, so the submission cannot pass.
    expected: Option<u64>,
}

/// Every slice of a run, in submission order, and the anchor seed's
/// batch report (the simulated-outcome metrics).
struct Cycle {
    slices: Vec<Slice>,
    anchor: FleetReport,
}

impl Cycle {
    /// Builds the slices and runs the batch oracle for each seed.
    fn new(opts: &Opts) -> Cycle {
        let (indices, secs) = match opts.size {
            Size::Full => (25, SCENARIO_SECS),
            Size::Tiny => (5, 2),
        };
        let catalog: Vec<Scenario> = builtin_catalog()
            .into_iter()
            .map(|s| s.with_duration(SimDuration::from_secs(secs)))
            .collect();
        let scenarios: Vec<Scenario> = (0..indices)
            .map(|i| catalog[i % catalog.len()].clone())
            .collect();
        let mut slices = Vec::new();
        let mut anchor = None;
        for seed in (0..ANCHOR_EVERY).map(|pass| pass_seed(opts.seed, pass)) {
            let report = FleetRunner::new(FleetConfig {
                threads: lanes(),
                seed,
                train_steps: 0,
                ..FleetConfig::default()
            })
            .run(&scenarios)
            .report;
            let trusted = seed != ANCHOR_SEED || report.digest() == pinned(opts.size);
            let mut base = 0;
            // Slices of 2, 3, 2, 3, ... scenarios, the last one short.
            while base < indices {
                let n = (2 + slices.len() % 2).min(indices - base);
                let outcomes = report.scenarios[base..base + n].to_vec();
                slices.push(Slice {
                    seed,
                    base: base as u64,
                    scenarios: scenarios[base..base + n].to_vec(),
                    expected: trusted.then(|| FleetReport::new(seed, outcomes).digest()),
                });
                base += n;
            }
            anchor.get_or_insert(report);
        }
        Cycle {
            slices,
            anchor: anchor.expect("at least one seed"),
        }
    }
}

/// Which worker loop an [`InProcess`] transport runs.
#[derive(Clone)]
enum WorkerKind {
    /// The program's `serve_session`.
    Program,
    /// [`traced_session`], reporting into the probe's lane.
    Traced(Arc<Probe>),
}

/// A worker in a thread of this process, reached over a Unix socket
/// pair — the same byte stream a `PipeTransport` carries, with no
/// worker binary.
struct InProcess {
    kind: WorkerKind,
    slot: usize,
    tx_bytes: Arc<AtomicU64>,
}

/// A counting write half. Dropping it shuts the socket's write side,
/// so the peer reads EOF even while other handles to the socket live.
struct Half {
    stream: UnixStream,
    tx_bytes: Arc<AtomicU64>,
}

impl Write for Half {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let n = self.stream.write(buf)?;
        self.tx_bytes.fetch_add(n as u64, Ordering::Relaxed);
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.stream.flush()
    }
}

impl Drop for Half {
    fn drop(&mut self) {
        let _ = self.stream.shutdown(std::net::Shutdown::Write);
    }
}

struct Control {
    stream: UnixStream,
    worker: Option<JoinHandle<Result<(), String>>>,
}

impl ConnectionControl for Control {
    fn kill(&mut self) {
        let _ = self.stream.shutdown(std::net::Shutdown::Both);
    }

    fn finish(&mut self) -> io::Result<()> {
        match self.worker.take().map(JoinHandle::join) {
            Some(Ok(Err(e))) => Err(io::Error::other(e)),
            Some(Err(_)) => Err(io::Error::other("in-process worker panicked")),
            _ => Ok(()),
        }
    }
}

impl Transport for InProcess {
    fn label(&self) -> String {
        format!("inproc:{}", self.slot)
    }

    fn connect(&mut self) -> io::Result<Connection> {
        let (coordinator, worker) = UnixStream::pair()?;
        let reader = BufReader::new(worker.try_clone()?);
        let writer = Half {
            stream: worker,
            tx_bytes: Arc::clone(&self.tx_bytes),
        };
        let kind = self.kind.clone();
        let slot = self.slot;
        let handle = thread::Builder::new()
            .name(format!("inproc-worker-{slot}"))
            .spawn(move || match kind {
                WorkerKind::Program => serve_session(reader, writer, &ServeOptions::default())
                    .map_err(|e| e.to_string()),
                WorkerKind::Traced(probe) => traced_session(reader, writer, &probe.lanes[slot]),
            })?;
        Ok(Connection {
            writer: Box::new(Half {
                stream: coordinator.try_clone()?,
                tx_bytes: Arc::clone(&self.tx_bytes),
            }),
            reader: Box::new(BufReader::new(coordinator.try_clone()?)),
            control: Box::new(Control {
                stream: coordinator,
                worker: Some(handle),
            }),
        })
    }
}

/// What one traced worker lane measured.
#[derive(Default)]
struct Lane {
    layers: Layers,
    /// Decode, encode, and write of frames.
    wire: Duration,
    /// Waiting for the next request frame.
    idle: Duration,
    /// When the current wait began, if the lane is waiting.
    waiting_since: Option<Instant>,
    decode_us: Vec<f64>,
    encode_us: Vec<f64>,
}

impl Lane {
    /// Adds a later cycle's measurements of the same slot.
    fn merge(&mut self, other: Lane) {
        self.layers.merge(other.layers);
        self.wire += other.wire;
        self.idle += other.idle;
        self.decode_us.extend(other.decode_us);
        self.encode_us.extend(other.encode_us);
    }
}

/// The traced workers' lanes.
struct Probe {
    lanes: Vec<Mutex<Lane>>,
}

impl Probe {
    /// Starts a measured phase at `start`: clears every lane, and a
    /// wait in progress counts from `start`.
    fn open(&self, start: Instant) {
        for lane in &self.lanes {
            let mut lane = lane.lock().expect("lane lock");
            *lane = Lane {
                waiting_since: lane.waiting_since.map(|_| start),
                ..Lane::default()
            };
        }
    }

    /// Ends the phase at `end`: a wait in progress counts as idle to
    /// `end`.
    fn close(&self, end: Instant) -> Vec<Lane> {
        self.lanes
            .iter()
            .map(|lane| {
                let mut lane = std::mem::take(&mut *lane.lock().expect("lane lock"));
                if let Some(since) = lane.waiting_since.take() {
                    lane.idle += end - since;
                }
                lane
            })
            .collect()
    }
}

/// The worker loop of `serve_session` (hello, then decode → run →
/// encode → write per request; no heartbeats), with each step timed
/// into `lane`.
fn traced_session(
    mut reader: BufReader<UnixStream>,
    mut writer: Half,
    lane: &Mutex<Lane>,
) -> Result<(), String> {
    let hello = firm_wire::encode_line(&WorkerMessage::Hello(WorkerHello {
        protocol: PROTOCOL_VERSION,
        pid: std::process::id() as u64,
        heartbeat_ms: 0,
    }));
    writer
        .write_all(hello.as_bytes())
        .and_then(|()| writer.flush())
        .map_err(|e| e.to_string())?;
    let mut cached_policy = None;
    let mut line = String::new();
    loop {
        lane.lock().expect("lane lock").waiting_since = Some(Instant::now());
        line.clear();
        let n = reader.read_line(&mut line).map_err(|e| e.to_string())?;
        let arrived = Instant::now();
        {
            let mut l = lane.lock().expect("lane lock");
            if let Some(since) = l.waiting_since.take() {
                l.idle += arrived - since;
            }
        }
        if n == 0 {
            return Ok(());
        }
        let req: WorkerRequest = firm_wire::decode_line(&line).map_err(|e| e.to_string())?;
        let decoded = arrived.elapsed();
        if !req.reuse_policy {
            cached_policy = req.policy;
        }
        let mut layers = Layers::default();
        let (outcome, experience) =
            traced_run_one(&req.scenario, req.seed, cached_policy.as_ref(), &mut layers);
        let encode_started = Instant::now();
        let frame = firm_wire::encode_line(&WorkerMessage::Response(Box::new(WorkerResponse {
            index: req.index,
            outcome,
            experience,
        })));
        let encoded = encode_started.elapsed();
        writer
            .write_all(frame.as_bytes())
            .and_then(|()| writer.flush())
            .map_err(|e| e.to_string())?;
        let mut l = lane.lock().expect("lane lock");
        l.wire += decoded + encode_started.elapsed();
        l.decode_us.push(decoded.as_secs_f64() * 1e6);
        l.encode_us.push(encoded.as_secs_f64() * 1e6);
        l.layers.merge(layers);
    }
}

/// A running resident server and its connected clients.
struct Server {
    server: FleetServer,
    clients: Vec<ServeClient>,
    tx_bytes: Arc<AtomicU64>,
}

impl Server {
    fn start(kind: WorkerKind) -> Result<Server, String> {
        let tx_bytes = Arc::new(AtomicU64::new(0));
        let transports: Vec<Box<dyn Transport>> = (0..lanes())
            .map(|slot| {
                Box::new(InProcess {
                    kind: kind.clone(),
                    slot,
                    tx_bytes: Arc::clone(&tx_bytes),
                }) as Box<dyn Transport>
            })
            .collect();
        let config = FleetConfig {
            seed: ANCHOR_SEED,
            train_steps: TRAIN_STEPS,
            ..FleetConfig::default()
        };
        let service = FleetService::with_transports(config, ServiceLimits::default(), transports)?;
        let server = FleetServer::start_with("127.0.0.1:0", Arc::new(service))?;
        let addr = server.local_addr().to_string();
        let clients = (0..lanes())
            .map(|_| ServeClient::connect(&addr))
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| e.to_string())?;
        Ok(Server {
            server,
            clients,
            tx_bytes,
        })
    }

    /// Drains and stops the server, joining every worker. Returns the
    /// transitions in its resident pool.
    fn stop(mut self) -> Result<u64, String> {
        let result = self.clients[0]
            .shutdown()
            .map(|report| report.pooled_transitions)
            .map_err(|e| e.to_string());
        drop(self.clients);
        self.server.join();
        result
    }
}

/// Client-side measurements over one or more cycles, each served by
/// a fresh server.
#[derive(Default)]
struct Phase {
    /// Timed wall: the cycles only, not the servers' set-up or stop.
    wall: Duration,
    cycles: usize,
    /// Each server's set-up: workers connected, service and server
    /// started, clients connected.
    setup_s: Vec<f64>,
    submit_ms: Vec<f64>,
    first_outcome_ms: Vec<f64>,
    fold_ms: Vec<f64>,
    /// Each cycle's peak resident set: reset, with freed heap handed
    /// back, once its server is up and before its first submission;
    /// read after its last reply.
    peak_rss_mb: Vec<f64>,
    /// Each server's pooled transitions at the end of its cycle.
    pool: Vec<f64>,
    /// Worker-transport bytes, both directions, during the cycles.
    tx_bytes: u64,
    /// Traced runs: each worker slot's lane, summed over the cycles.
    lanes: Vec<Lane>,
    completions: u64,
    attempted: u64,
    failed: u64,
}

impl Phase {
    fn merge(&mut self, other: Phase) {
        self.wall += other.wall;
        self.cycles += other.cycles;
        self.setup_s.extend(other.setup_s);
        self.submit_ms.extend(other.submit_ms);
        self.first_outcome_ms.extend(other.first_outcome_ms);
        self.fold_ms.extend(other.fold_ms);
        self.peak_rss_mb.extend(other.peak_rss_mb);
        self.pool.extend(other.pool);
        self.tx_bytes += other.tx_bytes;
        if self.lanes.len() < other.lanes.len() {
            self.lanes.resize_with(other.lanes.len(), Lane::default);
        }
        for (lane, other) in self.lanes.iter_mut().zip(other.lanes) {
            lane.merge(other);
        }
        self.completions += other.completions;
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

/// The clients share the cycle's slices, each submitting the next
/// unclaimed slice and waiting for its reply, until every slice is
/// served.
fn one_cycle(server: &mut Server, cycle: &Cycle) -> Phase {
    let next = AtomicUsize::new(0);
    let phases: Vec<Phase> = thread::scope(|scope| {
        let handles: Vec<_> = server
            .clients
            .iter_mut()
            .map(|client| {
                let next = &next;
                scope.spawn(move || {
                    let mut phase = Phase::default();
                    while let Some(slice) = cycle.slices.get(next.fetch_add(1, Ordering::Relaxed)) {
                        let submitted = Instant::now();
                        let mut first = None;
                        let mut last = None;
                        let result = client.submit(
                            slice.seed,
                            slice.base,
                            slice.scenarios.clone(),
                            &mut |_: u64, _: ScenarioOutcome| {
                                let now = Instant::now();
                                first.get_or_insert(now);
                                last = Some(now);
                            },
                        );
                        let replied = Instant::now();
                        phase.attempted += 1;
                        match result {
                            Ok(report) if Some(report.report.digest()) == slice.expected => {
                                phase.submit_ms.push(ms(replied - submitted));
                                let first = first.unwrap_or(replied);
                                phase.first_outcome_ms.push(ms(first - submitted));
                                phase.fold_ms.push(ms(replied - last.unwrap_or(replied)));
                                phase.completions += report.report.totals.completions;
                            }
                            Ok(_) => phase.failed += 1,
                            Err(e) => {
                                eprintln!("perfbench: submission failed: {e}");
                                phase.failed += 1;
                            }
                        }
                    }
                    phase
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let mut phase = Phase::default();
    for p in phases {
        phase.merge(p);
    }
    phase
}

/// Serves whole cycles, each on a fresh server, until the cycles'
/// walls add up to `seconds`. Every cycle starts from an empty resident
/// pool, so the work behind each submission does not depend on how
/// many submissions a run fits in. With a probe, its lanes are
/// measured over each cycle.
fn serve(kind: &WorkerKind, cycle: &Cycle, seconds: f64) -> Result<Phase, String> {
    let probe = match kind {
        WorkerKind::Traced(probe) => Some(probe),
        WorkerKind::Program => None,
    };
    let mut total = Phase::default();
    while total.cycles == 0 || secs(total.wall) < seconds {
        let set_up = Instant::now();
        let mut server = Server::start(kind.clone())?;
        let setup_s = secs(set_up.elapsed());
        // Both clients are idle: the reset cannot disturb a submission.
        reset_peak_rss();
        let tx_before = server.tx_bytes.load(Ordering::Relaxed);
        let start = Instant::now();
        if let Some(probe) = probe {
            probe.open(start);
        }
        let mut phase = one_cycle(&mut server, cycle);
        let end = Instant::now();
        if let Some(probe) = probe {
            phase.lanes = probe.close(end);
        }
        phase.wall = end - start;
        phase.cycles = 1;
        phase.setup_s.push(setup_s);
        phase.peak_rss_mb.push(peak_rss_mb());
        phase.tx_bytes = server.tx_bytes.load(Ordering::Relaxed) - tx_before;
        phase.pool.push(server.stop()? as f64);
        total.merge(phase);
    }
    Ok(total)
}

/// Runs `serve-small`.
pub fn run(opts: &Opts) -> Result<Report, String> {
    let cycle = Cycle::new(opts);
    let seconds = if opts.trace {
        opts.seconds / 2.0
    } else {
        opts.seconds
    };
    let phase = serve(&WorkerKind::Program, &cycle, seconds)?;
    let pool = median(&phase.pool);
    eprintln!(
        "perfbench: serve-small served {} cycles of {} submissions; resident pool at each cycle's end: {:?} transitions",
        phase.cycles,
        cycle.slices.len(),
        phase.pool
    );

    let mut report = Report::default();
    if !opts.trace {
        report.attempted = phase.attempted;
        report.failed = phase.failed;
        report.correct = phase.failed == 0 && phase.attempted > 0;
        report.push("setup_s", median(&phase.setup_s), "s");
        report.push(
            "sim_req_per_s",
            phase.completions as f64 / secs(phase.wall),
            "1/s",
        );
        report.push("peak_rss_mb", median(&phase.peak_rss_mb), "MiB");
        report.push("ok_pct", ok_pct(&report), "%");
        report.push("submit_ms_p50", median(&phase.submit_ms), "ms");
        report.push("submit_ms_p90", quantile(&phase.submit_ms, 0.9), "ms");
        report.push(
            "first_outcome_ms_p50",
            median(&phase.first_outcome_ms),
            "ms",
        );
        push_sim_metrics(&mut report, &cycle.anchor, &cycle.anchor);
        return Ok(report);
    }
    traced(opts, &cycle, phase, pool, report)
}

/// The traced half of a `--trace 1` run: the same cycles on traced
/// workers, with the layer budget over the worker lanes.
fn traced(
    opts: &Opts,
    cycle: &Cycle,
    untraced: Phase,
    pool: f64,
    mut report: Report,
) -> Result<Report, String> {
    let probe = Arc::new(Probe {
        lanes: (0..lanes()).map(|_| Mutex::default()).collect(),
    });
    // The pool's per-job dispatch latency is a debug event; record
    // those for this phase only. Scenarios run only inside cycles, so
    // the program's stage timers over the phase are the cycles'.
    let level = firm_obs::level();
    firm_obs::drain_events();
    firm_obs::set_level(Some(Level::Debug));
    let stages = Stages::now();
    let phase = serve(&WorkerKind::Traced(probe), cycle, opts.seconds / 2.0);
    let stages = Stages::now().since(stages);
    let (events, _) = firm_obs::drain_events();
    firm_obs::set_level(level);
    let phase = phase?;

    // Per-slot dispatch latencies, in completion order, paired with the
    // same slot's scenario walls.
    let mut dispatch_ms: Vec<Vec<f64>> = vec![Vec::new(); phase.lanes.len()];
    for e in events.iter().filter(|e| e.message == "scenario completed") {
        let field = |key| e.fields.iter().find(|(k, _)| *k == key).map(|(_, v)| v);
        if let (Some(FieldValue::U64(slot)), Some(FieldValue::U64(us))) =
            (field("slot"), field("latency_us"))
        {
            if let Some(list) = dispatch_ms.get_mut(*slot as usize) {
                list.push(*us as f64 / 1e3);
            }
        }
    }
    let mut overhead_ms = Vec::new();
    let mut budget = Budget {
        lanes: phase.lanes.len(),
        wall: phase.wall,
        stages,
        ..Budget::default()
    };
    let mut decode_us = Vec::new();
    let mut encode_us = Vec::new();
    for (lane, dispatched) in phase.lanes.into_iter().zip(&dispatch_ms) {
        overhead_ms.extend(
            dispatched
                .iter()
                .zip(&lane.layers.scenario_ms)
                .map(|(d, s)| d - s),
        );
        budget.idle += lane.idle;
        budget.wire += lane.wire;
        budget.layers.merge(lane.layers);
        decode_us.extend(lane.decode_us);
        encode_us.extend(lane.encode_us);
    }

    report.attempted = untraced.attempted + phase.attempted;
    report.failed = untraced.failed + phase.failed;
    report.correct = report.failed == 0 && phase.attempted > 0;
    budget.push(&mut report, phase.cycles);
    report.push("wire.encode_us", median(&encode_us), "us");
    report.push("wire.decode_us", median(&decode_us), "us");
    report.push(
        "wire.tx_bytes",
        phase.tx_bytes as f64 / phase.attempted.max(1) as f64,
        "B/submission",
    );
    report.push("dispatch.overhead_ms_p50", median(&overhead_ms), "ms");
    report.push("serve.fold_ms_p50", median(&phase.fold_ms), "ms");
    report.push("serve.pool_transitions", pool, "count");
    report.push(
        "trace.overhead_pct",
        100.0 * (median(&phase.submit_ms) / median(&untraced.submit_ms) - 1.0),
        "%",
    );
    Ok(report)
}
