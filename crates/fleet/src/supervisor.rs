//! Worker-pool supervision: liveness, restart-and-replay, and
//! idle-queue dispatch over any [`Transport`] — packaged two ways: the
//! batch [`supervise`] call and the resident [`WorkerPool`].
//!
//! The pool owns the part of a distributed fleet that the happy path
//! never sees:
//!
//! * **Idle-queue dispatch** — jobs live in one work queue and go to
//!   whichever worker is idle (distributed-JIQ style), one outstanding
//!   job per worker, instead of a static round-robin partition. A slow
//!   tenant therefore delays only itself; the rest of the pool drains
//!   the queue around it.
//! * **Liveness** — a per-request timeout catches wedged workers, an
//!   EOF/error on a worker's stream catches crashed ones immediately,
//!   and prolonged heartbeat silence catches the silent kind (peer
//!   alive at the TCP level but frozen).
//! * **Restart-and-replay** — a failed worker's in-flight job goes back
//!   to the *front* of the queue and is re-dispatched to a healthy
//!   worker, excluding every worker that already failed it (so a
//!   poisonous scenario cannot ping-pong onto the same machine). The
//!   slot itself is reconnected through its transport — a respawned
//!   subprocess or a fresh TCP session — and rejoins the pool; if the
//!   reconnect fails the slot is retired and the survivors absorb its
//!   share.
//!
//! # Batch vs resident
//!
//! [`supervise`] is the batch shape: run one catalog, return results in
//! catalog order, panic on anything unrecoverable (a batch report
//! missing a scenario would silently break the determinism contract).
//! It is a thin wrapper over [`WorkerPool`], the resident shape that
//! `firm-fleet serve` runs for days: jobs are [`PoolJob`]s submitted at
//! any time from any thread, each completion (or unrecoverable failure)
//! is delivered as a [`JobDone`] on the job's own reply channel, and a
//! failure fails *that job*, never the pool — the fleet keeps serving
//! every other submission.
//!
//! # Why failures cannot move the report
//!
//! A re-dispatched request is byte-identical to the original: the job
//! carries its seed from submission time (derived once from
//! `(fleet seed, catalog index)` by the caller), and
//! [`crate::exec::run_one_with`] is a pure function of `(scenario,
//! seed, policy)`. Which worker runs a job, how many times it was
//! attempted, and when its response arrives are all invisible to
//! aggregation, which consumes results keyed by index. Supervision is
//! timing-dependent; the results are not.

use std::collections::{HashMap, HashSet, VecDeque};
use std::io::Write;
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use firm_core::controller::PolicyCheckpoint;
use firm_core::manager::ExperienceLog;
use firm_obs::{Counter, Gauge, Histogram, Level, MetricsSnapshot};

use crate::ops::WorkerOps;
use crate::protocol::{WorkerHello, WorkerMessage, WorkerRequest, PROTOCOL_VERSION};
use crate::report::ScenarioOutcome;
use crate::runner::scenario_seed;
use crate::scenario::Scenario;
use crate::transport::Transport;

/// Event target for everything the coordinator side emits.
const TARGET: &str = "fleet supervisor";

/// Supervision knobs, derived from [`crate::runner::FleetConfig`].
#[derive(Debug, Clone)]
pub struct SupervisorConfig {
    /// Wall-clock budget for one job on one worker; a worker that
    /// holds a job longer is presumed wedged, killed, and replaced.
    /// `None` disables the timeout (crash detection still applies).
    pub request_timeout: Option<Duration>,
    /// How many workers may fail one job before the pool gives up on
    /// it. A batch [`supervise`] then panics (a report missing a
    /// scenario would silently break the determinism contract); a
    /// resident pool delivers the failure on the job's reply channel
    /// and keeps serving everything else.
    pub max_attempts: usize,
    /// Intra-scenario stage fan-out shipped on every request frame
    /// ([`WorkerRequest::intra_shards`]); 1 keeps workers sequential.
    /// A latency knob only — responses are bit-identical at any value.
    pub intra_shards: usize,
}

impl Default for SupervisorConfig {
    fn default() -> Self {
        SupervisorConfig {
            request_timeout: Some(Duration::from_secs(300)),
            max_attempts: 3,
            intra_shards: 1,
        }
    }
}

/// One unit of work submitted to a [`WorkerPool`].
pub struct PoolJob {
    /// The job's index as the submitter knows it — echoed through the
    /// wire protocol ([`WorkerRequest::index`]) and back in
    /// [`JobDone::index`]. For a batch run this is the catalog index;
    /// a resident service uses submission-global indices so seeds stay
    /// continuous across submissions.
    pub index: u64,
    /// The derived per-scenario seed (the submitter owns derivation —
    /// typically [`scenario_seed`]`(fleet_seed, index)`).
    pub seed: u64,
    /// The scenario to run, as plain data.
    pub scenario: Scenario,
    /// A frozen policy to deploy (inference mode); `None` trains fresh.
    /// Shared so a catalog-wide deployment clones an `Arc`, not the
    /// weights; the pool ships the actual bytes to each worker
    /// connection at most once (see the per-connection policy cache).
    pub policy: Option<Arc<PolicyCheckpoint>>,
    /// Where the result goes. Every submitted job gets exactly one
    /// [`JobDone`] delivery — completion or unrecoverable failure — and
    /// a closed receiver just discards the delivery (the pool never
    /// fails because a submitter went away).
    pub reply: mpsc::Sender<JobDone>,
}

/// The terminal delivery for one [`PoolJob`].
pub struct JobDone {
    /// Echo of [`PoolJob::index`].
    pub index: u64,
    /// The scenario's deterministic results, or why the pool gave up on
    /// this job (attempts exhausted, every worker gone). Failures are
    /// per-job: the pool itself stays alive and keeps serving.
    pub result: Result<(ScenarioOutcome, ExperienceLog), String>,
}

/// Runs the scenarios at the catalog `indices` over a pool of
/// transport-backed workers and returns their `(outcome, experience)` in
/// the order of `indices` — the supervised equivalent of the in-process
/// thread path, bit-identical to it — plus each
/// worker's session-end metrics snapshot (labeled `slot<N>:<transport>`,
/// missing for workers that died before a graceful session end). The
/// snapshots are pure diagnostics: they ride a separate frame and never
/// touch the results.
///
/// # Panics
///
/// Panics when the fleet cannot finish exactly: an initial connection
/// fails, a scenario exhausts [`SupervisorConfig::max_attempts`], or
/// every worker dies. Also panics if an index is out of range or
/// repeated. (The resident [`WorkerPool`] underneath reports
/// these as per-job [`JobDone`] failures; the batch shape has no
/// partial result worth salvaging, so it panics.)
pub fn supervise(
    transports: Vec<Box<dyn Transport>>,
    scenarios: &[Scenario],
    indices: &[usize],
    fleet_seed: u64,
    policy: Option<&PolicyCheckpoint>,
    config: &SupervisorConfig,
) -> (Vec<(ScenarioOutcome, ExperienceLog)>, Vec<WorkerOps>) {
    assert!(
        !transports.is_empty(),
        "supervisor needs at least one worker"
    );
    let pool = WorkerPool::start(transports, config.clone()).unwrap_or_else(|e| panic!("{e}"));
    let policy = policy.map(|p| Arc::new(p.clone()));
    let (reply_tx, reply_rx) = mpsc::channel();
    for &i in indices {
        pool.submit(PoolJob {
            index: i as u64,
            seed: scenario_seed(fleet_seed, i),
            scenario: scenarios[i].clone(),
            policy: policy.clone(),
            reply: reply_tx.clone(),
        });
    }
    drop(reply_tx);

    // Keyed by catalog index, the index each job carries on the wire.
    let mut results: Vec<Option<(ScenarioOutcome, ExperienceLog)>> =
        (0..scenarios.len()).map(|_| None).collect();
    for _ in 0..indices.len() {
        let done = reply_rx
            .recv()
            .expect("the pool delivers every submitted job");
        match done.result {
            Ok(r) => {
                let cell = &mut results[done.index as usize];
                assert!(cell.is_none(), "job {} completed twice", done.index);
                *cell = Some(r);
            }
            Err(e) => panic!("{e}"),
        }
    }
    let worker_ops = pool.shutdown();
    let results = indices
        .iter()
        .map(|&i| results[i].take().expect("every scenario ran"))
        .collect();
    (results, worker_ops)
}

/// A resident, supervised worker pool: submit [`PoolJob`]s from any
/// thread at any time, get [`JobDone`] deliveries on each job's reply
/// channel as workers finish. Dispatch, liveness, and
/// restart-and-replay behave exactly as in the batch [`supervise`]
/// shape (it *is* this pool underneath) — the difference is lifecycle:
/// the pool outlives any one catalog, failures are delivered instead of
/// thrown, and [`WorkerPool::shutdown`] ends it gracefully, collecting
/// the workers' session-end metrics.
pub struct WorkerPool {
    msgs: mpsc::Sender<PoolMsg>,
    thread: Mutex<Option<JoinHandle<()>>>,
}

impl WorkerPool {
    /// Connects every transport and starts the pool's coordinator
    /// thread. Initial connections fail loudly — a pool that silently
    /// starts with fewer workers than configured hides deployment
    /// typos — so the first connect error aborts the start.
    pub fn start(
        transports: Vec<Box<dyn Transport>>,
        config: SupervisorConfig,
    ) -> Result<WorkerPool, String> {
        if transports.is_empty() {
            return Err("worker pool needs at least one worker".to_string());
        }
        let (msgs_tx, msgs_rx) = mpsc::channel();
        let (ready_tx, ready_rx) = mpsc::channel();
        let runtime_tx = msgs_tx.clone();
        let thread = std::thread::Builder::new()
            .name("firm-fleet-pool".to_string())
            .spawn(move || {
                let mut runtime = PoolRuntime::new(transports, config, runtime_tx, msgs_rx);
                let connected = runtime.connect_all();
                let ok = connected.is_ok();
                let _ = ready_tx.send(connected);
                if ok {
                    runtime.run();
                }
            })
            .map_err(|e| format!("spawn pool thread: {e}"))?;
        match ready_rx.recv() {
            Ok(Ok(())) => Ok(WorkerPool {
                msgs: msgs_tx,
                thread: Mutex::new(Some(thread)),
            }),
            Ok(Err(e)) => {
                let _ = thread.join();
                Err(e)
            }
            Err(_) => Err("worker pool thread died during startup".to_string()),
        }
    }

    /// Enqueues one job. The pool delivers exactly one [`JobDone`] for
    /// it — immediately, as a failure, if the pool has already lost
    /// every worker.
    pub fn submit(&self, job: PoolJob) {
        if let Err(mpsc::SendError(PoolMsg::Cmd(Command::Submit(job)))) =
            self.msgs.send(PoolMsg::Cmd(Command::Submit(Box::new(job))))
        {
            // The pool thread is gone (shutdown raced or it panicked);
            // honor the one-delivery contract from here.
            let _ = job.reply.send(JobDone {
                index: job.index,
                result: Err("worker pool is shut down".to_string()),
            });
        }
    }

    /// Gracefully shuts the pool down: waits for every in-flight and
    /// queued job to be delivered, tears each worker session down (EOF,
    /// then a clean exit check), and returns the workers' session-end
    /// metrics snapshots.
    ///
    /// # Panics
    ///
    /// Panics if the pool thread itself panicked (a worker that
    /// completed all its work and then failed its exit check, or a
    /// coordinator bug) — resumed so the original message surfaces.
    pub fn shutdown(&self) -> Vec<WorkerOps> {
        let (done_tx, done_rx) = mpsc::channel();
        if self
            .msgs
            .send(PoolMsg::Cmd(Command::Shutdown { done: done_tx }))
            .is_err()
        {
            // Already down (double shutdown): nothing to collect.
            return Vec::new();
        }
        let ops = done_rx.recv();
        let thread = self.thread.lock().expect("pool thread lock").take();
        match ops {
            Ok(ops) => {
                if let Some(t) = thread {
                    let _ = t.join();
                }
                ops
            }
            Err(_) => {
                // The thread died before answering; surface its panic.
                if let Some(t) = thread {
                    if let Err(payload) = t.join() {
                        std::panic::resume_unwind(payload);
                    }
                }
                panic!("worker pool thread exited without completing shutdown");
            }
        }
    }
}

/// Everything the coordinator thread can receive, multiplexed onto one
/// channel so worker events and caller commands share a single blocking
/// wait with the liveness deadlines.
enum PoolMsg {
    Worker(Event),
    Cmd(Command),
}

enum Command {
    /// Boxed: a job carries a whole [`Scenario`] and would otherwise
    /// dominate the channel message size.
    Submit(Box<PoolJob>),
    Shutdown {
        done: mpsc::Sender<Vec<WorkerOps>>,
    },
}

/// The coordinator's own runtime metrics, resolved once per pool (the
/// reader threads clone the `Arc` handles they touch per frame).
struct CoordMetrics {
    dispatch_total: Arc<Counter>,
    dispatch_latency: Arc<Histogram>,
    queue_depth: Arc<Gauge>,
    heartbeat_gap: Arc<Histogram>,
    frames_tx: Arc<Counter>,
    bytes_tx: Arc<Counter>,
    frames_rx: Arc<Counter>,
    bytes_rx: Arc<Counter>,
    bad_frames: Arc<Counter>,
    retries: Arc<Counter>,
    recycled: Arc<Counter>,
    restarts: Arc<Counter>,
    retired: Arc<Counter>,
}

impl CoordMetrics {
    fn new() -> Self {
        let m = firm_obs::metrics();
        CoordMetrics {
            dispatch_total: m.counter("fleet.dispatch.total"),
            dispatch_latency: m.histogram("fleet.dispatch.latency_us"),
            queue_depth: m.gauge("fleet.queue.depth"),
            heartbeat_gap: m.histogram("fleet.heartbeat.gap_us"),
            frames_tx: m.counter("fleet.frames.tx"),
            bytes_tx: m.counter("fleet.bytes.tx"),
            frames_rx: m.counter("fleet.frames.rx"),
            bytes_rx: m.counter("fleet.bytes.rx"),
            bad_frames: m.counter("fleet.bad_frames"),
            retries: m.counter("fleet.retry.attempts"),
            recycled: m.counter("fleet.worker.recycled"),
            restarts: m.counter("fleet.worker.restarts"),
            retired: m.counter("fleet.worker.retired"),
        }
    }
}

/// One worker→coordinator notification, tagged with the connection
/// generation so frames from a connection the pool already killed are
/// recognizably stale.
struct Event {
    slot: usize,
    generation: u64,
    kind: EventKind,
}

enum EventKind {
    Frame(WorkerMessage),
    /// The frame did not parse/decode — worker bug or version skew.
    BadFrame(String),
    /// The stream ended (EOF or read error).
    Closed,
}

/// The live half of a slot: one open connection plus its pump threads.
struct Live {
    /// Frames queued here are written by a dedicated thread, so a
    /// worker that stops reading can never block the coordinator loop.
    frames: mpsc::Sender<String>,
    writer: JoinHandle<()>,
    reader: JoinHandle<()>,
    control: Box<dyn crate::transport::ConnectionControl>,
    generation: u64,
    hello: Option<WorkerHello>,
    /// When the last frame (of any kind) arrived — heartbeat silence is
    /// measured from here.
    last_frame: Instant,
}

enum SlotState {
    Idle,
    Busy {
        /// Pool-internal job id (key into `PoolRuntime::jobs`).
        job: u64,
        dispatched: Instant,
    },
    /// Reconnect failed; the slot is out of the pool for good.
    Retired,
}

struct Slot {
    transport: Box<dyn Transport>,
    live: Option<Live>,
    state: SlotState,
    /// Digest of the policy checkpoint this connection has cached
    /// (shipped by an earlier frame), or `None` if the connection holds
    /// no policy. Lets a deployment pass ship the weights once per
    /// connection and `reuse_policy` afterwards — and lets a resident
    /// pool interleave jobs carrying *different* policies correctly.
    wire_policy: Option<u64>,
    /// Next connection generation for this slot.
    next_generation: u64,
}

struct JobEntry {
    job: PoolJob,
    attempts: usize,
    /// Slots that already failed this job — never hand it back to them.
    excluded: HashSet<usize>,
}

struct PoolRuntime {
    config: SupervisorConfig,
    slots: Vec<Slot>,
    msgs_tx: mpsc::Sender<PoolMsg>,
    msgs_rx: mpsc::Receiver<PoolMsg>,
    /// Queued job ids, oldest first (replays go to the *front*).
    queue: VecDeque<u64>,
    jobs: HashMap<u64, JobEntry>,
    next_job: u64,
    obs: CoordMetrics,
    /// Each slot's session-end metrics frame, when one arrived.
    worker_metrics: Vec<Option<MetricsSnapshot>>,
    /// The generation of each slot's most recently torn-down
    /// connection — metrics frames that surface during teardown (after
    /// the main loop stopped reading) are accepted only from it.
    final_generation: Vec<Option<u64>>,
    /// Set once a shutdown command arrives; the pool drains all work,
    /// then tears down and answers on this channel.
    shutdown: Option<mpsc::Sender<Vec<WorkerOps>>>,
}

impl PoolRuntime {
    fn new(
        transports: Vec<Box<dyn Transport>>,
        config: SupervisorConfig,
        msgs_tx: mpsc::Sender<PoolMsg>,
        msgs_rx: mpsc::Receiver<PoolMsg>,
    ) -> Self {
        let slots: Vec<Slot> = transports
            .into_iter()
            .map(|transport| Slot {
                transport,
                live: None,
                state: SlotState::Idle,
                wire_policy: None,
                next_generation: 0,
            })
            .collect();
        let worker_metrics = (0..slots.len()).map(|_| None).collect();
        let final_generation = vec![None; slots.len()];
        PoolRuntime {
            config,
            slots,
            msgs_tx,
            msgs_rx,
            queue: VecDeque::new(),
            jobs: HashMap::new(),
            next_job: 0,
            obs: CoordMetrics::new(),
            worker_metrics,
            final_generation,
            shutdown: None,
        }
    }

    /// Initial connections, all-or-nothing.
    fn connect_all(&mut self) -> Result<(), String> {
        for i in 0..self.slots.len() {
            self.connect_slot(i)
                .map_err(|e| format!("connect {}: {e}", self.slots[i].transport.label()))?;
        }
        Ok(())
    }

    /// The resident loop: dispatch, watch liveness, handle events and
    /// commands, until a shutdown command arrives and the last job is
    /// delivered.
    fn run(mut self) {
        loop {
            self.dispatch();
            self.fail_unrunnable();
            if self.shutdown.is_some() && self.jobs.is_empty() {
                break;
            }
            match self.wait_for_msg() {
                Some(PoolMsg::Worker(event)) => self.handle_event(event),
                Some(PoolMsg::Cmd(Command::Submit(job))) => self.enqueue(*job),
                Some(PoolMsg::Cmd(Command::Shutdown { done })) => {
                    firm_obs::event(Level::Info, TARGET)
                        .msg("pool shutdown requested")
                        .field("queued", self.queue.len())
                        .field("in_flight", self.jobs.len() - self.queue.len())
                        .emit();
                    self.shutdown = Some(done);
                }
                None => self.reap_expired(),
            }
        }
        self.finish_shutdown();
    }

    fn enqueue(&mut self, job: PoolJob) {
        if self.all_retired() {
            let _ = job.reply.send(JobDone {
                index: job.index,
                result: Err(format!(
                    "job {} has no eligible worker: every worker in the pool \
                     died and could not be restarted",
                    job.index
                )),
            });
            return;
        }
        let id = self.next_job;
        self.next_job += 1;
        self.jobs.insert(
            id,
            JobEntry {
                job,
                attempts: 0,
                excluded: HashSet::new(),
            },
        );
        self.queue.push_back(id);
    }

    fn all_retired(&self) -> bool {
        self.slots
            .iter()
            .all(|s| matches!(s.state, SlotState::Retired))
    }

    /// Fails every queued job once no worker can ever run it. With the
    /// dispatch eligibility rule (a job excluded from every live slot
    /// may still go to any of them), the only unrunnable state is a
    /// fully retired pool.
    fn fail_unrunnable(&mut self) {
        if !self.all_retired() {
            return;
        }
        let retired = self.slots.len();
        while let Some(id) = self.queue.pop_front() {
            let Some(entry) = self.jobs.remove(&id) else {
                continue;
            };
            let _ = entry.job.reply.send(JobDone {
                index: entry.job.index,
                result: Err(format!(
                    "fleet cannot make progress: job {} has no eligible worker \
                     ({retired} of {retired} slots retired) — every worker died \
                     or already failed it",
                    entry.job.index
                )),
            });
        }
        self.obs.queue_depth.set(0);
    }

    /// Hands queued jobs to idle workers — the idle queue is consulted
    /// per job, so whichever worker freed up first takes the next one
    /// (no static partition to go stale when a worker dies).
    fn dispatch(&mut self) {
        let live: HashSet<usize> = self
            .slots
            .iter()
            .enumerate()
            .filter(|(_, s)| s.live.is_some() && !matches!(s.state, SlotState::Retired))
            .map(|(i, _)| i)
            .collect();
        for slot_id in 0..self.slots.len() {
            if !matches!(self.slots[slot_id].state, SlotState::Idle)
                || self.slots[slot_id].live.is_none()
            {
                continue;
            }
            // First queued job this slot is allowed to run: one it has
            // not failed — or, when every live slot has failed it (a
            // one-worker pool restarting, say), any job at all; the
            // attempts cap still bounds a genuinely poisonous scenario.
            let Some(pos) = self.queue.iter().position(|id| {
                let excluded = &self.jobs[id].excluded;
                !excluded.contains(&slot_id) || live.iter().all(|s| excluded.contains(s))
            }) else {
                continue;
            };
            let id = self.queue.remove(pos).expect("position came from iter");
            if self.send_job(slot_id, id).is_err() {
                // The writer was already gone; put the job back and
                // recycle the slot (the job is not charged an attempt —
                // it never reached a worker).
                self.queue.push_front(id);
                self.recycle(slot_id, "write channel closed");
            } else {
                self.obs.dispatch_total.inc();
                let entry = &self.jobs[&id];
                firm_obs::event(Level::Debug, TARGET)
                    .msg("dispatched scenario")
                    .field("index", entry.job.index)
                    .field("scenario", entry.job.scenario.name.as_str())
                    .field("slot", slot_id)
                    .field("transport", self.slots[slot_id].transport.label())
                    .field("attempt", entry.attempts + 1)
                    .emit();
            }
        }
        self.obs.queue_depth.set(self.queue.len() as i64);
    }

    /// Ships one request frame; the per-connection policy bookkeeping
    /// (full weights the first time a connection sees a given
    /// checkpoint, `reuse_policy` afterwards) lives here.
    fn send_job(&mut self, slot_id: usize, id: u64) -> Result<(), ()> {
        let entry = &self.jobs[&id];
        let slot_cached = self.slots[slot_id].wire_policy;
        let (policy, reuse_policy, new_cache) = match &entry.job.policy {
            None => (None, false, None),
            Some(p) => {
                let digest = p.digest();
                if slot_cached == Some(digest) {
                    (None, true, Some(digest))
                } else {
                    (Some((**p).clone()), false, Some(digest))
                }
            }
        };
        let frame = firm_wire::encode_line(&WorkerRequest {
            index: entry.job.index,
            seed: entry.job.seed,
            scenario: entry.job.scenario.clone(),
            policy,
            reuse_policy,
            intra_shards: self.config.intra_shards.max(1) as u64,
        });
        let slot = &mut self.slots[slot_id];
        let live = slot.live.as_ref().expect("dispatch checked live");
        let frame_len = frame.len() as u64;
        if live.frames.send(frame).is_err() {
            return Err(());
        }
        self.obs.frames_tx.inc();
        self.obs.bytes_tx.add(frame_len);
        // The worker mirrors this bookkeeping: a no-policy frame clears
        // its cache, a policy-carrying frame replaces it.
        slot.wire_policy = new_cache;
        slot.state = SlotState::Busy {
            job: id,
            dispatched: Instant::now(),
        };
        Ok(())
    }

    /// Blocks until the next message or the earliest liveness deadline.
    /// `None` means a deadline may have expired.
    fn wait_for_msg(&self) -> Option<PoolMsg> {
        let now = Instant::now();
        let deadline = self.nearest_deadline();
        let wait = match deadline {
            Some(d) if d <= now => return self.msgs_rx.try_recv().ok(),
            Some(d) => d - now,
            // No deadline pending; wake periodically anyway so a logic
            // bug degrades to latency, not a hang.
            None => Duration::from_secs(5),
        };
        self.msgs_rx.recv_timeout(wait).ok()
    }

    /// The earliest instant at which some busy worker must be presumed
    /// dead: its per-request deadline, or prolonged silence on the
    /// stream. Before the hello arrives the silence window uses the
    /// default heartbeat interval — a connected-but-frozen peer that
    /// never handshakes must not hang the fleet, even with the request
    /// timeout disabled. After the hello, a worker that advertised
    /// `heartbeat_ms: 0` opted out of silence detection.
    fn nearest_deadline(&self) -> Option<Instant> {
        self.slots
            .iter()
            .filter_map(|slot| {
                let SlotState::Busy { dispatched, .. } = slot.state else {
                    return None;
                };
                let live = slot.live.as_ref()?;
                let request = self.config.request_timeout.map(|t| dispatched + t);
                let quiet = quiet_deadline(live);
                match (request, quiet) {
                    (Some(a), Some(b)) => Some(a.min(b)),
                    (a, b) => a.or(b),
                }
            })
            .min()
    }

    /// Kills and recycles every busy worker whose deadline has passed.
    fn reap_expired(&mut self) {
        let now = Instant::now();
        for slot_id in 0..self.slots.len() {
            let slot = &self.slots[slot_id];
            let SlotState::Busy { job, dispatched } = slot.state else {
                continue;
            };
            let Some(live) = slot.live.as_ref() else {
                continue;
            };
            let index = self.jobs.get(&job).map(|e| e.job.index).unwrap_or(job);
            let timed_out = self
                .config
                .request_timeout
                .is_some_and(|t| now >= dispatched + t);
            let silent = quiet_deadline(live).is_some_and(|d| now >= d);
            if timed_out {
                self.recycle(
                    slot_id,
                    &format!(
                        "job {index} exceeded the per-request timeout \
                         ({:?}) — presumed wedged",
                        self.config.request_timeout.expect("checked")
                    ),
                );
            } else if silent {
                self.recycle(
                    slot_id,
                    &format!("no frames while running job {index} — presumed dead"),
                );
            }
        }
    }

    fn handle_event(&mut self, event: Event) {
        let slot = &mut self.slots[event.slot];
        // Stale: from a connection this pool already killed.
        let current = slot
            .live
            .as_ref()
            .is_some_and(|l| l.generation == event.generation);
        if !current {
            return;
        }
        if let Some(live) = slot.live.as_mut() {
            // The inter-frame gap on a live connection — heartbeats
            // dominate, so this is the heartbeat-gap distribution the
            // silence detector's assumptions can be checked against.
            self.obs
                .heartbeat_gap
                .record(live.last_frame.elapsed().as_micros() as u64);
            live.last_frame = Instant::now();
        }
        match event.kind {
            EventKind::Frame(WorkerMessage::Hello(hello)) => {
                assert_eq!(
                    hello.protocol,
                    PROTOCOL_VERSION,
                    "{} speaks fleet protocol v{}, this coordinator speaks v{} \
                     — upgrade the older side",
                    slot.transport.label(),
                    hello.protocol,
                    PROTOCOL_VERSION,
                );
                firm_obs::event(Level::Debug, TARGET)
                    .msg("worker handshake")
                    .field("slot", event.slot)
                    .field("transport", slot.transport.label())
                    .field("generation", event.generation)
                    .field("pid", hello.pid)
                    .field("heartbeat_ms", hello.heartbeat_ms)
                    .emit();
                if let Some(live) = slot.live.as_mut() {
                    live.hello = Some(hello);
                }
            }
            EventKind::Frame(WorkerMessage::Heartbeat(_)) => {
                // last_frame already refreshed above; nothing else to do.
            }
            EventKind::Frame(WorkerMessage::Response(resp)) => {
                let SlotState::Busy { job, dispatched } = slot.state else {
                    // A worker inventing results is a worker bug; in a
                    // resident pool it costs that worker its session,
                    // never the fleet.
                    let reason =
                        format!("sent a response (index {}) while it had no job", resp.index);
                    self.recycle(event.slot, &reason);
                    return;
                };
                let expected = self.jobs.get(&job).map(|e| e.job.index);
                if expected != Some(resp.index) {
                    let reason = format!(
                        "answered index {} for a dispatch of job index {:?}",
                        resp.index, expected
                    );
                    self.recycle(event.slot, &reason);
                    return;
                }
                let latency_us = dispatched.elapsed().as_micros() as u64;
                self.obs.dispatch_latency.record(latency_us);
                firm_obs::event(Level::Debug, TARGET)
                    .msg("scenario completed")
                    .field("index", resp.index)
                    .field("slot", event.slot)
                    .field("latency_us", latency_us)
                    .emit();
                slot.state = SlotState::Idle;
                let entry = self.jobs.remove(&job).expect("checked above");
                let _ = entry.job.reply.send(JobDone {
                    index: resp.index,
                    result: Ok((resp.outcome, resp.experience)),
                });
            }
            EventKind::Frame(WorkerMessage::Metrics(m)) => {
                // Normally the session-end frame (collected in the
                // post-shutdown drain), but a worker is free to ship a
                // snapshot mid-session too; latest wins.
                self.worker_metrics[event.slot] = Some(m);
            }
            EventKind::BadFrame(msg) => {
                self.obs.bad_frames.inc();
                self.recycle(event.slot, &format!("sent an undecodable frame: {msg}"));
            }
            EventKind::Closed => {
                self.recycle(event.slot, "connection closed unexpectedly");
            }
        }
    }

    /// The restart-and-replay path: tear down a failed worker's
    /// connection, requeue its in-flight job (excluding this slot from
    /// re-running it), and reconnect the slot — or retire it if the
    /// reconnect fails. A job that has exhausted its attempts budget is
    /// delivered as a failure instead of requeued; the pool lives on.
    fn recycle(&mut self, slot_id: usize, reason: &str) {
        let label = self.slots[slot_id].transport.label();
        let generation = self.slots[slot_id]
            .live
            .as_ref()
            .map(|l| l.generation)
            .unwrap_or(0);
        // The attempt count *including* this failure, so a stale-frame
        // drop or give-up that follows is attributable from the event
        // stream alone.
        let attempts = match self.slots[slot_id].state {
            SlotState::Busy { job, .. } => self.jobs.get(&job).map(|e| e.attempts + 1).unwrap_or(0),
            _ => 0,
        };
        self.obs.recycled.inc();
        firm_obs::event(Level::Warn, TARGET)
            .msg("recycling worker")
            .field("transport", label.as_str())
            .field("generation", generation)
            .field("attempts", attempts)
            .field("reason", reason)
            .emit();
        self.teardown_live(slot_id, false);

        if let SlotState::Busy { job, .. } = self.slots[slot_id].state {
            if let Some(entry) = self.jobs.get_mut(&job) {
                entry.attempts += 1;
                entry.excluded.insert(slot_id);
                self.obs.retries.inc();
                if entry.attempts >= self.config.max_attempts {
                    let entry = self.jobs.remove(&job).expect("present above");
                    let _ = entry.job.reply.send(JobDone {
                        index: entry.job.index,
                        result: Err(format!(
                            "scenario {} ({}) failed on {} different workers — giving up \
                             rather than emit a partial fleet report",
                            entry.job.index, entry.job.scenario.name, entry.attempts,
                        )),
                    });
                } else {
                    // Front of the queue: a replayed job is the oldest
                    // outstanding work, so it goes next.
                    self.queue.push_front(job);
                }
            }
        }
        self.slots[slot_id].state = SlotState::Idle;

        match self.connect_slot(slot_id) {
            Ok(()) => {
                self.obs.restarts.inc();
                firm_obs::event(Level::Info, TARGET)
                    .msg("worker restarted")
                    .field("transport", label.as_str())
                    .field(
                        "generation",
                        self.slots[slot_id]
                            .live
                            .as_ref()
                            .map(|l| l.generation)
                            .unwrap_or(0),
                    )
                    .field("attempts", attempts)
                    .emit();
            }
            Err(e) => {
                self.obs.retired.inc();
                firm_obs::event(Level::Error, TARGET)
                    .msg("reconnect failed; retiring worker, survivors absorb its share")
                    .field("transport", label.as_str())
                    .field("generation", generation)
                    .field("error", e.to_string())
                    .emit();
                self.slots[slot_id].state = SlotState::Retired;
            }
        }
    }

    /// Opens a connection for a slot and starts its pump threads.
    fn connect_slot(&mut self, slot_id: usize) -> std::io::Result<()> {
        let slot = &mut self.slots[slot_id];
        let conn = slot.transport.connect()?;
        let generation = slot.next_generation;
        slot.next_generation += 1;

        let (frames_tx, frames_rx) = mpsc::channel::<String>();
        let mut writer_half = conn.writer;
        let writer = std::thread::spawn(move || {
            // Exits when the channel closes (graceful: dropping the
            // sender also drops/EOFs the stream) or a write fails
            // (the reader thread will surface the death as Closed).
            for frame in frames_rx {
                if writer_half
                    .write_all(frame.as_bytes())
                    .and_then(|_| writer_half.flush())
                    .is_err()
                {
                    break;
                }
            }
        });

        let mut reader_half = conn.reader;
        let events = self.msgs_tx.clone();
        let frames_rx_ctr = Arc::clone(&self.obs.frames_rx);
        let bytes_rx_ctr = Arc::clone(&self.obs.bytes_rx);
        let reader = std::thread::spawn(move || {
            let mut line = String::new();
            loop {
                line.clear();
                let kind = match reader_half.read_line(&mut line) {
                    Ok(0) | Err(_) => EventKind::Closed,
                    Ok(_) if line.trim().is_empty() => continue,
                    Ok(n) => {
                        frames_rx_ctr.inc();
                        bytes_rx_ctr.add(n as u64);
                        match firm_wire::decode_line::<WorkerMessage>(&line) {
                            Ok(msg) => EventKind::Frame(msg),
                            Err(e) => EventKind::BadFrame(e.to_string()),
                        }
                    }
                };
                let closed = matches!(kind, EventKind::Closed);
                // The pool hanging up just means the fleet is done.
                let _ = events.send(PoolMsg::Worker(Event {
                    slot: slot_id,
                    generation,
                    kind,
                }));
                if closed {
                    break;
                }
            }
        });

        slot.live = Some(Live {
            frames: frames_tx,
            writer,
            reader,
            control: conn.control,
            generation,
            hello: None,
            last_frame: Instant::now(),
        });
        slot.wire_policy = None;
        Ok(())
    }

    /// Tears down a slot's live connection. `graceful` distinguishes
    /// end-of-fleet (let the worker exit on EOF, check its status) from
    /// failure handling (kill it now).
    fn teardown_live(&mut self, slot_id: usize, graceful: bool) {
        let Some(mut live) = self.slots[slot_id].live.take() else {
            return;
        };
        self.final_generation[slot_id] = Some(live.generation);
        // Closing the frame channel stops the writer thread, which
        // drops the write half — EOF for a healthy worker.
        drop(live.frames);
        if !graceful {
            live.control.kill();
        }
        let _ = live.writer.join();
        let _ = live.reader.join();
        if graceful {
            if let Err(e) = live.control.finish() {
                panic!(
                    "{} failed after completing its work: {e}",
                    self.slots[slot_id].transport.label()
                );
            }
        }
    }

    /// Graceful end-of-pool teardown: EOF every still-live worker,
    /// collect the session-end metrics frames their readers delivered
    /// during teardown, and answer the shutdown command.
    fn finish_shutdown(mut self) {
        for slot_id in 0..self.slots.len() {
            self.teardown_live(slot_id, true);
        }

        // A worker's metrics frame is the last thing it writes, after
        // the graceful teardown EOF'd its input — so it lands in the
        // message queue *after* the main loop stopped reading. Drain
        // now, accepting only frames from each slot's final connection.
        while let Ok(msg) = self.msgs_rx.try_recv() {
            if let PoolMsg::Worker(event) = msg {
                if let EventKind::Frame(WorkerMessage::Metrics(m)) = event.kind {
                    if self.final_generation[event.slot] == Some(event.generation) {
                        self.worker_metrics[event.slot] = Some(m);
                    }
                }
            }
        }
        let worker_ops: Vec<WorkerOps> = self
            .worker_metrics
            .into_iter()
            .enumerate()
            .filter_map(|(i, metrics)| {
                Some(WorkerOps {
                    label: format!("slot{i}:{}", self.slots[i].transport.label()),
                    metrics: metrics?,
                })
            })
            .collect();
        if let Some(done) = self.shutdown.take() {
            let _ = done.send(worker_ops);
        }
    }
}

/// How long heartbeat silence must last before a worker is presumed
/// dead. Generous (20 intervals, floor 10s) because a busy host
/// legitimately starves ticker threads — this path exists for silent
/// network death, not as the primary timeout.
fn quiet_window(heartbeat_ms: u64) -> Duration {
    Duration::from_millis((heartbeat_ms * 20).max(10_000))
}

/// The instant at which this connection's silence becomes fatal, if
/// silence detection applies: before the hello, always (at the default
/// interval — an unresponsive peer that never handshakes must not hang
/// the fleet); after it, only if the worker advertised heartbeats.
fn quiet_deadline(live: &Live) -> Option<Instant> {
    let interval = match &live.hello {
        None => crate::worker::ServeOptions::default().heartbeat_ms,
        Some(h) => h.heartbeat_ms,
    };
    (interval > 0).then(|| live.last_frame + quiet_window(interval))
}
