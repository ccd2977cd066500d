//! The FIRM fleet benchmark: three workloads, each checked against a
//! digest oracle, reporting end-to-end metrics (tracing off) or a
//! per-layer budget that sums to the traced wall (tracing on).
//!
//! * [`batch`] — `batch-sf100` and `roundtrip-firm`, both driven through
//!   [`firm_fleet::FleetRunner`] on in-process threads;
//! * [`serve`] — `serve-small`, one resident [`firm_serve::FleetServer`]
//!   over in-process workers, loaded by closed-loop clients;
//! * [`layers`] — the traced driver: the public calls of
//!   [`firm_fleet::run_one_sharded`] made from this crate, each timed;
//! * [`stats`] — medians, quantiles, peak RSS, and the result line.
//!
//! See `README.md` for why each workload exists and what every metric
//! means.

pub mod batch;
pub mod layers;
pub mod serve;
pub mod stats;

pub use stats::Report;

/// Workload size: `Full` is what the benchmark measures; `Tiny` is a
/// seconds-long shape of the same workload for the crate's own tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The measured configuration.
    Full,
    /// A few short scenarios: same code paths, same checks.
    Tiny,
}

/// One invocation's options.
#[derive(Debug, Clone)]
pub struct Opts {
    /// Workload seed: every input derives from it.
    pub seed: u64,
    /// Host seconds the timed section runs for.
    pub seconds: f64,
    /// `false`: end-to-end metrics; `true`: the traced layer budget.
    pub trace: bool,
    /// Workload size.
    pub size: Size,
}

/// The workload names, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 3] = ["batch-sf100", "roundtrip-firm", "serve-small"];

/// Threads and clients are capped at the host's cores, and at 2: the
/// workloads are defined at two lanes of concurrency.
pub fn lanes() -> usize {
    stats::host_cores().clamp(1, 2)
}

/// Runs one workload.
pub fn run(workload: &str, opts: &Opts) -> Result<Report, String> {
    // Keep stderr for warnings: the resident server logs every
    // submission at info level. Recording (the ring) stays at its
    // default, as it would in production.
    firm_obs::set_stderr_level(Some(firm_obs::Level::Warn));
    match workload {
        "batch-sf100" => batch::run(batch::Kind::Sf100, opts),
        "roundtrip-firm" => batch::run(batch::Kind::RoundTrip, opts),
        "serve-small" => serve::run(opts),
        other => Err(format!(
            "unknown workload `{other}` (expected one of {WORKLOADS:?})"
        )),
    }
}
