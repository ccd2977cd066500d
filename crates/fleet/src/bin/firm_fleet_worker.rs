//! `firm-fleet-worker` — the fleet's worker process, for both
//! transports.
//!
//! **stdio mode** (default): serves one coordinator session over
//! stdin/stdout — the [`firm_fleet::transport::PipeTransport`] peer,
//! spawned and supervised by the runner itself. Exits 0 on EOF; exits 2
//! with a spanned error on stderr if a frame is malformed (the
//! supervisor treats that as a worker failure and re-dispatches).
//!
//! **TCP mode** (`--listen addr`): binds `addr` and serves one session
//! per inbound connection, each on its own thread, forever — the
//! [`firm_fleet::transport::TcpTransport`] peer, started once per host
//! by an operator:
//!
//! ```sh
//! FIRM_LOG=debug firm-fleet-worker --listen 0.0.0.0:7401 --obs-out obs.jsonl
//! ```
//!
//! Every session speaks the same protocol regardless of mode: a
//! `hello` handshake frame (protocol version, pid, heartbeat interval),
//! heartbeat frames every `--heartbeat-ms` (default 200, 0 disables),
//! one response frame per request, and a `metrics` frame at session
//! end. The worker is deliberately dumb: no seed derivation, no
//! ordering, no training — `decode → simulate → encode`, which is
//! exactly what makes a distributed fleet bit-identical to the
//! in-process one.
//!
//! Observability: `--log-level` (or the `FIRM_LOG` env var; the flag
//! wins) filters the structured event stream; events at `info` and
//! above render to stderr as human-readable lines. `--obs-out PATH`
//! writes the buffered events plus a final metrics snapshot as
//! firm-wire JSONL on exit (stdio mode) — all of it out-of-band, never
//! touching a result byte.

fn main() {
    firm_fleet::worker::main()
}
