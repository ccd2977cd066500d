//! `firm-worker` — the fleet worker process, built by the `firm` facade
//! package. It runs the same entry point as `firm-fleet-worker`
//! ([`firm::fleet::worker::main`]); the facade owns a copy so that cargo
//! builds it for the facade's own integration tests, which spawn it as
//! `env!("CARGO_BIN_EXE_firm-worker")`. Two packages of one workspace
//! cannot both own a binary named `firm-fleet-worker`.

fn main() {
    firm::fleet::worker::main()
}
