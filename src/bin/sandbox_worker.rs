//! Dedicated worker host: a binary whose only job is to serve
//! supervised child-process work. The same child serves a sandbox pool
//! (see `ascend_pipeline::SandboxedExecutor`) or a resident cluster
//! shard (see `ascend_pipeline::ClusterService`); the parent's hello
//! says which pipeline it builds.
//!
//! The production binaries self-host workers by re-executing themselves
//! (their `main` calls `run_worker_if_requested` first thing). Test
//! harnesses cannot — the test binary Cargo runs does not own its
//! `main` — so they point `SandboxConfig::worker_cmd` at this binary via
//! `env!("CARGO_BIN_EXE_sandbox_worker")`.

fn main() {
    ascend_pipeline::run_worker_if_requested();
    eprintln!(
        "sandbox_worker only serves supervised jobs; run it under a parent supervisor \
         (a sandbox pool or a cluster) with {}=1",
        ascend_pipeline::WORKER_ENV
    );
    std::process::exit(2);
}
