//! # goofi-server — the campaign daemon and its worker processes
//!
//! Three pieces, all speaking the `goofi-net` protocol:
//!
//! * [`Daemon`] — a loopback TCP server exposing any `CampaignService`
//!   to remote clients: submit, status, watch (streamed events), cancel,
//!   jobs, shutdown. Version mismatches are answered with typed errors.
//! * [`ProcessService`] — the daemon's campaign engine. One executor,
//!   two chunk executors: a job runs exactly as a `LocalService` job
//!   does (plan, executor pool, one ordered sink into the shared
//!   database), with `goofi worker` child processes as its chunk
//!   executors instead of in-process targets. The database therefore
//!   matches a single-process run byte for byte. A crashed (or
//!   `kill -9`ed) worker is respawned from the job's budget and its
//!   chunk retried, riding the storage engine's WAL for durability.
//! * [`worker_main`] — the worker-process entry point (frame loop over
//!   stdin/stdout).

#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

mod daemon;
mod process;
mod worker;

pub use daemon::Daemon;
pub use process::{ProcessService, ServerConfig};
pub use worker::{worker_loop, worker_main};
