//! The typed protocol messages — the single public protocol API.
//!
//! All enums are `#[non_exhaustive]`: adding a message kind is a
//! compatible change (old peers answer unknown requests with a typed
//! [`WireError`]); changing an existing encoding bumps
//! [`crate::PROTOCOL_VERSION`].

use crate::frame::{Frame, FrameKind, NetResult};
use goofi_core::service::{ExecOptions, JobId, JobSpec, JobStatus, ServiceEvent};
use goofi_core::store::ExperimentRecord;
use goofi_core::Campaign;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Client → daemon requests.
#[non_exhaustive]
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Request {
    /// Version negotiation; every connection may open with one.
    Hello {
        /// The client's protocol version.
        version: u16,
    },
    /// Submit a campaign for execution.
    Submit {
        /// The submission.
        spec: JobSpec,
    },
    /// Ask for a job's status.
    Status {
        /// The job.
        job: JobId,
    },
    /// Subscribe to a job's event stream. The response is
    /// [`Response::Watching`], followed by [`Event`] frames.
    Watch {
        /// The job.
        job: JobId,
        /// Replay buffered history first (`watch`) or follow from now
        /// (`attach`).
        from_start: bool,
    },
    /// Stop a running job at the next experiment boundary.
    Cancel {
        /// The job.
        job: JobId,
    },
    /// List all jobs.
    Jobs,
    /// Ask the daemon to shut down once the connection closes.
    Shutdown,
}

/// One row of a [`Response::Jobs`] listing.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobListEntry {
    /// The job id.
    pub job: JobId,
    /// Its status.
    pub status: JobStatus,
}

/// Daemon → client responses, one per request.
#[non_exhaustive]
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Response {
    /// Version accepted; the daemon's own version.
    Hello {
        /// The daemon's protocol version.
        version: u16,
    },
    /// The submission was accepted.
    Submitted {
        /// The assigned job id.
        job: JobId,
    },
    /// Status answer.
    Status {
        /// The job.
        job: JobId,
        /// Its status.
        status: JobStatus,
    },
    /// Subscription accepted; [`Event`] frames follow on this connection.
    Watching {
        /// The job.
        job: JobId,
    },
    /// Cancel answer.
    Cancelled {
        /// The job.
        job: JobId,
        /// Whether the stop command reached a still-running campaign.
        delivered: bool,
    },
    /// Jobs listing.
    Jobs {
        /// All known jobs, in submission order.
        jobs: Vec<JobListEntry>,
    },
    /// The daemon will exit.
    ShuttingDown,
    /// The request failed.
    Error {
        /// Why.
        error: WireError,
    },
}

/// Typed request failures — a version mismatch is an answer, not a
/// decode failure.
#[non_exhaustive]
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum WireError {
    /// The client's protocol version is not this daemon's.
    VersionMismatch {
        /// The client's version.
        got: u16,
        /// The daemon's version.
        want: u16,
    },
    /// The named job does not exist.
    NoSuchJob {
        /// The job id asked for.
        job: String,
    },
    /// The request was understood but refused (unknown campaign,
    /// unknown workload, storage failure...). Carries the service's own
    /// error text.
    Rejected {
        /// The error text.
        message: String,
    },
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::VersionMismatch { got, want } => {
                write!(f, "server speaks protocol v{want}, client sent v{got}")
            }
            WireError::NoSuchJob { job } => write!(f, "no such job `{job}`"),
            WireError::Rejected { message } => f.write_str(message),
        }
    }
}

/// Daemon → client subscription stream items.
#[non_exhaustive]
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Event {
    /// One job event.
    Service {
        /// The event.
        event: ServiceEvent,
    },
    /// The stream is complete; no further events will follow. Lets a
    /// client distinguish a finished stream from a dropped connection.
    EndOfStream,
}

/// Daemon → worker-process commands (over the child's stdin).
#[non_exhaustive]
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum WorkerRequest {
    /// Prepare the campaign: build the target and plan it — fault list,
    /// pruning, prediction, class grouping, reference run, checkpoint
    /// cache. Planning is seeded, so every worker derives the daemon's
    /// decisions; chunks then hold only indices they leave to execution.
    Init {
        /// The campaign to prepare.
        campaign: Campaign,
        /// The job's execution options, planned exactly as the daemon
        /// plans them.
        options: ExecOptions,
    },
    /// Execute a chunk of experiment indices.
    RunChunk {
        /// Chunk id, echoed in the reply.
        id: u64,
        /// Fault-list indices to execute, ascending.
        indices: Vec<usize>,
    },
    /// Exit cleanly.
    Shutdown,
}

/// One experiment row tagged with its fault-list index, so the server's
/// reorder buffer can stream rows to the store in fault-list order no
/// matter which worker finished first.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct IndexedRecord {
    /// Fault-list index.
    pub index: usize,
    /// The logged row, byte-identical to a single-process run's.
    pub record: ExperimentRecord,
}

/// Worker process → daemon replies (over the child's stdout).
#[non_exhaustive]
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum WorkerResponse {
    /// Preparation finished; the worker is ready for chunks.
    Ready {
        /// The worker's OS process id (the kill -9 target in recovery
        /// drills).
        pid: u32,
        /// Fault-list length, checked against the daemon's plan.
        experiments: usize,
    },
    /// A chunk finished; rows are in index order.
    ChunkDone {
        /// The chunk id from the request.
        id: u64,
        /// The chunk's rows.
        rows: Vec<IndexedRecord>,
    },
    /// The worker cannot continue (campaign invalid on this host, target
    /// error). The daemon fails the job rather than re-issuing.
    Failed {
        /// The error text.
        error: String,
    },
}

macro_rules! frame_convertible {
    ($ty:ty, $kind:expr) => {
        impl $ty {
            /// Encodes this message as a wire frame.
            ///
            /// # Errors
            ///
            /// [`crate::NetError::Codec`] / [`crate::NetError::TooLarge`].
            pub fn to_frame(&self) -> NetResult<Frame> {
                Frame::encode_msg($kind, self)
            }

            /// Decodes this message kind from a frame, enforcing version
            /// and kind checks.
            ///
            /// # Errors
            ///
            /// [`crate::NetError::VersionMismatch`],
            /// [`crate::NetError::WrongKind`] or
            /// [`crate::NetError::Codec`].
            pub fn from_frame(frame: &Frame) -> NetResult<$ty> {
                frame.decode_msg($kind)
            }
        }
    };
}

frame_convertible!(Request, FrameKind::Request);
frame_convertible!(Response, FrameKind::Response);
frame_convertible!(Event, FrameKind::Event);
frame_convertible!(WorkerRequest, FrameKind::WorkerRequest);
frame_convertible!(WorkerResponse, FrameKind::WorkerResponse);
