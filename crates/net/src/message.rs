//! The typed protocol messages — the single public protocol API.
//!
//! All enums are `#[non_exhaustive]`: adding a message kind is a
//! compatible change (old peers answer unknown requests with a typed
//! [`WireError`]); changing an existing encoding bumps
//! [`crate::PROTOCOL_VERSION`].

use crate::frame::{Frame, FrameKind, NetError, NetResult};
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
#[derive(Debug, Clone, PartialEq)]
pub struct IndexedRecord {
    /// Fault-list index.
    pub index: usize,
    /// The logged row, byte-identical to a single-process run's.
    pub record: ExperimentRecord,
}

/// Worker process → daemon replies (over the child's stdout).
/// `ChunkDone` travels as a [`FrameKind::Rows`] frame, the other replies
/// as JSON [`FrameKind::WorkerResponse`] frames.
#[non_exhaustive]
#[derive(Debug, Clone, PartialEq)]
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

/// The [`WorkerResponse`] replies that travel as JSON.
#[derive(Serialize, Deserialize)]
enum JsonResponse {
    Ready { pid: u32, experiments: usize },
    Failed { error: String },
}

/// Bytes before each row's codec bytes in a `Rows` payload: index `u64`
/// and length `u32`.
const ROW_HEADER_LEN: usize = 8 + 4;

impl WorkerResponse {
    /// Encodes this reply as a wire frame: `ChunkDone` as a
    /// [`FrameKind::Rows`] frame whose payload is
    /// `id u64 | count u32 | (index u64 | len u32 | row bytes)*` (all
    /// little-endian, row bytes in the storage engine's row codec), the
    /// other replies as JSON.
    ///
    /// # Errors
    ///
    /// [`NetError::Codec`] / [`NetError::TooLarge`].
    pub fn to_frame(&self) -> NetResult<Frame> {
        let json = match self {
            WorkerResponse::ChunkDone { id, rows } => return rows_frame(*id, rows),
            WorkerResponse::Ready { pid, experiments } => JsonResponse::Ready {
                pid: *pid,
                experiments: *experiments,
            },
            WorkerResponse::Failed { error } => JsonResponse::Failed {
                error: error.clone(),
            },
        };
        Frame::encode_msg(FrameKind::WorkerResponse, &json)
    }

    /// Decodes a reply, choosing the decoder by the frame's kind,
    /// enforcing the version check.
    ///
    /// # Errors
    ///
    /// [`NetError::VersionMismatch`], [`NetError::WrongKind`] or
    /// [`NetError::Codec`].
    pub fn from_frame(frame: &Frame) -> NetResult<WorkerResponse> {
        if frame.kind == FrameKind::Rows {
            frame.expect(FrameKind::Rows)?;
            return rows_from_payload(&frame.payload);
        }
        Ok(match frame.decode_msg(FrameKind::WorkerResponse)? {
            JsonResponse::Ready { pid, experiments } => WorkerResponse::Ready { pid, experiments },
            JsonResponse::Failed { error } => WorkerResponse::Failed { error },
        })
    }
}

fn codec(e: impl fmt::Display) -> NetError {
    NetError::Codec(e.to_string())
}

fn rows_frame(id: u64, rows: &[IndexedRecord]) -> NetResult<Frame> {
    let u32_len = |n: usize| u32::try_from(n).map_err(|_| codec("rows payload over 4 GiB"));
    let mut payload = Vec::new();
    payload.extend_from_slice(&id.to_le_bytes());
    payload.extend_from_slice(&u32_len(rows.len())?.to_le_bytes());
    for row in rows {
        let bytes = row.record.to_bytes().map_err(codec)?;
        payload.extend_from_slice(&(row.index as u64).to_le_bytes());
        payload.extend_from_slice(&u32_len(bytes.len())?.to_le_bytes());
        payload.extend_from_slice(&bytes);
    }
    Frame::bounded(FrameKind::Rows, payload)
}

/// A `Rows` payload being read; every read checks the bytes left first.
struct Cursor<'a>(&'a [u8]);

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> NetResult<&'a [u8]> {
        if self.0.len() < n {
            return Err(codec(format!(
                "rows payload truncated: {n} bytes wanted, {} left",
                self.0.len()
            )));
        }
        let (head, rest) = self.0.split_at(n);
        self.0 = rest;
        Ok(head)
    }

    fn u32(&mut self) -> NetResult<u32> {
        Ok(u32::from_le_bytes(
            self.take(4)?.try_into().expect("4 bytes"),
        ))
    }

    fn u64(&mut self) -> NetResult<u64> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }
}

fn rows_from_payload(payload: &[u8]) -> NetResult<WorkerResponse> {
    let mut cur = Cursor(payload);
    let id = cur.u64()?;
    let count = cur.u32()? as usize;
    if count > cur.0.len() / ROW_HEADER_LEN {
        return Err(codec(format!(
            "rows payload declares {count} rows in {} bytes",
            cur.0.len()
        )));
    }
    let mut rows = Vec::with_capacity(count);
    for _ in 0..count {
        let index = usize::try_from(cur.u64()?).map_err(codec)?;
        let len = cur.u32()? as usize;
        let record = ExperimentRecord::from_bytes(cur.take(len)?).map_err(codec)?;
        rows.push(IndexedRecord { index, record });
    }
    if !cur.0.is_empty() {
        return Err(codec(format!("{} bytes after the last row", cur.0.len())));
    }
    Ok(WorkerResponse::ChunkDone { id, rows })
}
