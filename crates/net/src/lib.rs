//! # goofi-net — the campaign-service wire protocol
//!
//! A vendored, offline-friendly binary protocol connecting GOOFI
//! clients, the `goofi-server` daemon and its worker processes. One
//! frame format serves all three:
//!
//! ```text
//! +------+---------+------+---------+---------+----------------+
//! | GFRM | version | kind |   len   |  crc32  |    payload     |
//! | 4 B  |  u16 LE | u8   | u32 LE  | u32 LE  |  len bytes     |
//! +------+---------+------+---------+---------+----------------+
//! ```
//!
//! * the magic pins the stream format; anything else is
//!   [`NetError::BadMagic`] immediately (a stray HTTP client, say);
//! * the header version lets the server reject a mismatched peer with a
//!   *typed* [`WireError::VersionMismatch`] response instead of a decode
//!   failure (the header is version-independent by construction);
//! * the CRC32 catches truncated or corrupted payloads before any
//!   decoder sees them — [`NetError::CorruptPayload`], never a panic;
//! * payloads are JSON-encoded message enums: [`Request`]/[`Response`]
//!   between clients and the daemon (with [`Event`] frames streamed for
//!   `watch`), [`WorkerRequest`]/[`WorkerResponse`] between the daemon
//!   and its worker children over stdin/stdout pipes. The one exception
//!   is the hot path: [`WorkerResponse::ChunkDone`] travels as a
//!   [`FrameKind::Rows`] frame whose experiment rows are in the storage
//!   engine's binary row codec.
//!
//! The message enums are `#[non_exhaustive]` and constitute the single
//! public protocol API: new message kinds are additive, and
//! [`PROTOCOL_VERSION`] is bumped only when existing encodings change.
//!
//! [`RemoteService`] implements `goofi-core`'s `CampaignService` trait
//! over this protocol, so the CLI drives a remote daemon through exactly
//! the code path it uses for local runs.

#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

mod client;
mod frame;
mod message;

pub use client::RemoteService;
pub use frame::{
    read_frame, write_frame, Frame, FrameKind, NetError, NetResult, MAX_FRAME_LEN, PROTOCOL_VERSION,
};
pub use message::{
    Event, IndexedRecord, JobListEntry, Request, Response, WireError, WorkerRequest, WorkerResponse,
};
