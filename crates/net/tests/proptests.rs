//! Property-based fuzzing of the wire protocol: every message kind
//! round-trips through its frame encoding, and hostile bytes (truncated,
//! corrupted, or random) always produce typed [`NetError`]s — never a
//! panic, never a silent wrong decode.

use goofi_core::service::{
    CampaignRef, ClassSavings, ExecOptions, JobSpec, JobStatus, JobSummary, ServiceEvent,
};
use goofi_core::store::{ExperimentData, ExperimentRecord};
use goofi_core::{Campaign, FaultModel, Location, LocationSelector, PlannedFault, TargetEvent};
use goofi_net::{
    read_frame, Event, Frame, FrameKind, IndexedRecord, JobListEntry, NetError, Request, Response,
    WireError, WorkerRequest, WorkerResponse, PROTOCOL_VERSION,
};
use proptest::prelude::*;

fn arb_name() -> impl Strategy<Value = String> {
    "[a-z][a-z0-9_-]{0,14}"
}

fn arb_campaign() -> impl Strategy<Value = Campaign> {
    (
        (arb_name(), arb_name(), arb_name()),
        (1usize..500, any::<u64>(), 0u64..50, 1u64..100),
    )
        .prop_map(
            |((name, target, workload), (experiments, seed, start, span))| {
                Campaign::builder(name, target, workload)
                    .select(LocationSelector::Chain {
                        chain: "cpu".into(),
                        field: None,
                    })
                    .window(start, start + span)
                    .experiments(experiments)
                    .seed(seed)
                    .build()
                    .expect("valid campaign")
            },
        )
}

fn arb_options() -> impl Strategy<Value = ExecOptions> {
    (1usize..8, any::<bool>(), any::<bool>()).prop_map(|(workers, checkpoint, class)| {
        ExecOptions::default()
            .workers(workers)
            .checkpoint(checkpoint)
            .class_execution(class)
    })
}

fn arb_spec() -> impl Strategy<Value = JobSpec> {
    (
        prop_oneof![
            arb_name().prop_map(CampaignRef::Name),
            arb_campaign().prop_map(CampaignRef::Inline),
        ],
        arb_options(),
        any::<bool>(),
    )
        .prop_map(|(campaign, options, resume)| {
            JobSpec::new(campaign).options(options).resume(resume)
        })
}

fn arb_fault() -> impl Strategy<Value = Option<PlannedFault>> {
    (
        any::<bool>(),
        arb_name(),
        0usize..4096,
        prop::collection::vec(any::<u64>(), 1..3),
    )
        .prop_map(|(some, chain, bit, times)| {
            some.then(|| PlannedFault {
                model: FaultModel::BitFlip,
                targets: vec![Location::ChainBit { chain, bit }],
                times,
            })
        })
}

/// Rows as the worker sends them: reference and injected runs, detail
/// re-runs with a parent and a state trace, state vectors up to 2 KiB.
fn arb_record() -> impl Strategy<Value = ExperimentRecord> {
    (
        (arb_name(), (any::<bool>(), arb_name()), arb_name()),
        (
            prop::collection::vec(any::<u32>(), 0..4),
            any::<u32>(),
            any::<u64>(),
        ),
        arb_fault(),
        (
            any::<bool>(),
            prop::collection::vec(prop::collection::vec(any::<u8>(), 0..24), 0..4),
        ),
        prop::collection::vec(any::<u8>(), 0..2049),
    )
        .prop_map(
            |(
                (name, (has_parent, parent), campaign),
                (outputs, iterations, instructions),
                fault,
                (detailed, trace),
                state_vector,
            )| ExperimentRecord {
                name,
                parent: has_parent.then_some(parent),
                campaign,
                data: ExperimentData {
                    fault,
                    termination: TargetEvent::Halted,
                    outputs,
                    iterations,
                    instructions,
                    detail_trace: detailed.then_some(trace),
                },
                state_vector,
            },
        )
}

fn arb_status() -> impl Strategy<Value = JobStatus> {
    prop_oneof![
        Just(JobStatus::Queued),
        (0usize..100, 100usize..200)
            .prop_map(|(completed, total)| JobStatus::Running { completed, total }),
        arb_name().prop_map(|error| JobStatus::Failed { error }),
        (0usize..100).prop_map(|completed| JobStatus::Cancelled { completed }),
        (arb_name(), 1usize..50, 0usize..10).prop_map(|(campaign, experiments, pruned)| {
            let mut summary = JobSummary::new(campaign, 2);
            summary.experiments = experiments;
            summary.pruned = pruned;
            summary.class_savings = Some(ClassSavings {
                representatives: 3,
                fanned: 9,
            });
            JobStatus::Done {
                summary: Box::new(summary),
            }
        }),
    ]
}

fn arb_service_event() -> impl Strategy<Value = ServiceEvent> {
    prop_oneof![
        (arb_name(), arb_name()).prop_map(|(job, campaign)| ServiceEvent::Queued { job, campaign }),
        (arb_name(), 1usize..500)
            .prop_map(|(campaign, total)| ServiceEvent::Started { campaign, total }),
        (0usize..500, 1usize..500, any::<bool>()).prop_map(|(completed, total, pruned)| {
            ServiceEvent::Progress {
                completed,
                total,
                pruned,
            }
        }),
        Just(ServiceEvent::Paused),
        Just(ServiceEvent::Resumed),
        (0usize..8, any::<u32>())
            .prop_map(|(worker, pid)| ServiceEvent::WorkerSpawned { worker, pid }),
        (0usize..8, 0usize..64)
            .prop_map(|(worker, reissued)| ServiceEvent::WorkerLost { worker, reissued }),
        (0usize..500, any::<bool>())
            .prop_map(|(completed, stopped)| ServiceEvent::Finished { completed, stopped }),
        arb_name().prop_map(|error| ServiceEvent::Failed { error }),
    ]
}

fn arb_request() -> impl Strategy<Value = Request> {
    prop_oneof![
        any::<u16>().prop_map(|version| Request::Hello { version }),
        arb_spec().prop_map(|spec| Request::Submit { spec }),
        arb_name().prop_map(|job| Request::Status { job }),
        (arb_name(), any::<bool>())
            .prop_map(|(job, from_start)| Request::Watch { job, from_start }),
        arb_name().prop_map(|job| Request::Cancel { job }),
        Just(Request::Jobs),
        Just(Request::Shutdown),
    ]
}

fn arb_wire_error() -> impl Strategy<Value = WireError> {
    prop_oneof![
        (any::<u16>(), any::<u16>())
            .prop_map(|(got, want)| WireError::VersionMismatch { got, want }),
        arb_name().prop_map(|job| WireError::NoSuchJob { job }),
        arb_name().prop_map(|message| WireError::Rejected { message }),
    ]
}

fn arb_response() -> impl Strategy<Value = Response> {
    prop_oneof![
        any::<u16>().prop_map(|version| Response::Hello { version }),
        arb_name().prop_map(|job| Response::Submitted { job }),
        (arb_name(), arb_status()).prop_map(|(job, status)| Response::Status { job, status }),
        arb_name().prop_map(|job| Response::Watching { job }),
        (arb_name(), any::<bool>())
            .prop_map(|(job, delivered)| Response::Cancelled { job, delivered }),
        prop::collection::vec((arb_name(), arb_status()), 0..4).prop_map(|rows| Response::Jobs {
            jobs: rows
                .into_iter()
                .map(|(job, status)| JobListEntry { job, status })
                .collect(),
        }),
        Just(Response::ShuttingDown),
        arb_wire_error().prop_map(|error| Response::Error { error }),
    ]
}

fn arb_event() -> impl Strategy<Value = Event> {
    prop_oneof![
        arb_service_event().prop_map(|event| Event::Service { event }),
        Just(Event::EndOfStream),
    ]
}

fn arb_worker_request() -> impl Strategy<Value = WorkerRequest> {
    prop_oneof![
        (arb_campaign(), arb_options())
            .prop_map(|(campaign, options)| WorkerRequest::Init { campaign, options }),
        (any::<u64>(), prop::collection::vec(0usize..1000, 0..32))
            .prop_map(|(id, indices)| WorkerRequest::RunChunk { id, indices }),
        Just(WorkerRequest::Shutdown),
    ]
}

fn arb_worker_response() -> impl Strategy<Value = WorkerResponse> {
    prop_oneof![
        (any::<u32>(), 1usize..500)
            .prop_map(|(pid, experiments)| WorkerResponse::Ready { pid, experiments }),
        (
            any::<u64>(),
            prop::collection::vec((0usize..1000, arb_record()), 0..4)
        )
            .prop_map(|(id, rows)| WorkerResponse::ChunkDone {
                id,
                rows: rows
                    .into_iter()
                    .map(|(index, record)| IndexedRecord { index, record })
                    .collect(),
            }),
        arb_name().prop_map(|error| WorkerResponse::Failed { error }),
    ]
}

/// Round-trips a message through its frame encoding and the full binary
/// wire encoding, checking every layer reproduces the original.
macro_rules! check_roundtrip {
    ($msg:expr, $ty:ty) => {{
        let msg = $msg;
        let frame = msg.to_frame().expect("encodes");
        prop_assert_eq!(frame.version, PROTOCOL_VERSION);
        // Frame -> message.
        let back = <$ty>::from_frame(&frame).expect("frame decodes");
        prop_assert_eq!(&back, &msg);
        // Bytes -> frame -> message.
        let bytes = frame.encode();
        let (decoded, used) = Frame::decode(&bytes).expect("bytes decode");
        prop_assert_eq!(used, bytes.len());
        let back = <$ty>::from_frame(&decoded).expect("decoded frame decodes");
        prop_assert_eq!(&back, &msg);
        // Stream -> frame -> message.
        let mut cursor = &bytes[..];
        let streamed = read_frame(&mut cursor).expect("stream decodes");
        let back = <$ty>::from_frame(&streamed).expect("streamed frame decodes");
        prop_assert_eq!(&back, &msg);
        bytes
    }};
}

proptest! {
    #[test]
    fn request_roundtrip(msg in arb_request()) {
        check_roundtrip!(msg, Request);
    }

    #[test]
    fn response_roundtrip(msg in arb_response()) {
        check_roundtrip!(msg, Response);
    }

    #[test]
    fn event_roundtrip(msg in arb_event()) {
        check_roundtrip!(msg, Event);
    }

    #[test]
    fn worker_request_roundtrip(msg in arb_worker_request()) {
        check_roundtrip!(msg, WorkerRequest);
    }

    #[test]
    fn worker_response_roundtrip(msg in arb_worker_response()) {
        check_roundtrip!(msg, WorkerResponse);
    }

    /// Every prefix of a valid encoding fails with `Truncated` (buffer
    /// decode) or `Truncated`/`ClosedStream` (stream decode) — and never
    /// panics or yields a frame.
    #[test]
    fn truncation_yields_typed_errors(msg in arb_request(), frac in 0usize..1000) {
        let bytes = msg.to_frame().expect("encodes").encode();
        let cut = bytes.len() * frac / 1000;
        prop_assert!(cut < bytes.len());
        match Frame::decode(&bytes[..cut]) {
            Err(NetError::Truncated { wanted, got }) => {
                prop_assert_eq!(got, cut);
                prop_assert!(wanted > cut);
            }
            other => prop_assert!(false, "cut at {}: {:?}", cut, other),
        }
        let mut cursor = &bytes[..cut];
        match read_frame(&mut cursor) {
            Err(NetError::Truncated { .. }) => {}
            Err(NetError::ClosedStream) => prop_assert_eq!(cut, 0),
            other => prop_assert!(false, "stream cut at {}: {:?}", cut, other),
        }
    }

    /// Any single corrupted byte in a valid encoding is caught by one of
    /// the typed checks — the original message never decodes silently.
    #[test]
    fn corruption_yields_typed_errors(msg in arb_response(), pos_frac in 0usize..1000, flip in 1u8..=255) {
        let bytes = msg.to_frame().expect("encodes").encode();
        let pos = bytes.len() * pos_frac / 1000;
        let mut bad = bytes.clone();
        bad[pos] ^= flip;
        let outcome = Frame::decode(&bad).and_then(|(frame, _)| Response::from_frame(&frame));
        match outcome {
            Err(
                NetError::BadMagic(_)
                | NetError::VersionMismatch { .. }
                | NetError::BadKind(_)
                | NetError::Truncated { .. }
                | NetError::CorruptPayload { .. }
                | NetError::TooLarge { .. }
                | NetError::WrongKind { .. }
                | NetError::Codec(_),
            ) => {}
            Err(other) => prop_assert!(false, "untyped error at {}: {:?}", pos, other),
            Ok(back) => prop_assert!(false, "corrupt byte at {} decoded silently: {:?}", pos, back),
        }
    }

    /// A `ChunkDone` payload damaged past the CRC (the frame is rebuilt
    /// around the damaged bytes) reaches the row decoder, which answers
    /// with a typed error, never a panic and never an allocation sized by
    /// a declared count or length it has not checked against the bytes
    /// left. A flipped byte inside a row's values may still decode, but
    /// never as the original message.
    #[test]
    fn rows_damage_yields_typed_errors(
        rows in prop::collection::vec((0usize..1000, arb_record()), 1..4),
        damage in 0u8..4,
        frac in 0usize..1000,
        flip in 1u8..=255,
    ) {
        let msg = WorkerResponse::ChunkDone {
            id: 7,
            rows: rows
                .into_iter()
                .map(|(index, record)| IndexedRecord { index, record })
                .collect(),
        };
        let frame = msg.to_frame().expect("encodes");
        prop_assert_eq!(frame.kind, FrameKind::Rows);
        let mut payload = frame.payload;
        let pos = payload.len() * frac / 1000;
        match damage {
            0 => payload.truncate(pos),
            1 => payload[pos] ^= flip,
            2 => payload[8..12].copy_from_slice(&u32::MAX.to_le_bytes()),
            _ => {
                // The `len` field of a row chosen by `frac`.
                let WorkerResponse::ChunkDone { rows, .. } = &msg else { unreachable!() };
                let mut at = 12;
                for row in &rows[..frac % rows.len()] {
                    at += 12 + row.record.to_bytes().expect("encodes").len();
                }
                payload[at + 8..at + 12].copy_from_slice(&u32::MAX.to_le_bytes());
            }
        }
        let bytes = Frame::new(FrameKind::Rows, payload).encode();
        let (frame, _) = Frame::decode(&bytes).expect("the CRC matches the damage");
        match WorkerResponse::from_frame(&frame) {
            Err(NetError::Codec(_)) => {}
            Err(other) => prop_assert!(false, "damage {}: untyped error {:?}", damage, other),
            Ok(back) => {
                prop_assert_eq!(damage, 1, "damage {} decoded: {:?}", damage, back);
                prop_assert_ne!(back, msg);
            }
        }
    }

    /// Random garbage never panics the decoder: it either fails with a
    /// typed error or (astronomically unlikely) parses as a real frame.
    #[test]
    fn random_bytes_never_panic(bytes in prop::collection::vec(any::<u8>(), 0..128)) {
        let _ = Frame::decode(&bytes);
        let mut cursor = &bytes[..];
        let _ = read_frame(&mut cursor);
    }
}
