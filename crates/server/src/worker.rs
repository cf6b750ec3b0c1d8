//! The worker-process side of the campaign engine.
//!
//! A worker is a `goofi worker` child speaking [`WorkerRequest`] /
//! [`WorkerResponse`] frames over its stdin/stdout pipes. It builds the
//! target locally, derives the *identical* campaign plan every sibling
//! derives (fault-list generation is seeded), and executes whatever
//! index chunks the daemon hands it. Stdout belongs to the protocol —
//! anything human-readable goes to stderr.

use goofi_core::{
    plan_campaign, Campaign, CampaignPlan, Decision, ExecOptions, TargetSystemInterface,
};
use goofi_net::{
    read_frame, write_frame, IndexedRecord, NetError, NetResult, WorkerRequest, WorkerResponse,
};
use goofi_targets::standard_factory;
use std::io::{Read, Write};

struct WorkerState {
    target: Box<dyn TargetSystemInterface>,
    campaign: Campaign,
    plan: CampaignPlan,
}

impl WorkerState {
    fn init(
        campaign: Campaign,
        options: &ExecOptions,
    ) -> goofi_core::Result<(WorkerState, WorkerResponse)> {
        let factory = standard_factory(&campaign)?;
        let mut target = factory();
        let plan = plan_campaign(target.as_mut(), &campaign, &options.run_options())?;
        let ready = WorkerResponse::Ready {
            pid: std::process::id(),
            experiments: plan.len(),
            reference: Box::new(plan.reference_record(&campaign)),
            prunable: plan
                .decisions
                .iter()
                .map(|&d| d == Decision::Pruned)
                .collect(),
            predicted: plan
                .decisions
                .iter()
                .map(|&d| d == Decision::Predicted)
                .collect(),
            static_analysis: plan.static_analysis.clone().map(Box::new),
        };
        Ok((
            WorkerState {
                target,
                campaign,
                plan,
            },
            ready,
        ))
    }

    fn run_chunk(&mut self, indices: &[usize]) -> goofi_core::Result<Vec<IndexedRecord>> {
        indices
            .iter()
            .map(|&index| {
                let run = self
                    .plan
                    .execute(self.target.as_mut(), &self.campaign, index)?;
                Ok(IndexedRecord {
                    index,
                    record: self.plan.record(&self.campaign, index, &run),
                })
            })
            .collect()
    }
}

/// The worker-process frame loop over arbitrary transports — the real
/// process uses stdin/stdout, tests use in-memory pipes.
///
/// # Errors
///
/// Transport-level [`NetError`]s; campaign-level failures are answered
/// in-band as [`WorkerResponse::Failed`].
pub fn worker_loop(r: &mut impl Read, w: &mut impl Write) -> NetResult<()> {
    let mut state: Option<WorkerState> = None;
    loop {
        let frame = match read_frame(r) {
            // A closed stdin is the daemon's way of saying goodbye.
            Err(NetError::ClosedStream) => return Ok(()),
            other => other?,
        };
        let response = match WorkerRequest::from_frame(&frame)? {
            WorkerRequest::Init { campaign, options } => {
                match WorkerState::init(campaign, &options) {
                    Ok((st, ready)) => {
                        state = Some(st);
                        ready
                    }
                    Err(e) => WorkerResponse::Failed {
                        error: e.to_string(),
                    },
                }
            }
            WorkerRequest::RunChunk { id, indices } => match state.as_mut() {
                None => WorkerResponse::Failed {
                    error: "chunk received before init".into(),
                },
                Some(st) => match st.run_chunk(&indices) {
                    Ok(rows) => WorkerResponse::ChunkDone { id, rows },
                    Err(e) => WorkerResponse::Failed {
                        error: e.to_string(),
                    },
                },
            },
            WorkerRequest::Shutdown => return Ok(()),
            other => WorkerResponse::Failed {
                error: format!("unsupported worker request {other:?}"),
            },
        };
        write_frame(w, &response.to_frame()?)?;
    }
}

/// Entry point for the `goofi worker` process: runs the frame loop over
/// stdin/stdout and returns the process exit code.
pub fn worker_main() -> i32 {
    let stdin = std::io::stdin();
    let stdout = std::io::stdout();
    match worker_loop(&mut stdin.lock(), &mut stdout.lock()) {
        Ok(()) => 0,
        Err(e) => {
            eprintln!("goofi worker: {e}");
            1
        }
    }
}
