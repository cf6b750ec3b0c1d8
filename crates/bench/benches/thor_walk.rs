//! The walk row: one deterministic runaway experiment, timed per
//! instruction.
//!
//! A bit-flip in a high bit of sort16's inner-loop bound (R9) makes the
//! loop walk its pointer up to the end of data memory, where the load
//! traps. Rows like this one execute most of a `cpu`-chain campaign's
//! instructions, so their per-instruction cost is the interpreter's
//! steady-state cost.
//!
//! The row: sort16 run to instret 100 and snapshotted; then, N times,
//! restore the snapshot, flip R9 bit 20 and run to termination with the
//! campaign's default cycle budget. The bench asserts the row's
//! deterministic facts — the instruction count and the final memory
//! violation — and prints ns/instr as the best of N.
//!
//! ```text
//! cargo bench -p goofi-bench --bench thor_walk            # N = 300
//! cargo bench -p goofi-bench --bench thor_walk -- --quick # N = 3
//! ```

use goofi_targets::DEFAULT_CYCLE_BUDGET;
use goofi_workloads::workload_by_name;
use std::time::Instant;
use thor_rd::{AccessKind, CardSnapshot, DebugEvent, Exception, MachineConfig, TestCard};

const INJECT_AT: u64 = 100;
const REG: u8 = 9;
const BIT: u32 = 20;
const INSTRUCTIONS: u64 = 110_504;
const END: Exception = Exception::MemoryViolation {
    addr: 0x10000,
    kind: AccessKind::Read,
};

/// Runs the faulted row from `snapshot` to termination; returns the
/// final event and the instructions executed since the injection.
fn walk(card: &mut TestCard, snapshot: &CardSnapshot) -> (DebugEvent, u64) {
    card.restore(snapshot);
    let m = card.machine_mut();
    m.set_reg(REG, m.reg(REG) ^ (1 << BIT));
    let event = loop {
        let left = DEFAULT_CYCLE_BUDGET.saturating_sub(card.machine().cycles());
        match card.run(left) {
            DebugEvent::IterationSync | DebugEvent::Breakpoint { .. } => {}
            other => break other,
        }
    };
    (event, card.machine().instret() - INJECT_AT)
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let repeats = if quick { 3 } else { 300 };

    let workload = workload_by_name("sort16").expect("sort16 is bundled");
    let mut card = TestCard::new(MachineConfig::default());
    card.download(&workload.program).expect("sort16 fits");
    card.set_breakpoint_instret(INJECT_AT);
    assert!(matches!(
        card.run(DEFAULT_CYCLE_BUDGET),
        DebugEvent::Breakpoint {
            instret: INJECT_AT,
            ..
        }
    ));
    let snapshot = card.snapshot();

    let mut best = f64::INFINITY;
    for _ in 0..repeats {
        let t0 = Instant::now();
        let (event, executed) = walk(&mut card, &snapshot);
        let elapsed = t0.elapsed().as_secs_f64();
        assert_eq!(
            event,
            DebugEvent::ErrorDetected(END),
            "walk row ended early"
        );
        assert_eq!(executed, INSTRUCTIONS, "walk row instruction count");
        best = best.min(elapsed);
    }
    println!(
        "walk row: sort16, R{REG} bit {BIT} flipped at instret {INJECT_AT}, \
         {INSTRUCTIONS} instructions, ends `{END}`"
    );
    println!(
        "best of {repeats}: {:.3} ms, {:.2} ns/instr",
        best * 1e3,
        best * 1e9 / INSTRUCTIONS as f64
    );
}
