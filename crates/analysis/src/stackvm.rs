//! StackVM frontend: builds the CFG over *abstract machine states* and
//! replays the program on a scratch VM to map CFG facts onto injection
//! times.
//!
//! A stack machine's def/use sets depend on the stack pointers, so the
//! program points are abstract states `(pc, sp, return stack)` rather
//! than bare instruction indices — `Op::effect` then gives exact per-cell
//! def/use sets at each point. The abstraction is exact for everything
//! but data values: every concrete execution walks a path of this graph,
//! and only `Jz` forks (the one value-dependent successor choice), so the
//! must-analysis over the graph is sound for the real machine.

use crate::model::{Model, Node, NodeKind};
use goofi_core::{mem_loc_name, StaticAnalysis};
use goofi_stackvm::{Op, StackVm, VmEvent, VmLoc};
use goofi_telemetry::names;
use std::collections::BTreeMap;

/// Abstract-state cap: a program whose state graph exceeds this (deep
/// data-dependent recursion) is not statically analyzable; the runner
/// then runs the campaign unpruned.
const STATE_CAP: usize = 1 << 14;

/// Replay cap, mirroring the Thor frontend.
const REPLAY_CAP: u64 = 2_000_000;

/// `(pc, data-stack pointer, return-address stack)`.
type AbsState = (u32, u8, Vec<u32>);

/// The debug-port field name of a VM location (`MEM[..]` for data words,
/// matching the fault list's architectural names).
fn loc_name(loc: VmLoc, data_base: u32) -> String {
    match loc {
        VmLoc::Data(a) => mem_loc_name(data_base + a * 4),
        other => other.to_string(),
    }
}

enum Succ {
    Halt,
    Unknown,
    Next(Vec<AbsState>),
}

/// Successor abstract states of one point, or the reason there are none.
fn successors(ops: &[Op], data_words: usize, state: &AbsState) -> Succ {
    let (pc, sp, rets) = state;
    let Some(&op) = ops.get(*pc as usize) else {
        return Succ::Unknown; // PC out of range: EDM traps.
    };
    if op.effect(*sp, rets.len() as u8).is_none() {
        return Succ::Unknown; // stack/call-stack bounds trap
    }
    match op {
        Op::Halt => Succ::Halt,
        Op::Load(a) | Op::Store(a) if a as usize >= data_words => Succ::Unknown,
        Op::Jmp(a) => Succ::Next(vec![(a, *sp, rets.clone())]),
        Op::Jz(a) => Succ::Next(vec![
            (pc + 1, sp - 1, rets.clone()),
            (a, sp - 1, rets.clone()),
        ]),
        Op::Call(a) => {
            let mut rets = rets.clone();
            rets.push(pc + 1);
            Succ::Next(vec![(a, *sp, rets)])
        }
        Op::Ret => {
            let mut rets = rets.clone();
            let target = rets.pop().expect("effect() checked CSP > 0");
            Succ::Next(vec![(target, *sp, rets)])
        }
        Op::Push(_) | Op::Load(_) | Op::Dup => Succ::Next(vec![(pc + 1, sp + 1, rets.clone())]),
        Op::Store(_) | Op::Add | Op::Sub | Op::Mul | Op::Drop => {
            Succ::Next(vec![(pc + 1, sp - 1, rets.clone())])
        }
        Op::Swap | Op::Sync => Succ::Next(vec![(pc + 1, *sp, rets.clone())]),
    }
}

/// Builds the abstract-state CFG. `None` if the state graph blows past
/// [`STATE_CAP`].
fn build_model(
    ops: &[Op],
    data_words: usize,
    data_base: u32,
) -> Option<(Model, BTreeMap<AbsState, usize>)> {
    // Phase 1: discover the reachable abstract states.
    let entry: AbsState = (0, 0, Vec::new());
    let mut index: BTreeMap<AbsState, usize> = BTreeMap::new();
    let mut states: Vec<AbsState> = vec![entry.clone()];
    index.insert(entry, 0);
    let mut next = 0;
    while next < states.len() {
        let state = states[next].clone();
        next += 1;
        if let Succ::Next(succs) = successors(ops, data_words, &state) {
            for s in succs {
                if !index.contains_key(&s) {
                    if states.len() >= STATE_CAP {
                        return None;
                    }
                    index.insert(s.clone(), states.len());
                    states.push(s);
                }
            }
        }
    }

    // Phase 2: materialise nodes now that every successor has an index.
    let mut model = Model::new();
    model.assume_initialized("SP");
    model.assume_initialized("CSP");
    // The pointers advance by per-opcode constants: as long as control
    // has not diverged, every write leaves them at the reference value
    // even if an operand was tainted — so pointer *writes* stay clean in
    // the propagation walk. Pointer *reads* are barriers below.
    model.assume_path_determined("SP");
    model.assume_path_determined("CSP");
    // Discovery is forward-only, so ops no abstract state covers get
    // synthetic nodes purely for the unreachable-code lint.
    let covered: std::collections::BTreeSet<u32> = states.iter().map(|s| s.0).collect();
    for state in &states {
        let (pc, sp, rets) = state;
        let (label, reads, barriers, writes) = match ops.get(*pc as usize) {
            Some(op) => {
                let fx = op.effect(*sp, rets.len() as u8).unwrap_or_default();
                // Propagation barriers: the stack pointers (they select
                // the cells every op touches and guard the bounds traps)
                // plus the control operands — Jz's tested top-of-stack
                // cell and Ret's return slot. The arithmetic ops wrap,
                // so pure data operands propagate without hazard.
                let control = matches!(op, Op::Jz(_) | Op::Ret);
                (
                    format!("{pc}: {op:?}"),
                    fx.reads
                        .iter()
                        .map(|&l| model.location(&loc_name(l, data_base)))
                        .collect(),
                    fx.reads
                        .iter()
                        .filter(|&&l| control || matches!(l, VmLoc::Sp | VmLoc::Csp))
                        .map(|&l| model.location(&loc_name(l, data_base)))
                        .collect(),
                    fx.writes
                        .iter()
                        .map(|&l| model.location(&loc_name(l, data_base)))
                        .collect(),
                )
            }
            None => (String::new(), Vec::new(), Vec::new(), Vec::new()),
        };
        let (kind, succs) = match successors(ops, data_words, state) {
            Succ::Halt => (NodeKind::Halt, Vec::new()),
            Succ::Unknown => (NodeKind::Unknown, Vec::new()),
            Succ::Next(list) => (NodeKind::Normal, list.iter().map(|s| index[s]).collect()),
        };
        model.push(Node {
            label,
            kind,
            reads,
            barriers,
            writes,
            succs,
        });
    }
    for (pc, op) in ops.iter().enumerate() {
        if !covered.contains(&(pc as u32)) {
            model.push(Node {
                label: format!("{pc}: {op:?}"),
                ..Node::default()
            });
        }
    }
    model.set_entry(0);
    Some((model, index))
}

/// Statically analyzes a StackVM program up to injection time `horizon`.
///
/// `data_base` is the byte address the adapter maps data word 0 to (its
/// `MEM[..]` naming origin). Returns `None` when the abstract state graph
/// is too large to analyze — the caller should report "unsupported" and
/// let the runner run the campaign unpruned.
pub fn analyze_stackvm_program(
    ops: &[Op],
    data_words: usize,
    data_base: u32,
    horizon: u64,
) -> Option<StaticAnalysis> {
    let (model, index) = {
        let _s = tracing::span(names::ANALYSIS_CFG);
        build_model(ops, data_words, data_base)?
    };

    // Concrete replay on a scratch VM: only the (pc, sp, call stack)
    // evolution is observed — no read/write trace is recorded.
    let replay = tracing::span(names::ANALYSIS_REPLAY);
    let mut vm = StackVm::new(data_words);
    vm.load(ops);
    let mut timeline = Vec::new();
    let limit = horizon.saturating_add(1).min(REPLAY_CAP);
    while vm.steps() < limit {
        let pc = vm.read_field("PC").expect("PC is a debug field") as u32;
        let sp = vm.read_field("SP").expect("SP is a debug field") as u8;
        let csp = vm.read_field("CSP").expect("CSP is a debug field") as usize;
        let rets: Vec<u32> = (0..csp.min(8))
            .map(|i| vm.read_field(&format!("C{i}")).expect("call slot") as u32)
            .collect();
        match index.get(&(pc, sp, rets)) {
            Some(&node) => timeline.push(node),
            None => break, // corrupted state outside the abstraction
        }
        match vm.step() {
            Ok(Some(VmEvent::Halted)) => break,
            Ok(_) => {}
            Err(_) => break, // EDM trap ends the timeline
        }
    }
    drop(replay);

    Some(model.analyze(&timeline, horizon))
}

#[cfg(test)]
mod tests {
    use super::*;
    use goofi_core::LintKind;

    const BASE: u32 = 0x1_0000;

    fn analyze(ops: &[Op], data_words: usize, horizon: u64) -> StaticAnalysis {
        analyze_stackvm_program(ops, data_words, BASE, horizon).expect("analyzable")
    }

    #[test]
    fn straightline_stack_cells_have_dead_windows() {
        // Push 1; Push 2; Add; Store 0; Halt
        let ops = [Op::Push(1), Op::Push(2), Op::Add, Op::Store(0), Op::Halt];
        let sa = analyze(&ops, 2, 10);
        // S0 is written at t=0 and read at t=2: dead only at t=0.
        assert_eq!(sa.dead.get("S0"), Some(&vec![(0, 0)]));
        // S1's guaranteed write at t=1 makes t=0 dead too (a fault there
        // is overwritten before the t=2 read on every path).
        assert_eq!(sa.dead.get("S1"), Some(&vec![(0, 1)]));
        // data[0] sees no access before the Store's write: dead all the
        // way from t=0 to the write, then latent.
        let m0 = mem_loc_name(BASE);
        assert_eq!(sa.dead.get(&m0), Some(&vec![(0, 3)]));
        assert!(!sa.is_dead(&m0, 4));
    }

    #[test]
    fn loop_analysis_matches_sum_workload_shape() {
        // The bundled sum workload: data[0] = n; data[1] = 0;
        // while data[0] != 0 { data[1] += data[0]; data[0] -= 1 }
        let ops = [
            Op::Push(3),
            Op::Store(0),
            Op::Push(0),
            Op::Store(1),
            Op::Load(0), // 4: loop head
            Op::Jz(15),
            Op::Load(1),
            Op::Load(0),
            Op::Add,
            Op::Store(1),
            Op::Load(0),
            Op::Push(1),
            Op::Sub,
            Op::Store(0),
            Op::Jmp(4),
            Op::Halt, // 15
        ];
        let sa = analyze(&ops, 2, 200);
        // The accumulator data[1] is rewritten every iteration; before
        // its first store (t<=3) it is provably dead.
        let m1 = mem_loc_name(BASE + 4);
        let w = sa.dead.get(&m1).expect("data[1] has dead windows");
        assert!(w[0].0 == 0 && w[0].1 >= 3, "windows: {w:?}");
        // S0 is dead at every iteration's loop head (about to be
        // overwritten by the Load) — many windows.
        assert!(sa.dead.get("S0").map(|w| w.len()).unwrap_or(0) > 3);
        assert!(sa.lints.is_empty(), "{:?}", sa.lints);
        assert!(sa.blocks >= 3);
    }

    #[test]
    fn calls_are_tracked_through_the_abstract_return_stack() {
        // Call a leaf that pushes a constant; store it; halt.
        let ops = [
            Op::Call(3),
            Op::Store(0),
            Op::Halt,
            Op::Push(9), // 3: leaf
            Op::Ret,
        ];
        let sa = analyze(&ops, 1, 10);
        // C0 holds the return address: written by the Call at t=0, read
        // by the Ret at t=2 -> dead only at t=0.
        assert_eq!(sa.dead.get("C0"), Some(&vec![(0, 0)]));
        // S0: untouched until the leaf's guaranteed push at t=1, which
        // the Store reads at t=3.
        assert_eq!(sa.dead.get("S0"), Some(&vec![(0, 1)]));
        assert!(sa.lints.is_empty(), "{:?}", sa.lints);
    }

    #[test]
    fn stored_then_overwritten_fault_washes_out() {
        // Push 1; Store 0; Push 2; Store 0; Halt
        let ops = [
            Op::Push(1),
            Op::Store(0),
            Op::Push(2),
            Op::Store(0),
            Op::Halt,
        ];
        let sa = analyze(&ops, 1, 10);
        // A fault in S0 at t=1 is read by the Store (never dead) and
        // copied into data[0] — which the second Store overwrites while
        // the Push re-writes S0: the cone is gone after step 3. The
        // windows at t=0 and t=2 are plain overwrite-before-read.
        assert_eq!(
            sa.washout.get("S0"),
            Some(&vec![(0, 0, 0), (1, 1, 3), (2, 2, 2)])
        );
        assert_eq!(sa.dead.get("S0"), Some(&vec![(0, 0), (2, 2)]));
    }

    #[test]
    fn control_and_pointer_operands_are_barriers() {
        // Push 0; Jz 3; Halt; Halt — the Jz tests the corrupted cell.
        let ops = [Op::Push(0), Op::Jz(3), Op::Halt, Op::Halt];
        let sa = analyze(&ops, 1, 10);
        // Only the pure-write window at t=0 survives; the t=1 read is a
        // control barrier. SP is read (and bounds-checked) by every op,
        // so it gets no washout windows at all.
        assert_eq!(sa.washout.get("S0"), Some(&vec![(0, 0, 0)]));
        assert_eq!(sa.washout.get("SP"), None);
    }

    #[test]
    fn load_of_never_stored_word_is_linted() {
        let ops = [Op::Load(0), Op::Drop, Op::Halt];
        let sa = analyze(&ops, 1, 10);
        assert!(sa
            .lints
            .iter()
            .any(|l| l.kind == LintKind::ReadNeverWritten && l.message.contains("MEM[")));
    }

    #[test]
    fn unreachable_ops_are_linted() {
        let ops = [Op::Jmp(2), Op::Push(1), Op::Halt];
        let sa = analyze(&ops, 1, 10);
        assert!(sa.lints.iter().any(|l| l.kind == LintKind::UnreachableCode));
    }

    #[test]
    fn infinite_loop_is_linted() {
        // A pure spin: no trap in sight, no halt either.
        let sa = analyze(&[Op::Jmp(0)], 1, 10);
        assert!(sa
            .lints
            .iter()
            .any(|l| l.kind == LintKind::NoPathToTermination));
        assert!(sa.dead.is_empty(), "{:?}", sa.dead);
    }

    #[test]
    fn overflowing_loop_stays_conservative_past_the_trap() {
        // Pushes forever: overflows after 16 pushes. A trapping state is
        // Unknown, so it does NOT count as unreachable termination, and
        // nothing near it is dead.
        let ops = [Op::Push(1), Op::Jmp(0)];
        let sa = analyze(&ops, 1, 100);
        assert!(!sa
            .lints
            .iter()
            .any(|l| l.kind == LintKind::NoPathToTermination));
        // S0 is dead only at its write time t=0 (never touched again);
        // S1 is dead up to its guaranteed write at t=2. Nothing is dead
        // at or past the trap.
        assert_eq!(sa.dead.get("S0"), Some(&vec![(0, 0)]));
        assert_eq!(sa.dead.get("S1"), Some(&vec![(0, 2)]));
        assert!(!sa.is_dead("S0", 31));
    }
}
