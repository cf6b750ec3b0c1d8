//! Thor RD frontend: builds the CFG from the workload binary's decoded
//! code segments and replays the workload on a scratch test card to map
//! CFG facts onto injection times.
//!
//! Def/use sets come from [`Instr::effect`] — the same table the
//! simulator records its dynamic trace from — so the static and dynamic
//! analyses cannot disagree about what an instruction touches. Memory
//! operands have dynamic effective addresses, so `MEM[..]` locations are
//! deliberately *not* modelled: memory faults are never statically
//! pruned (conservative: those experiments execute).

use crate::model::{Model, Node, NodeKind};
use goofi_core::StaticAnalysis;
use goofi_telemetry::names;
use std::collections::BTreeMap;
use thor_rd::{Instr, MachineConfig, Program, TestCard};

/// Hard cap on replay length, mirroring the adapter's trace cap: beyond
/// this many instructions the timeline simply ends (later times are
/// never dead).
const REPLAY_CAP: u64 = 2_000_000;

/// Builds the instruction-level CFG for a Thor program's code segments.
/// Returns the model plus the node index for each code word address.
fn build_model(program: &Program, config: &MachineConfig) -> (Model, BTreeMap<u32, usize>) {
    let mut model = Model::new();

    // Collect the code image: words of segments below the code boundary.
    let mut code: BTreeMap<u32, u32> = BTreeMap::new();
    for seg in &program.segments {
        for (i, &word) in seg.words.iter().enumerate() {
            let addr = seg.base + (i as u32) * 4;
            if addr < config.memory.code_end {
                code.insert(addr, word);
            }
        }
    }

    // One shared sink for any control transfer leaving the decoded image.
    let sink = model.push(Node {
        kind: NodeKind::Unknown,
        ..Node::default()
    });

    let index: BTreeMap<u32, usize> = code
        .keys()
        .enumerate()
        .map(|(i, &addr)| (addr, sink + 1 + i))
        .collect();
    let node_at = |addr: u32| index.get(&addr).copied().unwrap_or(sink);

    for (&addr, &word) in &code {
        let Some(instr) = Instr::decode(word) else {
            // Undecodable word: the CPU's illegal-instruction EDM fires.
            model.push(Node {
                label: format!("{addr:#x}: .word {word:#010x}"),
                kind: NodeKind::Unknown,
                ..Node::default()
            });
            continue;
        };
        let fx = instr.effect();
        let mut reads: Vec<usize> = fx
            .reg_reads
            .into_iter()
            .flatten()
            .map(|r| model.location(&format!("R{r}")))
            .collect();
        if fx.reads_psw {
            reads.push(model.location("PSW"));
        }
        let mut writes: Vec<usize> = fx
            .reg_write
            .into_iter()
            .map(|r| model.location(&format!("R{r}")))
            .collect();
        if fx.writes_psw {
            writes.push(model.location("PSW"));
        }
        // Propagation barriers: reads through which corruption escapes
        // the modeled dataflow. Checked arithmetic (Add/Sub/Mul/Div)
        // traps on data values (overflow / divide-by-zero EDM events);
        // Ld/St operands form dynamic effective addresses and St's value
        // escapes into unmodeled memory; Jr and Branch operands steer
        // control. For each such instruction the full read set is the
        // barrier set. The wrapping/masked ops (Addi, logic, shifts,
        // Cmp/Cmpi — whose PSW write is a full overwrite) are trap-free
        // pure dataflow and stay barrier-less.
        let barriers: Vec<usize> = match instr {
            Instr::Add { .. }
            | Instr::Sub { .. }
            | Instr::Mul { .. }
            | Instr::Div { .. }
            | Instr::Ld { .. }
            | Instr::St { .. }
            | Instr::Jr { .. }
            | Instr::Branch { .. } => reads.clone(),
            _ => Vec::new(),
        };
        let (kind, succs) = match instr {
            Instr::Halt => (NodeKind::Halt, Vec::new()),
            // Indirect jump: the target is a register value.
            Instr::Jr { .. } => (NodeKind::Normal, vec![sink]),
            Instr::Jmp { imm } => (NodeKind::Normal, vec![node_at(4 * u32::from(imm))]),
            Instr::Jal { imm } => (NodeKind::Normal, vec![node_at(4 * u32::from(imm))]),
            Instr::Branch { imm, .. } => {
                let fallthrough = node_at(addr.wrapping_add(4));
                let target = addr
                    .wrapping_add(4)
                    .wrapping_add((4 * i32::from(imm)) as u32);
                (NodeKind::Normal, vec![fallthrough, node_at(target)])
            }
            _ => (NodeKind::Normal, vec![node_at(addr.wrapping_add(4))]),
        };
        model.push(Node {
            label: format!("{addr:#x}: {instr}"),
            kind,
            reads,
            barriers,
            writes,
            succs,
        });
    }

    model.set_entry(node_at(program.entry));
    (model, index)
}

/// Memoization key: the exact inputs the analysis is a pure function of.
type CacheKey = (Vec<(u32, Vec<u32>)>, u32, MachineConfig, u64);

/// Process-wide memo of finished analyses. Campaigns re-analyze the same
/// (workload, horizon) pair constantly — every run/resume/bench iteration
/// over one workload replays an identical scratch execution — so the
/// second and later calls should cost a key compare, not a replay.
static ANALYSIS_CACHE: std::sync::OnceLock<std::sync::Mutex<Vec<(CacheKey, StaticAnalysis)>>> =
    std::sync::OnceLock::new();

/// Small FIFO bound: an entry is a few KiB, and a process rarely touches
/// more than a handful of (workload, horizon) pairs.
const ANALYSIS_CACHE_CAP: usize = 32;

/// Statically analyzes a Thor batch workload up to injection time
/// `horizon`.
///
/// The replay on a scratch [`TestCard`] observes nothing but the program
/// counter: it supplies the `time -> instruction` mapping that
/// [`Model::analyze`]'s suffix walk combines with the statically decoded
/// def/use sets into per-time dead windows. No reference trace of reads
/// and writes is collected.
///
/// Results are memoized per (program image, machine config, horizon) for
/// the life of the process: the analysis is a pure function of those
/// inputs, and campaign entry points re-request it for every run.
pub fn analyze_thor_program(
    program: &Program,
    config: MachineConfig,
    horizon: u64,
) -> StaticAnalysis {
    let key: CacheKey = (
        program
            .segments
            .iter()
            .map(|s| (s.base, s.words.clone()))
            .collect(),
        program.entry,
        config,
        horizon,
    );
    let cache = ANALYSIS_CACHE.get_or_init(|| std::sync::Mutex::new(Vec::new()));
    {
        let cache = cache.lock().expect("analysis cache lock");
        if let Some((_, hit)) = cache.iter().find(|(k, _)| *k == key) {
            return hit.clone();
        }
    }
    let analysis = analyze_thor_program_uncached(program, config, horizon);
    let mut cache = cache.lock().expect("analysis cache lock");
    if !cache.iter().any(|(k, _)| *k == key) {
        if cache.len() >= ANALYSIS_CACHE_CAP {
            cache.remove(0);
        }
        cache.push((key, analysis.clone()));
    }
    analysis
}

fn analyze_thor_program_uncached(
    program: &Program,
    config: MachineConfig,
    horizon: u64,
) -> StaticAnalysis {
    let (model, index) = {
        let _s = tracing::span(names::ANALYSIS_CFG);
        build_model(program, &config)
    };

    let replay = tracing::span(names::ANALYSIS_REPLAY);
    let mut card = TestCard::new(config);
    card.init();
    let mut timeline = Vec::new();
    if card.download(program).is_ok() {
        let limit = horizon.saturating_add(1).min(REPLAY_CAP);
        while card.machine().instret() < limit {
            match card.step() {
                Ok((info, _sync)) => match index.get(&info.pc) {
                    Some(&node) => timeline.push(node),
                    // Fell outside the decoded image: stop covering times.
                    None => break,
                },
                // Halt, EDM or any other debug event ends the timeline;
                // later injection times stay unpruned.
                Err(_) => break,
            }
        }
    }
    drop(replay);

    model.analyze(&timeline, horizon)
}

#[cfg(test)]
mod tests {
    use super::*;
    use goofi_core::LintKind;
    use thor_rd::{Cond, Instr};

    fn program(instrs: &[Instr]) -> Program {
        Program {
            segments: vec![thor_rd::Segment {
                base: 0,
                words: instrs.iter().map(|i| i.encode()).collect(),
            }],
            entry: 0,
            symbols: BTreeMap::new(),
        }
    }

    fn analyze(instrs: &[Instr], horizon: u64) -> StaticAnalysis {
        analyze_thor_program(&program(instrs), MachineConfig::default(), horizon)
    }

    #[test]
    fn straightline_overwrite_window_is_dead() {
        // R1 = 1; R1 = 2; R2 = R1; halt
        let sa = analyze(
            &[
                Instr::Li { rd: 1, imm: 1 },
                Instr::Li { rd: 1, imm: 2 },
                Instr::Addi {
                    rd: 2,
                    rs1: 1,
                    imm: 0,
                },
                Instr::Halt,
            ],
            10,
        );
        // Injecting into R1 at t=0 or t=1 dies before the t=2 read.
        assert_eq!(sa.dead.get("R1"), Some(&vec![(0, 1)]));
        // R2 is untouched until its guaranteed write at t=2, so a fault
        // any time before that write is dead too; after it the value is
        // latent — never read, never dead.
        assert_eq!(sa.dead.get("R2"), Some(&vec![(0, 2)]));
        assert!(!sa.is_dead("R2", 3));
        // The first store to R1 is a dead store.
        assert!(sa.lints.iter().any(|l| l.kind == LintKind::DeadStore));
        assert_eq!(sa.blocks, 1);
    }

    #[test]
    fn loops_keep_locations_live_across_the_back_edge() {
        // R1 = 3; loop: R1 = R1 - 1 (flags); bne loop; halt
        let sa = analyze(
            &[
                Instr::Li { rd: 1, imm: 3 },
                Instr::Li { rd: 2, imm: 1 },
                Instr::Sub {
                    rd: 1,
                    rs1: 1,
                    rs2: 2,
                }, // 2: loop head
                Instr::Branch {
                    cond: Cond::Ne,
                    imm: -2,
                },
                Instr::Halt,
            ],
            100,
        );
        // R1 is read by every Sub, so it is only dead before the first
        // write at t=0.
        assert_eq!(sa.dead.get("R1"), Some(&vec![(0, 0)]));
        // PSW: dead until the first flag write, and between each branch
        // read and the following Sub rewrite.
        let psw = sa.dead.get("PSW").expect("PSW has dead windows");
        assert!(psw.contains(&(0, 2)), "PSW windows: {psw:?}");
        assert!(sa.blocks >= 3);
    }

    #[test]
    fn indirect_jumps_are_resolved_by_the_replay() {
        // R1 = 16; jr R1; (target) R2 = 1; R2 = 2; halt
        let sa = analyze(
            &[
                Instr::Li { rd: 1, imm: 16 },
                Instr::Jr { rs1: 1 },
                Instr::Nop,
                Instr::Nop,
                Instr::Li { rd: 2, imm: 1 }, // 0x10, reached via jr
                Instr::Li { rd: 2, imm: 2 },
                Instr::Halt,
            ],
            10,
        );
        // The CFG alone cannot see through the jr (its successor is the
        // unknown sink), but the replayed path can: from t=0 or t=1 the
        // first R2 event is the guaranteed write at t=2, so the whole
        // prefix is dead — exactly what the trace-based analysis would
        // conclude. Past the second write the value is latent (kept).
        assert_eq!(sa.dead.get("R2"), Some(&vec![(0, 3)]));
        assert!(!sa.is_dead("R2", 4));
        // The jr itself reads R1, so R1 is live at t=1.
        assert!(sa.is_dead("R1", 0) && !sa.is_dead("R1", 1));
        // The CFG side stays poisoned: the jr's only successor is the
        // unknown sink, so the jump target is not CFG-reachable — it is
        // reported unreachable and excluded from the dead-store lint
        // even though the replay proves the first `li r2` dead.
        assert!(sa.lints.iter().any(|l| l.kind == LintKind::UnreachableCode));
        assert!(!sa.lints.iter().any(|l| l.kind == LintKind::DeadStore));
        assert_eq!(sa.steps, 4, "halt ends the replay");
    }

    #[test]
    fn propagating_fault_washes_out_through_safe_ops() {
        // R1 = 5; R2 = R1 & 0xF; R2 = 7; R1 = 0; halt
        let sa = analyze(
            &[
                Instr::Li { rd: 1, imm: 5 },
                Instr::Andi {
                    rd: 2,
                    rs1: 1,
                    imm: 0xF,
                },
                Instr::Li { rd: 2, imm: 7 },
                Instr::Li { rd: 1, imm: 0 },
                Instr::Halt,
            ],
            10,
        );
        // A fault in R1 at t=1 is *read* by the Andi (so never dead),
        // but the corruption it spreads into R2 is overwritten at t=2
        // and R1 itself at t=3: the whole cone washes out by step 3.
        assert_eq!(sa.dead.get("R1"), Some(&vec![(0, 0), (2, 3)]));
        assert_eq!(
            sa.washout.get("R1"),
            Some(&vec![(0, 0, 0), (1, 1, 3), (2, 3, 3)])
        );
    }

    #[test]
    fn trap_prone_arithmetic_is_a_propagation_barrier() {
        // Same shape, but the read is a checked Add: a corrupted operand
        // could overflow-trap, so nothing is claimed for the read window.
        let sa = analyze(
            &[
                Instr::Li { rd: 1, imm: 5 },
                Instr::Add {
                    rd: 2,
                    rs1: 1,
                    rs2: 1,
                },
                Instr::Li { rd: 2, imm: 7 },
                Instr::Li { rd: 1, imm: 0 },
                Instr::Halt,
            ],
            10,
        );
        assert_eq!(sa.washout.get("R1"), Some(&vec![(0, 0, 0), (2, 3, 3)]));
    }

    #[test]
    fn times_after_halt_are_never_dead() {
        let sa = analyze(
            &[
                Instr::Li { rd: 1, imm: 1 },
                Instr::Li { rd: 1, imm: 2 },
                Instr::Halt,
            ],
            1000,
        );
        assert_eq!(sa.dead.get("R1"), Some(&vec![(0, 1)]));
        assert!(!sa.is_dead("R1", 500));
    }

    #[test]
    fn never_terminating_workload_is_linted() {
        let sa = analyze(&[Instr::Jmp { imm: 0 }], 5);
        assert!(sa
            .lints
            .iter()
            .any(|l| l.kind == LintKind::NoPathToTermination));
    }

    #[test]
    fn read_of_reset_zero_register_is_linted() {
        // R2 = R9 + 1 with R9 never written anywhere.
        let sa = analyze(
            &[
                Instr::Addi {
                    rd: 2,
                    rs1: 9,
                    imm: 1,
                },
                Instr::Halt,
            ],
            5,
        );
        assert!(sa
            .lints
            .iter()
            .any(|l| l.kind == LintKind::ReadNeverWritten && l.message.contains("R9")));
    }
}
