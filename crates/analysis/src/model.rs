//! The target-independent half of the static analyzer: a CFG of program
//! points with def/use sets, the dataflow fixpoints over it, and the
//! assembly of a [`StaticAnalysis`] summary from a concrete replay
//! timeline.
//!
//! A node is one *program point* — for Thor an instruction address, for
//! the StackVM an abstract `(pc, stack shape)` state — annotated with the
//! architectural locations it reads and writes (from the ISA's shared
//! def/use tables). The analyses that run over the graph:
//!
//! * **write-before-read** (backward, *must*, least fixpoint): at which
//!   points is a location guaranteed to be overwritten before any read on
//!   every path? Powers the dead-store lint; the pruning windows
//!   themselves come from [`Model::analyze`]'s first-touch walk over the
//!   replayed path, which refines this fact with the one path the
//!   workload actually takes.
//! * **may-written** (forward, *may*): has any path written the location
//!   before this point? Powers the read-never-written lint.
//! * **reachability** (forward) and **can-reach-halt** (backward) for the
//!   unreachable-code and no-path-to-termination lints.
//!
//! Nodes of kind [`NodeKind::Unknown`] model everything the analysis
//! cannot see (indirect jumps, undecodable words, trapping
//! configurations, jumps out of the model): for the *must* analysis they
//! are "nothing is dead past this point", for the lint analyses they are
//! "anything may happen", so both stay conservative.

use crate::propagation::Washout;
use goofi_core::{Lint, LintKind, StaticAnalysis};
use goofi_telemetry::names;
use std::collections::{BTreeMap, BTreeSet};

/// What kind of program point a node is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum NodeKind {
    /// An ordinary instruction with known semantics and successors.
    #[default]
    Normal,
    /// A terminating instruction (halt): execution ends here.
    Halt,
    /// A point beyond the model's knowledge: indirect jump, illegal or
    /// undecodable instruction, trap, or a jump outside the decoded
    /// program. Anything may happen from here.
    Unknown,
}

/// One program point with its def/use sets and successors.
#[derive(Debug, Clone, Default)]
pub struct Node {
    /// Human-readable position ("0x1c: add r1, r2, r3"). Nodes with an
    /// empty label are synthetic (e.g. the out-of-model sink) and are
    /// excluded from lints.
    pub label: String,
    /// Program-point kind.
    pub kind: NodeKind,
    /// Interned location ids this point reads (before any write).
    pub reads: Vec<usize>,
    /// Interned location ids this point writes.
    pub writes: Vec<usize>,
    /// Subset of `reads` the propagation analysis must treat as hazards
    /// when tainted: control-flow operands (branch flags, indirect-jump
    /// targets, return slots), memory-address operands, and operands of
    /// instructions that can trap on data values. A fault whose taint
    /// reaches a barrier read may diverge control or state the model
    /// cannot follow, so its washout is never claimed.
    pub barriers: Vec<usize>,
    /// Successor node indices. Empty for `Halt` and `Unknown` nodes.
    pub succs: Vec<usize>,
}

/// The workload CFG plus its interned location table.
#[derive(Debug, Default)]
pub struct Model {
    locations: Vec<String>,
    location_ids: BTreeMap<String, usize>,
    nodes: Vec<Node>,
    entry: usize,
    /// Locations architecturally initialised before the entry point
    /// (e.g. the StackVM's stack pointers); reads of these never trigger
    /// the read-never-written lint.
    initialized: BTreeSet<usize>,
    /// Locations whose written value depends only on the control-flow
    /// position, never on data (e.g. the StackVM's stack pointers, which
    /// move by a per-opcode constant). As long as control has not
    /// diverged — which the propagation barriers guarantee — a write to
    /// such a location always lands the reference value, so it stays
    /// clean even when the writing instruction read tainted data.
    path_determined: BTreeSet<usize>,
}

impl Model {
    /// An empty model.
    pub fn new() -> Model {
        Model::default()
    }

    /// Interns a location name, returning its id.
    pub fn location(&mut self, name: &str) -> usize {
        if let Some(&id) = self.location_ids.get(name) {
            return id;
        }
        let id = self.locations.len();
        self.locations.push(name.to_owned());
        self.location_ids.insert(name.to_owned(), id);
        id
    }

    /// Marks a location as initialised before entry (suppresses the
    /// read-never-written lint for it).
    pub fn assume_initialized(&mut self, name: &str) {
        let id = self.location(name);
        self.initialized.insert(id);
    }

    /// Marks a location's written values as determined by the control
    /// path alone (see [`Model::is_path_determined`] on the field docs):
    /// the propagation analysis keeps its writes clean even under
    /// tainted inputs.
    pub fn assume_path_determined(&mut self, name: &str) {
        let id = self.location(name);
        self.path_determined.insert(id);
    }

    /// Whether writes to location id `id` are path-determined.
    pub(crate) fn is_path_determined(&self, id: usize) -> bool {
        self.path_determined.contains(&id)
    }

    /// Appends a node, returning its index.
    pub fn push(&mut self, node: Node) -> usize {
        self.nodes.push(node);
        self.nodes.len() - 1
    }

    /// Sets the entry node.
    pub fn set_entry(&mut self, entry: usize) {
        self.entry = entry;
    }

    /// The node table.
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// The interned location names.
    pub fn locations(&self) -> &[String] {
        &self.locations
    }

    /// Forward reachability from the entry.
    fn reachable(&self) -> Vec<bool> {
        let mut seen = vec![false; self.nodes.len()];
        if self.nodes.is_empty() {
            return seen;
        }
        let mut stack = vec![self.entry];
        seen[self.entry] = true;
        while let Some(n) = stack.pop() {
            for &s in &self.nodes[n].succs {
                if !seen[s] {
                    seen[s] = true;
                    stack.push(s);
                }
            }
        }
        seen
    }

    /// The write-before-read *must* analysis, per location per node:
    /// `wbr[l][n]` is true iff on **every** path from `n`, location `l`
    /// is written before it is read (and the write actually happens —
    /// paths that never touch `l` keep it false, so a latent fault is
    /// never declared dead). Least fixpoint from all-false, so loops
    /// converge to the conservative answer.
    pub(crate) fn write_before_read(&self) -> Vec<Vec<bool>> {
        let mut wbr = vec![vec![false; self.nodes.len()]; self.locations.len()];
        for (l, wbr_l) in wbr.iter_mut().enumerate() {
            let mut changed = true;
            while changed {
                changed = false;
                // Reverse order converges fast on mostly-forward CFGs.
                for n in (0..self.nodes.len()).rev() {
                    let node = &self.nodes[n];
                    let v = match node.kind {
                        NodeKind::Halt | NodeKind::Unknown => false,
                        NodeKind::Normal => {
                            if node.reads.contains(&l) {
                                false
                            } else if node.writes.contains(&l) {
                                true
                            } else {
                                !node.succs.is_empty() && node.succs.iter().all(|&s| wbr_l[s])
                            }
                        }
                    };
                    if v != wbr_l[n] {
                        wbr_l[n] = v;
                        changed = true;
                    }
                }
            }
        }
        wbr
    }

    /// Forward *may*-written: `written[l][n]` is true iff some path from
    /// the entry to the point **before** `n` writes `l`. Unknown nodes
    /// write everything downstream of them.
    fn may_written(&self) -> Vec<Vec<bool>> {
        let mut written = vec![vec![false; self.nodes.len()]; self.locations.len()];
        let mut changed = true;
        while changed {
            changed = false;
            for n in 0..self.nodes.len() {
                let node = &self.nodes[n];
                for &s in &node.succs {
                    for (l, written_l) in written.iter_mut().enumerate() {
                        let out = matches!(node.kind, NodeKind::Unknown)
                            || written_l[n]
                            || node.writes.contains(&l);
                        if out && !written_l[s] {
                            written_l[s] = true;
                            changed = true;
                        }
                    }
                }
            }
        }
        written
    }

    /// Which nodes can reach a `Halt` node. Unknown nodes count as
    /// possibly terminating.
    fn can_reach_halt(&self) -> Vec<bool> {
        let mut can = vec![false; self.nodes.len()];
        let mut changed = true;
        while changed {
            changed = false;
            for n in (0..self.nodes.len()).rev() {
                if can[n] {
                    continue;
                }
                let node = &self.nodes[n];
                let v = match node.kind {
                    NodeKind::Halt | NodeKind::Unknown => true,
                    NodeKind::Normal => node.succs.iter().any(|&s| can[s]),
                };
                if v {
                    can[n] = true;
                    changed = true;
                }
            }
        }
        can
    }

    /// Basic-block structure over the reachable subgraph: a node leads a
    /// block iff it is the entry, has more than one reachable
    /// predecessor, or its single predecessor branches. Returns
    /// `(blocks, edges)` where edges are block-to-block transitions.
    fn block_counts(&self, reachable: &[bool]) -> (usize, usize) {
        let mut preds = vec![0usize; self.nodes.len()];
        let mut branching_pred = vec![false; self.nodes.len()];
        for (n, node) in self.nodes.iter().enumerate() {
            if !reachable[n] {
                continue;
            }
            for &s in &node.succs {
                preds[s] += 1;
                if node.succs.len() > 1 {
                    branching_pred[s] = true;
                }
            }
        }
        let leader =
            |n: usize| reachable[n] && (n == self.entry || preds[n] != 1 || branching_pred[n]);
        let blocks = (0..self.nodes.len()).filter(|&n| leader(n)).count();
        let edges = self
            .nodes
            .iter()
            .enumerate()
            .filter(|&(n, _)| reachable[n])
            .flat_map(|(_, node)| node.succs.iter())
            .filter(|&&s| leader(s))
            .count();
        (blocks, edges)
    }

    /// The workload lints.
    fn lints(&self, reachable: &[bool], wbr: &[Vec<bool>]) -> Vec<Lint> {
        let mut lints: BTreeSet<(u8, String)> = BTreeSet::new();

        // Unreachable code: one summary lint, not one per instruction.
        let unreachable: Vec<&str> = self
            .nodes
            .iter()
            .enumerate()
            .filter(|(n, node)| !reachable[*n] && !node.label.is_empty())
            .map(|(_, node)| node.label.as_str())
            .collect();
        if let Some(first) = unreachable.first() {
            lints.insert((
                0,
                format!(
                    "{} instruction(s) unreachable from the entry, first at `{first}`",
                    unreachable.len()
                ),
            ));
        }

        // Dead stores: the written value is overwritten before any read
        // on every path (the must form — never flags values that a later
        // scan-chain observation or result read-back could still see).
        for (n, node) in self.nodes.iter().enumerate() {
            if !reachable[n] || node.kind != NodeKind::Normal || node.label.is_empty() {
                continue;
            }
            for &l in &node.writes {
                if !node.succs.is_empty() && node.succs.iter().all(|&s| wbr[l][s]) {
                    lints.insert((
                        1,
                        format!(
                            "store to {} at `{}` is overwritten before any read",
                            self.locations[l], node.label
                        ),
                    ));
                }
            }
        }

        // Reads of never-written locations (modulo reset-initialised
        // state the frontend vouches for).
        let written = self.may_written();
        for (n, node) in self.nodes.iter().enumerate() {
            if !reachable[n] || node.kind != NodeKind::Normal || node.label.is_empty() {
                continue;
            }
            for &l in &node.reads {
                if !written[l][n] && !self.initialized.contains(&l) {
                    lints.insert((
                        2,
                        format!(
                            "{} is read at `{}` but no path writes it first",
                            self.locations[l], node.label
                        ),
                    ));
                }
            }
        }

        // Termination.
        if !self.nodes.is_empty() && !self.can_reach_halt()[self.entry] {
            lints.insert((3, "no path from the entry reaches a halt".to_owned()));
        }

        lints
            .into_iter()
            .map(|(code, message)| Lint {
                kind: match code {
                    0 => LintKind::UnreachableCode,
                    1 => LintKind::DeadStore,
                    2 => LintKind::ReadNeverWritten,
                    _ => LintKind::NoPathToTermination,
                },
                message,
            })
            .collect()
    }

    /// Combines the CFG fixpoints (lints, block structure) with a
    /// concrete replay timeline into the persistable summary.
    /// `timeline[t]` is the node about to execute at injection time `t`
    /// (times the replay did not cover — after a halt, trap or the
    /// horizon — are simply absent, hence never dead).
    ///
    /// Every window comes from one backward walk per location over the
    /// replayed path, which finds the *first touch* at or after each
    /// time: the first node whose static def/use reads or writes the
    /// location. Halt and Unknown nodes are barriers (a halt ends
    /// execution, an unknown point may read anything), and past the end
    /// of the replay nothing is claimed, mirroring the dynamic analysis
    /// keeping `FirstUse::Never` faults as possibly latent. For every
    /// modeled location the static def/use of the executed node equals
    /// what the instrumented machine would record dynamically (register
    /// operands are fixed by the encoding; stack cells by the abstract
    /// stack shape the timeline keys on), so these are exactly the
    /// trace-based first-use verdicts — computed without recording any
    /// read/write trace. Each run of times sharing a first touch gives:
    ///
    /// * an **equivalence window**: until the touch the fault-free path
    ///   never consults the location, so a single-activation mutation
    ///   anywhere in the run yields the same post-injection state;
    /// * when the touch is a pure write, a **dead** run (adjacent dead
    ///   runs merge into one dead window) whose faults die at the touch;
    /// * otherwise the seed of the taint walk
    ///   ([`crate::propagation::Washout`]) deciding whether its faults
    ///   wash out. Dead runs are washout windows too, dying at the touch.
    pub fn analyze(&self, timeline: &[usize], horizon: u64) -> StaticAnalysis {
        let reachable = self.reachable();
        let wbr = self.write_before_read();
        let (blocks, edges) = self.block_counts(&reachable);

        let covered = timeline.len().min(
            usize::try_from(horizon)
                .unwrap_or(usize::MAX)
                .saturating_add(1),
        );
        let span = tracing::span(names::ANALYSIS_WINDOWS);
        let mut walker = Washout::new(self, timeline, covered);
        let mut dead: BTreeMap<String, Vec<(u64, u64)>> = BTreeMap::new();
        let mut equiv: BTreeMap<String, Vec<(u64, u64)>> = BTreeMap::new();
        let mut washout: BTreeMap<String, Vec<(u64, u64, u64)>> = BTreeMap::new();
        for (l, name) in self.locations.iter().enumerate() {
            let groups = self.first_touch_groups(l, timeline, covered);
            if groups.is_empty() {
                continue;
            }
            let mut dead_l: Vec<(u64, u64)> = Vec::new();
            let mut washout_l = Vec::new();
            for g in &groups {
                let died = if g.pure_write {
                    match dead_l.last_mut() {
                        Some((_, end)) if *end + 1 == g.start => *end = g.end,
                        _ => dead_l.push((g.start, g.end)),
                    }
                    Some(g.touch as u64)
                } else {
                    walker.died_by(l, g.touch)
                };
                if let Some(died) = died {
                    washout_l.push((g.start, g.end, died));
                }
            }
            equiv.insert(
                name.clone(),
                groups.iter().map(|g| (g.start, g.end)).collect(),
            );
            if !dead_l.is_empty() {
                dead.insert(name.clone(), dead_l);
            }
            if !washout_l.is_empty() {
                washout.insert(name.clone(), washout_l);
            }
        }
        drop(span);

        StaticAnalysis {
            horizon,
            steps: timeline.len() as u64,
            blocks,
            edges,
            dead,
            equiv,
            washout,
            lints: self.lints(&reachable, &wbr),
            classes: Vec::new(),
            eligible_faults: 0,
            singleton_classes: 0,
        }
    }

    /// The first-touch walk for location `l`: one backward pass over the
    /// timeline, returning the runs of injection times below `covered`
    /// that share a first touch, in time order. Each run ends at its
    /// touch (or at the last covered time).
    fn first_touch_groups(&self, l: usize, timeline: &[usize], covered: usize) -> Vec<TouchGroup> {
        let mut groups: Vec<TouchGroup> = Vec::new();
        let mut touch: Option<usize> = None;
        for (t, &n) in timeline.iter().enumerate().rev() {
            let node = &self.nodes[n];
            touch = match node.kind {
                NodeKind::Halt | NodeKind::Unknown => None,
                NodeKind::Normal if node.reads.contains(&l) || node.writes.contains(&l) => Some(t),
                NodeKind::Normal => touch,
            };
            let Some(u) = touch.filter(|_| t < covered) else {
                continue;
            };
            // Times sharing a touch are contiguous: walking backward, a
            // run only ever extends the one pushed last.
            match groups.last_mut() {
                Some(g) if g.touch == u => g.start = t as u64,
                _ => groups.push(TouchGroup {
                    start: t as u64,
                    end: t as u64,
                    touch: u,
                    pure_write: !self.nodes[timeline[u]].reads.contains(&l),
                }),
            }
        }
        groups.reverse();
        groups
    }
}

/// A maximal run `[start, end]` of injection times whose first touch of
/// one location is timeline step `touch`.
struct TouchGroup {
    start: u64,
    end: u64,
    touch: usize,
    /// Whether the touch writes the location without reading it.
    pure_write: bool,
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `r = 1; loop n times { x = r; r = 2 }; halt` shaped micro-CFG:
    ///
    /// ```text
    /// 0: write A          (entry)
    /// 1: read A, write B  (loop head)  -> 2
    /// 2: write A          -> 3
    /// 3: branch           -> 1, 4
    /// 4: halt
    /// 5: write B          (unreachable)
    /// ```
    fn sample() -> Model {
        let mut m = Model::new();
        let a = m.location("A");
        let b = m.location("B");
        m.push(Node {
            label: "0: write A".into(),
            writes: vec![a],
            succs: vec![1],
            ..Node::default()
        });
        m.push(Node {
            label: "1: read A write B".into(),
            reads: vec![a],
            writes: vec![b],
            succs: vec![2],
            ..Node::default()
        });
        m.push(Node {
            label: "2: write A".into(),
            writes: vec![a],
            succs: vec![3],
            ..Node::default()
        });
        m.push(Node {
            label: "3: branch".into(),
            succs: vec![1, 4],
            ..Node::default()
        });
        m.push(Node {
            label: "4: halt".into(),
            kind: NodeKind::Halt,
            ..Node::default()
        });
        m.push(Node {
            label: "5: write B".into(),
            writes: vec![b],
            succs: vec![4],
            ..Node::default()
        });
        m.set_entry(0);
        m
    }

    #[test]
    fn write_before_read_handles_loops_conservatively() {
        let m = sample();
        let wbr = m.write_before_read();
        let (a, b) = (0, 1);
        // Before node 0, A is written before any read on the only path.
        assert!(wbr[a][0]);
        // At the loop head A is read immediately.
        assert!(!wbr[a][1]);
        // After the loop-head read, node 2 rewrites A... but node 3 can
        // exit to halt without writing A, so A is NOT dead at 2/3.
        assert!(wbr[a][2], "node 2 itself writes A");
        assert!(!wbr[a][3], "the exit path never writes A again");
        // B is written at the loop head and only ever overwritten:
        // no node reads B, but the halt exit means no guaranteed write.
        assert!(!wbr[b][3]);
        assert!(!wbr[b][4], "nothing is dead at a halt");
    }

    #[test]
    fn timeline_windows_compress_consecutive_times() {
        let m = sample();
        // Concrete run: 0 1 2 3 1 2 3 4 (two loop iterations).
        let timeline = [0, 1, 2, 3, 1, 2, 3, 4];
        let sa = m.analyze(&timeline, 7);
        // A: the suffix from t=0 hits node 0's write first (dead), from
        // t=1/t=4 the loop head's read (live), from t=2/t=5 node 2's
        // write (dead), and from t=3/t=6 the read on the next iteration
        // or nothing at all before the halt (live).
        assert_eq!(sa.dead.get("A"), Some(&vec![(0, 0), (2, 2), (5, 5)]));
        // B is never read: every time up to its last write at t=4 walks
        // into a write first, and past it the value is latent (kept).
        assert_eq!(sa.dead.get("B"), Some(&vec![(0, 4)]));
        assert!(sa.is_dead("A", 0));
        assert!(!sa.is_dead("A", 3));
        assert!(!sa.is_dead("B", 5), "latent past the last write");
        assert_eq!(sa.steps, 8);
        // Equivalence windows are keyed by the first touch (read OR
        // write): t=3 and t=4 both first meet A at the loop-head read on
        // the second iteration (t=4), so they form one window; every
        // other time touches A at itself.
        assert_eq!(
            sa.equiv.get("A"),
            Some(&vec![(0, 0), (1, 1), (2, 2), (3, 4), (5, 5)])
        );
        // B's dead window (0,4) splits into two equivalence windows: the
        // first write at t=1 serves t=0..1, the second write at t=4
        // serves t=2..4. Past the last write nothing touches B, so no
        // window is claimed (mirrors the latent verdict).
        assert_eq!(sa.equiv.get("B"), Some(&vec![(0, 1), (2, 4)]));
    }

    #[test]
    fn horizon_truncates_the_timeline() {
        let m = sample();
        let timeline = [0, 1, 2, 3, 1, 2, 3, 4];
        let sa = m.analyze(&timeline, 2);
        assert_eq!(sa.dead.get("A"), Some(&vec![(0, 0), (2, 2)]));
        assert!(!sa.is_dead("A", 5), "beyond the horizon");
    }

    #[test]
    fn lints_cover_all_four_kinds() {
        let m = sample();
        let sa = m.analyze(&[], 0);
        assert!(sa
            .lints
            .iter()
            .any(|l| l.kind == LintKind::UnreachableCode && l.message.contains("5: write B")));
        // Node 1's write of B: succ node 2 does not make B
        // write-before-read (exit path never writes B) -> no dead-store
        // lint for the loop; the unreachable node is excluded.
        assert!(!sa.lints.iter().any(|l| l.kind == LintKind::DeadStore));
        assert!(!sa
            .lints
            .iter()
            .any(|l| l.kind == LintKind::NoPathToTermination));

        // A loop with no halt in sight.
        let mut m = Model::new();
        let a = m.location("A");
        m.push(Node {
            label: "0: read A".into(),
            reads: vec![a],
            succs: vec![0],
            ..Node::default()
        });
        m.set_entry(0);
        let sa = m.analyze(&[], 0);
        assert!(sa
            .lints
            .iter()
            .any(|l| l.kind == LintKind::NoPathToTermination));
        assert!(
            sa.lints
                .iter()
                .any(|l| l.kind == LintKind::ReadNeverWritten),
            "A is read but never written"
        );
    }

    #[test]
    fn dead_store_lint_fires_on_back_to_back_writes() {
        let mut m = Model::new();
        let a = m.location("A");
        m.push(Node {
            label: "0: write A".into(),
            writes: vec![a],
            succs: vec![1],
            ..Node::default()
        });
        m.push(Node {
            label: "1: write A".into(),
            writes: vec![a],
            succs: vec![2],
            ..Node::default()
        });
        m.push(Node {
            label: "2: read A".into(),
            reads: vec![a],
            succs: vec![3],
            ..Node::default()
        });
        m.push(Node {
            label: "3: halt".into(),
            kind: NodeKind::Halt,
            ..Node::default()
        });
        m.set_entry(0);
        let sa = m.analyze(&[0, 1, 2, 3], 3);
        let dead_stores: Vec<&Lint> = sa
            .lints
            .iter()
            .filter(|l| l.kind == LintKind::DeadStore)
            .collect();
        assert_eq!(dead_stores.len(), 1);
        assert!(dead_stores[0].message.contains("`0: write A`"));
        // And the window agrees: A is dead only at t=0.
        assert_eq!(sa.dead.get("A"), Some(&vec![(0, 1)]));
    }

    #[test]
    fn initialized_locations_are_not_linted() {
        let mut m = Model::new();
        let a = m.location("A");
        m.assume_initialized("A");
        m.push(Node {
            label: "0: read A".into(),
            reads: vec![a],
            succs: vec![1],
            ..Node::default()
        });
        m.push(Node {
            label: "1: halt".into(),
            kind: NodeKind::Halt,
            ..Node::default()
        });
        m.set_entry(0);
        let sa = m.analyze(&[], 0);
        assert!(sa.lints.is_empty(), "{:?}", sa.lints);
    }

    #[test]
    fn block_counts_group_straightline_runs() {
        let m = sample();
        let sa = m.analyze(&[], 0);
        // Reachable blocks: [0], [1,2,3] (1 is a join leader), [4].
        assert_eq!(sa.blocks, 3);
        // Edges: 0->1, 3->1, 3->4.
        assert_eq!(sa.edges, 3);
    }
}
