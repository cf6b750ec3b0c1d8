//! Fault-propagation (taint washout) analysis over the replayed timeline.
//!
//! The dead-window analysis in [`Model::analyze`] only proves faults whose
//! first use is a *write* — the corrupted value is overwritten before
//! anything reads it. This module proves a strictly larger family: faults
//! whose corrupted value **is** read, but whose entire propagation cone
//! provably washes out of the architectural state before the run ends.
//! For such a fault the faulty execution re-converges with the fault-free
//! reference — same path, same terminal state, same outputs — so its
//! verdict can be *predicted* as the reference outcome with zero
//! execution.
//!
//! The abstract domain is a taint set over the model's interned
//! locations, walked forward along the concrete replay timeline:
//!
//! * An instruction none of whose reads are tainted writes clean values:
//!   its writes *leave* the taint set.
//! * An instruction reading a tainted location conservatively taints
//!   every value it writes — except locations the frontend declared
//!   *path-determined* (e.g. the StackVM stack pointers), whose written
//!   value depends only on the control-flow position and therefore stays
//!   clean as long as control has not diverged.
//! * A tainted value reaching a **barrier read** is a hazard: the walk
//!   stops and nothing is claimed. Barrier reads are where divergence
//!   could escape the domain — control-flow operands (branch flags,
//!   indirect-jump registers, return slots), memory-address operands, and
//!   operands of instructions that can trap on data values (Thor's
//!   checked arithmetic). Each ISA frontend marks its own barriers.
//! * Reaching a halt, an [`NodeKind::Unknown`] point, or the end of the
//!   replay with live taint is likewise a hazard (the residue would be a
//!   latent state difference).
//!
//! Because control provably never diverges before the taint dies, the
//! faulty run executes the exact reference instruction sequence — which
//! is what licenses walking the *reference* timeline in the first place.
//!
//! The result is a per-location list of *washout windows*
//! `(start, end, died_by)`: a fault injected anywhere in
//! `[start, end]` has provably left the state after step `died_by`
//! executes. [`Model::analyze`]'s first-touch walk seeds one taint walk
//! per run of times sharing a read first touch — exactly its
//! equivalence windows — because every injection time in such a run
//! yields the same post-touch propagation.

use crate::model::{Model, NodeKind};

/// Global budget of taint-walk steps per analysis, so a pathological
/// workload cannot make the analyzer quadratic. Walks past the budget
/// claim nothing (conservative). The bound is deterministic: groups are
/// visited in (location, time) order on every run.
const WALK_BUDGET_FLOOR: usize = 1 << 20;

/// A fixed-width bitset over interned location ids.
#[derive(Clone)]
struct Taint {
    words: Vec<u64>,
}

impl Taint {
    fn new(len: usize) -> Taint {
        Taint {
            words: vec![0; len],
        }
    }

    fn insert(&mut self, id: usize) {
        self.words[id / 64] |= 1 << (id % 64);
    }

    fn intersects(&self, mask: &[u64]) -> bool {
        self.words.iter().zip(mask).any(|(a, b)| a & b != 0)
    }

    fn union(&mut self, mask: &[u64]) {
        for (a, b) in self.words.iter_mut().zip(mask) {
            *a |= b;
        }
    }

    fn subtract(&mut self, mask: &[u64]) {
        for (a, b) in self.words.iter_mut().zip(mask) {
            *a &= !b;
        }
    }

    fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }
}

/// Per-node def/use bitmasks, precomputed once per analysis.
struct NodeMasks {
    reads: Vec<u64>,
    barriers: Vec<u64>,
    writes: Vec<u64>,
    /// Writes excluding path-determined locations (tainted-read case).
    writes_unstable: Vec<u64>,
    /// Path-determined writes only: clean even on tainted input.
    writes_stable: Vec<u64>,
}

fn mask_of(ids: &[usize], words: usize) -> Vec<u64> {
    let mut m = vec![0u64; words];
    for &id in ids {
        m[id / 64] |= 1 << (id % 64);
    }
    m
}

/// Walks the taint of a single seed location forward from `from` (its
/// first-touch step). Returns `Some(step)` when the taint set empties
/// after executing `step`, `None` on any hazard (barrier read, halt or
/// unknown point with live taint, end of replay, budget exhaustion).
fn walk(
    model: &Model,
    masks: &[NodeMasks],
    timeline: &[usize],
    seed: usize,
    from: usize,
    budget: &mut usize,
) -> Option<u64> {
    let words = masks.first().map_or(1, |m| m.reads.len());
    let mut taint = Taint::new(words);
    taint.insert(seed);
    for (s, &n) in timeline.iter().enumerate().skip(from) {
        if *budget == 0 {
            return None;
        }
        *budget -= 1;
        if model.nodes()[n].kind != NodeKind::Normal {
            // Halt or Unknown with live taint: latent residue / anything
            // may happen. (Empty taint returned before reaching here.)
            return None;
        }
        let m = &masks[n];
        if taint.intersects(&m.reads) {
            if taint.intersects(&m.barriers) {
                return None;
            }
            taint.union(&m.writes_unstable);
            // Path-determined writes stay clean even on tainted input.
            taint.subtract(&m.writes_stable);
        } else {
            taint.subtract(&m.writes);
        }
        if taint.is_empty() {
            return Some(s as u64);
        }
    }
    None
}

/// The taint walker over one replayed timeline: per-node def/use masks,
/// built once, and the step budget every walk of the analysis shares.
pub(crate) struct Washout<'a> {
    model: &'a Model,
    timeline: &'a [usize],
    masks: Vec<NodeMasks>,
    budget: usize,
}

impl<'a> Washout<'a> {
    /// A walker over `timeline`, whose budget scales with the `covered`
    /// injection times.
    pub(crate) fn new(model: &'a Model, timeline: &'a [usize], covered: usize) -> Washout<'a> {
        let words = model.locations().len().div_ceil(64);
        let masks = model
            .nodes()
            .iter()
            .map(|node| {
                let (stable, unstable): (Vec<usize>, Vec<usize>) = node
                    .writes
                    .iter()
                    .copied()
                    .partition(|&w| model.is_path_determined(w));
                NodeMasks {
                    reads: mask_of(&node.reads, words),
                    barriers: mask_of(&node.barriers, words),
                    writes: mask_of(&node.writes, words),
                    writes_unstable: mask_of(&unstable, words),
                    writes_stable: mask_of(&stable, words),
                }
            })
            .collect();
        Washout {
            model,
            timeline,
            masks,
            budget: (covered * 64).max(WALK_BUDGET_FLOOR),
        }
    }

    /// The step after which corruption of location `l` has left the
    /// state, for faults whose first touch is the read at timeline step
    /// `touch`; `None` when that read is a barrier or the walk meets a
    /// hazard. Callers walk in (location, time) order, so the shared
    /// budget runs out at the same walk on every run.
    pub(crate) fn died_by(&mut self, l: usize, touch: usize) -> Option<u64> {
        let node = &self.model.nodes()[self.timeline[touch]];
        if node.barriers.contains(&l) {
            return None;
        }
        walk(
            self.model,
            &self.masks,
            self.timeline,
            l,
            touch,
            &mut self.budget,
        )
    }
}
