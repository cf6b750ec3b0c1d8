//! The first-touch walk behind `Model::analyze`, checked against a naive
//! oracle on random models, timelines and horizons: dead and equivalence
//! windows match a forward scan from every injection time to its first
//! touch, and the washout windows agree with both.

use goofi_analysis::{Model, Node, NodeKind};
use proptest::prelude::*;

const LOCATIONS: usize = 4;

/// One generated node: kind selector, then read, write and barrier
/// location masks.
type NodeSpec = (u8, u8, u8, u8);

fn ids(mask: u8) -> Vec<usize> {
    (0..LOCATIONS).filter(|&l| mask & (1 << l) != 0).collect()
}

fn name(l: usize) -> String {
    format!("L{l}")
}

/// A model over `LOCATIONS` locations: mostly Normal nodes, with Halt and
/// Unknown barriers mixed in; `stable` marks path-determined locations.
fn model(specs: &[NodeSpec], stable: u8) -> Model {
    let mut m = Model::new();
    for l in 0..LOCATIONS {
        m.location(&name(l));
    }
    for l in ids(stable) {
        m.assume_path_determined(&name(l));
    }
    for (i, &(kind, reads, writes, barriers)) in specs.iter().enumerate() {
        let kind = match kind {
            0 => NodeKind::Halt,
            1 => NodeKind::Unknown,
            _ => NodeKind::Normal,
        };
        let reads = ids(reads);
        m.push(Node {
            label: format!("{i}"),
            kind,
            // Barriers are a subset of the reads, as every frontend
            // builds them.
            barriers: ids(barriers)
                .into_iter()
                .filter(|l| reads.contains(l))
                .collect(),
            reads,
            writes: ids(writes),
            succs: match kind {
                NodeKind::Normal => vec![(i + 1) % specs.len()],
                _ => Vec::new(),
            },
        });
    }
    m.set_entry(0);
    m
}

/// The first touch of `l` at or after `t`, scanning forward: `None` when
/// a Halt or Unknown node or the end of the timeline comes first.
fn first_touch(m: &Model, timeline: &[usize], l: usize, t: usize) -> Option<usize> {
    for (s, &n) in timeline.iter().enumerate().skip(t) {
        let node = &m.nodes()[n];
        if node.kind != NodeKind::Normal {
            return None;
        }
        if node.reads.contains(&l) || node.writes.contains(&l) {
            return Some(s);
        }
    }
    None
}

/// Maximal runs of consecutive times sharing a key, skipping `None`s.
fn runs<K: PartialEq + Copy>(keys: &[Option<K>]) -> Vec<(u64, u64, K)> {
    let mut out: Vec<(u64, u64, K)> = Vec::new();
    for (t, key) in keys.iter().enumerate() {
        let Some(key) = *key else { continue };
        let t = t as u64;
        match out.last_mut() {
            Some((_, end, k)) if *end + 1 == t && *k == key => *end = t,
            _ => out.push((t, t, key)),
        }
    }
    out
}

proptest! {
    #[test]
    fn windows_match_a_forward_scan_oracle(
        specs in prop::collection::vec((0u8..8, 0u8..16, 0u8..16, 0u8..16), 1..8),
        stable in 0u8..16,
        raw_timeline in prop::collection::vec(0usize..64, 0..40),
        horizon in 0u64..48,
    ) {
        let m = model(&specs, stable);
        let timeline: Vec<usize> = raw_timeline.iter().map(|&n| n % specs.len()).collect();
        let sa = m.analyze(&timeline, horizon);
        let covered = timeline.len().min(horizon as usize + 1);
        for l in 0..LOCATIONS {
            let touches: Vec<Option<usize>> =
                (0..covered).map(|t| first_touch(&m, &timeline, l, t)).collect();
            let pure_write = |u: usize| !m.nodes()[timeline[u]].reads.contains(&l);

            let equiv: Vec<(u64, u64)> = runs(&touches).iter().map(|&(a, b, _)| (a, b)).collect();
            prop_assert_eq!(sa.equiv.get(&name(l)).cloned().unwrap_or_default(), equiv);

            let dead_at: Vec<Option<()>> = touches
                .iter()
                .map(|u| u.filter(|&u| pure_write(u)).map(|_| ()))
                .collect();
            let dead: Vec<(u64, u64)> = runs(&dead_at).iter().map(|&(a, b, _)| (a, b)).collect();
            prop_assert_eq!(sa.dead.get(&name(l)).cloned().unwrap_or_default(), dead);

            let equiv_l = sa.equiv.get(&name(l)).cloned().unwrap_or_default();
            let washout = sa.washout.get(&name(l)).cloned().unwrap_or_default();
            for &(start, end, died) in &washout {
                prop_assert!(
                    equiv_l.iter().any(|&(a, b)| a <= start && end <= b),
                    "washout ({start}, {end}, {died}) of L{l} spans equivalence windows {equiv_l:?}"
                );
            }
            for (start, end, u) in runs(&touches) {
                if pure_write(u) {
                    prop_assert!(
                        washout.contains(&(start, end, u as u64)),
                        "pure-write group ({start}, {end}) of L{l} touched at {u} missing from {washout:?}"
                    );
                }
            }
        }
    }
}
