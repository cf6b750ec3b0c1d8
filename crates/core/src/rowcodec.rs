//! The physical `LoggedSystemState` row: an experiment stored as its
//! difference from the campaign's reference run.
//!
//! The paper classifies every experiment by comparing it with the
//! fault-free reference (§3.4: *Overwritten* vs *Latent* is "state equal
//! to the reference or not"), and most rows repeat the reference's
//! outputs, termination and most of its state vector. The stored row is
//! that comparison. Its key columns (`experimentName`,
//! `parentExperiment`, `campaignName`) are the logical row's; the other
//! two are blobs:
//!
//! * `experimentData` — a flags byte, then only what the flags do not
//!   say is the base's:
//!
//!   ```text
//!   flags         u8   ON_REFERENCE | SAME_TERMINATION | SAME_OUTPUTS
//!                      | SAME_INSTRUCTIONS | HAS_FAULT | HAS_TRACE
//!   termination        unless SAME_TERMINATION: tag u8 + fields
//!   outputs            unless SAME_OUTPUTS: count, then each word
//!   instructions       unless SAME_INSTRUCTIONS
//!   iterations
//!   fault              if HAS_FAULT: model, targets, times
//!   detail trace       if HAS_TRACE: count, then each snapshot's bytes
//!   ```
//!
//!   Integers are LEB128 varints, strings and byte strings are a varint
//!   length and the bytes.
//! * `stateVector` — the vector's length, then runs of
//!   `(skip, n, n bytes)`: the vector XOR the base vector is zero except
//!   in those runs. Past the base's end the vector's bytes are stored as
//!   they are, so a corrupt length cannot claim more than the row holds.
//!   A row equal to its base stores only its length.
//!
//! The base is the campaign's reference record when the row was encoded
//! against it (`ON_REFERENCE`), and otherwise empty: no flags are set
//! and the vector is stored as one literal run. [`encode`] and
//! [`decode`] are the row as bytes, in the storage engine's row codec.
//!
//! A pruned or predicted row repeats the reference's outcome, so it is
//! written straight from the fault and the reference record without a
//! logical row ([`encode_decided`]): the flags say everything but the
//! iterations and the fault is the base's, and the vector is its length.

use crate::error::{GoofiError, Result};
use crate::fault::{FaultModel, Location, PlannedFault};
use crate::store::{row_fields, ExperimentData, ExperimentRecord};
use crate::target::TargetEvent;
use goofi_db::storage::{decode_row, encode_row};
use goofi_db::{Row, Value};

const ON_REFERENCE: u8 = 1;
const SAME_TERMINATION: u8 = 1 << 1;
const SAME_OUTPUTS: u8 = 1 << 2;
const SAME_INSTRUCTIONS: u8 = 1 << 3;
const HAS_FAULT: u8 = 1 << 4;
const HAS_TRACE: u8 = 1 << 5;
const SAME_AS_BASE: u8 = SAME_TERMINATION | SAME_OUTPUTS | SAME_INSTRUCTIONS;
const KNOWN_FLAGS: u8 = ON_REFERENCE | SAME_AS_BASE | HAS_FAULT | HAS_TRACE;

/// Zero runs up to this long stay inside a literal run: splitting the
/// run would cost at least as many header bytes.
const MAX_GAP: usize = 2;

/// Bytes compared at a time while skipping where a vector equals its
/// base.
const BLOCK: usize = 32;

/// `record` as a physical row's bytes, encoded against `base` (the
/// campaign's reference record) or, with `None`, the empty base.
pub fn encode(record: &ExperimentRecord, base: Option<&ExperimentRecord>) -> Vec<u8> {
    encode_row(&compact_row(record, base))
}

/// The physical row of a pruned or predicted experiment as bytes:
/// experiment `name` of `campaign`, injecting `fault`, with the outcome of
/// `reference`, the campaign's reference record. The same bytes as
/// [`encode`] of the record such a row stands for, against `reference`.
pub fn encode_decided(
    name: &str,
    campaign: &str,
    fault: &PlannedFault,
    reference: &ExperimentRecord,
) -> Vec<u8> {
    encode_row(&decided_row(name.to_owned(), campaign, fault, reference))
}

/// The record in bytes produced by [`encode`]. `base` must be the
/// reference record the row was encoded against; it is ignored for a
/// row encoded against the empty base.
///
/// # Errors
///
/// [`GoofiError::Protocol`] for malformed bytes, or for a row encoded
/// against the reference when `base` is `None`.
pub fn decode(bytes: &[u8], base: Option<&ExperimentRecord>) -> Result<ExperimentRecord> {
    let row = decode_row(bytes).map_err(|e| GoofiError::Protocol(e.to_string()))?;
    expand_row(&row, base)
}

/// The physical row of `record`, encoded against `base`.
pub(crate) fn compact_row(record: &ExperimentRecord, base: Option<&ExperimentRecord>) -> Row {
    let empty: &[u8] = &[];
    vec![
        record.name.as_str().into(),
        record.parent.as_deref().map_or(Value::Null, Value::from),
        record.campaign.as_str().into(),
        Value::Blob(encode_data(&record.data, base.map(|b| &b.data))),
        Value::Blob(xor_delta(
            &record.state_vector,
            base.map_or(empty, |b| &b.state_vector),
        )),
    ]
}

/// The physical row of a decided experiment, built straight from its
/// fault and `reference` without the logical row: every field but the
/// fault is the reference's, so `experimentData` is the flags, the
/// iterations and the fault, and `stateVector` is only the length.
pub(crate) fn decided_row(
    name: String,
    campaign: &str,
    fault: &PlannedFault,
    reference: &ExperimentRecord,
) -> Row {
    let mut data = vec![ON_REFERENCE | SAME_AS_BASE | HAS_FAULT];
    put_varint(&mut data, u64::from(reference.data.iterations));
    encode_fault(fault, &mut data);
    let mut vector = Vec::new();
    put_varint(&mut vector, reference.state_vector.len() as u64);
    vec![
        name.into(),
        Value::Null,
        campaign.into(),
        Value::Blob(data),
        Value::Blob(vector),
    ]
}

/// Whether the physical row `row` was encoded against its campaign's
/// reference record.
///
/// # Errors
///
/// [`GoofiError::Protocol`] when `experimentData` is not a non-empty
/// blob.
pub(crate) fn on_reference(row: &[Value]) -> Result<bool> {
    match row.get(3) {
        Some(Value::Blob(data)) => match data.first() {
            Some(flags) => Ok(flags & ON_REFERENCE != 0),
            None => Err(corrupt("empty experimentData")),
        },
        _ => Err(corrupt("experimentData not a blob")),
    }
}

/// The record of the physical row `row`; `base` as for [`decode`].
///
/// # Errors
///
/// As [`decode`].
pub(crate) fn expand_row(
    row: &[Value],
    base: Option<&ExperimentRecord>,
) -> Result<ExperimentRecord> {
    let (name, parent, campaign, data, vector) = row_fields(row)?;
    let (Value::Blob(data), Value::Blob(vector)) = (data, vector) else {
        return Err(corrupt("compact columns not blobs"));
    };
    let base = if on_reference(row)? {
        Some(base.ok_or_else(|| {
            GoofiError::Protocol(format!(
                "experiment `{name}` needs its campaign's reference row"
            ))
        })?)
    } else {
        None
    };
    let empty: &[u8] = &[];
    Ok(ExperimentRecord {
        name,
        parent,
        campaign,
        data: decode_data(data, base.map(|b| &b.data))?,
        state_vector: apply_delta(vector, base.map_or(empty, |b| &b.state_vector))?,
    })
}

fn corrupt(what: &str) -> GoofiError {
    GoofiError::Protocol(format!("corrupt compact experiment row: {what}"))
}

// ----------------------------------------------------------------------
// Primitive writers and the reader
// ----------------------------------------------------------------------

fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push(v as u8 | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

fn put_bytes(out: &mut Vec<u8>, bytes: &[u8]) {
    put_varint(out, bytes.len() as u64);
    out.extend_from_slice(bytes);
}

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf, pos: 0 }
    }

    fn at_end(&self) -> bool {
        self.pos == self.buf.len()
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&end| end <= self.buf.len())
            .ok_or_else(|| corrupt("truncated"))?;
        let out = &self.buf[self.pos..end];
        self.pos = end;
        Ok(out)
    }

    fn byte(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    fn varint(&mut self) -> Result<u64> {
        let mut v = 0u64;
        for shift in (0..64).step_by(7) {
            let b = self.byte()?;
            v |= u64::from(b & 0x7f) << shift;
            if b & 0x80 == 0 {
                return Ok(v);
            }
        }
        Err(corrupt("varint too long"))
    }

    fn usize(&mut self) -> Result<usize> {
        usize::try_from(self.varint()?).map_err(|_| corrupt("length out of range"))
    }

    fn u32(&mut self) -> Result<u32> {
        u32::try_from(self.varint()?).map_err(|_| corrupt("word out of range"))
    }

    fn bytes(&mut self) -> Result<&'a [u8]> {
        let n = self.usize()?;
        self.take(n)
    }

    fn string(&mut self) -> Result<String> {
        let bytes = self.bytes()?;
        String::from_utf8(bytes.to_vec()).map_err(|_| corrupt("string not UTF-8"))
    }

    /// A count of items that each take at least one byte, checked
    /// against the bytes left so a corrupt count cannot reserve memory.
    fn count(&mut self) -> Result<usize> {
        let n = self.usize()?;
        if n > self.buf.len() - self.pos {
            return Err(corrupt("count exceeds row"));
        }
        Ok(n)
    }
}

// ----------------------------------------------------------------------
// experimentData
// ----------------------------------------------------------------------

fn encode_data(data: &ExperimentData, base: Option<&ExperimentData>) -> Vec<u8> {
    let mut flags = 0;
    if let Some(base) = base {
        flags |= ON_REFERENCE;
        if data.termination == base.termination {
            flags |= SAME_TERMINATION;
        }
        if data.outputs == base.outputs {
            flags |= SAME_OUTPUTS;
        }
        if data.instructions == base.instructions {
            flags |= SAME_INSTRUCTIONS;
        }
    }
    if data.fault.is_some() {
        flags |= HAS_FAULT;
    }
    if data.detail_trace.is_some() {
        flags |= HAS_TRACE;
    }
    let mut out = vec![flags];
    if flags & SAME_TERMINATION == 0 {
        encode_event(&data.termination, &mut out);
    }
    if flags & SAME_OUTPUTS == 0 {
        put_varint(&mut out, data.outputs.len() as u64);
        for &word in &data.outputs {
            put_varint(&mut out, u64::from(word));
        }
    }
    if flags & SAME_INSTRUCTIONS == 0 {
        put_varint(&mut out, data.instructions);
    }
    put_varint(&mut out, u64::from(data.iterations));
    if let Some(fault) = &data.fault {
        encode_fault(fault, &mut out);
    }
    if let Some(trace) = &data.detail_trace {
        put_varint(&mut out, trace.len() as u64);
        for snapshot in trace {
            put_bytes(&mut out, snapshot);
        }
    }
    out
}

fn decode_data(bytes: &[u8], base: Option<&ExperimentData>) -> Result<ExperimentData> {
    let mut r = Reader::new(bytes);
    let flags = r.byte()?;
    if flags & !KNOWN_FLAGS != 0 {
        return Err(corrupt("unknown flags"));
    }
    if flags & SAME_AS_BASE != 0 && base.is_none() {
        return Err(corrupt("same-as-reference flag without a reference"));
    }
    let base_has = |flag: u8| base.filter(|_| flags & flag != 0);
    let termination = match base_has(SAME_TERMINATION) {
        Some(base) => base.termination.clone(),
        None => decode_event(&mut r)?,
    };
    let outputs = match base_has(SAME_OUTPUTS) {
        Some(base) => base.outputs.clone(),
        None => (0..r.count()?).map(|_| r.u32()).collect::<Result<_>>()?,
    };
    let instructions = match base_has(SAME_INSTRUCTIONS) {
        Some(base) => base.instructions,
        None => r.varint()?,
    };
    let iterations = r.u32()?;
    let fault = match flags & HAS_FAULT {
        0 => None,
        _ => Some(decode_fault(&mut r)?),
    };
    let detail_trace = match flags & HAS_TRACE {
        0 => None,
        _ => Some(
            (0..r.count()?)
                .map(|_| r.bytes().map(<[u8]>::to_vec))
                .collect::<Result<_>>()?,
        ),
    };
    if !r.at_end() {
        return Err(corrupt("trailing bytes in experimentData"));
    }
    Ok(ExperimentData {
        fault,
        termination,
        outputs,
        iterations,
        instructions,
        detail_trace,
    })
}

fn encode_event(event: &TargetEvent, out: &mut Vec<u8>) {
    match event {
        TargetEvent::Halted => out.push(0),
        TargetEvent::TimedOut => out.push(1),
        TargetEvent::IterationsDone => out.push(2),
        TargetEvent::BreakpointHit { time } => {
            out.push(3);
            put_varint(out, *time);
        }
        TargetEvent::Detected { mechanism, detail } => {
            out.push(4);
            put_bytes(out, mechanism.as_bytes());
            put_bytes(out, detail.as_bytes());
        }
    }
}

fn decode_event(r: &mut Reader<'_>) -> Result<TargetEvent> {
    Ok(match r.byte()? {
        0 => TargetEvent::Halted,
        1 => TargetEvent::TimedOut,
        2 => TargetEvent::IterationsDone,
        3 => TargetEvent::BreakpointHit { time: r.varint()? },
        4 => TargetEvent::Detected {
            mechanism: r.string()?,
            detail: r.string()?,
        },
        _ => return Err(corrupt("unknown termination")),
    })
}

fn encode_fault(fault: &PlannedFault, out: &mut Vec<u8>) {
    match fault.model {
        FaultModel::BitFlip => out.push(0),
        FaultModel::MultiBitFlip { bits } => {
            out.push(1);
            put_varint(out, bits as u64);
        }
        FaultModel::StuckAt {
            value,
            reassert_period,
        } => {
            out.push(2);
            out.push(u8::from(value));
            put_varint(out, reassert_period);
        }
        FaultModel::Intermittent { activations } => {
            out.push(3);
            put_varint(out, activations as u64);
        }
    }
    put_varint(out, fault.targets.len() as u64);
    for target in &fault.targets {
        match target {
            Location::ChainBit { chain, bit } => {
                out.push(0);
                put_bytes(out, chain.as_bytes());
                put_varint(out, *bit as u64);
            }
            Location::MemoryBit { addr, bit } => {
                out.push(1);
                put_varint(out, u64::from(*addr));
                out.push(*bit);
            }
        }
    }
    put_varint(out, fault.times.len() as u64);
    for &time in &fault.times {
        put_varint(out, time);
    }
}

fn decode_fault(r: &mut Reader<'_>) -> Result<PlannedFault> {
    let model = match r.byte()? {
        0 => FaultModel::BitFlip,
        1 => FaultModel::MultiBitFlip { bits: r.usize()? },
        2 => FaultModel::StuckAt {
            value: match r.byte()? {
                0 => false,
                1 => true,
                _ => return Err(corrupt("stuck-at value not a bit")),
            },
            reassert_period: r.varint()?,
        },
        3 => FaultModel::Intermittent {
            activations: r.usize()?,
        },
        _ => return Err(corrupt("unknown fault model")),
    };
    let targets = (0..r.count()?)
        .map(|_| {
            Ok(match r.byte()? {
                0 => Location::ChainBit {
                    chain: r.string()?,
                    bit: r.usize()?,
                },
                1 => Location::MemoryBit {
                    addr: r.u32()?,
                    bit: r.byte()?,
                },
                _ => return Err(corrupt("unknown location")),
            })
        })
        .collect::<Result<_>>()?;
    let times = (0..r.count()?).map(|_| r.varint()).collect::<Result<_>>()?;
    Ok(PlannedFault {
        model,
        targets,
        times,
    })
}

// ----------------------------------------------------------------------
// stateVector
// ----------------------------------------------------------------------

/// `vector` as runs of its XOR with `base`.
fn xor_delta(vector: &[u8], base: &[u8]) -> Vec<u8> {
    let x = |i: usize| vector[i] ^ base.get(i).copied().unwrap_or(0);
    let common = vector.len().min(base.len());
    // The first index from `i` on where the XOR is not zero, or that is
    // past the base's end. Most rows are mostly their reference, so
    // equal stretches are skipped a block at a time.
    let next = |mut i: usize| {
        while i + BLOCK <= common {
            let (a, b) = (&vector[i..i + BLOCK], &base[i..i + BLOCK]);
            // No early exit inside a block, so the compare vectorises.
            if a.iter().zip(b).fold(0, |acc, (a, b)| acc | (a ^ b)) != 0 {
                break;
            }
            i += BLOCK;
        }
        while i < common && x(i) == 0 {
            i += 1;
        }
        i
    };
    let mut out = Vec::new();
    put_varint(&mut out, vector.len() as u64);
    let (mut done, mut start) = (0, next(0));
    while start < vector.len() {
        let mut end = start + 1;
        let mut following = next(end);
        while following < vector.len() && following - end <= MAX_GAP {
            end = following + 1;
            following = next(end);
        }
        put_varint(&mut out, (start - done) as u64);
        put_varint(&mut out, (end - start) as u64);
        out.extend((start..end).map(x));
        done = end;
        start = following;
    }
    out
}

/// The vector `delta` encodes against `base`.
fn apply_delta(delta: &[u8], base: &[u8]) -> Result<Vec<u8>> {
    let mut r = Reader::new(delta);
    let len = r.usize()?;
    if len > base.len().saturating_add(delta.len()) {
        return Err(corrupt("state vector longer than its row"));
    }
    let mut out = Vec::with_capacity(len);
    out.extend_from_slice(&base[..len.min(base.len())]);
    out.resize(len, 0);
    let mut pos = 0usize;
    while !r.at_end() {
        let skip = r.usize()?;
        let n = r.usize()?;
        let start = pos
            .checked_add(skip)
            .ok_or_else(|| corrupt("run overflows"))?;
        pos = start
            .checked_add(n)
            .filter(|&end| end <= len)
            .ok_or_else(|| corrupt("run past the vector's end"))?;
        for (byte, x) in out[start..pos].iter_mut().zip(r.take(n)?) {
            *byte ^= x;
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(vector: Vec<u8>) -> ExperimentRecord {
        ExperimentRecord {
            name: "c/0001".into(),
            parent: None,
            campaign: "c".into(),
            data: ExperimentData {
                fault: Some(PlannedFault {
                    model: FaultModel::BitFlip,
                    targets: vec![Location::ChainBit {
                        chain: "cpu".into(),
                        bit: 812,
                    }],
                    times: vec![417],
                }),
                termination: TargetEvent::Halted,
                outputs: (0..16).collect(),
                iterations: 0,
                instructions: 1342,
                detail_trace: None,
            },
            state_vector: vector,
        }
    }

    #[test]
    fn a_row_equal_to_its_reference_stores_little_more_than_its_fault() {
        let reference = record((0..=255).cycle().take(1700).collect());
        let mut same = reference.clone();
        same.name = "c/0002".into();
        let row = compact_row(&same, Some(&reference));
        let [_, _, _, Value::Blob(data), Value::Blob(vector)] = &row[..] else {
            panic!("{row:?}");
        };
        // flags, iterations, then the fault: model, one target (tag,
        // "cpu", bit 812) and one time (417).
        assert_eq!(
            data.len(),
            1 + 1 + 1 + 1 + (1 + 4 + 2) + (1 + 2),
            "{data:?}"
        );
        assert_eq!(vector.len(), 2, "only the length");
        assert_eq!(expand_row(&row, Some(&reference)).unwrap(), same);
    }

    #[test]
    fn nearby_differences_share_one_run() {
        let base = vec![0u8; 64];
        let mut vector = base.clone();
        vector[10] = 1;
        vector[13] = 1; // a gap of two zeros: merged
        vector[40] = 1; // far away: a run of its own
        let delta = xor_delta(&vector, &base);
        assert_eq!(delta, vec![64, 10, 4, 1, 0, 0, 1, 26, 1, 1]);
        assert_eq!(apply_delta(&delta, &base).unwrap(), vector);
    }

    #[test]
    fn vectors_longer_and_shorter_than_the_base_roundtrip() {
        let base: Vec<u8> = (1..=40).collect();
        for len in [0, 1, 39, 40, 41, 90] {
            let vector: Vec<u8> = (0..len).map(|i| (i * 7) as u8).collect();
            let delta = xor_delta(&vector, &base);
            assert_eq!(apply_delta(&delta, &base).unwrap(), vector, "len {len}");
        }
    }

    #[test]
    fn a_reference_row_cannot_decode_without_its_reference() {
        let reference = record(vec![1, 2, 3]);
        let bytes = encode(&record(vec![1, 2, 4]), Some(&reference));
        assert!(matches!(decode(&bytes, None), Err(GoofiError::Protocol(_))));
        // A row on the empty base ignores any base it is given.
        let alone = encode(&record(vec![1, 2, 4]), None);
        assert_eq!(
            decode(&alone, Some(&reference)).unwrap(),
            record(vec![1, 2, 4])
        );
    }

    #[test]
    fn corrupt_rows_are_errors_not_panics() {
        let reference = record(vec![9; 100]);
        let mut rec = record(vec![9; 120]);
        rec.data.detail_trace = Some(vec![vec![1, 2], vec![]]);
        rec.parent = Some("c/0000".into());
        let bytes = encode(&rec, Some(&reference));
        for cut in 0..bytes.len() {
            assert!(
                decode(&bytes[..cut], Some(&reference)).is_err(),
                "cut {cut}"
            );
        }
        let row = compact_row(&rec, Some(&reference));
        for (col, bad) in [
            (3, vec![0x80]),
            (3, vec![0x7f]),
            (4, vec![4, 3, 2, 1, 1, 1]),
            (4, vec![0xff, 0xff, 0xff, 0xff, 0x0f]),
        ] {
            let mut row = row.clone();
            row[col] = Value::Blob(bad);
            assert!(expand_row(&row, Some(&reference)).is_err(), "{row:?}");
        }
    }
}
