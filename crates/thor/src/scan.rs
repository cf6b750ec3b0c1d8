//! Scan-chain access to the processor's internal state elements.
//!
//! The Thor RD's IEEE 1149.1-style test logic exposes boundary scan chains
//! (pins) and internal scan chains covering "almost 100% of the state
//! elements" (paper, Section 3.1). A [`ScanChain`] is an ordered sequence
//! of named [`Field`]s; shifting a chain out yields a [`BitVector`]
//! snapshot, and shifting a modified vector back in writes every *writable*
//! field — read-only positions (observation-only, as in the paper's Fig. 5
//! configuration view) are silently preserved.

use crate::machine::Machine;
use serde::{Deserialize, Serialize};
use std::fmt;

/// A fixed-width bit vector used for scan-chain shift data.
///
/// Stored packed, LSB-first within each byte — the layout
/// [`BitVector::to_bytes`] emits — with the padding bits of the last byte
/// always zero, so equality, hashing and popcounts can work on whole bytes.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct BitVector {
    len: usize,
    bytes: Vec<u8>,
}

/// Mask of the low `width` bits (`width <= 64`).
fn low_mask(width: usize) -> u128 {
    (1u128 << width) - 1
}

impl BitVector {
    /// Creates an all-zero vector of `len` bits.
    pub fn zeros(len: usize) -> BitVector {
        BitVector {
            len,
            bytes: vec![0; len.div_ceil(8)],
        }
    }

    /// Length in bits.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the vector has no bits.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    fn check(&self, pos: usize) {
        assert!(
            pos < self.len,
            "bit {pos} out of range for {} bits",
            self.len
        );
    }

    /// Bit at `pos`.
    ///
    /// # Panics
    ///
    /// Panics if `pos` is out of range.
    pub fn get(&self, pos: usize) -> bool {
        self.check(pos);
        self.bytes[pos / 8] & (1 << (pos % 8)) != 0
    }

    /// Sets bit at `pos`.
    ///
    /// # Panics
    ///
    /// Panics if `pos` is out of range.
    pub fn set(&mut self, pos: usize, value: bool) {
        self.check(pos);
        let bit = 1 << (pos % 8);
        if value {
            self.bytes[pos / 8] |= bit;
        } else {
            self.bytes[pos / 8] &= !bit;
        }
    }

    /// Inverts bit at `pos` (the paper's transient bit-flip fault model).
    ///
    /// # Panics
    ///
    /// Panics if `pos` is out of range.
    pub fn flip(&mut self, pos: usize) {
        self.check(pos);
        self.bytes[pos / 8] ^= 1 << (pos % 8);
    }

    /// Asserts that bits `offset..offset + width` are in bounds and
    /// `width <= 64`.
    fn check_range(&self, offset: usize, width: usize) {
        assert!(width <= 64);
        assert!(
            offset + width <= self.len,
            "bits {offset}..{} out of range for {} bits",
            offset + width,
            self.len
        );
    }

    /// The 16 bytes from byte `first` on (zero past the end) as one
    /// little-endian integer: enough for any 64-bit range starting in
    /// byte `first`.
    fn window(&self, first: usize) -> u128 {
        if let Some(chunk) = self.bytes.get(first..first + 16) {
            return u128::from_le_bytes(chunk.try_into().expect("16-byte chunk"));
        }
        let tail = &self.bytes[first..];
        let mut buf = [0u8; 16];
        buf[..tail.len()].copy_from_slice(tail);
        u128::from_le_bytes(buf)
    }

    /// Writes back a [`BitVector::window`] taken at byte `first`.
    fn store_window(&mut self, first: usize, window: u128) {
        let bytes = window.to_le_bytes();
        if let Some(chunk) = self.bytes.get_mut(first..first + 16) {
            chunk.copy_from_slice(&bytes);
            return;
        }
        let tail = &mut self.bytes[first..];
        let n = tail.len();
        tail.copy_from_slice(&bytes[..n]);
    }

    /// Reads `width` bits starting at `offset` as a little-endian integer.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds or `width > 64`.
    pub fn get_range(&self, offset: usize, width: usize) -> u64 {
        if width == 0 {
            return 0;
        }
        self.check_range(offset, width);
        ((self.window(offset / 8) >> (offset % 8)) & low_mask(width)) as u64
    }

    /// Writes `width` bits of `value` starting at `offset`.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds or `width > 64`.
    pub fn set_range(&mut self, offset: usize, width: usize, value: u64) {
        if width == 0 {
            return;
        }
        self.check_range(offset, width);
        let (first, shift) = (offset / 8, offset % 8);
        let mask = low_mask(width) << shift;
        let window = self.window(first);
        let bits = (u128::from(value) << shift) & mask;
        self.store_window(first, (window & !mask) | bits);
    }

    /// Number of bits that differ from `other` (state-vector diffing).
    ///
    /// # Panics
    ///
    /// Panics if lengths differ.
    pub fn hamming_distance(&self, other: &BitVector) -> usize {
        assert_eq!(self.len(), other.len(), "length mismatch");
        self.bytes
            .iter()
            .zip(&other.bytes)
            .map(|(a, b)| (a ^ b).count_ones() as usize)
            .sum()
    }

    /// Packs into bytes (LSB-first per byte) for BLOB storage.
    pub fn to_bytes(&self) -> Vec<u8> {
        self.bytes.clone()
    }

    /// Unpacks from [`BitVector::to_bytes`] output. Missing bytes read as
    /// zero; bits beyond `len` are ignored.
    pub fn from_bytes(bytes: &[u8], len: usize) -> BitVector {
        let mut v = BitVector::zeros(len);
        let n = v.bytes.len().min(bytes.len());
        v.bytes[..n].copy_from_slice(&bytes[..n]);
        if !len.is_multiple_of(8) {
            if let Some(last) = v.bytes.last_mut() {
                *last &= (1u8 << (len % 8)) - 1;
            }
        }
        v
    }
}

impl fmt::Display for BitVector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for pos in (0..self.len).rev() {
            f.write_str(if self.get(pos) { "1" } else { "0" })?;
        }
        Ok(())
    }
}

/// A scannable state element of the machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Field {
    /// General-purpose register (32 bits).
    Reg(u8),
    /// Program counter (32 bits).
    Pc,
    /// Processor status word (8 bits).
    Psw,
    /// Instruction register (32 bits).
    Ir,
    /// Memory address register (32 bits).
    Mar,
    /// Memory data register (32 bits).
    Mdr,
    /// Watchdog counter (16 bits).
    Wdt,
    /// I-cache line valid bit.
    IcacheValid(usize),
    /// I-cache line tag (16 bits).
    IcacheTag(usize),
    /// I-cache line parity bit.
    IcacheParity(usize),
    /// I-cache data word `word` of line `line` (32 bits).
    IcacheData {
        /// Line index.
        line: usize,
        /// Word index within the line.
        word: usize,
    },
    /// D-cache line valid bit.
    DcacheValid(usize),
    /// D-cache line tag (16 bits).
    DcacheTag(usize),
    /// D-cache line parity bit.
    DcacheParity(usize),
    /// D-cache data word `word` of line `line` (32 bits).
    DcacheData {
        /// Line index.
        line: usize,
        /// Word index within the line.
        word: usize,
    },
    /// Boundary scan: address bus pins (32 bits, observe only).
    AddrBus,
    /// Boundary scan: data bus pins (32 bits).
    DataBus,
    /// Boundary scan: control pins (8 bits, observe only).
    CtrlBus,
}

impl Field {
    /// Width of the field in bits.
    pub fn width(&self) -> usize {
        match self {
            Field::Reg(_) | Field::Pc | Field::Ir | Field::Mar | Field::Mdr => 32,
            Field::Psw => 8,
            Field::Wdt => 16,
            Field::IcacheValid(_) | Field::IcacheParity(_) => 1,
            Field::DcacheValid(_) | Field::DcacheParity(_) => 1,
            Field::IcacheTag(_) | Field::DcacheTag(_) => 16,
            Field::IcacheData { .. } | Field::DcacheData { .. } => 32,
            Field::AddrBus | Field::DataBus => 32,
            Field::CtrlBus => 8,
        }
    }

    /// Whether the field can be written through the scan chain. Bus
    /// observation pins are read-only, as in the paper's Fig. 5.
    pub fn is_writable(&self) -> bool {
        !matches!(self, Field::AddrBus | Field::CtrlBus)
    }

    /// Reads the field from the machine.
    pub fn read(&self, m: &Machine) -> u64 {
        match *self {
            Field::Reg(r) => m.reg(r) as u64,
            Field::Pc => m.pc() as u64,
            Field::Psw => m.psw() as u64,
            Field::Ir => m.ir() as u64,
            Field::Mar => m.mar() as u64,
            Field::Mdr => m.mdr() as u64,
            Field::Wdt => m.wdt() as u64,
            Field::IcacheValid(l) => m.icache().line(l).valid() as u64,
            Field::IcacheTag(l) => m.icache().line(l).tag() as u64,
            Field::IcacheParity(l) => m.icache().line(l).parity() as u64,
            Field::IcacheData { line, word } => m.icache().line(line).data()[word] as u64,
            Field::DcacheValid(l) => m.dcache().line(l).valid() as u64,
            Field::DcacheTag(l) => m.dcache().line(l).tag() as u64,
            Field::DcacheParity(l) => m.dcache().line(l).parity() as u64,
            Field::DcacheData { line, word } => m.dcache().line(line).data()[word] as u64,
            Field::AddrBus => m.mar() as u64,
            Field::DataBus => m.mdr() as u64,
            Field::CtrlBus => (m.is_halted() as u64) | ((m.wdt() as u64 & 0x7f) << 1),
        }
    }

    /// Writes the field into the machine (raw: cache parity is *not*
    /// recomputed, so injected flips become detectable). Read-only fields
    /// are left unchanged.
    pub fn write(&self, m: &mut Machine, value: u64) {
        match *self {
            Field::Reg(r) => m.set_reg(r, value as u32),
            Field::Pc => m.set_pc(value as u32),
            Field::Psw => m.set_psw(value as u32),
            Field::Ir => m.set_ir(value as u32),
            Field::Mar => m.set_mar(value as u32),
            Field::Mdr => m.set_mdr(value as u32),
            Field::Wdt => m.set_wdt(value as u32),
            Field::IcacheValid(l) => m.icache_mut().line_mut(l).set_valid_raw(value & 1 != 0),
            Field::IcacheTag(l) => m.icache_mut().line_mut(l).set_tag_raw(value as u32),
            Field::IcacheParity(l) => m.icache_mut().line_mut(l).set_parity_raw(value & 1 != 0),
            Field::IcacheData { line, word } => m
                .icache_mut()
                .line_mut(line)
                .set_data_raw(word, value as u32),
            Field::DcacheValid(l) => m.dcache_mut().line_mut(l).set_valid_raw(value & 1 != 0),
            Field::DcacheTag(l) => m.dcache_mut().line_mut(l).set_tag_raw(value as u32),
            Field::DcacheParity(l) => m.dcache_mut().line_mut(l).set_parity_raw(value & 1 != 0),
            Field::DcacheData { line, word } => m
                .dcache_mut()
                .line_mut(line)
                .set_data_raw(word, value as u32),
            Field::DataBus => m.set_mdr(value as u32),
            Field::AddrBus | Field::CtrlBus => {}
        }
    }
}

/// A named field within a chain, with its bit offset.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ChainField {
    /// Human-readable location name (shown in the configuration UI and
    /// stored in `TargetSystemData`).
    pub name: String,
    /// The underlying state element.
    pub field: Field,
    /// Bit offset of the field within the chain.
    pub offset: usize,
}

/// An ordered scan chain over machine state.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ScanChain {
    name: String,
    fields: Vec<ChainField>,
    width: usize,
}

impl ScanChain {
    /// Builds a chain from `(name, field)` pairs, assigning consecutive bit
    /// offsets.
    pub fn new(name: impl Into<String>, fields: Vec<(String, Field)>) -> ScanChain {
        let mut offset = 0;
        let fields = fields
            .into_iter()
            .map(|(name, field)| {
                let cf = ChainField {
                    name,
                    field,
                    offset,
                };
                offset += field.width();
                cf
            })
            .collect();
        ScanChain {
            name: name.into(),
            fields,
            width: offset,
        }
    }

    /// Chain name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Total width in bits.
    pub fn width(&self) -> usize {
        self.width
    }

    /// The chain's fields, in shift order.
    pub fn fields(&self) -> &[ChainField] {
        &self.fields
    }

    /// Looks up a field by name, returning `(offset, width, writable)`.
    pub fn locate(&self, name: &str) -> Option<(usize, usize, bool)> {
        self.fields
            .iter()
            .find(|f| f.name == name)
            .map(|f| (f.offset, f.field.width(), f.field.is_writable()))
    }

    /// The field covering bit `pos`, if any.
    pub fn field_at(&self, pos: usize) -> Option<&ChainField> {
        self.fields
            .iter()
            .find(|f| pos >= f.offset && pos < f.offset + f.field.width())
    }

    /// Shifts the chain out of the machine (reads a full snapshot).
    pub fn read(&self, m: &Machine) -> BitVector {
        let mut bits = BitVector::zeros(self.width);
        for f in &self.fields {
            bits.set_range(f.offset, f.field.width(), f.field.read(m));
        }
        bits
    }

    /// Shifts a vector back into the machine; read-only fields keep their
    /// current value regardless of the vector's contents.
    ///
    /// # Panics
    ///
    /// Panics if `bits.len()` does not match the chain width.
    pub fn write(&self, m: &mut Machine, bits: &BitVector) {
        assert_eq!(bits.len(), self.width, "scan vector width mismatch");
        for f in &self.fields {
            if f.field.is_writable() {
                f.field.write(m, bits.get_range(f.offset, f.field.width()));
            }
        }
    }

    // --------------------------------------------------------------
    // Standard Thor RD chains
    // --------------------------------------------------------------

    /// The internal CPU chain: registers, PC, PSW, IR, MAR, MDR, WDT.
    pub fn cpu_chain() -> ScanChain {
        let mut fields = Vec::new();
        for r in 0..16u8 {
            fields.push((format!("R{r}"), Field::Reg(r)));
        }
        fields.push(("PC".to_owned(), Field::Pc));
        fields.push(("PSW".to_owned(), Field::Psw));
        fields.push(("IR".to_owned(), Field::Ir));
        fields.push(("MAR".to_owned(), Field::Mar));
        fields.push(("MDR".to_owned(), Field::Mdr));
        fields.push(("WDT".to_owned(), Field::Wdt));
        ScanChain::new("cpu", fields)
    }

    /// The I-cache internal chain (valid/tag/parity/data per line).
    pub fn icache_chain(lines: usize, words_per_line: usize) -> ScanChain {
        let mut fields = Vec::new();
        for l in 0..lines {
            fields.push((format!("IC{l}.V"), Field::IcacheValid(l)));
            fields.push((format!("IC{l}.TAG"), Field::IcacheTag(l)));
            fields.push((format!("IC{l}.P"), Field::IcacheParity(l)));
            for w in 0..words_per_line {
                fields.push((
                    format!("IC{l}.W{w}"),
                    Field::IcacheData { line: l, word: w },
                ));
            }
        }
        ScanChain::new("icache", fields)
    }

    /// The D-cache internal chain.
    pub fn dcache_chain(lines: usize, words_per_line: usize) -> ScanChain {
        let mut fields = Vec::new();
        for l in 0..lines {
            fields.push((format!("DC{l}.V"), Field::DcacheValid(l)));
            fields.push((format!("DC{l}.TAG"), Field::DcacheTag(l)));
            fields.push((format!("DC{l}.P"), Field::DcacheParity(l)));
            for w in 0..words_per_line {
                fields.push((
                    format!("DC{l}.W{w}"),
                    Field::DcacheData { line: l, word: w },
                ));
            }
        }
        ScanChain::new("dcache", fields)
    }

    /// The boundary scan chain (pins): address bus (observe-only), data
    /// bus, control pins (observe-only).
    pub fn boundary_chain() -> ScanChain {
        ScanChain::new(
            "boundary",
            vec![
                ("ADDR".to_owned(), Field::AddrBus),
                ("DATA".to_owned(), Field::DataBus),
                ("CTRL".to_owned(), Field::CtrlBus),
            ],
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::{Machine, MachineConfig};

    #[test]
    fn bitvector_roundtrips_through_bytes() {
        let mut v = BitVector::zeros(13);
        v.set(0, true);
        v.set(7, true);
        v.set(12, true);
        let bytes = v.to_bytes();
        assert_eq!(bytes.len(), 2);
        assert_eq!(BitVector::from_bytes(&bytes, 13), v);
    }

    #[test]
    fn bitvector_ranges() {
        let mut v = BitVector::zeros(64);
        v.set_range(5, 32, 0xdeadbeef);
        assert_eq!(v.get_range(5, 32), 0xdeadbeef);
        v.flip(5);
        assert_eq!(v.get_range(5, 32), 0xdeadbeee);
    }

    #[test]
    fn ranges_match_bitwise_access_at_every_offset_and_width() {
        let pattern = 0x9e37_79b9_7f4a_7c15u64;
        for offset in 0..16 {
            for width in 0..=64 {
                let mut v = BitVector::zeros(offset + width + 9);
                for i in 0..v.len() {
                    v.set(i, i % 3 == 0);
                }
                let before = v.clone();
                v.set_range(offset, width, pattern);
                let mut want = 0u64;
                for i in 0..v.len() {
                    let expected = if (offset..offset + width).contains(&i) {
                        pattern >> (i - offset) & 1 == 1
                    } else {
                        before.get(i)
                    };
                    assert_eq!(v.get(i), expected, "offset {offset} width {width} bit {i}");
                    if expected && i >= offset && i < offset + width {
                        want |= 1 << (i - offset);
                    }
                }
                assert_eq!(v.get_range(offset, width), want);
            }
        }
    }

    #[test]
    fn from_bytes_clears_padding_bits() {
        let v = BitVector::from_bytes(&[0xff, 0xff], 13);
        assert_eq!(v.to_bytes(), vec![0xff, 0x1f]);
        assert_eq!(v, {
            let mut w = BitVector::zeros(13);
            w.set_range(0, 13, 0x1fff);
            w
        });
        assert_eq!(BitVector::from_bytes(&[0x01], 20).to_bytes(), vec![1, 0, 0]);
    }

    #[test]
    fn hamming_distance_counts_flips() {
        let a = BitVector::zeros(10);
        let mut b = BitVector::zeros(10);
        b.flip(1);
        b.flip(9);
        assert_eq!(a.hamming_distance(&b), 2);
    }

    #[test]
    fn cpu_chain_reads_registers() {
        let mut m = Machine::new(MachineConfig::default());
        m.set_reg(3, 0xabcd);
        m.set_pc(0x40);
        let chain = ScanChain::cpu_chain();
        let bits = chain.read(&m);
        let (off, w, writable) = chain.locate("R3").unwrap();
        assert!(writable);
        assert_eq!(bits.get_range(off, w), 0xabcd);
        let (off, w, _) = chain.locate("PC").unwrap();
        assert_eq!(bits.get_range(off, w), 0x40);
    }

    #[test]
    fn read_flip_write_injects_fault() {
        let mut m = Machine::new(MachineConfig::default());
        m.set_reg(5, 0b100);
        let chain = ScanChain::cpu_chain();
        let mut bits = chain.read(&m);
        let (off, _, _) = chain.locate("R5").unwrap();
        bits.flip(off + 1); // flip bit 1 of R5
        chain.write(&mut m, &bits);
        assert_eq!(m.reg(5), 0b110);
    }

    #[test]
    fn read_only_fields_ignored_on_write() {
        let mut m = Machine::new(MachineConfig::default());
        m.set_mar(0x1234);
        let chain = ScanChain::boundary_chain();
        let mut bits = chain.read(&m);
        let (off, w, writable) = chain.locate("ADDR").unwrap();
        assert!(!writable);
        bits.set_range(off, w, 0xffff_ffff);
        chain.write(&mut m, &bits);
        assert_eq!(m.mar(), 0x1234, "ADDR pins are observe-only");
        // DATA pins drive MDR.
        let (off, w, writable) = chain.locate("DATA").unwrap();
        assert!(writable);
        bits.set_range(off, w, 0x55);
        chain.write(&mut m, &bits);
        assert_eq!(m.mdr(), 0x55);
    }

    #[test]
    fn cache_chain_covers_all_lines() {
        let m = Machine::new(MachineConfig::default());
        let cfg = m.config().dcache;
        let chain = ScanChain::dcache_chain(cfg.lines, cfg.words_per_line);
        let per_line = 1 + 16 + 1 + 32 * cfg.words_per_line;
        assert_eq!(chain.width(), cfg.lines * per_line);
        assert_eq!(chain.read(&m).len(), chain.width());
    }

    #[test]
    fn field_at_resolves_positions() {
        let chain = ScanChain::cpu_chain();
        let f = chain.field_at(33).unwrap(); // second register, bit 1
        assert_eq!(f.name, "R1");
        assert!(chain.field_at(chain.width()).is_none());
    }

    #[test]
    fn chain_roundtrip_is_identity_for_writable_state() {
        let mut m = Machine::new(MachineConfig::default());
        m.set_reg(1, 42);
        m.set_psw(0b1010);
        let chain = ScanChain::cpu_chain();
        let bits = chain.read(&m);
        chain.write(&mut m, &bits);
        assert_eq!(m.reg(1), 42);
        assert_eq!(m.psw(), 0b1010);
        assert_eq!(chain.read(&m), bits);
    }
}
