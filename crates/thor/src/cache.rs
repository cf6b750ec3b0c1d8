//! Parity-protected direct-mapped caches.
//!
//! The Thor RD features "parity protected instruction and data caches"
//! (paper, Section 1); cache parity is one of its principal hardware
//! error-detection mechanisms and a prime SCIFI injection target: flipping
//! a bit in a cached word (or its tag) through the scan chain leaves the
//! stored parity stale, so the next hit on that line raises a parity error.

use crate::edm::Exception;
use crate::memory::Memory;
use serde::{Deserialize, Serialize};

/// Cache geometry and timing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheConfig {
    /// Number of lines (power of two).
    pub lines: usize,
    /// Words per line (power of two).
    pub words_per_line: usize,
    /// Extra cycles charged on a miss.
    pub miss_penalty: u64,
}

impl CacheConfig {
    /// The default Thor RD-like geometry: 16 lines × 4 words, 8-cycle miss.
    pub fn default_config() -> CacheConfig {
        CacheConfig {
            lines: 16,
            words_per_line: 4,
            miss_penalty: 8,
        }
    }
}

impl Default for CacheConfig {
    fn default() -> Self {
        CacheConfig::default_config()
    }
}

/// One cache line: valid bit, tag, data words and a single even-parity bit
/// covering valid+tag+data.
///
/// The line also keeps whether its stored parity bit matches its contents,
/// so a hit checks one flag instead of recomputing parity. Every mutator
/// keeps that status current: a fill or a write-through stores fresh
/// parity, and each raw scan setter toggles the status when it changes an
/// odd number of covered bits (or the parity bit itself).
#[derive(Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheLine {
    valid: bool,
    tag: u32,
    data: Vec<u32>,
    parity: bool,
    parity_ok: bool,
}

impl Clone for CacheLine {
    fn clone(&self) -> CacheLine {
        CacheLine {
            data: self.data.clone(),
            ..*self
        }
    }

    /// Copies `source` into the line's existing word storage.
    fn clone_from(&mut self, source: &CacheLine) {
        self.valid = source.valid;
        self.tag = source.tag;
        self.data.clone_from(&source.data);
        self.parity = source.parity;
        self.parity_ok = source.parity_ok;
    }
}

impl CacheLine {
    fn empty(words: usize) -> CacheLine {
        CacheLine {
            valid: false,
            tag: 0,
            data: vec![0; words],
            parity: false,
            parity_ok: true,
        }
    }

    /// Even parity over valid bit, tag and data words.
    pub fn computed_parity(&self) -> bool {
        let mut ones = u32::from(self.valid) + self.tag.count_ones();
        for w in &self.data {
            ones += w.count_ones();
        }
        ones % 2 == 1
    }

    /// Whether the stored parity matches the line contents.
    #[inline]
    pub fn parity_ok(&self) -> bool {
        self.parity_ok
    }

    /// Stores freshly computed parity (a legitimate update of the line).
    fn reseal(&mut self) {
        self.parity = self.computed_parity();
        self.parity_ok = true;
    }

    /// Records a raw change of the covered bits: an odd number of flipped
    /// bits toggles whether the stale parity bit still matches.
    fn note_flips(&mut self, changed: u32) {
        self.parity_ok ^= changed.count_ones() % 2 == 1;
    }

    /// Valid bit.
    pub fn valid(&self) -> bool {
        self.valid
    }
    /// Tag.
    pub fn tag(&self) -> u32 {
        self.tag
    }
    /// Stored parity bit.
    pub fn parity(&self) -> bool {
        self.parity
    }
    /// Data words.
    pub fn data(&self) -> &[u32] {
        &self.data
    }

    // Raw scan-chain mutators: deliberately do NOT recompute parity —
    // that is exactly how scan-injected faults become detectable.

    /// Scan write of the valid bit (parity left stale on purpose).
    pub fn set_valid_raw(&mut self, v: bool) {
        self.note_flips(u32::from(self.valid != v));
        self.valid = v;
    }
    /// Scan write of the tag (parity left stale on purpose).
    pub fn set_tag_raw(&mut self, tag: u32) {
        self.note_flips(self.tag ^ tag);
        self.tag = tag;
    }
    /// Scan write of the parity bit itself.
    pub fn set_parity_raw(&mut self, p: bool) {
        self.note_flips(u32::from(self.parity != p));
        self.parity = p;
    }
    /// Scan write of a data word (parity left stale on purpose).
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range for the line.
    pub fn set_data_raw(&mut self, idx: usize, word: u32) {
        self.note_flips(self.data[idx] ^ word);
        self.data[idx] = word;
    }
}

/// A direct-mapped, write-through cache with per-line parity.
#[derive(Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Cache {
    config: CacheConfig,
    lines: Vec<CacheLine>,
    hits: u64,
    misses: u64,
}

impl Clone for Cache {
    fn clone(&self) -> Cache {
        Cache {
            config: self.config,
            lines: self.lines.clone(),
            hits: self.hits,
            misses: self.misses,
        }
    }

    /// Copies `source` into the cache's existing line storage: restoring a
    /// checkpointed cache of the same geometry allocates nothing.
    fn clone_from(&mut self, source: &Cache) {
        self.config = source.config;
        self.lines.clone_from(&source.lines);
        self.hits = source.hits;
        self.misses = source.misses;
    }
}

/// Outcome of a cache access: the value plus the cycle cost incurred.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Access {
    /// The word read.
    pub value: u32,
    /// Extra cycles (0 on hit, `miss_penalty` on miss).
    pub extra_cycles: u64,
}

impl Cache {
    /// Creates an empty (all-invalid) cache.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is not power-of-two sized.
    pub fn new(config: CacheConfig) -> Cache {
        assert!(
            config.lines.is_power_of_two(),
            "lines must be a power of two"
        );
        assert!(
            config.words_per_line.is_power_of_two(),
            "words per line must be a power of two"
        );
        Cache {
            config,
            lines: (0..config.lines)
                .map(|_| CacheLine::empty(config.words_per_line))
                .collect(),
            hits: 0,
            misses: 0,
        }
    }

    /// Cache geometry.
    pub fn config(&self) -> CacheConfig {
        self.config
    }

    /// Number of hits since the last [`Cache::invalidate_all`].
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Number of misses since the last [`Cache::invalidate_all`].
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Splits `addr` into (line index, tag, word within the line). Both
    /// geometry parameters are powers of two, so this is shifts and masks.
    #[inline]
    fn index_and_tag(&self, addr: u32) -> (usize, u32, usize) {
        let word_bits = self.config.words_per_line.trailing_zeros();
        let index_bits = self.config.lines.trailing_zeros();
        let line_no = addr >> (word_bits + 2);
        let index = line_no as usize & (self.config.lines - 1);
        let tag = line_no >> index_bits;
        let word_idx = (addr >> 2) as usize & (self.config.words_per_line - 1);
        (index, tag, word_idx)
    }

    /// Reads a word through the cache, filling from `memory` on a miss.
    /// `fetch` selects instruction-fetch permission checking.
    ///
    /// A misaligned `addr` reads the word it falls in: neither a hit nor
    /// a miss raises [`Exception::Misaligned`].
    ///
    /// # Errors
    ///
    /// Cache parity errors ([`Exception::IcacheParity`] /
    /// [`Exception::DcacheParity`] — reported as `DcacheParity`; the
    /// machine rewrites the variant for its I-cache) and the underlying
    /// memory exceptions on miss.
    #[inline]
    pub fn read(&mut self, memory: &Memory, addr: u32, fetch: bool) -> Result<Access, Exception> {
        let (index, tag, word_idx) = self.index_and_tag(addr);
        let line = &self.lines[index];
        if line.valid && line.tag == tag {
            if !line.parity_ok {
                return Err(Exception::DcacheParity { line: index });
            }
            self.hits += 1;
            return Ok(Access {
                value: line.data[word_idx],
                extra_cycles: 0,
            });
        }
        self.fill(memory, addr, fetch, index, tag, word_idx)
    }

    /// The miss path: fills line `index` from memory in place.
    ///
    /// Only a fault on the requested word matters, and it leaves the line
    /// untouched (the miss is still counted). A misaligned `addr` is never
    /// itself requested from memory, and an unmappable neighbouring word
    /// fills as 0.
    #[cold]
    #[inline(never)]
    fn fill(
        &mut self,
        memory: &Memory,
        addr: u32,
        fetch: bool,
        index: usize,
        tag: u32,
        word_idx: usize,
    ) -> Result<Access, Exception> {
        self.misses += 1;
        let load = |a| {
            if fetch {
                memory.fetch(a)
            } else {
                memory.read(a)
            }
        };
        if addr.is_multiple_of(4) {
            load(addr)?;
        }
        let base = addr & !((self.config.words_per_line as u32 * 4) - 1);
        let line = &mut self.lines[index];
        for (w, word) in line.data.iter_mut().enumerate() {
            *word = load(base + (w as u32) * 4).unwrap_or(0);
        }
        line.valid = true;
        line.tag = tag;
        line.reseal();
        Ok(Access {
            value: line.data[word_idx],
            extra_cycles: self.config.miss_penalty,
        })
    }

    /// Write-through update: if the line is resident, updates the cached
    /// word and recomputes parity (a legitimate write repairs any stale
    /// parity in that line, i.e. overwrites a latent fault).
    #[inline]
    pub fn write_through(&mut self, addr: u32, value: u32) {
        let (index, tag, word_idx) = self.index_and_tag(addr);
        let line = &mut self.lines[index];
        if line.valid && line.tag == tag {
            line.data[word_idx] = value;
            line.reseal();
        }
    }

    /// Invalidates every line and resets hit/miss counters.
    pub fn invalidate_all(&mut self) {
        for line in &mut self.lines {
            line.valid = false;
            line.tag = 0;
            line.data.fill(0);
            line.parity = false;
            line.parity_ok = true;
        }
        self.hits = 0;
        self.misses = 0;
    }

    /// Immutable access to a line (scan-chain read-out).
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn line(&self, index: usize) -> &CacheLine {
        &self.lines[index]
    }

    /// Mutable access to a line (scan-chain injection).
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn line_mut(&mut self, index: usize) -> &mut CacheLine {
        &mut self.lines[index]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memory::{Memory, MemoryMap};

    fn setup() -> (Cache, Memory) {
        let mut mem = Memory::new(MemoryMap {
            size: 4096,
            code_end: 1024,
        });
        for a in (0..4096u32).step_by(4) {
            mem.host_write(a, a);
        }
        (
            Cache::new(CacheConfig {
                lines: 4,
                words_per_line: 2,
                miss_penalty: 10,
            }),
            mem,
        )
    }

    #[test]
    fn miss_then_hit() {
        let (mut c, mem) = setup();
        let a = c.read(&mem, 2048, false).unwrap();
        assert_eq!(a.value, 2048);
        assert_eq!(a.extra_cycles, 10);
        let a = c.read(&mem, 2052, false).unwrap(); // same line
        assert_eq!(a.value, 2052);
        assert_eq!(a.extra_cycles, 0);
        assert_eq!(c.hits(), 1);
        assert_eq!(c.misses(), 1);
    }

    #[test]
    fn conflicting_lines_evict() {
        let (mut c, mem) = setup();
        // 4 lines × 2 words × 4 bytes = 32-byte wrap: 2048 and 2048+32 collide.
        c.read(&mem, 2048, false).unwrap();
        c.read(&mem, 2048 + 32, false).unwrap();
        let a = c.read(&mem, 2048, false).unwrap();
        assert_eq!(a.extra_cycles, 10, "line was evicted, so this is a miss");
    }

    #[test]
    fn scan_injected_bit_flip_raises_parity_on_next_hit() {
        let (mut c, mem) = setup();
        c.read(&mem, 2048, false).unwrap();
        // Flip one bit of the cached word via the scan interface.
        let line_idx = {
            let (i, _, _) = (2048 / 8 % 4, 0, 0);
            i as usize
        };
        let w = c.line(line_idx).data()[0];
        c.line_mut(line_idx).set_data_raw(0, w ^ 0x4);
        let err = c.read(&mem, 2048, false).unwrap_err();
        assert!(matches!(err, Exception::DcacheParity { .. }));
    }

    #[test]
    fn legitimate_write_repairs_parity() {
        let (mut c, mut mem) = setup();
        c.read(&mem, 2048, false).unwrap();
        let line_idx = 2048 / 8 % 4;
        let w = c.line(line_idx).data()[0];
        c.line_mut(line_idx).set_data_raw(0, w ^ 0x4);
        assert!(!c.line(line_idx).parity_ok());
        // CPU store to the same word: write-through recomputes parity.
        mem.write(2048, 77).unwrap();
        c.write_through(2048, 77);
        assert!(c.line(line_idx).parity_ok());
        assert_eq!(c.read(&mem, 2048, false).unwrap().value, 77);
    }

    #[test]
    fn tag_fault_detected() {
        let (mut c, mem) = setup();
        c.read(&mem, 2048, false).unwrap();
        let line_idx = 2048 / 8 % 4;
        let t = c.line(line_idx).tag();
        c.line_mut(line_idx).set_tag_raw(t ^ 1);
        // The flipped tag makes the next access either a parity-detected hit
        // (if the flipped tag matches another address) or a clean miss for
        // the original address. Access the *aliased* address: tag^1 at the
        // same index.
        let aliased = (t ^ 1) * 32 + (line_idx as u32) * 8;
        let err = c.read(&mem, aliased, false).unwrap_err();
        assert!(matches!(err, Exception::DcacheParity { .. }));
    }

    #[test]
    fn invalidate_clears_state() {
        let (mut c, mem) = setup();
        c.read(&mem, 2048, false).unwrap();
        c.invalidate_all();
        assert_eq!(c.hits(), 0);
        assert!(!c.line(0).valid());
        let a = c.read(&mem, 2048, false).unwrap();
        assert_eq!(a.extra_cycles, 10);
    }

    #[test]
    fn parity_bit_itself_is_injectable() {
        let (mut c, mem) = setup();
        c.read(&mem, 2048, false).unwrap();
        let line_idx = 2048 / 8 % 4;
        let p = c.line(line_idx).parity();
        c.line_mut(line_idx).set_parity_raw(!p);
        assert!(matches!(
            c.read(&mem, 2048, false),
            Err(Exception::DcacheParity { .. })
        ));
    }

    #[test]
    fn empty_line_has_consistent_parity() {
        let line = CacheLine::empty(4);
        assert!(line.parity_ok());
        assert!(!line.valid());
    }
}
