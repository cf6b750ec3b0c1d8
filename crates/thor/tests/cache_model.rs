//! Reference-model test for the parity-protected caches.
//!
//! `Model` below is a deliberately naive cache: it indexes with divisions,
//! recomputes parity on every hit and allocates a fresh line on every
//! miss, exactly as the first cache implementation did. Random operation
//! sequences drive it and the real [`Cache`] side by side; after every
//! operation both must agree on the access result, the hit/miss counters,
//! every line's contents and every line's parity status.
//!
//! The sequences mix reads and fetches at aligned, misaligned, code-region
//! and out-of-range addresses, stores with write-through, raw scan writes
//! of valid, tag, parity and data bits (including double flips that leave
//! parity consistent), invalidation, and snapshot/restore by `clone_from`.

use proptest::prelude::*;
use thor_rd::{Access, Cache, CacheConfig, Exception, Memory, MemoryMap};

type ReadResult = Result<Access, Exception>;

const MAP: MemoryMap = MemoryMap {
    size: 4096,
    code_end: 1024,
};

#[derive(Debug, Clone, PartialEq, Eq)]
struct ModelLine {
    valid: bool,
    tag: u32,
    data: Vec<u32>,
    parity: bool,
}

impl ModelLine {
    fn empty(words: usize) -> ModelLine {
        ModelLine {
            valid: false,
            tag: 0,
            data: vec![0; words],
            parity: false,
        }
    }

    fn computed_parity(&self) -> bool {
        let mut ones = u32::from(self.valid) + self.tag.count_ones();
        for w in &self.data {
            ones += w.count_ones();
        }
        ones % 2 == 1
    }

    fn parity_ok(&self) -> bool {
        self.parity == self.computed_parity()
    }
}

#[derive(Debug, Clone)]
struct Model {
    config: CacheConfig,
    lines: Vec<ModelLine>,
    hits: u64,
    misses: u64,
}

impl Model {
    fn new(config: CacheConfig) -> Model {
        Model {
            config,
            lines: vec![ModelLine::empty(config.words_per_line); config.lines],
            hits: 0,
            misses: 0,
        }
    }

    fn index_and_tag(&self, addr: u32) -> (usize, u32, usize) {
        let line_bytes = (self.config.words_per_line * 4) as u32;
        let line_no = addr / line_bytes;
        let index = (line_no as usize) % self.config.lines;
        let tag = line_no / self.config.lines as u32;
        let word_idx = ((addr % line_bytes) / 4) as usize;
        (index, tag, word_idx)
    }

    fn read(&mut self, memory: &Memory, addr: u32, fetch: bool) -> ReadResult {
        let (index, tag, word_idx) = self.index_and_tag(addr);
        let line = &self.lines[index];
        if line.valid && line.tag == tag {
            if !line.parity_ok() {
                return Err(Exception::DcacheParity { line: index });
            }
            self.hits += 1;
            return Ok(Access {
                value: line.data[word_idx],
                extra_cycles: 0,
            });
        }
        self.misses += 1;
        let line_bytes = (self.config.words_per_line * 4) as u32;
        let base = addr / line_bytes * line_bytes;
        let mut data = Vec::with_capacity(self.config.words_per_line);
        for w in 0..self.config.words_per_line {
            let a = base + (w as u32) * 4;
            let word = if fetch {
                memory.fetch(a)
            } else {
                memory.read(a)
            };
            match word {
                Ok(word) => data.push(word),
                Err(e) => {
                    if a == addr {
                        return Err(e);
                    }
                    data.push(0);
                }
            }
        }
        let line = &mut self.lines[index];
        line.valid = true;
        line.tag = tag;
        line.data = data;
        line.parity = line.computed_parity();
        Ok(Access {
            value: line.data[word_idx],
            extra_cycles: self.config.miss_penalty,
        })
    }

    fn write_through(&mut self, addr: u32, value: u32) {
        let (index, tag, word_idx) = self.index_and_tag(addr);
        let line = &mut self.lines[index];
        if line.valid && line.tag == tag {
            line.data[word_idx] = value;
            line.parity = line.computed_parity();
        }
    }

    fn invalidate_all(&mut self) {
        for line in &mut self.lines {
            *line = ModelLine::empty(self.config.words_per_line);
        }
        self.hits = 0;
        self.misses = 0;
    }
}

#[derive(Debug, Clone)]
enum Op {
    Read {
        addr: u32,
        fetch: bool,
    },
    Store {
        addr: u32,
        value: u32,
    },
    WriteThrough {
        addr: u32,
        value: u32,
    },
    SetValid {
        line: usize,
        valid: bool,
    },
    SetTag {
        line: usize,
        tag: u32,
    },
    FlipParity {
        line: usize,
    },
    SetData {
        line: usize,
        word: usize,
        value: u32,
    },
    DoubleFlipData {
        line: usize,
        word: usize,
        a: u32,
        b: u32,
    },
    FlipTagAndData {
        line: usize,
        tag_bit: u32,
        word: usize,
        bit: u32,
    },
    Invalidate,
    Snapshot,
    Restore,
}

fn arb_addr() -> impl Strategy<Value = u32> {
    prop_oneof![
        // Aligned words of the code region.
        (0u32..MAP.code_end / 4).prop_map(|w| w * 4),
        // Aligned words of the data region.
        (MAP.code_end / 4..MAP.size / 4).prop_map(|w| w * 4),
        // A small hot window straddling the code/data boundary, at any
        // byte offset, so hits and misaligned hits are frequent.
        MAP.code_end - 32..MAP.code_end + 32,
        // Any byte of memory, aligned or not.
        0u32..MAP.size,
        // Just past the end of memory.
        MAP.size..MAP.size + 64,
        // Anywhere in the address space.
        any::<u32>(),
    ]
}

fn arb_op() -> impl Strategy<Value = Op> {
    let line = || 0usize..16;
    let word = || 0usize..8;
    let read = || (arb_addr(), any::<bool>()).prop_map(|(addr, fetch)| Op::Read { addr, fetch });
    prop_oneof![
        read(),
        read(),
        read(),
        read(),
        (arb_addr(), any::<u32>()).prop_map(|(addr, value)| Op::Store { addr, value }),
        (arb_addr(), any::<u32>()).prop_map(|(addr, value)| Op::WriteThrough { addr, value }),
        (line(), any::<bool>()).prop_map(|(line, valid)| Op::SetValid { line, valid }),
        (line(), any::<u32>()).prop_map(|(line, tag)| Op::SetTag { line, tag }),
        line().prop_map(|line| Op::FlipParity { line }),
        (line(), word(), any::<u32>()).prop_map(|(line, word, value)| Op::SetData {
            line,
            word,
            value
        }),
        (line(), word(), 0u32..32, 0u32..32)
            .prop_map(|(line, word, a, b)| { Op::DoubleFlipData { line, word, a, b } }),
        (line(), 0u32..16, word(), 0u32..32).prop_map(|(line, tag_bit, word, bit)| {
            Op::FlipTagAndData {
                line,
                tag_bit,
                word,
                bit,
            }
        }),
        Just(Op::Invalidate),
        Just(Op::Snapshot),
        Just(Op::Restore),
    ]
}

fn memory() -> Memory {
    let mut mem = Memory::new(MAP);
    for a in (0..MAP.size).step_by(4) {
        mem.host_write(a, a.wrapping_mul(0x9e37_79b9) ^ 0x5a5a_0f0f);
    }
    mem
}

/// Applies `op` to both implementations and returns the two access
/// results when the op was a read.
fn apply(
    op: &Op,
    cache: &mut Cache,
    model: &mut Model,
    mem: &mut Memory,
    saved: &mut Option<(Cache, Model)>,
) -> Option<(ReadResult, ReadResult)> {
    let lines = model.config.lines;
    let words = model.config.words_per_line;
    match *op {
        Op::Read { addr, fetch } => {
            return Some((cache.read(mem, addr, fetch), model.read(mem, addr, fetch)));
        }
        Op::Store { addr, value } => {
            if mem.write(addr, value).is_ok() {
                cache.write_through(addr, value);
                model.write_through(addr, value);
            }
        }
        Op::WriteThrough { addr, value } => {
            cache.write_through(addr, value);
            model.write_through(addr, value);
        }
        Op::SetValid { line, valid } => {
            cache.line_mut(line % lines).set_valid_raw(valid);
            model.lines[line % lines].valid = valid;
        }
        Op::SetTag { line, tag } => {
            cache.line_mut(line % lines).set_tag_raw(tag);
            model.lines[line % lines].tag = tag;
        }
        Op::FlipParity { line } => {
            let p = cache.line(line % lines).parity();
            cache.line_mut(line % lines).set_parity_raw(!p);
            model.lines[line % lines].parity = !p;
        }
        Op::SetData { line, word, value } => {
            cache
                .line_mut(line % lines)
                .set_data_raw(word % words, value);
            model.lines[line % lines].data[word % words] = value;
        }
        Op::DoubleFlipData { line, word, a, b } => {
            let (l, w) = (line % lines, word % words);
            for bit in [a, b] {
                let v = cache.line(l).data()[w] ^ (1 << bit);
                cache.line_mut(l).set_data_raw(w, v);
                model.lines[l].data[w] ^= 1 << bit;
            }
        }
        Op::FlipTagAndData {
            line,
            tag_bit,
            word,
            bit,
        } => {
            let (l, w) = (line % lines, word % words);
            let t = cache.line(l).tag() ^ (1 << tag_bit);
            cache.line_mut(l).set_tag_raw(t);
            model.lines[l].tag ^= 1 << tag_bit;
            let v = cache.line(l).data()[w] ^ (1 << bit);
            cache.line_mut(l).set_data_raw(w, v);
            model.lines[l].data[w] ^= 1 << bit;
        }
        Op::Invalidate => {
            cache.invalidate_all();
            model.invalidate_all();
        }
        Op::Snapshot => *saved = Some((cache.clone(), model.clone())),
        Op::Restore => {
            if let Some((c, m)) = saved {
                cache.clone_from(c);
                *model = m.clone();
            }
        }
    }
    None
}

fn check_state(cache: &Cache, model: &Model) -> Result<(), TestCaseError> {
    prop_assert_eq!(cache.hits(), model.hits);
    prop_assert_eq!(cache.misses(), model.misses);
    for (i, m) in model.lines.iter().enumerate() {
        let line = cache.line(i);
        prop_assert_eq!(line.valid(), m.valid, "line {} valid", i);
        prop_assert_eq!(line.tag(), m.tag, "line {} tag", i);
        prop_assert_eq!(line.data(), &m.data[..], "line {} data", i);
        prop_assert_eq!(line.parity(), m.parity, "line {} parity bit", i);
        prop_assert_eq!(line.computed_parity(), m.computed_parity());
        prop_assert_eq!(line.parity_ok(), m.parity_ok(), "line {} parity status", i);
    }
    Ok(())
}

proptest! {
    /// The cache and the naive model agree after every operation of a
    /// random sequence, for every power-of-two geometry up to 16 × 4.
    #[test]
    fn cache_matches_naive_model(
        lines_log in 0u32..5,
        words_log in 0u32..3,
        ops in proptest::collection::vec(arb_op(), 1..300),
    ) {
        let config = CacheConfig {
            lines: 1 << lines_log,
            words_per_line: 1 << words_log,
            miss_penalty: 8,
        };
        let mut cache = Cache::new(config);
        let mut model = Model::new(config);
        let mut mem = memory();
        let mut saved = None;
        for (step, op) in ops.iter().enumerate() {
            if let Some((got, want)) = apply(op, &mut cache, &mut model, &mut mem, &mut saved) {
                prop_assert_eq!(got, want, "step {} ({:?})", step, op);
            }
            check_state(&cache, &model)?;
        }
    }
}

/// Misaligned loads and fetches never raise `Misaligned` through a cache:
/// a miss fills the line around the address and a hit returns the word
/// the address falls in. Only stores (which go to memory first) do.
#[test]
fn misaligned_access_returns_the_containing_word() {
    let config = CacheConfig {
        lines: 4,
        words_per_line: 2,
        miss_penalty: 8,
    };
    let mem = memory();
    let mut cache = Cache::new(config);
    let miss = cache.read(&mem, 2050, false).unwrap();
    assert_eq!(miss.value, mem.host_read(2048).unwrap());
    assert_eq!(miss.extra_cycles, 8);
    let hit = cache.read(&mem, 2055, false).unwrap();
    assert_eq!(hit.value, mem.host_read(2052).unwrap());
    assert_eq!(hit.extra_cycles, 0);
    let fetch = cache.read(&mem, 3, true).unwrap();
    assert_eq!(fetch.value, mem.host_read(0).unwrap());
    // Past the end of memory, a misaligned address fills an all-zero line.
    let beyond = cache.read(&mem, MAP.size + 1, false).unwrap();
    assert_eq!(beyond.value, 0);
}

/// A fault on the requested word leaves the line untouched but still
/// counts the miss; an unmappable neighbour fills as 0.
#[test]
fn faulting_fill_leaves_line_untouched() {
    let config = CacheConfig {
        lines: 2,
        words_per_line: 4,
        miss_penalty: 8,
    };
    // Neither region boundary is line aligned: line 1024..1040 straddles
    // the end of code, line 4096..4112 the end of memory.
    let mut mem = Memory::new(MemoryMap {
        size: 4104,
        code_end: 1028,
    });
    for a in (0..4104).step_by(4) {
        mem.host_write(a, a | 1);
    }
    let mut cache = Cache::new(config);
    let before = cache.line(0).clone();
    // Fetching from the data region faults on the requested word.
    assert!(matches!(
        cache.read(&mem, 1028, true),
        Err(Exception::MemoryViolation { .. })
    ));
    assert_eq!(cache.line(0), &before);
    assert_eq!(cache.misses(), 1);
    // Fetching the last code word fills its neighbours in the data
    // region as 0.
    assert_eq!(cache.read(&mem, 1024, true).unwrap().value, 1025);
    assert_eq!(cache.line(0).data(), &[1025, 0, 0, 0]);
    assert!(cache.line(0).parity_ok());
    // Reading the last word of memory fills the words past the end as 0.
    assert_eq!(cache.read(&mem, 4100, false).unwrap().value, 4101);
    assert_eq!(cache.line(0).data(), &[4097, 4101, 0, 0]);
    assert_eq!(cache.misses(), 3);
}
