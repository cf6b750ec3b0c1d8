//! The buffer pool: an in-memory page cache with deterministic LRU
//! eviction and a no-steal policy.

use super::disk::DiskManager;
use super::page::{PageId, PAGE_SIZE};
use crate::error::DbError;
use std::collections::btree_map::{BTreeMap, Entry};

struct Frame {
    data: Box<[u8; PAGE_SIZE]>,
    dirty: bool,
    last_used: u64,
}

/// Caches pages between the engine and the [`DiskManager`].
///
/// *No-steal*: a dirty page is never evicted and never written back
/// outside a checkpoint, so between checkpoints the data file always
/// holds exactly the last checkpoint's state — the recovery invariant
/// the WAL replay relies on. When every resident page is dirty the
/// pool grows past its nominal capacity instead of stealing.
///
/// Eviction is LRU over a monotonic access counter (no wall clock), so
/// identical operation histories touch the disk identically.
pub struct BufferPool {
    frames: BTreeMap<PageId, Frame>,
    capacity: usize,
    tick: u64,
    dirty: usize,
}

/// Default number of resident pages (1 MiB of 4 KiB pages).
pub const DEFAULT_CAPACITY: usize = 256;

impl BufferPool {
    /// A pool with the default capacity.
    pub fn new() -> BufferPool {
        BufferPool::with_capacity(DEFAULT_CAPACITY)
    }

    /// A pool holding up to `capacity` clean pages.
    pub fn with_capacity(capacity: usize) -> BufferPool {
        BufferPool {
            frames: BTreeMap::new(),
            capacity: capacity.max(8),
            tick: 0,
            dirty: 0,
        }
    }

    fn ensure(&mut self, disk: &mut DiskManager, id: PageId) -> Result<(), DbError> {
        if self.frames.contains_key(&id) {
            return Ok(());
        }
        self.make_room();
        let mut data = Box::new([0u8; PAGE_SIZE]);
        disk.read_page(id, &mut data)?;
        self.frames.insert(
            id,
            Frame {
                data,
                dirty: false,
                last_used: 0,
            },
        );
        Ok(())
    }

    /// Evicts least-recently-used *clean* frames ahead of one more
    /// frame. Dirty frames are pinned (no-steal), so an all-dirty pool
    /// grows instead. The dirty counter makes the all-dirty case O(1),
    /// and evicting in a batch down to capacity amortises the scan
    /// after a checkpoint cleans an over-grown pool.
    fn make_room(&mut self) {
        if self.frames.len() >= self.capacity && self.frames.len() > self.dirty {
            let mut clean: Vec<(u64, PageId)> = self
                .frames
                .iter()
                .filter(|(_, f)| !f.dirty)
                .map(|(pid, f)| (f.last_used, *pid))
                .collect();
            clean.sort_unstable();
            let excess = (self.frames.len() + 1).saturating_sub(self.capacity);
            for (_, pid) in clean.iter().take(excess) {
                self.frames.remove(pid);
            }
        }
    }

    /// Allocates a page on `disk` and returns its id with write access
    /// to a zeroed, dirty frame. The frame is never read from the file:
    /// bytes past the last checkpoint's page count may be left over from
    /// a checkpoint that died before its commit.
    pub fn allocate(&mut self, disk: &mut DiskManager) -> (PageId, &mut [u8; PAGE_SIZE]) {
        let id = disk.allocate();
        self.make_room();
        self.tick += 1;
        let frame = Frame {
            data: Box::new([0u8; PAGE_SIZE]),
            dirty: true,
            last_used: self.tick,
        };
        let frame = match self.frames.entry(id) {
            Entry::Occupied(mut slot) => {
                if !slot.get().dirty {
                    self.dirty += 1;
                }
                slot.insert(frame);
                slot.into_mut()
            }
            Entry::Vacant(slot) => {
                self.dirty += 1;
                slot.insert(frame)
            }
        };
        (id, &mut frame.data)
    }

    /// Read access to page `id`, faulting it in if needed.
    pub fn page(
        &mut self,
        disk: &mut DiskManager,
        id: PageId,
    ) -> Result<&[u8; PAGE_SIZE], DbError> {
        self.ensure(disk, id)?;
        self.tick += 1;
        let frame = self.frames.get_mut(&id).expect("ensured above");
        frame.last_used = self.tick;
        Ok(&frame.data)
    }

    /// Write access to page `id`; the frame is marked dirty and pinned
    /// in memory until the next checkpoint.
    pub fn page_mut(
        &mut self,
        disk: &mut DiskManager,
        id: PageId,
    ) -> Result<&mut [u8; PAGE_SIZE], DbError> {
        self.ensure(disk, id)?;
        self.tick += 1;
        let frame = self.frames.get_mut(&id).expect("ensured above");
        frame.last_used = self.tick;
        if !frame.dirty {
            frame.dirty = true;
            self.dirty += 1;
        }
        Ok(&mut frame.data)
    }

    /// Installs `data` as the (dirty) contents of page `id` without
    /// reading the disk — used when WAL recovery replays page images.
    pub fn install(&mut self, id: PageId, data: &[u8]) {
        let mut boxed = Box::new([0u8; PAGE_SIZE]);
        let n = data.len().min(PAGE_SIZE);
        boxed[..n].copy_from_slice(&data[..n]);
        self.tick += 1;
        let old = self.frames.insert(
            id,
            Frame {
                data: boxed,
                dirty: true,
                last_used: self.tick,
            },
        );
        if !old.is_some_and(|f| f.dirty) {
            self.dirty += 1;
        }
    }

    /// Ids of all dirty pages, ascending.
    pub fn dirty_ids(&self) -> Vec<PageId> {
        self.frames
            .iter()
            .filter(|(_, f)| f.dirty)
            .map(|(id, _)| *id)
            .collect()
    }

    /// Raw contents of a resident page (dirty or clean), if cached.
    pub fn resident(&self, id: PageId) -> Option<&[u8; PAGE_SIZE]> {
        self.frames.get(&id).map(|f| &*f.data)
    }

    /// Marks every frame clean — called after a checkpoint has written
    /// all dirty pages to disk.
    pub fn mark_all_clean(&mut self) {
        for frame in self.frames.values_mut() {
            frame.dirty = false;
        }
        self.dirty = 0;
    }

    /// Number of resident frames.
    pub fn resident_count(&self) -> usize {
        self.frames.len()
    }
}

impl Default for BufferPool {
    fn default() -> Self {
        BufferPool::new()
    }
}
