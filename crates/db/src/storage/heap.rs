//! Slotted-page row heaps: each table stores its rows in a chain of
//! pages, with an overflow chain for rows larger than a page.
//!
//! Heap page layout (offsets in bytes):
//!
//! ```text
//! 0..4   next page id (u32 LE, 0 = end of chain)
//! 4..6   slot count   (u16 LE)
//! 6..8   cell start   (u16 LE, cells grow down from PAGE_SIZE)
//! 8..    slot array: per slot { cell offset u16, cell len u16 }
//! ```
//!
//! A slot with offset 0 is a tombstone (deleted row); its cell bytes
//! are reclaimed only by `compact` (a bulk rewrite). Cells start with
//! a tag byte: `0` = inline row bytes follow, `1` = the row lives in
//! an overflow chain (`u32` first page + `u32` total length follow).
//!
//! Overflow page layout: `0..4` next page id, `4..8` used bytes,
//! `8..` data.

use super::buffer::BufferPool;
use super::disk::DiskManager;
use super::page::{get_u16, get_u32, put_u16, put_u32, PageId, PAGE_SIZE};
use crate::error::DbError;

/// Locates one row: (heap page id, slot index).
pub(crate) type RowId = (PageId, u16);

const HDR: usize = 8;
const SLOT: usize = 4;
const TAG_INLINE: u8 = 0;
const TAG_OVERFLOW: u8 = 1;
/// Largest row that still fits inline in an otherwise-empty page.
const INLINE_MAX: usize = PAGE_SIZE - HDR - SLOT - 1;
const OVERFLOW_CAP: usize = PAGE_SIZE - 8;

/// Formats `page` as an empty heap page.
pub(crate) fn init_page(page: &mut [u8; PAGE_SIZE]) {
    page.fill(0);
    put_u16(page, 6, PAGE_SIZE as u16);
}

fn next_of(page: &[u8; PAGE_SIZE]) -> PageId {
    get_u32(page, 0)
}

fn slot_count(page: &[u8; PAGE_SIZE]) -> u16 {
    get_u16(page, 4)
}

/// Tries to place `cell` in `page`; returns the slot index on success.
fn try_insert(page: &mut [u8; PAGE_SIZE], cell: &[u8]) -> Option<u16> {
    let count = slot_count(page) as usize;
    let cell_start = get_u16(page, 6) as usize;
    let slots_end = HDR + count * SLOT;
    if cell_start < slots_end + SLOT || cell_start - slots_end - SLOT < cell.len() {
        return None;
    }
    let off = cell_start - cell.len();
    page[off..off + cell.len()].copy_from_slice(cell);
    put_u16(page, HDR + count * SLOT, off as u16);
    put_u16(page, HDR + count * SLOT + 2, cell.len() as u16);
    put_u16(page, 4, (count + 1) as u16);
    put_u16(page, 6, off as u16);
    Some(count as u16)
}

fn write_overflow(
    pool: &mut BufferPool,
    disk: &mut DiskManager,
    data: &[u8],
) -> Result<PageId, DbError> {
    let mut first: PageId = 0;
    let mut prev: PageId = 0;
    for chunk in data.chunks(OVERFLOW_CAP) {
        let (id, page) = pool.allocate(disk);
        put_u32(page, 4, chunk.len() as u32);
        page[8..8 + chunk.len()].copy_from_slice(chunk);
        if first == 0 {
            first = id;
        } else {
            let prev_page = pool.page_mut(disk, prev)?;
            put_u32(prev_page, 0, id);
        }
        prev = id;
    }
    Ok(first)
}

fn read_overflow(
    pool: &mut BufferPool,
    disk: &mut DiskManager,
    first: PageId,
    total: usize,
) -> Result<Vec<u8>, DbError> {
    let mut out = Vec::with_capacity(total);
    let mut id = first;
    let limit = disk.page_count() as usize + 1;
    let mut hops = 0usize;
    while id != 0 && out.len() < total {
        hops += 1;
        if hops > limit {
            return Err(DbError::Io("overflow chain cycle".into()));
        }
        let page = pool.page(disk, id)?;
        let used = get_u32(page, 4) as usize;
        if used > OVERFLOW_CAP {
            return Err(DbError::Io("corrupt overflow page".into()));
        }
        out.extend_from_slice(&page[8..8 + used]);
        id = next_of(page);
    }
    if out.len() != total {
        return Err(DbError::Io("short overflow chain".into()));
    }
    Ok(out)
}

/// Appends `row_bytes` to the heap chain ending at `last_page`.
/// Returns the new row's id and the chain's (possibly new) last page.
pub(crate) fn append_row(
    pool: &mut BufferPool,
    disk: &mut DiskManager,
    last_page: PageId,
    row_bytes: &[u8],
) -> Result<(RowId, PageId), DbError> {
    let cell: Vec<u8> = if row_bytes.len() <= INLINE_MAX {
        let mut c = Vec::with_capacity(1 + row_bytes.len());
        c.push(TAG_INLINE);
        c.extend_from_slice(row_bytes);
        c
    } else {
        let first = write_overflow(pool, disk, row_bytes)?;
        let mut c = Vec::with_capacity(9);
        c.push(TAG_OVERFLOW);
        c.extend_from_slice(&first.to_le_bytes());
        c.extend_from_slice(&(row_bytes.len() as u32).to_le_bytes());
        c
    };
    let page = pool.page_mut(disk, last_page)?;
    if let Some(slot) = try_insert(page, &cell) {
        return Ok(((last_page, slot), last_page));
    }
    let (new_page, page) = pool.allocate(disk);
    init_page(page);
    let slot = try_insert(page, &cell).ok_or_else(|| {
        DbError::Io(format!(
            "cell of {} bytes does not fit an empty page",
            cell.len()
        ))
    })?;
    put_u32(pool.page_mut(disk, last_page)?, 0, new_page);
    Ok(((new_page, slot), new_page))
}

/// Reads the row bytes at `row`, or `None` if the slot is a tombstone.
pub(crate) fn read_row(
    pool: &mut BufferPool,
    disk: &mut DiskManager,
    row: RowId,
) -> Result<Option<Vec<u8>>, DbError> {
    let (pid, slot) = row;
    let cell: Vec<u8> = {
        let page = pool.page(disk, pid)?;
        if slot >= slot_count(page) {
            return Err(DbError::Io(format!("no slot {slot} in page {pid}")));
        }
        let off = get_u16(page, HDR + slot as usize * SLOT) as usize;
        let len = get_u16(page, HDR + slot as usize * SLOT + 2) as usize;
        if off == 0 {
            return Ok(None);
        }
        if off + len > PAGE_SIZE || len == 0 {
            return Err(DbError::Io(format!("corrupt slot {slot} in page {pid}")));
        }
        page[off..off + len].to_vec()
    };
    match cell[0] {
        TAG_INLINE => Ok(Some(cell[1..].to_vec())),
        TAG_OVERFLOW => {
            if cell.len() != 9 {
                return Err(DbError::Io("corrupt overflow cell".into()));
            }
            let first = u32::from_le_bytes(cell[1..5].try_into().expect("4 bytes"));
            let total = u32::from_le_bytes(cell[5..9].try_into().expect("4 bytes")) as usize;
            Ok(Some(read_overflow(pool, disk, first, total)?))
        }
        other => Err(DbError::Io(format!("unknown cell tag {other}"))),
    }
}

/// Tombstones the slot at `row`; returns whether it was live.
pub(crate) fn delete_row(
    pool: &mut BufferPool,
    disk: &mut DiskManager,
    row: RowId,
) -> Result<bool, DbError> {
    let (pid, slot) = row;
    let page = pool.page_mut(disk, pid)?;
    if slot >= slot_count(page) {
        return Err(DbError::Io(format!("no slot {slot} in page {pid}")));
    }
    let off = get_u16(page, HDR + slot as usize * SLOT);
    if off == 0 {
        return Ok(false);
    }
    put_u16(page, HDR + slot as usize * SLOT, 0);
    put_u16(page, HDR + slot as usize * SLOT + 2, 0);
    Ok(true)
}

/// The page ids of the heap chain starting at `first`, in chain order.
pub(crate) fn chain(
    pool: &mut BufferPool,
    disk: &mut DiskManager,
    first: PageId,
) -> Result<Vec<PageId>, DbError> {
    let mut ids = Vec::new();
    let mut id = first;
    let limit = disk.page_count() as usize + 1;
    while id != 0 {
        if ids.len() > limit {
            return Err(DbError::Io("heap chain cycle".into()));
        }
        ids.push(id);
        id = next_of(pool.page(disk, id)?);
    }
    Ok(ids)
}

/// Live and total slot counts of one heap page.
pub(crate) fn page_slots(
    pool: &mut BufferPool,
    disk: &mut DiskManager,
    pid: PageId,
) -> Result<(u16, u16), DbError> {
    let page = pool.page(disk, pid)?;
    let count = slot_count(page);
    let mut live = 0u16;
    for slot in 0..count {
        if get_u16(page, HDR + slot as usize * SLOT) != 0 {
            live += 1;
        }
    }
    Ok((live, count))
}
