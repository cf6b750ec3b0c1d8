//! Paged storage engine: disk manager, buffer pool, slotted-page row
//! heaps, a binary checksummed WAL, and B-tree indexes.
//!
//! The JSON-era format rewrote the whole database as a JSON snapshot
//! on every durable save — O(total rows) per save — and its JSON-lines
//! journal re-serialised every appended row as text (it survives only
//! as a read-only legacy format, [`crate::Database::load`]). This
//! module replaces both with a real storage engine:
//!
//! * [`DiskManager`] reads and writes fixed-size 4 KiB pages;
//! * [`BufferPool`] caches pages with a deterministic LRU and a
//!   *no-steal* policy (dirty pages are never evicted, so the file on
//!   disk always equals the last checkpoint between checkpoints);
//! * [`heap`] lays rows out in slotted pages chained per table, with
//!   overflow chains for rows larger than a page;
//! * [`Wal`] is a binary, length-prefixed, CRC-checksummed
//!   write-ahead log — one record per append — replayed on open and
//!   truncated by [`PagedEngine::checkpoint`];
//! * [`BTree`] is the in-memory ordered index behind primary keys and
//!   declared secondary indexes, in the engine and on [`crate::Table`]
//!   alike.
//!
//! [`encode_row`]/[`decode_row`] is the binary row codec of heap cells
//! and WAL payloads; the campaign service's worker pipe reuses it for
//! experiment rows.
//!
//! See `DESIGN.md` §storage for the page format, the WAL record
//! layout, the checkpoint protocol and the recovery invariants.

mod btree;
mod buffer;
mod codec;
mod disk;
mod engine;
mod heap;
mod page;
mod wal;

pub use btree::BTree;
pub use buffer::BufferPool;
pub use codec::{decode_row, encode_row};
pub use disk::DiskManager;
pub use engine::{is_paged_file, wal_path, write_database, EngineStats, PagedEngine, TableStats};
pub use page::{crc32, PageId, PAGE_SIZE};
pub use wal::{Wal, WalRecord};
