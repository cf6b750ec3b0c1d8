//! The disk manager: page-granular access to a single data file.

use super::page::{PageId, PAGE_SIZE};
use crate::error::DbError;
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// Owns the data file and reads/writes whole pages.
///
/// The logical page count can run ahead of the file length: pages
/// allocated since the last checkpoint exist only in the buffer pool
/// (the no-steal policy never writes them early), and reading past the
/// end of the file yields a zeroed page.
///
/// A memory-backed manager ([`DiskManager::memory`]) has no file: every
/// page lives in the buffer pool, reads yield zeroed pages and writes
/// are dropped.
pub struct DiskManager {
    file: Option<File>,
    path: PathBuf,
    page_count: u32,
}

impl DiskManager {
    /// Creates (truncating) a new, empty data file. The first page
    /// allocated is page 0, the engine's header page.
    pub fn create(path: &Path) -> Result<DiskManager, DbError> {
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)
            .map_err(|e| DbError::Io(format!("create {}: {e}", path.display())))?;
        Ok(DiskManager {
            file: Some(file),
            path: path.to_path_buf(),
            page_count: 0,
        })
    }

    /// A manager with no file behind it, for a memory-backed engine.
    pub fn memory() -> DiskManager {
        DiskManager {
            file: None,
            path: PathBuf::new(),
            page_count: 0,
        }
    }

    /// Opens an existing data file. The logical page count is restored
    /// from the header page by the engine after recovery; until then it
    /// is derived from the file length.
    pub fn open(path: &Path) -> Result<DiskManager, DbError> {
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .open(path)
            .map_err(|e| DbError::Io(format!("open {}: {e}", path.display())))?;
        let len = file
            .metadata()
            .map_err(|e| DbError::Io(format!("stat {}: {e}", path.display())))?
            .len();
        let page_count = (len.div_ceil(PAGE_SIZE as u64)).max(1) as u32;
        Ok(DiskManager {
            file: Some(file),
            path: path.to_path_buf(),
            page_count,
        })
    }

    /// Path of the data file; `None` when memory-backed.
    pub fn path(&self) -> Option<&Path> {
        self.file.as_ref().map(|_| self.path.as_path())
    }

    /// Number of logically allocated pages (including unflushed ones).
    pub fn page_count(&self) -> u32 {
        self.page_count
    }

    /// Restores the logical page count from a recovered header page.
    pub fn set_page_count(&mut self, n: u32) {
        self.page_count = n.max(1);
    }

    /// Allocates a fresh page id. The page exists only in the buffer
    /// pool until the next checkpoint writes it.
    pub fn allocate(&mut self) -> PageId {
        let id = self.page_count;
        self.page_count += 1;
        id
    }

    /// Reads page `id` into `buf`, zero-filling anything past the
    /// current end of the file.
    pub fn read_page(&mut self, id: PageId, buf: &mut [u8; PAGE_SIZE]) -> Result<(), DbError> {
        buf.fill(0);
        let Some(file) = self.file.as_mut() else {
            return Ok(());
        };
        let off = id as u64 * PAGE_SIZE as u64;
        let len = file
            .metadata()
            .map_err(|e| DbError::Io(format!("stat {}: {e}", self.path.display())))?
            .len();
        if off >= len {
            return Ok(());
        }
        file.seek(SeekFrom::Start(off))
            .map_err(|e| DbError::Io(format!("seek page {id}: {e}")))?;
        let avail = ((len - off) as usize).min(PAGE_SIZE);
        file.read_exact(&mut buf[..avail])
            .map_err(|e| DbError::Io(format!("read page {id}: {e}")))?;
        Ok(())
    }

    /// Writes page `id`, extending the file as needed.
    pub fn write_page(&mut self, id: PageId, buf: &[u8; PAGE_SIZE]) -> Result<(), DbError> {
        let Some(file) = self.file.as_mut() else {
            return Ok(());
        };
        let off = id as u64 * PAGE_SIZE as u64;
        file.seek(SeekFrom::Start(off))
            .map_err(|e| DbError::Io(format!("seek page {id}: {e}")))?;
        file.write_all(buf)
            .map_err(|e| DbError::Io(format!("write page {id}: {e}")))?;
        Ok(())
    }

    /// Flushes buffered writes to the OS.
    pub fn sync(&mut self) -> Result<(), DbError> {
        let Some(file) = self.file.as_mut() else {
            return Ok(());
        };
        file.flush()
            .map_err(|e| DbError::Io(format!("sync {}: {e}", self.path.display())))
    }

    /// Current size of the data file in bytes (0 when memory-backed).
    pub fn file_len(&self) -> Result<u64, DbError> {
        let Some(file) = self.file.as_ref() else {
            return Ok(0);
        };
        file.metadata()
            .map(|m| m.len())
            .map_err(|e| DbError::Io(format!("stat {}: {e}", self.path.display())))
    }
}
