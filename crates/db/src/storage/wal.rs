//! Binary write-ahead log: length-prefixed, CRC-checksummed records.
//!
//! Record framing: `u32` payload length, `u32` CRC-32 of the payload,
//! then the payload. The first payload byte is the record type:
//!
//! | type | record        | payload after the type byte                |
//! |------|---------------|--------------------------------------------|
//! | 1    | insert        | `u32` name len, table name, row bytes      |
//! | 2    | delete        | `u32` name len, table name, key bytes      |
//! | 3    | page image    | `u32` page id, `PAGE_SIZE` page bytes      |
//! | 4    | commit marker | (empty) — the preceding images are durable |
//!
//! Replay stops at the first incomplete, oversized or checksum-failing
//! record, which turns a torn tail (the process died mid-append) into
//! a clean prefix of the logical history.

use super::page::{crc32, PageId, PAGE_SIZE};
use crate::error::DbError;
use std::fs::{File, OpenOptions};
use std::io::{BufWriter, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

const TYPE_INSERT: u8 = 1;
const TYPE_DELETE: u8 = 2;
const TYPE_PAGE_IMAGE: u8 = 3;
const TYPE_COMMIT: u8 = 4;

/// Upper bound on a sane record payload; anything larger is treated
/// as a torn/corrupt tail during replay.
const MAX_PAYLOAD: usize = PAGE_SIZE + (1 << 24);

/// One decoded WAL record.
#[derive(Debug, Clone, PartialEq)]
pub enum WalRecord {
    /// A row appended to `table` (binary row codec bytes).
    Insert {
        /// Table the row belongs to.
        table: String,
        /// `codec::encode_row` bytes.
        row: Vec<u8>,
    },
    /// A delete by primary key from `table` (binary value codec bytes).
    Delete {
        /// Table the row was deleted from.
        table: String,
        /// `codec::encode_value` bytes of the primary key.
        key: Vec<u8>,
    },
    /// A full page image logged by the checkpoint protocol.
    PageImage {
        /// The page this image belongs to.
        page: PageId,
        /// Exactly `PAGE_SIZE` bytes.
        data: Vec<u8>,
    },
    /// Commit marker: the page images since the last marker form a
    /// complete, durable checkpoint image set.
    Commit,
}

/// The payload of an insert or delete record.
fn table_payload(ty: u8, table: &str, body: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(5 + table.len() + body.len());
    out.push(ty);
    out.extend_from_slice(&(table.len() as u32).to_le_bytes());
    out.extend_from_slice(table.as_bytes());
    out.extend_from_slice(body);
    out
}

impl WalRecord {
    fn encode(&self) -> Vec<u8> {
        match self {
            WalRecord::Insert { table, row } => table_payload(TYPE_INSERT, table, row),
            WalRecord::Delete { table, key } => table_payload(TYPE_DELETE, table, key),
            WalRecord::PageImage { page, data } => {
                let mut out = Vec::with_capacity(5 + data.len());
                out.push(TYPE_PAGE_IMAGE);
                out.extend_from_slice(&page.to_le_bytes());
                out.extend_from_slice(data);
                out
            }
            WalRecord::Commit => vec![TYPE_COMMIT],
        }
    }

    fn decode(payload: &[u8]) -> Option<WalRecord> {
        let (&ty, rest) = payload.split_first()?;
        match ty {
            TYPE_INSERT | TYPE_DELETE => {
                if rest.len() < 4 {
                    return None;
                }
                let nlen = u32::from_le_bytes(rest[..4].try_into().ok()?) as usize;
                if rest.len() < 4 + nlen {
                    return None;
                }
                let table = String::from_utf8(rest[4..4 + nlen].to_vec()).ok()?;
                let body = rest[4 + nlen..].to_vec();
                Some(if ty == TYPE_INSERT {
                    WalRecord::Insert { table, row: body }
                } else {
                    WalRecord::Delete { table, key: body }
                })
            }
            TYPE_PAGE_IMAGE => {
                if rest.len() != 4 + PAGE_SIZE {
                    return None;
                }
                let page = u32::from_le_bytes(rest[..4].try_into().ok()?);
                Some(WalRecord::PageImage {
                    page,
                    data: rest[4..].to_vec(),
                })
            }
            TYPE_COMMIT => {
                if rest.is_empty() {
                    Some(WalRecord::Commit)
                } else {
                    None
                }
            }
            _ => None,
        }
    }
}

/// An open write-ahead log file.
///
/// Appends are buffered in userspace (`BufWriter`) and reach the OS at
/// [`Wal::flush`] points: a full buffer, a checkpoint's commit marker,
/// a truncate, or drop. A `kill -9` can therefore lose the buffered
/// tail — recovery sees the same clean *prefix* it would after a torn
/// write, which is the contract campaign resume is built on.
///
/// A memory-backed log ([`Wal::memory`]) has no file and records
/// nothing: its engine is never checkpointed or recovered.
pub struct Wal {
    file: Option<BufWriter<File>>,
    path: PathBuf,
    /// Where the valid records found by [`Wal::recover`] end, when a
    /// torn or corrupt tail follows them. The first write cuts the file
    /// here, so new records never land behind bytes replay stops at;
    /// a reader that never writes leaves the file as it found it.
    trim_at: Option<u64>,
}

/// Userspace WAL buffer: appends turn into one `write` syscall per
/// this many bytes instead of one per record.
const WAL_BUF: usize = 64 * 1024;

impl Wal {
    /// Opens (creating if missing) the WAL at `path`, positioned for
    /// appends at the current end.
    pub fn open(path: &Path) -> Result<Wal, DbError> {
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)
            .map_err(|e| DbError::Io(format!("open wal {}: {e}", path.display())))?;
        file.seek(SeekFrom::End(0))
            .map_err(|e| DbError::Io(format!("seek wal: {e}")))?;
        Ok(Wal {
            file: Some(BufWriter::with_capacity(WAL_BUF, file)),
            path: path.to_path_buf(),
            trim_at: None,
        })
    }

    /// Opens the WAL at `path` for recovery: every valid record (as
    /// [`Wal::read_all`]), and the log positioned to append right after
    /// the last of them.
    pub fn recover(path: &Path) -> Result<(Wal, Vec<WalRecord>), DbError> {
        let bytes = read_file(path)?;
        let (records, valid) = parse(&bytes);
        let mut wal = Wal::open(path)?;
        if valid < bytes.len() {
            wal.trim_at = Some(valid as u64);
        }
        Ok((wal, records))
    }

    /// A log with no file behind it, for a memory-backed engine.
    pub fn memory() -> Wal {
        Wal {
            file: None,
            path: PathBuf::new(),
            trim_at: None,
        }
    }

    /// Path of the WAL file; `None` when memory-backed.
    pub fn path(&self) -> Option<&Path> {
        self.file.as_ref().map(|_| self.path.as_path())
    }

    /// The file to write to, after cutting any torn tail found at
    /// recovery; `None` when memory-backed.
    fn writer(&mut self) -> Result<Option<&mut BufWriter<File>>, DbError> {
        let Some(file) = self.file.as_mut() else {
            return Ok(None);
        };
        if let Some(len) = self.trim_at.take() {
            let f = file.get_mut();
            f.set_len(len)
                .and_then(|()| f.seek(SeekFrom::Start(len)).map(drop))
                .map_err(|e| DbError::Io(format!("wal trim: {e}")))?;
        }
        Ok(Some(file))
    }

    fn write_payload(&mut self, payload: &[u8]) -> Result<(), DbError> {
        let Some(file) = self.writer()? else {
            return Ok(());
        };
        let _s = tracing::span("wal.append");
        let mut header = [0u8; 8];
        header[..4].copy_from_slice(&(payload.len() as u32).to_le_bytes());
        header[4..].copy_from_slice(&crc32(payload).to_le_bytes());
        file.write_all(&header)
            .and_then(|()| file.write_all(payload))
            .map_err(|e| DbError::Io(format!("wal append: {e}")))
    }

    /// Appends one record (framed, checksummed) to the write buffer.
    pub fn append(&mut self, record: &WalRecord) -> Result<(), DbError> {
        if self.file.is_none() {
            return Ok(());
        }
        self.write_payload(&record.encode())
    }

    /// Appends an insert record for `row`, already in the row codec —
    /// [`Wal::append`] of a [`WalRecord::Insert`] without taking
    /// ownership of the bytes.
    pub fn append_insert(&mut self, table: &str, row: &[u8]) -> Result<(), DbError> {
        if self.file.is_none() {
            return Ok(());
        }
        self.write_payload(&table_payload(TYPE_INSERT, table, row))
    }

    /// Pushes every buffered record to the OS — the durability point
    /// checkpoints rely on before touching the data file in place.
    /// Cuts nothing: a log that was only read keeps its torn tail.
    pub fn flush(&mut self) -> Result<(), DbError> {
        let _s = tracing::span("wal.fsync");
        let Some(file) = self.file.as_mut() else {
            return Ok(());
        };
        file.flush()
            .map_err(|e| DbError::Io(format!("wal flush: {e}")))
    }

    /// Empties the WAL — called once a checkpoint has made the data
    /// file current.
    pub fn truncate(&mut self) -> Result<(), DbError> {
        self.flush()?;
        let Some(file) = self.file.as_mut() else {
            return Ok(());
        };
        let file = file.get_mut();
        file.set_len(0)
            .map_err(|e| DbError::Io(format!("wal truncate: {e}")))?;
        file.seek(SeekFrom::Start(0))
            .map_err(|e| DbError::Io(format!("wal seek: {e}")))?;
        self.trim_at = None;
        Ok(())
    }

    /// Current size of the WAL in bytes, counting buffered appends.
    pub fn size(&self) -> Result<u64, DbError> {
        let Some(file) = self.file.as_ref() else {
            return Ok(0);
        };
        file.get_ref()
            .metadata()
            .map(|m| m.len() + file.buffer().len() as u64)
            .map_err(|e| DbError::Io(format!("stat wal: {e}")))
    }

    /// Reads every valid record from the WAL at `path`, stopping at the
    /// first torn or corrupt one. A missing file reads as empty.
    pub fn read_all(path: &Path) -> Result<Vec<WalRecord>, DbError> {
        Ok(parse(&read_file(path)?).0)
    }
}

/// The bytes of the file at `path`; empty when it does not exist.
fn read_file(path: &Path) -> Result<Vec<u8>, DbError> {
    let mut bytes = Vec::new();
    match File::open(path) {
        Ok(mut f) => {
            f.read_to_end(&mut bytes)
                .map_err(|e| DbError::Io(format!("read wal: {e}")))?;
        }
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
        Err(e) => return Err(DbError::Io(format!("open wal {}: {e}", path.display()))),
    }
    Ok(bytes)
}

/// The valid records at the start of `bytes`, and where they end.
fn parse(bytes: &[u8]) -> (Vec<WalRecord>, usize) {
    let mut records = Vec::new();
    let mut pos = 0usize;
    while bytes.len() - pos >= 8 {
        let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().expect("4 bytes")) as usize;
        let crc = u32::from_le_bytes(bytes[pos + 4..pos + 8].try_into().expect("4 bytes"));
        if len == 0 || len > MAX_PAYLOAD || bytes.len() - pos - 8 < len {
            break; // torn tail
        }
        let payload = &bytes[pos + 8..pos + 8 + len];
        if crc32(payload) != crc {
            break; // corrupt tail
        }
        match WalRecord::decode(payload) {
            Some(rec) => records.push(rec),
            None => break,
        }
        pos += 8 + len;
    }
    (records, pos)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("goofi_wal_tests");
        std::fs::create_dir_all(&dir).unwrap();
        let p = dir.join(name);
        let _ = std::fs::remove_file(&p);
        p
    }

    #[test]
    fn records_roundtrip() {
        let path = tmp("roundtrip.wal");
        let recs = vec![
            WalRecord::Insert {
                table: "T".into(),
                row: vec![1, 2, 3],
            },
            WalRecord::Delete {
                table: "T".into(),
                key: vec![9],
            },
            WalRecord::PageImage {
                page: 7,
                data: vec![0xAB; PAGE_SIZE],
            },
            WalRecord::Commit,
        ];
        let mut wal = Wal::open(&path).unwrap();
        for r in &recs {
            wal.append(r).unwrap();
        }
        drop(wal);
        assert_eq!(Wal::read_all(&path).unwrap(), recs);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn torn_tail_reads_as_prefix() {
        let path = tmp("torn.wal");
        let mut wal = Wal::open(&path).unwrap();
        for i in 0..5u8 {
            wal.append(&WalRecord::Insert {
                table: "T".into(),
                row: vec![i; 40],
            })
            .unwrap();
        }
        drop(wal);
        let full = std::fs::read(&path).unwrap();
        // Truncate mid-record: only the complete prefix survives.
        std::fs::write(&path, &full[..full.len() - 17]).unwrap();
        let recs = Wal::read_all(&path).unwrap();
        assert_eq!(recs.len(), 4);
        // Corrupt a payload byte in the final record: same prefix.
        let mut corrupt = full.clone();
        let n = corrupt.len();
        corrupt[n - 3] ^= 0xFF;
        std::fs::write(&path, &corrupt).unwrap();
        assert_eq!(Wal::read_all(&path).unwrap().len(), 4);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn missing_wal_reads_empty() {
        assert!(
            Wal::read_all(Path::new("/tmp/goofi-definitely-missing.wal"))
                .unwrap()
                .is_empty()
        );
    }
}
