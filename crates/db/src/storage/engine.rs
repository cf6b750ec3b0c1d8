//! The paged storage engine: catalog, per-table row heaps, primary-key
//! and declared secondary B-tree indexes, constraint checks, WAL-backed
//! appends and checkpoint/recovery.
//!
//! Checkpoint protocol (torn-page safe):
//!
//! 1. flush the WAL, so every logged row has reached the OS;
//! 2. write in place every dirty page allocated since the last
//!    checkpoint, then sync — nothing on disk reaches these pages until
//!    step 4 lands, so they need no image;
//! 3. append a full image of every other dirty page (those that existed
//!    at the last checkpoint) to the WAL,
//! 4. append a commit marker and flush the WAL,
//! 5. write those pages in place (ascending page id) and sync,
//! 6. truncate the WAL.
//!
//! Between checkpoints the data file is never touched (the buffer
//! pool's no-steal policy), so recovery sees exactly one of two
//! states: *no commit marker in the WAL* — the data file is the last
//! checkpoint (bytes past its page count are unreachable, and pages
//! allocated again come from zeroed frames), replay the logical records
//! (tolerating a torn tail); *commit marker present* — a checkpoint
//! died mid-write after its new pages were on disk, reapply the
//! (idempotent) page images, then replay any logical records after the
//! marker.
//!
//! A memory-backed engine ([`PagedEngine::memory`]) has no data file
//! and no WAL: nothing is checkpointed, so the no-steal pool holds
//! every page. It is the store of a database that has not been saved.

use super::btree::BTree;
use super::buffer::BufferPool;
use super::codec::{decode_row, decode_value, encode_row, encode_value};
use super::disk::DiskManager;
use super::heap::{self, RowId};
use super::page::{get_u32, put_u32, PageId, FORMAT_VERSION, MAGIC, PAGE_SIZE};
use super::wal::{Wal, WalRecord};
use crate::database::Database;
use crate::error::DbError;
use crate::schema::TableSchema;
use crate::table::{IndexKey, Row, SecondaryIndex, Table};
use crate::value::Value;
use serde::{Deserialize, Serialize};
use std::io::Read;
use std::path::{Path, PathBuf};

// Header page (page 0) field offsets.
const H_MAGIC: usize = 0;
const H_VERSION: usize = 8;
const H_PAGE_SIZE: usize = 12;
const H_PAGE_COUNT: usize = 16;
const H_CATALOG_ROOT: usize = 20;
const H_CATALOG_LEN: usize = 24;

const CHAIN_CAP: usize = PAGE_SIZE - 8;

/// Serialized catalog entry: one table's schema (with its declared
/// indexes) and heap chain.
#[derive(Serialize, Deserialize)]
struct CatalogEntry {
    name: String,
    schema: TableSchema,
    first_page: PageId,
    last_page: PageId,
}

struct EngineTable {
    name: String,
    schema: TableSchema,
    first_page: PageId,
    last_page: PageId,
    pk: Option<usize>,
    /// Primary key → row location. Deletions blank the value (the
    /// B-tree is append-only); the tree is rebuilt on every open.
    index: BTree<IndexKey, Option<RowId>>,
    /// The schema's declared secondary indexes, by name.
    secondary: Vec<(String, SecondaryIndex<RowId>)>,
    live_rows: u64,
    dead_slots: u64,
}

impl EngineTable {
    fn new(schema: TableSchema, first_page: PageId, last_page: PageId) -> EngineTable {
        let mut table = EngineTable {
            name: schema.name().to_owned(),
            pk: schema.primary_key_index(),
            schema,
            first_page,
            last_page,
            index: BTree::new(),
            secondary: Vec::new(),
            live_rows: 0,
            dead_slots: 0,
        };
        table.clear_indexes();
        table
    }

    /// Empties every index and counter, ready for a rebuild.
    fn clear_indexes(&mut self) {
        self.index = BTree::new();
        self.secondary = self
            .schema
            .indexes()
            .iter()
            .map(|ix| (ix.name.clone(), SecondaryIndex::new(&self.schema, ix)))
            .collect();
        self.live_rows = 0;
        self.dead_slots = 0;
    }

    /// Whether any index needs a row's values (otherwise a heap scan
    /// only counts rows).
    fn indexed(&self) -> bool {
        self.pk.is_some() || !self.secondary.is_empty()
    }

    fn index_row(&mut self, rowid: RowId, row: &[Value]) {
        if let Some(col) = self.pk {
            self.index.insert(IndexKey(row[col].clone()), Some(rowid));
        }
        for (_, index) in &mut self.secondary {
            index.insert(rowid, row);
        }
    }

    /// The live row location under primary key `key`, looked up by
    /// borrowing it.
    fn locate(&self, key: &Value) -> Option<RowId> {
        self.pk?;
        self.index.get_by(|k| k.0.total_cmp(key)).copied().flatten()
    }
}

/// The WAL path that belongs to the data file at `db_path` — the data
/// file's name with `.wal` appended (mirrors [`crate::journal_path`]).
pub fn wal_path(db_path: impl AsRef<Path>) -> PathBuf {
    let p = db_path.as_ref();
    let mut name = p.file_name().unwrap_or_default().to_os_string();
    name.push(".wal");
    p.with_file_name(name)
}

/// Whether the file at `path` starts with the paged-engine magic.
/// Missing or short files answer `false` (legacy JSON path).
pub fn is_paged_file(path: impl AsRef<Path>) -> bool {
    let mut buf = [0u8; 8];
    match std::fs::File::open(path.as_ref()) {
        Ok(mut f) => f.read_exact(&mut buf).is_ok() && &buf == MAGIC,
        Err(_) => false,
    }
}

/// A database stored as fixed-size pages with WAL durability.
///
/// Every insert goes through the same checks [`Database::insert`]
/// makes — arity, types and NOT NULL ([`TableSchema::validate`]),
/// foreign-key parents, primary-key uniqueness — before its WAL record
/// is written, so a rejected row leaves no trace. Foreign keys must
/// reference their parent table's primary key, and UNIQUE constraints
/// on other columns are not enforced here.
pub struct PagedEngine {
    disk: DiskManager,
    pool: BufferPool,
    wal: Wal,
    catalog_root: PageId,
    catalog_len: u32,
    tables: Vec<EngineTable>,
    /// Page count at the last checkpoint: dirty pages below it are
    /// logged as images before being written in place, pages at or
    /// above it are written in place directly.
    checkpointed_pages: u32,
}

impl std::fmt::Debug for PagedEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PagedEngine")
            .field("path", &self.path())
            .field("tables", &self.tables.len())
            .finish()
    }
}

/// Sizes and fragmentation counters for `goofi db stats`.
#[derive(Debug, Clone, Serialize)]
pub struct EngineStats {
    /// Bytes per page.
    pub page_size: usize,
    /// Logically allocated pages (including the header).
    pub page_count: u32,
    /// Data file size on disk in bytes.
    pub file_bytes: u64,
    /// WAL size on disk in bytes.
    pub wal_bytes: u64,
    /// Valid records currently in the WAL.
    pub wal_records: usize,
    /// Per-table heap/index statistics, in catalog order.
    pub tables: Vec<TableStats>,
}

/// Per-table statistics within [`EngineStats`].
#[derive(Debug, Clone, Serialize)]
pub struct TableStats {
    /// Table name.
    pub name: String,
    /// Pages in the table's heap chain (overflow pages excluded).
    pub heap_pages: usize,
    /// Live rows.
    pub live_rows: u64,
    /// Tombstoned slots awaiting `compact`.
    pub dead_slots: u64,
    /// Entries in the primary-key index (equals live rows when the
    /// table has a primary key).
    pub index_entries: u64,
}

/// Fills the header page.
fn write_header(
    hdr: &mut [u8; PAGE_SIZE],
    page_count: u32,
    catalog_root: PageId,
    catalog_len: u32,
) {
    hdr.fill(0);
    hdr[H_MAGIC..H_MAGIC + 8].copy_from_slice(MAGIC);
    put_u32(hdr, H_VERSION, FORMAT_VERSION);
    put_u32(hdr, H_PAGE_SIZE, PAGE_SIZE as u32);
    put_u32(hdr, H_PAGE_COUNT, page_count);
    put_u32(hdr, H_CATALOG_ROOT, catalog_root);
    put_u32(hdr, H_CATALOG_LEN, catalog_len);
}

impl PagedEngine {
    /// An empty engine over `disk` and `wal`, whose first allocation
    /// becomes the header page.
    fn empty(mut disk: DiskManager, wal: Wal) -> PagedEngine {
        let mut pool = BufferPool::new();
        let (_, hdr) = pool.allocate(&mut disk);
        write_header(hdr, 1, 0, 0);
        PagedEngine {
            disk,
            pool,
            wal,
            catalog_root: 0,
            catalog_len: 0,
            tables: Vec::new(),
            // The header is always logged as an image: writing it in
            // place first would publish the checkpoint before its commit.
            checkpointed_pages: 1,
        }
    }

    /// Creates a fresh, empty engine file at `path` (truncating), with
    /// its WAL beside it.
    pub fn create(path: &Path) -> Result<PagedEngine, DbError> {
        let disk = DiskManager::create(path)?;
        let mut wal = Wal::open(&wal_path(path))?;
        wal.truncate()?;
        Ok(PagedEngine::empty(disk, wal))
    }

    /// A fresh, empty engine with no file: every page stays in the
    /// buffer pool and nothing is logged.
    pub fn memory() -> PagedEngine {
        PagedEngine::empty(DiskManager::memory(), Wal::memory())
    }

    /// Opens the engine at `path`, running WAL recovery: reapply a
    /// committed checkpoint image set if one is present, then replay
    /// the logical record tail (tolerating a torn final record).
    /// Recovery mutates only the buffer pool — the data file is not
    /// written until the next checkpoint, and a torn WAL tail is cut
    /// only before the next WAL write.
    pub fn open(path: &Path) -> Result<PagedEngine, DbError> {
        let mut disk = DiskManager::open(path)?;
        let mut pool = BufferPool::new();
        let (wal, records) = Wal::recover(&wal_path(path))?;
        let last_commit = records.iter().rposition(|r| matches!(r, WalRecord::Commit));
        if let Some(ci) = last_commit {
            for rec in &records[..ci] {
                if let WalRecord::PageImage { page, data } = rec {
                    pool.install(*page, data);
                }
            }
        }
        let (page_count, catalog_root, catalog_len) = {
            let hdr = pool.page(&mut disk, 0)?;
            if &hdr[H_MAGIC..H_MAGIC + 8] != MAGIC {
                return Err(DbError::Io(format!(
                    "{} is not a paged goofi database",
                    path.display()
                )));
            }
            if get_u32(hdr, H_VERSION) != FORMAT_VERSION {
                return Err(DbError::Io(format!(
                    "unsupported paged format version {}",
                    get_u32(hdr, H_VERSION)
                )));
            }
            if get_u32(hdr, H_PAGE_SIZE) as usize != PAGE_SIZE {
                return Err(DbError::Io(format!(
                    "unsupported page size {}",
                    get_u32(hdr, H_PAGE_SIZE)
                )));
            }
            (
                get_u32(hdr, H_PAGE_COUNT),
                get_u32(hdr, H_CATALOG_ROOT),
                get_u32(hdr, H_CATALOG_LEN),
            )
        };
        disk.set_page_count(page_count);
        let mut engine = PagedEngine {
            disk,
            pool,
            wal,
            catalog_root,
            catalog_len,
            tables: Vec::new(),
            checkpointed_pages: page_count.max(1),
        };
        engine.load_catalog()?;
        for ti in 0..engine.tables.len() {
            engine.rebuild_indexes(ti)?;
        }
        let tail = match last_commit {
            Some(ci) => &records[ci + 1..],
            None => &records[..],
        };
        for rec in tail {
            match rec {
                WalRecord::Insert { table, row } => {
                    let ti = engine.table_idx(table)?;
                    let values = decode_row(row)?;
                    engine.check_pk_free(ti, &values)?;
                    engine.apply_insert(ti, &values, row)?;
                }
                WalRecord::Delete { table, key } => {
                    let ti = engine.table_idx(table)?;
                    let key = decode_value(key, &mut 0)?;
                    engine.apply_delete(ti, &key)?;
                }
                WalRecord::PageImage { .. } | WalRecord::Commit => {
                    return Err(DbError::Io(
                        "unexpected page image after checkpoint commit".into(),
                    ));
                }
            }
        }
        Ok(engine)
    }

    fn load_catalog(&mut self) -> Result<(), DbError> {
        if self.catalog_root == 0 || self.catalog_len == 0 {
            return Ok(());
        }
        let bytes = self.read_chain(self.catalog_root, self.catalog_len as usize)?;
        let text = String::from_utf8(bytes)
            .map_err(|_| DbError::Io("catalog is not valid UTF-8".into()))?;
        let entries: Vec<CatalogEntry> =
            serde_json::from_str(&text).map_err(|e| DbError::Io(format!("bad catalog: {e}")))?;
        self.tables = entries
            .into_iter()
            .map(|e| EngineTable::new(e.schema, e.first_page, e.last_page))
            .collect();
        Ok(())
    }

    /// Rebuilds table `ti`'s indexes and live/dead counters by scanning
    /// its heap.
    fn rebuild_indexes(&mut self, ti: usize) -> Result<(), DbError> {
        self.tables[ti].clear_indexes();
        let indexed = self.tables[ti].indexed();
        let chain = heap::chain(&mut self.pool, &mut self.disk, self.tables[ti].first_page)?;
        for pid in chain {
            let (_, total) = heap::page_slots(&mut self.pool, &mut self.disk, pid)?;
            for slot in 0..total {
                let t = &mut self.tables[ti];
                match heap::read_row(&mut self.pool, &mut self.disk, (pid, slot))? {
                    Some(bytes) => {
                        t.live_rows += 1;
                        if indexed {
                            t.index_row((pid, slot), &decode_row(&bytes)?);
                        }
                    }
                    None => t.dead_slots += 1,
                }
            }
        }
        Ok(())
    }

    /// Path of the data file; `None` for a memory-backed engine.
    pub fn path(&self) -> Option<&Path> {
        self.disk.path()
    }

    /// Table names in catalog (creation) order.
    pub fn table_names(&self) -> Vec<String> {
        self.tables.iter().map(|t| t.name.clone()).collect()
    }

    /// The schema of `table`, if it exists.
    pub fn schema_of(&self, table: &str) -> Option<&TableSchema> {
        self.tables
            .iter()
            .find(|t| t.name == table)
            .map(|t| &t.schema)
    }

    fn table_idx(&self, name: &str) -> Result<usize, DbError> {
        self.tables
            .iter()
            .position(|t| t.name == name)
            .ok_or_else(|| DbError::NoSuchTable(name.to_owned()))
    }

    /// Adds a table to the catalog and allocates its first heap page.
    /// Durable only after the next checkpoint — callers create tables
    /// during bulk builds and checkpoint immediately after.
    pub fn create_table(&mut self, schema: &TableSchema) -> Result<(), DbError> {
        if self.tables.iter().any(|t| t.name == schema.name()) {
            return Err(DbError::TableExists(schema.name().to_owned()));
        }
        let (first, page) = self.pool.allocate(&mut self.disk);
        heap::init_page(page);
        self.tables
            .push(EngineTable::new(schema.clone(), first, first));
        Ok(())
    }

    /// Rejects `row` if a foreign-key value has no parent row, as
    /// [`Database::insert`] does, looking the value up in the parent
    /// table's primary-key B-tree.
    ///
    /// # Errors
    ///
    /// [`DbError::ForeignKeyViolation`]; [`DbError::Unsupported`] for a
    /// foreign key to a column that is not its table's primary key.
    fn check_fk_parents(&self, ti: usize, row: &[Value]) -> Result<(), DbError> {
        for (ci, fk) in self.tables[ti].schema.foreign_keys() {
            let value = &row[ci];
            if value.is_null() {
                continue;
            }
            let parent = &self.tables[self.table_idx(&fk.parent_table)?];
            if parent.pk != parent.schema.column_index(&fk.parent_column) {
                return Err(DbError::Unsupported(format!(
                    "foreign key to `{}.{}`, which is not a primary key",
                    fk.parent_table, fk.parent_column
                )));
            }
            if parent.locate(value).is_none() {
                let child = &self.tables[ti];
                return Err(DbError::ForeignKeyViolation {
                    table: child.name.clone(),
                    column: child.schema.columns()[ci].name().to_owned(),
                    detail: format!(
                        "value {value} has no parent in `{}.{}`",
                        fk.parent_table, fk.parent_column
                    ),
                });
            }
        }
        Ok(())
    }

    fn check_pk_free(&self, ti: usize, row: &[Value]) -> Result<(), DbError> {
        let t = &self.tables[ti];
        if let Some(col) = t.pk {
            if col >= row.len() {
                return Err(DbError::ArityMismatch {
                    expected: t.schema.arity(),
                    got: row.len(),
                });
            }
            if t.locate(&row[col]).is_some() {
                return Err(DbError::UniqueViolation {
                    table: t.name.clone(),
                    column: t.schema.columns()[col].name().to_owned(),
                });
            }
        }
        Ok(())
    }

    /// Places `row`, already encoded as `bytes` and checked, in table
    /// `ti`'s heap and indexes.
    fn apply_insert(&mut self, ti: usize, row: &[Value], bytes: &[u8]) -> Result<(), DbError> {
        let (rowid, new_last) = heap::append_row(
            &mut self.pool,
            &mut self.disk,
            self.tables[ti].last_page,
            bytes,
        )?;
        let t = &mut self.tables[ti];
        t.last_page = new_last;
        t.live_rows += 1;
        t.index_row(rowid, row);
        Ok(())
    }

    fn apply_delete(&mut self, ti: usize, key: &Value) -> Result<bool, DbError> {
        let Some(rowid) = self.tables[ti].locate(key) else {
            return Ok(false);
        };
        // Secondary keys come from the row itself, so read it first.
        let row = if self.tables[ti].secondary.is_empty() {
            Vec::new()
        } else {
            match heap::read_row(&mut self.pool, &mut self.disk, rowid)? {
                Some(bytes) => decode_row(&bytes)?,
                None => return Ok(false),
            }
        };
        heap::delete_row(&mut self.pool, &mut self.disk, rowid)?;
        let t = &mut self.tables[ti];
        t.index.insert(IndexKey(key.clone()), None);
        for (_, index) in &mut t.secondary {
            index.remove(rowid, &row);
        }
        t.live_rows -= 1;
        t.dead_slots += 1;
        Ok(true)
    }

    /// Logs and applies the insert of a checked row into table `ti`,
    /// encoding it once for the WAL record and the heap cell.
    fn log_insert(&mut self, ti: usize, row: &[Value]) -> Result<(), DbError> {
        let bytes = encode_row(row);
        self.wal.append_insert(&self.tables[ti].name, &bytes)?;
        self.apply_insert(ti, row, &bytes)
    }

    /// Appends `row` to `table`: the constraint checks, one WAL record,
    /// then the in-page write. O(row), not O(database) — this is the
    /// sustained-append path `goofi run` streams experiment rows through.
    ///
    /// # Errors
    ///
    /// [`DbError::NoSuchTable`]; the errors of
    /// [`TableSchema::validate`]; [`DbError::ForeignKeyViolation`] for a
    /// missing parent; [`DbError::UniqueViolation`] for a taken primary
    /// key. A rejected row writes nothing.
    pub fn append(&mut self, table: &str, row: &Row) -> Result<(), DbError> {
        let ti = self.table_idx(table)?;
        let row = self.tables[ti].schema.validate(row)?;
        self.check_fk_parents(ti, &row)?;
        self.check_pk_free(ti, &row)?;
        self.log_insert(ti, &row)
    }

    /// Stores `row` in `table`, replacing the row with the same primary
    /// key if there is one: a delete record (when a row is replaced),
    /// then an insert record. Checked like [`PagedEngine::append`]
    /// before anything is written.
    ///
    /// # Errors
    ///
    /// As [`PagedEngine::append`], and [`DbError::Unsupported`] for a
    /// table without a primary key.
    pub fn upsert(&mut self, table: &str, row: &Row) -> Result<(), DbError> {
        let ti = self.table_idx(table)?;
        let row = self.tables[ti].schema.validate(row)?;
        self.check_fk_parents(ti, &row)?;
        let pk = self.tables[ti].pk.ok_or_else(|| {
            DbError::Unsupported(format!("upsert into `{table}`, which has no primary key"))
        })?;
        self.delete_at(ti, &row[pk])?;
        self.log_insert(ti, &row)
    }

    /// Deletes the row of `table` whose primary key equals `key`.
    /// Returns whether a row was deleted. No-op (and no WAL record)
    /// when the key is absent.
    pub fn delete_by_pk(&mut self, table: &str, key: &Value) -> Result<bool, DbError> {
        let ti = self.table_idx(table)?;
        self.delete_at(ti, key)
    }

    fn delete_at(&mut self, ti: usize, key: &Value) -> Result<bool, DbError> {
        if self.tables[ti].locate(key).is_none() {
            return Ok(false);
        }
        let mut kb = Vec::new();
        encode_value(key, &mut kb);
        self.wal.append(&WalRecord::Delete {
            table: self.tables[ti].name.clone(),
            key: kb,
        })?;
        self.apply_delete(ti, key)
    }

    /// O(log n) point lookup through the primary-key index.
    pub fn pk_get(&mut self, table: &str, key: &Value) -> Result<Option<Row>, DbError> {
        let ti = self.table_idx(table)?;
        let Some(rowid) = self.tables[ti].locate(key) else {
            return Ok(None);
        };
        self.read_at(rowid)
    }

    fn read_at(&mut self, rowid: RowId) -> Result<Option<Row>, DbError> {
        match heap::read_row(&mut self.pool, &mut self.disk, rowid)? {
            Some(bytes) => Ok(Some(decode_row(&bytes)?)),
            None => Ok(None),
        }
    }

    /// The live rows of `table` whose leading columns under the declared
    /// secondary index `index` equal `prefix`, in index-key order.
    ///
    /// # Errors
    ///
    /// [`DbError::NoSuchTable`]; [`DbError::Unsupported`] when `table`
    /// declares no such index or `prefix` is empty or longer than its
    /// key.
    pub fn index_scan(
        &mut self,
        table: &str,
        index: &str,
        prefix: &[Value],
    ) -> Result<Vec<Row>, DbError> {
        let ti = self.table_idx(table)?;
        let ids = self.tables[ti]
            .secondary
            .iter()
            .find(|(name, _)| name == index)
            .and_then(|(_, ix)| ix.scan_prefix(prefix))
            .ok_or_else(|| {
                DbError::Unsupported(format!(
                    "no index `{index}` on `{table}` answers a {}-column prefix",
                    prefix.len()
                ))
            })?;
        let mut out = Vec::with_capacity(ids.len());
        for rowid in ids {
            out.extend(self.read_at(rowid)?);
        }
        Ok(out)
    }

    /// All live rows of `table` in heap (insertion) order.
    pub fn rows(&mut self, table: &str) -> Result<Vec<Row>, DbError> {
        let ti = self.table_idx(table)?;
        self.rows_at(ti)
    }

    fn rows_at(&mut self, ti: usize) -> Result<Vec<Row>, DbError> {
        let chain = heap::chain(&mut self.pool, &mut self.disk, self.tables[ti].first_page)?;
        let mut out = Vec::new();
        for pid in chain {
            let (_, total) = heap::page_slots(&mut self.pool, &mut self.disk, pid)?;
            for slot in 0..total {
                out.extend(self.read_at((pid, slot))?);
            }
        }
        Ok(out)
    }

    /// Writes `data` into the catalog chain, reusing existing chain
    /// pages and allocating more as needed. Returns the chain root.
    fn write_chain(&mut self, existing: PageId, data: &[u8]) -> Result<PageId, DbError> {
        let mut reuse = existing;
        let mut first: PageId = 0;
        let mut prev: PageId = 0;
        let chunks: Vec<&[u8]> = if data.is_empty() {
            vec![&[]]
        } else {
            data.chunks(CHAIN_CAP).collect()
        };
        for chunk in chunks {
            let (cur, page) = if reuse != 0 {
                let cur = reuse;
                let page = self.pool.page_mut(&mut self.disk, cur)?;
                reuse = get_u32(page, 0);
                page.fill(0);
                (cur, page)
            } else {
                self.pool.allocate(&mut self.disk)
            };
            put_u32(page, 4, chunk.len() as u32);
            page[8..8 + chunk.len()].copy_from_slice(chunk);
            if first == 0 {
                first = cur;
            } else {
                let prev_page = self.pool.page_mut(&mut self.disk, prev)?;
                put_u32(prev_page, 0, cur);
            }
            prev = cur;
        }
        Ok(first)
    }

    fn read_chain(&mut self, first: PageId, total: usize) -> Result<Vec<u8>, DbError> {
        let mut out = Vec::with_capacity(total);
        let mut id = first;
        let limit = self.disk.page_count() as usize + 1;
        let mut hops = 0usize;
        while id != 0 && out.len() < total {
            hops += 1;
            if hops > limit {
                return Err(DbError::Io("catalog chain cycle".into()));
            }
            let page = self.pool.page(&mut self.disk, id)?;
            let used = get_u32(page, 4) as usize;
            if used > CHAIN_CAP {
                return Err(DbError::Io("corrupt catalog page".into()));
            }
            out.extend_from_slice(&page[8..8 + used]);
            id = get_u32(page, 0);
        }
        if out.len() < total {
            return Err(DbError::Io("short catalog chain".into()));
        }
        out.truncate(total);
        Ok(out)
    }

    fn write_catalog_and_header(&mut self) -> Result<(), DbError> {
        let entries: Vec<CatalogEntry> = self
            .tables
            .iter()
            .map(|t| CatalogEntry {
                name: t.name.clone(),
                schema: t.schema.clone(),
                first_page: t.first_page,
                last_page: t.last_page,
            })
            .collect();
        let json =
            serde_json::to_string(&entries).map_err(|e| DbError::Io(format!("catalog: {e}")))?;
        self.catalog_root = self.write_chain(self.catalog_root, json.as_bytes())?;
        self.catalog_len = json.len() as u32;
        let page_count = self.disk.page_count();
        let hdr = self.pool.page_mut(&mut self.disk, 0)?;
        write_header(hdr, page_count, self.catalog_root, self.catalog_len);
        Ok(())
    }

    /// Writes the dirty pages `ids` in place.
    fn write_in_place(&mut self, ids: &[PageId]) -> Result<(), DbError> {
        for &id in ids {
            let page = self
                .pool
                .resident(id)
                .ok_or_else(|| DbError::Io(format!("dirty page {id} is not resident")))?;
            self.disk.write_page(id, page)?;
        }
        Ok(())
    }

    /// Checkpoint steps 1–2: writes the catalog and header into the
    /// pool, flushes the WAL, then writes in place and syncs every dirty
    /// page allocated since the last checkpoint — every dirty page when
    /// `log_images` is off. Returns the dirty pages left.
    fn write_new_pages(&mut self, log_images: bool) -> Result<Vec<PageId>, DbError> {
        self.write_catalog_and_header()?;
        self.wal.flush()?;
        let mut dirty = self.pool.dirty_ids();
        let logged = if log_images {
            dirty.partition_point(|&id| id < self.checkpointed_pages)
        } else {
            0
        };
        let new = dirty.split_off(logged);
        self.write_in_place(&new)?;
        self.disk.sync()?;
        Ok(dirty)
    }

    /// Checkpoint steps 3–6 for the dirty pages `old`: their images and
    /// the commit marker (when `log_images` is on), the WAL flush, the
    /// in-place writes, the sync and the WAL truncate.
    fn write_old_pages(&mut self, old: &[PageId], log_images: bool) -> Result<(), DbError> {
        if log_images {
            for &id in old {
                let data = self
                    .pool
                    .resident(id)
                    .ok_or_else(|| DbError::Io(format!("dirty page {id} is not resident")))?
                    .to_vec();
                self.wal.append(&WalRecord::PageImage { page: id, data })?;
            }
            self.wal.append(&WalRecord::Commit)?;
        }
        // Durability point: the images and the commit marker must reach
        // the OS before the in-place writes below can tear anything.
        self.wal.flush()?;
        self.write_in_place(old)?;
        self.disk.sync()?;
        self.wal.truncate()?;
        self.pool.mark_all_clean();
        self.checkpointed_pages = self.disk.page_count();
        Ok(())
    }

    fn flush_dirty(&mut self, log_images: bool) -> Result<(), DbError> {
        let old = self.write_new_pages(log_images)?;
        self.write_old_pages(&old, log_images)
    }

    /// Checkpoints: makes the data file current and empties the WAL.
    /// This is what `save` amounts to on the paged engine — O(dirty
    /// pages), not O(total rows). No-op when nothing changed, and for a
    /// memory-backed engine.
    pub fn checkpoint(&mut self) -> Result<(), DbError> {
        if self.path().is_none() || (self.pool.dirty_ids().is_empty() && self.wal.size()? == 0) {
            return Ok(());
        }
        let _s = tracing::span("checkpoint");
        self.flush_dirty(true)
    }

    /// Reconstructs an in-memory [`Database`] from the engine: tables
    /// in catalog order, rows in heap (insertion) order. Constraints are
    /// *not* re-validated — the rows passed every check when they were
    /// originally inserted, and skipping validation frees this path from
    /// any particular table or row ordering (catalog order is
    /// alphabetical, which need not topologically sort the FK graph).
    pub fn to_database(&mut self) -> Result<Database, DbError> {
        let mut db = Database::new();
        for ti in 0..self.tables.len() {
            let mut table = Table::new(self.tables[ti].schema.clone());
            for row in self.rows_at(ti)? {
                table.push_unchecked(row);
            }
            table.rebuild_indexes();
            db.install_table(table);
        }
        Ok(db)
    }

    /// Creates `db`'s tables (in name order) and inserts their live rows
    /// (in row-id order) without WAL records: the bulk-build path, whose
    /// durability comes from the closing checkpoint, if any.
    fn fill(&mut self, db: &Database) -> Result<(), DbError> {
        for name in db.table_names() {
            self.create_table(db.table(name)?.schema())?;
        }
        for (ti, name) in db.table_names().into_iter().enumerate() {
            for (_, row) in db.table(name)?.iter() {
                self.check_pk_free(ti, row)?;
                self.apply_insert(ti, row, &encode_row(row))?;
            }
        }
        Ok(())
    }

    /// Size and fragmentation statistics for `goofi db stats`.
    pub fn stats(&mut self) -> Result<EngineStats, DbError> {
        // Buffered appends must hit the file for the record count below.
        self.wal.flush()?;
        let mut tables = Vec::new();
        for ti in 0..self.tables.len() {
            let first = self.tables[ti].first_page;
            let chain = heap::chain(&mut self.pool, &mut self.disk, first)?;
            let t = &self.tables[ti];
            tables.push(TableStats {
                name: t.name.clone(),
                heap_pages: chain.len(),
                live_rows: t.live_rows,
                dead_slots: t.dead_slots,
                index_entries: if t.pk.is_some() { t.live_rows } else { 0 },
            });
        }
        let wal_records = match self.wal.path() {
            Some(path) => Wal::read_all(path)?.len(),
            None => 0,
        };
        Ok(EngineStats {
            page_size: PAGE_SIZE,
            page_count: self.disk.page_count(),
            file_bytes: self.disk.file_len()?,
            wal_bytes: self.wal.size()?,
            wal_records,
            tables,
        })
    }
}

/// Atomically rewrites `path` as a fresh paged file holding exactly
/// `db`'s logical content (tables in name order, live rows in row-id
/// order): build into a `.tmp` sibling, checkpoint, rename over. Also
/// removes any stale WAL beside `path`, since the new file is fully
/// current. This is the compaction path — tombstoned slots and leaked
/// overflow pages do not survive it — and the byte-deterministic
/// `save` path for stores not already at `path`.
pub fn write_database(path: &Path, db: &Database) -> Result<(), DbError> {
    let tmp = {
        let mut name = path.file_name().unwrap_or_default().to_os_string();
        name.push(".tmp");
        path.with_file_name(name)
    };
    let build = (|| -> Result<(), DbError> {
        let mut engine = PagedEngine::create(&tmp)?;
        engine.fill(db)?;
        engine.flush_dirty(false)
    })();
    if let Err(e) = build {
        let _ = std::fs::remove_file(&tmp);
        let _ = std::fs::remove_file(wal_path(&tmp));
        return Err(e);
    }
    std::fs::rename(&tmp, path).map_err(|e| {
        let _ = std::fs::remove_file(&tmp);
        DbError::Io(format!(
            "rename {} over {}: {e}",
            tmp.display(),
            path.display()
        ))
    })?;
    let _ = std::fs::remove_file(wal_path(&tmp));
    let _ = std::fs::remove_file(wal_path(path));
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::Insert;
    use crate::schema::Column;
    use crate::value::ValueType;

    fn tmpdir() -> PathBuf {
        let dir = std::env::temp_dir().join("goofi_engine_tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn fresh(name: &str) -> PathBuf {
        let p = tmpdir().join(name);
        let _ = std::fs::remove_file(&p);
        let _ = std::fs::remove_file(wal_path(&p));
        p
    }

    fn demo_schema() -> TableSchema {
        TableSchema::new(
            "T",
            vec![
                Column::new("id", ValueType::Text).primary_key(),
                Column::new("n", ValueType::Integer),
                Column::new("blob", ValueType::Blob),
            ],
        )
        .unwrap()
    }

    fn row(i: usize, blob_len: usize) -> Row {
        vec![
            Value::Text(format!("row-{i:05}")),
            Value::Integer(i as i64),
            Value::Blob(vec![(i % 251) as u8; blob_len]),
        ]
    }

    #[test]
    fn append_checkpoint_reopen_roundtrips() {
        let path = fresh("roundtrip.gdb");
        let mut e = PagedEngine::create(&path).unwrap();
        e.create_table(&demo_schema()).unwrap();
        for i in 0..100 {
            e.append("T", &row(i, 16)).unwrap();
        }
        e.checkpoint().unwrap();
        drop(e);
        assert!(is_paged_file(&path));
        let mut e = PagedEngine::open(&path).unwrap();
        let rows = e.rows("T").unwrap();
        assert_eq!(rows.len(), 100);
        assert_eq!(rows[42], row(42, 16));
        assert_eq!(
            e.pk_get("T", &Value::Text("row-00007".into())).unwrap(),
            Some(row(7, 16))
        );
    }

    #[test]
    fn uncheckpointed_tail_recovers_from_wal() {
        let path = fresh("tail.gdb");
        let mut e = PagedEngine::create(&path).unwrap();
        e.create_table(&demo_schema()).unwrap();
        for i in 0..10 {
            e.append("T", &row(i, 8)).unwrap();
        }
        e.checkpoint().unwrap();
        for i in 10..25 {
            e.append("T", &row(i, 8)).unwrap();
        }
        drop(e); // crash: no checkpoint for the tail
        let mut e = PagedEngine::open(&path).unwrap();
        assert_eq!(e.rows("T").unwrap().len(), 25);
        // Recovery did not touch the data file; a second open replays
        // the same tail again.
        drop(e);
        let mut e = PagedEngine::open(&path).unwrap();
        assert_eq!(e.rows("T").unwrap().len(), 25);
        e.checkpoint().unwrap();
        assert_eq!(std::fs::metadata(wal_path(&path)).unwrap().len(), 0);
    }

    #[test]
    fn oversized_rows_take_the_overflow_path() {
        let path = fresh("overflow.gdb");
        let mut e = PagedEngine::create(&path).unwrap();
        e.create_table(&demo_schema()).unwrap();
        e.append("T", &row(0, 3 * PAGE_SIZE)).unwrap();
        e.append("T", &row(1, 10)).unwrap();
        e.checkpoint().unwrap();
        drop(e);
        let mut e = PagedEngine::open(&path).unwrap();
        let rows = e.rows("T").unwrap();
        assert_eq!(rows[0], row(0, 3 * PAGE_SIZE));
        assert_eq!(rows[1], row(1, 10));
    }

    #[test]
    fn delete_by_pk_tombstones_and_recovers() {
        let path = fresh("delete.gdb");
        let mut e = PagedEngine::create(&path).unwrap();
        e.create_table(&demo_schema()).unwrap();
        for i in 0..6 {
            e.append("T", &row(i, 4)).unwrap();
        }
        e.checkpoint().unwrap();
        assert!(e
            .delete_by_pk("T", &Value::Text("row-00003".into()))
            .unwrap());
        assert!(!e
            .delete_by_pk("T", &Value::Text("row-00003".into()))
            .unwrap());
        e.append("T", &row(3, 4)).unwrap(); // re-insert after delete
        drop(e); // tail: delete + insert, not checkpointed
        let mut e = PagedEngine::open(&path).unwrap();
        let rows = e.rows("T").unwrap();
        assert_eq!(rows.len(), 6);
        let stats = e.stats().unwrap();
        assert_eq!(stats.tables[0].dead_slots, 1);
        assert_eq!(stats.tables[0].live_rows, 6);
    }

    #[test]
    fn torn_checkpoint_replays_page_images() {
        let path = fresh("torn_ckpt.gdb");
        let mut e = PagedEngine::create(&path).unwrap();
        e.create_table(&demo_schema()).unwrap();
        e.checkpoint().unwrap();
        for i in 0..20 {
            e.append("T", &row(i, 8)).unwrap();
        }
        // A checkpoint that put its new pages in place and logged the
        // images + commit of the older pages, then died before writing
        // those in place.
        let old = e.write_new_pages(true).unwrap();
        assert!(old.contains(&0), "the header is always logged");
        for id in &old {
            let data = e.pool.resident(*id).unwrap().to_vec();
            e.wal
                .append(&WalRecord::PageImage { page: *id, data })
                .unwrap();
        }
        e.wal.append(&WalRecord::Commit).unwrap();
        drop(e); // old pages on disk still hold the first checkpoint
        let mut e = PagedEngine::open(&path).unwrap();
        assert_eq!(e.rows("T").unwrap().len(), 20);
        e.checkpoint().unwrap();
        drop(e);
        let mut e = PagedEngine::open(&path).unwrap();
        assert_eq!(e.rows("T").unwrap().len(), 20);
    }

    #[test]
    fn checkpoint_logs_images_only_for_pages_of_the_last_checkpoint() {
        let path = fresh("new_pages.gdb");
        let mut e = PagedEngine::create(&path).unwrap();
        e.create_table(&demo_schema()).unwrap();
        e.checkpoint().unwrap();
        let before = e.disk.page_count();
        for i in 0..200 {
            e.append("T", &row(i, 64)).unwrap();
        }
        assert!(e.disk.page_count() > before + 2);
        let old = e.write_new_pages(true).unwrap();
        assert!(!old.is_empty());
        assert!(old.iter().all(|&id| id < before), "{old:?} vs {before}");
        e.write_old_pages(&old, true).unwrap();
        drop(e);
        let mut e = PagedEngine::open(&path).unwrap();
        assert_eq!(e.rows("T").unwrap().len(), 200);
    }

    /// A checkpoint that dies after writing its new pages in place but
    /// before its commit leaves bytes past the old page count; recovery
    /// replays the rows from the WAL into freshly zeroed pages.
    #[test]
    fn crash_between_new_page_writes_and_commit_recovers() {
        let path = fresh("dead_commit.gdb");
        let mut e = PagedEngine::create(&path).unwrap();
        e.create_table(&demo_schema()).unwrap();
        for i in 0..10 {
            e.append("T", &row(i, 8)).unwrap();
        }
        e.checkpoint().unwrap();
        let checkpointed = std::fs::read(&path).unwrap();
        for i in 10..120 {
            e.append("T", &row(i, 300)).unwrap();
        }
        e.write_new_pages(true).unwrap();
        drop(e); // crash: no images, no commit
        let on_disk = std::fs::read(&path).unwrap();
        assert!(
            on_disk.len() > checkpointed.len(),
            "new pages reached the file"
        );
        assert_eq!(
            on_disk[..checkpointed.len()],
            checkpointed[..],
            "pages of the last checkpoint were touched before the commit"
        );
        let mut e = PagedEngine::open(&path).unwrap();
        let rows = e.rows("T").unwrap();
        assert_eq!(rows.len(), 120);
        assert_eq!(rows[100], row(100, 300));
        // The reallocated pages start zeroed: more rows, a clean
        // checkpoint and a reopen still read back exactly.
        for i in 120..130 {
            e.append("T", &row(i, 300)).unwrap();
        }
        e.checkpoint().unwrap();
        drop(e);
        let mut e = PagedEngine::open(&path).unwrap();
        let rows = e.rows("T").unwrap();
        assert_eq!(rows.len(), 130);
        assert!(rows
            .iter()
            .enumerate()
            .all(|(i, r)| *r == row(i, if i < 10 { 8 } else { 300 })));
    }

    #[test]
    fn appends_after_a_torn_wal_tail_survive_reopen() {
        let path = fresh("torn_then_append.gdb");
        let mut e = PagedEngine::create(&path).unwrap();
        e.create_table(&demo_schema()).unwrap();
        e.checkpoint().unwrap();
        for i in 0..5 {
            e.append("T", &row(i, 8)).unwrap();
        }
        drop(e);
        let wal = wal_path(&path);
        let bytes = std::fs::read(&wal).unwrap();
        std::fs::write(&wal, &bytes[..bytes.len() - 3]).unwrap();
        let mut e = PagedEngine::open(&path).unwrap();
        assert_eq!(e.rows("T").unwrap().len(), 4);
        // Opening and reading (stats flushes the log) leave the torn
        // bytes in place.
        assert_eq!(e.stats().unwrap().wal_records, 4);
        assert_eq!(std::fs::read(&wal).unwrap().len(), bytes.len() - 3);
        e.append("T", &row(4, 8)).unwrap();
        e.append("T", &row(5, 8)).unwrap();
        drop(e);
        let mut e = PagedEngine::open(&path).unwrap();
        assert_eq!(
            e.rows("T").unwrap(),
            (0..6).map(|i| row(i, 8)).collect::<Vec<_>>()
        );
    }

    #[test]
    fn memory_engine_holds_rows_without_files() {
        let mut e = PagedEngine::memory();
        assert_eq!(e.path(), None);
        e.create_table(&demo_schema()).unwrap();
        for i in 0..500 {
            e.append("T", &row(i, 100)).unwrap();
        }
        e.checkpoint().unwrap();
        assert!(e
            .delete_by_pk("T", &Value::Text("row-00003".into()))
            .unwrap());
        let rows = e.rows("T").unwrap();
        assert_eq!(rows.len(), 499);
        assert_eq!(
            e.pk_get("T", &Value::Text("row-00499".into())).unwrap(),
            Some(row(499, 100))
        );
        let stats = e.stats().unwrap();
        assert_eq!(
            (stats.file_bytes, stats.wal_bytes, stats.wal_records),
            (0, 0, 0)
        );
        let db = e.to_database().unwrap();
        let copied: Vec<Row> = db
            .table("T")
            .unwrap()
            .iter()
            .map(|(_, r)| r.clone())
            .collect();
        assert_eq!(copied, rows);
    }

    fn indexed_schema() -> TableSchema {
        TableSchema::new(
            "E",
            vec![
                Column::new("name", ValueType::Text).primary_key(),
                Column::new("grp", ValueType::Text).not_null(),
                Column::new("n", ValueType::Integer),
            ],
        )
        .unwrap()
        .with_index("byGrp", &["grp", "name"])
        .unwrap()
    }

    #[test]
    fn secondary_index_scans_follow_inserts_deletes_and_reopen() {
        let path = fresh("secondary.gdb");
        let mut e = PagedEngine::create(&path).unwrap();
        e.create_table(&indexed_schema()).unwrap();
        e.checkpoint().unwrap();
        let r = |name: &str, grp: &str, n: i64| -> Row { vec![name.into(), grp.into(), n.into()] };
        for (name, grp, n) in [
            ("b", "g1", 1),
            ("a", "g2", 2),
            ("c", "g1", 3),
            ("a1", "g1", 4),
        ] {
            e.append("E", &r(name, grp, n)).unwrap();
        }
        let g1 = vec![r("a1", "g1", 4), r("b", "g1", 1), r("c", "g1", 3)];
        assert_eq!(e.index_scan("E", "byGrp", &["g1".into()]).unwrap(), g1);
        assert_eq!(
            e.index_scan("E", "byGrp", &["g1".into(), "c".into()])
                .unwrap(),
            vec![r("c", "g1", 3)]
        );
        assert!(e.index_scan("E", "byGrp", &[]).is_err());
        assert!(e.index_scan("E", "nope", &["g1".into()]).is_err());
        e.upsert("E", &r("b", "g2", 9)).unwrap();
        let g1 = vec![r("a1", "g1", 4), r("c", "g1", 3)];
        assert_eq!(e.index_scan("E", "byGrp", &["g1".into()]).unwrap(), g1);
        drop(e); // the upsert's delete + insert are only in the WAL
        let mut e = PagedEngine::open(&path).unwrap();
        assert_eq!(e.index_scan("E", "byGrp", &["g1".into()]).unwrap(), g1);
        assert_eq!(
            e.index_scan("E", "byGrp", &["g2".into()]).unwrap(),
            vec![r("a", "g2", 2), r("b", "g2", 9)]
        );
    }

    #[test]
    fn rejected_rows_write_nothing() {
        let path = fresh("reject.gdb");
        let mut e = PagedEngine::create(&path).unwrap();
        e.create_table(&demo_schema()).unwrap();
        let child = TableSchema::new(
            "C",
            vec![
                Column::new("id", ValueType::Integer).primary_key(),
                Column::new("parent", ValueType::Text).references("T", "id"),
                Column::new("score", ValueType::Real),
            ],
        )
        .unwrap();
        e.create_table(&child).unwrap();
        e.checkpoint().unwrap();
        e.append("T", &row(0, 4)).unwrap();
        let size = |e: &PagedEngine| e.wal.size().unwrap();
        let before = size(&e);
        let rejected: [(Row, &str); 5] = [
            (row(0, 4), "unique"),
            (vec![Value::Null, 1.into(), Value::Null], "null"),
            (vec![1.into(), 1.into(), Value::Null], "type"),
            (vec!["x".into()], "arity"),
            (vec![1.into(), "row-00009".into(), Value::Null], "fk"),
        ];
        for (bad, what) in rejected {
            let table = if what == "fk" { "C" } else { "T" };
            let err = e.append(table, &bad).unwrap_err();
            let ok = match what {
                "unique" => matches!(err, DbError::UniqueViolation { .. }),
                "null" => matches!(err, DbError::NullViolation { .. }),
                "type" => matches!(err, DbError::TypeMismatch { .. }),
                "arity" => matches!(err, DbError::ArityMismatch { .. }),
                _ => matches!(err, DbError::ForeignKeyViolation { .. }),
            };
            assert!(ok, "{what}: {err:?}");
            assert_eq!(size(&e), before, "{what} reached the WAL");
        }
        // Integers bound for REAL columns are widened, as `Database` does.
        e.append("C", &vec![1.into(), "row-00000".into(), 3.into()])
            .unwrap();
        assert_eq!(
            e.pk_get("C", &Value::Integer(1)).unwrap().unwrap()[2],
            Value::Real(3.0)
        );
    }

    #[test]
    fn write_database_is_deterministic_and_compacts() {
        let mut db = Database::new();
        db.create_table(demo_schema()).unwrap();
        let mut ins = Insert::into("T", row(0, 8));
        for i in 1..50 {
            ins.rows.push(row(i, 8));
        }
        db.insert(ins).unwrap();
        let a = fresh("bulk_a.gdb");
        let b = fresh("bulk_b.gdb");
        write_database(&a, &db).unwrap();
        write_database(&b, &db).unwrap();
        assert_eq!(std::fs::read(&a).unwrap(), std::fs::read(&b).unwrap());
        assert!(!wal_path(&a).exists());
        let mut e = PagedEngine::open(&a).unwrap();
        assert_eq!(e.rows("T").unwrap().len(), 50);
    }
}
