//! The read-only JSON-era format: a JSON snapshot plus a line journal.
//!
//! Before the paged engine ([`crate::storage`]) a goofi database was a
//! JSON snapshot of the whole [`Database`] beside an append-only
//! sidecar, `<db>.journal`, holding one `{"table":…,"row":[…]}` JSON
//! line per row appended after the snapshot. Nothing writes that format
//! any more; [`Database::load`] still reads it, so that such a file can
//! be rewritten in the paged format. [`Database::to_json`] and
//! [`Database::from_json`] stay as a portable serialisation of a
//! database.

use crate::database::Database;
use crate::error::DbError;
use crate::query::Insert;
use crate::value::Value;
use serde::Deserialize;
use std::fs;
use std::path::{Path, PathBuf};

/// Path of the journal sidecar belonging to a database file: the database
/// path with `.journal` appended (`goofi.json` → `goofi.json.journal`).
pub fn journal_path(db_path: impl AsRef<Path>) -> PathBuf {
    let p = db_path.as_ref();
    let mut name = p.file_name().unwrap_or_default().to_os_string();
    name.push(".journal");
    p.with_file_name(name)
}

/// One journalled row append.
#[derive(Debug, Deserialize)]
struct JournalEntry {
    /// Target table.
    table: String,
    /// Full-width row values.
    row: Vec<Value>,
}

impl Database {
    /// Serialises the database to a JSON string.
    ///
    /// # Errors
    ///
    /// [`DbError::Io`] if serialisation fails (it cannot for well-formed
    /// databases; non-finite floats serialise as `null` and will load back
    /// as NULL).
    pub fn to_json(&self) -> Result<String, DbError> {
        serde_json::to_string(self).map_err(|e| DbError::Io(e.to_string()))
    }

    /// Restores a database from [`Database::to_json`] output. Indexes are
    /// rebuilt from row data.
    ///
    /// # Errors
    ///
    /// [`DbError::Io`] on malformed input.
    pub fn from_json(json: &str) -> Result<Database, DbError> {
        let mut db: Database =
            serde_json::from_str(json).map_err(|e| DbError::Io(e.to_string()))?;
        db.rebuild_all_indexes();
        Ok(db)
    }

    /// Loads a JSON-era database file — the reader for files that are
    /// not paged ([`crate::storage::is_paged_file`]): the snapshot, then
    /// its sidecar journal (if one exists), so rows appended after the
    /// snapshot reappear. Replay skips rows the snapshot already holds
    /// (unique-key collision) and tolerates a torn final line.
    ///
    /// # Errors
    ///
    /// [`DbError::Io`] on filesystem errors, for a file that is not a
    /// JSON snapshot (naming the path and both formats) and for a corrupt
    /// (non-final) journal line.
    pub fn load(path: impl AsRef<Path>) -> Result<Database, DbError> {
        let path = path.as_ref();
        let bytes = fs::read(path).map_err(|e| DbError::Io(format!("{}: {e}", path.display())))?;
        let parsed = std::str::from_utf8(&bytes)
            .map_err(|e| e.to_string())
            .and_then(|json| serde_json::from_str::<Database>(json).map_err(|e| e.to_string()));
        let mut db = parsed.map_err(|e| {
            DbError::Io(format!(
                "{} is neither a paged database nor a JSON-era snapshot ({e})",
                path.display()
            ))
        })?;
        db.rebuild_all_indexes();
        db.replay_journal(&journal_path(path))?;
        Ok(db)
    }

    /// Replays an append-only journal file into the database. Missing
    /// file means nothing to replay.
    ///
    /// # Errors
    ///
    /// [`DbError::Io`] on a corrupt non-final line; any non-duplicate
    /// insert error (unknown table, FK violation) is surfaced as-is.
    fn replay_journal(&mut self, journal: &Path) -> Result<(), DbError> {
        let text = match fs::read_to_string(journal) {
            Ok(text) => text,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(()),
            Err(e) => {
                return Err(DbError::Io(format!(
                    "read journal {}: {e}",
                    journal.display()
                )))
            }
        };
        let lines: Vec<&str> = text.lines().filter(|l| !l.trim().is_empty()).collect();
        for (i, line) in lines.iter().enumerate() {
            let entry: JournalEntry = match serde_json::from_str(line) {
                Ok(entry) => entry,
                // A torn final line is the expected signature of a crash
                // mid-append; corruption anywhere else is a real error.
                Err(_) if i + 1 == lines.len() => break,
                Err(e) => {
                    return Err(DbError::Io(format!(
                        "corrupt journal line {} in {}: {e}",
                        i + 1,
                        journal.display()
                    )))
                }
            };
            match self.insert(Insert::into(entry.table, entry.row)) {
                Ok(_) => {}
                // Row already captured by a later snapshot: replay must be
                // idempotent.
                Err(DbError::UniqueViolation { .. }) => {}
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::{Insert, Select};
    use crate::schema::{Column, TableSchema};
    use crate::value::{Value, ValueType};

    fn sample() -> Database {
        let mut db = Database::new();
        db.create_table(
            TableSchema::new(
                "t",
                vec![
                    Column::new("id", ValueType::Text).primary_key(),
                    Column::new("v", ValueType::Integer),
                    Column::new("b", ValueType::Blob),
                ],
            )
            .unwrap(),
        )
        .unwrap();
        db.insert(Insert::into(
            "t",
            vec!["a".into(), 1.into(), vec![1u8, 2].into()],
        ))
        .unwrap();
        db.insert(Insert::into(
            "t",
            vec!["b".into(), Value::Null, Value::Null],
        ))
        .unwrap();
        db
    }

    /// Writes `db` as a JSON-era snapshot at `dir/db.json` with `journal`
    /// as its sidecar's text (no sidecar for `None`).
    fn json_era_file(dir: &str, db: &Database, journal: Option<&str>) -> PathBuf {
        let dir = std::env::temp_dir().join("goofi_db_persist_test").join(dir);
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("db.json");
        fs::write(&path, db.to_json().unwrap()).unwrap();
        if let Some(text) = journal {
            fs::write(journal_path(&path), text).unwrap();
        }
        path
    }

    /// Journal lines appending rows `c` (3) and `d` (4) to `t`.
    const C_AND_D: &str = "{\"table\":\"t\",\"row\":[{\"Text\":\"c\"},{\"Integer\":3},\"Null\"]}\n\
                           {\"table\":\"t\",\"row\":[{\"Text\":\"d\"},{\"Integer\":4},\"Null\"]}\n";

    fn rows(db: &Database) -> usize {
        db.select(Select::from("t")).unwrap().len()
    }

    #[test]
    fn json_roundtrip_preserves_rows_and_constraints() {
        let db = sample();
        let json = db.to_json().unwrap();
        let mut restored = Database::from_json(&json).unwrap();
        let rs = restored.query("SELECT id, v FROM t ORDER BY id").unwrap();
        assert_eq!(rs.len(), 2);
        assert_eq!(rs.rows[0][0], Value::Text("a".into()));
        // Unique index must be live after restore.
        let err = restored
            .insert(Insert::into("t", vec!["a".into(), 9.into(), Value::Null]))
            .unwrap_err();
        assert!(matches!(err, crate::DbError::UniqueViolation { .. }));
    }

    #[test]
    fn file_roundtrip() {
        let db = sample();
        let path = json_era_file("roundtrip", &db, None);
        assert_eq!(rows(&Database::load(&path).unwrap()), rows(&db));
    }

    #[test]
    fn load_missing_file_is_io_error() {
        let err = Database::load("/nonexistent/nowhere.json").unwrap_err();
        assert!(matches!(err, crate::DbError::Io(_)));
    }

    #[test]
    fn malformed_json_rejected() {
        assert!(matches!(
            Database::from_json("{not json"),
            Err(crate::DbError::Io(_))
        ));
    }

    #[test]
    fn journal_replays_rows_appended_after_snapshot() {
        let path = json_era_file("journal", &sample(), Some(C_AND_D));
        assert_eq!(rows(&Database::load(&path).unwrap()), 4);
    }

    #[test]
    fn journal_replay_is_idempotent_after_snapshot() {
        // The snapshot also holds row c (a crash between the snapshot's
        // rename and the journal's truncation): replay skips it.
        let mut db = sample();
        db.insert(Insert::into("t", vec!["c".into(), 3.into(), Value::Null]))
            .unwrap();
        let path = json_era_file("idempotent", &db, Some(C_AND_D));
        let restored = Database::load(&path).unwrap();
        assert_eq!(rows(&restored), 4);
        let again = Database::load(&path).unwrap();
        assert_eq!(again.logical_dump(), restored.logical_dump());
    }

    #[test]
    fn torn_final_journal_line_is_ignored() {
        // A crash mid-append leaves half a JSON line at the end.
        let journal = format!("{C_AND_D}{{\"table\":\"t\",\"row\":[");
        let path = json_era_file("torn", &sample(), Some(&journal));
        assert_eq!(rows(&Database::load(&path).unwrap()), 4);
    }

    #[test]
    fn corrupt_middle_journal_line_is_an_error() {
        let journal = format!("garbage\n{C_AND_D}");
        let path = json_era_file("corrupt", &sample(), Some(&journal));
        assert!(matches!(Database::load(&path), Err(DbError::Io(_))));
    }
}
