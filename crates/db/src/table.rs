//! In-memory row storage for one table, with unique + secondary indexes.

use crate::error::DbError;
use crate::schema::{IndexSpec, TableSchema};
use crate::storage::BTree;
use crate::value::Value;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// A stored row: one [`Value`] per schema column, in declaration order.
pub type Row = Vec<Value>;

/// Ordered index key wrapping [`Value::total_cmp`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub(crate) struct IndexKey(pub Value);

impl PartialEq for IndexKey {
    fn eq(&self, other: &Self) -> bool {
        self.0.total_cmp(&other.0) == std::cmp::Ordering::Equal
    }
}
impl Eq for IndexKey {}
impl PartialOrd for IndexKey {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for IndexKey {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

/// Storage and indexes for one table.
///
/// Rows live in a slab (`Vec<Option<Row>>`); row ids are stable across
/// deletes, which keeps index maintenance simple. Every UNIQUE / PRIMARY KEY
/// column gets a unique index; every foreign-key child column gets a
/// multi-index used for referential-integrity checks on parent deletes.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Table {
    schema: TableSchema,
    rows: Vec<Option<Row>>,
    live: usize,
    /// column index -> (key -> row id), for UNIQUE columns.
    #[serde(skip)]
    unique_indexes: BTreeMap<usize, BTreeMap<IndexKey, usize>>,
    /// column index -> (key -> row ids), for FK child columns.
    #[serde(skip)]
    multi_indexes: BTreeMap<usize, BTreeMap<IndexKey, Vec<usize>>>,
    /// index name -> index, for the schema's declared secondary indexes.
    #[serde(skip)]
    secondary: BTreeMap<String, SecondaryIndex<usize>>,
}

/// One declared secondary index: composite key → ids of the rows that
/// hold it, for [`Table`] (slab ids) and the paged engine (heap row
/// locations) alike. Deletes empty a key's id list, since the B-tree is
/// append-only; rebuilding the index yields a clean tree.
#[derive(Debug, Clone)]
pub(crate) struct SecondaryIndex<Id> {
    /// Positions of the indexed columns, most significant first.
    columns: Vec<usize>,
    tree: BTree<Vec<IndexKey>, Vec<Id>>,
}

impl<Id: Copy + PartialEq> SecondaryIndex<Id> {
    /// An empty index for `spec`, whose columns `schema` declared.
    pub(crate) fn new(schema: &TableSchema, spec: &IndexSpec) -> SecondaryIndex<Id> {
        SecondaryIndex {
            columns: spec
                .columns
                .iter()
                .filter_map(|c| schema.column_index(c))
                .collect(),
            tree: BTree::new(),
        }
    }

    fn key(&self, row: &[Value]) -> Vec<IndexKey> {
        self.columns
            .iter()
            .map(|&ci| IndexKey(row[ci].clone()))
            .collect()
    }

    /// Adds `id` under `row`'s key.
    pub(crate) fn insert(&mut self, id: Id, row: &[Value]) {
        let key = self.key(row);
        self.tree.get_or_insert_with(key, Vec::new).push(id);
    }

    /// Drops `id` from under `row`'s key.
    pub(crate) fn remove(&mut self, id: Id, row: &[Value]) {
        if let Some(ids) = self.tree.get_mut(&self.key(row)) {
            ids.retain(|&r| r != id);
        }
    }

    /// The ids of every row whose leading indexed columns equal
    /// `prefix`, in key order. `None` when `prefix` is empty or longer
    /// than the key.
    pub(crate) fn scan_prefix(&self, prefix: &[Value]) -> Option<Vec<Id>> {
        if prefix.is_empty() || prefix.len() > self.columns.len() {
            return None;
        }
        let want: Vec<IndexKey> = prefix.iter().map(|v| IndexKey(v.clone())).collect();
        // Null sorts first under `total_cmp`, so padding the start key
        // with Nulls lands on the first composite key with this prefix.
        let mut start = want.clone();
        start.resize_with(self.columns.len(), || IndexKey(Value::Null));
        let mut ids = Vec::new();
        self.tree.for_each_from(&start, &mut |key, rows| {
            if key[..want.len()] != want[..] {
                return false; // past the prefix range
            }
            ids.extend_from_slice(rows);
            true
        });
        Some(ids)
    }
}

impl Table {
    /// Creates an empty table with indexes derived from the schema.
    pub fn new(schema: TableSchema) -> Table {
        let mut unique_indexes = BTreeMap::new();
        let mut multi_indexes = BTreeMap::new();
        for (i, col) in schema.columns().iter().enumerate() {
            if col.is_unique() {
                unique_indexes.insert(i, BTreeMap::new());
            } else if col.foreign_key().is_some() {
                multi_indexes.insert(i, BTreeMap::new());
            }
        }
        let secondary = schema
            .indexes()
            .iter()
            .map(|ix| (ix.name.clone(), SecondaryIndex::new(&schema, ix)))
            .collect();
        Table {
            schema,
            rows: Vec::new(),
            live: 0,
            unique_indexes,
            multi_indexes,
            secondary,
        }
    }

    /// Adds `id` to every secondary index under `row`'s keys.
    fn index_row_secondary(&mut self, id: usize, row: &Row) {
        for index in self.secondary.values_mut() {
            index.insert(id, row);
        }
    }

    /// Drops `id` from every secondary index under `row`'s keys.
    fn unindex_row_secondary(&mut self, id: usize, row: &Row) {
        for index in self.secondary.values_mut() {
            index.remove(id, row);
        }
    }

    /// The table schema.
    pub fn schema(&self) -> &TableSchema {
        &self.schema
    }

    /// Number of live rows.
    pub fn len(&self) -> usize {
        self.live
    }

    /// Whether the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Inserts a validated row, enforcing uniqueness. Returns the row id.
    ///
    /// # Errors
    ///
    /// All of [`TableSchema::validate`]'s errors, plus
    /// [`DbError::UniqueViolation`].
    pub(crate) fn insert(&mut self, row: Row) -> Result<usize, DbError> {
        let row = self.schema.validate_owned(row)?;
        // Check all unique constraints before mutating anything.
        for (&ci, index) in &self.unique_indexes {
            let v = &row[ci];
            if !v.is_null() && index.contains_key(&IndexKey(v.clone())) {
                return Err(DbError::UniqueViolation {
                    table: self.schema.name().to_owned(),
                    column: self.schema.columns()[ci].name().to_owned(),
                });
            }
        }
        let id = self.rows.len();
        for (&ci, index) in &mut self.unique_indexes {
            let v = &row[ci];
            if !v.is_null() {
                index.insert(IndexKey(v.clone()), id);
            }
        }
        for (&ci, index) in &mut self.multi_indexes {
            let v = &row[ci];
            if !v.is_null() {
                index.entry(IndexKey(v.clone())).or_default().push(id);
            }
        }
        self.index_row_secondary(id, &row);
        self.rows.push(Some(row));
        self.live += 1;
        Ok(id)
    }

    /// Removes the row with the given id, updating indexes. Returns the row.
    pub(crate) fn remove(&mut self, id: usize) -> Option<Row> {
        let row = self.rows.get_mut(id)?.take()?;
        self.live -= 1;
        for (&ci, index) in &mut self.unique_indexes {
            if !row[ci].is_null() {
                index.remove(&IndexKey(row[ci].clone()));
            }
        }
        for (&ci, index) in &mut self.multi_indexes {
            if !row[ci].is_null() {
                if let Some(ids) = index.get_mut(&IndexKey(row[ci].clone())) {
                    ids.retain(|&r| r != id);
                    if ids.is_empty() {
                        index.remove(&IndexKey(row[ci].clone()));
                    }
                }
            }
        }
        self.unindex_row_secondary(id, &row);
        Some(row)
    }

    /// Replaces the row with the given id with a validated new row,
    /// enforcing uniqueness. The old row is returned.
    pub(crate) fn replace(&mut self, id: usize, row: Row) -> Result<Row, DbError> {
        let row = self.schema.validate_owned(row)?;
        for (&ci, index) in &self.unique_indexes {
            let v = &row[ci];
            if v.is_null() {
                continue;
            }
            if let Some(&other) = index.get(&IndexKey(v.clone())) {
                if other != id {
                    return Err(DbError::UniqueViolation {
                        table: self.schema.name().to_owned(),
                        column: self.schema.columns()[ci].name().to_owned(),
                    });
                }
            }
        }
        let old = self
            .remove(id)
            .ok_or_else(|| DbError::Eval(format!("row {id} does not exist")))?;
        // Re-insert at the same id to keep ids stable.
        for (&ci, index) in &mut self.unique_indexes {
            if !row[ci].is_null() {
                index.insert(IndexKey(row[ci].clone()), id);
            }
        }
        for (&ci, index) in &mut self.multi_indexes {
            if !row[ci].is_null() {
                index.entry(IndexKey(row[ci].clone())).or_default().push(id);
            }
        }
        self.index_row_secondary(id, &row);
        self.rows[id] = Some(row);
        self.live += 1;
        Ok(old)
    }

    /// Drops trailing deleted slots from the row slab so serialisation
    /// does not retain tombstones past the last live row. Ids of live
    /// rows are unaffected (only `None` slots after them are removed), so
    /// this is always safe to call.
    pub(crate) fn truncate_tombstones(&mut self) {
        while matches!(self.rows.last(), Some(None)) {
            self.rows.pop();
        }
    }

    /// Iterates over `(row id, row)` pairs of live rows.
    pub fn iter(&self) -> impl Iterator<Item = (usize, &Row)> {
        self.rows
            .iter()
            .enumerate()
            .filter_map(|(i, r)| r.as_ref().map(|r| (i, r)))
    }

    /// Fetches a row by id.
    pub fn row(&self, id: usize) -> Option<&Row> {
        self.rows.get(id).and_then(|r| r.as_ref())
    }

    /// Point lookup through a unique index. `column` must be UNIQUE.
    pub fn lookup_unique(&self, column: usize, key: &Value) -> Option<usize> {
        self.unique_indexes
            .get(&column)?
            .get(&IndexKey(key.clone()))
            .copied()
    }

    /// Ids of live rows with `key` in the multi-indexed (foreign-key
    /// child) column, ascending. Empty when the key is absent or the
    /// column has no multi-index.
    pub fn lookup_multi(&self, column: usize, key: &Value) -> Vec<usize> {
        let mut ids = self
            .multi_indexes
            .get(&column)
            .and_then(|ix| ix.get(&IndexKey(key.clone())))
            .cloned()
            .unwrap_or_default();
        ids.sort_unstable();
        ids
    }

    /// Whether any live row has `key` in the (indexed or not) column.
    pub fn contains_value(&self, column: usize, key: &Value) -> bool {
        if let Some(index) = self.unique_indexes.get(&column) {
            return index.contains_key(&IndexKey(key.clone()));
        }
        if let Some(index) = self.multi_indexes.get(&column) {
            return index.contains_key(&IndexKey(key.clone()));
        }
        self.iter()
            .any(|(_, row)| row[column].sql_eq(key) == Some(true))
    }

    /// Rebuilds all indexes from the schema and row storage (used after
    /// deserialisation, where the index maps are skipped).
    pub(crate) fn rebuild_indexes(&mut self) {
        self.unique_indexes.clear();
        self.multi_indexes.clear();
        self.secondary.clear();
        for (i, col) in self.schema.columns().iter().enumerate() {
            if col.is_unique() {
                self.unique_indexes.insert(i, BTreeMap::new());
            } else if col.foreign_key().is_some() {
                self.multi_indexes.insert(i, BTreeMap::new());
            }
        }
        for ix in self.schema.indexes() {
            self.secondary
                .insert(ix.name.clone(), SecondaryIndex::new(&self.schema, ix));
        }
        let entries: Vec<(usize, Row)> = self
            .rows
            .iter()
            .enumerate()
            .filter_map(|(i, r)| r.as_ref().map(|r| (i, r.clone())))
            .collect();
        self.live = entries.len();
        for (id, row) in entries {
            for (&ci, index) in &mut self.unique_indexes {
                if !row[ci].is_null() {
                    index.insert(IndexKey(row[ci].clone()), id);
                }
            }
            for (&ci, index) in &mut self.multi_indexes {
                if !row[ci].is_null() {
                    index.entry(IndexKey(row[ci].clone())).or_default().push(id);
                }
            }
            self.index_row_secondary(id, &row);
        }
    }

    /// Appends a row without constraint or type checks, for the paged
    /// engine's load path (the row passed every check when originally
    /// inserted). The caller must run [`Table::rebuild_indexes`] once
    /// all rows are in.
    pub(crate) fn push_unchecked(&mut self, row: Row) {
        self.rows.push(Some(row));
        self.live += 1;
    }

    /// Answers an equality lookup on a prefix of the named secondary
    /// index's columns: the ids of all live rows whose indexed columns
    /// start with `prefix`, ascending. `None` when the index does not
    /// exist or `prefix` is empty/too long — the caller falls back to
    /// a scan.
    pub fn secondary_scan(&self, index: &str, prefix: &[Value]) -> Option<Vec<usize>> {
        let mut ids = self.secondary.get(index)?.scan_prefix(prefix)?;
        ids.sort_unstable();
        Some(ids)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Column;
    use crate::value::ValueType;

    fn table() -> Table {
        Table::new(
            TableSchema::new(
                "t",
                vec![
                    Column::new("id", ValueType::Text).primary_key(),
                    Column::new("n", ValueType::Integer),
                ],
            )
            .unwrap(),
        )
    }

    #[test]
    fn insert_and_lookup() {
        let mut t = table();
        let id = t.insert(vec!["a".into(), 1.into()]).unwrap();
        assert_eq!(t.len(), 1);
        assert_eq!(t.lookup_unique(0, &"a".into()), Some(id));
        assert_eq!(t.row(id).unwrap()[1], Value::Integer(1));
    }

    #[test]
    fn duplicate_primary_key_rejected() {
        let mut t = table();
        t.insert(vec!["a".into(), 1.into()]).unwrap();
        let err = t.insert(vec!["a".into(), 2.into()]).unwrap_err();
        assert!(matches!(err, DbError::UniqueViolation { .. }));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn arity_and_type_checked() {
        let mut t = table();
        assert!(matches!(
            t.insert(vec!["a".into()]).unwrap_err(),
            DbError::ArityMismatch { .. }
        ));
        assert!(matches!(
            t.insert(vec![1.into(), 1.into()]).unwrap_err(),
            DbError::TypeMismatch { .. }
        ));
    }

    #[test]
    fn not_null_enforced() {
        let mut t = table();
        let err = t.insert(vec![Value::Null, 1.into()]).unwrap_err();
        assert!(matches!(err, DbError::NullViolation { .. }));
    }

    #[test]
    fn remove_updates_index_and_allows_reinsert() {
        let mut t = table();
        let id = t.insert(vec!["a".into(), 1.into()]).unwrap();
        assert!(t.remove(id).is_some());
        assert_eq!(t.len(), 0);
        assert_eq!(t.lookup_unique(0, &"a".into()), None);
        t.insert(vec!["a".into(), 2.into()]).unwrap();
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn replace_keeps_id_and_checks_unique() {
        let mut t = table();
        let a = t.insert(vec!["a".into(), 1.into()]).unwrap();
        t.insert(vec!["b".into(), 2.into()]).unwrap();
        // Renaming a -> b collides.
        let err = t.replace(a, vec!["b".into(), 3.into()]).unwrap_err();
        assert!(matches!(err, DbError::UniqueViolation { .. }));
        // Updating the non-key column of `a` through replace is fine.
        t.replace(a, vec!["a".into(), 9.into()]).unwrap();
        assert_eq!(t.row(a).unwrap()[1], Value::Integer(9));
    }

    #[test]
    fn secondary_scan_answers_prefix_lookups() {
        let schema = TableSchema::new(
            "t",
            vec![
                Column::new("id", ValueType::Text).primary_key(),
                Column::new("grp", ValueType::Text),
                Column::new("sub", ValueType::Text),
            ],
        )
        .unwrap()
        .with_index("by_grp_sub", &["grp", "sub"])
        .unwrap();
        let mut t = Table::new(schema);
        for (id, grp, sub) in [
            ("a", "g1", "x"),
            ("b", "g1", "y"),
            ("c", "g2", "x"),
            ("d", "g1", "x"),
        ] {
            t.insert(vec![id.into(), grp.into(), sub.into()]).unwrap();
        }
        assert_eq!(
            t.secondary_scan("by_grp_sub", &["g1".into()]),
            Some(vec![0, 1, 3])
        );
        assert_eq!(
            t.secondary_scan("by_grp_sub", &["g1".into(), "x".into()]),
            Some(vec![0, 3])
        );
        assert_eq!(t.secondary_scan("by_grp_sub", &["g9".into()]), Some(vec![]));
        assert_eq!(t.secondary_scan("missing", &["g1".into()]), None);
        // Deletes drop out; rebuild matches incremental maintenance.
        t.remove(0);
        assert_eq!(
            t.secondary_scan("by_grp_sub", &["g1".into(), "x".into()]),
            Some(vec![3])
        );
        t.rebuild_indexes();
        assert_eq!(
            t.secondary_scan("by_grp_sub", &["g1".into(), "x".into()]),
            Some(vec![3])
        );
    }

    #[test]
    fn rebuild_indexes_matches_incremental() {
        let mut t = table();
        t.insert(vec!["a".into(), 1.into()]).unwrap();
        let b = t.insert(vec!["b".into(), 2.into()]).unwrap();
        t.remove(b);
        let mut rebuilt = t.clone();
        rebuilt.rebuild_indexes();
        assert_eq!(rebuilt.len(), t.len());
        assert_eq!(rebuilt.lookup_unique(0, &"a".into()), Some(0));
        assert_eq!(rebuilt.lookup_unique(0, &"b".into()), None);
    }
}
