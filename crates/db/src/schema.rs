//! Table schemas: columns, types and constraints.
//!
//! The GOOFI paper (Fig. 4) relies on primary keys and foreign keys to
//! "prevent inconsistencies in the database"; this module carries those
//! declarations, and [`crate::Database`] and the paged engine
//! ([`crate::storage::PagedEngine`]) enforce them.

use crate::error::DbError;
use crate::value::{Value, ValueType};
use serde::{Deserialize, Serialize};
use std::borrow::Cow;

/// Declaration of a foreign key: this column references
/// `parent_table.parent_column`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ForeignKey {
    /// Referenced (parent) table name.
    pub parent_table: String,
    /// Referenced column in the parent table (must be PRIMARY KEY or UNIQUE).
    pub parent_column: String,
}

/// A column declaration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Column {
    name: String,
    ty: ValueType,
    not_null: bool,
    unique: bool,
    primary_key: bool,
    foreign_key: Option<ForeignKey>,
}

impl Column {
    /// Creates a plain nullable column.
    pub fn new(name: impl Into<String>, ty: ValueType) -> Column {
        Column {
            name: name.into(),
            ty,
            not_null: false,
            unique: false,
            primary_key: false,
            foreign_key: None,
        }
    }

    /// Declares the column NOT NULL.
    pub fn not_null(mut self) -> Column {
        self.not_null = true;
        self
    }

    /// Declares the column UNIQUE.
    pub fn unique(mut self) -> Column {
        self.unique = true;
        self
    }

    /// Declares the column the PRIMARY KEY (implies NOT NULL and UNIQUE).
    pub fn primary_key(mut self) -> Column {
        self.primary_key = true;
        self.not_null = true;
        self.unique = true;
        self
    }

    /// Declares a foreign key to `parent_table.parent_column`.
    pub fn references(
        mut self,
        parent_table: impl Into<String>,
        parent_column: impl Into<String>,
    ) -> Column {
        self.foreign_key = Some(ForeignKey {
            parent_table: parent_table.into(),
            parent_column: parent_column.into(),
        });
        self
    }

    /// Column name.
    pub fn name(&self) -> &str {
        &self.name
    }
    /// Declared type.
    pub fn ty(&self) -> ValueType {
        self.ty
    }
    /// Whether NULL is rejected.
    pub fn is_not_null(&self) -> bool {
        self.not_null
    }
    /// Whether duplicate values are rejected.
    pub fn is_unique(&self) -> bool {
        self.unique
    }
    /// Whether this is the primary key column.
    pub fn is_primary_key(&self) -> bool {
        self.primary_key
    }
    /// The foreign-key declaration, if any.
    pub fn foreign_key(&self) -> Option<&ForeignKey> {
        self.foreign_key.as_ref()
    }
}

/// A declared secondary index: an ordered list of columns queries can
/// be answered through without a full scan.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct IndexSpec {
    /// Index name (unique within the table).
    pub name: String,
    /// Indexed columns, most significant first.
    pub columns: Vec<String>,
}

/// A table schema: an ordered list of columns.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TableSchema {
    name: String,
    columns: Vec<Column>,
    /// Declared secondary indexes. Defaults to empty so snapshots
    /// written before indexes existed still deserialize.
    #[serde(default)]
    indexes: Vec<IndexSpec>,
}

impl TableSchema {
    /// Creates a schema; validates that column names are unique (case
    /// sensitive, as in the paper's camelCase attribute names) and that at
    /// most one column is PRIMARY KEY.
    ///
    /// # Errors
    ///
    /// Returns [`DbError::Parse`] for duplicate column names, an empty
    /// column list, or multiple primary keys.
    pub fn new(name: impl Into<String>, columns: Vec<Column>) -> Result<TableSchema, DbError> {
        let name = name.into();
        if columns.is_empty() {
            return Err(DbError::Parse(format!(
                "table `{name}` must have at least one column"
            )));
        }
        let mut seen = std::collections::HashSet::new();
        let mut pk_count = 0usize;
        for c in &columns {
            if !seen.insert(c.name.clone()) {
                return Err(DbError::Parse(format!(
                    "duplicate column `{}` in table `{name}`",
                    c.name
                )));
            }
            if c.primary_key {
                pk_count += 1;
            }
        }
        if pk_count > 1 {
            return Err(DbError::Parse(format!(
                "table `{name}` declares more than one PRIMARY KEY column"
            )));
        }
        Ok(TableSchema {
            name,
            columns,
            indexes: Vec::new(),
        })
    }

    /// Declares a secondary index over `columns` (most significant
    /// first). Builder style, used at schema-definition time.
    ///
    /// # Errors
    ///
    /// Returns [`DbError::Parse`] if the name duplicates an existing
    /// index, the column list is empty, or a column does not exist.
    pub fn with_index(
        mut self,
        name: impl Into<String>,
        columns: &[&str],
    ) -> Result<TableSchema, DbError> {
        let name = name.into();
        if columns.is_empty() {
            return Err(DbError::Parse(format!(
                "index `{name}` on table `{}` has no columns",
                self.name
            )));
        }
        if self.indexes.iter().any(|ix| ix.name == name) {
            return Err(DbError::Parse(format!(
                "duplicate index `{name}` on table `{}`",
                self.name
            )));
        }
        for col in columns {
            if self.column_index(col).is_none() {
                return Err(DbError::Parse(format!(
                    "index `{name}` names unknown column `{col}` of table `{}`",
                    self.name
                )));
            }
        }
        self.indexes.push(IndexSpec {
            name,
            columns: columns.iter().map(|c| (*c).to_owned()).collect(),
        });
        Ok(self)
    }

    /// Declared secondary indexes.
    pub fn indexes(&self) -> &[IndexSpec] {
        &self.indexes
    }

    /// Table name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Columns in declaration order.
    pub fn columns(&self) -> &[Column] {
        &self.columns
    }

    /// Number of columns.
    pub fn arity(&self) -> usize {
        self.columns.len()
    }

    /// Index of a column by name.
    pub fn column_index(&self, name: &str) -> Option<usize> {
        self.columns.iter().position(|c| c.name == name)
    }

    /// Column by name.
    pub fn column(&self, name: &str) -> Option<&Column> {
        self.columns.iter().find(|c| c.name == name)
    }

    /// Index of the primary key column, if declared.
    pub fn primary_key_index(&self) -> Option<usize> {
        self.columns.iter().position(|c| c.primary_key)
    }

    /// All foreign keys as `(child column index, fk)` pairs.
    pub fn foreign_keys(&self) -> impl Iterator<Item = (usize, &ForeignKey)> {
        self.columns
            .iter()
            .enumerate()
            .filter_map(|(i, c)| c.foreign_key().map(|fk| (i, fk)))
    }

    /// Validates a row against the schema — arity, column types and NOT
    /// NULL — and widens integers bound for REAL columns (the one
    /// coercion [`Value::coerce`] performs). Borrows `row` when nothing
    /// needs widening. Uniqueness and foreign keys are the caller's.
    ///
    /// # Errors
    ///
    /// [`DbError::ArityMismatch`], [`DbError::NullViolation`] or
    /// [`DbError::TypeMismatch`].
    pub fn validate<'r>(&self, row: &'r [Value]) -> Result<Cow<'r, [Value]>, DbError> {
        if row.len() != self.arity() {
            return Err(DbError::ArityMismatch {
                expected: self.arity(),
                got: row.len(),
            });
        }
        let mut widen = false;
        for (value, col) in row.iter().zip(&self.columns) {
            if value.is_null() {
                if col.not_null {
                    return Err(DbError::NullViolation {
                        table: self.name.clone(),
                        column: col.name.clone(),
                    });
                }
                continue;
            }
            if !value.is_compatible_with(col.ty) {
                return Err(DbError::TypeMismatch {
                    table: self.name.clone(),
                    column: col.name.clone(),
                    expected: col.ty.name(),
                    got: value.type_name(),
                });
            }
            widen |= matches!((value, col.ty), (Value::Integer(_), ValueType::Real));
        }
        if !widen {
            return Ok(Cow::Borrowed(row));
        }
        Ok(Cow::Owned(
            row.iter()
                .zip(&self.columns)
                .map(|(v, col)| v.clone().coerce(col.ty))
                .collect(),
        ))
    }

    /// [`TableSchema::validate`] for an owned row.
    pub(crate) fn validate_owned(&self, row: Vec<Value>) -> Result<Vec<Value>, DbError> {
        let widened = match self.validate(&row)? {
            Cow::Owned(widened) => Some(widened),
            Cow::Borrowed(_) => None,
        };
        Ok(widened.unwrap_or(row))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo_schema() -> TableSchema {
        TableSchema::new(
            "CampaignData",
            vec![
                Column::new("campaignName", ValueType::Text).primary_key(),
                Column::new("testCardName", ValueType::Text)
                    .not_null()
                    .references("TargetSystemData", "testCardName"),
                Column::new("nrOfExperiments", ValueType::Integer),
            ],
        )
        .unwrap()
    }

    #[test]
    fn primary_key_implies_not_null_unique() {
        let s = demo_schema();
        let pk = s.column("campaignName").unwrap();
        assert!(pk.is_primary_key() && pk.is_not_null() && pk.is_unique());
        assert_eq!(s.primary_key_index(), Some(0));
    }

    #[test]
    fn column_lookup() {
        let s = demo_schema();
        assert_eq!(s.column_index("nrOfExperiments"), Some(2));
        assert_eq!(s.column_index("missing"), None);
        assert_eq!(s.arity(), 3);
    }

    #[test]
    fn foreign_keys_enumerated() {
        let s = demo_schema();
        let fks: Vec<_> = s.foreign_keys().collect();
        assert_eq!(fks.len(), 1);
        assert_eq!(fks[0].0, 1);
        assert_eq!(fks[0].1.parent_table, "TargetSystemData");
    }

    #[test]
    fn duplicate_columns_rejected() {
        let err = TableSchema::new(
            "t",
            vec![
                Column::new("a", ValueType::Integer),
                Column::new("a", ValueType::Text),
            ],
        )
        .unwrap_err();
        assert!(matches!(err, DbError::Parse(_)));
    }

    #[test]
    fn empty_table_rejected() {
        assert!(TableSchema::new("t", vec![]).is_err());
    }

    #[test]
    fn multiple_primary_keys_rejected() {
        let err = TableSchema::new(
            "t",
            vec![
                Column::new("a", ValueType::Integer).primary_key(),
                Column::new("b", ValueType::Integer).primary_key(),
            ],
        )
        .unwrap_err();
        assert!(matches!(err, DbError::Parse(_)));
    }
}
