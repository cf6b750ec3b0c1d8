//! The database engine: catalog, statement execution, referential integrity.

use crate::error::DbError;
use crate::expr::{BinOp, Expr};
use crate::query::{AggFunc, Delete, Insert, ResultSet, Select, SelectItem, SortOrder, Update};
use crate::schema::TableSchema;
use crate::table::{IndexKey, Row, Table};
use crate::value::Value;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, HashSet};

/// An embedded relational database.
///
/// Supports typed tables with primary keys, UNIQUE and NOT NULL constraints,
/// and foreign keys with *restrict* semantics (inserts must reference an
/// existing parent; deleting or re-keying a referenced parent fails), which
/// is exactly the consistency guarantee the GOOFI paper relies on for its
/// `TargetSystemData` → `CampaignData` → `LoggedSystemState` schema.
///
/// # Examples
///
/// ```
/// use goofi_db::{Database, Column, TableSchema, ValueType, Insert, Select, Expr};
///
/// # fn main() -> Result<(), goofi_db::DbError> {
/// let mut db = Database::new();
/// db.create_table(TableSchema::new(
///     "CampaignData",
///     vec![
///         Column::new("campaignName", ValueType::Text).primary_key(),
///         Column::new("nrOfExperiments", ValueType::Integer),
///     ],
/// )?)?;
/// db.insert(Insert::into("CampaignData", vec!["c1".into(), 100.into()]))?;
/// let rs = db.select(
///     Select::from("CampaignData").filter(Expr::col("campaignName").eq(Expr::lit("c1"))),
/// )?;
/// assert_eq!(rs.len(), 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Database {
    tables: BTreeMap<String, Table>,
    #[serde(skip)]
    snapshots: Vec<BTreeMap<String, Table>>,
}

/// Header of a joined row set: `(qualifier, column name)` per position.
type Header = Vec<(String, String)>;

fn resolver<'a>(
    header: &'a Header,
    row: &'a [Value],
) -> impl Fn(Option<&str>, &str) -> Result<Value, DbError> + 'a {
    move |table: Option<&str>, name: &str| {
        let mut found: Option<usize> = None;
        for (i, (qual, col)) in header.iter().enumerate() {
            if col == name && table.is_none_or(|t| t == qual) {
                if found.is_some() && table.is_none() {
                    return Err(DbError::Eval(format!("ambiguous column `{name}`")));
                }
                found = Some(i);
                if table.is_some() {
                    break;
                }
            }
        }
        match found {
            Some(i) => Ok(row[i].clone()),
            None => Err(DbError::Eval(format!(
                "unknown column `{}{name}`",
                table.map(|t| format!("{t}.")).unwrap_or_default()
            ))),
        }
    }
}

impl Database {
    /// Creates an empty database.
    pub fn new() -> Database {
        Database::default()
    }

    /// Creates a table.
    ///
    /// # Errors
    ///
    /// [`DbError::TableExists`] if the name is taken;
    /// [`DbError::ForeignKeyViolation`] if a declared foreign key references
    /// a missing table or a non-UNIQUE parent column. Self-references (as in
    /// the paper's `parentExperiment` → `experimentName`) are allowed.
    pub fn create_table(&mut self, schema: TableSchema) -> Result<(), DbError> {
        if self.tables.contains_key(schema.name()) {
            return Err(DbError::TableExists(schema.name().to_owned()));
        }
        for (ci, fk) in schema.foreign_keys() {
            let parent = if fk.parent_table == schema.name() {
                &schema
            } else {
                self.tables
                    .get(&fk.parent_table)
                    .map(|t| t.schema())
                    .ok_or_else(|| DbError::ForeignKeyViolation {
                        table: schema.name().to_owned(),
                        column: schema.columns()[ci].name().to_owned(),
                        detail: format!("parent table `{}` does not exist", fk.parent_table),
                    })?
            };
            let pcol =
                parent
                    .column(&fk.parent_column)
                    .ok_or_else(|| DbError::ForeignKeyViolation {
                        table: schema.name().to_owned(),
                        column: schema.columns()[ci].name().to_owned(),
                        detail: format!(
                            "parent column `{}.{}` does not exist",
                            fk.parent_table, fk.parent_column
                        ),
                    })?;
            if !pcol.is_unique() {
                return Err(DbError::ForeignKeyViolation {
                    table: schema.name().to_owned(),
                    column: schema.columns()[ci].name().to_owned(),
                    detail: format!(
                        "parent column `{}.{}` is not UNIQUE",
                        fk.parent_table, fk.parent_column
                    ),
                });
            }
        }
        self.tables
            .insert(schema.name().to_owned(), Table::new(schema));
        Ok(())
    }

    /// Drops a table.
    ///
    /// # Errors
    ///
    /// [`DbError::NoSuchTable`]; [`DbError::ForeignKeyViolation`] if another
    /// table declares a foreign key into this one.
    pub fn drop_table(&mut self, name: &str) -> Result<(), DbError> {
        if !self.tables.contains_key(name) {
            return Err(DbError::NoSuchTable(name.to_owned()));
        }
        for (tname, table) in &self.tables {
            if tname == name {
                continue;
            }
            for (ci, fk) in table.schema().foreign_keys() {
                if fk.parent_table == name {
                    return Err(DbError::ForeignKeyViolation {
                        table: tname.clone(),
                        column: table.schema().columns()[ci].name().to_owned(),
                        detail: format!("table `{name}` is referenced and cannot be dropped"),
                    });
                }
            }
        }
        self.tables.remove(name);
        Ok(())
    }

    /// Names of all tables, sorted.
    pub fn table_names(&self) -> Vec<&str> {
        self.tables.keys().map(|s| s.as_str()).collect()
    }

    /// Looks up a table.
    pub fn table(&self, name: &str) -> Result<&Table, DbError> {
        self.tables
            .get(name)
            .ok_or_else(|| DbError::NoSuchTable(name.to_owned()))
    }

    /// Rebuilds all table indexes from row storage (used after load).
    pub(crate) fn rebuild_all_indexes(&mut self) {
        for table in self.tables.values_mut() {
            table.rebuild_indexes();
        }
    }

    fn table_mut(&mut self, name: &str) -> Result<&mut Table, DbError> {
        self.tables
            .get_mut(name)
            .ok_or_else(|| DbError::NoSuchTable(name.to_owned()))
    }

    /// Installs a fully-built table without foreign-key validation, for
    /// the paged engine's load path. Replaces any table of the same name.
    pub(crate) fn install_table(&mut self, table: Table) {
        self.tables.insert(table.schema().name().to_owned(), table);
    }

    // ------------------------------------------------------------------
    // Transactions (single level, snapshot based)
    // ------------------------------------------------------------------

    /// Begins a transaction; [`Database::rollback`] restores the state at
    /// this point. Transactions may nest.
    pub fn begin_transaction(&mut self) {
        self.snapshots.push(self.tables.clone());
    }

    /// Commits the innermost transaction.
    ///
    /// # Errors
    ///
    /// [`DbError::NoTransaction`] if none is active.
    pub fn commit(&mut self) -> Result<(), DbError> {
        self.snapshots
            .pop()
            .map(|_| ())
            .ok_or(DbError::NoTransaction)
    }

    /// Rolls back the innermost transaction.
    ///
    /// # Errors
    ///
    /// [`DbError::NoTransaction`] if none is active.
    pub fn rollback(&mut self) -> Result<(), DbError> {
        match self.snapshots.pop() {
            Some(snap) => {
                self.tables = snap;
                Ok(())
            }
            None => Err(DbError::NoTransaction),
        }
    }

    /// Whether a transaction is active.
    pub fn in_transaction(&self) -> bool {
        !self.snapshots.is_empty()
    }

    // ------------------------------------------------------------------
    // Foreign-key checks
    // ------------------------------------------------------------------

    fn check_fk_parents(&self, table: &str, row: &Row) -> Result<(), DbError> {
        let schema = self.table(table)?.schema().clone();
        for (ci, fk) in schema.foreign_keys() {
            let v = &row[ci];
            if v.is_null() {
                continue;
            }
            let parent = self.table(&fk.parent_table)?;
            let pci = parent
                .schema()
                .column_index(&fk.parent_column)
                .expect("validated at create_table");
            if !parent.contains_value(pci, v) {
                return Err(DbError::ForeignKeyViolation {
                    table: table.to_owned(),
                    column: schema.columns()[ci].name().to_owned(),
                    detail: format!(
                        "value {v} has no parent in `{}.{}`",
                        fk.parent_table, fk.parent_column
                    ),
                });
            }
        }
        Ok(())
    }

    /// Checks that removing `keys` (values of `parent_col` in `parent`) does
    /// not orphan child rows. `exempt` lists row ids in `parent` itself that
    /// are also being removed (for self-referencing tables).
    fn check_no_children(
        &self,
        parent: &str,
        removed: &[(usize, Row)],
        exempt: &HashSet<usize>,
    ) -> Result<(), DbError> {
        for (tname, table) in &self.tables {
            for (ci, fk) in table.schema().foreign_keys() {
                if fk.parent_table != parent {
                    continue;
                }
                let pci = self
                    .table(parent)?
                    .schema()
                    .column_index(&fk.parent_column)
                    .expect("validated at create_table");
                for (_, row) in removed {
                    let key = &row[pci];
                    if key.is_null() {
                        continue;
                    }
                    let orphan = table.iter().any(|(rid, child)| {
                        let self_removed = tname == parent && exempt.contains(&rid);
                        !self_removed && child[ci].sql_eq(key) == Some(true)
                    });
                    if orphan {
                        return Err(DbError::ForeignKeyViolation {
                            table: tname.clone(),
                            column: table.schema().columns()[ci].name().to_owned(),
                            detail: format!(
                                "row(s) still reference {key} in `{parent}.{}`",
                                fk.parent_column
                            ),
                        });
                    }
                }
            }
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Statements
    // ------------------------------------------------------------------

    /// Executes an INSERT; returns the number of rows inserted.
    ///
    /// # Errors
    ///
    /// Constraint violations ([`DbError::UniqueViolation`],
    /// [`DbError::NullViolation`], [`DbError::ForeignKeyViolation`],
    /// [`DbError::TypeMismatch`], [`DbError::ArityMismatch`]) and
    /// [`DbError::NoSuchTable`] / [`DbError::NoSuchColumn`]. On error the
    /// statement is a no-op (all-or-nothing per statement).
    pub fn insert(&mut self, stmt: Insert) -> Result<usize, DbError> {
        // Map provided columns onto full-width rows (short borrow: the
        // schema is not cloned — inserts are the hot append path).
        let (arity, positions) = {
            let schema = self.table(&stmt.table)?.schema();
            let positions: Vec<usize> = match &stmt.columns {
                None => (0..schema.arity()).collect(),
                Some(cols) => {
                    let mut positions = Vec::with_capacity(cols.len());
                    for c in cols {
                        positions.push(schema.column_index(c).ok_or_else(|| {
                            DbError::NoSuchColumn {
                                table: stmt.table.clone(),
                                column: c.clone(),
                            }
                        })?);
                    }
                    positions
                }
            };
            (schema.arity(), positions)
        };
        let mut full_rows = Vec::with_capacity(stmt.rows.len());
        for row in stmt.rows {
            if row.len() != positions.len() {
                return Err(DbError::ArityMismatch {
                    expected: positions.len(),
                    got: row.len(),
                });
            }
            let mut full = vec![Value::Null; arity];
            for (pos, v) in positions.iter().zip(row) {
                full[*pos] = v;
            }
            full_rows.push(full);
        }
        // Validate everything up front so a failed statement changes nothing.
        let mut validated = Vec::with_capacity(full_rows.len());
        for row in full_rows {
            let row = self.table(&stmt.table)?.schema().validate_owned(row)?;
            validated.push(row);
        }
        let mut inserted = Vec::new();
        for row in validated {
            // Parent must exist *before* this row goes in, except that a
            // self-reference may point at a row inserted earlier in this
            // statement (already visible) — which insert-order handles.
            if let Err(e) = self.check_fk_parents(&stmt.table, &row) {
                // Undo partial statement.
                for id in inserted {
                    self.table_mut(&stmt.table)?.remove(id);
                }
                return Err(e);
            }
            match self.table_mut(&stmt.table)?.insert(row) {
                Ok(id) => inserted.push(id),
                Err(e) => {
                    for id in inserted {
                        self.table_mut(&stmt.table)?.remove(id);
                    }
                    return Err(e);
                }
            }
        }
        Ok(inserted.len())
    }

    /// Executes a DELETE; returns the number of rows deleted.
    ///
    /// # Errors
    ///
    /// [`DbError::ForeignKeyViolation`] if a surviving row still references
    /// a deleted one (restrict semantics); evaluation errors from the WHERE
    /// clause. On error nothing is deleted.
    pub fn delete(&mut self, stmt: Delete) -> Result<usize, DbError> {
        let table = self.table(&stmt.table)?;
        let header: Header = table
            .schema()
            .columns()
            .iter()
            .map(|c| (stmt.table.clone(), c.name().to_owned()))
            .collect();
        let mut doomed: Vec<(usize, Row)> = Vec::new();
        for (id, row) in table.iter() {
            let keep = match &stmt.filter {
                None => true,
                Some(f) => f.matches(&resolver(&header, row))?,
            };
            if keep {
                doomed.push((id, row.clone()));
            }
        }
        let exempt: HashSet<usize> = doomed.iter().map(|(id, _)| *id).collect();
        self.check_no_children(&stmt.table, &doomed, &exempt)?;
        let table = self.table_mut(&stmt.table)?;
        for (id, _) in &doomed {
            table.remove(*id);
        }
        Ok(doomed.len())
    }

    /// Compacts a table's row storage: trailing deleted slots are dropped
    /// so the serialised form carries no tombstones past the last live
    /// row. Live row ids never change. Callers that delete-and-reinsert
    /// rows (upserts) can vacuum between the two to keep the on-disk form
    /// identical to a table that never saw the delete.
    ///
    /// # Errors
    ///
    /// [`DbError::NoSuchTable`].
    pub fn vacuum(&mut self, table: &str) -> Result<(), DbError> {
        self.table_mut(table)?.truncate_tombstones();
        Ok(())
    }

    /// Executes an UPDATE; returns the number of rows updated.
    ///
    /// # Errors
    ///
    /// Constraint violations as for [`Database::insert`]; additionally
    /// re-keying a parent row that children still reference fails.
    pub fn update(&mut self, stmt: Update) -> Result<usize, DbError> {
        let schema = self.table(&stmt.table)?.schema().clone();
        let header: Header = schema
            .columns()
            .iter()
            .map(|c| (stmt.table.clone(), c.name().to_owned()))
            .collect();
        let mut assignments = Vec::with_capacity(stmt.assignments.len());
        for (col, expr) in &stmt.assignments {
            let ci = schema
                .column_index(col)
                .ok_or_else(|| DbError::NoSuchColumn {
                    table: stmt.table.clone(),
                    column: col.clone(),
                })?;
            assignments.push((ci, expr.clone()));
        }
        // Plan all updates first.
        let mut planned: Vec<(usize, Row, Row)> = Vec::new();
        {
            let table = self.table(&stmt.table)?;
            for (id, row) in table.iter() {
                let matched = match &stmt.filter {
                    None => true,
                    Some(f) => f.matches(&resolver(&header, row))?,
                };
                if !matched {
                    continue;
                }
                let mut new_row = row.clone();
                for (ci, expr) in &assignments {
                    new_row[*ci] = expr.eval(&resolver(&header, row))?;
                }
                planned.push((id, row.clone(), new_row));
            }
        }
        // Referential checks: changed keys must not orphan children; new FK
        // values must have parents.
        for (id, old, new) in &planned {
            let rekeyed: Vec<(usize, Row)> = schema
                .columns()
                .iter()
                .enumerate()
                .filter(|(ci, c)| c.is_unique() && old[*ci].sql_eq(&new[*ci]) != Some(true))
                .map(|_| (*id, old.clone()))
                .take(1)
                .collect();
            if !rekeyed.is_empty() {
                let exempt = HashSet::from([*id]);
                self.check_no_children(&stmt.table, &rekeyed, &exempt)?;
            }
            self.check_fk_parents_updated(&stmt.table, new)?;
        }
        // Apply with rollback on failure.
        let mut applied: Vec<(usize, Row)> = Vec::new();
        for (id, old, new) in planned.iter() {
            match self.table_mut(&stmt.table)?.replace(*id, new.clone()) {
                Ok(_) => applied.push((*id, old.clone())),
                Err(e) => {
                    for (id, old) in applied {
                        self.table_mut(&stmt.table)?
                            .replace(id, old)
                            .expect("restoring previous row cannot fail");
                    }
                    return Err(e);
                }
            }
        }
        Ok(planned.len())
    }

    fn check_fk_parents_updated(&self, table: &str, row: &Row) -> Result<(), DbError> {
        self.check_fk_parents(table, row)
    }

    /// Executes a SELECT.
    ///
    /// Joinless queries whose WHERE clause contains `column = literal`
    /// conjuncts are answered through an index when one applies — the
    /// primary key / a UNIQUE column, a declared secondary index
    /// ([`crate::IndexSpec`]) by longest column prefix, or a
    /// foreign-key child index — falling back to a full scan
    /// otherwise. The full WHERE clause is always re-applied as a
    /// residual filter, so index use never changes results (see
    /// [`Database::select_scan`] for the reference path).
    ///
    /// # Errors
    ///
    /// [`DbError::NoSuchTable`] and expression-evaluation errors
    /// ([`DbError::Eval`]) for unknown/ambiguous columns or type errors.
    pub fn select(&self, stmt: Select) -> Result<ResultSet, DbError> {
        self.select_impl(stmt, true)
    }

    /// Executes a SELECT without index planning — every base row is
    /// scanned. Semantically identical to [`Database::select`]; kept
    /// public as the reference implementation index-equivalence tests
    /// compare against.
    ///
    /// # Errors
    ///
    /// As for [`Database::select`].
    pub fn select_scan(&self, stmt: Select) -> Result<ResultSet, DbError> {
        self.select_impl(stmt, false)
    }

    fn select_impl(&self, stmt: Select, use_indexes: bool) -> Result<ResultSet, DbError> {
        // 1. Bind the base table.
        let base = self.table(&stmt.table)?;
        let base_qual = stmt.alias.clone().unwrap_or_else(|| stmt.table.clone());
        let mut header: Header = base
            .schema()
            .columns()
            .iter()
            .map(|c| (base_qual.clone(), c.name().to_owned()))
            .collect();
        let planned = if use_indexes && stmt.joins.is_empty() {
            stmt.filter
                .as_ref()
                .and_then(|f| Self::plan_base_ids(base, &base_qual, f))
        } else {
            None
        };
        let mut rows: Vec<Vec<Value>> = match planned {
            // Ids come back ascending, matching full-scan row order.
            Some(ids) => ids
                .into_iter()
                .filter_map(|id| base.row(id))
                .cloned()
                .collect(),
            None => base.iter().map(|(_, r)| r.clone()).collect(),
        };

        // 2. Inner joins, left to right (nested loop).
        for join in &stmt.joins {
            let jt = self.table(&join.table)?;
            let qual = join.alias.clone().unwrap_or_else(|| join.table.clone());
            let mut new_header = header.clone();
            new_header.extend(
                jt.schema()
                    .columns()
                    .iter()
                    .map(|c| (qual.clone(), c.name().to_owned())),
            );
            let mut joined = Vec::new();
            for left in &rows {
                for (_, right) in jt.iter() {
                    let mut combined = left.clone();
                    combined.extend(right.iter().cloned());
                    if join.on.matches(&resolver(&new_header, &combined))? {
                        joined.push(combined);
                    }
                }
            }
            header = new_header;
            rows = joined;
        }

        // 3. WHERE.
        if let Some(filter) = &stmt.filter {
            let mut kept = Vec::with_capacity(rows.len());
            for row in rows {
                if filter.matches(&resolver(&header, &row))? {
                    kept.push(row);
                }
            }
            rows = kept;
        }

        let has_aggregate = stmt
            .items
            .iter()
            .any(|i| matches!(i, SelectItem::Aggregate { .. }));

        if has_aggregate || !stmt.group_by.is_empty() {
            self.select_aggregated(&stmt, &header, rows)
        } else {
            self.select_plain(&stmt, &header, rows)
        }
    }

    /// Collects `column = literal` conjuncts of an AND-chain that bind
    /// base-table columns (unqualified or qualified with `qual`). Null
    /// literals are ignored: `col = NULL` is never true in SQL.
    fn eq_conjuncts<'a>(filter: &'a Expr, qual: &str, out: &mut Vec<(&'a str, &'a Value)>) {
        match filter {
            Expr::Binary {
                op: BinOp::And,
                lhs,
                rhs,
            } => {
                Self::eq_conjuncts(lhs, qual, out);
                Self::eq_conjuncts(rhs, qual, out);
            }
            Expr::Binary {
                op: BinOp::Eq,
                lhs,
                rhs,
            } => match (&**lhs, &**rhs) {
                (Expr::Column { table, name }, Expr::Literal(v))
                | (Expr::Literal(v), Expr::Column { table, name })
                    if table.as_deref().is_none_or(|t| t == qual) && !v.is_null() =>
                {
                    out.push((name.as_str(), v));
                }
                _ => {}
            },
            _ => {}
        }
    }

    /// Picks an access path for a joinless filtered select: the row ids
    /// (ascending) of a superset of the matching rows, or `None` when
    /// no index applies and the caller should scan. Index equality is
    /// `total_cmp`-based, which agrees with SQL `=` wherever the latter
    /// is true, so the residual filter only ever shrinks the set.
    fn plan_base_ids(table: &Table, qual: &str, filter: &Expr) -> Option<Vec<usize>> {
        let mut conjuncts: Vec<(&str, &Value)> = Vec::new();
        Self::eq_conjuncts(filter, qual, &mut conjuncts);
        if conjuncts.is_empty() {
            return None;
        }
        let schema = table.schema();
        let value_of = |col: &str| conjuncts.iter().find(|(c, _)| *c == col).map(|(_, v)| *v);
        // 1. A UNIQUE / PRIMARY KEY column pins at most one row.
        for (ci, col) in schema.columns().iter().enumerate() {
            if col.is_unique() {
                if let Some(v) = value_of(col.name()) {
                    return Some(table.lookup_unique(ci, v).into_iter().collect());
                }
            }
        }
        // 2. Declared secondary index with the longest bound prefix.
        let mut best: Option<(&str, Vec<Value>)> = None;
        for ix in schema.indexes() {
            let prefix: Vec<Value> = ix
                .columns
                .iter()
                .map_while(|c| value_of(c).cloned())
                .collect();
            if !prefix.is_empty() && best.as_ref().is_none_or(|(_, p)| p.len() < prefix.len()) {
                best = Some((&ix.name, prefix));
            }
        }
        if let Some((name, prefix)) = best {
            return table.secondary_scan(name, &prefix);
        }
        // 3. A foreign-key child column's multi-index.
        for (ci, _) in schema.foreign_keys() {
            let col = schema.columns()[ci].name();
            if schema.columns()[ci].is_unique() {
                continue; // already handled above
            }
            if let Some(v) = value_of(col) {
                return Some(table.lookup_multi(ci, v));
            }
        }
        None
    }

    /// Renders the database's logical content as canonical text: tables
    /// sorted by name, rows ordered by primary key (or whole-row order
    /// for keyless tables), values in their SQL display form. Two
    /// databases with the same logical content produce identical dumps
    /// regardless of storage engine, insertion order of equal keys, or
    /// tombstone layout — the determinism tests compare these.
    pub fn logical_dump(&self) -> String {
        let mut out = String::new();
        for (name, table) in &self.tables {
            out.push_str(&format!("== {name} ({})\n", table.len()));
            let mut rows: Vec<&Row> = table.iter().map(|(_, r)| r).collect();
            let pk = table.schema().primary_key_index();
            rows.sort_by(|a, b| match pk {
                Some(ci) => a[ci].total_cmp(&b[ci]),
                None => {
                    let mut ord = std::cmp::Ordering::Equal;
                    for (va, vb) in a.iter().zip(b.iter()) {
                        ord = va.total_cmp(vb);
                        if ord != std::cmp::Ordering::Equal {
                            break;
                        }
                    }
                    ord
                }
            });
            for row in rows {
                let cells: Vec<String> = row.iter().map(|v| v.to_string()).collect();
                out.push_str(&cells.join(" | "));
                out.push('\n');
            }
        }
        out
    }

    fn select_plain(
        &self,
        stmt: &Select,
        header: &Header,
        mut rows: Vec<Vec<Value>>,
    ) -> Result<ResultSet, DbError> {
        // ORDER BY over input rows.
        if !stmt.order_by.is_empty() {
            let mut keyed: Vec<(Vec<Value>, Vec<Value>)> = Vec::with_capacity(rows.len());
            for row in rows {
                let mut keys = Vec::with_capacity(stmt.order_by.len());
                for (expr, _) in &stmt.order_by {
                    keys.push(expr.eval(&resolver(header, &row))?);
                }
                keyed.push((keys, row));
            }
            keyed.sort_by(|(ka, _), (kb, _)| {
                for (i, (_, dir)) in stmt.order_by.iter().enumerate() {
                    let ord = ka[i].total_cmp(&kb[i]);
                    let ord = match dir {
                        SortOrder::Asc => ord,
                        SortOrder::Desc => ord.reverse(),
                    };
                    if ord != std::cmp::Ordering::Equal {
                        return ord;
                    }
                }
                std::cmp::Ordering::Equal
            });
            rows = keyed.into_iter().map(|(_, r)| r).collect();
        }

        // OFFSET / LIMIT.
        let rows: Vec<Vec<Value>> = rows
            .into_iter()
            .skip(stmt.offset)
            .take(stmt.limit.unwrap_or(usize::MAX))
            .collect();

        // Projection.
        let (columns, projections) = self.projection_plan(stmt, header)?;
        let mut out_rows = Vec::with_capacity(rows.len());
        for row in &rows {
            let mut out = Vec::with_capacity(projections.len());
            for proj in &projections {
                out.push(match proj {
                    Projection::Position(i) => row[*i].clone(),
                    Projection::Expr(e) => e.eval(&resolver(header, row))?,
                });
            }
            out_rows.push(out);
        }
        Ok(ResultSet {
            columns,
            rows: out_rows,
        })
    }

    fn projection_plan(
        &self,
        stmt: &Select,
        header: &Header,
    ) -> Result<(Vec<String>, Vec<Projection>), DbError> {
        let mut columns = Vec::new();
        let mut projections = Vec::new();
        // Detect duplicate bare names so wildcard output qualifies them.
        let mut name_counts: BTreeMap<&str, usize> = BTreeMap::new();
        for (_, name) in header {
            *name_counts.entry(name.as_str()).or_default() += 1;
        }
        for item in &stmt.items {
            match item {
                SelectItem::Wildcard => {
                    for (i, (qual, name)) in header.iter().enumerate() {
                        let out_name = if name_counts[name.as_str()] > 1 {
                            format!("{qual}.{name}")
                        } else {
                            name.clone()
                        };
                        columns.push(out_name);
                        projections.push(Projection::Position(i));
                    }
                }
                SelectItem::Expr { expr, alias } => {
                    columns.push(alias.clone().unwrap_or_else(|| expr_name(expr)));
                    projections.push(Projection::Expr(expr.clone()));
                }
                SelectItem::Aggregate { .. } => {
                    return Err(DbError::Eval(
                        "aggregate in non-aggregated projection".into(),
                    ))
                }
            }
        }
        Ok((columns, projections))
    }

    fn select_aggregated(
        &self,
        stmt: &Select,
        header: &Header,
        rows: Vec<Vec<Value>>,
    ) -> Result<ResultSet, DbError> {
        // Group rows.
        let mut groups: BTreeMap<Vec<IndexKey>, Vec<Vec<Value>>> = BTreeMap::new();
        if stmt.group_by.is_empty() {
            groups.insert(Vec::new(), rows);
        } else {
            for row in rows {
                let mut key = Vec::with_capacity(stmt.group_by.len());
                for expr in &stmt.group_by {
                    key.push(IndexKey(expr.eval(&resolver(header, &row))?));
                }
                groups.entry(key).or_default().push(row);
            }
        }

        // Output columns.
        let mut columns = Vec::new();
        for item in &stmt.items {
            match item {
                SelectItem::Wildcard => {
                    return Err(DbError::Eval(
                        "SELECT * cannot be combined with aggregation".into(),
                    ))
                }
                SelectItem::Expr { expr, alias } => {
                    columns.push(alias.clone().unwrap_or_else(|| expr_name(expr)));
                }
                SelectItem::Aggregate { func, arg, alias } => {
                    columns.push(alias.clone().unwrap_or_else(|| match arg {
                        Some(a) => format!("{func}({})", expr_name(a)),
                        None => format!("{func}(*)"),
                    }));
                }
            }
        }

        let mut out_rows = Vec::with_capacity(groups.len());
        for (_, group) in groups {
            let mut out = Vec::with_capacity(stmt.items.len());
            for item in &stmt.items {
                match item {
                    SelectItem::Wildcard => unreachable!("rejected above"),
                    SelectItem::Expr { expr, .. } => {
                        // Evaluated on the group's representative row; in
                        // well-formed queries `expr` appears in GROUP BY so
                        // every row of the group agrees.
                        let rep = group.first().ok_or_else(|| {
                            DbError::Eval("scalar select over empty group".into())
                        })?;
                        out.push(expr.eval(&resolver(header, rep))?);
                    }
                    SelectItem::Aggregate { func, arg, .. } => {
                        out.push(aggregate(*func, arg.as_ref(), header, &group)?);
                    }
                }
            }
            out_rows.push(out);
        }

        // ORDER BY over *output* columns (by name / alias).
        if !stmt.order_by.is_empty() {
            let out_header: Header = columns.iter().map(|c| (String::new(), c.clone())).collect();
            let mut keyed: Vec<(Vec<Value>, Vec<Value>)> = Vec::with_capacity(out_rows.len());
            for row in out_rows {
                let mut keys = Vec::with_capacity(stmt.order_by.len());
                for (expr, _) in &stmt.order_by {
                    keys.push(expr.eval(&resolver(&out_header, &row))?);
                }
                keyed.push((keys, row));
            }
            keyed.sort_by(|(ka, _), (kb, _)| {
                for (i, (_, dir)) in stmt.order_by.iter().enumerate() {
                    let ord = ka[i].total_cmp(&kb[i]);
                    let ord = match dir {
                        SortOrder::Asc => ord,
                        SortOrder::Desc => ord.reverse(),
                    };
                    if ord != std::cmp::Ordering::Equal {
                        return ord;
                    }
                }
                std::cmp::Ordering::Equal
            });
            out_rows = keyed.into_iter().map(|(_, r)| r).collect();
        }

        let out_rows: Vec<Vec<Value>> = out_rows
            .into_iter()
            .skip(stmt.offset)
            .take(stmt.limit.unwrap_or(usize::MAX))
            .collect();

        Ok(ResultSet {
            columns,
            rows: out_rows,
        })
    }
}

enum Projection {
    Position(usize),
    Expr(Expr),
}

fn expr_name(expr: &Expr) -> String {
    match expr {
        Expr::Column { name, .. } => name.clone(),
        _ => "expr".to_owned(),
    }
}

fn aggregate(
    func: AggFunc,
    arg: Option<&Expr>,
    header: &Header,
    group: &[Vec<Value>],
) -> Result<Value, DbError> {
    let mut values = Vec::new();
    match arg {
        None => {
            if func != AggFunc::Count {
                return Err(DbError::Eval(format!("{func} requires an argument")));
            }
            return Ok(Value::Integer(group.len() as i64));
        }
        Some(expr) => {
            for row in group {
                let v = expr.eval(&resolver(header, row))?;
                if !v.is_null() {
                    values.push(v);
                }
            }
        }
    }
    match func {
        AggFunc::Count => Ok(Value::Integer(values.len() as i64)),
        AggFunc::Min => Ok(values
            .into_iter()
            .min_by(|a, b| a.total_cmp(b))
            .unwrap_or(Value::Null)),
        AggFunc::Max => Ok(values
            .into_iter()
            .max_by(|a, b| a.total_cmp(b))
            .unwrap_or(Value::Null)),
        AggFunc::Sum | AggFunc::Avg => {
            if values.is_empty() {
                return Ok(Value::Null);
            }
            let all_int = values.iter().all(|v| matches!(v, Value::Integer(_)));
            if all_int && func == AggFunc::Sum {
                let mut sum: i64 = 0;
                for v in &values {
                    sum = sum
                        .checked_add(v.as_integer().expect("all integers"))
                        .ok_or_else(|| DbError::Eval("SUM overflow".into()))?;
                }
                Ok(Value::Integer(sum))
            } else {
                let mut sum = 0.0;
                for v in &values {
                    sum += v
                        .as_real()
                        .ok_or_else(|| DbError::Eval(format!("{func} over non-numeric {v}")))?;
                }
                Ok(Value::Real(if func == AggFunc::Avg {
                    sum / values.len() as f64
                } else {
                    sum
                }))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Column;
    use crate::value::ValueType;

    fn goofi_schema() -> Database {
        let mut db = Database::new();
        db.create_table(
            TableSchema::new(
                "TargetSystemData",
                vec![
                    Column::new("testCardName", ValueType::Text).primary_key(),
                    Column::new("description", ValueType::Text),
                ],
            )
            .unwrap(),
        )
        .unwrap();
        db.create_table(
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
            .unwrap(),
        )
        .unwrap();
        db.create_table(
            TableSchema::new(
                "LoggedSystemState",
                vec![
                    Column::new("experimentName", ValueType::Text).primary_key(),
                    Column::new("parentExperiment", ValueType::Text)
                        .references("LoggedSystemState", "experimentName"),
                    Column::new("campaignName", ValueType::Text)
                        .not_null()
                        .references("CampaignData", "campaignName"),
                    Column::new("experimentData", ValueType::Text),
                    Column::new("stateVector", ValueType::Blob),
                ],
            )
            .unwrap(),
        )
        .unwrap();
        db
    }

    fn seed(db: &mut Database) {
        db.insert(Insert::into(
            "TargetSystemData",
            vec!["thor-card".into(), "Thor RD test card".into()],
        ))
        .unwrap();
        db.insert(Insert::into(
            "CampaignData",
            vec!["c1".into(), "thor-card".into(), 100.into()],
        ))
        .unwrap();
        db.insert(Insert::into(
            "LoggedSystemState",
            vec![
                "E1".into(),
                Value::Null,
                "c1".into(),
                "loc=R3 bit=7".into(),
                vec![1u8, 2, 3].into(),
            ],
        ))
        .unwrap();
    }

    #[test]
    fn fk_insert_requires_parent() {
        let mut db = goofi_schema();
        let err = db
            .insert(Insert::into(
                "CampaignData",
                vec!["c1".into(), "missing-card".into(), 10.into()],
            ))
            .unwrap_err();
        assert!(matches!(err, DbError::ForeignKeyViolation { .. }));
    }

    #[test]
    fn fk_delete_restricted() {
        let mut db = goofi_schema();
        seed(&mut db);
        let err = db
            .delete(Delete {
                table: "CampaignData".into(),
                filter: None,
            })
            .unwrap_err();
        assert!(matches!(err, DbError::ForeignKeyViolation { .. }));
        // Delete child first, then parent succeeds.
        db.delete(Delete {
            table: "LoggedSystemState".into(),
            filter: None,
        })
        .unwrap();
        assert_eq!(
            db.delete(Delete {
                table: "CampaignData".into(),
                filter: None,
            })
            .unwrap(),
            1
        );
    }

    #[test]
    fn self_referencing_parent_experiment() {
        let mut db = goofi_schema();
        seed(&mut db);
        // E2 re-runs E1 in detail mode (paper Section 2.3).
        db.insert(Insert::into(
            "LoggedSystemState",
            vec![
                "E2".into(),
                "E1".into(),
                "c1".into(),
                "detail re-run".into(),
                vec![9u8].into(),
            ],
        ))
        .unwrap();
        // E1 cannot be deleted while E2 references it...
        let err = db
            .delete(Delete {
                table: "LoggedSystemState".into(),
                filter: Some(Expr::col("experimentName").eq(Expr::lit("E1"))),
            })
            .unwrap_err();
        assert!(matches!(err, DbError::ForeignKeyViolation { .. }));
        // ...but deleting both at once is consistent.
        assert_eq!(
            db.delete(Delete {
                table: "LoggedSystemState".into(),
                filter: None,
            })
            .unwrap(),
            2
        );
    }

    #[test]
    fn fk_to_missing_table_rejected_at_create() {
        let mut db = Database::new();
        let err = db
            .create_table(
                TableSchema::new(
                    "t",
                    vec![Column::new("x", ValueType::Text).references("nope", "y")],
                )
                .unwrap(),
            )
            .unwrap_err();
        assert!(matches!(err, DbError::ForeignKeyViolation { .. }));
    }

    #[test]
    fn drop_referenced_table_rejected() {
        let mut db = goofi_schema();
        let err = db.drop_table("TargetSystemData").unwrap_err();
        assert!(matches!(err, DbError::ForeignKeyViolation { .. }));
        db.drop_table("LoggedSystemState").unwrap();
        db.drop_table("CampaignData").unwrap();
        db.drop_table("TargetSystemData").unwrap();
        assert!(db.table_names().is_empty());
    }

    #[test]
    fn select_with_join_tracks_campaign_of_parent() {
        let mut db = goofi_schema();
        seed(&mut db);
        let rs = db
            .select(
                Select::from("LoggedSystemState")
                    .join(
                        "CampaignData",
                        Expr::qcol("LoggedSystemState", "campaignName")
                            .eq(Expr::qcol("CampaignData", "campaignName")),
                    )
                    .columns(vec![
                        Expr::col("experimentName"),
                        Expr::col("nrOfExperiments"),
                    ]),
            )
            .unwrap();
        assert_eq!(rs.len(), 1);
        assert_eq!(rs.rows[0][0], Value::Text("E1".into()));
        assert_eq!(rs.rows[0][1], Value::Integer(100));
    }

    #[test]
    fn aggregate_count_and_group_by() {
        let mut db = goofi_schema();
        seed(&mut db);
        db.insert(Insert::into(
            "LoggedSystemState",
            vec![
                "E2".into(),
                Value::Null,
                "c1".into(),
                "loc=R4 bit=1".into(),
                vec![].into(),
            ],
        ))
        .unwrap();
        let rs = db
            .select(
                Select::from("LoggedSystemState")
                    .item(SelectItem::Expr {
                        expr: Expr::col("campaignName"),
                        alias: None,
                    })
                    .item(SelectItem::Aggregate {
                        func: AggFunc::Count,
                        arg: None,
                        alias: Some("n".into()),
                    })
                    .group_by(Expr::col("campaignName")),
            )
            .unwrap();
        assert_eq!(rs.len(), 1);
        assert_eq!(rs.rows[0][1], Value::Integer(2));
    }

    #[test]
    fn aggregate_without_group_by_on_empty_table() {
        let db = goofi_schema();
        let rs = db
            .select(Select::from("CampaignData").item(SelectItem::Aggregate {
                func: AggFunc::Count,
                arg: None,
                alias: Some("n".into()),
            }))
            .unwrap();
        assert_eq!(rs.scalar(), Some(&Value::Integer(0)));
    }

    #[test]
    fn order_by_and_limit() {
        let mut db = goofi_schema();
        seed(&mut db);
        for i in 2..6 {
            db.insert(Insert::into(
                "LoggedSystemState",
                vec![
                    format!("E{i}").into(),
                    Value::Null,
                    "c1".into(),
                    Value::Null,
                    Value::Null,
                ],
            ))
            .unwrap();
        }
        let rs = db
            .select(
                Select::from("LoggedSystemState")
                    .columns(vec![Expr::col("experimentName")])
                    .order_by(Expr::col("experimentName"), SortOrder::Desc)
                    .limit(2)
                    .offset(1),
            )
            .unwrap();
        assert_eq!(rs.rows.len(), 2);
        assert_eq!(rs.rows[0][0], Value::Text("E4".into()));
        assert_eq!(rs.rows[1][0], Value::Text("E3".into()));
    }

    #[test]
    fn update_rewrites_and_respects_fk() {
        let mut db = goofi_schema();
        seed(&mut db);
        let n = db
            .update(Update {
                table: "CampaignData".into(),
                assignments: vec![(
                    "nrOfExperiments".into(),
                    Expr::col("nrOfExperiments")
                        .eq(Expr::lit(0))
                        .and(Expr::lit(true)),
                )],
                filter: Some(Expr::col("campaignName").eq(Expr::lit("c1"))),
            })
            .unwrap_err();
        // boolean into integer column -> type mismatch, nothing changed
        assert!(matches!(n, DbError::TypeMismatch { .. }));
        let n = db
            .update(Update {
                table: "CampaignData".into(),
                assignments: vec![(
                    "nrOfExperiments".into(),
                    Expr::Binary {
                        op: crate::expr::BinOp::Add,
                        lhs: Box::new(Expr::col("nrOfExperiments")),
                        rhs: Box::new(Expr::lit(1)),
                    },
                )],
                filter: None,
            })
            .unwrap();
        assert_eq!(n, 1);
        let rs = db
            .select(Select::from("CampaignData").columns(vec![Expr::col("nrOfExperiments")]))
            .unwrap();
        assert_eq!(rs.rows[0][0], Value::Integer(101));
        // Re-keying the referenced campaign is rejected.
        let err = db
            .update(Update {
                table: "CampaignData".into(),
                assignments: vec![("campaignName".into(), Expr::lit("c9"))],
                filter: None,
            })
            .unwrap_err();
        assert!(matches!(err, DbError::ForeignKeyViolation { .. }));
    }

    #[test]
    fn transaction_rollback_restores_state() {
        let mut db = goofi_schema();
        seed(&mut db);
        db.begin_transaction();
        db.delete(Delete {
            table: "LoggedSystemState".into(),
            filter: None,
        })
        .unwrap();
        assert!(db.table("LoggedSystemState").unwrap().is_empty());
        db.rollback().unwrap();
        assert_eq!(db.table("LoggedSystemState").unwrap().len(), 1);
        assert!(db.rollback().is_err());
    }

    #[test]
    fn transaction_commit_keeps_changes() {
        let mut db = goofi_schema();
        seed(&mut db);
        db.begin_transaction();
        db.delete(Delete {
            table: "LoggedSystemState".into(),
            filter: None,
        })
        .unwrap();
        db.commit().unwrap();
        assert!(db.table("LoggedSystemState").unwrap().is_empty());
    }

    #[test]
    fn failed_multi_row_insert_is_atomic() {
        let mut db = goofi_schema();
        seed(&mut db);
        let err = db
            .insert(Insert {
                table: "LoggedSystemState".into(),
                columns: Some(vec!["experimentName".into(), "campaignName".into()]),
                rows: vec![
                    vec!["E7".into(), "c1".into()],
                    vec!["E8".into(), "missing-campaign".into()],
                ],
            })
            .unwrap_err();
        assert!(matches!(err, DbError::ForeignKeyViolation { .. }));
        // E7 must not have been inserted.
        let rs = db
            .select(
                Select::from("LoggedSystemState")
                    .filter(Expr::col("experimentName").eq(Expr::lit("E7"))),
            )
            .unwrap();
        assert!(rs.is_empty());
    }

    #[test]
    fn insert_with_column_list_defaults_null() {
        let mut db = goofi_schema();
        seed(&mut db);
        db.insert(Insert::with_columns(
            "LoggedSystemState",
            vec!["experimentName".into(), "campaignName".into()],
            vec![vec!["E9".into(), "c1".into()]],
        ))
        .unwrap();
        let rs = db
            .select(
                Select::from("LoggedSystemState")
                    .filter(Expr::col("experimentName").eq(Expr::lit("E9"))),
            )
            .unwrap();
        assert_eq!(rs.rows[0][1], Value::Null); // parentExperiment defaulted
    }

    #[test]
    fn ambiguous_unqualified_column_is_an_error() {
        let mut db = goofi_schema();
        seed(&mut db);
        let err = db
            .select(
                Select::from("LoggedSystemState")
                    .join(
                        "CampaignData",
                        Expr::qcol("LoggedSystemState", "campaignName")
                            .eq(Expr::qcol("CampaignData", "campaignName")),
                    )
                    .columns(vec![Expr::col("campaignName")]),
            )
            .unwrap_err();
        assert!(matches!(err, DbError::Eval(_)));
    }

    #[test]
    fn wildcard_join_qualifies_duplicate_names() {
        let mut db = goofi_schema();
        seed(&mut db);
        let rs = db
            .select(
                Select::from("LoggedSystemState").join(
                    "CampaignData",
                    Expr::qcol("LoggedSystemState", "campaignName")
                        .eq(Expr::qcol("CampaignData", "campaignName")),
                ),
            )
            .unwrap();
        assert!(rs
            .columns
            .contains(&"LoggedSystemState.campaignName".to_owned()));
        assert!(rs.columns.contains(&"CampaignData.campaignName".to_owned()));
    }
}
