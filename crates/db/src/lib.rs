//! # goofi-db — embedded SQL-compatible database
//!
//! The GOOFI fault-injection tool (DSN 2001) stores *all* of its data —
//! target-system descriptions, campaign definitions and logged system
//! states — in a SQL database whose foreign keys "prevent inconsistencies
//! in the database" (paper, Section 2.3). This crate is that substrate: an
//! embedded relational engine with
//!
//! * typed columns ([`ValueType`]) with PRIMARY KEY / UNIQUE / NOT NULL
//!   constraints,
//! * foreign keys with restrict semantics, including self-references (the
//!   paper's `parentExperiment` → `experimentName` link),
//! * a programmatic statement API ([`Select`], [`Insert`], [`Update`],
//!   [`Delete`]) and a SQL text layer ([`Database::execute_sql`]),
//! * inner joins, WHERE / GROUP BY / ORDER BY / LIMIT, aggregates
//!   (COUNT / SUM / AVG / MIN / MAX),
//! * snapshot transactions,
//! * a paged on-disk engine with a write-ahead log ([`storage`]).
//!
//! # Examples
//!
//! ```
//! use goofi_db::{Database, SqlOutput};
//!
//! # fn main() -> Result<(), goofi_db::DbError> {
//! let mut db = Database::new();
//! db.execute_sql(
//!     "CREATE TABLE LoggedSystemState (
//!          experimentName TEXT PRIMARY KEY,
//!          outcome TEXT)",
//! )?;
//! db.execute_sql("INSERT INTO LoggedSystemState VALUES ('E1', 'Detected')")?;
//! let rs = db.query("SELECT outcome, COUNT(*) AS n FROM LoggedSystemState GROUP BY outcome")?;
//! assert_eq!(rs.len(), 1);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

mod database;
mod error;
mod expr;
mod persist;
mod query;
mod schema;
mod sql;
pub mod storage;
mod table;
mod value;

pub use database::Database;
pub use error::DbError;
pub use expr::{BinOp, Expr};
pub use persist::journal_path;
pub use query::{AggFunc, Delete, Insert, Join, ResultSet, Select, SelectItem, SortOrder, Update};
pub use schema::{Column, ForeignKey, IndexSpec, TableSchema};
pub use sql::SqlOutput;
pub use table::{Row, Table};
pub use value::{Value, ValueType};
