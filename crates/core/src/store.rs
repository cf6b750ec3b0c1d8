//! The GOOFI database layer: the paper's Fig. 4 schema on `goofi-db`.
//!
//! Three tables linked by foreign keys: `TargetSystemData` (configuration
//! phase) → `CampaignData` (set-up phase) → `LoggedSystemState` (fault
//! injection phase), with `LoggedSystemState.parentExperiment` referencing
//! `experimentName` in the same table so detail-mode re-runs can track
//! their original experiment's campaign data. A fourth table,
//! `CampaignTelemetry` (one row per campaign, FK to `CampaignData`),
//! holds the runner's telemetry rollup when telemetry is enabled — it is
//! observability metadata, deliberately outside the experiment-row FK
//! graph so results stay byte-identical with telemetry off.
//!
//! `LoggedSystemState` has a logical and a physical form. The logical
//! row is the paper's: `experimentData` as JSON text and the full state
//! vector. That is what [`GoofiStore::get_experiment`],
//! [`GoofiStore::experiments_of`], [`ExperimentRecord::to_row`] and
//! [`GoofiStore::to_database`] return, and what
//! [`GoofiStore::from_database`] takes. The engine stores the physical
//! row of [`crate::rowcodec`]: each experiment as its difference from the
//! campaign's reference row.

use crate::campaign::Campaign;
use crate::error::{GoofiError, Result};
use crate::fault::PlannedFault;
use crate::rowcodec;
use crate::target::{TargetEvent, TargetSystemConfig};
use goofi_db::storage::{decode_row, encode_row, is_paged_file, write_database, PagedEngine};
use goofi_db::{journal_path, Column, Database, Insert, Row, TableSchema, Value, ValueType};
use goofi_telemetry::{names, CampaignTelemetry};
use serde::{Deserialize, Serialize};
use std::cell::RefCell;
use std::collections::HashMap;
use std::path::Path;
use std::sync::Arc;

/// The per-experiment payload of the `experimentData` column
/// ("information about the experiment such as the fault injection
/// location"): JSON in the logical row, the binary codec of
/// [`crate::rowcodec`] in the stored one.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExperimentData {
    /// The injected fault; `None` for the reference execution.
    pub fault: Option<PlannedFault>,
    /// How the experiment terminated.
    pub termination: TargetEvent,
    /// Workload outputs read back after termination.
    pub outputs: Vec<u32>,
    /// Completed workload iterations (cyclic workloads; 0 for batch).
    pub iterations: u32,
    /// Instructions retired at termination (timeliness analysis).
    pub instructions: u64,
    /// Detail-mode state snapshots (one packed state vector per executed
    /// instruction), present only in [`crate::LogMode::Detail`] runs.
    pub detail_trace: Option<Vec<Vec<u8>>>,
}

/// One `LoggedSystemState` row.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExperimentRecord {
    /// Unique experiment name.
    pub name: String,
    /// Parent experiment for detail re-runs (paper Section 2.3).
    pub parent: Option<String>,
    /// Owning campaign.
    pub campaign: String,
    /// Structured experiment payload.
    pub data: ExperimentData,
    /// The logged state vector (packed bits).
    pub state_vector: Vec<u8>,
}

impl ExperimentRecord {
    /// The `LoggedSystemState` row: name, parent (or NULL), campaign,
    /// `experimentData` JSON and the state-vector blob.
    ///
    /// # Errors
    ///
    /// [`GoofiError::Protocol`] if the payload does not serialise.
    pub fn to_row(&self) -> Result<Row> {
        let data = serde_json::to_string(&self.data)
            .map_err(|e| GoofiError::Protocol(format!("experiment serialisation failed: {e}")))?;
        Ok(vec![
            self.name.as_str().into(),
            self.parent.as_deref().map_or(Value::Null, Value::from),
            self.campaign.as_str().into(),
            data.into(),
            self.state_vector.clone().into(),
        ])
    }

    /// Parses a row produced by [`ExperimentRecord::to_row`].
    ///
    /// # Errors
    ///
    /// [`GoofiError::Protocol`] for a row of the wrong width, a value of
    /// the wrong type, or a corrupt `experimentData` payload.
    pub fn from_row(row: &[Value]) -> Result<ExperimentRecord> {
        let (name, parent, campaign, data, state_vector) = row_fields(row)?;
        let state_vector = match state_vector {
            Value::Null => Vec::new(),
            Value::Blob(bytes) => bytes.clone(),
            _ => return Err(GoofiError::Protocol("stateVector not a blob".into())),
        };
        Ok(ExperimentRecord {
            name,
            parent,
            campaign,
            data: serde_json::from_str(text(data, "experimentData")?)
                .map_err(|e| GoofiError::Protocol(format!("corrupt experimentData: {e}")))?,
            state_vector,
        })
    }

    /// The row in the storage engine's binary row codec, as heap cells
    /// and WAL payloads hold it.
    ///
    /// # Errors
    ///
    /// As [`ExperimentRecord::to_row`].
    pub fn to_bytes(&self) -> Result<Vec<u8>> {
        Ok(encode_row(&self.to_row()?))
    }

    /// Parses bytes produced by [`ExperimentRecord::to_bytes`].
    ///
    /// # Errors
    ///
    /// [`GoofiError::Protocol`] for bytes that are not one well-formed
    /// row, or as [`ExperimentRecord::from_row`].
    pub fn from_bytes(bytes: &[u8]) -> Result<ExperimentRecord> {
        let row = decode_row(bytes).map_err(|e| GoofiError::Protocol(e.to_string()))?;
        ExperimentRecord::from_row(&row)
    }

    /// The row experiment `name` of `campaign` logs for `run`: every
    /// field as the run observed it, no parent. [`ExperimentRecord::to_run`]
    /// is its inverse on the logged fields.
    pub fn from_run(name: String, campaign: &str, run: &crate::algorithm::ExperimentRun) -> Self {
        ExperimentRecord {
            name,
            parent: None,
            campaign: campaign.to_owned(),
            data: ExperimentData {
                fault: run.fault.clone(),
                termination: run.termination.clone(),
                outputs: run.outputs.clone(),
                iterations: run.iterations,
                instructions: run.instructions,
                detail_trace: run
                    .detail_trace
                    .as_ref()
                    .map(|t| t.iter().map(|s| s.as_bytes().to_vec()).collect()),
            },
            state_vector: run.state.as_bytes().to_vec(),
        }
    }

    /// Reconstructs the in-memory run view from a stored row, so all the
    /// analysis helpers (sensitivity, latency, propagation) work on
    /// database contents.
    pub fn to_run(&self) -> crate::algorithm::ExperimentRun {
        crate::algorithm::ExperimentRun {
            fault: self.data.fault.clone(),
            termination: self.data.termination.clone(),
            outputs: self.data.outputs.clone(),
            state: crate::bits::StateVector::from_bytes(
                self.state_vector.clone(),
                self.state_vector.len() * 8,
            ),
            instructions: self.data.instructions,
            iterations: self.data.iterations,
            activations_done: usize::from(self.data.fault.is_some()),
            detail_trace: self.data.detail_trace.as_ref().map(|t| {
                t.iter()
                    .map(|b| crate::bits::StateVector::from_bytes(b.clone(), b.len() * 8))
                    .collect()
            }),
            pruned: false,
            predicted: false,
        }
    }
}

/// The key columns of a `LoggedSystemState` row — name, parent and
/// campaign — and its `experimentData` and `stateVector` values, which
/// the logical and the physical row encode differently.
///
/// # Errors
///
/// [`GoofiError::Protocol`] for a row of the wrong width or a key column
/// that is not text.
pub(crate) fn row_fields(
    row: &[Value],
) -> Result<(String, Option<String>, String, &Value, &Value)> {
    let [name, parent, campaign, data, state_vector] = row else {
        return Err(GoofiError::Protocol(format!(
            "experiment row has {} values, expected 5",
            row.len()
        )));
    };
    let parent = match parent {
        Value::Null => None,
        v => Some(text(v, "parentExperiment")?.to_owned()),
    };
    Ok((
        text(name, "experimentName")?.to_owned(),
        parent,
        text(campaign, "campaignName")?.to_owned(),
        data,
        state_vector,
    ))
}

fn text<'a>(v: &'a Value, column: &str) -> Result<&'a str> {
    v.as_text()
        .ok_or_else(|| GoofiError::Protocol(format!("{column} not text")))
}

/// Name of the reference-run pseudo-experiment of a campaign.
pub fn reference_experiment_name(campaign: &str) -> String {
    format!("{campaign}/ref")
}

/// The experiment table.
const LSS: &str = "LoggedSystemState";

/// Schema of `LoggedSystemState` with `experimentData` of type `data`:
/// text in the logical row, a blob in the physical one.
fn experiment_schema(data: ValueType) -> TableSchema {
    TableSchema::new(
        LSS,
        vec![
            Column::new("experimentName", ValueType::Text).primary_key(),
            Column::new("parentExperiment", ValueType::Text).references(LSS, "experimentName"),
            Column::new("campaignName", ValueType::Text)
                .not_null()
                .references("CampaignData", "campaignName"),
            Column::new("experimentData", data).not_null(),
            Column::new("stateVector", ValueType::Blob),
        ],
    )
    .and_then(|s| s.with_index(LSS_INDEX, &["campaignName", "experimentName"]))
    .expect("static schema")
}

/// Name of the declared secondary index on `LoggedSystemState`
/// (`campaignName`, `experimentName`): campaign report scans and resume
/// walk it instead of scanning every experiment row.
const LSS_INDEX: &str = "byCampaignExperiment";

/// The tool's database handle.
///
/// Every row lives once, in a [`PagedEngine`]: memory-backed until the
/// store is [saved](GoofiStore::save) or
/// [journaled](GoofiStore::enable_journal), file-backed after that and
/// after [`GoofiStore::load`]. The engine checks the
/// schema's constraints (types, NOT NULL, primary and foreign keys) on
/// every insert. It sits in a `RefCell` because reads fault pages into
/// its buffer pool while the read API takes `&self`.
///
/// Experiment rows are stored in their physical form (see the module
/// docs); `references` caches each campaign's reference record, the
/// base of those rows, once it has been logged.
#[derive(Debug)]
pub struct GoofiStore {
    engine: RefCell<PagedEngine>,
    references: RefCell<HashMap<String, Arc<ExperimentRecord>>>,
}

impl Default for GoofiStore {
    fn default() -> GoofiStore {
        GoofiStore::new()
    }
}

/// The `CampaignData` row of `campaign`.
fn campaign_row(campaign: &Campaign) -> Result<Row> {
    let json = serde_json::to_string(campaign)
        .map_err(|e| GoofiError::Campaign(format!("serialisation failed: {e}")))?;
    Ok(vec![
        campaign.name.as_str().into(),
        campaign.target.as_str().into(),
        campaign.workload.as_str().into(),
        campaign.technique.name().into(),
        campaign.fault_model.name().into(),
        (campaign.experiments as i64).into(),
        campaign.log_mode.name().into(),
        json.into(),
    ])
}

/// Column `col` of `row`, as text.
fn text_at(row: &[Value], col: usize) -> Option<&str> {
    row.get(col).and_then(Value::as_text)
}

/// The store's five tables, as [`GoofiStore::new`] declares them. A
/// paged file whose catalog holds each of them, by name, is current
/// (see [`GoofiStore::load`]).
fn schemas() -> [TableSchema; 5] {
    [
        TableSchema::new(
            "TargetSystemData",
            vec![
                Column::new("testCardName", ValueType::Text).primary_key(),
                Column::new("description", ValueType::Text),
                Column::new("configJson", ValueType::Text).not_null(),
            ],
        ),
        TableSchema::new(
            "CampaignData",
            vec![
                Column::new("campaignName", ValueType::Text).primary_key(),
                Column::new("testCardName", ValueType::Text)
                    .not_null()
                    .references("TargetSystemData", "testCardName"),
                Column::new("workload", ValueType::Text).not_null(),
                Column::new("technique", ValueType::Text).not_null(),
                Column::new("faultModel", ValueType::Text).not_null(),
                Column::new("nrOfExperiments", ValueType::Integer).not_null(),
                Column::new("logMode", ValueType::Text).not_null(),
                Column::new("campaignJson", ValueType::Text).not_null(),
            ],
        ),
        Ok(experiment_schema(ValueType::Blob)),
        // The telemetry rollup, one row per campaign.
        TableSchema::new(
            "CampaignTelemetry",
            vec![
                Column::new("campaignName", ValueType::Text)
                    .primary_key()
                    .references("CampaignData", "campaignName"),
                Column::new("workers", ValueType::Integer).not_null(),
                Column::new("wallNanos", ValueType::Integer).not_null(),
                Column::new("telemetryJson", ValueType::Text).not_null(),
            ],
        ),
        // One row per campaign that was pruned or ran class execution,
        // holding the persisted `StaticAnalysis`. Like
        // `CampaignTelemetry`, it sits outside the experiment-row FK
        // graph so experiment rows stay byte-identical whether or not a
        // campaign persisted its analysis.
        TableSchema::new(
            "StaticAnalysisData",
            vec![
                Column::new("campaignName", ValueType::Text)
                    .primary_key()
                    .references("CampaignData", "campaignName"),
                Column::new("horizon", ValueType::Integer).not_null(),
                Column::new("analysisJson", ValueType::Text).not_null(),
            ],
        ),
    ]
    .map(|schema| schema.expect("static schema"))
}

impl GoofiStore {
    /// Creates an empty, memory-backed store with the GOOFI schema.
    pub fn new() -> GoofiStore {
        let mut engine = PagedEngine::memory();
        for schema in schemas() {
            engine
                .create_table(&schema)
                .expect("static schema names distinct tables");
        }
        GoofiStore::from_engine(engine)
    }

    fn from_engine(engine: PagedEngine) -> GoofiStore {
        GoofiStore {
            engine: RefCell::new(engine),
            references: RefCell::new(HashMap::new()),
        }
    }

    /// The whole database as an in-memory [`Database`], built on demand,
    /// for the analysis phase's "tailor made scripts or programs that
    /// query the database" and ad-hoc SQL. `LoggedSystemState` holds the
    /// logical rows ([`ExperimentRecord::to_row`]). Changes to the copy
    /// do not reach the store; [`GoofiStore::from_database`] makes a
    /// store of it.
    ///
    /// This is the only way logical experiment rows leave the store.
    ///
    /// # Errors
    ///
    /// [`GoofiError::Database`] on I/O failure; [`GoofiError::Protocol`]
    /// for a corrupt experiment row.
    pub fn to_database(&self) -> Result<Database> {
        let mut db = self.engine.borrow_mut().to_database()?;
        let rows: Vec<Row> = db.table(LSS)?.iter().map(|(_, row)| row.clone()).collect();
        db.drop_table(LSS)?;
        db.create_table(experiment_schema(ValueType::Text))?;
        for row in rows {
            db.insert(Insert::into(LSS, self.expand(&row)?.to_row()?))?;
        }
        Ok(db)
    }

    /// A memory-backed store holding `db`'s content, whose
    /// `LoggedSystemState` holds logical rows, as [`GoofiStore::to_database`]
    /// returns them. Each table's rows are inserted in row-id order,
    /// the store's own tables first (target, campaign, experiment,
    /// telemetry, static analysis) and any other table after them in
    /// name order; experiment rows go through
    /// [`GoofiStore::log_experiment`]. Tables the store declares but `db`
    /// lacks are created empty.
    ///
    /// This is the only way logical experiment rows enter a store: a
    /// file [`GoofiStore::load`] finds not current (a JSON-era snapshot,
    /// a paged file written before compact rows) and the write-back of a
    /// mutating `goofi sql` both come through here.
    ///
    /// # Errors
    ///
    /// [`GoofiError::Database`] if `db` lacks `TargetSystemData`,
    /// `CampaignData` or `LoggedSystemState` or a row breaks a
    /// constraint; [`GoofiError::Protocol`] for an experiment row that
    /// does not parse.
    pub fn from_database(db: &Database) -> Result<GoofiStore> {
        let mut store = GoofiStore::new();
        let own = store.engine.get_mut().table_names();
        for table in ["TargetSystemData", "CampaignData", LSS] {
            db.table(table)?;
        }
        let others: Vec<&str> = db
            .table_names()
            .into_iter()
            .filter(|name| !own.iter().any(|o| o == name))
            .collect();
        for name in &others {
            store
                .engine
                .get_mut()
                .create_table(db.table(name)?.schema())?;
        }
        let order = own.iter().map(String::as_str).chain(others.iter().copied());
        for name in order {
            let Ok(table) = db.table(name) else {
                continue;
            };
            for (_, row) in table.iter() {
                if name == LSS {
                    store.log_experiment(&ExperimentRecord::from_row(row)?)?;
                } else {
                    store.engine.get_mut().append(name, row)?;
                }
            }
        }
        Ok(store)
    }

    /// Persists the store to a file in the paged on-disk format. With the
    /// engine already at `path` this is a *checkpoint*: dirty pages are
    /// flushed (torn-page-safe via WAL page images) and the write-ahead
    /// log is truncated. Otherwise the whole database is written to
    /// `path` as a compact, byte-deterministic paged file, and the store
    /// stays where it was.
    ///
    /// # Errors
    ///
    /// [`GoofiError::Database`] on I/O failure.
    pub fn save(&mut self, path: impl AsRef<Path>) -> Result<()> {
        let path = path.as_ref();
        let engine = self.engine.get_mut();
        if engine.path() == Some(path) {
            engine.checkpoint()?;
        } else {
            write_database(path, &engine.to_database()?)?;
        }
        Ok(())
    }

    /// Loads a store from a file written by [`GoofiStore::save`].
    ///
    /// A *current* file — a paged file whose catalog holds each of the
    /// store's tables with the schema [`GoofiStore::new`] declares — is
    /// opened in place, so later mutations stream into its write-ahead
    /// log; opening recovers any log tail past the last checkpoint
    /// (tolerating a torn final record). Any other file is read as a
    /// logical [`Database`], rebuilt through [`GoofiStore::from_database`]
    /// and written once at `path` in the current format, and a JSON-era
    /// `.journal` sidecar beside it is removed. That covers a JSON-era
    /// snapshot with its journal, a paged file written before experiment
    /// rows were stored compact, and a paged file that lacks a table or
    /// the `LoggedSystemState` index. A read-only command therefore
    /// converts such a file too.
    ///
    /// # Errors
    ///
    /// [`GoofiError::Database`] on I/O or schema failure, and for a file
    /// that is neither a paged database nor a JSON-era snapshot.
    pub fn load(path: impl AsRef<Path>) -> Result<GoofiStore> {
        let path = path.as_ref();
        let db = if is_paged_file(path) {
            let mut engine = PagedEngine::open(path)?;
            if schemas()
                .iter()
                .all(|schema| engine.schema_of(schema.name()) == Some(schema))
            {
                return Ok(GoofiStore::from_engine(engine));
            }
            engine.to_database()?
        } else {
            Database::load(path)?
        };
        GoofiStore::from_database(&db)?.save(path)?;
        let _ = std::fs::remove_file(journal_path(path));
        Ok(GoofiStore::from_engine(PagedEngine::open(path)?))
    }

    /// Rewrites the database as a fresh paged file at `path` (which may
    /// be where the store is): dead slots are dropped and the
    /// write-ahead log is emptied. Rows are copied as they are stored.
    ///
    /// # Errors
    ///
    /// [`GoofiError::Database`] on I/O failure.
    pub fn compact(self, path: impl AsRef<Path>) -> Result<()> {
        let db = self.engine.into_inner().to_database()?;
        Ok(write_database(path.as_ref(), &db)?)
    }

    /// Turns on streaming persistence at `db_path`: unless the store is
    /// already there, the database is written to `db_path` in the paged
    /// format and the store moves onto that file, so every subsequent
    /// mutation reaches its write-ahead log (one length-prefixed,
    /// checksummed record per change). A checkpointed campaign writes
    /// O(rows) bytes total instead of one full snapshot per experiment,
    /// and a crashed campaign is recovered by [`GoofiStore::load`] +
    /// resume.
    ///
    /// # Errors
    ///
    /// [`GoofiError::Database`] if the paged file or its WAL cannot be
    /// written.
    pub fn enable_journal(&mut self, db_path: impl AsRef<Path>) -> Result<()> {
        let path = db_path.as_ref();
        let engine = self.engine.get_mut();
        if engine.path() == Some(path) {
            return Ok(());
        }
        write_database(path, &engine.to_database()?)?;
        *engine = PagedEngine::open(path)?;
        Ok(())
    }

    /// The row of `table` with primary key `key`.
    fn row(&self, table: &str, key: &str) -> Result<Option<Row>> {
        Ok(self.engine.borrow_mut().pk_get(table, &Value::from(key))?)
    }

    /// Column `col` of every row of `table`, as text, in insertion order.
    fn text_column(&self, table: &str, col: usize) -> Result<Vec<String>> {
        let rows = self.engine.borrow_mut().rows(table)?;
        Ok(rows
            .iter()
            .filter_map(|r| text_at(r, col).map(str::to_owned))
            .collect())
    }

    // ------------------------------------------------------------------
    // TargetSystemData
    // ------------------------------------------------------------------

    /// Stores (or replaces) a target-system configuration.
    ///
    /// # Errors
    ///
    /// [`GoofiError::Database`].
    pub fn put_target(&mut self, config: &TargetSystemConfig) -> Result<()> {
        let json = serde_json::to_string(config)
            .map_err(|e| GoofiError::Target(format!("config serialisation failed: {e}")))?;
        let row: Vec<Value> = vec![
            config.name.as_str().into(),
            config.description.as_str().into(),
            json.into(),
        ];
        self.engine.get_mut().upsert("TargetSystemData", &row)?;
        Ok(())
    }

    /// Fetches a target-system configuration by name.
    ///
    /// # Errors
    ///
    /// [`GoofiError::Target`] if absent or corrupt.
    pub fn get_target(&self, name: &str) -> Result<TargetSystemConfig> {
        let row = self.row("TargetSystemData", name)?;
        let json = row
            .as_deref()
            .and_then(|r| text_at(r, 2))
            .ok_or_else(|| GoofiError::Target(format!("no stored target `{name}`")))?;
        serde_json::from_str(json)
            .map_err(|e| GoofiError::Target(format!("corrupt target config `{name}`: {e}")))
    }

    /// Names of all stored targets.
    ///
    /// # Errors
    ///
    /// [`GoofiError::Database`].
    pub fn list_targets(&self) -> Result<Vec<String>> {
        self.text_column("TargetSystemData", 0)
    }

    // ------------------------------------------------------------------
    // CampaignData
    // ------------------------------------------------------------------

    /// Stores a campaign definition.
    ///
    /// # Errors
    ///
    /// [`GoofiError::Database`] — notably a foreign-key violation if the
    /// campaign's target has not been configured first.
    pub fn put_campaign(&mut self, campaign: &Campaign) -> Result<()> {
        self.engine
            .get_mut()
            .append("CampaignData", &campaign_row(campaign)?)?;
        Ok(())
    }

    /// Fetches a campaign by name.
    ///
    /// # Errors
    ///
    /// [`GoofiError::Campaign`] if absent or corrupt.
    pub fn get_campaign(&self, name: &str) -> Result<Campaign> {
        let row = self.row("CampaignData", name)?;
        let json = row
            .as_deref()
            .and_then(|r| text_at(r, 7))
            .ok_or_else(|| GoofiError::Campaign(format!("no stored campaign `{name}`")))?;
        serde_json::from_str(json)
            .map_err(|e| GoofiError::Campaign(format!("corrupt campaign `{name}`: {e}")))
    }

    /// Names of all stored campaigns.
    ///
    /// # Errors
    ///
    /// [`GoofiError::Database`].
    pub fn list_campaigns(&self) -> Result<Vec<String>> {
        self.text_column("CampaignData", 0)
    }

    // ------------------------------------------------------------------
    // LoggedSystemState
    // ------------------------------------------------------------------

    /// Logs one experiment row: its physical row, encoded against the
    /// campaign's reference record once that is logged, then
    /// [`GoofiStore::append_experiment`].
    ///
    /// # Errors
    ///
    /// [`GoofiError::Database`] — foreign keys require the campaign row and
    /// (for detail re-runs) the parent experiment to exist.
    pub fn log_experiment(&mut self, record: &ExperimentRecord) -> Result<()> {
        let base = self.reference(&record.campaign)?;
        self.append_experiment(&rowcodec::compact_row(record, base.as_deref()))
    }

    /// Appends a physical `LoggedSystemState` row, encoded against what
    /// [`GoofiStore::reference`] returns for its campaign: the store's one
    /// write path for experiment rows.
    ///
    /// # Errors
    ///
    /// As [`GoofiStore::log_experiment`].
    pub(crate) fn append_experiment(&mut self, row: &Row) -> Result<()> {
        let _s = tracing::span(names::STORE_LOG_EXPERIMENT);
        self.engine.get_mut().append(LSS, row)?;
        Ok(())
    }

    /// The reference record of `campaign`, the base of its experiment
    /// rows, once it has been logged.
    pub(crate) fn reference(&self, campaign: &str) -> Result<Option<Arc<ExperimentRecord>>> {
        if let Some(reference) = self.references.borrow().get(campaign) {
            return Ok(Some(Arc::clone(reference)));
        }
        let Some(row) = self.row(LSS, &reference_experiment_name(campaign))? else {
            return Ok(None);
        };
        // Nothing precedes a reference row, so it is on the empty base.
        let reference = Arc::new(rowcodec::expand_row(&row, None)?);
        self.references
            .borrow_mut()
            .insert(campaign.to_owned(), Arc::clone(&reference));
        Ok(Some(reference))
    }

    /// The record of the physical experiment row `row`.
    fn expand(&self, row: &[Value]) -> Result<ExperimentRecord> {
        let base = match rowcodec::on_reference(row)? {
            true => self.reference(text_at(row, 2).unwrap_or_default())?,
            false => None,
        };
        rowcodec::expand_row(row, base.as_deref())
    }

    /// Fetches one experiment row.
    ///
    /// # Errors
    ///
    /// [`GoofiError::Protocol`] if absent or corrupt.
    pub fn get_experiment(&self, name: &str) -> Result<ExperimentRecord> {
        let row = self
            .row(LSS, name)?
            .ok_or_else(|| GoofiError::Protocol(format!("no experiment `{name}`")))?;
        self.expand(&row)
    }

    /// All experiments of a campaign, reference run first, then by name.
    ///
    /// # Errors
    ///
    /// [`GoofiError::Database`] / [`GoofiError::Protocol`] on corrupt rows.
    pub fn experiments_of(&self, campaign: &str) -> Result<Vec<ExperimentRecord>> {
        let rows = self
            .engine
            .borrow_mut()
            .index_scan(LSS, LSS_INDEX, &[Value::from(campaign)])?;
        rows.iter().map(|r| self.expand(r)).collect()
    }

    // ------------------------------------------------------------------
    // CampaignTelemetry
    // ------------------------------------------------------------------

    /// Stores (or replaces) a campaign's telemetry rollup.
    ///
    /// On a file-backed store the replacement is logged as a delete +
    /// insert, so the latest rollup survives a crash without waiting for
    /// a checkpoint.
    ///
    /// # Errors
    ///
    /// [`GoofiError::Database`] — the campaign row must exist.
    pub fn put_telemetry(&mut self, telemetry: &CampaignTelemetry) -> Result<()> {
        let row = vec![
            telemetry.campaign.as_str().into(),
            (telemetry.workers as i64).into(),
            (telemetry.wall_nanos as i64).into(),
            telemetry.to_json().into(),
        ];
        self.engine.get_mut().upsert("CampaignTelemetry", &row)?;
        Ok(())
    }

    /// Fetches a campaign's telemetry rollup, `None` when the campaign ran
    /// with telemetry off.
    ///
    /// # Errors
    ///
    /// [`GoofiError::Database`] / [`GoofiError::Protocol`] on corrupt rows.
    pub fn get_telemetry(&self, campaign: &str) -> Result<Option<CampaignTelemetry>> {
        let row = self.row("CampaignTelemetry", campaign)?;
        let Some(json) = row.as_deref().and_then(|r| text_at(r, 3)) else {
            return Ok(None);
        };
        CampaignTelemetry::from_json(json)
            .map(Some)
            .map_err(GoofiError::Protocol)
    }

    /// Removes a campaign's telemetry rollup (if any). Used by the
    /// determinism tests to prove the rollup is the *only* difference
    /// between a telemetry-on and a telemetry-off database: a saved copy
    /// holds no trace of a cleared row.
    ///
    /// # Errors
    ///
    /// [`GoofiError::Database`].
    pub fn clear_telemetry(&mut self, campaign: &str) -> Result<()> {
        self.engine
            .get_mut()
            .delete_by_pk("CampaignTelemetry", &Value::from(campaign))?;
        Ok(())
    }

    // ------------------------------------------------------------------
    // StaticAnalysisData
    // ------------------------------------------------------------------

    /// Stores (or replaces) a campaign's static workload analysis (same
    /// delete + insert semantics as telemetry). A row equal to the stored
    /// one is not written again, so a resume that re-derives the same
    /// analysis leaves the file as a clean run would.
    ///
    /// # Errors
    ///
    /// [`GoofiError::Database`] — the campaign row must exist.
    pub fn put_static_analysis(
        &mut self,
        campaign: &str,
        analysis: &crate::staticanalysis::StaticAnalysis,
    ) -> Result<()> {
        let row = vec![
            campaign.into(),
            (analysis.horizon as i64).into(),
            analysis.to_json().into(),
        ];
        if self.row("StaticAnalysisData", campaign)?.as_ref() != Some(&row) {
            self.engine.get_mut().upsert("StaticAnalysisData", &row)?;
        }
        Ok(())
    }

    /// Fetches a campaign's static analysis, `None` when the campaign
    /// never ran with static pruning.
    ///
    /// # Errors
    ///
    /// [`GoofiError::Database`] / [`GoofiError::Protocol`] on corrupt rows.
    pub fn get_static_analysis(
        &self,
        campaign: &str,
    ) -> Result<Option<crate::staticanalysis::StaticAnalysis>> {
        let row = self.row("StaticAnalysisData", campaign)?;
        let Some(json) = row.as_deref().and_then(|r| text_at(r, 2)) else {
            return Ok(None);
        };
        crate::staticanalysis::StaticAnalysis::from_json(json)
            .map(Some)
            .map_err(GoofiError::Protocol)
    }

    /// Removes a campaign's static analysis (if any) — used by the
    /// determinism tests to prove the analysis row is the *only*
    /// database difference static pruning introduces.
    ///
    /// # Errors
    ///
    /// [`GoofiError::Database`].
    pub fn clear_static_analysis(&mut self, campaign: &str) -> Result<()> {
        self.engine
            .get_mut()
            .delete_by_pk("StaticAnalysisData", &Value::from(campaign))?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{FaultModel, Location, LocationSelector};
    use goofi_db::storage::wal_path;

    fn target_config() -> TargetSystemConfig {
        TargetSystemConfig {
            name: "thor-card".into(),
            description: "Thor RD test card".into(),
            chains: Vec::new(),
            memory: Vec::new(),
        }
    }

    fn campaign() -> Campaign {
        Campaign::builder("c1", "thor-card", "sort16")
            .select(LocationSelector::Chain {
                chain: "cpu".into(),
                field: None,
            })
            .window(0, 100)
            .experiments(10)
            .build()
            .unwrap()
    }

    fn record(name: &str, parent: Option<&str>) -> ExperimentRecord {
        ExperimentRecord {
            name: name.into(),
            parent: parent.map(str::to_owned),
            campaign: "c1".into(),
            data: ExperimentData {
                fault: Some(PlannedFault {
                    model: FaultModel::BitFlip,
                    targets: vec![Location::ChainBit {
                        chain: "cpu".into(),
                        bit: 3,
                    }],
                    times: vec![17],
                }),
                termination: TargetEvent::Halted,
                outputs: vec![1, 2, 3],
                iterations: 0,
                instructions: 120,
                detail_trace: None,
            },
            state_vector: vec![0xaa, 0x55],
        }
    }

    #[test]
    fn target_and_campaign_roundtrip() {
        let mut store = GoofiStore::new();
        store.put_target(&target_config()).unwrap();
        store.put_campaign(&campaign()).unwrap();
        assert_eq!(store.get_target("thor-card").unwrap(), target_config());
        assert_eq!(store.get_campaign("c1").unwrap(), campaign());
        assert_eq!(store.list_targets().unwrap(), vec!["thor-card"]);
        assert_eq!(store.list_campaigns().unwrap(), vec!["c1"]);
    }

    #[test]
    fn campaign_requires_configured_target() {
        let mut store = GoofiStore::new();
        let err = store.put_campaign(&campaign()).unwrap_err();
        assert!(matches!(
            err,
            GoofiError::Database(goofi_db::DbError::ForeignKeyViolation { .. })
        ));
    }

    #[test]
    fn experiment_roundtrip_with_parent_tracking() {
        let mut store = GoofiStore::new();
        store.put_target(&target_config()).unwrap();
        store.put_campaign(&campaign()).unwrap();
        store.log_experiment(&record("c1/001", None)).unwrap();
        // Detail re-run referencing its parent (paper Section 2.3).
        store
            .log_experiment(&record("c1/001-detail", Some("c1/001")))
            .unwrap();
        let back = store.get_experiment("c1/001-detail").unwrap();
        assert_eq!(back.parent.as_deref(), Some("c1/001"));
        assert_eq!(back.data.outputs, vec![1, 2, 3]);
        assert_eq!(back.state_vector, vec![0xaa, 0x55]);
        // Unknown parent is rejected by the FK.
        let err = store
            .log_experiment(&record("c1/002", Some("c1/does-not-exist")))
            .unwrap_err();
        assert!(matches!(err, GoofiError::Database(_)));
    }

    #[test]
    fn record_row_conversion_roundtrips_and_rejects_short_rows() {
        let mut rec = record("c1/001-detail", Some("c1/001"));
        rec.data.detail_trace = Some(vec![vec![1, 2], Vec::new(), vec![0xff; 40]]);
        rec.state_vector = (0..=255).cycle().take(1700).collect();
        let row = rec.to_row().unwrap();
        assert_eq!(ExperimentRecord::from_row(&row).unwrap(), rec);
        let bytes = rec.to_bytes().unwrap();
        assert_eq!(ExperimentRecord::from_bytes(&bytes).unwrap(), rec);

        let short = &row[..3];
        assert!(matches!(
            ExperimentRecord::from_row(short),
            Err(GoofiError::Protocol(_))
        ));
        let short = goofi_db::storage::encode_row(short);
        assert!(matches!(
            ExperimentRecord::from_bytes(&short),
            Err(GoofiError::Protocol(_))
        ));
        assert!(ExperimentRecord::from_bytes(&bytes[..bytes.len() - 1]).is_err());
    }

    #[test]
    fn experiments_of_filters_by_campaign() {
        let mut store = GoofiStore::new();
        store.put_target(&target_config()).unwrap();
        store.put_campaign(&campaign()).unwrap();
        let mut c2 = campaign();
        c2.name = "c2".into();
        store.put_campaign(&c2).unwrap();
        store.log_experiment(&record("c1/001", None)).unwrap();
        let mut r = record("c2/001", None);
        r.campaign = "c2".into();
        store.log_experiment(&r).unwrap();
        let of_c1 = store.experiments_of("c1").unwrap();
        assert_eq!(of_c1.len(), 1);
        assert_eq!(of_c1[0].name, "c1/001");
    }

    #[test]
    fn save_load_roundtrip() {
        let mut store = GoofiStore::new();
        store.put_target(&target_config()).unwrap();
        store.put_campaign(&campaign()).unwrap();
        store.log_experiment(&record("c1/001", None)).unwrap();
        let dir = std::env::temp_dir().join("goofi_store_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("store.json");
        store.save(&path).unwrap();
        let restored = GoofiStore::load(&path).unwrap();
        assert_eq!(restored.get_experiment("c1/001").unwrap().name, "c1/001");
        std::fs::remove_file(&path).ok();
    }

    /// Reading a paged file that has no WAL beside it creates none: the
    /// log appears at the first write.
    #[test]
    fn reads_leave_a_wal_less_file_wal_less() {
        let path = std::env::temp_dir().join("goofi_store_read_no_wal.db");
        let mut store = GoofiStore::new();
        store.put_target(&target_config()).unwrap();
        store.put_campaign(&campaign()).unwrap();
        store.log_experiment(&record("c1/001", None)).unwrap();
        std::fs::remove_file(wal_path(&path)).ok();
        store.save(&path).unwrap();
        drop(store);
        assert!(
            !wal_path(&path).exists(),
            "a fresh file is written WAL-less"
        );
        {
            let store = GoofiStore::load(&path).unwrap();
            assert_eq!(store.experiments_of("c1").unwrap().len(), 1);
        }
        assert!(!wal_path(&path).exists(), "a read created the WAL");
        let mut store = GoofiStore::load(&path).unwrap();
        store.log_experiment(&record("c1/002", None)).unwrap();
        drop(store);
        assert!(wal_path(&path).exists(), "the first write creates the WAL");
        let store = GoofiStore::load(&path).unwrap();
        assert_eq!(store.experiments_of("c1").unwrap().len(), 2);
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(wal_path(&path)).ok();
    }

    #[test]
    fn put_target_is_upsert() {
        let mut store = GoofiStore::new();
        store.put_target(&target_config()).unwrap();
        let mut changed = target_config();
        changed.description = "updated".into();
        store.put_target(&changed).unwrap();
        assert_eq!(
            store.get_target("thor-card").unwrap().description,
            "updated"
        );
        assert_eq!(store.list_targets().unwrap().len(), 1);
    }

    #[test]
    fn reconfigured_target_moves_to_the_end() {
        // An upsert is a delete plus an insert, so the replaced row is
        // appended after every other row, in memory and after reload.
        let path = std::env::temp_dir().join("goofi_store_reconfigure.db");
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(wal_path(&path)).ok();
        let mut store = GoofiStore::new();
        store.put_target(&target_config()).unwrap();
        let mut other = target_config();
        other.name = "other-card".into();
        store.put_target(&other).unwrap();
        store.save(&path).unwrap();
        let mut store = GoofiStore::load(&path).unwrap();
        let mut changed = target_config();
        changed.description = "updated".into();
        store.put_target(&changed).unwrap();
        let moved = vec!["other-card".to_string(), "thor-card".to_string()];
        assert_eq!(store.list_targets().unwrap(), moved);
        drop(store);
        assert_eq!(
            GoofiStore::load(&path).unwrap().list_targets().unwrap(),
            moved
        );
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(wal_path(&path)).ok();
    }

    #[test]
    fn ad_hoc_sql_analysis_works() {
        let mut store = GoofiStore::new();
        store.put_target(&target_config()).unwrap();
        store.put_campaign(&campaign()).unwrap();
        store.log_experiment(&record("c1/001", None)).unwrap();
        store.log_experiment(&record("c1/002", None)).unwrap();
        let rs = store
            .to_database()
            .unwrap()
            .query("SELECT COUNT(*) AS n FROM LoggedSystemState WHERE campaignName = 'c1'")
            .unwrap();
        assert_eq!(rs.scalar().unwrap().as_integer(), Some(2));
    }

    #[test]
    fn store_is_send() {
        fn send<T: Send>() {}
        send::<GoofiStore>();
    }

    #[test]
    fn reference_name_is_stable() {
        assert_eq!(reference_experiment_name("c1"), "c1/ref");
    }

    fn telemetry_rollup(campaign: &str) -> CampaignTelemetry {
        use goofi_telemetry::{Recorder, TelemetryMode, WorkerTelemetry};
        use tracing::Subscriber;
        let recorder = Recorder::new(TelemetryMode::Metrics);
        recorder.on_span(names::PHASE_EXPERIMENT, 1_000);
        recorder.on_span(names::PHASE_EXPERIMENT, 3_000);
        recorder.on_value(names::COUNTER_PRUNED, 2);
        recorder.record_worker(WorkerTelemetry {
            worker: 0,
            claimed: 2,
            steals: 1,
            busy_nanos: 4_000,
            idle_nanos: 10,
        });
        recorder.finish(campaign, 1, 9_999)
    }

    #[test]
    fn telemetry_roundtrips_through_the_store() {
        let mut store = GoofiStore::new();
        store.put_target(&target_config()).unwrap();
        store.put_campaign(&campaign()).unwrap();
        assert_eq!(store.get_telemetry("c1").unwrap(), None);
        let rollup = telemetry_rollup("c1");
        store.put_telemetry(&rollup).unwrap();
        assert_eq!(store.get_telemetry("c1").unwrap(), Some(rollup.clone()));
        // put is an upsert: a re-run replaces the previous rollup.
        let mut updated = rollup.clone();
        updated.wall_nanos = 123;
        store.put_telemetry(&updated).unwrap();
        assert_eq!(store.get_telemetry("c1").unwrap(), Some(updated));
        store.clear_telemetry("c1").unwrap();
        assert_eq!(store.get_telemetry("c1").unwrap(), None);
    }

    #[test]
    fn telemetry_requires_existing_campaign() {
        let mut store = GoofiStore::new();
        let err = store.put_telemetry(&telemetry_rollup("nope")).unwrap_err();
        assert!(matches!(err, GoofiError::Database(_)));
    }

    #[test]
    fn telemetry_survives_journal_replay() {
        let dir = std::env::temp_dir().join("goofi_store_tel_journal");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("store.json");
        let rollup = telemetry_rollup("c1");
        {
            let mut store = GoofiStore::new();
            store.put_target(&target_config()).unwrap();
            store.put_campaign(&campaign()).unwrap();
            store.save(&path).unwrap();
            store.enable_journal(&path).unwrap();
            // Logged after the snapshot: only the journal holds these.
            store.log_experiment(&record("c1/001", None)).unwrap();
            store.put_telemetry(&rollup).unwrap();
        }
        let restored = GoofiStore::load(&path).unwrap();
        assert_eq!(restored.get_experiment("c1/001").unwrap().name, "c1/001");
        assert_eq!(restored.get_telemetry("c1").unwrap(), Some(rollup));
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(wal_path(&path)).ok();
    }

    #[test]
    fn load_migrates_pre_telemetry_databases() {
        // A database written without the CampaignTelemetry and
        // StaticAnalysisData tables (older on-disk layouts) gains both on
        // load.
        let mut legacy = Database::new();
        for schema_of in ["TargetSystemData", "CampaignData", "LoggedSystemState"] {
            let donor = GoofiStore::new();
            let schema = donor
                .to_database()
                .unwrap()
                .table(schema_of)
                .unwrap()
                .schema()
                .clone();
            legacy.create_table(schema).unwrap();
        }
        let dir = std::env::temp_dir().join("goofi_store_tel_migrate");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("legacy.db");
        write_database(&path, &legacy).unwrap();
        let store = GoofiStore::load(&path).unwrap();
        assert!(store
            .to_database()
            .unwrap()
            .table("CampaignTelemetry")
            .is_ok());
        assert_eq!(store.get_telemetry("c1").unwrap(), None);
        assert!(store
            .to_database()
            .unwrap()
            .table("StaticAnalysisData")
            .is_ok());
        assert_eq!(store.get_static_analysis("c1").unwrap(), None);
        std::fs::remove_file(&path).ok();
    }

    fn static_analysis() -> crate::staticanalysis::StaticAnalysis {
        crate::staticanalysis::StaticAnalysis {
            horizon: 64,
            steps: 65,
            blocks: 4,
            edges: 5,
            dead: std::collections::BTreeMap::from([("R1".to_string(), vec![(2, 9)])]),
            equiv: std::collections::BTreeMap::from([("R1".to_string(), vec![(0, 1), (2, 9)])]),
            washout: std::collections::BTreeMap::from([("R1".to_string(), vec![(2, 9, 9)])]),
            lints: vec![crate::staticanalysis::Lint {
                kind: crate::staticanalysis::LintKind::DeadStore,
                message: "store at pc 8 is never read".into(),
            }],
            classes: Vec::new(),
            eligible_faults: 0,
            singleton_classes: 0,
        }
    }

    #[test]
    fn static_analysis_roundtrips_through_the_store() {
        let mut store = GoofiStore::new();
        store.put_target(&target_config()).unwrap();
        store.put_campaign(&campaign()).unwrap();
        assert_eq!(store.get_static_analysis("c1").unwrap(), None);
        let analysis = static_analysis();
        store.put_static_analysis("c1", &analysis).unwrap();
        assert_eq!(
            store.get_static_analysis("c1").unwrap(),
            Some(analysis.clone())
        );
        // Upsert: a re-run replaces the previous analysis.
        let mut updated = analysis.clone();
        updated.horizon = 128;
        store.put_static_analysis("c1", &updated).unwrap();
        assert_eq!(store.get_static_analysis("c1").unwrap(), Some(updated));
        store.clear_static_analysis("c1").unwrap();
        assert_eq!(store.get_static_analysis("c1").unwrap(), None);
    }

    #[test]
    fn an_unchanged_static_analysis_is_not_rewritten() {
        let path = std::env::temp_dir().join("goofi_store_sa_unchanged.db");
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(wal_path(&path)).ok();
        let mut store = GoofiStore::new();
        store.put_target(&target_config()).unwrap();
        store.put_campaign(&campaign()).unwrap();
        store.enable_journal(&path).unwrap();
        let footprint = |s: &mut GoofiStore| {
            let stats = s.engine.get_mut().stats().unwrap();
            let dead = stats
                .tables
                .iter()
                .find(|t| t.name == "StaticAnalysisData")
                .map(|t| t.dead_slots);
            (stats.wal_bytes, dead)
        };
        store.put_static_analysis("c1", &static_analysis()).unwrap();
        let first = footprint(&mut store);
        store.put_static_analysis("c1", &static_analysis()).unwrap();
        assert_eq!(footprint(&mut store), first, "an identical put wrote");
        assert_eq!(first.1, Some(0));
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(wal_path(&path)).ok();
    }

    #[test]
    fn static_analysis_requires_existing_campaign() {
        let mut store = GoofiStore::new();
        let err = store
            .put_static_analysis("nope", &static_analysis())
            .unwrap_err();
        assert!(matches!(err, GoofiError::Database(_)));
    }

    #[test]
    fn static_analysis_survives_journal_replay() {
        let dir = std::env::temp_dir().join("goofi_store_sa_journal");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("store.json");
        let analysis = static_analysis();
        {
            let mut store = GoofiStore::new();
            store.put_target(&target_config()).unwrap();
            store.put_campaign(&campaign()).unwrap();
            store.save(&path).unwrap();
            store.enable_journal(&path).unwrap();
            store.put_static_analysis("c1", &analysis).unwrap();
        }
        let restored = GoofiStore::load(&path).unwrap();
        assert_eq!(restored.get_static_analysis("c1").unwrap(), Some(analysis));
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(wal_path(&path)).ok();
    }

    /// What the in-memory `Database` rejected, the engine-only store
    /// rejects too, with the same error variant, before anything reaches
    /// the write-ahead log — in memory and on file — and a reload holds
    /// no stray row.
    #[test]
    fn store_rejects_what_the_database_rejected() {
        let lss = |rec: ExperimentRecord| ("LoggedSystemState", rec.to_row().unwrap());
        let mut orphan = record("c1/009", None);
        orphan.campaign = "nope".into();
        let mut null_data = lss(record("c1/009", None));
        null_data.1[3] = Value::Null;
        let mut wrong_type = lss(record("c1/009", None));
        wrong_type.1[3] = Value::Integer(7);
        let mut stray = campaign();
        stray.name = "c9".into();
        stray.target = "no-card".into();
        let cases: Vec<(&str, (&str, Row))> = vec![
            ("duplicate experiment name", lss(record("c1/001", None))),
            ("unknown campaign", lss(orphan)),
            ("unknown parent", lss(record("c1/009", Some("c1/none")))),
            ("NULL experimentData", null_data),
            ("wrong column type", wrong_type),
            (
                "campaign of an unknown target",
                ("CampaignData", campaign_row(&stray).unwrap()),
            ),
        ];

        let path = std::env::temp_dir().join("goofi_store_parity.db");
        for on_file in [false, true] {
            let mut store = GoofiStore::new();
            store.put_target(&target_config()).unwrap();
            store.put_campaign(&campaign()).unwrap();
            if on_file {
                store.enable_journal(&path).unwrap();
            }
            store.log_experiment(&record("c1/001", None)).unwrap();
            for (what, (table, row)) in &cases {
                let oracle = store
                    .to_database()
                    .unwrap()
                    .insert(goofi_db::Insert::into(*table, row.clone()))
                    .expect_err(what);
                let wal_bytes = |s: &mut GoofiStore| s.engine.get_mut().stats().unwrap().wal_bytes;
                let wal_before = wal_bytes(&mut store);
                // Experiment rows go through the store's own entry point
                // wherever the row still parses as a record.
                let outcome = match ExperimentRecord::from_row(row) {
                    Ok(rec) if *table == "LoggedSystemState" => store.log_experiment(&rec),
                    _ => store
                        .engine
                        .get_mut()
                        .append(table, row)
                        .map_err(GoofiError::from),
                };
                let Err(GoofiError::Database(err)) = outcome else {
                    panic!("{what}: expected a database error, got {outcome:?}");
                };
                assert_eq!(
                    std::mem::discriminant(&err),
                    std::mem::discriminant(&oracle),
                    "{what}: store said {err:?}, Database said {oracle:?}"
                );
                assert_eq!(wal_bytes(&mut store), wal_before, "{what}: the WAL grew");
            }
            let reloaded = if on_file {
                drop(store);
                GoofiStore::load(&path).unwrap()
            } else {
                store
            };
            let db = reloaded.to_database().unwrap();
            assert_eq!(db.table("LoggedSystemState").unwrap().len(), 1);
            assert_eq!(reloaded.list_campaigns().unwrap(), vec!["c1"]);
        }
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(wal_path(&path)).ok();
    }

    /// A paged file from before the telemetry table existed gains it at
    /// load with an immediate checkpoint, so a rollup logged afterwards
    /// survives a crash before the first save.
    #[test]
    fn load_time_migrations_are_checkpointed_at_once() {
        let path = std::env::temp_dir().join("goofi_store_migrate_ckpt.db");
        let mut old = GoofiStore::new().to_database().unwrap();
        old.drop_table("CampaignTelemetry").unwrap();
        write_database(&path, &old).unwrap();
        let rollup = telemetry_rollup("c1");
        {
            let mut store = GoofiStore::load(&path).unwrap();
            store.put_target(&target_config()).unwrap();
            store.put_campaign(&campaign()).unwrap();
            store.put_telemetry(&rollup).unwrap();
            // Dropped without `save`: the rows live only in the WAL.
        }
        let restored = GoofiStore::load(&path).unwrap();
        assert_eq!(restored.get_telemetry("c1").unwrap(), Some(rollup));
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(wal_path(&path)).ok();
    }

    #[test]
    fn upserts_and_clears_leave_no_trace_in_a_saved_copy() {
        let plain = {
            let mut store = GoofiStore::new();
            store.put_target(&target_config()).unwrap();
            store.put_campaign(&campaign()).unwrap();
            store.log_experiment(&record("c1/001", None)).unwrap();
            store
        };
        let mut churned = GoofiStore::new();
        churned.put_target(&target_config()).unwrap();
        churned.put_target(&target_config()).unwrap();
        churned.put_campaign(&campaign()).unwrap();
        churned.put_telemetry(&telemetry_rollup("c1")).unwrap();
        churned.put_telemetry(&telemetry_rollup("c1")).unwrap();
        churned.log_experiment(&record("c1/001", None)).unwrap();
        churned.clear_telemetry("c1").unwrap();
        let dir = std::env::temp_dir();
        let (a, b) = (
            dir.join("goofi_store_plain.db"),
            dir.join("goofi_store_churn.db"),
        );
        let mut plain = plain;
        plain.save(&a).unwrap();
        churned.save(&b).unwrap();
        assert_eq!(std::fs::read(&a).unwrap(), std::fs::read(&b).unwrap());
        assert!(plain.engine.get_mut().path().is_none());
        assert!(churned.engine.get_mut().path().is_none());
        std::fs::remove_file(&a).ok();
        std::fs::remove_file(&b).ok();
    }

    /// The physical row of experiment `name`, as the engine holds it.
    fn physical(store: &GoofiStore, name: &str) -> Row {
        store.row(LSS, name).unwrap().unwrap()
    }

    /// A campaign's records: its reference, then rows that differ from
    /// it in a few bytes, one with a detail trace and a parent.
    fn campaign_records() -> Vec<ExperimentRecord> {
        let mut reference = record("c1/ref", None);
        reference.data.fault = None;
        reference.state_vector = (0..=255).cycle().take(1700).collect();
        let mut out = vec![reference.clone()];
        for i in 0..4usize {
            let mut r = record(&format!("c1/{i:05}"), None);
            r.state_vector = reference.state_vector.clone();
            r.state_vector[i * 300] ^= 0x10;
            r.data.outputs = reference.data.outputs.clone();
            out.push(r);
        }
        let mut detail = record("c1/00001-detail", Some("c1/00001"));
        detail.data.detail_trace = Some(vec![vec![1, 2, 3], vec![4]]);
        out.push(detail);
        out
    }

    #[test]
    fn rows_logged_after_the_reference_are_stored_against_it() {
        let mut store = GoofiStore::new();
        store.put_target(&target_config()).unwrap();
        store.put_campaign(&campaign()).unwrap();
        let records = campaign_records();
        for r in &records {
            store.log_experiment(r).unwrap();
        }
        let reference = &records[0];
        for r in &records {
            let row = physical(&store, &r.name);
            assert_eq!(rowcodec::on_reference(&row).unwrap(), r != reference);
            let Value::Blob(delta) = &row[4] else {
                panic!("{row:?}");
            };
            assert!(r == reference || delta.len() < 16, "{}: {delta:?}", r.name);
            assert_eq!(&store.get_experiment(&r.name).unwrap(), r);
        }
        let mut by_name = records.clone();
        by_name.sort_by(|a, b| a.name.cmp(&b.name));
        assert_eq!(store.experiments_of("c1").unwrap(), by_name);
    }

    #[test]
    fn a_row_logged_before_its_reference_roundtrips_on_the_empty_base() {
        let mut store = GoofiStore::new();
        store.put_target(&target_config()).unwrap();
        store.put_campaign(&campaign()).unwrap();
        let records = campaign_records();
        let early = &records[1];
        store.log_experiment(early).unwrap();
        store.log_experiment(&records[0]).unwrap();
        store.log_experiment(&records[2]).unwrap();
        assert!(!rowcodec::on_reference(&physical(&store, &early.name)).unwrap());
        assert!(rowcodec::on_reference(&physical(&store, &records[2].name)).unwrap());
        for r in &records[..3] {
            assert_eq!(&store.get_experiment(&r.name).unwrap(), r);
        }
        // The logical view and a store made of it agree with the records.
        let again = GoofiStore::from_database(&store.to_database().unwrap()).unwrap();
        for r in &records[..3] {
            assert_eq!(&again.get_experiment(&r.name).unwrap(), r);
        }
        assert!(!rowcodec::on_reference(&physical(&again, &early.name)).unwrap());
    }

    /// A file written by the store before rows were compact: its
    /// `LoggedSystemState` holds JSON text and full vectors. It loads
    /// with the same records, is rewritten compact once, and a second
    /// load leaves it as it is.
    #[test]
    fn parent_format_files_migrate_once_to_compact_rows() {
        let path = std::env::temp_dir().join("goofi_store_compact_migrate.db");
        let mut store = GoofiStore::new();
        store.put_target(&target_config()).unwrap();
        store.put_campaign(&campaign()).unwrap();
        for r in &campaign_records() {
            store.log_experiment(r).unwrap();
        }
        let logical = store.to_database().unwrap();
        write_database(&path, &logical).unwrap();
        let data_type = |path: &Path| {
            PagedEngine::open(path)
                .unwrap()
                .schema_of(LSS)
                .and_then(|s| s.column("experimentData"))
                .unwrap()
                .ty()
        };
        assert_eq!(data_type(&path), ValueType::Text);
        let before = std::fs::metadata(&path).unwrap().len();

        let loaded = GoofiStore::load(&path).unwrap();
        assert_eq!(
            loaded.experiments_of("c1").unwrap(),
            store.experiments_of("c1").unwrap()
        );
        for r in campaign_records() {
            assert_eq!(loaded.get_experiment(&r.name).unwrap(), r);
        }
        assert_eq!(
            loaded.to_database().unwrap().logical_dump(),
            logical.logical_dump()
        );
        drop(loaded);
        assert_eq!(data_type(&path), ValueType::Blob);
        let migrated = std::fs::read(&path).unwrap();
        assert!((migrated.len() as u64) < before);
        assert_eq!(std::fs::metadata(wal_path(&path)).map_or(0, |m| m.len()), 0);

        let again = GoofiStore::load(&path).unwrap();
        assert_eq!(again.experiments_of("c1").unwrap().len(), 6);
        drop(again);
        assert_eq!(std::fs::read(&path).unwrap(), migrated, "rewritten twice");
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(wal_path(&path)).ok();
    }

    /// A current file loads in place, whatever its catalog order: the
    /// store's own `save` writes tables in name order, an engine built
    /// table by table keeps declaration order. Neither is rewritten.
    #[test]
    fn current_files_load_in_place_whatever_their_catalog_order() {
        let dir = std::env::temp_dir();
        let by_name = dir.join("goofi_store_current_by_name.db");
        let declared = dir.join("goofi_store_current_declared.db");
        let mut store = GoofiStore::new();
        store.put_target(&target_config()).unwrap();
        store.put_campaign(&campaign()).unwrap();
        store.log_experiment(&record("c1/001", None)).unwrap();
        store.save(&by_name).unwrap();
        {
            let mut engine = PagedEngine::create(&declared).unwrap();
            for schema in schemas() {
                engine.create_table(&schema).unwrap();
            }
            engine.checkpoint().unwrap();
        }
        // A rewrite is byte-deterministic, so only the modification
        // time tells a file left alone from one written again.
        let long_ago = std::time::UNIX_EPOCH + std::time::Duration::from_secs(1 << 30);
        let modified = |path: &Path| std::fs::metadata(path).unwrap().modified().unwrap();
        for path in [&by_name, &declared] {
            let file = std::fs::File::options().write(true).open(path).unwrap();
            file.set_modified(long_ago).unwrap();
            drop(file);
            let before = std::fs::read(path).unwrap();
            let loaded = GoofiStore::load(path).unwrap();
            assert_eq!(loaded.engine.borrow().path(), Some(path.as_path()));
            loaded.list_campaigns().unwrap();
            drop(loaded);
            assert_eq!(modified(path), long_ago, "{} was rewritten", path.display());
            assert_eq!(std::fs::read(path).unwrap(), before, "{}", path.display());
            std::fs::remove_file(path).ok();
            std::fs::remove_file(wal_path(path)).ok();
        }
    }

    #[test]
    fn a_file_in_neither_format_is_named_in_the_error() {
        let path = std::env::temp_dir().join("goofi_store_empty_file.db");
        std::fs::write(&path, b"").unwrap();
        let err = GoofiStore::load(&path).unwrap_err().to_string();
        assert!(err.contains(&path.display().to_string()), "{err}");
        assert!(
            err.contains("neither a paged database nor a JSON-era snapshot"),
            "{err}"
        );
        assert_eq!(std::fs::read(&path).unwrap(), b"", "the file was written");
        std::fs::remove_file(&path).ok();
    }

    /// For a campaign run through the store, the logical view holds
    /// exactly the rows of the records the runner logged.
    #[test]
    fn logical_view_rows_are_the_logged_records_rows() {
        use crate::testutil::MiniTarget;
        use crate::{CampaignRunner, RunOptions, TargetSystemInterface, Technique};
        let mut t = MiniTarget::new();
        let c = Campaign::builder("mini-c", "mini", "w")
            .technique(Technique::Scifi)
            .select(LocationSelector::Chain {
                chain: "cpu".into(),
                field: Some("R0".into()),
            })
            .window(0, 19)
            .experiments(12)
            .seed(42)
            .build()
            .unwrap();
        let mut store = GoofiStore::new();
        store.put_target(&t.describe()).unwrap();
        store.put_campaign(&c).unwrap();
        let result = CampaignRunner::new(&mut t, &c)
            .store(&mut store)
            .run()
            .unwrap();
        let plan = crate::runner::plan_campaign(&mut MiniTarget::new(), &c, &RunOptions::default())
            .unwrap();
        let mut expected = vec![plan.reference_record(&c).to_row().unwrap()];
        for (i, run) in result.runs.iter().enumerate() {
            expected.push(plan.record(&c, i, run).to_row().unwrap());
        }
        let db = store.to_database().unwrap();
        let mut rows: Vec<Row> = db
            .table(LSS)
            .unwrap()
            .iter()
            .map(|(_, r)| r.clone())
            .collect();
        let key = |r: &Row| r[0].as_text().unwrap_or_default().to_owned();
        rows.sort_by_key(key);
        expected.sort_by_key(key);
        assert_eq!(rows, expected);
        assert_eq!(
            db.table(LSS)
                .unwrap()
                .schema()
                .column("experimentData")
                .unwrap()
                .ty(),
            ValueType::Text
        );
    }
}
