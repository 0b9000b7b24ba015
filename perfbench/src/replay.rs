//! The engine replay behind the per-layer engine, serde and format
//! metrics.
//!
//! The campaign's own deployment type is private to `csi-test`, so the
//! benchmark builds the same stack from public parts — `Metastore`,
//! `MiniHdfs::with_datanodes(3)`, a `CrossingContext`,
//! `SparkSession::connect` and `HiveQl::new` — and drives every
//! (experiment, plan, format, input) cell through it the way the serial
//! executor does, timing each engine call. Each cell's write and read
//! outcome must equal the campaign's own `Observation` of that cell
//! (the fidelity check), which shows the times measure the work the
//! campaign did.

use csi_core::boundary::CrossingContext;
use csi_core::diag::DiagSink;
use csi_core::oracle::Observation;
use csi_core::value::{StructField, Value};
use csi_core::InteractionError;
use csi_test::exec::render_literal;
use csi_test::plan::{Experiment, Interface, TestPlan};
use csi_test::{CampaignSpec, TestInput};
use minihdfs::MiniHdfs;
use minihive::metastore::StorageFormat;
use minihive::{HiveQl, Metastore};
use minispark::SparkSession;
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

/// Calls, failures and time of one engine operation.
#[derive(Debug, Clone, Default)]
pub struct OpStat {
    /// Calls made.
    pub count: usize,
    /// Calls that returned an error.
    pub errors: usize,
    /// Summed call time, µs.
    pub total_us: f64,
}

impl OpStat {
    /// Mean call time, µs (0 when never called).
    pub fn mean_us(&self) -> f64 {
        self.total_us / self.count.max(1) as f64
    }

    fn add<T, E>(&mut self, started: Instant, result: &Result<T, E>) {
        self.count += 1;
        self.total_us += started.elapsed().as_secs_f64() * 1e6;
        if result.is_err() {
            self.errors += 1;
        }
    }
}

/// Everything one replay measured.
#[derive(Debug, Clone, Default)]
pub struct ReplayStats {
    /// Per-operation stats, keyed by metric stem
    /// (`minispark.sql.create`, `miniformats.decode`, ...).
    pub ops: BTreeMap<&'static str, OpStat>,
    /// Data-file bytes read back.
    pub file_bytes: usize,
    /// Rows those files held.
    pub file_rows: usize,
    /// Cells replayed.
    pub cells: usize,
    /// Cells whose write or read outcome differed from the campaign's.
    pub mismatches: usize,
}

struct Stack {
    sink: DiagSink,
    crossing: CrossingContext,
    fs: Arc<Mutex<MiniHdfs>>,
    metastore: Arc<Mutex<Metastore>>,
    spark: SparkSession,
    hive: HiveQl,
}

fn build_stack(spec: &CampaignSpec) -> Stack {
    let sink = DiagSink::new();
    let crossing = if spec.trace || spec.detect {
        CrossingContext::new()
    } else {
        CrossingContext::disabled()
    };
    let mut metastore = Metastore::new();
    let mut fs = MiniHdfs::with_datanodes(3);
    metastore.set_crossing(crossing.clone());
    fs.set_crossing(crossing.clone());
    let metastore = Arc::new(Mutex::new(metastore));
    let fs = Arc::new(Mutex::new(fs));
    let mut spark = SparkSession::connect(metastore.clone(), fs.clone(), sink.handle("minispark"));
    for (k, v) in &spec.spark_overrides {
        spark.config.set(k, v);
    }
    let hive = HiveQl::new(metastore.clone(), fs.clone(), sink.handle("minihive"));
    Stack {
        sink,
        crossing,
        fs,
        metastore,
        spark,
        hive,
    }
}

impl ReplayStats {
    fn op(&mut self, name: &'static str) -> &mut OpStat {
        self.ops.entry(name).or_default()
    }

    fn sql(
        &mut self,
        stack: &Stack,
        iface: Interface,
        verb: &'static str,
        text: &str,
    ) -> Result<Vec<Vec<Value>>, InteractionError> {
        let parse_started = Instant::now();
        let parsed = csi_core::sql::parse(text);
        self.op("csi_core.sql.parse").add(parse_started, &parsed);
        let started = Instant::now();
        match iface {
            Interface::SparkSql => {
                let r = stack.spark.sql(text);
                self.op(spark_sql_op(verb)).add(started, &r);
                r.map(|r| r.rows).map_err(InteractionError::from)
            }
            _ => {
                let r = stack.hive.execute(text);
                self.op(hive_op(verb)).add(started, &r);
                r.map(|r| r.rows).map_err(InteractionError::from)
            }
        }
    }

    fn write(
        &mut self,
        stack: &Stack,
        iface: Interface,
        table: &str,
        input: &TestInput,
        format: StorageFormat,
    ) -> Result<(), InteractionError> {
        match iface {
            Interface::SparkSql | Interface::HiveQl => {
                let create = format!(
                    "CREATE TABLE {table} (c {}) STORED AS {}",
                    input.column_type.sql_name(),
                    format.name()
                );
                self.sql(stack, iface, "create", &create)?;
                let insert = format!(
                    "INSERT INTO {table} VALUES ({})",
                    render_literal(&input.value)
                );
                self.sql(stack, iface, "insert", &insert).map(|_| ())
            }
            Interface::DataFrame => {
                let schema = vec![StructField::new("c", input.column_type.clone())];
                let df = stack.spark.dataframe();
                let started = Instant::now();
                let r = df.create_table(table, &schema, format);
                self.op("minispark.dataframe.create").add(started, &r);
                r.map_err(InteractionError::from)?;
                let started = Instant::now();
                let r = df.insert_into(table, &[vec![input.value.clone()]]);
                self.op("minispark.dataframe.write").add(started, &r);
                r.map_err(InteractionError::from)
            }
        }
    }

    fn read(
        &mut self,
        stack: &Stack,
        iface: Interface,
        table: &str,
    ) -> Result<Vec<Value>, InteractionError> {
        let rows = match iface {
            Interface::DataFrame => {
                let started = Instant::now();
                let r = stack.spark.dataframe().read_table(table);
                self.op("minispark.dataframe.read").add(started, &r);
                r.map_err(InteractionError::from)?.1
            }
            _ => self.sql(stack, iface, "select", &format!("SELECT * FROM {table}"))?,
        };
        rows.into_iter()
            .map(|mut r| {
                if r.is_empty() {
                    Err(InteractionError::crash(
                        "csi-test",
                        "EMPTY_ROW",
                        "engine returned a zero-column row for a one-column projection",
                    ))
                } else {
                    Ok(r.remove(0))
                }
            })
            .collect()
    }

    /// Times the serde and format layers on the table's data files, by
    /// calling them directly: decode then re-encode each file through
    /// miniformats, and read then re-write it through each engine's
    /// serde layer. Runs after the cell's read, so it cannot change the
    /// outcome the fidelity check compares.
    fn serde_probe(&mut self, stack: &Stack, table: &str) {
        let Ok(def) = stack.spark.table_def(table) else {
            return;
        };
        let files = {
            let metastore = stack.metastore.lock();
            let fs = stack.fs.lock();
            metastore.table_data_files(&def, &fs).unwrap_or_default()
        };
        let schema = stack.spark.resolve_schema(&def);
        let diag_sink = DiagSink::new();
        let diag = diag_sink.handle("minihive");
        for path in files {
            let Ok(bytes) = stack.fs.lock().read(&path) else {
                continue;
            };
            let bytes: &[u8] = &bytes;
            let started = Instant::now();
            let batch = match def.format {
                StorageFormat::Orc => miniformats::orc::decode_batch(bytes),
                StorageFormat::Parquet => miniformats::parquet::decode_batch(bytes),
                StorageFormat::Avro => miniformats::avro::decode_batch(bytes),
            };
            self.op("miniformats.decode").add(started, &batch);
            if let Ok(batch) = &batch {
                let started = Instant::now();
                let encoded = match def.format {
                    StorageFormat::Orc => miniformats::orc::encode_batch(batch),
                    StorageFormat::Parquet => miniformats::parquet::encode_batch(batch),
                    StorageFormat::Avro => miniformats::avro::encode_batch(batch),
                };
                self.op("miniformats.encode").add(started, &encoded);
            }
            let started = Instant::now();
            let rows =
                minispark::serde_layer::read_file(def.format, &schema, bytes, &stack.spark.config);
            self.op("minispark.serde.read").add(started, &rows);
            if let Ok(rows) = &rows {
                self.file_bytes += bytes.len();
                self.file_rows += rows.len();
                let started = Instant::now();
                let out = minispark::serde_layer::write_file(
                    def.format,
                    &schema,
                    rows,
                    &stack.spark.config,
                );
                self.op("minispark.serde.write").add(started, &out);
            }
            let started = Instant::now();
            let rows = minihive::serde_layer::read_file(def.format, &def.columns, bytes, &diag);
            self.op("minihive.serde.read").add(started, &rows);
            if let Ok(rows) = &rows {
                let started = Instant::now();
                let out = minihive::serde_layer::write_file(def.format, &def.columns, rows, &diag);
                self.op("minihive.serde.write").add(started, &out);
            }
        }
    }
}

fn spark_sql_op(verb: &str) -> &'static str {
    match verb {
        "create" => "minispark.sql.create",
        "insert" => "minispark.sql.insert",
        _ => "minispark.sql.select",
    }
}

fn hive_op(verb: &str) -> &'static str {
    match verb {
        "create" => "minihive.execute.create",
        "insert" => "minihive.execute.insert",
        _ => "minihive.execute.select",
    }
}

fn table_name(
    experiment: Experiment,
    plan: TestPlan,
    format: StorageFormat,
    input: &TestInput,
) -> String {
    format!(
        "t_{}_{}_{}_{}",
        experiment.short(),
        format!("{plan}")
            .replace(['-', '>'], "")
            .to_ascii_lowercase(),
        format.extension(),
        input.id
    )
}

/// Replays `spec`'s cross-test grid over `inputs` (one fresh stack per
/// experiment, cells in the serial executor's order) and checks every
/// cell against `observations`, the campaign's own record in that order.
pub fn replay(
    spec: &CampaignSpec,
    inputs: &[TestInput],
    observations: &[(Experiment, Observation)],
    stats: &mut ReplayStats,
) {
    let mut expected = observations.iter();
    for &experiment in &spec.experiments {
        let stack = build_stack(spec);
        for plan in experiment.plans() {
            for &format in &spec.formats {
                for input in inputs {
                    let table = table_name(experiment, plan, format, input);
                    stack.crossing.reset();
                    stack.sink.drain();
                    let write = stats.write(&stack, plan.write, &table, input, format);
                    stack.sink.drain();
                    let read = write.is_ok().then(|| stats.read(&stack, plan.read, &table));
                    stack.sink.drain();
                    if read.as_ref().is_some_and(|r| r.is_ok()) {
                        stats.serde_probe(&stack, &table);
                    }
                    stats.cells += 1;
                    let same = expected.next().is_some_and(|(e, obs)| {
                        *e == experiment
                            && obs.input_id == input.id
                            && format!("{:?}", obs.write.result) == format!("{write:?}")
                            && format!("{:?}", obs.read.as_ref().map(|r| &r.result))
                                == format!("{:?}", read.as_ref())
                    });
                    if !same {
                        stats.mismatches += 1;
                    }
                    if spec.recycle_tables {
                        let _ = stack.spark.sql(&format!("DROP TABLE IF EXISTS {table}"));
                        stack.fs.lock().vacuum();
                        stack.sink.drain();
                    }
                }
            }
        }
    }
    stats.mismatches += expected.count();
}
