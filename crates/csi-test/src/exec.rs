//! The cross-testing executor: Figure 6's deployment and run loop.
//!
//! For every (experiment, plan, format, input) combination the executor
//! creates a one-column table through the *write* interface, inserts the
//! input, reads it back through the *read* interface, and records an
//! [`Observation`]. The write–read and error-handling oracles run per
//! observation; the differential oracle runs per experiment across all of
//! its plans *and* formats, matching the artifact's `ss/sh/hs_difft`
//! structure.

use crate::generator::{TestInput, Validity};
use crate::plan::{Experiment, Interface, TestPlan};
use crate::pool::DeploymentPool;
use csi_core::boundary::CrossingContext;
use csi_core::detect::{BaselineSet, DetectorSpec, OnlineDetector};
use csi_core::diag::DiagSink;
use csi_core::fault::FaultPlan;
use csi_core::oracle::{
    check_error_handling, check_write_read, Observation, OracleFailure, ReadOutcome, WriteOutcome,
};
use csi_core::report::DiscrepancyReport;
use csi_core::sql::quote_string;
use csi_core::value::{format_date, format_timestamp, Value};
use csi_core::InteractionError;
use minihdfs::MiniHdfs;
use minihive::hiveql::HiveQl;
use minihive::metastore::{Metastore, StorageFormat};
use minispark::SparkSession;
use parking_lot::Mutex;
use std::sync::Arc;

/// Configuration of a cross-testing run.
#[derive(Debug, Clone)]
pub struct CrossTestConfig {
    /// Experiments to run.
    pub experiments: Vec<Experiment>,
    /// Backend formats to exercise.
    pub formats: Vec<StorageFormat>,
    /// Spark configuration overrides applied to every deployment
    /// ("testing under the deployment configuration").
    pub spark_overrides: Vec<(String, String)>,
    /// Drop each table right after its observation is recorded, keeping the
    /// metastore and filesystem footprint bounded by one table per worker
    /// instead of one per (plan, format, input) combination.
    pub recycle_tables: bool,
    /// Faults to arm on every deployment's metastore and filesystem.
    /// `None` (and an empty plan) runs fault-free.
    pub fault_plan: Option<FaultPlan>,
    /// Record an [`csi_core::boundary::InteractionTrace`] per observation.
    /// Disabling skips only the trace sink; the fault path is identical
    /// (tracing is side-effect-free, pinned by `tests/trace.rs`).
    pub trace_boundaries: bool,
    /// Run the online detector over every observation's crossing stream.
    /// The spec carries frozen baselines; each deployment builds its own
    /// [`OnlineDetector`] from it, so sharding never shares mutable
    /// detector state. `None` disables detection.
    pub detector: Option<DetectorSpec>,
    /// Acquire deployments from this warm pool instead of building them
    /// fresh. Pooled deployments are reset to construction-identical on
    /// release, so the run is byte-identical either way; `None` (the
    /// one-shot default) builds and drops per run.
    pub pool: Option<Arc<DeploymentPool>>,
}

impl Default for CrossTestConfig {
    fn default() -> CrossTestConfig {
        CrossTestConfig {
            experiments: Experiment::ALL.to_vec(),
            formats: StorageFormat::ALL.to_vec(),
            spark_overrides: Vec::new(),
            recycle_tables: false,
            fault_plan: None,
            trace_boundaries: true,
            detector: None,
            pool: None,
        }
    }
}

impl CrossTestConfig {
    /// The custom (non-default) configuration set that Section 8.2 reports
    /// as resolving 8 of the 15 discrepancies.
    pub fn custom_resolving_overrides() -> Vec<(String, String)> {
        vec![
            (
                minispark::config::STORE_ASSIGNMENT_POLICY.into(),
                "LEGACY".into(),
            ),
            (
                minispark::config::CHAR_VARCHAR_AS_STRING.into(),
                "true".into(),
            ),
            (minispark::config::INTERVAL_AS_STRING.into(), "true".into()),
            (
                minispark::config::DATAFRAME_DATE_RANGE_CHECK.into(),
                "true".into(),
            ),
        ]
    }
}

/// The full result of a run: the deduplicated report plus every raw
/// observation (kept for the classifier and for ablation benches).
#[derive(Debug, Clone)]
pub struct CrossTestOutcome {
    /// The discrepancy report.
    pub report: DiscrepancyReport,
    /// Every observation, tagged with its experiment.
    pub observations: Vec<(Experiment, Observation)>,
}

/// One full Metastore/MiniHdfs/SparkSession/HiveQl stack plus its
/// diagnostics sink. Each worker of the executor in [`crate::shard`] holds
/// one at a time, for the experiment it is serving, so workers never
/// contend on engine state.
pub(crate) struct Deployment {
    pub(crate) sink: DiagSink,
    pub(crate) spark: SparkSession,
    pub(crate) hive: HiveQl,
    /// The crossing context wired into this deployment's metastore and
    /// filesystem: the single choke point where faults are injected and
    /// boundary crossings are traced.
    pub(crate) crossing: CrossingContext,
    /// This deployment's online detector (attached to `crossing` as a
    /// streaming sink), when the campaign runs with detection.
    pub(crate) detector: Option<OnlineDetector>,
    /// The deployment's filesystem, shared with `spark` and `hive` — held
    /// so recycling can vacuum the namenode back to canonical state.
    pub(crate) fs: Arc<Mutex<MiniHdfs>>,
    /// The deployment's metastore, shared with both engines — held so the
    /// pool can reset it wholesale when the deployment is released.
    pub(crate) metastore: Arc<Mutex<Metastore>>,
}

impl Deployment {
    pub(crate) fn new(config: &CrossTestConfig) -> Deployment {
        let crossing = if config.trace_boundaries {
            CrossingContext::new()
        } else {
            CrossingContext::disabled()
        };
        Deployment::with_crossing(config, crossing)
    }

    /// Builds the stack around a caller-supplied crossing context — the
    /// fault-matrix cells use this to pre-arm (or deliberately not arm)
    /// the context before the deployment exists.
    pub(crate) fn with_crossing(config: &CrossTestConfig, crossing: CrossingContext) -> Deployment {
        let sink = DiagSink::new();
        let mut metastore = Metastore::new();
        let mut fs = MiniHdfs::with_datanodes(3);
        if let Some(plan) = &config.fault_plan {
            crossing.arm_plan(plan);
        }
        let detector = config.detector.as_ref().map(DetectorSpec::build);
        if let Some(d) = &detector {
            crossing.set_sink(d.sink());
        }
        metastore.set_crossing(crossing.clone());
        fs.set_crossing(crossing.clone());
        let metastore = Arc::new(Mutex::new(metastore));
        let fs = Arc::new(Mutex::new(fs));
        let mut spark =
            SparkSession::connect(metastore.clone(), fs.clone(), sink.handle("minispark"));
        for (k, v) in &config.spark_overrides {
            spark.config.set(k, v);
        }
        let hive = HiveQl::new(metastore.clone(), fs.clone(), sink.handle("minihive"));
        Deployment {
            sink,
            spark,
            hive,
            crossing,
            detector,
            fs,
            metastore,
        }
    }

    /// Drops `table` (best effort), discards the diagnostics the drop
    /// produced, and vacuums the namenode so recycling never leaks into the
    /// next observation.
    ///
    /// The vacuum is what keeps pooled deployments byte-identical with
    /// fresh ones: it rebuilds the interner and inode arena as a pure
    /// function of the surviving namespace, erasing any layout residue the
    /// recycled experiment left behind. Without it, a pool worker's
    /// interner would depend on which experiments it happened to serve —
    /// harmless today (nothing observable derives from symbol values), but
    /// the invariant is cheap to enforce and easy to lose silently.
    pub(crate) fn recycle(&self, table: &str) {
        let _ = self.spark.sql(&format!("DROP TABLE IF EXISTS {table}"));
        self.fs.lock().vacuum();
        self.sink.drain();
    }
}

/// Renders a harness value as a SQL literal understood by both SQL
/// dialects.
pub fn render_literal(value: &Value) -> String {
    match value {
        Value::Null => "NULL".into(),
        Value::Boolean(b) => if *b { "TRUE" } else { "FALSE" }.into(),
        Value::Byte(v) if *v == i8::MIN => format!("CAST('{v}' AS TINYINT)"),
        Value::Byte(v) => format!("{v}Y"),
        Value::Short(v) if *v == i16::MIN => format!("CAST('{v}' AS SMALLINT)"),
        Value::Short(v) => format!("{v}S"),
        Value::Int(v) if *v == i32::MIN => format!("CAST('{v}' AS INT)"),
        Value::Int(v) => format!("{v}"),
        Value::Long(v) if *v == i64::MIN => format!("CAST('{v}' AS BIGINT)"),
        Value::Long(v) => format!("{v}L"),
        Value::Float(v) => format!("CAST('{v}' AS FLOAT)"),
        Value::Double(v) => format!("CAST('{v}' AS DOUBLE)"),
        Value::Decimal(d) => format!("{d}BD"),
        Value::Str(s) => quote_string(s),
        Value::Binary(b) => {
            let hex: String = b.iter().map(|x| format!("{x:02X}")).collect();
            format!("X'{hex}'")
        }
        Value::Date(d) => format!("DATE {}", quote_string(&format_date(*d))),
        Value::Timestamp(us) => format!("TIMESTAMP {}", quote_string(&format_timestamp(*us))),
        Value::Interval { months, micros } => {
            // Render at full precision: months plus a day-time decomposition
            // whose components all carry the day-time sign, with sub-second
            // micros as a fractional SECOND magnitude (quoted, since the
            // grammar takes string magnitudes). `i128` keeps `i64::MIN` safe.
            let mut terms = Vec::new();
            if *months != 0 {
                terms.push(format!("{months} MONTH"));
            }
            let mut rest = i128::from(*micros);
            for (per, unit) in [
                (86_400_000_000i128, "DAY"),
                (3_600_000_000, "HOUR"),
                (60_000_000, "MINUTE"),
            ] {
                let n = rest / per;
                rest %= per;
                if n != 0 {
                    terms.push(format!("{n} {unit}"));
                }
            }
            if rest % 1_000_000 == 0 {
                if rest != 0 {
                    terms.push(format!("{} SECOND", rest / 1_000_000));
                }
            } else {
                let sign = if rest < 0 { "-" } else { "" };
                let abs = rest.unsigned_abs();
                let frac = format!("{:06}", abs % 1_000_000);
                terms.push(format!(
                    "'{sign}{}.{}' SECOND",
                    abs / 1_000_000,
                    frac.trim_end_matches('0')
                ));
            }
            if terms.is_empty() {
                terms.push("0 SECOND".to_string());
            }
            format!("INTERVAL {}", terms.join(" "))
        }
        Value::Array(items) => {
            let inner: Vec<String> = items.iter().map(render_literal).collect();
            format!("ARRAY({})", inner.join(", "))
        }
        Value::Map(pairs) => {
            let inner: Vec<String> = pairs
                .iter()
                .flat_map(|(k, v)| [render_literal(k), render_literal(v)])
                .collect();
            format!("MAP({})", inner.join(", "))
        }
        Value::Struct(fields) => {
            let inner: Vec<String> = fields
                .iter()
                .flat_map(|(n, v)| [quote_string(n), render_literal(v)])
                .collect();
            format!("NAMED_STRUCT({})", inner.join(", "))
        }
    }
}

/// The table-creation half of a write. Split from [`insert_via`] so the
/// multi-job interleaver ([`crate::multi`]) can schedule the two halves as
/// separate turns; `write_via` composes them back for the serial path.
pub(crate) fn create_via(
    d: &Deployment,
    interface: Interface,
    table: &str,
    input: &TestInput,
    format: StorageFormat,
) -> Result<(), InteractionError> {
    match interface {
        Interface::SparkSql | Interface::HiveQl => {
            let create = format!(
                "CREATE TABLE {table} (c {}) STORED AS {}",
                input.column_type.sql_name(),
                format.name()
            );
            match interface {
                Interface::SparkSql => d
                    .spark
                    .sql(&create)
                    .map(|_| ())
                    .map_err(InteractionError::from),
                _ => d
                    .hive
                    .execute(&create)
                    .map(|_| ())
                    .map_err(InteractionError::from),
            }
        }
        Interface::DataFrame => {
            let schema = vec![csi_core::value::StructField::new(
                "c",
                input.column_type.clone(),
            )];
            d.spark
                .dataframe()
                .create_table(table, &schema, format)
                .map_err(InteractionError::from)
        }
    }
}

/// The row-insertion half of a write; see [`create_via`].
pub(crate) fn insert_via(
    d: &Deployment,
    interface: Interface,
    table: &str,
    input: &TestInput,
) -> Result<(), InteractionError> {
    match interface {
        Interface::SparkSql | Interface::HiveQl => {
            let insert = format!(
                "INSERT INTO {table} VALUES ({})",
                render_literal(&input.value)
            );
            match interface {
                Interface::SparkSql => d
                    .spark
                    .sql(&insert)
                    .map(|_| ())
                    .map_err(InteractionError::from),
                _ => d
                    .hive
                    .execute(&insert)
                    .map(|_| ())
                    .map_err(InteractionError::from),
            }
        }
        Interface::DataFrame => d
            .spark
            .dataframe()
            .insert_into(table, &[vec![input.value.clone()]])
            .map_err(InteractionError::from),
    }
}

fn write_via(
    d: &Deployment,
    interface: Interface,
    table: &str,
    input: &TestInput,
    format: StorageFormat,
) -> Result<(), InteractionError> {
    create_via(d, interface, table, input, format)?;
    insert_via(d, interface, table, input)
}

pub(crate) fn read_via(
    d: &Deployment,
    interface: Interface,
    table: &str,
) -> Result<Vec<Value>, InteractionError> {
    let rows = match interface {
        Interface::SparkSql => {
            d.spark
                .sql(&format!("SELECT * FROM {table}"))
                .map_err(InteractionError::from)?
                .rows
        }
        Interface::DataFrame => {
            d.spark
                .dataframe()
                .read_table(table)
                .map_err(InteractionError::from)?
                .1
        }
        Interface::HiveQl => {
            d.hive
                .execute(&format!("SELECT * FROM {table}"))
                .map_err(InteractionError::from)?
                .rows
        }
    };
    first_column(rows)
}

/// Extracts the single projected column from a row set.
///
/// An empty row is a malformed engine response — under injection a garbled
/// data file can decode to anything — so it surfaces as a typed crash
/// instead of the `remove(0)` panic this helper replaces.
pub(crate) fn first_column(rows: Vec<Vec<Value>>) -> Result<Vec<Value>, InteractionError> {
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

/// The scenario key detector baselines are learned and matched under:
/// one key per (experiment, plan, format, input) combination, identical
/// between the calibration run and the real run.
pub(crate) fn scenario_key(
    experiment: Experiment,
    plan: TestPlan,
    format: StorageFormat,
    input_id: usize,
) -> String {
    format!(
        "{}:{}:{}:{}",
        experiment.short(),
        plan,
        format.name(),
        input_id
    )
}

pub(crate) fn run_one(
    d: &Deployment,
    experiment: Experiment,
    plan: TestPlan,
    format: StorageFormat,
    input: &TestInput,
    recycle: bool,
) -> Observation {
    let table = format!(
        "t_{}_{}_{}_{}",
        experiment.short(),
        format!("{plan}")
            .replace(['-', '>'], "")
            .to_ascii_lowercase(),
        format.extension(),
        input.id
    );
    // Scope call-counted triggers, the fired log, the virtual clock, and
    // the trace sink to this observation, regardless of which worker ran
    // the previous one — the property that keeps campaigns byte-identical
    // across worker counts.
    d.crossing.reset();
    d.sink.drain();
    if let Some(det) = &d.detector {
        det.begin(&scenario_key(experiment, plan, format, input.id));
    }
    let write_result = write_via(d, plan.write, &table, input, format);
    let write = WriteOutcome {
        result: write_result,
        diagnostics: d.sink.drain(),
    };
    let read = if write.result.is_ok() {
        let result = read_via(d, plan.read, &table);
        Some(ReadOutcome {
            result,
            diagnostics: d.sink.drain(),
        })
    } else {
        None
    };
    let detections = match &d.detector {
        Some(det) => {
            // The caller-visible error, exactly as the offline oracle
            // sees it: the write error, else the read error.
            let surfaced = match (&write.result, read.as_ref().map(|r| &r.result)) {
                (Err(e), _) => Some(e.clone()),
                (Ok(()), Some(Err(e))) => Some(e.clone()),
                _ => None,
            };
            det.finish(surfaced.as_ref())
        }
        None => Vec::new(),
    };
    let obs = Observation {
        input_id: input.id,
        plan: format!("{}:{}", experiment.short(), plan),
        format: format.name().to_string(),
        write,
        read,
        trace: d.crossing.trace(),
        detections,
    };
    if recycle {
        // Recycling crosses the boundary too (DROP TABLE), but the
        // detector is already finished: those crossings are ignored.
        d.recycle(&table);
    }
    obs
}

/// The error that surfaced to the caller of an observation, exactly as
/// the §9 oracle and the online detector define it: the write error,
/// else the read error, else nothing.
pub(crate) fn surfaced_error(obs: &Observation) -> Option<InteractionError> {
    if let Err(e) = &obs.write.result {
        return Some(e.clone());
    }
    if let Some(read) = &obs.read {
        if let Err(e) = &read.result {
            return Some(e.clone());
        }
    }
    None
}

/// Runs the per-observation oracle for `input`: write–read for valid
/// inputs, error-handling for invalid ones. Shared between the
/// executor's merge and the serial reference so both evaluate
/// observations identically.
pub(crate) fn check_observation(input: &TestInput, obs: &Observation) -> Option<OracleFailure> {
    match input.validity {
        Validity::Valid => check_write_read(input.expected(), obs),
        Validity::Invalid => check_error_handling(&input.value, obs),
    }
}

/// Obtains a deployment for `config`: from its warm pool when one is
/// attached, built fresh otherwise. Every deployment the executors use
/// goes through here so pooled and unpooled campaigns share one code
/// path.
pub(crate) fn acquire_deployment(config: &CrossTestConfig) -> Deployment {
    match &config.pool {
        Some(pool) => pool.acquire(config),
        None => Deployment::new(config),
    }
}

/// Returns a deployment obtained from [`acquire_deployment`]: back to the
/// pool (reset to fresh) when one is attached, dropped otherwise.
pub(crate) fn release_deployment(config: &CrossTestConfig, deployment: Deployment) {
    if let Some(pool) = &config.pool {
        pool.release(config, deployment);
    }
}

/// The serial reference the executor's tests compare against: Figure 6's
/// nested loop, one deployment per experiment, oracles inline. Campaigns
/// run through [`crate::shard::run_cross_test`], which must reproduce
/// this loop's outcome at every worker count.
#[cfg(test)]
pub(crate) fn run_cross_test_serial(
    inputs: &[TestInput],
    config: &CrossTestConfig,
) -> CrossTestOutcome {
    let mut observations: Vec<(Experiment, Observation)> = Vec::new();
    let mut failures: Vec<OracleFailure> = Vec::new();
    for &experiment in &config.experiments {
        let deployment = acquire_deployment(config);
        let mut exp_observations: Vec<Observation> = Vec::new();
        for plan in experiment.plans() {
            for &format in &config.formats {
                for input in inputs {
                    let obs = run_one(
                        &deployment,
                        experiment,
                        plan,
                        format,
                        input,
                        config.recycle_tables,
                    );
                    if let Some(f) = check_observation(input, &obs) {
                        failures.push(f);
                    }
                    exp_observations.push(obs);
                }
            }
        }
        failures.extend(csi_core::oracle::check_differential(&exp_observations));
        observations.extend(exp_observations.into_iter().map(|o| (experiment, o)));
        release_deployment(config, deployment);
    }
    let report =
        crate::classify::classify(inputs, &observations, failures, config.detector.is_some());
    CrossTestOutcome {
        report,
        observations,
    }
}

/// Learns per-scenario detector baselines from a finished campaign's
/// observations: one profile per (experiment, plan, format, input) key.
/// Learning is keyed, each key occurs once per campaign, so the result is
/// independent of worker interleaving — the property that lets a sharded
/// calibration run feed a sharded detection run and still produce
/// byte-identical output to serial.
pub(crate) fn learn_baselines(observations: &[(Experiment, Observation)]) -> BaselineSet {
    let mut baselines = BaselineSet::default();
    for (_, obs) in observations {
        // obs.plan is already "{experiment.short()}:{plan}", so this key
        // matches what `run_one` passes to `OnlineDetector::begin`.
        let key = format!("{}:{}:{}", obs.plan, obs.format, obs.input_id);
        baselines.learn(&key, &obs.trace);
    }
    baselines
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::Campaign;
    use crate::generator::generate_inputs;
    use csi_core::value::{DataType, Decimal};

    fn one_input(column_type: DataType, value: Value, validity: Validity) -> Vec<TestInput> {
        vec![TestInput {
            id: 0,
            column_type,
            value,
            validity,
            label: "test".into(),
            expected_back: None,
        }]
    }

    #[test]
    fn literal_rendering_round_trips_through_both_dialects() {
        let cases = [
            Value::Int(42),
            Value::Byte(i8::MIN),
            Value::Long(i64::MIN),
            Value::Str("it's".into()),
            Value::Decimal(Decimal::parse("-1.50").unwrap()),
            Value::Binary(vec![0xCA, 0xFE]),
            Value::Date(0),
            Value::Interval {
                months: -3,
                micros: 0,
            },
        ];
        for v in cases {
            let lit = render_literal(&v);
            let stmt = format!("INSERT INTO t VALUES ({lit})");
            assert!(
                csi_core::sql::parse(&stmt).is_ok(),
                "literal {lit} does not parse"
            );
        }
    }

    #[test]
    fn render_literal_preserves_full_interval_precision() {
        use csi_core::sql::{eval_interval_parts, Expr, Statement};
        let cases = [
            (0, 0),
            (3, 0),
            (0, 604_800_000_000), // 7 days
            (0, 1_500_000),       // 1.5 s: sub-second fraction
            (0, -500_000),        // -0.5 s: negative pure fraction
            (2, 90_061_000_001),  // mixed: months AND day-time
            (-3, -3_600_000_000), // negative mixed
            (1, -1),              // months with -1 µs
            (0, i64::MIN + 1),
            (0, i64::MAX),
        ];
        for (months, micros) in cases {
            let v = Value::Interval { months, micros };
            let lit = render_literal(&v);
            let stmt = format!("INSERT INTO t VALUES ({lit})");
            let parsed = csi_core::sql::parse(&stmt)
                .unwrap_or_else(|e| panic!("literal {lit} does not parse: {e:?}"));
            let Statement::Insert { rows, .. } = parsed else {
                panic!("not an insert: {lit}");
            };
            let Expr::IntervalLit { parts } = &rows[0][0] else {
                panic!("not an interval literal: {lit}");
            };
            assert_eq!(
                eval_interval_parts(parts),
                Ok((months, micros)),
                "literal {lit} lost precision"
            );
        }
    }

    #[test]
    fn first_column_rejects_empty_rows_instead_of_panicking() {
        // Regression: `read_via` used to `remove(0)` unconditionally; a
        // zero-column row (possible from a garbled data file under
        // injection) was a panic, not an error.
        let ok = first_column(vec![vec![Value::Int(1)], vec![Value::Int(2)]]).unwrap();
        assert_eq!(ok, vec![Value::Int(1), Value::Int(2)]);
        let err = first_column(vec![vec![Value::Int(1)], vec![]]).unwrap_err();
        assert_eq!(err.kind, csi_core::ErrorKind::Crash);
        assert_eq!(err.code, "EMPTY_ROW");
    }

    #[test]
    fn pooled_run_is_byte_identical_to_fresh() {
        let inputs = one_input(DataType::Byte, Value::Byte(5), Validity::Valid);
        let fresh = run_cross_test_serial(&inputs, &CrossTestConfig::default());
        let pool = Arc::new(DeploymentPool::new());
        let pooled_config = CrossTestConfig {
            pool: Some(pool.clone()),
            ..CrossTestConfig::default()
        };
        // Two back-to-back runs: the second consumes deployments the first
        // released, so reuse (not just construction) is what's pinned.
        for round in 0..2 {
            let (pooled, _) = crate::shard::run_cross_test(&inputs, &pooled_config, 1, 64);
            assert_eq!(
                serde_json::to_string(&pooled.report).unwrap(),
                serde_json::to_string(&fresh.report).unwrap(),
                "pooled round {round} diverged from the fresh run"
            );
        }
        // One worker releases each experiment's deployment before
        // acquiring the next, so one build serves all six acquires.
        let stats = pool.stats();
        assert_eq!(stats.created, 1);
        assert_eq!(stats.reused, 5);
    }

    #[test]
    fn happy_path_int_is_clean_everywhere() {
        let inputs = one_input(DataType::Int, Value::Int(7), Validity::Valid);
        let outcome = Campaign::new(&inputs).run();
        assert!(
            outcome.report.raw_failures.is_empty(),
            "unexpected failures: {:#?}",
            outcome.report.raw_failures
        );
        // 3 experiments x plans x 3 formats observations.
        assert_eq!(outcome.observations.len(), (4 + 2 + 2) * 3);
    }

    #[test]
    fn byte_input_reveals_d01_and_d03() {
        let inputs = one_input(DataType::Byte, Value::Byte(5), Validity::Valid);
        let outcome = Campaign::new(&inputs).run();
        let ids: Vec<&str> = outcome
            .report
            .discrepancies
            .iter()
            .map(|d| d.id.as_str())
            .collect();
        assert!(ids.contains(&"D01"), "found {ids:?}");
        assert!(ids.contains(&"D03"), "found {ids:?}");
        assert!(outcome.report.unattributed.is_empty());
    }

    #[test]
    fn full_catalogue_runs_clean_of_unattributed_failures() {
        let inputs = generate_inputs();
        let outcome = Campaign::new(&inputs).run();
        assert!(
            outcome.report.unattributed.is_empty(),
            "unattributed: {:#?}",
            outcome
                .report
                .unattributed
                .iter()
                .take(5)
                .collect::<Vec<_>>()
        );
        assert_eq!(outcome.report.distinct(), 15);
    }
}
