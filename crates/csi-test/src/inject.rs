//! The fault-matrix campaign: deterministic boundary-fault injection
//! crossed with the cross-testing space.
//!
//! Every fault of a [`FaultPlan`] is exercised against the scenarios that
//! exist for its channel — metastore and HDFS faults against the full
//! (experiment × plan × format) probe cross of the campaign executor,
//! Kafka faults against the broker API directly and through Spark's Kafka
//! connector, YARN faults against the Flink driver loop (FLINK-12342's
//! home) and Spark's cluster-metrics connector, HBase faults against the
//! location-caching key-value client under both retry policies
//! (HBASE-16621's home) — and the caller-visible
//! result of each cell is classified with
//! [`classify_fault_outcome`] into the paper's error-handling taxonomy:
//! swallowed, mistranslated, propagated-with-context, or crash.
//!
//! Cells are hermetic (each builds its own deployment, broker, or RM and
//! its own injection registry), so the sharded runner behind
//! [`crate::Campaign::shards`] trivially reproduces the serial report
//! byte-for-byte at any worker count.

use crate::exec::{self, run_one, CrossTestConfig, Deployment};
use crate::generator::{TestInput, Validity};
use crate::plan::{Experiment, TestPlan};
use crate::shard::ordered_map;
use csi_core::boundary::{CrossingContext, InteractionTrace};
use csi_core::detect::{
    flags_error_handling, BaselineSet, Detection, DetectionTap, DetectorAgreement, DetectorConfig,
    DetectorSpec,
};
use csi_core::fault::{
    classify_fault_outcome, Channel, FaultKind, FaultOutcome, FaultPlan, FaultSpec, InjectedFault,
    Trigger,
};
use csi_core::report::FaultCellRow;
use csi_core::rng::xorshift64;
use csi_core::value::{DataType, Value};
use csi_core::InteractionError;
use miniflink::yarn_driver::{run_driver_traced, DriverMode, DriverRun};
use minihbase::{ClusterState, HBaseClient, RetryPolicy, ServerId};
use minihive::metastore::StorageFormat;
use minikafka::{KafkaError, MiniKafka, PartitionId};
use minispark::connectors::kafka::{consume_range, plan_range, OffsetModel};
use miniyarn::{Resource, ResourceManager};
use serde::Serialize;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Arc;

const KAFKA_TOPIC: &str = "t";
const P0: PartitionId = PartitionId(0);

fn spec(id: &str, channel: Channel, op: &str, kind: FaultKind, trigger: Trigger) -> FaultSpec {
    FaultSpec {
        id: id.to_string(),
        channel,
        op: op.to_string(),
        kind,
        trigger,
    }
}

/// The standard boundary-fault catalogue: at least one fault per
/// interaction channel, with timeout and latency magnitudes derived
/// deterministically from `seed`.
pub fn fault_catalogue(seed: u64) -> FaultPlan {
    let mut s = seed ^ 0x9E37_79B9_7F4A_7C15;
    let ms_timeout = 10_000 + xorshift64(&mut s) % 20_000;
    let hdfs_timeout = 5_000 + xorshift64(&mut s) % 10_000;
    let kafka_timeout = 30_000 + xorshift64(&mut s) % 30_000;
    // FLINK-12342 regime: injected allocation latency must exceed the
    // driver's 500 ms heartbeat interval.
    let yarn_latency = 600 + xorshift64(&mut s) % 400;
    FaultPlan {
        seed,
        faults: vec![
            spec(
                "ms-unavail-get",
                Channel::Metastore,
                "get_table",
                FaultKind::Unavailable,
                Trigger::Always,
            ),
            spec(
                "ms-timeout-create",
                Channel::Metastore,
                "create_table",
                FaultKind::Timeout { ms: ms_timeout },
                Trigger::Always,
            ),
            spec(
                "ms-corrupt-get",
                Channel::Metastore,
                "get_table",
                FaultKind::CorruptPayload,
                Trigger::OnCall(0),
            ),
            spec(
                "hdfs-unavail-create",
                Channel::Hdfs,
                "create",
                FaultKind::Unavailable,
                Trigger::Always,
            ),
            spec(
                "hdfs-timeout-read",
                Channel::Hdfs,
                "read",
                FaultKind::Timeout { ms: hdfs_timeout },
                Trigger::Always,
            ),
            spec(
                "hdfs-corrupt-read",
                Channel::Hdfs,
                "read",
                FaultKind::CorruptPayload,
                Trigger::OnCall(0),
            ),
            spec(
                "kafka-unavail-fetch",
                Channel::Kafka,
                "fetch",
                FaultKind::Unavailable,
                Trigger::Always,
            ),
            spec(
                "kafka-timeout-ends",
                Channel::Kafka,
                "log_end_offset",
                FaultKind::Timeout { ms: kafka_timeout },
                Trigger::Always,
            ),
            spec(
                "kafka-corrupt-fetch",
                Channel::Kafka,
                "fetch",
                FaultKind::CorruptPayload,
                Trigger::OnCall(0),
            ),
            spec(
                "kafka-unavail-produce",
                Channel::Kafka,
                "produce",
                FaultKind::Unavailable,
                Trigger::Always,
            ),
            spec(
                "yarn-latency-alloc",
                Channel::Yarn,
                "allocate",
                FaultKind::Latency { ms: yarn_latency },
                Trigger::Always,
            ),
            spec(
                "yarn-unavail-alloc",
                Channel::Yarn,
                "allocate",
                FaultKind::Unavailable,
                Trigger::Always,
            ),
            spec(
                "yarn-unavail-metrics",
                Channel::Yarn,
                "get_cluster_metrics",
                FaultKind::Unavailable,
                Trigger::Always,
            ),
            spec(
                "yarn-swallow-ask",
                Channel::Yarn,
                "add_container_request",
                FaultKind::Unavailable,
                Trigger::Always,
            ),
            spec(
                "hbase-unavail-route",
                Channel::HBase,
                "route",
                FaultKind::Unavailable,
                Trigger::Always,
            ),
            // HBASE-16621's shape: the first location lookup is poisoned,
            // so the cached entry points at a server that never served the
            // region; whether that surfaces depends on the retry policy.
            spec(
                "hbase-stale-locate",
                Channel::HBase,
                "locate",
                FaultKind::CorruptPayload,
                Trigger::OnCall(0),
            ),
        ],
    }
}

/// A small smoke-test subset of [`fault_catalogue`]: one cheap fault per
/// channel, for CI and property tests.
pub fn small_fault_catalogue(seed: u64) -> FaultPlan {
    let full = fault_catalogue(seed);
    let keep = [
        "ms-unavail-get",
        "hdfs-corrupt-read",
        "kafka-unavail-fetch",
        "yarn-unavail-alloc",
        "hbase-unavail-route",
    ];
    FaultPlan {
        seed,
        faults: full
            .faults
            .into_iter()
            .filter(|f| keep.contains(&f.id.as_str()))
            .collect(),
    }
}

/// Configuration of a fault-matrix campaign.
#[derive(Debug, Clone)]
pub struct FaultMatrixConfig {
    /// Seed recorded in the report (and used to derive the catalogue when
    /// built through [`FaultMatrixConfig::smoke`]).
    pub seed: u64,
    /// Experiments whose (plan × format) cross probes metastore and HDFS
    /// faults.
    pub experiments: Vec<Experiment>,
    /// Storage formats of the probe cross.
    pub formats: Vec<StorageFormat>,
    /// The faults to exercise, in catalogue order.
    pub faults: FaultPlan,
    /// Run the online detector over every cell. Each cell self-calibrates:
    /// a fault-free run of the same scenario first learns its baseline
    /// crossing profile, then the armed run streams through a fresh
    /// [`OnlineDetector`] built on that frozen baseline. `None` disables
    /// detection (and keeps the legacy report output byte-identical).
    pub detect: Option<DetectorConfig>,
    /// Streaming observer invoked on every detection the instant a cell's
    /// detector emits it, before the report exists — how `csi-serve`
    /// forwards matrix detections to tenants incrementally. Taps only
    /// observe, so a tapped matrix stays byte-identical to an untapped
    /// one. Ignored unless `detect` is set.
    pub tap: Option<DetectionTap>,
}

impl FaultMatrixConfig {
    /// The smoke campaign: the small catalogue against one experiment and
    /// one format, cheap enough for CI and property tests.
    pub fn smoke(seed: u64) -> FaultMatrixConfig {
        FaultMatrixConfig {
            seed,
            experiments: vec![Experiment::ALL[0]],
            formats: vec![StorageFormat::Orc],
            faults: small_fault_catalogue(seed),
            detect: None,
            tap: None,
        }
    }
}

/// One cell of the fault matrix: a fault crossed with a scenario.
#[derive(Debug, Clone, Serialize)]
pub struct FaultCase {
    /// The fault under test.
    pub fault: FaultSpec,
    /// The scenario the fault was exercised against (e.g.
    /// `"sh:spark-sql->hiveql:ORC"` or `"yarn:flink-driver"`).
    pub scenario: String,
    /// The faults that actually fired during the cell.
    pub fired: Vec<InjectedFault>,
    /// The error the caller saw, if any.
    pub surfaced: Option<InteractionError>,
    /// Taxonomy bucket; `None` when the fault never fired in this cell.
    pub outcome: Option<FaultOutcome>,
    /// Deterministic human-readable cell summary.
    pub detail: String,
    /// The boundary-crossing sequence recorded while the cell ran.
    pub trace: InteractionTrace,
    /// Online detections the cell produced (empty when detection is off).
    pub detections: Vec<Detection>,
}

/// The full fault-matrix report.
#[derive(Debug, Clone, Serialize)]
pub struct FaultMatrixReport {
    /// The campaign seed.
    pub seed: u64,
    /// Whether the online detector ran over the cells.
    pub detector_enabled: bool,
    /// Every cell, in canonical (catalogue × scenario) order.
    pub cases: Vec<FaultCase>,
    /// Cell count per taxonomy bucket (key `"unfired"` counts cells whose
    /// fault never fired).
    pub outcomes: BTreeMap<String, usize>,
    /// Detection count per [`csi_core::detect::DetectionKind`].
    pub detection_kinds: BTreeMap<String, usize>,
    /// Detection count per channel involved.
    pub detection_totals: BTreeMap<String, usize>,
    /// Online-vs-offline agreement over fired cells; `None` when detection
    /// is off or no cell fired.
    pub agreement: Option<DetectorAgreement>,
}

impl FaultMatrixReport {
    /// Renders the report as stable, diff-friendly text. With detection
    /// off, the output is byte-identical to the pre-detector format.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "== fault matrix (seed {}) == {} cells",
            self.seed,
            self.cases.len()
        );
        for (bucket, n) in &self.outcomes {
            let _ = writeln!(out, "  {bucket}: {n}");
        }
        if self.detector_enabled {
            for (kind, n) in &self.detection_kinds {
                let _ = writeln!(out, "  detect[{kind}]: {n}");
            }
            if let Some(a) = &self.agreement {
                let _ = writeln!(
                    out,
                    "  detector vs oracle: precision {:.3}, recall {:.3} \
                     (tp {} fp {} fn {} tn {})",
                    a.precision(),
                    a.recall(),
                    a.true_positives,
                    a.false_positives,
                    a.false_negatives,
                    a.true_negatives
                );
            }
        }
        for case in &self.cases {
            let outcome = match &case.outcome {
                Some(o) => o.to_string(),
                None => "unfired".to_string(),
            };
            let surfaced = match &case.surfaced {
                Some(e) => e.signature(),
                None => "-".to_string(),
            };
            let _ = write!(
                out,
                "{} | {} | {} | {} | {}",
                case.fault.id, case.scenario, outcome, surfaced, case.detail
            );
            if self.detector_enabled {
                let _ = write!(out, " | {} detections", case.detections.len());
            }
            let _ = writeln!(out);
        }
        out
    }

    /// The cells as [`FaultCellRow`]s, for the unified
    /// [`csi_core::report::Render`] path.
    pub fn fault_cell_rows(&self) -> Vec<FaultCellRow> {
        self.cases
            .iter()
            .map(|case| FaultCellRow {
                fault_id: case.fault.id.clone(),
                scenario: case.scenario.clone(),
                outcome: case
                    .outcome
                    .as_ref()
                    .map_or_else(|| "unfired".to_string(), |o| o.to_string()),
                detections: case.detections.len(),
                detail: case.detail.clone(),
            })
            .collect()
    }
}

/// A unit of fault-matrix work. Cells are hermetic: running one never
/// observes state from another, which is what makes the sharded runner's
/// merge-by-index byte-identical to serial execution.
#[derive(Debug, Clone)]
enum Cell {
    /// One (experiment, plan, format) probe observation under a single
    /// armed fault.
    Probe {
        fault: FaultSpec,
        experiment: Experiment,
        plan: TestPlan,
        format: StorageFormat,
    },
    /// Direct broker API calls (produce, log_end_offset, fetch).
    KafkaDirect { fault: FaultSpec },
    /// Spark's Kafka source connector (plan + consume).
    KafkaConnector { fault: FaultSpec },
    /// The Flink YARN driver heartbeat loop.
    YarnDriver { fault: FaultSpec },
    /// Spark's YARN cluster-metrics connector.
    YarnMetrics { fault: FaultSpec },
    /// The HBase location-caching client under one retry policy.
    HBaseRoute {
        fault: FaultSpec,
        policy: RetryPolicy,
    },
}

fn enumerate_cells(config: &FaultMatrixConfig) -> Vec<Cell> {
    let mut cells = Vec::new();
    for fault in &config.faults.faults {
        match fault.channel {
            Channel::Metastore | Channel::Hdfs => {
                for &experiment in &config.experiments {
                    for plan in experiment.plans() {
                        for &format in &config.formats {
                            cells.push(Cell::Probe {
                                fault: fault.clone(),
                                experiment,
                                plan,
                                format,
                            });
                        }
                    }
                }
            }
            Channel::Kafka => {
                cells.push(Cell::KafkaDirect {
                    fault: fault.clone(),
                });
                // Produce faults have no path through the (read-side)
                // Spark connector.
                if fault.op != "produce" {
                    cells.push(Cell::KafkaConnector {
                        fault: fault.clone(),
                    });
                }
            }
            Channel::Yarn => {
                if fault.op == "get_cluster_metrics" {
                    cells.push(Cell::YarnMetrics {
                        fault: fault.clone(),
                    });
                } else {
                    cells.push(Cell::YarnDriver {
                        fault: fault.clone(),
                    });
                }
            }
            Channel::HBase => {
                for policy in [RetryPolicy::TrustCache, RetryPolicy::RefreshAndRetry] {
                    cells.push(Cell::HBaseRoute {
                        fault: fault.clone(),
                        policy,
                    });
                }
            }
        }
    }
    cells
}

pub(crate) fn probe_input() -> TestInput {
    TestInput {
        id: 0,
        column_type: DataType::Int,
        value: Value::Int(7),
        validity: Validity::Valid,
        label: "fault probe".into(),
        expected_back: None,
    }
}

fn finish(
    fault: &FaultSpec,
    scenario: String,
    fired: Vec<InjectedFault>,
    surfaced: Option<InteractionError>,
    detail: String,
    trace: InteractionTrace,
    detections: Vec<Detection>,
) -> FaultCase {
    let outcome = if fired.is_empty() {
        None
    } else {
        Some(classify_fault_outcome(&fired, surfaced.as_ref()))
    };
    FaultCase {
        fault: fault.clone(),
        scenario,
        fired,
        surfaced,
        outcome,
        detail,
        trace,
        detections,
    }
}

/// The detection half of a [`FaultMatrixConfig`], borrowed per cell:
/// thresholds plus the optional streaming tap.
#[derive(Clone, Copy)]
struct CellDetect<'a> {
    config: &'a DetectorConfig,
    tap: Option<&'a DetectionTap>,
}

/// Runs one hermetic cell body, optionally under the online detector.
///
/// With detection on, the cell self-calibrates: the body first runs
/// against a fresh, unarmed context to learn the scenario's baseline
/// crossing profile, then runs again against an armed context with a
/// fresh [`csi_core::detect::OnlineDetector`] (frozen on that baseline)
/// attached as the streaming sink. Both runs build their own substrate
/// state inside `body`, so calibration can never leak into detection —
/// the property that keeps sharded matrices byte-identical to serial
/// ones.
fn run_cell_body<F>(
    fault: &FaultSpec,
    scenario: String,
    detect: Option<CellDetect<'_>>,
    body: F,
) -> FaultCase
where
    F: Fn(&CrossingContext) -> (Option<InteractionError>, String),
{
    let detector = detect.map(|d| {
        let calibration = CrossingContext::new();
        let _ = body(&calibration);
        let mut baselines = BaselineSet::default();
        baselines.learn(&scenario, &calibration.trace());
        DetectorSpec {
            config: *d.config,
            baselines: Arc::new(baselines),
            tap: d.tap.cloned(),
        }
        .build()
    });
    let ctx = CrossingContext::new();
    ctx.arm(fault.clone());
    if let Some(det) = &detector {
        ctx.set_sink(det.sink());
        det.begin(&scenario);
    }
    let (surfaced, detail) = body(&ctx);
    let detections = match &detector {
        Some(det) => det.finish(surfaced.as_ref()),
        None => Vec::new(),
    };
    finish(
        fault,
        scenario,
        ctx.fired(),
        surfaced,
        detail,
        ctx.trace(),
        detections,
    )
}

fn run_probe_cell(
    fault: &FaultSpec,
    experiment: Experiment,
    plan: TestPlan,
    format: StorageFormat,
    detect: Option<CellDetect<'_>>,
) -> FaultCase {
    let scenario = format!("{}:{}:{}", experiment.short(), plan, format.name());
    run_cell_body(fault, scenario, detect, |ctx| {
        let config = CrossTestConfig {
            experiments: vec![experiment],
            formats: vec![format],
            ..CrossTestConfig::default()
        };
        // The fault (when armed) already lives on `ctx`; the deployment
        // just wraps the stack around it.
        let deployment = Deployment::with_crossing(&config, ctx.clone());
        let obs = run_one(&deployment, experiment, plan, format, &probe_input(), false);
        let detail = match (&obs.write.result, obs.read.as_ref().map(|r| &r.result)) {
            (Err(e), _) => format!("write failed: {}", e.signature()),
            (Ok(()), Some(Err(e))) => format!("read failed: {}", e.signature()),
            (Ok(()), Some(Ok(rows))) => format!("write+read ok ({} rows)", rows.len()),
            (Ok(()), None) => "write ok; read skipped".to_string(),
        };
        (exec::surfaced_error(&obs), detail)
    })
}

/// A broker with 5 seeded records on `t`-0 wired to `ctx`, counters and
/// trace scoped to the scenario about to run.
fn seeded_broker(ctx: &CrossingContext) -> MiniKafka {
    let mut broker = MiniKafka::new();
    broker.create_topic(KAFKA_TOPIC, 1);
    for i in 0..5u8 {
        broker
            .produce(KAFKA_TOPIC, P0, Some(&[i]), Some(&[i]), u64::from(i))
            .expect("seeding an injection-free broker");
    }
    broker.set_crossing(ctx.clone());
    ctx.reset();
    broker
}

fn run_kafka_direct_cell(fault: &FaultSpec, detect: Option<CellDetect<'_>>) -> FaultCase {
    run_cell_body(fault, "kafka:direct".to_string(), detect, |ctx| {
        let mut broker = seeded_broker(ctx);
        let result = (|| {
            broker.produce(KAFKA_TOPIC, P0, Some(b"k"), Some(b"v"), 5)?;
            broker.log_end_offset(KAFKA_TOPIC, P0)?;
            broker.fetch(KAFKA_TOPIC, P0, 0, usize::MAX)?;
            Ok::<(), KafkaError>(())
        })();
        let detail = match &result {
            Ok(()) => "produce+ends+fetch ok".to_string(),
            Err(e) => format!("broker call failed: {}", e.code()),
        };
        (result.err().map(InteractionError::from), detail)
    })
}

fn run_kafka_connector_cell(fault: &FaultSpec, detect: Option<CellDetect<'_>>) -> FaultCase {
    run_cell_body(fault, "kafka:spark-connector".to_string(), detect, |ctx| {
        let broker = seeded_broker(ctx);
        let result = plan_range(&broker, KAFKA_TOPIC, P0, 0, ctx).and_then(|range| {
            consume_range(
                &broker,
                KAFKA_TOPIC,
                P0,
                range,
                OffsetModel::TolerateGaps,
                ctx,
            )
            .map(|records| records.len())
        });
        let detail = match &result {
            Ok(n) => format!("connector consumed {n} records"),
            Err(e) => format!("connector failed: {}", e.code()),
        };
        (result.err().map(InteractionError::from), detail)
    })
}

fn run_yarn_driver_cell(fault: &FaultSpec, detect: Option<CellDetect<'_>>) -> FaultCase {
    run_cell_body(fault, "yarn:flink-driver".to_string(), detect, |ctx| {
        // A small job in the no-storm regime on its own parameters: any
        // storm observed below is the injected fault's doing.
        let target = 20;
        let stats = run_driver_traced(
            DriverRun {
                mode: DriverMode::BuggySync,
                target,
                interval_ms: 500,
                alloc_service_ms: 1,
                start_latency_ms: 5,
                deadline_ms: 15_000,
            },
            Some(ctx.clone()),
        );
        let detail = format!(
            "driver: {} asks for target {target}, started {}, completed={}",
            stats.total_requested,
            stats.started,
            stats.completed_at.is_some()
        );
        (stats.error.map(InteractionError::from), detail)
    })
}

fn run_yarn_metrics_cell(fault: &FaultSpec, detect: Option<CellDetect<'_>>) -> FaultCase {
    run_cell_body(fault, "yarn:spark-connector".to_string(), detect, |ctx| {
        let mut rm = ResourceManager::with_nodes(4, Resource::new(8192, 8));
        rm.set_crossing(ctx.clone());
        let result = minispark::connectors::yarn::cluster_metrics(&rm, ctx);
        let detail = match &result {
            Ok(m) => format!("metrics ok ({} node managers)", m.num_node_managers),
            Err(e) => format!("connector failed: {}", e.code()),
        };
        (result.err().map(InteractionError::from), detail)
    })
}

/// The HBASE-16621 scenario cell: a location-caching client routes one
/// request for a region under an armed fault, with the given retry
/// policy. A poisoned `locate` surfaces as `NotServingRegionException`
/// under [`RetryPolicy::TrustCache`] but is silently healed by
/// [`RetryPolicy::RefreshAndRetry`]'s clean re-lookup.
fn run_hbase_cell(
    fault: &FaultSpec,
    policy: RetryPolicy,
    detect: Option<CellDetect<'_>>,
) -> FaultCase {
    let policy_name = match policy {
        RetryPolicy::TrustCache => "trust-cache",
        RetryPolicy::RefreshAndRetry => "refresh-retry",
    };
    let scenario = format!("hbase:kv-client({policy_name})");
    run_cell_body(fault, scenario, detect, |ctx| {
        let mut cluster = ClusterState::new();
        cluster.assign("t,region-0", ServerId(2));
        let mut client = HBaseClient::new();
        let result = client.route_with(&cluster, "t,region-0", policy, Some(ctx));
        let detail = match &result {
            Ok(s) => format!(
                "routed to server {} after {} master lookups",
                s.0,
                client.master_lookups()
            ),
            Err(e) => format!("route failed: {}", e.code()),
        };
        (result.err().map(InteractionError::from), detail)
    })
}

fn run_cell(config: &FaultMatrixConfig, cell: &Cell) -> FaultCase {
    let detect = config.detect.as_ref().map(|c| CellDetect {
        config: c,
        tap: config.tap.as_ref(),
    });
    match cell {
        Cell::Probe {
            fault,
            experiment,
            plan,
            format,
        } => run_probe_cell(fault, *experiment, *plan, *format, detect),
        Cell::KafkaDirect { fault } => run_kafka_direct_cell(fault, detect),
        Cell::KafkaConnector { fault } => run_kafka_connector_cell(fault, detect),
        Cell::YarnDriver { fault } => run_yarn_driver_cell(fault, detect),
        Cell::YarnMetrics { fault } => run_yarn_metrics_cell(fault, detect),
        Cell::HBaseRoute { fault, policy } => run_hbase_cell(fault, *policy, detect),
    }
}

fn build_report(config: &FaultMatrixConfig, cases: Vec<FaultCase>) -> FaultMatrixReport {
    let detector_enabled = config.detect.is_some();
    let mut outcomes: BTreeMap<String, usize> = BTreeMap::new();
    let mut detection_kinds: BTreeMap<String, usize> = BTreeMap::new();
    let mut detection_totals: BTreeMap<String, usize> = BTreeMap::new();
    let mut agreement = DetectorAgreement::default();
    let mut any_fired = false;
    for case in &cases {
        let key = match &case.outcome {
            Some(o) => o.to_string(),
            None => "unfired".to_string(),
        };
        *outcomes.entry(key).or_insert(0) += 1;
        if detector_enabled {
            for d in &case.detections {
                *detection_kinds.entry(d.kind.to_string()).or_insert(0) += 1;
                for channel in &d.channels {
                    *detection_totals.entry(channel.to_string()).or_insert(0) += 1;
                }
            }
            if !case.fired.is_empty() {
                any_fired = true;
                let oracle_positive = matches!(
                    case.outcome,
                    Some(FaultOutcome::Swallowed | FaultOutcome::Mistranslated)
                );
                agreement.score(oracle_positive, flags_error_handling(&case.detections));
            }
        }
    }
    FaultMatrixReport {
        seed: config.seed,
        detector_enabled,
        cases,
        outcomes,
        detection_kinds,
        detection_totals,
        agreement: (detector_enabled && any_fired).then_some(agreement),
    }
}

/// The matrix runner behind [`crate::Campaign::fault_matrix`]: every
/// cell on `workers` workers of [`ordered_map`] (`0` or `1` runs inline),
/// merged in canonical cell order. Every cell is hermetic, so the report
/// is byte-identical at any worker count.
pub(crate) fn run_fault_matrix(config: &FaultMatrixConfig, workers: usize) -> FaultMatrixReport {
    let cells = enumerate_cells(config);
    let (cases, _) = ordered_map(&cells, workers, || (), |_, cell| run_cell(config, cell));
    build_report(config, cases)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::Campaign;

    #[test]
    fn catalogue_covers_every_channel() {
        let plan = fault_catalogue(42);
        for channel in Channel::ALL {
            assert!(
                plan.faults.iter().any(|f| f.channel == channel),
                "no fault for {channel}"
            );
        }
        // Ids are unique.
        let mut ids: Vec<&str> = plan.faults.iter().map(|f| f.id.as_str()).collect();
        let n = ids.len();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), n);
    }

    #[test]
    fn catalogue_is_seed_deterministic_and_seed_sensitive() {
        assert_eq!(fault_catalogue(7), fault_catalogue(7));
        assert_ne!(fault_catalogue(7), fault_catalogue(8));
        // The small catalogue is a subset of the full one.
        let full = fault_catalogue(3);
        for f in &small_fault_catalogue(3).faults {
            assert!(full.faults.contains(f));
        }
    }

    #[test]
    fn metastore_fault_propagates_through_hiveql_but_not_spark() {
        let plan = fault_catalogue(1);
        let fault = plan
            .faults
            .iter()
            .find(|f| f.id == "ms-unavail-get")
            .unwrap();
        let report = Campaign::new(&[])
            .fault_matrix(1)
            .formats(vec![StorageFormat::Orc])
            .faults(FaultPlan {
                seed: 1,
                faults: vec![fault.clone()],
            })
            .run()
            .matrix
            .expect("matrix mode");
        let outcomes: Vec<&FaultOutcome> = report
            .cases
            .iter()
            .filter_map(|c| c.outcome.as_ref())
            .collect();
        assert!(!outcomes.is_empty());
        // HiveQL-written plans surface the native MetaException; Spark
        // plans collapse it into Analysis(HIVE_METASTORE) — the paper's
        // context-loss narrative, observable per cell.
        assert!(outcomes.contains(&&FaultOutcome::PropagatedWithContext));
        assert!(outcomes.contains(&&FaultOutcome::Mistranslated));
    }

    #[test]
    fn kafka_corruption_is_rejected_directly_but_mistranslated_by_spark() {
        let plan = fault_catalogue(1);
        let fault = plan
            .faults
            .iter()
            .find(|f| f.id == "kafka-corrupt-fetch")
            .unwrap();
        let direct = run_kafka_direct_cell(fault, None);
        assert_eq!(direct.outcome, Some(FaultOutcome::PropagatedWithContext));
        let connector = run_kafka_connector_cell(fault, None);
        assert_eq!(connector.outcome, Some(FaultOutcome::Mistranslated));
    }

    #[test]
    fn yarn_latency_is_swallowed_as_a_silent_storm() {
        let plan = fault_catalogue(1);
        let fault = plan
            .faults
            .iter()
            .find(|f| f.id == "yarn-latency-alloc")
            .unwrap();
        let case = run_yarn_driver_cell(fault, None);
        assert_eq!(case.outcome, Some(FaultOutcome::Swallowed));
        // The FLINK-12342 signature: far more asks than containers needed,
        // and no error anywhere.
        assert!(case.surfaced.is_none());
        assert!(
            case.detail.contains("asks for target 20"),
            "{}",
            case.detail
        );
        let asks: u64 = case
            .detail
            .split(' ')
            .nth(1)
            .and_then(|s| s.parse().ok())
            .unwrap();
        assert!(asks > 60, "expected a storm, detail: {}", case.detail);
    }

    #[test]
    fn poisoned_hbase_locate_splits_on_retry_policy() {
        let plan = fault_catalogue(1);
        let fault = plan
            .faults
            .iter()
            .find(|f| f.id == "hbase-stale-locate")
            .unwrap();
        // Shipped policy: the poisoned location surfaces as a generic
        // NotServingRegionException — the corruption's identity is lost.
        let shipped = run_hbase_cell(fault, RetryPolicy::TrustCache, None);
        assert_eq!(shipped.outcome, Some(FaultOutcome::Mistranslated));
        // Fixed policy: the clean retry heals the request and nothing
        // surfaces at all.
        let fixed = run_hbase_cell(fault, RetryPolicy::RefreshAndRetry, None);
        assert_eq!(fixed.outcome, Some(FaultOutcome::Swallowed));
        assert!(fixed.surfaced.is_none());
        // Both cells carry their crossing sequence.
        assert!(!shipped.trace.is_empty());
        assert_eq!(fixed.trace.channel_counts()["hbase"], 3);
    }

    #[test]
    fn sharded_matrix_is_byte_identical_to_serial() {
        let config = FaultMatrixConfig::smoke(11);
        let json = |r: &FaultMatrixReport| serde_json::to_string(r).unwrap();
        let cells = enumerate_cells(&config);
        let cases = cells.iter().map(|c| run_cell(&config, c)).collect();
        let serial = json(&build_report(&config, cases));
        let sharded = json(&run_fault_matrix(&config, 3));
        assert_eq!(serial, sharded);
    }

    #[test]
    fn hbase_region_server_down_propagates_with_context() {
        let plan = fault_catalogue(1);
        let fault = plan
            .faults
            .iter()
            .find(|f| f.id == "hbase-unavail-route")
            .unwrap();
        for policy in [RetryPolicy::TrustCache, RetryPolicy::RefreshAndRetry] {
            let case = run_hbase_cell(fault, policy, None);
            assert_eq!(case.outcome, Some(FaultOutcome::PropagatedWithContext));
        }
    }
}
