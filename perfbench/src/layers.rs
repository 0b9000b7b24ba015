//! Per-layer probes for the traced run: each layer's public functions are
//! called and timed directly from here, on the same specs and inputs the
//! workload runs. Metrics add up over every spec the workload offers;
//! a layer a workload never enters reports 0.

use crate::replay::{self, ReplayStats};
use crate::stats;
use crate::trace::Recorder;
use csi_core::coverage::CoverageSignature;
use csi_core::detect::{BaselineSet, OnlineDetector};
use csi_core::oracle::{check_differential, check_error_handling, check_write_read, Observation};
use csi_test::generator::Validity;
use csi_test::multi::{run_compound, CompoundConfig};
use csi_test::{Campaign, CampaignOutcome, CampaignSpec, InputSelection};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

/// Metric name → value.
pub type Metrics = BTreeMap<String, f64>;

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

fn add(m: &mut Metrics, name: &str, v: f64) {
    *m.entry(name.to_string()).or_insert(0.0) += v;
}

/// The cross-test campaign over `spec`'s inputs with no detector, no
/// exploration and no faults, run serially: the reference the replay,
/// oracle and classify probes recompute.
fn grid_form(spec: &CampaignSpec) -> CampaignSpec {
    CampaignSpec {
        detect: false,
        explore_budget: None,
        kfaults: 0,
        matrix_seed: None,
        faults: None,
        shards: 1,
        ..spec.clone()
    }
}

fn run(spec: &CampaignSpec) -> CampaignOutcome {
    Campaign::from_spec(spec.clone())
        .expect("workload specs are valid")
        .run()
}

fn scenario_key(obs: &Observation) -> String {
    format!("{}:{}:{}", obs.plan, obs.format, obs.input_id)
}

fn surfaced(obs: &Observation) -> Option<&csi_core::InteractionError> {
    if let Err(e) = &obs.write.result {
        return Some(e);
    }
    obs.read.as_ref().and_then(|r| r.result.as_ref().err())
}

/// What the probes found besides metrics: checks that must hold.
#[derive(Debug, Default)]
pub struct ProbeChecks {
    /// Replay cells and those whose outcome differed from the campaign's.
    pub replay: ReplayStats,
    /// Specs whose recomputed oracle + classify report differed from the
    /// campaign's own report.
    pub classify_mismatches: usize,
}

/// Runs every probe over `specs` (the workload's batch spec, or its
/// served shapes), recording a span per probe.
pub fn probe(
    specs: &[CampaignSpec],
    rec: &mut Recorder,
    m: &mut Metrics,
    checks: &mut ProbeChecks,
) {
    let mut from_spec_us = Vec::new();
    let mut oracle_wr = (0.0, 0usize);
    let mut oracle_eh = (0.0, 0usize);
    let mut signature = (0.0, 0usize);
    let mut busy = Vec::new();
    let mut utilization = Vec::new();
    let mut observations_total = 0usize;
    let mut crossings: BTreeMap<String, usize> = BTreeMap::new();
    for (i, spec) in specs.iter().enumerate() {
        rec.set_request(1_000_000 + i as u64);
        let root = rec.open("probe.spec", None);

        // spec / corpus
        let id = rec.open("spec.from_spec", Some(root));
        let reps = 200;
        let t = Instant::now();
        for _ in 0..reps {
            std::hint::black_box(Campaign::from_spec(std::hint::black_box(spec.clone())).is_ok());
        }
        from_spec_us.push(t.elapsed().as_secs_f64() * 1e6 / reps as f64);
        rec.close(id);
        let resolve: Vec<f64> = (0..3)
            .map(|_| {
                let t = Instant::now();
                rec.time("spec.resolve", Some(root), || {
                    std::hint::black_box(spec.inputs.resolve())
                });
                ms_since(t)
            })
            .collect();
        add(m, "spec.resolve_ms", stats::median(&resolve));
        if let InputSelection::Corpus { shape, seed } = &spec.inputs {
            let synth: Vec<f64> = (0..3)
                .map(|_| {
                    let t = Instant::now();
                    rec.time("corpus.synthesize", Some(root), || {
                        std::hint::black_box(csi_test::synthesize_inputs(shape, *seed, 0))
                    });
                    ms_since(t)
                })
                .collect();
            add(m, "corpus.synthesize_ms", stats::median(&synth));
        }

        // The workload's own campaign, in process.
        let outcome = rec.time("exec.campaign", Some(root), || run(spec));
        observations_total += outcome.observations.len();
        add(m, "exec.observations", outcome.observations.len() as f64);
        for (_, obs) in &outcome.observations {
            if obs.write.result.is_err() {
                add(m, "exec.write_errors", 1.0);
            }
            if obs.read.as_ref().is_some_and(|r| r.result.is_err()) {
                add(m, "exec.read_errors", 1.0);
            }
            for (channel, n) in obs.trace.channel_counts() {
                *crossings.entry(channel).or_default() += n;
            }
            let t = Instant::now();
            std::hint::black_box(CoverageSignature::from_trace(&obs.trace));
            signature.0 += t.elapsed().as_secs_f64() * 1e6;
            signature.1 += 1;
        }
        if let Some(metrics) = &outcome.metrics {
            let worker_busy: Vec<f64> = metrics
                .per_worker
                .iter()
                .map(|w| w.busy_micros as f64 / 1e3)
                .collect();
            let mean = worker_busy.iter().sum::<f64>() / worker_busy.len().max(1) as f64;
            add(m, "shard.busy_ms", worker_busy.iter().sum());
            add(
                m,
                "shard.merge_ms",
                metrics.total_micros.saturating_sub(metrics.execute_micros) as f64 / 1e3,
            );
            busy.push(worker_busy.iter().copied().fold(0.0, f64::max) / mean.max(1e-9));
            utilization.extend(metrics.per_worker.iter().map(|w| w.utilization));
        }
        let t = Instant::now();
        let render = rec.time("report.render", Some(root), || outcome.render());
        add(m, "report.render_ms", ms_since(t));
        let t = Instant::now();
        let json = rec.time("report.json", Some(root), || {
            serde_json::to_string(&outcome.report).expect("reports serialize")
        });
        add(m, "report.json_ms", ms_since(t));
        add(m, "report.bytes", json.len() as f64);
        std::hint::black_box(render);

        // detect: calibration as its own campaign, learning, replay.
        if spec.detect && spec.matrix_seed.is_none() && spec.explore_budget.is_none() {
            let calibration_spec = CampaignSpec {
                detect: false,
                faults: None,
                trace: true,
                ..spec.clone()
            };
            let t = Instant::now();
            let calibration = rec.time("exec.calibrate", Some(root), || run(&calibration_spec));
            add(m, "campaign.calibrate_ms", ms_since(t));
            let t = Instant::now();
            let baselines = rec.time("detect.learn", Some(root), || {
                let mut baselines = BaselineSet::default();
                for (_, obs) in &calibration.observations {
                    baselines.learn(&scenario_key(obs), &obs.trace);
                }
                baselines
            });
            add(m, "detect.learn_ms", ms_since(t));
            add(m, "detect.baselines", baselines.len() as f64);
            let detector = OnlineDetector::new(spec.detector_config, Arc::new(baselines));
            let t = Instant::now();
            let detections = rec.time("detect.replay", Some(root), || {
                let mut found = 0;
                for (_, obs) in &outcome.observations {
                    detector.begin(&scenario_key(obs));
                    let mut sink = detector.sink();
                    for crossing in &obs.trace.crossings {
                        sink.on_crossing(crossing);
                    }
                    found += detector.finish(surfaced(obs)).len();
                }
                found
            });
            add(m, "detect.replay_ms", ms_since(t));
            std::hint::black_box(detections);
        }
        let detected: usize = outcome
            .observations
            .iter()
            .map(|(_, o)| o.detections.len())
            .sum::<usize>()
            + outcome
                .matrix
                .as_ref()
                .map_or(0, |mx| mx.cases.iter().map(|c| c.detections.len()).sum());
        add(m, "detect.detections", detected as f64);

        // explore / multi
        if let Some(e) = &outcome.exploration {
            add(m, "explore.executed", e.executed as f64);
            add(m, "explore.signatures", e.signatures as f64);
            add(
                m,
                "shrink.checks",
                e.shrinks.iter().map(|s| s.checks).sum::<usize>() as f64,
            );
        }
        if spec.kfaults > 0 {
            let mut config = CompoundConfig::new(spec.seed, spec.kfaults);
            config.jobs = spec.jobs;
            config.shards = spec.shards;
            if let Some(budget) = spec.explore_budget {
                config.budget = budget;
            }
            let t = Instant::now();
            let result = rec.time("multi.compound", Some(root), || run_compound(&config));
            add(m, "multi.compound_ms", ms_since(t));
            add(m, "multi.trials", result.stats.executed as f64);
            add(m, "shrink.checks", result.stats.shrink_checks as f64);
        }

        // boundary tracing cost, oracles, classify and the engine replay
        // all work on the grid form of the spec.
        if spec.matrix_seed.is_none() {
            let grid = grid_form(spec);
            let sharded = CampaignSpec {
                shards: spec.shards,
                ..grid.clone()
            };
            let mut on = Vec::new();
            let mut off = Vec::new();
            for round in 0..5 {
                // Alternate which side runs first, so drift favours neither.
                let order = if round % 2 == 0 {
                    [false, true]
                } else {
                    [true, false]
                };
                for trace in order {
                    let out = if trace { &mut on } else { &mut off };
                    let s = CampaignSpec {
                        trace,
                        ..sharded.clone()
                    };
                    let t = Instant::now();
                    rec.time("exec.trace_ab", Some(root), || run(&s));
                    out.push(ms_since(t));
                }
            }
            add(
                m,
                "boundary.trace_ms",
                stats::median(&on) - stats::median(&off),
            );
            let reference = rec.time("exec.reference", Some(root), || run(&grid));
            let inputs = grid.inputs.resolve();
            let by_id: BTreeMap<usize, &csi_test::TestInput> =
                inputs.iter().map(|i| (i.id, i)).collect();
            let oracle_span = rec.open("oracle.all", Some(root));
            let mut failures = Vec::new();
            let mut differential_ms = 0.0;
            for &experiment in &grid.experiments {
                let exp_obs: Vec<Observation> = reference
                    .observations
                    .iter()
                    .filter(|(e, _)| *e == experiment)
                    .map(|(_, o)| o.clone())
                    .collect();
                for obs in &exp_obs {
                    let input = by_id[&obs.input_id];
                    let t = Instant::now();
                    let failure = match input.validity {
                        Validity::Valid => check_write_read(input.expected(), obs),
                        Validity::Invalid => check_error_handling(&input.value, obs),
                    };
                    let us = t.elapsed().as_secs_f64() * 1e6;
                    let slot = match input.validity {
                        Validity::Valid => &mut oracle_wr,
                        Validity::Invalid => &mut oracle_eh,
                    };
                    slot.0 += us;
                    slot.1 += 1;
                    failures.extend(failure);
                }
                let t = Instant::now();
                failures.extend(check_differential(&exp_obs));
                differential_ms += ms_since(t);
            }
            rec.close(oracle_span);
            add(m, "oracle.differential_ms", differential_ms);
            let t = Instant::now();
            let report = rec.time("classify.run", Some(root), || {
                csi_test::classify::classify(&inputs, &reference.observations, failures, false)
            });
            add(m, "classify.ms", ms_since(t));
            let recomputed = serde_json::to_string(&report).expect("reports serialize");
            if recomputed != serde_json::to_string(&reference.report).expect("reports serialize") {
                checks.classify_mismatches += 1;
            }
            let id = rec.open("replay.grid", Some(root));
            replay::replay(&grid, &inputs, &reference.observations, &mut checks.replay);
            rec.close(id);
        }
        rec.close(root);
    }
    m.insert(
        "spec.from_spec_us".into(),
        from_spec_us.iter().sum::<f64>() / from_spec_us.len().max(1) as f64,
    );
    m.insert(
        "oracle.write_read_us".into(),
        oracle_wr.0 / oracle_wr.1.max(1) as f64,
    );
    m.insert(
        "oracle.error_handling_us".into(),
        oracle_eh.0 / oracle_eh.1.max(1) as f64,
    );
    m.insert(
        "coverage.signature_us".into(),
        signature.0 / signature.1.max(1) as f64,
    );
    m.insert(
        "shard.imbalance".into(),
        busy.iter().copied().fold(0.0, f64::max),
    );
    m.insert(
        "shard.utilization".into(),
        utilization.iter().sum::<f64>() / utilization.len().max(1) as f64,
    );
    let per_obs = |channel: &str| {
        crossings.get(channel).copied().unwrap_or(0) as f64 / observations_total.max(1) as f64
    };
    m.insert("boundary.crossings.metastore".into(), per_obs("metastore"));
    m.insert("boundary.crossings.hdfs".into(), per_obs("hdfs"));
    let executed = m.get("explore.executed").copied().unwrap_or(0.0);
    m.insert(
        "explore.novel_ratio".into(),
        m.get("explore.signatures").copied().unwrap_or(0.0) / executed.max(1.0),
    );
    let r = &checks.replay;
    for (name, op) in &r.ops {
        if name.starts_with("minispark.sql")
            || name.starts_with("minispark.dataframe")
            || name.starts_with("minihive.execute")
        {
            m.insert(format!("{name}_count"), op.count as f64);
            m.insert(format!("{name}_errors"), op.errors as f64);
        }
        m.insert(format!("{name}_us"), op.mean_us());
    }
    m.insert(
        "miniformats.bytes_per_row".into(),
        r.file_bytes as f64 / r.file_rows.max(1) as f64,
    );
    m.insert("replay.cells".into(), r.cells as f64);
    m.insert(
        "replay.mismatches".into(),
        (r.mismatches + checks.classify_mismatches) as f64,
    );
}
