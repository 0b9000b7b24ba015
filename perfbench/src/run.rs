//! One benchmark run: set-up timing, the batch phase, the served phase,
//! the correctness gate and, when traced, the per-layer probes.

use crate::batch::{self, CampaignResult};
use crate::layers::{self, Metrics, ProbeChecks};
use crate::serve::{self, PhaseResult, ShapeRef, MAX_LATENESS_MS};
use crate::stats::{self, Rng};
use crate::trace::{self, Recorder};
use crate::workload::{self, Workload};
use csi_core::detect::DetectionTap;
use csi_test::{Campaign, CampaignSpec};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Set-up repetitions per run, in three groups; `setup_s` is their median.
pub const SETUP_REPS: usize = 33;

/// Where traced runs write their spans, relative to the working directory.
pub const SPAN_DIR: &str = ".bench_out";

/// The command-line arguments of a run.
#[derive(Debug, Clone)]
pub struct Args {
    /// Which workload.
    pub workload: Workload,
    /// Workload seed.
    pub seed: u64,
    /// Measured seconds.
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
}

/// One metric as printed: name, value, unit.
pub type Metric = (String, f64, &'static str);

/// What a run reports.
#[derive(Debug, Clone)]
pub struct Report {
    /// Every output checked and every request answered correctly.
    pub correct: bool,
    /// Campaigns and requests attempted.
    pub attempted: usize,
    /// Failed, refused or wrong.
    pub failed: usize,
    /// The metrics of this run (end-to-end, or per-layer when traced).
    pub metrics: Vec<Metric>,
    /// Run metadata and deterministic counters, as a JSON object.
    pub meta: String,
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The set-up a user pays before the first request: resolve the
/// workload's inputs (catalogue and corpus synthesis) and start a warm
/// daemon. Run in a fresh process by [`batch::time_setup`].
pub fn child_setup(workload: Workload, seed: u64) {
    let workers = nproc();
    if let Some(spec) = workload.batch_spec(seed, workers) {
        std::hint::black_box(spec.inputs.resolve());
    }
    for shape in workload::served_shapes() {
        std::hint::black_box(shape.inputs.resolve());
    }
    let mut server = csi_serve::CsiServer::start(&csi_serve::ServeConfig {
        workers,
        warm: workers,
        ..csi_serve::ServeConfig::default()
    })
    .expect("daemon starts on localhost");
    println!("ready");
    server.shutdown();
}

/// The batch run of each served shape, untimed: what every served
/// report must equal.
fn shape_refs(shapes: &[CampaignSpec]) -> Vec<ShapeRef> {
    shapes
        .iter()
        .map(|spec| {
            let detections = Arc::new(AtomicUsize::new(0));
            let tap = {
                let detections = detections.clone();
                DetectionTap::new(move |_| {
                    detections.fetch_add(1, Ordering::SeqCst);
                })
            };
            let outcome = Campaign::from_spec(spec.clone())
                .expect("served shapes are valid")
                .detection_tap(tap)
                .run();
            ShapeRef {
                report_digest: stats::digest(
                    serde_json::to_string(&outcome.report)
                        .expect("reports serialize")
                        .as_bytes(),
                ),
                detections: detections.load(Ordering::SeqCst),
                observations: outcome.observations.len(),
            }
        })
        .collect()
}

/// Whether a batch result is correct for its workload: byte-identical to
/// the serial reference, with D01–D15 present on grid.
fn batch_ok(workload: Workload, r: &CampaignResult, reference: &CampaignResult) -> bool {
    let same = r.report_digest == reference.report_digest
        && r.render_digest == reference.render_digest
        && r.observations == reference.observations
        && r.signatures == reference.signatures
        && r.classes == reference.classes;
    let all_ids = match workload {
        Workload::Grid => (1..=15).all(|i| r.ids.iter().any(|id| *id == format!("D{i:02}"))),
        _ => true,
    };
    same && all_ids
}

/// Highest percentile each `.tail` may use: the highest that repeated
/// within a tenth from run to run on a 2-vCPU Xeon VM (see the README).
/// Percentiles above these were dominated by rare stalls of the host.
const CAMPAIGN_TAIL_CAP: f64 = 80.0;
const R50_TAIL_CAP: f64 = 95.0;
const R200_TAIL_CAP: f64 = 98.0;

/// The batch phase: campaigns closed loop with one client, each checked
/// against an untimed `shards = 1` run of its spec.
struct BatchPhase {
    /// Specs run in turn: the workload's one-shot campaign, or on `serve`
    /// the served shapes.
    specs: Vec<CampaignSpec>,
    /// Each campaign in a fresh process (the one-shot user), or in this one.
    fresh_process: bool,
    /// The serial run of each spec.
    references: Vec<CampaignResult>,
    per_block: usize,
    /// Timed campaigns started so far.
    ran: usize,
    results: Vec<CampaignResult>,
    traced: Vec<bool>,
    failed: usize,
}

impl BatchPhase {
    /// Runs the serial references and one untimed warm-up campaign per spec.
    fn start(args: &Args) -> BatchPhase {
        let (specs, fresh_process) = match args.workload.batch_spec(args.seed, nproc()) {
            Some(spec) => (vec![spec], true),
            None => (workload::served_shapes(), false),
        };
        let mut phase = BatchPhase {
            specs,
            fresh_process,
            references: Vec::new(),
            per_block: args.workload.batch_per_block(args.seconds),
            ran: 0,
            results: Vec::new(),
            traced: Vec::new(),
            failed: 0,
        };
        phase.references = phase
            .specs
            .iter()
            .map(|spec| {
                let serial = CampaignSpec {
                    shards: 1,
                    ..spec.clone()
                };
                phase
                    .campaign(&serial, false)
                    .expect("serial reference campaign runs")
            })
            .collect();
        for (spec, reference) in phase.specs.iter().zip(&phase.references) {
            let warm = phase.campaign(spec, false);
            if !warm.is_ok_and(|w| batch_ok(args.workload, &w, reference)) {
                phase.failed += 1;
            }
        }
        phase
    }

    fn campaign(&self, spec: &CampaignSpec, traced: bool) -> Result<CampaignResult, String> {
        if self.fresh_process {
            batch::spawn_campaign(spec, traced)
        } else {
            Ok(batch::run_campaign(spec.clone(), traced))
        }
    }

    /// Runs the next `per_block` campaigns back to back, taking the specs
    /// in turn.
    fn block(&mut self, args: &Args, rec: &mut Recorder) {
        for _ in 0..self.per_block {
            let i = self.ran;
            self.ran += 1;
            let which = i % self.specs.len();
            // A traced run alternates traced and untraced rounds over the
            // specs, so the difference between them is the tracing overhead.
            let traced = args.trace && (i / self.specs.len()).is_multiple_of(2);
            match self.campaign(&self.specs[which], traced) {
                Ok(mut r) => {
                    if !batch_ok(args.workload, &r, &self.references[which]) {
                        self.failed += 1;
                    }
                    rec.adopt(std::mem::take(&mut r.spans), i as u64);
                    self.results.push(r);
                    self.traced.push(traced);
                }
                Err(e) => {
                    eprintln!("perfbench: {e}");
                    self.failed += 1;
                }
            }
        }
    }
}

struct ServePhase {
    r50: PhaseResult,
    r200: PhaseResult,
    max_rate: f64,
    attempted: usize,
    failed: usize,
    late_ms_max: f64,
    rungs: Vec<(usize, bool, f64)>,
    rss_mb: f64,
    layer: Metrics,
}

/// The served phases in order — warm-up, three rounds of r50 and r200,
/// then the rate ladder — calling `between` before each round, so a batch
/// phase can run in blocks spread over the whole run instead of one
/// stretch of it.
fn run_serve(
    args: &Args,
    rec: &mut Recorder,
    mut between: impl FnMut(&mut Recorder),
) -> ServePhase {
    let seconds = args.seconds;
    let shapes = workload::served_shapes();
    let refs = shape_refs(&shapes);
    let workers = nproc();
    let mut gen = serve::start(workers, &shapes, refs);
    let mut rng = Rng::new(args.seed, "arrivals");
    let mut offer =
        |gen: &mut serve::LoadGen, rate: f64, secs: f64, name: &str, rec: &mut Recorder| {
            let result = gen.offer(rate, secs, &mut rng);
            let phase_span = rec.open(name, None);
            for (k, (due, at)) in result.windows.iter().enumerate() {
                rec.set_request(2_000_000 + k as u64);
                let request = rec.span_at("serve.request", Some(phase_span), *due, *at);
                let run = std::time::Duration::from_secs_f64(result.run_ms[k] / 1e3);
                rec.span_at(
                    "server.run",
                    Some(request),
                    at.checked_sub(run).unwrap_or(*due),
                    *at,
                );
            }
            rec.close(phase_span);
            result
        };
    // Untimed warm-up: the pool's shelves and the first-request paths fill.
    let warm = offer(
        &mut gen,
        100.0,
        (0.03 * seconds).max(0.2),
        "phase.warm",
        rec,
    );
    // Three rounds of (set-ups and batch block, r50, r200), so each figure
    // samples the whole run. r50 gets most of the served time: its latency
    // spreads widest, and r200 and the ladder are not bounded. On `grid`
    // and `explore` the batch blocks take the larger share of the run.
    let r50_s = match args.workload {
        Workload::Serve => 0.2 * seconds,
        Workload::Grid | Workload::Explore => 0.13 * seconds,
    };
    let mut r50 = PhaseResult::default();
    let mut r200 = PhaseResult::default();
    for _ in 0..3 {
        between(rec);
        r50.extend(offer(&mut gen, 50.0, r50_s, "phase.r50", rec));
        r200.extend(offer(&mut gen, 200.0, 0.03 * seconds, "phase.r200", rec));
    }
    // Memory is read before the ladder: past saturation the backlog, not
    // the service, sets the high-water mark.
    let rss_mb = stats::peak_rss_mb();
    let rung_s = (0.015 * seconds).max(0.25);
    // The rate ladder: from the first rung at or above 200/s, climb while
    // rungs hold, or descend until one does.
    let start = (0..)
        .find(|&k| serve::rung_rate(k) >= 200.0)
        .expect("ladder reaches 200/s");
    let mut rungs: Vec<(usize, bool, f64)> = Vec::new();
    let mut ladder = Vec::new();
    let mut k = start;
    loop {
        let rung = offer(&mut gen, serve::rung_rate(k), rung_s, "phase.ladder", rec);
        let holds = serve::rung_holds(&rung);
        rungs.push((k, holds, serve::rung_tail(&rung)));
        ladder.push(rung);
        let climbing = rungs[0].1;
        if climbing && holds && k < 20 {
            k += 1;
        } else if !climbing && !holds && k > 0 {
            k -= 1;
        } else {
            break;
        }
    }
    let max_rate = serve::max_rate(&rungs);
    let mut layer = Metrics::new();
    layer.insert("server.run_ms.p50".into(), stats::median(&r50.run_ms));
    layer.insert(
        "server.non_run_ms.p50".into(),
        stats::median(&r50.non_run_ms),
    );
    layer.insert(
        "server.non_run_ms.tail".into(),
        stats::tail(&r50.non_run_ms).value,
    );
    let depths: Vec<f64> = r50
        .queue_depths
        .iter()
        .chain(&r200.queue_depths)
        .copied()
        .collect();
    layer.insert("sched.queue_depth.tail".into(), stats::tail(&depths).value);
    let pool = gen.pool_stats();
    layer.insert("pool.created".into(), pool.created as f64);
    layer.insert("pool.reused".into(), pool.reused as f64);
    layer.insert(
        "pool.hit_ratio".into(),
        pool.reused as f64 / (pool.created + pool.reused).max(1) as f64,
    );
    layer.insert("protocol.request_bytes".into(), gen.mean_request_bytes());
    layer.insert(
        "protocol.report_frame_bytes".into(),
        gen.mean_report_frame_bytes(),
    );
    layer.insert("protocol.decode_us".into(), gen.mean_decode_us());
    layer.insert(
        "tenant.journal_entries".into(),
        gen.journal_entries() as f64,
    );
    if args.trace {
        // A standalone registry fed this run's submissions in order, so
        // the cost's growth with journal size shows.
        let registry = csi_serve::TenantRegistry::new();
        let shape_json: Vec<String> = shapes
            .iter()
            .map(|s| serde_json::to_string(s).expect("specs serialize"))
            .collect();
        let id = rec.open("tenant.register", None);
        let t = Instant::now();
        for &(tenant, shape) in &gen.submissions {
            let _ = registry.register(&serve::tenant_name(tenant), &shape_json[shape]);
        }
        rec.close(id);
        layer.insert(
            "tenant.register_us".into(),
            t.elapsed().as_secs_f64() * 1e6 / gen.submissions.len().max(1) as f64,
        );
    }
    let late_ms_max = r50.late_ms_max.max(r200.late_ms_max);
    layer.insert("loadgen.late_ms.max".into(), late_ms_max);
    gen.stop();
    // Ladder rungs past saturation may miss the latency limit, but every
    // request they sent must still be answered correctly.
    let all: Vec<&PhaseResult> = [&warm, &r50, &r200].into_iter().chain(&ladder).collect();
    ServePhase {
        attempted: all.iter().map(|p| p.attempted).sum(),
        failed: all.iter().map(|p| p.failed).sum(),
        r50,
        r200,
        max_rate,
        late_ms_max,
        rungs,
        rss_mb,
        layer,
    }
}

fn read_rev() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}"))
            .map(|s| s.trim().to_string())
            .or_else(|_| {
                std::fs::read_to_string(".git/packed-refs").map(|p| {
                    p.lines()
                        .find(|l| l.ends_with(r))
                        .and_then(|l| l.split_whitespace().next())
                        .unwrap_or("unknown")
                        .to_string()
                })
            })
            .unwrap_or_else(|_| "unknown".into()),
        None if !head.is_empty() => head.to_string(),
        None => "unknown".into(),
    }
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

fn table(samples: &[f64]) -> String {
    let cells: Vec<String> = stats::tail_table(samples)
        .iter()
        .map(|(pct, v)| format!("\"{pct}\":{v}"))
        .collect();
    format!("{{{}}}", cells.join(","))
}

/// Metrics as the body of a JSON object: `"name":{"value":…,"unit":…}`.
pub fn render_metrics(metrics: &[Metric]) -> String {
    let cells: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}")
        })
        .collect();
    cells.join(",")
}

fn json_str(s: &str) -> String {
    serde_json::to_string(s).expect("strings serialize")
}

/// Runs one benchmark run.
pub fn run(args: &Args) -> Report {
    let steal_at_start = stats::steal_s();
    let mut rec = Recorder::new(args.trace);
    let name = args.workload.name();
    let mut setup: Vec<f64> = Vec::new();
    let mut setup_failed = 0;

    let mut batch = BatchPhase::start(args);
    let served = run_serve(args, &mut rec, |rec| {
        // Set-ups are timed in three groups spread over the run, like the
        // batch blocks, so the host's drift averages out of their median.
        for _ in 0..SETUP_REPS / 3 {
            match batch::time_setup(name, args.seed) {
                Ok(seconds) => setup.push(seconds),
                Err(_) => setup_failed += 1,
            }
        }
        batch.block(args, rec);
    });

    let mut attempted = setup.len() + setup_failed;
    let mut failed = setup_failed;
    let mut rss = served.rss_mb;
    let mut samples: Vec<f64> = Vec::new();
    let mut observations = 0usize;
    let mut traced_ms = Vec::new();
    let mut untraced_ms = Vec::new();
    let mut counters: BTreeMap<&str, String> = BTreeMap::new();
    attempted += batch.ran + 2 * batch.specs.len();
    failed += batch.failed;
    for (r, &traced) in batch.results.iter().zip(&batch.traced) {
        rss = rss.max(r.rss_mb);
        if traced {
            traced_ms.push(r.ms);
        } else {
            untraced_ms.push(r.ms);
            samples.push(r.ms);
            observations += r.observations;
        }
    }
    let refs = &batch.references;
    let digests: Vec<&str> = refs.iter().map(|r| r.report_digest.as_str()).collect();
    counters.insert("report_digest", json_str(&digests.join(",")));
    let total = |f: fn(&CampaignResult) -> usize| refs.iter().map(f).sum::<usize>().to_string();
    counters.insert("observations", total(|r| r.observations));
    counters.insert("signatures", total(|r| r.signatures));
    counters.insert("classes", total(|r| r.classes));
    attempted += served.attempted;
    failed += served.failed;
    let generator_ok = served.late_ms_max <= MAX_LATENESS_MS;
    let obs_per_s = observations as f64 / (samples.iter().sum::<f64>() / 1e3).max(1e-9);

    let campaign_tail = stats::tail_at_most(&samples, CAMPAIGN_TAIL_CAP);
    let r50_tail = stats::tail_at_most(&served.r50.latency_ms, R50_TAIL_CAP);
    let r200_tail = stats::tail_at_most(&served.r200.latency_ms, R200_TAIL_CAP);
    // Measured and printed on every run, but not bounded: their spread
    // from run to run on a shared host exceeds the largest bound a
    // benchmark metric may have (see the README).
    let unbounded: Vec<Metric> = vec![
        (
            "serve_ms.p50.r200".into(),
            stats::median(&served.r200.latency_ms),
            "ms",
        ),
        ("serve_ms.tail.r200".into(), r200_tail.value, "ms"),
        ("serve.max_rate".into(), served.max_rate, "1/s"),
    ];
    let mut metrics: Vec<Metric> = Vec::new();
    let mut layer = Metrics::new();
    let mut checks = ProbeChecks::default();
    if args.trace {
        layers::probe(&batch.specs, &mut rec, &mut layer, &mut checks);
        layer.extend(served.layer.clone());
        layer.extend(unbounded.iter().map(|(n, v, _)| (n.clone(), *v)));
        let overhead = if traced_ms.is_empty() {
            0.0
        } else {
            100.0 * (stats::median(&traced_ms) / stats::median(&untraced_ms) - 1.0)
        };
        layer.insert("trace.overhead_pct".into(), overhead);
        let spans = rec.finish();
        let totals = trace::summarize(&spans);
        for l in crate::LAYERS {
            let t = totals.get(*l).cloned().unwrap_or_default();
            layer.insert(format!("layer.{l}.count"), t.count as f64);
            layer.insert(format!("layer.{l}.busy_ms"), t.busy_ms);
            layer.insert(format!("layer.{l}.self_ms"), t.self_ms);
        }
        let path = std::path::Path::new(SPAN_DIR).join(format!("spans-{name}-{}.jsonl", args.seed));
        if let Err(e) = trace::write_spans(&path, &spans) {
            eprintln!("perfbench: writing spans: {e}");
        }
        for (metric, unit) in crate::PER_LAYER {
            metrics.push((
                metric.to_string(),
                layer.get(*metric).copied().unwrap_or(0.0),
                unit,
            ));
        }
        for key in [
            "replay.cells",
            "boundary.crossings.metastore",
            "boundary.crossings.hdfs",
            "explore.signatures",
            "shrink.checks",
            "exec.observations",
        ] {
            counters.insert(key, format!("{}", layer.get(key).copied().unwrap_or(0.0)));
        }
    } else {
        metrics = vec![
            ("campaign_ms.p50".into(), stats::median(&samples), "ms"),
            ("campaign_ms.tail".into(), campaign_tail.value, "ms"),
            ("obs_per_s".into(), obs_per_s, "1/s"),
            (
                "serve_ms.p50.r50".into(),
                stats::median(&served.r50.latency_ms),
                "ms",
            ),
            ("serve_ms.tail.r50".into(), r50_tail.value, "ms"),
            ("setup_s".into(), stats::median(&setup), "s"),
            ("peak_rss_mb".into(), rss, "MB"),
        ];
    }
    let fidelity_ok = checks.replay.mismatches == 0 && checks.classify_mismatches == 0;
    let correct = failed == 0 && generator_ok && fidelity_ok;
    let rungs: Vec<String> = served
        .rungs
        .iter()
        .map(|(k, holds, tail)| format!("[{},{holds},{tail}]", serve::rung_rate(*k)))
        .collect();
    let counters: Vec<String> = counters
        .iter()
        .map(|(k, v)| format!("{}:{v}", json_str(k)))
        .collect();
    let meta = format!(
        concat!(
            "{{\"rev\":{},\"host\":{{\"nproc\":{},\"cpu\":{},\"steal_s\":{}}},\"workload\":{},\"seed\":{},",
            "\"seconds\":{},\"trace\":{},\"samples\":{{\"campaign\":{},\"r50\":{},\"r200\":{},\"setup\":{}}},",
            "\"tail_pct\":{{\"campaign_ms.tail\":{},\"serve_ms.tail.r50\":{},\"serve_ms.tail.r200\":{}}},",
            "\"tail_repeats\":{{\"campaign_ms.tail\":{},\"serve_ms.tail.r50\":{},\"serve_ms.tail.r200\":{}}},",
            "\"tail_table\":{{\"campaign_ms\":{},\"serve_ms.r50\":{},\"serve_ms.r200\":{}}},",
            "\"unbounded\":{{{}}},\"error_rate\":{},\"generator_late_ms\":{},\"replay_mismatches\":{},\"ladder\":[{}],",
            "\"counters\":{{{}}}}}"
        ),
        json_str(&read_rev()),
        nproc(),
        json_str(&cpu_model()),
        stats::steal_s() - steal_at_start,
        json_str(name),
        args.seed,
        args.seconds,
        args.trace,
        samples.len(),
        served.r50.latency_ms.len(),
        served.r200.latency_ms.len(),
        setup.len(),
        campaign_tail.pct,
        r50_tail.pct,
        r200_tail.pct,
        campaign_tail.repeats,
        r50_tail.repeats,
        r200_tail.repeats,
        table(&samples),
        table(&served.r50.latency_ms),
        table(&served.r200.latency_ms),
        render_metrics(&unbounded),
        failed as f64 / attempted.max(1) as f64,
        served.late_ms_max,
        checks.replay.mismatches + checks.classify_mismatches,
        rungs.join(","),
        counters.join(","),
    );
    Report {
        correct,
        attempted,
        failed,
        metrics,
        meta,
    }
}
