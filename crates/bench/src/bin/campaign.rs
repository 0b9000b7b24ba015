//! Campaign perf summary: runs the full 422-input cross-testing campaign
//! once serially and once sharded in its campaign mode (per-worker
//! deployments + table recycling),
//! checks the two reports agree byte-for-byte, and prints a JSON
//! performance summary (wall times, observations/sec, speedup, per-worker
//! utilization).
//!
//! Usage: `campaign [workers] [chunk_size]` — `workers` defaults to the
//! machine's available parallelism (0 keeps that default).

use csi_bench::trajectory;
use csi_test::{generate_inputs, Campaign};
use serde::Serialize;
use std::time::Instant;

/// The JSON document this binary prints.
#[derive(Serialize)]
struct Summary {
    /// Catalogue size.
    inputs: usize,
    /// Observations per run (identical serial and parallel).
    observations: usize,
    /// Distinct discrepancies (must be 15).
    distinct_discrepancies: usize,
    /// Whether the parallel report serialized identically to the serial one.
    reports_identical: bool,
    /// Whether the parallel campaign ran with table recycling.
    recycle_tables: bool,
    /// Serial campaign wall time in microseconds.
    serial_micros: u64,
    /// Serial observations per second.
    serial_obs_per_sec: f64,
    /// Parallel end-to-end wall time in microseconds.
    parallel_micros: u64,
    /// Parallel observations per second (execute phase).
    parallel_obs_per_sec: f64,
    /// Serial wall time over parallel wall time.
    speedup: f64,
    /// The parallel executor's own metrics.
    campaign: csi_test::CampaignMetrics,
}

fn main() {
    let mut args = std::env::args().skip(1);
    let workers: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(0);
    let chunk_size: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(32);
    // `Campaign::shards(0|1)` means serial, so resolve "auto" here.
    let workers = if workers == 0 {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4)
            .max(2)
    } else {
        workers
    };

    let inputs = generate_inputs();

    // Baseline: the default one-worker campaign (tables accumulate in the
    // deployment for the experiment's lifetime).
    let serial_started = Instant::now();
    let serial = Campaign::new(&inputs).run();
    let serial_micros = serial_started.elapsed().as_micros() as u64;

    // Campaign mode: sharded worker pool with per-worker deployments and
    // drop-after-observe table recycling. The determinism suite proves the
    // report is identical to the baseline's; this binary re-checks it.
    let parallel = Campaign::new(&inputs)
        .recycle_tables(true)
        .shards(workers)
        .chunk_size(chunk_size)
        .run();
    let metrics = parallel.metrics.expect("sharded campaigns carry metrics");

    let serial_json = serde_json::to_string(&serial.report).expect("serial report");
    let parallel_json = serde_json::to_string(&parallel.report).expect("parallel report");

    let summary = Summary {
        inputs: inputs.len(),
        observations: metrics.observations,
        distinct_discrepancies: parallel.report.distinct(),
        reports_identical: serial_json == parallel_json,
        recycle_tables: true,
        serial_micros,
        serial_obs_per_sec: serial.observations.len() as f64
            / (serial_micros.max(1) as f64 / 1_000_000.0),
        parallel_micros: metrics.total_micros,
        parallel_obs_per_sec: metrics.observations_per_sec,
        speedup: serial_micros as f64 / metrics.total_micros.max(1) as f64,
        campaign: metrics,
    };
    println!(
        "{}",
        serde_json::to_string_pretty(&summary).expect("summary serializes")
    );
    println!(
        "BENCH_campaign {}",
        serde_json::to_string(&summary).expect("summary serializes")
    );
    trajectory::append("BENCH_campaign.json", "campaign", &summary).expect("trajectory append");
    assert!(summary.reports_identical, "parallel report diverged");
    assert_eq!(summary.distinct_discrepancies, 15);
}
