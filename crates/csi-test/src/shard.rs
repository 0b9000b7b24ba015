//! The one ordered executor, and the sharded cross-test built on it.
//!
//! Every campaign mode — cross-test, fault matrix, explore and compound —
//! runs serial and sharded through [`ordered_map`], the only place the
//! workspace's libraries spawn worker threads, so serial == sharded holds
//! by construction.
//!
//! The cross-test campaign ([`run_cross_test`]) shards the (experiment,
//! plan, format, input) space into (experiment, plan, format,
//! input-chunk) work units:
//!
//! - **One deployment per worker** — a worker holds one
//!   Metastore/MiniHdfs/SparkSession/HiveQl stack at a time, serving one
//!   experiment, and releases it when it claims a unit of the next
//!   experiment. Claims come in increasing order, so a worker never
//!   returns to an earlier experiment: this is the serial loop's
//!   acquire/release pattern, and workers never contend on engine locks.
//! - **Deterministic merge** — workers only *record* observations. The
//!   merge walks the units in canonical (experiment, plan, format,
//!   input-id) order and only then runs the write–read, error-handling,
//!   and differential oracles, so failures come out in exactly the serial
//!   order and the [`DiscrepancyReport`] is byte-identical at any worker
//!   count.
//! - **Campaign metrics** — observations/sec, per-phase wall time, and
//!   per-worker utilization are surfaced in [`CampaignMetrics`] for the
//!   `campaign` bench binary.
//!
//! [`DiscrepancyReport`]: csi_core::report::DiscrepancyReport

use crate::classify;
use crate::exec::{
    acquire_deployment, check_observation, release_deployment, run_one, CrossTestConfig,
    CrossTestOutcome, Deployment,
};
use crate::generator::TestInput;
use crate::plan::{Experiment, TestPlan};
use csi_core::oracle::{check_differential, Observation, OracleFailure};
use minihive::metastore::StorageFormat;
use serde::Serialize;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// Execution statistics for one worker of the pool.
#[derive(Debug, Clone, Serialize)]
pub struct WorkerStats {
    /// Worker index within the pool.
    pub worker: usize,
    /// Work units (shards, matrix cells, trials) this worker executed.
    pub shards: usize,
    /// Observations this worker recorded (cross-test campaigns only).
    pub observations: usize,
    /// Time spent executing shards, in microseconds.
    pub busy_micros: u64,
    /// `busy` as a fraction of the worker's lifetime (0.0–1.0).
    pub utilization: f64,
}

/// Wall-time and throughput metrics for one cross-test campaign.
#[derive(Debug, Clone, Serialize)]
pub struct CampaignMetrics {
    /// Workers in the pool.
    pub workers: usize,
    /// Work units the campaign was sharded into.
    pub shards: usize,
    /// Total observations recorded.
    pub observations: usize,
    /// Wall time of the execute phase, in microseconds.
    pub execute_micros: u64,
    /// Wall time of the merge phase (oracles + classification) — the
    /// campaign's oracle overhead, in microseconds.
    pub oracle_micros: u64,
    /// End-to-end wall time, in microseconds.
    pub total_micros: u64,
    /// Observations recorded per second of execute-phase wall time.
    pub observations_per_sec: f64,
    /// Per-worker breakdown.
    pub per_worker: Vec<WorkerStats>,
}

/// One work unit: a contiguous slice of the input catalogue under a fixed
/// (experiment, plan, format). Shards are generated in canonical executor
/// order, so a shard's position in the vector *is* its merge position.
struct Shard {
    experiment_idx: usize,
    experiment: Experiment,
    plan: TestPlan,
    format: StorageFormat,
    lo: usize,
    hi: usize,
}

/// Enumerates shards in canonical nesting order:
/// experiment, then plan, then format, then input chunks.
fn build_shards(inputs_len: usize, config: &CrossTestConfig, chunk_size: usize) -> Vec<Shard> {
    let mut shards = Vec::new();
    for (experiment_idx, &experiment) in config.experiments.iter().enumerate() {
        for plan in experiment.plans() {
            for &format in &config.formats {
                let mut lo = 0;
                while lo < inputs_len {
                    let hi = (lo + chunk_size).min(inputs_len);
                    shards.push(Shard {
                        experiment_idx,
                        experiment,
                        plan,
                        format,
                        lo,
                        hi,
                    });
                    lo = hi;
                }
            }
        }
    }
    shards
}

/// Maps `step` over `items` on `workers` threads and returns the results
/// in item order, with each worker's final state and statistics.
///
/// Workers claim items off one shared counter; each builds its state with
/// `init` once and threads it through every `step` it runs. The calling
/// thread is worker 0, so one worker runs everything inline. `workers` is
/// clamped to `1..=items.len()` (`0` means one worker; empty input runs
/// `init` once on the caller and spawns nothing). A panicking `step`
/// propagates to the caller once the other workers have drained the
/// remaining items.
pub(crate) fn ordered_map<T, S, R>(
    items: &[T],
    workers: usize,
    init: impl Fn() -> S + Sync,
    step: impl Fn(&mut S, &T) -> R + Sync,
) -> (Vec<R>, Vec<(S, WorkerStats)>)
where
    T: Sync,
    S: Send,
    R: Send,
{
    let workers = workers.clamp(1, items.len().max(1));
    let next = AtomicUsize::new(0);
    let work = |worker: usize| {
        let started = Instant::now();
        let mut state = init();
        let mut done = Vec::new();
        let mut busy_micros = 0u64;
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            let Some(item) = items.get(i) else { break };
            let item_started = Instant::now();
            done.push((i, step(&mut state, item)));
            busy_micros += item_started.elapsed().as_micros() as u64;
        }
        let lifetime_micros = started.elapsed().as_micros().max(1) as u64;
        let stats = WorkerStats {
            worker,
            shards: done.len(),
            observations: 0,
            busy_micros,
            utilization: busy_micros as f64 / lifetime_micros as f64,
        };
        (done, state, stats)
    };
    let finished = std::thread::scope(|scope| {
        let work = &work;
        let spawned: Vec<_> = (1..workers)
            .map(|worker| scope.spawn(move || work(worker)))
            .collect();
        let mut finished = vec![work(0)];
        finished.extend(spawned.into_iter().map(|handle| {
            handle
                .join()
                .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
        }));
        finished
    });
    let mut results = Vec::with_capacity(items.len());
    let mut per_worker = Vec::with_capacity(workers);
    for (done, state, stats) in finished {
        results.extend(done);
        per_worker.push((state, stats));
    }
    results.sort_unstable_by_key(|&(i, _)| i);
    (results.into_iter().map(|(_, r)| r).collect(), per_worker)
}

/// Runs the full cross-test on `workers` workers (`0` or `1` runs inline
/// on the caller) and merges the shard results back into canonical order
/// — the executor behind every cross-test [`crate::Campaign`].
///
/// The returned [`CrossTestOutcome`] — observations, failure ordering,
/// and the classified [`DiscrepancyReport`] — is the same at every worker
/// count and chunk size; only the wall time differs. See the module docs
/// for how the merge guarantees this.
///
/// [`DiscrepancyReport`]: csi_core::report::DiscrepancyReport
pub(crate) fn run_cross_test(
    inputs: &[TestInput],
    config: &CrossTestConfig,
    workers: usize,
    chunk_size: usize,
) -> (CrossTestOutcome, CampaignMetrics) {
    let campaign_started = Instant::now();
    let shards = build_shards(inputs.len(), config, chunk_size.max(1));
    // Worker state: the deployment serving the worker's current
    // experiment, and the observations it has recorded.
    let init = || (None::<(usize, Deployment)>, 0);
    let (batches, finished) = ordered_map(&shards, workers, init, |(held, observed), shard| {
        if held.as_ref().map(|(idx, _)| *idx) != Some(shard.experiment_idx) {
            // Claims arrive in increasing shard order, so this worker is
            // done with its previous experiment: hand that stack back
            // before taking one for the next.
            if let Some((_, done)) = held.take() {
                release_deployment(config, done);
            }
            *held = Some((shard.experiment_idx, acquire_deployment(config)));
        }
        let (_, deployment) = held.as_ref().expect("acquired above");
        let batch: Vec<Observation> = inputs[shard.lo..shard.hi]
            .iter()
            .map(|input| {
                run_one(
                    deployment,
                    shard.experiment,
                    shard.plan,
                    shard.format,
                    input,
                    config.recycle_tables,
                )
            })
            .collect();
        *observed += batch.len();
        batch
    });
    let per_worker: Vec<WorkerStats> = finished
        .into_iter()
        .map(|((held, observations), stats)| {
            if let Some((_, deployment)) = held {
                release_deployment(config, deployment);
            }
            WorkerStats {
                observations,
                ..stats
            }
        })
        .collect();

    let execute_micros = campaign_started.elapsed().as_micros() as u64;
    let merge_started = Instant::now();

    // Deterministic merge: batch order is canonical shard order, so walking
    // the batches replays the serial observation sequence; the oracles
    // then fire in exactly the serial order.
    let mut observations: Vec<(Experiment, Observation)> = Vec::new();
    let mut failures: Vec<OracleFailure> = Vec::new();
    let mut units = shards.iter().zip(batches).peekable();
    for (experiment_idx, &experiment) in config.experiments.iter().enumerate() {
        let mut exp_observations: Vec<Observation> = Vec::new();
        while let Some((shard, batch)) =
            units.next_if(|(shard, _)| shard.experiment_idx == experiment_idx)
        {
            for (input, obs) in inputs[shard.lo..shard.hi].iter().zip(&batch) {
                if let Some(f) = check_observation(input, obs) {
                    failures.push(f);
                }
            }
            exp_observations.extend(batch);
        }
        failures.extend(check_differential(&exp_observations));
        observations.extend(exp_observations.into_iter().map(|o| (experiment, o)));
    }
    let report = classify::classify(inputs, &observations, failures, config.detector.is_some());

    let oracle_micros = merge_started.elapsed().as_micros() as u64;
    let total_micros = campaign_started.elapsed().as_micros() as u64;
    let metrics = CampaignMetrics {
        workers: per_worker.len(),
        shards: shards.len(),
        observations: observations.len(),
        execute_micros,
        oracle_micros,
        total_micros,
        observations_per_sec: observations.len() as f64
            / (execute_micros.max(1) as f64 / 1_000_000.0),
        per_worker,
    };
    (
        CrossTestOutcome {
            report,
            observations,
        },
        metrics,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::Campaign;
    use crate::exec::run_cross_test_serial;
    use crate::generator::{generate_inputs, Validity};
    use crate::pool::DeploymentPool;
    use csi_core::value::{DataType, Value};
    use std::sync::Arc;
    use std::time::Duration;

    fn small_inputs() -> Vec<TestInput> {
        [
            (DataType::Byte, Value::Byte(5), Validity::Valid),
            (DataType::Int, Value::Int(7), Validity::Valid),
            (DataType::Byte, Value::Int(4096), Validity::Invalid),
            (DataType::String, Value::Str("x".into()), Validity::Valid),
        ]
        .into_iter()
        .enumerate()
        .map(|(id, (column_type, value, validity))| TestInput {
            id,
            column_type,
            value,
            validity,
            label: format!("input {id}"),
            expected_back: None,
        })
        .collect()
    }

    #[test]
    fn shards_cover_the_space_in_canonical_order() {
        let config = CrossTestConfig::default();
        let shards = build_shards(10, &config, 3);
        // 8 plans x 3 formats x ceil(10 / 3) chunks.
        assert_eq!(shards.len(), 8 * 3 * 4);
        let mut prev = (0, 0);
        let mut covered = 0;
        for s in &shards {
            assert!((s.experiment_idx, s.lo) >= (prev.0, 0));
            prev = (s.experiment_idx, s.lo);
            assert!(s.lo < s.hi && s.hi <= 10);
            covered += s.hi - s.lo;
        }
        assert_eq!(covered, 8 * 3 * 10);
    }

    #[test]
    fn parallel_matches_serial_on_small_catalogue() {
        let inputs = small_inputs();
        let config = CrossTestConfig::default();
        let serial = run_cross_test_serial(&inputs, &config);
        for workers in [1, 3] {
            let (outcome, metrics) = run_cross_test(&inputs, &config, workers, 2);
            assert_eq!(outcome.observations, serial.observations);
            assert_eq!(outcome.report, serial.report);
            assert_eq!(metrics.workers, workers);
            assert_eq!(metrics.observations, serial.observations.len());
            let by_worker: usize = metrics.per_worker.iter().map(|w| w.observations).sum();
            assert_eq!(by_worker, serial.observations.len());
        }
    }

    #[test]
    fn recycling_does_not_change_the_report() {
        let inputs = small_inputs();
        let plain = run_cross_test_serial(&inputs, &CrossTestConfig::default());
        let (recycled, _) = run_cross_test(
            &inputs,
            &CrossTestConfig {
                recycle_tables: true,
                ..CrossTestConfig::default()
            },
            2,
            1,
        );
        assert_eq!(recycled.report, plain.report);
        assert_eq!(recycled.observations, plain.observations);
    }

    #[test]
    fn metrics_are_serializable_to_json() {
        let inputs = small_inputs();
        let (_, metrics) = run_cross_test(&inputs, &CrossTestConfig::default(), 2, 2);
        let json = serde_json::to_string(&metrics).expect("metrics serialize");
        assert!(json.contains("\"observations_per_sec\""));
        assert!(json.contains("\"per_worker\""));
    }

    #[test]
    fn a_sharded_pooled_campaign_holds_one_deployment_per_worker() {
        let inputs = generate_inputs();
        let inputs = &inputs[..8];
        let pool = Arc::new(DeploymentPool::new());
        let pooled = Campaign::new(inputs)
            .shards(2)
            .chunk_size(2)
            .pool(pool.clone())
            .run();
        let fresh = Campaign::new(inputs).run();
        assert_eq!(pooled.report, fresh.report);
        let stats = pool.stats();
        assert!(stats.created <= 2, "{stats:?}");
        assert_eq!(stats.shelved as u64, stats.created);
    }

    #[test]
    fn ordered_map_returns_item_order_under_skewed_cost_and_inits_once_per_worker() {
        let inits = AtomicUsize::new(0);
        let items: Vec<u64> = (0..12).collect();
        let init = || inits.fetch_add(1, Ordering::Relaxed);
        let (results, per_worker) = ordered_map(&items, 4, init, |_, &i| {
            // Earlier items cost more, so later ones finish first.
            std::thread::sleep(Duration::from_millis(2 * (12 - i)));
            i * 10
        });
        assert_eq!(results, items.iter().map(|i| i * 10).collect::<Vec<_>>());
        assert_eq!(inits.load(Ordering::Relaxed), 4);
        let workers: Vec<usize> = per_worker.iter().map(|(_, w)| w.worker).collect();
        assert_eq!(workers, [0, 1, 2, 3]);
        let claimed: usize = per_worker.iter().map(|(_, w)| w.shards).sum();
        assert_eq!(claimed, items.len());
    }

    #[test]
    fn ordered_map_clamps_workers_and_runs_worker_0_on_the_caller() {
        let caller = std::thread::current().id();
        // (items, workers asked, workers run): empty input spawns nothing.
        for (n, asked, expected) in [(2, 0, 1), (2, 1, 1), (2, 2, 2), (2, 8, 2), (0, 4, 1)] {
            let items: Vec<usize> = (0..n).collect();
            let (results, per_worker) =
                ordered_map(&items, asked, || std::thread::current().id(), |_, &i| i);
            assert_eq!(results, items);
            assert_eq!(per_worker.len(), expected, "{n} items, {asked} asked");
            assert_eq!(per_worker[0].0, caller);
        }
    }

    #[test]
    fn ordered_map_propagates_a_panicking_step() {
        let items: Vec<usize> = (0..16).collect();
        for workers in [1, 3] {
            let panic = std::panic::catch_unwind(|| {
                ordered_map(
                    &items,
                    workers,
                    || (),
                    |_, &i| {
                        assert_ne!(i, 9, "step failed on item 9");
                        i
                    },
                )
            })
            .expect_err("the panic reaches the caller");
            let message = panic.downcast_ref::<String>().cloned().unwrap_or_default();
            assert!(message.contains("step failed on item 9"), "{message}");
        }
    }
}
