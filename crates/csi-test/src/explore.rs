//! Coverage-guided campaign exploration (the `Campaign::explore` mode).
//!
//! The exhaustive Section 8 grid enumerates every (experiment, plan,
//! format, input) cell; its interesting discrepancies cluster in a small
//! residue. This mode spends a bounded observation budget where the
//! feedback says it matters: each observation's boundary-crossing trace is
//! distilled into a [`CoverageSignature`] (crossing tuples plus classifier
//! tags), inputs that produce *novel* signatures enter a corpus, and corpus
//! entries earn a full plan×format sweep, deterministic mutants
//! ([`crate::generator::mutate_input`]), and a fault overlay from
//! [`crate::inject::fault_catalogue`] — all scheduled ahead of fresh draws
//! from the grid.
//!
//! Determinism is load-bearing, exactly as everywhere else in the harness:
//! scheduling is a pure function of (seed, inputs, budget); batches run on
//! the ordered executor ([`crate::shard::ordered_map`]), which returns
//! observations in trial order; absorption happens in that order. A sharded explore run is byte-identical to a
//! serial one, pinned by `tests/explore.rs`.

use crate::classify;
use crate::exec::{self, CrossTestConfig, Deployment};
use crate::generator::{mutate_input, TestInput, Validity};
use crate::inject;
use crate::plan::{Experiment, TestPlan};
use crate::shard::ordered_map;
use crate::shrink;
use csi_core::boundary::{CrossingContext, CrossingOutcome};
use csi_core::coverage::{CoverageMap, CoverageSignature};
use csi_core::fault::{classify_fault_outcome, Channel, FaultSpec, InjectedFault};
use csi_core::oracle::{check_differential, Observation, OracleFailure};
use csi_core::report::{CorpusRow, DiscoveryRow, DiscrepancyReport, ExplorationStats};
use csi_core::value::DataType;
use minihive::metastore::StorageFormat;
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// Trials scheduled (and absorbed) per round. Rounds bound how stale the
/// coverage feedback can get under sharding: every worker sees a schedule
/// derived from all observations of the previous round.
const ROUND: usize = 64;

/// Mutants scheduled per corpus admission.
const MUTANTS_PER_ENTRY: usize = 4;

/// Fault-overlay trials scheduled per corpus admission.
const FAULTS_PER_ENTRY: usize = 2;

/// The result of one exploration run, consumed by `Campaign::run`.
pub(crate) struct ExploreResult {
    /// The classified report over every fault-free observation.
    pub report: DiscrepancyReport,
    /// Fault-free observations, grouped by experiment in canonical order,
    /// execution order within.
    pub observations: Vec<(Experiment, Observation)>,
    /// Corpus / coverage / shrink statistics for the `Render` path.
    pub stats: ExplorationStats,
    /// One minimized reproducer per shrunk discrepancy.
    pub reproducers: Vec<shrink::ShrunkReproducer>,
}

/// One scheduled execution: an input on a (experiment, plan, format) cell,
/// optionally under an injected fault.
#[derive(Debug, Clone)]
struct Trial {
    input_idx: usize,
    combo: usize,
    fault: Option<FaultSpec>,
}

struct Explorer {
    combos: Vec<(Experiment, TestPlan, StorageFormat)>,
    experiments: Vec<Experiment>,
    pool: Vec<TestInput>,
    seed_count: usize,
    /// Inputs with ids at or above this are mutants.
    first_mutant_id: usize,
    /// Seed inputs with ids in `corpus_floor..first_mutant_id` are
    /// synthesized corpus seeds (`InputSelection::Corpus` appends them
    /// above the catalogue); with no corpus region this equals
    /// `first_mutant_id` and nothing qualifies.
    corpus_floor: usize,
    /// Seed-grid visiting order: corpus-region indices first, so a small
    /// budget reaches realistic inputs in round one. Identity when there
    /// is no corpus region.
    order: Vec<usize>,
    next_id: usize,
    shards: usize,
    /// Cells already scheduled: (input id, combo, fault id).
    scheduled: BTreeSet<(usize, usize, Option<String>)>,
    pending: VecDeque<Trial>,
    /// Fine-grained coverage (including `decl:` declared-type tags): the
    /// signature set reports expose and the corpus-vs-catalogue diff is
    /// computed on.
    map: CoverageMap,
    /// Coarse coverage (no `decl:` tags): the scheduling signal. Corpus
    /// admission keys off this map so splitting DECIMAL(10,2) from
    /// DECIMAL(38,10) in *reported* coverage does not flood the pending
    /// queue with sweeps — a catalogue-only exploration schedules exactly
    /// as it did before declared types were tracked.
    sched_map: CoverageMap,
    corpus_ids: BTreeSet<usize>,
    corpus: Vec<CorpusRow>,
    // Grid cursor state: pass-major, input-minor, combo rotated per pass.
    pass: usize,
    cursor: usize,
    seed_rot: usize,
    // Accumulated results.
    executed: usize,
    fresh: usize,
    mutated: usize,
    faulted: usize,
    novel_from_mutation: usize,
    novel_from_corpus: usize,
    exp_obs: Vec<Vec<Observation>>,
    obs_failures: Vec<OracleFailure>,
    summaries: BTreeMap<usize, classify::InputSummary>,
    discovered: BTreeMap<&'static str, DiscoveryRow>,
    faults: Vec<FaultSpec>,
    fault_rotor: usize,
}

fn type_tag(ty: &DataType) -> String {
    match ty {
        DataType::Decimal(_, _) => "decimal".into(),
        DataType::Char(_) => "char".into(),
        DataType::Varchar(_) => "varchar".into(),
        DataType::Array(_) => "array".into(),
        DataType::Map(_, _) => "map".into(),
        DataType::Struct(_) => "struct".into(),
        other => format!("{other:?}").to_ascii_lowercase(),
    }
}

impl Explorer {
    fn new(
        inputs: &[TestInput],
        experiments: &[Experiment],
        formats: &[StorageFormat],
        seed: u64,
        shards: usize,
        corpus_floor: Option<usize>,
    ) -> Explorer {
        let mut combos = Vec::new();
        for &exp in experiments {
            for plan in exp.plans() {
                for &fmt in formats {
                    combos.push((exp, plan, fmt));
                }
            }
        }
        let first_mutant_id = inputs.iter().map(|i| i.id + 1).max().unwrap_or(0);
        let corpus_floor = corpus_floor.unwrap_or(first_mutant_id);
        let mut order: Vec<usize> = (0..inputs.len())
            .filter(|&i| inputs[i].id >= corpus_floor)
            .collect();
        order.extend((0..inputs.len()).filter(|&i| inputs[i].id < corpus_floor));
        let seed_rot = if combos.is_empty() {
            0
        } else {
            (seed % combos.len() as u64) as usize
        };
        // Only metastore and filesystem faults can fire inside a
        // cross-testing deployment; the rest of the catalogue targets
        // stacks the explore trials never build.
        let faults: Vec<FaultSpec> = inject::fault_catalogue(seed)
            .faults
            .into_iter()
            .filter(|f| matches!(f.channel, Channel::Metastore | Channel::Hdfs))
            .collect();
        Explorer {
            combos,
            experiments: experiments.to_vec(),
            pool: inputs.to_vec(),
            seed_count: inputs.len(),
            first_mutant_id,
            corpus_floor,
            order,
            next_id: first_mutant_id,
            shards,
            scheduled: BTreeSet::new(),
            pending: VecDeque::new(),
            map: CoverageMap::new(),
            sched_map: CoverageMap::new(),
            corpus_ids: BTreeSet::new(),
            corpus: Vec::new(),
            pass: 0,
            cursor: 0,
            seed_rot,
            executed: 0,
            fresh: 0,
            mutated: 0,
            faulted: 0,
            novel_from_mutation: 0,
            novel_from_corpus: 0,
            exp_obs: vec![Vec::new(); experiments.len()],
            obs_failures: Vec::new(),
            summaries: BTreeMap::new(),
            discovered: BTreeMap::new(),
            faults,
            fault_rotor: 0,
        }
    }

    fn trial_key(&self, t: &Trial) -> (usize, usize, Option<String>) {
        (
            self.pool[t.input_idx].id,
            t.combo,
            t.fault.as_ref().map(|f| f.id.clone()),
        )
    }

    /// The fine-grained variant of a signature: the coarse signature plus
    /// the input's declared SQL type, width and precision included —
    /// reported coverage distinguishes DECIMAL(24,6) from DECIMAL(10,2)
    /// traffic, which is what lets corpus-only declarations register as
    /// novel signatures in the corpus-vs-catalogue diff.
    fn fine(&self, sig: &CoverageSignature, input: &TestInput) -> CoverageSignature {
        let mut fine = sig.clone();
        fine.tag(format!("decl:{}", input.column_type.sql_name()));
        fine
    }

    /// The `"grid"` / `"corpus"` / `"mutation"` origin of an input id.
    fn origin(&self, id: usize) -> &'static str {
        if id >= self.first_mutant_id {
            "mutation"
        } else if id >= self.corpus_floor {
            "corpus"
        } else {
            "grid"
        }
    }

    /// The next unexecuted cell of the seed grid, rotating the combo per
    /// pass so early passes spread inputs across plans and formats. The
    /// [`Explorer::order`] vector puts the corpus region ahead of the
    /// catalogue within each pass.
    fn next_grid(&mut self) -> Option<Trial> {
        let c = self.combos.len();
        while self.pass < c {
            while self.cursor < self.seed_count {
                let i = self.order[self.cursor];
                self.cursor += 1;
                let combo = (i + self.pass + self.seed_rot) % c;
                let key = (self.pool[i].id, combo, None);
                if !self.scheduled.contains(&key) {
                    self.scheduled.insert(key);
                    return Some(Trial {
                        input_idx: i,
                        combo,
                        fault: None,
                    });
                }
            }
            self.cursor = 0;
            self.pass += 1;
        }
        None
    }

    /// Schedules up to `n` trials: the corpus-derived queue first, fresh
    /// grid draws as filler. Pure function of prior absorption order.
    fn schedule_round(&mut self, n: usize) -> Vec<Trial> {
        let mut batch = Vec::new();
        while batch.len() < n {
            if let Some(t) = self.pending.pop_front() {
                let key = self.trial_key(&t);
                if self.scheduled.contains(&key) {
                    continue;
                }
                self.scheduled.insert(key);
                batch.push(t);
                continue;
            }
            match self.next_grid() {
                Some(t) => batch.push(t),
                None => break,
            }
        }
        batch
    }

    fn run_trial(&self, trial: &Trial, pools: &mut BTreeMap<usize, Deployment>) -> Observation {
        let (exp, plan, fmt) = self.combos[trial.combo];
        let input = &self.pool[trial.input_idx];
        match &trial.fault {
            Some(fault) => {
                // Hermetic: a fresh context pre-armed with exactly this
                // fault, exactly like a fault-matrix probe cell.
                let ctx = CrossingContext::new();
                ctx.arm(fault.clone());
                let d = Deployment::with_crossing(&CrossTestConfig::default(), ctx);
                exec::run_one(&d, exp, plan, fmt, input, false)
            }
            None => {
                let exp_idx = self
                    .experiments
                    .iter()
                    .position(|e| *e == exp)
                    .expect("combo experiment is configured");
                let d = pools
                    .entry(exp_idx)
                    .or_insert_with(|| Deployment::new(&CrossTestConfig::default()));
                // Recycling keeps each worker's metastore footprint at one
                // table and makes observations independent of what the
                // deployment ran before — the sharding byte-identity lever.
                exec::run_one(d, exp, plan, fmt, input, true)
            }
        }
    }

    /// Executes a batch on `shards` workers, each keeping its own
    /// per-experiment deployments; results come back in trial order.
    fn execute_batch(&self, batch: &[Trial]) -> Vec<Observation> {
        ordered_map(batch, self.shards, BTreeMap::new, |pools, t| {
            self.run_trial(t, pools)
        })
        .0
    }

    /// Absorbs one observation, in trial order: coverage, corpus
    /// admission, and (for fault-free trials) the report stream.
    fn absorb(&mut self, trial: &Trial, obs: Observation) {
        self.executed += 1;
        let input = self.pool[trial.input_idx].clone();
        let is_mutant = input.id >= self.first_mutant_id;
        let origin = self.origin(input.id);
        let mut sig = CoverageSignature::from_trace(&obs.trace);
        sig.tag(format!("ty:{}", type_tag(&input.column_type)));
        sig.tag(match input.validity {
            Validity::Valid => "valid",
            Validity::Invalid => "invalid",
        });
        if let Some(fault) = &trial.fault {
            self.faulted += 1;
            let fired: Vec<InjectedFault> = obs
                .trace
                .crossings
                .iter()
                .filter_map(|c| match &c.outcome {
                    CrossingOutcome::Faulted { fault } => Some(fault.clone()),
                    _ => None,
                })
                .collect();
            let surfaced = exec::surfaced_error(&obs);
            let bucket = classify_fault_outcome(&fired, surfaced.as_ref());
            sig.tag(format!("fault:{}:{bucket}", fault.channel));
            // Fault observations feed coverage only; they stay out of the
            // classified report, whose oracles assume a fault-free stack.
            self.sched_map.observe(&sig, self.executed);
            if self.map.observe(&self.fine(&sig, &input), self.executed) {
                match origin {
                    "mutation" => self.novel_from_mutation += 1,
                    "corpus" => self.novel_from_corpus += 1,
                    _ => {}
                }
            }
            return;
        }
        if is_mutant {
            self.mutated += 1;
        } else {
            self.fresh += 1;
        }
        // Fold this observation's error codes into the per-input summary
        // *before* matching predicates, exactly like the batch classifier.
        let summary = self.summaries.entry(input.id).or_default();
        if let Err(e) = &obs.write.result {
            summary.codes.insert(e.code.clone());
            sig.tag(format!("code:{}", e.code));
        }
        if let Some(read) = &obs.read {
            if let Err(e) = &read.result {
                summary.codes.insert(e.code.clone());
                sig.tag(format!("code:{}", e.code));
            }
        }
        let summary = summary.clone();
        let failure = exec::check_observation(&input, &obs);
        if let Some(f) = &failure {
            sig.tag(format!("oracle:{}", f.oracle));
            for id in classify::match_ids(&input, &summary, f) {
                sig.tag(format!("d:{id}"));
            }
        }
        if self.map.observe(&self.fine(&sig, &input), self.executed) {
            match origin {
                "mutation" => self.novel_from_mutation += 1,
                "corpus" => self.novel_from_corpus += 1,
                _ => {}
            }
        }
        // Admission keys off coarse novelty, so declared-type granularity
        // never changes what gets scheduled.
        let novel = self.sched_map.observe(&sig, self.executed);
        if novel && !self.corpus_ids.contains(&input.id) {
            self.corpus_ids.insert(input.id);
            self.corpus.push(CorpusRow {
                input_id: input.id,
                label: input.label.clone(),
                origin: origin.into(),
                executed: self.executed,
            });
            self.expand_corpus_entry(trial.input_idx, trial.combo, is_mutant);
        }
        let exp_idx = self
            .experiments
            .iter()
            .position(|e| *e == self.combos[trial.combo].0)
            .expect("combo experiment is configured");
        if let Some(f) = failure {
            self.obs_failures.push(f);
        }
        self.exp_obs[exp_idx].push(obs);
    }

    /// A corpus admission earns: a full combo sweep, deterministic mutants
    /// on a few spread-out combos, and a fault overlay on the discovering
    /// combo. Everything lands on the pending queue ahead of fresh draws.
    fn expand_corpus_entry(&mut self, input_idx: usize, parent_combo: usize, is_mutant: bool) {
        let c = self.combos.len();
        for combo in 0..c {
            self.pending.push_back(Trial {
                input_idx,
                combo,
                fault: None,
            });
        }
        if !is_mutant {
            let mutants = mutate_input(&self.pool[input_idx]);
            for (k, mut m) in mutants.into_iter().take(MUTANTS_PER_ENTRY).enumerate() {
                m.id = self.next_id;
                self.next_id += 1;
                self.pool.push(m);
                let mi = self.pool.len() - 1;
                for off in [0usize, 5, 11] {
                    self.pending.push_back(Trial {
                        input_idx: mi,
                        combo: (parent_combo + off + k) % c,
                        fault: None,
                    });
                }
            }
        }
        if !self.faults.is_empty() {
            for _ in 0..FAULTS_PER_ENTRY {
                let fault = self.faults[self.fault_rotor % self.faults.len()].clone();
                self.fault_rotor += 1;
                self.pending.push_back(Trial {
                    input_idx,
                    combo: parent_combo,
                    fault: Some(fault),
                });
            }
        }
    }

    /// Records first-discovery execution counts: after each round, every
    /// not-yet-seen catalogue id is checked against the failures known so
    /// far (per-observation plus freshly recomputed differential).
    fn update_discoveries(&mut self) {
        let undiscovered: Vec<&'static str> = classify::catalogue_ids()
            .into_iter()
            .filter(|id| !self.discovered.contains_key(id))
            .collect();
        if undiscovered.is_empty() {
            return;
        }
        let mut failures: Vec<OracleFailure> = self.obs_failures.clone();
        for obs in &self.exp_obs {
            failures.extend(check_differential(obs));
        }
        let empty = classify::InputSummary::default();
        for id in undiscovered {
            for f in &failures {
                let Some(input) = self.pool.iter().find(|i| i.id == f.input_id) else {
                    continue;
                };
                let summary = self.summaries.get(&f.input_id).unwrap_or(&empty);
                if classify::match_ids(input, summary, f).contains(&id) {
                    let origin = self.origin(f.input_id);
                    self.discovered.insert(
                        id,
                        DiscoveryRow {
                            id: id.to_string(),
                            executed: self.executed,
                            origin: origin.into(),
                        },
                    );
                    break;
                }
            }
        }
    }
}

/// Runs a coverage-guided exploration of `budget` observations over the
/// given experiments and formats, then shrinks every reported discrepancy
/// to a 1-row/1-column reproducer.
///
/// `corpus_floor` is the id of the first synthesized corpus seed when the
/// input pool carries a corpus region
/// ([`InputSelection::corpus_floor`](crate::InputSelection::corpus_floor));
/// `None` treats every seed input as catalogue.
pub(crate) fn run_explore(
    inputs: &[TestInput],
    experiments: &[Experiment],
    formats: &[StorageFormat],
    seed: u64,
    budget: usize,
    shards: usize,
    corpus_floor: Option<usize>,
) -> ExploreResult {
    let mut ex = Explorer::new(inputs, experiments, formats, seed, shards, corpus_floor);
    while ex.executed < budget {
        let batch = ex.schedule_round(ROUND.min(budget - ex.executed));
        if batch.is_empty() {
            break;
        }
        let observations = ex.execute_batch(&batch);
        for (trial, obs) in batch.iter().zip(observations) {
            ex.absorb(trial, obs);
        }
        ex.update_discoveries();
    }
    let mut failures = ex.obs_failures.clone();
    let mut observations: Vec<(Experiment, Observation)> = Vec::new();
    for (ei, &exp) in ex.experiments.iter().enumerate() {
        failures.extend(check_differential(&ex.exp_obs[ei]));
        observations.extend(ex.exp_obs[ei].iter().cloned().map(|o| (exp, o)));
    }
    let report = classify::classify(&ex.pool, &observations, failures, false);
    let (shrinks, reproducers) = shrink::shrink_report(&report, &ex.pool);
    let mut discoveries: Vec<DiscoveryRow> = ex.discovered.into_values().collect();
    discoveries.sort_by(|a, b| a.executed.cmp(&b.executed).then_with(|| a.id.cmp(&b.id)));
    let stats = ExplorationStats {
        seed,
        budget,
        grid_cells: ex.seed_count * ex.combos.len(),
        executed: ex.executed,
        fresh: ex.fresh,
        mutated: ex.mutated,
        faulted: ex.faulted,
        signatures: ex.map.distinct(),
        novel_from_mutation: ex.novel_from_mutation,
        novel_from_corpus: ex.novel_from_corpus,
        signatures_seen: ex.map.fingerprints(),
        corpus: ex.corpus,
        discoveries,
        shrinks,
    };
    ExploreResult {
        report,
        observations,
        stats,
        reproducers,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::generate_inputs;

    #[test]
    fn grid_cursor_visits_every_cell_exactly_once() {
        let inputs = generate_inputs();
        let mut ex = Explorer::new(
            &inputs[..5],
            &[Experiment::ALL[0]],
            StorageFormat::ALL.as_ref(),
            7,
            1,
            None,
        );
        let cells = ex.seed_count * ex.combos.len();
        let mut seen = BTreeSet::new();
        while let Some(t) = ex.next_grid() {
            assert!(seen.insert((ex.pool[t.input_idx].id, t.combo)), "revisit");
        }
        assert_eq!(seen.len(), cells);
    }

    #[test]
    fn exploration_is_deterministic_for_a_fixed_seed() {
        let inputs = generate_inputs();
        let run = || {
            run_explore(
                &inputs[..6],
                &[Experiment::ALL[0]],
                &[StorageFormat::Orc, StorageFormat::Avro],
                42,
                40,
                1,
                None,
            )
        };
        let a = run();
        let b = run();
        assert_eq!(
            serde_json::to_string(&a.stats).unwrap(),
            serde_json::to_string(&b.stats).unwrap()
        );
        assert_eq!(
            serde_json::to_string(&a.report).unwrap(),
            serde_json::to_string(&b.report).unwrap()
        );
        assert_eq!(a.stats.executed, 40);
    }

    #[test]
    fn corpus_grows_and_mutants_run_within_a_small_budget() {
        let inputs = generate_inputs();
        let result = run_explore(
            &inputs[..8],
            &[Experiment::ALL[0]],
            StorageFormat::ALL.as_ref(),
            1,
            120,
            1,
            None,
        );
        assert!(!result.stats.corpus.is_empty());
        assert!(result.stats.mutated > 0, "no mutants executed");
        assert!(result.stats.signatures > 1);
        assert_eq!(
            result.stats.fresh + result.stats.mutated + result.stats.faulted,
            result.stats.executed
        );
        assert_eq!(result.stats.signatures_seen.len(), result.stats.signatures);
    }

    #[test]
    fn corpus_region_is_scheduled_first_and_attributed_as_corpus() {
        // Three catalogue inputs plus a small corpus region above them.
        let mut inputs: Vec<TestInput> = generate_inputs().into_iter().take(3).collect();
        let floor = inputs.len();
        inputs.extend(crate::corpus::synthesize_inputs(
            &crate::corpus::CorpusShape {
                columns: 4,
                ..Default::default()
            },
            5,
            floor,
        ));
        let result = run_explore(
            &inputs,
            &[Experiment::ALL[0]],
            &[StorageFormat::Orc],
            3,
            24,
            1,
            Some(floor),
        );
        assert!(
            result.stats.novel_from_corpus >= 1,
            "no corpus-novel signature within the budget: {:?}",
            result.stats
        );
        assert!(
            result.stats.corpus.iter().any(|r| r.origin == "corpus"),
            "no corpus-origin admission: {:?}",
            result.stats.corpus
        );
        // Corpus-first scheduling: the very first admissions are corpus
        // inputs, not catalogue ones.
        assert_eq!(result.stats.corpus[0].origin, "corpus");
    }
}
