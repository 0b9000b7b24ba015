//! The workloads: the campaigns each batch phase times, and the spec
//! shapes every served phase offers.

use csi_test::inject::small_fault_catalogue;
use csi_test::plan::Experiment;
use csi_test::{CampaignSpec, CorpusShape, InputSelection};
use minihive::metastore::StorageFormat;

/// Spec shapes in every served mix; tenants draw from them, so shapes
/// repeat across tenants and per-shape reuse can show.
pub const SHAPES: usize = 8;

/// Tenants a served run spreads its requests over.
pub const TENANTS: usize = 256;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Full catalogue plus a wide corpus region, every experiment × plan ×
    /// format: the exec write/read loop does nearly all the work.
    Grid,
    /// Coverage-guided exploration with a compound k-fault pass.
    Explore,
    /// The multi-tenant daemon under an open loop of small campaigns.
    Serve,
}

impl Workload {
    /// Every workload, in the order the benchmark lists them.
    pub const ALL: [Workload; 3] = [Workload::Grid, Workload::Explore, Workload::Serve];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Grid => "grid",
            Workload::Explore => "explore",
            Workload::Serve => "serve",
        }
    }

    /// Parses a command-line workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The one-shot campaign a batch run times in fresh processes, or
    /// `None` for `serve`, whose batch phase is the served mix itself.
    pub fn batch_spec(self, seed: u64, shards: usize) -> Option<CampaignSpec> {
        let grid = CampaignSpec {
            inputs: InputSelection::Corpus {
                shape: CorpusShape::wide(),
                seed,
            },
            recycle_tables: true,
            shards,
            trace: true,
            ..CampaignSpec::default()
        };
        match self {
            Workload::Grid => Some(grid),
            Workload::Explore => Some(CampaignSpec {
                inputs: InputSelection::Corpus {
                    shape: CorpusShape::default(),
                    seed,
                },
                explore_budget: Some(1500),
                kfaults: 2,
                jobs: 2,
                shards,
                ..CampaignSpec::default()
            }),
            Workload::Serve => None,
        }
    }

    /// Timed batch campaigns per block (a run has three). The count
    /// follows from the workload and the run length alone, never from how
    /// fast the build or the host is, so the percentile each `.tail`
    /// reads is fixed by the configuration. The rates are set so the batch
    /// phase takes about 40 % of the run on `grid` and `explore` (fresh
    /// processes) and 15 % on `serve` (in process, [`SHAPES`] campaigns a
    /// round) on a 2-vCPU Xeon VM.
    pub fn batch_per_block(self, seconds: f64) -> usize {
        let per_second = match self {
            Workload::Grid => 0.55,
            Workload::Explore => 1.25,
            Workload::Serve => 3.0,
        };
        let n = ((seconds * per_second).round() as usize).max(2);
        match self {
            Workload::Serve => n * SHAPES,
            _ => n,
        }
    }
}

/// The [`SHAPES`] specs every served run draws from: the `load_serve`
/// mix, one in eight a detecting fault matrix that streams detections.
/// The `serve` workload also times each of them in process, closed loop,
/// as its batch phase.
pub fn served_shapes() -> Vec<CampaignSpec> {
    (0..SHAPES).map(load_serve_shape).collect()
}

/// The `load_serve` bench's spec for shape `shape`: shape 0 is a
/// detection-heavy fault matrix, the rest are catalogue-prefix cross-test
/// campaigns over varied prefixes, worker counts and detection settings.
fn load_serve_shape(shape: usize) -> CampaignSpec {
    if shape == 0 {
        return CampaignSpec {
            inputs: InputSelection::Inline(Vec::new()),
            matrix_seed: Some(5),
            faults: Some(small_fault_catalogue(5)),
            experiments: vec![Experiment::ALL[0]],
            formats: vec![StorageFormat::Orc],
            detect: true,
            ..CampaignSpec::default()
        };
    }
    CampaignSpec {
        inputs: InputSelection::CataloguePrefix(1 + shape % 4),
        formats: vec![StorageFormat::Orc, StorageFormat::Parquet],
        shards: 1 + shape % 2,
        chunk_size: 2,
        detect: shape % 4 == 1,
        seed: 42 + shape as u64,
        ..CampaignSpec::default()
    }
}
