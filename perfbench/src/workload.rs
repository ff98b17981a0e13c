//! The named workloads: which graph each generates and which jobs it runs.

use spinning_dataflows::algorithms::common::{initial_component_candidates, initial_components};
use spinning_dataflows::algorithms::{cc_workset_records, oracles, ComponentsConfig};
use spinning_dataflows::dataflow::prelude::Record;
use spinning_dataflows::graphdata::{DatasetProfile, Graph, VertexId};
use spinning_dataflows::spinning_core::prelude::ExecutionMode;

/// Downscale factor of the dataset profiles.
pub const SCALE: u64 = 16_384;
/// Degree of parallelism of every job.
pub const PARALLELISM: usize = 2;
/// The seed kept out of tuning: a claimed gain must also hold on it.
pub const HELD_OUT_SEED: u64 = 0x4845_4c44;
/// Source vertex of the SSSP job.
pub const SSSP_SOURCE: VertexId = 0;
/// PageRank iterations (the paper's 20).
pub const PAGERANK_ITERATIONS: usize = 20;
/// PageRank damping factor.
pub const DAMPING: f64 = 0.85;
/// Largest absolute difference a rank may have from the sequential oracle;
/// the dataflow sums partial ranks in a different order.
pub const PAGERANK_TOLERANCE: f64 = 1e-9;
/// Supersteps between two checkpoints of the `cc_checkpoint` job.
pub const CHECKPOINT_INTERVAL: usize = 10;

/// A named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Webbase stand-in; hundreds of near-empty supersteps, in memory, on
    /// the wire and on disk.
    LongtailWebbase,
    /// Twitter stand-in; a few heavy supersteps and iterations.
    DenseTwitter,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 2] = [Workload::LongtailWebbase, Workload::DenseTwitter];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::LongtailWebbase => "longtail-webbase",
            Workload::DenseTwitter => "dense-twitter",
        }
    }

    /// Looks a workload up by name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The dataset profile generating the workload's graph from `seed`.
    pub fn profile(self, seed: u64) -> DatasetProfile {
        let mut profile = match self {
            Workload::LongtailWebbase => DatasetProfile::webbase(),
            Workload::DenseTwitter => DatasetProfile::twitter(),
        };
        profile.seed = seed;
        profile
    }

    /// The order one pass runs the jobs in: the control job,
    /// `cc_incremental`, runs before each other job.  So its runs are spread
    /// over the pass, and it has as many samples as there are other jobs.
    pub fn pass(self) -> Vec<Job> {
        self.jobs()
            .iter()
            .filter(|&&job| job != Job::CcIncremental)
            .flat_map(|&job| [Job::CcIncremental, job])
            .collect()
    }

    /// The workload's jobs; every workload runs `cc_incremental`.
    pub fn jobs(self) -> &'static [Job] {
        match self {
            Workload::LongtailWebbase => &[
                Job::CcIncremental,
                Job::CcMicrostep,
                Job::CcAsync,
                Job::Sssp,
                Job::CcCluster,
                Job::CcCheckpoint,
                Job::CcSpill,
            ],
            Workload::DenseTwitter => &[
                Job::PagerankBroadcast,
                Job::PagerankPartition,
                Job::CcBulk,
                Job::CcIncremental,
                Job::CcMicrostep,
            ],
        }
    }
}

/// One job: a public driver function with fixed settings.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Job {
    /// `cc_incremental`: batch-incremental CC (InnerCoGroup update).
    CcIncremental,
    /// `cc_microstep`: microstep CC in supersteps (Match update).
    CcMicrostep,
    /// `cc_async`: microstep CC without superstep barriers.
    CcAsync,
    /// `cc_bulk`: bulk-iterative CC through the executor.
    CcBulk,
    /// `sssp` from [`SSSP_SOURCE`], batch-incremental.
    Sssp,
    /// `pagerank` with the broadcast plan of Figure 4.
    PagerankBroadcast,
    /// `pagerank` with the partition plan of Figure 4.
    PagerankPartition,
    /// `cc_workset_records` as two TCP cluster endpoints in this process.
    CcCluster,
    /// `cc_incremental` with a checkpoint every [`CHECKPOINT_INTERVAL`]
    /// supersteps.
    CcCheckpoint,
    /// `cc_incremental` with a zero memory budget: every page spills.
    CcSpill,
}

impl Job {
    /// The job's name.
    pub fn name(self) -> &'static str {
        match self {
            Job::CcIncremental => "cc_incremental",
            Job::CcMicrostep => "cc_microstep",
            Job::CcAsync => "cc_async",
            Job::CcBulk => "cc_bulk",
            Job::Sssp => "sssp",
            Job::PagerankBroadcast => "pagerank_broadcast",
            Job::PagerankPartition => "pagerank_partition",
            Job::CcCluster => "cc_cluster",
            Job::CcCheckpoint => "cc_checkpoint",
            Job::CcSpill => "cc_spill",
        }
    }

    /// True for the jobs that run through the dataflow executor.
    pub fn uses_executor(self) -> bool {
        matches!(
            self,
            Job::CcBulk | Job::PagerankBroadcast | Job::PagerankPartition
        )
    }
}

/// The generated graph and the input records derived from it.
#[derive(PartialEq)]
pub struct Inputs {
    /// The workload's graph.
    pub graph: Graph,
    /// The initial CC solution `(vid, vid)`.
    pub components: Vec<Record>,
    /// The initial CC workset `(nb, vid)` per edge.
    pub candidates: Vec<Record>,
}

impl Inputs {
    /// Generates the graph of `workload` from `seed` at `scale`, and its
    /// input records.  This is the set-up step `setup_s` times.
    pub fn generate(workload: Workload, seed: u64, scale: u64) -> Inputs {
        let graph = workload.profile(seed).generate(scale);
        Inputs {
            components: initial_components(&graph),
            candidates: initial_component_candidates(&graph),
            graph,
        }
    }
}

/// Reference outputs every job is checked against.
#[derive(Default)]
pub struct Expected {
    /// Component id per vertex, from `oracles::connected_components`.
    pub components: Vec<i64>,
    /// Hop distance per vertex from [`SSSP_SOURCE`], from `oracles::sssp`.
    pub distances: Vec<i64>,
    /// Ranks after [`PAGERANK_ITERATIONS`], from `oracles::pagerank`.
    pub ranks: Vec<f64>,
    /// The single-process `cc_workset_records` solution, which a cluster's
    /// per-worker records, concatenated in index order, must equal.  Only
    /// computed for workloads running [`Job::CcCluster`].
    pub records: Vec<Record>,
}

impl Expected {
    /// Computes the references for `workload` on `inputs`.
    pub fn compute(workload: Workload, inputs: &Inputs) -> Result<Expected, String> {
        let graph = &inputs.graph;
        let components: Vec<i64> = oracles::connected_components(graph)
            .into_iter()
            .map(i64::from)
            .collect();
        let records = if workload.jobs().contains(&Job::CcCluster) {
            let result = cc_workset_records(
                graph,
                &ComponentsConfig::new(PARALLELISM),
                ExecutionMode::BatchIncremental,
            )
            .map_err(|e| format!("in-process reference run failed: {e}"))?;
            let mut dense = vec![-1i64; graph.num_vertices()];
            for r in &result.solution {
                dense[r.long(0) as usize] = r.long(1);
            }
            if dense != components {
                return Err("in-process reference run disagrees with the CC oracle".into());
            }
            result.solution
        } else {
            Vec::new()
        };
        Ok(Expected {
            components,
            distances: oracles::sssp(graph, SSSP_SOURCE),
            ranks: oracles::pagerank(graph, PAGERANK_ITERATIONS, DAMPING),
            records,
        })
    }
}
