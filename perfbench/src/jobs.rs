//! Runs one job through its public driver function and checks its output.

use crate::measure::{peak_rss_kib, process_cpu, reset_peak_rss, trim_heap};
use crate::workload::{
    Expected, Inputs, Job, CHECKPOINT_INTERVAL, DAMPING, PAGERANK_TOLERANCE, SSSP_SOURCE,
};
use spinning_dataflows::algorithms::{
    cc_async, cc_bulk, cc_incremental, cc_microstep, cc_workset_records, pagerank, sssp,
    ComponentsConfig, ComponentsResult, PageRankConfig, PageRankPlan,
};
use spinning_dataflows::dataflow::prelude::{
    ClusterSpec, FaultInjector, MemoryBudget, Record, TransportHandle,
};
use spinning_dataflows::graphdata::Graph;
use spinning_dataflows::spinning_core::prelude::{ExecutionMode, IterationRunStats, WorksetResult};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::time::{Duration, Instant};

/// What a job needs besides its inputs.
pub struct Context<'a> {
    /// The workload's graph and input records.
    pub inputs: &'a Inputs,
    /// The reference outputs.
    pub expected: &'a Expected,
    /// Degree of parallelism.
    pub parallelism: usize,
    /// Iterations of the PageRank jobs; `expected.ranks` must match them.
    pub pagerank_iterations: usize,
    /// Scratch directory for checkpoints (inside the checkout).
    pub work_dir: &'a Path,
    /// Self-test hook: this job's output is altered before it is checked.
    pub corrupt: Option<Job>,
}

/// The measured outcome of one job run.
#[derive(Debug)]
pub struct JobRun {
    /// Which job ran.
    pub job: Job,
    /// Input-to-verified-result wall time.
    pub wall: Duration,
    /// Process CPU time (user + system, all threads) during the job.
    pub cpu: Duration,
    /// Peak resident set during the job, in KiB.
    pub peak_rss_kib: Option<u64>,
    /// Supersteps (workset jobs) or iterations (bulk jobs) the driver ran;
    /// the asynchronous mode reports 1.
    pub supersteps: usize,
    /// The driver's statistics (empty when the job failed).
    pub stats: IterationRunStats,
    /// Why the job failed: a driver error, a panic or a wrong output.
    pub failure: Option<String>,
}

/// A driver's result, reduced to what the check needs.
struct Produced {
    output: Output,
    converged: bool,
    supersteps: usize,
    stats: IterationRunStats,
}

enum Output {
    Components(Vec<i64>),
    Distances(Vec<i64>),
    Ranks(Vec<f64>),
    /// Cluster workers' solution records, concatenated in index order.
    Records(Vec<Record>),
}

/// Runs `job` once: times it from input to verified result, and records
/// any failure instead of aborting.
pub fn run_job(job: Job, ctx: &Context<'_>) -> JobRun {
    let checkpoint_dir = ctx.work_dir.join("checkpoints");
    let _ = std::fs::remove_dir_all(&checkpoint_dir);
    trim_heap();
    reset_peak_rss();
    let cpu_start = process_cpu();
    let start = Instant::now();
    let outcome = catch_unwind(AssertUnwindSafe(|| execute(job, ctx, &checkpoint_dir)))
        .unwrap_or_else(|panic| Err(format!("panicked: {}", panic_message(&*panic))))
        .and_then(|mut produced| {
            if ctx.corrupt == Some(job) {
                corrupt(&mut produced.output);
            }
            verify(job, &produced, ctx.expected).map(|()| produced)
        });
    let wall = start.elapsed();
    let cpu = process_cpu().saturating_sub(cpu_start);
    let peak_rss_kib = peak_rss_kib();
    let _ = std::fs::remove_dir_all(&checkpoint_dir);
    let (supersteps, stats, failure) = match outcome {
        Ok(produced) => (produced.supersteps, produced.stats, None),
        Err(failure) => (0, IterationRunStats::default(), Some(failure)),
    };
    JobRun {
        job,
        wall,
        cpu,
        peak_rss_kib,
        supersteps,
        stats,
        failure,
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".to_owned())
}

fn components(result: ComponentsResult) -> Produced {
    Produced {
        output: Output::Components(result.components),
        converged: result.converged,
        supersteps: result.iterations,
        stats: result.stats,
    }
}

fn execute(job: Job, ctx: &Context<'_>, checkpoint_dir: &Path) -> Result<Produced, String> {
    let graph = &ctx.inputs.graph;
    let cc = ComponentsConfig::new(ctx.parallelism);
    let err = |e: spinning_dataflows::dataflow::prelude::DataflowError| e.to_string();
    Ok(match job {
        Job::CcIncremental => components(cc_incremental(graph, &cc).map_err(err)?),
        Job::CcMicrostep => components(cc_microstep(graph, &cc).map_err(err)?),
        Job::CcAsync => components(cc_async(graph, &cc).map_err(err)?),
        Job::CcBulk => components(cc_bulk(graph, &cc).map_err(err)?),
        Job::CcCheckpoint => {
            let cc = cc.with_checkpoint(CHECKPOINT_INTERVAL, checkpoint_dir);
            components(cc_incremental(graph, &cc).map_err(err)?)
        }
        Job::CcSpill => {
            let cc = cc.with_memory_budget(MemoryBudget::bytes(0));
            components(cc_incremental(graph, &cc).map_err(err)?)
        }
        Job::Sssp => {
            let result = sssp(
                graph,
                SSSP_SOURCE,
                ctx.parallelism,
                ExecutionMode::BatchIncremental,
            )
            .map_err(err)?;
            Produced {
                output: Output::Distances(result.distances),
                converged: result.converged,
                supersteps: result.supersteps,
                stats: result.stats,
            }
        }
        Job::PagerankBroadcast | Job::PagerankPartition => {
            let plan = if job == Job::PagerankBroadcast {
                PageRankPlan::ForceBroadcast
            } else {
                PageRankPlan::ForcePartition
            };
            let config = PageRankConfig {
                damping: DAMPING,
                ..PageRankConfig::new(ctx.parallelism)
                    .with_iterations(ctx.pagerank_iterations)
                    .with_plan(plan)
            };
            let result = pagerank(graph, &config).map_err(err)?;
            Produced {
                supersteps: result.stats.iterations(),
                output: Output::Ranks(result.ranks),
                converged: result.converged,
                stats: result.stats,
            }
        }
        Job::CcCluster => {
            let workers = run_cluster(graph, ctx.parallelism)?;
            let first = &workers[0];
            if let Some(w) = workers.iter().find(|w| w.supersteps != first.supersteps) {
                return Err(format!(
                    "cluster workers disagree on supersteps: {} vs {}",
                    first.supersteps, w.supersteps
                ));
            }
            Produced {
                converged: workers.iter().all(|w| w.converged),
                supersteps: first.supersteps,
                stats: first.stats.clone(),
                output: Output::Records(
                    workers
                        .into_iter()
                        .flat_map(|w| w.solution.into_iter())
                        .collect(),
                ),
            }
        }
    })
}

/// Runs incremental CC as a two-process TCP cluster whose two endpoints are
/// threads of this process, and returns the workers' results in index
/// order.
fn run_cluster(graph: &Graph, parallelism: usize) -> Result<Vec<WorksetResult>, String> {
    let coordinator = free_loopback_addr()?;
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..2)
            .map(|index| {
                let coordinator = &coordinator;
                scope.spawn(move || -> Result<WorksetResult, String> {
                    let spec = ClusterSpec::new(2, index).map_err(|e| e.to_string())?;
                    let transport =
                        TransportHandle::tcp_cluster(spec, coordinator, &FaultInjector::disabled())
                            .map_err(|e| format!("worker {index} failed to connect: {e}"))?;
                    let config = ComponentsConfig::new(parallelism).with_transport(transport);
                    cc_workset_records(graph, &config, ExecutionMode::BatchIncremental)
                        .map_err(|e| format!("worker {index}: {e}"))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join().unwrap_or_else(|panic| {
                    Err(format!("worker panicked: {}", panic_message(&*panic)))
                })
            })
            .collect()
    })
}

/// A loopback address with a port the kernel just handed out.
pub fn free_loopback_addr() -> Result<String, String> {
    let listener = std::net::TcpListener::bind("127.0.0.1:0")
        .map_err(|e| format!("cannot bind a loopback port: {e}"))?;
    listener
        .local_addr()
        .map(|a| a.to_string())
        .map_err(|e| format!("cannot read the loopback port: {e}"))
}

/// Alters an output so that its check must fail.
fn corrupt(output: &mut Output) {
    match output {
        Output::Components(v) | Output::Distances(v) => v[0] = v[0].wrapping_add(1),
        Output::Ranks(v) => v[0] += 1.0,
        Output::Records(v) => v[0] = Record::pair(v[0].long(0), v[0].long(1).wrapping_add(1)),
    }
}

fn first_mismatch<T: PartialEq + std::fmt::Debug>(actual: &[T], expected: &[T]) -> Option<String> {
    if actual.len() != expected.len() {
        return Some(format!(
            "{} values, expected {}",
            actual.len(),
            expected.len()
        ));
    }
    let i = actual.iter().zip(expected).position(|(a, e)| a != e)?;
    let wrong = actual.iter().zip(expected).filter(|(a, e)| a != e).count();
    Some(format!(
        "{wrong} of {} values differ; first at {i}: {:?}, expected {:?}",
        expected.len(),
        actual[i],
        expected[i]
    ))
}

fn verify(job: Job, produced: &Produced, expected: &Expected) -> Result<(), String> {
    if !produced.converged {
        return Err(format!(
            "did not converge in {} supersteps",
            produced.supersteps
        ));
    }
    let mismatch = match &produced.output {
        Output::Components(c) => first_mismatch(c, &expected.components),
        Output::Distances(d) => first_mismatch(d, &expected.distances),
        Output::Records(r) => first_mismatch(r, &expected.records),
        Output::Ranks(r) => {
            if r.len() != expected.ranks.len() {
                Some(format!(
                    "{} ranks, expected {}",
                    r.len(),
                    expected.ranks.len()
                ))
            } else {
                r.iter()
                    .zip(&expected.ranks)
                    .position(|(a, e)| (a - e).abs() > PAGERANK_TOLERANCE)
                    .map(|i| {
                        format!(
                            "rank {i} is {}, oracle {} (tolerance {PAGERANK_TOLERANCE})",
                            r[i], expected.ranks[i]
                        )
                    })
            }
        }
    };
    if let Some(m) = mismatch {
        return Err(format!("wrong output: {m}"));
    }
    let stats = &produced.stats;
    match job {
        Job::CcCheckpoint if stats.total_checkpoints_written() == 0 => {
            Err("no checkpoint was written".into())
        }
        Job::CcSpill if stats.total_spilled_bytes() == 0 => Err("nothing spilled".into()),
        _ => Ok(()),
    }
}
