//! Per-layer metrics derived from the counters the drivers return
//! (`IterationRunStats`, and the `ExecutionStats` of bulk iterations).

use crate::jobs::JobRun;
use crate::measure::median;
use crate::report::Metric;
use crate::workload::Job;
use spinning_dataflows::dataflow::prelude::ExecutionStats;

/// Executor contracts whose summed `OperatorStats.elapsed` is reported.
pub const TIMED_CONTRACTS: [&str; 2] = ["Match", "Reduce"];

fn secs(d: std::time::Duration) -> f64 {
    d.as_secs_f64()
}

/// Wall time a job spent outside its supersteps or iterations.
fn outside_s(run: &JobRun) -> f64 {
    let inside: f64 = run
        .stats
        .per_iteration
        .iter()
        .map(|s| secs(s.elapsed))
        .sum();
    secs(run.wall) - inside
}

/// `core.workset.*` over the given workset job runs (medians across runs).
pub fn workset(runs: &[&JobRun]) -> Vec<Metric> {
    let per_run =
        |f: &dyn Fn(&JobRun) -> f64| median(&runs.iter().map(|r| f(r)).collect::<Vec<_>>());
    let step_ms =
        |r: &JobRun| -> Vec<f64> { r.stats.per_iteration.iter().map(|s| s.millis()).collect() };
    let ratio = |num: usize, den: usize| {
        if den == 0 {
            0.0
        } else {
            num as f64 / den as f64
        }
    };
    vec![
        Metric::new(
            "core.workset.supersteps",
            per_run(&|r| r.supersteps as f64),
            "count",
        ),
        Metric::new(
            "core.workset.superstep_p50_ms",
            per_run(&|r| median(&step_ms(r))),
            "ms",
        ),
        Metric::new(
            "core.workset.superstep_max_ms",
            per_run(&|r| step_ms(r).into_iter().fold(0.0, f64::max)),
            "ms",
        ),
        Metric::new(
            "core.workset.tail_share",
            per_run(&|r| {
                let steps = &r.stats.per_iteration;
                let tail: f64 = steps[steps.len() / 2..]
                    .iter()
                    .map(|s| secs(s.elapsed))
                    .sum();
                tail / secs(r.wall)
            }),
            "ratio",
        ),
        Metric::new("core.workset.outside_s", per_run(&outside_s), "s"),
        Metric::new(
            "core.workset.useful_ratio",
            per_run(&|r| {
                let steps = &r.stats.per_iteration;
                ratio(
                    steps.iter().map(|s| s.elements_changed).sum(),
                    steps.iter().map(|s| s.elements_inspected).sum(),
                )
            }),
            "ratio",
        ),
        Metric::new(
            "core.workset.ship_ratio",
            per_run(&|r| {
                let steps = &r.stats.per_iteration;
                ratio(
                    steps.iter().map(|s| s.messages_shipped).sum(),
                    steps.iter().map(|s| s.messages_sent).sum(),
                )
            }),
            "ratio",
        ),
        Metric::new(
            "core.workset.queue_high_water",
            per_run(&|r| {
                r.stats
                    .per_iteration
                    .iter()
                    .map(|s| s.queue_high_water)
                    .max()
                    .unwrap_or(0) as f64
            }),
            "count",
        ),
    ]
}

/// `core.microstep.cpu_per_wall` over the asynchronous runs (0 without any).
pub fn microstep(async_runs: &[&JobRun]) -> Vec<Metric> {
    let values: Vec<f64> = async_runs
        .iter()
        .map(|r| secs(r.cpu) / secs(r.wall))
        .collect();
    vec![Metric::new(
        "core.microstep.cpu_per_wall",
        median(&values),
        "cores",
    )]
}

/// `dataflow.exec.*` over the given executor-backed runs: counters summed
/// over every iteration of every run, times as medians.
pub fn exec(runs: &[&JobRun]) -> Vec<Metric> {
    let mut total = ExecutionStats::new();
    let mut iteration_ms = Vec::new();
    for run in runs {
        for step in &run.stats.per_iteration {
            iteration_ms.push(step.millis());
            if let Some(execution) = &step.execution {
                total.merge(execution);
            }
        }
    }
    let outside: Vec<f64> = runs.iter().map(|r| outside_s(r)).collect();
    let mut metrics = vec![
        Metric::new(
            "dataflow.exec.iteration_p50_ms",
            median(&iteration_ms),
            "ms",
        ),
        Metric::new("dataflow.exec.outside_s", median(&outside), "s"),
        Metric::new(
            "dataflow.exec.shipped_bytes",
            total.shipped_bytes as f64,
            "bytes",
        ),
        Metric::new(
            "dataflow.exec.shipped_pages",
            total.shipped_pages as f64,
            "count",
        ),
        Metric::new(
            "dataflow.exec.local_records",
            total.local_records as f64,
            "count",
        ),
        Metric::new("dataflow.exec.cache_hits", total.cache_hits as f64, "count"),
        Metric::new(
            "dataflow.exec.chained_operators",
            total.chained_operators as f64,
            "count",
        ),
        Metric::new(
            "dataflow.exec.peak_chain_pages",
            total.peak_chain_pages as f64,
            "count",
        ),
    ];
    for contract in TIMED_CONTRACTS {
        let elapsed: f64 = total
            .operators
            .iter()
            .filter(|o| o.contract == contract)
            .map(|o| o.elapsed.as_secs_f64() * 1e3)
            .sum();
        metrics.push(Metric::new(
            &format!("dataflow.exec.operator_ms.{contract}"),
            elapsed,
            "ms",
        ));
    }
    metrics
}

/// Spill and checkpoint counters of one pass's `cc_spill` and
/// `cc_checkpoint` runs (0 when the pass has neither).
pub fn durable(pass: &[JobRun]) -> Vec<Metric> {
    let of = |job: Job| pass.iter().find(|r| r.job == job && r.failure.is_none());
    let (spill, checkpoint) = (of(Job::CcSpill), of(Job::CcCheckpoint));
    let stat =
        |run: Option<&JobRun>, f: &dyn Fn(&JobRun) -> usize| run.map_or(0.0, |r| f(r) as f64);
    vec![
        Metric::new(
            "dataflow.spill.bytes",
            stat(spill, &|r| r.stats.total_spilled_bytes()),
            "bytes",
        ),
        Metric::new(
            "dataflow.spill.runs",
            stat(spill, &|r| r.stats.total_spilled_runs()),
            "count",
        ),
        Metric::new(
            "core.checkpoint.count",
            stat(checkpoint, &|r| r.stats.total_checkpoints_written()),
            "count",
        ),
        Metric::new(
            "core.checkpoint.bytes",
            stat(checkpoint, &|r| r.stats.total_checkpoint_bytes()),
            "bytes",
        ),
        Metric::new(
            "core.checkpoint.write_failures",
            stat(checkpoint, &|r| {
                r.stats
                    .per_iteration
                    .iter()
                    .map(|s| s.checkpoint_write_failures)
                    .sum()
            }),
            "count",
        ),
    ]
}
