//! Bulk iterations (Section 4).
//!
//! A bulk iteration is the complex operator `(G, I, O, T)`: a step dataflow
//! `G` that consumes the previous partial solution through the source `I`,
//! produces the next partial solution at the sink `O`, and is repeated until
//! the termination criterion `T` fires (or a fixed number of iterations `n`
//! has run).
//!
//! The runtime uses the *feedback-channel* execution strategy of Section 4.2:
//! the same physical plan is reused for every iteration; the partial solution
//! produced at `O` is materialised (the feedback dam) and becomes `I`'s data
//! in the next iteration.  Loop-invariant inputs on the constant data path are
//! shipped once and then served from the executor's intermediate cache, as
//! decided by the optimizer (Section 4.3).

use crate::checkpoint::{CheckpointPolicy, CheckpointStore};
use crate::stats::{IterationRunStats, IterationStats};
use crate::workset::PendingRecoveryStats;
use dataflow::fault::FaultInjector;
use dataflow::prelude::{
    DataflowError, ExecConfig, ExecutionResult, Executor, IntermediateCache, MemoryBudget,
    OperatorId, Plan, Record, Result,
};
use optimizer::{Annotations, IterationSpec, Optimizer};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

/// A user-supplied convergence check comparing the previous and next partial
/// solutions.
pub type ConvergenceCheck = Arc<dyn Fn(&[Record], &[Record]) -> bool + Send + Sync>;

/// When to stop iterating.
#[derive(Clone)]
pub enum TerminationCriterion {
    /// Run exactly `n` iterations — the `(G, I, O, n)` form.
    FixedIterations(usize),
    /// Stop after the iteration in which the named sink (the termination
    /// criterion dataflow `T`) produces no records, or after `max_iterations`.
    EmptySink {
        /// Name of the sink produced by `T`.
        sink: String,
        /// Upper bound on the number of iterations.
        max_iterations: usize,
    },
    /// Stop when a user-supplied convergence check on the previous and next
    /// partial solutions returns `true`, or after `max_iterations`.
    Converged {
        /// Returns `true` when `previous` and `next` are considered equal
        /// (the fixpoint has been reached).
        check: ConvergenceCheck,
        /// Upper bound on the number of iterations.
        max_iterations: usize,
    },
}

impl std::fmt::Debug for TerminationCriterion {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TerminationCriterion::FixedIterations(n) => write!(f, "FixedIterations({n})"),
            TerminationCriterion::EmptySink {
                sink,
                max_iterations,
            } => {
                write!(f, "EmptySink(sink={sink}, max={max_iterations})")
            }
            TerminationCriterion::Converged { max_iterations, .. } => {
                write!(f, "Converged(max={max_iterations})")
            }
        }
    }
}

impl TerminationCriterion {
    fn max_iterations(&self) -> usize {
        match self {
            TerminationCriterion::FixedIterations(n) => *n,
            TerminationCriterion::EmptySink { max_iterations, .. }
            | TerminationCriterion::Converged { max_iterations, .. } => *max_iterations,
        }
    }
}

/// Configuration of a bulk iteration run.
#[derive(Debug, Clone)]
pub struct BulkConfig {
    /// Degree of parallelism of the step dataflow.
    pub parallelism: usize,
    /// If `true` (the default), the step plan is optimized with the
    /// iteration-aware cost-based optimizer; otherwise the naive rule-based
    /// physical plan is used.
    pub use_optimizer: bool,
    /// Field-copy annotations passed to the optimizer.
    pub annotations: Annotations,
    /// Expected number of iterations used to weight the dynamic data path.
    /// Defaults to the termination criterion's maximum.
    pub expected_iterations: Option<f64>,
    /// Budget on the bytes the step plan's exchanges (and the loop-invariant
    /// cache) may buffer in memory before spilling sealed pages to disk.
    /// Unlimited by default.
    pub memory_budget: MemoryBudget,
    /// Iteration-boundary checkpointing and recovery policy.  `None` (the
    /// default) disables checkpointing: a failed iteration surfaces as a
    /// typed [`DataflowError`] immediately.
    pub checkpoint: Option<CheckpointPolicy>,
    /// Deterministic fault injector threaded through the step executions'
    /// spill and pool-dispatch sites.  Defaults to the
    /// environment-configured injector ([`FaultInjector::from_env`]).
    pub fault: FaultInjector,
    /// Disables chain fusion and the page-native operator paths in the step
    /// executions — the escape hatch pinning every streaming path against
    /// the materializing oracle.  Off by default.
    pub force_materialized: bool,
}

impl BulkConfig {
    /// Default configuration for the given parallelism.
    pub fn new(parallelism: usize) -> Self {
        BulkConfig {
            parallelism,
            use_optimizer: true,
            annotations: Annotations::new(),
            expected_iterations: None,
            memory_budget: MemoryBudget::unlimited(),
            checkpoint: None,
            fault: FaultInjector::from_env(),
            force_materialized: false,
        }
    }

    /// Sets the optimizer annotations.
    pub fn with_annotations(mut self, annotations: Annotations) -> Self {
        self.annotations = annotations;
        self
    }

    /// Disables the cost-based optimizer (useful for plan comparisons).
    pub fn without_optimizer(mut self) -> Self {
        self.use_optimizer = false;
        self
    }

    /// Sets the memory budget of the per-iteration executions.
    pub fn with_memory_budget(mut self, budget: MemoryBudget) -> Self {
        self.memory_budget = budget;
        self
    }

    /// Enables iteration-boundary checkpointing: every `interval` iterations
    /// the partial solution is snapshotted under `dir`, and a failed
    /// iteration restores the newest valid checkpoint and retries instead of
    /// failing the run.
    pub fn with_checkpoint(self, interval: usize, dir: impl Into<PathBuf>) -> Self {
        self.with_checkpoint_policy(CheckpointPolicy::new(interval, dir))
    }

    /// Enables checkpointing with an explicit policy.
    pub fn with_checkpoint_policy(mut self, policy: CheckpointPolicy) -> Self {
        self.checkpoint = Some(policy);
        self
    }

    /// Installs a fault injector (replacing the environment-configured one).
    pub fn with_fault(mut self, fault: FaultInjector) -> Self {
        self.fault = fault;
        self
    }

    /// Forces the materializing executor paths (see
    /// [`BulkConfig::force_materialized`]).
    pub fn with_force_materialized(mut self, force: bool) -> Self {
        self.force_materialized = force;
        self
    }
}

/// The result of running a bulk iteration.
#[derive(Debug)]
pub struct BulkIterationResult {
    /// The final partial solution (the contents of `O` after the last
    /// iteration).
    pub solution: Vec<Record>,
    /// Number of iterations executed.
    pub iterations: usize,
    /// `true` when the termination criterion fired ([`TerminationCriterion::
    /// FixedIterations`] runs are always converged); `false` when the run was
    /// cut off by `max_iterations` before `T` fired, in which case the
    /// solution is truncated rather than a fixpoint.
    pub converged: bool,
    /// Per-iteration statistics.
    pub stats: IterationRunStats,
}

/// The bulk iteration operator `(G, I, O, T)`.
#[derive(Debug, Clone)]
pub struct BulkIteration {
    plan: Plan,
    input: OperatorId,
    output_sink: String,
    termination: TerminationCriterion,
}

impl BulkIteration {
    /// Creates a bulk iteration from the step dataflow `plan` (`G`), the
    /// source operator that carries the partial solution into the step
    /// function (`I`), the name of the sink producing the next partial
    /// solution (`O`), and the termination criterion (`T` / `n`).
    pub fn new(
        plan: Plan,
        input: OperatorId,
        output_sink: impl Into<String>,
        termination: TerminationCriterion,
    ) -> Self {
        BulkIteration {
            plan,
            input,
            output_sink: output_sink.into(),
            termination,
        }
    }

    /// The step dataflow.
    pub fn plan(&self) -> &Plan {
        &self.plan
    }

    /// Runs the iteration starting from the initial partial solution.
    pub fn run(&self, initial: Vec<Record>, config: &BulkConfig) -> Result<BulkIterationResult> {
        if config.parallelism == 0 {
            return Err(DataflowError::InvalidPlan(
                "parallelism must be at least 1".into(),
            ));
        }
        let start = Instant::now();
        let output_op = self
            .plan
            .sink_by_name(&self.output_sink)
            .ok_or_else(|| DataflowError::UnknownSink(self.output_sink.clone()))?;
        let max_iterations = self.termination.max_iterations();
        if max_iterations == 0 {
            return Ok(BulkIterationResult {
                solution: initial,
                iterations: 0,
                // Zero requested iterations is only a completed run for the
                // fixed-count form; for the criterion-driven forms `T` never
                // got a chance to fire.
                converged: matches!(self.termination, TerminationCriterion::FixedIterations(_)),
                stats: IterationRunStats {
                    per_iteration: vec![],
                    total_elapsed: start.elapsed(),
                },
            });
        }

        // Plan the step dataflow once; the same physical plan is reused for
        // every iteration (feedback-channel execution).
        let mut physical = if config.use_optimizer {
            let spec = IterationSpec {
                dynamic_sources: vec![self.input],
                feedback: vec![(output_op, self.input)],
                expected_iterations: config.expected_iterations.unwrap_or(max_iterations as f64),
            };
            Optimizer::new(config.parallelism)
                .optimize_iterative(&self.plan, &config.annotations, &spec)?
                .physical
        } else {
            dataflow::physical::default_physical_plan(&self.plan, config.parallelism)?
        };

        let executor = Executor::with_config(
            ExecConfig::new()
                .with_memory_budget(config.memory_budget)
                .with_fault(config.fault.clone())
                .with_force_materialized(config.force_materialized),
        );
        let mut cache = IntermediateCache::new().with_memory_budget(config.memory_budget);
        let mut current = Arc::new(initial);
        let mut run_stats = IterationRunStats::default();
        let mut converged = false;

        // Bulk checkpoints snapshot the one materialized state the feedback
        // channel carries — the partial solution — as a single partition with
        // an empty workset.
        let store = config
            .checkpoint
            .as_ref()
            .map(|policy| CheckpointStore::new(&policy.dir, 1, config.fault.clone()));
        let mut pending = PendingRecoveryStats::default();
        if let Some(store) = &store {
            match store.write(0, &[(*current).clone()], &[Vec::new()]) {
                Ok(bytes) => {
                    pending.checkpoints_written += 1;
                    pending.checkpoint_bytes += bytes as usize;
                }
                Err(_) => pending.checkpoint_write_failures += 1,
            }
        }
        let mut iteration = 0usize;
        let mut retries_used = 0usize;

        while iteration < max_iterations && !converged {
            let attempt = iteration + 1;
            let iter_start = Instant::now();
            let attempt_result = physical
                .plan
                .replace_source_data(self.input, Arc::clone(&current))
                .and_then(|()| executor.execute_with_cache(&physical, &mut cache));
            let result: ExecutionResult = match attempt_result {
                Ok(result) => result,
                Err(error) => {
                    // The executor reports pool panics without iteration
                    // context; stamp the iteration number on before
                    // surfacing or retrying.
                    let error = match error {
                        DataflowError::WorkerPanic {
                            operator, message, ..
                        } => DataflowError::WorkerPanic {
                            operator,
                            superstep: attempt,
                            message,
                        },
                        other => other,
                    };
                    let (Some(store), Some(policy)) = (&store, &config.checkpoint) else {
                        return Err(error);
                    };
                    retries_used += 1;
                    pending.retries += 1;
                    if retries_used > policy.max_retries {
                        return Err(DataflowError::RecoveryExhausted {
                            superstep: attempt,
                            retries: policy.max_retries,
                            last: Box::new(error),
                        });
                    }
                    std::thread::sleep(policy.backoff_for(retries_used));
                    let Some(restored) = store.restore_latest(iteration) else {
                        return Err(error);
                    };
                    current = Arc::new(restored.solution.into_iter().flatten().collect());
                    run_stats.per_iteration.truncate(restored.superstep);
                    iteration = restored.superstep;
                    // The intermediate cache may hold state from the failed
                    // execution; rebuild it so loop-invariant inputs re-ship.
                    cache = IntermediateCache::new().with_memory_budget(config.memory_budget);
                    pending.recoveries += 1;
                    continue;
                }
            };
            iteration = attempt;
            retries_used = 0;

            // Decide termination on the borrowed result, then move the next
            // partial solution out of it without copying the records.
            let empty_termination_sink = match &self.termination {
                TerminationCriterion::EmptySink { sink, .. } => result.sink_is_empty(sink)?,
                _ => false,
            };
            let execution_stats = result.stats.clone();
            let next = result.into_sink(&self.output_sink)?;

            let mut stats = IterationStats::for_iteration(iteration);
            stats.workset_size = current.len();
            stats.elements_inspected = current.len();
            stats.elements_changed = next.len();
            stats.messages_sent = execution_stats.shipped_records + execution_stats.local_records;
            stats.messages_shipped = execution_stats.shipped_records;
            stats.spilled_bytes = execution_stats.spilled_bytes;
            stats.spilled_runs = execution_stats.spilled_runs;
            stats.execution = Some(execution_stats);
            stats.elapsed = iter_start.elapsed();

            let done = match &self.termination {
                TerminationCriterion::FixedIterations(n) => iteration >= *n,
                TerminationCriterion::EmptySink { .. } => empty_termination_sink,
                TerminationCriterion::Converged { check, .. } => check(&current, &next),
            };
            current = Arc::new(next);
            if done {
                converged = true;
            }
            if let (Some(store), Some(policy)) = (&store, &config.checkpoint) {
                if !converged && iteration.is_multiple_of(policy.interval) {
                    // Non-fatal, but counted: a lost checkpoint widens the
                    // window the next recovery replays.
                    match store.write(iteration, &[(*current).clone()], &[Vec::new()]) {
                        Ok(bytes) => {
                            pending.checkpoints_written += 1;
                            pending.checkpoint_bytes += bytes as usize;
                            store.prune(2);
                        }
                        Err(_) => pending.checkpoint_write_failures += 1,
                    }
                }
            }
            pending.fold_into(&mut stats);
            run_stats.per_iteration.push(stats);
        }
        if let Some(last) = run_stats.per_iteration.last_mut() {
            pending.fold_into(last);
        }
        if let Some(store) = &store {
            store.clear();
        }

        run_stats.total_elapsed = start.elapsed();
        Ok(BulkIterationResult {
            solution: Arc::try_unwrap(current).unwrap_or_else(|arc| (*arc).clone()),
            iterations: run_stats.per_iteration.len(),
            converged,
            stats: run_stats,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dataflow::prelude::*;

    /// A step function that increments field 1 of every record by 1.
    fn increment_plan() -> (Plan, OperatorId) {
        let mut plan = Plan::new();
        let input = plan.source("partial-solution", vec![]);
        let map = plan.map(
            "increment",
            input,
            Arc::new(MapClosure(|r: &Record, out: &mut Collector| {
                out.collect(Record::pair(r.long(0), r.long(1) + 1));
            })),
        );
        plan.sink("next", map);
        (plan, input)
    }

    #[test]
    fn fixed_iteration_count_runs_exactly_n_times() {
        let (plan, input) = increment_plan();
        let iteration = BulkIteration::new(
            plan,
            input,
            "next",
            TerminationCriterion::FixedIterations(5),
        );
        let result = iteration
            .run(
                vec![Record::pair(0, 0), Record::pair(1, 10)],
                &BulkConfig::new(2),
            )
            .unwrap();
        assert_eq!(result.iterations, 5);
        assert!(result.converged, "fixed-count runs are always converged");
        let mut solution = result.solution;
        solution.sort();
        assert_eq!(solution, vec![Record::pair(0, 5), Record::pair(1, 15)]);
        assert_eq!(result.stats.iterations(), 5);
    }

    #[test]
    fn zero_iterations_returns_the_initial_solution() {
        let (plan, input) = increment_plan();
        let iteration = BulkIteration::new(
            plan,
            input,
            "next",
            TerminationCriterion::FixedIterations(0),
        );
        let result = iteration
            .run(vec![Record::pair(7, 7)], &BulkConfig::new(2))
            .unwrap();
        assert_eq!(result.iterations, 0);
        assert!(result.converged);
        assert_eq!(result.solution, vec![Record::pair(7, 7)]);
    }

    #[test]
    fn converged_criterion_stops_at_the_fixpoint() {
        // Step function: cap field 1 at 8 (monotone, reaches a fixpoint).
        let mut plan = Plan::new();
        let input = plan.source("partial-solution", vec![]);
        let map = plan.map(
            "cap",
            input,
            Arc::new(MapClosure(|r: &Record, out: &mut Collector| {
                out.collect(Record::pair(r.long(0), (r.long(1) + 1).min(8)));
            })),
        );
        plan.sink("next", map);
        let check = Arc::new(|prev: &[Record], next: &[Record]| {
            let mut a = prev.to_vec();
            let mut b = next.to_vec();
            a.sort();
            b.sort();
            a == b
        });
        let iteration = BulkIteration::new(
            plan,
            input,
            "next",
            TerminationCriterion::Converged {
                check,
                max_iterations: 100,
            },
        );
        let result = iteration
            .run(vec![Record::pair(0, 0)], &BulkConfig::new(2))
            .unwrap();
        // Reaches 8 after 8 iterations; the 9th confirms the fixpoint.
        assert_eq!(result.iterations, 9);
        assert!(result.converged);
        assert_eq!(result.solution, vec![Record::pair(0, 8)]);
    }

    #[test]
    fn hitting_max_iterations_reports_non_convergence() {
        // Same capped-increment fixpoint as above, but the bound cuts the run
        // off after 3 iterations — far from the fixpoint at 8.
        let mut plan = Plan::new();
        let input = plan.source("partial-solution", vec![]);
        let map = plan.map(
            "cap",
            input,
            Arc::new(MapClosure(|r: &Record, out: &mut Collector| {
                out.collect(Record::pair(r.long(0), (r.long(1) + 1).min(8)));
            })),
        );
        plan.sink("next", map);
        let check = Arc::new(|prev: &[Record], next: &[Record]| prev == next);
        let iteration = BulkIteration::new(
            plan,
            input,
            "next",
            TerminationCriterion::Converged {
                check,
                max_iterations: 3,
            },
        );
        let result = iteration
            .run(vec![Record::pair(0, 0)], &BulkConfig::new(2))
            .unwrap();
        assert_eq!(result.iterations, 3);
        assert!(
            !result.converged,
            "truncated run must not report a fixpoint"
        );
        assert_eq!(result.solution, vec![Record::pair(0, 3)]);
    }

    #[test]
    fn empty_sink_criterion_uses_the_termination_dataflow() {
        // Step: increment; termination dataflow T emits a record while any
        // value is still below 3.
        let mut plan = Plan::new();
        let input = plan.source("partial-solution", vec![]);
        let map = plan.map(
            "increment",
            input,
            Arc::new(MapClosure(|r: &Record, out: &mut Collector| {
                out.collect(Record::pair(r.long(0), r.long(1) + 1));
            })),
        );
        plan.sink("next", map);
        let t = plan.map(
            "still-running",
            map,
            Arc::new(MapClosure(|r: &Record, out: &mut Collector| {
                if r.long(1) < 3 {
                    out.collect(r.clone());
                }
            })),
        );
        plan.sink("termination", t);
        let iteration = BulkIteration::new(
            plan,
            input,
            "next",
            TerminationCriterion::EmptySink {
                sink: "termination".into(),
                max_iterations: 50,
            },
        );
        let result = iteration
            .run(vec![Record::pair(0, 0)], &BulkConfig::new(2))
            .unwrap();
        assert_eq!(result.iterations, 3);
        assert!(result.converged);
        assert_eq!(result.solution, vec![Record::pair(0, 3)]);
    }

    #[test]
    fn zero_parallelism_is_rejected() {
        let (plan, input) = increment_plan();
        let iteration = BulkIteration::new(
            plan,
            input,
            "next",
            TerminationCriterion::FixedIterations(1),
        );
        let mut config = BulkConfig::new(1);
        config.parallelism = 0;
        assert!(iteration.run(vec![Record::pair(0, 0)], &config).is_err());
    }

    #[test]
    fn unknown_output_sink_is_rejected() {
        let (plan, input) = increment_plan();
        let iteration = BulkIteration::new(
            plan,
            input,
            "missing",
            TerminationCriterion::FixedIterations(1),
        );
        assert!(iteration.run(vec![], &BulkConfig::new(1)).is_err());
    }

    #[test]
    fn optimizer_and_default_plans_agree_on_the_result() {
        let (plan, input) = increment_plan();
        let iteration = BulkIteration::new(
            plan,
            input,
            "next",
            TerminationCriterion::FixedIterations(3),
        );
        let initial: Vec<Record> = (0..20).map(|i| Record::pair(i, i)).collect();
        let with_opt = iteration.run(initial.clone(), &BulkConfig::new(4)).unwrap();
        let without_opt = iteration
            .run(initial, &BulkConfig::new(4).without_optimizer())
            .unwrap();
        let mut a = with_opt.solution;
        let mut b = without_opt.solution;
        a.sort();
        b.sort();
        assert_eq!(a, b);
    }

    #[test]
    fn per_iteration_stats_are_recorded() {
        let (plan, input) = increment_plan();
        let iteration = BulkIteration::new(
            plan,
            input,
            "next",
            TerminationCriterion::FixedIterations(4),
        );
        let result = iteration
            .run(
                (0..10).map(|i| Record::pair(i, 0)).collect(),
                &BulkConfig::new(2),
            )
            .unwrap();
        assert_eq!(result.stats.per_iteration.len(), 4);
        for (i, s) in result.stats.per_iteration.iter().enumerate() {
            assert_eq!(s.iteration, i + 1);
            assert_eq!(s.workset_size, 10);
            assert_eq!(s.elements_changed, 10);
            assert!(s.execution.is_some());
        }
    }
}
