//! Connected Components in all the paper's variants.
//!
//! * [`cc_bulk`] — the bulk-iterative FIXPOINT-CC of Table 1 as a dataflow:
//!   every iteration recomputes the full component mapping by joining it with
//!   the neighbourhood table and taking the minimum per vertex.
//! * [`cc_incremental`] — the incremental INCR-CC of Table 1 / Figure 5 as a
//!   workset iteration with the `InnerCoGroup` update (batch incremental).
//! * [`cc_microstep`] — the MICRO-CC variant using the record-at-a-time
//!   `Match` update, executed in supersteps.
//! * [`cc_async`] — the same microstep program executed asynchronously
//!   without superstep barriers.
//!
//! All variants converge to the same fixpoint: every vertex is labelled with
//! the smallest vertex id of its weakly connected component.

use crate::common::{
    edge_records, initial_component_candidates, initial_components, records_to_vec,
};
use dataflow::prelude::*;
use graphdata::Graph;
use optimizer::{Annotations, FieldCopy};
use spinning_core::prelude::*;
use std::sync::Arc;

/// The outcome of a Connected Components run.
#[derive(Debug)]
pub struct ComponentsResult {
    /// Component id per vertex (indexed by vertex id).  Only a fixpoint when
    /// [`ComponentsResult::converged`] is `true`.
    pub components: Vec<i64>,
    /// Number of iterations (bulk) or supersteps (incremental) executed.
    pub iterations: usize,
    /// `false` when the run was truncated by
    /// [`ComponentsConfig::max_iterations`] before reaching the fixpoint, in
    /// which case `components` holds a partial labelling.
    pub converged: bool,
    /// Per-iteration statistics.
    pub stats: IterationRunStats,
}

/// Configuration shared by all Connected Components variants.
#[derive(Debug, Clone)]
pub struct ComponentsConfig {
    /// Degree of parallelism.
    pub parallelism: usize,
    /// Upper bound on iterations / supersteps.
    pub max_iterations: usize,
    /// Partition routing of the workset variants (hash by default; range
    /// routing gives every worker a contiguous vertex-id interval).  The
    /// bulk variant plans its own exchanges and ignores this.
    pub routing: WorksetRouting,
    /// Budget on the bytes the exchanges may buffer in memory before sealed
    /// pages spill to disk — the workset variants budget their superstep
    /// exchange, the bulk variant its dataflow exchanges and loop-invariant
    /// cache.  Unlimited by default.
    pub memory_budget: MemoryBudget,
    /// Checkpointing and recovery policy, passed through to the workset
    /// driver (superstep boundaries) or the bulk driver (iteration
    /// boundaries).  The asynchronous variant ignores it.
    pub checkpoint: Option<CheckpointPolicy>,
    /// Deterministic fault injector, passed through to the underlying run.
    pub fault: FaultInjector,
    /// Transport of the workset variants' superstep exchange.  Defaults to
    /// the in-process backend; a multi-process transport turns the run into
    /// one SPMD cluster worker (use [`cc_workset_records`], which returns
    /// the worker's owned partitions instead of densifying).  The bulk
    /// variant is single-process and ignores it.
    pub transport: TransportHandle,
    /// Per-edge credit pool of the workset variants' bounded channels (see
    /// `WorksetConfig::channel_credits`): the asynchronous variant bounds
    /// each worker→worker queue to this many records, and the superstep
    /// variants spill an outbox once it holds this many sealed pages.  The
    /// bulk variant ignores it: its fused chains are direct calls that hold
    /// no pages.  `None` falls back to `SPINNING_CHANNEL_CREDITS` or the
    /// layer defaults; results are identical either way.
    pub channel_credits: Option<usize>,
    /// Disables the bulk variant's streaming operator chains, materializing
    /// every forward edge like the pre-streaming executor did.  The escape
    /// hatch exists so equivalence suites can pin the chained execution
    /// byte-identical to the materializing oracle.  The workset variants
    /// have no executor chains and ignore it.
    pub force_materialized: bool,
}

impl ComponentsConfig {
    /// Default configuration: effectively unbounded iterations.
    pub fn new(parallelism: usize) -> Self {
        ComponentsConfig {
            parallelism,
            max_iterations: 100_000,
            routing: WorksetRouting::Hash,
            memory_budget: MemoryBudget::unlimited(),
            checkpoint: None,
            fault: FaultInjector::from_env(),
            transport: TransportHandle::default(),
            channel_credits: None,
            force_materialized: false,
        }
    }

    /// Bounds the number of iterations (used to reproduce the "first 20
    /// iterations of Webbase" measurement of Figure 9).
    pub fn with_max_iterations(mut self, max: usize) -> Self {
        self.max_iterations = max;
        self
    }

    /// Sets the partition routing scheme of the workset variants.
    pub fn with_routing(mut self, routing: WorksetRouting) -> Self {
        self.routing = routing;
        self
    }

    /// Routes the workset variants' superstep exchange (and the solution
    /// set) by range splitters instead of hashing.
    pub fn with_range_routing(self) -> Self {
        self.with_routing(WorksetRouting::Range)
    }

    /// Bounds the bytes the exchanges may buffer in memory (out-of-core
    /// execution).
    pub fn with_memory_budget(mut self, budget: MemoryBudget) -> Self {
        self.memory_budget = budget;
        self
    }

    /// Enables checkpointing every `interval` supersteps (workset variants)
    /// or iterations (bulk variant) under `dir`, with recovery on failure.
    pub fn with_checkpoint(self, interval: usize, dir: impl Into<std::path::PathBuf>) -> Self {
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

    /// Installs the transport the workset variants' superstep exchange runs
    /// over (see [`ComponentsConfig::transport`]).
    pub fn with_transport(mut self, transport: TransportHandle) -> Self {
        self.transport = transport;
        self
    }

    /// Bounds the bounded channels to `credits` records (async) or sealed
    /// pages per superstep outbox — see
    /// [`ComponentsConfig::channel_credits`].  Clamped to at least 1.
    pub fn with_channel_credits(mut self, credits: usize) -> Self {
        self.channel_credits = Some(credits.max(1));
        self
    }

    /// Makes the bulk variant materialize every forward edge instead of
    /// streaming fused chains — see [`ComponentsConfig::force_materialized`].
    pub fn with_force_materialized(mut self, force: bool) -> Self {
        self.force_materialized = force;
        self
    }
}

/// Builds the bulk-iterative step plan: `S ⋈ N` produces a candidate per
/// neighbour, the union with `S` keeps each vertex's own label, and a Reduce
/// takes the minimum per vertex.
fn build_bulk_step_plan(graph: &Graph) -> (Plan, OperatorId, Annotations) {
    let edges = edge_records(graph);
    let edge_count = edges.len();
    let mut plan = Plan::new();
    let solution = plan.source("components", Vec::new());
    plan.set_estimated_records(solution, graph.num_vertices());
    let neighbours = plan.source_shared("neighbours", edges);
    plan.set_estimated_records(neighbours, edge_count);

    // For every edge (vid, nb) propagate the vertex's current cid to nb.
    let candidates = plan.match_join(
        "candidate-components",
        solution,
        neighbours,
        vec![0],
        vec![0],
        Arc::new(MatchClosure(
            |s: &Record, e: &Record, out: &mut Collector| {
                out.collect(Record::pair(e.long(1), s.long(1)));
            },
        )),
    );
    plan.set_estimated_records(candidates, edge_count);
    // Keep the vertex's own label in the running for the minimum.
    let with_own = plan.union("candidates-and-own", vec![candidates, solution]);
    let minimum = plan.reduce(
        "minimum-component",
        with_own,
        vec![0],
        Arc::new(ReduceClosure(
            |key: &[Value], group: &[Record], out: &mut Collector| {
                let min = group
                    .iter()
                    .map(|r| r.long(1))
                    .min()
                    .expect("group is never empty");
                out.collect(Record::pair(key[0].as_long(), min));
            },
        )),
    );
    plan.set_estimated_records(minimum, graph.num_vertices());
    plan.sink("next-components", minimum);

    let mut annotations = Annotations::new();
    annotations.add_copy(
        candidates,
        FieldCopy {
            slot: 1,
            in_field: 1,
            out_field: 0,
        },
    );
    annotations.add_copy(
        minimum,
        FieldCopy {
            slot: 0,
            in_field: 0,
            out_field: 0,
        },
    );
    (plan, solution, annotations)
}

/// The bulk-iterative Connected Components algorithm (FIXPOINT-CC).
pub fn cc_bulk(graph: &Graph, config: &ComponentsConfig) -> Result<ComponentsResult> {
    let (plan, solution, annotations) = build_bulk_step_plan(graph);
    let converged = Arc::new(|prev: &[Record], next: &[Record]| {
        let mut a = prev.to_vec();
        let mut b = next.to_vec();
        a.sort();
        b.sort();
        a == b
    });
    let iteration = BulkIteration::new(
        plan,
        solution,
        "next-components",
        TerminationCriterion::Converged {
            check: converged,
            max_iterations: config.max_iterations,
        },
    );
    let mut bulk_config = BulkConfig::new(config.parallelism)
        .with_annotations(annotations)
        .with_memory_budget(config.memory_budget)
        .with_fault(config.fault.clone())
        .with_force_materialized(config.force_materialized);
    if let Some(policy) = &config.checkpoint {
        bulk_config = bulk_config.with_checkpoint_policy(policy.clone());
    }
    let result = iteration.run(initial_components(graph), &bulk_config)?;
    Ok(ComponentsResult {
        components: records_to_vec(&result.solution, graph.num_vertices()),
        iterations: result.iterations,
        converged: result.converged,
        stats: result.stats,
    })
}

/// Builds the workset iteration shared by the incremental variants: solution
/// records `(vid, cid)`, workset records `(vid, candidate cid)`, constant
/// input `N = (vid, neighbour)`.
fn build_workset_iteration(graph: &Graph, grouped: bool) -> WorksetIteration {
    // The update function of Figure 5: take the smallest candidate cid; emit
    // a delta only if it improves on the current component.
    let update: Arc<dyn UpdateFunction> = if grouped {
        Arc::new(UpdateClosure(
            |key: &Key, current: Option<&Record>, candidates: &[Record]| {
                let best = candidates
                    .iter()
                    .map(|r| r.long(1))
                    .min()
                    .expect("non-empty group");
                match current {
                    Some(c) if c.long(1) <= best => None,
                    _ => Some(Record::pair(key.values()[0].as_long(), best)),
                }
            },
        ))
    } else {
        Arc::new(UpdateClosure(
            |key: &Key, current: Option<&Record>, candidates: &[Record]| {
                let candidate = candidates[0].long(1);
                match current {
                    Some(c) if c.long(1) <= candidate => None,
                    _ => Some(Record::pair(key.values()[0].as_long(), candidate)),
                }
            },
        ))
    };
    // The expansion of Figure 5: the changed vertex's new cid becomes a
    // candidate for every neighbour.
    let expand = Arc::new(ExpandClosure(
        |delta: &Record, edges: &[Record], out: &mut Vec<Record>| {
            let cid = delta.long(1);
            for e in edges {
                out.push(Record::pair(e.long(1), cid));
            }
        },
    ));
    WorksetIteration::builder(vec![0], vec![0], update, expand)
        .constant_input(edge_records(graph), vec![0], vec![0])
        // Smaller component ids are successor states in the CPO.
        .comparator(Arc::new(|a: &Record, b: &Record| b.long(1).cmp(&a.long(1))))
        .build()
}

/// Runs the incremental Connected Components workset iteration and returns
/// the raw [`WorksetResult`]: the solution as `(vid, cid)` records instead
/// of a dense per-vertex vector.  This is the entry point for cluster
/// workers — with a multi-process [`ComponentsConfig::transport`] each
/// process's result holds only the solution partitions it owns, and
/// densifying per process would plant holes; concatenating the workers'
/// records in index order reproduces the single-process record stream.
/// `mode` selects the batch-incremental (`InnerCoGroup`) or microstep
/// (`Match`) update.
pub fn cc_workset_records(
    graph: &Graph,
    config: &ComponentsConfig,
    mode: ExecutionMode,
) -> Result<WorksetResult> {
    let grouped = mode == ExecutionMode::BatchIncremental;
    let iteration = build_workset_iteration(graph, grouped);
    let mut workset_config = WorksetConfig::new(config.parallelism)
        .with_mode(mode)
        .with_max_supersteps(config.max_iterations)
        .with_routing(config.routing)
        .with_memory_budget(config.memory_budget)
        .with_fault(config.fault.clone())
        .with_transport(config.transport.clone());
    if let Some(policy) = &config.checkpoint {
        workset_config = workset_config.with_checkpoint_policy(policy.clone());
    }
    if let Some(credits) = config.channel_credits {
        workset_config = workset_config.with_channel_credits(credits);
    }
    iteration.run(
        initial_components(graph),
        initial_component_candidates(graph),
        &workset_config,
    )
}

fn run_workset(
    graph: &Graph,
    config: &ComponentsConfig,
    mode: ExecutionMode,
) -> Result<ComponentsResult> {
    let result = cc_workset_records(graph, config, mode)?;
    Ok(ComponentsResult {
        components: records_to_vec(&result.solution, graph.num_vertices()),
        iterations: result.supersteps,
        converged: result.converged,
        stats: result.stats,
    })
}

/// The batch-incremental Connected Components algorithm (INCR-CC, CoGroup
/// variant).
pub fn cc_incremental(graph: &Graph, config: &ComponentsConfig) -> Result<ComponentsResult> {
    run_workset(graph, config, ExecutionMode::BatchIncremental)
}

/// The microstep Connected Components algorithm (MICRO-CC, Match variant)
/// executed with superstep synchronisation.
pub fn cc_microstep(graph: &Graph, config: &ComponentsConfig) -> Result<ComponentsResult> {
    run_workset(graph, config, ExecutionMode::Microstep)
}

/// The microstep Connected Components algorithm executed asynchronously,
/// without superstep barriers.
pub fn cc_async(graph: &Graph, config: &ComponentsConfig) -> Result<ComponentsResult> {
    run_workset(graph, config, ExecutionMode::AsynchronousMicrostep)
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphdata::{chain, figure1_graph, rmat, star, DatasetProfile, RmatParams};

    fn oracle(graph: &Graph) -> Vec<i64> {
        graph
            .components_oracle()
            .into_iter()
            .map(i64::from)
            .collect()
    }

    #[test]
    fn figure1_walkthrough_bulk() {
        let graph = figure1_graph();
        let result = cc_bulk(&graph, &ComponentsConfig::new(2)).unwrap();
        assert_eq!(result.components, oracle(&graph));
        // Figure 1 shows convergence of the assignments after two steps; the
        // bulk iteration needs one extra iteration to detect the fixpoint.
        assert!(result.iterations <= 4);
    }

    #[test]
    fn figure1_walkthrough_incremental_and_microstep() {
        let graph = figure1_graph();
        for run in [cc_incremental, cc_microstep, cc_async] {
            let result = run(&graph, &ComponentsConfig::new(2)).unwrap();
            assert_eq!(
                result.components,
                oracle(&graph),
                "variant disagrees with the oracle"
            );
        }
    }

    #[test]
    fn all_variants_agree_on_a_power_law_graph() {
        let graph = rmat(400, 1600, RmatParams::default(), 17).symmetrize();
        let expected = oracle(&graph);
        let config = ComponentsConfig::new(4);
        assert_eq!(cc_bulk(&graph, &config).unwrap().components, expected);
        assert_eq!(
            cc_incremental(&graph, &config).unwrap().components,
            expected
        );
        assert_eq!(cc_microstep(&graph, &config).unwrap().components, expected);
        assert_eq!(cc_async(&graph, &config).unwrap().components, expected);
    }

    #[test]
    fn long_chain_needs_many_supersteps() {
        // The chain reproduces the Webbase long-tail behaviour: the number of
        // supersteps grows with the diameter.
        let graph = chain(200);
        let result = cc_incremental(&graph, &ComponentsConfig::new(2)).unwrap();
        assert_eq!(result.components, vec![0; 200]);
        assert!(
            result.iterations >= 100,
            "only {} supersteps",
            result.iterations
        );
    }

    #[test]
    fn star_converges_in_very_few_supersteps() {
        let graph = star(500);
        let result = cc_incremental(&graph, &ComponentsConfig::new(4)).unwrap();
        assert_eq!(result.components, vec![0; 500]);
        assert!(result.iterations <= 3);
    }

    #[test]
    fn incremental_workset_shrinks_towards_convergence() {
        let graph = DatasetProfile::foaf().generate(4096);
        let result = cc_incremental(&graph, &ComponentsConfig::new(4)).unwrap();
        let sizes: Vec<usize> = result
            .stats
            .per_iteration
            .iter()
            .map(|s| s.workset_size)
            .collect();
        assert!(sizes.len() >= 3);
        // The working set in the last superstep is a tiny fraction of the
        // first superstep's (the Figure 2 effect).
        assert!(
            (*sizes.last().unwrap() as f64) < 0.2 * sizes[0] as f64,
            "sizes: {sizes:?}"
        );
        assert_eq!(result.components, oracle(&graph));
    }

    #[test]
    fn bulk_inspects_every_vertex_each_iteration_but_incremental_does_not() {
        let graph = rmat(600, 2400, RmatParams::default(), 23).symmetrize();
        let bulk = cc_bulk(&graph, &ComponentsConfig::new(2)).unwrap();
        let incr = cc_incremental(&graph, &ComponentsConfig::new(2)).unwrap();
        // Bulk touches the whole partial solution in every iteration.
        for s in &bulk.stats.per_iteration {
            assert_eq!(s.workset_size, graph.num_vertices());
        }
        // The incremental variant touches fewer and fewer vertices.
        let last = incr.stats.per_iteration.last().unwrap();
        assert!(last.elements_inspected < graph.num_vertices());
    }

    #[test]
    fn max_iterations_truncates_the_run() {
        let graph = chain(300);
        let result =
            cc_incremental(&graph, &ComponentsConfig::new(2).with_max_iterations(5)).unwrap();
        assert_eq!(result.iterations, 5);
        // Not converged yet: far vertices still carry their own id, and the
        // wrapper says so instead of presenting the truncation as a fixpoint.
        assert!(!result.converged);
        assert_ne!(result.components, vec![0; 300]);
        let full = cc_incremental(&graph, &ComponentsConfig::new(2)).unwrap();
        assert!(full.converged);
    }

    #[test]
    fn truncated_bulk_run_reports_non_convergence() {
        let graph = chain(64);
        let result = cc_bulk(&graph, &ComponentsConfig::new(2).with_max_iterations(3)).unwrap();
        assert!(!result.converged);
        assert_ne!(result.components, vec![0; 64]);
    }
}
