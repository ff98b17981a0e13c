//! The parallel executor.
//!
//! The executor runs a [`PhysicalPlan`] on a shared-nothing set of worker
//! partitions; each operator's local phase runs one task per partition on the
//! process-wide persistent worker pool ([`spinning_pool::global`]), so
//! scheduling a partition costs a deque push, not a thread spawn.  Each
//! worker partition plays the role of one cluster node in the paper's setup;
//! records that move between partitions during an exchange are counted as
//! "shipped" (network) records in the [`ExecutionStats`].
//!
//! Exchanged (hash/range/broadcast) edges are dams: every such edge fully
//! materialises before downstream operators run, which is always safe for
//! the iteration execution strategies of Sections 4.2 and 5.3 (no operator
//! can ever participate in two iterations simultaneously).  Forward edges,
//! however, *pipeline*: a chain-fusion pass ([`streaming_input_slot`])
//! identifies maximal pipelineable segments — forward-shipped, uncached,
//! single-consumer edges into a slot the consumer can stream — and runs each
//! segment as function composition, one pool task per partition.  The
//! head's collector pushes every emitted record straight into the next
//! member's per-partition state (a map calls its UDF, a grouping folds, a
//! join probes), so a fused edge holds no pages and no intermediate at all.
//! [`ExecConfig::with_force_materialized`] is the escape hatch that disables
//! fusion (and the page-native operator paths), pinning every fused path
//! byte-identical to the materializing oracle.
//!
//! # Exchanges move sealed pages
//!
//! Repartitioning (hash/range) and broadcast exchanges follow the paged
//! binary model of [`crate::page`]: every producer partition routes its
//! records in parallel on the worker pool, records that stay in their
//! partition are *moved* as heap objects (a local forward never serializes,
//! like a chained operator in the real runtime), and records bound for a
//! peer partition are serialized into sealed [`RecordPage`]s.  The exchange
//! itself — the step that stands in for the network — then only moves page
//! pointers; the receiving local phase reads records back out of the pages
//! lazily.  Only forward shipping keeps the records-as-objects fast path.

use crate::contracts::{
    Collector, CrossFunction, MapFunction, MatchFunction, RecordSink, ReduceFunction, Udf,
};
use crate::error::{DataflowError, Result};
use crate::fault::{FaultInjector, FaultSite};
use crate::key::{group_ranges, partition_for, sort_by_key, FxHashMap, Key, KeyFields};
use crate::page::{
    denormalize_long, normalize_long, ExchangedPartition, PageHandle, PageWriter, PagedRecords,
    PrefixTable, RecordPage,
};
use crate::physical::{
    streaming_input_slot, LocalStrategy, PhysicalChoice, PhysicalPlan, ShipStrategy,
};
use crate::plan::{Operator, OperatorId, OperatorKind};
use crate::range::{sample_keys_into, sort_by_key_normalized, RangeBounds};
use crate::record::Record;
use crate::spill::{write_run_in, MemoryBudget, RunMerger, SpillManager, SpillStats, SpilledRun};
use crate::stats::{ExecutionStats, OperatorStats};
use crate::transport::TransportHandle;
use std::borrow::Cow;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The records held by one worker partition.
pub type Partition = Vec<Record>;
/// One partition per parallel instance.
pub type Partitions = Vec<Partition>;
/// One partition's local-phase outcome: `(records_in, output records)`.
type LocalOutcome = Result<(usize, Vec<Record>)>;
/// A paged input sorted by key prefix: the adopted store plus its
/// `(prefix, handle)` pairs in sorted order.
type SortedPaged = (PagedRecords, Vec<(u64, PageHandle)>);

/// Runtime configuration of the [`Executor`].
#[derive(Debug, Clone, Default)]
pub struct ExecConfig {
    /// Budget on the serialized bytes an exchange may buffer in memory:
    /// exceeding it moves sealed pages to disk as sorted runs (see
    /// [`crate::spill`]).  Unlimited by default — nothing ever spills.
    pub memory_budget: MemoryBudget,
    /// Fault injector consulted at spill flushes and worker dispatch sites
    /// (see [`crate::fault`]).  Disabled by default.
    pub fault: FaultInjector,
    /// Disables the page-native operator paths **and chain fusion**, forcing
    /// every join/group to materialize its inputs into heap records first and
    /// every operator boundary to dam.  Off by default (the page-native and
    /// chained paths run whenever an edge qualifies); the equivalence suites
    /// flip it to check the streaming paths produce byte-identical results.
    pub force_materialized: bool,
    /// The transport every repartitioning exchange ships its sealed pages
    /// through.  Defaults to the in-process backend (pointer-moving channels
    /// in a cluster of one); the batch executor rejects multi-process
    /// transports — distribution enters through the iteration runtime.
    pub transport: TransportHandle,
}

impl ExecConfig {
    /// The default configuration (no memory budget).
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the exchange memory budget.
    pub fn with_memory_budget(mut self, budget: MemoryBudget) -> Self {
        self.memory_budget = budget;
        self
    }

    /// Sets the fault injector.
    pub fn with_fault(mut self, fault: FaultInjector) -> Self {
        self.fault = fault;
        self
    }

    /// Forces the materializing operator paths (see
    /// [`ExecConfig::force_materialized`]).
    pub fn with_force_materialized(mut self, force: bool) -> Self {
        self.force_materialized = force;
        self
    }

    /// Sets the exchange transport.
    pub fn with_transport(mut self, transport: TransportHandle) -> Self {
        self.transport = transport;
        self
    }
}

/// Cache of post-exchange inputs, keyed by (consumer operator, input slot).
///
/// The iteration runtime passes the same cache to every execution of the step
/// plan; edges on the constant data path that the optimizer marked with
/// `cache_inputs` are shipped once and then served from here (Section 4.3).
/// Under a memory budget ([`IntermediateCache::with_memory_budget`]) edges
/// too large for memory are spilled to disk as runs — sorted range edges
/// verbatim, since their partitions are already sorted page runs — and every
/// re-execution streams them back from disk.
#[derive(Debug, Default)]
pub struct IntermediateCache {
    entries: HashMap<(OperatorId, usize), CachedEdge>,
    /// Range splitters frozen per consuming operator on the first execution.
    /// Iterative plans re-execute the step plan with the same cache, so
    /// freezing the splitters here keeps cached (constant-path) and
    /// re-shipped (dynamic-path) range edges of the same operator routed by
    /// one histogram — the invariant co-partitioned merge inputs rely on.
    range_bounds: HashMap<OperatorId, Arc<RangeBounds>>,
    /// Budget on the bytes a cached edge may hold in memory.
    memory_budget: MemoryBudget,
}

/// One cached post-exchange edge: the materialized partitions (or, for
/// budget-spilled edges, one run per partition on disk) plus the key fields
/// they are sorted by (range-partitioned cached edges stay sorted, so every
/// re-execution can skip the sort).
#[derive(Debug, Clone)]
struct CachedEdge {
    parts: Arc<Partitions>,
    /// Per-partition spilled runs when the edge exceeded the cache budget;
    /// the in-memory `parts` are empty in that case.
    runs: Option<Arc<Vec<Vec<SpilledRun>>>>,
    sorted_by: Option<KeyFields>,
}

impl CachedEdge {
    /// Builds the per-execution input this cached edge serves: shared record
    /// partitions when in memory, per-partition run handles when spilled
    /// (cloning a run handle shares the file on disk).
    fn serve(&self) -> PreparedInput {
        match &self.runs {
            None => PreparedInput::Shared(Arc::clone(&self.parts), self.sorted_by.clone()),
            Some(runs) => PreparedInput::Paged(
                runs.iter()
                    .map(|partition| {
                        ExchangedPartition::from_spilled(partition.clone(), self.sorted_by.clone())
                    })
                    .collect(),
            ),
        }
    }
}

impl IntermediateCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the byte budget above which cached edges spill to disk.
    pub fn with_memory_budget(mut self, budget: MemoryBudget) -> Self {
        self.memory_budget = budget;
        self
    }

    /// Number of cached edges.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Drops all cached edges and frozen range histograms.
    pub fn clear(&mut self) {
        self.entries.clear();
        self.range_bounds.clear();
    }
}

/// The result of one plan execution: the contents of every sink plus the
/// execution statistics.
#[derive(Debug)]
pub struct ExecutionResult {
    sink_outputs: HashMap<String, Arc<Partitions>>,
    /// Counters collected while executing.
    pub stats: ExecutionStats,
}

impl ExecutionResult {
    /// All records delivered to the sink `name`, flattened across partitions.
    ///
    /// Borrows the result, so the records are cloned; callers that own the
    /// [`ExecutionResult`] and only need one sink should prefer
    /// [`ExecutionResult::into_sink`], which moves the records out.
    pub fn sink(&self, name: &str) -> Result<Vec<Record>> {
        self.sink_partitions(name)
            .map(|parts| parts.iter().flatten().cloned().collect())
    }

    /// Consumes the result and moves the records of sink `name` out without
    /// copying them (unless the sink's partitions are still shared, e.g.
    /// through a clone of [`ExecutionResult::sink_partitions`]).
    pub fn into_sink(mut self, name: &str) -> Result<Vec<Record>> {
        let parts = self
            .sink_outputs
            .remove(name)
            .ok_or_else(|| DataflowError::UnknownSink(name.to_owned()))?;
        match Arc::try_unwrap(parts) {
            Ok(parts) => {
                let total = parts.iter().map(Vec::len).sum();
                let mut records = Vec::with_capacity(total);
                for part in parts {
                    records.extend(part);
                }
                Ok(records)
            }
            Err(shared) => Ok(shared.iter().flatten().cloned().collect()),
        }
    }

    /// True if the sink `name` received no records (without touching them).
    pub fn sink_is_empty(&self, name: &str) -> Result<bool> {
        self.sink_partitions(name)
            .map(|parts| parts.iter().all(Vec::is_empty))
    }

    /// The per-partition records delivered to the sink `name`.
    pub fn sink_partitions(&self, name: &str) -> Result<Arc<Partitions>> {
        self.sink_outputs
            .get(name)
            .cloned()
            .ok_or_else(|| DataflowError::UnknownSink(name.to_owned()))
    }

    /// Names of all sinks that produced output.
    pub fn sink_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.sink_outputs.keys().cloned().collect();
        names.sort();
        names
    }
}

/// Executes physical plans.
#[derive(Debug, Default, Clone)]
pub struct Executor {
    config: ExecConfig,
}

impl Executor {
    /// Creates an executor with the default configuration (no memory
    /// budget).
    pub fn new() -> Self {
        Executor::default()
    }

    /// Creates an executor with an explicit configuration —
    /// `Executor::with_config(ExecConfig::new().with_memory_budget(...))` is
    /// the out-of-core entry point.
    pub fn with_config(config: ExecConfig) -> Self {
        Executor { config }
    }

    /// The executor's configuration.
    pub fn config(&self) -> &ExecConfig {
        &self.config
    }

    /// Executes the plan once, without any loop-invariant caching.
    pub fn execute(&self, physical: &PhysicalPlan) -> Result<ExecutionResult> {
        let mut cache = IntermediateCache::new();
        self.execute_with_cache(physical, &mut cache)
    }

    /// Executes the plan, serving edges marked `cache_inputs` from (and
    /// populating them into) `cache`.
    pub fn execute_with_cache(
        &self,
        physical: &PhysicalPlan,
        cache: &mut IntermediateCache,
    ) -> Result<ExecutionResult> {
        let start = Instant::now();
        let plan = &physical.plan;
        let order = plan.validate()?;
        // A hand-built physical plan can carry parallelism 0; reject it here
        // instead of clamping silently (or panicking on a modulo-by-zero
        // deep inside `partition_for`).
        let parallelism = physical.parallelism;
        if parallelism == 0 {
            return Err(DataflowError::InvalidPlan(
                "parallelism must be at least 1".into(),
            ));
        }
        // The batch executor is single-process: every exchange ships through
        // the transport, but cluster execution (partition ownership, global
        // convergence) is the iteration runtime's job.
        if self.config.transport.is_distributed() {
            return Err(DataflowError::CommSetup(
                "the batch executor runs single-process; multi-process clusters \
                 drive the iteration runtime instead"
                    .into(),
            ));
        }

        let mut outputs: HashMap<OperatorId, Arc<Partitions>> = HashMap::new();
        let mut sink_outputs: HashMap<String, Arc<Partitions>> = HashMap::new();
        let mut stats = ExecutionStats::new();

        // How many input edges still need each operator's output.  Once the
        // last consumer has taken it, the output is removed from `outputs`
        // and — if nothing else (sink results, the cache) shares it — the
        // exchange *moves* the records instead of cloning them.
        let mut remaining_uses = vec![0usize; plan.len()];
        for op in plan.operators() {
            for input in &op.inputs {
                remaining_uses[input.0] += 1;
            }
        }

        // The chain-fusion pass: maximal pipelineable segments over forward,
        // uncached, single-consumer edges.  `force_materialized` is the
        // escape hatch that pins every chained path against the materializing
        // oracle.
        let chain = if self.config.force_materialized {
            ChainPlan::default()
        } else {
            compute_chain_segments(physical)
        };

        // Producers whose every consumer edge is served from the cache need
        // not run at all; their edges' uses are released up front, so the
        // remaining consumers of their inputs can still move records.
        let served = served_from_cache(physical, &order, cache);
        for op in plan.operators().iter().filter(|op| served[op.id.0]) {
            for input in &op.inputs {
                remaining_uses[input.0] -= 1;
            }
        }

        for id in order {
            let op = plan.operator(id);
            if served[id.0] {
                // Reported as a row that consumed and produced nothing, so
                // every execution of the same plan lists the same operators.
                stats.operators.push(OperatorStats {
                    name: op.name.clone(),
                    contract: op.kind.contract_name().to_owned(),
                    ..OperatorStats::default()
                });
                continue;
            }
            if let Some(&(seg, pos)) = chain.member_of.get(&id) {
                // Non-tail members run inside their segment's pipeline; the
                // whole segment executes when the topological walk reaches
                // its tail (every side input's producer has run by then).
                if pos + 1 != chain.segments[seg].len() {
                    continue;
                }
                self.execute_segment(
                    physical,
                    &chain.segments[seg],
                    &mut outputs,
                    &mut sink_outputs,
                    cache,
                    &mut remaining_uses,
                    &mut stats,
                )?;
                continue;
            }
            let choice = physical.choice(id);
            let op_start = Instant::now();

            // 1. Sources produce their partitioned data directly.
            if let OperatorKind::Source { data } = &op.kind {
                let parts = split_into_partitions(data, parallelism);
                let produced: usize = parts.iter().map(Vec::len).sum();
                outputs.insert(id, Arc::new(parts));
                stats.operators.push(OperatorStats {
                    name: op.name.clone(),
                    contract: op.kind.contract_name().to_owned(),
                    records_in: 0,
                    records_out: produced,
                    elapsed: op_start.elapsed(),
                });
                continue;
            }

            // 2a. All range-partitioned edges of one operator share one
            // splitter histogram (sampled from their producers, frozen in
            // the cache across repeated executions), so co-partitioned
            // inputs of a merge join agree on the key space.
            let range_bounds = prepare_range_bounds(op, choice, &outputs, cache, parallelism)?;

            // 2b. Exchange (or fetch from cache) each input edge.
            let mut prepared: Vec<PreparedInput> = Vec::with_capacity(op.inputs.len());
            for slot in 0..op.inputs.len() {
                prepared.push(self.prepare_input(
                    op,
                    slot,
                    choice,
                    range_bounds.as_deref(),
                    parallelism,
                    &mut outputs,
                    cache,
                    &mut remaining_uses,
                    &mut stats,
                )?);
            }

            // Split the prepared inputs into one input set per partition:
            // shared inputs hand every partition a (cheap) Arc clone, paged
            // inputs move each partition's local records and received page
            // pointers into that partition's task.
            let mut partition_inputs = split_by_partition(prepared, parallelism, op.inputs.len());

            // 3. Run the local phase, one pool task per partition.  The
            //    persistent worker pool is shared process-wide, so an
            //    operator's parallel region costs a deque push per partition
            //    instead of a round of thread spawns.
            let local = choice.local;
            let page_native = !self.config.force_materialized;
            let mut result_parts: Vec<Partition> = Vec::with_capacity(parallelism);
            let mut records_in_total = 0usize;
            if parallelism == 1 {
                let inputs = partition_inputs.pop().expect("one partition input set");
                let mut collector = Collector::new();
                let records_in = run_local(
                    op,
                    local,
                    inputs,
                    page_native,
                    &self.config.fault,
                    &mut collector,
                )?;
                records_in_total += records_in;
                result_parts.push(collector.into_records());
            } else {
                let mut per_partition: Vec<Option<LocalOutcome>> =
                    (0..parallelism).map(|_| None).collect();
                let fault = &self.config.fault;
                spinning_pool::global()
                    .try_scope(|scope| {
                        for (inputs, slot) in
                            partition_inputs.drain(..).zip(per_partition.iter_mut())
                        {
                            scope.spawn_labeled("operator-local", move || {
                                fault.panic_check(FaultSite::WorkerPanic, "operator-local");
                                let mut collector = Collector::new();
                                *slot = Some(
                                    run_local(
                                        op,
                                        local,
                                        inputs,
                                        page_native,
                                        fault,
                                        &mut collector,
                                    )
                                    .map(|records_in| (records_in, collector.into_records())),
                                );
                            });
                        }
                    })
                    .map_err(|panic| DataflowError::WorkerPanic {
                        operator: op.name.clone(),
                        superstep: 0,
                        message: panic.message(),
                    })?;
                for slot in per_partition {
                    let (records_in, out) = slot.expect("pool ran every partition task")?;
                    records_in_total += records_in;
                    result_parts.push(out);
                }
            }

            let produced: usize = result_parts.iter().map(Vec::len).sum();
            let result_parts = Arc::new(result_parts);
            if let OperatorKind::Sink { name } = &op.kind {
                sink_outputs.insert(name.clone(), Arc::clone(&result_parts));
            }
            outputs.insert(id, result_parts);
            stats.operators.push(OperatorStats {
                name: op.name.clone(),
                contract: op.kind.contract_name().to_owned(),
                records_in: records_in_total,
                records_out: produced,
                elapsed: op_start.elapsed(),
            });
        }

        stats.elapsed = start.elapsed();
        Ok(ExecutionResult {
            sink_outputs,
            stats,
        })
    }

    /// Exchanges (or serves from the cache) one input edge of `op`,
    /// consuming one use of the producer's output.  Shared between the
    /// materializing per-operator loop and the side inputs of fused chain
    /// segments.
    #[allow(clippy::too_many_arguments)]
    fn prepare_input(
        &self,
        op: &Operator,
        slot: usize,
        choice: &PhysicalChoice,
        range_bounds: Option<&RangeBounds>,
        parallelism: usize,
        outputs: &mut HashMap<OperatorId, Arc<Partitions>>,
        cache: &mut IntermediateCache,
        remaining_uses: &mut [usize],
        stats: &mut ExecutionStats,
    ) -> Result<PreparedInput> {
        let input = op.inputs[slot];
        let cache_key = (op.id, slot);
        // This edge consumes one use of the producer's output, whether it is
        // served from the cache or exchanged.
        let last_use = remaining_uses[input.0] == 1;
        remaining_uses[input.0] = remaining_uses[input.0].saturating_sub(1);
        if choice.cache_inputs[slot] {
            if let Some(cached) = cache.entries.get(&cache_key) {
                stats.cache_hits += 1;
                let served = cached.serve();
                if last_use {
                    outputs.remove(&input);
                }
                return Ok(served);
            }
        }
        let producer_out = if last_use {
            outputs.remove(&input)
        } else {
            outputs.get(&input).cloned()
        }
        .ok_or_else(|| {
            DataflowError::ExecutionFailed(format!(
                "input {} of '{}' has not produced output",
                input.0, op.name
            ))
        })?;
        // The producer's partitions can be consumed in place when no one else
        // holds them (no other pending consumer, not a sink result, not
        // cached).
        let producer = match Arc::try_unwrap(producer_out) {
            Ok(owned) => ProducerInput::Owned(owned),
            Err(shared) => ProducerInput::Shared(shared),
        };
        let ship = &choice.input_ships[slot];
        if choice.cache_inputs[slot] {
            // Cached (loop-invariant) edges are re-read on every execution of
            // the step plan, so they are materialized once and served as
            // shared record partitions — exchanged as records directly, since
            // serializing them into pages would be an immediate
            // serialize/deserialize roundtrip.  An edge exceeding the cache
            // budget is spilled to disk instead and streamed back on every
            // execution.
            let (parts, sorted_by) =
                cache_exchange_records(producer, ship, parallelism, range_bounds, stats);
            let edge = build_cached_edge(parts, sorted_by, cache.memory_budget, stats)?;
            let served = edge.serve();
            cache.entries.insert(cache_key, edge);
            Ok(served)
        } else {
            exchange(
                producer,
                ship,
                parallelism,
                range_bounds,
                &self.config,
                stats,
            )
        }
    }

    /// Executes one fused chain segment (`members`, head to tail) by direct
    /// calls: one pool task per partition runs the head's ordinary local
    /// phase, and every record the head emits is pushed straight through the
    /// downstream members ([`FusedMember`]) — a fused edge holds no pages
    /// and no buffered intermediate.
    ///
    /// Side inputs (the non-fused slots — a hash join's build side, a
    /// cross's broadcast side) are prepared on this thread exactly like the
    /// materializing path prepares them; the topological walk dispatches the
    /// segment at its *tail*, by which point every side producer has run.
    #[allow(clippy::too_many_arguments)]
    fn execute_segment(
        &self,
        physical: &PhysicalPlan,
        members: &[OperatorId],
        outputs: &mut HashMap<OperatorId, Arc<Partitions>>,
        sink_outputs: &mut HashMap<String, Arc<Partitions>>,
        cache: &mut IntermediateCache,
        remaining_uses: &mut [usize],
        stats: &mut ExecutionStats,
    ) -> Result<()> {
        let plan = &physical.plan;
        let parallelism = physical.parallelism;
        let page_native = !self.config.force_materialized;
        let fault = &self.config.fault;

        let mut stages: Vec<Stage<'_>> = Vec::with_capacity(members.len());
        let mut partition_inputs: Vec<Vec<Vec<LocalInput>>> = (0..parallelism)
            .map(|_| Vec::with_capacity(members.len()))
            .collect();
        for (pos, &mid) in members.iter().enumerate() {
            let op = plan.operator(mid);
            let choice = physical.choice(mid);
            let range_bounds = prepare_range_bounds(op, choice, outputs, cache, parallelism)?;
            let stream_slot = (pos > 0).then(|| {
                streaming_input_slot(&op.kind, choice.local)
                    .expect("fused consumers have a streaming slot")
            });
            let mut prepared: Vec<PreparedInput> = Vec::new();
            for slot in 0..op.inputs.len() {
                if Some(slot) == stream_slot {
                    // The fused edge: consumed through the chain, so its
                    // producer (the previous member) never materializes into
                    // `outputs`.
                    remaining_uses[op.inputs[slot].0] = 0;
                    continue;
                }
                prepared.push(self.prepare_input(
                    op,
                    slot,
                    choice,
                    range_bounds.as_deref(),
                    parallelism,
                    outputs,
                    cache,
                    remaining_uses,
                    stats,
                )?);
            }
            let arity = prepared.len();
            for (inputs, member_inputs) in split_by_partition(prepared, parallelism, arity)
                .into_iter()
                .zip(partition_inputs.iter_mut())
            {
                member_inputs.push(inputs);
            }
            stages.push(Stage {
                op,
                local: choice.local,
                stream_slot,
            });
        }

        // Fused edges are forward edges: partition `p` of every member feeds
        // partition `p` of the next, so each partition's whole segment runs
        // as one task.  A panic anywhere in it unwinds through every member's
        // frame, so the error names the segment, head to tail.
        let mut outcomes: Vec<Option<Result<FusedOutcome>>> =
            (0..parallelism).map(|_| None).collect();
        let stages = &stages;
        spinning_pool::global()
            .try_scope(|scope| {
                for (inputs, slot) in partition_inputs.into_iter().zip(outcomes.iter_mut()) {
                    scope.spawn_labeled("chained-segment", move || {
                        *slot = Some(run_fused(stages, inputs, page_native, fault));
                    });
                }
            })
            .map_err(|panic| DataflowError::WorkerPanic {
                operator: stages
                    .iter()
                    .map(|stage| stage.op.name.as_str())
                    .collect::<Vec<_>>()
                    .join(" → "),
                superstep: 0,
                message: panic.message(),
            })?;

        let mut counts = vec![(0usize, 0usize); stages.len()];
        let mut elapsed = Duration::ZERO;
        let mut tail_parts: Vec<Partition> = Vec::with_capacity(parallelism);
        for slot in outcomes {
            let outcome = slot.expect("pool ran every partition task")?;
            for (total, (records_in, records_out)) in counts.iter_mut().zip(outcome.counts) {
                total.0 += records_in;
                total.1 += records_out;
            }
            elapsed += outcome.elapsed;
            tail_parts.push(outcome.records);
        }
        let tail_pos = stages.len() - 1;
        for (pos, (stage, (records_in, records_out))) in stages.iter().zip(counts).enumerate() {
            if pos < tail_pos {
                // Fused-edge records stay inside their partition — the same
                // accounting a materializing forward exchange applies.
                stats.local_records += records_out;
            }
            stats.operators.push(OperatorStats {
                name: stage.op.name.clone(),
                contract: stage.op.kind.contract_name().to_owned(),
                records_in,
                records_out,
                elapsed,
            });
        }
        stats.chained_operators += stages.len();

        let tail = stages[tail_pos].op;
        let result_parts = Arc::new(tail_parts);
        if let OperatorKind::Sink { name } = &tail.kind {
            sink_outputs.insert(name.clone(), Arc::clone(&result_parts));
        }
        outputs.insert(tail.id, result_parts);
        Ok(())
    }
}

/// Splits source data into contiguous chunks, one per partition.
fn split_into_partitions(data: &Arc<Vec<Record>>, parallelism: usize) -> Partitions {
    let mut parts: Partitions = vec![Vec::new(); parallelism];
    if data.is_empty() {
        return parts;
    }
    let chunk = data.len().div_ceil(parallelism);
    for (i, record) in data.iter().enumerate() {
        parts[(i / chunk).min(parallelism - 1)].push(record.clone());
    }
    parts
}

/// The producer side of one exchange: owned when this consumer is the last
/// user of the producer's output (records may be moved or serialized in
/// place), shared when someone else — another consumer, a sink result, the
/// loop-invariant cache — still holds it.
enum ProducerInput {
    /// Exclusively owned partitions.
    Owned(Partitions),
    /// Partitions still shared with other holders.
    Shared(Arc<Partitions>),
}

impl ProducerInput {
    fn partitions(&self) -> &Partitions {
        match self {
            ProducerInput::Owned(parts) => parts,
            ProducerInput::Shared(parts) => parts,
        }
    }

    /// Flattens all partitions into one record vector (moving when owned).
    fn into_flat_records(self) -> Vec<Record> {
        match self {
            ProducerInput::Owned(parts) => parts.into_iter().flatten().collect(),
            ProducerInput::Shared(parts) => parts.iter().flatten().cloned().collect(),
        }
    }
}

/// A post-exchange edge, as handed to the consumer's local phase.
enum PreparedInput {
    /// Shared record partitions (forward shipping, cache hits) plus the key
    /// fields they are sorted by, when the exchange that materialized them
    /// delivered sorted partitions.
    Shared(Arc<Partitions>, Option<KeyFields>),
    /// One [`ExchangedPartition`] per consumer partition (hash/range
    /// repartitioning and broadcast, i.e. every edge that "touches the
    /// network").
    Paged(Vec<ExchangedPartition>),
}

/// Splits prepared inputs into one input set per partition: shared inputs
/// hand every partition a (cheap) Arc clone, paged inputs move each
/// partition's local records and received page pointers into that
/// partition's task.
fn split_by_partition(
    prepared: Vec<PreparedInput>,
    parallelism: usize,
    arity: usize,
) -> Vec<Vec<LocalInput>> {
    let mut partition_inputs: Vec<Vec<LocalInput>> = (0..parallelism)
        .map(|_| Vec::with_capacity(arity))
        .collect();
    for prep in prepared {
        match prep {
            PreparedInput::Shared(parts, sorted_by) => {
                for (p, inputs) in partition_inputs.iter_mut().enumerate() {
                    inputs.push(LocalInput::Shared(Arc::clone(&parts), p, sorted_by.clone()));
                }
            }
            PreparedInput::Paged(parts) => {
                debug_assert_eq!(parts.len(), parallelism);
                for (part, inputs) in parts.into_iter().zip(partition_inputs.iter_mut()) {
                    inputs.push(LocalInput::Paged(part));
                }
            }
        }
    }
    partition_inputs
}

// ---------------------------------------------------------------------------
// Chain fusion: streaming operator segments
// ---------------------------------------------------------------------------

/// The fused segments of one physical plan: each segment is a maximal linear
/// chain of operators whose connecting edges stream instead of materializing.
#[derive(Debug, Default)]
struct ChainPlan {
    /// Member operator → (segment index, position inside the segment).
    member_of: HashMap<OperatorId, (usize, usize)>,
    /// Segment members in pipeline order, head first.
    segments: Vec<Vec<OperatorId>>,
}

/// The chain-fusion pass: finds maximal pipelineable segments.
///
/// An edge `A → B` (into slot `s` of `B`) fuses when all of the following
/// hold, so streaming it cannot change any observable result:
///
/// * `s` is `B`'s streaming slot ([`streaming_input_slot`]) — `B` can
///   consume the edge record by record;
/// * the edge ships `Forward` — partition `p` of `A` feeds partition `p` of
///   `B`, so a per-partition channel preserves exactly the materialized
///   delivery;
/// * the edge is not cached — loop-invariant edges must still snapshot into
///   the [`IntermediateCache`] for reuse across iterations;
/// * `B` is `A`'s **only** consumer — other consumers need `A`'s
///   materialized output;
/// * `A` is not a source (sources partition data on the main thread, there
///   is nothing to overlap) and not a sink (a sink's records *are* the
///   plan's result and must materialize).
///
/// Segments of length 1 are not chains; they run on the materializing path.
fn compute_chain_segments(physical: &PhysicalPlan) -> ChainPlan {
    let plan = &physical.plan;
    let mut consumer_count = vec![0usize; plan.len()];
    for op in plan.operators() {
        for input in &op.inputs {
            consumer_count[input.0] += 1;
        }
    }
    let mut fused_pred: Vec<Option<OperatorId>> = vec![None; plan.len()];
    let mut fused_succ: Vec<Option<OperatorId>> = vec![None; plan.len()];
    for op in plan.operators() {
        let choice = physical.choice(op.id);
        let Some(slot) = streaming_input_slot(&op.kind, choice.local) else {
            continue;
        };
        if slot >= op.inputs.len() {
            continue;
        }
        let producer_id = op.inputs[slot];
        if choice.input_ships[slot] != ShipStrategy::Forward
            || choice.cache_inputs[slot]
            || consumer_count[producer_id.0] != 1
        {
            continue;
        }
        let producer = plan.operator(producer_id);
        if matches!(
            producer.kind,
            OperatorKind::Source { .. } | OperatorKind::Sink { .. }
        ) {
            continue;
        }
        fused_pred[op.id.0] = Some(producer_id);
        fused_succ[producer_id.0] = Some(op.id);
    }
    let mut chain = ChainPlan::default();
    for op in plan.operators() {
        // A head has a fused successor but no fused predecessor.
        if fused_pred[op.id.0].is_some() || fused_succ[op.id.0].is_none() {
            continue;
        }
        let mut members = vec![op.id];
        let mut cursor = op.id;
        while let Some(next) = fused_succ[cursor.0] {
            members.push(next);
            cursor = next;
        }
        let seg = chain.segments.len();
        for (pos, &member) in members.iter().enumerate() {
            chain.member_of.insert(member, (seg, pos));
        }
        chain.segments.push(members);
    }
    chain
}

/// One member of a fused segment, as the per-partition tasks see it.
struct Stage<'p> {
    op: &'p Operator,
    local: LocalStrategy,
    /// The fused input slot this member consumes (`None` for the head, which
    /// reads materialized inputs like any operator).
    stream_slot: Option<usize>,
}

/// What one partition of a fused segment reports back.
struct FusedOutcome {
    /// `(records_in, records_out)` per member, head first.
    counts: Vec<(usize, usize)>,
    elapsed: Duration,
    /// The tail's output partition.
    records: Vec<Record>,
}

/// Runs one partition of a fused segment: the downstream members are built
/// tail first, each streaming into the next, and the head's ordinary local
/// phase emits into the first of them.  Finishing the members head to tail
/// then lets groupings emit their groups downstream.
fn run_fused(
    stages: &[Stage<'_>],
    inputs: Vec<Vec<LocalInput>>,
    page_native: bool,
    fault: &FaultInjector,
) -> Result<FusedOutcome> {
    let start = Instant::now();
    // One dispatch event per member × partition, so seeded fault schedules
    // count the same events as when every member ran on its own.
    for stage in stages {
        fault.panic_check(FaultSite::WorkerPanic, &stage.op.name);
    }
    let mut inputs = inputs.into_iter();
    let head_inputs = inputs.next().expect("a segment has a head");
    let mut out = Collector::new();
    for (stage, side_inputs) in stages[1..].iter().zip(inputs).rev() {
        let member = FusedMember::new(stage, side_inputs, fault, out)?;
        out = Collector::with_sink(Box::new(member));
    }
    let head = &stages[0];
    let records_in = run_local(
        head.op,
        head.local,
        head_inputs,
        page_native,
        fault,
        &mut out,
    )?;
    let mut counts = vec![(records_in, out.len())];
    while let Some(sink) = out.take_sink() {
        let mut member = sink
            .into_any()
            .downcast::<FusedMember>()
            .expect("fused members stream into fused members");
        member.finish();
        counts.push((member.records_in, member.out.len()));
        out = member.out;
    }
    Ok(FusedOutcome {
        counts,
        elapsed: start.elapsed(),
        records: out.into_records(),
    })
}

/// A downstream member of a fused segment on one partition: the
/// [`RecordSink`] its upstream neighbour's collector pushes every emitted
/// record into.  Each consumer keeps only its operator's own state, and every
/// emission path matches [`run_local`]'s record for record, which is what
/// keeps chained and materialized executions byte-identical.
struct FusedMember {
    consumer: FusedConsumer,
    /// Side-input records plus every record pushed so far.
    records_in: usize,
    /// Streams into the next member, or buffers the segment's output at the
    /// tail.
    out: Collector,
}

/// The per-partition state of one fused consumer.
enum FusedConsumer {
    Map(Arc<dyn MapFunction>),
    Sink,
    /// Folds the stream into the group table (the pre-aggregation shape),
    /// emitting in key order on finish like the materializing path.
    HashGroup {
        key: KeyFields,
        udf: Arc<dyn ReduceFunction>,
        groups: FxHashMap<Key, Vec<Record>>,
    },
    /// Buffers the stream and pays the same sort the materializing SortGroup
    /// path pays on an unsorted forward input (forward edges deliver no
    /// order).
    SortGroup {
        key: KeyFields,
        udf: Arc<dyn ReduceFunction>,
        records: Vec<Record>,
    },
    /// A hash join probing with the stream: the table indexes the
    /// materialized build side, matches come out in build order.  Stream slot
    /// 0 probes left (build=right), slot 1 probes right (build=left) — the
    /// same assignment, argument positions included, that `run_match` makes.
    Probe {
        probe_key: KeyFields,
        udf: Arc<dyn MatchFunction>,
        build: Vec<Record>,
        table: FxHashMap<Key, Vec<usize>>,
        probe_left: bool,
    },
    /// A nested-loop cross streaming its left side against the materialized
    /// right side.
    Cross {
        udf: Arc<dyn CrossFunction>,
        right: Vec<Record>,
    },
}

impl FusedMember {
    fn new(
        stage: &Stage<'_>,
        side_inputs: Vec<LocalInput>,
        fault: &FaultInjector,
        out: Collector,
    ) -> Result<Self> {
        let op = stage.op;
        let records_in = side_inputs.iter().map(LocalInput::len).sum();
        // The same executor-side spill-read fault gate as `run_local`: side
        // inputs can arrive as spilled runs under a memory budget.
        for input in &side_inputs {
            if input.has_spilled_runs() {
                fault.io_check(FaultSite::SpillRead)?;
            }
        }
        let mut side_inputs = side_inputs.into_iter();
        let mut side_records = || -> Result<Vec<Record>> {
            let input = side_inputs
                .next()
                .expect("plan validation checked input arity");
            Ok(input.into_records()?)
        };
        let consumer = match (&op.kind, &op.udf) {
            (OperatorKind::Map, Udf::Map(udf)) => FusedConsumer::Map(Arc::clone(udf)),
            (OperatorKind::Sink { .. }, _) => FusedConsumer::Sink,
            (OperatorKind::Reduce { key }, Udf::Reduce(udf)) => match stage.local {
                LocalStrategy::SortGroup => FusedConsumer::SortGroup {
                    key: key.clone(),
                    udf: Arc::clone(udf),
                    records: Vec::new(),
                },
                _ => FusedConsumer::HashGroup {
                    key: key.clone(),
                    udf: Arc::clone(udf),
                    groups: FxHashMap::default(),
                },
            },
            (
                OperatorKind::Match {
                    left_key,
                    right_key,
                },
                Udf::Match(udf),
            ) => {
                let probe_left = stage.stream_slot == Some(0);
                let (build_key, probe_key) = if probe_left {
                    (right_key, left_key)
                } else {
                    (left_key, right_key)
                };
                let build = side_records()?;
                let mut table: FxHashMap<Key, Vec<usize>> = FxHashMap::default();
                for (i, record) in build.iter().enumerate() {
                    table
                        .entry(Key::extract(record, build_key))
                        .or_default()
                        .push(i);
                }
                FusedConsumer::Probe {
                    probe_key: probe_key.clone(),
                    udf: Arc::clone(udf),
                    build,
                    table,
                    probe_left,
                }
            }
            (OperatorKind::Cross, Udf::Cross(udf)) => FusedConsumer::Cross {
                udf: Arc::clone(udf),
                right: side_records()?,
            },
            (kind, _) => unreachable!(
                "operator contract {} cannot consume a fused edge",
                kind.contract_name()
            ),
        };
        Ok(FusedMember {
            consumer,
            records_in,
            out,
        })
    }

    /// Emits what the member held back until its input ended: the groups of
    /// a grouping.  Every other consumer already emitted on push.
    fn finish(&mut self) {
        let out = &mut self.out;
        match &mut self.consumer {
            FusedConsumer::HashGroup { udf, groups, .. } => {
                emit_grouped(std::mem::take(groups), udf.as_ref(), out);
            }
            FusedConsumer::SortGroup { key, udf, records } => {
                sort_by_key(records, key);
                for (start, end) in group_ranges(records, key) {
                    let group = &records[start..end];
                    let k = Key::extract(&group[0], key);
                    udf.reduce(&k.values(), group, out);
                }
            }
            _ => {}
        }
    }
}

impl RecordSink for FusedMember {
    fn push(&mut self, record: Record) {
        self.records_in += 1;
        let out = &mut self.out;
        match &mut self.consumer {
            FusedConsumer::Map(udf) => udf.map(&record, out),
            FusedConsumer::Sink => out.collect(record),
            FusedConsumer::HashGroup { key, groups, .. } => {
                groups
                    .entry(Key::extract(&record, key))
                    .or_default()
                    .push(record);
            }
            FusedConsumer::SortGroup { records, .. } => records.push(record),
            FusedConsumer::Probe {
                probe_key,
                udf,
                build,
                table,
                probe_left,
            } => {
                if let Some(matches) = table.get(&Key::extract(&record, probe_key)) {
                    for &i in matches {
                        if *probe_left {
                            udf.join(&record, &build[i], out);
                        } else {
                            udf.join(&build[i], &record, out);
                        }
                    }
                }
            }
            FusedConsumer::Cross { udf, right } => {
                for r in right.iter() {
                    udf.cross(&record, r, out);
                }
            }
        }
    }

    fn into_any(self: Box<Self>) -> Box<dyn std::any::Any> {
        self
    }
}

/// Marks the operators whose output no one needs in this execution: every
/// consumer edge is either a hit in `cache` or leads to another such
/// operator.  Sinks always run (their records are the result), and so do
/// operators without consumers.
fn served_from_cache(
    physical: &PhysicalPlan,
    order: &[OperatorId],
    cache: &IntermediateCache,
) -> Vec<bool> {
    let plan = &physical.plan;
    let mut consumers: Vec<Vec<(OperatorId, usize)>> = vec![Vec::new(); plan.len()];
    for op in plan.operators() {
        for (slot, input) in op.inputs.iter().enumerate() {
            consumers[input.0].push((op.id, slot));
        }
    }
    let mut served = vec![false; plan.len()];
    for &id in order.iter().rev() {
        let op = plan.operator(id);
        served[id.0] = !matches!(op.kind, OperatorKind::Sink { .. })
            && !consumers[id.0].is_empty()
            && consumers[id.0].iter().all(|&(consumer, slot)| {
                served[consumer.0]
                    || (physical.choice(consumer).cache_inputs[slot]
                        && cache.entries.contains_key(&(consumer, slot)))
            });
    }
    served
}

/// Builds (or reuses) the shared range histogram of one operator.
///
/// All range-partitioned input edges of the operator route through **one**
/// [`RangeBounds`] built from a combined key sample of their producers:
/// splitters are key *values*, so the two sides of a merge join — keyed on
/// different field positions — still agree on which partition owns which key
/// interval.  The bounds are frozen in the [`IntermediateCache`] so repeated
/// executions of an iterative step plan keep routing cached constant-path
/// edges and re-shipped dynamic-path edges consistently (the histogram is
/// built from the first iteration's data; later skew only affects balance,
/// never correctness).
///
/// Mixing hash- and range-partitioned inputs on a keyed two-input operator
/// is rejected: the two schemes route the same key to different partitions,
/// which would silently break the join's co-partitioning invariant.
fn prepare_range_bounds(
    op: &Operator,
    choice: &PhysicalChoice,
    outputs: &HashMap<OperatorId, Arc<Partitions>>,
    cache: &mut IntermediateCache,
    parallelism: usize,
) -> Result<Option<Arc<RangeBounds>>> {
    let mut range_edges: Vec<(usize, &KeyFields)> = Vec::new();
    let mut incompatible_ship = None;
    for (slot, ship) in choice.input_ships.iter().enumerate() {
        match ship {
            ShipStrategy::PartitionRange(keys) => range_edges.push((slot, keys)),
            // A hash-shipped sibling routes equal keys by a different
            // function; a forward-shipped sibling carries whatever layout
            // the upstream operator produced — even if that layout is range
            // partitioned, it came from a *different* histogram than the one
            // this operator is about to sample.  Either way the join's
            // co-partitioning invariant is silently broken, so both are
            // rejected (broadcast siblings replicate and are always fine).
            ShipStrategy::PartitionHash(_) => incompatible_ship = Some("hash-partitioned"),
            ShipStrategy::Forward => incompatible_ship = Some("forwarded"),
            ShipStrategy::Broadcast => {}
        }
    }
    if range_edges.is_empty() {
        return Ok(None);
    }
    if let (Some(kind), OperatorKind::Match { .. } | OperatorKind::CoGroup { .. }) =
        (incompatible_ship, &op.kind)
    {
        return Err(DataflowError::InvalidPlan(format!(
            "operator '{}' mixes range-partitioned and {kind} inputs; co-partitioned join \
             inputs must share one range histogram (range-ship both sides or broadcast one)",
            op.name
        )));
    }
    if let Some(bounds) = cache.range_bounds.get(&op.id) {
        return Ok(Some(Arc::clone(bounds)));
    }
    let mut sample: Vec<Key> = Vec::new();
    for &(slot, keys) in &range_edges {
        if let Some(producer) = outputs.get(&op.inputs[slot]) {
            for partition in producer.iter() {
                sample_keys_into(&mut sample, partition, keys);
            }
        }
    }
    let bounds = Arc::new(RangeBounds::from_sample(sample, parallelism));
    cache.range_bounds.insert(op.id, Arc::clone(&bounds));
    Ok(Some(bounds))
}

/// The record-based exchange used for loop-invariant (cached) edges.  The
/// cache stores materialized record partitions that are re-read on every
/// step-plan execution, so routing them through sealed pages would be an
/// immediate serialize/deserialize roundtrip; instead records are cloned (or
/// moved, when owned) straight into their target partitions.  Routing and
/// shipped/local accounting mirror the paged exchange; range edges are
/// additionally sorted once, so every re-execution reads them pre-sorted.
/// Returns the partitions plus the key fields they are sorted by (range
/// shipping only).
fn cache_exchange_records(
    producer: ProducerInput,
    ship: &ShipStrategy,
    parallelism: usize,
    bounds: Option<&RangeBounds>,
    stats: &mut ExecutionStats,
) -> (Partitions, Option<KeyFields>) {
    match ship {
        ShipStrategy::Forward => {
            let total: usize = producer.partitions().iter().map(Vec::len).sum();
            stats.local_records += total;
            let mut parts = match producer {
                ProducerInput::Owned(parts) => parts,
                ProducerInput::Shared(parts) => {
                    Arc::try_unwrap(parts).unwrap_or_else(|shared| (*shared).clone())
                }
            };
            parts.resize(parallelism, Vec::new());
            (parts, None)
        }
        ShipStrategy::PartitionHash(keys) | ShipStrategy::PartitionRange(keys) => {
            let is_range = matches!(ship, ShipStrategy::PartitionRange(_));
            let bounds = is_range.then(|| bounds.expect("executor built range bounds"));
            let total: usize = producer.partitions().iter().map(Vec::len).sum();
            let per_target = total / parallelism + total / (parallelism * 4).max(1) + 4;
            let mut parts: Partitions = (0..parallelism)
                .map(|_| Vec::with_capacity(per_target))
                .collect();
            let mut route = |src: usize, record: Cow<'_, Record>| {
                let target = match bounds {
                    Some(bounds) => bounds.partition_for_record(&record, keys),
                    None => partition_for(&record, keys, parallelism),
                };
                if target == src {
                    stats.local_records += 1;
                } else {
                    stats.shipped_records += 1;
                    stats.shipped_bytes += record.estimated_bytes();
                }
                parts[target].push(record.into_owned());
            };
            match producer {
                ProducerInput::Owned(partitions) => {
                    for (src, partition) in partitions.into_iter().enumerate() {
                        for record in partition {
                            route(src, Cow::Owned(record));
                        }
                    }
                }
                ProducerInput::Shared(partitions) => {
                    for (src, partition) in partitions.iter().enumerate() {
                        for record in partition {
                            route(src, Cow::Borrowed(record));
                        }
                    }
                }
            }
            if is_range {
                for part in &mut parts {
                    sort_by_key_normalized(part, keys);
                }
                (parts, Some(keys.clone()))
            } else {
                (parts, None)
            }
        }
        ShipStrategy::Broadcast => {
            let records = producer.into_flat_records();
            let copies = parallelism.saturating_sub(1);
            stats.shipped_records += records.len() * copies;
            stats.shipped_bytes +=
                copies * records.iter().map(Record::estimated_bytes).sum::<usize>();
            stats.local_records += records.len();
            let mut parts: Partitions = (0..copies).map(|_| records.clone()).collect();
            parts.push(records);
            (parts, None)
        }
    }
}

/// Materializes one cached edge, spilling it to disk when it exceeds the
/// cache's memory budget.  Spilled range edges are already sorted per
/// partition, so their pages are written **verbatim** as one sorted run per
/// partition — the sort was paid once, the disk keeps it.
fn build_cached_edge(
    parts: Partitions,
    sorted_by: Option<KeyFields>,
    budget: MemoryBudget,
    stats: &mut ExecutionStats,
) -> Result<CachedEdge> {
    let total_bytes: usize = parts
        .iter()
        .flatten()
        .map(Record::estimated_bytes)
        .sum::<usize>();
    if budget.allows(total_bytes) {
        return Ok(CachedEdge {
            parts: Arc::new(parts),
            runs: None,
            sorted_by,
        });
    }
    let dir = crate::spill::default_spill_dir();
    let mut runs: Vec<Vec<SpilledRun>> = Vec::with_capacity(parts.len());
    for partition in parts {
        if partition.is_empty() {
            runs.push(Vec::new());
            continue;
        }
        let mut writer = PageWriter::new();
        for record in &partition {
            writer.push(record);
        }
        let run = write_run_in(&dir, &writer.finish(), sorted_by.clone())?;
        stats.spilled_bytes += run.byte_len();
        stats.spilled_runs += 1;
        runs.push(vec![run]);
    }
    Ok(CachedEdge {
        parts: Arc::new(Partitions::new()),
        runs: Some(Arc::new(runs)),
        sorted_by,
    })
}

/// Routes the producer's partitions to the consumer's partitions according to
/// the shipping strategy, updating the shipped/local counters.  Hash and
/// range exchanges run under the executor's memory budget: sealed pages
/// beyond it spill to disk as sorted runs (broadcast replicates shared pages
/// and never spills; forward moves records locally and has nothing to
/// serialize).
fn exchange(
    producer: ProducerInput,
    ship: &ShipStrategy,
    parallelism: usize,
    bounds: Option<&RangeBounds>,
    config: &ExecConfig,
    stats: &mut ExecutionStats,
) -> Result<PreparedInput> {
    match ship {
        ShipStrategy::Forward => {
            let total: usize = producer.partitions().iter().map(Vec::len).sum();
            stats.local_records += total;
            let parts = match producer {
                ProducerInput::Owned(mut parts) => {
                    parts.resize(parallelism, Vec::new());
                    Arc::new(parts)
                }
                ProducerInput::Shared(parts) => {
                    if parts.len() == parallelism {
                        parts
                    } else {
                        let mut cloned = (*parts).clone();
                        cloned.resize(parallelism, Vec::new());
                        Arc::new(cloned)
                    }
                }
            };
            Ok(PreparedInput::Shared(parts, None))
        }
        ShipStrategy::PartitionHash(keys) => {
            let spill =
                exchange_spill_manager(config, keys, producer.partitions().len(), parallelism);
            Ok(PreparedInput::Paged(paged_exchange(
                producer,
                keys,
                parallelism,
                &spill,
                &config.transport,
                stats,
            )?))
        }
        ShipStrategy::PartitionRange(keys) => {
            let spill =
                exchange_spill_manager(config, keys, producer.partitions().len(), parallelism);
            Ok(PreparedInput::Paged(range_exchange(
                producer,
                keys,
                bounds.expect("executor built range bounds"),
                parallelism,
                &spill,
                &config.transport,
                stats,
            )?))
        }
        ShipStrategy::Broadcast => Ok(PreparedInput::Paged(broadcast_paged(
            producer,
            parallelism,
            stats,
        ))),
    }
}

/// The spill policy of one repartitioning exchange: the executor's budget is
/// split evenly over the exchange's producer×target page writers, and every
/// flushed run is sorted on the exchange key — range partitions are sorted
/// runs by definition, and hash partitions gain the normalized-key order
/// that lets sort-based consumers merge instead of re-sorting.
fn exchange_spill_manager(
    config: &ExecConfig,
    keys: &[usize],
    sources: usize,
    parallelism: usize,
) -> SpillManager {
    SpillManager::new(
        config.memory_budget.share(sources.max(1) * parallelism),
        Some(keys.to_vec()),
    )
    .with_fault(config.fault.clone())
}

/// What one producer partition contributes to a paged exchange: the records
/// that stay local, one run of sealed pages (plus any spilled runs) per peer
/// target, and the routing counters.
struct RoutedSource {
    local: Vec<Record>,
    pages: Vec<Vec<Arc<RecordPage>>>,
    /// Runs spilled per target while routing under a memory budget.
    runs: Vec<Vec<SpilledRun>>,
    shipped_records: usize,
    shipped_bytes: usize,
    spill: SpillStats,
}

/// Routes one producer partition: records staying in `src` go to the local
/// buffer (moved when the producer is owned, cloned when it is shared —
/// that is the only difference the `Cow` carries); records for peer
/// partitions are serialized into the target's budgeted page writer straight
/// from the borrow, never cloned — sealed pages beyond the writer's budget
/// leave for disk as sorted runs.  The routing decision itself is the
/// `router` closure — hash for [`paged_exchange`], splitter search for
/// [`range_exchange`].
fn route_source<'a>(
    src: usize,
    records: impl Iterator<Item = Cow<'a, Record>>,
    router: &(impl Fn(&Record) -> usize + Sync),
    parallelism: usize,
    spill: &SpillManager,
) -> std::io::Result<RoutedSource> {
    let mut writers: Vec<crate::spill::SpillingWriter> =
        (0..parallelism).map(|_| spill.writer()).collect();
    let mut local = Vec::new();
    let (mut shipped_records, mut shipped_bytes) = (0usize, 0usize);
    for record in records {
        let target = router(&record);
        if target == src {
            local.push(record.into_owned());
        } else {
            shipped_records += 1;
            shipped_bytes += writers[target].push(&record);
        }
    }
    let mut pages = Vec::with_capacity(parallelism);
    let mut runs = Vec::with_capacity(parallelism);
    let mut spill_stats = SpillStats::default();
    for writer in writers {
        let out = writer.finish()?;
        spill_stats.merge(&out.stats);
        pages.push(out.pages);
        runs.push(out.runs);
    }
    Ok(RoutedSource {
        local,
        pages,
        runs,
        shipped_records,
        shipped_bytes,
        spill: spill_stats,
    })
}

/// The paged repartitioning skeleton shared by the hash and range exchanges.
/// Every producer partition routes its records concurrently on the worker
/// pool (serializing outbound records into per-target pages); the sealed
/// pages then ship through the transport's page channel — pointer moves on
/// the in-process backend, framed bytes on TCP — while local record buffers
/// and spilled-run handles (disk is node-local) move directly.
fn route_paged(
    producer: ProducerInput,
    router: &(impl Fn(&Record) -> usize + Sync),
    parallelism: usize,
    spill: &SpillManager,
    transport: &TransportHandle,
    stats: &mut ExecutionStats,
) -> Result<Vec<ExchangedPartition>> {
    let sources = producer.partitions().len();
    let mut routed: Vec<Option<std::io::Result<RoutedSource>>> =
        (0..sources).map(|_| None).collect();
    if sources <= 1 {
        match producer {
            ProducerInput::Owned(parts) => {
                for (src, records) in parts.into_iter().enumerate() {
                    routed[src] = Some(route_source(
                        src,
                        records.into_iter().map(Cow::Owned),
                        router,
                        parallelism,
                        spill,
                    ));
                }
            }
            ProducerInput::Shared(parts) => {
                for (src, records) in parts.iter().enumerate() {
                    routed[src] = Some(route_source(
                        src,
                        records.iter().map(Cow::Borrowed),
                        router,
                        parallelism,
                        spill,
                    ));
                }
            }
        }
    } else {
        let route_panic = |panic: spinning_pool::ScopePanic| DataflowError::WorkerPanic {
            operator: "exchange-route".to_string(),
            superstep: 0,
            message: panic.message(),
        };
        match producer {
            ProducerInput::Owned(parts) => {
                spinning_pool::global()
                    .try_scope(|scope| {
                        for ((src, records), slot) in
                            parts.into_iter().enumerate().zip(routed.iter_mut())
                        {
                            scope.spawn_labeled("exchange-route", move || {
                                spill
                                    .fault()
                                    .panic_check(FaultSite::WorkerPanic, "exchange-route");
                                *slot = Some(route_source(
                                    src,
                                    records.into_iter().map(Cow::Owned),
                                    router,
                                    parallelism,
                                    spill,
                                ));
                            });
                        }
                    })
                    .map_err(route_panic)?;
            }
            ProducerInput::Shared(parts) => {
                let parts: &Partitions = &parts;
                spinning_pool::global()
                    .try_scope(|scope| {
                        for ((src, records), slot) in
                            parts.iter().enumerate().zip(routed.iter_mut())
                        {
                            scope.spawn_labeled("exchange-route", move || {
                                spill
                                    .fault()
                                    .panic_check(FaultSite::WorkerPanic, "exchange-route");
                                *slot = Some(route_source(
                                    src,
                                    records.iter().map(Cow::Borrowed),
                                    router,
                                    parallelism,
                                    spill,
                                ));
                            });
                        }
                    })
                    .map_err(route_panic)?;
            }
        }
    }
    let mut routed: Vec<RoutedSource> = routed
        .into_iter()
        .map(|slot| {
            slot.expect("pool routed every producer partition")
                .map_err(DataflowError::from)
        })
        .collect::<Result<_>>()?;

    // Gather: partition `t` keeps the records that never left it and receives
    // the sealed pages every producer addressed to it through the page
    // channel; spilled-run handles move directly (the run files are
    // node-local).  On the in-process backend this is pure pointer moves.
    let mut result: Vec<ExchangedPartition> = routed
        .iter_mut()
        .map(|source| {
            stats.shipped_records += source.shipped_records;
            stats.shipped_bytes += source.shipped_bytes;
            stats.local_records += source.local.len();
            stats.shipped_pages += source.pages.iter().map(Vec::len).sum::<usize>();
            stats.spilled_bytes += source.spill.spilled_bytes;
            stats.spilled_runs += source.spill.spilled_runs;
            ExchangedPartition::from_records(std::mem::take(&mut source.local))
        })
        .collect();
    result.resize_with(parallelism, ExchangedPartition::default);
    let channel = transport.fresh_channel(parallelism);
    for (src, source) in routed.into_iter().enumerate() {
        for (target, pages) in source.pages.into_iter().enumerate() {
            channel.send(0, src, target, pages)?;
        }
        channel.finish_round(0, src)?;
        for (target, runs) in source.runs.into_iter().enumerate() {
            result[target].receive_runs(runs);
        }
    }
    // A producer narrower than the consumer still owes the channel one
    // end-of-round per missing source, or the receivers would wait for it.
    for src in sources..parallelism {
        channel.finish_round(0, src)?;
    }
    for (target, slot) in result.iter_mut().enumerate() {
        for (_, pages) in channel.recv(0, target)? {
            slot.receive_pages(pages);
        }
    }
    Ok(result)
}

/// The hash repartitioning exchange (see [`route_paged`]).
fn paged_exchange(
    producer: ProducerInput,
    keys: &[usize],
    parallelism: usize,
    spill: &SpillManager,
    transport: &TransportHandle,
    stats: &mut ExecutionStats,
) -> Result<Vec<ExchangedPartition>> {
    route_paged(
        producer,
        &|record: &Record| partition_for(record, keys, parallelism),
        parallelism,
        spill,
        transport,
        stats,
    )
}

/// The range repartitioning exchange: routes by binary search over the
/// shared splitter histogram (see [`prepare_range_bounds`]) and then sorts
/// every consumer partition on the key — the memcmp prefix sort for `Long`
/// keys, the `Value`-comparison sort otherwise — so the concatenation of the
/// delivered partitions is **globally sorted**.  The per-partition sorts run
/// concurrently on the worker pool; the delivered partitions advertise their
/// order ([`ExchangedPartition::sorted_by`]), which lets sort-based local
/// strategies skip their own sort.
fn range_exchange(
    producer: ProducerInput,
    keys: &[usize],
    bounds: &RangeBounds,
    parallelism: usize,
    spill: &SpillManager,
    transport: &TransportHandle,
    stats: &mut ExecutionStats,
) -> Result<Vec<ExchangedPartition>> {
    let routed = route_paged(
        producer,
        &|record: &Record| bounds.partition_for_record(record, keys),
        parallelism,
        spill,
        transport,
        stats,
    )?;
    let mut sorted: Vec<Option<ExchangedPartition>> = routed.into_iter().map(Some).collect();
    // Sort what is in memory; anything that spilled during routing is
    // already a sorted run on disk (sorted on flush), so the delivered
    // partition is the *merge* of the sorted pieces — the sort never touches
    // the spilled bytes again.
    let sort_one = |part: ExchangedPartition| {
        let (mut records, runs) = part.into_mem_and_runs();
        sort_by_key_normalized(&mut records, keys);
        if runs.is_empty() {
            ExchangedPartition::from_sorted_records(records, keys.to_vec())
        } else {
            ExchangedPartition::from_sorted_spilled(records, runs, keys.to_vec())
        }
    };
    if parallelism <= 1 {
        for slot in sorted.iter_mut() {
            *slot = Some(sort_one(slot.take().expect("partition present")));
        }
    } else {
        spinning_pool::global()
            .try_scope(|scope| {
                for slot in sorted.iter_mut() {
                    let sort_one = &sort_one;
                    scope.spawn_labeled("range-sort", move || {
                        *slot = Some(sort_one(slot.take().expect("partition present")));
                    });
                }
            })
            .map_err(|panic| DataflowError::WorkerPanic {
                operator: "range-sort".to_string(),
                superstep: 0,
                message: panic.message(),
            })?;
    }
    Ok(sorted
        .into_iter()
        .map(|slot| slot.expect("pool sorted every partition"))
        .collect())
}

/// The paged broadcast: all records are serialized **once**, then every
/// consumer partition shares the same sealed pages by pointer — replication
/// costs one Arc clone per page per target instead of one record clone per
/// record per target.
fn broadcast_paged(
    producer: ProducerInput,
    parallelism: usize,
    stats: &mut ExecutionStats,
) -> Vec<ExchangedPartition> {
    if parallelism == 1 {
        // Degenerate broadcast: everything is local, nothing to serialize.
        let records = producer.into_flat_records();
        stats.local_records += records.len();
        return vec![ExchangedPartition::from_records(records)];
    }
    let mut writer = PageWriter::new();
    let (mut count, mut bytes) = (0usize, 0usize);
    for record in producer.partitions().iter().flatten() {
        count += 1;
        bytes += writer.push(record);
    }
    let pages = writer.finish();
    let copies = parallelism - 1;
    stats.shipped_records += count * copies;
    stats.shipped_bytes += bytes * copies;
    stats.local_records += count;
    stats.shipped_pages += pages.len() * copies;
    (0..parallelism)
        .map(|_| ExchangedPartition::new(Vec::new(), pages.clone()))
        .collect()
}

/// One input edge of one partition's local phase: either a view into shared
/// record partitions or the owned local-records-plus-pages of a paged
/// exchange.
enum LocalInput {
    /// Partition `1` of the shared partitions `0`, plus the key fields the
    /// partition is sorted by (range-exchanged cached edges).
    Shared(Arc<Partitions>, usize, Option<KeyFields>),
    /// The owned post-exchange input of this partition.
    Paged(ExchangedPartition),
}

impl LocalInput {
    /// Number of records in this input.
    fn len(&self) -> usize {
        match self {
            LocalInput::Shared(parts, p, _) => parts[*p].len(),
            LocalInput::Paged(part) => part.record_count(),
        }
    }

    /// The key fields this input is already sorted by (delivered by a range
    /// exchange), if any.  Sort-based local strategies with a matching key
    /// skip their sort.
    fn sorted_by(&self) -> Option<&[usize]> {
        match self {
            LocalInput::Shared(_, _, sorted) => sorted.as_deref(),
            LocalInput::Paged(part) => part.sorted_by(),
        }
    }

    /// Visits every record by reference; page records are deserialized into
    /// one scratch record reused across calls.  Fails with the underlying
    /// I/O error when a spilled run cannot be read.
    fn for_each_ref(&self, f: impl FnMut(&Record)) -> std::io::Result<()> {
        match self {
            LocalInput::Shared(parts, p, _) => {
                let mut f = f;
                for record in &parts[*p] {
                    f(record);
                }
                Ok(())
            }
            LocalInput::Paged(part) => part.for_each_ref(f),
        }
    }

    /// Visits every record owned: shared inputs clone (someone else still
    /// holds them), paged inputs move their local records and materialize
    /// their page records.  Fails with the underlying I/O error when a
    /// spilled run cannot be read.
    fn for_each_owned(self, f: impl FnMut(Record)) -> std::io::Result<()> {
        match self {
            LocalInput::Shared(parts, p, _) => {
                let mut f = f;
                for record in &parts[p] {
                    f(record.clone());
                }
                Ok(())
            }
            LocalInput::Paged(part) => part.for_each_owned(f),
        }
    }

    /// Materializes the whole input into owned records (preserving the
    /// delivered order).  Fails with the underlying I/O error when a spilled
    /// run cannot be read.
    fn into_records(self) -> std::io::Result<Vec<Record>> {
        match self {
            LocalInput::Shared(parts, p, _) => Ok(parts[p].clone()),
            LocalInput::Paged(part) => part.into_records(),
        }
    }

    /// True when this input is backed by spilled runs on disk — the inputs
    /// whose local phase performs spill reads (and therefore consults the
    /// [`FaultSite::SpillRead`] injector before touching the disk).
    fn has_spilled_runs(&self) -> bool {
        matches!(self, LocalInput::Paged(part) if part.spilled_run_count() > 0)
    }
}

/// Runs one operator's local work on one partition's inputs, emitting into
/// `out`.  With `page_native` set (the default), joins and groups over paged
/// inputs work on `(page, offset)` handles into the delivered pages,
/// deserializing a record only at the user-function boundary; otherwise (or
/// when an input does not qualify) they materialize heap records first.
/// Returns the number of records consumed; spill-read failures (injected or
/// real) surface as typed errors instead of panics.
fn run_local(
    op: &Operator,
    local: LocalStrategy,
    inputs: Vec<LocalInput>,
    page_native: bool,
    fault: &FaultInjector,
    out: &mut Collector,
) -> Result<usize> {
    let records_in: usize = inputs.iter().map(LocalInput::len).sum();
    // The executor-side spill-read fault gate: one check per input backed by
    // spilled runs, consumed before any local algorithm touches the disk —
    // the same convention the workset superstep read path follows.
    for input in &inputs {
        if input.has_spilled_runs() {
            fault.io_check(FaultSite::SpillRead)?;
        }
    }
    let mut inputs = inputs.into_iter();
    fn next_input(inputs: &mut impl Iterator<Item = LocalInput>) -> LocalInput {
        inputs.next().expect("plan validation checked input arity")
    }
    match (&op.kind, &op.udf) {
        (OperatorKind::Map, Udf::Map(udf)) => {
            next_input(&mut inputs).for_each_ref(|record| udf.map(record, out))?;
        }
        (OperatorKind::Reduce { key }, Udf::Reduce(udf)) => {
            run_reduce(
                key,
                local,
                next_input(&mut inputs),
                udf.as_ref(),
                out,
                page_native,
            )?;
        }
        (
            OperatorKind::Match {
                left_key,
                right_key,
            },
            Udf::Match(udf),
        ) => {
            let left = next_input(&mut inputs);
            let right = next_input(&mut inputs);
            run_match(
                left_key,
                right_key,
                local,
                left,
                right,
                udf.as_ref(),
                out,
                page_native,
            )?;
        }
        (OperatorKind::Cross, Udf::Cross(udf)) => {
            let left = next_input(&mut inputs);
            let right = next_input(&mut inputs);
            let right_records = right.into_records()?;
            left.for_each_ref(|l| {
                for r in &right_records {
                    udf.cross(l, r, out);
                }
            })?;
        }
        (
            OperatorKind::CoGroup {
                left_key,
                right_key,
                inner,
            },
            Udf::CoGroup(udf),
        ) => {
            let left = next_input(&mut inputs);
            let right = next_input(&mut inputs);
            run_cogroup(left_key, right_key, *inner, left, right, udf.as_ref(), out)?;
        }
        (OperatorKind::Union, _) => {
            for input in inputs {
                input.for_each_owned(|record| out.collect(record))?;
            }
        }
        (OperatorKind::Sink { .. }, _) => {
            next_input(&mut inputs).for_each_owned(|record| out.collect(record))?;
        }
        (OperatorKind::Source { .. }, _) => {
            // Sources are handled by the executor before run_local is called.
            unreachable!("sources do not run a local phase");
        }
        (kind, udf) => {
            panic!(
                "operator '{}' has contract {} but UDF {:?}",
                op.name,
                kind.contract_name(),
                udf
            );
        }
    }
    Ok(records_in)
}

/// Materializes one input sorted by `key`: pre-sorted deliveries pass
/// through (sorted spilled partitions merge linearly inside
/// [`LocalInput::into_records`]), unsorted inputs whose spilled runs are
/// individually sorted on `key` merge those runs with the sorted in-memory
/// residue, and everything else pays the sort.
fn into_sorted_records(input: LocalInput, key: &[usize]) -> std::io::Result<Vec<Record>> {
    let presorted = input.sorted_by() == Some(key);
    match input {
        LocalInput::Paged(part)
            if !presorted && part.spilled_run_count() > 0 && part.spilled_runs_sorted_by(key) =>
        {
            let (mut residue, runs) = part.into_mem_and_runs();
            sort_by_key_normalized(&mut residue, key);
            let mut records = Vec::new();
            RunMerger::over_runs(&runs, residue, key.to_vec())?.collect_into(&mut records)?;
            Ok(records)
        }
        other => {
            let mut records = other.into_records()?;
            if !presorted {
                sort_by_key(&mut records, key);
            }
            Ok(records)
        }
    }
}

// ---------------------------------------------------------------------------
// Page-native operator paths
// ---------------------------------------------------------------------------
//
// Joins and groups over paged inputs build tables of `(page, offset)` handles
// keyed on the 8-byte normalized `Long` key prefix instead of materializing
// `Vec<Record>` first.  Because the normalized encoding is a bijection and
// byte equality of serialized fields is exactly `Value` equality, the prefix
// *is* the complete single-`Long` key: no collision fallback is ever needed.
// Records are deserialized only at the user-function boundary, through
// scratch records reused across calls.  Inputs that do not qualify (composite
// or non-`Long` keys, shared record inputs on the build side, or sorted
// spilled partitions whose merge order the materializing path preserves)
// fall back, so both paths stay byte-identical.

/// The normalized key prefix of a heap record's `Long` field, or `None` when
/// the field is missing or not a `Long`.
#[inline]
fn long_prefix_of(record: &Record, field: usize) -> Option<u64> {
    match record.fields().get(field)? {
        crate::value::Value::Long(v) => Some(u64::from_be_bytes(normalize_long(*v))),
        _ => None,
    }
}

/// Ingests a paged partition into a handle-addressed store, reporting every
/// record's `(prefix, handle)` in delivery order (local records, then pages,
/// then spilled runs — the same order the materializing accessors visit).
/// Local records are serialized once; pages are adopted by pointer; spilled
/// runs are revived as pages (a read per page, no per-record work).  Returns
/// `Ok(None)` when any record's key field is not a `Long` — the caller falls
/// back to the materializing path — and a typed I/O error when a run cannot
/// be read (falling back would only hit the same error again, unpaged).
fn ingest_paged(
    part: &ExchangedPartition,
    key_field: usize,
    mut on_record: impl FnMut(u64, PageHandle),
) -> std::io::Result<Option<PagedRecords>> {
    let mut store = PagedRecords::new();
    for record in part.local_records() {
        let Some(prefix) = long_prefix_of(record, key_field) else {
            return Ok(None);
        };
        let handle = store.append(record);
        on_record(prefix, handle);
    }
    let mut scan = |store: &mut PagedRecords, page: &Arc<RecordPage>| {
        store.adopt_page_scanned(page, |handle, view| match view.long_key_prefix(key_field) {
            Some(prefix) => {
                on_record(prefix, handle);
                true
            }
            None => false,
        })
    };
    for page in part.pages() {
        if !scan(&mut store, page) {
            return Ok(None);
        }
    }
    for run in part.runs() {
        let pages = run.read_pages()?;
        for page in &pages {
            if !scan(&mut store, page) {
                return Ok(None);
            }
        }
    }
    Ok(Some(store))
}

/// True when `part` is worth ingesting: it actually delivered serialized
/// data.  An all-local partition gains nothing from being re-serialized.
fn has_paged_data(part: &ExchangedPartition) -> bool {
    part.page_count() > 0 || part.spilled_run_count() > 0
}

/// True when the materializing accessors would *merge* this partition's
/// sorted pieces (sorted delivery with spilled overflow) — an order the
/// ingest-in-delivery-order path cannot reproduce, so it must fall back.
fn is_sorted_merge_part(part: &ExchangedPartition) -> bool {
    part.sorted_by().is_some() && part.spilled_run_count() > 0
}

/// Page-native hash join: builds a prefix-keyed handle table over the build
/// side and probes it with key prefixes read in place off the probe side's
/// pages.  Returns `Ok(false)` (nothing emitted) when either side
/// disqualifies.
#[allow(clippy::too_many_arguments)]
fn try_match_paged(
    build: &LocalInput,
    probe: &LocalInput,
    build_key: &[usize],
    probe_key: &[usize],
    build_is_left: bool,
    udf: &dyn crate::contracts::MatchFunction,
    out: &mut Collector,
) -> std::io::Result<bool> {
    let (&[build_field], &[probe_field]) = (build_key, probe_key) else {
        return Ok(false);
    };
    let LocalInput::Paged(build_part) = build else {
        return Ok(false);
    };
    if !has_paged_data(build_part) || is_sorted_merge_part(build_part) {
        return Ok(false);
    }
    let mut table = PrefixTable::new();
    let Some(store) = ingest_paged(build_part, build_field, |prefix, handle| {
        table.insert(prefix, handle)
    })?
    else {
        return Ok(false);
    };

    // One probe record against the whole chain of its prefix.  Matches are
    // emitted in build insertion order, exactly like the materializing path.
    fn probe_chain(
        store: &PagedRecords,
        table: &PrefixTable,
        prefix: u64,
        probe: &Record,
        build_is_left: bool,
        build_scratch: &mut Record,
        udf: &dyn crate::contracts::MatchFunction,
        out: &mut Collector,
    ) {
        for handle in table.probe(prefix) {
            store.view(handle).read_into(build_scratch);
            if build_is_left {
                udf.join(build_scratch, probe, out);
            } else {
                udf.join(probe, build_scratch, out);
            }
        }
    }
    let mut build_scratch = Record::empty();
    match probe {
        LocalInput::Shared(parts, p, _) => {
            for record in &parts[*p] {
                if let Some(prefix) = long_prefix_of(record, probe_field) {
                    probe_chain(
                        &store,
                        &table,
                        prefix,
                        record,
                        build_is_left,
                        &mut build_scratch,
                        udf,
                        out,
                    );
                }
            }
        }
        LocalInput::Paged(part) => {
            for record in part.local_records() {
                if let Some(prefix) = long_prefix_of(record, probe_field) {
                    probe_chain(
                        &store,
                        &table,
                        prefix,
                        record,
                        build_is_left,
                        &mut build_scratch,
                        udf,
                        out,
                    );
                }
            }
            // Page records: the key prefix is read in place; the record is
            // deserialized (into one reused scratch) only when its chain is
            // non-empty.  This is the zero-copy exchange→probe hot path.
            let mut probe_scratch = Record::empty();
            for page in part.pages() {
                for view in page.reader() {
                    let Some(prefix) = view.long_key_prefix(probe_field) else {
                        continue;
                    };
                    if table.probe(prefix).next().is_none() {
                        continue;
                    }
                    view.read_into(&mut probe_scratch);
                    probe_chain(
                        &store,
                        &table,
                        prefix,
                        &probe_scratch,
                        build_is_left,
                        &mut build_scratch,
                        udf,
                        out,
                    );
                }
            }
            let mut scratch = Record::empty();
            for run in part.runs() {
                let mut cursor = run.cursor()?;
                while cursor.next_into(&mut scratch)? {
                    if let Some(prefix) = long_prefix_of(&scratch, probe_field) {
                        probe_chain(
                            &store,
                            &table,
                            prefix,
                            &scratch,
                            build_is_left,
                            &mut build_scratch,
                            udf,
                            out,
                        );
                    }
                }
            }
        }
    }
    Ok(true)
}

/// Sorts a paged input by key prefix without materializing it: the returned
/// pairs order `(prefix, handle)` with the handle (insertion position) as
/// tiebreak, which reproduces exactly the stable record sort of the
/// materializing path — on 16-byte items instead of heap records.
fn sorted_pairs_paged(
    part: &ExchangedPartition,
    key_field: usize,
) -> std::io::Result<Option<SortedPaged>> {
    let mut pairs: Vec<(u64, PageHandle)> = Vec::with_capacity(part.record_count());
    let Some(store) = ingest_paged(part, key_field, |prefix, handle| {
        pairs.push((prefix, handle))
    })?
    else {
        return Ok(None);
    };
    pairs.sort_unstable();
    Ok(Some((store, pairs)))
}

/// Materializes the group `pairs[start..end]` into the reusable `group`
/// buffer (records beyond the group keep their warm capacity for the next
/// group) and returns the group slice length.
fn fill_group(store: &PagedRecords, pairs: &[(u64, PageHandle)], group: &mut Vec<Record>) -> usize {
    while group.len() < pairs.len() {
        group.push(Record::empty());
    }
    for (slot, &(_, handle)) in group.iter_mut().zip(pairs) {
        store.view(handle).read_into(slot);
    }
    pairs.len()
}

/// Page-native grouping: sorts `(prefix, handle)` pairs and streams each key
/// group through one reusable record buffer into the reduce function.
/// Groups come out in key order with records in delivery order — identical
/// to both the hash-table and the sort-based materializing strategies.
fn try_reduce_paged(
    key: &[usize],
    input: &LocalInput,
    sort_based: bool,
    udf: &dyn crate::contracts::ReduceFunction,
    out: &mut Collector,
) -> std::io::Result<bool> {
    let &[field] = key else {
        return Ok(false);
    };
    let LocalInput::Paged(part) = input else {
        return Ok(false);
    };
    if !has_paged_data(part) || is_sorted_merge_part(part) {
        return Ok(false);
    }
    // The sort strategy merges key-sorted spilled runs out of core (one
    // group in memory at a time); reviving those runs wholesale here would
    // trade that memory bound away, so the merge path keeps them.
    if sort_based && part.spilled_run_count() > 0 && part.spilled_runs_sorted_by(key) {
        return Ok(false);
    }
    let Some((store, pairs)) = sorted_pairs_paged(part, field)? else {
        return Ok(false);
    };
    let mut group: Vec<Record> = Vec::new();
    let mut start = 0;
    while start < pairs.len() {
        let prefix = pairs[start].0;
        let mut end = start + 1;
        while end < pairs.len() && pairs[end].0 == prefix {
            end += 1;
        }
        let len = fill_group(&store, &pairs[start..end], &mut group);
        let k = Key::Long(denormalize_long(prefix.to_be_bytes()));
        udf.reduce(&k.values(), &group[..len], out);
        start = end;
    }
    Ok(true)
}

/// Page-native sort-merge join: both sides sort `(prefix, handle)` pairs and
/// the two-pointer merge materializes only the current key group of each
/// side.
fn try_sort_merge_paged(
    left_key: &[usize],
    right_key: &[usize],
    left: &LocalInput,
    right: &LocalInput,
    udf: &dyn crate::contracts::MatchFunction,
    out: &mut Collector,
) -> std::io::Result<bool> {
    let (&[lfield], &[rfield]) = (left_key, right_key) else {
        return Ok(false);
    };
    let (LocalInput::Paged(lpart), LocalInput::Paged(rpart)) = (left, right) else {
        return Ok(false);
    };
    if !has_paged_data(lpart) && !has_paged_data(rpart) {
        return Ok(false);
    }
    // Sides whose spilled runs carry the key order materialize by linear
    // merge in the fallback — an interleaving the delivery-order ingest
    // cannot reproduce.
    let disqualifies = |part: &ExchangedPartition, key: &[usize]| {
        is_sorted_merge_part(part)
            || (part.spilled_run_count() > 0 && part.spilled_runs_sorted_by(key))
    };
    if disqualifies(lpart, left_key) || disqualifies(rpart, right_key) {
        return Ok(false);
    }
    let Some((lstore, lpairs)) = sorted_pairs_paged(lpart, lfield)? else {
        return Ok(false);
    };
    let Some((rstore, rpairs)) = sorted_pairs_paged(rpart, rfield)? else {
        return Ok(false);
    };
    let (mut lgroup, mut rgroup) = (Vec::new(), Vec::new());
    let (mut li, mut ri) = (0usize, 0usize);
    while li < lpairs.len() && ri < rpairs.len() {
        let (lp, rp) = (lpairs[li].0, rpairs[ri].0);
        // Unsigned prefix order is the key order (normalized encoding).
        match lp.cmp(&rp) {
            std::cmp::Ordering::Less => {
                li += 1;
                while li < lpairs.len() && lpairs[li].0 == lp {
                    li += 1;
                }
            }
            std::cmp::Ordering::Greater => {
                ri += 1;
                while ri < rpairs.len() && rpairs[ri].0 == rp {
                    ri += 1;
                }
            }
            std::cmp::Ordering::Equal => {
                let mut lend = li + 1;
                while lend < lpairs.len() && lpairs[lend].0 == lp {
                    lend += 1;
                }
                let mut rend = ri + 1;
                while rend < rpairs.len() && rpairs[rend].0 == rp {
                    rend += 1;
                }
                let llen = fill_group(&lstore, &lpairs[li..lend], &mut lgroup);
                let rlen = fill_group(&rstore, &rpairs[ri..rend], &mut rgroup);
                for l in &lgroup[..llen] {
                    for r in &rgroup[..rlen] {
                        udf.join(l, r, out);
                    }
                }
                li = lend;
                ri = rend;
            }
        }
    }
    Ok(true)
}

/// Grouping for the Reduce contract (hash- or sort-based).
fn run_reduce(
    key: &[usize],
    local: LocalStrategy,
    input: LocalInput,
    udf: &dyn crate::contracts::ReduceFunction,
    out: &mut Collector,
    page_native: bool,
) -> Result<()> {
    let sort_based = matches!(local, LocalStrategy::SortGroup);
    if page_native && try_reduce_paged(key, &input, sort_based, udf, out)? {
        return Ok(());
    }
    match local {
        LocalStrategy::SortGroup => {
            // A range exchange already delivered this partition sorted on
            // the grouping key: the sort the plan no longer performs.
            let presorted = input.sorted_by() == Some(key);
            // Out-of-core path: whenever every spilled run is sorted on the
            // grouping key (range deliveries always; hash deliveries via
            // their sort-on-flush), only the in-memory residue is sorted and
            // the groups stream off the k-way merge — one key group in
            // memory at a time, the spilled part never rematerializes.
            let input = match input {
                LocalInput::Paged(part)
                    if part.spilled_run_count() > 0 && part.spilled_runs_sorted_by(key) =>
                {
                    let merger = if presorted {
                        part.into_merger()?
                    } else {
                        let (mut residue, runs) = part.into_mem_and_runs();
                        sort_by_key_normalized(&mut residue, key);
                        RunMerger::over_runs(&runs, residue, key.to_vec())?
                    };
                    merger.for_each_group(|k, group| udf.reduce(&k.values(), group, out))?;
                    return Ok(());
                }
                other => other,
            };
            let mut records = input.into_records()?;
            if !presorted {
                sort_by_key(&mut records, key);
            }
            for (start, end) in group_ranges(&records, key) {
                let group = &records[start..end];
                let k = Key::extract(&group[0], key);
                udf.reduce(&k.values(), group, out);
            }
        }
        // HashGroup and any other strategy: build the groups in an Fx hash
        // table, then emit them in key order so the output stays
        // deterministic across runs.
        _ => {
            let mut groups: FxHashMap<Key, Vec<Record>> = FxHashMap::default();
            input.for_each_owned(|record| {
                groups
                    .entry(Key::extract(&record, key))
                    .or_default()
                    .push(record);
            })?;
            emit_grouped(groups, udf, out);
        }
    }
    Ok(())
}

/// Emits hash-built groups in key order (records within a group stay in
/// delivery order) so the output is deterministic across runs — shared by the
/// materializing and the chained Reduce paths.
fn emit_grouped(
    groups: FxHashMap<Key, Vec<Record>>,
    udf: &dyn crate::contracts::ReduceFunction,
    out: &mut Collector,
) {
    let mut sorted: Vec<(Key, Vec<Record>)> = groups.into_iter().collect();
    sorted.sort_unstable_by(|a, b| a.0.cmp(&b.0));
    for (k, group) in &sorted {
        udf.reduce(&k.values(), group, out);
    }
}

/// Equi-join for the Match contract (hash or sort-merge).  The build side is
/// materialized; the probe side is streamed (page records through a scratch
/// record, never fully materialized).
#[allow(clippy::too_many_arguments)]
fn run_match(
    left_key: &[usize],
    right_key: &[usize],
    local: LocalStrategy,
    left: LocalInput,
    right: LocalInput,
    udf: &dyn crate::contracts::MatchFunction,
    out: &mut Collector,
    page_native: bool,
) -> Result<()> {
    match local {
        LocalStrategy::HashJoinBuildRight => {
            if page_native && try_match_paged(&right, &left, right_key, left_key, false, udf, out)?
            {
                return Ok(());
            }
            let right_records = right.into_records()?;
            let mut table: FxHashMap<Key, Vec<&Record>> = FxHashMap::default();
            for record in &right_records {
                table
                    .entry(Key::extract(record, right_key))
                    .or_default()
                    .push(record);
            }
            left.for_each_ref(|l| {
                if let Some(matches) = table.get(&Key::extract(l, left_key)) {
                    for r in matches {
                        udf.join(l, r, out);
                    }
                }
            })?;
        }
        LocalStrategy::SortMergeJoin => {
            if page_native && try_sort_merge_paged(left_key, right_key, &left, &right, udf, out)? {
                return Ok(());
            }
            // Range-exchanged sides arrive sorted on their join key; only
            // sides without the delivered order pay a sort, and sides whose
            // spilled runs carry the key order materialize by linear merge.
            let l_sorted = into_sorted_records(left, left_key)?;
            let r_sorted = into_sorted_records(right, right_key)?;
            let l_ranges = group_ranges(&l_sorted, left_key);
            let r_ranges = group_ranges(&r_sorted, right_key);
            let (mut li, mut ri) = (0usize, 0usize);
            while li < l_ranges.len() && ri < r_ranges.len() {
                let lrec = &l_sorted[l_ranges[li].0];
                let rrec = &r_sorted[r_ranges[ri].0];
                match crate::key::compare_keys(lrec, left_key, rrec, right_key) {
                    std::cmp::Ordering::Less => li += 1,
                    std::cmp::Ordering::Greater => ri += 1,
                    std::cmp::Ordering::Equal => {
                        for l in &l_sorted[l_ranges[li].0..l_ranges[li].1] {
                            for r in &r_sorted[r_ranges[ri].0..r_ranges[ri].1] {
                                udf.join(l, r, out);
                            }
                        }
                        li += 1;
                        ri += 1;
                    }
                }
            }
        }
        // Default: build on the left, probe with the right.
        _ => {
            if page_native && try_match_paged(&left, &right, left_key, right_key, true, udf, out)? {
                return Ok(());
            }
            let left_records = left.into_records()?;
            let mut table: FxHashMap<Key, Vec<&Record>> = FxHashMap::default();
            for record in &left_records {
                table
                    .entry(Key::extract(record, left_key))
                    .or_default()
                    .push(record);
            }
            right.for_each_ref(|r| {
                if let Some(matches) = table.get(&Key::extract(r, right_key)) {
                    for l in matches {
                        udf.join(l, r, out);
                    }
                }
            })?;
        }
    }
    Ok(())
}

/// Grouped join for the CoGroup / InnerCoGroup contracts.
fn run_cogroup(
    left_key: &[usize],
    right_key: &[usize],
    inner: bool,
    left: LocalInput,
    right: LocalInput,
    udf: &dyn crate::contracts::CoGroupFunction,
    out: &mut Collector,
) -> Result<()> {
    let mut left_groups: FxHashMap<Key, Vec<Record>> = FxHashMap::default();
    left.for_each_owned(|record| {
        left_groups
            .entry(Key::extract(&record, left_key))
            .or_default()
            .push(record);
    })?;
    let mut right_groups: FxHashMap<Key, Vec<Record>> = FxHashMap::default();
    right.for_each_owned(|record| {
        right_groups
            .entry(Key::extract(&record, right_key))
            .or_default()
            .push(record);
    })?;
    // Emit groups in key order so the output stays deterministic across runs.
    let empty: Vec<Record> = Vec::new();
    if inner {
        let mut sorted: Vec<(&Key, &Vec<Record>)> = left_groups.iter().collect();
        sorted.sort_unstable_by(|a, b| a.0.cmp(b.0));
        for (k, lgroup) in sorted {
            if let Some(rgroup) = right_groups.get(k) {
                udf.cogroup(&k.values(), lgroup, rgroup, out);
            }
        }
    } else {
        let mut keys: Vec<&Key> = left_groups.keys().chain(right_groups.keys()).collect();
        keys.sort_unstable();
        keys.dedup();
        for k in keys {
            let lgroup = left_groups.get(k).unwrap_or(&empty);
            let rgroup = right_groups.get(k).unwrap_or(&empty);
            udf.cogroup(&k.values(), lgroup, rgroup, out);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::contracts::{CoGroupClosure, MapClosure, MatchClosure, ReduceClosure};
    use crate::physical::default_physical_plan;
    use crate::plan::Plan;
    use crate::value::Value;

    fn execute(plan: &Plan, parallelism: usize) -> ExecutionResult {
        let phys = default_physical_plan(plan, parallelism).unwrap();
        Executor::new().execute(&phys).unwrap()
    }

    #[test]
    fn map_doubles_values_across_partitions() {
        let mut plan = Plan::new();
        let data: Vec<Record> = (0..100).map(|i| Record::pair(i, i)).collect();
        let src = plan.source("src", data);
        let map = plan.map(
            "double",
            src,
            Arc::new(MapClosure(|r: &Record, out: &mut Collector| {
                out.collect(Record::pair(r.long(0), r.long(1) * 2));
            })),
        );
        plan.sink("out", map);
        for parallelism in [1, 3, 8] {
            let result = execute(&plan, parallelism);
            let mut records = result.sink("out").unwrap();
            records.sort();
            assert_eq!(records.len(), 100);
            for (i, r) in records.iter().enumerate() {
                assert_eq!(r.long(1), 2 * i as i64);
            }
        }
    }

    #[test]
    fn reduce_sums_groups_regardless_of_parallelism() {
        let mut plan = Plan::new();
        let data: Vec<Record> = (0..60).map(|i| Record::pair(i % 5, 1)).collect();
        let src = plan.source("src", data);
        let red = plan.reduce(
            "count",
            src,
            vec![0],
            Arc::new(ReduceClosure(
                |key: &[Value], group: &[Record], out: &mut Collector| {
                    out.collect(Record::pair(key[0].as_long(), group.len() as i64));
                },
            )),
        );
        plan.sink("out", red);
        for parallelism in [1, 4] {
            let result = execute(&plan, parallelism);
            let mut records = result.sink("out").unwrap();
            records.sort();
            assert_eq!(records.len(), 5);
            for r in &records {
                assert_eq!(r.long(1), 12);
            }
        }
    }

    #[test]
    fn match_join_produces_all_matching_pairs() {
        let mut plan = Plan::new();
        let left = plan.source(
            "left",
            vec![
                Record::pair(1, 10),
                Record::pair(2, 20),
                Record::pair(2, 21),
            ],
        );
        let right = plan.source("right", vec![Record::pair(2, 200), Record::pair(3, 300)]);
        let join = plan.match_join(
            "join",
            left,
            right,
            vec![0],
            vec![0],
            Arc::new(MatchClosure(
                |l: &Record, r: &Record, out: &mut Collector| {
                    out.collect(Record::pair(l.long(1), r.long(1)));
                },
            )),
        );
        plan.sink("out", join);
        let result = execute(&plan, 4);
        let mut records = result.sink("out").unwrap();
        records.sort();
        assert_eq!(records, vec![Record::pair(20, 200), Record::pair(21, 200)]);
    }

    #[test]
    fn inner_cogroup_drops_unmatched_keys() {
        let mut plan = Plan::new();
        let left = plan.source("left", vec![Record::pair(1, 10), Record::pair(2, 20)]);
        let right = plan.source("right", vec![Record::pair(2, 200), Record::pair(2, 201)]);
        let cg = plan.inner_cogroup(
            "cg",
            left,
            right,
            vec![0],
            vec![0],
            Arc::new(CoGroupClosure(
                |key: &[Value], l: &[Record], r: &[Record], out: &mut Collector| {
                    out.collect(Record::pair(key[0].as_long(), (l.len() + r.len()) as i64));
                },
            )),
        );
        plan.sink("out", cg);
        let result = execute(&plan, 3);
        let records = result.sink("out").unwrap();
        assert_eq!(records, vec![Record::pair(2, 3)]);
    }

    #[test]
    fn outer_cogroup_keeps_all_keys() {
        let mut plan = Plan::new();
        let left = plan.source("left", vec![Record::pair(1, 10)]);
        let right = plan.source("right", vec![Record::pair(2, 200)]);
        let cg = plan.cogroup(
            "cg",
            left,
            right,
            vec![0],
            vec![0],
            Arc::new(CoGroupClosure(
                |key: &[Value], l: &[Record], r: &[Record], out: &mut Collector| {
                    out.collect(Record::triple(
                        key[0].as_long(),
                        l.len() as i64,
                        r.len() as f64,
                    ));
                },
            )),
        );
        plan.sink("out", cg);
        let result = execute(&plan, 2);
        let mut records = result.sink("out").unwrap();
        records.sort();
        assert_eq!(records.len(), 2);
    }

    #[test]
    fn cross_product_with_broadcast_right() {
        let mut plan = Plan::new();
        let left = plan.source("left", vec![Record::pair(1, 0), Record::pair(2, 0)]);
        let right = plan.source(
            "right",
            vec![
                Record::pair(10, 0),
                Record::pair(20, 0),
                Record::pair(30, 0),
            ],
        );
        let cross = plan.cross(
            "cross",
            left,
            right,
            Arc::new(crate::contracts::CrossClosure(
                |l: &Record, r: &Record, out: &mut Collector| {
                    out.collect(Record::pair(l.long(0), r.long(0)));
                },
            )),
        );
        plan.sink("out", cross);
        let result = execute(&plan, 2);
        let records = result.sink("out").unwrap();
        assert_eq!(records.len(), 6);
    }

    #[test]
    fn union_concatenates_inputs() {
        let mut plan = Plan::new();
        let a = plan.source("a", vec![Record::pair(1, 1)]);
        let b = plan.source("b", vec![Record::pair(2, 2), Record::pair(3, 3)]);
        let u = plan.union("u", vec![a, b]);
        plan.sink("out", u);
        let result = execute(&plan, 2);
        assert_eq!(result.sink("out").unwrap().len(), 3);
    }

    #[test]
    fn zero_parallelism_plans_are_rejected() {
        let mut plan = Plan::new();
        let src = plan.source("src", vec![Record::pair(1, 1)]);
        plan.sink("out", src);
        // Construction-time validation.
        assert!(default_physical_plan(&plan, 0).is_err());
        // A hand-built plan with parallelism 0 is rejected by the executor
        // instead of being clamped silently.
        let mut phys = default_physical_plan(&plan, 2).unwrap();
        phys.parallelism = 0;
        assert!(Executor::new().execute(&phys).is_err());
    }

    #[test]
    fn unknown_sink_is_an_error() {
        let mut plan = Plan::new();
        let a = plan.source("a", vec![]);
        plan.sink("out", a);
        let result = execute(&plan, 1);
        assert!(result.sink("nope").is_err());
        assert_eq!(result.sink_names(), vec!["out".to_owned()]);
    }

    #[test]
    fn stats_count_shipped_records_for_partitioning() {
        let mut plan = Plan::new();
        let data: Vec<Record> = (0..1000).map(|i| Record::pair(i, 1)).collect();
        let src = plan.source("src", data);
        let red = plan.reduce(
            "sum",
            src,
            vec![0],
            Arc::new(ReduceClosure(
                |key: &[Value], g: &[Record], out: &mut Collector| {
                    out.collect(Record::pair(key[0].as_long(), g.len() as i64));
                },
            )),
        );
        plan.sink("out", red);
        let result = execute(&plan, 4);
        // With 4 partitions roughly 3/4 of the records move; certainly > 0.
        assert!(result.stats.shipped_records > 0);
        assert!(result.stats.shipped_bytes >= result.stats.shipped_records * 8);
        assert_eq!(result.stats.records_out_of("sum"), 1000);
    }

    #[test]
    fn broadcast_counts_replicated_records() {
        let mut plan = Plan::new();
        let left = plan.source("left", (0..10).map(|i| Record::pair(i, 0)).collect());
        let right = plan.source("right", (0..5).map(|i| Record::pair(i, 0)).collect());
        let cross = plan.cross(
            "cross",
            left,
            right,
            Arc::new(crate::contracts::CrossClosure(
                |l: &Record, _r: &Record, out: &mut Collector| {
                    out.collect(l.clone());
                },
            )),
        );
        plan.sink("out", cross);
        let phys = default_physical_plan(&plan, 4).unwrap();
        let result = Executor::new().execute(&phys).unwrap();
        // 5 broadcast records each replicated to 3 other partitions.
        assert_eq!(result.stats.shipped_records, 15);
        assert_eq!(result.sink("out").unwrap().len(), 50);
    }

    #[test]
    fn cached_edges_skip_reshipping() {
        let mut plan = Plan::new();
        let left = plan.source("left", (0..50).map(|i| Record::pair(i, i)).collect());
        let right = plan.source("right", (0..50).map(|i| Record::pair(i, -i)).collect());
        let join = plan.match_join(
            "join",
            left,
            right,
            vec![0],
            vec![0],
            Arc::new(MatchClosure(
                |l: &Record, r: &Record, out: &mut Collector| {
                    out.collect(Record::pair(l.long(1), r.long(1)));
                },
            )),
        );
        plan.sink("out", join);
        let mut phys = default_physical_plan(&plan, 4).unwrap();
        phys.cache_input(join, 1);
        let mut cache = IntermediateCache::new();
        let exec = Executor::new();
        let first = exec.execute_with_cache(&phys, &mut cache).unwrap();
        assert_eq!(first.stats.cache_hits, 0);
        assert_eq!(cache.len(), 1);
        let second = exec.execute_with_cache(&phys, &mut cache).unwrap();
        assert_eq!(second.stats.cache_hits, 1);
        // Fewer records shipped in the second run because the right input is
        // served from the cache.
        assert!(second.stats.shipped_records < first.stats.shipped_records);
        assert_eq!(
            first.sink("out").unwrap().len(),
            second.sink("out").unwrap().len()
        );
    }

    #[test]
    fn producers_served_from_the_cache_do_not_run() {
        let mut plan = Plan::new();
        let left = plan.source("left", (0..50).map(|i| Record::pair(i, i)).collect());
        let right = plan.source("right", (0..50).map(|i| Record::pair(i, -i)).collect());
        let negate = plan.map(
            "negate",
            right,
            Arc::new(MapClosure(|r: &Record, out: &mut Collector| {
                out.collect(Record::pair(r.long(0), -r.long(1)));
            })),
        );
        let join = plan.match_join(
            "join",
            left,
            negate,
            vec![0],
            vec![0],
            Arc::new(MatchClosure(
                |l: &Record, r: &Record, out: &mut Collector| {
                    out.collect(Record::pair(l.long(1), r.long(1)));
                },
            )),
        );
        plan.sink("out", join);
        let mut phys = default_physical_plan(&plan, 2).unwrap();
        phys.cache_input(join, 1);
        let mut cache = IntermediateCache::new();
        let exec = Executor::new();
        let first = exec.execute_with_cache(&phys, &mut cache).unwrap();
        let second = exec.execute_with_cache(&phys, &mut cache).unwrap();

        // The cached edge's producer and, transitively, its source are
        // skipped: they keep their rows, with nothing consumed or produced.
        let rows = |r: &ExecutionResult| -> Vec<(String, usize)> {
            r.stats
                .operators
                .iter()
                .map(|o| (o.name.clone(), o.records_out))
                .collect()
        };
        let (first_rows, second_rows) = (rows(&first), rows(&second));
        assert_eq!(
            first_rows.iter().map(|(n, _)| n).collect::<Vec<_>>(),
            second_rows.iter().map(|(n, _)| n).collect::<Vec<_>>()
        );
        for name in ["right", "negate"] {
            assert_eq!(first.stats.records_out_of(name), 50);
            assert_eq!(second.stats.records_out_of(name), 0);
        }
        assert_eq!(second.stats.records_out_of("left"), 50);
        let sorted = |r: &ExecutionResult| {
            let mut out = r.sink("out").unwrap().to_vec();
            out.sort();
            out
        };
        assert_eq!(sorted(&first), sorted(&second));
        assert_eq!(sorted(&second).len(), 50);
    }

    #[test]
    fn sort_merge_join_matches_hash_join() {
        let mut plan = Plan::new();
        let left_data: Vec<Record> = (0..40).map(|i| Record::pair(i % 7, i)).collect();
        let right_data: Vec<Record> = (0..30).map(|i| Record::pair(i % 7, 100 + i)).collect();
        let left = plan.source("left", left_data);
        let right = plan.source("right", right_data);
        let join = plan.match_join(
            "join",
            left,
            right,
            vec![0],
            vec![0],
            Arc::new(MatchClosure(
                |l: &Record, r: &Record, out: &mut Collector| {
                    out.collect(Record::pair(l.long(1), r.long(1)));
                },
            )),
        );
        plan.sink("out", join);

        let mut hash_phys = default_physical_plan(&plan, 3).unwrap();
        hash_phys.choices.get_mut(&join).unwrap().local = LocalStrategy::HashJoinBuildRight;
        let mut smj_phys = default_physical_plan(&plan, 3).unwrap();
        smj_phys.choices.get_mut(&join).unwrap().local = LocalStrategy::SortMergeJoin;

        let exec = Executor::new();
        let mut a = exec.execute(&hash_phys).unwrap().sink("out").unwrap();
        let mut b = exec.execute(&smj_phys).unwrap().sink("out").unwrap();
        a.sort();
        b.sort();
        assert_eq!(a, b);
        assert!(!a.is_empty());
    }

    #[test]
    fn sort_group_matches_hash_group() {
        let mut plan = Plan::new();
        let data: Vec<Record> = (0..200).map(|i| Record::pair(i % 13, i)).collect();
        let src = plan.source("src", data);
        let red = plan.reduce(
            "min",
            src,
            vec![0],
            Arc::new(ReduceClosure(
                |key: &[Value], g: &[Record], out: &mut Collector| {
                    let min = g.iter().map(|r| r.long(1)).min().unwrap();
                    out.collect(Record::pair(key[0].as_long(), min));
                },
            )),
        );
        plan.sink("out", red);
        let mut hash_phys = default_physical_plan(&plan, 2).unwrap();
        hash_phys.choices.get_mut(&red).unwrap().local = LocalStrategy::HashGroup;
        let mut sort_phys = default_physical_plan(&plan, 2).unwrap();
        sort_phys.choices.get_mut(&red).unwrap().local = LocalStrategy::SortGroup;
        let exec = Executor::new();
        let mut a = exec.execute(&hash_phys).unwrap().sink("out").unwrap();
        let mut b = exec.execute(&sort_phys).unwrap().sink("out").unwrap();
        a.sort();
        b.sort();
        assert_eq!(a, b);
        assert_eq!(a.len(), 13);
    }

    #[test]
    fn paged_exchange_routes_like_per_record_exchange() {
        // The sealed-page exchange must deliver exactly the records a naive
        // per-record clone-based exchange would, to exactly the same targets.
        let parallelism = 4;
        let mut producer: Partitions = vec![Vec::new(); parallelism];
        for i in 0..1000i64 {
            producer[(i % parallelism as i64) as usize].push(Record::triple(
                i.wrapping_mul(0x9E37),
                i,
                0.5,
            ));
        }
        let mut expected: Vec<Vec<Record>> = vec![Vec::new(); parallelism];
        for partition in &producer {
            for r in partition {
                expected[partition_for(r, &[0], parallelism)].push(r.clone());
            }
        }
        for owned in [true, false] {
            let mut stats = ExecutionStats::new();
            let input = if owned {
                ProducerInput::Owned(producer.clone())
            } else {
                ProducerInput::Shared(Arc::new(producer.clone()))
            };
            let spill = SpillManager::new(MemoryBudget::unlimited(), Some(vec![0]));
            let exchanged = paged_exchange(
                input,
                &[0],
                parallelism,
                &spill,
                &TransportHandle::default(),
                &mut stats,
            )
            .unwrap();
            assert!(
                stats.shipped_pages > 0,
                "cross-partition data moves as pages"
            );
            assert_eq!(stats.spilled_runs, 0, "unbudgeted exchanges never spill");
            assert!(stats.shipped_records > 0);
            assert_eq!(stats.shipped_records + stats.local_records, 1000);
            for (target, part) in exchanged.into_iter().enumerate() {
                let mut received = part.into_records().unwrap();
                received.sort();
                let mut want = expected[target].clone();
                want.sort();
                assert_eq!(
                    received, want,
                    "partition {target} diverged (owned={owned})"
                );
            }
        }
    }

    #[test]
    fn broadcast_shares_sealed_pages() {
        let producer: Partitions = vec![
            (0..10).map(|i| Record::pair(i, i)).collect(),
            (10..25).map(|i| Record::pair(i, i)).collect(),
        ];
        let mut stats = ExecutionStats::new();
        let exchanged = broadcast_paged(ProducerInput::Owned(producer), 3, &mut stats);
        assert_eq!(stats.shipped_records, 25 * 2);
        assert_eq!(stats.local_records, 25);
        assert!(stats.shipped_pages > 0);
        for part in exchanged {
            let mut records = part.into_records().unwrap();
            records.sort();
            assert_eq!(
                records,
                (0..25).map(|i| Record::pair(i, i)).collect::<Vec<_>>()
            );
        }
    }

    /// Builds a keyed-sum plan and returns `(plan, reduce id)`.
    fn keyed_sum_plan(records: Vec<Record>) -> (Plan, OperatorId) {
        let mut plan = Plan::new();
        let src = plan.source("src", records);
        let red = plan.reduce(
            "sum",
            src,
            vec![0],
            Arc::new(ReduceClosure(
                |key: &[Value], g: &[Record], out: &mut Collector| {
                    let total: i64 = g.iter().map(|r| r.long(1)).sum();
                    out.collect(Record::pair(key[0].as_long(), total));
                },
            )),
        );
        plan.sink("out", red);
        (plan, red)
    }

    #[test]
    fn range_exchange_delivers_globally_sorted_partitions() {
        // Route a skewed keyed dataset with the range exchange and check the
        // concatenation of the consumer partitions in partition order is
        // globally sorted — the property hash partitioning cannot deliver.
        let parallelism = 4;
        let mut producer: Partitions = vec![Vec::new(); parallelism];
        for i in 0..2000i64 {
            let key = (i * i) % 997 - 400; // skewed, with duplicates
            producer[(i % parallelism as i64) as usize].push(Record::pair(key, i));
        }
        let mut sample = Vec::new();
        for part in &producer {
            sample_keys_into(&mut sample, part, &[0]);
        }
        let bounds = RangeBounds::from_sample(sample, parallelism);
        let mut stats = ExecutionStats::new();
        let spill = SpillManager::new(MemoryBudget::unlimited(), Some(vec![0]));
        let exchanged = range_exchange(
            ProducerInput::Owned(producer.clone()),
            &[0],
            &bounds,
            parallelism,
            &spill,
            &TransportHandle::default(),
            &mut stats,
        )
        .unwrap();
        assert_eq!(stats.shipped_records + stats.local_records, 2000);
        let mut concatenated: Vec<Record> = Vec::new();
        for part in exchanged {
            assert_eq!(part.sorted_by(), Some(&[0usize][..]));
            concatenated.extend(part.into_records().unwrap());
        }
        let mut expected: Vec<Record> = producer.into_iter().flatten().collect();
        sort_by_key(&mut expected, &[0]);
        assert_eq!(concatenated.len(), expected.len());
        for window in concatenated.windows(2) {
            assert!(
                window[0].long(0) <= window[1].long(0),
                "not globally sorted"
            );
        }
        concatenated.sort();
        expected.sort();
        assert_eq!(
            concatenated, expected,
            "range exchange changed the multiset"
        );
    }

    #[test]
    fn range_partitioned_reduce_matches_hash_partitioned_reduce() {
        let records: Vec<Record> = (0..500).map(|i| Record::pair(i % 37 - 18, 1)).collect();
        let (plan, red) = keyed_sum_plan(records);
        let hash_phys = default_physical_plan(&plan, 4).unwrap();
        let mut range_phys = default_physical_plan(&plan, 4).unwrap();
        {
            let choice = range_phys.choices.get_mut(&red).unwrap();
            choice.input_ships[0] = ShipStrategy::PartitionRange(vec![0]);
            choice.local = LocalStrategy::SortGroup;
        }
        let exec = Executor::new();
        let mut a = exec.execute(&hash_phys).unwrap().into_sink("out").unwrap();
        let range_result = exec.execute(&range_phys).unwrap();
        assert!(range_result.stats.shipped_records > 0);
        let mut b = range_result.into_sink("out").unwrap();
        a.sort();
        b.sort();
        assert_eq!(a, b);
        assert_eq!(a.len(), 37);
    }

    #[test]
    fn mixed_hash_and_range_join_inputs_are_rejected() {
        let mut plan = Plan::new();
        let left = plan.source("left", vec![Record::pair(1, 1)]);
        let right = plan.source("right", vec![Record::pair(1, 2)]);
        let join = plan.match_join(
            "join",
            left,
            right,
            vec![0],
            vec![0],
            Arc::new(MatchClosure(
                |l: &Record, _r: &Record, out: &mut Collector| out.collect(l.clone()),
            )),
        );
        plan.sink("out", join);
        let mut phys = default_physical_plan(&plan, 2).unwrap();
        phys.choices.get_mut(&join).unwrap().input_ships[1] = ShipStrategy::PartitionRange(vec![0]);
        let err = Executor::new().execute(&phys).unwrap_err();
        assert!(
            err.to_string().contains("range histogram"),
            "unexpected error: {err}"
        );
        // A forwarded sibling is equally rejected: whatever layout the
        // upstream operator delivered, it cannot share this operator's
        // freshly sampled histogram.
        let mut phys = default_physical_plan(&plan, 2).unwrap();
        let choice = phys.choices.get_mut(&join).unwrap();
        choice.input_ships[0] = ShipStrategy::Forward;
        choice.input_ships[1] = ShipStrategy::PartitionRange(vec![0]);
        let err = Executor::new().execute(&phys).unwrap_err();
        assert!(
            err.to_string().contains("forwarded"),
            "unexpected error: {err}"
        );
        // Range on both sides shares one histogram and executes fine.
        let mut phys = default_physical_plan(&plan, 2).unwrap();
        let choice = phys.choices.get_mut(&join).unwrap();
        choice.input_ships[0] = ShipStrategy::PartitionRange(vec![0]);
        choice.input_ships[1] = ShipStrategy::PartitionRange(vec![0]);
        let result = Executor::new().execute(&phys).unwrap();
        assert_eq!(result.sink("out").unwrap(), vec![Record::pair(1, 1)]);
    }

    #[test]
    fn cached_range_edges_stay_sorted_and_freeze_their_histogram() {
        let records: Vec<Record> = (0..300).map(|i| Record::pair((i * 7) % 50, i)).collect();
        let (plan, red) = keyed_sum_plan(records);
        let mut phys = default_physical_plan(&plan, 3).unwrap();
        {
            let choice = phys.choices.get_mut(&red).unwrap();
            choice.input_ships[0] = ShipStrategy::PartitionRange(vec![0]);
            choice.local = LocalStrategy::SortGroup;
        }
        phys.cache_input(red, 0);
        let mut cache = IntermediateCache::new();
        let exec = Executor::new();
        let first = exec.execute_with_cache(&phys, &mut cache).unwrap();
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.range_bounds.len(), 1, "histogram frozen in the cache");
        let cached = cache.entries.values().next().unwrap();
        assert_eq!(cached.sorted_by.as_deref(), Some(&[0usize][..]));
        for part in cached.parts.iter() {
            for window in part.windows(2) {
                assert!(window[0].long(0) <= window[1].long(0));
            }
        }
        let second = exec.execute_with_cache(&phys, &mut cache).unwrap();
        assert_eq!(second.stats.cache_hits, 1);
        let mut a = first.into_sink("out").unwrap();
        let mut b = second.into_sink("out").unwrap();
        a.sort();
        b.sort();
        assert_eq!(a, b);
        cache.clear();
        assert!(cache.range_bounds.is_empty());
    }

    #[test]
    fn budgeted_range_exchange_delivers_merged_global_order() {
        // Budget 0: every routed record spills; the delivered partitions are
        // merges of sorted runs plus the sorted local residue and must still
        // concatenate into the same global key order as the in-memory path.
        let parallelism = 4;
        let mut producer: Partitions = vec![Vec::new(); parallelism];
        for i in 0..1500i64 {
            producer[(i % parallelism as i64) as usize].push(Record::pair((i * i) % 311 - 100, i));
        }
        let mut sample = Vec::new();
        for part in &producer {
            sample_keys_into(&mut sample, part, &[0]);
        }
        let bounds = RangeBounds::from_sample(sample, parallelism);
        let mut stats = ExecutionStats::new();
        let spill = SpillManager::new(MemoryBudget::bytes(0), Some(vec![0]));
        let exchanged = range_exchange(
            ProducerInput::Owned(producer.clone()),
            &[0],
            &bounds,
            parallelism,
            &spill,
            &TransportHandle::default(),
            &mut stats,
        )
        .unwrap();
        assert!(stats.spilled_runs > 0, "budget 0 must spill");
        assert!(stats.spilled_bytes > 0);
        let mut concatenated: Vec<Record> = Vec::new();
        for part in exchanged {
            assert_eq!(part.sorted_by(), Some(&[0usize][..]));
            concatenated.extend(part.into_records().unwrap());
        }
        for window in concatenated.windows(2) {
            assert!(
                window[0].long(0) <= window[1].long(0),
                "not globally sorted"
            );
        }
        let mut expected: Vec<Record> = producer.into_iter().flatten().collect();
        concatenated.sort();
        expected.sort();
        assert_eq!(concatenated, expected, "spilling changed the multiset");
    }

    #[test]
    fn budgeted_execution_matches_unbudgeted_execution() {
        // The whole plan under a zero budget: hash-shipped HashGroup, hash-
        // shipped SortGroup (merging sorted spilled runs) and range-shipped
        // SortGroup (streaming group over the merge) must all equal the
        // in-memory run.
        let records: Vec<Record> = (0..3000).map(|i| Record::pair(i % 97 - 40, 1)).collect();
        let (plan, red) = keyed_sum_plan(records);
        let unbudgeted = Executor::new()
            .execute(&default_physical_plan(&plan, 4).unwrap())
            .unwrap();
        assert_eq!(unbudgeted.stats.spilled_bytes, 0);
        let mut expected = unbudgeted.into_sink("out").unwrap();
        expected.sort();
        for (ship_range, local) in [
            (false, LocalStrategy::HashGroup),
            (false, LocalStrategy::SortGroup),
            (true, LocalStrategy::SortGroup),
        ] {
            let mut phys = default_physical_plan(&plan, 4).unwrap();
            {
                let choice = phys.choices.get_mut(&red).unwrap();
                if ship_range {
                    choice.input_ships[0] = ShipStrategy::PartitionRange(vec![0]);
                }
                choice.local = local;
            }
            let executor =
                Executor::with_config(ExecConfig::new().with_memory_budget(MemoryBudget::bytes(0)));
            let result = executor.execute(&phys).unwrap();
            assert!(
                result.stats.spilled_bytes > 0,
                "zero budget must spill (range={ship_range}, {local:?})"
            );
            assert!(result.stats.spilled_runs > 0);
            let mut got = result.into_sink("out").unwrap();
            got.sort();
            assert_eq!(
                got, expected,
                "budgeted run diverged (range={ship_range}, {local:?})"
            );
        }
    }

    #[test]
    fn budgeted_cached_edges_spill_and_serve_from_disk() {
        let records: Vec<Record> = (0..400).map(|i| Record::pair((i * 7) % 50, i)).collect();
        let (plan, red) = keyed_sum_plan(records);
        let mut phys = default_physical_plan(&plan, 3).unwrap();
        {
            let choice = phys.choices.get_mut(&red).unwrap();
            choice.input_ships[0] = ShipStrategy::PartitionRange(vec![0]);
            choice.local = LocalStrategy::SortGroup;
        }
        phys.cache_input(red, 0);
        let mut cache = IntermediateCache::new().with_memory_budget(MemoryBudget::bytes(64));
        let exec = Executor::new();
        let first = exec.execute_with_cache(&phys, &mut cache).unwrap();
        assert!(
            first.stats.spilled_bytes > 0,
            "the cached edge exceeds 64 bytes and must spill"
        );
        let cached = cache.entries.values().next().unwrap();
        assert!(cached.runs.is_some(), "edge lives on disk");
        assert!(cached.parts.iter().all(Vec::is_empty));
        assert_eq!(cached.sorted_by.as_deref(), Some(&[0usize][..]));
        // Every re-execution streams the spilled runs back and agrees with
        // an uncached, unbudgeted run.
        let second = exec.execute_with_cache(&phys, &mut cache).unwrap();
        assert_eq!(second.stats.cache_hits, 1);
        let mut a = first.into_sink("out").unwrap();
        let mut b = second.into_sink("out").unwrap();
        let mut c = Executor::new()
            .execute(&default_physical_plan(&plan, 3).unwrap())
            .unwrap()
            .into_sink("out")
            .unwrap();
        a.sort();
        b.sort();
        c.sort();
        assert_eq!(a, b);
        assert_eq!(a, c);
    }

    #[test]
    fn empty_source_flows_through() {
        let mut plan = Plan::new();
        let src = plan.source("src", vec![]);
        let map = plan.map(
            "id",
            src,
            Arc::new(MapClosure(|r: &Record, out: &mut Collector| {
                out.collect(r.clone())
            })),
        );
        plan.sink("out", map);
        let result = execute(&plan, 4);
        assert!(result.sink("out").unwrap().is_empty());
    }
}
