//! Streaming-execution equivalence: the chained executor must be
//! byte-identical to the materializing oracle on every algorithm, execution
//! mode, routing scheme and memory budget, every fused consumer kind included
//! — and a fused edge must hold no pages while doing so.  This is the
//! repository-level statement that chain fusion is a pure cost optimization:
//! it changes *where* records wait, never *which* records arrive or in what
//! order.  A failure anywhere inside a fused segment surfaces as a typed
//! error, never an abort or a hang.

use algorithms::{
    cc_async, cc_bulk, cc_incremental, cc_microstep, oracles, pagerank, sssp_with_config,
    ComponentsConfig, PageRankConfig, PageRankPlan,
};
use dataflow::prelude::*;
use graphdata::{chain, rmat, DatasetProfile, Graph, RmatParams};
use spinning_core::prelude::*;
use std::sync::Arc;

fn test_graphs() -> Vec<(&'static str, Graph)> {
    vec![
        ("chain", chain(150)),
        (
            "power-law",
            rmat(500, 3000, RmatParams::default(), 42).symmetrize(),
        ),
        ("foaf-profile", DatasetProfile::foaf().generate(8_192)),
    ]
}

/// The budgets every combination runs under: unbounded, and a finite budget
/// that forces exchanges to spill.  The CI `stream-smoke` job overrides the
/// finite one through `SPINNING_MEMORY_BUDGET` (like the spill smoke does).
fn budgets() -> Vec<(&'static str, MemoryBudget)> {
    let tight = MemoryBudget::from_env().unwrap_or(MemoryBudget::bytes(1024));
    vec![("unlimited", MemoryBudget::unlimited()), ("tight", tight)]
}

/// The chained bulk executor must reproduce the materializing oracle
/// byte-for-byte: identical components, identical iteration count, and an
/// identical per-superstep trace (the streaming path may not change how many
/// records exist or move, only how long they are buffered).
#[test]
fn bulk_cc_chained_matches_the_materializing_oracle() {
    for (graph_name, graph) in test_graphs() {
        for (budget_name, budget) in budgets() {
            let base = ComponentsConfig::new(4).with_memory_budget(budget);
            let chained = cc_bulk(&graph, &base).unwrap();
            let oracle = cc_bulk(&graph, &base.clone().with_force_materialized(true)).unwrap();

            let label = format!("{graph_name}/{budget_name}");
            assert_eq!(chained.components, oracle.components, "components {label}");
            assert_eq!(chained.iterations, oracle.iterations, "iterations {label}");
            assert_eq!(
                trace(&chained.stats),
                trace(&oracle.stats),
                "superstep trace {label}"
            );

            // The comparison only means something if the streaming path ran.
            let execution = chained.stats.per_iteration[0]
                .execution
                .as_ref()
                .expect("bulk iterations record execution stats");
            assert!(
                execution.chained_operators >= 2,
                "no chain fused on {label}: {execution:?}"
            );
            let oracle_execution = oracle.stats.per_iteration[0].execution.as_ref().unwrap();
            assert_eq!(
                oracle_execution.chained_operators, 0,
                "the oracle must not chain"
            );
        }
    }
}

/// The per-superstep fields the chained executor must reproduce exactly.
fn trace(stats: &IterationRunStats) -> Vec<(usize, usize, usize, usize, usize)> {
    stats
        .per_iteration
        .iter()
        .map(|s| {
            (
                s.workset_size,
                s.elements_inspected,
                s.elements_changed,
                s.messages_sent,
                s.messages_shipped,
            )
        })
        .collect()
}

/// PageRank across all three Figure 4 plans: the chained run's ranks must be
/// bit-identical to the materializing oracle's — floating-point summation
/// order is part of the byte-identity contract.
#[test]
fn pagerank_all_plans_chained_matches_materialized_bitwise() {
    let graph = rmat(250, 2000, RmatParams::default(), 17).symmetrize();
    for plan in [
        PageRankPlan::Optimized,
        PageRankPlan::ForceBroadcast,
        PageRankPlan::ForcePartition,
    ] {
        let base = PageRankConfig::new(4).with_iterations(8).with_plan(plan);
        let chained = pagerank(&graph, &base.clone()).unwrap();
        let oracle = pagerank(&graph, &base.with_force_materialized(true)).unwrap();
        assert_eq!(chained.ranks, oracle.ranks, "ranks differ under {plan:?}");
    }
}

/// The workset modes do not run the chained executor, but they share sinks
/// and fixpoints with the bulk variant that does: every mode × routing ×
/// budget combination must still agree with the (now chained) bulk oracle.
#[test]
fn workset_modes_and_routings_agree_with_the_chained_bulk_oracle() {
    let graph = rmat(400, 2400, RmatParams::default(), 23).symmetrize();
    let bulk_oracle = cc_bulk(&graph, &ComponentsConfig::new(4))
        .unwrap()
        .components;
    for routing in [WorksetRouting::Hash, WorksetRouting::Range] {
        for (budget_name, budget) in budgets() {
            let config = ComponentsConfig::new(4)
                .with_routing(routing)
                .with_memory_budget(budget);
            type CcRun = fn(&Graph, &ComponentsConfig) -> Result<algorithms::ComponentsResult>;
            for (mode_name, run) in [
                ("incremental", cc_incremental as CcRun),
                ("microstep", cc_microstep as CcRun),
                ("async", cc_async as CcRun),
            ] {
                let result = run(&graph, &config).unwrap();
                assert_eq!(
                    result.components, bulk_oracle,
                    "{mode_name} with {routing:?} routing under the {budget_name} budget"
                );
            }
        }
    }
}

/// SSSP across modes × routings × budgets against the BFS oracle — the guard
/// that the streaming work left the workset runtimes untouched.
#[test]
fn sssp_modes_and_routings_match_the_bfs_oracle_under_budgets() {
    let graph = DatasetProfile::foaf().generate(8_192);
    let oracle = oracles::sssp(&graph, 1);
    for mode in [
        ExecutionMode::BatchIncremental,
        ExecutionMode::Microstep,
        ExecutionMode::AsynchronousMicrostep,
    ] {
        for routing in [WorksetRouting::Hash, WorksetRouting::Range] {
            for (budget_name, budget) in budgets() {
                let config = WorksetConfig::new(4)
                    .with_mode(mode)
                    .with_routing(routing)
                    .with_memory_budget(budget);
                let result = sssp_with_config(&graph, 1, &config).unwrap();
                assert_eq!(
                    result.distances, oracle,
                    "{mode:?} with {routing:?} routing under the {budget_name} budget"
                );
            }
        }
    }
}

/// An expansion-heavy map→map→sink pipeline: tens of pages' worth of records
/// cross each fused edge, yet no edge ever holds a page — fused members call
/// each other directly — and the sink still matches the materializing oracle
/// byte for byte.
#[test]
fn chained_pipeline_holds_no_pages_on_fused_edges() {
    let build_plan = || {
        let mut plan = Plan::new();
        let events: Vec<Record> = (0..6_000).map(|i| Record::pair(i, i % 97)).collect();
        let source = plan.source("events", events);
        let expand = plan.map(
            "expand",
            source,
            Arc::new(MapClosure(|r: &Record, out: &mut Collector| {
                for copy in 0..16 {
                    out.collect(Record::pair(r.long(0) * 16 + copy, r.long(1)));
                }
            })),
        );
        let shift = plan.map(
            "shift",
            expand,
            Arc::new(MapClosure(|r: &Record, out: &mut Collector| {
                if r.long(1) != 0 {
                    out.collect(Record::pair(r.long(0), r.long(1) + 1));
                }
            })),
        );
        plan.sink("out", shift);
        default_physical_plan(&plan, 4).unwrap()
    };

    let chained = Executor::new().execute(&build_plan()).unwrap();
    let materialized = Executor::with_config(ExecConfig::new().with_force_materialized(true))
        .execute(&build_plan())
        .unwrap();

    assert_eq!(
        chained.stats.chained_operators, 3,
        "expand→shift→sink must fuse into one chain: {:?}",
        chained.stats
    );
    assert_eq!(
        chained.stats.peak_chain_pages, 0,
        "a fused edge must hold no pages"
    );
    assert_eq!(materialized.stats.chained_operators, 0);

    let streamed = chained.into_sink("out").unwrap();
    let oracle = materialized.into_sink("out").unwrap();
    assert!(
        streamed.len() > 90_000,
        "the expansion must actually expand"
    );
    assert_eq!(streamed, oracle, "sink contents must be byte-identical");
}

/// The zero-page bound also holds end-to-end through the bulk iteration
/// driver, which is how user programs reach the chained executor.  The
/// workset variants' credit knob is set too: it must not reach the bulk
/// variant's fused chains, which have nothing to bound.
#[test]
fn bulk_cc_with_two_credits_bounds_every_chain_edge() {
    let graph = DatasetProfile::foaf().generate(8_192);
    let config = ComponentsConfig::new(4).with_channel_credits(2);
    let result = cc_bulk(&graph, &config).unwrap();
    let oracle = cc_bulk(
        &graph,
        &ComponentsConfig::new(4).with_force_materialized(true),
    )
    .unwrap();
    assert_eq!(result.components, oracle.components);
    assert_eq!(result.iterations, oracle.iterations);
    assert_eq!(trace(&result.stats), trace(&oracle.stats));
    for (i, step) in result.stats.per_iteration.iter().enumerate() {
        let execution = step.execution.as_ref().expect("bulk records execution");
        assert!(
            execution.chained_operators >= 2,
            "iteration {i} fused nothing"
        );
        assert_eq!(
            execution.peak_chain_pages, 0,
            "iteration {i} held pages on a chained edge"
        );
    }
}

/// `n` records `(key, value)` over 37 distinct keys, in an order no
/// exchange would deliver.
fn keyed_records(n: i64) -> Vec<Record> {
    (0..n).map(|i| Record::pair((i * 7919) % 37, i)).collect()
}

/// A map that keeps every record except multiples of 5, so the fused edge
/// out of the head carries a filtered stream.
fn head_map() -> Arc<dyn MapFunction> {
    Arc::new(MapClosure(|r: &Record, out: &mut Collector| {
        if r.long(1) % 5 != 0 {
            out.collect(r.clone());
        }
    }))
}

/// source → prep (head) → sort-group reduce → sink, the reduce forced to
/// `SortGroup` over a forward edge.
fn sort_group_plan() -> PhysicalPlan {
    let mut plan = Plan::new();
    let source = plan.source("events", keyed_records(5_000));
    let prep = plan.map("prep", source, head_map());
    let reduce = plan.reduce(
        "sum-per-key",
        prep,
        vec![0],
        Arc::new(ReduceClosure(
            |key: &[Value], group: &[Record], out: &mut Collector| {
                let first = group[0].long(1);
                let sum: i64 = group.iter().map(|r| r.long(1)).sum();
                out.collect(Record::new(vec![
                    key[0].clone(),
                    Value::Long(sum),
                    Value::Long(first),
                ]));
            },
        )),
    );
    plan.sink("out", reduce);
    let mut physical = default_physical_plan(&plan, 4).unwrap();
    physical.choices.insert(
        reduce,
        PhysicalChoice {
            input_ships: vec![ShipStrategy::Forward],
            local: LocalStrategy::SortGroup,
            cache_inputs: vec![false],
        },
    );
    physical
}

/// A broadcast dimension table on the left joined with a fused probe stream
/// on the right: `HashJoinBuildLeft` streams slot 1.
fn build_left_join_plan() -> PhysicalPlan {
    let mut plan = Plan::new();
    let dims: Vec<Record> = (0..40).map(|k| Record::pair(k % 30, k * 100)).collect();
    let dim = plan.source("dims", dims);
    let source = plan.source("facts", keyed_records(3_000));
    let probe = plan.map("prep", source, head_map());
    let join = plan.match_join(
        "enrich",
        dim,
        probe,
        vec![0],
        vec![0],
        Arc::new(MatchClosure(
            |dim: &Record, fact: &Record, out: &mut Collector| {
                out.collect(Record::new(vec![
                    Value::Long(fact.long(1)),
                    Value::Long(dim.long(1)),
                    Value::Long(dim.long(0)),
                ]));
            },
        )),
    );
    plan.sink("out", join);
    let mut physical = default_physical_plan(&plan, 4).unwrap();
    physical.choices.insert(
        join,
        PhysicalChoice {
            input_ships: vec![ShipStrategy::Broadcast, ShipStrategy::Forward],
            local: LocalStrategy::HashJoinBuildLeft,
            cache_inputs: vec![false, false],
        },
    );
    physical
}

/// A fused left stream crossed with a broadcast right side.
fn cross_plan() -> PhysicalPlan {
    let mut plan = Plan::new();
    let source = plan.source("points", keyed_records(600));
    let left = plan.map("prep", source, head_map());
    let right = plan.source(
        "offsets",
        (0..7).map(|i| Record::pair(i, i * i - 3)).collect(),
    );
    let cross = plan.cross(
        "shift",
        left,
        right,
        Arc::new(CrossClosure(
            |point: &Record, offset: &Record, out: &mut Collector| {
                out.collect(Record::pair(point.long(1) + offset.long(1), offset.long(0)));
            },
        )),
    );
    plan.sink("out", cross);
    let mut physical = default_physical_plan(&plan, 4).unwrap();
    physical.choices.insert(
        cross,
        PhysicalChoice {
            input_ships: vec![ShipStrategy::Forward, ShipStrategy::Broadcast],
            local: LocalStrategy::NestedLoop,
            cache_inputs: vec![false, false],
        },
    );
    physical
}

/// The fused consumers no algorithm plan reaches — a sort-based grouping,
/// a hash join probing with its right input, and a nested-loop cross — each
/// forced by a hand-made physical plan: the fused run must equal the
/// materializing oracle record for record, and must actually have fused.
#[test]
fn every_fused_consumer_kind_matches_the_materializing_oracle() {
    type BuildPlan = fn() -> PhysicalPlan;
    for (name, build) in [
        ("sort-group", sort_group_plan as BuildPlan),
        ("hash-join build=left", build_left_join_plan),
        ("nested-loop cross", cross_plan),
    ] {
        let fused = Executor::new().execute(&build()).unwrap();
        let materialized = Executor::with_config(ExecConfig::new().with_force_materialized(true))
            .execute(&build())
            .unwrap();
        assert!(
            fused.stats.chained_operators >= 2,
            "{name} did not fuse: {:?}",
            fused.stats
        );
        assert_eq!(fused.stats.peak_chain_pages, 0, "{name}");
        assert_eq!(materialized.stats.chained_operators, 0, "{name}");
        let streamed = fused.into_sink("out").unwrap();
        assert!(!streamed.is_empty(), "{name} produced nothing");
        assert_eq!(
            streamed,
            materialized.into_sink("out").unwrap(),
            "{name}: sink contents must be byte-identical"
        );
    }
}

/// source → expand (head) → boom → out, where `boom` panics on one record
/// when `panic_on` says so.
fn panicking_chain(panic_on: Option<i64>) -> PhysicalPlan {
    let mut plan = Plan::new();
    let source = plan.source("events", keyed_records(2_000));
    let expand = plan.map("expand", source, head_map());
    let boom = plan.map(
        "boom",
        expand,
        Arc::new(MapClosure(move |r: &Record, out: &mut Collector| {
            if Some(r.long(1)) == panic_on {
                panic!("boom on record {}", r.long(1));
            }
            out.collect(r.clone());
        })),
    );
    plan.sink("out", boom);
    default_physical_plan(&plan, 2).unwrap()
}

/// A user function panicking in a *downstream* fused member unwinds through
/// the head's local phase and surfaces as a typed worker panic.
#[test]
fn a_panicking_udf_inside_a_fused_segment_is_a_typed_worker_panic() {
    let err = Executor::new()
        .execute(&panicking_chain(Some(1_234)))
        .expect_err("the panicking member must fail the execution");
    match err {
        DataflowError::WorkerPanic {
            operator, message, ..
        } => {
            assert!(operator.contains("boom"), "operator: {operator}");
            assert!(
                message.contains("boom on record 1234"),
                "message: {message}"
            );
        }
        other => panic!("expected WorkerPanic, got {other:?}"),
    }
}

/// A seeded worker panic fires at the same dispatch events as before fusion
/// became direct calls — one per member × partition — and names the
/// segment's operators.
#[test]
fn a_seeded_worker_panic_in_a_fused_segment_is_typed_and_counted_per_member() {
    // 3 members (expand, boom, out) × 2 partitions = 6 dispatch events.
    let events = 6;
    for nth in [0, events - 1] {
        let fault = FaultInjector::failing_nth(FaultSite::WorkerPanic, nth);
        let err = Executor::with_config(ExecConfig::new().with_fault(fault.clone()))
            .execute(&panicking_chain(None))
            .expect_err("the seeded panic must fail the execution");
        match err {
            DataflowError::WorkerPanic {
                operator, message, ..
            } => {
                assert_eq!(operator, "expand → boom → out", "event {nth}");
                assert!(message.contains("injected"), "message: {message}");
            }
            other => panic!("expected WorkerPanic at event {nth}, got {other:?}"),
        }
        assert_eq!(fault.injected(FaultSite::WorkerPanic), 1);
    }
    let past_the_end = FaultInjector::failing_nth(FaultSite::WorkerPanic, events);
    let result = Executor::with_config(ExecConfig::new().with_fault(past_the_end.clone()))
        .execute(&panicking_chain(None))
        .unwrap();
    assert_eq!(result.stats.chained_operators, 3);
    assert_eq!(past_the_end.injected_total(), 0);
}
