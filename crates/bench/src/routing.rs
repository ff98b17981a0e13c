//! Micro-benchmarks of the record-routing hot path (key extraction, hash
//! partitioning, exchange, solution-set merge), shared by the
//! `routing_hot_path` bench and the JSON-emitting `routing_report` binary.
//!
//! Each comparison pits the current implementation against a **legacy**
//! emulation of the pre-refactor seed code: `Key` as an always-allocated
//! `Vec<Value>`, `std::collections::hash_map::DefaultHasher` (SipHash) for
//! every routing decision, `HashMap`s with the default random state, and
//! clone-based exchanges.  The legacy paths are re-implemented here (not
//! imported) so the comparison stays runnable at any commit.

use dataflow::key::{partition_for, sort_by_key, FxHashMap, Key};
use dataflow::page::{ExchangedPartition, PageWriter, PagedRecords, PrefixTable, RecordPage};
use dataflow::prelude::{
    default_physical_plan, ChannelId, ClusterSpec, Collector, ExecConfig, Executor, FaultInjector,
    MapClosure, Plan, Record, TransportHandle, Value,
};
use dataflow::range::{sample_keys_into, sort_by_key_normalized, RangeBounds};
use dataflow::spill::{write_sorted_records_in, MergeSource, RunMerger};
use spinning_core::prelude::SolutionSet;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering as AtomicOrdering};
use std::sync::Arc;

// --- Legacy emulation of the pre-refactor routing code ----------------------

/// The pre-refactor key: always a heap-allocated vector of values.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct LegacyKey(Vec<Value>);

impl LegacyKey {
    fn extract(record: &Record, fields: &[usize]) -> LegacyKey {
        LegacyKey(fields.iter().map(|&i| record.field(i).clone()).collect())
    }
}

/// The pre-refactor record hash: SipHash over the key fields.
fn legacy_hash_key(record: &Record, fields: &[usize]) -> u64 {
    let mut hasher = DefaultHasher::new();
    for &i in fields {
        record.field(i).hash(&mut hasher);
    }
    hasher.finish()
}

fn legacy_partition_for(record: &Record, fields: &[usize], parallelism: usize) -> usize {
    (legacy_hash_key(record, fields) % parallelism as u64) as usize
}

// --- Workloads ---------------------------------------------------------------

/// Number of records routed per sample in the partition/exchange workloads.
pub const ROUTED_RECORDS: usize = 400_000;
const PARALLELISM: usize = 8;

/// Supersteps dispatched per sample in the superstep-dispatch workload.
pub const DISPATCH_SUPERSTEPS: usize = 200;

/// Source records fed to the chained-pipeline workload (each expands 16x).
pub const PIPELINE_RECORDS: usize = 4_000;

fn routing_input() -> Vec<Record> {
    (0..ROUTED_RECORDS as i64)
        .map(|i| Record::pair(i.wrapping_mul(0x9E37), i % 64))
        .collect()
}

fn partitioned_input() -> Vec<Vec<Record>> {
    let mut parts: Vec<Vec<Record>> = vec![Vec::new(); PARALLELISM];
    for (i, r) in routing_input().into_iter().enumerate() {
        parts[i % PARALLELISM].push(r);
    }
    parts
}

/// A genuinely shuffled key sequence for the sort-centric workloads: the
/// full-width golden-ratio multiply wraps `i64` constantly, so keys arrive
/// in random order.  ([`routing_input`]'s `i * 0x9E37` never wraps and is
/// therefore already sorted — a best case that would let the legacy stable
/// sort finish in one linear merge pass.)
fn shuffled_input() -> Vec<Record> {
    (0..ROUTED_RECORDS as i64)
        .map(|i| Record::pair(i.wrapping_mul(0x9E37_79B9_7F4A_7C15_u64 as i64), i % 64))
        .collect()
}

fn shuffled_partitioned_input() -> Vec<Vec<Record>> {
    let mut parts: Vec<Vec<Record>> = vec![Vec::new(); PARALLELISM];
    for (i, r) in shuffled_input().into_iter().enumerate() {
        parts[i % PARALLELISM].push(r);
    }
    parts
}

fn merge_input() -> Vec<Record> {
    // Half the deltas improve the stored value (applied), half do not
    // (discarded) — the mix the incremental CC merge sees.
    (0..ROUTED_RECORDS as i64)
        .map(|i| Record::pair(i % 50_000, i % 97))
        .collect()
}

/// Routes a producer through the sealed-page exchange with the given routing
/// function and materializes every consumer partition — the shared shape of
/// the sorted-delivery workloads (`range_exchange` and its hash+sort
/// legacy).
fn paged_exchange_to_partitions(
    producer: Vec<Vec<Record>>,
    router: impl Fn(&Record) -> usize,
) -> Vec<Vec<Record>> {
    let mut locals: Vec<Vec<Record>> = (0..PARALLELISM).map(|_| Vec::new()).collect();
    let mut routed: Vec<Vec<PageWriter>> = Vec::with_capacity(PARALLELISM);
    for (src, partition) in producer.into_iter().enumerate() {
        let mut writers: Vec<PageWriter> = (0..PARALLELISM).map(|_| PageWriter::new()).collect();
        for r in partition {
            let target = router(&r);
            if target == src {
                locals[src].push(r);
            } else {
                writers[target].push(&r);
            }
        }
        routed.push(writers);
    }
    let mut received: Vec<ExchangedPartition> = locals
        .into_iter()
        .map(ExchangedPartition::from_records)
        .collect();
    for writers in routed {
        for (target, writer) in writers.into_iter().enumerate() {
            received[target].receive_pages(writer.finish());
        }
    }
    received
        .into_iter()
        .map(|part| {
            part.into_records()
                .expect("in-memory partitions never fail to read")
        })
        .collect()
}

/// One legacy-vs-current comparison over an identical workload.
pub struct Comparison {
    /// Workload name.
    pub name: &'static str,
    /// What one sample of the workload does.
    pub description: &'static str,
    /// The pre-refactor implementation.
    pub legacy: Box<dyn Fn()>,
    /// The current implementation.
    pub current: Box<dyn Fn()>,
}

/// All hot-path comparisons.
pub fn comparisons() -> Vec<Comparison> {
    let input = Arc::new(routing_input());
    let deltas = Arc::new(merge_input());

    let mut all = Vec::new();

    // 1. The bare partition decision for single-long keys.
    let data = Arc::clone(&input);
    let legacy = Box::new(move || {
        let mut acc = 0usize;
        for r in data.iter() {
            acc += legacy_partition_for(r, &[0], PARALLELISM);
        }
        black_box(acc);
    });
    let data = Arc::clone(&input);
    let current = Box::new(move || {
        let mut acc = 0usize;
        for r in data.iter() {
            acc += partition_for(r, &[0], PARALLELISM);
        }
        black_box(acc);
    });
    all.push(Comparison {
        name: "partition_single_long_key",
        description: "hash-route 400k (long, long) records to 8 partitions",
        legacy,
        current,
    });

    // 2. A full hash exchange.  Both sides build the producer's partitions
    //    inside the timed region (identical cost); the legacy side then
    //    routes by cloning from the borrowed producer and dropping it (the
    //    seed's exchange), the current side consumes the producer and moves
    //    every record into a pre-sized target buffer.
    let legacy = Box::new(move || {
        let producer = partitioned_input();
        let mut targets: Vec<Vec<Record>> = vec![Vec::new(); PARALLELISM];
        for partition in producer.iter() {
            for r in partition {
                targets[legacy_partition_for(r, &[0], PARALLELISM)].push(r.clone());
            }
        }
        black_box(targets);
    });
    let current = Box::new(move || {
        let producer = partitioned_input();
        // The executor's move-based exchange: owned input, pre-sized targets.
        let total: usize = producer.iter().map(Vec::len).sum();
        let per_target = total / PARALLELISM + total / (PARALLELISM * 4) + 4;
        let mut targets: Vec<Vec<Record>> = (0..PARALLELISM)
            .map(|_| Vec::with_capacity(per_target))
            .collect();
        for partition in producer {
            for r in partition {
                targets[partition_for(&r, &[0], PARALLELISM)].push(r);
            }
        }
        black_box(targets);
    });
    all.push(Comparison {
        name: "exchange_hash_partition",
        description: "exchange 400k records across 8 partitions (clone+SipHash vs move+Fx)",
        legacy,
        current,
    });

    // 2b. The paged exchange, producer to consumer: route 400k records and
    //     scan every received record on the consumer side.  The "legacy"
    //     side is the PR-2 state of the art (move records into pre-sized
    //     Vec targets, then pointer-chase through them); the "current" side
    //     is the sealed-page path (local records bypass serialization,
    //     cross-partition records serialize into pages whose views are read
    //     in place without materializing records).
    let legacy = Box::new(move || {
        let producer = partitioned_input();
        let total: usize = producer.iter().map(Vec::len).sum();
        let per_target = total / PARALLELISM + total / (PARALLELISM * 4) + 4;
        let mut targets: Vec<Vec<Record>> = (0..PARALLELISM)
            .map(|_| Vec::with_capacity(per_target))
            .collect();
        for partition in producer {
            for r in partition {
                targets[partition_for(&r, &[0], PARALLELISM)].push(r);
            }
        }
        let mut acc = 0i64;
        for target in &targets {
            for r in target {
                acc = acc.wrapping_add(r.long(0));
            }
        }
        black_box(acc);
    });
    // One sample is one superstep of the paged exchange; the pool carries the
    // consumed pages' buffers from sample to sample, exactly like the
    // executor's per-partition pool seeds the next superstep's outbox
    // writers — at steady state the exchange serializes into recycled
    // buffers instead of allocating fresh pages.
    let pool = std::cell::RefCell::new(dataflow::page::PagePool::new());
    let current = Box::new(move || {
        let producer = partitioned_input();
        // Producer side: local records move, outbound records serialize into
        // per-target page writers (seeded with recycled page buffers).
        let mut locals: Vec<Vec<Record>> = Vec::with_capacity(PARALLELISM);
        let mut routed: Vec<Vec<PageWriter>> = Vec::with_capacity(PARALLELISM);
        let mut pool = pool.borrow_mut();
        for (src, partition) in producer.into_iter().enumerate() {
            let mut writers: Vec<PageWriter> =
                (0..PARALLELISM).map(|_| PageWriter::new()).collect();
            for writer in &mut writers {
                writer.add_spare_buffers(pool.take(4));
            }
            let mut local = Vec::with_capacity(partition.len() / PARALLELISM * 2);
            for r in partition {
                let target = partition_for(&r, &[0], PARALLELISM);
                if target == src {
                    local.push(r);
                } else {
                    writers[target].push(&r);
                }
            }
            locals.push(local);
            routed.push(writers);
        }
        // The exchange: sealed pages and local buffers move by pointer.
        let mut received: Vec<ExchangedPartition> = locals
            .into_iter()
            .map(ExchangedPartition::from_records)
            .collect();
        for writers in routed {
            for (target, writer) in writers.into_iter().enumerate() {
                received[target].receive_pages(writer.finish());
            }
        }
        // Consumer side: scan every record the way the executor's local
        // phase does — local records by reference, paged records as in-place
        // views with the key read straight out of the page bytes (nothing is
        // deserialized).
        let mut acc = 0i64;
        for part in &received {
            let mut local = 0i64;
            let mut paged = 0i64;
            part.for_each_piece(
                |r| local = local.wrapping_add(r.long(0)),
                |view| paged = paged.wrapping_add(view.long(0)),
            )
            .expect("in-memory partitions never fail to read");
            acc = acc.wrapping_add(local).wrapping_add(paged);
        }
        // Consumed pages hand their buffers back for the next superstep.
        for part in received {
            let (_, pages, _, _) = part.into_pieces();
            pool.recycle_all(pages);
        }
        black_box(acc);
    });
    all.push(Comparison {
        name: "page_exchange",
        description:
            "exchange 400k records across 8 partitions and scan the receive side (Vec move + pointer-chase scan vs recycled sealed pages + in-place view scan)",
        legacy,
        current,
    });

    // 2f. The join build+probe that page-native operators run: index 400k
    //     shipped build records and probe them with 100k more, all arriving
    //     as sealed pages.  The legacy side is the materializing state of
    //     the art — deserialize every record and key it into an
    //     `FxHashMap<Key, Vec<Record>>`.  The current side adopts the pages
    //     by pointer and indexes 8-byte normalized key prefixes with
    //     `(page, offset)` handles: records are never deserialized, and
    //     probe hits read the payload field straight out of the page bytes.
    let join_keys = 50_000i64;
    let build_pages: Arc<Vec<Arc<RecordPage>>> = {
        let mut writer = PageWriter::new();
        for i in 0..ROUTED_RECORDS as i64 {
            writer.push(&Record::pair(i % join_keys, i));
        }
        Arc::new(writer.finish())
    };
    let probe_pages: Arc<Vec<Arc<RecordPage>>> = {
        let mut writer = PageWriter::new();
        for i in 0..(ROUTED_RECORDS / 4) as i64 {
            writer.push(&Record::pair(i % join_keys, -i));
        }
        Arc::new(writer.finish())
    };
    let build = Arc::clone(&build_pages);
    let probes = Arc::clone(&probe_pages);
    let legacy = Box::new(move || {
        let mut table: FxHashMap<Key, Vec<Record>> = FxHashMap::default();
        for page in build.iter() {
            for view in page.reader() {
                let record = view.materialize();
                table
                    .entry(Key::extract(&record, &[0]))
                    .or_default()
                    .push(record);
            }
        }
        let mut acc = 0i64;
        for page in probes.iter() {
            for view in page.reader() {
                let probe = view.materialize();
                if let Some(matches) = table.get(&Key::extract(&probe, &[0])) {
                    for m in matches {
                        acc = acc.wrapping_add(m.long(1));
                    }
                }
            }
        }
        black_box(acc);
    });
    let build = Arc::clone(&build_pages);
    let probes = Arc::clone(&probe_pages);
    let current = Box::new(move || {
        let mut store = PagedRecords::new();
        let mut table = PrefixTable::new();
        for page in build.iter() {
            store.adopt_page_scanned(page, |handle, view| {
                table.insert(view.long_key_prefix(0).expect("Long build key"), handle);
                true
            });
        }
        let mut acc = 0i64;
        for page in probes.iter() {
            for view in page.reader() {
                let prefix = view.long_key_prefix(0).expect("Long probe key");
                for handle in table.probe(prefix) {
                    acc = acc.wrapping_add(store.view(handle).long(1));
                }
            }
        }
        black_box(acc);
    });
    all.push(Comparison {
        name: "page_native",
        description:
            "index 400k paged build records and probe with 100k (materialize into FxHashMap<Key, Vec<Record>> vs prefix-handle table over adopted pages)",
        legacy,
        current,
    });

    // 2c. The sort behind sorted-output delivery: order 400k records by
    //     their Long key.  The legacy side is the stable Value-comparison
    //     sort every sort-based local strategy used; the current side is the
    //     8-byte memcmp sort on normalized key prefixes (same permutation —
    //     ties keep input order via the index tiebreak).
    let legacy = Box::new(move || {
        let mut records = shuffled_input();
        sort_by_key(&mut records, &[0]);
        black_box(records);
    });
    let current = Box::new(move || {
        let mut records = shuffled_input();
        sort_by_key_normalized(&mut records, &[0]);
        black_box(records);
    });
    all.push(Comparison {
        name: "memcmp_sort",
        description: "sort 400k records by Long key (Value comparator vs normalized 8-byte memcmp)",
        legacy,
        current,
    });

    // 2d. Delivering *sorted* partitions: what a plan that needs sorted
    //     output per partition pays.  The legacy side is the pre-range state
    //     of the art — hash-partition through sealed pages, then sort every
    //     consumer partition with the Value comparator.  The current side is
    //     the true range exchange: sample splitters, route by binary search,
    //     ship pages, memcmp-sort each partition — and unlike the hash side
    //     it additionally delivers a *global* order across partitions.
    let legacy = Box::new(move || {
        let producer = shuffled_partitioned_input();
        let mut received =
            paged_exchange_to_partitions(producer, |r| partition_for(r, &[0], PARALLELISM));
        let mut acc = 0i64;
        for part in received.iter_mut() {
            sort_by_key(part, &[0]);
            acc = acc.wrapping_add(part.first().map(|r| r.long(0)).unwrap_or(0));
        }
        black_box(acc);
    });
    let current = Box::new(move || {
        let producer = shuffled_partitioned_input();
        let mut sample = Vec::new();
        for partition in &producer {
            sample_keys_into(&mut sample, partition, &[0]);
        }
        let bounds = RangeBounds::from_sample(sample, PARALLELISM);
        let mut received =
            paged_exchange_to_partitions(producer, |r| bounds.partition_for_record(r, &[0]));
        let mut acc = 0i64;
        for part in received.iter_mut() {
            sort_by_key_normalized(part, &[0]);
            acc = acc.wrapping_add(part.first().map(|r| r.long(0)).unwrap_or(0));
        }
        black_box(acc);
    });
    all.push(Comparison {
        name: "range_exchange",
        description:
            "deliver 400k records sorted per partition (hash pages + Value sort vs sampled splitters + memcmp sort)",
        legacy,
        current,
    });

    // 2e. The out-of-core merge vs the in-memory sort of the same data: the
    //     price of spilling.  The "legacy" side is the in-memory state of
    //     the art (one memcmp sort over the whole vector, then a scan); the
    //     "current" side spills 8 sorted runs to disk and streams the k-way
    //     loser-tree merge back.  The spilled path pays real file I/O and is
    //     expected to be *slower* — the frozen floor pins how much slower
    //     the engine is allowed to get, so a regression in the run format or
    //     the loser tree (the ratio collapsing further) fails the gate.  A
    //     quarter of the routing workload keeps the per-sample write volume
    //     low enough that page-cache churn does not dominate the ratio.
    let spill_records = ROUTED_RECORDS / 4;
    let legacy = Box::new(move || {
        let mut records = shuffled_input();
        records.truncate(spill_records);
        sort_by_key_normalized(&mut records, &[0]);
        let mut acc = 0i64;
        for r in &records {
            acc = acc.wrapping_add(r.long(0));
        }
        black_box(acc);
    });
    let current = Box::new(move || {
        let mut records = shuffled_input();
        records.truncate(spill_records);
        let dir = dataflow::spill::default_spill_dir();
        let chunk = records.len() / PARALLELISM + 1;
        let mut sources: Vec<MergeSource> = Vec::with_capacity(PARALLELISM);
        for piece in records.chunks(chunk) {
            let mut sorted = piece.to_vec();
            sort_by_key_normalized(&mut sorted, &[0]);
            let run = write_sorted_records_in(&dir, &sorted, &[0]).expect("spill bench run");
            sources.push(MergeSource::Spilled(run.cursor().expect("open bench run")));
        }
        let mut merger = RunMerger::new(sources, vec![0]).expect("bench merger");
        let mut acc = 0i64;
        while let Some(r) = merger.next_record().expect("read bench run") {
            acc = acc.wrapping_add(r.long(0));
        }
        black_box(acc);
    });
    all.push(Comparison {
        name: "spill_merge",
        description:
            "order 100k records by Long key (in-memory memcmp sort vs 8 spilled sorted runs + loser-tree merge from disk)",
        legacy,
        current,
    });

    // 2g. A whole operator pipeline, materialized vs chained: source →
    //     16x expansion map → filter map → sink at 4-way parallelism.  The
    //     legacy side is the materializing executor (every forward edge
    //     buffers the full intermediate result); the current side fuses the
    //     three operators into one chain per partition, each record pushed
    //     through the members by direct calls, so no fused edge holds a page
    //     or an intermediate.  The floor pins the fused path against the
    //     materializing one; a collapse means chain fusion regressed.
    let build_pipeline = || {
        let mut plan = Plan::new();
        let events: Vec<Record> = (0..PIPELINE_RECORDS as i64)
            .map(|i| Record::pair(i, i % 97))
            .collect();
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
        default_physical_plan(&plan, 4).expect("pipeline plan")
    };
    let pipeline = build_pipeline;
    let legacy = Box::new(move || {
        let executor = Executor::with_config(ExecConfig::new().with_force_materialized(true));
        let result = executor
            .execute(&pipeline())
            .expect("materialized pipeline");
        black_box(result.into_sink("out").expect("materialized sink"));
    });
    let pipeline = build_pipeline;
    let current = Box::new(move || {
        let executor = Executor::new();
        let result = executor.execute(&pipeline()).expect("chained pipeline");
        black_box(result.into_sink("out").expect("chained sink"));
    });
    all.push(Comparison {
        name: "chained_pipeline",
        description:
            "run a source -> 16x expand -> filter -> sink pipeline at 4-way parallelism (materialize every forward edge vs one fused chain of direct calls per partition)",
        legacy,
        current,
    });

    // 3. Key extraction into a grouping hash table.
    let data = Arc::clone(&input);
    let legacy = Box::new(move || {
        let mut groups: HashMap<LegacyKey, u64> = HashMap::new();
        for r in data.iter() {
            *groups.entry(LegacyKey::extract(r, &[1])).or_default() += 1;
        }
        black_box(groups);
    });
    let data = Arc::clone(&input);
    let current = Box::new(move || {
        let mut groups: FxHashMap<Key, u64> = FxHashMap::default();
        for r in data.iter() {
            *groups.entry(Key::extract(r, &[1])).or_default() += 1;
        }
        black_box(groups);
    });
    all.push(Comparison {
        name: "group_table_build",
        description: "count 400k records into a keyed hash table (64 groups)",
        legacy,
        current,
    });

    // 4. The ∪̇ merge into the partitioned solution-set index.
    //    Legacy: Vec-backed key + SipHash map + a clone per delta (the seed's
    //    merge_all cloned before merging).
    let data = Arc::clone(&deltas);
    let legacy = Box::new(move || {
        let comparator = |a: &Record, b: &Record| b.long(1).cmp(&a.long(1));
        let mut partitions: Vec<HashMap<LegacyKey, Record>> = vec![HashMap::new(); PARALLELISM];
        let mut applied = 0usize;
        for delta in data.iter() {
            let delta = delta.clone();
            let key = LegacyKey::extract(&delta, &[0]);
            let mut hasher = DefaultHasher::new();
            key.0.iter().for_each(|v| v.hash(&mut hasher));
            let p = (hasher.finish() % PARALLELISM as u64) as usize;
            match partitions[p].get_mut(&key) {
                None => {
                    partitions[p].insert(key, delta);
                    applied += 1;
                }
                Some(existing) => {
                    if comparator(&delta, existing) == std::cmp::Ordering::Greater {
                        *existing = delta;
                        applied += 1;
                    }
                }
            }
        }
        black_box(applied);
    });
    let data = Arc::clone(&deltas);
    let current = Box::new(move || {
        let mut set = SolutionSet::new(vec![0], PARALLELISM)
            .with_comparator(Arc::new(|a: &Record, b: &Record| b.long(1).cmp(&a.long(1))));
        let applied = set.merge_all(data.iter().cloned());
        black_box(applied);
    });
    all.push(Comparison {
        name: "solution_set_merge",
        description: "merge 400k deltas (50k keys) into the partitioned solution set",
        legacy,
        current,
    });

    // 5. Superstep dispatch — the cost the persistent worker pool removes.
    //    Each sample runs 200 "supersteps" of 8 near-empty partition tasks:
    //    the legacy side spawns scoped OS threads per superstep (the
    //    pre-pool drivers), the current side pushes tasks onto the shared
    //    pool.  This is the dominant cost of the tiny late supersteps of
    //    long-tail workloads like Webbase.
    let legacy = Box::new(move || {
        let mut acc = 0u64;
        for step in 0..DISPATCH_SUPERSTEPS as u64 {
            let mut slots = [0u64; PARALLELISM];
            std::thread::scope(|scope| {
                for (i, slot) in slots.iter_mut().enumerate() {
                    scope.spawn(move || *slot = step + i as u64);
                }
            });
            acc += slots.iter().sum::<u64>();
        }
        black_box(acc);
    });
    let current = Box::new(move || {
        let pool = spinning_pool::global();
        let mut acc = 0u64;
        for step in 0..DISPATCH_SUPERSTEPS as u64 {
            let mut slots = [0u64; PARALLELISM];
            pool.scope(|scope| {
                for (i, slot) in slots.iter_mut().enumerate() {
                    scope.spawn(move || *slot = step + i as u64);
                }
            });
            acc += slots.iter().sum::<u64>();
        }
        black_box(acc);
    });
    all.push(Comparison {
        name: "superstep_dispatch",
        description: "dispatch 200 supersteps x 8 partition tasks (scoped thread spawns vs pool)",
        legacy,
        current,
    });

    // 8. The distributed exchange: one superstep's worth of candidate
    //    shipping — serialize 400k records into sealed pages and move them
    //    from partition 0 to partition 1 through the page-channel trait.
    //    The "legacy" side is the in-process backend (the pages hand over as
    //    Arc pointers); the "current" side is a real two-process loopback
    //    TCP cluster, so the delta is exactly what crossing a process
    //    boundary costs (frame headers, CRC-32, kernel round trips).  The
    //    ratio sits below 1x by design; its floor pins how far the TCP path
    //    may fall behind the in-process path.
    let local = TransportHandle::local();
    let local_channel = local.channel(ChannelId::new(local.allocate(), 0), 2);
    let round = Arc::new(AtomicU64::new(1));
    let build_pages = || {
        let mut writer = PageWriter::new();
        for i in 0..ROUTED_RECORDS as i64 {
            writer.push(&Record::pair(i.wrapping_mul(0x9E37), i));
        }
        writer.finish()
    };
    let (channel, counter) = (local_channel, Arc::clone(&round));
    let legacy = Box::new(move || {
        let round = counter.fetch_add(1, AtomicOrdering::Relaxed);
        channel
            .send(round, 0, 1, build_pages())
            .expect("local send");
        channel.finish_round(round, 0).expect("local finish 0");
        channel.finish_round(round, 1).expect("local finish 1");
        let received = channel.recv(round, 1).expect("local recv");
        let _ = channel.recv(round, 0).expect("local drain");
        let records: usize = received
            .iter()
            .flat_map(|(_, pages)| pages.iter())
            .map(|p| p.record_count())
            .sum();
        black_box(records);
    });
    // A two-process cluster inside this process: the coordinator half
    // connects on this thread while a helper thread brings up the worker.
    let coordinator = std::net::TcpListener::bind("127.0.0.1:0")
        .expect("probe listener")
        .local_addr()
        .expect("probe address")
        .to_string();
    let worker_addr = coordinator.clone();
    let worker = std::thread::spawn(move || {
        TransportHandle::tcp_cluster(
            ClusterSpec::new(2, 1).expect("worker spec"),
            &worker_addr,
            &FaultInjector::disabled(),
        )
        .expect("bench worker transport")
    });
    let tcp_a = TransportHandle::tcp_cluster(
        ClusterSpec::new(2, 0).expect("coordinator spec"),
        &coordinator,
        &FaultInjector::disabled(),
    )
    .expect("bench coordinator transport");
    let tcp_b = worker.join().expect("bench worker thread");
    let channel_a = tcp_a.channel(ChannelId::new(0, 0), 2);
    let channel_b = tcp_b.channel(ChannelId::new(0, 0), 2);
    let round = Arc::new(AtomicU64::new(1));
    let counter = Arc::clone(&round);
    let current = Box::new(move || {
        // Keep the transports alive for the closure's lifetime.
        let (_a, _b) = (&tcp_a, &tcp_b);
        let round = counter.fetch_add(1, AtomicOrdering::Relaxed);
        channel_a
            .send(round, 0, 1, build_pages())
            .expect("tcp send");
        channel_a.finish_round(round, 0).expect("tcp finish 0");
        channel_b.finish_round(round, 1).expect("tcp finish 1");
        let received = channel_b.recv(round, 1).expect("tcp recv");
        let _ = channel_a.recv(round, 0).expect("tcp drain");
        let records: usize = received
            .iter()
            .flat_map(|(_, pages)| pages.iter())
            .map(|p| p.record_count())
            .sum();
        black_box(records);
    });
    all.push(Comparison {
        name: "tcp_exchange",
        description:
            "serialize 400k records into sealed pages and ship them partition 0 -> 1 through the page channel (in-process Arc pointer handoff vs loopback TCP with framing and CRC-32)",
        legacy,
        current,
    });

    all
}

#[cfg(test)]
mod tests {
    use super::*;
    use dataflow::key::hash_key;

    #[test]
    fn legacy_and_current_route_to_valid_partitions() {
        let r = Record::pair(42, 1);
        assert!(legacy_partition_for(&r, &[0], PARALLELISM) < PARALLELISM);
        assert!(partition_for(&r, &[0], PARALLELISM) < PARALLELISM);
    }

    #[test]
    fn comparisons_run_once_without_panicking() {
        // Smoke-test the workloads at full size once each.
        for c in comparisons() {
            (c.legacy)();
            (c.current)();
        }
    }

    #[test]
    fn sorted_delivery_workloads_agree_on_the_result() {
        // The legacy (hash + Value sort) and current (range + memcmp sort)
        // sorted-delivery paths must produce per-partition sorted runs over
        // the same global multiset; the range side is additionally globally
        // sorted across partitions.
        let producer: Vec<Vec<Record>> = {
            let mut parts: Vec<Vec<Record>> = vec![Vec::new(); PARALLELISM];
            for i in 0..10_000i64 {
                parts[(i % PARALLELISM as i64) as usize]
                    .push(Record::pair(i.wrapping_mul(0x9E37) % 5000, i));
            }
            parts
        };
        let mut hash_parts =
            paged_exchange_to_partitions(producer.clone(), |r| partition_for(r, &[0], PARALLELISM));
        let mut sample = Vec::new();
        for partition in &producer {
            sample_keys_into(&mut sample, partition, &[0]);
        }
        let bounds = RangeBounds::from_sample(sample, PARALLELISM);
        let mut range_parts =
            paged_exchange_to_partitions(producer, |r| bounds.partition_for_record(r, &[0]));
        for part in hash_parts.iter_mut() {
            sort_by_key(part, &[0]);
        }
        for part in range_parts.iter_mut() {
            assert!(
                sort_by_key_normalized(part, &[0]),
                "Long keys take the memcmp path"
            );
        }
        let ranged: Vec<Record> = range_parts.into_iter().flatten().collect();
        for window in ranged.windows(2) {
            assert!(
                window[0].long(0) <= window[1].long(0),
                "range side not globally sorted"
            );
        }
        let mut hashed: Vec<Record> = hash_parts.into_iter().flatten().collect();
        let mut ranged = ranged;
        hashed.sort();
        ranged.sort();
        assert_eq!(hashed, ranged);
    }

    #[test]
    fn hash_key_matches_legacy_semantics_not_bits() {
        // The new hash differs bit-for-bit from SipHash (that is the point),
        // but equal keys must still collide on both paths.
        let a = Record::pair(7, 1);
        let b = Record::triple(7, 9, 0.5);
        assert_eq!(hash_key(&a, &[0]), hash_key(&b, &[0]));
        assert_eq!(legacy_hash_key(&a, &[0]), legacy_hash_key(&b, &[0]));
    }
}
