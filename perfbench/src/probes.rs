//! Layer probes of the traced run: each times calls into one layer's public
//! functions on the workload's own input records, from the benchmark's side.

use crate::jobs::free_loopback_addr;
use crate::measure::median;
use crate::report::Metric;
use crate::trace::Tracer;
use crate::workload::{Inputs, DAMPING, PAGERANK_ITERATIONS, SSSP_SOURCE};
use spinning_dataflows::algorithms::oracles;
use spinning_dataflows::algorithms::pagerank::build_step_plan;
use spinning_dataflows::dataflow::key::partition_for;
use spinning_dataflows::dataflow::prelude::{
    sort_by_key_normalized, ChannelId, ClusterSpec, ExchangedPartition, FaultInjector, MergeSource,
    PageWriter, Record, RecordPage, RunMerger, TransportHandle,
};
use spinning_dataflows::dataflow::spill::write_sorted_records_in;
use spinning_dataflows::optimizer::{IterationSpec, Optimizer};
use spinning_dataflows::spinning_core::prelude::{CheckpointStore, SolutionSet};
use spinning_dataflows::spinning_pool;
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Repetitions of each probe over the whole input; the metric is their
/// median.
const REPS: usize = 5;
/// Pool scopes timed by the `pool.scope_us` probe.
const SCOPE_REPS: usize = 2_000;
/// `all_gather` rounds timed between the two TCP endpoints.
const GATHER_ROUNDS: usize = 200;

/// Runs every probe and returns their metrics.
pub fn run_all(
    inputs: &Inputs,
    parallelism: usize,
    work_dir: &Path,
    tracer: &mut Tracer,
    next_id: &mut usize,
) -> Result<Vec<Metric>, String> {
    let mut probe = Probe {
        tracer,
        inputs,
        parallelism,
        job: next_id,
        metrics: Vec::new(),
    };
    probe.pool_scope();
    probe.solution_set_merge();
    probe.page_exchange();
    probe.optimizer_plan()?;
    probe.spill_write_merge(&work_dir.join("spill-probe"))?;
    probe.checkpoint(&work_dir.join("checkpoint-probe"))?;
    probe.comm()?;
    probe.oracles();
    Ok(probe.metrics)
}

struct Probe<'a> {
    tracer: &'a mut Tracer,
    inputs: &'a Inputs,
    parallelism: usize,
    /// Trace id of the current probe repetition; the next is one more.
    job: &'a mut usize,
    metrics: Vec<Metric>,
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

impl Probe<'_> {
    /// Runs `rep` `reps` times, each under a root span `probe.<name>`, and
    /// returns the durations the repetitions measured.
    fn repeat(
        &mut self,
        name: &str,
        reps: usize,
        mut rep: impl FnMut(&mut Tracer, usize, usize) -> Result<Duration, String>,
    ) -> Result<Vec<Duration>, String> {
        let mut out = Vec::with_capacity(reps);
        for _ in 0..reps {
            *self.job += 1;
            let root = self.tracer.open(&format!("probe.{name}"), None, *self.job);
            let measured = rep(self.tracer, root, *self.job);
            self.tracer.close(root);
            out.push(measured?);
        }
        Ok(out)
    }

    fn push(&mut self, name: &str, values: &[f64], unit: &'static str) {
        self.metrics.push(Metric::new(name, median(values), unit));
    }

    /// One `spinning_pool::global().scope` over two no-op tasks.
    fn pool_scope(&mut self) {
        let pool = spinning_pool::global();
        *self.job += 1;
        let root = self.tracer.open("probe.pool.scope", None, *self.job);
        let samples: Vec<f64> = (0..SCOPE_REPS)
            .map(|_| {
                let start = Instant::now();
                pool.scope(|s| {
                    s.spawn(|| black_box(()));
                    s.spawn(|| black_box(()));
                });
                start.elapsed().as_secs_f64() * 1e6
            })
            .collect();
        self.tracer.close(root);
        self.push("pool.scope_us", &samples, "us");
    }

    /// `SolutionSet::from_records` over the initial components plus
    /// `merge_all` over the initial candidates.
    fn solution_set_merge(&mut self) {
        let inputs = self.inputs;
        let parallelism = self.parallelism;
        let times = self
            .repeat("core.solution_set", REPS, |tracer, root, job| {
                let (components, candidates) =
                    (inputs.components.clone(), inputs.candidates.clone());
                let start = Instant::now();
                let mut set =
                    tracer.time("core.solution_set.from_records", Some(root), job, || {
                        SolutionSet::from_records(components, vec![0], parallelism)
                    });
                let changed = tracer.time("core.solution_set.merge_all", Some(root), job, || {
                    set.merge_all(candidates)
                });
                let elapsed = start.elapsed();
                black_box((set.len(), changed));
                Ok(elapsed)
            })
            .expect("the merge probe cannot fail");
        self.push("core.solution_set.merge_ms", &ms_all(&times), "ms");
    }

    /// The initial candidates routed through `partition_for`, `PageWriter`
    /// and `ExchangedPartition`, as a superstep exchange does.
    fn page_exchange(&mut self) {
        let inputs = self.inputs;
        let p = self.parallelism;
        let times = self
            .repeat("dataflow.page.exchange", REPS, |tracer, root, job| {
                let start = Instant::now();
                let producers = inputs.candidates.chunks(inputs.candidates.len() / p + 1);
                let mut locals: Vec<Vec<Record>> = vec![Vec::new(); p];
                let mut writers: Vec<Vec<PageWriter>> = Vec::with_capacity(p);
                tracer.time("dataflow.page.route", Some(root), job, || {
                    for (src, chunk) in producers.enumerate() {
                        let mut out: Vec<PageWriter> = (0..p).map(|_| PageWriter::new()).collect();
                        for r in chunk {
                            let target = partition_for(r, &[0], p);
                            if target == src {
                                locals[src].push(r.clone());
                            } else {
                                out[target].push(r);
                            }
                        }
                        writers.push(out);
                    }
                });
                let received = tracer.time("dataflow.page.receive", Some(root), job, || {
                    let mut parts: Vec<ExchangedPartition> = locals
                        .into_iter()
                        .map(ExchangedPartition::from_records)
                        .collect();
                    for out in writers {
                        for (target, writer) in out.into_iter().enumerate() {
                            parts[target].receive_pages(writer.finish());
                        }
                    }
                    parts.iter().map(|part| part.record_count()).sum::<usize>()
                });
                let elapsed = start.elapsed();
                if received != inputs.candidates.len() {
                    return Err(format!(
                        "page exchange delivered {received} of {} records",
                        inputs.candidates.len()
                    ));
                }
                Ok(elapsed)
            })
            .expect("the in-memory exchange probe delivers every record");
        self.push("dataflow.page.exchange_ms", &ms_all(&times), "ms");
    }

    /// `Optimizer::optimize_iterative` on the PageRank step plan with the
    /// workload's cardinalities.
    fn optimizer_plan(&mut self) -> Result<(), String> {
        let (plan, vector, _, _, annotations) = build_step_plan(&self.inputs.graph, DAMPING);
        let sink = plan
            .sink_by_name("next-ranks")
            .ok_or("the PageRank step plan has no next-ranks sink")?;
        let spec = IterationSpec::new(vector, sink, PAGERANK_ITERATIONS as f64);
        let optimizer = Optimizer::new(self.parallelism);
        let times = self.repeat("optimizer", REPS * 4, |tracer, root, job| {
            let start = Instant::now();
            let optimized = tracer.time("optimizer.optimize_iterative", Some(root), job, || {
                optimizer.optimize_iterative(&plan, &annotations, &spec)
            });
            let elapsed = start.elapsed();
            black_box(optimized.map_err(|e| format!("optimizer failed: {e}"))?);
            Ok(elapsed)
        })?;
        self.push("optimizer.plan_ms", &ms_all(&times), "ms");
        Ok(())
    }

    /// The initial candidates as one sorted run per partition through
    /// `write_sorted_records_in`, merged back with `RunMerger`.
    fn spill_write_merge(&mut self, dir: &Path) -> Result<(), String> {
        std::fs::create_dir_all(dir).map_err(|e| format!("spill probe dir: {e}"))?;
        let p = self.parallelism;
        let runs: Vec<Vec<Record>> = self
            .inputs
            .candidates
            .chunks(self.inputs.candidates.len() / p + 1)
            .map(|chunk| {
                let mut sorted = chunk.to_vec();
                sort_by_key_normalized(&mut sorted, &[0]);
                sorted
            })
            .collect();
        let expected = self.inputs.candidates.len();
        let times = self.repeat("dataflow.spill", REPS, |tracer, root, job| {
            let io = |e: std::io::Error| format!("spill probe I/O: {e}");
            let start = Instant::now();
            let spilled = tracer.time(
                "dataflow.spill.write_sorted_records_in",
                Some(root),
                job,
                || {
                    runs.iter()
                        .map(|run| write_sorted_records_in(dir, run, &[0]))
                        .collect::<std::io::Result<Vec<_>>>()
                },
            );
            let spilled = spilled.map_err(io)?;
            let merged = tracer.time("dataflow.spill.run_merger", Some(root), job, || {
                let sources = spilled
                    .iter()
                    .map(|run| run.cursor().map(MergeSource::Spilled))
                    .collect::<std::io::Result<Vec<_>>>()?;
                let mut merger = RunMerger::new(sources, vec![0])?;
                let mut count = 0usize;
                while merger.next_record()?.is_some() {
                    count += 1;
                }
                Ok::<_, std::io::Error>(count)
            });
            let merged = merged.map_err(io)?;
            let elapsed = start.elapsed();
            if merged != expected {
                return Err(format!(
                    "spill merge returned {merged} of {expected} records"
                ));
            }
            Ok(elapsed)
        })?;
        let _ = std::fs::remove_dir_all(dir);
        self.push("dataflow.spill.write_merge_ms", &ms_all(&times), "ms");
        Ok(())
    }

    /// `CheckpointStore::write` of the initial solution and workset, split
    /// by partition, then `restore_latest`.
    fn checkpoint(&mut self, dir: &Path) -> Result<(), String> {
        let p = self.parallelism;
        let split = |records: &[Record]| {
            let mut parts = vec![Vec::new(); p];
            for r in records {
                parts[partition_for(r, &[0], p)].push(r.clone());
            }
            parts
        };
        let (solution, workset) = (
            split(&self.inputs.components),
            split(&self.inputs.candidates),
        );
        let mut writes = Vec::new();
        let restores = self.repeat("core.checkpoint", REPS, |tracer, root, job| {
            let _ = std::fs::remove_dir_all(dir);
            let store = CheckpointStore::new(dir, p, FaultInjector::disabled());
            let start = Instant::now();
            tracer
                .time("core.checkpoint.write", Some(root), job, || {
                    store.write(1, &solution, &workset)
                })
                .map_err(|e| format!("checkpoint probe write: {e}"))?;
            writes.push(start.elapsed());
            let start = Instant::now();
            let restored = tracer.time("core.checkpoint.restore_latest", Some(root), job, || {
                store.restore_latest(1)
            });
            let elapsed = start.elapsed();
            match restored {
                Some(r) if r.solution == solution && r.workset == workset => Ok(elapsed),
                _ => Err("checkpoint probe restored a different cut".into()),
            }
        })?;
        let _ = std::fs::remove_dir_all(dir);
        self.push("core.checkpoint.write_ms", &ms_all(&writes), "ms");
        self.push("core.checkpoint.restore_ms", &ms_all(&restores), "ms");
        Ok(())
    }

    /// Connects two TCP endpoints on threads of this process, then times
    /// `all_gather` rounds and shipping the candidates' pages from
    /// partition 0 to partition 1.
    fn comm(&mut self) -> Result<(), String> {
        let coordinator = free_loopback_addr()?;
        let pages = {
            let mut writer = PageWriter::new();
            for r in &self.inputs.candidates {
                writer.push(r);
            }
            writer.finish()
        };
        let bytes: usize = pages.iter().map(|p| p.byte_len()).sum();
        *self.job += 1;
        let job = *self.job;
        let root = self.tracer.open("probe.comm", None, job);
        let connect_span = self.tracer.open("comm.connect", Some(root), job);
        let start = Instant::now();
        let endpoints = connect_pair(&coordinator)?;
        let connect = start.elapsed();
        self.tracer.close(connect_span);

        let gather_span = self.tracer.open("comm.all_gather", Some(root), job);
        let gathers = std::thread::scope(|s| {
            let peer = s.spawn(|| gather_rounds(&endpoints[1]));
            let own = gather_rounds(&endpoints[0]);
            let peer = peer
                .join()
                .map_err(|_| "all_gather peer panicked".to_owned())?;
            peer?;
            own
        })?;
        self.tracer.close(gather_span);

        let ship_span = self.tracer.open("comm.ship", Some(root), job);
        let ships = std::thread::scope(|s| {
            let sender = s.spawn(|| ship_rounds(&endpoints[0], &pages, true));
            let received = ship_rounds(&endpoints[1], &pages, false);
            let sent = sender
                .join()
                .map_err(|_| "ship sender panicked".to_owned())?;
            sent?;
            received
        })?;
        self.tracer.close(ship_span);
        self.tracer.close(root);

        self.metrics
            .push(Metric::new("comm.connect_ms", ms(connect), "ms"));
        let gather_us: Vec<f64> = gathers.iter().map(|d| d.as_secs_f64() * 1e6).collect();
        self.push("comm.all_gather_us", &gather_us, "us");
        let rates: Vec<f64> = ships
            .iter()
            .map(|d| bytes as f64 / 1e6 / d.as_secs_f64())
            .collect();
        self.push("comm.ship_mb_s", &rates, "MB/s");
        Ok(())
    }

    /// The sequential oracles: the single-threaded baseline.
    fn oracles(&mut self) {
        let graph = &self.inputs.graph;
        let runs: [(&str, &str, &dyn Fn()); 3] = [
            ("algorithms.oracles.cc", "algorithms.oracles.cc_s", &|| {
                black_box(oracles::connected_components(graph));
            }),
            (
                "algorithms.oracles.sssp",
                "algorithms.oracles.sssp_s",
                &|| {
                    black_box(oracles::sssp(graph, SSSP_SOURCE));
                },
            ),
            (
                "algorithms.oracles.pagerank",
                "algorithms.oracles.pagerank_s",
                &|| {
                    black_box(oracles::pagerank(graph, PAGERANK_ITERATIONS, DAMPING));
                },
            ),
        ];
        for (span, metric, run) in runs {
            let times = self
                .repeat(span, REPS, |_, _, _| {
                    let start = Instant::now();
                    run();
                    Ok(start.elapsed())
                })
                .expect("the oracles cannot fail");
            let secs: Vec<f64> = times.iter().map(Duration::as_secs_f64).collect();
            self.push(metric, &secs, "s");
        }
    }
}

fn ms_all(times: &[Duration]) -> Vec<f64> {
    times.iter().map(|&d| ms(d)).collect()
}

/// Brings up both endpoints of a two-process cluster inside this process.
fn connect_pair(coordinator: &str) -> Result<[TransportHandle; 2], String> {
    let connect = |index| {
        let spec = ClusterSpec::new(2, index).map_err(|e| e.to_string())?;
        TransportHandle::tcp_cluster(spec, coordinator, &FaultInjector::disabled())
            .map_err(|e| format!("probe endpoint {index} failed to connect: {e}"))
    };
    std::thread::scope(|s| {
        let peer = s.spawn(|| connect(1));
        let own = connect(0)?;
        let peer = peer
            .join()
            .map_err(|_| "probe endpoint 1 panicked".to_owned())??;
        Ok([own, peer])
    })
}

/// [`GATHER_ROUNDS`] one-value `all_gather` rounds; both endpoints call it.
fn gather_rounds(endpoint: &TransportHandle) -> Result<Vec<Duration>, String> {
    let id = ChannelId::new(endpoint.allocate(), 0);
    (0..GATHER_ROUNDS as u64)
        .map(|round| {
            let start = Instant::now();
            let all = endpoint
                .all_gather(id, round, &[round])
                .map_err(|e| format!("all_gather: {e}"))?;
            let elapsed = start.elapsed();
            if all.len() != 2 || all.iter().any(|v| v != &[round]) {
                return Err(format!("all_gather round {round} returned {all:?}"));
            }
            Ok(elapsed)
        })
        .collect()
}

/// [`REPS`] rounds shipping `pages` from partition 0 (endpoint 0) to
/// partition 1 (endpoint 1).  Both endpoints call it; each round starts
/// with an `all_gather` barrier, and the receiver's time from the barrier
/// to its completed `recv` is the round's duration.
fn ship_rounds(
    endpoint: &TransportHandle,
    pages: &[Arc<RecordPage>],
    sender: bool,
) -> Result<Vec<Duration>, String> {
    let comm = |e: spinning_dataflows::dataflow::prelude::DataflowError| e.to_string();
    let channel = endpoint.channel(ChannelId::new(endpoint.allocate(), 0), 2);
    let barrier = ChannelId::new(endpoint.allocate(), 0);
    let records: usize = pages.iter().map(|p| p.record_count()).sum();
    let mut out = Vec::with_capacity(REPS);
    for round in 1..=REPS as u64 {
        endpoint.all_gather(barrier, round, &[]).map_err(comm)?;
        let start = Instant::now();
        let fail = |e: spinning_dataflows::dataflow::prelude::CommError| format!("ship: {e}");
        if sender {
            channel.send(round, 0, 1, pages.to_vec()).map_err(fail)?;
            channel.finish_round(round, 0).map_err(fail)?;
            channel.recv(round, 0).map_err(fail)?;
        } else {
            channel.finish_round(round, 1).map_err(fail)?;
            let received: usize = channel
                .recv(round, 1)
                .map_err(fail)?
                .iter()
                .flat_map(|(_, pages)| pages.iter())
                .map(|p| p.record_count())
                .sum();
            if received != records {
                return Err(format!("shipped {records} records, received {received}"));
            }
        }
        out.push(start.elapsed());
    }
    Ok(out)
}
