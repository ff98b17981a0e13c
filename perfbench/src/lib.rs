//! Job-level benchmark of the engine.
//!
//! One run generates one workload's graph from a seed, then runs the
//! workload's fixed job list through the public driver functions
//! (`algorithms::{cc_*, sssp, pagerank, cc_workset_records}`) sequentially,
//! in a closed loop with no concurrent clients, for a fixed number of
//! seconds.  Every job's output is checked against `algorithms::oracles`.
//!
//! * The untraced run (`--trace 0`) reports the end-to-end metrics.
//! * The traced run (`--trace 1`) records spans around every job and every
//!   layer probe (see [`probes`]), synthesizes one span per superstep from
//!   the drivers' statistics, and reports the per-layer metrics plus the
//!   tracing overhead.  Spans go to `perfbench/out/` when the run ends.
//!
//! The last line of standard output is the JSON result; the lines before it
//! are for people.

pub mod env;
pub mod jobs;
pub mod layers;
pub mod measure;
pub mod probes;
pub mod report;
pub mod trace;
pub mod workload;

use jobs::{run_job, Context, JobRun};
use measure::{median, tail_percentile};
use report::{Metric, Outcome};
use spinning_dataflows::algorithms::oracles;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};
use trace::Tracer;
use workload::{Expected, Inputs, Job, Workload, DAMPING, PAGERANK_ITERATIONS};

/// Set-ups before the first pass.  Each measured pass adds
/// [`SETUPS_PER_PASS`] more, so the samples span the whole run; `setup_s`
/// is the median of all of them.
pub const SETUPS_FIRST: usize = 5;
/// Set-ups after each measured pass.
pub const SETUPS_PER_PASS: usize = 3;
/// Fewest measured passes over the job list, however long they take.
pub const MIN_PASSES: usize = 3;
/// PageRank iterations of the executor probe, which gives `dataflow.exec.*`
/// work on every workload.
pub const EXEC_PROBE_ITERATIONS: usize = 2;

/// Command-line options.
#[derive(Debug, Clone)]
pub struct Options {
    /// Which workload to run.
    pub workload: Workload,
    /// Generator seed; overrides `DatasetProfile.seed`.
    pub seed: u64,
    /// How long the measured passes run.
    pub seconds: u64,
    /// Traced run (per-layer metrics) instead of the untraced one.
    pub trace: bool,
    /// Dataset downscale factor.
    pub scale: u64,
    /// Directory for checkpoints, spilled runs and probe files.
    pub work_dir: PathBuf,
    /// Self-test hook: this job's output is altered before it is checked.
    pub corrupt: Option<Job>,
}

/// Usage text.
pub const USAGE: &str = "usage: perfbench --workload <longtail-webbase|dense-twitter> \
[--seed <n>] [--seconds <n>] [--trace <0|1>]";

impl Options {
    /// Parses `--flag value` pairs.
    pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Options, String> {
        let mut workload = None;
        let mut options = Options {
            workload: Workload::LongtailWebbase,
            seed: 1,
            seconds: 45,
            trace: false,
            scale: workload::SCALE,
            work_dir: out_dir().join(format!("work-{}", std::process::id())),
            corrupt: None,
        };
        let mut args = args.into_iter();
        while let Some(flag) = args.next() {
            let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let number = || {
                value
                    .parse::<u64>()
                    .map_err(|_| format!("{flag} takes a whole number, got {value:?}"))
            };
            match flag.as_str() {
                "--workload" => {
                    workload = Some(
                        Workload::from_name(&value)
                            .ok_or_else(|| format!("unknown workload {value:?}"))?,
                    )
                }
                "--seed" => options.seed = number()?,
                "--seconds" => options.seconds = number()?,
                "--trace" => {
                    options.trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                    }
                }
                _ => return Err(format!("unknown flag {flag:?}")),
            }
        }
        options.workload = workload.ok_or("--workload is required")?;
        Ok(options)
    }
}

/// Where runs write spans and scratch files: `perfbench/out/`.
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// One pass over the workload's job list.
struct Pass {
    runs: Vec<JobRun>,
    wall: Duration,
    cpu: Duration,
}

impl Pass {
    fn peak_rss_mib(&self) -> f64 {
        let kib = self
            .runs
            .iter()
            .filter_map(|r| r.peak_rss_kib)
            .max()
            .unwrap_or(0);
        kib as f64 / 1024.0
    }
}

struct Runner<'a> {
    ctx: Context<'a>,
    schedule: Vec<Job>,
    tracer: Tracer,
    next_id: usize,
    attempted: usize,
    failed: usize,
    log: &'a mut dyn Write,
}

impl Runner<'_> {
    fn say(&mut self, line: &str) {
        let _ = writeln!(self.log, "{line}");
    }

    fn record(&mut self, run: &JobRun) {
        self.attempted += 1;
        if let Some(failure) = &run.failure {
            self.failed += 1;
            self.say(&format!("FAILED {}: {failure}", run.job.name()));
        }
    }

    fn pass(&mut self, traced: bool) -> Pass {
        let cpu_start = measure::process_cpu();
        let start = Instant::now();
        self.next_id += 1;
        let pass_id = self.next_id;
        let mut disabled = Tracer::new(false);
        let tracer = if traced {
            &mut self.tracer
        } else {
            &mut disabled
        };
        let pass_span = tracer.open("pass", None, pass_id);
        let mut runs = Vec::with_capacity(self.schedule.len());
        for &job in &self.schedule {
            self.next_id += 1;
            let span = tracer.open(
                &format!("job.{}", job.name()),
                Some(pass_span),
                self.next_id,
            );
            let run = run_job(job, &self.ctx);
            tracer.close(span);
            let prefix = if job.uses_executor() {
                "iteration"
            } else {
                "superstep"
            };
            tracer.synthesize_iterations(span, prefix, &run.stats);
            runs.push(run);
        }
        tracer.close(pass_span);
        let pass = Pass {
            wall: start.elapsed(),
            cpu: measure::process_cpu().saturating_sub(cpu_start),
            runs,
        };
        for run in &pass.runs {
            self.record(run);
        }
        pass
    }

    /// `pagerank` for [`EXEC_PROBE_ITERATIONS`] per Figure-4 plan, checked
    /// against the oracle at the same iteration count.
    fn exec_probe(&mut self) -> Vec<JobRun> {
        let expected = Expected {
            ranks: oracles::pagerank(&self.ctx.inputs.graph, EXEC_PROBE_ITERATIONS, DAMPING),
            ..Expected::default()
        };
        let ctx = Context {
            expected: &expected,
            pagerank_iterations: EXEC_PROBE_ITERATIONS,
            corrupt: None,
            ..self.ctx
        };
        let mut runs = Vec::new();
        for job in [Job::PagerankBroadcast, Job::PagerankPartition] {
            self.next_id += 1;
            let name = format!("probe.dataflow.exec.{}", job.name());
            let span = self.tracer.open(&name, None, self.next_id);
            let run = run_job(job, &ctx);
            self.tracer.close(span);
            self.tracer
                .synthesize_iterations(span, "iteration", &run.stats);
            self.record(&run);
            runs.push(run);
        }
        runs
    }
}

/// The job runs of `job` across `passes`.
fn runs_of(passes: &[Pass], job: Job) -> Vec<&JobRun> {
    passes
        .iter()
        .flat_map(|p| p.runs.iter())
        .filter(|r| r.job == job)
        .collect()
}

fn seconds_of(values: impl Iterator<Item = Duration>) -> Vec<f64> {
    values.map(|d| d.as_secs_f64()).collect()
}

fn describe(samples: &[f64], unit: &str) -> String {
    let tail = tail_percentile(samples)
        .map(|(pct, v)| format!(", p{pct} {v:.6} {unit}"))
        .unwrap_or_default();
    let (lo, hi) = samples
        .iter()
        .fold((f64::INFINITY, 0.0f64), |(lo, hi), &v| {
            (lo.min(v), hi.max(v))
        });
    format!(
        "median {:.6} {unit}{tail}, range {lo:.6}..{hi:.6} (n={})",
        median(samples),
        samples.len()
    )
}

/// Repeats the set-up `reps` times, appending each time to `times`, and
/// checks that every repetition reproduces `inputs`.
fn repeat_setup(
    inputs: &Inputs,
    options: &Options,
    reps: usize,
    times: &mut Vec<f64>,
) -> Result<(), String> {
    for _ in 0..reps {
        let start = Instant::now();
        let again = Inputs::generate(options.workload, options.seed, options.scale);
        times.push(start.elapsed().as_secs_f64());
        if again != *inputs {
            return Err(format!(
                "set-up is not deterministic: seed {} gave two different inputs",
                options.seed
            ));
        }
    }
    Ok(())
}

/// Runs one workload as `options` say, writing the human-readable report to
/// `log`, and returns the metrics.  Refuses to run while any `SPINNING_*`
/// variable is set.
pub fn run(options: &Options, log: &mut dyn Write) -> Result<Outcome, String> {
    let forbidden = env::forbidden_variables(std::env::vars_os());
    if !forbidden.is_empty() {
        return Err(format!(
            "refusing to run with engine tuning variables set ({}): they change what is measured",
            forbidden.join(", ")
        ));
    }
    std::fs::create_dir_all(&options.work_dir)
        .map_err(|e| format!("cannot create {}: {e}", options.work_dir.display()))?;
    let workload = options.workload;
    let root = env::repo_root();
    let _ = writeln!(
        log,
        "perfbench workload={} trace={} seconds={} seed={} held_out_seed={} scale={} parallelism={} nproc={} commit={} source_fnv={}",
        workload.name(),
        u8::from(options.trace),
        options.seconds,
        options.seed,
        workload::HELD_OUT_SEED,
        options.scale,
        workload::PARALLELISM,
        env::nproc(),
        env::commit(&root),
        env::source_fingerprint(&root),
    );
    if options.seed == workload::HELD_OUT_SEED {
        let _ = writeln!(
            log,
            "note: this is the held-out seed, kept for confirming claims"
        );
    }

    let start = Instant::now();
    let inputs = Inputs::generate(workload, options.seed, options.scale);
    let mut setup = vec![start.elapsed().as_secs_f64()];
    repeat_setup(&inputs, options, SETUPS_FIRST - 1, &mut setup)?;
    let _ = writeln!(
        log,
        "graph: {} vertices, {} edges",
        inputs.graph.num_vertices(),
        inputs.graph.num_edges(),
    );
    let expected = Expected::compute(workload, &inputs)?;

    let mut runner = Runner {
        ctx: Context {
            inputs: &inputs,
            expected: &expected,
            parallelism: workload::PARALLELISM,
            pagerank_iterations: PAGERANK_ITERATIONS,
            work_dir: &options.work_dir,
            corrupt: options.corrupt,
        },
        schedule: workload.pass(),
        tracer: Tracer::new(options.trace),
        next_id: 0,
        attempted: 0,
        failed: 0,
        log,
    };

    // Warm-up: fills caches, grows the heap and starts the pool; checked but
    // not measured.  It lasts a tenth of the measured time, at least a pass.
    let warm_up = Instant::now() + Duration::from_secs(options.seconds) / 10;
    runner.pass(false);
    while Instant::now() < warm_up {
        runner.pass(false);
    }
    let deadline = Instant::now() + Duration::from_secs(options.seconds);
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    while untraced.len() < MIN_PASSES || Instant::now() < deadline {
        untraced.push(runner.pass(false));
        repeat_setup(&inputs, options, SETUPS_PER_PASS, &mut setup)?;
        if options.trace {
            traced.push(runner.pass(true));
        }
    }

    for &job in workload.jobs() {
        let runs = runs_of(&untraced, job);
        let walls = seconds_of(runs.iter().map(|r| r.wall));
        let supersteps: Vec<usize> = runs.iter().map(|r| r.supersteps).collect();
        runner.say(&format!(
            "job {}: {}, supersteps {}",
            job.name(),
            describe(&walls, "s"),
            supersteps.first().copied().unwrap_or(0)
        ));
        if supersteps.iter().any(|&s| s != supersteps[0]) {
            runner.say(&format!(
                "  superstep counts vary across passes: {supersteps:?}"
            ));
        }
    }
    let job_median = |job: Job| median(&seconds_of(runs_of(&untraced, job).iter().map(|r| r.wall)));
    for path in [Job::CcCluster, Job::CcCheckpoint, Job::CcSpill] {
        if workload.jobs().contains(&path) {
            runner.say(&format!(
                "overhead {}: {:+.6} s over cc_incremental",
                path.name(),
                job_median(path) - job_median(Job::CcIncremental)
            ));
        }
    }
    let pass_walls = seconds_of(untraced.iter().map(|p| p.wall));
    runner.say(&format!("pass: {}", describe(&pass_walls, "s")));
    runner.say(&format!("set-up: {}", describe(&setup, "s")));

    let metrics = if options.trace {
        let traced_walls = seconds_of(traced.iter().map(|p| p.wall));
        let overhead = median(&traced_walls) - median(&pass_walls);
        runner.say(&format!(
            "tracing overhead: {overhead:+.6} s per pass (traced {}, untraced {})",
            describe(&traced_walls, "s"),
            describe(&pass_walls, "s")
        ));
        let mut metrics = probes::run_all(
            &inputs,
            workload::PARALLELISM,
            &options.work_dir,
            &mut runner.tracer,
            &mut runner.next_id,
        )?;
        metrics.extend(layers::workset(&runs_of(&traced, Job::CcIncremental)));
        metrics.extend(layers::microstep(&runs_of(&traced, Job::CcAsync)));
        let probe_runs = runner.exec_probe();
        let last = traced.last().expect("at least MIN_PASSES traced passes");
        let exec_runs: Vec<&JobRun> = last
            .runs
            .iter()
            .filter(|r| r.job.uses_executor())
            .chain(&probe_runs)
            .collect();
        metrics.extend(layers::exec(&exec_runs));
        metrics.extend(layers::durable(&last.runs));
        metrics.push(Metric::new("trace.overhead_s", overhead, "s"));
        metrics.push(Metric::new(
            "trace.spans",
            runner.tracer.spans().len() as f64,
            "count",
        ));
        let spans_path = out_dir().join(format!(
            "spans-{}-seed{}.jsonl",
            workload.name(),
            options.seed
        ));
        std::fs::create_dir_all(out_dir())
            .map_err(|e| format!("cannot create the span directory: {e}"))?;
        runner
            .tracer
            .write_jsonl(&spans_path)
            .map_err(|e| format!("cannot write spans: {e}"))?;
        runner.say(&format!(
            "spans: {} written to {}",
            runner.tracer.spans().len(),
            spans_path.display()
        ));
        metrics
    } else {
        vec![
            Metric::new("setup_s", median(&setup), "s"),
            Metric::new("cc_incremental_s", job_median(Job::CcIncremental), "s"),
            Metric::new(
                "cpu_s",
                median(&seconds_of(untraced.iter().map(|p| p.cpu))),
                "s",
            ),
            Metric::new(
                "peak_rss_mib",
                median(&untraced.iter().map(Pass::peak_rss_mib).collect::<Vec<_>>()),
                "MiB",
            ),
        ]
    };
    let outcome = Outcome {
        metrics,
        attempted: runner.attempted,
        failed: runner.failed,
    };
    runner.say(&format!(
        "failed_frac: {} of {} job runs = {}",
        outcome.failed,
        outcome.attempted,
        outcome.failed as f64 / outcome.attempted.max(1) as f64
    ));
    for m in &outcome.metrics {
        runner.say(&format!("metric {} = {} {}", m.name, m.value, m.unit));
    }
    Ok(outcome)
}
