//! In-memory spans of a traced run, written out when the run ends.
//!
//! Spans are recorded by the benchmark around its calls into each layer; the
//! engine itself is not instrumented.  Per-superstep (or per-iteration)
//! spans are synthesized from the driver's `IterationStats.elapsed`: only
//! their durations are measured, so they are laid end to end finishing when
//! their job's span finishes.

use spinning_dataflows::spinning_core::prelude::IterationRunStats;
use std::io::Write;
use std::path::Path;
use std::time::{Duration, Instant};

/// One span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Index of the span in the run.
    pub id: usize,
    /// The span that caused this one.
    pub parent: Option<usize>,
    /// Identifier shared by every span of one job run or one probe.
    pub job: usize,
    /// What the span covers, e.g. `job.cc_incremental` or
    /// `core.solution_set.merge_all`.
    pub name: String,
    /// Start, relative to the tracer's creation.
    pub start: Duration,
    /// End, relative to the tracer's creation.
    pub end: Duration,
    /// True for spans derived from driver statistics instead of clocks.
    pub synthesized: bool,
}

/// Collects spans; a disabled tracer records nothing.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer that records spans only when `enabled`.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Opens a span starting now and returns its id (0 when disabled).
    pub fn open(&mut self, name: &str, parent: Option<usize>, job: usize) -> usize {
        if !self.enabled {
            return 0;
        }
        let start = self.origin.elapsed();
        self.push(name.to_owned(), parent, job, start, start, false)
    }

    /// Ends the span `id` now.
    pub fn close(&mut self, id: usize) {
        if self.enabled {
            self.spans[id].end = self.origin.elapsed();
        }
    }

    /// Times `f` as a span named `name`.
    pub fn time<R>(
        &mut self,
        name: &str,
        parent: Option<usize>,
        job: usize,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.open(name, parent, job);
        let out = f();
        self.close(id);
        out
    }

    /// Adds one synthesized child of `parent` per superstep or iteration in
    /// `stats`, named `<prefix>.<n>`, laid end to end so the last one ends
    /// where `parent` ends.
    pub fn synthesize_iterations(
        &mut self,
        parent: usize,
        prefix: &str,
        stats: &IterationRunStats,
    ) {
        if !self.enabled {
            return;
        }
        let (job, mut end) = (self.spans[parent].job, self.spans[parent].end);
        for step in stats.per_iteration.iter().rev() {
            let start = end.saturating_sub(step.elapsed);
            let name = format!("{prefix}.{}", step.iteration);
            self.push(name, Some(parent), job, start, end, true);
            end = start;
        }
    }

    fn push(
        &mut self,
        name: String,
        parent: Option<usize>,
        job: usize,
        start: Duration,
        end: Duration,
        synthesized: bool,
    ) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            id,
            parent,
            job,
            name,
            start,
            end,
            synthesized,
        });
        id
    }

    /// The recorded spans, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes the spans to `path`, one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"job\":{},\"name\":\"{}\",\"start_us\":{},\"end_us\":{},\"synthesized\":{}}}",
                s.id,
                parent,
                s.job,
                s.name,
                s.start.as_micros(),
                s.end.as_micros(),
                s.synthesized
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spinning_dataflows::spinning_core::prelude::IterationStats;

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut tracer = Tracer::new(false);
        let id = tracer.open("x", None, 0);
        tracer.close(id);
        assert_eq!(tracer.time("y", None, 0, || 7), 7);
        assert!(tracer.spans().is_empty());
    }

    #[test]
    fn synthesized_iterations_end_with_their_parent() {
        let mut tracer = Tracer::new(true);
        let job = tracer.open("job", None, 3);
        std::thread::sleep(Duration::from_millis(5));
        tracer.close(job);
        let stats = IterationRunStats {
            per_iteration: (1..=3)
                .map(|i| IterationStats {
                    elapsed: Duration::from_micros(1000),
                    ..IterationStats::for_iteration(i)
                })
                .collect(),
            total_elapsed: Duration::from_millis(5),
        };
        tracer.synthesize_iterations(job, "superstep", &stats);
        let spans = tracer.spans();
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[1].name, "superstep.3");
        assert_eq!(spans[1].end, spans[0].end);
        assert_eq!(spans[3].end, spans[2].start);
        assert!(spans[1..]
            .iter()
            .all(|s| s.parent == Some(job) && s.job == 3));
    }
}
