//! Self-tests of the benchmark: tiny-scale runs of every workload.

use perfbench::workload::{Job, Workload};
use perfbench::{out_dir, run, Options, MIN_PASSES};

/// A scale that shrinks every profile to its 64-vertex minimum or close.
const TINY: u64 = 1 << 20;

fn tiny(workload: Workload, trace: bool, tag: &str) -> Options {
    Options {
        workload,
        seed: 7,
        seconds: 0,
        trace,
        scale: TINY,
        work_dir: out_dir().join(format!("test-{tag}-{}", workload.name())),
        corrupt: None,
    }
}

/// `(name, unit)` of every metric `BENCHMARK.json` lists in `section`
/// (`end_to_end` or `per_layer`); the file keeps one metric per line.
fn declared(section: &str) -> Vec<(String, String)> {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let start = text
        .find(&format!("\"{section}\""))
        .expect("section present");
    let body = &text[start..];
    let end = body.find(']').expect("section closes");
    let field = |line: &str, key: &str| {
        let tail = &line[line.find(&format!("\"{key}\": \"")).expect("field") + key.len() + 5..];
        tail[..tail.find('"').expect("closing quote")].to_owned()
    };
    body[..end]
        .lines()
        .filter(|line| line.contains("\"name\""))
        .map(|line| (field(line, "name"), field(line, "unit")))
        .collect()
}

#[test]
fn every_workload_prints_every_declared_metric_with_its_unit() {
    for workload in Workload::ALL {
        for (trace, section) in [(false, "end_to_end"), (true, "per_layer")] {
            let options = tiny(workload, trace, "smoke");
            let mut log = Vec::new();
            let outcome = run(&options, &mut log).expect("tiny run completes");
            let log = String::from_utf8(log).expect("utf-8 report");
            let _ = std::fs::remove_dir_all(&options.work_dir);
            assert_eq!(outcome.failed, 0, "{}: {log}", workload.name());
            assert_eq!(
                outcome.attempted,
                (MIN_PASSES * (1 + usize::from(trace)) + 1) * workload.pass().len()
                    + if trace { 2 } else { 0 },
                "{}: {log}",
                workload.name()
            );
            assert!(log.contains("failed_frac: 0 of"));
            let declared = declared(section);
            let printed: Vec<(String, String)> = outcome
                .metrics
                .iter()
                .map(|m| (m.name.clone(), m.unit.to_owned()))
                .collect();
            assert_eq!(printed, declared, "{} trace={trace}", workload.name());
            let json = outcome.json_line();
            for m in &outcome.metrics {
                assert!(log.contains(&format!("metric {} = {} {}\n", m.name, m.value, m.unit)));
                assert!(json.contains(&format!("\"{}\": {{\"value\": ", m.name)));
                assert!(m.value.is_finite());
            }
            if !trace {
                assert!(outcome.metrics.iter().all(|m| m.value > 0.0), "{log}");
            }
        }
    }
}

#[test]
fn a_corrupted_result_counts_as_a_failure_and_the_run_goes_on() {
    for (workload, job) in [
        (Workload::LongtailWebbase, Job::Sssp),
        (Workload::DenseTwitter, Job::PagerankPartition),
        (Workload::LongtailWebbase, Job::CcCluster),
    ] {
        let options = Options {
            corrupt: Some(job),
            ..tiny(workload, false, "corrupt")
        };
        let mut log = Vec::new();
        let outcome = run(&options, &mut log).expect("a wrong output does not abort the run");
        let log = String::from_utf8(log).expect("utf-8 report");
        let _ = std::fs::remove_dir_all(&options.work_dir);
        let passes = MIN_PASSES + 1;
        assert_eq!(outcome.attempted, passes * workload.pass().len(), "{log}");
        assert_eq!(outcome.failed, passes, "{log}");
        assert_eq!(
            log.matches(&format!("FAILED {}: wrong output", job.name()))
                .count(),
            passes,
            "{log}"
        );
        assert!(outcome.json_line().starts_with("{\"correct\": false,"));
        assert!(outcome.metric("cpu_s").is_some_and(|m| m.value > 0.0));
    }
}
