//! Metrics and the result line.

/// One named metric with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// The metric's name as `BENCHMARK.json` lists it.
    pub name: String,
    /// The measured value.
    pub value: f64,
    /// Its unit (`s`, `ms`, `count`, ...).
    pub unit: &'static str,
}

impl Metric {
    /// A metric; non-finite values (an empty ratio) read 0.
    pub fn new(name: &str, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.to_owned(),
            value: if value.is_finite() { value } else { 0.0 },
            unit,
        }
    }
}

/// What a run reports.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// End-to-end metrics (untraced run) or per-layer metrics (traced run).
    pub metrics: Vec<Metric>,
    /// Job runs attempted, warm-up included.
    pub attempted: usize,
    /// Job runs that errored, panicked or gave a wrong output.
    pub failed: usize,
}

impl Outcome {
    /// The metric named `name`.
    pub fn metric(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }

    /// The one-line JSON result: `correct`, `attempted`, `failed` and
    /// `metrics` (name → value and unit).
    pub fn json_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_line_carries_every_metric_with_its_unit() {
        let outcome = Outcome {
            metrics: vec![
                Metric::new("setup_s", 0.25, "s"),
                Metric::new("ratio", f64::NAN, "ratio"),
                Metric::new("count", 3.0, "count"),
            ],
            attempted: 4,
            failed: 1,
        };
        assert_eq!(
            outcome.json_line(),
            "{\"correct\": false, \"attempted\": 4, \"failed\": 1, \"metrics\": {\
             \"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}, \
             \"ratio\": {\"value\": 0.0, \"unit\": \"ratio\"}, \
             \"count\": {\"value\": 3.0, \"unit\": \"count\"}}}"
        );
    }
}
