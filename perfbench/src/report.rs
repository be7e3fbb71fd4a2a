//! A run's result: the failure tally plus named metrics with units, and
//! the one-line JSON form the benchmark prints last.

use crate::stats::Tally;

/// Everything one workload run reports.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted/failed and output-check failures.
    pub tally: Tally,
    metrics: Vec<(String, f64, &'static str)>,
}

impl Report {
    /// Adds (or replaces) a metric. A value that is not finite is an
    /// estimator failure and fails the run's checks.
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let name = name.into();
        self.tally.check(value.is_finite(), || {
            format!("metric {name} is not finite: {value}")
        });
        let value = if value.is_finite() { value } else { 0.0 };
        self.metrics.retain(|m| m.0 != name);
        self.metrics.push((name, value, unit));
    }

    /// A metric's value, if reported.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|m| m.0 == name).map(|m| m.1)
    }

    /// The metrics, in the order they were reported.
    pub fn metrics(&self) -> &[(String, f64, &'static str)] {
        &self.metrics
    }

    /// Keeps only the named metrics, in the given order.
    pub fn select(&mut self, names: &[(&str, &'static str)]) {
        let mut kept = Vec::with_capacity(names.len());
        for (n, unit) in names {
            let v = self.get(n);
            self.tally
                .check(v.is_some(), || format!("metric {n} was not measured"));
            kept.push(((*n).to_string(), v.unwrap_or(0.0), *unit));
        }
        self.metrics = kept;
    }

    /// The contract's last line: `correct`, `attempted`, `failed`,
    /// `metrics`.
    pub fn json(&self) -> String {
        let body: Vec<String> = self
            .metrics
            .iter()
            .map(|(n, v, u)| format!("\"{n}\": {{\"value\": {v:?}, \"unit\": \"{u}\"}}"))
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.tally.correct(),
            self.tally.attempted,
            self.tally.failed,
            body.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_has_the_contract_shape() {
        let mut r = Report::default();
        r.tally.attempted = 3;
        r.put("ops_per_s", 1234.5, "1/s");
        r.put("setup_s", 0.25, "s");
        assert_eq!(
            r.json(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"ops_per_s\": {\"value\": 1234.5, \"unit\": \"1/s\"}, \
             \"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}}}"
        );
    }

    #[test]
    fn a_missing_or_non_finite_metric_fails_the_run() {
        let mut r = Report::default();
        r.tally.attempted = 1;
        r.put("a", f64::NAN, "s");
        assert!(!r.tally.correct());
        let mut r = Report::default();
        r.tally.attempted = 1;
        r.put("a", 1.0, "s");
        r.select(&[("a", "s"), ("b", "s")]);
        assert!(!r.tally.correct());
        assert_eq!(r.metrics().len(), 2);
    }
}
