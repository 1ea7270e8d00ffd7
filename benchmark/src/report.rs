//! What a run prints: human-readable notes, then `ops`/`ops_failed` and
//! every metric by name with its unit, then one JSON result line.

use std::collections::BTreeMap;

use crate::json::{number, Value};
use crate::stats::{failure_ratio, Timing};

/// The metrics and operation counts of one run.
#[derive(Debug, Default)]
pub struct Report {
    attempted: u64,
    failed: u64,
    notes: Vec<String>,
    metrics: BTreeMap<String, (f64, String)>,
}

impl Report {
    /// Count one operation.
    pub fn attempt(&mut self) {
        self.attempted += 1;
    }

    /// Mark one attempted operation failed (the reason is already noted).
    pub fn failed(&mut self) {
        self.failed += 1;
    }

    /// Mark one attempted operation failed, noting why.
    pub fn fail(&mut self, why: impl std::fmt::Display) {
        self.failed += 1;
        self.note(format!("FAIL {why}"));
    }

    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    pub fn metric(&mut self, name: &str, value: f64, unit: &str) {
        self.metrics
            .insert(name.to_string(), (value, unit.to_string()));
    }

    /// Report a timing's median as metric `name`, and note its tail
    /// percentile and sample count.
    pub fn timing(&mut self, name: &str, unit: &str, samples: &[f64]) {
        let t = Timing::of(samples);
        self.note(t.describe(name, unit));
        self.metric(name, t.median, unit);
    }

    /// Render the output lines; the last is the JSON result.  `expected`
    /// lists every metric this mode must print, with its unit and whether
    /// it must be nonzero.  Metrics a workload does not exercise print as
    /// 0; a missing or zero metric that must be nonzero makes the run
    /// incorrect.
    pub fn render(mut self, expected: &[(String, &'static str, bool)]) -> Vec<String> {
        let mut correct = self.failed == 0 && self.attempted > 0;
        let mut metrics = BTreeMap::new();
        let mut lines = std::mem::take(&mut self.notes);
        for (name, unit, nonzero) in expected {
            let value = match self.metrics.remove(name.as_str()) {
                Some((v, u)) if u == *unit && v.is_finite() => v,
                Some((_, u)) if u != *unit => {
                    lines.push(format!(
                        "FAIL metric {name} measured in {u}, declared in {unit}"
                    ));
                    correct = false;
                    0.0
                }
                _ => 0.0,
            };
            if *nonzero && value == 0.0 {
                lines.push(format!("FAIL metric {name} was not measured"));
                correct = false;
            }
            lines.push(format!("metric {name} {} {unit}", number(value)));
            let mut m = BTreeMap::new();
            m.insert("value".to_string(), Value::Num(value));
            m.insert("unit".to_string(), Value::Str(unit.to_string()));
            metrics.insert(name.clone(), Value::Obj(m));
        }
        for name in self.metrics.keys() {
            lines.push(format!(
                "FAIL metric {name} is not declared in BENCHMARK.json"
            ));
            correct = false;
        }
        lines.push(format!("ops {}", self.attempted));
        lines.push(format!("ops_failed {}", self.failed));
        lines.push(format!(
            "failure_ratio {}",
            number(failure_ratio(self.attempted, self.failed))
        ));
        let mut out = BTreeMap::new();
        out.insert("correct".to_string(), Value::Bool(correct));
        out.insert(
            "attempted".to_string(),
            Value::Num(self.attempted.max(1) as f64),
        );
        out.insert("failed".to_string(), Value::Num(self.failed as f64));
        out.insert("metrics".to_string(), Value::Obj(metrics));
        lines.push(Value::Obj(out).render());
        lines
    }
}

/// The process's high-water resident set in MB, from `/proc/self/status`.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;

    #[test]
    fn result_line_carries_counts_and_every_expected_metric() {
        let mut r = Report::default();
        r.attempt();
        r.attempt();
        r.fail("one job diverged");
        r.metric("a", 1.5, "s");
        let expected = vec![
            ("a".to_string(), "s", true),
            ("b".to_string(), "ns/op", false),
        ];
        let lines = r.render(&expected);
        let v = parse(lines.last().unwrap()).unwrap();
        assert_eq!(v.num("attempted"), Some(2.0));
        assert_eq!(v.num("failed"), Some(1.0));
        assert_eq!(v.bool("correct"), Some(false), "a failed operation");
        let m = v.get("metrics").unwrap();
        assert_eq!(m.get("a").unwrap().num("value"), Some(1.5));
        assert_eq!(m.get("b").unwrap().str("unit"), Some("ns/op"));
        assert!(lines.contains(&"ops_failed 1".to_string()));
    }

    #[test]
    fn missing_or_undeclared_metrics_make_the_run_incorrect() {
        let correct = |metric: &str| {
            let mut r = Report::default();
            r.attempt();
            r.metric(metric, 2.0, "s");
            let lines = r.render(&[("a".to_string(), "s", true)]);
            parse(lines.last().unwrap()).unwrap().bool("correct")
        };
        assert_eq!(correct("extra"), Some(false));
        assert_eq!(correct("a"), Some(true));
    }
}
