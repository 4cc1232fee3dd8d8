//! Operation tallies, metrics and the result line.

use crate::names;
use std::collections::BTreeMap;

/// Attempted / succeeded / failed counts of one command.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Operations sent or started in the timed phase.
    pub attempted: u64,
    /// Operations that returned a correct result.
    pub succeeded: u64,
    /// Operations that errored, were refused, or returned a wrong result.
    pub failed: u64,
}

/// Everything one run reports.
#[derive(Debug, Default)]
pub struct Report {
    ops: BTreeMap<&'static str, Tally>,
    metrics: BTreeMap<&'static str, f64>,
    info: Vec<(String, String)>,
    /// Failures found outside the timed operations (e.g. a precomputed
    /// expectation that breaks a guarantee).
    gate_failures: u64,
}

impl Report {
    /// Count one operation of `command`.
    pub fn record(&mut self, command: &'static str, ok: bool) {
        let tally = self.ops.entry(command).or_default();
        tally.attempted += 1;
        if ok {
            tally.succeeded += 1;
        } else {
            tally.failed += 1;
        }
    }

    /// Count a correctness failure that is not tied to one operation.
    pub fn gate_failure(&mut self, what: &str) {
        eprintln!("perfbench: correctness gate failed: {what}");
        self.gate_failures += 1;
    }

    /// Set a metric declared in [`names`].
    pub fn metric(&mut self, name: &'static str, value: f64) {
        assert!(names::unit_of(name).is_some(), "metric {name} is not declared in names.rs");
        self.metrics.insert(name, if value.is_finite() { value } else { 0.0 });
    }

    /// Attach a descriptive field (a JSON value) printed before the result.
    pub fn info(&mut self, key: &str, json_value: String) {
        self.info.push((key.to_string(), json_value));
    }

    /// Totals over every command.
    pub fn totals(&self) -> Tally {
        let mut total = Tally { failed: self.gate_failures, ..Tally::default() };
        for t in self.ops.values() {
            total.attempted += t.attempted;
            total.succeeded += t.succeeded;
            total.failed += t.failed;
        }
        total
    }

    /// True when nothing failed and at least one operation ran.
    pub fn correct(&self) -> bool {
        let t = self.totals();
        t.failed == 0 && t.attempted > 0
    }

    /// The descriptive lines: inputs, per-command tallies, extra figures.
    pub fn info_lines(&self) -> Vec<String> {
        let ops: Vec<String> = self
            .ops
            .iter()
            .map(|(cmd, t)| {
                format!(
                    "\"{cmd}\":{{\"attempted\":{},\"succeeded\":{},\"failed\":{}}}",
                    t.attempted, t.succeeded, t.failed
                )
            })
            .collect();
        let mut lines = vec![format!("# ops {{{}}}", ops.join(","))];
        lines.extend(self.info.iter().map(|(k, v)| format!("# {k} {v}")));
        lines
    }

    /// The result line: the metrics of the mode (`trace` selects the
    /// per-layer set), in declaration order.
    pub fn result_line(&self, trace: bool) -> String {
        let declared: &[(&str, &str)] = if trace { &names::PER_LAYER } else { &names::END_TO_END };
        let metrics: Vec<String> = declared
            .iter()
            .map(|(name, unit)| {
                let value = self.metrics.get(name).copied().unwrap_or(0.0);
                format!("\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}", json_number(value))
            })
            .collect();
        let t = self.totals();
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.correct(),
            t.attempted.max(1),
            t.failed,
            metrics.join(",")
        )
    }
}

/// A finite float as a JSON number with every digit Rust keeps.
fn json_number(value: f64) -> String {
    let text = format!("{value:?}");
    if text.contains('e') || text.contains('.') {
        text
    } else {
        format!("{text}.0")
    }
}
