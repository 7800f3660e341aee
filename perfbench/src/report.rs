//! The benchmark's output: named metrics with units, the result line and
//! the run record.

use serde::{Serialize, Value};

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

impl Metric {
    /// A metric.
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
        Metric { name: name.into(), value, unit }
    }
}

fn entry(key: &str, value: impl Serialize) -> (String, Value) {
    (key.to_string(), value.serialize())
}

/// The result line: `{"correct", "attempted", "failed", "metrics"}`.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let metrics = metrics
        .iter()
        .map(|m| (m.name.clone(), Value::Map(vec![entry("value", m.value), entry("unit", m.unit)])))
        .collect();
    serde::json::to_string(&Value::Map(vec![
        entry("correct", correct),
        entry("attempted", attempted),
        entry("failed", failed),
        ("metrics".to_string(), Value::Map(metrics)),
    ]))
}

/// The run record: a JSON object whose fields keep the order they were
/// added in.
#[derive(Debug, Default)]
pub struct Record {
    fields: Vec<(String, Value)>,
}

impl Record {
    /// Adds a field.
    pub fn field(&mut self, key: &str, value: impl Serialize) -> &mut Self {
        self.fields.push(entry(key, value));
        self
    }

    /// The object as one JSON line.
    pub fn render(&self) -> String {
        serde::json::to_string(&Value::Map(self.fields.clone()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_the_contract_shape() {
        let line = result_line(true, 3, 0, &[Metric::new("pass_s.p50", 0.1234567890123, "s")]);
        assert_eq!(
            line,
            "{\"correct\":true,\"attempted\":3,\"failed\":0,\"metrics\":\
             {\"pass_s.p50\":{\"value\":0.1234567890123,\"unit\":\"s\"}}}"
        );
    }

    #[test]
    fn record_keeps_field_order() {
        let mut r = Record::default();
        r.field("seed", 7u64).field("engine", vec!["NMNIST:packed".to_string()]);
        r.field("pass_s", [1.0, 2.5].as_slice());
        assert_eq!(r.render(), "{\"seed\":7,\"engine\":[\"NMNIST:packed\"],\"pass_s\":[1,2.5]}");
    }
}
