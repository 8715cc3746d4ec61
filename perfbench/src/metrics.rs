//! Named metrics and the benchmark's one-line JSON result.
//!
//! A metric name may be reported once per run. [`Metrics::put`] refuses a
//! second value under a name already present, so a result can never carry
//! two rows for one quantity.

use std::fmt;

/// A refused metric: its name is already taken, or its value is not a
/// finite number.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MetricError {
    /// The name was reported before in this run.
    Duplicate(String),
    /// The value is NaN or infinite, which JSON cannot carry.
    NotFinite(String),
}

impl fmt::Display for MetricError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MetricError::Duplicate(name) => write!(f, "metric `{name}` reported twice"),
            MetricError::NotFinite(name) => write!(f, "metric `{name}` is not a finite number"),
        }
    }
}

impl std::error::Error for MetricError {}

/// An ordered set of named metrics, each with a value and a unit.
#[derive(Clone, Debug, Default)]
pub struct Metrics {
    entries: Vec<(String, f64, &'static str)>,
}

impl Metrics {
    /// Adds one metric, refusing a name already present.
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) -> Result<(), MetricError> {
        if self.get(name).is_some() {
            return Err(MetricError::Duplicate(name.to_string()));
        }
        if !value.is_finite() {
            return Err(MetricError::NotFinite(name.to_string()));
        }
        self.entries.push((name.to_string(), value, unit));
        Ok(())
    }

    /// The value reported under `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.entries
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|(_, v, _)| *v)
    }

    /// The metric names, in the order they were added.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.entries.iter().map(|(n, _, _)| n.as_str())
    }

    /// The metrics as a JSON object: `{"name": {"value": v, "unit": "u"}}`.
    /// Values are printed with every digit Rust's shortest round-trip
    /// formatting gives.
    pub fn to_json(&self) -> String {
        let body: Vec<String> = self
            .entries
            .iter()
            .map(|(n, v, u)| {
                format!(
                    "\"{n}\": {{\"value\": {}, \"unit\": \"{u}\"}}",
                    json_f64(*v)
                )
            })
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

/// A finite `f64` as a JSON number (Rust's `Display` never uses an
/// exponent, but prints integral values without a fraction).
pub fn json_f64(v: f64) -> String {
    let s = v.to_string();
    if s.contains('.') {
        s
    } else {
        format!("{s}.0")
    }
}

/// The benchmark's result line.
pub fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        metrics.to_json()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_duplicate_name_is_refused() {
        let mut m = Metrics::default();
        m.put("jobs_per_s", 1.0, "1/s").expect("first use");
        assert_eq!(
            m.put("jobs_per_s", 2.0, "1/s"),
            Err(MetricError::Duplicate("jobs_per_s".into()))
        );
        assert_eq!(m.get("jobs_per_s"), Some(1.0));
    }

    #[test]
    fn non_finite_values_are_refused() {
        let mut m = Metrics::default();
        assert!(m.put("x", f64::NAN, "s").is_err());
        assert!(m.put("y", f64::INFINITY, "s").is_err());
        assert_eq!(m.names().count(), 0);
    }

    #[test]
    fn the_result_line_is_one_json_object() {
        let mut m = Metrics::default();
        m.put("latency_ms", 1.25, "ms").expect("fresh");
        m.put("setup_s", 3.0, "s").expect("fresh");
        assert_eq!(
            result_json(true, 10, 0, &m),
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": \
             {\"latency_ms\": {\"value\": 1.25, \"unit\": \"ms\"}, \
             \"setup_s\": {\"value\": 3.0, \"unit\": \"s\"}}}"
        );
    }
}
