//! Metric collection and the final result line.

use crate::check::Checker;

/// Named metrics with units, in report order.
#[derive(Debug, Default)]
pub struct Metrics {
    rows: Vec<(String, f64, &'static str)>,
}

impl Metrics {
    /// Adds a metric. Names are unique; a non-finite value is reported
    /// as 0 so the line stays valid JSON.
    pub fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let name = name.into();
        debug_assert!(
            self.rows.iter().all(|(n, _, _)| *n != name),
            "duplicate metric {name}"
        );
        let value = if value.is_finite() { value } else { 0.0 };
        self.rows.push((name, value, unit));
    }
}

/// Median of a sample (the upper median for even sizes); 0 when empty.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v[v.len() / 2]
}

/// The final stdout line: `correct`, `attempted`, `failed`, `metrics`.
pub fn result_line(chk: &Checker, m: &Metrics) -> String {
    let metrics: Vec<String> = m
        .rows
        .iter()
        .map(|(n, v, u)| format!("\"{n}\": {{\"value\": {v}, \"unit\": \"{u}\"}}"))
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        chk.failed() == 0 && chk.attempted() > 0,
        chk.attempted().max(1),
        chk.failed(),
        metrics.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 3.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn result_line_has_the_four_keys() {
        let mut chk = Checker::default();
        chk.record(true, String::new);
        let mut m = Metrics::default();
        m.push("wall_s", 1.25, "s");
        let line = result_line(&chk, &m);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": \
             {\"wall_s\": {\"value\": 1.25, \"unit\": \"s\"}}}"
        );
    }
}
