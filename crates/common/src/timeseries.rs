//! collectd-like metric recording.
//!
//! The paper instruments all 63 machines with collectd to produce the resource
//! usage figures (Figs. 9 and 10). The cluster simulator records equivalent
//! time series per node group (Spark workers, Swift proxies, Swift storage
//! nodes, load balancer) through this module.

use std::collections::BTreeMap;

/// A single (time, value) series with monotone non-decreasing timestamps.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TimeSeries {
    /// Sample timestamps in seconds since the start of the experiment.
    pub t: Vec<f64>,
    /// Sample values (unit depends on the metric: %, bytes/s, bytes, ...).
    pub v: Vec<f64>,
}

impl TimeSeries {
    /// Create an empty series.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append a sample. Panics in debug builds if time goes backwards.
    pub fn push(&mut self, t: f64, v: f64) {
        debug_assert!(
            self.t.last().is_none_or(|&last| t >= last),
            "time went backwards: {t} after {:?}",
            self.t.last()
        );
        self.t.push(t);
        self.v.push(v);
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.t.len()
    }

    /// True when the series holds no samples.
    pub fn is_empty(&self) -> bool {
        self.t.is_empty()
    }

    /// Arithmetic mean of sample values (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.v.is_empty() {
            0.0
        } else {
            self.v.iter().sum::<f64>() / self.v.len() as f64
        }
    }

    /// Mean over only the samples within `[t0, t1]`.
    pub fn mean_between(&self, t0: f64, t1: f64) -> f64 {
        let mut sum = 0.0;
        let mut n = 0usize;
        for (t, v) in self.t.iter().zip(&self.v) {
            if (t0..=t1).contains(t) {
                sum += v;
                n += 1;
            }
        }
        if n == 0 {
            0.0
        } else {
            sum / n as f64
        }
    }

    /// Maximum sample value (0 when empty).
    pub fn max(&self) -> f64 {
        self.v.iter().copied().fold(0.0, f64::max)
    }

    /// Trapezoidal integral of the series — e.g. CPU% integrated over time
    /// yields "CPU cycles consumed" as the paper reports (−97.8% for Scoop).
    pub fn integral(&self) -> f64 {
        let mut acc = 0.0;
        for i in 1..self.t.len() {
            let dt = self.t[i] - self.t[i - 1];
            acc += dt * (self.v[i] + self.v[i - 1]) / 2.0;
        }
        acc
    }

    /// Duration for which the value stays at or above `threshold`
    /// (sum of sample intervals whose left endpoint qualifies).
    pub fn time_above(&self, threshold: f64) -> f64 {
        let mut acc = 0.0;
        for i in 1..self.t.len() {
            if self.v[i - 1] >= threshold {
                acc += self.t[i] - self.t[i - 1];
            }
        }
        acc
    }

    /// Last timestamp (0 when empty).
    pub fn end_time(&self) -> f64 {
        self.t.last().copied().unwrap_or(0.0)
    }
}

/// A named collection of time series, keyed by `(node_group, metric)`.
///
/// Mirrors how collectd tags samples with host + plugin; we aggregate per node
/// group because the figures report group averages.
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    series: BTreeMap<(String, String), TimeSeries>,
}

impl MetricsRegistry {
    /// Create an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record a sample for `(group, metric)` at time `t`.
    pub fn record(&mut self, group: &str, metric: &str, t: f64, v: f64) {
        self.series
            .entry((group.to_string(), metric.to_string()))
            .or_default()
            .push(t, v);
    }

    /// Fetch a series if present.
    pub fn get(&self, group: &str, metric: &str) -> Option<&TimeSeries> {
        self.series.get(&(group.to_string(), metric.to_string()))
    }

    /// Fetch a series, returning an empty one if absent.
    pub fn get_or_empty(&self, group: &str, metric: &str) -> TimeSeries {
        self.get(group, metric).cloned().unwrap_or_default()
    }

    /// Iterate over all `(group, metric)` keys.
    pub fn keys(&self) -> impl Iterator<Item = (&str, &str)> {
        self.series.keys().map(|(g, m)| (g.as_str(), m.as_str()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn series(samples: &[(f64, f64)]) -> TimeSeries {
        let mut s = TimeSeries::new();
        for &(t, v) in samples {
            s.push(t, v);
        }
        s
    }

    #[test]
    fn mean_and_max() {
        let s = series(&[(0.0, 1.0), (1.0, 3.0), (2.0, 2.0)]);
        assert_eq!(s.mean(), 2.0);
        assert_eq!(s.max(), 3.0);
        assert!(TimeSeries::new().is_empty());
        assert_eq!(TimeSeries::new().mean(), 0.0);
    }

    #[test]
    fn integral_is_trapezoidal() {
        // A constant 2.0 over 10 s integrates to 20.
        let s = series(&[(0.0, 2.0), (10.0, 2.0)]);
        assert_eq!(s.integral(), 20.0);
        // A ramp 0→10 over 10 s integrates to 50.
        let ramp = series(&[(0.0, 0.0), (10.0, 10.0)]);
        assert_eq!(ramp.integral(), 50.0);
    }

    #[test]
    fn time_above_counts_intervals() {
        let s = series(&[(0.0, 5.0), (10.0, 5.0), (20.0, 1.0), (30.0, 1.0)]);
        assert_eq!(s.time_above(4.0), 20.0);
        assert_eq!(s.time_above(0.5), 30.0);
        assert_eq!(s.time_above(9.0), 0.0);
    }

    #[test]
    fn mean_between_window() {
        let s = series(&[(0.0, 10.0), (5.0, 20.0), (10.0, 30.0)]);
        assert_eq!(s.mean_between(4.0, 10.0), 25.0);
        assert_eq!(s.mean_between(100.0, 200.0), 0.0);
    }

    #[test]
    fn registry_roundtrip() {
        let mut reg = MetricsRegistry::new();
        reg.record("spark_workers", "cpu_pct", 0.0, 3.1);
        reg.record("spark_workers", "cpu_pct", 1.0, 3.0);
        reg.record("storage_nodes", "cpu_pct", 0.0, 1.25);
        assert_eq!(reg.get("spark_workers", "cpu_pct").unwrap().len(), 2);
        assert!(reg.get("nope", "cpu_pct").is_none());
        assert_eq!(reg.keys().count(), 2);
        assert!(reg.get_or_empty("nope", "x").is_empty());
    }
}
