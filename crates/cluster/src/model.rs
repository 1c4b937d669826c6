//! Cost-model parameters.
//!
//! All `*_cost` fields are **core-seconds per byte**. The paper-calibrated
//! defaults were fitted against the resource-usage numbers the paper reports
//! (see the doc comments per field); [`CostModel::calibrated`] instead
//! derives the filter/parse costs from *measured* throughput of this repo's
//! own storlet and CSV-parse code, preserving the testbed's core counts.


/// Per-byte and fixed costs of the pipeline stages.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostModel {
    /// Storage-side cost to read + serve one raw byte (core-s/B). Fitted to
    /// the paper's plain-Swift storage CPU of ~1.25% while serving ~1.25 GB/s
    /// across 29×24 cores.
    pub scan_cost: f64,
    /// Storage-side storlet filtering cost per raw byte (core-s/B). With the
    /// core fraction below, caps pushdown throughput near the paper's
    /// observed ~31× maximum speedup.
    pub filter_cost: f64,
    /// Fraction of storage cores the storlet sandbox may use (Docker cgroup
    /// limits in the original; the paper measured 23.5% average storage CPU
    /// when pushing down on the 3 TB dataset).
    pub storlet_core_fraction: f64,
    /// Compute-side CSV parse cost per transferred byte (core-s/B). Spark
    /// 1.6-era CSV parsing ran at some tens of MB/s per core.
    pub parse_cost: f64,
    /// Compute-side SQL processing cost per post-filter byte (core-s/B).
    pub process_cost: f64,
    /// Compute-side columnar decode cost per compressed byte (core-s/B).
    pub decode_cost: f64,
    /// Fixed job cost (scheduling, stage setup) in seconds.
    pub job_startup: f64,
    /// Fixed storlet cost per object request in seconds (sandbox dispatch).
    pub storlet_invocation_overhead: f64,
    /// JVM / executor baseline memory use as a fraction of node RAM.
    pub mem_base_fraction: f64,
    /// Additional memory fraction when buffering full raw partitions
    /// (vanilla ingestion); pushdown scales this by the transfer ratio.
    pub mem_buffer_fraction: f64,
}

impl CostModel {
    /// Defaults fitted to the paper's testbed observations.
    pub fn paper_default() -> CostModel {
        CostModel {
            // 1.25% of 696 cores serving 1.25 GB/s → ~7e-9 core-s/B.
            scan_cost: 7.0e-9,
            // 174 storlet cores saturating at ~39 GB/s → 4.5e-9 core-s/B.
            filter_cost: 4.5e-9,
            storlet_core_fraction: 0.25,
            // parse+process ≈ 1.5e-8 core-s/B reproduces the 3.1% compute
            // CPU while ingesting at link speed.
            parse_cost: 1.0e-8,
            process_cost: 0.5e-8,
            decode_cost: 0.7e-8,
            job_startup: 3.0,
            storlet_invocation_overhead: 0.02,
            mem_base_fraction: 0.40,
            mem_buffer_fraction: 0.15,
        }
    }

    /// Derive filter/parse costs from measured single-core throughputs
    /// (bytes/second) of this repo's own implementations, keeping everything
    /// else from the paper-fitted defaults.
    pub fn calibrated(filter_bytes_per_sec: f64, parse_bytes_per_sec: f64) -> CostModel {
        let mut m = CostModel::paper_default();
        if filter_bytes_per_sec > 0.0 {
            m.filter_cost = 1.0 / filter_bytes_per_sec;
        }
        if parse_bytes_per_sec > 0.0 {
            m.parse_cost = 1.0 / parse_bytes_per_sec;
        }
        m
    }
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel::paper_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_positive_and_sane() {
        let m = CostModel::paper_default();
        assert!(m.scan_cost > 0.0 && m.scan_cost < 1e-6);
        assert!(m.filter_cost > 0.0);
        assert!(m.storlet_core_fraction > 0.0 && m.storlet_core_fraction <= 1.0);
        assert!(m.job_startup > 0.0);
        // parse+process consistent with ~3% compute CPU at link speed:
        // 1.25e9 B/s × cost ≈ 18 cores of 600.
        let cores = 1.25e9 * (m.parse_cost + m.process_cost);
        assert!((10.0..30.0).contains(&cores), "{cores}");
    }

    #[test]
    fn calibration_overrides_throughputs() {
        let m = CostModel::calibrated(200e6, 50e6);
        assert!((m.filter_cost - 5e-9).abs() < 1e-12);
        assert!((m.parse_cost - 2e-8).abs() < 1e-12);
        // Zero measurements leave defaults.
        let d = CostModel::calibrated(0.0, 0.0);
        assert_eq!(d, CostModel::paper_default());
    }
}
