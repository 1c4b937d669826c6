//! The fluid pipeline simulation.

use crate::model::CostModel;
use crate::topology::Topology;
use scoop_common::timeseries::MetricsRegistry;

/// Execution arm being simulated.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SimMode {
    /// Ingest-then-compute: every raw byte crosses the inter-cluster link.
    Vanilla,
    /// Scoop pushdown: the store filters; only surviving bytes transfer.
    Pushdown,
    /// Columnar baseline: compressed transfer; selection (and, in the
    /// paper-faithful arm, column discard) at the compute side.
    Columnar {
        /// Transferred fraction of the raw dataset. The paper's Parquet arm
        /// ingests the whole compressed file (compression ratio only); the
        /// range-pruned extension multiplies in the kept-column share.
        transfer_ratio: f64,
        /// Fraction of raw bytes materialized at compute after decoding
        /// (1.0 when Spark decodes everything and discards columns itself).
        decoded_ratio: f64,
    },
}

/// One query execution to simulate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimJob {
    /// Raw (CSV) dataset bytes scanned by the query.
    pub dataset_bytes: u64,
    /// Fraction of raw bytes the query discards (Table I "data selectivity").
    pub data_selectivity: f64,
    /// Execution arm.
    pub mode: SimMode,
    /// Number of tasks / object requests (partition count).
    pub tasks: usize,
}

/// Which constraint bound the pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Bottleneck {
    /// The inter-cluster load-balancer link.
    Network,
    /// Storage-node CPU (scan + storlet filtering).
    StorageCpu,
    /// Compute-node CPU (parse + SQL processing).
    ComputeCpu,
}

/// Simulation output.
#[derive(Debug, Clone)]
pub struct SimReport {
    /// End-to-end query time in seconds (client-perceived, as the paper
    /// measures: ingestion + processing).
    pub duration: f64,
    /// Raw-byte processing rate at steady state (bytes/s).
    pub pipeline_rate: f64,
    /// Binding constraint at steady state.
    pub bottleneck: Bottleneck,
    /// Bytes that crossed the inter-cluster link.
    pub bytes_transferred: f64,
    /// Mean compute-cluster CPU utilization (percent of all compute cores).
    pub compute_cpu_pct: f64,
    /// Mean storage-cluster CPU utilization (percent).
    pub storage_cpu_pct: f64,
    /// Peak compute memory utilization (percent of compute RAM).
    pub compute_mem_pct: f64,
    /// Mean LB transmit rate during the transfer phase (bytes/s).
    pub lb_tx_rate: f64,
    /// collectd-like series: (group, metric) → samples.
    pub series: MetricsRegistry,
}

/// Simulate one query on a topology under a cost model.
///
/// ```
/// use scoop_cluster::{simulate::simulate, CostModel, SimJob, SimMode, Topology};
/// let job = SimJob {
///     dataset_bytes: 500_000_000_000,
///     data_selectivity: 0.9,
///     mode: SimMode::Pushdown,
///     tasks: 4000,
/// };
/// let report = simulate(&job, &Topology::osic(), &CostModel::paper_default());
/// assert!(report.duration > 0.0);
/// assert!(report.bytes_transferred < 100_000_000_000.0); // 90% filtered
/// ```
pub fn simulate(job: &SimJob, topology: &Topology, model: &CostModel) -> SimReport {
    let d = job.dataset_bytes as f64;
    let sel = job.data_selectivity.clamp(0.0, 1.0);

    // Per-raw-byte coefficients by mode.
    let (transfer_ratio, storage_cost, compute_cost) = match job.mode {
        SimMode::Vanilla => {
            let t = 1.0;
            let s = model.scan_cost;
            let c = t * model.parse_cost + t * model.process_cost;
            (t, s, c)
        }
        SimMode::Pushdown => {
            let t = 1.0 - sel;
            // "The storlet reads the data directly from disk" — filtering
            // subsumes the read; the proxy-serve cost applies only to the
            // (small) filtered output.
            let s = model.filter_cost + model.scan_cost * t;
            let c = t * model.parse_cost + t * model.process_cost;
            (t, s, c)
        }
        SimMode::Columnar { transfer_ratio, decoded_ratio } => {
            let t = transfer_ratio.clamp(0.0, 1.0);
            let dec = decoded_ratio.clamp(0.0, 1.0);
            let s = model.scan_cost * t; // only stored (compressed) bytes read
            // Decode compressed bytes, then assemble/discard/process the
            // decoded data (column discard is compute work in this arm).
            let c = t * model.decode_cost + dec * (model.parse_cost / 2.0 + model.process_cost);
            (t, s, c)
        }
    };

    // Capacity constraints (rates in raw bytes/second).
    let storlet_cores = topology.storage.total_cores()
        * if matches!(job.mode, SimMode::Pushdown) {
            model.storlet_core_fraction
        } else {
            1.0
        };
    let storage_rate = storlet_cores / storage_cost.max(1e-18);
    let network_rate = if transfer_ratio > 0.0 {
        topology.lb_bandwidth / transfer_ratio
    } else {
        f64::INFINITY
    };
    let proxy_rate = if transfer_ratio > 0.0 {
        topology.proxies.count as f64 * topology.proxy_bandwidth / transfer_ratio
    } else {
        f64::INFINITY
    };
    let compute_rate = topology.compute.total_cores() / compute_cost.max(1e-18);

    let (rate, bottleneck) = [
        (network_rate.min(proxy_rate), Bottleneck::Network),
        (storage_rate, Bottleneck::StorageCpu),
        (compute_rate, Bottleneck::ComputeCpu),
    ]
    .into_iter()
    .min_by(|a, b| a.0.partial_cmp(&b.0).expect("finite rates"))
    .expect("non-empty");

    // Fixed costs: job startup + storlet dispatch (amortized over the
    // request waves that fit the compute slots).
    let slots = topology.compute.total_cores().max(1.0);
    let waves = (job.tasks as f64 / slots).ceil().max(1.0);
    let overhead = model.job_startup
        + if matches!(job.mode, SimMode::Pushdown) {
            model.storlet_invocation_overhead * waves
        } else {
            0.0
        };
    let steady = d / rate.max(1.0);
    let duration = overhead + steady;

    // Utilizations at steady state.
    let compute_cpu_pct = 100.0 * (rate * compute_cost) / topology.compute.total_cores();
    let storage_cpu_pct = 100.0 * (rate * storage_cost) / topology.storage.total_cores();
    let lb_tx_rate = rate * transfer_ratio;
    let bytes_transferred = d * transfer_ratio;
    // Memory: executor baseline + buffering proportional to what is ingested.
    let compute_mem_pct =
        100.0 * (model.mem_base_fraction + model.mem_buffer_fraction * transfer_ratio);

    // collectd-like series: ramp over startup, steady plateau, short tail.
    let mut series = MetricsRegistry::new();
    let samples = 240usize;
    let dt = (duration / samples as f64).max(1e-6);
    for i in 0..=samples {
        let t = i as f64 * dt;
        // Activity envelope: 0 during startup ramp, 1 in steady state.
        let env = if t < overhead {
            (t / overhead.max(1e-9)) * 0.2
        } else if t > duration - dt {
            0.2
        } else {
            1.0
        };
        series.record("spark_workers", "cpu_pct", t, compute_cpu_pct * env);
        series.record("storage_nodes", "cpu_pct", t, storage_cpu_pct * env);
        series.record("spark_workers", "mem_pct", t, {
            // Memory ramps up during ingestion and stays until the job ends.
            let base = 100.0 * model.mem_base_fraction;
            if t < overhead {
                base
            } else {
                base + 100.0 * model.mem_buffer_fraction * transfer_ratio
            }
        });
        series.record("load_balancer", "tx_bytes_per_sec", t, lb_tx_rate * env);
        series.record(
            "swift_proxies",
            "tx_bytes_per_sec",
            t,
            lb_tx_rate * env / topology.proxies.count as f64,
        );
    }

    SimReport {
        duration,
        pipeline_rate: rate,
        bottleneck,
        bytes_transferred,
        compute_cpu_pct,
        storage_cpu_pct,
        compute_mem_pct,
        lb_tx_rate,
        series,
    }
}

/// Convenience: the paper's query speedup `S_Q = T_no_scoop / T_scoop`.
pub fn speedup(no_scoop: &SimReport, scoop: &SimReport) -> f64 {
    no_scoop.duration / scoop.duration
}

#[cfg(test)]
mod tests {
    use super::*;

    fn job(mode: SimMode, gb: u64, sel: f64) -> SimJob {
        SimJob {
            dataset_bytes: gb * 1_000_000_000,
            data_selectivity: sel,
            mode,
            tasks: (gb as usize) * 8, // 128 MB chunks
        }
    }

    fn run(mode: SimMode, gb: u64, sel: f64) -> SimReport {
        simulate(&job(mode, gb, sel), &Topology::osic(), &CostModel::paper_default())
    }

    #[test]
    fn vanilla_is_network_bound() {
        let r = run(SimMode::Vanilla, 500, 0.9);
        assert_eq!(r.bottleneck, Bottleneck::Network);
        // LB close to saturation (paper Fig. 9c).
        assert!(r.lb_tx_rate > 1.2e9, "{}", r.lb_tx_rate);
        // 500 GB at ~1.25 GB/s ≈ 400 s.
        assert!((350.0..500.0).contains(&r.duration), "{}", r.duration);
    }

    #[test]
    fn speedup_superlinear_in_selectivity() {
        let vanilla = run(SimMode::Vanilla, 500, 0.0);
        let s80 = speedup(&vanilla, &run(SimMode::Pushdown, 500, 0.80));
        let s90 = speedup(&vanilla, &run(SimMode::Pushdown, 500, 0.90));
        let s60 = speedup(&vanilla, &run(SimMode::Pushdown, 500, 0.60));
        // Paper Fig. 5: ~5x at 80%, >10x at 90%, superlinear growth.
        assert!((3.5..6.5).contains(&s80), "s80={s80}");
        assert!(s90 > 8.0, "s90={s90}");
        assert!(s90 - s80 > s80 - s60, "superlinearity: {s60} {s80} {s90}");
    }

    #[test]
    fn bottleneck_shifts_to_storage_cpu_at_high_selectivity() {
        let low = run(SimMode::Pushdown, 3000, 0.3);
        assert_eq!(low.bottleneck, Bottleneck::Network);
        let high = run(SimMode::Pushdown, 3000, 0.99);
        assert_eq!(high.bottleneck, Bottleneck::StorageCpu);
        // Max speedup capped around the paper's ~31x.
        let vanilla = run(SimMode::Vanilla, 3000, 0.0);
        let s = speedup(&vanilla, &high);
        assert!((20.0..40.0).contains(&s), "max speedup {s}");
    }

    #[test]
    fn no_selectivity_means_no_benefit() {
        let vanilla = run(SimMode::Vanilla, 500, 0.0);
        let pushdown = run(SimMode::Pushdown, 500, 0.0);
        let s = speedup(&vanilla, &pushdown);
        // Slight penalty (storlet overhead), within a few percent — the
        // paper reports a worst-case mean penalty of 3.4%.
        assert!((0.9..=1.001).contains(&s), "S_Q at zero selectivity: {s}");
    }

    #[test]
    fn larger_datasets_speed_up_more() {
        let s50 = speedup(
            &run(SimMode::Vanilla, 50, 0.0),
            &run(SimMode::Pushdown, 50, 0.9),
        );
        let s500 = speedup(
            &run(SimMode::Vanilla, 500, 0.0),
            &run(SimMode::Pushdown, 500, 0.9),
        );
        let s3000 = speedup(
            &run(SimMode::Vanilla, 3000, 0.0),
            &run(SimMode::Pushdown, 3000, 0.9),
        );
        assert!(s50 < s500 && s500 < s3000, "{s50} {s500} {s3000}");
        // And the 500GB→3TB increase is smaller than 50GB→500GB (Fig. 6).
        assert!(s3000 - s500 < s500 - s50, "{s50} {s500} {s3000}");
    }

    #[test]
    fn resource_usage_matches_paper_proportions() {
        // ShowGraphHCHP on 3 TB, 99% selectivity (Fig. 9/10).
        let vanilla = run(SimMode::Vanilla, 3000, 0.0);
        let scoop = run(SimMode::Pushdown, 3000, 0.99);
        // Compute CPU: scoop less than half of vanilla (paper: 1.2% vs 3.1%).
        assert!(scoop.compute_cpu_pct < vanilla.compute_cpu_pct / 2.0);
        assert!((1.0..6.0).contains(&vanilla.compute_cpu_pct));
        // Storage CPU: scoop ~20-30% vs vanilla ~1-2% (paper: 23.5% vs 1.25%).
        assert!((15.0..30.0).contains(&scoop.storage_cpu_pct), "{}", scoop.storage_cpu_pct);
        assert!(vanilla.storage_cpu_pct < 3.0);
        // Network: scoop's LB rate far below saturation.
        assert!(scoop.lb_tx_rate < 0.5e9, "{}", scoop.lb_tx_rate);
        // CPU cycles (integral) saved ~95%+ (paper: 97.8%).
        let v_cycles = vanilla
            .series
            .get("spark_workers", "cpu_pct")
            .unwrap()
            .integral();
        let s_cycles = scoop
            .series
            .get("spark_workers", "cpu_pct")
            .unwrap()
            .integral();
        assert!(s_cycles / v_cycles < 0.10, "cycle ratio {}", s_cycles / v_cycles);
        // Memory held high 10x+ longer in vanilla (paper: 12–15x).
        let v_mem = vanilla.series.get("spark_workers", "mem_pct").unwrap();
        let s_mem = scoop.series.get("spark_workers", "mem_pct").unwrap();
        let base = 100.0 * CostModel::paper_default().mem_base_fraction;
        let ratio = v_mem.time_above(base + 1.0) / s_mem.time_above(base + 1.0).max(1.0);
        assert!(ratio > 8.0, "memory hold ratio {ratio}");
        // Peak memory lower with scoop.
        assert!(scoop.compute_mem_pct < vanilla.compute_mem_pct);
    }

    #[test]
    fn columnar_mode_transfers_compressed() {
        let col = run(
            SimMode::Columnar { transfer_ratio: 0.3, decoded_ratio: 1.0 },
            500,
            0.0,
        );
        let vanilla = run(SimMode::Vanilla, 500, 0.0);
        assert!(col.bytes_transferred < vanilla.bytes_transferred * 0.4);
        let s = speedup(&vanilla, &col);
        assert!(s > 1.5, "columnar speedup {s}");
    }

    #[test]
    fn series_are_well_formed() {
        let r = run(SimMode::Pushdown, 50, 0.9);
        for (g, m) in [
            ("spark_workers", "cpu_pct"),
            ("storage_nodes", "cpu_pct"),
            ("spark_workers", "mem_pct"),
            ("load_balancer", "tx_bytes_per_sec"),
            ("swift_proxies", "tx_bytes_per_sec"),
        ] {
            let s = r.series.get(g, m).unwrap_or_else(|| panic!("{g}/{m} missing"));
            assert!(s.len() > 100);
            assert!(s.end_time() <= r.duration + 1.0);
            assert!(s.v.iter().all(|v| v.is_finite() && *v >= 0.0));
        }
    }
}

/// Simulate `jobs` running **concurrently** on the shared infrastructure —
/// the paper's motivating scenario: "inter-cluster network bandwidth may be
/// saturated due to parallel data ingestions from multiple analytics jobs".
///
/// Fluid fair-sharing model: all jobs stream raw bytes at a common rate `x`
/// bounded by each shared resource's capacity divided across the jobs'
/// summed per-byte demands. Per-job duration is `overhead + bytes / x`.
pub fn simulate_concurrent(
    jobs: &[SimJob],
    topology: &Topology,
    model: &CostModel,
) -> Vec<SimReport> {
    if jobs.is_empty() {
        return Vec::new();
    }
    // Per-job per-raw-byte coefficients, mirroring `simulate`.
    let coefs: Vec<(f64, f64, f64, bool)> = jobs
        .iter()
        .map(|job| {
            let sel = job.data_selectivity.clamp(0.0, 1.0);
            match job.mode {
                SimMode::Vanilla => {
                    (1.0, model.scan_cost, model.parse_cost + model.process_cost, false)
                }
                SimMode::Pushdown => {
                    let t = 1.0 - sel;
                    (
                        t,
                        model.filter_cost + model.scan_cost * t,
                        t * (model.parse_cost + model.process_cost),
                        true,
                    )
                }
                SimMode::Columnar { transfer_ratio, decoded_ratio } => {
                    let t = transfer_ratio.clamp(0.0, 1.0);
                    let dec = decoded_ratio.clamp(0.0, 1.0);
                    (
                        t,
                        model.scan_cost * t,
                        t * model.decode_cost + dec * (model.parse_cost / 2.0 + model.process_cost),
                        false,
                    )
                }
            }
        })
        .collect();

    let sum_t: f64 = coefs.iter().map(|c| c.0).sum();
    // Pushdown jobs draw from the storlet core share; others from all cores.
    let sum_s_storlet: f64 = coefs.iter().filter(|c| c.3).map(|c| c.1).sum();
    let sum_s_plain: f64 = coefs.iter().filter(|c| !c.3).map(|c| c.1).sum();
    let sum_c: f64 = coefs.iter().map(|c| c.2).sum();

    let mut rate = f64::INFINITY;
    if sum_t > 0.0 {
        rate = rate
            .min(topology.lb_bandwidth / sum_t)
            .min(topology.proxies.count as f64 * topology.proxy_bandwidth / sum_t);
    }
    if sum_s_storlet > 0.0 {
        rate = rate.min(
            topology.storage.total_cores() * model.storlet_core_fraction / sum_s_storlet,
        );
    }
    if sum_s_plain > 0.0 {
        rate = rate.min(topology.storage.total_cores() / sum_s_plain);
    }
    if sum_c > 0.0 {
        rate = rate.min(topology.compute.total_cores() / sum_c);
    }

    jobs.iter()
        .map(|job| {
            // Reuse the single-job simulation for the report structure, then
            // override the duration with the contended rate.
            let mut report = simulate(job, topology, model);
            let overhead = report.duration - job.dataset_bytes as f64 / report.pipeline_rate;
            report.duration = overhead + job.dataset_bytes as f64 / rate.max(1.0);
            report.pipeline_rate = rate;
            report
        })
        .collect()
}

#[cfg(test)]
mod concurrent_tests {
    use super::*;
    use crate::model::CostModel;
    use crate::topology::Topology;

    fn job(mode: SimMode, sel: f64) -> SimJob {
        SimJob {
            dataset_bytes: 500_000_000_000,
            data_selectivity: sel,
            mode,
            tasks: 4000,
        }
    }

    #[test]
    fn concurrent_vanilla_jobs_contend_on_the_link() {
        let topology = Topology::osic();
        let model = CostModel::paper_default();
        let solo = simulate(&job(SimMode::Vanilla, 0.0), &topology, &model);
        for n in [2usize, 4, 8] {
            let jobs = vec![job(SimMode::Vanilla, 0.0); n];
            let reports = simulate_concurrent(&jobs, &topology, &model);
            assert_eq!(reports.len(), n);
            // Each job ~n times slower than alone (the Fig. 1 motivation).
            let ratio = reports[0].duration / solo.duration;
            assert!(
                (n as f64 * 0.8..n as f64 * 1.2).contains(&ratio),
                "n={n}: ratio {ratio}"
            );
        }
    }

    #[test]
    fn pushdown_jobs_barely_interfere() {
        let topology = Topology::osic();
        let model = CostModel::paper_default();
        let solo = simulate(&job(SimMode::Pushdown, 0.99), &topology, &model);
        let jobs = vec![job(SimMode::Pushdown, 0.99); 4];
        let reports = simulate_concurrent(&jobs, &topology, &model);
        // Scoop jobs contend on storage CPU, not the thin link; 4 of them
        // slow each other by ~4x on that bottleneck — but remain far faster
        // than even a single vanilla job.
        let vanilla_solo = simulate(&job(SimMode::Vanilla, 0.0), &topology, &model);
        assert!(reports[0].duration < vanilla_solo.duration / 2.0);
        assert!(reports[0].duration >= solo.duration);
    }

    #[test]
    fn mixed_fleet_shares_fairly() {
        let topology = Topology::osic();
        let model = CostModel::paper_default();
        let jobs = vec![
            job(SimMode::Vanilla, 0.0),
            job(SimMode::Pushdown, 0.95),
            job(SimMode::Columnar { transfer_ratio: 0.5, decoded_ratio: 1.0 }, 0.0),
        ];
        let reports = simulate_concurrent(&jobs, &topology, &model);
        assert_eq!(reports.len(), 3);
        for r in &reports {
            assert!(r.duration.is_finite() && r.duration > 0.0);
        }
        // The pushdown job transfers the least.
        assert!(reports[1].bytes_transferred < reports[0].bytes_transferred);
        assert!(reports[1].bytes_transferred < reports[2].bytes_transferred);
    }

    #[test]
    fn empty_job_list() {
        assert!(simulate_concurrent(&[], &Topology::osic(), &CostModel::paper_default())
            .is_empty());
    }
}
