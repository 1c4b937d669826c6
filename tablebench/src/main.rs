//! End-to-end Table I benchmark over the TCP data plane.
//!
//! Deploys the store (proxy → object server → storlet middleware → memory
//! backend) behind its TCP front end, uploads a seeded GridPocket dataset
//! through the `zoneindex` PUT storlet, and drives one workload as a closed
//! loop from a single client:
//!
//! * `table1_vanilla`, `table1_pushdown`, `table1_columnar`: the seven
//!   Table I queries, cycled in a seeded order, through `Session::sql`;
//! * `ingest_put`: CSV PUTs through `zoneindex`, overwriting a fixed set of
//!   names.
//!
//! ```text
//! cargo run --release --manifest-path tablebench/Cargo.toml -- \
//!     --workload table1_pushdown --seed 1 --seconds 20 --trace 0
//! ```
//!
//! `--trace 0` prints the end-to-end metrics. `--trace 1` alternates plain
//! and traced query cycles (PUT rounds for `ingest_put`), with timing
//! probes installed at the program's public seams during the traced ones,
//! and prints the per-layer metrics. Every result is checked against a
//! reference computed at set-up; the traced run also checks a byte ledger
//! across the layers. The last line of output is one JSON object; a wrong
//! result or a ledger that does not add up exits with code 1.

mod gen;
mod probe;

use bytes::Bytes;
use probe::{Ledger, Probe, TimedConnector};
use scoop_compute::partition::DEFAULT_CHUNK_SIZE;
use scoop_compute::{ExecutionMode, JobMetrics, Session, StorageConnector, TableFormat};
use scoop_connector::SwiftConnector;
use scoop_core::{ScoopConfig, ScoopContext};
use scoop_objectstore::middleware::Pipeline;
use scoop_objectstore::{NetOptions, ObjectPath, PoolConfig, Request, SwiftClient};
use scoop_sql::ResultSet;
use scoop_storlets::middleware::{encode_params, headers};
use scoop_storlets::StorletMiddleware;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

const ACCOUNT: &str = "AUTH_bench";
const TABLE: &str = "largemeter";
const COLUMNAR: &str = "colmeter";
const INGEST: &str = "ingest";
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Rows per columnar row group (six groups per object).
const ROW_GROUP_ROWS: usize = 4_000;
/// Object names each ingest lane keeps overwriting.
const NAMES_PER_LANE: usize = 2;
/// PUTs each ingest lane makes between two lane barriers.
const PUTS_PER_ROUND: usize = 4;

#[derive(Clone, Copy, PartialEq, Eq)]
enum Workload {
    Query(ExecutionMode),
    Ingest,
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<&str, String> {
        argv.iter()
            .position(|a| a == flag)
            .and_then(|i| argv.get(i + 1))
            .map(String::as_str)
            .ok_or_else(|| format!("missing {flag}"))
    };
    let workload = match get("--workload")? {
        "table1_vanilla" => Workload::Query(ExecutionMode::Vanilla),
        "table1_pushdown" => Workload::Query(ExecutionMode::Pushdown),
        "table1_columnar" => Workload::Query(ExecutionMode::Columnar),
        "ingest_put" => Workload::Ingest,
        w => return Err(format!("unknown workload '{w}'")),
    };
    let num = |flag: &str| -> Result<u64, String> {
        get(flag)?.parse().map_err(|e| format!("{flag}: {e}"))
    };
    let trace = match num("--trace")? {
        0 => false,
        1 => true,
        t => return Err(format!("--trace must be 0 or 1, not {t}")),
    };
    Ok(Args {
        workload,
        seed: num("--seed")?,
        seconds: num("--seconds")?.max(1) as f64,
        trace,
    })
}

/// A deployed store holding the dataset, plus what the checks compare to.
/// The TCP client is declared first so its pooled sockets close before the
/// cluster's front end shuts down.
struct Deployment {
    client: SwiftClient,
    ctx: Arc<ScoopContext>,
    objects: Vec<(String, Bytes)>,
    dataset_bytes: u64,
    reference: Vec<ResultSet>,
}

type BoxError = Box<dyn std::error::Error>;

fn put_indexed(
    client: &SwiftClient,
    container: &str,
    name: &str,
    data: Bytes,
) -> Result<(), BoxError> {
    let mut params = HashMap::new();
    params.insert("schema".to_string(), gen::SCHEMA.to_string());
    params.insert("header".to_string(), "1".to_string());
    let req = Request::put(ObjectPath::new(ACCOUNT, container, name)?, data)
        .with_header(headers::RUN_STORLET, "zoneindex")
        .with_header(headers::PARAMETERS, encode_params(&params));
    let resp = client.request(req)?;
    if !resp.is_success() {
        return Err(format!("PUT {container}/{name}: status {}", resp.status).into());
    }
    Ok(())
}

/// Generate, deploy, upload, convert, and compute the reference results
/// over the in-process vanilla path.
fn deploy(seed: u64, lanes: usize) -> Result<Deployment, BoxError> {
    let objects = gen::dataset(seed);
    let dataset_bytes = objects.iter().map(|(_, d)| d.len() as u64).sum();
    // The reference queries split objects like the timed sessions do (one
    // task per object), so partial float sums merge in the same order and
    // vanilla and pushdown results can be held to exact equality.
    let ctx = ScoopContext::new(ScoopConfig {
        workers: lanes,
        chunk_size: DEFAULT_CHUNK_SIZE,
        account: ACCOUNT.to_string(),
        ..Default::default()
    })?;
    let client = ctx.cluster().anonymous_client(ACCOUNT).over_tcp_with(
        NetOptions {
            workers: lanes,
            ..Default::default()
        },
        PoolConfig {
            max_idle: lanes,
            ..Default::default()
        },
    )?;
    client.create_container(TABLE)?;
    client.create_container(INGEST)?;
    for (name, data) in &objects {
        put_indexed(&client, TABLE, name, data.clone())?;
    }
    ctx.convert_to_columnar(TABLE, COLUMNAR, ROW_GROUP_ROWS)?;
    let reference = gen::QUERIES
        .iter()
        .map(|(_, sql)| {
            ctx.query(TABLE, sql, ExecutionMode::Vanilla)
                .map(|o| o.result)
        })
        .collect::<Result<_, _>>()?;
    Ok(Deployment {
        client,
        ctx,
        objects,
        dataset_bytes,
        reference,
    })
}

/// The five probed boundaries of a traced run.
#[derive(Default)]
struct Ledgers {
    /// Around the compute side's storage calls.
    connector: Arc<Ledger>,
    /// First in the proxy pipeline.
    proxy: Arc<Ledger>,
    /// Just after the proxy-stage storlet middleware (where PUT ETL runs).
    proxy_inner: Arc<Ledger>,
    /// Just before the object-stage storlet middleware.
    objserver: Arc<Ledger>,
    /// Just after it: the object server's backend reads and writes.
    backend: Arc<Ledger>,
}

impl Ledgers {
    fn reset(&self) {
        for l in [
            &self.connector,
            &self.proxy,
            &self.proxy_inner,
            &self.objserver,
            &self.backend,
        ] {
            l.reset();
        }
    }
}

/// Install the storlet pipelines `ScoopContext::new` builds, wrapped in
/// probes when `probes` is given. Only a traced run calls this; a plain run
/// keeps the deployment's own pipelines.
fn install(ctx: &ScoopContext, probes: Option<&Ledgers>) {
    let storlet_proxy = Arc::new(StorletMiddleware::with_policy(
        ctx.engine().clone(),
        ctx.policy().clone(),
    ));
    let storlet_object = Arc::new(StorletMiddleware::new(ctx.engine().clone()));
    let mut proxy = Pipeline::new();
    let mut object = Pipeline::new();
    match probes {
        None => {
            proxy.push(storlet_proxy);
            object.push(storlet_object);
        }
        Some(l) => {
            proxy.push(Probe::new("probe-proxy", l.proxy.clone()));
            proxy.push(storlet_proxy);
            proxy.push(Probe::new("probe-proxy-inner", l.proxy_inner.clone()));
            object.push(Probe::new("probe-objserver", l.objserver.clone()));
            object.push(storlet_object);
            object.push(Probe::new("probe-backend", l.backend.clone()));
        }
    }
    ctx.cluster().set_proxy_pipeline(proxy);
    ctx.cluster().set_object_pipeline(object);
}

/// Program-side counters, read at the start and end of the timed loop.
#[derive(Default, Clone, Copy)]
struct Counters {
    plans: u64,
    plan_fallbacks: u64,
    blocks_pruned: u64,
    blocks_scanned: u64,
    sheds: u64,
    dials: u64,
    reuses: u64,
    evictions: u64,
    failovers: u64,
    hedges: u64,
}

impl Counters {
    fn read(dep: &Deployment) -> Counters {
        let skip = dep.ctx.engine().skip_stats();
        let pool = dep.client.transport_pool().map(|p| p.snapshot());
        let cluster = dep.ctx.cluster();
        Counters {
            plans: skip.plans(),
            plan_fallbacks: skip.fallbacks(),
            blocks_pruned: skip.blocks_pruned(),
            blocks_scanned: skip.blocks_scanned(),
            sheds: dep.ctx.engine().admission_sheds(),
            dials: pool.map_or(0, |p| p.dials),
            reuses: pool.map_or(0, |p| p.reuses),
            evictions: pool.map_or(0, |p| p.evictions),
            failovers: cluster.replica_failovers(),
            hedges: cluster.hedged_gets(),
        }
    }

    fn since(self, base: Counters) -> Counters {
        Counters {
            plans: self.plans - base.plans,
            plan_fallbacks: self.plan_fallbacks - base.plan_fallbacks,
            blocks_pruned: self.blocks_pruned - base.blocks_pruned,
            blocks_scanned: self.blocks_scanned - base.blocks_scanned,
            sheds: self.sheds - base.sheds,
            dials: self.dials - base.dials,
            reuses: self.reuses - base.reuses,
            evictions: self.evictions - base.evictions,
            failovers: self.failovers - base.failovers,
            hedges: self.hedges - base.hedges,
        }
    }
}

/// Operations of one phase (plain or traced) of the timed loop.
#[derive(Default)]
struct Phase {
    latencies_ms: Vec<f64>,
    /// Wall time the phase's operations took, in seconds.
    busy_s: f64,
    /// Logical bytes the operations covered (dataset per query, body per PUT).
    logical_bytes: u64,
    /// Bytes that crossed the storage→compute boundary (request bodies for PUTs).
    transfer_bytes: u64,
    jobs: Vec<JobMetrics>,
    /// Latencies per Table I query, for the report.
    by_query: std::collections::BTreeMap<&'static str, Vec<f64>>,
}

impl Phase {
    fn ops(&self) -> u64 {
        self.latencies_ms.len() as u64
    }

    fn mb_s(&self) -> f64 {
        ratio(self.logical_bytes as f64 / 1e6, self.busy_s)
    }
}

/// What the timed loop produced.
#[derive(Default)]
struct Outcome {
    plain: Phase,
    traced: Phase,
    attempted: u64,
    failed: u64,
    /// Ledger and consistency violations.
    errors: Vec<String>,
    counters: Counters,
    /// The traced connector's own counters: skipped, retries, fallbacks.
    skipped: u64,
    retries: u64,
    fallbacks: u64,
}

fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

fn session(
    dep: &Deployment,
    mode: ExecutionMode,
    lanes: usize,
    ledger: Option<&Arc<Ledger>>,
) -> (Session, Arc<SwiftConnector>) {
    let swift = match mode {
        ExecutionMode::Pushdown => SwiftConnector::new(dep.client.clone()),
        _ => SwiftConnector::without_pushdown(dep.client.clone()),
    };
    let conn: Arc<dyn StorageConnector> = match ledger {
        Some(l) => Arc::new(TimedConnector::new(
            swift.clone(),
            l.clone(),
            std::thread::current().id(),
        )),
        None => swift.clone(),
    };
    let session = Session::new(conn, lanes).with_pushdown(mode == ExecutionMode::Pushdown);
    match mode {
        ExecutionMode::Columnar => {
            session.register_table(TABLE, COLUMNAR, None, TableFormat::Columnar, None)
        }
        _ => session.register_table(
            TABLE,
            TABLE,
            None,
            TableFormat::Csv { has_header: true },
            None,
        ),
    }
    (session, swift)
}

/// Run query `q` and check its result; `None` on an error or a mismatch.
fn checked_query(
    dep: &Deployment,
    session: &Session,
    mode: ExecutionMode,
    q: usize,
) -> Option<JobMetrics> {
    let (name, sql) = gen::QUERIES[q];
    match session.sql(sql) {
        Ok(out) => {
            let expected = &dep.reference[q];
            let ok = match mode {
                ExecutionMode::Columnar => expected.approx_eq(&out.result, 1e-9),
                _ => *expected == out.result,
            };
            if ok {
                return Some(out.metrics);
            }
            eprintln!("{name}: result differs from the reference");
        }
        Err(e) => eprintln!("{name}: {e}"),
    }
    None
}

fn run_queries(
    dep: &Deployment,
    mode: ExecutionMode,
    lanes: usize,
    args: &Args,
    ledgers: &Ledgers,
) -> Outcome {
    let order = gen::query_order(args.seed);
    let (plain, _) = session(dep, mode, lanes, None);
    let (traced, traced_swift) = session(dep, mode, lanes, Some(&ledgers.connector));
    let mut out = Outcome::default();
    // Warm-up, untimed: caches each session's schema, and records the bytes
    // each query moves so that every later run of it can be held to them.
    let mut expected_bytes = vec![0u64; gen::QUERIES.len()];
    for (q, expected) in expected_bytes.iter_mut().enumerate() {
        out.attempted += 1;
        match checked_query(dep, &plain, mode, q) {
            Some(m) => *expected = m.bytes_transferred,
            None => out.failed += 1,
        }
    }
    if args.trace {
        install(&dep.ctx, Some(ledgers));
        for q in 0..gen::QUERIES.len() {
            out.attempted += 1;
            if checked_query(dep, &traced, mode, q).is_none() {
                out.failed += 1;
            }
        }
        install(&dep.ctx, None);
    }
    // The warm-up is not part of the ledger.
    ledgers.reset();
    let base = (
        traced_swift.bytes_skipped(),
        traced_swift.retries(),
        traced_swift.pushdown_fallbacks(),
    );
    let counters = Counters::read(dep);
    let end = Instant::now() + Duration::from_secs_f64(args.seconds);
    let mut cycle = 0u64;
    while Instant::now() < end {
        let tracing = args.trace && cycle % 2 == 1;
        if args.trace {
            install(&dep.ctx, tracing.then_some(ledgers));
        }
        let (session, phase) = if tracing {
            (&traced, &mut out.traced)
        } else {
            (&plain, &mut out.plain)
        };
        for &q in &order {
            out.attempted += 1;
            let t = Instant::now();
            let result = checked_query(dep, session, mode, q);
            let elapsed = t.elapsed().as_secs_f64();
            let Some(m) = result else {
                out.failed += 1;
                continue;
            };
            if m.bytes_transferred != expected_bytes[q] {
                out.errors.push(format!(
                    "{}: moved {} bytes, {} in the warm-up",
                    gen::QUERIES[q].0,
                    m.bytes_transferred,
                    expected_bytes[q]
                ));
            }
            phase.latencies_ms.push(elapsed * 1e3);
            phase
                .by_query
                .entry(gen::QUERIES[q].0)
                .or_default()
                .push(elapsed * 1e3);
            phase.busy_s += elapsed;
            phase.logical_bytes += dep.dataset_bytes;
            phase.transfer_bytes += m.bytes_transferred;
            if tracing {
                phase.jobs.push(m);
            }
        }
        cycle += 1;
    }
    if args.trace {
        install(&dep.ctx, None);
    }
    out.counters = Counters::read(dep).since(counters);
    out.skipped = traced_swift.bytes_skipped() - base.0;
    out.retries = traced_swift.retries() - base.1;
    out.fallbacks = traced_swift.pushdown_fallbacks() - base.2;
    if args.trace {
        let conn = ledgers.connector.snapshot();
        let proxy = ledgers.proxy.snapshot();
        let objserver = ledgers.objserver.snapshot();
        let backend = ledgers.backend.snapshot();
        let mut check = |what: &str, a: u64, b: u64| {
            if a != b {
                out.errors.push(format!("ledger: {what}: {a} != {b}"));
            }
        };
        check("proxy bytes vs connector bytes", proxy.bytes, conn.bytes);
        check(
            "proxy bytes vs object-server bytes",
            proxy.bytes,
            objserver.bytes,
        );
        // Driver-side reads (columnar footers at relation open) fall outside
        // a query's `bytes_transferred`.
        check(
            "connector task bytes vs the queries' bytes_transferred",
            conn.bytes - conn.driver_bytes,
            out.traced.transfer_bytes,
        );
        if mode == ExecutionMode::Pushdown {
            check(
                "skipped + scanned vs the objects read",
                out.skipped + proxy.scanned,
                out.traced.ops() * dep.dataset_bytes,
            );
            check(
                "backend bytes vs scanned bytes",
                backend.bytes,
                proxy.scanned,
            );
        } else {
            check(
                "backend bytes vs object-server bytes",
                backend.bytes,
                objserver.bytes,
            );
        }
    }
    out
}

/// One ingest round: every lane makes `PUTS_PER_ROUND` closed-loop PUTs to
/// its own names. Returns the round's wall time and, per PUT, the name, the
/// index of the dataset object it carried and its latency (`None` if it
/// failed).
fn put_round(
    dep: &Deployment,
    lanes: usize,
    round: usize,
) -> (f64, Vec<(String, usize, Option<f64>)>) {
    let t = Instant::now();
    let puts = std::thread::scope(|s| {
        let handles: Vec<_> = (0..lanes)
            .map(|lane| {
                s.spawn(move || {
                    (0..PUTS_PER_ROUND)
                        .map(|k| {
                            let i = round * PUTS_PER_ROUND + k;
                            let name = format!("put-{lane}-{}", i % NAMES_PER_LANE);
                            let body = (lane + i * lanes) % dep.objects.len();
                            let t = Instant::now();
                            let ms = match put_indexed(
                                &dep.client,
                                INGEST,
                                &name,
                                dep.objects[body].1.clone(),
                            ) {
                                Ok(()) => Some(t.elapsed().as_secs_f64() * 1e3),
                                Err(e) => {
                                    eprintln!("PUT {name}: {e}");
                                    None
                                }
                            };
                            (name, body, ms)
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("ingest lane panicked"))
            .collect()
    });
    (t.elapsed().as_secs_f64(), puts)
}

fn run_ingest(dep: &Deployment, lanes: usize, args: &Args, ledgers: &Ledgers) -> Outcome {
    let mut out = Outcome::default();
    // The body each name was last overwritten with, for the read-back.
    let mut last: HashMap<String, usize> = HashMap::new();
    // Warm-up round, untimed.
    for (name, body, ms) in put_round(dep, lanes, 0).1 {
        out.attempted += 1;
        match ms {
            Some(_) => {
                last.insert(name, body);
            }
            None => out.failed += 1,
        }
    }
    let counters = Counters::read(dep);
    let end = Instant::now() + Duration::from_secs_f64(args.seconds);
    let mut round = 1;
    while Instant::now() < end {
        let tracing = args.trace && round % 2 == 0;
        if args.trace {
            install(&dep.ctx, tracing.then_some(ledgers));
        }
        let (wall, puts) = put_round(dep, lanes, round);
        let phase = if tracing {
            &mut out.traced
        } else {
            &mut out.plain
        };
        phase.busy_s += wall;
        for (name, body, ms) in puts {
            out.attempted += 1;
            let Some(ms) = ms else {
                out.failed += 1;
                continue;
            };
            let bytes = dep.objects[body].1.len() as u64;
            phase.latencies_ms.push(ms);
            phase.logical_bytes += bytes;
            phase.transfer_bytes += bytes;
            last.insert(name, body);
        }
        round += 1;
    }
    if args.trace {
        install(&dep.ctx, None);
    }
    out.counters = Counters::read(dep).since(counters);
    // Read every overwritten name back and compare it byte for byte.
    for (name, body) in &last {
        out.attempted += 1;
        let stored = dep
            .client
            .get_object(INGEST, name)
            .and_then(|r| r.read_body());
        if stored.ok().as_ref() != Some(&dep.objects[*body].1) {
            eprintln!("read-back of {name} differs from the last PUT");
            out.failed += 1;
        }
    }
    if args.trace {
        let replicas = dep.ctx.config().swift.replicas as u64;
        let user = out.traced.transfer_bytes;
        let objserver = ledgers.objserver.snapshot().put_bytes;
        let mut check = |what: &str, a: u64, b: u64| {
            if a != b {
                out.errors.push(format!("ledger: {what}: {a} != {b}"));
            }
        };
        check(
            "proxy PUT bytes vs user bytes",
            ledgers.proxy.snapshot().put_bytes,
            user,
        );
        check(
            "zoneindex output vs user bytes",
            ledgers.proxy_inner.snapshot().put_bytes,
            user,
        );
        check(
            "object-server PUT bytes vs replicas x user bytes",
            objserver,
            replicas * user,
        );
        check(
            "backend PUT bytes vs object-server PUT bytes",
            ledgers.backend.snapshot().put_bytes,
            objserver,
        );
    }
    out
}

/// `p`-th percentile (0..=100) with linear interpolation; 0 when empty.
fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = p / 100.0 * (v.len() - 1) as f64;
    let (lo, hi) = (rank.floor() as usize, rank.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (rank - lo as f64)
}

/// Peak resident set size of this process, in MB (VmHWM).
fn peak_rss_mb() -> Result<f64, BoxError> {
    let status = std::fs::read_to_string("/proc/self/status")?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb * 1024.0 / 1e6)
}

type Metrics = Vec<(&'static str, f64, &'static str)>;

fn end_to_end(out: &Outcome, setup_s: f64) -> Result<Metrics, BoxError> {
    let p = &out.plain;
    Ok(vec![
        ("setup_s", setup_s, "s"),
        ("latency_p50_ms", percentile(&p.latencies_ms, 50.0), "ms"),
        ("latency_p90_ms", percentile(&p.latencies_ms, 90.0), "ms"),
        ("throughput_mb_s", p.mb_s(), "MB/s"),
        (
            "transfer_mb_per_op",
            ratio(p.transfer_bytes as f64 / 1e6, p.ops() as f64),
            "MB",
        ),
        ("peak_rss_mb", peak_rss_mb()?, "MB"),
    ])
}

fn per_layer(out: &Outcome, ledgers: &Ledgers, lanes: usize) -> Metrics {
    let t = &out.traced;
    let n = t.ops() as f64;
    let per = |v: f64| ratio(v, n);
    let ms = |ns: u64| ns as f64 / 1e6;
    let mb = |b: u64| b as f64 / 1e6;
    let conn = ledgers.connector.snapshot();
    let proxy = ledgers.proxy.snapshot();
    let inner = ledgers.proxy_inner.snapshot();
    let obj = ledgers.objserver.snapshot();
    let backend = ledgers.backend.snapshot();
    let c = &out.counters;

    let task_ms: f64 = t
        .jobs
        .iter()
        .flat_map(|j| &j.task_durations)
        .map(|d| d.as_secs_f64() * 1e3)
        .sum();
    let wall_ms: f64 = t.jobs.iter().map(|j| j.wall.as_secs_f64() * 1e3).sum();
    let rows_in: u64 = t.jobs.iter().map(|j| j.rows_to_compute).sum();
    let rows_kept: u64 = t.jobs.iter().map(|j| j.rows_after_filter).sum();
    let skews: Vec<f64> = t
        .jobs
        .iter()
        .map(|j| {
            let d: Vec<f64> = j.task_durations.iter().map(|d| d.as_secs_f64()).collect();
            ratio(percentile(&d, 100.0), percentile(&d, 50.0))
        })
        .collect();
    let conn_lane_ms = conn.busy_ms() - ms(conn.driver_ns);
    let all_ops = (out.plain.ops() + t.ops()) as f64;
    let pruned = c.blocks_pruned as f64;
    vec![
        ("compute.task_ms", per(task_ms), "ms"),
        ("compute.self_ms", per(task_ms - conn_lane_ms), "ms"),
        ("compute.rows_in", per(rows_in as f64), "count"),
        (
            "compute.row_yield",
            ratio(rows_kept as f64, rows_in as f64),
            "ratio",
        ),
        (
            "scheduler.idle_lane_ms",
            per(lanes as f64 * wall_ms - task_ms),
            "ms",
        ),
        ("compute.lane_skew", percentile(&skews, 50.0), "ratio"),
        (
            "scheduler.task_retries",
            t.jobs.iter().map(|j| j.task_retries).sum::<u64>() as f64,
            "count",
        ),
        ("connector.requests", per(conn.requests as f64), "count"),
        ("connector.open_ms", per(ms(conn.head_ns)), "ms"),
        ("connector.body_ms", per(ms(conn.body_ns)), "ms"),
        ("connector.bytes", per(mb(conn.bytes)), "MB"),
        ("connector.body_chunks", per(conn.chunks as f64), "count"),
        ("connector.retries", out.retries as f64, "count"),
        ("connector.fallbacks", out.fallbacks as f64, "count"),
        ("connector.bytes_skipped", per(mb(out.skipped)), "MB"),
        ("net.dials", c.dials as f64, "count"),
        (
            "net.reuse_ratio",
            ratio(c.reuses as f64, (c.dials + c.reuses) as f64),
            "ratio",
        ),
        ("net.evictions", c.evictions as f64, "count"),
        ("wire.ms", per(conn.busy_ms() - proxy.busy_ms()), "ms"),
        ("proxy.requests", per(proxy.requests as f64), "count"),
        ("proxy.head_ms", per(ms(proxy.head_ns)), "ms"),
        ("proxy.body_ms", per(ms(proxy.body_ns)), "ms"),
        ("objserver.requests", per(obj.requests as f64), "count"),
        ("objserver.head_ms", per(ms(obj.head_ns)), "ms"),
        ("objserver.body_ms", per(ms(obj.body_ns)), "ms"),
        (
            "storlet.self_ms",
            per(obj.busy_ms() - backend.busy_ms()),
            "ms",
        ),
        ("storlet.bytes_in", per(mb(backend.bytes)), "MB"),
        ("storlet.bytes_out", per(mb(obj.bytes)), "MB"),
        (
            "storlet.selectivity",
            ratio(obj.bytes as f64, backend.bytes as f64),
            "ratio",
        ),
        ("storlet.plans", ratio(c.plans as f64, all_ops), "count"),
        ("storlet.plan_fallbacks", c.plan_fallbacks as f64, "count"),
        (
            "storlet.pruned_ratio",
            ratio(pruned, pruned + c.blocks_scanned as f64),
            "ratio",
        ),
        ("storlet.admission_sheds", c.sheds as f64, "count"),
        ("backend.requests", per(backend.requests as f64), "count"),
        ("backend.body_ms", per(ms(backend.body_ns)), "ms"),
        ("backend.bytes", per(mb(backend.bytes)), "MB"),
        ("backend.body_chunks", per(backend.chunks as f64), "count"),
        ("proxy.put_ms", per(ms(proxy.put_ns)), "ms"),
        ("objserver.put_requests", per(obj.puts as f64), "count"),
        ("objserver.put_ms", per(ms(obj.put_ns)), "ms"),
        (
            "storlet.zoneindex_ms",
            per(ms(proxy.put_ns) - ms(inner.put_ns)),
            "ms",
        ),
        ("backend.put_ms", per(ms(backend.put_ns)), "ms"),
        (
            "backend.write_amp",
            ratio(backend.put_bytes as f64, t.transfer_bytes as f64),
            "ratio",
        ),
        ("proxy.hedged_gets", c.hedges as f64, "count"),
        ("proxy.replica_failovers", c.failovers as f64, "count"),
        ("trace_overhead", ratio(t.mb_s(), out.plain.mb_s()), "ratio"),
    ]
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        // `+ 0.0` turns -0 (an empty float sum) into 0.
        format!("{}", v + 0.0)
    } else {
        "0".to_string()
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("tablebench: {e}");
            eprintln!("usage: tablebench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            std::process::exit(2);
        }
    };
    if let Err(e) = run(&args) {
        eprintln!("tablebench: {e}");
        std::process::exit(1);
    }
}

fn run(args: &Args) -> Result<(), BoxError> {
    let lanes = std::thread::available_parallelism().map_or(2, |n| n.get());
    // Each set-up builds a fresh deployment; the last one is measured.
    let mut setups = Vec::new();
    let mut dep = None;
    for _ in 0..SETUPS {
        drop(dep.take());
        let t = Instant::now();
        dep = Some(deploy(args.seed, lanes)?);
        setups.push(t.elapsed().as_secs_f64());
    }
    let dep = dep.ok_or("no deployment")?;
    let setup_s = percentile(&setups, 50.0);

    let ledgers = Ledgers::default();
    let out = match args.workload {
        Workload::Query(mode) => run_queries(&dep, mode, lanes, args, &ledgers),
        Workload::Ingest => run_ingest(&dep, lanes, args, &ledgers),
    };
    let metrics = if args.trace {
        per_layer(&out, &ledgers, lanes)
    } else {
        end_to_end(&out, setup_s)?
    };
    let failed = out.failed + out.errors.len() as u64;
    let correct = failed == 0;

    println!(
        "seed={} lanes={} dataset={} B in {} objects; timed ops: {} plain, {} traced",
        args.seed,
        lanes,
        dep.dataset_bytes,
        dep.objects.len(),
        out.plain.ops(),
        out.traced.ops()
    );
    println!(
        "error_rate={} ({} failed of {} attempted); retries={} hedges={} failovers={} fallbacks={} sheds={}",
        ratio(failed as f64, out.attempted as f64),
        failed,
        out.attempted,
        out.retries,
        out.counters.hedges,
        out.counters.failovers,
        out.fallbacks + out.counters.plan_fallbacks,
        out.counters.sheds
    );
    for (name, ms) in &out.plain.by_query {
        println!(
            "{name:<18} p50 {:>9.2} ms over {} runs",
            percentile(ms, 50.0),
            ms.len()
        );
    }
    for e in &out.errors {
        println!("CHECK FAILED: {e}");
    }
    for (name, value, unit) in &metrics {
        println!("{name:<26} {value:>14.4} {unit}");
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(*value)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.attempted,
        failed,
        body.join(", ")
    );
    drop(dep);
    if !correct {
        std::process::exit(1);
    }
    Ok(())
}
