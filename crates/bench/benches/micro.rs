//! Component micro-benchmarks: the data-plane primitives whose throughput
//! calibrates the cluster cost model.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use scoop_bench::bench_csv;
use scoop_csv::filter::filter_buffer;
use scoop_csv::pushdown::like_match;
use scoop_csv::{Predicate, PushdownSpec, Value};
use std::hint::black_box;

fn header() -> Vec<String> {
    scoop_workload::generator::meter_schema()
        .names()
        .iter()
        .map(|s| s.to_string())
        .collect()
}

fn bench_hash_and_ring(c: &mut Criterion) {
    let mut g = c.benchmark_group("micro/ring");
    let mut builder = scoop_objectstore::RingBuilder::new(12, 3);
    for n in 0..29u32 {
        for _ in 0..10 {
            builder.add_device(n, n % 5, 1.0);
        }
    }
    let ring = builder.build().unwrap();
    g.bench_function("lookup", |b| {
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            let key = format!("/acct/cont/obj-{i}");
            black_box(ring.lookup(&key)[0])
        })
    });
    g.bench_function("hash64_64B", |b| {
        let data = [7u8; 64];
        b.iter(|| black_box(scoop_common::hash::hash64(&data)))
    });
    g.finish();
}

fn bench_csv_filter(c: &mut Criterion) {
    let data = bench_csv();
    let header = header();
    let mut g = c.benchmark_group("micro/csv_filter");
    g.throughput(Throughput::Bytes(data.len() as u64));
    for (label, spec) in [
        ("passthrough", PushdownSpec { has_header: true, ..Default::default() }),
        (
            "project2",
            PushdownSpec {
                columns: Some(vec!["vid".into(), "index".into()]),
                predicate: None,
                has_header: true,
            },
        ),
        (
            "select_city",
            PushdownSpec {
                columns: Some(vec!["vid".into(), "index".into()]),
                predicate: Some(Predicate::Eq(
                    "city".into(),
                    Value::Str("Rotterdam".into()),
                )),
                has_header: true,
            },
        ),
    ] {
        g.bench_with_input(BenchmarkId::from_parameter(label), &spec, |b, spec| {
            b.iter(|| black_box(filter_buffer(spec, &header, data, true).unwrap().1))
        });
    }
    g.finish();
}

fn bench_csv_parse(c: &mut Criterion) {
    let data = bench_csv();
    let schema = scoop_workload::generator::meter_schema();
    let mut g = c.benchmark_group("micro/csv_parse");
    g.throughput(Throughput::Bytes(data.len() as u64));
    g.bench_function("typed_rows", |b| {
        b.iter(|| {
            let reader = scoop_csv::CsvReader::new(
                scoop_common::stream::once(bytes::Bytes::from_static(data)),
                schema.clone(),
                true,
            );
            black_box(reader.count())
        })
    });
    g.finish();
}

fn bench_sql_plan(c: &mut Criterion) {
    let sql = &scoop_workload::table1_queries()[5].sql;
    let schema = scoop_workload::generator::meter_schema();
    c.bench_function("micro/sql_parse_and_plan", |b| {
        b.iter(|| {
            let q = scoop_sql::parse(black_box(sql)).unwrap();
            black_box(scoop_sql::catalyst::plan_query(&q, &schema, true).unwrap())
        })
    });
}

fn bench_like(c: &mut Criterion) {
    c.bench_function("micro/like_match", |b| {
        b.iter(|| black_box(like_match("2015-01-%", "2015-01-15 10:20:00")))
    });
}

fn bench_rle(c: &mut Criterion) {
    let data = bench_csv();
    let mut g = c.benchmark_group("micro/rle");
    g.throughput(Throughput::Bytes(data.len() as u64));
    g.bench_function("compress", |b| {
        b.iter(|| black_box(scoop_storlets::filters::compress::rle_compress(data)))
    });
    g.finish();
}

fn bench_columnar(c: &mut Criterion) {
    let schema = scoop_workload::generator::meter_schema();
    let rows: Vec<Vec<Value>> = {
        let reader = scoop_csv::CsvReader::new(
            scoop_common::stream::once(bytes::Bytes::from(bench_csv().to_vec())),
            schema.clone(),
            true,
        );
        reader.map(|r| r.unwrap()).collect()
    };
    let mut g = c.benchmark_group("micro/columnar");
    g.throughput(Throughput::Bytes(bench_csv().len() as u64));
    g.bench_function("encode", |b| {
        b.iter(|| {
            let mut w = scoop_columnar::ColumnarWriter::with_row_group_rows(
                schema.clone(),
                5_000,
            );
            for r in &rows {
                w.write_row(r);
            }
            black_box(w.finish())
        })
    });
    let encoded = {
        let mut w = scoop_columnar::ColumnarWriter::with_row_group_rows(schema, 5_000);
        for r in &rows {
            w.write_row(r);
        }
        w.finish()
    };
    g.bench_function("decode_pruned", |b| {
        b.iter(|| {
            let r = scoop_columnar::ColumnarReader::open_bytes(encoded.clone()).unwrap();
            black_box(r.read_rows(Some(&["vid".to_string(), "index".to_string()]), None).unwrap())
        })
    });
    g.finish();
}

criterion_group!(
    name = micro;
    config = Criterion::default().sample_size(10).measurement_time(std::time::Duration::from_secs(2)).warm_up_time(std::time::Duration::from_millis(500));
    targets = bench_hash_and_ring,
        bench_csv_filter,
        bench_csv_parse,
        bench_sql_plan,
        bench_like,
        bench_rle,
        bench_columnar
);
criterion_main!(micro);
