//! The vectorized chunk pipeline (`Executor::execute`) on fig13-style SPJ provenance queries.
//!
//! Every query is planned once up front (analyzed, provenance-rewritten, optimized), so the
//! measurement is pure execution: planning and the service-layer plan cache are out of the
//! picture.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use perm_bench::harness::{BenchConfig, ScalePreset};
use perm_exec::Executor;
use perm_tpch::queries::add_provenance_keyword;
use perm_tpch::workloads::{spj_query, workload_rng};

fn bench_vectorized_scan(c: &mut Criterion) {
    let config = BenchConfig::quick();
    let db = config.database(ScalePreset::Small);
    let parts = db.catalog().table_row_count("part").unwrap();

    let mut group = c.benchmark_group("vectorized_scan");
    group.sample_size(config.samples);
    group.warm_up_time(Duration::from_millis(config.warm_up_ms));
    group.measurement_time(Duration::from_millis(config.measurement_ms));
    for num_sub in [1usize, 3, 6] {
        let sql = spj_query(&mut workload_rng("spj", num_sub as u64), num_sub, parts);
        let provenance_sql = add_provenance_keyword(&sql);
        let plan = db.plan_sql(&provenance_sql).expect("provenance query plans");
        let executor = Executor::new(db.catalog().clone());
        group.bench_with_input(BenchmarkId::new("chunk", num_sub), &plan, |b, plan| {
            b.iter(|| executor.execute(plan).expect("chunk pipeline runs"));
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default();
    targets = bench_vectorized_scan
}
criterion_main!(benches);
