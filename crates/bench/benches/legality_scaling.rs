//! Theorem 3.1 bench: full legality checking scales linearly in |D| with
//! the query reduction, quadratically with the naive pairwise checker.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

use bschema_bench::org_of_size;
use bschema_core::legality::{self, LegalityChecker};
use bschema_core::paper::white_pages_schema;

fn bench_legality(c: &mut Criterion) {
    let schema = white_pages_schema();
    let checker = LegalityChecker::new(&schema);
    let mut group = c.benchmark_group("legality/t31");
    for n in [100usize, 1_000, 10_000] {
        let org = org_of_size(n);
        group.throughput(Throughput::Elements(n as u64));
        group.bench_with_input(BenchmarkId::new("one_worker", n), &org, |b, org| {
            b.iter(|| legality::check_instance(&schema, &org.dir, false, 1, bschema_obs::noop()))
        });
        group.bench_with_input(BenchmarkId::new("auto", n), &org, |b, org| {
            b.iter(|| checker.check(&org.dir))
        });
        // The quadratic baseline is capped to keep bench runs bounded.
        if n <= 3_000 {
            group.bench_with_input(BenchmarkId::new("naive", n), &org, |b, org| {
                b.iter(|| checker.check_naive(&org.dir))
            });
        }
    }
    group.finish();
}

fn bench_content_vs_structure(c: &mut Criterion) {
    // Split the Theorem 3.1 cost between its two halves.
    let schema = white_pages_schema();
    let org = org_of_size(3_000);
    let mut group = c.benchmark_group("legality/components");
    group.bench_function("content_only", |b| {
        b.iter(|| {
            let mut out = Vec::new();
            legality::content::check_instance(
                &schema,
                &org.dir,
                false,
                1,
                bschema_obs::noop(),
                bschema_obs::NO_SPAN,
                &mut out,
            );
            out
        })
    });
    group.bench_function("structure_only", |b| {
        b.iter(|| {
            let mut out = Vec::new();
            legality::structure::check_instance(
                &schema,
                &org.dir,
                1,
                bschema_obs::noop(),
                &mut out,
            );
            out
        })
    });
    group.finish();
}

criterion_group!(benches, bench_legality, bench_content_vs_structure);
criterion_main!(benches);
