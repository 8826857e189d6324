//! §3.1 bench: per-entry content-schema checking throughput — the
//! O(|class(e)|·depth(H) + |val(e)| + Σ|α(c)|) bound in practice.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

use bschema_bench::org_of_size;
use bschema_core::legality::content;
use bschema_core::paper::white_pages_schema;

fn bench_content(c: &mut Criterion) {
    let schema = white_pages_schema();
    // One worker: per-entry throughput, not the host's core count.
    let check = |dir: &bschema_directory::DirectoryInstance, values: bool, out: &mut Vec<_>| {
        content::check_instance(
            &schema,
            dir,
            values,
            1,
            bschema_obs::noop(),
            bschema_obs::NO_SPAN,
            out,
        )
    };
    let mut group = c.benchmark_group("content/per_entry");
    for n in [1_000usize, 10_000] {
        let org = org_of_size(n);
        group.throughput(Throughput::Elements(n as u64));
        group.bench_with_input(BenchmarkId::new("check_instance", n), &org, |b, org| {
            b.iter(|| {
                let mut out = Vec::new();
                check(&org.dir, false, &mut out);
                out
            })
        });
        group.bench_with_input(BenchmarkId::new("with_value_validation", n), &org, |b, org| {
            b.iter(|| {
                let mut out = Vec::new();
                check(&org.dir, true, &mut out);
                out
            })
        });
    }
    group.finish();
}

fn bench_single_entry(c: &mut Criterion) {
    use bschema_directory::EntryId;
    let schema = white_pages_schema();
    let org = org_of_size(1_000);
    let (id, entry) = org
        .dir
        .iter()
        .find(|(_, e)| e.has_class("researcher"))
        .map(|(id, e)| (id, e.clone()))
        .expect("generated org has researchers");
    let _ = id;
    c.bench_function("content/single_researcher_entry", |b| {
        b.iter(|| {
            let mut out = Vec::new();
            content::check_entry(&schema, EntryId::from_index(0), &entry, &mut out);
            out
        })
    });
}

criterion_group!(benches, bench_content, bench_single_entry);
criterion_main!(benches);
