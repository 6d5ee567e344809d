//! Wall-clock benchmark of the Figure 1 experiment: the full balanced
//! workload against each suite member.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rum::prelude::*;

fn bench_fig1(c: &mut Criterion) {
    let spec = WorkloadSpec {
        initial_records: 1 << 12,
        operations: 1 << 10,
        mix: OpMix::BALANCED,
        seed: 77,
        ..Default::default()
    };
    let workload = Workload::generate(&spec);
    let mut g = c.benchmark_group("fig1_balanced_workload");
    g.sample_size(10);
    for method in rum::standard_suite() {
        let name = method.name();
        drop(method);
        g.bench_with_input(BenchmarkId::from_parameter(&name), &name, |b, name| {
            b.iter(|| {
                let mut m = rum::standard_suite()
                    .into_iter()
                    .find(|m| &m.name() == name)
                    .unwrap();
                std::hint::black_box(run_stream(m.as_mut(), &workload).unwrap().ro)
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench_fig1);
criterion_main!(benches);
