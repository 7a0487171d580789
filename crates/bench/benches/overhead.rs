//! Per-branch selection overhead of the four algorithms.
//!
//! Paper §3.1: "Although LEI maintains enough information to select
//! cycles, its runtime overhead remains comparable to that of NET ...
//! On each taken branch, both algorithms do a constant amount of work."
//! This bench drives the full simulator over the identical recorded
//! execution and reports throughput in executed blocks per second.

use criterion::{Criterion, Throughput, criterion_group, criterion_main};
use rsel_core::select::SelectorKind;
use rsel_core::{SimConfig, Simulator};
use rsel_program::Executor;
use rsel_trace::CompactStream;
use rsel_workloads::{Scale, suite};

fn selection_overhead(c: &mut Criterion) {
    let workload = suite()
        .into_iter()
        .find(|w| w.name() == "vpr")
        .expect("vpr exists");
    let (program, spec) = workload.build(7, Scale::Test);
    let stream = CompactStream::record(Executor::new(&program, spec));
    let config = SimConfig::default();

    let mut group = c.benchmark_group("selection_overhead");
    group.throughput(Throughput::Elements(stream.len() as u64));
    for kind in SelectorKind::all() {
        group.bench_function(kind.name(), |b| {
            b.iter(|| {
                let mut sim = Simulator::new(&program, kind.make(&program, &config), &config);
                sim.run(stream.replay(&program));
                std::hint::black_box(sim.total_insts())
            });
        });
    }
    group.finish();
}

criterion_group!(benches, selection_overhead);
criterion_main!(benches);
