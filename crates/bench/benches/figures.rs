//! Criterion wrapper around a Figure-7-style measurement at test scale:
//! the overhead *shape* (plain < REST secure < ASan) measured with
//! statistical rigour on two representative workloads. The full figures
//! come from `regen`; this bench exists so `cargo bench` exercises the
//! same job path with confidence intervals.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use rest_bench::engine::SimJob;
use rest_bench::FigureRow;
use rest_core::Mode;
use rest_runtime::RtConfig;
use rest_workloads::{Scale, Workload};

fn bench_figure7_shape(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig7_shape");
    group.sample_size(10);
    for w in [Workload::Lbm, Workload::Xalancbmk] {
        for rt in [
            RtConfig::plain(),
            RtConfig::rest(Mode::Secure, true),
            RtConfig::asan(),
        ] {
            let job = SimJob::new(&FigureRow::of(w), rt.label(), rt.clone(), Scale::Test);
            group.bench_with_input(BenchmarkId::new(w.name(), rt.label()), &job, |b, job| {
                b.iter(|| job.execute().expect("workload exits cleanly"))
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_figure7_shape);
criterion_main!(benches);
