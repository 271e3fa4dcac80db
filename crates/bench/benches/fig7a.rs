//! Criterion bench for Fig. 7(a): software QRM analysis time across
//! array sizes, plus the wall-clock cost of the cycle-accurate FPGA
//! simulation (note: the *modelled* FPGA latency is printed by the
//! `experiments` binary; this bench measures simulator throughput).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use qrm_bench::paper_instance;
use qrm_core::planner::Planner;
use qrm_core::scheduler::{QrmConfig, QrmScheduler};
use qrm_fpga::accelerator::{AcceleratorConfig, QrmAccelerator};

fn bench_fig7a(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig7a");
    group.sample_size(20);
    group.measurement_time(std::time::Duration::from_millis(1200));
    group.warm_up_time(std::time::Duration::from_millis(300));

    let scheduler = QrmScheduler::new(QrmConfig::paper());
    let accel = QrmAccelerator::new(AcceleratorConfig::paper());
    for size in [10usize, 30, 50, 70, 90] {
        let (grid, target) = paper_instance(size, 1000 + size as u64);
        group.bench_with_input(BenchmarkId::new("cpu_qrm", size), &size, |b, _| {
            b.iter(|| scheduler.plan(&grid, &target).expect("plan"))
        });
        group.bench_with_input(BenchmarkId::new("fpga_sim", size), &size, |b, _| {
            b.iter(|| accel.run(&grid, &target).expect("run"))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_fig7a);
criterion_main!(benches);
