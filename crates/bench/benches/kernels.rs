//! Microbenchmarks of the kernel primitives: bit-line operations, a
//! single kernel pass, a whole kernel run, and the cycle-accurate
//! shift-unit simulation at the headline quadrant size (Qw = 25).

use criterion::{criterion_group, criterion_main, Criterion};
use qrm_core::bitline;
use qrm_core::geometry::Axis;
use qrm_core::grid::AtomGrid;
use qrm_core::kernel::{plan_row_windows, run_pass, KernelConfig, KernelStrategy, ShiftKernel};
use qrm_core::loading::seeded_rng;
use qrm_core::scheduler::QrmConfig;
use qrm_fpga::shift_unit::{LineJob, ShiftUnit};

fn bench_kernels(c: &mut Criterion) {
    let mut group = c.benchmark_group("kernels");
    group.sample_size(30);
    group.measurement_time(std::time::Duration::from_millis(1000));
    group.warm_up_time(std::time::Duration::from_millis(200));

    // bitline suffix shift on a 25-bit quadrant row
    let mut rng = seeded_rng(1);
    let quadrant = AtomGrid::random(25, 25, 0.5, &mut rng);
    group.bench_function("bitline_suffix_shift", |b| {
        let mut bits = quadrant.row_bits(0).to_vec();
        b.iter(|| {
            let mut line = bits.clone();
            if let Some(h) = bitline::lowest_zero_in(&line, 0, 25) {
                bitline::suffix_shift(&mut line, h, 25);
            }
            bits = line.clone();
            line
        })
    });

    // one software kernel pass over a 25x25 quadrant
    let windows = plan_row_windows(&quadrant, KernelStrategy::Greedy, 15, 15);
    group.bench_function("kernel_row_pass_25", |b| {
        b.iter(|| {
            let mut g = quadrant.clone();
            run_pass(&mut g, Axis::Row, &windows, None)
        })
    });

    // the whole kernel on the same quadrant under the paper config: the
    // 15x15 corner target of a 50x50 array's 30x30 target, greedy, four
    // iterations with early exit (one of `experiments fig7a`'s four
    // 50x50 quadrant kernels)
    let paper = QrmConfig::paper();
    let kernel = ShiftKernel::new(
        KernelConfig::new(15, 15)
            .with_strategy(paper.strategy)
            .with_max_iterations(paper.max_iterations),
    );
    group.bench_function("kernel_run_25", |b| {
        b.iter(|| kernel.run(&quadrant).expect("target fits"))
    });

    // the cycle-accurate shift-unit simulation of the row pass
    let jobs: Vec<LineJob> = (0..25)
        .map(|l| LineJob {
            line: l,
            bits: quadrant.row_bits(l).to_vec(),
            window: windows[l],
            enabled: true,
        })
        .collect();
    let unit = ShiftUnit::new(25);
    group.bench_function("shift_unit_sim_25", |b| {
        b.iter(|| unit.run(Axis::Row, &jobs))
    });

    group.finish();
}

criterion_group!(benches, bench_kernels);
criterion_main!(benches);
