//! Hardware/software equivalence: the cycle-accurate quadrant processor
//! and the software kernel in static-iterations mode must be bit-exact,
//! and the accelerator, which plans through that kernel and counts
//! cycles in closed form, must report what the simulator does.

use atom_rearrange::prelude::*;
use qrm_core::kernel::{KernelConfig, KernelOutcome, KernelStrategy, ShiftKernel};
use qrm_core::merge::{merge_outcomes, MergeConfig};
use qrm_core::quadrant::QuadrantMap;
use qrm_fpga::accelerator::CycleBreakdown;
use qrm_fpga::qpm::{QpmConfig, QuadrantProcessor};
use rand::Rng;

#[test]
fn qpm_outcome_equals_static_software_kernel() {
    let mut rng = qrm_core::loading::seeded_rng(7001);
    for strategy in [KernelStrategy::Greedy, KernelStrategy::Balanced] {
        for iterations in [2usize, 4, 8] {
            for _ in 0..4 {
                let quadrant = AtomGrid::random(15, 15, 0.5, &mut rng);
                let hw = QuadrantProcessor::new(QpmConfig {
                    target_height: 9,
                    target_width: 9,
                    iterations,
                    strategy,
                })
                .process(&quadrant)
                .unwrap();
                let sw = ShiftKernel::new(
                    KernelConfig::new(9, 9)
                        .with_strategy(strategy)
                        .with_max_iterations(iterations)
                        .with_static_iterations(true),
                )
                .run(&quadrant)
                .unwrap();
                assert_eq!(hw.outcome.passes, sw.passes, "{strategy:?} x{iterations}");
                assert_eq!(hw.outcome.final_grid, sw.final_grid);
                assert_eq!(hw.outcome.filled, sw.filled);
            }
        }
    }
}

#[test]
fn accelerator_schedule_equals_software_static_schedule() {
    // Build the software plan with the same static pass schedule the
    // hardware uses and compare the merged move streams move-by-move.
    let mut rng = qrm_core::loading::seeded_rng(7002);
    for _ in 0..3 {
        let grid = AtomGrid::random(20, 20, 0.5, &mut rng);
        let target = Rect::centered(20, 20, 12, 12).unwrap();

        let accel = QrmAccelerator::new(AcceleratorConfig::paper());
        let hw = accel.run(&grid, &target).unwrap();

        // Software reference: identical kernel configuration.
        let map = QuadrantMap::new(20, 20).unwrap();
        let (th, tw) = map.quadrant_target(&target).unwrap();
        let kernel = ShiftKernel::new(
            KernelConfig::new(th, tw)
                .with_strategy(KernelStrategy::Greedy)
                .with_max_iterations(4)
                .with_static_iterations(true),
        );
        let quads = map.split(&grid).unwrap();
        let outcomes: Vec<_> = quads.iter().map(|q| kernel.run(q).unwrap()).collect();
        let merged = qrm_core::merge::merge_outcomes(
            &grid,
            &map,
            &outcomes.try_into().unwrap(),
            &qrm_core::merge::MergeConfig::default(),
        )
        .unwrap();

        assert_eq!(hw.plan.schedule, merged.schedule);
        assert_eq!(hw.plan.predicted, merged.final_grid);
    }
}

#[test]
fn accelerator_reports_what_the_simulator_does() {
    // Random even rectangular arrays (lines of one or two words) with
    // random even centred targets. The simulator's breakdown is control
    // + input + the slowest of the four quadrant processors + the
    // combine tail, with the write-back of the plan's moves; its plan is
    // the four processors' outcomes merged.
    let mut rng = qrm_core::loading::seeded_rng(7003);
    for case in 0..12 {
        let (height, width) = (2 * rng.gen_range(1..46), 2 * rng.gen_range(1..46));
        let target_height = 2 * rng.gen_range(1..height / 2 + 1);
        let target_width = 2 * rng.gen_range(1..width / 2 + 1);
        let grid = AtomGrid::random(height, width, 0.5, &mut rng);
        let target = Rect::centered(height, width, target_height, target_width).unwrap();
        let map = QuadrantMap::new(height, width).unwrap();
        let (th, tw) = map.quadrant_target(&target).unwrap();
        let quadrants = map.split(&grid).unwrap();
        for config in [AcceleratorConfig::paper(), AcceleratorConfig::balanced()] {
            let report = QrmAccelerator::new(config).run(&grid, &target).unwrap();

            let qpm = QuadrantProcessor::new(QpmConfig {
                target_height: th,
                target_width: tw,
                iterations: config.iterations,
                strategy: config.strategy,
            });
            let simulated: Vec<_> = quadrants.iter().map(|q| qpm.process(q).unwrap()).collect();
            let compute = simulated.iter().map(|r| r.total_cycles).max().unwrap();
            let outcomes: Vec<KernelOutcome> = simulated.into_iter().map(|r| r.outcome).collect();
            let merged = merge_outcomes(
                &grid,
                &map,
                &outcomes.try_into().unwrap(),
                &MergeConfig::default(),
            )
            .unwrap();

            let case = format!("case {case}: {height}x{width} -> {target_height}x{target_width}");
            let expected = CycleBreakdown {
                control: config.control_overhead_cycles,
                input: config.ldm.input_cycles(height, width),
                compute,
                combine: config.ocm.combine_tail_cycles,
                writeback: config
                    .ocm
                    .writeback_cycles(height, width, merged.schedule.len()),
            };
            assert_eq!(report.cycles, expected, "{case} {:?}", config.strategy);
            assert_eq!(report.plan.schedule, merged.schedule, "{case}");
            assert_eq!(report.plan.predicted, merged.final_grid, "{case}");
            assert_eq!(
                report.plan.filled,
                merged.final_grid.is_filled(&target).unwrap(),
                "{case}"
            );
            assert_eq!(report.plan.iterations, config.iterations, "{case}");
        }
    }
}

#[test]
fn fpga_latency_is_content_independent_but_writeback_is_not() {
    let target = Rect::centered(40, 40, 24, 24).unwrap();
    let accel = QrmAccelerator::new(AcceleratorConfig::paper());
    let mut rng = qrm_core::loading::seeded_rng(7004);
    let a = accel.run(&AtomGrid::new(40, 40).unwrap(), &target).unwrap();
    let b = accel
        .run(&AtomGrid::random(40, 40, 0.5, &mut rng), &target)
        .unwrap();
    assert_eq!(a.cycles.analysis(), b.cycles.analysis());
    assert!(a.cycles.writeback <= b.cycles.writeback);
    assert!(b.plan.schedule.len() > a.plan.schedule.len());
}

#[test]
fn resource_model_tracks_paper_figure8() {
    let model = ResourceModel::new();
    let sizes = [10usize, 30, 50, 70, 90];
    let mut last_lut = 0.0;
    for &s in &sizes {
        let u = model.utilization(s);
        assert!(u.lut.percent > last_lut, "LUT% must grow");
        last_lut = u.lut.percent;
        assert!(
            u.lut.percent < 7.0 && u.ff.percent < 7.0,
            "size {s} too big"
        );
    }
    // flat BRAM across 30..90
    let b = model.utilization(30).bram.used;
    for &s in &[50usize, 70, 90] {
        assert_eq!(model.utilization(s).bram.used, b);
    }
    // paper anchors at 90
    let u90 = model.utilization(90);
    assert!((u90.lut.percent - 6.31).abs() < 0.35);
    assert!((u90.ff.percent - 6.19).abs() < 0.35);
}
