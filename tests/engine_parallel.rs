//! Cross-crate integration: the parallel planning engine must be
//! **bit-identical** to the serial path — schedule, predicted grid,
//! fill flag, and iteration count — for every worker count, every
//! planner that overrides `plan_batch`, and across the full pipeline.

use atom_rearrange::prelude::*;
use proptest::prelude::*;
use qrm_core::scheduler::Plan;
use rand::SeedableRng;

fn workload(n: usize, size: usize, seed: u64) -> Vec<(AtomGrid, Rect)> {
    let mut rng = qrm_core::loading::seeded_rng(seed);
    let side = ((size * 3 / 5) & !1).max(2);
    (0..n)
        .map(|_| {
            (
                AtomGrid::random(size, size, 0.5, &mut rng),
                Rect::centered(size, size, side, side).unwrap(),
            )
        })
        .collect()
}

/// Field-by-field comparison so a mismatch names the differing field
/// instead of dumping two full plans.
fn assert_plans_identical(expected: &Plan, got: &Plan, context: &str) {
    assert_eq!(expected.schedule, got.schedule, "{context}: schedule");
    assert_eq!(
        expected.predicted, got.predicted,
        "{context}: predicted grid"
    );
    assert_eq!(expected.filled, got.filled, "{context}: fill flag");
    assert_eq!(expected.iterations, got.iterations, "{context}: iterations");
}

#[test]
fn parallel_engine_is_bit_identical_across_sizes_and_workers() {
    for (size, shots, seed) in [(10usize, 8usize, 1u64), (20, 6, 2), (50, 4, 3)] {
        let jobs = workload(shots, size, seed);
        let serial = QrmScheduler::new(QrmConfig::default());
        let expected: Vec<Plan> = jobs
            .iter()
            .map(|(g, t)| serial.plan(g, t).unwrap())
            .collect();
        for workers in [1usize, 2, 4, 16] {
            let scheduler = QrmScheduler::new(QrmConfig::default()).with_workers(workers);
            let got = scheduler.plan_batch(&jobs).unwrap();
            assert_eq!(got.len(), expected.len());
            for (i, (e, g)) in expected.iter().zip(&got).enumerate() {
                assert_plans_identical(e, g, &format!("size {size}, workers {workers}, shot {i}"));
            }
        }
    }
}

#[test]
fn engine_covers_every_qrm_configuration() {
    use qrm_core::kernel::KernelStrategy;
    let jobs = workload(4, 20, 11);
    for strategy in [
        KernelStrategy::Greedy,
        KernelStrategy::GreedyTargetOnly,
        KernelStrategy::Balanced,
    ] {
        for merge in [true, false] {
            let config = QrmConfig::default()
                .with_strategy(strategy)
                .with_merge_quadrants(merge);
            let serial = QrmScheduler::new(config.clone());
            let batched = QrmScheduler::new(config).with_workers(4);
            let got = batched.plan_batch(&jobs).unwrap();
            for (i, ((g, t), plan)) in jobs.iter().zip(&got).enumerate() {
                assert_plans_identical(
                    &serial.plan(g, t).unwrap(),
                    plan,
                    &format!("{strategy:?} merge={merge} shot {i}"),
                );
            }
        }
    }
}

#[test]
fn accelerator_batch_matches_serial_model() {
    let jobs = workload(4, 20, 21);
    for cfg in [AcceleratorConfig::paper(), AcceleratorConfig::balanced()] {
        let accel = QrmAccelerator::new(cfg);
        let reports = accel.run_batch(&jobs).unwrap();
        for (i, ((g, t), report)) in jobs.iter().zip(&reports).enumerate() {
            let single = accel.run(g, t).unwrap();
            assert_plans_identical(&single.plan, &report.plan, &format!("fpga shot {i}"));
            assert_eq!(
                single.cycles, report.cycles,
                "fpga shot {i}: modelled cycles must not depend on host parallelism"
            );
        }
    }
}

#[test]
fn batched_plans_execute_exactly_as_predicted() {
    let jobs = workload(6, 20, 31);
    let scheduler = QrmScheduler::new(QrmConfig::default()).with_workers(4);
    let plans = scheduler.plan_batch(&jobs).unwrap();
    for ((grid, _), plan) in jobs.iter().zip(&plans) {
        let report = Executor::new().run(grid, &plan.schedule).unwrap();
        assert_eq!(report.final_grid, plan.predicted);
        assert_eq!(report.final_grid.atom_count(), grid.atom_count());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// `plan_batch` equals mapped `plan` for every planner in the
    /// workspace — the trait-level contract the engine overrides must
    /// honour (serial-default baselines included).
    #[test]
    fn plan_batch_equals_mapped_plan(
        half in 2usize..10,
        fill in 0.3f64..0.7,
        seed in any::<u64>(),
        shots in 1usize..5,
    ) {
        let size = half * 2;
        let side = ((size * 3 / 5) & !1).max(2);
        let target = Rect::centered(size, size, side, side).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let jobs: Vec<(AtomGrid, Rect)> = (0..shots)
            .map(|_| (AtomGrid::random(size, size, fill, &mut rng), target))
            .collect();

        let qrm = QrmScheduler::new(QrmConfig::default());
        let fpga = QrmAccelerator::new(AcceleratorConfig::paper());
        let tetris = TetrisScheduler::default();
        let planners: [&dyn Planner; 3] = [&qrm, &fpga, &tetris];
        for planner in planners {
            let mapped: Result<Vec<Plan>, _> =
                jobs.iter().map(|(g, t)| planner.plan(g, t)).collect();
            let batched = planner.plan_batch(&jobs);
            match (mapped, batched) {
                (Ok(m), Ok(b)) => prop_assert_eq!(m, b, "{} diverged", planner.name()),
                (Err(_), Err(_)) => {}
                (m, b) => prop_assert!(
                    false,
                    "{}: mapped {:?} vs batched {:?}",
                    planner.name(),
                    m.map(|v| v.len()),
                    b.map(|v| v.len())
                ),
            }
        }
    }
}
