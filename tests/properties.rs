//! Property-based integration tests (proptest) over randomly generated
//! instances: planner invariants, hardware/software equivalence, and
//! encoding round trips.

use atom_rearrange::prelude::*;
use proptest::prelude::*;
use qrm_core::kernel::KernelStrategy;
use rand::SeedableRng;

/// Strategy: an even-sized square grid with independent per-site fill.
fn arb_grid() -> impl Strategy<Value = AtomGrid> {
    (2usize..12, 0.2f64..0.8, any::<u64>()).prop_map(|(half, fill, seed)| {
        let size = half * 2;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        AtomGrid::random(size, size, fill, &mut rng)
    })
}

/// A centred even target at the paper's ~60% linear fraction (the
/// evaluated operating regime: the target claims ~36% of the sites at
/// ~50% fill).
fn target_for(grid: &AtomGrid) -> Rect {
    let side = ((grid.height() * 3 / 5) & !1).max(2);
    Rect::centered(grid.height(), grid.width(), side, side).expect("fits")
}

/// Regression corpus pinning the balanced planner's *current* fill
/// behaviour on tight-supply instances (minimum per-quadrant margin
/// 1.17x–1.33x — well below the 1.5x margin the probabilistic property
/// below guarantees). The property's 50% margin reflects the parking
/// heuristic's worst case, but these specific instances fill today; a
/// planner regression anywhere in the 1.125x–1.5x band breaks this
/// test even though the property above stays green.
#[test]
fn tight_supply_corpus_still_fills() {
    let corpus: [(usize, u64); 15] = [
        (8, 5),
        (8, 9),
        (8, 10),
        (12, 0),
        (12, 3),
        (12, 6),
        (16, 39),
        (16, 242),
        (16, 293),
        (20, 0),
        (20, 1),
        (20, 2),
        (30, 0),
        (30, 1),
        (30, 2),
    ];
    for (size, seed) in corpus {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let grid = AtomGrid::random(size, size, 0.5, &mut rng);
        let target = target_for(&grid);
        let plan = QrmScheduler::new(QrmConfig::default())
            .plan(&grid, &target)
            .unwrap();
        assert!(
            plan.filled,
            "regression: tight-supply instance (size {size}, seed {seed}) no longer fills \
             ({:?} defects)",
            plan.defects(&target)
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn qrm_plan_always_executes_and_conserves(grid in arb_grid()) {
        let target = target_for(&grid);
        let plan = QrmScheduler::new(QrmConfig::default()).plan(&grid, &target).unwrap();
        let report = Executor::new().run(&grid, &plan.schedule).unwrap();
        prop_assert_eq!(&report.final_grid, &plan.predicted);
        prop_assert_eq!(report.final_grid.atom_count(), grid.atom_count());
        for mv in &plan.schedule {
            prop_assert!(mv.is_axis_aligned());
            prop_assert_eq!(mv.step(), 1);
        }
        // Enough atoms in EVERY quadrant -> defect-free. (QRM never moves
        // atoms across quadrant boundaries — the price of the 4-way
        // decomposition — so feasibility is per-quadrant, not global.)
        // The balanced kernel's parking heuristic is not a complete
        // transportation solver: with tight supply it can flush atoms
        // west past a column whose deficit only materialises later. A
        // 50% surplus absorbs every such mis-parking in practice
        // (0 failures in ~70k sampled instances at >=1.45x supply).
        let map = qrm_core::quadrant::QuadrantMap::new(grid.height(), grid.width()).unwrap();
        let per_quadrant_need = target.area() / 4;
        let supplied = map.split(&grid).unwrap().iter().all(|q| {
            q.atom_count() * 2 >= per_quadrant_need * 3 // 50% margin
        });
        if supplied {
            prop_assert!(plan.filled, "defects {:?}", plan.defects(&target));
        }
    }

    #[test]
    fn fpga_equals_software_on_random_instances(grid in arb_grid()) {
        let target = target_for(&grid);
        for (strategy, iters) in [(KernelStrategy::Greedy, 4usize), (KernelStrategy::Balanced, 8)] {
            let accel = QrmAccelerator::new(
                AcceleratorConfig::paper()
                    .with_strategy(strategy)
                    .with_iterations(iters),
            );
            let hw = accel.run(&grid, &target).unwrap();
            let exec = Executor::new().run(&grid, &hw.plan.schedule).unwrap();
            prop_assert_eq!(&exec.final_grid, &hw.plan.predicted);
        }
    }

    #[test]
    fn kernel_moves_atoms_only_toward_centre(grid in arb_grid()) {
        // Global invariant: QRM never increases any atom's distance to
        // the array centre along either axis.
        let target = target_for(&grid);
        let plan = QrmScheduler::new(QrmConfig::default()).plan(&grid, &target).unwrap();
        let h = grid.height() as f64;
        let centre = (h - 1.0) / 2.0;
        let spread = |g: &AtomGrid| -> f64 {
            g.occupied()
                .map(|p| (p.row as f64 - centre).abs() + (p.col as f64 - centre).abs())
                .sum()
        };
        prop_assert!(spread(&plan.predicted) <= spread(&grid) + 1e-9);
    }

    #[test]
    fn bitfield_roundtrip(grid in arb_grid()) {
        let bytes = grid.to_bitfield();
        let back = AtomGrid::from_bitfield(grid.height(), grid.width(), &bytes).unwrap();
        prop_assert_eq!(back, grid);
    }

    #[test]
    fn tetris_plan_always_executes(grid in arb_grid()) {
        let target = target_for(&grid);
        let plan = TetrisScheduler::default().plan(&grid, &target).unwrap();
        let report = Executor::new().run(&grid, &plan.schedule).unwrap();
        prop_assert_eq!(&report.final_grid, &plan.predicted);
        prop_assert_eq!(report.final_grid.atom_count(), grid.atom_count());
    }

    #[test]
    fn awg_program_covers_every_move(grid in arb_grid()) {
        let target = target_for(&grid);
        let plan = QrmScheduler::new(QrmConfig::default()).plan(&grid, &target).unwrap();
        let program = ToneProgram::compile(
            &plan.schedule,
            &AodCalibration::default(),
            &MotionModel::typical(),
        ).unwrap();
        prop_assert_eq!(program.segments().len(), plan.schedule.len());
        // per-segment duration follows the motion model exactly
        for (seg, mv) in program.segments().iter().zip(&plan.schedule) {
            let expect = MotionModel::typical().move_duration_us(mv);
            prop_assert!((seg.duration_us - expect).abs() < 1e-9);
        }
    }

    #[test]
    fn detection_is_exact_at_high_snr(grid in arb_grid()) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
        let layout = TrapLayout::new(grid.height(), grid.width(), 6.0, 4.0);
        let frame = render(&grid, &layout, &ImagingConfig::default(), &mut rng);
        let report = Detector::default().detect(&frame, &layout).unwrap();
        // Otsu needs both classes present; skip degenerate frames.
        if grid.atom_count() > 0 && grid.atom_count() < grid.area() {
            prop_assert_eq!(&report.grid, &grid);
        }
    }
}
