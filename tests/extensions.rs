//! Integration coverage for the library extensions: the hybrid
//! QRM+repair scheduler, the movement-record codec as the accelerator's
//! output contract, rectangular arrays/targets, and non-uniform loading.

use atom_rearrange::prelude::*;
use qrm_baselines::hybrid::{hybrid_executor, HybridScheduler};
use qrm_core::codec;
use qrm_core::loading::FillProfile;

#[test]
fn hybrid_reaches_full_assembly_at_headline_scale() {
    let mut rng = qrm_core::loading::seeded_rng(700);
    let mut filled = 0;
    let mut tried = 0;
    let hybrid = HybridScheduler::paper_qrm();
    for _ in 0..6 {
        let grid = LoadModel::new(0.5)
            .load_at_least(50, 50, 990, 64, &mut rng)
            .unwrap();
        tried += 1;
        let target = Rect::centered(50, 50, 30, 30).unwrap();
        let plan = hybrid.plan(&grid, &target).unwrap();
        let report = hybrid_executor().run(&grid, &plan.schedule).unwrap();
        assert_eq!(report.final_grid, plan.predicted);
        filled += usize::from(plan.filled);
    }
    assert!(
        filled * 10 >= tried * 9,
        "hybrid filled only {filled}/{tried} at 50x50"
    );
}

#[test]
fn codec_stream_drives_the_awg_end_to_end() {
    // The accelerator's output contract: plan -> encoded record stream ->
    // decoded schedule -> AWG program -> execution. Everything downstream
    // must see exactly the planner's moves.
    let mut rng = qrm_core::loading::seeded_rng(701);
    let grid = AtomGrid::random(30, 30, 0.5, &mut rng);
    let target = Rect::centered(30, 30, 18, 18).unwrap();
    let report = QrmAccelerator::new(AcceleratorConfig::balanced())
        .run(&grid, &target)
        .unwrap();

    let stream = codec::encode(&report.plan.schedule).unwrap();
    // the FPGA write-back cost model and the codec agree on the size
    assert_eq!(
        stream.len(),
        codec::encoded_bits(30, 30, report.plan.schedule.len()).div_ceil(8)
    );
    let decoded = codec::decode(&stream).unwrap();
    assert_eq!(decoded, report.plan.schedule);

    let program = ToneProgram::compile(
        &decoded,
        &AodCalibration::default(),
        &MotionModel::typical(),
    )
    .unwrap();
    assert_eq!(program.segments().len(), decoded.len());

    let exec = Executor::new().run(&grid, &decoded).unwrap();
    assert_eq!(exec.final_grid, report.plan.predicted);
}

#[test]
fn rectangular_arrays_and_targets() {
    // QRM supports rectangular arrays and rectangular centred targets as
    // long as everything splits evenly across quadrants.
    let mut rng = qrm_core::loading::seeded_rng(702);
    let grid = LoadModel::new(0.55)
        .load_at_least(24, 40, 400, 64, &mut rng)
        .unwrap();
    let target = Rect::centered(24, 40, 14, 24).unwrap();
    let plan = QrmScheduler::new(QrmConfig::default())
        .plan(&grid, &target)
        .unwrap();
    let report = Executor::new().run(&grid, &plan.schedule).unwrap();
    assert_eq!(report.final_grid, plan.predicted);
    assert!(plan.filled, "{} defects", plan.defects(&target).unwrap());

    // The cycle-accurate accelerator handles the same instance.
    let accel = QrmAccelerator::new(AcceleratorConfig::balanced());
    let hw = accel.run(&grid, &target).unwrap();
    let exec = Executor::new().run(&grid, &hw.plan.schedule).unwrap();
    assert_eq!(exec.final_grid, hw.plan.predicted);
    assert!(hw.time_us > 0.0);
}

#[test]
fn radial_falloff_loading_still_assembles() {
    // Beam-intensity roll-off concentrates atoms near the centre — the
    // favourable case for a centred target; QRM must handle the
    // non-uniform distribution.
    let mut rng = qrm_core::loading::seeded_rng(703);
    let model = LoadModel::new(0.6).with_profile(FillProfile::RadialFalloff { edge_factor: 0.5 });
    let mut filled = 0;
    for _ in 0..5 {
        let grid = model.load(30, 30, &mut rng).unwrap();
        let target = Rect::centered(30, 30, 16, 16).unwrap();
        if grid
            .count_in(&Rect::centered(30, 30, 30, 30).unwrap())
            .unwrap()
            < target.area() + 40
        {
            continue;
        }
        let plan = QrmScheduler::new(QrmConfig::default())
            .plan(&grid, &target)
            .unwrap();
        filled += usize::from(plan.filled);
        let report = Executor::new().run(&grid, &plan.schedule).unwrap();
        assert_eq!(report.final_grid, plan.predicted);
    }
    assert!(filled >= 3, "filled only {filled}/5 under radial falloff");
}

#[test]
fn sen_masking_blocks_selected_lines_globally() {
    // The paper's manual-control mechanism: masked rows never shift in
    // row passes; their atoms may still move vertically.
    use qrm_core::geometry::Position;
    use qrm_core::kernel::{KernelConfig, KernelStrategy, ShiftKernel};
    let mut rng = qrm_core::loading::seeded_rng(704);
    let quadrant = AtomGrid::random(10, 10, 0.5, &mut rng);
    let mut cfg = KernelConfig::new(6, 6).with_strategy(KernelStrategy::Greedy);
    cfg.row_enable = Some(vec![false; 10]); // block every row
    cfg.col_enable = Some(vec![false; 10]); // and every column
    let out = ShiftKernel::new(cfg).run(&quadrant).unwrap();
    assert_eq!(out.shift_count(), 0, "fully masked kernel must not move");
    assert_eq!(out.final_grid, quadrant);
    // partially masked: only unmasked rows fire in row passes
    let mut cfg = KernelConfig::new(6, 6).with_strategy(KernelStrategy::Greedy);
    let mask: Vec<bool> = (0..10).map(|r| r % 2 == 0).collect();
    cfg.row_enable = Some(mask.clone());
    cfg.col_enable = Some(vec![false; 10]);
    let out = ShiftKernel::new(cfg).run(&quadrant).unwrap();
    for pass in &out.passes {
        for wave in pass.waves() {
            qrm_core::bitline::for_each_one(wave, |line| {
                assert!(mask[line], "masked line {line} fired");
            });
        }
    }
    // masked rows' atoms did not move at all (columns disabled too)
    for p in quadrant.occupied() {
        if !mask[p.row] {
            let still_there = out.final_grid.get(Position::new(p.row, p.col)).unwrap();
            // the atom may have been *received* sideways? no: its row is
            // masked and columns are disabled, and unmasked rows only
            // move their own atoms within their row.
            assert!(still_there, "atom at {p} moved despite masking");
        }
    }
}

#[test]
fn loss_and_ejection_accounting_is_consistent() {
    use qrm_core::executor::CollisionPolicy;
    let mut rng = qrm_core::loading::seeded_rng(705);
    let grid = AtomGrid::random(20, 20, 0.55, &mut rng);
    let target = Rect::centered(20, 20, 12, 12).unwrap();
    let plan = QrmScheduler::new(QrmConfig::default())
        .plan(&grid, &target)
        .unwrap();
    let exec = Executor::new()
        .with_collision_policy(CollisionPolicy::Eject)
        .run_with_loss(&grid, &plan.schedule, 0.05, &mut rng)
        .unwrap();
    // conservation: initial = final + lost + ejected
    assert_eq!(
        grid.atom_count(),
        exec.final_grid.atom_count() + exec.lost_atoms + exec.ejected_atoms
    );
    assert!(exec.lost_atoms > 0, "5% loss over hundreds of moves");
}
