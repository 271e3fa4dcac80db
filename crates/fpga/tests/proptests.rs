//! Property-based hardware/software equivalence for the shift unit, and
//! the cycle formula against the quadrant-processor simulator.

use proptest::prelude::*;
use qrm_core::geometry::Axis;
use qrm_core::grid::AtomGrid;
use qrm_core::kernel::{plan_row_windows, run_pass, KernelStrategy};
use qrm_fpga::accelerator::compute_cycles;
use qrm_fpga::qpm::{QpmConfig, QuadrantProcessor};
use qrm_fpga::shift_unit::{LineJob, ShiftUnit};
use rand::SeedableRng;

const STRATEGIES: [KernelStrategy; 3] = [
    KernelStrategy::Greedy,
    KernelStrategy::GreedyTargetOnly,
    KernelStrategy::Balanced,
];

/// Quadrants of independent sides from 2 to 140, so lines span one,
/// two or three `u64` words.
fn arb_quadrant() -> impl Strategy<Value = AtomGrid> {
    (2usize..141, 2usize..141, 0.1f64..0.9, any::<u64>()).prop_map(|(height, width, fill, seed)| {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        AtomGrid::random(height, width, fill, &mut rng)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn shift_unit_is_bit_exact_with_software_pass(
        quadrant in arb_quadrant(),
        strategy_idx in 0usize..3,
    ) {
        let strategy = STRATEGIES[strategy_idx];
        let (height, width) = quadrant.dims();
        let (th, tw) = ((height / 2).max(1), (width / 2).max(1));
        let windows = plan_row_windows(&quadrant, strategy, th, tw);

        let mut sw = quadrant.clone();
        let sw_pass = run_pass(&mut sw, Axis::Row, &windows, None);

        let jobs: Vec<LineJob> = (0..height)
            .map(|l| LineJob {
                line: l,
                bits: quadrant.row_bits(l).to_vec(),
                window: windows.get(l).copied().unwrap_or((0, width)),
                enabled: true,
            })
            .collect();
        let trace = ShiftUnit::new(width).run(Axis::Row, &jobs);
        prop_assert_eq!(trace.to_local_pass(), sw_pass);

        let mut hw = AtomGrid::new(height, width).unwrap();
        for (line, bits) in trace.out_lines() {
            hw.set_row_bits(*line, bits);
        }
        prop_assert_eq!(hw, sw);
        // the pipeline cycle count is static: lines + depth
        prop_assert_eq!(trace.cycles(), (height + width) as u64);
    }

    #[test]
    fn shift_unit_conserves_atoms(quadrant in arb_quadrant()) {
        let (height, width) = quadrant.dims();
        let jobs: Vec<LineJob> = (0..height)
            .map(|l| LineJob {
                line: l,
                bits: quadrant.row_bits(l).to_vec(),
                window: (0, width),
                enabled: true,
            })
            .collect();
        let trace = ShiftUnit::new(width).run(Axis::Row, &jobs);
        let total: usize = trace
            .out_lines()
            .iter()
            .map(|(_, bits)| qrm_core::bitline::count_ones(bits))
            .sum();
        prop_assert_eq!(total, quadrant.atom_count());
    }

    #[test]
    fn compute_cycles_equal_the_quadrant_processor(
        height in 1usize..71,
        width in 1usize..71,
        (th, tw) in (1usize..71, 1usize..71),
        iterations in 0usize..13,
        strategy_idx in 0usize..3,
        seed in any::<u64>(),
    ) {
        // Sides up to 70, so lines span one or two words; targets from
        // one site up to the whole quadrant.
        let (th, tw) = (1 + (th - 1) % height, 1 + (tw - 1) % width);
        let strategy = STRATEGIES[strategy_idx];
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let quadrant = AtomGrid::random(height, width, 0.5, &mut rng);
        let simulated = QuadrantProcessor::new(QpmConfig {
            target_height: th,
            target_width: tw,
            iterations,
            strategy,
        })
        .process(&quadrant)
        .unwrap();
        prop_assert_eq!(
            compute_cycles((height, width), tw, iterations, strategy),
            simulated.total_cycles
        );
    }
}
