//! Allocation budgets of the quadrant kernel, the cross-quadrant merge
//! and a whole one-shot plan.
//!
//! A `ShiftKernel::run` may allocate a constant number of buffers per
//! pass (the pass's one mask buffer, and each balanced row plan's
//! scratch) plus a constant set it reuses across passes.
//! `merge_outcomes` may allocate the one tone buffer of each move it
//! emits, plus a constant set of buffers it reuses from wave to wave and
//! the schedule's amortised growth. A one-shot `plan_batch` adds the
//! decomposition, four kernel runs and the plan to its merge. This
//! binary counts the calling thread's heap allocations with a counting
//! global allocator, so it lives in a test binary of its own.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use qrm_core::engine::{decompose, kernel_config_for};
use qrm_core::geometry::Rect;
use qrm_core::grid::AtomGrid;
use qrm_core::kernel::{KernelConfig, KernelOutcome, KernelStrategy, ShiftKernel};
use qrm_core::loading::seeded_rng;
use qrm_core::merge::{merge_outcomes, MergeConfig};
use qrm_core::planner::Planner;
use qrm_core::quadrant::QuadrantMap;
use qrm_core::scheduler::{QrmConfig, QrmScheduler};

thread_local! {
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

/// Counts `alloc`, `alloc_zeroed` and `realloc` calls per thread.
struct Counting;

fn bump() {
    // `try_with`: the slot is gone while the thread tears down.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call forwards unchanged to `System`; counting touches
// only a const-initialised thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocations() -> usize {
    ALLOCATIONS.with(Cell::get)
}

/// Buffers a merge call may allocate besides its moves: the live and
/// spare grids, the union, line-set and range buffers and the schedule
/// vector, each with a few growth steps.
const CONSTANT: usize = 64;

#[test]
fn merge_allocates_one_tone_buffer_per_move_plus_a_constant() {
    for (size, strategy, iterations) in [
        (16, KernelStrategy::Greedy, 4),
        (50, KernelStrategy::Greedy, 4),
        (50, KernelStrategy::Balanced, 12),
        (90, KernelStrategy::Greedy, 4),
        (90, KernelStrategy::Balanced, 12),
    ] {
        for seed in [1, 2] {
            let grid = AtomGrid::random(size, size, 0.55, &mut seeded_rng(seed));
            let map = QuadrantMap::new(size, size).unwrap();
            let half_target = (size * 3 / 5) / 2;
            let kernel = ShiftKernel::new(
                KernelConfig::new(half_target, half_target)
                    .with_strategy(strategy)
                    .with_max_iterations(iterations),
            );
            let outcomes: Vec<KernelOutcome> = map
                .split(&grid)
                .unwrap()
                .iter()
                .map(|q| kernel.run(q).unwrap())
                .collect();
            let outcomes: [KernelOutcome; 4] = outcomes.try_into().unwrap();
            for merge_quadrants in [true, false] {
                let config = MergeConfig { merge_quadrants };
                let before = allocations();
                let merged = merge_outcomes(&grid, &map, &outcomes, &config).unwrap();
                let spent = allocations() - before;
                let moves = merged.schedule.len();
                assert!(moves > 0, "{size}x{size} seed {seed}: nothing to merge");
                assert!(
                    spent <= moves + CONSTANT,
                    "{size}x{size} {strategy:?} seed {seed} merge {merge_quadrants}: \
                     {spent} allocations for {moves} moves (budget {})",
                    moves + CONSTANT
                );
            }
        }
    }
}

/// Allocations a kernel run may make per pass: the pass's one mask
/// buffer (sized once, so it never grows, and with no wave offsets
/// beside it), plus, once per iteration under the balanced strategy,
/// the row planner's supply counts and line buffer. The row windows and
/// their masks are rebuilt in buffers reused from pass to pass.
const KERNEL_PER_PASS: usize = 2;

/// Allocations a kernel run may make once: the working grid, its
/// transposed planes, the column windows and their masks, the reused
/// row windows, row masks and plane scratch, and the pass list with a
/// few growth steps. Waves need no sort, so there is no sort scratch.
const KERNEL_CONSTANT: usize = 11;

#[test]
fn kernel_allocates_a_constant_per_pass() {
    for side in [16, 50, 90, 130] {
        let target_side = side * 3 / 5 / 2 * 2;
        let target = Rect::centered(side, side, target_side, target_side).unwrap();
        for (name, config) in [
            ("paper greedy", QrmConfig::paper()),
            ("default balanced", QrmConfig::default()),
        ] {
            for seed in [1, 2] {
                let grid = AtomGrid::random(side, side, 0.5, &mut seeded_rng(seed));
                let work = decompose(&grid, &target).unwrap();
                let kernel = ShiftKernel::new(kernel_config_for(&config, &work));
                for quadrant in &work.quadrants {
                    let before = allocations();
                    let outcome = kernel.run(quadrant).unwrap();
                    let spent = allocations() - before;
                    let passes = outcome.passes.len();
                    let budget = KERNEL_PER_PASS * passes + KERNEL_CONSTANT;
                    assert!(
                        spent <= budget,
                        "{side}x{side} {name} seed {seed}: {spent} allocations \
                         for {passes} passes (budget {budget})"
                    );
                }
            }
        }
    }
}

/// Allocations a one-shot 50x50 `plan_batch` may make besides its
/// moves' tone buffers: the four quadrant grids, four kernel runs (one
/// mask buffer per pass plus each run's constant set, no wave offsets,
/// no sort scratch), the merge's constant set and the plan.
const PLAN_SURPLUS: usize = 76;

#[test]
fn one_shot_plan_allocates_one_buffer_per_move_plus_a_bounded_surplus() {
    // The `analysis-50` shot stream: 128 shots at 55 % fill from one
    // seed-1 stream, each with its centred 30x30 target, planned one
    // at a time on the calling thread.
    let planner = QrmScheduler::new(QrmConfig::paper()).with_workers(1);
    let target = Rect::centered(50, 50, 30, 30).unwrap();
    let mut rng = seeded_rng(1);
    let jobs: Vec<(AtomGrid, Rect)> = (0..128)
        .map(|_| (AtomGrid::random(50, 50, 0.55, &mut rng), target))
        .collect();
    planner.plan_batch(&jobs[..1]).unwrap();
    for (k, job) in jobs.iter().enumerate() {
        let before = allocations();
        let plans = planner.plan_batch(std::slice::from_ref(job)).unwrap();
        let spent = allocations() - before;
        let moves = plans[0].schedule.len();
        assert!(
            spent <= moves + PLAN_SURPLUS,
            "shot {k}: {spent} allocations for {moves} moves (budget {})",
            moves + PLAN_SURPLUS
        );
    }
}

#[test]
fn the_counter_sees_this_threads_allocations() {
    let before = allocations();
    let v: Vec<u64> = Vec::with_capacity(8);
    assert_eq!(allocations() - before, 1);
    drop(v);
}
