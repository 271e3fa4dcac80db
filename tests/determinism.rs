//! The cross-worker determinism contract of the pipeline.
//!
//! Every stage of a `Pipeline::run` round — per-shot imaging and
//! detection, batched planning, per-shot schedule execution — runs as
//! jobs on the persistent work-stealing pool, with each shot driven by
//! its own derived RNG (`Pipeline::shot_rng`). This suite pins the
//! resulting contract for **all seven planners**:
//!
//! * reports are **bit-identical** for workers ∈ {1, 2, 4, 8} and equal
//!   to running each shot alone through the serial round loop
//!   (`qrm_control::pipeline::reference`);
//! * consecutive rounds at `workers >= 2` spawn **zero** OS threads
//!   (jobs only), while the pool's steal counter is live.
//!
//! Stats note: the global pool's counters are process-wide and tests in
//! this binary run concurrently, so counter assertions here are
//! monotone (strict increase / exact non-increase of spawns), never
//! equalities between deltas.

use std::sync::atomic::{AtomicBool, Ordering};

use atom_rearrange::prelude::*;
use proptest::prelude::*;
use qrm_bench::planner_choices;
use qrm_control::pipeline::{reference, PipelineReport};

fn shots(count: usize, size: usize, fill: f64, seed: u64, target: Rect) -> Vec<Shot> {
    let mut rng = qrm_core::loading::seeded_rng(seed);
    (0..count)
        .map(|_| Shot::new(AtomGrid::random(size, size, fill, &mut rng), target))
        .collect()
}

fn pipeline_for(workers: usize) -> Pipeline {
    Pipeline::new(PipelineConfig {
        workers,
        // Transport loss exercises the executor's RNG draws, the part
        // of a round most sensitive to per-shot stream mixups.
        loss_prob: 0.01,
        max_rounds: 3,
        ..PipelineConfig::default()
    })
}

/// The batch's reports at `workers`, planned by `choice` resolved at
/// the same worker count.
fn run(choice: &PlannerChoice, workers: usize, shots: &[Shot], seed: u64) -> Vec<PipelineReport> {
    pipeline_for(workers)
        .run(&*choice.resolve(workers), shots, seed)
        .unwrap()
        .reports
}

/// Shot `index` alone through the serial round loop, on the stream
/// `Pipeline::run` gives it.
fn serial(choice: &PlannerChoice, shot: &Shot, seed: u64, index: usize) -> PipelineReport {
    let mut rng = Pipeline::shot_rng(seed, index);
    reference::run_serial(&pipeline_for(1), &*choice.resolve(1), shot, &mut rng)
        .unwrap()
        .0
}

/// Forces at least one deterministic steal on the global pool: job A
/// spawns job B onto the deque of whichever thread runs A (worker or
/// helping caller alike own one) and then spins in the scope *body*
/// until B has run. A's thread is busy spinning, so B can only execute
/// via a **steal** by another pool participant — and one always exists
/// (the pool has >= 1 worker and the outermost caller helps). On
/// multi-core hosts the dataflow rounds steal on their own; this makes
/// the counter assertion below deterministic on a 1-core runner too.
fn force_one_steal() {
    rayon::scope(|outer| {
        outer.spawn(|_| {
            let done = AtomicBool::new(false);
            rayon::scope(|inner| {
                inner.spawn(|_| done.store(true, Ordering::Release));
                while !done.load(Ordering::Acquire) {
                    std::thread::yield_now();
                }
            });
        });
    });
}

/// Batched output is bit-identical across workers ∈ {1, 2, 4, 8} for
/// all seven planners, and equal to the serial round loop per shot with
/// the derived RNG.
#[test]
fn run_is_bit_identical_across_worker_counts_for_all_planners() {
    let target = Rect::centered(12, 12, 6, 6).unwrap();
    let shots = shots(3, 12, 0.6, 501, target);
    let base_seed = 4242;
    for (name, choice) in planner_choices() {
        let baseline = run(&choice, 1, &shots, base_seed);
        for (i, shot) in shots.iter().enumerate() {
            let single = serial(&choice, shot, base_seed, i);
            assert_eq!(single, baseline[i], "{name}: shot {i} != batched shot");
        }
        for workers in [2usize, 4, 8] {
            let batched = run(&choice, workers, &shots, base_seed);
            assert_eq!(batched, baseline, "{name}: workers={workers} diverged");
        }
    }
}

/// Batch composition must not leak between shots: a shot's report is
/// the same whether its neighbours finish early, fail to fill, or are
/// absent entirely.
#[test]
fn shot_reports_are_independent_of_batch_composition() {
    let target = Rect::centered(12, 12, 6, 6).unwrap();
    let all = shots(4, 12, 0.6, 777, target);
    let (_, choice) = planner_choices().remove(0);
    let full = run(&choice, 4, &all, 99);
    // Same truth at the same index, different neighbours.
    let trimmed = run(&choice, 4, &all[..2], 99);
    assert_eq!(
        full[..2],
        trimmed[..],
        "dropping later shots changed earlier reports"
    );
}

/// Consecutive dataflow runs at `workers >= 2` spawn zero extra OS
/// threads while `global_pool_stats()` shows nonzero steals.
#[test]
fn sharded_rounds_spawn_no_threads_and_stealing_is_live() {
    let init = rayon::global_pool_stats(); // forces pool initialisation
    let target = Rect::centered(16, 16, 8, 8).unwrap();
    let shots = shots(3, 16, 0.6, 600, target);
    let (_, choice) = planner_choices().remove(0);
    let pipeline = pipeline_for(2);
    let planner = choice.resolve(2);

    let first = pipeline.run(&*planner, &shots, 314).unwrap().reports;
    force_one_steal();
    let mid = rayon::global_pool_stats();
    let second = pipeline.run(&*planner, &shots, 314).unwrap().reports;
    let after = rayon::global_pool_stats();

    assert_eq!(first, second, "same seed, same reports");
    assert_eq!(
        init.threads_spawned, after.threads_spawned,
        "dataflow rounds must only enqueue pool jobs, never spawn threads"
    );
    assert!(
        after.jobs_executed > mid.jobs_executed,
        "workers >= 2 must schedule imaging/planning/execution as pool jobs"
    );
    assert!(
        after.steals > 0,
        "work stealing must be live while rounds run"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Property form of the worker-count contract: for random array
    /// sizes, fills, seeds, and batch sizes, batched reports (plans,
    /// fidelities, round counts, final grids) are bit-identical across
    /// workers ∈ {1, 2, 4} and equal to the serial round loop per shot,
    /// for all seven planners of `qrm_bench::planner_choices()` (the
    /// config twin of `planner_matrix()`).
    #[test]
    fn run_reports_match_the_serial_loop_for_every_planner(
        half in 6usize..9,
        fill in 0.45f64..0.65,
        seed in any::<u64>(),
        count in 1usize..4,
    ) {
        let size = half * 2;
        let side = ((size * 3 / 5) & !1).max(2);
        let target = Rect::centered(size, size, side, side).unwrap();
        let batch = shots(count, size, fill, seed, target);
        let base_seed = seed ^ 0xa5a5;
        for (name, choice) in planner_choices() {
            let baseline = run(&choice, 1, &batch, base_seed);
            for (i, shot) in batch.iter().enumerate() {
                let single = serial(&choice, shot, base_seed, i);
                prop_assert_eq!(&single, &baseline[i], "{}: shot {}", name, i);
            }
            for workers in [2usize, 4] {
                let batched = run(&choice, workers, &batch, base_seed);
                prop_assert_eq!(&batched, &baseline, "{}: workers={}", name, workers);
            }
        }
    }
}
