//! Integration tests for the persistent worker pool: after one-time
//! pool initialisation, batched planning must never spawn OS threads
//! again, and a long-lived scheduler must give the same plans as a
//! fresh one and as the serial path — on repeated, concurrent, and
//! differently shaped batches.

use atom_rearrange::prelude::*;
use qrm_core::scheduler::Plan;

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

#[test]
fn pipeline_rounds_spawn_zero_threads_after_pool_init() {
    // Two consecutive `Pipeline::run` batches with `workers >= 2`
    // spawn zero new OS threads after pool init, observable through the
    // pool stats counter.
    let init = rayon::global_pool_stats(); // forces pool initialisation
    assert_eq!(init.threads as u64, init.threads_spawned);

    let mut rng = qrm_core::loading::seeded_rng(60);
    let target = Rect::centered(16, 16, 8, 8).unwrap();
    let shots: Vec<Shot> = (0..3)
        .map(|_| Shot::new(AtomGrid::random(16, 16, 0.6, &mut rng), target))
        .collect();
    let pipeline = Pipeline::new(PipelineConfig {
        workers: 2,
        ..PipelineConfig::default()
    });
    let planner = PlannerChoice::default().resolve(2);

    let first = pipeline.run(&*planner, &shots, 101).unwrap().reports;
    let before = rayon::global_pool_stats();
    let second = pipeline.run(&*planner, &shots, 101).unwrap().reports;
    let after = rayon::global_pool_stats();

    assert_eq!(first, second, "same seed, same reports");
    assert_eq!(
        before.threads_spawned, after.threads_spawned,
        "a planning round must only enqueue pool jobs, never spawn threads"
    );
    assert!(
        after.jobs_executed > before.jobs_executed,
        "workers >= 2 must actually schedule engine workers on the pool"
    );
}

#[test]
fn plan_context_reuse_is_bit_identical_and_actually_reuses() {
    // One scheduler planning the same batch twice, a fresh scheduler,
    // and the serial planner all agree.
    let jobs = workload(4, 20, 71);
    let scheduler = QrmScheduler::new(QrmConfig::default()).with_workers(2);
    let first = scheduler.plan_batch(&jobs).unwrap();
    let repeated = scheduler.plan_batch(&jobs).unwrap();
    let fresh = QrmScheduler::new(QrmConfig::default())
        .with_workers(2)
        .plan_batch(&jobs)
        .unwrap();
    let serial = QrmScheduler::new(QrmConfig::default());
    let expected: Vec<Plan> = jobs
        .iter()
        .map(|(g, t)| serial.plan(g, t).unwrap())
        .collect();

    assert_eq!(first, repeated, "a repeated batch changed results");
    assert_eq!(first, fresh, "a fresh scheduler changed results");
    assert_eq!(first, expected, "pooled path diverged from serial");
}

#[test]
fn plan_context_reuse_covers_the_inline_serial_path() {
    // workers == 1 takes the inline path; repeated batches through it
    // must be bit-identical too.
    let jobs = workload(3, 16, 72);
    let scheduler = QrmScheduler::new(QrmConfig::default()).with_workers(1);
    let first = scheduler.plan_batch(&jobs).unwrap();
    let second = scheduler.plan_batch(&jobs).unwrap();
    assert_eq!(first, second);
}

#[test]
fn scheduler_internal_context_survives_varied_batches() {
    // One long-lived scheduler (the Pipeline usage pattern) planning
    // batches of different sizes and grid dimensions, each equal to
    // per-shot planning.
    let scheduler = QrmScheduler::new(QrmConfig::default()).with_workers(2);
    for (n, size, seed) in [
        (4usize, 20usize, 80u64),
        (2, 16, 81),
        (5, 20, 82),
        (1, 30, 83),
    ] {
        let jobs = workload(n, size, seed);
        let batched = scheduler.plan_batch(&jobs).unwrap();
        for (i, (grid, target)) in jobs.iter().enumerate() {
            let single = scheduler.plan(grid, target).unwrap();
            assert_eq!(single, batched[i], "size {size}, shot {i}");
        }
    }
}

#[test]
fn concurrent_batches_each_get_a_warm_context() {
    // Concurrent batches on one scheduler share the pool; each gets the
    // plans a lone batch gets.
    let jobs = workload(3, 16, 95);
    let scheduler = QrmScheduler::new(QrmConfig::default()).with_workers(2);
    let expected = scheduler.plan_batch(&jobs).unwrap();
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..2)
            .map(|_| s.spawn(|| scheduler.plan_batch(&jobs).unwrap()))
            .collect();
        for handle in handles {
            assert_eq!(
                handle.join().unwrap(),
                expected,
                "a concurrent batch changed plans"
            );
        }
    });
}

#[test]
fn fpga_batches_reuse_the_pool_too() {
    let jobs = workload(3, 16, 90);
    let accel = QrmAccelerator::new(AcceleratorConfig::balanced()).with_workers(2);
    let first = accel.run_batch(&jobs).unwrap();
    let before = rayon::global_pool_stats();
    let second = accel.run_batch(&jobs).unwrap();
    let after = rayon::global_pool_stats();
    assert_eq!(first, second);
    assert_eq!(before.threads_spawned, after.threads_spawned);
}
