//! Integration tests for the persistent worker pool and the reusable
//! [`PlanContext`]: after one-time pool initialisation, batched planning
//! must never spawn OS threads again, and scratch reuse must be
//! invisible in the results — fresh context, warm context, and the
//! serial path all produce bit-identical plans.

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
    let jobs = workload(4, 20, 71);
    let engine = PlanEngine::new(QrmConfig::default()).with_workers(2);

    let mut ctx = PlanContext::new();
    let fresh = engine.plan_batch_in(&mut ctx, &jobs).unwrap();
    assert!(
        ctx.idle_states() > 0,
        "a completed batch must park recycled kernel scratch in the context"
    );
    let warm = engine.plan_batch_in(&mut ctx, &jobs).unwrap();

    // Independent engines (cold contexts) and the serial planner agree.
    let independent = PlanEngine::new(QrmConfig::default())
        .with_workers(2)
        .plan_batch(&jobs)
        .unwrap();
    let serial = QrmScheduler::new(QrmConfig::default());
    let expected: Vec<Plan> = jobs
        .iter()
        .map(|(g, t)| serial.plan(g, t).unwrap())
        .collect();

    assert_eq!(fresh, warm, "warm context changed results");
    assert_eq!(fresh, independent, "context reuse changed results");
    assert_eq!(fresh, expected, "pooled path diverged from serial");
}

#[test]
fn plan_context_reuse_covers_the_inline_serial_path() {
    // workers == 1 takes the inline path; scratch recycling must be
    // bit-identical there too.
    let jobs = workload(3, 16, 72);
    let engine = PlanEngine::new(QrmConfig::default()).with_workers(1);
    let mut ctx = PlanContext::new();
    let first = engine.plan_batch_in(&mut ctx, &jobs).unwrap();
    assert!(ctx.idle_states() > 0);
    let second = engine.plan_batch_in(&mut ctx, &jobs).unwrap();
    assert_eq!(first, second);
}

#[test]
fn scheduler_internal_context_survives_varied_batches() {
    // One long-lived scheduler (the Pipeline usage pattern) planning
    // batches of different sizes and grid dimensions: recycled scratch
    // from a 20x20 round must be correctly resized for a 16x16 round.
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
    // The engine keeps a *pool* of contexts: a lone batch parks one
    // warm context; concurrent batches each check out their own (the
    // overflow caller gets a fresh context that is then parked too), so
    // a steady stream of concurrent callers stops planning cold. The
    // old behaviour — try_lock with a cold-context fallback — left
    // every loser of the race allocating from scratch.
    let jobs = workload(3, 16, 95);
    let engine = PlanEngine::new(QrmConfig::default()).with_workers(2);
    let expected = engine.plan_batch(&jobs).unwrap();
    assert_eq!(engine.idle_contexts(), 1, "one batch parks one context");
    assert!(
        engine.warm_states() > 0,
        "the parked context must hold recycled kernel scratch"
    );

    std::thread::scope(|s| {
        let handles: Vec<_> = (0..2)
            .map(|_| s.spawn(|| engine.plan_batch(&jobs).unwrap()))
            .collect();
        for handle in handles {
            assert_eq!(
                handle.join().unwrap(),
                expected,
                "context checkout must not change plans"
            );
        }
    });
    let idle = engine.idle_contexts();
    assert!(
        (1..=2).contains(&idle),
        "concurrent batches park their contexts back (got {idle})"
    );
    assert!(engine.warm_states() > 0, "parked contexts stay warm");
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
