//! Batched planning through the parallel task-graph engine: plan a
//! multi-shot workload in one call and verify it is bit-identical to
//! per-shot planning.
//!
//! Run with `cargo run --release --example batch_planning`.

use std::time::Instant;

use atom_rearrange::prelude::*;

fn main() -> Result<(), qrm_core::Error> {
    let size = 50;
    let shots = 16;
    let mut rng = qrm_core::loading::seeded_rng(7);
    let target = Rect::centered(size, size, 30, 30)?;
    let jobs: Vec<(AtomGrid, Rect)> = (0..shots)
        .map(|_| (AtomGrid::random(size, size, 0.5, &mut rng), target))
        .collect();

    // Serial baseline: one plan call per shot.
    let scheduler = QrmScheduler::new(QrmConfig::default());
    let t0 = Instant::now();
    let serial: Vec<_> = jobs
        .iter()
        .map(|(g, t)| scheduler.plan(g, t))
        .collect::<Result<_, _>>()?;
    let serial_ms = t0.elapsed().as_secs_f64() * 1e3;

    // Batched: every shot's quadrant kernels run as jobs on the pool.
    let t0 = Instant::now();
    let batched = scheduler.plan_batch(&jobs)?;
    let batched_ms = t0.elapsed().as_secs_f64() * 1e3;

    assert_eq!(serial, batched, "engine must be bit-identical to serial");
    let filled = batched.iter().filter(|p| p.filled).count();
    let moves: usize = batched.iter().map(|p| p.schedule.len()).sum();
    println!("{shots} shots of {size}x{size} -> centred 30x30");
    println!("  serial mapped plan : {serial_ms:8.1} ms");
    println!("  engine plan_batch  : {batched_ms:8.1} ms  (bit-identical plans)");
    println!("  filled {filled}/{shots}, {moves} parallel moves total");
    Ok(())
}
