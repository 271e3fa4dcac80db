//! The long-lived planning service: register all seven planners once,
//! hammer the service with concurrent mixed-planner batch submissions
//! from client threads, and read back per-planner latency histograms
//! and worker-pool counters.
//!
//! Run with: `cargo run --release --example planning_service`

use atom_rearrange::prelude::*;
use qrm_server::SubmitBatch;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // One registration per planner; resolve cost is paid here, never on
    // the submit path. `max_inflight` bounds concurrent planning — the
    // admission gate queues the rest.
    let service = PlanService::builder()
        .max_inflight(2)
        .register_default("qrm", PlannerChoice::Software(QrmConfig::default()), 0)
        .register_default("tetris", PlannerChoice::Tetris, 0)
        .register_default(
            "fpga",
            PlannerChoice::Fpga(AcceleratorConfig::balanced()),
            0,
        )
        .build();

    // Three clients, three submissions each, cycling over the planners.
    let names = ["qrm", "tetris", "fpga"];
    std::thread::scope(|scope| {
        for client in 0..3 {
            let service = &service;
            scope.spawn(move || {
                for batch in 0..3 {
                    let name = names[(client + batch) % names.len()];
                    let spec = BatchSpec::new(2, 16, 100 * client as u64 + batch as u64);
                    let report = service
                        .submit(&SubmitBatch::new(name, spec))
                        .expect("submission");
                    println!(
                        "client {client}: {name:<7} {} shot(s), {} filled, {:>8.0} us",
                        report.shots(),
                        report.filled(),
                        report.wall_us
                    );
                }
            });
        }
    });

    // Determinism: resubmitting a spec returns a bit-identical payload.
    let request = SubmitBatch::new("qrm", BatchSpec::new(2, 16, 7));
    let first = service.submit(&request)?;
    let second = service.submit(&request)?;
    assert_eq!(first.reports, second.reports);

    let stats = service.stats();
    println!(
        "\nserved {} batch(es) / {} shot(s); peak {} inflight, peak {} queued",
        stats.batches_served, stats.shots_served, stats.peak_inflight, stats.peak_queued
    );
    for planner in &stats.planners {
        println!(
            "  {:<7} {} batch(es), mean {:>8.0} us, p99 {:>8.0} us",
            planner.name,
            planner.batches,
            planner.latency.mean_us(),
            planner.latency.quantile_us(0.99),
        );
    }
    println!(
        "pool since service start: {} job(s), {} steal(s), {} thread(s) spawned",
        stats.pool.jobs_executed, stats.pool.steals, stats.pool.threads_spawned
    );
    Ok(())
}
