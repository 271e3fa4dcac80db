//! Service-vs-direct equivalence: the planning service (`qrm_server`)
//! must be a pure throughput/observability layer — every concurrent
//! [`SubmitBatch`] response bit-identical to running the same workload
//! directly through [`Pipeline::run`], for all seven planners, at
//! batch worker counts 1 and 4. (CI runs this suite under both the
//! default pool and `QRM_POOL_THREADS=4`, so both pool sizes are
//! covered.)

use qrm_bench::planner_choices;
use qrm_control::pipeline::{Pipeline, PipelineConfig, PipelineReport, PlannerChoice, Shot};
use qrm_server::{BatchSpec, PlanService, ServiceError, SubmitBatch};

/// The pipeline configuration under test — loss and multi-round repair
/// on, so reports have nontrivial per-round structure to disagree on.
fn config_for(workers: usize) -> PipelineConfig {
    PipelineConfig {
        workers,
        loss_prob: 0.01,
        max_rounds: 3,
        ..PipelineConfig::default()
    }
}

/// A service with all seven planners registered at `workers`.
fn service_for(workers: usize) -> PlanService {
    let mut builder = PlanService::builder().max_inflight(3);
    for (name, choice) in planner_choices() {
        builder = builder.register(name, choice, config_for(workers));
    }
    builder.build()
}

/// The reference: a fresh pipeline (fresh planner, cold contexts)
/// running the spec's workload directly.
fn direct(choice: PlannerChoice, workers: usize, spec: &BatchSpec) -> Vec<PipelineReport> {
    let target = spec.target().expect("valid spec");
    let shots: Vec<Shot> = spec
        .workload()
        .expect("valid spec")
        .truths
        .into_iter()
        .map(|truth| Shot::new(truth, target))
        .collect();
    Pipeline::new(config_for(workers))
        .run(&*choice.resolve(workers), &shots, spec.seed)
        .expect("direct run")
        .reports
}

#[test]
fn concurrent_mixed_submissions_match_direct_runs_for_all_planners() {
    for workers in [1usize, 4] {
        let service = service_for(workers);
        let spec = BatchSpec::new(2, 12, 9100 + workers as u64);
        let expected: Vec<(&'static str, Vec<PipelineReport>)> = planner_choices()
            .into_iter()
            .map(|(name, choice)| (name, direct(choice, workers, &spec)))
            .collect();

        // All seven planners submitted concurrently, twice each, through
        // a gate narrower than the submission count — so submissions
        // queue, interleave, and share each registration's warm planner.
        std::thread::scope(|scope| {
            for (name, want) in &expected {
                for _ in 0..2 {
                    let service = &service;
                    let spec = spec.clone();
                    scope.spawn(move || {
                        let got = service
                            .submit(&SubmitBatch::new(*name, spec))
                            .expect("service submission");
                        assert_eq!(
                            &got.reports, want,
                            "{name} (workers = {workers}): service response \
                             diverged from direct Pipeline::run"
                        );
                    });
                }
            }
        });

        let stats = service.stats();
        assert_eq!(stats.batches_served, 14, "workers = {workers}");
        assert_eq!(stats.shots_served, 28, "workers = {workers}");
        assert!(stats.peak_inflight <= 3, "admission gate must hold");
        assert_eq!(stats.inflight, 0);
        assert_eq!(stats.queued, 0);
    }
}

#[test]
fn repeated_identical_requests_stay_bit_identical_as_contexts_warm() {
    // The same request served cold (first call), warm (after context
    // pooling kicks in), and concurrently must produce one answer.
    // QRM exercises the engine's context pool; FPGA the accelerator's
    // batched path.
    for (name, choice) in [
        ("qrm", planner_choices()[0].1.clone()),
        ("fpga", planner_choices()[6].1.clone()),
    ] {
        let service = PlanService::builder()
            .register(name, choice.clone(), config_for(4))
            .build();
        let request = SubmitBatch::new(name, BatchSpec::new(3, 12, 4242));
        let first = service.submit(&request).expect("cold submission");
        let reference = direct(choice, 4, &request.spec);
        assert_eq!(first.reports, reference, "{name}: cold response");

        std::thread::scope(|scope| {
            for _ in 0..3 {
                let service = &service;
                let request = &request;
                let reference = &reference;
                scope.spawn(move || {
                    let warm = service.submit(request).expect("warm submission");
                    assert_eq!(&warm.reports, reference, "{name}: warm response");
                });
            }
        });
    }
}

#[test]
fn service_reports_warm_contexts_and_latencies_after_load() {
    let service = service_for(2);
    let spec = BatchSpec::new(2, 12, 31);
    for _ in 0..2 {
        service
            .submit(&SubmitBatch::new("qrm", spec.clone()))
            .expect("qrm submission");
    }
    let stats = service.stats();
    let qrm = stats.planners.iter().find(|p| p.name == "qrm").unwrap();
    assert_eq!(qrm.batches, 2);
    assert_eq!(qrm.latency.count(), 2);
    assert!(qrm.latency.mean_us() > 0.0);
    let contexts = qrm
        .contexts
        .expect("QRM registration exposes context stats");
    assert!(
        contexts.idle_contexts >= 1,
        "after serving, the planner's context pool must be warm"
    );
    // Unused registrations stay untouched.
    let tetris = stats.planners.iter().find(|p| p.name == "tetris").unwrap();
    assert_eq!(tetris.batches, 0);
    assert_eq!(tetris.latency.count(), 0);
}

#[test]
fn unknown_planner_and_bad_spec_fail_cleanly_without_counting() {
    let service = service_for(1);
    assert!(matches!(
        service.submit(&SubmitBatch::new("nope", BatchSpec::new(1, 12, 1))),
        Err(ServiceError::UnknownPlanner(_))
    ));
    // Odd-sized arrays are invalid for QRM's quadrant decomposition.
    let odd = SubmitBatch::new("qrm", BatchSpec::new(1, 9, 1).with_fill(0.5));
    assert!(matches!(
        service.submit(&odd),
        Err(ServiceError::Planning(_))
    ));
    let stats = service.stats();
    assert_eq!(stats.batches_served, 0);
    assert_eq!(stats.inflight, 0);
}
