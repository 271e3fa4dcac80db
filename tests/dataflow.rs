//! Adversarial-schedule determinism of the shot-level dataflow
//! scheduler (`qrm_core::engine::dataflow` driving `Pipeline::run`).
//!
//! Each shot advances through its own observe → plan → execute task
//! chain, planning is group-formation on readiness, and a fast shot may
//! run round `k + 1` while a slow shot is still planning round `k`. The
//! determinism argument (docs/ARCHITECTURE.md, "Shot-level dataflow")
//! is that per-shot RNG streams and the `plan_batch == mapped plan`
//! planner contract make the schedule unobservable in the reports.
//! This suite attacks that argument directly: it *injects stragglers* —
//! forced stalls of chosen shots at chosen stages of chosen rounds, via
//! the `test-hooks`-only `PipelineConfig::debug_stage_delay` — and
//! asserts the reports stay bit-identical to the serial inline path for
//! any delay placement and any worker count, for every planner.
//!
//! Run under `QRM_POOL_THREADS ∈ {2, 8}` by the CI `dataflow-stress`
//! job, so real preemption gets a chance to reorder tasks too.

use atom_rearrange::prelude::*;
use proptest::prelude::*;
use qrm_bench::planner_choices;
use qrm_control::pipeline::{BatchRun, DelayStage, StageDelay};

fn shots(count: usize, size: usize, fill: f64, seed: u64, target: Rect) -> Vec<Shot> {
    let mut rng = qrm_core::loading::seeded_rng(seed);
    (0..count)
        .map(|_| Shot::new(AtomGrid::random(size, size, fill, &mut rng), target))
        .collect()
}

/// Runs `shots` through a pipeline at `workers` with the given
/// straggler injections, planning with `choice` resolved at the same
/// worker count.
fn run(
    choice: &PlannerChoice,
    workers: usize,
    delays: Vec<StageDelay>,
    shots: &[Shot],
    seed: u64,
) -> BatchRun {
    let pipeline = Pipeline::new(PipelineConfig {
        workers,
        // Transport loss exercises the executor's RNG draws — the part
        // of a round most sensitive to a cross-shot stream mixup under
        // a reordered schedule.
        loss_prob: 0.01,
        max_rounds: 3,
        debug_stage_delay: delays,
        ..PipelineConfig::default()
    });
    pipeline
        .run(&*choice.resolve(workers), shots, seed)
        .unwrap()
}

/// One adversarial placement: every (shot, stage) pair of round `round`
/// is a candidate straggler; `mask` picks a subset.
fn delays_from_mask(shots: usize, round: usize, mask: u32, millis: u64) -> Vec<StageDelay> {
    let stages = [DelayStage::Observe, DelayStage::Plan, DelayStage::Execute];
    let mut delays = Vec::new();
    for shot in 0..shots {
        for (j, &stage) in stages.iter().enumerate() {
            if mask & (1 << (shot * stages.len() + j)) != 0 {
                delays.push(StageDelay {
                    shot,
                    round,
                    stage,
                    millis,
                });
            }
        }
    }
    delays
}

/// The four determinism legs' straggler extension, all seven planners:
/// a fixed adversarial placement (the batch's *first* shot stalls at
/// every stage of every round, so every other shot runs ahead) must
/// leave reports bit-identical to the undelayed single-worker run at
/// workers ∈ {1, 2, 4, 8}.
#[test]
fn straggling_lead_shot_never_changes_reports_for_any_planner() {
    let target = Rect::centered(12, 12, 6, 6).unwrap();
    let shots = shots(3, 12, 0.6, 1501, target);
    let straggler: Vec<StageDelay> = (0..3)
        .flat_map(|round| {
            [DelayStage::Observe, DelayStage::Plan, DelayStage::Execute]
                .into_iter()
                .map(move |stage| StageDelay {
                    shot: 0,
                    round,
                    stage,
                    millis: 2,
                })
        })
        .collect();
    for (name, choice) in planner_choices() {
        let baseline = run(&choice, 1, Vec::new(), &shots, 271).reports;
        for workers in [1usize, 2, 4, 8] {
            let delayed = run(&choice, workers, straggler.clone(), &shots, 271).reports;
            assert_eq!(
                delayed, baseline,
                "{name}: straggling shot 0 at workers={workers} changed reports"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Any delay placement (subset of (shot, stage) pairs in a random
    /// round, random stall length) at any worker count reports
    /// bit-identically to the serial inline path with no delays.
    #[test]
    fn any_straggler_schedule_is_bit_identical_to_serial(
        mask in 0u32..512,          // 3 shots x 3 stages = 9 candidate bits
        round in 0usize..3,
        millis in 1u64..3,
        workers_idx in 0usize..4,
    ) {
        let workers = [1usize, 2, 4, 8][workers_idx];
        let target = Rect::centered(12, 12, 6, 6).unwrap();
        let shots = shots(3, 12, 0.6, 1502, target);
        let (_, choice) = planner_choices().remove(0);
        let baseline = run(&choice, 1, Vec::new(), &shots, 626).reports;
        let delays = delays_from_mask(3, round, mask, millis);
        let delayed = run(&choice, workers, delays, &shots, 626).reports;
        prop_assert_eq!(delayed, baseline);
    }
}

/// Heterogeneous per-shot arrays and targets — the workload shape the
/// skewed benchmark uses — report bit-identically at workers 4 and at
/// the serial inline path.
#[test]
fn heterogeneous_shots_are_bit_identical_across_worker_counts() {
    let mut rng = qrm_core::loading::seeded_rng(88);
    let shots: Vec<Shot> = [(16usize, 8usize), (12, 6), (16, 10), (12, 4)]
        .iter()
        .map(|&(size, side)| {
            Shot::new(
                AtomGrid::random(size, size, 0.65, &mut rng),
                Rect::centered(size, size, side, side).unwrap(),
            )
        })
        .collect();
    let (_, choice) = planner_choices().remove(0);

    let dataflow = run(&choice, 4, Vec::new(), &shots, 909);
    let serial = run(&choice, 1, Vec::new(), &shots, 909);
    assert_eq!(
        dataflow.reports, serial.reports,
        "worker count leaked into reports"
    );

    // Counter sanity: every shot was planned at least once, the task
    // count covers each shot's observe/plan/execute chain plus its
    // terminal observe, and completion stamps exist for every shot.
    let stats = dataflow.stats;
    assert!(stats.planned_shots >= shots.len() as u64);
    assert!(stats.plan_groups >= 1);
    assert!(stats.tasks_dispatched > 2 * stats.planned_shots);
    assert_eq!(dataflow.completion_us.len(), shots.len());
    assert!(dataflow.completion_us.iter().all(|&us| us > 0.0));
}

/// At one worker the scheduler takes the inline path: singleton plan
/// groups, in shot order — `plan_groups == planned_shots`.
#[test]
fn inline_path_plans_singleton_groups() {
    let target = Rect::centered(12, 12, 6, 6).unwrap();
    let shots = shots(2, 12, 0.6, 1601, target);
    let (_, choice) = planner_choices().remove(0);
    let run = run(&choice, 1, Vec::new(), &shots, 33);
    assert_eq!(run.stats.plan_groups, run.stats.planned_shots);
    assert!(run.stats.plan_groups >= shots.len() as u64);
    assert_eq!(run.stats.rounds_overlapped, 0);
    assert_eq!(run.stats.max_shot_lag, 0);
}
