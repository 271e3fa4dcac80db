//! The determinism contract's **seventh leg**: hostile-array
//! scenarios.
//!
//! Every [`Scenario`] variant — uniform fill, defect maps, elevated
//! atom loss, multi-zone target lattices, spatially correlated fills —
//! must produce **bit-identical** reports across batch worker counts
//! {1, 2, 4, 8} and across HTTP vs in-process submission, for all
//! seven planners. (CI runs this suite under `QRM_POOL_THREADS ∈
//! {1, 8}`, covering the pool dimension too.)
//!
//! The move-trace export is the leg's independent witness: replaying a
//! shot's exported trace through [`TraceReplayer`] — plain data, no
//! planner, no RNG — must land on the same final occupancy the
//! pipeline reported, proving the reports describe physically
//! realisable move sequences rather than merely agreeing with each
//! other.

use std::sync::Arc;
use std::time::Duration;

use proptest::prelude::*;
use qrm_bench::planner_choices;
use qrm_control::pipeline::{BatchRun, Pipeline, PipelineConfig, PlannerChoice};
use qrm_core::trace::TraceReplayer;
use qrm_server::{BatchSpec, Scenario, SubmitBatch};

/// One representative of every scenario variant, tuned hostile enough
/// to perturb planning (dead sites, forced re-plan rounds, four zones)
/// while staying feasible at the suite's array sizes.
fn variants() -> Vec<(&'static str, Scenario)> {
    vec![
        ("uniform", Scenario::UniformFill),
        (
            "defects",
            Scenario::DefectMap {
                dead_fraction: 0.15,
            },
        ),
        ("loss", Scenario::AtomLoss { loss_prob: 0.08 }),
        ("zones", Scenario::Zones { rows: 2, cols: 2 }),
        (
            "correlated",
            Scenario::CorrelatedFill {
                grain: 2,
                flip_prob: 0.1,
            },
        ),
    ]
}

/// The base pipeline configuration of the suite — loss and multi-round
/// repair on, so reports have nontrivial per-round structure. Scenario
/// overrides (loss probability, round budget) are applied on top by
/// [`qrm_server::Workload::configure`], exactly as the service does.
fn base_config(workers: usize) -> PipelineConfig {
    PipelineConfig {
        workers,
        loss_prob: 0.01,
        max_rounds: 2,
        ..PipelineConfig::default()
    }
}

/// Runs a scenario spec directly through the pipeline, mirroring the
/// service path: expand the workload, apply its config overrides, run
/// its shots.
fn direct(choice: &PlannerChoice, workers: usize, spec: &BatchSpec, trace: bool) -> BatchRun {
    let workload = spec.workload().expect("scenario workload");
    let mut config = workload.configure(&base_config(workers));
    config.record_trace = trace;
    let planner = choice.resolve(config.workers);
    Pipeline::new(config)
        .run(&*planner, &workload.into_shots(), spec.seed)
        .expect("scenario batch")
}

/// The leg's core claim: for every scenario variant and every planner,
/// reports are bit-identical across workers ∈ {1, 2, 4, 8}, each worker
/// count its own dataflow schedule.
#[test]
fn every_scenario_is_bit_identical_across_workers_and_schedules() {
    for (label, scenario) in variants() {
        let spec = BatchSpec::new(2, 16, 1001).with_scenario(scenario);
        for (name, choice) in planner_choices() {
            let baseline = direct(&choice, 1, &spec, false);
            for workers in [2usize, 4, 8] {
                let run = direct(&choice, workers, &spec, false);
                assert_eq!(
                    run.reports, baseline.reports,
                    "{name}/{label}: workers={workers} diverged from serial"
                );
            }
        }
    }
}

/// The independent witness: for every scenario variant and every
/// planner, replaying the exported move trace on the initial grid —
/// with no planner and no RNG in the loop — reproduces the reported
/// final occupancy bit-exactly, and recording the trace does not
/// perturb the reports themselves.
#[test]
fn trace_replay_reproduces_the_final_grid_for_every_planner_and_scenario() {
    for (label, scenario) in variants() {
        let spec = BatchSpec::new(2, 16, 2002).with_scenario(scenario);
        let truths = spec.workload().expect("scenario workload").truths;
        for (name, choice) in planner_choices() {
            let untraced = direct(&choice, 2, &spec, false);
            let traced = direct(&choice, 2, &spec, true);
            assert_eq!(
                traced.reports, untraced.reports,
                "{name}/{label}: recording the trace changed the reports"
            );
            let traces = traced.traces.expect("record_trace produces traces");
            assert_eq!(traces.len(), truths.len());
            for (i, trace) in traces.iter().enumerate() {
                let replayed =
                    TraceReplayer::replay(&truths[i], trace).expect("trace must replay cleanly");
                assert_eq!(
                    replayed, traced.reports[i].final_state,
                    "{name}/{label}: shot {i} replay != reported final grid"
                );
            }
        }
    }
}

/// HTTP vs in-process: the same scenario submission through a loopback
/// `qrm_net::Server` (JSON encode, TCP, HTTP parse, JSON decode) must
/// return reports bit-identical to an in-process `PlanService::submit`
/// of a separately built, identically configured service.
#[test]
fn http_submissions_match_in_process_for_every_scenario() {
    let serve = qrm_bench::ServeConfig {
        workers: 1,
        rounds: 2,
        ..qrm_bench::ServeConfig::default()
    };
    let local = qrm_bench::build_service(&serve);
    let remote = Arc::new(qrm_bench::build_service(&serve));
    let mut server = qrm_net::Server::bind("127.0.0.1:0", remote, qrm_net::NetConfig::default())
        .expect("bind loopback server");
    let addr = server.addr().to_string();
    assert!(
        qrm_bench::wait_for_server(&addr, Duration::from_secs(5)),
        "loopback server never came up"
    );
    let mut client = qrm_net::Client::connect(addr);

    for (label, scenario) in variants() {
        let spec = BatchSpec::new(2, 16, 3003).with_scenario(scenario);
        for (name, _) in planner_choices() {
            let request = SubmitBatch::new(name, spec.clone());
            let expected = local.submit(&request).expect("in-process submission");
            let routed = client.submit(&request).expect("HTTP submission");
            assert_eq!(
                routed.reports, expected.reports,
                "{name}/{label}: HTTP reports diverged from in-process"
            );
            assert!(routed.trace.is_none(), "trace must stay opt-in");
        }
        // The traced form of the same submission travels the wire too,
        // and the decoded trace still replays to the reported grids.
        let traced_request = SubmitBatch::new("qrm", spec.clone()).with_trace(true);
        let traced = client.submit(&traced_request).expect("traced submission");
        let truths = spec.workload().expect("scenario workload").truths;
        let traces = traced.trace.expect("trace requested");
        assert_eq!(traces.len(), truths.len());
        for (i, trace) in traces.iter().enumerate() {
            let replayed =
                TraceReplayer::replay(&truths[i], trace).expect("wire trace must replay");
            assert_eq!(
                replayed, traced.reports[i].final_state,
                "{label}: shot {i} wire-decoded trace replay diverged"
            );
        }
    }
    server.shutdown();
}

/// Builds the proptest case's scenario from its drawn parameters:
/// `kind` picks the variant, the remaining draws parameterise it.
/// Zone geometry stays within what size-12 arrays admit (every
/// divisor lattice of 12 has even tiles of at least 4 sites).
fn drawn_scenario(
    kind: usize,
    dead: f64,
    loss: f64,
    rows: usize,
    cols: usize,
    grain: usize,
    flip: f64,
) -> Scenario {
    match kind {
        0 => Scenario::DefectMap {
            dead_fraction: dead,
        },
        1 => Scenario::AtomLoss { loss_prob: loss },
        2 => Scenario::Zones { rows, cols },
        _ => Scenario::CorrelatedFill {
            grain,
            flip_prob: flip,
        },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Property form of the seventh leg: random defect densities, loss
    /// probabilities, zone lattices, and correlation grains all stay
    /// bit-identical between the serial baseline and workers = 4, and
    /// every shot's exported trace replays to the reported final grid.
    #[test]
    fn random_scenarios_match_the_serial_baseline_and_replay(
        kind in 0usize..4,
        dead in 0.0f64..0.4,
        loss in 0.0f64..0.2,
        rows in 1usize..4,
        cols in 1usize..4,
        grain in 1usize..4,
        flip in 0.0f64..0.3,
        seed in any::<u64>(),
    ) {
        let scenario = drawn_scenario(kind, dead, loss, rows, cols, grain, flip);
        let spec = BatchSpec::new(2, 12, seed).with_scenario(scenario);
        let truths = spec.workload().expect("drawn workload").truths;
        for (name, choice) in planner_choices() {
            let baseline = direct(&choice, 1, &spec, true);
            let sharded = direct(&choice, 4, &spec, true);
            prop_assert_eq!(
                &sharded.reports, &baseline.reports,
                "{}: workers=4 diverged from serial", name
            );
            prop_assert_eq!(
                &sharded.traces, &baseline.traces,
                "{}: traces diverged across worker counts", name
            );
            let traces = baseline.traces.as_ref().expect("traced run");
            for (i, trace) in traces.iter().enumerate() {
                let replayed = TraceReplayer::replay(&truths[i], trace)
                    .expect("drawn trace must replay cleanly");
                prop_assert_eq!(
                    &replayed, &baseline.reports[i].final_state,
                    "{}: shot {} replay diverged", name, i
                );
            }
        }
    }
}
