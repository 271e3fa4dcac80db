//! Per-layer instrumentation from outside the program: named spans
//! around the calls the benchmark makes, and replays of whole layers
//! through their public stage functions on the same inputs and RNG
//! streams (`Pipeline::shot_rng`), checked bit for bit against what the
//! layer itself returned. Shared summaries of outputs (quality, digest,
//! FPGA cycles) live here too.

use std::collections::BTreeMap;
use std::time::Instant;

use qrm_control::awg::{AodCalibration, ToneProgram};
use qrm_control::pipeline::{Pipeline, PipelineConfig, PipelineReport, RoundReport};
use qrm_core::engine::{decompose, kernel_config_for, merge_shot, validate_shot};
use qrm_core::executor::CollisionPolicy;
use qrm_core::geometry::Rect;
use qrm_core::grid::AtomGrid;
use qrm_core::kernel::{KernelOutcome, ShiftKernel};
use qrm_core::merge::MergeConfig;
use qrm_core::planner::Planner;
use qrm_core::scheduler::{Plan, QrmConfig, QrmScheduler};
use qrm_fpga::accelerator::{AcceleratorConfig, QrmAccelerator};
use qrm_server::{SchedulerTotals, SubmitBatch};
use qrm_vision::prelude::{render, TrapLayout};
use qrm_wire::ToJson;
use rand::rngs::StdRng;

use crate::measure::{fnv1a, median, FNV_OFFSET};

/// Accumulated span times (µs) and counts, by name.
#[derive(Default)]
pub struct Spans {
    totals: BTreeMap<&'static str, f64>,
}

impl Spans {
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let t0 = Instant::now();
        let out = f();
        self.add(name, t0.elapsed().as_secs_f64() * 1e6);
        out
    }

    pub fn add(&mut self, name: &'static str, value: f64) {
        *self.totals.entry(name).or_default() += value;
    }

    pub fn get(&self, name: &str) -> f64 {
        self.totals.get(name).copied().unwrap_or(0.0)
    }
}

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// Per-layer metrics read straight off spans, as per-op means.
const SPAN_METRICS: [(&str, &str); 17] = [
    ("core.decompose_us", "core.decompose"),
    ("core.kernel_us", "core.kernel"),
    ("core.merge_us", "core.merge"),
    ("core.validate_us", "core.validate"),
    ("core.kernel_iterations", "core.kernel_iterations"),
    ("core.moves", "core.moves"),
    ("vision.render_us", "vision.render"),
    ("vision.detect_us", "vision.detect"),
    ("control.compile_us", "control.compile"),
    ("core.execute_us", "core.execute"),
    ("core.atom_moves", "core.atom_moves"),
    ("pool.steals", "pool.steals"),
    ("pool.jobs_executed", "pool.jobs_executed"),
    ("server.overhead_us", "server.overhead"),
    ("wire.encode_us", "wire.encode"),
    ("wire.decode_us", "wire.decode"),
    ("wire.response_bytes", "wire.response_bytes"),
];

/// The per-layer values every traced run shares: span means per op and
/// the engine's overhead over the four core stages.
pub fn layer_values(spans: &Spans, ops: f64) -> BTreeMap<&'static str, f64> {
    let mut values: BTreeMap<&'static str, f64> = SPAN_METRICS
        .iter()
        .map(|&(metric, span)| (metric, spans.get(span) / ops))
        .collect();
    values.insert(
        "engine.overhead_us",
        (spans.get("engine.plan_batch") - core_stage_us(spans)) / ops,
    );
    values
}

/// Adds the global pool's activity since `before`, taken just before a
/// timed op, to the op's spans. Only the op itself runs pool jobs in
/// that window: the client is closed loop and the server is idle
/// between ops.
pub fn add_pool_activity(spans: &mut Spans, before: &rayon::PoolStats) {
    let pool = rayon::global_pool_stats().since(before);
    spans.add("pool.steals", pool.steals as f64);
    spans.add("pool.jobs_executed", pool.jobs_executed as f64);
}

/// The dataflow scheduler's counters over a traced phase of a service.
pub fn scheduler_values(
    before: &SchedulerTotals,
    after: &SchedulerTotals,
    ops: f64,
    values: &mut BTreeMap<&'static str, f64>,
) {
    let groups = after.plan_groups - before.plan_groups;
    let planned = after.planned_shots - before.planned_shots;
    values.insert(
        "engine.mean_group_size",
        planned as f64 / groups.max(1) as f64,
    );
    values.insert(
        "engine.rounds_overlapped",
        (after.rounds_overlapped - before.rounds_overlapped) as f64 / ops,
    );
}

/// The traced − untraced line every traced run prints.
pub fn overhead_note(traced_us: f64, untraced_us: f64) -> String {
    format!(
        "tracing overhead: traced {traced_us:.1} us - untraced {untraced_us:.1} us = {:.1} us (mean best time per input)",
        traced_us - untraced_us
    )
}

/// The sum of the four core stage spans.
pub fn core_stage_us(spans: &Spans) -> f64 {
    [
        "core.decompose",
        "core.kernel",
        "core.merge",
        "core.validate",
    ]
    .iter()
    .map(|s| spans.get(s))
    .sum()
}

/// Plans one shot through the four public core stages (`decompose`,
/// the quadrant kernels, `merge_shot`, `validate_shot`), timing each.
pub fn core_stages(
    config: &QrmConfig,
    grid: &AtomGrid,
    target: &Rect,
    spans: &mut Spans,
) -> Result<Plan, String> {
    let work = spans
        .time("core.decompose", || decompose(grid, target))
        .map_err(err)?;
    let kernel = ShiftKernel::new(kernel_config_for(config, &work));
    let outcomes = spans
        .time("core.kernel", || {
            work.quadrants
                .iter()
                .map(|q| kernel.run(q))
                .collect::<Result<Vec<KernelOutcome>, _>>()
        })
        .map_err(err)?;
    let outcomes: [KernelOutcome; 4] = outcomes
        .try_into()
        .map_err(|_| "decomposition without four quadrants")?;
    let merge_cfg = MergeConfig {
        merge_quadrants: config.merge_quadrants,
    };
    let (merged, iterations) = spans
        .time("core.merge", || {
            merge_shot(grid, &work.map, &outcomes, &merge_cfg)
        })
        .map_err(err)?;
    let plan = spans
        .time("core.validate", || {
            validate_shot(target, merged, iterations)
        })
        .map_err(err)?;
    spans.add("core.kernel_iterations", plan.iterations as f64);
    spans.add("core.moves", plan.schedule.len() as f64);
    Ok(plan)
}

/// Checks that `plan` executes under the planner's own executor to
/// exactly the occupancy it predicted.
pub fn executes_as_predicted(planner: &dyn Planner, grid: &AtomGrid, plan: &Plan) -> bool {
    planner
        .executor()
        .run(grid, &plan.schedule)
        .is_ok_and(|report| report.final_grid == plan.predicted)
}

/// Replays one shot of a served batch, drawing from the shot's own RNG
/// stream, through the public stage functions in the order the pipeline
/// calls them: render, detect, `plan_batch` (and the four core stages
/// on the same grid, which must agree with it), AWG compile, lossy
/// execute. Returns the shot's report, which must equal the served one
/// bit for bit.
fn replay_shot(
    config: &PipelineConfig,
    planner: &QrmScheduler,
    truth: &AtomGrid,
    target: Rect,
    mut rng: StdRng,
    spans: &mut Spans,
) -> Result<PipelineReport, String> {
    let layout = TrapLayout::new(truth.height(), truth.width(), config.pitch_px, 4.0);
    let executor = planner
        .executor()
        .with_collision_policy(CollisionPolicy::Eject);
    let mut state = truth.clone();
    let mut rounds = Vec::new();
    for _ in 0..config.max_rounds {
        if state.is_filled(&target).map_err(err)? {
            break;
        }
        let frame = spans.time("vision.render", || {
            render(&state, &layout, &config.imaging, &mut rng)
        });
        let (detected, fidelity) = spans
            .time("vision.detect", || {
                let detection = config.detector.detect(&frame, &layout)?;
                let fidelity = detection.fidelity(&state)?;
                Ok::<_, qrm_core::Error>((detection.grid, fidelity))
            })
            .map_err(err)?;
        let by_stages = core_stages(planner.config(), &detected, &target, spans)?;
        let job = [(detected, target)];
        let mut plans = spans
            .time("engine.plan_batch", || planner.plan_batch(&job))
            .map_err(err)?;
        let plan = plans.pop().ok_or("plan_batch returned no plan")?;
        if plan != by_stages {
            return Err("plan_batch and the four core stages disagree".into());
        }
        if !executes_as_predicted(planner, &job[0].0, &plan) {
            return Err("a plan does not execute to its prediction".into());
        }
        let program = spans
            .time("control.compile", || {
                ToneProgram::compile(&plan.schedule, &AodCalibration::default(), &config.motion)
            })
            .map_err(err)?;
        let report = spans
            .time("core.execute", || {
                executor.run_with_loss(&state, &plan.schedule, config.loss_prob, &mut rng)
            })
            .map_err(err)?;
        spans.add("core.atom_moves", report.atom_moves as f64);
        state = report.final_grid;
        let filled = state.is_filled(&target).map_err(err)?;
        rounds.push(RoundReport {
            detection_fidelity: fidelity,
            moves: plan.schedule.len(),
            atoms_lost: report.lost_atoms + report.ejected_atoms,
            motion_us: program.total_duration_us(),
            state: state.clone(),
            filled,
        });
        if filled {
            break;
        }
    }
    let filled = state.is_filled(&target).map_err(err)?;
    Ok(PipelineReport {
        rounds,
        final_state: state,
        filled,
    })
}

/// Replays every shot of a served `request` through the stage functions
/// (`replay_shot`) and checks each against its served report. `base` is
/// the served registration's pipeline configuration; the spec's
/// scenario is applied to it as the service does.
pub fn replay_request(
    request: &SubmitBatch,
    base: &PipelineConfig,
    planner: &QrmScheduler,
    served: &[PipelineReport],
    spans: &mut Spans,
) -> Result<(), String> {
    let workload = request.spec.workload().map_err(err)?;
    let config = workload.configure(base);
    let target = request.spec.target().map_err(err)?;
    if workload.truths.len() != served.len() {
        return Err("served a different number of shots".into());
    }
    for (i, (truth, served)) in workload.truths.iter().zip(served).enumerate() {
        let rng = Pipeline::shot_rng(request.spec.seed, i);
        let report = replay_shot(&config, planner, truth, target, rng, spans)?;
        if &report != served {
            return Err(format!(
                "shot {i}: the stage replay differs from the served report"
            ));
        }
    }
    Ok(())
}

/// Output quality over a set of shots.
#[derive(Default)]
pub struct Quality {
    pub shots: usize,
    pub filled: usize,
    pub moves: usize,
    pub motion_us: f64,
    pub rounds: usize,
}

impl Quality {
    pub fn add_report(&mut self, report: &PipelineReport) {
        self.shots += 1;
        self.filled += usize::from(report.filled);
        self.moves += report.rounds.iter().map(|r| r.moves).sum::<usize>();
        self.motion_us += report.total_motion_us();
        self.rounds += report.rounds.len();
    }

    /// A single analysis: one plan, one round.
    pub fn add_plan(&mut self, plan: &Plan, motion_us: f64) {
        self.shots += 1;
        self.filled += usize::from(plan.filled);
        self.moves += plan.schedule.len();
        self.motion_us += motion_us;
        self.rounds += 1;
    }

    pub fn per_shot(&self, total: f64) -> f64 {
        total / self.shots as f64
    }
}

/// A 64-bit digest of a plan: every move, the predicted occupancy, the
/// fill flag and the iteration count. Runs keep digests, not plans, so
/// the benchmark's own memory stays small next to the program's.
pub fn plan_digest(plan: &Plan) -> u64 {
    let mut h = FNV_OFFSET;
    for mv in plan.schedule.iter() {
        let (dr, dc) = mv.delta();
        for &x in mv.rows().iter().chain(mv.cols()) {
            h = fnv1a(&(x as u64).to_le_bytes(), h);
        }
        h = fnv1a(&(dr as i64).to_le_bytes(), h);
        h = fnv1a(&(dc as i64).to_le_bytes(), h);
    }
    h = fnv1a(&plan.predicted.to_bitfield(), h);
    fnv1a(&[u8::from(plan.filled), plan.iterations as u8], h)
}

/// What a served workload's checks leave behind, off every timed path:
/// the quality of the reference reports, their digest (through their
/// canonical wire encoding), and the FPGA model's figures on the
/// requests' shots.
pub fn summarize_served<'a>(
    requests: &[SubmitBatch],
    references: impl Iterator<Item = &'a Vec<PipelineReport>>,
) -> Result<(Quality, u64, Fpga), String> {
    let mut quality = Quality::default();
    let mut digest = FNV_OFFSET;
    for report in references.flatten() {
        quality.add_report(report);
        digest = fnv1a(report.to_json().as_bytes(), digest);
    }
    let mut jobs = Vec::new();
    for request in requests {
        let target = request.spec.target().map_err(err)?;
        let truths = request.spec.workload().map_err(err)?.truths;
        jobs.extend(truths.into_iter().map(|grid| (grid, target)));
    }
    Ok((quality, digest, fpga_model(&jobs)?))
}

/// The FPGA model's figures for a set of shots, computed off every
/// timed path: median cycles and mean host time per run.
pub struct Fpga {
    pub analysis_cycles: f64,
    pub compute_cycles: f64,
    pub combine_cycles: f64,
    pub host_us: f64,
    pub shots: usize,
}

impl Fpga {
    pub fn insert_into(&self, values: &mut BTreeMap<&'static str, f64>) {
        values.insert("fpga.host_us", self.host_us);
        values.insert("fpga.compute_cycles", self.compute_cycles);
        values.insert("fpga.combine_cycles", self.combine_cycles);
    }
}

pub fn fpga_model(jobs: &[(AtomGrid, Rect)]) -> Result<Fpga, String> {
    let accel = QrmAccelerator::new(AcceleratorConfig::paper());
    let (mut analysis, mut compute, mut combine) = (Vec::new(), Vec::new(), Vec::new());
    let t0 = Instant::now();
    for (grid, target) in jobs {
        let report = accel.run(grid, target).map_err(err)?;
        analysis.push(report.cycles.analysis() as f64);
        compute.push(report.cycles.compute as f64);
        combine.push(report.cycles.combine as f64);
    }
    Ok(Fpga {
        host_us: t0.elapsed().as_secs_f64() * 1e6 / jobs.len() as f64,
        analysis_cycles: median(&analysis),
        compute_cycles: median(&compute),
        combine_cycles: median(&combine),
        shots: jobs.len(),
    })
}
