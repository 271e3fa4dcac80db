//! `analysis-50`: the paper's headline figure. One op is
//! `Planner::plan_batch` on one 50x50 shot with its centred 30x30
//! target under the paper QRM configuration (greedy kernel, 4
//! iterations, quadrant merging); the four quadrant kernels run on the
//! worker pool. Imaging, the service and the network are bypassed. The
//! FPGA model's cycles for the same shots are computed after the timed
//! loop.

use qrm_control::awg::{AodCalibration, ToneProgram};
use qrm_control::pipeline::PipelineConfig;
use qrm_core::geometry::Rect;
use qrm_core::grid::AtomGrid;
use qrm_core::planner::Planner;
use qrm_core::scheduler::{QrmConfig, QrmScheduler};
use qrm_server::BatchSpec;

use crate::measure::{fnv1a, Class, FirstSeen, Recorder, Setups, FNV_OFFSET};
use crate::stages::{
    add_pool_activity, core_stage_us, core_stages, executes_as_predicted, fpga_model, layer_values,
    overhead_note, plan_digest, Quality, Spans,
};
use crate::{end_to_end, per_layer, Args, Outcome, Tally, POOL_THREADS};

const SIZE: usize = 50;
/// Distinct shots, each planned once per pass.
const SHOTS: usize = 128;

struct Bench {
    planner: QrmScheduler,
    jobs: Vec<(AtomGrid, Rect)>,
}

fn setup(seed: u64) -> Result<Bench, String> {
    let spec = BatchSpec::new(SHOTS, SIZE, seed);
    let target = spec.target().map_err(|e| e.to_string())?;
    let jobs: Vec<(AtomGrid, Rect)> = spec
        .workload()
        .map_err(|e| e.to_string())?
        .truths
        .into_iter()
        .map(|grid| (grid, target))
        .collect();
    let planner = QrmScheduler::new(QrmConfig::paper()).with_workers(POOL_THREADS);
    // Warm-up: the engine's context pool and the worker pool.
    planner.plan_batch(&jobs[..1]).map_err(|e| e.to_string())?;
    Ok(Bench { planner, jobs })
}

/// One pass: every shot planned once, each plan checked against the
/// first pass's. With `spans`, each op is followed by the four core
/// stages on the same shot, which must reproduce it.
fn pass(
    bench: &Bench,
    reference: &mut FirstSeen<u64>,
    rec: &mut Recorder,
    tally: &mut Tally,
    mut spans: Option<&mut Spans>,
) -> Result<(), String> {
    for (k, job) in bench.jobs.iter().enumerate() {
        let pool_before = spans.is_some().then(rayon::global_pool_stats);
        let out = rec.op(Class::Compute, 1, || {
            bench.planner.plan_batch(std::slice::from_ref(job))
        });
        let mut checked = match out.as_deref() {
            Ok([plan]) if reference.check(k, plan_digest(plan)) => Ok(()),
            Ok(_) => Err(format!("shot {k}: plan differs from the first pass's")),
            Err(e) => Err(format!("shot {k}: {e}")),
        };
        if let (Some(spans), Some(before)) = (spans.as_deref_mut(), pool_before) {
            add_pool_activity(spans, &before);
            spans.add("engine.plan_batch", rec.last_us());
            let staged = core_stages(bench.planner.config(), &job.0, &job.1, spans);
            if checked.is_ok() && staged.ok().map(|p| plan_digest(&p)) != reference.get(k).copied()
            {
                checked = Err(format!(
                    "shot {k}: the four core stages do not reproduce plan_batch"
                ));
            }
        }
        tally.record(checked);
    }
    Ok(())
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let (mut setups, bench) = Setups::first(|| setup(args.seed))?;
    let mut tally = Tally::default();
    let mut notes = Vec::new();
    let mut reference = FirstSeen::new(bench.jobs.len());

    let untraced_s = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let rec = Recorder::run(untraced_s, |rec| {
        pass(&bench, &mut reference, rec, &mut tally, None)?;
        setups.repeat()
    })?;
    let latency = rec.best(&[Class::Compute]);
    notes.push(rec.probe_line());
    notes.push(rec.all_line(&[Class::Compute]));

    // Off every timed path: each shot planned again, which must match
    // its digest and execute to its prediction; the plans give the
    // quality figures and the digest.
    let fpga = fpga_model(&bench.jobs)?;
    let motion = PipelineConfig::default().motion;
    let mut quality = Quality::default();
    let mut digest = FNV_OFFSET;
    for (k, (job, reference)) in bench.jobs.iter().zip(reference.all()).enumerate() {
        let plan = match bench.planner.plan(&job.0, &job.1) {
            Ok(plan) => plan,
            Err(e) => {
                tally.fail(format!("shot {k}: {e}"));
                continue;
            }
        };
        if plan_digest(&plan) != *reference {
            tally.fail(format!("shot {k}: plan differs from the timed ones"));
        }
        if !executes_as_predicted(&bench.planner, &job.0, &plan) {
            tally.fail(format!(
                "shot {k}: the plan does not execute to its prediction"
            ));
        }
        let program = ToneProgram::compile(&plan.schedule, &AodCalibration::default(), &motion)
            .map_err(|e| e.to_string())?;
        quality.add_plan(&plan, program.total_duration_us());
        digest = fnv1a(&reference.to_le_bytes(), digest);
    }

    let metrics = if args.trace {
        let mut spans = Spans::default();
        let traced = Recorder::run(args.seconds / 2.0, |rec| {
            pass(&bench, &mut reference, rec, &mut tally, Some(&mut spans))
        })?;
        let ops = traced.ops() as f64;
        let mut values = layer_values(&spans, ops);
        // Each plan_batch call carries one shot.
        values.insert("engine.mean_group_size", 1.0);
        fpga.insert_into(&mut values);
        let traced_latency = traced.best(&[Class::Compute]);
        values.insert("trace.overhead_us", traced_latency.mean - latency.mean);
        let per_op = |span: &str| spans.get(span) / ops;
        notes.push(format!(
            "accounting: plan_batch mean {:.1} us = core stages {:.1} us (decompose {:.1}, kernel {:.1}, merge {:.1}, validate {:.1}) + engine overhead {:.1} us",
            per_op("engine.plan_batch"),
            core_stage_us(&spans) / ops,
            per_op("core.decompose"),
            per_op("core.kernel"),
            per_op("core.merge"),
            per_op("core.validate"),
            values["engine.overhead_us"],
        ));
        notes.push(overhead_note(traced_latency.mean, latency.mean));
        per_layer(&values, traced.ops())
    } else {
        end_to_end(&rec, &latency, &quality, &fpga, setups.fastest())?
    };
    Ok(tally.into_outcome(metrics, digest, notes))
}
