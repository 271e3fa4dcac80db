//! The serial round loop, kept as a test-only reference: one shot, one
//! [`Planner::plan`] call per round, no scheduler and no pool. The
//! determinism suite compares every shot of [`Pipeline::run`] against
//! it on the same stream ([`Pipeline::shot_rng`]).

use rand::Rng;

use qrm_core::error::Error;
use qrm_core::executor::CollisionPolicy;
use qrm_core::planner::Planner;
use qrm_core::trace::ShotTrace;
use qrm_vision::prelude::*;

use super::{first_unfilled, translate_schedule, Pipeline, PipelineReport, Shot};

/// Runs up to `max_rounds` image→detect→plan→move rounds on `shot`,
/// stopping early once every zone is defect-free. Each round plans
/// against the first zone whose target is not yet filled. Also returns
/// the shot's replayable trace when the pipeline records traces
/// ([`PipelineConfig::record_trace`](super::PipelineConfig::record_trace)).
///
/// # Errors
///
/// Propagates planner and executor failures; detection errors cannot
/// occur for matching layouts.
pub fn run_serial<R: Rng + ?Sized>(
    pipeline: &Pipeline,
    planner: &dyn Planner,
    shot: &Shot,
    rng: &mut R,
) -> Result<(PipelineReport, Option<ShotTrace>), Error> {
    let zones = &shot.zones[..];
    let mut state = shot.truth.clone();
    let mut rounds = Vec::new();
    let mut trace = pipeline.config.record_trace.then(ShotTrace::default);
    let layout = TrapLayout::new(state.height(), state.width(), pipeline.config.pitch_px, 4.0);
    // The planner's transport contract (strict AOD sweeps, or
    // endpoints-only for single-tweezer planners) plus the control
    // loop's eject-on-collision recovery policy.
    let executor = planner
        .executor()
        .with_collision_policy(CollisionPolicy::Eject);

    for _ in 0..pipeline.config.max_rounds {
        let Some(zone) = first_unfilled(&state, zones)? else {
            break;
        };
        // Image + detect, plan on the *detected* occupancy (in the
        // zone's tile frame), execute on the true one.
        let (detection, detection_fidelity) = pipeline.observe(&state, &layout, rng)?;
        let covers = zone.covers(&detection.grid);
        let (plan_grid, plan_target) = zone.plan_job(detection.grid)?;
        let plan = planner.plan(&plan_grid, &plan_target)?;
        let translated;
        let schedule = if covers {
            &plan.schedule
        } else {
            translated =
                translate_schedule(&plan.schedule, &zone.tile, state.height(), state.width());
            &translated
        };
        let round = pipeline.execute_round(
            &executor,
            &mut state,
            zones,
            schedule,
            detection_fidelity,
            rng,
            trace.as_mut(),
        )?;
        let filled = round.filled;
        rounds.push(round);
        if filled {
            break;
        }
    }

    let filled = first_unfilled(&state, zones)?.is_none();
    Ok((
        PipelineReport {
            rounds,
            final_state: state,
            filled,
        },
        trace,
    ))
}
