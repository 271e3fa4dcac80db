//! Executable end-to-end rearrangement cycles (paper Fig. 1).
//!
//! One cycle: synthesise a fluorescence frame from the true occupancy,
//! detect atoms, plan with the chosen scheduler, execute the schedule on
//! the trap array (optionally with per-move transport loss), and check
//! the target. Real systems iterate — lost or missed atoms are repaired
//! after re-imaging — so the driver supports multi-round operation.

use std::time::Instant;

use rand::rngs::StdRng;
use rand::Rng;

use qrm_baselines::{HybridScheduler, Mta1Scheduler, PscaScheduler, TetrisScheduler};
use qrm_core::engine::dataflow::{DataflowStats, ShotProgram, ShotScheduler};
use qrm_core::engine::resolve_workers;
use qrm_core::error::Error;
use qrm_core::executor::{CollisionPolicy, Executor};
use qrm_core::geometry::Rect;
use qrm_core::grid::AtomGrid;
use qrm_core::loading::seeded_rng;
use qrm_core::planner::Planner;
use qrm_core::schedule::MotionModel;
use qrm_core::scheduler::{QrmConfig, QrmScheduler};
use qrm_core::trace::ShotTrace;
use qrm_core::typical::TypicalScheduler;
use qrm_fpga::accelerator::{AcceleratorConfig, QrmAccelerator};
use qrm_vision::prelude::*;

use crate::awg::{AodCalibration, ToneProgram};

#[cfg(any(test, feature = "test-hooks"))]
pub mod reference;

/// Which planner drives the cycle — the config surface (CLI names,
/// service registrations) over the workspace's planners. Every variant
/// resolves to a `Box<dyn Planner>` ([`resolve`](PlannerChoice::resolve))
/// that callers hand to [`Pipeline::run`]; the pipeline itself
/// dispatches only through the trait, so adding a planner here is a
/// one-line construction, not a new code path.
///
/// (Previously named `Planner`; that name now refers to the trait in
/// [`qrm_core::planner`].)
#[derive(Debug, Clone, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub enum PlannerChoice {
    /// Software QRM on the host (Fig. 2(a) role).
    Software(QrmConfig),
    /// The cycle-accurate FPGA accelerator model (Fig. 2(b) role).
    Fpga(AcceleratorConfig),
    /// The "typical rearrangement procedure" of paper §III-A.
    Typical,
    /// The Tetris baseline (Wang et al. 2023).
    Tetris,
    /// The PSCA baseline (Tian et al. 2023).
    Psca,
    /// The MTA1 single-tweezer baseline (Ebadi et al. 2021).
    Mta1,
    /// QRM followed by targeted single-tweezer repair (extension).
    Hybrid,
}

impl Default for PlannerChoice {
    fn default() -> Self {
        PlannerChoice::Software(QrmConfig::default())
    }
}

impl PlannerChoice {
    /// The seven canonical CLI names, in registry order — the strings
    /// [`Display`](std::fmt::Display) produces and
    /// [`FromStr`](std::str::FromStr) accepts.
    pub const NAMES: [&'static str; 7] =
        ["qrm", "typical", "tetris", "psca", "mta1", "hybrid", "fpga"];

    /// The choice's canonical CLI name (config parameters are not part
    /// of the name: every `Software` config displays as `"qrm"`, every
    /// `Fpga` config as `"fpga"`).
    pub fn name(&self) -> &'static str {
        match self {
            PlannerChoice::Software(_) => "qrm",
            PlannerChoice::Typical => "typical",
            PlannerChoice::Tetris => "tetris",
            PlannerChoice::Psca => "psca",
            PlannerChoice::Mta1 => "mta1",
            PlannerChoice::Hybrid => "hybrid",
            PlannerChoice::Fpga(_) => "fpga",
        }
    }

    /// Builds the chosen planner. `workers` is the batch worker count
    /// for planners with a parallel core (`0` = automatic, one per
    /// core); serial planners ignore it.
    pub fn resolve(&self, workers: usize) -> Box<dyn Planner> {
        match self {
            PlannerChoice::Software(cfg) => {
                Box::new(QrmScheduler::new(cfg.clone()).with_workers(workers))
            }
            PlannerChoice::Fpga(cfg) => Box::new(QrmAccelerator::new(*cfg).with_workers(workers)),
            PlannerChoice::Typical => Box::new(TypicalScheduler::default()),
            PlannerChoice::Tetris => Box::new(TetrisScheduler::default()),
            PlannerChoice::Psca => Box::new(PscaScheduler::default()),
            PlannerChoice::Mta1 => Box::new(Mta1Scheduler::default()),
            PlannerChoice::Hybrid => Box::new(HybridScheduler::default()),
        }
    }
}

impl std::fmt::Display for PlannerChoice {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Error from parsing a [`PlannerChoice`] name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnknownPlannerName {
    /// The rejected name.
    pub name: String,
}

impl std::fmt::Display for UnknownPlannerName {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "unknown planner {:?}; use one of {:?}",
            self.name,
            PlannerChoice::NAMES
        )
    }
}

impl std::error::Error for UnknownPlannerName {}

impl std::str::FromStr for PlannerChoice {
    type Err = UnknownPlannerName;

    /// Parses a canonical CLI name into the choice with **default
    /// configuration** (`Display` → `FromStr` round-trips the name,
    /// not the config: `"qrm"` always parses to the default
    /// [`QrmConfig`], `"fpga"` to the balanced accelerator the
    /// benchmark registry uses).
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "qrm" => Ok(PlannerChoice::Software(QrmConfig::default())),
            "typical" => Ok(PlannerChoice::Typical),
            "tetris" => Ok(PlannerChoice::Tetris),
            "psca" => Ok(PlannerChoice::Psca),
            "mta1" => Ok(PlannerChoice::Mta1),
            "hybrid" => Ok(PlannerChoice::Hybrid),
            "fpga" => Ok(PlannerChoice::Fpga(AcceleratorConfig::balanced())),
            other => Err(UnknownPlannerName {
                name: other.to_string(),
            }),
        }
    }
}

/// The stage of a shot's round a straggler delay attaches to.
///
/// Used by the `test-hooks` straggler-injection machinery
/// (`StageDelay`, which exists only with that feature); defined
/// unconditionally so the pipeline's dataflow shot program can name
/// stages without feature gates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DelayStage {
    /// Before the shot's frame synthesis + detection.
    Observe,
    /// After observation, before the shot's job joins a plan group —
    /// delays group formation for this shot.
    Plan,
    /// Before the shot's AWG compilation + schedule execution.
    Execute,
}

/// A test-only straggler injection: sleep `millis` when `shot` reaches
/// `stage` of `round`. Drives the adversarial-schedule determinism
/// suite; compiled only with the `test-hooks` feature, never in
/// production builds.
#[cfg(feature = "test-hooks")]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StageDelay {
    /// Batch index of the delayed shot.
    pub shot: usize,
    /// Round (0-based, counted in completed rounds) to delay.
    pub round: usize,
    /// Stage of the round to delay.
    pub stage: DelayStage,
    /// Sleep duration in milliseconds.
    pub millis: u64,
}

/// Pipeline configuration.
#[derive(Debug, Clone)]
pub struct PipelineConfig {
    /// Imaging physics.
    pub imaging: ImagingConfig,
    /// Detector settings.
    pub detector: Detector,
    /// Trap-to-pixel geometry pitch (pixels).
    pub pitch_px: f64,
    /// Worker count of the dataflow schedule (`0` = automatic, one per
    /// core), and the count callers pass to
    /// [`PlannerChoice::resolve`] for the planner they run with.
    /// Workers are jobs on the persistent global pool — raising this
    /// spawns no OS threads after pool initialisation.
    pub workers: usize,
    /// Physical motion model for AWG compilation.
    pub motion: MotionModel,
    /// Per-move atom-loss probability during transport.
    pub loss_prob: f64,
    /// Maximum image→plan→move rounds.
    pub max_rounds: usize,
    /// Record a replayable [`ShotTrace`] per shot (reported through
    /// [`BatchRun::traces`]). Tracing only observes — reports are
    /// bit-identical with it on or off.
    pub record_trace: bool,
    /// Straggler injections for the adversarial-schedule determinism
    /// suite (test builds only): each entry stalls one shot at one
    /// stage of one round. Reports must be bit-identical with any
    /// contents here — that is the property the suite asserts.
    #[cfg(feature = "test-hooks")]
    pub debug_stage_delay: Vec<StageDelay>,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig {
            imaging: ImagingConfig::default(),
            detector: Detector::default(),
            pitch_px: 6.0,
            workers: 0,
            motion: MotionModel::typical(),
            loss_prob: 0.0,
            max_rounds: 3,
            record_trace: false,
            #[cfg(feature = "test-hooks")]
            debug_stage_delay: Vec::new(),
        }
    }
}

/// Report of one cycle round.
#[derive(Debug, Clone, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct RoundReport {
    /// Detection fidelity against the true occupancy.
    pub detection_fidelity: f64,
    /// Parallel moves planned.
    pub moves: usize,
    /// Atoms lost in transport this round.
    pub atoms_lost: usize,
    /// Physical tweezer time of the round's AWG program (µs).
    pub motion_us: f64,
    /// True occupancy after the round.
    pub state: AtomGrid,
    /// Whether the target is defect-free after the round.
    pub filled: bool,
}

/// Report of a full multi-round run.
#[derive(Debug, Clone, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct PipelineReport {
    /// Per-round details.
    pub rounds: Vec<RoundReport>,
    /// Final true occupancy.
    pub final_state: AtomGrid,
    /// Whether the target ended defect-free.
    pub filled: bool,
}

impl PipelineReport {
    /// Total physical motion time across rounds (µs).
    pub fn total_motion_us(&self) -> f64 {
        self.rounds.iter().map(|r| r.motion_us).sum()
    }

    /// Total atoms lost across rounds.
    pub fn total_lost(&self) -> usize {
        self.rounds.iter().map(|r| r.atoms_lost).sum()
    }
}

/// A batched run's reports plus its schedule diagnostics — what
/// [`Pipeline::run`] returns. The reports are bit-identical across
/// worker counts and schedules; the diagnostics describe the particular
/// schedule that produced them.
#[derive(Debug, Clone)]
pub struct BatchRun {
    /// Per-shot reports, in input order.
    pub reports: Vec<PipelineReport>,
    /// Dataflow-scheduler counters.
    pub stats: DataflowStats,
    /// Per-shot completion time in µs from batch start — the moment the
    /// scheduler knew the shot's report was final.
    pub completion_us: Vec<f64>,
    /// Per-shot replayable move traces, in input order — present iff
    /// the pipeline ran with
    /// [`record_trace`](PipelineConfig::record_trace). Replaying a
    /// shot's trace on its initial occupancy reproduces its report's
    /// `final_state` bit-exactly
    /// ([`qrm_core::trace::TraceReplayer`]).
    pub traces: Option<Vec<ShotTrace>>,
}

/// One zone of a multi-zone target pattern: a `target` rectangle to
/// assemble, and the `tile` sub-array whose atoms source it.
///
/// Planning for a zone runs on the tile's sub-grid with the target in
/// tile-local coordinates, and the resulting schedule is translated
/// back to full-array coordinates for execution. Planners therefore
/// see an ordinary (grid, centred target) problem per zone — which is
/// what keeps multi-zone patterns compatible with *every* planner,
/// including QRM's centred-even-target contract — and moves for a zone
/// never leave its tile. When the tile covers the whole array this
/// reduces exactly to the classic single-target path (no sub-grid, no
/// translation).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Zone {
    /// The sub-array the zone's planning rounds see (full-array
    /// coordinates). Atoms are sourced only from this tile.
    pub tile: Rect,
    /// The target rectangle to assemble, in full-array coordinates.
    /// Must lie inside `tile`; planners that require centred targets
    /// additionally need it centred *within the tile*.
    pub target: Rect,
}

impl Zone {
    /// The single-zone wrapper: the whole `height x width` array as the
    /// tile — today's classic target semantics, byte-identical to the
    /// pre-zone pipeline.
    pub fn full_array(height: usize, width: usize, target: Rect) -> Self {
        Zone {
            tile: Rect::new(0, 0, height, width),
            target,
        }
    }

    /// Whether the tile covers all of `grid` (planning needs no
    /// sub-grid extraction or schedule translation).
    fn covers(&self, grid: &AtomGrid) -> bool {
        self.tile.row == 0
            && self.tile.col == 0
            && self.tile.height == grid.height()
            && self.tile.width == grid.width()
    }

    /// The target in tile-local coordinates.
    fn local_target(&self) -> Rect {
        Rect::new(
            self.target.row - self.tile.row,
            self.target.col - self.tile.col,
            self.target.height,
            self.target.width,
        )
    }

    /// The planning job for this zone on `detected` occupancy: the
    /// grid the planner sees and the target in that grid's frame.
    fn plan_job(&self, detected: AtomGrid) -> Result<(AtomGrid, Rect), Error> {
        if self.covers(&detected) {
            Ok((detected, self.target))
        } else {
            Ok((detected.subgrid(&self.tile)?, self.local_target()))
        }
    }
}

/// One shot of a batch: the true occupancy of one trap array and the
/// target zones its rounds assemble, in fill-priority order.
#[derive(Debug, Clone, PartialEq)]
pub struct Shot {
    /// True occupancy before the first round.
    pub truth: AtomGrid,
    /// Target zones: each round plans against the first one not yet
    /// defect-free. Empty means trivially filled (no rounds run).
    pub zones: Vec<Zone>,
}

impl Shot {
    /// A shot assembling one `target` with the whole array as its tile
    /// — the classic single-target shape.
    pub fn new(truth: AtomGrid, target: Rect) -> Self {
        let zones = vec![Zone::full_array(truth.height(), truth.width(), target)];
        Shot { truth, zones }
    }
}

/// The first zone of `zones` whose target is not yet defect-free in
/// `state` — the zone the next round plans against. `None` means the
/// whole multi-zone pattern is assembled. With a single full-array
/// zone this is exactly the classic `is_filled` check.
fn first_unfilled(state: &AtomGrid, zones: &[Zone]) -> Result<Option<Zone>, Error> {
    for zone in zones {
        if !state.is_filled(&zone.target)? {
            return Ok(Some(*zone));
        }
    }
    Ok(None)
}

/// Translates a tile-local schedule into full-array coordinates
/// (`height x width`): every selected row/column is offset by the
/// tile origin; displacements are unchanged.
fn translate_schedule(
    schedule: &qrm_core::schedule::Schedule,
    tile: &Rect,
    height: usize,
    width: usize,
) -> qrm_core::schedule::Schedule {
    let mut out = qrm_core::schedule::Schedule::new(height, width);
    for mv in schedule.iter() {
        let rows = mv.rows().iter().map(|r| r + tile.row).collect();
        let cols = mv.cols().iter().map(|c| c + tile.col).collect();
        let (dr, dc) = mv.delta();
        out.push(
            qrm_core::moves::ParallelMove::new(rows, cols, dr, dc)
                .expect("translation preserves move validity"),
        );
    }
    out
}

/// The end-to-end pipeline driver.
#[derive(Debug, Clone, Default)]
pub struct Pipeline {
    config: PipelineConfig,
}

impl Pipeline {
    /// Creates a pipeline.
    pub fn new(config: PipelineConfig) -> Self {
        Pipeline { config }
    }

    /// The pipeline's configuration.
    pub fn config(&self) -> &PipelineConfig {
        &self.config
    }

    /// The observation half of one round: synthesise a frame from the
    /// true occupancy and detect atoms.
    fn observe<R: Rng + ?Sized>(
        &self,
        state: &AtomGrid,
        layout: &TrapLayout,
        rng: &mut R,
    ) -> Result<(DetectionReport, f64), Error> {
        let frame = render(state, layout, &self.config.imaging, rng);
        let detection = self.config.detector.detect(&frame, layout)?;
        let fidelity = detection.fidelity(state)?;
        Ok((detection, fidelity))
    }

    /// The actuation half of one round: compile the plan for the AWG
    /// (validates the move encoding) and execute it on the true
    /// occupancy with transport loss, advancing `state` and producing
    /// the round report.
    ///
    /// Detection errors can make a planned move land on an atom the
    /// detector missed; physically that light-assisted collision ejects
    /// both atoms, and the control loop recovers by re-imaging — hence
    /// the executor's eject collision policy.
    #[allow(clippy::too_many_arguments)] // one closed-loop round's full physics state
    fn execute_round<R: Rng + ?Sized>(
        &self,
        executor: &Executor,
        state: &mut AtomGrid,
        zones: &[Zone],
        schedule: &qrm_core::schedule::Schedule,
        detection_fidelity: f64,
        rng: &mut R,
        trace: Option<&mut ShotTrace>,
    ) -> Result<RoundReport, Error> {
        let program =
            ToneProgram::compile(schedule, &AodCalibration::default(), &self.config.motion)?;
        // The traced and untraced executor paths share one
        // implementation, so the RNG stream (and therefore the report)
        // is identical whether or not a trace is recorded.
        let report = if let Some(trace) = trace {
            let (report, round) =
                executor.run_with_loss_traced(state, schedule, self.config.loss_prob, rng)?;
            trace.rounds.push(round);
            report
        } else {
            executor.run_with_loss(state, schedule, self.config.loss_prob, rng)?
        };
        let atoms_lost = report.lost_atoms + report.ejected_atoms;
        *state = report.final_grid;
        let filled = first_unfilled(state, zones)?.is_none();
        Ok(RoundReport {
            detection_fidelity,
            moves: schedule.len(),
            atoms_lost,
            motion_us: program.total_duration_us(),
            state: state.clone(),
            filled,
        })
    }

    /// The RNG driving shot `index` of a [`run`](Self::run) with base
    /// `seed`. A one-shot run with base seed `s` draws from
    /// `seeded_rng(s)`.
    pub fn shot_rng(base_seed: u64, index: usize) -> StdRng {
        seeded_rng(base_seed ^ (index as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15))
    }

    /// Runs a batch of independent shots (one camera frame / trap array
    /// each, every shot with its own truth and zones) through up to
    /// `max_rounds` image → detect → plan → move rounds, stopping each
    /// shot early once all its zones are defect-free. Each round plans
    /// against the shot's first [`Zone`] not yet filled, so earlier
    /// zones are repaired before later ones are attempted.
    ///
    /// Rounds run as **shot-level dataflow** on the persistent worker
    /// pool ([`qrm_core::engine::dataflow`]): every shot advances
    /// through its own observe → plan → execute task chain, so a fast
    /// shot can be executing round *k + 1* while a slow shot is still
    /// planning round *k*. Shots reaching the plan stage together are
    /// planned as one group through [`Planner::plan_batch`]. `planner`
    /// is the caller's: a long-lived service resolves each registered
    /// [`PlannerChoice`] once and passes the same instance to every
    /// call. `config.workers` sizes the schedule (`0` = one per core).
    ///
    /// Because `plan_batch` is observationally equal to per-job
    /// planning (the workspace planner contract), group membership is
    /// invisible in the results: shot `i` draws from its own stream
    /// ([`shot_rng(seed, i)`](Self::shot_rng)) and lands in its own
    /// result slot, so reports are **bit-identical** for any `workers`
    /// setting and any straggler schedule, and independent of batch
    /// composition. With `workers <= 1` (counting the automatic policy
    /// on a 1-core host) the batch runs inline, shot by shot in index
    /// order. All scheduling only *enqueues* onto the process-global
    /// pool; no OS threads are spawned after pool initialisation.
    ///
    /// # Errors
    ///
    /// Propagates planner and executor failures: the first error by
    /// shot index among the failures the schedule observed (a
    /// plan-group failure counts against the group's lowest-indexed
    /// shot), after which remaining work is abandoned.
    pub fn run(&self, planner: &dyn Planner, shots: &[Shot], seed: u64) -> Result<BatchRun, Error> {
        let executor = planner
            .executor()
            .with_collision_policy(CollisionPolicy::Eject);
        let started = Instant::now();
        let programs: Vec<DataflowShot<'_>> = shots
            .iter()
            .enumerate()
            .map(|(i, shot)| DataflowShot {
                pipeline: self,
                executor: &executor,
                zones: &shot.zones,
                // Grid dimensions never change across rounds, so the
                // trap-to-pixel layout is per-shot, not per-round.
                layout: TrapLayout::new(
                    shot.truth.height(),
                    shot.truth.width(),
                    self.config.pitch_px,
                    4.0,
                ),
                state: shot.truth.clone(),
                rounds: Vec::new(),
                trace: self.config.record_trace.then(ShotTrace::default),
                rng: Self::shot_rng(seed, i),
                fidelity: 0.0,
                pending_zone: None,
                rounds_left: self.config.max_rounds,
                started,
                completed_us: 0.0,
                #[cfg(feature = "test-hooks")]
                index: i,
            })
            .collect();
        let scheduler = ShotScheduler::new(resolve_workers(self.config.workers, programs.len()));
        let (programs, stats) = scheduler.run(programs, |group| planner.plan_batch(group))?;
        let mut reports = Vec::with_capacity(programs.len());
        let mut completion_us = Vec::with_capacity(programs.len());
        let mut traces = self
            .config
            .record_trace
            .then(|| Vec::with_capacity(programs.len()));
        for shot in programs {
            let filled = first_unfilled(&shot.state, shot.zones)?.is_none();
            completion_us.push(shot.completed_us);
            if let Some(traces) = traces.as_mut() {
                traces.push(shot.trace.unwrap_or_default());
            }
            reports.push(PipelineReport {
                rounds: shot.rounds,
                final_state: shot.state,
                filled,
            });
        }
        Ok(BatchRun {
            reports,
            stats,
            completion_us,
            traces,
        })
    }
}

/// One shot's program for the dataflow scheduler: owns the shot's true
/// occupancy, RNG stream, and accumulated round reports; borrows the
/// pipeline (configuration), the shot's zones and the run's shared
/// executor.
struct DataflowShot<'a> {
    pipeline: &'a Pipeline,
    executor: &'a Executor,
    zones: &'a [Zone],
    layout: TrapLayout,
    state: AtomGrid,
    rounds: Vec<RoundReport>,
    trace: Option<ShotTrace>,
    rng: StdRng,
    /// Detection fidelity of the round in flight (observe → execute).
    fidelity: f64,
    /// The zone the round in flight planned against (observe →
    /// execute), for schedule translation out of its tile frame.
    pending_zone: Option<Zone>,
    rounds_left: usize,
    started: Instant,
    completed_us: f64,
    #[cfg(feature = "test-hooks")]
    index: usize,
}

impl DataflowShot<'_> {
    /// Applies any matching straggler injections for the current round.
    #[cfg(feature = "test-hooks")]
    fn stage_delay(&self, stage: DelayStage) {
        for delay in &self.pipeline.config.debug_stage_delay {
            if delay.shot == self.index && delay.round == self.rounds.len() && delay.stage == stage
            {
                std::thread::sleep(std::time::Duration::from_millis(delay.millis));
            }
        }
    }

    #[cfg(not(feature = "test-hooks"))]
    fn stage_delay(&self, _stage: DelayStage) {}
}

impl ShotProgram for DataflowShot<'_> {
    type Job = (AtomGrid, Rect);
    type Plan = qrm_core::scheduler::Plan;

    fn observe(&mut self) -> Result<Option<(AtomGrid, Rect)>, Error> {
        let zone = if self.rounds_left == 0 {
            None
        } else {
            first_unfilled(&self.state, self.zones)?
        };
        let Some(zone) = zone else {
            self.completed_us = self.started.elapsed().as_secs_f64() * 1e6;
            return Ok(None);
        };
        self.stage_delay(DelayStage::Observe);
        let (detection, fidelity) =
            self.pipeline
                .observe(&self.state, &self.layout, &mut self.rng)?;
        self.fidelity = fidelity;
        self.pending_zone = Some(zone);
        // A `Plan`-stage delay runs after observation but before the
        // job joins a plan group, stalling group formation for this
        // shot specifically.
        self.stage_delay(DelayStage::Plan);
        Ok(Some(zone.plan_job(detection.grid)?))
    }

    fn execute(&mut self, plan: qrm_core::scheduler::Plan) -> Result<(), Error> {
        self.stage_delay(DelayStage::Execute);
        let zone = self.pending_zone.take().expect("observe precedes execute");
        let translated;
        let schedule = if zone.covers(&self.state) {
            &plan.schedule
        } else {
            translated = translate_schedule(
                &plan.schedule,
                &zone.tile,
                self.state.height(),
                self.state.width(),
            );
            &translated
        };
        let round = self.pipeline.execute_round(
            self.executor,
            &mut self.state,
            self.zones,
            schedule,
            self.fidelity,
            &mut self.rng,
            self.trace.as_mut(),
        )?;
        self.rounds.push(round);
        self.rounds_left -= 1;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Runs one shot through [`Pipeline::run`] and returns its report.
    fn run_one(
        pipeline: &Pipeline,
        choice: &PlannerChoice,
        truth: &AtomGrid,
        target: Rect,
        seed: u64,
    ) -> PipelineReport {
        let planner = choice.resolve(pipeline.config().workers);
        let shots = [Shot::new(truth.clone(), target)];
        let mut run = pipeline.run(&*planner, &shots, seed).unwrap();
        run.reports.remove(0)
    }

    #[test]
    fn planner_choice_display_parse_round_trips() {
        // Every canonical name parses, and the parsed choice displays
        // the same name again; the name list and the enum stay in sync.
        for name in PlannerChoice::NAMES {
            let choice: PlannerChoice = name.parse().unwrap();
            assert_eq!(choice.to_string(), name);
            assert_eq!(choice.name(), name);
        }
        // Display → FromStr also round-trips for non-default configs
        // (the *name* is the round-trip unit, not the config).
        let custom = PlannerChoice::Software(QrmConfig::paper());
        let reparsed: PlannerChoice = custom.to_string().parse().unwrap();
        assert_eq!(reparsed.name(), custom.name());
        let err = "warp-drive".parse::<PlannerChoice>().unwrap_err();
        assert_eq!(err.name, "warp-drive");
        assert!(err.to_string().contains("qrm"));
    }

    #[test]
    fn single_round_fills_at_high_snr_no_loss() {
        let mut rng = seeded_rng(40);
        let target = Rect::centered(20, 20, 12, 12).unwrap();
        let shots: Vec<Shot> = (0..5)
            .map(|_| AtomGrid::random(20, 20, 0.5, &mut rng))
            .filter(|truth| truth.atom_count() >= 170)
            .map(|truth| Shot::new(truth, target))
            .collect();
        let tried = shots.len();
        assert!(tried >= 3);
        let planner = PlannerChoice::default().resolve(0);
        let run = Pipeline::default().run(&*planner, &shots, 40).unwrap();
        let mut done = 0;
        for (shot, report) in shots.iter().zip(&run.reports) {
            assert_eq!(
                report.final_state.atom_count(),
                shot.truth.atom_count(),
                "no loss configured"
            );
            if report.filled && report.rounds.len() == 1 {
                done += 1;
            }
        }
        assert!(done * 10 >= tried * 7, "done {done}/{tried}");
    }

    #[test]
    fn loss_requires_extra_rounds() {
        let mut rng = seeded_rng(41);
        let truth = AtomGrid::random(20, 20, 0.55, &mut rng);
        let target = Rect::centered(20, 20, 10, 10).unwrap();
        let config = PipelineConfig {
            loss_prob: 0.02,
            max_rounds: 5,
            ..PipelineConfig::default()
        };
        let report = run_one(
            &Pipeline::new(config),
            &PlannerChoice::default(),
            &truth,
            target,
            41,
        );
        // with 2% per-move loss some atoms vanish...
        assert!(report.total_lost() > 0);
        // ...and the pipeline still assembles the target by retrying
        assert!(report.filled, "rounds {}", report.rounds.len());
    }

    #[test]
    fn fpga_planner_path() {
        let mut rng = seeded_rng(42);
        let truth = AtomGrid::random(20, 20, 0.55, &mut rng);
        let target = Rect::centered(20, 20, 12, 12).unwrap();
        let report = run_one(
            &Pipeline::default(),
            &PlannerChoice::Fpga(AcceleratorConfig::balanced()),
            &truth,
            target,
            42,
        );
        assert!(!report.rounds.is_empty());
        assert!(report.rounds[0].detection_fidelity > 0.99);
    }

    #[test]
    fn already_filled_target_needs_no_rounds() {
        let mut truth = AtomGrid::new(8, 8).unwrap();
        let target = Rect::centered(8, 8, 2, 2).unwrap();
        for p in target.positions() {
            truth.set_unchecked(p.row, p.col, true);
        }
        let report = run_one(
            &Pipeline::default(),
            &PlannerChoice::default(),
            &truth,
            target,
            43,
        );
        assert!(report.filled);
        assert!(report.rounds.is_empty());
        assert_eq!(report.total_motion_us(), 0.0);
    }

    #[test]
    fn run_matches_the_serial_reference() {
        // Every shot of a batched run must be observationally identical
        // to running it alone through the serial loop with its derived
        // RNG — for both the software and FPGA planners.
        let mut rng = seeded_rng(50);
        let target = Rect::centered(16, 16, 8, 8).unwrap();
        let shots: Vec<Shot> = (0..3)
            .map(|_| Shot::new(AtomGrid::random(16, 16, 0.6, &mut rng), target))
            .collect();
        for (config, choice) in [
            (
                PipelineConfig {
                    loss_prob: 0.02,
                    max_rounds: 4,
                    ..PipelineConfig::default()
                },
                PlannerChoice::default(),
            ),
            (
                PipelineConfig::default(),
                PlannerChoice::Fpga(AcceleratorConfig::balanced()),
            ),
        ] {
            let planner = choice.resolve(config.workers);
            let pipeline = Pipeline::new(config);
            let batched = pipeline.run(&*planner, &shots, 777).unwrap();
            assert_eq!(batched.reports.len(), shots.len());
            for (i, shot) in shots.iter().enumerate() {
                let mut shot_rng = Pipeline::shot_rng(777, i);
                let (single, _) =
                    reference::run_serial(&pipeline, &*planner, shot, &mut shot_rng).unwrap();
                assert_eq!(single, batched.reports[i], "shot {i}");
            }
        }
    }

    #[test]
    fn run_handles_empty_and_prefilled() {
        let pipeline = Pipeline::default();
        let planner = PlannerChoice::default().resolve(0);
        let target = Rect::centered(8, 8, 2, 2).unwrap();
        assert!(pipeline.run(&*planner, &[], 1).unwrap().reports.is_empty());

        let mut full = AtomGrid::new(8, 8).unwrap();
        for p in target.positions() {
            full.set_unchecked(p.row, p.col, true);
        }
        let run = pipeline
            .run(&*planner, &[Shot::new(full, target)], 1)
            .unwrap();
        assert!(run.reports[0].filled);
        assert!(run.reports[0].rounds.is_empty());

        let empty = Shot {
            truth: AtomGrid::new(8, 8).unwrap(),
            zones: Vec::new(),
        };
        let run = pipeline.run(&*planner, &[empty], 1).unwrap();
        assert!(run.reports[0].filled, "no zones is trivially filled");
        assert!(run.reports[0].rounds.is_empty());
    }

    #[test]
    fn tracing_does_not_perturb_the_run_and_the_trace_replays() {
        use qrm_core::trace::TraceReplayer;
        let mut rng = seeded_rng(45);
        let truth = AtomGrid::random(16, 16, 0.6, &mut rng);
        let target = Rect::centered(16, 16, 8, 8).unwrap();
        let shots = [Shot::new(truth.clone(), target)];
        let planner = PlannerChoice::default().resolve(0);
        let traced = Pipeline::new(PipelineConfig {
            loss_prob: 0.02,
            record_trace: true,
            ..PipelineConfig::default()
        });
        let lossy = Pipeline::new(PipelineConfig {
            loss_prob: 0.02,
            ..PipelineConfig::default()
        });

        let with_trace = traced.run(&*planner, &shots, 9).unwrap();
        let without = lossy.run(&*planner, &shots, 9).unwrap();
        assert_eq!(
            with_trace.reports, without.reports,
            "tracing must not perturb the run"
        );
        assert!(without.traces.is_none());
        let trace = &with_trace.traces.unwrap()[0];
        assert_eq!(
            TraceReplayer::replay(&truth, trace).unwrap(),
            with_trace.reports[0].final_state
        );
    }

    #[test]
    fn multi_zone_run_fills_every_zone() {
        let mut rng = seeded_rng(46);
        let truth = AtomGrid::random(20, 20, 0.6, &mut rng);
        // Three quadrant tiles, each with a 4x4 target centred in its
        // 10x10 tile — the QRM-compatible multi-zone shape.
        let zones = vec![
            Zone {
                tile: Rect::new(0, 0, 10, 10),
                target: Rect::new(3, 3, 4, 4),
            },
            Zone {
                tile: Rect::new(0, 10, 10, 10),
                target: Rect::new(3, 13, 4, 4),
            },
            Zone {
                tile: Rect::new(10, 0, 10, 10),
                target: Rect::new(13, 3, 4, 4),
            },
        ];
        let shot = Shot { truth, zones };
        let pipeline = Pipeline::new(PipelineConfig {
            max_rounds: 9,
            ..PipelineConfig::default()
        });
        let planner = PlannerChoice::default().resolve(0);
        let run = pipeline
            .run(&*planner, std::slice::from_ref(&shot), 46)
            .unwrap();
        let report = &run.reports[0];
        assert!(report.filled, "rounds {}", report.rounds.len());
        for zone in &shot.zones {
            assert!(report.final_state.is_filled(&zone.target).unwrap());
        }
        // The serial reference reproduces the scheduled shot.
        let mut shot_rng = Pipeline::shot_rng(46, 0);
        let (single, _) =
            reference::run_serial(&pipeline, &*planner, &shot, &mut shot_rng).unwrap();
        assert_eq!(*report, single);
    }

    #[test]
    fn motion_time_accumulates() {
        let mut rng = seeded_rng(44);
        let truth = AtomGrid::random(16, 16, 0.6, &mut rng);
        let target = Rect::centered(16, 16, 8, 8).unwrap();
        let report = run_one(
            &Pipeline::default(),
            &PlannerChoice::default(),
            &truth,
            target,
            44,
        );
        if !report.rounds.is_empty() && report.rounds[0].moves > 0 {
            assert!(report.total_motion_us() > 0.0);
        }
    }
}
