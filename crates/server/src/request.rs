//! The typed request/response surface of the planning service.
//!
//! A [`SubmitBatch`] names a registered planner and carries a
//! [`BatchSpec`] — a *deterministic description* of the workload rather
//! than the workload itself. The spec expands to the same grids, zones
//! and pipeline overrides on every machine ([`BatchSpec::workload`]),
//! which is what makes the service testable end to end: a client, the
//! service, and a direct
//! [`Pipeline::run`](qrm_control::pipeline::Pipeline::run) call can all
//! materialise the identical batch and compare reports bit-for-bit.
//!
//! [`Scenario`] extends the spec beyond uniform loading: dead-trap
//! defect maps, in-transit atom loss, multi-zone target patterns and
//! spatially correlated fills — each still a pure function of the spec,
//! so every scenario inherits the same bit-identity contract. Setting
//! [`SubmitBatch::trace`] additionally asks the service to return a
//! replayable [`ShotTrace`] per shot.

use qrm_core::error::Error;
use qrm_core::geometry::Rect;
use qrm_core::grid::AtomGrid;
use qrm_core::loading::seeded_rng;
use qrm_core::trace::ShotTrace;
use rand::Rng;

use qrm_control::pipeline::{PipelineConfig, PipelineReport, Shot, Zone};

/// Salt applied to [`BatchSpec::seed`] for the defect-map stream, so
/// dead-trap placement is independent of the loading stream (the truth
/// grids of a `DefectMap` batch match the `UniformFill` grids site for
/// site outside the dead traps).
const DEFECT_SALT: u64 = 0xdefe_c7ab_1e5a_17e5;

/// How a [`BatchSpec`] loads the array and shapes its target pattern.
///
/// Every variant is a pure function of the spec — two equal specs
/// expand to bit-identical workloads — so hostile scenarios inherit
/// the full determinism contract of the uniform path. The default,
/// [`UniformFill`](Scenario::UniformFill), reproduces the pre-scenario
/// workload construction byte for byte (and is omitted from the wire
/// encoding, keeping old fixtures canonical).
#[derive(Debug, Clone, Copy, Default, PartialEq, serde::Serialize, serde::Deserialize)]
pub enum Scenario {
    /// Independent per-trap Bernoulli loading at `fill` against the
    /// single centred target — the classic workload.
    #[default]
    UniformFill,
    /// Dead traps: a deterministic defect map (drawn from
    /// `seed ^ DEFECT_SALT`) clears a fraction of the non-target sites
    /// in every shot's loaded grid, starving the reservoir near the
    /// defects.
    DefectMap {
        /// Probability that a site is a dead trap. Sites inside the
        /// target are never killed (the workload must stay feasible).
        dead_fraction: f64,
    },
    /// In-transit atom loss: every move loses each flying atom with
    /// this probability, and the pipeline's round budget is doubled so
    /// refills can converge.
    AtomLoss {
        /// Per-move single-atom loss probability.
        loss_prob: f64,
    },
    /// A `rows x cols` lattice of independent target zones, each a
    /// centred ~60 % pattern within its tile — non-square, off-centre
    /// (relative to the full array) targets that exercise the planners'
    /// sub-grid path. The round budget scales with the zone count.
    Zones {
        /// Zone rows; must divide `size` into even tiles of side >= 4.
        rows: usize,
        /// Zone columns; same divisibility constraints as `rows`.
        cols: usize,
    },
    /// Spatially correlated loading: occupancy is drawn on a coarse
    /// `grain x grain`-site cell lattice at `fill`, then each site flips
    /// its cell's value with probability `flip_prob` — clumps and voids
    /// instead of independent traps.
    CorrelatedFill {
        /// Correlation length: side of a coherently-loaded cell, in
        /// sites.
        grain: usize,
        /// Per-site probability of disagreeing with the cell value.
        flip_prob: f64,
    },
}

impl Scenario {
    fn is_uniform_fill(&self) -> bool {
        *self == Scenario::UniformFill
    }
}

/// A [`BatchSpec`] expanded to the concrete inputs of a pipeline run:
/// the true occupancy grids, the target zones, and the pipeline
/// overrides the scenario demands.
///
/// Deterministic — every call, on any machine, yields bit-identical
/// grids — so the equivalence contract between
/// [`submit`](crate::PlanService::submit) and a direct
/// [`Pipeline::run`](qrm_control::pipeline::Pipeline::run) over
/// [`into_shots`](Workload::into_shots) is checkable by anyone holding
/// the spec.
#[derive(Debug, Clone)]
pub struct Workload {
    /// True occupancy grids, one per shot.
    pub truths: Vec<AtomGrid>,
    /// Target zones, in fill-priority order (a single full-array zone
    /// for every scenario except [`Scenario::Zones`]).
    pub zones: Vec<Zone>,
    /// Transport loss probability override ([`Scenario::AtomLoss`]),
    /// if the scenario sets one.
    pub loss_prob: Option<f64>,
    /// Multiplier on the pipeline's `max_rounds` budget (>= 1).
    pub rounds_factor: usize,
}

impl Workload {
    /// Applies this workload's overrides to a base pipeline
    /// configuration: the scenario's loss probability (when set) and
    /// the scaled round budget.
    #[must_use]
    pub fn configure(&self, base: &PipelineConfig) -> PipelineConfig {
        let mut config = base.clone();
        if let Some(loss_prob) = self.loss_prob {
            config.loss_prob = loss_prob;
        }
        config.max_rounds *= self.rounds_factor.max(1);
        config
    }

    /// The workload as pipeline shots: one per truth grid, in order,
    /// each carrying the zone list.
    #[must_use]
    pub fn into_shots(self) -> Vec<Shot> {
        let zones = self.zones;
        self.truths
            .into_iter()
            .map(|truth| Shot {
                truth,
                zones: zones.clone(),
            })
            .collect()
    }
}

/// Deterministic description of one batch workload: `shots` random
/// `size x size` occupancy grids at `fill` probability (drawn from a
/// generator seeded with `seed`) against a centred target of ~60 %
/// linear size — optionally reshaped by a hostile [`Scenario`].
///
/// The spec is the unit of reproducibility: two equal specs expand to
/// bit-identical workloads, and `seed` doubles as the base seed of the
/// batched pipeline run (each shot then derives its own stream via
/// `Pipeline::shot_rng`).
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct BatchSpec {
    /// Independent shots in the batch.
    pub shots: usize,
    /// Array side length (QRM requires it even).
    pub size: usize,
    /// Per-trap loading probability of the generated grids.
    pub fill: f64,
    /// Seed of the workload generator *and* base seed of the batched
    /// pipeline run.
    pub seed: u64,
    /// Loading/target scenario. The default `UniformFill` reproduces
    /// the pre-scenario workload byte for byte and is omitted from the
    /// wire encoding, so pre-scenario specs stay canonical.
    #[serde(default, skip_serializing_if = "Scenario::is_uniform_fill")]
    pub scenario: Scenario,
}

impl BatchSpec {
    /// Creates a uniform-fill spec with the default 55 % loading
    /// probability.
    pub fn new(shots: usize, size: usize, seed: u64) -> Self {
        BatchSpec {
            shots,
            size,
            fill: 0.55,
            seed,
            scenario: Scenario::UniformFill,
        }
    }

    /// Replaces the loading probability.
    #[must_use]
    pub fn with_fill(mut self, fill: f64) -> Self {
        self.fill = fill;
        self
    }

    /// Replaces the scenario.
    #[must_use]
    pub fn with_scenario(mut self, scenario: Scenario) -> Self {
        self.scenario = scenario;
        self
    }

    /// The centred target rectangle the spec implies (~60 % linear size,
    /// forced even, at least 2).
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidTarget`] for sizes too small to hold the
    /// target (`size < 2`).
    pub fn target(&self) -> Result<Rect, Error> {
        let side = ((self.size * 3 / 5) & !1).max(2);
        Rect::centered(self.size, self.size, side, side)
    }

    /// Checks the spec's parameters for semantic validity (probability
    /// ranges, zone divisibility) without materialising the workload.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidSpec`] naming the offending parameter.
    pub fn validate(&self) -> Result<(), Error> {
        fn probability(p: f64, reason: &'static str) -> Result<(), Error> {
            if (0.0..=1.0).contains(&p) {
                Ok(())
            } else {
                Err(Error::InvalidSpec { reason })
            }
        }
        probability(self.fill, "fill outside [0, 1]")?;
        match self.scenario {
            Scenario::UniformFill => {}
            Scenario::DefectMap { dead_fraction } => {
                probability(dead_fraction, "dead_fraction outside [0, 1]")?;
            }
            Scenario::AtomLoss { loss_prob } => {
                probability(loss_prob, "loss_prob outside [0, 1]")?;
            }
            Scenario::Zones { rows, cols } => {
                if rows == 0 || cols == 0 {
                    return Err(Error::InvalidSpec {
                        reason: "zone lattice has zero extent",
                    });
                }
                if !self.size.is_multiple_of(rows) || !self.size.is_multiple_of(cols) {
                    return Err(Error::InvalidSpec {
                        reason: "size not divisible into the zone lattice",
                    });
                }
                let (tile_h, tile_w) = (self.size / rows, self.size / cols);
                if tile_h % 2 != 0 || tile_w % 2 != 0 || tile_h < 4 || tile_w < 4 {
                    return Err(Error::InvalidSpec {
                        reason: "zone tiles must be even-sided and at least 4 sites",
                    });
                }
            }
            Scenario::CorrelatedFill { grain, flip_prob } => {
                if grain == 0 {
                    return Err(Error::InvalidSpec {
                        reason: "correlation grain must be at least 1",
                    });
                }
                probability(flip_prob, "flip_prob outside [0, 1]")?;
            }
        }
        Ok(())
    }

    /// Expands the spec into its concrete [`Workload`]. Deterministic —
    /// every call, on any machine, yields bit-identical grids and
    /// zones.
    ///
    /// # Errors
    ///
    /// Propagates [`validate`](Self::validate) and
    /// [`target`](Self::target) failures for degenerate parameters.
    pub fn workload(&self) -> Result<Workload, Error> {
        self.validate()?;
        let size = self.size;
        let full_target = self.target()?;
        let full_zone = || vec![Zone::full_array(size, size, full_target)];
        match self.scenario {
            Scenario::UniformFill => Ok(Workload {
                truths: self.uniform_truths(),
                zones: full_zone(),
                loss_prob: None,
                rounds_factor: 1,
            }),
            Scenario::DefectMap { dead_fraction } => {
                // Draw the defect stream over every site (including the
                // protected target interior) so the map is independent
                // of the target geometry.
                let mut defect_rng = seeded_rng(self.seed ^ DEFECT_SALT);
                let mut dead = Vec::new();
                for row in 0..size {
                    for col in 0..size {
                        let hit = defect_rng.gen_bool(dead_fraction);
                        let in_target = row >= full_target.row
                            && row < full_target.row + full_target.height
                            && col >= full_target.col
                            && col < full_target.col + full_target.width;
                        if hit && !in_target {
                            dead.push((row, col));
                        }
                    }
                }
                let mut truths = self.uniform_truths();
                for grid in &mut truths {
                    for &(row, col) in &dead {
                        grid.set_unchecked(row, col, false);
                    }
                }
                Ok(Workload {
                    truths,
                    zones: full_zone(),
                    loss_prob: None,
                    rounds_factor: 1,
                })
            }
            Scenario::AtomLoss { loss_prob } => Ok(Workload {
                truths: self.uniform_truths(),
                zones: full_zone(),
                loss_prob: Some(loss_prob),
                rounds_factor: 2,
            }),
            Scenario::Zones { rows, cols } => {
                let (tile_h, tile_w) = (size / rows, size / cols);
                let zone_h = ((tile_h * 3 / 5) & !1).max(2);
                let zone_w = ((tile_w * 3 / 5) & !1).max(2);
                let local = Rect::centered(tile_h, tile_w, zone_h, zone_w)?;
                let mut zones = Vec::with_capacity(rows * cols);
                for tr in 0..rows {
                    for tc in 0..cols {
                        let (origin_r, origin_c) = (tr * tile_h, tc * tile_w);
                        zones.push(Zone {
                            tile: Rect::new(origin_r, origin_c, tile_h, tile_w),
                            target: Rect::new(
                                origin_r + local.row,
                                origin_c + local.col,
                                zone_h,
                                zone_w,
                            ),
                        });
                    }
                }
                Ok(Workload {
                    truths: self.uniform_truths(),
                    zones,
                    loss_prob: None,
                    rounds_factor: rows * cols,
                })
            }
            Scenario::CorrelatedFill { grain, flip_prob } => {
                let cells = size.div_ceil(grain);
                let mut rng = seeded_rng(self.seed);
                let mut truths = Vec::with_capacity(self.shots);
                for _ in 0..self.shots {
                    let lattice: Vec<bool> = (0..cells * cells)
                        .map(|_| rng.gen_bool(self.fill))
                        .collect();
                    let mut grid = AtomGrid::new(size, size)?;
                    for row in 0..size {
                        for col in 0..size {
                            let cell = lattice[(row / grain) * cells + col / grain];
                            let occupied = cell != rng.gen_bool(flip_prob);
                            grid.set_unchecked(row, col, occupied);
                        }
                    }
                    truths.push(grid);
                }
                Ok(Workload {
                    truths,
                    zones: full_zone(),
                    loss_prob: None,
                    rounds_factor: 1,
                })
            }
        }
    }

    /// The classic loading stream: `shots` independent uniform grids
    /// from `seeded_rng(seed)` — byte-identical to the pre-scenario
    /// workload construction.
    fn uniform_truths(&self) -> Vec<AtomGrid> {
        let mut rng = seeded_rng(self.seed);
        (0..self.shots)
            .map(|_| AtomGrid::random(self.size, self.size, self.fill, &mut rng))
            .collect()
    }
}

/// A batch submission: which registered planner should run which
/// workload, and whether to return the replayable move traces.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct SubmitBatch {
    /// Registration name (chosen at
    /// [`register`](crate::PlanServiceBuilder::register) time).
    pub planner: String,
    /// The workload to plan.
    pub spec: BatchSpec,
    /// Ask the service to record and return one [`ShotTrace`] per shot
    /// in [`BatchReport::trace`]. Tracing only observes: `reports` are
    /// bit-identical with it on or off. Traced responses bypass the
    /// response cache and are subject to the service's event cap
    /// (`trace_too_large`). Omitted from the wire encoding when false,
    /// so pre-trace submissions stay canonical.
    #[serde(default, skip_serializing_if = "std::ops::Not::not")]
    pub trace: bool,
}

impl SubmitBatch {
    /// Creates a submission (without trace capture).
    pub fn new(planner: impl Into<String>, spec: BatchSpec) -> Self {
        SubmitBatch {
            planner: planner.into(),
            spec,
            trace: false,
        }
    }

    /// Sets whether the response should carry replayable move traces.
    #[must_use]
    pub fn with_trace(mut self, trace: bool) -> Self {
        self.trace = trace;
        self
    }

    /// The canonical content-address of this submission: an injective
    /// byte rendering of exactly the fields the `/v1` wire encoding
    /// carries — length-prefixed planner name, then `shots`, `size`,
    /// `fill` (as its IEEE-754 bit pattern) and `seed`, all
    /// little-endian `u64`. A submission whose scenario or trace flag
    /// differs from the defaults appends a suffix: a one-byte scenario
    /// tag, the scenario's parameters (little-endian `u64` / IEEE-754
    /// bits), and the trace flag as one byte. Default submissions
    /// append nothing, so their keys are byte-identical to the
    /// pre-scenario release — a router ring built from old keys routes
    /// the same requests to the same backends.
    ///
    /// Canonicalization rule (`docs/PROTOCOL.md`): two submissions have
    /// equal cache keys **iff** their wire encodings are byte-identical.
    /// The length prefix makes the planner/spec boundary unambiguous,
    /// the wire codec's shortest-round-trip float writer maps
    /// distinct `fill` bit patterns to distinct JSON, and the suffix
    /// tag disambiguates the scenario variants — so equality of
    /// keys, of `SubmitBatch` values, and of wire bytes all coincide
    /// (pinned by a proptest in `crates/wire/tests/cache_bytes.rs`).
    /// Since a spec fully determines its report payload, equal keys
    /// also mean interchangeable responses — which is what lets the
    /// response cache and the router's consistent-hash ring both
    /// address by these bytes.
    #[must_use]
    pub fn cache_key(&self) -> Vec<u8> {
        let mut key = Vec::with_capacity(self.planner.len() + 64);
        key.extend_from_slice(&(self.planner.len() as u64).to_le_bytes());
        key.extend_from_slice(self.planner.as_bytes());
        key.extend_from_slice(&(self.spec.shots as u64).to_le_bytes());
        key.extend_from_slice(&(self.spec.size as u64).to_le_bytes());
        key.extend_from_slice(&self.spec.fill.to_bits().to_le_bytes());
        key.extend_from_slice(&self.spec.seed.to_le_bytes());
        if self.spec.scenario != Scenario::UniformFill || self.trace {
            match self.spec.scenario {
                Scenario::UniformFill => key.push(0),
                Scenario::DefectMap { dead_fraction } => {
                    key.push(1);
                    key.extend_from_slice(&dead_fraction.to_bits().to_le_bytes());
                }
                Scenario::AtomLoss { loss_prob } => {
                    key.push(2);
                    key.extend_from_slice(&loss_prob.to_bits().to_le_bytes());
                }
                Scenario::Zones { rows, cols } => {
                    key.push(3);
                    key.extend_from_slice(&(rows as u64).to_le_bytes());
                    key.extend_from_slice(&(cols as u64).to_le_bytes());
                }
                Scenario::CorrelatedFill { grain, flip_prob } => {
                    key.push(4);
                    key.extend_from_slice(&(grain as u64).to_le_bytes());
                    key.extend_from_slice(&flip_prob.to_bits().to_le_bytes());
                }
            }
            key.push(u8::from(self.trace));
        }
        key
    }
}

/// The service's response to one [`SubmitBatch`].
///
/// `reports` is the deterministic payload: it is **bit-identical** to
/// calling [`Pipeline::run`](qrm_control::pipeline::Pipeline::run)
/// directly with the same configuration and the spec's workload,
/// regardless of how many submissions the service was handling
/// concurrently (the integration suite pins this for every planner).
/// `wall_us` is measurement, not payload — it varies run to run and is
/// excluded from the equivalence contract.
/// `trace`, when requested, is payload too: replaying shot `i`'s trace
/// on the spec's truth grid `i` reproduces `reports[i].final_state`
/// bit-exactly.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct BatchReport {
    /// Registration name that served the batch.
    pub planner: String,
    /// Per-shot pipeline reports, in shot order.
    pub reports: Vec<PipelineReport>,
    /// Wall-clock service time of the batch (µs), queueing excluded.
    pub wall_us: f64,
    /// Replayable per-shot move traces, in shot order — present iff
    /// the submission set [`SubmitBatch::trace`]. Omitted from the wire
    /// encoding when absent, so untraced reports stay canonical.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub trace: Option<Vec<ShotTrace>>,
}

impl BatchReport {
    /// Shots whose target ended defect-free.
    pub fn filled(&self) -> usize {
        self.reports.iter().filter(|r| r.filled).count()
    }

    /// Shots in the batch.
    pub fn shots(&self) -> usize {
        self.reports.len()
    }
}

/// Why a submission failed.
#[derive(Debug)]
pub enum ServiceError {
    /// The submission named a planner no registration covers.
    UnknownPlanner(String),
    /// Workload expansion or planning/execution failed.
    Planning(Error),
    /// The requested trace exceeds the service's event cap
    /// ([`trace_event_cap`](crate::PlanServiceBuilder::trace_event_cap)).
    TraceTooLarge {
        /// Events the batch's traces recorded.
        events: usize,
        /// The service's configured cap.
        cap: usize,
    },
}

impl ServiceError {
    /// Stable machine-readable code for this error, used verbatim as
    /// the `code` of a wire-level `ErrorReply` (see
    /// `docs/PROTOCOL.md`). Codes are part of the protocol: existing
    /// values never change meaning, new variants add new codes.
    pub fn code(&self) -> &'static str {
        match self {
            ServiceError::UnknownPlanner(_) => "unknown_planner",
            ServiceError::Planning(_) => "planning_failed",
            ServiceError::TraceTooLarge { .. } => "trace_too_large",
        }
    }
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServiceError::UnknownPlanner(name) => {
                write!(f, "no planner registered under {name:?}")
            }
            ServiceError::Planning(err) => write!(f, "planning failed: {err}"),
            ServiceError::TraceTooLarge { events, cap } => {
                write!(f, "trace of {events} events exceeds the cap of {cap}")
            }
        }
    }
}

impl std::error::Error for ServiceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServiceError::UnknownPlanner(_) => None,
            ServiceError::Planning(err) => Some(err),
            ServiceError::TraceTooLarge { .. } => None,
        }
    }
}

impl From<Error> for ServiceError {
    fn from(err: Error) -> Self {
        ServiceError::Planning(err)
    }
}
