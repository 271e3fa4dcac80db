//! # qrm-core — Quadrant-based neutral-atom rearrangement
//!
//! This crate implements the algorithmic core of the DATE 2025 paper
//! *"Design of an FPGA-Based Neutral Atom Rearrangement Accelerator for
//! Quantum Computing"* (Guo et al., arXiv:2411.12401): the **QRM**
//! (Quadrant-based Rearrangement Method) scheduler together with every
//! substrate it needs — bit-packed atom occupancy grids, the 2D-AOD
//! multi-tweezer move model with its cross-product hardware constraint,
//! quadrant flip/restore mapping, the pipelined shift-kernel algorithm,
//! cross-quadrant command merging, and a validating schedule executor.
//!
//! ## Problem
//!
//! Neutral-atom machines load atoms stochastically (~50 % fill) into a 2D
//! optical-trap array. Before a circuit can run, a defect-free sub-array
//! (the *target*) must be assembled by moving atoms with acousto-optic
//! deflector (AOD) tweezers. The scheduler must compute, from a binary
//! occupancy image, a short sequence of *parallel moves* — sets of atoms
//! that shift together in the same direction by the same step — that fills
//! the target region.
//!
//! ## Quick example
//!
//! ```
//! use qrm_core::prelude::*;
//!
//! # fn main() -> Result<(), qrm_core::Error> {
//! // Load a 20x20 array at ~50% fill and assemble a centred 12x12 target.
//! let mut rng = qrm_core::loading::seeded_rng(7);
//! let grid = AtomGrid::random(20, 20, 0.5, &mut rng);
//! let target = Rect::centered(20, 20, 12, 12)?;
//!
//! let scheduler = QrmScheduler::new(QrmConfig::default());
//! let plan = scheduler.plan(&grid, &target)?;
//!
//! // Execute the schedule on a simulated trap array and verify it.
//! let report = Executor::new().run(&grid, &plan.schedule)?;
//! assert_eq!(report.final_grid, plan.predicted);
//! # Ok(())
//! # }
//! ```
//!
//! ## Module map
//!
//! | Module | Content |
//! |--------|---------|
//! | [`geometry`] | [`Position`](geometry::Position), [`Rect`](geometry::Rect), axes, directions, quadrant ids |
//! | [`grid`] | [`AtomGrid`](grid::AtomGrid): bit-packed occupancy matrix with flips and sub-grid views |
//! | [`loading`] | stochastic loading workload generator |
//! | [`target`] | target-region specification and feasibility checks |
//! | [`moves`] | [`ParallelMove`](moves::ParallelMove): the AOD trap-grid move primitive |
//! | [`schedule`] | [`Schedule`](schedule::Schedule), statistics, physical motion-time model |
//! | [`aod`] | AOD cross-product legality checking and greedy move batching |
//! | [`quadrant`] | split/flip/restore coordinate mapping (paper §III-B, Fig. 4) |
//! | [`kernel`] | canonical per-quadrant shift kernel, greedy and balanced strategies (paper §IV-C, Fig. 6) |
//! | [`bitline`] | bit-vector line primitives shared with the FPGA model |
//! | [`codec`] | bit-packed movement-record stream (accelerator output contract) |
//! | [`engine`] | parallel planning engine: every quadrant kernel of a batch as one job on the persistent worker pool |
//! | [`merge`] | cross-quadrant command merging (paper §IV-C) |
//! | [`optimize`] | simulation-validated schedule coalescing (fewer AWG commands) |
//! | [`planner`] | [`Planner`](planner::Planner): the unified planner interface every algorithm implements |
//! | [`scheduler`] | [`QrmScheduler`](scheduler::QrmScheduler): the top-level QRM planner |
//! | [`typical`] | the "typical rearrangement procedure" of paper §III-A |
//! | [`executor`] | schedule execution, validation, loss injection, defect checks |
//! | [`trace`] | replayable move traces, [`TraceReplayer`](trace::TraceReplayer) independent witness |
//!
//! ## Architecture: pool + `Planner`
//!
//! Two cross-cutting pieces tie the planning stack together:
//!
//! * **Persistent worker pool.** Batched planning ([`engine`]) submits
//!   one job per quadrant kernel to the lazily-initialised
//!   process-global thread pool (`rayon::ThreadPool`): OS threads are
//!   spawned once per process, never per batch, and `workers <= 1` runs
//!   inline with no queueing at all. Pooled and serial runs are
//!   bit-identical.
//! * **One [`Planner`](planner::Planner) trait.** Every planner in the
//!   workspace — [`QrmScheduler`](scheduler::QrmScheduler),
//!   [`TypicalScheduler`](typical::TypicalScheduler), the baselines in
//!   `qrm-baselines`, the FPGA model in `qrm-fpga` — implements `name`
//!   / `plan` / `plan_batch` / `executor`, so pipelines and benchmarks
//!   dispatch through `dyn Planner` with no per-algorithm match arms;
//!   transport policy (strict AOD sweeps vs fly-over legs) comes from
//!   the trait, not from callers.
//!
//! ## Conventions
//!
//! Grids are indexed `(row, col)` with row 0 at the **north** (top) edge and
//! column 0 at the **west** (left) edge. Quadrants are named by compass
//! corner ([`QuadrantId`](geometry::QuadrantId)). Canonical (flipped)
//! quadrant coordinates always compress **toward local `(0, 0)`**.

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod aod;
pub mod bitline;
pub mod codec;
pub mod engine;
pub mod error;
pub mod executor;
pub mod geometry;
pub mod grid;
pub mod kernel;
pub mod loading;
pub mod merge;
pub mod moves;
pub mod optimize;
pub mod planner;
pub mod quadrant;
pub mod schedule;
pub mod scheduler;
pub mod target;
pub mod trace;
pub mod typical;

pub use crate::error::Error;

/// Commonly used items, for glob import in examples and downstream crates.
pub mod prelude {
    pub use crate::aod::AodBatcher;
    pub use crate::error::Error;
    pub use crate::executor::{ExecutionReport, Executor};
    pub use crate::geometry::{Axis, Direction, Position, QuadrantId, Rect};
    pub use crate::grid::AtomGrid;
    pub use crate::kernel::{KernelConfig, KernelStrategy};
    pub use crate::loading::{seeded_rng, LoadModel};
    pub use crate::moves::ParallelMove;
    pub use crate::planner::{plan_and_execute, Planner};
    pub use crate::schedule::{MotionModel, Schedule, ScheduleStats};
    pub use crate::scheduler::{Plan, QrmConfig, QrmScheduler};
    pub use crate::target::TargetSpec;
    pub use crate::typical::TypicalScheduler;
}
