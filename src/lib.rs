//! # atom-rearrange
//!
//! Rust reproduction of *"Design of an FPGA-Based Neutral Atom
//! Rearrangement Accelerator for Quantum Computing"* (Guo et al., DATE
//! 2025, arXiv:2411.12401): the **QRM** quadrant-based rearrangement
//! scheduler, a cycle-accurate model of its FPGA accelerator, the
//! published baselines it is compared against, and the imaging/control
//! substrates that close the Fig. 1 loop.
//!
//! This crate is the umbrella facade: it re-exports the workspace crates
//! and hosts the runnable examples and cross-crate integration tests.
//!
//! | Crate | Content |
//! |-------|---------|
//! | [`core`](qrm_core) | atom grids, AOD move model, QRM scheduler, parallel planning engine, executor |
//! | [`fpga`](qrm_fpga) | accelerator model: one cycle formula, with the cycle-accurate simulator as its witness; resource model |
//! | [`baselines`](qrm_baselines) | Tetris, PSCA, MTA1 reimplementations |
//! | [`vision`](qrm_vision) | synthetic fluorescence imaging + atom detection |
//! | [`control`](qrm_control) | AWG tone programs, system budgets, end-to-end pipeline |
//! | [`server`](qrm_server) | long-lived planning service: planner registry, concurrent batch submissions, service stats |
//! | [`wire`](qrm_wire) | dependency-free JSON codec for the service's request/response types (`docs/PROTOCOL.md`) |
//! | [`net`](qrm_net) | HTTP/1.1 front end + blocking client over the planning service |
//!
//! ## Quickstart
//!
//! ```
//! use atom_rearrange::prelude::*;
//!
//! # fn main() -> Result<(), qrm_core::Error> {
//! let mut rng = qrm_core::loading::seeded_rng(7);
//! let grid = AtomGrid::random(50, 50, 0.5, &mut rng);
//! let target = Rect::centered(50, 50, 30, 30)?;
//!
//! // Software QRM...
//! let plan = QrmScheduler::new(QrmConfig::default()).plan(&grid, &target)?;
//! // ...or the FPGA accelerator model.
//! let report = QrmAccelerator::new(AcceleratorConfig::balanced()).run(&grid, &target)?;
//!
//! let exec = Executor::new().run(&grid, &report.plan.schedule)?;
//! assert_eq!(exec.final_grid, report.plan.predicted);
//! println!("analysis in {:.2} us", report.time_us);
//! # Ok(())
//! # }
//! ```
//!
//! ## Batched planning
//!
//! Multi-shot workloads go through
//! [`Planner::plan_batch`](qrm_core::planner::Planner::plan_batch)
//! — every planner supports it, and QRM (software and FPGA model alike)
//! routes the batch through the parallel task-graph engine in
//! [`qrm_core::engine`], running every shot's quadrant kernels as jobs
//! on the **persistent work-stealing worker pool** (threads are spawned
//! once per process, never per batch; jobs fan out via per-worker
//! deques). The end-to-end pipeline goes further:
//! [`Pipeline::run`](qrm_control::pipeline::Pipeline::run) drives every
//! shot through its own image → detect → plan → execute chain of pool
//! jobs, planning the shots that are ready together in one batch.
//! Results are bit-identical to per-shot
//! [`Planner::plan`](qrm_core::planner::Planner::plan) calls and to a
//! serial round loop at any worker count (`tests/determinism.rs`).
//!
//! ```
//! use atom_rearrange::prelude::*;
//!
//! # fn main() -> Result<(), qrm_core::Error> {
//! let mut rng = qrm_core::loading::seeded_rng(7);
//! let target = Rect::centered(20, 20, 12, 12)?;
//! let jobs: Vec<(AtomGrid, Rect)> = (0..8)
//!     .map(|_| (AtomGrid::random(20, 20, 0.5, &mut rng), target))
//!     .collect();
//!
//! // Trait-level batching (parallel for QRM, serial default elsewhere)...
//! let plans = QrmScheduler::new(QrmConfig::default()).plan_batch(&jobs)?;
//! assert_eq!(plans.len(), 8);
//!
//! // ...with an explicit worker count: the same plans.
//! let plans2 = QrmScheduler::new(QrmConfig::default()).with_workers(4).plan_batch(&jobs)?;
//! assert_eq!(plans, plans2);
//!
//! // The end-to-end pipeline plans ready shots the same way.
//! let shots: Vec<Shot> = (0..4)
//!     .map(|_| Shot::new(AtomGrid::random(20, 20, 0.55, &mut rng), target))
//!     .collect();
//! let planner = QrmScheduler::new(QrmConfig::default());
//! let run = Pipeline::default().run(&planner, &shots, 42)?;
//! assert_eq!(run.reports.len(), 4);
//! # Ok(())
//! # }
//! ```

pub use qrm_baselines;
pub use qrm_control;
pub use qrm_core;
pub use qrm_fpga;
pub use qrm_net;
pub use qrm_server;
pub use qrm_vision;
pub use qrm_wire;

/// One-stop imports for applications.
pub mod prelude {
    pub use qrm_baselines::{Mta1Scheduler, PscaScheduler, TetrisScheduler};
    pub use qrm_control::awg::{AodCalibration, ToneProgram};
    pub use qrm_control::pipeline::{Pipeline, PipelineConfig, PlannerChoice, Shot};
    pub use qrm_control::system::{Architecture, SystemModel};
    pub use qrm_core::prelude::*;
    pub use qrm_fpga::accelerator::{AcceleratorConfig, QrmAccelerator};
    pub use qrm_fpga::resources::ResourceModel;
    pub use qrm_net::{Client, NetConfig, Server};
    pub use qrm_server::{BatchSpec, PlanService, SubmitBatch};
    pub use qrm_vision::prelude::*;
    pub use qrm_wire::{FromJson, ToJson};
}
