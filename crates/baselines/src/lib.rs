//! # qrm-baselines — published atom-rearrangement baselines
//!
//! Reimplementations of the three algorithms the paper benchmarks QRM
//! against in Fig. 7(b), each implementing
//! [`Planner`](qrm_core::planner::Planner) so they can be compared
//! head-to-head with QRM on identical instances:
//!
//! * [`tetris`] — Wang et al., *Accelerating the assembly of defect-free
//!   atomic arrays with maximum parallelisms* (PRApplied 19, 054032,
//!   2023): per-line assignment of atoms to target sites followed by
//!   displacement-grouped parallel moves.
//! * [`psca`] — Tian et al., *Parallel assembly of arbitrary defect-free
//!   atom arrays with a multitweezer algorithm* (PRApplied 19, 034048,
//!   2023): per-column parallel compression with row redistribution.
//! * [`mta1`] — Ebadi et al., *Quantum phases of matter on a 256-atom
//!   programmable quantum simulator* (Nature 595, 2021): sequential
//!   per-defect single-tweezer moves along collision-free paths.
//!
//! The crate also ships [`hybrid`] — QRM followed by targeted
//! single-tweezer repair — an extension combining the paper's fast
//! parallel schedule with MTA1-class assembly success.
//!
//! These are structural reimplementations from the published algorithm
//! descriptions, not ports of the authors' code (which is not public).
//! What the Fig. 7(b) benchmark compares is *schedule-analysis time*,
//! which is governed by the algorithmic structure reproduced here:
//! bit-parallel single passes (QRM) vs per-line assignment DP (Tetris)
//! vs iterative scalar compression with per-move rescans (PSCA) vs
//! per-defect path search (MTA1).
//!
//! ## Quick example
//!
//! Every baseline is a [`Planner`](qrm_core::planner::Planner), so any
//! of them drops into code written against the trait:
//!
//! ```
//! use qrm_baselines::TetrisScheduler;
//! use qrm_core::geometry::Rect;
//! use qrm_core::grid::AtomGrid;
//! use qrm_core::loading::seeded_rng;
//! use qrm_core::planner::plan_and_execute;
//!
//! # fn main() -> Result<(), qrm_core::Error> {
//! let mut rng = seeded_rng(2);
//! let grid = AtomGrid::random(16, 16, 0.6, &mut rng);
//! let target = Rect::centered(16, 16, 8, 8)?;
//!
//! let (plan, report) = plan_and_execute(&TetrisScheduler::default(), &grid, &target)?;
//! assert_eq!(report.final_grid, plan.predicted);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod hybrid;
pub mod mta1;
pub mod psca;
pub mod stepper;
pub mod tetris;

pub use hybrid::HybridScheduler;
pub use mta1::Mta1Scheduler;
pub use psca::PscaScheduler;
pub use tetris::TetrisScheduler;
