//! # qrm-control — AWG control path, system budgets, end-to-end pipeline
//!
//! The rearrangement schedule is only useful once it drives hardware:
//! an Arbitrary Waveform Generator (AWG) synthesises RF tone ramps that
//! steer the 2D acousto-optic deflector, physically dragging the trapped
//! atoms (paper Fig. 1). This crate models that consumer side plus the
//! system-level picture:
//!
//! * [`awg`] — compiles a [`Schedule`](qrm_core::schedule::Schedule) into
//!   per-move RF tone ramps with a physical motion-time model, and can
//!   synthesise the actual multi-tone waveform samples.
//! * [`system`] — the Fig. 2 architecture comparison: the conventional
//!   host-in-the-loop control system (camera → host CPU/GPU → AWG) versus
//!   the paper's fully FPGA-integrated system, as latency budgets.
//! * [`pipeline`] — executable end-to-end cycles: synthetic fluorescence
//!   frame → atom detection → scheduling (software QRM or the
//!   cycle-accurate FPGA model) → validated execution with optional
//!   transport loss → re-imaging rounds until the target is defect-free.
//!
//! ## Quick example
//!
//! A batch of full image→detect→plan→move cycles (with re-imaging
//! rounds) on simulated trap arrays. [`Pipeline::run`] is the one entry
//! point: it takes the planner, the shots and a base seed, and runs every
//! shot as its own observe → plan → execute chain on the worker pool.
//!
//! ```
//! use qrm_control::pipeline::{Pipeline, PipelineConfig, PlannerChoice, Shot};
//! use qrm_core::geometry::Rect;
//! use qrm_core::grid::AtomGrid;
//! use qrm_core::loading::seeded_rng;
//!
//! # fn main() -> Result<(), qrm_core::Error> {
//! let mut rng = seeded_rng(40);
//! let target = Rect::centered(16, 16, 8, 8)?;
//! let shots: Vec<Shot> = (0..2)
//!     .map(|_| Shot::new(AtomGrid::random(16, 16, 0.6, &mut rng), target))
//!     .collect();
//!
//! let pipeline = Pipeline::new(PipelineConfig {
//!     loss_prob: 0.01, // 1 % per-move transport loss
//!     max_rounds: 3,   // re-image and repair up to twice
//!     ..PipelineConfig::default()
//! });
//! let planner = PlannerChoice::default().resolve(pipeline.config().workers);
//! let run = pipeline.run(&*planner, &shots, 40)?;
//! assert_eq!(run.reports.len(), 2);
//! assert!(run.reports.iter().all(|report| report.rounds.len() <= 3));
//! # Ok(())
//! # }
//! ```
//!
//! [`Pipeline::run`]: pipeline::Pipeline::run

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod awg;
pub mod pipeline;
pub mod system;
