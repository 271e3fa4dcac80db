//! # qrm-fpga — cycle-accurate model of the QRM rearrangement accelerator
//!
//! This crate reproduces the FPGA design of paper §IV (Fig. 5/6) as a
//! cycle-level simulator:
//!
//! * [`shift_unit`] — the pipelined Shift Kernel of Fig. 6, modelled
//!   register-by-register with initiation interval 1 (a new line enters
//!   every clock cycle). Its command stream is bit-exact with the
//!   software kernel in [`qrm_core::kernel`].
//! * [`qpm`] — the Quadrant Processing Module: alternating row/column
//!   passes over one canonical quadrant, with dataflow overlap between
//!   passes (the column pass starts as soon as the row pass has streamed
//!   its last line).
//! * [`ldm`] / [`ocm`] — Load Data Module (DMA in + quadrant flips) and
//!   Output Concatenation Module (Row Combination Unit + DMA out).
//! * [`accelerator`] — the full four-quadrant dataflow top; produces both
//!   a functional [`Plan`](qrm_core::scheduler::Plan) and a cycle
//!   breakdown at a configurable clock (250 MHz by default).
//! * [`latency`] — closed-form latency model cross-checked against the
//!   simulator (used for fast parameter sweeps).
//! * [`resources`] — LUT/FF/BRAM cost model on the RFSoC device budget,
//!   calibrated to the utilisation anchors the paper reports (Fig. 8).
//!
//! Why a simulator instead of silicon: the paper's reported numbers are
//! cycle counts at a fixed 250 MHz clock, so simulating the same
//! pipeline at cycle granularity reproduces the measured quantity.
//!
//! ## Quick example
//!
//! ```
//! use qrm_fpga::accelerator::{AcceleratorConfig, QrmAccelerator};
//! use qrm_core::geometry::Rect;
//! use qrm_core::grid::AtomGrid;
//!
//! # fn main() -> Result<(), qrm_core::Error> {
//! let mut rng = qrm_core::loading::seeded_rng(1);
//! let grid = AtomGrid::random(50, 50, 0.5, &mut rng);
//! let target = Rect::centered(50, 50, 30, 30)?;
//!
//! let accel = QrmAccelerator::new(AcceleratorConfig::paper());
//! let report = accel.run(&grid, &target)?;
//! // Headline regime: schedule analysis in about a microsecond.
//! assert!(report.time_us < 3.0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod accelerator;
pub mod clock;
pub mod latency;
pub mod ldm;
pub mod memory;
pub mod ocm;
pub mod qpm;
pub mod resources;
pub mod shift_unit;
pub mod stream;
