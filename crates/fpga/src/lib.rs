//! # qrm-fpga — model of the QRM rearrangement accelerator
//!
//! This crate reproduces the FPGA design of paper §IV (Fig. 5/6). Its
//! pass schedule is static, so its latency depends only on the array's
//! shape and the iteration count (§V-B): the model plans in software
//! and takes its cycles from one formula, and a cycle-by-cycle
//! simulator of the same pipeline is the witness for both.
//!
//! * [`accelerator`] — the four-quadrant top. It plans through the
//!   software engine with the kernel in its static-iterations mode and
//!   fills the cycle breakdown from one closed form
//!   ([`accelerator::compute_cycles`] plus the LDM and OCM terms) at a
//!   configurable clock (250 MHz by default).
//! * [`ldm`] / [`ocm`] — the cost terms of the Load Data Module (DMA in;
//!   the quadrant flips are free wiring) and the Output Concatenation
//!   Module (Row Combination Unit drain tail, DMA out).
//! * [`qpm`] and [`shift_unit`] — the witness: the Quadrant Processing
//!   Module's alternating row/column passes with dataflow overlap
//!   between them, over the pipelined Shift Kernel of Fig. 6 modelled
//!   register by register (a new line enters every clock cycle). The
//!   tests check the formula's cycles and the engine's plans against
//!   them; `examples/fpga_trace.rs` prints their stage-by-stage trace.
//! * [`resources`] — LUT/FF/BRAM cost model on the RFSoC device budget,
//!   calibrated to the utilisation anchors the paper reports (Fig. 8).
//!
//! Why cycles instead of silicon: the paper's reported numbers are
//! cycle counts at a fixed 250 MHz clock, so counting the same
//! pipeline's cycles reproduces the measured quantity.
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
pub mod ldm;
pub mod memory;
pub mod ocm;
pub mod qpm;
pub mod resources;
pub mod shift_unit;
pub mod stream;
