//! The Load Data Module (paper §IV-B).
//!
//! The LDM streams the detection bitfield out of DDR over the 1024-bit
//! AXI link and feeds four Load Vector units that carve the array into
//! quadrants, applying the canonical flips on the fly ("the flip
//! operation is automatically performed to prepare the data"). Flips are
//! pure wiring in hardware and cost no extra cycles; the module's latency
//! is the DMA transfer.

use qrm_core::error::Error;
use qrm_core::grid::AtomGrid;
use qrm_core::quadrant::QuadrantMap;

use crate::memory::DdrModel;
use crate::stream::AxiStream;

/// LDM configuration.
#[derive(Debug, Clone, Copy, PartialEq, Default, serde::Serialize, serde::Deserialize)]
pub struct LdmConfig {
    /// AXI link carrying the bitfield.
    pub axi: AxiStream,
    /// DDR the bitfield is read from.
    pub ddr: DdrModel,
}

/// Result of loading one frame.
#[derive(Debug, Clone)]
pub struct LdmReport {
    /// Canonically-oriented quadrant grids (NW, NE, SW, SE).
    pub quadrants: [AtomGrid; 4],
    /// Cycles spent on the input path (DDR first-access + streaming).
    pub cycles: u64,
    /// Payload bits transferred.
    pub bits: usize,
}

/// The load-data module.
///
/// ```
/// use qrm_fpga::ldm::{LdmConfig, LoadDataModule};
/// use qrm_core::grid::AtomGrid;
/// use qrm_core::quadrant::QuadrantMap;
///
/// # fn main() -> Result<(), qrm_core::Error> {
/// let mut rng = qrm_core::loading::seeded_rng(2);
/// let grid = AtomGrid::random(20, 20, 0.5, &mut rng);
/// let map = QuadrantMap::new(20, 20)?;
/// let report = LoadDataModule::new(LdmConfig::default()).load(&grid, &map)?;
/// assert_eq!(report.bits, 400);
/// assert_eq!(report.quadrants[0].dims(), (10, 10));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct LoadDataModule {
    config: LdmConfig,
}

impl LoadDataModule {
    /// Creates a module.
    pub fn new(config: LdmConfig) -> Self {
        LoadDataModule { config }
    }

    /// Input-path cycles and payload bits for streaming a
    /// `height x width` bitfield, without performing the split — used
    /// when the quadrant decomposition is already shared via
    /// [`qrm_core::engine::decompose`] (the flips are free wiring, so
    /// the timing depends only on the frame size).
    pub fn stream_timing(&self, height: usize, width: usize) -> (u64, usize) {
        let bits = height * width;
        let cycles = self.config.ddr.read_latency_cycles + self.config.axi.transfer_cycles(bits);
        (cycles, bits)
    }

    /// Streams `grid` in and splits it into canonical quadrants.
    ///
    /// # Errors
    ///
    /// Returns [`Error::DimensionMismatch`] when `grid` does not match
    /// `map`.
    pub fn load(&self, grid: &AtomGrid, map: &QuadrantMap) -> Result<LdmReport, Error> {
        let (cycles, bits) = self.stream_timing(grid.height(), grid.width());
        let quadrants = map.split(grid)?;
        Ok(LdmReport {
            quadrants,
            cycles,
            bits,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qrm_core::loading::seeded_rng;

    #[test]
    fn load_splits_and_counts_cycles() {
        let mut rng = seeded_rng(1);
        let grid = AtomGrid::random(50, 50, 0.5, &mut rng);
        let map = QuadrantMap::new(50, 50).unwrap();
        let report = LoadDataModule::new(LdmConfig::default())
            .load(&grid, &map)
            .unwrap();
        assert_eq!(report.bits, 2500);
        // 2500 bits over 1024-bit beats: 3 beats + 8 setup + 25 DDR.
        assert_eq!(report.cycles, 25 + 8 + 3);
        let total: usize = report.quadrants.iter().map(AtomGrid::atom_count).sum();
        assert_eq!(total, grid.atom_count());
    }

    #[test]
    fn dimension_mismatch_propagates() {
        let grid = AtomGrid::new(10, 10).unwrap();
        let map = QuadrantMap::new(20, 20).unwrap();
        assert!(LoadDataModule::new(LdmConfig::default())
            .load(&grid, &map)
            .is_err());
    }
}
