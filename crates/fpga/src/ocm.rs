//! The Output Concatenation Module and Row Combination Unit (paper
//! §IV-B/C).
//!
//! The four QPM command streams land in a wide FIFO; the Row Combination
//! Unit merges them into global AOD moves (NW+SW from the west, NE+SE
//! from the east, N/S for the vertical passes; empty shifts elided) and
//! the consolidated movement records plus the final matrix stream back to
//! DDR.
//!
//! Functionally the merge is [`qrm_core::merge::merge_outcomes`]; this
//! module adds the hardware cost model: the combination logic is
//! pipelined behind the QPMs (commands are merged as they arrive thanks
//! to their static timing), so only a drain tail plus the output DMA
//! appear on the critical path.

use qrm_core::error::Error;
use qrm_core::grid::AtomGrid;
use qrm_core::kernel::KernelOutcome;
use qrm_core::merge::{merge_outcomes, MergeConfig};
use qrm_core::quadrant::QuadrantMap;
use qrm_core::schedule::Schedule;

use crate::memory::DdrModel;
use crate::stream::AxiStream;

/// OCM configuration.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct OcmConfig {
    /// AXI link for the write-back.
    pub axi: AxiStream,
    /// DDR the results are written to.
    pub ddr: DdrModel,
    /// Merge compatible quadrant pairs into shared moves.
    pub merge_quadrants: bool,
    /// Pipeline drain tail of the combination logic, in cycles.
    pub combine_tail_cycles: u64,
}

impl Default for OcmConfig {
    fn default() -> Self {
        OcmConfig {
            axi: AxiStream::default(),
            ddr: DdrModel::default(),
            merge_quadrants: true,
            combine_tail_cycles: 16,
        }
    }
}

/// Result of combining four quadrant outcomes.
#[derive(Debug, Clone)]
pub struct OcmReport {
    /// The merged executable schedule.
    pub schedule: Schedule,
    /// Predicted global occupancy.
    pub final_grid: AtomGrid,
    /// Drain tail of the combination pipeline (on the critical path).
    pub combine_cycles: u64,
    /// Write-back cycles for movement records and the final matrix.
    pub writeback_cycles: u64,
    /// Encoded size of the movement records, in bits.
    pub record_bits: usize,
}

/// The output-concatenation module.
#[derive(Debug, Clone, Default)]
pub struct OutputModule {
    config: OcmConfig,
}

impl OutputModule {
    /// Creates a module.
    pub fn new(config: OcmConfig) -> Self {
        OutputModule { config }
    }

    /// Bits needed to encode one movement record: a row-selection mask, a
    /// column-selection mask, and a direction/step byte — delegated to
    /// the canonical stream format in [`qrm_core::codec`].
    pub fn record_bits_per_move(width: usize, height: usize) -> usize {
        qrm_core::codec::record_bits(height, width)
    }

    /// Merges the quadrant outcomes and models the write-back.
    ///
    /// # Errors
    ///
    /// Propagates merge validation failures.
    pub fn combine(
        &self,
        grid: &AtomGrid,
        map: &QuadrantMap,
        outcomes: &[KernelOutcome; 4],
    ) -> Result<OcmReport, Error> {
        let merged = merge_outcomes(
            grid,
            map,
            outcomes,
            &MergeConfig {
                merge_quadrants: self.config.merge_quadrants,
            },
        )?;
        let record_bits =
            merged.schedule.len() * Self::record_bits_per_move(grid.width(), grid.height());
        // Write-back payload: the canonical record stream (header +
        // records, see `qrm_core::codec`) plus the final matrix.
        let stream_bits =
            qrm_core::codec::encoded_bits(grid.height(), grid.width(), merged.schedule.len());
        debug_assert_eq!(stream_bits, 80 + record_bits);
        let matrix_bits = grid.area();
        let writeback_cycles = self.config.ddr.write_latency_cycles
            + self.config.axi.transfer_cycles(stream_bits + matrix_bits);
        Ok(OcmReport {
            schedule: merged.schedule,
            final_grid: merged.final_grid,
            combine_cycles: self.config.combine_tail_cycles,
            writeback_cycles,
            record_bits,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qrm_core::executor::Executor;
    use qrm_core::kernel::{KernelConfig, KernelStrategy, ShiftKernel};
    use qrm_core::loading::seeded_rng;

    fn outcomes_for(grid: &AtomGrid, map: &QuadrantMap) -> [KernelOutcome; 4] {
        let kernel = ShiftKernel::new(
            KernelConfig::new(6, 6)
                .with_strategy(KernelStrategy::Greedy)
                .with_static_iterations(true)
                .with_max_iterations(4),
        );
        let quads = map.split(grid).unwrap();
        let v: Vec<KernelOutcome> = quads.iter().map(|q| kernel.run(q).unwrap()).collect();
        v.try_into().unwrap()
    }

    #[test]
    fn combine_produces_executable_schedule() {
        let mut rng = seeded_rng(10);
        let grid = AtomGrid::random(20, 20, 0.5, &mut rng);
        let map = QuadrantMap::new(20, 20).unwrap();
        let outcomes = outcomes_for(&grid, &map);
        let report = OutputModule::new(OcmConfig::default())
            .combine(&grid, &map, &outcomes)
            .unwrap();
        let exec = Executor::new().run(&grid, &report.schedule).unwrap();
        assert_eq!(exec.final_grid, report.final_grid);
        assert_eq!(report.record_bits, report.schedule.len() * (20 + 20 + 8));
        assert!(report.writeback_cycles > 0);
        assert_eq!(report.combine_cycles, 16);
    }

    #[test]
    fn record_encoding_size() {
        assert_eq!(OutputModule::record_bits_per_move(50, 50), 108);
        assert_eq!(OutputModule::record_bits_per_move(90, 90), 188);
    }
}
