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
//! module holds the hardware cost: the combination logic is pipelined
//! behind the QPMs (commands are merged as they arrive thanks to their
//! static timing), so only a drain tail appears on the critical path,
//! and the output DMA follows it.

use crate::memory::DdrModel;
use crate::stream::AxiStream;

/// OCM configuration.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct OcmConfig {
    /// AXI link for the write-back.
    pub axi: AxiStream,
    /// DDR the results are written to.
    pub ddr: DdrModel,
    /// Pipeline drain tail of the combination logic, in cycles.
    pub combine_tail_cycles: u64,
}

impl Default for OcmConfig {
    fn default() -> Self {
        OcmConfig {
            axi: AxiStream::default(),
            ddr: DdrModel::default(),
            combine_tail_cycles: 16,
        }
    }
}

impl OcmConfig {
    /// Write-back cycles for a plan of `moves` moves on a `height x
    /// width` array: the DDR first-access latency plus streaming the
    /// canonical record stream (header and records, see
    /// [`qrm_core::codec`]) and the final matrix.
    ///
    /// ```
    /// use qrm_fpga::ocm::OcmConfig;
    /// // 10x10, 14 moves: 80 + 14 x 28 record bits and 100 matrix bits
    /// // fit one 1024-bit beat: 15 DDR + 8 setup + 1 beat.
    /// assert_eq!(OcmConfig::default().writeback_cycles(10, 10, 14), 15 + 8 + 1);
    /// ```
    pub fn writeback_cycles(&self, height: usize, width: usize, moves: usize) -> u64 {
        let bits = qrm_core::codec::encoded_bits(height, width, moves) + height * width;
        self.ddr.write_latency_cycles + self.axi.transfer_cycles(bits)
    }
}
