//! The Load Data Module (paper §IV-B).
//!
//! The LDM streams the detection bitfield out of DDR over the 1024-bit
//! AXI link and feeds four Load Vector units that carve the array into
//! quadrants, applying the canonical flips on the fly ("the flip
//! operation is automatically performed to prepare the data"). Flips are
//! pure wiring in hardware and cost no extra cycles, so the module's
//! latency is the DMA transfer alone; the split itself is
//! [`qrm_core::engine::decompose`].

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

impl LdmConfig {
    /// Input-path cycles for a `height x width` bitfield: the DDR
    /// first-access latency plus streaming one bit per site.
    ///
    /// ```
    /// use qrm_fpga::ldm::LdmConfig;
    /// // 2500 bits over 1024-bit beats: 25 DDR + 8 setup + 3 beats.
    /// assert_eq!(LdmConfig::default().input_cycles(50, 50), 25 + 8 + 3);
    /// ```
    pub fn input_cycles(&self, height: usize, width: usize) -> u64 {
        self.ddr.read_latency_cycles + self.axi.transfer_cycles(height * width)
    }
}
