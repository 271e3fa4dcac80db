//! DDR memory model.
//!
//! The PS and PL communicate through DDR (paper §IV-A): the host writes
//! the detection bitfield, the accelerator reads it, and movement records
//! are written back. The model charges the first-access latency of each
//! direction; the LDM and OCM add the payload's streaming time over their
//! AXI link ([`crate::stream::AxiStream::transfer_cycles`]). It is
//! intentionally simple — the paper's latency is dominated by the compute
//! pipeline, and this model's role is to make the I/O contribution
//! explicit and tunable.

/// DDR access-cost model.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct DdrModel {
    /// First-word read latency in PL cycles.
    pub read_latency_cycles: u64,
    /// First-word write latency in PL cycles.
    pub write_latency_cycles: u64,
}

impl DdrModel {
    /// Plausible RFSoC DDR4 first-access latencies at a 250 MHz fabric
    /// clock: ~100 ns for a read (25 cycles), ~60 ns for a write (15
    /// cycles).
    pub const fn typical() -> Self {
        DdrModel {
            read_latency_cycles: 25,
            write_latency_cycles: 15,
        }
    }
}

impl Default for DdrModel {
    fn default() -> Self {
        DdrModel::typical()
    }
}
