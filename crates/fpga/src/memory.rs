//! DDR memory model.
//!
//! The PS and PL communicate through DDR (paper §IV-A): the host writes
//! the detection bitfield, the accelerator reads it, and movement records
//! are written back. The model charges a first-access latency plus a
//! sustained-bandwidth term; it is intentionally simple — the paper's
//! latency is dominated by the compute pipeline, and this model's role is
//! to make the I/O contribution explicit and tunable.

/// DDR access-cost model.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct DdrModel {
    /// First-word read latency in PL cycles.
    pub read_latency_cycles: u64,
    /// First-word write latency in PL cycles.
    pub write_latency_cycles: u64,
    /// Sustained bandwidth in bits per PL cycle.
    pub bits_per_cycle: f64,
}

impl DdrModel {
    /// Plausible RFSoC DDR4 numbers at a 250 MHz fabric clock: ~100 ns
    /// first access (25 cycles) and 1024 bits/cycle sustained through the
    /// wide AXI port.
    pub const fn typical() -> Self {
        DdrModel {
            read_latency_cycles: 25,
            write_latency_cycles: 15,
            bits_per_cycle: 1024.0,
        }
    }

    /// Cycles to read a payload of `bits`.
    pub fn read_cycles(&self, bits: usize) -> u64 {
        if bits == 0 {
            return 0;
        }
        self.read_latency_cycles + (bits as f64 / self.bits_per_cycle).ceil() as u64
    }

    /// Cycles to write a payload of `bits`.
    pub fn write_cycles(&self, bits: usize) -> u64 {
        if bits == 0 {
            return 0;
        }
        self.write_latency_cycles + (bits as f64 / self.bits_per_cycle).ceil() as u64
    }
}

impl Default for DdrModel {
    fn default() -> Self {
        DdrModel::typical()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_payload_is_free() {
        let m = DdrModel::typical();
        assert_eq!(m.read_cycles(0), 0);
        assert_eq!(m.write_cycles(0), 0);
    }

    #[test]
    fn latency_plus_bandwidth() {
        let m = DdrModel {
            read_latency_cycles: 10,
            write_latency_cycles: 5,
            bits_per_cycle: 100.0,
        };
        assert_eq!(m.read_cycles(1), 11);
        assert_eq!(m.read_cycles(250), 13);
        assert_eq!(m.write_cycles(1000), 15);
    }

    #[test]
    fn paper_bitfield_read_is_cheap() {
        // 50x50 bitfield: 2500 bits -> a handful of cycles beyond latency.
        let m = DdrModel::typical();
        assert!(m.read_cycles(2500) < 30);
    }
}
