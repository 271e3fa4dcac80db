//! AXI-stream transfer model.
//!
//! The accelerator receives the detection bitfield and returns the
//! movement records over AXI, packing "1024-bit data into one packet to
//! move the data from DDR memory into our accelerator with minimal
//! transmission overhead" (paper §IV-A). The model charges a fixed setup
//! latency plus one cycle per beat.

/// AXI-stream link parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct AxiStream {
    /// Payload bits per beat (paper: 1024).
    pub beat_bits: usize,
    /// Fixed handshake/setup latency in cycles per transfer.
    pub setup_cycles: u64,
}

impl AxiStream {
    /// The paper's configuration: 1024-bit beats.
    pub const fn paper() -> Self {
        AxiStream {
            beat_bits: 1024,
            setup_cycles: 8,
        }
    }

    /// Number of beats needed for a payload of `bits`.
    ///
    /// ```
    /// use qrm_fpga::stream::AxiStream;
    /// let s = AxiStream::paper();
    /// assert_eq!(s.beats(2500), 3); // a 50x50 bitfield
    /// assert_eq!(s.beats(0), 0);
    /// ```
    pub const fn beats(&self, bits: usize) -> u64 {
        (bits.div_ceil(self.beat_bits)) as u64
    }

    /// Total transfer cycles for a payload of `bits` (setup + streaming).
    pub const fn transfer_cycles(&self, bits: usize) -> u64 {
        if bits == 0 {
            0
        } else {
            self.setup_cycles + self.beats(bits)
        }
    }
}

impl Default for AxiStream {
    fn default() -> Self {
        AxiStream::paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn beat_counts() {
        let s = AxiStream::paper();
        assert_eq!(s.beats(1), 1);
        assert_eq!(s.beats(1024), 1);
        assert_eq!(s.beats(1025), 2);
        // paper sizes
        assert_eq!(s.beats(10 * 10), 1);
        assert_eq!(s.beats(90 * 90), 8);
    }

    #[test]
    fn transfer_includes_setup() {
        let s = AxiStream {
            beat_bits: 128,
            setup_cycles: 5,
        };
        assert_eq!(s.transfer_cycles(0), 0);
        assert_eq!(s.transfer_cycles(1), 6);
        assert_eq!(s.transfer_cycles(256), 7);
    }
}
