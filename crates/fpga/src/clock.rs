//! Clock-domain arithmetic.

use std::fmt;

/// A fixed-frequency clock domain converting cycle counts to wall time.
///
/// ```
/// use qrm_fpga::clock::ClockDomain;
/// let clk = ClockDomain::from_mhz(250.0);
/// assert!((clk.us(250) - 1.0).abs() < 1e-12);
/// assert_eq!(clk.cycles_for_us(2.0), 500);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct ClockDomain {
    freq_hz: f64,
}

impl ClockDomain {
    /// The paper's programmable-logic clock: 250 MHz.
    pub const PAPER_MHZ: f64 = 250.0;

    /// Creates a clock domain from a frequency in MHz.
    ///
    /// # Panics
    ///
    /// Panics for non-positive or non-finite frequencies.
    pub fn from_mhz(mhz: f64) -> Self {
        assert!(mhz.is_finite() && mhz > 0.0, "invalid frequency {mhz} MHz");
        ClockDomain { freq_hz: mhz * 1e6 }
    }

    /// Frequency in Hz.
    pub fn freq_hz(&self) -> f64 {
        self.freq_hz
    }

    /// Frequency in MHz.
    pub fn freq_mhz(&self) -> f64 {
        self.freq_hz / 1e6
    }

    /// Clock period in nanoseconds.
    pub fn period_ns(&self) -> f64 {
        1e9 / self.freq_hz
    }

    /// Duration of `cycles` clock cycles in microseconds.
    pub fn us(&self, cycles: u64) -> f64 {
        cycles as f64 / self.freq_hz * 1e6
    }

    /// Duration of `cycles` clock cycles in nanoseconds.
    pub fn ns(&self, cycles: u64) -> f64 {
        cycles as f64 / self.freq_hz * 1e9
    }

    /// Number of whole cycles covering `us` microseconds (rounds up).
    pub fn cycles_for_us(&self, us: f64) -> u64 {
        (us * 1e-6 * self.freq_hz).ceil() as u64
    }
}

impl Default for ClockDomain {
    /// The paper's 250 MHz clock.
    fn default() -> Self {
        ClockDomain::from_mhz(Self::PAPER_MHZ)
    }
}

impl fmt::Display for ClockDomain {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.1} MHz", self.freq_mhz())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_clock_period() {
        let clk = ClockDomain::default();
        assert!((clk.period_ns() - 4.0).abs() < 1e-12);
        assert!((clk.freq_mhz() - 250.0).abs() < 1e-12);
    }

    #[test]
    fn us_cycles_roundtrip() {
        let clk = ClockDomain::from_mhz(100.0);
        assert_eq!(clk.cycles_for_us(clk.us(12345)), 12345);
        assert!((clk.ns(1) - 10.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "invalid frequency")]
    fn rejects_zero_frequency() {
        let _ = ClockDomain::from_mhz(0.0);
    }
}
