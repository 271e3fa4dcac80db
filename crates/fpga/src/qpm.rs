//! The Quadrant Processing Module (paper §IV-B).
//!
//! One QPM owns one canonically-oriented quadrant. It alternates
//! row-wise and column-wise passes through the pipelined
//! [`ShiftUnit`] for a **static** number of
//! iterations (the hardware's pass schedule does not depend on data, which
//! is what makes the paper's latency "correlate solely with the initial
//! size of the array and the number of iterations", §V-B).
//!
//! Dataflow overlap: the column pass starts as soon as the row pass has
//! issued its last line — one new pass can begin every `Qw` cycles, while
//! each pass's own drain tail (`Qw` stages) overlaps the next pass. Total
//! compute for `P` passes is therefore `(P + 1) * Qw + pipeline
//! constants`, matching the paper's "2 x Qw plus the processing time of a
//! single row" per iteration.

use qrm_core::error::Error;
use qrm_core::geometry::Axis;
use qrm_core::grid::AtomGrid;
use qrm_core::kernel::{
    corner_target, plan_col_windows, plan_row_windows, KernelOutcome, KernelStrategy,
};

use crate::shift_unit::{LineJob, ShiftUnit};

/// QPM configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QpmConfig {
    /// Canonical target extent along rows.
    pub target_height: usize,
    /// Canonical target extent along columns.
    pub target_width: usize,
    /// Static iteration count (paper: 4).
    pub iterations: usize,
    /// Kernel strategy; `Greedy` is what the paper's hardware implements,
    /// `Balanced` models the extended datapath with the quota-planning
    /// scan in front of each row pass.
    pub strategy: KernelStrategy,
}

impl QpmConfig {
    /// Paper-faithful config: greedy kernel, 4 static iterations.
    pub const fn paper(target_height: usize, target_width: usize) -> Self {
        QpmConfig {
            target_height,
            target_width,
            iterations: 4,
            strategy: KernelStrategy::Greedy,
        }
    }
}

/// Timing of one pass inside the QPM.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PassTiming {
    /// Pass axis.
    pub axis: Axis,
    /// Cycle at which the pass starts issuing lines.
    pub start: u64,
    /// Cycle at which the last line retires.
    pub finish: u64,
    /// Extra planning cycles charged before the pass (balanced strategy).
    pub planning: u64,
}

/// Result of processing one quadrant.
#[derive(Debug, Clone)]
pub struct QpmReport {
    /// Functional outcome, bit-exact with the software kernel in
    /// hardware (static-iterations) mode.
    pub outcome: KernelOutcome,
    /// Per-pass timing.
    pub passes: Vec<PassTiming>,
    /// Total compute cycles (finish of the last pass).
    pub total_cycles: u64,
}

/// The quadrant processor.
///
/// ```
/// use qrm_fpga::qpm::{QpmConfig, QuadrantProcessor};
/// use qrm_core::grid::AtomGrid;
///
/// # fn main() -> Result<(), qrm_core::Error> {
/// let mut rng = qrm_core::loading::seeded_rng(4);
/// let quadrant = AtomGrid::random(25, 25, 0.5, &mut rng);
/// let qpm = QuadrantProcessor::new(QpmConfig::paper(15, 15));
/// let report = qpm.process(&quadrant)?;
/// // 8 passes of 25 lines each, plus the final drain.
/// assert!(report.total_cycles >= 8 * 25);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct QuadrantProcessor {
    config: QpmConfig,
}

impl QuadrantProcessor {
    /// Creates a processor.
    pub fn new(config: QpmConfig) -> Self {
        QuadrantProcessor { config }
    }

    /// The processor's configuration.
    pub fn config(&self) -> &QpmConfig {
        &self.config
    }

    /// Extra cycles charged in front of a row pass for the balanced
    /// strategy's quota-planning scan: one streaming pass over the
    /// quadrant's column counters plus the floor scan.
    fn planning_cycles(&self, qh: usize, tw: usize) -> u64 {
        match self.config.strategy {
            KernelStrategy::Balanced => (qh + tw) as u64,
            _ => 0,
        }
    }

    /// Processes one canonical quadrant.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidTarget`] with the software kernel's
    /// reason when the target extent exceeds the quadrant or is zero.
    pub fn process(&self, quadrant: &AtomGrid) -> Result<QpmReport, Error> {
        let (qh, qw) = quadrant.dims();
        let (th, tw) = (self.config.target_height, self.config.target_width);
        let target = corner_target((qh, qw), th, tw)?;
        let mut grid = quadrant.clone();
        let mut passes_out = Vec::new();
        let mut timings = Vec::new();
        let mut start: u64 = 0;

        for _ in 0..self.config.iterations {
            // Row pass.
            let planning = self.planning_cycles(qh, tw);
            start += planning;
            let windows = plan_row_windows(&grid, self.config.strategy, th, tw);
            let jobs: Vec<LineJob> = (0..qh)
                .map(|l| LineJob {
                    line: l,
                    bits: grid.row_bits(l).to_vec(),
                    window: windows.get(l).copied().unwrap_or((0, qw)),
                    enabled: true,
                })
                .collect();
            let trace = ShiftUnit::new(qw).run(Axis::Row, &jobs);
            for (line, bits) in trace.out_lines() {
                grid.set_row_bits(*line, bits);
            }
            passes_out.push(trace.to_local_pass());
            timings.push(PassTiming {
                axis: Axis::Row,
                start,
                finish: start + trace.cycles(),
                planning,
            });
            // The next pass can begin once all lines are issued.
            start += trace.issue_cycles();

            // Column pass (columns streamed as rows).
            let windows = plan_col_windows(self.config.strategy, qh, qw, th, tw);
            let gt = grid.transpose();
            let jobs: Vec<LineJob> = (0..qw)
                .map(|l| LineJob {
                    line: l,
                    bits: gt.row_bits(l).to_vec(),
                    window: windows.get(l).copied().unwrap_or((0, qh)),
                    enabled: true,
                })
                .collect();
            let trace = ShiftUnit::new(qh).run(Axis::Col, &jobs);
            let mut gt_new = gt.clone();
            for (line, bits) in trace.out_lines() {
                gt_new.set_row_bits(*line, bits);
            }
            grid = gt_new.transpose();
            passes_out.push(trace.to_local_pass());
            timings.push(PassTiming {
                axis: Axis::Col,
                start,
                finish: start + trace.cycles(),
                planning: 0,
            });
            start += trace.issue_cycles();
        }

        let total_cycles = timings.iter().map(|t| t.finish).max().unwrap_or(0);
        let filled = grid.is_filled(&target)?;
        Ok(QpmReport {
            outcome: KernelOutcome {
                passes: passes_out,
                final_grid: grid,
                iterations: self.config.iterations,
                filled,
            },
            passes: timings,
            total_cycles,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qrm_core::kernel::{KernelConfig, ShiftKernel};
    use qrm_core::loading::seeded_rng;

    fn sw_outcome(
        quadrant: &AtomGrid,
        th: usize,
        tw: usize,
        iterations: usize,
        strategy: KernelStrategy,
    ) -> KernelOutcome {
        ShiftKernel::new(
            KernelConfig::new(th, tw)
                .with_strategy(strategy)
                .with_max_iterations(iterations)
                .with_static_iterations(true),
        )
        .run(quadrant)
        .unwrap()
    }

    #[test]
    fn functionally_identical_to_software_kernel() {
        let mut rng = seeded_rng(42);
        for strategy in [
            KernelStrategy::Greedy,
            KernelStrategy::GreedyTargetOnly,
            KernelStrategy::Balanced,
        ] {
            // 70x66 puts rows in two words; its columns are 70 long.
            for (qh, qw, th, tw, count) in [(12, 12, 7, 7, 6), (70, 66, 42, 40, 2)] {
                for _ in 0..count {
                    let q = AtomGrid::random(qh, qw, 0.5, &mut rng);
                    let hw = QuadrantProcessor::new(QpmConfig {
                        target_height: th,
                        target_width: tw,
                        iterations: 4,
                        strategy,
                    })
                    .process(&q)
                    .unwrap();
                    let sw = sw_outcome(&q, th, tw, 4, strategy);
                    let case = format!("{strategy:?} {qh}x{qw}");
                    assert_eq!(hw.outcome.passes, sw.passes, "{case} passes");
                    assert_eq!(hw.outcome.final_grid, sw.final_grid, "{case} grid");
                    assert_eq!(hw.outcome.filled, sw.filled, "{case}");
                }
            }
        }
    }

    #[test]
    fn timing_matches_dataflow_formula() {
        // Greedy, square quadrant: P passes of Qw lines each; pass p
        // starts at p*Qw and finishes at p*Qw + 2*Qw.
        let mut rng = seeded_rng(5);
        let q = AtomGrid::random(20, 20, 0.5, &mut rng);
        let report = QuadrantProcessor::new(QpmConfig::paper(12, 12))
            .process(&q)
            .unwrap();
        let qw = 20u64;
        let p = report.passes.len() as u64;
        assert_eq!(p, 8);
        for (i, t) in report.passes.iter().enumerate() {
            assert_eq!(t.start, i as u64 * qw, "pass {i} start");
            assert_eq!(t.finish, i as u64 * qw + 2 * qw, "pass {i} finish");
        }
        assert_eq!(report.total_cycles, (p + 1) * qw);
    }

    #[test]
    fn balanced_charges_planning_cycles() {
        let mut rng = seeded_rng(6);
        let q = AtomGrid::random(10, 10, 0.5, &mut rng);
        let greedy = QuadrantProcessor::new(QpmConfig {
            target_height: 6,
            target_width: 6,
            iterations: 2,
            strategy: KernelStrategy::Greedy,
        })
        .process(&q)
        .unwrap();
        let balanced = QuadrantProcessor::new(QpmConfig {
            target_height: 6,
            target_width: 6,
            iterations: 2,
            strategy: KernelStrategy::Balanced,
        })
        .process(&q)
        .unwrap();
        assert!(balanced.total_cycles > greedy.total_cycles);
        assert_eq!(
            balanced.total_cycles - greedy.total_cycles,
            2 * (10 + 6) as u64
        );
    }

    #[test]
    fn rejects_a_target_with_the_software_kernels_reason() {
        let q = AtomGrid::new(6, 6).unwrap();
        for (th, tw, reason) in [
            (7, 3, "target extent exceeds quadrant"),
            (3, 7, "target extent exceeds quadrant"),
            (0, 3, "target has zero extent"),
            (3, 0, "target has zero extent"),
        ] {
            let hw = QuadrantProcessor::new(QpmConfig::paper(th, tw)).process(&q);
            let sw = ShiftKernel::new(KernelConfig::new(th, tw)).run(&q);
            assert_eq!(
                hw.unwrap_err(),
                Error::InvalidTarget { reason },
                "{th}x{tw}"
            );
            assert_eq!(
                sw.unwrap_err(),
                Error::InvalidTarget { reason },
                "{th}x{tw}"
            );
        }
    }

    #[test]
    fn static_iterations_do_not_depend_on_data() {
        // An empty quadrant and a full one take identical cycle counts.
        let empty = AtomGrid::new(16, 16).unwrap();
        let mut rng = seeded_rng(8);
        let random = AtomGrid::random(16, 16, 0.5, &mut rng);
        let cfg = QpmConfig::paper(8, 8);
        let a = QuadrantProcessor::new(cfg).process(&empty).unwrap();
        let b = QuadrantProcessor::new(cfg).process(&random).unwrap();
        assert_eq!(a.total_cycles, b.total_cycles);
    }
}
