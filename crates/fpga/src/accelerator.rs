//! The full QRM accelerator top (paper Fig. 5).
//!
//! The accelerator's pass schedule is static: each of the four parallel
//! quadrant processors runs the same row and column passes over a
//! quadrant of the same shape, whatever the data, so its latency
//! "correlates solely with the initial size of the array and the number
//! of iterations" (§V-B). The model therefore computes its two outputs
//! separately:
//!
//! * the functional plan, through the software planning engine
//!   ([`qrm_core::engine::plan_shots`]) with the kernel in its
//!   static-iterations mode, whose passes the pipelined shift unit
//!   reproduces bit for bit;
//! * the cycle breakdown, from one closed form ([`compute_cycles`]) plus
//!   the input term of [`LdmConfig`] and the tail and write-back terms
//!   of [`OcmConfig`].
//!
//! The cycle-by-cycle [`QuadrantProcessor`](crate::qpm::QuadrantProcessor)
//! and [`ShiftUnit`](crate::shift_unit::ShiftUnit) are the witness:
//! the tests check both outputs against them.
//!
//! The *analysis latency* — the quantity Fig. 7 reports — covers control
//! hand-off, input DMA, the quadrant pipelines, and the combination
//! drain. The movement-record write-back to DDR is reported separately
//! (it overlaps the PS-side pulse generation in a real system).

use qrm_core::engine::{
    decompose, decompose_batch, plan_shots, resolve_workers, BatchShot, QuadrantWork,
};
use qrm_core::error::Error;
use qrm_core::geometry::Rect;
use qrm_core::grid::AtomGrid;
use qrm_core::kernel::{KernelConfig, KernelStrategy};
use qrm_core::merge::MergeConfig;
use qrm_core::planner::Planner;
use qrm_core::scheduler::Plan;

use crate::clock::ClockDomain;
use crate::ldm::LdmConfig;
use crate::ocm::OcmConfig;

/// Accelerator configuration.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct AcceleratorConfig {
    /// Programmable-logic clock (paper: 250 MHz).
    pub clock: ClockDomain,
    /// Static iteration count per quadrant (paper: 4).
    pub iterations: usize,
    /// Kernel strategy (`Greedy` is the paper datapath).
    pub strategy: KernelStrategy,
    /// Input-path configuration.
    pub ldm: LdmConfig,
    /// Output-path configuration.
    pub ocm: OcmConfig,
    /// PS-side kick-off and AXI control handshake, in PL cycles.
    pub control_overhead_cycles: u64,
}

impl AcceleratorConfig {
    /// Paper-faithful configuration: greedy kernel, 4 static iterations,
    /// 250 MHz.
    pub fn paper() -> Self {
        AcceleratorConfig {
            clock: ClockDomain::default(),
            iterations: 4,
            strategy: KernelStrategy::Greedy,
            ldm: LdmConfig::default(),
            ocm: OcmConfig::default(),
            control_overhead_cycles: 16,
        }
    }

    /// Extended configuration: balanced kernel (quota-planning datapath),
    /// 10 static iterations — fills aggressive targets at the cost of
    /// roughly 2.5x the compute latency.
    pub fn balanced() -> Self {
        AcceleratorConfig {
            iterations: 10,
            strategy: KernelStrategy::Balanced,
            ..AcceleratorConfig::paper()
        }
    }

    /// Replaces the static iteration count.
    #[must_use]
    pub fn with_iterations(mut self, iterations: usize) -> Self {
        self.iterations = iterations;
        self
    }

    /// Replaces the kernel strategy.
    #[must_use]
    pub fn with_strategy(mut self, strategy: KernelStrategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// The cycle breakdown of one shot whose plan has `moves` moves: a
    /// function of the array's shape, the quadrant target and this
    /// configuration, except for the data-dependent write-back.
    fn cycles(&self, shot: &BatchShot<'_>, moves: usize) -> CycleBreakdown {
        let (height, width) = shot.grid.dims();
        CycleBreakdown {
            control: self.control_overhead_cycles,
            input: self.ldm.input_cycles(height, width),
            compute: compute_cycles(
                (height / 2, width / 2),
                shot.work.target_width,
                self.iterations,
                self.strategy,
            ),
            combine: self.ocm.combine_tail_cycles,
            writeback: self.ocm.writeback_cycles(height, width, moves),
        }
    }
}

impl Default for AcceleratorConfig {
    fn default() -> Self {
        AcceleratorConfig::paper()
    }
}

/// Cycle breakdown of one accelerator run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CycleBreakdown {
    /// PS control hand-off.
    pub control: u64,
    /// Input DMA (DDR + AXI streaming).
    pub input: u64,
    /// Quadrant pipelines (the four parallel QPMs take the same time).
    pub compute: u64,
    /// Row Combination Unit drain tail.
    pub combine: u64,
    /// Movement-record + matrix write-back (off the analysis path).
    pub writeback: u64,
}

impl CycleBreakdown {
    /// Analysis-path cycles (what Fig. 7 measures).
    pub fn analysis(&self) -> u64 {
        self.control + self.input + self.compute + self.combine
    }

    /// End-to-end cycles including write-back.
    pub fn total(&self) -> u64 {
        self.analysis() + self.writeback
    }
}

/// Compute cycles of one quadrant processor on a `quadrant` of (height,
/// width) `(qh, qw)` with a corner target `target_width` columns wide.
///
/// Each of the `iterations` static iterations runs a row pass (`qh`
/// lines through `qw` stages) and a column pass (`qw` lines through
/// `qh` stages). Lines enter one per cycle and a pass starts as soon as
/// the one before has issued its last line, so an iteration issues for
/// `qh + qw` cycles; the balanced strategy adds a `qh + target_width`
/// cycle planning scan before each row pass. The last column pass then
/// drains its `qh` stages:
///
/// `iterations * (qh + qw + planning) + qh`, and 0 with no iterations.
///
/// ```
/// use qrm_core::kernel::KernelStrategy;
/// use qrm_fpga::accelerator::compute_cycles;
/// // The headline 50x50 array: 25x25 quadrants, 4 greedy iterations.
/// assert_eq!(compute_cycles((25, 25), 15, 4, KernelStrategy::Greedy), 9 * 25);
/// assert_eq!(compute_cycles((25, 25), 15, 0, KernelStrategy::Greedy), 0);
/// ```
pub fn compute_cycles(
    quadrant: (usize, usize),
    target_width: usize,
    iterations: usize,
    strategy: KernelStrategy,
) -> u64 {
    if iterations == 0 {
        return 0;
    }
    let (qh, qw) = (quadrant.0 as u64, quadrant.1 as u64);
    let planning = match strategy {
        KernelStrategy::Balanced => qh + target_width as u64,
        KernelStrategy::Greedy | KernelStrategy::GreedyTargetOnly => 0,
    };
    iterations as u64 * (qh + qw + planning) + qh
}

/// Result of one accelerator run.
#[derive(Debug, Clone, PartialEq)]
pub struct AcceleratorReport {
    /// Functional plan (schedule, predicted grid, fill flag).
    pub plan: Plan,
    /// Exact cycle breakdown.
    pub cycles: CycleBreakdown,
    /// Analysis latency in microseconds at the configured clock.
    pub time_us: f64,
    /// End-to-end latency including write-back, in microseconds.
    pub total_time_us: f64,
}

/// The four-quadrant rearrangement accelerator.
///
/// Implements [`Planner`], so it can be compared head-to-head with the
/// software planners; [`run`](QrmAccelerator::run) additionally returns
/// the timing report.
#[derive(Debug, Clone, Default)]
pub struct QrmAccelerator {
    config: AcceleratorConfig,
    /// Host-side worker count for batched runs (`0` = automatic).
    workers: usize,
}

impl QrmAccelerator {
    /// Creates an accelerator with automatic batch worker count.
    pub fn new(config: AcceleratorConfig) -> Self {
        QrmAccelerator { config, workers: 0 }
    }

    /// Overrides the host-side worker count used by batched runs (`0`
    /// restores the automatic policy). Modelled cycle counts are
    /// unaffected — host parallelism only changes wall-clock time.
    #[must_use]
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// The accelerator's configuration.
    pub fn config(&self) -> &AcceleratorConfig {
        &self.config
    }

    /// The kernel configuration of one decomposition: the software
    /// kernel with the accelerator's static iteration schedule.
    fn kernel_config(&self, work: &QuadrantWork) -> KernelConfig {
        KernelConfig::new(work.target_height, work.target_width)
            .with_strategy(self.config.strategy)
            .with_max_iterations(self.config.iterations)
            .with_static_iterations(true)
    }

    /// Plans `shots` on the engine and adds each plan's cycle breakdown.
    fn reports(
        &self,
        shots: &[BatchShot<'_>],
        workers: usize,
    ) -> Result<Vec<AcceleratorReport>, Error> {
        let plans = plan_shots(
            shots,
            workers,
            |work| self.kernel_config(work),
            &MergeConfig::default(),
        )?;
        Ok(shots
            .iter()
            .zip(plans)
            .map(|(shot, plan)| {
                let cycles = self.config.cycles(shot, plan.schedule.len());
                AcceleratorReport {
                    plan,
                    time_us: self.config.clock.us(cycles.analysis()),
                    total_time_us: self.config.clock.us(cycles.total()),
                    cycles,
                }
            })
            .collect())
    }

    /// Runs one complete rearrangement analysis, inline on the calling
    /// thread.
    ///
    /// # Errors
    ///
    /// Returns [`Error::OddDimensions`] / [`Error::InvalidTarget`] for
    /// arrays or targets QRM cannot decompose, and propagates merge
    /// validation failures.
    pub fn run(&self, grid: &AtomGrid, target: &Rect) -> Result<AcceleratorReport, Error> {
        let shot = BatchShot {
            grid,
            target,
            work: decompose(grid, target)?,
        };
        let mut reports = self.reports(std::slice::from_ref(&shot), 1)?;
        Ok(reports.pop().expect("one report per shot"))
    }

    /// Runs a batch of analyses on the engine's task graph, with the
    /// worker count set by [`with_workers`](Self::with_workers) under the
    /// engine's policy ([`resolve_workers`]: `0` = one per core; `1` runs
    /// inline). Reports are in input order and identical to calling
    /// [`run`](Self::run) per shot.
    ///
    /// # Errors
    ///
    /// Returns the first decomposition error in input order, or the
    /// first planning error the task graph hits.
    pub fn run_batch(&self, jobs: &[(AtomGrid, Rect)]) -> Result<Vec<AcceleratorReport>, Error> {
        let shots = decompose_batch(jobs)?;
        self.reports(&shots, resolve_workers(self.workers, shots.len()))
    }
}

impl Planner for QrmAccelerator {
    fn name(&self) -> &'static str {
        match self.config.strategy {
            KernelStrategy::Greedy => "QRM-FPGA (greedy)",
            KernelStrategy::GreedyTargetOnly => "QRM-FPGA (greedy, target-only)",
            KernelStrategy::Balanced => "QRM-FPGA (balanced)",
        }
    }

    fn plan(&self, grid: &AtomGrid, target: &Rect) -> Result<Plan, Error> {
        Ok(self.run(grid, target)?.plan)
    }

    /// Batched planning through [`run_batch`](QrmAccelerator::run_batch)
    /// — the engine path the software scheduler takes.
    fn plan_batch(&self, jobs: &[(AtomGrid, Rect)]) -> Result<Vec<Plan>, Error> {
        Ok(self
            .run_batch(jobs)?
            .into_iter()
            .map(|report| report.plan)
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qrm_core::executor::Executor;
    use qrm_core::loading::seeded_rng;

    #[test]
    fn headline_latency_regime() {
        // Paper headline: 50x50 -> 30x30 analysed in ~1.0 us at 250 MHz.
        let mut rng = seeded_rng(2024);
        let grid = AtomGrid::random(50, 50, 0.5, &mut rng);
        let target = Rect::centered(50, 50, 30, 30).unwrap();
        let report = QrmAccelerator::new(AcceleratorConfig::paper())
            .run(&grid, &target)
            .unwrap();
        assert!(
            (0.5..2.0).contains(&report.time_us),
            "analysis time {} us outside the paper's regime",
            report.time_us
        );
        // ~(2*4+1)*25 compute cycles
        assert_eq!(report.cycles.compute, 9 * 25);
    }

    #[test]
    fn schedule_executes_and_matches_prediction() {
        let mut rng = seeded_rng(77);
        for cfg in [AcceleratorConfig::paper(), AcceleratorConfig::balanced()] {
            let grid = AtomGrid::random(20, 20, 0.5, &mut rng);
            let target = Rect::centered(20, 20, 12, 12).unwrap();
            let report = QrmAccelerator::new(cfg).run(&grid, &target).unwrap();
            let exec = Executor::new().run(&grid, &report.plan.schedule).unwrap();
            assert_eq!(exec.final_grid, report.plan.predicted);
        }
    }

    #[test]
    fn latency_is_data_independent() {
        // Same dims, different content: identical analysis cycles (the
        // paper's "latency correlates solely with the initial size").
        let target = Rect::centered(30, 30, 18, 18).unwrap();
        let empty = AtomGrid::new(30, 30).unwrap();
        let mut rng = seeded_rng(5);
        let random = AtomGrid::random(30, 30, 0.5, &mut rng);
        let accel = QrmAccelerator::new(AcceleratorConfig::paper());
        let a = accel.run(&empty, &target).unwrap();
        let b = accel.run(&random, &target).unwrap();
        assert_eq!(a.cycles.analysis(), b.cycles.analysis());
        // write-back differs (movement record count is data dependent)
    }

    #[test]
    fn scaling_is_moderate() {
        // Fig 7(a) FPGA curve: ~2.4x from size 10 to 90 (0.8 -> 1.9 us).
        let accel = QrmAccelerator::new(AcceleratorConfig::paper());
        let mut rng = seeded_rng(6);
        let t10 = {
            let g = AtomGrid::random(10, 10, 0.5, &mut rng);
            accel
                .run(&g, &Rect::centered(10, 10, 6, 6).unwrap())
                .unwrap()
                .time_us
        };
        let t90 = {
            let g = AtomGrid::random(90, 90, 0.5, &mut rng);
            accel
                .run(&g, &Rect::centered(90, 90, 54, 54).unwrap())
                .unwrap()
                .time_us
        };
        let ratio = t90 / t10;
        assert!(
            (1.5..8.0).contains(&ratio),
            "size-90/size-10 analysis ratio {ratio:.2} implausible"
        );
    }

    #[test]
    fn balanced_fills_headline_with_extended_config() {
        let mut rng = seeded_rng(31337);
        let mut filled = 0;
        let mut tried = 0;
        for _ in 0..6 {
            let grid = AtomGrid::random(50, 50, 0.5, &mut rng);
            if grid.atom_count() < 1000 {
                continue;
            }
            tried += 1;
            let target = Rect::centered(50, 50, 30, 30).unwrap();
            let report = QrmAccelerator::new(AcceleratorConfig::balanced())
                .run(&grid, &target)
                .unwrap();
            if report.plan.filled {
                filled += 1;
            }
        }
        assert!(tried >= 4);
        assert!(filled * 10 >= tried * 8, "filled {filled}/{tried}");
    }

    #[test]
    fn rearranger_trait_name() {
        assert_eq!(
            QrmAccelerator::new(AcceleratorConfig::paper()).name(),
            "QRM-FPGA (greedy)"
        );
    }

    #[test]
    fn run_batch_is_identical_to_mapped_run() {
        let mut rng = seeded_rng(99);
        let jobs: Vec<(AtomGrid, Rect)> = (0..5)
            .map(|_| {
                (
                    AtomGrid::random(20, 20, 0.5, &mut rng),
                    Rect::centered(20, 20, 12, 12).unwrap(),
                )
            })
            .collect();
        for cfg in [AcceleratorConfig::paper(), AcceleratorConfig::balanced()] {
            let accel = QrmAccelerator::new(cfg);
            let batched = accel.run_batch(&jobs).unwrap();
            assert_eq!(batched.len(), jobs.len());
            for ((grid, target), report) in jobs.iter().zip(&batched) {
                let single = accel.run(grid, target).unwrap();
                assert_eq!(single, *report);
            }
            for workers in [1usize, 3, 64] {
                let throttled = accel
                    .clone()
                    .with_workers(workers)
                    .run_batch(&jobs)
                    .unwrap();
                assert_eq!(throttled, batched, "workers = {workers}");
            }
        }
    }
}
