//! The full QRM accelerator top (paper Fig. 5).
//!
//! Wires the [`LoadDataModule`], four
//! [`QuadrantProcessor`]s running in
//! parallel, and the [`OutputModule`] into the
//! complete dataflow design, producing both the functional plan and an
//! exact cycle breakdown at the configured clock.
//!
//! The *analysis latency* — the quantity Fig. 7 reports — covers control
//! hand-off, input DMA, the quadrant pipelines, and the combination
//! drain. The movement-record write-back to DDR is reported separately
//! (it overlaps the PS-side pulse generation in a real system).

use qrm_core::engine::{
    decompose, decompose_batch, resolve_workers, run_task_graph, BatchShot, QuadrantWork,
};
use qrm_core::error::Error;
use qrm_core::geometry::Rect;
use qrm_core::grid::AtomGrid;
use qrm_core::kernel::{KernelOutcome, KernelStrategy};
use qrm_core::planner::Planner;
use qrm_core::scheduler::Plan;

use crate::clock::ClockDomain;
use crate::ldm::{LdmConfig, LoadDataModule};
use crate::ocm::{OcmConfig, OutputModule};
use crate::qpm::{QpmConfig, QpmReport, QuadrantProcessor};

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
    /// Quadrant pipelines (max over the four parallel QPMs).
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
    /// Per-quadrant compute cycles (NW, NE, SW, SE).
    pub quadrant_cycles: [u64; 4],
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
    /// restores the automatic policy). Simulated cycle counts are
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

    /// The quadrant-processor model configured for one decomposition.
    fn qpm_for(&self, work: &QuadrantWork) -> QuadrantProcessor {
        QuadrantProcessor::new(QpmConfig {
            target_height: work.target_height,
            target_width: work.target_width,
            iterations: self.config.iterations,
            strategy: self.config.strategy,
        })
    }

    /// The merge stage: Row Combination Unit over the four quadrant
    /// reports, returning the OCM result and the per-quadrant cycles.
    fn combine(
        &self,
        grid: &AtomGrid,
        work: &QuadrantWork,
        reports: [QpmReport; 4],
    ) -> Result<(crate::ocm::OcmReport, [u64; 4]), Error> {
        let mut outcomes: Vec<KernelOutcome> = Vec::with_capacity(4);
        let mut quadrant_cycles = [0u64; 4];
        for (i, report) in reports.into_iter().enumerate() {
            quadrant_cycles[i] = report.total_cycles;
            outcomes.push(report.outcome);
        }
        let outcomes: [KernelOutcome; 4] = outcomes.try_into().expect("four quadrants");
        let ocm = OutputModule::new(self.config.ocm);
        Ok((ocm.combine(grid, &work.map, &outcomes)?, quadrant_cycles))
    }

    /// The validate stage: fill check plus cycle/latency book-keeping.
    fn finalize(
        &self,
        grid: &AtomGrid,
        target: &Rect,
        combined: crate::ocm::OcmReport,
        quadrant_cycles: [u64; 4],
    ) -> Result<AcceleratorReport, Error> {
        let compute = quadrant_cycles.iter().copied().max().unwrap_or(0);
        let (input_cycles, _bits) =
            LoadDataModule::new(self.config.ldm).stream_timing(grid.height(), grid.width());
        let cycles = CycleBreakdown {
            control: self.config.control_overhead_cycles,
            input: input_cycles,
            compute,
            combine: combined.combine_cycles,
            writeback: combined.writeback_cycles,
        };
        let filled = combined.final_grid.is_filled(target)?;
        Ok(AcceleratorReport {
            plan: Plan {
                schedule: combined.schedule,
                predicted: combined.final_grid,
                filled,
                iterations: self.config.iterations,
            },
            time_us: self.config.clock.us(cycles.analysis()),
            total_time_us: self.config.clock.us(cycles.total()),
            cycles,
            quadrant_cycles,
        })
    }

    /// Runs one complete rearrangement analysis.
    ///
    /// The decomposition comes from [`qrm_core::engine::decompose`] — the
    /// same structure the software planning engine consumes, so the
    /// cycle-accurate model and the software path cannot drift apart.
    ///
    /// # Errors
    ///
    /// Returns [`Error::OddDimensions`] / [`Error::InvalidTarget`] for
    /// arrays or targets QRM cannot decompose, and propagates merge
    /// validation failures.
    pub fn run(&self, grid: &AtomGrid, target: &Rect) -> Result<AcceleratorReport, Error> {
        let work = decompose(grid, target)?;
        let qpm = self.qpm_for(&work);
        let mut reports: Vec<QpmReport> = Vec::with_capacity(4);
        for quadrant in &work.quadrants {
            reports.push(qpm.process(quadrant)?);
        }
        let reports: [QpmReport; 4] = reports.try_into().expect("four quadrants");
        let (combined, quadrant_cycles) = self.combine(grid, &work, reports)?;
        self.finalize(grid, target, combined, quadrant_cycles)
    }

    /// Runs a batch of analyses through the shared task-graph engine
    /// ([`qrm_core::engine::run_task_graph`]): each quadrant-processor
    /// simulation is one pool job, exactly as the software scheduler runs
    /// its kernels. The worker count set by
    /// [`with_workers`](Self::with_workers) follows the engine's policy
    /// ([`resolve_workers`]: `0` = one per core; `1` runs inline). Reports
    /// are in input order and identical to calling [`run`](Self::run) per
    /// shot (modelled cycle counts included — simulated time is
    /// unaffected by host-side parallelism).
    ///
    /// # Errors
    ///
    /// Returns the first decomposition error in input order, or the
    /// first processing error the task graph hits.
    pub fn run_batch(&self, jobs: &[(AtomGrid, Rect)]) -> Result<Vec<AcceleratorReport>, Error> {
        let shots = decompose_batch(jobs)?;
        run_task_graph(
            shots.len(),
            resolve_workers(self.workers, shots.len()),
            |i, q| {
                let work = &shots[i].work;
                self.qpm_for(work).process(&work.quadrants[q])
            },
            |i, reports| {
                let BatchShot { grid, target, work } = &shots[i];
                let (combined, quadrant_cycles) = self.combine(grid, work, reports)?;
                self.finalize(grid, target, combined, quadrant_cycles)
            },
        )
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
    /// — the same task graph the software engine uses.
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
