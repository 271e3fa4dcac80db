//! The top-level QRM planner and the [`Plan`] it produces.
//!
//! The common planner interface lives in [`crate::planner`]; this module
//! re-exports it for compatibility.

use std::fmt;

use crate::engine::{
    assemble_plan, decompose, decompose_batch, kernel_config_for, plan_shots, resolve_workers,
};
use crate::error::Error;
use crate::geometry::Rect;
use crate::grid::AtomGrid;
use crate::kernel::{KernelOutcome, KernelStrategy, ShiftKernel};
use crate::merge::MergeConfig;
use crate::quadrant::QuadrantMap;
use crate::schedule::Schedule;

pub use crate::planner::{plan_and_execute, Planner};

/// A computed rearrangement plan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Plan {
    /// The executable move schedule.
    pub schedule: Schedule,
    /// Predicted occupancy after execution.
    pub predicted: AtomGrid,
    /// Whether the predicted occupancy fills the target.
    pub filled: bool,
    /// Planner iterations used (kernel iterations for QRM: the maximum
    /// across quadrants).
    pub iterations: usize,
}

impl Plan {
    /// Remaining defects in `target` under the predicted occupancy.
    ///
    /// # Errors
    ///
    /// Returns [`Error::RectOutOfBounds`] when the rect does not fit.
    pub fn defects(&self, target: &Rect) -> Result<usize, Error> {
        Ok(target.area() - self.predicted.count_in(target)?)
    }
}

/// Configuration of the [`QrmScheduler`].
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct QrmConfig {
    /// Per-quadrant kernel strategy.
    pub strategy: KernelStrategy,
    /// Kernel iteration budget (paper: static 4; library default 12).
    pub max_iterations: usize,
    /// Fuse compatible quadrant waves into shared AOD moves.
    pub merge_quadrants: bool,
}

impl Default for QrmConfig {
    fn default() -> Self {
        QrmConfig {
            strategy: KernelStrategy::default(),
            max_iterations: 12,
            merge_quadrants: true,
        }
    }
}

impl QrmConfig {
    /// The paper-faithful configuration: greedy kernel, 4 iterations,
    /// quadrant merging on.
    pub fn paper() -> Self {
        QrmConfig {
            strategy: KernelStrategy::Greedy,
            max_iterations: 4,
            merge_quadrants: true,
        }
    }

    /// Replaces the kernel strategy.
    #[must_use]
    pub fn with_strategy(mut self, strategy: KernelStrategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// Replaces the iteration budget.
    #[must_use]
    pub fn with_max_iterations(mut self, iters: usize) -> Self {
        self.max_iterations = iters;
        self
    }

    /// Enables or disables cross-quadrant merging.
    #[must_use]
    pub fn with_merge_quadrants(mut self, merge: bool) -> Self {
        self.merge_quadrants = merge;
        self
    }
}

/// The Quadrant-based Rearrangement Method planner (paper §III-B).
///
/// Splits the array into four canonically-flipped quadrants, runs the
/// [`ShiftKernel`] on each, and merges the four wave streams into one
/// global AOD schedule.
///
/// ```
/// use qrm_core::prelude::*;
///
/// let mut rng = qrm_core::loading::seeded_rng(3);
/// let grid = AtomGrid::random(20, 20, 0.5, &mut rng);
/// let target = Rect::centered(20, 20, 12, 12)?;
/// let plan = QrmScheduler::new(QrmConfig::default()).plan(&grid, &target)?;
/// let report = Executor::new().run(&grid, &plan.schedule)?;
/// assert_eq!(report.final_grid, plan.predicted);
/// # Ok::<(), qrm_core::Error>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct QrmScheduler {
    config: QrmConfig,
    /// Batch worker count; `0` is the automatic policy of
    /// [`resolve_workers`].
    workers: usize,
}

impl QrmScheduler {
    /// Creates a scheduler with the given configuration and automatic
    /// batch worker count.
    pub fn new(config: QrmConfig) -> Self {
        QrmScheduler { config, workers: 0 }
    }

    /// Overrides the worker count used by batched planning (`0` restores
    /// the automatic one-per-core policy). Single-shot `plan` calls are
    /// always inline and unaffected.
    #[must_use]
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// The scheduler's configuration.
    pub fn config(&self) -> &QrmConfig {
        &self.config
    }

    fn merge_config(&self) -> MergeConfig {
        MergeConfig {
            merge_quadrants: self.config.merge_quadrants,
        }
    }

    /// Runs only the per-quadrant kernels, returning the four outcomes in
    /// [`QuadrantId::ALL`](crate::geometry::QuadrantId::ALL) order — the
    /// kernel analysis alone, which the paper's CPU timings measure.
    ///
    /// # Errors
    ///
    /// Returns [`Error::OddDimensions`] / [`Error::InvalidTarget`] for
    /// arrays and targets QRM cannot decompose.
    pub fn quadrant_outcomes(
        &self,
        grid: &AtomGrid,
        target: &Rect,
    ) -> Result<(QuadrantMap, [KernelOutcome; 4]), Error> {
        let work = decompose(grid, target)?;
        let kernel = ShiftKernel::new(kernel_config_for(&self.config, &work));
        let mut outcomes = Vec::with_capacity(4);
        for q in &work.quadrants {
            outcomes.push(kernel.run(q)?);
        }
        Ok((work.map, outcomes.try_into().expect("four outcomes")))
    }
}

impl Planner for QrmScheduler {
    fn name(&self) -> &'static str {
        match self.config().strategy {
            KernelStrategy::Greedy => "QRM (greedy)",
            KernelStrategy::GreedyTargetOnly => "QRM (greedy, target-only)",
            KernelStrategy::Balanced => "QRM (balanced)",
        }
    }

    fn plan(&self, grid: &AtomGrid, target: &Rect) -> Result<Plan, Error> {
        let (map, outcomes) = self.quadrant_outcomes(grid, target)?;
        assemble_plan(grid, target, &map, &outcomes, &self.merge_config())
    }

    /// Batched planning through the parallel task-graph engine
    /// ([`crate::engine`]): the quadrant kernels of **all** shots run as
    /// jobs on the persistent worker pool, keeping every core busy across
    /// the batch. Plans are bit-identical to mapping
    /// [`plan`](Self::plan) (the engine's determinism guarantee).
    fn plan_batch(&self, jobs: &[(AtomGrid, Rect)]) -> Result<Vec<Plan>, Error> {
        let shots = decompose_batch(jobs)?;
        plan_shots(
            &shots,
            resolve_workers(self.workers, shots.len()),
            |work| kernel_config_for(&self.config, work),
            &self.merge_config(),
        )
    }
}

impl fmt::Display for QrmScheduler {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} (max {} iterations, merge={})",
            self.name(),
            self.config().max_iterations,
            self.config().merge_quadrants
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::Executor;
    use crate::loading::seeded_rng;

    #[test]
    fn plan_matches_execution_across_sizes() {
        for (size, tgt) in [(10, 6), (20, 12), (30, 18)] {
            let mut rng = seeded_rng(size as u64);
            let grid = AtomGrid::random(size, size, 0.5, &mut rng);
            let target = Rect::centered(size, size, tgt, tgt).unwrap();
            let plan = QrmScheduler::default().plan(&grid, &target).unwrap();
            let report = Executor::new().run(&grid, &plan.schedule).unwrap();
            assert_eq!(report.final_grid, plan.predicted, "size {size}");
            assert_eq!(
                plan.filled,
                report.target_filled(&target).unwrap(),
                "size {size}"
            );
        }
    }

    #[test]
    fn balanced_fills_headline_instance() {
        // 50x50 at 50% -> 30x30: the paper's headline configuration.
        let mut rng = seeded_rng(2025);
        let mut filled = 0;
        let mut tried = 0;
        for _ in 0..10 {
            let grid = AtomGrid::random(50, 50, 0.5, &mut rng);
            if grid.atom_count() < 1000 {
                continue;
            }
            tried += 1;
            let target = Rect::centered(50, 50, 30, 30).unwrap();
            let plan = QrmScheduler::default().plan(&grid, &target).unwrap();
            if plan.filled {
                filled += 1;
            }
        }
        assert!(tried >= 8);
        assert!(filled * 10 >= tried * 8, "filled {filled}/{tried}");
    }

    #[test]
    fn rejects_odd_arrays_and_bad_targets() {
        let grid = AtomGrid::new(9, 10).unwrap();
        let target = Rect::new(2, 2, 4, 4);
        assert!(matches!(
            QrmScheduler::default().plan(&grid, &target),
            Err(Error::OddDimensions { .. })
        ));
        let grid = AtomGrid::new(10, 10).unwrap();
        let off_centre = Rect::new(0, 0, 4, 4);
        assert!(matches!(
            QrmScheduler::default().plan(&grid, &off_centre),
            Err(Error::InvalidTarget { .. })
        ));
    }

    #[test]
    fn defects_accounting() {
        let grid = AtomGrid::new(8, 8).unwrap(); // no atoms at all
        let target = Rect::centered(8, 8, 4, 4).unwrap();
        let plan = QrmScheduler::default().plan(&grid, &target).unwrap();
        assert!(!plan.filled);
        assert_eq!(plan.defects(&target).unwrap(), 16);
        assert!(plan.schedule.is_empty());
    }

    #[test]
    fn paper_config_uses_greedy() {
        let s = QrmScheduler::new(QrmConfig::paper());
        assert_eq!(s.name(), "QRM (greedy)");
        assert_eq!(s.config().max_iterations, 4);
    }

    #[test]
    fn plan_and_execute_helper() {
        let mut rng = seeded_rng(5);
        let grid = AtomGrid::random(12, 12, 0.5, &mut rng);
        let target = Rect::centered(12, 12, 6, 6).unwrap();
        let planner = QrmScheduler::default();
        let (plan, report) = plan_and_execute(&planner, &grid, &target).unwrap();
        assert_eq!(plan.predicted, report.final_grid);
    }

    #[test]
    fn iterations_reported() {
        let mut rng = seeded_rng(13);
        let grid = AtomGrid::random(20, 20, 0.5, &mut rng);
        let target = Rect::centered(20, 20, 12, 12).unwrap();
        let plan = QrmScheduler::default().plan(&grid, &target).unwrap();
        assert!(plan.iterations >= 1 && plan.iterations <= 4);
    }
}
