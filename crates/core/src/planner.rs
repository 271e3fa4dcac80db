//! The unified [`Planner`] interface of the planning stack.
//!
//! Every rearrangement planner in the workspace — the QRM scheduler, the
//! typical procedure, the published baselines in `qrm-baselines`, and
//! the cycle-accurate FPGA model in `qrm-fpga` — implements this one
//! trait, so the control pipeline, the benchmark harness, and the
//! examples dispatch through `Box<dyn Planner>` / `&dyn Planner` with no
//! per-algorithm match arms. Planners with a parallel core override
//! [`plan_batch`](Planner::plan_batch) to push whole batches through the
//! shared task-graph engine ([`crate::engine`]) on the persistent worker
//! pool; everything else inherits the serial default and conforms
//! unchanged.

use crate::error::Error;
use crate::executor::Executor;
use crate::geometry::Rect;
use crate::grid::AtomGrid;
use crate::scheduler::Plan;

/// Common interface of every rearrangement planner in the workspace (QRM,
/// the typical procedure, the published baselines, and the FPGA model).
///
/// A planner consumes the detected occupancy and a target rectangle and
/// produces a [`Plan`] whose schedule the
/// [`Executor`] can run. The *analysis time*
/// of `plan` is the quantity the paper's accelerator optimises.
///
/// `Send + Sync` are supertraits: every planner takes `&self` and keeps
/// any mutable scratch behind internal synchronisation (e.g. the QRM
/// engine's context pool), so one long-lived instance can serve
/// concurrent callers — the contract the planning service
/// (`qrm_server`) relies on to plan every submission warm.
pub trait Planner: Send + Sync {
    /// Human-readable planner name (used in benchmark tables).
    fn name(&self) -> &'static str;

    /// Computes a rearrangement plan.
    ///
    /// # Errors
    ///
    /// Implementations return [`Error::InvalidTarget`] for targets they
    /// cannot address and propagate internal consistency failures.
    fn plan(&self, grid: &AtomGrid, target: &Rect) -> Result<Plan, Error>;

    /// Plans a batch of independent shots, returning plans in input
    /// order.
    ///
    /// The default implementation maps [`plan`](Self::plan) serially, so
    /// every planner conforms without changes; planners with a parallel
    /// core (QRM, the FPGA model) override it to push the whole batch
    /// through the shared task-graph engine ([`crate::engine`]), which
    /// schedules the quadrant work on the persistent global worker pool.
    /// On success, overrides must be observationally equal to the
    /// default — the workspace property suite asserts `plan_batch`
    /// equals mapped `plan` for every planner.
    ///
    /// # Errors
    ///
    /// The default returns the first per-shot error in input order;
    /// parallel overrides return an error from the lowest-indexed shot
    /// observed to fail, which can be a later shot than the serial path
    /// would report (see [`crate::engine::run_task_graph`]).
    fn plan_batch(&self, jobs: &[(AtomGrid, Rect)]) -> Result<Vec<Plan>, Error> {
        jobs.iter()
            .map(|(grid, target)| self.plan(grid, target))
            .collect()
    }

    /// Diagnostics for planners that keep a warm-context pool behind
    /// [`plan_batch`](Self::plan_batch): how many recycled contexts and
    /// scratch buffers the next batch will reuse.
    ///
    /// The default returns `None` (stateless planners have nothing to
    /// report); QRM overrides it with its engine's
    /// [`context_stats`](crate::engine::PlanEngine::context_stats).
    /// Long-lived consumers — the `qrm_server` planning service — use
    /// this to expose per-planner warmth without downcasting.
    fn context_stats(&self) -> Option<crate::engine::ContextPoolStats> {
        None
    }

    /// The executor configuration this planner's schedules require.
    ///
    /// Most planners emit unit-step AOD shifts that the strict default
    /// executor validates; planners with a different transport contract
    /// (MTA1's single-tweezer fly-over legs) override this so generic
    /// consumers — the benchmark harness, the end-to-end pipeline — can
    /// execute any planner's schedule without knowing which algorithm
    /// produced it.
    fn executor(&self) -> Executor {
        Executor::new()
    }
}

/// Plans and executes in one call, returning the executor's report — a
/// convenience for tests and examples. The executor comes from
/// [`Planner::executor`], so it honours the planner's transport
/// contract.
///
/// # Errors
///
/// Propagates planner and executor errors.
pub fn plan_and_execute(
    planner: &dyn Planner,
    grid: &AtomGrid,
    target: &Rect,
) -> Result<(Plan, crate::executor::ExecutionReport), Error> {
    let plan = planner.plan(grid, target)?;
    let report = planner.executor().run(grid, &plan.schedule)?;
    Ok((plan, report))
}
