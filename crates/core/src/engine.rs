//! The parallel planning engine: a work-queue task graph over quadrant
//! kernels.
//!
//! The paper's FPGA gets its speedup from the fact that QRM's four
//! quadrants are *independent*: the accelerator plans them concurrently
//! and merges afterwards. This module gives the software stack the same
//! shape. Every plan decomposes into a small dependency graph
//!
//! ```text
//!             shot 0                          shot 1   ...  shot N-1
//!   ┌────┐┌────┐┌────┐┌────┐        ┌────┐┌────┐┌────┐┌────┐
//!   │ NW ││ NE ││ SW ││ SE │  ...   │ NW ││ NE ││ SW ││ SE │   quadrant
//!   │kern││kern││kern││kern│        │kern││kern││kern││kern│   tasks (one
//!   └──┬─┘└──┬─┘└──┬─┘└──┬─┘        └──┬─┘└──┬─┘└──┬─┘└──┬─┘   step per
//!      │     │     │     │             │     │     │     │     kernel
//!      └──┬──┴──┬──┴─────┘             └──┬──┴──┬──┴─────┘     iteration)
//!         ▼     │                         ▼     │
//!      ┌───────┐│                      ┌───────┐│
//!      │ merge │◄─ 4 outcomes          │ merge │◄─
//!      └───┬───┘                       └───┬───┘
//!          ▼                               ▼
//!      ┌────────┐                      ┌────────┐
//!      │validate│ -> Plan              │validate│ -> Plan
//!      └────────┘                      └────────┘
//! ```
//!
//! and the tasks of **all shots in a batch share one work queue**, so a
//! set of engine workers keeps every core busy across the whole batch:
//! quadrant kernels are re-enqueued after each iteration (round-robin
//! fairness across shots), a shot's merge task becomes ready when its
//! fourth quadrant completes, and its validate task finalises the
//! [`Plan`].
//!
//! ## The persistent worker pool
//!
//! Engine workers are submitted through `rayon::scope` to the
//! **process-global persistent thread pool** (`rayon::ThreadPool`):
//! OS threads are spawned exactly once, lazily, and every later
//! `plan_batch`/`run_task_graph` call only enqueues jobs onto them —
//! `rayon::global_pool_stats()` exposes the spawn counter the reuse
//! tests assert stays flat. Two paths skip the pool entirely:
//!
//! * `workers <= 1` (including every run on a single-core host under the
//!   automatic policy) executes the graph **inline** on the calling
//!   thread in deterministic order, with zero queueing overhead;
//! * an empty batch returns immediately.
//!
//! Allocation reuse across batches lives in [`PlanContext`]: it pools
//! the slot-indexed result buffers and the per-quadrant kernel scratch
//! (grid word buffers and pass vectors, recycled through
//! [`KernelScratch::reclaim`] / [`ShiftKernel::start_in`]), so a long-lived
//! engine — e.g. the one inside `Pipeline::run` planning round after
//! round — does not grow those buffers again once warm.
//!
//! Planning still allocates. A warm one-shot 50x50 `plan_batch` under
//! [`QrmConfig::paper`] makes about 820 heap allocations:
//!
//! * about 300 in the merge: two per emitted move (its row and column
//!   lists; ≈145 moves) plus a constant ≈10 buffers per call, a budget
//!   `crates/core/tests/merge_alloc.rs` pins;
//! * about 130 in each of the four quadrant kernels, from the `Vec`s
//!   each pass builds (its waves, one shift list per non-empty wave, the
//!   hole windows);
//! * a handful in decomposition and validation (the four quadrant
//!   `Arc`s, the plan).
//!
//! ## Determinism
//!
//! Parallel execution is **bit-identical** to serial planning: quadrant
//! kernels are pure functions of their canonical quadrant grid, results
//! land in slots indexed by `(shot, quadrant)`, and each merge consumes
//! its four outcomes in [`QuadrantId::ALL`](crate::geometry::QuadrantId)
//! order — thread interleaving can change *when* a task runs, never
//! *what* it computes. The integration suite asserts schedule, predicted
//! grid, and iteration counts match the serial path exactly.
//!
//! ## Sharing with the FPGA model
//!
//! [`decompose`] is the single source of the quadrant decomposition
//! (map, per-quadrant target extent, canonical quadrant grids). The
//! cycle-accurate accelerator in `qrm-fpga` consumes the same
//! [`QuadrantWork`] and drives the same task graph through
//! [`run_task_graph`] with its quadrant-processor model as the per-task
//! body, so hardware and software cannot drift apart structurally.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};

use crate::error::Error;
use crate::geometry::Rect;
use crate::grid::AtomGrid;
use crate::kernel::{
    KernelConfig, KernelOutcome, KernelScratch, KernelState, PassScratch, ShiftKernel,
};
use crate::merge::{merge_outcomes, MergeConfig, MergeOutput};
use crate::quadrant::QuadrantMap;
use crate::scheduler::{Plan, QrmConfig};

pub mod dataflow;

/// The quadrant decomposition of one planning problem — shared between
/// the software engine and the FPGA model so both operate on one
/// structure.
#[derive(Debug, Clone)]
pub struct QuadrantWork {
    /// Coordinate mapping between the global array and its quadrants.
    pub map: QuadrantMap,
    /// Per-quadrant canonical target height.
    pub target_height: usize,
    /// Per-quadrant canonical target width.
    pub target_width: usize,
    /// The four canonical quadrant grids, in
    /// [`QuadrantId::ALL`](crate::geometry::QuadrantId::ALL) order,
    /// behind `Arc` so worker tasks can hold them without copying.
    pub quadrants: [Arc<AtomGrid>; 4],
}

/// Splits `grid` into the canonical quadrant decomposition for a centred
/// `target`.
///
/// # Errors
///
/// Returns [`Error::OddDimensions`] / [`Error::InvalidTarget`] for
/// arrays and targets QRM cannot decompose.
pub fn decompose(grid: &AtomGrid, target: &Rect) -> Result<QuadrantWork, Error> {
    decompose_in(grid, target, &PlanContext::new())
}

/// [`decompose`] drawing the four quadrant grids from `ctx`'s recycled
/// grid pool (see [`PlanContext`]) instead of allocating fresh ones —
/// with a warm pool the decomposition allocates only the four `Arc`
/// headers. Identical output either way
/// ([`QuadrantMap::split_into`] reproduces [`QuadrantMap::split`]
/// exactly).
///
/// # Errors
///
/// Returns [`Error::OddDimensions`] / [`Error::InvalidTarget`] for
/// arrays and targets QRM cannot decompose.
pub fn decompose_in(
    grid: &AtomGrid,
    target: &Rect,
    ctx: &PlanContext,
) -> Result<QuadrantWork, Error> {
    let map = QuadrantMap::new(grid.height(), grid.width())?;
    let (target_height, target_width) = map.quadrant_target(target)?;
    let quadrants = map.split_into(grid, ctx.take_grids())?.map(Arc::new);
    Ok(QuadrantWork {
        map,
        target_height,
        target_width,
        quadrants,
    })
}

/// One decomposed shot of a batch: the borrowed inputs plus their
/// quadrant decomposition. Produced by [`decompose_batch`] and consumed
/// by every batched planner (software engine and FPGA model alike).
#[derive(Debug)]
pub struct BatchShot<'a> {
    /// The shot's occupancy grid.
    pub grid: &'a AtomGrid,
    /// The shot's target rectangle.
    pub target: &'a Rect,
    /// The shot's quadrant decomposition.
    pub work: QuadrantWork,
}

/// Decomposes every `(grid, target)` job of a batch.
///
/// # Errors
///
/// Returns the first decomposition error in input order.
pub fn decompose_batch(jobs: &[(AtomGrid, Rect)]) -> Result<Vec<BatchShot<'_>>, Error> {
    decompose_batch_in(jobs, &PlanContext::new())
}

/// [`decompose_batch`] drawing quadrant grids from `ctx`'s recycled
/// pool — see [`decompose_in`].
///
/// # Errors
///
/// Returns the first decomposition error in input order.
pub fn decompose_batch_in<'a>(
    jobs: &'a [(AtomGrid, Rect)],
    ctx: &PlanContext,
) -> Result<Vec<BatchShot<'a>>, Error> {
    jobs.iter()
        .map(|(grid, target)| {
            Ok(BatchShot {
                grid,
                target,
                work: decompose_in(grid, target, ctx)?,
            })
        })
        .collect()
}

/// Builds the per-quadrant kernel configuration a [`QrmConfig`] implies
/// for one decomposition. The single definition used by the serial
/// planner and the batched engine — the `plan_batch == mapped plan`
/// guarantee depends on the two paths configuring kernels identically.
pub fn kernel_config_for(config: &QrmConfig, work: &QuadrantWork) -> KernelConfig {
    KernelConfig::new(work.target_height, work.target_width)
        .with_strategy(config.strategy)
        .with_max_iterations(config.max_iterations)
}

/// The merge half of plan assembly: cross-quadrant merge plus
/// iteration aggregation (the body of the engine's `Merge` task).
///
/// # Errors
///
/// Propagates merge validation failures.
pub fn merge_shot(
    grid: &AtomGrid,
    map: &QuadrantMap,
    outcomes: &[KernelOutcome; 4],
    merge_cfg: &MergeConfig,
) -> Result<(MergeOutput, usize), Error> {
    let iterations = outcomes.iter().map(|o| o.iterations).max().unwrap_or(0);
    Ok((merge_outcomes(grid, map, outcomes, merge_cfg)?, iterations))
}

/// The validate half of plan assembly: fill check plus [`Plan`]
/// construction (the body of the engine's `Validate` task).
///
/// # Errors
///
/// Propagates fill-check failures (out-of-bounds targets).
pub fn validate_shot(target: &Rect, merged: MergeOutput, iterations: usize) -> Result<Plan, Error> {
    let filled = merged.final_grid.is_filled(target)?;
    Ok(Plan {
        schedule: merged.schedule,
        predicted: merged.final_grid,
        filled,
        iterations,
    })
}

/// Assembles a [`Plan`] from four quadrant outcomes —
/// [`merge_shot`] followed by [`validate_shot`]. The single definition
/// shared by the serial planner
/// ([`QrmScheduler::plan`](crate::scheduler::QrmScheduler)) and the
/// batched engine, so the two cannot drift apart.
///
/// # Errors
///
/// Propagates merge validation failures.
pub fn assemble_plan(
    grid: &AtomGrid,
    target: &Rect,
    map: &QuadrantMap,
    outcomes: &[KernelOutcome; 4],
    merge_cfg: &MergeConfig,
) -> Result<Plan, Error> {
    let (merged, iterations) = merge_shot(grid, map, outcomes, merge_cfg)?;
    validate_shot(target, merged, iterations)
}

/// Result of one [`QuadrantTask::step`] call.
#[derive(Debug)]
pub enum Step<T> {
    /// The task has more iterations to run; re-enqueue it.
    Continue,
    /// The task completed and produced its output.
    Done(T),
}

/// A resumable unit of per-quadrant work. The engine calls
/// [`step`](Self::step) repeatedly, re-enqueueing the task between calls
/// so long-running kernels interleave fairly with other shots' work.
pub trait QuadrantTask: Send {
    /// The quadrant-level result (e.g. a
    /// [`KernelOutcome`]).
    type Out: Send;

    /// Runs one increment of work.
    ///
    /// # Errors
    ///
    /// A task error aborts the whole batch with that error.
    fn step(&mut self) -> Result<Step<Self::Out>, Error>;
}

/// One entry in the engine's work queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanTask {
    /// One iteration of quadrant `quadrant` of shot `shot`.
    Quadrant {
        /// Batch index of the shot.
        shot: usize,
        /// Quadrant index in `QuadrantId::ALL` order.
        quadrant: usize,
    },
    /// Merge the four quadrant outcomes of shot `shot` into a global
    /// schedule. Ready once all four quadrant tasks completed.
    Merge {
        /// Batch index of the shot.
        shot: usize,
    },
    /// Validate the merged schedule of shot `shot` and finalise its
    /// result. Ready once the merge task completed.
    Validate {
        /// Batch index of the shot.
        shot: usize,
    },
}

/// Work queue shared by the engine's workers: a deque of ready tasks
/// plus the count of terminal completions still outstanding, so workers
/// know to wait (a running task may push successors) rather than exit.
struct TaskQueue {
    state: Mutex<QueueState>,
    ready: Condvar,
}

struct QueueState {
    tasks: VecDeque<PlanTask>,
    /// Terminal completions outstanding: per shot, four quadrant
    /// completions plus merge plus validate.
    outstanding: usize,
    /// Set on first error; drains the queue.
    aborted: bool,
}

impl TaskQueue {
    fn new(tasks: VecDeque<PlanTask>, outstanding: usize) -> Self {
        TaskQueue {
            state: Mutex::new(QueueState {
                tasks,
                outstanding,
                aborted: false,
            }),
            ready: Condvar::new(),
        }
    }

    /// Blocks until a task is ready, all work is done, or the batch
    /// aborted.
    fn pop(&self) -> Option<PlanTask> {
        let mut state = self.state.lock().expect("engine queue poisoned");
        loop {
            if state.aborted || state.outstanding == 0 {
                return None;
            }
            if let Some(task) = state.tasks.pop_front() {
                return Some(task);
            }
            state = self.ready.wait(state).expect("engine queue poisoned");
        }
    }

    fn push(&self, task: PlanTask) {
        let mut state = self.state.lock().expect("engine queue poisoned");
        state.tasks.push_back(task);
        drop(state);
        self.ready.notify_one();
    }

    /// Records a terminal completion (quadrant done / merge / validate).
    fn complete_one(&self) {
        let mut state = self.state.lock().expect("engine queue poisoned");
        state.outstanding -= 1;
        let finished = state.outstanding == 0;
        drop(state);
        if finished {
            self.ready.notify_all();
        }
    }

    fn abort(&self) {
        let mut state = self.state.lock().expect("engine queue poisoned");
        state.aborted = true;
        drop(state);
        self.ready.notify_all();
    }
}

/// Per-shot mutable slots. Every slot is owned by exactly one in-flight
/// task at a time (the dependency graph guarantees it), so the mutexes
/// are uncontended handovers, not synchronisation hot spots.
struct ShotSlots<T: QuadrantTask, M> {
    tasks: [Mutex<Option<T>>; 4],
    outcomes: [Mutex<Option<T::Out>>; 4],
    quadrants_left: AtomicUsize,
    merged: Mutex<Option<M>>,
}

/// Executes a batch of quadrant task graphs on `workers` pool workers
/// and returns the per-shot results in input order.
///
/// `tasks` holds the four [`QuadrantTask`]s of every shot. When a shot's
/// four tasks complete, `merge` fuses their outputs; `validate` then
/// finalises the merge product into the shot's result. Both callbacks
/// run as queue tasks themselves, so merges of early shots overlap
/// quadrant work of later shots.
///
/// With `workers <= 1` the graph is executed inline in deterministic
/// order with zero thread overhead; with more, workers are submitted to
/// the persistent global pool (no OS threads are spawned either way
/// after pool initialisation). The result is bit-identical in all cases
/// (see the module docs).
///
/// # Errors
///
/// A task/merge/validate error aborts the batch. Among the errors
/// observed before the abort takes effect, the one with the **lowest
/// shot index** is returned; with `workers <= 1` that is exactly the
/// first error in input order, while parallel workers may have already
/// passed an earlier shot that would have failed.
pub fn run_task_graph<T, M, O, FM, FV>(
    tasks: Vec<[T; 4]>,
    workers: usize,
    merge: FM,
    validate: FV,
) -> Result<Vec<O>, Error>
where
    T: QuadrantTask,
    M: Send,
    O: Send,
    FM: Fn(usize, [T::Out; 4]) -> Result<M, Error> + Sync,
    FV: Fn(usize, M) -> Result<O, Error> + Sync,
{
    run_task_graph_in(tasks, workers, merge, validate, &mut Vec::new())
}

/// [`run_task_graph`] with a caller-owned slot-indexed result buffer, so
/// repeated batches reuse its allocation instead of growing a fresh one
/// (the [`PlanContext`] hook). The buffer is cleared and resized to the
/// batch; on success every slot has been drained into the returned
/// `Vec`. The inline `workers <= 1` path does not touch the buffer.
///
/// # Errors
///
/// Identical to [`run_task_graph`].
pub fn run_task_graph_in<T, M, O, FM, FV>(
    tasks: Vec<[T; 4]>,
    workers: usize,
    merge: FM,
    validate: FV,
    results: &mut Vec<Mutex<Option<O>>>,
) -> Result<Vec<O>, Error>
where
    T: QuadrantTask,
    M: Send,
    O: Send,
    FM: Fn(usize, [T::Out; 4]) -> Result<M, Error> + Sync,
    FV: Fn(usize, M) -> Result<O, Error> + Sync,
{
    let shots = tasks.len();
    if workers <= 1 || shots == 0 {
        return tasks
            .into_iter()
            .enumerate()
            .map(|(shot, quadrant_tasks)| {
                let mut outs = Vec::with_capacity(4);
                for mut task in quadrant_tasks {
                    outs.push(loop {
                        match task.step()? {
                            Step::Continue => {}
                            Step::Done(out) => break out,
                        }
                    });
                }
                let outs: [T::Out; 4] = outs.try_into().unwrap_or_else(|_| unreachable!());
                validate(shot, merge(shot, outs)?)
            })
            .collect();
    }

    let slots: Vec<ShotSlots<T, M>> = tasks
        .into_iter()
        .map(|quadrant_tasks| {
            let [a, b, c, d] = quadrant_tasks;
            ShotSlots {
                tasks: [
                    Mutex::new(Some(a)),
                    Mutex::new(Some(b)),
                    Mutex::new(Some(c)),
                    Mutex::new(Some(d)),
                ],
                outcomes: [
                    Mutex::new(None),
                    Mutex::new(None),
                    Mutex::new(None),
                    Mutex::new(None),
                ],
                quadrants_left: AtomicUsize::new(4),
                merged: Mutex::new(None),
            }
        })
        .collect();
    results.clear();
    results.resize_with(shots, || Mutex::new(None));
    let results = &*results;
    let first_error: Mutex<Option<(usize, Error)>> = Mutex::new(None);

    // Seed the queue with every quadrant task, interleaved shot-major so
    // early merges unblock as soon as possible.
    let initial: VecDeque<PlanTask> = (0..shots)
        .flat_map(|shot| (0..4).map(move |quadrant| PlanTask::Quadrant { shot, quadrant }))
        .collect();
    let queue = TaskQueue::new(initial, shots * 6);

    let run_one = |task: PlanTask| -> Result<(), (usize, Error)> {
        match task {
            PlanTask::Quadrant { shot, quadrant } => {
                let slot = &slots[shot];
                let mut quadrant_task = slot.tasks[quadrant]
                    .lock()
                    .expect("engine task slot poisoned")
                    .take()
                    .expect("quadrant task scheduled twice");
                match quadrant_task.step().map_err(|e| (shot, e))? {
                    Step::Continue => {
                        *slot.tasks[quadrant]
                            .lock()
                            .expect("engine task slot poisoned") = Some(quadrant_task);
                        queue.push(PlanTask::Quadrant { shot, quadrant });
                    }
                    Step::Done(out) => {
                        *slot.outcomes[quadrant]
                            .lock()
                            .expect("engine outcome slot poisoned") = Some(out);
                        if slot.quadrants_left.fetch_sub(1, Ordering::AcqRel) == 1 {
                            queue.push(PlanTask::Merge { shot });
                        }
                        queue.complete_one();
                    }
                }
            }
            PlanTask::Merge { shot } => {
                let slot = &slots[shot];
                let outs: [T::Out; 4] = slot.outcomes.each_ref().map(|cell| {
                    cell.lock()
                        .expect("engine outcome slot poisoned")
                        .take()
                        .expect("merge scheduled before its quadrants")
                });
                let merged = merge(shot, outs).map_err(|e| (shot, e))?;
                *slot.merged.lock().expect("engine merge slot poisoned") = Some(merged);
                queue.push(PlanTask::Validate { shot });
                queue.complete_one();
            }
            PlanTask::Validate { shot } => {
                let merged = slots[shot]
                    .merged
                    .lock()
                    .expect("engine merge slot poisoned")
                    .take()
                    .expect("validate scheduled before its merge");
                let result = validate(shot, merged).map_err(|e| (shot, e))?;
                *results[shot].lock().expect("engine result slot poisoned") = Some(result);
                queue.complete_one();
            }
        }
        Ok(())
    };

    /// Aborts the queue when a worker exits for any reason — including a
    /// panic unwinding out of a task (e.g. a debug assertion in merge
    /// code). Without this, surviving workers would wait forever on the
    /// condvar and the panic would never propagate out of the thread
    /// scope. On a normal exit all work is already done (or the queue is
    /// already aborted), so the extra abort is a no-op.
    struct AbortOnExit<'a>(&'a TaskQueue);
    impl Drop for AbortOnExit<'_> {
        fn drop(&mut self) {
            self.0.abort();
        }
    }

    rayon::scope(|scope| {
        for _ in 0..workers.min(shots * 4) {
            scope.spawn(|_| {
                let _guard = AbortOnExit(&queue);
                while let Some(task) = queue.pop() {
                    if let Err((shot, err)) = run_one(task) {
                        let mut first = first_error.lock().expect("engine error slot poisoned");
                        if first.as_ref().is_none_or(|(held, _)| shot < *held) {
                            *first = Some((shot, err));
                        }
                        drop(first);
                        return;
                    }
                }
            });
        }
    });

    if let Some((_, err)) = first_error
        .into_inner()
        .expect("engine error slot poisoned")
    {
        return Err(err);
    }
    Ok(results
        .iter()
        .map(|slot| {
            slot.lock()
                .expect("engine result slot poisoned")
                .take()
                .expect("every shot produced a result")
        })
        .collect())
}

/// The engine's worker-count policy: `configured == 0` means "one
/// worker per available core", and any count is capped by the number of
/// quadrant tasks in the batch. Exposed so every batched consumer of
/// [`run_task_graph`] (the software engine, the FPGA model) resolves
/// workers identically.
pub fn resolve_workers(configured: usize, shots: usize) -> usize {
    let max_useful = shots.saturating_mul(4).max(1);
    if configured == 0 {
        rayon::current_num_threads().min(max_useful)
    } else {
        configured.min(max_useful)
    }
}

/// Reusable scratch for repeated batched planning: the slot-indexed
/// result buffer of [`run_task_graph_in`] plus a pool of recycled
/// per-quadrant kernel scratch (grid word buffers and pass vectors —
/// see [`KernelScratch::reclaim`] and [`ShiftKernel::start_in`]).
///
/// A [`PlanEngine`] owns one internally, so consecutive
/// [`plan_batch`](PlanEngine::plan_batch) calls through the same engine
/// (e.g. the per-round calls inside `Pipeline::run`) reuse
/// allocations automatically; [`plan_batch_in`](PlanEngine::plan_batch_in)
/// takes an explicit context for callers that manage their own. Reuse is
/// purely an allocation optimisation — plans are bit-identical whether a
/// context is fresh, warm, or absent, which the integration suite
/// asserts.
#[derive(Debug, Default)]
pub struct PlanContext {
    /// Recycled kernel scratch, shared with in-flight tasks.
    states: Mutex<Vec<KernelScratch>>,
    /// Recycled per-pass working buffers (transposed views), shared with
    /// in-flight tasks — see [`PassScratch`].
    pass_scratch: Mutex<Vec<PassScratch>>,
    /// Recycled quadrant grids for [`decompose_in`], reclaimed from
    /// consumed [`QuadrantWork`]s after each batch.
    grids: Mutex<Vec<AtomGrid>>,
    /// Recycled result-slot buffer for [`run_task_graph_in`].
    slots: Vec<Mutex<Option<Plan>>>,
}

impl PlanContext {
    /// Creates an empty context.
    pub fn new() -> Self {
        PlanContext::default()
    }

    /// Number of recycled kernel-scratch buffers currently parked in the
    /// context (diagnostics: after a warm batch this is nonzero, proving
    /// the next batch will reuse rather than allocate).
    pub fn idle_states(&self) -> usize {
        self.states.lock().expect("plan context poisoned").len()
    }

    /// Number of recycled per-pass working buffers currently parked
    /// (diagnostics, like [`idle_states`](Self::idle_states)).
    pub fn idle_pass_scratch(&self) -> usize {
        self.pass_scratch
            .lock()
            .expect("plan context poisoned")
            .len()
    }

    /// Number of recycled quadrant grids currently parked for
    /// [`decompose_in`] (diagnostics, like
    /// [`idle_states`](Self::idle_states)).
    pub fn idle_grids(&self) -> usize {
        self.grids.lock().expect("plan context poisoned").len()
    }

    /// Pops four recycled quadrant grids (placeholders where the pool
    /// runs dry) for [`QuadrantMap::split_into`].
    fn take_grids(&self) -> [AtomGrid; 4] {
        let mut pool = self.grids.lock().expect("plan context poisoned");
        std::array::from_fn(|_| {
            pool.pop()
                .unwrap_or_else(|| AtomGrid::new(1, 1).expect("1x1 placeholder grid"))
        })
    }

    /// Parks the quadrant grids of consumed shots back into the pool.
    /// Only grids no longer shared survive the `Arc` unwrap — exactly
    /// the steady-state case, where every in-flight kernel has finished
    /// with its quadrant by the time its batch returns.
    fn recycle_shots(&self, shots: Vec<BatchShot<'_>>) {
        let mut pool = self.grids.lock().expect("plan context poisoned");
        for shot in shots {
            for quadrant in shot.work.quadrants {
                if let Ok(grid) = Arc::try_unwrap(quadrant) {
                    pool.push(grid);
                }
            }
        }
    }
}

/// Snapshot of a [`PlanEngine`]'s context pool, taken atomically by
/// [`PlanEngine::context_stats`].
///
/// A long-lived engine that has served at least one batch shows
/// `idle_contexts >= 1` with nonzero `warm_states` — proof that the next
/// batch (concurrent or not) will recycle scratch instead of
/// allocating. A steady state of `k` concurrent callers settles on
/// `min(k, 8)` parked contexts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct ContextPoolStats {
    /// Parked warm contexts available for checkout.
    pub idle_contexts: usize,
    /// Recycled kernel-scratch buffers across all parked contexts.
    pub warm_states: usize,
}

/// The batched QRM planning engine.
///
/// Wraps a [`QrmConfig`] and a worker count; [`plan_batch`](Self::plan_batch)
/// plans many `(grid, target)` shots through one shared task graph.
///
/// ```
/// use qrm_core::engine::PlanEngine;
/// use qrm_core::prelude::*;
///
/// let mut rng = qrm_core::loading::seeded_rng(3);
/// let jobs: Vec<(AtomGrid, Rect)> = (0..4)
///     .map(|_| {
///         let grid = AtomGrid::random(20, 20, 0.5, &mut rng);
///         let target = Rect::centered(20, 20, 12, 12).unwrap();
///         (grid, target)
///     })
///     .collect();
///
/// let engine = PlanEngine::new(QrmConfig::default()).with_workers(2);
/// let plans = engine.plan_batch(&jobs)?;
/// assert_eq!(plans.len(), 4);
///
/// // Bit-identical to the serial path:
/// let serial = QrmScheduler::new(QrmConfig::default());
/// for ((grid, target), plan) in jobs.iter().zip(&plans) {
///     assert_eq!(serial.plan(grid, target)?, *plan);
/// }
/// # Ok::<(), qrm_core::Error>(())
/// ```
#[derive(Debug, Default)]
pub struct PlanEngine {
    config: QrmConfig,
    workers: usize,
    /// Pool of parked cross-batch contexts. Each `plan_batch` call
    /// checks one out for its duration, so **concurrent** batches on one
    /// engine each get their own warm context instead of one winner
    /// taking the engine's scratch and everyone else planning cold (the
    /// old `try_lock` fallback). Cloning an engine starts with an empty
    /// pool.
    ctxs: Mutex<Vec<PlanContext>>,
}

/// Parked contexts kept per engine: enough for one per core of
/// plausible concurrent callers; beyond that, surplus contexts are
/// dropped rather than hoarded.
const MAX_POOLED_CONTEXTS: usize = 8;

impl Clone for PlanEngine {
    fn clone(&self) -> Self {
        PlanEngine {
            config: self.config.clone(),
            workers: self.workers,
            ctxs: Mutex::new(Vec::new()),
        }
    }
}

/// A [`QuadrantTask`] running the software shift kernel one iteration
/// per step. Holds the owning context's pass-scratch pool so the run's
/// working buffer goes straight back into circulation at `Done` —
/// [`KernelOutcome`] itself cannot carry it (see
/// [`ShiftKernel::finish_split`]).
struct KernelTask<'a> {
    kernel: ShiftKernel,
    state: Option<KernelState>,
    pass_pool: &'a Mutex<Vec<PassScratch>>,
}

impl QuadrantTask for KernelTask<'_> {
    type Out = KernelOutcome;

    fn step(&mut self) -> Result<Step<KernelOutcome>, Error> {
        let mut state = self.state.take().expect("kernel task stepped after done");
        if self.kernel.step(&mut state)? {
            let (outcome, pass) = self.kernel.finish_split(state)?;
            self.pass_pool
                .lock()
                .expect("plan context poisoned")
                .push(pass);
            Ok(Step::Done(outcome))
        } else {
            self.state = Some(state);
            Ok(Step::Continue)
        }
    }
}

impl PlanEngine {
    /// Creates an engine planning with the given QRM configuration and
    /// automatic worker count (one per core, capped by batch size).
    pub fn new(config: QrmConfig) -> Self {
        PlanEngine {
            config,
            workers: 0,
            ctxs: Mutex::new(Vec::new()),
        }
    }

    /// Overrides the worker count (`0` restores the automatic policy).
    #[must_use]
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// The engine's QRM configuration.
    pub fn config(&self) -> &QrmConfig {
        &self.config
    }

    /// Builds the kernel configuration for one decomposed shot.
    fn kernel_config(&self, work: &QuadrantWork) -> KernelConfig {
        kernel_config_for(&self.config, work)
    }

    /// Plans every `(grid, target)` shot, executing the shared task
    /// graph on the configured workers. Results are in input order and
    /// bit-identical to calling
    /// [`QrmScheduler::plan`](crate::scheduler::QrmScheduler) per shot.
    ///
    /// Checks a warm [`PlanContext`] out of the engine's context pool
    /// for the duration of the call, so consecutive *and concurrent*
    /// calls reuse kernel scratch and result buffers: each concurrent
    /// batch takes (or creates) its own context and parks it back
    /// afterwards, so a steady state of `k` concurrent callers settles
    /// on `k` warm contexts with no serialisation and no cold-planning
    /// fallback. A batch that panics simply drops its context — the
    /// pool itself cannot be poisoned mid-plan because the lock is
    /// never held while planning.
    ///
    /// # Errors
    ///
    /// Returns the first decomposition error in input order, or the
    /// first planning error the task graph hits.
    pub fn plan_batch(&self, jobs: &[(AtomGrid, Rect)]) -> Result<Vec<Plan>, Error> {
        let mut ctx = self.lock_ctxs().pop().unwrap_or_default();
        let result = self.plan_batch_in(&mut ctx, jobs);
        let mut pool = self.lock_ctxs();
        if pool.len() < MAX_POOLED_CONTEXTS {
            pool.push(ctx);
        }
        result
    }

    /// The context pool, recovering from the (practically impossible)
    /// case of a panic inside a push/pop by starting a fresh pool.
    fn lock_ctxs(&self) -> std::sync::MutexGuard<'_, Vec<PlanContext>> {
        self.ctxs.lock().unwrap_or_else(|poisoned| {
            self.ctxs.clear_poison();
            let mut pool = poisoned.into_inner();
            pool.clear();
            pool
        })
    }

    /// Number of parked contexts currently in the engine's pool
    /// (diagnostics: after `k` concurrent batches complete this is
    /// `min(k, 8)`, each of them warm).
    pub fn idle_contexts(&self) -> usize {
        self.lock_ctxs().len()
    }

    /// Total recycled kernel-scratch buffers across all parked contexts
    /// (diagnostics: nonzero proves the next batch — concurrent or not —
    /// starts warm).
    pub fn warm_states(&self) -> usize {
        self.lock_ctxs().iter().map(PlanContext::idle_states).sum()
    }

    /// Total recycled per-pass working buffers across all parked
    /// contexts (diagnostics; not part of the wire-level
    /// [`ContextPoolStats`]).
    pub fn warm_pass_scratch(&self) -> usize {
        self.lock_ctxs()
            .iter()
            .map(PlanContext::idle_pass_scratch)
            .sum()
    }

    /// Total recycled quadrant grids across all parked contexts
    /// (diagnostics; not part of the wire-level [`ContextPoolStats`]).
    pub fn warm_grids(&self) -> usize {
        self.lock_ctxs().iter().map(PlanContext::idle_grids).sum()
    }

    /// One-call snapshot of the engine's context pool —
    /// [`idle_contexts`](Self::idle_contexts) and
    /// [`warm_states`](Self::warm_states) taken under a single lock, so
    /// the two numbers are consistent with each other. This is the
    /// per-engine half of the planning service's stats surface
    /// (`qrm_server` aggregates one per registered planner).
    pub fn context_stats(&self) -> ContextPoolStats {
        let pool = self.lock_ctxs();
        ContextPoolStats {
            idle_contexts: pool.len(),
            warm_states: pool.iter().map(PlanContext::idle_states).sum(),
        }
    }

    /// [`plan_batch`](Self::plan_batch) with an explicit reusable
    /// context. Plans are bit-identical whether `ctx` is fresh or warm;
    /// a warm context only skips allocations (the kernel grid/pass
    /// buffers and the result slots are recycled from the previous
    /// batch).
    ///
    /// # Errors
    ///
    /// Identical to [`plan_batch`](Self::plan_batch).
    pub fn plan_batch_in(
        &self,
        ctx: &mut PlanContext,
        jobs: &[(AtomGrid, Rect)],
    ) -> Result<Vec<Plan>, Error> {
        let shots = decompose_batch_in(jobs, ctx)?;
        let states = &ctx.states;
        let pass_pool = &ctx.pass_scratch;

        let tasks: Vec<[KernelTask<'_>; 4]> = shots
            .iter()
            .map(|shot| {
                let kernel = ShiftKernel::new(self.kernel_config(&shot.work));
                let mk = |quadrant: &Arc<AtomGrid>| -> Result<KernelTask<'_>, Error> {
                    let recycled = states.lock().expect("plan context poisoned").pop();
                    let pass = pass_pool.lock().expect("plan context poisoned").pop();
                    Ok(KernelTask {
                        state: Some(kernel.start_with(quadrant, recycled, pass)?),
                        kernel: kernel.clone(),
                        pass_pool,
                    })
                };
                Ok([
                    mk(&shot.work.quadrants[0])?,
                    mk(&shot.work.quadrants[1])?,
                    mk(&shot.work.quadrants[2])?,
                    mk(&shot.work.quadrants[3])?,
                ])
            })
            .collect::<Result<_, Error>>()?;

        let merge_cfg = MergeConfig {
            merge_quadrants: self.config.merge_quadrants,
        };
        let workers = resolve_workers(self.workers, shots.len());

        let result = run_task_graph_in(
            tasks,
            workers,
            |shot_idx, outcomes: [KernelOutcome; 4]| {
                let shot = &shots[shot_idx];
                let merged = merge_shot(shot.grid, &shot.work.map, &outcomes, &merge_cfg)?;
                // The four outcomes have served their purpose; reclaim
                // their buffers for the next batch's kernels.
                let mut pool = states.lock().expect("plan context poisoned");
                for outcome in outcomes {
                    pool.push(KernelScratch::reclaim(outcome));
                }
                Ok(merged)
            },
            |shot_idx, (merged, iterations)| {
                validate_shot(shots[shot_idx].target, merged, iterations)
            },
            &mut ctx.slots,
        );
        // Every kernel has finished with its quadrant grid; park the
        // grids for the next batch's `decompose_in`.
        ctx.recycle_shots(shots);
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loading::seeded_rng;
    use crate::planner::Planner;
    use crate::scheduler::QrmScheduler;

    fn jobs(n: usize, size: usize, seed: u64) -> Vec<(AtomGrid, Rect)> {
        let mut rng = seeded_rng(seed);
        let side = (size * 3 / 5) & !1;
        (0..n)
            .map(|_| {
                (
                    AtomGrid::random(size, size, 0.5, &mut rng),
                    Rect::centered(size, size, side, side).unwrap(),
                )
            })
            .collect()
    }

    #[test]
    fn decompose_matches_scheduler_inputs() {
        let batch = jobs(1, 20, 1);
        let (grid, target) = &batch[0];
        let work = decompose(grid, target).unwrap();
        assert_eq!(work.map.quadrant_height(), 10);
        assert_eq!((work.target_height, work.target_width), (6, 6));
        let total: usize = work.quadrants.iter().map(|q| q.atom_count()).sum();
        assert_eq!(total, grid.atom_count());
    }

    #[test]
    fn parallel_batch_is_bit_identical_to_serial() {
        let batch = jobs(6, 20, 7);
        let serial = QrmScheduler::default();
        let expected: Vec<Plan> = batch
            .iter()
            .map(|(g, t)| serial.plan(g, t).unwrap())
            .collect();
        for workers in [1, 2, 3, 8] {
            let engine = PlanEngine::new(QrmConfig::default()).with_workers(workers);
            let got = engine.plan_batch(&batch).unwrap();
            assert_eq!(got, expected, "workers = {workers}");
        }
    }

    #[test]
    fn empty_batch_is_fine() {
        let engine = PlanEngine::new(QrmConfig::default());
        assert!(engine.plan_batch(&[]).unwrap().is_empty());
    }

    #[test]
    fn steady_state_batches_recycle_all_scratch() {
        // After one warm-up batch every scratch pool is populated, and
        // identical follow-up batches neither grow nor drain them: all
        // hot-path buffers (kernel states, pass views, quadrant grids)
        // are recycled rather than allocated.
        let batch = jobs(4, 20, 11);
        let engine = PlanEngine::new(QrmConfig::default()).with_workers(2);
        let mut ctx = PlanContext::new();
        let first = engine.plan_batch_in(&mut ctx, &batch).unwrap();
        let warm = (ctx.idle_states(), ctx.idle_pass_scratch(), ctx.idle_grids());
        assert_eq!(warm, (16, 16, 16), "4 shots x 4 quadrants parked");
        for round in 0..3 {
            let again = engine.plan_batch_in(&mut ctx, &batch).unwrap();
            assert_eq!(again, first, "round {round}: warm plans diverged");
            assert_eq!(
                (ctx.idle_states(), ctx.idle_pass_scratch(), ctx.idle_grids()),
                warm,
                "round {round}: steady-state batch grew or leaked a scratch pool"
            );
        }
    }

    #[test]
    fn panicking_task_propagates_instead_of_hanging() {
        // A panic unwinding out of a task (e.g. a debug assertion in
        // merge code) must abort the queue so surviving workers exit and
        // the panic reaches the caller — not deadlock the worker pool.
        struct Bomb {
            fuse: bool,
        }
        impl QuadrantTask for Bomb {
            type Out = ();
            fn step(&mut self) -> Result<Step<()>, Error> {
                if self.fuse {
                    panic!("task exploded");
                }
                Ok(Step::Done(()))
            }
        }
        let tasks = vec![
            [
                Bomb { fuse: false },
                Bomb { fuse: true },
                Bomb { fuse: false },
                Bomb { fuse: false },
            ],
            [
                Bomb { fuse: false },
                Bomb { fuse: false },
                Bomb { fuse: false },
                Bomb { fuse: false },
            ],
        ];
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_task_graph(tasks, 4, |_, _| Ok(()), |_, ()| Ok(()))
        }));
        assert!(result.is_err(), "panic must propagate to the caller");
    }

    #[test]
    fn decomposition_errors_surface_in_input_order() {
        let mut batch = jobs(2, 20, 9);
        batch.insert(1, (AtomGrid::new(9, 9).unwrap(), Rect::new(2, 2, 4, 4)));
        let err = PlanEngine::new(QrmConfig::default())
            .with_workers(4)
            .plan_batch(&batch)
            .unwrap_err();
        assert!(matches!(err, Error::OddDimensions { .. }));
    }

    #[test]
    fn kernel_task_steps_match_run() {
        let batch = jobs(1, 30, 11);
        let (grid, target) = &batch[0];
        let work = decompose(grid, target).unwrap();
        let kernel = ShiftKernel::new(
            KernelConfig::new(work.target_height, work.target_width)
                .with_strategy(QrmConfig::default().strategy)
                .with_max_iterations(QrmConfig::default().max_iterations),
        );
        let pass_pool = Mutex::new(Vec::new());
        for quadrant in &work.quadrants {
            let direct = kernel.run(quadrant).unwrap();
            let mut task = KernelTask {
                state: Some(kernel.start(quadrant).unwrap()),
                kernel: kernel.clone(),
                pass_pool: &pass_pool,
            };
            let mut steps = 0;
            let stepped = loop {
                match task.step().unwrap() {
                    Step::Continue => steps += 1,
                    Step::Done(out) => break out,
                }
            };
            assert_eq!(stepped, direct);
            // One task step per kernel iteration, plus at most one extra
            // step for the terminal fill-check.
            assert!(steps <= direct.iterations, "steps {steps}");
        }
    }
}
