//! The parallel planning engine: one pool job per quadrant kernel.
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
//!   │kern││kern││kern││kern│        │kern││kern││kern││kern│   jobs (one
//!   └──┬─┘└──┬─┘└──┬─┘└──┬─┘        └──┬─┘└──┬─┘└──┬─┘└──┬─┘   whole kernel
//!      │     │     │     │             │     │     │     │     run each)
//!      └──┬──┴──┬──┴─────┘             └──┬──┴──┬──┴─────┘
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
//! and [`run_task_graph`] spawns the quadrant jobs of **all shots in a
//! batch** into one `rayon::scope` on the work-stealing pool, so idle
//! workers steal kernels across the whole batch. Each job runs its
//! kernel to completion; the job that finishes a shot's fourth quadrant
//! merges and validates that shot, so merges of early shots overlap
//! quadrant work of later shots.
//!
//! ## The persistent worker pool
//!
//! Quadrant jobs run on the **process-global persistent thread pool**
//! (`rayon::ThreadPool`): OS threads are spawned exactly once, lazily,
//! and every later `plan_batch`/`run_task_graph` call only enqueues
//! jobs onto them — `rayon::global_pool_stats()` exposes the spawn
//! counter the reuse tests assert stays flat. Two paths skip the pool
//! entirely:
//!
//! * `workers <= 1` (including every run on a single-core host under the
//!   automatic policy) executes the graph **inline** on the calling
//!   thread in input order, with zero queueing overhead;
//! * an empty batch returns immediately.
//!
//! Planning allocates. A one-shot 50x50 `plan_batch` under
//! [`QrmConfig::paper`] makes about 200 heap allocations (counted with a
//! counting global allocator at `workers` 1, mean over the 128 seed-1
//! shots of the `analysis-50` workload at 55 % load):
//!
//! * about one per emitted move in the merge (its tone buffer; ≈145
//!   moves) plus a constant ≈12 buffers per call, a budget
//!   `crates/core/tests/merge_alloc.rs` pins;
//! * 9 to 14 in each of the four quadrant kernels: each pass's one
//!   wave-mask buffer, and a constant set per run (the working grid and
//!   its transposed planes, the reused row windows, one buffer shared by
//!   the window masks and the plane scratch, the pass list), a per-pass
//!   budget the same test file pins;
//! * the rest in decomposition and validation (the four quadrant grids,
//!   the plan).
//!
//! The same test file pins the whole: at most one allocation per move
//! plus 62 for each of those shots.
//!
//! ## Determinism
//!
//! Parallel execution is **bit-identical** to serial planning: quadrant
//! kernels are pure functions of their canonical quadrant grid, results
//! land in slots indexed by `(shot, quadrant)`, and each merge consumes
//! its four outcomes in [`QuadrantId::ALL`](crate::geometry::QuadrantId)
//! order — thread interleaving can change *when* a job runs, never
//! *what* it computes. The integration suite asserts schedule, predicted
//! grid, and iteration counts match the serial path exactly.
//!
//! ## Sharing with the FPGA model
//!
//! [`decompose`] is the single source of the quadrant decomposition
//! (map, per-quadrant target extent, canonical quadrant grids), and
//! [`plan_shots`] the single batch body. The software scheduler and the
//! accelerator model in `qrm-fpga` both plan through it, each with its
//! own kernel configuration: the accelerator's is the kernel in its
//! static-iterations mode, whose passes its pipelined shift unit
//! reproduces bit for bit. So hardware and software plans cannot drift
//! apart. The accelerator's cycles come from a closed form of its
//! static pass schedule, not from the task graph.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;

use crate::error::Error;
use crate::geometry::Rect;
use crate::grid::AtomGrid;
use crate::kernel::{KernelConfig, KernelOutcome, ShiftKernel};
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
    /// [`QuadrantId::ALL`](crate::geometry::QuadrantId::ALL) order.
    pub quadrants: [AtomGrid; 4],
}

/// Splits `grid` into the canonical quadrant decomposition for a centred
/// `target`.
///
/// # Errors
///
/// Returns [`Error::OddDimensions`] / [`Error::InvalidTarget`] for
/// arrays and targets QRM cannot decompose.
pub fn decompose(grid: &AtomGrid, target: &Rect) -> Result<QuadrantWork, Error> {
    let map = QuadrantMap::new(grid.height(), grid.width())?;
    let (target_height, target_width) = map.quadrant_target(target)?;
    let quadrants = map.split(grid)?;
    Ok(QuadrantWork {
        map,
        target_height,
        target_width,
        quadrants,
    })
}

/// One decomposed shot of a batch: the borrowed inputs plus their
/// quadrant decomposition. Produced by [`decompose_batch`] (or built
/// around one [`decompose`]) and planned by [`plan_shots`].
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
    jobs.iter()
        .map(|(grid, target)| {
            Ok(BatchShot {
                grid,
                target,
                work: decompose(grid, target)?,
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
/// iteration aggregation.
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
/// construction.
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

/// Plans decomposed shots on the task graph and returns the plans in
/// input order. Each quadrant job runs a [`ShiftKernel`] under the
/// configuration `kernel` gives for its shot's decomposition, and each
/// shot's four outcomes go through [`assemble_plan`]. `workers` follows
/// [`run_task_graph`]: `1` plans inline, in input order.
///
/// This is the one batch body of the QRM planners: the software
/// scheduler passes [`kernel_config_for`], the FPGA model the same
/// kernel with static iterations.
///
/// # Errors
///
/// Returns kernel and merge errors as [`run_task_graph`] orders them.
pub fn plan_shots<K>(
    shots: &[BatchShot<'_>],
    workers: usize,
    kernel: K,
    merge_cfg: &MergeConfig,
) -> Result<Vec<Plan>, Error>
where
    K: Fn(&QuadrantWork) -> KernelConfig + Sync,
{
    run_task_graph(
        shots.len(),
        workers,
        |i, q| {
            let work = &shots[i].work;
            ShiftKernel::new(kernel(work)).run(&work.quadrants[q])
        },
        |i, outcomes| {
            let BatchShot { grid, target, work } = &shots[i];
            assemble_plan(grid, target, &work.map, &outcomes, merge_cfg)
        },
    )
}

/// One shot's slot in [`run_task_graph`]: a quadrant job writes its
/// outcome into its own cell, and the job that brings `quadrants_left`
/// to zero takes all four and assembles the shot's result.
struct ShotSlot<T, O> {
    outcomes: [Mutex<Option<T>>; 4],
    quadrants_left: AtomicUsize,
    result: Mutex<Option<O>>,
}

impl<T, O> ShotSlot<T, O> {
    fn new() -> Self {
        ShotSlot {
            outcomes: std::array::from_fn(|_| Mutex::new(None)),
            quadrants_left: AtomicUsize::new(4),
            result: Mutex::new(None),
        }
    }
}

/// Executes a batch of quadrant task graphs and returns the per-shot
/// results in input order.
///
/// `quadrant(shot, q)` computes the outcome of quadrant `q` (an index
/// into [`QuadrantId::ALL`](crate::geometry::QuadrantId::ALL)) of shot
/// `shot`. Once a shot's four outcomes exist, `assemble(shot, outcomes)`
/// merges and validates them, receiving the outcomes in
/// `QuadrantId::ALL` order.
///
/// With `workers <= 1` the graph is executed inline in input order with
/// zero thread overhead. Otherwise one `rayon::scope` spawns one job per
/// `(shot, quadrant)` onto the persistent global pool (no OS threads are
/// spawned after pool initialisation); the job that completes a shot's
/// fourth quadrant runs that shot's `assemble`. The result is
/// bit-identical either way (see the module docs). A panic in either
/// closure propagates to the caller once the scope's other jobs finish.
///
/// # Errors
///
/// A `quadrant` or `assemble` error aborts the batch: jobs that have
/// not started yet are skipped. Among the errors observed, the one with
/// the **lowest shot index** is returned; with `workers <= 1` that is
/// exactly the first error in input order, while parallel jobs may have
/// already passed an earlier shot that would have failed.
pub fn run_task_graph<T, O, FQ, FA>(
    shots: usize,
    workers: usize,
    quadrant: FQ,
    assemble: FA,
) -> Result<Vec<O>, Error>
where
    T: Send,
    O: Send,
    FQ: Fn(usize, usize) -> Result<T, Error> + Sync,
    FA: Fn(usize, [T; 4]) -> Result<O, Error> + Sync,
{
    if workers <= 1 || shots == 0 {
        return (0..shots)
            .map(|shot| {
                let outcomes = [
                    quadrant(shot, 0)?,
                    quadrant(shot, 1)?,
                    quadrant(shot, 2)?,
                    quadrant(shot, 3)?,
                ];
                assemble(shot, outcomes)
            })
            .collect();
    }

    let slots: Vec<ShotSlot<T, O>> = (0..shots).map(|_| ShotSlot::new()).collect();
    let aborted = AtomicBool::new(false);
    let first_error: Mutex<Option<(usize, Error)>> = Mutex::new(None);

    let run_quadrant = |shot: usize, q: usize| -> Result<(), Error> {
        let slot = &slots[shot];
        let outcome = quadrant(shot, q)?;
        *slot.outcomes[q]
            .lock()
            .expect("engine outcome slot poisoned") = Some(outcome);
        // Release publishes this job's outcome; the Acquire half lets the
        // job that reads zero see all four.
        if slot.quadrants_left.fetch_sub(1, Ordering::AcqRel) == 1 {
            let outcomes = slot.outcomes.each_ref().map(|cell| {
                cell.lock()
                    .expect("engine outcome slot poisoned")
                    .take()
                    .expect("countdown hit zero with every quadrant stored")
            });
            let result = assemble(shot, outcomes)?;
            *slot.result.lock().expect("engine result slot poisoned") = Some(result);
        }
        Ok(())
    };

    let job = |shot: usize, q: usize| {
        // The flag only skips work; the error slot's mutex orders the
        // errors themselves.
        if aborted.load(Ordering::Relaxed) {
            return;
        }
        if let Err(err) = run_quadrant(shot, q) {
            aborted.store(true, Ordering::Relaxed);
            let mut first = first_error.lock().expect("engine error slot poisoned");
            if first.as_ref().is_none_or(|(held, _)| shot < *held) {
                *first = Some((shot, err));
            }
        }
    };

    rayon::scope(|scope| {
        let job = &job;
        for shot in 0..shots {
            for q in 0..4 {
                scope.spawn(move |_| job(shot, q));
            }
        }
    });

    if let Some((_, err)) = first_error
        .into_inner()
        .expect("engine error slot poisoned")
    {
        return Err(err);
    }
    Ok(slots
        .into_iter()
        .map(|slot| {
            slot.result
                .into_inner()
                .expect("engine result slot poisoned")
                .expect("every shot assembled")
        })
        .collect())
}

/// The engine's worker-count policy: `configured == 0` means "one
/// worker per available core", and any count is capped by the number of
/// quadrant jobs in the batch. [`run_task_graph`] runs inline when the
/// result is 1 and on the pool otherwise. Exposed so every batched
/// consumer (the two QRM planners around [`plan_shots`], the pipeline's
/// shot scheduler) resolves workers identically.
pub fn resolve_workers(configured: usize, shots: usize) -> usize {
    let max_useful = shots.saturating_mul(4).max(1);
    if configured == 0 {
        rayon::current_num_threads().min(max_useful)
    } else {
        configured.min(max_useful)
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
            let scheduler = QrmScheduler::new(QrmConfig::default()).with_workers(workers);
            let got = scheduler.plan_batch(&batch).unwrap();
            assert_eq!(got, expected, "workers = {workers}");
        }
    }

    #[test]
    fn empty_batch_is_fine() {
        let scheduler = QrmScheduler::new(QrmConfig::default());
        assert!(scheduler.plan_batch(&[]).unwrap().is_empty());
    }

    #[test]
    fn panicking_task_propagates_instead_of_hanging() {
        // A panic unwinding out of a quadrant job (e.g. a debug assertion
        // in kernel code) must reach the caller once the scope's other
        // jobs finish — not deadlock the worker pool.
        let result = std::panic::catch_unwind(|| {
            run_task_graph(
                2,
                4,
                |shot, q| {
                    assert!((shot, q) != (0, 1), "task exploded");
                    Ok(())
                },
                |_, _| Ok(()),
            )
        });
        assert!(result.is_err(), "panic must propagate to the caller");
    }

    #[test]
    fn failing_quadrant_aborts_the_batch_with_its_error() {
        // Shots 1 and 3 fail with distinct errors. Inline, the first in
        // input order wins; in parallel either may be observed first, and
        // the batch still ends with an error rather than partial results.
        let fail = |shot: usize, _q: usize| match shot {
            1 => Err(Error::OddDimensions {
                width: 1,
                height: 1,
            }),
            3 => Err(Error::EmptyGrid),
            _ => Ok(shot),
        };
        let assemble = |_: usize, outcomes: [usize; 4]| Ok(outcomes);
        let inline = run_task_graph(5, 1, fail, assemble).unwrap_err();
        assert!(matches!(inline, Error::OddDimensions { .. }));
        for workers in [2, 4] {
            let err = run_task_graph(5, workers, fail, assemble).unwrap_err();
            assert!(
                matches!(err, Error::OddDimensions { .. } | Error::EmptyGrid),
                "workers = {workers}: {err:?}"
            );
        }
    }

    #[test]
    fn decomposition_errors_surface_in_input_order() {
        let mut batch = jobs(2, 20, 9);
        batch.insert(1, (AtomGrid::new(9, 9).unwrap(), Rect::new(2, 2, 4, 4)));
        let err = QrmScheduler::new(QrmConfig::default())
            .with_workers(4)
            .plan_batch(&batch)
            .unwrap_err();
        assert!(matches!(err, Error::OddDimensions { .. }));
    }
}
