//! Shot-level dataflow scheduling for batched multi-round runs — the
//! round loop under `Pipeline::run`.
//!
//! Every shot keeps a `(round, stage)` cursor and advances through its
//! own
//!
//! ```text
//!            ┌─────────────────────────────────────────────┐
//!            ▼                                             │
//!   ┌─────────────────┐      ┌────────────┐      ┌─────────┴─────┐
//!   │ observe         │ job  │ plan group │ plan │ execute       │
//!   │ (image+detect)  ├─────▶│ (batched)  ├─────▶│ (compile+move)│
//!   └────────┬────────┘      └────────────┘      └───────────────┘
//!            │ None (filled, or out of rounds)
//!            ▼
//!         finished
//! ```
//!
//! chain of pool tasks, each task spawning its successor on the
//! work-stealing pool, so a fast shot can be executing round *k + 1*
//! while a slow shot is still planning round *k*.
//!
//! This is the collaborative-scheduler design of Block-STM–style
//! executors in the easy case: shots are **independent** (disjoint
//! state, per-shot RNG streams, slot-indexed results), so there is
//! nothing to validate and nothing to abort — no shot can read another
//! shot's writes, hence no re-execution machinery, only per-shot
//! progress tracking.
//!
//! # Group formation on readiness
//!
//! Planning stays batched (one task graph per group), but groups are
//! formed by **readiness** instead of by round: the first shot to reach
//! the plan stage spawns one plan-group task and every shot that
//! reaches the stage before that task drains the ready list joins the
//! same group. The drain window is therefore the natural spawn-to-pop
//! latency of the pool — under load, groups grow; when shots trickle
//! in, they plan solo without waiting.
//!
//! # Determinism
//!
//! Group membership varies with scheduling, so determinism rests on the
//! workspace-pinned planner contract: [`plan_batch`] is observationally
//! equal to mapping [`plan`] over the jobs, for every planner. Plans
//! are keyed to their shot (not their group), every shot owns its RNG
//! stream, and results land in per-shot slots — so reports are
//! **bit-identical** for any worker count and any straggler schedule,
//! including the serial inline path. The scheduler's [`DataflowStats`]
//! counters *do* depend on scheduling; they are diagnostics, never
//! inputs.
//!
//! [`plan_batch`]: crate::planner::Planner::plan_batch
//! [`plan`]: crate::planner::Planner::plan

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

use crate::error::Error;

/// One shot's view of a multi-round run, as the scheduler drives it.
///
/// A program alternates [`observe`](ShotProgram::observe) (produce the
/// next planning job, or report completion) and
/// [`execute`](ShotProgram::execute) (apply the plan the group produced
/// for this shot). All mutable per-shot state — occupancy, RNG stream,
/// collected round reports — lives inside the program, which the
/// scheduler hands back when the batch finishes.
pub trait ShotProgram: Send {
    /// The planning input one observation produces.
    type Job: Send;
    /// The plan the group planner returns for one job.
    type Plan: Send;

    /// Advances to the next round's planning input, or `None` when the
    /// shot is finished (target filled or round budget exhausted).
    ///
    /// # Errors
    ///
    /// Propagates the shot's observation failures; an error finishes
    /// the shot and aborts the batch.
    fn observe(&mut self) -> Result<Option<Self::Job>, Error>;

    /// Applies this shot's plan for the round just observed.
    ///
    /// # Errors
    ///
    /// Propagates the shot's execution failures; an error finishes the
    /// shot and aborts the batch.
    fn execute(&mut self, plan: Self::Plan) -> Result<(), Error>;
}

/// Scheduling diagnostics of one dataflow run. Counters describe the
/// *schedule*, not the results: they vary with worker count and timing
/// while the *reports* stay bit-identical.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct DataflowStats {
    /// Pool tasks the scheduler ran (observe + plan-group + execute).
    pub tasks_dispatched: u64,
    /// Plan-group tasks that planned at least one shot.
    pub plan_groups: u64,
    /// Shots planned across all groups (so `planned_shots /
    /// plan_groups` is the mean readiness-window group size).
    pub planned_shots: u64,
    /// Observations that started round *r* while some other live shot
    /// was still below round *r*.
    pub rounds_overlapped: u64,
    /// Largest round gap observed between the fastest and the slowest
    /// live shot.
    pub max_shot_lag: u64,
}

impl DataflowStats {
    /// Accumulates another run's counters into this one (sums, except
    /// `max_shot_lag` which takes the maximum).
    pub fn absorb(&mut self, other: &DataflowStats) {
        self.tasks_dispatched += other.tasks_dispatched;
        self.plan_groups += other.plan_groups;
        self.planned_shots += other.planned_shots;
        self.rounds_overlapped += other.rounds_overlapped;
        self.max_shot_lag = self.max_shot_lag.max(other.max_shot_lag);
    }
}

/// The shot-level dataflow scheduler: drives a batch of
/// [`ShotProgram`]s to completion with per-shot progress tracking,
/// batching planning by readiness.
#[derive(Debug, Clone, Copy)]
pub struct ShotScheduler {
    workers: usize,
}

impl ShotScheduler {
    /// Creates a scheduler. `workers <= 1` (or a batch of at most one
    /// shot) runs the serial inline path — shot by shot, in index
    /// order, planning singleton groups — which is also the reference
    /// schedule the parallel path must reproduce bit-identically.
    pub fn new(workers: usize) -> Self {
        ShotScheduler { workers }
    }

    /// The configured worker count.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Runs every shot to completion, returning the programs (in input
    /// order, carrying their accumulated results) and the schedule's
    /// diagnostics.
    ///
    /// `plan_group` plans a ready group's jobs, returning plans in job
    /// order; it must be observationally equal to planning each job
    /// alone (the workspace planner contract), which is what makes
    /// group membership — and therefore the whole schedule — invisible
    /// in the results.
    ///
    /// # Errors
    ///
    /// Returns the first error by shot index among the failures the
    /// schedule observed, and stops dispatching further work as soon as
    /// any failure is recorded. A plan-group failure is attributed to
    /// the lowest-indexed shot in the group. (Which shot gets to fail
    /// first can depend on the schedule; the inline path fails on the
    /// lowest-indexed failing shot's earliest round.)
    ///
    /// # Panics
    ///
    /// Panics if `plan_group` returns a plan count different from its
    /// job count — a planner-contract violation, not a recoverable
    /// condition.
    pub fn run<S, F>(&self, shots: Vec<S>, plan_group: F) -> Result<(Vec<S>, DataflowStats), Error>
    where
        S: ShotProgram,
        F: Fn(&[S::Job]) -> Result<Vec<S::Plan>, Error> + Sync,
    {
        if self.workers <= 1 || shots.len() <= 1 {
            run_inline(shots, plan_group)
        } else {
            run_parallel(shots, plan_group)
        }
    }
}

/// The serial reference schedule: each shot runs to completion in index
/// order, planning singleton groups.
fn run_inline<S, F>(mut shots: Vec<S>, plan_group: F) -> Result<(Vec<S>, DataflowStats), Error>
where
    S: ShotProgram,
    F: Fn(&[S::Job]) -> Result<Vec<S::Plan>, Error>,
{
    let mut stats = DataflowStats::default();
    for shot in &mut shots {
        loop {
            stats.tasks_dispatched += 1;
            let Some(job) = shot.observe()? else { break };
            stats.tasks_dispatched += 1;
            stats.plan_groups += 1;
            stats.planned_shots += 1;
            let mut plans = plan_group(std::slice::from_ref(&job))?;
            assert_eq!(
                plans.len(),
                1,
                "plan_group returned {} plans for 1 job",
                plans.len()
            );
            let plan = plans.pop().expect("singleton plan group");
            stats.tasks_dispatched += 1;
            shot.execute(plan)?;
        }
    }
    Ok((shots, stats))
}

/// Mutable scheduler state shared by all in-flight tasks (one short
/// critical section per task).
struct FlowState<J> {
    /// Shots that reached the plan stage and wait for the next
    /// plan-group task to drain them.
    plan_ready: Vec<(usize, J)>,
    /// Whether a plan-group task is already spawned and will drain
    /// `plan_ready`; kept true from spawn to drain so each group task
    /// collects everything that arrived in its spawn-to-pop window.
    plan_pending: bool,
    /// Rounds started (observations dispatched) per shot.
    cursor: Vec<u64>,
    /// Shots that finished (completed, or failed).
    done: Vec<bool>,
    stats: DataflowStats,
}

/// The parallel run's shared environment: per-shot program slots, the
/// group-formation state, and the first-error slot.
struct Flow<S: ShotProgram, F> {
    /// Each shot's program parks here between its tasks; the chain
    /// structure guarantees at most one task touches a slot at a time,
    /// the mutex makes the hand-off `Sync`.
    slots: Vec<Mutex<Option<S>>>,
    plan_group: F,
    state: Mutex<FlowState<S::Job>>,
    /// Lowest-shot-index error observed so far.
    first_error: Mutex<Option<(usize, Error)>>,
    /// Raised on the first error: later tasks return without working,
    /// so the batch drains quickly instead of finishing doomed rounds.
    aborted: AtomicBool,
}

impl<S, F> Flow<S, F>
where
    S: ShotProgram,
    F: Fn(&[S::Job]) -> Result<Vec<S::Plan>, Error> + Sync,
{
    fn state(&self) -> std::sync::MutexGuard<'_, FlowState<S::Job>> {
        self.state.lock().expect("dataflow state poisoned")
    }

    fn record_error(&self, shot: usize, error: Error) {
        self.aborted.store(true, Ordering::Relaxed);
        let mut first = self
            .first_error
            .lock()
            .expect("dataflow error slot poisoned");
        match &*first {
            Some((lowest, _)) if *lowest <= shot => {}
            _ => *first = Some((shot, error)),
        }
    }

    fn finish_shot(&self, shot: usize) {
        self.state().done[shot] = true;
    }

    /// Observe stage: advance the shot's cursor (recording overlap/lag
    /// against the slowest live shot), run the observation, and either
    /// finish the shot or enqueue its job for group planning.
    fn observe_task<'s, 'e>(&'s self, scope: &rayon::Scope<'s, 'e>, shot: usize)
    where
        S::Plan: 's,
    {
        if self.aborted.load(Ordering::Relaxed) {
            return;
        }
        {
            let mut state = self.state();
            state.stats.tasks_dispatched += 1;
            let round = state.cursor[shot];
            let slowest = (0..state.cursor.len())
                .filter(|&i| i != shot && !state.done[i])
                .map(|i| state.cursor[i])
                .min();
            if let Some(slowest) = slowest {
                if round > slowest {
                    state.stats.rounds_overlapped += 1;
                    let lag = round - slowest;
                    state.stats.max_shot_lag = state.stats.max_shot_lag.max(lag);
                }
            }
            state.cursor[shot] += 1;
        }
        let mut slot = self.slots[shot]
            .lock()
            .expect("dataflow shot slot poisoned");
        let program = slot.as_mut().expect("shot program parked in its slot");
        match program.observe() {
            Err(error) => {
                drop(slot);
                self.finish_shot(shot);
                self.record_error(shot, error);
            }
            Ok(None) => {
                drop(slot);
                self.finish_shot(shot);
            }
            Ok(Some(job)) => {
                drop(slot);
                let spawn_group = {
                    let mut state = self.state();
                    state.plan_ready.push((shot, job));
                    !std::mem::replace(&mut state.plan_pending, true)
                };
                if spawn_group {
                    scope.spawn(move |scope| self.plan_task(scope));
                }
            }
        }
    }

    /// Plan stage: drain every shot that became ready since this task
    /// was spawned, plan them as one group (lowest shot index first),
    /// and fan the plans back out as per-shot execute tasks.
    fn plan_task<'s, 'e>(&'s self, scope: &rayon::Scope<'s, 'e>)
    where
        S::Plan: 's,
    {
        let mut group = {
            let mut state = self.state();
            state.stats.tasks_dispatched += 1;
            state.plan_pending = false;
            std::mem::take(&mut state.plan_ready)
        };
        if group.is_empty() || self.aborted.load(Ordering::Relaxed) {
            return;
        }
        group.sort_unstable_by_key(|(shot, _)| *shot);
        let lead = group[0].0;
        let (ids, jobs): (Vec<usize>, Vec<S::Job>) = group.into_iter().unzip();
        {
            let mut state = self.state();
            state.stats.plan_groups += 1;
            state.stats.planned_shots += ids.len() as u64;
        }
        match (self.plan_group)(&jobs) {
            Err(error) => self.record_error(lead, error),
            Ok(plans) => {
                assert_eq!(
                    plans.len(),
                    ids.len(),
                    "plan_group returned {} plans for {} jobs",
                    plans.len(),
                    ids.len()
                );
                for (shot, plan) in ids.into_iter().zip(plans) {
                    scope.spawn(move |scope| self.execute_task(scope, shot, plan));
                }
            }
        }
    }

    /// Execute stage: apply the shot's plan and chain the next round's
    /// observation.
    fn execute_task<'s, 'e>(&'s self, scope: &rayon::Scope<'s, 'e>, shot: usize, plan: S::Plan)
    where
        S::Plan: 's,
    {
        if self.aborted.load(Ordering::Relaxed) {
            return;
        }
        self.state().stats.tasks_dispatched += 1;
        let mut slot = self.slots[shot]
            .lock()
            .expect("dataflow shot slot poisoned");
        let program = slot.as_mut().expect("shot program parked in its slot");
        match program.execute(plan) {
            Err(error) => {
                drop(slot);
                self.finish_shot(shot);
                self.record_error(shot, error);
            }
            Ok(()) => {
                drop(slot);
                scope.spawn(move |scope| self.observe_task(scope, shot));
            }
        }
    }
}

/// The work-stealing schedule: one task chain per shot on the
/// process-global pool, plan groups formed by readiness.
fn run_parallel<S, F>(shots: Vec<S>, plan_group: F) -> Result<(Vec<S>, DataflowStats), Error>
where
    S: ShotProgram,
    F: Fn(&[S::Job]) -> Result<Vec<S::Plan>, Error> + Sync,
{
    let count = shots.len();
    let flow = Flow {
        slots: shots.into_iter().map(|s| Mutex::new(Some(s))).collect(),
        plan_group,
        state: Mutex::new(FlowState {
            plan_ready: Vec::new(),
            plan_pending: false,
            cursor: vec![0; count],
            done: vec![false; count],
            stats: DataflowStats::default(),
        }),
        first_error: Mutex::new(None),
        aborted: AtomicBool::new(false),
    };
    // Seed one chain per shot; from here on every task spawns its own
    // successor and the pool's deques are the ready queue. The scope
    // guarantees all chains have drained before we collect results, and
    // the calling thread helps run tasks while it waits.
    rayon::scope(|scope| {
        let flow = &flow;
        for shot in 0..count {
            scope.spawn(move |scope| flow.observe_task(scope, shot));
        }
    });
    if let Some((_, error)) = flow
        .first_error
        .into_inner()
        .expect("dataflow error slot poisoned")
    {
        return Err(error);
    }
    let stats = flow
        .state
        .into_inner()
        .expect("dataflow state poisoned")
        .stats;
    let shots = flow
        .slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("dataflow shot slot poisoned")
                .expect("every shot program returned to its slot")
        })
        .collect();
    Ok((shots, stats))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A shot that "plans" by echoing its job and counts rounds; the
    /// job carries (shot id, round) so plans are checkable.
    struct Counting {
        id: usize,
        rounds: usize,
        budget: usize,
        log: Vec<(usize, usize)>,
    }

    impl ShotProgram for Counting {
        type Job = (usize, usize);
        type Plan = (usize, usize);

        fn observe(&mut self) -> Result<Option<(usize, usize)>, Error> {
            if self.rounds == self.budget {
                return Ok(None);
            }
            Ok(Some((self.id, self.rounds)))
        }

        fn execute(&mut self, plan: (usize, usize)) -> Result<(), Error> {
            assert_eq!(plan, (self.id, self.rounds), "plan routed to wrong shot");
            self.log.push(plan);
            self.rounds += 1;
            Ok(())
        }
    }

    fn counting_batch(budgets: &[usize]) -> Vec<Counting> {
        budgets
            .iter()
            .enumerate()
            .map(|(id, &budget)| Counting {
                id,
                rounds: 0,
                budget,
                log: Vec::new(),
            })
            .collect()
    }

    fn echo(jobs: &[(usize, usize)]) -> Result<Vec<(usize, usize)>, Error> {
        Ok(jobs.to_vec())
    }

    #[test]
    fn every_shot_runs_its_budget_in_order_for_any_worker_count() {
        let budgets = [3usize, 0, 5, 1, 2];
        for workers in [1, 2, 4, 8] {
            let scheduler = ShotScheduler::new(workers);
            let (shots, stats) = scheduler.run(counting_batch(&budgets), echo).unwrap();
            for (id, shot) in shots.iter().enumerate() {
                assert_eq!(shot.rounds, budgets[id], "workers {workers}");
                let expected: Vec<(usize, usize)> = (0..budgets[id]).map(|r| (id, r)).collect();
                assert_eq!(shot.log, expected, "workers {workers}");
            }
            let total: u64 = budgets.iter().map(|&b| b as u64).sum();
            assert_eq!(stats.planned_shots, total, "workers {workers}");
            assert!(stats.plan_groups <= total);
            assert!(stats.tasks_dispatched >= total);
        }
    }

    #[test]
    fn inline_path_counts_singleton_groups() {
        let (_, stats) = ShotScheduler::new(1)
            .run(counting_batch(&[2, 1]), echo)
            .unwrap();
        assert_eq!(stats.plan_groups, 3);
        assert_eq!(stats.planned_shots, 3);
        // observe per round + final None-observe, plan, execute.
        assert_eq!(stats.tasks_dispatched, 3 * 3 + 2);
        assert_eq!(stats.rounds_overlapped, 0);
        assert_eq!(stats.max_shot_lag, 0);
    }

    #[test]
    fn plan_errors_surface_and_abort() {
        #[derive(Debug)]
        struct Failing;
        impl ShotProgram for Failing {
            type Job = ();
            type Plan = ();
            fn observe(&mut self) -> Result<Option<()>, Error> {
                Ok(Some(()))
            }
            fn execute(&mut self, _plan: ()) -> Result<(), Error> {
                Ok(())
            }
        }
        for workers in [1, 4] {
            let shots = vec![Failing, Failing, Failing];
            let err = ShotScheduler::new(workers)
                .run(shots, |_jobs: &[()]| {
                    Err::<Vec<()>, Error>(Error::InvalidTarget {
                        reason: "group planning rejected",
                    })
                })
                .unwrap_err();
            assert!(
                matches!(err, Error::InvalidTarget { .. }),
                "workers {workers}"
            );
        }
    }

    #[test]
    fn stats_absorb_sums_and_maxes() {
        let mut total = DataflowStats {
            tasks_dispatched: 10,
            plan_groups: 2,
            planned_shots: 4,
            rounds_overlapped: 1,
            max_shot_lag: 2,
        };
        total.absorb(&DataflowStats {
            tasks_dispatched: 5,
            plan_groups: 1,
            planned_shots: 2,
            rounds_overlapped: 3,
            max_shot_lag: 1,
        });
        assert_eq!(total.tasks_dispatched, 15);
        assert_eq!(total.plan_groups, 3);
        assert_eq!(total.planned_shots, 6);
        assert_eq!(total.rounds_overlapped, 4);
        assert_eq!(total.max_shot_lag, 2);
    }
}
