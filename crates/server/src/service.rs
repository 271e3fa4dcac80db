//! The long-lived planning service: registry, admission gate, and the
//! concurrent submit path.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::Instant;

use qrm_core::planner::Planner;
use qrm_core::trace::ShotTrace;

use qrm_control::pipeline::{Pipeline, PipelineConfig, PlannerChoice};

use crate::cache::ResponseCache;
use crate::request::{BatchReport, ServiceError, SubmitBatch};
use crate::stats::{LatencyHistogram, NetStats, PlannerStats, SchedulerTotals, ServiceStats};

/// Service-level configuration (everything *not* per-planner).
#[derive(Debug, Clone, Copy, Default)]
pub struct ServiceConfig {
    /// Maximum submissions planning concurrently; further submissions
    /// queue (blocking their calling thread) until a slot frees.
    /// `0` (the default) means unlimited — every submission is admitted
    /// immediately and only the worker pool itself limits parallelism.
    pub max_inflight: usize,
    /// Byte budget of the content-addressed response cache. `0` (the
    /// default) disables caching entirely.
    pub cache_bytes: usize,
    /// Maximum total recorded events a single traced submission may
    /// return; a traced batch exceeding it fails with
    /// [`ServiceError::TraceTooLarge`] (`trace_too_large` on the wire).
    /// `0` (the default) means [`DEFAULT_TRACE_EVENT_CAP`].
    pub trace_event_cap: usize,
}

/// Default cap on the total events of a traced submission (~1M events;
/// tens of MB of JSON) — generous for demos and debugging, small enough
/// that a hostile spec cannot make the service assemble an unbounded
/// response body.
pub const DEFAULT_TRACE_EVENT_CAP: usize = 1 << 20;

/// One registered planner: its long-lived resolved instance, the
/// pipeline configured around it, and its serving counters.
struct Registration {
    pipeline: Pipeline,
    /// Resolved **once** at registration; every submission plans through
    /// this same instance, so its internal context pool stays warm
    /// across batches and across concurrent callers ([`Planner`] is
    /// `Send + Sync` by contract).
    planner: Box<dyn Planner>,
    batches: AtomicU64,
    shots: AtomicU64,
    latency: Mutex<LatencyHistogram>,
}

/// Builds a [`PlanService`]: registrations are declared up front, then
/// frozen, so the serving registry needs no locking at all.
#[derive(Default)]
pub struct PlanServiceBuilder {
    config: ServiceConfig,
    regs: BTreeMap<String, Registration>,
}

impl std::fmt::Debug for PlanServiceBuilder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PlanServiceBuilder")
            .field("config", &self.config)
            .field("registrations", &self.regs.keys().collect::<Vec<_>>())
            .finish()
    }
}

impl PlanServiceBuilder {
    /// Caps concurrent planning at `max_inflight` submissions (`0` =
    /// unlimited, the default).
    #[must_use]
    pub fn max_inflight(mut self, max_inflight: usize) -> Self {
        self.config.max_inflight = max_inflight;
        self
    }

    /// Enables the content-addressed response cache with the given byte
    /// budget (`0` = disabled, the default). Because a spec fully
    /// determines its report payload, hits return payloads
    /// byte-identical to a recompute — and they **bypass the admission
    /// gate entirely**, so a cached answer is never queued behind
    /// planning work.
    #[must_use]
    pub fn cache_bytes(mut self, cache_bytes: usize) -> Self {
        self.config.cache_bytes = cache_bytes;
        self
    }

    /// Caps the total recorded events of one traced submission (`0` =
    /// [`DEFAULT_TRACE_EVENT_CAP`]).
    #[must_use]
    pub fn trace_event_cap(mut self, trace_event_cap: usize) -> Self {
        self.config.trace_event_cap = trace_event_cap;
        self
    }

    /// Registers `choice` under `name` with an explicitly configured
    /// pipeline (imaging, loss, rounds, workers…). The planner is
    /// resolved immediately at the pipeline's worker count —
    /// construction cost is paid here, never on the submit path.
    /// Registering an existing name replaces it.
    #[must_use]
    pub fn register(
        mut self,
        name: impl Into<String>,
        choice: PlannerChoice,
        pipeline: PipelineConfig,
    ) -> Self {
        let planner = choice.resolve(pipeline.workers);
        self.regs.insert(
            name.into(),
            Registration {
                pipeline: Pipeline::new(pipeline),
                planner,
                batches: AtomicU64::new(0),
                shots: AtomicU64::new(0),
                latency: Mutex::new(LatencyHistogram::new()),
            },
        );
        self
    }

    /// [`register`](Self::register) with a default pipeline at the
    /// given batch worker count.
    #[must_use]
    pub fn register_default(
        self,
        name: impl Into<String>,
        choice: PlannerChoice,
        workers: usize,
    ) -> Self {
        let pipeline = PipelineConfig {
            workers,
            ..PipelineConfig::default()
        };
        self.register(name, choice, pipeline)
    }

    /// Freezes the registry and starts the service clock: pool counters
    /// reported by [`PlanService::stats`] are deltas from this moment.
    pub fn build(self) -> PlanService {
        PlanService {
            regs: self.regs,
            gate: Gate::new(self.config.max_inflight),
            cache: ResponseCache::new(self.config.cache_bytes),
            trace_event_cap: match self.config.trace_event_cap {
                0 => DEFAULT_TRACE_EVENT_CAP,
                cap => cap,
            },
            batches_served: AtomicU64::new(0),
            shots_served: AtomicU64::new(0),
            scheduler: Mutex::new(SchedulerTotals::default()),
            pool_baseline: rayon::global_pool_stats(),
        }
    }
}

/// The admission gate: a counting semaphore with **strict FIFO**
/// admission, queue-depth, and high-water-mark accounting.
///
/// Every arrival takes a monotonically increasing ticket and waits
/// until the slot count allows it *and* its ticket is first in line.
/// (An earlier revision only waited on the slot count, so an arrival
/// that raced a slot release could barge past submissions that had
/// been queued for ages — with small batches, a steady stream of
/// newcomers could starve a queued waiter indefinitely. Tickets make
/// admission order arrival order, and the `queued`/`scheduler` fields
/// of `GET /v1/stats` make any residual waiting observable.)
struct Gate {
    max_inflight: usize,
    state: Mutex<GateState>,
    ready: Condvar,
}

#[derive(Default)]
struct GateState {
    inflight: usize,
    queued: usize,
    peak_inflight: usize,
    peak_queued: usize,
    /// Next ticket to hand to an arriving submission.
    next_ticket: u64,
    /// The ticket currently first in line for admission.
    admit_ticket: u64,
}

impl Gate {
    fn new(max_inflight: usize) -> Self {
        Gate {
            max_inflight,
            state: Mutex::new(GateState::default()),
            ready: Condvar::new(),
        }
    }

    fn lock(&self) -> MutexGuard<'_, GateState> {
        self.state.lock().expect("service gate poisoned")
    }

    /// Blocks until every earlier arrival has been admitted and a slot
    /// is free, then occupies the slot for the lifetime of the returned
    /// permit.
    fn admit(&self) -> Permit<'_> {
        let mut state = self.lock();
        if self.max_inflight != 0 {
            let ticket = state.next_ticket;
            state.next_ticket += 1;
            if state.inflight >= self.max_inflight || state.admit_ticket != ticket {
                state.queued += 1;
                state.peak_queued = state.peak_queued.max(state.queued);
                while state.inflight >= self.max_inflight || state.admit_ticket != ticket {
                    state = self.ready.wait(state).expect("service gate poisoned");
                }
                state.queued -= 1;
            }
            state.admit_ticket += 1;
        }
        state.inflight += 1;
        state.peak_inflight = state.peak_inflight.max(state.inflight);
        Permit { gate: self }
    }
}

/// RAII admission slot; dropping it (success *or* error/panic on the
/// submit path) frees the slot and wakes the queued submissions so the
/// holder of the next ticket can take it. (`notify_all`, not
/// `notify_one`: only one *specific* waiter — the next ticket — may
/// proceed, and a single wake could land on any of them.)
struct Permit<'a> {
    gate: &'a Gate,
}

impl Drop for Permit<'_> {
    fn drop(&mut self) {
        let mut state = self.gate.lock();
        state.inflight -= 1;
        drop(state);
        self.gate.ready.notify_all();
    }
}

/// The long-lived, in-process planning service.
///
/// Owns one resolved planner (and one configured [`Pipeline`]) per
/// registration, accepts [`SubmitBatch`] requests from any number of
/// threads through [`submit`](Self::submit) (`&self` — share it behind
/// an `Arc` or `std::thread::scope`), runs them on the process-global
/// worker pool through the warm context pool of each planner, and
/// aggregates serving stats ([`stats`](Self::stats)).
///
/// Determinism contract: a submission's [`BatchReport::reports`] is
/// bit-identical to running the spec's workload directly through
/// [`Pipeline::run`] with the same configuration, at any pool size and
/// under any submission concurrency. See `tests/service.rs`.
pub struct PlanService {
    regs: BTreeMap<String, Registration>,
    gate: Gate,
    /// Content-addressed response cache; disabled (zero budget) unless
    /// [`PlanServiceBuilder::cache_bytes`] opted in.
    cache: ResponseCache,
    /// Resolved event cap for traced submissions (never zero).
    trace_event_cap: usize,
    batches_served: AtomicU64,
    shots_served: AtomicU64,
    /// Lifetime dataflow-scheduler totals, folded in per batch under a
    /// short lock on the submit path.
    scheduler: Mutex<SchedulerTotals>,
    pool_baseline: rayon::PoolStats,
}

impl std::fmt::Debug for PlanService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PlanService")
            .field("registrations", &self.regs.keys().collect::<Vec<_>>())
            .field(
                "batches_served",
                &self.batches_served.load(Ordering::Relaxed),
            )
            .finish_non_exhaustive()
    }
}

impl PlanService {
    /// Starts building a service.
    pub fn builder() -> PlanServiceBuilder {
        PlanServiceBuilder::default()
    }

    /// The registered planner names, in sorted order.
    pub fn planners(&self) -> impl Iterator<Item = &str> {
        self.regs.keys().map(String::as_str)
    }

    /// Serves one batch submission to completion and returns its
    /// report.
    ///
    /// Callable concurrently from any number of threads. When the
    /// response cache is enabled and holds this submission's canonical
    /// key, the cached payload is returned immediately — byte-identical
    /// to a recompute (the spec fully determines it), **without taking
    /// an admission ticket**, so cached answers neither wait behind nor
    /// reorder queued planning work. Otherwise the submission expands
    /// its workload (cheap, unthrottled), waits for an admission slot if
    /// the service is at `max_inflight`, and runs the batched pipeline
    /// on the worker pool via the registration's long-lived planner — so
    /// every batch plans with warm contexts.
    ///
    /// # Errors
    ///
    /// [`ServiceError::UnknownPlanner`] when no registration matches;
    /// [`ServiceError::Planning`] for workload or pipeline failures;
    /// [`ServiceError::TraceTooLarge`] when a traced submission's
    /// recorded events exceed the service's cap.
    pub fn submit(&self, request: &SubmitBatch) -> Result<BatchReport, ServiceError> {
        let reg = self
            .regs
            .get(&request.planner)
            .ok_or_else(|| ServiceError::UnknownPlanner(request.planner.clone()))?;

        // Traced submissions bypass the cache in both directions: their
        // payload carries the (potentially huge) trace, which the cache
        // neither stores nor should serve to untraced requests.
        let key = (!request.trace && self.cache.enabled()).then(|| request.cache_key());
        if let Some(key) = &key {
            let t0 = Instant::now();
            if let Some(reports) = self.cache.lookup(key) {
                let wall_us = t0.elapsed().as_secs_f64() * 1e6;
                self.record_served(reg, reports.len(), wall_us);
                return Ok(BatchReport {
                    planner: request.planner.clone(),
                    reports: reports.as_ref().clone(),
                    wall_us,
                    trace: None,
                });
            }
        }

        let workload = request.spec.workload()?;
        // The scenario's overrides (loss, round budget) and the trace
        // flag configure a per-request pipeline around the
        // registration's long-lived planner; the default scenario
        // reproduces the registered configuration exactly.
        let mut config = workload.configure(reg.pipeline.config());
        config.record_trace = request.trace;
        let pipeline = Pipeline::new(config);
        let shots = workload.into_shots();

        let _permit = self.gate.admit();
        let t0 = Instant::now();
        let run = pipeline.run(&*reg.planner, &shots, request.spec.seed)?;
        let wall_us = t0.elapsed().as_secs_f64() * 1e6;

        if let Some(traces) = &run.traces {
            let events: usize = traces.iter().map(ShotTrace::events).sum();
            if events > self.trace_event_cap {
                return Err(ServiceError::TraceTooLarge {
                    events,
                    cap: self.trace_event_cap,
                });
            }
        }

        self.scheduler
            .lock()
            .expect("scheduler totals poisoned")
            .absorb(&run.stats);
        self.record_served(reg, run.reports.len(), wall_us);

        let reports = if let Some(key) = key {
            let shared = Arc::new(run.reports);
            self.cache.insert(key, Arc::clone(&shared));
            // Usually the cache kept its clone and this falls back to a
            // deep copy; if the entry was oversized (never stored) the
            // Arc is unique and the payload moves out for free.
            Arc::try_unwrap(shared).unwrap_or_else(|shared| shared.as_ref().clone())
        } else {
            run.reports
        };

        Ok(BatchReport {
            planner: request.planner.clone(),
            reports,
            wall_us,
            trace: run.traces,
        })
    }

    /// Folds one served batch (computed or cache hit) into the
    /// per-registration and service-wide counters.
    fn record_served(&self, reg: &Registration, shots: usize, wall_us: f64) {
        reg.batches.fetch_add(1, Ordering::Relaxed);
        reg.shots.fetch_add(shots as u64, Ordering::Relaxed);
        reg.latency
            .lock()
            .expect("latency histogram poisoned")
            .record(wall_us);
        self.batches_served.fetch_add(1, Ordering::Relaxed);
        self.shots_served.fetch_add(shots as u64, Ordering::Relaxed);
    }

    /// Snapshots the service: queue/inflight gauges with their
    /// high-water marks, served totals, per-registration latency
    /// histograms and context warmth, and the worker pool's activity
    /// since the service was built.
    pub fn stats(&self) -> ServiceStats {
        let gate = self.gate.lock();
        let (queued, inflight, peak_queued, peak_inflight) = (
            gate.queued,
            gate.inflight,
            gate.peak_queued,
            gate.peak_inflight,
        );
        drop(gate);
        ServiceStats {
            queued,
            inflight,
            peak_queued,
            peak_inflight,
            batches_served: self.batches_served.load(Ordering::Relaxed),
            shots_served: self.shots_served.load(Ordering::Relaxed),
            pool: rayon::global_pool_stats().since(&self.pool_baseline),
            scheduler: *self.scheduler.lock().expect("scheduler totals poisoned"),
            cache: self.cache.stats(),
            // The service itself has no transport: the HTTP front end
            // splices live connection gauges in before serialization.
            net: NetStats::default(),
            planners: self
                .regs
                .iter()
                .map(|(name, reg)| PlannerStats {
                    name: name.clone(),
                    algorithm: reg.planner.name().to_string(),
                    batches: reg.batches.load(Ordering::Relaxed),
                    shots: reg.shots.load(Ordering::Relaxed),
                    latency: reg
                        .latency
                        .lock()
                        .expect("latency histogram poisoned")
                        .clone(),
                    contexts: reg.planner.context_stats(),
                })
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::BatchSpec;
    use qrm_core::scheduler::QrmConfig;

    fn small_service(max_inflight: usize) -> PlanService {
        PlanService::builder()
            .max_inflight(max_inflight)
            .register_default("qrm", PlannerChoice::Software(QrmConfig::default()), 1)
            .register_default("typical", PlannerChoice::Typical, 1)
            .build()
    }

    #[test]
    fn submit_serves_and_counts() {
        let service = small_service(0);
        let report = service
            .submit(&SubmitBatch::new("qrm", BatchSpec::new(2, 12, 5)))
            .unwrap();
        assert_eq!(report.shots(), 2);
        assert_eq!(report.planner, "qrm");
        assert!(report.wall_us > 0.0);

        let stats = service.stats();
        assert_eq!(stats.batches_served, 1);
        assert_eq!(stats.shots_served, 2);
        assert_eq!(stats.queued, 0);
        assert_eq!(stats.inflight, 0);
        let qrm = stats.planners.iter().find(|p| p.name == "qrm").unwrap();
        assert_eq!(qrm.batches, 1);
        assert_eq!(qrm.latency.count(), 1);
        // QRM pools contexts; after one batch the pool is warm.
        let ctx = qrm.contexts.expect("QRM reports context stats");
        assert!(ctx.idle_contexts >= 1);
        // The stateless planner reports none.
        let typical = stats.planners.iter().find(|p| p.name == "typical").unwrap();
        assert!(typical.contexts.is_none());
        assert_eq!(typical.batches, 0);
        // The dataflow scheduler ran this batch and its counters made it
        // into the snapshot: both shots were planned, and every shot
        // costs at least an observe + plan + execute task per round plus
        // a terminal observe.
        assert!(stats.scheduler.planned_shots >= 2);
        assert!(stats.scheduler.plan_groups >= 1);
        assert!(stats.scheduler.tasks_dispatched > stats.scheduler.planned_shots);
    }

    #[test]
    fn admission_is_strictly_fifo() {
        // One slot, held by the test; three waiters queued one at a
        // time (each spawn waits until the previous waiter is visibly
        // queued, so ticket order equals spawn order). Releasing the
        // held slot must admit them in exactly that order even though
        // `notify_all` wakes everyone.
        let gate = Gate::new(1);
        let order = Mutex::new(Vec::new());
        std::thread::scope(|scope| {
            let holder = gate.admit();
            for i in 0..3usize {
                let (gate, order) = (&gate, &order);
                scope.spawn(move || {
                    let permit = gate.admit();
                    order.lock().unwrap().push(i);
                    // Hold briefly so later tickets are genuinely
                    // forced to wait for this slot, not just the lock.
                    std::thread::sleep(std::time::Duration::from_millis(2));
                    drop(permit);
                });
                while gate.lock().queued != i + 1 {
                    std::thread::yield_now();
                }
            }
            assert_eq!(gate.lock().peak_queued, 3);
            drop(holder);
        });
        assert_eq!(*order.lock().unwrap(), vec![0, 1, 2]);
        let end = gate.lock();
        assert_eq!(end.inflight, 0);
        assert_eq!(end.queued, 0);
        // Every ticket issued was admitted, in ticket order.
        assert_eq!(end.admit_ticket, end.next_ticket);
        assert_eq!(end.next_ticket, 4);
    }

    #[test]
    fn unknown_planner_is_an_error() {
        let service = small_service(0);
        let err = service
            .submit(&SubmitBatch::new("nope", BatchSpec::new(1, 12, 5)))
            .unwrap_err();
        assert!(matches!(err, ServiceError::UnknownPlanner(name) if name == "nope"));
        assert_eq!(service.stats().batches_served, 0);
    }

    #[test]
    fn degenerate_spec_is_a_planning_error() {
        let service = small_service(0);
        let err = service
            .submit(&SubmitBatch::new("qrm", BatchSpec::new(1, 0, 5)))
            .unwrap_err();
        assert!(matches!(err, ServiceError::Planning(_)));
    }

    #[test]
    fn concurrent_submissions_all_serve_under_a_tight_gate() {
        let service = small_service(1);
        let spec = BatchSpec::new(1, 12, 77);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    let report = service
                        .submit(&SubmitBatch::new("qrm", spec.clone()))
                        .unwrap();
                    assert_eq!(report.shots(), 1);
                });
            }
        });
        let stats = service.stats();
        assert_eq!(stats.batches_served, 4);
        assert_eq!(stats.inflight, 0);
        assert_eq!(stats.queued, 0);
        // max_inflight = 1 means the gate never admitted two at once.
        assert_eq!(stats.peak_inflight, 1);
    }

    #[test]
    fn cache_hit_returns_identical_reports_and_counts() {
        let service = PlanService::builder()
            .cache_bytes(1 << 20)
            .register_default("qrm", PlannerChoice::Software(QrmConfig::default()), 1)
            .build();
        let request = SubmitBatch::new("qrm", BatchSpec::new(2, 12, 9));
        let first = service.submit(&request).unwrap();
        let second = service.submit(&request).unwrap();
        // The payload is the determinism contract; wall_us is not.
        assert_eq!(first.reports, second.reports);

        let stats = service.stats();
        assert_eq!(stats.cache.lookups, 2);
        assert_eq!(stats.cache.hits, 1);
        assert_eq!(stats.cache.misses, 1);
        assert_eq!(stats.cache.insertions, 1);
        assert_eq!(stats.cache.entries, 1);
        assert!(stats.cache.bytes > 0);
        // A hit still counts as served, for the planner and the service.
        assert_eq!(stats.batches_served, 2);
        assert_eq!(stats.shots_served, 4);
        assert_eq!(stats.planners[0].batches, 2);
        assert_eq!(stats.planners[0].latency.count(), 2);
        // The hit bypassed the gate: only the miss took a ticket.
        assert_eq!(service.gate.lock().next_ticket, 0); // unlimited gate issues none
    }

    #[test]
    fn cache_disabled_by_default_reports_zeros() {
        let service = small_service(0);
        let request = SubmitBatch::new("qrm", BatchSpec::new(1, 12, 5));
        service.submit(&request).unwrap();
        service.submit(&request).unwrap();
        let stats = service.stats();
        assert_eq!(stats.cache, crate::stats::CacheStats::default());
    }

    #[test]
    fn cache_hits_bypass_the_gate_without_reordering_queued_work() {
        // FIFO-fairness regression for the gate bypass (extends
        // `admission_is_strictly_fifo`): with the single admission slot
        // held, queue two uncached submissions, then serve a stream of
        // cached hits. The hits must all complete while the slot is
        // still held (they never take tickets, so they cannot starve or
        // be starved), the queue depth must never grow past the two
        // real waiters, and the waiters must then be admitted in their
        // original ticket order.
        let service = PlanService::builder()
            .max_inflight(1)
            .cache_bytes(1 << 20)
            .register_default("qrm", PlannerChoice::Software(QrmConfig::default()), 1)
            .build();
        let warm = SubmitBatch::new("qrm", BatchSpec::new(1, 12, 42));
        service.submit(&warm).unwrap();

        std::thread::scope(|scope| {
            let holder = service.gate.admit();
            let tickets_before_waiters = service.gate.lock().next_ticket;
            for i in 0..2usize {
                let service = &service;
                scope.spawn(move || {
                    // Uncached (fresh seed): must queue behind the held
                    // slot.
                    let spec = BatchSpec::new(1, 12, 1000 + i as u64);
                    service.submit(&SubmitBatch::new("qrm", spec)).unwrap();
                });
                while service.gate.lock().queued != i + 1 {
                    std::thread::yield_now();
                }
            }

            // The gate is fully occupied and two waiters are queued;
            // cached hits must still be served immediately.
            for _ in 0..8 {
                let report = service.submit(&warm).unwrap();
                assert_eq!(report.shots(), 1);
            }
            let state = service.gate.lock();
            assert_eq!(state.queued, 2, "hits must not queue");
            // The hits took no tickets: only the two waiters arrived
            // since the holder took the slot.
            assert_eq!(state.next_ticket, tickets_before_waiters + 2);
            drop(state);
            drop(holder);
        });
        // The waiters were admitted in ticket order — the gate admits
        // strictly by ticket (`admission_is_strictly_fifo` pins the
        // ordering itself), and the accounting proves every ticket
        // issued was admitted with none skipped or barged.
        let end = service.gate.lock();
        assert_eq!(end.admit_ticket, end.next_ticket);
        assert_eq!(end.inflight, 0);
        assert_eq!(end.queued, 0);
        drop(end);
        let stats = service.stats();
        assert_eq!(stats.cache.hits, 8);
        assert_eq!(stats.peak_queued, 2);
        assert_eq!(stats.batches_served, 11);
    }

    #[test]
    fn scenario_submissions_serve_every_variant() {
        use crate::request::Scenario;
        let service = small_service(0);
        let scenarios = [
            Scenario::DefectMap { dead_fraction: 0.1 },
            Scenario::AtomLoss { loss_prob: 0.02 },
            Scenario::Zones { rows: 2, cols: 2 },
            Scenario::CorrelatedFill {
                grain: 3,
                flip_prob: 0.05,
            },
        ];
        for scenario in scenarios {
            let spec = BatchSpec::new(2, 16, 7).with_scenario(scenario);
            let report = service.submit(&SubmitBatch::new("qrm", spec)).unwrap();
            assert_eq!(report.shots(), 2, "{scenario:?}");
            assert!(report.trace.is_none());
        }
    }

    #[test]
    fn traced_submission_replays_to_the_reported_final_state() {
        let service = small_service(0);
        let spec = BatchSpec::new(2, 12, 5);
        let request = SubmitBatch::new("qrm", spec.clone()).with_trace(true);
        let report = service.submit(&request).unwrap();
        let traces = report.trace.as_ref().expect("trace requested");
        assert_eq!(traces.len(), report.shots());
        let workload = spec.workload().unwrap();
        for (i, (truth, trace)) in workload.truths.iter().zip(traces).enumerate() {
            let replayed = qrm_core::trace::TraceReplayer::replay(truth, trace).unwrap();
            assert_eq!(replayed, report.reports[i].final_state, "shot {i}");
        }
        // Tracing only observes: the reports match an untraced run.
        let untraced = service.submit(&SubmitBatch::new("qrm", spec)).unwrap();
        assert_eq!(untraced.reports, report.reports);
        assert!(untraced.trace.is_none());
    }

    #[test]
    fn tiny_trace_cap_rejects_with_trace_too_large() {
        let service = PlanService::builder()
            .trace_event_cap(1)
            .register_default("qrm", PlannerChoice::Software(QrmConfig::default()), 1)
            .build();
        let request = SubmitBatch::new("qrm", BatchSpec::new(2, 12, 5)).with_trace(true);
        let err = service.submit(&request).unwrap_err();
        assert_eq!(err.code(), "trace_too_large");
        assert!(matches!(err, ServiceError::TraceTooLarge { events, cap: 1 } if events > 1));
        // The rejected batch was not recorded as served.
        assert_eq!(service.stats().batches_served, 0);
    }

    #[test]
    fn traced_submissions_bypass_the_cache() {
        let service = PlanService::builder()
            .cache_bytes(1 << 20)
            .register_default("qrm", PlannerChoice::Software(QrmConfig::default()), 1)
            .build();
        let spec = BatchSpec::new(1, 12, 9);
        let traced = SubmitBatch::new("qrm", spec.clone()).with_trace(true);
        service.submit(&traced).unwrap();
        service.submit(&traced).unwrap();
        // Neither traced submission touched the cache.
        assert_eq!(service.stats().cache.lookups, 0);
        assert_eq!(service.stats().cache.insertions, 0);
        // An untraced submission of the same spec computes and caches.
        let untraced = SubmitBatch::new("qrm", spec);
        service.submit(&untraced).unwrap();
        let report = service.submit(&untraced).unwrap();
        assert!(report.trace.is_none());
        let stats = service.stats();
        assert_eq!(stats.cache.hits, 1);
        assert_eq!(stats.cache.insertions, 1);
    }

    #[test]
    fn replacing_a_registration_keeps_one_entry() {
        let service = PlanService::builder()
            .register_default("p", PlannerChoice::Typical, 1)
            .register_default("p", PlannerChoice::Tetris, 1)
            .build();
        assert_eq!(service.planners().collect::<Vec<_>>(), vec!["p"]);
        let stats = service.stats();
        assert_eq!(stats.planners.len(), 1);
        assert_eq!(stats.planners[0].algorithm, "Tetris (Wang 2023)");
    }
}
