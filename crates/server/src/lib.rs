//! # qrm-server — long-lived in-process planning service
//!
//! The workspace's request-level concurrency layer, closing the
//! ROADMAP's "batch-level service API" item. Below this crate, the
//! stack parallelises *calls* (a `plan_batch`, a `Pipeline::run` batch);
//! this crate serves *requests*: a [`PlanService`] owns one long-lived,
//! already-resolved planner per registered
//! [`PlannerChoice`](qrm_control::pipeline::PlannerChoice) + pipeline
//! configuration, accepts typed [`SubmitBatch`] requests concurrently
//! from any number of threads, admits them through a bounded gate, and
//! runs each on the process-global work-stealing pool. The planner is
//! constructed once at registration, never per request.
//!
//! ## Layering
//!
//! ```text
//!   clients (threads)          qrm_server::PlanService
//!   ───────────────────►  registry ─ admission gate ─ stats
//!                                   │
//!                          qrm_control::Pipeline::run
//!                          (image → detect → plan → execute rounds)
//!                                   │
//!                          qrm_core::engine  (batched task graph:
//!                                   │          one job per quadrant kernel)
//!                          vendored rayon   (persistent work-stealing
//!                                             worker pool)
//! ```
//!
//! ## Determinism
//!
//! A [`BatchSpec`] expands deterministically to its workload, and a
//! submission's [`BatchReport::reports`] is **bit-identical** to running
//! that workload directly through `Pipeline::run` — at any pool
//! size, any `max_inflight`, and under any concurrent submission mix
//! (`tests/service.rs` pins this for all seven planners). The service
//! adds throughput and observability, never behaviour.
//!
//! Determinism also powers the opt-in [`ResponseCache`]
//! ([`PlanServiceBuilder::cache_bytes`]): since a spec fully determines
//! its payload, repeated submissions are answered from a
//! content-addressed LRU cache in O(1), byte-identical to a recompute —
//! and cache hits bypass the admission gate entirely, so cached answers
//! never queue behind planning work. [`PlanService::try_hit`] is that
//! hit path on its own: it never blocks, so the HTTP front end answers
//! hits on its event loop.
//!
//! ## Quickstart
//!
//! ```
//! use qrm_control::pipeline::PlannerChoice;
//! use qrm_core::scheduler::QrmConfig;
//! use qrm_server::{BatchSpec, PlanService, SubmitBatch};
//!
//! # fn main() -> Result<(), qrm_server::ServiceError> {
//! // Register planners once; resolve cost is paid here, not per request.
//! let service = PlanService::builder()
//!     .max_inflight(2)
//!     .register_default("qrm", PlannerChoice::Software(QrmConfig::default()), 1)
//!     .register_default("typical", PlannerChoice::Typical, 1)
//!     .build();
//!
//! // Submit from any thread; identical specs yield identical reports.
//! let request = SubmitBatch::new("qrm", BatchSpec::new(2, 12, 7));
//! let report = service.submit(&request)?;
//! assert_eq!(report.shots(), 2);
//! assert_eq!(service.submit(&request)?.reports, report.reports);
//!
//! let stats = service.stats();
//! assert_eq!(stats.batches_served, 2);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod cache;
mod request;
mod service;
mod stats;

pub use cache::ResponseCache;
pub use request::{BatchReport, BatchSpec, Scenario, ServiceError, SubmitBatch, Workload};
pub use service::{PlanService, PlanServiceBuilder, ServiceConfig, DEFAULT_TRACE_EVENT_CAP};
pub use stats::{
    CacheStats, ContextPoolStats, LatencyHistogram, NetStats, PlannerStats, SchedulerTotals,
    ServiceStats,
};
