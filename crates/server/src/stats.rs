//! Service observability: latency histograms and aggregate stats.
//!
//! Everything here is *snapshot* data — plain values copied out of the
//! service's internal counters under short locks, safe to hold, print,
//! or diff while the service keeps serving. Pool counters are reported
//! as **deltas since service construction**
//! ([`PoolStats::since`](rayon::PoolStats)), which excludes whatever
//! ran before the service was built. The pool itself is process-global,
//! so jobs other pool users run *while* the service is live are still
//! included — per-service attribution needs a process that serves
//! nothing else.

/// Histogram buckets: bucket `i` counts latencies in
/// `[2^i, 2^(i+1))` µs; the last bucket is open-ended. 2^21 µs ≈ 2 s,
/// far beyond any single batch this service runs.
const BUCKETS: usize = 22;

/// A fixed-size power-of-two latency histogram (µs resolution).
///
/// Recording is O(1) and allocation-free, so it sits on the submit path
/// behind a mutex without becoming a hot spot. Bucket `i` spans
/// `[2^i, 2^(i+1))` µs (bucket 0 also catches sub-µs values); the last
/// bucket is open-ended.
#[derive(Debug, Clone, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct LatencyHistogram {
    buckets: [u64; BUCKETS],
    count: u64,
    total_us: f64,
    max_us: f64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram {
            buckets: [0; BUCKETS],
            count: 0,
            total_us: 0.0,
            max_us: 0.0,
        }
    }
}

impl LatencyHistogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        LatencyHistogram::default()
    }

    /// Records one latency observation (µs). NaN and negative inputs
    /// are clamped to 0 so a degenerate measurement cannot poison the
    /// histogram's moments or panic the bucket index.
    pub fn record(&mut self, us: f64) {
        let us = if us.is_nan() || us < 0.0 { 0.0 } else { us };
        let idx = if us < 1.0 {
            0
        } else {
            // f64 -> u64 is saturating in Rust, so huge latencies land
            // in the open-ended last bucket rather than wrapping.
            (us as u64).ilog2().min(BUCKETS as u32 - 1) as usize
        };
        self.buckets[idx] += 1;
        self.count += 1;
        self.total_us += us;
        if us > self.max_us {
            self.max_us = us;
        }
    }

    /// Observations recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean latency (µs); 0 when empty.
    pub fn mean_us(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_us / self.count as f64
        }
    }

    /// Largest latency recorded (µs).
    pub fn max_us(&self) -> f64 {
        self.max_us
    }

    /// Smallest bucket upper bound (µs) such that at least
    /// `fraction` (0..=1) of observations fall at or below it — a
    /// bucket-resolution percentile (e.g. `quantile_us(0.99)` for p99).
    /// A quantile landing in the open-ended last bucket reports
    /// [`max_us`](Self::max_us) (the bucket has no finite upper bound).
    /// Returns 0 when empty.
    pub fn quantile_us(&self, fraction: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let threshold = (fraction.clamp(0.0, 1.0) * self.count as f64).ceil() as u64;
        let mut seen = 0;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= threshold {
                return if i + 1 < BUCKETS {
                    (1u64 << (i + 1)) as f64
                } else {
                    self.max_us
                };
            }
        }
        self.max_us
    }

    /// Iterates the non-empty buckets as `(upper_bound_us, count)`
    /// pairs, in latency order. The open-ended last bucket reports
    /// `u64::MAX` as its bound.
    pub fn nonzero_buckets(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &n)| n > 0)
            .map(|(i, &n)| {
                let bound = if i + 1 < BUCKETS {
                    1u64 << (i + 1)
                } else {
                    u64::MAX
                };
                (bound, n)
            })
    }
}

/// Per-registration snapshot inside a [`ServiceStats`].
#[derive(Debug, Clone)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct PlannerStats {
    /// Registration name.
    pub name: String,
    /// The planner's self-reported algorithm name. Owned (not
    /// `&'static str`) so the snapshot survives a serialization
    /// round-trip — a remote client's copy has no static source.
    pub algorithm: String,
    /// Batches this registration served.
    pub batches: u64,
    /// Shots across those batches.
    pub shots: u64,
    /// Service-time distribution of this registration's batches.
    pub latency: LatencyHistogram,
    /// Always `None` (`null` on the wire): no planner keeps a context
    /// pool any more. Kept because v1 fields never change, so older
    /// snapshots that carry a value still decode.
    pub contexts: Option<ContextPoolStats>,
}

/// The wire form of a planner's former warm-context pool, as older
/// [`PlannerStats::contexts`] snapshots carry it. Nothing produces it
/// now; it exists so those snapshots still decode.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct ContextPoolStats {
    /// Parked warm contexts that were available for checkout.
    pub idle_contexts: usize,
    /// Recycled kernel-scratch buffers across those contexts.
    pub warm_states: usize,
}

/// Dataflow-scheduler counters aggregated across every batch the
/// service has served — the wire-visible form of
/// [`DataflowStats`](qrm_core::engine::dataflow::DataflowStats).
/// `max_shot_lag` is the lifetime maximum; everything else is a sum.
///
/// The counters make scheduler health *observable*: a growing
/// `rounds_overlapped` shows stragglers are being overlapped instead of
/// stalling their batch, and `planned_shots / plan_groups` is the mean
/// readiness-window plan-group size. They describe schedules, never
/// results — reports stay bit-identical whatever these read.
///
/// On the wire this is an **additive** `ServiceStats` field: decoding a
/// pre-dataflow snapshot (no `scheduler` key) yields all zeros rather
/// than an error, per the `docs/PROTOCOL.md` schema-evolution rules.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize))]
pub struct SchedulerTotals {
    /// Pool tasks the shot scheduler dispatched (observe + plan-group
    /// + execute).
    pub tasks_dispatched: u64,
    /// Plan-group tasks that planned at least one shot.
    pub plan_groups: u64,
    /// Shots planned across all groups.
    pub planned_shots: u64,
    /// Observations that started a round while a slower live shot was
    /// still behind.
    pub rounds_overlapped: u64,
    /// Largest round gap ever observed between the fastest and the
    /// slowest live shot of a batch.
    pub max_shot_lag: u64,
}

impl SchedulerTotals {
    /// Folds one batch's scheduler counters into the lifetime totals.
    pub fn absorb(&mut self, run: &qrm_core::engine::dataflow::DataflowStats) {
        self.tasks_dispatched += run.tasks_dispatched;
        self.plan_groups += run.plan_groups;
        self.planned_shots += run.planned_shots;
        self.rounds_overlapped += run.rounds_overlapped;
        self.max_shot_lag = self.max_shot_lag.max(run.max_shot_lag);
    }
}

// Hand-written (not derived) so a snapshot from a pre-dataflow peer —
// whose `ServiceStats` has no `scheduler` key at all — decodes as
// zeros instead of failing on the missing field. The derive would use
// the default `deserialize_missing` (an error); overriding it is the
// vendored-serde idiom for additive schema evolution.
#[cfg(feature = "serde")]
impl serde::Deserialize for SchedulerTotals {
    fn deserialize(value: &serde::Value) -> Result<Self, serde::Error> {
        let map = value.as_map("SchedulerTotals")?;
        Ok(SchedulerTotals {
            tasks_dispatched: serde::field(map, "SchedulerTotals", "tasks_dispatched")?,
            plan_groups: serde::field(map, "SchedulerTotals", "plan_groups")?,
            planned_shots: serde::field(map, "SchedulerTotals", "planned_shots")?,
            rounds_overlapped: serde::field(map, "SchedulerTotals", "rounds_overlapped")?,
            max_shot_lag: serde::field(map, "SchedulerTotals", "max_shot_lag")?,
        })
    }

    fn deserialize_missing(_ty: &str, _field: &str) -> Result<Self, serde::Error> {
        Ok(SchedulerTotals::default())
    }
}

/// Response-cache counters, the wire-visible snapshot of
/// [`ResponseCache::stats`](crate::ResponseCache::stats).
///
/// `hits + misses == lookups` and `bytes <= budget_bytes` hold in every
/// snapshot (the cache updates all counters under one lock). A disabled
/// cache (`budget_bytes == 0`, the default) reports all zeros.
///
/// On the wire this is an **additive** `ServiceStats` field like
/// [`SchedulerTotals`]: decoding a pre-cache snapshot (no `cache` key)
/// yields all zeros rather than an error, per the `docs/PROTOCOL.md`
/// schema-evolution rules.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize))]
pub struct CacheStats {
    /// Cache probes (`hits + misses`).
    pub lookups: u64,
    /// Lookups answered from a resident entry.
    pub hits: u64,
    /// Lookups that fell through to planning.
    pub misses: u64,
    /// Entries stored (replacing a resident key counts again).
    pub insertions: u64,
    /// Entries dropped to uphold the byte budget.
    pub evictions: u64,
    /// Entries currently resident.
    pub entries: u64,
    /// Bytes currently charged against the budget (the sum of
    /// [`entry_cost`](crate::cache::entry_cost) over resident entries).
    pub bytes: u64,
    /// High-water mark of `bytes` over the cache's lifetime.
    pub peak_bytes: u64,
    /// Configured byte budget; `0` means the cache is disabled.
    pub budget_bytes: u64,
}

// Hand-written for the same reason as `SchedulerTotals` above: a
// snapshot from a pre-cache peer has no `cache` key, and must decode as
// zeros instead of failing on the missing field.
#[cfg(feature = "serde")]
impl serde::Deserialize for CacheStats {
    fn deserialize(value: &serde::Value) -> Result<Self, serde::Error> {
        let map = value.as_map("CacheStats")?;
        Ok(CacheStats {
            lookups: serde::field(map, "CacheStats", "lookups")?,
            hits: serde::field(map, "CacheStats", "hits")?,
            misses: serde::field(map, "CacheStats", "misses")?,
            insertions: serde::field(map, "CacheStats", "insertions")?,
            evictions: serde::field(map, "CacheStats", "evictions")?,
            entries: serde::field(map, "CacheStats", "entries")?,
            bytes: serde::field(map, "CacheStats", "bytes")?,
            peak_bytes: serde::field(map, "CacheStats", "peak_bytes")?,
            budget_bytes: serde::field(map, "CacheStats", "budget_bytes")?,
        })
    }

    fn deserialize_missing(_ty: &str, _field: &str) -> Result<Self, serde::Error> {
        Ok(CacheStats::default())
    }
}

/// HTTP front-end connection gauges, maintained by `qrm_net`'s
/// readiness event loop and spliced into the `GET /v1/stats` snapshot
/// (an in-process [`PlanService::stats`](crate::PlanService::stats)
/// reports all zeros here — the front end owns these counters, the
/// service never sees a socket).
///
/// `open_connections` is a live gauge; everything else is monotone.
/// `accepted_total == open_connections + closed_total` holds in every
/// snapshot, and `closed_total` is the sum of the per-cause
/// `closed_*` counters.
///
/// On the wire this is an **additive** `ServiceStats` field like
/// [`SchedulerTotals`] and [`CacheStats`]: decoding a pre-net snapshot
/// (no `net` key) yields all zeros rather than an error, per the
/// `docs/PROTOCOL.md` schema-evolution rules.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize))]
pub struct NetStats {
    /// Connections currently open (accepted, not yet closed).
    pub open_connections: u64,
    /// High-water mark of `open_connections` over the server's life.
    pub peak_open: u64,
    /// Connections accepted since the server started.
    pub accepted_total: u64,
    /// Connections closed since the server started (any cause).
    pub closed_total: u64,
    /// Requests fully parsed and dispatched (all routes).
    pub requests_served: u64,
    /// Requests refused with `401 unauthorized`.
    pub auth_failures: u64,
    /// Closes: idle keep-alive timeout between requests.
    pub closed_idle: u64,
    /// Closes: total request deadline expired mid-request.
    pub closed_request_timeout: u64,
    /// Closes: the peer stopped draining a response past the deadline.
    pub closed_write_stalled: u64,
    /// Closes: the peer closed first (or asked to via
    /// `Connection: close`), including mid-request half-closes and
    /// resets.
    pub closed_peer: u64,
    /// Closes: a framing violation ended the connection after its
    /// typed error reply.
    pub closed_framing: u64,
    /// Closes: server shutdown (or fault-injection sever).
    pub closed_shutdown: u64,
    /// Closes: the connection cap was reached; accepted and
    /// immediately shed.
    pub closed_over_capacity: u64,
}

// Hand-written for the same reason as `SchedulerTotals` and
// `CacheStats` above: a snapshot from a pre-net peer has no `net` key,
// and must decode as zeros instead of failing on the missing field.
#[cfg(feature = "serde")]
impl serde::Deserialize for NetStats {
    fn deserialize(value: &serde::Value) -> Result<Self, serde::Error> {
        let map = value.as_map("NetStats")?;
        Ok(NetStats {
            open_connections: serde::field(map, "NetStats", "open_connections")?,
            peak_open: serde::field(map, "NetStats", "peak_open")?,
            accepted_total: serde::field(map, "NetStats", "accepted_total")?,
            closed_total: serde::field(map, "NetStats", "closed_total")?,
            requests_served: serde::field(map, "NetStats", "requests_served")?,
            auth_failures: serde::field(map, "NetStats", "auth_failures")?,
            closed_idle: serde::field(map, "NetStats", "closed_idle")?,
            closed_request_timeout: serde::field(map, "NetStats", "closed_request_timeout")?,
            closed_write_stalled: serde::field(map, "NetStats", "closed_write_stalled")?,
            closed_peer: serde::field(map, "NetStats", "closed_peer")?,
            closed_framing: serde::field(map, "NetStats", "closed_framing")?,
            closed_shutdown: serde::field(map, "NetStats", "closed_shutdown")?,
            closed_over_capacity: serde::field(map, "NetStats", "closed_over_capacity")?,
        })
    }

    fn deserialize_missing(_ty: &str, _field: &str) -> Result<Self, serde::Error> {
        Ok(NetStats::default())
    }
}

/// One consistent snapshot of the whole service, from
/// [`PlanService::stats`](crate::PlanService::stats).
///
/// `Default` is the all-zero snapshot of a service that has served
/// nothing (no planners registered) — what a router-side load report
/// carries in its service-stats slot, since a router exposes
/// `RouterStats` instead.
#[derive(Debug, Clone, Default)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct ServiceStats {
    /// Submissions currently waiting for admission (queue depth).
    pub queued: usize,
    /// Submissions currently planning/executing.
    pub inflight: usize,
    /// High-water mark of `queued` over the service's lifetime.
    pub peak_queued: usize,
    /// High-water mark of `inflight` over the service's lifetime.
    pub peak_inflight: usize,
    /// Batches served successfully.
    pub batches_served: u64,
    /// Shots across all served batches.
    pub shots_served: u64,
    /// Worker-pool activity **since service construction** (threads is
    /// the current pool size; all counters are deltas).
    pub pool: rayon::PoolStats,
    /// Per-registration breakdown, in registration-name order.
    pub planners: Vec<PlannerStats>,
    /// Dataflow-scheduler totals across all served batches. Additive
    /// field: pre-dataflow decoders ignore the unknown key, and
    /// pre-dataflow snapshots decode here as zeros.
    pub scheduler: SchedulerTotals,
    /// Response-cache counters. Additive field, same rule: pre-cache
    /// decoders ignore the unknown key, and pre-cache snapshots decode
    /// here as zeros.
    pub cache: CacheStats,
    /// HTTP front-end connection gauges, spliced in by `qrm_net`'s
    /// event loop (zeros in-process). Declared (and serialized) last,
    /// same additive rule: pre-net decoders ignore the unknown key,
    /// and pre-net snapshots decode here as zeros.
    pub net: NetStats,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_and_moments() {
        let mut h = LatencyHistogram::new();
        for us in [0.5, 1.0, 3.0, 1000.0, 1_000_000.0] {
            h.record(us);
        }
        assert_eq!(h.count(), 5);
        assert!((h.mean_us() - 200_200.9).abs() < 1.0);
        assert_eq!(h.max_us(), 1_000_000.0);
        let buckets: Vec<(u64, u64)> = h.nonzero_buckets().collect();
        // 0.5 and 1.0 land in bucket 0 (<2 µs), 3.0 in [2,4), 1000 in
        // [512,1024), 1e6 in [2^19, 2^20).
        assert_eq!(buckets, vec![(2, 2), (4, 1), (1024, 1), (1 << 20, 1)]);
        assert_eq!(h.quantile_us(0.5), 4.0);
        assert_eq!(h.quantile_us(1.0), (1u64 << 20) as f64);
    }

    #[test]
    fn empty_histogram_is_quiet() {
        let h = LatencyHistogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.mean_us(), 0.0);
        assert_eq!(h.quantile_us(0.99), 0.0);
        assert_eq!(h.nonzero_buckets().count(), 0);
    }

    #[test]
    fn huge_latency_saturates_into_last_bucket() {
        let mut h = LatencyHistogram::new();
        h.record(1e10); // ~2.8 hours, far past the last finite bound
        assert_eq!(h.count(), 1);
        // The open-ended bucket has no finite bound, and a quantile
        // landing in it reports the true maximum, never less than it.
        assert_eq!(h.nonzero_buckets().collect::<Vec<_>>(), vec![(u64::MAX, 1)]);
        assert_eq!(h.quantile_us(0.99), 1e10);
        assert!(h.quantile_us(0.99) >= h.max_us());
    }

    #[test]
    fn degenerate_observations_clamp_instead_of_panicking() {
        let mut h = LatencyHistogram::new();
        h.record(f64::NAN);
        h.record(-5.0);
        assert_eq!(h.count(), 2);
        assert_eq!(h.mean_us(), 0.0);
        assert_eq!(h.nonzero_buckets().collect::<Vec<_>>(), vec![(2, 2)]);
    }
}
