//! The consistent-hash router front end: one HTTP endpoint fanning
//! `POST /v1/batch` out over N backend `qrm-net` servers.
//!
//! Determinism makes routing *free of placement semantics*: a spec
//! fully determines its report, so any backend's answer is
//! byte-identical to any other's — the ring only decides which
//! backend's response cache gets warmed. That is the fifth leg of the
//! workspace's bit-identity contract (`tests/fleet.rs`, CI `fleet`
//! job): a routed fleet's digests equal a single in-process run's,
//! byte for byte, even when a backend dies mid-load.
//!
//! ## Placement
//!
//! A classic consistent-hash ring: each backend contributes
//! [`RouterConfig::replicas`] virtual nodes at `ring_hash("{addr}#{i}")`
//! (FNV-1a 64 + splitmix64 finalizer), and a request maps to the first
//! node at or after `ring_hash(cache_key)` — the same canonical bytes
//! ([`SubmitBatch::cache_key`]) the backend response caches address by,
//! so repeats of a spec land on the same (warm) backend. Walking the
//! ring from that point yields each request's deterministic failover
//! order.
//!
//! ## Failover and retry safety
//!
//! The router reuses the client's safe-retry classification
//! ([`Client::post_classified`](crate::Client::post_classified)): a
//! relay that failed **provably unaccepted** (connect refused, send
//! failed, or a bytes-free close) moves on to the next ring candidate —
//! the backend demonstrably never executed it. A failure *after* the
//! request may have been taken (read timeout, torn response) is
//! answered `502 backend_failed` and **never** re-relayed: one
//! submission never executes twice. Requests every candidate refused
//! get `503 no_backend`. End clients apply their own safe-retry rules
//! against the router in turn, which the router upholds the same way
//! the backend does: every request it reads is answered (panics
//! included), so a bytes-free close from the router also proves
//! non-acceptance.
//!
//! ## Threading
//!
//! The router is [`Server`](crate::Server)'s event loop with another
//! route table. The loop runs with `NetConfig { max_body_bytes,
//! keep_alive, ..NetConfig::default() }`, the two named fields taken
//! from [`RouterConfig`], so the router has the server's framing
//! limits, per-state deadlines, connection cap, pipelining and chunked
//! streaming, and an idle or trickling connection costs a poller
//! registration, not a thread. Healthz and the routing counters are
//! answered inline on the loop.
//!
//! Each relay runs on a thread of its own, one per in-flight relay, and
//! never on the planning pool. A relay *blocks on a backend socket*; as
//! a pool job it could occupy every worker of a small pool while the
//! backends' planning jobs (also pool jobs, when a backend shares the
//! process, as in tests) wait behind it — a deadlock at
//! `QRM_POOL_THREADS=1`. If the relay thread cannot be spawned, the
//! connection closes without a byte, so the peer's safe-retry rule
//! still holds. Each relay uses a fresh backend connection, dropped as
//! soon as the response is read, so the backend closes it at once
//! instead of holding it on keep-alive; fresh connections are also what
//! makes a connect failure provable non-acceptance.

use std::net::{SocketAddr, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use qrm_server::SubmitBatch;
use qrm_wire::{BackendRouteStats, FromJson, JsonLimits, RouterStats, ToJson, WireError};

use crate::client::Client;
use crate::http::Request;
use crate::server::{error, Answer, Frontend, NetCounters, Routes};
use crate::{Health, NetConfig};

/// Configuration of the router front end.
#[derive(Debug, Clone, Copy)]
pub struct RouterConfig {
    /// Virtual nodes per backend on the hash ring. More replicas
    /// smooth the key distribution; 64 keeps the imbalance within a
    /// few percent for small fleets.
    pub replicas: usize,
    /// How often the health thread probes every backend's
    /// `GET /v1/healthz`.
    pub health_interval: Duration,
    /// Read timeout of a health probe (probes must stay prompt even
    /// when a backend is planning flat out).
    pub probe_timeout: Duration,
    /// Read timeout of a relayed `POST /v1/batch` (matches the
    /// client's planning-is-slow default).
    pub relay_timeout: Duration,
    /// Largest accepted request body (bytes), as on
    /// [`NetConfig`](crate::NetConfig).
    pub max_body_bytes: usize,
    /// Idle keep-alive timeout of incoming connections.
    pub keep_alive: Duration,
}

impl Default for RouterConfig {
    fn default() -> Self {
        RouterConfig {
            replicas: 64,
            health_interval: Duration::from_millis(250),
            probe_timeout: Duration::from_secs(2),
            relay_timeout: Duration::from_secs(60),
            max_body_bytes: 1 << 20,
            keep_alive: Duration::from_secs(2),
        }
    }
}

/// 64-bit FNV-1a. Deterministic and dependency-free; placement must be
/// reproducible across processes and runs, never keyed by
/// process-random state.
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &byte in bytes {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// The ring's hash: FNV-1a with splitmix64's finalizer on top. FNV
/// alone avalanches the short, similar strings involved here (vnode
/// labels, spec keys) weakly enough to leave one backend owning most
/// of the ring arc; the finalizer spreads the points evenly (the
/// balance test below pins this).
fn ring_hash(bytes: &[u8]) -> u64 {
    let mut hash = fnv1a64(bytes);
    hash ^= hash >> 30;
    hash = hash.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    hash ^= hash >> 27;
    hash = hash.wrapping_mul(0x94d0_49bb_1331_11eb);
    hash ^ (hash >> 31)
}

/// One configured backend: its address, health view, and counters.
struct Backend {
    addr: String,
    /// Last health-probe verdict. Starts `false`; the health thread's
    /// first sweep (which runs immediately) marks live backends up.
    healthy: AtomicBool,
    /// Planner names from the last successful probe, for aggregated
    /// healthz.
    planners: Mutex<Vec<String>>,
    routed: AtomicU64,
    failed_over: AtomicU64,
}

/// State shared by the route table, relay threads, and the health
/// thread.
struct Shared {
    backends: Vec<Backend>,
    /// `(hash, backend index)`, sorted by hash.
    ring: Vec<(u64, usize)>,
    config: RouterConfig,
    requests: AtomicU64,
    relayed: AtomicU64,
    failovers: AtomicU64,
    no_backend: AtomicU64,
    shutdown: AtomicBool,
}

impl Shared {
    /// Routing state for `backends`: the hash ring (each backend
    /// contributing [`RouterConfig::replicas`] virtual nodes), every
    /// backend marked down until the first health sweep, and all
    /// counters at zero.
    fn new(backends: Vec<String>, config: RouterConfig) -> Shared {
        let mut ring = Vec::with_capacity(backends.len() * config.replicas.max(1));
        for (index, backend) in backends.iter().enumerate() {
            for replica in 0..config.replicas.max(1) {
                ring.push((ring_hash(format!("{backend}#{replica}").as_bytes()), index));
            }
        }
        ring.sort_unstable();
        Shared {
            backends: backends
                .into_iter()
                .map(|addr| Backend {
                    addr,
                    healthy: AtomicBool::new(false),
                    planners: Mutex::new(Vec::new()),
                    routed: AtomicU64::new(0),
                    failed_over: AtomicU64::new(0),
                })
                .collect(),
            ring,
            config,
            requests: AtomicU64::new(0),
            relayed: AtomicU64::new(0),
            failovers: AtomicU64::new(0),
            no_backend: AtomicU64::new(0),
            shutdown: AtomicBool::new(false),
        }
    }

    /// Distinct backend indices in ring order starting at the first
    /// node at or after `hash` — the request's deterministic failover
    /// order.
    fn candidates(&self, hash: u64) -> Vec<usize> {
        let start = self.ring.partition_point(|&(h, _)| h < hash);
        let mut order = Vec::with_capacity(self.backends.len());
        for i in 0..self.ring.len() {
            let (_, backend) = self.ring[(start + i) % self.ring.len()];
            if !order.contains(&backend) {
                order.push(backend);
                if order.len() == self.backends.len() {
                    break;
                }
            }
        }
        order
    }

    fn stats(&self) -> RouterStats {
        RouterStats {
            requests: self.requests.load(Ordering::Relaxed),
            relayed: self.relayed.load(Ordering::Relaxed),
            failovers: self.failovers.load(Ordering::Relaxed),
            no_backend: self.no_backend.load(Ordering::Relaxed),
            backends: self
                .backends
                .iter()
                .map(|backend| BackendRouteStats {
                    addr: backend.addr.clone(),
                    healthy: backend.healthy.load(Ordering::Relaxed),
                    routed: backend.routed.load(Ordering::Relaxed),
                    failed_over: backend.failed_over.load(Ordering::Relaxed),
                })
                .collect(),
        }
    }
}

/// A running consistent-hash router over a fixed backend fleet.
///
/// Binding starts the same event loop a [`Server`](crate::Server) runs,
/// over the router's route table, plus a health thread; each in-flight
/// relay gets a thread of its own (see the module docs for why relays
/// must stay off the worker pool). Dropping the router stops accepting,
/// closes idle connections, lets in-flight relays finish, and joins the
/// loop and health threads.
#[derive(Debug)]
pub struct Router {
    frontend: Frontend,
    shared: Arc<Shared>,
    health_thread: Option<std::thread::JoinHandle<()>>,
}

impl std::fmt::Debug for Shared {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Shared")
            .field(
                "backends",
                &self.backends.iter().map(|b| &b.addr).collect::<Vec<_>>(),
            )
            .finish_non_exhaustive()
    }
}

impl Router {
    /// Binds `addr` and starts routing over `backends` (each a
    /// `"host:port"` of a running `qrm-net` server).
    ///
    /// # Errors
    ///
    /// `InvalidInput` when `backends` is empty (a ring with no nodes
    /// cannot route); otherwise propagates socket failures.
    pub fn bind(
        addr: impl ToSocketAddrs,
        backends: Vec<String>,
        config: RouterConfig,
    ) -> std::io::Result<Router> {
        if backends.is_empty() {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                "a router needs at least one backend",
            ));
        }
        let shared = Arc::new(Shared::new(backends, config));
        let net = NetConfig {
            max_body_bytes: config.max_body_bytes,
            keep_alive: config.keep_alive,
            ..NetConfig::default()
        };
        let frontend = Frontend::bind(addr, net, RelayRoutes(Arc::clone(&shared)))?;
        let health_thread = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("qrm-router-health".to_string())
                .spawn(move || health_loop(&shared))?
        };
        Ok(Router {
            frontend,
            shared,
            health_thread: Some(health_thread),
        })
    }

    /// The bound address (with the real port when bound to port 0).
    pub fn addr(&self) -> SocketAddr {
        self.frontend.addr()
    }

    /// One consistent routing snapshot — the same data
    /// `GET /v1/router/stats` serves.
    pub fn stats(&self) -> RouterStats {
        self.shared.stats()
    }

    /// Stops accepting, closes idle connections, lets in-flight relays
    /// finish, and joins the loop and health threads. Idempotent; also
    /// invoked by `Drop`.
    pub fn shutdown(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        self.frontend.shutdown();
        if let Some(handle) = self.health_thread.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for Router {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// The router's route table: each `POST /v1/batch` relay on a thread
/// of its own, the aggregated healthz and the routing counters inline,
/// and typed 404/405s.
struct RelayRoutes(Arc<Shared>);

impl Routes for RelayRoutes {
    fn route(&self, request: Request, _net: &NetCounters) -> Answer {
        let shared = &self.0;
        let (status, body) = match (request.method.as_str(), request.path.as_str()) {
            ("POST", "/v1/batch") => {
                let shared = Arc::clone(shared);
                return Answer::Thread(Box::new(move || relay_batch(&request, &shared)));
            }
            ("GET", "/v1/healthz") => healthz(shared),
            ("GET", "/v1/router/stats") => (200, shared.stats().to_json()),
            (_, "/v1/batch" | "/v1/healthz" | "/v1/router/stats") => error(
                405,
                "method_not_allowed",
                format!("{} is not allowed on {}", request.method, request.path),
            ),
            (_, "/v1/stats") => error(
                404,
                "not_found",
                "the router serves routing stats at /v1/router/stats; \
                 per-backend service stats live on the backends"
                    .to_string(),
            ),
            (_, path) => error(404, "not_found", format!("no route for {path}")),
        };
        Answer::Now(status, body)
    }
}

/// Relays one submission along its ring order. Healthy candidates
/// first, then unhealthy ones — stale health data must degrade
/// placement, never availability.
fn relay_batch(request: &Request, shared: &Shared) -> (u16, String) {
    let Ok(text) = std::str::from_utf8(&request.body) else {
        return error(400, "bad_json", "request body is not UTF-8".to_string());
    };
    let limits = JsonLimits {
        max_bytes: shared.config.max_body_bytes,
        max_depth: 32,
    };
    // Decode only far enough to derive the placement key; the backend
    // re-validates the spec (limits, fill range) itself, and the
    // *original* body bytes are what gets relayed.
    let submission = match SubmitBatch::from_json_with_limits(text, &limits) {
        Ok(submission) => submission,
        Err(WireError::Json(err)) => return error(400, "bad_json", err.to_string()),
        Err(WireError::Decode(err)) => return error(400, "bad_request", err.to_string()),
    };
    shared.requests.fetch_add(1, Ordering::Relaxed);

    let order = shared.candidates(ring_hash(&submission.cache_key()));
    let (up, down): (Vec<usize>, Vec<usize>) = order
        .into_iter()
        .partition(|&index| shared.backends[index].healthy.load(Ordering::Relaxed));
    for index in up.into_iter().chain(down) {
        let backend = &shared.backends[index];
        // Fresh connection per relay, dropped with `client` right
        // after the response: the backend closes it at once instead of
        // holding it on keep-alive, and a connect failure is provable
        // non-acceptance (see module docs).
        let mut client =
            Client::connect(backend.addr.clone()).with_read_timeout(shared.config.relay_timeout);
        // Forward the caller's credential verbatim: authed backends
        // must see the same `Authorization` the router was shown (the
        // router itself does no auth — backends own that decision).
        if let Some(auth) = request.header("authorization") {
            client = client.with_authorization(auth);
        }
        match client.post_classified("/v1/batch", text) {
            Ok(response) => {
                backend.routed.fetch_add(1, Ordering::Relaxed);
                shared.relayed.fetch_add(1, Ordering::Relaxed);
                return (response.status, response.body);
            }
            Err(failure) if failure.provably_unaccepted => {
                // The backend demonstrably never executed the request:
                // failing over cannot double-execute it.
                backend.healthy.store(false, Ordering::Relaxed);
                backend.failed_over.fetch_add(1, Ordering::Relaxed);
                shared.failovers.fetch_add(1, Ordering::Relaxed);
            }
            Err(failure) => {
                // The backend may be (or have been) executing the
                // request; relaying it anywhere else could run it
                // twice. Report the failure and let the *end client*
                // decide — its own safe-retry rules face the same
                // evidence and reach the same verdict.
                backend.healthy.store(false, Ordering::Relaxed);
                return error(
                    502,
                    "backend_failed",
                    format!("backend {} failed mid-request: {failure}", backend.addr),
                );
            }
        }
    }
    shared.no_backend.fetch_add(1, Ordering::Relaxed);
    error(
        503,
        "no_backend",
        "no backend accepted the request".to_string(),
    )
}

/// Aggregated liveness: `200` with the union of healthy backends'
/// planner registries, or `503` when no backend is healthy.
fn healthz(shared: &Shared) -> (u16, String) {
    let mut planners: Vec<String> = Vec::new();
    let mut any_healthy = false;
    for backend in &shared.backends {
        if backend.healthy.load(Ordering::Relaxed) {
            any_healthy = true;
            for planner in backend
                .planners
                .lock()
                .expect("planner view poisoned")
                .iter()
            {
                if !planners.contains(planner) {
                    planners.push(planner.clone());
                }
            }
        }
    }
    if !any_healthy {
        return error(
            503,
            "no_backend",
            "no backend is currently healthy".to_string(),
        );
    }
    planners.sort();
    let health = Health {
        status: "ok".to_string(),
        planners,
    };
    (200, health.to_json())
}

/// Probes every backend's healthz, immediately and then on the
/// configured interval, until shutdown.
fn health_loop(shared: &Shared) {
    while !shared.shutdown.load(Ordering::SeqCst) {
        for backend in &shared.backends {
            let mut probe = Client::connect(backend.addr.clone())
                .with_read_timeout(shared.config.probe_timeout);
            match probe.healthz() {
                Ok(health) => {
                    *backend.planners.lock().expect("planner view poisoned") = health.planners;
                    backend.healthy.store(true, Ordering::Relaxed);
                }
                Err(_) => backend.healthy.store(false, Ordering::Relaxed),
            }
        }
        // Interruptible sleep: check the shutdown flag every 25 ms so
        // `Router::shutdown` never waits out a long interval.
        let mut waited = Duration::ZERO;
        while waited < shared.config.health_interval && !shared.shutdown.load(Ordering::SeqCst) {
            let step = Duration::from_millis(25).min(shared.config.health_interval - waited);
            std::thread::sleep(step);
            waited += step;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a64_matches_reference_vectors() {
        // Published FNV-1a test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }

    fn shared_with(backends: &[&str], replicas: usize) -> Shared {
        let config = RouterConfig {
            replicas,
            ..RouterConfig::default()
        };
        Shared::new(backends.iter().map(|b| b.to_string()).collect(), config)
    }

    #[test]
    fn candidates_cover_all_backends_without_repeats() {
        let shared = shared_with(&["a:1", "b:2", "c:3"], 64);
        for seed in 0..64u64 {
            let order = shared.candidates(ring_hash(&seed.to_le_bytes()));
            let mut sorted = order.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, vec![0, 1, 2], "order {order:?} not a permutation");
        }
    }

    #[test]
    fn placement_is_deterministic_and_roughly_balanced() {
        let shared = shared_with(&["a:1", "b:2", "c:3"], 64);
        let mut counts = [0usize; 3];
        for seed in 0..3000u64 {
            let key = seed.to_le_bytes();
            let first = shared.candidates(ring_hash(&key))[0];
            assert_eq!(first, shared.candidates(ring_hash(&key))[0]);
            counts[first] += 1;
        }
        for (index, &count) in counts.iter().enumerate() {
            assert!(
                (500..=1800).contains(&count),
                "backend {index} got {count}/3000 keys — ring badly imbalanced: {counts:?}"
            );
        }
    }

    #[test]
    fn ring_walk_changes_with_the_key() {
        // Different keys must not all share one failover order (that
        // would make the ring pointless). With 64 replicas over 3
        // backends, 64 sampled keys cover several distinct orders.
        let shared = shared_with(&["a:1", "b:2", "c:3"], 64);
        let orders: std::collections::BTreeSet<Vec<usize>> = (0..64u64)
            .map(|seed| shared.candidates(ring_hash(&seed.to_le_bytes())))
            .collect();
        assert!(orders.len() > 1, "all keys produced the same ring order");
    }
}
