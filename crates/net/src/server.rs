//! The HTTP front end: a readiness-driven event loop over non-blocking
//! sockets, the route-table seam it dispatches through, and the
//! planning service's route table.
//!
//! ## Architecture
//!
//! One dedicated OS thread (`qrm-net-loop`) owns every socket: the
//! listener and all accepted connections, each in non-blocking mode and
//! registered with a level-triggered [`polling::Poller`]. Each
//! connection is an explicit state machine —
//!
//! ```text
//! KeepAliveIdle ──first byte──▶ ReadingHead ──▶ ReadingBody
//!       ▲                                           │ complete request:
//!       │                                           ▼ the route table
//!       │                                   answered now ──▶ Deferred (pool job
//!       │                                           │         or handler thread)
//!       │                                           ▼              │
//!       └────────── response drained ◀───────── Writing ◀──────────┘
//! ```
//!
//! — driven entirely by readiness events. A **complete** request goes
//! to the loop's route table ([`Routes`]), which answers in one of two
//! ways ([`Answer`]): inline on the loop (stats, healthz, errors, and
//! [`Server`]'s response-cache hits), or through a handler run off the
//! loop — a job on the planning worker pool ([`Server`]'s cache misses)
//! or a thread of its own (the [`Router`](crate::Router)'s relays,
//! which block on backend sockets). A deferred handler pushes its
//! finished response into a completion queue and wakes the loop via
//! [`Poller::notify`]. Responses stream back as writability allows.
//!
//! The loop never branches on which front end it serves: [`Server`]
//! and [`Router`](crate::Router) are this one loop over two route
//! tables, so framing limits, deadlines, the connection cap,
//! pipelining and chunked streaming are the same on both.
//!
//! Consequently **connection count is decoupled from planning
//! parallelism**: ten thousand idle keep-alive connections cost the
//! pool nothing (they are one registration each in the poller), and a
//! slow or hostile peer can stall only its own connection — never a
//! pool worker. `tests/net_scaling.rs` pins the decoupling,
//! `tests/net_hostile.rs` the hostile-peer behaviour.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use polling::{Event, Interest, Poller};
use qrm_server::{NetStats, PlanService, ServiceError, SubmitBatch};
use qrm_wire::{ErrorReply, FromJson, JsonLimits, ToJson, WireError};

use crate::http::{render_chunked_response, render_response, HttpError, Request, RequestParser};
use crate::Health;

/// Configuration of the HTTP front end.
#[derive(Debug, Clone)]
pub struct NetConfig {
    /// Largest accepted request body (bytes). Requests declaring (or
    /// chunk-accumulating) more are refused with `413`.
    pub max_body_bytes: usize,
    /// How long an idle keep-alive connection may sit between requests
    /// before the server closes it.
    pub keep_alive: Duration,
    /// Once a request's first byte arrives, how long the peer has to
    /// deliver the complete request; the same budget bounds how long a
    /// peer may take to drain a response. Together with `keep_alive`
    /// (the fully-idle bound) this caps every connection's wall-clock
    /// hold on server state — and since connections no longer occupy
    /// pool slots, the deadline protects only fd/memory budgets.
    pub request_timeout: Duration,
    /// Largest accepted `spec.shots` in a submission (`422` beyond) —
    /// a spec is tiny on the wire but expands server-side, so the body
    /// limit alone cannot bound the workload.
    pub max_shots: usize,
    /// Largest accepted `spec.size` in a submission (`422` beyond).
    pub max_size: usize,
    /// Interim bearer-token auth: when set, every route except
    /// `GET /v1/healthz` requires `Authorization: Bearer <token>`
    /// (constant-time compare) and answers `401 unauthorized`
    /// otherwise. Transport privacy is still the terminating proxy's
    /// job — see `docs/PROTOCOL.md`.
    pub auth_token: Option<String>,
    /// Response bodies at or above this size (bytes) are sent with
    /// `Transfer-Encoding: chunked` to HTTP/1.1 peers instead of a
    /// single `Content-Length` frame. `usize::MAX` disables chunking.
    pub stream_threshold: usize,
    /// Most connections held open at once; connections accepted beyond
    /// the cap are immediately shed (counted in
    /// [`NetStats::closed_over_capacity`]).
    pub max_connections: usize,
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig {
            max_body_bytes: 1 << 20,
            keep_alive: Duration::from_secs(2),
            request_timeout: Duration::from_secs(10),
            max_shots: 4096,
            max_size: 512,
            auth_token: None,
            stream_threshold: 1 << 20,
            max_connections: 4096,
        }
    }
}

/// Why a connection was closed — indexes the per-cause counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CloseCause {
    /// Idle keep-alive timeout between requests.
    Idle,
    /// The total request deadline expired mid-request.
    RequestTimeout,
    /// The peer stopped draining a response past the deadline.
    WriteStalled,
    /// The peer closed first, reset, or asked via `Connection: close`.
    Peer,
    /// A framing violation ended the connection after its error reply.
    Framing,
    /// Server shutdown or fault-injection sever.
    Shutdown,
    /// Shed for lack of capacity: the connection cap was reached at
    /// accept, or no thread could be spawned for a handler.
    OverCapacity,
}

/// Counters behind [`NetStats`], shared between the event loop (writer)
/// and stats snapshots (readers). All relaxed: they are gauges, not
/// synchronization.
#[derive(Debug, Default)]
pub(crate) struct NetCounters {
    open: AtomicU64,
    peak_open: AtomicU64,
    accepted: AtomicU64,
    closed: AtomicU64,
    requests: AtomicU64,
    auth_failures: AtomicU64,
    closed_idle: AtomicU64,
    closed_request_timeout: AtomicU64,
    closed_write_stalled: AtomicU64,
    closed_peer: AtomicU64,
    closed_framing: AtomicU64,
    closed_shutdown: AtomicU64,
    closed_over_capacity: AtomicU64,
}

impl NetCounters {
    /// Tallies a close; the `open` gauge is maintained separately by
    /// the event loop (its single writer).
    fn record_close(&self, cause: CloseCause) {
        self.closed.fetch_add(1, Ordering::Relaxed);
        let counter = match cause {
            CloseCause::Idle => &self.closed_idle,
            CloseCause::RequestTimeout => &self.closed_request_timeout,
            CloseCause::WriteStalled => &self.closed_write_stalled,
            CloseCause::Peer => &self.closed_peer,
            CloseCause::Framing => &self.closed_framing,
            CloseCause::Shutdown => &self.closed_shutdown,
            CloseCause::OverCapacity => &self.closed_over_capacity,
        };
        counter.fetch_add(1, Ordering::Relaxed);
    }

    fn snapshot(&self) -> NetStats {
        NetStats {
            open_connections: self.open.load(Ordering::Relaxed),
            peak_open: self.peak_open.load(Ordering::Relaxed),
            accepted_total: self.accepted.load(Ordering::Relaxed),
            closed_total: self.closed.load(Ordering::Relaxed),
            requests_served: self.requests.load(Ordering::Relaxed),
            auth_failures: self.auth_failures.load(Ordering::Relaxed),
            closed_idle: self.closed_idle.load(Ordering::Relaxed),
            closed_request_timeout: self.closed_request_timeout.load(Ordering::Relaxed),
            closed_write_stalled: self.closed_write_stalled.load(Ordering::Relaxed),
            closed_peer: self.closed_peer.load(Ordering::Relaxed),
            closed_framing: self.closed_framing.load(Ordering::Relaxed),
            closed_shutdown: self.closed_shutdown.load(Ordering::Relaxed),
            closed_over_capacity: self.closed_over_capacity.load(Ordering::Relaxed),
        }
    }
}

/// State shared between a [`Frontend`] handle, its event loop, and the
/// deferred handlers the loop dispatches.
#[derive(Debug)]
struct Shared {
    poller: Poller,
    counters: NetCounters,
    shutdown: AtomicBool,
    /// Fault-injection flag (`test-hooks` feature): when set, the loop
    /// closes a connection *between* parsing a request and dispatching
    /// it — the bytes-free close that proves to the peer the request
    /// was never taken. See [`Server::debug_sever`].
    #[cfg(feature = "test-hooks")]
    severed: AtomicBool,
    /// Set once the loop has closed its listener (`test-hooks`
    /// feature): what [`Server::debug_sever`] waits for.
    #[cfg(feature = "test-hooks")]
    listener_closed: AtomicBool,
    /// Finished deferred handlers, drained by the loop after a `notify`.
    completions: Mutex<Vec<Completion>>,
}

/// A deferred handler's finished response, addressed to the connection
/// (slot + generation, so a recycled slot cannot receive a stale
/// response) that asked for it.
#[derive(Debug)]
struct Completion {
    key: usize,
    generation: u64,
    status: u16,
    body: String,
}

impl Shared {
    /// Runs a deferred `handler` behind the panic guard, queues its
    /// answer for connection `key`, and wakes the loop — the one
    /// wake-up a deferred request costs.
    fn complete(&self, key: usize, generation: u64, handler: Handler) {
        let (status, body) =
            catch_unwind(AssertUnwindSafe(handler)).unwrap_or_else(|_| panic_reply());
        self.completions
            .lock()
            .expect("completions")
            .push(Completion {
                key,
                generation,
                status,
                body,
            });
        self.poller.notify();
    }
}

/// A running HTTP front end over a shared [`PlanService`].
///
/// Binding spawns **one** dedicated event-loop thread that owns every
/// socket (see the module docs); planning work runs as jobs on the
/// vendored rayon worker pool. Idle keep-alive connections cost no
/// pool slot — [`NetConfig::keep_alive`] bounds how long one may sit
/// between requests and [`NetConfig::request_timeout`] bounds a started
/// request (and a response drain), so hostile peers are shed on
/// wall-clock, not worker, budgets. Well-behaved clients (the crate's
/// [`Client`](crate::Client)) transparently reconnect after an idle
/// close.
///
/// Dropping the server stops accepting, closes idle connections, lets
/// in-flight requests finish (bounded by their deadlines), and joins
/// the loop thread.
#[derive(Debug)]
pub struct Server {
    frontend: Frontend,
}

impl Server {
    /// Binds `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and
    /// starts serving `service`.
    ///
    /// # Errors
    ///
    /// Propagates socket bind/configuration failures.
    pub fn bind(
        addr: impl ToSocketAddrs,
        service: Arc<PlanService>,
        config: NetConfig,
    ) -> std::io::Result<Server> {
        let routes = ServiceRoutes {
            service,
            config: config.clone(),
        };
        Ok(Server {
            frontend: Frontend::bind(addr, config, routes)?,
        })
    }

    /// The bound address (with the real port when bound to port 0).
    pub fn addr(&self) -> SocketAddr {
        self.frontend.addr()
    }

    /// Connections accepted so far.
    pub fn connections_accepted(&self) -> u64 {
        self.frontend.counters().accepted.load(Ordering::Relaxed)
    }

    /// Requests served so far (across all connections, all routes).
    pub fn requests_served(&self) -> u64 {
        self.frontend.counters().requests.load(Ordering::Relaxed)
    }

    /// A live snapshot of this front end's connection gauges — the
    /// same numbers `GET /v1/stats` splices into
    /// [`ServiceStats::net`](qrm_server::ServiceStats).
    pub fn net_stats(&self) -> NetStats {
        self.frontend.counters().snapshot()
    }

    /// Fault-injection hook (`test-hooks` builds only): simulates this
    /// backend dying mid-load. The listener closes before this returns
    /// (later connects are refused) and every live connection closes
    /// **bytes-free** at its next request dispatch — crucially *after*
    /// the parse but *before* the service call, so the peer observes a
    /// close on a request that was provably never executed. Requests
    /// already planning or writing complete and respond. That is
    /// exactly the failure class the client's safe-retry rules (and the
    /// router's failover) are allowed to re-route, which is what
    /// `tests/fleet.rs` exercises: failover with no double execution.
    #[cfg(feature = "test-hooks")]
    pub fn debug_sever(&mut self) {
        let frontend = &self.frontend;
        frontend.shared.severed.store(true, Ordering::SeqCst);
        frontend.shared.poller.notify();
        // Until the loop closes the listener, a new connect still
        // completes in the kernel's accept backlog, and closing the
        // listener later resets it after its request went out — which
        // the peer must read as "may have been taken".
        while !frontend.shared.listener_closed.load(Ordering::SeqCst)
            && frontend
                .loop_thread
                .as_ref()
                .is_some_and(|handle| !handle.is_finished())
        {
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// Stops accepting, closes idle connections, lets in-flight
    /// requests finish (bounded by their deadlines), and joins the
    /// loop thread. Idempotent; also invoked by `Drop`.
    pub fn shutdown(&mut self) {
        self.frontend.shutdown();
    }
}

/// A request handler run off the loop; its return value is the answer.
pub(crate) type Handler = Box<dyn FnOnce() -> (u16, String) + Send>;

/// How a route table answers one complete request.
pub(crate) enum Answer {
    /// Answered inline, on the loop thread.
    Now(u16, String),
    /// Answered by a handler on the planning worker pool.
    Pool(Handler),
    /// Answered by a handler on a thread of its own, for handlers that
    /// block on other sockets and so must stay off the planning pool.
    /// If the thread cannot be spawned, the connection closes without a
    /// byte — which the peer's safe-retry rules read as "never taken".
    Thread(Handler),
}

/// A front end's route table: what the event loop does with each
/// complete request. The loop calls it once per request, behind the
/// same panic guard as every deferred handler.
pub(crate) trait Routes: Send + 'static {
    /// Answers `request`; `net` is the loop's own connection gauges.
    fn route(&self, request: Request, net: &NetCounters) -> Answer;
}

/// A bound listener plus the event-loop thread serving it with one
/// route table — the machinery [`Server`] and the
/// [`Router`](crate::Router) share.
///
/// Dropping it stops accepting, closes idle connections, lets
/// in-flight requests finish (bounded by their deadlines), and joins
/// the loop thread.
#[derive(Debug)]
pub(crate) struct Frontend {
    addr: SocketAddr,
    shared: Arc<Shared>,
    loop_thread: Option<std::thread::JoinHandle<()>>,
}

impl Frontend {
    /// Binds `addr` and starts the event loop over `routes`.
    pub(crate) fn bind(
        addr: impl ToSocketAddrs,
        config: NetConfig,
        routes: impl Routes,
    ) -> std::io::Result<Frontend> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            poller: Poller::new()?,
            counters: NetCounters::default(),
            shutdown: AtomicBool::new(false),
            #[cfg(feature = "test-hooks")]
            severed: AtomicBool::new(false),
            #[cfg(feature = "test-hooks")]
            listener_closed: AtomicBool::new(false),
            completions: Mutex::new(Vec::new()),
        });
        shared.poller.add(&listener, LISTENER_KEY, Interest::READ)?;
        let event_loop = EventLoop {
            listener: Some(listener),
            routes,
            config,
            shared: Arc::clone(&shared),
            conns: Vec::new(),
            free: Vec::new(),
            next_generation: 0,
            open: 0,
        };
        let loop_thread = std::thread::Builder::new()
            .name("qrm-net-loop".to_string())
            .spawn(move || event_loop.run())?;
        Ok(Frontend {
            addr,
            shared,
            loop_thread: Some(loop_thread),
        })
    }

    /// The bound address (with the real port when bound to port 0).
    pub(crate) fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The loop's connection gauges.
    fn counters(&self) -> &NetCounters {
        &self.shared.counters
    }

    /// Stops accepting, closes idle connections, lets in-flight
    /// requests finish (bounded by their deadlines), and joins the
    /// loop thread. Idempotent; also invoked by `Drop`.
    pub(crate) fn shutdown(&mut self) {
        if self.shared.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        self.shared.poller.notify();
        if let Some(handle) = self.loop_thread.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for Frontend {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// The listener's poller key; connection keys are `slot index + 1`.
const LISTENER_KEY: usize = 0;

/// Read granularity of the event loop.
const READ_CHUNK: usize = 16 << 10;

/// Where a connection's state machine currently is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ConnState {
    /// `KeepAliveIdle`: between requests; `keep_alive` deadline.
    Idle,
    /// `ReadingHead`/`ReadingBody` (the parser knows which); total
    /// request deadline.
    Reading,
    /// A deferred handler (pool job or handler thread) is computing
    /// the response; no poller registration, no deadline (the handler
    /// bounds its own work).
    Deferred,
    /// Draining the response; `request_timeout` drain deadline.
    Writing,
}

/// One connection owned by the event loop.
#[derive(Debug)]
struct Conn {
    stream: TcpStream,
    generation: u64,
    state: ConnState,
    parser: RequestParser,
    read_buf: Vec<u8>,
    write_buf: Vec<u8>,
    written: usize,
    /// Keep the connection after the current response drains?
    keep_alive_after: bool,
    /// Close cause to record if `keep_alive_after` is false.
    close_cause_after_write: CloseCause,
    /// Whether the current request arrived over HTTP/1.1 (chunked
    /// responses are only legal there).
    http11: bool,
    /// The state's wall-clock bound; `None` while Deferred.
    deadline: Option<Instant>,
    /// Registered with the poller? (Deferred connections are not.)
    registered: bool,
    interest: Interest,
}

struct EventLoop<R> {
    listener: Option<TcpListener>,
    routes: R,
    config: NetConfig,
    shared: Arc<Shared>,
    conns: Vec<Option<Conn>>,
    free: Vec<usize>,
    next_generation: u64,
    open: usize,
}

impl<R: Routes> EventLoop<R> {
    fn run(mut self) {
        let mut events: Vec<Event> = Vec::new();
        let mut shutting_down = false;
        loop {
            if !shutting_down && self.shared.shutdown.load(Ordering::SeqCst) {
                shutting_down = true;
                self.begin_shutdown();
            }
            #[cfg(feature = "test-hooks")]
            if self.shared.severed.load(Ordering::SeqCst) {
                self.drop_listener();
            }
            if shutting_down && self.open == 0 {
                self.drop_listener();
                return;
            }
            let timeout = self
                .next_deadline()
                .map(|deadline| deadline.saturating_duration_since(Instant::now()));
            if self.shared.poller.wait(&mut events, timeout).is_err() {
                // A failing poller cannot drive sockets; back off so a
                // transient error (fd pressure) cannot spin us hot.
                std::thread::sleep(Duration::from_millis(10));
            }
            self.drain_completions();
            // Connection events first, the listener last: a slot freed
            // in this batch must not be refilled by an accept while
            // stale events for the old occupant are still queued.
            let mut accept_ready = false;
            for &event in &events {
                if event.key == LISTENER_KEY {
                    accept_ready = true;
                } else {
                    self.handle_conn_event(event);
                }
            }
            if accept_ready {
                self.accept_ready(shutting_down);
            }
            self.expire_deadlines();
        }
    }

    /// Shutdown entry: stop accepting and close connections that are
    /// not serving a request. Deferred/Writing connections finish
    /// (their deadlines still apply), then close.
    fn begin_shutdown(&mut self) {
        self.drop_listener();
        for key in self.live_keys() {
            let state = self.conns[key - 1].as_ref().map(|c| c.state);
            if matches!(state, Some(ConnState::Idle | ConnState::Reading)) {
                self.close(key, CloseCause::Shutdown);
            }
        }
    }

    fn drop_listener(&mut self) {
        if let Some(listener) = self.listener.take() {
            let _ = self.shared.poller.delete(&listener);
            drop(listener);
            #[cfg(feature = "test-hooks")]
            self.shared.listener_closed.store(true, Ordering::SeqCst);
        }
    }

    fn live_keys(&self) -> Vec<usize> {
        self.conns
            .iter()
            .enumerate()
            .filter(|(_, slot)| slot.is_some())
            .map(|(idx, _)| idx + 1)
            .collect()
    }

    /// The earliest deadline across all connections, if any.
    fn next_deadline(&self) -> Option<Instant> {
        self.conns
            .iter()
            .flatten()
            .filter_map(|conn| conn.deadline)
            .min()
    }

    fn expire_deadlines(&mut self) {
        let now = Instant::now();
        for key in self.live_keys() {
            let Some(conn) = self.conns[key - 1].as_ref() else {
                continue;
            };
            let Some(deadline) = conn.deadline else {
                continue;
            };
            if now < deadline {
                continue;
            }
            let cause = match conn.state {
                ConnState::Idle => CloseCause::Idle,
                ConnState::Reading => CloseCause::RequestTimeout,
                ConnState::Writing => CloseCause::WriteStalled,
                ConnState::Deferred => continue, // no deadline while deferred
            };
            self.close(key, cause);
        }
    }

    fn accept_ready(&mut self, shutting_down: bool) {
        loop {
            let Some(listener) = self.listener.as_ref() else {
                return;
            };
            match listener.accept() {
                Ok((stream, _peer)) => {
                    if shutting_down {
                        continue; // raced in before the listener dropped
                    }
                    self.shared
                        .counters
                        .accepted
                        .fetch_add(1, Ordering::Relaxed);
                    if self.open >= self.config.max_connections {
                        self.shared.counters.record_close(CloseCause::OverCapacity);
                        continue; // shed: drop the stream
                    }
                    if stream.set_nonblocking(true).is_err() || stream.set_nodelay(true).is_err() {
                        self.shared.counters.record_close(CloseCause::Peer);
                        continue;
                    }
                    let open = self.open as u64 + 1;
                    self.shared.counters.open.store(open, Ordering::Relaxed);
                    self.shared
                        .counters
                        .peak_open
                        .fetch_max(open, Ordering::Relaxed);
                    self.insert_conn(stream);
                }
                Err(err) if err.kind() == std::io::ErrorKind::WouldBlock => return,
                Err(err) if err.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    // Transient accept failure (e.g. fd exhaustion):
                    // the listener stays level-triggered readable, so
                    // back off instead of spinning.
                    std::thread::sleep(Duration::from_millis(10));
                    return;
                }
            }
        }
    }

    fn insert_conn(&mut self, stream: TcpStream) {
        self.next_generation += 1;
        let conn = Conn {
            stream,
            generation: self.next_generation,
            state: ConnState::Idle,
            parser: RequestParser::new(),
            read_buf: Vec::new(),
            write_buf: Vec::new(),
            written: 0,
            keep_alive_after: true,
            close_cause_after_write: CloseCause::Peer,
            http11: true,
            deadline: Some(Instant::now() + self.config.keep_alive),
            registered: false,
            interest: Interest::READ,
        };
        let idx = match self.free.pop() {
            Some(idx) => {
                self.conns[idx] = Some(conn);
                idx
            }
            None => {
                self.conns.push(Some(conn));
                self.conns.len() - 1
            }
        };
        self.open += 1;
        let key = idx + 1;
        if self.register(key, Interest::READ).is_err() {
            self.close(key, CloseCause::Peer);
        }
    }

    /// (Re)registers a connection's fd with the poller under the given
    /// interest, adding or modifying as needed.
    fn register(&mut self, key: usize, interest: Interest) -> std::io::Result<()> {
        let conn = self.conns[key - 1].as_mut().expect("live conn");
        if conn.registered {
            if conn.interest != interest {
                self.shared.poller.modify(&conn.stream, key, interest)?;
                conn.interest = interest;
            }
            return Ok(());
        }
        self.shared.poller.add(&conn.stream, key, interest)?;
        conn.registered = true;
        conn.interest = interest;
        Ok(())
    }

    /// Parks a connection while a deferred handler computes its
    /// response: no deadline, and no poller registration, so a peer's
    /// half-close cannot spin the loop on a connection doing no IO.
    fn park(&mut self, key: usize, keep_alive: bool) {
        let conn = self.conns[key - 1].as_mut().expect("live conn");
        conn.state = ConnState::Deferred;
        conn.deadline = None;
        conn.keep_alive_after = keep_alive;
        if conn.registered {
            let _ = self.shared.poller.delete(&conn.stream);
            conn.registered = false;
        }
    }

    fn close(&mut self, key: usize, cause: CloseCause) {
        let Some(slot) = self.conns.get_mut(key - 1) else {
            return;
        };
        let Some(conn) = slot.take() else {
            return;
        };
        if conn.registered {
            let _ = self.shared.poller.delete(&conn.stream);
        }
        drop(conn);
        self.free.push(key - 1);
        self.open -= 1;
        self.shared.counters.record_close(cause);
        self.shared
            .counters
            .open
            .store(self.open as u64, Ordering::Relaxed);
    }

    fn handle_conn_event(&mut self, event: Event) {
        let Some(Some(conn)) = self.conns.get(event.key - 1) else {
            return; // stale event for a closed slot
        };
        match conn.state {
            ConnState::Idle | ConnState::Reading if event.readable => self.do_read(event.key),
            ConnState::Writing if event.writable || event.readable => {
                // A readable event in Writing is ERR/HUP (read interest
                // is off): attempt the write and let it observe the
                // failure.
                self.do_write(event.key);
            }
            _ => {}
        }
    }

    /// Reads whatever has arrived and advances the request parser,
    /// dispatching at most one completed request.
    fn do_read(&mut self, key: usize) {
        let mut chunk = [0u8; READ_CHUNK];
        loop {
            let conn = match self.conns.get_mut(key - 1) {
                Some(Some(conn)) => conn,
                _ => return,
            };
            if !matches!(conn.state, ConnState::Idle | ConnState::Reading) {
                return; // dispatched mid-loop (pipelined request)
            }
            let mut stream = &conn.stream;
            match stream.read(&mut chunk) {
                Ok(0) => {
                    // Peer closed (or half-closed). Mid-request this
                    // abandons the request; between requests it is the
                    // normal end of a keep-alive session. Either way:
                    // bytes-free from the peer's view, close quietly.
                    self.close(key, CloseCause::Peer);
                    return;
                }
                Ok(n) => {
                    conn.read_buf.extend_from_slice(&chunk[..n]);
                    self.advance_parser(key);
                    // Keep reading: more may be buffered in the kernel
                    // (level-triggered, but draining now saves a wait).
                }
                Err(err) if err.kind() == std::io::ErrorKind::WouldBlock => return,
                Err(err) if err.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.close(key, CloseCause::Peer);
                    return;
                }
            }
        }
    }

    /// Runs the incremental parser over the connection's buffer:
    /// updates the Idle/Reading boundary (and its deadline), dispatches
    /// a completed request, or answers a framing violation.
    fn advance_parser(&mut self, key: usize) {
        let conn = match self.conns.get_mut(key - 1) {
            Some(Some(conn)) => conn,
            _ => return,
        };
        if !matches!(conn.state, ConnState::Idle | ConnState::Reading) {
            return;
        }
        let max_body = self.config.max_body_bytes;
        let mut buf = std::mem::take(&mut conn.read_buf);
        let outcome = conn.parser.advance(&mut buf, max_body);
        conn.read_buf = buf;
        match outcome {
            Ok(Some(request)) => self.dispatch(key, request),
            Ok(None) => {
                if conn.parser.started() && conn.state == ConnState::Idle {
                    conn.state = ConnState::Reading;
                    conn.deadline = Some(Instant::now() + self.config.request_timeout);
                }
            }
            Err(err) => {
                // Framing violation: best-effort typed reply, then
                // close (the stream position is unknown).
                let (status, reply) = framing_error_reply(&err);
                self.respond(key, status, &reply.to_json(), false, CloseCause::Framing);
            }
        }
    }

    /// Hands one complete request to the route table and carries out
    /// its answer: respond now, or park the connection while a pool job
    /// or a handler thread computes the response.
    fn dispatch(&mut self, key: usize, request: Request) {
        #[cfg(feature = "test-hooks")]
        if self.shared.severed.load(Ordering::SeqCst) {
            // Sever point: strictly after the parse, strictly before
            // any service call — the bytes-free close of the failover
            // contract (`tests/fleet.rs`).
            self.close(key, CloseCause::Shutdown);
            return;
        }
        self.shared
            .counters
            .requests
            .fetch_add(1, Ordering::Relaxed);
        let Some(conn) = self.conns.get_mut(key - 1).and_then(Option::as_mut) else {
            return;
        };
        conn.http11 = request.http11;
        let generation = conn.generation;
        let keep_alive = request.keep_alive;
        let counters = &self.shared.counters;
        let answer = catch_unwind(AssertUnwindSafe(|| self.routes.route(request, counters)))
            .unwrap_or_else(|_| {
                let (status, body) = panic_reply();
                Answer::Now(status, body)
            });
        match answer {
            Answer::Now(status, body) => {
                self.respond(key, status, &body, keep_alive, CloseCause::Peer);
            }
            Answer::Pool(handler) => {
                self.park(key, keep_alive);
                let shared = Arc::clone(&self.shared);
                rayon::spawn(move || shared.complete(key, generation, handler));
            }
            Answer::Thread(handler) => {
                self.park(key, keep_alive);
                let shared = Arc::clone(&self.shared);
                // Detached: `complete` turns a handler panic into a
                // `500`, and the loop waits for the completion (even
                // at shutdown), not for the thread's exit.
                let spawned = std::thread::Builder::new()
                    .name("qrm-net-handler".to_string())
                    .spawn(move || shared.complete(key, generation, handler));
                if spawned.is_err() {
                    // The handler never ran: a bytes-free close is the
                    // peer's proof that the request was never taken.
                    self.close(key, CloseCause::OverCapacity);
                }
            }
        }
    }

    /// Hands a finished deferred handler's response back to its
    /// connection (if it is still the same connection).
    fn drain_completions(&mut self) {
        let completions: Vec<Completion> = {
            let mut queue = self.shared.completions.lock().expect("completions");
            std::mem::take(&mut *queue)
        };
        for completion in completions {
            let Some(Some(conn)) = self.conns.get(completion.key - 1) else {
                continue;
            };
            if conn.generation != completion.generation || conn.state != ConnState::Deferred {
                continue;
            }
            let keep_alive = conn.keep_alive_after;
            self.respond(
                completion.key,
                completion.status,
                &completion.body,
                keep_alive,
                CloseCause::Peer,
            );
        }
    }

    /// Frames a response (chunked when the body crosses the streaming
    /// threshold and the peer speaks HTTP/1.1), queues it, and starts
    /// draining it immediately.
    fn respond(
        &mut self,
        key: usize,
        status: u16,
        body: &str,
        keep_alive: bool,
        close_cause: CloseCause,
    ) {
        let conn = match self.conns.get_mut(key - 1) {
            Some(Some(conn)) => conn,
            _ => return,
        };
        let chunked = conn.http11 && body.len() >= self.config.stream_threshold;
        conn.write_buf = if chunked {
            render_chunked_response(status, body, keep_alive)
        } else {
            render_response(status, body, keep_alive)
        };
        conn.written = 0;
        conn.state = ConnState::Writing;
        conn.keep_alive_after = keep_alive;
        conn.close_cause_after_write = close_cause;
        conn.deadline = Some(Instant::now() + self.config.request_timeout);
        self.do_write(key);
    }

    /// Drains as much of the pending response as the socket accepts;
    /// on completion either re-arms the keep-alive state (and parses
    /// any pipelined bytes already buffered) or closes.
    fn do_write(&mut self, key: usize) {
        loop {
            let conn = match self.conns.get_mut(key - 1) {
                Some(Some(conn)) => conn,
                _ => return,
            };
            if conn.state != ConnState::Writing {
                return;
            }
            if conn.written == conn.write_buf.len() {
                break;
            }
            let mut stream = &conn.stream;
            match stream.write(&conn.write_buf[conn.written..]) {
                Ok(0) => {
                    self.close(key, CloseCause::Peer);
                    return;
                }
                Ok(n) => conn.written += n,
                Err(err) if err.kind() == std::io::ErrorKind::WouldBlock => {
                    if self.register(key, Interest::WRITE).is_err() {
                        self.close(key, CloseCause::Peer);
                    }
                    return;
                }
                Err(err) if err.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    // Reset mid-write (the abrupt-RST hostile case).
                    self.close(key, CloseCause::Peer);
                    return;
                }
            }
        }
        self.finish_response(key);
    }

    /// The response fully drained: close, or go idle and immediately
    /// parse any pipelined request already in the buffer.
    fn finish_response(&mut self, key: usize) {
        let shutting_down = self.shared.shutdown.load(Ordering::SeqCst);
        let conn = match self.conns.get_mut(key - 1) {
            Some(Some(conn)) => conn,
            _ => return,
        };
        if !conn.keep_alive_after {
            let cause = conn.close_cause_after_write;
            self.close(key, cause);
            return;
        }
        if shutting_down {
            self.close(key, CloseCause::Shutdown);
            return;
        }
        conn.write_buf = Vec::new();
        conn.written = 0;
        conn.state = ConnState::Idle;
        conn.deadline = Some(Instant::now() + self.config.keep_alive);
        if self.register(key, Interest::READ).is_err() {
            self.close(key, CloseCause::Peer);
            return;
        }
        // Pipelined requests: bytes for the next request may already be
        // buffered, and no further readiness event will announce them —
        // parse now or stall the connection.
        self.advance_parser(key);
    }
}

/// [`Server`]'s route table: bearer auth, then `POST /v1/batch`,
/// `GET /v1/stats` with the loop's [`NetStats`] spliced in,
/// `GET /v1/healthz`, and typed 404/405s.
///
/// `POST /v1/batch` is decoded once, on the loop ([`decode`]). An
/// invalid body and a response-cache hit ([`PlanService::try_hit`])
/// are answered right there; only a miss becomes a planning-pool job,
/// which takes the decoded submission with it. A hit costs the loop
/// its decode, lookup and encode (≈ 0.9 + 0.5 + 7 µs in process for a
/// 16x16 two-shot spec on a 2-vCPU Xeon) and no thread hand-off. The
/// decode is bounded by [`NetConfig::max_body_bytes`]: a 1 MiB body
/// held the loop for up to ≈ 25 ms on the same host
/// (`docs/ARCHITECTURE.md`, "The readiness event loop").
struct ServiceRoutes {
    service: Arc<PlanService>,
    config: NetConfig,
}

impl Routes for ServiceRoutes {
    fn route(&self, request: Request, net: &NetCounters) -> Answer {
        if let Some(token) = self.config.auth_token.as_deref() {
            if request.path != "/v1/healthz" && !authorized(&request, token) {
                net.auth_failures.fetch_add(1, Ordering::Relaxed);
                let (status, body) = error(
                    401,
                    "unauthorized",
                    "missing or invalid bearer token".to_string(),
                );
                return Answer::Now(status, body);
            }
        }
        let (status, body) = match (request.method.as_str(), request.path.as_str()) {
            ("POST", "/v1/batch") => match decode(&request.body, &self.config) {
                Ok(submission) => match self.service.try_hit(&submission) {
                    Some(report) => (200, report.to_json()),
                    None => {
                        let service = Arc::clone(&self.service);
                        return Answer::Pool(Box::new(move || run(&submission, &service)));
                    }
                },
                Err(reply) => reply,
            },
            ("GET", "/v1/stats") => {
                let mut stats = self.service.stats();
                stats.net = net.snapshot();
                (200, stats.to_json())
            }
            ("GET", "/v1/healthz") => {
                let health = Health {
                    status: "ok".to_string(),
                    planners: self.service.planners().map(str::to_string).collect(),
                };
                (200, health.to_json())
            }
            (_, "/v1/batch" | "/v1/stats" | "/v1/healthz") => error(
                405,
                "method_not_allowed",
                format!("{} is not allowed on {}", request.method, request.path),
            ),
            (_, path) => error(404, "not_found", format!("no route for {path}")),
        };
        Answer::Now(status, body)
    }
}

/// The answer to a request whose handler panicked. Clients' safe-retry
/// rules rest on every request that is read being answered, so a panic
/// — inline on the loop or in a deferred handler — surfaces as a `500`
/// reply, never as a silent close a client would mistake for an
/// unaccepted request.
fn panic_reply() -> (u16, String) {
    error(
        500,
        "internal",
        "request handling panicked server-side".to_string(),
    )
}

/// Constant-time byte-slice equality (length leaks; contents do not).
fn constant_time_eq(a: &[u8], b: &[u8]) -> bool {
    if a.len() != b.len() {
        return false;
    }
    a.iter().zip(b).fold(0u8, |acc, (x, y)| acc | (x ^ y)) == 0
}

/// Checks `Authorization: Bearer <token>` against the configured token.
fn authorized(request: &Request, token: &str) -> bool {
    let Some(value) = request.header("authorization") else {
        return false;
    };
    let Some(presented) = value.strip_prefix("Bearer ") else {
        return false;
    };
    constant_time_eq(presented.as_bytes(), token.as_bytes())
}

/// Maps an HTTP framing error to its wire reply.
fn framing_error_reply(err: &HttpError) -> (u16, ErrorReply) {
    let (status, code) = match err {
        HttpError::BodyTooLarge { .. } => (413, "payload_too_large"),
        HttpError::LengthRequired => (411, "length_required"),
        HttpError::UnsupportedTransferEncoding => (501, "unsupported_transfer_encoding"),
        HttpError::HeadersTooLarge => (400, "headers_too_large"),
        HttpError::BadRequestLine
        | HttpError::BadHeader
        | HttpError::BadContentLength
        | HttpError::BadChunk => (400, "bad_request"),
    };
    (status, ErrorReply::new(code, err.to_string()))
}

/// Decodes and validates one `POST /v1/batch` body: UTF-8, the JSON
/// limits, the spec caps and the fill range. Every failure is the
/// `(status, ErrorReply)` to answer with.
fn decode(body: &[u8], config: &NetConfig) -> Result<SubmitBatch, (u16, String)> {
    let Ok(text) = std::str::from_utf8(body) else {
        return Err(error(
            400,
            "bad_json",
            "request body is not UTF-8".to_string(),
        ));
    };
    let limits = JsonLimits {
        max_bytes: config.max_body_bytes,
        max_depth: 32,
    };
    let submission = match SubmitBatch::from_json_with_limits(text, &limits) {
        Ok(submission) => submission,
        Err(WireError::Json(err)) => return Err(error(400, "bad_json", err.to_string())),
        Err(WireError::Decode(err)) => return Err(error(400, "bad_request", err.to_string())),
    };
    if submission.spec.shots > config.max_shots || submission.spec.size > config.max_size {
        return Err(error(
            422,
            "spec_too_large",
            format!(
                "spec {}x{} shots={} exceeds the server's limits (size <= {}, shots <= {})",
                submission.spec.size,
                submission.spec.size,
                submission.spec.shots,
                config.max_size,
                config.max_shots
            ),
        ));
    }
    // `fill` is a probability: the workload generator *asserts* it is
    // within [0, 1], so an unchecked remote value would panic a pool
    // job instead of producing a typed reply. (NaN fails this range
    // check too.)
    if !(0.0..=1.0).contains(&submission.spec.fill) {
        return Err(error(
            422,
            "spec_invalid",
            format!(
                "spec fill={} is not a probability in [0, 1]",
                submission.spec.fill
            ),
        ));
    }
    Ok(submission)
}

/// Serves one decoded submission that missed the cache (on the
/// planning pool). Infallible by construction: every failure path is a
/// `(status, ErrorReply)`.
fn run(submission: &SubmitBatch, service: &PlanService) -> (u16, String) {
    match service.submit(submission) {
        Ok(report) => (200, report.to_json()),
        Err(err) => {
            let status = match &err {
                ServiceError::UnknownPlanner(_) => 404,
                ServiceError::Planning(_) => 422,
                // Payload Too Large: the *response* the trace flag asks
                // for would exceed the service's event cap.
                ServiceError::TraceTooLarge { .. } => 413,
            };
            error(status, err.code(), err.to_string())
        }
    }
}

pub(crate) fn error(status: u16, code: &str, message: String) -> (u16, String) {
    (status, ErrorReply::new(code, message).to_json())
}

/// Serves raw bytes to a one-off stream — test helper for exercising
/// protocol violations that a well-behaved client cannot produce. The
/// read timeout derives from `config`: the longest a compliant
/// exchange can take is one idle wait plus one full request budget, so
/// the helper waits exactly that plus a scheduling margin instead of a
/// hardcoded constant (which used to silently disagree with configured
/// timeouts — too short for long budgets, needlessly long for short
/// ones).
#[doc(hidden)]
pub fn raw_roundtrip(
    addr: SocketAddr,
    payload: &[u8],
    config: &NetConfig,
) -> std::io::Result<String> {
    let timeout = config.keep_alive + config.request_timeout + Duration::from_secs(1);
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(timeout))?;
    stream.write_all(payload)?;
    let mut response = String::new();
    stream.read_to_string(&mut response)?;
    Ok(response)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A route table whose handlers all panic: inline on the loop, on
    /// the planning pool (`/pool`), and on a thread of their own
    /// (`/thread`).
    struct Panicking;

    impl Routes for Panicking {
        fn route(&self, request: Request, _net: &NetCounters) -> Answer {
            match request.path.as_str() {
                "/pool" => Answer::Pool(Box::new(|| -> (u16, String) { panic!("pool handler") })),
                "/thread" => {
                    Answer::Thread(Box::new(|| -> (u16, String) { panic!("thread handler") }))
                }
                _ => panic!("inline route"),
            }
        }
    }

    #[test]
    fn a_panicking_handler_is_answered_500_wherever_it_runs() {
        let config = NetConfig {
            keep_alive: Duration::from_secs(1),
            request_timeout: Duration::from_secs(1),
            ..NetConfig::default()
        };
        // Dropped only once every answer arrived: without the guard a
        // parked connection never completes, and shutdown would wait
        // for it forever instead of letting the assertion fail.
        let frontend = std::mem::ManuallyDrop::new(
            Frontend::bind("127.0.0.1:0", config.clone(), Panicking).expect("bind"),
        );
        for path in ["/inline", "/pool", "/thread"] {
            let request = format!("GET {path} HTTP/1.1\r\nconnection: close\r\n\r\n");
            let response = raw_roundtrip(frontend.addr(), request.as_bytes(), &config)
                .unwrap_or_else(|err| format!("no answer: {err}"));
            assert!(
                response.starts_with("HTTP/1.1 500 Internal Server Error\r\n"),
                "{path}: {response:?}"
            );
            assert!(
                response.contains("\"code\":\"internal\""),
                "{path}: {response:?}"
            );
        }
        drop(std::mem::ManuallyDrop::into_inner(frontend));
    }
}
