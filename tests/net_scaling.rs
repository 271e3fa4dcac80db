//! Connection-scaling acceptance: the C10k decoupling, pinned.
//!
//! Hundreds of mostly-idle keep-alive connections are held open while
//! a deliberately tiny planning pool (`QRM_POOL_THREADS=2`) serves
//! real submissions at full throughput — with reports bit-identical
//! to an in-process run (the sixth determinism leg's scaling half).
//!
//! ## Regression note — why this fails on the old design
//!
//! The pre-event-loop front end ran **one pool job per connection**:
//! `rayon::spawn(handle_connection)` parked a worker inside a blocking
//! `read()` for the whole life of each keep-alive session. With 512
//! open connections and a 2-thread pool, both workers are pinned
//! inside idle connection handlers the moment the third connection
//! arrives; submissions queue behind hundreds of idle handlers and
//! this test times out (the vendored pool's helping scheduler lets a
//! *blocked scope* help execute, but an idle socket read helps
//! no one). The readiness event loop holds every idle connection in
//! one poller registration on one loop thread, so the pool's two
//! workers only ever see actual planning jobs.
//!
//! The router runs the same loop, so idle router connections cost no
//! threads either; the second test pins that.
//!
//! The suite lives in its own integration-test binary because it must
//! set `QRM_POOL_THREADS` before the process's global pool first
//! spins up.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use qrm_bench::{build_service, ServeConfig};
use qrm_net::{Client, NetConfig, Router, RouterConfig, Server};
use qrm_server::{BatchSpec, SubmitBatch};

/// Mostly-idle connections held open across the planning load.
const IDLE_CONNECTIONS: usize = 512;

#[test]
fn hundreds_of_idle_connections_do_not_steal_planning_throughput() {
    // Must precede any use of the global pool (first touch sizes it).
    std::env::set_var("QRM_POOL_THREADS", "2");

    let serve_config = ServeConfig {
        workers: 2,
        ..ServeConfig::default()
    };
    let service = Arc::new(build_service(&serve_config));
    let config = NetConfig {
        // Idle connections must stay open for the entire test.
        keep_alive: Duration::from_secs(120),
        ..NetConfig::default()
    };
    let server = Server::bind("127.0.0.1:0", Arc::clone(&service), config).expect("bind loopback");

    // Open the idle herd. Each connection completes one healthz probe
    // (so it is provably established and served, not just SYN-queued)
    // and then sits idle, still registered with the event loop.
    let mut herd = Vec::with_capacity(IDLE_CONNECTIONS);
    for i in 0..IDLE_CONNECTIONS {
        let mut stream = TcpStream::connect(server.addr()).expect("connect idle conn");
        stream
            .write_all(b"GET /v1/healthz HTTP/1.1\r\nhost: x\r\n\r\n")
            .expect("probe");
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .expect("timeout");
        let mut buf = [0u8; 1024];
        let n = stream.read(&mut buf).expect("probe response");
        assert!(
            String::from_utf8_lossy(&buf[..n]).starts_with("HTTP/1.1 200"),
            "idle conn {i} probe failed"
        );
        herd.push(stream);
    }
    let stats = server.net_stats();
    assert!(
        stats.open_connections >= IDLE_CONNECTIONS as u64,
        "herd not fully open: {stats:?}"
    );
    assert!(stats.peak_open >= IDLE_CONNECTIONS as u64);

    // With all 512 connections idle-open, planning load must run at
    // full throughput on the 2-thread pool — and byte-identically.
    let request = SubmitBatch::new("qrm", BatchSpec::new(2, 12, 31337));
    let expected = service.submit(&request).expect("in-process reference");
    let started = Instant::now();
    let mut client = Client::connect(server.addr().to_string());
    for round in 0..10 {
        let report = client.submit(&request).expect("submit with idle herd open");
        assert_eq!(
            report.reports, expected.reports,
            "round {round}: idle herd changed served bytes"
        );
    }
    let elapsed = started.elapsed();
    // Generous real-time bound: the old design does not finish at all
    // (both workers pinned in idle reads); the event loop finishes in
    // milliseconds-to-seconds. The bound only guards against a silent
    // reintroduction of connection-pinned workers.
    assert!(
        elapsed < Duration::from_secs(60),
        "planning load starved by idle connections: {elapsed:?}"
    );

    // The herd is still alive and served after the load.
    let final_stats = server.net_stats();
    assert!(
        final_stats.open_connections >= IDLE_CONNECTIONS as u64,
        "herd was shed during load: {final_stats:?}"
    );
    drop(herd);
}

/// The calling process's OS thread count.
#[cfg(target_os = "linux")]
fn os_threads() -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("procfs")
        .count()
}

#[cfg(target_os = "linux")]
#[test]
fn idle_router_connections_cost_no_threads() {
    // A router over a backend that refuses every connect: healthz is
    // answered on the router's own loop, and nothing here touches the
    // global pool the other test sizes.
    let dead = std::net::TcpListener::bind("127.0.0.1:0")
        .expect("reserve a port")
        .local_addr()
        .expect("port")
        .to_string();
    let config = RouterConfig {
        // Idle connections must stay open for the entire test.
        keep_alive: Duration::from_secs(120),
        ..RouterConfig::default()
    };
    let router = Router::bind("127.0.0.1:0", vec![dead], config).expect("bind router");
    let threads_after_bind = os_threads();

    let mut herd = Vec::with_capacity(128);
    for i in 0..128 {
        let mut stream = TcpStream::connect(router.addr()).expect("connect idle conn");
        stream
            .write_all(b"GET /v1/healthz HTTP/1.1\r\nhost: x\r\n\r\n")
            .expect("probe");
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .expect("timeout");
        let mut buf = [0u8; 1024];
        let n = stream.read(&mut buf).expect("probe response");
        assert!(
            String::from_utf8_lossy(&buf[..n]).starts_with("HTTP/1.1 503"),
            "idle conn {i}: healthz over a dead fleet is 503"
        );
        herd.push(stream);
    }
    // The slack absorbs threads the concurrently running test spawns
    // (its loop thread and pool workers); one thread per connection
    // would add 128.
    let grown = os_threads().saturating_sub(threads_after_bind);
    assert!(
        grown < 16,
        "128 idle router connections grew the process by {grown} threads"
    );
    drop(herd);
}
