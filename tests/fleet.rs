//! The determinism contract's **fleet leg**: a consistent-hash router
//! fanning the load over three backend servers produces byte-identical
//! reports to a single in-process service — even when a backend dies
//! mid-load.
//!
//! The fault injection uses `Server::debug_sever` (behind the
//! `test-hooks` feature): the severed backend closes every connection
//! *between* reading a request and executing it, the bytes-free close
//! that proves to the router the request was never taken. The router
//! must fail the work over to the surviving ring candidates, and —
//! because the close is provably pre-execution — no submission may
//! execute twice; the suite pins that with the fleet-wide
//! `batches_served` sum.

use std::sync::Arc;
use std::time::{Duration, Instant};

use qrm_bench::{build_service, route_load, service_load, DigestRow, ServeConfig};
use qrm_net::{raw_roundtrip, Client, NetConfig, Router, RouterConfig};
use qrm_server::{BatchSpec, PlanService, SubmitBatch};
use qrm_wire::{ErrorReply, FromJson, ToJson};

/// Spins up `count` backend servers (each its own [`PlanService`] with
/// the response cache enabled) plus a router over all of them, with the
/// health re-probe interval pushed out to one minute: the immediate
/// first sweep marks live backends up, and afterwards a severed backend
/// stays *nominally healthy* — forcing requests through the failover
/// path instead of letting a health probe quietly hide the corpse.
/// Returns once that first sweep has marked every backend up.
fn fleet(
    count: usize,
    serve: &ServeConfig,
) -> (Vec<qrm_net::Server>, Vec<Arc<PlanService>>, Router) {
    let mut servers = Vec::new();
    let mut services = Vec::new();
    for _ in 0..count {
        let service = Arc::new(build_service(serve));
        let server =
            qrm_net::Server::bind("127.0.0.1:0", Arc::clone(&service), NetConfig::default())
                .expect("bind backend");
        servers.push(server);
        services.push(service);
    }
    let backends: Vec<String> = servers.iter().map(|s| s.addr().to_string()).collect();
    let config = RouterConfig {
        health_interval: Duration::from_secs(60),
        ..RouterConfig::default()
    };
    let router = Router::bind("127.0.0.1:0", backends, config).expect("bind router");
    assert!(
        qrm_bench::wait_for_server(&router.addr().to_string(), Duration::from_secs(5)),
        "router healthz never came up"
    );
    // `healthz` answers 200 as soon as *any* backend is up, while the
    // first sweep marks them up one at a time; load sent before it ends
    // relays a spec whose home is still marked down to another backend
    // and warms the wrong cache.
    let deadline = Instant::now() + Duration::from_secs(5);
    while !router.stats().backends.iter().all(|b| b.healthy) {
        assert!(
            Instant::now() < deadline,
            "the first health sweep never marked every backend up"
        );
        std::thread::sleep(Duration::from_millis(2));
    }
    (servers, services, router)
}

#[test]
fn routed_fleet_digest_matches_in_process_run() {
    // clients=3 x batches=4 x repeat=2 = 24 submissions; the second
    // pass repeats the first's specs, so with caching on it exercises
    // the cached path on whichever backend each spec homed to.
    let serve = ServeConfig {
        clients: 3,
        batches: 4,
        shots: 1,
        size: 12,
        workers: 1,
        cache_bytes: 1 << 20,
        repeat: 2,
        ..ServeConfig::default()
    };
    let local = service_load(&serve);

    let (_servers, services, router) = fleet(3, &serve);
    let (routed, router_stats) = route_load(&router.addr().to_string(), &serve);

    assert_eq!(routed.digest, local.digest, "fleet digest != in-process");
    let lines: Vec<String> = local.digest.iter().map(DigestRow::line).collect();
    assert_eq!(
        routed
            .digest
            .iter()
            .map(DigestRow::line)
            .collect::<Vec<_>>(),
        lines,
        "digest lines are byte-identical"
    );

    // Every submission was relayed exactly once, none were refused.
    assert_eq!(router_stats.requests, 24);
    assert_eq!(router_stats.relayed, 24);
    assert_eq!(router_stats.no_backend, 0);
    assert_eq!(router_stats.failovers, 0, "no failure, no failover");
    let routed_total: u64 = router_stats.backends.iter().map(|b| b.routed).sum();
    assert_eq!(routed_total, 24);
    assert!(router_stats.backends.iter().all(|b| b.healthy));

    // No double execution: across the fleet, exactly one service call
    // (cached or planned) per submission.
    let served: u64 = services.iter().map(|s| s.stats().batches_served).sum();
    assert_eq!(served, 24);
    // The repeat pass hit warm caches: placement is spec-keyed, so a
    // spec's second submission landed on the backend whose cache its
    // first submission filled.
    let hits: u64 = services.iter().map(|s| s.stats().cache.hits).sum();
    assert_eq!(hits, 12, "every second-pass spec was a cache hit");
}

#[test]
fn authed_fleet_relays_credentials_to_backends() {
    let serve = ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    };
    let token = "fleet-secret";
    // Backends demand a bearer token; the router holds no credential of
    // its own and must forward each caller's `Authorization` verbatim.
    let mut servers = Vec::new();
    let mut services = Vec::new();
    for _ in 0..3 {
        let service = Arc::new(build_service(&serve));
        let config = NetConfig {
            auth_token: Some(token.to_string()),
            ..NetConfig::default()
        };
        servers.push(
            qrm_net::Server::bind("127.0.0.1:0", Arc::clone(&service), config)
                .expect("bind backend"),
        );
        services.push(service);
    }
    let backends: Vec<String> = servers.iter().map(|s| s.addr().to_string()).collect();
    let router = Router::bind("127.0.0.1:0", backends, RouterConfig::default()).expect("bind");
    assert!(
        qrm_bench::wait_for_server(&router.addr().to_string(), Duration::from_secs(5)),
        "router healthz never came up (health probes are auth-exempt)"
    );

    let request = SubmitBatch::new("qrm", BatchSpec::new(2, 12, 7700));
    let expected = build_service(&serve)
        .submit(&request)
        .expect("in-process baseline");

    // With the credential, the routed report matches in-process.
    let mut authed = Client::connect(router.addr().to_string()).with_auth_token(token);
    let report = authed
        .submit(&request)
        .expect("authed submit through the router");
    assert_eq!(report.reports, expected.reports, "authed fleet != baseline");

    // Without it, the backend's 401 travels back through the router
    // untouched — the router neither strips nor supplies credentials.
    let mut anon = Client::connect(router.addr().to_string());
    match anon.submit(&request).unwrap_err() {
        qrm_net::ClientError::Http { status, reply } => {
            assert_eq!(status, 401);
            assert_eq!(reply.expect("typed error").code, "unauthorized");
        }
        other => panic!("expected HTTP 401 through the router, got {other}"),
    }
    let served: u64 = services.iter().map(|s| s.stats().batches_served).sum();
    assert_eq!(served, 1, "only the authed submission executed");
}

/// The deterministic request stream of the fault-injection scenario:
/// request `i` and request `i + n/2` are identical, so the second half
/// re-submits the first half's specs after the fleet has lost a node.
fn fleet_request(i: usize, n: usize) -> SubmitBatch {
    let base = i % (n / 2);
    let planner = ["qrm", "typical", "tetris"][base % 3];
    SubmitBatch::new(planner, BatchSpec::new(1, 12, 4400 + base as u64))
}

#[test]
fn backend_killed_mid_load_fails_over_without_double_execution() {
    let n = 24;
    let serve = ServeConfig {
        workers: 1,
        cache_bytes: 1 << 20,
        ..ServeConfig::default()
    };

    // Baseline: the same stream through one in-process service.
    let baseline_service = build_service(&serve);
    let baseline: Vec<_> = (0..n)
        .map(|i| {
            baseline_service
                .submit(&fleet_request(i, n))
                .expect("baseline submit")
        })
        .collect();

    let (mut servers, services, router) = fleet(3, &serve);
    let mut client = Client::connect(router.addr().to_string());

    // First half: the fleet is whole.
    for (i, expected) in baseline.iter().enumerate().take(n / 2) {
        let report = client
            .submit(&fleet_request(i, n))
            .expect("pre-failure submit");
        assert_eq!(
            report.reports, expected.reports,
            "request {i}: fleet != baseline"
        );
    }

    // Kill the busiest backend — the one whose cache the most first-half
    // specs warmed — so the second half *must* fail over. The health
    // thread won't re-probe for a minute (see `fleet`), so the router
    // still believes the corpse is healthy: every re-submitted spec
    // homed there hits the sever, observes the bytes-free close, and
    // moves to the next ring candidate.
    let stats = router.stats();
    let victim = (0..servers.len())
        .max_by_key(|&i| {
            stats
                .backends
                .iter()
                .find(|b| b.addr == servers[i].addr().to_string())
                .expect("backend in stats")
                .routed
        })
        .expect("non-empty fleet");
    let victim_routed = stats
        .backends
        .iter()
        .map(|b| b.routed)
        .max()
        .expect("stats");
    assert!(
        victim_routed > 0,
        "victim served nothing; sever would be vacuous"
    );
    servers[victim].debug_sever();

    // Second half: identical specs, one backend down, all must serve —
    // byte-identically.
    for (i, expected) in baseline.iter().enumerate().skip(n / 2) {
        let report = client
            .submit(&fleet_request(i, n))
            .expect("post-failure submit");
        assert_eq!(
            report.reports, expected.reports,
            "request {i}: fleet != baseline"
        );
    }

    let stats = router.stats();
    assert_eq!(stats.relayed, n as u64, "every submission served");
    assert_eq!(stats.no_backend, 0);
    // The first re-submitted spec homed on the victim observes the
    // bytes-free close and fails over; that failure also demotes the
    // victim in the candidate order, so later specs skip it outright —
    // failovers stay at one, not one per spec.
    assert!(
        stats.failovers >= 1,
        "the dead backend's specs must fail over"
    );
    let victim_addr = servers[victim].addr().to_string();
    let victim_row = stats
        .backends
        .iter()
        .find(|b| b.addr == victim_addr)
        .expect("victim in stats");
    assert!(!victim_row.healthy, "failover marks the victim unhealthy");
    assert_eq!(
        victim_row.failed_over, stats.failovers,
        "only the victim failed over"
    );

    // No double execution anywhere: the sever happens strictly before
    // execution, so across the whole fleet exactly `n` submissions were
    // served (first-half work on the victim included).
    let served: u64 = services.iter().map(|s| s.stats().batches_served).sum();
    assert_eq!(served, n as u64);
}

#[test]
fn router_whose_only_backend_refuses_answers_503_no_backend() {
    // A port nothing listens on: every connect is refused, the
    // provably-unaccepted failure the router may fail over from.
    let dead = std::net::TcpListener::bind("127.0.0.1:0")
        .expect("reserve a port")
        .local_addr()
        .expect("port")
        .to_string();
    let router = Router::bind("127.0.0.1:0", vec![dead], RouterConfig::default()).expect("bind");

    let body = SubmitBatch::new("qrm", BatchSpec::new(1, 12, 5)).to_json();
    let submit = format!(
        "POST /v1/batch HTTP/1.1\r\nconnection: close\r\ncontent-length: {}\r\n\r\n{body}",
        body.len()
    );
    let response =
        raw_roundtrip(router.addr(), submit.as_bytes(), &NetConfig::default()).expect("submit");
    assert!(
        response.starts_with("HTTP/1.1 503 Service Unavailable\r\n"),
        "{response:?}"
    );
    let reply = response.split("\r\n\r\n").nth(1).expect("body");
    assert_eq!(
        ErrorReply::from_json(reply).expect("typed error").code,
        "no_backend"
    );

    let health = raw_roundtrip(
        router.addr(),
        b"GET /v1/healthz HTTP/1.1\r\nconnection: close\r\n\r\n",
        &NetConfig::default(),
    )
    .expect("healthz");
    assert!(health.starts_with("HTTP/1.1 503 "), "{health:?}");

    let stats = router.stats();
    assert_eq!(stats.requests, 1);
    assert_eq!(stats.no_backend, 1);
    assert_eq!(stats.failovers, 1, "the refused connect is one failover");
    assert_eq!(stats.relayed, 0);
}
