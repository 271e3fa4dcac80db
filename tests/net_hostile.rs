//! Hostile-client torture suite for the readiness-driven HTTP front
//! end — the pin that keeps the event loop honest.
//!
//! Every case here is a peer a pool-job-per-connection server handles
//! badly (each hostile socket used to pin a pool worker for its whole
//! timeout) and the event loop must handle well: slowloris trickles,
//! byte-at-a-time bodies, half-closes mid-request, oversized heads,
//! pipelining, mid-response resets, and keep-alive churn storms. The
//! contract under attack is always the same:
//!
//! 1. every malformed request is answered with the documented
//!    `(status, ErrorReply.code)` pair or the connection closes
//!    cleanly — never a hang, never an unframed byte; and
//! 2. **the sixth determinism leg**: while the abuse is in flight,
//!    well-behaved submissions on the same server return reports
//!    bit-identical to an in-process `PlanService::submit` — hostile
//!    load may cost latency, never bytes.
//!
//! The router runs the same event loop over another route table, so
//! the framing cases also run against a router with one live backend
//! and must get the same answers as from the server.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use qrm_bench::{build_service, ServeConfig};
use qrm_net::{Client, NetConfig, Router, RouterConfig, Server};
use qrm_server::{BatchSpec, PlanService, SubmitBatch};
use qrm_wire::{ErrorReply, FromJson, ToJson};

/// A served planner registry behind a loopback event-loop server.
fn serve(config: NetConfig) -> (Server, Arc<PlanService>) {
    let serve = ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    };
    let service = Arc::new(build_service(&serve));
    let server = Server::bind("127.0.0.1:0", Arc::clone(&service), config).expect("bind loopback");
    (server, service)
}

/// One front end under test: a plain server, or a router relaying to
/// one live backend server.
struct Front {
    name: &'static str,
    addr: SocketAddr,
    /// The service behind the front end: the digest reference.
    service: Arc<PlanService>,
    /// The front end's own stats route, and a key its body carries.
    stats: (&'static str, &'static str),
    /// Declared before the server so the router shuts down first.
    _router: Option<Router>,
    /// The server under test, or the router's backend.
    _server: Server,
}

/// The server under `config`, and a router whose loop takes
/// `config`'s `max_body_bytes` and `keep_alive` over a backend server
/// under `config`.
fn fronts(config: NetConfig) -> [Front; 2] {
    let (server, service) = serve(config.clone());
    let plain = Front {
        name: "server",
        addr: server.addr(),
        service,
        stats: ("/v1/stats", "\"batches_served\""),
        _router: None,
        _server: server,
    };
    let router_config = RouterConfig {
        max_body_bytes: config.max_body_bytes,
        keep_alive: config.keep_alive,
        ..RouterConfig::default()
    };
    let (backend, service) = serve(config);
    let router = Router::bind(
        "127.0.0.1:0",
        vec![backend.addr().to_string()],
        router_config,
    )
    .expect("bind router");
    assert!(
        qrm_bench::wait_for_server(&router.addr().to_string(), Duration::from_secs(5)),
        "router never saw its backend healthy"
    );
    let routed = Front {
        name: "router",
        addr: router.addr(),
        service,
        stats: ("/v1/router/stats", "\"relayed\""),
        _router: Some(router),
        _server: backend,
    };
    [plain, routed]
}

/// A config with deadlines short enough to torture in test time.
fn short_deadlines() -> NetConfig {
    NetConfig {
        keep_alive: Duration::from_millis(200),
        request_timeout: Duration::from_millis(400),
        ..NetConfig::default()
    }
}

/// The sixth-leg probe: submits on a fresh connection to `addr` and
/// asserts the report is bit-identical to `service`'s in-process one.
fn assert_digest_unchanged(addr: SocketAddr, service: &PlanService, tag: &str) {
    let request = SubmitBatch::new("qrm", BatchSpec::new(2, 12, 4242));
    let expected = service.submit(&request).expect("in-process reference");
    let mut client = Client::connect(addr.to_string());
    let over_http = client.submit(&request).expect("submit during abuse");
    assert_eq!(
        over_http.reports, expected.reports,
        "{tag}: hostile load changed served bytes"
    );
}

/// Reads to EOF with a hard cap on patience; returns what arrived.
fn read_to_eof(stream: &mut TcpStream, patience: Duration) -> String {
    stream
        .set_read_timeout(Some(patience))
        .expect("read timeout");
    let mut response = Vec::new();
    let mut buf = [0u8; 4096];
    loop {
        match stream.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => response.extend_from_slice(&buf[..n]),
            Err(_) => break,
        }
    }
    String::from_utf8_lossy(&response).into_owned()
}

/// Splits an HTTP response into `(status, body)`.
fn parse_response(response: &str) -> (u16, &str) {
    let status = response
        .split(' ')
        .nth(1)
        .unwrap_or("0")
        .parse()
        .unwrap_or(0);
    let body = response.split("\r\n\r\n").nth(1).unwrap_or("");
    (status, body)
}

/// The status of every response in a pipelined stream, in order.
fn statuses(response: &str) -> Vec<u16> {
    response
        .split("HTTP/1.1 ")
        .skip(1)
        .map(|r| r.split(' ').next().unwrap_or("").parse().unwrap_or(0))
        .collect()
}

/// The `(status, ErrorReply.code)` pair of a refusal.
fn refusal(response: &str) -> (u16, String) {
    let (status, body) = parse_response(response);
    let code = ErrorReply::from_json(body)
        .map(|reply| reply.code)
        .unwrap_or_default();
    (status, code)
}

#[test]
fn slowloris_header_trickle_is_closed_at_the_request_deadline() {
    let (server, service) = serve(short_deadlines());
    let mut stream = TcpStream::connect(server.addr()).expect("connect");
    let started = Instant::now();
    // Trickle a plausible head one byte at a time, forever (as far as
    // the peer is concerned). The request deadline must cut it off.
    let head = b"POST /v1/batch HTTP/1.1\r\nhost: x\r\ncontent-length: 10\r\n";
    let mut closed = false;
    'outer: for _ in 0..50 {
        for byte in head {
            if stream.write_all(&[*byte]).is_err() {
                closed = true;
                break 'outer;
            }
            std::thread::sleep(Duration::from_millis(20));
            let mut buf = [0u8; 64];
            stream
                .set_read_timeout(Some(Duration::from_millis(1)))
                .expect("timeout");
            if matches!(stream.read(&mut buf), Ok(0)) {
                closed = true;
                break 'outer;
            }
        }
    }
    assert!(closed, "slowloris connection never closed");
    let elapsed = started.elapsed();
    assert!(
        elapsed < Duration::from_secs(5),
        "closed by the request deadline, not peer patience: {elapsed:?}"
    );
    assert_digest_unchanged(server.addr(), &service, "slowloris");
}

#[test]
fn byte_at_a_time_body_is_served_within_the_deadline() {
    // A slow-but-legal peer: the whole request fits inside the request
    // deadline even at one byte per write. It must be *served*, not
    // shed — the deadline is a bound, not a speed requirement.
    let (server, service) = serve(NetConfig {
        request_timeout: Duration::from_secs(30),
        ..NetConfig::default()
    });
    let body = SubmitBatch::new("typical", BatchSpec::new(1, 12, 7)).to_json();
    let payload = format!(
        "POST /v1/batch HTTP/1.1\r\nconnection: close\r\ncontent-length: {}\r\n\r\n{body}",
        body.len()
    );
    let mut stream = TcpStream::connect(server.addr()).expect("connect");
    for chunk in payload.as_bytes().chunks(1) {
        stream.write_all(chunk).expect("trickle byte");
    }
    let response = read_to_eof(&mut stream, Duration::from_secs(40));
    let (status, _) = parse_response(&response);
    assert_eq!(status, 200, "trickled-but-complete request serves");
    assert_digest_unchanged(server.addr(), &service, "byte-at-a-time");
}

#[test]
fn half_close_mid_request_is_reaped() {
    // The peer sends half a request then shuts down its write side.
    // The server must reap the connection (EOF mid-request) without
    // waiting out the full deadline budget times anything.
    let (server, service) = serve(short_deadlines());
    let before = server.net_stats();
    let mut stream = TcpStream::connect(server.addr()).expect("connect");
    stream
        .write_all(b"POST /v1/batch HTTP/1.1\r\ncontent-length: 100\r\n\r\nhalf")
        .expect("partial request");
    stream
        .shutdown(std::net::Shutdown::Write)
        .expect("half-close");
    let response = read_to_eof(&mut stream, Duration::from_secs(5));
    assert_eq!(response, "", "no reply to an abandoned request");
    // The close is visible in the gauges (cause: peer).
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let now = server.net_stats();
        if now.closed_peer > before.closed_peer {
            break;
        }
        assert!(Instant::now() < deadline, "half-closed conn never reaped");
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_digest_unchanged(server.addr(), &service, "half-close");
}

#[test]
fn oversized_request_line_headers_and_bodies_get_typed_refusals() {
    let mut answers = Vec::new();
    for front in fronts(NetConfig {
        max_body_bytes: 1024,
        ..NetConfig::default()
    }) {
        let name = front.name;
        let mut refusals = Vec::new();

        // Request line far over MAX_LINE_BYTES: refused as soon as the
        // overflow is proven, well before any terminator arrives.
        let mut stream = TcpStream::connect(front.addr).expect("connect");
        let long_line = format!("GET /{} HTTP/1.1", "a".repeat(64 << 10));
        let _ = stream.write_all(long_line.as_bytes());
        let response = read_to_eof(&mut stream, Duration::from_secs(5));
        let answer = refusal(&response);
        assert_eq!(
            answer,
            (400, "headers_too_large".to_string()),
            "{name}: oversized request line: {response:?}"
        );
        refusals.push(answer);

        // Unbounded header section: one header line over the limit.
        let mut stream = TcpStream::connect(front.addr).expect("connect");
        let _ = stream.write_all(
            format!(
                "GET /v1/healthz HTTP/1.1\r\nx-padding: {}",
                "b".repeat(64 << 10)
            )
            .as_bytes(),
        );
        let response = read_to_eof(&mut stream, Duration::from_secs(5));
        let answer = refusal(&response);
        assert_eq!(
            answer,
            (400, "headers_too_large".to_string()),
            "{name}: oversized header: {response:?}"
        );
        refusals.push(answer);

        // Declared body over the configured cap: refused from the header
        // alone (no body bytes were sent).
        let mut stream = TcpStream::connect(front.addr).expect("connect");
        stream
            .write_all(b"POST /v1/batch HTTP/1.1\r\ncontent-length: 10000\r\n\r\n")
            .expect("oversized declaration");
        let response = read_to_eof(&mut stream, Duration::from_secs(5));
        let answer = refusal(&response);
        assert_eq!(
            answer,
            (413, "payload_too_large".to_string()),
            "{name}: oversized body: {response:?}"
        );
        refusals.push(answer);

        // Chunk-accumulated overflow: no single header lies, but the
        // chunks keep coming past the cap.
        let mut stream = TcpStream::connect(front.addr).expect("connect");
        let chunk = "c".repeat(512);
        let mut payload =
            String::from("POST /v1/batch HTTP/1.1\r\ntransfer-encoding: chunked\r\n\r\n");
        for _ in 0..4 {
            payload.push_str(&format!("{:x}\r\n{chunk}\r\n", chunk.len()));
        }
        let _ = stream.write_all(payload.as_bytes());
        let response = read_to_eof(&mut stream, Duration::from_secs(5));
        let answer = refusal(&response);
        assert_eq!(
            answer,
            (413, "payload_too_large".to_string()),
            "{name}: chunk overflow: {response:?}"
        );
        refusals.push(answer);

        assert_digest_unchanged(front.addr, &front.service, name);
        answers.push(refusals);
    }
    assert_eq!(answers[0], answers[1], "server and router refuse alike");
}

#[test]
fn pipelined_requests_are_answered_in_order() {
    let mut answers = Vec::new();
    for front in fronts(NetConfig::default()) {
        let name = front.name;
        let (stats_path, stats_key) = front.stats;
        // Three back-to-back requests in one write: two healthz probes
        // around a stats fetch. Responses must come back in order, each
        // well-framed.
        let mut stream = TcpStream::connect(front.addr).expect("connect");
        stream
            .write_all(
                format!(
                    "GET /v1/healthz HTTP/1.1\r\nhost: x\r\n\r\n\
                     GET {stats_path} HTTP/1.1\r\nhost: x\r\n\r\n\
                     GET /v1/healthz HTTP/1.1\r\nhost: x\r\nconnection: close\r\n\r\n"
                )
                .as_bytes(),
            )
            .expect("pipelined burst");
        let response = read_to_eof(&mut stream, Duration::from_secs(10));
        let probed = statuses(&response);
        assert_eq!(probed, [200, 200, 200], "{name}: {response:?}");
        // In-order framing: healthz body, then the stats body, then the
        // closing healthz body.
        let first_health = response.find("\"status\":\"ok\"").expect("first healthz");
        let stats_body = response.find(stats_key).expect("stats body");
        let last_health = response.rfind("\"status\":\"ok\"").expect("last healthz");
        assert!(
            first_health < stats_body && stats_body < last_health,
            "{name}: responses out of order: {response:?}"
        );
        // Pipelining POSTs through a deferred handler (a planning job on
        // the server, a relay thread on the router) keeps ordering too.
        let body = SubmitBatch::new("typical", BatchSpec::new(1, 12, 11)).to_json();
        let one = format!(
            "POST /v1/batch HTTP/1.1\r\ncontent-length: {}\r\n\r\n{body}",
            body.len()
        );
        let mut stream = TcpStream::connect(front.addr).expect("connect");
        stream
            .write_all(format!("{one}{one}").as_bytes())
            .expect("pipelined posts");
        stream
            .shutdown(std::net::Shutdown::Write)
            .expect("finish sending");
        let response = read_to_eof(&mut stream, Duration::from_secs(30));
        let posted = statuses(&response);
        assert_eq!(
            posted,
            [200, 200],
            "{name}: both pipelined submissions served: {response:?}"
        );
        assert_digest_unchanged(front.addr, &front.service, name);
        answers.push((probed, posted));
    }
    assert_eq!(answers[0], answers[1], "server and router answer alike");
}

#[test]
fn abrupt_reset_during_response_write_only_costs_that_connection() {
    let (server, service) = serve(NetConfig::default());
    for _ in 0..8 {
        let mut stream = TcpStream::connect(server.addr()).expect("connect");
        stream
            .write_all(b"GET /v1/stats HTTP/1.1\r\nhost: x\r\n\r\n")
            .expect("request");
        // Read one byte (the response is in flight), then RST the
        // connection by dropping with lingering data unread + SO_LINGER
        // semantics approximated by immediate drop.
        let mut one = [0u8; 1];
        let _ = stream.read(&mut one);
        drop(stream);
    }
    // The server shrugged: a well-behaved exchange still serves, and
    // the loop thread never died.
    assert_digest_unchanged(server.addr(), &service, "mid-write reset");
}

#[test]
fn keep_alive_churn_storm_leaves_the_server_consistent() {
    // Hundreds of connect → one request → close cycles, as fast as
    // loopback allows. Gauges must stay consistent (accepted == open +
    // closed) and the digest unchanged throughout.
    let (server, service) = serve(NetConfig::default());
    for round in 0..300 {
        let mut stream = TcpStream::connect(server.addr()).expect("connect");
        stream
            .write_all(b"GET /v1/healthz HTTP/1.1\r\nhost: x\r\nconnection: close\r\n\r\n")
            .expect("churn request");
        let response = read_to_eof(&mut stream, Duration::from_secs(5));
        let (status, _) = parse_response(&response);
        assert_eq!(status, 200, "churn round {round}: {response:?}");
    }
    let stats = server.net_stats();
    assert!(stats.accepted_total >= 300);
    assert_eq!(
        stats.accepted_total,
        stats.open_connections + stats.closed_total,
        "gauge invariant broke under churn: {stats:?}"
    );
    assert_eq!(
        stats.closed_total,
        stats.closed_idle
            + stats.closed_request_timeout
            + stats.closed_write_stalled
            + stats.closed_peer
            + stats.closed_framing
            + stats.closed_shutdown
            + stats.closed_over_capacity,
        "per-cause close counters do not sum: {stats:?}"
    );
    assert_digest_unchanged(server.addr(), &service, "churn storm");
}

#[test]
fn hostile_mix_under_concurrent_load_keeps_reports_bit_identical() {
    // The sixth leg under fire: every hostile shape at once, while a
    // well-behaved client hammers submissions. All reports must be
    // byte-identical to the in-process reference for the whole run.
    let (server, service) = serve(short_deadlines());
    let addr = server.addr();
    let request = SubmitBatch::new("qrm", BatchSpec::new(2, 12, 999));
    let expected = service.submit(&request).expect("reference");
    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));

    std::thread::scope(|scope| {
        // Abuser: cycles through hostile shapes until told to stop.
        let abuser_stop = Arc::clone(&stop);
        scope.spawn(move || {
            let mut shape = 0usize;
            while !abuser_stop.load(std::sync::atomic::Ordering::Relaxed) {
                let Ok(mut stream) = TcpStream::connect(addr) else {
                    continue;
                };
                match shape % 4 {
                    0 => {
                        // Trickle a head fragment, abandon it.
                        let _ = stream.write_all(b"POST /v1/batch HT");
                        std::thread::sleep(Duration::from_millis(30));
                    }
                    1 => {
                        // Garbage request line.
                        let _ = stream.write_all(b"\x16\x03\x01 junk\r\n\r\n");
                        let _ = read_to_eof(&mut stream, Duration::from_millis(200));
                    }
                    2 => {
                        // Half-close mid-body.
                        let _ = stream
                            .write_all(b"POST /v1/batch HTTP/1.1\r\ncontent-length: 50\r\n\r\nxx");
                        let _ = stream.shutdown(std::net::Shutdown::Write);
                    }
                    _ => {
                        // Reset right after the request goes out.
                        let _ = stream.write_all(b"GET /v1/stats HTTP/1.1\r\n\r\n");
                    }
                }
                shape += 1;
            }
        });

        // Two well-behaved clients, 10 submissions each, all digests
        // checked against the in-process reference.
        let mut handles = Vec::new();
        for _ in 0..2 {
            let request = request.clone();
            let expected = &expected;
            handles.push(scope.spawn(move || {
                let mut client = Client::connect(addr.to_string());
                for _ in 0..10 {
                    let report = client.submit(&request).expect("submit under abuse");
                    assert_eq!(
                        report.reports, expected.reports,
                        "hostile mix changed served bytes"
                    );
                }
            }));
        }
        for handle in handles {
            handle.join().expect("well-behaved client");
        }
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
    });
}
