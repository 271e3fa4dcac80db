//! The determinism contract's **network leg**, end to end over
//! loopback HTTP: a `BatchReport` fetched through `qrm_net` is
//! bit-identical to the same submission served in-process by
//! `PlanService::submit`, which is bit-identical to a direct
//! `Pipeline::run` — for all seven planners, at batch workers
//! ∈ {1, 4}, on one connection or many.
//!
//! The suite also exercises every documented endpoint and the HTTP
//! front end's failure surface (`docs/PROTOCOL.md`): malformed JSON,
//! schema violations, unknown planners, oversized bodies, bad
//! methods, unknown routes, missing content-length, unsupported
//! transfer encodings, and over-limit specs all produce the
//! documented status + stable `ErrorReply` code, never a hang or a
//! protocol violation. (Chunked request bodies are *served* — and
//! pinned here — since the event-loop front end.)

use std::sync::Arc;
use std::time::Duration;

use qrm_bench::{build_service, planner_choices, ServeConfig};
use qrm_control::pipeline::{Pipeline, PipelineConfig, Shot};
use qrm_net::{raw_roundtrip, Client, NetConfig, Server};
use qrm_server::{BatchSpec, PlanService, SubmitBatch};
use qrm_wire::{ErrorReply, FromJson, ToJson};

/// A service with all seven planners (CLI registry names) at the given
/// batch worker count, behind a freshly bound loopback server.
fn serve_all(workers: usize) -> (Server, Arc<PlanService>) {
    serve_all_with(workers, NetConfig::default())
}

fn serve_all_with(workers: usize, config: NetConfig) -> (Server, Arc<PlanService>) {
    let serve = ServeConfig {
        workers,
        ..ServeConfig::default()
    };
    serve_configured(&serve, config)
}

fn serve_configured(serve: &ServeConfig, config: NetConfig) -> (Server, Arc<PlanService>) {
    let service = Arc::new(build_service(serve));
    let server = Server::bind("127.0.0.1:0", Arc::clone(&service), config).expect("bind loopback");
    (server, service)
}

#[test]
fn http_reports_are_bit_identical_for_all_planners_at_workers_1_and_4() {
    for workers in [1usize, 4] {
        let (server, service) = serve_all(workers);
        let mut client = Client::connect(server.addr().to_string());
        for (name, choice) in planner_choices() {
            let request = SubmitBatch::new(name, BatchSpec::new(3, 12, 5000 + workers as u64));

            // Leg 4 (network): HTTP submit through the codec...
            let over_http = client.submit(&request).expect("HTTP submit");
            // ...equals leg 3 (service): in-process submit...
            let in_process = service.submit(&request).expect("in-process submit");
            assert_eq!(
                over_http.reports, in_process.reports,
                "{name} workers={workers}: HTTP != in-process"
            );
            assert_eq!(over_http.planner, request.planner);

            // ...equals legs 1-2 (pipeline): a direct batched run with
            // an identically configured pipeline.
            let target = request.spec.target().expect("target");
            let shots: Vec<Shot> = request
                .spec
                .workload()
                .expect("workload")
                .truths
                .into_iter()
                .map(|truth| Shot::new(truth, target))
                .collect();
            let pipeline = Pipeline::new(PipelineConfig {
                workers,
                loss_prob: 0.01,
                max_rounds: ServeConfig::default().rounds,
                ..PipelineConfig::default()
            });
            let direct = pipeline
                .run(&*choice.resolve(workers), &shots, request.spec.seed)
                .expect("direct run")
                .reports;
            assert_eq!(
                over_http.reports, direct,
                "{name} workers={workers}: HTTP != direct pipeline"
            );
        }
    }
}

#[test]
fn keep_alive_serves_many_requests_on_one_connection() {
    let (server, _service) = serve_all(1);
    let mut client = Client::connect(server.addr().to_string());
    let request = SubmitBatch::new("typical", BatchSpec::new(1, 12, 9));
    let first = client.submit(&request).expect("first");
    for _ in 0..4 {
        let again = client.submit(&request).expect("repeat");
        assert_eq!(
            again.reports, first.reports,
            "identical specs, identical reports"
        );
    }
    let stats = client.stats().expect("stats");
    assert_eq!(stats.batches_served, 5);
    // 6 requests so far (5 submits + stats); the healthz probe makes 7 —
    // all on one connection.
    assert_eq!(client.healthz().expect("healthz").status, "ok");
    assert_eq!(server.requests_served(), 7);
    assert_eq!(server.connections_accepted(), 1);
}

#[test]
fn concurrent_http_clients_get_deterministic_reports() {
    let (server, service) = serve_all(1);
    let addr = server.addr().to_string();
    let request = SubmitBatch::new("qrm", BatchSpec::new(2, 12, 77));
    let expected = service.submit(&request).expect("reference");
    std::thread::scope(|scope| {
        for _ in 0..4 {
            let addr = addr.clone();
            let request = request.clone();
            let expected = &expected;
            scope.spawn(move || {
                let mut client = Client::connect(addr);
                for _ in 0..3 {
                    let report = client.submit(&request).expect("submit");
                    assert_eq!(report.reports, expected.reports);
                }
            });
        }
    });
    assert!(server.connections_accepted() >= 4);
}

#[test]
fn stats_endpoint_reports_served_work() {
    let (server, _service) = serve_all(1);
    let mut client = Client::connect(server.addr().to_string());
    client
        .submit(&SubmitBatch::new("tetris", BatchSpec::new(2, 12, 3)))
        .expect("submit");
    let stats = client.stats().expect("stats");
    assert_eq!(stats.batches_served, 1);
    assert_eq!(stats.shots_served, 2);
    assert_eq!(stats.planners.len(), 7);
    let tetris = stats.planners.iter().find(|p| p.name == "tetris").unwrap();
    assert_eq!(tetris.batches, 1);
    assert_eq!(tetris.latency.count(), 1);
    assert!(tetris.latency.mean_us() > 0.0);

    // With the response cache on, hits (answered on the event loop)
    // count exactly as in-process ones: one spec sent as a miss, two
    // hits, then traced, which bypasses the cache but is still served.
    let serve = ServeConfig {
        workers: 1,
        cache_bytes: 1 << 20,
        ..ServeConfig::default()
    };
    let (server, _service) = serve_configured(&serve, NetConfig::default());
    let mut client = Client::connect(server.addr().to_string());
    let request = SubmitBatch::new("tetris", BatchSpec::new(2, 12, 3));
    let miss = client.submit(&request).expect("miss");
    for _ in 0..2 {
        let hit = client.submit(&request).expect("hit");
        assert_eq!(hit.reports, miss.reports);
    }
    let traced = client
        .submit(&request.clone().with_trace(true))
        .expect("traced");
    assert_eq!(traced.reports, miss.reports);
    assert!(traced.trace.is_some());
    let stats = client.stats().expect("stats");
    assert_eq!(stats.cache.lookups, 3);
    assert_eq!(stats.cache.hits, 2);
    assert_eq!(stats.cache.misses, 1);
    assert_eq!(stats.batches_served, 4);
    let tetris = stats.planners.iter().find(|p| p.name == "tetris").unwrap();
    assert_eq!(tetris.latency.count(), 4);
}

/// The dataflow-scheduler counters added in PR 7 survive the wire:
/// `GET /v1/stats` carries a `scheduler` object whose totals reflect
/// the served batch (scheduler lag and queue depth are what makes
/// admission starvation observable remotely — `docs/PROTOCOL.md`).
#[test]
fn stats_endpoint_surfaces_scheduler_totals() {
    let (server, service) = serve_all(2);
    let mut client = Client::connect(server.addr().to_string());
    client
        .submit(&SubmitBatch::new("tetris", BatchSpec::new(3, 12, 9)))
        .expect("submit");
    let stats = client.stats().expect("stats");
    // Every shot was planned at least once and each round is several
    // scheduler tasks, so the counters are visibly nonzero.
    assert!(stats.scheduler.planned_shots >= 3);
    assert!(stats.scheduler.plan_groups >= 1);
    assert!(stats.scheduler.tasks_dispatched > stats.scheduler.planned_shots);
    // The remote snapshot matches the in-process one bit-for-bit.
    assert_eq!(stats.scheduler, service.stats().scheduler);
    // Queue-depth gauges ride alongside for the same observability.
    assert_eq!(stats.queued, 0);
    assert_eq!(stats.inflight, 0);
}

#[test]
fn healthz_lists_the_registered_planners() {
    let (server, _service) = serve_all(1);
    let mut client = Client::connect(server.addr().to_string());
    let health = client.healthz().expect("healthz");
    assert_eq!(health.status, "ok");
    let mut expected: Vec<String> = planner_choices()
        .iter()
        .map(|(n, _)| n.to_string())
        .collect();
    expected.sort();
    assert_eq!(health.planners, expected);
}

/// Expects `client.submit` to fail with the given HTTP status and
/// `ErrorReply` code.
fn assert_http_error(
    result: Result<qrm_server::BatchReport, qrm_net::ClientError>,
    status: u16,
    code: &str,
) {
    match result {
        Err(qrm_net::ClientError::Http {
            status: got,
            reply: Some(reply),
        }) => {
            assert_eq!(got, status, "reply {reply}");
            assert_eq!(reply.code, code, "reply {reply}");
        }
        other => panic!("expected HTTP {status} {code}, got {other:?}"),
    }
}

#[test]
fn unknown_planner_is_a_typed_404() {
    let (server, _service) = serve_all(1);
    let mut client = Client::connect(server.addr().to_string());
    assert_http_error(
        client.submit(&SubmitBatch::new("warp-drive", BatchSpec::new(1, 12, 1))),
        404,
        "unknown_planner",
    );
}

#[test]
fn degenerate_spec_is_a_typed_422() {
    let (server, _service) = serve_all(1);
    let mut client = Client::connect(server.addr().to_string());
    // size 0 passes the wire schema but fails workload expansion.
    assert_http_error(
        client.submit(&SubmitBatch::new("qrm", BatchSpec::new(1, 0, 1))),
        422,
        "planning_failed",
    );
}

#[test]
fn out_of_range_fill_is_a_typed_422_not_a_panic() {
    // `fill` is a probability the workload generator *asserts* on; an
    // unvalidated remote value would panic the connection handler and
    // close the stream with no reply. The server must range-check it.
    let (server, service) = serve_all(1);
    let mut client = Client::connect(server.addr().to_string());
    for fill in [2.0, -1.0] {
        assert_http_error(
            client.submit(&SubmitBatch::new(
                "qrm",
                BatchSpec::new(1, 12, 1).with_fill(fill),
            )),
            422,
            "spec_invalid",
        );
    }
    // Non-finite floats encode as JSON null (the codec's documented
    // lossy mapping), which fails the schema before the range check —
    // still typed, still not a panic.
    for fill in [f64::NAN, f64::INFINITY] {
        assert_http_error(
            client.submit(&SubmitBatch::new(
                "qrm",
                BatchSpec::new(1, 12, 1).with_fill(fill),
            )),
            400,
            "bad_request",
        );
    }
    assert_eq!(service.stats().batches_served, 0);
    // The boundary values are valid.
    for fill in [0.0, 1.0] {
        client
            .submit(&SubmitBatch::new(
                "qrm",
                BatchSpec::new(1, 12, 1).with_fill(fill),
            ))
            .expect("boundary fill serves");
    }
}

#[test]
fn client_does_not_resubmit_after_a_response_timeout() {
    // A read timeout after the request was delivered must NOT retry:
    // the server may still be planning, and resubmitting would execute
    // the batch twice. Fake server: answers the first request (so the
    // second travels the retry-eligible *reused*-connection path),
    // swallows the second, never replies. A retrying client would open
    // a second connection — the counter must stay at one.
    use std::io::{Read, Write};
    use std::sync::atomic::{AtomicU64, Ordering};

    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind fake");
    let addr = listener.local_addr().expect("addr");
    let connections = Arc::new(AtomicU64::new(0));
    let seen = Arc::clone(&connections);
    let acceptor = std::thread::spawn(move || {
        for stream in listener.incoming().take(2) {
            let Ok(mut stream) = stream else { break };
            if seen.fetch_add(1, Ordering::SeqCst) > 0 {
                continue; // a retry's connection: count it, drop it
            }
            let mut buf = [0u8; 2048];
            let _ = stream.read(&mut buf); // first request (healthz)
            let body = "{\"status\":\"ok\",\"planners\":[]}";
            let _ = write!(
                stream,
                "HTTP/1.1 200 OK\r\ncontent-type: application/json\r\ncontent-length: {}\r\nconnection: keep-alive\r\n\r\n{body}",
                body.len()
            );
            let _ = stream.read(&mut buf); // second request: swallow it,
            std::thread::sleep(Duration::from_millis(600)); // reply never
        }
    });

    let mut client =
        Client::connect(addr.to_string()).with_read_timeout(Duration::from_millis(200));
    client.healthz().expect("warm-up on connection 1");
    let second = client.submit(&SubmitBatch::new("typical", BatchSpec::new(1, 12, 1)));
    assert!(
        matches!(&second, Err(qrm_net::ClientError::Io(err))
            if err.kind() == std::io::ErrorKind::TimedOut),
        "a read timeout reports as a timeout: {second:?}"
    );
    std::thread::sleep(Duration::from_millis(300));
    assert_eq!(
        connections.load(Ordering::SeqCst),
        1,
        "a timed-out submission must not be retried on a new connection"
    );
    drop(client);
    let _ = std::net::TcpStream::connect(addr); // unblock take(2)
    acceptor.join().expect("fake server thread");
}

#[test]
fn over_limit_specs_are_refused_before_planning() {
    let config = NetConfig {
        max_shots: 4,
        max_size: 32,
        ..NetConfig::default()
    };
    let (server, service) = serve_all_with(1, config);
    let mut client = Client::connect(server.addr().to_string());
    assert_http_error(
        client.submit(&SubmitBatch::new("qrm", BatchSpec::new(5, 12, 1))),
        422,
        "spec_too_large",
    );
    assert_http_error(
        client.submit(&SubmitBatch::new("qrm", BatchSpec::new(1, 34, 1))),
        422,
        "spec_too_large",
    );
    assert_eq!(
        service.stats().batches_served,
        0,
        "nothing reached the gate"
    );
    // At the limits, the submission is served.
    client
        .submit(&SubmitBatch::new("qrm", BatchSpec::new(4, 32, 1)))
        .expect("within limits");
}

/// Sends raw bytes and returns `(status, body)` split from the
/// response.
fn raw_exchange(server: &Server, payload: &str) -> (u16, String) {
    let response = raw_roundtrip(server.addr(), payload.as_bytes(), &NetConfig::default())
        .expect("raw exchange");
    let status: u16 = response
        .split(' ')
        .nth(1)
        .expect("status line")
        .parse()
        .expect("numeric status");
    let body = response
        .split("\r\n\r\n")
        .nth(1)
        .expect("body after blank line");
    (status, body.to_string())
}

/// Sends raw bytes and returns `(status, ErrorReply)` parsed from the
/// response.
fn raw_error(server: &Server, payload: &str) -> (u16, ErrorReply) {
    let (status, body) = raw_exchange(server, payload);
    let reply = ErrorReply::from_json(&body).expect("typed error body");
    (status, reply)
}

#[test]
fn malformed_json_is_a_typed_400() {
    let (server, _service) = serve_all(1);
    let body = "{\"planner\": \"qrm\", \"spec\": {";
    let (status, reply) = raw_error(
        &server,
        &format!(
            "POST /v1/batch HTTP/1.1\r\nconnection: close\r\ncontent-length: {}\r\n\r\n{body}",
            body.len()
        ),
    );
    assert_eq!(status, 400);
    assert_eq!(reply.code, "bad_json");
}

#[test]
fn schema_mismatch_is_a_typed_400() {
    let (server, _service) = serve_all(1);
    let body = "{\"planner\": 7, \"spec\": {\"shots\":1,\"size\":12,\"fill\":0.5,\"seed\":1}}";
    let (status, reply) = raw_error(
        &server,
        &format!(
            "POST /v1/batch HTTP/1.1\r\nconnection: close\r\ncontent-length: {}\r\n\r\n{body}",
            body.len()
        ),
    );
    assert_eq!(status, 400);
    assert_eq!(reply.code, "bad_request");
}

#[test]
fn oversized_body_is_a_typed_413_without_reading_the_body() {
    let config = NetConfig {
        max_body_bytes: 256,
        ..NetConfig::default()
    };
    let (server, _service) = serve_all_with(1, config);
    // Declare a body far over the limit; send none of it — the server
    // must refuse from the header alone.
    let (status, reply) = raw_error(
        &server,
        "POST /v1/batch HTTP/1.1\r\nconnection: close\r\ncontent-length: 1000000\r\n\r\n",
    );
    assert_eq!(status, 413);
    assert_eq!(reply.code, "payload_too_large");
}

#[test]
fn bad_method_is_a_typed_405_and_unknown_route_a_404() {
    let (server, _service) = serve_all(1);
    let (status, reply) = raw_error(
        &server,
        "DELETE /v1/batch HTTP/1.1\r\nconnection: close\r\n\r\n",
    );
    assert_eq!(status, 405);
    assert_eq!(reply.code, "method_not_allowed");

    let (status, reply) = raw_error(
        &server,
        "GET /v2/everything HTTP/1.1\r\nconnection: close\r\n\r\n",
    );
    assert_eq!(status, 404);
    assert_eq!(reply.code, "not_found");
}

#[test]
fn post_without_content_length_is_a_typed_411() {
    let (server, _service) = serve_all(1);
    let (status, reply) = raw_error(
        &server,
        "POST /v1/batch HTTP/1.1\r\nconnection: close\r\n\r\n",
    );
    assert_eq!(status, 411);
    assert_eq!(reply.code, "length_required");
}

#[test]
fn chunked_request_bodies_are_served() {
    let (server, service) = serve_all(1);
    let body = SubmitBatch::new("typical", BatchSpec::new(1, 12, 4)).to_json();
    let (first, rest) = body.split_at(body.len() / 2);
    let payload = format!(
        "POST /v1/batch HTTP/1.1\r\ntransfer-encoding: chunked\r\nconnection: close\r\n\r\n\
         {:x}\r\n{first}\r\n{:x}\r\n{rest}\r\n0\r\n\r\n",
        first.len(),
        rest.len(),
    );
    let (status, response) = raw_exchange(&server, &payload);
    assert_eq!(status, 200, "chunked submission serves: {response}");
    // The de-chunked submission really reached the service.
    assert_eq!(service.stats().batches_served, 1);
}

#[test]
fn non_chunked_transfer_encodings_are_a_typed_501() {
    let (server, _service) = serve_all(1);
    let (status, reply) = raw_error(
        &server,
        "POST /v1/batch HTTP/1.1\r\ntransfer-encoding: gzip\r\nconnection: close\r\n\r\n",
    );
    assert_eq!(status, 501);
    assert_eq!(reply.code, "unsupported_transfer_encoding");
}

#[test]
fn chunked_body_conflicting_with_content_length_is_refused() {
    // CL + TE on one request is the request-smuggling shape; the
    // server refuses it outright rather than picking a winner.
    let (server, _service) = serve_all(1);
    let (status, reply) = raw_error(
        &server,
        "POST /v1/batch HTTP/1.1\r\ntransfer-encoding: chunked\r\ncontent-length: 5\r\n\
         connection: close\r\n\r\n0\r\n\r\n",
    );
    assert_eq!(status, 400);
    assert_eq!(reply.code, "bad_request");
}

#[test]
fn idle_keep_alive_connections_are_closed_and_clients_reconnect() {
    let config = NetConfig {
        keep_alive: Duration::from_millis(100),
        ..NetConfig::default()
    };
    let (server, _service) = serve_all_with(1, config);
    let mut client = Client::connect(server.addr().to_string());
    let request = SubmitBatch::new("typical", BatchSpec::new(1, 12, 4));
    let first = client.submit(&request).expect("first");
    // Outlive the server's idle timeout, then reuse the (now stale)
    // connection: the client must transparently reconnect.
    std::thread::sleep(Duration::from_millis(300));
    let second = client.submit(&request).expect("after idle close");
    assert_eq!(second.reports, first.reports);
    assert!(server.connections_accepted() >= 2, "a reconnect happened");
}

#[test]
fn trickled_request_bytes_cannot_pin_a_connection_past_the_deadline() {
    // A per-read idle timeout alone would let a peer send one byte per
    // interval forever, pinning server state. Once a request's first
    // byte arrives, the total request deadline must close the
    // connection no matter how steadily bytes trickle in.
    use std::io::{Read, Write};

    let config = NetConfig {
        request_timeout: Duration::from_millis(300),
        keep_alive: Duration::from_secs(5), // far larger: must NOT be the bound
        ..NetConfig::default()
    };
    let (server, _service) = serve_all_with(1, config);
    let mut stream = std::net::TcpStream::connect(server.addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_millis(50)))
        .expect("timeout");
    let started = std::time::Instant::now();
    let mut closed = false;
    for _ in 0..40 {
        if stream.write_all(b"X").is_err() {
            closed = true;
            break;
        }
        let mut buf = [0u8; 64];
        if matches!(stream.read(&mut buf), Ok(0)) {
            closed = true;
            break;
        }
        std::thread::sleep(Duration::from_millis(100));
    }
    assert!(closed, "server never closed the trickling connection");
    assert!(
        started.elapsed() < Duration::from_secs(3),
        "closed by the request deadline, not the idle timeout"
    );
    // The pool slot is free again: a healthy request serves promptly.
    let mut client = Client::connect(server.addr().to_string());
    assert_eq!(client.healthz().expect("alive after trickle").status, "ok");
}

#[test]
fn raw_roundtrip_timeout_tracks_the_configured_deadlines() {
    // `raw_roundtrip` used to hardcode a 10 s read timeout, silently
    // disagreeing with whatever deadlines the server was configured
    // with. It now derives its wait from the config: with short
    // configured deadlines, an unanswered (incomplete) request must
    // resolve in roughly keep_alive + request_timeout — not 10 s.
    let config = NetConfig {
        keep_alive: Duration::from_millis(100),
        request_timeout: Duration::from_millis(200),
        ..NetConfig::default()
    };
    let (server, _service) = serve_all_with(1, config.clone());
    let started = std::time::Instant::now();
    // Incomplete head: the server's request deadline closes the
    // connection; the helper's read-to-EOF then returns empty.
    let response = raw_roundtrip(server.addr(), b"POST /v1/batch HTTP/1.1\r\n", &config)
        .expect("deadline close yields clean EOF");
    assert_eq!(response, "", "no reply to an incomplete request");
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "bounded by the configured deadlines, not a hardcoded 10 s: {:?}",
        started.elapsed()
    );
}

#[test]
fn shutdown_stops_accepting() {
    let (mut server, _service) = serve_all(1);
    let addr = server.addr().to_string();
    let mut client = Client::connect(addr.clone());
    client.healthz().expect("alive before shutdown");
    server.shutdown();
    let mut fresh = Client::connect(addr);
    assert!(
        fresh.healthz().is_err(),
        "new connections must fail after shutdown"
    );
}

#[test]
fn wire_text_of_a_report_is_stable_across_resubmission() {
    // Byte-level determinism of the full wire pipeline: two identical
    // submissions produce byte-identical JSON payloads (wall_us is the
    // one measured field, so compare with it stripped via decode).
    let (server, service) = serve_all(1);
    let mut client = Client::connect(server.addr().to_string());
    let request = SubmitBatch::new("hybrid", BatchSpec::new(2, 12, 31));
    let a = client.submit(&request).expect("a");
    let b = client.submit(&request).expect("b");
    assert_eq!(a.reports, b.reports);
    // And the codec itself is deterministic: re-encoding the decoded
    // payload gives identical text both times.
    assert_eq!(a.reports.to_json(), b.reports.to_json());
    drop(server);
    // The service outlives its front end (Arc), still serving in-process.
    assert!(service.submit(&request).is_ok());
}
