//! `service-http`: the wire. One keep-alive `qrm_net::Client` on one
//! connection sends requests, closed loop, to an in-process
//! `qrm_net::Server` over loopback. Specs are 16x16, two shots each.
//!
//! A pass walks a fixed cycle of specs. Each spec is first sent while
//! absent from the response cache (a miss: it is planned and inserted),
//! then three hits repeat it and the two specs before it. The cache
//! budget holds a few entries, so by the time a spec comes round again
//! it has been evicted and misses once more: every pass does the same
//! work, with exactly three hits per miss. A `GET /v1/stats` follows
//! every 16th request; its counters check that split at the end.
//!
//! The latency metrics are taken over the whole mix, so the p50 is a
//! hit and the p90 a miss. A hit is nearly all codec and transport; a
//! miss runs the whole closed loop (render, detect, plan, compile,
//! execute, repair rounds) behind the wire.
//!
//! The client thread and the server's event-loop thread are pinned to
//! one CPU. Unpinned, the scheduler puts them on one core or on two,
//! and a hit's latency follows the placement (about 45 or 65 µs), which
//! would make the hit p50 flip between runs.

use std::sync::Arc;
use std::time::Instant;

use qrm_control::pipeline::{PipelineConfig, PipelineReport, PlannerChoice};
use qrm_core::scheduler::{QrmConfig, QrmScheduler};
use qrm_net::{Client, NetConfig, Server};
use qrm_server::cache::entry_cost;
use qrm_server::{BatchReport, BatchSpec, PlanService, ServiceStats, SubmitBatch};
use qrm_wire::{FromJson, ToJson};

use crate::measure::{Class, FirstSeen, Recorder, Setups, MIX};
use crate::stages::{
    add_pool_activity, layer_values, overhead_note, replay_request, scheduler_values,
    summarize_served, Spans,
};
use crate::{end_to_end, per_layer, Args, Outcome, Tally, POOL_THREADS};

const SIZE: usize = 16;
const SHOTS_PER_SPEC: usize = 2;
/// Distinct specs in the cycle; each misses once per pass.
const SPECS: usize = 32;
/// Cache budget in units of one spec's entry. Entries differ in size by
/// less than 2x, so the cache holds at least the four most recent specs
/// a pass needs resident (the newest miss and the three the hits
/// repeat across the next insertion), and far fewer than the cycle.
const CACHE_ENTRIES: usize = 8;
/// A stats request follows every this many batch requests.
const STATS_EVERY: usize = 16;
const PLANNER: &str = "qrm";

fn pipeline_config() -> PipelineConfig {
    PipelineConfig {
        workers: POOL_THREADS,
        ..PipelineConfig::default()
    }
}

/// The service's default `qrm` registration, cached with `cache_bytes`.
fn service(cache_bytes: usize) -> PlanService {
    PlanService::builder()
        .cache_bytes(cache_bytes)
        .register(
            PLANNER,
            PlannerChoice::Software(QrmConfig::default()),
            pipeline_config(),
        )
        .build()
}

struct Bench {
    client: Client,
    server: Server,
    requests: Vec<SubmitBatch>,
    cache_bytes: usize,
    /// Server stats after the warm-up.
    warm_stats: ServiceStats,
}

/// The traced run's extra state: an in-process mirror of the served
/// service that receives the same requests (so it hits and misses in
/// step), and the planner the shot replays use.
struct Tracer<'a> {
    mirror: PlanService,
    planner: &'a QrmScheduler,
    spans: Spans,
}

/// Pins the calling thread to the first CPU it may run on and returns
/// that CPU. Threads it spawns later (each set-up's server event loop)
/// inherit the mask; the worker pool, started earlier, keeps every CPU.
fn pin_to_one_cpu() -> Result<usize, String> {
    /// `cpu_set_t`: a mask of 1024 CPUs.
    #[repr(C)]
    struct CpuSet([u64; 16]);
    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
    }
    let size = std::mem::size_of::<CpuSet>();
    let mut allowed = CpuSet([0; 16]);
    // SAFETY: `allowed` is a writable mask of `size` bytes; pid 0 is the
    // calling thread.
    if unsafe { sched_getaffinity(0, size, &mut allowed) } != 0 {
        return Err(format!(
            "sched_getaffinity: {}",
            std::io::Error::last_os_error()
        ));
    }
    let cpu = (0..1024)
        .find(|&i| (allowed.0[i / 64] >> (i % 64)) & 1 == 1)
        .ok_or("no CPU in the affinity mask")?;
    let mut one = CpuSet([0; 16]);
    one.0[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a mask of `size` bytes, only read.
    if unsafe { sched_setaffinity(0, size, &one) } != 0 {
        return Err(format!(
            "sched_setaffinity: {}",
            std::io::Error::last_os_error()
        ));
    }
    Ok(cpu)
}

fn setup(seed: u64) -> Result<Bench, String> {
    let requests: Vec<SubmitBatch> = (0..SPECS as u64)
        .map(|j| {
            let spec = BatchSpec::new(
                SHOTS_PER_SPEC,
                SIZE,
                seed.wrapping_mul(1000).wrapping_add(j),
            );
            SubmitBatch::new(PLANNER, spec)
        })
        .collect();
    let last = &requests[SPECS - 1];
    let reports = service(0).submit(last).map_err(|e| e.to_string())?.reports;
    let cache_bytes = CACHE_ENTRIES * entry_cost(&last.cache_key(), &reports);
    let server = Server::bind(
        "127.0.0.1:0",
        Arc::new(service(cache_bytes)),
        NetConfig::default(),
    )
    .map_err(|e| format!("binding the server: {e}"))?;
    let mut client = Client::connect(server.addr().to_string());
    // Warm-up: the cycle's last three specs, left in the cache as every
    // pass leaves them, so the first pass hits and misses like the rest.
    for request in &requests[SPECS - 3..] {
        client.submit(request).map_err(|e| e.to_string())?;
    }
    let warm_stats = client.stats().map_err(|e| e.to_string())?;
    Ok(Bench {
        client,
        server,
        requests,
        cache_bytes,
        warm_stats,
    })
}

/// The specs one pass sends, with whether each is a miss.
fn schedule() -> impl Iterator<Item = (usize, bool)> {
    (0..SPECS).flat_map(|j| {
        [
            (j, true),
            (j, false),
            ((j + SPECS - 1) % SPECS, false),
            ((j + SPECS - 2) % SPECS, false),
        ]
    })
}

/// One pass over the schedule, every response checked against the
/// first one served for its spec. With `tracer`, each request is also
/// split into its layers.
fn pass(
    bench: &mut Bench,
    reference: &mut FirstSeen<Vec<PipelineReport>>,
    rec: &mut Recorder,
    tally: &mut Tally,
    mut tracer: Option<&mut Tracer<'_>>,
) -> Result<(), String> {
    for (n, (k, miss)) in schedule().enumerate() {
        let request = &bench.requests[k];
        let class = if miss { Class::Compute } else { Class::Hit };
        let client = &mut bench.client;
        let pool_before = tracer.is_some().then(rayon::global_pool_stats);
        let out = rec.op(class, SHOTS_PER_SPEC as u64, || client.submit(request));
        if let (Some(tracer), Some(before)) = (tracer.as_deref_mut(), pool_before) {
            add_pool_activity(&mut tracer.spans, &before);
        }
        let checked = match out {
            Ok(b) => {
                let traced = match tracer.as_deref_mut() {
                    Some(tracer) => trace_request(tracer, request, &b, miss, rec.last_us()),
                    None => Ok(()),
                };
                if reference.check(k, b.reports) {
                    traced.map_err(|e| format!("spec {k}: {e}"))
                } else {
                    Err(format!("spec {k}: reports differ from the first served"))
                }
            }
            Err(e) => Err(format!("spec {k}: {e}")),
        };
        tally.record(checked);
        if (n + 1).is_multiple_of(STATS_EVERY) {
            let client = &mut bench.client;
            let stats = rec.op(Class::Stats, 0, || client.stats());
            tally.record(stats.map(drop).map_err(|e| format!("stats: {e}")));
        }
    }
    Ok(())
}

/// Splits one served request into its layers: the in-process submit
/// (on the mirror), the codec on both sides, the transport remainder
/// and, for a miss, the shot stages. Checks that the mirror, the codec
/// round trip and the stage replay all reproduce the served reports.
fn trace_request(
    tracer: &mut Tracer<'_>,
    request: &SubmitBatch,
    served: &BatchReport,
    miss: bool,
    http_us: f64,
) -> Result<(), String> {
    let spans = &mut tracer.spans;
    let t0 = Instant::now();
    let mirrored = tracer.mirror.submit(request).map_err(|e| e.to_string())?;
    let submit_us = t0.elapsed().as_secs_f64() * 1e6;
    spans.add("server.submit", submit_us);
    spans.add("server.overhead", submit_us - mirrored.wall_us);
    let (request_text, response_text) =
        spans.time("wire.encode", || (request.to_json(), served.to_json()));
    let (request_back, response_back) = spans.time("wire.decode", || {
        (
            SubmitBatch::from_json(&request_text),
            BatchReport::from_json(&response_text),
        )
    });
    spans.add("wire.response_bytes", response_text.len() as f64);
    spans.add("net.http", http_us);
    if mirrored.reports != served.reports {
        return Err("the in-process mirror differs from the served reports".into());
    }
    if request_back.as_ref() != Ok(request)
        || !response_back.is_ok_and(|r| r.reports == served.reports)
    {
        return Err("the codec does not round-trip".into());
    }
    if miss {
        replay_request(
            request,
            &pipeline_config(),
            tracer.planner,
            &served.reports,
            spans,
        )?;
    }
    Ok(())
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let cpu = pin_to_one_cpu()?;
    let (mut setups, mut bench) = Setups::first(|| setup(args.seed))?;
    let mut tally = Tally::default();
    let mut notes = vec![format!("client and server event loop pinned to CPU {cpu}")];

    let mut reference = FirstSeen::new(SPECS);

    let untraced_s = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let rec = Recorder::run(untraced_s, |rec| {
        pass(&mut bench, &mut reference, rec, &mut tally, None)?;
        setups.repeat()
    })?;
    // Over the mix, three hits to a miss: the p50 is a hit, the p90 a
    // miss.
    let latency = rec.best(&MIX);
    let hit = rec.best(&[Class::Hit]);
    let miss = rec.best(&[Class::Compute]);
    notes.push(rec.probe_line());
    notes.push(format!(
        "best times: hit p50 {:.1} us p90 {:.1} us ({} hits); miss p50 {:.1} us p90 {:.1} us ({} misses); stats p50 {:.1} us",
        hit.p50,
        hit.p90,
        hit.count,
        miss.p50,
        miss.p90,
        miss.count,
        rec.best(&[Class::Stats]).p50
    ));
    notes.push(rec.all_line(&MIX));

    // Off every timed path: each spec's served reports must equal an
    // uncached in-process submit and a replay through the stage
    // functions, which also checks that every plan executes to its
    // prediction.
    let planner = QrmScheduler::new(QrmConfig::default()).with_workers(POOL_THREADS);
    let plain = service(0);
    let mut spans = Spans::default();
    for (k, (request, reports)) in bench.requests.iter().zip(reference.all()).enumerate() {
        let checked = match plain.submit(request) {
            Ok(b) if b.reports == *reports => {
                replay_request(request, &pipeline_config(), &planner, reports, &mut spans)
            }
            Ok(_) => Err("served reports differ from an in-process submit".into()),
            Err(e) => Err(e.to_string()),
        };
        if let Err(e) = checked {
            tally.fail(format!("spec {k}: {e}"));
        }
    }
    let (quality, digest, fpga) = summarize_served(&bench.requests, reference.all())?;

    let mut passes = rec.passes();
    let metrics = if args.trace {
        let mut tracer = Tracer {
            mirror: service(bench.cache_bytes),
            planner: &planner,
            spans: Spans::default(),
        };
        // Bring the mirror's cache to the served cache's state.
        for (k, _) in schedule() {
            tracer
                .mirror
                .submit(&bench.requests[k])
                .map_err(|e| e.to_string())?;
        }
        let before = bench.client.stats().map_err(|e| e.to_string())?;
        let served_before = bench.server.requests_served();
        let traced = Recorder::run(args.seconds / 2.0, |rec| {
            pass(
                &mut bench,
                &mut reference,
                rec,
                &mut tally,
                Some(&mut tracer),
            )
        })?;
        let after = bench.client.stats().map_err(|e| e.to_string())?;
        passes += traced.passes();
        let spans = &tracer.spans;
        let ops = traced.ops() as f64;
        let mut values = layer_values(spans, ops);
        scheduler_values(&before.scheduler, &after.scheduler, ops, &mut values);
        fpga.insert_into(&mut values);
        let traced_latency = traced.best(&MIX);
        values.insert("trace.overhead_us", traced_latency.mean - latency.mean);
        values.insert("net.hit_latency_p50_us", hit.p50);
        values.insert("net.hit_latency_p90_us", hit.p90);
        let transport = spans.get("net.http")
            - spans.get("server.submit")
            - spans.get("wire.encode")
            - spans.get("wire.decode");
        values.insert("net.transport_us", transport / ops);
        values.insert(
            "net.requests_served",
            (bench.server.requests_served() - served_before) as f64,
        );
        let lookups = after.cache.lookups - before.cache.lookups;
        let hits = after.cache.hits - before.cache.hits;
        values.insert(
            "server.cache_hit_ratio",
            hits as f64 / lookups.max(1) as f64,
        );
        values.insert("server.cache_peak_bytes", after.cache.peak_bytes as f64);
        values.insert(
            "server.cache_evictions",
            (after.cache.evictions - before.cache.evictions) as f64 / ops,
        );
        notes.push(format!(
            "accounting: request mean {:.1} us = submit {:.1} us (pipeline {:.1} + server overhead {:.1}) + codec {:.1} us (encode {:.1}, decode {:.1}) + transport {:.1} us",
            spans.get("net.http") / ops,
            spans.get("server.submit") / ops,
            (spans.get("server.submit") - spans.get("server.overhead")) / ops,
            spans.get("server.overhead") / ops,
            (spans.get("wire.encode") + spans.get("wire.decode")) / ops,
            spans.get("wire.encode") / ops,
            spans.get("wire.decode") / ops,
            transport / ops
        ));
        notes.push(overhead_note(traced_latency.mean, latency.mean));
        per_layer(&values, traced.ops())
    } else {
        end_to_end(&rec, &latency, &quality, &fpga, setups.fastest())?
    };

    // Every timed pass must have missed once per spec and hit three
    // times per miss; anything else means the hit/miss split is wrong.
    let end = bench.client.stats().map_err(|e| e.to_string())?;
    let misses = end.cache.misses - bench.warm_stats.cache.misses;
    let hits = end.cache.hits - bench.warm_stats.cache.hits;
    let expected = (passes * SPECS) as u64;
    if misses != expected || hits != 3 * expected {
        tally.fail(format!(
            "cache split wrong: {misses} misses and {hits} hits over {passes} passes"
        ));
    }
    Ok(tally.into_outcome(metrics, digest, notes))
}
