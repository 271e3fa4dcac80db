//! Regenerates every table and figure of the paper's evaluation, and
//! runs end-to-end planner sweeps.
//!
//! Usage: `cargo run --release -p qrm-bench --bin experiments -- [cmd]`
//! where `cmd` is one of `fig7a`, `fig7b`, `fig8`, `headline`,
//! `quality`, `ablations`, `engine`, `kernels`, `system`, `sweep`,
//! `serve`, `route`, or `all` (default; every command except `route`).
//!
//! `sweep` runs the full image→detect→plan→execute pipeline for one or
//! all seven planners and prints per-planner fill/round/motion numbers
//! plus the worker-pool counters **attributed to each planner's run**
//! (snapshot deltas, so one process sweeping many planners doesn't
//! smear counters across rows):
//!
//! ```text
//! experiments -- sweep [--planner all|qrm|typical|tetris|psca|mta1|hybrid|fpga]
//!                      [--workers N] [--shots N] [--size N] [--rounds N] [--seed N]
//! ```
//!
//! `serve` stands up the long-lived planning service (`qrm_server`)
//! with all seven planners registered and hammers it with concurrent
//! mixed-planner batch submissions from client threads, printing
//! throughput, per-planner latency histograms, service/pool stats, and
//! deterministic per-planner `digest` lines:
//!
//! ```text
//! experiments -- serve [--clients N] [--batches N] [--shots N] [--size N]
//!                      [--rounds N] [--seed N] [--workers N] [--max-inflight N]
//!                      [--cache-bytes N] [--repeat N]
//! ```
//!
//! The same service also runs **over the network** (`qrm_net`, see
//! `docs/PROTOCOL.md`): `--listen ADDR` starts a blocking HTTP server
//! with the same seven-planner registry, and `--remote ADDR` drives
//! the identical load through HTTP clients instead of in-process
//! submission — the printed `digest` lines are byte-identical to the
//! in-process run's (the CI network job diffs them):
//!
//! ```text
//! experiments -- serve --listen 127.0.0.1:7070 [--workers N] [--rounds N] [--max-inflight N]
//!                      [--cache-bytes N] [--auth-token TOK] [--stream-threshold N]
//! experiments -- serve --remote 127.0.0.1:7070 [--clients N] [--batches N] ...
//! ```
//!
//! `--auth-token` makes the `--listen` server require
//! `Authorization: Bearer TOK` (and `--remote` clients send it);
//! `--stream-threshold` chunks response bodies at or above N bytes —
//! both exist so CI can diff the remote digest through the
//! authenticated, streamed path.
//!
//! `route` is the fleet front end (`docs/PROTOCOL.md`, router section):
//! `--listen` stands up a consistent-hash router over running backends,
//! and `--remote` drives the standard load through a router. Digest
//! lines are byte-identical to an in-process `serve` of the same
//! parameters — even when a backend dies mid-load (the CI `fleet` job
//! diffs exactly that):
//!
//! ```text
//! experiments -- route --listen 127.0.0.1:7000 --backends 127.0.0.1:7071,127.0.0.1:7072 [--replicas N]
//! experiments -- route --remote 127.0.0.1:7000 [--clients N] [--batches N] [--repeat N] ...
//! ```
//!
//! `--workers 0` (the default) uses one pool worker per core; any other
//! value only changes how many pool *jobs* run concurrently — OS
//! threads are never spawned after pool initialisation, which the
//! printed `threads_spawned` counter makes visible.

use std::io::{ErrorKind, Write};

use qrm_bench::*;

/// Shadows the standard `println!` for this whole binary, so every line
/// of output goes through [`write_line`] and a reader that closes stdout
/// early (`experiments ablations | head -n 2`) ends the run cleanly.
macro_rules! println {
    () => {
        write_line(format_args!(""))
    };
    ($($arg:tt)*) => {
        write_line(format_args!($($arg)*))
    };
}

/// Writes one line to stdout. A closed pipe exits with status 0, since
/// the reader has every line it asked for; any other write error panics
/// as the standard `println!` would.
fn write_line(line: std::fmt::Arguments<'_>) {
    let mut stdout = std::io::stdout().lock();
    if let Err(err) = stdout
        .write_fmt(line)
        .and_then(|()| stdout.write_all(b"\n"))
    {
        if err.kind() == ErrorKind::BrokenPipe {
            std::process::exit(0);
        }
        panic!("failed printing to stdout: {err}");
    }
}

/// Every command `main` dispatches on; anything else prints this list
/// and exits 2.
const COMMANDS: [&str; 13] = [
    "fig7a",
    "fig7b",
    "fig8",
    "headline",
    "quality",
    "ablations",
    "engine",
    "kernels",
    "system",
    "sweep",
    "serve",
    "route",
    "all",
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cmd = args.first().map_or("all", String::as_str);
    let all = cmd == "all";
    if all || cmd == "fig7a" {
        print_fig7a();
    }
    if all || cmd == "fig7b" {
        print_fig7b();
    }
    if all || cmd == "fig8" {
        print_fig8();
    }
    if all || cmd == "headline" {
        print_headline();
    }
    if all || cmd == "quality" {
        print_quality();
    }
    if all || cmd == "ablations" {
        print_ablations();
    }
    if all || cmd == "engine" {
        print_engine();
    }
    if all || cmd == "kernels" {
        print_kernels();
    }
    if all || cmd == "system" {
        print_system();
    }
    if all || cmd == "sweep" {
        // Skip the command token itself ("all" or "sweep") when one was
        // given; a bare `experiments` has no token to skip.
        match parse_sweep_args(&args[usize::from(!args.is_empty())..]) {
            Ok((planner, sweep)) => print_sweep(&planner, &sweep),
            Err(msg) => {
                eprintln!("{msg}");
                std::process::exit(2);
            }
        }
    }
    if all || cmd == "serve" {
        match parse_serve_args(&args[usize::from(!args.is_empty())..]) {
            Ok((ServeMode::InProcess, serve)) => print_serve(&serve, None),
            Ok((ServeMode::Listen(addr), serve)) => serve_listen(&addr, &serve),
            Ok((ServeMode::Remote(addr), serve)) => print_serve(&serve, Some(&addr)),
            Err(msg) => {
                eprintln!("{msg}");
                std::process::exit(2);
            }
        }
    }
    // Not part of `all`: routing needs running backends to point at.
    if cmd == "route" {
        match parse_route_args(&args[1..]) {
            Ok((
                RouteMode::Listen {
                    addr,
                    backends,
                    replicas,
                },
                _,
            )) => {
                route_listen(&addr, backends, replicas);
            }
            Ok((RouteMode::Remote(addr), serve)) => print_route(&addr, &serve),
            Err(msg) => {
                eprintln!("{msg}");
                std::process::exit(2);
            }
        }
    }
    if !COMMANDS.contains(&cmd) {
        eprintln!("unknown experiment {cmd:?}; use {}", COMMANDS.join("|"));
        std::process::exit(2);
    }
}

/// Parses `sweep` flags (`--planner`, `--workers`, `--shots`, `--size`,
/// `--rounds`, `--seed`) into the planner filter and sweep parameters.
fn parse_sweep_args(args: &[String]) -> Result<(String, SweepConfig), String> {
    let mut planner = "all".to_string();
    let mut sweep = SweepConfig::default();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match flag.as_str() {
            "--planner" => planner = value("--planner")?,
            "--workers" => sweep.workers = parse_num(&value("--workers")?, "--workers")?,
            "--shots" => {
                sweep.shots = parse_num::<usize>(&value("--shots")?, "--shots")?.max(1);
            }
            "--size" => {
                let size: usize = parse_num(&value("--size")?, "--size")?;
                if size < 4 || !size.is_multiple_of(2) {
                    return Err(format!("--size must be an even number >= 4, got {size}"));
                }
                sweep.size = size;
            }
            "--rounds" => {
                sweep.rounds = parse_num::<usize>(&value("--rounds")?, "--rounds")?.max(1);
            }
            "--seed" => sweep.seed = parse_num(&value("--seed")?, "--seed")?,
            other => {
                return Err(format!(
                    "unknown sweep flag {other:?}; use --planner/--workers/--shots/--size/--rounds/--seed"
                ))
            }
        }
    }
    if planner != "all" && !planner_choices().iter().any(|(name, _)| *name == planner) {
        let names: Vec<&str> = planner_choices().iter().map(|(n, _)| *n).collect();
        return Err(format!(
            "unknown planner {planner:?}; use all or one of {names:?}"
        ));
    }
    Ok((planner, sweep))
}

/// How the `serve` command runs: in-process load, a blocking network
/// server, or network load against a running server.
enum ServeMode {
    InProcess,
    Listen(String),
    Remote(String),
}

/// Parses `serve` flags (`--clients`, `--batches`, `--shots`, `--size`,
/// `--rounds`, `--seed`, `--workers`, `--max-inflight`, plus the
/// mutually exclusive `--listen ADDR` / `--remote ADDR` network modes)
/// into the mode and load parameters.
fn parse_serve_args(args: &[String]) -> Result<(ServeMode, ServeConfig), String> {
    let mut serve = ServeConfig::default();
    let mut mode = ServeMode::InProcess;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match flag.as_str() {
            "--clients" => {
                serve.clients = parse_num::<usize>(&value("--clients")?, "--clients")?.max(1);
            }
            "--batches" => {
                serve.batches = parse_num::<usize>(&value("--batches")?, "--batches")?.max(1);
            }
            "--shots" => {
                serve.shots = parse_num::<usize>(&value("--shots")?, "--shots")?.max(1);
            }
            "--size" => {
                let size: usize = parse_num(&value("--size")?, "--size")?;
                if size < 4 || !size.is_multiple_of(2) {
                    return Err(format!("--size must be an even number >= 4, got {size}"));
                }
                serve.size = size;
            }
            "--rounds" => {
                serve.rounds = parse_num::<usize>(&value("--rounds")?, "--rounds")?.max(1);
            }
            "--seed" => serve.seed = parse_num(&value("--seed")?, "--seed")?,
            "--workers" => serve.workers = parse_num(&value("--workers")?, "--workers")?,
            "--max-inflight" => {
                serve.max_inflight = parse_num(&value("--max-inflight")?, "--max-inflight")?;
            }
            "--cache-bytes" => {
                serve.cache_bytes = parse_num(&value("--cache-bytes")?, "--cache-bytes")?;
            }
            "--repeat" => {
                serve.repeat = parse_num::<usize>(&value("--repeat")?, "--repeat")?.max(1);
            }
            "--auth-token" => {
                // Leaked once per process: `ServeConfig` stays `Copy`.
                serve.auth_token = Some(Box::leak(value("--auth-token")?.into_boxed_str()));
            }
            "--stream-threshold" => {
                serve.stream_threshold =
                    parse_num(&value("--stream-threshold")?, "--stream-threshold")?;
            }
            "--scenario" => serve.scenario = parse_scenario(&value("--scenario")?)?,
            "--listen" => mode = ServeMode::Listen(value("--listen")?),
            "--remote" => mode = ServeMode::Remote(value("--remote")?),
            other => {
                return Err(format!(
                    "unknown serve flag {other:?}; use --clients/--batches/--shots/--size/--rounds/--seed/--workers/--max-inflight/--cache-bytes/--repeat/--auth-token/--stream-threshold/--scenario/--listen/--remote"
                ))
            }
        }
    }
    Ok((mode, serve))
}

/// How the `route` command runs: a blocking router front end over
/// existing backends, or network load against a running router.
enum RouteMode {
    Listen {
        addr: String,
        backends: Vec<String>,
        replicas: usize,
    },
    Remote(String),
}

/// Parses `route` flags: `--listen ADDR --backends A,B,C [--replicas N]`
/// for the router process, or `--remote ADDR` plus the standard `serve`
/// load flags for the driver.
fn parse_route_args(args: &[String]) -> Result<(RouteMode, ServeConfig), String> {
    let mut serve = ServeConfig::default();
    let mut listen = None;
    let mut remote = None;
    let mut backends = Vec::new();
    let mut replicas = qrm_net::RouterConfig::default().replicas;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match flag.as_str() {
            "--listen" => listen = Some(value("--listen")?),
            "--remote" => remote = Some(value("--remote")?),
            "--backends" => {
                backends = value("--backends")?
                    .split(',')
                    .map(str::trim)
                    .filter(|s| !s.is_empty())
                    .map(str::to_string)
                    .collect();
            }
            "--replicas" => {
                replicas = parse_num::<usize>(&value("--replicas")?, "--replicas")?.max(1);
            }
            "--clients" => {
                serve.clients = parse_num::<usize>(&value("--clients")?, "--clients")?.max(1);
            }
            "--batches" => {
                serve.batches = parse_num::<usize>(&value("--batches")?, "--batches")?.max(1);
            }
            "--shots" => {
                serve.shots = parse_num::<usize>(&value("--shots")?, "--shots")?.max(1);
            }
            "--size" => {
                let size: usize = parse_num(&value("--size")?, "--size")?;
                if size < 4 || !size.is_multiple_of(2) {
                    return Err(format!("--size must be an even number >= 4, got {size}"));
                }
                serve.size = size;
            }
            "--rounds" => {
                serve.rounds = parse_num::<usize>(&value("--rounds")?, "--rounds")?.max(1);
            }
            "--seed" => serve.seed = parse_num(&value("--seed")?, "--seed")?,
            "--repeat" => {
                serve.repeat = parse_num::<usize>(&value("--repeat")?, "--repeat")?.max(1);
            }
            "--scenario" => serve.scenario = parse_scenario(&value("--scenario")?)?,
            other => {
                return Err(format!(
                    "unknown route flag {other:?}; use --listen/--backends/--replicas or --remote plus --clients/--batches/--shots/--size/--rounds/--seed/--repeat/--scenario"
                ))
            }
        }
    }
    match (listen, remote) {
        (Some(addr), None) => {
            if backends.is_empty() {
                return Err("route --listen needs --backends A,B,...".to_string());
            }
            Ok((
                RouteMode::Listen {
                    addr,
                    backends,
                    replicas,
                },
                serve,
            ))
        }
        (None, Some(addr)) => Ok((RouteMode::Remote(addr), serve)),
        (Some(_), Some(_)) => Err("route takes --listen or --remote, not both".to_string()),
        (None, None) => Err("route needs --listen ADDR or --remote ADDR".to_string()),
    }
}

fn parse_num<T: std::str::FromStr>(raw: &str, flag: &str) -> Result<T, String> {
    raw.parse()
        .map_err(|_| format!("{flag}: invalid number {raw:?}"))
}

/// Parses a `--scenario` value into a typed [`qrm_server::Scenario`]:
/// `uniform`, `defects:FRACTION`, `loss:PROB`, `zones:RxC`, or
/// `correlated:GRAIN:PROB`. Validation of the parameter ranges happens
/// server-side in [`qrm_server::BatchSpec::validate`], exactly as for
/// a wire submission.
fn parse_scenario(raw: &str) -> Result<qrm_server::Scenario, String> {
    use qrm_server::Scenario;
    const USAGE: &str =
        "use uniform | defects:FRACTION | loss:PROB | zones:RxC | correlated:GRAIN:PROB";
    let mut parts = raw.split(':');
    let kind = parts.next().unwrap_or_default();
    let rest: Vec<&str> = parts.collect();
    match (kind, rest.as_slice()) {
        ("uniform", []) => Ok(Scenario::UniformFill),
        ("defects", [fraction]) => Ok(Scenario::DefectMap {
            dead_fraction: parse_num(fraction, "--scenario defects")?,
        }),
        ("loss", [prob]) => Ok(Scenario::AtomLoss {
            loss_prob: parse_num(prob, "--scenario loss")?,
        }),
        ("zones", [geometry]) => {
            let (rows, cols) = geometry
                .split_once('x')
                .ok_or_else(|| format!("--scenario zones needs RxC; {USAGE}"))?;
            Ok(Scenario::Zones {
                rows: parse_num(rows, "--scenario zones")?,
                cols: parse_num(cols, "--scenario zones")?,
            })
        }
        ("correlated", [grain, prob]) => Ok(Scenario::CorrelatedFill {
            grain: parse_num(grain, "--scenario correlated")?,
            flip_prob: parse_num(prob, "--scenario correlated")?,
        }),
        _ => Err(format!("unknown scenario {raw:?}; {USAGE}")),
    }
}

/// Stands up the HTTP front end on `addr` with the standard
/// seven-planner registry and blocks forever (CI and operators run it
/// as a background process and kill it when done).
fn serve_listen(addr: &str, serve: &ServeConfig) {
    let service = std::sync::Arc::new(build_service(serve));
    let server = match qrm_net::Server::bind(addr, service, net_config(serve)) {
        Ok(server) => server,
        Err(err) => {
            eprintln!("--listen {addr}: bind failed: {err}");
            std::process::exit(1);
        }
    };
    println!(
        "listening on http://{} (planners: {}, workers={}, rounds={}, max_inflight={}, cache_bytes={}, auth={}, stream_threshold={})",
        server.addr(),
        planner_choices().len(),
        serve.workers,
        serve.rounds,
        serve.max_inflight,
        serve.cache_bytes,
        if serve.auth_token.is_some() { "on" } else { "off" },
        serve.stream_threshold,
    );
    loop {
        std::thread::sleep(std::time::Duration::from_secs(3600));
    }
}

/// Stands up the consistent-hash router on `addr` over `backends` and
/// blocks forever (run as a background process next to the backends,
/// kill when done).
fn route_listen(addr: &str, backends: Vec<String>, replicas: usize) {
    let config = qrm_net::RouterConfig {
        replicas,
        ..qrm_net::RouterConfig::default()
    };
    let count = backends.len();
    let router = match qrm_net::Router::bind(addr, backends, config) {
        Ok(router) => router,
        Err(err) => {
            eprintln!("route --listen {addr}: bind failed: {err}");
            std::process::exit(1);
        }
    };
    println!(
        "routing on http://{} over {} backend(s), {} replica(s) each",
        router.addr(),
        count,
        replicas,
    );
    loop {
        std::thread::sleep(std::time::Duration::from_secs(3600));
    }
}

/// Drives the standard deterministic load through the router at `addr`
/// and prints the digest plus per-backend routing stats.
fn print_route(addr: &str, serve: &ServeConfig) {
    println!(
        "== Routed fleet load via http://{addr}: {} client(s) x {} batch(es) x {} pass(es), {} shot(s) each, {}x{} array ==",
        serve.clients,
        serve.batches,
        serve.repeat.max(1),
        serve.shots,
        serve.size,
        serve.size,
    );
    if !wait_for_server(addr, std::time::Duration::from_secs(30)) {
        eprintln!("route --remote {addr}: router unreachable after 30 s");
        std::process::exit(1);
    }
    let (report, router) = route_load(addr, serve);
    println!(
        "served {} batch(es) / {} shot(s) ({} filled) in {:.1} ms -> {:.1} batches/s",
        report.submitted,
        report.shots,
        report.filled,
        report.wall_us / 1e3,
        report.batches_per_s
    );
    println!(
        "router: {} request(s), {} relayed, {} failover(s), {} with no backend",
        router.requests, router.relayed, router.failovers, router.no_backend
    );
    println!(
        "{:<22} {:>8} {:>8} {:>12}",
        "backend", "healthy", "routed", "failed_over"
    );
    for backend in &router.backends {
        println!(
            "{:<22} {:>8} {:>8} {:>12}",
            backend.addr, backend.healthy, backend.routed, backend.failed_over
        );
    }
    // Deterministic payload digest — byte-identical to an in-process
    // `serve` run of the same parameters (the CI fleet job diffs it).
    for row in &report.digest {
        println!("{}", row.line());
    }
    println!();
}

fn print_serve(serve: &ServeConfig, remote: Option<&str>) {
    println!(
        "== Planning service load{}: {} client(s) x {} batch(es), {} shot(s) each, {}x{} array, max_inflight={} ==",
        remote.map(|a| format!(" via http://{a}")).unwrap_or_default(),
        serve.clients,
        serve.batches,
        serve.shots,
        serve.size,
        serve.size,
        if serve.max_inflight == 0 {
            "unlimited".to_string()
        } else {
            serve.max_inflight.to_string()
        }
    );
    let report = match remote {
        Some(addr) => {
            if !wait_for_server(addr, std::time::Duration::from_secs(30)) {
                eprintln!("--remote {addr}: server unreachable after 30 s");
                std::process::exit(1);
            }
            remote_load(addr, serve)
        }
        None => service_load(serve),
    };
    println!(
        "served {} batch(es) / {} shot(s) ({} filled) in {:.1} ms -> {:.1} batches/s",
        report.submitted,
        report.shots,
        report.filled,
        report.wall_us / 1e3,
        report.batches_per_s
    );
    let stats = &report.stats;
    println!(
        "admission: peak {} inflight, peak {} queued",
        stats.peak_inflight, stats.peak_queued
    );
    if stats.cache.budget_bytes > 0 {
        println!(
            "cache: {} hit(s) / {} lookup(s), {} entr(ies) holding {} of {} byte(s), {} eviction(s)",
            stats.cache.hits,
            stats.cache.lookups,
            stats.cache.entries,
            stats.cache.bytes,
            stats.cache.budget_bytes,
            stats.cache.evictions,
        );
    }
    println!(
        "{:<10} {:>8} {:>8} {:>12} {:>12} {:>12}",
        "planner", "batches", "shots", "mean_us", "p99_us", "max_us"
    );
    for p in &stats.planners {
        println!(
            "{:<10} {:>8} {:>8} {:>12.0} {:>12.0} {:>12.0}",
            p.name,
            p.batches,
            p.shots,
            p.latency.mean_us(),
            p.latency.quantile_us(0.99),
            p.latency.max_us(),
        );
    }
    println!(
        "pool since service start: {} job(s), {} local, {} injector, {} steal(s), {} thread(s) spawned",
        stats.pool.jobs_executed,
        stats.pool.local_hits,
        stats.pool.injector_hits,
        stats.pool.steals,
        stats.pool.threads_spawned
    );
    // Deterministic payload digest — byte-identical between in-process
    // and --remote runs of the same parameters (the CI job diffs it).
    for row in &report.digest {
        println!("{}", row.line());
    }
    println!();
}

fn print_sweep(planner: &str, sweep: &SweepConfig) {
    println!(
        "== End-to-end planner sweep: {} shot(s), {}x{} array, <= {} rounds, workers={} ==",
        sweep.shots,
        sweep.size,
        sweep.size,
        sweep.rounds,
        if sweep.workers == 0 {
            "auto".to_string()
        } else {
            sweep.workers.to_string()
        }
    );
    println!(
        "{:<10} {:>8} {:>12} {:>16} {:>10} {:>12} {:>8} {:>8}",
        "planner", "filled", "mean_rounds", "mean_motion_us", "lost", "wall_us", "jobs", "steals"
    );
    // Per-row pool counters are snapshot deltas around that planner's
    // run (SweepRow::pool), so rows don't accumulate each other's
    // steal/job counts; the footer prints the process-lifetime totals.
    for (name, choice) in planner_choices() {
        if planner != "all" && name != planner {
            continue;
        }
        let row = pipeline_sweep(name, &choice, sweep);
        println!(
            "{:<10} {:>5}/{} {:>12.2} {:>16.1} {:>10} {:>12.0} {:>8} {:>8}",
            row.name,
            row.filled,
            row.total,
            row.mean_rounds,
            row.mean_motion_us,
            row.atoms_lost,
            row.wall_us,
            row.pool.jobs_executed,
            row.pool.steals
        );
    }
    let stats = rayon::global_pool_stats();
    println!(
        "pool (process lifetime): {} worker(s), {} thread(s) ever spawned, {} job(s) executed",
        stats.threads, stats.threads_spawned, stats.jobs_executed
    );
    println!(
        "      {} local pop(s), {} injector take(s), {} steal(s)",
        stats.local_hits, stats.injector_hits, stats.steals
    );
    println!();
}

fn print_fig7a() {
    println!("== Fig. 7(a): QRM execution time, CPU vs FPGA, sizes 10..90 ==");
    println!(
        "{:>6} {:>12} {:>14} {:>12} {:>10} | {:>14} {:>14}",
        "size",
        "cpu_full_us",
        "cpu_kernel_us",
        "fpga_us",
        "speedup",
        "paper_fpga_us",
        "paper_speedup"
    );
    let reps = 15;
    for row in fig7a(reps) {
        println!(
            "{:>6} {:>12.1} {:>14.1} {:>12.2} {:>9.0}x | {:>14.1} {:>14}",
            row.size,
            row.cpu_us,
            row.cpu_kernel_us,
            row.fpga_us,
            row.speedup,
            row.paper_fpga_us,
            row.paper_speedup
                .map(|x| format!("{x:.0}x"))
                .unwrap_or_else(|| "-".into()),
        );
    }
    println!("(cpu_kernel_us matches the paper's CPU measurement scope — the QRM shift-command");
    println!(
        " analysis; cpu_full_us adds global AOD-legal merging/batching. Both are the best of\n \
         {reps} warm timed calls, one per pass over all sizes, the passes 20 ms apart.\n \
         Paper CPU: i7-1185G7.)\n"
    );
}

fn print_fig7b() {
    println!("== Fig. 7(b): analysis time of rearrangement algorithms, 20x20 array ==");
    println!(
        "{:<32} {:>12} {:>10} {:>12} {:>8}",
        "planner", "analysis_us", "rel_qrm", "paper_us", "filled"
    );
    // A pass over the table's cells takes about 25 ms of CPU, so 15
    // passes, 20 ms apart, span about as long as `engine`'s five.
    let (reps, instances) = (15, 8);
    for row in fig7b(reps, instances) {
        println!(
            "{:<32} {:>12.2} {:>9.2}x {:>12} {:>5}/{}",
            row.name,
            row.analysis_us,
            row.relative,
            if row.paper_us.is_nan() {
                "-".to_string()
            } else {
                format!("{:.1}", row.paper_us)
            },
            row.filled,
            row.total
        );
    }
    println!(
        "(paper_us: 0.9 quoted for the FPGA; baselines derived from the quoted 20x/246x/1000x ratios.\n \
         analysis_us: each row's best of {reps} warm timed runs over all {instances} instances, one per\n \
         pass over all rows, the passes 20 ms apart, divided by {instances}.)\n"
    );
}

fn print_fig8() {
    println!("== Fig. 8: FPGA resource utilisation vs array size ==");
    println!("{:>6} {:>8} {:>8} {:>8}", "size", "LUT%", "FF%", "BRAM%");
    for row in fig8() {
        println!(
            "{:>6} {:>7.2}% {:>7.2}% {:>7.2}%",
            row.size, row.lut_pct, row.ff_pct, row.bram_pct
        );
    }
    println!("(paper anchors: 6.31% LUT, 6.19% FF at 90x90; BRAM flat)\n");
}

fn print_headline() {
    println!("== Headline: 50x50 -> 30x30 rearrangement analysis ==");
    let reps = 15;
    let h = headline(reps);
    println!(
        "  FPGA model:         {:.2} us ({} cycles @ 250 MHz)  [paper: ~1.0 us]",
        h.fpga_us, h.cycles
    );
    println!(
        "  CPU kernel scope:   {:.1} us   (full plan with batching: {:.1} us)",
        h.cpu_kernel_us, h.cpu_full_us
    );
    println!(
        "  speedup:            {:.0}x                          [paper: ~54x]",
        h.speedup
    );
    println!(
        "  Tetris (this host): {:.0} us -> {:.0}x vs FPGA      [paper: ~300x vs Tetris on the RFSoC ARM core]",
        h.tetris_us, h.vs_tetris_host
    );
    println!(
        "  (CPU and Tetris times: best of {reps} warm timed calls, one per pass, 20 ms apart)\n"
    );
}

fn print_quality() {
    println!("== E-x1: fill quality, greedy (paper) vs balanced (extension) kernel ==");
    println!(
        "{:<10} {:>6} {:>10} {:>14} {:>12}",
        "strategy", "iters", "filled", "mean_defects", "mean_moves"
    );
    for row in quality(10) {
        println!(
            "{:<10} {:>6} {:>7}/{} {:>14.2} {:>12.1}",
            format!("{:?}", row.strategy),
            row.iterations,
            row.filled,
            row.total,
            row.mean_defects,
            row.mean_moves
        );
    }
    println!("(workload: 50x50 at 50% fill -> centred 30x30)\n");
}

fn print_ablations() {
    println!("== E-x2: quadrant parallelism (modelled FPGA analysis latency) ==");
    println!(
        "{:>6} {:>14} {:>14} {:>8}",
        "size", "4_parallel_us", "1_serial_us", "gain"
    );
    for (size, par, ser) in ablation_quadrants() {
        println!(
            "{:>6} {:>14.2} {:>14.2} {:>7.2}x",
            size,
            par,
            ser,
            ser / par
        );
    }
    println!("\n== E-x3: cross-quadrant command merging (schedule length) ==");
    println!(
        "{:>6} {:>14} {:>14} {:>10}",
        "size", "merged_moves", "unmerged", "saving"
    );
    for (size, merged, unmerged) in ablation_merge(5) {
        println!(
            "{:>6} {:>14.1} {:>14.1} {:>9.1}%",
            size,
            merged,
            unmerged,
            (1.0 - merged / unmerged) * 100.0
        );
    }
    println!();
}

fn print_engine() {
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    // The 16-shot batch shows the pool's scaling; the one 50x50 shot
    // shows what handing a lone shot to the pool costs against planning
    // it inline. Its cells are ≈ 50 us, so they get more passes.
    for (size, shots, reps) in [(100, 16, 5), (50, 1, 40)] {
        println!(
            "== E-x5: parallel planning engine, serial vs batched ({size}x{size}, {shots} shot{}) ==",
            if shots == 1 { "" } else { "s" }
        );
        let (serial_us, rows) = engine_scaling(size, shots, reps);
        println!("{:>22} {:>14} {:>10}", "", "batch_us", "speedup");
        println!(
            "{:>22} {serial_us:>14.1} {:>9.2}x",
            "serial (mapped plan)", 1.0
        );
        for row in rows {
            let label = match row.workers {
                1 => "inline (workers 1)",
                _ => "pool (workers 0)",
            };
            println!("{label:>22} {:>14.1} {:>9.2}x", row.batch_us, row.speedup);
        }
        println!(
            "(host has {cores} core(s); speedup > 1 requires > 1 — the software analogue of the\n paper's four parallel QPMs. Plans are bit-identical to the serial path either way.\n \
             Each row: best of {reps} warm timed calls, one per pass over all rows, 20 ms apart.)\n"
        );
    }
}

fn print_kernels() {
    println!("== Kernel primitives at the headline quadrant size (25x25, 15x15 corner target) ==");
    let reps = 20;
    for (name, us) in kernels(reps) {
        println!("{name:>22} {us:>10.3} us per call");
    }
    println!(
        "(each row: best of {reps} warm timed cells, one per pass over all rows, 20 ms apart;\n \
         a cell repeats its primitive so that it runs well above the timer's resolution)\n"
    );
}

fn print_system() {
    println!("== E-x4: control-loop latency budgets (paper Fig. 2) ==");
    let h = headline(9);
    let (_, _, text) = system_budgets(h.cpu_full_us, h.fpga_us);
    println!("{text}");
}
