//! `perfbench`: the repository's benchmark. One command runs a named
//! workload from a seed, checks every output, and prints its metrics;
//! see `perfbench/README.md` for the workloads, the metric map and how
//! the figures are kept steady.
//!
//! ```text
//! perfbench --workload <analysis-50|service-http> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object: `correct`,
//! `attempted`, `failed` and `metrics` (end-to-end metrics with
//! `--trace 0`, per-layer metrics with `--trace 1`). The lines before
//! it repeat every metric with its sample count, the output digest and
//! the host-speed probe. A failed check exits 1; a bad argument exits 2.

mod analysis;
mod measure;
mod service_http;
mod stages;

use std::process::ExitCode;

/// Worker threads in the process-global pool: fixed by the benchmark
/// (at most the 2 cores of the reference host), never auto-detected.
pub const POOL_THREADS: usize = 2;

/// One reported metric.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    pub samples: usize,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, unit: &'static str, samples: usize) -> Self {
        Metric {
            name,
            value,
            unit,
            samples,
        }
    }
}

/// What one workload run produced.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// FNV-1a digest over the workload's canonical outputs; equal seeds
    /// must print equal digests.
    pub digest: u64,
    /// Free-form diagnostic lines printed before the result.
    pub notes: Vec<String>,
}

/// The end-to-end metrics, in `BENCHMARK.json` order. Every workload
/// reports all of them (`--trace 0`).
pub fn end_to_end(
    rec: &measure::Recorder,
    latency: &measure::Latency,
    quality: &stages::Quality,
    fpga: &stages::Fpga,
    (setup_s, setups): (f64, usize),
) -> Result<Vec<Metric>, String> {
    let q = quality;
    Ok(vec![
        Metric::new("latency_p50_us", latency.p50, "us", latency.count),
        Metric::new("latency_p90_us", latency.p90, "us", latency.count),
        Metric::new("shots_per_s", rec.best_shots_per_s(), "1/s", rec.passes()),
        Metric::new(
            "fill_rate",
            q.per_shot(q.filled as f64),
            "fraction",
            q.shots,
        ),
        Metric::new(
            "moves_per_shot",
            q.per_shot(q.moves as f64),
            "count",
            q.shots,
        ),
        Metric::new("motion_us_per_shot", q.per_shot(q.motion_us), "us", q.shots),
        Metric::new(
            "rounds_per_shot",
            q.per_shot(q.rounds as f64),
            "count",
            q.shots,
        ),
        Metric::new(
            "fpga_analysis_cycles",
            fpga.analysis_cycles,
            "cycles",
            fpga.shots,
        ),
        Metric::new("setup_s", setup_s, "s", setups),
        Metric::new("peak_rss_mb", measure::peak_rss_mb()?, "MB", 1),
    ])
}

/// The per-layer metrics, in `BENCHMARK.json` order, with their units.
/// Every workload reports all of them (`--trace 1`); a layer the
/// workload's op does not cross reads 0.
pub const PER_LAYER: [(&str, &str); 31] = [
    ("core.decompose_us", "us"),
    ("core.kernel_us", "us"),
    ("core.merge_us", "us"),
    ("core.validate_us", "us"),
    ("core.kernel_iterations", "count"),
    ("core.moves", "count"),
    ("engine.overhead_us", "us"),
    ("engine.mean_group_size", "count"),
    ("engine.rounds_overlapped", "count"),
    ("pool.steals", "count"),
    ("pool.jobs_executed", "count"),
    ("vision.render_us", "us"),
    ("vision.detect_us", "us"),
    ("control.compile_us", "us"),
    ("core.execute_us", "us"),
    ("core.atom_moves", "count"),
    ("fpga.host_us", "us"),
    ("fpga.compute_cycles", "cycles"),
    ("fpga.combine_cycles", "cycles"),
    ("server.overhead_us", "us"),
    ("server.cache_hit_ratio", "fraction"),
    ("server.cache_peak_bytes", "bytes"),
    ("server.cache_evictions", "count"),
    ("wire.encode_us", "us"),
    ("wire.decode_us", "us"),
    ("wire.response_bytes", "bytes"),
    ("net.transport_us", "us"),
    ("net.requests_served", "count"),
    ("net.hit_latency_p50_us", "us"),
    ("net.hit_latency_p90_us", "us"),
    ("trace.overhead_us", "us"),
];

/// Orders `values` as [`PER_LAYER`], filling layers the run did not
/// cross with 0. `samples` is the number of traced ops behind the
/// per-op means.
pub fn per_layer(
    values: &std::collections::BTreeMap<&'static str, f64>,
    samples: usize,
) -> Vec<Metric> {
    PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            Metric::new(
                name,
                values.get(name).copied().unwrap_or(0.0),
                unit,
                samples,
            )
        })
        .collect()
}

/// Ops attempted and checks failed, with the first failure's reason.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    first_failure: Option<String>,
}

impl Tally {
    /// Counts one op and the outcome of its checks.
    pub fn record(&mut self, checked: Result<(), String>) {
        self.attempted += 1;
        if let Err(reason) = checked {
            self.fail(reason);
        }
    }

    /// Counts a failed check that is not an op of its own.
    pub fn fail(&mut self, reason: String) {
        self.failed += 1;
        self.first_failure.get_or_insert(reason);
    }

    pub fn into_outcome(
        self,
        metrics: Vec<Metric>,
        digest: u64,
        mut notes: Vec<String>,
    ) -> Outcome {
        if let Some(reason) = self.first_failure {
            notes.push(format!("first failure: {reason}"));
        }
        Outcome {
            attempted: self.attempted,
            failed: self.failed,
            metrics,
            digest,
            notes,
        }
    }
}

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value}"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad --seconds {value}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {value} outside (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value} (0 or 1)")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(err) => {
            eprintln!("perfbench: {err}");
            eprintln!("usage: perfbench --workload <analysis-50|service-http> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    // Sole thread at this point, so changing the environment is sound;
    // the pool reads this once, on first use.
    std::env::set_var("QRM_POOL_THREADS", POOL_THREADS.to_string());
    if rayon::current_num_threads() != POOL_THREADS {
        eprintln!("perfbench: worker pool did not start with {POOL_THREADS} threads");
        return ExitCode::FAILURE;
    }
    let result = match args.workload.as_str() {
        "analysis-50" => analysis::run(&args),
        "service-http" => service_http::run(&args),
        other => {
            eprintln!("perfbench: unknown workload {other}");
            return ExitCode::from(2);
        }
    };
    let outcome = match result {
        Ok(outcome) => outcome,
        Err(err) => {
            eprintln!("perfbench: {} failed: {err}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    let finite = outcome.metrics.iter().all(|m| m.value.is_finite());
    let correct = outcome.failed == 0 && outcome.attempted > 0 && finite;
    for note in &outcome.notes {
        println!("{note}");
    }
    for m in &outcome.metrics {
        println!(
            "metric {:<24} {:>16.4} {:<9} samples {}",
            m.name, m.value, m.unit, m.samples
        );
    }
    println!(
        "workload {} seed {} trace {}: attempted {} failed {} failed_fraction {} digest {:016x}",
        args.workload,
        args.seed,
        u8::from(args.trace),
        outcome.attempted,
        outcome.failed,
        outcome.failed as f64 / outcome.attempted.max(1) as f64,
        outcome.digest
    );
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
