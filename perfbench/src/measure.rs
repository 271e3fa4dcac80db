//! The timing model every workload shares.
//!
//! A run is a sequence of *passes*. A pass sends each of the workload's
//! fixed inputs once, in a fixed order, so every pass does the same
//! work. Each op is timed from outside, with `Instant`, around the one
//! public call it makes; checks on its output run between ops, off the
//! timed path.
//!
//! The host these figures come from is shared, and other tenants' load
//! slows this program by 1.5-2x, in phases of under a second that come
//! and go for minutes (`perfbench/README.md` has the measurements).
//! Within the load, single ops of a millisecond or two still often run
//! at the unloaded speed. So each *position* of a pass, which runs the
//! same input every pass, is reduced to its best (minimum) latency over
//! the run, and latency and throughput are computed from those best
//! times: the p50 and p90 across the workload's inputs of each input's
//! best time, and shots per second if every op took its best time. A
//! program change that slows an input slows its best time; the host's
//! load mostly does not. A higher quantile per position, or wall time
//! of whole passes, moved by up to 1.5x between loaded and quiet runs of
//! the same inputs, more than any bound can absorb. The cost is that a
//! stall the program causes in only some runs of an input is not seen
//! in the metrics; [`Recorder::all_line`] prints the plain quantiles of
//! every op beside them.

use std::hint::black_box;
use std::time::Instant;

/// The kind of op a sample belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// An op that computes its answer.
    Compute = 0,
    /// A service-http request answered from the response cache.
    Hit = 1,
    /// A service-http `GET /v1/stats`.
    Stats = 2,
}

/// The op classes of a workload's traffic mix (stats requests excluded).
pub const MIX: [Class; 2] = [Class::Compute, Class::Hit];

/// Per-op latencies reduced as they arrive, plus host-speed probe
/// readings. A run keeps each position's best time and a fixed-size
/// histogram per class, so its memory does not grow with the number of
/// passes and `peak_rss_mb` does not depend on how fast the host ran.
pub struct Recorder {
    started: Instant,
    /// Each class's best latency (µs) at each position of a pass.
    best: [Vec<f64>; 3],
    /// The position of each class's next op in the current pass.
    next: [usize; 3],
    /// Every op's latency, by class.
    all: [Histogram; 3],
    passes: usize,
    /// Shots one pass completes.
    shots_per_pass: u64,
    last_us: f64,
    probes: Vec<f64>,
    last_probe: Option<Instant>,
}

/// Quantiles of a set of latencies.
#[derive(Debug, Clone, Copy, Default)]
pub struct Latency {
    pub p50: f64,
    pub p90: f64,
    pub mean: f64,
    pub count: usize,
}

/// Time between host-speed probes; they run between passes.
const PROBE_INTERVAL_S: f64 = 0.05;

/// Time between repeated set-ups; they run between passes.
const SETUP_INTERVAL_S: f64 = 1.0;

impl Recorder {
    fn new() -> Self {
        Recorder {
            started: Instant::now(),
            best: Default::default(),
            next: [0; 3],
            all: Default::default(),
            passes: 0,
            shots_per_pass: 0,
            last_us: 0.0,
            probes: Vec::new(),
            last_probe: None,
        }
    }

    /// Runs passes until `seconds` have elapsed (always at least one).
    /// Passes are never cut short, so every recorded pass is complete.
    pub fn run(
        seconds: f64,
        mut pass: impl FnMut(&mut Recorder) -> Result<(), String>,
    ) -> Result<Recorder, String> {
        let mut rec = Recorder::new();
        loop {
            rec.passes += 1;
            rec.next = [0; 3];
            pass(&mut rec)?;
            rec.maybe_probe();
            if rec.started.elapsed().as_secs_f64() >= seconds {
                return Ok(rec);
            }
        }
    }

    /// Times one op of the current pass.
    pub fn op<T>(&mut self, class: Class, shots: u64, f: impl FnOnce() -> T) -> T {
        let t0 = Instant::now();
        let out = black_box(f());
        let us = t0.elapsed().as_secs_f64() * 1e6;
        let c = class as usize;
        match self.best[c].get_mut(self.next[c]) {
            Some(best) => *best = best.min(us),
            None => self.best[c].push(us),
        }
        self.next[c] += 1;
        self.all[c].add(us);
        self.last_us = us;
        if self.passes == 1 {
            self.shots_per_pass += shots;
        }
        out
    }

    /// The last timed op's latency (µs).
    pub fn last_us(&self) -> f64 {
        self.last_us
    }

    pub fn passes(&self) -> usize {
        self.passes
    }

    /// Timed ops other than stats requests.
    pub fn ops(&self) -> usize {
        MIX.iter()
            .map(|&c| self.all[c as usize].count as usize)
            .sum()
    }

    fn maybe_probe(&mut self) {
        let due = self
            .last_probe
            .is_none_or(|t| t.elapsed().as_secs_f64() >= PROBE_INTERVAL_S);
        if due {
            self.probes.push(probe_us());
            self.last_probe = Some(Instant::now());
        }
    }

    /// Quantiles across the `classes` positions of each position's best
    /// latency; `count` is the number of positions.
    pub fn best(&self, classes: &[Class]) -> Latency {
        let mut us: Vec<f64> = classes
            .iter()
            .flat_map(|&c| self.best[c as usize].iter().copied())
            .collect();
        summarize(&mut us)
    }

    /// Shots per second if every op of a pass (stats requests included)
    /// took its best time.
    pub fn best_shots_per_s(&self) -> f64 {
        let us: f64 = self.best.iter().flatten().sum();
        self.shots_per_pass as f64 / (us * 1e-6)
    }

    /// One line on the run's shape and its plain, unreduced latency over
    /// every `classes` op.
    pub fn all_line(&self, classes: &[Class]) -> String {
        let mut all = Histogram::default();
        for &c in classes {
            all.merge(&self.all[c as usize]);
        }
        format!(
            "all {} ops in {} passes: p50 {:.1} us, p90 {:.1} us, mean {:.1} us",
            all.count,
            self.passes,
            all.quantile(0.5),
            all.quantile(0.9),
            all.sum / all.count.max(1) as f64
        )
    }

    /// One line on the host-speed probe: its quantiles and the share of
    /// readings in the slow phase (over 1.2x the fastest tenth).
    pub fn probe_line(&self) -> String {
        let mut p = self.probes.clone();
        p.sort_by(f64::total_cmp);
        if p.is_empty() {
            return "host-speed probe: no readings".into();
        }
        let fast = quantile(&p, 0.1);
        let slow = p.iter().filter(|&&x| x > 1.2 * fast).count();
        format!(
            "host-speed probe: {} readings, p10 {:.1} µs, p50 {:.1} µs, p90 {:.1} µs, slow share {:.2}",
            p.len(),
            fast,
            quantile(&p, 0.5),
            quantile(&p, 0.9),
            slow as f64 / p.len() as f64
        )
    }
}

fn summarize(us: &mut [f64]) -> Latency {
    if us.is_empty() {
        return Latency::default();
    }
    us.sort_by(f64::total_cmp);
    Latency {
        p50: quantile(us, 0.5),
        p90: quantile(us, 0.9),
        mean: us.iter().sum::<f64>() / us.len() as f64,
        count: us.len(),
    }
}

/// Histogram buckets per doubling of latency: a bucket spans 1.1 %.
const BUCKETS_PER_DOUBLING: f64 = 64.0;
/// Buckets from 1 µs up to 2^27 µs (over two minutes).
const BUCKETS: usize = 27 * 64;

/// A latency histogram with log-spaced buckets, for the plain quantiles
/// of the diagnostic line.
struct Histogram {
    counts: Vec<u32>,
    count: u64,
    sum: f64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            counts: vec![0; BUCKETS],
            count: 0,
            sum: 0.0,
        }
    }
}

impl Histogram {
    fn add(&mut self, us: f64) {
        let bucket = (us.max(1.0).log2() * BUCKETS_PER_DOUBLING) as usize;
        self.counts[bucket.min(BUCKETS - 1)] += 1;
        self.count += 1;
        self.sum += us;
    }

    fn merge(&mut self, other: &Histogram) {
        for (mine, theirs) in self.counts.iter_mut().zip(&other.counts) {
            *mine += theirs;
        }
        self.count += other.count;
        self.sum += other.sum;
    }

    /// The `q` quantile, as the middle of the bucket that holds it.
    fn quantile(&self, q: f64) -> f64 {
        let rank = (q * self.count as f64) as u64;
        let mut seen = 0;
        for (bucket, &n) in self.counts.iter().enumerate() {
            seen += u64::from(n);
            if seen > rank {
                return ((bucket as f64 + 0.5) / BUCKETS_PER_DOUBLING).exp2();
            }
        }
        0.0
    }
}

/// Linear-interpolated quantile of sorted values.
fn quantile(sorted: &[f64], q: f64) -> f64 {
    let pos = q * (sorted.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    quantile(&v, 0.5)
}

/// The host-speed probe: a fixed integer loop, run as two pool jobs at
/// once so both cores are sampled; returns the slower job's time (µs).
/// It exercises none of the program under test.
pub fn probe_us() -> f64 {
    let spin = || {
        let t0 = Instant::now();
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        for i in 0..black_box(20_000u64) {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x = x.wrapping_add(i);
        }
        black_box(x);
        t0.elapsed().as_secs_f64() * 1e6
    };
    let (a, b) = rayon::join(spin, spin);
    a.max(b)
}

/// The first output seen for each input: the run's reference, which
/// every later output for that input must equal.
pub struct FirstSeen<T>(Vec<Option<T>>);

impl<T: PartialEq> FirstSeen<T> {
    pub fn new(inputs: usize) -> Self {
        FirstSeen((0..inputs).map(|_| None).collect())
    }

    /// Whether `out` equals the reference for input `k`; the first
    /// output for `k` becomes its reference.
    pub fn check(&mut self, k: usize, out: T) -> bool {
        match &self.0[k] {
            Some(reference) => *reference == out,
            None => {
                self.0[k] = Some(out);
                true
            }
        }
    }

    /// The references, in input order; complete after one pass.
    pub fn all(&self) -> impl Iterator<Item = &T> {
        self.0.iter().flatten()
    }

    pub fn get(&self, k: usize) -> Option<&T> {
        self.0[k].as_ref()
    }
}

/// A workload's set-up, timed each time it runs. The run uses the
/// first set-up's result; [`Setups::repeat`] sets up again, every
/// second between passes, and drops the result. A set-up takes
/// milliseconds, so repeats spread over the run reach the host's fast
/// phases the way the per-position best times do, and `setup_s` is the
/// fastest.
pub struct Setups<F> {
    setup: F,
    secs: Vec<f64>,
    last: Instant,
}

impl<T, F: FnMut() -> Result<T, String>> Setups<F> {
    /// Runs the first set-up and returns its result.
    pub fn first(mut setup: F) -> Result<(Self, T), String> {
        let t0 = Instant::now();
        let out = setup()?;
        let secs = vec![t0.elapsed().as_secs_f64()];
        let setups = Setups {
            setup,
            secs,
            last: Instant::now(),
        };
        Ok((setups, out))
    }

    /// Sets up again if a second has passed since the last set-up.
    pub fn repeat(&mut self) -> Result<(), String> {
        if self.last.elapsed().as_secs_f64() < SETUP_INTERVAL_S {
            return Ok(());
        }
        let t0 = Instant::now();
        drop((self.setup)()?);
        self.secs.push(t0.elapsed().as_secs_f64());
        self.last = Instant::now();
        Ok(())
    }

    /// The fastest set-up (s) and the number of set-ups timed.
    pub fn fastest(&self) -> (f64, usize) {
        let fastest = self.secs.iter().copied().fold(f64::INFINITY, f64::min);
        (fastest, self.secs.len())
    }
}

/// Peak resident memory of this process (MB), from `/proc/self/status`.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// 64-bit FNV-1a, for digests of served outputs.
pub fn fnv1a(bytes: &[u8], mut hash: u64) -> u64 {
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0100_0000_01b3);
    }
    hash
}

pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
