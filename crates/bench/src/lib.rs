//! # qrm-bench — experiment harness for the paper's evaluation
//!
//! Shared workload generation, timing helpers, and one function per
//! table/figure of the paper (experiments E-7a … E-x5; the workspace
//! README's "Reproduced results" section indexes them). The
//! `experiments` binary prints the tables, and its `kernels` command
//! times the kernel primitives ([`kernels`]); every timed cell goes
//! through [`best_us_over_passes`].
//!
//! Paper reference numbers carried in the rows come from two sources:
//! values the text quotes directly (1.0 µs at 50×50, 54× and 134×
//! speedups, 6.31 %/6.19 % utilisation at 90×90, 120×/300× vs Tetris)
//! and values read off the logarithmic figures (marked approximate).
//!
//! ## Quick example
//!
//! The harness's registries cover all seven planners; a benchmark-sized
//! workload comes from [`paper_instance`]:
//!
//! ```
//! use qrm_bench::{paper_instance, planner_matrix};
//!
//! let (grid, target) = paper_instance(16, 1);
//! for planner in planner_matrix() {
//!     let plan = planner.plan(&grid, &target).expect("plan");
//!     planner
//!         .executor()
//!         .run(&grid, &plan.schedule)
//!         .expect("every planner's schedule executes under its own contract");
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use qrm_baselines::{Mta1Scheduler, PscaScheduler, TetrisScheduler};
use qrm_control::pipeline::{Pipeline, PipelineConfig, PipelineReport, PlannerChoice};
use qrm_control::system::{Architecture, SystemModel};
use qrm_core::bitline;
use qrm_core::geometry::{Axis, Rect};
use qrm_core::grid::AtomGrid;
use qrm_core::kernel::{plan_row_windows, run_pass, KernelConfig, KernelStrategy, ShiftKernel};
use qrm_core::loading::{seeded_rng, LoadModel};
use qrm_core::planner::Planner;
use qrm_core::scheduler::{QrmConfig, QrmScheduler};
use qrm_core::typical::TypicalScheduler;
use qrm_fpga::accelerator::{AcceleratorConfig, CycleBreakdown, QrmAccelerator};
use qrm_fpga::resources::ResourceModel;
use qrm_fpga::shift_unit::{LineJob, ShiftUnit};
use qrm_wire::ToJson;

/// Every planner of the workspace as a `dyn Planner` trait object — QRM
/// (software, paper config), the typical §III-A procedure, the three
/// published baselines, the hybrid extension, and the FPGA model: the
/// [`planner_choices`] resolved at the automatic worker count, in the
/// same order. All benchmark and contract code dispatches through the
/// trait (executor policy included, via [`Planner::executor`]), so
/// adding a planner to the registry adds it to every comparison with no
/// new match arms.
pub fn planner_matrix() -> Vec<Box<dyn Planner>> {
    planner_choices()
        .into_iter()
        .map(|(_, choice)| choice.resolve(0))
        .collect()
}

/// The seven planners as **pipeline configurations**
/// ([`PlannerChoice`]), keyed by the CLI name the `experiments` binary
/// accepts: the harness's single construction point, which
/// [`planner_matrix`] resolves for consumers that dispatch through
/// `dyn Planner` and end-to-end sweeps and the cross-worker determinism
/// suite use to *construct* pipelines.
pub fn planner_choices() -> Vec<(&'static str, PlannerChoice)> {
    vec![
        ("qrm", PlannerChoice::Software(QrmConfig::paper())),
        ("typical", PlannerChoice::Typical),
        ("tetris", PlannerChoice::Tetris),
        ("psca", PlannerChoice::Psca),
        ("mta1", PlannerChoice::Mta1),
        ("hybrid", PlannerChoice::Hybrid),
        ("fpga", PlannerChoice::Fpga(AcceleratorConfig::paper())),
    ]
}

/// Result of one end-to-end planner sweep ([`pipeline_sweep`]).
#[derive(Debug, Clone)]
pub struct SweepRow {
    /// CLI name of the planner.
    pub name: &'static str,
    /// Shots whose target ended defect-free.
    pub filled: usize,
    /// Shots run.
    pub total: usize,
    /// Mean image→plan→move rounds per shot.
    pub mean_rounds: f64,
    /// Mean physical tweezer time per shot (µs).
    pub mean_motion_us: f64,
    /// Total atoms lost in transport across the batch.
    pub atoms_lost: usize,
    /// Wall-clock time of the whole batched run (µs).
    pub wall_us: f64,
    /// Worker-pool activity attributable to **this planner's run alone**
    /// (snapshot delta around the batched run, not process-lifetime
    /// totals — so per-planner steal/job counts stay meaningful when one
    /// process sweeps several planners back to back).
    pub pool: rayon::PoolStats,
}

/// Parameters of an end-to-end planner sweep (the `experiments sweep`
/// command).
#[derive(Debug, Clone, Copy)]
pub struct SweepConfig {
    /// Batch worker count handed to the pipeline (`0` = one per core).
    pub workers: usize,
    /// Independent shots per planner.
    pub shots: usize,
    /// Array side (even; QRM requires it).
    pub size: usize,
    /// Maximum rounds per shot.
    pub rounds: usize,
    /// Base seed; shot `i` derives its RNG via `Pipeline::shot_rng`.
    pub seed: u64,
    /// Per-move transport-loss probability.
    pub loss_prob: f64,
}

impl Default for SweepConfig {
    fn default() -> Self {
        SweepConfig {
            workers: 0,
            shots: 4,
            size: 16,
            rounds: 3,
            seed: 9000,
            loss_prob: 0.01,
        }
    }
}

/// Runs one planner end-to-end over a batch of shots through
/// [`Pipeline::run`] — imaging, detection, batched planning, and
/// schedule execution all as jobs on the persistent worker pool — and
/// aggregates the reports. The workload is `shots` random `size x size`
/// arrays at 55 % fill against a centred ~60 % target.
pub fn pipeline_sweep(name: &'static str, choice: &PlannerChoice, sweep: &SweepConfig) -> SweepRow {
    // The one workload construction shared with the planning service:
    // a sweep row and a `SubmitBatch` with the same (shots, size, seed)
    // plan bit-identical batches.
    let spec = qrm_server::BatchSpec::new(sweep.shots, sweep.size, sweep.seed);
    let shots = spec.workload().expect("valid sweep workload").into_shots();
    let pipeline = Pipeline::new(PipelineConfig {
        workers: sweep.workers,
        loss_prob: sweep.loss_prob,
        max_rounds: sweep.rounds,
        ..PipelineConfig::default()
    });
    let planner = choice.resolve(sweep.workers);
    let pool_before = rayon::global_pool_stats();
    let t0 = Instant::now();
    let reports = pipeline
        .run(&*planner, &shots, sweep.seed)
        .expect("sweep batch")
        .reports;
    let wall_us = t0.elapsed().as_secs_f64() * 1e6;
    let pool = rayon::global_pool_stats().since(&pool_before);
    let total = reports.len();
    SweepRow {
        name,
        filled: reports.iter().filter(|r| r.filled).count(),
        total,
        mean_rounds: reports.iter().map(|r| r.rounds.len()).sum::<usize>() as f64 / total as f64,
        mean_motion_us: reports
            .iter()
            .map(PipelineReport::total_motion_us)
            .sum::<f64>()
            / total as f64,
        atoms_lost: reports.iter().map(PipelineReport::total_lost).sum(),
        wall_us,
        pool,
    }
}

/// The paper's standard workload: `size x size` array at 50 % fill with
/// a centred target of ~60 % linear size (even), with enough atoms to be
/// globally feasible.
pub fn paper_instance(size: usize, seed: u64) -> (AtomGrid, Rect) {
    let side = (size * 3 / 5) & !1;
    let target = Rect::centered(size, size, side, side).expect("fits");
    let need = target.area();
    let mut rng = seeded_rng(seed);
    let grid = LoadModel::new(0.5)
        .load_at_least(size, size, need + need / 10, 128, &mut rng)
        .expect("feasible instance");
    (grid, target)
}

/// Pause between the timing passes of [`best_us_over_passes`].
const PASS_GAP: Duration = Duration::from_millis(20);

/// Times the `cells` of a table, in microseconds: cell `i` is one call of
/// `run(i)`, and each cell's time is its best of `reps` timed calls (at
/// least one), one per pass over all cells. Host load only ever adds
/// time, so the best call is the steadiest estimate of the work itself
/// (perfbench reduces each input to its best time too). Within a pass
/// every timed call follows an untimed call of the same cell, so it runs
/// warm, and the passes are 20 ms apart: a table takes tens of
/// milliseconds of CPU, so back-to-back reps would all fall inside one
/// loaded stretch of the host. `run` should pass its results through
/// [`std::hint::black_box`].
pub fn best_us_over_passes(reps: usize, cells: usize, mut run: impl FnMut(usize)) -> Vec<f64> {
    let mut best = vec![f64::INFINITY; cells];
    for pass in 0..reps.max(1) {
        if pass > 0 {
            std::thread::sleep(PASS_GAP);
        }
        for (cell, best) in best.iter_mut().enumerate() {
            run(cell);
            let t0 = Instant::now();
            run(cell);
            *best = best.min(t0.elapsed().as_secs_f64() * 1e6);
        }
    }
    best
}

/// One row of the Fig. 7(a) reproduction.
#[derive(Debug, Clone, Copy)]
pub struct Fig7aRow {
    /// Array side.
    pub size: usize,
    /// Measured CPU time of the full QRM plan (kernels + AOD-legal merge
    /// and batching) on this machine (µs).
    pub cpu_us: f64,
    /// Measured CPU time of the kernel analysis only — the scope of the
    /// paper's CPU measurement (µs).
    pub cpu_kernel_us: f64,
    /// Modelled FPGA analysis latency at 250 MHz (µs).
    pub fpga_us: f64,
    /// `cpu_kernel_us / fpga_us` (paper-comparable speedup).
    pub speedup: f64,
    /// Paper's FPGA value (µs; quoted for 10/50/90, figure-read else).
    pub paper_fpga_us: f64,
    /// Paper's speedup where quoted (50: 54x, 90: 134x).
    pub paper_speedup: Option<f64>,
}

/// E-7a: CPU vs FPGA execution time across array sizes 10..90.
///
/// Each size has two CPU cells (the full plan and the kernels alone),
/// timed by [`best_us_over_passes`] with `reps` passes.
pub fn fig7a(reps: usize) -> Vec<Fig7aRow> {
    let paper_fpga = [(10, 0.8), (30, 0.9), (50, 1.0), (70, 1.4), (90, 1.9)];
    let paper_speedup = [(50usize, 54.0), (90, 134.0)];
    let scheduler = QrmScheduler::new(QrmConfig::paper());
    let accel = QrmAccelerator::new(AcceleratorConfig::paper());
    let instances: Vec<(AtomGrid, Rect)> = paper_fpga
        .iter()
        .map(|&(size, _)| paper_instance(size, 1000 + size as u64))
        .collect();
    let times = best_us_over_passes(reps, 2 * instances.len(), |cell| {
        let (grid, target) = &instances[cell / 2];
        if cell % 2 == 0 {
            std::hint::black_box(scheduler.plan(grid, target).expect("plan"));
        } else {
            std::hint::black_box(scheduler.quadrant_outcomes(grid, target).expect("plan"));
        }
    });
    paper_fpga
        .iter()
        .zip(&instances)
        .zip(times.chunks(2))
        .map(|((&(size, paper_us), (grid, target)), cpu)| {
            let (cpu_us, cpu_kernel_us) = (cpu[0], cpu[1]);
            let fpga_us = accel.run(grid, target).expect("run").time_us;
            Fig7aRow {
                size,
                cpu_us,
                cpu_kernel_us,
                fpga_us,
                speedup: cpu_kernel_us / fpga_us,
                paper_fpga_us: paper_us,
                paper_speedup: paper_speedup
                    .iter()
                    .find(|&&(s, _)| s == size)
                    .map(|&(_, x)| x),
            }
        })
        .collect()
}

/// One row of the Fig. 7(b) reproduction.
#[derive(Debug, Clone)]
pub struct Fig7bRow {
    /// Planner name.
    pub name: &'static str,
    /// Measured analysis time at 20x20 (µs; modelled for the FPGA row).
    pub analysis_us: f64,
    /// Analysis time relative to QRM-CPU.
    pub relative: f64,
    /// Paper's value (µs; 0.9 quoted for FPGA, others derived from the
    /// quoted ratios 20x/246x/1000x over QRM-CPU ≈ 5.4 µs).
    pub paper_us: f64,
    /// Fill success on the benchmark instances.
    pub filled: usize,
    /// Number of instances.
    pub total: usize,
}

/// E-7b: planner comparison at 20x20 (the related-work benchmark
/// setting).
pub fn fig7b(reps: usize, instances: usize) -> Vec<Fig7bRow> {
    let grids: Vec<(AtomGrid, Rect)> = (0..instances)
        .map(|i| paper_instance(20, 2000 + i as u64))
        .collect();

    // Measured planners, with their paper references. QRM-CPU at 20x20 is
    // derived from the paper's 120x FPGA-vs-Tetris and 20x Tetris-vs-CPU
    // claims: Tetris ≈ 108 us, QRM-CPU ≈ 5.4 us.
    let qrm = QrmScheduler::new(QrmConfig::paper());
    let typical = TypicalScheduler::default();
    let tetris = TetrisScheduler::default();
    let psca = PscaScheduler::default();
    let mta1 = Mta1Scheduler::default();
    let planners: Vec<(&dyn Planner, f64)> = vec![
        (&qrm, 5.4),
        (&typical, f64::NAN),
        (&tetris, 108.0),
        (&psca, 1328.0),
        (&mta1, 5400.0),
    ];

    let balanced = QrmScheduler::new(QrmConfig::default());
    // Cell 0 is the kernel analysis alone (the paper's CPU measurement
    // scope); cell `i > 0` is the full plan of `timed[i - 1]`: every
    // planner above, then the balanced extension.
    let timed: Vec<&dyn Planner> = planners
        .iter()
        .map(|&(planner, _)| planner)
        .chain([&balanced as &dyn Planner])
        .collect();
    let times = best_us_over_passes(reps, timed.len() + 1, |cell| {
        for (grid, target) in &grids {
            if cell == 0 {
                std::hint::black_box(qrm.quadrant_outcomes(grid, target).expect("plan"));
            } else {
                std::hint::black_box(timed[cell - 1].plan(grid, target).expect("plan"));
            }
        }
    });
    let per_instance = |cell: usize| times[cell] / instances as f64;
    let qrm_us = per_instance(1);

    let mut rows = Vec::new();
    for (i, (planner, paper_us)) in planners.iter().enumerate() {
        let analysis_us = per_instance(i + 1);
        // sanity: schedules must execute under the planner's own
        // transport contract — supplied by the trait, not guessed here.
        let executor = planner.executor();
        let mut filled = 0usize;
        for (grid, target) in &grids {
            let plan = planner.plan(grid, target).expect("plan");
            executor.run(grid, &plan.schedule).expect("valid schedule");
            filled += usize::from(plan.filled);
        }
        rows.push(Fig7bRow {
            name: planner.name(),
            analysis_us,
            relative: analysis_us / qrm_us,
            paper_us: *paper_us,
            filled,
            total: instances,
        });
    }

    // The kernel-only row (paper CPU scope) and the balanced extension.
    let qrm_kernel_us = per_instance(0);
    rows.insert(
        1,
        Fig7bRow {
            name: "QRM analysis only (paper scope)",
            analysis_us: qrm_kernel_us,
            relative: qrm_kernel_us / qrm_us,
            paper_us: 5.4,
            filled: rows[0].filled,
            total: instances,
        },
    );
    let bal_us = per_instance(timed.len());
    let bal_filled: usize = grids
        .iter()
        .map(|(g, t)| usize::from(balanced.plan(g, t).expect("plan").filled))
        .sum();
    rows.push(Fig7bRow {
        name: "QRM (balanced, extension)",
        analysis_us: bal_us,
        relative: bal_us / qrm_us,
        paper_us: f64::NAN,
        filled: bal_filled,
        total: instances,
    });

    // The FPGA row (modelled latency, quoted 0.9 µs in the paper).
    let accel = QrmAccelerator::new(AcceleratorConfig::paper());
    let (grid, target) = &grids[0];
    let report = accel.run(grid, target).expect("run");
    rows.insert(
        0,
        Fig7bRow {
            name: "QRM-FPGA (modelled)",
            analysis_us: report.time_us,
            relative: report.time_us / qrm_us,
            paper_us: 0.9,
            filled: grids
                .iter()
                .map(|(g, t)| usize::from(accel.run(g, t).expect("run").plan.filled))
                .sum(),
            total: instances,
        },
    );
    rows
}

/// One row of the Fig. 8 reproduction.
#[derive(Debug, Clone, Copy)]
pub struct Fig8Row {
    /// Array side.
    pub size: usize,
    /// Modelled LUT utilisation (%).
    pub lut_pct: f64,
    /// Modelled FF utilisation (%).
    pub ff_pct: f64,
    /// Modelled BRAM utilisation (%).
    pub bram_pct: f64,
}

/// E-8: resource utilisation across sizes (paper quotes 6.31 % LUT /
/// 6.19 % FF at 90 and flat BRAM).
pub fn fig8() -> Vec<Fig8Row> {
    let model = ResourceModel::new();
    [10usize, 30, 50, 70, 90]
        .iter()
        .map(|&size| {
            let u = model.utilization(size);
            Fig8Row {
                size,
                lut_pct: u.lut.percent,
                ff_pct: u.ff.percent,
                bram_pct: u.bram.percent,
            }
        })
        .collect()
}

/// E-h1/h2/h3: the headline numbers.
#[derive(Debug, Clone, Copy)]
pub struct Headline {
    /// Modelled FPGA analysis time for 50x50 -> 30x30 (µs); paper: ~1.0.
    pub fpga_us: f64,
    /// Measured CPU time of the full QRM plan on this machine (µs).
    pub cpu_full_us: f64,
    /// Measured CPU time of the kernel analysis only (paper scope, µs).
    pub cpu_kernel_us: f64,
    /// Kernel-scope speedup (paper: ~54x).
    pub speedup: f64,
    /// This machine's measured Tetris analysis time at 50x50 (µs). The
    /// paper's 300x compares against Tetris running on the RFSoC's ARM
    /// core; we report the host-measured ratio without inventing an ARM
    /// scaling factor.
    pub tetris_us: f64,
    /// `tetris_us / fpga_us` on this machine.
    pub vs_tetris_host: f64,
    /// Analysis cycles on the FPGA model.
    pub cycles: u64,
}

/// Computes the headline row.
pub fn headline(reps: usize) -> Headline {
    let (grid, target) = paper_instance(50, 42);
    let scheduler = QrmScheduler::new(QrmConfig::paper());
    let accel = QrmAccelerator::new(AcceleratorConfig::paper());
    let tetris = TetrisScheduler::default();
    let times = best_us_over_passes(reps, 3, |cell| {
        if cell == 0 {
            std::hint::black_box(scheduler.plan(&grid, &target).expect("plan"));
        } else if cell == 1 {
            std::hint::black_box(scheduler.quadrant_outcomes(&grid, &target).expect("plan"));
        } else {
            std::hint::black_box(tetris.plan(&grid, &target).expect("plan"));
        }
    });
    let (cpu_full_us, cpu_kernel_us, tetris_us) = (times[0], times[1], times[2]);
    let report = accel.run(&grid, &target).expect("run");
    Headline {
        fpga_us: report.time_us,
        cpu_full_us,
        cpu_kernel_us,
        speedup: cpu_kernel_us / report.time_us,
        tetris_us,
        vs_tetris_host: tetris_us / report.time_us,
        cycles: report.cycles.analysis(),
    }
}

/// One row of the schedule-quality study (E-x1).
#[derive(Debug, Clone)]
pub struct QualityRow {
    /// Strategy under test.
    pub strategy: KernelStrategy,
    /// Iteration budget.
    pub iterations: usize,
    /// Instances fully assembled.
    pub filled: usize,
    /// Instances tried.
    pub total: usize,
    /// Mean defects left.
    pub mean_defects: f64,
    /// Mean parallel moves per schedule.
    pub mean_moves: f64,
}

/// E-x1: fill quality of the greedy (paper) and balanced (extension)
/// kernels vs iteration budget, on the headline 50x50 -> 30x30 workload.
pub fn quality(instances: usize) -> Vec<QualityRow> {
    let mut rows = Vec::new();
    for strategy in [KernelStrategy::Greedy, KernelStrategy::Balanced] {
        for iterations in [2usize, 4, 8, 12] {
            let scheduler = QrmScheduler::new(
                QrmConfig::default()
                    .with_strategy(strategy)
                    .with_max_iterations(iterations),
            );
            let mut filled = 0;
            let mut defects = 0usize;
            let mut moves = 0usize;
            for i in 0..instances {
                let (grid, target) = paper_instance(50, 3000 + i as u64);
                let plan = scheduler.plan(&grid, &target).expect("plan");
                filled += usize::from(plan.filled);
                defects += plan.defects(&target).expect("defects");
                moves += plan.schedule.len();
            }
            rows.push(QualityRow {
                strategy,
                iterations,
                filled,
                total: instances,
                mean_defects: defects as f64 / instances as f64,
                mean_moves: moves as f64 / instances as f64,
            });
        }
    }
    rows
}

/// E-x2: the quadrant-parallelism ablation — modelled FPGA analysis
/// latency with 4 parallel QPMs vs one QPM processing the quadrants
/// back-to-back. Returns `(size, parallel_us, serial_us)` rows.
pub fn ablation_quadrants() -> Vec<(usize, f64, f64)> {
    let accel = QrmAccelerator::new(AcceleratorConfig::paper());
    [10usize, 30, 50, 70, 90]
        .iter()
        .map(|&size| {
            let (grid, target) = paper_instance(size, 4000 + size as u64);
            let report = accel.run(&grid, &target).expect("run");
            // Serial: the four quadrants, all of one shape, queue on one
            // QPM.
            let serial = CycleBreakdown {
                compute: 4 * report.cycles.compute,
                ..report.cycles
            };
            let clock = accel.config().clock;
            (size, report.time_us, clock.us(serial.analysis()))
        })
        .collect()
}

/// E-x3: the command-merging ablation — schedule length with and without
/// cross-quadrant merging. Returns `(size, merged_moves, unmerged_moves)`.
pub fn ablation_merge(instances: usize) -> Vec<(usize, f64, f64)> {
    [20usize, 50]
        .iter()
        .map(|&size| {
            let mut merged = 0usize;
            let mut unmerged = 0usize;
            for i in 0..instances {
                let (grid, target) = paper_instance(size, 5000 + i as u64);
                let on = QrmScheduler::new(QrmConfig::default().with_merge_quadrants(true))
                    .plan(&grid, &target)
                    .expect("plan");
                let off = QrmScheduler::new(QrmConfig::default().with_merge_quadrants(false))
                    .plan(&grid, &target)
                    .expect("plan");
                merged += on.schedule.len();
                unmerged += off.schedule.len();
            }
            (
                size,
                merged as f64 / instances as f64,
                unmerged as f64 / instances as f64,
            )
        })
        .collect()
}

/// E-x4: the Fig. 2 system-architecture budgets, with the measured
/// scheduling times plugged in.
pub fn system_budgets(cpu_sched_us: f64, fpga_sched_us: f64) -> (f64, f64, String) {
    let model = SystemModel::typical().with_scheduling_us(cpu_sched_us, fpga_sched_us);
    let host = model.budget(Architecture::HostLoop, (300, 300), 150);
    let fpga = model.budget(Architecture::OnFpga, (300, 300), 150);
    let text =
        format!("host-in-the-loop (Fig. 2a):\n{host}\n\nfully integrated (Fig. 2b):\n{fpga}\n");
    (host.total_us(), fpga.total_us(), text)
}

/// The engine-scaling workload: `shots` independent `size x size`
/// planning problems (the batch a multi-shot experiment hands the
/// planner at once).
pub fn engine_workload(size: usize, shots: usize) -> Vec<(AtomGrid, Rect)> {
    (0..shots)
        .map(|i| paper_instance(size, 7000 + i as u64))
        .collect()
}

/// One row of the engine-scaling study (E-x5).
#[derive(Debug, Clone, Copy)]
pub struct EngineRow {
    /// Batch worker count: `1` runs the task graph inline, `0` runs
    /// every quadrant kernel as a job on the pool (one worker per core).
    pub workers: usize,
    /// Best wall time of the whole batch (µs).
    pub batch_us: f64,
    /// Speedup over the serial (mapped `plan`) baseline.
    pub speedup: f64,
}

/// E-x5: serial vs batched planning. Returns the serial baseline time
/// (µs) and two engine rows: inline (`workers 1`) and pool (`workers 0`).
/// On a single-core host the pool row resolves to inline, so both rows
/// measure engine overhead (speedup <= 1); on a multi-core host the pool
/// row scales with cores — the software analogue of the paper's four
/// parallel QPMs.
pub fn engine_scaling(size: usize, shots: usize, reps: usize) -> (f64, [EngineRow; 2]) {
    let jobs = engine_workload(size, shots);
    let serial = QrmScheduler::new(QrmConfig::default());
    let workers = [1, 0];
    let batched = workers.map(|w| QrmScheduler::new(QrmConfig::default()).with_workers(w));
    // Cell 0 is the serial baseline, cell `i > 0` the batch on `batched[i - 1]`.
    let times = best_us_over_passes(reps, 1 + batched.len(), |cell| {
        if cell == 0 {
            std::hint::black_box(
                jobs.iter()
                    .map(|(g, t)| serial.plan(g, t).expect("plan"))
                    .collect::<Vec<_>>(),
            );
        } else {
            std::hint::black_box(batched[cell - 1].plan_batch(&jobs).expect("plan"));
        }
    });
    let serial_us = times[0];
    let rows = std::array::from_fn(|i| EngineRow {
        workers: workers[i],
        batch_us: times[i + 1],
        speedup: serial_us / times[i + 1],
    });
    (serial_us, rows)
}

/// The kernel primitives of [`kernels`], each with the calls one timed
/// cell makes of it.
const KERNELS: [(&str, usize); 4] = [
    ("bitline_suffix_shift", 10_000),
    ("kernel_row_pass_25", 1_000),
    ("kernel_run_25", 100),
    ("shift_unit_sim_25", 100),
];

/// The kernel primitives at the headline quadrant size: a 25x25 quadrant
/// of a 50x50 array at 50 % fill, with the 15x15 corner target of its
/// 30x30 target. Returns each primitive's name with its time per call
/// (µs), the best of `reps` passes of [`best_us_over_passes`]; a timed
/// cell repeats its primitive so that it runs well above the timer's
/// resolution.
///
/// * `bitline_suffix_shift`: the lowest-hole search and one suffix
///   shift on the quadrant's first row;
/// * `kernel_row_pass_25`: one greedy row pass ([`run_pass`]) including
///   its grid clone and its two transposes (a row pass's bit planes are
///   the grid's columns);
/// * `kernel_run_25`: one whole [`ShiftKernel::run`] under the paper
///   config (greedy, four iterations with early exit), the unit
///   [`fig7a`]'s 50x50 `cpu_kernel_us` runs four of;
/// * `shift_unit_sim_25`: the cycle-accurate [`ShiftUnit`] simulation of
///   the same row pass.
pub fn kernels(reps: usize) -> [(&'static str, f64); 4] {
    let mut rng = seeded_rng(1);
    let quadrant = AtomGrid::random(25, 25, 0.5, &mut rng);
    let windows = plan_row_windows(&quadrant, KernelStrategy::Greedy, 15, 15);
    let paper = QrmConfig::paper();
    let kernel = ShiftKernel::new(
        KernelConfig::new(15, 15)
            .with_strategy(paper.strategy)
            .with_max_iterations(paper.max_iterations),
    );
    let jobs: Vec<LineJob> = (0..25)
        .map(|line| LineJob {
            line,
            bits: quadrant.row_bits(line).to_vec(),
            window: windows[line],
            enabled: true,
        })
        .collect();
    let unit = ShiftUnit::new(25);
    let row = quadrant.row_bits(0);
    let mut line = row.to_vec();
    let times = best_us_over_passes(reps, KERNELS.len(), |cell| {
        for _ in 0..KERNELS[cell].1 {
            match cell {
                0 => {
                    line.copy_from_slice(row);
                    if let Some(hole) = bitline::lowest_zero_in(&line, 0, 25) {
                        bitline::suffix_shift(&mut line, hole, 25);
                    }
                    std::hint::black_box(&line);
                }
                1 => {
                    let mut grid = quadrant.clone();
                    std::hint::black_box(run_pass(&mut grid, Axis::Row, &windows, None));
                }
                2 => {
                    std::hint::black_box(kernel.run(&quadrant).expect("target fits"));
                }
                _ => {
                    std::hint::black_box(unit.run(Axis::Row, &jobs));
                }
            }
        }
    });
    std::array::from_fn(|i| (KERNELS[i].0, times[i] / KERNELS[i].1 as f64))
}

/// Parameters of a service load run (the `experiments serve` command):
/// how many client threads hammer the planning service with how many
/// mixed-planner batch submissions each.
#[derive(Debug, Clone, Copy)]
pub struct ServeConfig {
    /// Concurrent client threads.
    pub clients: usize,
    /// Submissions per client.
    pub batches: usize,
    /// Shots per submitted batch.
    pub shots: usize,
    /// Array side of every batch (even).
    pub size: usize,
    /// Maximum pipeline rounds per shot.
    pub rounds: usize,
    /// Base seed; each submission derives its own workload seed.
    pub seed: u64,
    /// Batch worker count of every registered pipeline (`0` = one per
    /// core).
    pub workers: usize,
    /// Service admission cap (`0` = unlimited).
    pub max_inflight: usize,
    /// Response-cache byte budget of the service (`0` = cache off).
    pub cache_bytes: usize,
    /// How many times each client replays its submission sequence.
    /// Passes beyond the first hit identical specs, so with a cache
    /// enabled they measure the cached path; digests count every pass.
    pub repeat: usize,
    /// Bearer token: a `--listen` server requires it on every request
    /// and `--remote` clients send it (`None` = auth off). `&'static`
    /// keeps the config `Copy`; the CLI leaks its parsed flag once.
    pub auth_token: Option<&'static str>,
    /// Response-streaming threshold handed to the served
    /// [`NetConfig`](qrm_net::NetConfig): bodies at or above this many
    /// bytes leave as chunked streams.
    pub stream_threshold: usize,
    /// Workload scenario stamped onto every generated spec
    /// ([`qrm_server::Scenario::UniformFill`] = the classic load). The
    /// same scenario flows through the in-process and remote drivers,
    /// so scenario-bearing digests stay comparable between them.
    pub scenario: qrm_server::Scenario,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            clients: 4,
            batches: 4,
            shots: 2,
            size: 16,
            rounds: 3,
            seed: 11000,
            workers: 0,
            max_inflight: 0,
            cache_bytes: 0,
            repeat: 1,
            auth_token: None,
            stream_threshold: qrm_net::NetConfig::default().stream_threshold,
            scenario: qrm_server::Scenario::UniformFill,
        }
    }
}

/// The [`qrm_net::NetConfig`] a load run's server side should bind
/// with: the library defaults, plus whatever transport knobs
/// (`auth_token`, `stream_threshold`) the serve parameters carry —
/// kept in one place so the CLI's `--listen` server and in-test
/// servers cannot drift apart.
pub fn net_config(serve: &ServeConfig) -> qrm_net::NetConfig {
    qrm_net::NetConfig {
        auth_token: serve.auth_token.map(str::to_string),
        stream_threshold: serve.stream_threshold,
        ..qrm_net::NetConfig::default()
    }
}

/// Outcome of a service load run.
#[derive(Debug, Clone)]
pub struct ServeReport {
    /// Submissions served (clients × batches).
    pub submitted: usize,
    /// Shots across all submissions.
    pub shots: usize,
    /// Shots whose target ended defect-free.
    pub filled: usize,
    /// Wall-clock time of the whole run (µs), client threads included.
    pub wall_us: f64,
    /// Served batches per second of wall-clock time.
    pub batches_per_s: f64,
    /// The service's own aggregate stats at the end of the run.
    pub stats: qrm_server::ServiceStats,
    /// Per-planner **deterministic** digest of the served payloads, in
    /// planner-name order. Everything here derives from report payloads
    /// only (no timing), so an in-process run and a `--remote` run of
    /// the same parameters print byte-identical digest lines — the CI
    /// network job diffs exactly that.
    pub digest: Vec<DigestRow>,
}

/// Deterministic per-planner payload totals of a load run.
#[derive(Debug, Clone, PartialEq)]
pub struct DigestRow {
    /// Planner (registration) name.
    pub planner: String,
    /// Batches this planner served.
    pub batches: usize,
    /// Shots across those batches.
    pub shots: usize,
    /// Shots that ended defect-free.
    pub filled: usize,
    /// Pipeline rounds across all shots.
    pub rounds: usize,
    /// Parallel moves across all rounds.
    pub moves: usize,
    /// Atoms lost in transport across all rounds.
    pub lost: usize,
    /// Physical tweezer time across all rounds (µs; exact f64 sum in
    /// fixed submission order).
    pub motion_us: f64,
    /// FNV-1a 64 over every served batch's canonical report JSON, folded
    /// in fixed submission order — two runs print the same value only
    /// if every report matches byte for byte.
    pub payload: u64,
}

impl DigestRow {
    /// The canonical one-line rendering the CI loopback job diffs.
    /// Floats print with shortest round-trip formatting, so equal
    /// payloads render byte-identically.
    pub fn line(&self) -> String {
        format!(
            "digest planner={} batches={} shots={} filled={} rounds={} moves={} lost={} motion_us={} payload={:016x}",
            self.planner,
            self.batches,
            self.shots,
            self.filled,
            self.rounds,
            self.moves,
            self.lost,
            self.motion_us,
            self.payload
        )
    }
}

/// The deterministic request of global submission index `index`
/// (shared by the in-process and remote load drivers so their
/// workloads — and therefore digests — are identical).
fn load_request(
    serve: &ServeConfig,
    names: &[&'static str],
    client: usize,
    batch: usize,
) -> qrm_server::SubmitBatch {
    let index = (client * serve.batches + batch) as u64;
    let name = names[(client + batch) % names.len()];
    let spec = qrm_server::BatchSpec::new(
        serve.shots,
        serve.size,
        serve.seed ^ index.wrapping_mul(0x9e37_79b9_7f4a_7c15),
    )
    .with_scenario(serve.scenario);
    qrm_server::SubmitBatch::new(name, spec)
}

/// Runs the client threads against an arbitrary submitter (in-process
/// service or HTTP client) and folds the reports into digest rows in
/// deterministic (client, batch) order.
fn drive_load<F>(
    serve: &ServeConfig,
    make_submitter: impl Fn() -> F + Sync,
) -> (Vec<DigestRow>, f64)
where
    F: FnMut(&qrm_server::SubmitBatch) -> qrm_server::BatchReport + Send,
{
    let names: Vec<&'static str> = planner_choices().iter().map(|(n, _)| *n).collect();
    let t0 = Instant::now();
    // Each client folds its own reports as they arrive (its batches are
    // sequential, so its partial f64 sums have a fixed order), then the
    // partials merge in client-index order — memory stays O(planners)
    // per client instead of buffering every report (with its per-round
    // grid states) until the run ends, and the overall fold structure
    // is fixed, so digests stay bit-reproducible run to run and equal
    // between the in-process and remote drivers.
    let per_client: Vec<BTreeMap<String, DigestRow>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..serve.clients)
            .map(|client| {
                let names = &names;
                let make_submitter = &make_submitter;
                scope.spawn(move || {
                    let mut submit = make_submitter();
                    let mut rows = BTreeMap::new();
                    for _pass in 0..serve.repeat.max(1) {
                        for batch in 0..serve.batches {
                            let request = load_request(serve, names, client, batch);
                            let report = submit(&request);
                            fold_report(&mut rows, &request.planner, &report);
                        }
                    }
                    rows
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let wall_us = t0.elapsed().as_secs_f64() * 1e6;

    let mut rows: BTreeMap<String, DigestRow> = BTreeMap::new();
    for client_rows in per_client {
        for (name, partial) in client_rows {
            match rows.entry(name) {
                std::collections::btree_map::Entry::Vacant(slot) => {
                    slot.insert(partial);
                }
                std::collections::btree_map::Entry::Occupied(mut slot) => {
                    let row = slot.get_mut();
                    row.batches += partial.batches;
                    row.shots += partial.shots;
                    row.filled += partial.filled;
                    row.rounds += partial.rounds;
                    row.moves += partial.moves;
                    row.lost += partial.lost;
                    row.motion_us += partial.motion_us;
                    row.payload = fnv1a(&partial.payload.to_le_bytes(), row.payload);
                }
            }
        }
    }
    (rows.into_values().collect(), wall_us)
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Continues an FNV-1a 64 hash over `bytes`.
fn fnv1a(bytes: &[u8], mut hash: u64) -> u64 {
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0100_0000_01b3);
    }
    hash
}

/// Folds one served report into a client's per-planner partial rows.
fn fold_report(
    rows: &mut BTreeMap<String, DigestRow>,
    planner: &str,
    report: &qrm_server::BatchReport,
) {
    let row = rows
        .entry(planner.to_string())
        .or_insert_with(|| DigestRow {
            planner: planner.to_string(),
            batches: 0,
            shots: 0,
            filled: 0,
            rounds: 0,
            moves: 0,
            lost: 0,
            motion_us: 0.0,
            payload: FNV_OFFSET,
        });
    row.batches += 1;
    row.payload = fnv1a(report.reports.to_json().as_bytes(), row.payload);
    row.shots += report.shots();
    row.filled += report.filled();
    for shot in &report.reports {
        row.rounds += shot.rounds.len();
        row.moves += shot.rounds.iter().map(|r| r.moves).sum::<usize>();
        row.lost += shot.total_lost();
        row.motion_us += shot.total_motion_us();
    }
}

fn assemble_report(
    serve: &ServeConfig,
    digest: Vec<DigestRow>,
    wall_us: f64,
    stats: qrm_server::ServiceStats,
) -> ServeReport {
    let submitted = serve.clients * serve.batches * serve.repeat.max(1);
    ServeReport {
        submitted,
        shots: digest.iter().map(|r| r.shots).sum(),
        filled: digest.iter().map(|r| r.filled).sum(),
        wall_us,
        batches_per_s: submitted as f64 / (wall_us / 1e6),
        stats,
        digest,
    }
}

/// Builds a planning service with **all seven planners** registered
/// under their CLI names (the [`planner_choices`] registry), every
/// pipeline at the given worker count and round/loss settings.
pub fn build_service(serve: &ServeConfig) -> qrm_server::PlanService {
    let mut builder = qrm_server::PlanService::builder()
        .max_inflight(serve.max_inflight)
        .cache_bytes(serve.cache_bytes);
    for (name, choice) in planner_choices() {
        let pipeline = PipelineConfig {
            workers: serve.workers,
            loss_prob: 0.01,
            max_rounds: serve.rounds,
            ..PipelineConfig::default()
        };
        builder = builder.register(name, choice, pipeline);
    }
    builder.build()
}

/// Runs the service load **in-process**: `clients` threads each
/// submit `batches` requests, cycling through the seven registered
/// planners so the service serves a concurrent mixed-planner stream,
/// and every submission's workload seed is unique. Panics on any
/// submission error (the registry covers every requested planner and
/// the workload specs are valid by construction).
pub fn service_load(serve: &ServeConfig) -> ServeReport {
    let service = build_service(serve);
    let (digest, wall_us) = drive_load(serve, || {
        |request: &qrm_server::SubmitBatch| service.submit(request).expect("load submission")
    });
    assemble_report(serve, digest, wall_us, service.stats())
}

/// [`service_load`] over the network: the same client threads and the
/// same deterministic workload stream, but every submission travels
/// through an HTTP [`qrm_net::Client`] to the server at `addr` (one
/// connection per client thread). The digest rows are **identical**
/// to an in-process [`service_load`] of the same parameters against a
/// server started with the same parameters — the bit-identity
/// contract, network leg. Panics on submission errors (unknown
/// planner, unreachable server mid-run).
pub fn remote_load(addr: &str, serve: &ServeConfig) -> ServeReport {
    let connect = |addr: &str| {
        let client = qrm_net::Client::connect(addr.to_string());
        match serve.auth_token {
            Some(token) => client.with_auth_token(token),
            None => client,
        }
    };
    let (digest, wall_us) = drive_load(serve, || {
        let mut client = connect(addr);
        move |request: &qrm_server::SubmitBatch| {
            client.submit(request).expect("remote load submission")
        }
    });
    let stats = connect(addr).stats().expect("remote stats");
    assemble_report(serve, digest, wall_us, stats)
}

/// [`remote_load`] against a consistent-hash **router** front end: the
/// same deterministic workload stream, submitted to the router at
/// `addr`, which fans it over its backend fleet. Digest rows are again
/// identical to an in-process [`service_load`] of the same parameters
/// — the bit-identity contract's fifth (fleet) leg, which the CI
/// `fleet` job diffs, backend kill included.
///
/// Unlike [`remote_load`], submissions here survive transient fleet
/// trouble: a failed submission is retried on a **fresh** connection a
/// bounded number of times. Driver-level resubmission is digest-safe
/// because batches are deterministic — a resubmitted spec produces the
/// byte-identical report, and each submission slot folds exactly once.
/// The final stats come from `GET /v1/router/stats`.
pub fn route_load(addr: &str, serve: &ServeConfig) -> (ServeReport, qrm_wire::RouterStats) {
    const ATTEMPTS: usize = 5;
    let (digest, wall_us) = drive_load(serve, || {
        let mut client = qrm_net::Client::connect(addr.to_string());
        move |request: &qrm_server::SubmitBatch| {
            let mut last_err = None;
            for attempt in 0..ATTEMPTS {
                if attempt > 0 {
                    // Fresh connection: the old one may be poisoned by a
                    // torn response, and backoff gives the router's
                    // health sweep time to notice a dead backend.
                    client = qrm_net::Client::connect(addr.to_string());
                    std::thread::sleep(std::time::Duration::from_millis(200));
                }
                match client.submit(request) {
                    Ok(report) => return report,
                    Err(err) => last_err = Some(err),
                }
            }
            panic!(
                "routed submission failed {ATTEMPTS} times: {}",
                last_err.expect("error recorded")
            );
        }
    });
    let router_stats = qrm_net::Client::connect(addr.to_string())
        .router_stats()
        .expect("router stats");
    // The router has no aggregate `/v1/stats`; the service-stats slot of
    // the report stays at its default and the router's own counters ride
    // alongside.
    let report = assemble_report(serve, digest, wall_us, qrm_server::ServiceStats::default());
    (report, router_stats)
}

/// Polls `GET /v1/healthz` at `addr` until the server answers or
/// `timeout` elapses — how the `--remote` driver (and CI) waits for a
/// freshly spawned `--listen` process to come up.
pub fn wait_for_server(addr: &str, timeout: std::time::Duration) -> bool {
    let deadline = Instant::now() + timeout;
    let mut client = qrm_net::Client::connect(addr.to_string());
    loop {
        if client.healthz().is_ok() {
            return true;
        }
        if Instant::now() >= deadline {
            return false;
        }
        std::thread::sleep(std::time::Duration::from_millis(50));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn planner_matrix_reaches_all_seven_through_the_trait() {
        let planners = planner_matrix();
        assert_eq!(planners.len(), 7, "QRM, typical, 3 baselines, hybrid, FPGA");
        let names: std::collections::BTreeSet<&str> = planners.iter().map(|p| p.name()).collect();
        assert_eq!(names.len(), 7, "planner names must be distinct");
        let (grid, target) = paper_instance(16, 321);
        let jobs = vec![(grid.clone(), target), (grid.clone(), target)];
        for planner in &planners {
            let single = planner.plan(&grid, &target).expect("plan");
            let batched = planner.plan_batch(&jobs).expect("batch");
            assert_eq!(
                batched,
                vec![single.clone(), single.clone()],
                "{} batch != mapped plan",
                planner.name()
            );
            planner
                .executor()
                .run(&grid, &single.schedule)
                .expect("schedule must execute under the trait's executor");
        }
    }

    #[test]
    fn planner_choices_mirror_the_matrix() {
        // The config-level registry and the trait-object matrix must
        // cover the same seven planners: resolving every choice yields
        // seven distinct planner names, matching the matrix's set.
        let choices = planner_choices();
        assert_eq!(choices.len(), 7);
        let resolved: std::collections::BTreeSet<&str> = choices
            .iter()
            .map(|(_, choice)| choice.resolve(1).name())
            .collect();
        let matrix: std::collections::BTreeSet<&str> =
            planner_matrix().iter().map(|p| p.name()).collect();
        assert_eq!(resolved, matrix);
    }

    #[test]
    fn pipeline_sweep_runs_end_to_end() {
        let sweep = SweepConfig {
            shots: 2,
            size: 12,
            ..SweepConfig::default()
        };
        let row = pipeline_sweep("qrm", &PlannerChoice::Software(QrmConfig::paper()), &sweep);
        assert_eq!(row.total, 2);
        assert!(row.wall_us > 0.0);
        assert!(row.mean_rounds <= sweep.rounds as f64);
    }

    #[test]
    fn sweep_pool_counters_are_per_run_deltas() {
        // Two consecutive sweeps must each report only their own pool
        // activity: the cumulative process counters keep growing, but a
        // row's delta cannot exceed the growth during the whole test —
        // and a second row's counters must not include the first's.
        let sweep = SweepConfig {
            shots: 2,
            size: 12,
            ..SweepConfig::default()
        };
        let before = rayon::global_pool_stats();
        let first = pipeline_sweep("qrm", &PlannerChoice::Software(QrmConfig::paper()), &sweep);
        let between = rayon::global_pool_stats();
        let second = pipeline_sweep("qrm", &PlannerChoice::Software(QrmConfig::paper()), &sweep);
        let after = rayon::global_pool_stats();
        assert!(first.pool.jobs_executed <= between.since(&before).jobs_executed);
        assert!(second.pool.jobs_executed <= after.since(&between).jobs_executed);
        // Zero new threads during either run: the pool is persistent.
        assert_eq!(first.pool.threads_spawned + second.pool.threads_spawned, 0);
    }

    #[test]
    fn service_load_serves_every_submission() {
        let serve = ServeConfig {
            clients: 3,
            batches: 3,
            shots: 1,
            size: 12,
            ..ServeConfig::default()
        };
        let report = service_load(&serve);
        assert_eq!(report.submitted, 9);
        assert_eq!(report.shots, 9);
        assert_eq!(report.stats.batches_served, 9);
        assert_eq!(report.stats.shots_served, 9);
        assert_eq!(report.stats.inflight, 0);
        assert_eq!(report.stats.queued, 0);
        assert!(report.batches_per_s > 0.0);
        // 3 clients x 3 batches cycling over 7 planners touches names
        // (c + b) % 7 for c, b in 0..3 — exactly planners 0..=4.
        let served: usize = report
            .stats
            .planners
            .iter()
            .map(|p| p.batches as usize)
            .sum();
        assert_eq!(served, 9);
        assert_eq!(report.stats.planners.len(), 7);
    }

    #[test]
    fn planner_registry_names_match_planner_choice_names() {
        // The CLI registry, the PlannerChoice Display names, and the
        // choices' self-reported names must agree — the wire protocol's
        // planner identifiers are these strings.
        let registry: Vec<&str> = planner_choices().iter().map(|(n, _)| *n).collect();
        assert_eq!(registry, PlannerChoice::NAMES);
        for (name, choice) in planner_choices() {
            assert_eq!(choice.name(), name);
            assert_eq!(choice.to_string(), name);
            let parsed: PlannerChoice = name.parse().expect("canonical name parses");
            assert_eq!(parsed.name(), name);
        }
    }

    #[test]
    fn remote_load_digest_matches_in_process_load() {
        // The bit-identity contract at the load-driver level: the same
        // parameters through HTTP produce the same digest rows as the
        // in-process run (timing fields excluded by construction).
        let serve = ServeConfig {
            clients: 2,
            batches: 4,
            shots: 1,
            size: 12,
            workers: 1,
            ..ServeConfig::default()
        };
        let local = service_load(&serve);

        let service = std::sync::Arc::new(build_service(&serve));
        let server = qrm_net::Server::bind("127.0.0.1:0", service, qrm_net::NetConfig::default())
            .expect("bind");
        let addr = server.addr().to_string();
        assert!(wait_for_server(&addr, std::time::Duration::from_secs(5)));
        let remote = remote_load(&addr, &serve);

        assert_eq!(remote.digest, local.digest);
        assert_eq!(remote.submitted, local.submitted);
        assert_eq!(
            remote.stats.batches_served, local.stats.batches_served,
            "remote service served the same stream"
        );
        let lines: Vec<String> = local.digest.iter().map(DigestRow::line).collect();
        assert_eq!(
            remote
                .digest
                .iter()
                .map(DigestRow::line)
                .collect::<Vec<_>>(),
            lines,
            "digest lines are byte-identical"
        );
    }

    #[test]
    fn build_service_registers_all_seven() {
        let service = build_service(&ServeConfig::default());
        let names: Vec<&str> = service.planners().collect();
        let expected: Vec<&str> = {
            let mut v: Vec<&str> = planner_choices().iter().map(|(n, _)| *n).collect();
            v.sort_unstable();
            v
        };
        assert_eq!(names, expected);
    }

    #[test]
    fn paper_instance_is_feasible() {
        let (grid, target) = paper_instance(20, 1);
        assert!(grid.atom_count() >= target.area());
        assert_eq!(target.height, 12);
    }

    #[test]
    fn fig8_rows_match_anchors() {
        let rows = fig8();
        assert_eq!(rows.len(), 5);
        let last = rows.last().unwrap();
        assert!((last.lut_pct - 6.31).abs() < 0.35);
        assert!((last.ff_pct - 6.19).abs() < 0.35);
    }

    #[test]
    fn quality_rows_cover_grid() {
        let rows = quality(3);
        assert_eq!(rows.len(), 8);
        // balanced at 12 iterations should dominate greedy at 4
        let greedy4 = rows
            .iter()
            .find(|r| r.strategy == KernelStrategy::Greedy && r.iterations == 4)
            .unwrap();
        let bal12 = rows
            .iter()
            .find(|r| r.strategy == KernelStrategy::Balanced && r.iterations == 12)
            .unwrap();
        assert!(bal12.mean_defects <= greedy4.mean_defects);
    }

    #[test]
    fn ablations_have_expected_direction() {
        let quad = ablation_quadrants();
        for (size, parallel, serial) in quad {
            assert!(
                serial > parallel,
                "size {size}: serial {serial} <= parallel {parallel}"
            );
        }
        let merge = ablation_merge(2);
        for (size, merged, unmerged) in merge {
            assert!(merged <= unmerged, "size {size}");
        }
    }

    #[test]
    fn kernels_time_every_primitive() {
        let rows = kernels(1);
        assert_eq!(rows.map(|(name, _)| name), KERNELS.map(|(name, _)| name));
        assert!(rows.iter().all(|(_, us)| us.is_finite() && *us >= 0.0));
    }

    #[test]
    fn every_pass_times_each_cell_once_after_an_untimed_call() {
        let mut calls = [0usize; 3];
        let times = best_us_over_passes(2, 3, |cell| calls[cell] += 1);
        assert_eq!(calls, [4, 4, 4]);
        assert!(times.iter().all(|t| t.is_finite() && *t >= 0.0));
    }

    #[test]
    fn engine_scaling_measures_and_stays_deterministic() {
        let (serial_us, rows) = engine_scaling(20, 4, 3);
        assert!(serial_us > 0.0);
        assert_eq!(rows.map(|r| r.workers), [1, 0]);
        assert!(rows.iter().all(|r| r.batch_us > 0.0 && r.speedup > 0.0));
        // Whatever the timing, the parallel engine's plans must equal
        // the serial planner's on the same workload.
        let jobs = engine_workload(20, 4);
        let serial = QrmScheduler::new(QrmConfig::default());
        let expected: Vec<_> = jobs
            .iter()
            .map(|(g, t)| serial.plan(g, t).unwrap())
            .collect();
        let scheduler = QrmScheduler::new(QrmConfig::default()).with_workers(2);
        assert_eq!(scheduler.plan_batch(&jobs).unwrap(), expected);
    }
}
