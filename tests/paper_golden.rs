//! Cross-commit pin of the paper-facing model numbers.
//!
//! `plans_golden` pins what the planners plan; this file pins what the
//! FPGA model reports about it. It compares against
//! `tests/golden/paper.v1.txt`, written once by an earlier build: one
//! line per accelerator configuration and instance holding every
//! [`CycleBreakdown`] field, the analysis and end-to-end latencies, the
//! move count and the fill flag, plus one line per row of the resource
//! table (`fig8`), of the quadrant-parallelism ablation
//! (`ablation_quadrants`), of the schedule-quality study (`quality(10)`,
//! E-x1) and of the command-merging ablation (`ablation_merge(5)`,
//! E-x3), at the instance counts `experiments quality` and
//! `experiments ablations` print. The planner comparison (`fig7b(1, 8)`,
//! the eight instances `experiments fig7b` prints) adds one line per row
//! with its name and fill count, and the FPGA row's modelled
//! `analysis_us`; the headline (`headline(1)`) its modelled `fpga_us`
//! and cycles; and the E-x4 budgets (`system_budgets(54.0, 1.0)`) both
//! totals. Those three time their other cells with one pass that never
//! sleeps, and only their untimed fields are read. `fig7a`'s `fpga_us`
//! is the `accel paper` lines' `time_us` (same instances). A change to
//! the cycle model or the planner that claims unchanged numbers must
//! leave every line unchanged.
//!
//! Regenerate only for a declared model change:
//! `cargo test --test paper_golden -- --ignored`, and name the change
//! in the commit that rewrites the file.

use std::fmt::Write as _;
use std::path::PathBuf;

use atom_rearrange::prelude::*;
use qrm_bench::{
    ablation_merge, ablation_quadrants, fig7b, fig8, headline, paper_instance, quality,
    system_budgets,
};
use qrm_fpga::accelerator::CycleBreakdown;

/// Square array sizes of Fig. 7(a), each at `paper_instance(size, 1000 + size)`.
const SIZES: [usize; 5] = [10, 30, 50, 70, 90];

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/paper.v1.txt")
}

/// The 24x40 -> 14x24 rectangular instance of
/// `tests/extensions.rs::rectangular_arrays_and_targets`.
fn rectangular_instance() -> (AtomGrid, Rect) {
    let mut rng = qrm_core::loading::seeded_rng(702);
    let grid = LoadModel::new(0.55)
        .load_at_least(24, 40, 400, 64, &mut rng)
        .expect("feasible instance");
    (grid, Rect::centered(24, 40, 14, 24).expect("fits"))
}

/// The corpus as text: a header comment, then one line per case. Floats
/// print in Rust's shortest round-trip form, so a line changes exactly
/// when a bit of its value does.
fn corpus() -> String {
    let mut out = String::from("# kind config/size fields -- see tests/paper_golden.rs\n");
    let configs = [
        ("paper", AcceleratorConfig::paper()),
        ("balanced", AcceleratorConfig::balanced()),
    ];
    for (name, config) in configs {
        let accel = QrmAccelerator::new(config);
        let instances = SIZES
            .iter()
            .map(|&size| paper_instance(size, 1000 + size as u64))
            .chain([rectangular_instance()]);
        for (grid, target) in instances {
            let report = accel.run(&grid, &target).expect("run");
            let CycleBreakdown {
                control,
                input,
                compute,
                combine,
                writeback,
            } = report.cycles;
            writeln!(
                out,
                "accel {name} {}x{}->{}x{} control {control} input {input} compute {compute} \
                 combine {combine} writeback {writeback} time_us {} total_time_us {} moves {} \
                 filled {}",
                grid.height(),
                grid.width(),
                target.height,
                target.width,
                report.time_us,
                report.total_time_us,
                report.plan.schedule.len(),
                report.plan.filled,
            )
            .expect("write to string");
        }
    }
    for row in fig8() {
        writeln!(
            out,
            "fig8 {} lut_pct {} ff_pct {} bram_pct {}",
            row.size, row.lut_pct, row.ff_pct, row.bram_pct
        )
        .expect("write to string");
    }
    for (size, parallel_us, serial_us) in ablation_quadrants() {
        writeln!(
            out,
            "ablation_quadrants {size} parallel_us {parallel_us} serial_us {serial_us}"
        )
        .expect("write to string");
    }
    for row in quality(10) {
        writeln!(
            out,
            "quality {:?} iterations {} filled {}/{} mean_defects {} mean_moves {}",
            row.strategy, row.iterations, row.filled, row.total, row.mean_defects, row.mean_moves
        )
        .expect("write to string");
    }
    for (size, merged, unmerged) in ablation_merge(5) {
        writeln!(
            out,
            "ablation_merge {size} merged_moves {merged} unmerged_moves {unmerged}"
        )
        .expect("write to string");
    }
    // Row 0 is the FPGA's, whose `analysis_us` is modelled; the others
    // are timed.
    for (i, row) in fig7b(1, 8).iter().enumerate() {
        write!(
            out,
            "fig7b {:?} filled {}/{}",
            row.name, row.filled, row.total
        )
        .expect("write to string");
        if i == 0 {
            write!(out, " analysis_us {}", row.analysis_us).expect("write to string");
        }
        writeln!(out).expect("write to string");
    }
    let h = headline(1);
    writeln!(out, "headline fpga_us {} cycles {}", h.fpga_us, h.cycles).expect("write to string");
    let (host_us, fpga_us, _) = system_budgets(54.0, 1.0);
    writeln!(
        out,
        "system_budgets host_loop_total_us {host_us} on_fpga_total_us {fpga_us}"
    )
    .expect("write to string");
    out
}

#[test]
fn paper_numbers_match_the_checked_in_corpus() {
    let expected = std::fs::read_to_string(golden_path()).expect("read paper.v1.txt");
    let actual = corpus();
    let mismatches: Vec<String> = expected
        .lines()
        .zip(actual.lines())
        .filter(|(e, a)| e != a)
        .map(|(e, a)| format!("  expected {e}\n  actual   {a}"))
        .collect();
    assert!(
        mismatches.is_empty() && expected.lines().count() == actual.lines().count(),
        "model numbers drifted from tests/golden/paper.v1.txt ({} lines differ; \
         {} lines expected, {} produced):\n{}",
        mismatches.len(),
        expected.lines().count(),
        actual.lines().count(),
        mismatches.join("\n")
    );
}

/// Rewrites the corpus from the current build. Running it declares a
/// model change.
#[test]
#[ignore = "rewrites tests/golden/paper.v1.txt; run only for a declared model change"]
fn regenerate_paper_golden() {
    let path = golden_path();
    std::fs::create_dir_all(path.parent().expect("golden dir")).expect("create golden dir");
    std::fs::write(&path, corpus()).expect("write paper.v1.txt");
}
