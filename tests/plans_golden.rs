//! Cross-commit pin of planner output.
//!
//! Every other determinism test compares two paths of one build, so a
//! change that moves every path the same way passes them all. This file
//! compares against `tests/golden/plans.v1.txt`, written once by an
//! earlier build: one line per (planner, array size, seed, shot) holding
//! a 64-bit digest of the plan's moves, predicted grid, `filled` flag
//! and iteration count. A planner refactor that claims bit-identical
//! output must leave every line unchanged.
//!
//! Regenerate only for a declared behaviour change:
//! `cargo test --test plans_golden -- --ignored`, and name the change
//! in the commit that rewrites the file.

use std::fmt::Write as _;
use std::path::PathBuf;

use atom_rearrange::prelude::*;
use qrm_bench::{planner_choices, planner_matrix};
use qrm_core::scheduler::Plan;
use qrm_server::BatchSpec;

/// Array sizes: one below a word, the paper's headline, and one whose
/// lines span two `u64` words.
const SIZES: [usize; 3] = [16, 50, 90];
const SEEDS: [u64; 2] = [3, 17];
const SHOTS: usize = 2;

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/plans.v1.txt")
}

fn fnv1a(bytes: &[u8], mut hash: u64) -> u64 {
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0100_0000_01b3);
    }
    hash
}

/// FNV-1a over every move (selection lengths, rows, columns, delta),
/// the predicted grid's dimensions and bitfield, `filled` and
/// `iterations`.
fn plan_digest(plan: &Plan) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325;
    let word = |x: u64, h: u64| fnv1a(&x.to_le_bytes(), h);
    for mv in plan.schedule.iter() {
        h = word(mv.rows().len() as u64, h);
        h = word(mv.cols().len() as u64, h);
        for &x in mv.rows().iter().chain(mv.cols()) {
            h = word(x as u64, h);
        }
        let (dr, dc) = mv.delta();
        h = word(dr as u64, h);
        h = word(dc as u64, h);
    }
    let (height, width) = plan.predicted.dims();
    h = word(height as u64, h);
    h = word(width as u64, h);
    h = fnv1a(&plan.predicted.to_bitfield(), h);
    h = word(u64::from(plan.filled), h);
    word(plan.iterations as u64, h)
}

/// The corpus as text: a header comment, then one line per case.
fn corpus() -> String {
    let mut out =
        String::from("# planner size seed shot moves digest -- see tests/plans_golden.rs\n");
    let names = planner_choices();
    assert_eq!(
        names.len(),
        planner_matrix().len(),
        "one CLI name per planner"
    );
    for ((name, _), planner) in names.iter().zip(planner_matrix()) {
        for size in SIZES {
            for seed in SEEDS {
                let spec = BatchSpec::new(SHOTS, size, seed);
                let target = spec.target().expect("spec target");
                let jobs: Vec<(AtomGrid, Rect)> = spec
                    .workload()
                    .expect("spec workload")
                    .truths
                    .into_iter()
                    .map(|grid| (grid, target))
                    .collect();
                let plans = planner
                    .plan_batch(&jobs)
                    .unwrap_or_else(|e| panic!("{} {size} {seed}: {e}", planner.name()));
                for (shot, plan) in plans.iter().enumerate() {
                    writeln!(
                        out,
                        "{name} {size} {seed} {shot} {} {:016x}",
                        plan.schedule.len(),
                        plan_digest(plan)
                    )
                    .expect("write to string");
                }
            }
        }
    }
    out
}

#[test]
fn planner_output_matches_the_checked_in_corpus() {
    let expected = std::fs::read_to_string(golden_path()).expect("read plans.v1.txt");
    let actual = corpus();
    let mismatches: Vec<String> = expected
        .lines()
        .zip(actual.lines())
        .filter(|(e, a)| e != a)
        .map(|(e, a)| format!("  expected {e}\n  actual   {a}"))
        .collect();
    assert!(
        mismatches.is_empty() && expected.lines().count() == actual.lines().count(),
        "planner output drifted from tests/golden/plans.v1.txt ({} lines differ; \
         {} lines expected, {} produced):\n{}",
        mismatches.len(),
        expected.lines().count(),
        actual.lines().count(),
        mismatches.join("\n")
    );
}

/// Rewrites the corpus from the current build. Running it declares a
/// behaviour change.
#[test]
#[ignore = "rewrites tests/golden/plans.v1.txt; run only for a declared behaviour change"]
fn regenerate_plans_golden() {
    let path = golden_path();
    std::fs::create_dir_all(path.parent().expect("golden dir")).expect("create golden dir");
    std::fs::write(&path, corpus()).expect("write plans.v1.txt");
}
