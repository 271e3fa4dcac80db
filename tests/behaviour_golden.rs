//! Cross-commit pin of what the closed loop computes.
//!
//! `plans_golden.rs` pins the planners alone; this file pins the whole
//! image → detect → plan → move loop as the planning service serves it.
//! It compares against `tests/golden/behaviour.v1.txt`, written once by
//! an earlier build: one line per (planner, scenario, seed) holding a
//! 64-bit digest of the served reports' canonical JSON and one of the
//! served move traces' JSON. A pipeline, scheduler or service refactor
//! that claims unchanged behaviour must leave every line unchanged, at
//! every worker count.
//!
//! The test goes only through `PlanService` and the wire codec, so it
//! does not depend on how the pipeline spells its entry points.
//!
//! Regenerate only for a declared behaviour change:
//! `cargo test --test behaviour_golden -- --ignored`, and name the
//! change in the commit that rewrites the file.

use std::fmt::Write as _;
use std::path::PathBuf;

use qrm_bench::planner_choices;
use qrm_control::pipeline::PipelineConfig;
use qrm_server::{BatchSpec, PlanService, Scenario, SubmitBatch};
use qrm_wire::ToJson;

const SEEDS: [u64; 2] = [5, 23];
const SHOTS: usize = 2;
const SIZE: usize = 16;

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/behaviour.v1.txt")
}

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325_u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0100_0000_01b3);
    }
    hash
}

/// One representative of every scenario variant, the same five as
/// `tests/scenarios.rs`.
fn variants() -> Vec<(&'static str, Scenario)> {
    vec![
        ("uniform", Scenario::UniformFill),
        (
            "defects",
            Scenario::DefectMap {
                dead_fraction: 0.15,
            },
        ),
        ("loss", Scenario::AtomLoss { loss_prob: 0.08 }),
        ("zones", Scenario::Zones { rows: 2, cols: 2 }),
        (
            "correlated",
            Scenario::CorrelatedFill {
                grain: 2,
                flip_prob: 0.1,
            },
        ),
    ]
}

/// Every planner registered under its CLI name, with transport loss and
/// a two-round budget so reports carry repair rounds.
fn service(workers: usize) -> PlanService {
    planner_choices()
        .into_iter()
        .fold(PlanService::builder(), |builder, (name, choice)| {
            builder.register(
                name,
                choice,
                PipelineConfig {
                    workers,
                    loss_prob: 0.01,
                    max_rounds: 2,
                    ..PipelineConfig::default()
                },
            )
        })
        .build()
}

/// The corpus as text: a header comment, then one line per case.
fn corpus(workers: usize) -> String {
    let service = service(workers);
    let mut out = String::from(
        "# planner scenario seed rounds reports_digest trace_digest -- see tests/behaviour_golden.rs\n",
    );
    for (name, _) in planner_choices() {
        for (label, scenario) in variants() {
            for seed in SEEDS {
                let spec = BatchSpec::new(SHOTS, SIZE, seed).with_scenario(scenario);
                let report = service
                    .submit(&SubmitBatch::new(name, spec).with_trace(true))
                    .unwrap_or_else(|e| panic!("{name} {label} {seed}: {e}"));
                let rounds: usize = report.reports.iter().map(|r| r.rounds.len()).sum();
                writeln!(
                    out,
                    "{name} {label} {seed} {rounds} {:016x} {:016x}",
                    fnv1a(report.reports.to_json().as_bytes()),
                    fnv1a(report.trace.to_json().as_bytes()),
                )
                .expect("write to string");
            }
        }
    }
    out
}

fn assert_matches_corpus(workers: usize) {
    let expected = std::fs::read_to_string(golden_path()).expect("read behaviour.v1.txt");
    let actual = corpus(workers);
    let mismatches: Vec<String> = expected
        .lines()
        .zip(actual.lines())
        .filter(|(e, a)| e != a)
        .map(|(e, a)| format!("  expected {e}\n  actual   {a}"))
        .collect();
    assert!(
        mismatches.is_empty() && expected.lines().count() == actual.lines().count(),
        "served behaviour at workers={workers} drifted from tests/golden/behaviour.v1.txt \
         ({} lines differ; {} lines expected, {} produced):\n{}",
        mismatches.len(),
        expected.lines().count(),
        actual.lines().count(),
        mismatches.join("\n")
    );
}

#[test]
fn served_behaviour_matches_the_checked_in_corpus_at_one_worker() {
    assert_matches_corpus(1);
}

#[test]
fn served_behaviour_matches_the_checked_in_corpus_at_four_workers() {
    assert_matches_corpus(4);
}

/// Rewrites the corpus from the current build. Running it declares a
/// behaviour change.
#[test]
#[ignore = "rewrites tests/golden/behaviour.v1.txt; run only for a declared behaviour change"]
fn regenerate_behaviour_golden() {
    let path = golden_path();
    std::fs::create_dir_all(path.parent().expect("golden dir")).expect("create golden dir");
    std::fs::write(&path, corpus(1)).expect("write behaviour.v1.txt");
}
