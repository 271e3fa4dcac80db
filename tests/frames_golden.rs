//! Cross-commit pin of the synthetic camera.
//!
//! The behaviour corpus sees the camera only through detection and the
//! draws that follow it, and perfbench's `service-http` digest at loss 0
//! does not see it at all while detection is exact. This file pins the
//! frames themselves: it compares against `tests/golden/frames.v1.txt`,
//! written once by an earlier build, one line per (layout, imaging
//! config, seed) holding a 64-bit digest of the rendered frame's pixels,
//! one of the detection's per-trap `signals`, the applied `threshold`'s
//! bits and the number of misclassified traps. A camera or detector
//! refactor that claims bit-identical output must leave every line
//! unchanged.
//!
//! Regenerate only for a declared behaviour change:
//! `cargo test --test frames_golden -- --ignored`, and name the change
//! in the commit that rewrites the file.

use std::fmt::Write as _;
use std::path::PathBuf;

use atom_rearrange::prelude::*;
use qrm_core::loading::seeded_rng;

/// `(label, trap rows, trap columns, pitch in pixels)`: the served
/// 16x16 array, an odd non-square one, and one whose pitch puts every
/// other trap centre between two pixels.
const LAYOUTS: [(&str, usize, usize, f64); 3] = [
    ("16x16", 16, 16, 6.0),
    ("7x11", 7, 11, 6.0),
    ("9x12-pitch6.5", 9, 12, 6.5),
];
const SEEDS: [u64; 2] = [7, 31];
const MARGIN_PX: f64 = 4.0;

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/frames.v1.txt")
}

fn fnv1a(bytes: &[u8], mut hash: u64) -> u64 {
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0100_0000_01b3);
    }
    hash
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// The corpus as text: a header comment, then one line per case.
fn corpus() -> String {
    let mut out = String::from(
        "# layout config seed atoms errors pixels_digest signals_digest threshold_bits \
         -- see tests/frames_golden.rs\n",
    );
    let configs = [
        ("default", ImagingConfig::default()),
        ("low_snr", ImagingConfig::low_snr()),
    ];
    for (label, rows, cols, pitch) in LAYOUTS {
        let layout = TrapLayout::new(rows, cols, pitch, MARGIN_PX);
        for (config_name, config) in &configs {
            for seed in SEEDS {
                let mut rng = seeded_rng(seed);
                let truth = AtomGrid::random(rows, cols, 0.5, &mut rng);
                let frame = render(&truth, &layout, config, &mut rng);
                let report = Detector::default()
                    .detect(&frame, &layout)
                    .unwrap_or_else(|e| panic!("{label} {config_name} {seed}: {e}"));
                let (_, fp, fal_n, _) = report.confusion(&truth).expect("same dims");
                let mut pixels = fnv1a(&(frame.height() as u64).to_le_bytes(), FNV_OFFSET);
                pixels = fnv1a(&(frame.width() as u64).to_le_bytes(), pixels);
                let pixels = frame
                    .pixels()
                    .iter()
                    .fold(pixels, |h, p| fnv1a(&p.to_bits().to_le_bytes(), h));
                let signals = report
                    .signals
                    .iter()
                    .fold(FNV_OFFSET, |h, s| fnv1a(&s.to_bits().to_le_bytes(), h));
                writeln!(
                    out,
                    "{label} {config_name} {seed} {} {} {pixels:016x} {signals:016x} {:016x}",
                    truth.atom_count(),
                    fp + fal_n,
                    report.threshold.to_bits(),
                )
                .expect("write to string");
            }
        }
    }
    out
}

#[test]
fn rendered_frames_match_the_checked_in_corpus() {
    let expected = std::fs::read_to_string(golden_path()).expect("read frames.v1.txt");
    let actual = corpus();
    let mismatches: Vec<String> = expected
        .lines()
        .zip(actual.lines())
        .filter(|(e, a)| e != a)
        .map(|(e, a)| format!("  expected {e}\n  actual   {a}"))
        .collect();
    assert!(
        mismatches.is_empty() && expected.lines().count() == actual.lines().count(),
        "rendered frames drifted from tests/golden/frames.v1.txt ({} lines differ; \
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
#[ignore = "rewrites tests/golden/frames.v1.txt; run only for a declared behaviour change"]
fn regenerate_frames_golden() {
    let path = golden_path();
    std::fs::create_dir_all(path.parent().expect("golden dir")).expect("create golden dir");
    std::fs::write(&path, corpus()).expect("write frames.v1.txt");
}
