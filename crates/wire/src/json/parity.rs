//! Parity of the streaming codec with the tree codec it replaced
//! ([`super::reference`]): every wire type encodes to the reference
//! writer's bytes, and every text — valid encodings and hostile
//! mutations of them — decodes to the reference's exact `Result`
//! (parse the whole text into a tree, then decode the tree).
//!
//! The proptest names are fixed: the vendored proptest seeds each test
//! from its name, so renaming one draws different cases.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize, Value};

use qrm_control::pipeline::{PipelineReport, RoundReport};
use qrm_core::geometry::Position;
use qrm_core::grid::AtomGrid;
use qrm_core::trace::{RoundTrace, ShotTrace, TracedMove, Transfer};
use qrm_server::{
    BatchReport, BatchSpec, ContextPoolStats, LatencyHistogram, PlannerStats, Scenario,
    ServiceStats, SubmitBatch,
};

use super::{reference, JsonLimits};
use crate::{BackendRouteStats, ErrorReply, FromJson, RouterStats, ToJson, WireError};

/// `qrm_net::Health`, field for field (this crate cannot depend on
/// `qrm-net`).
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
struct Health {
    status: String,
    planners: Vec<String>,
}

/// Every payload shape the derive supports, tuple variants included,
/// which no wire type has.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
enum Shapes {
    Unit,
    Newtype(u64),
    Pair(i32, String),
    Triple(bool, Option<u8>, f64),
    Record {
        a: u64,
        #[serde(default)]
        b: Vec<bool>,
    },
}

/// A decode as the reference would do it; an `Ok` value is compared
/// through its reference encoding, which tells every field apart.
fn reference_decode<T: Deserialize + Serialize>(
    text: &str,
    limits: &JsonLimits,
) -> Result<String, WireError> {
    let tree = reference::parse_with_limits(text, limits)?;
    Ok(reference::write(&T::deserialize(&tree)?.serialize()))
}

fn streaming_decode<T: Deserialize + Serialize>(
    text: &str,
    limits: &JsonLimits,
) -> Result<String, WireError> {
    Ok(reference::write(
        &T::from_json_with_limits(text, limits)?.serialize(),
    ))
}

/// Checks `value`'s encoding, then decodes the encoding and mutations
/// of it both ways, as `T` and as a bare [`Value`].
fn assert_parity<T: Deserialize + Serialize>(value: &T, rng: &mut StdRng) {
    let text = value.to_json();
    assert_eq!(text, reference::write(&value.serialize()), "encoding");
    let tree = reference::parse(&text).expect("an encoding parses");
    assert_eq!(super::write(&tree), text, "tree encoding");
    let default = JsonLimits::default();
    let mut cases = vec![(text.clone(), default)];
    mutate(&text, &tree, rng, &mut cases);
    for (case, limits) in &cases {
        assert_eq!(
            streaming_decode::<T>(case, limits),
            reference_decode::<T>(case, limits),
            "decoding {case:?} under {limits:?}"
        );
        assert_eq!(
            super::parse_with_limits(case, limits),
            reference::parse_with_limits(case, limits),
            "parsing {case:?} under {limits:?}"
        );
    }
}

/// Hostile variants of `text` (whose tree is `tree`), each with the
/// limits to decode it under.
fn mutate(text: &str, tree: &Value, rng: &mut StdRng, cases: &mut Vec<(String, JsonLimits)>) {
    let default = JsonLimits::default();
    let mut push = |case: String| cases.push((case, default));
    // Truncation, at char boundaries.
    let cuts: Vec<usize> = text.char_indices().map(|(at, _)| at).collect();
    for _ in 0..4 {
        push(text[..cuts[rng.gen_range(0..cuts.len())]].to_string());
    }
    // One flipped byte.
    for _ in 0..4 {
        let mut bytes = text.as_bytes().to_vec();
        let at = rng.gen_range(0..bytes.len());
        const FLIPS: &[u8] = b"\"\\{}[],:-.0123456789eEtfnul x\x01";
        bytes[at] = FLIPS[rng.gen_range(0..FLIPS.len())];
        if let Ok(case) = String::from_utf8(bytes) {
            push(case);
        }
    }
    // Trailing data.
    for tail in [" ", " x", "}", "]", ",", " 1", "{}", "\n\t"] {
        push(format!("{text}{tail}"));
    }
    // Number literals the writer never produces where it wrote one:
    // integers past i64 and past u64, negative zero, floats.
    let numbers = number_spans(text);
    if !numbers.is_empty() {
        for literal in [
            "9223372036854775808",
            "18446744073709551615",
            "18446744073709551616",
            "-9223372036854775809",
            "-0",
            "-0.0",
            "0.0",
            "1e2",
            "-1",
        ] {
            let span = &numbers[rng.gen_range(0..numbers.len())];
            push(format!(
                "{}{literal}{}",
                &text[..span.start],
                &text[span.end..]
            ));
        }
    }
    let maps = count_maps(tree);
    let entries = count_entries(tree);
    if maps > 0 {
        for _ in 0..3 {
            // Reordered keys.
            let mut shuffled = tree.clone();
            with_map(&mut shuffled, rng.gen_range(0..maps), &mut |pairs| {
                for i in (1..pairs.len()).rev() {
                    pairs.swap(i, rng.gen_range(0..i + 1));
                }
            });
            push(reference::write(&shuffled));
            // An unknown key, anywhere in a map.
            let mut extended = tree.clone();
            let extra = random_tree(rng, 2);
            with_map(&mut extended, rng.gen_range(0..maps), &mut |pairs| {
                let at = rng.gen_range(0..pairs.len() + 1);
                pairs.insert(at, ("unknown".to_string(), extra.clone()));
            });
            push(reference::write(&extended));
        }
    }
    if entries > 0 {
        // A duplicated key holding a bad value, before or after the
        // original.
        for _ in 0..3 {
            let mut duplicated = tree.clone();
            let bad = [
                Value::Str("bad".to_string()),
                Value::I64(-1),
                Value::Null,
                Value::Seq(vec![]),
                Value::Map(vec![]),
                Value::F64(0.5),
                Value::Bool(true),
            ][rng.gen_range(0..7)]
            .clone();
            let after = rng.gen_bool(0.5);
            with_map(&mut duplicated, rng.gen_range(0..maps), &mut |pairs| {
                if !pairs.is_empty() {
                    let at = rng.gen_range(0..pairs.len());
                    let key = pairs[at].0.clone();
                    pairs.insert(at + usize::from(after), (key, bad.clone()));
                }
            });
            push(reference::write(&duplicated));
        }
        // `null` in place of each field (of 24 random ones in larger
        // documents).
        for k in 0..entries.min(24) {
            let k = if entries <= 24 {
                k
            } else {
                rng.gen_range(0..entries)
            };
            let mut nulled = tree.clone();
            with_entry(&mut nulled, k, &mut |value| {
                *value = Value::Null;
            });
            push(reference::write(&nulled));
        }
        // A field nested past the default depth limit.
        let mut deep = tree.clone();
        with_entry(&mut deep, rng.gen_range(0..entries), &mut |value| {
            for _ in 0..default.max_depth {
                *value = Value::Seq(vec![std::mem::replace(value, Value::Null)]);
            }
        });
        push(reference::write(&deep));
    }
    // The whole document under tighter depth limits.
    let depth = depth_of(tree);
    for max_depth in [depth.saturating_sub(1), rng.gen_range(0..depth + 1), depth] {
        cases.push((
            text.to_string(),
            JsonLimits {
                max_bytes: default.max_bytes,
                max_depth,
            },
        ));
    }
}

/// Byte ranges of the number literals outside strings.
fn number_spans(text: &str) -> Vec<std::ops::Range<usize>> {
    let bytes = text.as_bytes();
    let (mut spans, mut at, mut in_string) = (Vec::new(), 0, false);
    while at < bytes.len() {
        let b = bytes[at];
        if in_string {
            match b {
                b'\\' => at += 1,
                b'"' => in_string = false,
                _ => {}
            }
        } else if b == b'"' {
            in_string = true;
        } else if b == b'-' || b.is_ascii_digit() {
            let start = at;
            while at < bytes.len()
                && matches!(bytes[at], b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')
            {
                at += 1;
            }
            spans.push(start..at);
            continue;
        }
        at += 1;
    }
    spans
}

fn count_maps(value: &Value) -> usize {
    match value {
        Value::Seq(items) => items.iter().map(count_maps).sum(),
        Value::Map(pairs) => 1 + pairs.iter().map(|(_, v)| count_maps(v)).sum::<usize>(),
        _ => 0,
    }
}

fn count_entries(value: &Value) -> usize {
    match value {
        Value::Seq(items) => items.iter().map(count_entries).sum(),
        Value::Map(pairs) => {
            pairs.len() + pairs.iter().map(|(_, v)| count_entries(v)).sum::<usize>()
        }
        _ => 0,
    }
}

fn depth_of(value: &Value) -> usize {
    match value {
        Value::Seq(items) => 1 + items.iter().map(depth_of).max().unwrap_or(0),
        Value::Map(pairs) => 1 + pairs.iter().map(|(_, v)| depth_of(v)).max().unwrap_or(0),
        _ => 0,
    }
}

/// A map's entries, as a tree holds them.
type Entries = Vec<(String, Value)>;

/// Applies `f` to the entries of the `k`-th map in pre-order.
fn with_map(value: &mut Value, k: usize, f: &mut dyn FnMut(&mut Entries)) -> Option<usize> {
    match value {
        Value::Seq(items) => items.iter_mut().try_fold(k, |k, item| with_map(item, k, f)),
        Value::Map(pairs) => {
            if k == 0 {
                f(pairs);
                return None;
            }
            pairs
                .iter_mut()
                .try_fold(k - 1, |k, (_, item)| with_map(item, k, f))
        }
        _ => Some(k),
    }
}

/// Applies `f` to the value of the `k`-th map entry in pre-order.
fn with_entry(value: &mut Value, k: usize, f: &mut dyn FnMut(&mut Value)) -> Option<usize> {
    match value {
        Value::Seq(items) => items
            .iter_mut()
            .try_fold(k, |k, item| with_entry(item, k, f)),
        Value::Map(pairs) => pairs.iter_mut().try_fold(k, |k, (_, item)| {
            if k == 0 {
                f(item);
                return None;
            }
            with_entry(item, k - 1, f)
        }),
        _ => Some(k),
    }
}

/// A string biased toward characters the codec escapes.
fn random_string(rng: &mut StdRng) -> String {
    let len = rng.gen_range(0..10);
    (0..len)
        .map(|_| match rng.gen_range(0..4) {
            0 => ['"', '\\', '/', '\u{7f}', 'é', '\u{1f600}'][rng.gen_range(0..6)],
            1 => char::from(rng.gen_range(0..0x20u8)),
            _ => char::from(rng.gen_range(32..127u8)),
        })
        .collect()
}

/// Fractional, integral, huge, tiny and signed-zero floats, plus the
/// non-finite ones JSON writes as `null`.
fn random_f64(rng: &mut StdRng) -> f64 {
    match rng.gen_range(0..9) {
        0 => rng.gen_range(-1.0e6..1.0e6),
        1 => rng.gen_range(-1000.0..1000.0_f64).round(),
        2 => rng.gen_range(0.0..1.0) * 1.0e300,
        3 => rng.gen_range(0.0..1.0) * 1.0e-300,
        4 => -0.0,
        5 => 1.0e19,
        6 if rng.gen_bool(0.2) => f64::NAN,
        6 => f64::INFINITY,
        _ => rng.gen_range(0.0..1.0),
    }
}

fn random_u64(rng: &mut StdRng) -> u64 {
    match rng.gen_range(0..4) {
        0 => rng.gen_range(0..u64::MAX),
        1 => rng.gen_range(1 << 63..u64::MAX),
        _ => rng.gen_range(0..1000),
    }
}

/// A random tree of bounded depth, for unknown fields.
fn random_tree(rng: &mut StdRng, depth: usize) -> Value {
    match rng.gen_range(0..if depth == 0 { 6 } else { 8 }) {
        0 => Value::Null,
        1 => Value::Bool(rng.gen_bool(0.5)),
        2 => Value::I64(rng.gen_range(i64::MIN..i64::MAX)),
        3 => Value::U64(random_u64(rng)),
        4 => Value::F64(random_f64(rng)),
        5 => Value::Str(random_string(rng)),
        6 => Value::Seq(
            (0..rng.gen_range(0..3))
                .map(|_| random_tree(rng, depth - 1))
                .collect(),
        ),
        _ => Value::Map(
            (0..rng.gen_range(0..3))
                .map(|_| (random_string(rng), random_tree(rng, depth - 1)))
                .collect(),
        ),
    }
}

/// `tree` with every number replaced by a random one of the same
/// kind (unsigned integers stay unsigned), and every string by a
/// random string: a random value of whatever type `tree` encodes.
fn randomize(tree: &mut Value, rng: &mut StdRng) {
    match tree {
        Value::Bool(v) => *v = rng.gen_bool(0.5),
        Value::I64(_) | Value::U64(_) => *tree = random_u64(rng).serialize(),
        Value::F64(v) => *v = random_f64(rng),
        Value::Str(v) => *v = random_string(rng),
        Value::Seq(items) => items.iter_mut().for_each(|item| randomize(item, rng)),
        Value::Map(pairs) => pairs.iter_mut().for_each(|(_, item)| randomize(item, rng)),
        Value::Null => {}
    }
}

fn random_grid(rng: &mut StdRng) -> AtomGrid {
    let (height, width) = (rng.gen_range(1..12), rng.gen_range(1..70));
    let mut grid = AtomGrid::new(height, width).expect("nonzero");
    for _ in 0..rng.gen_range(0..height * width) {
        let at = Position::new(rng.gen_range(0..height), rng.gen_range(0..width));
        grid.set(at, true).expect("in bounds");
    }
    grid
}

fn random_scenario(rng: &mut StdRng) -> Scenario {
    let n = rng.gen_range(0..1000);
    match rng.gen_range(0..5) {
        0 => Scenario::UniformFill,
        1 => Scenario::DefectMap {
            dead_fraction: random_f64(rng),
        },
        2 => Scenario::AtomLoss {
            loss_prob: random_f64(rng),
        },
        3 => Scenario::Zones {
            rows: n,
            cols: n + 1,
        },
        _ => Scenario::CorrelatedFill {
            grain: n,
            flip_prob: random_f64(rng),
        },
    }
}

fn random_submit_batch(rng: &mut StdRng) -> SubmitBatch {
    let spec = BatchSpec::new(
        rng.gen_range(0..10_000),
        rng.gen_range(0..1_000),
        random_u64(rng),
    )
    .with_fill(random_f64(rng))
    .with_scenario(random_scenario(rng));
    SubmitBatch::new(random_string(rng), spec).with_trace(rng.gen_bool(0.5))
}

fn random_transfer(rng: &mut StdRng) -> Transfer {
    let mut position = || Position::new(rng.gen_range(0..100), rng.gen_range(0..100));
    Transfer {
        from: position(),
        to: position(),
    }
}

fn random_trace(rng: &mut StdRng) -> ShotTrace {
    ShotTrace {
        rounds: (0..rng.gen_range(0..3))
            .map(|_| RoundTrace {
                moves: (0..rng.gen_range(0..3))
                    .map(|_| TracedMove {
                        transfers: (0..rng.gen_range(0..3))
                            .map(|_| random_transfer(rng))
                            .collect(),
                        lost: (0..rng.gen_range(0..2))
                            .map(|_| Position::new(rng.gen_range(0..9), rng.gen_range(0..9)))
                            .collect(),
                        ejected: (0..rng.gen_range(0..2))
                            .map(|_| random_transfer(rng))
                            .collect(),
                    })
                    .collect(),
            })
            .collect(),
    }
}

fn random_batch_report(rng: &mut StdRng, traced: bool) -> BatchReport {
    let shots = rng.gen_range(0..3);
    let reports = (0..shots)
        .map(|_| PipelineReport {
            rounds: (0..rng.gen_range(0..3))
                .map(|_| RoundReport {
                    detection_fidelity: random_f64(rng),
                    moves: rng.gen_range(0..100),
                    atoms_lost: rng.gen_range(0..10),
                    motion_us: random_f64(rng),
                    state: random_grid(rng),
                    filled: rng.gen_bool(0.5),
                })
                .collect(),
            final_state: random_grid(rng),
            filled: rng.gen_bool(0.5),
        })
        .collect();
    BatchReport {
        planner: random_string(rng),
        reports,
        wall_us: random_f64(rng),
        trace: traced.then(|| (0..shots).map(|_| random_trace(rng)).collect()),
    }
}

fn random_service_stats(rng: &mut StdRng) -> ServiceStats {
    let template = ServiceStats {
        planners: (0..rng.gen_range(0..3))
            .map(|_| PlannerStats {
                name: String::new(),
                algorithm: String::new(),
                batches: 0,
                shots: 0,
                latency: LatencyHistogram::new(),
                contexts: rng.gen_bool(0.5).then(ContextPoolStats::default),
            })
            .collect(),
        ..ServiceStats::default()
    };
    let mut tree = template.serialize();
    randomize(&mut tree, rng);
    ServiceStats::deserialize(&tree).expect("a randomized snapshot decodes")
}

fn random_router_stats(rng: &mut StdRng) -> RouterStats {
    RouterStats {
        requests: random_u64(rng),
        relayed: random_u64(rng),
        failovers: random_u64(rng),
        no_backend: random_u64(rng),
        backends: (0..rng.gen_range(0..3))
            .map(|_| BackendRouteStats {
                addr: random_string(rng),
                healthy: rng.gen_bool(0.5),
                routed: random_u64(rng),
                failed_over: random_u64(rng),
            })
            .collect(),
    }
}

fn random_shapes(rng: &mut StdRng) -> Shapes {
    match rng.gen_range(0..5) {
        0 => Shapes::Unit,
        1 => Shapes::Newtype(random_u64(rng)),
        2 => Shapes::Pair(rng.gen_range(i32::MIN..i32::MAX), random_string(rng)),
        3 => Shapes::Triple(
            rng.gen_bool(0.5),
            rng.gen_bool(0.5).then(|| rng.gen_range(0..u8::MAX)),
            random_f64(rng),
        ),
        _ => Shapes::Record {
            a: random_u64(rng),
            b: (0..rng.gen_range(0..3))
                .map(|_| rng.gen_bool(0.5))
                .collect(),
        },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn submit_batch_matches_the_reference_codec(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        assert_parity(&random_submit_batch(&mut rng), &mut rng);
    }

    #[test]
    fn batch_report_matches_the_reference_codec(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        assert_parity(&random_batch_report(&mut rng, false), &mut rng);
    }

    #[test]
    fn traced_batch_report_matches_the_reference_codec(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        assert_parity(&random_batch_report(&mut rng, true), &mut rng);
    }

    #[test]
    fn service_stats_match_the_reference_codec(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        assert_parity(&random_service_stats(&mut rng), &mut rng);
    }

    #[test]
    fn small_replies_match_the_reference_codec(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let reply = ErrorReply::new(random_string(&mut rng), random_string(&mut rng));
        assert_parity(&reply, &mut rng);
        let health = Health {
            status: random_string(&mut rng),
            planners: (0..rng.gen_range(0..4)).map(|_| random_string(&mut rng)).collect(),
        };
        assert_parity(&health, &mut rng);
        assert_parity(&random_router_stats(&mut rng), &mut rng);
    }

    #[test]
    fn every_payload_shape_matches_the_reference_codec(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        assert_parity(&random_shapes(&mut rng), &mut rng);
        let pair = (random_u64(&mut rng), [random_string(&mut rng), random_string(&mut rng)]);
        assert_parity(&pair, &mut rng);
    }

    #[test]
    fn value_trees_match_the_reference_codec(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let tree = random_tree(&mut rng, 4);
        assert_eq!(super::write(&tree), reference::write(&tree));
        assert_parity(&tree, &mut rng);
    }
}

#[test]
fn malformed_text_fails_at_the_reference_offset() {
    // The reference's own malformed-input table, and the same inputs
    // inside a map, an array and an unknown field.
    let cases = [
        "",
        "[1, 2",
        "\"abc",
        "tru",
        "truX",
        "[1,]",
        "{\"a\" 1}",
        "{1: 2}",
        "01",
        "1.",
        "1e",
        "-",
        "\"\\x\"",
        "\"\\u12g4\"",
        "\"\\ud834\"",
        "\"\\udd1e\"",
        "\"\\ud834\\u0041\"",
        "\"\\ud834x\"",
        "\"\u{01}\"",
        "1 2",
        "nul",
        "nulx",
        "[nul]",
        "{\"a\":}",
        "{\"a\":1,}",
        "{\"a\":1 \"b\":2}",
        "\u{e9}",
        "[\u{e9}]",
        "-a",
        "1.e5",
        "1e+",
        "\"\\",
        "\"\\u12",
    ];
    let limits = JsonLimits::default();
    for case in cases {
        for text in [
            case.to_string(),
            format!("{{\"planner\":{case}}}"),
            format!("[{case}]"),
            format!("{{\"planner\":\"q\",\"x\":{case},\"spec\":1}}"),
        ] {
            assert_eq!(
                streaming_decode::<SubmitBatch>(&text, &limits),
                reference_decode::<SubmitBatch>(&text, &limits),
                "{text:?}"
            );
            assert_eq!(super::parse(&text), reference::parse(&text), "{text:?}");
        }
    }
}
