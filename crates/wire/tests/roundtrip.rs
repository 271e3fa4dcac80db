//! Wire-codec contract tests: every service type round-trips through
//! JSON text bit-identically, and the parser survives hostile input
//! (truncation, mutation, deep nesting, bad escapes) with typed errors
//! — never a panic.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use qrm_control::pipeline::{Pipeline, PipelineConfig, PlannerChoice, Shot};
use qrm_core::scheduler::QrmConfig;
use qrm_server::{BatchSpec, PlanService, SubmitBatch};
use qrm_wire::json::{self, JsonErrorKind, JsonLimits};
use qrm_wire::{ErrorReply, FromJson, ToJson};
use serde::Value;

/// A random `Value` tree of bounded depth/width, driven by a seeded
/// RNG (the vendored proptest has no recursive strategy combinators).
fn random_value(rng: &mut StdRng, depth: usize) -> Value {
    let leaf_only = depth == 0;
    match if leaf_only {
        rng.gen_range(0..6)
    } else {
        rng.gen_range(0..8)
    } {
        0 => Value::Null,
        1 => Value::Bool(rng.gen_bool(0.5)),
        2 => Value::I64(rng.gen_range(i64::MIN..i64::MAX)),
        3 => Value::U64(rng.gen_range(0..u64::MAX)),
        4 => {
            // Mix of fractional, integral, huge, tiny, and signed-zero
            // floats; all must survive the text round-trip.
            let raw = match rng.gen_range(0..5) {
                0 => rng.gen_range(-1.0e6..1.0e6),
                1 => rng.gen_range(-1000.0..1000.0_f64).round(),
                2 => rng.gen_range(0.0..1.0) * 1.0e300,
                3 => rng.gen_range(0.0..1.0) * 1.0e-300,
                _ => -0.0,
            };
            Value::F64(raw)
        }
        5 => {
            let len = rng.gen_range(0..12);
            Value::Str(
                (0..len)
                    .map(|_| {
                        // Bias toward characters that exercise escaping.
                        match rng.gen_range(0..6) {
                            0 => '"',
                            1 => '\\',
                            2 => '\u{1}',
                            3 => '\u{1f600}',
                            _ => char::from(rng.gen_range(32..127u8)),
                        }
                    })
                    .collect(),
            )
        }
        6 => {
            let len = rng.gen_range(0..4);
            Value::Seq((0..len).map(|_| random_value(rng, depth - 1)).collect())
        }
        _ => {
            let len = rng.gen_range(0..4);
            Value::Map(
                (0..len)
                    .map(|i| (format!("k{i}"), random_value(rng, depth - 1)))
                    .collect(),
            )
        }
    }
}

/// Typed equality through the codec: integral floats intentionally
/// come back as integer `Value`s, so tree equality is checked through
/// a normalization that maps every number to its `f64`/`i64` identity.
fn assert_tree_roundtrip(value: &Value) {
    let text = json::write(value);
    let back = json::parse(&text).unwrap_or_else(|e| panic!("reparse {text:?}: {e}"));
    assert_values_equivalent(value, &back, &text);
    // Writing the reparsed tree reproduces the text byte-identically —
    // the codec is deterministic in both directions.
    assert_eq!(json::write(&back), text);
}

fn assert_values_equivalent(a: &Value, b: &Value, text: &str) {
    match (a, b) {
        (Value::F64(x), other) => {
            let y = other
                .as_f64()
                .unwrap_or_else(|| panic!("{other:?} in {text}"));
            assert!(
                (x.is_nan() && y.is_nan())
                    || (*x == y && x.is_sign_positive() == y.is_sign_positive()),
                "{x:?} != {y:?} in {text}"
            );
        }
        (Value::I64(x), other) => assert_eq!(other.as_i64(), Some(*x), "{text}"),
        (Value::U64(x), other) => assert_eq!(other.as_u64(), Some(*x), "{text}"),
        (Value::Seq(xs), Value::Seq(ys)) => {
            assert_eq!(xs.len(), ys.len(), "{text}");
            for (x, y) in xs.iter().zip(ys) {
                assert_values_equivalent(x, y, text);
            }
        }
        (Value::Map(xs), Value::Map(ys)) => {
            assert_eq!(xs.len(), ys.len(), "{text}");
            for ((kx, x), (ky, y)) in xs.iter().zip(ys) {
                assert_eq!(kx, ky, "{text}");
                assert_values_equivalent(x, y, text);
            }
        }
        (x, y) => assert_eq!(x, y, "{text}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    #[test]
    fn random_value_trees_round_trip(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let value = random_value(&mut rng, 4);
        assert_tree_roundtrip(&value);
    }

    #[test]
    fn submit_batch_round_trips(
        shots in 0usize..10_000,
        size in 0usize..1_000,
        fill in 0.0f64..1.0,
        seed in any::<u64>(),
        scenario in 0usize..5,
        trace in any::<bool>(),
    ) {
        use qrm_server::Scenario;
        // Every scenario variant, parameterised by the case's own
        // draws so the nested floats/integers round-trip too.
        let scenario = match scenario {
            0 => Scenario::UniformFill,
            1 => Scenario::DefectMap { dead_fraction: fill },
            2 => Scenario::AtomLoss { loss_prob: fill },
            3 => Scenario::Zones { rows: shots.max(1), cols: size.max(1) },
            _ => Scenario::CorrelatedFill { grain: shots.max(1), flip_prob: fill },
        };
        let request = SubmitBatch::new(
            format!("planner-{seed}"),
            BatchSpec::new(shots, size, seed)
                .with_fill(fill)
                .with_scenario(scenario),
        )
        .with_trace(trace);
        let back = SubmitBatch::from_json(&request.to_json()).expect("round-trip");
        prop_assert_eq!(back, request);
    }

    #[test]
    fn truncated_valid_json_never_panics(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let text = json::write(&random_value(&mut rng, 3));
        // Cutting at every char boundary: parsing must return (Ok for
        // prefixes that happen to be complete values, Err otherwise),
        // never panic or hang.
        for cut in text.char_indices().map(|(i, _)| i) {
            let _ = json::parse(&text[..cut]);
        }
    }

    #[test]
    fn mutated_json_never_panics(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let base = SubmitBatch::new("qrm", BatchSpec::new(3, 16, seed)).to_json();
        let mut bytes = base.into_bytes();
        for _ in 0..8 {
            let at = rng.gen_range(0..bytes.len());
            bytes[at] = rng.gen_range(1..127u8);
        }
        if let Ok(text) = String::from_utf8(bytes) {
            let _ = json::parse(&text);
            let _ = SubmitBatch::from_json(&text);
        }
    }
}

#[test]
fn planner_choice_round_trips_with_configs() {
    // All seven canonical choices plus non-default configs: the wire
    // encoding carries the full config, not just the name.
    let mut choices: Vec<PlannerChoice> = PlannerChoice::NAMES
        .iter()
        .map(|name| name.parse().unwrap())
        .collect();
    choices.push(PlannerChoice::Software(QrmConfig::paper()));
    choices.push(PlannerChoice::Software(
        QrmConfig::default().with_max_iterations(3),
    ));
    for choice in choices {
        let text = choice.to_json();
        let back = PlannerChoice::from_json(&text).expect("round-trip");
        assert_eq!(back, choice, "text {text}");
    }
}

#[test]
fn batch_report_round_trips_bit_identically() {
    // A real end-to-end pipeline run (loss on, multiple rounds, real
    // grids in every round report) through the full service path.
    let service = PlanService::builder()
        .register(
            "qrm",
            PlannerChoice::Software(QrmConfig::default()),
            PipelineConfig {
                loss_prob: 0.02,
                max_rounds: 4,
                workers: 1,
                ..PipelineConfig::default()
            },
        )
        .build();
    let request = SubmitBatch::new("qrm", BatchSpec::new(3, 14, 99));
    let report = service.submit(&request).expect("serve");
    let text = report.to_json();
    let back = qrm_server::BatchReport::from_json(&text).expect("round-trip");
    assert_eq!(back.planner, report.planner);
    assert_eq!(back.wall_us, report.wall_us, "floats travel bit-exactly");
    // The determinism contract's payload: per-shot reports compare
    // equal (PipelineReport is PartialEq over every field, including
    // the bit-packed final grids).
    assert_eq!(back.reports, report.reports);

    // And the same workload through the pipeline directly equals the
    // decoded wire copy — codec and service add nothing.
    let target = request.spec.target().expect("target");
    let shots: Vec<Shot> = request
        .spec
        .workload()
        .expect("workload")
        .truths
        .into_iter()
        .map(|truth| Shot::new(truth, target))
        .collect();
    let planner = PlannerChoice::Software(QrmConfig::default()).resolve(1);
    let direct = Pipeline::new(PipelineConfig {
        loss_prob: 0.02,
        max_rounds: 4,
        workers: 1,
        ..PipelineConfig::default()
    })
    .run(&*planner, &shots, request.spec.seed)
    .expect("direct run");
    assert_eq!(back.reports, direct.reports);
}

#[test]
fn service_stats_round_trip() {
    let service = PlanService::builder()
        .max_inflight(2)
        .register_default("qrm", PlannerChoice::Software(QrmConfig::default()), 1)
        .register_default("typical", PlannerChoice::Typical, 1)
        .build();
    for seed in 0..3 {
        service
            .submit(&SubmitBatch::new("qrm", BatchSpec::new(2, 12, seed)))
            .expect("serve");
    }
    let stats = service.stats();
    let text = stats.to_json();
    let back = qrm_server::ServiceStats::from_json(&text).expect("round-trip");
    assert_eq!(back.batches_served, 3);
    assert_eq!(back.shots_served, stats.shots_served);
    assert_eq!(back.planners.len(), 2);
    let qrm = &back.planners[0];
    assert_eq!(qrm.name, "qrm");
    assert_eq!(qrm.algorithm, stats.planners[0].algorithm);
    assert_eq!(qrm.batches, 3);
    assert_eq!(qrm.latency.count(), 3);
    assert_eq!(qrm.latency.mean_us(), stats.planners[0].latency.mean_us());
    assert_eq!(
        qrm.contexts, stats.planners[0].contexts,
        "context stats survive"
    );
    assert_eq!(back.pool, stats.pool);
}

#[test]
fn error_reply_round_trips() {
    let reply = ErrorReply::new("unknown_planner", "no planner registered under \"nope\"");
    let back = ErrorReply::from_json(&reply.to_json()).expect("round-trip");
    assert_eq!(back, reply);
    assert_eq!(
        reply.to_json(),
        "{\"code\":\"unknown_planner\",\"error\":\"no planner registered under \\\"nope\\\"\"}"
    );
}

#[test]
fn deep_nesting_is_rejected_without_stack_overflow() {
    // 100k opening brackets: the depth limit must fire long before the
    // recursion touches the guard page.
    let hostile = "[".repeat(100_000);
    let err = json::parse(&hostile).unwrap_err();
    assert_eq!(err.kind, JsonErrorKind::TooDeep);

    // A tight custom limit applies to typed decoding too: with depth 1
    // the nested spec object's members are out of reach.
    let limits = JsonLimits {
        max_bytes: 64,
        max_depth: 1,
    };
    let err =
        SubmitBatch::from_json_with_limits("{\"planner\":\"x\",\"spec\":{\"shots\":1}}", &limits)
            .unwrap_err();
    assert!(matches!(err, qrm_wire::WireError::Json(e) if e.kind == JsonErrorKind::TooDeep));
}

#[test]
fn schema_mismatches_are_decode_errors() {
    for text in [
        "{}",
        "{\"planner\":\"qrm\"}",
        "{\"planner\":3,\"spec\":{\"shots\":1,\"size\":2,\"fill\":0.5,\"seed\":1}}",
        "{\"planner\":\"qrm\",\"spec\":{\"shots\":-1,\"size\":2,\"fill\":0.5,\"seed\":1}}",
        "[]",
        "null",
    ] {
        let err = SubmitBatch::from_json(text).unwrap_err();
        assert!(
            matches!(err, qrm_wire::WireError::Decode(_)),
            "input {text:?} gave {err}"
        );
    }
}

#[test]
fn unknown_fields_are_ignored() {
    // Forward compatibility: extra keys (a newer server's additions)
    // must not break older decoders.
    let text = "{\"planner\":\"qrm\",\"novel\":true,\
                \"spec\":{\"shots\":1,\"size\":12,\"fill\":0.55,\"seed\":7,\"extra\":[1,2]}}";
    let request = SubmitBatch::from_json(text).expect("decode");
    assert_eq!(request.planner, "qrm");
    assert_eq!(request.spec.shots, 1);
}

#[test]
fn explicit_null_for_a_defaulted_key_is_a_decode_error() {
    // `scenario` and `trace` take their defaults only when the key is
    // missing. A key that is present must hold the field's type, and
    // neither a `Scenario` nor a bool is null-able.
    let spec = "\"shots\":1,\"size\":8,\"fill\":0.5,\"seed\":1";
    for (text, field) in [
        (
            format!("{{\"planner\":\"qrm\",\"spec\":{{{spec},\"scenario\":null}}}}"),
            "BatchSpec.scenario",
        ),
        (
            format!("{{\"planner\":\"qrm\",\"spec\":{{{spec}}},\"trace\":null}}"),
            "SubmitBatch.trace",
        ),
    ] {
        let err = SubmitBatch::from_json(&text).unwrap_err();
        assert!(
            matches!(&err, qrm_wire::WireError::Decode(_)) && err.to_string().contains(field),
            "input {text:?} gave {err}"
        );
    }
    let missing = format!("{{\"planner\":\"qrm\",\"spec\":{{{spec}}}}}");
    assert_eq!(
        SubmitBatch::from_json(&missing).expect("decode"),
        SubmitBatch::new("qrm", BatchSpec::new(1, 8, 1).with_fill(0.5))
    );
}
