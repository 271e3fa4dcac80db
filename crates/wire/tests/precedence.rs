//! Which error a decode reports when a document is wrong in more than
//! one place. Every expected value here is the exact `WireError` the
//! tree codec (parse the whole text into a `serde::Value`, then decode
//! the tree) returned, so the streaming codec must return the same:
//!
//! * a syntax error anywhere in the text wins over every schema error,
//!   wherever the schema error sits;
//! * among schema errors, the first failing field in declaration order
//!   wins, whatever order the keys were written in, and a missing field
//!   counts as failing at its declaration position;
//! * the first of two duplicate keys is the one decoded; the second is
//!   only checked for syntax.

use qrm_server::{LatencyHistogram, SubmitBatch};
use qrm_wire::{FromJson, JsonError, JsonErrorKind, JsonLimits, WireError};

const SPEC: &str = "\"shots\":1,\"size\":2,\"fill\":0.5,\"seed\":1";

/// The `Display` text of a schema error (`WireError::Decode`).
fn schema_error<T: FromJson + std::fmt::Debug>(text: &str) -> String {
    match T::from_json(text) {
        Err(err @ WireError::Decode(_)) => err.to_string(),
        other => panic!("{text:?} gave {other:?}, not a schema error"),
    }
}

fn syntax_error<T: FromJson + std::fmt::Debug>(text: &str, limits: &JsonLimits) -> JsonError {
    match T::from_json_with_limits(text, limits) {
        Err(WireError::Json(err)) => err,
        other => panic!("{text:?} gave {other:?}, not a syntax error"),
    }
}

#[test]
fn the_first_failing_field_in_declaration_order_wins() {
    let cases = [
        // `planner` is declared before `spec` and `trace`; here it is
        // written last and both others fail too.
        (
            format!("{{\"spec\":{{{SPEC},\"shots\":-1}},\"trace\":\"yes\",\"planner\":3}}"),
            "schema mismatch: SubmitBatch.planner: String: expected string, got integer",
        ),
        // Inside the spec: `fill` is declared before `seed`.
        (
            "{\"planner\":\"qrm\",\"spec\":{\"seed\":-1,\"fill\":\"x\",\"shots\":1,\"size\":2}}"
                .to_string(),
            "schema mismatch: SubmitBatch.spec: BatchSpec.fill: f64: expected number, got string",
        ),
        // `spec` is declared before `trace`.
        (
            "{\"trace\":3,\"planner\":\"qrm\",\"spec\":{\"shots\":1,\"size\":2,\"fill\":null,\"seed\":1}}"
                .to_string(),
            "schema mismatch: SubmitBatch.spec: BatchSpec.fill: f64: expected number, got null",
        ),
    ];
    for (text, expected) in &cases {
        assert_eq!(schema_error::<SubmitBatch>(text), *expected, "{text}");
    }
}

#[test]
fn a_missing_field_fails_at_its_declaration_position() {
    let cases = [
        // Missing `planner` comes before the malformed spec.
        (
            format!("{{\"spec\":{{{SPEC},\"size\":-2}}}}"),
            "schema mismatch: SubmitBatch: missing field `planner`",
        ),
        // A malformed `planner` comes before the missing spec.
        (
            "{\"planner\":false}".to_string(),
            "schema mismatch: SubmitBatch.planner: String: expected string, got bool",
        ),
        // Missing `shots` comes before the malformed `size`.
        (
            "{\"planner\":\"qrm\",\"spec\":{\"size\":\"big\",\"fill\":0.5,\"seed\":1}}".to_string(),
            "schema mismatch: SubmitBatch.spec: BatchSpec: missing field `shots`",
        ),
        // `#[serde(default)]` fields never go missing, but a null in one
        // is still malformed.
        (
            format!("{{\"planner\":\"qrm\",\"spec\":{{{SPEC},\"scenario\":null}},\"trace\":null}}"),
            "schema mismatch: SubmitBatch.spec: BatchSpec.scenario: Scenario: expected variant, got null",
        ),
    ];
    for (text, expected) in &cases {
        assert_eq!(schema_error::<SubmitBatch>(text), *expected, "{text}");
    }
}

#[test]
fn enum_tags_that_match_no_variant_are_named() {
    let scenario =
        |value: &str| format!("{{\"planner\":\"qrm\",\"spec\":{{{SPEC},\"scenario\":{value}}}}}");
    let cases = [
        ("{\"Nope\":{}}", "Scenario: unknown variant `Nope`"),
        ("\"Nope\"", "Scenario: unknown variant `Nope`"),
        // A payload variant written as a bare string, and a unit
        // variant written as a map, match nothing.
        ("\"Zones\"", "Scenario: unknown variant `Zones`"),
        (
            "{\"UniformFill\":null}",
            "Scenario: unknown variant `UniformFill`",
        ),
        // More than one entry is no variant at all, even when the first
        // names one.
        (
            "{\"Zones\":{\"rows\":2,\"cols\":2},\"AtomLoss\":{\"loss_prob\":0.1}}",
            "Scenario: expected variant, got map",
        ),
        (
            "{\"Nope\":1,\"Zones\":{\"rows\":2,\"cols\":2}}",
            "Scenario: expected variant, got map",
        ),
        ("{}", "Scenario: expected variant, got map"),
        ("[\"Zones\"]", "Scenario: expected variant, got sequence"),
        // A known tag with a malformed payload.
        (
            "{\"Zones\":{\"rows\":2}}",
            "Scenario::Zones: missing field `cols`",
        ),
        (
            "{\"Zones\":[2,2]}",
            "Scenario::Zones: expected map, got sequence",
        ),
        (
            "{\"Zones\":{\"cols\":-1,\"rows\":1.5}}",
            "Scenario::Zones.rows: usize: expected unsigned integer, got number",
        ),
    ];
    for (value, expected) in cases {
        let text = scenario(value);
        assert_eq!(
            schema_error::<SubmitBatch>(&text),
            format!("schema mismatch: SubmitBatch.spec: BatchSpec.scenario: {expected}"),
            "{text}"
        );
    }
}

#[test]
fn array_lengths_are_checked_before_their_elements() {
    let histogram = |buckets: &str| {
        format!("{{\"buckets\":{buckets},\"count\":\"x\",\"total_us\":0,\"max_us\":0}}")
    };
    assert_eq!(
        schema_error::<LatencyHistogram>(&histogram("[\"x\",1]")),
        "schema mismatch: LatencyHistogram.buckets: array: expected 22 elements, got 2"
    );
    let full = vec!["0"; 22].join(",");
    assert_eq!(
        schema_error::<LatencyHistogram>(&histogram(&format!("[{full}]"))),
        "schema mismatch: LatencyHistogram.count: u64: expected unsigned integer, got string"
    );
    let bad_element = format!("[{},-1]", vec!["0"; 21].join(","));
    assert_eq!(
        schema_error::<LatencyHistogram>(&histogram(&bad_element)),
        "schema mismatch: LatencyHistogram.buckets: u64: expected unsigned integer, got integer"
    );
}

#[test]
fn syntax_errors_win_over_schema_errors() {
    let limits = JsonLimits::default();
    let at = |kind, offset| JsonError { kind, offset };
    // A schema error early, a syntax error late: the syntax error.
    let text = format!("{{\"planner\":3,\"spec\":{{{SPEC}}},\"x\":[1,]}}");
    assert_eq!(
        syntax_error::<SubmitBatch>(&text, &limits),
        at(JsonErrorKind::UnexpectedChar(']'), text.len() - 2)
    );
    // Inside the field that failed, after the failure.
    let text = "{\"planner\":[3,\"a\",tru]}";
    assert_eq!(
        syntax_error::<SubmitBatch>(text, &limits),
        at(JsonErrorKind::UnexpectedChar('t'), 18)
    );
    // A literal cut short by the end of the text.
    let text = "{\"planner\":[3,\"a\",tru";
    assert_eq!(
        syntax_error::<SubmitBatch>(text, &limits),
        at(JsonErrorKind::UnexpectedEof, 18)
    );
    // Trailing data after a document with a schema error.
    let text = "{\"planner\":3} x";
    assert_eq!(
        syntax_error::<SubmitBatch>(text, &limits),
        at(JsonErrorKind::TrailingData, 14)
    );
    // Truncation right after a schema error.
    let text = "{\"planner\":3,\"spec\":";
    assert_eq!(
        syntax_error::<SubmitBatch>(text, &limits),
        at(JsonErrorKind::UnexpectedEof, text.len())
    );
    // Nesting past the limit in an unknown field the decoder skips.
    let shallow = JsonLimits {
        max_bytes: 1 << 20,
        max_depth: 3,
    };
    let text = "{\"planner\":3,\"x\":[[[[1]]]]}";
    assert_eq!(
        syntax_error::<SubmitBatch>(text, &shallow),
        at(JsonErrorKind::TooDeep, 20)
    );
    // A bad escape in the tag of an unknown variant.
    let text = format!("{{\"planner\":\"q\",\"spec\":{{{SPEC},\"scenario\":{{\"N\\q\":1}}}}}}");
    let offset = text.find("\\q").expect("escape") + 1;
    assert_eq!(
        syntax_error::<SubmitBatch>(&text, &limits),
        at(JsonErrorKind::BadEscape, offset)
    );
}

#[test]
fn the_first_of_two_duplicate_keys_is_decoded() {
    let text = format!("{{\"planner\":\"a\",\"planner\":3,\"spec\":{{{SPEC}}}}}");
    let request = SubmitBatch::from_json(&text).expect("the second planner is not read");
    assert_eq!(request.planner, "a");
    let text = format!("{{\"planner\":3,\"planner\":\"a\",\"spec\":{{{SPEC}}}}}");
    assert_eq!(
        schema_error::<SubmitBatch>(&text),
        "schema mismatch: SubmitBatch.planner: String: expected string, got integer"
    );
    // A duplicate is still checked for syntax.
    let text = format!("{{\"planner\":\"a\",\"planner\":[,\"spec\":{{{SPEC}}}}}");
    assert_eq!(
        syntax_error::<SubmitBatch>(&text, &JsonLimits::default()),
        JsonError {
            kind: JsonErrorKind::UnexpectedChar(','),
            offset: 26
        }
    );
}

#[test]
fn numbers_keep_their_integer_or_float_reading() {
    let spec = |shots: &str, fill: &str, seed: &str| {
        format!("{{\"planner\":\"q\",\"spec\":{{\"shots\":{shots},\"size\":2,\"fill\":{fill},\"seed\":{seed}}}}}")
    };
    // Past i64 but inside u64: still an unsigned integer.
    let request = SubmitBatch::from_json(&spec("1", "1", "9223372036854775808")).expect("u64");
    assert_eq!(request.spec.seed, 1 << 63);
    assert_eq!(request.spec.fill.to_bits(), 1.0f64.to_bits());
    // Past u64: a float, so no longer an unsigned integer.
    assert_eq!(
        schema_error::<SubmitBatch>(&spec("18446744073709551616", "1", "1")),
        "schema mismatch: SubmitBatch.spec: BatchSpec.shots: usize: expected unsigned integer, got number"
    );
    // `-0` is the float negative zero: a valid fill, not an integer.
    let request = SubmitBatch::from_json(&spec("1", "-0", "1")).expect("-0 fill");
    assert_eq!(request.spec.fill.to_bits(), (-0.0f64).to_bits());
    assert_eq!(
        schema_error::<SubmitBatch>(&spec("1", "0.5", "-0")),
        "schema mismatch: SubmitBatch.spec: BatchSpec.seed: u64: expected unsigned integer, got number"
    );
    assert_eq!(
        schema_error::<SubmitBatch>(&spec("1", "0.5", "1e0")),
        "schema mismatch: SubmitBatch.spec: BatchSpec.seed: u64: expected unsigned integer, got number"
    );
}
