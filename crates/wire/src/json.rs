//! The JSON text codec: a streaming writer and a streaming
//! recursive-descent reader behind the vendored serde stub's
//! [`Sink`] and [`Source`] traits.
//!
//! The derived `Serialize` code of a wire type writes straight into the
//! writer's one output buffer, and its derived `Deserialize` code reads
//! straight from the reader: no [`serde::Value`] tree is built on
//! either side. Keys are matched against field names where they lie in
//! the text (an escaped key is unescaped into one reused buffer), and a
//! value the target does not keep — an unknown field, a duplicate key,
//! the rest of a value that failed — is checked for syntax and skipped
//! without building anything. [`write()`] and [`parse()`] are the same
//! writer and reader with [`Value`] as the target type.
//!
//! Dependency-free (std only) and deliberately strict:
//!
//! * the reader enforces a **size limit** up front and a **depth
//!   limit** during descent ([`JsonLimits`]), so hostile input cannot
//!   exhaust the stack or memory;
//! * malformed input — truncation, bad escapes, bare control
//!   characters, leading zeros, trailing data — produces a typed
//!   [`JsonError`] carrying the byte offset, never a panic. A syntax
//!   error anywhere in the text wins over any schema error, so a typed
//!   decode reports the same error whichever field it reached first;
//! * the writer emits numbers via Rust's shortest round-trip float
//!   formatting, so every finite `f64` survives a write→parse cycle
//!   **bit-identically** (the foundation of the service's wire-level
//!   determinism contract; non-finite floats encode as `null`).

use std::fmt::{self, Write as _};
use std::ops::Range;

use serde::{Decoded, Deserialize, Serialize, Sink, Source, Token, Value};

#[cfg(test)]
mod parity;
#[cfg(test)]
mod reference;

/// Resource limits the reader enforces before and during descent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JsonLimits {
    /// Maximum input length in bytes (checked before parsing starts).
    pub max_bytes: usize,
    /// Maximum nesting depth of arrays/objects.
    pub max_depth: usize,
}

impl Default for JsonLimits {
    /// 16 MiB of text, 64 levels of nesting — far beyond anything the
    /// planning protocol produces, far below anything dangerous.
    fn default() -> Self {
        JsonLimits {
            max_bytes: 16 << 20,
            max_depth: 64,
        }
    }
}

/// What went wrong while reading.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum JsonErrorKind {
    /// The input exceeds [`JsonLimits::max_bytes`].
    TooLarge,
    /// Nesting exceeds [`JsonLimits::max_depth`].
    TooDeep,
    /// The input ended inside a value (truncation).
    UnexpectedEof,
    /// A character that cannot start or continue the current construct.
    UnexpectedChar(char),
    /// A malformed `\` escape inside a string.
    BadEscape,
    /// A malformed `\uXXXX` escape (bad hex digits or a lone
    /// surrogate).
    BadUnicodeEscape,
    /// A malformed number literal.
    BadNumber,
    /// A bare control character (< 0x20) inside a string.
    ControlCharacter,
    /// Non-whitespace input after the top-level value.
    TrailingData,
}

/// A typed syntax error with the byte offset it occurred at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JsonError {
    /// The failure category.
    pub kind: JsonErrorKind,
    /// Byte offset into the input where the failure was detected.
    pub offset: usize,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let what = match self.kind {
            JsonErrorKind::TooLarge => "input exceeds the size limit".to_string(),
            JsonErrorKind::TooDeep => "nesting exceeds the depth limit".to_string(),
            JsonErrorKind::UnexpectedEof => "unexpected end of input".to_string(),
            JsonErrorKind::UnexpectedChar(c) => format!("unexpected character {c:?}"),
            JsonErrorKind::BadEscape => "invalid string escape".to_string(),
            JsonErrorKind::BadUnicodeEscape => "invalid \\u escape".to_string(),
            JsonErrorKind::BadNumber => "invalid number literal".to_string(),
            JsonErrorKind::ControlCharacter => "bare control character in string".to_string(),
            JsonErrorKind::TrailingData => "trailing data after the value".to_string(),
        };
        write!(f, "{what} at byte {}", self.offset)
    }
}

impl std::error::Error for JsonError {}

// ---------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------

/// Serializes a [`Value`] tree to compact JSON text (no whitespace).
///
/// Finite floats use shortest round-trip formatting (parse back
/// bit-identical); NaN and infinities — which JSON cannot represent —
/// encode as `null`, matching `serde_json`'s lossy default.
pub fn write(value: &Value) -> String {
    encode(value)
}

/// Compact JSON text of any [`Serialize`] value, written straight from
/// its derived code.
pub(crate) fn encode<T: Serialize + ?Sized>(value: &T) -> String {
    let mut writer = Writer {
        out: String::with_capacity(512),
        first: true,
    };
    value.serialize_into(&mut writer);
    writer.out
}

/// The [`Sink`] that appends compact JSON text to one buffer.
struct Writer {
    out: String,
    /// Nothing written yet in the innermost open container, so the next
    /// element or key takes no comma.
    first: bool,
}

impl Writer {
    fn separate(&mut self) {
        if !self.first {
            self.out.push(',');
        }
        self.first = false;
    }

    /// `v`'s decimal digits, as `Display` writes them.
    fn digits(&mut self, mut v: u64) {
        let mut buf = [0u8; 20];
        let mut at = buf.len();
        loop {
            at -= 1;
            buf[at] = b'0' + (v % 10) as u8;
            v /= 10;
            if v == 0 {
                break;
            }
        }
        self.out
            .push_str(std::str::from_utf8(&buf[at..]).expect("ASCII digits"));
    }
}

impl Sink for Writer {
    fn null(&mut self) {
        self.out.push_str("null");
    }

    fn bool(&mut self, v: bool) {
        self.out.push_str(if v { "true" } else { "false" });
    }

    fn i64(&mut self, v: i64) {
        if v < 0 {
            self.out.push('-');
        }
        self.digits(v.unsigned_abs());
    }

    fn u64(&mut self, v: u64) {
        self.digits(v);
    }

    fn f64(&mut self, v: f64) {
        if v.is_finite() {
            // Rust's float Display is the shortest decimal string that
            // parses back to the identical bits, and it never produces
            // exponent notation or non-JSON tokens.
            write!(self.out, "{v}").expect("writing to a String cannot fail");
        } else {
            self.out.push_str("null");
        }
    }

    fn str(&mut self, v: &str) {
        write_string(v, &mut self.out);
    }

    fn begin_seq(&mut self) {
        self.out.push('[');
        self.first = true;
    }

    fn element(&mut self) {
        self.separate();
    }

    fn end_seq(&mut self) {
        self.out.push(']');
        self.first = false;
    }

    fn begin_map(&mut self) {
        self.out.push('{');
        self.first = true;
    }

    fn key(&mut self, key: &str) {
        self.separate();
        write_string(key, &mut self.out);
        self.out.push(':');
    }

    fn end_map(&mut self) {
        self.out.push('}');
        self.first = false;
    }
}

/// Writes `s` as a JSON string literal, copying the runs between the
/// characters that need an escape whole.
fn write_string(s: &str, out: &mut String) {
    out.push('"');
    let mut run = 0;
    for (at, byte) in s.bytes().enumerate() {
        let escape = match byte {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0x08 => "\\b",
            0x0c => "\\f",
            0..=0x1f => "",
            _ => continue,
        };
        // Every escaped byte is ASCII, so `run..at` is whole chars.
        out.push_str(&s[run..at]);
        if escape.is_empty() {
            write!(out, "\\u{byte:04x}").expect("writing to a String cannot fail");
        } else {
            out.push_str(escape);
        }
        run = at + 1;
    }
    out.push_str(&s[run..]);
    out.push('"');
}

// ---------------------------------------------------------------------
// Reader
// ---------------------------------------------------------------------

/// Parses JSON text into a [`Value`] with the default [`JsonLimits`].
///
/// # Errors
///
/// Returns a typed [`JsonError`] for malformed or over-limit input.
pub fn parse(text: &str) -> Result<Value, JsonError> {
    parse_with_limits(text, &JsonLimits::default())
}

/// [`parse`] with explicit limits.
///
/// # Errors
///
/// Returns a typed [`JsonError`] for malformed or over-limit input.
pub fn parse_with_limits(text: &str, limits: &JsonLimits) -> Result<Value, JsonError> {
    decode::<Value>(text, limits).map(|tree| tree.expect("a Value holds any JSON"))
}

/// Reads one `T` from the whole of `text`, straight into its derived
/// code. The outer error is the text's first syntax error (or its size);
/// the inner one the schema error a well-formed document gives.
pub(crate) fn decode<T: Deserialize>(
    text: &str,
    limits: &JsonLimits,
) -> Result<Decoded<T>, JsonError> {
    if text.len() > limits.max_bytes {
        return Err(JsonError {
            kind: JsonErrorKind::TooLarge,
            offset: limits.max_bytes,
        });
    }
    let mut reader = Reader {
        text,
        pos: 0,
        depth: 0,
        max_depth: limits.max_depth,
        first: true,
        scratch: String::new(),
    };
    let decoded = T::deserialize_from(&mut reader)?;
    reader.skip_whitespace();
    if reader.pos != text.len() {
        return Err(reader.error(JsonErrorKind::TrailingData));
    }
    Ok(decoded)
}

/// The [`Source`] that reads JSON text in one forward pass.
struct Reader<'a> {
    text: &'a str,
    pos: usize,
    /// Containers open around the current position.
    depth: usize,
    max_depth: usize,
    /// The innermost open container has yielded no element or key yet.
    first: bool,
    /// The unescaped text of the last string that held an escape, when
    /// its value was wanted.
    scratch: String,
}

impl<'a> Reader<'a> {
    fn error(&self, kind: JsonErrorKind) -> JsonError {
        JsonError {
            kind,
            offset: self.pos,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn skip_whitespace(&mut self) {
        self.skip_while(|b| matches!(b, b' ' | b'\t' | b'\n' | b'\r'));
    }

    /// Moves `pos` past the bytes that satisfy `keep`.
    fn skip_while(&mut self, keep: impl Fn(u8) -> bool) {
        let rest = &self.text.as_bytes()[self.pos..];
        self.pos += rest.iter().position(|&b| !keep(b)).unwrap_or(rest.len());
    }

    /// The char at `pos`, for error messages.
    fn current_char(&self) -> char {
        self.text
            .get(self.pos..)
            .and_then(|rest| rest.chars().next())
            .unwrap_or('\u{fffd}')
    }

    fn unexpected(&self) -> JsonError {
        match self.peek() {
            Some(_) => self.error(JsonErrorKind::UnexpectedChar(self.current_char())),
            None => self.error(JsonErrorKind::UnexpectedEof),
        }
    }

    /// Moves to the next value's first byte, checking its depth.
    fn start_value(&mut self) -> Result<u8, JsonError> {
        self.skip_whitespace();
        if self.depth > self.max_depth {
            return Err(self.error(JsonErrorKind::TooDeep));
        }
        self.peek()
            .ok_or_else(|| self.error(JsonErrorKind::UnexpectedEof))
    }

    fn literal(&mut self, literal: &str) -> Result<(), JsonError> {
        if self.text.as_bytes()[self.pos..].starts_with(literal.as_bytes()) {
            self.pos += literal.len();
            Ok(())
        } else if self.text.len() - self.pos < literal.len() {
            Err(self.error(JsonErrorKind::UnexpectedEof))
        } else {
            Err(self.error(JsonErrorKind::UnexpectedChar(self.current_char())))
        }
    }

    fn open(&mut self) {
        self.pos += 1;
        self.depth += 1;
        self.first = true;
    }

    fn close(&mut self) {
        self.pos += 1;
        self.depth -= 1;
        self.first = false;
    }

    /// Reads past the comma before an open container's next item, or its
    /// closing bracket `end` (`false`).
    fn next_item(&mut self, end: u8) -> Result<bool, JsonError> {
        self.skip_whitespace();
        if std::mem::take(&mut self.first) {
            if self.peek() == Some(end) {
                self.close();
                return Ok(false);
            }
            return Ok(true);
        }
        match self.peek() {
            Some(b',') => {
                self.pos += 1;
                Ok(true)
            }
            Some(b) if b == end => {
                self.close();
                Ok(false)
            }
            _ => Err(self.unexpected()),
        }
    }

    /// Reads the open map's next key and its colon, or the map's closing
    /// brace (`None`). The key is `Some(range)` of the text when it holds
    /// no escape; otherwise it is in `scratch` if `keep` is set.
    fn next_entry(&mut self, keep: bool) -> Result<Option<Option<Range<usize>>>, JsonError> {
        if !self.next_item(b'}')? {
            return Ok(None);
        }
        self.skip_whitespace();
        if self.peek() != Some(b'"') {
            return Err(self.unexpected());
        }
        let key = self.string(keep)?;
        self.skip_whitespace();
        if self.peek() != Some(b':') {
            return Err(self.unexpected());
        }
        self.pos += 1;
        Ok(Some(key))
    }

    /// Reads a string literal from its opening quote. Returns the range
    /// of its text when it holds no escape; otherwise its unescaped text
    /// is left in `scratch` if `keep` is set, and built nowhere if not.
    fn string(&mut self, keep: bool) -> Result<Option<Range<usize>>, JsonError> {
        self.pos += 1; // consume '"'
        let start = self.pos;
        let mut escaped = false;
        loop {
            let run = self.pos;
            while let Some(b) = self.peek() {
                if b == b'"' || b == b'\\' || b < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            if escaped && keep {
                self.scratch.push_str(&self.text[run..self.pos]);
            }
            match self.peek() {
                None => return Err(self.error(JsonErrorKind::UnexpectedEof)),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok((!escaped).then(|| start..self.pos - 1));
                }
                Some(b'\\') => {
                    if !escaped && keep {
                        self.scratch.clear();
                        self.scratch.push_str(&self.text[start..self.pos]);
                    }
                    escaped = true;
                    self.pos += 1;
                    let c = self.escape()?;
                    if keep {
                        self.scratch.push(c);
                    }
                }
                Some(_) => return Err(self.error(JsonErrorKind::ControlCharacter)),
            }
        }
    }

    /// The text of a string [`string`](Self::string) kept.
    fn kept(&self, key: Option<Range<usize>>) -> &str {
        match key {
            Some(range) => &self.text[range],
            None => &self.scratch,
        }
    }

    fn escape(&mut self) -> Result<char, JsonError> {
        let Some(b) = self.peek() else {
            return Err(self.error(JsonErrorKind::UnexpectedEof));
        };
        self.pos += 1;
        Ok(match b {
            b'"' => '"',
            b'\\' => '\\',
            b'/' => '/',
            b'b' => '\u{08}',
            b'f' => '\u{0c}',
            b'n' => '\n',
            b'r' => '\r',
            b't' => '\t',
            b'u' => {
                let high = self.hex4()?;
                let code = if (0xd800..0xdc00).contains(&high) {
                    // High surrogate: a low surrogate must follow.
                    if !self.text.as_bytes()[self.pos..].starts_with(b"\\u") {
                        return Err(self.error(JsonErrorKind::BadUnicodeEscape));
                    }
                    self.pos += 2;
                    let low = self.hex4()?;
                    if !(0xdc00..0xe000).contains(&low) {
                        return Err(self.error(JsonErrorKind::BadUnicodeEscape));
                    }
                    0x10000 + ((high - 0xd800) << 10) + (low - 0xdc00)
                } else if (0xdc00..0xe000).contains(&high) {
                    // Lone low surrogate.
                    return Err(self.error(JsonErrorKind::BadUnicodeEscape));
                } else {
                    high
                };
                match char::from_u32(code) {
                    Some(c) => c,
                    None => return Err(self.error(JsonErrorKind::BadUnicodeEscape)),
                }
            }
            _ => {
                self.pos -= 1;
                return Err(self.error(JsonErrorKind::BadEscape));
            }
        })
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let mut code = 0u32;
        for _ in 0..4 {
            let Some(b) = self.peek() else {
                return Err(self.error(JsonErrorKind::UnexpectedEof));
            };
            let digit = match b {
                b'0'..=b'9' => u32::from(b - b'0'),
                b'a'..=b'f' => u32::from(b - b'a') + 10,
                b'A'..=b'F' => u32::from(b - b'A') + 10,
                _ => return Err(self.error(JsonErrorKind::BadUnicodeEscape)),
            };
            code = (code << 4) | digit;
            self.pos += 1;
        }
        Ok(code)
    }

    /// Reads past a number literal's grammar, returning whether it is
    /// negative and whether it has a fraction or exponent.
    fn scan_number(&mut self) -> Result<(bool, bool), JsonError> {
        let negative = self.peek() == Some(b'-');
        if negative {
            self.pos += 1;
        }
        // Integer part: 0, or a nonzero digit followed by digits
        // (JSON forbids leading zeros).
        match self.peek() {
            Some(b'0') => self.pos += 1,
            Some(b'1'..=b'9') => self.digits(),
            Some(_) | None => return Err(self.error(JsonErrorKind::BadNumber)),
        }
        let mut is_float = false;
        if self.peek() == Some(b'.') {
            is_float = true;
            self.pos += 1;
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(self.error(JsonErrorKind::BadNumber));
            }
            self.digits();
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            is_float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(self.error(JsonErrorKind::BadNumber));
            }
            self.digits();
        }
        Ok((negative, is_float))
    }

    fn digits(&mut self) {
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
    }

    /// Reads a number literal as an `I64`, `U64` or `F64` token.
    fn number(&mut self) -> Result<Token<'a>, JsonError> {
        let start = self.pos;
        let (negative, is_float) = self.scan_number()?;
        let text = &self.text[start..self.pos];
        if !is_float {
            if let Ok(v) = text.parse::<i64>() {
                // "-0" is a distinct float (negative zero), not the
                // integer 0 — keep it a float so a written -0.0 reads
                // back bit-identical.
                if v != 0 || !negative {
                    return Ok(Token::I64(v));
                }
            } else if let Ok(v) = text.parse::<u64>() {
                return Ok(Token::U64(v));
            }
            // Integers beyond u64 range fall through to f64 (the only
            // way the writer produces such digits is float formatting).
        }
        match text.parse::<f64>() {
            Ok(v) => Ok(Token::F64(v)),
            Err(_) => Err(JsonError {
                kind: JsonErrorKind::BadNumber,
                offset: start,
            }),
        }
    }
}

impl Source for Reader<'_> {
    type Fatal = JsonError;

    fn token(&mut self) -> Result<Token<'_>, JsonError> {
        Ok(match self.start_value()? {
            b'n' => self.literal("null").map(|()| Token::Null)?,
            b't' => self.literal("true").map(|()| Token::Bool(true))?,
            b'f' => self.literal("false").map(|()| Token::Bool(false))?,
            b'"' => {
                let text = self.string(true)?;
                Token::Str(self.kept(text))
            }
            b'[' => {
                self.open();
                Token::Seq
            }
            b'{' => {
                self.open();
                Token::Map
            }
            b'-' | b'0'..=b'9' => self.number()?,
            _ => return Err(self.unexpected()),
        })
    }

    fn null(&mut self) -> Result<bool, JsonError> {
        if self.start_value()? != b'n' {
            return Ok(false);
        }
        self.literal("null")?;
        Ok(true)
    }

    fn next_element(&mut self) -> Result<bool, JsonError> {
        self.next_item(b']')
    }

    fn next_key<R>(&mut self, read: impl FnOnce(&str) -> R) -> Result<Option<R>, JsonError> {
        Ok(self.next_entry(true)?.map(|key| read(self.kept(key))))
    }

    fn skip(&mut self) -> Result<(), JsonError> {
        match self.start_value()? {
            b'n' => self.literal("null"),
            b't' => self.literal("true"),
            b'f' => self.literal("false"),
            b'"' => self.string(false).map(drop),
            b'[' => {
                self.open();
                while self.next_item(b']')? {
                    self.skip()?;
                }
                Ok(())
            }
            b'{' => {
                self.open();
                while self.next_entry(false)?.is_some() {
                    self.skip()?;
                }
                Ok(())
            }
            b'-' | b'0'..=b'9' => self.scan_number().map(drop),
            _ => Err(self.unexpected()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(value: Value) {
        let text = write(&value);
        assert_eq!(parse(&text).unwrap(), value, "text {text:?}");
    }

    #[test]
    fn scalar_round_trips() {
        roundtrip(Value::Null);
        roundtrip(Value::Bool(true));
        roundtrip(Value::Bool(false));
        roundtrip(Value::I64(0));
        roundtrip(Value::I64(-42));
        roundtrip(Value::I64(i64::MIN));
        roundtrip(Value::U64(u64::MAX));
        roundtrip(Value::F64(0.55));
        roundtrip(Value::F64(-0.0));
        roundtrip(Value::F64(f64::MAX));
        roundtrip(Value::F64(f64::MIN_POSITIVE));
        roundtrip(Value::Str(String::new()));
        roundtrip(Value::Str(
            "hé\u{1f600}\"\\\n\t\u{08}\u{0c}\u{01}".to_string(),
        ));
    }

    #[test]
    fn integral_floats_come_back_bit_identical() {
        // Display prints 2.0 as "2"; the parser yields I64(2), and the
        // typed f64 path converts back exactly.
        let text = write(&Value::F64(2.0));
        assert_eq!(text, "2");
        assert_eq!(parse(&text).unwrap().as_f64(), Some(2.0));
        // Integral floats parse back as integer Values by design; the
        // typed f64 path restores the identical bits — even past 2^53
        // (every integer the writer can emit for an f64 *is* an f64)
        // and past i64 into the u64 range.
        for v in [9_007_199_254_740_994.0_f64, 1.0e19] {
            let text = write(&Value::F64(v));
            assert_eq!(parse(&text).unwrap().as_f64(), Some(v), "text {text:?}");
        }
    }

    #[test]
    fn nonfinite_floats_write_null() {
        assert_eq!(write(&Value::F64(f64::NAN)), "null");
        assert_eq!(write(&Value::F64(f64::INFINITY)), "null");
    }

    #[test]
    fn container_round_trips() {
        roundtrip(Value::Seq(vec![]));
        roundtrip(Value::Map(vec![]));
        roundtrip(Value::Seq(vec![
            Value::Null,
            Value::Seq(vec![Value::I64(1)]),
            Value::Map(vec![("k\"ey".to_string(), Value::Bool(false))]),
        ]));
    }

    #[test]
    fn whitespace_and_escapes_parse() {
        let value =
            parse(" { \"a\" : [ 1 , 2.5 ] , \"b\\u0041\\ud834\\udd1e\" : \"\\/\" } ").unwrap();
        assert!(matches!(value.get("a"), Some(Value::Seq(items)) if items.len() == 2));
        assert_eq!(value.get("bA\u{1d11e}"), Some(&Value::Str("/".to_string())));
    }

    #[test]
    fn malformed_inputs_are_typed_errors() {
        let cases: &[(&str, JsonErrorKind)] = &[
            ("", JsonErrorKind::UnexpectedEof),
            ("[1, 2", JsonErrorKind::UnexpectedEof),
            ("\"abc", JsonErrorKind::UnexpectedEof),
            ("tru", JsonErrorKind::UnexpectedEof),
            ("truX", JsonErrorKind::UnexpectedChar('t')),
            ("[1,]", JsonErrorKind::UnexpectedChar(']')),
            ("{\"a\" 1}", JsonErrorKind::UnexpectedChar('1')),
            ("{1: 2}", JsonErrorKind::UnexpectedChar('1')),
            ("01", JsonErrorKind::TrailingData),
            ("1.", JsonErrorKind::BadNumber),
            ("1e", JsonErrorKind::BadNumber),
            ("-", JsonErrorKind::BadNumber),
            ("\"\\x\"", JsonErrorKind::BadEscape),
            ("\"\\u12g4\"", JsonErrorKind::BadUnicodeEscape),
            ("\"\\ud834\"", JsonErrorKind::BadUnicodeEscape),
            ("\"\\udd1e\"", JsonErrorKind::BadUnicodeEscape),
            ("\"\u{01}\"", JsonErrorKind::ControlCharacter),
            ("1 2", JsonErrorKind::TrailingData),
            ("nul", JsonErrorKind::UnexpectedEof),
        ];
        for (text, kind) in cases {
            let err = parse(text).unwrap_err();
            assert_eq!(&err.kind, kind, "input {text:?} gave {err}");
        }
    }

    #[test]
    fn limits_are_enforced() {
        let deep = "[".repeat(100) + &"]".repeat(100);
        assert_eq!(parse(&deep).unwrap_err().kind, JsonErrorKind::TooDeep);
        let limits = JsonLimits {
            max_bytes: 4,
            max_depth: 64,
        };
        assert_eq!(
            parse_with_limits("[1,2,3]", &limits).unwrap_err().kind,
            JsonErrorKind::TooLarge
        );
        // At exactly the limit, parsing proceeds.
        assert!(parse_with_limits("[1]", &limits).is_ok());
        let shallow = JsonLimits {
            max_bytes: 1 << 20,
            max_depth: 2,
        };
        assert!(parse_with_limits("[[1]]", &shallow).is_ok());
        assert_eq!(
            parse_with_limits("[[[1]]]", &shallow).unwrap_err().kind,
            JsonErrorKind::TooDeep
        );
    }

    #[test]
    fn duplicate_keys_keep_first_on_lookup() {
        let value = parse("{\"a\":1,\"a\":2}").unwrap();
        assert_eq!(value.get("a"), Some(&Value::I64(1)));
    }
}
