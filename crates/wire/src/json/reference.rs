//! The JSON codec as it stood before the streaming reader and writer:
//! a tree writer over [`Value`] and a recursive-descent parser that
//! builds the whole tree before anything is decoded from it. Kept as a
//! test-only reference; the parity tests in `super::parity` compare the
//! streaming codec's bytes and decode results against it.

use serde::Value;

use super::{JsonError, JsonErrorKind, JsonLimits};

/// Serializes a [`Value`] tree to compact JSON text (no whitespace).
///
/// Finite floats use shortest round-trip formatting (parse back
/// bit-identical); NaN and infinities — which JSON cannot represent —
/// encode as `null`, matching `serde_json`'s lossy default.
pub(super) fn write(value: &Value) -> String {
    let mut out = String::new();
    write_into(value, &mut out);
    out
}

fn write_into(value: &Value, out: &mut String) {
    match value {
        Value::Null => out.push_str("null"),
        Value::Bool(true) => out.push_str("true"),
        Value::Bool(false) => out.push_str("false"),
        Value::I64(v) => {
            out.push_str(&v.to_string());
        }
        Value::U64(v) => {
            out.push_str(&v.to_string());
        }
        Value::F64(v) => {
            if v.is_finite() {
                // Rust's float Display is the shortest decimal string
                // that parses back to the identical bits, and it never
                // produces exponent notation or non-JSON tokens.
                out.push_str(&v.to_string());
            } else {
                out.push_str("null");
            }
        }
        Value::Str(s) => write_string(s, out),
        Value::Seq(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_into(item, out);
            }
            out.push(']');
        }
        Value::Map(pairs) => {
            out.push('{');
            for (i, (key, item)) in pairs.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_string(key, out);
                out.push(':');
                write_into(item, out);
            }
            out.push('}');
        }
    }
}

fn write_string(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{08}' => out.push_str("\\b"),
            '\u{0c}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Parses JSON text into a [`Value`] with the default [`JsonLimits`].
///
/// # Errors
///
/// Returns a typed [`JsonError`] for malformed or over-limit input.
pub(super) fn parse(text: &str) -> Result<Value, JsonError> {
    parse_with_limits(text, &JsonLimits::default())
}

/// [`parse`] with explicit limits.
///
/// # Errors
///
/// Returns a typed [`JsonError`] for malformed or over-limit input.
pub(super) fn parse_with_limits(text: &str, limits: &JsonLimits) -> Result<Value, JsonError> {
    if text.len() > limits.max_bytes {
        return Err(JsonError {
            kind: JsonErrorKind::TooLarge,
            offset: limits.max_bytes,
        });
    }
    let mut parser = Parser {
        bytes: text.as_bytes(),
        pos: 0,
        max_depth: limits.max_depth,
    };
    parser.skip_whitespace();
    let value = parser.value(0)?;
    parser.skip_whitespace();
    if parser.pos != parser.bytes.len() {
        return Err(parser.error(JsonErrorKind::TrailingData));
    }
    Ok(value)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    max_depth: usize,
}

impl Parser<'_> {
    fn error(&self, kind: JsonErrorKind) -> JsonError {
        JsonError {
            kind,
            offset: self.pos,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_whitespace(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    /// The byte at `pos` interpreted as the start of a char, for error
    /// messages (input is valid UTF-8 by construction: it came in as
    /// `&str`).
    fn current_char(&self) -> char {
        std::str::from_utf8(&self.bytes[self.pos..])
            .ok()
            .and_then(|s| s.chars().next())
            .unwrap_or('\u{fffd}')
    }

    fn expect_literal(&mut self, literal: &str) -> Result<(), JsonError> {
        if self.bytes[self.pos..].starts_with(literal.as_bytes()) {
            self.pos += literal.len();
            Ok(())
        } else if self.bytes.len() - self.pos < literal.len() {
            Err(self.error(JsonErrorKind::UnexpectedEof))
        } else {
            Err(self.error(JsonErrorKind::UnexpectedChar(self.current_char())))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Value, JsonError> {
        if depth > self.max_depth {
            return Err(self.error(JsonErrorKind::TooDeep));
        }
        match self.peek() {
            None => Err(self.error(JsonErrorKind::UnexpectedEof)),
            Some(b'n') => self.expect_literal("null").map(|()| Value::Null),
            Some(b't') => self.expect_literal("true").map(|()| Value::Bool(true)),
            Some(b'f') => self.expect_literal("false").map(|()| Value::Bool(false)),
            Some(b'"') => self.string().map(Value::Str),
            Some(b'[') => self.array(depth),
            Some(b'{') => self.object(depth),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.error(JsonErrorKind::UnexpectedChar(self.current_char()))),
        }
    }

    fn array(&mut self, depth: usize) -> Result<Value, JsonError> {
        self.pos += 1; // consume '['
        let mut items = Vec::new();
        self.skip_whitespace();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Seq(items));
        }
        loop {
            self.skip_whitespace();
            items.push(self.value(depth + 1)?);
            self.skip_whitespace();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Seq(items));
                }
                Some(_) => {
                    return Err(self.error(JsonErrorKind::UnexpectedChar(self.current_char())))
                }
                None => return Err(self.error(JsonErrorKind::UnexpectedEof)),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Value, JsonError> {
        self.pos += 1; // consume '{'
        let mut pairs = Vec::new();
        self.skip_whitespace();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Map(pairs));
        }
        loop {
            self.skip_whitespace();
            if self.peek() != Some(b'"') {
                return Err(match self.peek() {
                    Some(_) => self.error(JsonErrorKind::UnexpectedChar(self.current_char())),
                    None => self.error(JsonErrorKind::UnexpectedEof),
                });
            }
            let key = self.string()?;
            self.skip_whitespace();
            match self.peek() {
                Some(b':') => self.pos += 1,
                Some(_) => {
                    return Err(self.error(JsonErrorKind::UnexpectedChar(self.current_char())))
                }
                None => return Err(self.error(JsonErrorKind::UnexpectedEof)),
            }
            self.skip_whitespace();
            pairs.push((key, self.value(depth + 1)?));
            self.skip_whitespace();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Map(pairs));
                }
                Some(_) => {
                    return Err(self.error(JsonErrorKind::UnexpectedChar(self.current_char())))
                }
                None => return Err(self.error(JsonErrorKind::UnexpectedEof)),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.pos += 1; // consume '"'
        let mut out = String::new();
        loop {
            let start = self.pos;
            // Copy the raw run up to the next quote, escape, or control
            // character in one slice.
            while let Some(b) = self.peek() {
                if b == b'"' || b == b'\\' || b < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            // Input came in as &str, so any byte run is valid UTF-8.
            out.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .expect("parser input is valid UTF-8"),
            );
            match self.peek() {
                None => return Err(self.error(JsonErrorKind::UnexpectedEof)),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    self.escape(&mut out)?;
                }
                Some(_) => return Err(self.error(JsonErrorKind::ControlCharacter)),
            }
        }
    }

    fn escape(&mut self, out: &mut String) -> Result<(), JsonError> {
        let Some(b) = self.peek() else {
            return Err(self.error(JsonErrorKind::UnexpectedEof));
        };
        self.pos += 1;
        match b {
            b'"' => out.push('"'),
            b'\\' => out.push('\\'),
            b'/' => out.push('/'),
            b'b' => out.push('\u{08}'),
            b'f' => out.push('\u{0c}'),
            b'n' => out.push('\n'),
            b'r' => out.push('\r'),
            b't' => out.push('\t'),
            b'u' => {
                let high = self.hex4()?;
                let code = if (0xd800..0xdc00).contains(&high) {
                    // High surrogate: a low surrogate must follow.
                    if self.expect_literal("\\u").is_err() {
                        return Err(self.error(JsonErrorKind::BadUnicodeEscape));
                    }
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
                    Some(c) => out.push(c),
                    None => return Err(self.error(JsonErrorKind::BadUnicodeEscape)),
                }
            }
            _ => {
                self.pos -= 1;
                return Err(self.error(JsonErrorKind::BadEscape));
            }
        }
        Ok(())
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

    fn number(&mut self) -> Result<Value, JsonError> {
        let start = self.pos;
        let negative = self.peek() == Some(b'-');
        if negative {
            self.pos += 1;
        }
        // Integer part: 0, or a nonzero digit followed by digits
        // (JSON forbids leading zeros).
        match self.peek() {
            Some(b'0') => self.pos += 1,
            Some(b'1'..=b'9') => {
                while matches!(self.peek(), Some(b'0'..=b'9')) {
                    self.pos += 1;
                }
            }
            Some(_) | None => return Err(self.error(JsonErrorKind::BadNumber)),
        }
        let mut is_float = false;
        if self.peek() == Some(b'.') {
            is_float = true;
            self.pos += 1;
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(self.error(JsonErrorKind::BadNumber));
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
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
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text =
            std::str::from_utf8(&self.bytes[start..self.pos]).expect("parser input is valid UTF-8");
        if !is_float {
            if let Ok(v) = text.parse::<i64>() {
                // "-0" is a distinct float (negative zero), not the
                // integer 0 — keep it a float so a written -0.0 parses
                // back bit-identical.
                if v != 0 || !negative {
                    return Ok(Value::I64(v));
                }
            } else if let Ok(v) = text.parse::<u64>() {
                return Ok(Value::U64(v));
            }
            // Integers beyond u64 range fall through to f64 (the only
            // way the writer produces such digits is float formatting).
        }
        match text.parse::<f64>() {
            Ok(v) => Ok(Value::F64(v)),
            Err(_) => Err(JsonError {
                kind: JsonErrorKind::BadNumber,
                offset: start,
            }),
        }
    }
}
