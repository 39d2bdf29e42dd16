//! A minimal JSON reader for the `rms serve` request protocol.
//!
//! The workspace is offline (no `serde`), and the *writers* in `rms-flow`
//! and this crate are hand-rolled appenders; this module adds the missing
//! direction — a small recursive-descent parser producing a [`Value`]
//! tree with the accessors the request decoder needs. It accepts strict
//! JSON (RFC 8259): objects, arrays, strings with escapes (including
//! `\uXXXX` and surrogate pairs), numbers, booleans, `null`.
//!
//! Requests are single-line documents, but an inline BLIF body can make
//! one 60 KB or more. The parser optimizes for clarity over throughput:
//! string decoding re-validates the rest of the input for every
//! character it copies, which is quadratic in the request size. Reports
//! flowing the *other* way never pass through it.
//!
//! # Example
//!
//! ```
//! use rms_serve::json::Value;
//!
//! let v = Value::parse(r#"{"id":"r1","effort":12,"batch":[true,null]}"#).unwrap();
//! assert_eq!(v.get("id").and_then(Value::as_str), Some("r1"));
//! assert_eq!(v.get("effort").and_then(Value::as_u64), Some(12));
//! assert_eq!(v.get("batch").and_then(Value::as_array).map(<[Value]>::len), Some(2));
//! ```

use std::fmt;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (kept as `f64`, like JavaScript).
    Number(f64),
    /// A string with escapes resolved.
    String(String),
    /// An array.
    Array(Vec<Value>),
    /// An object; insertion order is preserved, duplicate keys keep the
    /// last occurrence (matching common JSON-library behaviour).
    Object(Vec<(String, Value)>),
}

/// A parse failure, with the byte offset where it happened.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset into the input.
    pub offset: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

impl Value {
    /// Parses one complete JSON document (trailing whitespace allowed,
    /// trailing garbage rejected).
    ///
    /// # Errors
    ///
    /// Returns [`JsonError`] with the byte offset of the first problem.
    pub fn parse(text: &str) -> Result<Value, JsonError> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after the document"));
        }
        Ok(v)
    }

    /// Object field lookup (`None` for non-objects and missing keys).
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(fields) => fields.iter().rev().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// The number as a non-negative integer, if it is one exactly.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Number(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= u64::MAX as f64 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The element slice, if this is an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(items) => Some(items),
            _ => None,
        }
    }

    /// Whether this is an object.
    pub fn is_object(&self) -> bool {
        matches!(self, Value::Object(_))
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, message: impl Into<String>) -> JsonError {
        JsonError {
            offset: self.pos,
            message: message.into(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected {:?}", b as char)))
        }
    }

    fn value(&mut self) -> Result<Value, JsonError> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Value::String(self.string()?)),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(c) => Err(self.err(format!("unexpected character {:?}", c as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn literal(&mut self, word: &str, value: Value) -> Result<Value, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(format!("expected {word:?}")))
        }
    }

    fn object(&mut self) -> Result<Value, JsonError> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(fields));
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    fn array(&mut self) -> Result<Value, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn number(&mut self) -> Result<Value, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii");
        text.parse::<f64>()
            .map(Value::Number)
            .map_err(|_| self.err(format!("invalid number {text:?}")))
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or_else(|| self.err("dangling escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hi = self.hex4()?;
                            let c = if (0xd800..0xdc00).contains(&hi) {
                                // Surrogate pair: a \uXXXX low half must follow.
                                if self.peek() != Some(b'\\') {
                                    return Err(self.err("lone high surrogate"));
                                }
                                self.pos += 1;
                                if self.peek() != Some(b'u') {
                                    return Err(self.err("lone high surrogate"));
                                }
                                self.pos += 1;
                                let lo = self.hex4()?;
                                if !(0xdc00..0xe000).contains(&lo) {
                                    return Err(self.err("invalid low surrogate"));
                                }
                                let code = 0x10000 + ((hi - 0xd800) << 10) + (lo - 0xdc00);
                                char::from_u32(code)
                                    .ok_or_else(|| self.err("invalid surrogate pair"))?
                            } else {
                                char::from_u32(hi).ok_or_else(|| self.err("invalid \\u escape"))?
                            };
                            out.push(c);
                        }
                        other => {
                            return Err(self.err(format!("unknown escape \\{}", other as char)))
                        }
                    }
                }
                Some(c) if c < 0x20 => return Err(self.err("raw control character in string")),
                Some(_) => {
                    // Copy one UTF-8 scalar (input is &str, so boundaries
                    // are valid).
                    let rest = std::str::from_utf8(&self.bytes[self.pos..])
                        .map_err(|_| self.err("invalid UTF-8"))?;
                    let c = rest.chars().next().expect("non-empty");
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let end = self.pos + 4;
        if end > self.bytes.len() {
            return Err(self.err("truncated \\u escape"));
        }
        let text = std::str::from_utf8(&self.bytes[self.pos..end])
            .map_err(|_| self.err("invalid \\u escape"))?;
        let v = u32::from_str_radix(text, 16).map_err(|_| self.err("invalid \\u escape"))?;
        self.pos = end;
        Ok(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars() {
        assert_eq!(Value::parse("null").unwrap(), Value::Null);
        assert_eq!(Value::parse(" true ").unwrap(), Value::Bool(true));
        assert_eq!(Value::parse("-12.5e1").unwrap(), Value::Number(-125.0));
        assert_eq!(
            Value::parse("\"a\\n\\\"b\\u00e9\"").unwrap(),
            Value::String("a\n\"bé".into())
        );
    }

    #[test]
    fn nested_documents() {
        let v = Value::parse(r#"{"a":[1,{"b":null},"x"],"a2":{"c":false}}"#).unwrap();
        assert!(v.is_object());
        assert_eq!(v.get("a").and_then(Value::as_array).unwrap().len(), 3);
        assert_eq!(
            v.get("a2")
                .and_then(|x| x.get("c"))
                .and_then(Value::as_bool),
            Some(false)
        );
        assert_eq!(v.get("missing"), None);
    }

    #[test]
    fn round_trips_the_flow_report() {
        // The parser must accept what rms-flow's writer emits.
        let out = rms_flow::Pipeline::from_str(
            rms_flow::InputFormat::Expr,
            "f = maj(a, b, c) ^ d",
            "demo",
        )
        .unwrap()
        .effort(2)
        .run()
        .unwrap();
        let text = rms_flow::render_json(&out.report);
        let v = Value::parse(&text).unwrap();
        assert_eq!(
            v.get("schema").and_then(Value::as_str),
            Some(rms_flow::REPORT_SCHEMA)
        );
        assert_eq!(v.get("name").and_then(Value::as_str), Some("demo"));
        assert!(v.get("cost").and_then(|c| c.get("rrams")).is_some());
    }

    #[test]
    fn surrogate_pairs_and_errors() {
        assert_eq!(
            Value::parse("\"\\ud83d\\ude00\"").unwrap(),
            Value::String("😀".into())
        );
        for bad in [
            "",
            "{",
            "[1,",
            "tru",
            "\"\\x\"",
            "\"\\ud83d\"",
            "01x",
            "{}extra",
            "{\"a\"1}",
            "\"\u{1}\"",
        ] {
            assert!(Value::parse(bad).is_err(), "{bad:?} should fail");
        }
        // Duplicate keys: last one wins.
        let v = Value::parse(r#"{"k":1,"k":2}"#).unwrap();
        assert_eq!(v.get("k").and_then(Value::as_u64), Some(2));
    }

    /// Long strings alternate plain runs (ASCII and multi-byte UTF-8)
    /// with escapes and surrogate pairs, so every kind of piece meets
    /// every other at a run boundary.
    #[test]
    fn long_strings_decode_across_run_boundaries() {
        let pieces: [(&str, &str); 9] = [
            ("abc", "abc"),
            ("é", "é"),
            ("日本", "日本"),
            ("😀", "😀"),
            ("\\n", "\n"),
            ("\\u00e9", "é"),
            ("\\ud83d\\ude00", "😀"),
            ("\\\"", "\""),
            ("\\/", "/"),
        ];
        let (mut text, mut want) = (String::from("\""), String::new());
        for i in 0..20_000usize {
            let (raw, decoded) = pieces[(i * 7 + i / 9) % pieces.len()];
            text.push_str(raw);
            want.push_str(decoded);
        }
        text.push('"');
        assert!(text.len() > 60_000, "{}", text.len());
        assert_eq!(Value::parse(&text).unwrap(), Value::String(want));
    }

    #[test]
    fn string_errors_keep_their_offsets() {
        let err = |text: &str| Value::parse(text).unwrap_err();
        // A raw control character after a multi-byte run is reported at
        // its own byte.
        let e = err(&format!("\"{}\u{1}\"", "é".repeat(1000)));
        assert_eq!(
            (e.offset, e.message.as_str()),
            (2001, "raw control character in string")
        );
        let e = err(&format!("\"ab\\n{}\n", "x".repeat(10)));
        assert_eq!(
            (e.offset, e.message.as_str()),
            (15, "raw control character in string")
        );
        let e = err(&format!("\"{}", "日".repeat(10)));
        assert_eq!((e.offset, e.message.as_str()), (31, "unterminated string"));
        let e = err("\"abc\\");
        assert_eq!((e.offset, e.message.as_str()), (5, "dangling escape"));
        let e = err("\"abé\\q\"");
        assert_eq!((e.offset, e.message.as_str()), (7, "unknown escape \\q"));
    }
}
