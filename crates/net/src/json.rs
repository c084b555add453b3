//! A minimal hand-rolled JSON value, writer, and reader — the
//! protocol's only serialization substrate (the build environment is
//! offline, so no serde), and the reader of the committed
//! `BENCH_*.json` reports.
//!
//! The wire dialect is deliberately narrow: the only number form is an
//! unsigned decimal integer ([`Value::UInt`]), because every numeric
//! protocol field is a `u64` (seeds, job ids, counts). Floats never
//! appear as JSON numbers — they travel as 16-digit hex strings of
//! their IEEE-754 bits (see [`hycim_qubo::wire`]), which is what makes
//! the protocol *exact*: no decimal round-trip can perturb a merged
//! result. [`Value::parse`] rejects anything outside the dialect
//! (signs, fractions, exponents, duplicate object keys) with a
//! byte-offset error instead of guessing. [`Value::parse_report`] is
//! the same reader with one difference: it also admits signed,
//! fractional and exponent numbers, kept as written in
//! [`Value::Number`]. Both bound nesting at [`MAX_DEPTH`], so no input
//! can exhaust the stack.

use std::fmt;

/// The deepest nesting of arrays and objects either reader accepts.
/// Protocol messages and reports nest at most five deep.
pub const MAX_DEPTH: usize = 64;

/// A parsed JSON document (or a document under construction).
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An unsigned decimal integer — the dialect's only number form.
    UInt(u64),
    /// A report's signed, fractional or exponent number, as written.
    /// Only [`Value::parse_report`] produces one.
    Number(String),
    /// A string (escapes resolved).
    Str(String),
    /// An array.
    Array(Vec<Value>),
    /// An object, in insertion order (order is preserved so encoding
    /// is deterministic).
    Object(Vec<(String, Value)>),
}

impl Value {
    /// Builds an object from key/value pairs.
    pub fn object(fields: Vec<(&str, Value)>) -> Value {
        Value::Object(
            fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    /// Looks a key up in an object (`None` for missing keys and
    /// non-objects).
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The integer payload, when this is a [`Value::UInt`].
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::UInt(n) => Some(*n),
            _ => None,
        }
    }

    /// The numeric payload of a [`Value::UInt`] or [`Value::Number`]
    /// (`None` for anything else and for numbers beyond `f64` range).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::UInt(n) => Some(*n as f64),
            Value::Number(text) => text.parse().ok().filter(|x: &f64| x.is_finite()),
            _ => None,
        }
    }

    /// The string payload, when this is a [`Value::Str`].
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The bool payload, when this is a [`Value::Bool`].
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The elements, when this is a [`Value::Array`].
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(items) => Some(items),
            _ => None,
        }
    }

    /// Looks up a required key. The typed `*_field` readers below
    /// build on it; each error names the key (`missing field "job"`,
    /// `field "job" must be an unsigned integer`), so the protocol
    /// decoders and the report readers share one set of messages.
    ///
    /// # Errors
    ///
    /// When the key is absent (or this is no object).
    pub fn field(&self, key: &str) -> Result<&Value, String> {
        self.get(key)
            .ok_or_else(|| format!("missing field \"{key}\""))
    }

    fn typed<'v, T>(
        &'v self,
        key: &str,
        read: impl FnOnce(&'v Value) -> Option<T>,
        what: &str,
    ) -> Result<T, String> {
        read(self.field(key)?).ok_or_else(|| format!("field \"{key}\" must be {what}"))
    }

    /// Reads a required unsigned integer.
    pub fn u64_field(&self, key: &str) -> Result<u64, String> {
        self.typed(key, Value::as_u64, "an unsigned integer")
    }

    /// Reads a required number (see [`Value::as_f64`]).
    pub fn number_field(&self, key: &str) -> Result<f64, String> {
        self.typed(key, Value::as_f64, "a number")
    }

    /// Reads a required string.
    pub fn str_field(&self, key: &str) -> Result<&str, String> {
        self.typed(key, Value::as_str, "a string")
    }

    /// Reads a required bool.
    pub fn bool_field(&self, key: &str) -> Result<bool, String> {
        self.typed(key, Value::as_bool, "a bool")
    }

    /// Reads a required array.
    pub fn array_field(&self, key: &str) -> Result<&[Value], String> {
        self.typed(key, Value::as_array, "an array")
    }

    /// Serializes to compact single-line JSON. The output never
    /// contains a raw newline (newlines in strings are escaped), which
    /// is what lets the frame layer delimit messages by line.
    pub fn encode(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(true) => out.push_str("true"),
            Value::Bool(false) => out.push_str("false"),
            Value::UInt(n) => out.push_str(&n.to_string()),
            Value::Number(text) => out.push_str(text),
            Value::Str(s) => write_string(s, out),
            Value::Array(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Value::Object(fields) => {
                out.push('{');
                for (i, (key, value)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_string(key, out);
                    out.push(':');
                    value.write(out);
                }
                out.push('}');
            }
        }
    }

    /// Parses a complete protocol document, rejecting trailing input.
    ///
    /// # Errors
    ///
    /// A [`JsonError`] carrying the byte offset of the first violation.
    pub fn parse(text: &str) -> Result<Value, JsonError> {
        Self::parse_with(text, false)
    }

    /// Parses a complete report document: the protocol dialect plus
    /// signed, fractional and exponent numbers ([`Value::Number`]).
    ///
    /// # Errors
    ///
    /// A [`JsonError`] carrying the byte offset of the first violation.
    pub fn parse_report(text: &str) -> Result<Value, JsonError> {
        Self::parse_with(text, true)
    }

    fn parse_with(text: &str, report: bool) -> Result<Value, JsonError> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
            report,
        };
        p.skip_ws();
        let value = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing input after document"));
        }
        Ok(value)
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
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// A parse failure: what went wrong and the byte offset it happened
/// at.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset into the document of the first violation.
    pub offset: usize,
    /// What was expected or violated.
    pub message: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects open around the cursor.
    depth: usize,
    /// Whether report numbers ([`Value::Number`]) are admitted.
    report: bool,
}

impl<'a> Parser<'a> {
    fn err(&self, message: impl Into<String>) -> JsonError {
        JsonError {
            offset: self.pos,
            message: message.into(),
        }
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn eat(&mut self, expected: u8) -> Result<(), JsonError> {
        if self.peek() == Some(expected) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected '{}'", expected as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Value) -> Result<Value, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(format!("expected '{word}'")))
        }
    }

    fn value(&mut self) -> Result<Value, JsonError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Value::Null),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'"') => self.string().map(Value::Str),
            Some(open @ (b'[' | b'{')) => {
                if self.depth == MAX_DEPTH {
                    return Err(self.err(format!("nesting deeper than {MAX_DEPTH} levels")));
                }
                self.depth += 1;
                let value = if open == b'[' {
                    self.array()
                } else {
                    self.object()
                };
                self.depth -= 1;
                value
            }
            Some(b'0'..=b'9') => self.number(),
            Some(b'-') if self.report => self.number(),
            Some(b'-') => Err(self.err("negative numbers are outside the protocol dialect")),
            Some(other) => Err(self.err(format!("unexpected byte '{}'", other as char))),
            None => Err(self.err("unexpected end of document")),
        }
    }

    /// Skips a run of decimal digits, requiring at least one.
    fn digits(&mut self) -> Result<(), JsonError> {
        let start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.pos == start {
            return Err(self.err("expected a digit"));
        }
        Ok(())
    }

    fn number(&mut self) -> Result<Value, JsonError> {
        let bytes = self.bytes;
        let signed = self.peek() == Some(b'-');
        let number_start = self.pos;
        self.pos += usize::from(signed);
        let start = self.pos;
        self.digits()?;
        let digits = &bytes[start..self.pos];
        let fractional = matches!(self.peek(), Some(b'.') | Some(b'e') | Some(b'E'));
        if fractional && !self.report {
            return Err(self.err("fractions/exponents are outside the protocol dialect"));
        }
        if digits.len() > 1 && digits[0] == b'0' {
            self.pos = start;
            return Err(self.err("leading zeros are not allowed"));
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            self.digits()?;
        }
        if matches!(self.peek(), Some(b'e') | Some(b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+') | Some(b'-')) {
                self.pos += 1;
            }
            self.digits()?;
        }
        let ascii = |b| std::str::from_utf8(b).expect("numbers are ascii");
        if signed || fractional {
            return Ok(Value::Number(
                ascii(&bytes[number_start..self.pos]).to_string(),
            ));
        }
        ascii(digits)
            .parse::<u64>()
            .map(Value::UInt)
            .map_err(|_| JsonError {
                offset: start,
                message: "integer exceeds u64".to_string(),
            })
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let escape = self.peek().ok_or_else(|| self.err("dangling escape"))?;
                    self.pos += 1;
                    match escape {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .ok_or_else(|| self.err("truncated \\u escape"))?;
                            let code = std::str::from_utf8(hex)
                                .ok()
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| self.err("malformed \\u escape"))?;
                            self.pos += 4;
                            // Surrogates never appear (the writer only
                            // escapes control characters); reject them.
                            let c = char::from_u32(code).ok_or(JsonError {
                                offset: start,
                                message: "escape is not a scalar value".to_string(),
                            })?;
                            out.push(c);
                        }
                        other => {
                            return Err(JsonError {
                                offset: start,
                                message: format!("unknown escape '\\{}'", other as char),
                            })
                        }
                    }
                }
                Some(b) if b < 0x20 => {
                    return Err(self.err("raw control character in string"));
                }
                Some(_) => {
                    // Copy the whole run of plain bytes in one go, so a
                    // string parses in linear time. The run ends at an
                    // ASCII byte or the end of the input, and the input
                    // is a &str, so it is valid UTF-8.
                    let run = self.bytes[self.pos..]
                        .iter()
                        .position(|&b| b == b'"' || b == b'\\' || b < 0x20)
                        .unwrap_or(self.bytes.len() - self.pos);
                    let text = std::str::from_utf8(&self.bytes[self.pos..self.pos + run])
                        .map_err(|_| self.err("invalid utf-8"))?;
                    out.push_str(text);
                    self.pos += run;
                }
            }
        }
    }

    fn array(&mut self) -> Result<Value, JsonError> {
        self.eat(b'[')?;
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
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self) -> Result<Value, JsonError> {
        self.eat(b'{')?;
        let mut fields: Vec<(String, Value)> = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(fields));
        }
        loop {
            self.skip_ws();
            let key_offset = self.pos;
            let key = self.string()?;
            if fields.iter().any(|(k, _)| *k == key) {
                return Err(JsonError {
                    offset: key_offset,
                    message: format!("duplicate key \"{key}\""),
                });
            }
            self.skip_ws();
            self.eat(b':')?;
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
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_round_trips() {
        for v in [
            Value::Null,
            Value::Bool(true),
            Value::Bool(false),
            Value::UInt(0),
            Value::UInt(u64::MAX),
            Value::Str(String::new()),
            Value::Str("plain".into()),
            Value::Str("quotes \" and \\ and \n\t\r lines".into()),
            Value::Str("unicode: héllo ∑".into()),
            Value::Str("\u{1}\u{1f}".into()),
        ] {
            assert_eq!(Value::parse(&v.encode()).unwrap(), v, "{v:?}");
        }
    }

    #[test]
    fn containers_round_trip_preserving_order() {
        let v = Value::object(vec![
            ("b", Value::UInt(1)),
            ("a", Value::Array(vec![Value::Null, Value::Bool(true)])),
            (
                "nested",
                Value::object(vec![("deep", Value::Str("x".into()))]),
            ),
        ]);
        let text = v.encode();
        assert_eq!(Value::parse(&text).unwrap(), v);
        // Deterministic encoding: keys stay in insertion order.
        assert!(text.find("\"b\"").unwrap() < text.find("\"a\"").unwrap());
        assert!(!text.contains('\n'), "encoded form is single-line");
    }

    #[test]
    fn accessors() {
        let v = Value::object(vec![
            ("n", Value::UInt(7)),
            ("s", Value::Str("hi".into())),
            ("b", Value::Bool(false)),
            ("a", Value::Array(vec![Value::UInt(1)])),
        ]);
        assert_eq!(v.get("n").and_then(Value::as_u64), Some(7));
        assert_eq!(v.get("s").and_then(Value::as_str), Some("hi"));
        assert_eq!(v.get("b").and_then(Value::as_bool), Some(false));
        assert_eq!(
            v.get("a").and_then(Value::as_array).map(<[_]>::len),
            Some(1)
        );
        assert!(v.get("missing").is_none());
        assert!(Value::Null.get("n").is_none());
        assert_eq!(v.u64_field("n"), Ok(7));
        assert_eq!(v.str_field("s"), Ok("hi"));
        assert_eq!(v.number_field("n"), Ok(7.0));
        assert_eq!(v.field("missing"), Err("missing field \"missing\"".into()));
        assert_eq!(
            v.u64_field("s"),
            Err("field \"s\" must be an unsigned integer".into())
        );
        assert_eq!(
            v.array_field("b"),
            Err("field \"b\" must be an array".into())
        );
    }

    #[test]
    fn report_numbers_parse_as_written_and_stay_off_the_wire() {
        let doc = "{\"a\": -5.0, \"b\": 1.2e8, \"c\": 0.0000, \"d\": -3, \"e\": 7, \"f\": 1E-2}";
        let v = Value::parse_report(doc).unwrap();
        assert_eq!(v.get("a"), Some(&Value::Number("-5.0".into())));
        assert_eq!(v.get("e"), Some(&Value::UInt(7)));
        let read = |k| v.number_field(k).unwrap();
        assert_eq!([read("a"), read("b"), read("c")], [-5.0, 1.2e8, 0.0]);
        assert_eq!([read("d"), read("e"), read("f")], [-3.0, 7.0, 0.01]);
        assert_eq!(Value::parse_report(&v.encode()).unwrap(), v);
        assert!(Value::parse(doc).is_err(), "the wire keeps its dialect");
        assert_eq!(Value::Number("1e999".into()).as_f64(), None);
        for (bad, needle) in [
            ("-", "expected a digit"),
            ("1.", "expected a digit"),
            ("1e+", "expected a digit"),
            ("-01.5", "leading zero"),
            ("[1.5,]", "unexpected byte"),
            ("[".repeat(65).as_str(), "nesting deeper than 64"),
        ] {
            let err = Value::parse_report(bad).unwrap_err();
            assert!(err.message.contains(needle), "{bad:?}: {err}");
        }
        let deepest = format!("{}{}", "[".repeat(64), "]".repeat(64));
        assert!(Value::parse_report(&deepest).is_ok());
    }

    #[test]
    fn dialect_violations_are_rejected_with_offsets() {
        for (doc, needle) in [
            ("-1", "negative"),
            ("1.5", "fraction"),
            ("1e3", "fraction"),
            ("01", "leading zero"),
            ("18446744073709551616", "exceeds u64"),
            ("{\"a\":1,\"a\":2}", "duplicate key"),
            ("\"unterminated", "unterminated"),
            ("[1,]", "unexpected byte"),
            ("{\"a\" 1}", "expected ':'"),
            ("true false", "trailing input"),
            ("\"bad \\x escape\"", "unknown escape"),
            ("nul", "expected 'null'"),
            ("", "unexpected end"),
            ("[".repeat(10_000).as_str(), "nesting deeper than 64"),
        ] {
            let err = Value::parse(doc).unwrap_err();
            assert!(
                err.message.contains(needle),
                "{doc:?}: {err} (wanted {needle:?})"
            );
        }
    }

    #[test]
    fn multi_mib_strings_parse_in_linear_time() {
        // A per-character rescan of the remaining input takes minutes
        // here, even optimized; one pass over each run of plain bytes
        // takes milliseconds, even unoptimized.
        let segment = format!("{}héllo ∑ 🦀 \"quoted\" \\ \n\t", "plain ascii ".repeat(16));
        let text = segment.repeat(20_000);
        assert!(text.len() >= 4 << 20, "{} bytes", text.len());
        let doc = Value::Str(text).encode();
        let begun = std::time::Instant::now();
        let parsed = Value::parse(&doc).unwrap();
        let took = begun.elapsed();
        assert_eq!(parsed.encode(), doc);
        assert!(took < std::time::Duration::from_secs(1), "took {took:?}");
    }

    #[test]
    fn offsets_point_at_the_violation() {
        let err = Value::parse("{\"key\": -3}").unwrap_err();
        assert_eq!(err.offset, 8);
        assert!(err.to_string().contains("byte 8"));
    }
}
