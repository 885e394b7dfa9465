//! A minimal, dependency-free JSON representation used for trace and report
//! (de)serialization.
//!
//! The testing runtime must be buildable in hermetic environments with no
//! access to a crates.io mirror, so instead of depending on `serde` the crate
//! carries this small JSON module: a [`Json`] value type, a recursive-descent
//! parser, and pretty/compact writers. It supports the full JSON grammar with
//! one deliberate refinement: integers that fit `u64`/`i64` are kept exact
//! rather than routed through `f64`, because traces store 64-bit seeds whose
//! round trip must be lossless. The parser recurses once per nesting level,
//! so it refuses documents nested deeper than [`MAX_DEPTH`] with an error
//! instead of overflowing the stack.

use std::collections::BTreeMap;
use std::error::Error;
use std::fmt;

/// The deepest nesting of arrays and objects [`Json::parse`] accepts. Traces
/// and reports nest a handful of levels; the bound keeps the recursive
/// descent far inside a 2 MiB thread stack, in debug builds too.
pub const MAX_DEPTH: usize = 128;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A non-negative integer that fits in 64 bits, kept exact.
    UInt(u64),
    /// A negative integer that fits in 64 bits, kept exact.
    Int(i64),
    /// Any other number.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<Json>),
    /// An object. Keys are kept sorted for deterministic output.
    Object(BTreeMap<String, Json>),
}

/// Error produced when parsing malformed JSON or when a value does not have
/// the shape a deserializer expects.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Description of what went wrong.
    pub message: String,
}

impl JsonError {
    /// Creates an error with the given message.
    pub fn new(message: impl Into<String>) -> Self {
        JsonError {
            message: message.into(),
        }
    }
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json error: {}", self.message)
    }
}

impl Error for JsonError {}

impl Json {
    /// Builds an object from key/value pairs.
    pub fn object(pairs: impl IntoIterator<Item = (&'static str, Json)>) -> Json {
        Json::Object(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Looks up a key of an object.
    pub fn get(&self, key: &str) -> Result<&Json, JsonError> {
        match self {
            Json::Object(map) => map
                .get(key)
                .ok_or_else(|| JsonError::new(format!("missing key '{key}'"))),
            other => Err(JsonError::new(format!(
                "expected object with key '{key}', found {}",
                other.kind_name()
            ))),
        }
    }

    /// The value as a `u64`, accepting any exactly-representable number.
    pub fn as_u64(&self) -> Result<u64, JsonError> {
        match self {
            Json::UInt(v) => Ok(*v),
            Json::Int(v) if *v >= 0 => Ok(*v as u64),
            other => Err(JsonError::new(format!(
                "expected unsigned integer, found {}",
                other.kind_name()
            ))),
        }
    }

    /// The value as a `usize`.
    pub fn as_usize(&self) -> Result<usize, JsonError> {
        Ok(self.as_u64()? as usize)
    }

    /// The value as an `f64`, accepting any JSON number.
    pub fn as_f64(&self) -> Result<f64, JsonError> {
        match self {
            Json::Float(v) => Ok(*v),
            Json::UInt(v) => Ok(*v as f64),
            Json::Int(v) => Ok(*v as f64),
            other => Err(JsonError::new(format!(
                "expected number, found {}",
                other.kind_name()
            ))),
        }
    }

    /// Looks up a key of an object, returning `None` when the key is absent
    /// (used for schema fields added after the format was first shipped).
    pub fn opt(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(map) => map.get(key),
            _ => None,
        }
    }

    /// The value as a `bool`.
    pub fn as_bool(&self) -> Result<bool, JsonError> {
        match self {
            Json::Bool(b) => Ok(*b),
            other => Err(JsonError::new(format!(
                "expected bool, found {}",
                other.kind_name()
            ))),
        }
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Result<&str, JsonError> {
        match self {
            Json::Str(s) => Ok(s),
            other => Err(JsonError::new(format!(
                "expected string, found {}",
                other.kind_name()
            ))),
        }
    }

    /// The value as an array slice.
    pub fn as_array(&self) -> Result<&[Json], JsonError> {
        match self {
            Json::Array(items) => Ok(items),
            other => Err(JsonError::new(format!(
                "expected array, found {}",
                other.kind_name()
            ))),
        }
    }

    fn kind_name(&self) -> &'static str {
        match self {
            Json::Null => "null",
            Json::Bool(_) => "bool",
            Json::UInt(_) | Json::Int(_) | Json::Float(_) => "number",
            Json::Str(_) => "string",
            Json::Array(_) => "array",
            Json::Object(_) => "object",
        }
    }

    /// Parses a JSON document.
    ///
    /// # Errors
    ///
    /// Returns a [`JsonError`] describing the first syntax error, or naming
    /// the byte offset where arrays and objects nest deeper than
    /// [`MAX_DEPTH`].
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let mut parser = Parser {
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        };
        parser.skip_whitespace();
        let value = parser.parse_value()?;
        parser.skip_whitespace();
        if parser.pos != parser.bytes.len() {
            return Err(JsonError::new(format!(
                "trailing characters at byte {}",
                parser.pos
            )));
        }
        Ok(value)
    }

    /// Renders the value as compact JSON.
    pub fn to_string_compact(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Renders the value as pretty-printed JSON with two-space indentation.
    pub fn to_string_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::UInt(v) => out.push_str(&v.to_string()),
            Json::Int(v) => out.push_str(&v.to_string()),
            Json::Float(v) => {
                if v.is_finite() {
                    out.push_str(&format!("{v}"));
                } else {
                    // JSON has no NaN/Infinity; mirror serde_json's `null`.
                    out.push_str("null");
                }
            }
            Json::Str(s) => write_escaped(out, s),
            Json::Array(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline_indent(out, indent, depth + 1);
                    item.write(out, indent, depth + 1);
                }
                newline_indent(out, indent, depth);
                out.push(']');
            }
            Json::Object(map) => {
                if map.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (key, value)) in map.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline_indent(out, indent, depth + 1);
                    write_escaped(out, key);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    value.write(out, indent, depth + 1);
                }
                newline_indent(out, indent, depth);
                out.push('}');
            }
        }
    }
}

fn newline_indent(out: &mut String, indent: Option<usize>, depth: usize) {
    if let Some(width) = indent {
        out.push('\n');
        for _ in 0..depth * width {
            out.push(' ');
        }
    }
}

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects open at `pos`.
    depth: usize,
}

impl Parser<'_> {
    fn skip_whitespace(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, byte: u8) -> Result<(), JsonError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(JsonError::new(format!(
                "expected '{}' at byte {}",
                byte as char, self.pos
            )))
        }
    }

    fn parse_value(&mut self) -> Result<Json, JsonError> {
        self.skip_whitespace();
        match self.peek() {
            Some(b'{') => self.nested(Self::parse_object),
            Some(b'[') => self.nested(Self::parse_array),
            Some(b'"') => Ok(Json::Str(self.parse_string()?)),
            Some(b't') => self.parse_literal("true", Json::Bool(true)),
            Some(b'f') => self.parse_literal("false", Json::Bool(false)),
            Some(b'n') => self.parse_literal("null", Json::Null),
            Some(b'-') | Some(b'0'..=b'9') => self.parse_number(),
            _ => Err(JsonError::new(format!(
                "unexpected character at byte {}",
                self.pos
            ))),
        }
    }

    /// Parses one array or object a level deeper, refusing to go past
    /// [`MAX_DEPTH`].
    fn nested(
        &mut self,
        parse: fn(&mut Self) -> Result<Json, JsonError>,
    ) -> Result<Json, JsonError> {
        if self.depth == MAX_DEPTH {
            return Err(JsonError::new(format!(
                "nesting deeper than {MAX_DEPTH} levels at byte {}",
                self.pos
            )));
        }
        self.depth += 1;
        let value = parse(self);
        self.depth -= 1;
        value
    }

    fn parse_literal(&mut self, literal: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(literal.as_bytes()) {
            self.pos += literal.len();
            Ok(value)
        } else {
            Err(JsonError::new(format!(
                "invalid literal at byte {}",
                self.pos
            )))
        }
    }

    fn parse_number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| JsonError::new("invalid utf-8 in number"))?;
        if !is_float {
            if let Ok(v) = text.parse::<u64>() {
                return Ok(Json::UInt(v));
            }
            if let Ok(v) = text.parse::<i64>() {
                return Ok(Json::Int(v));
            }
        }
        text.parse::<f64>()
            .map(Json::Float)
            .map_err(|_| JsonError::new(format!("invalid number '{text}'")))
    }

    fn parse_string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let Some(b) = self.peek() else {
                return Err(JsonError::new("unterminated string"));
            };
            self.pos += 1;
            match b {
                b'"' => return Ok(out),
                b'\\' => {
                    let Some(esc) = self.peek() else {
                        return Err(JsonError::new("unterminated escape"));
                    };
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
                            let code = self.parse_hex4()?;
                            // Surrogate pairs: JSON escapes astral-plane chars
                            // as two \uXXXX units. The second unit must be a
                            // low surrogate, or the document is malformed.
                            let c = if (0xD800..0xDC00).contains(&code) {
                                if self.peek() == Some(b'\\') {
                                    self.pos += 1;
                                    self.expect(b'u')?;
                                    let low = self.parse_hex4()?;
                                    if (0xDC00..0xE000).contains(&low) {
                                        char::from_u32(
                                            0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00),
                                        )
                                    } else {
                                        None
                                    }
                                } else {
                                    None
                                }
                            } else {
                                char::from_u32(code)
                            };
                            out.push(c.ok_or_else(|| JsonError::new("invalid \\u escape"))?);
                        }
                        other => {
                            return Err(JsonError::new(format!(
                                "invalid escape '\\{}'",
                                other as char
                            )))
                        }
                    }
                }
                b if b < 0x80 => out.push(b as char),
                lead => {
                    // Re-decode only this one multi-byte UTF-8 sequence (the
                    // input came from a &str, so it is valid UTF-8; the
                    // length check still guards slicing).
                    let len = match lead {
                        0xC0..=0xDF => 2,
                        0xE0..=0xEF => 3,
                        _ => 4,
                    };
                    let start = self.pos - 1;
                    let sequence = self
                        .bytes
                        .get(start..start + len)
                        .ok_or_else(|| JsonError::new("truncated utf-8 sequence"))?;
                    let text = std::str::from_utf8(sequence)
                        .map_err(|_| JsonError::new("invalid utf-8 in string"))?;
                    out.push_str(text);
                    self.pos = start + len;
                }
            }
        }
    }

    fn parse_hex4(&mut self) -> Result<u32, JsonError> {
        if self.pos + 4 > self.bytes.len() {
            return Err(JsonError::new("truncated \\u escape"));
        }
        let text = std::str::from_utf8(&self.bytes[self.pos..self.pos + 4])
            .map_err(|_| JsonError::new("invalid \\u escape"))?;
        self.pos += 4;
        u32::from_str_radix(text, 16).map_err(|_| JsonError::new("invalid \\u escape"))
    }

    fn parse_array(&mut self) -> Result<Json, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_whitespace();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Array(items));
        }
        loop {
            items.push(self.parse_value()?);
            self.skip_whitespace();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Array(items));
                }
                _ => {
                    return Err(JsonError::new(format!(
                        "expected ',' or ']' at byte {}",
                        self.pos
                    )))
                }
            }
        }
    }

    fn parse_object(&mut self) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_whitespace();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Object(map));
        }
        loop {
            self.skip_whitespace();
            let key = self.parse_string()?;
            self.skip_whitespace();
            self.expect(b':')?;
            let value = self.parse_value()?;
            map.insert(key, value);
            self.skip_whitespace();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Object(map));
                }
                _ => {
                    return Err(JsonError::new(format!(
                        "expected ',' or '}}' at byte {}",
                        self.pos
                    )))
                }
            }
        }
    }
}

/// Types that can render themselves as a [`Json`] value.
pub trait ToJson {
    /// Converts the value into its JSON representation.
    fn to_json_value(&self) -> Json;
}

/// Types that can be reconstructed from a [`Json`] value.
pub trait FromJson: Sized {
    /// Reconstructs the value, reporting shape mismatches as [`JsonError`]s.
    fn from_json_value(value: &Json) -> Result<Self, JsonError>;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(Json::parse("null").unwrap(), Json::Null);
        assert_eq!(Json::parse("true").unwrap(), Json::Bool(true));
        assert_eq!(Json::parse(" 42 ").unwrap(), Json::UInt(42));
        assert_eq!(Json::parse("-7").unwrap(), Json::Int(-7));
        assert_eq!(Json::parse("1.5").unwrap(), Json::Float(1.5));
        assert_eq!(
            Json::parse("\"hi\\nthere\"").unwrap(),
            Json::Str("hi\nthere".to_string())
        );
    }

    #[test]
    fn u64_round_trip_is_exact() {
        let original = Json::UInt(u64::MAX);
        let text = original.to_string_compact();
        assert_eq!(Json::parse(&text).unwrap(), original);
    }

    #[test]
    fn arrays_and_objects_round_trip() {
        let value = Json::object([
            ("items", Json::Array(vec![Json::UInt(1), Json::Bool(false)])),
            ("name", Json::Str("trace".to_string())),
            ("empty", Json::Array(vec![])),
        ]);
        for text in [value.to_string_compact(), value.to_string_pretty()] {
            assert_eq!(Json::parse(&text).unwrap(), value);
        }
    }

    #[test]
    fn escapes_round_trip() {
        let value = Json::Str("quote\" backslash\\ tab\t newline\n unicode\u{1F600}".to_string());
        let text = value.to_string_compact();
        assert_eq!(Json::parse(&text).unwrap(), value);
    }

    #[test]
    fn surrogate_pair_escapes_parse() {
        assert_eq!(
            Json::parse("\"\\ud83d\\ude00\"").unwrap(),
            Json::Str("\u{1F600}".to_string())
        );
    }

    #[test]
    fn malformed_surrogate_escapes_are_rejected() {
        // High surrogate followed by a non-surrogate unit, a lone high
        // surrogate, a lone low surrogate, and a bare high surrogate at the
        // end of input: all must report an error, never panic or mis-decode.
        for bad in [
            "\"\\ud800\\u0041\"",
            "\"\\ud800x\"",
            "\"\\udc00\"",
            "\"\\ud800",
        ] {
            assert!(Json::parse(bad).is_err(), "should reject {bad:?}");
        }
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in ["", "{", "[1,", "\"unterminated", "nul", "1 2", "{\"a\" 1}"] {
            assert!(Json::parse(bad).is_err(), "should reject {bad:?}");
        }
    }

    /// Parsing `depth` nested copies of `open` on a thread with the 2 MiB
    /// stack a test gets, returning the parser's verdict.
    fn parse_nested(open: &'static str, depth: usize) -> Result<Json, JsonError> {
        std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(move || Json::parse(&open.repeat(depth)))
            .expect("spawn")
            .join()
            .expect("the parser must not overflow its stack")
    }

    #[test]
    fn deep_nesting_is_an_error_not_a_stack_overflow() {
        for open in ["[", "{\"a\":"] {
            let err = parse_nested(open, 100_000).unwrap_err();
            let offset = MAX_DEPTH * open.len();
            assert_eq!(
                err.message,
                format!("nesting deeper than {MAX_DEPTH} levels at byte {offset}"),
                "{open:?}"
            );
        }
        // At the bound a document still parses.
        let deepest = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(Json::parse(&deepest).is_ok());
        let too_deep = format!("[{deepest}]");
        assert!(Json::parse(&too_deep).is_err());
    }

    #[test]
    fn accessors_check_shapes() {
        let obj = Json::object([("n", Json::UInt(3))]);
        assert_eq!(obj.get("n").unwrap().as_u64().unwrap(), 3);
        assert!(obj.get("missing").is_err());
        assert!(obj.get("n").unwrap().as_str().is_err());
        assert!(Json::Null.get("x").is_err());
    }
}
