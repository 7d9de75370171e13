//! A minimal JSON value: deterministic emission and a small recursive
//! parser.
//!
//! The workspace has no route to crates.io, so manifests are emitted and
//! re-read with this self-contained implementation. Numbers are kept as
//! `u64`/`i64`/`f64` variants so counter values survive a round trip
//! exactly (no float coercion for integers).

use std::collections::BTreeMap;
use std::fmt;

use crate::metrics::{HistogramSnapshot, MetricsSnapshot};

/// A parsed or constructed JSON value.
///
/// # Example
///
/// ```
/// use pm_obs::json::Value;
///
/// let value = Value::parse(r#"{"a": [1, true, "x"], "b": null}"#).unwrap();
/// assert_eq!(value.get("a").and_then(|a| a.index(0)).and_then(Value::as_u64), Some(1));
/// assert_eq!(value.to_string(), r#"{"a":[1,true,"x"],"b":null}"#);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A non-negative integer.
    UInt(u64),
    /// A negative integer.
    Int(i64),
    /// A non-integer number.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object; keys are kept sorted (BTreeMap), making emission
    /// deterministic.
    Obj(BTreeMap<String, Value>),
}

impl Value {
    /// Member lookup on objects (`None` elsewhere).
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(map) => map.get(key),
            _ => None,
        }
    }

    /// Element lookup on arrays (`None` elsewhere).
    pub fn index(&self, i: usize) -> Option<&Value> {
        match self {
            Value::Arr(items) => items.get(i),
            _ => None,
        }
    }

    /// The value as a `u64`, when it is a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::UInt(n) => Some(*n),
            Value::Int(n) => u64::try_from(*n).ok(),
            _ => None,
        }
    }

    /// The value as an `i64`, when it is an integer.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::UInt(n) => i64::try_from(*n).ok(),
            Value::Int(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a string slice, when it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The object's map, when it is an object.
    pub fn as_obj(&self) -> Option<&BTreeMap<String, Value>> {
        match self {
            Value::Obj(map) => Some(map),
            _ => None,
        }
    }

    /// The array's items, when it is an array.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Parses a JSON document.
    ///
    /// # Errors
    ///
    /// Returns [`ParseJsonError`] with a byte offset on malformed input.
    pub fn parse(text: &str) -> Result<Value, ParseJsonError> {
        let mut parser = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        parser.skip_ws();
        let value = parser.value()?;
        parser.skip_ws();
        if parser.pos != parser.bytes.len() {
            return Err(parser.error("trailing characters"));
        }
        Ok(value)
    }

    /// Builds the JSON object for a [`MetricsSnapshot`].
    pub fn from_snapshot(snapshot: &MetricsSnapshot) -> Value {
        let mut root = BTreeMap::new();
        root.insert(
            "counters".to_owned(),
            Value::Obj(
                snapshot
                    .counters
                    .iter()
                    .map(|(k, v)| (k.clone(), Value::UInt(*v)))
                    .collect(),
            ),
        );
        root.insert(
            "gauges".to_owned(),
            Value::Obj(
                snapshot
                    .gauges
                    .iter()
                    .map(|(k, v)| (k.clone(), Value::Int(*v)))
                    .collect(),
            ),
        );
        root.insert(
            "histograms".to_owned(),
            Value::Obj(
                snapshot
                    .histograms
                    .iter()
                    .map(|(k, h)| (k.clone(), Value::from_histogram(h)))
                    .collect(),
            ),
        );
        Value::Obj(root)
    }

    /// Builds the JSON object for one histogram snapshot.
    pub fn from_histogram(hist: &HistogramSnapshot) -> Value {
        let mut obj = BTreeMap::new();
        obj.insert("count".to_owned(), Value::UInt(hist.count));
        obj.insert("sum".to_owned(), Value::UInt(hist.sum));
        obj.insert(
            "buckets".to_owned(),
            Value::Arr(
                hist.buckets
                    .iter()
                    .map(|(b, n)| Value::Arr(vec![Value::UInt(u64::from(*b)), Value::UInt(*n)]))
                    .collect(),
            ),
        );
        Value::Obj(obj)
    }

    /// Reads a histogram snapshot back from its JSON object form.
    pub fn to_histogram(&self) -> Option<HistogramSnapshot> {
        let count = self.get("count")?.as_u64()?;
        let sum = self.get("sum")?.as_u64()?;
        let mut buckets = Vec::new();
        for pair in self.get("buckets")?.as_arr()? {
            let bucket = u32::try_from(pair.index(0)?.as_u64()?).ok()?;
            buckets.push((bucket, pair.index(1)?.as_u64()?));
        }
        Some(HistogramSnapshot {
            count,
            sum,
            buckets,
        })
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => f.write_str("null"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::UInt(n) => write!(f, "{n}"),
            Value::Int(n) => write!(f, "{n}"),
            Value::Float(x) => write!(f, "{x}"),
            Value::Str(s) => f.write_str(&escape(s)),
            Value::Arr(items) => {
                f.write_str("[")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{item}")?;
                }
                f.write_str("]")
            }
            Value::Obj(map) => {
                f.write_str("{")?;
                for (i, (key, value)) in map.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{}:{value}", escape(key))?;
                }
                f.write_str("}")
            }
        }
    }
}

/// JSON-escapes a string, including the surrounding quotes.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
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
    out
}

/// Renders the `"count":..,"sum":..,"buckets":[..]` fields of a histogram
/// (no surrounding braces) for NDJSON lines.
pub fn histogram_fields(hist: &HistogramSnapshot) -> String {
    let buckets: Vec<String> = hist
        .buckets
        .iter()
        .map(|(b, n)| format!("[{b},{n}]"))
        .collect();
    format!(
        "\"count\":{},\"sum\":{},\"buckets\":[{}]",
        hist.count,
        hist.sum,
        buckets.join(",")
    )
}

/// A JSON parse error with the byte offset where parsing failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseJsonError {
    /// What went wrong.
    pub message: String,
    /// Byte offset in the input.
    pub offset: usize,
}

impl fmt::Display for ParseJsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.message, self.offset)
    }
}

impl std::error::Error for ParseJsonError {}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn error(&self, message: &str) -> ParseJsonError {
        ParseJsonError {
            message: message.to_owned(),
            offset: self.pos,
        }
    }

    fn skip_ws(&mut self) {
        while let Some(b' ' | b'\t' | b'\n' | b'\r') = self.bytes.get(self.pos) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn eat(&mut self, expected: u8) -> Result<(), ParseJsonError> {
        if self.peek() == Some(expected) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(&format!("expected `{}`", expected as char)))
        }
    }

    fn eat_literal(&mut self, literal: &str, value: Value) -> Result<Value, ParseJsonError> {
        if self.bytes[self.pos..].starts_with(literal.as_bytes()) {
            self.pos += literal.len();
            Ok(value)
        } else {
            Err(self.error(&format!("expected `{literal}`")))
        }
    }

    fn value(&mut self) -> Result<Value, ParseJsonError> {
        match self.peek() {
            Some(b'n') => self.eat_literal("null", Value::Null),
            Some(b't') => self.eat_literal("true", Value::Bool(true)),
            Some(b'f') => self.eat_literal("false", Value::Bool(false)),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.error("expected a JSON value")),
        }
    }

    fn string(&mut self) -> Result<String, ParseJsonError> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            match self.peek() {
                None => return Err(self.error("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or_else(|| self.error("truncated \\u escape"))?;
                            let hex = std::str::from_utf8(hex)
                                .map_err(|_| self.error("invalid \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.error("invalid \\u escape"))?;
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| self.error("invalid \\u code point"))?,
                            );
                            self.pos += 4;
                        }
                        _ => return Err(self.error("invalid escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (input is a &str, so slicing
                    // at char boundaries is safe via chars()).
                    let rest = std::str::from_utf8(&self.bytes[start..])
                        .map_err(|_| self.error("invalid utf-8"))?;
                    let c = rest.chars().next().ok_or_else(|| self.error("eof"))?;
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<Value, ParseJsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(c) = self.peek() {
            match c {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.error("invalid number"))?;
        if !is_float {
            if let Ok(n) = text.parse::<u64>() {
                return Ok(Value::UInt(n));
            }
            if let Ok(n) = text.parse::<i64>() {
                return Ok(Value::Int(n));
            }
        }
        text.parse::<f64>()
            .map(Value::Float)
            .map_err(|_| self.error("invalid number"))
    }

    fn array(&mut self) -> Result<Value, ParseJsonError> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Arr(items));
                }
                _ => return Err(self.error("expected `,` or `]`")),
            }
        }
    }

    fn object(&mut self) -> Result<Value, ParseJsonError> {
        self.eat(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Obj(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            self.skip_ws();
            let value = self.value()?;
            map.insert(key, value);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Obj(map));
                }
                _ => return Err(self.error("expected `,` or `}`")),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(Value::parse("null").unwrap(), Value::Null);
        assert_eq!(Value::parse("true").unwrap(), Value::Bool(true));
        assert_eq!(Value::parse(" 42 ").unwrap(), Value::UInt(42));
        assert_eq!(Value::parse("-7").unwrap(), Value::Int(-7));
        assert_eq!(Value::parse("1.5").unwrap(), Value::Float(1.5));
        assert_eq!(
            Value::parse("\"a\\nb\"").unwrap(),
            Value::Str("a\nb".into())
        );
    }

    #[test]
    fn json_escape_handles_controls() {
        assert_eq!(escape("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(escape("\u{1}"), "\"\\u0001\"");
    }

    #[test]
    fn large_u64_survives_round_trip() {
        let n = u64::MAX;
        let text = Value::UInt(n).to_string();
        assert_eq!(Value::parse(&text).unwrap().as_u64(), Some(n));
    }

    #[test]
    fn nested_structures_round_trip() {
        let text = r#"{"a":[1,2,{"b":null}],"c":{"d":[true,false]},"e":"x\"y"}"#;
        let value = Value::parse(text).unwrap();
        assert_eq!(value.to_string(), text);
    }

    #[test]
    fn whitespace_tolerated_everywhere() {
        let value = Value::parse(" { \"a\" : [ 1 , 2 ] , \"b\" : { } } ").unwrap();
        assert_eq!(value.get("a").unwrap().as_arr().unwrap().len(), 2);
    }

    #[test]
    fn unicode_escapes_decode() {
        let value = Value::parse(r#""Aé""#).unwrap();
        assert_eq!(value.as_str(), Some("Aé"));
    }

    #[test]
    fn malformed_input_reports_offset() {
        for bad in ["{", "[1,", "\"x", "{\"a\" 1}", "nul", "1 2"] {
            let err = Value::parse(bad).unwrap_err();
            assert!(err.offset <= bad.len(), "{bad}: {err}");
        }
    }

    #[test]
    fn snapshot_json_round_trips() {
        let mut snap = MetricsSnapshot::new();
        snap.set_counter("events.store", 12);
        snap.gauges.insert("g".into(), -3);
        snap.histograms.insert(
            "stage.x".into(),
            HistogramSnapshot {
                count: 2,
                sum: 10,
                buckets: vec![(1, 1), (4, 1)],
            },
        );
        let value = Value::parse(&snap.to_json()).unwrap();
        assert_eq!(
            value.get("counters").unwrap().get("events.store"),
            Some(&Value::UInt(12))
        );
        assert_eq!(
            value
                .get("histograms")
                .unwrap()
                .get("stage.x")
                .unwrap()
                .to_histogram(),
            Some(snap.histograms["stage.x"].clone())
        );
    }
}
