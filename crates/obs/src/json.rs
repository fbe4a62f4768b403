//! A minimal, dependency-free JSON writer and reader with stable output.
//!
//! The golden-run regression suite byte-compares exported snapshots, so
//! the writer must be fully deterministic: callers are responsible for
//! iterating maps in sorted order (the registry uses `BTreeMap`
//! throughout), and this module guarantees stable escaping and number
//! formatting on top of that.
//!
//! The reader ([`parse`]) is the inverse half. Its only callers are the
//! `pipebench` harness (its stream workload reads the final export back,
//! its smoke test reads `BENCHMARK.json` and its own result lines) and
//! this module's tests. Numbers are kept as their raw source tokens
//! ([`JsonValue::Number`]) so full-range `u64` values round-trip exactly
//! instead of passing through an `f64` that only holds 53 bits of
//! integer precision.

/// Incremental JSON writer. Values are appended through the `push_*`
/// methods; object/array framing is the caller's responsibility via
/// [`JsonWriter::raw`], which keeps the writer trivially small.
#[derive(Debug, Default)]
pub struct JsonWriter {
    out: String,
    needs_comma: bool,
}

impl JsonWriter {
    /// An empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends literal text (framing characters such as `{`, `}`, `[`,
    /// `]`) and resets the pending-comma state.
    pub fn raw(&mut self, s: &str) {
        self.out.push_str(s);
        self.needs_comma = false;
    }

    /// Appends `"key":` with a leading comma when needed.
    pub fn key(&mut self, key: &str) {
        self.comma();
        push_json_string(&mut self.out, key);
        self.out.push(':');
        self.needs_comma = false;
    }

    /// Appends a string value.
    pub fn string(&mut self, value: &str) {
        self.comma();
        push_json_string(&mut self.out, value);
        self.needs_comma = true;
    }

    /// Appends an unsigned integer value.
    pub fn uint(&mut self, value: u64) {
        self.comma();
        self.out.push_str(&value.to_string());
        self.needs_comma = true;
    }

    /// Appends a signed integer value.
    pub fn int(&mut self, value: i64) {
        self.comma();
        self.out.push_str(&value.to_string());
        self.needs_comma = true;
    }

    /// Appends a float with fixed precision, the only stable way to
    /// serialise `f64` for byte-comparison. Non-finite values become
    /// `null` (JSON has no NaN/Inf).
    pub fn float(&mut self, value: f64, decimals: usize) {
        self.comma();
        if value.is_finite() {
            self.out.push_str(&format!("{value:.decimals$}"));
        } else {
            self.out.push_str("null");
        }
        self.needs_comma = true;
    }

    /// Marks the just-closed value as complete so the next sibling gets a
    /// comma. Call after a nested object/array closed with [`raw`].
    ///
    /// [`raw`]: JsonWriter::raw
    pub fn end_value(&mut self) {
        self.needs_comma = true;
    }

    /// Consumes the writer and returns the accumulated JSON text.
    pub fn finish(self) -> String {
        self.out
    }

    fn comma(&mut self) {
        if self.needs_comma {
            self.out.push(',');
        }
    }
}

/// Escapes `s` per RFC 8259 and appends it, quoted, to `out`.
pub fn push_json_string(out: &mut String, s: &str) {
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

/// A parsed JSON document.
///
/// Objects preserve source order as a `Vec` of pairs — the documents
/// this parser reads are written in stable key order already, and
/// keeping a `Vec` avoids imposing a map type on callers.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number, kept as its raw source token so full-range `u64`
    /// values round-trip exactly.
    Number(String),
    /// A string with escapes resolved.
    String(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object as (key, value) pairs in source order.
    Object(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// The value under `key` if this is an object containing it.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::String(s) => Some(s),
            _ => None,
        }
    }

    /// The number token parsed as `u64`, if it is one.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::Number(raw) => raw.parse().ok(),
            _ => None,
        }
    }

    /// The bool payload, if this is a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The element list, if this is an array.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The pair list, if this is an object.
    pub fn as_object(&self) -> Option<&[(String, JsonValue)]> {
        match self {
            JsonValue::Object(pairs) => Some(pairs),
            _ => None,
        }
    }
}

/// A parse failure with the byte offset it was detected at.
///
/// Callers treat any parse error as a bad document, so the error only
/// needs to be descriptive, not recoverable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonParseError {
    /// Byte offset into the input where parsing failed.
    pub offset: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for JsonParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "JSON parse error at byte {}: {}",
            self.offset, self.message
        )
    }
}

impl std::error::Error for JsonParseError {}

/// Nesting deeper than this is rejected: the documents read here (an
/// export, `BENCHMARK.json`, a result line) are a few levels deep, and a
/// bound keeps a corrupted (or adversarial) file from overflowing the
/// stack through recursion.
const MAX_PARSE_DEPTH: usize = 128;

/// Parses a complete JSON document, rejecting trailing garbage.
pub fn parse(input: &str) -> Result<JsonValue, JsonParseError> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
    };
    p.skip_whitespace();
    let value = p.value(0)?;
    p.skip_whitespace();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters after the document"));
    }
    Ok(value)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, message: &str) -> JsonParseError {
        JsonParseError {
            offset: self.pos,
            message: message.to_string(),
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

    fn expect_byte(&mut self, byte: u8) -> Result<(), JsonParseError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", byte as char)))
        }
    }

    fn literal(&mut self, word: &str, value: JsonValue) -> Result<JsonValue, JsonParseError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected '{word}'")))
        }
    }

    fn value(&mut self, depth: usize) -> Result<JsonValue, JsonParseError> {
        if depth > MAX_PARSE_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        match self.peek() {
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(depth),
            Some(b'"') => Ok(JsonValue::String(self.string()?)),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a value")),
        }
    }

    fn object(&mut self, depth: usize) -> Result<JsonValue, JsonParseError> {
        self.expect_byte(b'{')?;
        let mut pairs = Vec::new();
        self.skip_whitespace();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Object(pairs));
        }
        loop {
            self.skip_whitespace();
            let key = self.string()?;
            self.skip_whitespace();
            self.expect_byte(b':')?;
            self.skip_whitespace();
            let value = self.value(depth + 1)?;
            pairs.push((key, value));
            self.skip_whitespace();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Object(pairs));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn array(&mut self, depth: usize) -> Result<JsonValue, JsonParseError> {
        self.expect_byte(b'[')?;
        let mut items = Vec::new();
        self.skip_whitespace();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Array(items));
        }
        loop {
            self.skip_whitespace();
            items.push(self.value(depth + 1)?);
            self.skip_whitespace();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Array(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn number(&mut self) -> Result<JsonValue, JsonParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let digits_start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.pos == digits_start {
            return Err(self.err("expected digits"));
        }
        if self.pos - digits_start > 1 && self.bytes[digits_start] == b'0' {
            return Err(self.err("leading zeros are not valid JSON"));
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            let frac_start = self.pos;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
            if self.pos == frac_start {
                return Err(self.err("expected fraction digits"));
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            let exp_start = self.pos;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
            if self.pos == exp_start {
                return Err(self.err("expected exponent digits"));
            }
        }
        let raw = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid UTF-8 in number"))?;
        Ok(JsonValue::Number(raw.to_string()))
    }

    fn string(&mut self) -> Result<String, JsonParseError> {
        self.expect_byte(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            // Fast path: run of plain bytes up to the next quote/escape.
            while let Some(b) = self.peek() {
                if b == b'"' || b == b'\\' || b < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            out.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| self.err("invalid UTF-8 in string"))?,
            );
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    self.escape(&mut out)?;
                }
                _ => return Err(self.err("unterminated string")),
            }
        }
    }

    fn escape(&mut self, out: &mut String) -> Result<(), JsonParseError> {
        let Some(b) = self.peek() else {
            return Err(self.err("unterminated escape"));
        };
        self.pos += 1;
        match b {
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
                let code = if (0xD800..0xDC00).contains(&hi) {
                    // Surrogate pair: the low half must follow as \uXXXX.
                    if self.peek() != Some(b'\\') {
                        return Err(self.err("unpaired surrogate"));
                    }
                    self.pos += 1;
                    if self.peek() != Some(b'u') {
                        return Err(self.err("unpaired surrogate"));
                    }
                    self.pos += 1;
                    let lo = self.hex4()?;
                    if !(0xDC00..0xE000).contains(&lo) {
                        return Err(self.err("invalid low surrogate"));
                    }
                    0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                } else {
                    hi
                };
                match char::from_u32(code) {
                    Some(c) => out.push(c),
                    None => return Err(self.err("invalid unicode escape")),
                }
            }
            _ => return Err(self.err("unknown escape")),
        }
        Ok(())
    }

    fn hex4(&mut self) -> Result<u32, JsonParseError> {
        let mut code = 0u32;
        for _ in 0..4 {
            let Some(b) = self.peek() else {
                return Err(self.err("truncated unicode escape"));
            };
            let digit = match b {
                b'0'..=b'9' => u32::from(b - b'0'),
                b'a'..=b'f' => u32::from(b - b'a') + 10,
                b'A'..=b'F' => u32::from(b - b'A') + 10,
                _ => return Err(self.err("invalid hex digit in unicode escape")),
            };
            code = code * 16 + digit;
            self.pos += 1;
        }
        Ok(code)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writes_flat_object() {
        let mut w = JsonWriter::new();
        w.raw("{");
        w.key("a");
        w.uint(1);
        w.key("b");
        w.string("two");
        w.key("c");
        w.float(1.5, 3);
        w.raw("}");
        assert_eq!(w.finish(), r#"{"a":1,"b":"two","c":1.500}"#);
    }

    #[test]
    fn writes_nested_structures_with_correct_commas() {
        let mut w = JsonWriter::new();
        w.raw("{");
        w.key("xs");
        w.raw("[");
        w.uint(1);
        w.uint(2);
        w.raw("]");
        w.end_value();
        w.key("o");
        w.raw("{");
        w.key("k");
        w.int(-3);
        w.raw("}");
        w.end_value();
        w.key("tail");
        w.uint(9);
        w.raw("}");
        assert_eq!(w.finish(), r#"{"xs":[1,2],"o":{"k":-3},"tail":9}"#);
    }

    #[test]
    fn escapes_strings() {
        let mut out = String::new();
        push_json_string(&mut out, "a\"b\\c\nd\u{1}");
        assert_eq!(out, "\"a\\\"b\\\\c\\nd\\u0001\"");
    }

    #[test]
    fn non_finite_floats_become_null() {
        let mut w = JsonWriter::new();
        w.raw("[");
        w.float(f64::NAN, 2);
        w.float(f64::INFINITY, 2);
        w.raw("]");
        assert_eq!(w.finish(), "[null,null]");
    }

    #[test]
    fn parses_what_the_writer_writes() {
        let mut w = JsonWriter::new();
        w.raw("{");
        w.key("digest");
        w.uint(u64::MAX);
        w.key("name");
        w.string("a\"b\\c\nd\u{1}");
        w.key("items");
        w.raw("[");
        w.uint(1);
        w.int(-2);
        w.float(1.5, 3);
        w.raw("]");
        w.end_value();
        w.key("none");
        w.raw("null");
        w.end_value();
        w.raw("}");
        let doc = parse(&w.finish()).unwrap();
        // Full-range u64 survives the round trip bit-exactly.
        assert_eq!(
            doc.get("digest").and_then(JsonValue::as_u64),
            Some(u64::MAX)
        );
        assert_eq!(
            doc.get("name").and_then(JsonValue::as_str),
            Some("a\"b\\c\nd\u{1}")
        );
        let items = doc.get("items").and_then(JsonValue::as_array).unwrap();
        assert_eq!(items[0].as_u64(), Some(1));
        // The parser keeps a number's token as written.
        assert_eq!(items[1], JsonValue::Number("-2".to_string()));
        assert_eq!(items[2], JsonValue::Number("1.500".to_string()));
        assert_eq!(doc.get("none"), Some(&JsonValue::Null));
    }

    #[test]
    fn parses_literals_whitespace_and_nesting() {
        let doc = parse(" { \"a\" : [ true , false , null , { } ] } ").unwrap();
        let a = doc.get("a").and_then(JsonValue::as_array).unwrap();
        assert_eq!(a[0].as_bool(), Some(true));
        assert_eq!(a[1].as_bool(), Some(false));
        assert_eq!(a[2], JsonValue::Null);
        assert_eq!(a[3].as_object(), Some(&[][..]));
    }

    #[test]
    fn parses_unicode_escapes_including_surrogate_pairs() {
        let doc = parse(r#""A😀""#).unwrap();
        assert_eq!(doc.as_str(), Some("A\u{1F600}"));
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\":}",
            "{\"a\":1} extra",
            "\"unterminated",
            "01",
            "1.",
            "1e",
            "tru",
            r#""\ud800x""#,
        ] {
            assert!(parse(bad).is_err(), "accepted malformed input: {bad:?}");
        }
    }

    #[test]
    fn rejects_runaway_nesting() {
        let deep = "[".repeat(200) + &"]".repeat(200);
        assert!(parse(&deep).is_err());
    }
}
