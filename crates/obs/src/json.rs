//! A minimal JSON value tree and serialiser/parser.
//!
//! The build environment has no registry access, so no serde: [`Json`]
//! is hand-rolled. Object members keep insertion order, which makes the
//! serialised output fully deterministic — the same input structure
//! produces byte-identical text on every run and at any worker count.
//!
//! [`Json::parse`] is a small recursive-descent parser used by the
//! validation tests and the CI observability job to check that emitted
//! documents (result sinks, Perfetto traces, the perf-trajectory
//! baseline) are well-formed and carry the expected structure. It is
//! not a general-purpose JSON library: numbers parse into `Int`/`UInt`
//! when they are integral and `Num` otherwise, and `\uXXXX` escapes
//! outside the basic multilingual plane are rejected unless they form a
//! valid surrogate pair.

use std::fmt;

/// A JSON value. Object members keep insertion order.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Int(i64),
    UInt(u64),
    /// Finite floats only; non-finite values serialise as `null`.
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Builds an object from `(key, value)` pairs, preserving order.
    pub fn obj(members: Vec<(&str, Json)>) -> Json {
        Json::Obj(members.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Serialises the value as pretty-printed JSON (2-space indent,
    /// trailing newline at the document level is the caller's choice).
    pub fn to_string_pretty(&self) -> String {
        let mut out = String::new();
        self.render(&mut out, 0);
        out
    }

    /// Object member lookup (first match; `None` on non-objects).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value at a `.`-separated path of object keys and array
    /// indices, for editing in place.
    pub fn path_mut(&mut self, path: &str) -> Option<&mut Json> {
        path.split('.').try_fold(self, |node, key| match node {
            Json::Obj(members) => members.iter_mut().find(|(k, _)| k == key).map(|(_, v)| v),
            Json::Arr(items) => items.get_mut(key.parse::<usize>().ok()?),
            _ => None,
        })
    }

    /// The member `key` read through `read` (`Json::as_u64`,
    /// `Json::as_str`, `Json::as_arr`, or `Some` for any value), or an
    /// error naming the key — how validators read required members.
    pub fn req<'a, T>(
        &'a self,
        key: &str,
        read: impl FnOnce(&'a Json) -> Option<T>,
    ) -> Result<T, String> {
        self.get(key)
            .and_then(read)
            .ok_or_else(|| format!("missing or mistyped {key:?}"))
    }

    /// The value as a `u64` if it is an integral number.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::UInt(u) => Some(*u),
            Json::Int(i) => u64::try_from(*i).ok(),
            Json::Num(x) if x.fract() == 0.0 && *x >= 0.0 && *x <= u64::MAX as f64 => {
                Some(*x as u64)
            }
            _ => None,
        }
    }

    /// The value as an `f64` if it is any number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(x) => Some(*x),
            Json::UInt(u) => Some(*u as f64),
            Json::Int(i) => Some(*i as f64),
            _ => None,
        }
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Parses a JSON document. Rejects trailing garbage, duplicate
    /// object keys (a duplicate silently shadows its twin in most
    /// readers — in a determinism-audited result sink that is always a
    /// producer bug), and nesting deeper than [`MAX_PARSE_DEPTH`] (the
    /// recursive-descent parser would otherwise overflow the stack on
    /// adversarial input like `[[[[…`).
    pub fn parse(text: &str) -> Result<Json, ParseError> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after document"));
        }
        Ok(v)
    }

    fn render(&self, out: &mut String, depth: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(i) => out.push_str(&i.to_string()),
            Json::UInt(u) => out.push_str(&u.to_string()),
            Json::Num(x) => {
                if x.is_finite() {
                    // f64 Display is the shortest round-trip decimal,
                    // which is valid JSON ("1", "0.04", "22.47").
                    out.push_str(&x.to_string());
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => render_string(s, out),
            Json::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline_indent(out, depth + 1);
                    item.render(out, depth + 1);
                }
                newline_indent(out, depth);
                out.push(']');
            }
            Json::Obj(members) => {
                if members.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (key, value)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline_indent(out, depth + 1);
                    render_string(key, out);
                    out.push_str(": ");
                    value.render(out, depth + 1);
                }
                newline_indent(out, depth);
                out.push('}');
            }
        }
    }
}

impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.to_string())
    }
}

impl From<String> for Json {
    fn from(s: String) -> Json {
        Json::Str(s)
    }
}

impl From<u64> for Json {
    fn from(u: u64) -> Json {
        Json::UInt(u)
    }
}

impl From<f64> for Json {
    fn from(x: f64) -> Json {
        Json::Num(x)
    }
}

impl From<bool> for Json {
    fn from(b: bool) -> Json {
        Json::Bool(b)
    }
}

fn newline_indent(out: &mut String, depth: usize) {
    out.push('\n');
    for _ in 0..depth {
        out.push_str("  ");
    }
}

fn render_string(s: &str, out: &mut String) {
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

/// Parse failure: byte offset plus message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset of the failure in the input.
    pub offset: usize,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON parse error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for ParseError {}

/// Maximum container nesting [`Json::parse`] accepts. Far above any
/// document this repository emits (deepest is ~6), far below the stack
/// budget of the recursive-descent parser.
pub const MAX_PARSE_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: &str) -> ParseError {
        ParseError {
            offset: self.pos,
            message: msg.to_string(),
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

    fn expect(&mut self, b: u8) -> Result<(), ParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected {:?}", b as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, ParseError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected {word:?}")))
        }
    }

    fn value(&mut self) -> Result<Json, ParseError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(c) => Err(self.err(&format!("unexpected character {:?}", c as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn enter(&mut self) -> Result<(), ParseError> {
        self.depth += 1;
        if self.depth > MAX_PARSE_DEPTH {
            return Err(self.err("nesting exceeds depth limit"));
        }
        Ok(())
    }

    fn array(&mut self) -> Result<Json, ParseError> {
        self.enter()?;
        let r = self.array_body();
        self.depth -= 1;
        r
    }

    fn array_body(&mut self) -> Result<Json, ParseError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, ParseError> {
        self.enter()?;
        let r = self.object_body();
        self.depth -= 1;
        r
    }

    fn object_body(&mut self) -> Result<Json, ParseError> {
        self.expect(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            if members.iter().any(|(k, _)| *k == key) {
                return Err(self.err(&format!("duplicate object key {key:?}")));
            }
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            members.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(members));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.expect(b'"')?;
        let mut s = String::new();
        loop {
            let start = self.pos;
            // Fast path: consume a run of plain UTF-8 bytes.
            while matches!(self.peek(), Some(c) if c != b'"' && c != b'\\' && c >= 0x20) {
                self.pos += 1;
            }
            s.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| self.err("invalid UTF-8 in string"))?,
            );
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(s);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => s.push('"'),
                        Some(b'\\') => s.push('\\'),
                        Some(b'/') => s.push('/'),
                        Some(b'b') => s.push('\u{8}'),
                        Some(b'f') => s.push('\u{c}'),
                        Some(b'n') => s.push('\n'),
                        Some(b'r') => s.push('\r'),
                        Some(b't') => s.push('\t'),
                        Some(b'u') => {
                            self.pos += 1;
                            let hi = self.hex4()?;
                            let c = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair: require the low half.
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
                                let code =
                                    0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                                char::from_u32(code)
                                    .ok_or_else(|| self.err("invalid code point"))?
                            } else {
                                char::from_u32(hi)
                                    .ok_or_else(|| self.err("invalid code point"))?
                            };
                            s.push(c);
                            continue; // hex4 advanced past the escape
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                    self.pos += 1;
                }
                _ => return Err(self.err("unterminated string")),
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, ParseError> {
        if self.pos + 4 > self.bytes.len() {
            return Err(self.err("truncated \\u escape"));
        }
        let hex = std::str::from_utf8(&self.bytes[self.pos..self.pos + 4])
            .map_err(|_| self.err("invalid \\u escape"))?;
        let v = u32::from_str_radix(hex, 16).map_err(|_| self.err("invalid \\u escape"))?;
        self.pos += 4;
        Ok(v)
    }

    fn number(&mut self) -> Result<Json, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
        let mut is_float = false;
        if self.peek() == Some(b'.') {
            is_float = true;
            self.pos += 1;
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            is_float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid number"))?;
        if !is_float {
            if let Ok(u) = text.parse::<u64>() {
                return Ok(Json::UInt(u));
            }
            if let Ok(i) = text.parse::<i64>() {
                return Ok(Json::Int(i));
            }
        }
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| self.err("invalid number"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rendering_is_deterministic_and_escaped() {
        let doc = Json::obj(vec![
            ("b", Json::Int(-3)),
            ("a", Json::from(1.5)),
            ("nan", Json::Num(f64::NAN)),
            ("s", Json::from("a\"b\\c\nd\u{1}")),
            ("arr", Json::Arr(vec![Json::Null, Json::Bool(true)])),
            ("empty", Json::obj(vec![])),
        ]);
        let text = doc.to_string_pretty();
        // Insertion order preserved ("b" before "a"), NaN → null.
        assert!(text.find("\"b\"").unwrap() < text.find("\"a\"").unwrap());
        assert!(text.contains("\"nan\": null"));
        assert!(text.contains(r#""a\"b\\c\nd\u0001""#));
        assert!(text.contains("\"empty\": {}"));
        assert_eq!(text, doc.to_string_pretty());
    }

    #[test]
    fn floats_render_as_json_numbers() {
        assert_eq!(Json::Num(1.0).to_string_pretty(), "1");
        assert_eq!(Json::Num(0.04).to_string_pretty(), "0.04");
        assert_eq!(Json::Num(-2.5).to_string_pretty(), "-2.5");
        assert_eq!(Json::Num(f64::INFINITY).to_string_pretty(), "null");
        assert_eq!(Json::UInt(u64::MAX).to_string_pretty(), u64::MAX.to_string());
    }

    #[test]
    fn parse_round_trips_rendered_documents() {
        let doc = Json::obj(vec![
            ("experiment", Json::from("fig7")),
            ("filter", Json::Null),
            ("n", Json::UInt(97112)),
            ("neg", Json::Int(-12)),
            ("pct", Json::Num(22.47)),
            ("ok", Json::Bool(true)),
            (
                "rows",
                Json::Arr(vec![
                    Json::obj(vec![("name", Json::from("bzip2"))]),
                    Json::obj(vec![("name", Json::from("a\"b\\c\nd"))]),
                ]),
            ),
            ("empty_arr", Json::Arr(vec![])),
            ("empty_obj", Json::obj(vec![])),
        ]);
        let text = doc.to_string_pretty();
        let parsed = Json::parse(&text).expect("round trip");
        assert_eq!(parsed, doc);
    }

    #[test]
    fn parse_accepts_escapes_and_unicode() {
        let v = Json::parse(r#"{"s": "café 😀 \t"}"#).unwrap();
        assert_eq!(v.get("s").unwrap().as_str().unwrap(), "café 😀 \t");
    }

    #[test]
    fn parse_rejects_malformed_documents() {
        for bad in [
            "", "{", "[1,", "{\"a\" 1}", "{\"a\": 1} x", "nul", "\"abc", "01a",
            r#"{"s": "\ud800"}"#,
        ] {
            assert!(Json::parse(bad).is_err(), "should reject {bad:?}");
        }
    }

    #[test]
    fn parse_rejects_truncated_documents_at_every_prefix() {
        // Every proper prefix of a valid document must fail cleanly
        // (error, not panic) — the truncated-input error paths.
        let full = r#"{"a": [1, -2.5, "x\n", {"b": null}], "c": true}"#;
        for end in 0..full.len() {
            let prefix = &full[..end];
            if !prefix.is_char_boundary(end) {
                continue;
            }
            assert!(Json::parse(prefix).is_err(), "prefix {prefix:?} must fail");
        }
        assert!(Json::parse(full).is_ok());
    }

    #[test]
    fn parse_rejects_duplicate_object_keys() {
        let err = Json::parse(r#"{"a": 1, "a": 2}"#).unwrap_err();
        assert!(err.message.contains("duplicate"), "{err}");
        // Nested objects are checked too.
        assert!(Json::parse(r#"{"o": {"x": 1, "x": 1}}"#).is_err());
        // Same key at different depths is fine.
        assert!(Json::parse(r#"{"a": {"a": 1}}"#).is_ok());
        // Duplicates after the colon value are caught before parsing on.
        assert!(Json::parse(r#"{"k": [1], "k": [2]}"#).is_err());
    }

    #[test]
    fn parse_enforces_the_depth_limit() {
        // Exactly at the limit parses; one deeper fails with an error
        // (not a stack overflow).
        let at = "[".repeat(MAX_PARSE_DEPTH) + &"]".repeat(MAX_PARSE_DEPTH);
        assert!(Json::parse(&at).is_ok());
        let over = format!("[{at}]");
        let err = Json::parse(&over).unwrap_err();
        assert!(err.message.contains("depth"), "{err}");
        // Mixed object/array nesting counts every container level.
        let mixed_over = "{\"k\":[".repeat(MAX_PARSE_DEPTH / 2 + 1);
        assert!(Json::parse(&mixed_over).is_err());
        // A deep but wide document under the limit still parses.
        let wide = format!(
            "[{}]",
            (0..200).map(|i| i.to_string()).collect::<Vec<_>>().join(",")
        );
        assert!(Json::parse(&wide).is_ok());
    }

    #[test]
    fn accessors_navigate_parsed_documents() {
        let v = Json::parse(r#"{"a": {"b": [1, 2.5, "x"]}}"#).unwrap();
        let arr = v.get("a").unwrap().get("b").unwrap().as_arr().unwrap();
        assert_eq!(arr[0].as_u64(), Some(1));
        assert_eq!(arr[1].as_f64(), Some(2.5));
        assert_eq!(arr[2].as_str(), Some("x"));
        assert_eq!(v.get("missing"), None);
        assert_eq!(arr[2].as_u64(), None);
    }
}
