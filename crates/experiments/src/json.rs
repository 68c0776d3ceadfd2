//! Minimal hand-rolled JSON: emission helpers, a recursive-descent parser
//! and a canonical (sorted-key, compact) form.
//!
//! Grown out of the benchmark-snapshot validator and shared by everything
//! in the workspace that speaks JSON without a serde dependency: the
//! snapshot schema check, the audit report emitter and the `dls-serve`
//! request/response codec. The canonical form is what the service hashes
//! for its plan cache and what the round-trip tests pin.

use std::fmt::Write as _;

/// A parsed JSON value. Object fields preserve their source order;
/// [`Json::canonical`] sorts them on output so two objects with the same
/// fields in different order canonicalize identically.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (parsed as `f64`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, as (key, value) pairs in source order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Field lookup on an object; `None` on missing key or non-object.
    pub fn get<'a>(&'a self, key: &str) -> Option<&'a Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    pub fn num(&self) -> Option<f64> {
        match self {
            Json::Num(x) => Some(*x),
            _ => None,
        }
    }

    /// The string value, if this is a string.
    pub fn str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean value, if this is a boolean.
    pub fn bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The fields, if this is an object.
    pub fn obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(fields) => Some(fields),
            _ => None,
        }
    }

    /// True when every number in the document (at any nesting depth) is
    /// finite. JSON has no NaN/infinity literals, but an overflowing
    /// token like `1e999` parses to f64 infinity — callers that feed
    /// parsed numbers into simulation configs use this to reject such
    /// documents wholesale.
    pub fn all_finite(&self) -> bool {
        match self {
            Json::Null | Json::Bool(_) | Json::Str(_) => true,
            Json::Num(x) => x.is_finite(),
            Json::Arr(items) => items.iter().all(Json::all_finite),
            Json::Obj(fields) => fields.iter().all(|(_, v)| v.all_finite()),
        }
    }

    /// Canonical serialization: compact (no whitespace), object keys
    /// sorted lexicographically at every level, numbers in Rust's shortest
    /// round-trip `{}` form. Two semantically equal documents — same
    /// fields, any order, any formatting — canonicalize to the same bytes,
    /// which is what makes this usable as a cache key.
    pub fn canonical(&self) -> String {
        let mut out = String::new();
        self.write_canonical(&mut out);
        out
    }

    fn write_canonical(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(x) => write_num(out, *x),
            Json::Str(s) => write_str(out, s),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write_canonical(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                let mut sorted: Vec<&(String, Json)> = fields.iter().collect();
                sorted.sort_by(|a, b| a.0.cmp(&b.0));
                out.push('{');
                for (i, (k, v)) in sorted.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_str(out, k);
                    out.push(':');
                    v.write_canonical(out);
                }
                out.push('}');
            }
        }
    }
}

/// Escape a string for embedding between JSON quotes.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    escape_into(&mut out, s);
    out
}

/// Render a number as a JSON token.
pub fn json_num(x: f64) -> String {
    let mut out = String::new();
    write_num(&mut out, x);
    out
}

/// Append `s`, escaped, to `out`. Runs of characters that need no escape
/// are copied in one step.
fn escape_into(out: &mut String, s: &str) {
    let mut plain = 0;
    for (i, b) in s.bytes().enumerate() {
        if b >= 0x20 && b != b'"' && b != b'\\' {
            continue;
        }
        // Every escaped byte is ASCII, so `plain..i` ends on a character
        // boundary.
        out.push_str(&s[plain..i]);
        match b {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            _ => {
                let _ = write!(out, "\\u{b:04x}");
            }
        }
        plain = i + 1;
    }
    out.push_str(&s[plain..]);
}

/// Append a quoted, escaped string to `out`.
fn write_str(out: &mut String, s: &str) {
    out.push('"');
    escape_into(out, s);
    out.push('"');
}

/// Append a number token to `out`: Rust's shortest round-trip `{}` form
/// for a finite number, `null` otherwise. Every number in
/// [`Json::canonical`]'s output, and in any text that must match it byte
/// for byte, goes through this one writer.
pub fn write_num(out: &mut String, x: f64) {
    if x.is_finite() {
        let _ = write!(out, "{x}");
    } else {
        // NaN/inf are not JSON. Emit `null` so a schema validator — which
        // requires every schema number to be finite — rejects the document,
        // rather than a finite sentinel that would sail through unnoticed.
        out.push_str("null");
    }
}

/// Append `head` (the punctuation and key before a value), then the
/// number `x` through [`write_num`].
pub fn put_num(out: &mut String, head: &str, x: f64) {
    out.push_str(head);
    write_num(out, x);
}

/// [`put_num`] for an optional number: `null` when absent.
pub fn put_opt(out: &mut String, head: &str, x: Option<f64>) {
    out.push_str(head);
    match x {
        Some(v) => write_num(out, v),
        None => out.push_str("null"),
    }
}

/// [`put_num`] for an integer, written exactly: a `u64` above 2^53 has
/// no exact `f64`.
pub fn put_int(out: &mut String, head: &str, n: u64) {
    out.push_str(head);
    let _ = write!(out, "{n}");
}

/// [`put_num`] for a boolean.
pub fn put_bool(out: &mut String, head: &str, b: bool) {
    out.push_str(head);
    out.push_str(if b { "true" } else { "false" });
}

/// [`put_num`] for a string, quoted and escaped.
pub fn put_str(out: &mut String, head: &str, s: &str) {
    out.push_str(head);
    write_str(out, s);
}

struct Parser<'a> {
    src: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn new(src: &'a str) -> Self {
        Parser {
            src,
            bytes: src.as_bytes(),
            pos: 0,
        }
    }

    fn error(&self, msg: &str) -> String {
        format!("json parse error at byte {}: {msg}", self.pos)
    }

    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| matches!(b, b' ' | b'\t' | b'\n' | b'\r'))
        {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(&format!("expected '{}'", b as char)))
        }
    }

    fn parse_value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.parse_object(),
            Some(b'[') => self.parse_array(),
            Some(b'"') => Ok(Json::Str(self.parse_string()?)),
            Some(b't') => self.parse_lit("true", Json::Bool(true)),
            Some(b'f') => self.parse_lit("false", Json::Bool(false)),
            Some(b'n') => self.parse_lit("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.parse_number(),
            _ => Err(self.error("expected a value")),
        }
    }

    fn parse_lit(&mut self, lit: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(value)
        } else {
            Err(self.error(&format!("expected '{lit}'")))
        }
    }

    fn parse_number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        while self
            .peek()
            .is_some_and(|b| matches!(b, b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9'))
        {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("digits are ascii");
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| self.error("bad number"))
    }

    fn parse_string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // Copy the plain run up to the next quote or backslash in one
            // step. Both are ASCII, so the run ends on a character boundary
            // of the (already valid UTF-8) source.
            let run = self.bytes[self.pos..]
                .iter()
                .position(|&b| b == b'"' || b == b'\\')
                .unwrap_or(self.bytes.len() - self.pos);
            out.push_str(&self.src[self.pos..self.pos + run]);
            self.pos += run;
            match self.peek() {
                None => return Err(self.error("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(_) => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => out.push(self.parse_unicode_escape()?),
                        _ => return Err(self.error("bad escape")),
                    }
                    self.pos += 1;
                }
            }
        }
    }

    /// Decode the `\uXXXX` escape whose `u` is at `pos`, leaving `pos` on
    /// its last hex digit. A high surrogate followed by a low-surrogate
    /// escape decodes to the one character the pair encodes (RFC 8259
    /// §7); a lone surrogate decodes to U+FFFD.
    fn parse_unicode_escape(&mut self) -> Result<char, String> {
        let code = self.hex4(self.pos + 1)?;
        self.pos += 4;
        if (0xD800..0xDC00).contains(&code) && self.bytes[self.pos + 1..].starts_with(b"\\u") {
            if let Ok(low @ 0xDC00..=0xDFFF) = self.hex4(self.pos + 3) {
                self.pos += 6;
                let pair = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
                return Ok(char::from_u32(pair).expect("a surrogate pair is a scalar value"));
            }
        }
        Ok(char::from_u32(code).unwrap_or('\u{fffd}'))
    }

    /// The four hex digits starting at byte `at`.
    fn hex4(&self, at: usize) -> Result<u32, String> {
        let hex = self
            .bytes
            .get(at..at + 4)
            .ok_or_else(|| self.error("truncated \\u escape"))?;
        std::str::from_utf8(hex)
            .ok()
            .and_then(|h| u32::from_str_radix(h, 16).ok())
            .ok_or_else(|| self.error("bad \\u escape"))
    }

    fn parse_array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.parse_value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.error("expected ',' or ']'")),
            }
        }
    }

    fn parse_object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.parse_string()?;
            self.skip_ws();
            self.expect(b':')?;
            let value = self.parse_value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(self.error("expected ',' or '}'")),
            }
        }
    }
}

/// Parse a complete JSON document (trailing garbage is an error).
pub fn parse_json(s: &str) -> Result<Json, String> {
    let mut p = Parser::new(s);
    let v = p.parse_value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.error("trailing garbage"));
    }
    Ok(v)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_round_trip() {
        let doc = r#" {"b": [1, 2.5, -3e2], "a": {"x": null, "y": true}, "s": "h\ni"} "#;
        let v = parse_json(doc).unwrap();
        assert_eq!(v.get("b").unwrap().arr().unwrap().len(), 3);
        assert_eq!(v.get("a").unwrap().get("y").unwrap().bool(), Some(true));
        assert_eq!(v.get("s").unwrap().str(), Some("h\ni"));
    }

    #[test]
    fn canonical_sorts_keys_and_compacts() {
        let a = parse_json(r#"{"b": 1, "a": {"z": 2, "y": [1, 2]}}"#).unwrap();
        let b = parse_json(r#"{ "a": {"y": [1,2], "z": 2}, "b": 1 }"#).unwrap();
        assert_eq!(a.canonical(), b.canonical());
        assert_eq!(a.canonical(), r#"{"a":{"y":[1,2],"z":2},"b":1}"#);
    }

    #[test]
    fn canonical_is_a_fixed_point() {
        let v = parse_json(r#"{"n": -0.125, "s": "q\"uote", "e": {}}"#).unwrap();
        let c = v.canonical();
        assert_eq!(parse_json(&c).unwrap().canonical(), c);
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse_json("{").is_err());
        assert!(parse_json("1 2").is_err());
        assert!(parse_json("{'a': 1}").is_err());
        assert!(parse_json("").is_err());
    }

    #[test]
    fn all_finite_walks_every_depth() {
        assert!(parse_json(r#"{"a": [1, {"b": 2.5}], "c": null}"#)
            .unwrap()
            .all_finite());
        // 1e999 overflows to infinity during parsing.
        assert!(!parse_json(r#"{"a": [1, {"b": 1e999}]}"#)
            .unwrap()
            .all_finite());
        assert!(!parse_json("[[[-1e999]]]").unwrap().all_finite());
    }

    #[test]
    fn non_finite_numbers_emit_null() {
        assert_eq!(json_num(f64::NAN), "null");
        assert_eq!(json_num(f64::INFINITY), "null");
        assert_eq!(json_num(0.5), "0.5");
    }

    #[test]
    fn put_helpers_write_head_then_value() {
        let mut out = String::new();
        put_num(&mut out, "{\"a\":", 0.5);
        put_opt(&mut out, ",\"b\":", None);
        put_opt(&mut out, ",\"c\":", Some(-0.0));
        put_int(&mut out, ",\"d\":", u64::MAX);
        put_bool(&mut out, ",\"e\":", true);
        put_str(&mut out, ",\"f\":", "x\"y\n");
        out.push('}');
        assert_eq!(
            out,
            "{\"a\":0.5,\"b\":null,\"c\":-0,\"d\":18446744073709551615,\"e\":true,\"f\":\"x\\\"y\\n\"}"
        );
        assert_eq!(
            parse_json(&out).unwrap().get("f").unwrap().str(),
            Some("x\"y\n")
        );
    }

    /// The `\uXXXX` escapes of some UTF-16 code units.
    fn escapes(units: &[u16]) -> String {
        units.iter().map(|u| format!("\\u{u:04x}")).collect()
    }

    /// A JSON string literal made of `\uXXXX` escapes only.
    fn quoted(units: &[u16]) -> String {
        format!("\"{}\"", escapes(units))
    }

    fn string(doc: &str) -> String {
        match parse_json(doc) {
            Ok(Json::Str(s)) => s,
            other => panic!("{doc}: {other:?}"),
        }
    }

    #[test]
    fn multi_byte_runs_round_trip_around_escapes() {
        let doc = r#""héllo\"wörld\\ünï\n€𝄞\"π""#;
        let s = string(doc);
        assert_eq!(s, "héllo\"wörld\\ünï\n€𝄞\"π");
        // The writer re-escapes exactly what the parser unescaped.
        assert_eq!(Json::Str(s).canonical(), doc);
        assert_eq!(string(r#""€""#), "€");
        assert_eq!(string(r#""""#), "");
        assert_eq!(string(r#""\"\\""#), "\"\\");
    }

    #[test]
    fn surrogate_pairs_decode_to_one_character() {
        assert_eq!(string(&quoted(&[0xd83d, 0xde00])), "\u{1F600}");
        assert_eq!(
            string(&format!("\"a{}b\"", escapes(&[0xd834, 0xdd1e]))),
            "a\u{1D11E}b"
        );
    }

    #[test]
    fn lone_surrogates_decode_to_the_replacement_character() {
        assert_eq!(string(r#""\ud83d""#), "\u{fffd}");
        assert_eq!(string(r#""\ude00x""#), "\u{fffd}x");
        // A high surrogate followed by anything but a low-surrogate escape
        // stands alone; the next escape decodes on its own.
        assert_eq!(string(r#""\ud83dA""#), "\u{fffd}A");
        assert_eq!(
            string(&quoted(&[0xd83d, 0xd83d, 0xde00])),
            "\u{fffd}\u{1F600}"
        );
        assert_eq!(string(r#""\ud83d\n""#), "\u{fffd}\n");
    }

    #[test]
    fn malformed_strings_are_rejected() {
        for doc in [
            r#""abc"#,
            r#""é"#,
            r#""abc\"#,
            r#""a\x""#,
            r#""\u12""#,
            r#""\u12g4""#,
            r#""\ud83d\uzzzz""#,
            r#"{"k\q": 1}"#,
        ] {
            assert!(parse_json(doc).is_err(), "{doc} must be rejected");
        }
    }

    #[test]
    fn canonical_form_of_non_ascii_text_is_a_fixed_point() {
        let v = parse_json(
            "{\"ζ\": \"ü\\u00e9\\ud83d\\ude00\", \"a\\tb\": [\"€\\u0001\"], \"é\": {\"🦀\": \"x\\\"y\"}}",
        )
        .unwrap();
        let c = v.canonical();
        assert_eq!(
            c,
            "{\"a\\tb\":[\"€\\u0001\"],\"é\":{\"🦀\":\"x\\\"y\"},\"ζ\":\"üé😀\"}"
        );
        assert_eq!(parse_json(&c).unwrap().canonical(), c);
    }
}
