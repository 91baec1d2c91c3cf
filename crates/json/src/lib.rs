#![warn(missing_docs)]

//! # eff2-json
//!
//! A minimal JSON value model, parser and writer. The workspace persists a
//! handful of artefacts as JSON — workloads, ground truth, quality curves,
//! index metadata — and the build environment has no crates.io access, so
//! this crate replaces `serde`/`serde_json` for exactly those needs.
//!
//! Numbers are stored as `f64`. Writing uses Rust's shortest-roundtrip
//! float formatting, so every `f32`/`f64`/`u32` value survives a
//! write/parse cycle bit-exactly (integers up to 2^53 are exact).
//! Non-finite numbers are written as `null` and parse back as `f64::NAN`.

#![expect(
    clippy::indexing_slicing,
    reason = "the parser cursor is bounded by the length checks of the tokenizer loop"
)]

use std::fmt;

/// A parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; insertion order is preserved.
    Obj(Vec<(String, Json)>),
}

/// A parse or shape error, with a byte offset for parse errors.
#[derive(Clone, Debug, PartialEq)]
pub struct JsonError {
    /// Human-readable description.
    pub message: String,
    /// Byte offset of the parse failure (0 for shape errors).
    pub offset: usize,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

impl From<JsonError> for std::io::Error {
    fn from(e: JsonError) -> Self {
        std::io::Error::new(std::io::ErrorKind::InvalidData, e)
    }
}

/// Shorthand for fallible JSON operations.
pub type Result<T> = std::result::Result<T, JsonError>;

fn shape_err<T>(message: impl Into<String>) -> Result<T> {
    Err(JsonError {
        message: message.into(),
        offset: 0,
    })
}

impl Json {
    // ----- construction helpers -----

    /// An object from key/value pairs.
    pub fn obj(pairs: Vec<(&str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// A number from anything convertible to `f64`; non-finite values
    /// become `null`.
    pub fn num(v: impl Into<f64>) -> Json {
        let v = v.into();
        if v.is_finite() {
            Json::Num(v)
        } else {
            Json::Null
        }
    }

    /// A number from a `usize` (exact up to 2^53).
    pub fn from_usize(v: usize) -> Json {
        Json::Num(v as f64)
    }

    /// An array of `u32`s.
    pub fn u32_array(vs: &[u32]) -> Json {
        Json::Arr(vs.iter().map(|&v| Json::Num(f64::from(v))).collect())
    }

    /// An array of `f32`s.
    pub fn f32_array(vs: &[f32]) -> Json {
        Json::Arr(vs.iter().map(|&v| Json::num(v)).collect())
    }

    /// An array of `f64`s (non-finite elements become `null`).
    pub fn f64_array(vs: &[f64]) -> Json {
        Json::Arr(vs.iter().map(|&v| Json::num(v)).collect())
    }

    // ----- accessors -----

    /// The value under `key`, for objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value under `key`, or a shape error naming the key.
    pub fn field(&self, key: &str) -> Result<&Json> {
        match self.get(key) {
            Some(v) => Ok(v),
            None => shape_err(format!("missing field `{key}`")),
        }
    }

    /// The elements, for arrays.
    pub fn as_arr(&self) -> Result<&[Json]> {
        match self {
            Json::Arr(items) => Ok(items),
            other => shape_err(format!("expected array, found {}", other.kind())),
        }
    }

    /// The string contents.
    pub fn as_str(&self) -> Result<&str> {
        match self {
            Json::Str(s) => Ok(s),
            other => shape_err(format!("expected string, found {}", other.kind())),
        }
    }

    /// The number as `f64`; `null` reads as `NAN` (the writer's encoding of
    /// non-finite values).
    pub fn as_f64(&self) -> Result<f64> {
        match self {
            Json::Num(v) => Ok(*v),
            Json::Null => Ok(f64::NAN),
            other => shape_err(format!("expected number, found {}", other.kind())),
        }
    }

    /// The number as `f32`.
    pub(crate) fn as_f32(&self) -> Result<f32> {
        self.as_f64().map(|v| v as f32)
    }

    /// The number as a non-negative integer.
    pub fn as_u64(&self) -> Result<u64> {
        let v = self.as_f64()?;
        if v.is_finite() && v >= 0.0 && v.fract() == 0.0 && v <= 2f64.powi(53) {
            Ok(v as u64)
        } else {
            shape_err(format!("expected unsigned integer, found {v}"))
        }
    }

    /// The number as `u32`.
    pub(crate) fn as_u32(&self) -> Result<u32> {
        let v = self.as_u64()?;
        u32::try_from(v).map_err(|_| JsonError {
            message: format!("{v} does not fit in u32"),
            offset: 0,
        })
    }

    /// The number as `usize`.
    pub fn as_usize(&self) -> Result<usize> {
        self.as_u64().map(|v| v as usize)
    }

    /// Decodes an array of `u32`s.
    pub fn to_u32_vec(&self) -> Result<Vec<u32>> {
        self.as_arr()?.iter().map(Json::as_u32).collect()
    }

    /// Decodes an array of `f32`s.
    pub fn to_f32_vec(&self) -> Result<Vec<f32>> {
        self.as_arr()?.iter().map(Json::as_f32).collect()
    }

    /// Decodes an array of `f64`s.
    pub fn to_f64_vec(&self) -> Result<Vec<f64>> {
        self.as_arr()?.iter().map(Json::as_f64).collect()
    }

    /// Decodes an array of `usize`s.
    pub fn to_usize_vec(&self) -> Result<Vec<usize>> {
        self.as_arr()?.iter().map(Json::as_usize).collect()
    }

    fn kind(&self) -> &'static str {
        match self {
            Json::Null => "null",
            Json::Bool(_) => "bool",
            Json::Num(_) => "number",
            Json::Str(_) => "string",
            Json::Arr(_) => "array",
            Json::Obj(_) => "object",
        }
    }

    // ----- writing -----

    /// Appends the compact serialisation to `out`.
    pub fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(v) => write_num(*v, out),
            Json::Str(s) => write_str(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_str(k, out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }

    // ----- parsing -----

    /// Parses one JSON document (trailing whitespace allowed).
    pub fn parse(text: &str) -> Result<Json> {
        let bytes = text.as_bytes();
        let mut pos = 0usize;
        let value = parse_value(bytes, &mut pos, 0)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(JsonError {
                message: "trailing content after document".into(),
                offset: pos,
            });
        }
        Ok(value)
    }
}

/// Compact serialisation (`to_string` comes via `Display`).
impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut out = String::new();
        self.write(&mut out);
        f.write_str(&out)
    }
}

fn write_num(v: f64, out: &mut String) {
    if !v.is_finite() {
        out.push_str("null");
    } else {
        // Rust's Display for floats is shortest-roundtrip; integral values
        // print without a fraction ("3"), which is still valid JSON.
        use fmt::Write;
        let _ = write!(out, "{v}");
    }
}

fn write_str(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                use fmt::Write;
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn parse_err<T>(message: impl Into<String>, offset: usize) -> Result<T> {
    Err(JsonError {
        message: message.into(),
        offset,
    })
}

fn expect_literal(bytes: &[u8], pos: &mut usize, lit: &str) -> Result<()> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(())
    } else {
        parse_err(format!("expected `{lit}`"), *pos)
    }
}

/// How deeply arrays and objects may nest. The parser recurses once per
/// level, so an unbounded document from disk could overflow the stack;
/// every writer in the workspace nests fewer than ten levels.
const MAX_DEPTH: usize = 128;

/// Parses the value at `*pos`, which sits inside `depth` open containers.
fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json> {
    skip_ws(bytes, pos);
    let Some(&b) = bytes.get(*pos) else {
        return parse_err("unexpected end of input", *pos);
    };
    if matches!(b, b'[' | b'{') && depth >= MAX_DEPTH {
        return parse_err(format!("nesting deeper than {MAX_DEPTH} levels"), *pos);
    }
    match b {
        b'n' => expect_literal(bytes, pos, "null").map(|()| Json::Null),
        b't' => expect_literal(bytes, pos, "true").map(|()| Json::Bool(true)),
        b'f' => expect_literal(bytes, pos, "false").map(|()| Json::Bool(false)),
        b'"' => parse_string(bytes, pos).map(Json::Str),
        b'[' => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(bytes, pos, depth + 1)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return parse_err("expected `,` or `]`", *pos),
                }
            }
        }
        b'{' => {
            *pos += 1;
            let mut pairs = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(pairs));
            }
            loop {
                skip_ws(bytes, pos);
                let key = parse_string(bytes, pos)?;
                skip_ws(bytes, pos);
                if bytes.get(*pos) != Some(&b':') {
                    return parse_err("expected `:`", *pos);
                }
                *pos += 1;
                let value = parse_value(bytes, pos, depth + 1)?;
                pairs.push((key, value));
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(pairs));
                    }
                    _ => return parse_err("expected `,` or `}`", *pos),
                }
            }
        }
        b'-' | b'0'..=b'9' => parse_number(bytes, pos),
        other => parse_err(format!("unexpected byte `{}`", other as char), *pos),
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
    {
        *pos += 1;
    }
    let text = std::str::from_utf8(&bytes[start..*pos]).map_err(|_| JsonError {
        message: "invalid utf-8 in number".into(),
        offset: start,
    })?;
    match text.parse::<f64>() {
        Ok(v) => Ok(Json::Num(v)),
        Err(_) => parse_err(format!("invalid number `{text}`"), start),
    }
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String> {
    if bytes.get(*pos) != Some(&b'"') {
        return parse_err("expected string", *pos);
    }
    *pos += 1;
    let mut out = String::new();
    loop {
        let Some(&b) = bytes.get(*pos) else {
            return parse_err("unterminated string", *pos);
        };
        match b {
            b'"' => {
                *pos += 1;
                return Ok(out);
            }
            b'\\' => {
                *pos += 1;
                let Some(&esc) = bytes.get(*pos) else {
                    return parse_err("unterminated escape", *pos);
                };
                *pos += 1;
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
                        let hex = bytes
                            .get(*pos..*pos + 4)
                            .and_then(|h| std::str::from_utf8(h).ok())
                            .and_then(|h| u32::from_str_radix(h, 16).ok());
                        let Some(code) = hex else {
                            return parse_err("invalid \\u escape", *pos);
                        };
                        *pos += 4;
                        // Surrogate pairs: non-BMP characters arrive as two
                        // \u escapes.
                        let c = if (0xD800..0xDC00).contains(&code) {
                            if bytes.get(*pos) == Some(&b'\\') && bytes.get(*pos + 1) == Some(&b'u')
                            {
                                let low = bytes
                                    .get(*pos + 2..*pos + 6)
                                    .and_then(|h| std::str::from_utf8(h).ok())
                                    .and_then(|h| u32::from_str_radix(h, 16).ok());
                                match low {
                                    Some(l) if (0xDC00..0xE000).contains(&l) => {
                                        *pos += 6;
                                        0x10000 + ((code - 0xD800) << 10) + (l - 0xDC00)
                                    }
                                    _ => return parse_err("unpaired surrogate", *pos),
                                }
                            } else {
                                return parse_err("unpaired surrogate", *pos);
                            }
                        } else {
                            code
                        };
                        match char::from_u32(c) {
                            Some(c) => out.push(c),
                            None => return parse_err("invalid unicode escape", *pos),
                        }
                    }
                    other => {
                        return parse_err(format!("invalid escape `\\{}`", other as char), *pos)
                    }
                }
            }
            _ => {
                // Consume one UTF-8 character (the input is a &str, so the
                // bytes are valid UTF-8).
                let rest = std::str::from_utf8(&bytes[*pos..]).map_err(|_| JsonError {
                    message: "invalid utf-8".into(),
                    offset: *pos,
                })?;
                let Some(c) = rest.chars().next() else {
                    return Err(JsonError {
                        message: "invalid utf-8".into(),
                        offset: *pos,
                    });
                };
                out.push(c);
                *pos += c.len_utf8();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_scalars() {
        for text in ["null", "true", "false", "0", "-1.5", "\"hi\""] {
            let v = Json::parse(text).expect("parse");
            assert_eq!(Json::parse(&v.to_string()).expect("reparse"), v);
        }
    }

    #[test]
    fn floats_roundtrip_exactly() {
        for &x in &[0.1f64, 1.0 / 3.0, f64::MAX, f64::MIN_POSITIVE, -0.0, 1e-300] {
            let v = Json::Num(x);
            let back = Json::parse(&v.to_string()).expect("parse");
            assert_eq!(back.as_f64().expect("num").to_bits(), x.to_bits(), "{x}");
        }
    }

    #[test]
    fn f32_values_roundtrip_exactly() {
        for &x in &[0.1f32, 1.0 / 3.0, f32::MAX, f32::MIN_POSITIVE, 1234.5678] {
            let v = Json::num(x);
            let back = Json::parse(&v.to_string()).expect("parse");
            assert_eq!(back.as_f32().expect("num").to_bits(), x.to_bits(), "{x}");
        }
    }

    #[test]
    fn non_finite_becomes_null_and_reads_as_nan() {
        assert_eq!(Json::num(f64::NAN).to_string(), "null");
        assert_eq!(Json::num(f64::INFINITY).to_string(), "null");
        let back = Json::parse("null").expect("parse");
        assert!(back.as_f64().expect("as num").is_nan());
    }

    #[test]
    fn objects_preserve_order_and_lookup() {
        let v = Json::obj(vec![
            ("b", Json::from_usize(1)),
            ("a", Json::Str("x".into())),
        ]);
        let text = v.to_string();
        assert_eq!(text, "{\"b\":1,\"a\":\"x\"}");
        let back = Json::parse(&text).expect("parse");
        assert_eq!(back.field("b").expect("b").as_usize().expect("usize"), 1);
        assert_eq!(back.field("a").expect("a").as_str().expect("str"), "x");
        assert!(back.field("zzz").is_err());
    }

    #[test]
    fn nested_arrays() {
        let v = Json::Arr(vec![Json::u32_array(&[1, 2]), Json::u32_array(&[3])]);
        let back = Json::parse(&v.to_string()).expect("parse");
        let rows: Vec<Vec<u32>> = back
            .as_arr()
            .expect("arr")
            .iter()
            .map(|r| r.to_u32_vec().expect("ids"))
            .collect();
        assert_eq!(rows, vec![vec![1, 2], vec![3]]);
    }

    #[test]
    fn string_escapes() {
        let original = "line\nquote\"slash\\tab\tunicode\u{2603}control\u{1}";
        let v = Json::Str(original.to_string());
        let back = Json::parse(&v.to_string()).expect("parse");
        assert_eq!(back.as_str().expect("str"), original);
        // Escapes produced by other writers parse too.
        let external = r#""aA😀\/""#;
        assert_eq!(
            Json::parse(external).expect("parse").as_str().expect("str"),
            "aA\u{1F600}/"
        );
    }

    #[test]
    fn whitespace_tolerant() {
        let v = Json::parse(" { \"k\" : [ 1 , 2 ] , \"s\" : null } ").expect("parse");
        assert_eq!(
            v.field("k").expect("k").to_u32_vec().expect("ids"),
            vec![1, 2]
        );
    }

    #[test]
    fn rejects_malformed() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\" 1}",
            "tru",
            "1.2.3",
            "[1] extra",
            "\"unterminated",
        ] {
            assert!(Json::parse(bad).is_err(), "{bad} should fail");
        }
    }

    #[test]
    fn rejects_unbounded_nesting() {
        // Deep enough to overflow the stack of a parser that recurses
        // without bound; the bounded one stops at the 129th bracket.
        let err = Json::parse(&"[".repeat(1_000_000)).expect_err("too deep");
        assert_eq!(err.offset, MAX_DEPTH);
        let objects = "{\"a\":".repeat(MAX_DEPTH + 1);
        assert!(Json::parse(&objects).is_err());
        let at_limit = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(Json::parse(&at_limit).is_ok());
    }

    #[test]
    fn integer_guards() {
        assert!(Json::parse("1.5").expect("parse").as_u64().is_err());
        assert!(Json::parse("-2").expect("parse").as_u64().is_err());
        assert!(Json::parse("4294967296").expect("parse").as_u32().is_err());
        assert_eq!(
            Json::parse("4294967295")
                .expect("parse")
                .as_u32()
                .expect("u32"),
            u32::MAX
        );
    }
}
