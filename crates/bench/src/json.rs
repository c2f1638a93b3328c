//! A minimal JSON writer/parser for the wire protocol and the
//! benchmark's reports.
//!
//! Both need structured output and read it back; pulling in serde for
//! that would break the workspace's no-crates-io-dependencies rule, so
//! this module implements the small subset required: objects, arrays,
//! strings (with escape handling), finite numbers, booleans, and null.

use std::collections::BTreeMap;
use std::fmt;

/// A JSON value. Object keys are stored sorted (`BTreeMap`) so rendered
/// reports are deterministic.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A finite number (non-finite values are rendered as `null`, which
    /// keeps the report well-formed even if a timing ratio degenerates).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object with sorted keys.
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// Builds an object from key/value pairs.
    pub fn obj(pairs: impl IntoIterator<Item = (&'static str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Member lookup (`None` for non-objects or missing keys).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(m) => m.get(key),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Json::Num(x) => Some(*x),
            _ => None,
        }
    }

    /// The boolean value, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The string value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// Pretty-prints with two-space indentation and a trailing newline.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    /// Renders on a single line with no whitespace — the NDJSON form used
    /// by the serve wire protocol and the trajectory log, where one value
    /// must occupy exactly one line.
    pub fn render_compact(&self) -> String {
        let mut out = String::new();
        self.write_compact(&mut out);
        out
    }

    fn write_compact(&self, out: &mut String) {
        match self {
            Json::Null | Json::Bool(_) | Json::Num(_) | Json::Str(_) => self.write(out, 0),
            Json::Arr(items) => {
                out.push('[');
                for (k, item) in items.iter().enumerate() {
                    if k > 0 {
                        out.push(',');
                    }
                    item.write_compact(out);
                }
                out.push(']');
            }
            Json::Obj(members) => {
                out.push('{');
                for (k, (key, value)) in members.iter().enumerate() {
                    if k > 0 {
                        out.push(',');
                    }
                    write_escaped(out, key);
                    out.push(':');
                    value.write_compact(out);
                }
                out.push('}');
            }
        }
    }

    fn write(&self, out: &mut String, indent: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(x) => {
                if x.is_finite() {
                    // Shortest round-trip form; integers print bare.
                    if *x == x.trunc() && x.abs() < 1e15 {
                        let _ = fmt::Write::write_fmt(out, format_args!("{}", *x as i64));
                    } else {
                        let _ = fmt::Write::write_fmt(out, format_args!("{x}"));
                    }
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (k, item) in items.iter().enumerate() {
                    if k > 0 {
                        out.push(',');
                    }
                    newline_indent(out, indent + 1);
                    item.write(out, indent + 1);
                }
                newline_indent(out, indent);
                out.push(']');
            }
            Json::Obj(members) => {
                if members.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (k, (key, value)) in members.iter().enumerate() {
                    if k > 0 {
                        out.push(',');
                    }
                    newline_indent(out, indent + 1);
                    write_escaped(out, key);
                    out.push_str(": ");
                    value.write(out, indent + 1);
                }
                newline_indent(out, indent);
                out.push('}');
            }
        }
    }

    /// Parses a complete JSON document.
    ///
    /// # Errors
    ///
    /// Returns a byte offset and message on malformed input or trailing
    /// garbage.
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let bytes = text.as_bytes();
        let mut pos = 0;
        let value = parse_value(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(JsonError {
                pos,
                message: "trailing characters after document",
            });
        }
        Ok(value)
    }
}

fn newline_indent(out: &mut String, indent: usize) {
    out.push('\n');
    for _ in 0..indent {
        out.push_str("  ");
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
            c if (c as u32) < 0x20 => {
                let _ = fmt::Write::write_fmt(out, format_args!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Parse failure: byte offset plus a static message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset of the failure.
    pub pos: usize,
    /// What went wrong.
    pub message: &'static str,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON parse error at byte {}: {}", self.pos, self.message)
    }
}

impl std::error::Error for JsonError {}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, token: &str) -> Result<(), JsonError> {
    if bytes[*pos..].starts_with(token.as_bytes()) {
        *pos += token.len();
        Ok(())
    } else {
        Err(JsonError {
            pos: *pos,
            message: "unexpected token",
        })
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<Json, JsonError> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err(JsonError {
            pos: *pos,
            message: "unexpected end of input",
        }),
        Some(b'n') => expect(bytes, pos, "null").map(|()| Json::Null),
        Some(b't') => expect(bytes, pos, "true").map(|()| Json::Bool(true)),
        Some(b'f') => expect(bytes, pos, "false").map(|()| Json::Bool(false)),
        Some(b'"') => parse_string(bytes, pos).map(Json::Str),
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(bytes, pos)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => {
                        return Err(JsonError {
                            pos: *pos,
                            message: "expected ',' or ']'",
                        })
                    }
                }
            }
        }
        Some(b'{') => {
            *pos += 1;
            let mut members = BTreeMap::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(members));
            }
            loop {
                skip_ws(bytes, pos);
                let key = parse_string(bytes, pos)?;
                skip_ws(bytes, pos);
                if bytes.get(*pos) != Some(&b':') {
                    return Err(JsonError {
                        pos: *pos,
                        message: "expected ':'",
                    });
                }
                *pos += 1;
                let value = parse_value(bytes, pos)?;
                members.insert(key, value);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(members));
                    }
                    _ => {
                        return Err(JsonError {
                            pos: *pos,
                            message: "expected ',' or '}'",
                        })
                    }
                }
            }
        }
        Some(_) => parse_number(bytes, pos),
    }
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, JsonError> {
    if bytes.get(*pos) != Some(&b'"') {
        return Err(JsonError {
            pos: *pos,
            message: "expected string",
        });
    }
    *pos += 1;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => {
                return Err(JsonError {
                    pos: *pos,
                    message: "unterminated string",
                })
            }
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .and_then(|h| std::str::from_utf8(h).ok())
                            .and_then(|h| u32::from_str_radix(h, 16).ok())
                            .and_then(char::from_u32)
                            .ok_or(JsonError {
                                pos: *pos,
                                message: "bad \\u escape",
                            })?;
                        out.push(hex);
                        *pos += 4;
                    }
                    _ => {
                        return Err(JsonError {
                            pos: *pos,
                            message: "bad escape",
                        })
                    }
                }
                *pos += 1;
            }
            Some(_) => {
                // Consume one UTF-8 scalar (input is a &str, so slicing on
                // a char boundary found by scanning is safe).
                let start = *pos;
                *pos += 1;
                while *pos < bytes.len() && (bytes[*pos] & 0xC0) == 0x80 {
                    *pos += 1;
                }
                if let Ok(s) = std::str::from_utf8(&bytes[start..*pos]) {
                    out.push_str(s);
                }
            }
        }
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, JsonError> {
    let start = *pos;
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
    {
        *pos += 1;
    }
    std::str::from_utf8(&bytes[start..*pos])
        .ok()
        .and_then(|s| s.parse::<f64>().ok())
        .map(Json::Num)
        .ok_or(JsonError {
            pos: start,
            message: "invalid number",
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_a_report_shaped_value() {
        let doc = Json::obj([
            ("schema", Json::Str("lintra-bench-trajectory/v1".into())),
            ("cores", Json::Num(4.0)),
            (
                "tables",
                Json::Arr(vec![Json::obj([
                    ("name", Json::Str("table2".into())),
                    ("seq_s", Json::Num(0.125)),
                    ("speedup", Json::Num(2.5)),
                ])]),
            ),
        ]);
        let text = doc.render();
        assert_eq!(Json::parse(&text).unwrap(), doc);
    }

    #[test]
    fn renders_sorted_keys_and_integers_bare() {
        let doc = Json::obj([("b", Json::Num(2.0)), ("a", Json::Num(1.5))]);
        let text = doc.render();
        assert!(text.find("\"a\"").unwrap() < text.find("\"b\"").unwrap());
        assert!(text.contains("\"b\": 2"), "{text}");
        assert!(text.contains("\"a\": 1.5"), "{text}");
    }

    #[test]
    fn escapes_and_unescapes_strings() {
        let doc = Json::Str("line\none \"two\" \\ tab\t".into());
        assert_eq!(Json::parse(&doc.render()).unwrap(), doc);
    }

    #[test]
    fn non_finite_numbers_render_null() {
        assert_eq!(Json::Num(f64::NAN).render().trim(), "null");
        assert_eq!(Json::Num(f64::INFINITY).render().trim(), "null");
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\" 1}",
            "nulle",
            "{} {}",
            "\"unterminated",
        ] {
            assert!(Json::parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn compact_form_is_one_line_and_round_trips() {
        let doc = Json::obj([
            ("id", Json::Str("r1".into())),
            ("nums", Json::Arr(vec![Json::Num(1.0), Json::Num(2.5)])),
            ("nested", Json::obj([("ok", Json::Bool(true))])),
        ]);
        let line = doc.render_compact();
        assert!(!line.contains('\n'), "{line:?}");
        assert!(!line.contains("  "), "{line:?}");
        assert_eq!(Json::parse(&line).unwrap(), doc);
    }

    #[test]
    fn parses_nested_accessors() {
        let v = Json::parse(r#"{"a": {"b": [1, 2.5, "x", true, null]}}"#).unwrap();
        let arr = v
            .get("a")
            .and_then(|a| a.get("b"))
            .and_then(Json::as_arr)
            .unwrap();
        assert_eq!(arr[0].as_num(), Some(1.0));
        assert_eq!(arr[2].as_str(), Some("x"));
        assert_eq!(arr[3], Json::Bool(true));
        assert_eq!(arr[4], Json::Null);
    }
}
