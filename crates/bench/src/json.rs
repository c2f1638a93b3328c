//! A minimal JSON writer/parser for the wire protocol and the
//! benchmark's reports.
//!
//! Both need structured output and read it back; pulling in serde for
//! that would break the workspace's no-crates-io-dependencies rule, so
//! this module implements the small subset required: objects, arrays,
//! strings (with escape handling), finite numbers, booleans, and null.
//!
//! Strings are the bulk of every wire line and journal payload (a
//! journal record's `line` is itself a JSON line, escaped), so both
//! directions copy the runs between escapes whole instead of one
//! character at a time. The parser reads untrusted bytes and recurses
//! once per array or object, so it refuses nesting past [`MAX_DEPTH`].

use std::collections::BTreeMap;
use std::fmt;

/// Deepest nesting of arrays and objects [`Json::parse`] accepts. The
/// parser recurses once per level, so without a bound one line of
/// brackets (20 000 `[` is a 40 KB line) overflows the stack of the
/// thread reading it and aborts the process. No wire line, journal
/// payload or report nests more than a few levels.
pub const MAX_DEPTH: usize = 128;

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
    /// Returns a byte offset and message on malformed input, trailing
    /// garbage, or arrays and objects nested deeper than [`MAX_DEPTH`].
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let mut pos = 0;
        let value = parse_value(text, &mut pos, 0)?;
        skip_ws(text.as_bytes(), &mut pos);
        if pos != text.len() {
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

/// Index of the first byte of `bytes` that is `"`, `\` or below `floor`
/// (`floor` = 0 tests quotes and backslashes only). Tests eight bytes
/// per step: a byte `b` is flagged where `(b - n) & !b & 0x80` is set,
/// which holds for every `b < n` (`n` ≤ 0x80) and can misfire only on a
/// byte above one that truly matches, so the lowest flag is exact.
fn find_special(bytes: &[u8], floor: u8) -> Option<usize> {
    const ONES: u64 = u64::from_le_bytes([1; 8]);
    const HIGH: u64 = ONES * 0x80;
    let below = |w: u64, n: u8| w.wrapping_sub(ONES * u64::from(n)) & !w;
    let mut chunks = bytes.chunks_exact(8);
    let mut base = 0;
    for c in &mut chunks {
        let w = u64::from_le_bytes([c[0], c[1], c[2], c[3], c[4], c[5], c[6], c[7]]);
        let quote = w ^ (ONES * u64::from(b'"'));
        let backslash = w ^ (ONES * u64::from(b'\\'));
        let hits = (below(quote, 1) | below(backslash, 1) | below(w, floor)) & HIGH;
        if hits != 0 {
            return Some(base + hits.trailing_zeros() as usize / 8);
        }
        base += 8;
    }
    chunks
        .remainder()
        .iter()
        .position(|&b| b == b'"' || b == b'\\' || b < floor)
        .map(|i| base + i)
}

/// Writes `s` as a JSON string literal: `"`, `\` and the control
/// characters are escaped, everything else (multi-byte UTF-8 included)
/// is copied through in runs. Every escaped byte is ASCII, so each run
/// starts and ends on a char boundary.
fn write_escaped(out: &mut String, s: &str) {
    out.reserve(s.len() + 2);
    out.push('"');
    let bytes = s.as_bytes();
    let mut run = 0;
    while let Some(n) = find_special(&bytes[run..], 0x20) {
        let i = run + n;
        out.push_str(&s[run..i]);
        run = i + 1;
        match bytes[i] {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            b => {
                let _ = fmt::Write::write_fmt(out, format_args!("\\u{b:04x}"));
            }
        }
    }
    out.push_str(&s[run..]);
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

/// Parses the value at `*pos`, `depth` arrays and objects deep.
fn parse_value(text: &str, pos: &mut usize, depth: usize) -> Result<Json, JsonError> {
    let bytes = text.as_bytes();
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err(JsonError {
            pos: *pos,
            message: "unexpected end of input",
        }),
        Some(b'n') => expect(bytes, pos, "null").map(|()| Json::Null),
        Some(b't') => expect(bytes, pos, "true").map(|()| Json::Bool(true)),
        Some(b'f') => expect(bytes, pos, "false").map(|()| Json::Bool(false)),
        Some(b'"') => parse_string(text, pos).map(Json::Str),
        Some(b'[' | b'{') if depth == MAX_DEPTH => Err(JsonError {
            pos: *pos,
            message: "arrays and objects nested too deep",
        }),
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(text, pos, depth + 1)?);
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
                let key = parse_string(text, pos)?;
                skip_ws(bytes, pos);
                if bytes.get(*pos) != Some(&b':') {
                    return Err(JsonError {
                        pos: *pos,
                        message: "expected ':'",
                    });
                }
                *pos += 1;
                let value = parse_value(text, pos, depth + 1)?;
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

/// Parses the string literal at `*pos`. The run up to the next quote or
/// backslash is copied whole; both are ASCII, and so is every escape, so
/// each run starts and ends on a char boundary of `text`.
fn parse_string(text: &str, pos: &mut usize) -> Result<String, JsonError> {
    let bytes = text.as_bytes();
    if bytes.get(*pos) != Some(&b'"') {
        return Err(JsonError {
            pos: *pos,
            message: "expected string",
        });
    }
    *pos += 1;
    let mut out = String::new();
    loop {
        let run = find_special(&bytes[*pos..], 0).unwrap_or(bytes.len() - *pos);
        out.push_str(&text[*pos..*pos + run]);
        *pos += run;
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
            Some(_) => {
                // A backslash.
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
    use lintra::matrix::rng::SplitMix64;

    /// The escaper as first written, one `char` at a time: the oracle
    /// the run-copying [`write_escaped`] must match byte for byte.
    fn write_escaped_per_char(out: &mut String, s: &str) {
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

    /// The string parser as first written, one UTF-8 scalar at a time:
    /// the oracle for [`parse_string`]'s value, error and end position.
    fn parse_string_per_char(bytes: &[u8], pos: &mut usize) -> Result<String, JsonError> {
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

    /// Pieces of a string under test: plain ASCII, the characters JSON
    /// escapes, control bytes, JSON punctuation, escape look-alikes and
    /// 2-, 3- and 4-byte UTF-8.
    const PIECES: [&str; 30] = [
        "a",
        "Z",
        "0",
        " ",
        "\"",
        "\\",
        "/",
        "\n",
        "\r",
        "\t",
        "\u{0}",
        "\u{8}",
        "\u{c}",
        "\u{1f}",
        "\u{7f}",
        "\\u0041",
        "\\\"",
        "{",
        "}",
        "[",
        "],",
        ":",
        "é",
        "ß",
        "€",
        "中",
        "\u{ffff}",
        "😀",
        "\u{10ffff}",
        "plain ascii run",
    ];

    fn mixed_string(rng: &mut SplitMix64) -> String {
        let len = rng.next_below(24) as usize;
        (0..len)
            .map(|_| PIECES[rng.next_below(PIECES.len() as u64) as usize])
            .collect()
    }

    fn parse_both(text: &str) -> [(Result<String, JsonError>, usize); 2] {
        let (mut new_pos, mut old_pos) = (0, 0);
        let new = parse_string(text, &mut new_pos);
        let old = parse_string_per_char(text.as_bytes(), &mut old_pos);
        [(new, new_pos), (old, old_pos)]
    }

    #[test]
    fn run_copying_strings_match_the_per_char_oracles_and_round_trip() {
        let mut rng = SplitMix64::new(0x0A50_0001);
        for case in 0..4000 {
            let s = mixed_string(&mut rng);
            let mut fast = String::new();
            write_escaped(&mut fast, &s);
            let mut oracle = String::new();
            write_escaped_per_char(&mut oracle, &s);
            assert_eq!(fast, oracle, "case {case}: {s:?}");
            assert_eq!(Json::parse(&fast), Ok(Json::Str(s.clone())), "case {case}");
            let [new, old] = parse_both(&fast);
            assert_eq!(new, old, "case {case}: {fast:?}");
        }
    }

    #[test]
    fn damaged_string_literals_fail_where_the_per_char_parser_did() {
        let mut rng = SplitMix64::new(0x0A50_0002);
        let damage = [
            "\\", "\\u12", "\\u+041", "\\ud83d", "\\x", "\"", "é", "\\u00é",
        ];
        for case in 0..4000 {
            let mut literal = String::new();
            write_escaped(&mut literal, &mixed_string(&mut rng));
            let chars: Vec<char> = literal.chars().collect();
            let at = rng.next_below(chars.len() as u64 + 1) as usize;
            let head: String = chars[..at].iter().collect();
            let tail: String = chars[at..].iter().collect();
            let damaged = match rng.next_below(3) {
                0 => head,
                1 => head + &tail.chars().skip(1).collect::<String>(),
                _ => head + damage[rng.next_below(damage.len() as u64) as usize] + &tail,
            };
            let [new, old] = parse_both(&damaged);
            assert_eq!(new, old, "case {case}: {damaged:?}");
        }
    }

    #[test]
    fn malformed_documents_fail_at_their_pinned_offsets() {
        // (document, error offset, message), as the parser has always
        // reported them.
        let cases: [(&str, usize, &str); 17] = [
            ("", 0, "unexpected end of input"),
            ("{", 1, "expected string"),
            ("[1,", 3, "unexpected end of input"),
            ("{\"a\" 1}", 5, "expected ':'"),
            ("nulle", 4, "trailing characters after document"),
            ("{} {}", 3, "trailing characters after document"),
            ("\"unterminated", 13, "unterminated string"),
            ("\"ab\\q\"", 4, "bad escape"),
            ("\"ab\\", 4, "bad escape"),
            ("\"\\u12\"", 2, "bad \\u escape"),
            ("\"\\ud83d\\ude00\"", 2, "bad \\u escape"),
            ("[1 2]", 3, "expected ',' or ']'"),
            ("{\"a\":1 \"b\":2}", 7, "expected ',' or '}'"),
            ("{\"é\":\"中\", 7}", 13, "expected string"),
            ("[\"é\", tru]", 7, "unexpected token"),
            ("-", 0, "invalid number"),
            ("[\"😀\\", 7, "bad escape"),
        ];
        for (doc, pos, message) in cases {
            assert_eq!(Json::parse(doc), Err(JsonError { pos, message }), "{doc:?}");
        }
    }

    #[test]
    fn nesting_is_bounded_at_max_depth() {
        let nest = |n: usize| "[".repeat(n) + &"]".repeat(n);
        assert!(Json::parse(&nest(MAX_DEPTH)).is_ok());
        let err = Json::parse(&nest(MAX_DEPTH + 1)).unwrap_err();
        assert_eq!(err.pos, MAX_DEPTH);
        let objects = "{\"k\":".repeat(MAX_DEPTH) + "1" + &"}".repeat(MAX_DEPTH);
        assert!(Json::parse(&objects).is_ok());
        // One level more: the innermost `{` is refused where it stands.
        let deeper = format!("[{objects}]");
        let err = Json::parse(&deeper).unwrap_err();
        assert_eq!(err.pos, 1 + (MAX_DEPTH - 1) * "{\"k\":".len());
    }

    #[test]
    fn a_mebibyte_of_open_brackets_is_an_error_not_a_stack_overflow() {
        let deep = "[".repeat(1 << 20);
        // A spawned thread gets the default stack, like a connection's.
        let result = std::thread::spawn(move || Json::parse(&deep))
            .join()
            .expect("the parser must not overflow its stack");
        let err = result.expect_err("unbounded nesting must be refused");
        assert_eq!(err.pos, MAX_DEPTH);
        assert_eq!(err.message, "arrays and objects nested too deep");
    }

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
