//! A minimal JSON reader/writer for the trace subsystem.
//!
//! The workspace is zero-dependency by policy, so the JSONL export and
//! its validator cannot use `serde`. This module implements exactly the
//! JSON subset the tracer needs: objects, strings (with the standard
//! escapes), numbers, booleans and null — enough to *emit* trace events
//! and to *parse any* JSON document back for validation, so
//! `trace_report --check` accepts traces produced by other tools too.

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number (parsed as `f64`).
    Num(f64),
    /// A string with escapes resolved.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; key order preserved.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Member lookup on objects (`None` otherwise).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a string slice, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an `f64`, if it is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a `u64`, if it is a non-negative integral number.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= u64::MAX as f64 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The value as an array slice, if it is one.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Renders the value back to compact JSON text.
    ///
    /// The output is deterministic: object member order is preserved as
    /// stored, strings use [`escape`], and numbers use Rust's
    /// shortest-roundtrip `f64` formatting (which is
    /// platform-independent). Non-finite numbers have no JSON spelling
    /// and render as `null` — producers that care should never store
    /// them.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out);
        out
    }

    fn render_into(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) if !n.is_finite() => out.push_str("null"),
            Json::Num(n) => out.push_str(&format!("{n}")),
            Json::Str(s) => {
                out.push('"');
                out.push_str(&escape(s));
                out.push('"');
            }
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.render_into(out);
                }
                out.push(']');
            }
            Json::Obj(members) => {
                out.push('{');
                for (i, (k, v)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('"');
                    out.push_str(&escape(k));
                    out.push_str("\":");
                    v.render_into(out);
                }
                out.push('}');
            }
        }
    }

    /// Renders the value as indented multi-line JSON (two spaces per
    /// level, trailing newline). Deterministic like [`Json::render`].
    pub fn render_pretty(&self) -> String {
        let mut out = String::new();
        self.render_pretty_into(&mut out, 0);
        out.push('\n');
        out
    }

    fn render_pretty_into(&self, out: &mut String, depth: usize) {
        match self {
            Json::Arr(items) if !items.is_empty() => {
                out.push_str("[\n");
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(",\n");
                    }
                    indent(out, depth + 1);
                    item.render_pretty_into(out, depth + 1);
                }
                out.push('\n');
                indent(out, depth);
                out.push(']');
            }
            Json::Obj(members) if !members.is_empty() => {
                out.push_str("{\n");
                for (i, (k, v)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push_str(",\n");
                    }
                    indent(out, depth + 1);
                    out.push('"');
                    out.push_str(&escape(k));
                    out.push_str("\": ");
                    v.render_pretty_into(out, depth + 1);
                }
                out.push('\n');
                indent(out, depth);
                out.push('}');
            }
            other => other.render_into(out),
        }
    }
}

fn indent(out: &mut String, depth: usize) {
    for _ in 0..depth {
        out.push_str("  ");
    }
}

/// Escapes `s` as the *contents* of a JSON string literal (no quotes).
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
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
    out
}

/// The member `key` of `doc`, or a `{path}: missing member` error.
/// Validators thread `path` (`$`, `$.jobs[2]`, …) so every error
/// names the offending JSON path.
///
/// # Errors
/// When `doc` has no member `key`.
pub fn want<'a>(doc: &'a Json, path: &str, key: &str) -> Result<&'a Json, String> {
    doc.get(key)
        .ok_or_else(|| format!("{path}: missing member `{key}`"))
}

/// The number member `key` of `doc` (see [`want`]).
///
/// # Errors
/// When the member is missing or not a number.
pub fn want_num(doc: &Json, path: &str, key: &str) -> Result<f64, String> {
    want(doc, path, key)?
        .as_f64()
        .ok_or_else(|| format!("{path}.{key}: expected a number"))
}

/// The string member `key` of `doc` (see [`want`]).
///
/// # Errors
/// When the member is missing or not a string.
pub fn want_str<'a>(doc: &'a Json, path: &str, key: &str) -> Result<&'a str, String> {
    want(doc, path, key)?
        .as_str()
        .ok_or_else(|| format!("{path}.{key}: expected a string"))
}

/// The array member `key` of `doc` (see [`want`]).
///
/// # Errors
/// When the member is missing or not an array.
pub fn want_arr<'a>(doc: &'a Json, path: &str, key: &str) -> Result<&'a [Json], String> {
    want(doc, path, key)?
        .as_arr()
        .ok_or_else(|| format!("{path}.{key}: expected an array"))
}

/// How deeply arrays and objects may nest. Parsing recurses once per
/// level (and so does dropping the parsed value), so an unbounded
/// depth lets a few hundred kilobytes of `[` overflow the stack; every
/// document this workspace writes nests fewer than ten levels.
pub const MAX_DEPTH: usize = 128;

/// Parses one complete JSON document; trailing whitespace allowed,
/// anything else after the value is an error.
///
/// # Errors
/// A human-readable message with a byte offset on malformed input,
/// including nesting deeper than [`MAX_DEPTH`].
pub fn parse(input: &str) -> Result<Json, String> {
    let bytes = input.as_bytes();
    let mut pos = 0usize;
    let value = parse_value(bytes, &mut pos, 0)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing data at byte {pos}"));
    }
    Ok(value)
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(b: &[u8], pos: &mut usize, c: u8) -> Result<(), String> {
    if *pos < b.len() && b[*pos] == c {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected `{}` at byte {pos}", c as char))
    }
}

fn parse_value(b: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    skip_ws(b, pos);
    match b.get(*pos) {
        None => Err("unexpected end of input".into()),
        Some(b'{' | b'[') if depth >= MAX_DEPTH => Err(format!(
            "nesting deeper than {MAX_DEPTH} levels at byte {pos}"
        )),
        Some(b'{') => parse_object(b, pos, depth + 1),
        Some(b'[') => parse_array(b, pos, depth + 1),
        Some(b'"') => parse_string(b, pos).map(Json::Str),
        Some(b't') => parse_lit(b, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_lit(b, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_lit(b, pos, "null", Json::Null),
        Some(c) if c.is_ascii_digit() || *c == b'-' => parse_number(b, pos),
        Some(c) => Err(format!("unexpected `{}` at byte {pos}", *c as char)),
    }
}

fn parse_lit(b: &[u8], pos: &mut usize, lit: &str, v: Json) -> Result<Json, String> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(v)
    } else {
        Err(format!("invalid literal at byte {pos}"))
    }
}

fn parse_object(b: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    expect(b, pos, b'{')?;
    let mut members = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(members));
    }
    loop {
        skip_ws(b, pos);
        let key = parse_string(b, pos)?;
        skip_ws(b, pos);
        expect(b, pos, b':')?;
        let value = parse_value(b, pos, depth)?;
        members.push((key, value));
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(members));
            }
            _ => return Err(format!("expected `,` or `}}` at byte {pos}")),
        }
    }
}

fn parse_array(b: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    expect(b, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Arr(items));
    }
    loop {
        items.push(parse_value(b, pos, depth)?);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            _ => return Err(format!("expected `,` or `]` at byte {pos}")),
        }
    }
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(b, pos, b'"')?;
    let mut out = String::new();
    loop {
        match b.get(*pos) {
            None => return Err("unterminated string".into()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match b.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{0008}'),
                    Some(b'f') => out.push('\u{000c}'),
                    Some(b'u') => {
                        let hex = b
                            .get(*pos + 1..*pos + 5)
                            .ok_or_else(|| "truncated \\u escape".to_string())?;
                        let hex = std::str::from_utf8(hex).map_err(|_| "bad \\u escape")?;
                        let code =
                            u32::from_str_radix(hex, 16).map_err(|_| "bad \\u escape digits")?;
                        // Surrogates are rejected rather than paired: the
                        // tracer never emits them.
                        let c = char::from_u32(code)
                            .ok_or_else(|| format!("\\u{hex} is not a scalar value"))?;
                        out.push(c);
                        *pos += 4;
                    }
                    _ => return Err(format!("bad escape at byte {pos}")),
                }
                *pos += 1;
            }
            Some(&c) if c < 0x20 => return Err(format!("raw control byte at {pos}")),
            Some(_) => {
                // Consume one UTF-8 code point.
                let s = &b[*pos..];
                let step = match s[0] {
                    c if c < 0x80 => 1,
                    c if (0xc0..0xe0).contains(&c) => 2,
                    c if (0xe0..0xf0).contains(&c) => 3,
                    _ => 4,
                };
                let chunk = s
                    .get(..step)
                    .and_then(|c| std::str::from_utf8(c).ok())
                    .ok_or_else(|| format!("invalid UTF-8 at byte {pos}"))?;
                out.push_str(chunk);
                *pos += step;
            }
        }
    }
}

fn parse_number(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    if b.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while *pos < b.len()
        && (b[*pos].is_ascii_digit() || matches!(b[*pos], b'.' | b'e' | b'E' | b'+' | b'-'))
    {
        *pos += 1;
    }
    let text = std::str::from_utf8(&b[start..*pos]).map_err(|_| "invalid number bytes")?;
    text.parse::<f64>()
        .map(Json::Num)
        .map_err(|_| format!("invalid number `{text}` at byte {start}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_trace_shaped_lines() {
        let line = r#"{"seq":3,"ev":"open","id":2,"parent":1,"name":"csp.solve","t_ns":120,"fields":{"n":"16","budget":"300"}}"#;
        let v = parse(line).expect("parses");
        assert_eq!(v.get("ev").and_then(Json::as_str), Some("open"));
        assert_eq!(v.get("id").and_then(Json::as_u64), Some(2));
        assert_eq!(
            v.get("fields")
                .and_then(|f| f.get("n"))
                .and_then(Json::as_str),
            Some("16")
        );
    }

    #[test]
    fn escape_roundtrips_through_parse() {
        let nasty = "a\"b\\c\nd\te\u{1}f µ";
        let doc = format!("{{\"k\":\"{}\"}}", escape(nasty));
        let v = parse(&doc).expect("parses");
        assert_eq!(v.get("k").and_then(Json::as_str), Some(nasty));
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "{\"a\":}",
            "[1,]",
            "{\"a\":1} trailing",
            "\"unterminated",
            "{'single':1}",
            "nul",
            "{\"a\":--1}",
        ] {
            assert!(parse(bad).is_err(), "accepted: {bad:?}");
        }
    }

    #[test]
    fn deep_nesting_is_an_error_not_a_stack_overflow() {
        let deep = "[".repeat(200_000);
        let err = parse(&deep).unwrap_err();
        assert!(err.contains("nesting deeper than"), "{err}");
        let objects = "{\"a\":".repeat(MAX_DEPTH + 1);
        assert!(parse(&objects).unwrap_err().contains("nesting"));
        // The limit itself still parses.
        let ok = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse(&ok).is_ok());
    }

    #[test]
    fn accessors_name_the_json_path() {
        let doc = parse(r#"{"n":1,"s":"x","a":[]}"#).unwrap();
        assert_eq!(want_num(&doc, "$", "n"), Ok(1.0));
        assert_eq!(want_str(&doc, "$", "s"), Ok("x"));
        assert_eq!(want_arr(&doc, "$", "a").map(<[Json]>::len), Ok(0));
        assert_eq!(
            want(&doc, "$.jobs[0]", "k").unwrap_err(),
            "$.jobs[0]: missing member `k`"
        );
        assert_eq!(
            want_num(&doc, "$", "s").unwrap_err(),
            "$.s: expected a number"
        );
        assert_eq!(
            want_str(&doc, "$", "n").unwrap_err(),
            "$.n: expected a string"
        );
        assert_eq!(
            want_arr(&doc, "$", "n").unwrap_err(),
            "$.n: expected an array"
        );
    }

    #[test]
    fn render_roundtrips_and_is_compact() {
        let doc = r#"{"a":1,"b":[true,null,"x\ny"],"c":{"d":-2.5,"e":1000}}"#;
        let v = parse(doc).expect("parses");
        assert_eq!(v.render(), doc);
        // Round-trip stability: render(parse(render(v))) == render(v).
        let again = parse(&v.render()).expect("reparses");
        assert_eq!(again.render(), v.render());
    }

    #[test]
    fn render_maps_non_finite_to_null() {
        assert_eq!(Json::Num(f64::NAN).render(), "null");
        assert_eq!(Json::Num(f64::INFINITY).render(), "null");
        assert_eq!(Json::Num(0.1 + 0.2).render(), "0.30000000000000004");
    }

    #[test]
    fn render_pretty_parses_back_equal() {
        let v = parse(r#"{"a":[1,2],"b":{},"c":[],"d":{"e":"f"}}"#).unwrap();
        let pretty = v.render_pretty();
        assert!(pretty.ends_with('\n'));
        assert_eq!(parse(&pretty).unwrap(), v);
        assert!(pretty.contains("  \"a\": ["));
    }

    #[test]
    fn numbers_arrays_literals() {
        let v = parse(" [1, -2.5, 1e3, true, false, null] ").expect("parses");
        match v {
            Json::Arr(items) => {
                assert_eq!(items[0].as_f64(), Some(1.0));
                assert_eq!(items[1].as_f64(), Some(-2.5));
                assert_eq!(items[2].as_f64(), Some(1000.0));
                assert_eq!(items[3], Json::Bool(true));
                assert_eq!(items[4], Json::Bool(false));
                assert_eq!(items[5], Json::Null);
            }
            other => panic!("expected array, got {other:?}"),
        }
        assert_eq!(parse("-2.5").unwrap().as_u64(), None);
        assert_eq!(parse("7").unwrap().as_u64(), Some(7));
    }
}
