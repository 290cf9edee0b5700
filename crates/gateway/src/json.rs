//! The one JSON writer and the one JSON reader, side by side.
//!
//! [`escape`] is the string encoder every response body, `--json` output
//! and log line goes through; [`JsonLine`] builds the flat one-line
//! objects of the stderr sinks and the crash-dump format on top of it;
//! [`parse_flat_json`] reads exactly those lines back (`moara-cli
//! postmortem`). A property test holds the two to each other.

use std::fmt::Write as _;

/// Renders `s` as a JSON string literal, quotes included.
///
/// Escapes quotes, backslashes, the common whitespace escapes (`\n`,
/// `\r`, `\t`), and all other control characters as `\u00XX`. Non-ASCII
/// characters pass through verbatim (JSON is UTF-8; no `\u` round-trip
/// needed).
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
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Builder for one flat JSON object rendered on a single line — the
/// shared writer behind every stderr log sink (access log, slow-query
/// lines, alert transitions) and the crash-dump format, so they all
/// escape identically and stay machine-parsable.
///
/// Keys are written verbatim: callers pass identifier-like literals
/// (`"ts_ms"`, `"path"`), never untrusted input. Values go through
/// [`escape`] (strings) or plain `Display` (numbers, bools).
pub struct JsonLine {
    buf: String,
}

impl JsonLine {
    pub fn new() -> JsonLine {
        JsonLine {
            buf: String::with_capacity(128),
        }
    }

    fn key(&mut self, k: &str) {
        self.buf.push(if self.buf.is_empty() { '{' } else { ',' });
        self.buf.push('"');
        self.buf.push_str(k);
        self.buf.push_str("\":");
    }

    /// An escaped string field.
    pub fn str(mut self, k: &str, v: &str) -> JsonLine {
        self.key(k);
        self.buf.push_str(&escape(v));
        self
    }

    /// An unsigned integer field.
    pub fn u64(mut self, k: &str, v: u64) -> JsonLine {
        self.key(k);
        let _ = write!(self.buf, "{v}");
        self
    }

    /// A float field, rendered via `Display` (so `1.0` prints as `1`,
    /// matching the historical hand-rolled alert lines). JSON has no
    /// `NaN` or `inf`: a non-finite value is written as `null`.
    pub fn f64(mut self, k: &str, v: f64) -> JsonLine {
        self.key(k);
        if v.is_finite() {
            let _ = write!(self.buf, "{v}");
        } else {
            self.buf.push_str("null");
        }
        self
    }

    /// A boolean field.
    pub fn bool(mut self, k: &str, v: bool) -> JsonLine {
        self.key(k);
        self.buf.push_str(if v { "true" } else { "false" });
        self
    }

    /// A pre-rendered JSON value (already valid JSON — caller's duty).
    pub fn raw(mut self, k: &str, v: &str) -> JsonLine {
        self.key(k);
        self.buf.push_str(v);
        self
    }

    /// The finished `{...}` line (no trailing newline).
    pub fn finish(mut self) -> String {
        if self.buf.is_empty() {
            self.buf.push('{');
        }
        self.buf.push('}');
        self.buf
    }
}

impl Default for JsonLine {
    fn default() -> Self {
        JsonLine::new()
    }
}

/// One value of a flat JSON line.
#[derive(Clone, Debug, PartialEq)]
pub enum JsonScalar {
    Str(String),
    Num(f64),
    Bool(bool),
    Null,
}

impl JsonScalar {
    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonScalar::Str(s) => Some(s),
            _ => None,
        }
    }
    /// The number, if this is a number.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            JsonScalar::Num(n) => Some(*n),
            _ => None,
        }
    }
}

/// Parses one *flat* JSON object — string/number/bool/null values only,
/// no nesting — which is what [`JsonLine`] writes and the crash-dump
/// format guarantees. Returns `None` on anything else; `moara-cli
/// postmortem` skips such lines rather than guessing.
pub fn parse_flat_json(line: &str) -> Option<Vec<(String, JsonScalar)>> {
    let s = line.trim();
    let inner = s.strip_prefix('{')?.strip_suffix('}')?;
    let b = inner.as_bytes();
    let mut i = 0usize;
    let mut out = Vec::new();
    let skip_ws = |i: &mut usize| {
        while *i < b.len() && (b[*i] as char).is_ascii_whitespace() {
            *i += 1;
        }
    };
    let parse_string = |i: &mut usize| -> Option<String> {
        if b.get(*i) != Some(&b'"') {
            return None;
        }
        *i += 1;
        let mut out = String::new();
        while *i < b.len() {
            match b[*i] {
                b'"' => {
                    *i += 1;
                    return Some(out);
                }
                b'\\' => {
                    *i += 1;
                    match b.get(*i)? {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hex = inner.get(*i + 1..*i + 5)?;
                            let code = u32::from_str_radix(hex, 16).ok()?;
                            out.push(char::from_u32(code)?);
                            *i += 4;
                        }
                        _ => return None,
                    }
                    *i += 1;
                }
                c => {
                    // Multi-byte UTF-8 passes through byte-wise; the
                    // final String::from_utf8 on raw bytes is avoided by
                    // collecting chars from the validated source str.
                    let ch_start = *i;
                    let ch = inner[ch_start..].chars().next()?;
                    out.push(ch);
                    *i += ch.len_utf8();
                    let _ = c;
                }
            }
        }
        None
    };
    loop {
        skip_ws(&mut i);
        if i >= b.len() {
            break;
        }
        let key = parse_string(&mut i)?;
        skip_ws(&mut i);
        if b.get(i) != Some(&b':') {
            return None;
        }
        i += 1;
        skip_ws(&mut i);
        let value = match b.get(i)? {
            b'"' => JsonScalar::Str(parse_string(&mut i)?),
            b't' => {
                if !inner[i..].starts_with("true") {
                    return None;
                }
                i += 4;
                JsonScalar::Bool(true)
            }
            b'f' => {
                if !inner[i..].starts_with("false") {
                    return None;
                }
                i += 5;
                JsonScalar::Bool(false)
            }
            b'n' => {
                if !inner[i..].starts_with("null") {
                    return None;
                }
                i += 4;
                JsonScalar::Null
            }
            _ => {
                let start = i;
                while i < b.len() && matches!(b[i], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
                {
                    i += 1;
                }
                JsonScalar::Num(inner[start..i].parse().ok()?)
            }
        };
        out.push((key, value));
        skip_ws(&mut i);
        match b.get(i) {
            Some(b',') => i += 1,
            None => break,
            _ => return None,
        }
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_line_builds_flat_objects_in_field_order() {
        let line = JsonLine::new()
            .u64("ts_ms", 1_700_000_000_123)
            .str("path", "/v1/query?q=\"x\"")
            .bool("ok", true)
            .f64("value", 1.0)
            .f64("ratio", 0.25)
            .raw("nested", "null")
            .finish();
        assert_eq!(
            line,
            "{\"ts_ms\":1700000000123,\"path\":\"/v1/query?q=\\\"x\\\"\",\
             \"ok\":true,\"value\":1,\"ratio\":0.25,\"nested\":null}"
        );
        assert_eq!(JsonLine::new().finish(), "{}");
    }

    #[test]
    fn non_finite_floats_are_written_as_null() {
        for v in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let line = JsonLine::new().f64("v", v).finish();
            assert_eq!(line, "{\"v\":null}");
            assert_eq!(
                parse_flat_json(&line).unwrap(),
                vec![("v".to_owned(), JsonScalar::Null)]
            );
        }
    }

    #[test]
    fn plain_strings_gain_only_quotes() {
        assert_eq!(escape("hello"), "\"hello\"");
        assert_eq!(escape(""), "\"\"");
    }

    #[test]
    fn quotes_and_backslashes_escape() {
        assert_eq!(escape("a\"b"), "\"a\\\"b\"");
        assert_eq!(escape("a\\b"), "\"a\\\\b\"");
        assert_eq!(escape("\\\""), "\"\\\\\\\"\"");
    }

    #[test]
    fn control_chars_escape() {
        assert_eq!(escape("a\nb"), "\"a\\nb\"");
        assert_eq!(escape("a\rb"), "\"a\\rb\"");
        assert_eq!(escape("a\tb"), "\"a\\tb\"");
        assert_eq!(escape("a\x00b"), "\"a\\u0000b\"");
        assert_eq!(escape("\x1f"), "\"\\u001f\"");
        assert_eq!(escape("\x07"), "\"\\u0007\"");
    }

    #[test]
    fn non_ascii_passes_through() {
        assert_eq!(escape("héllo"), "\"héllo\"");
        assert_eq!(escape("日本語"), "\"日本語\"");
        assert_eq!(escape("emoji 🦀"), "\"emoji 🦀\"");
    }

    #[test]
    fn flat_json_parser_handles_escapes_and_rejects_nesting() {
        let fields =
            parse_flat_json(r#"{"a":"x\"y\n","b":-1.5e3,"c":true,"d":null,"e":"日本"}"#).unwrap();
        assert_eq!(fields[0].1, JsonScalar::Str("x\"y\n".into()));
        assert_eq!(fields[1].1, JsonScalar::Num(-1500.0));
        assert_eq!(fields[2].1, JsonScalar::Bool(true));
        assert_eq!(fields[3].1, JsonScalar::Null);
        assert_eq!(fields[4].1, JsonScalar::Str("日本".into()));
        assert_eq!(
            parse_flat_json(r#"{"u":"\u0041"}"#).unwrap()[0].1,
            JsonScalar::Str("A".into())
        );
        assert!(parse_flat_json(r#"{"a":[1,2]}"#).is_none());
        assert!(parse_flat_json(r#"{"a":{"b":1}}"#).is_none());
        assert!(parse_flat_json("not json").is_none());
        assert_eq!(parse_flat_json("{}").unwrap(), vec![]);
    }
}
