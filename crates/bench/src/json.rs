//! Minimal JSON emission *and parsing* for machine-readable bench output.
//!
//! The container has no registry access, so instead of `serde` this is a
//! tiny value tree with a deterministic writer: keys keep insertion
//! order, floats print with up to six fractional digits via Rust's
//! locale-independent formatter, and integers stay integers. Output is
//! therefore byte-stable across platforms for the virtual-time metrics
//! the bins report — the `bench_diff` gate compares fresh output against
//! the checked-in `BENCH_serve.json` on that basis, via [`parse`] and
//! [`crate::diff`].

use std::fmt;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integer (kept exact; serving counters are integers).
    Int(i128),
    /// A float, emitted with up to six fractional digits (values below
    /// 5e-7 collapse to `0` — keep sub-microscopic metrics in integer
    /// units like picojoules instead).
    Num(f64),
    /// A string (escaped on write).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object with insertion-ordered keys.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// An object from `(key, value)` pairs, preserving order.
    pub fn obj<const N: usize>(pairs: [(&str, Json); N]) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// A string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// A u128 value, saturating into `i128` range (serving totals fit).
    pub fn uint(v: u128) -> Json {
        Json::Int(i128::try_from(v).unwrap_or(i128::MAX))
    }

    /// A float value.
    pub fn num(v: f64) -> Json {
        Json::Num(v)
    }
}

fn escape(s: &str, f: &mut fmt::Formatter<'_>) -> fmt::Result {
    f.write_str("\"")?;
    for c in s.chars() {
        match c {
            '"' => f.write_str("\\\"")?,
            '\\' => f.write_str("\\\\")?,
            '\n' => f.write_str("\\n")?,
            '\r' => f.write_str("\\r")?,
            '\t' => f.write_str("\\t")?,
            c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
            c => write!(f, "{c}")?,
        }
    }
    f.write_str("\"")
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => f.write_str("null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::Int(i) => write!(f, "{i}"),
            Json::Num(n) if n.is_finite() => {
                // Six fractional digits: stable, compact, and more
                // precision than any virtual-time metric is good for.
                let s = format!("{n:.6}");
                let s = s.trim_end_matches('0').trim_end_matches('.');
                f.write_str(if s.is_empty() || s == "-" { "0" } else { s })
            }
            Json::Num(_) => f.write_str("null"), // NaN/inf have no JSON form
            Json::Str(s) => escape(s, f),
            Json::Arr(items) => {
                f.write_str("[")?;
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{v}")?;
                }
                f.write_str("]")
            }
            Json::Obj(pairs) => {
                f.write_str("{")?;
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    escape(k, f)?;
                    f.write_str(":")?;
                    write!(f, "{v}")?;
                }
                f.write_str("}")
            }
        }
    }
}

/// Renders a value with a trailing newline — the whole-document form the
/// `--json` bin modes print.
pub fn to_document(v: &Json) -> String {
    format!("{v}\n")
}

/// A parse failure: what went wrong and the byte offset it went wrong at.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Human-readable description.
    pub message: String,
    /// Byte offset into the input.
    pub offset: usize,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.message, self.offset)
    }
}

impl std::error::Error for JsonError {}

/// Parses one JSON document (the inverse of the writer above).
///
/// A recursive-descent parser over the full JSON grammar, with one
/// bench-specific refinement: numbers without a fraction or exponent
/// parse as [`Json::Int`] (exact), everything else as [`Json::Num`] —
/// mirroring how the writer emits them, so a write→parse round trip
/// preserves the typed-tolerance distinction `bench_diff` keys on.
///
/// # Errors
///
/// Returns a [`JsonError`] with the byte offset of the first violation;
/// trailing non-whitespace is a violation too.
pub fn parse(s: &str) -> Result<Json, JsonError> {
    let mut p = Parser { src: s, bytes: s.as_bytes(), pos: 0 };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters after document"));
    }
    Ok(v)
}

struct Parser<'a> {
    /// The document as text — `pos` always sits on a char boundary
    /// (it advances by whole UTF-8 scalars), so slicing is safe.
    src: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: &str) -> JsonError {
        JsonError { message: message.into(), offset: self.pos }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect_byte(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn literal(&mut self, lit: &str, v: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(self.err(&format!("expected '{lit}'")))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.expect_byte(b'[')?;
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

    fn object(&mut self) -> Result<Json, JsonError> {
        self.expect_byte(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect_byte(b':')?;
            self.skip_ws();
            pairs.push((key, self.value()?));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(pairs));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect_byte(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
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
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| self.err("bad \\u escape"))?;
                            // Surrogate pairs don't appear in bench output;
                            // map them to the replacement character.
                            out.push(char::from_u32(hex).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar; `peek` returned `Some`,
                    // so the slice is non-empty.
                    let Some(c) = self.src[self.pos..].chars().next() else {
                        return Err(self.err("unterminated string"));
                    };
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
        let mut integral = true;
        if self.peek() == Some(b'.') {
            integral = false;
            self.pos += 1;
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            integral = false;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let Ok(text) = std::str::from_utf8(&self.bytes[start..self.pos]) else {
            return Err(self.err("invalid bytes in number"));
        };
        if text.is_empty() || text == "-" {
            return Err(self.err("malformed number"));
        }
        if integral {
            if let Ok(i) = text.parse::<i128>() {
                return Ok(Json::Int(i));
            }
        }
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| JsonError { message: format!("malformed number '{text}'"), offset: start })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn values_render_canonically() {
        let v = Json::obj([
            ("name", Json::str("serve")),
            ("n", Json::Int(3)),
            ("ok", Json::Bool(true)),
            ("none", Json::Null),
            ("rows", Json::Arr(vec![Json::Int(1), Json::num(2.5)])),
        ]);
        assert_eq!(v.to_string(), r#"{"name":"serve","n":3,"ok":true,"none":null,"rows":[1,2.5]}"#);
    }

    #[test]
    fn floats_trim_but_integers_do_not() {
        assert_eq!(Json::num(1234.0).to_string(), "1234");
        assert_eq!(Json::num(0.125).to_string(), "0.125");
        assert_eq!(Json::num(1.0 / 3.0).to_string(), "0.333333");
        assert_eq!(Json::num(0.0).to_string(), "0");
        assert_eq!(Json::num(f64::NAN).to_string(), "null");
        assert_eq!(Json::Int(7).to_string(), "7");
        assert_eq!(Json::uint(u128::MAX).to_string(), i128::MAX.to_string());
    }

    #[test]
    fn strings_escape_control_characters() {
        assert_eq!(Json::str("a\"b\\c\nd").to_string(), r#""a\"b\\c\nd""#);
        assert_eq!(Json::str("\u{1}").to_string(), "\"\\u0001\"");
    }

    #[test]
    fn documents_end_with_a_newline() {
        assert!(to_document(&Json::Null).ends_with('\n'));
    }

    #[test]
    fn parse_round_trips_the_writer() {
        let v = Json::obj([
            ("name", Json::str("serve")),
            ("n", Json::Int(3)),
            ("rate", Json::num(0.333333)),
            ("neg", Json::Int(-7)),
            ("ok", Json::Bool(true)),
            ("none", Json::Null),
            ("rows", Json::Arr(vec![Json::Int(1), Json::num(2.5), Json::str("a\"b\nc")])),
            ("empty_arr", Json::Arr(vec![])),
            ("empty_obj", Json::Obj(vec![])),
        ]);
        let text = to_document(&v);
        assert_eq!(parse(&text).unwrap(), v, "write → parse must be the identity");
    }

    #[test]
    fn parse_keeps_integers_exact_and_floats_floating() {
        let v = parse(r#"{"i":12345678901234567890123,"f":1.5,"e":2e3}"#).unwrap();
        let Json::Obj(pairs) = v else { panic!("object expected") };
        assert!(matches!(pairs[0].1, Json::Int(12345678901234567890123)));
        assert!(matches!(pairs[1].1, Json::Num(f) if f == 1.5));
        assert!(matches!(pairs[2].1, Json::Num(f) if f == 2000.0));
    }

    #[test]
    fn parse_reports_offsets_for_malformed_input() {
        for (text, offset_at_least) in
            [("", 0), ("{", 1), ("[1,]", 3), ("{\"a\" 1}", 5), ("nul", 0), ("1 2", 2)]
        {
            let err = parse(text).unwrap_err();
            assert!(
                err.offset >= offset_at_least,
                "{text:?}: offset {} < {offset_at_least}",
                err.offset
            );
        }
    }

    #[test]
    fn parse_handles_escapes_and_whitespace() {
        let v = parse(" { \"k\" : \"a\\u0041\\n\" , \"l\" : [ ] } ").unwrap();
        assert_eq!(
            v,
            Json::Obj(vec![("k".into(), Json::str("aA\n")), ("l".into(), Json::Arr(vec![])),])
        );
    }
}
