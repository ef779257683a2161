//! A minimal JSON value, parser, and writer.
//!
//! The workspace is offline (no serde), and the wire protocol only needs
//! a small, predictable subset: objects, arrays, strings, numbers, bools,
//! null. Numbers are held as `f64` and written with Rust's
//! shortest-roundtrip formatting, so every finite `f64` — in particular
//! every `f32` widened to `f64`, which is exact — survives
//! write-then-parse bitwise. That property is what lets the server
//! promise bitwise-identical embeddings over the wire.

use std::fmt::Write as _;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
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
    /// An object, in source order (the subset we speak has no duplicate
    /// keys, and order-preservation keeps writes deterministic).
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Object field lookup.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
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

    /// The value as a non-negative integer, if it is one.
    pub fn as_usize(&self) -> Option<usize> {
        let n = self.as_f64()?;
        if n.fract() == 0.0 && (0.0..9.0e15).contains(&n) {
            Some(n as usize)
        } else {
            None
        }
    }

    /// The value as a bool, if it is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value's elements, if it is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Builds an object from key/value pairs.
    pub fn obj(fields: Vec<(&str, Json)>) -> Json {
        Json::Obj(fields.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// A string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// An integer value (exact for |n| < 2⁵³).
    pub fn num(n: usize) -> Json {
        Json::Num(n as f64)
    }

    /// Serializes compactly into `out` without any heap allocation of
    /// its own (strings and numbers render in place): the hot-path form
    /// of `to_string()` used by the serve framing layer's reusable
    /// buffers.
    pub fn write_to(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => {
                if n.is_finite() {
                    // `{:?}` is shortest-roundtrip; strip the trailing
                    // `.0` Rust adds to integral floats. Rendered into a
                    // stack buffer: serialization must not heap-allocate
                    // (the serve framing hot path asserts zero allocs).
                    let mut buf = StackBuf { bytes: [0u8; 32], len: 0 };
                    use std::fmt::Write as _;
                    let text = match write!(buf, "{n:?}") {
                        Ok(()) => buf.as_str(),
                        Err(_) => unreachable!("f64 shortest repr fits 32 bytes"),
                    };
                    out.push_str(text.strip_suffix(".0").unwrap_or(text));
                } else {
                    out.push_str("null"); // JSON has no Inf/NaN.
                }
            }
            Json::Str(s) => write_escaped(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write_to(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(k, out);
                    out.push(':');
                    v.write_to(out);
                }
                out.push('}');
            }
        }
    }
}

/// Fixed-capacity `fmt::Write` sink for number rendering: f64's
/// shortest-roundtrip `{:?}` form is at most 24 bytes, so 32 never
/// overflows in practice (overflow surfaces as a `fmt::Error`).
struct StackBuf {
    bytes: [u8; 32],
    len: usize,
}

impl StackBuf {
    fn as_str(&self) -> &str {
        // Only ever filled through `write_str` with valid UTF-8.
        std::str::from_utf8(&self.bytes[..self.len]).expect("StackBuf holds UTF-8")
    }
}

impl std::fmt::Write for StackBuf {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        let bytes = s.as_bytes();
        if self.len + bytes.len() > self.bytes.len() {
            return Err(std::fmt::Error);
        }
        self.bytes[self.len..self.len + bytes.len()].copy_from_slice(bytes);
        self.len += bytes.len();
        Ok(())
    }
}

/// Compact JSON text (`value.to_string()` serializes).
impl std::fmt::Display for Json {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut out = String::new();
        self.write_to(&mut out);
        f.write_str(&out)
    }
}

fn write_escaped(s: &str, out: &mut String) {
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
}

/// How deep arrays and objects may nest. The parser recurses once per
/// level, so this bounds its stack on any input. It is about twice what
/// the wire form of the deepest program MiniLang's nesting budget admits
/// needs: a statement tree at most `minilang::MAX_DEPTH + 2` tall takes
/// two arrays per level, under five levels of request, program, traces,
/// trace and step.
pub const MAX_DEPTH: usize = 512;

/// Parses one JSON value; the whole input must be consumed (modulo
/// whitespace).
///
/// # Errors
///
/// Returns a human-readable description of the first syntax error, or
/// of nesting deeper than [`MAX_DEPTH`].
pub fn parse(text: &str) -> Result<Json, String> {
    let mut p = Parser { bytes: text.as_bytes(), pos: 0, depth: 0 };
    p.skip_ws();
    let value = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing bytes at offset {}", p.pos));
    }
    Ok(value)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects open around `pos`, at most [`MAX_DEPTH`].
    depth: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn eat(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected {:?} at offset {}", b as char, self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'{') => self.nested(Self::object),
            Some(b'[') => self.nested(Self::array),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(c) => Err(format!("unexpected {:?} at offset {}", c as char, self.pos)),
            None => Err("unexpected end of input".to_string()),
        }
    }

    fn nested(&mut self, f: fn(&mut Self) -> Result<Json, String>) -> Result<Json, String> {
        if self.depth == MAX_DEPTH {
            return Err(format!("nesting deeper than {MAX_DEPTH} levels at offset {}", self.pos));
        }
        self.depth += 1;
        let value = f(self);
        self.depth -= 1;
        value
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("bad literal at offset {}", self.pos))
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
        ) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| format!("bad number {text:?} at offset {start}"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            while !matches!(self.peek(), Some(b'"' | b'\\') | None) {
                self.pos += 1;
            }
            out.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| "invalid UTF-8 in string".to_string())?,
            );
            match self.peek() {
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
                                .ok_or("truncated \\u escape")?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| format!("bad \\u escape {hex:?}"))?;
                            // Surrogates are not paired — the protocol
                            // never emits them.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        other => return Err(format!("bad escape {other:?}")),
                    }
                    self.pos += 1;
                }
                None => return Err("unterminated string".to_string()),
                Some(_) => unreachable!("scan loop stops only at a quote or backslash"),
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.eat(b'[')?;
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
                _ => return Err(format!("expected ',' or ']' at offset {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.eat(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            self.skip_ws();
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(format!("expected ',' or '}}' at offset {}", self.pos)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrips_structures() {
        let value = Json::obj(vec![
            ("op", Json::str("embed")),
            ("n", Json::num(42)),
            ("flag", Json::Bool(true)),
            ("none", Json::Null),
            ("items", Json::Arr(vec![Json::num(1), Json::str("two\n\"x\"")])),
        ]);
        let text = value.to_string();
        assert_eq!(parse(&text).unwrap(), value);
    }

    #[test]
    fn floats_roundtrip_bitwise() {
        for f in [0.1f32, -3.25e-12, f32::MIN_POSITIVE, 1.0e30, 0.0, -0.0] {
            let wide = f64::from(f);
            let text = Json::Num(wide).to_string();
            let back = parse(&text).unwrap().as_f64().unwrap();
            assert_eq!(back.to_bits(), wide.to_bits(), "{f} via {text}");
            assert_eq!((back as f32).to_bits(), f.to_bits());
        }
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in ["", "{", "[1,]", "{\"a\" 1}", "tru", "\"unterminated", "1 2"] {
            assert!(parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn parses_whitespace_and_escapes() {
        let v = parse(" { \"a\" : [ 1 , \"\\u0041\\n\" ] } ").unwrap();
        assert_eq!(v.get("a").unwrap().as_arr().unwrap()[1].as_str().unwrap(), "A\n");
    }

    #[test]
    fn nesting_past_the_budget_is_an_error_not_an_overflow() {
        let nested = |open: &str, close: &str, n: usize| {
            format!("{}0{}", open.repeat(n), close.repeat(n))
        };
        assert!(parse(&nested("[", "]", MAX_DEPTH)).is_ok());
        assert!(parse(&nested("{\"k\":", "}", MAX_DEPTH)).is_ok());
        // On a 2 MiB stack, the std default the server's threads get.
        let thread = std::thread::Builder::new().stack_size(2 << 20);
        let errors = thread
            .spawn(move || {
                [
                    parse(&nested("[", "]", MAX_DEPTH + 1)),
                    parse(&"[".repeat(400_000)),
                    parse(&nested("{\"k\":", "}", 100_000)),
                ]
            })
            .unwrap()
            .join()
            .unwrap();
        for error in errors {
            assert!(error.unwrap_err().contains("nesting deeper than"));
        }
    }
}
