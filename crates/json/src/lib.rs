//! # spotbid-json
//!
//! A dependency-free JSON value model, recursive-descent parser, and
//! writer for the `spotbid` workspace.
//!
//! The workspace previously serialized through `serde`/`serde_json`, which
//! cannot be vendored in the build environment. This crate replaces them
//! with an explicit [`Json`] tree plus [`ToJson`]/[`FromJson`] traits,
//! preserving the wire shapes the old derives produced:
//!
//! - transparent newtypes (e.g. `Price`) serialize as bare numbers,
//! - unit enum variants serialize as strings (`"M1"`, `"Spot"`),
//! - tuples serialize as arrays,
//! - structs serialize as objects keyed by field name,
//! - `f64` is written with Rust's shortest-roundtrip formatting, so
//!   `from_str(&to_string(x))` recovers `x` bit-for-bit (NaN excluded).

#![warn(missing_docs)]

use std::collections::BTreeMap;
use std::fmt;

/// A parsed JSON value.
///
/// Objects use a [`BTreeMap`] so writing is deterministic (keys sorted);
/// the experiment layer depends on serialized output being a pure function
/// of the data.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number; the workspace only needs `f64` precision.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object with sorted keys.
    Obj(BTreeMap<String, Json>),
}

/// Error produced by [`from_str`] or a [`FromJson`] conversion.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    msg: String,
}

impl JsonError {
    /// Creates an error with the given message.
    pub fn new(msg: impl Into<String>) -> Self {
        Self { msg: msg.into() }
    }
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json error: {}", self.msg)
    }
}

impl std::error::Error for JsonError {}

/// Conversion from a domain value to a [`Json`] tree.
pub trait ToJson {
    /// Builds the JSON representation of `self`.
    fn to_json(&self) -> Json;
}

/// Conversion from a [`Json`] tree back to a domain value.
pub trait FromJson: Sized {
    /// Reconstructs `Self`, rejecting shape mismatches.
    fn from_json(v: &Json) -> Result<Self, JsonError>;
}

impl Json {
    /// The value as `f64`, if it is a number.
    pub fn as_num(&self) -> Result<f64, JsonError> {
        match self {
            Json::Num(x) => Ok(*x),
            other => Err(JsonError::new(format!("expected number, got {other:?}"))),
        }
    }

    /// The value as `&str`, if it is a string.
    pub fn as_str(&self) -> Result<&str, JsonError> {
        match self {
            Json::Str(s) => Ok(s),
            other => Err(JsonError::new(format!("expected string, got {other:?}"))),
        }
    }

    /// The value as a slice of elements, if it is an array.
    pub fn as_arr(&self) -> Result<&[Json], JsonError> {
        match self {
            Json::Arr(v) => Ok(v),
            other => Err(JsonError::new(format!("expected array, got {other:?}"))),
        }
    }

    /// The value as an object map, if it is an object.
    pub fn as_obj(&self) -> Result<&BTreeMap<String, Json>, JsonError> {
        match self {
            Json::Obj(m) => Ok(m),
            other => Err(JsonError::new(format!("expected object, got {other:?}"))),
        }
    }

    /// Looks up a required object field.
    pub fn field(&self, key: &str) -> Result<&Json, JsonError> {
        self.as_obj()?
            .get(key)
            .ok_or_else(|| JsonError::new(format!("missing field `{key}`")))
    }

    /// Looks up an optional object field (`None` if absent or `null`).
    pub fn field_opt(&self, key: &str) -> Result<Option<&Json>, JsonError> {
        Ok(self.as_obj()?.get(key).filter(|v| **v != Json::Null))
    }
}

// ---------------------------------------------------------------------------
// Primitive impls
// ---------------------------------------------------------------------------

impl ToJson for f64 {
    fn to_json(&self) -> Json {
        Json::Num(*self)
    }
}

impl FromJson for f64 {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        v.as_num()
    }
}

impl ToJson for bool {
    fn to_json(&self) -> Json {
        Json::Bool(*self)
    }
}

impl FromJson for bool {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        match v {
            Json::Bool(b) => Ok(*b),
            other => Err(JsonError::new(format!("expected bool, got {other:?}"))),
        }
    }
}

impl ToJson for String {
    fn to_json(&self) -> Json {
        Json::Str(self.clone())
    }
}

impl FromJson for String {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        Ok(v.as_str()?.to_owned())
    }
}

macro_rules! int_json {
    ($($t:ty),*) => {$(
        impl ToJson for $t {
            fn to_json(&self) -> Json {
                Json::Num(*self as f64)
            }
        }
        impl FromJson for $t {
            fn from_json(v: &Json) -> Result<Self, JsonError> {
                let x = v.as_num()?;
                let y = x as $t;
                if y as f64 == x {
                    Ok(y)
                } else {
                    Err(JsonError::new(format!(
                        "number {x} is not a valid {}",
                        stringify!($t)
                    )))
                }
            }
        }
    )*};
}
int_json!(u8, u16, u32, u64, usize, i32, i64);

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: FromJson> FromJson for Vec<T> {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        v.as_arr()?.iter().map(T::from_json).collect()
    }
}

impl<A: ToJson, B: ToJson> ToJson for (A, B) {
    fn to_json(&self) -> Json {
        Json::Arr(vec![self.0.to_json(), self.1.to_json()])
    }
}

impl<A: FromJson, B: FromJson> FromJson for (A, B) {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        let a = v.as_arr()?;
        if a.len() != 2 {
            return Err(JsonError::new(format!(
                "expected 2-tuple, got {} elems",
                a.len()
            )));
        }
        Ok((A::from_json(&a[0])?, B::from_json(&a[1])?))
    }
}

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

/// Serializes a [`Json`] tree to compact JSON text.
///
/// Numbers use shortest-roundtrip formatting: integral values within
/// `i64` print without a fraction (`3.0` → `"3.0"` is *not* preserved; an
/// `f64` always prints via `{:?}`, so `3.0` prints as `3.0`), matching
/// `serde_json`'s behavior for `f64` fields.
pub fn to_string(v: &Json) -> String {
    let mut s = String::new();
    write_value(v, &mut s);
    s
}

/// Serializes any [`ToJson`] value to compact JSON text.
pub fn encode<T: ToJson>(v: &T) -> String {
    to_string(&v.to_json())
}

/// Parses JSON text and converts it to a [`FromJson`] value.
pub fn decode<T: FromJson>(s: &str) -> Result<T, JsonError> {
    T::from_json(&from_str(s)?)
}

fn write_value(v: &Json, out: &mut String) {
    match v {
        Json::Null => out.push_str("null"),
        Json::Bool(true) => out.push_str("true"),
        Json::Bool(false) => out.push_str("false"),
        Json::Num(x) => write_num(*x, out),
        Json::Str(s) => write_str(s, out),
        Json::Arr(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_value(item, out);
            }
            out.push(']');
        }
        Json::Obj(map) => {
            out.push('{');
            for (i, (k, val)) in map.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_str(k, out);
                out.push(':');
                write_value(val, out);
            }
            out.push('}');
        }
    }
}

fn write_num(x: f64, out: &mut String) {
    use fmt::Write;
    if !x.is_finite() {
        // JSON has no NaN/Inf; mirror serde_json's `null` fallback.
        out.push_str("null");
        return;
    }
    if x == x.trunc() && x.abs() < 9.007_199_254_740_992e15 {
        // Integral: print without exponent, with serde_json's `.0` suffix
        // only when the value came from an f64. We cannot distinguish here,
        // so follow `{:?}` which yields e.g. "3.0" — correct for the f64
        // fields this workspace serializes, and integers round-trip via
        // the `FromJson` integer impls regardless.
        let _ = write!(out, "{x:?}");
    } else {
        let _ = write!(out, "{x:?}");
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

// ---------------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------------

/// The deepest nesting of arrays and objects [`from_str`] accepts. The
/// parser recurses once per level, so an unbounded depth would let a short
/// input of `[` characters overflow the stack.
pub const MAX_DEPTH: usize = 128;

/// Parses JSON text into a [`Json`] tree.
///
/// Accepts the full JSON grammar (RFC 8259): nested arrays/objects,
/// escape sequences including `\uXXXX` (with surrogate pairs), and
/// scientific-notation numbers. Trailing non-whitespace is an error, and
/// so is nesting deeper than [`MAX_DEPTH`].
pub fn from_str(s: &str) -> Result<Json, JsonError> {
    let mut p = Parser {
        bytes: s.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let v = p.parse_value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(JsonError::new(format!(
            "trailing characters at byte {}",
            p.pos
        )));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects open around the current position.
    depth: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn bump(&mut self) -> Result<u8, JsonError> {
        let b = self
            .peek()
            .ok_or_else(|| JsonError::new("unexpected end of input"))?;
        self.pos += 1;
        Ok(b)
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        let got = self.bump()?;
        if got != b {
            return Err(JsonError::new(format!(
                "expected `{}` at byte {}, got `{}`",
                b as char,
                self.pos - 1,
                got as char
            )));
        }
        Ok(())
    }

    fn expect_keyword(&mut self, kw: &str) -> Result<(), JsonError> {
        if self.bytes[self.pos..].starts_with(kw.as_bytes()) {
            self.pos += kw.len();
            Ok(())
        } else {
            Err(JsonError::new(format!(
                "invalid literal at byte {}",
                self.pos
            )))
        }
    }

    fn parse_value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'n') => {
                self.expect_keyword("null")?;
                Ok(Json::Null)
            }
            Some(b't') => {
                self.expect_keyword("true")?;
                Ok(Json::Bool(true))
            }
            Some(b'f') => {
                self.expect_keyword("false")?;
                Ok(Json::Bool(false))
            }
            Some(b'"') => Ok(Json::Str(self.parse_string()?)),
            Some(b'[' | b'{') => {
                if self.depth == MAX_DEPTH {
                    return Err(JsonError::new(format!(
                        "nesting deeper than {MAX_DEPTH} at byte {}",
                        self.pos
                    )));
                }
                self.depth += 1;
                let v = if self.peek() == Some(b'[') {
                    self.parse_array()
                } else {
                    self.parse_object()
                };
                self.depth -= 1;
                v
            }
            Some(b'-' | b'0'..=b'9') => self.parse_number(),
            Some(other) => Err(JsonError::new(format!(
                "unexpected character `{}` at byte {}",
                other as char, self.pos
            ))),
            None => Err(JsonError::new("unexpected end of input")),
        }
    }

    fn parse_array(&mut self) -> Result<Json, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.parse_value()?);
            self.skip_ws();
            match self.bump()? {
                b',' => continue,
                b']' => return Ok(Json::Arr(items)),
                other => {
                    return Err(JsonError::new(format!(
                        "expected `,` or `]` at byte {}, got `{}`",
                        self.pos - 1,
                        other as char
                    )))
                }
            }
        }
    }

    fn parse_object(&mut self) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(map));
        }
        loop {
            self.skip_ws();
            let key = self.parse_string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.parse_value()?;
            map.insert(key, value);
            self.skip_ws();
            match self.bump()? {
                b',' => continue,
                b'}' => return Ok(Json::Obj(map)),
                other => {
                    return Err(JsonError::new(format!(
                        "expected `,` or `}}` at byte {}, got `{}`",
                        self.pos - 1,
                        other as char
                    )))
                }
            }
        }
    }

    fn parse_string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let b = self.bump()?;
            match b {
                b'"' => return Ok(out),
                b'\\' => match self.bump()? {
                    b'"' => out.push('"'),
                    b'\\' => out.push('\\'),
                    b'/' => out.push('/'),
                    b'b' => out.push('\u{8}'),
                    b'f' => out.push('\u{c}'),
                    b'n' => out.push('\n'),
                    b'r' => out.push('\r'),
                    b't' => out.push('\t'),
                    b'u' => {
                        let hi = self.parse_hex4()?;
                        let c = if (0xD800..0xDC00).contains(&hi) {
                            // Surrogate pair: a low surrogate must follow.
                            self.expect(b'\\')?;
                            self.expect(b'u')?;
                            let lo = self.parse_hex4()?;
                            if !(0xDC00..0xE000).contains(&lo) {
                                return Err(JsonError::new("invalid low surrogate"));
                            }
                            let cp = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                            char::from_u32(cp)
                                .ok_or_else(|| JsonError::new("invalid surrogate pair"))?
                        } else {
                            char::from_u32(hi)
                                .ok_or_else(|| JsonError::new("invalid \\u escape"))?
                        };
                        out.push(c);
                    }
                    other => {
                        return Err(JsonError::new(format!(
                            "invalid escape `\\{}`",
                            other as char
                        )))
                    }
                },
                b if b < 0x20 => {
                    return Err(JsonError::new("unescaped control character in string"))
                }
                b if b < 0x80 => out.push(b as char),
                _ => {
                    // Multi-byte UTF-8: the input &str is valid UTF-8, so
                    // decode the full character from the source slice.
                    let start = self.pos - 1;
                    let s = std::str::from_utf8(&self.bytes[start..])
                        .map_err(|_| JsonError::new("invalid utf-8 in string"))?;
                    let c = s.chars().next().expect("non-empty by construction");
                    self.pos = start + c.len_utf8();
                    out.push(c);
                }
            }
        }
    }

    fn parse_hex4(&mut self) -> Result<u32, JsonError> {
        let mut v = 0u32;
        for _ in 0..4 {
            let b = self.bump()?;
            let d = (b as char)
                .to_digit(16)
                .ok_or_else(|| JsonError::new("invalid hex digit in \\u escape"))?;
            v = v * 16 + d;
        }
        Ok(v)
    }

    fn parse_number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| JsonError::new("invalid number"))?;
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| JsonError::new(format!("invalid number `{text}` at byte {start}")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_scalars() {
        for src in ["null", "true", "false", "0.0", "-1.5", "\"hi\""] {
            let v = from_str(src).unwrap();
            assert_eq!(to_string(&v), src);
        }
    }

    #[test]
    fn f64_round_trips_bit_for_bit() {
        for x in [
            0.0,
            -0.0,
            1.0 / 3.0,
            6.626e-34,
            1.7976931348623157e308,
            0.1 + 0.2,
        ] {
            let s = to_string(&Json::Num(x));
            let back = from_str(&s).unwrap().as_num().unwrap();
            assert_eq!(back.to_bits(), x.to_bits(), "via {s}");
        }
    }

    #[test]
    fn parses_nested_structures() {
        let v = from_str(r#"{"a":[1.0,2.5,{"b":null}],"c":"x"}"#).unwrap();
        assert_eq!(to_string(&v), r#"{"a":[1.0,2.5,{"b":null}],"c":"x"}"#);
        assert_eq!(v.field("a").unwrap().as_arr().unwrap().len(), 3);
    }

    #[test]
    fn parses_string_escapes() {
        let v = from_str(r#""a\nb\t\"q\" \u00e9 \ud83d\ude00""#).unwrap();
        assert_eq!(v.as_str().unwrap(), "a\nb\t\"q\" \u{e9} \u{1f600}");
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in [
            "{", "[1,", "{\"a\":}", "tru", "1.2.3", "\"\\x\"", "[] []", "",
        ] {
            assert!(from_str(bad).is_err(), "should reject {bad:?}");
        }
    }

    #[test]
    fn nesting_depth_is_bounded() {
        // 65,535 `[` fit under the server's 64 KiB frame cap; unbounded
        // recursion over them overflowed the stack.
        let deep = "[".repeat(65_535);
        let e = from_str(&deep).unwrap_err();
        assert!(e.to_string().contains("nesting deeper"), "{e}");
        let objects = "{\"a\":".repeat(MAX_DEPTH + 1);
        assert!(from_str(&objects).is_err());
        // Exactly the limit still parses.
        let ok = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(from_str(&ok).is_ok());
        let over = format!("{}{}", "[".repeat(MAX_DEPTH + 1), "]".repeat(MAX_DEPTH + 1));
        assert!(from_str(&over).is_err());
    }

    #[test]
    fn objects_write_with_sorted_keys() {
        let v = from_str(r#"{"z":1.0,"a":2.0}"#).unwrap();
        assert_eq!(to_string(&v), r#"{"a":2.0,"z":1.0}"#);
    }

    #[test]
    fn integer_conversions_check_range() {
        assert_eq!(u32::from_json(&Json::Num(7.0)).unwrap(), 7);
        assert!(u32::from_json(&Json::Num(7.5)).is_err());
        assert!(u32::from_json(&Json::Num(-1.0)).is_err());
        assert_eq!(u64::from_json(&Json::Num(17568.0)).unwrap(), 17568);
    }

    #[test]
    fn scientific_notation_parses() {
        assert_eq!(from_str("1e3").unwrap().as_num().unwrap(), 1000.0);
        assert_eq!(from_str("-2.5E-2").unwrap().as_num().unwrap(), -0.025);
    }
}
