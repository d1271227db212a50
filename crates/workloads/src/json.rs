//! A minimal, dependency-free JSON value model with a strict parser and a
//! deterministic writer.
//!
//! The workspace has no serialization framework (its dependency tree is
//! offline), so everything that needs *machine-readable* structured I/O
//! — the JSONL exports here and the `crn-serve` wire protocol — goes
//! through this module.
//!
//! Design points:
//!
//! - Objects preserve insertion order (`Vec<(String, Json)>`), so writing
//!   is deterministic: identical values produce identical bytes.
//! - Integers that fit `u64`/`i64` are kept exact ([`Json::UInt`] /
//!   [`Json::Int`]) — a `u64` seed survives a round trip bit-for-bit
//!   instead of sagging through an `f64`.
//! - Non-finite floats serialize as `null` (JSON has no `NaN`/`inf`
//!   literal), matching the record exporter's convention.
//! - The parser is strict UTF-8 recursive descent with a depth cap; it
//!   rejects trailing garbage, so one protocol line is one value.

use std::fmt;
use std::str::FromStr;

/// Maximum nesting depth the parser accepts (defense against a hostile
/// `[[[[…` request knocking the stack over).
const MAX_DEPTH: usize = 64;

/// A parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A non-negative integer that fits `u64`, kept exact.
    UInt(u64),
    /// A negative integer that fits `i64`, kept exact.
    Int(i64),
    /// Any other number.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; insertion order is preserved and significant for
    /// serialization (not for [`Json::get`] lookups).
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Convenience: an empty object.
    #[must_use]
    pub fn obj() -> Json {
        Json::Obj(Vec::new())
    }

    /// Appends `key: value` to an object (panics on non-objects — builder
    /// misuse, not data errors).
    ///
    /// # Panics
    ///
    /// Panics if `self` is not [`Json::Obj`].
    pub fn set(&mut self, key: &str, value: Json) -> &mut Json {
        match self {
            Json::Obj(pairs) => pairs.push((key.to_owned(), value)),
            other => panic!("Json::set on non-object {other:?}"),
        }
        self
    }

    /// Object field lookup (first match).
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a float, coercing exact integers.
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            Json::UInt(u) => Some(u as f64),
            Json::Int(i) => Some(i as f64),
            Json::Float(f) => Some(f),
            _ => None,
        }
    }

    /// The value as a `u64` (exact integers only).
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            Json::UInt(u) => Some(u),
            Json::Int(i) => u64::try_from(i).ok(),
            _ => None,
        }
    }

    /// The value as a `usize` (exact integers only).
    #[must_use]
    pub fn as_usize(&self) -> Option<usize> {
        self.as_u64().and_then(|u| usize::try_from(u).ok())
    }

    /// The value as a bool.
    #[must_use]
    pub fn as_bool(&self) -> Option<bool> {
        match *self {
            Json::Bool(b) => Some(b),
            _ => None,
        }
    }

    /// The value as a string slice.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice.
    #[must_use]
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// `true` for `null`.
    #[must_use]
    pub fn is_null(&self) -> bool {
        matches!(self, Json::Null)
    }

    /// Wraps a float with the non-finite → `null` convention applied
    /// eagerly, so lookups see the same value a reader would.
    #[must_use]
    pub fn float(v: f64) -> Json {
        if v.is_finite() {
            Json::Float(v)
        } else {
            Json::Null
        }
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => f.write_str("null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::UInt(u) => write!(f, "{u}"),
            Json::Int(i) => write!(f, "{i}"),
            Json::Float(v) => {
                if v.is_finite() {
                    // Shortest round-trip, but always a valid JSON number.
                    let s = v.to_string();
                    if s.contains(['.', 'e', 'E']) {
                        f.write_str(&s)
                    } else {
                        write!(f, "{s}.0")
                    }
                } else {
                    f.write_str("null")
                }
            }
            Json::Str(s) => write_escaped(f, s),
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
                    write_escaped(f, k)?;
                    write!(f, ":{v}")?;
                }
                f.write_str("}")
            }
        }
    }
}

fn write_escaped(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
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

/// A parse failure with a byte offset into the input.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset where parsing failed.
    pub offset: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid JSON at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

impl FromStr for Json {
    type Err = JsonError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let mut p = Parser {
            bytes: s.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let v = p.value(0)?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after value"));
        }
        Ok(v)
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: &str) -> JsonError {
        JsonError {
            offset: self.pos,
            message: message.to_owned(),
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

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
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

    fn value(&mut self, depth: usize) -> Result<Json, JsonError> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.array(depth),
            Some(b'{') => self.object(depth),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
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

    fn object(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.expect(b'{')?;
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
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value(depth + 1)?;
            pairs.push((key, value));
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
        self.expect(b'"')?;
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
                    let esc = self.peek().ok_or_else(|| self.err("dangling escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{0008}'),
                        b'f' => out.push('\u{000c}'),
                        b'u' => {
                            let cp = self.hex4()?;
                            // Surrogate pair handling for completeness.
                            let c = if (0xD800..0xDC00).contains(&cp) {
                                if self.bytes[self.pos..].starts_with(b"\\u") {
                                    self.pos += 2;
                                    let lo = self.hex4()?;
                                    let combined = 0x10000
                                        + ((cp - 0xD800) << 10)
                                        + (lo.wrapping_sub(0xDC00) & 0x3FF);
                                    char::from_u32(combined)
                                } else {
                                    None
                                }
                            } else {
                                char::from_u32(cp)
                            };
                            out.push(c.ok_or_else(|| self.err("invalid \\u escape"))?);
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                Some(b) if b < 0x20 => return Err(self.err("raw control character in string")),
                Some(_) => {
                    // Copy one UTF-8 scalar (input is &str, so boundaries
                    // are valid).
                    let start = self.pos;
                    let mut end = start + 1;
                    while end < self.bytes.len() && (self.bytes[end] & 0xC0) == 0x80 {
                        end += 1;
                    }
                    out.push_str(
                        std::str::from_utf8(&self.bytes[start..end])
                            .map_err(|_| self.err("invalid UTF-8"))?,
                    );
                    self.pos = end;
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        if self.pos + 4 > self.bytes.len() {
            return Err(self.err("truncated \\u escape"));
        }
        let hex = std::str::from_utf8(&self.bytes[self.pos..self.pos + 4])
            .map_err(|_| self.err("invalid \\u escape"))?;
        let cp = u32::from_str_radix(hex, 16).map_err(|_| self.err("invalid \\u escape"))?;
        self.pos += 4;
        Ok(cp)
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        let mut integral = true;
        if self.peek() == Some(b'.') {
            integral = false;
            self.pos += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            integral = false;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid number"))?;
        if integral {
            if let Ok(u) = text.parse::<u64>() {
                return Ok(Json::UInt(u));
            }
            if let Ok(i) = text.parse::<i64>() {
                return Ok(Json::Int(i));
            }
        }
        text.parse::<f64>()
            .map(Json::Float)
            .map_err(|_| self.err(&format!("invalid number '{text}'")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Json {
        s.parse().unwrap()
    }

    #[test]
    fn scalars_round_trip() {
        for s in ["null", "true", "false", "0", "42", "-7", "1.5", "\"hi\""] {
            assert_eq!(parse(s).to_string(), s, "{s}");
        }
    }

    #[test]
    fn u64_seeds_survive_exactly() {
        let max = u64::MAX.to_string();
        assert_eq!(parse(&max), Json::UInt(u64::MAX));
        assert_eq!(parse(&max).to_string(), max);
        assert_eq!(parse("-9223372036854775808"), Json::Int(i64::MIN));
    }

    #[test]
    fn nested_structures_round_trip() {
        let src = r#"{"a":[1,2,{"b":null}],"c":"x","d":{"e":false}}"#;
        assert_eq!(parse(src).to_string(), src);
    }

    #[test]
    fn object_lookup_and_accessors() {
        let v = parse(r#"{"n":3,"f":2.5,"s":"x","b":true,"arr":[1],"neg":-2}"#);
        assert_eq!(v.get("n").unwrap().as_u64(), Some(3));
        assert_eq!(v.get("n").unwrap().as_f64(), Some(3.0));
        assert_eq!(v.get("f").unwrap().as_f64(), Some(2.5));
        assert_eq!(v.get("f").unwrap().as_u64(), None);
        assert_eq!(v.get("s").unwrap().as_str(), Some("x"));
        assert_eq!(v.get("b").unwrap().as_bool(), Some(true));
        assert_eq!(v.get("arr").unwrap().as_arr().unwrap().len(), 1);
        assert_eq!(v.get("neg").unwrap().as_u64(), None);
        assert!(v.get("missing").is_none());
    }

    #[test]
    fn string_escapes_round_trip() {
        let src = "\"a\\\"b\\\\c\\nd\\u0001é\"";
        let v = parse(src);
        assert_eq!(v, Json::Str("a\"b\\c\nd\u{1}é".into()));
        assert_eq!(parse(&v.to_string()), v);
    }

    #[test]
    fn surrogate_pairs_decode() {
        assert_eq!(parse("\"\\ud83d\\ude00\""), Json::Str("😀".into()));
    }

    #[test]
    fn non_finite_floats_write_null() {
        assert_eq!(Json::Float(f64::NAN).to_string(), "null");
        assert_eq!(Json::float(f64::INFINITY), Json::Null);
        assert_eq!(Json::float(1.5), Json::Float(1.5));
    }

    #[test]
    fn floats_always_write_as_json_numbers() {
        // A float that happens to be integral must not print as "2"
        // (which would re-parse as UInt and break value round-trips).
        assert_eq!(Json::Float(2.0).to_string(), "2.0");
        assert_eq!(parse("2.0"), Json::Float(2.0));
    }

    #[test]
    fn errors_carry_offsets() {
        for bad in ["{", "[1,", "\"open", "tru", "{\"a\" 1}", "1 2", "{'a':1}"] {
            let e = bad.parse::<Json>().unwrap_err();
            assert!(e.to_string().contains("byte"), "{bad}: {e}");
        }
    }

    #[test]
    fn depth_bomb_is_rejected() {
        let bomb = "[".repeat(1000) + &"]".repeat(1000);
        let e = bomb.parse::<Json>().unwrap_err();
        assert!(e.message.contains("deep"), "{e}");
    }

    #[test]
    fn builder_constructs_objects_in_order() {
        let mut o = Json::obj();
        o.set("b", Json::UInt(1)).set("a", Json::Str("x".into()));
        assert_eq!(o.to_string(), r#"{"b":1,"a":"x"}"#);
        assert_eq!(o.get("a").unwrap().as_str(), Some("x"));
    }

    #[test]
    fn whitespace_is_tolerated() {
        let v = parse(" {\n\t\"a\" : [ 1 , 2 ] , \"b\" : null }\r\n".trim_end());
        assert_eq!(v.get("a").unwrap().as_arr().unwrap().len(), 2);
        assert!(v.get("b").unwrap().is_null());
    }
}
