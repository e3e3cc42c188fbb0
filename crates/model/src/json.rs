//! The workspace's one JSON codec: a strict reader, [`parse`], over a
//! [`Value`] tree, and the one string escaper, [`Quoted`].
//!
//! Every format that leaves the process as JSON (trace lines, search
//! journals, `BENCH_*.json` artifacts, run reports) keeps its own writer,
//! with its own key order and byte layout, but escapes strings through
//! [`Quoted`]; every reader goes through [`parse`]. The reader is *total*:
//! any input yields `Ok` or `Err`, never a panic, an abort or unbounded
//! recursion. It rejects
//!
//! * duplicate object keys and trailing non-whitespace;
//! * numbers outside the RFC 8259 grammar (`+3`, `01`, `.5`, `1.`);
//! * raw control characters, unknown escapes and lone surrogates in
//!   strings;
//! * nesting deeper than [`MAX_DEPTH`].
//!
//! Numbers stay their raw token text ([`Value::Number`]), so u64s
//! round-trip exactly and this crate stays float-free; a caller that wants
//! a float parses the text itself.

use std::fmt::{self, Write as _};

/// The deepest array/object nesting [`parse`] accepts. The deepest
/// committed document, a `BENCH_*.json` artifact, nests 4 levels.
pub const MAX_DEPTH: usize = 64;

/// A parsed JSON value.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` or `false`.
    Bool(bool),
    /// A number, kept as its raw RFC 8259 token text.
    Number(String),
    /// A string, unescaped.
    String(String),
    /// An array.
    Array(Vec<Value>),
    /// An object's members in document order; keys are unique.
    Object(Vec<(String, Value)>),
}

impl Value {
    /// The string, if this is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// The raw number text, if this is a number.
    pub fn as_number(&self) -> Option<&str> {
        match self {
            Value::Number(raw) => Some(raw),
            _ => None,
        }
    }

    /// The value as a u64: a number with no sign, fraction or exponent
    /// that fits.
    pub fn as_u64(&self) -> Option<u64> {
        let raw = self.as_number()?;
        if raw.bytes().all(|b| b.is_ascii_digit()) {
            raw.parse().ok()
        } else {
            None
        }
    }

    /// The items, if this is an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The members, if this is an object.
    pub fn as_object(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Object(members) => Some(members),
            _ => None,
        }
    }

    /// The member `key` of an object, or an error naming the key.
    pub fn field(&self, key: &str) -> Result<&Value, String> {
        self.as_object()
            .and_then(|members| members.iter().find_map(|(k, v)| (k == key).then_some(v)))
            .ok_or_else(|| format!("missing field '{key}'"))
    }

    /// The member `key` as a u64 (see [`Value::as_u64`]).
    pub fn u64_field(&self, key: &str) -> Result<u64, String> {
        self.field(key)?.as_u64().ok_or_else(|| format!("field '{key}' is not a u64"))
    }

    /// The member `key` as a string.
    pub fn str_field(&self, key: &str) -> Result<&str, String> {
        self.field(key)?.as_str().ok_or_else(|| format!("field '{key}' is not a string"))
    }
}

/// A syntax error and the byte offset where it was found.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Error {
    /// Byte offset into the input.
    pub offset: usize,
    /// What went wrong.
    pub message: &'static str,
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid JSON at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for Error {}

/// Parse one complete JSON document; only whitespace may follow it.
pub fn parse(text: &str) -> Result<Value, Error> {
    let mut p = Parser { text, pos: 0 };
    let value = p.value(0)?;
    p.skip_ws();
    if p.pos < text.len() {
        return Err(p.error("trailing characters after the document"));
    }
    Ok(value)
}

struct Parser<'a> {
    text: &'a str,
    pos: usize,
}

impl Parser<'_> {
    fn error(&self, message: &'static str) -> Error {
        Error { offset: self.pos, message }
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        Some(b)
    }

    fn eat(&mut self, b: u8) -> bool {
        let hit = self.peek() == Some(b);
        self.pos += usize::from(hit);
        hit
    }

    fn skip_ws(&mut self) {
        let bytes = self.text.as_bytes();
        while self.pos < bytes.len() && matches!(bytes[self.pos], b' ' | b'\t' | b'\n' | b'\r') {
            self.pos += 1;
        }
    }

    fn digits(&mut self) -> usize {
        let (bytes, start) = (self.text.as_bytes(), self.pos);
        while self.pos < bytes.len() && bytes[self.pos].is_ascii_digit() {
            self.pos += 1;
        }
        self.pos - start
    }

    /// One value; `depth` counts the containers already open around it.
    fn value(&mut self, depth: usize) -> Result<Value, Error> {
        self.skip_ws();
        match self.peek() {
            Some(b'{' | b'[') if depth == MAX_DEPTH => Err(self.error("nesting too deep")),
            Some(b'{') => self.object(depth + 1),
            Some(b'[') => self.array(depth + 1),
            Some(b'"') => self.string().map(Value::String),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(_) => Err(self.error("expected a value")),
            None => Err(self.error("unexpected end of input")),
        }
    }

    fn object(&mut self, depth: usize) -> Result<Value, Error> {
        self.pos += 1;
        let mut members: Vec<(String, Value)> = Vec::new();
        self.skip_ws();
        if self.eat(b'}') {
            return Ok(Value::Object(members));
        }
        loop {
            self.skip_ws();
            if self.peek() != Some(b'"') {
                return Err(self.error("expected a string key"));
            }
            let at = self.pos;
            let key = self.string()?;
            if members.iter().any(|(k, _)| *k == key) {
                return Err(Error { offset: at, message: "duplicate key" });
            }
            self.skip_ws();
            if !self.eat(b':') {
                return Err(self.error("expected ':'"));
            }
            let value = self.value(depth)?;
            members.push((key, value));
            self.skip_ws();
            if self.eat(b'}') {
                return Ok(Value::Object(members));
            }
            if !self.eat(b',') {
                return Err(self.error("expected ',' or '}'"));
            }
        }
    }

    fn array(&mut self, depth: usize) -> Result<Value, Error> {
        self.pos += 1;
        let mut items = Vec::new();
        self.skip_ws();
        if self.eat(b']') {
            return Ok(Value::Array(items));
        }
        loop {
            items.push(self.value(depth)?);
            self.skip_ws();
            if self.eat(b']') {
                return Ok(Value::Array(items));
            }
            if !self.eat(b',') {
                return Err(self.error("expected ',' or ']'"));
            }
        }
    }

    fn literal(&mut self, word: &str, value: Value) -> Result<Value, Error> {
        if self.text[self.pos..].starts_with(word) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.error("unknown literal"))
        }
    }

    /// `-? (0 | [1-9][0-9]*) (. [0-9]+)? ([eE] [+-]? [0-9]+)?`
    fn number(&mut self) -> Result<Value, Error> {
        let start = self.pos;
        self.eat(b'-');
        let mut ok = self.eat(b'0') || self.digits() > 0;
        if self.eat(b'.') {
            ok &= self.digits() > 0;
        }
        if self.eat(b'e') || self.eat(b'E') {
            let _sign = self.eat(b'+') || self.eat(b'-');
            ok &= self.digits() > 0;
        }
        if !ok {
            return Err(Error { offset: start, message: "malformed number" });
        }
        Ok(Value::Number(self.text[start..self.pos].to_string()))
    }

    fn string(&mut self) -> Result<String, Error> {
        self.pos += 1;
        let mut out = String::new();
        loop {
            // Runs end only at ASCII bytes, so the slice is on char boundaries.
            let (bytes, run) = (self.text.as_bytes(), self.pos);
            while self.pos < bytes.len() && !matches!(bytes[self.pos], b'"' | b'\\' | 0..=0x1f) {
                self.pos += 1;
            }
            out.push_str(&self.text[run..self.pos]);
            match self.bump() {
                Some(b'"') => return Ok(out),
                Some(b'\\') => out.push(self.escape()?),
                Some(_) => {
                    self.pos -= 1;
                    return Err(self.error("raw control character in string"));
                }
                None => return Err(self.error("unterminated string")),
            }
        }
    }

    fn escape(&mut self) -> Result<char, Error> {
        let c = match self.bump() {
            Some(b'"') => '"',
            Some(b'\\') => '\\',
            Some(b'/') => '/',
            Some(b'b') => '\u{8}',
            Some(b'f') => '\u{c}',
            Some(b'n') => '\n',
            Some(b'r') => '\r',
            Some(b't') => '\t',
            Some(b'u') => {
                let hi = self.hex4()?;
                let code = match hi {
                    0xD800..=0xDBFF => {
                        if !self.text[self.pos..].starts_with("\\u") {
                            return Err(self.error("lone surrogate"));
                        }
                        self.pos += 2;
                        let lo = self.hex4()?;
                        if !(0xDC00..=0xDFFF).contains(&lo) {
                            return Err(self.error("lone surrogate"));
                        }
                        0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                    }
                    0xDC00..=0xDFFF => return Err(self.error("lone surrogate")),
                    _ => hi,
                };
                char::from_u32(code).ok_or_else(|| self.error("invalid code point"))?
            }
            _ => return Err(self.error("unknown escape")),
        };
        Ok(c)
    }

    fn hex4(&mut self) -> Result<u32, Error> {
        let mut code = 0;
        for _ in 0..4 {
            let digit = self.peek().and_then(|b| char::from(b).to_digit(16));
            code = code * 16 + digit.ok_or_else(|| self.error("bad \\u escape"))?;
            self.pos += 1;
        }
        Ok(code)
    }
}

/// A string rendered by `Display` as a JSON string literal: quoted, with
/// `"`, `\` and control characters escaped and everything else verbatim.
/// The workspace's one JSON string escaper.
#[derive(Clone, Copy, Debug)]
pub struct Quoted<'a>(pub &'a str);

impl fmt::Display for Quoted<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_char('"')?;
        for ch in self.0.chars() {
            match ch {
                '"' => f.write_str("\\\"")?,
                '\\' => f.write_str("\\\\")?,
                '\n' => f.write_str("\\n")?,
                '\r' => f.write_str("\\r")?,
                '\t' => f.write_str("\\t")?,
                c if u32::from(c) < 0x20 => write!(f, "\\u{:04x}", u32::from(c))?,
                c => f.write_char(c)?,
            }
        }
        f.write_char('"')
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn documents_parse_into_raw_number_trees() {
        let v = parse(" {\"a\": [1, -0.5e+3, true, null], \"b\": \"x\\u00e9\\ud83d\\ude00\"} ")
            .unwrap();
        let a = v.field("a").unwrap().as_array().unwrap();
        assert_eq!(a[0].as_u64(), Some(1));
        assert_eq!(a[1], Value::Number("-0.5e+3".into()));
        assert_eq!(a[1].as_u64(), None);
        assert_eq!(v.str_field("b").unwrap(), "x\u{e9}\u{1f600}");
        assert_eq!(parse("18446744073709551615").unwrap().as_u64(), Some(u64::MAX));
        assert_eq!(parse("18446744073709551616").unwrap().as_u64(), None);
    }

    #[test]
    fn strictness_rules_reject() {
        for bad in [
            "{\"a\":1,\"a\":2}",
            "{} x",
            "+3",
            "01",
            ".5",
            "1.",
            "1e",
            "-",
            "\"\u{1}\"",
            "\"\\x\"",
            "\"\\ud800\"",
            "\"\\udc00\"",
            "\"\\ud800\\u0041\"",
            "[1,]",
            "{\"a\"}",
            "\u{c}1",
            "",
        ] {
            assert!(parse(bad).is_err(), "{bad:?}");
        }
        let deep = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        assert!(parse(&deep(MAX_DEPTH)).is_ok());
        assert_eq!(parse(&deep(MAX_DEPTH + 1)).unwrap_err().message, "nesting too deep");
    }

    #[test]
    fn quoted_escapes_and_round_trips() {
        let s = "a\"b\\c\nd\re\tf\u{1}g\u{7f}\u{e9}";
        let text = Quoted(s).to_string();
        assert_eq!(text, "\"a\\\"b\\\\c\\nd\\re\\tf\\u0001g\u{7f}\u{e9}\"");
        assert_eq!(parse(&text).unwrap().as_str(), Some(s));
    }
}
