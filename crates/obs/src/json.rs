//! The workspace's one flat-JSON codec: the scanner, the typed field
//! reader and the writer behind every single-line JSON object the
//! workspace reads or writes — `obs` trace lines and the `serve` wire
//! protocol.
//!
//! A flat object maps keys to strings, unsigned integers and booleans;
//! nesting, floats, negative numbers and `null` are syntax errors. A
//! repeated key keeps its last value and a raw control character inside
//! a string is rejected, as in Python's `json` module. The scanner is
//! byte-oriented: verdict streams parse one object per fault, so a
//! string without escapes (all of them, in practice) is borrowed from
//! the line instead of decoded char by char.
//!
//! No serde in this workspace: the writers are `,"key":value` appenders
//! onto a `String` the caller opens with `{` and closes with `}`.

use std::borrow::Cow;
use std::fmt::{self, Write as _};

/// One value of a flat JSON object.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Value<'a> {
    /// A string, borrowed from the line when it has no escapes.
    Str(Cow<'a, str>),
    /// A non-negative integer.
    Num(u64),
    /// A boolean.
    Bool(bool),
}

/// Why a flat JSON line could not be read.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JsonError {
    /// The line is not a flat JSON object: at byte `at`, the scanner
    /// expected or found `what`.
    Syntax { at: usize, what: &'static str },
    /// The required key `key` is absent.
    Missing { key: String },
    /// The key `key` holds a value that is not `want` (`"a string"`, ...).
    WrongType { key: String, want: &'static str },
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JsonError::Syntax { at, what } => write!(f, "byte {at}: {what}"),
            JsonError::Missing { key } => write!(f, "missing field `{key}`"),
            JsonError::WrongType { key, want } => write!(f, "field `{key}` must be {want}"),
        }
    }
}

impl std::error::Error for JsonError {}

/// A Rust type a flat-JSON value reads into: `String`, `u64` or `bool`.
pub trait FromJson: Sized {
    /// The JSON type, as named in a [`JsonError::WrongType`].
    const WANT: &'static str;
    /// The value as `Self`, or `None` when it has another type.
    fn from_json(v: &Value<'_>) -> Option<Self>;
}

impl FromJson for String {
    const WANT: &'static str = "a string";
    fn from_json(v: &Value<'_>) -> Option<Self> {
        match v {
            Value::Str(s) => Some(s.to_string()),
            _ => None,
        }
    }
}

impl FromJson for u64 {
    const WANT: &'static str = "an unsigned integer";
    fn from_json(v: &Value<'_>) -> Option<Self> {
        match v {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }
}

impl FromJson for bool {
    const WANT: &'static str = "a boolean";
    fn from_json(v: &Value<'_>) -> Option<Self> {
        match v {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }
}

/// The fields of one scanned flat object, read by key and type.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fields<'a> {
    /// In line order; lookups search from the back, so a repeated key
    /// reads as its last value without a quadratic dedup at scan time.
    pairs: Vec<(Cow<'a, str>, Value<'a>)>,
}

impl Fields<'_> {
    /// The value of `key` as `T`, or `None` when the key is absent.
    pub fn opt<T: FromJson>(&self, key: &str) -> Result<Option<T>, JsonError> {
        match self.pairs.iter().rev().find(|(k, _)| k == key) {
            None => Ok(None),
            Some((_, v)) => T::from_json(v)
                .map(Some)
                .ok_or_else(|| JsonError::WrongType {
                    key: key.to_string(),
                    want: T::WANT,
                }),
        }
    }

    /// The value of `key` as `T`; an absent key is [`JsonError::Missing`].
    pub fn req<T: FromJson>(&self, key: &str) -> Result<T, JsonError> {
        self.opt(key)?.ok_or_else(|| JsonError::Missing {
            key: key.to_string(),
        })
    }
}

/// Scans one line as a flat JSON object (`{"k":"v","n":3,"b":true}`).
pub fn parse_flat_object(line: &str) -> Result<Fields<'_>, JsonError> {
    let mut s = Scanner { line, i: 0 };
    let mut pairs = Vec::new();
    s.skip_ws();
    s.expect(b'{', "expected '{'")?;
    s.skip_ws();
    if !s.eat(b'}') {
        loop {
            s.skip_ws();
            let key = s.parse_string()?;
            s.skip_ws();
            s.expect(b':', "expected ':'")?;
            s.skip_ws();
            pairs.push((key, s.value()?));
            s.skip_ws();
            if s.eat(b'}') {
                break;
            }
            s.expect(b',', "expected ',' or '}'")?;
        }
    }
    s.skip_ws();
    if s.i != line.len() {
        return Err(s.err("trailing input after object"));
    }
    Ok(Fields { pairs })
}

/// A cursor over one line. Every delimiter it tests is ASCII and no byte
/// of a multi-byte UTF-8 sequence is below 0x80, so slicing the line at
/// the cursor is always on a char boundary.
struct Scanner<'a> {
    line: &'a str,
    i: usize,
}

impl<'a> Scanner<'a> {
    fn err(&self, what: &'static str) -> JsonError {
        JsonError::Syntax { at: self.i, what }
    }

    fn peek(&self) -> Option<u8> {
        self.line.as_bytes().get(self.i).copied()
    }

    fn skip_ws(&mut self) {
        while self.peek().is_some_and(|c| c.is_ascii_whitespace()) {
            self.i += 1;
        }
    }

    /// Consumes `c` if it is next.
    fn eat(&mut self, c: u8) -> bool {
        let hit = self.peek() == Some(c);
        if hit {
            self.i += 1;
        }
        hit
    }

    fn expect(&mut self, c: u8, what: &'static str) -> Result<(), JsonError> {
        if self.eat(c) {
            Ok(())
        } else {
            Err(self.err(what))
        }
    }

    fn value(&mut self) -> Result<Value<'a>, JsonError> {
        match self.peek() {
            Some(b'"') => self.parse_string().map(Value::Str),
            Some(b't') => self.word("true", Value::Bool(true)),
            Some(b'f') => self.word("false", Value::Bool(false)),
            Some(c) if c.is_ascii_digit() => self.number().map(Value::Num),
            _ => Err(self.err("expected string, unsigned integer or boolean")),
        }
    }

    fn word(&mut self, word: &str, v: Value<'a>) -> Result<Value<'a>, JsonError> {
        if !self.line[self.i..].starts_with(word) {
            return Err(self.err("expected 'true' or 'false'"));
        }
        self.i += word.len();
        Ok(v)
    }

    fn number(&mut self) -> Result<u64, JsonError> {
        let start = self.i;
        let mut n: u64 = 0;
        while let Some(d) = self.peek().and_then(|c| (c as char).to_digit(10)) {
            n = n
                .checked_mul(10)
                .and_then(|n| n.checked_add(u64::from(d)))
                .ok_or(JsonError::Syntax {
                    at: start,
                    what: "integer out of range",
                })?;
            self.i += 1;
        }
        if matches!(self.peek(), Some(b'.' | b'e' | b'E')) {
            return Err(self.err("floats are not supported"));
        }
        Ok(n)
    }

    /// Scans a quoted string at the cursor, leaving the cursor past its
    /// closing quote.
    fn parse_string(&mut self) -> Result<Cow<'a, str>, JsonError> {
        self.expect(b'"', "expected string")?;
        let line = self.line;
        let b = line.as_bytes();
        let start = self.i;
        // Fast path: no escapes, so the string is a slice of the line.
        loop {
            match b.get(self.i) {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.i += 1;
                    return Ok(Cow::Borrowed(&line[start..self.i - 1]));
                }
                Some(b'\\') => break,
                Some(&c) if c < 0x20 => return Err(self.err("raw control character in string")),
                Some(_) => self.i += 1,
            }
        }
        // Escape path: seed with the clean prefix, then decode.
        let mut out = String::with_capacity(self.i - start + 16);
        out.push_str(&line[start..self.i]);
        loop {
            match b.get(self.i) {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.i += 1;
                    return Ok(Cow::Owned(out));
                }
                Some(b'\\') => {
                    self.i += 1;
                    out.push(self.escape()?);
                }
                Some(&c) if c < 0x20 => return Err(self.err("raw control character in string")),
                Some(_) => {
                    let run = self.i;
                    while b
                        .get(self.i)
                        .is_some_and(|&c| c != b'"' && c != b'\\' && c >= 0x20)
                    {
                        self.i += 1;
                    }
                    out.push_str(&line[run..self.i]);
                }
            }
        }
    }

    /// Decodes the escape after a backslash; the cursor is on its letter.
    fn escape(&mut self) -> Result<char, JsonError> {
        let c = match self.peek() {
            Some(b'"') => '"',
            Some(b'\\') => '\\',
            Some(b'/') => '/',
            Some(b'b') => '\u{8}',
            Some(b'f') => '\u{c}',
            Some(b'n') => '\n',
            Some(b'r') => '\r',
            Some(b't') => '\t',
            Some(b'u') => {
                self.i += 1;
                return self.unicode();
            }
            _ => return Err(self.err("unknown escape")),
        };
        self.i += 1;
        Ok(c)
    }

    /// Decodes the digits of a `\u` escape; a high surrogate must be
    /// followed by an escaped low one, and the pair is one `char`.
    fn unicode(&mut self) -> Result<char, JsonError> {
        let unpaired = |s: &Self| s.err("unpaired surrogate");
        let mut code = self.hex4()?;
        if (0xD800..0xDC00).contains(&code) {
            if !self.line[self.i..].starts_with("\\u") {
                return Err(unpaired(self));
            }
            self.i += 2;
            let low = self.hex4()?;
            if !(0xDC00..0xE000).contains(&low) {
                return Err(unpaired(self));
            }
            code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
        }
        // Only a lone low surrogate is left without a `char`.
        char::from_u32(code).ok_or_else(|| unpaired(self))
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let mut code = 0;
        for _ in 0..4 {
            let d = self
                .peek()
                .and_then(|c| (c as char).to_digit(16))
                .ok_or_else(|| self.err("bad \\u escape"))?;
            code = code * 16 + d;
            self.i += 1;
        }
        Ok(code)
    }
}

/// Appends `,"key":"value"` to `out`, with `value` escaped. `key` is
/// written verbatim: every caller passes an identifier literal.
pub fn push_str(out: &mut String, key: &str, value: &str) {
    push_key(out, key);
    out.push('"');
    json_escape_into(out, value);
    out.push('"');
}

/// Appends `,"key":n` to `out`.
pub fn push_num(out: &mut String, key: &str, value: u64) {
    push_key(out, key);
    // Formats straight into `out`: no temporary string per field.
    let _ = write!(out, "{value}");
}

/// Appends `,"key":true` or `,"key":false` to `out`.
pub fn push_bool(out: &mut String, key: &str, value: bool) {
    push_key(out, key);
    out.push_str(if value { "true" } else { "false" });
}

fn push_key(out: &mut String, key: &str) {
    out.push_str(",\"");
    out.push_str(key);
    out.push_str("\":");
}

/// Escapes a string for embedding in a JSON string literal: quotes,
/// backslashes and every control character.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    json_escape_into(&mut out, s);
    out
}

/// Appends `s` to `out`, escaped for a JSON string literal: `"` and `\`
/// are backslash-escaped, `\n`, `\r` and `\t` get their short forms, and
/// every other control character below U+0020 becomes `\u00XX`.
pub fn json_escape_into(out: &mut String, s: &str) {
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
}

#[cfg(test)]
mod tests {
    use super::*;

    fn one_str(line: &str) -> Result<String, JsonError> {
        parse_flat_object(line)?.req("k")
    }

    #[test]
    fn duplicate_keys_keep_the_last() {
        let f = parse_flat_object("{\"a\":1,\"a\":2}").expect("duplicate keys parse");
        assert_eq!(f.req::<u64>("a"), Ok(2));
    }

    #[test]
    fn string_escapes_round_trip() {
        let text = "a\"b\\c\nd\te\rf\u{1}g";
        let mut s = String::from("{\"type\":\"x\"");
        push_str(&mut s, "k", text);
        s.push('}');
        assert_eq!(one_str(&s).expect("escaped string parses"), text);
    }

    #[test]
    fn python_escapes_decode() {
        // What `json.dumps` writes for U+1F600, U+0008 and U+000C.
        assert_eq!(
            one_str(r#"{"k":"job-\ud83d\ude00"}"#).expect("surrogate pair decodes"),
            "job-\u{1F600}"
        );
        assert_eq!(
            one_str(r#"{"k":"a\bb\fc"}"#).expect("short escapes decode"),
            "a\u{8}b\u{c}c"
        );
        assert_eq!(
            one_str(r#"{"k":"\u00e9\/"}"#).expect("\\u and solidus escapes decode"),
            "é/"
        );
    }

    #[test]
    fn lone_or_reversed_surrogates_are_syntax_errors() {
        for bad in [
            r#"{"k":"\ud83d"}"#,
            r#"{"k":"\ud83dx"}"#,
            r#"{"k":"\ud83d\u0041"}"#,
            r#"{"k":"\ude00"}"#,
            r#"{"k":"\ude00\ud83d"}"#,
            r#"{"k":"\ud83d\ud83d"}"#,
        ] {
            assert!(
                matches!(one_str(bad), Err(JsonError::Syntax { .. })),
                "accepted: {bad}"
            );
        }
    }

    #[test]
    fn errors_say_which_of_three_things_went_wrong() {
        assert_eq!(
            one_str("{\"k\":\"a\tb\"}"),
            Err(JsonError::Syntax {
                at: 7,
                what: "raw control character in string"
            })
        );
        assert_eq!(
            one_str("{\"j\":\"x\"}"),
            Err(JsonError::Missing { key: "k".into() })
        );
        assert_eq!(
            one_str("{\"k\":7}"),
            Err(JsonError::WrongType {
                key: "k".into(),
                want: "a string"
            })
        );
        for bad in [
            "{\"k\":1e3}",
            "{\"k\":tru}",
            "{\"k\":{}}",
            "{\"k\":\"\\x\"}",
        ] {
            assert!(
                matches!(parse_flat_object(bad), Err(JsonError::Syntax { .. })),
                "accepted: {bad}"
            );
        }
    }

    #[test]
    fn appenders_write_the_wire_bytes() {
        let mut s = String::from("{\"type\":\"t\"");
        push_num(&mut s, "n", u64::MAX);
        push_bool(&mut s, "b", false);
        push_str(&mut s, "s", "é\u{1f}");
        s.push('}');
        assert_eq!(
            s,
            "{\"type\":\"t\",\"n\":18446744073709551615,\"b\":false,\"s\":\"é\\u001f\"}"
        );
        let f = parse_flat_object(&s).expect("appended line parses");
        assert_eq!(f.req::<u64>("n"), Ok(u64::MAX));
        assert_eq!(f.req::<bool>("b"), Ok(false));
    }
}
