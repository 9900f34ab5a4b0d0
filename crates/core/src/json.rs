//! The one JSON codec shared by every format in the workspace.
//!
//! Writers keep their `format!` templates, each one its format's
//! byte-level spec, and fill values in with [`push_str`] and [`push_f64`]
//! (or [`F64`] inside a template). Readers go through [`parse`]: strict
//! RFC 8259 with borrowed values and byte-offset errors. A torn line, a
//! non-JSON number (`.5`, `5.`, `+5`, `01`, `NaN`), a duplicate key, a
//! lone surrogate and nesting deeper than [`MAX_DEPTH`] are all errors.

use std::borrow::Cow;
use std::fmt::{self, Write};

/// Deepest array/object nesting [`parse`] accepts (the formats here nest
/// at most four levels); it keeps a hostile `[[[…` body off the stack.
pub const MAX_DEPTH: usize = 64;

/// A parsed value, borrowing from the source text where it can.
#[derive(Debug, Clone, PartialEq)]
pub enum Value<'a> {
    /// `null`.
    Null,
    /// `true` or `false`.
    Bool(bool),
    /// A number as its grammar-checked source text, so conversions are
    /// exact: integers above 2^53 included.
    Num(Cow<'a, str>),
    /// A string with its escapes decoded.
    Str(Cow<'a, str>),
    /// An array.
    Arr(Vec<Value<'a>>),
    /// An object's members in source order; keys are unique.
    Obj(Vec<(Cow<'a, str>, Value<'a>)>),
}

impl<'a> Value<'a> {
    /// The member named `key` of an object.
    pub fn get(&self, key: &str) -> Option<&Value<'a>> {
        match self {
            Value::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// A string's content.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// A number converted by `str::parse`: exact for any integer type it
    /// fits, correctly rounded (so bit-exact round trips) for floats.
    pub fn as_num<T: std::str::FromStr>(&self) -> Option<T> {
        match self {
            Value::Num(text) => text.parse().ok(),
            _ => None,
        }
    }

    /// [`as_num`](Value::as_num) as an `f64`.
    pub fn as_f64(&self) -> Option<f64> {
        self.as_num()
    }

    /// [`as_num`](Value::as_num) as a `u64`.
    pub fn as_u64(&self) -> Option<u64> {
        self.as_num()
    }

    /// A boolean's value.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// An array's elements.
    pub fn as_array(&self) -> Option<&[Value<'a>]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The same value, no longer borrowing the source text.
    pub fn into_owned(self) -> Value<'static> {
        let own = |s: Cow<'a, str>| Cow::Owned(s.into_owned());
        match self {
            Value::Null => Value::Null,
            Value::Bool(b) => Value::Bool(b),
            Value::Num(text) => Value::Num(own(text)),
            Value::Str(s) => Value::Str(own(s)),
            Value::Arr(items) => Value::Arr(items.into_iter().map(Value::into_owned).collect()),
            Value::Obj(members) => Value::Obj(
                members
                    .into_iter()
                    .map(|(k, v)| (own(k), v.into_owned()))
                    .collect(),
            ),
        }
    }
}

/// Where and why [`parse`] refused its input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Error {
    /// Byte offset of the failure in the input.
    pub offset: usize,
    /// What was wrong there.
    pub msg: &'static str,
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.msg, self.offset)
    }
}

impl std::error::Error for Error {}

/// Parse exactly one JSON value, with optional surrounding whitespace.
pub fn parse(text: &str) -> Result<Value<'_>, Error> {
    let mut r = Reader { text, pos: 0 };
    let value = r.value(0)?;
    r.ws();
    if r.pos < text.len() {
        return Err(r.err("trailing bytes after the value"));
    }
    Ok(value)
}

struct Reader<'a> {
    text: &'a str,
    pos: usize,
}

impl<'a> Reader<'a> {
    fn err(&self, msg: &'static str) -> Error {
        Error {
            offset: self.pos,
            msg,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    /// Step past the next byte if it is one of `set`.
    fn skip(&mut self, set: &[u8]) -> bool {
        let hit = self.peek().is_some_and(|b| set.contains(&b));
        self.pos += usize::from(hit);
        hit
    }

    fn eat(&mut self, want: &[u8], msg: &'static str) -> Result<(), Error> {
        match self.skip(want) {
            true => Ok(()),
            false => Err(self.err(msg)),
        }
    }

    fn ws(&mut self) {
        while self.skip(b" \t\n\r") {}
    }

    /// One value after optional whitespace; `depth` counts the arrays and
    /// objects around it.
    fn value(&mut self, depth: usize) -> Result<Value<'a>, Error> {
        self.ws();
        let start = self.pos;
        match self.peek() {
            Some(b'{') => {
                let members = self.seq(depth + 1, b'}', |r| {
                    let key = r.string()?;
                    r.ws();
                    r.eat(b":", "expected ':'")?;
                    Ok((key, r.value(depth + 1)?))
                })?;
                // Sorting keeps a hostile many-key object at O(k log k).
                let mut keys: Vec<&str> = members.iter().map(|(k, _)| k.as_ref()).collect();
                keys.sort_unstable();
                if keys.windows(2).any(|w| w[0] == w[1]) {
                    return Err(Error {
                        offset: start,
                        msg: "duplicate key in object",
                    });
                }
                Ok(Value::Obj(members))
            }
            Some(b'[') => self
                .seq(depth + 1, b']', |r| r.value(depth + 1))
                .map(Value::Arr),
            Some(b'"') => self.string().map(Value::Str),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(_) => Err(self.err("expected a value")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    /// `open item (',' item)* close`, the shape arrays and objects share;
    /// the cursor sits on the opening bracket.
    fn seq<T>(
        &mut self,
        depth: usize,
        close: u8,
        mut item: impl FnMut(&mut Self) -> Result<T, Error>,
    ) -> Result<Vec<T>, Error> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting deeper than MAX_DEPTH"));
        }
        self.pos += 1;
        self.ws();
        let mut out = Vec::new();
        if self.skip(&[close]) {
            return Ok(out);
        }
        loop {
            self.ws();
            out.push(item(self)?);
            self.ws();
            if self.skip(&[close]) {
                return Ok(out);
            }
            self.eat(b",", "expected ',' or a closing bracket")?;
        }
    }

    fn literal(&mut self, word: &'static str, value: Value<'a>) -> Result<Value<'a>, Error> {
        if !self.text[self.pos..].starts_with(word) {
            return Err(self.err("expected a value"));
        }
        self.pos += word.len();
        Ok(value)
    }

    /// `-? (0 | [1-9][0-9]*) (. [0-9]+)? ([eE] [+-]? [0-9]+)?`
    fn number(&mut self) -> Result<Value<'a>, Error> {
        let start = self.pos;
        self.skip(b"-");
        if !self.skip(b"0") {
            self.digits()?;
        }
        if self.skip(b".") {
            self.digits()?;
        }
        if self.skip(b"eE") {
            self.skip(b"+-");
            self.digits()?;
        }
        Ok(Value::Num(Cow::Borrowed(&self.text[start..self.pos])))
    }

    fn digits(&mut self) -> Result<(), Error> {
        self.eat(b"0123456789", "expected a digit")?;
        while self.skip(b"0123456789") {}
        Ok(())
    }

    /// A quoted string, borrowed unless it holds escapes.
    fn string(&mut self) -> Result<Cow<'a, str>, Error> {
        self.eat(b"\"", "expected a string")?;
        let mut owned: Option<String> = None;
        let mut run = self.pos;
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    let tail = &self.text[run..self.pos];
                    self.pos += 1;
                    return Ok(match owned {
                        None => Cow::Borrowed(tail),
                        Some(s) => Cow::Owned(s + tail),
                    });
                }
                Some(b'\\') => {
                    let s = owned.get_or_insert_with(String::new);
                    s.push_str(&self.text[run..self.pos]);
                    self.pos += 1;
                    s.push(self.escape()?);
                    run = self.pos;
                }
                Some(..=0x1f) => return Err(self.err("raw control character in string")),
                Some(_) => self.pos += 1,
            }
        }
    }

    /// The escape after a backslash. A `\u` high surrogate must be
    /// followed by a `\u` low surrogate; the pair is one character.
    fn escape(&mut self) -> Result<char, Error> {
        let at = self.pos - 1;
        let bad = |msg| Error { offset: at, msg };
        let lone = bad("lone surrogate in \\u escape");
        let b = self.peek().ok_or(bad("unterminated string"))?;
        self.pos += 1;
        if let Some(i) = b"\"\\/bfnrt".iter().position(|&e| e == b) {
            return Ok(['"', '\\', '/', '\u{8}', '\u{c}', '\n', '\r', '\t'][i]);
        }
        if b != b'u' {
            return Err(bad("invalid escape"));
        }
        let mut code = self.hex4()?;
        if (0xD800..0xDC00).contains(&code) && self.text[self.pos..].starts_with("\\u") {
            self.pos += 2;
            let low = self.hex4()?;
            if !(0xDC00..0xE000).contains(&low) {
                return Err(lone);
            }
            code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
        }
        // Only a surrogate left unpaired is not a char.
        char::from_u32(code).ok_or(lone)
    }

    fn hex4(&mut self) -> Result<u32, Error> {
        let code = (self.text.get(self.pos..self.pos + 4))
            .filter(|h| h.bytes().all(|b| b.is_ascii_hexdigit()))
            .and_then(|h| u32::from_str_radix(h, 16).ok())
            .ok_or(self.err("expected four hex digits"))?;
        self.pos += 4;
        Ok(code)
    }
}

/// Append `s` as the body of a JSON string (the caller writes the
/// quotes): `"` and `\` are backslash-escaped, control characters become
/// `\u00XX`, and everything else is copied as is.
pub fn push_str(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            ..='\u{1f}' => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

/// Append `v` in Rust's shortest round-trip `{}` form, or `null` when it
/// is not finite (JSON has no `inf` or `NaN`).
pub fn push_f64(out: &mut String, v: f64) {
    let _ = write!(out, "{}", F64(v));
}

/// [`push_f64`]'s encoding as a `Display` value, for `format!` templates.
#[derive(Debug, Clone, Copy)]
pub struct F64(pub f64);

impl fmt::Display for F64 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.0.is_finite() {
            true => fmt::Display::fmt(&self.0, f),
            false => f.write_str("null"),
        }
    }
}
