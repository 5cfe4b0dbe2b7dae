//! The workspace's one JSON reader/writer: string escaping, a [`Value`]
//! tree, its writer (`Display`) and a strict parser.
//!
//! The exporters that stream large documents (Chrome traces, flight
//! dumps) write their own punctuation and call [`escape`] for strings;
//! the bench harness builds [`Value`]s and formats them. Everything
//! that reads JSON back (`arkfs-bench check`) goes through [`parse`].

use std::fmt::{self, Write};

/// Append `s` with JSON string escaping (no surrounding quotes).
pub fn escape(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

/// A JSON value. Objects keep their keys in document order.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Value>),
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// An object of numbers, the shape of every bench metric map.
    pub fn nums<K: AsRef<str>>(fields: &[(K, f64)]) -> Value {
        let field = |(k, v): &(K, f64)| (k.as_ref().to_string(), Value::Num(*v));
        Value::Obj(fields.iter().map(field).collect())
    }

    pub fn get(&self, key: &str) -> Option<&Value> {
        self.fields().iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// An object's fields in document order (empty for other values).
    pub fn fields(&self) -> &[(String, Value)] {
        match self {
            Value::Obj(fields) => fields,
            _ => &[],
        }
    }

    pub fn as_num(&self) -> Option<f64> {
        match self {
            Value::Num(v) => Some(*v),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }
}

/// One-line rendering with `": "` and `", "` separators. JSON has no
/// NaN/Infinity: a non-finite number is written as `null`.
impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let quoted = |f: &mut fmt::Formatter<'_>, s: &str| {
            let mut out = String::with_capacity(s.len());
            escape(&mut out, s);
            write!(f, "\"{out}\"")
        };
        match self {
            Value::Null => f.write_str("null"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Num(v) if v.is_finite() => write!(f, "{v}"),
            Value::Num(_) => f.write_str("null"),
            Value::Str(s) => quoted(f, s),
            Value::Arr(items) => {
                f.write_char('[')?;
                for (i, item) in items.iter().enumerate() {
                    write!(f, "{}{item}", if i > 0 { ", " } else { "" })?;
                }
                f.write_char(']')
            }
            Value::Obj(fields) => {
                f.write_char('{')?;
                for (i, (key, value)) in fields.iter().enumerate() {
                    f.write_str(if i > 0 { ", " } else { "" })?;
                    quoted(f, key)?;
                    write!(f, ": {value}")?;
                }
                f.write_char('}')
            }
        }
    }
}

/// Containers nested deeper than this are rejected, so hostile input
/// cannot overflow the parser's stack.
const MAX_DEPTH: usize = 64;

/// Parse one JSON document. Errors name the byte offset; malformed
/// input of any kind is an `Err`, never a panic.
pub fn parse(text: &str) -> Result<Value, String> {
    let mut p = Parser { text, pos: 0 };
    let v = p.value(0)?;
    p.skip_ws();
    if p.pos != text.len() {
        return Err(p.err("trailing data"));
    }
    Ok(v)
}

/// `pos` only ever stops on an ASCII byte or at the end of `text`, so
/// it is always a character boundary.
struct Parser<'a> {
    text: &'a str,
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, what: &str) -> String {
        format!("{what} at byte {}", self.pos)
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, lit: &str) -> Result<(), String> {
        if !self.text[self.pos..].starts_with(lit) {
            return Err(self.err(&format!("expected '{lit}'")));
        }
        self.pos += lit.len();
        Ok(())
    }

    fn value(&mut self, depth: usize) -> Result<Value, String> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.sequence(b'}', |p| p.field(depth)).map(Value::Obj),
            Some(b'[') => self.sequence(b']', |p| p.value(depth + 1)).map(Value::Arr),
            Some(b'"') => self.string().map(Value::Str),
            Some(b't') => self.eat("true").map(|_| Value::Bool(true)),
            Some(b'f') => self.eat("false").map(|_| Value::Bool(false)),
            Some(b'n') => self.eat("null").map(|_| Value::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.err("unexpected character")),
        }
    }

    fn field(&mut self, depth: usize) -> Result<(String, Value), String> {
        self.skip_ws();
        let key = self.string()?;
        self.skip_ws();
        self.eat(":")?;
        Ok((key, self.value(depth + 1)?))
    }

    /// The comma-separated items of an array or object, the opening
    /// bracket under the cursor, up to and including `close`.
    fn sequence<T>(
        &mut self,
        close: u8,
        mut item: impl FnMut(&mut Self) -> Result<T, String>,
    ) -> Result<Vec<T>, String> {
        self.pos += 1;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(close) {
            self.pos += 1;
            return Ok(items);
        }
        loop {
            items.push(item(self)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(c) if c == close => {
                    self.pos += 1;
                    return Ok(items);
                }
                _ => return Err(self.err(&format!("expected ',' or '{}'", close as char))),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat("\"")?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            while matches!(self.peek(), Some(c) if c != b'"' && c != b'\\') {
                self.pos += 1;
            }
            out.push_str(&self.text[start..self.pos]);
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => self.pos += 1,
                _ => return Err(self.err("unterminated string")),
            }
            out.push(match self.peek() {
                Some(b'"') => '"',
                Some(b'\\') => '\\',
                Some(b'/') => '/',
                Some(b'n') => '\n',
                Some(b't') => '\t',
                Some(b'r') => '\r',
                Some(b'b') => '\u{8}',
                Some(b'f') => '\u{c}',
                Some(b'u') => {
                    let code = (self.text.get(self.pos + 1..self.pos + 5))
                        .filter(|hex| hex.bytes().all(|b| b.is_ascii_hexdigit()))
                        .and_then(|hex| u32::from_str_radix(hex, 16).ok())
                        .ok_or_else(|| self.err("bad \\u escape"))?;
                    self.pos += 4;
                    char::from_u32(code).unwrap_or('\u{fffd}')
                }
                _ => return Err(self.err("bad escape")),
            });
            self.pos += 1;
        }
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        while matches!(self.peek(), Some(c) if c.is_ascii_digit() || b"+-.eE".contains(&c)) {
            self.pos += 1;
        }
        match self.text[start..self.pos].parse::<f64>() {
            Ok(v) if v.is_finite() => Ok(Value::Num(v)),
            _ => Err(self.err("bad number")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_inverts_write() {
        let arr = |items: &[Value]| Value::Arr(items.to_vec());
        let v = Value::Obj(vec![
            ("s".into(), Value::Str("a\"b\\c\n\u{1}é".into())),
            ("n".into(), arr(&[Value::Num(-0.5), Value::Num(1e21)])),
            ("m".into(), Value::nums(&[("x", 417.26), ("y", 100000.0)])),
            ("e".into(), arr(&[Value::Obj(vec![]), Value::Null])),
            ("b".into(), Value::Bool(true)),
        ]);
        assert_eq!(parse(&v.to_string()), Ok(v));
        assert_eq!(Value::Num(f64::NAN).to_string(), "null");
        let flat = Value::nums(&[("a", 1.0), ("b", 2.5)]).to_string();
        assert_eq!(flat, "{\"a\": 1, \"b\": 2.5}");
        let unescaped = parse(" [\"\\u00e9\\/\"] ");
        assert_eq!(unescaped, Ok(arr(&[Value::Str("é/".into())])));
    }

    #[test]
    fn malformed_input_is_an_error_never_a_panic() {
        let deep = "[".repeat(100_000);
        let truncated = ["", "{\"a\": [1, 2", "\"abc", "\"\\", "tru", "-", "\"é\\"];
        let bad_escape = [
            "\"\\u12\"",
            "\"\\u12g4\"",
            "\"\\u+123\"",
            "\"\\q\"",
            "\"\\é\"",
        ];
        let other = ["{} x", "NaN", "1e999", "{\"a\" 1}", "[1 2]", deep.as_str()];
        for bad in truncated.iter().chain(&bad_escape).chain(&other) {
            let shown: String = bad.chars().take(20).collect();
            assert!(parse(bad).is_err(), "accepted {shown:?}");
        }
    }
}
