//! Offline shim for the subset of `serde_json` this workspace uses:
//! `to_string`, `to_string_pretty`, `to_vec`, `from_str`, `from_slice`
//! plus `to_value`/`from_value`, all over the `serde` shim's
//! JSON-shaped [`Value`] tree.

use serde::{DeError, Deserialize, Number, Serialize};
use std::fmt;

pub use serde::Value;

/// Serialization/deserialization error.
#[derive(Clone, Debug)]
pub struct Error(String);

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for Error {}

impl From<DeError> for Error {
    fn from(e: DeError) -> Self {
        Error(e.0)
    }
}

pub fn to_value<T: Serialize>(value: &T) -> Result<Value, Error> {
    Ok(value.to_value())
}

pub fn from_value<T: Deserialize>(value: &Value) -> Result<T, Error> {
    Ok(T::from_value(value)?)
}

pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_value(&mut out, &value.to_value(), None, 0);
    Ok(out)
}

pub fn to_string_pretty<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_value(&mut out, &value.to_value(), Some("  "), 0);
    Ok(out)
}

pub fn to_vec<T: Serialize + ?Sized>(value: &T) -> Result<Vec<u8>, Error> {
    to_string(value).map(String::into_bytes)
}

pub fn from_str<T: Deserialize>(s: &str) -> Result<T, Error> {
    let value = parse_value(s)?;
    Ok(T::from_value(&value)?)
}

pub fn from_slice<T: Deserialize>(bytes: &[u8]) -> Result<T, Error> {
    let s = std::str::from_utf8(bytes).map_err(|e| Error(format!("invalid UTF-8: {e}")))?;
    from_str(s)
}

// ---- printer ---------------------------------------------------------

fn write_value(out: &mut String, v: &Value, indent: Option<&str>, depth: usize) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(true) => out.push_str("true"),
        Value::Bool(false) => out.push_str("false"),
        Value::Number(n) => write_number(out, *n),
        Value::String(s) => write_json_string(out, s),
        Value::Array(items) => {
            if items.is_empty() {
                out.push_str("[]");
                return;
            }
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline_indent(out, indent, depth + 1);
                write_value(out, item, indent, depth + 1);
            }
            newline_indent(out, indent, depth);
            out.push(']');
        }
        Value::Object(fields) => {
            if fields.is_empty() {
                out.push_str("{}");
                return;
            }
            out.push('{');
            for (i, (k, item)) in fields.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline_indent(out, indent, depth + 1);
                write_json_string(out, k);
                out.push(':');
                if indent.is_some() {
                    out.push(' ');
                }
                write_value(out, item, indent, depth + 1);
            }
            newline_indent(out, indent, depth);
            out.push('}');
        }
    }
}

fn newline_indent(out: &mut String, indent: Option<&str>, depth: usize) {
    if let Some(unit) = indent {
        out.push('\n');
        for _ in 0..depth {
            out.push_str(unit);
        }
    }
}

fn write_number(out: &mut String, n: Number) {
    match n {
        Number::U64(v) => out.push_str(&v.to_string()),
        Number::I64(v) => out.push_str(&v.to_string()),
        Number::F64(v) if v.is_finite() => {
            // {:?} keeps a decimal point on integral floats ("1.0"),
            // matching serde_json, and prints the shortest round-trip
            // representation otherwise.
            out.push_str(&format!("{v:?}"));
        }
        // JSON has no NaN/Infinity; serde_json errors, we emit null.
        Number::F64(_) => out.push_str("null"),
    }
}

fn write_json_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

// ---- parser ----------------------------------------------------------

/// Deepest nesting of arrays and objects the parser accepts, as in
/// upstream `serde_json`.
const RECURSION_LIMIT: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects open at `pos`.
    depth: usize,
}

fn parse_value(s: &str) -> Result<Value, Error> {
    let mut p = Parser {
        bytes: s.as_bytes(),
        pos: 0,
        depth: 0,
    };
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(Error(format!("trailing data at byte {}", p.pos)));
    }
    Ok(v)
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while let Some(b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), Error> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(Error(format!(
                "expected '{}' at byte {}",
                b as char, self.pos
            )))
        }
    }

    fn eat_literal(&mut self, lit: &str) -> bool {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            true
        } else {
            false
        }
    }

    fn value(&mut self) -> Result<Value, Error> {
        self.skip_ws();
        match self.peek() {
            Some(b'n') if self.eat_literal("null") => Ok(Value::Null),
            Some(b't') if self.eat_literal("true") => Ok(Value::Bool(true)),
            Some(b'f') if self.eat_literal("false") => Ok(Value::Bool(false)),
            Some(b'"') => self.string().map(Value::String),
            Some(b'[') => self.nested(Self::array),
            Some(b'{') => self.nested(Self::object),
            Some(b) if b == b'-' || b.is_ascii_digit() => self.number(),
            other => Err(Error(format!(
                "unexpected {:?} at byte {}",
                other.map(|b| b as char),
                self.pos
            ))),
        }
    }

    /// Parse one array or object one level deeper, refusing to go past
    /// [`RECURSION_LIMIT`] levels: the parser recurses per level, so
    /// unbounded nesting would overflow the stack.
    fn nested(&mut self, parse: fn(&mut Self) -> Result<Value, Error>) -> Result<Value, Error> {
        if self.depth == RECURSION_LIMIT {
            return Err(Error(format!(
                "recursion limit exceeded at byte {}",
                self.pos
            )));
        }
        self.depth += 1;
        let value = parse(self);
        self.depth -= 1;
        value
    }

    fn array(&mut self) -> Result<Value, Error> {
        self.pos += 1;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => return Err(Error(format!("bad array at byte {}", self.pos))),
            }
        }
    }

    fn object(&mut self) -> Result<Value, Error> {
        self.pos += 1;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            let val = self.value()?;
            fields.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(fields));
                }
                _ => return Err(Error(format!("bad object at byte {}", self.pos))),
            }
        }
    }

    fn string(&mut self) -> Result<String, Error> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let b = self
                .peek()
                .ok_or_else(|| Error("unterminated string".into()))?;
            self.pos += 1;
            match b {
                b'"' => return Ok(out),
                b'\\' => {
                    let esc = self
                        .peek()
                        .ok_or_else(|| Error("unterminated escape".into()))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .ok_or_else(|| Error("truncated \\u escape".into()))?;
                            let hex = std::str::from_utf8(hex)
                                .map_err(|_| Error("bad \\u escape".into()))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| Error("bad \\u escape".into()))?;
                            self.pos += 4;
                            // Surrogate pairs are not reconstructed;
                            // our printer never emits them.
                            out.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                        }
                        other => {
                            return Err(Error(format!("bad escape '\\{}'", other as char)));
                        }
                    }
                }
                _ => {
                    // Re-decode the UTF-8 sequence starting here.
                    let start = self.pos - 1;
                    let len = utf8_len(b);
                    let end = start + len;
                    let chunk = self
                        .bytes
                        .get(start..end)
                        .ok_or_else(|| Error("truncated UTF-8".into()))?;
                    let s =
                        std::str::from_utf8(chunk).map_err(|_| Error("invalid UTF-8".into()))?;
                    out.push_str(s);
                    self.pos = end;
                }
            }
        }
    }

    fn number(&mut self) -> Result<Value, Error> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| Error("invalid number".into()))?;
        if !is_float {
            if let Ok(u) = text.parse::<u64>() {
                return Ok(Value::Number(Number::U64(u)));
            }
            if let Ok(i) = text.parse::<i64>() {
                return Ok(Value::Number(Number::I64(i)));
            }
        }
        text.parse::<f64>()
            .map(|f| Value::Number(Number::F64(f)))
            .map_err(|_| Error(format!("invalid number '{text}'")))
    }
}

fn utf8_len(first: u8) -> usize {
    match first {
        0x00..=0x7F => 1,
        0xC0..=0xDF => 2,
        0xE0..=0xEF => 3,
        _ => 4,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_round_trip() {
        for json in ["null", "true", "false", "42", "-7", "1.5", "\"hi\""] {
            let v = parse_value(json).unwrap();
            assert_eq!(to_string(&v).unwrap(), json);
        }
    }

    #[test]
    fn containers_round_trip() {
        let json = r#"{"a":[1,2,3],"b":{"c":null,"d":"x"}}"#;
        let v = parse_value(json).unwrap();
        assert_eq!(to_string(&v).unwrap(), json);
    }

    #[test]
    fn pretty_printing_is_reparseable() {
        let json = r#"{"a":[1,2],"b":"x"}"#;
        let v = parse_value(json).unwrap();
        let pretty = to_string_pretty(&v).unwrap();
        assert!(pretty.contains("\n  \"a\": ["));
        assert_eq!(parse_value(&pretty).unwrap(), v);
    }

    #[test]
    fn string_escapes_round_trip() {
        let original = "line\nquote\"back\\slash\ttab\u{1}".to_string();
        let json = to_string(&original).unwrap();
        let back: String = from_str(&json).unwrap();
        assert_eq!(back, original);
    }

    #[test]
    fn unicode_passes_through() {
        let original = "héllo → 世界".to_string();
        let back: String = from_str(&to_string(&original).unwrap()).unwrap();
        assert_eq!(back, original);
    }

    #[test]
    fn integral_floats_keep_decimal_point() {
        assert_eq!(to_string(&1.0f64).unwrap(), "1.0");
        assert_eq!(to_string(&0.5f64).unwrap(), "0.5");
    }

    #[test]
    fn typed_round_trip_through_bytes() {
        let rows = vec![(1u64, 2.5f64), (3, 4.0)];
        let bytes = to_vec(&rows).unwrap();
        let back: Vec<(u64, f64)> = from_slice(&bytes).unwrap();
        assert_eq!(back, rows);
    }

    #[test]
    fn nesting_past_the_recursion_limit_is_an_error_not_a_stack_overflow() {
        let nest = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        assert!(parse_value(&nest(RECURSION_LIMIT)).is_ok());
        let err = parse_value(&nest(RECURSION_LIMIT + 1)).unwrap_err();
        assert_eq!(err.to_string(), "recursion limit exceeded at byte 128");
        let err = parse_value(&"{\"a\":".repeat(RECURSION_LIMIT + 1)).unwrap_err();
        assert!(err.to_string().starts_with("recursion limit exceeded"));
        // Far deeper than any thread stack holds, unclosed as well.
        assert!(parse_value(&"[".repeat(200_000)).is_err());
    }

    #[test]
    fn errors_on_garbage() {
        assert!(parse_value("{").is_err());
        assert!(parse_value("[1,]").is_err());
        assert!(parse_value("12 34").is_err());
        assert!(from_slice::<u64>(b"\xff\xfe").is_err());
    }
}
