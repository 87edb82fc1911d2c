//! Offline stand-in for `serde_json`: the [`json!`] macro, a [`Value`]
//! tree, [`to_string_pretty`] and a [`from_str`] parser — the subset the
//! workspace uses to dump tables/figures and to load declarative scenario
//! specs. No registry access in the build environment, so this lives
//! in-tree as a path dependency. Object keys keep insertion order;
//! non-finite floats serialize as `null` like real `serde_json`.

use std::fmt::Write as _;

/// A JSON value tree.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number (stored as the originating Rust number).
    Number(Number),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<Value>),
    /// An object, in insertion order.
    Object(Vec<(String, Value)>),
}

/// A JSON number: integer or finite float.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Number {
    /// Signed integer.
    Int(i64),
    /// Unsigned integer too large for `i64`.
    UInt(u64),
    /// Finite float (non-finite floats become [`Value::Null`]).
    Float(f64),
}

/// Serialization or parse failure. The in-tree `Value` tree is always
/// serializable, so serialization never constructs one; [`from_str`]
/// returns it with a message describing the first syntax error.
#[derive(Debug)]
pub struct Error(String);

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for Error {}

impl Value {
    /// Object field lookup; `None` on non-objects and missing keys.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a float (integers widen); `None` otherwise.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(Number::Int(v)) => Some(*v as f64),
            Value::Number(Number::UInt(v)) => Some(*v as f64),
            Value::Number(Number::Float(v)) => Some(*v),
            _ => None,
        }
    }

    /// The value as a non-negative integer; `None` otherwise. Floats are
    /// never integers (matching real `serde_json`), so `42.0` is `None`.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Number(Number::Int(v)) => u64::try_from(*v).ok(),
            Value::Number(Number::UInt(v)) => Some(*v),
            _ => None,
        }
    }

    /// The value as a string slice; `None` on non-strings.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a bool; `None` on non-bools.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an array slice; `None` on non-arrays.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(items) => Some(items),
            _ => None,
        }
    }
}

/// Parses a JSON document into a [`Value`].
///
/// Supports the full JSON grammar the serializer emits: objects, arrays,
/// strings with `\"\\/bfnrt` and `\uXXXX` escapes, numbers (integers stay
/// integers, anything with `.`/`e` becomes a float), booleans and `null`.
/// Trailing non-whitespace input is an error.
pub fn from_str(s: &str) -> Result<Value, Error> {
    let mut p = Parser {
        text: s,
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let v = p.parse_value()?;
    p.skip_ws();
    if p.pos != s.len() {
        return Err(p.err("trailing characters after the JSON document"));
    }
    Ok(v)
}

/// Containers may nest at most this deep (real `serde_json`'s default is
/// also 128); past it the parser errors instead of blowing the stack on
/// hostile input like `"[".repeat(1 << 20)`.
const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    text: &'a str,
    pos: usize,
    depth: usize,
}

impl Parser<'_> {
    fn err(&self, msg: &str) -> Error {
        Error(format!("json parse error at byte {}: {msg}", self.pos))
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, c: u8) -> Result<(), Error> {
        if self.peek() == Some(c) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected `{}`", c as char)))
        }
    }

    fn parse_value(&mut self) -> Result<Value, Error> {
        match self.peek() {
            Some(b'{') => self.parse_object(),
            Some(b'[') => self.parse_array(),
            Some(b'"') => Ok(Value::String(self.parse_string()?)),
            Some(b't') => self.parse_keyword("true", Value::Bool(true)),
            Some(b'f') => self.parse_keyword("false", Value::Bool(false)),
            Some(b'n') => self.parse_keyword("null", Value::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.parse_number(),
            Some(_) => Err(self.err("expected a JSON value")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn parse_keyword(&mut self, word: &str, value: Value) -> Result<Value, Error> {
        if self.text.as_bytes()[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected `{word}`")))
        }
    }

    fn enter(&mut self) -> Result<(), Error> {
        self.depth += 1;
        if self.depth > MAX_DEPTH {
            return Err(self.err("recursion limit exceeded"));
        }
        Ok(())
    }

    fn parse_object(&mut self) -> Result<Value, Error> {
        self.enter()?;
        let v = self.parse_object_body();
        self.depth -= 1;
        v
    }

    fn parse_object_body(&mut self) -> Result<Value, Error> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(fields));
        }
        loop {
            self.skip_ws();
            let key = self.parse_string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.parse_value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(fields));
                }
                _ => return Err(self.err("expected `,` or `}` in object")),
            }
        }
    }

    fn parse_array(&mut self) -> Result<Value, Error> {
        self.enter()?;
        let v = self.parse_array_body();
        self.depth -= 1;
        v
    }

    fn parse_array_body(&mut self) -> Result<Value, Error> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.parse_value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => return Err(self.err("expected `,` or `]` in array")),
            }
        }
    }

    fn parse_string(&mut self) -> Result<String, Error> {
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
                        b'b' => out.push('\u{0008}'),
                        b'f' => out.push('\u{000C}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hex = self
                                .text
                                .as_bytes()
                                .get(self.pos..self.pos + 4)
                                .ok_or_else(|| self.err("truncated \\u escape"))?;
                            // Exactly four hex digits: `from_str_radix`
                            // alone would also take a leading `+`.
                            let code = hex
                                .iter()
                                .try_fold(0u32, |acc, &b| {
                                    char::from(b).to_digit(16).map(|d| acc * 16 + d)
                                })
                                .ok_or_else(|| self.err("invalid \\u escape"))?;
                            self.pos += 4;
                            // Surrogate pairs are not needed by our own
                            // output (the serializer never emits them);
                            // map lone surrogates to the replacement char.
                            out.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                        }
                        _ => return Err(self.err("unknown escape sequence")),
                    }
                }
                Some(_) => {
                    // Consume one UTF-8 character. Every byte consumed so
                    // far ends a character, so `pos` is a char boundary
                    // of the input `&str`.
                    let c = self
                        .text
                        .get(self.pos..)
                        .and_then(|rest| rest.chars().next())
                        .ok_or_else(|| self.err("invalid utf-8"))?;
                    if (c as u32) < 0x20 {
                        return Err(self.err("unescaped control character in string"));
                    }
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn parse_number(&mut self) -> Result<Value, Error> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(c) = self.peek() {
            match c {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        // Only ASCII was consumed, so both ends are char boundaries.
        let text = &self.text[start..self.pos];
        if is_float {
            let v: f64 = text.parse().map_err(|_| self.err("malformed number"))?;
            Ok(Value::Number(Number::Float(v)))
        } else if let Ok(v) = text.parse::<i64>() {
            Ok(Value::Number(Number::Int(v)))
        } else if let Ok(v) = text.parse::<u64>() {
            Ok(Value::Number(Number::UInt(v)))
        } else {
            Err(self.err("malformed number"))
        }
    }
}

/// Conversion into a [`Value`] — the role `serde::Serialize` plays for
/// real `serde_json`, flattened into one trait.
pub trait ToJson {
    /// Converts `self` into a JSON value.
    fn to_json_value(&self) -> Value;
}

impl ToJson for Value {
    fn to_json_value(&self) -> Value {
        self.clone()
    }
}

impl<T: ToJson + ?Sized> ToJson for &T {
    fn to_json_value(&self) -> Value {
        (**self).to_json_value()
    }
}

impl ToJson for bool {
    fn to_json_value(&self) -> Value {
        Value::Bool(*self)
    }
}

impl ToJson for str {
    fn to_json_value(&self) -> Value {
        Value::String(self.to_owned())
    }
}

impl ToJson for String {
    fn to_json_value(&self) -> Value {
        Value::String(self.clone())
    }
}

macro_rules! to_json_int {
    ($($t:ty),*) => {$(
        impl ToJson for $t {
            fn to_json_value(&self) -> Value {
                Value::Number(Number::Int(*self as i64))
            }
        }
    )*};
}

to_json_int!(i8, i16, i32, i64, isize, u8, u16, u32);

impl ToJson for u64 {
    fn to_json_value(&self) -> Value {
        match i64::try_from(*self) {
            Ok(v) => Value::Number(Number::Int(v)),
            Err(_) => Value::Number(Number::UInt(*self)),
        }
    }
}

impl ToJson for usize {
    fn to_json_value(&self) -> Value {
        (*self as u64).to_json_value()
    }
}

macro_rules! to_json_float {
    ($($t:ty),*) => {$(
        impl ToJson for $t {
            fn to_json_value(&self) -> Value {
                let v = *self as f64;
                if v.is_finite() {
                    Value::Number(Number::Float(v))
                } else {
                    Value::Null
                }
            }
        }
    )*};
}

to_json_float!(f32, f64);

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json_value(&self) -> Value {
        Value::Array(self.iter().map(ToJson::to_json_value).collect())
    }
}

impl<T: ToJson> ToJson for [T] {
    fn to_json_value(&self) -> Value {
        Value::Array(self.iter().map(ToJson::to_json_value).collect())
    }
}

impl<T: ToJson, const N: usize> ToJson for [T; N] {
    fn to_json_value(&self) -> Value {
        Value::Array(self.iter().map(ToJson::to_json_value).collect())
    }
}

impl<T: ToJson> ToJson for Option<T> {
    fn to_json_value(&self) -> Value {
        match self {
            Some(v) => v.to_json_value(),
            None => Value::Null,
        }
    }
}

/// Builds a [`Value`] from JSON-looking syntax: `json!(null)`,
/// `json!([a, b])`, `json!({ "k": v, .. })`, or any expression whose type
/// implements [`ToJson`].
#[macro_export]
macro_rules! json {
    (null) => { $crate::Value::Null };
    ([ $( $elem:expr ),* $(,)? ]) => {
        $crate::Value::Array(vec![ $( $crate::ToJson::to_json_value(&$elem) ),* ])
    };
    ({ $( $key:literal : $val:expr ),* $(,)? }) => {
        $crate::Value::Object(vec![
            $( (($key).to_string(), $crate::ToJson::to_json_value(&$val)) ),*
        ])
    };
    ($other:expr) => { $crate::ToJson::to_json_value(&$other) };
}

fn escape_into(out: &mut String, s: &str) {
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

fn write_number(out: &mut String, n: &Number) {
    match n {
        Number::Int(v) => {
            let _ = write!(out, "{v}");
        }
        Number::UInt(v) => {
            let _ = write!(out, "{v}");
        }
        Number::Float(v) => {
            // Round-trippable shortest float; keep a `.0` so integers
            // written as floats still read back as floats.
            if v.fract() == 0.0 && v.abs() < 1e15 {
                let _ = write!(out, "{v:.1}");
            } else {
                let _ = write!(out, "{v}");
            }
        }
    }
}

fn write_pretty(out: &mut String, v: &Value, indent: usize) {
    const STEP: usize = 2;
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => {
            let _ = write!(out, "{b}");
        }
        Value::Number(n) => write_number(out, n),
        Value::String(s) => escape_into(out, s),
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
                out.push('\n');
                out.push_str(&" ".repeat(indent + STEP));
                write_pretty(out, item, indent + STEP);
            }
            out.push('\n');
            out.push_str(&" ".repeat(indent));
            out.push(']');
        }
        Value::Object(fields) => {
            if fields.is_empty() {
                out.push_str("{}");
                return;
            }
            out.push('{');
            for (i, (k, val)) in fields.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push('\n');
                out.push_str(&" ".repeat(indent + STEP));
                escape_into(out, k);
                out.push_str(": ");
                write_pretty(out, val, indent + STEP);
            }
            out.push('\n');
            out.push_str(&" ".repeat(indent));
            out.push('}');
        }
    }
}

/// Pretty-prints a value as two-space-indented JSON.
pub fn to_string_pretty<T: ToJson + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_pretty(&mut out, &value.to_json_value(), 0);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_and_collections_serialize() {
        assert_eq!(to_string_pretty(&json!(null)).unwrap(), "null");
        assert_eq!(to_string_pretty(&json!(true)).unwrap(), "true");
        assert_eq!(to_string_pretty(&json!(3)).unwrap(), "3");
        assert_eq!(to_string_pretty(&json!(2.5)).unwrap(), "2.5");
        assert_eq!(to_string_pretty(&json!(2.0)).unwrap(), "2.0");
        assert_eq!(to_string_pretty(&json!(f64::NAN)).unwrap(), "null");
        assert_eq!(
            to_string_pretty(&json!("hi\n\"x\"")).unwrap(),
            "\"hi\\n\\\"x\\\"\""
        );
        let v = vec![1.0, 2.0];
        assert_eq!(json!(v.clone()), Value::Array(vec![json!(1.0), json!(2.0)]));
        assert_eq!(json!(["a", "b"]), json!(vec!["a", "b"]));
    }

    #[test]
    fn objects_keep_insertion_order() {
        let rows: Vec<Value> = (0..2).map(|i| json!({ "i": i })).collect();
        let v = json!({ "zeta": 1, "alpha": rows, "nested": json!({ "k": [1, 2] }) });
        let s = to_string_pretty(&v).unwrap();
        let zeta = s.find("zeta").unwrap();
        let alpha = s.find("alpha").unwrap();
        assert!(zeta < alpha, "insertion order lost:\n{s}");
        assert!(s.contains("\"k\": [\n      1,\n      2\n    ]"), "{s}");
    }

    #[test]
    fn parser_round_trips_serializer_output() {
        let v = json!({
            "name": "rain",
            "factor": 0.5,
            "windows": [json!({ "start": 0, "end": 3_600_000 })],
            "enabled": true,
            "note": json!(null),
            "big": u64::MAX,
            "neg": -42,
            "text": "a\n\"b\"\tc\\d",
        });
        let s = to_string_pretty(&v).unwrap();
        assert_eq!(from_str(&s).unwrap(), v);
    }

    #[test]
    fn parser_handles_scalars_and_whitespace() {
        assert_eq!(from_str(" null ").unwrap(), Value::Null);
        assert_eq!(from_str("true").unwrap(), Value::Bool(true));
        assert_eq!(from_str("-3").unwrap(), json!(-3));
        assert_eq!(from_str("2.5e2").unwrap(), json!(250.0));
        assert_eq!(from_str("\"\\u0041x\"").unwrap(), json!("Ax"));
        assert_eq!(from_str("[]").unwrap(), Value::Array(vec![]));
        assert_eq!(from_str("{}").unwrap(), Value::Object(vec![]));
    }

    #[test]
    fn parser_rejects_malformed_input() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\":}",
            "tru",
            "1..2",
            "\"unterminated",
            "[] []",
            "nul",
        ] {
            assert!(from_str(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn long_strings_parse_in_linear_time() {
        // One pass: decoding a character must not re-read the rest of
        // the input (that was quadratic, ~0.8 s at 200 KB).
        let text: String = "ab\u{e9}\u{1F695}\"\n".repeat(500_000);
        let doc = to_string_pretty(&json!({ "text": text })).unwrap();
        assert!(doc.len() > 5_000_000);
        let back = from_str(&doc).unwrap();
        assert_eq!(
            back.get("text").and_then(Value::as_str),
            Some(text.as_str())
        );
    }

    #[test]
    fn unicode_escapes_take_exactly_four_hex_digits() {
        assert_eq!(
            from_str("\"\\u00e9\\u00C9\"").unwrap(),
            json!("\u{e9}\u{c9}")
        );
        for bad in [
            "\"\\u+041\"",
            "\"\\u-041\"",
            "\"\\u 041\"",
            "\"\\u04\"",
            "\"\\u04g1\"",
        ] {
            assert!(from_str(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn deep_nesting_errors_instead_of_overflowing_the_stack() {
        let deep = "[".repeat(200_000);
        let err = from_str(&deep).unwrap_err();
        assert!(err.to_string().contains("recursion limit"), "{err}");
        // Exactly at the limit still parses.
        let ok = format!("{}{}", "[".repeat(128), "]".repeat(128));
        assert!(from_str(&ok).is_ok());
        let over = format!("{}{}", "[".repeat(129), "]".repeat(129));
        assert!(from_str(&over).is_err());
    }

    #[test]
    fn as_u64_rejects_floats_like_real_serde_json() {
        assert_eq!(from_str("42").unwrap().as_u64(), Some(42));
        assert_eq!(from_str("42.0").unwrap().as_u64(), None);
        assert_eq!(json!(2.0).as_u64(), None);
    }

    #[test]
    fn accessors_read_fields() {
        let v = from_str("{\"a\": 1, \"b\": [2.5, \"x\"], \"c\": false}").unwrap();
        assert_eq!(v.get("a").and_then(Value::as_u64), Some(1));
        assert_eq!(v.get("a").and_then(Value::as_f64), Some(1.0));
        let arr = v.get("b").and_then(Value::as_array).unwrap();
        assert_eq!(arr[0].as_f64(), Some(2.5));
        assert_eq!(arr[1].as_str(), Some("x"));
        assert_eq!(v.get("c").and_then(Value::as_bool), Some(false));
        assert!(v.get("missing").is_none());
        assert!(v.get("a").unwrap().as_str().is_none());
        assert_eq!(json!(2.5).as_u64(), None);
    }

    #[test]
    fn references_and_u64_serialize() {
        let n: u64 = u64::MAX;
        let r = &n;
        assert_eq!(to_string_pretty(&json!(r)).unwrap(), u64::MAX.to_string());
        let s = String::from("x");
        let v = json!({ "s": &s, "opt": Some(1), "none": Option::<i32>::None });
        assert!(to_string_pretty(&v).unwrap().contains("\"none\": null"));
    }
}
