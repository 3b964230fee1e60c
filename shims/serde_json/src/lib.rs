//! Offline stand-in for `serde_json`: JSON text ⇄ the serde shim's
//! [`Value`] tree, plus a simplified `json!` macro.

use serde::{Deserialize, Serialize};
pub use serde::{Error, Map, Value};
use std::fmt::Write as _;

/// Result alias matching the real crate's shape.
pub type Result<T> = std::result::Result<T, Error>;

/// Serialize to a `Value` (the real crate's `to_value`, infallible here).
pub fn to_value<T: Serialize + ?Sized>(x: &T) -> Value {
    x.to_value()
}

/// Serialize to compact JSON text.
pub fn to_string<T: Serialize + ?Sized>(x: &T) -> Result<String> {
    let mut out = String::new();
    write_value(&x.as_value(), &mut out, None, 0);
    Ok(out)
}

/// Serialize to pretty-printed JSON text (two-space indent).
pub fn to_string_pretty<T: Serialize + ?Sized>(x: &T) -> Result<String> {
    let mut out = String::new();
    write_value(&x.as_value(), &mut out, Some(2), 0);
    Ok(out)
}

/// Deserialize from JSON text.
pub fn from_str<T: Deserialize>(s: &str) -> Result<T> {
    T::from_owned(parse_value(s)?)
}

// ------------------------------------------------------------------ emitter

fn write_escaped(s: &str, out: &mut String) {
    out.push('"');
    // everything that needs an escape is ASCII, so the runs between
    // escapes are copied whole and every split is a char boundary
    let mut run = 0;
    for (k, b) in s.bytes().enumerate() {
        if b != b'"' && b != b'\\' && b >= 0x20 {
            continue;
        }
        out.push_str(&s[run..k]);
        run = k + 1;
        match b {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            // writing to a `String` cannot fail
            _ => {
                let _ = write!(out, "\\u{b:04x}");
            }
        }
    }
    out.push_str(&s[run..]);
    out.push('"');
}

fn newline_indent(out: &mut String, indent: Option<usize>, depth: usize) {
    if let Some(w) = indent {
        out.push('\n');
        for _ in 0..w * depth {
            out.push(' ');
        }
    }
}

fn write_value(v: &Value, out: &mut String, indent: Option<usize>, depth: usize) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        // numbers go straight into `out`; writing to a `String` cannot fail
        Value::Int(i) => {
            let _ = write!(out, "{i}");
        }
        Value::UInt(u) => {
            let _ = write!(out, "{u}");
        }
        Value::Float(f) => {
            if f.is_finite() {
                // always include a decimal point or exponent so the value
                // re-parses as a float
                let start = out.len();
                let _ = write!(out, "{f}");
                if !out[start..].contains(['.', 'e', 'E']) {
                    out.push_str(".0");
                }
            } else {
                out.push_str("null"); // JSON has no NaN/Inf
            }
        }
        Value::String(s) => write_escaped(s, out),
        Value::Array(a) => {
            if a.is_empty() {
                out.push_str("[]");
                return;
            }
            out.push('[');
            for (k, e) in a.iter().enumerate() {
                if k > 0 {
                    out.push(',');
                    if indent.is_none() {
                        // compact: no space
                    }
                }
                newline_indent(out, indent, depth + 1);
                write_value(e, out, indent, depth + 1);
            }
            newline_indent(out, indent, depth);
            out.push(']');
        }
        Value::Object(m) => {
            if m.is_empty() {
                out.push_str("{}");
                return;
            }
            out.push('{');
            for (k, (key, val)) in m.iter().enumerate() {
                if k > 0 {
                    out.push(',');
                }
                newline_indent(out, indent, depth + 1);
                write_escaped(key, out);
                out.push(':');
                if indent.is_some() {
                    out.push(' ');
                }
                write_value(val, out, indent, depth + 1);
            }
            newline_indent(out, indent, depth);
            out.push('}');
        }
    }
}

// ------------------------------------------------------------------- parser

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

fn parse_value(s: &str) -> Result<Value> {
    let mut p = Parser {
        bytes: s.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(Error::custom(format!(
            "trailing characters at byte {}",
            p.pos
        )));
    }
    Ok(v)
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<()> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(Error::custom(format!(
                "expected `{}` at byte {}",
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

    fn value(&mut self) -> Result<Value> {
        self.skip_ws();
        match self.peek() {
            None => Err(Error::custom("unexpected end of input")),
            Some(b'n') => {
                if self.eat_literal("null") {
                    Ok(Value::Null)
                } else {
                    Err(Error::custom(format!("bad literal at byte {}", self.pos)))
                }
            }
            Some(b't') => {
                if self.eat_literal("true") {
                    Ok(Value::Bool(true))
                } else {
                    Err(Error::custom(format!("bad literal at byte {}", self.pos)))
                }
            }
            Some(b'f') => {
                if self.eat_literal("false") {
                    Ok(Value::Bool(false))
                } else {
                    Err(Error::custom(format!("bad literal at byte {}", self.pos)))
                }
            }
            Some(b'"') => self.string().map(Value::String),
            Some(b'[') => {
                self.pos += 1;
                let mut out = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b']') {
                    self.pos += 1;
                    return Ok(Value::Array(out));
                }
                loop {
                    out.push(self.value()?);
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => {
                            self.pos += 1;
                        }
                        Some(b']') => {
                            self.pos += 1;
                            return Ok(Value::Array(out));
                        }
                        _ => {
                            return Err(Error::custom(format!(
                                "expected `,` or `]` at byte {}",
                                self.pos
                            )))
                        }
                    }
                }
            }
            Some(b'{') => {
                self.pos += 1;
                let mut out = Map::new();
                self.skip_ws();
                if self.peek() == Some(b'}') {
                    self.pos += 1;
                    return Ok(Value::Object(out));
                }
                loop {
                    self.skip_ws();
                    let key = self.string()?;
                    self.skip_ws();
                    self.expect(b':')?;
                    let val = self.value()?;
                    out.insert(key, val);
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => {
                            self.pos += 1;
                        }
                        Some(b'}') => {
                            self.pos += 1;
                            return Ok(Value::Object(out));
                        }
                        _ => {
                            return Err(Error::custom(format!(
                                "expected `,` or `}}` at byte {}",
                                self.pos
                            )))
                        }
                    }
                }
            }
            Some(_) => self.number(),
        }
    }

    fn string(&mut self) -> Result<String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(Error::custom("unterminated string")),
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
                                .ok_or_else(|| Error::custom("truncated \\u escape"))?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex)
                                    .map_err(|_| Error::custom("bad \\u escape"))?,
                                16,
                            )
                            .map_err(|_| Error::custom("bad \\u escape"))?;
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| Error::custom("bad \\u code point"))?,
                            );
                            self.pos += 4;
                        }
                        _ => return Err(Error::custom("bad escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // copy the whole run up to the next delimiter: both
                    // are ASCII, so the run is a char-boundary slice of
                    // the `&str` the input arrived as
                    let rest = &self.bytes[self.pos..];
                    let run = rest
                        .iter()
                        .position(|&b| b == b'"' || b == b'\\')
                        .unwrap_or(rest.len());
                    out.push_str(
                        std::str::from_utf8(&rest[..run])
                            .map_err(|_| Error::custom("invalid UTF-8"))?,
                    );
                    self.pos += run;
                }
            }
        }
    }

    fn number(&mut self) -> Result<Value> {
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
            .map_err(|_| Error::custom("invalid number"))?;
        if text.is_empty() || text == "-" {
            return Err(Error::custom(format!("bad number at byte {start}")));
        }
        if !is_float {
            if let Ok(i) = text.parse::<i64>() {
                return Ok(Value::Int(i));
            }
            if let Ok(u) = text.parse::<u64>() {
                return Ok(Value::UInt(u));
            }
        }
        text.parse::<f64>()
            .map(Value::Float)
            .map_err(|_| Error::custom(format!("bad number `{text}`")))
    }
}

/// Build a [`Value`] from JSON-ish literal syntax. Supports the subset the
/// workspace uses: objects with string-literal keys and expression values,
/// arrays of expressions, and plain expressions.
#[macro_export]
macro_rules! json {
    (null) => { $crate::Value::Null };
    ([ $($elem:expr),* $(,)? ]) => {
        $crate::Value::Array(vec![ $( $crate::to_value(&$elem) ),* ])
    };
    ({ $($key:literal : $val:expr),* $(,)? }) => {{
        #[allow(unused_mut)]
        let mut m = $crate::Map::new();
        $( m.insert(::std::string::String::from($key), $crate::to_value(&$val)); )*
        $crate::Value::Object(m)
    }};
    ($other:expr) => { $crate::to_value(&$other) };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn text_roundtrip() {
        let v = json!({
            "name": "x\"y",
            "n": 3u32,
            "xs": vec![1.5f64, 2.0],
            "flag": true,
            "none": Option::<u32>::None,
        });
        let compact = to_string(&v).unwrap();
        let pretty = to_string_pretty(&v).unwrap();
        assert_eq!(parse_value(&compact).unwrap(), v);
        assert_eq!(parse_value(&pretty).unwrap(), v);
    }

    #[test]
    fn parses_nested() {
        let v: Value = from_str("{\"a\": [1, 2.5, {\"b\": null}], \"c\": -7}").unwrap();
        let m = v.as_object().unwrap();
        assert_eq!(m["c"], Value::Int(-7));
        let a = m["a"].as_array().unwrap();
        assert_eq!(a[1], Value::Float(2.5));
    }

    #[test]
    fn typed_from_str() {
        let pairs: Vec<(u32, usize)> = from_str("[[0, 1], [5, 0]]").unwrap();
        assert_eq!(pairs, vec![(0, 1), (5, 0)]);
    }

    #[test]
    fn big_u64_roundtrips_through_text() {
        let x = u64::MAX - 3;
        let s = to_string(&x).unwrap();
        let back: u64 = from_str(&s).unwrap();
        assert_eq!(back, x);
    }

    #[test]
    fn strings_roundtrip_through_every_escape_and_char_width() {
        // every escape the emitter writes, one to four byte characters,
        // and the characters the parser alone accepts escaped (`/`, \b, \f)
        let parts = [
            "", "a", "\"", "\\", "/", "\n", "\r", "\t", "\u{8}", "\u{c}", "\u{1}", "\u{1f}",
            "\u{7f}", "é", "日本", "😀",
        ];
        // all triples: each part first, last, alone and beside each other
        for a in parts {
            for b in parts {
                for c in parts {
                    let s = format!("{a}{b}{c}");
                    let text = to_string(&s).unwrap();
                    assert_eq!(from_str::<String>(&text).unwrap(), s, "{text}");
                    // as an object key and value, after other members
                    let mut m = Map::new();
                    m.insert(s.clone(), Value::String(s.clone()));
                    let v = Value::Object(m);
                    assert_eq!(parse_value(&to_string(&v).unwrap()).unwrap(), v);
                }
            }
        }
        assert_eq!(
            to_string("a\"b\\c\n\r\t\u{1}\u{1f}é/").unwrap(),
            r#""a\"b\\c\n\r\t\u0001\u001fé/""#
        );
        assert_eq!(
            from_str::<String>(r#""\u00e9\/\b\f\u65E5x\u0041""#).unwrap(),
            "é/\u{8}\u{c}日xA"
        );
        for bad in [
            r#""\u12""#,
            r#""\uzzzz""#,
            r#""\ud800""#,
            r#""\x""#,
            r#""abc"#,
            "\"\\",
        ] {
            assert!(from_str::<String>(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn numbers_are_emitted_as_the_wire_goldens_have_them() {
        for (x, want) in [
            (0.0, "0.0"),
            (-0.0, "-0.0"),
            (1.0, "1.0"),
            (41.5, "41.5"),
            (500.6525294997645, "500.6525294997645"),
            (0.000015064, "0.000015064"),
            (1e21, "1000000000000000000000.0"),
            (f64::NAN, "null"),
            (f64::INFINITY, "null"),
        ] {
            assert_eq!(to_string(&Value::Float(x)).unwrap(), want);
        }
        assert_eq!(
            to_string(&Value::Int(i64::MIN)).unwrap(),
            "-9223372036854775808"
        );
        assert_eq!(
            to_string(&Value::UInt(u64::MAX)).unwrap(),
            "18446744073709551615"
        );
        assert_eq!(from_str::<u64>("18446744073709551615").unwrap(), u64::MAX);
        // numbers land after other output, not at the start of the buffer
        assert_eq!(
            to_string(&json!({"a": 7.0f64, "b": vec![2u32, 3]})).unwrap(),
            r#"{"a":7.0,"b":[2,3]}"#
        );
    }

    #[test]
    fn a_two_mebibyte_string_parses_in_linear_time() {
        // one validation pass per character of the *remaining input* made
        // this some 2·10¹² byte checks — minutes; no clock needed to notice
        let big = "é".repeat(1 << 20);
        let text = format!(r#"{{"pad": "{big}", "after": 1}}"#);
        let v: Value = from_str(&text).unwrap();
        let m = v.as_object().unwrap();
        assert_eq!(m["pad"].as_str().map(str::len), Some(2 << 20));
        assert_eq!(m["after"], Value::Int(1));
        assert_eq!(
            to_string(&v).unwrap().len(),
            r#"{"after":1,"pad":""}"#.len() + (2 << 20)
        );
    }

    #[test]
    fn rejects_garbage() {
        assert!(from_str::<Value>("{\"a\": }").is_err());
        assert!(from_str::<Value>("[1, 2").is_err());
        assert!(from_str::<Value>("hello").is_err());
        assert!(from_str::<Value>("1 2").is_err());
    }
}
