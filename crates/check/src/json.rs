//! A minimal JSON reader/writer for replay artifacts.
//!
//! The workspace is dependency-free by design (DESIGN.md §6), so artifacts
//! are written with hand-rolled formatting — as `dr-obs` already does for
//! metric exports — and read back with a small recursive-descent parser.
//! The dialect is deliberately narrow: numbers are unsigned integers only
//! (the artifact schema stores rates and ratios in milli-units precisely
//! so no float ever needs to round-trip).

use std::collections::BTreeMap;

/// A parsed JSON value (unsigned-integer numbers only).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Value {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// An unsigned integer.
    Num(u64),
    /// A string (escapes resolved).
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object; key order is not preserved (artifacts never rely on it).
    Obj(BTreeMap<String, Value>),
}

impl Value {
    /// The integer value, if this is a number.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The string value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Member lookup, if this is an object.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(map) => map.get(key),
            _ => None,
        }
    }
}

/// Escapes `s` into a JSON string literal (quotes included).
pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    dr_obs::json_escape(s, &mut out);
    out.push('"');
    out
}

/// Parses one JSON document.
///
/// # Errors
///
/// A human-readable description with a byte offset.
pub fn parse(text: &str) -> Result<Value, String> {
    let bytes = text.as_bytes();
    let mut pos = 0usize;
    let value = parse_value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing content at byte {pos}"));
    }
    Ok(value)
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, c: u8) -> Result<(), String> {
    skip_ws(bytes, pos);
    if *pos < bytes.len() && bytes[*pos] == c {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected '{}' at byte {}", c as char, *pos))
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<Value, String> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err("unexpected end of input".to_owned()),
        Some(b'{') => parse_object(bytes, pos),
        Some(b'[') => parse_array(bytes, pos),
        Some(b'"') => Ok(Value::Str(parse_string(bytes, pos)?)),
        Some(b'0'..=b'9') => parse_number(bytes, pos),
        Some(b't') => parse_keyword(bytes, pos, "true", Value::Bool(true)),
        Some(b'f') => parse_keyword(bytes, pos, "false", Value::Bool(false)),
        Some(b'n') => parse_keyword(bytes, pos, "null", Value::Null),
        Some(&c) => Err(format!("unexpected '{}' at byte {}", c as char, *pos)),
    }
}

fn parse_keyword(bytes: &[u8], pos: &mut usize, word: &str, value: Value) -> Result<Value, String> {
    if bytes[*pos..].starts_with(word.as_bytes()) {
        *pos += word.len();
        Ok(value)
    } else {
        Err(format!("bad keyword at byte {}", *pos))
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Value, String> {
    let start = *pos;
    while *pos < bytes.len() && bytes[*pos].is_ascii_digit() {
        *pos += 1;
    }
    if let Some(b'.' | b'e' | b'E' | b'-' | b'+') = bytes.get(*pos) {
        return Err(format!(
            "non-integer number at byte {start} (artifacts store milli-units, not floats)"
        ));
    }
    std::str::from_utf8(&bytes[start..*pos])
        .ok()
        .and_then(|s| s.parse().ok())
        .map(Value::Num)
        .ok_or_else(|| format!("bad number at byte {start}"))
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(bytes, pos, b'"')?;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err("unterminated string".to_owned()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .and_then(|h| std::str::from_utf8(h).ok())
                            .ok_or("truncated \\u escape")?;
                        let code =
                            u32::from_str_radix(hex, 16).map_err(|_| "bad \\u escape digits")?;
                        out.push(char::from_u32(code).ok_or("\\u escape is not a scalar value")?);
                        *pos += 4;
                    }
                    _ => return Err(format!("bad escape at byte {}", *pos)),
                }
                *pos += 1;
            }
            Some(_) => {
                // Consume one UTF-8 scalar (multi-byte sequences included).
                let rest = std::str::from_utf8(&bytes[*pos..])
                    .map_err(|_| format!("invalid UTF-8 at byte {}", *pos))?;
                let c = rest.chars().next().ok_or("unterminated string")?;
                out.push(c);
                *pos += c.len_utf8();
            }
        }
    }
}

fn parse_array(bytes: &[u8], pos: &mut usize) -> Result<Value, String> {
    expect(bytes, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Value::Arr(items));
    }
    loop {
        items.push(parse_value(bytes, pos)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Value::Arr(items));
            }
            _ => return Err(format!("expected ',' or ']' at byte {}", *pos)),
        }
    }
}

fn parse_object(bytes: &[u8], pos: &mut usize) -> Result<Value, String> {
    expect(bytes, pos, b'{')?;
    let mut map = BTreeMap::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Value::Obj(map));
    }
    loop {
        skip_ws(bytes, pos);
        let key = parse_string(bytes, pos)?;
        expect(bytes, pos, b':')?;
        let value = parse_value(bytes, pos)?;
        map.insert(key, value);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Value::Obj(map));
            }
            _ => return Err(format!("expected ',' or '}}' at byte {}", *pos)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_nested_structures() {
        let text =
            r#"{"a": [1, 2, {"b": "x\ny", "c": true}], "d": null, "e": 18446744073709551615}"#;
        let v = parse(text).unwrap();
        assert_eq!(v.get("e").unwrap().as_u64(), Some(u64::MAX));
        let arr = v.get("a").unwrap().as_arr().unwrap();
        assert_eq!(arr[0].as_u64(), Some(1));
        assert_eq!(arr[2].get("b").unwrap().as_str(), Some("x\ny"));
        assert_eq!(arr[2].get("c"), Some(&Value::Bool(true)));
        assert_eq!(v.get("d"), Some(&Value::Null));
    }

    #[test]
    fn quoting_escapes_round_trip() {
        let nasty = "a\"b\\c\nd\te\u{1}f — ünïcode";
        let parsed = parse(&quote(nasty)).unwrap();
        assert_eq!(parsed.as_str(), Some(nasty));
    }

    #[test]
    fn floats_are_rejected() {
        assert!(parse("1.5").is_err());
        assert!(parse("[1e3]").is_err());
    }

    #[test]
    fn malformed_documents_are_rejected() {
        for bad in ["{", "[1,", "\"x", "{\"a\" 1}", "12 34", "tru"] {
            assert!(parse(bad).is_err(), "accepted {bad:?}");
        }
    }
}
