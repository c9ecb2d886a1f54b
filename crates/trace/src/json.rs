//! Minimal JSON reader and string quoting for the workspace's
//! hand-written JSON documents.
//!
//! The workspace has no serde: every JSON document (Chrome traces,
//! `spsep-load-report/v1`, the `BENCH_*.json` artifacts, the CLI's
//! `spsep-metrics/v1`) is written with `format!`, and each validator
//! re-parses what its writer produced with [`parse_json`] before the
//! document is trusted. [`quote`] is the matching string writer, so
//! every escape it emits reads back unchanged.
//!
//! Scope: what [`quote`] and the `format!` writers emit. Numbers are
//! read as `f64`; object keys keep document order and duplicates.
//! String escapes are `\"`, `\\`, `\/`, `\n`, `\r`, `\t` and `\uXXXX`
//! outside the surrogate range. String contents are decoded as UTF-8,
//! so non-ASCII text survives a write/parse round trip byte for byte.

/// A parsed JSON value.
#[derive(Debug, PartialEq)]
pub enum Json {
    /// A string, with its escapes decoded.
    Str(String),
    /// A number (every JSON number is read as `f64`).
    Num(f64),
    /// `true` or `false`.
    Bool(bool),
    /// `null`.
    Null,
    /// An array, in document order.
    Arr(Vec<Json>),
    /// An object as `(key, value)` pairs, in document order.
    Obj(Vec<(String, Json)>),
}

struct Parser<'a> {
    b: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn ws(&mut self) {
        while self.i < self.b.len() && self.b[self.i].is_ascii_whitespace() {
            self.i += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.b.get(self.i).copied()
    }

    fn eat(&mut self, c: u8) -> Result<(), String> {
        if self.peek() == Some(c) {
            self.i += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", c as char, self.i))
        }
    }

    fn literal(&mut self, lit: &str, v: Json) -> Result<Json, String> {
        if self.b[self.i..].starts_with(lit.as_bytes()) {
            self.i += lit.len();
            Ok(v)
        } else {
            Err(format!("bad literal at byte {}", self.i))
        }
    }

    /// Read a string. Raw bytes are collected as-is and decoded as
    /// UTF-8 once at the closing quote; escapes append their char's
    /// UTF-8 encoding.
    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let start = self.i;
        let mut out = Vec::new();
        loop {
            match self.peek() {
                Some(b'"') => {
                    self.i += 1;
                    return String::from_utf8(out)
                        .map_err(|_| format!("invalid UTF-8 in string at byte {start}"));
                }
                Some(b'\\') => {
                    self.i += 1;
                    let c = match self.peek() {
                        Some(c @ (b'"' | b'\\' | b'/')) => c as char,
                        Some(b'n') => '\n',
                        Some(b'r') => '\r',
                        Some(b't') => '\t',
                        Some(b'u') => {
                            let c = self
                                .b
                                .get(self.i + 1..self.i + 5)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .and_then(char::from_u32)
                                .ok_or_else(|| format!("bad \\u escape at byte {}", self.i))?;
                            self.i += 4;
                            c
                        }
                        _ => return Err(format!("unsupported escape at byte {}", self.i)),
                    };
                    out.extend_from_slice(c.encode_utf8(&mut [0; 4]).as_bytes());
                    self.i += 1;
                }
                Some(c) => {
                    out.push(c);
                    self.i += 1;
                }
                None => return Err("unterminated string".into()),
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.i;
        while self
            .peek()
            .is_some_and(|c| c.is_ascii_digit() || matches!(c, b'-' | b'+' | b'.' | b'e' | b'E'))
        {
            self.i += 1;
        }
        std::str::from_utf8(&self.b[start..self.i])
            .ok()
            .and_then(|s| s.parse::<f64>().ok())
            .map(Json::Num)
            .ok_or_else(|| format!("bad number at byte {start}"))
    }

    fn value(&mut self) -> Result<Json, String> {
        self.ws();
        match self.peek() {
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'{') => {
                self.i += 1;
                let mut fields = Vec::new();
                self.ws();
                if self.peek() == Some(b'}') {
                    self.i += 1;
                    return Ok(Json::Obj(fields));
                }
                loop {
                    self.ws();
                    let key = self.string()?;
                    self.ws();
                    self.eat(b':')?;
                    fields.push((key, self.value()?));
                    self.ws();
                    match self.peek() {
                        Some(b',') => self.i += 1,
                        Some(b'}') => {
                            self.i += 1;
                            return Ok(Json::Obj(fields));
                        }
                        _ => return Err(format!("expected ',' or '}}' at byte {}", self.i)),
                    }
                }
            }
            Some(b'[') => {
                self.i += 1;
                let mut items = Vec::new();
                self.ws();
                if self.peek() == Some(b']') {
                    self.i += 1;
                    return Ok(Json::Arr(items));
                }
                loop {
                    items.push(self.value()?);
                    self.ws();
                    match self.peek() {
                        Some(b',') => self.i += 1,
                        Some(b']') => {
                            self.i += 1;
                            return Ok(Json::Arr(items));
                        }
                        _ => return Err(format!("expected ',' or ']' at byte {}", self.i)),
                    }
                }
            }
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            _ => self.number(),
        }
    }
}

/// Parse one JSON document. Anything but whitespace after the top-level
/// value is an error.
pub fn parse_json(s: &str) -> Result<Json, String> {
    let mut p = Parser {
        b: s.as_bytes(),
        i: 0,
    };
    let v = p.value()?;
    p.ws();
    if p.i != p.b.len() {
        return Err(format!("trailing bytes at {}", p.i));
    }
    Ok(v)
}

/// The value of the first `key` in an object's fields, or a
/// "missing key" error naming it.
pub fn field<'j>(obj: &'j [(String, Json)], key: &str) -> Result<&'j Json, String> {
    obj.iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v)
        .ok_or_else(|| format!("missing key `{key}`"))
}

/// `s` as a JSON string literal, quotes included. `"`, `\` and every
/// control character are escaped; everything else is copied as is.
pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quoted_strings_read_back_unchanged() {
        let cases = [
            "",
            "plain",
            "a\"b\\c",
            "tab\tnl\ncr\r",
            "\u{1}\u{1f}",
            "E⁺ ≤ √n",
            "日本",
        ];
        for s in cases {
            assert_eq!(parse_json(&quote(s)), Ok(Json::Str(s.to_string())), "{s:?}");
        }
    }

    #[test]
    fn escapes_and_utf8_decode() {
        assert_eq!(parse_json(r#""é\/\u00e9""#), Ok(Json::Str("é/é".into())));
        assert_eq!(parse_json("\"E⁺\""), Ok(Json::Str("E⁺".into())));
        assert!(parse_json(r#""\ud800""#).is_err());
        assert!(parse_json(r#""\x""#).is_err());
        assert!(parse_json(r#""\u12""#).is_err());
    }

    #[test]
    fn structure() {
        let v = parse_json(r#" {"a": [1, -2.5e3, true, null], "b": {}} "#).unwrap();
        let Json::Obj(top) = v else {
            panic!("not an object")
        };
        assert_eq!(
            field(&top, "a"),
            Ok(&Json::Arr(vec![
                Json::Num(1.0),
                Json::Num(-2500.0),
                Json::Bool(true),
                Json::Null
            ]))
        );
        assert_eq!(field(&top, "b"), Ok(&Json::Obj(vec![])));
        assert!(field(&top, "c").unwrap_err().contains("`c`"));
        for bad in ["", "{", "[1,]", "{\"a\" 1}", "tru", "1 2", "\"open"] {
            assert!(parse_json(bad).is_err(), "{bad:?}");
        }
    }
}
