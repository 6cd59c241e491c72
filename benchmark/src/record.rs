//! The result line a child prints and the driver parses: one flat JSON
//! object of numbers and strings, in insertion order.

use std::fmt::Write as _;

/// One value of a [`Record`].
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    Num(f64),
    Str(String),
}

/// A flat, ordered `name → value` map.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Record(pub Vec<(String, Value)>);

impl Record {
    pub fn num(&mut self, key: &str, v: f64) {
        self.0.push((key.to_string(), Value::Num(v)));
    }

    pub fn str(&mut self, key: &str, v: &str) {
        self.0.push((key.to_string(), Value::Str(v.to_string())));
    }

    pub fn get_num(&self, key: &str) -> Option<f64> {
        self.0.iter().find(|(k, _)| k == key).and_then(|(_, v)| match v {
            Value::Num(n) => Some(*n),
            Value::Str(_) => None,
        })
    }

    pub fn get_str(&self, key: &str) -> Option<&str> {
        self.0.iter().find(|(k, _)| k == key).and_then(|(_, v)| match v {
            Value::Str(s) => Some(s.as_str()),
            Value::Num(_) => None,
        })
    }

    /// Render as one JSON line. Non-finite numbers have no JSON form and
    /// are written as `null`, which [`Record::parse`] rejects: a child that
    /// measured NaN is a failed child.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        for (i, (k, v)) in self.0.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(out, "{}: ", quote(k));
            match v {
                Value::Num(n) if n.is_finite() => {
                    let _ = write!(out, "{n}");
                }
                Value::Num(_) => out.push_str("null"),
                Value::Str(s) => out.push_str(&quote(s)),
            }
        }
        out.push('}');
        out
    }

    /// Parse one line written by [`Record::to_json`]. Anything else — a
    /// truncated line, nesting, `null`, trailing text — is an error.
    pub fn parse(line: &str) -> Result<Self, String> {
        let mut p = Parser { s: line.trim().as_bytes(), i: 0 };
        p.expect(b'{')?;
        let mut rec = Record::default();
        p.ws();
        if p.peek() == Some(b'}') {
            p.i += 1;
        } else {
            loop {
                p.ws();
                let key = p.string()?;
                p.ws();
                p.expect(b':')?;
                p.ws();
                let value = match p.peek() {
                    Some(b'"') => Value::Str(p.string()?),
                    Some(_) => Value::Num(p.number()?),
                    None => return Err("truncated before a value".into()),
                };
                rec.0.push((key, value));
                p.ws();
                match p.peek() {
                    Some(b',') => p.i += 1,
                    Some(b'}') => {
                        p.i += 1;
                        break;
                    }
                    Some(c) => return Err(format!("unexpected `{}` at byte {}", c as char, p.i)),
                    None => return Err("truncated inside the object".into()),
                }
            }
        }
        if p.i != p.s.len() {
            return Err(format!("trailing text at byte {}", p.i));
        }
        Ok(rec)
    }
}

/// JSON string literal for `s`.
pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Option<u8> {
        self.s.get(self.i).copied()
    }

    fn ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t')) {
            self.i += 1;
        }
    }

    fn expect(&mut self, c: u8) -> Result<(), String> {
        if self.peek() == Some(c) {
            self.i += 1;
            Ok(())
        } else {
            Err(format!("expected `{}` at byte {}", c as char, self.i))
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = Vec::new();
        loop {
            match self.peek() {
                None => return Err("truncated inside a string".into()),
                Some(b'"') => {
                    self.i += 1;
                    return String::from_utf8(out).map_err(|e| e.to_string());
                }
                Some(b'\\') => {
                    self.i += 1;
                    let esc = self.peek().ok_or("truncated inside an escape")?;
                    self.i += 1;
                    match esc {
                        b'"' | b'\\' | b'/' => out.push(esc),
                        b'n' => out.push(b'\n'),
                        b't' => out.push(b'\t'),
                        b'u' => {
                            let hex =
                                self.s.get(self.i..self.i + 4).ok_or("truncated \\u escape")?;
                            let code = std::str::from_utf8(hex)
                                .ok()
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .and_then(char::from_u32)
                                .ok_or("bad \\u escape")?;
                            self.i += 4;
                            out.extend_from_slice(code.encode_utf8(&mut [0; 4]).as_bytes());
                        }
                        other => return Err(format!("unsupported escape `\\{}`", other as char)),
                    }
                }
                Some(c) => {
                    out.push(c);
                    self.i += 1;
                }
            }
        }
    }

    fn number(&mut self) -> Result<f64, String> {
        let start = self.i;
        while matches!(self.peek(), Some(b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')) {
            self.i += 1;
        }
        let text = std::str::from_utf8(&self.s[start..self.i]).map_err(|e| e.to_string())?;
        match text.parse::<f64>() {
            Ok(n) if n.is_finite() => Ok(n),
            _ => Err(format!("bad number `{text}` at byte {start}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_numbers_and_strings() {
        let mut r = Record::default();
        r.num("wall_s", 1.2034);
        r.num("engine.tasks", 1536.0);
        r.str("digest", "00ff\"x\\");
        r.str("error", "line one\nline two");
        assert_eq!(Record::parse(&r.to_json()).unwrap(), r);
    }

    #[test]
    fn rejects_a_truncated_child_line() {
        let mut r = Record::default();
        r.num("wall_s", 1.5);
        r.str("digest", "abcdef");
        let line = r.to_json();
        for cut in 1..line.len() {
            assert!(Record::parse(&line[..cut]).is_err(), "accepted {:?}", &line[..cut]);
        }
        assert!(Record::parse("").is_err());
        assert!(Record::parse(&format!("{line} trailing")).is_err());
    }

    #[test]
    fn non_finite_numbers_do_not_survive() {
        let mut r = Record::default();
        r.num("wall_s", f64::NAN);
        assert!(Record::parse(&r.to_json()).is_err());
    }
}
