//! A minimal JSON reader and string escaper: the workspace's one parser.
//!
//! The offline build environment resolves `serde` to a no-op derive shim
//! (see `crates/shims/README.md`), so JSON is handled by hand.  [`parse`]
//! reads one document into a [`Value`] tree: a sweep-service request line,
//! a perf baseline, or a `BENCH_*.json` record ([`crate::perf`]).  Output
//! is rendered with `format!` plus [`escape`] (or `write!` plus
//! [`escape_into`] into one buffer).  The subset implemented is full JSON
//! minus niceties none of those inputs need: numbers are kept as `f64`
//! (every size/count they carry fits in the 53-bit mantissa), and
//! `\uXXXX` escapes outside the basic multilingual plane must arrive as
//! surrogate pairs.

use std::fmt::Write as _;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object, in source order (duplicate keys keep the first).
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Member `key` of an object (`None` for non-objects).
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string inside, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean inside, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The number inside, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The number inside as a `u64`, if it is one (integral, in range).
    pub fn as_u64(&self) -> Option<u64> {
        let n = self.as_f64()?;
        if n >= 0.0 && n <= (1u64 << 53) as f64 && n.fract() == 0.0 {
            Some(n as u64)
        } else {
            None
        }
    }

    /// The elements inside, if this is an array.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The members inside, in source order, if this is an object.
    pub fn as_obj(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Obj(members) => Some(members),
            _ => None,
        }
    }

    /// Member `key` as a string.
    pub fn get_str(&self, key: &str) -> Option<&str> {
        self.get(key)?.as_str()
    }

    /// Member `key` as a `u64`.
    pub fn get_u64(&self, key: &str) -> Option<u64> {
        self.get(key)?.as_u64()
    }

    /// Member `key` as a list of strings.  `Err` names the key when the
    /// member exists but is not an array of strings; `Ok(None)` when absent.
    pub fn get_str_list(&self, key: &str) -> Result<Option<Vec<String>>, String> {
        match self.get(key) {
            None => Ok(None),
            Some(v) => {
                let items = v
                    .as_arr()
                    .ok_or_else(|| format!("`{key}` must be an array of strings"))?;
                items
                    .iter()
                    .map(|item| {
                        item.as_str()
                            .map(str::to_string)
                            .ok_or_else(|| format!("`{key}` must be an array of strings"))
                    })
                    .collect::<Result<Vec<_>, _>>()
                    .map(Some)
            }
        }
    }

    /// Member `key` as a list of `u64`s.  Same contract as
    /// [`Value::get_str_list`].
    pub fn get_u64_list(&self, key: &str) -> Result<Option<Vec<u64>>, String> {
        match self.get(key) {
            None => Ok(None),
            Some(v) => {
                let items = v
                    .as_arr()
                    .ok_or_else(|| format!("`{key}` must be an array of non-negative integers"))?;
                items
                    .iter()
                    .map(|item| {
                        item.as_u64().ok_or_else(|| {
                            format!("`{key}` must be an array of non-negative integers")
                        })
                    })
                    .collect::<Result<Vec<_>, _>>()
                    .map(Some)
            }
        }
    }
}

/// Escape a string for embedding in a JSON string literal.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    escape_into(&mut out, s);
    out
}

/// [`escape`], appending to `out` instead of allocating.
pub fn escape_into(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            // Writing into a String cannot fail.
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

/// Parse one JSON document.  Trailing non-whitespace is an error.
pub fn parse(input: &str) -> Result<Value, String> {
    let mut p = Parser {
        input,
        bytes: input.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let value = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing input at byte {}", p.pos));
    }
    Ok(value)
}

const MAX_DEPTH: usize = 64;

struct Parser<'a> {
    input: &'a str,
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected `{}` at byte {}", b as char, self.pos))
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        if self.depth >= MAX_DEPTH {
            return Err("nesting too deep".to_string());
        }
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(format!("unexpected input at byte {}", self.pos)),
        }
    }

    fn literal(&mut self, text: &str, value: Value) -> Result<Value, String> {
        if self.bytes[self.pos..].starts_with(text.as_bytes()) {
            self.pos += text.len();
            Ok(value)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
        ) {
            self.pos += 1;
        }
        let text = self.input.get(start..self.pos).ok_or("bad number")?;
        text.parse::<f64>()
            .map(Value::Num)
            .map_err(|_| format!("bad number `{text}` at byte {start}"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".to_string()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or("unterminated escape")?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let unit = self.hex4()?;
                            let c = if (0xd800..0xdc00).contains(&unit) {
                                // High surrogate: a \uXXXX low surrogate
                                // must follow.
                                if self.peek() == Some(b'\\') {
                                    self.pos += 1;
                                    self.expect(b'u')?;
                                    let low = self.hex4()?;
                                    if !(0xdc00..0xe000).contains(&low) {
                                        return Err("bad surrogate pair".to_string());
                                    }
                                    char::from_u32(0x10000 + ((unit - 0xd800) << 10) + low - 0xdc00)
                                } else {
                                    None
                                }
                            } else {
                                char::from_u32(unit)
                            };
                            out.push(c.ok_or("bad unicode escape")?);
                        }
                        other => return Err(format!("bad escape `\\{}`", other as char)),
                    }
                }
                Some(b) if b < 0x20 => {
                    return Err(format!(
                        "raw control character in string at byte {}",
                        self.pos
                    ));
                }
                Some(_) => {
                    // Copy the run up to the next quote, backslash or
                    // control byte.  Those are ASCII, so the run ends on a
                    // char boundary of the input.
                    let start = self.pos;
                    while self
                        .peek()
                        .is_some_and(|b| b >= 0x20 && b != b'"' && b != b'\\')
                    {
                        self.pos += 1;
                    }
                    out.push_str(self.input.get(start..self.pos).ok_or("invalid utf-8")?);
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let end = self.pos.checked_add(4).filter(|&e| e <= self.bytes.len());
        let end = end.ok_or("truncated \\u escape")?;
        let v = self
            .input
            .get(self.pos..end)
            .filter(|h| h.bytes().all(|b| b.is_ascii_hexdigit()))
            .and_then(|h| u32::from_str_radix(h, 16).ok())
            .ok_or("bad \\u escape")?;
        self.pos = end;
        Ok(v)
    }

    fn object(&mut self) -> Result<Value, String> {
        self.expect(b'{')?;
        self.depth += 1;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(Value::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            if !members.iter().any(|(k, _)| *k == key) {
                members.push((key, value));
            }
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(Value::Obj(members));
                }
                _ => return Err(format!("expected `,` or `}}` at byte {}", self.pos)),
            }
        }
    }

    fn array(&mut self) -> Result<Value, String> {
        self.expect(b'[')?;
        self.depth += 1;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(Value::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(Value::Arr(items));
                }
                _ => return Err(format!("expected `,` or `]` at byte {}", self.pos)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_protocol_shapes() {
        let v = parse(
            r#"{"kind":"sweep","id":"r1","nodes":[2,4],"threads":3,"deep":{"x":true,"y":null},"f":-1.5e2}"#,
        )
        .unwrap();
        assert_eq!(v.get_str("kind"), Some("sweep"));
        assert_eq!(v.get_str("id"), Some("r1"));
        assert_eq!(v.get_u64_list("nodes").unwrap(), Some(vec![2, 4]));
        assert_eq!(v.get_u64("threads"), Some(3));
        assert_eq!(v.get("deep").unwrap().get("x"), Some(&Value::Bool(true)));
        assert_eq!(v.get("deep").unwrap().get("y"), Some(&Value::Null));
        assert_eq!(v.get("f").unwrap().as_f64(), Some(-150.0));
        assert_eq!(v.get("f").unwrap().as_u64(), None, "negative is not u64");
        assert_eq!(v.get("missing"), None);
    }

    #[test]
    fn string_escapes_round_trip() {
        let original = "a\"b\\c\nd\te\u{1f600}√";
        let doc = format!("{{\"s\":\"{}\"}}", escape(original));
        let v = parse(&doc).unwrap();
        assert_eq!(v.get_str("s"), Some(original));
        // Surrogate-pair escapes decode too.
        let v = parse(r#""\ud83d\ude00""#).unwrap();
        assert_eq!(v.as_str(), Some("\u{1f600}"));
        assert_eq!(parse(r#""\u0041""#).unwrap().as_str(), Some("A"));
    }

    #[test]
    fn malformed_input_is_an_error_not_a_panic() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\":}",
            "tru",
            "\"unterminated",
            "{\"a\":1}trailing",
            "\"\\u12\"",
            "\"\\q\"",
            "01a",
            "nul",
            "{\"a\" 1}",
            "\"\\ud800x\"",
            "\"\\ud800\\uffff\"",
            "\"\\u+041\"",
            "\"raw\ttab\"",
        ] {
            assert!(parse(bad).is_err(), "`{bad}` should fail");
        }
    }

    #[test]
    fn long_strings_parse_in_linear_time() {
        // One long string must not stall a request thread: reading it one
        // char at a time, re-validating the rest of the input for each,
        // was quadratic.
        let body = "é".repeat(1 << 19);
        let doc = format!("{{\"id\":\"{body}\"}}");
        let start = std::time::Instant::now();
        let v = parse(&doc).unwrap();
        assert_eq!(v.get_str("id").map(str::len), Some(1 << 20));
        assert!(start.elapsed().as_secs_f64() < 2.0, "{:?}", start.elapsed());
    }

    #[test]
    fn depth_is_bounded() {
        let deep = "[".repeat(100) + &"]".repeat(100);
        assert!(parse(&deep).is_err());
        let ok = "[".repeat(40) + &"]".repeat(40);
        assert!(parse(&ok).is_ok());
    }

    #[test]
    fn typed_list_helpers_reject_mixed_arrays() {
        let v = parse(r#"{"a":[1,"x"],"b":"not a list","c":["x","y"]}"#).unwrap();
        assert!(v.get_u64_list("a").is_err());
        assert!(v.get_str_list("a").is_err());
        assert!(v.get_str_list("b").is_err());
        assert_eq!(
            v.get_str_list("c").unwrap(),
            Some(vec!["x".to_string(), "y".to_string()])
        );
        assert_eq!(v.get_str_list("missing").unwrap(), None);
        // Duplicate keys keep the first binding.
        let v = parse(r#"{"k":1,"k":2}"#).unwrap();
        assert_eq!(v.get_u64("k"), Some(1));
    }
}
