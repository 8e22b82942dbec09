//! The workspace's one JSON codec: a minimal, strict parser and writer
//! for the flat objects of the `ctbia-serve-v1` protocol and the
//! `ctbia-metrics-v1` documents.
//!
//! The workspace has no serde, so both formats are deliberately *flat*:
//! one JSON object whose values are strings, non-negative integers, or
//! booleans. That is exactly enough for request/response envelopes and
//! metrics documents, and small enough that the parser can be strict:
//! anything else (nesting, floats, negatives, duplicate keys, trailing
//! garbage) is rejected with a description of the first problem, which
//! the daemon turns into a typed error envelope instead of dropping the
//! connection.

use std::fmt::Write;

/// One field value of a flat protocol object.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Value {
    /// A JSON string (unescaped).
    Str(String),
    /// A non-negative integer (the protocol never needs more).
    Num(u64),
    /// `true` or `false`.
    Bool(bool),
}

/// An ordered flat JSON object: the envelope currency of the protocol.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Object {
    fields: Vec<(String, Value)>,
}

impl Object {
    /// An empty object.
    pub fn new() -> Object {
        Object::default()
    }

    /// Appends a string field.
    pub fn push_str(&mut self, key: &str, value: impl Into<String>) -> &mut Self {
        self.fields.push((key.into(), Value::Str(value.into())));
        self
    }

    /// Appends an integer field.
    pub fn push_num(&mut self, key: &str, value: u64) -> &mut Self {
        self.fields.push((key.into(), Value::Num(value)));
        self
    }

    /// Appends a boolean field.
    pub fn push_bool(&mut self, key: &str, value: bool) -> &mut Self {
        self.fields.push((key.into(), Value::Bool(value)));
        self
    }

    /// Looks a field up by key.
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.fields.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// The string value of `key`, if present and a string.
    pub fn get_str(&self, key: &str) -> Option<&str> {
        match self.get(key) {
            Some(Value::Str(s)) => Some(s),
            _ => None,
        }
    }

    /// The integer value of `key`, if present and an integer.
    pub fn get_num(&self, key: &str) -> Option<u64> {
        match self.get(key) {
            Some(Value::Num(n)) => Some(*n),
            _ => None,
        }
    }

    /// The boolean value of `key`, if present and a boolean.
    pub fn get_bool(&self, key: &str) -> Option<bool> {
        match self.get(key) {
            Some(Value::Bool(b)) => Some(*b),
            _ => None,
        }
    }

    /// The fields in insertion order.
    pub fn fields(&self) -> &[(String, Value)] {
        &self.fields
    }

    /// Serializes the object on one line — the wire form of an envelope.
    pub fn to_line(&self) -> String {
        // Quotes and separators take 8 bytes a field and an integer at
        // most 20; only escapes can outgrow this.
        let len: usize = self
            .fields
            .iter()
            .map(|(k, v)| {
                k.len()
                    + 8
                    + match v {
                        Value::Str(s) => s.len(),
                        _ => 20,
                    }
            })
            .sum();
        let mut out = String::with_capacity(len + 2);
        out.push('{');
        for (i, (key, value)) in self.fields.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push('"');
            escape_into(&mut out, key);
            out.push_str("\": ");
            match value {
                Value::Str(s) => {
                    out.push('"');
                    escape_into(&mut out, s);
                    out.push('"');
                }
                // Writing into a `String` cannot fail.
                Value::Num(n) => {
                    let _ = write!(out, "{n}");
                }
                Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            }
        }
        out.push('}');
        out
    }
}

/// Appends `s` to `out` escaped for a JSON string literal: quotes,
/// backslashes and newlines get their short escapes, every other control
/// character a `\u` escape, and runs of plain characters are copied as
/// one slice.
pub(crate) fn escape_into(out: &mut String, s: &str) {
    let bytes = s.as_bytes();
    let mut plain = 0;
    let mut i = 0;
    while i < bytes.len() {
        // Printable ASCII other than `"` and `\` is always plain; only
        // the rest is decoded, since a control char may be multi-byte.
        if matches!(bytes[i], 0x20..=0x7e) && bytes[i] != b'"' && bytes[i] != b'\\' {
            i += 1;
            continue;
        }
        let c = s[i..].chars().next().unwrap_or_default();
        let at = i;
        i += c.len_utf8();
        let short = match c {
            '"' => "\\\"",
            '\\' => "\\\\",
            '\n' => "\\n",
            c if c.is_control() => "",
            _ => continue,
        };
        out.push_str(&s[plain..at]);
        plain = i;
        if short.is_empty() {
            // Writing into a `String` cannot fail.
            let _ = write!(out, "\\u{:04x}", c as u32);
        } else {
            out.push_str(short);
        }
    }
    out.push_str(&s[plain..]);
}

/// Parses one flat JSON object. Strict by design: the input must be a
/// single object of string/integer/boolean values with no duplicate keys
/// and nothing but whitespace around it.
///
/// # Errors
///
/// Returns a description of the first problem found.
pub fn parse_object(input: &str) -> Result<Object, String> {
    let mut p = Parser { input, pos: 0 };
    p.skip_ws();
    p.expect(b'{')?;
    let mut obj = Object::new();
    p.skip_ws();
    if p.peek() == Some(b'}') {
        p.pos += 1;
    } else {
        loop {
            p.skip_ws();
            let key = p.string()?;
            if obj.get(&key).is_some() {
                return Err(format!("duplicate key {key:?}"));
            }
            p.skip_ws();
            p.expect(b':')?;
            p.skip_ws();
            let value = p.value()?;
            obj.fields.push((key, value));
            p.skip_ws();
            match p.peek() {
                Some(b',') => p.pos += 1,
                Some(b'}') => {
                    p.pos += 1;
                    break;
                }
                Some(_) => return Err(format!("expected ',' or '}}', found {:?}", p.found())),
                None => return Err("unterminated object".into()),
            }
        }
    }
    p.skip_ws();
    if p.peek().is_some() {
        return Err(format!("trailing content after object: {:?}", p.found()));
    }
    Ok(obj)
}

/// A cursor over the input's bytes. Every byte the grammar acts on is
/// ASCII, and a UTF-8 continuation or lead byte is never ASCII, so the
/// cursor only ever rests on a char boundary and a run of plain string
/// bytes is always whole UTF-8 that can be copied as one slice.
struct Parser<'a> {
    input: &'a str,
    pos: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Option<u8> {
        self.input.as_bytes().get(self.pos).copied()
    }

    /// The whole (possibly multi-byte) char at the cursor, decoded only
    /// to quote it in an error message. Callers have seen a byte there.
    fn found(&self) -> char {
        self.input[self.pos..].chars().next().unwrap_or_default()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\r' | b'\n')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, want: u8) -> Result<(), String> {
        let want_char = char::from(want);
        match self.peek() {
            Some(b) if b == want => {
                self.pos += 1;
                Ok(())
            }
            Some(_) => Err(format!("expected {want_char:?}, found {:?}", self.found())),
            None => Err(format!("expected {want_char:?}, found end of input")),
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let bytes = self.input.as_bytes();
        let mut out = String::new();
        loop {
            let run = self.pos;
            while bytes
                .get(self.pos)
                .is_some_and(|&b| b != b'"' && b != b'\\' && b >= 0x20)
            {
                self.pos += 1;
            }
            out.push_str(&self.input[run..self.pos]);
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    self.escape(&mut out)?;
                }
                Some(_) => return Err("raw control character in string".into()),
                None => return Err("unterminated string".into()),
            }
        }
    }

    /// Decodes the escape after a backslash into `out`.
    fn escape(&mut self, out: &mut String) -> Result<(), String> {
        let Some(c) = self.input[self.pos..].chars().next() else {
            return Err("unterminated string escape".into());
        };
        self.pos += c.len_utf8();
        match c {
            '"' => out.push('"'),
            '\\' => out.push('\\'),
            '/' => out.push('/'),
            'n' => out.push('\n'),
            't' => out.push('\t'),
            'r' => out.push('\r'),
            'u' => {
                // Four *chars*, not bytes: a multi-byte char inside the
                // escape is quoted whole in the error.
                let rest = &self.input[self.pos..];
                let len = rest
                    .char_indices()
                    .nth(3)
                    .map(|(i, c)| i + c.len_utf8())
                    .ok_or("truncated \\u escape")?;
                let hex = &rest[..len];
                self.pos += len;
                let code =
                    u32::from_str_radix(hex, 16).map_err(|_| format!("bad \\u escape {hex:?}"))?;
                out.push(char::from_u32(code).ok_or("bad \\u code point")?);
            }
            c => return Err(format!("unknown escape \\{c}")),
        }
        Ok(())
    }

    fn value(&mut self) -> Result<Value, String> {
        let bytes = self.input.as_bytes();
        match self.peek() {
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b't' | b'f') => {
                let len = bytes[self.pos..]
                    .iter()
                    .take_while(|b| b.is_ascii_alphabetic())
                    .count();
                let word = &self.input[self.pos..self.pos + len];
                self.pos += len;
                match word {
                    "true" => Ok(Value::Bool(true)),
                    "false" => Ok(Value::Bool(false)),
                    other => Err(format!("unknown literal {other:?}")),
                }
            }
            Some(b) if b.is_ascii_digit() => {
                let mut n: u64 = 0;
                while let Some(b) = self.peek().filter(u8::is_ascii_digit) {
                    n = n
                        .checked_mul(10)
                        .and_then(|n| n.checked_add(u64::from(b - b'0')))
                        .ok_or("integer overflows u64")?;
                    self.pos += 1;
                }
                if matches!(self.peek(), Some(b'.' | b'e' | b'E')) {
                    return Err("floating-point values are not part of the protocol".into());
                }
                Ok(Value::Num(n))
            }
            Some(b'{' | b'[') => {
                Err("nested objects and arrays are not part of the protocol".into())
            }
            Some(_) => Err(format!("unexpected character {:?}", self.found())),
            None => Err("expected a value, found end of input".into()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_all_value_kinds() {
        let mut obj = Object::new();
        obj.push_str("schema", "ctbia-serve-v1")
            .push_num("size", 2000)
            .push_bool("eval", true)
            .push_str("label", "odd \"label\"\\with\nstuff");
        let line = obj.to_line();
        assert!(!line.contains('\n'), "wire form is one line: {line}");
        assert_eq!(parse_object(&line).unwrap(), obj);
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in [
            "",
            "not json",
            "{",
            "{}x",
            "{\"a\": }",
            "{\"a\": -1}",
            "{\"a\": 1.5}",
            "{\"a\": 1e9}",
            "{\"a\": {\"b\": 1}}",
            "{\"a\": [1]}",
            "{\"a\": null}",
            "{\"a\": 1, \"a\": 2}",
            "{\"a\": \"unterminated}",
            "{\"a\": 99999999999999999999999999}",
        ] {
            assert!(parse_object(bad).is_err(), "accepted {bad:?}");
        }
    }

    /// The exact error text for a fixed table of malformed lines. The
    /// text reaches clients inside `bad_json` envelopes, so it is part of
    /// the wire contract.
    #[test]
    fn error_texts_are_pinned() {
        for (bad, want) in [
            ("", "expected '{', found end of input"),
            ("é", "expected '{', found 'é'"),
            ("{é", "expected '\"', found 'é'"),
            ("{\u{1}", "expected '\"', found '\\u{1}'"),
            ("{\"a\" é", "expected ':', found 'é'"),
            ("{\"a\": é}", "unexpected character 'é'"),
            ("{\"a\": -1}", "unexpected character '-'"),
            ("{\"a\": nul}", "unexpected character 'n'"),
            ("{\"a\": \"x\"é", "expected ',' or '}', found 'é'"),
            ("{}é", "trailing content after object: 'é'"),
            ("{\"a\": 1}😀", "trailing content after object: '😀'"),
            ("{\"a\": 1} x", "trailing content after object: 'x'"),
            ("{\"a\": \"\\uZZZZ\"}", "bad \\u escape \"ZZZZ\""),
            ("{\"a\": \"\\u00é1\"}", "bad \\u escape \"00é1\""),
            ("{\"a\": \"\\u12\"}", "bad \\u escape \"12\\\"}\""),
            ("{\"a\": \"\\u1", "truncated \\u escape"),
            ("{\"a\": \"\\ud800\"}", "bad \\u code point"),
            ("{\"a\": \"\\é\"}", "unknown escape \\é"),
            ("{\"a\": \"\\", "unterminated string escape"),
            ("{\"a\": \"x\u{1}y\"}", "raw control character in string"),
            ("{\"a\": \"é\ty\"}", "raw control character in string"),
            ("{\"a\": \"abc", "unterminated string"),
            (
                "{\"a\": {\"b\": 1}}",
                "nested objects and arrays are not part of the protocol",
            ),
            (
                "{\"a\": [1]}",
                "nested objects and arrays are not part of the protocol",
            ),
            (
                "{\"a\": 1.5}",
                "floating-point values are not part of the protocol",
            ),
            (
                "{\"a\": 1e9}",
                "floating-point values are not part of the protocol",
            ),
            ("{\"a\": 99999999999999999999}", "integer overflows u64"),
            ("{\"a\": tru}", "unknown literal \"tru\""),
            ("{\"a\": tréé}", "unknown literal \"tr\""),
            ("{\"é\": 1, \"é\": 2}", "duplicate key \"é\""),
            ("{\"a\": 1", "unterminated object"),
            ("{\"a\": ", "expected a value, found end of input"),
        ] {
            assert_eq!(parse_object(bad).unwrap_err(), want, "input {bad:?}");
        }
    }

    #[test]
    fn empty_object_and_whitespace_are_fine() {
        assert_eq!(parse_object(" {} ").unwrap(), Object::new());
        let obj = parse_object("  { \"op\" :\t\"status\" }  ").unwrap();
        assert_eq!(obj.get_str("op"), Some("status"));
    }

    #[test]
    fn typed_getters_check_types() {
        let obj = parse_object("{\"n\": 7, \"s\": \"x\", \"b\": false}").unwrap();
        assert_eq!(obj.get_num("n"), Some(7));
        assert_eq!(obj.get_str("n"), None);
        assert_eq!(obj.get_str("s"), Some("x"));
        assert_eq!(obj.get_bool("b"), Some(false));
        assert_eq!(obj.get_num("missing"), None);
    }
}

#[cfg(test)]
mod properties {
    use super::*;
    use proptest::collection::vec;
    use proptest::prelude::*;

    /// Characters every escaping rule touches: plain ASCII, quotes,
    /// backslashes, the short-escaped newline, C0 controls, DEL, a C1
    /// control, and two- to four-byte UTF-8.
    const ALPHABET: &[char] = &[
        'a', 'Z', '0', ' ', '/', ':', ',', '{', '}', '"', '\\', '\n', '\t', '\r', '\u{0}',
        '\u{1f}', '\u{7f}', '\u{85}', 'é', 'ß', '€', '字', '😀',
    ];

    fn text() -> impl Strategy<Value = String> {
        vec(0..ALPHABET.len(), 0..12).prop_map(|ix| ix.into_iter().map(|i| ALPHABET[i]).collect())
    }

    fn value() -> impl Strategy<Value = Value> {
        prop_oneof![
            text().prop_map(Value::Str),
            any::<u64>().prop_map(Value::Num),
            any::<bool>().prop_map(Value::Bool),
        ]
    }

    /// The escaper `escape_into` replaced: one allocation per string.
    fn reference_escape(s: &str) -> String {
        let mut out = String::with_capacity(s.len());
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                c if c.is_control() => {
                    out.push_str(&format!("\\u{:04x}", c as u32));
                }
                c => out.push(c),
            }
        }
        out
    }

    /// The wire form as the per-field encoder wrote it, for byte equality.
    fn reference_line(obj: &Object) -> String {
        let fields: Vec<String> = obj
            .fields()
            .iter()
            .map(|(k, v)| {
                let v = match v {
                    Value::Str(s) => format!("\"{}\"", reference_escape(s)),
                    Value::Num(n) => n.to_string(),
                    Value::Bool(b) => b.to_string(),
                };
                format!("\"{}\": {v}", reference_escape(k))
            })
            .collect();
        format!("{{{}}}", fields.join(", "))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn to_line_round_trips_through_parse_object(fields in vec((text(), value()), 0..6)) {
            let mut obj = Object::new();
            for (i, (key, value)) in fields.into_iter().enumerate() {
                // An index prefix keeps keys distinct: duplicates are an error.
                obj.fields.push((format!("{i}{key}"), value));
            }
            let line = obj.to_line();
            prop_assert!(!line.contains('\n'), "wire form is one line: {line:?}");
            prop_assert_eq!(&line, &reference_line(&obj));
            prop_assert_eq!(parse_object(&line), Ok(obj));
        }
    }
}
