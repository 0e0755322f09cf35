//! The workspace's one JSON codec (RFC 8259, no serde).
//!
//! Every on-disk format — model snapshots, measured cost profiles, the
//! telemetry JSONL lines that workload captures are made of — is read
//! into a [`Json`] tree by [`Json::parse`] and written from one by
//! [`Json::write`]; each format only maps its type to and from the tree.
//!
//! * The reader is strict: exactly RFC 8259 (no comments, trailing
//!   commas, leading zeros, `NaN`, or duplicate object keys), with
//!   nesting bounded by [`MAX_DEPTH`] so hostile input cannot overflow
//!   the stack.
//! * Numbers keep their source token, so a float written with
//!   round-trip (`{:?}`) formatting decodes bit for bit and a `u64`
//!   counter never passes through `f64`.
//! * The typed accessors ([`Json::f64`], [`Json::u64`], …) name the
//!   missing or mistyped key; [`Json::check_keys`] is the opt-in
//!   unknown-key check for formats that must not be silently misread.
//! * The writer is compact (no whitespace). JSON has no NaN or
//!   infinities, so non-finite floats are written as `null`.

use std::fmt;
use std::fmt::Write as _;

/// Deepest array/object nesting [`Json::parse`] accepts.
pub const MAX_DEPTH: usize = 64;

/// One JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number, as its source token (`"0.1"`, `"42"`, `"1e-7"`).
    Num(String),
    /// A string, unescaped.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object's fields in document order; keys are unique.
    Obj(Vec<(String, Json)>),
}

impl From<f64> for Json {
    /// `{:?}` is the shortest representation that parses back to the same
    /// bits, and it always carries a `.` or an exponent, so the token stays
    /// a float. Non-finite values become `null`.
    fn from(v: f64) -> Self {
        if v.is_finite() {
            Json::Num(format!("{v:?}"))
        } else {
            Json::Null
        }
    }
}

impl From<u64> for Json {
    fn from(v: u64) -> Self {
        Json::Num(v.to_string())
    }
}

impl From<&str> for Json {
    fn from(s: &str) -> Self {
        Json::Str(s.to_string())
    }
}

/// Collects into an array.
impl<T> FromIterator<T> for Json
where
    Json: From<T>,
{
    fn from_iter<I: IntoIterator<Item = T>>(items: I) -> Self {
        Json::Arr(items.into_iter().map(Json::from).collect())
    }
}

impl Json {
    /// An object from `(key, value)` pairs, in order.
    pub fn object<'a>(fields: impl IntoIterator<Item = (&'a str, Json)>) -> Self {
        Json::Obj(
            fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    /// Parses one JSON document; surrounding whitespace is allowed,
    /// anything else after the value is an error.
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut p = Parser { text, pos: 0 };
        let value = p.value(0)?;
        p.skip_ws();
        if p.pos != text.len() {
            return p.fail("trailing data");
        }
        Ok(value)
    }

    /// Appends the compact encoding to `out`.
    pub fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(token) => out.push_str(token),
            Json::Str(s) => write_str(out, s),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (key, value)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_str(out, key);
                    out.push(':');
                    value.write(out);
                }
                out.push('}');
            }
        }
    }

    /// The number as a finite `f64` (correctly rounded from its token).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(token) => token.parse().ok().filter(|v: &f64| v.is_finite()),
            _ => None,
        }
    }

    /// The number as a `u64`: an integer token in range, never a
    /// fraction or an exponent.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(token) => token.parse().ok(),
            _ => None,
        }
    }

    /// The string's contents.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The array's items.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The value under `key`, if this is an object that has it.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value under `key`, or an error naming the missing key.
    pub fn field(&self, key: &str) -> Result<&Json, String> {
        self.get(key).ok_or_else(|| format!("missing key {key:?}"))
    }

    /// The value under `key` converted by `cast`, or an error naming the
    /// key and the `expected` type.
    pub fn field_as<'a, T>(
        &'a self,
        key: &str,
        expected: &str,
        cast: impl FnOnce(&'a Json) -> Option<T>,
    ) -> Result<T, String> {
        cast(self.field(key)?).ok_or_else(|| format!("key {key:?} is not {expected}"))
    }

    /// The finite number under `key`.
    pub fn f64(&self, key: &str) -> Result<f64, String> {
        self.field_as(key, "a finite number", Json::as_f64)
    }

    /// The unsigned integer under `key`.
    pub fn u64(&self, key: &str) -> Result<u64, String> {
        self.field_as(key, "an unsigned integer", Json::as_u64)
    }

    /// The unsigned integer under `key`, as a `usize`.
    pub fn usize(&self, key: &str) -> Result<usize, String> {
        self.field_as(key, "an unsigned integer", |v| {
            v.as_u64().and_then(|n| usize::try_from(n).ok())
        })
    }

    /// The string under `key`.
    pub fn str(&self, key: &str) -> Result<&str, String> {
        self.field_as(key, "a string", Json::as_str)
    }

    /// The array under `key`.
    pub fn array(&self, key: &str) -> Result<&[Json], String> {
        self.field_as(key, "an array", Json::as_array)
    }

    /// The array of finite numbers under `key`.
    pub fn f64s(&self, key: &str) -> Result<Vec<f64>, String> {
        self.field_as(key, "an array of finite numbers", |v| {
            v.as_array()?.iter().map(Json::as_f64).collect()
        })
    }

    /// Fails unless this is an object whose keys are all in `known`.
    pub fn check_keys(&self, known: &[&str]) -> Result<(), String> {
        let Json::Obj(fields) = self else {
            return Err("expected a JSON object".to_string());
        };
        match fields.iter().find(|(k, _)| !known.contains(&k.as_str())) {
            Some((key, _)) => Err(format!("unknown key {key:?}")),
            None => Ok(()),
        }
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut out = String::new();
        self.write(&mut out);
        f.write_str(&out)
    }
}

/// Appends `s` as a quoted JSON string, escaping `"`, `\` and control
/// characters; everything else passes through as UTF-8.
pub(crate) fn write_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{08}' => out.push_str("\\b"),
            '\u{0c}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

struct Parser<'a> {
    text: &'a str,
    pos: usize,
}

impl Parser<'_> {
    fn fail<T>(&self, what: &str) -> Result<T, String> {
        Err(format!("{what} at byte {}", self.pos))
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn eat(&mut self, byte: u8) -> bool {
        let hit = self.peek() == Some(byte);
        self.pos += usize::from(hit);
        hit
    }

    fn expect(&mut self, byte: u8) -> Result<(), String> {
        if self.eat(byte) {
            Ok(())
        } else {
            self.fail(&format!("expected {:?}", byte as char))
        }
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'{' | b'[') if depth == MAX_DEPTH => self.fail("nesting too deep"),
            Some(b'{') => {
                let mut fields: Vec<(String, Json)> = Vec::new();
                self.sequence(b'}', |p| {
                    p.skip_ws();
                    let key = p.string()?;
                    if fields.iter().any(|(k, _)| *k == key) {
                        return p.fail(&format!("duplicate key {key:?}"));
                    }
                    p.skip_ws();
                    p.expect(b':')?;
                    fields.push((key, p.value(depth + 1)?));
                    Ok(())
                })?;
                Ok(Json::Obj(fields))
            }
            Some(b'[') => {
                let mut items = Vec::new();
                self.sequence(b']', |p| {
                    items.push(p.value(depth + 1)?);
                    Ok(())
                })?;
                Ok(Json::Arr(items))
            }
            Some(b'"') => self.string().map(Json::Str),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(_) => self.fail("unexpected character"),
            None => self.fail("unexpected end of input"),
        }
    }

    /// Steps over the opening bracket, then parses comma-separated items
    /// with `item` until `close`.
    fn sequence(
        &mut self,
        close: u8,
        mut item: impl FnMut(&mut Self) -> Result<(), String>,
    ) -> Result<(), String> {
        self.pos += 1;
        self.skip_ws();
        if self.eat(close) {
            return Ok(());
        }
        loop {
            item(self)?;
            self.skip_ws();
            if self.eat(close) {
                return Ok(());
            }
            self.expect(b',')?;
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.text[self.pos..].starts_with(word) {
            self.pos += word.len();
            Ok(value)
        } else {
            self.fail("invalid literal")
        }
    }

    /// Consumes a run of ASCII digits; whether there was at least one.
    fn digits(&mut self) -> bool {
        let start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        self.pos > start
    }

    /// `-? (0 | [1-9][0-9]*) (. [0-9]+)? ([eE] [+-]? [0-9]+)?`
    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        self.eat(b'-');
        if !self.eat(b'0') && !self.digits() {
            return self.fail("expected a digit");
        }
        if self.eat(b'.') && !self.digits() {
            return self.fail("expected a fraction digit");
        }
        if self.eat(b'e') || self.eat(b'E') {
            if !self.eat(b'+') {
                self.eat(b'-');
            }
            if !self.digits() {
                return self.fail("expected an exponent digit");
            }
        }
        Ok(Json::Num(self.text[start..self.pos].to_string()))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // Copy the run up to the next quote, backslash or control
            // byte; all three are ASCII, so the slice ends on a char
            // boundary.
            let start = self.pos;
            while matches!(self.peek(), Some(b) if b != b'"' && b != b'\\' && b >= 0x20) {
                self.pos += 1;
            }
            out.push_str(&self.text[start..self.pos]);
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    out.push(self.escape()?);
                }
                Some(_) => return self.fail("unescaped control character in string"),
                None => return self.fail("unterminated string"),
            }
        }
    }

    fn escape(&mut self) -> Result<char, String> {
        let Some(byte) = self.peek() else {
            return self.fail("unterminated escape");
        };
        self.pos += 1;
        Ok(match byte {
            b'"' => '"',
            b'\\' => '\\',
            b'/' => '/',
            b'b' => '\u{08}',
            b'f' => '\u{0c}',
            b'n' => '\n',
            b'r' => '\r',
            b't' => '\t',
            b'u' => {
                let high = self.hex4()?;
                let code = if (0xd800..0xdc00).contains(&high) {
                    if !(self.eat(b'\\') && self.eat(b'u')) {
                        return self.fail("unpaired surrogate");
                    }
                    let low = self.hex4()?;
                    if !(0xdc00..0xe000).contains(&low) {
                        return self.fail("unpaired surrogate");
                    }
                    0x10000 + ((high - 0xd800) << 10) + (low - 0xdc00)
                } else {
                    high
                };
                match char::from_u32(code) {
                    Some(c) => c,
                    None => return self.fail("unpaired surrogate"),
                }
            }
            _ => return self.fail("invalid escape"),
        })
    }

    fn hex4(&mut self) -> Result<u32, String> {
        match self.text.get(self.pos..self.pos + 4) {
            Some(hex) if hex.bytes().all(|b| b.is_ascii_hexdigit()) => {
                self.pos += 4;
                Ok(u32::from_str_radix(hex, 16).expect("four hex digits"))
            }
            _ => self.fail("expected four hex digits"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escapes_quotes_backslashes_and_control_chars() {
        let escaped = |s: &str| Json::from(s).to_string();
        assert_eq!(escaped(r#"a"b"#), r#""a\"b""#);
        assert_eq!(escaped(r"a\b"), r#""a\\b""#);
        assert_eq!(escaped("line1\nline2"), r#""line1\nline2""#);
        assert_eq!(escaped("tab\there"), r#""tab\there""#);
        assert_eq!(escaped("\r\u{08}\u{0c}"), r#""\r\b\f""#);
        assert_eq!(escaped("\u{01}"), r#""\u0001""#);
        assert_eq!(escaped("σ→∞"), "\"σ→∞\"", "unicode passes through");
    }

    #[test]
    fn numbers_round_trip_and_nonfinite_become_null() {
        for v in [0.1, 3.0, -0.0, 1.0 / 3.0, f64::MIN_POSITIVE, 5e-324, 1e300] {
            let token = Json::from(v).to_string();
            assert!(token.contains(['.', 'e']), "{token} must stay a float");
            let back = Json::parse(&token).unwrap().as_f64().unwrap();
            assert_eq!(back.to_bits(), v.to_bits(), "{token}");
        }
        assert_eq!(Json::from(3.0).to_string(), "3.0");
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert_eq!(Json::from(bad).to_string(), "null");
        }
        let max = Json::parse(&u64::MAX.to_string()).unwrap();
        assert_eq!(max.as_u64(), Some(u64::MAX), "u64 never passes through f64");
    }

    #[test]
    fn parses_every_value_kind_and_reencodes_compactly() {
        let text =
            " { \"a\" : [ 1 , -2.5e3 , true , false , null ] ,\r\n\t\"b\" : { } , \"c\" : [ ] ,
                      \"s\" : \"q\\\"\\\\\\/\\b\\f\\n\\r\\t\\u001f\\u00e9\\ud83d\\ude00\" } ";
        let value = Json::parse(text).unwrap();
        assert_eq!(value.array("a").unwrap().len(), 5);
        assert_eq!(value.str("s").unwrap(), "q\"\\/\u{8}\u{c}\n\r\t\u{1f}é😀");
        assert_eq!(
            value.to_string(),
            r#"{"a":[1,-2.5e3,true,false,null],"b":{},"c":[],"s":"q\"\\/\b\f\n\r\t\u001fé😀"}"#
        );
    }

    #[test]
    fn rejects_what_rfc_8259_rejects() {
        for bad in [
            "",
            " ",
            "{",
            "[1,]",
            "{\"a\":1,}",
            "{\"a\" 1}",
            "{a:1}",
            "{\"a\":1",
            "{\"a\":1}{",
            "{\"a\":1} extra",
            "[1] x",
            "01",
            "-",
            "1.",
            ".5",
            "1e",
            "+1",
            "NaN",
            "Infinity",
            "nul",
            "tru",
            "'a'",
            "\"unterminated",
            "\"tab\there\"",
            "\"\\x\"",
            "\"\\u12\"",
            "\"\\ud800\"",
            "\"\\udc00\"",
            "\u{feff}{}",
            "[1]\u{0b}",
            "{\"a\":1,\"a\":2}",
        ] {
            assert!(Json::parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn nesting_is_bounded() {
        let nested = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        assert!(Json::parse(&nested(MAX_DEPTH)).is_ok());
        let err = Json::parse(&nested(MAX_DEPTH + 1)).unwrap_err();
        assert!(err.contains("too deep"), "{err}");
        // Far past the bound: an error, not a stack overflow.
        assert!(Json::parse(&nested(1_000_000)).is_err());
    }

    #[test]
    fn accessors_name_the_missing_or_mistyped_key() {
        let v = Json::parse(r#"{"n":2.9,"s":"x","big":1e400,"neg":-1,"xs":[1.5,"y"]}"#).unwrap();
        assert_eq!(v.f64("n"), Ok(2.9));
        let errors = [
            v.u64("n").unwrap_err(),
            v.u64("neg").unwrap_err(),
            v.usize("s").unwrap_err(),
            v.f64("big").unwrap_err(),
            v.f64s("xs").unwrap_err(),
            v.str("gone").unwrap_err(),
            v.array("s").unwrap_err(),
        ];
        for (err, key) in errors
            .iter()
            .zip(["n", "neg", "s", "big", "xs", "gone", "s"])
        {
            assert!(err.contains(&format!("{key:?}")), "{err} should name {key}");
        }
        assert!(errors[5].contains("missing"), "{}", errors[5]);
        assert_eq!(v.check_keys(&["n", "s", "big", "neg", "xs"]), Ok(()));
        let err = v.check_keys(&["n", "s"]).unwrap_err();
        assert!(err.contains("\"big\""), "{err}");
        assert!(Json::Null.check_keys(&[]).is_err());
    }
}
