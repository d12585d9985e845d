//! The repository's one JSON codec (hand-rolled: the workspace builds
//! offline, so no serde).
//!
//! * [`Json`] and [`parse_json`]: the value type and its parser, which
//!   takes the RFC 8259 grammar only and also rejects numbers that
//!   overflow `f64` and nesting deeper than [`MAX_DEPTH`].
//! * [`Writer`], with [`object()`] and [`array()`] as entry points: a
//!   streaming writer that owns braces, commas, key quoting and string
//!   escaping. Numbers come pre-formatted by the caller (anything
//!   [`Display`]), so fixed-precision fields keep their exact bytes.
//! * Typed field readers on [`Json`] ([`Json::uint`], [`Json::f64`],
//!   [`Json::i64`], [`Json::str`], [`Json::bool`], [`Json::uints`] and
//!   [`Json::opt`]): a missing field, a wrong type or a number the field
//!   cannot hold exactly is an error, never a cast.
//!
//! Two encoding rules hold for every document. Integers ride JSON numbers,
//! which readers parse as `f64`, so a `uint` field must stay below 2^53
//! ([`MAX_EXACT_UINT`]); values that can exceed it, such as the simulated
//! program's `i64` addresses and values in the event stream, are written
//! as strings ([`Writer::i64`]). An absent optional value is written as
//! `null`.

use std::fmt::{Display, Write as _};

/// A parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number (parsed as `f64`, always finite).
    Num(f64),
    /// String.
    Str(String),
    /// Array.
    Arr(Vec<Json>),
    /// Object, in source order.
    Obj(Vec<(String, Json)>),
}

/// Integers below this bound (2^53) survive a round trip through an `f64`
/// JSON number exactly; [`Json::uint`] rejects anything at or above it.
pub const MAX_EXACT_UINT: u64 = 1 << 53;

/// The deepest nesting of arrays and objects [`parse_json`] accepts. The
/// deepest documents the repository writes nest 5 levels (a campaign
/// report's per-shard `failed` lists, the benchmark's result line); the
/// bound only stops hostile input from overflowing the parser's stack.
pub const MAX_DEPTH: usize = 128;

impl Json {
    /// Member lookup on objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The string value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    fn field(&self, key: &str) -> Result<&Json, String> {
        self.get(key).ok_or_else(|| format!("missing `{key}`"))
    }
}

/// Typed field readers: each reads member `key` of an object and returns
/// an error naming it when the member is missing or does not hold the
/// type exactly. No reader casts, rounds or clamps.
impl Json {
    /// An unsigned integer below [`MAX_EXACT_UINT`] that fits `T`.
    pub fn uint<T: TryFrom<u64>>(&self, key: &str) -> Result<T, String> {
        uint_value(self.field(key)?, key)
    }

    /// An array of [`Json::uint`] values.
    pub fn uints(&self, key: &str) -> Result<Vec<u64>, String> {
        match self.field(key)? {
            Json::Arr(items) => items.iter().map(|v| uint_value(v, key)).collect(),
            _ => Err(format!("`{key}` is not an array")),
        }
    }

    /// A finite number.
    pub fn f64(&self, key: &str) -> Result<f64, String> {
        match self.field(key)? {
            Json::Num(n) if n.is_finite() => Ok(*n),
            _ => Err(format!("`{key}` is not a finite number")),
        }
    }

    /// An `i64` written as a decimal string ([`Writer::i64`]).
    pub fn i64(&self, key: &str) -> Result<i64, String> {
        self.field(key)?
            .as_str()
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| format!("`{key}` is not a string-encoded i64"))
    }

    /// A string.
    pub fn str(&self, key: &str) -> Result<&str, String> {
        self.field(key)?
            .as_str()
            .ok_or_else(|| format!("`{key}` is not a string"))
    }

    /// A boolean.
    pub fn bool(&self, key: &str) -> Result<bool, String> {
        match self.field(key)? {
            Json::Bool(b) => Ok(*b),
            _ => Err(format!("`{key}` is not a boolean")),
        }
    }

    /// `None` for `null`, otherwise the member as `read` (one of the
    /// readers above) reads it.
    pub fn opt<'a, T>(
        &'a self,
        key: &str,
        read: fn(&'a Json, &str) -> Result<T, String>,
    ) -> Result<Option<T>, String> {
        match self.field(key)? {
            Json::Null => Ok(None),
            _ => read(self, key).map(Some),
        }
    }
}

fn uint_value<T: TryFrom<u64>>(v: &Json, key: &str) -> Result<T, String> {
    let n = v
        .as_num()
        .ok_or_else(|| format!("`{key}` is not a number"))?;
    if !(0.0..MAX_EXACT_UINT as f64).contains(&n) || n.fract() != 0.0 {
        return Err(format!(
            "`{key}` is not an exact unsigned integer below 2^53: {n}"
        ));
    }
    T::try_from(n as u64).map_err(|_| format!("`{key}` is out of range: {n}"))
}

/// Compact JSON text; parsing it back gives an equal value.
impl Display for Json {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let doc = match self {
            Json::Null => "null".to_string(),
            Json::Bool(b) => b.to_string(),
            Json::Num(n) => n.to_string(),
            Json::Str(s) => {
                let mut out = String::new();
                write_str(&mut out, s);
                out
            }
            Json::Arr(items) => array(|w| {
                for v in items {
                    w.item_raw(v);
                }
            }),
            Json::Obj(members) => object(|w| {
                for (k, v) in members {
                    w.raw(k, v);
                }
            }),
        };
        f.write_str(&doc)
    }
}

// ---------------------------------------------------------------------
// Writing
// ---------------------------------------------------------------------

/// Append `s` to `out` as a quoted, escaped JSON string literal.
fn write_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Streaming JSON writer. Keyed methods add an object member, `item_*`
/// methods an array element; the writer places every comma. Containers
/// are written by closures ([`Writer::obj`], [`Writer::arr`]), so they
/// always close.
#[derive(Debug, Default)]
pub struct Writer {
    out: String,
    /// Whether the next member or element needs a separating comma.
    comma: bool,
}

/// Render one JSON object whose members `f` writes.
pub fn object(f: impl FnOnce(&mut Writer)) -> String {
    let mut w = Writer::default();
    w.container(b'{', f);
    w.out
}

/// Render one JSON array whose elements `f` writes.
pub fn array(f: impl FnOnce(&mut Writer)) -> String {
    let mut w = Writer::default();
    w.container(b'[', f);
    w.out
}

impl Writer {
    /// Start a value: the separating comma, then `"key":` for a member.
    fn next(&mut self, key: Option<&str>) -> &mut String {
        if self.comma {
            self.out.push(',');
        }
        self.comma = true;
        if let Some(key) = key {
            write_str(&mut self.out, key);
            self.out.push(':');
        }
        &mut self.out
    }

    fn container(&mut self, open: u8, f: impl FnOnce(&mut Writer)) {
        self.out.push(open as char);
        self.comma = false;
        f(self);
        self.out.push(if open == b'{' { '}' } else { ']' });
        self.comma = true;
    }

    /// Member with a pre-formatted value written verbatim: a number, a
    /// boolean, or a document another encoder rendered.
    pub fn raw(&mut self, key: &str, v: impl Display) -> &mut Self {
        let _ = write!(self.next(Some(key)), "{v}");
        self
    }

    /// String member.
    pub fn str(&mut self, key: &str, s: &str) -> &mut Self {
        write_str(self.next(Some(key)), s);
        self
    }

    /// `i64` member, written as a decimal string: program addresses and
    /// values routinely exceed the integers an `f64` holds exactly.
    pub fn i64(&mut self, key: &str, v: i64) -> &mut Self {
        let _ = write!(self.next(Some(key)), "\"{v}\"");
        self
    }

    /// `null` when absent, otherwise the member as `write` (one of the
    /// methods above) writes it.
    pub fn opt<T>(
        &mut self,
        key: &str,
        v: Option<T>,
        write: for<'w> fn(&'w mut Writer, &str, T) -> &'w mut Writer,
    ) -> &mut Self {
        match v {
            Some(v) => write(self, key, v),
            None => self.raw(key, "null"),
        }
    }

    /// Object member whose members `f` writes.
    pub fn obj(&mut self, key: &str, f: impl FnOnce(&mut Writer)) -> &mut Self {
        self.next(Some(key));
        self.container(b'{', f);
        self
    }

    /// Array member whose elements `f` writes.
    pub fn arr(&mut self, key: &str, f: impl FnOnce(&mut Writer)) -> &mut Self {
        self.next(Some(key));
        self.container(b'[', f);
        self
    }

    /// Array member of pre-formatted values.
    pub fn raws<I: IntoIterator<Item: Display>>(&mut self, key: &str, items: I) -> &mut Self {
        self.arr(key, |w| {
            for v in items {
                w.item_raw(v);
            }
        })
    }

    /// Array member of strings.
    pub fn strs<I: IntoIterator<Item: AsRef<str>>>(&mut self, key: &str, items: I) -> &mut Self {
        self.arr(key, |w| {
            for s in items {
                w.item_str(s.as_ref());
            }
        })
    }

    /// Array element written verbatim (see [`Writer::raw`]).
    pub fn item_raw(&mut self, v: impl Display) -> &mut Self {
        let _ = write!(self.next(None), "{v}");
        self
    }

    /// String array element.
    fn item_str(&mut self, s: &str) -> &mut Self {
        write_str(self.next(None), s);
        self
    }

    /// Object array element whose members `f` writes.
    pub fn item_obj(&mut self, f: impl FnOnce(&mut Writer)) -> &mut Self {
        self.next(None);
        self.container(b'{', f);
        self
    }

    /// Array element that is itself an array of strings.
    pub fn item_strs<I: IntoIterator<Item: AsRef<str>>>(&mut self, items: I) -> &mut Self {
        self.next(None);
        self.container(b'[', |w| {
            for s in items {
                w.item_str(s.as_ref());
            }
        });
        self
    }
}

// ---------------------------------------------------------------------
// Parsing
// ---------------------------------------------------------------------

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Open arrays and objects around the current position.
    depth: usize,
}

impl Parser<'_> {
    fn ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| matches!(b, b' ' | b'\t' | b'\n' | b'\r'))
        {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        self.ws();
        if self.bytes.get(self.pos) == Some(&b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!(
                "expected `{}` at byte {}, found {:?}",
                b as char,
                self.pos,
                self.bytes.get(self.pos).map(|c| *c as char)
            ))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.ws();
        match self.bytes.get(self.pos) {
            Some(b'{' | b'[') if self.depth == MAX_DEPTH => Err(format!(
                "nesting deeper than {MAX_DEPTH} levels at byte {}",
                self.pos
            )),
            Some(b'{') => self.nested(Self::object),
            Some(b'[') => self.nested(Self::array),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(_) => self.number(),
            None => Err("unexpected end of input".into()),
        }
    }

    fn nested(&mut self, f: fn(&mut Self) -> Result<Json, String>) -> Result<Json, String> {
        self.depth += 1;
        let v = f(self);
        self.depth -= 1;
        v
    }

    fn literal(&mut self, lit: &str, v: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    /// Step past one byte of `set`; whether there was one.
    fn eat(&mut self, set: &[u8]) -> bool {
        let hit = self.bytes.get(self.pos).is_some_and(|b| set.contains(b));
        self.pos += usize::from(hit);
        hit
    }

    /// Step past a run of ASCII digits; how many there were.
    fn digits(&mut self) -> usize {
        let start = self.pos;
        while self.bytes.get(self.pos).is_some_and(u8::is_ascii_digit) {
            self.pos += 1;
        }
        self.pos - start
    }

    /// `-?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?`, finite as `f64`.
    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        self.eat(b"-");
        let int = self.eat(b"0") || self.digits() > 0;
        let frac = !self.eat(b".") || self.digits() > 0;
        let exp = !self.eat(b"eE") || {
            self.eat(b"+-");
            self.digits() > 0
        };
        std::str::from_utf8(&self.bytes[start..self.pos])
            .ok()
            .filter(|_| int && frac && exp)
            .and_then(|s| s.parse::<f64>().ok())
            .filter(|n| n.is_finite())
            .map(Json::Num)
            .ok_or_else(|| format!("bad or out-of-range number at byte {start}"))
    }

    /// The four hex digits after the `u` at `pos`, leaving `pos` on the
    /// last of them.
    fn hex4(&mut self) -> Result<u32, String> {
        let v = self
            .bytes
            .get(self.pos + 1..self.pos + 5)
            .filter(|h| h.iter().all(u8::is_ascii_hexdigit))
            .and_then(|h| u32::from_str_radix(std::str::from_utf8(h).ok()?, 16).ok())
            .ok_or_else(|| format!("bad \\u escape at byte {}", self.pos))?;
        self.pos += 4;
        Ok(v)
    }

    /// A `\u` escape with `pos` on its `u`: one code point, or a high
    /// surrogate escape followed by a low one.
    fn unicode_escape(&mut self) -> Result<char, String> {
        let at = self.pos;
        let hi = self.hex4()?;
        let code = match hi {
            0xd800..=0xdbff if self.bytes.get(self.pos + 1..self.pos + 3) == Some(b"\\u") => {
                self.pos += 2;
                let lo = self.hex4()?;
                if !(0xdc00..=0xdfff).contains(&lo) {
                    return Err(format!("unpaired surrogate escape at byte {at}"));
                }
                0x10000 + ((hi - 0xd800) << 10) + (lo - 0xdc00)
            }
            _ => hi,
        };
        char::from_u32(code).ok_or_else(|| format!("unpaired surrogate escape at byte {at}"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.bytes.get(self.pos) {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.bytes.get(self.pos) {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b't') => out.push('\t'),
                        Some(b'r') => out.push('\r'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => out.push(self.unicode_escape()?),
                        _ => return Err(format!("bad escape at byte {}", self.pos)),
                    }
                    self.pos += 1;
                }
                Some(&b) if b < 0x20 => {
                    return Err(format!("unescaped control character at byte {}", self.pos));
                }
                Some(_) => {
                    // Multi-byte UTF-8 sequences pass through untouched.
                    let s = &self.bytes[self.pos..];
                    let ch_len = match s[0] {
                        b if b < 0x80 => 1,
                        b if b >= 0xf0 => 4,
                        b if b >= 0xe0 => 3,
                        _ => 2,
                    };
                    out.push_str(
                        std::str::from_utf8(&s[..ch_len.min(s.len())])
                            .map_err(|_| "invalid utf-8 in string".to_string())?,
                    );
                    self.pos += ch_len;
                }
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.ws();
        if self.bytes.get(self.pos) == Some(&b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.ws();
            match self.bytes.get(self.pos) {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(format!("expected `,` or `]` at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut members = Vec::new();
        self.ws();
        if self.bytes.get(self.pos) == Some(&b'}') {
            self.pos += 1;
            return Ok(Json::Obj(members));
        }
        loop {
            self.ws();
            let key = self.string()?;
            self.expect(b':')?;
            let val = self.value()?;
            members.push((key, val));
            self.ws();
            match self.bytes.get(self.pos) {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(members));
                }
                _ => return Err(format!("expected `,` or `}}` at byte {}", self.pos)),
            }
        }
    }
}

/// Parse a JSON document (RFC 8259). Numbers must also be finite as `f64`,
/// and containers may nest at most [`MAX_DEPTH`] deep.
///
/// # Errors
/// A description of the first syntax error.
pub fn parse_json(s: &str) -> Result<Json, String> {
    let mut p = Parser {
        bytes: s.as_bytes(),
        pos: 0,
        depth: 0,
    };
    let v = p.value()?;
    p.ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing garbage at byte {}", p.pos));
    }
    Ok(v)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parser_round_trips_the_basics() {
        let v =
            parse_json("{\"a\":[1,2.5,-3],\"b\":\"x\\ny\",\"c\":null,\"d\":true}").expect("parses");
        assert_eq!(
            v.get("a"),
            Some(&Json::Arr(vec![
                Json::Num(1.0),
                Json::Num(2.5),
                Json::Num(-3.0)
            ]))
        );
        assert_eq!(v.get("b").and_then(Json::as_str), Some("x\ny"));
        assert_eq!(v.get("c"), Some(&Json::Null));
        assert_eq!(v.get("d"), Some(&Json::Bool(true)));
        assert!(parse_json("[1,]").is_err());
        assert!(parse_json("{\"a\":1} trailing").is_err());
    }

    #[test]
    fn nesting_is_bounded() {
        for deep in ["[".repeat(100_000), "{\"a\":".repeat(100_000)] {
            let err = parse_json(&deep).expect_err("too deep");
            assert!(err.contains("nesting deeper than 128"), "{err}");
        }
        let ok = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse_json(&ok).is_ok());
        let over = format!("{}{}", "[".repeat(MAX_DEPTH + 1), "]".repeat(MAX_DEPTH + 1));
        assert!(parse_json(&over).is_err());
    }

    #[test]
    fn numbers_overflowing_f64_are_rejected() {
        assert!(parse_json("1e400").is_err());
        assert!(parse_json("[-1e400]").is_err());
        assert!(parse_json(&format!("1{}", "0".repeat(400))).is_err());
        assert_eq!(parse_json("1e-400"), Ok(Json::Num(0.0)));
    }

    #[test]
    fn only_rfc_8259_numbers_parse() {
        for ok in [
            "0", "-0", "7", "-12", "0.5", "-1.25", "1e5", "1E+5", "2e-3", "10.0e0",
        ] {
            assert!(parse_json(ok).is_ok(), "{ok}");
        }
        assert_eq!(parse_json("-1.5e2"), Ok(Json::Num(-150.0)));
        for bad in [
            "+1",
            ".5",
            "1.",
            "01",
            "-01",
            "00",
            "-",
            "1e",
            "1e+",
            "1.e3",
            "-.5",
            "0x10",
            "1_0",
            "Infinity",
            "NaN",
            "[+1]",
            "[1.]",
            "{\"a\":01}",
        ] {
            assert!(parse_json(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn only_rfc_8259_strings_parse() {
        assert_eq!(parse_json(r#""\u004A\u00e9""#), Ok(Json::Str("Jé".into())));
        // A surrogate pair is one character; a lone surrogate is an error.
        assert_eq!(
            parse_json(r#""\ud83d\ude00""#),
            Ok(Json::Str("\u{1f600}".into()))
        );
        for bad in [
            r#""\u+04a""#,
            r#""\u04a""#,
            r#""\u 04a""#,
            r#""\ud83d""#,
            r#""\ud83dx""#,
            r#""\ud83d\u0041""#,
            r#""\ude00""#,
            r#""\ude00\ud83d""#,
            "\"a\u{1}b\"",
            "\"tab\there\"",
            "\"\n\"",
        ] {
            assert!(parse_json(bad).is_err(), "{bad:?}");
        }
        // The writer escapes every control character the parser refuses
        // raw, and writes astral characters as UTF-8.
        let s = "\u{0}\u{1f}\u{7f}\u{1f600}";
        let doc = object(|w| {
            w.str("s", s);
        });
        assert_eq!(parse_json(&doc).expect("parses").str("s"), Ok(s));
    }

    #[test]
    fn writer_places_commas_escapes_and_nulls() {
        let doc = object(|w| {
            w.str("s", "a\"b\\c\nd\te\r\u{1}é")
                .raw("n", format_args!("{:.3}", 1.5))
                .raw("b", true)
                .opt("none", None::<u64>, Writer::raw)
                .opt("s2", Some("x"), Writer::str)
                .i64("v", -(1 << 60))
                .opt("v2", None, Writer::i64)
                .raws("xs", [1, 2])
                .strs("ys", ["p"])
                .arr("rows", |w| {
                    w.item_strs(["a", "b"]).item_strs(Vec::<String>::new());
                })
                .obj("o", |w| {
                    w.arr("e", |_| {});
                })
                .arr("objs", |w| {
                    w.item_obj(|w| {
                        w.raw("k", 1);
                    })
                    .item_obj(|_| {});
                });
        });
        assert_eq!(
            doc,
            r#"{"s":"a\"b\\c\nd\te\r\u0001é","n":1.500,"b":true,"none":null,"s2":"x","v":"-1152921504606846976","v2":null,"xs":[1,2],"ys":["p"],"rows":[["a","b"],[]],"o":{"e":[]},"objs":[{"k":1},{}]}"#
        );
        let parsed = parse_json(&doc).expect("parses");
        assert_eq!(parsed.str("s"), Ok("a\"b\\c\nd\te\r\u{1}é"));
        assert_eq!(parsed.to_string(), doc.replace("1.500", "1.5"));
        assert_eq!(
            array(|w| {
                w.item_raw(1).item_str("x");
            }),
            r#"[1,"x"]"#
        );
        assert_eq!(array(|_| {}), "[]");
    }

    #[test]
    fn readers_reject_what_they_cannot_hold_exactly() {
        let j = parse_json(
            r#"{"ok":9007199254740991,"big":9007199254740992,"neg":-1,"frac":2.9,
                "negzero":-0,"s":"x","i":"-5","bad_i":"1.5","null":null,"b":false,
                "list":[1,2],"bad_list":[1,-2],"f":0.25,"u32":4294967296}"#,
        )
        .expect("parses");
        assert_eq!(j.uint::<u64>("ok"), Ok((1 << 53) - 1));
        assert_eq!(j.uint::<u64>("negzero"), Ok(0));
        for key in ["big", "neg", "frac", "s", "null", "missing"] {
            assert!(j.uint::<u64>(key).is_err(), "{key}");
        }
        assert!(j.uint::<u32>("u32").is_err());
        assert_eq!(j.opt::<u64>("null", Json::uint), Ok(None));
        assert!(j.opt::<u64>("neg", Json::uint).is_err());
        assert!(j.opt::<u64>("missing", Json::uint).is_err());
        assert_eq!(j.uints("list"), Ok(vec![1, 2]));
        assert!(j.uints("bad_list").is_err());
        assert!(j.uints("s").is_err());
        assert_eq!(j.f64("f"), Ok(0.25));
        assert!(j.f64("s").is_err());
        assert!(Json::Obj(vec![("f".into(), Json::Num(f64::INFINITY))])
            .f64("f")
            .is_err());
        assert_eq!(j.i64("i"), Ok(-5));
        assert!(j.i64("bad_i").is_err());
        assert!(j.i64("ok").is_err(), "i64 fields are strings");
        assert_eq!(j.opt("null", Json::i64), Ok(None));
        assert_eq!(j.str("s"), Ok("x"));
        assert_eq!(j.opt("null", Json::str), Ok(None));
        assert!(j.opt("b", Json::str).is_err());
        assert_eq!(j.bool("b"), Ok(false));
        assert!(j.bool("s").is_err());
    }
}
