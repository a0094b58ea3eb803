//! A minimal, dependency-free JSON codec for the wire protocol.
//!
//! The daemon speaks newline-delimited JSON: one request or response
//! object per line. The workspace deliberately carries no `serde_json`
//! dependency, so this module implements the small subset the protocol
//! needs — objects, arrays, strings, numbers, booleans and null — with a
//! plain recursive-descent parser. Object members keep insertion order,
//! which makes encoded frames deterministic and easy to assert against
//! in tests.

use std::fmt::Write as _;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (stored as `f64`; protocol integers stay below
    /// 2^53 so the mapping is exact).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in insertion order.
    Obj(Vec<(String, Json)>),
}

/// A parse failure: a message plus the byte offset it occurred at.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Human-readable description.
    pub message: String,
    /// Byte offset in the input where parsing failed.
    pub offset: usize,
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} at byte {}", self.message, self.offset)
    }
}

impl std::error::Error for JsonError {}

impl Json {
    /// Builds an object from key/value pairs.
    pub fn obj(pairs: Vec<(&str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Builds a string value.
    pub fn str(s: &str) -> Json {
        Json::Str(s.to_string())
    }

    /// Member lookup on an object (`None` on other variants).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a float.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a non-negative integer: whole and below 2^53, the
    /// first value another integer's text can round onto.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n < 2f64.powi(53) => Some(*n as u64),
            _ => None,
        }
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an array slice.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The value's members as an ordered slice of pairs (objects only).
    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(members) => Some(members),
            _ => None,
        }
    }

    /// Encodes the value as compact single-line JSON.
    ///
    /// Allocates a fresh `String`; hot paths (the daemon's per-connection
    /// writer, the client's frame loop) should reuse a scratch buffer via
    /// [`Json::encode_into`] instead.
    pub fn encode(&self) -> String {
        let mut out = String::new();
        self.encode_into(&mut out);
        out
    }

    /// Appends the compact encoding to `out` without allocating a new
    /// buffer — `out.clear()` + `encode_into` + one `write_all` is the
    /// allocation-free frame path.
    pub fn encode_into(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            // JSON has no NaN or infinity; they encode as `null`, as
            // `obs::sink` writes them.
            Json::Num(n) if !n.is_finite() => out.push_str("null"),
            Json::Num(n) => {
                if n.fract() == 0.0 && n.abs() <= 2f64.powi(53) {
                    let _ = write!(out, "{}", *n as i64);
                } else {
                    let _ = write!(out, "{n}");
                }
            }
            Json::Str(s) => encode_string(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.encode_into(out);
                }
                out.push(']');
            }
            Json::Obj(members) => {
                out.push('{');
                for (i, (k, v)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    encode_string(k, out);
                    out.push(':');
                    v.encode_into(out);
                }
                out.push('}');
            }
        }
    }

    /// Parses one JSON value from `input`, requiring only trailing
    /// whitespace after it.
    ///
    /// # Errors
    ///
    /// Returns [`JsonError`] on malformed input.
    pub fn parse(input: &str) -> Result<Json, JsonError> {
        let mut p = Parser {
            bytes: input.as_bytes(),
            at: 0,
        };
        p.skip_ws();
        let value = p.value()?;
        p.skip_ws();
        if p.at != p.bytes.len() {
            return Err(p.err("trailing garbage"));
        }
        Ok(value)
    }
}

fn encode_string(s: &str, out: &mut String) {
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

struct Parser<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: &str) -> JsonError {
        JsonError {
            message: message.to_string(),
            offset: self.at,
        }
    }

    fn skip_ws(&mut self) {
        while let Some(b' ' | b'\t' | b'\n' | b'\r') = self.bytes.get(self.at) {
            self.at += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.at).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.at += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.at..].starts_with(word.as_bytes()) {
            self.at += word.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected '{word}'")))
        }
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.at;
        if self.peek() == Some(b'-') {
            self.at += 1;
        }
        while let Some(b'0'..=b'9') = self.peek() {
            self.at += 1;
        }
        if self.peek() == Some(b'.') {
            self.at += 1;
            while let Some(b'0'..=b'9') = self.peek() {
                self.at += 1;
            }
        }
        if let Some(b'e' | b'E') = self.peek() {
            self.at += 1;
            if let Some(b'+' | b'-') = self.peek() {
                self.at += 1;
            }
            while let Some(b'0'..=b'9') = self.peek() {
                self.at += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.at]).expect("ascii digits");
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| self.err("malformed number"))
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.at += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.at += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            self.at += 1;
                            let hex = self
                                .bytes
                                .get(self.at..self.at + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or_else(|| self.err("truncated \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("malformed \\u escape"))?;
                            // Surrogate pairs are outside the protocol's
                            // needs; map them to the replacement character.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.at += 3; // the final byte advances below
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                    self.at += 1;
                }
                Some(_) => {
                    // Consume one complete UTF-8 scalar.
                    let rest = &self.bytes[self.at..];
                    let s = std::str::from_utf8(rest).map_err(|_| self.err("invalid utf-8"))?;
                    let c = s.chars().next().expect("non-empty checked above");
                    if (c as u32) < 0x20 {
                        return Err(self.err("raw control character in string"));
                    }
                    out.push(c);
                    self.at += c.len_utf8();
                }
            }
        }
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.at += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.at += 1,
                Some(b']') => {
                    self.at += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.at += 1;
            return Ok(Json::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            members.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.at += 1,
                Some(b'}') => {
                    self.at += 1;
                    return Ok(Json::Obj(members));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }
}

/// Writes every buffer in `bufs`, in order, using vectored I/O
/// (`writev`) so a burst of response frames leaves in as few syscalls
/// as the socket accepts — the server's answer to clients that pipeline
/// several frames per read. The stable-Rust stand-in for the unstable
/// `Write::write_all_vectored`.
///
/// # Errors
///
/// Propagates the underlying I/O error; [`std::io::ErrorKind::WriteZero`]
/// when the writer stops accepting bytes.
pub fn write_all_vectored(w: &mut impl std::io::Write, bufs: &[&[u8]]) -> std::io::Result<()> {
    use std::io::{Error, ErrorKind, IoSlice};
    // (buffer index, bytes of it already written)
    let mut idx = 0;
    let mut offset = 0;
    // Reused slice table; rebuilt after every partial write.
    let mut slices: Vec<IoSlice<'_>> = Vec::with_capacity(bufs.len());
    loop {
        while idx < bufs.len() && offset == bufs[idx].len() {
            idx += 1;
            offset = 0;
        }
        if idx == bufs.len() {
            return Ok(());
        }
        slices.clear();
        slices.push(IoSlice::new(&bufs[idx][offset..]));
        slices.extend(bufs[idx + 1..].iter().map(|b| IoSlice::new(b)));
        let mut n = match w.write_vectored(&slices) {
            Ok(0) => return Err(Error::new(ErrorKind::WriteZero, "socket stopped accepting")),
            Ok(n) => n,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        };
        // Advance (idx, offset) past the n bytes just written.
        while n > 0 {
            let remaining = bufs[idx].len() - offset;
            if n < remaining {
                offset += n;
                break;
            }
            n -= remaining;
            idx += 1;
            offset = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encodes_compact_deterministic_frames() {
        let v = Json::obj(vec![
            ("type", Json::str("op")),
            ("key", Json::Num(42.0)),
            ("flag", Json::Bool(true)),
            ("none", Json::Null),
            ("xs", Json::Arr(vec![Json::Num(1.0), Json::Num(2.5)])),
        ]);
        assert_eq!(
            v.encode(),
            r#"{"type":"op","key":42,"flag":true,"none":null,"xs":[1,2.5]}"#
        );
    }

    #[test]
    fn round_trips_nested_values() {
        let v = Json::obj(vec![
            ("rr", Json::Num(0.8517)),
            ("big", Json::Num(9_007_199_254_740_992.0)),
            (
                "inner",
                Json::obj(vec![
                    ("s", Json::str("a\"b\\c\nd\tta")),
                    ("empty", Json::Arr(vec![])),
                ]),
            ),
        ]);
        assert_eq!(Json::parse(&v.encode()).unwrap(), v);
    }

    #[test]
    fn parses_whitespace_and_escapes() {
        let v = Json::parse(" { \"a\" : [ 1 , -2.5e1 , \"\\u0041\\n\" ] } ").unwrap();
        let xs = v.get("a").unwrap().as_arr().unwrap();
        assert_eq!(xs[0].as_u64(), Some(1));
        assert_eq!(xs[1].as_f64(), Some(-25.0));
        assert_eq!(xs[2].as_str(), Some("A\n"));
    }

    #[test]
    fn accessors_enforce_types() {
        let v = Json::parse(
            r#"{"n":3.5,"i":7,"s":"x","b":false,"exact":9007199254740991,"rounded":9007199254740993}"#,
        )
        .unwrap();
        assert_eq!(v.get("n").unwrap().as_u64(), None, "3.5 is not an integer");
        assert_eq!(v.get("exact").unwrap().as_u64(), Some((1 << 53) - 1));
        assert_eq!(v.get("rounded").unwrap().as_u64(), None, "read as 2^53");
        assert_eq!(v.get("n").unwrap().as_f64(), Some(3.5));
        assert_eq!(v.get("i").unwrap().as_u64(), Some(7));
        assert_eq!(v.get("s").unwrap().as_str(), Some("x"));
        assert_eq!(v.get("b").unwrap().as_bool(), Some(false));
        assert_eq!(v.get("missing"), None);
        assert_eq!(v.as_str(), None, "object is not a string");
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in [
            "",
            "{",
            "{\"a\":}",
            "[1,]",
            "\"unterminated",
            "{\"a\":1} extra",
            "nul",
            "01x",
            "\"bad \\q escape\"",
        ] {
            assert!(Json::parse(bad).is_err(), "{bad:?} must fail");
        }
    }

    #[test]
    fn non_finite_numbers_encode_as_parseable_null() {
        for n in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let text = Json::Arr(vec![Json::Num(n)]).encode();
            assert_eq!(text, "[null]");
            assert_eq!(Json::parse(&text), Ok(Json::Arr(vec![Json::Null])));
        }
    }

    #[test]
    fn unicode_survives_round_trip() {
        let v = Json::Str("métagénomique 🧬".to_string());
        assert_eq!(Json::parse(&v.encode()).unwrap(), v);
    }

    /// A writer that accepts at most `cap` bytes per call, exercising
    /// the partial-write resume logic in [`write_all_vectored`].
    struct Dribble {
        out: Vec<u8>,
        cap: usize,
    }

    impl std::io::Write for Dribble {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            let n = buf.len().min(self.cap);
            self.out.extend_from_slice(&buf[..n]);
            Ok(n)
        }
        fn write_vectored(&mut self, bufs: &[std::io::IoSlice<'_>]) -> std::io::Result<usize> {
            let mut budget = self.cap;
            let mut written = 0;
            for b in bufs {
                let n = b.len().min(budget);
                self.out.extend_from_slice(&b[..n]);
                written += n;
                budget -= n;
                if budget == 0 {
                    break;
                }
            }
            Ok(written)
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn write_all_vectored_survives_partial_writes() {
        for cap in [1, 2, 3, 7, 1024] {
            let mut w = Dribble {
                out: Vec::new(),
                cap,
            };
            write_all_vectored(
                &mut w,
                &[b"frame one\n", b"", b"frame two\n", b"x", b"", b"tail\n"],
            )
            .expect("all bytes land");
            assert_eq!(w.out, b"frame one\nframe two\nxtail\n", "cap {cap}");
        }
        // Empty input (and all-empty buffers) write nothing successfully.
        let mut w = Dribble {
            out: Vec::new(),
            cap: 4,
        };
        write_all_vectored(&mut w, &[]).unwrap();
        write_all_vectored(&mut w, &[b"", b""]).unwrap();
        assert!(w.out.is_empty());
    }

    #[test]
    fn write_all_vectored_reports_write_zero() {
        struct Dead;
        impl std::io::Write for Dead {
            fn write(&mut self, _: &[u8]) -> std::io::Result<usize> {
                Ok(0)
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let err = write_all_vectored(&mut Dead, &[b"data"]).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::WriteZero);
    }
}
