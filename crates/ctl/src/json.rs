//! Dependency-free strict JSON: the one reader every JSON the workspace
//! reads back goes through (the serve wire protocol, saved synthesis
//! results, imported metrics snapshots, BENCH gate lines, exported
//! sweeps and traces), plus the one escape helper its writers share.
//!
//! The reader follows RFC 8259: the full escape set including `\b`,
//! `\f` and surrogate-pair `\u` escapes, no raw control bytes inside
//! strings, the strict number grammar (`-? (0 | [1-9][0-9]*) (. [0-9]+)?
//! ([eE] [+-]? [0-9]+)?`), and nothing but whitespace after the
//! document. Numbers keep their raw source text so `u64` budgets and
//! digests above `i64::MAX` read back exactly. Arrays and objects may
//! nest at most [`MAX_DEPTH`] levels, so hostile input returns an error
//! instead of overflowing the stack.
//!
//! ```
//! use mcs_ctl::json::{self, Json};
//!
//! let v = json::parse(r#"{"rate":4,"digest":12501005524302218597}"#).unwrap();
//! assert_eq!(v.get("rate").and_then(Json::as_u64), Some(4));
//! assert_eq!(v.get("digest").and_then(Json::as_u64), Some(12501005524302218597));
//! assert!(json::parse("[1,]").is_err());
//! ```

/// Deepest nesting of arrays and objects [`parse`] accepts. Every
/// document the workspace writes nests fewer than ten levels.
pub const MAX_DEPTH: usize = 128;

/// A parsed JSON value. Numbers keep their raw source text so integer
/// fields parse exactly.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number, as its raw source text.
    Num(String),
    /// A string (unescaped).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in source order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Member lookup on an object (first match); `None` elsewhere.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// String payload, `None` for non-strings.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Exact unsigned integer payload, `None` for anything else
    /// (including fractions, exponents and out-of-range values).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(raw) => raw.parse().ok(),
            _ => None,
        }
    }

    /// Exact signed integer payload, `None` for anything else.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Json::Num(raw) => raw.parse().ok(),
            _ => None,
        }
    }

    /// Numeric payload as the nearest `f64`, `None` for non-numbers.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(raw) => raw.parse().ok(),
            _ => None,
        }
    }

    /// Array items, `None` for non-arrays.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }
}

/// Parses one strict JSON document (the whole input must be consumed).
///
/// # Errors
///
/// A byte-positioned message for malformed input, including nesting
/// deeper than [`MAX_DEPTH`].
pub fn parse(text: &str) -> Result<Json, String> {
    let mut p = Parser {
        text,
        bytes: text.as_bytes(),
        pos: 0,
        depth: 0,
    };
    let value = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("byte {}: trailing garbage", p.pos));
    }
    Ok(value)
}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(b' ' | b'\t' | b'\n' | b'\r') = self.peek() {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    /// Consumes `b` if it is next.
    fn eat(&mut self, b: u8) -> bool {
        let hit = self.peek() == Some(b);
        self.pos += usize::from(hit);
        hit
    }

    /// The character at the cursor, quoted, for error messages. The
    /// cursor only ever stops on a character boundary.
    fn found(&self) -> String {
        match self.text.get(self.pos..).and_then(|s| s.chars().next()) {
            Some(c) => format!("`{}`", c.escape_debug()),
            None => "end of input".into(),
        }
    }

    fn expected(&self, what: &str) -> String {
        format!("byte {}: expected {what}, found {}", self.pos, self.found())
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.eat(b) {
            Ok(())
        } else {
            Err(self.expected(&format!("`{}`", b as char)))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.nested(Self::object),
            Some(b'[') => self.nested(Self::array),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.expected("`{`, `[`, `\"`, a number, `true`, `false` or `null`")),
        }
    }

    /// Runs one array or object parser one level deeper, refusing to go
    /// past [`MAX_DEPTH`].
    fn nested(&mut self, inner: fn(&mut Self) -> Result<Json, String>) -> Result<Json, String> {
        if self.depth == MAX_DEPTH {
            return Err(format!(
                "byte {}: nesting deeper than {MAX_DEPTH} levels",
                self.pos
            ));
        }
        self.depth += 1;
        let value = inner(self);
        self.depth -= 1;
        value
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.expected(&format!("`{word}`")))
        }
    }

    /// Consumes a run of ASCII digits, returning how many.
    fn digits(&mut self) -> usize {
        let start = self.pos;
        while let Some(b'0'..=b'9') = self.peek() {
            self.pos += 1;
        }
        self.pos - start
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        self.eat(b'-');
        if !self.eat(b'0') && self.digits() == 0 {
            return Err(self.expected("a digit"));
        }
        if self.eat(b'.') && self.digits() == 0 {
            return Err(self.expected("a fraction digit"));
        }
        if self.eat(b'e') || self.eat(b'E') {
            let _ = self.eat(b'+') || self.eat(b'-');
            if self.digits() == 0 {
                return Err(self.expected("an exponent digit"));
            }
        }
        Ok(Json::Num(self.text[start..self.pos].to_string()))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            while let Some(b) = self.peek() {
                if b == b'"' || b == b'\\' || b < 0x20 {
                    break;
                }
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
                    out.push(self.escape_sequence()?);
                }
                Some(b) => {
                    return Err(format!(
                        "byte {}: raw control byte 0x{b:02x} in string",
                        self.pos
                    ))
                }
                None => return Err(format!("byte {}: unterminated string", self.pos)),
            }
        }
    }

    /// Decodes the escape after a backslash, pairing UTF-16 surrogates.
    fn escape_sequence(&mut self) -> Result<char, String> {
        let at = self.pos - 1;
        let c = match self.peek() {
            Some(b'"') => '"',
            Some(b'\\') => '\\',
            Some(b'/') => '/',
            Some(b'b') => '\u{8}',
            Some(b'f') => '\u{c}',
            Some(b'n') => '\n',
            Some(b'r') => '\r',
            Some(b't') => '\t',
            Some(b'u') => {
                self.pos += 1;
                let high = self.hex4()?;
                let code = match high {
                    0xD800..=0xDBFF => {
                        let low = if self.bytes[self.pos..].starts_with(b"\\u") {
                            self.pos += 2;
                            self.hex4()?
                        } else {
                            0
                        };
                        if !(0xDC00..=0xDFFF).contains(&low) {
                            return Err(format!("byte {at}: unpaired surrogate \\u{high:04x}"));
                        }
                        0x10000 + ((high - 0xD800) << 10) + (low - 0xDC00)
                    }
                    0xDC00..=0xDFFF => {
                        return Err(format!("byte {at}: unpaired surrogate \\u{high:04x}"))
                    }
                    code => code,
                };
                return char::from_u32(code)
                    .ok_or_else(|| format!("byte {at}: invalid \\u{high:04x}"));
            }
            _ => return Err(format!("byte {at}: unsupported escape {}", self.found())),
        };
        self.pos += 1;
        Ok(c)
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let mut code = 0;
        for _ in 0..4 {
            let digit = self
                .peek()
                .and_then(|b| char::from(b).to_digit(16))
                .ok_or_else(|| self.expected("a hex digit of a `\\u` escape"))?;
            code = code * 16 + digit;
            self.pos += 1;
        }
        Ok(code)
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.eat(b']') {
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            if self.eat(b']') {
                return Ok(Json::Arr(items));
            }
            if !self.eat(b',') {
                return Err(self.expected("`,` or `]`"));
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.eat(b'}') {
            return Ok(Json::Obj(members));
        }
        loop {
            self.skip_ws();
            if self.peek() != Some(b'"') {
                return Err(self.expected("a `\"`-quoted member name"));
            }
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            let value = self.value()?;
            members.push((key, value));
            self.skip_ws();
            if self.eat(b'}') {
                return Ok(Json::Obj(members));
            }
            if !self.eat(b',') {
                return Err(self.expected("`,` or `}`"));
            }
        }
    }
}

/// Escapes `s` for embedding in a JSON string literal: `"`, `\` and
/// every control character below U+0020 are escaped; everything else,
/// non-ASCII text included, passes through unchanged.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_request_shapes() {
        let v = parse(r#"{"cmd":"synth","rate":4,"pin_budget":[48,64],"opts":{"x":true}}"#)
            .expect("parses");
        assert_eq!(v.get("cmd").and_then(Json::as_str), Some("synth"));
        assert_eq!(v.get("rate").and_then(Json::as_u64), Some(4));
        let budget: Vec<u64> = v
            .get("pin_budget")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|j| j.as_u64().unwrap())
            .collect();
        assert_eq!(budget, vec![48, 64]);
        assert_eq!(v.get("opts").unwrap().get("x"), Some(&Json::Bool(true)));
    }

    #[test]
    fn rejects_trailing_garbage_and_bad_escapes() {
        assert!(parse("{} extra").is_err());
        assert!(parse(r#""\q""#).is_err());
        assert!(parse("{\"a\":}").is_err());
    }

    #[test]
    fn escape_round_trips_through_parse() {
        let original = "line1\nline2\t\"quoted\" \\ end";
        let doc = format!("{{\"s\":\"{}\"}}", escape(original));
        let v = parse(&doc).expect("escaped text parses");
        assert_eq!(v.get("s").and_then(Json::as_str), Some(original));
    }

    #[test]
    fn unicode_escapes_decode() {
        let v = parse("\"a\\u0041\\u00e9\"").expect("parses");
        assert_eq!(v.as_str(), Some("aA\u{e9}"));
    }

    #[test]
    fn validator_rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\":}",
            "{\"a\":1,}",
            "\"unterminated",
            "01x",
            "1.",
            "1e",
            "{\"a\":1} extra",
            "tru",
            "[1 2]",
        ] {
            assert!(parse(bad).is_err(), "accepted {bad:?}");
        }
        for good in [
            "0",
            "-1.5e10",
            "true",
            "null",
            "[]",
            "{}",
            "{\"a\":[1,2,{\"b\":\"\\u0041\"}]}",
            "  {\"x\":false}  ",
        ] {
            parse(good).unwrap_or_else(|e| panic!("rejected {good:?}: {e}"));
        }
    }

    #[test]
    fn python_default_escapes_decode() {
        // `json.dumps` escapes backspace and form feed by name and
        // writes non-BMP characters as surrogate pairs.
        assert_eq!(
            parse(r#""a\bb\fc""#).unwrap().as_str(),
            Some("a\u{8}b\u{c}c")
        );
        assert_eq!(parse(r#""\ud83d\ude00""#).unwrap().as_str(), Some("😀"));
        assert_eq!(parse(r#""\/""#).unwrap().as_str(), Some("/"));
        for lone in [
            r#""\ud83d""#,
            r#""\ud83dx""#,
            r#""\ude00""#,
            r#""\ud83d\u0041""#,
        ] {
            let err = parse(lone).unwrap_err();
            assert!(err.contains("surrogate"), "{lone} -> {err}");
        }
    }

    #[test]
    fn strict_grammar_rejects_what_rfc_8259_forbids() {
        for bad in [
            "01",
            "-",
            "+1",
            ".5",
            "1.e3",
            "1e+",
            "-01",
            "\"\u{1}\"",
            "\"a\tb\"",
            "nul",
            "[1]]",
            "{\"a\" 1}",
            "{1:2}",
            "\"\\x\"",
            "\"\\u12\"",
            "\u{feff}1",
        ] {
            assert!(parse(bad).is_err(), "accepted {bad:?}");
        }
        for (good, raw) in [
            ("-0", "-0"),
            ("0.5", "0.5"),
            ("1E+2", "1E+2"),
            ("2e-3", "2e-3"),
        ] {
            assert_eq!(parse(good), Ok(Json::Num(raw.into())));
        }
    }

    #[test]
    fn numbers_keep_their_exact_text() {
        let v = parse("[18446744073709551615,-9223372036854775808,1.5,1e3]").unwrap();
        let items = v.as_arr().unwrap();
        assert_eq!(items[0].as_u64(), Some(u64::MAX));
        assert_eq!(items[0].as_i64(), None);
        assert_eq!(items[1].as_i64(), Some(i64::MIN));
        assert_eq!(items[1].as_u64(), None);
        assert_eq!(items[2].as_f64(), Some(1.5));
        assert_eq!(items[2].as_u64(), None);
        assert_eq!(items[3].as_u64(), None);
        assert_eq!(items[3].as_f64(), Some(1000.0));
    }

    #[test]
    fn nesting_is_capped_at_max_depth() {
        let nest = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        assert!(parse(&nest(MAX_DEPTH)).is_ok());
        let err = parse(&nest(MAX_DEPTH + 1)).unwrap_err();
        assert!(err.contains("nesting"), "{err}");
        let objects = format!(
            "{}1{}",
            "{\"a\":".repeat(MAX_DEPTH + 1),
            "}".repeat(MAX_DEPTH + 1)
        );
        assert!(parse(&objects).unwrap_err().contains("nesting"));
        // Far past the cap on a thread with the default 2 MiB stack.
        let deep = std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(|| parse(&"[".repeat(100_000)).is_err())
            .unwrap()
            .join()
            .expect("no stack overflow");
        assert!(deep);
    }

    #[test]
    fn escape_reparses_to_the_original_text() {
        for c in (0u8..0x80).map(char::from) {
            let s = format!("a{c}b");
            assert_eq!(
                parse(&format!("\"{}\"", escape(&s))).unwrap().as_str(),
                Some(s.as_str()),
                "char {:#04x}",
                c as u32
            );
        }
        for s in ["héllo wörld", "日本語", "😀 \u{2028} \u{ffff}", ""] {
            assert_eq!(
                parse(&format!("\"{}\"", escape(s))).unwrap().as_str(),
                Some(s)
            );
        }
    }

    #[test]
    fn errors_name_the_position_and_what_was_found() {
        assert_eq!(
            parse("").unwrap_err(),
            "byte 0: expected `{`, `[`, `\"`, a number, `true`, `false` or `null`, found end of input"
        );
        assert_eq!(
            parse("[1 é]").unwrap_err(),
            "byte 3: expected `,` or `]`, found `é`"
        );
        assert_eq!(parse("{} x").unwrap_err(), "byte 3: trailing garbage");
    }
}
