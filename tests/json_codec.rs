//! The JSON codec against its char-at-a-time predecessor.
//!
//! `serde_json` here is the vendored stub (`.stubs/serde`), whose parser
//! walks bytes and whose renderers copy unescaped runs whole. The
//! `oracle` module below is the earlier codec kept verbatim as the
//! reference: a parser over a `Vec<char>` and renderers that push one
//! char at a time. For seeded value trees, hand-escaped texts, every
//! truncation and single-byte substitutions of a sample document, the
//! two must produce the same bytes, the same `Value` and the same error
//! text. A real snapshot and journal records round-trip unchanged and
//! nest far below the parser's depth bound.

use ewhoring_core::pipeline::{snapshot_json, EpochCarry, Journal, Pipeline, PipelineOptions};
use serde_json::{Map, Value};
use std::fs;
use worldgen::{World, WorldConfig};

/// The nesting bound of the byte parser (`serde::MAX_DEPTH`).
const MAX_DEPTH: usize = 128;

/// The earlier char-based codec, the reference the byte codec must
/// match. Changed in one place only: the negation of a parsed `i128`
/// wraps, as a release build always did, so a doubled sign before
/// `170…728` cannot trip the debug build's overflow check.
mod oracle {
    use serde_json::{Map, Value};

    #[derive(Debug)]
    pub struct Error(pub String);

    fn err<T>(msg: impl Into<String>) -> Result<T, Error> {
        Err(Error(msg.into()))
    }

    pub fn render(v: &Value) -> String {
        let mut out = String::new();
        render_into(v, &mut out);
        out
    }

    fn render_into(v: &Value, out: &mut String) {
        match v {
            Value::Null => out.push_str("null"),
            Value::Bool(true) => out.push_str("true"),
            Value::Bool(false) => out.push_str("false"),
            Value::Int(x) => out.push_str(&x.to_string()),
            Value::UInt(x) => out.push_str(&x.to_string()),
            Value::Float(x) => {
                if x.is_finite() {
                    out.push_str(&format!("{x:?}"))
                } else {
                    out.push_str("null")
                }
            }
            Value::Str(s) => render_string(s, out),
            Value::Array(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    render_into(item, out);
                }
                out.push(']');
            }
            Value::Object(m) => {
                out.push('{');
                for (i, (k, item)) in m.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    render_string(k, out);
                    out.push(':');
                    render_into(item, out);
                }
                out.push('}');
            }
        }
    }

    fn render_string(s: &str, out: &mut String) {
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
    }

    pub fn pretty(v: &Value, indent: usize, out: &mut String) {
        let pad = "  ".repeat(indent + 1);
        let close = "  ".repeat(indent);
        match v {
            Value::Array(items) if !items.is_empty() => {
                out.push_str("[\n");
                for (i, item) in items.iter().enumerate() {
                    out.push_str(&pad);
                    pretty(item, indent + 1, out);
                    if i + 1 < items.len() {
                        out.push(',');
                    }
                    out.push('\n');
                }
                out.push_str(&close);
                out.push(']');
            }
            Value::Object(m) if !m.is_empty() => {
                out.push_str("{\n");
                for (i, (k, item)) in m.iter().enumerate() {
                    out.push_str(&pad);
                    out.push_str(&render(&Value::Str(k.clone())));
                    out.push_str(": ");
                    pretty(item, indent + 1, out);
                    if i + 1 < m.len() {
                        out.push(',');
                    }
                    out.push('\n');
                }
                out.push_str(&close);
                out.push('}');
            }
            other => out.push_str(&render(other)),
        }
    }

    pub fn parse(text: &str) -> Result<Value, Error> {
        let bytes: Vec<char> = text.chars().collect();
        let mut p = Parser {
            chars: &bytes,
            pos: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.chars.len() {
            return err("trailing characters");
        }
        Ok(v)
    }

    struct Parser<'a> {
        chars: &'a [char],
        pos: usize,
    }

    impl Parser<'_> {
        fn peek(&self) -> Option<char> {
            self.chars.get(self.pos).copied()
        }

        fn bump(&mut self) -> Result<char, Error> {
            let c = self.peek().ok_or_else(|| Error("unexpected end".into()))?;
            self.pos += 1;
            Ok(c)
        }

        fn skip_ws(&mut self) {
            while matches!(self.peek(), Some(' ' | '\t' | '\n' | '\r')) {
                self.pos += 1;
            }
        }

        fn expect(&mut self, c: char) -> Result<(), Error> {
            if self.bump()? == c {
                Ok(())
            } else {
                err(format!("expected `{c}`"))
            }
        }

        fn literal(&mut self, word: &str, value: Value) -> Result<Value, Error> {
            for c in word.chars() {
                self.expect(c)?;
            }
            Ok(value)
        }

        fn value(&mut self) -> Result<Value, Error> {
            self.skip_ws();
            match self.peek().ok_or_else(|| Error("unexpected end".into()))? {
                'n' => self.literal("null", Value::Null),
                't' => self.literal("true", Value::Bool(true)),
                'f' => self.literal("false", Value::Bool(false)),
                '"' => Ok(Value::Str(self.string()?)),
                '[' => self.array(),
                '{' => self.object(),
                _ => self.number(),
            }
        }

        fn string(&mut self) -> Result<String, Error> {
            self.expect('"')?;
            let mut out = String::new();
            loop {
                match self.bump()? {
                    '"' => return Ok(out),
                    '\\' => match self.bump()? {
                        '"' => out.push('"'),
                        '\\' => out.push('\\'),
                        '/' => out.push('/'),
                        'n' => out.push('\n'),
                        'r' => out.push('\r'),
                        't' => out.push('\t'),
                        'b' => out.push('\u{8}'),
                        'f' => out.push('\u{c}'),
                        'u' => {
                            let mut code = 0u32;
                            for _ in 0..4 {
                                code = code * 16
                                    + self
                                        .bump()?
                                        .to_digit(16)
                                        .ok_or_else(|| Error("bad \\u escape".into()))?;
                            }
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        }
                        other => return err(format!("bad escape `\\{other}`")),
                    },
                    c => out.push(c),
                }
            }
        }

        fn array(&mut self) -> Result<Value, Error> {
            self.expect('[')?;
            let mut items = Vec::new();
            self.skip_ws();
            if self.peek() == Some(']') {
                self.pos += 1;
                return Ok(Value::Array(items));
            }
            loop {
                items.push(self.value()?);
                self.skip_ws();
                match self.bump()? {
                    ',' => continue,
                    ']' => return Ok(Value::Array(items)),
                    _ => return err("expected `,` or `]`"),
                }
            }
        }

        fn object(&mut self) -> Result<Value, Error> {
            self.expect('{')?;
            let mut m = Map::new();
            self.skip_ws();
            if self.peek() == Some('}') {
                self.pos += 1;
                return Ok(Value::Object(m));
            }
            loop {
                self.skip_ws();
                let key = self.string()?;
                self.skip_ws();
                self.expect(':')?;
                let value = self.value()?;
                m.insert(key, value);
                self.skip_ws();
                match self.bump()? {
                    ',' => continue,
                    '}' => return Ok(Value::Object(m)),
                    _ => return err("expected `,` or `}`"),
                }
            }
        }

        fn number(&mut self) -> Result<Value, Error> {
            let start = self.pos;
            while matches!(self.peek(), Some('0'..='9' | '-' | '+' | '.' | 'e' | 'E')) {
                self.pos += 1;
            }
            let text: String = self.chars[start..self.pos].iter().collect();
            if text.is_empty() {
                return err("expected number");
            }
            if !text.contains(['.', 'e', 'E']) {
                if let Some(rest) = text.strip_prefix('-') {
                    if let Ok(x) = rest.parse::<i128>() {
                        return Ok(Value::Int(x.wrapping_neg()));
                    }
                } else if let Ok(x) = text.parse::<u128>() {
                    return Ok(Value::UInt(x));
                }
            }
            text.parse::<f64>()
                .map(Value::Float)
                .map_err(|_| Error(format!("bad number `{text}`")))
        }
    }
}

/// A seeded stream of draws from `synthrand::splitmix64`.
struct Draws(u64);

impl Draws {
    fn next(&mut self) -> u64 {
        synthrand::splitmix64(&mut self.0)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn pick<T: Copy>(&mut self, items: &[T]) -> T {
        items[self.below(items.len())]
    }
}

/// Characters strings are drawn from: plain ASCII, every char the
/// renderer escapes, DEL, and one-, two-, three- and four-byte UTF-8.
const CHARS: &str =
    "aZ0 /:,{]\"\\\n\r\t\u{0}\u{8}\u{c}\u{1f}\u{7f}éß€\u{2028}\u{fffd}中😀\u{10ffff}";

const INTS: &[i128] = &[
    0,
    -1,
    1,
    -42,
    i64::MIN as i128,
    i128::MIN + 1,
    i128::MIN,
    i128::MAX,
];
const UINTS: &[u128] = &[0, 1, 255, u64::MAX as u128, u128::MAX - 1, u128::MAX];
const FLOATS: &[f64] = &[
    0.0,
    -0.0,
    0.1,
    -2.5,
    1.0 / 3.0,
    1e21,
    1e-7,
    5e-324,
    f64::MIN_POSITIVE,
    f64::MAX,
    f64::MIN,
    f64::EPSILON,
    f64::NAN,
    f64::INFINITY,
    f64::NEG_INFINITY,
];

fn gen_string(d: &mut Draws) -> String {
    let chars: Vec<char> = CHARS.chars().collect();
    let len = d.below(12);
    (0..len).map(|_| d.pick(&chars)).collect()
}

fn gen_value(d: &mut Draws, depth: usize) -> Value {
    let kinds = if depth == 0 { 7 } else { 9 };
    match d.below(kinds) {
        0 => Value::Null,
        1 => Value::Bool(d.next() & 1 == 1),
        2 => Value::Int(if d.next() & 1 == 1 {
            d.pick(INTS)
        } else {
            d.next() as i64 as i128
        }),
        3 => Value::UInt(if d.next() & 1 == 1 {
            d.pick(UINTS)
        } else {
            (u128::from(d.next()) << 64) | u128::from(d.next())
        }),
        4 => Value::Float(d.pick(FLOATS)),
        5 => Value::Float(f64::from_bits(d.next())),
        6 => Value::Str(gen_string(d)),
        7 => Value::Array((0..d.below(5)).map(|_| gen_value(d, depth - 1)).collect()),
        _ => {
            let mut map = Map::new();
            for _ in 0..d.below(5) {
                map.insert(gen_string(d), gen_value(d, depth - 1));
            }
            Value::Object(map)
        }
    }
}

/// Writes `v` as JSON text the renderers never produce: random
/// whitespace, and string chars written as `\uXXXX` (UTF-16, so
/// astral chars become surrogate pairs; sometimes upper-case hex),
/// `\/`, `\b` and `\f`, plus lone surrogates, which decode to U+FFFD.
fn write_loose(d: &mut Draws, v: &Value, out: &mut String) {
    fn ws(d: &mut Draws, out: &mut String) {
        for _ in 0..d.below(3) {
            out.push(d.pick(&[' ', '\t', '\n', '\r']));
        }
    }
    fn string(d: &mut Draws, s: &str, out: &mut String) {
        out.push('"');
        for c in s.chars() {
            match (c, d.below(4)) {
                ('/', 0) => out.push_str("\\/"),
                ('\u{8}', _) => out.push_str("\\b"),
                ('\u{c}', _) => out.push_str("\\f"),
                (_, 0) => {
                    let mut units = [0u16; 2];
                    for unit in c.encode_utf16(&mut units) {
                        if d.next() & 1 == 1 {
                            out.push_str(&format!("\\u{unit:04X}"));
                        } else {
                            out.push_str(&format!("\\u{unit:04x}"));
                        }
                    }
                }
                _ => oracle_escape(c, out),
            }
        }
        if d.below(8) == 0 {
            out.push_str(d.pick(&["\\ud83d", "\\uDFFF", "\\udc00\\ud800"]));
        }
        out.push('"');
    }
    fn oracle_escape(c: char, out: &mut String) {
        let quoted = oracle::render(&Value::Str(c.to_string()));
        out.push_str(&quoted[1..quoted.len() - 1]);
    }
    ws(d, out);
    match v {
        Value::Str(s) => string(d, s, out),
        Value::Array(items) => {
            out.push('[');
            ws(d, out);
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_loose(d, item, out);
            }
            out.push(']');
        }
        Value::Object(m) => {
            out.push('{');
            ws(d, out);
            for (i, (k, item)) in m.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                ws(d, out);
                string(d, k, out);
                ws(d, out);
                out.push(':');
                write_loose(d, item, out);
            }
            out.push('}');
        }
        other => out.push_str(&oracle::render(other)),
    }
    ws(d, out);
}

/// The byte parser and the oracle agree on `text`: the same value, or
/// the same error text.
fn assert_parses_alike(text: &str) {
    let got = serde_json::from_str::<Value>(text).map_err(|e| e.0);
    let want = oracle::parse(text).map_err(|e| e.0);
    assert_eq!(got, want, "parse of {text:?}");
}

fn pretty(v: &Value) -> String {
    let mut out = String::new();
    oracle::pretty(v, 0, &mut out);
    out
}

fn depth(v: &Value) -> usize {
    match v {
        Value::Array(items) => 1 + items.iter().map(depth).max().unwrap_or(0),
        Value::Object(m) => 1 + m.iter().map(|(_, v)| depth(v)).max().unwrap_or(0),
        _ => 0,
    }
}

#[test]
fn seeded_trees_render_and_parse_like_the_char_codec() {
    let mut d = Draws(0x150C_0DEC);
    for _ in 0..400 {
        let value = gen_value(&mut d, 4);
        let compact = serde_json::to_string(&value).expect("render");
        assert_eq!(compact, oracle::render(&value));
        let indented = serde_json::to_string_pretty(&value).expect("render pretty");
        assert_eq!(indented, pretty(&value));
        assert_eq!(value.to_string(), compact);
        for text in [&compact, &indented] {
            assert_parses_alike(text);
        }
        let mut loose = String::new();
        write_loose(&mut d, &value, &mut loose);
        assert_parses_alike(&loose);
    }
}

#[test]
fn edge_numbers_and_escapes_parse_like_the_char_codec() {
    for text in [
        "-170141183460469231731687303715884105728",
        "--170141183460469231731687303715884105728",
        "-+5",
        "--5",
        "+5",
        "340282366920938463463374607431768211455",
        "340282366920938463463374607431768211456",
        "-0",
        "1e999",
        "-1e-999",
        ".5",
        "5.",
        "1e",
        "-",
        "e5",
        "0x10",
        "\"\\ud83d\\ude00\"",
        "\"\\uD83D\\uDE00\"",
        "\"\\u00e9\\u20AC\\u0000\"",
        "\"\\u12\"",
        "\"\\u12é\"",
        "\"\\é\"",
        "\"\\x\"",
        "\"raw\ttab and\nnewline\"",
        "\"é😀\\\"\\\\\"",
        "[1,]",
        "{,}",
        "{\"a\"1}",
        "{\"a\":1,}",
        "nul",
        "truex",
        " [ ] ",
        "{}x",
        "",
        "   ",
        "é",
    ] {
        assert_parses_alike(text);
    }
}

#[test]
fn truncated_and_substituted_documents_fail_like_the_char_codec() {
    let mut d = Draws(0x7A11);
    let mut sample = Map::new();
    for i in 0..6 {
        sample.insert(format!("k{i} é\"\\"), gen_value(&mut d, 3));
    }
    sample.insert(
        "edges",
        Value::Array(INTS.iter().map(|&x| Value::Int(x)).collect()),
    );
    let sample = Value::Object(sample);
    let mut texts = vec![serde_json::to_string(&sample).expect("render")];
    texts.push(serde_json::to_string_pretty(&sample).expect("render pretty"));
    let mut loose = String::new();
    write_loose(&mut d, &sample, &mut loose);
    texts.push(loose);

    const SUBSTITUTES: &[u8] = b"\"\\[]{},:-+.eE0n \nxu/";
    for text in &texts {
        assert!(text.len() > 200, "sample too small: {} bytes", text.len());
        for end in (0..=text.len()).filter(|&i| text.is_char_boundary(i)) {
            assert_parses_alike(&text[..end]);
        }
        let bytes = text.as_bytes();
        for (i, &b) in bytes.iter().enumerate().filter(|(_, b)| b.is_ascii()) {
            for _ in 0..3 {
                let sub = d.pick(SUBSTITUTES);
                if sub == b {
                    continue;
                }
                let mut mutated = bytes.to_vec();
                mutated[i] = sub;
                let mutated = String::from_utf8(mutated).expect("ASCII for ASCII stays UTF-8");
                assert_parses_alike(&mutated);
            }
        }
    }
}

#[test]
fn nesting_past_the_bound_is_a_typed_error() {
    let nested = |levels: usize| format!("{}{}", "[".repeat(levels), "]".repeat(levels));
    let at_bound = serde_json::from_str::<Value>(&nested(MAX_DEPTH)).expect("at the bound");
    assert_eq!(depth(&at_bound), MAX_DEPTH);
    for text in [
        nested(MAX_DEPTH + 1),
        "{\"a\":".repeat(MAX_DEPTH + 1),
        "[".repeat(60_000),
    ] {
        let e = serde_json::from_str::<Value>(&text).expect_err("deeper than the bound");
        assert_eq!(e.0, format!("nesting deeper than {MAX_DEPTH} levels"));
    }
}

/// A scale-0.02 snapshot, and the records of a journaled run that keeps
/// its carry, parse to the oracle's value, render back unchanged, and
/// nest far below the parser's depth bound.
#[test]
fn snapshot_and_journal_records_round_trip_unchanged() {
    let world = World::generate(WorldConfig {
        scale: 0.02,
        ..ewhoring_suite::demo_config(0xC0DEC)
    });
    let options = PipelineOptions {
        k_key_actors: 8,
        ..PipelineOptions::default()
    };
    let dir = std::env::temp_dir().join(format!("ewhoring-json-codec-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    let journal = Journal::open(&dir, &world.config, &options).expect("open journal");
    let (report, _) = Pipeline::new(options)
        .run_with_carry(&world, EpochCarry::default(), Some(&journal))
        .expect("journaled run");

    let snapshot = snapshot_json(&report).expect("snapshot");
    let value: Value = serde_json::from_str(&snapshot).expect("snapshot parses");
    assert_eq!(
        serde_json::to_string_pretty(&value).expect("render"),
        snapshot
    );
    assert_eq!(pretty(&value), snapshot);
    assert_parses_alike(&snapshot);
    let mut deepest = depth(&value);

    let mut records = 0;
    for run_dir in fs::read_dir(&dir).expect("journal dir").flatten() {
        for file in fs::read_dir(run_dir.path()).expect("run dir").flatten() {
            let text = fs::read_to_string(file.path()).expect("record");
            let envelope: Value = serde_json::from_str(&text).expect("envelope parses");
            assert_eq!(serde_json::to_string(&envelope).expect("render"), text);
            let payload = envelope
                .as_object()
                .and_then(|m| m.get("payload"))
                .and_then(Value::as_str)
                .expect("payload string");
            let record: Value = serde_json::from_str(payload).expect("payload parses");
            assert_eq!(serde_json::to_string(&record).expect("render"), payload);
            assert_parses_alike(payload);
            deepest = deepest.max(depth(&record));
            records += 1;
        }
    }
    assert_eq!(records, Pipeline::stages().len());
    assert!(
        deepest * 4 <= MAX_DEPTH,
        "documents nest {deepest} deep, too close to the bound {MAX_DEPTH}"
    );
    let _ = fs::remove_dir_all(&dir);
}
