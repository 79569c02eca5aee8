//! Offline stand-in for `serde`: a value-tree serialization model with the
//! same *surface* (`Serialize`/`Deserialize` traits + derive macros), good
//! enough to run this workspace's JSON round-trips locally. Not remotely
//! wire-compatible with real serde — local testing only.

pub use serde_derive::{Deserialize, Serialize};

use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::fmt::{self, Write as _};

/// Serialization error (shared by the `serde_json` stub).
#[derive(Debug, Clone)]
pub struct Error(pub String);

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "serde stub: {}", self.0)
    }
}

impl std::error::Error for Error {}

pub fn err<T>(msg: impl Into<String>) -> Result<T, Error> {
    Err(Error(msg.into()))
}

/// An ordered JSON object.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Map(pub Vec<(String, Value)>);

impl Map {
    pub fn new() -> Map {
        Map(Vec::new())
    }

    pub fn insert(&mut self, key: impl Into<String>, value: Value) {
        self.0.push((key.into(), value));
    }

    pub fn get(&self, key: &str) -> Option<&Value> {
        self.0.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    pub fn remove(&mut self, key: &str) -> Option<Value> {
        let idx = self.0.iter().position(|(k, _)| k == key)?;
        Some(self.0.remove(idx).1)
    }

    pub fn iter(&self) -> impl Iterator<Item = &(String, Value)> {
        self.0.iter()
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }
}

/// The JSON value tree.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    Null,
    Bool(bool),
    Int(i128),
    UInt(u128),
    Float(f64),
    Str(String),
    Array(Vec<Value>),
    Object(Map),
}

impl Value {
    pub fn as_object(&self) -> Option<&Map> {
        match self {
            Value::Object(m) => Some(m),
            _ => None,
        }
    }

    pub fn as_object_mut(&mut self) -> Option<&mut Map> {
        match self {
            Value::Object(m) => Some(m),
            _ => None,
        }
    }

    pub fn as_array(&self) -> Option<&Vec<Value>> {
        match self {
            Value::Array(a) => Some(a),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Float(x) => Some(*x),
            Value::Int(x) => Some(*x as f64),
            Value::UInt(x) => Some(*x as f64),
            _ => None,
        }
    }

    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::UInt(x) => u64::try_from(*x).ok(),
            Value::Int(x) => u64::try_from(*x).ok(),
            _ => None,
        }
    }

    fn kind(&self) -> &'static str {
        match self {
            Value::Null => "null",
            Value::Bool(_) => "bool",
            Value::Int(_) | Value::UInt(_) | Value::Float(_) => "number",
            Value::Str(_) => "string",
            Value::Array(_) => "array",
            Value::Object(_) => "object",
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&render(self))
    }
}

// ---------------------------------------------------------------- traits

pub trait Serialize {
    fn __to_value(&self) -> Value;
}

pub trait Deserialize<'de>: Sized {
    fn __from_value(v: &Value) -> Result<Self, Error>;
}

/// Looks up and decodes a struct field (used by the derive macro).
pub fn __get<T>(m: &Map, key: &str) -> Result<T, Error>
where
    T: for<'any> Deserialize<'any>,
{
    match m.get(key) {
        Some(v) => T::__from_value(v),
        None => err(format!("missing field `{key}`")),
    }
}

// ------------------------------------------------------ primitive impls

macro_rules! ser_uint {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn __to_value(&self) -> Value { Value::UInt(*self as u128) }
        }
        impl<'de> Deserialize<'de> for $t {
            fn __from_value(v: &Value) -> Result<Self, Error> {
                match v {
                    Value::UInt(x) => <$t>::try_from(*x)
                        .map_err(|_| Error("uint out of range".into())),
                    Value::Int(x) => <$t>::try_from(*x)
                        .map_err(|_| Error("int out of range".into())),
                    _ => err(format!("expected uint, got {}", v.kind())),
                }
            }
        }
    )*};
}
ser_uint!(u8, u16, u32, u64, u128, usize);

macro_rules! ser_int {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn __to_value(&self) -> Value { Value::Int(*self as i128) }
        }
        impl<'de> Deserialize<'de> for $t {
            fn __from_value(v: &Value) -> Result<Self, Error> {
                match v {
                    Value::Int(x) => <$t>::try_from(*x)
                        .map_err(|_| Error("int out of range".into())),
                    Value::UInt(x) => i128::try_from(*x)
                        .ok()
                        .and_then(|x| <$t>::try_from(x).ok())
                        .ok_or_else(|| Error("uint out of range".into())),
                    _ => err(format!("expected int, got {}", v.kind())),
                }
            }
        }
    )*};
}
ser_int!(i8, i16, i32, i64, i128, isize);

macro_rules! ser_float {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn __to_value(&self) -> Value { Value::Float(*self as f64) }
        }
        impl<'de> Deserialize<'de> for $t {
            fn __from_value(v: &Value) -> Result<Self, Error> {
                v.as_f64()
                    .map(|x| x as $t)
                    .ok_or_else(|| Error(format!("expected float, got {}", v.kind())))
            }
        }
    )*};
}
ser_float!(f32, f64);

impl Serialize for bool {
    fn __to_value(&self) -> Value {
        Value::Bool(*self)
    }
}

impl<'de> Deserialize<'de> for bool {
    fn __from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Bool(b) => Ok(*b),
            _ => err(format!("expected bool, got {}", v.kind())),
        }
    }
}

impl Serialize for char {
    fn __to_value(&self) -> Value {
        Value::Str(self.to_string())
    }
}

impl<'de> Deserialize<'de> for char {
    fn __from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Str(s) if s.chars().count() == 1 => Ok(s.chars().next().unwrap()),
            _ => err("expected single-char string"),
        }
    }
}

impl Serialize for String {
    fn __to_value(&self) -> Value {
        Value::Str(self.clone())
    }
}

impl<'de> Deserialize<'de> for String {
    fn __from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Str(s) => Ok(s.clone()),
            _ => err(format!("expected string, got {}", v.kind())),
        }
    }
}

impl Serialize for str {
    fn __to_value(&self) -> Value {
        Value::Str(self.to_string())
    }
}

// Stub-only: `&'static str` fields round-trip by leaking. Fine for local
// test runs, where static-str tables are never actually deserialized at
// scale.
impl<'de> Deserialize<'de> for &'static str {
    fn __from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Str(s) => Ok(Box::leak(s.clone().into_boxed_str())),
            _ => err(format!("expected string, got {}", v.kind())),
        }
    }
}

impl Serialize for () {
    fn __to_value(&self) -> Value {
        Value::Null
    }
}

impl<'de> Deserialize<'de> for () {
    fn __from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Null => Ok(()),
            _ => err("expected null"),
        }
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn __to_value(&self) -> Value {
        (**self).__to_value()
    }
}

impl<T: Serialize + ?Sized> Serialize for Box<T> {
    fn __to_value(&self) -> Value {
        (**self).__to_value()
    }
}

impl<'de, T: Deserialize<'de>> Deserialize<'de> for Box<T> {
    fn __from_value(v: &Value) -> Result<Self, Error> {
        T::__from_value(v).map(Box::new)
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn __to_value(&self) -> Value {
        match self {
            Some(x) => x.__to_value(),
            None => Value::Null,
        }
    }
}

impl<'de, T: Deserialize<'de>> Deserialize<'de> for Option<T> {
    fn __from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Null => Ok(None),
            other => T::__from_value(other).map(Some),
        }
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn __to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::__to_value).collect())
    }
}

impl<'de, T: Deserialize<'de>> Deserialize<'de> for Vec<T> {
    fn __from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Array(items) => items.iter().map(T::__from_value).collect(),
            _ => err(format!("expected array, got {}", v.kind())),
        }
    }
}

impl<T: Serialize> Serialize for [T] {
    fn __to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::__to_value).collect())
    }
}

impl<T: Serialize, const N: usize> Serialize for [T; N] {
    fn __to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::__to_value).collect())
    }
}

impl<'de, T: Deserialize<'de> + fmt::Debug, const N: usize> Deserialize<'de> for [T; N] {
    fn __from_value(v: &Value) -> Result<Self, Error> {
        let items: Vec<T> = Vec::__from_value(v)?;
        <[T; N]>::try_from(items).map_err(|_| Error("array length mismatch".into()))
    }
}

macro_rules! ser_tuple {
    ($(($($name:ident . $idx:tt),+)),+ $(,)?) => {$(
        impl<$($name: Serialize),+> Serialize for ($($name,)+) {
            fn __to_value(&self) -> Value {
                Value::Array(vec![$(self.$idx.__to_value()),+])
            }
        }
        impl<'de, $($name: Deserialize<'de>),+> Deserialize<'de> for ($($name,)+) {
            fn __from_value(v: &Value) -> Result<Self, Error> {
                let items = v.as_array().ok_or_else(|| Error("expected tuple array".into()))?;
                let expected = [$(stringify!($idx)),+].len();
                if items.len() != expected {
                    return err("tuple arity mismatch");
                }
                Ok(($($name::__from_value(&items[$idx])?,)+))
            }
        }
    )+};
}
ser_tuple!(
    (A.0),
    (A.0, B.1),
    (A.0, B.1, C.2),
    (A.0, B.1, C.2, D.3),
    (A.0, B.1, C.2, D.3, E.4),
    (A.0, B.1, C.2, D.3, E.4, F.5)
);

// ------------------------------------------------------------- map impls

fn key_string<K: Serialize>(key: &K) -> String {
    match key.__to_value() {
        Value::Str(s) => s,
        other => render(&other),
    }
}

fn key_value(key: &str) -> Value {
    parse(key).unwrap_or_else(|_| Value::Str(key.to_string()))
}

fn map_to_value<'a, K, V, I>(entries: I, sort: bool) -> Value
where
    K: Serialize + 'a,
    V: Serialize + 'a,
    I: Iterator<Item = (&'a K, &'a V)>,
{
    let mut pairs: Vec<(String, Value)> = entries
        .map(|(k, v)| (key_string(k), v.__to_value()))
        .collect();
    if sort {
        pairs.sort_by(|a, b| a.0.cmp(&b.0));
    }
    Value::Object(Map(pairs))
}

fn map_from_value<K, V>(v: &Value) -> Result<Vec<(K, V)>, Error>
where
    K: for<'any> Deserialize<'any>,
    V: for<'any> Deserialize<'any>,
{
    let obj = match v {
        Value::Object(m) => m,
        _ => return err(format!("expected object, got {}", v.kind())),
    };
    obj.iter()
        .map(|(k, v)| Ok((K::__from_value(&key_value(k))?, V::__from_value(v)?)))
        .collect()
}

impl<K: Serialize, V: Serialize, S> Serialize for HashMap<K, V, S> {
    fn __to_value(&self) -> Value {
        map_to_value(self.iter(), true)
    }
}

impl<'de, K, V, S> Deserialize<'de> for HashMap<K, V, S>
where
    K: for<'any> Deserialize<'any> + std::hash::Hash + Eq,
    V: for<'any> Deserialize<'any>,
    S: std::hash::BuildHasher + Default,
{
    fn __from_value(v: &Value) -> Result<Self, Error> {
        Ok(map_from_value::<K, V>(v)?.into_iter().collect())
    }
}

impl<K: Serialize, V: Serialize> Serialize for BTreeMap<K, V> {
    fn __to_value(&self) -> Value {
        map_to_value(self.iter(), false)
    }
}

impl<'de, K, V> Deserialize<'de> for BTreeMap<K, V>
where
    K: for<'any> Deserialize<'any> + Ord,
    V: for<'any> Deserialize<'any>,
{
    fn __from_value(v: &Value) -> Result<Self, Error> {
        Ok(map_from_value::<K, V>(v)?.into_iter().collect())
    }
}

impl<T: Serialize, S> Serialize for HashSet<T, S> {
    fn __to_value(&self) -> Value {
        let mut rendered: Vec<Value> = self.iter().map(Serialize::__to_value).collect();
        rendered.sort_by_cached_key(render);
        Value::Array(rendered)
    }
}

impl<'de, T, S> Deserialize<'de> for HashSet<T, S>
where
    T: for<'any> Deserialize<'any> + std::hash::Hash + Eq,
    S: std::hash::BuildHasher + Default,
{
    fn __from_value(v: &Value) -> Result<Self, Error> {
        Ok(Vec::<T>::__from_value(v)?.into_iter().collect())
    }
}

impl<T: Serialize> Serialize for BTreeSet<T> {
    fn __to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::__to_value).collect())
    }
}

impl<'de, T> Deserialize<'de> for BTreeSet<T>
where
    T: for<'any> Deserialize<'any> + Ord,
{
    fn __from_value(v: &Value) -> Result<Self, Error> {
        Ok(Vec::<T>::__from_value(v)?.into_iter().collect())
    }
}

impl Serialize for Value {
    fn __to_value(&self) -> Value {
        self.clone()
    }
}

impl<'de> Deserialize<'de> for Value {
    fn __from_value(v: &Value) -> Result<Self, Error> {
        Ok(v.clone())
    }
}

// --------------------------------------------------------- JSON encode

pub fn render(v: &Value) -> String {
    let mut out = String::new();
    render_into(v, &mut out);
    out
}

/// Appends the compact JSON text of `v` to `out`.
pub fn render_into(v: &Value, out: &mut String) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(true) => out.push_str("true"),
        Value::Bool(false) => out.push_str("false"),
        // Writing into a `String` cannot fail.
        Value::Int(x) => {
            let _ = write!(out, "{x}");
        }
        Value::UInt(x) => {
            let _ = write!(out, "{x}");
        }
        Value::Float(x) => {
            if x.is_finite() {
                let _ = write!(out, "{x:?}");
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

/// Appends `s` to `out` as a quoted JSON string. Runs of bytes that need
/// no escape are copied whole; every byte that does (`"`, `\` and the
/// C0 controls) is ASCII, so each run ends on a char boundary.
pub fn render_string(s: &str, out: &mut String) {
    out.push('"');
    let mut run = 0;
    for (i, &b) in s.as_bytes().iter().enumerate() {
        let escape = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0..=0x1f => "",
            _ => continue,
        };
        out.push_str(s.get(run..i).unwrap_or_default());
        if escape.is_empty() {
            let _ = write!(out, "\\u{b:04x}");
        } else {
            out.push_str(escape);
        }
        run = i + 1;
    }
    out.push_str(s.get(run..).unwrap_or_default());
    out.push('"');
}

// --------------------------------------------------------- JSON decode

/// The deepest array/object nesting [`parse`] accepts. The workspace's
/// own documents (snapshots, journal records, wire lines) nest well
/// under 20 levels; a deeper document is an [`Error`] instead of a
/// recursion that can overflow the parsing thread's stack.
const MAX_DEPTH: usize = 128;

/// Parses one JSON document. Walks the UTF-8 bytes of `text`: every
/// byte the grammar branches on is ASCII, so each string or number is
/// a slice of `text` between two ASCII bytes.
pub fn parse(text: &str) -> Result<Value, Error> {
    let mut p = Parser {
        text,
        bytes: text.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return err("trailing characters");
    }
    Ok(v)
}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects open around `pos`.
    depth: usize,
}

/// `0x01` in every byte of a word.
const ONES: u64 = u64::from_le_bytes([1; 8]);
/// `0x80` in every byte of a word.
const HIGHS: u64 = ONES << 7;

/// Flags (with `0x80`) the lowest zero byte of `word`; bytes above it
/// may be flagged spuriously, so only the lowest flag is exact.
fn zero_bytes(word: u64) -> u64 {
    word.wrapping_sub(ONES) & !word & HIGHS
}

/// The index of the first `"` or `\` in `bytes` at or after `from`
/// (`bytes.len()` if there is none), tested eight bytes at a time.
fn string_special(bytes: &[u8], from: usize) -> usize {
    let mut i = from;
    while let Some(chunk) = bytes.get(i..).and_then(|rest| rest.first_chunk::<8>()) {
        let word = u64::from_le_bytes(*chunk);
        let hits =
            zero_bytes(word ^ (ONES * b'"' as u64)) | zero_bytes(word ^ (ONES * b'\\' as u64));
        if hits != 0 {
            return i + (hits.trailing_zeros() / 8) as usize;
        }
        i += 8;
    }
    let tail = bytes.get(i..).unwrap_or_default();
    i + tail
        .iter()
        .position(|&b| b == b'"' || b == b'\\')
        .unwrap_or(tail.len())
}

impl<'a> Parser<'a> {
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn bump(&mut self) -> Result<u8, Error> {
        let b = self.peek().ok_or_else(|| Error("unexpected end".into()))?;
        self.pos += 1;
        Ok(b)
    }

    /// `text[start..end]`; both ends sit next to ASCII bytes.
    fn slice(&self, start: usize, end: usize) -> Result<&'a str, Error> {
        self.text
            .get(start..end)
            .ok_or_else(|| Error("slice splits a UTF-8 sequence".into()))
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, c: u8) -> Result<(), Error> {
        if self.bump()? == c {
            Ok(())
        } else {
            err(format!("expected `{}`", c as char))
        }
    }

    fn literal(&mut self, word: &str, value: Value) -> Result<Value, Error> {
        for c in word.bytes() {
            self.expect(c)?;
        }
        Ok(value)
    }

    fn value(&mut self) -> Result<Value, Error> {
        self.skip_ws();
        match self.peek().ok_or_else(|| Error("unexpected end".into()))? {
            b'n' => self.literal("null", Value::Null),
            b't' => self.literal("true", Value::Bool(true)),
            b'f' => self.literal("false", Value::Bool(false)),
            b'"' => Ok(Value::Str(self.string()?)),
            b'[' => self.nested(Self::array),
            b'{' => self.nested(Self::object),
            _ => self.number(),
        }
    }

    /// Parses one array or object one level deeper, refusing to pass
    /// [`MAX_DEPTH`].
    fn nested(&mut self, container: fn(&mut Self) -> Result<Value, Error>) -> Result<Value, Error> {
        if self.depth == MAX_DEPTH {
            return err(format!("nesting deeper than {MAX_DEPTH} levels"));
        }
        self.depth += 1;
        let v = container(self);
        self.depth -= 1;
        v
    }

    fn string(&mut self) -> Result<String, Error> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let end = string_special(self.bytes, self.pos);
            out.push_str(self.slice(self.pos, end)?);
            self.pos = end;
            match self.bump()? {
                b'"' => return Ok(out),
                _ => self.escape(&mut out)?,
            }
        }
    }

    /// Decodes the escape after a `\` into `out`.
    fn escape(&mut self, out: &mut String) -> Result<(), Error> {
        let c = match self.bump()? {
            b'"' => '"',
            b'\\' => '\\',
            b'/' => '/',
            b'n' => '\n',
            b'r' => '\r',
            b't' => '\t',
            b'b' => '\u{8}',
            b'f' => '\u{c}',
            b'u' => {
                let mut code = 0u32;
                for _ in 0..4 {
                    code = code * 16
                        + char::from(self.bump()?)
                            .to_digit(16)
                            .ok_or_else(|| Error("bad \\u escape".into()))?;
                }
                char::from_u32(code).unwrap_or('\u{fffd}')
            }
            _ => {
                let other = self.text.get(self.pos - 1..).and_then(|s| s.chars().next());
                return err(format!("bad escape `\\{}`", other.unwrap_or('\u{fffd}')));
            }
        };
        out.push(c);
        Ok(())
    }

    fn array(&mut self) -> Result<Value, Error> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.bump()? {
                b',' => continue,
                b']' => return Ok(Value::Array(items)),
                _ => return err("expected `,` or `]`"),
            }
        }
    }

    fn object(&mut self) -> Result<Value, Error> {
        self.expect(b'{')?;
        let mut m = Map::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(m));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            let value = self.value()?;
            m.insert(key, value);
            self.skip_ws();
            match self.bump()? {
                b',' => continue,
                b'}' => return Ok(Value::Object(m)),
                _ => return err("expected `,` or `}`"),
            }
        }
    }

    fn number(&mut self) -> Result<Value, Error> {
        let start = self.pos;
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
        ) {
            self.pos += 1;
        }
        let text = self.slice(start, self.pos)?;
        if text.is_empty() {
            return err("expected number");
        }
        if !text.contains(['.', 'e', 'E']) {
            if let Some(rest) = text.strip_prefix('-') {
                if let Ok(x) = rest.parse::<i128>() {
                    // `x` is `i128::MIN` only after a doubled sign
                    // (`--170…728`); its wrapping negation is itself.
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
