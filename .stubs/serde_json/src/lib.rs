//! Offline stand-in for `serde_json` over the stub `serde` value tree.
//! Self-consistent (round-trips its own output); NOT wire-compatible with
//! real serde_json — local testing only.

pub use serde::{Map, Value};

pub type Error = serde::Error;
pub type Result<T> = std::result::Result<T, Error>;

pub fn to_string<T: ?Sized + serde::Serialize>(value: &T) -> Result<String> {
    Ok(serde::render(&value.__to_value()))
}

pub fn to_string_pretty<T: ?Sized + serde::Serialize>(value: &T) -> Result<String> {
    let v = value.__to_value();
    let mut out = String::new();
    pretty(&v, 0, &mut out);
    Ok(out)
}

pub fn to_value<T: serde::Serialize>(value: T) -> Result<Value> {
    Ok(value.__to_value())
}

pub fn from_str<'a, T: serde::Deserialize<'a>>(text: &'a str) -> Result<T> {
    let v = serde::parse(text)?;
    T::__from_value(&v)
}

pub fn from_value<T: for<'any> serde::Deserialize<'any>>(v: Value) -> Result<T> {
    T::__from_value(&v)
}

/// Appends the two-space-indented JSON text of `v` at nesting `indent`.
fn pretty(v: &Value, indent: usize, out: &mut String) {
    match v {
        Value::Array(items) if !items.is_empty() => {
            out.push_str("[\n");
            for (i, item) in items.iter().enumerate() {
                pad(indent + 1, out);
                pretty(item, indent + 1, out);
                if i + 1 < items.len() {
                    out.push(',');
                }
                out.push('\n');
            }
            pad(indent, out);
            out.push(']');
        }
        Value::Object(m) if !m.is_empty() => {
            out.push_str("{\n");
            for (i, (k, item)) in m.iter().enumerate() {
                pad(indent + 1, out);
                serde::render_string(k, out);
                out.push_str(": ");
                pretty(item, indent + 1, out);
                if i + 1 < m.len() {
                    out.push(',');
                }
                out.push('\n');
            }
            pad(indent, out);
            out.push('}');
        }
        other => serde::render_into(other, out),
    }
}

fn pad(indent: usize, out: &mut String) {
    for _ in 0..indent {
        out.push_str("  ");
    }
}
