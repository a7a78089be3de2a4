//! JSON for the result line, the output files and `pinned.json`. The
//! value type and the parser are `mutiny_telemetry::export`'s; that
//! crate only ever renders its own fixed document, so the general
//! writer is here.

pub use mutiny_telemetry::export::{parse, Json};
use std::fmt::Write as _;

/// An object from `(key, value)` pairs, in the order given.
pub fn obj<K: Into<String>>(pairs: impl IntoIterator<Item = (K, Json)>) -> Json {
    Json::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
}

/// A string value.
pub fn str(s: impl Into<String>) -> Json {
    Json::Str(s.into())
}

/// A count.
pub fn count(v: usize) -> Json {
    Json::Num(v as f64)
}

/// An array of numbers.
pub fn nums(values: &[f64]) -> Json {
    Json::Arr(values.iter().map(|&v| Json::Num(v)).collect())
}

/// One-line rendering (the driver reads the last stdout line).
pub fn compact(value: &Json) -> String {
    let mut out = String::new();
    write(value, &mut out, None, 0);
    out
}

/// Indented rendering for files people read.
pub fn pretty(value: &Json) -> String {
    let mut out = String::new();
    write(value, &mut out, Some(2), 0);
    out.push('\n');
    out
}

fn write(value: &Json, out: &mut String, indent: Option<usize>, depth: usize) {
    let newline = |out: &mut String, depth: usize| {
        if let Some(w) = indent {
            out.push('\n');
            out.extend(std::iter::repeat_n(' ', w * depth));
        }
    };
    match value {
        Json::Null => out.push_str("null"),
        Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Json::Num(v) => write_num(out, *v),
        Json::Str(s) => write_str(out, s),
        Json::Arr(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline(out, depth + 1);
                write(item, out, indent, depth + 1);
            }
            if !items.is_empty() {
                newline(out, depth);
            }
            out.push(']');
        }
        Json::Obj(pairs) => {
            out.push('{');
            for (i, (k, v)) in pairs.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline(out, depth + 1);
                write_str(out, k);
                out.push_str(if indent.is_some() { ": " } else { ":" });
                write(v, out, indent, depth + 1);
            }
            if !pairs.is_empty() {
                newline(out, depth);
            }
            out.push('}');
        }
    }
}

/// Writes a number as measured: Rust's shortest round-trip form, whole
/// values without a fraction, non-finite values as `null`.
fn write_num(out: &mut String, v: f64) {
    if !v.is_finite() {
        out.push_str("null");
    } else if v.fract() == 0.0 && v.abs() < 1e15 {
        let _ = write!(out, "{}", v as i64);
    } else {
        let _ = write!(out, "{v}");
    }
}

fn write_str(out: &mut String, s: &str) {
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hand_written_json_parses_back() {
        let doc = obj([
            ("correct", Json::Bool(true)),
            ("attempted", count(1200)),
            ("ratio", Json::Num(0.1 + 0.2)),
            ("tiny", Json::Num(1.5e-9)),
            (
                "name",
                str("tab\there \"quoted\" back\\slash\nnewline \u{1}"),
            ),
            ("nothing", Json::Null),
            (
                "list",
                Json::Arr(vec![Json::Num(-3.0), nums(&[]), Json::Obj(vec![])]),
            ),
        ]);
        for text in [compact(&doc), pretty(&doc)] {
            assert_eq!(parse(&text), Ok(doc.clone()), "{text}");
        }
        // Floats keep every measured digit; whole numbers print as such.
        assert!(compact(&doc).contains("\"ratio\":0.30000000000000004"));
        assert!(compact(&doc).contains("\"attempted\":1200,"));
        assert_eq!(compact(&doc).lines().count(), 1);
        assert_eq!(compact(&Json::Num(f64::NAN)), "null");
    }
}
