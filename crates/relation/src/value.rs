//! Typed cell values.
//!
//! Binning replaces a specific value by a more general one: a categorical
//! leaf becomes an ancestor label, a numeric value becomes a half-open
//! interval. Both generalized forms are first-class [`Value`] variants so the
//! binned table remains a normal relational table.

use serde::{Deserialize, Serialize};
use std::cmp::Ordering;
use std::fmt;

/// A single cell value.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Value {
    /// Absent / suppressed value.
    Null,
    /// 64-bit signed integer (ages, zip codes stored numerically, ...).
    Int(i64),
    /// Free text or categorical label.
    Text(String),
    /// Half-open interval `[lo, hi)` produced by generalizing a numeric value.
    Interval {
        /// Inclusive lower bound.
        lo: i64,
        /// Exclusive upper bound.
        hi: i64,
    },
}

impl Value {
    /// Build a text value.
    pub fn text(s: impl Into<String>) -> Self {
        Value::Text(s.into())
    }

    /// Build an integer value.
    pub fn int(v: i64) -> Self {
        Value::Int(v)
    }

    /// Build an interval value `[lo, hi)`.
    pub fn interval(lo: i64, hi: i64) -> Self {
        Value::Interval { lo, hi }
    }

    /// True if the value is `Null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// The integer content, if this is an `Int`.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(v) => Some(*v),
            _ => None,
        }
    }

    /// The text content, if this is a `Text`.
    pub fn as_text(&self) -> Option<&str> {
        match self {
            Value::Text(s) => Some(s),
            _ => None,
        }
    }

    /// The interval bounds, if this is an `Interval`.
    pub fn as_interval(&self) -> Option<(i64, i64)> {
        match self {
            Value::Interval { lo, hi } => Some((*lo, *hi)),
            _ => None,
        }
    }

    /// True if an integer value (or degenerate interval) falls inside this
    /// value interpreted as a numeric range. An `Int` behaves as the
    /// degenerate interval `[v, v+1)`.
    pub fn numeric_contains(&self, point: i64) -> bool {
        match self {
            Value::Int(v) => *v == point,
            Value::Interval { lo, hi } => point >= *lo && point < *hi,
            _ => false,
        }
    }

    /// A short name of the variant, used in error messages.
    pub fn kind(&self) -> &'static str {
        match self {
            Value::Null => "null",
            Value::Int(_) => "int",
            Value::Text(_) => "text",
            Value::Interval { .. } => "interval",
        }
    }

    /// Canonical byte encoding used as the input of keyed hashes. The
    /// encoding is prefix-free across variants so distinct values never
    /// collide structurally.
    pub fn canonical_bytes(&self) -> Vec<u8> {
        // Sized exactly: binning encrypts one of these per distinct
        // identifier.
        let mut out = Vec::with_capacity(match self {
            Value::Null => 1,
            Value::Int(_) => 9,
            Value::Text(s) => 9 + s.len(),
            Value::Interval { .. } => 17,
        });
        self.write_canonical_bytes(&mut out);
        out
    }

    /// Append [`Value::canonical_bytes`] to `out`, for callers that frame
    /// many values into one buffer.
    pub fn write_canonical_bytes(&self, out: &mut Vec<u8>) {
        match self {
            Value::Null => out.push(0x00),
            Value::Int(v) => {
                out.push(0x01);
                out.extend_from_slice(&v.to_be_bytes());
            }
            Value::Text(s) => {
                out.push(0x02);
                out.extend_from_slice(&(s.len() as u64).to_be_bytes());
                out.extend_from_slice(s.as_bytes());
            }
            Value::Interval { lo, hi } => {
                out.push(0x03);
                out.extend_from_slice(&lo.to_be_bytes());
                out.extend_from_slice(&hi.to_be_bytes());
            }
        }
    }

    /// Parse a value from its display form. `""` parses to `Null`,
    /// `"[a,b)"` to an interval, a decimal integer to `Int`, anything else
    /// to `Text`.
    pub fn parse(s: &str) -> Value {
        let trimmed = s.trim();
        if trimmed.is_empty() || trimmed == "∅" {
            return Value::Null;
        }
        if let Some(body) = trimmed.strip_prefix('[').and_then(|t| t.strip_suffix(')')) {
            let parts: Vec<&str> = body.splitn(2, ',').collect();
            if parts.len() == 2 {
                if let (Ok(lo), Ok(hi)) = (parts[0].trim().parse(), parts[1].trim().parse()) {
                    return Value::Interval { lo, hi };
                }
            }
        }
        if let Ok(v) = trimmed.parse::<i64>() {
            return Value::Int(v);
        }
        Value::Text(trimmed.to_string())
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, ""),
            Value::Int(v) => write!(f, "{v}"),
            Value::Text(s) => write!(f, "{s}"),
            Value::Interval { lo, hi } => write!(f, "[{lo},{hi})"),
        }
    }
}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Value {
    /// Total order used for sorted sibling sets and deterministic reports:
    /// Null < Int < Interval < Text; ints by value, intervals by (lo, hi),
    /// text lexicographically.
    fn cmp(&self, other: &Self) -> Ordering {
        use Value::*;
        fn rank(v: &Value) -> u8 {
            match v {
                Null => 0,
                Int(_) => 1,
                Interval { .. } => 2,
                Text(_) => 3,
            }
        }
        match (self, other) {
            (Null, Null) => Ordering::Equal,
            (Int(a), Int(b)) => a.cmp(b),
            (Interval { lo: a1, hi: a2 }, Interval { lo: b1, hi: b2 }) => {
                a1.cmp(b1).then(a2.cmp(b2))
            }
            (Text(a), Text(b)) => a.cmp(b),
            _ => rank(self).cmp(&rank(other)),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Text(v.to_string())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Text(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_and_accessors() {
        assert_eq!(Value::int(42).as_int(), Some(42));
        assert_eq!(Value::text("doctor").as_text(), Some("doctor"));
        assert_eq!(Value::interval(25, 50).as_interval(), Some((25, 50)));
        assert!(Value::Null.is_null());
        assert!(!Value::int(1).is_null());
        assert_eq!(Value::int(1).as_text(), None);
        assert_eq!(Value::text("x").as_int(), None);
    }

    #[test]
    fn display_roundtrip_via_parse() {
        for v in [
            Value::Null,
            Value::int(37),
            Value::int(-5),
            Value::text("Pharmacist"),
            Value::interval(0, 150),
        ] {
            assert_eq!(Value::parse(&v.to_string()), v, "value {v:?}");
        }
    }

    #[test]
    fn parse_prefers_int_then_text() {
        assert_eq!(Value::parse("123"), Value::Int(123));
        assert_eq!(Value::parse("12a"), Value::text("12a"));
        assert_eq!(Value::parse("  hi  "), Value::text("hi"));
        assert_eq!(Value::parse(""), Value::Null);
        assert_eq!(Value::parse("[25, 50)"), Value::interval(25, 50));
        // Malformed interval falls back to text.
        assert_eq!(Value::parse("[25;50)"), Value::text("[25;50)"));
    }

    #[test]
    fn numeric_contains() {
        assert!(Value::int(30).numeric_contains(30));
        assert!(!Value::int(30).numeric_contains(31));
        let iv = Value::interval(25, 50);
        assert!(iv.numeric_contains(25));
        assert!(iv.numeric_contains(49));
        assert!(!iv.numeric_contains(50));
        assert!(!Value::text("x").numeric_contains(1));
        assert!(!Value::Null.numeric_contains(0));
    }

    #[test]
    fn ordering_is_total_and_by_rank() {
        let mut values = vec![
            Value::text("b"),
            Value::int(2),
            Value::Null,
            Value::interval(0, 10),
            Value::text("a"),
            Value::int(1),
        ];
        values.sort();
        assert_eq!(
            values,
            vec![
                Value::Null,
                Value::int(1),
                Value::int(2),
                Value::interval(0, 10),
                Value::text("a"),
                Value::text("b"),
            ]
        );
    }

    #[test]
    fn canonical_bytes_are_distinct() {
        let values = [
            Value::Null,
            Value::int(0),
            Value::int(1),
            Value::text(""),
            Value::text("0"),
            Value::interval(0, 1),
            Value::interval(0, 2),
        ];
        for (i, a) in values.iter().enumerate() {
            for (j, b) in values.iter().enumerate() {
                if i != j {
                    assert_ne!(a.canonical_bytes(), b.canonical_bytes(), "{a:?} vs {b:?}");
                }
            }
        }
    }

    #[test]
    fn canonical_bytes_text_prefix_free() {
        // "ab" + "c" must differ from "a" + "bc" structurally.
        let a = Value::text("ab").canonical_bytes();
        let b = Value::text("a").canonical_bytes();
        assert_ne!(a, b);
        assert!(a.len() > b.len());
    }

    #[test]
    fn conversions() {
        assert_eq!(Value::from(7i64), Value::Int(7));
        assert_eq!(Value::from("x"), Value::text("x"));
        assert_eq!(Value::from(String::from("y")), Value::text("y"));
    }

    #[test]
    fn kind_names() {
        assert_eq!(Value::Null.kind(), "null");
        assert_eq!(Value::int(1).kind(), "int");
        assert_eq!(Value::text("a").kind(), "text");
        assert_eq!(Value::interval(1, 2).kind(), "interval");
    }
}
