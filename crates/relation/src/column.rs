//! Dictionary-encoded column storage for the columnar
//! [`Table`](crate::table::Table) core.
//!
//! Every column keeps each distinct [`Value`] once, in order of first
//! occurrence, and one dense `u32` code per row. Integers, text labels,
//! generalization intervals and nulls are interned alike, so there is one
//! way to address a cell: by its code into the column's dictionary. The hot
//! loops (binning leaf resolution, watermark embed/detect kernels, column
//! statistics, CSV export) do per-distinct-value work once and per-row work
//! on the plain code vector.
//!
//! The dictionary is shared copy-on-write: cloning a column (and so
//! [`Table::snapshot`](crate::table::Table::snapshot)) copies only the codes,
//! and the copy takes its own dictionary only when it interns a value the
//! shared one lacks. A table derived from another (binned, watermarked,
//! fingerprinted) therefore holds a column it never rewrites, such as the
//! encrypted identifiers, once. The `Value → code` index is a cache: it is
//! built on the first [`Column::intern`] and never copied, so a table that
//! is only read never pays for it.
//!
//! In-place writes never shrink a dictionary: stale entries may linger after
//! deletions or overwrites, so consumers that need the *live* distinct set
//! must count codes present in the rows (see `relation::stats`), not
//! dictionary length. A whole-column rewrite ([`Column::map_distinct`])
//! builds a new column with a fresh dictionary instead.

use crate::value::Value;
use std::borrow::Cow;
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::sync::Arc;

/// One table column: the distinct values interned once, plus one dense code
/// per row.
#[derive(Debug, Default)]
pub struct Column {
    /// Shared with every clone until one of them interns a new value.
    dict: Arc<Vec<Value>>,
    codes: Vec<u32>,
    /// `Value → code` for a prefix of `dict` (entries are distinct, so its
    /// length is the prefix length). A clone, a column built by
    /// [`ColumnBuilder`] and one built by [`Column::map_distinct`] start
    /// unindexed; [`Column::intern`] catches the index up first.
    index: HashMap<Value, u32>,
}

impl Clone for Column {
    /// Shares the dictionary and copies the codes; the index is left behind.
    fn clone(&self) -> Self {
        Column { dict: Arc::clone(&self.dict), codes: self.codes.clone(), index: HashMap::new() }
    }
}

impl Column {
    /// A new, empty column.
    pub fn new() -> Self {
        Column::default()
    }

    /// The number of rows.
    pub fn len(&self) -> usize {
        self.codes.len()
    }

    /// True when the column has no rows.
    pub fn is_empty(&self) -> bool {
        self.codes.is_empty()
    }

    /// The interned dictionary, indexed by code, in order of first
    /// occurrence. May contain entries no row currently references.
    pub fn dict(&self) -> &[Value] {
        &self.dict
    }

    /// The dense per-row codes, in row order.
    pub fn codes(&self) -> &[u32] {
        &self.codes
    }

    /// The value of `row` (a reference into the dictionary).
    pub fn value(&self, row: usize) -> &Value {
        &self.dict[slot(self.codes[row])]
    }

    /// Intern `value`, returning its code without appending a row. A
    /// dictionary of 2^32 distinct values would need hundreds of gigabytes,
    /// so the code-width saturation below is unreachable in practice.
    pub fn intern(&mut self, value: &Value) -> u32 {
        for (slot, v) in self.dict.iter().enumerate().skip(self.index.len()) {
            self.index.insert(v.clone(), code_of(slot));
        }
        if let Some(&code) = self.index.get(value) {
            return code;
        }
        let code = code_of(self.dict.len());
        Arc::make_mut(&mut self.dict).push(value.clone());
        self.index.insert(value.clone(), code);
        code
    }

    /// Append a row holding `value`.
    pub fn push(&mut self, value: &Value) {
        let code = self.intern(value);
        self.codes.push(code);
    }

    /// Overwrite `row` with `value`, interning it if new.
    pub fn set(&mut self, row: usize, value: &Value) {
        let code = self.intern(value);
        self.codes[row] = code;
    }

    /// Overwrite `row` with an already-interned `code`. The caller must have
    /// obtained the code from [`Column::intern`] on this column.
    pub fn set_code(&mut self, row: usize, code: u32) {
        self.codes[row] = code;
    }

    /// A new column holding `f(value)` for every row, with `f` called once
    /// per dictionary code that some row references, in order of first
    /// occurrence. Dictionary entries no row references are never visited.
    ///
    /// The result is the column [`Column::push`] would build from the mapped
    /// values, fresh dictionary included, so it carries no stale entries. It
    /// starts unindexed, and no mapped value is cloned. On failure returns
    /// the first failing row and the error `f` gave for its value.
    pub fn map_distinct<E>(
        &self,
        mut f: impl FnMut(&Value) -> Result<Value, E>,
    ) -> Result<Column, (usize, E)> {
        let mut seen: HashMap<Value, u32> = HashMap::with_capacity(self.dict.len());
        let mut codes = Vec::with_capacity(self.len());
        let mut memo: Vec<Option<u32>> = vec![None; self.dict.len()];
        for (row, &c) in self.codes.iter().enumerate() {
            let code = match memo[slot(c)] {
                Some(code) => code,
                None => {
                    let mapped = f(&self.dict[slot(c)]).map_err(|err| (row, err))?;
                    let next = code_of(seen.len());
                    let code = *seen.entry(mapped).or_insert(next);
                    memo[slot(c)] = Some(code);
                    code
                }
            };
            codes.push(code);
        }
        // Move the distinct values into the dictionary in code order.
        let mut dict = vec![Value::Null; seen.len()];
        for (value, code) in seen {
            dict[slot(code)] = value;
        }
        Ok(Column { dict: Arc::new(dict), codes, index: HashMap::new() })
    }

    /// Keep only the rows whose `keep` flag is true. `keep` must have one
    /// entry per row. Dictionary entries are never garbage-collected.
    pub fn retain_rows(&mut self, keep: &[bool]) {
        let mut row = 0;
        self.codes.retain(|_| {
            let k = keep[row];
            row += 1;
            k
        });
    }
}

/// Builds one column from raw text fields (the CSV reader's per-column
/// state). Each distinct trimmed field is parsed with [`Value::parse`] once;
/// the finished column is the one [`Column::push`] builds from the parsed
/// values, dictionary in first-occurrence order and codes included.
#[derive(Debug, Default)]
pub(crate) struct ColumnBuilder<'a> {
    /// Wrapped in an [`Arc`] once, by [`ColumnBuilder::finish`].
    dict: Vec<Value>,
    codes: Vec<u32>,
    /// Trimmed field → code. Keys borrow from the input where they can.
    fields: HashMap<Cow<'a, str>, u32>,
    /// Non-text value → code. Text values are unique by their trimmed field,
    /// but distinct fields may parse to one integer, interval or null (`5`,
    /// `+5` and `05`; an empty field and `∅`).
    values: HashMap<Value, u32>,
}

impl<'a> ColumnBuilder<'a> {
    /// Append a row holding `Value::parse(field)`, probing the field map
    /// once.
    pub(crate) fn push(&mut self, field: Cow<'a, str>) {
        let key = match field {
            Cow::Borrowed(field) => Cow::Borrowed(field.trim()),
            Cow::Owned(field) if field.trim().len() == field.len() => Cow::Owned(field),
            Cow::Owned(field) => Cow::Owned(field.trim().to_owned()),
        };
        let code = match self.fields.entry(key) {
            Entry::Occupied(e) => *e.get(),
            Entry::Vacant(e) => {
                let value = Value::parse(e.key());
                let dict = &mut self.dict;
                let code = match value {
                    Value::Text(_) => {
                        let code = code_of(dict.len());
                        dict.push(value);
                        code
                    }
                    _ => *self.values.entry(value).or_insert_with_key(|value| {
                        let code = code_of(dict.len());
                        dict.push(value.clone());
                        code
                    }),
                };
                *e.insert(code)
            }
        };
        self.codes.push(code);
    }

    /// The finished column.
    pub(crate) fn finish(self) -> Column {
        Column { dict: Arc::new(self.dict), codes: self.codes, index: HashMap::new() }
    }
}

/// The code of dictionary index `slot`, saturating at `u32::MAX` (see
/// [`Column::intern`]).
fn code_of(slot: usize) -> u32 {
    u32::try_from(slot).unwrap_or(u32::MAX)
}

/// The dictionary index of `code`.
pub(crate) fn slot(code: u32) -> usize {
    // medlint::allow(checked-framing, u32→usize widens losslessly on every supported target and every code was produced by intern() on its column)
    code as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn integers_and_intervals_share_one_dictionary() {
        let mut c = Column::new();
        for v in [Value::int(3), Value::int(7), Value::interval(0, 10), Value::int(3)] {
            c.push(&v);
        }
        assert_eq!(c.dict(), &[Value::int(3), Value::int(7), Value::interval(0, 10)]);
        assert_eq!(c.codes(), &[0, 1, 2, 0]);
    }

    #[test]
    fn dictionary_interns_each_distinct_value_once() {
        let mut c = Column::new();
        for v in ["a", "b", "a", "a", "b"] {
            c.push(&Value::text(v));
        }
        assert_eq!(c.dict().len(), 2);
        assert_eq!(c.codes(), &[0, 1, 0, 0, 1]);
    }

    #[test]
    fn set_preserves_other_rows() {
        let mut c = Column::new();
        c.push(&Value::int(34));
        c.push(&Value::int(61));
        c.set(1, &Value::interval(60, 70));
        assert_eq!(c.value(0), &Value::int(34));
        assert_eq!(c.value(1), &Value::interval(60, 70));
    }

    #[test]
    fn retain_rows_keeps_flagged_rows_in_order() {
        let mut c = Column::new();
        for i in 0..5 {
            c.push(&Value::int(i));
        }
        c.retain_rows(&[true, false, true, false, true]);
        assert_eq!(c.len(), 3);
        assert_eq!(c.value(1), &Value::int(2));
        let mut d = Column::new();
        for v in ["x", "y", "z"] {
            d.push(&Value::text(v));
        }
        d.retain_rows(&[false, true, true]);
        assert_eq!(d.value(0), &Value::text("y"));
        assert_eq!(d.value(1), &Value::text("z"));
    }

    #[test]
    fn intern_does_not_append_rows() {
        let mut c = Column::new();
        c.push(&Value::text("a"));
        let code = c.intern(&Value::text("b"));
        assert_eq!(c.len(), 1);
        c.set_code(0, code);
        assert_eq!(c.value(0), &Value::text("b"));
    }

    fn naive_map(c: &Column, f: impl Fn(&Value) -> Value) -> Column {
        let mut out = Column::new();
        for row in 0..c.len() {
            out.push(&f(c.value(row)));
        }
        out
    }

    fn same(a: &Column, b: &Column) -> bool {
        a.dict() == b.dict() && a.codes() == b.codes()
    }

    #[test]
    fn map_distinct_calls_f_once_per_distinct_value() {
        let mut ints = Column::new();
        for i in [5, 3, 5, 5, 9, 3] {
            ints.push(&Value::int(i));
        }
        let mut seen = Vec::new();
        let mapped = ints
            .map_distinct::<()>(|v| {
                seen.push(v.clone());
                Ok(Value::int(v.as_int().unwrap() * 10))
            })
            .unwrap();
        assert_eq!(seen, vec![Value::int(5), Value::int(3), Value::int(9)]);
        assert_eq!(mapped.dict(), &[Value::int(50), Value::int(30), Value::int(90)]);
        assert_eq!(mapped.codes(), &[0, 1, 0, 0, 2, 1]);

        let mut labels = Column::new();
        for v in ["a", "b", "a", "c", "b"] {
            labels.push(&Value::text(v));
        }
        let mut calls = 0;
        let mapped = labels
            .map_distinct::<()>(|v| {
                calls += 1;
                Ok(Value::text(format!("{v}!")))
            })
            .unwrap();
        assert_eq!(calls, 3);
        assert_eq!(mapped.value(3), &Value::text("c!"));
    }

    #[test]
    fn map_distinct_skips_stale_entries_and_publishes_a_fresh_dictionary() {
        let mut c = Column::new();
        for v in ["gone", "kept", "overwritten", "kept"] {
            c.push(&Value::text(v));
        }
        c.retain_rows(&[false, true, true, true]);
        c.set(1, &Value::text("new"));
        assert_eq!(c.dict().len(), 4, "in-place writes leave stale entries");
        let mut seen = Vec::new();
        let mapped = c
            .map_distinct::<()>(|v| {
                seen.push(v.clone());
                Ok(v.clone())
            })
            .unwrap();
        assert_eq!(seen, vec![Value::text("kept"), Value::text("new")]);
        assert_eq!(mapped.dict(), &[Value::text("kept"), Value::text("new")]);
        assert_eq!(mapped.codes(), &[0, 1, 0]);
    }

    #[test]
    fn map_distinct_matches_a_per_row_map() {
        let mut c = Column::new();
        for v in [Value::int(4), Value::Null, Value::int(17), Value::text("x"), Value::int(4)] {
            c.push(&v);
        }
        let f = |v: &Value| match v {
            Value::Int(i) if *i > 10 => Value::interval(10, 20),
            Value::Null => Value::int(0),
            other => other.clone(),
        };
        let mapped = c.map_distinct::<()>(|v| Ok(f(v))).unwrap();
        assert!(same(&mapped, &naive_map(&c, f)));
        // Distinct inputs mapped to one value share one code.
        let zeros = c.map_distinct::<()>(|_| Ok(Value::int(0))).unwrap();
        assert_eq!(zeros.dict(), &[Value::int(0)]);
        assert_eq!(zeros.codes(), &[0, 0, 0, 0, 0]);
    }

    #[test]
    fn map_distinct_reports_the_first_failing_row() {
        let mut c = Column::new();
        for i in [1, 2, 3, 2, 4] {
            c.push(&Value::int(i));
        }
        let err = c
            .map_distinct(|v| match v.as_int() {
                Some(i) if i >= 3 => Err(i),
                _ => Ok(v.clone()),
            })
            .unwrap_err();
        assert_eq!(err, (2, 3));
        c.set(0, &Value::text("bad"));
        let err = c
            .map_distinct(|v| {
                if v.is_null() || v.as_int() == Some(4) {
                    Err(v.clone())
                } else {
                    Ok(v.clone())
                }
            })
            .unwrap_err();
        assert_eq!(err, (4, Value::int(4)));
    }
}
