//! The columnar table.
//!
//! A [`Table`] is an append-oriented, column-major store: one
//! dictionary-encoded [`Column`] per schema column (see the
//! [`column`](crate::column) module). There is one way to address a cell:
//! by its code into its column's dictionary, either by row position and
//! schema index ([`Table::value_at`], [`Table::set_at`]) or in bulk through
//! the code vectors ([`Table::columns`]) that the binning and watermarking
//! kernels scan. Rows are removed in one pass with
//! a keep mask ([`Table::retain_rows`]); the survivors keep their relative
//! order, which is all the attack models and the interference analysis (§6)
//! need — a tuple's identity is its content (the identifying columns, Eq. 5),
//! never its position.

use crate::column::Column;
use crate::error::RelationError;
use crate::schema::Schema;
use crate::value::Value;
use serde::{Deserialize, Serialize};

/// An in-memory relational table with columnar storage.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Table {
    schema: Schema,
    columns: Vec<Column>,
    len: usize,
}

impl Table {
    /// Create an empty table with the given schema.
    pub fn new(schema: Schema) -> Self {
        let columns = (0..schema.arity()).map(|_| Column::new()).collect();
        Table { schema, columns, len: 0 }
    }

    /// A table over already-built columns, one per schema column, each
    /// holding `len` rows.
    pub(crate) fn from_columns(schema: Schema, columns: Vec<Column>, len: usize) -> Self {
        debug_assert!(columns.len() == schema.arity() && columns.iter().all(|c| c.len() == len));
        Table { schema, columns, len }
    }

    /// The table's schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of tuples currently stored.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the table holds no tuples.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The columns, in schema order.
    pub fn columns(&self) -> &[Column] {
        &self.columns
    }

    /// One column by schema index.
    pub fn column(&self, index: usize) -> Option<&Column> {
        self.columns.get(index)
    }

    /// Mutable access to one column by schema index, for batch kernels
    /// that intern dictionary values or apply code edits. Callers must not
    /// change the column's row count.
    pub fn column_mut(&mut self, index: usize) -> Option<&mut Column> {
        self.columns.get_mut(index)
    }

    /// Append a tuple: one value per schema column, in schema order.
    ///
    /// Fails with [`RelationError::ArityMismatch`] if the number of values
    /// does not match the schema.
    pub fn insert(&mut self, values: Vec<Value>) -> Result<(), RelationError> {
        if values.len() != self.schema.arity() {
            return Err(RelationError::ArityMismatch {
                expected: self.schema.arity(),
                actual: values.len(),
            });
        }
        for (column, value) in self.columns.iter_mut().zip(&values) {
            column.push(value);
        }
        self.len += 1;
        Ok(())
    }

    /// The value at (`row` position, `column` index).
    pub fn value_at(&self, row: usize, column: usize) -> Option<&Value> {
        let c = self.columns.get(column)?;
        if row < c.len() {
            Some(c.value(row))
        } else {
            None
        }
    }

    /// Overwrite the value at (`row` position, `column` index).
    pub fn set_at(
        &mut self,
        row: usize,
        column: usize,
        value: &Value,
    ) -> Result<(), RelationError> {
        let c = self.columns.get_mut(column).ok_or(RelationError::UnknownColumnIndex(column))?;
        if row >= c.len() {
            return Err(RelationError::UnknownRow(row));
        }
        c.set(row, value);
        Ok(())
    }

    /// A copy of the table with the columns at the schema indices `columns`
    /// rewritten through [`Column::map_distinct`]: `f(position, value)` is
    /// called once per distinct value each column's rows reference, where
    /// `position` indexes `columns`. The rewritten columns carry fresh
    /// dictionaries; the others share theirs with `self`.
    ///
    /// On failure returns the error of the first failing cell in row-major
    /// order (ties broken by position in `columns`).
    pub fn map_distinct<E: From<RelationError>>(
        &self,
        columns: &[usize],
        mut f: impl FnMut(usize, &Value) -> Result<Value, E>,
    ) -> Result<Table, E> {
        if let Some(&index) = columns.iter().find(|&&i| i >= self.columns.len()) {
            return Err(RelationError::UnknownColumnIndex(index).into());
        }
        let mut mapped: Vec<Column> = self
            .columns
            .iter()
            .enumerate()
            .map(|(i, c)| if columns.contains(&i) { Column::new() } else { c.clone() })
            .collect();
        let mut first_error: Option<(usize, E)> = None;
        for (position, &index) in columns.iter().enumerate() {
            match self.columns[index].map_distinct(|v| f(position, v)) {
                Ok(c) => mapped[index] = c,
                Err((row, e)) => {
                    if first_error.as_ref().is_none_or(|(r, _)| row < *r) {
                        first_error = Some((row, e));
                    }
                }
            }
        }
        match first_error {
            Some((_, e)) => Err(e),
            None => Ok(Table { schema: self.schema.clone(), columns: mapped, len: self.len }),
        }
    }

    /// All values of one column, materialized in row order.
    pub fn column_values(&self, column: &str) -> Result<Vec<Value>, RelationError> {
        let idx = self.schema.index_of(column)?;
        let c = &self.columns[idx];
        Ok((0..c.len()).map(|row| c.value(row).clone()).collect())
    }

    /// Keep exactly the rows whose `keep` flag is true, in order, and return
    /// the number of rows removed. `keep` must have one entry per row.
    ///
    /// # Panics
    ///
    /// If `keep.len()` differs from [`Table::len`].
    pub fn retain_rows(&mut self, keep: &[bool]) -> usize {
        assert_eq!(keep.len(), self.len, "retain_rows needs one flag per row");
        let kept = keep.iter().filter(|&&k| k).count();
        if kept < self.len {
            for column in &mut self.columns {
                column.retain_rows(keep);
            }
        }
        std::mem::replace(&mut self.len, kept) - kept
    }

    /// An independent copy of the table: the watermark's release copy, an
    /// attack's working copy, the pre-watermarking state for interference
    /// measurements. It shares every column dictionary with `self` and
    /// copies only the per-row codes; either side takes its own dictionary
    /// when it interns a value the shared one lacks, so a write to one side
    /// never shows in the other.
    pub fn snapshot(&self) -> Table {
        self.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{ColumnDef, ColumnRole};

    fn small_table() -> Table {
        let schema = Schema::new(vec![
            ColumnDef::new("ssn", ColumnRole::Identifying),
            ColumnDef::new("age", ColumnRole::QuasiNumeric),
            ColumnDef::new("doctor", ColumnRole::QuasiCategorical),
        ])
        .unwrap();
        let mut t = Table::new(schema);
        t.insert(vec![Value::text("s1"), Value::int(34), Value::text("Surgeon")]).unwrap();
        t.insert(vec![Value::text("s2"), Value::int(61), Value::text("Pharmacist")]).unwrap();
        t.insert(vec![Value::text("s3"), Value::int(29), Value::text("Surgeon")]).unwrap();
        t
    }

    #[test]
    fn insert_rejects_wrong_arity() {
        let mut t = small_table();
        let err = t.insert(vec![Value::int(1)]).unwrap_err();
        assert_eq!(err, RelationError::ArityMismatch { expected: 3, actual: 1 });
    }

    #[test]
    fn value_access_and_update() {
        let mut t = small_table();
        assert_eq!(t.value_at(1, 1), Some(&Value::int(61)));
        t.set_at(1, 1, &Value::interval(60, 70)).unwrap();
        assert_eq!(t.value_at(1, 1), Some(&Value::interval(60, 70)));
        assert!(t.value_at(1, 9).is_none());
        assert_eq!(t.set_at(1, 9, &Value::Null), Err(RelationError::UnknownColumnIndex(9)));
        assert!(t.value_at(99, 1).is_none());
        assert_eq!(t.set_at(99, 1, &Value::Null), Err(RelationError::UnknownRow(99)));
    }

    #[test]
    fn column_values_in_row_order() {
        let t = small_table();
        let ages: Vec<i64> =
            t.column_values("age").unwrap().iter().map(|v| v.as_int().unwrap()).collect();
        assert_eq!(ages, vec![34, 61, 29]);
    }

    #[test]
    fn columnar_layout_is_typed() {
        let t = small_table();
        // Integers and labels alike: each typed value interned once, in
        // order of first occurrence.
        let ages = t.column(1).unwrap();
        assert_eq!(ages.dict(), &[Value::int(34), Value::int(61), Value::int(29)]);
        assert_eq!(ages.codes(), &[0, 1, 2]);
        let doctors = t.column(2).unwrap();
        assert_eq!(doctors.dict(), &[Value::text("Surgeon"), Value::text("Pharmacist")]);
        assert_eq!(doctors.codes(), &[0, 1, 0]);
    }

    #[test]
    fn retain_rows_keeps_int_and_dict_columns_aligned() {
        // Integer-valued and text-valued columns drop the same rows.
        let mut t = small_table();
        assert_eq!(t.retain_rows(&[true, false, true]), 1);
        assert_eq!(t.len(), 2);
        assert_eq!(t.column_values("ssn").unwrap(), vec![Value::text("s1"), Value::text("s3")]);
        assert_eq!(t.column_values("age").unwrap(), vec![Value::int(34), Value::int(29)]);
        assert_eq!(
            t.column_values("doctor").unwrap(),
            vec![Value::text("Surgeon"), Value::text("Surgeon")]
        );
        // Keeping every row is a no-op; later inserts append after the
        // survivors.
        assert_eq!(t.retain_rows(&[true, true]), 0);
        t.insert(vec![Value::text("s4"), Value::int(50), Value::text("Nurse")]).unwrap();
        assert_eq!(t.len(), 3);
        assert_eq!(t.value_at(2, 2), Some(&Value::text("Nurse")));
        assert_eq!(t.retain_rows(&[false, false, false]), 3);
        assert!(t.is_empty());
        assert!(t.columns().iter().all(Column::is_empty));
    }

    #[test]
    #[should_panic(expected = "one flag per row")]
    fn retain_rows_rejects_a_short_mask() {
        small_table().retain_rows(&[true]);
    }

    #[test]
    fn snapshot_is_independent() {
        let mut t = small_table();
        let snap = t.snapshot();
        t.set_at(0, 1, &Value::int(99)).unwrap();
        assert_eq!(snap.value_at(0, 1), Some(&Value::int(34)));
        assert_eq!(t.value_at(0, 1), Some(&Value::int(99)));
    }

    #[test]
    fn materialized_views_expose_rows_in_order() {
        let t = small_table();
        for (col, def) in t.schema().columns().iter().enumerate() {
            let values = t.column_values(&def.name).unwrap();
            assert_eq!(values.len(), t.len());
            for (row, value) in values.iter().enumerate() {
                assert_eq!(t.value_at(row, col), Some(value));
            }
        }
        assert!(t.value_at(3, 0).is_none());
        assert!(t.value_at(0, 9).is_none());
        assert!(t.value_at(9, 0).is_none());
    }

    #[test]
    fn code_edits_write_through_to_values() {
        // The embed kernel's write path: intern a replacement value, then
        // overwrite rows by dictionary code.
        let mut t = small_table();
        let doctors = t.column_mut(2).unwrap();
        let nurse = doctors.intern(&Value::text("Nurse"));
        doctors.set_code(0, nurse);
        assert_eq!(t.value_at(0, 2), Some(&Value::text("Nurse")));
        assert_eq!(t.value_at(1, 2), Some(&Value::text("Pharmacist")));
    }

    #[test]
    fn map_distinct_rewrites_listed_columns_only() {
        let t = small_table();
        let mut calls = Vec::new();
        let mapped = t
            .map_distinct::<RelationError>(&[1, 2], |position, v| {
                calls.push((position, v.clone()));
                Ok(Value::text(format!("{position}:{v}")))
            })
            .unwrap();
        // Three distinct ages, two distinct doctors.
        assert_eq!(calls.len(), 5);
        assert_eq!(mapped.len(), t.len());
        assert_eq!(mapped.column_values("ssn").unwrap(), t.column_values("ssn").unwrap());
        assert_eq!(mapped.value_at(1, 1), Some(&Value::text("0:61")));
        assert_eq!(mapped.value_at(2, 2), Some(&Value::text("1:Surgeon")));
        // The source table is untouched.
        assert_eq!(t.value_at(1, 1), Some(&Value::int(61)));
    }

    #[test]
    fn map_distinct_reports_the_first_failing_cell_in_row_major_order() {
        let t = small_table();
        // Column 1 fails at row 2, column 2 at row 1: row 1 comes first.
        let err = t
            .map_distinct(&[1, 2], |_, v| match v {
                Value::Int(29) => Err(RelationError::UnknownColumn("age 29".into())),
                Value::Text(s) if s == "Pharmacist" => {
                    Err(RelationError::UnknownColumn("pharmacist".into()))
                }
                _ => Ok(v.clone()),
            })
            .unwrap_err();
        assert_eq!(err, RelationError::UnknownColumn("pharmacist".into()));
        // In the same row, the earlier listed column wins.
        let err = t
            .map_distinct(&[2, 1], |position, _| {
                Err(RelationError::UnknownColumn(format!("position {position}")))
            })
            .unwrap_err();
        assert_eq!(err, RelationError::UnknownColumn("position 0".into()));
        assert_eq!(
            t.map_distinct(&[5], |_, v| Ok::<_, RelationError>(v.clone())).unwrap_err(),
            RelationError::UnknownColumnIndex(5)
        );
    }

    #[test]
    fn is_empty_reflects_contents() {
        let schema = Schema::medical_example();
        let t = Table::new(schema);
        assert!(t.is_empty());
        assert!(!small_table().is_empty());
    }
}
