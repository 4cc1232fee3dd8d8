//! The columnar table.
//!
//! A [`Table`] is an append-oriented store with stable [`TupleId`]s. The id
//! survives deletions of other tuples, which matters for the attack models
//! (the attacker deletes or alters tuples, the detector must still find the
//! watermarked survivors) and for the interference analysis (§6), which tracks
//! how individual bins gain or lose members.
//!
//! Storage is column-major: one typed [`Column`] per schema column (native
//! `i64` vectors for integer data, dictionary-encoded code vectors for
//! everything else — see the [`column`](crate::column) module), plus one id
//! vector. The row-major [`Tuple`] remains as a materialized view for callers
//! that want whole rows ([`Table::row`], [`Table::iter`], [`Table::tuples`]);
//! the hot paths read [`Table::columns`] directly. A single cell is addressed
//! by row position and schema index ([`Table::value_at`], [`Table::set_at`]);
//! ids select and delete whole tuples.

use crate::column::Column;
use crate::error::RelationError;
use crate::predicate::Predicate;
use crate::schema::Schema;
use crate::value::Value;
use serde::{Deserialize, Serialize};

/// A stable identifier for a tuple within one table instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct TupleId(pub u64);

impl std::fmt::Display for TupleId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "t{}", self.0)
    }
}

/// A single materialized row: a tuple id plus one value per schema column.
///
/// With the columnar core this is a *view*, produced on demand; mutating a
/// `Tuple` does not write back to the table.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Tuple {
    /// Stable id of this tuple.
    pub id: TupleId,
    /// Values, one per column, in schema order.
    pub values: Vec<Value>,
}

impl Tuple {
    /// The value at column `index`, if in range.
    pub fn value(&self, index: usize) -> Option<&Value> {
        self.values.get(index)
    }
}

/// An in-memory relational table with columnar storage.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Table {
    schema: Schema,
    ids: Vec<TupleId>,
    columns: Vec<Column>,
    next_id: u64,
}

impl Table {
    /// Create an empty table with the given schema.
    pub fn new(schema: Schema) -> Self {
        let columns = (0..schema.arity()).map(|_| Column::new()).collect();
        Table { schema, ids: Vec::new(), columns, next_id: 0 }
    }

    /// The table's schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of tuples currently stored.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// True if the table holds no tuples.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// The typed column vectors, in schema order.
    pub fn columns(&self) -> &[Column] {
        &self.columns
    }

    /// One typed column by schema index.
    pub fn column(&self, index: usize) -> Option<&Column> {
        self.columns.get(index)
    }

    /// Mutable access to one typed column by schema index, for batch kernels
    /// that intern dictionary values or apply code edits. Callers must not
    /// change the column's row count.
    pub fn column_mut(&mut self, index: usize) -> Option<&mut Column> {
        self.columns.get_mut(index)
    }

    /// Insert a tuple, returning its assigned id.
    ///
    /// Fails with [`RelationError::ArityMismatch`] if the number of values
    /// does not match the schema.
    pub fn insert(&mut self, values: Vec<Value>) -> Result<TupleId, RelationError> {
        if values.len() != self.schema.arity() {
            return Err(RelationError::ArityMismatch {
                expected: self.schema.arity(),
                actual: values.len(),
            });
        }
        let id = TupleId(self.next_id);
        self.next_id += 1;
        self.ids.push(id);
        for (column, value) in self.columns.iter_mut().zip(&values) {
            column.push(value);
        }
        Ok(id)
    }

    /// Insert many tuples at once. Stops at the first arity error.
    pub fn insert_all(
        &mut self,
        tuples: impl IntoIterator<Item = Vec<Value>>,
    ) -> Result<Vec<TupleId>, RelationError> {
        let mut ids = Vec::new();
        for values in tuples {
            ids.push(self.insert(values)?);
        }
        Ok(ids)
    }

    /// Materialize the row at position `row` (not id) as a [`Tuple`].
    pub fn row(&self, row: usize) -> Option<Tuple> {
        let id = *self.ids.get(row)?;
        let values = self.columns.iter().map(|c| c.value(row)).collect();
        Some(Tuple { id, values })
    }

    /// The value at (`row` position, `column` index), materialized.
    pub fn value_at(&self, row: usize, column: usize) -> Option<Value> {
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
    /// dictionaries.
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
            None => Ok(Table {
                schema: self.schema.clone(),
                ids: self.ids.clone(),
                columns: mapped,
                next_id: self.next_id,
            }),
        }
    }

    /// Iterate over all tuples in insertion order, materializing each row.
    pub fn iter(&self) -> impl Iterator<Item = Tuple> + '_ {
        (0..self.len()).map(|row| {
            let values = self.columns.iter().map(|c| c.value(row)).collect();
            Tuple { id: self.ids[row], values }
        })
    }

    /// All tuples materialized as rows, in insertion order.
    ///
    /// This is the row-major compatibility view; it clones every cell. Hot
    /// paths (binning, watermark kernels, the engine) read
    /// [`Table::columns`] instead — medlint's `no-tuple-materialization`
    /// rule enforces that in the migrated modules.
    pub fn tuples(&self) -> Vec<Tuple> {
        self.iter().collect()
    }

    /// All values of one column, materialized in row order.
    pub fn column_values(&self, column: &str) -> Result<Vec<Value>, RelationError> {
        let idx = self.schema.index_of(column)?;
        let c = &self.columns[idx];
        Ok((0..c.len()).map(|row| c.value(row)).collect())
    }

    /// Ids of tuples satisfying `predicate`.
    pub fn select(&self, predicate: &Predicate) -> Result<Vec<TupleId>, RelationError> {
        let mut out = Vec::new();
        for tuple in self.iter() {
            if predicate.matches(&self.schema, &tuple)? {
                out.push(tuple.id);
            }
        }
        Ok(out)
    }

    /// Delete tuples satisfying `predicate`; returns the number removed.
    /// This is the `DELETE FROM R WHERE ...` used by the subset-deletion
    /// attack of §7.2.
    pub fn delete_where(&mut self, predicate: &Predicate) -> Result<usize, RelationError> {
        let victims = self.select(predicate)?;
        Ok(self.delete_ids(&victims))
    }

    /// Delete specific tuples by id; returns the number removed.
    pub fn delete_ids(&mut self, ids: &[TupleId]) -> usize {
        let victim_set: std::collections::HashSet<TupleId> = ids.iter().copied().collect();
        let keep: Vec<bool> = self.ids.iter().map(|id| !victim_set.contains(id)).collect();
        let removed = keep.iter().filter(|&&k| !k).count();
        if removed == 0 {
            return 0;
        }
        for column in &mut self.columns {
            column.retain_rows(&keep);
        }
        let mut row = 0;
        self.ids.retain(|_| {
            let k = keep[row];
            row += 1;
            k
        });
        removed
    }

    /// All tuple ids in row order.
    pub fn ids(&self) -> Vec<TupleId> {
        self.ids.clone()
    }

    /// A deep copy of the table with the same ids (used to snapshot the
    /// pre-watermarking state for interference measurements).
    pub fn snapshot(&self) -> Table {
        self.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::column::ColumnData;
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
    fn insert_assigns_monotone_ids() {
        let t = small_table();
        assert_eq!(t.len(), 3);
        assert_eq!(t.ids(), vec![TupleId(0), TupleId(1), TupleId(2)]);
    }

    #[test]
    fn insert_rejects_wrong_arity() {
        let mut t = small_table();
        let err = t.insert(vec![Value::int(1)]).unwrap_err();
        assert_eq!(err, RelationError::ArityMismatch { expected: 3, actual: 1 });
    }

    #[test]
    fn insert_all_propagates_errors() {
        let mut t = small_table();
        let res = t.insert_all(vec![
            vec![Value::text("s4"), Value::int(40), Value::text("Nurse")],
            vec![Value::int(1)],
        ]);
        assert!(res.is_err());
        // The valid tuple before the error was inserted.
        assert_eq!(t.len(), 4);
    }

    #[test]
    fn value_access_and_update() {
        let mut t = small_table();
        assert_eq!(t.value_at(1, 1), Some(Value::int(61)));
        t.set_at(1, 1, &Value::interval(60, 70)).unwrap();
        assert_eq!(t.value_at(1, 1), Some(Value::interval(60, 70)));
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
        // Integer data stays native; categorical data is dictionary-coded.
        assert!(matches!(t.column(1).unwrap().data(), ColumnData::Int([34, 61, 29])));
        let ColumnData::Dict { dict, codes } = t.column(2).unwrap().data() else {
            panic!("categorical column should be dictionary-encoded");
        };
        assert_eq!(dict.len(), 2, "two distinct doctors interned once");
        assert_eq!(codes, &[0, 1, 0]);
    }

    #[test]
    fn delete_ids_keeps_remaining_ids_stable() {
        let mut t = small_table();
        assert_eq!(t.delete_ids(&[TupleId(1)]), 1);
        assert_eq!(t.ids(), vec![TupleId(0), TupleId(2)]);
        assert!(!t.ids().contains(&TupleId(1)));
        assert_eq!(t.row(1).unwrap().id, TupleId(2));
        // Deleting again is a no-op.
        assert_eq!(t.delete_ids(&[TupleId(1)]), 0);
    }

    #[test]
    fn new_inserts_after_delete_get_fresh_ids() {
        let mut t = small_table();
        t.delete_ids(&[TupleId(2)]);
        let id = t.insert(vec![Value::text("s4"), Value::int(50), Value::text("Nurse")]).unwrap();
        assert_eq!(id, TupleId(3), "ids are never reused");
    }

    #[test]
    fn select_and_delete_where() {
        let mut t = small_table();
        let pred = Predicate::eq("doctor", Value::text("Surgeon"));
        let hits = t.select(&pred).unwrap();
        assert_eq!(hits, vec![TupleId(0), TupleId(2)]);
        assert_eq!(t.delete_where(&pred).unwrap(), 2);
        assert_eq!(t.len(), 1);
        assert_eq!(t.iter().next().unwrap().id, TupleId(1));
    }

    #[test]
    fn snapshot_is_independent() {
        let mut t = small_table();
        let snap = t.snapshot();
        t.set_at(0, 1, &Value::int(99)).unwrap();
        assert_eq!(snap.value_at(0, 1), Some(Value::int(34)));
        assert_eq!(t.value_at(0, 1), Some(Value::int(99)));
    }

    #[test]
    fn materialized_views_expose_rows_in_order() {
        let t = small_table();
        let ids: Vec<TupleId> = t.tuples().iter().map(|tp| tp.id).collect();
        assert_eq!(ids, t.ids());
        for (row, tuple) in t.iter().enumerate() {
            assert_eq!(t.row(row).unwrap(), tuple);
            for (col, value) in tuple.values.iter().enumerate() {
                assert_eq!(t.value_at(row, col).as_ref(), Some(value));
            }
        }
        assert!(t.row(3).is_none());
        assert!(t.value_at(0, 9).is_none());
        assert!(t.value_at(9, 0).is_none());
    }

    #[test]
    fn code_edits_write_through_to_values() {
        // The embed kernel's write path: intern a replacement value, then
        // overwrite rows by dictionary code.
        let mut t = small_table();
        let dict = t.column_mut(2).unwrap().promote();
        let nurse = dict.intern(&Value::text("Nurse"));
        dict.set_code(0, nurse);
        assert_eq!(t.value_at(0, 2), Some(Value::text("Nurse")));
        assert_eq!(t.value_at(1, 2), Some(Value::text("Pharmacist")));
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
        assert_eq!(mapped.ids(), t.ids());
        assert_eq!(mapped.column_values("ssn").unwrap(), t.column_values("ssn").unwrap());
        assert_eq!(mapped.value_at(1, 1), Some(Value::text("0:61")));
        assert_eq!(mapped.value_at(2, 2), Some(Value::text("1:Surgeon")));
        // The source table is untouched.
        assert_eq!(t.value_at(1, 1), Some(Value::int(61)));
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
