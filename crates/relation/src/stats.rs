//! Per-column value counts and per-bin sizes, read from the dictionary
//! codes.
//!
//! The k-anonymity view of a binned table is "records containing the same
//! value constitute a bin, and the size of every bin is at least k" (§2).
//! These helpers compute value frequencies per column and bin sizes over the
//! full quasi-identifier combination, which the metrics crate turns into
//! information-loss figures, k-anonymity checks and the Fig. 14 statistics.
//!
//! Frequencies count *codes* (one `u32` index per row), touching the actual
//! [`Value`]s only once per distinct entry, so stale dictionary entries left
//! behind by overwrites or deletions are never counted.

use crate::column::slot;
use crate::error::RelationError;
use crate::table::Table;
use crate::value::Value;
use std::collections::BTreeMap;

/// Frequency of each distinct value in one column.
///
/// Returned as a `BTreeMap` so iteration order is deterministic, which keeps
/// reports and tests stable. Rows are counted by code — one integer
/// increment per row — and each distinct value is cloned exactly once.
pub fn value_counts(table: &Table, column: &str) -> Result<BTreeMap<Value, usize>, RelationError> {
    let column = &table.columns()[table.schema().index_of(column)?];
    let mut per_code = vec![0usize; column.dict().len()];
    for &code in column.codes() {
        per_code[slot(code)] += 1;
    }
    Ok(column
        .dict()
        .iter()
        .zip(per_code)
        .filter(|&(_, count)| count > 0)
        .map(|(value, count)| (value.clone(), count))
        .collect())
}

/// Bin sizes over a combination of columns: every distinct tuple of values in
/// `columns` is one bin; the map value is the number of records in the bin.
pub fn bin_sizes(
    table: &Table,
    columns: &[&str],
) -> Result<BTreeMap<Vec<Value>, usize>, RelationError> {
    let indices: Vec<usize> =
        columns.iter().map(|c| table.schema().index_of(c)).collect::<Result<_, _>>()?;
    let mut bins = BTreeMap::new();
    for row in 0..table.len() {
        let key: Vec<Value> =
            indices.iter().map(|&i| table.columns()[i].value(row).clone()).collect();
        *bins.entry(key).or_insert(0) += 1;
    }
    Ok(bins)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{ColumnDef, ColumnRole, Schema};

    fn table() -> Table {
        let schema = Schema::new(vec![
            ColumnDef::new("id", ColumnRole::Identifying),
            ColumnDef::new("age", ColumnRole::QuasiNumeric),
            ColumnDef::new("doctor", ColumnRole::QuasiCategorical),
        ])
        .unwrap();
        let mut t = Table::new(schema);
        let rows = [
            (1, 30, "Surgeon"),
            (2, 30, "Surgeon"),
            (3, 30, "Nurse"),
            (4, 40, "Nurse"),
            (5, 40, "Nurse"),
        ];
        for (id, age, doc) in rows {
            t.insert(vec![Value::int(id), Value::int(age), Value::text(doc)]).unwrap();
        }
        t
    }

    #[test]
    fn value_counts_per_column() {
        let t = table();
        let counts = value_counts(&t, "doctor").unwrap();
        assert_eq!(counts[&Value::text("Surgeon")], 2);
        assert_eq!(counts[&Value::text("Nurse")], 3);
        assert_eq!(value_counts(&t, "age").unwrap().len(), 2);
        assert!(value_counts(&t, "missing").is_err());
    }

    #[test]
    fn distinct_count_ignores_stale_dictionary_entries() {
        // Overwriting the only "Surgeon" rows leaves the entry interned but
        // unreferenced; the live distinct values must not include it.
        let mut t = table();
        t.set_at(0, 2, &Value::text("Nurse")).unwrap();
        t.set_at(1, 2, &Value::text("Nurse")).unwrap();
        assert_eq!(t.column(2).unwrap().dict().len(), 2);
        let counts = value_counts(&t, "doctor").unwrap();
        assert_eq!(counts.len(), 1);
        assert_eq!(counts[&Value::text("Nurse")], 5);
    }

    #[test]
    fn bin_sizes_over_combination() {
        let t = table();
        let bins = bin_sizes(&t, &["age", "doctor"]).unwrap();
        assert_eq!(bins.len(), 3);
        assert_eq!(bins[&vec![Value::int(30), Value::text("Surgeon")]], 2);
        assert_eq!(bins[&vec![Value::int(30), Value::text("Nurse")]], 1);
        assert_eq!(bins[&vec![Value::int(40), Value::text("Nurse")]], 2);
        assert!(bin_sizes(&Table::new(Schema::medical_example()), &["age"]).unwrap().is_empty());
    }
}
