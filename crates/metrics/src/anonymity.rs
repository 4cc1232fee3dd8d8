//! k-anonymity verification.
//!
//! A table satisfies k-anonymity over its quasi-identifying columns when every
//! record is indistinguishable from at least k−1 others, i.e. every bin
//! (group of records sharing the same quasi-identifier combination) has size
//! at least k (§2).

use medshield_relation::{stats, RelationError, Table, Value};

/// True if every bin over `columns` has at least `k` members. An empty table
/// vacuously satisfies any `k`.
pub fn satisfies_k_anonymity(
    table: &Table,
    columns: &[&str],
    k: usize,
) -> Result<bool, RelationError> {
    Ok(violating_bins(table, columns, k)?.is_empty())
}

/// True if every bin over the single column `column` has at least `k`
/// members — the mono-attribute check used during mono-attribute binning.
pub fn column_satisfies_k(table: &Table, column: &str, k: usize) -> Result<bool, RelationError> {
    satisfies_k_anonymity(table, &[column], k)
}

/// The bins over `columns` whose size is below `k`, with their sizes.
pub fn violating_bins(
    table: &Table,
    columns: &[&str],
    k: usize,
) -> Result<Vec<(Vec<Value>, usize)>, RelationError> {
    let bins = stats::bin_sizes(table, columns)?;
    Ok(bins.into_iter().filter(|(_, size)| *size < k).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use medshield_relation::{ColumnDef, ColumnRole, Schema};

    fn table() -> Table {
        let schema = Schema::new(vec![
            ColumnDef::new("age", ColumnRole::QuasiNumeric),
            ColumnDef::new("doctor", ColumnRole::QuasiCategorical),
        ])
        .unwrap();
        let mut t = Table::new(schema);
        let rows = [
            (30, "Surgeon"),
            (30, "Surgeon"),
            (30, "Surgeon"),
            (40, "Nurse"),
            (40, "Nurse"),
            (40, "Surgeon"),
        ];
        for (age, doc) in rows {
            t.insert(vec![Value::int(age), Value::text(doc)]).unwrap();
        }
        t
    }

    #[test]
    fn mono_attribute_checks() {
        let t = table();
        // age: bins {30:3, 40:3} → 3-anonymous per column.
        assert!(column_satisfies_k(&t, "age", 3).unwrap());
        assert!(!column_satisfies_k(&t, "age", 4).unwrap());
        // doctor: bins {Surgeon:4, Nurse:2}.
        assert!(column_satisfies_k(&t, "doctor", 2).unwrap());
        assert!(!column_satisfies_k(&t, "doctor", 3).unwrap());
    }

    #[test]
    fn multi_attribute_is_stricter_than_mono() {
        // This is the paper's §4.2 motivating point: each attribute may be
        // k-anonymous while the combination is not.
        let t = table();
        assert!(column_satisfies_k(&t, "age", 3).unwrap());
        assert!(column_satisfies_k(&t, "doctor", 2).unwrap());
        // Combination bins: (30,Surgeon):3, (40,Nurse):2, (40,Surgeon):1.
        assert!(!satisfies_k_anonymity(&t, &["age", "doctor"], 2).unwrap());
        let violations = violating_bins(&t, &["age", "doctor"], 2).unwrap();
        assert_eq!(violations.len(), 1);
        assert_eq!(violations[0].1, 1);
        assert_eq!(violations[0].0, vec![Value::int(40), Value::text("Surgeon")]);
    }

    #[test]
    fn empty_table_is_vacuously_anonymous() {
        let schema = Schema::new(vec![ColumnDef::new("age", ColumnRole::QuasiNumeric)]).unwrap();
        let t = Table::new(schema);
        assert!(satisfies_k_anonymity(&t, &["age"], 100).unwrap());
    }

    #[test]
    fn k_of_one_always_holds_for_nonempty() {
        let t = table();
        assert!(satisfies_k_anonymity(&t, &["age", "doctor"], 1).unwrap());
    }

    #[test]
    fn unknown_column_is_error() {
        let t = table();
        assert!(satisfies_k_anonymity(&t, &["nope"], 2).is_err());
    }
}
