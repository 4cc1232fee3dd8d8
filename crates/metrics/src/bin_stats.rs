//! Bin statistics for the interference analysis (Fig. 14).
//!
//! Figure 14 of the paper reports, per quasi-identifying attribute and per
//! value of k: the total number of bins, the number of bins whose size changed
//! because of watermarking, and the number of bins whose size dropped below k.
//! [`column_bin_report`] computes exactly those three numbers by comparing the
//! binned table with the binned-and-watermarked table.

use medshield_relation::{stats, RelationError, Table};
use serde::{Deserialize, Serialize};

/// The Fig. 14 triple for one attribute.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct BinReport {
    /// Total number of bins of the attribute after watermarking (distinct
    /// values present in either table).
    pub total_bins: usize,
    /// Number of bins whose size differs between the two tables.
    pub changed_bins: usize,
    /// Number of bins whose size is below `k` after watermarking.
    pub below_k: usize,
}

/// Compare the bins of `column` before (`binned`) and after (`watermarked`)
/// watermarking, under anonymity parameter `k`.
pub fn column_bin_report(
    binned: &Table,
    watermarked: &Table,
    column: &str,
    k: usize,
) -> Result<BinReport, RelationError> {
    let before = stats::value_counts(binned, column)?;
    let after = stats::value_counts(watermarked, column)?;

    let mut all_values: std::collections::BTreeSet<_> = before.keys().cloned().collect();
    all_values.extend(after.keys().cloned());

    let mut changed = 0usize;
    let mut below_k = 0usize;
    for v in &all_values {
        let b = before.get(v).copied().unwrap_or(0);
        let a = after.get(v).copied().unwrap_or(0);
        if a != b {
            changed += 1;
        }
        if a < k {
            below_k += 1;
        }
    }
    Ok(BinReport { total_bins: all_values.len(), changed_bins: changed, below_k })
}

#[cfg(test)]
mod tests {
    use super::*;
    use medshield_relation::{ColumnDef, ColumnRole, Schema, Value};

    fn base_table() -> Table {
        let schema = Schema::new(vec![
            ColumnDef::new("doctor", ColumnRole::QuasiCategorical),
            ColumnDef::new("age", ColumnRole::QuasiNumeric),
        ])
        .unwrap();
        let mut t = Table::new(schema);
        for (doc, age) in [
            ("Doctor", 30),
            ("Doctor", 30),
            ("Doctor", 30),
            ("Paramedic", 30),
            ("Paramedic", 30),
            ("Paramedic", 40),
        ] {
            t.insert(vec![Value::text(doc), Value::int(age)]).unwrap();
        }
        t
    }

    #[test]
    fn identical_tables_report_no_change() {
        let t = base_table();
        let r = column_bin_report(&t, &t, "doctor", 2).unwrap();
        assert_eq!(r, BinReport { total_bins: 2, changed_bins: 0, below_k: 0 });
    }

    #[test]
    fn permutation_between_bins_changes_both() {
        let binned = base_table();
        let mut marked = binned.snapshot();
        // Move one Doctor to Paramedic — both bins change size, none below 2.
        marked.set_at(0, 0, &Value::text("Paramedic")).unwrap();
        let r = column_bin_report(&binned, &marked, "doctor", 2).unwrap();
        assert_eq!(r.total_bins, 2);
        assert_eq!(r.changed_bins, 2);
        assert_eq!(r.below_k, 0);
    }

    #[test]
    fn below_k_counts_small_bins_after_watermarking() {
        let binned = base_table();
        let mut marked = binned.snapshot();
        // Shrink the Paramedic/age-40 situation: k = 2 over the age column.
        // Move the single 40-year-old to 30 → the 40 bin disappears (size 0 <
        // 2 is only counted if the value still exists somewhere).
        marked.set_at(5, 1, &Value::int(30)).unwrap();
        let r = column_bin_report(&binned, &marked, "age", 2).unwrap();
        // Bins: 30 (changed 5→6) and 40 (changed 1→0, now below k).
        assert_eq!(r.total_bins, 2);
        assert_eq!(r.changed_bins, 2);
        assert_eq!(r.below_k, 1);
    }

    #[test]
    fn new_value_in_watermarked_table_is_counted() {
        let binned = base_table();
        let mut marked = binned.snapshot();
        marked.set_at(0, 0, &Value::text("Nurse")).unwrap();
        let r = column_bin_report(&binned, &marked, "doctor", 2).unwrap();
        // Bins: Doctor (3→2), Paramedic (3→3), Nurse (0→1, below k).
        assert_eq!(r.total_bins, 3);
        assert_eq!(r.changed_bins, 2);
        assert_eq!(r.below_k, 1);
    }

    #[test]
    fn unknown_column_errors() {
        let t = base_table();
        assert!(column_bin_report(&t, &t, "nope", 2).is_err());
    }
}
