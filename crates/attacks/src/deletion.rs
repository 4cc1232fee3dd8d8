//! Subset Deletion (§7.2, Fig. 12c): the attacker deletes tuples hoping to
//! remove the watermarked ones. The paper's experiment issues SQL range
//! deletes over the identifier column
//! (`DELETE FROM R WHERE SSN > lval AND SSN < uval`); a purely random
//! deletion variant is provided as well.
//!
//! The range variant keeps the SQL semantics — each round removes every
//! surviving row whose identifier lies strictly between two identifiers of
//! the original table — without re-scanning the table per statement: the
//! identifiers are sorted once, each round subtracts the live row counts of
//! the distinct identifiers inside its range, and one
//! [`Table::retain_rows`] pass removes every victim at the end.

use crate::Attack;
use medshield_relation::Table;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// How the victims are chosen.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeletionStyle {
    /// Uniformly random tuples.
    Random,
    /// Contiguous ranges of the identifier column, mimicking the paper's SQL
    /// statement.
    IdentifierRanges,
}

/// The Subset Deletion attack.
#[derive(Debug, Clone, PartialEq)]
pub struct SubsetDeletion {
    /// Fraction of the tuples to delete, in `[0, 1]`.
    pub fraction: f64,
    /// PRNG seed for reproducible experiments.
    pub seed: u64,
    /// Victim-selection style.
    pub style: DeletionStyle,
    /// Identifier column used by [`DeletionStyle::IdentifierRanges`].
    pub identifier_column: String,
}

impl SubsetDeletion {
    /// Randomly delete `fraction` of the tuples.
    pub fn random(fraction: f64, seed: u64) -> Self {
        SubsetDeletion {
            fraction: fraction.clamp(0.0, 1.0),
            seed,
            style: DeletionStyle::Random,
            identifier_column: "ssn".to_string(),
        }
    }

    /// Delete `fraction` of the tuples through range deletes over
    /// `identifier_column`.
    pub fn ranges(fraction: f64, seed: u64, identifier_column: impl Into<String>) -> Self {
        SubsetDeletion {
            fraction: fraction.clamp(0.0, 1.0),
            seed,
            style: DeletionStyle::IdentifierRanges,
            identifier_column: identifier_column.into(),
        }
    }
}

impl Attack for SubsetDeletion {
    fn apply(&self, table: &Table) -> Table {
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut attacked = table.snapshot();
        let victims = ((table.len() as f64) * self.fraction).round() as usize;
        if victims == 0 {
            return attacked;
        }
        match self.style {
            DeletionStyle::Random => {
                let mut rows: Vec<usize> = (0..attacked.len()).collect();
                rows.shuffle(&mut rng);
                let mut keep = vec![true; attacked.len()];
                for &row in rows.iter().take(victims) {
                    keep[row] = false;
                }
                attacked.retain_rows(&keep);
            }
            DeletionStyle::IdentifierRanges => {
                let Ok(values) = attacked.column_values(&self.identifier_column) else {
                    return attacked;
                };
                // Sort the identifiers once: `rank[row]` is the position of
                // the row's identifier among the distinct identifiers, and
                // `live[i]` counts the surviving rows holding the i-th one.
                let mut order: Vec<usize> = (0..values.len()).collect();
                order.sort_by(|&a, &b| values[a].cmp(&values[b]));
                let mut rank = vec![0; values.len()];
                let mut live: Vec<usize> = Vec::new();
                for (i, &row) in order.iter().enumerate() {
                    if i == 0 || values[row] != values[order[i - 1]] {
                        live.push(0);
                    }
                    let last = live.len() - 1;
                    rank[row] = last;
                    live[last] += 1;
                }
                let distinct = live.len();
                let mut survivors = values.len();
                let mut remaining = victims;
                let mut guard = 0;
                while remaining > 0 && survivors > 0 && distinct >= 2 && guard < 1000 {
                    guard += 1;
                    let run = rng.gen_range(1..=remaining).min(distinct - 1);
                    let start = rng.gen_range(0..distinct - run);
                    // DELETE WHERE ident > idents[start] AND ident <
                    // idents[start + run]: the distinct identifiers strictly
                    // between the two bounds.
                    let deleted: usize =
                        live[start + 1..start + run].iter_mut().map(std::mem::take).sum();
                    survivors -= deleted;
                    remaining = remaining.saturating_sub(deleted);
                }
                let keep: Vec<bool> = rank.iter().map(|&i| live[i] > 0).collect();
                attacked.retain_rows(&keep);
            }
        }
        attacked
    }

    fn describe(&self) -> String {
        let style = match self.style {
            DeletionStyle::Random => "random",
            DeletionStyle::IdentifierRanges => "identifier-range",
        };
        format!("subset deletion ({style}) of {:.0}% of the tuples", self.fraction * 100.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::columns_of;
    use medshield_datagen::{DatasetConfig, MedicalDataset};
    use medshield_relation::{ColumnDef, ColumnRole, Schema, Value};

    fn table() -> Table {
        MedicalDataset::generate(&DatasetConfig::small(500)).table
    }

    #[test]
    fn random_deletion_removes_the_requested_fraction() {
        let t = table();
        let attacked = SubsetDeletion::random(0.3, 11).apply(&t);
        assert_eq!(attacked.len(), t.len() - (t.len() as f64 * 0.3).round() as usize);
    }

    #[test]
    fn zero_fraction_deletes_nothing() {
        let t = table();
        assert_eq!(SubsetDeletion::random(0.0, 1).apply(&t).len(), t.len());
        assert_eq!(SubsetDeletion::ranges(0.0, 1, "ssn").apply(&t).len(), t.len());
    }

    #[test]
    fn full_fraction_deletes_everything_randomly() {
        let t = table();
        assert!(SubsetDeletion::random(1.0, 1).apply(&t).is_empty());
    }

    #[test]
    fn range_deletion_removes_roughly_the_requested_fraction() {
        let t = table();
        let attacked = SubsetDeletion::ranges(0.4, 17, "ssn").apply(&t);
        let removed = t.len() - attacked.len();
        let target = (t.len() as f64 * 0.4).round() as usize;
        assert!(removed > 0);
        // Range deletes are granular, so allow slack around the target.
        assert!(removed <= target + target / 2 + 5, "removed {removed}, target {target}");
    }

    #[test]
    fn range_deletion_on_missing_column_is_a_no_op() {
        let t = table();
        let attacked = SubsetDeletion::ranges(0.5, 3, "not-a-column").apply(&t);
        assert_eq!(attacked.len(), t.len());
    }

    /// Every row of `t`, one value per column.
    fn rows(t: &Table) -> Vec<Vec<Value>> {
        (0..t.len())
            .map(|row| {
                (0..t.schema().arity()).map(|c| t.value_at(row, c).unwrap().clone()).collect()
            })
            .collect()
    }

    #[test]
    fn surviving_tuples_are_unmodified() {
        let t = table();
        for attacked in [
            SubsetDeletion::random(0.5, 23).apply(&t),
            SubsetDeletion::ranges(0.5, 23, "ssn").apply(&t),
        ] {
            // The survivors are the original rows, unmodified and in order.
            let mut originals = rows(&t).into_iter();
            for survivor in rows(&attacked) {
                assert!(
                    originals.any(|original| original == survivor),
                    "survivor must come from the original"
                );
            }
        }
    }

    /// The paper's statement, one round at a time:
    /// `DELETE FROM R WHERE column > lo AND column < hi`, as a full-table
    /// filter. Returns the number of rows removed.
    fn delete_between(t: &mut Table, column: &str, lo: &Value, hi: &Value) -> usize {
        let keep: Vec<bool> =
            t.column_values(column).unwrap().iter().map(|v| !(lo < v && v < hi)).collect();
        t.retain_rows(&keep)
    }

    /// The range deletion as the paper runs it: sorted distinct identifiers
    /// drawn from the original table, and one full-table delete per round.
    fn naive_ranges(attack: &SubsetDeletion, table: &Table) -> Table {
        let mut rng = StdRng::seed_from_u64(attack.seed);
        let mut attacked = table.snapshot();
        let victims = ((table.len() as f64) * attack.fraction).round() as usize;
        let Ok(mut idents) = attacked.column_values(&attack.identifier_column) else {
            return attacked;
        };
        idents.sort();
        idents.dedup();
        let mut remaining = victims;
        let mut guard = 0;
        while remaining > 0 && !attacked.is_empty() && guard < 1000 {
            guard += 1;
            if idents.len() < 2 {
                break;
            }
            let run = rng.gen_range(1..=remaining.max(1)).min(idents.len() - 1);
            let start = rng.gen_range(0..idents.len().saturating_sub(run));
            let (lo, hi) = (&idents[start], &idents[(start + run).min(idents.len() - 1)]);
            let deleted = delete_between(&mut attacked, &attack.identifier_column, lo, hi);
            remaining = remaining.saturating_sub(deleted);
        }
        attacked
    }

    #[test]
    fn range_delete_like_the_paper() {
        let schema = Schema::new(vec![
            ColumnDef::new("ssn", ColumnRole::Identifying),
            ColumnDef::new("age", ColumnRole::QuasiNumeric),
        ])
        .unwrap();
        let mut t = Table::new(schema);
        for (ssn, age) in [("a100", 30), ("a200", 40), ("a300", 50), ("a400", 60)] {
            t.insert(vec![Value::text(ssn), Value::int(age)]).unwrap();
        }
        // DELETE FROM R WHERE ssn > "a100" AND ssn < "a400": the rows equal
        // to either bound survive.
        assert_eq!(delete_between(&mut t, "ssn", &Value::text("a100"), &Value::text("a400")), 2);
        assert_eq!(t.column_values("ssn").unwrap(), vec![Value::text("a100"), Value::text("a400")]);
        assert_eq!(t.column_values("age").unwrap(), vec![Value::int(30), Value::int(60)]);
    }

    #[test]
    fn counted_ranges_match_the_per_round_sql_deletes() {
        let schema = Schema::new(vec![
            ColumnDef::new("ssn", ColumnRole::Identifying),
            ColumnDef::new("age", ColumnRole::QuasiNumeric),
            ColumnDef::new("doctor", ColumnRole::QuasiCategorical),
        ])
        .unwrap();
        let mut gen = StdRng::seed_from_u64(0x5eed);
        for case in 0..400 {
            // Small identifier domains force duplicates; some cases mix
            // integer, text and null identifiers in one column.
            let n = gen.gen_range(0..80usize);
            let domain = gen.gen_range(1..40i64);
            let mixed = case % 4 == 0;
            let mut t = Table::new(schema.clone());
            for row in 0..n {
                let id = gen.gen_range(0..domain);
                let ssn = match (mixed, id % 3) {
                    (true, 0) => Value::int(id),
                    (true, 1) if id % 5 == 1 => Value::Null,
                    _ => Value::text(format!("s{id:03}")),
                };
                let doctor = Value::text(["Surgeon", "Nurse", "GP"][row % 3]);
                t.insert(vec![ssn, Value::int(row as i64), doctor]).unwrap();
            }
            let fraction = match case % 5 {
                0 => 1.0,
                1 => gen.gen_range(0..20u32) as f64 / 100.0,
                _ => gen.gen_range(0..=100u32) as f64 / 100.0,
            };
            let attack = SubsetDeletion::ranges(fraction, gen.gen_range(0..1_000u64), "ssn");
            let expected = naive_ranges(&attack, &t);
            let actual = attack.apply(&t);
            assert_eq!(
                columns_of(&actual),
                columns_of(&expected),
                "case {case}: {n} rows, {fraction}"
            );
        }
    }

    #[test]
    fn describe_mentions_style_and_fraction() {
        assert!(SubsetDeletion::random(0.2, 0).describe().contains("random"));
        assert!(SubsetDeletion::ranges(0.2, 0, "ssn").describe().contains("identifier-range"));
    }
}
