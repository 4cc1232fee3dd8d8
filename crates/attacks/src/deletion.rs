//! Subset Deletion (§7.2, Fig. 12c): the attacker deletes tuples hoping to
//! remove the watermarked ones. The paper's experiment issues SQL range
//! deletes over the identifier column
//! (`DELETE FROM R WHERE SSN > lval AND SSN < uval`); a purely random
//! deletion variant is provided as well.

use crate::Attack;
use medshield_relation::{Predicate, Table};
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
                let mut ids = attacked.ids();
                ids.shuffle(&mut rng);
                let chosen: Vec<_> = ids.into_iter().take(victims).collect();
                attacked.delete_ids(&chosen);
            }
            DeletionStyle::IdentifierRanges => {
                // Sort the identifier values and delete contiguous runs until
                // the requested number of tuples is gone.
                let mut idents: Vec<_> = match attacked.column_values(&self.identifier_column) {
                    Ok(vs) => vs.into_iter().collect(),
                    Err(_) => return attacked,
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
                    let lo = idents[start].clone();
                    let hi = idents[(start + run).min(idents.len() - 1)].clone();
                    let pred = Predicate::between_exclusive(&self.identifier_column, lo, hi);
                    let deleted = attacked.delete_where(&pred).unwrap_or(0);
                    remaining = remaining.saturating_sub(deleted);
                }
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
    use medshield_datagen::{DatasetConfig, MedicalDataset};

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

    #[test]
    fn surviving_tuples_are_unmodified() {
        let t = table();
        let attacked = SubsetDeletion::random(0.5, 23).apply(&t);
        let originals: std::collections::HashMap<_, _> =
            t.iter().map(|tuple| (tuple.id, tuple.values)).collect();
        for tuple in attacked.iter() {
            let original = originals.get(&tuple.id).expect("survivor must come from the original");
            assert_eq!(original, &tuple.values);
        }
    }

    #[test]
    fn describe_mentions_style_and_fraction() {
        assert!(SubsetDeletion::random(0.2, 0).describe().contains("random"));
        assert!(SubsetDeletion::ranges(0.2, 0, "ssn").describe().contains("identifier-range"));
    }
}
