//! Subset Alteration (§7.2, Fig. 12a): the attacker chooses a random subset
//! of the tuples and modifies their quasi-identifying values arbitrarily,
//! without touching the rest of the data.

use crate::Attack;
use medshield_relation::{Table, Value};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;

/// The Subset Alteration attack.
#[derive(Debug, Clone, PartialEq)]
pub struct SubsetAlteration {
    /// Fraction of the tuples to alter, in `[0, 1]`.
    pub fraction: f64,
    /// PRNG seed (the attack itself is randomized; the seed makes experiments
    /// reproducible).
    pub seed: u64,
    /// Columns to alter; `None` means every quasi-identifying column.
    pub columns: Option<Vec<String>>,
}

impl SubsetAlteration {
    /// Alter `fraction` of the tuples across all quasi-identifying columns.
    pub fn new(fraction: f64, seed: u64) -> Self {
        SubsetAlteration { fraction: fraction.clamp(0.0, 1.0), seed, columns: None }
    }
}

impl Attack for SubsetAlteration {
    fn apply(&self, table: &Table) -> Table {
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut attacked = table.snapshot();
        let columns: Vec<String> = match &self.columns {
            Some(c) => c.clone(),
            None => table.schema().quasi_names().into_iter().map(String::from).collect(),
        };
        // Pool of replacement values per column: whatever already occurs in
        // the column (the attacker wants the data to stay plausible). A
        // column the schema lacks has no pool and is left alone.
        let pools: Vec<(usize, Vec<Value>)> = columns
            .iter()
            .filter_map(|c| {
                let index = table.schema().index_of(c).ok()?;
                let distinct: BTreeSet<Value> = table.column_values(c).ok()?.into_iter().collect();
                Some((index, distinct.into_iter().collect()))
            })
            .collect();

        let mut rows: Vec<usize> = (0..table.len()).collect();
        rows.shuffle(&mut rng);
        let victims = ((rows.len() as f64) * self.fraction).round() as usize;
        for row in rows.into_iter().take(victims) {
            for (index, pool) in &pools {
                if pool.is_empty() {
                    continue;
                }
                let replacement = &pool[rng.gen_range(0..pool.len())];
                attacked
                    .set_at(row, *index, replacement)
                    .expect("row and column exist in the snapshot");
            }
        }
        attacked
    }

    fn describe(&self) -> String {
        format!("subset alteration of {:.0}% of the tuples", self.fraction * 100.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::columns_of;
    use medshield_datagen::{DatasetConfig, MedicalDataset};

    fn table() -> Table {
        MedicalDataset::generate(&DatasetConfig::small(400)).table
    }

    #[test]
    fn zero_fraction_changes_nothing() {
        let t = table();
        let attacked = SubsetAlteration::new(0.0, 1).apply(&t);
        assert_eq!(columns_of(&t), columns_of(&attacked));
    }

    #[test]
    fn alteration_touches_roughly_the_requested_fraction() {
        let t = table();
        let attacked = SubsetAlteration::new(0.5, 7).apply(&t);
        assert_eq!(attacked.len(), t.len());
        let arity = t.schema().arity();
        let changed = (0..t.len())
            .filter(|&row| (0..arity).any(|c| t.value_at(row, c) != attacked.value_at(row, c)))
            .count();
        // Some victims may be re-assigned their original values by chance, so
        // the changed count is at most the victim count and close to it.
        assert!(changed > t.len() / 3, "changed {changed}");
        assert!(changed <= t.len() / 2 + 1);
    }

    #[test]
    fn identifying_column_is_never_touched() {
        let t = table();
        let attacked = SubsetAlteration::new(1.0, 3).apply(&t);
        assert_eq!(
            t.column_values("ssn").unwrap(),
            attacked.column_values("ssn").unwrap(),
            "ssn must not be altered"
        );
    }

    #[test]
    fn restricting_columns_limits_the_damage() {
        let t = table();
        let mut attack = SubsetAlteration::new(1.0, 3);
        attack.columns = Some(vec!["doctor".to_string()]);
        let attacked = attack.apply(&t);
        let doctor_idx = t.schema().index_of("doctor").unwrap();
        for (i, (a, b)) in columns_of(&t).iter().zip(columns_of(&attacked)).enumerate() {
            if i != doctor_idx {
                assert_eq!(a, &b);
            }
        }
    }

    #[test]
    fn fraction_is_clamped_and_description_is_readable() {
        let a = SubsetAlteration::new(7.0, 1);
        assert_eq!(a.fraction, 1.0);
        assert!(a.describe().contains("100%"));
    }

    #[test]
    fn same_seed_is_deterministic() {
        let t = table();
        let a1 = SubsetAlteration::new(0.3, 99).apply(&t);
        let a2 = SubsetAlteration::new(0.3, 99).apply(&t);
        assert_eq!(columns_of(&a1), columns_of(&a2));
    }
}
