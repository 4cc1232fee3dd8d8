//! Subset Addition (§7.2, Fig. 12b): the attacker appends new bogus tuples to
//! the watermarked table. No existing bit is erased, but the keyed selection
//! (Eq. 5) will falsely treat some of the new tuples as watermarked,
//! injecting noise into the majority voting.

use crate::Attack;
use medshield_relation::{Table, Value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The Subset Addition attack.
#[derive(Debug, Clone, PartialEq)]
pub struct SubsetAddition {
    /// Number of new tuples, as a fraction of the current table size.
    pub fraction: f64,
    /// PRNG seed for reproducible experiments.
    pub seed: u64,
}

impl SubsetAddition {
    /// Add `fraction · len` bogus tuples.
    pub fn new(fraction: f64, seed: u64) -> Self {
        SubsetAddition { fraction: fraction.max(0.0), seed }
    }
}

impl Attack for SubsetAddition {
    fn apply(&self, table: &Table) -> Table {
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut attacked = table.snapshot();
        if table.is_empty() {
            return attacked;
        }
        let to_add = ((table.len() as f64) * self.fraction).round() as usize;

        // Pools of existing values per column keep the bogus tuples plausible
        // (they must look like real binned records or they would be trivial
        // to filter out).
        let arity = table.schema().arity();
        let mut pools: Vec<Vec<Value>> = Vec::with_capacity(arity);
        for col in table.schema().columns() {
            let mut distinct: Vec<Value> = table
                .column_values(&col.name)
                .map(|vs| vs.into_iter().collect::<std::collections::BTreeSet<_>>())
                .unwrap_or_default()
                .into_iter()
                .collect();
            distinct.sort();
            pools.push(distinct);
        }
        let ident_indices: std::collections::HashSet<usize> =
            table.schema().identifying_indices().into_iter().collect();

        for n in 0..to_add {
            let mut values = Vec::with_capacity(arity);
            for (i, pool) in pools.iter().enumerate() {
                if ident_indices.contains(&i) {
                    // Fresh bogus identifiers: hex-looking strings that do not
                    // collide with existing ones.
                    values.push(Value::text(format!("bogus-{:08x}-{n}", rng.gen::<u32>())));
                } else if pool.is_empty() {
                    values.push(Value::Null);
                } else {
                    values.push(pool[rng.gen_range(0..pool.len())].clone());
                }
            }
            attacked.insert(values).expect("bogus tuple matches the schema arity");
        }
        attacked
    }

    fn describe(&self) -> String {
        format!("subset addition of {:.0}% bogus tuples", self.fraction * 100.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::columns_of;
    use medshield_datagen::{DatasetConfig, MedicalDataset};

    fn table() -> Table {
        MedicalDataset::generate(&DatasetConfig::small(300)).table
    }

    #[test]
    fn adds_the_requested_number_of_tuples() {
        let t = table();
        let attacked = SubsetAddition::new(0.4, 5).apply(&t);
        assert_eq!(attacked.len(), t.len() + (t.len() as f64 * 0.4).round() as usize);
        // Existing tuples are untouched.
        for (a, b) in columns_of(&t).iter().zip(columns_of(&attacked)) {
            assert_eq!(a[..], b[..t.len()]);
        }
    }

    #[test]
    fn zero_fraction_adds_nothing() {
        let t = table();
        assert_eq!(SubsetAddition::new(0.0, 1).apply(&t).len(), t.len());
    }

    #[test]
    fn bogus_identifiers_do_not_collide_with_real_ones() {
        let t = table();
        let attacked = SubsetAddition::new(0.5, 9).apply(&t);
        let originals: std::collections::HashSet<_> =
            t.column_values("ssn").unwrap().into_iter().collect();
        let added = attacked.column_values("ssn").unwrap().split_off(t.len());
        assert!(!added.is_empty());
        for ssn in added {
            assert!(!originals.contains(&ssn));
        }
    }

    #[test]
    fn bogus_quasi_values_come_from_the_existing_domain() {
        let t = table();
        let attacked = SubsetAddition::new(0.3, 2).apply(&t);
        let pool: std::collections::HashSet<_> =
            t.column_values("doctor").unwrap().into_iter().collect();
        for doctor in attacked.column_values("doctor").unwrap().split_off(t.len()) {
            assert!(pool.contains(&doctor));
        }
    }

    #[test]
    fn empty_table_stays_empty() {
        let t = Table::new(medshield_relation::Schema::medical_example());
        assert!(SubsetAddition::new(1.0, 1).apply(&t).is_empty());
    }

    #[test]
    fn describe_mentions_the_fraction() {
        assert!(SubsetAddition::new(0.25, 0).describe().contains("25%"));
    }
}
