//! Collusion attack against per-recipient fingerprints: 2–N recipients of
//! the *same* release pool their copies and mix them cell-wise, hoping the
//! disagreements (which are exactly the fingerprint bits that differ between
//! them) cancel out and no single colluder's mark survives.
//!
//! The mix is a majority vote per (tuple, quasi column): each colluder
//! contributes their copy's value, the most common value wins, and ties are
//! broken by a seeded random draw among the tied values. This subsumes the
//! classic "averaging" attack for categorical data — a cell where all
//! colluders agree (a fingerprint position they share, or an unselected
//! tuple) passes through unchanged, which is precisely why traitor tracing
//! still works: the surviving agreed positions correlate with *every*
//! colluder's fingerprint and with no innocent recipient's.

use crate::Attack;
use medshield_relation::{Table, Value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The collusion attack. The table passed to [`Attack::apply`] is the
/// ring-leader's own fingerprinted copy; `accomplices` are the other
/// colluders' copies of the same release.
#[derive(Debug, Clone)]
pub struct CollusionAttack {
    /// The other colluders' copies of the same release, row-aligned with the
    /// attacked table. Copies whose row count disagrees are ignored (they
    /// cannot be cell-aligned and would only corrupt the mix).
    pub accomplices: Vec<Table>,
    /// PRNG seed for tie-breaking when no value wins an outright majority.
    pub seed: u64,
}

impl CollusionAttack {
    /// A collusion of the attacked copy plus `accomplices`.
    pub fn new(accomplices: Vec<Table>, seed: u64) -> Self {
        CollusionAttack { accomplices, seed }
    }

    /// Number of colluding recipients (the ring-leader plus accomplices).
    pub fn colluders(&self) -> usize {
        self.accomplices.len() + 1
    }
}

impl Attack for CollusionAttack {
    fn apply(&self, table: &Table) -> Table {
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut attacked = table.snapshot();
        let columns: Vec<String> =
            table.schema().quasi_names().into_iter().map(String::from).collect();
        let rows = table.len();
        for col in &columns {
            let Ok(index) = table.schema().index_of(col) else { continue };
            // The column of every aligned copy, in row order.
            let mut votes: Vec<Vec<Value>> = Vec::new();
            match table.column_values(col) {
                Ok(v) => votes.push(v),
                Err(_) => continue,
            }
            for copy in &self.accomplices {
                if let Ok(v) = copy.column_values(col) {
                    if v.len() == rows {
                        votes.push(v);
                    }
                }
            }
            if votes.len() < 2 {
                continue;
            }
            for row in 0..rows {
                // Majority vote across the colluders' cells for this
                // position; the tally preserves first-seen order so the
                // tie-break draw is deterministic under the seed.
                let mut tally: Vec<(&Value, usize)> = Vec::new();
                for copy_column in &votes {
                    let value = &copy_column[row];
                    match tally.iter_mut().find(|(candidate, _)| *candidate == value) {
                        Some((_, count)) => *count += 1,
                        None => tally.push((value, 1)),
                    }
                }
                let best = tally.iter().map(|(_, count)| *count).max().unwrap_or(0);
                let winners: Vec<&Value> = tally
                    .iter()
                    .filter(|(_, count)| *count == best)
                    .map(|(value, _)| *value)
                    .collect();
                let choice = winners[rng.gen_range(0..winners.len())];
                attacked.set_at(row, index, choice).expect("row and column exist in the snapshot");
            }
        }
        attacked
    }

    fn describe(&self) -> String {
        format!("collusion of {} recipients majority-mixing their copies", self.colluders())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::columns_of;
    use medshield_datagen::{DatasetConfig, MedicalDataset};

    fn table(seed_rows: usize) -> Table {
        MedicalDataset::generate(&DatasetConfig::small(seed_rows)).table
    }

    /// A copy of `t` with the doctor column rotated by `shift` rows — a stand-in
    /// for a differently-fingerprinted copy of the same release.
    fn variant(t: &Table, shift: usize) -> Table {
        let mut v = t.snapshot();
        let doctor = t.schema().index_of("doctor").expect("doctor column exists");
        let doctors = t.column_values("doctor").expect("doctor column exists");
        for row in 0..doctors.len() {
            let replacement = &doctors[(row + shift) % doctors.len()];
            v.set_at(row, doctor, replacement).expect("row exists");
        }
        v
    }

    #[test]
    fn colluding_with_identical_copies_changes_nothing() {
        let t = table(200);
        let attacked = CollusionAttack::new(vec![t.snapshot(), t.snapshot()], 7).apply(&t);
        assert_eq!(columns_of(&t), columns_of(&attacked));
    }

    #[test]
    fn majority_wins_each_cell() {
        let t = table(200);
        let outlier = variant(&t, 1);
        // Two copies agree with `t`, one disagrees: the majority value (the
        // original) must win every cell.
        let attacked = CollusionAttack::new(vec![t.snapshot(), outlier], 7).apply(&t);
        assert_eq!(columns_of(&t), columns_of(&attacked));
    }

    #[test]
    fn every_mixed_cell_comes_from_a_colluder() {
        let t = table(200);
        let other = variant(&t, 1);
        let attacked = CollusionAttack::new(vec![other.snapshot()], 3).apply(&t);
        let doctor_idx = t.schema().index_of("doctor").expect("doctor column exists");
        for row in 0..t.len() {
            let mixed = attacked.value_at(row, doctor_idx);
            assert!(
                mixed == t.value_at(row, doctor_idx) || mixed == other.value_at(row, doctor_idx),
                "mixed cell {mixed:?} not drawn from the colluders"
            );
        }
    }

    #[test]
    fn identifying_column_is_never_touched() {
        let t = table(150);
        let attacked = CollusionAttack::new(vec![variant(&t, 2)], 9).apply(&t);
        assert_eq!(
            t.column_values("ssn").unwrap(),
            attacked.column_values("ssn").unwrap(),
            "ssn must not be mixed"
        );
    }

    #[test]
    fn misaligned_accomplices_are_ignored() {
        let t = table(120);
        let short = table(60);
        let attacked = CollusionAttack::new(vec![short], 5).apply(&t);
        assert_eq!(columns_of(&t), columns_of(&attacked));
    }

    #[test]
    fn same_seed_is_deterministic_and_description_counts_colluders() {
        let t = table(120);
        let attack = CollusionAttack::new(vec![variant(&t, 1), variant(&t, 2)], 11);
        assert_eq!(attack.colluders(), 3);
        assert!(attack.describe().contains("3 recipients"));
        let a1 = attack.apply(&t);
        let a2 = attack.apply(&t);
        assert_eq!(columns_of(&a1), columns_of(&a2));
    }
}
