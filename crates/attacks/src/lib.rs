//! # medshield-attacks
//!
//! Attack models against the protected (binned + watermarked) table, used by
//! the robustness experiments of the paper (§7.2) and by the security
//! analyses of §5.2 and §5.4. All attackers are assumed **not** to know the
//! secret watermarking key; they manipulate the data hoping to destroy the
//! embedded mark while keeping the data useful.
//!
//! * [`alteration`] — *Subset Alteration* (Fig. 12a): pick a random fraction
//!   of the tuples and arbitrarily modify their quasi-identifying values.
//! * [`addition`] — *Subset Addition* (Fig. 12b): append new bogus tuples,
//!   misleading the keyed selection into reading unwatermarked rows.
//! * [`deletion`] — *Subset Deletion* (Fig. 12c): delete tuples, either at
//!   random or through SQL-style range deletes over the identifier, exactly
//!   as the paper's `DELETE FROM R WHERE SSN > lval AND SSN < uval`.
//! * [`generalization`] — the *generalization attack* of §5.2, specific to
//!   binned data: re-generalize every value one or more levels up the domain
//!   hierarchy tree. It defeats single-level watermarking but not the
//!   hierarchical scheme.
//! * [`collusion`] — recipients of the same release majority-mix their
//!   per-recipient fingerprinted copies cell-wise, trying to erase every
//!   individual fingerprint; traitor tracing must still name a colluder.
//! * [`mixed`] — compositions of the above for stress testing.
//!
//! ```
//! use medshield_attacks::{Attack, SubsetDeletion};
//! use medshield_datagen::{DatasetConfig, MedicalDataset};
//!
//! let table = MedicalDataset::generate(&DatasetConfig::small(100)).table;
//! let attacked = SubsetDeletion::random(0.2, 7).apply(&table);
//! assert_eq!(attacked.len(), 80);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod addition;
pub mod alteration;
pub mod collusion;
pub mod deletion;
pub mod generalization;
pub mod mixed;

pub use addition::SubsetAddition;
pub use alteration::SubsetAlteration;
pub use collusion::CollusionAttack;
pub use deletion::SubsetDeletion;
pub use generalization::GeneralizationAttack;
pub use mixed::MixedAttack;

use medshield_relation::Table;

/// Common interface of all attack models: consume a protected table and
/// return the attacked version. Attacks never see the watermarking key.
pub trait Attack {
    /// Apply the attack to `table`, returning the attacked table.
    fn apply(&self, table: &Table) -> Table;

    /// A short human-readable description for reports.
    fn describe(&self) -> String;
}

/// Every column of `table`, materialized in schema order: two tables hold the
/// same rows exactly when their columns compare equal.
#[cfg(test)]
pub(crate) fn columns_of(table: &Table) -> Vec<Vec<medshield_relation::Value>> {
    table.schema().columns().iter().map(|c| table.column_values(&c.name).unwrap()).collect()
}
