//! # medshield-datagen
//!
//! Synthetic medical data sets and domain ontologies for the MedShield
//! framework.
//!
//! The paper evaluates on a proprietary real-world data set of roughly 20,000
//! tuples with schema `R(ssn, age, zip_code, doctor, symptom, prescription)`,
//! where the `symptom` hierarchy follows ICD-9 and the other attributes use
//! self-defined ontologies (§7). That data set is not available, so this crate
//! provides the substitution documented in the "Substitutions" section of
//! `docs/ARCHITECTURE.md`:
//!
//! * [`ontology`] — domain hierarchy trees with the same *shapes* the paper
//!   describes: an ICD-9-like multi-level code tree for `symptom`, fan-out
//!   trees for `doctor` and `prescription`, a narrow-interval binary tree for
//!   `age` (Fig. 3 "of narrower intervals"), and an interval tree for
//!   `zip_code`.
//! * [`generator`] — a deterministic, seedable generator producing any number
//!   of tuples with skewed (Zipf-like) categorical frequencies and a plausible
//!   age distribution, so that bin sizes are uneven the way real clinical data
//!   are.
//!
//! All algorithms in the paper depend only on tree topology and on the
//! multiplicity of values per leaf, so this substitution preserves the
//! behaviour that the experiments measure.
//!
//! ```
//! use medshield_datagen::{DatasetConfig, MedicalDataset};
//!
//! let ds = MedicalDataset::generate(&DatasetConfig::small(100));
//! assert_eq!(ds.table.len(), 100);
//! // Every quasi-identifying column comes with its domain hierarchy tree.
//! assert_eq!(ds.quasi_columns().len(), 5);
//! assert!(ds.quasi_columns().iter().all(|c| ds.tree(c).is_some()));
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod generator;
pub mod ontology;

pub use generator::{DatasetConfig, MedicalDataset};
