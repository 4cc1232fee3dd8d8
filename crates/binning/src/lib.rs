//! # medshield-binning
//!
//! The binning agent of the MedShield framework (Bertino et al., ICDE 2005,
//! §4). Binning transforms the quasi-identifying columns of a medical table so
//! that every combination of quasi-identifier values is shared by at least
//! *k* records, while the identifying columns are replaced by their encrypted
//! values to keep records traceable to the data holder.
//!
//! The pipeline has four stages, each in its own module:
//!
//! 1. [`maximal`] — **off-line enforcement of usage metrics**: translate the
//!    information-loss bounds (Eq. 4) into a set of *maximal generalization
//!    nodes* per domain hierarchy tree, the highest nodes any value may be
//!    generalized to without exceeding the allowed loss. The paper's own
//!    experiments skip this translation and state the maximal nodes directly;
//!    `GeneralizationSet::at_depth` states them as a depth cap.
//! 2. [`mono`] — **mono-attribute binning** (`GenMinNd`, Fig. 5): bin each
//!    attribute individually, *downward* from the maximal generalization
//!    nodes, stopping at the lowest nodes that still satisfy k-anonymity —
//!    the *minimal generalization nodes*.
//! 3. [`multi`] — **multi-attribute binning** (`GenUltiNd`, Fig. 7): because
//!    per-attribute k-anonymity does not imply k-anonymity of the
//!    combination, search the allowable generalizations between the minimal
//!    and maximal nodes of every column for the combination with the least
//!    specificity loss that satisfies k-anonymity — the *ultimate
//!    generalization nodes*. The search runs against a precomputed
//!    `SearchPlan` (crate-internal, see `plan.rs`) and shards its candidate
//!    space over [`BinningConfig::threads`] scoped worker threads with a
//!    deterministic merge, so every thread count produces an identical
//!    outcome.
//! 4. [`binner`] — **Binning** (Fig. 8): encrypt the identifying columns with
//!    `E()` (AES-128) and replace every quasi-identifying value by the value
//!    of its covering ultimate generalization node.
//!
//! The outcome type [`BinningOutcome`] carries the binned table together with
//! the three node sets per column, which is exactly the state the
//! watermarking agent needs (it permutes values between the maximal and
//! ultimate generalization nodes).
//!
//! ```
//! use medshield_binning::{BinningAgent, BinningConfig};
//! use medshield_datagen::{DatasetConfig, MedicalDataset};
//! use std::collections::BTreeMap;
//!
//! let ds = MedicalDataset::generate(&DatasetConfig::small(200));
//! let agent = BinningAgent::new(BinningConfig::with_k(5));
//! // An empty maximal-node map means the usage metrics allow the full trees.
//! let outcome = agent.bin(&ds.table, &ds.trees, &BTreeMap::new()).unwrap();
//! assert!(outcome.satisfied);
//! assert_eq!(outcome.table.len(), 200);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod binner;
pub mod config;
pub mod error;
pub mod maximal;
pub mod mono;
pub mod multi;
pub(crate) mod plan;

pub use binner::{BinningAgent, BinningOutcome, ColumnBinning};
pub use config::{BinningConfig, KAnonymitySpec, MinimalNodeStrategy, SelectionStrategy};
pub use error::BinningError;
pub use multi::SearchMode;
