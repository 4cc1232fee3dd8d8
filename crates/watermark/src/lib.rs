//! # medshield-watermark
//!
//! The watermarking agent of the MedShield framework (Bertino et al.,
//! ICDE 2005, §5). After binning, the quasi-identifying columns are
//! essentially categorical, and the gap between the *maximal* generalization
//! nodes (allowed by the usage metrics) and the *ultimate* generalization
//! nodes (actually applied by binning) forms the bandwidth channel: permuting
//! a value among the ultimate nodes that share the same maximal node is just
//! another allowable generalization, so a keyed permutation can carry mark
//! bits without breaking data usability.
//!
//! Modules:
//!
//! * [`key`] — the secret watermarking key `(k1, k2, η)` and the [`Mark`]
//!   bit-string type.
//! * [`fingerprint`] — per-recipient fingerprint marks derived from the owner
//!   key via the labeled PRF (recipient id as derivation label, no stored key
//!   material) and the traitor-tracing scorer that ranks a release's
//!   recipients against the bits recovered from a leaked table.
//! * [`select`] — keyed tuple selection, Eq. (5): `H(ti.ident, k1) mod η = 0`,
//!   where the identity is the tuple's identifying columns.
//! * [`hierarchical`] — the hierarchical embedding/detection algorithm of
//!   Fig. 9, which watermarks *every* level between the maximal and ultimate
//!   generalization nodes and is therefore resilient to the generalization
//!   attack.
//! * [`single_level`] — the single-level scheme of §5.2, kept as the baseline
//!   that the generalization attack defeats.
//! * [`plan`] — precomputed per-run state ([`plan::EmbedPlan`] /
//!   [`plan::DetectPlan`]) shared by workers processing disjoint row chunks;
//!   the foundation of the chunk-parallel protection engine.
//! * [`kernel`] — the columnar batch kernels behind both schemes: per-run
//!   identity codecs, per-dictionary-code memoization of the tree walks, and
//!   one wide midstate-cached PRF per (tuple, column) reduced per level.
//!   Workers scan disjoint row ranges of a shared `&Table`; embedding emits
//!   edit lists applied on the caller's thread.
//! * [`voting`] — the majority voting used in detection, with exact integer
//!   vote counts.
//! * [`ownership`] — the rightful-ownership protocol of §5.4: the mark is
//!   `F(v)` for a statistic `v` of the clear-text identifying column, so the
//!   owner never has to present the entire original table in court.
//!
//! The ownership resolver derives the owner's mark from the original data
//! alone, so the court can recompute it at dispute time:
//!
//! ```
//! use medshield_datagen::{DatasetConfig, MedicalDataset};
//! use medshield_watermark::ownership::OwnershipProof;
//!
//! let ds = MedicalDataset::generate(&DatasetConfig::small(100));
//! let proof = OwnershipProof::from_original_table(&ds.table, 16).unwrap();
//! assert_eq!(proof.mark().len(), 16);
//! // Deterministic: the same table always yields the same mark.
//! assert_eq!(proof.mark().bits(), OwnershipProof::from_original_table(&ds.table, 16).unwrap().mark().bits());
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod error;
pub mod fingerprint;
pub mod hierarchical;
pub mod kernel;
pub mod key;
pub mod ownership;
pub mod plan;
pub mod select;
pub mod single_level;
pub mod voting;

pub use error::WatermarkError;
pub use fingerprint::{derive_recipient_mark, score_recipients, RecipientScore};
pub use hierarchical::{DetectionReport, DetectionTally, EmbeddingReport, HierarchicalWatermarker};
pub use kernel::{DetectKernel, EmbedChunk, EmbedKernel};
pub use key::{Mark, WatermarkConfig, WatermarkKey};
pub use ownership::{OwnershipProof, OwnershipVerdict};
pub use plan::{DetectPlan, EmbedPlan};
pub use single_level::SingleLevelWatermarker;
pub use voting::VotingError;
