//! # medshield-metrics
//!
//! Usage metrics and measurement utilities for the MedShield framework
//! (Bertino et al., ICDE 2005).
//!
//! The paper constrains both binning and watermarking by *usage metrics*: a
//! set of maximal allowable information-loss bounds beyond which the data are
//! assumed useless for their intended purpose (§4.1). This crate implements:
//!
//! * [`info_loss`] — per-column information loss for categorical (Eq. 1) and
//!   numeric (Eq. 2) attributes, the normalized table-level loss (Eq. 3), and
//!   specificity loss (§4.2.2).
//! * [`usage`] — the bound form of the metrics (Eq. 4) and checking.
//! * [`anonymity`] — k-anonymity verification over quasi-identifier
//!   combinations and per single attribute.
//! * [`bin_stats`] — the Fig. 14 statistics: per attribute, total bins, bins
//!   whose size changed after watermarking, bins that fell below k.
//! * [`mark`] — mark-loss (fraction of mark bits destroyed), the y-axis of
//!   Fig. 12.
//!
//! ```
//! use medshield_metrics::mark_loss;
//!
//! let embedded = [true, false, true, false];
//! let recovered = [true, false, false, false];
//! assert_eq!(mark_loss(&embedded, &recovered), 0.25);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod anonymity;
pub mod bin_stats;
pub mod info_loss;
pub mod mark;
pub mod usage;

pub use anonymity::{column_satisfies_k, satisfies_k_anonymity, violating_bins};
pub use bin_stats::{column_bin_report, BinReport};
pub use info_loss::{column_info_loss, table_info_loss, ColumnGeneralization};
pub use mark::mark_loss;
pub use usage::{UsageBounds, UsageCheck};
