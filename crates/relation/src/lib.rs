//! # medshield-relation
//!
//! A small, dependency-free, in-memory relational substrate used by the
//! MedShield framework (Bertino et al., ICDE 2005).
//!
//! The paper operates on a single relational table of medical records,
//! `R(ssn, age, zip_code, doctor, symptom, prescription)`, whose columns are
//! classified into *identifying*, *quasi-identifying* (categorical or
//! numeric), and *non-identifying* columns (§2). The binning agent rewrites
//! quasi-identifying values, the watermarking agent permutes a keyed subset of
//! them, and the attack models insert, alter and delete tuples (the paper's
//! SQL range delete of §7.2 becomes one [`Table::retain_rows`] mask).
//!
//! This crate provides exactly that substrate:
//!
//! * [`Value`] — a typed cell value (integer, text, half-open interval, null).
//! * [`ColumnRole`] / [`ColumnDef`] / [`Schema`] — schema with privacy roles.
//! * [`Table`] — a columnar store: append, per-cell access by row position
//!   and schema index, per-column access, and mask-based row removal.
//! * [`Column`] — the dictionary-encoded column behind the table: every
//!   distinct value interned once plus one dense code per row; the batch
//!   kernels of the binning and watermarking crates read these directly.
//! * [`stats`] — per-column value counts and bin sizes over
//!   quasi-identifier combinations, used by the metrics crate.
//! * [`csv`] — plain-text import/export for inspection of generated data.
//!
//! ```
//! use medshield_relation::{ColumnDef, ColumnRole, Schema, Table, Value};
//!
//! let schema = Schema::new(vec![
//!     ColumnDef::new("ssn", ColumnRole::Identifying),
//!     ColumnDef::new("age", ColumnRole::QuasiNumeric),
//! ])
//! .unwrap();
//! let mut table = Table::new(schema);
//! table.insert(vec![Value::text("123-45-6789"), Value::int(42)]).unwrap();
//! assert_eq!(table.len(), 1);
//! assert_eq!(table.column_values("age").unwrap(), vec![Value::int(42)]);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod column;
pub mod csv;
pub mod error;
pub mod schema;
pub mod stats;
pub mod table;
pub mod value;

pub use column::Column;
pub use error::RelationError;
pub use schema::{ColumnDef, ColumnRole, Schema};
pub use table::Table;
pub use value::Value;
