//! Derived tables share the column dictionaries they do not rewrite. A
//! release is the binned table with watermarked quasi columns, and a
//! recipient copy is a release re-marked the same way; neither touches the
//! encrypted identifiers, so each must hold them in the very dictionary it
//! was derived from, not in a copy. Comparing dictionary addresses makes
//! this a deterministic memory gate: a deep copy anywhere on the path fails
//! it, however fast the copy is.

use medshield_core::relation::{csv, ColumnRole, Table, Value};
use medshield_core::watermark::Mark;
use medshield_core::{ProtectionConfig, ProtectionEngine};
use medshield_datagen::{DatasetConfig, MedicalDataset};

/// The served benchmark's engine configuration.
fn engine() -> ProtectionEngine {
    let config = ProtectionConfig::builder()
        .k(5)
        .epsilon(5)
        .eta(10)
        .duplication(4)
        .mark_text("perfbench-owner")
        .build();
    ProtectionEngine::new(config, 2).unwrap()
}

fn dataset() -> MedicalDataset {
    MedicalDataset::generate(&DatasetConfig { num_tuples: 1_000, seed: 7, zipf_exponent: 0.8 })
}

/// Where `t`'s identifying column keeps its dictionary.
fn identifier_dictionary(t: &Table) -> *const Value {
    let [index] = t.schema().identifying_indices()[..] else {
        panic!("the experiment schema has one identifying column");
    };
    t.column(index).unwrap().dict().as_ptr()
}

#[test]
fn a_release_shares_the_binned_tables_identifier_dictionary() {
    let engine = engine();
    let ds = dataset();
    let per_attribute = engine.protect_per_attribute(&ds.table, &ds.trees).unwrap();
    assert_eq!(
        identifier_dictionary(&per_attribute.table),
        identifier_dictionary(&per_attribute.binning.table)
    );
    let multi = engine.protect(&ds.table, &ds.trees).unwrap();
    assert_eq!(identifier_dictionary(&multi.table), identifier_dictionary(&multi.binning.table));
}

#[test]
fn a_recipient_copy_of_a_parsed_release_shares_its_identifier_dictionary() {
    let engine = engine();
    let ds = dataset();
    let release = engine.protect_per_attribute(&ds.table, &ds.trees).unwrap();
    let roles: Vec<(&str, ColumnRole)> =
        release.table.schema().columns().iter().map(|c| (c.name.as_str(), c.role)).collect();
    let body = csv::from_csv(&csv::to_csv(&release.table), &roles).unwrap();
    let fingerprint = Mark::from_bytes(b"clinic-a", release.mark.len());
    let (copy, _) = engine.embed(&body, &release.binning.columns, &ds.trees, &fingerprint).unwrap();
    assert_eq!(identifier_dictionary(&copy), identifier_dictionary(&body));
    // The copy is a different table all the same: the parsed body still
    // reads as the release.
    assert_eq!(csv::to_csv(&body), csv::to_csv(&release.table));
    assert_ne!(csv::to_csv(&copy), csv::to_csv(&body));
}
