//! A table parsed from CSV must behave exactly like the same values inserted
//! row by row: `csv::from_csv` builds its columns directly (and leaves each
//! dictionary's value index to be built on the first intern), so the
//! protect, embed and detect paths are run on both and must give
//! structurally equal tables and equal reports.

use medshield_core::relation::{csv, ColumnRole, Schema, Table, Value};
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
    ProtectionEngine::new(config, 1).unwrap()
}

/// Schema, row count and per-column storage (dictionary order and codes).
type Layout = (Schema, usize, Vec<(Vec<Value>, Vec<u32>)>);

/// The [`Layout`] of `t`.
fn layout(t: &Table) -> Layout {
    let columns = t.columns().iter().map(|c| (c.dict().to_vec(), c.codes().to_vec())).collect();
    (t.schema().clone(), t.len(), columns)
}

/// `t` through its CSV text.
fn parsed(t: &Table) -> Table {
    let roles: Vec<(&str, ColumnRole)> =
        t.schema().columns().iter().map(|c| (c.name.as_str(), c.role)).collect();
    csv::from_csv(&csv::to_csv(t), &roles).unwrap()
}

/// `t`'s rows inserted one by one into an empty table.
fn rebuilt(t: &Table) -> Table {
    let mut out = Table::new(t.schema().clone());
    for row in 0..t.len() {
        let values = (0..t.schema().arity()).map(|c| t.value_at(row, c).unwrap().clone()).collect();
        out.insert(values).unwrap();
    }
    out
}

#[test]
fn parsed_and_inserted_tables_protect_embed_and_detect_alike() {
    let engine = engine();
    let ds =
        MedicalDataset::generate(&DatasetConfig { num_tuples: 1_000, seed: 7, zipf_exponent: 0.8 });
    // The text and the rows carry the same values: CSV types a text cell
    // such as the symptom code `401` as an integer, so both sides start
    // from the parse.
    let table = parsed(&ds.table);
    assert_eq!(layout(&table), layout(&rebuilt(&table)));

    let from_text = engine.protect_per_attribute(&table, &ds.trees).unwrap();
    let from_rows = engine.protect_per_attribute(&rebuilt(&table), &ds.trees).unwrap();
    assert_eq!(layout(&from_text.table), layout(&from_rows.table));
    assert_eq!(layout(&from_text.binning.table), layout(&from_rows.binning.table));
    assert_eq!(from_text.binning.columns, from_rows.binning.columns);
    assert_eq!(from_text.binning.satisfied, from_rows.binning.satisfied);
    assert_eq!(from_text.embedding, from_rows.embedding);
    assert_eq!(from_text.mark, from_rows.mark);

    // Embedding interns replacement values into the binned table's
    // dictionaries; a parsed binned table must take the same edits.
    let release = from_rows;
    let columns = &release.binning.columns;
    let binned = parsed(&release.binning.table);
    let (marked_text, report_text) =
        engine.embed(&binned, columns, &ds.trees, &release.mark).unwrap();
    let (marked_rows, report_rows) =
        engine.embed(&rebuilt(&binned), columns, &ds.trees, &release.mark).unwrap();
    assert_eq!(layout(&marked_text), layout(&marked_rows));
    assert_eq!(report_text, report_rows);
    assert_eq!(csv::to_csv(&marked_text), csv::to_csv(&release.table));

    let suspect = parsed(&release.table);
    let detected_text = engine.detect(&suspect, columns, &ds.trees).unwrap();
    let detected_rows = engine.detect(&rebuilt(&suspect), columns, &ds.trees).unwrap();
    assert_eq!(detected_text, detected_rows);
    assert_eq!(detected_text.as_mark(), release.mark);
}
