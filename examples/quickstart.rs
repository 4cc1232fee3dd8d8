//! Quickstart: protect a synthetic medical table, verify the privacy and
//! ownership guarantees, and print a short report.
//!
//! ```bash
//! cargo run --release -p medshield-core --example quickstart
//! ```

use medshield_core::metrics::{satisfies_k_anonymity, ColumnGeneralization};
use medshield_core::{ProtectionConfig, ProtectionEngine};
use medshield_datagen::{DatasetConfig, MedicalDataset};

fn main() {
    // 1. A synthetic hospital data set (stand-in for the paper's 20,000-tuple
    //    clinical table). 2,000 tuples keep the example fast.
    let dataset = MedicalDataset::generate(&DatasetConfig::small(2_000));
    println!(
        "generated {} tuples with schema R(ssn, age, zip_code, doctor, symptom, prescription)",
        dataset.table.len()
    );

    // 2. Configure the framework: 10-anonymity, watermark 1 tuple in 10,
    //    20-bit mark derived from the owner's name.
    let config = ProtectionConfig::builder()
        .k(10)
        .eta(10)
        .duplication(4)
        .mark_len(20)
        .mark_text("City Hospital Research Release")
        .build();
    let pipeline = ProtectionEngine::sequential(config);

    // 3. Protect: binning (privacy) followed by hierarchical watermarking
    //    (ownership).
    let release =
        pipeline.protect(&dataset.table, &dataset.trees).expect("the synthetic data are binnable");

    // 4. Privacy check: every quasi-identifier combination of the released
    //    (watermarked) table is shared by at least k records.
    let quasi = release.table.schema().quasi_names();
    let k_ok = satisfies_k_anonymity(&release.table, &quasi, 10).unwrap();
    println!(
        "k-anonymity (k=10) on the released table: {}",
        if k_ok { "satisfied" } else { "NOT satisfied" }
    );

    // 5. Information loss of the release (Eq. 3).
    let cgs: Vec<ColumnGeneralization<'_>> = release
        .binning
        .columns
        .iter()
        .map(|cb| ColumnGeneralization {
            column: &cb.column,
            tree: &dataset.trees[&cb.column],
            generalization: &cb.ultimate,
        })
        .collect();
    let loss = medshield_core::metrics::table_info_loss(&dataset.table, &cgs).unwrap();
    println!("normalized information loss of binning: {:.1}%", loss * 100.0);

    // 6. Ownership check: the mark is recoverable from the released table.
    let detection =
        pipeline.detect(&release.table, &release.binning.columns, &dataset.trees).unwrap();
    println!(
        "embedded mark : {}\nrecovered mark: {}",
        release.mark,
        medshield_core::watermark::Mark::from_bits(detection.mark.clone())
    );
    println!(
        "watermarked {} of {} tuples ({} cells changed)",
        release.embedding.selected_tuples,
        dataset.table.len(),
        release.embedding.changed_cells
    );
    assert_eq!(detection.mark, release.mark.bits(), "clean detection must be exact");
    println!("ownership mark verified — the release is ready for outsourcing");
}
