//! A fuller outsourcing scenario: a hospital releases clinical records to a
//! research institute under explicit usage metrics, exports the release as
//! CSV, and later verifies that a leaked copy carries its mark.
//!
//! ```bash
//! cargo run --release -p medshield-core --example hospital_outsourcing
//! ```

use medshield_core::dht::GeneralizationSet;
use medshield_core::metrics::UsageBounds;
use medshield_core::relation::csv;
use medshield_core::{ProtectionConfig, ProtectionEngine};
use medshield_datagen::{DatasetConfig, MedicalDataset};
use std::collections::BTreeMap;

fn main() {
    // The hospital's data set.
    let dataset = MedicalDataset::generate(&DatasetConfig {
        num_tuples: 5_000,
        seed: 20_050_405, // ICDE 2005, Tokyo
        zipf_exponent: 0.8,
    });

    // Usage metrics agreed with the research institute. Following §5.1 of the
    // paper, the hospital states the maximal generalization nodes slightly
    // *looser* than what k-anonymity strictly requires (here: the tree roots),
    // so that a gap remains between the maximal and the ultimate
    // generalization nodes — that gap is the watermark's bandwidth channel.
    let maximal: BTreeMap<String, GeneralizationSet> = dataset
        .trees
        .iter()
        .map(|(name, tree)| (name.clone(), GeneralizationSet::at_depth(tree, 0)))
        .collect();

    let config = ProtectionConfig::builder()
        .k(25)
        .epsilon(2) // absorb watermarking perturbations (§6)
        .eta(20)
        .duplication(4)
        .mark_len(20)
        .mark_from_statistic(true) // rightful-ownership construction (§5.4)
        .encryption_secret(b"hospital-identifier-key-2005".to_vec())
        .watermark_secret(b"hospital-watermark-key-2005".to_vec())
        .build();
    let pipeline = ProtectionEngine::sequential(config);

    let release = pipeline
        .protect_with_metrics(&dataset.table, &dataset.trees, &maximal)
        .expect("binnable under the agreed usage metrics");

    println!(
        "binned {} tuples to {}-anonymity (+ε), multi-attribute search mode: {:?}",
        release.table.len(),
        25,
        release.binning.mode
    );
    for warning in &release.binning.warnings {
        println!("  note: {warning}");
    }

    // Report the information loss of the release against (generous) usage
    // bounds — with 25-anonymity over five quasi-identifiers most columns end
    // up heavily generalized, exactly as the paper's Fig. 11 shows.
    let quasi = dataset.table.schema().quasi_names();
    let bounds = UsageBounds::uniform(&quasi, 1.0);
    let cgs: Vec<_> = release
        .binning
        .columns
        .iter()
        .map(|cb| medshield_core::metrics::ColumnGeneralization {
            column: &cb.column,
            tree: &dataset.trees[&cb.column],
            generalization: &cb.ultimate,
        })
        .collect();
    let check = bounds.check(&dataset.table, &cgs).unwrap();
    println!("information loss per column:");
    for (column, c) in &check.per_column {
        println!("  {column:<13} {:5.1}%  (bound {:.0}%)", c.loss * 100.0, c.bound * 100.0);
    }
    println!("  average       {:5.1}%", check.average_loss * 100.0);

    // Ship the release as CSV (this is what the institute receives).
    let csv_text = csv::to_csv(&release.table);
    println!(
        "release CSV: {} bytes, first line: {}",
        csv_text.len(),
        csv_text.lines().next().unwrap_or("")
    );

    // Months later, a copy of the data surfaces on a data broker's site. The
    // hospital checks whether it is its release.
    let leaked = release.table.snapshot();
    let detection = pipeline.detect(&leaked, &release.binning.columns, &dataset.trees).unwrap();
    let loss = medshield_core::metrics::mark_loss(release.mark.bits(), &detection.mark);
    println!(
        "mark recovered from the leaked copy with {:.0}% bit loss ({} of {} wmd positions covered)",
        loss * 100.0,
        detection.covered_positions,
        detection.wmd_len,
    );

    // And takes the broker to court with the statistic-derived proof.
    let proof = release.ownership.as_ref().expect("statistic-derived mark");
    let verdict = pipeline.resolve_ownership(
        proof,
        &leaked,
        "ssn",
        &detection.mark,
        proof.statistic.abs() * 0.05 + 1.0,
        0.2,
    );
    println!(
        "ownership dispute: statistic consistent = {}, mark loss = {:.0}%, accepted = {}",
        verdict.statistic_consistent,
        verdict.mark_loss * 100.0,
        verdict.accepted
    );
    assert!(verdict.accepted);
}
