//! Traitor tracing acted out: the owner protects one release, hands
//! fingerprinted copies to three clinics, and — when a doctored table shows
//! up on a leak site — ranks every recipient against the recovered bits to
//! name the leaker. No per-recipient key material exists anywhere: each
//! fingerprint is re-derived from the owner key and the clinic's name.
//!
//! ```bash
//! cargo run --release --example traitor_tracing
//! ```

use medshield_core::attacks::{Attack, CollusionAttack, SubsetAlteration};
use medshield_core::watermark::{derive_recipient_mark, score_recipients, HierarchicalWatermarker};
use medshield_core::{ProtectionConfig, ProtectionEngine};
use medshield_datagen::{DatasetConfig, MedicalDataset};

fn main() {
    let dataset = MedicalDataset::generate(&DatasetConfig::small(3_000));

    // One protected release, exactly as before the release/copy refinement.
    let owner = ProtectionEngine::sequential(
        ProtectionConfig::builder()
            .k(5)
            .eta(10)
            .mark_len(20)
            .watermark_secret(b"owner-watermark-key".to_vec())
            .build(),
    );
    let release = owner.protect(&dataset.table, &dataset.trees).unwrap();
    println!("owner released {} tuples (mark {})", release.table.len(), release.mark);

    // Per-recipient copies: re-embed each clinic's fingerprint over the
    // release. Selecting tuples is content-keyed, so the re-embedding
    // overwrites exactly the cells the release mark occupies.
    let wm = HierarchicalWatermarker::new(owner.config().watermark.clone());
    let clinics = ["clinic-a", "clinic-b", "clinic-c"];
    let copies: Vec<_> = clinics
        .iter()
        .map(|name| {
            let mark =
                derive_recipient_mark(&owner.config().watermark.key, name, owner.config().mark_len);
            let (copy, _) = wm
                .embed_into(&release.table, &release.binning.columns, &dataset.trees, &mark)
                .unwrap();
            ((*name).to_string(), mark, copy)
        })
        .collect();
    println!("issued {} fingerprinted copies", copies.len());

    // clinic-b's copy leaks, doctored by a 15% subset-alteration attack.
    let leaked = SubsetAlteration::new(0.15, 42).apply(&copies[1].2);
    let report = owner.detect(&leaked, &release.binning.columns, &dataset.trees).unwrap();
    let ranking =
        score_recipients(&report.mark, copies.iter().map(|(name, mark, _)| (name.as_str(), mark)));
    println!("altered leak, ranked:");
    for r in &ranking {
        println!("  {}: {:.3} ({}/{} bits)", r.name, r.score, r.matching_bits, r.compared_bits);
    }
    assert_eq!(ranking[0].name, "clinic-b");
    println!("→ traced to {}", ranking[0].name);

    // clinic-b and clinic-c collude, majority-mixing their two copies cell
    // by cell. Each colluder still agrees with most mixed positions while
    // the innocent clinic-a sits near 1/2 — the top of the ranking is a
    // member of the colluding set.
    let colluded = CollusionAttack::new(vec![copies[2].2.clone()], 7).apply(&copies[1].2);
    let report = owner.detect(&colluded, &release.binning.columns, &dataset.trees).unwrap();
    let ranking =
        score_recipients(&report.mark, copies.iter().map(|(name, mark, _)| (name.as_str(), mark)));
    println!("colluded leak, ranked:");
    for r in &ranking {
        println!("  {}: {:.3}", r.name, r.score);
    }
    assert!(ranking[0].name == "clinic-b" || ranking[0].name == "clinic-c");
    println!("→ traced to {} (a colluder)", ranking[0].name);
}
