//! The rightful-ownership problem (§5.4) acted out: the owner protects a
//! release with a statistic-derived mark; an attacker re-watermarks the
//! stolen copy with his own key (attack 1 of Fig. 10) and both parties go to
//! court. The protocol accepts the owner and rejects the attacker without
//! ever presenting the original 20,000-tuple table.
//!
//! ```bash
//! cargo run --release -p medshield-core --example ownership_dispute
//! ```

use medshield_core::watermark::ownership::OwnershipProof;
use medshield_core::watermark::{HierarchicalWatermarker, Mark, WatermarkConfig, WatermarkKey};
use medshield_core::{ProtectionConfig, ProtectionEngine};
use medshield_datagen::{DatasetConfig, MedicalDataset};

fn main() {
    let dataset = MedicalDataset::generate(&DatasetConfig::small(3_000));

    // ---------------------------------------------------------------- owner
    let owner = ProtectionEngine::sequential(
        ProtectionConfig::builder()
            .k(5)
            .eta(10)
            .mark_len(20)
            .mark_from_statistic(true)
            .encryption_secret(b"owner-identifier-key".to_vec())
            .watermark_secret(b"owner-watermark-key".to_vec())
            .build(),
    );
    let release = owner.protect(&dataset.table, &dataset.trees).unwrap();
    let owner_proof = release.ownership.clone().expect("statistic-derived mark");
    println!(
        "owner released {} tuples; statistic v = {:.3}; mark F(v) = {}",
        release.table.len(),
        owner_proof.statistic,
        release.mark
    );

    // ------------------------------------------------------------- attacker
    // Attack 1 (Fig. 10): the attacker takes the owner's watermarked data and
    // inserts his *own* mark with his own key, then claims ownership.
    let attacker_key = WatermarkKey::from_master(b"attacker-watermark-key", 10);
    let attacker_wm = HierarchicalWatermarker::new(WatermarkConfig::new(attacker_key));
    let attacker_mark = Mark::from_bytes(b"attacker-mark", 20);
    // The attacker only holds the released (already watermarked) table; he
    // re-embeds his own mark on top of it.
    let (double_marked, _) = attacker_wm
        .embed_into(&release.table, &release.binning.columns, &dataset.trees, &attacker_mark)
        .unwrap();
    println!("attacker re-watermarked the stolen copy with his own key");

    // ----------------------------------------------------------------- court
    // Both parties present: a statistic claim, and the mark their detector
    // extracts from the disputed table.
    let tau = owner_proof.statistic.abs() * 0.05 + 1.0;

    // The owner's detector still finds the owner's mark (the attacker's extra
    // permutations act like a subset-alteration attack).
    let owner_detection =
        owner.detect(&double_marked, &release.binning.columns, &dataset.trees).unwrap();
    let owner_verdict = owner.resolve_ownership(
        &owner_proof,
        &double_marked,
        "ssn",
        &owner_detection.mark,
        tau,
        0.3,
    );
    println!(
        "owner    → statistic consistent: {}, mark loss {:.0}%, accepted: {}",
        owner_verdict.statistic_consistent,
        owner_verdict.mark_loss * 100.0,
        owner_verdict.accepted
    );

    // The attacker cannot decrypt the identifying column (he lacks the
    // binning key), so his recomputed statistic is garbage; and his mark is
    // not F(v) for any v he can exhibit of the clear-text identifiers.
    let attacker_claim = OwnershipProof { statistic: 987_654_321.0, mark_len: 20 };
    let attacker_detection =
        attacker_wm.detect(&double_marked, &release.binning.columns, &dataset.trees, 20).unwrap();
    let attacker_verdict = owner.resolve_ownership(
        // The court uses the claimant's own proof and extraction, but the
        // decryption step requires the binning key, which only the owner has.
        &attacker_claim,
        &double_marked,
        "ssn",
        &attacker_detection.mark,
        tau,
        0.3,
    );
    println!(
        "attacker → statistic consistent: {}, mark loss {:.0}%, accepted: {}",
        attacker_verdict.statistic_consistent,
        attacker_verdict.mark_loss * 100.0,
        attacker_verdict.accepted
    );

    assert!(owner_verdict.accepted, "the rightful owner must win the dispute");
    assert!(!attacker_verdict.accepted, "the attacker must lose the dispute");
    println!("verdict: the original data holder retains provable ownership");
}
