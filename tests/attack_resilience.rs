//! Integration tests of watermark resilience under the paper's attack models
//! (§5.2, §7.2): the statistical shape of Fig. 12 (mark loss grows slowly
//! with attack strength; smaller η is more resilient) and the §5.2 claim that
//! the generalization attack defeats single-level but not hierarchical
//! watermarking.

use medshield_core::attacks::{
    Attack, GeneralizationAttack, MixedAttack, SubsetAddition, SubsetAlteration, SubsetDeletion,
};
use medshield_core::metrics::mark_loss;
use medshield_core::watermark::{Mark, SingleLevelWatermarker, WatermarkConfig, WatermarkKey};
use medshield_core::{ProtectedRelease, ProtectionConfig, ProtectionEngine};
use medshield_datagen::{DatasetConfig, MedicalDataset};

fn protect(n: usize, eta: u64) -> (MedicalDataset, ProtectionEngine, ProtectedRelease) {
    let ds = MedicalDataset::generate(&DatasetConfig::small(n));
    let pipeline = ProtectionEngine::sequential(
        ProtectionConfig::builder()
            .k(5)
            .eta(eta)
            .duplication(4)
            .mark_len(20)
            .mark_text("resilience-owner")
            .build(),
    );
    let release = pipeline.protect(&ds.table, &ds.trees).unwrap();
    (ds, pipeline, release)
}

fn loss_under(
    attack: &dyn Attack,
    ds: &MedicalDataset,
    pipeline: &ProtectionEngine,
    release: &ProtectedRelease,
) -> f64 {
    let attacked = attack.apply(&release.table);
    let detection = pipeline.detect(&attacked, &release.binning.columns, &ds.trees).unwrap();
    mark_loss(release.mark.bits(), &detection.mark)
}

#[test]
fn moderate_alteration_leaves_most_of_the_mark() {
    let (ds, pipeline, release) = protect(3_000, 10);
    let loss = loss_under(&SubsetAlteration::new(0.3, 1), &ds, &pipeline, &release);
    assert!(loss <= 0.25, "30% alteration should keep ≥75% of the mark, lost {loss}");
}

#[test]
fn alteration_loss_is_monotone_in_attack_strength() {
    let (ds, pipeline, release) = protect(3_000, 10);
    let mut previous = -1.0f64;
    for (i, fraction) in [0.0, 0.4, 0.8].into_iter().enumerate() {
        let loss =
            loss_under(&SubsetAlteration::new(fraction, 42 + i as u64), &ds, &pipeline, &release);
        assert!(
            loss + 0.15 >= previous,
            "loss should generally grow with alteration strength ({previous} → {loss})"
        );
        previous = previous.max(loss);
    }
}

#[test]
fn addition_attack_is_weaker_than_alteration() {
    // Adding tuples never erases embedded bits; it only pollutes the vote.
    let (ds, pipeline, release) = protect(2_500, 10);
    let addition = loss_under(&SubsetAddition::new(0.8, 3), &ds, &pipeline, &release);
    assert!(addition <= 0.3, "80% addition should barely hurt, lost {addition}");
}

#[test]
fn deletion_up_to_half_keeps_most_of_the_mark() {
    let (ds, pipeline, release) = protect(3_000, 10);
    for style in [SubsetDeletion::random(0.5, 5), SubsetDeletion::ranges(0.5, 6, "ssn")] {
        let loss = loss_under(&style, &ds, &pipeline, &release);
        assert!(loss <= 0.3, "{}: lost {loss}", style.describe());
    }
}

#[test]
fn smaller_eta_is_more_resilient_to_deletion() {
    // Fig. 12's second observation: smaller η (more watermarked tuples) gives
    // more redundancy and therefore more resilience.
    let (ds_small, pipeline_small, release_small) = protect(2_500, 5);
    let (ds_large, pipeline_large, release_large) = protect(2_500, 100);
    let attack = SubsetDeletion::random(0.7, 9);
    let loss_small_eta = loss_under(&attack, &ds_small, &pipeline_small, &release_small);
    let loss_large_eta = loss_under(&attack, &ds_large, &pipeline_large, &release_large);
    assert!(
        loss_small_eta <= loss_large_eta + 0.05,
        "eta=5 lost {loss_small_eta}, eta=100 lost {loss_large_eta}"
    );
}

#[test]
fn generalization_attack_defeats_single_level_but_not_hierarchical() {
    let (ds, pipeline, release) = protect(3_000, 8);
    let attack = GeneralizationAttack::new(1, ds.trees.clone());

    // Hierarchical scheme: the mark survives the attack largely intact.
    let hier_loss = loss_under(&attack, &ds, &pipeline, &release);
    assert!(hier_loss <= 0.35, "hierarchical scheme lost {hier_loss} under generalization");

    // Single-level baseline: the same attack wipes the recoverable signal —
    // every watermarked value is pushed above its ultimate node, so detection
    // collects no votes and the recovered mark is unrelated to the original.
    let key = WatermarkKey::from_master(b"single-level-owner", 8);
    let single = SingleLevelWatermarker::new(WatermarkConfig::new(key));
    let mark = Mark::from_bytes(b"single-level-owner", 20);
    let marked = single.embed(&release.binning, &ds.trees, &mark).unwrap();

    let clean = single.detect(&marked, &release.binning.columns, &ds.trees, mark.len()).unwrap();
    let clean_loss = mark_loss(mark.bits(), &clean);
    assert!(clean_loss <= 0.1, "single-level clean detection lost {clean_loss}");

    let attacked = attack.apply(&marked);
    let after = single.detect(&attacked, &release.binning.columns, &ds.trees, mark.len()).unwrap();
    let attacked_loss = mark_loss(mark.bits(), &after);
    assert!(
        attacked_loss >= 0.25,
        "the generalization attack should destroy the single-level mark, lost only {attacked_loss}"
    );
    assert!(
        attacked_loss > clean_loss + 0.1,
        "the attack should clearly degrade the single-level scheme"
    );
    assert!(
        attacked_loss > hier_loss,
        "hierarchical must beat single-level under the generalization attack"
    );
}

#[test]
fn combined_attack_still_leaves_a_recognizable_mark() {
    let (ds, pipeline, release) = protect(3_500, 8);
    let attack = MixedAttack::new()
        .then(SubsetDeletion::random(0.25, 11))
        .then(SubsetAddition::new(0.25, 12))
        .then(SubsetAlteration::new(0.25, 13));
    let loss = loss_under(&attack, &ds, &pipeline, &release);
    // A 20-bit mark with ≤ 35% loss still identifies the owner with high
    // confidence (the paper's Fig. 12 shows ~30% loss at 70% alteration).
    assert!(loss <= 0.35, "combined attack lost {loss}");
}

#[test]
fn attacks_preserve_schema_and_do_not_panic_on_edge_fractions() {
    let (ds, _pipeline, release) = protect(400, 10);
    for attack in [
        Box::new(SubsetAlteration::new(1.0, 1)) as Box<dyn Attack>,
        Box::new(SubsetAddition::new(1.0, 2)),
        Box::new(SubsetDeletion::random(1.0, 3)),
        Box::new(GeneralizationAttack::new(10, ds.trees.clone())),
    ] {
        let attacked = attack.apply(&release.table);
        assert_eq!(attacked.schema(), release.table.schema());
    }
}
