//! Tests that pin the paper's headline claims, section by section, on
//! laptop-scale versions of its experimental setup. The full-scale
//! reproductions of the figures live in the bench harness
//! (`crates/bench/src/bin/*`); these tests assert the *shape* of each claim
//! so regressions are caught by `cargo test`.

use medshield_core::attacks::{Attack, SubsetAlteration};
use medshield_core::binning::{BinningAgent, BinningConfig, KAnonymitySpec};
use medshield_core::dht::GeneralizationSet;
use medshield_core::metrics::{mark_loss, table_info_loss, ColumnGeneralization};
use medshield_core::{analytic_interference, measure_interference};
use medshield_core::{ProtectionConfig, ProtectionEngine};
use medshield_datagen::{DatasetConfig, MedicalDataset};
use std::collections::BTreeMap;

fn dataset(n: usize) -> MedicalDataset {
    MedicalDataset::generate(&DatasetConfig::small(n))
}

/// §4 / Fig. 11: information loss grows with k, multi-attribute binning loses
/// more than mono-attribute binning, and the curve saturates for large k.
#[test]
fn fig11_shape_mono_vs_multi_information_loss() {
    let ds = dataset(2_000);
    let maximal: BTreeMap<String, GeneralizationSet> =
        ds.trees.iter().map(|(n, t)| (n.clone(), GeneralizationSet::at_depth(t, 0))).collect();

    let mut mono_losses = Vec::new();
    let mut multi_losses = Vec::new();
    for k in [5usize, 25, 100] {
        let agent = BinningAgent::new(BinningConfig::with_k(k));
        let outcome = agent.bin(&ds.table, &ds.trees, &maximal).unwrap();
        let mono_cgs: Vec<ColumnGeneralization<'_>> = outcome
            .columns
            .iter()
            .map(|cb| ColumnGeneralization {
                column: &cb.column,
                tree: &ds.trees[&cb.column],
                generalization: &cb.minimal,
            })
            .collect();
        let multi_cgs: Vec<ColumnGeneralization<'_>> = outcome
            .columns
            .iter()
            .map(|cb| ColumnGeneralization {
                column: &cb.column,
                tree: &ds.trees[&cb.column],
                generalization: &cb.ultimate,
            })
            .collect();
        mono_losses.push(table_info_loss(&ds.table, &mono_cgs).unwrap());
        multi_losses.push(table_info_loss(&ds.table, &multi_cgs).unwrap());
    }

    // Multi-attribute binning loses at least as much information as
    // mono-attribute binning at every k (the gap is the paper's main point).
    for (i, (mono, multi)) in mono_losses.iter().zip(multi_losses.iter()).enumerate() {
        assert!(multi + 1e-9 >= *mono, "k index {i}: multi {multi} < mono {mono}");
    }
    // Both curves are non-decreasing in k (within heuristic slack).
    for w in mono_losses.windows(2) {
        assert!(w[1] + 0.05 >= w[0]);
    }
    for w in multi_losses.windows(2) {
        assert!(w[1] + 0.05 >= w[0]);
    }
}

/// §5.3 / Fig. 12(a): mark loss under subset alteration stays moderate (the
/// paper reports ≈30% loss at 70% alteration) and smaller η is at least as
/// resilient.
#[test]
fn fig12a_shape_alteration_resilience_and_eta_tradeoff() {
    let ds = dataset(3_000);
    let mut losses_by_eta = Vec::new();
    for eta in [5u64, 50] {
        let pipeline = ProtectionEngine::sequential(
            ProtectionConfig::builder().k(5).eta(eta).mark_len(20).mark_text("fig12a").build(),
        );
        let release = pipeline.protect(&ds.table, &ds.trees).unwrap();
        let attacked = SubsetAlteration::new(0.7, 7).apply(&release.table);
        let detection = pipeline.detect(&attacked, &release.binning.columns, &ds.trees).unwrap();
        losses_by_eta.push(mark_loss(release.mark.bits(), &detection.mark));
    }
    assert!(
        losses_by_eta[0] <= 0.45,
        "70% alteration at eta=5 should lose well under half the mark, lost {}",
        losses_by_eta[0]
    );
    assert!(
        losses_by_eta[0] <= losses_by_eta[1] + 0.1,
        "smaller eta should be at least as resilient: {losses_by_eta:?}"
    );
}

/// §5.1 / Fig. 13: the information loss added by watermarking is minor
/// (the paper reports under 10%) and shrinks as η grows.
#[test]
fn fig13_shape_watermarking_info_loss_is_minor() {
    let ds = dataset(2_000);
    let mut losses = Vec::new();
    for eta in [5u64, 100] {
        let pipeline = ProtectionEngine::sequential(
            ProtectionConfig::builder().k(5).eta(eta).mark_text("fig13").build(),
        );
        let release = pipeline.protect(&ds.table, &ds.trees).unwrap();
        let cgs: Vec<ColumnGeneralization<'_>> = release
            .binning
            .columns
            .iter()
            .map(|cb| ColumnGeneralization {
                column: &cb.column,
                tree: &ds.trees[&cb.column],
                generalization: &cb.ultimate,
            })
            .collect();
        let binned_loss = table_info_loss(&ds.table, &cgs).unwrap();
        // Information loss of the watermarked table, measured against the
        // original values with the same generalization sets: the permutations
        // move values between bins but never above the maximal nodes, so the
        // extra loss is the fraction of changed cells, which is small.
        let changed = release.embedding.changed_cells as f64;
        let total_cells = (ds.table.len() * release.binning.columns.len()) as f64;
        let extra = changed / total_cells;
        losses.push((binned_loss, extra));
    }
    for (binned_loss, extra) in &losses {
        assert!(
            *extra <= 0.12,
            "watermarking altered {extra:.3} of the cells (binned loss {binned_loss:.3})"
        );
    }
    // Larger η → fewer selected tuples → less extra distortion.
    assert!(losses[1].1 <= losses[0].1 + 1e-9);
}

/// §6 / Fig. 14: watermarking changes bin sizes but essentially never pushes
/// a bin below k, and the analytic Pr⁻ = Pr⁺ of Lemmas 1–2 holds.
#[test]
fn fig14_shape_watermarking_does_not_break_k_anonymity() {
    let ds = dataset(2_500);
    let mut config = BinningConfig::with_k(10);
    config.spec = KAnonymitySpec::with_epsilon(10, 2);
    let pipeline = ProtectionEngine::sequential(
        ProtectionConfig::builder().k(10).epsilon(2).eta(10).mark_text("fig14").build(),
    );
    let release = pipeline.protect(&ds.table, &ds.trees).unwrap();

    let reports = measure_interference(&release.binning.table, &release.table, 10).unwrap();
    assert_eq!(reports.len(), 5);
    let mut any_changed = false;
    for (column, report) in &reports {
        assert!(report.total_bins > 0, "{column}");
        if report.changed_bins > 0 {
            any_changed = true;
        }
        assert_eq!(
            report.below_k, 0,
            "{column}: {} bins fell below k after watermarking",
            report.below_k
        );
    }
    assert!(any_changed, "watermarking should visibly change some bin sizes");

    let analysis = analytic_interference(&release.binning.columns, &ds.trees);
    for a in analysis {
        assert_eq!(a.pr_minus, a.pr_plus, "Lemma 1 vs Lemma 2 for {}", a.column);
    }
}

/// §5.4: the rightful-ownership protocol accepts the owner and rejects an
/// attacker who lacks the binning (decryption) key, without the original
/// table ever being presented.
#[test]
fn ownership_protocol_separates_owner_from_attacker() {
    let ds = dataset(1_500);
    let owner = ProtectionEngine::sequential(
        ProtectionConfig::builder()
            .k(5)
            .eta(10)
            .mark_from_statistic(true)
            .encryption_secret(b"owner-enc-key".to_vec())
            .watermark_secret(b"owner-wm-key".to_vec())
            .build(),
    );
    let release = owner.protect(&ds.table, &ds.trees).unwrap();
    let proof = release.ownership.clone().unwrap();
    let detection = owner.detect(&release.table, &release.binning.columns, &ds.trees).unwrap();
    let tau = proof.statistic.abs() * 0.05 + 1.0;

    let owner_verdict =
        owner.resolve_ownership(&proof, &release.table, "ssn", &detection.mark, tau, 0.2);
    assert!(owner_verdict.accepted);

    // An attacker with different keys cannot make the statistic check pass.
    let attacker = ProtectionEngine::sequential(
        ProtectionConfig::builder()
            .k(5)
            .eta(10)
            .mark_from_statistic(true)
            .encryption_secret(b"attacker-enc-key".to_vec())
            .watermark_secret(b"attacker-wm-key".to_vec())
            .build(),
    );
    let bogus = medshield_core::watermark::ownership::OwnershipProof {
        statistic: proof.statistic + 1.0e9,
        mark_len: 20,
    };
    let attacker_detection =
        attacker.detect(&release.table, &release.binning.columns, &ds.trees).unwrap();
    let attacker_verdict = attacker.resolve_ownership(
        &bogus,
        &release.table,
        "ssn",
        &attacker_detection.mark,
        tau,
        0.2,
    );
    assert!(!attacker_verdict.accepted);
}
