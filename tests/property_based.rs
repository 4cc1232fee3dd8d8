//! Property-based tests (proptest) over the core invariants of the
//! framework: DHT generalization validity, information-loss bounds,
//! k-anonymity of binning, and watermark round-tripping under randomized
//! configurations.

use medshield_core::binning::{BinningAgent, BinningConfig};
use medshield_core::dht::builder::{numeric_binary_tree, CategoricalNodeSpec};
use medshield_core::dht::GeneralizationSet;
use medshield_core::metrics::{
    column_info_loss, mark_loss, satisfies_k_anonymity, ColumnGeneralization,
};
use medshield_core::relation::{ColumnDef, ColumnRole, Schema, Table, Value};
use medshield_core::{ProtectionConfig, ProtectionEngine};
use medshield_datagen::{DatasetConfig, MedicalDataset};
use proptest::prelude::*;
use std::collections::BTreeMap;

/// A small categorical tree whose fan-out is driven by the strategy.
fn arb_tree() -> impl Strategy<Value = medshield_core::dht::DomainHierarchyTree> {
    (2usize..5, 2usize..5).prop_map(|(groups, leaves_per_group)| {
        let children: Vec<CategoricalNodeSpec> = (0..groups)
            .map(|g| {
                CategoricalNodeSpec::internal(
                    format!("group-{g}"),
                    (0..leaves_per_group)
                        .map(|l| CategoricalNodeSpec::leaf(format!("leaf-{g}-{l}")))
                        .collect(),
                )
            })
            .collect();
        CategoricalNodeSpec::internal("root", children).build("col").unwrap()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// `at_depth` always produces a valid generalization, and its specificity
    /// loss decreases (more nodes) as the depth grows.
    #[test]
    fn at_depth_is_always_valid(tree in arb_tree(), depth in 0usize..4) {
        let g = GeneralizationSet::at_depth(&tree, depth);
        prop_assert!(GeneralizationSet::new(&tree, g.nodes().to_vec()).is_ok());
        let deeper = GeneralizationSet::at_depth(&tree, depth + 1);
        prop_assert!(deeper.len() >= g.len());
        prop_assert!(deeper.specificity_loss(&tree) <= g.specificity_loss(&tree));
    }

    /// Every enumerated generalization between two valid bounds is itself
    /// valid and within the bounds.
    #[test]
    fn enumeration_stays_within_bounds(tree in arb_tree(), limit in 1usize..40) {
        let lower = GeneralizationSet::all_leaves(&tree);
        let upper = GeneralizationSet::at_depth(&tree, 1);
        let all = GeneralizationSet::enumerate_between(&tree, &lower, &upper, limit).unwrap();
        prop_assert!(!all.is_empty());
        prop_assert!(all.len() <= limit);
        for g in &all {
            prop_assert!(GeneralizationSet::new(&tree, g.nodes().to_vec()).is_ok());
            prop_assert!(g.is_at_or_below(&tree, &upper).unwrap());
            prop_assert!(lower.is_at_or_below(&tree, g).unwrap());
        }
    }

    /// Information loss is always within [0, 1] and equals 0 exactly for the
    /// all-leaves generalization on categorical trees.
    #[test]
    fn info_loss_is_normalized(
        tree in arb_tree(),
        values in prop::collection::vec(0usize..12, 1..60),
        depth in 0usize..3,
    ) {
        let leaves = tree.leaves();
        let schema = Schema::new(vec![ColumnDef::new("col", ColumnRole::QuasiCategorical)]).unwrap();
        let mut table = Table::new(schema);
        for v in &values {
            let leaf = leaves[v % leaves.len()];
            table.insert(vec![tree.node_value(leaf).unwrap()]).unwrap();
        }
        let g = GeneralizationSet::at_depth(&tree, depth);
        let loss = column_info_loss(
            &table,
            &ColumnGeneralization { column: "col", tree: &tree, generalization: &g },
        ).unwrap();
        prop_assert!((0.0..=1.0).contains(&loss), "loss {loss}");
        let zero = column_info_loss(
            &table,
            &ColumnGeneralization {
                column: "col",
                tree: &tree,
                generalization: &GeneralizationSet::all_leaves(&tree),
            },
        ).unwrap();
        prop_assert!(zero.abs() < 1e-12);
    }

    /// Binning a random single-column table always yields per-column
    /// k-anonymity or an explicit "not binnable" outcome, never a silent
    /// violation.
    #[test]
    fn binning_never_silently_violates_k(
        counts in prop::collection::vec(0usize..8, 4..12),
        k in 1usize..6,
    ) {
        let intervals: Vec<(i64, i64)> = (0..counts.len() as i64).map(|i| (i * 10, (i + 1) * 10)).collect();
        let tree = numeric_binary_tree("age", &intervals).unwrap();
        let schema = Schema::new(vec![ColumnDef::new("age", ColumnRole::QuasiNumeric)]).unwrap();
        let mut table = Table::new(schema);
        for (i, &c) in counts.iter().enumerate() {
            for j in 0..c {
                table.insert(vec![Value::int(i as i64 * 10 + (j % 10) as i64)]).unwrap();
            }
        }
        prop_assume!(!table.is_empty());

        let agent = BinningAgent::new(BinningConfig::with_k(k));
        let mut trees = BTreeMap::new();
        trees.insert("age".to_string(), tree);
        let outcome = agent.bin(&table, &trees, &BTreeMap::new()).unwrap();
        if outcome.satisfied {
            prop_assert!(satisfies_k_anonymity(&outcome.table, &["age"], k).unwrap());
        } else {
            prop_assert!(!outcome.warnings.is_empty());
        }
    }

    /// The watermark always round-trips exactly on an untouched release, for
    /// random mark lengths, η and k (kept within the bandwidth the small
    /// test table actually provides).
    #[test]
    fn watermark_roundtrips_for_random_configs(
        mark_len in 4usize..12,
        eta in 2u64..5,
        k in 2usize..4,
        seed in 0u64..1000,
    ) {
        let ds = MedicalDataset::generate(&DatasetConfig { num_tuples: 800, seed, zipf_exponent: 0.8 });
        let pipeline = ProtectionEngine::sequential(
            ProtectionConfig::builder()
                .k(k)
                .eta(eta)
                .duplication(4)
                .mark_len(mark_len)
                .mark_text(format!("owner-{seed}"))
                .build(),
        );
        let release = pipeline.protect(&ds.table, &ds.trees).unwrap();
        let detection = pipeline.detect(&release.table, &release.binning.columns, &ds.trees).unwrap();
        prop_assert_eq!(mark_loss(release.mark.bits(), &detection.mark), 0.0);
    }
}
