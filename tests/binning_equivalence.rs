//! Equivalence of the sharded multi-attribute binning search across thread
//! counts: for threads {1, 2, 4, 8} the [`BinningAgent`] must produce a
//! byte-identical [`BinningOutcome`] — the binned table *and* the per-column
//! maximal/minimal/ultimate node sets — on clean tables and on attacked
//! ones, in both the exhaustive and the greedy search mode. This pins the
//! parallel refactor to the paper's (sequential) `GenUltiNd` semantics, the
//! same way `engine_equivalence` pins the watermark stages.

use medshield_core::attacks::{Attack, MixedAttack, SubsetAlteration, SubsetDeletion};
use medshield_core::binning::{
    BinningAgent, BinningConfig, BinningError, BinningOutcome, SearchMode,
};
use medshield_core::dht::GeneralizationSet;
use medshield_core::relation::{csv, Table};
use medshield_core::{ProtectionConfig, ProtectionEngine};
use medshield_datagen::{DatasetConfig, MedicalDataset};
use proptest::prelude::*;
use std::collections::BTreeMap;

const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];

fn dataset(n: usize, seed: u64) -> MedicalDataset {
    MedicalDataset::generate(&DatasetConfig { num_tuples: n, seed, zipf_exponent: 0.8 })
}

fn config(k: usize, exhaustive_limit: usize, threads: usize) -> BinningConfig {
    let mut c = BinningConfig::with_k(k);
    c.exhaustive_limit = exhaustive_limit;
    c.threads = threads;
    c
}

fn root_maximal(ds: &MedicalDataset) -> BTreeMap<String, GeneralizationSet> {
    ds.trees.iter().map(|(n, t)| (n.clone(), GeneralizationSet::root_only(t))).collect()
}

/// The full comparable fingerprint of an outcome: binned-table bytes plus
/// every node set, the satisfied flag, the mode and the warnings.
fn fingerprint(outcome: &BinningOutcome) -> String {
    let mut out = csv::to_csv(&outcome.table);
    for c in &outcome.columns {
        out.push_str(&format!(
            "\n{}|max{:?}|min{:?}|ult{:?}",
            c.column,
            c.maximal.nodes(),
            c.minimal.nodes(),
            c.ultimate.nodes()
        ));
    }
    out.push_str(&format!(
        "\nsatisfied={} mode={:?} warnings={:?}",
        outcome.satisfied, outcome.mode, outcome.warnings
    ));
    out
}

/// Bin `table` at every thread count and assert all outcomes match the
/// 1-thread reference; returns the reference outcome.
fn bin_all_thread_counts(
    ds: &MedicalDataset,
    table: &Table,
    k: usize,
    exhaustive_limit: usize,
) -> BinningOutcome {
    let maximal = root_maximal(ds);
    let reference =
        BinningAgent::new(config(k, exhaustive_limit, 1)).bin(table, &ds.trees, &maximal).unwrap();
    let reference_print = fingerprint(&reference);
    for threads in THREAD_COUNTS {
        let outcome = BinningAgent::new(config(k, exhaustive_limit, threads))
            .bin(table, &ds.trees, &maximal)
            .unwrap();
        assert_eq!(
            fingerprint(&outcome),
            reference_print,
            "{threads}-thread outcome diverged (k={k}, limit={exhaustive_limit})"
        );
    }
    reference
}

/// Exhaustive mode: a large k narrows the minimal→maximal gap enough for the
/// candidate product to fit the limit (the same workload `bench --bin
/// binning` times), and every thread count must reproduce it exactly.
#[test]
fn exhaustive_outcome_identical_across_threads() {
    let ds = dataset(1200, 0x1CDE_2005);
    let reference = bin_all_thread_counts(&ds, &ds.table, 96, 500_000);
    assert_eq!(reference.mode, SearchMode::Exhaustive, "workload must pin the exhaustive search");
    assert!(reference.satisfied);
}

/// Greedy mode (a tiny exhaustive limit forces the fallback): the greedy
/// search is not sharded, so the thread count must not change its merge
/// sequence.
#[test]
fn greedy_outcome_identical_across_threads() {
    let ds = dataset(1500, 7);
    let reference = bin_all_thread_counts(&ds, &ds.table, 6, 1);
    assert_eq!(reference.mode, SearchMode::Greedy);
    assert!(reference.satisfied);
}

/// The equivalence also holds on attacked input tables — missing and altered
/// tuples change the leaf distribution and therefore the search space, but
/// never the thread-count independence.
#[test]
fn attacked_tables_bin_identically_across_threads() {
    let ds = dataset(1400, 11);
    let engine = ProtectionEngine::sequential(ProtectionConfig::builder().k(4).eta(5).build());
    let release = engine.protect_per_attribute(&ds.table, &ds.trees).unwrap();
    let attack = MixedAttack::new()
        .then(SubsetDeletion::random(0.15, 3))
        .then(SubsetAlteration::new(0.1, 4));
    let attacked = attack.apply(&release.table);
    assert!(attacked.len() < release.table.len());
    // Greedy on the attacked release (its generalized values are leaves of
    // nothing — rebin the *original* schema rows that survived instead).
    let surviving = attack.apply(&ds.table);
    for (k, limit) in [(6usize, 1usize), (96, 500_000)] {
        bin_all_thread_counts(&ds, &surviving, k, limit);
    }
}

/// Boundary: more worker threads than candidate combinations (or than rows)
/// degrades gracefully to the same outcome.
#[test]
fn more_threads_than_candidates_degrades_gracefully() {
    let ds = dataset(400, 5);
    let maximal = root_maximal(&ds);
    let reference =
        BinningAgent::new(config(64, 500_000, 1)).bin(&ds.table, &ds.trees, &maximal).unwrap();
    let wide =
        BinningAgent::new(config(64, 500_000, 1024)).bin(&ds.table, &ds.trees, &maximal).unwrap();
    assert_eq!(fingerprint(&wide), fingerprint(&reference));
}

/// Boundary: zero worker threads is rejected uniformly — by both binning
/// pipelines and by the engine front door (one knob drives both stages, and
/// both entry points agree on the contract).
#[test]
fn zero_threads_rejected_by_binning_and_engine() {
    let ds = dataset(120, 2);
    let maximal = root_maximal(&ds);
    let agent = BinningAgent::new(config(4, 1000, 0));
    assert!(matches!(agent.bin(&ds.table, &ds.trees, &maximal), Err(BinningError::InvalidThreads)));
    assert!(matches!(
        agent.bin_per_attribute(&ds.table, &ds.trees, &maximal),
        Err(BinningError::InvalidThreads)
    ));
    // The engine rejects zero too (it used to clamp silently) and pushes the
    // knob into the binning config.
    assert!(matches!(
        ProtectionEngine::new(ProtectionConfig::builder().k(4).build(), 0),
        Err(medshield_core::PipelineError::InvalidThreads)
    ));
    for threads in [1, 8] {
        let engine =
            ProtectionEngine::new(ProtectionConfig::builder().k(4).build(), threads).unwrap();
        assert_eq!(engine.threads(), threads);
        assert_eq!(engine.config().binning.threads, threads);
    }
}

/// The Fig. 7 invariant at the outcome level: the ultimate generalization
/// never descends below the mono-stage minimal nodes, and never rises above
/// the maximal nodes, whatever the thread count.
#[test]
fn ultimate_stays_between_minimal_and_maximal() {
    let ds = dataset(900, 13);
    for (k, limit) in [(96usize, 500_000usize), (6, 1)] {
        let reference = bin_all_thread_counts(&ds, &ds.table, k, limit);
        for cb in &reference.columns {
            let tree = &ds.trees[&cb.column];
            assert!(
                cb.minimal.is_at_or_below(tree, &cb.ultimate).unwrap(),
                "column {}: ultimate descended below the minimal nodes (k={k})",
                cb.column
            );
            assert!(cb.ultimate.is_at_or_below(tree, &cb.maximal).unwrap());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Across random tables and k ∈ 2..=8, every thread count produces the
    /// identical outcome, and whenever binning reports success the binned
    /// table genuinely satisfies k-anonymity over the quasi-identifier
    /// combination (checked through `metrics::anonymity`).
    #[test]
    fn binned_output_is_k_anonymous_for_every_thread_count(
        n in 300usize..700,
        seed in 0u64..1000,
        k in 2usize..=8,
    ) {
        let ds = dataset(n, seed);
        let maximal = root_maximal(&ds);
        let reference = BinningAgent::new(config(k, 4096, 1))
            .bin(&ds.table, &ds.trees, &maximal)
            .unwrap();
        let reference_print = fingerprint(&reference);
        let quasi = ds.table.schema().quasi_names();
        for threads in THREAD_COUNTS {
            let outcome = BinningAgent::new(config(k, 4096, threads))
                .bin(&ds.table, &ds.trees, &maximal)
                .unwrap();
            prop_assert!(
                fingerprint(&outcome) == reference_print,
                "threads {}: outcome diverged from the sequential reference", threads
            );
            prop_assert!(outcome.satisfied, "root-bounded binning should satisfy k={}", k);
            prop_assert!(
                medshield_core::metrics::satisfies_k_anonymity(&outcome.table, &quasi, k).unwrap(),
                "threads {}: binned table violates k={}", threads, k
            );
        }
    }
}
