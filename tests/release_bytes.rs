//! Pinned release bytes: the protect paths must keep producing exactly the
//! releases they produced when these hashes were recorded.
//!
//! The other equivalence gates compare the engine against itself (across
//! thread counts, or against the sequential pipeline), so a change to a step
//! both sides share — the binning apply, say — would pass all of them. These
//! hashes are absolute: each one covers the `csv::to_csv` bytes of the
//! released table plus the embedding's `selected_tuples` and the binning's
//! `satisfied` flag, for both `protect` and `protect_per_attribute` at three
//! table sizes, under the served benchmark's engine configuration. Two more
//! `protect` pins cover the greedy multi-attribute search: an 8,000-row table
//! and a `FullInfoLoss` selection.
//!
//! The attacked-table pins cover the subset-deletion attack the same way:
//! the `csv::to_csv` bytes of a benchmark-config release after the Fig. 12c
//! identifier-range deletes, and after the random deletes that make the
//! `audit` benchmark's suspects.

use medshield_core::attacks::{Attack, SubsetAlteration, SubsetDeletion};
use medshield_core::binning::{SearchMode, SelectionStrategy};
use medshield_core::relation::csv;
use medshield_core::{ProtectedRelease, ProtectionConfig, ProtectionEngine};
use medshield_datagen::{DatasetConfig, MedicalDataset};

const SEED: u64 = 7;

/// (rows, `protect_per_attribute` hash, `protect` hash).
const PINNED: [(usize, u64, u64); 3] = [
    (250, 0xdea7_5107_2889_a649, 0x511e_d83f_6b54_d479),
    (1_000, 0x07b8_ac8f_3008_505b, 0x6705_62b3_aaf7_2bff),
    (4_000, 0xde10_c3a2_304d_74cc, 0xfd46_5507_7e60_2e3f),
];

fn engine() -> ProtectionEngine {
    engine_with(SelectionStrategy::default())
}

fn engine_with(selection: SelectionStrategy) -> ProtectionEngine {
    let config = ProtectionConfig::builder()
        .selection_strategy(selection)
        .k(5)
        .epsilon(5)
        .eta(10)
        .duplication(4)
        .mark_text("perfbench-owner")
        .build();
    ProtectionEngine::new(config, 1).unwrap()
}

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
}

fn release_hash(release: &ProtectedRelease) -> u64 {
    let mut bytes = csv::to_csv(&release.table).into_bytes();
    bytes.extend_from_slice(
        format!(
            "\nselected_tuples={} satisfied={}",
            release.embedding.selected_tuples, release.binning.satisfied
        )
        .as_bytes(),
    );
    fnv1a(&bytes)
}

#[test]
fn release_bytes_match_pinned_hashes() {
    let engine = engine();
    let mut actual = Vec::new();
    for &(rows, _, _) in &PINNED {
        let ds = MedicalDataset::generate(&DatasetConfig {
            num_tuples: rows,
            seed: SEED,
            zipf_exponent: 0.8,
        });
        let per_attribute = engine.protect_per_attribute(&ds.table, &ds.trees).unwrap();
        let multi = engine.protect(&ds.table, &ds.trees).unwrap();
        actual.push((rows, release_hash(&per_attribute), release_hash(&multi)));
    }
    let rendered: Vec<String> =
        actual.iter().map(|(n, p, m)| format!("({n}, {p:#018x}, {m:#018x})")).collect();
    assert_eq!(actual, PINNED, "release bytes moved; actual: [{}]", rendered.join(", "));
}

/// (rows, selection strategy, `protect` hash) for releases whose
/// multi-attribute binning takes the greedy fallback. Each case asserts
/// `SearchMode::Greedy`, so neither pin can silently move to the exhaustive
/// search.
const PINNED_GREEDY: [(usize, SelectionStrategy, u64); 2] = [
    (8_000, SelectionStrategy::SpecificityLoss, 0x0f8f_1dcb_a098_87b5),
    (2_000, SelectionStrategy::FullInfoLoss, 0xd97b_817a_0e15_4430),
];

#[test]
fn greedy_release_bytes_match_pinned_hashes() {
    let mut actual = Vec::new();
    for &(rows, selection, _) in &PINNED_GREEDY {
        let ds = MedicalDataset::generate(&DatasetConfig {
            num_tuples: rows,
            seed: SEED,
            zipf_exponent: 0.8,
        });
        let release = engine_with(selection).protect(&ds.table, &ds.trees).unwrap();
        assert_eq!(release.binning.mode, SearchMode::Greedy, "{rows} rows, {selection:?}");
        actual.push((rows, selection, release_hash(&release)));
    }
    let rendered: Vec<String> =
        actual.iter().map(|(n, s, h)| format!("({n}, {s:?}, {h:#018x})")).collect();
    assert_eq!(actual, PINNED_GREEDY, "release bytes moved; actual: [{}]", rendered.join(", "));
}

fn dataset(rows: usize) -> MedicalDataset {
    MedicalDataset::generate(&DatasetConfig { num_tuples: rows, seed: SEED, zipf_exponent: 0.8 })
}

/// (deleted fraction, FNV-1a of the attacked release's CSV) for Fig. 12c's
/// identifier-range deletes, with the figure's seeds `777 + i`, over a
/// 2,000-row per-attribute release.
const PINNED_RANGES: [(f64, u64); 8] = [
    (0.0, 0x80a6_449f_e8bf_1bc8),
    (0.2, 0xca6b_8c17_a6a9_d0ac),
    (0.4, 0x2540_6800_7cd7_883d),
    (0.6, 0x1cb6_f6d6_ccea_d057),
    (0.8, 0xce53_b1b9_03c9_91ee),
    (0.9, 0x824b_f69e_4d69_ed3f),
    (0.95, 0xc5c4_4b23_75be_40d7),
    (0.98, 0xb950_989d_9b09_a15f),
];

#[test]
fn range_deleted_release_bytes_match_pinned_hashes() {
    let ds = dataset(2_000);
    let release = engine().protect_per_attribute(&ds.table, &ds.trees).unwrap();
    let actual: Vec<(f64, u64)> = PINNED_RANGES
        .iter()
        .enumerate()
        .map(|(i, &(fraction, _))| {
            let attacked =
                SubsetDeletion::ranges(fraction, 777 + i as u64, "ssn").apply(&release.table);
            (fraction, fnv1a(csv::to_csv(&attacked).as_bytes()))
        })
        .collect();
    let rendered: Vec<String> = actual.iter().map(|(f, h)| format!("({f:?}, {h:#018x})")).collect();
    assert_eq!(actual, PINNED_RANGES, "attacked bytes moved; actual: [{}]", rendered.join(", "));
}

/// (rows, attack seed, FNV-1a of the alteration suspect's CSV, FNV-1a of the
/// deletion suspect's CSV): the `audit` benchmark's attacked suspects — a
/// 30% alteration and an 80% random deletion, each applied to a
/// per-attribute release.
const PINNED_SUSPECTS: [(usize, u64, u64, u64); 3] = [
    (500, 11, 0x0f30_8bf2_396e_f5cc, 0x74e8_6d2a_ff62_2b64),
    (1_500, 12, 0xe360_0495_82ae_3dda, 0xea75_6243_a355_04a8),
    (4_000, 13, 0x5b26_525d_0fab_8d21, 0xa5ab_ba7f_f86c_07cd),
];

#[test]
fn audit_suspect_bytes_match_pinned_hashes() {
    let engine = engine();
    let actual: Vec<(usize, u64, u64, u64)> = PINNED_SUSPECTS
        .iter()
        .map(|&(rows, seed, _, _)| {
            let ds = dataset(rows);
            let release = engine.protect_per_attribute(&ds.table, &ds.trees).unwrap();
            let altered = SubsetAlteration::new(0.3, seed).apply(&release.table);
            let deleted = SubsetDeletion::random(0.8, seed).apply(&release.table);
            assert_eq!(deleted.len(), rows - (rows as f64 * 0.8).round() as usize);
            let hash = |t| fnv1a(csv::to_csv(t).as_bytes());
            (rows, seed, hash(&altered), hash(&deleted))
        })
        .collect();
    let rendered: Vec<String> =
        actual.iter().map(|(n, s, a, d)| format!("({n}, {s}, {a:#018x}, {d:#018x})")).collect();
    assert_eq!(actual, PINNED_SUSPECTS, "suspect bytes moved; actual: [{}]", rendered.join(", "));
}
