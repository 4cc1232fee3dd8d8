//! Interference of watermarking with binning: the §6 analysis (Lemmas 1–2)
//! and the Fig. 14 measurements.
//!
//! Restricting attention to one quasi-identifying column whose tree has
//! maximal generalization nodes `N_1..N_m` with `n_i` ultimate generalization
//! nodes under `N_i`, the paper shows that a single bit-embedding decreases
//! the size of a particular bin (under `N_k`) with probability
//! `Pr⁻ = (n_k − 1) / (n_k · Σ_i n_i)` and increases it with the same
//! probability `Pr⁺`, so on average watermarking neither grows nor shrinks
//! any bin. [`analytic_interference`] computes those probabilities from the
//! binning state; [`measure_interference`] produces the empirical Fig. 14
//! table (total bins / bins changed / bins below k) by comparing the binned
//! and the watermarked tables.

use medshield_binning::ColumnBinning;
use medshield_dht::DomainHierarchyTree;
use medshield_metrics::bin_stats::{column_bin_report, BinReport};
use medshield_relation::{RelationError, Table};
use std::collections::BTreeMap;

/// Analytic interference figures for one column (§6).
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnInterference {
    /// Column name.
    pub column: String,
    /// Number of maximal generalization nodes `m`.
    pub maximal_nodes: usize,
    /// Total number of ultimate generalization nodes `Σ n_i`.
    pub ultimate_nodes: usize,
    /// Per-maximal-node probability that one bit-embedding shrinks a bin
    /// under that node by one (`Pr⁻` of Lemma 1), averaged over the maximal
    /// nodes.
    pub pr_minus: f64,
    /// The corresponding `Pr⁺` of Lemma 2 (equal to `pr_minus` by the
    /// lemmas; kept separate so tests can assert the equality explicitly).
    pub pr_plus: f64,
}

/// Compute the Lemma 1/2 probabilities for every binned column.
pub fn analytic_interference(
    columns: &[ColumnBinning],
    trees: &BTreeMap<String, DomainHierarchyTree>,
) -> Vec<ColumnInterference> {
    let mut out = Vec::with_capacity(columns.len());
    for cb in columns {
        let Some(tree) = trees.get(&cb.column) else { continue };
        let total_ultimate = cb.ultimate.len() as f64;
        let mut pr_minus_sum = 0.0;
        let mut counted = 0usize;
        for &max_node in cb.maximal.nodes() {
            // n_k: ultimate generalization nodes under this maximal node.
            let n_k = cb
                .ultimate
                .nodes()
                .iter()
                .filter(|&&u| tree.is_ancestor_or_self(max_node, u).unwrap_or(false))
                .count() as f64;
            if n_k == 0.0 || total_ultimate == 0.0 {
                continue;
            }
            pr_minus_sum += (n_k - 1.0) / (n_k * total_ultimate);
            counted += 1;
        }
        let pr = if counted == 0 { 0.0 } else { pr_minus_sum / counted as f64 };
        out.push(ColumnInterference {
            column: cb.column.clone(),
            maximal_nodes: cb.maximal.len(),
            ultimate_nodes: cb.ultimate.len(),
            pr_minus: pr,
            pr_plus: pr,
        });
    }
    out
}

/// The empirical Fig. 14 table: per quasi-identifying column, the bin report
/// comparing the binned table with the watermarked table at parameter `k`.
pub fn measure_interference(
    binned: &Table,
    watermarked: &Table,
    k: usize,
) -> Result<Vec<(String, BinReport)>, RelationError> {
    let mut out = Vec::new();
    for column in binned.schema().quasi_names() {
        let report = column_bin_report(binned, watermarked, column, k)?;
        out.push((column.to_string(), report));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ProtectionConfig, ProtectionEngine};
    use medshield_datagen::{DatasetConfig, MedicalDataset};

    fn protected(n: usize, k: usize, eta: u64) -> (MedicalDataset, crate::ProtectedRelease) {
        let ds = MedicalDataset::generate(&DatasetConfig::small(n));
        let p = ProtectionEngine::sequential(ProtectionConfig::builder().k(k).eta(eta).build());
        let release = p.protect(&ds.table, &ds.trees).unwrap();
        (ds, release)
    }

    #[test]
    fn lemma_1_and_2_probabilities_are_equal_and_bounded() {
        let (ds, release) = protected(800, 5, 10);
        let analysis = analytic_interference(&release.binning.columns, &ds.trees);
        assert_eq!(analysis.len(), release.binning.columns.len());
        for a in &analysis {
            assert_eq!(a.pr_minus, a.pr_plus, "Lemma 1 = Lemma 2 for {}", a.column);
            assert!(a.pr_minus >= 0.0 && a.pr_minus <= 1.0);
            assert!(a.ultimate_nodes >= 1);
            assert!(a.maximal_nodes >= 1);
        }
    }

    #[test]
    fn single_ultimate_node_has_zero_interference() {
        // When a maximal node has exactly one ultimate node under it, the
        // permutation can only return the same bin: Pr⁻ = 0.
        let (ds, release) = protected(150, 60, 5);
        let analysis = analytic_interference(&release.binning.columns, &ds.trees);
        for a in analysis {
            let cb = release.binning.column(&a.column).unwrap();
            if cb.ultimate.len() == 1 {
                assert_eq!(a.pr_minus, 0.0);
            }
        }
    }

    #[test]
    fn fig14_style_measurement_reports_every_quasi_column() {
        let (_, release) = protected(1000, 5, 10);
        let reports = measure_interference(&release.binning.table, &release.table, 5).unwrap();
        assert_eq!(reports.len(), 5);
        for (column, report) in &reports {
            assert!(report.total_bins >= 1, "{column}");
            assert!(report.changed_bins <= report.total_bins);
        }
        // The headline claim of Fig. 14: watermarking changes bin sizes but
        // does not push bins below k (up to the tiny ε the paper discusses).
        let below: usize = reports.iter().map(|(_, r)| r.below_k).sum();
        let total: usize = reports.iter().map(|(_, r)| r.total_bins).sum();
        assert!(below * 20 <= total, "too many bins fell below k: {below} of {total}");
    }

    #[test]
    fn unknown_trees_are_skipped_in_the_analysis() {
        let (ds, release) = protected(200, 4, 10);
        let mut trees = ds.trees.clone();
        trees.remove("age");
        let analysis = analytic_interference(&release.binning.columns, &trees);
        assert_eq!(analysis.len(), release.binning.columns.len() - 1);
    }
}
