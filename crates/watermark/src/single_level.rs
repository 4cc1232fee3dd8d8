//! The single-level watermarking scheme of §5.2 — the baseline that the
//! generalization attack defeats.
//!
//! The scheme permutes values only at the level of the ultimate
//! generalization nodes: the bit is carried by the parity of the chosen
//! node's index within its sorted sibling set. Because the bit lives at that
//! one level only, an attacker who further generalizes every value (which is
//! still an allowable generalization as long as the maximal nodes permit it)
//! destroys the embedded bits without knowing the watermarking key. The
//! hierarchical scheme in [`crate::hierarchical`] exists precisely to close
//! this hole; this module is kept as the comparison baseline used in the
//! ablation experiment.

use crate::error::WatermarkError;
use crate::kernel::{single_level_cell_vote, DetectKernel, EmbedKernel, EmbedStyle};
use crate::key::{Mark, WatermarkConfig};
use crate::plan::{DetectPlan, EmbedPlan};
use medshield_binning::{BinningOutcome, ColumnBinning};
use medshield_dht::DomainHierarchyTree;
use medshield_relation::Table;
use std::collections::BTreeMap;

/// The single-level watermarking agent (baseline).
#[derive(Debug, Clone)]
pub struct SingleLevelWatermarker {
    config: WatermarkConfig,
}

impl SingleLevelWatermarker {
    /// Create an agent from a configuration.
    pub fn new(config: WatermarkConfig) -> Self {
        SingleLevelWatermarker { config }
    }

    /// Embed the mark by permuting each selected value within the sibling set
    /// of its ultimate generalization node.
    pub fn embed(
        &self,
        binned: &BinningOutcome,
        trees: &BTreeMap<String, DomainHierarchyTree>,
        mark: &Mark,
    ) -> Result<Table, WatermarkError> {
        let plan =
            EmbedPlan::build(&self.config, binned.table.schema(), &binned.columns, trees, mark)?;
        let mut table = binned.table.snapshot();
        let kernel = EmbedKernel::prepare(&plan, &mut table, EmbedStyle::SingleLevel)?;
        let chunk = kernel.run_range(&plan, &table, 0..table.len())?;
        kernel.apply(&plan, &mut table, vec![chunk])?;
        Ok(table)
    }

    /// Detect the mark by reading the parity of each selected value's
    /// ultimate-node index within its sibling set. Values that are no longer
    /// ultimate generalization nodes (e.g. after a generalization attack)
    /// yield no vote — which is exactly the scheme's weakness.
    pub fn detect(
        &self,
        table: &Table,
        columns: &[ColumnBinning],
        trees: &BTreeMap<String, DomainHierarchyTree>,
        mark_len: usize,
    ) -> Result<Vec<bool>, WatermarkError> {
        let plan = DetectPlan::build(&self.config, table.schema(), columns, trees, mark_len)?;
        let kernel = DetectKernel::prepare(&plan, table, single_level_cell_vote)?;
        let tally = kernel.run_range(&plan, table, 0..table.len())?;
        Ok(tally.into_report(mark_len).mark)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::key::WatermarkKey;
    use medshield_binning::{BinningAgent, BinningConfig};
    use medshield_datagen::{DatasetConfig, MedicalDataset};
    use medshield_dht::GeneralizationSet;
    use medshield_metrics::mark_loss;

    fn binned(n: usize, k: usize) -> (MedicalDataset, BinningOutcome) {
        let ds = MedicalDataset::generate(&DatasetConfig::small(n));
        let agent = BinningAgent::new(BinningConfig::with_k(k));
        let maximal: BTreeMap<String, GeneralizationSet> = ds
            .trees
            .iter()
            .map(|(name, tree)| (name.clone(), GeneralizationSet::at_depth(tree, 1)))
            .collect();
        let outcome = agent.bin(&ds.table, &ds.trees, &maximal).unwrap();
        (ds, outcome)
    }

    #[test]
    fn single_level_roundtrip_without_attack() {
        let (ds, outcome) = binned(1200, 4);
        let key = WatermarkKey::from_master(b"owner", 8);
        let wm = SingleLevelWatermarker::new(WatermarkConfig::new(key));
        let mark = Mark::from_bytes(b"single-level", 20);
        let marked = wm.embed(&outcome, &ds.trees, &mark).unwrap();
        let detected = wm.detect(&marked, &outcome.columns, &ds.trees, mark.len()).unwrap();
        let loss = mark_loss(mark.bits(), &detected);
        assert!(
            loss <= 0.1,
            "clean single-level detection should mostly recover the mark (loss {loss})"
        );
    }

    #[test]
    fn values_stay_at_ultimate_level() {
        let (ds, outcome) = binned(600, 4);
        let key = WatermarkKey::from_master(b"owner", 6);
        let wm = SingleLevelWatermarker::new(WatermarkConfig::new(key));
        let mark = Mark::from_bytes(b"x", 16);
        let marked = wm.embed(&outcome, &ds.trees, &mark).unwrap();
        for cb in &outcome.columns {
            let tree = &ds.trees[&cb.column];
            for v in marked.column_values(&cb.column).unwrap() {
                let node = tree.node_for_value(&v).unwrap();
                assert!(cb.ultimate.contains(node));
            }
        }
    }

    #[test]
    fn empty_mark_rejected() {
        let (ds, outcome) = binned(50, 2);
        let key = WatermarkKey::from_master(b"owner", 4);
        let wm = SingleLevelWatermarker::new(WatermarkConfig::new(key));
        assert!(matches!(
            wm.embed(&outcome, &ds.trees, &Mark::from_bits(vec![])),
            Err(WatermarkError::EmptyMark)
        ));
        assert!(matches!(
            wm.detect(&outcome.table, &outcome.columns, &ds.trees, 0),
            Err(WatermarkError::EmptyMark)
        ));
    }
}
