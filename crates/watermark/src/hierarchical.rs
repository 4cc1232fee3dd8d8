//! The hierarchical watermarking scheme (Fig. 9 of the paper).
//!
//! **Embedding**: for every keyed-selected tuple and every watermarked
//! column, locate the value's ultimate generalization node, climb to its
//! maximal generalization node, then walk back down, at each level choosing
//! the child whose index parity (within the sorted sibling set) encodes the
//! mark bit assigned to this tuple, until an ultimate generalization node is
//! reached. The same bit is thus written into *every* level between the
//! maximal and the ultimate nodes, which is what defeats the generalization
//! attack: an attacker who re-generalizes the data destroys only the lowest
//! copies.
//!
//! **Detection**: for every selected tuple and column, locate the value's
//! node, and walk up towards its maximal generalization node, reading the
//! parity of the node's index within its sibling set at each level. The
//! copies from the levels are combined by majority voting into one vote for
//! the tuple's bit position; the votes per position are majority-combined
//! into the extended mark `wmd`; the replicated copies inside `wmd` are
//! folded by majority into the final mark.

use crate::error::WatermarkError;
use crate::kernel::{hierarchical_cell_vote, DetectKernel, EmbedKernel, EmbedStyle};
use crate::key::{Mark, WatermarkConfig};
use crate::plan::{DetectPlan, EmbedPlan};
use crate::voting::VoteAccumulator;
use medshield_binning::{BinningOutcome, ColumnBinning};
use medshield_dht::{DomainHierarchyTree, GeneralizationSet, NodeId};
use medshield_relation::Table;
use std::collections::BTreeMap;

/// Statistics of an embedding run (or of one row chunk of a run; chunk
/// reports combine with [`EmbeddingReport::merge`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EmbeddingReport {
    /// Number of tuples selected by Eq. (5).
    pub selected_tuples: usize,
    /// Number of (tuple, column) cells where a bit was embedded.
    pub embedded_cells: usize,
    /// Number of cells whose value actually changed.
    pub changed_cells: usize,
    /// Number of cells skipped because the maximal and ultimate nodes
    /// coincide (no bandwidth at that cell).
    pub skipped_cells: usize,
    /// Length of the extended (duplicated) mark `wmd`.
    pub wmd_len: usize,
}

impl EmbeddingReport {
    /// An all-zero report for a run with the given extended-mark length.
    pub fn empty(wmd_len: usize) -> Self {
        EmbeddingReport {
            selected_tuples: 0,
            embedded_cells: 0,
            changed_cells: 0,
            skipped_cells: 0,
            wmd_len,
        }
    }

    /// Fold another chunk's counters into this report. All counters are
    /// plain sums, so merging chunk reports in any order yields exactly the
    /// sequential run's report.
    pub fn merge(&mut self, other: &EmbeddingReport) {
        debug_assert_eq!(self.wmd_len, other.wmd_len, "reports from different runs");
        self.selected_tuples += other.selected_tuples;
        self.embedded_cells += other.embedded_cells;
        self.changed_cells += other.changed_cells;
        self.skipped_cells += other.skipped_cells;
    }
}

/// Result of a detection run.
///
/// A finished report carries the *resolved* mark, which cannot be merged
/// losslessly; the mergeable intermediate is [`DetectionTally`], which keeps
/// the raw per-position votes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DetectionReport {
    /// The recovered mark bits (length = the configured mark length).
    pub mark: Vec<bool>,
    /// Number of `wmd` positions that received at least one vote.
    pub covered_positions: usize,
    /// Length of the extended mark.
    pub wmd_len: usize,
    /// Number of tuples selected by Eq. (5) during detection.
    pub selected_tuples: usize,
}

impl DetectionReport {
    /// The recovered mark as a [`Mark`].
    pub fn as_mark(&self) -> Mark {
        Mark::from_bits(self.mark.clone())
    }
}

/// The mergeable intermediate of a detection run: per-position vote counts
/// plus the selected-tuple count of the rows scanned so far. One tally per
/// row chunk, merged in any order, resolves to exactly the sequential
/// [`DetectionReport`] (every count is an integer).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DetectionTally {
    votes: VoteAccumulator,
    selected_tuples: usize,
}

impl DetectionTally {
    /// An empty tally for an extended mark of `wmd_len` positions.
    pub fn new(wmd_len: usize) -> Self {
        DetectionTally { votes: VoteAccumulator::new(wmd_len), selected_tuples: 0 }
    }

    /// Fold another chunk's votes and counters into this tally.
    pub fn merge(&mut self, other: &DetectionTally) {
        self.votes.merge(&other.votes);
        self.selected_tuples += other.selected_tuples;
    }

    /// Count one tuple as selected by Eq. (5).
    pub fn note_selected(&mut self) {
        self.selected_tuples += 1;
    }

    /// Record one vote for extended-mark position `pos`. An out-of-range
    /// position is a contract violation (see [`VoteAccumulator::vote`]), not
    /// a silently dropped vote.
    pub fn vote(&mut self, pos: usize, bit: bool) -> Result<(), WatermarkError> {
        self.votes.vote(pos, bit).map_err(WatermarkError::from)
    }

    /// Number of tuples selected by Eq. (5) in the scanned rows.
    pub fn selected_tuples(&self) -> usize {
        self.selected_tuples
    }

    /// Resolve the accumulated votes into a final report for a mark of
    /// `mark_len` bits.
    pub fn into_report(self, mark_len: usize) -> DetectionReport {
        let wmd = self.votes.resolve();
        DetectionReport {
            mark: Mark::fold_majority(&wmd, mark_len),
            covered_positions: self.votes.covered_positions(),
            wmd_len: wmd.len(),
            selected_tuples: self.selected_tuples,
        }
    }
}

/// The hierarchical watermarking agent.
#[derive(Debug, Clone)]
pub struct HierarchicalWatermarker {
    config: WatermarkConfig,
}

impl HierarchicalWatermarker {
    /// Create an agent from a configuration.
    pub fn new(config: WatermarkConfig) -> Self {
        HierarchicalWatermarker { config }
    }

    /// The agent's configuration.
    pub fn config(&self) -> &WatermarkConfig {
        &self.config
    }

    /// Precompute the run-wide embedding state (selector, resolved identity,
    /// extended mark, target columns) for `schema`. The plan is immutable and
    /// can be shared by workers embedding disjoint row chunks.
    pub fn plan_embed<'a>(
        &self,
        schema: &medshield_relation::Schema,
        binning_columns: &'a [ColumnBinning],
        trees: &'a BTreeMap<String, DomainHierarchyTree>,
        mark: &Mark,
    ) -> Result<EmbedPlan<'a>, WatermarkError> {
        EmbedPlan::build(&self.config, schema, binning_columns, trees, mark)
    }

    /// Prepare the columnar embedding kernel for `plan` against `table`:
    /// intern every ultimate node's value into the target columns, and
    /// memoize the per-distinct-value tree resolution. The kernel is
    /// immutable; workers call [`EmbedKernel::run_range`] over disjoint row
    /// ranges of the shared table and the caller writes the resulting edit
    /// lists back with [`EmbedKernel::apply`]. A table of another schema than the plan's
    /// fails with [`WatermarkError::PlanSchemaMismatch`].
    pub fn prepare_embed(
        &self,
        plan: &EmbedPlan<'_>,
        table: &mut Table,
    ) -> Result<EmbedKernel, WatermarkError> {
        EmbedKernel::prepare(plan, table, EmbedStyle::Hierarchical)
    }

    /// `Embedding(tbl, tr, maxgends, ultigends, k1, k2, η, wm)`: watermark the
    /// binned table, returning the watermarked table and a report.
    pub fn embed(
        &self,
        binned: &BinningOutcome,
        trees: &BTreeMap<String, DomainHierarchyTree>,
        mark: &Mark,
    ) -> Result<(Table, EmbeddingReport), WatermarkError> {
        self.embed_into(&binned.table, &binned.columns, trees, mark)
    }

    /// Embed into an arbitrary binned table given its per-column binning
    /// state. This is what an adversary mounting the additive ownership
    /// attack would call (he only holds the released table, not the binning
    /// outcome), and it is also useful for re-marking data received from a
    /// third party.
    pub fn embed_into(
        &self,
        binned_table: &Table,
        binning_columns: &[ColumnBinning],
        trees: &BTreeMap<String, DomainHierarchyTree>,
        mark: &Mark,
    ) -> Result<(Table, EmbeddingReport), WatermarkError> {
        let plan = self.plan_embed(binned_table.schema(), binning_columns, trees, mark)?;
        let mut table = binned_table.snapshot();
        let kernel = self.prepare_embed(&plan, &mut table)?;
        let chunk = kernel.run_range(&plan, &table, 0..table.len())?;
        let report = kernel.apply(&plan, &mut table, vec![chunk])?;
        Ok((table, report))
    }

    /// Precompute the run-wide detection state for `schema`. Target columns
    /// the (attacked) table no longer carries are skipped; a table without
    /// an identifying column fails with [`WatermarkError::NoIdentity`],
    /// since no tuple of it could be selected. The plan is immutable and can
    /// be shared by workers scanning disjoint row chunks.
    pub fn plan_detect<'a>(
        &self,
        schema: &medshield_relation::Schema,
        columns: &'a [ColumnBinning],
        trees: &'a BTreeMap<String, DomainHierarchyTree>,
        mark_len: usize,
    ) -> Result<DetectPlan<'a>, WatermarkError> {
        DetectPlan::build(&self.config, schema, columns, trees, mark_len)
    }

    /// Prepare the columnar detection kernel for `plan` against `table`:
    /// memoize each distinct cell value's climb-and-vote once, so the row
    /// loop is a code lookup plus one PRF per (selected tuple, column).
    /// Workers call [`DetectKernel::run_range`] over disjoint row ranges and
    /// merge the tallies. A table of another schema than the plan's fails
    /// with [`WatermarkError::PlanSchemaMismatch`].
    pub fn prepare_detect(
        &self,
        plan: &DetectPlan<'_>,
        table: &Table,
    ) -> Result<DetectKernel, WatermarkError> {
        DetectKernel::prepare(plan, table, hierarchical_cell_vote)
    }

    /// `Detection(tbl, tr, maxgends, ultigends, k1, k2, η)`: recover the mark
    /// from a (possibly attacked) table. `mark_len` is the length of the
    /// original mark `wm`.
    pub fn detect(
        &self,
        table: &Table,
        columns: &[ColumnBinning],
        trees: &BTreeMap<String, DomainHierarchyTree>,
        mark_len: usize,
    ) -> Result<DetectionReport, WatermarkError> {
        let plan = self.plan_detect(table.schema(), columns, trees, mark_len)?;
        let kernel = self.prepare_detect(&plan, table)?;
        let tally = kernel.run_range(&plan, table, 0..table.len())?;
        Ok(tally.into_report(mark_len))
    }
}

/// Walk up from `node` to its covering maximal generalization node, reading
/// the index parity at each level (bottom-up). Returns `None` when the node
/// is not covered by the maximal set (e.g. the attacker replaced the value by
/// something above the usage metrics), in which case no vote is cast.
pub(crate) fn climb_and_read(
    tree: &DomainHierarchyTree,
    maximal: &GeneralizationSet,
    node: NodeId,
) -> Result<Option<Vec<bool>>, WatermarkError> {
    if maximal.covering_node(tree, node).is_err() {
        return Ok(None);
    }
    let mut bits = Vec::new();
    let mut current = node;
    while !maximal.contains(current) {
        let siblings = tree.siblings(current).map_err(WatermarkError::Dht)?;
        // Singleton sibling sets carry no information, so they cast no vote.
        if siblings.len() > 1 {
            let Some(idx) = DomainHierarchyTree::index_in(current, siblings) else {
                return Ok(Some(bits));
            };
            bits.push(idx % 2 == 1);
        }
        match tree.parent(current).map_err(WatermarkError::Dht)? {
            Some(p) => current = p,
            None => break,
        }
    }
    Ok(Some(bits))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::key::WatermarkKey;
    use medshield_binning::{BinningAgent, BinningConfig};
    use medshield_datagen::{DatasetConfig, MedicalDataset};
    use medshield_metrics::{mark_loss, satisfies_k_anonymity};

    fn binned_dataset(n: usize, k: usize) -> (MedicalDataset, BinningOutcome) {
        let ds = MedicalDataset::generate(&DatasetConfig::small(n));
        let agent = BinningAgent::new(BinningConfig::with_k(k));
        // Maximal generalization nodes given directly as the tree roots (the
        // paper's experimental simplification): the gap between the root and
        // the ultimate nodes is the watermark bandwidth channel.
        let maximal: BTreeMap<String, GeneralizationSet> = ds
            .trees
            .iter()
            .map(|(name, tree)| (name.clone(), GeneralizationSet::at_depth(tree, 0)))
            .collect();
        let outcome = agent.bin(&ds.table, &ds.trees, &maximal).unwrap();
        (ds, outcome)
    }

    fn watermarker(eta: u64) -> (HierarchicalWatermarker, Mark) {
        let key = WatermarkKey::from_master(b"owner-secret", eta);
        let config = WatermarkConfig::new(key);
        (HierarchicalWatermarker::new(config), Mark::from_bytes(b"hospital-alpha", 20))
    }

    #[test]
    fn roundtrip_recovers_the_mark_exactly() {
        let (ds, binned) = binned_dataset(1200, 4);
        let (wm, mark) = watermarker(10);
        let (marked, report) = wm.embed(&binned, &ds.trees, &mark).unwrap();
        assert!(report.selected_tuples > 0);
        assert!(report.embedded_cells > 0);
        let detected = wm.detect(&marked, &binned.columns, &ds.trees, mark.len()).unwrap();
        assert_eq!(detected.mark, mark.bits(), "clean detection must be exact");
        assert_eq!(mark_loss(mark.bits(), &detected.mark), 0.0);
    }

    #[test]
    fn detection_with_wrong_key_fails_to_recover() {
        let (ds, binned) = binned_dataset(1000, 4);
        let (wm, mark) = watermarker(8);
        let (marked, _) = wm.embed(&binned, &ds.trees, &mark).unwrap();
        let wrong = HierarchicalWatermarker::new(WatermarkConfig::new(WatermarkKey::from_master(
            b"attacker-guess",
            8,
        )));
        let detected = wrong.detect(&marked, &binned.columns, &ds.trees, mark.len()).unwrap();
        let loss = mark_loss(mark.bits(), &detected.mark);
        assert!(loss > 0.2, "wrong key should not recover the mark (loss {loss})");
    }

    #[test]
    fn watermarking_preserves_per_attribute_k_anonymity_up_to_epsilon() {
        // The paper's seamlessness claim (§6, Fig. 14) is stated per
        // attribute: after watermarking, no attribute bin drops below k. Bin
        // with a k+ε margin and verify the per-attribute property at k.
        let ds = MedicalDataset::generate(&DatasetConfig::small(1500));
        let mut config = BinningConfig::with_k(4);
        config.spec = medshield_binning::KAnonymitySpec::with_epsilon(4, 4);
        let agent = BinningAgent::new(config);
        let maximal: BTreeMap<String, GeneralizationSet> = ds
            .trees
            .iter()
            .map(|(name, tree)| (name.clone(), GeneralizationSet::at_depth(tree, 0)))
            .collect();
        let binned = agent.bin(&ds.table, &ds.trees, &maximal).unwrap();
        let (wm, mark) = watermarker(10);
        let (marked, _) = wm.embed(&binned, &ds.trees, &mark).unwrap();
        for column in marked.schema().quasi_names() {
            assert!(
                medshield_metrics::column_satisfies_k(&marked, column, 4).unwrap(),
                "column {column} fell below k after watermarking"
            );
        }
        // Keep the multi-attribute checker exercised on the pre-watermark data.
        let quasi = binned.table.schema().quasi_names();
        assert!(satisfies_k_anonymity(&binned.table, &quasi, 8).unwrap());
    }

    #[test]
    fn watermarked_values_remain_within_usage_metrics() {
        let (ds, binned) = binned_dataset(800, 4);
        let (wm, mark) = watermarker(6);
        let (marked, _) = wm.embed(&binned, &ds.trees, &mark).unwrap();
        for cb in &binned.columns {
            let tree = &ds.trees[&cb.column];
            for v in marked.column_values(&cb.column).unwrap() {
                let node = tree.node_for_value(&v).unwrap();
                // Every value sits at or below a maximal generalization node
                // (never above the usage metrics)...
                assert!(cb.maximal.covering_node(tree, node).is_ok());
                // ...and is exactly an ultimate generalization node, because
                // embedding always descends until it reaches one.
                assert!(cb.ultimate.contains(node), "column {} value {v}", cb.column);
            }
        }
    }

    #[test]
    fn smaller_eta_selects_more_tuples_and_changes_more_cells() {
        let (ds, binned) = binned_dataset(1500, 4);
        let (wm_small, mark) = watermarker(5);
        let (wm_large, _) = watermarker(100);
        let (_, report_small) = wm_small.embed(&binned, &ds.trees, &mark).unwrap();
        let (_, report_large) = wm_large.embed(&binned, &ds.trees, &mark).unwrap();
        assert!(report_small.selected_tuples > report_large.selected_tuples);
        assert!(report_small.changed_cells >= report_large.changed_cells);
    }

    #[test]
    fn empty_mark_and_zero_eta_are_rejected() {
        let (ds, binned) = binned_dataset(100, 2);
        let (wm, _) = watermarker(10);
        assert!(matches!(
            wm.embed(&binned, &ds.trees, &Mark::from_bits(vec![])),
            Err(WatermarkError::EmptyMark)
        ));
        assert!(matches!(
            wm.detect(&binned.table, &binned.columns, &ds.trees, 0),
            Err(WatermarkError::EmptyMark)
        ));
        let bad_key = WatermarkKey::new(b"a".to_vec(), b"b".to_vec(), 0);
        let bad = HierarchicalWatermarker::new(WatermarkConfig::new(bad_key));
        assert!(matches!(
            bad.embed(&binned, &ds.trees, &Mark::from_bytes(b"m", 8)),
            Err(WatermarkError::InvalidEta)
        ));
    }

    #[test]
    fn missing_tree_is_reported() {
        let (ds, binned) = binned_dataset(100, 2);
        let (wm, mark) = watermarker(10);
        let mut trees = ds.trees.clone();
        trees.remove("symptom");
        assert!(matches!(
            wm.embed(&binned, &trees, &mark),
            Err(WatermarkError::MissingTree(c)) if c == "symptom"
        ));
    }

    #[test]
    fn detection_on_unwatermarked_table_does_not_match() {
        let (ds, binned) = binned_dataset(1200, 4);
        let (wm, mark) = watermarker(10);
        // Detect directly on the binned (never watermarked) table.
        let detected = wm.detect(&binned.table, &binned.columns, &ds.trees, mark.len()).unwrap();
        let loss = mark_loss(mark.bits(), &detected.mark);
        assert!(loss > 0.15, "unwatermarked data should not contain the mark (loss {loss})");
    }
}
