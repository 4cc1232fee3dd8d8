//! The binning agent: `Binning(tbl, ultigen)` of Fig. 8, orchestrating the
//! whole §4 pipeline and producing the state the watermarking agent consumes.

use crate::config::BinningConfig;
use crate::error::BinningError;
use crate::maximal;
use crate::mono;
use crate::multi::{self, ColumnContext, SearchMode};
use crate::plan::{resolve_column_leaves, ColumnLeaves};
use medshield_crypto::Aes128;
use medshield_dht::{DomainHierarchyTree, GeneralizationSet};
use medshield_metrics::usage::UsageBounds;
use medshield_relation::{Table, Value};
use std::collections::BTreeMap;

/// Binning state of one quasi-identifying column: the three node sets of the
/// paper (maximal from the usage metrics, minimal from mono-attribute
/// binning, ultimate from multi-attribute binning).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ColumnBinning {
    /// Column name.
    pub column: String,
    /// Maximal generalization nodes (usage metrics).
    pub maximal: GeneralizationSet,
    /// Minimal generalization nodes (mono-attribute binning).
    pub minimal: GeneralizationSet,
    /// Ultimate generalization nodes (multi-attribute binning) — the
    /// generalization actually applied to the data.
    pub ultimate: GeneralizationSet,
}

/// The result of binning a table.
#[derive(Debug, Clone)]
pub struct BinningOutcome {
    /// The binned table: identifying columns encrypted, quasi-identifying
    /// values replaced by their ultimate generalization node's value.
    pub table: Table,
    /// Per-column binning state, in schema order of the quasi columns.
    pub columns: Vec<ColumnBinning>,
    /// The k that binning enforced (k + ε).
    pub effective_k: usize,
    /// Whether the result satisfies k-anonymity over the quasi-identifier
    /// combination at the effective k.
    pub satisfied: bool,
    /// Which multi-attribute search mode ran.
    pub mode: SearchMode,
    /// Warnings gathered along the pipeline (unbinnable subtrees, fallbacks).
    pub warnings: Vec<String>,
}

impl BinningOutcome {
    /// The binning state of a specific column, if it was binned.
    pub fn column(&self, name: &str) -> Option<&ColumnBinning> {
        self.columns.iter().find(|c| c.column == name)
    }
}

/// The binning agent of the framework (Fig. 2, left box).
#[derive(Debug, Clone)]
pub struct BinningAgent {
    config: BinningConfig,
    cipher: Aes128,
}

impl BinningAgent {
    /// Create an agent from a configuration. The identifier-encryption key is
    /// derived from `config.encryption_secret`.
    pub fn new(config: BinningConfig) -> Self {
        let cipher = Aes128::from_secret(&config.encryption_secret);
        BinningAgent { config, cipher }
    }

    /// The agent's configuration.
    pub fn config(&self) -> &BinningConfig {
        &self.config
    }

    /// The cipher used for the identifying columns (`E()` of Fig. 8). The
    /// rightful-ownership protocol needs it to decrypt the identifiers in
    /// court (§5.4).
    pub fn cipher(&self) -> &Aes128 {
        &self.cipher
    }

    /// Bin `table` using maximal generalization nodes stated directly per
    /// column (the paper's experimental setup).
    pub fn bin(
        &self,
        table: &Table,
        trees: &BTreeMap<String, DomainHierarchyTree>,
        maximal: &BTreeMap<String, GeneralizationSet>,
    ) -> Result<BinningOutcome, BinningError> {
        let mut warnings = Vec::new();
        let (mut columns, leaves) = self.mono_stage(table, trees, maximal, &mut warnings)?;
        let effective_k = self.config.spec.effective_k();

        // Multi-attribute binning across all columns.
        let contexts: Vec<ColumnContext<'_>> = columns
            .iter()
            .map(|cb| ColumnContext {
                column: &cb.column,
                tree: &trees[&cb.column],
                minimal: &cb.minimal,
                maximal: &cb.maximal,
            })
            .collect();
        let multi = multi::ultimate_nodes(
            &contexts,
            &leaves,
            effective_k,
            self.config.selection_strategy,
            self.config.exhaustive_limit,
            self.config.threads,
        )?;
        warnings.extend(multi.warnings);
        for (cb, ultimate) in columns.iter_mut().zip(multi.ultimate) {
            // A column the search left at its minimal nodes keeps one
            // shared node list for both sets.
            if ultimate != cb.minimal {
                cb.ultimate = ultimate;
            }
        }

        Ok(BinningOutcome {
            table: self.apply(table, trees, &columns)?,
            columns,
            effective_k,
            satisfied: multi.satisfied,
            mode: multi.mode,
            warnings,
        })
    }

    /// Bin `table` enforcing k-anonymity **per attribute only** (the
    /// mono-attribute stage of Fig. 5, skipping multi-attribute binning).
    ///
    /// This is the granularity at which the paper's §6 interference analysis
    /// and its Fig. 14 experiment operate: each attribute's bins hold at
    /// least k records, which leaves far more per-attribute granularity (and
    /// therefore watermark bandwidth) than the full combination requirement.
    /// The returned outcome uses the minimal generalization nodes as the
    /// ultimate generalization.
    pub fn bin_per_attribute(
        &self,
        table: &Table,
        trees: &BTreeMap<String, DomainHierarchyTree>,
        maximal: &BTreeMap<String, GeneralizationSet>,
    ) -> Result<BinningOutcome, BinningError> {
        let mut warnings = Vec::new();
        let (columns, _) = self.mono_stage(table, trees, maximal, &mut warnings)?;
        Ok(BinningOutcome {
            table: self.apply(table, trees, &columns)?,
            columns,
            effective_k: self.config.spec.effective_k(),
            satisfied: warnings.is_empty(),
            mode: SearchMode::PerAttribute,
            warnings,
        })
    }

    /// The mono-attribute stage both `bin` and `bin_per_attribute` start
    /// with: per quasi column in schema order, resolve its rows to leaves
    /// once and compute its minimal nodes (`GenMinNd`, Fig. 5) below its
    /// maximal nodes (root-only when `maximal` states none). Each column's
    /// ultimate set starts out as its minimal set. Returns the columns and
    /// their resolved leaves, which the multi-attribute search reuses.
    fn mono_stage(
        &self,
        table: &Table,
        trees: &BTreeMap<String, DomainHierarchyTree>,
        maximal: &BTreeMap<String, GeneralizationSet>,
        warnings: &mut Vec<String>,
    ) -> Result<(Vec<ColumnBinning>, Vec<ColumnLeaves>), BinningError> {
        if self.config.threads == 0 {
            return Err(BinningError::InvalidThreads);
        }
        let k = self.config.spec.effective_k();
        let mut columns = Vec::new();
        let mut leaves = Vec::new();
        for column in table.schema().quasi_names() {
            let tree =
                trees.get(column).ok_or_else(|| BinningError::MissingTree(column.to_string()))?;
            if k == 0 {
                return Err(BinningError::InvalidK);
            }
            let max_nodes =
                maximal.get(column).cloned().unwrap_or_else(|| GeneralizationSet::root_only(tree));
            let col = resolve_column_leaves(table, column, tree)?;
            let mono = mono::minimal_nodes(
                column,
                tree,
                &col,
                &max_nodes,
                k,
                self.config.minimal_strategy,
            )?;
            warnings.extend(mono.warnings);
            columns.push(ColumnBinning {
                column: column.to_string(),
                maximal: max_nodes,
                minimal: mono.minimal.clone(),
                ultimate: mono.minimal,
            });
            leaves.push(col);
        }
        Ok((columns, leaves))
    }

    /// `Binning(tbl, ultigen)` of Fig. 8: a copy of `table` with every
    /// identifying column encrypted and every binned column replaced by its
    /// ultimate generalization. Each column is rewritten once per distinct
    /// value its rows reference. A cell that cannot be generalized fails the
    /// whole step with the error of the first such cell in row-major order.
    fn apply(
        &self,
        table: &Table,
        trees: &BTreeMap<String, DomainHierarchyTree>,
        binned: &[ColumnBinning],
    ) -> Result<Table, BinningError> {
        let schema = table.schema();
        let identifying = schema.identifying_indices();
        let mut columns = identifying.clone();
        let mut generalizations = Vec::with_capacity(binned.len());
        for cb in binned {
            columns.push(schema.index_of(&cb.column)?);
            generalizations.push((&trees[&cb.column], &cb.ultimate));
        }
        table.map_distinct(&columns, |position, value| {
            match position.checked_sub(identifying.len()) {
                None => Ok(Value::Text(self.cipher.encrypt_value(&value.canonical_bytes()))),
                Some(i) => {
                    let (tree, set) = generalizations[i];
                    set.generalize_value(tree, value).map_err(BinningError::Dht)
                }
            }
        })
    }

    /// Bin `table` under information-loss bounds (Eq. 4): first translate the
    /// bounds off-line into maximal generalization nodes, then bin.
    pub fn bin_with_bounds(
        &self,
        table: &Table,
        trees: &BTreeMap<String, DomainHierarchyTree>,
        bounds: &UsageBounds,
    ) -> Result<BinningOutcome, BinningError> {
        let mut maximal = BTreeMap::new();
        for column in table.schema().quasi_names() {
            let tree =
                trees.get(column).ok_or_else(|| BinningError::MissingTree(column.to_string()))?;
            let nodes =
                maximal::maximal_nodes_for_bound(table, column, tree, bounds.bound_for(column))?;
            maximal.insert(column.to_string(), nodes);
        }
        self.bin(table, trees, &maximal)
    }

    /// Decrypt an encrypted identifier produced by [`BinningAgent::bin`],
    /// returning the canonical bytes of the original value. Needed by the
    /// rightful-ownership protocol.
    pub fn decrypt_identifier(&self, encrypted: &str) -> Result<Vec<u8>, BinningError> {
        self.cipher
            .decrypt_value(encrypted)
            .map_err(|e| BinningError::NotBinnable { k: 0, reason: format!("decrypt failed: {e}") })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{BinningConfig, KAnonymitySpec};
    use medshield_datagen::{ontology, DatasetConfig, MedicalDataset};
    use medshield_metrics::{anonymity, satisfies_k_anonymity};

    fn maximal_at_depth(
        trees: &BTreeMap<String, DomainHierarchyTree>,
        depth: usize,
    ) -> BTreeMap<String, GeneralizationSet> {
        trees
            .iter()
            .map(|(name, tree)| (name.clone(), GeneralizationSet::at_depth(tree, depth)))
            .collect()
    }

    fn small_dataset(n: usize) -> MedicalDataset {
        MedicalDataset::generate(&DatasetConfig::small(n))
    }

    #[test]
    fn binned_table_satisfies_k_anonymity() {
        let ds = small_dataset(400);
        let agent = BinningAgent::new(BinningConfig::with_k(5));
        // Allow generalization all the way to the root.
        let maximal = maximal_at_depth(&ds.trees, 0);
        let outcome = agent.bin(&ds.table, &ds.trees, &maximal).unwrap();
        assert!(outcome.satisfied, "warnings: {:?}", outcome.warnings);
        let quasi = ds.table.schema().quasi_names();
        assert!(satisfies_k_anonymity(&outcome.table, &quasi, 5).unwrap());
        assert_eq!(outcome.effective_k, 5);
    }

    #[test]
    fn identifying_column_is_encrypted_and_recoverable() {
        let ds = small_dataset(50);
        let agent = BinningAgent::new(BinningConfig::with_k(2));
        let maximal = maximal_at_depth(&ds.trees, 0);
        let outcome = agent.bin(&ds.table, &ds.trees, &maximal).unwrap();
        let originals = ds.table.column_values("ssn").unwrap();
        let encrypted = outcome.table.column_values("ssn").unwrap();
        assert_eq!(originals.len(), encrypted.len());
        for (original, binned) in originals.iter().zip(&encrypted) {
            let enc = binned.as_text().unwrap();
            assert_ne!(Some(enc), original.as_text(), "ssn must change");
            let decrypted = agent.decrypt_identifier(enc).unwrap();
            assert_eq!(decrypted, original.canonical_bytes());
        }
    }

    #[test]
    fn encryption_is_one_to_one() {
        let ds = small_dataset(100);
        let agent = BinningAgent::new(BinningConfig::with_k(2));
        let maximal = maximal_at_depth(&ds.trees, 0);
        let outcome = agent.bin(&ds.table, &ds.trees, &maximal).unwrap();
        let mut seen = std::collections::HashSet::new();
        for ssn in outcome.table.column_values("ssn").unwrap() {
            assert!(seen.insert(ssn), "duplicate encrypted identifier");
        }
    }

    #[test]
    fn quasi_values_are_generalized_within_the_ultimate_sets() {
        let ds = small_dataset(300);
        let agent = BinningAgent::new(BinningConfig::with_k(8));
        let maximal = maximal_at_depth(&ds.trees, 0);
        let outcome = agent.bin(&ds.table, &ds.trees, &maximal).unwrap();
        for cb in &outcome.columns {
            let tree = &ds.trees[&cb.column];
            // Ultimate nodes respect the usage metrics.
            assert!(cb.ultimate.is_at_or_below(tree, &cb.maximal).unwrap());
            // Minimal nodes are at or below the ultimate ones (ultimate is a
            // coarsening of minimal).
            assert!(cb.minimal.is_at_or_below(tree, &cb.ultimate).unwrap());
            // Every value in the binned column is exactly an ultimate node's value.
            for v in outcome.table.column_values(&cb.column).unwrap() {
                let node = tree.node_for_value(&v).unwrap();
                assert!(
                    cb.ultimate.contains(node),
                    "column {} value {v} is not an ultimate generalization node",
                    cb.column
                );
            }
        }
    }

    #[test]
    fn mono_binning_alone_satisfies_per_column_k() {
        let ds = small_dataset(500);
        let agent = BinningAgent::new(BinningConfig::with_k(10));
        let maximal = maximal_at_depth(&ds.trees, 0);
        let outcome = agent.bin(&ds.table, &ds.trees, &maximal).unwrap();
        for cb in &outcome.columns {
            assert!(
                anonymity::column_satisfies_k(&outcome.table, &cb.column, 10).unwrap(),
                "column {} violates per-column k",
                cb.column
            );
        }
    }

    #[test]
    fn epsilon_margin_raises_effective_k() {
        let ds = small_dataset(300);
        let mut config = BinningConfig::with_k(4);
        config.spec = KAnonymitySpec::with_epsilon(4, 2);
        let agent = BinningAgent::new(config);
        let maximal = maximal_at_depth(&ds.trees, 0);
        let outcome = agent.bin(&ds.table, &ds.trees, &maximal).unwrap();
        assert_eq!(outcome.effective_k, 6);
        let quasi = ds.table.schema().quasi_names();
        assert!(satisfies_k_anonymity(&outcome.table, &quasi, 6).unwrap());
    }

    #[test]
    fn missing_tree_is_reported() {
        let ds = small_dataset(20);
        let agent = BinningAgent::new(BinningConfig::with_k(2));
        let mut trees = ds.trees.clone();
        trees.remove("age");
        let maximal = maximal_at_depth(&trees, 0);
        assert!(matches!(
            agent.bin(&ds.table, &trees, &maximal),
            Err(BinningError::MissingTree(c)) if c == "age"
        ));
    }

    #[test]
    fn restrictive_usage_metrics_can_make_data_unbinnable() {
        let ds = small_dataset(200);
        let agent = BinningAgent::new(BinningConfig::with_k(50));
        // Usage metrics forbid any generalization at all.
        let maximal: BTreeMap<String, GeneralizationSet> = ds
            .trees
            .iter()
            .map(|(name, tree)| (name.clone(), GeneralizationSet::all_leaves(tree)))
            .collect();
        let outcome = agent.bin(&ds.table, &ds.trees, &maximal).unwrap();
        assert!(!outcome.satisfied);
        assert!(!outcome.warnings.is_empty());
    }

    #[test]
    fn bin_with_bounds_enforces_loss_limits() {
        let ds = small_dataset(300);
        let agent = BinningAgent::new(BinningConfig::with_k(3));
        let quasi = ds.table.schema().quasi_names();
        let bounds = UsageBounds::uniform(&quasi, 0.6);
        let outcome = agent.bin_with_bounds(&ds.table, &ds.trees, &bounds).unwrap();
        // Measure the loss of the applied generalization against the bounds.
        let cgs: Vec<medshield_metrics::ColumnGeneralization<'_>> = outcome
            .columns
            .iter()
            .map(|cb| medshield_metrics::ColumnGeneralization {
                column: &cb.column,
                tree: &ds.trees[&cb.column],
                generalization: &cb.ultimate,
            })
            .collect();
        let check = bounds.check(&ds.table, &cgs).unwrap();
        assert!(check.all_ok(), "{check:?}");
    }

    #[test]
    fn default_maximal_is_root_when_not_specified() {
        let ds = small_dataset(100);
        let agent = BinningAgent::new(BinningConfig::with_k(5));
        // Empty maximal map → every column defaults to root-only (no usage
        // restriction).
        let outcome = agent.bin(&ds.table, &ds.trees, &BTreeMap::new()).unwrap();
        assert!(outcome.satisfied);
    }

    #[test]
    fn higher_k_loses_at_least_as_much_information() {
        let ds = small_dataset(600);
        let maximal = maximal_at_depth(&ds.trees, 0);
        let mut last_loss = -1.0f64;
        for k in [2usize, 10, 40] {
            let agent = BinningAgent::new(BinningConfig::with_k(k));
            let outcome = agent.bin(&ds.table, &ds.trees, &maximal).unwrap();
            let cgs: Vec<medshield_metrics::ColumnGeneralization<'_>> = outcome
                .columns
                .iter()
                .map(|cb| medshield_metrics::ColumnGeneralization {
                    column: &cb.column,
                    tree: &ds.trees[&cb.column],
                    generalization: &cb.ultimate,
                })
                .collect();
            let loss = medshield_metrics::table_info_loss(&ds.table, &cgs).unwrap();
            // The greedy multi-attribute search is a heuristic, so the loss is
            // only approximately monotone in k; allow a small slack.
            assert!(
                loss >= last_loss - 0.05,
                "k={k}: loss {loss} decreased sharply from {last_loss}"
            );
            last_loss = loss.max(last_loss);
        }
    }

    #[test]
    fn per_attribute_binning_keeps_more_granularity() {
        let ds = small_dataset(800);
        let agent = BinningAgent::new(BinningConfig::with_k(8));
        let maximal = maximal_at_depth(&ds.trees, 0);
        let per_attr = agent.bin_per_attribute(&ds.table, &ds.trees, &maximal).unwrap();
        let full = agent.bin(&ds.table, &ds.trees, &maximal).unwrap();
        assert_eq!(per_attr.mode, crate::multi::SearchMode::PerAttribute);
        // Every attribute satisfies k on its own...
        for cb in &per_attr.columns {
            assert!(
                anonymity::column_satisfies_k(&per_attr.table, &cb.column, 8).unwrap(),
                "column {}",
                cb.column
            );
            // ...and the per-attribute ultimate equals the minimal nodes.
            assert_eq!(cb.ultimate, cb.minimal);
        }
        // Per-attribute binning never generalizes more than the full pipeline.
        let per_attr_nodes: usize = per_attr.columns.iter().map(|c| c.ultimate.len()).sum();
        let full_nodes: usize = full.columns.iter().map(|c| c.ultimate.len()).sum();
        assert!(per_attr_nodes >= full_nodes);
    }

    #[test]
    fn an_ultimate_equal_to_minimal_shares_its_storage() {
        let ds = small_dataset(800);
        let agent = BinningAgent::new(BinningConfig::with_k(8));
        let maximal = maximal_at_depth(&ds.trees, 0);
        let per_attr = agent.bin_per_attribute(&ds.table, &ds.trees, &maximal).unwrap();
        for cb in &per_attr.columns {
            assert!(
                cb.ultimate.nodes().as_ptr() == cb.minimal.nodes().as_ptr(),
                "column {}",
                cb.column
            );
        }
        let full = agent.bin(&ds.table, &ds.trees, &maximal).unwrap();
        for cb in &full.columns {
            assert_eq!(
                cb.ultimate.nodes().as_ptr() == cb.minimal.nodes().as_ptr(),
                cb.ultimate == cb.minimal
            );
        }
    }

    #[test]
    fn role_tree_is_exercised_by_column_lookup() {
        // `ontology::role_tree` is the paper's Fig. 1; keep it wired into at
        // least one binning-level test for coverage of the example tree.
        let tree = ontology::role_tree();
        assert!(tree.node_by_label("Paramedic").is_ok());
    }
}
