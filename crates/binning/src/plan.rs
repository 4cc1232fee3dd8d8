//! Precomputed state for the binning search.
//!
//! Both binning stages read a quasi column the same way: every row resolved
//! to its leaf node, and entries counted per node. [`ColumnLeaves`] holds
//! that, built once per column by the agent and handed to mono-attribute
//! binning (`GenMinNd`, which counts entries under nodes) and to the
//! multi-attribute search (`GenUltiNd`, which keys rows by leaf).
//!
//! The exhaustive `GenUltiNd` search (Fig. 7) scores every combination of
//! allowable per-column generalizations. Two ingredients of a candidate
//! depend only on *(column, option)*, not on the candidate as a whole, so a
//! [`SearchPlan`] computes them once:
//!
//! * each occurring leaf's covering bin, numbered densely `0..bins` in
//!   first-seen leaf order, plus the option's bin count;
//! * the option's selection score.
//!
//! With the plan in place, checking one candidate is a tight loop over the
//! rows (dense lookups and integer arithmetic into a scratch counter) —
//! pure, immutable-input work that [`crate::multi`] shards across worker
//! threads.

use crate::config::SelectionStrategy;
use crate::error::BinningError;
use crate::multi::ColumnContext;
use medshield_dht::{DhtError, DhtKind, DomainHierarchyTree, GeneralizationSet, NodeId};
use medshield_relation::Table;

/// One column's resolved leaf structure: the distinct occurring leaves (the
/// dense index space), each row's leaf as a dense index, and the entries
/// under every node of the tree.
#[derive(Debug, Clone)]
pub(crate) struct ColumnLeaves {
    /// Distinct occurring leaves, in first-seen row order.
    pub leaves: Vec<NodeId>,
    /// Every row's leaf as an index into `leaves`.
    pub row_leaf_ix: Vec<u32>,
    /// Entries whose leaf lies under each node, indexed by `NodeId`.
    entries_under: Vec<usize>,
}

impl ColumnLeaves {
    /// `NumTuple` (Fig. 5): the number of entries whose leaf lies under
    /// `node`.
    pub fn count_under(&self, node: NodeId) -> Result<usize, BinningError> {
        self.entries_under
            .get(node.0 as usize)
            .copied()
            .ok_or(BinningError::Dht(DhtError::UnknownNode(node)))
    }
}

/// Resolve every row of `column` to its leaf node, one dictionary *code* at
/// a time: each code is resolved once, as rows first reference it (the
/// per-row work is a vector lookup). Stale dictionary entries never hit
/// `leaf_for_value`, and distinct values can share a leaf (10 and 12 both
/// fall in [0,25)), so the dense index space is allocated per leaf in
/// first-seen row order.
pub(crate) fn resolve_column_leaves(
    table: &Table,
    column: &str,
    tree: &DomainHierarchyTree,
) -> Result<ColumnLeaves, BinningError> {
    let column = &table.columns()[table.schema().index_of(column)?];
    let mut dense_ix: Vec<Option<u32>> = vec![None; tree.node_count()];
    let mut leaves: Vec<NodeId> = Vec::new();
    let mut row_leaf_ix: Vec<u32> = Vec::with_capacity(table.len());
    let mut per_code: Vec<Option<u32>> = vec![None; column.dict().len()];
    let mut entries_under = vec![0usize; tree.node_count()];
    for &code in column.codes() {
        let ix = match per_code[code as usize] {
            Some(ix) => ix,
            None => {
                let leaf = tree.leaf_for_value(&column.dict()[code as usize])?;
                let ix = *dense_ix[leaf.0 as usize].get_or_insert_with(|| {
                    leaves.push(leaf);
                    (leaves.len() - 1) as u32
                });
                per_code[code as usize] = Some(ix);
                ix
            }
        };
        entries_under[leaves[ix as usize].0 as usize] += 1;
        row_leaf_ix.push(ix);
    }
    for &leaf in &leaves {
        let n = entries_under[leaf.0 as usize];
        let mut node = tree.parent(leaf)?;
        while let Some(id) = node {
            entries_under[id.0 as usize] += n;
            node = tree.parent(id)?;
        }
    }
    Ok(ColumnLeaves { leaves, row_leaf_ix, entries_under })
}

/// One column's precomputed candidate options.
#[derive(Debug, Clone)]
pub(crate) struct ColumnPlan {
    /// The allowable generalizations between the column's minimal and maximal
    /// nodes, in the deterministic `enumerate_between` order.
    pub options: Vec<GeneralizationSet>,
    /// Per option: each occurring leaf's covering bin as a dense index
    /// `0..bin_counts[option]` (bins numbered in first-seen leaf order),
    /// indexed by the column's dense leaf index.
    pub bin_ix: Vec<Vec<u32>>,
    /// Per option: number of distinct covering bins over the occurring
    /// leaves.
    pub bin_counts: Vec<usize>,
    /// Per option: the column's selection score (lower is better).
    pub scores: Vec<f64>,
}

/// Everything the exhaustive search needs, computed once per run.
///
/// Per-column option lists, bin numberings and score tables are hoisted out
/// of the per-candidate loop; candidates are then scored by a linear index
/// into the mixed-radix product of the option lists, which is what makes
/// the candidate space trivially shardable across worker threads (see
/// [`crate::multi::generate_ultimate_nodes`]).
#[derive(Debug, Clone)]
pub struct SearchPlan {
    pub(crate) columns: Vec<ColumnPlan>,
    /// Number of options per column (the mixed radices, column 0 fastest).
    pub(crate) radices: Vec<usize>,
    /// Total number of candidates (product of the radices).
    pub(crate) total: usize,
}

impl SearchPlan {
    /// Enumerate the per-column options and precompute bin numberings and
    /// score tables. `exhaustive_limit` caps each column's enumeration, which
    /// the caller has already checked against the cross-column product.
    pub(crate) fn build(
        columns: &[ColumnContext<'_>],
        leaves: &[ColumnLeaves],
        selection: SelectionStrategy,
        exhaustive_limit: usize,
    ) -> Result<SearchPlan, BinningError> {
        let mut plans = Vec::with_capacity(columns.len());
        for (c, col) in columns.iter().zip(leaves) {
            let options = GeneralizationSet::enumerate_between(
                c.tree,
                c.minimal,
                c.maximal,
                exhaustive_limit,
            )?;
            let mut bin_ix = Vec::with_capacity(options.len());
            let mut bin_counts = Vec::with_capacity(options.len());
            let mut scores = Vec::with_capacity(options.len());
            for option in &options {
                // Number the covering nodes densely; per bin, its node and
                // the entries it holds.
                let mut relabel: Vec<Option<u32>> = vec![None; c.tree.node_count()];
                let mut bins: Vec<(NodeId, usize)> = Vec::new();
                let mut ix = Vec::with_capacity(col.leaves.len());
                for &leaf in &col.leaves {
                    let node = option.covering_node(c.tree, leaf)?;
                    let bin = *relabel[node.0 as usize].get_or_insert_with(|| {
                        bins.push((node, 0));
                        (bins.len() - 1) as u32
                    });
                    bins[bin as usize].1 += col.count_under(leaf)?;
                    ix.push(bin);
                }
                scores.push(column_score(c.tree, option, &bins, selection));
                bin_counts.push(bins.len());
                bin_ix.push(ix);
            }
            plans.push(ColumnPlan { options, bin_ix, bin_counts, scores });
        }

        let radices: Vec<usize> = plans.iter().map(|p| p.options.len()).collect();
        let total = radices.iter().fold(1usize, |t, &r| t.saturating_mul(r));
        Ok(SearchPlan { columns: plans, radices, total })
    }

    /// Total number of candidate combinations the plan enumerates.
    pub fn total_candidates(&self) -> usize {
        self.total
    }

    /// Decode a linear candidate index into per-column option indices
    /// (column 0 is the fastest-moving digit, matching the sequential
    /// mixed-radix counter).
    pub(crate) fn decode(&self, mut index: usize) -> Vec<usize> {
        let mut digits = Vec::with_capacity(self.radices.len());
        for &r in &self.radices {
            digits.push(index % r);
            index /= r;
        }
        digits
    }

    /// Advance a digit vector to the next candidate (wrapping at the end).
    pub(crate) fn advance(&self, digits: &mut [usize]) {
        for (d, &r) in digits.iter_mut().zip(&self.radices) {
            *d += 1;
            if *d < r {
                return;
            }
            *d = 0;
        }
    }

    /// Sum of the per-column scores of one candidate.
    pub(crate) fn candidate_score(&self, digits: &[usize]) -> f64 {
        self.columns.iter().zip(digits).map(|(c, &d)| c.scores[d]).sum()
    }
}

/// Score of one column's generalization (lower is better), given its bins
/// as `(covering node, entries)` in dense bin order. Specificity loss
/// ignores the data distribution; full information loss is Eq. (1)/(2).
fn column_score(
    tree: &DomainHierarchyTree,
    generalization: &GeneralizationSet,
    bins: &[(NodeId, usize)],
    selection: SelectionStrategy,
) -> f64 {
    match selection {
        SelectionStrategy::SpecificityLoss => generalization.specificity_loss(tree),
        SelectionStrategy::FullInfoLoss => {
            let total: usize = bins.iter().map(|&(_, n)| n).sum();
            if total == 0 {
                return 0.0;
            }
            let loss_sum: f64 = bins.iter().map(|&(node, n)| node_loss(tree, node, n)).sum();
            loss_sum / total as f64
        }
    }
}

/// The Eq. (1)/(2) numerator term of `n` entries generalized to `node`:
/// `n·(|Sᵢ|−1)/|S|` on a categorical tree, `n·(Uᵢ−Lᵢ)/(U−L)` on a numeric
/// one.
pub(crate) fn node_loss(tree: &DomainHierarchyTree, node: NodeId, n: usize) -> f64 {
    match tree.kind() {
        DhtKind::Categorical => {
            let s = tree.leaf_count() as f64;
            let si = tree.leaf_count_under(node).unwrap_or(1) as f64;
            n as f64 * (si - 1.0) / s
        }
        DhtKind::Numeric => {
            let interval = |id: NodeId| {
                tree.node(id).expect("node exists").interval.expect("numeric node interval")
            };
            let (lo, hi) = interval(tree.root());
            let (l, h) = interval(node);
            n as f64 * ((h - l) as f64) / (hi - lo) as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use medshield_dht::builder::numeric_binary_tree;
    use medshield_relation::{ColumnDef, ColumnRole, Schema, Value};

    fn age_fixture() -> (Table, DomainHierarchyTree) {
        let tree = numeric_binary_tree("age", &[(0, 25), (25, 50), (50, 75), (75, 100)]).unwrap();
        let schema = Schema::new(vec![ColumnDef::new("age", ColumnRole::QuasiNumeric)]).unwrap();
        let mut t = Table::new(schema);
        for v in [10, 12, 30, 35, 60, 65, 80, 85] {
            t.insert(vec![Value::int(v)]).unwrap();
        }
        (t, tree)
    }

    fn contexts<'a>(
        tree: &'a DomainHierarchyTree,
        minimal: &'a GeneralizationSet,
        maximal: &'a GeneralizationSet,
    ) -> Vec<ColumnContext<'a>> {
        vec![ColumnContext { column: "age", tree, minimal, maximal }]
    }

    fn age_leaves(table: &Table, tree: &DomainHierarchyTree) -> Vec<ColumnLeaves> {
        vec![resolve_column_leaves(table, "age", tree).unwrap()]
    }

    #[test]
    fn column_leaves_compacts_rows_and_counts() {
        let (table, tree) = age_fixture();
        let leaves = resolve_column_leaves(&table, "age", &tree).unwrap();
        assert_eq!(leaves.row_leaf_ix, vec![0, 0, 1, 1, 2, 2, 3, 3]);
        // Four distinct leaves, two entries each; every inner node counts
        // the entries of the leaves under it.
        assert_eq!(leaves.leaves.len(), 4);
        for &leaf in &leaves.leaves {
            assert_eq!(leaves.count_under(leaf).unwrap(), 2);
        }
        let lower_half = tree.parent(leaves.leaves[0]).unwrap().unwrap();
        assert_eq!(leaves.count_under(lower_half).unwrap(), 4);
        assert_eq!(leaves.count_under(tree.root()).unwrap(), 8);
        let unknown = NodeId(tree.node_count() as u32);
        assert!(matches!(leaves.count_under(unknown), Err(BinningError::Dht(_))));
    }

    #[test]
    fn plan_enumerates_options_with_covers_and_scores() {
        let (table, tree) = age_fixture();
        let minimal = GeneralizationSet::all_leaves(&tree);
        let maximal = GeneralizationSet::root_only(&tree);
        let ctxs = contexts(&tree, &minimal, &maximal);
        let leaves = age_leaves(&table, &tree);
        let plan =
            SearchPlan::build(&ctxs, &leaves, SelectionStrategy::SpecificityLoss, 1000).unwrap();
        // Binary tree over 4 leaves: root, plus the 2×2 combinations of each
        // half kept whole or split into its leaves = 5 options.
        assert_eq!(plan.total_candidates(), 5);
        assert_eq!(plan.radices, vec![5]);
        let column = &plan.columns[0];
        for (o, option) in column.options.iter().enumerate() {
            let bin_ix = &column.bin_ix[o];
            assert_eq!(bin_ix.len(), leaves[0].leaves.len());
            // Two leaves share a bin exactly when they share a covering node,
            // and the bins are numbered densely in first-seen leaf order.
            let covers: Vec<NodeId> = leaves[0]
                .leaves
                .iter()
                .map(|&leaf| option.covering_node(&tree, leaf).unwrap())
                .collect();
            for (a, b) in (0..covers.len()).flat_map(|a| (0..covers.len()).map(move |b| (a, b))) {
                assert_eq!(covers[a] == covers[b], bin_ix[a] == bin_ix[b]);
            }
            let mut next = 0;
            for &bin in bin_ix {
                assert!(bin <= next);
                next = next.max(bin + 1);
            }
            assert_eq!(column.bin_counts[o], next as usize);
            // Score table matches the direct specificity-loss computation.
            assert!((column.scores[o] - option.specificity_loss(&tree)).abs() < 1e-12);
        }
    }

    /// The plan's full-information-loss score of every option equals the
    /// Eq. (1)/(2) loss `metrics` measures on the table, which computes it
    /// from the generalized values without the plan's bins.
    #[test]
    fn full_info_loss_scores_match_the_measured_loss() {
        let (mut table, tree) = age_fixture();
        table.insert(vec![Value::int(90)]).unwrap();
        let minimal = GeneralizationSet::all_leaves(&tree);
        let maximal = GeneralizationSet::root_only(&tree);
        let ctxs = contexts(&tree, &minimal, &maximal);
        let leaves = age_leaves(&table, &tree);
        let plan =
            SearchPlan::build(&ctxs, &leaves, SelectionStrategy::FullInfoLoss, 1000).unwrap();
        for (option, &score) in plan.columns[0].options.iter().zip(&plan.columns[0].scores) {
            let cg = medshield_metrics::ColumnGeneralization {
                column: "age",
                tree: &tree,
                generalization: option,
            };
            let measured = medshield_metrics::column_info_loss(&table, &cg).unwrap();
            assert!((score - measured).abs() < 1e-12, "{score} != {measured}");
        }
    }

    /// The Fig. 7 invariant: the search space never descends below the
    /// mono-stage minimal nodes — every enumerated option is a coarsening of
    /// the minimal generalization (minimal ⊑ option ⊑ maximal).
    #[test]
    fn options_never_descend_below_minimal_nodes() {
        let (table, tree) = age_fixture();
        // Minimal from a mono pass at k=2 under root-only metrics.
        let maximal = GeneralizationSet::root_only(&tree);
        let mono = crate::mono::generate_minimal_nodes(
            &table,
            "age",
            &tree,
            &maximal,
            2,
            Default::default(),
        )
        .unwrap();
        let ctxs = contexts(&tree, &mono.minimal, &maximal);
        let leaves = age_leaves(&table, &tree);
        let plan =
            SearchPlan::build(&ctxs, &leaves, SelectionStrategy::SpecificityLoss, 1000).unwrap();
        assert!(!plan.columns[0].options.is_empty());
        for option in &plan.columns[0].options {
            assert!(
                mono.minimal.is_at_or_below(&tree, option).unwrap(),
                "option descends below the minimal generalization nodes"
            );
            assert!(option.is_at_or_below(&tree, &maximal).unwrap());
        }
    }

    #[test]
    fn decode_and_advance_agree_with_sequential_counting() {
        let (table, tree) = age_fixture();
        let minimal = GeneralizationSet::all_leaves(&tree);
        let maximal = GeneralizationSet::root_only(&tree);
        let ctxs = contexts(&tree, &minimal, &maximal);
        let leaves = age_leaves(&table, &tree);
        let plan =
            SearchPlan::build(&ctxs, &leaves, SelectionStrategy::SpecificityLoss, 1000).unwrap();
        let mut digits = plan.decode(0);
        for idx in 0..plan.total_candidates() {
            assert_eq!(digits, plan.decode(idx), "index {idx}");
            plan.advance(&mut digits);
        }
    }
}
