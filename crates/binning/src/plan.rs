//! Precomputed state for the multi-attribute binning search.
//!
//! The exhaustive `GenUltiNd` search (Fig. 7) scores every combination of
//! allowable per-column generalizations. Naively each candidate re-derives,
//! per column, the leaf→covering-node map and the column score — work that
//! depends only on *(column, option)*, not on the candidate as a whole. A
//! [`SearchPlan`] hoists all of it out of the per-candidate loop:
//!
//! * `TableLeaves` — per column, every row's leaf node compacted to a dense
//!   index `0..L` (L = distinct occurring leaves), shared by both search
//!   modes and by mono-attribute binning's leaf counting;
//! * per *(column, option)*: the covering map as a dense `Vec<NodeId>` over
//!   the compact leaf indices, and the option's selection score, each
//!   computed **once** instead of once per candidate;
//! * per column: a `u64` mixed-radix stride so a candidate's bin key for a
//!   row packs into a single integer instead of a heap-allocated `Vec`.
//!
//! With the plan in place, evaluating one candidate is a tight loop over the
//! rows (dense lookups + integer arithmetic) plus a hash-map count — pure,
//! immutable-input work that [`crate::multi`] shards across worker threads.

use crate::config::SelectionStrategy;
use crate::error::BinningError;
use crate::multi::ColumnContext;
use medshield_dht::{DhtKind, DomainHierarchyTree, GeneralizationSet, NodeId};
use medshield_relation::Table;
use std::collections::HashMap;

/// Per-column leaf structure of the table: each row's leaf as a dense index
/// into the column's occurring-leaf list, plus per-leaf entry counts.
#[derive(Debug, Clone)]
pub(crate) struct TableLeaves {
    /// Per column: the distinct leaves that occur in the data, in first-seen
    /// row order (the dense index space).
    pub leaves: Vec<Vec<NodeId>>,
    /// Per column: every row's leaf as an index into `leaves[column]`.
    pub row_leaf_ix: Vec<Vec<u32>>,
    /// Per column: entries per occurring leaf, indexed like `leaves[column]`.
    pub leaf_entry_counts: Vec<Vec<usize>>,
}

/// One column's resolved leaf structure: the distinct occurring leaves (the
/// dense index space), each row's leaf as a dense index, and entries per
/// leaf. Shared by mono-attribute binning (which only needs the counts) and
/// the multi-attribute search.
#[derive(Debug, Clone)]
pub(crate) struct ColumnLeaves {
    /// Distinct occurring leaves, in first-seen row order.
    pub leaves: Vec<NodeId>,
    /// Every row's leaf as an index into `leaves`.
    pub row_leaf_ix: Vec<u32>,
    /// Entries per occurring leaf, indexed like `leaves`.
    pub entry_counts: Vec<usize>,
}

/// The dense index of `leaf`, allocating a new slot in first-seen order.
/// Distinct values can share a leaf (e.g. 10 and 12 both fall in [0,25)),
/// so the dense index space dedupes by leaf.
fn dense_leaf_ix(
    leaf: NodeId,
    leaf_memo: &mut HashMap<NodeId, u32>,
    leaves: &mut Vec<NodeId>,
    entry_counts: &mut Vec<usize>,
) -> u32 {
    *leaf_memo.entry(leaf).or_insert_with(|| {
        leaves.push(leaf);
        entry_counts.push(0);
        (leaves.len() - 1) as u32
    })
}

/// Resolve every row of `column` to its leaf node, one dictionary *code* at
/// a time: each code is resolved once, as rows first reference it (the
/// per-row work is a vector lookup). Stale dictionary entries never hit
/// `leaf_for_value`, and the dense index space is allocated in first-seen
/// row order, so the result is identical to a row-by-row resolution.
pub(crate) fn resolve_column_leaves(
    table: &Table,
    column: &str,
    tree: &DomainHierarchyTree,
) -> Result<ColumnLeaves, BinningError> {
    let column = &table.columns()[table.schema().index_of(column)?];
    let mut leaf_memo: HashMap<NodeId, u32> = HashMap::new();
    let mut leaves: Vec<NodeId> = Vec::new();
    let mut entry_counts: Vec<usize> = Vec::new();
    let mut row_leaf_ix: Vec<u32> = Vec::with_capacity(table.len());
    let mut per_code: Vec<Option<u32>> = vec![None; column.dict().len()];
    for &code in column.codes() {
        let ix = match per_code[code as usize] {
            Some(ix) => ix,
            None => {
                let leaf = tree
                    .leaf_for_value(&column.dict()[code as usize])
                    .map_err(BinningError::Dht)?;
                let ix = dense_leaf_ix(leaf, &mut leaf_memo, &mut leaves, &mut entry_counts);
                per_code[code as usize] = Some(ix);
                ix
            }
        };
        entry_counts[ix as usize] += 1;
        row_leaf_ix.push(ix);
    }
    Ok(ColumnLeaves { leaves, row_leaf_ix, entry_counts })
}

impl TableLeaves {
    /// Resolve every row of every column to its leaf node.
    pub fn build(table: &Table, columns: &[ColumnContext<'_>]) -> Result<Self, BinningError> {
        let mut leaves = Vec::with_capacity(columns.len());
        let mut row_leaf_ix = Vec::with_capacity(columns.len());
        let mut leaf_entry_counts = Vec::with_capacity(columns.len());
        for c in columns {
            let col = resolve_column_leaves(table, c.column, c.tree)?;
            leaves.push(col.leaves);
            row_leaf_ix.push(col.row_leaf_ix);
            leaf_entry_counts.push(col.entry_counts);
        }
        Ok(TableLeaves { leaves, row_leaf_ix, leaf_entry_counts })
    }

    /// Number of rows (all columns cover the same rows).
    pub fn rows(&self) -> usize {
        self.row_leaf_ix.first().map(std::vec::Vec::len).unwrap_or(0)
    }

    /// Entries per occurring leaf of one column, as a node-keyed map (the
    /// shape mono-attribute binning and the greedy search consume).
    pub fn leaf_count_map(&self, column: usize) -> HashMap<NodeId, usize> {
        self.leaves[column]
            .iter()
            .zip(&self.leaf_entry_counts[column])
            .map(|(&l, &n)| (l, n))
            .collect()
    }
}

/// One column's precomputed candidate options.
#[derive(Debug, Clone)]
pub(crate) struct ColumnPlan {
    /// The allowable generalizations between the column's minimal and maximal
    /// nodes, in the deterministic `enumerate_between` order.
    pub options: Vec<GeneralizationSet>,
    /// Per option: covering node of each occurring leaf, indexed by the
    /// column's dense leaf index.
    pub covers: Vec<Vec<NodeId>>,
    /// Per option: each occurring leaf's covering bin as a dense index
    /// `0..bin_counts[option]` (bins numbered in first-seen leaf order), so a
    /// candidate's row keys pack into a scratch-array slot instead of a hash
    /// map entry.
    pub bin_ix: Vec<Vec<u32>>,
    /// Per option: number of distinct covering bins over the occurring
    /// leaves.
    pub bin_counts: Vec<usize>,
    /// Per option: the column's selection score (lower is better).
    pub scores: Vec<f64>,
}

/// Everything the exhaustive search needs, computed once per run.
///
/// Per-column option lists, memoized covering maps and score tables are
/// hoisted out of the per-candidate loop; candidates are then scored by a
/// linear index into the mixed-radix product of the option lists, which is
/// what makes the candidate space trivially shardable across worker threads
/// (see [`crate::multi::generate_ultimate_nodes`]).
#[derive(Debug, Clone)]
pub struct SearchPlan {
    pub(crate) columns: Vec<ColumnPlan>,
    /// Number of options per column (the mixed radices, column 0 fastest).
    pub(crate) radices: Vec<usize>,
    /// Total number of candidates (product of the radices).
    pub(crate) total: usize,
    /// Per column: multiplier packing a covering `NodeId` into the `u64` bin
    /// key (the running product of `node_count` of the preceding columns).
    pub(crate) key_strides: Vec<u64>,
    /// True when the per-column covering node ids fit the packed `u64` key;
    /// the search falls back to vector keys otherwise.
    pub(crate) packed_keys: bool,
}

impl SearchPlan {
    /// Enumerate the per-column options and precompute covering maps and
    /// score tables. `exhaustive_limit` caps each column's enumeration, which
    /// the caller has already checked against the cross-column product.
    pub(crate) fn build(
        columns: &[ColumnContext<'_>],
        leaves: &TableLeaves,
        selection: SelectionStrategy,
        exhaustive_limit: usize,
    ) -> Result<SearchPlan, BinningError> {
        let mut plans = Vec::with_capacity(columns.len());
        for (i, c) in columns.iter().enumerate() {
            let options = GeneralizationSet::enumerate_between(
                c.tree,
                c.minimal,
                c.maximal,
                exhaustive_limit,
            )
            .map_err(BinningError::Dht)?;
            let mut covers = Vec::with_capacity(options.len());
            let mut bin_ix = Vec::with_capacity(options.len());
            let mut bin_counts = Vec::with_capacity(options.len());
            let mut scores = Vec::with_capacity(options.len());
            for option in &options {
                let mut cover = Vec::with_capacity(leaves.leaves[i].len());
                for &leaf in &leaves.leaves[i] {
                    cover.push(option.covering_node(c.tree, leaf).map_err(BinningError::Dht)?);
                }
                scores.push(column_score(
                    c.tree,
                    option,
                    &leaves.leaf_entry_counts[i],
                    &cover,
                    selection,
                ));
                // Relabel the covering nodes into dense bin indices.
                let mut relabel: HashMap<NodeId, u32> = HashMap::new();
                let mut ix = Vec::with_capacity(cover.len());
                for &node in &cover {
                    let next = relabel.len() as u32;
                    ix.push(*relabel.entry(node).or_insert(next));
                }
                bin_counts.push(relabel.len());
                bin_ix.push(ix);
                covers.push(cover);
            }
            plans.push(ColumnPlan { options, covers, bin_ix, bin_counts, scores });
        }

        let radices: Vec<usize> = plans.iter().map(|p| p.options.len()).collect();
        let mut total: usize = 1;
        for &r in &radices {
            total = total.saturating_mul(r);
        }
        // The packed bin key assigns each column a u64 digit range of size
        // node_count; overflow (astronomically wide schemas) falls back to
        // Vec<NodeId> keys.
        let (key_strides, packed_keys) = match key_strides_for(columns) {
            Some(strides) => (strides, true),
            None => (vec![0; columns.len()], false),
        };
        Ok(SearchPlan { columns: plans, radices, total, key_strides, packed_keys })
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

/// Per-column `u64` strides for packing one row's covering nodes into a
/// single integer bin key (column *i*'s digit range is its tree's node
/// count); `None` when the combined ranges overflow `u64`, in which case the
/// search falls back to vector keys.
pub(crate) fn key_strides_for(columns: &[ColumnContext<'_>]) -> Option<Vec<u64>> {
    let mut strides = Vec::with_capacity(columns.len());
    let mut stride: u64 = 1;
    for c in columns {
        strides.push(stride);
        stride = stride.checked_mul(c.tree.node_count() as u64)?;
    }
    Some(strides)
}

/// Score of one column's generalization (lower is better). Specificity loss
/// ignores the data distribution; full information loss is Eq. (1)/(2)
/// computed from the per-leaf entry counts.
pub(crate) fn column_score(
    tree: &DomainHierarchyTree,
    generalization: &GeneralizationSet,
    leaf_entry_counts: &[usize],
    cover: &[NodeId],
    selection: SelectionStrategy,
) -> f64 {
    match selection {
        SelectionStrategy::SpecificityLoss => generalization.specificity_loss(tree),
        SelectionStrategy::FullInfoLoss => {
            let total: usize = leaf_entry_counts.iter().sum();
            if total == 0 {
                return 0.0;
            }
            // Aggregate entries per covering generalization node.
            let mut per_node: HashMap<NodeId, usize> = HashMap::new();
            for (&c, &n) in cover.iter().zip(leaf_entry_counts) {
                *per_node.entry(c).or_insert(0) += n;
            }
            let loss_sum: f64 = match tree.kind() {
                DhtKind::Categorical => {
                    let s = tree.leaf_count() as f64;
                    per_node
                        .iter()
                        .map(|(&node, &n)| {
                            let si = tree.leaf_count_under(node).unwrap_or(1) as f64;
                            n as f64 * (si - 1.0) / s
                        })
                        .sum()
                }
                DhtKind::Numeric => {
                    let (lo, hi) = tree
                        .node(tree.root())
                        .expect("root exists")
                        .interval
                        .expect("numeric root interval");
                    let span = (hi - lo) as f64;
                    per_node
                        .iter()
                        .map(|(&node, &n)| {
                            let (l, h) = tree
                                .node(node)
                                .expect("node exists")
                                .interval
                                .expect("numeric node interval");
                            n as f64 * ((h - l) as f64) / span
                        })
                        .sum()
                }
            };
            loss_sum / total as f64
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

    #[test]
    fn table_leaves_compacts_rows_and_counts() {
        let (table, tree) = age_fixture();
        let minimal = GeneralizationSet::all_leaves(&tree);
        let maximal = GeneralizationSet::root_only(&tree);
        let ctxs = contexts(&tree, &minimal, &maximal);
        let leaves = TableLeaves::build(&table, &ctxs).unwrap();
        assert_eq!(leaves.rows(), 8);
        // Four distinct leaves, two entries each.
        assert_eq!(leaves.leaves[0].len(), 4);
        assert_eq!(leaves.leaf_entry_counts[0], vec![2, 2, 2, 2]);
        let map = leaves.leaf_count_map(0);
        assert_eq!(map.len(), 4);
        assert!(map.values().all(|&n| n == 2));
    }

    #[test]
    fn plan_enumerates_options_with_covers_and_scores() {
        let (table, tree) = age_fixture();
        let minimal = GeneralizationSet::all_leaves(&tree);
        let maximal = GeneralizationSet::root_only(&tree);
        let ctxs = contexts(&tree, &minimal, &maximal);
        let leaves = TableLeaves::build(&table, &ctxs).unwrap();
        let plan =
            SearchPlan::build(&ctxs, &leaves, SelectionStrategy::SpecificityLoss, 1000).unwrap();
        // Binary tree over 4 leaves: root, plus the 2×2 combinations of each
        // half kept whole or split into its leaves = 5 options.
        assert_eq!(plan.total_candidates(), 5);
        assert_eq!(plan.radices, vec![5]);
        assert!(plan.packed_keys);
        for (option, (cover, score)) in plan.columns[0]
            .options
            .iter()
            .zip(plan.columns[0].covers.iter().zip(&plan.columns[0].scores))
        {
            assert_eq!(cover.len(), leaves.leaves[0].len());
            // Covering maps agree with the per-leaf covering_node calls.
            for (&leaf, &c) in leaves.leaves[0].iter().zip(cover) {
                assert_eq!(option.covering_node(&tree, leaf).unwrap(), c);
            }
            // Score table matches the direct specificity-loss computation.
            assert!((score - option.specificity_loss(&tree)).abs() < 1e-12);
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
        let leaves = TableLeaves::build(&table, &ctxs).unwrap();
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
        let leaves = TableLeaves::build(&table, &ctxs).unwrap();
        let plan =
            SearchPlan::build(&ctxs, &leaves, SelectionStrategy::SpecificityLoss, 1000).unwrap();
        let mut digits = plan.decode(0);
        for idx in 0..plan.total_candidates() {
            assert_eq!(digits, plan.decode(idx), "index {idx}");
            plan.advance(&mut digits);
        }
    }
}
