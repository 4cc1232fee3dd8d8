//! Multi-attribute binning: `GenUltiNd` (Fig. 7 of the paper).
//!
//! After mono-attribute binning each attribute satisfies k-anonymity on its
//! own, but combinations of attributes may not (§4.2). Multi-attribute
//! binning therefore searches, per column, the allowable generalizations
//! lying between the minimal and the maximal generalization nodes, and picks
//! the combination — the **ultimate generalization** — that satisfies
//! k-anonymity over the full quasi-identifier set with the least loss.
//!
//! Two search modes are provided:
//!
//! * **Exhaustive** (the paper's `EnumGen` + `Selection`): enumerate every
//!   combination of allowable generalizations, keep the valid ones, choose
//!   the one minimizing the selection score. Used whenever the number of
//!   combinations is at most [`crate::BinningConfig::exhaustive_limit`].
//! * **Greedy coarsening** (scalability fallback, see "Substitutions" in
//!   `docs/ARCHITECTURE.md`): start from the minimal generalization of every
//!   column and repeatedly apply the cheapest single merge (collapsing a
//!   sibling group into its parent, never above the maximal nodes),
//!   preferring merges that touch a violating bin, until k-anonymity holds
//!   or no merge is left. It works on the bins of the current generalization
//!   rather than on rows: the bins are counted once, and a merge re-keys
//!   only the bins it touches.
//!
//! Both modes read each column through the leaves the agent resolved once
//! for both binning stages (`plan::ColumnLeaves`); [`generate_ultimate_nodes`]
//! resolves them itself for callers holding only a table. The exhaustive
//! search counts a candidate's bins with one dense scratch counter, which
//! renumbers its partial row keys when the key space would pass
//! `DENSE_BIN_CAP`.
//!
//! The exhaustive search runs on `threads` scoped worker threads
//! ([`std::thread::scope`], mirroring the chunk-parallel protection engine):
//! candidates are scored against the same immutable `SearchPlan` and column
//! leaves, the candidate space is sharded into contiguous linear-index
//! ranges, and per-shard bests merge under a total order — lowest loss
//! first, ties broken by the lowest candidate index in the deterministic
//! enumeration order (a fixed lexicographic order on the per-column node
//! vectors). The greedy search is sequential, with a deterministic pick.
//! The outcome is therefore byte-identical for every thread count, a
//! property pinned by the repository-level `binning_equivalence` suite.
//!
//! The selection score is either specificity loss (the paper's preferred
//! estimate) or the full information loss of Eq. (1)–(3), per
//! [`SelectionStrategy`].

use crate::config::SelectionStrategy;
use crate::error::BinningError;
use crate::plan::{node_loss, resolve_column_leaves, ColumnLeaves, SearchPlan};
use medshield_dht::{DomainHierarchyTree, GeneralizationSet, NodeId};
use medshield_relation::Table;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::thread;

/// Per-column input to multi-attribute binning.
#[derive(Debug, Clone)]
pub struct ColumnContext<'a> {
    /// Column name.
    pub column: &'a str,
    /// The column's domain hierarchy tree.
    pub tree: &'a DomainHierarchyTree,
    /// Minimal generalization nodes from mono-attribute binning.
    pub minimal: &'a GeneralizationSet,
    /// Maximal generalization nodes from the usage metrics.
    pub maximal: &'a GeneralizationSet,
}

/// Which search mode produced the ultimate generalization.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SearchMode {
    /// Exhaustive enumeration of all allowable combinations.
    Exhaustive,
    /// Greedy coarsening fallback.
    Greedy,
    /// Multi-attribute binning was skipped: the minimal generalization nodes
    /// of mono-attribute binning were used directly (per-attribute
    /// k-anonymity only; see `BinningAgent::bin_per_attribute`).
    PerAttribute,
}

/// Result of multi-attribute binning.
#[derive(Debug, Clone)]
pub struct MultiBinning {
    /// Ultimate generalization nodes, one set per input column, in input
    /// order.
    pub ultimate: Vec<GeneralizationSet>,
    /// Whether the returned generalization satisfies k-anonymity over the
    /// combination of all columns.
    pub satisfied: bool,
    /// Which search mode was used.
    pub mode: SearchMode,
    /// Notes about fallbacks or unbinnable data.
    pub warnings: Vec<String>,
}

/// `GenUltiNd(mingends[], maxgends[], tr[])`: choose the ultimate
/// generalization nodes for all columns simultaneously, sharding the search
/// over `threads` scoped worker threads (1 = sequential; every thread count
/// produces an identical result).
pub fn generate_ultimate_nodes(
    table: &Table,
    columns: &[ColumnContext<'_>],
    k: usize,
    selection: SelectionStrategy,
    exhaustive_limit: usize,
    threads: usize,
) -> Result<MultiBinning, BinningError> {
    check_search_args(k, threads)?;
    let leaves = columns
        .iter()
        .map(|c| resolve_column_leaves(table, c.column, c.tree))
        .collect::<Result<Vec<_>, _>>()?;
    ultimate_nodes(columns, &leaves, k, selection, exhaustive_limit, threads)
}

/// Reject a degenerate k or thread count, before any column is resolved.
fn check_search_args(k: usize, threads: usize) -> Result<(), BinningError> {
    if k == 0 {
        return Err(BinningError::InvalidK);
    }
    if threads == 0 {
        return Err(BinningError::InvalidThreads);
    }
    Ok(())
}

/// [`generate_ultimate_nodes`] over columns already resolved to their
/// leaves (`leaves[i]` belongs to `columns[i]`).
pub(crate) fn ultimate_nodes(
    columns: &[ColumnContext<'_>],
    leaves: &[ColumnLeaves],
    k: usize,
    selection: SelectionStrategy,
    exhaustive_limit: usize,
    threads: usize,
) -> Result<MultiBinning, BinningError> {
    check_search_args(k, threads)?;
    if columns.is_empty() {
        return Ok(MultiBinning {
            ultimate: Vec::new(),
            satisfied: true,
            mode: SearchMode::Exhaustive,
            warnings: Vec::new(),
        });
    }

    // Decide the search mode from the size of the combination space.
    let mut product: usize = 1;
    for c in columns {
        product =
            product.saturating_mul(GeneralizationSet::count_between(c.tree, c.minimal, c.maximal)?);
    }

    if product <= exhaustive_limit {
        let plan = SearchPlan::build(columns, leaves, selection, exhaustive_limit)?;
        exhaustive_search(&plan, leaves, columns, k, threads)
    } else {
        greedy_search(columns, leaves, k, selection)
    }
}

/// Key space (slots of `u32`) past which the bin counter renumbers the
/// partial row keys densely instead of multiplying in the next column.
const DENSE_BIN_CAP: usize = 1 << 22;

/// Reusable scratch state for the candidate-validity check, so the hot
/// candidate loop performs no per-candidate allocation.
#[derive(Default)]
struct BinScratch {
    /// Dense counters over the key space, grown to the largest space seen;
    /// only the `touched` slots are ever non-zero between uses.
    counts: Vec<u32>,
    /// Slots dirtied by the current pass (clearing is O(distinct keys), not
    /// O(key space)).
    touched: Vec<usize>,
    /// Per-row bin keys, accumulated column by column.
    keys: Vec<usize>,
}

impl BinScratch {
    /// True if every key (each below `space`) is held by at least `k` rows.
    fn every_key_reaches(&mut self, space: usize, k: u32) -> bool {
        if self.counts.len() < space {
            self.counts.resize(space, 0);
        }
        for &key in &self.keys {
            let slot = &mut self.counts[key];
            if *slot == 0 {
                self.touched.push(key);
            }
            *slot += 1;
        }
        let mut ok = true;
        for &key in &self.touched {
            ok &= self.counts[key] >= k;
            self.counts[key] = 0;
        }
        self.touched.clear();
        ok
    }

    /// Renumber the keys (every key below `space`) densely in first-seen row
    /// order, returning the number of distinct keys (at most the row count).
    fn renumber(&mut self, space: usize) -> usize {
        if self.counts.len() < space {
            self.counts.resize(space, 0);
        }
        for key in &mut self.keys {
            let slot = &mut self.counts[*key];
            if *slot == 0 {
                self.touched.push(*key);
                *slot = self.touched.len() as u32;
            }
            *key = *slot as usize - 1;
        }
        let distinct = self.touched.len();
        for &key in &self.touched {
            self.counts[key] = 0;
        }
        self.touched.clear();
        distinct
    }
}

/// True if every bin of the candidate (given as per-column option digits)
/// holds at least `k` rows. Each column adds `bin_ix[leaf_ix] * space` into
/// the per-row key (a branchless column scan), where `space` is the product
/// of the bin counts so far; a single counting pass over the keys then
/// tallies the dense scratch counter. When the product would pass
/// [`DENSE_BIN_CAP`], the partial keys are first renumbered densely (there
/// are at most `rows` distinct ones), so the key space never exceeds the
/// larger of the cap and `rows` times one column's bin count.
fn candidate_satisfies_k(
    plan: &SearchPlan,
    leaves: &[ColumnLeaves],
    digits: &[usize],
    k: usize,
    scratch: &mut BinScratch,
) -> bool {
    let rows = leaves[0].row_leaf_ix.len();
    if k <= 1 || rows == 0 {
        return true;
    }
    scratch.keys.clear();
    scratch.keys.resize(rows, 0);
    let mut space: usize = 1;
    for ((c, &d), col) in plan.columns.iter().zip(digits).zip(leaves) {
        let bins = c.bin_counts[d].max(1);
        if space.saturating_mul(bins) > DENSE_BIN_CAP {
            space = scratch.renumber(space);
        }
        let bin_ix = &c.bin_ix[d];
        for (key, &leaf_ix) in scratch.keys.iter_mut().zip(&col.row_leaf_ix) {
            *key += bin_ix[leaf_ix as usize] as usize * space;
        }
        space *= bins;
    }
    scratch.every_key_reaches(space, k as u32)
}

/// Best candidate of one contiguous linear-index range: the valid candidate
/// with the lowest score, ties broken by the lowest index.
fn best_in_range(
    plan: &SearchPlan,
    leaves: &[ColumnLeaves],
    k: usize,
    start: usize,
    end: usize,
) -> Option<(f64, usize)> {
    let mut scratch = BinScratch::default();
    let mut digits = plan.decode(start);
    let mut best: Option<(f64, usize)> = None;
    for idx in start..end {
        // Score first: the score is a handful of table lookups while the
        // validity check costs a full row scan, and a candidate whose score
        // is not strictly below the running best can never replace it (ties
        // go to the lower index, which this ascending scan saw first) — so
        // the row scan is skipped for all but the descending-score chain.
        let score = plan.candidate_score(&digits);
        if best.as_ref().map(|(s, _)| score < *s).unwrap_or(true)
            && candidate_satisfies_k(plan, leaves, &digits, k, &mut scratch)
        {
            best = Some((score, idx));
        }
        plan.advance(&mut digits);
    }
    best
}

/// The merge rule for per-shard bests: lowest score wins, ties go to the
/// lowest candidate index. Folding shards in ascending-range order therefore
/// reproduces the sequential scan exactly.
fn better_candidate(a: Option<(f64, usize)>, b: Option<(f64, usize)>) -> Option<(f64, usize)> {
    match (a, b) {
        (None, b) => b,
        (a, None) => a,
        (Some((sa, ia)), Some((sb, ib))) => {
            if sb < sa || (sb == sa && ib < ia) {
                Some((sb, ib))
            } else {
                Some((sa, ia))
            }
        }
    }
}

/// Exhaustive `EnumGen` + `Selection`, sharded over the candidate space.
fn exhaustive_search(
    plan: &SearchPlan,
    leaves: &[ColumnLeaves],
    columns: &[ColumnContext<'_>],
    k: usize,
    threads: usize,
) -> Result<MultiBinning, BinningError> {
    let total = plan.total_candidates();
    let workers = threads.min(total).max(1);
    let best = if workers == 1 {
        best_in_range(plan, leaves, k, 0, total)
    } else {
        let chunk = total.div_ceil(workers);
        let shard_bests: Vec<Option<(f64, usize)>> = thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|w| {
                    let start = w * chunk;
                    let end = (start + chunk).min(total);
                    scope.spawn(move || best_in_range(plan, leaves, k, start, end))
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("search worker panicked")).collect()
        });
        shard_bests.into_iter().fold(None, better_candidate)
    };

    let mut warnings = Vec::new();
    match best {
        Some((_, idx)) => {
            let ultimate: Vec<GeneralizationSet> = plan
                .columns
                .iter()
                .zip(plan.decode(idx))
                .map(|(c, d)| c.options[d].clone())
                .collect();
            Ok(MultiBinning { ultimate, satisfied: true, mode: SearchMode::Exhaustive, warnings })
        }
        None => {
            // Not even the all-maximal combination satisfies k: the data are
            // not binnable within the usage metrics. Return the maximal
            // generalization as the best effort.
            warnings.push(format!(
                "no allowable generalization satisfies k={k}; returning the maximal generalization"
            ));
            let ultimate: Vec<GeneralizationSet> =
                columns.iter().map(|c| c.maximal.clone()).collect();
            Ok(MultiBinning { ultimate, satisfied: false, mode: SearchMode::Exhaustive, warnings })
        }
    }
}

/// One candidate merge of the greedy frontier: collapse `children` (all
/// current generalization nodes) into `parent` on column `column`.
#[derive(Debug)]
struct MergeCandidate {
    column: usize,
    parent: NodeId,
    children: Vec<NodeId>,
}

/// Greedy coarsening fallback for large combination spaces. The search runs
/// on the bins of the current generalization (per bin: its covering node in
/// every column and its row count), built once from the rows; a merge
/// re-keys only the bins it touches. The pick is made by a total order
/// (benefit ratio, then loss delta, then candidate index), so the result is
/// deterministic.
fn greedy_search(
    columns: &[ColumnContext<'_>],
    leaves: &[ColumnLeaves],
    k: usize,
    selection: SelectionStrategy,
) -> Result<MultiBinning, BinningError> {
    let mut warnings = Vec::new();
    // Current generalization per column, as an ordered node set.
    let mut current: Vec<BTreeSet<NodeId>> =
        columns.iter().map(|c| c.minimal.nodes().iter().copied().collect()).collect();
    // Minimal-generalization covering node of each occurring leaf (indexed by
    // compact leaf index, like the plan's per-option covers).
    let covers: Vec<Vec<NodeId>> = columns
        .iter()
        .zip(leaves)
        .map(|(c, col)| {
            col.leaves.iter().map(|&leaf| c.minimal.covering_node(c.tree, leaf)).collect()
        })
        .collect::<Result<_, _>>()?;
    // The bins of the minimal generalization: row count per combination of
    // covering nodes.
    let mut bins: HashMap<Box<[NodeId]>, usize> = HashMap::new();
    let mut key: Vec<NodeId> = Vec::with_capacity(columns.len());
    for row in 0..leaves[0].row_leaf_ix.len() {
        key.clear();
        key.extend(covers.iter().zip(leaves).map(|(c, col)| c[col.row_leaf_ix[row] as usize]));
        match bins.get_mut(key.as_slice()) {
            Some(n) => *n += 1,
            None => {
                bins.insert(key.as_slice().into(), 1);
            }
        }
    }
    // Per column, violating rows per covering node (indexed by `NodeId`):
    // the "benefit" of a merge is the number of violating rows it touches.
    let mut violating: Vec<Vec<usize>> =
        columns.iter().map(|c| vec![0; c.tree.node_count()]).collect();

    loop {
        for counts in &mut violating {
            counts.fill(0);
        }
        let mut any_violating = false;
        for (key, &n) in &bins {
            if n < k {
                any_violating = true;
                for (counts, node) in violating.iter_mut().zip(key.iter()) {
                    counts[node.0 as usize] += n;
                }
            }
        }
        if !any_violating {
            break;
        }

        // Enumerate candidate merges in a deterministic (column, parent)
        // order.
        let mut candidates: Vec<MergeCandidate> = Vec::new();
        for (i, c) in columns.iter().enumerate() {
            // Group current nodes by parent.
            let mut by_parent: BTreeMap<NodeId, Vec<NodeId>> = BTreeMap::new();
            for &node in &current[i] {
                if let Some(parent) = c.tree.parent(node).map_err(BinningError::Dht)? {
                    by_parent.entry(parent).or_default().push(node);
                }
            }
            for (parent, members) in by_parent {
                let children = c.tree.children(parent).map_err(BinningError::Dht)?;
                if members.len() != children.len() {
                    continue; // not all siblings are currently generalization nodes
                }
                // The parent must stay within the usage metrics (at or below a
                // maximal generalization node).
                if c.maximal.covering_node(c.tree, parent).is_err() {
                    continue;
                }
                candidates.push(MergeCandidate { column: i, parent, children: children.to_vec() });
            }
        }

        if candidates.is_empty() {
            warnings.push(format!(
                "greedy multi-attribute binning exhausted all merges without reaching k={k}"
            ));
            break;
        }

        // Score the frontier: (loss delta, violating rows touched) per
        // candidate, in candidate order.
        let scored: Vec<(f64, usize)> = candidates
            .iter()
            .map(|m| {
                let delta = merge_score_delta(
                    columns[m.column].tree,
                    &leaves[m.column],
                    m.parent,
                    &m.children,
                    selection,
                );
                let touched: usize =
                    m.children.iter().map(|ch| violating[m.column][ch.0 as usize]).sum();
                (delta, touched)
            })
            .collect();

        // Pick the merge with the best benefit-per-cost ratio (violating rows
        // touched per unit of added loss), preferring smaller deltas and then
        // lower candidate indices on ties; merges that touch nothing are only
        // considered when no merge touches a violating bin, in which case the
        // cheapest one is taken.
        let any_touching = scored.iter().any(|(_, touched)| *touched > 0);
        let mut pick = 0usize;
        let mut have_pick = false;
        for (idx, &(delta, touched)) in scored.iter().enumerate() {
            if any_touching && touched == 0 {
                continue;
            }
            if !have_pick {
                pick = idx;
                have_pick = true;
                continue;
            }
            let (best_delta, best_touched) = scored[pick];
            let better = if any_touching {
                let ratio = touched as f64 / (delta + 1e-9);
                let best_ratio = best_touched as f64 / (best_delta + 1e-9);
                ratio > best_ratio || (ratio == best_ratio && delta < best_delta)
            } else {
                delta < best_delta
            };
            if better {
                pick = idx;
            }
        }

        // Apply the merge: only the bins keyed by one of the merged children
        // move, and they re-enter under the parent.
        let MergeCandidate { column: col, parent, children } = &candidates[pick];
        for ch in children {
            current[*col].remove(ch);
        }
        current[*col].insert(*parent);
        let moved: Vec<(Box<[NodeId]>, usize)> =
            bins.extract_if(|key, _| children.contains(&key[*col])).collect();
        for (mut key, n) in moved {
            key[*col] = *parent;
            *bins.entry(key).or_insert(0) += n;
        }
    }

    // Materialize and validate the final sets.
    let mut ultimate = Vec::with_capacity(columns.len());
    for (i, c) in columns.iter().enumerate() {
        let nodes: Vec<NodeId> = current[i].iter().copied().collect();
        ultimate.push(GeneralizationSet::new(c.tree, nodes).map_err(BinningError::Dht)?);
    }
    let satisfied = bins.values().all(|&n| n >= k);
    Ok(MultiBinning { ultimate, satisfied, mode: SearchMode::Greedy, warnings })
}

/// Increase in the column score caused by merging `children` into `parent`.
fn merge_score_delta(
    tree: &DomainHierarchyTree,
    leaves: &ColumnLeaves,
    parent: NodeId,
    children: &[NodeId],
    selection: SelectionStrategy,
) -> f64 {
    match selection {
        SelectionStrategy::SpecificityLoss => {
            (children.len() as f64 - 1.0) / tree.leaf_count().max(1) as f64
        }
        SelectionStrategy::FullInfoLoss => {
            let total = leaves.count_under(tree.root()).unwrap_or(0);
            if total == 0 {
                return 0.0;
            }
            let cost = |node: NodeId| node_loss(tree, node, leaves.count_under(node).unwrap_or(0));
            let child_cost: f64 = children.iter().map(|&c| cost(c)).sum();
            (cost(parent) - child_cost) / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use medshield_dht::builder::{numeric_binary_tree, CategoricalNodeSpec};
    use medshield_relation::{ColumnDef, ColumnRole, Schema, Value};

    fn two_column_table() -> (Table, DomainHierarchyTree, DomainHierarchyTree) {
        let doctor_tree = CategoricalNodeSpec::internal(
            "Staff",
            vec![
                CategoricalNodeSpec::internal(
                    "Doctor",
                    vec![
                        CategoricalNodeSpec::leaf("Surgeon"),
                        CategoricalNodeSpec::leaf("Physician"),
                    ],
                ),
                CategoricalNodeSpec::internal(
                    "Paramedic",
                    vec![
                        CategoricalNodeSpec::leaf("Nurse"),
                        CategoricalNodeSpec::leaf("Pharmacist"),
                    ],
                ),
            ],
        )
        .build("doctor")
        .unwrap();
        let age_tree =
            numeric_binary_tree("age", &[(0, 25), (25, 50), (50, 75), (75, 100)]).unwrap();

        let schema = Schema::new(vec![
            ColumnDef::new("age", ColumnRole::QuasiNumeric),
            ColumnDef::new("doctor", ColumnRole::QuasiCategorical),
        ])
        .unwrap();
        let mut t = Table::new(schema);
        // Mirrors the paper's §4.2 example: each attribute alone is
        // k-anonymous, the combination is not.
        let rows = [
            (10, "Surgeon"),
            (12, "Surgeon"),
            (30, "Surgeon"),
            (35, "Physician"),
            (60, "Nurse"),
            (65, "Nurse"),
            (80, "Pharmacist"),
            (85, "Pharmacist"),
        ];
        for (age, doc) in rows {
            t.insert(vec![Value::int(age), Value::text(doc)]).unwrap();
        }
        (t, age_tree, doctor_tree)
    }

    fn contexts<'a>(
        age_tree: &'a DomainHierarchyTree,
        doctor_tree: &'a DomainHierarchyTree,
        age_min: &'a GeneralizationSet,
        age_max: &'a GeneralizationSet,
        doc_min: &'a GeneralizationSet,
        doc_max: &'a GeneralizationSet,
    ) -> Vec<ColumnContext<'a>> {
        vec![
            ColumnContext { column: "age", tree: age_tree, minimal: age_min, maximal: age_max },
            ColumnContext {
                column: "doctor",
                tree: doctor_tree,
                minimal: doc_min,
                maximal: doc_max,
            },
        ]
    }

    /// Check k-anonymity of the chosen generalization by materializing it.
    fn satisfies(
        table: &Table,
        columns: &[(&str, &DomainHierarchyTree)],
        gens: &[GeneralizationSet],
        k: usize,
    ) -> bool {
        let indices: Vec<usize> =
            columns.iter().map(|(col, _)| table.schema().index_of(col).unwrap()).collect();
        let t = table
            .map_distinct(&indices, |i, v| {
                gens[i].generalize_value(columns[i].1, v).map_err(BinningError::Dht)
            })
            .unwrap();
        let names: Vec<&str> = columns.iter().map(|(c, _)| *c).collect();
        medshield_metrics::satisfies_k_anonymity(&t, &names, k).unwrap()
    }

    #[test]
    fn exhaustive_finds_a_valid_minimal_loss_generalization() {
        let (table, age_tree, doctor_tree) = two_column_table();
        let age_min = GeneralizationSet::all_leaves(&age_tree);
        let age_max = GeneralizationSet::root_only(&age_tree);
        let doc_min = GeneralizationSet::all_leaves(&doctor_tree);
        let doc_max = GeneralizationSet::root_only(&doctor_tree);
        let ctxs = contexts(&age_tree, &doctor_tree, &age_min, &age_max, &doc_min, &doc_max);

        let r = generate_ultimate_nodes(
            &table,
            &ctxs,
            2,
            SelectionStrategy::SpecificityLoss,
            10_000,
            1,
        )
        .unwrap();
        assert_eq!(r.mode, SearchMode::Exhaustive);
        assert!(r.satisfied);
        assert!(satisfies(&table, &[("age", &age_tree), ("doctor", &doctor_tree)], &r.ultimate, 2));
        // The chosen generalization must not be the trivial all-root one:
        // the data allow something finer (e.g. age halves + doctor level 1).
        let total_nodes: usize = r.ultimate.iter().map(medshield_dht::GeneralizationSet::len).sum();
        assert!(total_nodes > 2, "should be finer than root-only on both columns");
    }

    #[test]
    fn parallel_search_matches_sequential_exactly() {
        let (table, age_tree, doctor_tree) = two_column_table();
        let age_min = GeneralizationSet::all_leaves(&age_tree);
        let age_max = GeneralizationSet::root_only(&age_tree);
        let doc_min = GeneralizationSet::all_leaves(&doctor_tree);
        let doc_max = GeneralizationSet::root_only(&doctor_tree);
        let ctxs = contexts(&age_tree, &doctor_tree, &age_min, &age_max, &doc_min, &doc_max);
        // Both search modes (exhaustive via a large limit, greedy via limit 1)
        // must be thread-count independent.
        for limit in [10_000usize, 1] {
            let reference = generate_ultimate_nodes(
                &table,
                &ctxs,
                2,
                SelectionStrategy::SpecificityLoss,
                limit,
                1,
            )
            .unwrap();
            for threads in [2usize, 3, 4, 8, 64] {
                let r = generate_ultimate_nodes(
                    &table,
                    &ctxs,
                    2,
                    SelectionStrategy::SpecificityLoss,
                    limit,
                    threads,
                )
                .unwrap();
                assert_eq!(r.ultimate, reference.ultimate, "limit {limit}, threads {threads}");
                assert_eq!(r.satisfied, reference.satisfied);
                assert_eq!(r.mode, reference.mode);
                assert_eq!(r.warnings, reference.warnings);
            }
        }
    }

    /// Four numeric columns of 64 occupied leaves each: every candidate's
    /// per-column bin counts multiply past `DENSE_BIN_CAP`, so the counter
    /// renumbers its partial keys. Each column may merge only its first leaf
    /// pair, and the two rows in those leaves are k-anonymous only once all
    /// four columns merge them, so exactly the last candidate is valid.
    #[test]
    fn wide_key_space_is_counted_exactly() {
        let intervals: Vec<(i64, i64)> = (0..64).map(|v| (v, v + 1)).collect();
        let names = ["a", "b", "c", "d"];
        let trees: Vec<DomainHierarchyTree> =
            names.iter().map(|&name| numeric_binary_tree(name, &intervals).unwrap()).collect();
        let schema = Schema::new(
            names.iter().map(|&name| ColumnDef::new(name, ColumnRole::QuasiNumeric)).collect(),
        )
        .unwrap();
        let mut table = Table::new(schema);
        for v in 0..64 {
            for _ in 0..if v < 2 { 1 } else { 2 } {
                table.insert(vec![Value::int(v); names.len()]).unwrap();
            }
        }
        let minimal: Vec<GeneralizationSet> =
            trees.iter().map(GeneralizationSet::all_leaves).collect();
        let maximal: Vec<GeneralizationSet> = trees
            .iter()
            .map(|tree| {
                let leaves = tree.leaves();
                let mut nodes = vec![tree.parent(leaves[0]).unwrap().unwrap()];
                nodes.extend(&leaves[2..]);
                GeneralizationSet::new(tree, nodes).unwrap()
            })
            .collect();
        let ctxs: Vec<ColumnContext<'_>> = (0..names.len())
            .map(|i| ColumnContext {
                column: names[i],
                tree: &trees[i],
                minimal: &minimal[i],
                maximal: &maximal[i],
            })
            .collect();

        let leaves: Vec<ColumnLeaves> =
            ctxs.iter().map(|c| resolve_column_leaves(&table, c.column, c.tree).unwrap()).collect();
        let plan =
            SearchPlan::build(&ctxs, &leaves, SelectionStrategy::SpecificityLoss, 10_000).unwrap();
        assert_eq!(plan.total_candidates(), 16);
        for idx in 0..plan.total_candidates() {
            let space: usize =
                plan.columns.iter().zip(plan.decode(idx)).map(|(c, d)| c.bin_counts[d]).product();
            assert!(space > DENSE_BIN_CAP, "candidate {idx} spans {space} keys");
        }

        let run = |threads| {
            generate_ultimate_nodes(
                &table,
                &ctxs,
                2,
                SelectionStrategy::SpecificityLoss,
                10_000,
                threads,
            )
            .unwrap()
        };
        let sequential = run(1);
        let sharded = run(4);
        assert_eq!(sequential.mode, SearchMode::Exhaustive);
        assert_eq!(sharded.ultimate, sequential.ultimate);
        assert_eq!(sharded.satisfied, sequential.satisfied);
        assert_eq!(sharded.warnings, sequential.warnings);
        assert!(sequential.satisfied);
        assert_eq!(sequential.ultimate, maximal);
        let columns: Vec<(&str, &DomainHierarchyTree)> =
            names.iter().copied().zip(trees.iter()).collect();
        assert!(satisfies(&table, &columns, &sequential.ultimate, 2));
        assert!(!satisfies(&table, &columns, &minimal, 2));
    }

    #[test]
    fn greedy_matches_exhaustive_feasibility() {
        let (table, age_tree, doctor_tree) = two_column_table();
        let age_min = GeneralizationSet::all_leaves(&age_tree);
        let age_max = GeneralizationSet::root_only(&age_tree);
        let doc_min = GeneralizationSet::all_leaves(&doctor_tree);
        let doc_max = GeneralizationSet::root_only(&doctor_tree);
        let ctxs = contexts(&age_tree, &doctor_tree, &age_min, &age_max, &doc_min, &doc_max);

        // Force the greedy path with a tiny exhaustive limit.
        let r = generate_ultimate_nodes(&table, &ctxs, 2, SelectionStrategy::SpecificityLoss, 1, 2)
            .unwrap();
        assert_eq!(r.mode, SearchMode::Greedy);
        assert!(r.satisfied);
        assert!(satisfies(&table, &[("age", &age_tree), ("doctor", &doctor_tree)], &r.ultimate, 2));
        // Ultimate nodes stay within the usage metrics.
        for (g, ctx) in r.ultimate.iter().zip(&ctxs) {
            assert!(g.is_at_or_below(ctx.tree, ctx.maximal).unwrap());
        }
    }

    #[test]
    fn full_info_loss_selection_also_works() {
        let (table, age_tree, doctor_tree) = two_column_table();
        let age_min = GeneralizationSet::all_leaves(&age_tree);
        let age_max = GeneralizationSet::root_only(&age_tree);
        let doc_min = GeneralizationSet::all_leaves(&doctor_tree);
        let doc_max = GeneralizationSet::root_only(&doctor_tree);
        let ctxs = contexts(&age_tree, &doctor_tree, &age_min, &age_max, &doc_min, &doc_max);
        for limit in [1usize, 10_000] {
            for threads in [1usize, 4] {
                let r = generate_ultimate_nodes(
                    &table,
                    &ctxs,
                    2,
                    SelectionStrategy::FullInfoLoss,
                    limit,
                    threads,
                )
                .unwrap();
                assert!(r.satisfied, "limit {limit}");
                assert!(satisfies(
                    &table,
                    &[("age", &age_tree), ("doctor", &doctor_tree)],
                    &r.ultimate,
                    2
                ));
            }
        }
    }

    #[test]
    fn unbinnable_data_reports_unsatisfied() {
        let (table, age_tree, doctor_tree) = two_column_table();
        // Usage metrics forbid any generalization (maximal = leaves), so
        // k = 2 over the combination cannot be met.
        let age_leaves = GeneralizationSet::all_leaves(&age_tree);
        let doc_leaves = GeneralizationSet::all_leaves(&doctor_tree);
        let ctxs =
            contexts(&age_tree, &doctor_tree, &age_leaves, &age_leaves, &doc_leaves, &doc_leaves);
        for limit in [1usize, 10_000] {
            let r = generate_ultimate_nodes(
                &table,
                &ctxs,
                2,
                SelectionStrategy::SpecificityLoss,
                limit,
                2,
            )
            .unwrap();
            assert!(!r.satisfied, "limit {limit}");
            assert!(!r.warnings.is_empty());
        }
    }

    #[test]
    fn k_one_keeps_the_minimal_generalization() {
        let (table, age_tree, doctor_tree) = two_column_table();
        let age_min = GeneralizationSet::all_leaves(&age_tree);
        let age_max = GeneralizationSet::root_only(&age_tree);
        let doc_min = GeneralizationSet::all_leaves(&doctor_tree);
        let doc_max = GeneralizationSet::root_only(&doctor_tree);
        let ctxs = contexts(&age_tree, &doctor_tree, &age_min, &age_max, &doc_min, &doc_max);
        let r = generate_ultimate_nodes(
            &table,
            &ctxs,
            1,
            SelectionStrategy::SpecificityLoss,
            10_000,
            1,
        )
        .unwrap();
        assert!(r.satisfied);
        // With k=1 nothing needs generalizing, so the minimal (all-leaves)
        // generalization is optimal under both scores.
        assert_eq!(r.ultimate[0], age_min);
        assert_eq!(r.ultimate[1], doc_min);
    }

    #[test]
    fn empty_column_list_is_trivially_satisfied() {
        let (table, _, _) = two_column_table();
        let r = generate_ultimate_nodes(&table, &[], 5, SelectionStrategy::SpecificityLoss, 10, 1)
            .unwrap();
        assert!(r.satisfied);
        assert!(r.ultimate.is_empty());
    }

    #[test]
    fn k_zero_rejected() {
        let (table, age_tree, doctor_tree) = two_column_table();
        let age_min = GeneralizationSet::all_leaves(&age_tree);
        let age_max = GeneralizationSet::root_only(&age_tree);
        let doc_min = GeneralizationSet::all_leaves(&doctor_tree);
        let doc_max = GeneralizationSet::root_only(&doctor_tree);
        let ctxs = contexts(&age_tree, &doctor_tree, &age_min, &age_max, &doc_min, &doc_max);
        assert!(matches!(
            generate_ultimate_nodes(&table, &ctxs, 0, SelectionStrategy::SpecificityLoss, 10, 1),
            Err(BinningError::InvalidK)
        ));
    }

    #[test]
    fn zero_threads_rejected() {
        let (table, age_tree, doctor_tree) = two_column_table();
        let age_min = GeneralizationSet::all_leaves(&age_tree);
        let age_max = GeneralizationSet::root_only(&age_tree);
        let doc_min = GeneralizationSet::all_leaves(&doctor_tree);
        let doc_max = GeneralizationSet::root_only(&doctor_tree);
        let ctxs = contexts(&age_tree, &doctor_tree, &age_min, &age_max, &doc_min, &doc_max);
        assert!(matches!(
            generate_ultimate_nodes(&table, &ctxs, 2, SelectionStrategy::SpecificityLoss, 10, 0),
            Err(BinningError::InvalidThreads)
        ));
    }
}
