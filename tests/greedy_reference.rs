//! Differential test of the greedy multi-attribute search (`GenUltiNd`'s
//! scalability fallback) against a naive row-level reference.
//!
//! The reference below is the greedy coarsening written the plain way: every
//! row carries its own vector of covering nodes, built from the public `dht`
//! API (`leaf_for_value`, `covering_node`), and every round recounts every
//! bin and every violating row from scratch. It shares no code with the
//! search in `binning::multi`, which works on bins and re-keys only the bins
//! a merge touches. Forcing the search onto its greedy path
//! (`exhaustive_limit = 1`), both must agree on the ultimate nodes, the
//! `satisfied` flag, the mode and the warnings, for every thread count.

use medshield_core::binning::multi::{generate_ultimate_nodes, ColumnContext};
use medshield_core::binning::{mono, MinimalNodeStrategy, SearchMode, SelectionStrategy};
use medshield_core::dht::{DhtKind, DomainHierarchyTree, GeneralizationSet, NodeId};
use medshield_core::relation::Table;
use medshield_datagen::{DatasetConfig, MedicalDataset};
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet, HashMap};

/// What the reference reports: ultimate nodes, `satisfied`, warnings.
type Reference = (Vec<GeneralizationSet>, bool, Vec<String>);

/// Increase in one column's score from merging `children` into `parent`,
/// given entries per leaf over the whole table.
fn merge_cost(
    tree: &DomainHierarchyTree,
    entries_per_leaf: &HashMap<NodeId, usize>,
    parent: NodeId,
    children: &[NodeId],
    selection: SelectionStrategy,
) -> f64 {
    if selection == SelectionStrategy::SpecificityLoss {
        return (children.len() as f64 - 1.0) / tree.leaf_count().max(1) as f64;
    }
    let total: usize = entries_per_leaf.values().sum();
    if total == 0 {
        return 0.0;
    }
    let entries = |node: NodeId| -> usize {
        tree.leaves_under(node)
            .unwrap()
            .iter()
            .map(|leaf| entries_per_leaf.get(leaf).copied().unwrap_or(0))
            .sum()
    };
    // Each node costs `entries × (leaves − 1) / |leaves|` (categorical) or
    // `entries × width / span` (numeric), associated as in the search, so
    // the floating-point deltas (and therefore the tie-breaks) agree bit for
    // bit.
    let cost = |n: NodeId| match tree.kind() {
        DhtKind::Categorical => {
            entries(n) as f64 * (tree.leaf_count_under(n).unwrap() as f64 - 1.0)
                / tree.leaf_count() as f64
        }
        DhtKind::Numeric => {
            let (lo, hi) = tree.node(tree.root()).unwrap().interval.unwrap();
            let (l, h) = tree.node(n).unwrap().interval.unwrap();
            entries(n) as f64 * (h - l) as f64 / (hi - lo) as f64
        }
    };
    let child_cost: f64 = children.iter().map(|&c| cost(c)).sum();
    (cost(parent) - child_cost) / total as f64
}

/// The row-level greedy coarsening: recount every row on every round.
fn naive_greedy(
    table: &Table,
    columns: &[ColumnContext<'_>],
    k: usize,
    selection: SelectionStrategy,
) -> Reference {
    // Per column, every row's leaf.
    let row_leaves: Vec<Vec<NodeId>> = columns
        .iter()
        .map(|c| {
            let values = table.column_values(c.column).unwrap();
            values.iter().map(|v| c.tree.leaf_for_value(v).unwrap()).collect()
        })
        .collect();
    let entries_per_leaf: Vec<HashMap<NodeId, usize>> = row_leaves
        .iter()
        .map(|leaves| {
            let mut m = HashMap::new();
            for &leaf in leaves {
                *m.entry(leaf).or_insert(0) += 1;
            }
            m
        })
        .collect();
    let mut current: Vec<BTreeSet<NodeId>> =
        columns.iter().map(|c| c.minimal.nodes().iter().copied().collect()).collect();
    let mut warnings = Vec::new();

    let row_covers = |current: &[BTreeSet<NodeId>]| -> Vec<Vec<NodeId>> {
        let sets: Vec<GeneralizationSet> = columns
            .iter()
            .zip(current)
            .map(|(c, nodes)| GeneralizationSet::new(c.tree, nodes.iter().copied().collect()))
            .collect::<Result<_, _>>()
            .unwrap();
        (0..table.len())
            .map(|row| {
                columns
                    .iter()
                    .zip(&sets)
                    .zip(&row_leaves)
                    .map(|((c, set), leaves)| set.covering_node(c.tree, leaves[row]).unwrap())
                    .collect()
            })
            .collect()
    };
    let violating_rows = |covers: &[Vec<NodeId>]| -> Vec<usize> {
        let mut sizes: HashMap<&[NodeId], usize> = HashMap::new();
        for cover in covers {
            *sizes.entry(cover.as_slice()).or_insert(0) += 1;
        }
        (0..covers.len()).filter(|&row| sizes[covers[row].as_slice()] < k).collect()
    };

    loop {
        let covers = row_covers(&current);
        let violating = violating_rows(&covers);
        if violating.is_empty() {
            break;
        }
        // Candidate merges in (column, parent) order: a parent all of whose
        // children are current nodes, at or below the column's maximal nodes.
        let mut candidates: Vec<(usize, NodeId, Vec<NodeId>)> = Vec::new();
        for (i, c) in columns.iter().enumerate() {
            let mut by_parent: BTreeMap<NodeId, usize> = BTreeMap::new();
            for &node in &current[i] {
                if let Some(parent) = c.tree.node(node).unwrap().parent {
                    *by_parent.entry(parent).or_insert(0) += 1;
                }
            }
            for (parent, present) in by_parent {
                let children = c.tree.node(parent).unwrap().children.clone();
                if present == children.len() && c.maximal.covering_node(c.tree, parent).is_ok() {
                    candidates.push((i, parent, children));
                }
            }
        }
        if candidates.is_empty() {
            warnings.push(format!(
                "greedy multi-attribute binning exhausted all merges without reaching k={k}"
            ));
            break;
        }
        let scored: Vec<(f64, usize)> = candidates
            .iter()
            .map(|(i, parent, children)| {
                let delta = merge_cost(
                    columns[*i].tree,
                    &entries_per_leaf[*i],
                    *parent,
                    children,
                    selection,
                );
                let touched =
                    violating.iter().filter(|&&row| children.contains(&covers[row][*i])).count();
                (delta, touched)
            })
            .collect();
        // Best violating rows touched per unit of loss, then the smaller
        // delta, then the earlier candidate; the cheapest merge when none
        // touches a violating row.
        let any_touching = scored.iter().any(|&(_, t)| t > 0);
        let mut pick: Option<usize> = None;
        for (idx, &(delta, touched)) in scored.iter().enumerate() {
            if any_touching && touched == 0 {
                continue;
            }
            let better = match pick {
                None => true,
                Some(p) => {
                    let (best_delta, best_touched) = scored[p];
                    if any_touching {
                        let ratio = touched as f64 / (delta + 1e-9);
                        let best_ratio = best_touched as f64 / (best_delta + 1e-9);
                        ratio > best_ratio || (ratio == best_ratio && delta < best_delta)
                    } else {
                        delta < best_delta
                    }
                }
            };
            if better {
                pick = Some(idx);
            }
        }
        let (i, parent, children) = &candidates[pick.unwrap()];
        for ch in children {
            current[*i].remove(ch);
        }
        current[*i].insert(*parent);
    }

    let satisfied = violating_rows(&row_covers(&current)).is_empty();
    let ultimate = columns
        .iter()
        .zip(&current)
        .map(|(c, nodes)| GeneralizationSet::new(c.tree, nodes.iter().copied().collect()).unwrap())
        .collect();
    (ultimate, satisfied, warnings)
}

/// How each case bounds the search.
#[derive(Debug, Clone, Copy)]
enum Bounds {
    /// Maximal = root; minimal = mono-attribute binning's minimal nodes.
    MonoMinimal,
    /// Maximal = root; minimal = all leaves (the longest merge sequences).
    LeavesToRoot,
    /// Minimal = maximal = all leaves, except the first column, which may
    /// merge up to its root: the search runs out of merges without reaching
    /// k ("exhausted all merges"). One column has to stay mergeable, since
    /// with every maximal at the leaves the combination space holds a single
    /// candidate and the exhaustive search takes it.
    LeavesOnly,
}

/// Check the search against the reference on one table and return the
/// reference outcome; `None` when the bounds leave a single combination
/// (exhaustive path, nothing to compare).
fn check(
    ds: &MedicalDataset,
    k: usize,
    selection: SelectionStrategy,
    bounds: Bounds,
) -> Result<Option<Reference>, TestCaseError> {
    let names: Vec<String> =
        ds.table.schema().quasi_names().into_iter().map(str::to_owned).collect();
    let trees: Vec<&DomainHierarchyTree> = names.iter().map(|n| &ds.trees[n]).collect();
    let (minimal, maximal): (Vec<GeneralizationSet>, Vec<GeneralizationSet>) = names
        .iter()
        .zip(&trees)
        .enumerate()
        .map(|(i, (name, &tree))| match bounds {
            Bounds::MonoMinimal => {
                let root = GeneralizationSet::root_only(tree);
                let mono = mono::generate_minimal_nodes(
                    &ds.table,
                    name,
                    tree,
                    &root,
                    k,
                    MinimalNodeStrategy::default(),
                )
                .unwrap();
                (mono.minimal, root)
            }
            Bounds::LeavesToRoot => {
                (GeneralizationSet::all_leaves(tree), GeneralizationSet::root_only(tree))
            }
            Bounds::LeavesOnly => {
                let leaves = GeneralizationSet::all_leaves(tree);
                let max = if i == 0 { GeneralizationSet::root_only(tree) } else { leaves.clone() };
                (leaves, max)
            }
        })
        .unzip();
    let columns: Vec<ColumnContext<'_>> = names
        .iter()
        .zip(&trees)
        .zip(minimal.iter().zip(&maximal))
        .map(|((name, &tree), (minimal, maximal))| ColumnContext {
            column: name,
            tree,
            minimal,
            maximal,
        })
        .collect();
    let combinations: usize = columns
        .iter()
        .map(|c| GeneralizationSet::count_between(c.tree, c.minimal, c.maximal).unwrap())
        .fold(1, usize::saturating_mul);
    if combinations <= 1 {
        return Ok(None);
    }

    let (ultimate, satisfied, warnings) = naive_greedy(&ds.table, &columns, k, selection);
    for threads in [1, 4] {
        let r = generate_ultimate_nodes(&ds.table, &columns, k, selection, 1, threads).unwrap();
        let case = format!("{bounds:?}, k={k}, {selection:?}, {threads} threads");
        prop_assert!(r.mode == SearchMode::Greedy, "{}: mode {:?}", case, r.mode);
        prop_assert!(r.ultimate == ultimate, "{}: ultimate nodes differ", case);
        prop_assert!(r.satisfied == satisfied, "{}: satisfied {}", case, r.satisfied);
        prop_assert!(r.warnings == warnings, "{}: warnings {:?}", case, r.warnings);
    }
    Ok(Some((ultimate, satisfied, warnings)))
}

fn dataset(rows: usize, seed: u64) -> MedicalDataset {
    MedicalDataset::generate(&DatasetConfig { num_tuples: rows, seed, zipf_exponent: 0.8 })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Random hospital tables of 0–600 rows, k ∈ 1..=12, both selection
    /// strategies, all three kinds of bounds.
    #[test]
    fn greedy_search_matches_the_row_level_reference(
        rows in 0usize..=600,
        seed in 0u64..10_000,
        k in 1usize..=12,
        full_info_loss in any::<bool>(),
    ) {
        let ds = dataset(rows, seed);
        let selection = if full_info_loss {
            SelectionStrategy::FullInfoLoss
        } else {
            SelectionStrategy::SpecificityLoss
        };
        for bounds in [Bounds::MonoMinimal, Bounds::LeavesToRoot, Bounds::LeavesOnly] {
            check(&ds, k, selection, bounds)?;
        }
    }
}

/// The fixed cases the random ones are expected to reach: an empty table, a
/// long merge sequence that ends satisfied, and a search that exhausts its
/// merges.
#[test]
fn reference_covers_the_satisfied_and_exhausted_outcomes() {
    let greedy = |ds: &MedicalDataset, selection, bounds| {
        check(ds, 10, selection, bounds).unwrap().expect("bounds leave more than one combination")
    };
    let (_, satisfied, _) =
        greedy(&dataset(0, 7), SelectionStrategy::FullInfoLoss, Bounds::LeavesToRoot);
    assert!(satisfied);
    let ds = dataset(400, 7);
    for selection in [SelectionStrategy::SpecificityLoss, SelectionStrategy::FullInfoLoss] {
        let (_, satisfied, warnings) = greedy(&ds, selection, Bounds::LeavesToRoot);
        assert!(satisfied && warnings.is_empty(), "{warnings:?}");
        let (_, satisfied, warnings) = greedy(&ds, selection, Bounds::LeavesOnly);
        assert!(!satisfied);
        assert_eq!(warnings.len(), 1, "{warnings:?}");
    }
}
