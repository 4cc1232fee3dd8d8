//! Mono-attribute binning: `GenMinNd` / `SubGMN` (Fig. 5 of the paper).
//!
//! For each quasi-identifying attribute, binning proceeds **downward** from
//! the maximal generalization nodes along the domain hierarchy tree until it
//! reaches the lowest set of nodes that still forms a valid generalization
//! satisfying k-anonymity for that single attribute. Those nodes are the
//! *minimal generalization nodes*.
//!
//! The minimality rationale is configurable ([`MinimalNodeStrategy`]): the
//! paper's simple rule marks a node minimal as soon as *some* child falls
//! below k; the "more aggressive strategy" it sketches lets children that
//! hold no records at all be ignored, descending further.

use crate::config::MinimalNodeStrategy;
use crate::error::BinningError;
use crate::plan::{resolve_column_leaves, ColumnLeaves};
use medshield_dht::{DomainHierarchyTree, GeneralizationSet, NodeId};
use medshield_relation::Table;

/// The outcome of mono-attribute binning for one column.
#[derive(Debug, Clone)]
pub struct MonoBinning {
    /// The minimal generalization nodes.
    pub minimal: GeneralizationSet,
    /// Human-readable notes about places where the data were not binnable
    /// within the usage metrics (e.g. a maximal node's whole subtree holds
    /// fewer than k records). Empty when binning went cleanly.
    pub warnings: Vec<String>,
}

/// `GenMinNd(tr, maxgends, tbl, k)`: compute the minimal generalization nodes
/// of `column`, starting downward from `maximal` and requiring every bin of
/// the single attribute to hold at least `k` records.
pub fn generate_minimal_nodes(
    table: &Table,
    column: &str,
    tree: &DomainHierarchyTree,
    maximal: &GeneralizationSet,
    k: usize,
    strategy: MinimalNodeStrategy,
) -> Result<MonoBinning, BinningError> {
    if k == 0 {
        return Err(BinningError::InvalidK);
    }
    let leaves = resolve_column_leaves(table, column, tree)?;
    minimal_nodes(column, tree, &leaves, maximal, k, strategy)
}

/// [`generate_minimal_nodes`] over a column already resolved to its leaves
/// (`k` is at least 1).
pub(crate) fn minimal_nodes(
    column: &str,
    tree: &DomainHierarchyTree,
    leaves: &ColumnLeaves,
    maximal: &GeneralizationSet,
    k: usize,
    strategy: MinimalNodeStrategy,
) -> Result<MonoBinning, BinningError> {
    let mut minimal_nodes = Vec::new();
    let mut warnings = Vec::new();

    for &max_node in maximal.nodes() {
        let count = leaves.count_under(max_node)?;
        if count < k && count > 0 {
            // The paper's SubGMN returns NULL here (the data are not binnable
            // below this node); we keep the maximal node itself so the result
            // is still a valid generalization, and surface a warning. The
            // multi-attribute stage and the k+ε margin deal with the rest.
            warnings.push(format!(
                "column {column}: subtree under maximal node {} holds only {count} < k={k} records",
                tree.node(max_node)?.label
            ));
            minimal_nodes.push(max_node);
            continue;
        }
        sub_gmn(tree, leaves, max_node, k, strategy, &mut minimal_nodes)?;
    }

    let minimal = GeneralizationSet::new(tree, minimal_nodes)?;
    Ok(MonoBinning { minimal, warnings })
}

/// `SubGMN`: descend while every child of the current node still satisfies
/// k-anonymity; otherwise the current node is minimal.
fn sub_gmn(
    tree: &DomainHierarchyTree,
    leaves: &ColumnLeaves,
    node: NodeId,
    k: usize,
    strategy: MinimalNodeStrategy,
    out: &mut Vec<NodeId>,
) -> Result<(), BinningError> {
    let children = tree.children(node)?;
    if children.is_empty() {
        out.push(node);
        return Ok(());
    }
    let descend_ok = children.iter().all(|&c| {
        let count = leaves.count_under(c).unwrap_or(0);
        count >= k || (strategy == MinimalNodeStrategy::Aggressive && count == 0)
    });
    if !descend_ok {
        out.push(node);
        return Ok(());
    }
    for &child in children {
        if leaves.count_under(child)? == 0 {
            // Aggressive strategy: an empty subtree stays as a single
            // generalization node (it covers its leaves; there is nothing to
            // re-identify inside it).
            out.push(child);
        } else {
            sub_gmn(tree, leaves, child, k, strategy, out)?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use medshield_dht::builder::{numeric_binary_tree, CategoricalNodeSpec};
    use medshield_metrics::anonymity;
    use medshield_relation::{ColumnDef, ColumnRole, Schema, Value};

    fn role_tree() -> DomainHierarchyTree {
        CategoricalNodeSpec::internal(
            "Person",
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
                        CategoricalNodeSpec::leaf("Pharmacist"),
                        CategoricalNodeSpec::leaf("Nurse"),
                        CategoricalNodeSpec::leaf("Consultant"),
                    ],
                ),
            ],
        )
        .build("role")
        .unwrap()
    }

    fn role_table(counts: &[(&str, usize)]) -> Table {
        let schema =
            Schema::new(vec![ColumnDef::new("role", ColumnRole::QuasiCategorical)]).unwrap();
        let mut t = Table::new(schema);
        for (label, n) in counts {
            for _ in 0..*n {
                t.insert(vec![Value::text(*label)]).unwrap();
            }
        }
        t
    }

    /// Apply a generalization to a fresh copy of the single-column table and
    /// verify per-attribute k-anonymity.
    fn binned_satisfies_k(
        table: &Table,
        tree: &DomainHierarchyTree,
        g: &GeneralizationSet,
        k: usize,
    ) -> bool {
        let role = table.schema().index_of("role").unwrap();
        let t = table
            .map_distinct(&[role], |_, v| g.generalize_value(tree, v).map_err(BinningError::Dht))
            .unwrap();
        anonymity::column_satisfies_k(&t, "role", k).unwrap()
    }

    #[test]
    fn k1_keeps_leaves() {
        let tree = role_tree();
        let table = role_table(&[("Surgeon", 3), ("Nurse", 2), ("Pharmacist", 1)]);
        let maximal = GeneralizationSet::root_only(&tree);
        let r =
            generate_minimal_nodes(&table, "role", &tree, &maximal, 1, Default::default()).unwrap();
        // Every populated leaf satisfies k=1; unpopulated leaves make their
        // parents stop descending under the conservative rule only if a
        // populated sibling exists... with k=1 any leaf (even empty) has
        // count 0 < 1, so parents of empty leaves stay whole.
        assert!(r.warnings.is_empty());
        assert!(binned_satisfies_k(&table, &tree, &r.minimal, 1));
    }

    #[test]
    fn conservative_stops_when_a_child_is_small() {
        let tree = role_tree();
        // Surgeon 5, Physician 1 → Doctor cannot split under k=3.
        // Pharmacist 4, Nurse 4, Consultant 4 → Paramedic splits fully.
        let table = role_table(&[
            ("Surgeon", 5),
            ("Physician", 1),
            ("Pharmacist", 4),
            ("Nurse", 4),
            ("Consultant", 4),
        ]);
        let maximal = GeneralizationSet::root_only(&tree);
        let r = generate_minimal_nodes(
            &table,
            "role",
            &tree,
            &maximal,
            3,
            MinimalNodeStrategy::Conservative,
        )
        .unwrap();
        let doctor = tree.node_by_label("Doctor").unwrap();
        assert!(r.minimal.contains(doctor), "Doctor should stay whole");
        assert!(r.minimal.contains(tree.node_by_label("Pharmacist").unwrap()));
        assert!(r.minimal.contains(tree.node_by_label("Nurse").unwrap()));
        assert!(r.minimal.contains(tree.node_by_label("Consultant").unwrap()));
        assert!(binned_satisfies_k(&table, &tree, &r.minimal, 3));
    }

    #[test]
    fn aggressive_ignores_empty_children() {
        let tree = role_tree();
        // Pharmacist 6, Nurse 6, Consultant 0. Conservative: Paramedic stays
        // whole (Consultant has 0 < k). Aggressive: descends, keeping the
        // empty Consultant leaf as its own node.
        let table =
            role_table(&[("Pharmacist", 6), ("Nurse", 6), ("Surgeon", 6), ("Physician", 6)]);
        let maximal = GeneralizationSet::root_only(&tree);
        let paramedic = tree.node_by_label("Paramedic").unwrap();

        let conservative = generate_minimal_nodes(
            &table,
            "role",
            &tree,
            &maximal,
            4,
            MinimalNodeStrategy::Conservative,
        )
        .unwrap();
        assert!(conservative.minimal.contains(paramedic));

        let aggressive = generate_minimal_nodes(
            &table,
            "role",
            &tree,
            &maximal,
            4,
            MinimalNodeStrategy::Aggressive,
        )
        .unwrap();
        assert!(!aggressive.minimal.contains(paramedic));
        assert!(aggressive.minimal.contains(tree.node_by_label("Pharmacist").unwrap()));
        assert!(aggressive.minimal.contains(tree.node_by_label("Consultant").unwrap()));
        // Both are valid and both satisfy k.
        assert!(binned_satisfies_k(&table, &tree, &conservative.minimal, 4));
        assert!(binned_satisfies_k(&table, &tree, &aggressive.minimal, 4));
        // Aggressive loses no more information than conservative.
        assert!(aggressive.minimal.len() >= conservative.minimal.len());
    }

    #[test]
    fn binning_respects_maximal_nodes() {
        let tree = role_tree();
        let table = role_table(&[("Surgeon", 1), ("Physician", 1), ("Nurse", 1)]);
        // Usage metrics: may not generalize above {Doctor, Paramedic}.
        let doctor = tree.node_by_label("Doctor").unwrap();
        let paramedic = tree.node_by_label("Paramedic").unwrap();
        let maximal = GeneralizationSet::new(&tree, vec![doctor, paramedic]).unwrap();
        let r =
            generate_minimal_nodes(&table, "role", &tree, &maximal, 2, Default::default()).unwrap();
        // Every minimal node must lie at or below a maximal node.
        assert!(r.minimal.is_at_or_below(&tree, &maximal).unwrap());
        // k=2 with only 1 Nurse under Paramedic → Paramedic stays whole;
        // Doctor has 2 spread across 2 children → children are 1 each → stays whole.
        assert!(r.minimal.contains(doctor));
        assert!(r.minimal.contains(paramedic));
    }

    #[test]
    fn unbinnable_subtree_produces_warning() {
        let tree = role_tree();
        // Only one record under Doctor, k = 5, maximal nodes {Doctor, Paramedic}.
        let table = role_table(&[("Surgeon", 1), ("Nurse", 7)]);
        let doctor = tree.node_by_label("Doctor").unwrap();
        let paramedic = tree.node_by_label("Paramedic").unwrap();
        let maximal = GeneralizationSet::new(&tree, vec![doctor, paramedic]).unwrap();
        let r =
            generate_minimal_nodes(&table, "role", &tree, &maximal, 5, Default::default()).unwrap();
        assert_eq!(r.warnings.len(), 1);
        assert!(r.warnings[0].contains("Doctor"));
        // Result is still a valid generalization bounded by the maximal nodes.
        assert!(r.minimal.is_at_or_below(&tree, &maximal).unwrap());
    }

    #[test]
    fn numeric_tree_downward_binning() {
        let tree = numeric_binary_tree("age", &[(0, 25), (25, 50), (50, 75), (75, 100)]).unwrap();
        let schema = Schema::new(vec![ColumnDef::new("age", ColumnRole::QuasiNumeric)]).unwrap();
        let mut table = Table::new(schema);
        // 5 young, 5 middle-aged, 4 old (75-100), none in [50,75): the left
        // half splits into its leaves; the right half must stay whole because
        // its [50,75) child is empty (< k) under the conservative rule.
        for v in [10, 12, 15, 20, 24, 30, 35, 40, 44, 49, 80, 85, 90, 95] {
            table.insert(vec![Value::int(v)]).unwrap();
        }
        let maximal = GeneralizationSet::root_only(&tree);
        let r =
            generate_minimal_nodes(&table, "age", &tree, &maximal, 4, Default::default()).unwrap();
        let right = tree.node_for_value(&Value::interval(50, 100)).unwrap();
        let left_lo = tree.node_for_value(&Value::interval(0, 25)).unwrap();
        let left_hi = tree.node_for_value(&Value::interval(25, 50)).unwrap();
        assert!(r.minimal.contains(right));
        assert!(r.minimal.contains(left_lo));
        assert!(r.minimal.contains(left_hi));
    }

    #[test]
    fn k_zero_is_rejected() {
        let tree = role_tree();
        let table = role_table(&[("Surgeon", 1)]);
        let maximal = GeneralizationSet::root_only(&tree);
        assert!(matches!(
            generate_minimal_nodes(&table, "role", &tree, &maximal, 0, Default::default()),
            Err(BinningError::InvalidK)
        ));
    }

    #[test]
    fn larger_k_never_yields_more_specific_generalization() {
        let tree = role_tree();
        let table = role_table(&[
            ("Surgeon", 8),
            ("Physician", 6),
            ("Pharmacist", 5),
            ("Nurse", 4),
            ("Consultant", 3),
        ]);
        let maximal = GeneralizationSet::root_only(&tree);
        let mut previous_len = usize::MAX;
        for k in [1, 3, 5, 9, 20, 100] {
            let r = generate_minimal_nodes(&table, "role", &tree, &maximal, k, Default::default())
                .unwrap();
            assert!(
                r.minimal.len() <= previous_len,
                "k={k} produced a more specific generalization than a smaller k"
            );
            previous_len = r.minimal.len();
        }
    }
}
