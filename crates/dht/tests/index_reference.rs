//! Differential tests of the tree index: every public lookup of
//! `DomainHierarchyTree` must answer exactly what a linear scan over the
//! public node arena answers, errors included.
//!
//! The scans below are the lookups as they were defined before the tree was
//! indexed: `Leaves` and `SubTree` leaves by a depth-first walk, labels,
//! intervals and integer labels by the first match in arena order (leaves:
//! left to right). They read only `nodes()`, `node()`, `root()` and
//! `kind()`, so they share no code with the index.

use medshield_dht::builder::{numeric_binary_tree, CategoricalNodeSpec};
use medshield_dht::{DhtError, DhtKind, DomainHierarchyTree, NodeId};
use medshield_relation::Value;
use proptest::prelude::*;

/// `Leaves(SubTree(id))` by a depth-first walk, left to right.
fn scan_leaves_under(tree: &DomainHierarchyTree, id: NodeId) -> Result<Vec<NodeId>, DhtError> {
    let mut out = Vec::new();
    let mut stack = vec![id];
    while let Some(n) = stack.pop() {
        let node = tree.node(n)?;
        if node.is_leaf() {
            out.push(n);
        } else {
            stack.extend(node.children.iter().rev());
        }
    }
    Ok(out)
}

fn scan_leaves(tree: &DomainHierarchyTree) -> Vec<NodeId> {
    scan_leaves_under(tree, tree.root()).unwrap()
}

/// A categorical label denotes the integer `v` (exact text or numeric
/// equality, as for ICD-9 codes like `008`).
fn label_matches_int(label: &str, v: i64) -> bool {
    label == v.to_string() || label.parse::<i64>() == Ok(v)
}

fn scan_node_by_label(tree: &DomainHierarchyTree, label: &str) -> Result<NodeId, DhtError> {
    tree.nodes()
        .find(|n| n.label == label)
        .map(|n| n.id)
        .ok_or_else(|| DhtError::UnknownLabel(label.to_string()))
}

fn scan_leaf_for_value(tree: &DomainHierarchyTree, value: &Value) -> Result<NodeId, DhtError> {
    let label = |l: NodeId| tree.node(l).unwrap().label.clone();
    match tree.kind() {
        DhtKind::Categorical => match value {
            Value::Text(text) => scan_leaves(tree)
                .into_iter()
                .find(|&l| label(l) == *text)
                .ok_or_else(|| DhtError::ValueOutOfDomain(text.to_string())),
            Value::Int(v) => scan_leaves(tree)
                .into_iter()
                .find(|&l| label_matches_int(&label(l), *v))
                .ok_or_else(|| DhtError::ValueOutOfDomain(v.to_string())),
            other => Err(DhtError::ValueOutOfDomain(other.to_string())),
        },
        DhtKind::Numeric => {
            let point = match value {
                Value::Int(v) => *v,
                Value::Interval { lo, .. } => *lo,
                other => return Err(DhtError::ValueOutOfDomain(other.to_string())),
            };
            scan_leaves(tree)
                .into_iter()
                .find(|&l| {
                    let (lo, hi) = tree.node(l).unwrap().interval.unwrap();
                    point >= lo && point < hi
                })
                .ok_or_else(|| DhtError::ValueOutOfDomain(point.to_string()))
        }
    }
}

fn scan_node_for_value(tree: &DomainHierarchyTree, value: &Value) -> Result<NodeId, DhtError> {
    match value {
        Value::Text(s) => {
            if let Ok(id) = scan_node_by_label(tree, s) {
                return Ok(id);
            }
        }
        Value::Interval { lo, hi } => {
            if let Some(n) = tree.nodes().find(|n| n.interval == Some((*lo, *hi))) {
                return Ok(n.id);
            }
        }
        Value::Int(v) => {
            // `v + 1` wraps for i64::MAX into an interval no node has.
            if let Some(n) = tree.nodes().find(|n| n.interval == Some((*v, v.wrapping_add(1)))) {
                return Ok(n.id);
            }
            if tree.kind() == DhtKind::Categorical {
                if let Some(n) = tree.nodes().find(|n| label_matches_int(&n.label, *v)) {
                    return Ok(n.id);
                }
            }
        }
        Value::Null => {}
    }
    scan_leaf_for_value(tree, value)
}

/// Values to look up in `tree`: every node's label, value and interval
/// bounds (just inside and just outside), integer readings of its labels,
/// the extremes of `i64`, values of the wrong type, and `extra`.
fn probe_values(tree: &DomainHierarchyTree, extra: &[i64]) -> Vec<Value> {
    let mut values = vec![
        Value::Null,
        Value::text("not a label"),
        Value::int(i64::MAX),
        Value::int(i64::MIN),
        Value::interval(-5, 3),
    ];
    values.extend(extra.iter().map(|&v| Value::int(v)));
    for node in tree.nodes() {
        values.push(Value::text(node.label.clone()));
        values.push(node.value());
        if let Ok(v) = node.label.parse::<i64>() {
            values.extend([v - 1, v, v + 1].map(Value::int));
        }
        if let Some((lo, hi)) = node.interval {
            values.extend([lo - 1, lo, hi - 1, hi].map(Value::int));
            values.push(Value::interval(lo, hi));
            values.push(Value::interval(lo, hi + 1));
        }
    }
    values
}

/// Every public lookup of `tree` equals its scan reference.
fn check_against_scans(tree: &DomainHierarchyTree, extra: &[i64]) -> Result<(), TestCaseError> {
    let leaves = scan_leaves(tree);
    prop_assert_eq!(tree.leaves(), leaves.as_slice());
    prop_assert_eq!(tree.leaf_count(), leaves.len());
    for node in tree.nodes() {
        let reference = scan_leaves_under(tree, node.id);
        prop_assert_eq!(tree.leaves_under(node.id).map(<[NodeId]>::to_vec), reference.clone());
        prop_assert_eq!(tree.leaf_count_under(node.id), reference.map(|l| l.len()));
        prop_assert_eq!(tree.node_by_label(&node.label), scan_node_by_label(tree, &node.label));
    }
    let unknown = NodeId(u32::try_from(tree.node_count()).unwrap());
    prop_assert_eq!(
        tree.leaves_under(unknown).map(<[NodeId]>::to_vec),
        Err(DhtError::UnknownNode(unknown))
    );
    prop_assert_eq!(tree.leaf_count_under(unknown), Err(DhtError::UnknownNode(unknown)));
    prop_assert_eq!(tree.node_by_label("not a label"), scan_node_by_label(tree, "not a label"));
    for value in probe_values(tree, extra) {
        let (leaf, reference) = (tree.leaf_for_value(&value), scan_leaf_for_value(tree, &value));
        prop_assert!(leaf == reference, "leaf_for_value({value}): {leaf:?} vs {reference:?}");
        let (node, reference) = (tree.node_for_value(&value), scan_node_for_value(tree, &value));
        prop_assert!(node == reference, "node_for_value({value}): {node:?} vs {reference:?}");
    }
    Ok(())
}

/// A categorical label drawn so that labels collide under integer parsing:
/// `8`, `008`, `+8`, `-8` and `08` all read as (±)8, and `8x` does not.
fn colliding_label(base: u8, style: u8) -> String {
    match style % 6 {
        0 => format!("{base}"),
        1 => format!("00{base}"),
        2 => format!("+{base}"),
        3 => format!("-{base}"),
        4 => format!("0{base}"),
        _ => format!("{base}x"),
    }
}

/// The spec of node `id` in a tree given by each node's parent.
fn spec(id: usize, parents: &[usize], labels: &[String]) -> CategoricalNodeSpec {
    let children: Vec<CategoricalNodeSpec> = (1..labels.len())
        .filter(|&c| parents[c - 1] == id)
        .map(|c| spec(c, parents, labels))
        .collect();
    CategoricalNodeSpec::internal(labels[id].clone(), children)
}

/// Random categorical trees: node `i > 0` hangs under a random earlier
/// node, so shapes range from bushes to single-child chains, and labels are
/// drawn from a small integer-like pool (a repeat falls back to `n<i>`).
fn arb_categorical() -> impl Strategy<Value = DomainHierarchyTree> {
    (prop::collection::vec((any::<u16>(), 0u8..4, any::<u8>()), 0..40), any::<bool>()).prop_map(
        |(nodes, chain)| {
            let mut labels: Vec<String> = vec!["root".to_string()];
            let mut parents = Vec::with_capacity(nodes.len());
            for (i, &(parent, base, style)) in nodes.iter().enumerate() {
                let candidate = colliding_label(base, style);
                let label = if labels.contains(&candidate) { format!("n{i}") } else { candidate };
                labels.push(label);
                // A chain hangs every node under the one before it.
                parents.push(if chain { i } else { usize::from(parent) % (i + 1) });
            }
            spec(0, &parents, &labels).build("col").unwrap()
        },
    )
}

/// Random contiguous numeric leaf intervals; half the trees get an odd
/// leaf count, which promotes a node unchanged through a level.
fn arb_numeric() -> impl Strategy<Value = DomainHierarchyTree> {
    (prop::collection::vec(1i64..12, 1..24), -50i64..50, any::<bool>()).prop_map(
        |(mut widths, start, odd)| {
            if odd && widths.len() % 2 == 0 {
                widths.pop();
            }
            let mut lo = start;
            let intervals: Vec<(i64, i64)> = widths
                .into_iter()
                .map(|w| {
                    lo += w;
                    (lo - w, lo)
                })
                .collect();
            numeric_binary_tree("x", &intervals).unwrap()
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(300))]

    #[test]
    fn categorical_lookups_match_the_scans(tree in arb_categorical(),
                                           extra in prop::collection::vec(-10i64..10, 0..8)) {
        check_against_scans(&tree, &extra)?;
    }

    #[test]
    fn numeric_lookups_match_the_scans(tree in arb_numeric(),
                                       extra in prop::collection::vec(-80i64..400, 0..8)) {
        check_against_scans(&tree, &extra)?;
    }
}

#[test]
fn single_child_chains_and_colliding_labels_match_the_scans() {
    let chain = CategoricalNodeSpec::internal(
        "8",
        vec![CategoricalNodeSpec::internal(
            "+8",
            vec![CategoricalNodeSpec::internal("008", vec![CategoricalNodeSpec::leaf("08")])],
        )],
    )
    .build("chain")
    .unwrap();
    check_against_scans(&chain, &[8, -8, 0]).unwrap();
    // The first node in arena order wins `node_for_value`; only the leaf
    // can answer `leaf_for_value`.
    assert_eq!(chain.node_for_value(&Value::int(8)), Ok(chain.root()));
    assert_eq!(chain.leaf_for_value(&Value::int(8)), chain.node_by_label("08"));
}

#[test]
fn datagen_ontologies_match_the_scans() {
    let trees = medshield_datagen::ontology::all_trees();
    assert_eq!(trees.len(), 5);
    for tree in trees.values() {
        check_against_scans(tree, &[-1, 0, 1, 8, 390, 460, 999, 53_211, 99_999]).unwrap();
    }
}
