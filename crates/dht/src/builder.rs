//! Builders for categorical and numeric domain hierarchy trees.
//!
//! * Categorical trees are described by a nested [`CategoricalNodeSpec`]
//!   (Fig. 1 of the paper is reproduced in the tests).
//! * Numeric trees follow Fig. 3: the domain is divided into a series of
//!   disjoint, contiguous intervals which are then pairwise combined into a
//!   binary tree. Intervals need not be of equal size
//!   ([`numeric_binary_tree`]); [`numeric_uniform_tree`] is a convenience for
//!   equal-width leaves.

use crate::error::DhtError;
use crate::tree::{DhtKind, DomainHierarchyTree, Node, NodeId};
use std::collections::HashSet;

/// Declarative description of a categorical DHT node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CategoricalNodeSpec {
    /// Node label (must be unique within the tree).
    pub label: String,
    /// Child specifications; empty for leaves.
    pub children: Vec<CategoricalNodeSpec>,
}

impl CategoricalNodeSpec {
    /// A leaf node.
    pub fn leaf(label: impl Into<String>) -> Self {
        CategoricalNodeSpec { label: label.into(), children: Vec::new() }
    }

    /// An internal node with children.
    pub fn internal(label: impl Into<String>, children: Vec<CategoricalNodeSpec>) -> Self {
        CategoricalNodeSpec { label: label.into(), children }
    }

    /// Materialize the spec into a [`DomainHierarchyTree`] for `attribute`.
    ///
    /// Children are sorted by label so the "sorted set S" of the
    /// watermarking algorithm is deterministic.
    pub fn build(&self, attribute: impl Into<String>) -> Result<DomainHierarchyTree, DhtError> {
        let mut nodes: Vec<Node> = Vec::new();
        let mut seen: HashSet<String> = HashSet::new();
        let root = Self::add(self, None, 0, &mut nodes, &mut seen)?;
        Ok(DomainHierarchyTree::from_parts(attribute.into(), DhtKind::Categorical, nodes, root))
    }

    fn add(
        spec: &CategoricalNodeSpec,
        parent: Option<NodeId>,
        depth: usize,
        nodes: &mut Vec<Node>,
        seen: &mut HashSet<String>,
    ) -> Result<NodeId, DhtError> {
        if !seen.insert(spec.label.clone()) {
            return Err(DhtError::DuplicateLabel(spec.label.clone()));
        }
        let id = NodeId(nodes.len() as u32);
        nodes.push(Node {
            id,
            label: spec.label.clone(),
            interval: None,
            parent,
            children: Vec::new(),
            depth,
        });
        // Children are added in label order for a deterministic sorted set.
        let mut ordered: Vec<&CategoricalNodeSpec> = spec.children.iter().collect();
        ordered.sort_by(|a, b| a.label.cmp(&b.label));
        let mut child_ids = Vec::with_capacity(ordered.len());
        for child in ordered {
            child_ids.push(Self::add(child, Some(id), depth + 1, nodes, seen)?);
        }
        nodes[id.0 as usize].children = child_ids;
        Ok(id)
    }
}

/// Build a numeric binary DHT from explicit leaf intervals.
///
/// The intervals must be non-empty, contiguous and in increasing order; they
/// need not be of equal size (§4: "intervals should be of moderate size and
/// they need not to be of equal size"). Adjacent nodes are combined pairwise
/// level by level until a single root remains, exactly as in Fig. 3. With an
/// odd number of nodes at some level, the last node is promoted unchanged.
pub fn numeric_binary_tree(
    attribute: impl Into<String>,
    intervals: &[(i64, i64)],
) -> Result<DomainHierarchyTree, DhtError> {
    if intervals.is_empty() {
        return Err(DhtError::EmptyDomain);
    }
    for &(lo, hi) in intervals {
        if lo >= hi {
            return Err(DhtError::InvalidInterval { lo, hi });
        }
    }
    for w in intervals.windows(2) {
        if w[1].0 != w[0].1 {
            return Err(DhtError::NonContiguousIntervals {
                expected_start: w[0].1,
                actual_start: w[1].0,
            });
        }
    }

    // Create leaf nodes first, then combine pairwise upward. Depths are
    // assigned top-down in a second pass once the height is known.
    let mut nodes: Vec<Node> = Vec::new();
    let mut level: Vec<NodeId> = intervals
        .iter()
        .map(|&(lo, hi)| {
            let id = NodeId(nodes.len() as u32);
            nodes.push(Node {
                id,
                label: format!("[{lo},{hi})"),
                interval: Some((lo, hi)),
                parent: None,
                children: Vec::new(),
                depth: 0,
            });
            id
        })
        .collect();

    while level.len() > 1 {
        let mut next = Vec::with_capacity(level.len() / 2 + 1);
        let mut i = 0;
        while i < level.len() {
            if i + 1 < level.len() {
                let left = level[i];
                let right = level[i + 1];
                let lo = nodes[left.0 as usize].interval.expect("numeric node").0;
                let hi = nodes[right.0 as usize].interval.expect("numeric node").1;
                let id = NodeId(nodes.len() as u32);
                nodes.push(Node {
                    id,
                    label: format!("[{lo},{hi})"),
                    interval: Some((lo, hi)),
                    parent: None,
                    children: vec![left, right],
                    depth: 0,
                });
                nodes[left.0 as usize].parent = Some(id);
                nodes[right.0 as usize].parent = Some(id);
                next.push(id);
                i += 2;
            } else {
                // Odd node out: promote it to the next level unchanged.
                next.push(level[i]);
                i += 1;
            }
        }
        level = next;
    }
    let root = level[0];

    // Assign depths top-down.
    let mut stack = vec![(root, 0usize)];
    while let Some((id, depth)) = stack.pop() {
        nodes[id.0 as usize].depth = depth;
        let children = nodes[id.0 as usize].children.clone();
        for c in children {
            stack.push((c, depth + 1));
        }
    }

    Ok(DomainHierarchyTree::from_parts(attribute.into(), DhtKind::Numeric, nodes, root))
}

/// Build a numeric binary DHT over `[lo, hi)` with `leaves` equal-width leaf
/// intervals (the last leaf absorbs any remainder).
pub fn numeric_uniform_tree(
    attribute: impl Into<String>,
    lo: i64,
    hi: i64,
    leaves: usize,
) -> Result<DomainHierarchyTree, DhtError> {
    if lo >= hi {
        return Err(DhtError::InvalidInterval { lo, hi });
    }
    if leaves == 0 {
        return Err(DhtError::EmptyDomain);
    }
    let span = hi - lo;
    let width = (span / leaves as i64).max(1);
    let mut intervals = Vec::with_capacity(leaves);
    let mut start = lo;
    for i in 0..leaves {
        let end = if i + 1 == leaves { hi } else { (start + width).min(hi) };
        if start >= end {
            break;
        }
        intervals.push((start, end));
        start = end;
    }
    numeric_binary_tree(attribute, &intervals)
}

#[cfg(test)]
mod tests {
    use super::*;
    use medshield_relation::Value;

    #[test]
    fn categorical_duplicate_labels_rejected() {
        let spec = CategoricalNodeSpec::internal(
            "root",
            vec![CategoricalNodeSpec::leaf("a"), CategoricalNodeSpec::leaf("a")],
        );
        assert_eq!(spec.build("x").unwrap_err(), DhtError::DuplicateLabel("a".into()));
    }

    #[test]
    fn categorical_children_sorted() {
        let spec = CategoricalNodeSpec::internal(
            "root",
            vec![
                CategoricalNodeSpec::leaf("zebra"),
                CategoricalNodeSpec::leaf("ant"),
                CategoricalNodeSpec::leaf("mule"),
            ],
        );
        let tree = spec.build("animals").unwrap();
        let labels: Vec<String> = tree
            .children(tree.root())
            .unwrap()
            .iter()
            .map(|&c| tree.node(c).unwrap().label.clone())
            .collect();
        assert_eq!(labels, vec!["ant", "mule", "zebra"]);
    }

    #[test]
    fn single_leaf_categorical_tree() {
        let tree = CategoricalNodeSpec::leaf("only").build("x").unwrap();
        assert_eq!(tree.leaf_count(), 1);
        assert_eq!(tree.root(), tree.leaves()[0]);
        assert_eq!(tree.height(), 0);
    }

    #[test]
    fn fig3_age_tree() {
        // Figure 3: [0,150) split into 8 intervals, pairwise combined.
        let intervals =
            [(0, 20), (20, 40), (40, 60), (60, 80), (80, 100), (100, 120), (120, 140), (140, 150)];
        let tree = numeric_binary_tree("age", &intervals).unwrap();
        assert_eq!(tree.leaf_count(), 8);
        assert_eq!(tree.node_count(), 15);
        assert_eq!(tree.height(), 3);
        assert_eq!(tree.node_value(tree.root()).unwrap(), Value::interval(0, 150));
        // Interior nodes union their children.
        let n = tree.node_for_value(&Value::interval(0, 40)).unwrap();
        let kids = tree.children(n).unwrap();
        assert_eq!(kids.len(), 2);
        assert_eq!(tree.node_value(kids[0]).unwrap(), Value::interval(0, 20));
        assert_eq!(tree.node_value(kids[1]).unwrap(), Value::interval(20, 40));
    }

    #[test]
    fn numeric_rejects_bad_intervals() {
        assert!(matches!(
            numeric_binary_tree("x", &[(10, 5)]),
            Err(DhtError::InvalidInterval { .. })
        ));
        assert!(matches!(
            numeric_binary_tree("x", &[(0, 5), (6, 10)]),
            Err(DhtError::NonContiguousIntervals { .. })
        ));
        assert!(matches!(numeric_binary_tree("x", &[]), Err(DhtError::EmptyDomain)));
    }

    #[test]
    fn numeric_odd_number_of_leaves() {
        let tree = numeric_binary_tree("x", &[(0, 10), (10, 20), (20, 30)]).unwrap();
        assert_eq!(tree.leaf_count(), 3);
        assert_eq!(tree.node_value(tree.root()).unwrap(), Value::interval(0, 30));
        // Every leaf reaches the root.
        for &leaf in tree.leaves() {
            assert!(tree.is_ancestor_or_self(tree.root(), leaf).unwrap());
        }
    }

    #[test]
    fn numeric_single_interval() {
        let tree = numeric_binary_tree("x", &[(0, 100)]).unwrap();
        assert_eq!(tree.leaf_count(), 1);
        assert_eq!(tree.root(), tree.leaves()[0]);
    }

    #[test]
    fn uniform_tree_covers_domain() {
        let tree = numeric_uniform_tree("age", 0, 150, 8).unwrap();
        assert_eq!(tree.leaf_count(), 8);
        assert_eq!(tree.node_value(tree.root()).unwrap(), Value::interval(0, 150));
        // Every age in [0,150) has a leaf.
        for age in [0, 1, 37, 74, 149] {
            assert!(tree.leaf_for_value(&Value::int(age)).is_ok(), "age {age}");
        }
        assert!(tree.leaf_for_value(&Value::int(150)).is_err());
    }

    #[test]
    fn uniform_tree_rejects_degenerate_domains() {
        assert!(numeric_uniform_tree("x", 10, 10, 4).is_err());
        assert!(numeric_uniform_tree("x", 0, 10, 0).is_err());
    }

    #[test]
    fn uniform_tree_more_leaves_than_span() {
        // Requesting more leaves than integers in the span degrades gracefully.
        let tree = numeric_uniform_tree("x", 0, 3, 10).unwrap();
        assert!(tree.leaf_count() <= 3);
        for v in 0..3 {
            assert!(tree.leaf_for_value(&Value::int(v)).is_ok());
        }
    }

    #[test]
    fn depths_are_consistent_with_parents() {
        let tree = numeric_uniform_tree("age", 0, 160, 16).unwrap();
        for node in tree.nodes() {
            if let Some(p) = node.parent {
                assert_eq!(node.depth, tree.node(p).unwrap().depth + 1);
            } else {
                assert_eq!(node.depth, 0);
            }
        }
    }
}
