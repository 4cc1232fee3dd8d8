//! Property-based tests of the domain-hierarchy-tree invariants that the
//! binning and watermarking algorithms rely on.

use medshield_dht::builder::{numeric_binary_tree, CategoricalNodeSpec};
use medshield_dht::{DomainHierarchyTree, GeneralizationSet};
use medshield_relation::Value;
use proptest::prelude::*;

/// Random contiguous interval lists (width 1..20, 1..40 leaves).
fn arb_intervals() -> impl Strategy<Value = Vec<(i64, i64)>> {
    (prop::collection::vec(1i64..20, 1..40), -100i64..100).prop_map(|(widths, start)| {
        let mut lo = start;
        widths
            .into_iter()
            .map(|w| {
                let iv = (lo, lo + w);
                lo += w;
                iv
            })
            .collect()
    })
}

/// Random small categorical trees described by per-group leaf counts.
fn arb_categorical() -> impl Strategy<Value = DomainHierarchyTree> {
    prop::collection::vec(1usize..6, 1..6).prop_map(|groups| {
        let children: Vec<CategoricalNodeSpec> = groups
            .iter()
            .enumerate()
            .map(|(g, &leaves)| {
                CategoricalNodeSpec::internal(
                    format!("g{g}"),
                    (0..leaves).map(|l| CategoricalNodeSpec::leaf(format!("g{g}-l{l}"))).collect(),
                )
            })
            .collect();
        CategoricalNodeSpec::internal("root", children).build("col").unwrap()
    })
}

proptest! {
    /// Numeric trees built from arbitrary contiguous intervals keep every
    /// structural invariant: one leaf per interval, every in-domain point maps
    /// to exactly the leaf containing it, the root spans the domain, and
    /// every parent's interval is the union of its children's.
    #[test]
    fn numeric_tree_invariants(intervals in arb_intervals()) {
        let tree = numeric_binary_tree("x", &intervals).unwrap();
        prop_assert_eq!(tree.leaf_count(), intervals.len());
        let (dom_lo, dom_hi) = (intervals[0].0, intervals.last().unwrap().1);
        prop_assert_eq!(tree.node_value(tree.root()).unwrap(), if dom_hi == dom_lo + 1 {
            Value::Int(dom_lo)
        } else {
            Value::interval(dom_lo, dom_hi)
        });
        // Spot-check containment at every interval boundary.
        for &(lo, hi) in &intervals {
            for point in [lo, hi - 1] {
                let leaf = tree.leaf_for_value(&Value::int(point)).unwrap();
                let (llo, lhi) = tree.node(leaf).unwrap().interval.unwrap();
                prop_assert!(point >= llo && point < lhi);
            }
        }
        // Out-of-domain points are rejected.
        prop_assert!(tree.leaf_for_value(&Value::int(dom_hi)).is_err());
        prop_assert!(tree.leaf_for_value(&Value::int(dom_lo - 1)).is_err());
        // Parent intervals union their children.
        for node in tree.nodes() {
            if !node.children.is_empty() {
                let (plo, phi) = node.interval.unwrap();
                let first = tree.node(node.children[0]).unwrap().interval.unwrap();
                let last = tree.node(*node.children.last().unwrap()).unwrap().interval.unwrap();
                prop_assert_eq!((plo, phi), (first.0, last.1));
            }
        }
    }

    /// For every node of a random categorical tree, `{node} ∪ {leaves outside
    /// its subtree}` is a valid generalization — the probe construction used
    /// by the off-line usage-metric enforcement.
    #[test]
    fn subtree_probe_generalizations_are_valid(tree in arb_categorical()) {
        for node in tree.nodes() {
            let inside: std::collections::HashSet<_> =
                tree.leaves_under(node.id).unwrap().iter().copied().collect();
            let mut nodes: Vec<_> = tree
                .leaves()
                .iter()
                .copied()
                .filter(|l| !inside.contains(l))
                .collect();
            nodes.push(node.id);
            prop_assert!(GeneralizationSet::new(&tree, nodes).is_ok());
        }
    }

    /// Covering nodes are consistent: for any depth-based generalization and
    /// any leaf, the covering node is an ancestor-or-self of the leaf and
    /// generalizing the leaf's value yields exactly that node's value.
    #[test]
    fn covering_is_ancestor_and_idempotent(tree in arb_categorical(), depth in 0usize..4) {
        let g = GeneralizationSet::at_depth(&tree, depth);
        for &leaf in tree.leaves() {
            let cover = g.covering_node(&tree, leaf).unwrap();
            prop_assert!(tree.is_ancestor_or_self(cover, leaf).unwrap());
            let value = tree.node_value(leaf).unwrap();
            let generalized = g.generalize_value(&tree, &value).unwrap();
            prop_assert_eq!(&generalized, &tree.node_value(cover).unwrap());
            // Generalizing an already generalized value is a fixed point.
            prop_assert_eq!(g.generalize_value(&tree, &generalized).unwrap(), generalized);
        }
    }

    /// `count_between` agrees with the length of the materialized enumeration
    /// whenever the space is small enough to enumerate fully.
    #[test]
    fn enumeration_count_matches(tree in arb_categorical()) {
        let lower = GeneralizationSet::all_leaves(&tree);
        let upper = GeneralizationSet::root_only(&tree);
        let count = GeneralizationSet::count_between(&tree, &lower, &upper).unwrap();
        prop_assume!(count <= 512);
        let all = GeneralizationSet::enumerate_between(&tree, &lower, &upper, 100_000).unwrap();
        prop_assert_eq!(all.len(), count);
    }
}
