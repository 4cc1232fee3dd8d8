//! Generalization sets over a domain hierarchy tree.
//!
//! The paper's (broader, Iyengar-style) definition: a valid generalization is
//! a set of nodes such that the path from every leaf to the root encounters
//! **one and only one** node of the set (§4). The set need not sit at a
//! single level, and a leaf may itself be a generalization node.
//!
//! The binning algorithm manipulates three such sets per attribute —
//! maximal, minimal and ultimate generalization nodes — and multi-attribute
//! binning enumerates every valid generalization lying between the minimal
//! and maximal sets (Fig. 6). The watermarking algorithm walks between the
//! maximal and ultimate sets. All of that machinery lives here.

use crate::error::DhtError;
use crate::tree::{DomainHierarchyTree, NodeId};
use medshield_relation::Value;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// A validated set of generalization nodes for one tree.
///
/// The node list is shared storage: a clone shares it instead of copying
/// it, so a release that keeps the same set twice (per-attribute binning
/// stores `ultimate` as a clone of `minimal`) keeps it once.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct GeneralizationSet {
    nodes: Arc<[NodeId]>,
}

impl GeneralizationSet {
    /// Build a generalization set, verifying validity: every leaf-to-root
    /// path must meet exactly one of `nodes`.
    pub fn new(tree: &DomainHierarchyTree, mut nodes: Vec<NodeId>) -> Result<Self, DhtError> {
        nodes.sort();
        nodes.dedup();
        for &n in &nodes {
            tree.node(n)?;
        }
        for &leaf in tree.leaves() {
            let path = tree.path_to_root(leaf)?;
            let hits = path.iter().filter(|n| nodes.binary_search(n).is_ok()).count();
            if hits != 1 {
                return Err(DhtError::InvalidGeneralization(format!(
                    "leaf {} meets {hits} generalization nodes (must be exactly 1)",
                    tree.node(leaf)?.label
                )));
            }
        }
        Ok(GeneralizationSet { nodes: nodes.into() })
    }

    /// The coarsest generalization: just the root.
    pub fn root_only(tree: &DomainHierarchyTree) -> Self {
        GeneralizationSet { nodes: Arc::new([tree.root()]) }
    }

    /// Rebuild a set from node ids that were **previously validated**
    /// against their tree — the deserialization surface of the durable
    /// release store. The ids are sorted and deduplicated when they are not
    /// already (the invariants the accessors rely on) but tree validity is
    /// *not* re-checked: the caller vouches that the ids came from
    /// [`GeneralizationSet::nodes`] of a set built by
    /// [`GeneralizationSet::new`] or one of the constructors.
    pub fn from_validated_nodes(nodes: &[NodeId]) -> Self {
        if nodes.is_sorted_by(|a, b| a < b) {
            return GeneralizationSet { nodes: nodes.into() };
        }
        let mut nodes = nodes.to_vec();
        nodes.sort();
        nodes.dedup();
        GeneralizationSet { nodes: nodes.into() }
    }

    /// The finest generalization: every leaf is its own node (no information
    /// loss).
    pub fn all_leaves(tree: &DomainHierarchyTree) -> Self {
        let mut nodes = tree.leaves().to_vec();
        nodes.sort();
        GeneralizationSet { nodes: nodes.into() }
    }

    /// The generalization whose nodes sit at `depth` (root = 0), with leaves
    /// shallower than `depth` kept as their own generalization nodes. This is
    /// the classical single-level generalization of Samarati/Sweeney, provided
    /// as a convenient way to state usage metrics ("generalize at most to
    /// level d").
    pub fn at_depth(tree: &DomainHierarchyTree, depth: usize) -> Self {
        let mut nodes = Vec::new();
        let mut stack = vec![tree.root()];
        while let Some(n) = stack.pop() {
            let node = tree.node(n).expect("traversal stays in the tree");
            if node.depth == depth || (node.is_leaf() && node.depth <= depth) {
                nodes.push(n);
            } else if node.depth < depth {
                for &c in &node.children {
                    stack.push(c);
                }
            }
        }
        nodes.sort();
        GeneralizationSet { nodes: nodes.into() }
    }

    /// The generalization node ids, sorted.
    pub fn nodes(&self) -> &[NodeId] {
        &self.nodes
    }

    /// Number of generalization nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True if the set is empty (never the case for a validated set).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// True if `id` is one of the generalization nodes.
    pub fn contains(&self, id: NodeId) -> bool {
        self.nodes.binary_search(&id).is_ok()
    }

    /// The unique generalization node on the path from `leaf` (or any
    /// descendant node) to the root.
    pub fn covering_node(
        &self,
        tree: &DomainHierarchyTree,
        node: NodeId,
    ) -> Result<NodeId, DhtError> {
        let mut current = Some(node);
        while let Some(n) = current {
            if self.contains(n) {
                return Ok(n);
            }
            current = tree.parent(n)?;
        }
        Err(DhtError::InvalidGeneralization(format!(
            "node {} is not covered by the generalization",
            tree.node(node)?.label
        )))
    }

    /// `Val2Nd`: the generalization node representing a raw or generalized
    /// value of the attribute. The value is first located in the tree (exact
    /// node for generalized values, containing leaf otherwise), then walked up
    /// to its covering node.
    pub fn node_for_value(
        &self,
        tree: &DomainHierarchyTree,
        value: &Value,
    ) -> Result<NodeId, DhtError> {
        let node = tree.node_for_value(value)?;
        self.covering_node(tree, node)
    }

    /// Generalize a raw value: the value represented by its covering node.
    pub fn generalize_value(
        &self,
        tree: &DomainHierarchyTree,
        value: &Value,
    ) -> Result<Value, DhtError> {
        let node = self.node_for_value(tree, value)?;
        tree.node_value(node)
    }

    /// Specificity loss `(N - Ng) / N` of §4.2.2, where `N` is the number of
    /// leaves of the tree and `Ng` the number of generalization nodes.
    pub fn specificity_loss(&self, tree: &DomainHierarchyTree) -> f64 {
        let n = tree.leaf_count() as f64;
        if n == 0.0 {
            return 0.0;
        }
        (n - self.nodes.len() as f64) / n
    }

    /// True if every node of `self` lies at or below (is a descendant-or-self
    /// of) some node of `upper`. This is the partial order "self is at least
    /// as specific as upper"; e.g. minimal ⊑ maximal, ultimate ⊑ maximal.
    pub fn is_at_or_below(
        &self,
        tree: &DomainHierarchyTree,
        upper: &GeneralizationSet,
    ) -> Result<bool, DhtError> {
        for &n in self.nodes.iter() {
            let mut covered = false;
            for p in tree.path_to_root(n)? {
                if upper.contains(p) {
                    covered = true;
                    break;
                }
            }
            if !covered {
                return Ok(false);
            }
        }
        Ok(true)
    }

    /// Enumerate every valid generalization `g` with `lower ⊑ g ⊑ upper`
    /// (Fig. 6 of the paper). `limit` caps the number of generalizations
    /// produced; enumeration stops once the cap is reached, which the caller
    /// (multi-attribute binning) treats as "fall back to a coarser search".
    ///
    /// Preconditions: both sets are valid for `tree` and `lower ⊑ upper`.
    pub fn enumerate_between(
        tree: &DomainHierarchyTree,
        lower: &GeneralizationSet,
        upper: &GeneralizationSet,
        limit: usize,
    ) -> Result<Vec<GeneralizationSet>, DhtError> {
        // Per-maximal-node options: each option is one way to generalize the
        // leaves below that node, expressed as a node set.
        let mut per_node_options: Vec<Vec<Vec<NodeId>>> = Vec::with_capacity(upper.len());
        for &m in upper.nodes() {
            per_node_options.push(options_below(tree, lower, m, limit)?);
        }

        capped_product(&per_node_options, limit)
            .into_iter()
            .map(|nodes| GeneralizationSet::new(tree, nodes))
            .collect()
    }

    /// Number of allowable generalizations between `lower` and `upper`
    /// without materializing them (may saturate at `usize::MAX`).
    pub fn count_between(
        tree: &DomainHierarchyTree,
        lower: &GeneralizationSet,
        upper: &GeneralizationSet,
    ) -> Result<usize, DhtError> {
        let mut total: usize = 1;
        for &m in upper.nodes() {
            let c = count_below(tree, lower, m)?;
            total = total.saturating_mul(c);
        }
        Ok(total)
    }
}

/// All ways to generalize the subtree rooted at `node`, staying at or above
/// the nodes of `lower`.
fn options_below(
    tree: &DomainHierarchyTree,
    lower: &GeneralizationSet,
    node: NodeId,
    limit: usize,
) -> Result<Vec<Vec<NodeId>>, DhtError> {
    // The node itself is always an option (it is at or above every lower node
    // beneath it, and at or below the upper node we started from).
    let mut options = vec![vec![node]];
    if lower.contains(node) {
        // Cannot descend below a lower-bound node.
        return Ok(options);
    }
    let children = tree.children(node)?;
    if children.is_empty() {
        return Ok(options);
    }
    // Descending: combine one option per child (cartesian product), keeping
    // every produced combination complete even when the cap is hit.
    let mut child_options = Vec::with_capacity(children.len());
    for &child in children {
        child_options.push(options_below(tree, lower, child, limit)?);
    }
    options.extend(capped_product(&child_options, limit.saturating_sub(1).max(1)));
    options.truncate(limit.max(1));
    Ok(options)
}

/// Cartesian product of `lists`, concatenating the inner node sets, capped at
/// `limit` complete combinations. Combinations are enumerated in mixed-radix
/// order so every returned set covers one option from *every* list — a
/// truncated enumeration never yields a partial (invalid) generalization.
fn capped_product(lists: &[Vec<Vec<NodeId>>], limit: usize) -> Vec<Vec<NodeId>> {
    if lists.iter().any(std::vec::Vec::is_empty) {
        return Vec::new();
    }
    let mut total: usize = 1;
    for l in lists {
        total = total.saturating_mul(l.len());
    }
    let take = total.min(limit.max(1));
    let mut out = Vec::with_capacity(take);
    for idx in 0..take {
        let mut rem = idx;
        let mut combined = Vec::new();
        for l in lists {
            let digit = rem % l.len();
            rem /= l.len();
            combined.extend_from_slice(&l[digit]);
        }
        out.push(combined);
    }
    out
}

/// Count of [`options_below`] without materializing.
fn count_below(
    tree: &DomainHierarchyTree,
    lower: &GeneralizationSet,
    node: NodeId,
) -> Result<usize, DhtError> {
    if lower.contains(node) {
        return Ok(1);
    }
    let children = tree.children(node)?;
    if children.is_empty() {
        return Ok(1);
    }
    let mut product: usize = 1;
    for &child in children {
        product = product.saturating_mul(count_below(tree, lower, child)?);
    }
    Ok(product.saturating_add(1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{numeric_binary_tree, CategoricalNodeSpec};

    /// The Fig. 6 numeric tree: leaves 40..47 over [0,160) in 20-wide steps,
    /// with interior nodes 30..33 (40-wide), 20..22, 10..11, and root 00.
    /// We reproduce the same topology; labels are the intervals.
    fn fig6_tree() -> DomainHierarchyTree {
        let intervals: Vec<(i64, i64)> = (0..8).map(|i| (i * 20, (i + 1) * 20)).collect();
        numeric_binary_tree("age", &intervals).unwrap()
    }

    fn node(tree: &DomainHierarchyTree, lo: i64, hi: i64) -> NodeId {
        tree.node_for_value(&Value::interval(lo, hi)).unwrap()
    }

    fn role_tree() -> DomainHierarchyTree {
        CategoricalNodeSpec::internal(
            "Person",
            vec![
                CategoricalNodeSpec::internal(
                    "Medical Staff",
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
                ),
                CategoricalNodeSpec::internal(
                    "Non-medical Staff",
                    vec![
                        CategoricalNodeSpec::leaf("Technician"),
                        CategoricalNodeSpec::leaf("Administrator"),
                    ],
                ),
            ],
        )
        .build("role")
        .unwrap()
    }

    #[test]
    fn validity_requires_exactly_one_hit_per_leaf() {
        let t = role_tree();
        // Valid: mixed levels (broader notion of generalization).
        let doctor = t.node_by_label("Doctor").unwrap();
        let pharmacist = t.node_by_label("Pharmacist").unwrap();
        let nurse = t.node_by_label("Nurse").unwrap();
        let consultant = t.node_by_label("Consultant").unwrap();
        let nonmed = t.node_by_label("Non-medical Staff").unwrap();
        let valid = GeneralizationSet::new(&t, vec![doctor, pharmacist, nurse, consultant, nonmed]);
        assert!(valid.is_ok());

        // Invalid: a leaf covered zero times.
        assert!(GeneralizationSet::new(&t, vec![doctor]).is_err());
        // Invalid: a leaf covered twice (node and its ancestor).
        let staff = t.node_by_label("Medical Staff").unwrap();
        assert!(GeneralizationSet::new(&t, vec![staff, doctor, nonmed]).is_err());
        // Invalid: unknown node.
        assert!(GeneralizationSet::new(&t, vec![NodeId(999)]).is_err());
    }

    #[test]
    fn root_only_and_all_leaves_are_valid() {
        let t = role_tree();
        let root = GeneralizationSet::root_only(&t);
        let leaves = GeneralizationSet::all_leaves(&t);
        assert!(GeneralizationSet::new(&t, root.nodes().to_vec()).is_ok());
        assert!(GeneralizationSet::new(&t, leaves.nodes().to_vec()).is_ok());
        assert_eq!(root.len(), 1);
        assert_eq!(leaves.len(), 7);
        assert!(!root.is_empty());
    }

    #[test]
    fn covering_and_generalize() {
        let t = role_tree();
        let para = t.node_by_label("Paramedic").unwrap();
        let doctor = t.node_by_label("Doctor").unwrap();
        let nonmed = t.node_by_label("Non-medical Staff").unwrap();
        let g = GeneralizationSet::new(&t, vec![para, doctor, nonmed]).unwrap();

        assert_eq!(
            g.generalize_value(&t, &Value::text("Pharmacist")).unwrap(),
            Value::text("Paramedic")
        );
        assert_eq!(g.generalize_value(&t, &Value::text("Surgeon")).unwrap(), Value::text("Doctor"));
        assert_eq!(
            g.generalize_value(&t, &Value::text("Technician")).unwrap(),
            Value::text("Non-medical Staff")
        );
        // Values outside the domain are rejected.
        assert!(g.generalize_value(&t, &Value::text("Astronaut")).is_err());
        // node_for_value of an already generalized value is idempotent.
        assert_eq!(g.node_for_value(&t, &Value::text("Paramedic")).unwrap(), para);
    }

    #[test]
    fn covering_node_fails_above_the_set() {
        let t = role_tree();
        let para = t.node_by_label("Paramedic").unwrap();
        let doctor = t.node_by_label("Doctor").unwrap();
        let nonmed = t.node_by_label("Non-medical Staff").unwrap();
        let g = GeneralizationSet::new(&t, vec![para, doctor, nonmed]).unwrap();
        // The root sits above every generalization node: not covered.
        assert!(g.covering_node(&t, t.root()).is_err());
    }

    #[test]
    fn specificity_loss_extremes() {
        let t = role_tree();
        let root = GeneralizationSet::root_only(&t);
        let leaves = GeneralizationSet::all_leaves(&t);
        assert!((leaves.specificity_loss(&t) - 0.0).abs() < 1e-12);
        assert!((root.specificity_loss(&t) - 6.0 / 7.0).abs() < 1e-12);
    }

    #[test]
    fn partial_order() {
        let t = fig6_tree();
        let leaves = GeneralizationSet::all_leaves(&t);
        let root = GeneralizationSet::root_only(&t);
        assert!(leaves.is_at_or_below(&t, &root).unwrap());
        assert!(!root.is_at_or_below(&t, &leaves).unwrap());
        assert!(leaves.is_at_or_below(&t, &leaves).unwrap());
    }

    #[test]
    fn fig6_enumeration_counts_six_generalizations() {
        // The paper enumerates exactly six allowable generalizations between
        // the minimal nodes {30, 31, 45, 46, 33, 22} and the maximal nodes
        // {20, 21, 22} of Figure 6. In our reproduction of the topology:
        //   maximal nodes: [0,80) at depth1-left... we mirror by taking
        //   upper = the three nodes {[0,80), [80,160) left child's subtree}
        // To match the figure precisely we use:
        //   upper = {20=[0,80), 21=[80,160)-left=[80,120)?}
        // The exact figure uses an unbalanced tree; rather than replicate its
        // node numbering we verify the combinatorial law on our balanced tree:
        // between lower = leaves and upper = {[0,40),[40,80),[80,120),[120,160)}
        // each upper node has (1 child-split + itself) = 2 options,
        // so 2^4 = 16 allowable generalizations.
        let t = fig6_tree();
        let upper_nodes: Vec<NodeId> = (0..4).map(|i| node(&t, i * 40, (i + 1) * 40)).collect();
        let upper = GeneralizationSet::new(&t, upper_nodes).unwrap();
        let lower = GeneralizationSet::all_leaves(&t);
        let count = GeneralizationSet::count_between(&t, &lower, &upper).unwrap();
        assert_eq!(count, 16);
        let all = GeneralizationSet::enumerate_between(&t, &lower, &upper, 1000).unwrap();
        assert_eq!(all.len(), 16);
        // Every enumerated generalization is valid and within bounds.
        for g in &all {
            assert!(g.is_at_or_below(&t, &upper).unwrap());
            assert!(lower.is_at_or_below(&t, g).unwrap());
        }
        // They are pairwise distinct.
        for i in 0..all.len() {
            for j in (i + 1)..all.len() {
                assert_ne!(all[i], all[j]);
            }
        }
    }

    #[test]
    fn fig6_paper_example_exact() {
        // Reproduce the actual Figure 6 situation on the subtree rooted at
        // node 20 = [0,80): minimal generalization nodes are the two leaves
        // under 30 ([0,20),[20,40)) kept as node 30, and for node 31 its
        // children 45=[40,60), 46=[60,80) are minimal. The figure lists the
        // allowable generalizations of the whole tree as 6. We test the same
        // structure: lower = {30, 45, 46, 33, 22}, upper = {20, 21, 22} in the
        // paper's numbering. On our balanced [0,160) tree we take:
        //   lower = {[0,40), [40,60), [60,80), [80,120), [120,160)}
        //   upper = {[0,80), [80,160)}
        // Options below [0,80): itself, {[0,40),[40,80)}, {[0,40),[40,60),[60,80)}
        //   → 3 options (paper's node-20 subtree likewise has 3).
        // Options below [80,160): itself, {[80,120),[120,160)} → 2 options.
        // Total = 6, matching the paper's count.
        let t = fig6_tree();
        let lower = GeneralizationSet::new(
            &t,
            vec![
                node(&t, 0, 40),
                node(&t, 40, 60),
                node(&t, 60, 80),
                node(&t, 80, 120),
                node(&t, 120, 160),
            ],
        )
        .unwrap();
        let upper = GeneralizationSet::new(&t, vec![node(&t, 0, 80), node(&t, 80, 160)]).unwrap();
        assert!(lower.is_at_or_below(&t, &upper).unwrap());
        assert_eq!(GeneralizationSet::count_between(&t, &lower, &upper).unwrap(), 6);
        let all = GeneralizationSet::enumerate_between(&t, &lower, &upper, 100).unwrap();
        assert_eq!(all.len(), 6);
    }

    #[test]
    fn at_depth_produces_valid_generalizations() {
        let t = role_tree();
        for depth in 0..=4 {
            let g = GeneralizationSet::at_depth(&t, depth);
            // Revalidate through the checked constructor.
            assert!(
                GeneralizationSet::new(&t, g.nodes().to_vec()).is_ok(),
                "depth {depth} produced an invalid generalization"
            );
        }
        assert_eq!(GeneralizationSet::at_depth(&t, 0).len(), 1);
        // Depth beyond the height is just the leaves.
        assert_eq!(GeneralizationSet::at_depth(&t, 10), GeneralizationSet::all_leaves(&t));
    }

    #[test]
    fn at_depth_keeps_shallow_leaves() {
        // A lop-sided tree: one branch is deep, the other is a bare leaf.
        let t = CategoricalNodeSpec::internal(
            "root",
            vec![
                CategoricalNodeSpec::leaf("shallow"),
                CategoricalNodeSpec::internal(
                    "deep",
                    vec![CategoricalNodeSpec::leaf("x"), CategoricalNodeSpec::leaf("y")],
                ),
            ],
        )
        .build("col")
        .unwrap();
        let g = GeneralizationSet::at_depth(&t, 2);
        assert!(g.contains(t.node_by_label("shallow").unwrap()));
        assert!(g.contains(t.node_by_label("x").unwrap()));
        assert!(GeneralizationSet::new(&t, g.nodes().to_vec()).is_ok());
    }

    #[test]
    fn enumeration_respects_limit() {
        let t = fig6_tree();
        let lower = GeneralizationSet::all_leaves(&t);
        let upper = GeneralizationSet::root_only(&t);
        let limited = GeneralizationSet::enumerate_between(&t, &lower, &upper, 5).unwrap();
        assert!(limited.len() <= 5);
        assert!(!limited.is_empty());
    }

    #[test]
    fn generalize_numeric_values() {
        let t = fig6_tree();
        let g = GeneralizationSet::new(&t, vec![node(&t, 0, 80), node(&t, 80, 160)]).unwrap();
        assert_eq!(g.generalize_value(&t, &Value::int(35)).unwrap(), Value::interval(0, 80));
        assert_eq!(g.generalize_value(&t, &Value::int(150)).unwrap(), Value::interval(80, 160));
        // Already generalized input stays within its covering node.
        assert_eq!(
            g.generalize_value(&t, &Value::interval(40, 60)).unwrap(),
            Value::interval(0, 80)
        );
    }
}
