//! The domain hierarchy tree data structure and the node operations of
//! Table 1 in the paper.
//!
//! A tree is immutable once built, so `DomainHierarchyTree::from_parts`
//! indexes it once and every lookup the binning and watermarking hot paths
//! make answers from that index instead of walking the arena:
//!
//! * `Leaves` / `SubTree` leaves: one left-to-right leaf list, plus each
//!   node's range in it (a subtree's leaves are contiguous in preorder), so
//!   [`DomainHierarchyTree::leaves_under`] returns a slice and
//!   [`DomainHierarchyTree::leaf_count_under`] is a subtraction;
//! * `Val2Nd`: hash maps from label, from interval and from integer label
//!   (a categorical label such as ICD-9 `008` that parses as the integer a
//!   CSV round trip turned it into), each keeping the node the former
//!   linear scan found first; a numeric value takes a binary search over
//!   the leaf list, whose intervals increase left to right.
//!
//! The lookups are defined as those scans: the differential property tests
//! in `tests/index_reference.rs` check every lookup against a scan over the
//! public arena, errors included.

use crate::error::DhtError;
use medshield_relation::Value;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::ops::Range;

/// Index of a node within its tree's arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct NodeId(pub u32);

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Whether the tree generalizes a categorical or a numeric attribute.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DhtKind {
    /// Labels at the leaves, generalization to ancestor labels (Fig. 1).
    Categorical,
    /// Disjoint intervals at the leaves, pairwise combined (Fig. 3).
    Numeric,
}

/// One node of a domain hierarchy tree.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Node {
    /// This node's id.
    pub id: NodeId,
    /// Human-readable label. For numeric nodes this is the interval rendered
    /// as `[lo,hi)`.
    pub label: String,
    /// The half-open interval represented by a numeric node.
    pub interval: Option<(i64, i64)>,
    /// Parent node, `None` for the root.
    pub parent: Option<NodeId>,
    /// Children, kept sorted by represented value so that the "sorted set S"
    /// of the watermarking algorithm is simply the child list.
    pub children: Vec<NodeId>,
    /// Distance from the root (root has depth 0).
    pub depth: usize,
}

impl Node {
    /// True if the node has no children.
    pub fn is_leaf(&self) -> bool {
        self.children.is_empty()
    }

    /// The relational [`Value`] this node represents: the interval for
    /// numeric nodes (or the point value for unit intervals), the label for
    /// categorical nodes. This is the paper's `Nd2Val`.
    pub fn value(&self) -> Value {
        match self.interval {
            Some((lo, hi)) if hi == lo + 1 => Value::Int(lo),
            Some((lo, hi)) => Value::Interval { lo, hi },
            None => Value::Text(self.label.clone()),
        }
    }
}

/// A domain hierarchy tree for one quasi-identifying attribute.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DomainHierarchyTree {
    attribute: String,
    kind: DhtKind,
    nodes: Vec<Node>,
    root: NodeId,
    index: TreeIndex,
}

/// The lookup tables of one tree, built once by
/// [`DomainHierarchyTree::from_parts`] (see the module documentation).
#[derive(Debug, Clone, Default)]
struct TreeIndex {
    /// The leaves reachable from the root, left to right.
    leaves: Vec<NodeId>,
    /// Per node, in arena order: the range of `leaves` under it.
    leaf_ranges: Vec<Range<usize>>,
    /// Label → the first node in arena order carrying it.
    by_label: HashMap<String, NodeId>,
    /// Interval → the first node in arena order representing it.
    by_interval: HashMap<(i64, i64), NodeId>,
    /// Integer label → the first node in arena order whose label parses as
    /// that integer (categorical trees only).
    node_by_int: HashMap<i64, NodeId>,
    /// Integer label → the first leaf, left to right, whose label parses as
    /// that integer (categorical trees only).
    leaf_by_int: HashMap<i64, NodeId>,
}

impl TreeIndex {
    fn build(kind: DhtKind, nodes: &[Node], root: NodeId) -> Self {
        let mut index = TreeIndex { leaf_ranges: vec![0..0; nodes.len()], ..TreeIndex::default() };
        // Preorder walk: a node's leaves are the ones pushed between its
        // entry and its exit, so each range is contiguous, and leaves arrive
        // left to right.
        let mut stack = vec![(root, false)];
        while let Some((id, exiting)) = stack.pop() {
            let Some(node) = nodes.get(id.0 as usize) else { continue };
            if exiting {
                index.leaf_ranges[id.0 as usize].end = index.leaves.len();
                continue;
            }
            index.leaf_ranges[id.0 as usize] = index.leaves.len()..index.leaves.len();
            if node.is_leaf() {
                index.leaves.push(id);
                if kind == DhtKind::Categorical {
                    if let Ok(v) = node.label.parse::<i64>() {
                        index.leaf_by_int.entry(v).or_insert(id);
                    }
                }
            }
            stack.push((id, true));
            stack.extend(node.children.iter().rev().map(|&c| (c, false)));
        }
        for node in nodes {
            index.by_label.entry(node.label.clone()).or_insert(node.id);
            if let Some(interval) = node.interval {
                index.by_interval.entry(interval).or_insert(node.id);
            }
            if kind == DhtKind::Categorical {
                if let Ok(v) = node.label.parse::<i64>() {
                    index.node_by_int.entry(v).or_insert(node.id);
                }
            }
        }
        index
    }
}

impl DomainHierarchyTree {
    /// Construct directly from parts and index the tree. Intended for the
    /// builders in [`crate::builder`]; invariants (parent/child consistency,
    /// sorted children, correct depths, unique labels, disjoint leaf
    /// intervals) are the builders' responsibility.
    pub(crate) fn from_parts(
        attribute: String,
        kind: DhtKind,
        nodes: Vec<Node>,
        root: NodeId,
    ) -> Self {
        let index = TreeIndex::build(kind, &nodes, root);
        DomainHierarchyTree { attribute, kind, nodes, root, index }
    }

    /// Name of the attribute this tree generalizes.
    pub fn attribute(&self) -> &str {
        &self.attribute
    }

    /// Whether this is a categorical or numeric tree.
    pub fn kind(&self) -> DhtKind {
        self.kind
    }

    /// The root node id.
    pub fn root(&self) -> NodeId {
        self.root
    }

    /// Total number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Borrow a node by id.
    pub fn node(&self, id: NodeId) -> Result<&Node, DhtError> {
        self.nodes.get(id.0 as usize).ok_or(DhtError::UnknownNode(id))
    }

    /// Iterate over all nodes.
    pub fn nodes(&self) -> impl Iterator<Item = &Node> {
        self.nodes.iter()
    }

    /// `Parent(nd, tr)` — parent of `id`, `None` for the root.
    pub fn parent(&self, id: NodeId) -> Result<Option<NodeId>, DhtError> {
        Ok(self.node(id)?.parent)
    }

    /// `Children(nd, tr)` — the (sorted) children of `id`.
    pub fn children(&self, id: NodeId) -> Result<&[NodeId], DhtError> {
        Ok(&self.node(id)?.children)
    }

    /// `Siblings(nd, tr)` — `id` together with its siblings, i.e. the sorted
    /// child list of its parent. For the root this is just `[root]`.
    pub fn siblings(&self, id: NodeId) -> Result<&[NodeId], DhtError> {
        match self.node(id)?.parent {
            Some(p) => Ok(&self.node(p)?.children),
            None => Ok(std::slice::from_ref(&self.root)),
        }
    }

    /// `Leaves(tr)` — all leaf node ids, in left-to-right order.
    pub fn leaves(&self) -> &[NodeId] {
        &self.index.leaves
    }

    /// The leaf nodes of `SubTree(nd, tr)`, in left-to-right order.
    pub fn leaves_under(&self, id: NodeId) -> Result<&[NodeId], DhtError> {
        let range = self.index.leaf_ranges.get(id.0 as usize).ok_or(DhtError::UnknownNode(id))?;
        Ok(&self.index.leaves[range.clone()])
    }

    /// All node ids of the subtree rooted at `id` (preorder).
    pub fn subtree(&self, id: NodeId) -> Result<Vec<NodeId>, DhtError> {
        let mut out = Vec::new();
        let mut stack = vec![id];
        while let Some(n) = stack.pop() {
            out.push(n);
            let node = self.node(n)?;
            for &c in node.children.iter().rev() {
                stack.push(c);
            }
        }
        Ok(out)
    }

    /// True if `ancestor` is `descendant` or lies on the path from
    /// `descendant` to the root.
    pub fn is_ancestor_or_self(
        &self,
        ancestor: NodeId,
        descendant: NodeId,
    ) -> Result<bool, DhtError> {
        let mut cur = Some(descendant);
        while let Some(n) = cur {
            if n == ancestor {
                return Ok(true);
            }
            cur = self.node(n)?.parent;
        }
        Ok(false)
    }

    /// The path from `id` up to the root, inclusive on both ends.
    pub fn path_to_root(&self, id: NodeId) -> Result<Vec<NodeId>, DhtError> {
        let mut path = vec![id];
        let mut cur = self.node(id)?.parent;
        while let Some(n) = cur {
            path.push(n);
            cur = self.node(n)?.parent;
        }
        Ok(path)
    }

    /// Depth of `id` (root is 0).
    pub fn depth(&self, id: NodeId) -> Result<usize, DhtError> {
        Ok(self.node(id)?.depth)
    }

    /// Height of the tree: the maximum leaf depth.
    pub fn height(&self) -> usize {
        self.nodes.iter().map(|n| n.depth).max().unwrap_or(0)
    }

    /// Number of leaves in the whole tree.
    pub fn leaf_count(&self) -> usize {
        self.index.leaves.len()
    }

    /// Number of leaves under `id`.
    pub fn leaf_count_under(&self, id: NodeId) -> Result<usize, DhtError> {
        Ok(self.leaves_under(id)?.len())
    }

    /// Find a node by its label.
    pub fn node_by_label(&self, label: &str) -> Result<NodeId, DhtError> {
        self.index
            .by_label
            .get(label)
            .copied()
            .ok_or_else(|| DhtError::UnknownLabel(label.to_string()))
    }

    /// The leaf node that represents a specific (ungeneralized) value:
    /// label match for categorical trees, interval containment for numeric
    /// trees.
    pub fn leaf_for_value(&self, value: &Value) -> Result<NodeId, DhtError> {
        match self.kind {
            DhtKind::Categorical => match value {
                Value::Text(label) => self
                    .index
                    .by_label
                    .get(label.as_str())
                    .copied()
                    .filter(|&id| self.nodes[id.0 as usize].is_leaf())
                    .ok_or_else(|| DhtError::ValueOutOfDomain(label.to_string())),
                // Numeric-looking categorical labels (e.g. ICD-9 code "008")
                // may round-trip through text formats as integers; match them
                // by numeric value so `Int(8)` still finds the "008" leaf.
                Value::Int(v) => self
                    .index
                    .leaf_by_int
                    .get(v)
                    .copied()
                    .ok_or_else(|| DhtError::ValueOutOfDomain(v.to_string())),
                other => Err(DhtError::ValueOutOfDomain(other.to_string())),
            },
            DhtKind::Numeric => {
                let point = match value {
                    Value::Int(v) => *v,
                    Value::Interval { lo, .. } => *lo,
                    other => return Err(DhtError::ValueOutOfDomain(other.to_string())),
                };
                // Numeric leaves hold disjoint intervals in increasing order
                // left to right (the builder checks that they tile the
                // domain), so only the last leaf starting at or before
                // `point` can contain it.
                let interval = |leaf: NodeId| self.nodes[leaf.0 as usize].interval;
                let leaves = &self.index.leaves;
                let starts =
                    leaves.partition_point(|&l| interval(l).is_some_and(|(lo, _)| lo <= point));
                starts
                    .checked_sub(1)
                    .map(|i| leaves[i])
                    .filter(|&l| interval(l).is_some_and(|(_, hi)| point < hi))
                    .ok_or_else(|| DhtError::ValueOutOfDomain(point.to_string()))
            }
        }
    }

    /// The *most specific* node (deepest) that represents `value`, whether
    /// generalized or not: exact label / interval match if one exists,
    /// otherwise the leaf containing the value. This is how a binned cell is
    /// mapped back onto the tree during watermark embedding and detection.
    pub fn node_for_value(&self, value: &Value) -> Result<NodeId, DhtError> {
        // Exact match against any node first (generalized values).
        let exact = match value {
            Value::Text(s) => self.index.by_label.get(s.as_str()),
            Value::Interval { lo, hi } => self.index.by_interval.get(&(*lo, *hi)),
            Value::Int(v) => v
                .checked_add(1)
                .and_then(|hi| self.index.by_interval.get(&(*v, hi)))
                .or_else(|| self.index.node_by_int.get(v)),
            Value::Null => None,
        };
        match exact {
            Some(&id) => Ok(id),
            None => self.leaf_for_value(value),
        }
    }

    /// `Nd2Val(nd)` — the value represented by a node.
    pub fn node_value(&self, id: NodeId) -> Result<Value, DhtError> {
        Ok(self.node(id)?.value())
    }

    /// `Index(nd, S)` — index of `id` within a slice of node ids.
    /// Returns `None` if the node is not in the slice.
    pub fn index_in(id: NodeId, set: &[NodeId]) -> Option<usize> {
        set.iter().position(|&n| n == id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{numeric_uniform_tree, CategoricalNodeSpec};

    /// The Fig. 1 person-role tree.
    pub(crate) fn role_tree() -> DomainHierarchyTree {
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
    fn role_tree_shape() {
        let t = role_tree();
        assert_eq!(t.kind(), DhtKind::Categorical);
        assert_eq!(t.leaf_count(), 7);
        assert_eq!(t.height(), 3);
        assert_eq!(t.node(t.root()).unwrap().label, "Person");
        assert_eq!(t.leaf_count_under(t.root()).unwrap(), 7);
    }

    #[test]
    fn parent_children_siblings() {
        let t = role_tree();
        let pharmacist = t.node_by_label("Pharmacist").unwrap();
        let paramedic = t.node_by_label("Paramedic").unwrap();
        assert_eq!(t.parent(pharmacist).unwrap(), Some(paramedic));
        assert!(t.children(paramedic).unwrap().contains(&pharmacist));
        let sibs = t.siblings(pharmacist).unwrap();
        assert_eq!(sibs.len(), 3);
        assert!(sibs.contains(&t.node_by_label("Nurse").unwrap()));
        // Root's sibling set is itself.
        assert_eq!(t.siblings(t.root()).unwrap(), &[t.root()]);
        // Children are sorted by label.
        let labels: Vec<&str> = t
            .children(paramedic)
            .unwrap()
            .iter()
            .map(|&c| t.node(c).unwrap().label.as_str())
            .collect();
        let mut sorted = labels.clone();
        sorted.sort();
        assert_eq!(labels, sorted);
    }

    #[test]
    fn leaves_and_subtree() {
        let t = role_tree();
        let doctor = t.node_by_label("Doctor").unwrap();
        let leaves: Vec<String> = t
            .leaves_under(doctor)
            .unwrap()
            .iter()
            .map(|&l| t.node(l).unwrap().label.clone())
            .collect();
        assert_eq!(leaves, vec!["Physician", "Surgeon"]);
        let sub = t.subtree(doctor).unwrap();
        assert_eq!(sub.len(), 3);
        assert_eq!(sub[0], doctor);
    }

    #[test]
    fn ancestor_and_path() {
        let t = role_tree();
        let nurse = t.node_by_label("Nurse").unwrap();
        let staff = t.node_by_label("Medical Staff").unwrap();
        let nonmed = t.node_by_label("Non-medical Staff").unwrap();
        assert!(t.is_ancestor_or_self(staff, nurse).unwrap());
        assert!(t.is_ancestor_or_self(nurse, nurse).unwrap());
        assert!(!t.is_ancestor_or_self(nonmed, nurse).unwrap());
        let path = t.path_to_root(nurse).unwrap();
        assert_eq!(path.len(), 4);
        assert_eq!(path[0], nurse);
        assert_eq!(*path.last().unwrap(), t.root());
        assert_eq!(t.depth(nurse).unwrap(), 3);
        assert_eq!(t.depth(t.root()).unwrap(), 0);
    }

    #[test]
    fn value_mapping_categorical() {
        let t = role_tree();
        let v = Value::text("Consultant");
        let leaf = t.leaf_for_value(&v).unwrap();
        assert_eq!(t.node_value(leaf).unwrap(), v);
        // Generalized label maps to the internal node.
        let para = t.node_for_value(&Value::text("Paramedic")).unwrap();
        assert_eq!(t.node(para).unwrap().label, "Paramedic");
        assert!(t.leaf_for_value(&Value::text("Astronaut")).is_err());
        assert!(t.leaf_for_value(&Value::int(5)).is_err());
    }

    #[test]
    fn numeric_looking_categorical_labels_match_ints() {
        // ICD-9-style code labels round-trip through CSV as integers.
        let t = CategoricalNodeSpec::internal(
            "codes",
            vec![
                CategoricalNodeSpec::leaf("001"),
                CategoricalNodeSpec::leaf("008"),
                CategoricalNodeSpec::leaf("527"),
            ],
        )
        .build("symptom")
        .unwrap();
        assert_eq!(t.leaf_for_value(&Value::int(527)).unwrap(), t.node_by_label("527").unwrap());
        assert_eq!(t.leaf_for_value(&Value::int(8)).unwrap(), t.node_by_label("008").unwrap());
        assert_eq!(t.node_for_value(&Value::int(1)).unwrap(), t.node_by_label("001").unwrap());
        assert!(t.leaf_for_value(&Value::int(999)).is_err());
    }

    #[test]
    fn value_mapping_numeric() {
        let t = numeric_uniform_tree("age", 0, 160, 16).unwrap();
        assert_eq!(t.kind(), DhtKind::Numeric);
        assert_eq!(t.leaf_count(), 16);
        let leaf = t.leaf_for_value(&Value::int(37)).unwrap();
        assert_eq!(t.node_value(leaf).unwrap(), Value::interval(30, 40));
        // A generalized interval maps to the exact internal node.
        let n = t.node_for_value(&Value::interval(0, 20)).unwrap();
        assert_eq!(t.node_value(n).unwrap(), Value::interval(0, 20));
        assert!(t.leaf_for_value(&Value::int(200)).is_err());
        assert!(t.leaf_for_value(&Value::text("x")).is_err());
    }

    #[test]
    fn index_in_helper() {
        let t = role_tree();
        let para = t.node_by_label("Paramedic").unwrap();
        let kids = t.children(para).unwrap();
        for (i, &k) in kids.iter().enumerate() {
            assert_eq!(DomainHierarchyTree::index_in(k, kids), Some(i));
        }
        assert_eq!(DomainHierarchyTree::index_in(t.root(), kids), None);
    }

    #[test]
    fn unknown_node_errors() {
        let t = role_tree();
        let bogus = NodeId(9999);
        assert!(t.node(bogus).is_err());
        assert!(t.parent(bogus).is_err());
        assert!(t.children(bogus).is_err());
    }
}
