//! The generalization attack (§5.2) — specific to binned data.
//!
//! The attacker further generalizes every quasi-identifying value, replacing
//! it by the value of an ancestor node a few levels up the domain hierarchy
//! tree. Because the gap between the ultimate and maximal generalization
//! nodes exists precisely so the data remain usable, this attack keeps the
//! table useful while requiring no knowledge of the watermarking key. It
//! destroys any scheme that stores its bits at a single level; the
//! hierarchical scheme survives because copies of each bit live at every
//! level above the attacked one.

use crate::Attack;
use medshield_dht::DomainHierarchyTree;
use medshield_relation::{RelationError, Table, Value};
use std::collections::BTreeMap;

/// The generalization attack.
#[derive(Debug, Clone)]
pub struct GeneralizationAttack {
    /// How many levels up each value is pushed (at least 1).
    pub levels: usize,
    /// The attacker's knowledge of the domain hierarchy trees (public: the
    /// trees are part of the data dictionary, not of the secret key).
    pub trees: BTreeMap<String, DomainHierarchyTree>,
    /// Do not generalize a value above this depth (the attacker still wants
    /// usable data). `None` allows climbing all the way to the root.
    pub max_depth_floor: Option<usize>,
}

impl GeneralizationAttack {
    /// Generalize every quasi value `levels` steps up its tree.
    pub fn new(levels: usize, trees: BTreeMap<String, DomainHierarchyTree>) -> Self {
        GeneralizationAttack { levels: levels.max(1), trees, max_depth_floor: None }
    }

    /// Restrict the attack so that values are never generalized to a depth
    /// shallower than `floor` (e.g. the depth of the maximal generalization
    /// nodes, which the attacker respects to keep the data usable).
    pub fn with_depth_floor(mut self, floor: usize) -> Self {
        self.max_depth_floor = Some(floor);
        self
    }
}

impl GeneralizationAttack {
    /// `value` moved `levels` steps up `tree`, stopping at the root or the
    /// depth floor. Nulls and values the tree cannot resolve pass through.
    fn climb(&self, tree: &DomainHierarchyTree, value: &Value) -> Value {
        if value.is_null() {
            return value.clone();
        }
        let Ok(mut node) = tree.node_for_value(value) else { return value.clone() };
        for _ in 0..self.levels {
            let depth = tree.depth(node).unwrap_or(0);
            if let Some(floor) = self.max_depth_floor {
                if depth <= floor {
                    break;
                }
            }
            match tree.parent(node) {
                Ok(Some(parent)) => node = parent,
                _ => break,
            }
        }
        tree.node_value(node).expect("node exists")
    }
}

impl Attack for GeneralizationAttack {
    fn apply(&self, table: &Table) -> Table {
        let schema = table.schema();
        let targets: Vec<(usize, &DomainHierarchyTree)> = schema
            .quasi_indices()
            .into_iter()
            .filter_map(|i| Some((i, self.trees.get(&schema.column(i)?.name)?)))
            .collect();
        let indices: Vec<usize> = targets.iter().map(|&(i, _)| i).collect();
        table
            .map_distinct::<RelationError>(&indices, |position, value| {
                Ok(self.climb(targets[position].1, value))
            })
            .expect("indices come from the schema")
    }

    fn describe(&self) -> String {
        format!("generalization attack ({} level(s) up)", self.levels)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use medshield_datagen::{ontology, DatasetConfig, MedicalDataset};

    fn dataset() -> MedicalDataset {
        MedicalDataset::generate(&DatasetConfig::small(200))
    }

    #[test]
    fn values_move_up_one_level() {
        let ds = dataset();
        let attack = GeneralizationAttack::new(1, ds.trees.clone());
        let attacked = attack.apply(&ds.table);
        let tree = &ds.trees["doctor"];
        let originals = ds.table.column_values("doctor").unwrap();
        let generalized = attacked.column_values("doctor").unwrap();
        assert_eq!(originals.len(), generalized.len());
        for (orig, att) in originals.iter().zip(&generalized) {
            let orig_node = tree.node_for_value(orig).unwrap();
            let att_node = tree.node_for_value(att).unwrap();
            assert_eq!(tree.parent(orig_node).unwrap(), Some(att_node));
        }
    }

    #[test]
    fn many_levels_saturate_at_the_root() {
        let ds = dataset();
        let attack = GeneralizationAttack::new(99, ds.trees.clone());
        let attacked = attack.apply(&ds.table);
        let tree = &ds.trees["symptom"];
        for v in attacked.column_values("symptom").unwrap() {
            let node = tree.node_for_value(&v).unwrap();
            assert_eq!(node, tree.root());
        }
    }

    #[test]
    fn depth_floor_is_respected() {
        let ds = dataset();
        let attack = GeneralizationAttack::new(99, ds.trees.clone()).with_depth_floor(1);
        let attacked = attack.apply(&ds.table);
        for column in ["doctor", "symptom", "prescription"] {
            let tree = &ds.trees[column];
            for v in attacked.column_values(column).unwrap() {
                let node = tree.node_for_value(&v).unwrap();
                assert!(tree.depth(node).unwrap() >= 1, "column {column} value {v}");
            }
        }
    }

    #[test]
    fn identifier_and_non_tree_columns_are_untouched() {
        let ds = dataset();
        let mut trees = ds.trees.clone();
        trees.remove("age");
        let attack = GeneralizationAttack::new(1, trees);
        let attacked = attack.apply(&ds.table);
        for column in ["ssn", "age"] {
            assert_eq!(
                ds.table.column_values(column).unwrap(),
                attacked.column_values(column).unwrap()
            );
        }
    }

    #[test]
    fn already_generalized_values_keep_climbing() {
        // Apply on a table whose values are already internal-node values.
        let role = ontology::role_tree();
        let schema = medshield_relation::Schema::new(vec![medshield_relation::ColumnDef::new(
            "role",
            medshield_relation::ColumnRole::QuasiCategorical,
        )])
        .unwrap();
        let mut t = Table::new(schema);
        t.insert(vec![Value::text("Paramedic")]).unwrap();
        let mut trees = BTreeMap::new();
        trees.insert("role".to_string(), role.clone());
        let attacked = GeneralizationAttack::new(1, trees).apply(&t);
        assert_eq!(attacked.column_values("role").unwrap()[0], Value::text("Medical Staff"));
    }

    #[test]
    fn describe_mentions_levels() {
        let ds = dataset();
        assert!(GeneralizationAttack::new(2, ds.trees).describe().contains("2 level"));
    }
}
