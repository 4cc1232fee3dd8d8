//! Information loss: Equations (1), (2) and (3) of the paper.
//!
//! For a categorical column `c` whose generalization produced nodes
//! `{p_1..p_M}` with `S_i` the leaves under `p_i` and `n_i` the number of
//! entries of `c` falling in `S_i`:
//!
//! ```text
//!              Σ_i  n_i · (|S_i| − 1) / |S|
//! InfLoss_c =  ───────────────────────────          (Eq. 1)
//!                       Σ_i  n_i
//! ```
//!
//! For a numeric column generalized into intervals `[L_i, U_i)` over the
//! domain `[L, U)`:
//!
//! ```text
//!              Σ_i  n_i · (U_i − L_i) / (U − L)
//! InfLoss_c =  ────────────────────────────────     (Eq. 2)
//!                       Σ_i  n_i
//! ```
//!
//! The normalized loss of the whole table is the average over the generalized
//! columns (Eq. 3).

use medshield_dht::{DhtError, DhtKind, DomainHierarchyTree, GeneralizationSet};
use medshield_relation::{RelationError, Table};

/// Errors from information-loss computation.
#[derive(Debug, Clone, PartialEq)]
pub enum MetricsError {
    /// Underlying relational error (unknown column, …).
    Relation(RelationError),
    /// Underlying DHT error (value out of domain, …).
    Dht(DhtError),
    /// The column has no entries, so the loss is undefined.
    EmptyColumn(String),
}

impl std::fmt::Display for MetricsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MetricsError::Relation(e) => write!(f, "relation error: {e}"),
            MetricsError::Dht(e) => write!(f, "dht error: {e}"),
            MetricsError::EmptyColumn(c) => write!(f, "column {c} has no entries"),
        }
    }
}

impl std::error::Error for MetricsError {}

impl From<RelationError> for MetricsError {
    fn from(e: RelationError) -> Self {
        MetricsError::Relation(e)
    }
}

impl From<DhtError> for MetricsError {
    fn from(e: DhtError) -> Self {
        MetricsError::Dht(e)
    }
}

/// A column together with the tree and generalization applied to it — the
/// unit over which information loss is defined.
#[derive(Debug, Clone)]
pub struct ColumnGeneralization<'a> {
    /// Column name in the table.
    pub column: &'a str,
    /// Domain hierarchy tree for the column.
    pub tree: &'a DomainHierarchyTree,
    /// The generalization whose loss is being measured.
    pub generalization: &'a GeneralizationSet,
}

/// Information loss of one column under a generalization (Eq. 1 for
/// categorical trees, Eq. 2 for numeric trees). The table may hold either the
/// original specific values or already-binned values; both are mapped to
/// their covering generalization node.
pub fn column_info_loss(table: &Table, cg: &ColumnGeneralization<'_>) -> Result<f64, MetricsError> {
    let values = table.column_values(cg.column)?;
    if values.is_empty() {
        return Err(MetricsError::EmptyColumn(cg.column.to_string()));
    }

    // n_i per generalization node, summed below in node order so the result
    // is the same to the bit on every call.
    let mut counts: std::collections::BTreeMap<medshield_dht::NodeId, usize> =
        std::collections::BTreeMap::new();
    for v in &values {
        let node = cg.generalization.node_for_value(cg.tree, v)?;
        *counts.entry(node).or_insert(0) += 1;
    }

    let total: usize = counts.values().sum();
    let loss_sum: f64 = match cg.tree.kind() {
        DhtKind::Categorical => {
            let s_total = cg.tree.leaf_count() as f64;
            counts
                .iter()
                .map(|(&node, &n_i)| {
                    let s_i = cg.tree.leaf_count_under(node).unwrap_or(1) as f64;
                    n_i as f64 * (s_i - 1.0) / s_total
                })
                .sum()
        }
        DhtKind::Numeric => {
            let (dom_lo, dom_hi) = cg
                .tree
                .node(cg.tree.root())
                .map_err(MetricsError::Dht)?
                .interval
                .expect("numeric root has an interval");
            let span = (dom_hi - dom_lo) as f64;
            counts
                .iter()
                .map(|(&node, &n_i)| {
                    let (lo, hi) = cg
                        .tree
                        .node(node)
                        .expect("node exists")
                        .interval
                        .expect("numeric node has an interval");
                    n_i as f64 * ((hi - lo) as f64) / span
                })
                .sum()
        }
    };
    Ok(loss_sum / total as f64)
}

/// Normalized information loss of the table: the average of the per-column
/// losses over all generalized columns (Eq. 3).
pub fn table_info_loss(
    table: &Table,
    columns: &[ColumnGeneralization<'_>],
) -> Result<f64, MetricsError> {
    if columns.is_empty() {
        return Ok(0.0);
    }
    let mut sum = 0.0;
    for cg in columns {
        sum += column_info_loss(table, cg)?;
    }
    Ok(sum / columns.len() as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use medshield_dht::builder::{numeric_binary_tree, CategoricalNodeSpec};
    use medshield_dht::GeneralizationSet;
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

    fn table_with(values: &[&str]) -> Table {
        let schema =
            Schema::new(vec![ColumnDef::new("role", ColumnRole::QuasiCategorical)]).unwrap();
        let mut t = Table::new(schema);
        for v in values {
            t.insert(vec![Value::text(*v)]).unwrap();
        }
        t
    }

    #[test]
    fn categorical_loss_zero_when_ungeneralized() {
        let tree = role_tree();
        let table = table_with(&["Surgeon", "Nurse", "Pharmacist"]);
        let g = GeneralizationSet::all_leaves(&tree);
        let cg = ColumnGeneralization { column: "role", tree: &tree, generalization: &g };
        assert!((column_info_loss(&table, &cg).unwrap()).abs() < 1e-12);
    }

    #[test]
    fn categorical_loss_matches_eq1_by_hand() {
        // Generalization {Doctor, Paramedic}: |S| = 5 leaves total.
        // Doctor covers 2 leaves (|S_1|-1 = 1), Paramedic covers 3 (|S_2|-1 = 2).
        // With 4 Surgeon entries and 6 Nurse entries:
        //   InfLoss = (4·1/5 + 6·2/5) / 10 = (0.8 + 2.4) / 10 = 0.32
        let tree = role_tree();
        let mut entries = vec!["Surgeon"; 4];
        entries.extend(vec!["Nurse"; 6]);
        let table = table_with(&entries);
        let doctor = tree.node_by_label("Doctor").unwrap();
        let paramedic = tree.node_by_label("Paramedic").unwrap();
        let g = GeneralizationSet::new(&tree, vec![doctor, paramedic]).unwrap();
        let cg = ColumnGeneralization { column: "role", tree: &tree, generalization: &g };
        let loss = column_info_loss(&table, &cg).unwrap();
        assert!((loss - 0.32).abs() < 1e-12, "loss = {loss}");
    }

    #[test]
    fn categorical_loss_mixed_levels() {
        // Broader generalization: Surgeon and Physician stay as leaves
        // (|S_i|=1 → zero contribution), Paramedic generalizes its 3 leaves.
        let tree = role_tree();
        let table = table_with(&["Surgeon", "Physician", "Nurse", "Consultant"]);
        let surgeon = tree.node_by_label("Surgeon").unwrap();
        let physician = tree.node_by_label("Physician").unwrap();
        let paramedic = tree.node_by_label("Paramedic").unwrap();
        let g = GeneralizationSet::new(&tree, vec![surgeon, physician, paramedic]).unwrap();
        let cg = ColumnGeneralization { column: "role", tree: &tree, generalization: &g };
        // (1·0 + 1·0 + 2·(3-1)/5) / 4 = 0.8/4 = 0.2
        let loss = column_info_loss(&table, &cg).unwrap();
        assert!((loss - 0.2).abs() < 1e-12, "loss = {loss}");
    }

    #[test]
    fn categorical_loss_works_on_already_binned_values() {
        let tree = role_tree();
        // Values already generalized to the internal labels.
        let table = table_with(&["Doctor", "Paramedic", "Paramedic"]);
        let doctor = tree.node_by_label("Doctor").unwrap();
        let paramedic = tree.node_by_label("Paramedic").unwrap();
        let g = GeneralizationSet::new(&tree, vec![doctor, paramedic]).unwrap();
        let cg = ColumnGeneralization { column: "role", tree: &tree, generalization: &g };
        // (1·1/5 + 2·2/5)/3 = (0.2+0.8)/3 = 1/3
        let loss = column_info_loss(&table, &cg).unwrap();
        assert!((loss - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn numeric_loss_matches_eq2_by_hand() {
        // Domain [0,100) in four leaves of width 25, generalization
        // {[0,50), [50,100)}. Three entries in [0,50), one in [50,100):
        //   InfLoss = (3·50/100 + 1·50/100) / 4 = 0.5
        let tree = numeric_binary_tree("age", &[(0, 25), (25, 50), (50, 75), (75, 100)]).unwrap();
        let schema = Schema::new(vec![ColumnDef::new("age", ColumnRole::QuasiNumeric)]).unwrap();
        let mut table = Table::new(schema);
        for v in [10, 30, 40, 80] {
            table.insert(vec![Value::int(v)]).unwrap();
        }
        let lo = tree.node_for_value(&Value::interval(0, 50)).unwrap();
        let hi = tree.node_for_value(&Value::interval(50, 100)).unwrap();
        let g = GeneralizationSet::new(&tree, vec![lo, hi]).unwrap();
        let cg = ColumnGeneralization { column: "age", tree: &tree, generalization: &g };
        let loss = column_info_loss(&table, &cg).unwrap();
        assert!((loss - 0.5).abs() < 1e-12, "loss = {loss}");
    }

    #[test]
    fn numeric_loss_of_leaf_generalization_is_leaf_width_fraction() {
        let tree = numeric_binary_tree("age", &[(0, 25), (25, 50), (50, 75), (75, 100)]).unwrap();
        let schema = Schema::new(vec![ColumnDef::new("age", ColumnRole::QuasiNumeric)]).unwrap();
        let mut table = Table::new(schema);
        for v in [10, 30, 80] {
            table.insert(vec![Value::int(v)]).unwrap();
        }
        let g = GeneralizationSet::all_leaves(&tree);
        let cg = ColumnGeneralization { column: "age", tree: &tree, generalization: &g };
        // Every leaf has width 25 over a 100-wide domain → 0.25 each.
        let loss = column_info_loss(&table, &cg).unwrap();
        assert!((loss - 0.25).abs() < 1e-12);
    }

    #[test]
    fn table_loss_is_average_of_columns() {
        let role = role_tree();
        let age = numeric_binary_tree("age", &[(0, 50), (50, 100)]).unwrap();
        let schema = Schema::new(vec![
            ColumnDef::new("role", ColumnRole::QuasiCategorical),
            ColumnDef::new("age", ColumnRole::QuasiNumeric),
        ])
        .unwrap();
        let mut table = Table::new(schema);
        table.insert(vec![Value::text("Surgeon"), Value::int(20)]).unwrap();
        table.insert(vec![Value::text("Nurse"), Value::int(70)]).unwrap();

        let g_role = GeneralizationSet::root_only(&role);
        let g_age = GeneralizationSet::all_leaves(&age);
        let cols = [
            ColumnGeneralization { column: "role", tree: &role, generalization: &g_role },
            ColumnGeneralization { column: "age", tree: &age, generalization: &g_age },
        ];
        // role loss = (5-1)/5 = 0.8 for every entry; age loss = 0.5 each.
        let loss = table_info_loss(&table, &cols).unwrap();
        assert!((loss - (0.8 + 0.5) / 2.0).abs() < 1e-12, "loss = {loss}");
    }

    #[test]
    fn empty_column_is_an_error_and_empty_spec_is_zero() {
        let tree = role_tree();
        let table = table_with(&[]);
        let g = GeneralizationSet::all_leaves(&tree);
        let cg = ColumnGeneralization { column: "role", tree: &tree, generalization: &g };
        assert!(matches!(column_info_loss(&table, &cg), Err(MetricsError::EmptyColumn(_))));
        assert_eq!(table_info_loss(&table, &[]).unwrap(), 0.0);
    }

    #[test]
    fn out_of_domain_value_is_an_error() {
        let tree = role_tree();
        let table = table_with(&["Astronaut"]);
        let g = GeneralizationSet::all_leaves(&tree);
        let cg = ColumnGeneralization { column: "role", tree: &tree, generalization: &g };
        assert!(matches!(column_info_loss(&table, &cg), Err(MetricsError::Dht(_))));
    }

    #[test]
    fn repeated_calls_agree_to_the_bit() {
        // Forty leaves of widths 1..=40 holding 1..=40 entries: the terms
        // differ in magnitude, so their sum depends on the order it is taken.
        let mut intervals = Vec::new();
        let mut lo = 0;
        for width in 1..=40 {
            intervals.push((lo, lo + width));
            lo += width;
        }
        let tree = numeric_binary_tree("age", &intervals).unwrap();
        let schema = Schema::new(vec![ColumnDef::new("age", ColumnRole::QuasiNumeric)]).unwrap();
        let mut table = Table::new(schema);
        for (n, &(lo, _)) in intervals.iter().enumerate() {
            for _ in 0..=n {
                table.insert(vec![Value::int(lo)]).unwrap();
            }
        }
        let g = GeneralizationSet::all_leaves(&tree);
        let cg = ColumnGeneralization { column: "age", tree: &tree, generalization: &g };
        let first = column_info_loss(&table, &cg).unwrap();
        for _ in 0..50 {
            assert_eq!(column_info_loss(&table, &cg).unwrap().to_bits(), first.to_bits());
        }
    }

    #[test]
    fn loss_is_monotone_in_generalization_height() {
        let tree = role_tree();
        let table = table_with(&["Surgeon", "Nurse", "Pharmacist", "Physician"]);
        let leaves = GeneralizationSet::all_leaves(&tree);
        let doctor = tree.node_by_label("Doctor").unwrap();
        let paramedic = tree.node_by_label("Paramedic").unwrap();
        let mid = GeneralizationSet::new(&tree, vec![doctor, paramedic]).unwrap();
        let root = GeneralizationSet::root_only(&tree);
        fn mk<'a>(
            tree: &'a DomainHierarchyTree,
            g: &'a GeneralizationSet,
        ) -> ColumnGeneralization<'a> {
            ColumnGeneralization { column: "role", tree, generalization: g }
        }
        let l0 = column_info_loss(&table, &mk(&tree, &leaves)).unwrap();
        let l1 = column_info_loss(&table, &mk(&tree, &mid)).unwrap();
        let l2 = column_info_loss(&table, &mk(&tree, &root)).unwrap();
        assert!(l0 < l1 && l1 < l2, "{l0} < {l1} < {l2}");
    }
}
