//! Pins the node sets the exhaustive multi-attribute search (`EnumGen` +
//! `Selection`, Fig. 7) chooses on small tables.
//!
//! In each table several candidate generalizations are k-anonymous at
//! different losses, and the lowest loss is shared by candidates that only
//! the tie rule separates: `Selection` keeps the k-anonymous candidate of
//! least loss, and of equal losses the one enumerated first. Every thread
//! count must choose the same sets.

use medshield_binning::multi::{generate_ultimate_nodes, ColumnContext, SearchMode};
use medshield_binning::SelectionStrategy;
use medshield_dht::builder::{numeric_binary_tree, CategoricalNodeSpec};
use medshield_dht::{DomainHierarchyTree, GeneralizationSet};
use medshield_relation::{ColumnDef, ColumnRole, Schema, Table, Value};

/// `Staff → {Doctor → {Surgeon, Physician}, Paramedic → {Nurse, Pharmacist}}`.
fn staff_tree() -> DomainHierarchyTree {
    CategoricalNodeSpec::internal(
        "Staff",
        vec![
            CategoricalNodeSpec::internal(
                "Doctor",
                vec![CategoricalNodeSpec::leaf("Surgeon"), CategoricalNodeSpec::leaf("Physician")],
            ),
            CategoricalNodeSpec::internal(
                "Paramedic",
                vec![CategoricalNodeSpec::leaf("Nurse"), CategoricalNodeSpec::leaf("Pharmacist")],
            ),
        ],
    )
    .build("doctor")
    .unwrap()
}

/// `Any → {Ward → {Cardio, Neuro}, Clinic → {Day, Night}}`.
fn unit_tree() -> DomainHierarchyTree {
    CategoricalNodeSpec::internal(
        "Any",
        vec![
            CategoricalNodeSpec::internal(
                "Ward",
                vec![CategoricalNodeSpec::leaf("Cardio"), CategoricalNodeSpec::leaf("Neuro")],
            ),
            CategoricalNodeSpec::internal(
                "Clinic",
                vec![CategoricalNodeSpec::leaf("Day"), CategoricalNodeSpec::leaf("Night")],
            ),
        ],
    )
    .build("unit")
    .unwrap()
}

/// Ages in four quarters of `[0,100)`, halves above them.
fn age_tree() -> DomainHierarchyTree {
    numeric_binary_tree("age", &[(0, 25), (25, 50), (50, 75), (75, 100)]).unwrap()
}

/// A table of the given quasi columns (`true` = numeric) and rows.
fn table(columns: &[(&str, bool)], rows: &[Vec<Value>]) -> Table {
    let defs = columns
        .iter()
        .map(|&(name, numeric)| {
            let role =
                if numeric { ColumnRole::QuasiNumeric } else { ColumnRole::QuasiCategorical };
            ColumnDef::new(name, role)
        })
        .collect();
    let mut table = Table::new(Schema::new(defs).unwrap());
    for row in rows {
        table.insert(row.clone()).unwrap();
    }
    table
}

/// Run the exhaustive search from all-leaves up to root-only on every
/// column, on each of several thread counts, and return the chosen node
/// labels per column (each in the order of the set's nodes).
fn chosen_labels(
    table: &Table,
    trees: &[(&str, &DomainHierarchyTree)],
    k: usize,
    selection: SelectionStrategy,
) -> Vec<Vec<String>> {
    let minimal: Vec<GeneralizationSet> =
        trees.iter().map(|(_, tree)| GeneralizationSet::all_leaves(tree)).collect();
    let maximal: Vec<GeneralizationSet> =
        trees.iter().map(|(_, tree)| GeneralizationSet::root_only(tree)).collect();
    let contexts: Vec<ColumnContext<'_>> = trees
        .iter()
        .zip(minimal.iter().zip(&maximal))
        .map(|(&(column, tree), (minimal, maximal))| ColumnContext {
            column,
            tree,
            minimal,
            maximal,
        })
        .collect();
    let mut chosen = None;
    for threads in [1, 2, 3] {
        let outcome =
            generate_ultimate_nodes(table, &contexts, k, selection, 10_000, threads).unwrap();
        assert_eq!(outcome.mode, SearchMode::Exhaustive);
        assert!(outcome.satisfied, "{:?}", outcome.warnings);
        let labels: Vec<Vec<String>> = outcome
            .ultimate
            .iter()
            .zip(trees)
            .map(|(set, (_, tree))| {
                set.nodes().iter().map(|&id| tree.node(id).unwrap().label.clone()).collect()
            })
            .collect();
        match &chosen {
            None => chosen = Some(labels),
            Some(first) => assert_eq!(&labels, first, "{threads} threads chose differently"),
        }
    }
    chosen.unwrap()
}

fn labels(sets: &[&[&str]]) -> Vec<Vec<String>> {
    sets.iter().map(|set| set.iter().map(ToString::to_string).collect()).collect()
}

/// Age quarters crossed with doctor leaves, two rows per doctor group in
/// each quarter. At k = 2 the k-anonymous candidates include the all-root
/// one (index 0, loss 1.5 under specificity loss) and, at the least loss
/// (0.5 under both strategies), exactly four that tie: age leaves with
/// doctor groups (index 9), age `{[0,50), [50,75), [75,100)}` with
/// `{Physician, Surgeon, Paramedic}` (13), age `{[0,25), [25,50),
/// [50,100)}` with `{Doctor, Nurse, Pharmacist}` (17), and age halves with
/// doctor leaves (21). The first of them wins.
#[test]
fn exhaustive_selection_keeps_the_first_of_the_least_loss_candidates() {
    let rows: Vec<Vec<Value>> = [
        (10, "Surgeon"),
        (12, "Physician"),
        (30, "Surgeon"),
        (35, "Physician"),
        (60, "Nurse"),
        (65, "Pharmacist"),
        (80, "Nurse"),
        (85, "Pharmacist"),
    ]
    .iter()
    .map(|&(age, doctor)| vec![Value::int(age), Value::text(doctor)])
    .collect();
    let t = table(&[("age", true), ("doctor", false)], &rows);
    let (age, staff) = (age_tree(), staff_tree());
    let expected =
        labels(&[&["[0,25)", "[25,50)", "[50,75)", "[75,100)"], &["Doctor", "Paramedic"]]);
    for selection in [SelectionStrategy::SpecificityLoss, SelectionStrategy::FullInfoLoss] {
        let chosen = chosen_labels(&t, &[("age", &age), ("doctor", &staff)], 2, selection);
        assert_eq!(chosen, expected, "{selection:?}");
    }
}

/// Three columns: the doctor and the unit of each row determine each
/// other, so generalizing either one to its three-node set keeps every
/// bin at two rows, while leaves on both leave single rows. At k = 2 the
/// least loss (0.25 under specificity loss, 0.375 under full information
/// loss) is shared by age leaves + doctor leaves + `{Day, Night, Ward}`
/// (index 74) and age leaves + `{Doctor, Nurse, Pharmacist}` + unit leaves
/// (index 119); coarser k-anonymous candidates, from the all-root one on,
/// lose more. The first of the two wins.
#[test]
fn exhaustive_selection_breaks_a_tie_across_columns_by_enumeration_order() {
    let rows: Vec<Vec<Value>> = [
        (10, "Surgeon", "Cardio"),
        (12, "Physician", "Cardio"),
        (14, "Surgeon", "Neuro"),
        (16, "Physician", "Neuro"),
        (60, "Nurse", "Day"),
        (65, "Nurse", "Day"),
        (80, "Pharmacist", "Night"),
        (85, "Pharmacist", "Night"),
    ]
    .iter()
    .map(|&(age, doctor, unit)| vec![Value::int(age), Value::text(doctor), Value::text(unit)])
    .collect();
    let t = table(&[("age", true), ("doctor", false), ("unit", false)], &rows);
    let (age, staff, unit) = (age_tree(), staff_tree(), unit_tree());
    let expected = labels(&[
        &["[0,25)", "[25,50)", "[50,75)", "[75,100)"],
        &["Physician", "Surgeon", "Nurse", "Pharmacist"],
        &["Day", "Night", "Ward"],
    ]);
    let trees = [("age", &age), ("doctor", &staff), ("unit", &unit)];
    for selection in [SelectionStrategy::SpecificityLoss, SelectionStrategy::FullInfoLoss] {
        assert_eq!(chosen_labels(&t, &trees, 2, selection), expected, "{selection:?}");
    }
}
