//! Property-based tests of the relational substrate.

use medshield_relation::{csv, ColumnDef, ColumnRole, RelationError, Schema, Table, Value};
use proptest::prelude::*;
use std::collections::{HashMap, HashSet};

/// Arbitrary cell values, including the generalized interval form.
fn arb_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        any::<i32>().prop_map(|v| Value::Int(v as i64)),
        "[A-Za-z0-9 .:-]{0,12}".prop_map(Value::Text),
        (any::<i16>(), 1i64..500).prop_map(|(lo, w)| Value::interval(lo as i64, lo as i64 + w)),
    ]
}

/// Every row of `table`, read cell by cell through `value_at`.
fn rows_of(table: &Table) -> Vec<Vec<Value>> {
    (0..table.len())
        .map(|row| {
            (0..table.schema().arity()).map(|c| table.value_at(row, c).unwrap().clone()).collect()
        })
        .collect()
}

fn arb_table() -> impl Strategy<Value = Table> {
    prop::collection::vec((arb_value(), arb_value(), arb_value()), 0..40).prop_map(|rows| {
        let schema = Schema::new(vec![
            ColumnDef::new("id", ColumnRole::Identifying),
            ColumnDef::new("a", ColumnRole::QuasiNumeric),
            ColumnDef::new("b", ColumnRole::QuasiCategorical),
        ])
        .unwrap();
        let mut table = Table::new(schema);
        for (x, y, z) in rows {
            table.insert(vec![x, y, z]).unwrap();
        }
        table
    })
}

proptest! {
    /// Value display/parse round-trips for everything except free text that
    /// happens to look like another variant.
    #[test]
    fn value_parse_is_stable_on_reparse(v in arb_value()) {
        // parse(display(v)) may normalize (e.g. text "42" becomes Int 42), but
        // a second round trip must be a fixed point.
        let once = Value::parse(&v.to_string());
        let twice = Value::parse(&once.to_string());
        prop_assert_eq!(once, twice);
    }

    /// CSV export/import preserves the number of rows and re-parses every
    /// cell to the same normalized value, and every parsed column carries
    /// the dictionary and codes that inserting the normalized rows one at a
    /// time builds.
    #[test]
    fn csv_roundtrip(table in arb_table()) {
        let text = csv::to_csv(&table);
        let roles = [
            ("id", ColumnRole::Identifying),
            ("a", ColumnRole::QuasiNumeric),
            ("b", ColumnRole::QuasiCategorical),
        ];
        let parsed = csv::from_csv(&text, &roles).unwrap();
        prop_assert_eq!(parsed.len(), table.len());
        let mut inserted = Table::new(parsed.schema().clone());
        for (orig, new) in rows_of(&table).iter().zip(rows_of(&parsed).iter()) {
            // Normalization: whitespace-only text collapses to Null and
            // numeric-looking text becomes Int; both are idempotent.
            let normalized: Vec<Value> = orig.iter().map(|o| Value::parse(&o.to_string())).collect();
            prop_assert_eq!(new, &normalized);
            inserted.insert(normalized).unwrap();
        }
        for (p, i) in parsed.columns().iter().zip(inserted.columns()) {
            prop_assert_eq!(p.dict(), i.dict());
            prop_assert_eq!(p.codes(), i.codes());
        }
        prop_assert_eq!(parsed.schema().quasi_names(), table.schema().quasi_names());
    }

    /// retain_rows(mask) keeps exactly the masked rows, in order, in every
    /// column, and reports how many it removed.
    #[test]
    fn retain_rows_is_exact(
        table in arb_table(),
        flags in prop::collection::vec(any::<bool>(), 40),
    ) {
        let keep = &flags[..table.len()];
        let mut working = table.snapshot();
        let removed = working.retain_rows(keep);
        prop_assert_eq!(removed, keep.iter().filter(|&&k| !k).count());
        prop_assert_eq!(working.len(), table.len() - removed);
        for name in ["id", "a", "b"] {
            let expected: Vec<Value> = table
                .column_values(name)
                .unwrap()
                .into_iter()
                .zip(keep)
                .filter_map(|(v, &k)| k.then_some(v))
                .collect();
            prop_assert_eq!(working.column_values(name).unwrap(), expected);
        }
        prop_assert!(working.columns().iter().all(|c| c.len() == working.len()));
    }

    /// Bin sizes over the quasi columns always sum to the table size.
    #[test]
    fn bin_sizes_partition_the_table(table in arb_table()) {
        let quasi = table.schema().quasi_names();
        let bins = medshield_relation::stats::bin_sizes(&table, &quasi).unwrap();
        let total: usize = bins.values().sum();
        prop_assert_eq!(total, table.len());
    }

    /// The columnar core is invisible at the API: after arbitrary edits
    /// (including ones that grow the dictionaries and leave stale entries),
    /// the per-cell accessor, the per-column view, and a row-by-row rebuild
    /// of the table all describe the same relation — the rebuild's
    /// dictionaries hold the live values in order of first occurrence — and
    /// the CSV bytes of the columnar table and the row-wise rebuild are
    /// identical.
    #[test]
    fn columnar_views_roundtrip_through_rows(
        table in arb_table(),
        edits in prop::collection::vec((any::<u16>(), 0usize..3, arb_value()), 0..25),
    ) {
        let mut table = table;
        let rows = table.len();
        if rows > 0 {
            for (pick, col, v) in edits {
                table.set_at(pick as usize % rows, col, &v).unwrap();
            }
        }
        // Row-wise rebuild from the cells read through `value_at`.
        let mut rebuilt = Table::new(table.schema().clone());
        for row in rows_of(&table) {
            rebuilt.insert(row).unwrap();
        }
        prop_assert_eq!(rebuilt.len(), table.len());
        // Every cell agrees across the positional accessor, the column view,
        // and the rebuilt row store.
        for (c, name) in ["id", "a", "b"].into_iter().enumerate() {
            let column = table.column_values(name).unwrap();
            prop_assert_eq!(&rebuilt.column_values(name).unwrap(), &column);
            for (row, v) in column.iter().enumerate() {
                prop_assert_eq!(table.value_at(row, c).unwrap(), v);
            }
            let mut first_seen: Vec<&Value> = Vec::new();
            for v in &column {
                if !first_seen.contains(&v) {
                    first_seen.push(v);
                }
            }
            let rebuilt_column = rebuilt.column(c).unwrap();
            prop_assert_eq!(rebuilt_column.dict().iter().collect::<Vec<_>>(), first_seen);
            let codes: Vec<u32> = rebuilt_column.codes().to_vec();
            let expected: Vec<u32> = column
                .iter()
                .map(|v| rebuilt_column.dict().iter().position(|d| d == v).unwrap() as u32)
                .collect();
            prop_assert_eq!(codes, expected);
        }
        prop_assert_eq!(csv::to_csv(&rebuilt), csv::to_csv(&table));
    }

    /// A snapshot shares its source's dictionaries, and writes to either
    /// side never show in the other. After random interleaved `set_at`,
    /// `insert`, `retain_rows` and `Column::intern` calls on both sides,
    /// each side holds exactly its own expected dictionaries (the source's,
    /// then the values that side interned, in order) and codes, and equals
    /// a row-by-row rebuild of its own expected rows.
    #[test]
    fn snapshots_share_dictionaries_until_one_side_writes(
        table in arb_table(),
        ops in prop::collection::vec(
            (any::<bool>(), 0u8..4, any::<u16>(), 0usize..3, arb_value()),
            0..30,
        ),
    ) {
        let mut sides = [table.snapshot(), table];
        for c in 0..3 {
            prop_assert_eq!(
                sides[0].column(c).unwrap().dict().as_ptr(),
                sides[1].column(c).unwrap().dict().as_ptr()
            );
        }
        let mut models = [Model::of(&sides[0]), Model::of(&sides[1])];
        for (side, op, pick, col, value) in ops {
            let (table, model) = (&mut sides[usize::from(side)], &mut models[usize::from(side)]);
            let rows = model.rows.len();
            match op {
                0 if rows > 0 => {
                    table.set_at(pick as usize % rows, col, &value).unwrap();
                    model.intern(col, &value);
                    model.rows[pick as usize % rows][col] = value;
                }
                1 => {
                    let mut row = match rows {
                        0 => vec![Value::Null; 3],
                        _ => model.rows[pick as usize % rows].clone(),
                    };
                    row[col] = value;
                    table.insert(row.clone()).unwrap();
                    for (c, v) in row.iter().enumerate() {
                        model.intern(c, v);
                    }
                    model.rows.push(row);
                }
                2 if rows > 0 => {
                    let mut keep = vec![true; rows];
                    keep[pick as usize % rows] = false;
                    table.retain_rows(&keep);
                    model.rows.remove(pick as usize % rows);
                }
                _ => {
                    let code = table.column_mut(col).unwrap().intern(&value);
                    prop_assert_eq!(code, model.intern(col, &value));
                }
            }
        }
        for (table, model) in sides.iter().zip(&models) {
            prop_assert_eq!(rows_of(table), model.rows.clone());
            let mut rebuilt = Table::new(table.schema().clone());
            for row in &model.rows {
                rebuilt.insert(row.clone()).unwrap();
            }
            let fresh = table
                .map_distinct::<RelationError>(&[0, 1, 2], |_, v| Ok(v.clone()))
                .unwrap();
            for c in 0..3 {
                let column = table.column(c).unwrap();
                prop_assert_eq!(column.dict(), model.dicts[c].as_slice());
                let codes: Vec<u32> = model.rows.iter().map(|row| model.code(c, &row[c])).collect();
                prop_assert_eq!(column.codes(), codes.as_slice());
                let (f, r) = (fresh.column(c).unwrap(), rebuilt.column(c).unwrap());
                prop_assert_eq!(f.dict(), r.dict());
                prop_assert_eq!(f.codes(), r.codes());
            }
        }
    }

    /// `map_distinct` equals a naive per-row map over `column_values`, calls
    /// `f` exactly once per live distinct value (never for dictionary entries
    /// left stale by deletions or overwrites), and publishes dictionaries
    /// holding only the values the rows use.
    #[test]
    fn map_distinct_matches_a_per_row_map(
        table in arb_table(),
        edits in prop::collection::vec((any::<u16>(), 0usize..3, arb_value()), 0..25),
        deleted in prop::collection::vec(any::<u16>(), 0..10),
    ) {
        let mut table = table;
        let rows = table.len();
        if rows > 0 {
            for (pick, col, v) in edits {
                table.set_at(pick as usize % rows, col, &v).unwrap();
            }
            let mut keep = vec![true; rows];
            for &d in &deleted {
                keep[d as usize % rows] = false;
            }
            table.retain_rows(&keep);
        }
        let mut calls: Vec<HashMap<Value, usize>> = vec![HashMap::new(); 3];
        let mapped = table
            .map_distinct::<RelationError>(&[0, 1, 2], |position, v| {
                *calls[position].entry(v.clone()).or_default() += 1;
                Ok(remap(v))
            })
            .unwrap();
        prop_assert_eq!(mapped.len(), table.len());
        for (c, name) in ["id", "a", "b"].into_iter().enumerate() {
            let before = table.column_values(name).unwrap();
            let after = mapped.column_values(name).unwrap();
            let naive: Vec<Value> = before.iter().map(remap).collect();
            prop_assert_eq!(&after, &naive);
            let live: HashSet<&Value> = before.iter().collect();
            prop_assert_eq!(calls[c].len(), live.len());
            prop_assert!(calls[c].values().all(|&n| n == 1));
            prop_assert!(calls[c].keys().all(|v| live.contains(v)));
            let distinct: HashSet<&Value> = after.iter().collect();
            prop_assert_eq!(mapped.column(c).unwrap().dict().len(), distinct.len());
        }
    }

    /// A failing rewrite reports the first failing cell in row-major order.
    #[test]
    fn map_distinct_reports_the_row_major_first_failure(table in arb_table()) {
        let fail = |position: usize, v: &Value| match v {
            Value::Text(s) => Err(RelationError::UnknownColumn(format!("{position}:{s}"))),
            other => Ok(other.clone()),
        };
        let expected = rows_of(&table)
            .into_iter()
            .flat_map(|row| row.into_iter().enumerate())
            .find_map(|(position, v)| fail(position, &v).err());
        let result = table.map_distinct(&[0, 1, 2], fail);
        prop_assert_eq!(result.err(), expected);
    }
}

/// A value rewrite that changes types both ways: some integers become text,
/// text becomes integers, nulls become intervals.
fn remap(v: &Value) -> Value {
    match v {
        Value::Null => Value::interval(0, 1),
        Value::Int(i) if i % 3 == 0 => Value::Text(format!("m{i}")),
        Value::Int(i) => Value::Int(i / 2),
        Value::Text(s) => Value::Int(s.len() as i64),
        other => other.clone(),
    }
}

/// What a table should hold, kept without the columnar core: each column's
/// dictionary as `Column::intern` grows it, and the rows.
struct Model {
    dicts: Vec<Vec<Value>>,
    rows: Vec<Vec<Value>>,
}

impl Model {
    fn of(table: &Table) -> Model {
        Model {
            dicts: table.columns().iter().map(|c| c.dict().to_vec()).collect(),
            rows: rows_of(table),
        }
    }

    /// The code of `value` in column `c`, appending it to the dictionary
    /// when new.
    fn intern(&mut self, c: usize, value: &Value) -> u32 {
        if !self.dicts[c].contains(value) {
            self.dicts[c].push(value.clone());
        }
        self.code(c, value)
    }

    fn code(&self, c: usize, value: &Value) -> u32 {
        self.dicts[c].iter().position(|v| v == value).unwrap() as u32
    }
}
